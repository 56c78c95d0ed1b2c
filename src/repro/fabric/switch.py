"""A deterministic output-queued switch with shared-buffer contention.

N hosts attach through full-duplex links; every packet crosses one
uplink (serialization + propagation), is admitted against a shared
packet buffer, queues at its destination's output port, and leaves
through the egress serializer (+ propagation).  The three contended
resources that make fabric scenarios interesting — egress bandwidth,
shared buffer, and the admission policy arbitrating it — are all here:

* **Buffer partitioning** (``SwitchConfig.partition``): ``shared``
  (one pool, first come first buffered), ``static`` (hard per-output
  slice), or ``dynamic`` (classic dynamic-threshold: a port may hold at
  most ``alpha x`` the *remaining free* buffer, so hot ports are
  throttled while idle ports' share stays reclaimable).
* **Queueing** (``SwitchConfig.queueing``): per-output ``fifo``, or
  ``drr`` — deficit-round-robin across source hosts, an approximate
  fair-queueing discipline that stops one heavy sender from starving
  the rest of an incast.
* **ECN hook** (``SwitchConfig.ecn_threshold_bytes``): packets enqueued
  above the threshold are CE-marked; the soft stacks echo the mark and
  halve their windows — DCTCP-flavored, deliberately minimal.

Everything is integer picoseconds and integer bytes; events are
processed in global (time, port-index) order, so one seed replays one
run bit for bit (the switch itself has *no* RNG at all).

Each uplink's next arrival and each port's next egress start sit in
one agenda heap, re-keyed only when that port's state changes, so
neither ``advance`` nor ``next_event_ps`` ever scans the ports.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..net.link import LINK_100G, Link
from ..tcp.segment import ip_from_string
from .softstack import FabricPacket, _IntDirection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..check.lockstep import LockstepSanitizer

#: First host IP; host ``i`` is ``_BASE_IP + i`` (plain int arithmetic).
_BASE_IP = ip_from_string("10.0.0.1")

#: "No event": an integer-ps key later than any real instant.
NEVER = 1 << 62


@dataclass(frozen=True)
class SwitchConfig:
    """Knobs for the output-queued shared-buffer switch."""

    #: Total packet buffer shared by all output queues.
    buffer_bytes: int = 1 << 21
    #: ``shared`` | ``static`` | ``dynamic`` (dynamic-threshold).
    partition: str = "dynamic"
    #: Dynamic-threshold alpha in eighths (8 = 1.0), kept integral so
    #: admission math never leaves integer bytes.
    dt_alpha_x8: int = 8
    #: ``fifo`` | ``drr`` (deficit round robin across source hosts).
    queueing: str = "fifo"
    #: DRR quantum per visit (bytes on the wire).
    drr_quantum_bytes: int = 3076
    #: CE-mark packets enqueued above this depth; 0 disables ECN.
    ecn_threshold_bytes: int = 0
    #: Host-to-switch and switch-to-host link (both directions).
    link: Link = field(default_factory=lambda: LINK_100G)

    def validate(self) -> None:
        if self.partition not in ("shared", "static", "dynamic"):
            raise ValueError(f"unknown partition {self.partition!r}")
        if self.queueing not in ("fifo", "drr"):
            raise ValueError(f"unknown queueing {self.queueing!r}")
        if self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if self.dt_alpha_x8 <= 0:
            raise ValueError("dt_alpha_x8 must be positive")


class _OutputQueue:
    """One egress port's queue: FIFO, or DRR over per-source queues."""

    def __init__(self, config: SwitchConfig) -> None:
        self._drr = config.queueing == "drr"
        self._quantum = config.drr_quantum_bytes
        #: FIFO mode: one deque of (packet, enqueue_ps).
        self._fifo: Deque[Tuple[FabricPacket, int]] = deque()
        #: DRR mode: per-source deques plus the active rotation.
        self._per_src: Dict[int, Deque[Tuple[FabricPacket, int]]] = {}
        self._active: Deque[int] = deque()
        self._deficit: Dict[int, int] = {}
        self.queued_bytes = 0
        self.queued_packets = 0

    def push(self, packet: FabricPacket, src: int, enqueue_ps: int) -> None:
        if self._drr:
            queue = self._per_src.get(src)
            if queue is None:
                queue = self._per_src[src] = deque()
            if not queue:
                self._active.append(src)
                self._deficit[src] = 0
            queue.append((packet, enqueue_ps))
        else:
            self._fifo.append((packet, enqueue_ps))
        self.queued_bytes += packet.wire_bytes
        self.queued_packets += 1

    def head_ready_ps(self) -> Optional[int]:
        """Earliest enqueue instant among queued packets (None = empty)."""
        if not self._drr:
            return self._fifo[0][1] if self._fifo else None
        ready: Optional[int] = None
        for src in self._active:
            t = self._per_src[src][0][1]
            if ready is None or t < ready:
                ready = t
        return ready

    def pop(self) -> Tuple[FabricPacket, int]:
        """Dequeue the next packet per the discipline."""
        if not self._drr:
            packet, enqueue_ps = self._fifo.popleft()
        else:
            while True:
                src = self._active[0]
                queue = self._per_src[src]
                head_bytes = queue[0][0].wire_bytes
                if self._deficit[src] >= head_bytes:
                    self._deficit[src] -= head_bytes
                    packet, enqueue_ps = queue.popleft()
                    if not queue:
                        self._active.popleft()
                        self._deficit[src] = 0
                    break
                # Not enough deficit: top up and move to the next source.
                self._deficit[src] += self._quantum
                self._active.rotate(-1)
        self.queued_bytes -= packet.wire_bytes
        self.queued_packets -= 1
        return packet, enqueue_ps


class _FabricPort:
    """One host's NIC-side handle (SoftPort-shaped); ``poll`` does not
    advance the switch — its driver does."""

    def __init__(self, fabric: "SwitchFabric", index: int) -> None:
        self._fabric = fabric
        self._index = index

    def send(self, packet: FabricPacket, now_ps: int) -> None:
        self._fabric._transmit(self._index, packet, now_ps)

    def poll(self, now_ps: int) -> List[FabricPacket]:
        fabric = self._fabric
        heap = fabric._delivery[self._index]
        due: List[FabricPacket] = []
        while heap and heap[0][0] <= now_ps:
            due.append(heapq.heappop(heap)[2])
        fabric.delivery_ps[self._index] = heap[0][0] if heap else NEVER
        return due

    @property
    def pending(self) -> int:
        """This host's uplink backlog plus its undelivered packets."""
        fabric, index = self._fabric, self._index
        return fabric._uplinks[index].in_flight + len(fabric._delivery[index])


class SwitchFabric:
    """N host ports around one output-queued shared-buffer switch."""

    def __init__(self, num_hosts: int, config: Optional[SwitchConfig] = None) -> None:
        if num_hosts < 2:
            raise ValueError("a fabric needs at least 2 hosts")
        self.config = config or SwitchConfig()
        self.config.validate()
        self.num_hosts = num_hosts
        link = self.config.link
        self._uplinks = [_IntDirection(link, None) for _ in range(num_hosts)]
        self._queues = [_OutputQueue(self.config) for _ in range(num_hosts)]
        self._egress_free_ps = [0] * num_hosts
        self._egress_prop_ps = int(link.propagation_delay_us * 10**6)
        self._bits_per_s = int(link.bandwidth_gbps * 1e9)
        #: Per-host inbound deliveries: heaps of (arrival_ps, seq, packet).
        self._delivery: List[List[Tuple[int, int, FabricPacket]]] = [
            [] for _ in range(num_hosts)
        ]
        self._delivery_seq = 0
        #: Per host: head of its delivery heap, or NEVER.
        self.delivery_ps = [NEVER] * num_hosts
        #: The agenda: lazy (t_ps, slot) entries, live while equal to
        #: ``_key[slot]``; slot i is uplink i's next arrival, slot N + i
        #: port i's next egress start.  Heap order is the tie order.
        self._agenda: List[Tuple[int, int]] = []
        self._key = [NEVER] * (2 * num_hosts)
        self.now_ps = 0  # the last instant ``advance`` ran to
        self.buffer_used = 0
        # Counters (all deterministic; surfaced into FabricResult).
        self.events = 0
        self.forwarded = 0
        self.dropped = 0
        self.ecn_marked = 0
        self.peak_buffer_bytes = 0
        #: Observability (repro.obs): a TraceBus, or None (free default).
        self.trace = None

    # -------------------------------------------------------------- wiring
    def host_ip(self, index: int) -> int:
        return _BASE_IP + index

    def port(self, index: int) -> _FabricPort:
        return _FabricPort(self, index)

    def _host_of_ip(self, ip: int) -> Optional[int]:
        index = ip - _BASE_IP
        return index if 0 <= index < self.num_hosts else None

    # ------------------------------------------------------------ policies
    def _admit_limit(self, out_port: int) -> int:
        """Max queued bytes this output may hold right now."""
        config = self.config
        if config.partition == "shared":
            return config.buffer_bytes
        if config.partition == "static":
            return config.buffer_bytes // self.num_hosts
        # Dynamic threshold: alpha x free buffer, evaluated on arrival.
        free = config.buffer_bytes - self.buffer_used
        return config.dt_alpha_x8 * free // 8

    # ------------------------------------------------------ the event loop
    def _rekey(self, slot: int, t_ps: int) -> None:
        if self._key[slot] != t_ps:
            self._key[slot] = t_ps
            if t_ps != NEVER:
                heapq.heappush(self._agenda, (t_ps, slot))

    def _transmit(self, src: int, packet: FabricPacket, now_ps: int) -> None:
        uplink = self._uplinks[src]
        uplink.transmit(packet, now_ps)
        head = uplink.next_arrival_ps()
        # One ``advance`` per instant sees everything: sends land later.
        assert head > self.now_ps, "a send must land strictly after now"
        self._rekey(src, head)

    def next_event_ps(self) -> Optional[int]:
        """Earliest instant at which the fabric's state next changes."""
        agenda, key = self._agenda, self._key
        while agenda and key[agenda[0][1]] != agenda[0][0]:
            heapq.heappop(agenda)  # superseded by a re-key
        t = min(agenda[0][0] if agenda else NEVER, min(self.delivery_ps))
        return None if t == NEVER else t

    def advance(self, now_ps: int) -> None:
        """Process every switch event due at or before ``now_ps``.

        Events are handled in global time order with ingress admissions
        before egress starts at the same instant, ties across ports
        broken by host index — a fixed total order, hence determinism.
        """
        agenda, key, n = self._agenda, self._key, self.num_hosts
        while agenda and agenda[0][0] <= now_ps:
            t, slot = heapq.heappop(agenda)
            if key[slot] != t:
                continue  # superseded by a re-key
            self.events += 1
            if slot < n:
                uplink = self._uplinks[slot]
                for packet in uplink.deliver_due(t):
                    self._admit(packet, slot, t)
                head = uplink.next_arrival_ps()
                self._rekey(slot, NEVER if head is None else head)
            else:
                self._serve(slot - n, t)
        self.now_ps = max(self.now_ps, now_ps)

    def _admit(self, packet: FabricPacket, src: int, now_ps: int) -> None:
        out_port = self._host_of_ip(packet.key.dst_ip)
        if out_port is None:
            self.dropped += 1  # no such host: blackholed
            return
        queue = self._queues[out_port]
        wire_bytes = packet.wire_bytes
        if queue.queued_bytes + wire_bytes > self._admit_limit(out_port):
            self.dropped += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "fabric", "switch", "drop", -1,
                    f"port={out_port} src={src} {wire_bytes}B "
                    f"depth={queue.queued_bytes}",
                )
            return
        threshold = self.config.ecn_threshold_bytes
        if threshold > 0 and queue.queued_bytes + wire_bytes > threshold:
            packet.ce = True
            self.ecn_marked += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "fabric", "switch", "ecn-mark", -1,
                    f"port={out_port} depth={queue.queued_bytes + wire_bytes}",
                )
        queue.push(packet, src, now_ps)
        if queue.queued_packets == 1:
            # Enqueue instants never decrease, so only a push into an
            # empty queue can move the port's egress start.
            free = self._egress_free_ps[out_port]
            self._rekey(self.num_hosts + out_port, max(free, now_ps))
        self.buffer_used += wire_bytes
        if self.buffer_used > self.peak_buffer_bytes:
            self.peak_buffer_bytes = self.buffer_used

    def _serve(self, out_port: int, start_ps: int) -> None:
        queue = self._queues[out_port]
        packet, _ = queue.pop()
        self.buffer_used -= packet.wire_bytes
        ser_ps = packet.wire_bytes * 8 * 10**12 // self._bits_per_s
        free = self._egress_free_ps[out_port] = start_ps + ser_ps
        head = queue.head_ready_ps()
        key = NEVER if head is None else max(free, head)
        self._rekey(self.num_hosts + out_port, key)
        arrival = free + self._egress_prop_ps
        self._delivery_seq += 1
        heapq.heappush(
            self._delivery[out_port], (arrival, self._delivery_seq, packet)
        )
        if arrival < self.delivery_ps[out_port]:
            self.delivery_ps[out_port] = arrival
        self.forwarded += 1


# ---------------------------------------------------------------- sharding
class CellSwitch:
    """The slice of the output-queued switch owned by one shard cell.

    ``repro.shard`` decomposes :class:`SwitchFabric` by ownership: a
    cell owns its hosts' *uplinks* (sender-side queueing + serialization
    are computed locally at send time, so the switch-arrival instant of
    every outbound packet is known before it crosses a cell boundary)
    and its hosts' *output queues + egress serializers* (receiver-side
    contention is resolved locally at admission time).  Nothing else of
    the switch exists, which is exactly why only ``static`` buffer
    partitioning (a hard per-port slice) and ``fifo`` queueing
    decompose: ``shared``/``dynamic`` couple every port through the
    global ``buffer_used``, and DRR's pop-time deficit rotation needs
    ingress state from all sources at once.

    Admissions MUST be fed in nondecreasing ``(arrival_ps, src, seq)``
    order — the shard worker's event loop guarantees that — so depth
    accounting can retire served packets lazily and stay exact.
    """

    def __init__(
        self,
        hosts: List[int],
        num_hosts: int,
        config: Optional[SwitchConfig] = None,
    ) -> None:
        config = config or SwitchConfig(partition="static")
        config.validate()
        if config.partition != "static":
            raise ValueError(
                f"cell switches require partition='static' (a per-port "
                f"buffer slice is the only locally decidable admission "
                f"policy), got {config.partition!r}"
            )
        if config.queueing != "fifo":
            raise ValueError(
                f"cell switches require queueing='fifo', got "
                f"{config.queueing!r}"
            )
        self.config = config
        self.hosts = list(hosts)
        self.num_hosts = num_hosts
        link = config.link
        self._bits_per_s = int(link.bandwidth_gbps * 1e9)
        self.prop_ps = int(link.propagation_delay_us * 10**6)
        self.port_limit = config.buffer_bytes // num_hosts
        #: Sender side, per owned host: uplink serializer free instant
        #: and the per-source sequence that makes exchange keys unique.
        self._uplink_free: Dict[int, int] = {h: 0 for h in hosts}
        self._uplink_seq: Dict[int, int] = {h: 0 for h in hosts}
        #: Receiver side, per owned host: egress free instant, queued
        #: depth, and the (serve_start_ps, wire_bytes) retirement queue.
        self._egress_free: Dict[int, int] = {h: 0 for h in hosts}
        self._depth: Dict[int, int] = {h: 0 for h in hosts}
        self._serving: Dict[int, Deque[Tuple[int, int]]] = {
            h: deque() for h in hosts
        }
        #: Per owned host: (delivery_ps, seq, packet) min-heaps.
        self._delivery: Dict[int, List[Tuple[int, int, FabricPacket]]] = {
            h: [] for h in hosts
        }
        self._delivery_seq = 0
        #: Lockstep sanitizer view (set by CellSim when attached); the
        #: admit hook checks the nondecreasing-arrival feed contract.
        self.san: Optional["LockstepSanitizer"] = None
        # Counters (all deterministic; merged into the shard result).
        self.forwarded = 0
        self.dropped = 0
        self.ecn_marked = 0
        self.bytes_sent = 0

    def host_ip(self, index: int) -> int:
        return _BASE_IP + index

    def host_of_ip(self, ip: int) -> Optional[int]:
        index = ip - _BASE_IP
        return index if 0 <= index < self.num_hosts else None

    def serialization_ps(self, wire_bytes: int) -> int:
        return wire_bytes * 8 * 10**12 // self._bits_per_s

    # ---------------------------------------------------------- sender side
    def send_from(
        self, src: int, packet: FabricPacket, at_ps: int
    ) -> Tuple[int, int]:
        """Run one packet through ``src``'s uplink; returns its
        ``(switch_arrival_ps, seq)`` exchange key."""
        free = self._uplink_free[src]
        start = at_ps if at_ps > free else free
        done = start + self.serialization_ps(packet.wire_bytes)
        self._uplink_free[src] = done
        self._uplink_seq[src] += 1
        self.bytes_sent += packet.wire_bytes
        return done + self.prop_ps, self._uplink_seq[src]

    # -------------------------------------------------------- receiver side
    def admit(self, packet: FabricPacket, now_ps: int) -> None:
        """Admit one packet arriving at the switch at ``now_ps``."""
        if self.san is not None:
            self.san.on_switch_admit(now_ps)
        out_port = self.host_of_ip(packet.key.dst_ip)
        if out_port is None or out_port not in self._depth:
            self.dropped += 1  # not ours: blackholed (mis-routed)
            return
        serving = self._serving[out_port]
        while serving and serving[0][0] <= now_ps:
            self._depth[out_port] -= serving.popleft()[1]
        wire_bytes = packet.wire_bytes
        depth = self._depth[out_port]
        if depth + wire_bytes > self.port_limit:
            self.dropped += 1
            return
        threshold = self.config.ecn_threshold_bytes
        if threshold > 0 and depth + wire_bytes > threshold:
            packet.ce = True
            self.ecn_marked += 1
        free = self._egress_free[out_port]
        start = now_ps if now_ps > free else free
        done = start + self.serialization_ps(wire_bytes)
        self._egress_free[out_port] = done
        self._depth[out_port] = depth + wire_bytes
        serving.append((start, wire_bytes))
        self._delivery_seq += 1
        heapq.heappush(
            self._delivery[out_port],
            (done + self.prop_ps, self._delivery_seq, packet),
        )
        self.forwarded += 1

    # ------------------------------------------------------------ the ports
    def deliver_due(self, host: int, now_ps: int) -> List[FabricPacket]:
        heap = self._delivery[host]
        due: List[FabricPacket] = []
        while heap and heap[0][0] <= now_ps:
            due.append(heapq.heappop(heap)[2])
        return due

    def next_delivery_ps(self, host: int) -> Optional[int]:
        heap = self._delivery[host]
        return heap[0][0] if heap else None

    def next_any_delivery_ps(self) -> Optional[int]:
        best: Optional[int] = None
        for heap in self._delivery.values():
            if heap and (best is None or heap[0][0] < best):
                best = heap[0][0]
        return best

    def port(self, host: int, outbound) -> "ShardPort":
        return ShardPort(self, host, outbound)


class ShardPort:
    """One host's NIC-side handle inside a shard cell (SoftPort-shaped).

    Outbound packets run through the cell switch's sender-side timing
    and are handed to ``outbound(arrival_ps, src, seq, packet)`` — the
    shard worker's router, which either feeds a local admission or
    ships the packet to the destination cell at the next epoch barrier.
    Inbound packets come from the cell switch's delivery heaps exactly
    like :class:`_FabricPort` does it.
    """

    def __init__(self, switch: CellSwitch, host: int, outbound) -> None:
        self._switch = switch
        self._host = host
        self._outbound = outbound

    def send(self, packet: FabricPacket, now_ps: int) -> None:
        arrival, seq = self._switch.send_from(self._host, packet, now_ps)
        self._outbound(arrival, self._host, seq, packet)

    def poll(self, now_ps: int) -> List[FabricPacket]:
        return self._switch.deliver_due(self._host, now_ps)

    def next_arrival_ps(self) -> Optional[int]:
        return self._switch.next_delivery_ps(self._host)

    @property
    def pending(self) -> int:
        return len(self._switch._delivery[self._host])
