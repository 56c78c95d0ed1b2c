"""One shard cell: its hosts, its switch slice, its epoch event loop.

A :class:`CellSim` owns a fixed group of hosts — each a
:class:`~repro.fabric.softstack.SoftStack` behind a
:class:`~repro.fabric.switch.ShardPort` — plus the
:class:`~repro.fabric.switch.CellSwitch` slice that resolves their
receive-side contention.  Between epoch barriers it runs an
event-gated discrete-event loop: the epoch's arrivals are admitted at
epoch open, and each visited instant touches only the hosts and drivers
with work due.  Packets leaving for another cell accumulate in
per-destination outboxes that the runner exchanges at the barrier.

The worker-count-invariance keystone lives here: **every** inter-host
packet — remote *and* local — takes the same path (sender-side uplink
timing at send instant, then a ``(arrival_ps, src, seq)``-ordered
pending inbox feeding switch admission).  Local packets are pushed into
the inbox directly, remote ones arrive at the barrier; since the heap
orders by key, not by push order, the admission sequence a cell
executes is identical however its inputs were batched.  That, plus
fixed host iteration order inside an instant, makes a cell's event
stream a pure function of (scenario, seed, cell index).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..obs.trace import StreamingFingerprint

from ..check.lockstep import LockstepSanitizer
from ..fabric.backend import get_backend
from ..fabric.softstack import FabricPacket, SoftStack
from ..fabric.switch import NEVER, CellSwitch
from .host import ClientPairDriver, ServerHostDriver
from .scenarios import ShardScenario

#: One cross-switch wire segment: (switch_arrival_ps, src_host,
#: per-source sequence, packet).  The first three fields are a unique,
#: deterministic sort key — packets never need comparing.
Entry = Tuple[int, int, int, FabricPacket]


class CellSim:
    """The simulation of one cell between (and across) epoch barriers."""

    def __init__(
        self,
        scenario: ShardScenario,
        cell: int,
        trace: Optional[StreamingFingerprint] = None,
        san: Optional[LockstepSanitizer] = None,
    ) -> None:
        self.scenario = scenario
        self.cell = cell
        self.hosts = scenario.hosts_of_cell(cell)
        self.switch = CellSwitch(
            self.hosts, scenario.num_hosts, scenario.switch
        )
        self.trace = trace
        #: Lockstep sanitizer view; None on normal runs (the hooks below
        #: follow the trace bus's near-zero-cost guard contract).
        self.san = san.for_cell(cell) if san is not None else None
        if self.san is not None:
            self.san.on_configure(scenario.epoch_ps, self.switch.prop_ps)
            self.switch.san = self.san
        spec = get_backend(scenario.backend)
        self.stacks: Dict[int, SoftStack] = {}
        for host in self.hosts:
            stack = SoftStack(
                ip=self.switch.host_ip(host),
                port=self.switch.port(host, self._route),
                service=spec.service(),
                name=f"h{host}",
                seed=scenario.seed,
            )
            stack.trace = trace
            self.stacks[host] = stack
        # Drivers: client pairs sorted by (client, server) and server
        # hosts grouped — construction order is part of determinism.
        self.clients: Dict[int, List[ClientPairDriver]] = {
            host: [] for host in self.hosts
        }
        self.servers: Dict[int, ServerHostDriver] = {}
        #: Per host: live client flow id -> the driver that opened it.
        owners: Dict[int, Dict[int, ClientPairDriver]] = {
            host: {} for host in self.hosts
        }
        server_pairs: Dict[int, List] = {}
        for pair in scenario.pairs:
            if scenario.cell_of(pair.client) == cell:
                self.clients[pair.client].append(
                    ClientPairDriver(
                        scenario,
                        pair,
                        self.stacks[pair.client],
                        server_ip=self.switch.host_ip(pair.server),
                        owners=owners[pair.client],
                        trace=trace,
                    )
                )
            if scenario.cell_of(pair.server) == cell:
                server_pairs.setdefault(pair.server, []).append(pair)
        for host, pairs in server_pairs.items():
            self.servers[host] = ServerHostDriver(
                scenario,
                host,
                self.stacks[host],
                pairs,
                host_of_ip=self.switch.host_of_ip,
                trace=trace,
            )
        #: The pending inbox: every not-yet-admitted segment destined
        #: for this cell, local and remote alike, keyed for the heap.
        self.pending: List[Entry] = []
        self.outboxes: Dict[int, List[Entry]] = {
            c: [] for c in range(scenario.num_cells) if c != cell
        }
        self.now_ps = 0
        #: End of the epoch being run (the batch-admission horizon).
        self.end_ps = 0
        # The event loop's per-host state, indexed like ``self.hosts``:
        # drivers, client-flow owners and three cached horizons — the
        # delivery-heap head, the stack's timer wakeup and the earliest
        # client schedule head (NEVER when none) — plus their minimum,
        # the instant the host next acts.  A new cell has nothing in
        # flight or armed, so only the schedule heads start set; after
        # that only run_epoch moves them.
        self._stack_list = [self.stacks[host] for host in self.hosts]
        self._server_list = [self.servers.get(host) for host in self.hosts]
        self._client_list = [self.clients[host] for host in self.hosts]
        self._owners = [owners[host] for host in self.hosts]
        self._delivery_ps = [NEVER] * len(self.hosts)
        self._timer_ps = [NEVER] * len(self.hosts)
        self._schedule_ps = [
            min(
                (driver.schedule[0][0] for driver in drivers),
                default=NEVER,
            )
            for drivers in self._client_list
        ]
        self._due_ps = list(self._schedule_ps)
        #: Deterministic work counts, kept out of ``report()``.
        self.work: Dict[str, int] = dict.fromkeys(
            ("instants", "host_ticks", "driver_ticks", "batch_admissions"), 0
        )

    # ------------------------------------------------------------- routing
    def _route(
        self, arrival_ps: int, src: int, seq: int, packet: FabricPacket
    ) -> None:
        dst = self.switch.host_of_ip(packet.key.dst_ip)
        if dst is None:
            return  # mis-addressed: blackholed deterministically
        entry = (arrival_ps, src, seq, packet)
        dst_cell = self.scenario.cell_of(dst)
        if dst_cell == self.cell:
            if self.san is not None:
                self.san.on_route_local(entry, self.now_ps, self.end_ps)
            heapq.heappush(self.pending, entry)
        else:
            self.outboxes[dst_cell].append(entry)

    def receive(self, entries: List[Entry]) -> None:
        """Merge a barrier exchange batch into the pending inbox."""
        if self.san is not None:
            self.san.on_exchange(entries, self.now_ps)
        for entry in entries:
            heapq.heappush(self.pending, entry)

    def take_outboxes(self) -> Dict[int, List[Entry]]:
        """Drain this epoch's cross-cell traffic, grouped by cell."""
        out = {
            cell: entries
            for cell, entries in self.outboxes.items()
            if entries
        }
        for cell in out:
            self.outboxes[cell] = []
        return out

    # ---------------------------------------------------------- event loop
    def _admit_batch(self, end_ps: int) -> None:
        """Epoch open: admit every pending segment arriving before
        ``end_ps``, in key order.

        Exact because nothing routed during the epoch can arrive inside
        it (``epoch_ps`` is one propagation delay, so a send at ``t``
        lands at ``>= t + epoch_ps``), and an admission fixes its
        delivery instant on the spot, strictly after its arrival.
        """
        pending = self.pending
        admitted = 0
        while pending and pending[0][0] < end_ps:
            entry = heapq.heappop(pending)
            if self.san is not None:
                self.san.on_admit(entry, self.now_ps)
            self.switch.admit(entry[3], entry[0])
            admitted += 1
        if not admitted:
            return
        self.work["batch_admissions"] += admitted
        # Admissions only push, so a delivery head can only move earlier.
        delivery, due = self._delivery_ps, self._due_ps
        for i, host in enumerate(self.hosts):
            head = self.switch.next_delivery_ps(host)
            if head is not None and head < delivery[i]:
                delivery[i] = head
                if head < due[i]:
                    due[i] = head

    def run_epoch(self, end_ps: int) -> None:
        """Run every event strictly before ``end_ps``, then land on it.

        Each visited instant is processed in canonical order — stack
        ticks, then drivers, then message dispatch, each phase in host
        order — skipping every host with nothing due (see
        ARCHITECTURE.md, *The shard cell event loop*).
        """
        if self.san is not None:
            self.san.on_epoch_open(self.pending, self.now_ps)
        self.end_ps = end_ps
        self._admit_batch(end_ps)
        hosts, stacks = self.hosts, self._stack_list
        servers, clients = self._server_list, self._client_list
        due, delivery = self._due_ps, self._delivery_ps
        timer, schedule = self._timer_ps, self._schedule_ps
        heads = self.switch.next_delivery_ps
        span = range(len(hosts))
        instants = host_ticks = driver_ticks = 0
        while True:
            now = min(due)
            if now >= end_ps:
                break
            if now < self.now_ps:
                now = self.now_ps  # overdue work (a straggler) acts now
            self.now_ps = now
            instants += 1
            acted = [i for i in span if due[i] <= now]
            ticked = []
            for i in acted:
                stack = stacks[i]
                # Every acting host reads ``now`` before any API call.
                stack.now_ps = now
                if delivery[i] <= now or timer[i] <= now:
                    stack.tick()
                    ticked.append(i)
            host_ticks += len(ticked)
            for i in acted:
                # Accept queues fill only inside a tick.
                server = servers[i]
                if server is not None and i in ticked:
                    server.tick(now)
                    driver_ticks += 1
                if schedule[i] <= now:
                    best = NEVER
                    for driver in clients[i]:
                        action = driver.next_action_ps()
                        if action is not None and action <= now:
                            driver.tick(now)
                            driver_ticks += 1
                            action = driver.next_action_ps()
                        if action is not None and action < best:
                            best = action
                    schedule[i] = best
            # Messages are posted only inside a tick.
            for i in ticked:
                messages = stacks[i].drain_host_messages()
                if not messages:
                    continue
                owners, server = self._owners[i], servers[i]
                for message in messages:
                    owner = owners.get(message.flow_id)
                    if owner is not None:
                        owner.on_message(message, now)
                    elif server is not None:
                        server.on_message(message, now)
            # Only a host that acted can have moved its horizons.
            for i in acted:
                head = heads(hosts[i])
                wakeup = stacks[i].next_wakeup_ps()
                delivery[i] = NEVER if head is None else head
                timer[i] = NEVER if wakeup is None else wakeup
                due[i] = min(delivery[i], timer[i], schedule[i])
        work = self.work
        work["instants"] += instants
        work["host_ticks"] += host_ticks
        work["driver_ticks"] += driver_ticks
        self.now_ps = end_ps

    @property
    def events(self) -> int:
        """Instants the loop visited (the ``events`` report counter)."""
        return self.work["instants"]

    # ----------------------------------------------------------- the gauges
    def idle(self) -> bool:
        """Nothing pending, in flight, armed or scheduled — this cell
        cannot act again without a barrier delivering it input."""
        if self.pending or min(self._due_ps) < NEVER:
            return False
        return all(
            driver.done for drivers in self._client_list for driver in drivers
        )

    def open_conns(self) -> int:
        """Live client-side connections (the concurrency gauge; server
        endpoints are deliberately not double-counted)."""
        return sum(
            driver.open_conns
            for drivers in self.clients.values()
            for driver in drivers
        )

    def report(self) -> Dict[str, int]:
        """Deterministic per-cell counter totals (fingerprint excluded)."""
        totals = {
            "events": self.events,
            "packets_sent": 0,
            "packets_received": 0,
            "retransmits": 0,
            "timeouts": 0,
            "ecn_echoes": 0,
            "forwarded": self.switch.forwarded,
            "dropped": self.switch.dropped,
            "ecn_marked": self.switch.ecn_marked,
            "conns_opened": 0,
            "conns_established": 0,
            "txns_completed": 0,
            "conns_closed": 0,
            "accepted": 0,
            "responded": 0,
        }
        for host in self.hosts:
            stack = self.stacks[host]
            totals["packets_sent"] += stack.packets_sent
            totals["packets_received"] += stack.packets_received
            totals["retransmits"] += stack.retransmits
            totals["timeouts"] += stack.timeouts
            totals["ecn_echoes"] += stack.ecn_echoes
            for driver in self.clients[host]:
                totals["conns_opened"] += driver.opened
                totals["conns_established"] += driver.established
                totals["txns_completed"] += driver.completed
                totals["conns_closed"] += driver.closed
            server = self.servers.get(host)
            if server is not None:
                totals["accepted"] += server.accepted
                totals["responded"] += server.responded
        return totals
