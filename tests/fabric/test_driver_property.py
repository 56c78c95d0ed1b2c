"""Property test: the event-driven fabric driver is invisible to traces.

``FabricLoadEngine._run`` advances the switch's event agenda once per
instant, ticks only the hosts with a delivery or timer due and walks
only the connections that can change.  The reference driver below is
the brute-force loop that definition is measured against: a switch
that rescans every uplink and output queue for its next event, every
host ticked at every instant, every connection walked at every pump.
For any scenario, backend, host count, seed and switch configuration
the two must produce bit-identical fabric traces and result scalars.

The reference lives here on purpose: production has one code path.
"""

from dataclasses import replace
from typing import List, Optional, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fabric import get_fabric_scenario
from repro.fabric.backend import available_backends
from repro.fabric.engine import FabricLoadEngine
from repro.fabric.scenarios import available_fabric_scenarios
from repro.fabric.switch import SwitchFabric
from repro.obs.trace import StreamingFingerprint

from .test_goldens import CASES, GOLDENS, scalars_digest


class ScanningSwitch(SwitchFabric):
    """The switch with its agenda ignored: every step rescans all ports."""

    def _scan_ingress(self) -> Optional[Tuple[int, int]]:
        best: Optional[Tuple[int, int]] = None
        for index, uplink in enumerate(self._uplinks):
            t = uplink.next_arrival_ps()
            if t is not None and (best is None or t < best[0]):
                best = (t, index)
        return best

    def _scan_egress(self) -> Optional[Tuple[int, int]]:
        best: Optional[Tuple[int, int]] = None
        for index, queue in enumerate(self._queues):
            head = queue.head_ready_ps()
            if head is None:
                continue
            start = max(self._egress_free_ps[index], head)
            if best is None or start < best[0]:
                best = (start, index)
        return best

    def next_event_ps(self) -> Optional[int]:
        times: List[int] = [heap[0][0] for heap in self._delivery if heap]
        for event in (self._scan_ingress(), self._scan_egress()):
            if event is not None:
                times.append(event[0])
        return min(times) if times else None

    def advance(self, now_ps: int) -> None:
        while True:
            ingress = self._scan_ingress()
            egress = self._scan_egress()
            if ingress is not None and ingress[0] <= now_ps and (
                egress is None or ingress[0] <= egress[0]
            ):
                t, src = ingress
                for packet in self._uplinks[src].deliver_due(t):
                    self._admit(packet, src, t)
                continue
            if egress is not None and egress[0] <= now_ps:
                self._serve(egress[1], egress[0])
                continue
            self.now_ps = max(self.now_ps, now_ps)
            return


class ReferenceEngine(FabricLoadEngine):
    """Ticks every host and walks every conn at every instant."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fabric = ScanningSwitch(
            self.scenario.num_hosts, config=self.scenario.switch
        )
        for index, stack in enumerate(self.stacks):
            stack.port = self.fabric.port(index)

    def _pump(self) -> bool:
        self._poll_accepts()
        self._advance_connecting()
        if self.scenario.mode == "rounds":
            self._pump_rounds()
        else:
            self._release_arrivals()
        for conn in self.conns:
            self._advance_conn(conn)
        return self._all_done()

    def _run(self, until, max_time_s: float) -> bool:
        max_time_ps = self.time_ps + int(max_time_s * 1e12)
        self._ticked[:] = [True] * len(self.stacks)  # poll every accept
        while True:
            t = self.time_ps
            for stack in self.stacks:
                stack.now_ps = t
            self.fabric.advance(t)
            for stack in self.stacks:
                stack.tick()
            if until():
                return True
            if t >= max_time_ps:
                return False
            candidates = [self.fabric.next_event_ps(), self._next_arrival_ps()]
            candidates += [stack.next_wakeup_ps() for stack in self.stacks]
            future = [c for c in candidates if c is not None and c > t]
            if not future:
                return False
            self.time_ps = min(min(future), max_time_ps)


@st.composite
def fabric_runs(draw):
    name = draw(st.sampled_from(available_fabric_scenarios()))
    scenario = get_fabric_scenario(
        name,
        num_hosts=draw(st.integers(min_value=2, max_value=8)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    if scenario.mode == "rounds":
        scenario = replace(
            scenario,
            rounds=draw(st.integers(min_value=1, max_value=2)),
            block_bytes=draw(st.sampled_from([8 << 10, 48 << 10, 128 << 10])),
        )
    else:
        scenario = replace(
            scenario, duration_s=draw(st.sampled_from([100e-6, 250e-6]))
        )
    switch = replace(
        scenario.switch,
        partition=draw(st.sampled_from(["shared", "static", "dynamic"])),
        queueing=draw(st.sampled_from(["fifo", "drr"])),
        buffer_bytes=draw(st.sampled_from([96 << 10, 256 << 10, 2 << 20])),
        ecn_threshold_bytes=draw(st.sampled_from([0, 32 << 10, 96 << 10])),
    )
    backend = draw(st.sampled_from(available_backends()))
    return replace(scenario, switch=switch), backend


def observe(engine_cls, scenario, backend):
    engine = engine_cls(scenario, backend=backend)
    sink = StreamingFingerprint(layers=["fabric"])
    engine.trace = sink
    try:
        result = engine.run()
    except TimeoutError:
        # A drawn configuration may stall in setup; both drivers must
        # stall the same way, with the same partial trace.
        return "timeout", sink.hexdigest()
    return result.finished, sink.hexdigest(), scalars_digest(result.scalars())


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=fabric_runs())
def test_event_driven_driver_matches_reference(run):
    scenario, backend = run
    assert observe(FabricLoadEngine, scenario, backend) == observe(
        ReferenceEngine, scenario, backend
    )


def test_reference_reproduces_a_golden():
    """The oracle itself is anchored: it replays a pinned golden."""
    name, backend, hosts, seed, overrides = CASES["incast-flextoe-4-static64k"]
    scenario = get_fabric_scenario(name, num_hosts=hosts, seed=seed)
    scenario = replace(
        scenario, switch=replace(scenario.switch, **dict(overrides))
    )
    engine = ReferenceEngine(scenario, backend=backend)
    sink = StreamingFingerprint(layers=["fabric"])
    engine.trace = sink
    result = engine.run()
    assert result.switch_drops > 0
    assert (sink.hexdigest(), scalars_digest(result.scalars())) == GOLDENS[
        "incast-flextoe-4-static64k"
    ]
