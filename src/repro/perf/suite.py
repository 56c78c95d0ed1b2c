"""The repo's benchmark suite: seeded micro + macro workloads.

Micro benchmarks isolate the three inner loops every exhibit sits on:

* ``kernel.step``      — the two-domain (250/322 MHz) Simulator edge loop;
* ``kernel.drain``     — the batched counterpart: single-domain
  ``run_cycles`` chunks lowered to ``ClockDomain.tick_batch`` bulk
  drains (one ``drain(n)`` per component instead of ``n`` dispatches);
* ``fpc.event``        — one FPC fed an event per free input slot (§4.2.3's
  one-event-per-2-cycles rate is the workload, not the assertion);
* ``scheduler.migrate``— a slot-starved scheduler forced to churn
  evictions and swap-ins through the memory manager (§4.3.2).

Macro benchmarks run the real traffic scenarios end to end on the
two-engine testbed, seeded so every round does identical work:

* ``traffic.mixed`` / ``traffic.churn`` — wall-clock of a full untraced
  run; ``fingerprint()`` re-runs once with the obs TraceBus attached and
  hashes the trace stream, giving BENCH_perf.json a cycle-exactness
  oracle alongside the speed numbers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .bench import Benchmark


class KernelStepBenchmark(Benchmark):
    """Tick interleaved 250 MHz / 322 MHz domains through Simulator.step."""

    name = "kernel.step"
    events_unit = "steps"

    def __init__(self, quick: bool = False) -> None:
        self.steps = 20_000 if quick else 200_000
        self._sim = None

    def setup(self) -> None:
        from ..sim.component import Component
        from ..sim.kernel import Simulator

        sim = Simulator()
        sim.add_domain("engine", 250e6)
        sim.add_domain("eth", 322e6)
        sim.add_component(Component("ctrl"), "engine")
        sim.add_component(Component("mac"), "eth")
        self._sim = sim

    def run(self) -> Tuple[int, float]:
        sim = self._sim
        step = sim.step
        for _ in range(self.steps):
            step()
        return self.steps, sim.time_seconds


class KernelDrainBenchmark(Benchmark):
    """Batch-drain a single-domain Simulator through ``run_cycles``.

    The batched counterpart of ``kernel.step``: every component
    advertises ``supports_drain``, so each ``run_cycles`` chunk becomes
    one :meth:`ClockDomain.tick_batch` call — one ``drain(n)`` per
    component — instead of ``n`` per-cycle dispatch rounds.  Rate is
    cycles/s; compare against ``kernel.step`` to see what the drain
    contract buys the inner loop.
    """

    name = "kernel.drain"
    events_unit = "cycles"

    def __init__(self, quick: bool = False) -> None:
        self.cycles = 200_000 if quick else 2_000_000
        self.chunk = 500
        self._sim = None

    def setup(self) -> None:
        from ..sim.component import Component
        from ..sim.kernel import Simulator

        class Drainable(Component):
            supports_drain = True

            def __init__(self, name: str, work: int) -> None:
                super().__init__(name)
                self.work = work

            def tick(self) -> None:
                self.cycle += 1
                if self.work:
                    self.work -= 1

            def drain(self, n: int) -> None:
                self.cycle += n
                if self.work:
                    self.work = self.work - n if self.work > n else 0

            def busy(self) -> bool:
                return self.work > 0

        sim = Simulator()
        sim.add_domain("engine", 250e6)
        # Work never runs dry inside the measured window, so every
        # chunk drains busy components (no parked fast-path hiding the
        # cost being measured).
        sim.add_component(Drainable("ctrl", self.cycles * 2), "engine")
        sim.add_component(Drainable("mac", self.cycles * 2), "engine")
        self._sim = sim

    def run(self) -> Tuple[int, float]:
        sim = self._sim
        run_cycles = sim.run_cycles
        chunk = self.chunk
        for _ in range(self.cycles // chunk):
            run_cycles(chunk)
        return self.cycles, sim.time_seconds


class FpcEventBenchmark(Benchmark):
    """Feed one FPC an event whenever its input FIFO has room (§4.2.3)."""

    name = "fpc.event"
    events_unit = "events"

    def __init__(self, quick: bool = False) -> None:
        self.cycles = 10_000 if quick else 100_000
        self._fpc = None

    def setup(self) -> None:
        from ..engine.baseline import NullFpu
        from ..engine.fpc import FlowProcessingCore
        from ..tcp.state_machine import TcpState
        from ..tcp.tcb import Tcb

        fpc = FlowProcessingCore(0, slots=8, fpu=NullFpu(4))
        for flow_id in range(8):
            fpc.accept_tcb(Tcb(flow_id=flow_id, state=TcpState.ESTABLISHED))
        self._fpc = fpc

    def run(self) -> Tuple[int, float]:
        from ..engine.events import user_send_event

        fpc = self._fpc
        offered = 0
        for _ in range(self.cycles):
            if not fpc.input.full:
                fpc.offer_event(user_send_event(offered % 8, offered + 1, 0.0))
                offered += 1
            fpc.tick()
            fpc.drain_results()
        # 250 MHz cycles -> seconds.
        return fpc.events_accepted, self.cycles * 4e-9


class SchedulerMigrateBenchmark(Benchmark):
    """Churn evictions/swap-ins by targeting DRAM-resident flows (§4.3.2)."""

    name = "scheduler.migrate"
    events_unit = "migrations"

    def __init__(self, quick: bool = False) -> None:
        self.cycles = 4_000 if quick else 40_000
        self._parts = None

    def setup(self) -> None:
        from ..engine.baseline import NullFpu
        from ..engine.fpc import FlowProcessingCore
        from ..engine.memory_manager import MemoryManager
        from ..engine.scheduler import Scheduler
        from ..sim.memory import DRAMModel
        from ..tcp.tcb import Tcb

        fpcs = [
            FlowProcessingCore(i, slots=2, fpu=NullFpu(4)) for i in range(2)
        ]
        manager = MemoryManager(DRAMModel.hbm())
        scheduler = Scheduler(fpcs, manager, coalescing=True)
        # 4 flows fit in the FPCs; 4 overflow to DRAM, so events that
        # round-robin over all 8 keep forcing migrations.
        for flow_id in range(8):
            scheduler.register_new_flow(Tcb(flow_id=flow_id))
        self._parts = (scheduler, fpcs, manager)

    def run(self) -> Tuple[int, float]:
        from ..engine.events import user_send_event

        scheduler, fpcs, manager = self._parts
        flow = 0
        for _ in range(self.cycles):
            scheduler.submit(user_send_event(flow % 8, flow + 1, 0.0))
            flow += 1
            scheduler.tick()
            manager.tick()
            for fpc in fpcs:
                fpc.tick()
                fpc.drain_results()
        migrations = scheduler.evictions + scheduler.swap_ins
        return migrations, self.cycles * 4e-9


class TrafficScenarioBenchmark(Benchmark):
    """Full seeded LoadEngine run of one scenario; events = completions."""

    events_unit = "requests"

    def __init__(self, scenario: str, seed: int = 1234) -> None:
        self.name = f"traffic.{scenario}"
        self.scenario = scenario
        self.seed = seed
        self._load_engine = None
        self._sim_time_s = 0.0
        self._completed = 0

    def _build(self):
        from ..traffic import get_scenario
        from ..traffic.engine import LoadEngine

        return LoadEngine(get_scenario(self.scenario, seed=self.seed))

    def setup(self) -> None:
        self._load_engine = self._build()

    def run(self) -> Tuple[int, float]:
        load_engine = self._load_engine
        result = load_engine.run()
        self._sim_time_s = load_engine.testbed.now_s
        self._completed = sum(m.completed for m in result.classes.values())
        return self._completed, self._sim_time_s

    def fingerprint(self) -> Optional[str]:
        from ..obs.hooks import attach_load_engine
        from ..obs.trace import TraceBus, fingerprint

        load_engine = self._build()
        bus = TraceBus()
        attach_load_engine(load_engine, bus)
        load_engine.run()
        return fingerprint(bus.events)


class FabricIncastBenchmark(Benchmark):
    """Seeded multi-host incast through the shared-buffer switch.

    Runs the ``incast`` fabric scenario on one backend end to end;
    events = completed transfers.  ``fingerprint()`` re-runs with the
    TraceBus attached — the fabric layer's determinism oracle, pinned
    in BENCH_perf.json.
    """

    events_unit = "transfers"

    def __init__(
        self, backend: str = "f4t", num_hosts: int = 8, seed: int = 1234
    ) -> None:
        self.name = f"fabric.incast.{backend}"
        self.backend = backend
        self.num_hosts = num_hosts
        self.seed = seed
        self._scenario = None
        self._sim_time_s = 0.0

    def setup(self) -> None:
        from ..fabric import get_fabric_scenario

        self._scenario = get_fabric_scenario(
            "incast", num_hosts=self.num_hosts, seed=self.seed
        )

    def run(self) -> Tuple[int, float]:
        from ..fabric import run_fabric

        result = run_fabric(self._scenario, backend=self.backend)
        self._sim_time_s = result.elapsed_s
        return result.completed, result.elapsed_s

    def fingerprint(self) -> Optional[str]:
        from ..fabric import run_fabric
        from ..obs.trace import TraceBus, fingerprint

        bus = TraceBus(layers=["fabric"])
        run_fabric(self._scenario, backend=self.backend, trace=bus)
        return fingerprint(bus.events)


class ShardChurnBenchmark(Benchmark):
    """Full in-process sharded churn run (4 cells, lockstep epochs).

    Events = wire packets forwarded across the cell switches.
    ``fingerprint()`` is the merged per-cell trace digest — the same
    value ``repro shard sweep`` pins across worker counts, so the
    BENCH file doubles as the shard layer's determinism oracle.
    """

    name = "shard.churn"
    events_unit = "packets"

    def __init__(self, seed: int = 1234) -> None:
        self.seed = seed
        self._scenario = None
        self._sim_time_s = 0.0

    def setup(self) -> None:
        from ..shard import get_shard_scenario

        self._scenario = get_shard_scenario("churn", seed=self.seed)

    def run(self) -> Tuple[int, float]:
        from ..shard import run_shard

        result = run_shard(self._scenario, workers=1, fingerprint=False)
        self._sim_time_s = result.epochs * result.epoch_ps * 1e-12
        return result.total("forwarded"), self._sim_time_s

    def fingerprint(self) -> Optional[str]:
        from ..shard import run_shard

        return run_shard(
            self._scenario, workers=1, fingerprint=True
        ).fingerprint


class MemLookupBenchmark(Benchmark):
    """Sketch update+estimate per access — the FlowHeat hot-path cost.

    Events = sketch operations (one update and one estimate per access
    of a seeded Zipf/churn stream), the work the predictive placement
    policy adds to every scheduler submit.
    """

    name = "mem.lookup"
    events_unit = "lookups"

    def __init__(self, quick: bool = False) -> None:
        self.accesses = 20_000 if quick else 200_000
        self._parts = None

    def setup(self) -> None:
        from ..mem.sketch import make_sketch
        from ..mem.sweep import synth_accesses

        sketch = make_sketch("countmin", width=1024, seed=1234)
        stream = synth_accesses(self.accesses, seed=1234)
        self._parts = (sketch, stream)

    def run(self) -> Tuple[int, float]:
        sketch, stream = self._parts
        update = sketch.update
        estimate = sketch.estimate
        for flow_id in stream:
            update(flow_id)
            estimate(flow_id)
        # Untimed data structure: charge one 250 MHz cycle per access so
        # the sim-rate column stays comparable across the micro suite.
        return len(stream), len(stream) * 4e-9


class MemHierarchyBenchmark(Benchmark):
    """Replay a churn stream through the set-associative TCB cache."""

    name = "mem.hierarchy"
    events_unit = "accesses"

    def __init__(self, quick: bool = False) -> None:
        self.accesses = 20_000 if quick else 200_000
        self._parts = None

    def setup(self) -> None:
        from ..mem.hierarchy import CacheGeometry, TcbCacheHierarchy
        from ..mem.sketch import make_sketch
        from ..mem.sweep import synth_accesses

        sketch = make_sketch("countmin", width=1024, seed=1234)
        hierarchy = TcbCacheHierarchy(
            CacheGeometry.parse("64x4:freq/256x1:direct"), sketch=sketch
        )
        stream = synth_accesses(self.accesses, seed=1234)
        self._parts = (hierarchy, stream)

    def run(self) -> Tuple[int, float]:
        hierarchy, stream = self._parts
        access = hierarchy.access
        for flow_id in stream:
            access(flow_id)
        return len(stream), len(stream) * 4e-9


_MICRO = (
    "kernel.step", "kernel.drain", "fpc.event", "scheduler.migrate",
    "mem.lookup", "mem.hierarchy",
)
_MACRO = ("traffic.mixed", "traffic.churn", "fabric.incast.f4t", "shard.churn")


def available_benchmarks() -> List[str]:
    return list(_MICRO + _MACRO)


def build_benchmarks(
    names: Optional[List[str]] = None, quick: bool = False
) -> List[Benchmark]:
    if names is None:
        names = available_benchmarks()
    benches: List[Benchmark] = []
    for name in names:
        if name == "kernel.step":
            benches.append(KernelStepBenchmark(quick=quick))
        elif name == "kernel.drain":
            benches.append(KernelDrainBenchmark(quick=quick))
        elif name == "fpc.event":
            benches.append(FpcEventBenchmark(quick=quick))
        elif name == "scheduler.migrate":
            benches.append(SchedulerMigrateBenchmark(quick=quick))
        elif name == "mem.lookup":
            benches.append(MemLookupBenchmark(quick=quick))
        elif name == "mem.hierarchy":
            benches.append(MemHierarchyBenchmark(quick=quick))
        elif name.startswith("traffic."):
            benches.append(TrafficScenarioBenchmark(name.split(".", 1)[1]))
        elif name.startswith("fabric.incast."):
            benches.append(FabricIncastBenchmark(name.split(".", 2)[2]))
        elif name == "shard.churn":
            benches.append(ShardChurnBenchmark())
        else:
            raise KeyError(
                f"unknown benchmark {name!r}; available: "
                + ", ".join(available_benchmarks())
            )
    return benches
