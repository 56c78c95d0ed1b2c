"""The testbed's next-event loop: eviction-path equivalence and its cost.

``test_batched_property.py`` and ``test_kernel_equivalence.py`` prove the
event loop reproduces the per-cycle loop on random and preset
scenarios.  This file adds a fixed run that keeps TCBs migrating
between SRAM and DRAM — so scheduler pending retries and swap-ins run
while idle engines owe deferred no-op ticks — and pins what the loop
costs on ``mixed``, a gate that does not depend on the machine.
"""

from repro.engine.ftengine import FtEngineConfig
from repro.engine.testbed import Testbed
from repro.obs.hooks import attach_load_engine
from repro.obs.trace import TraceBus, fingerprint
from repro.traffic import Fixed, Scenario, TrafficClass, get_scenario
from repro.traffic.engine import LoadEngine


def _eviction_scenario() -> Scenario:
    """24 closed-loop conns x 4 rounds: 48 flows on 2 FPCs x 8 slots."""
    return Scenario(
        name="evict",
        seed=1,
        classes=[
            TrafficClass(
                name="rr",
                request=Fixed(64),
                response=Fixed(256),
                connections=24,
                rounds=4,
            )
        ],
    )


def _run(scenario: Scenario, batched: bool, engine: FtEngineConfig):
    testbed = Testbed(
        config_a=engine, config_b=engine, wire=scenario.build_wire()
    )
    load_engine = LoadEngine(scenario, testbed=testbed, audit=True)
    load_engine.batched = batched
    bus = TraceBus()
    attach_load_engine(load_engine, bus)
    result = load_engine.run()
    return load_engine, result, fingerprint(bus.events)


class TestEvictionPathEquivalence:
    def test_event_loop_matches_per_cycle_loop(self):
        small = FtEngineConfig(num_fpcs=2, fpc_slots=8)
        scenario = _eviction_scenario()
        events, result, fp_events = _run(scenario, True, small)
        _, legacy, fp_legacy = _run(scenario, False, small)
        assert fp_events == fp_legacy
        assert result.completed == legacy.completed
        assert result.clean and legacy.clean
        engines = (events.testbed.engine_a, events.testbed.engine_b)
        # The run really exercised the migration paths.
        assert sum(e.scheduler.evictions for e in engines) > 0
        assert sum(e.scheduler.pending_retries for e in engines) > 0
        # Each engine sat out passes on which the other ticked, so it
        # owed no-op ticks that were paid before its later ticks.
        work = result.work
        ticking_passes = work["passes"] - work["skips"]
        assert 0 < work["ticks_a"] < ticking_passes
        assert 0 < work["ticks_b"] < ticking_passes


class TestWorkCounters:
    def test_mixed_work_is_pinned(self):
        """Machine-independent cost gate for the ``traffic.mixed`` row.

        The per-cycle loop runs the same scenario's main phase in 73,752
        iterations, each ticking both engines and running the pump.
        """
        result = LoadEngine(get_scenario("mixed", seed=1234)).run()
        assert result.work == {
            "passes": 3540,
            "ticks_a": 1262,
            "ticks_b": 1084,
            "pumps": 847,
            "horizons": 2868,
            "skips": 1209,
        }

    def test_work_stays_out_of_rows_and_csv(self):
        result = LoadEngine(get_scenario("mixed", seed=1234)).run()
        assert result.work["passes"] > 0
        assert all(len(row) == len(result._COLUMNS) for row in result.rows())
        header = result.to_csv().splitlines()[0].split(",")
        assert not set(result.work) & set(header)

    def test_per_cycle_loop_does_no_event_loop_work(self):
        load_engine = LoadEngine(get_scenario("mixed", seed=1234))
        load_engine.batched = False
        assert set(load_engine.run().work.values()) == {0}
