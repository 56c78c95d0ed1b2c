"""Property test: the batched testbed loop is invisible to traces.

``LoadEngine.batched`` selects between the per-cycle legacy loop and
the batched one (``Testbed.run``'s next-event loop, selected by its
``quiet_cycle`` hook).  The batched path may only collapse
iterations it can prove are no-ops, so for ANY scenario and seed the
obs trace fingerprint — every event at every layer, timestamped to the
picosecond — must be bit-identical between the two.  Hypothesis
composes small randomized scenarios (open/closed loop, persistent and
churn lifecycles, skewed sizes, optional wire drops so timers and
retransmissions run, optionally a small engine whose few SRAM slots
force TCB evictions, swap-ins and pending retries) and diffs the
fingerprints, the same oracle-not-examples idiom as
``tests/mem/test_fuzz_churn.py``.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.ftengine import FtEngineConfig
from repro.engine.testbed import Testbed
from repro.obs.hooks import attach_load_engine
from repro.obs.trace import TraceBus, fingerprint
from repro.traffic import (
    Deterministic,
    Fixed,
    Impairments,
    Poisson,
    Scenario,
    TrafficClass,
    Zipf,
)
from repro.traffic.engine import LoadEngine


def _request_sizes(draw):
    if draw(st.booleans()):
        return Fixed(draw(st.integers(min_value=1, max_value=4096)))
    return Zipf(minimum=64, maximum=8192, buckets=6)


@st.composite
def scenarios(draw):
    classes = []
    duration_s = draw(st.sampled_from([30e-6, 60e-6, 100e-6]))
    if draw(st.booleans()):
        rate = draw(st.sampled_from([5e4, 1e5, 2e5]))
        arrival = (
            Poisson(rate) if draw(st.booleans()) else Deterministic(rate)
        )
        classes.append(
            TrafficClass(
                name="open",
                request=_request_sizes(draw),
                response=Fixed(draw(st.integers(min_value=0, max_value=2048))),
                arrival=arrival,
                connections=draw(st.integers(min_value=1, max_value=2)),
            )
        )
    if draw(st.booleans()):
        classes.append(
            TrafficClass(
                name="rpc",
                request=Fixed(draw(st.integers(min_value=1, max_value=1024))),
                response=Fixed(draw(st.integers(min_value=1, max_value=1024))),
                lifecycle="per_request",
                transactions=draw(st.integers(min_value=1, max_value=3)),
                connections=draw(st.integers(min_value=1, max_value=2)),
            )
        )
    if not classes:
        classes.append(
            TrafficClass(
                name="closed",
                request=Fixed(draw(st.integers(min_value=1, max_value=2048))),
                response=Fixed(64),
                rounds=draw(st.integers(min_value=1, max_value=3)),
                connections=draw(st.integers(min_value=1, max_value=2)),
            )
        )
    impairments = None
    if draw(st.booleans()):
        # Drops force RTO timers, retransmissions and long idle waits —
        # exactly the windows the batched loop wants to skip across.
        impairments = Impairments(drop_probability=0.02)
    return Scenario(
        name="prop",
        classes=classes,
        duration_s=duration_s,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        impairments=impairments,
    )


#: Engine configs a drawn run uses: the default, or one with so few
#: SRAM slots that a handful of connections migrate TCBs to DRAM.
ENGINES = [None, FtEngineConfig(num_fpcs=2, fpc_slots=1)]


def _traced_fingerprint(scenario, batched, engine=None):
    testbed = None
    if engine is not None:
        testbed = Testbed(
            config_a=engine, config_b=engine, wire=scenario.build_wire()
        )
    load_engine = LoadEngine(scenario, testbed=testbed)
    load_engine.batched = batched
    bus = TraceBus()
    attach_load_engine(load_engine, bus)
    try:
        load_engine.run()
        outcome = "completed"
    except TimeoutError:
        # Some drawn scenarios genuinely stall (e.g. a dropped
        # handshake packet with no connect retry).  That is scenario
        # behaviour, not loop behaviour: both paths must stall the same
        # way with the same partial trace.
        outcome = "timeout"
    return outcome, fingerprint(bus.events)


class TestBatchedLegacyEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios(), engine=st.sampled_from(ENGINES))
    def test_fingerprints_identical(self, scenario, engine):
        assert _traced_fingerprint(scenario, True, engine) == \
            _traced_fingerprint(scenario, False, engine)

    def test_batched_is_the_default(self):
        from repro.traffic import get_scenario

        assert LoadEngine(get_scenario("mixed", seed=1)).batched is True
