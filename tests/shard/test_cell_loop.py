"""The event-gated cell loop against the loop it replaced.

``ReferenceCellSim`` below is the tick-everything loop ``CellSim`` ran
before it became event-gated: it visits every instant at which any
pending admission, delivery, timer or client schedule entry falls,
admits arrivals one instant at a time, ticks every stack, every server
and every client driver there, drains every host's queue, finds a
message's owner by scanning the host's client drivers, and asks the
switch, every stack and every driver whether the cell is idle.  It is
the definition of correct: the production loop must reproduce its
per-cell fingerprints and counters on any scenario.
"""

import heapq
from contextlib import contextmanager
from typing import Optional
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fabric.switch import SwitchConfig
from repro.shard import get_shard_scenario, run_shard
from repro.shard import runner
from repro.shard.cell import CellSim
from repro.shard.scenarios import ShardPair, ShardScenario


class ReferenceCellSim(CellSim):
    """Every host and driver ticked at every visited instant; idleness
    asked of the switch, every stack and every driver."""

    def _reference_next_event_ps(self) -> Optional[int]:
        best = self.pending[0][0] if self.pending else None
        delivery = self.switch.next_any_delivery_ps()
        if delivery is not None and (best is None or delivery < best):
            best = delivery
        for host in self.hosts:
            wakeup = self.stacks[host].next_wakeup_ps()
            if wakeup is not None and (best is None or wakeup < best):
                best = wakeup
            for driver in self.clients[host]:
                action = driver.next_action_ps()
                if action is not None and (best is None or action < best):
                    best = action
        return best

    def _reference_settle(self, now: int) -> None:
        pending = self.pending
        while pending and pending[0][0] <= now:
            arrival, _src, _seq, packet = heapq.heappop(pending)
            self.switch.admit(packet, arrival)
        for host in self.hosts:
            stack = self.stacks[host]
            stack.now_ps = now
            stack.tick()
            self.work["host_ticks"] += 1
        for host in self.hosts:
            server = self.servers.get(host)
            if server is not None:
                server.tick(now)
                self.work["driver_ticks"] += 1
            for driver in self.clients[host]:
                driver.tick(now)
                self.work["driver_ticks"] += 1
        for host in self.hosts:
            messages = self.stacks[host].drain_host_messages()
            server = self.servers.get(host)
            for message in messages:
                owner = None
                for driver in self.clients[host]:
                    if message.flow_id in driver.conns:
                        owner = driver
                        break
                if owner is not None:
                    owner.on_message(message, now)
                elif server is not None:
                    server.on_message(message, now)

    def idle(self) -> bool:
        if self.pending or self.switch.next_any_delivery_ps() is not None:
            return False
        for host in self.hosts:
            if self.stacks[host].next_wakeup_ps() is not None:
                return False
            if not all(driver.done for driver in self.clients[host]):
                return False
        return True

    def run_epoch(self, end_ps: int) -> None:
        while True:
            t = self._reference_next_event_ps()
            if t is None or t >= end_ps:
                break
            if t < self.now_ps:
                t = self.now_ps
            self.now_ps = t
            self.work["instants"] += 1
            self._reference_settle(t)
        self.now_ps = end_ps


@contextmanager
def reference_loop():
    with mock.patch.object(runner, "CellSim", ReferenceCellSim):
        yield


def behaviour(result):
    """Everything a run did, minus how many instants it visited."""
    return (
        result.epochs,
        result.finished,
        result.peak_concurrent,
        [
            (
                cell.fingerprint,
                {k: v for k, v in cell.counters.items() if k != "events"},
            )
            for cell in result.cells
        ],
    )


@st.composite
def shard_scenarios(draw):
    num_cells = draw(st.integers(1, 3))
    num_hosts = num_cells * draw(st.integers(2, 3))
    ordered = [
        (c, s) for c in range(num_hosts) for s in range(num_hosts) if c != s
    ]
    endpoints = draw(
        st.lists(st.sampled_from(ordered), min_size=1, max_size=4, unique=True)
    )
    pairs = tuple(
        ShardPair(
            client=client,
            server=server,
            conns=draw(st.integers(1, 10)),
            req_bytes=draw(st.integers(1, 8000)),
            resp_bytes=draw(st.integers(1, 8000)),
            transact_every=draw(st.integers(0, 3)),
        )
        for client, server in endpoints
    )
    # A few-KiB static buffer (a port gets buffer / num_hosts) drops
    # segments, which drives the RTO and handshake-retransmit timers;
    # the ECN threshold drives CE marks and the senders' response.
    switch = SwitchConfig(
        partition="static",
        buffer_bytes=draw(st.sampled_from([1 << 21, 8 * 1024, 4 * 1024])),
        ecn_threshold_bytes=draw(st.sampled_from([0, 1600])),
    )
    return ShardScenario(
        name="loop-property",
        num_hosts=num_hosts,
        num_cells=num_cells,
        pairs=pairs,
        seed=draw(st.integers(0, 1 << 16)),
        connect_window_ps=draw(
            st.sampled_from([1_000_000, 10_000_000, 60_000_000])
        ),
        close_after=draw(st.booleans()),
        switch=switch,
        max_epochs=400,
    )


class TestMatchesReferenceLoop:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=shard_scenarios())
    def test_same_digests_and_counters(self, scenario):
        production = run_shard(scenario, fingerprint=True)
        with reference_loop():
            reference = run_shard(scenario, fingerprint=True)
        assert behaviour(production) == behaviour(reference)
        # The gated loop never visits more instants than the old one.
        assert production.total("events") <= reference.total("events")

    def test_churn_seed7_matches(self):
        scenario = get_shard_scenario("churn", seed=7)
        production = run_shard(scenario, fingerprint=True)
        with reference_loop():
            reference = run_shard(scenario, fingerprint=True)
        assert behaviour(production) == behaviour(reference)


class TestWorkCounters:
    def test_churn_work_is_pinned(self):
        """Machine-independent cost gate for the shard loop (churn,
        seed 0, summed over the four cells).

        The old loop visited 7,359 instants and ticked both hosts of a
        cell and each of its drivers at every one; 3,519 of those
        instants only admitted a segment at the cell switch.
        """
        scenario = get_shard_scenario("churn")
        with reference_loop():
            before = run_shard(scenario, fingerprint=True)
        after = run_shard(scenario, fingerprint=True)
        assert before.work == {
            "instants": 7359,
            "host_ticks": 14718,
            "driver_ticks": 22685,
            "batch_admissions": 0,
        }
        assert after.work == {
            "instants": 3840,
            "host_ticks": 3520,
            "driver_ticks": 3040,
            "batch_admissions": 3520,
        }
        assert after.total("events") == after.work["instants"]

    def test_work_stays_out_of_counters(self):
        result = run_shard(get_shard_scenario("churn"))
        payload = result.to_json()
        assert payload["work"] == result.work
        assert not set(result.work) & set(result.cells[0].counters)
        assert payload["cells"][0]["work"] == result.cells[0].work
