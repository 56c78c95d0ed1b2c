"""The event-driven fabric core: switch agenda, port inventory, work.

``tests/fabric/test_goldens.py`` and ``test_driver_property.py`` prove
the agenda-driven loop reproduces the scanning one bit for bit; this
file pins what it costs and the per-port surface it exposes.
"""

import pytest

from repro.fabric import SwitchFabric, get_fabric_scenario, run_fabric
from repro.fabric.softstack import FabricPacket
from repro.tcp.segment import FlowKey


def _packet(fabric: SwitchFabric, src: int, dst: int) -> FabricPacket:
    key = FlowKey(fabric.host_ip(src), 49152, fabric.host_ip(dst), 9000)
    return FabricPacket("data", key, payload_bytes=1000)


class TestPortPending:
    def test_pending_counts_only_this_hosts_packets(self):
        fabric = SwitchFabric(3)
        ports = [fabric.port(i) for i in range(3)]
        ports[0].send(_packet(fabric, 0, 1), 0)
        ports[0].send(_packet(fabric, 0, 1), 0)
        # Both packets sit on host 0's uplink; nobody else has any.
        assert [p.pending for p in ports] == [2, 0, 0]
        t = fabric.next_event_ps()
        while fabric.delivery_ps[1] > t:
            fabric.advance(t)
            t = fabric.next_event_ps()
        # Both crossed the switch and wait in host 1's delivery heap.
        assert [p.pending for p in ports] == [0, 2, 0]
        assert len(ports[1].poll(fabric.next_event_ps())) == 1
        assert [p.pending for p in ports] == [0, 1, 0]


class TestSwitchAgenda:
    def test_advance_is_a_no_op_before_the_next_event(self):
        fabric = SwitchFabric(2)
        fabric.port(0).send(_packet(fabric, 0, 1), 0)
        first = fabric.next_event_ps()
        fabric.advance(first - 1)
        assert fabric.events == 0
        assert fabric.next_event_ps() == first
        fabric.advance(first)
        # Admission and the egress start it unlocks share the instant.
        assert fabric.events == 2
        assert fabric.next_event_ps() == fabric.delivery_ps[1] > first

    def test_a_send_lands_strictly_after_now(self):
        fabric = SwitchFabric(2)
        fabric.advance(10_000)
        fabric.port(0).send(_packet(fabric, 0, 1), 10_000)
        assert fabric.next_event_ps() > 10_000
        # A send stamped so far back that it would land before the
        # instant already advanced to breaks the one-advance contract.
        fabric.advance(10**9)
        with pytest.raises(AssertionError):
            fabric.port(1).send(_packet(fabric, 1, 0), 0)


class TestWorkCounters:
    def test_incast_work_is_pinned(self):
        """Machine-independent cost gate for the 8-host incast perf row.

        The scanning driver ticked all 8 hosts and walked all 7 conns
        at every one of the same 17,335 instants: 138,680 host ticks
        and 121,044 conn walks.
        """
        result = run_fabric(
            get_fabric_scenario("incast", num_hosts=8, seed=1234),
            backend="f4t",
        )
        assert result.work == {
            "instants": 17335,
            "host_ticks": 7088,
            "conn_pumps": 31626,
            "switch_events": 14244,
        }

    def test_work_stays_out_of_scalars(self):
        result = run_fabric(get_fabric_scenario("incast", num_hosts=3))
        assert result.work["instants"] > 0
        assert not set(result.work) & set(result.scalars())


class TestHostQueues:
    def test_incast_leaves_no_host_messages(self):
        """The fabric driver polls flow state and never reads its
        stacks' host messages; it must discard them as it ticks, or
        each queue grows for the length of the run."""
        from repro.fabric.engine import FabricLoadEngine

        engine = FabricLoadEngine(
            get_fabric_scenario("incast", num_hosts=8, seed=1)
        )
        result = engine.run()
        assert result.completed > 0
        for stack in engine.stacks:
            assert not stack.host_messages[0], stack.name
            assert stack.host_drains > 0
