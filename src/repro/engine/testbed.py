"""Two-engine testbed: the paper's back-to-back FtEngine setup (§5).

Runs two :class:`FtEngine` instances connected by a :class:`Wire` under
one 250 MHz clock, with idle-skip to the next wire arrival or timer
deadline so long quiet stretches (RTO waits) cost nothing to simulate.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from ..net.link import LINK_100G, Link
from ..net.wire import Wire
from ..tcp.segment import ip_from_string
from .ftengine import ENGINE_PERIOD_PS, FtEngine, FtEngineConfig


def _cycle_bound(max_time_ps: float) -> int:
    """First cycle whose ``cycle * period >= max_time_ps`` time check exits."""
    bound = math.ceil(max_time_ps / ENGINE_PERIOD_PS)
    while bound * ENGINE_PERIOD_PS < max_time_ps:
        bound += 1
    while bound > 0 and (bound - 1) * ENGINE_PERIOD_PS >= max_time_ps:
        bound -= 1
    return bound


class Testbed:
    """Two directly connected engines plus a run loop."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(
        self,
        config_a: Optional[FtEngineConfig] = None,
        config_b: Optional[FtEngineConfig] = None,
        wire: Optional[Wire] = None,
        link: Link = LINK_100G,
    ) -> None:
        self.wire = wire if wire is not None else Wire(link=link)
        self.engine_a = FtEngine(
            ip=ip_from_string("10.0.0.1"),
            config=config_a or FtEngineConfig(),
            port=self.wire.port_a,
        )
        self.engine_b = FtEngine(
            ip=ip_from_string("10.0.0.2"),
            config=config_b or FtEngineConfig(),
            port=self.wire.port_b,
        )
        self.cycle = 0
        #: Deterministic work counts of the next-event loop, summed over
        #: its runs: passes, ticks per engine, real pumps, horizon
        #: recomputes and jumps.
        self.work: Dict[str, int] = dict.fromkeys(
            ("passes", "ticks_a", "ticks_b", "pumps", "horizons", "skips"), 0
        )

    @property
    def time_ps(self) -> int:
        """Exact integer picoseconds (cycle × 4000; see simlint F4T007)."""
        return self.cycle * ENGINE_PERIOD_PS

    @property
    def now_s(self) -> float:
        return self.time_ps / 1e12

    def step(self) -> None:
        """One 250 MHz cycle for both engines."""
        self.cycle += 1
        # Engines keep their own cycle counters aligned with the testbed.
        self.engine_a.cycle = self.cycle - 1
        self.engine_b.cycle = self.cycle - 1
        self.engine_a.tick()
        self.engine_b.tick()

    def _next_wakeup_ps(self) -> Optional[float]:
        candidates = []
        arrival = self.wire.next_arrival_ps()
        if arrival is not None:
            candidates.append(arrival)
        for engine in (self.engine_a, self.engine_b):
            wakeup = engine.next_wakeup_ps()
            if wakeup is not None:
                candidates.append(wakeup)
        future = [t for t in candidates if t > self.time_ps]
        return min(future) if future else None

    def _busy(self) -> bool:
        """The idle probe's test: any frame in flight or engine busy."""
        return (
            self.wire.in_flight > 0
            or self.engine_a.busy()
            or self.engine_b.busy()
        )

    def _pay(self, lag_a: int, lag_b: int) -> None:
        """Advance each engine over the no-op ticks it owes."""
        if lag_a:
            self.engine_a.advance_cycles(lag_a)
        if lag_b:
            self.engine_b.advance_cycles(lag_b)

    def _idle_target(
        self,
        wakeup_ps: Optional[Callable[[], Optional[float]]],
        max_time_ps: float,
    ) -> Optional[int]:
        """Cycle an idle probe jumps to, or None when nothing is awaited.

        The earliest future wire arrival, timer deadline or driver
        wakeup, never past the caller's time bound.
        """
        wakeup = self._next_wakeup_ps()
        if wakeup_ps is not None:
            external = wakeup_ps()
            if external is not None and external > self.time_ps:
                wakeup = external if wakeup is None else min(wakeup, external)
        if wakeup is None:
            return None
        target = min(wakeup, max_time_ps)
        return max(self.cycle, math.ceil(target / ENGINE_PERIOD_PS))

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time_s: float = 1.0,
        max_steps: int = 50_000_000,
        wakeup_ps: Optional[Callable[[], Optional[float]]] = None,
        quiet_cycle: Optional[Callable[[], Optional[int]]] = None,
    ) -> bool:
        """Run until ``until()`` holds; returns False on time/step bound.

        With no predicate, runs until everything is idle (all queues
        empty, nothing in flight, no timers pending).  ``wakeup_ps``
        lets a driver announce externally scheduled work (e.g. the next
        open-loop traffic arrival) so idle-skip jumps exactly there
        instead of fast-forwarding in blind chunks past it.

        Without ``quiet_cycle`` this is the per-cycle loop
        (:meth:`_run_cycles`): ``until()``, then every 8th step an idle
        probe, then one tick of both engines.  It is the oracle.  With
        it, the same run is driven by :meth:`_run_events`, which visits
        only the cycles at which an engine or the ``until`` pump acts
        and is cycle-exact against the oracle.  ``quiet_cycle()`` is
        called right after each ``until()`` that returned False; it
        returns the earliest cycle at which ``until()`` could act
        without a new host message (arrival releases, audits, trace
        samples), or None when it must run again on the next cycle.
        Such an ``until`` may change the engines only through their
        host API, whose event submissions the loop watches.
        """
        max_time_ps = max_time_s * 1e12
        if quiet_cycle is None:
            return self._run_cycles(until, max_time_ps, max_steps, wakeup_ps)
        return self._run_events(
            until, max_time_ps, max_steps, wakeup_ps, quiet_cycle
        )

    def _run_cycles(
        self,
        until: Optional[Callable[[], bool]],
        max_time_ps: float,
        max_steps: int,
        wakeup_ps: Optional[Callable[[], Optional[float]]],
    ) -> bool:
        """The per-cycle loop: both engines ticked on every step."""
        steps = 0
        idle_chunk = 256
        # Hot loop: hoist attribute lookups — this loop runs once per
        # simulated cycle under every setup phase and legacy run.
        engine_a = self.engine_a
        engine_b = self.engine_b
        tick_a = engine_a.tick
        tick_b = engine_b.tick
        while True:
            if until is not None and until():
                return True
            if self.cycle * ENGINE_PERIOD_PS >= max_time_ps or steps >= max_steps:
                return False
            # The busy probe costs more than an idle step, so only look
            # for idle-skip opportunities every few steps.  Idle jumps
            # land on probe-phase-dependent cycles, so the phase is part
            # of the loop's semantics, not just its cost.
            if steps % 8 == 0:
                if self._busy():
                    idle_chunk = 256
                else:
                    target = self._idle_target(wakeup_ps, max_time_ps)
                    if target is None:
                        if until is None:
                            return True  # fully idle and nothing awaited
                        # Idle but a predicate is waiting: fast-forward
                        # in growing chunks so cycle-gated drivers still
                        # run, yet long dead time is cheap.
                        target = self.cycle + idle_chunk
                        idle_chunk = min(idle_chunk * 2, 1 << 22)
                    self.cycle = target
            # Inlined self.step(): one 250 MHz cycle for both engines.
            cycle = self.cycle + 1
            self.cycle = cycle
            engine_a.cycle = cycle - 1
            engine_b.cycle = cycle - 1
            tick_a()
            tick_b()
            steps += 1

    def _run_events(
        self,
        until: Optional[Callable[[], bool]],
        max_time_ps: float,
        max_steps: int,
        wakeup_ps: Optional[Callable[[], Optional[float]]],
        quiet_cycle: Callable[[], Optional[int]],
    ) -> bool:
        """The next-event loop: :meth:`_run_cycles`, minus its no-ops.

        Each pass is one per-cycle iteration — pump, bounds, probe on
        the ``steps % 8`` phase, tick at ``cycle + 1`` — or, when it
        would tick nobody, a jump over it and every following iteration
        that provably does nothing.  An engine is ticked only on a cycle
        its cached work horizon names; on the others it owes a no-op
        tick, paid as one ``advance_cycles`` right before anything reads
        its clock.  The pump runs only when a host message was posted,
        its own ``quiet_cycle`` horizon is reached, or that horizon was
        None.  ARCHITECTURE.md (*The testbed event loop*) states the
        contract.
        """
        engine_a = self.engine_a
        engine_b = self.engine_b
        tick_a = engine_a.tick
        tick_b = engine_b.tick
        horizon_a = engine_a.next_work_cycle
        horizon_b = engine_b.next_work_cycle
        # Each engine's outbound direction is its peer's inbound one.
        out_a = engine_a.port._outbound
        out_b = engine_b.port._outbound
        cycle_bound = _cycle_bound(max_time_ps)
        cycle = self.cycle
        steps = 0
        idle_chunk = 256
        # Per engine: cycles owed as no-op ticks, the cached horizon and
        # whether it must be recomputed.
        lag_a = lag_b = 0
        next_a = next_b = None
        stale_a = stale_b = True
        # The engines' busy() probe result; None = not known since the
        # last tick or pump.
        busy: Optional[bool] = None
        # The pump runs at the first pass, at pump_at, and whenever a
        # host message has been posted since its last run.
        pump_at = cycle
        epoch_a = epoch_b = -1
        submits_a, submits_b = engine_a.submits, engine_b.submits
        passes = ticks_a = ticks_b = pumps = horizons = skips = 0
        try:
            while True:
                passes += 1
                if until is not None and (
                    cycle >= pump_at
                    or engine_a.msg_epoch != epoch_a
                    or engine_b.msg_epoch != epoch_b
                ):
                    # The pump reads the engines' clocks (now_s, trace
                    # stamps): pay what they owe first.
                    self._pay(lag_a, lag_b)
                    lag_a = lag_b = 0
                    self.cycle = cycle
                    pumps += 1
                    if until():
                        return True
                    quiet = quiet_cycle()
                    pump_at = cycle + 1 if quiet is None else quiet
                    epoch_a, epoch_b = engine_a.msg_epoch, engine_b.msg_epoch
                    if engine_a.submits != submits_a:
                        submits_a = engine_a.submits
                        stale_a = True
                        busy = None
                    if engine_b.submits != submits_b:
                        submits_b = engine_b.submits
                        stale_b = True
                        busy = None
                if cycle >= cycle_bound or steps >= max_steps:
                    return False
                if not steps & 7:
                    if busy is None:
                        busy = self._busy()
                    if busy:
                        idle_chunk = 256
                    else:
                        self._pay(lag_a, lag_b)
                        lag_a = lag_b = 0
                        self.cycle = cycle
                        target = self._idle_target(wakeup_ps, max_time_ps)
                        if target is None:
                            if until is None:
                                return True  # fully idle, nothing awaited
                            target = cycle + idle_chunk
                            idle_chunk = min(idle_chunk * 2, 1 << 22)
                        if target != cycle:
                            # The jump moves the engine clocks but not
                            # the FPC and scheduler counters, exactly as
                            # in _run_cycles; horizons shift with it.
                            cycle = target
                            engine_a.cycle = engine_b.cycle = cycle
                            stale_a = stale_b = True
                if stale_a:
                    if lag_a:
                        engine_a.advance_cycles(lag_a)
                        lag_a = 0
                    next_a = horizon_a()
                    horizons += 1
                    stale_a = False
                if stale_b:
                    if lag_b:
                        engine_b.advance_cycles(lag_b)
                        lag_b = 0
                    next_b = horizon_b()
                    horizons += 1
                    stale_b = False
                tick_at = cycle + 1
                due_a = next_a is not None and next_a <= tick_at
                due_b = next_b is not None and next_b <= tick_at
                if due_a or due_b:
                    # Tick the engines due, A before B.  A tick never
                    # makes the peer due on the same cycle: a frame sent
                    # at c arrives strictly after c.
                    if due_a:
                        if lag_a:
                            engine_a.advance_cycles(lag_a)
                            lag_a = 0
                        sent = out_a.frames_sent
                        tick_a()
                        ticks_a += 1
                        stale_a = True
                        if out_a.frames_sent != sent:
                            stale_b = True
                    else:
                        lag_a += 1
                    if due_b:
                        if lag_b:
                            engine_b.advance_cycles(lag_b)
                            lag_b = 0
                        sent = out_b.frames_sent
                        tick_b()
                        ticks_b += 1
                        stale_b = True
                        if out_b.frames_sent != sent:
                            stale_a = True
                    else:
                        lag_b += 1
                    busy = None
                    cycle = tick_at
                    steps += 1
                    continue
                # This pass ticks nobody, so it is a no-op: jump over it
                # and every following pass with no pump, no bound, no
                # idle probe and no engine due.  (After an idle jump the
                # next pass may already pump or hit the time bound.)
                n = min(cycle_bound - cycle, max_steps - steps)
                if until is not None and pump_at - cycle < n:
                    n = pump_at - cycle
                if next_a is not None and next_a - 1 - cycle < n:
                    n = next_a - 1 - cycle
                if next_b is not None and next_b - 1 - cycle < n:
                    n = next_b - 1 - cycle
                if n < 1:
                    n = 1
                probe = (-steps - 1 & 7) + 1  # passes ahead to a probe one
                if probe < n:
                    if busy is None:
                        busy = self._busy()
                    if busy:
                        idle_chunk = 256
                    else:
                        n = probe  # an idle probe jumps: land on it
                cycle += n
                steps += n
                lag_a += n
                lag_b += n
                skips += 1
        finally:
            self._pay(lag_a, lag_b)
            self.cycle = cycle
            work = self.work
            work["passes"] += passes
            work["ticks_a"] += ticks_a
            work["ticks_b"] += ticks_b
            work["pumps"] += pumps
            work["horizons"] += horizons
            work["skips"] += skips

    # ------------------------------------------------------- conveniences
    def establish(
        self, server_port: int = 80, max_time_s: float = 0.1
    ) -> "tuple[int, int]":
        """Open one connection B->listen, A->connect; returns (a_flow, b_flow)."""
        self.engine_b.listen(server_port)
        a_flow = self.engine_a.connect(self.engine_b.ip, server_port)
        accepted: list = []

        def done() -> bool:
            if not accepted:
                flow = self.engine_b.accept(server_port)
                if flow is not None:
                    accepted.append(flow)
            from ..tcp.state_machine import TcpState

            return bool(accepted) and self.engine_a.flow_state(a_flow) is TcpState.ESTABLISHED

        if not self.run(until=done, max_time_s=max_time_s):
            raise TimeoutError("three-way handshake did not complete")
        return a_flow, accepted[0]
