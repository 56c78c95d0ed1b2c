"""The shard runner: lockstep epochs, worker processes, merged results.

:func:`run_shard` executes a :class:`~repro.shard.scenarios.
ShardScenario` — in-process when ``workers <= 1``, else on a pool of
forked worker processes, each hosting a fixed subset of cells.  The
epoch protocol is a plain barrier loop:

1. every worker runs each of its cells up to the epoch boundary;
2. workers send their cross-cell outboxes (plus an idle flag and the
   live-connection gauge) to the coordinator;
3. the coordinator routes entries to the destination cells' workers —
   or, if **no** entries were exchanged and **every** cell reported
   idle, declares quiescence and stops.

Because the stop decision is a function of per-cell flags only, and
each cell's simulation is a pure function of (scenario, seed, cell) and
its barrier inputs, the merged fingerprint is identical for any worker
count — that is the property ``tests/shard`` pins.

:func:`run_traffic_shard` is the second shard kind: an existing
:mod:`repro.traffic` scenario split by class with
:meth:`~repro.traffic.scenario.Scenario.split`, each cell running the
unmodified integer-ps kernel testbed + load engine to completion (the
cells share no wire, so no epochs are needed), fingerprints merged in
cell order.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import TYPE_CHECKING, Any, Dict, List, Optional, TextIO, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..traffic.scenario import Scenario

from ..check.lockstep import LockstepSanitizer
from ..lab.runner import _mp_context
from ..obs.trace import StreamingFingerprint, TraceBus
from ..obs.trace import fingerprint as trace_fingerprint
from ..obs.trace import merge_fingerprints
from .cell import CellSim, Entry
from .scenarios import ShardScenario


@dataclass
class CellReport:
    """One cell's deterministic totals plus its stream fingerprint."""

    cell: int
    fingerprint: Optional[str]
    counters: Dict[str, int] = field(default_factory=dict)
    #: Deterministic loop work (``CellSim.work``); kept out of
    #: ``counters`` so comparing behaviour ignores how it was computed.
    work: Dict[str, int] = field(default_factory=dict)

    def get(self, key: str) -> int:
        return int(self.counters.get(key, 0))


@dataclass
class ShardResult:
    """What a sharded run did, merged across cells and workers."""

    scenario: str
    kind: str  # 'fabric' | 'traffic'
    seed: int
    num_cells: int
    workers: int
    epochs: int
    epoch_ps: int
    finished: bool
    peak_concurrent: int
    fingerprint: Optional[str]
    cells: List[CellReport]
    elapsed_s: float
    #: Peak RSS in KiB of the largest worker process (the bounded
    #: per-shard memory gauge; the coordinator's own RSS for workers<=1).
    max_worker_rss_kb: int = 0

    def total(self, key: str) -> int:
        return sum(report.get(key) for report in self.cells)

    @property
    def work(self) -> Dict[str, int]:
        """Per-cell loop work counts summed over cells."""
        totals: Dict[str, int] = {}
        for report in self.cells:
            for key, value in report.work.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def summary(self) -> str:
        lines = [
            f"shard {self.scenario}: {self.num_cells} cells on "
            f"{self.workers} worker(s), {self.epochs} epochs "
            f"({self.epoch_ps / 1e6:g} us each), "
            f"{'finished' if self.finished else 'UNFINISHED'} "
            f"in {self.elapsed_s:.1f}s",
            f"  conns: {self.total('conns_opened')} opened, "
            f"{self.total('conns_established')} established, "
            f"{self.total('txns_completed')} transactions, "
            f"{self.total('conns_closed')} closed, "
            f"peak concurrent {self.peak_concurrent}",
            f"  wire: {self.total('packets_sent')} sent, "
            f"{self.total('forwarded')} forwarded, "
            f"{self.total('dropped')} dropped, "
            f"{self.total('ecn_marked')} CE-marked, "
            f"{self.total('retransmits')} retransmits",
            f"  peak worker RSS: {self.max_worker_rss_kb / 1024:.0f} MiB",
        ]
        if self.fingerprint:
            lines.append(f"  fingerprint: {self.fingerprint}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "seed": self.seed,
            "num_cells": self.num_cells,
            "workers": self.workers,
            "epochs": self.epochs,
            "epoch_ps": self.epoch_ps,
            "finished": self.finished,
            "peak_concurrent": self.peak_concurrent,
            "fingerprint": self.fingerprint,
            "elapsed_s": self.elapsed_s,
            "max_worker_rss_kb": self.max_worker_rss_kb,
            "totals": {
                key: self.total(key)
                for key in (
                    "conns_opened", "conns_established", "txns_completed",
                    "conns_closed", "packets_sent", "packets_received",
                    "forwarded", "dropped", "ecn_marked", "retransmits",
                    "timeouts", "ecn_echoes", "events",
                )
            },
            "work": self.work,
            "cells": [
                {
                    "cell": report.cell,
                    "fingerprint": report.fingerprint,
                    **report.counters,
                    "work": report.work,
                }
                for report in self.cells
            ],
        }


def _rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _cell_report(sim: CellSim) -> CellReport:
    fp = sim.trace.hexdigest() if sim.trace is not None else None
    return CellReport(
        cell=sim.cell, fingerprint=fp, counters=sim.report(),
        work=dict(sim.work),
    )


def _merged(
    scenario: ShardScenario,
    workers: int,
    epochs: int,
    finished: bool,
    peak: int,
    reports: List[CellReport],
    elapsed: float,
    rss_kb: int,
    san: Optional[LockstepSanitizer] = None,
) -> ShardResult:
    reports = sorted(reports, key=lambda r: r.cell)
    if san is not None:
        san.on_merge([r.cell for r in reports], scenario.num_cells)
    parts = [report.fingerprint for report in reports]
    merged = (
        merge_fingerprints(parts) if all(p is not None for p in parts) else None
    )
    return ShardResult(
        scenario=scenario.name,
        kind="fabric",
        seed=scenario.seed,
        num_cells=scenario.num_cells,
        workers=workers,
        epochs=epochs,
        epoch_ps=scenario.epoch_ps,
        finished=finished,
        peak_concurrent=peak,
        fingerprint=merged,
        cells=reports,
        elapsed_s=elapsed,
        max_worker_rss_kb=rss_kb,
    )


# --------------------------------------------------------------- sequential
def _run_sequential(
    scenario: ShardScenario,
    fingerprint: bool,
    progress: Optional[TextIO],
    san: Optional[LockstepSanitizer] = None,
) -> ShardResult:
    started = time.monotonic()  # f4t: noqa[F4T002] harness wall clock
    sims = [
        CellSim(
            scenario, cell,
            StreamingFingerprint() if fingerprint else None,
            san=san,
        )
        for cell in range(scenario.num_cells)
    ]
    epoch_ps = scenario.epoch_ps
    peak = 0
    finished = False
    epoch = 0
    while epoch < scenario.max_epochs:
        boundary = (epoch + 1) * epoch_ps
        if san is not None:
            san.on_epoch(epoch, boundary)
        exchanged = 0
        for sim in sims:
            sim.run_epoch(boundary)
        for sim in sims:
            for dst, entries in sim.take_outboxes().items():
                sims[dst].receive(entries)
                exchanged += len(entries)
        open_now = sum(sim.open_conns() for sim in sims)
        if open_now > peak:
            peak = open_now
        epoch += 1
        if exchanged == 0 and all(sim.idle() for sim in sims):
            finished = True
            break
        if progress is not None and epoch % 200 == 0:
            progress.write(
                f"shard: epoch {epoch}, {open_now} conns open\n"
            )
            progress.flush()
    return _merged(
        scenario, 1, epoch, finished, peak,
        [_cell_report(sim) for sim in sims],
        time.monotonic() - started, _rss_kb(),  # f4t: noqa[F4T002]
        san=san,
    )


# ----------------------------------------------------------- worker process
def _shard_worker_main(
    channel: Any,
    scenario: ShardScenario,
    cell_ids: List[int],
    fingerprint: bool,
) -> None:
    """One worker: simulate ``cell_ids`` in lockstep with the barrier."""
    sims = {
        cell: CellSim(
            scenario, cell, StreamingFingerprint() if fingerprint else None
        )
        for cell in cell_ids
    }
    epoch_ps = scenario.epoch_ps
    epoch = 0
    try:
        while True:
            boundary = (epoch + 1) * epoch_ps
            outbound: Dict[int, List[Entry]] = {}
            open_conns = 0
            for cell in cell_ids:
                sim = sims[cell]
                sim.run_epoch(boundary)
                # Canonical wire order: the heap on the receiving
                # side makes admission order-invariant, but sorting here
                # keeps the pickled exchange bytes worker-layout-stable.
                for dst, entries in sorted(sim.take_outboxes().items()):
                    outbound.setdefault(dst, []).extend(entries)
                open_conns += sim.open_conns()
            idle = all(sims[cell].idle() for cell in cell_ids)
            channel.send(("barrier", epoch, outbound, idle, open_conns))
            command = channel.recv()
            if command[0] == "stop":
                break
            for cell, entries in command[1].items():
                sims[cell].receive(entries)
            epoch += 1
        channel.send(
            ("final", [_cell_report(sims[cell]) for cell in cell_ids], _rss_kb())
        )
    except (KeyboardInterrupt, BrokenPipeError, EOFError):
        pass


def _run_pooled(
    scenario: ShardScenario,
    workers: int,
    fingerprint: bool,
    progress: Optional[TextIO],
) -> ShardResult:
    started = time.monotonic()  # f4t: noqa[F4T002] harness wall clock
    context = _mp_context()
    #: Worker w hosts cells w, w+workers, w+2*workers, ... — any fixed
    #: assignment works; the fingerprint must not (and does not) care.
    assignment = [
        list(range(w, scenario.num_cells, workers)) for w in range(workers)
    ]
    owner = {
        cell: w for w, cells in enumerate(assignment) for cell in cells
    }
    channels: List[Connection] = []
    processes: List[BaseProcess] = []
    for w in range(workers):
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_shard_worker_main,
            args=(child_end, scenario, assignment[w], fingerprint),
            name=f"shard-worker-{w}",
            daemon=True,
        )
        process.start()
        child_end.close()
        channels.append(parent_end)
        processes.append(process)

    peak = 0
    finished = False
    epoch = 0
    try:
        while epoch < scenario.max_epochs:
            exchanged = 0
            all_idle = True
            open_now = 0
            inbound: List[Dict[int, List[Entry]]] = [
                {} for _ in range(workers)
            ]
            for channel in channels:
                tag, _epoch, outbound, idle, opened = channel.recv()
                assert tag == "barrier"
                all_idle = all_idle and idle
                open_now += opened
                for dst, entries in sorted(outbound.items()):
                    inbound[owner[dst]].setdefault(dst, []).extend(entries)
                    exchanged += len(entries)
            if open_now > peak:
                peak = open_now
            epoch += 1
            if exchanged == 0 and all_idle:
                finished = True
                break
            for w, channel in enumerate(channels):
                channel.send(("run", inbound[w]))
            if progress is not None and epoch % 200 == 0:
                progress.write(
                    f"shard: epoch {epoch}, {open_now} conns open\n"
                )
                progress.flush()
        reports: List[CellReport] = []
        rss = 0
        for channel in channels:
            channel.send(("stop",))
        for channel in channels:
            tag, worker_reports, worker_rss = channel.recv()
            assert tag == "final"
            reports.extend(worker_reports)
            rss = max(rss, worker_rss)
    finally:
        for channel in channels:
            channel.close()
        for process in processes:
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()
    return _merged(
        scenario, workers, epoch, finished, peak, reports,
        time.monotonic() - started, rss,  # f4t: noqa[F4T002]
    )


def run_shard(
    scenario: ShardScenario,
    workers: int = 1,
    fingerprint: Optional[bool] = None,
    progress: Optional[TextIO] = None,
    sanitizer: Optional[LockstepSanitizer] = None,
) -> ShardResult:
    """Run a sharded fabric scenario on ``workers`` processes.

    ``fingerprint=None`` takes the scenario's default (the million-flow
    presets turn it off; everything else on).  The merged fingerprint —
    when computed — is identical for every ``workers`` value.

    ``sanitizer`` attaches a
    :class:`~repro.check.lockstep.LockstepSanitizer`; its shadow state
    must live in one address space, so a sanitized run always takes the
    (bit-identical) sequential path regardless of ``workers``.
    """
    if fingerprint is None:
        fingerprint = scenario.fingerprint_default
    workers = max(1, min(workers, scenario.num_cells))
    if sanitizer is not None:
        return _run_sequential(scenario, fingerprint, progress, san=sanitizer)
    # Pool-capability probe only; never enters sim state or digests.
    if (workers > 1
            and multiprocessing.current_process().daemon):  # f4t: noqa[F4T009]
        # A daemonic pool worker (e.g. a lab grid worker) cannot fork
        # children; the sequential path is bit-identical, just slower.
        workers = 1
    if workers == 1:
        return _run_sequential(scenario, fingerprint, progress)
    return _run_pooled(scenario, workers, fingerprint, progress)


# ------------------------------------------------------------ traffic kind
def _traffic_cell_job(
    args: Tuple[int, Any, float],
) -> Tuple[int, str, Dict[str, int]]:
    """Run one class-split traffic cell on the unmodified kernel
    testbed + load engine; returns (cell, fingerprint, counters)."""
    from ..obs.hooks import attach_load_engine
    from ..traffic.engine import LoadEngine

    cell, part, load_scale = args
    engine = LoadEngine(part, load_scale=load_scale)
    bus = TraceBus()
    attach_load_engine(engine, bus)
    result = engine.run()
    counters = {
        "events": len(bus.events),
        "requests_offered": result.offered,
        "requests_completed": result.completed,
        "finished": int(result.finished),
    }
    return cell, trace_fingerprint(bus.events), counters


def run_traffic_shard(
    scenario: "Scenario",
    cells: Optional[int] = None,
    workers: int = 1,
    load_scale: float = 1.0,
) -> ShardResult:
    """Shard an existing :class:`~repro.traffic.scenario.Scenario` by
    traffic class and run each cell on its own kernel testbed.

    Splitting keeps the parent name and seed, so every class's derived
    RNG streams are bit-identical to the unsplit run — a single-cell
    split reproduces the pinned golden fingerprints exactly.
    """
    started = time.monotonic()  # f4t: noqa[F4T002] harness wall clock
    parts = scenario.split(cells)
    jobs = [(cell, part, load_scale) for cell, part in enumerate(parts)]
    workers = max(1, min(workers, len(jobs)))
    # Pool-capability probe only; never enters sim state or digests.
    if (workers > 1
            and multiprocessing.current_process().daemon):  # f4t: noqa[F4T009]
        workers = 1
    if workers == 1:
        rows = [_traffic_cell_job(job) for job in jobs]
    else:
        context = _mp_context()
        with context.Pool(processes=workers) as pool:
            rows = pool.map(_traffic_cell_job, jobs)
    rows.sort(key=lambda row: row[0])
    reports = [
        CellReport(cell=cell, fingerprint=fp, counters=counters)
        for cell, fp, counters in rows
    ]
    return ShardResult(
        scenario=scenario.name,
        kind="traffic",
        seed=scenario.seed,
        num_cells=len(parts),
        workers=workers,
        epochs=0,
        epoch_ps=0,
        finished=all(bool(r.get("finished")) for r in reports),
        peak_concurrent=0,
        fingerprint=merge_fingerprints(
            [report.fingerprint for report in reports]
        ),
        cells=reports,
        elapsed_s=time.monotonic() - started,  # f4t: noqa[F4T002]
        max_worker_rss_kb=_rss_kb(),
    )
