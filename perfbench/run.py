"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload p2p-mixed --seed 1 --trace 0

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` builds and runs the workload repeatedly for ``--seconds``
(at least three times), then makes one fingerprint pass, and reports
the end-to-end metrics: host-time medians over the timed runs, and
model (simulated-time) metrics from the fingerprint pass.

``--trace 1`` makes the fingerprint pass, one untraced run and one run
with span wrappers on the layer entry points, and reports the
per-layer metrics.  The spans are written to ``.perfbench_out/``.

Every timed or traced run's model outputs must equal the fingerprint
pass's, or the run counts as failed.  ``--workload all`` runs every
workload in both modes.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 2, with no result printed, when the
checkout holds no program source.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Timed runs per invocation, at least (more while ``--seconds`` lasts).
MIN_RUNS = 3
#: Set-up measurements per invocation, at least.
MIN_SETUPS = 21
#: Candidate tail percentiles, highest first; the first with at least
#: ten samples beyond it is reported.  The ladder tops out at p98: on
#: p2p-mixed 0.7-2.1% of requests queue behind a Zipf-sized bulk
#: transfer, a share set by the seed's largest transfers, so p99 falls
#: on either side of that knee and spreads up to 0.25 over ten seeds.
TAIL_LADDER = (98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)

Metrics = Dict[str, Tuple[float, str]]


def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(p / 100 * len(ordered)) - 1, 0)
    return ordered[rank]


def tail_percentile(samples: int) -> float:
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= 10:
            return p
    return 50.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(fn, *args):
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    value = fn(*args)
    return value, time.perf_counter() - wall, time.process_time() - cpu


def op_counts(reference, mismatched: int) -> Tuple[int, int]:
    """Ops attempted and failed, counted once for the seed's inputs.

    Every timed or traced run repeats the reference pass's ops and must
    reproduce its outputs, so the counts do not depend on how many runs
    fit in the time.  A failed op is one not completed; if any run's
    model outputs differ from the reference pass, every op failed.
    """
    if mismatched:
        return reference.attempted, reference.attempted
    return reference.attempted, reference.attempted - reference.completed


# -------------------------------------------------------------- end to end
def end_to_end(workload, seed: int, seconds: float):
    runs = []
    setups: List[float] = []
    started = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - started < seconds:
        built, _, setup_cpu = _timed(workload.build, seed)
        outcome, wall, cpu = _timed(workload.run, built)
        del built
        setups.append(setup_cpu + outcome.setup_in_run_cpu_s)
        runs.append((
            outcome,
            wall - outcome.setup_in_run_s,
            cpu - outcome.setup_in_run_cpu_s,
        ))
    while len(setups) < MIN_SETUPS:
        _, _, setup_cpu = _timed(workload.probe_setup, seed)
        setups.append(setup_cpu)
    rss = peak_rss_mib()
    reference = workload.reference(seed)

    samples = sorted(reference.latencies_s + reference.failed_latencies_s)
    tail = tail_percentile(len(samples))
    metrics: Metrics = {
        "ops_per_host_s": (
            statistics.median(o.completed / cpu for o, _, cpu in runs), "1/s"
        ),
        "host_cpu_us_per_op": (
            statistics.median(cpu / o.completed * 1e6 for o, _, cpu in runs),
            "us",
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "completed_frac": (reference.completed / reference.attempted, "ratio"),
        "sim_p50_us": (percentile(samples, 50) * 1e6, "us"),
        "sim_tail_us": (percentile(samples, tail) * 1e6, "us"),
        "sim_goodput_gbps": (
            reference.bytes_delivered * 8 / reference.makespan_s / 1e9,
            "Gbit/s",
        ),
        "sim_makespan_us": (reference.makespan_s * 1e6, "us"),
    }
    wall_rate = statistics.median(o.completed / wall for o, wall, _ in runs)
    mismatched = sum(o.model != reference.model for o, _, _ in runs)
    lines = [
        f"{workload.name} seed={seed}: {len(runs)} timed runs in "
        f"{time.perf_counter() - started:.1f} s; host time is process CPU "
        "time, medians over the runs",
        *_table(metrics),
        f"  (wall-clock rate {wall_rate:.6g} ops/s: it also counts time the "
        "machine ran other work)",
        f"  sim_tail_us is p{tail:g} of {len(samples)} ops "
        f"({len(reference.failed_latencies_s)} failed, charged at the run "
        "bound)",
        f"  fail_frac {1 - reference.completed / reference.attempted:.4f} "
        f"({reference.attempted - reference.completed} of "
        f"{reference.attempted} ops not completed)",
        *_reference_lines(reference, mismatched),
    ]
    correct = not mismatched and not reference.problems
    return (metrics, lines, correct, *op_counts(reference, mismatched))


def _reference_lines(reference, mismatched: int) -> List[str]:
    lines = [
        f"  fingerprint {reference.fingerprint} "
        f"({reference.trace_events or 'merged per-cell'} events)",
        f"  runs whose model outputs differ from the fingerprint pass: "
        f"{mismatched}",
    ]
    lines += [f"  CHECK FAILED: {problem}" for problem in reference.problems]
    return lines


def _table(metrics: Metrics) -> List[str]:
    return [
        f"  {name:<30} {value:>16.6g} {unit}"
        for name, (value, unit) in metrics.items()
    ]


# --------------------------------------------------------------- per layer
#: Span-derived per-layer metrics: metric -> (statistic, span name).
SPAN_METRICS = {
    "engine.tick_calls": ("calls", "engine.tick"),
    "engine.horizon_polls": ("calls", "engine.horizon"),
    "engine.scheduler_s": ("self_s", "engine.scheduler"),
    "traffic.pump_s": ("self_s", "traffic.pump"),
    "traffic.pump_calls_per_op": ("calls_per_op", "traffic.pump"),
    "traffic.quiet_polls": ("calls", "traffic.quiet"),
    "fabric.switch_s": ("self_s", "fabric.switch"),
    "fabric.switch_calls_per_op": ("calls_per_op", "fabric.switch"),
    "fabric.softstack_s": ("self_s", "fabric.softstack"),
    "fabric.driver_s": ("self_s", "fabric.driver"),
    "shard.epoch_s": ("self_s", "shard.epoch"),
    "shard.exchange_s": ("self_s", "shard.exchange"),
}
LAYERS = ("engine", "tcp", "traffic", "fabric", "shard")


def per_layer(workload, seed: int):
    from spans import SpanRecorder
    from workloads import LAYER_METRICS

    reference, ref_wall, _ = _timed(workload.reference, seed)
    built, setup_s, _ = _timed(workload.build, seed)
    plain, plain_wall, _ = _timed(workload.run, built)
    del built
    built = workload.build(seed)
    recorder = SpanRecorder()
    counters, traced_wall, _ = _timed(workload.traced, built, recorder)
    del built
    traced = counters.pop("outcome")
    cycles = counters.pop("cycles", 0)

    summary = recorder.summary()
    ops = max(traced.completed, 1)
    values: Dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
    values.update(counters)
    for metric, (stat, span) in SPAN_METRICS.items():
        row = summary.get(span)
        if row is None:
            continue
        if stat == "calls_per_op":
            values[metric] = row["calls"] / ops
        else:
            values[metric] = row[stat]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in summary.items()
            if name.split(".", 1)[0] == layer
        )
    if cycles:
        values["engine.tick_frac"] = values["engine.tick_calls"] / (2 * cycles)
    unattributed = traced_wall - recorder.root_seconds()
    values["obs.trace_overhead_frac"] = ref_wall / (setup_s + plain_wall) - 1
    values["bench.span_overhead_frac"] = traced_wall / plain_wall - 1
    values["bench.unattributed_s"] = unattributed
    values["bench.traced_wall_s"] = traced_wall
    values["bench.spans"] = len(recorder)
    metrics: Metrics = {
        name: (values[name], unit) for name, unit in LAYER_METRICS.items()
    }

    mismatched = sum(o.model != reference.model for o in (plain, traced))
    spans_file = recorder.write(OUT_DIR, f"{workload.name}-seed{seed}")
    layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    lines = [
        f"{workload.name} seed={seed}: traced run {traced_wall:.2f} s, "
        f"untraced {plain_wall:.2f} s, fingerprint pass {ref_wall:.2f} s",
        *_table(metrics),
        f"  {'span':<22} {'calls':>10} {'total_s':>10} {'self_s':>10}",
        *(
            f"  {name:<22} {row['calls']:>10} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f}"
            for name, row in sorted(summary.items())
        ),
        f"  layer self times {layer_sum:.4f} s + unattributed "
        f"{unattributed:.4f} s = traced wall {traced_wall:.4f} s",
        f"  spans written to {spans_file.relative_to(ROOT)}",
        *_reference_lines(reference, mismatched),
    ]
    correct = not mismatched and not reference.problems
    return (metrics, lines, correct, *op_counts(reference, mismatched))


# -------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    # Only the checkout's own source counts, never an installed copy.
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    from workloads import WORKLOADS
    if args.workload == "all":
        plan = [(w, mode) for w in WORKLOADS.values() for mode in (0, 1)]
    elif args.workload in WORKLOADS:
        plan = [(WORKLOADS[args.workload], args.trace)]
    else:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            + ", ".join([*WORKLOADS, "all"])
        )

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, mode in plan:
        if mode:
            out = per_layer(workload, args.seed)
        else:
            out = end_to_end(workload, args.seed, args.seconds)
        metrics, lines, correct, attempted, failed = out
        print("\n".join(lines), flush=True)
        prefix = f"{workload.name}/" if len(plan) > 1 else ""
        result["correct"] = result["correct"] and correct
        result["attempted"] += attempted
        result["failed"] += failed
        for name, (value, unit) in metrics.items():
            result["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
