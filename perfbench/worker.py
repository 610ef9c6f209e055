"""The measured process of one benchmark run; started by run.py.

Imports the package from ``src`` (timing the import), builds the workload's
seeded inputs, warms up on the workload's tiny form, then reports
``@@perfbench ready`` on stdout.  From then on it runs whole passes over the
workload's operations until ``--seconds`` have elapsed, and reports one
``@@perfbench {json}`` line.  With ``--trace 1`` passes alternate between
untraced and traced, and the report carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def say(message: str) -> None:
    sys.__stdout__.write(f"@@perfbench {message}\n")
    sys.__stdout__.flush()


class Meter:
    """Times the package calls of one pass; the benchmark's checks stay outside."""

    def __init__(self) -> None:
        self.busy = 0.0

    def call(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy += perf_counter() - start


def run_pass(workload, tracer=None, ops_log=None, pass_no=0, op_times=None):
    """One pass over every operation: (busy seconds, attempted, failed, wrong)."""
    from oracle import CheckFailed  # oracle imports numpy; import_s times that first

    gc.collect()  # every pass starts from the same collector state
    meter = Meter()
    attempted = failed = wrong = 0
    for name, op in workload.operations():
        attempted += 1
        before = meter.busy
        if tracer is not None:
            tracer.op_id = len(ops_log) + 1
            ops_log.append((tracer.op_id, pass_no, name))
        try:
            op(meter)
        except CheckFailed as exc:
            failed += 1
            wrong += 1
            print(f"perfbench: {name}: wrong output: {exc}", file=sys.stderr)
        except Exception:
            failed += 1
            print(f"perfbench: {name}: failed:\n{traceback.format_exc()}", file=sys.stderr)
        if op_times is not None:
            op_times.setdefault(name, []).append(meter.busy - before)
    return meter.busy, attempted, failed, wrong


def upper_quartile(times: list[float]) -> float:
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def layer_metrics(tracer_passes, untraced_walls, traced_walls, import_s):
    """Per-layer report: medians over traced passes of self times, counts and ratios."""
    per_pass = []
    for self_times, counts, wall, n_spans in tracer_passes:
        row = dict(self_times)
        row.update({name: counts.get(name, 0) for name in tracing.COUNT_METRICS})
        iters, outputs = row["optimize.ba_iterations"], row["enumeration.outputs"]
        row["optimize.ba_ms_per_iter"] = 1000 * row["optimize.ba_s"] / iters if iters else 0.0
        gen = row["enumeration.generate_s"]
        row["enumeration.outputs_per_s"] = outputs / gen if gen else 0.0
        row["trace.coverage"] = sum(self_times.values()) / wall if wall else 0.0
        row["trace.spans"] = n_spans
        per_pass.append(row)
    metrics = {name: statistics.median(r[name] for r in per_pass) for name in per_pass[0]}
    metrics["import_s"] = import_s
    metrics["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    metrics["trace.traced_wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    import trapdoor  # noqa: F401  (numpy comes with it)
    import_s = perf_counter() - start
    if not Path(trapdoor.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"trapdoor imported from {trapdoor.__file__}, not from {src}")

    import workloads

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        make = workloads.WORKLOADS[args.workload]
        workload = make(args.seed, args.tiny, scratch)
        _, _, failed, _ = run_pass(make(args.seed, True, scratch))
        if failed:
            raise SystemExit("warm-up failed")
        say("ready")
        if args.setup_only:
            return 0

        tracer = tracing.Tracer() if args.trace else None
        ops_log: list[tuple[int, int, str]] = []
        untraced, traced, tracer_passes = [], [], []
        op_times: dict[str, list[float]] = {}
        attempted = failed = wrong = 0
        begin = perf_counter()
        while True:
            traced_pass = tracer is not None and len(untraced) > len(traced)
            if traced_pass:
                first = len(tracer.spans)
                tracer.counts.clear()
                tracer.install()
                try:
                    busy, a, f, w = run_pass(workload, tracer, ops_log,
                                             len(untraced) + len(traced))
                finally:
                    tracer.uninstall()
                traced.append(busy)
                tracer_passes.append((tracer.self_times(first), dict(tracer.counts), busy,
                                      len(tracer.spans) - first))
            else:
                busy, a, f, w = run_pass(workload, op_times=op_times)
                untraced.append(busy)
            attempted, failed, wrong = attempted + a, failed + f, wrong + w
            done = perf_counter() - begin >= args.seconds
            if done and (tracer is None or traced):
                break

        report = {
            "attempted": attempted,
            "failed": failed,
            "wrong": wrong,
            "passes": len(untraced) + len(traced),
            # each operation at the upper quartile of its untraced passes: on a
            # shared host the contended speed is the steadier one (README)
            "wall_s": sum(upper_quartile(times) for times in op_times.values()),
            "pass_walls": untraced,
            "op_walls": op_times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            report["layers"] = layer_metrics(tracer_passes, untraced, traced, import_s)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", ops_log)
        say(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
