"""Benchmark of the trapdoor-channel toolkit: one run of one workload.

    python3 perfbench/run.py --workload {exact,certify,views,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src``.
Each run starts the workload in its own process (perfbench/worker.py), which
runs whole passes over the workload's operations for S seconds and checks
every output.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones from a traced run.  Details and
spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact", "certify", "views", "cli")
SETUP_SAMPLES = 7  # worker start-ups timed per run; setup_s is their median
DEADLINE_S = 170.0


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = str(min(int(current), cores) if current.isdigit() and int(current) > 0 else cores)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Worker:
    """One worker process whose protocol lines are read by a helper thread."""

    def __init__(self, argv: list[str], deadline: float) -> None:
        self.deadline = deadline
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("@@perfbench "):
                self.lines.put(line[len("@@perfbench "):].rstrip("\n"))
        self.lines.put(None)

    def next_message(self) -> str:
        """The next protocol line; raises if the worker exits or the deadline passes."""
        try:
            line = self.lines.get(timeout=max(self.deadline - perf_counter(), 0.0))
        except queue.Empty:
            raise RuntimeError("worker ran past the run's deadline") from None
        if line is None:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return line

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and its report (None for --setup-only)."""
    worker = Worker(argv, deadline)
    try:
        if worker.next_message() != "ready":
            raise RuntimeError("worker did not report ready")
        setup = perf_counter() - worker.start
        if "--setup-only" in argv:
            return setup, None
        return setup, json.loads(worker.next_message())
    finally:
        worker.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "trapdoor" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'trapdoor'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")

    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(argv + ["--setup-only"], deadline)[0])
        setup, report = run_worker(argv, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": report["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units.get(name) or tracing.unit_of(name)}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"result": result, "setup_samples": setups, "worker": report},
                                 indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
