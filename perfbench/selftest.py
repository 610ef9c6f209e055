"""Self-test of the benchmark itself; finishes in well under a minute.

    python3 perfbench/selftest.py

Runs every workload at its tiny size through run.py (untraced and traced)
and checks the result line against BENCHMARK.json; feeds the exact workload
one corrupted inverse entry, which must count as one failed operation; and
runs run.py where the package source is missing, which must fail without a
result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def run_bench(root: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


class SelfTest(unittest.TestCase):
    def test_every_workload_at_tiny_size(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in bench["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench(ROOT, workload, trace, "--tiny")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stderr)
                    self.assertEqual(result["failed"], 0, out.stderr)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in bench[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_corrupted_inverse_is_a_failed_operation(self):
        from trapdoor import channel

        import worker
        import workloads

        original = channel.invert_channel_matrix

        def corrupted(P):
            inv = original(P)
            if (P.n, P.s0) == (3, 1):
                inv.int_rows[0][0] += 1
            return inv

        scratch = OUT / f"selftest-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        channel.invert_channel_matrix = corrupted
        try:
            _, attempted, failed, wrong = worker.run_pass(workloads.Exact(5, True, scratch))
        finally:
            channel.invert_channel_matrix = original
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertEqual((attempted, failed, wrong), (8, 1, 1))

    def test_fails_without_the_package_source(self):
        bare = OUT / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for f in HERE.glob("*.py"):
                shutil.copy(f, bare / "perfbench")
            out = run_bench(bare, "exact", 0)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
