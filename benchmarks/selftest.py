"""Self-tests of the benchmark: smoke runs of every workload, and negative
tests that prove the output checkers can fail.

    python3 benchmarks/selftest.py

Run from anywhere; it takes about a minute, most of it in the smoke runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from gauge_workbench import closedform, identities, rabi  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


class SmokeRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for entry in SPEC["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=entry["name"], trace=trace):
                    proc = bench(entry["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in SPEC[section]})

    def test_refuses_to_run_without_the_package_source(self):
        bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
        try:
            shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = bench("closed_scan", 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class CheckersCanFail(unittest.TestCase):
    def test_scan_row_with_perturbed_delta_is_rejected(self):
        xs = [0.05, 0.1875, 0.3]
        rows = [(closedform.gauge_pair(x), rabi.beta(x)) for x in xs]
        workloads.check_scan(xs, rows)
        g, b = rows[1]
        rows[1] = (dataclasses.replace(g, delta=g.delta + 1e-8), b)
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_scan(xs, rows)

    def test_alt_a_report_is_flagged(self):
        report = identities.build_report("strict", variant="alt-a")
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_report(report)
        workloads.negative_control("alt-a")()

    def test_negative_control_that_passes_counts_as_failure(self):
        with self.assertRaises(workloads.CheckFailed):
            workloads.negative_control("derived")()

    def test_pseudostate_check_rejects_a_stalled_sequence(self):
        partials = [-1.0] * 30      # error never shrinks toward Q = -2
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_pseudostate(-2.0, partials)

    def test_digest_mismatch_counts_as_failure(self):
        outputs = iter([1.0, 2.0])
        kind = workloads.OpKind("k", lambda: next(outputs),
                                lambda v: workloads.float_digest([v]))
        ledger = run.Ledger()
        self.assertIsNotNone(ledger.run(kind, kind.run))
        self.assertIsNone(ledger.run(kind, kind.run))
        self.assertEqual((ledger.attempted, ledger.failed), (2, 1))


class Reporting(unittest.TestCase):
    def test_importtime_counts_each_import_at_its_outermost_line(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | site",
            "import time:        50 |         50 |       scipy._lib",
            "import time:       200 |        250 |     scipy",
            "import time:       300 |        300 |     scipy.linalg",
            "import time:       400 |       1000 |   numpy_user",
            "import time:        10 |       1010 | gauge_workbench",
            "import time:         5 |          5 | gauge_workbench.cli",
        ])
        self.assertEqual(run.importtime_ms(stderr), (1.015, 0.55))

    def test_tail_leaves_ten_samples_above_it(self):
        self.assertIsNone(run.tail(list(range(20))))
        value, pct = run.tail(list(range(100)))
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for s in range(100) if s > value), 10)
        self.assertAlmostEqual(pct, 90.0)


if __name__ == "__main__":
    unittest.main()
