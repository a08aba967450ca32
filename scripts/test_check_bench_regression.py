#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py: list rows pair with their
baseline rows by identity, so reordering or dropping a row never
compares it against a different baseline row, and a real regression
still fails.

Run: python3 scripts/test_check_bench_regression.py
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression", os.path.join(_HERE, "check_bench_regression.py"))
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def row(workload, mode, wall):
    return {"workload": workload, "mode": mode, "wall_us_per_path": wall}


class RegressionGateTest(unittest.TestCase):
    def run_gate(self, baseline, current):
        """Write both documents as BENCH_x.json and run the gate; return
        (exit code, printed output)."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baselines")
            os.mkdir(base_dir)
            with open(os.path.join(base_dir, "BENCH_x.json"), "w") as f:
                json.dump(baseline, f)
            current_path = os.path.join(tmp, "BENCH_x.json")
            with open(current_path, "w") as f:
                json.dump(current, f)
            argv = ["check_bench_regression.py", "--baseline-dir", base_dir,
                    current_path]
            out = io.StringIO()
            old_argv = sys.argv
            sys.argv = argv
            try:
                with contextlib.redirect_stdout(out):
                    code = gate.main()
            finally:
                sys.argv = old_argv
            return code, out.getvalue()

    def test_reordered_rows_pair_by_identity(self):
        baseline = {"rows": [row("w", "fast", 100.0), row("w", "slow", 1000.0)]}
        current = {"rows": [row("w", "slow", 1000.0), row("w", "fast", 100.0)]}
        code, out = self.run_gate(baseline, current)
        self.assertEqual(code, 0, out)
        self.assertIn("rows[workload=w,mode=fast].wall_us_per_path", out)
        self.assertNotIn("FAIL", out)

    def test_removed_row_is_missing_not_mispaired(self):
        baseline = {"rows": [row("w", "a", 100.0), row("w", "b", 1000.0),
                             row("w", "c", 10.0)]}
        current = {"rows": [row("w", "a", 100.0), row("w", "c", 10.0)]}
        code, out = self.run_gate(baseline, current)
        self.assertEqual(code, 0, out)
        self.assertIn("missing BENCH_x.json:rows[workload=w,mode=b]", out)
        self.assertIn("rows[workload=w,mode=c].wall_us_per_path", out)

    def test_regression_behind_a_removed_row_still_fails(self):
        baseline = {"rows": [row("w", "a", 100.0), row("w", "b", 1000.0),
                             row("w", "c", 10.0)]}
        current = {"rows": [row("w", "a", 100.0), row("w", "c", 30.0)]}
        code, out = self.run_gate(baseline, current)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL BENCH_x.json:rows[workload=w,mode=c]", out)

    def test_real_2x_regression_fails(self):
        baseline = {"rows": [row("w", "a", 100.0), row("w", "b", 50.0)]}
        current = {"rows": [row("w", "b", 50.0), row("w", "a", 250.0)]}
        code, out = self.run_gate(baseline, current)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL BENCH_x.json:rows[workload=w,mode=a]", out)

    def test_name_keys_and_index_fallback(self):
        segments = [s for s, _ in gate.entry_keys(
            [{"name": "x"}, {"value": 1}, {"name": "x"}, 3])]
        self.assertEqual(segments, ["[name=x]", "[1]", "[2]", "[3]"])

    def test_higher_is_better_throughput_pairs_by_name(self):
        baseline = {"pipelines": [{"name": "p", "evals_per_sec": 100.0},
                                  {"name": "q", "evals_per_sec": 10.0}]}
        current = {"pipelines": [{"name": "q", "evals_per_sec": 10.0},
                                 {"name": "p", "evals_per_sec": 40.0}]}
        code, out = self.run_gate(baseline, current)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL BENCH_x.json:pipelines[name=p].evals_per_sec", out)


if __name__ == "__main__":
    unittest.main()
