#!/usr/bin/env python3
"""Self-test of compare.py on synthetic result sets (no files, no runs).

    python3 bench/relbench/compare_test.py
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {"latency_ms": ("lower", 0.10), "ops_per_s": ("higher", 0.10),
        "setup_s": ("lower", 0.25), "op_p50_ms": ("lower", 0.20)}


def record(seed, latency, ops, setup=1.0, failed=0, started_at=None,
           workload="w"):
    return {"workload": workload, "seed": seed, "trace": False,
            "started_at": seed if started_at is None else started_at,
            "attempted": 1000, "failed": failed,
            "metrics": {"latency_ms": {"value": latency, "unit": "ms"},
                        "ops_per_s": {"value": ops, "unit": "ops/s"},
                        "setup_s": {"value": setup, "unit": "s"},
                        "fail_frac": {"value": failed / 1000, "unit": "ratio"}}}


def runs(latency, ops, noise=0.01, seed=0, **kw):
    rng = random.Random(seed)
    return [record(s, latency * (1 + rng.uniform(-noise, noise)),
                   ops * (1 + rng.uniform(-noise, noise)), **kw)
            for s in range(1, 11)]


def verdicts(rows):
    return {(r["workload"], r["metric"]): r["verdict"] for r in rows}


class CompareTest(unittest.TestCase):
    def test_same_code_is_same(self):
        v = verdicts(compare.compare(runs(10, 100, seed=1), runs(10, 100, seed=2), SPEC))
        self.assertEqual(set(v.values()), {"SAME"})

    def test_slower_change_regresses(self):
        v = verdicts(compare.compare(runs(10, 100), runs(13, 100, seed=3), SPEC))
        self.assertEqual(v[("w", "latency_ms")], "REGRESSED")
        self.assertEqual(v[("w", "ops_per_s")], "SAME")

    def test_lower_throughput_regresses(self):
        v = verdicts(compare.compare(runs(10, 100), runs(10, 80, seed=3), SPEC))
        self.assertEqual(v[("w", "ops_per_s")], "REGRESSED")

    def test_consistent_gain_improves(self):
        v = verdicts(compare.compare(runs(10, 100), runs(8, 125, seed=4), SPEC))
        self.assertEqual(v[("w", "latency_ms")], "IMPROVED")
        self.assertEqual(v[("w", "ops_per_s")], "IMPROVED")

    def test_gain_with_more_failures_is_not_improved(self):
        change = runs(8, 125, seed=4, failed=1)
        v = verdicts(compare.compare(runs(10, 100), change, SPEC))
        self.assertNotEqual(v[("w", "latency_ms")], "IMPROVED")
        self.assertEqual(v[("w", "fail_frac")], "REGRESSED")

    def test_gain_needs_ten_pairs(self):
        v = verdicts(compare.compare(runs(10, 100)[:5], runs(8, 125, seed=4)[:5], SPEC))
        self.assertEqual(v[("w", "latency_ms")], "SAME")

    def test_noisy_metric_is_unresolved(self):
        v = verdicts(compare.compare(runs(10, 100, noise=0.4, seed=5),
                                     runs(10, 100, noise=0.4, seed=6), SPEC))
        self.assertEqual(v[("w", "latency_ms")], "UNRESOLVED")

    def test_setup_uses_its_own_bound(self):
        v = verdicts(compare.compare(runs(10, 100, setup=1.0),
                                     runs(10, 100, setup=1.2, seed=7), SPEC))
        self.assertEqual(v[("w", "setup_s")], "SAME")

    def test_unlisted_latency_class_takes_op_rule(self):
        for worse, verdict in ((1.15, "SAME"), (1.25, "REGRESSED")):
            parent, change = runs(10, 100), runs(10, 100, seed=8)
            for r in parent:
                r["metrics"]["write_p50_ms"] = {"value": 5.0, "unit": "ms"}
            for r in change:
                r["metrics"]["write_p50_ms"] = {"value": 5.0 * worse, "unit": "ms"}
            v = verdicts(compare.compare(parent, change, SPEC))
            self.assertEqual(v[("w", "write_p50_ms")], verdict)

    def test_alternation_is_counted(self):
        parent = runs(10, 100)
        change = [dict(r, started_at=r["seed"] + (0.5 if r["seed"] % 2 else -0.5))
                  for r in runs(10, 100, seed=9)]
        rows = compare.compare(parent, change, SPEC)
        self.assertEqual(rows[0]["parent_first"], 5)

    def test_agree(self):
        rows = compare.agree(runs(10, 100, seed=1), runs(10.2, 99, seed=2), SPEC)
        self.assertTrue(all(r["verdict"] == "AGREE" for r in rows))
        rows = compare.agree(runs(10, 100), runs(12, 100, seed=2), SPEC)
        self.assertEqual(verdicts(rows)[("w", "latency_ms")], "DISAGREE")
        rows = compare.agree(runs(10, 100), runs(10, 100, workload="x"), SPEC)
        self.assertIn("MISSING", {r["verdict"] for r in rows})


if __name__ == "__main__":
    unittest.main()
