"""Compare-mode verdicts of perfbench/run.py on synthetic run records.

Run with: python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import io
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402  (perfbench/run.py)

SPEC = {
    "workloads": [{"name": "w1", "why": "."}, {"name": "w2", "why": "."}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "parse_us", "unit": "us", "better": "lower"}],
}


def steady(center, n=10):
    """n values within +-1% of center: spread ~1%."""
    return [center * (1 + 0.01 * ((i % 5) - 2) / 2) for i in range(n)]


class Spread(unittest.TestCase):
    def test_iqr_share_of_median(self):
        self.assertAlmostEqual(run.spread([1, 2, 3, 4, 5]), 1.0)  # IQR 3 / median 3
        self.assertEqual(run.spread([7.0]), math.inf)
        self.assertEqual(run.spread([5.0] * 6), 0.0)


class Verdict(unittest.TestCase):
    def test_worse_than_bound_regresses(self):
        v, change = run.verdict(steady(100), steady(130), "lower", 0.1)
        self.assertEqual(v, "regressed")
        self.assertAlmostEqual(change, 0.30, places=2)

    def test_within_bound(self):
        self.assertEqual(run.verdict(steady(100), steady(105), "lower", 0.1)[0],
                         "within-bound")

    def test_better_by_more_than_the_parent_spread_improves(self):
        self.assertEqual(run.verdict(steady(100), steady(80), "lower", 0.1)[0],
                         "improved")

    def test_higher_is_better_flips_the_sign(self):
        v, change = run.verdict(steady(100), steady(80), "higher", 0.1)
        self.assertEqual(v, "regressed")
        self.assertAlmostEqual(change, 0.20, places=2)
        self.assertEqual(run.verdict(steady(100), steady(130), "higher", 0.1)[0],
                         "improved")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50, 150, 70, 130, 100, 90, 110, 60, 140, 100]
        self.assertEqual(run.verdict(noisy, steady(100), "lower", 0.1)[0],
                         "unresolved")
        # ...even when the medians barely differ: not "unchanged".
        self.assertEqual(run.verdict(steady(100), noisy, "lower", 0.1)[0],
                         "unresolved")

    def test_noisy_but_every_run_better_improves(self):
        base = [200, 260, 300, 220, 280]
        new = [100, 150, 120, 180, 110]
        self.assertEqual(run.verdict(base, new, "lower", 0.1)[0], "improved")

    def test_a_single_run_cannot_resolve(self):
        self.assertEqual(run.verdict([100], [101], "lower", 0.1)[0], "unresolved")


class CompareRecords(unittest.TestCase):
    def write(self, folder, workload, trace, seed, metrics, correct=True):
        rec = {"workload": workload, "trace": trace, "seed": seed, "git_rev": "r",
               "correct": correct,
               "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
        with open(Path(folder) / f"{workload}-{trace}-{seed}.json", "w",
                  encoding="utf-8") as f:
            json.dump(rec, f)

    def test_rows_per_workload_and_metric(self):
        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as new:
            for seed, (b, n) in enumerate(zip(steady(100, 6), steady(100, 6))):
                self.write(base, "w1", 0, seed, {"lat_ms": b, "rate": 50.0 + seed * 0.01})
                self.write(new, "w1", 0, seed, {"lat_ms": 1.5 * n, "rate": 50.0 + seed * 0.01})
                self.write(base, "w1", 1, seed, {"parse_us": 3.0})
                self.write(new, "w1", 1, seed, {"parse_us": 2.0})
            self.write(new, "w1", 0, 99, {"lat_ms": 1.0, "rate": 1.0}, correct=False)
            out = io.StringIO()
            rows = run.compare(base, new, spec=SPEC, out=out)
        by = {(r["workload"], r["metric"]): r for r in rows}
        self.assertEqual(by[("w1", "lat_ms")]["verdict"], "regressed")
        self.assertEqual(by[("w1", "rate")]["verdict"], "within-bound")
        self.assertEqual(by[("w1", "parse_us")]["verdict"], "info")
        self.assertAlmostEqual(by[("w1", "parse_us")]["change"], -1.0 / 3.0)
        self.assertNotIn("w2", {r["workload"] for r in rows})  # no records
        self.assertIn("regressed", out.getvalue())
        self.assertIn("skipping", out.getvalue())  # the failed run
        self.assertEqual(by[("w1", "lat_ms")]["runs"], (6, 6))


if __name__ == "__main__":
    unittest.main()
