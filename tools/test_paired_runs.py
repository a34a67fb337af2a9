#!/usr/bin/env python3
"""Tests for tools/paired_runs.py: its statistics, its verdicts, the run
order, and the stop on a bad run — with a stand-in runner, so no
benchmark runs.

    python3 tools/test_paired_runs.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import paired_runs as pr  # noqa: E402


def result(**metrics):
    """A good run's JSON line with the given metric values."""
    return json.dumps({
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    })


class Statistics(unittest.TestCase):
    def test_quartiles_interpolate(self):
        self.assertEqual(pr.quartiles([4, 1, 3, 2, 5]), (2, 3, 4))
        self.assertEqual(pr.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))
        self.assertEqual(pr.quartiles([7]), (7, 7, 7))

    def test_wins_follow_the_better_direction_and_ignore_ties(self):
        pairs = [(10, 12), (10, 8), (10, 10), (5, 6)]
        self.assertEqual(pr.wins(pairs, "higher"), 2)
        self.assertEqual(pr.wins(pairs, "lower"), 1)


class Verdicts(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_past_the_iqr(self):
        change = [x + 10 for x in self.parent]
        self.assertEqual(pr.verdict(self.parent, change, "higher", 0.25), "gain")
        # eight wins of ten is not a gain
        eight = change[:8] + self.parent[8:]
        self.assertEqual(pr.verdict(self.parent, eight, "higher", 0.25), "within bound")
        # every pair won, but by less than the parent's interquartile range
        small = [x + 0.5 for x in self.parent]
        self.assertEqual(pr.verdict(self.parent, small, "higher", 0.25), "within bound")

    def test_lower_is_better_metrics_gain_by_falling(self):
        change = [x - 10 for x in self.parent]
        self.assertEqual(pr.verdict(self.parent, change, "lower", 0.25), "gain")
        self.assertEqual(pr.verdict(self.parent, change, "higher", 0.25), "within bound")

    def test_worse_past_the_bound(self):
        change = [x * 0.7 for x in self.parent]
        self.assertEqual(pr.verdict(self.parent, change, "higher", 0.25), "worse")
        self.assertEqual(pr.verdict(self.parent, change, "higher", 0.35), "within bound")
        slower = [x * 1.3 for x in self.parent]
        self.assertEqual(pr.verdict(self.parent, slower, "lower", 0.25), "worse")

    def test_a_wide_parent_spread_is_unresolved(self):
        parent = [40, 60, 80, 100, 120, 140, 160, 100, 70, 130]
        change = [x + 1 for x in parent]
        self.assertEqual(pr.verdict(parent, change, "higher", 0.25), "unresolved")
        # unless every change run beats every parent run
        clear = [200 + x for x in range(10)]
        self.assertEqual(pr.verdict(parent, clear, "higher", 0.25), "gain")


class Runs(unittest.TestCase):
    def test_the_first_side_alternates(self):
        self.assertEqual([pr.order(i) for i in range(3)], [
            ("parent", "change"), ("change", "parent"), ("parent", "change"),
        ])

    def test_last_result_takes_only_a_correct_run(self):
        good = "header\nmetric x 1\n" + result(throughput_ops=5.0)
        self.assertEqual(pr.metric_value(pr.last_result(good), "throughput_ops"), 5.0)
        bad = json.loads(result(throughput_ops=5.0))
        for field, value in [("correct", False), ("failed", 1)]:
            broken = dict(bad, **{field: value})
            self.assertIsNone(pr.last_result(json.dumps(broken)))
        self.assertIsNone(pr.last_result(""))
        self.assertIsNone(pr.last_result(result(throughput_ops=5.0) + "\ntrailing"))

    def test_pairs_run_in_alternating_order_on_consecutive_seeds(self):
        calls = []

        def runner(side, workload, seed):
            calls.append((side, workload, seed))
            return result(throughput_ops=2.0 if side == "change" else 1.0)

        results = pr.run_pairs(runner, ["w"], 3, 40)
        self.assertEqual(calls, [
            ("parent", "w", 40), ("change", "w", 40),
            ("change", "w", 41), ("parent", "w", 41),
            ("parent", "w", 42), ("change", "w", 42),
        ])
        self.assertEqual(len(results["w"]["change"]), 3)
        table = pr.report(results, [{"name": "throughput_ops", "unit": "obj/s",
                                     "better": "higher", "bound": 0.25}])
        self.assertIn("| 3/3 | gain |", table)
        self.assertIn("throughput_ops change: 2, 2, 2", table)

    def test_a_bad_run_stops_the_comparison(self):
        calls = []

        def runner(side, workload, seed):
            calls.append(side)
            return "build failed" if side == "change" else result(throughput_ops=1.0)

        with self.assertRaises(RuntimeError):
            pr.run_pairs(runner, ["w"], 5, 0)
        self.assertEqual(calls, ["parent", "change"])

    def test_trace_runs_ask_run_py_for_spans(self):
        self.assertEqual(pr.command("w", 7, 40)[-2:], ["--trace", "0"])
        self.assertEqual(pr.command("w", 7, 40, trace=True)[-2:], ["--trace", "1"])
        self.assertEqual(pr.command("w", 7, 40)[2:8], [
            "--workload", "w", "--seed", "7", "--seconds", "40",
        ])

    def test_the_trace_table_lists_per_layer_medians_without_a_verdict(self):
        def runner(side, workload, seed):
            close = 300.0 if side == "change" else 600.0 + seed
            return result(**{"registry.close_ns_per_update": close,
                             "exec.drain_us_p99": 10.0})

        results = pr.run_pairs(runner, ["w"], 3, 1)
        layers = [
            {"name": "registry.close_ns_per_update", "unit": "ns", "better": "lower"},
            {"name": "exec.drain_us_p99", "unit": "us", "better": "lower"},
            {"name": "engine.wrt_tests", "unit": "count/obj", "better": "lower"},
        ]
        table = pr.report_layers(results, layers)
        self.assertIn("## w (3 traced pairs)", table)
        self.assertIn("| registry.close_ns_per_update (ns) | 602 [601.5, 602.5] "
                      "| 300 [300, 300] | 0.498 |", table)
        self.assertIn("| exec.drain_us_p99 (us) | 10 [10, 10] | 10 [10, 10] | 1.000 |",
                      table)
        # a metric the runs do not report is left out
        self.assertNotIn("engine.wrt_tests", table)
        for word in ("gain", "worse", "unresolved", "within bound", "wins"):
            self.assertNotIn(word, table)

    def test_the_scratch_directory_must_be_outside_the_repository(self):
        with self.assertRaises(SystemExit):
            pr.main(["--parent", "HEAD", "--scratch", str(pr.ROOT / "x"),
                     "--seed-base", "1"])


if __name__ == "__main__":
    unittest.main()
