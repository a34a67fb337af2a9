#!/usr/bin/env python3
"""Mutation tests for tools/validate_bench.py.

Each case takes a committed BENCH_*.json artifact, breaks one thing, and
asserts that the validator fails naming the rule or claim that owns it.
Every claim of every preset has a case.

    python3 tools/test_validate_bench.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import validate_bench as vb  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(preset):
    return json.loads((ROOT / f"BENCH_{preset}.json").read_text())


def top(doc, arm):
    """The arm's row at the largest query count."""
    return max(vb.rows(doc, arm=arm), key=lambda r: r["queries"])


def bottom(doc, arm):
    return min(vb.rows(doc, arm=arm), key=lambda r: r["queries"])


def drop(doc, keep):
    doc["records"] = [r for r in doc["records"] if keep(r)]


def one_rung(doc, arm):
    """Drops the arm's row at the largest query count."""
    gone = top(doc, arm)
    drop(doc, lambda r: r is not gone)


# --- one mutation per generic rule -----------------------------------


def missing_counters(doc):
    del doc["records"][0]["counters"]


def stale_counter(doc):
    """A counter `HubStats` no longer has."""
    doc["records"][0]["counters"]["timed_queries"] = 0


def stale_rebuild_counter(doc):
    """The isolated-count rebuild tally, gone with the isolated path."""
    doc["records"][0]["counters"]["count_group_rebuilds"] = 0


def nan_elapsed(doc):
    doc["records"][0]["elapsed_s"] = float("nan")


def zero_updates(doc):
    doc["records"][0]["updates"] = 0


def flipped_checksum(doc):
    seen = set()
    for r in doc["records"]:
        key = (r["mix"], r["queries"])
        if key in seen:
            r["checksum"] ^= 1
            return
        seen.add(key)
    raise AssertionError("no two records share a mix and query count")


# --- one mutation per claim ------------------------------------------


def async_without_sequential_mixed(doc):
    drop(doc, lambda r: (r["arm"], r["mix"]) != ("sequential", "mixed"))


def async_without_oversubscribed_rows(doc):
    drop(doc, lambda r: r["workers"] <= doc["host_cpus"])


def async_parked(doc):
    vb.rows(doc, arm="async")[-1]["counters"]["publisher_parks"] = 3


def async_over_ceiling(doc):
    for r in vb.rows(doc, arm="async", mix="count"):
        if r["workers"] == 1:
            r["metrics"]["allocs_per_object"] = vb.ALLOC_CEILING + 0.5


def checkpoint_without_async(doc):
    drop(doc, lambda r: r["arm"] != "restored-async")


def checkpoint_free_restore(doc):
    top(doc, "restored")["metrics"]["restore_ms"] = 0


def checkpoint_lost_class_hits(doc):
    """A restore that restarts `class_hits` at 0: the restored row then
    counts the second half's class hits alone."""
    counters = top(doc, "restored-async")["counters"]
    counters["class_hits"] //= 2


def fanout_zero_group_hits(doc):
    top(doc, "grouped")["counters"]["count_group_hits"] = 0


def fanout_linear_quiet(doc):
    lo, hi = bottom(doc, "grouped"), top(doc, "grouped")
    ladder = hi["queries"] / lo["queries"]
    hi["metrics"]["quiet_ns_per_object"] = lo["metrics"]["quiet_ns_per_object"] * ladder


def fanout_expensive_quiet(doc):
    iso = top(doc, "isolated")["metrics"]["quiet_ns_per_object"]
    top(doc, "grouped")["metrics"]["quiet_ns_per_object"] = 1.2 * vb.QUIET_FLOOR * iso


def floor_no_closes(doc):
    doc["records"][0]["metrics"]["closes"] = 0


def floor_zero_class_hits(doc):
    top(doc, "classed")["counters"]["class_hits"] = 0


def floor_cheap_isolated(doc):
    iso = top(doc, "isolated")["metrics"]["close_us_per_member"]
    top(doc, "classed")["metrics"]["close_us_per_member"] = iso / 2.9


def hotpath_over_ceiling(doc):
    top(doc, "pooled")["metrics"]["allocs_per_object"] = vb.ALLOC_CEILING + 0.01


def prune_gate_idle(doc):
    bottom(doc, "dominance+predicate")["counters"]["pruned"] = 0


def prune_low_rate(doc):
    counters = bottom(doc, "dominance")["counters"]
    judged = counters["admitted"] + counters["pruned"]
    counters["pruned"] = int(0.89 * judged)
    counters["admitted"] = judged - counters["pruned"]


def shared_zero_digest_hits(doc):
    top(doc, "shared")["counters"]["digest_hits"] = 0


# (preset, the rule or claim that must fail, mutation)
CASES = [
    ("async", "shape", missing_counters),
    ("hotpath", "shape", stale_counter),
    ("fanout", "shape", stale_rebuild_counter),
    ("floor", "finite", nan_elapsed),
    ("prune", "positive", zero_updates),
    ("async", "equivalence", flipped_checksum),
    ("checkpoint", "equivalence", flipped_checksum),
    ("fanout", "equivalence", flipped_checksum),
    ("floor", "equivalence", flipped_checksum),
    ("hotpath", "equivalence", flipped_checksum),
    ("prune", "equivalence", flipped_checksum),
    ("shared", "equivalence", flipped_checksum),
    ("async", "async_arms", async_without_sequential_mixed),
    ("async", "async_oversubscribed", async_without_oversubscribed_rows),
    ("async", "async_publisher_never_parks", async_parked),
    ("async", "async_alloc_ceiling", async_over_ceiling),
    ("checkpoint", "checkpoint_arms", checkpoint_without_async),
    ("checkpoint", "checkpoint_cost", checkpoint_free_restore),
    ("checkpoint", "checkpoint_counters", checkpoint_lost_class_hits),
    ("fanout", "fanout_arms", lambda d: one_rung(d, "grouped")),
    ("fanout", "fanout_grouped_sharing", fanout_zero_group_hits),
    ("fanout", "fanout_quiet_sublinear", fanout_linear_quiet),
    ("fanout", "fanout_quiet_floor", fanout_expensive_quiet),
    ("floor", "floor_arms", lambda d: one_rung(d, "classed")),
    ("floor", "floor_closes", floor_no_closes),
    ("floor", "floor_classes", floor_zero_class_hits),
    ("floor", "floor_memoized_close", floor_cheap_isolated),
    ("hotpath", "hotpath_arms", lambda d: drop(d, lambda r: r["arm"] != "pooled-async")),
    ("hotpath", "hotpath_alloc_ceiling", hotpath_over_ceiling),
    ("prune", "prune_arms", lambda d: one_rung(d, "dominance")),
    ("prune", "prune_gate_fires", prune_gate_idle),
    ("prune", "prune_rate_floor", prune_low_rate),
    ("shared", "shared_arms", lambda d: one_rung(d, "shared")),
    ("shared", "shared_digest_hits", shared_zero_digest_hits),
]


class ValidateBench(unittest.TestCase):
    def test_committed_artifacts_pass(self):
        for preset in vb.CLAIMS:
            with self.subTest(preset=preset):
                self.assertEqual(vb.validate(preset, load(preset)), [])

    def test_every_claim_has_a_mutation(self):
        covered = {rule for _, rule, _ in CASES}
        for preset, claims in vb.CLAIMS.items():
            for claim in claims:
                self.assertIn(claim.__name__, covered, f"{preset} claim without a case")

    def test_each_mutation_fails_its_rule(self):
        for preset, rule, mutate in CASES:
            with self.subTest(preset=preset, rule=rule):
                doc = load(preset)
                mutate(doc)
                failures = vb.validate(preset, doc)
                self.assertTrue(
                    any(f.startswith(f"{rule}: ") for f in failures),
                    f"{rule} did not fail; got {failures}",
                )

    def test_unknown_and_missing_artifacts_fail(self):
        quiet = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
            quiet
        ), contextlib.redirect_stderr(quiet):
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                Path("BENCH_floor.json").write_text(json.dumps(load("floor")))
                self.assertEqual(vb.main([]), 0)
                Path("BENCH_hub.json").write_text("{}")
                self.assertEqual(vb.main(["BENCH_floor.json"]), 1, "stray unknown artifact")
                Path("BENCH_hub.json").unlink()
                self.assertEqual(vb.main(["BENCH_floor.json", "BENCH_prune.json"]), 1, "missing")
            finally:
                os.chdir(cwd)


if __name__ == "__main__":
    unittest.main()
