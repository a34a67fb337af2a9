#!/usr/bin/env python3
"""Tests for tools/same_outputs.py: how it matches rows and what it
reports as a difference, on hand-written records — no cargo runs.

    python3 tools/test_same_outputs.py
"""

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import same_outputs as so  # noqa: E402


def record(arm="hub", shards=1, updates=10, checksum=7, **counters):
    """One preset row; `counters` override the defaults."""
    base = {"digest_hits": 4, "digest_rebuilds": 1, "class_hits": 2,
            "publisher_parks": 0, "queue_depth_hwm": 3}
    base.update(counters)
    return {"arm": arm, "mix": "count", "queries": 8, "shards": shards,
            "workers": 1, "objects": 100, "objects_per_sec": 1e5,
            "updates": updates, "checksum": checksum, "counters": base}


def artifacts(*records, preset="shared"):
    return {preset: {"preset": preset, "records": list(records)}}


class Matching(unittest.TestCase):
    def test_equal_runs_have_no_differences(self):
        runs = artifacts(record(), record(shards=2))
        self.assertEqual(so.differences(runs, copy.deepcopy(runs)), [])

    def test_rows_match_by_identity_not_position(self):
        parent = artifacts(record(shards=1, checksum=1), record(shards=2, checksum=2))
        change = artifacts(record(shards=2, checksum=2), record(shards=1, checksum=1))
        self.assertEqual(so.differences(parent, change), [])

    def test_repeated_identities_match_in_file_order(self):
        parent = artifacts(record(checksum=1), record(checksum=2))
        self.assertEqual(so.differences(parent, copy.deepcopy(parent)), [])
        swapped = artifacts(record(checksum=2), record(checksum=1))
        self.assertEqual(len(so.differences(parent, swapped)), 2)

    def test_throughput_is_not_compared(self):
        change = artifacts(record())
        change["shared"]["records"][0]["objects_per_sec"] = 1.0
        self.assertEqual(so.differences(artifacts(record()), change), [])


class Differences(unittest.TestCase):
    def test_updates_and_checksum_differences_are_listed(self):
        lines = so.differences(artifacts(record()), artifacts(record(updates=11, checksum=8)))
        self.assertEqual(len(lines), 2)
        self.assertIn("updates 10 -> 11", lines[0])
        self.assertIn("checksum 7 -> 8", lines[1])
        self.assertTrue(lines[0].startswith("shared arm=hub mix=count queries=8"))

    def test_every_counter_but_the_scheduling_ones_is_compared(self):
        split = artifacts(record(digest_hits=3, digest_rebuilds=2))
        lines = so.differences(artifacts(record()), split)
        self.assertEqual(len(lines), 2)
        self.assertIn("counters.digest_hits 4 -> 3", lines[0])
        self.assertIn("counters.digest_rebuilds 1 -> 2", lines[1])
        timing = artifacts(record(publisher_parks=5, queue_depth_hwm=9))
        self.assertEqual(so.differences(artifacts(record()), timing), [])

    def test_a_counter_on_one_side_only_differs(self):
        extra = artifacts(record(pruned=0))
        self.assertEqual(len(so.differences(artifacts(record()), extra)), 1)

    def test_a_row_on_one_side_only_differs(self):
        both = artifacts(record(), record(shards=2))
        one = artifacts(record())
        self.assertEqual(so.differences(both, one),
                         ["shared arm=hub mix=count queries=8 shards=2 workers=1: "
                          "only in the parent"])
        self.assertEqual(len(so.differences(one, both)), 1)
        self.assertIn("only in the change", so.differences(one, both)[0])

    def test_a_preset_on_one_side_only_differs_row_by_row(self):
        parent = {**artifacts(record()), **artifacts(record(), record(shards=2),
                                                     preset="floor")}
        lines = so.differences(parent, artifacts(record()))
        self.assertEqual(len(lines), 2)
        self.assertTrue(all(line.startswith("floor ") for line in lines))


class Presets(unittest.TestCase):
    def test_the_presets_run_at_their_ci_sizes(self):
        ci = (so.ROOT / ".github" / "workflows" / "ci.yml").read_text()
        flat = " ".join(ci.replace("\\\n", " ").split())
        self.assertEqual(len(so.PRESETS), 7)
        for preset, args in so.PRESETS.items():
            self.assertIn(f"experiments -- {preset} {args} --json-out", flat, preset)


if __name__ == "__main__":
    unittest.main()
