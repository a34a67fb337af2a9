#!/usr/bin/env python3
"""Check that two revisions serve the bench-smoke presets identically.

    python3 tools/same_outputs.py PARENT [CHANGE] [--scratch DIR]

Exports both revisions (CHANGE defaults to `HEAD`) with
`paired_runs.export` and runs, in each tree, the seven preset commands of
CI's bench-smoke job at their CI sizes (`PRESETS`), writing each
`BENCH_<preset>.json` under the scratch directory. Then compares the two
sides' records. Rows are matched by their preset and their identifying
fields (`IDENTITY`); a row on one side only is a difference, and so is a
matched row whose `updates`, `checksum` or any counter differs, except
the scheduling counters (`SCHEDULING`), which depend on thread timing.

Exits 1 and lists every difference, or exits 0 when there is none. With
`--scratch DIR` the trees and their build directories stay in `DIR`
(outside the repository) for the next call; without it they go into a
temporary directory that is removed afterwards. Nothing is written inside
the repository.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from paired_runs import ROOT, export  # noqa: E402

# The bench-smoke presets, with the arguments CI runs them at.
PRESETS = {
    "shared": "--len 4000 --queries 400 --shards 1,2,4",
    "hotpath": "--len 8000 --queries 500 --shards 2 --repeats 2",
    "checkpoint": "--len 4000 --queries 400 --shards 4",
    "fanout": "--len 3000 --queries 2000 --shards 1,2",
    "floor": "--len 800 --queries 2000",
    "prune": "--len 4000 --queries 1000",
    "async": "--len 4000 --queries 500 --repeats 2",
}

# The record fields that say which row a record is.
IDENTITY = ("arm", "mix", "queries", "shards", "workers")

# Counters set by how the workers were scheduled, not by what they served.
SCHEDULING = {"publisher_parks", "queue_depth_hwm"}


def keyed(artifacts):
    """Every record of `{preset: artifact}`, by `(preset, identity, n)`.

    `n` numbers records that share a preset and identity, in file order,
    so repeated rows still match one to one.
    """
    rows = {}
    for preset, artifact in artifacts.items():
        seen = {}
        for record in artifact["records"]:
            identity = tuple(record.get(f) for f in IDENTITY)
            n = seen.get(identity, 0)
            seen[identity] = n + 1
            rows[(preset, identity, n)] = record
    return rows


def describe(key):
    preset, identity, n = key
    fields = " ".join(f"{f}={v}" for f, v in zip(IDENTITY, identity))
    return f"{preset} {fields}" + (f" #{n + 1}" if n else "")


def differences(parent, change):
    """Lines naming every difference between two `{preset: artifact}` maps."""
    old, new = keyed(parent), keyed(change)
    lines = []
    for key in sorted(old.keys() | new.keys(), key=repr):
        if key not in new:
            lines.append(f"{describe(key)}: only in the parent")
            continue
        if key not in old:
            lines.append(f"{describe(key)}: only in the change")
            continue
        a, b = old[key], new[key]
        for field in ("updates", "checksum"):
            if a.get(field) != b.get(field):
                lines.append(f"{describe(key)}: {field} {a.get(field)} -> {b.get(field)}")
        ca, cb = a.get("counters", {}), b.get("counters", {})
        for name in sorted((ca.keys() | cb.keys()) - SCHEDULING):
            if ca.get(name) != cb.get(name):
                lines.append(
                    f"{describe(key)}: counters.{name} {ca.get(name)} -> {cb.get(name)}"
                )
    return lines


def run_presets(tree, target, out):
    """Builds `experiments` in `tree` and runs every preset into `out`."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "-q", "-p", "sap-bench", "--bin", "experiments"]
    subprocess.run(build, cwd=tree, env=env, check=True)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for preset, args in PRESETS.items():
        path = out / f"BENCH_{preset}.json"
        print(f"{tree.name}: {preset}", file=sys.stderr, flush=True)
        cmd = [str(target / "release" / "experiments"), preset, *args.split(),
               "--json-out", str(path)]
        subprocess.run(cmd, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
        artifacts[preset] = json.loads(path.read_text())
    return artifacts


def compare(parent, change, scratch):
    """Runs both revisions in `scratch`; returns the difference lines."""
    sides = []
    for label, rev in (("parent", parent), ("change", change)):
        tree, target = export(rev, scratch, label)
        sides.append(run_presets(tree, target, scratch / f"out-{tree.name}"))
    return differences(*sides)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--scratch", type=Path,
                        help="keep the trees and builds here (outside the repository)")
    args = parser.parse_args(argv)
    if args.scratch is None:
        with tempfile.TemporaryDirectory() as scratch:
            lines = compare(args.parent, args.change, Path(scratch))
    else:
        scratch = args.scratch.resolve()
        if scratch == ROOT or ROOT in scratch.parents:
            parser.error("--scratch must be outside the repository")
        scratch.mkdir(parents=True, exist_ok=True)
        lines = compare(args.parent, args.change, scratch)
    for line in lines:
        print(line)
    if lines:
        print(f"same_outputs: {len(lines)} differences", file=sys.stderr)
        return 1
    print(f"same_outputs: every preset row of {args.change} matches {args.parent}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
