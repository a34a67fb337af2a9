#!/usr/bin/env python3
"""Compare two revisions on the declared benchmark by paired runs.

    python3 tools/paired_runs.py --parent REV [--change REV] --scratch DIR \\
        --seed-base B [--pairs N] [--seconds S] [--workload NAME ...] [--trace]

Exports each revision with `git archive` into the scratch directory and
runs `python3 perfbench/run.py` in each tree, one run at a time, each side
with its own `CARGO_TARGET_DIR` under the scratch directory. Pair `i` runs
both sides on seed `B + i`; the side that runs first alternates, parent
first in pair 0. Nothing is written inside the repository.

Stops at the first run whose last output line is not a JSON result with
`"correct": true` and `"failed": 0`. Otherwise prints, per workload and
per end-to-end metric of `BENCHMARK.json`: each side's median [q1, q3],
the change/parent ratio of the medians, the pairs the change won (by the
metric's `better` direction; ties count for neither side), a verdict, and
every run's value. The verdicts:

* `gain`: the change won at least 9 of every 10 pairs, and its median
  beats the parent's by more than the parent's interquartile range;
* `worse`: the change's median is worse than the parent's by more than
  the metric's `bound` (a fraction of the parent's median);
* `unresolved`: the parent's interquartile range is wider than `bound`
  (as a fraction of its median), and not every change run beats every
  parent run;
* `within bound`: none of the above.

With `--trace`, every run is traced (`run.py --trace 1`), and the table
lists instead each `per_layer` metric of `BENCHMARK.json` that the runs
report: each side's median [q1, q3] and the change/parent ratio of the
medians, with no wins and no verdict — per-layer metrics carry no bound,
and a traced run's end-to-end figures include the tracing.

Every run's JSON result is also appended to `DIR/runs.jsonl`.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(p):
        pos = p * (len(xs) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def beats(a, b, better):
    """Whether value `a` is strictly better than `b`."""
    return a > b if better == "higher" else a < b


def wins(pairs, better):
    """Pairs `(parent, change)` the change won; ties count for neither."""
    return sum(1 for p, c in pairs if beats(c, p, better))


def verdict(parent, change, better, bound):
    """The verdict for one metric over paired values (see the module docs)."""
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    won = wins(list(zip(parent, change)), better)
    gap = cmed - pmed if better == "higher" else pmed - cmed
    if 10 * won >= 9 * len(parent) and gap > pq3 - pq1:
        return "gain"
    worse_by = -gap / abs(pmed) if pmed else (math.inf if gap < 0 else 0.0)
    if worse_by > bound:
        return "worse"
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    if spread > bound and not all(beats(c, p, better) for c in change for p in parent):
        return "unresolved"
    return "within bound"


def order(pair):
    """The sides of pair `pair` in running order: the first side alternates."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def last_result(stdout):
    """The JSON result on the last non-empty line, if it is a good run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict):
        return None
    if result.get("correct") is not True or result.get("failed") != 0:
        return None
    return result


def metric_value(result, name):
    """An end-to-end metric's value in a run's JSON result."""
    metrics = result.get("metrics", result)
    value = metrics[name]
    return value["value"] if isinstance(value, dict) else value


def export(rev, scratch, label):
    """`git archive`s `rev` into `scratch/<label>-<sha>`; returns the tree."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    tree = scratch / f"{label}-{sha[:12]}"
    if not tree.exists():
        tree.mkdir(parents=True)
        archive = subprocess.Popen(
            ["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE
        )
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
    return tree, scratch / f"target-{label}-{sha[:12]}"


def command(workload, seed, seconds, trace=False):
    """The `run.py` command line of one run."""
    return [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]


def run_once(tree, target, workload, seed, seconds, trace=False):
    """One benchmark run in `tree`; returns its stdout."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = command(workload, seed, seconds, trace)
    run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return run.stdout


def run_pairs(runner, workloads, pairs, seed_base, log=None):
    """Runs every pair; returns {workload: {side: [result, ...]}}.

    `runner(side, workload, seed)` returns one run's stdout. Raises
    `RuntimeError` at the first run without a good result.
    """
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for workload in workloads:
        for pair in range(pairs):
            seed = seed_base + pair
            for side in order(pair):
                stdout = runner(side, workload, seed)
                result = last_result(stdout)
                if result is None:
                    tail = "\n".join(stdout.splitlines()[-5:])
                    raise RuntimeError(
                        f"{workload} seed {seed} ({side}): no correct result "
                        f"with failed 0; output ends:\n{tail}"
                    )
                results[workload][side].append(result)
                if log:
                    log(json.dumps({"workload": workload, "side": side,
                                    "seed": seed, "result": result}))
    return results


def fmt(x):
    if abs(x) >= 1000:
        return f"{x:,.0f}"
    return f"{x:.4g}"


def report(results, end_to_end):
    """The summary table, one block per workload."""
    lines = []
    for workload, sides in results.items():
        pairs = len(sides["parent"])
        lines.append(f"## {workload} ({pairs} pairs)")
        lines.append("| metric | parent median [q1, q3] | change median [q1, q3] "
                     "| change/parent | wins | verdict |")
        lines.append("|---|---|---|---|---|---|")
        runs = []
        for m in end_to_end:
            name = m["name"]
            values = {s: [metric_value(r, name) for r in sides[s]] for s in SIDES}
            (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(values[s]) for s in SIDES)
            ratio = cmed / pmed if pmed else math.inf
            won = wins(list(zip(values["parent"], values["change"])), m["better"])
            v = verdict(values["parent"], values["change"], m["better"], m["bound"])
            lines.append(
                f"| {name} ({m['unit']}) | {fmt(pmed)} [{fmt(pq1)}, {fmt(pq3)}] "
                f"| {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | {ratio:.3f} "
                f"| {won}/{pairs} | {v} |"
            )
            for s in SIDES:
                runs.append(f"{name} {s}: " + ", ".join(fmt(x) for x in values[s]))
        lines.append("")
        lines.extend(runs)
        lines.append("")
    return "\n".join(lines)


def report_layers(results, per_layer):
    """The traced summary table: per-layer medians and ratios, no verdict."""
    lines = []
    for workload, sides in results.items():
        pairs = len(sides["parent"])
        lines.append(f"## {workload} ({pairs} traced pairs)")
        lines.append("| metric | parent median [q1, q3] | change median [q1, q3] "
                     "| change/parent |")
        lines.append("|---|---|---|---|")
        for m in per_layer:
            name = m["name"]
            if not all(name in r.get("metrics", r) for s in SIDES for r in sides[s]):
                continue
            values = {s: [metric_value(r, name) for r in sides[s]] for s in SIDES}
            (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(values[s]) for s in SIDES)
            ratio = f"{cmed / pmed:.3f}" if pmed else "-"
            lines.append(
                f"| {name} ({m['unit']}) | {fmt(pmed)} [{fmt(pq1)}, {fmt(pq3)}] "
                f"| {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | {ratio} |"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed-base", required=True, type=int)
    parser.add_argument("--workload", action="append",
                        help="a workload run.py knows (default: every one "
                             "BENCHMARK.json declares)")
    parser.add_argument("--trace", action="store_true",
                        help="trace every run and report the per-layer "
                             "metrics instead of the end-to-end ones")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    scratch = args.scratch.resolve()
    if scratch == ROOT or ROOT in scratch.parents:
        parser.error("--scratch must be outside the repository")
    scratch.mkdir(parents=True, exist_ok=True)
    trees = {
        "parent": export(args.parent, scratch, "parent"),
        "change": export(args.change, scratch, "change"),
    }

    def runner(side, workload, seed):
        tree, target = trees[side]
        print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
        return run_once(tree, target, workload, seed, args.seconds, args.trace)

    with open(scratch / "runs.jsonl", "a") as log:
        def append(line):
            log.write(line + "\n")
            log.flush()

        try:
            results = run_pairs(runner, args.workload or names, args.pairs,
                                args.seed_base, append)
        except RuntimeError as err:
            print(f"paired_runs: {err}", file=sys.stderr)
            return 1
    if args.trace:
        print(report_layers(results, bench["per_layer"]))
    else:
        print(report(results, bench["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
