#!/usr/bin/env python3
"""Validate the BENCH_*.json perf artifacts the experiments binary emits.

Usage:
    python3 tools/validate_bench.py BENCH_hub.json BENCH_fanout.json ...
    python3 tools/validate_bench.py            # every known artifact in cwd

Every artifact named on the command line must exist and parse; any
BENCH_*.json sitting in the working directory that this script does not
know is an error too (a new preset must teach the validator its schema
before its artifact can land). Each schema check re-asserts the
invariants the experiments binary enforced at generation time — so a
stale, truncated, or hand-edited artifact is caught even though a green
bench run already proved them once:

- every numeric field is finite (no NaN/inf smuggled through format!),
- update checksums agree wherever two paths claim equivalence,
- the shared digest plane and the count-group plane actually shared
  (positive hit counters),
- the hotpath allocation gate holds (pooled allocs/object <= pinned
  ceiling),
- the fanout quiet-path cost ratio stays clearly sub-linear in the
  query-count ladder,
- the floor preset's memoized slide close stays >= 3x cheaper per member
  than both pre-memoization arms at the ladder top, with checksum
  equality across all three and classed serving actually observed,
- the prune preset's admission control stays >= 3x faster than the
  knob-off arm at the ladder top while every arm emits byte-identical
  updates (pruning must be result-invisible to count as pruning).
"""

import json
import math
import sys
from pathlib import Path

FAILURES = []


def fail(artifact, message):
    FAILURES.append(f"{artifact}: {message}")


def check(cond, artifact, message):
    if not cond:
        fail(artifact, message)
    return cond


def assert_finite(artifact, value, path="$"):
    """Recursively reject NaN / inf anywhere in the document."""
    if isinstance(value, bool) or value is None:
        return
    if isinstance(value, (int, float)):
        check(math.isfinite(value), artifact, f"non-finite number at {path}: {value}")
    elif isinstance(value, dict):
        for k, v in value.items():
            assert_finite(artifact, v, f"{path}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            assert_finite(artifact, v, f"{path}[{i}]")


def require(artifact, obj, fields, where="run"):
    missing = [f for f in fields if f not in obj]
    check(not missing, artifact, f"{where} missing fields: {missing}")
    return not missing


def single_checksum(artifact, runs, label):
    sums = {r["checksum"] for r in runs}
    check(
        len(sums) == 1,
        artifact,
        f"{label}: paths claiming equivalence disagree on checksum: {sorted(sums)}",
    )


SCALING_RUN_FIELDS = [
    "hub",
    "shards",
    "elapsed_s",
    "objects_per_sec",
    "updates",
    "checksum",
    "digest_hits",
    "digest_rebuilds",
    "speedup_vs_sequential",
]


def validate_scaling(artifact, doc, bench):
    """BENCH_hub / BENCH_timed / BENCH_shared share one run schema."""
    check(doc.get("bench") == bench, artifact, f'expected bench "{bench}", got {doc.get("bench")!r}')
    runs = doc.get("runs", [])
    if not check(len(runs) > 0, artifact, "no runs"):
        return
    for r in runs:
        if not require(artifact, r, SCALING_RUN_FIELDS, f'run {r.get("hub")}/{r.get("shards")}'):
            return
        check(r["objects_per_sec"] > 0, artifact, f'{r["hub"]}({r["shards"]}): zero throughput')
        check(r["updates"] > 0, artifact, f'{r["hub"]}({r["shards"]}): zero updates')
        check(r["speedup_vs_sequential"] > 0, artifact, f'{r["hub"]}({r["shards"]}): zero speedup')
    # every run replays the same stream to the same queries: all
    # (update-count, checksum) pairs must be byte-identical
    check(len({r["updates"] for r in runs}) == 1, artifact, "runs disagree on update count")
    single_checksum(artifact, runs, "all runs")


def validate_hub(artifact, doc):
    validate_scaling(artifact, doc, "hub_scaling")


def validate_timed(artifact, doc):
    validate_scaling(artifact, doc, "timed_hub_scaling")


def validate_shared(artifact, doc):
    validate_scaling(artifact, doc, "shared_digest_plane")
    # the preset exists to prove sharing: every non-isolated run must
    # have served from the digest plane, and equally often
    shared = [r for r in doc.get("runs", []) if r.get("hub") != "isolated"]
    check(len(shared) > 0, artifact, "no shared runs")
    for r in shared:
        check(
            r.get("digest_hits", 0) > 0,
            artifact,
            f'{r["hub"]}({r["shards"]}): shared run with zero digest hits',
        )
    check(
        len({r.get("digest_hits") for r in shared}) == 1,
        artifact,
        "shared runs disagree on digest-hit count",
    )


def validate_hotpath(artifact, doc):
    check(doc.get("bench") == "hotpath", artifact, f'expected bench "hotpath", got {doc.get("bench")!r}')
    if not require(artifact, doc, ["alloc_ceiling", "runs"], "top level"):
        return
    runs = doc["runs"]
    by_path = {r.get("path"): r for r in runs}
    if not check("pooled" in by_path, artifact, f"need a pooled run, got {sorted(by_path)}"):
        return
    for r in runs:
        require(
            artifact,
            r,
            ["path", "shards", "elapsed_s", "objects_per_sec", "updates", "checksum"],
            f'run {r.get("path")}',
        )
    # the allocation gate, re-checked from the committed numbers
    pooled = by_path["pooled"]
    check(
        pooled.get("allocs_per_object") is not None,
        artifact,
        "pooled run lost its allocation count",
    )
    if pooled.get("allocs_per_object") is not None:
        check(
            pooled["allocs_per_object"] <= doc["alloc_ceiling"],
            artifact,
            f'pooled allocs/object {pooled["allocs_per_object"]} over ceiling {doc["alloc_ceiling"]}',
        )
    # pooled and pooled-sharded claim byte-identical output
    single_checksum(artifact, runs, "pooled/sharded")


def validate_checkpoint(artifact, doc):
    check(
        doc.get("bench") == "checkpoint_roundtrip",
        artifact,
        f'expected bench "checkpoint_roundtrip", got {doc.get("bench")!r}',
    )
    runs = doc.get("runs", [])
    if not check(len(runs) > 0, artifact, "no runs"):
        return
    hubs = {r.get("hub") for r in runs}
    check({"sequential", "sharded"} <= hubs, artifact, f"need sequential and sharded runs, got {sorted(hubs)}")
    for r in runs:
        if not require(
            artifact,
            r,
            ["hub", "shards", "queries", "checkpoint_bytes", "bytes_per_query", "checkpoint_ms", "restore_ms", "checksum"],
            f'run {r.get("hub")}/{r.get("queries")}',
        ):
            return
        label = f'{r["hub"]}({r["queries"]} queries)'
        check(r["checkpoint_bytes"] > 0, artifact, f"{label}: empty checkpoint")
        check(r["checkpoint_ms"] > 0, artifact, f"{label}: zero checkpoint latency")
        check(r["restore_ms"] > 0, artifact, f"{label}: zero restore latency")
    # different session counts see different update streams, but every
    # run at the same session count restored onto the same checksum
    by_queries = {}
    for r in runs:
        by_queries.setdefault(r["queries"], []).append(r)
    for q, group in by_queries.items():
        single_checksum(artifact, group, f"{q}-query runs")


FANOUT_RUN_FIELDS = [
    "hub",
    "shards",
    "queries",
    "elapsed_s",
    "objects_per_sec",
    "ns_per_object",
    "quiet_objects",
    "quiet_ns_per_object",
    "updates",
    "checksum",
    "count_groups",
    "count_group_hits",
    "count_group_rebuilds",
    "speedup_vs_isolated",
]


def validate_fanout(artifact, doc):
    check(doc.get("bench") == "fanout", artifact, f'expected bench "fanout", got {doc.get("bench")!r}')
    if not require(
        artifact,
        doc,
        [
            "queries",
            "geometry_classes",
            "ladder_factor",
            "cost_ratio_isolated",
            "cost_ratio_grouped",
            "quiet_cost_ratio_isolated",
            "quiet_cost_ratio_grouped",
            "runs",
        ],
        "top level",
    ):
        return
    runs = doc["runs"]
    if not check(len(runs) > 0, artifact, "no runs"):
        return
    rungs = {}
    for r in runs:
        if not require(artifact, r, FANOUT_RUN_FIELDS, f'run {r.get("hub")}/{r.get("queries")}'):
            return
        rungs.setdefault(r["queries"], {})[r["hub"]] = r
    classes = doc["geometry_classes"]
    top = max(rungs)
    for count, pair in sorted(rungs.items()):
        if not check(
            {"isolated", "grouped"} <= set(pair),
            artifact,
            f"{count}-query rung missing isolated or grouped run (got {sorted(pair)})",
        ):
            continue
        iso, grp = pair["isolated"], pair["grouped"]
        label = f"{count}-query rung"
        # the two serving paths must be observationally identical
        check(
            grp["updates"] == iso["updates"],
            artifact,
            f'{label}: grouped delivered {grp["updates"]} updates, isolated {iso["updates"]}',
        )
        single_checksum(artifact, list(pair.values()), label)
        # and the grouped path must actually have shared: every member
        # served from its geometry class's digest, never a private rebuild
        check(grp["count_group_hits"] > 0, artifact, f"{label}: grouped run never hit a count group")
        check(
            grp["count_group_rebuilds"] == 0,
            artifact,
            f'{label}: grouped run ticked {grp["count_group_rebuilds"]} isolated rebuilds',
        )
        check(
            grp["count_groups"] == classes,
            artifact,
            f'{label}: {grp["count_groups"]} count groups, mix has {classes} geometry classes',
        )
        # an isolated count session ticks one rebuild per update by
        # construction — anything else means the counters are fabricated
        check(
            iso["count_group_rebuilds"] == iso["updates"],
            artifact,
            f'{label}: isolated rebuilds {iso["count_group_rebuilds"]} != updates {iso["updates"]}',
        )
        if iso["quiet_ns_per_object"] is not None:
            check(iso["quiet_objects"] > 0, artifact, f"{label}: quiet cost without quiet objects")
    # the sharded cross-check run lands on the top rung's reference
    sharded = [r for r in runs if r["hub"] == "grouped-sharded"]
    check(len(sharded) > 0, artifact, "no grouped-sharded cross-check run")
    for r in sharded:
        check(
            r["checksum"] == rungs[top]["isolated"]["checksum"],
            artifact,
            f'grouped-sharded({r["shards"]}) diverged from the top-rung reference',
        )
        check(r["count_group_hits"] > 0, artifact, f'grouped-sharded({r["shards"]}): no count-group hits')
    # the tentpole claim: the quiet (no-slide-completed) ingest cost of
    # the grouped path is per-geometry-class, not per-query. Three
    # faces of it, from strongest to jitter-proofest: the grouped quiet
    # cost grows sub-linearly in the query ladder, slower than the
    # isolated path's (which buffers every object into every session),
    # and at the top rung it is a small fraction of the isolated cost
    # in absolute terms (the committed artifact shows ~0.1%; 5% leaves
    # room for CI-runner noise at smoke scale, not for a regression
    # back to per-query ingest).
    ladder = doc["ladder_factor"]
    grp_ratio = doc["quiet_cost_ratio_grouped"]
    if ladder >= 2.0:
        check(
            grp_ratio < ladder,
            artifact,
            f"grouped quiet cost grew {grp_ratio}x over a {ladder}x ladder — not sub-linear",
        )
        check(
            grp_ratio < doc["quiet_cost_ratio_isolated"],
            artifact,
            f'grouped quiet ratio {grp_ratio}x not below isolated {doc["quiet_cost_ratio_isolated"]}x',
        )
    top_pair = rungs[top]
    if {"isolated", "grouped"} <= set(top_pair):
        iso_q = top_pair["isolated"]["quiet_ns_per_object"]
        grp_q = top_pair["grouped"]["quiet_ns_per_object"]
        if iso_q is not None and grp_q is not None:
            check(
                grp_q <= 0.05 * iso_q,
                artifact,
                f"top rung: grouped quiet cost {grp_q} ns/object is not far below isolated {iso_q}",
            )


ASYNC_RUN_FIELDS = [
    "hub",
    "shards",
    "workers",
    "elapsed_s",
    "objects_per_sec",
    "updates",
    "checksum",
    "publisher_parks",
    "speedup_vs_sequential",
]


FLOOR_RUN_FIELDS = [
    "arm",
    "queries",
    "elapsed_s",
    "objects_per_sec",
    "closes",
    "close_us_per_member",
    "quiet_objects",
    "quiet_ns_per_object",
    "updates",
    "checksum",
    "result_classes",
    "class_hits",
]


def validate_floor(artifact, doc):
    check(doc.get("bench") == "floor", artifact, f'expected bench "floor", got {doc.get("bench")!r}')
    if not require(
        artifact,
        doc,
        [
            "queries",
            "geometry",
            "geometry_classes",
            "top_queries",
            "improvement_vs_isolated",
            "improvement_vs_unclassed",
            "runs",
        ],
        "top level",
    ):
        return
    runs = doc["runs"]
    if not check(len(runs) > 0, artifact, "no runs"):
        return
    rungs = {}
    for r in runs:
        if not require(artifact, r, FLOOR_RUN_FIELDS, f'run {r.get("arm")}/{r.get("queries")}'):
            return
        check(
            r["close_us_per_member"] > 0,
            artifact,
            f'{r["arm"]}({r["queries"]}): zero slide-close cost',
        )
        check(r["closes"] > 0, artifact, f'{r["arm"]}({r["queries"]}): no closed slides')
        rungs.setdefault(r["queries"], {})[r["arm"]] = r
    for count, arms in sorted(rungs.items()):
        label = f"{count}-query rung"
        if not check(
            {"isolated", "unclassed", "classed"} <= set(arms),
            artifact,
            f"{label} missing an arm (got {sorted(arms)})",
        ):
            continue
        # the three serving shapes must be observationally identical
        check(
            len({r["updates"] for r in arms.values()}) == 1,
            artifact,
            f"{label}: arms disagree on update count",
        )
        single_checksum(artifact, list(arms.values()), label)
        # classed serving must actually have happened — and have been
        # impossible on the knob-off arm
        check(
            arms["classed"]["class_hits"] > 0,
            artifact,
            f"{label}: classed run never served a memoized close",
        )
        check(
            arms["classed"]["result_classes"] == doc["geometry_classes"],
            artifact,
            f'{label}: {arms["classed"]["result_classes"]} result classes, '
            f'geometry has {doc["geometry_classes"]}',
        )
        check(
            arms["unclassed"]["class_hits"] == 0,
            artifact,
            f'{label}: knob-off run claims {arms["unclassed"]["class_hits"]} memoized closes',
        )
    # the headline claim: at the ladder top, the memoized close is >= 3x
    # cheaper per member than both pre-memoization shapes
    top = doc["top_queries"]
    check(top in rungs, artifact, f"top_queries {top} has no runs")
    for field in ("improvement_vs_isolated", "improvement_vs_unclassed"):
        check(
            doc[field] >= 3.0,
            artifact,
            f"{field} {doc[field]} < 3.0 — the result-class tier stopped paying for itself",
        )
    if top in rungs and {"isolated", "unclassed", "classed"} <= set(rungs[top]):
        arms = rungs[top]
        for field, arm in (
            ("improvement_vs_isolated", "isolated"),
            ("improvement_vs_unclassed", "unclassed"),
        ):
            derived = arms[arm]["close_us_per_member"] / arms["classed"]["close_us_per_member"]
            check(
                abs(derived - doc[field]) <= 0.05 * derived,
                artifact,
                f"{field} {doc[field]} does not match the top-rung runs ({derived:.3f})",
            )


PRUNE_RUN_FIELDS = [
    "arm",
    "queries",
    "elapsed_s",
    "objects_per_sec",
    "updates",
    "checksum",
    "admitted",
    "pruned",
    "prune_rate",
]

PRUNE_ARMS = {"off", "dominance", "dominance+predicate"}


def validate_prune(artifact, doc):
    check(doc.get("bench") == "prune", artifact, f'expected bench "prune", got {doc.get("bench")!r}')
    if not require(
        artifact,
        doc,
        [
            "queries",
            "len",
            "sd_base",
            "top_queries",
            "speedup_dominance",
            "speedup_predicate",
            "runs",
        ],
        "top level",
    ):
        return
    runs = doc["runs"]
    if not check(len(runs) > 0, artifact, "no runs"):
        return
    rungs = {}
    for r in runs:
        if not require(artifact, r, PRUNE_RUN_FIELDS, f'run {r.get("arm")}/{r.get("queries")}'):
            return
        label = f'{r["arm"]}({r["queries"]})'
        check(r["objects_per_sec"] > 0, artifact, f"{label}: zero throughput")
        check(r["updates"] > 0, artifact, f"{label}: zero updates")
        if r["arm"] == "off":
            # the reference arm must never drop an object: pruned stays
            # zero by construction, so a nonzero count means the knob
            # leaked into the baseline
            check(r["pruned"] == 0, artifact, f"{label}: knob-off run claims pruned objects")
            check(r["prune_rate"] == 0.0, artifact, f"{label}: knob-off run claims a prune rate")
        else:
            # a pruning arm that never pruned proves nothing — the
            # preset's skewed scores guarantee dominated arrivals
            check(r["pruned"] > 0, artifact, f"{label}: pruning arm never pruned")
            check(r["prune_rate"] > 0.0, artifact, f"{label}: zero prune rate on a pruning arm")
        rungs.setdefault(r["queries"], {})[r["arm"]] = r
    for count, arms in sorted(rungs.items()):
        label = f"{count}-query rung"
        if not check(
            PRUNE_ARMS <= set(arms),
            artifact,
            f"{label} missing an arm (got {sorted(arms)})",
        ):
            continue
        # pruning must be result-invisible: same update stream, same
        # checksum, on every arm of every rung
        check(
            len({r["updates"] for r in arms.values()}) == 1,
            artifact,
            f"{label}: arms disagree on update count",
        )
        single_checksum(artifact, list(arms.values()), label)
    # the headline claim: at the ladder top, admission control is >= 3x
    # faster than publishing every object into every group
    top = doc["top_queries"]
    check(top in rungs, artifact, f"top_queries {top} has no runs")
    for field in ("speedup_dominance", "speedup_predicate"):
        check(
            doc[field] >= 3.0,
            artifact,
            f"{field} {doc[field]} < 3.0 — admission control stopped paying for itself",
        )
    if top in rungs and PRUNE_ARMS <= set(rungs[top]):
        arms = rungs[top]
        for field, arm in (
            ("speedup_dominance", "dominance"),
            ("speedup_predicate", "dominance+predicate"),
        ):
            derived = arms[arm]["objects_per_sec"] / arms["off"]["objects_per_sec"]
            check(
                abs(derived - doc[field]) <= 0.05 * derived,
                artifact,
                f"{field} {doc[field]} does not match the top-rung runs ({derived:.3f})",
            )


def validate_async(artifact, doc):
    check(doc.get("bench") == "async_hub", artifact, f'expected bench "async_hub", got {doc.get("bench")!r}')
    if not require(
        artifact,
        doc,
        ["host_cpus", "logical_shards", "alloc_ceiling", "allocs_per_object", "runs"],
        "top level",
    ):
        return
    runs = doc.get("runs", [])
    if not check(len(runs) > 0, artifact, "no runs"):
        return
    by_hub = {}
    for r in runs:
        if not require(artifact, r, ASYNC_RUN_FIELDS, f'run {r.get("hub")}/{r.get("workers")}w'):
            return
        label = f'{r["hub"]}({r["shards"]} shards, {r["workers"]} workers)'
        check(r["objects_per_sec"] > 0, artifact, f"{label}: zero throughput")
        check(r["updates"] > 0, artifact, f"{label}: zero updates")
        check(r["publisher_parks"] >= 0, artifact, f"{label}: negative park count")
        by_hub.setdefault(r["hub"], []).append(r)
    if not check(
        {"sequential", "async"} <= set(by_hub),
        artifact,
        f"need sequential and async runs, got {sorted(by_hub)}",
    ):
        return
    # every run replays the same stream to the same queries
    check(len({r["updates"] for r in runs}) == 1, artifact, "runs disagree on update count")
    single_checksum(artifact, runs, "all runs")
    # the preset exists to prove oversubscribed serving: there must be a
    # run with more logical shards than cores and one with more workers
    # than cores, and neither may have stalled the publisher
    cpus = doc["host_cpus"]
    check(
        doc["logical_shards"] > cpus,
        artifact,
        f'logical_shards {doc["logical_shards"]} not above host_cpus {cpus}',
    )
    async_runs = by_hub["async"]
    check(
        any(r["shards"] > cpus for r in async_runs),
        artifact,
        "no async run with shards > host_cpus",
    )
    check(
        any(r["workers"] > cpus for r in async_runs),
        artifact,
        "no async run with workers > host_cpus",
    )
    for r in async_runs:
        check(
            r["publisher_parks"] == 0,
            artifact,
            f'async({r["workers"]}w) parked the publisher {r["publisher_parks"]} times at bench chunking',
        )
    # the quiet-path allocation gate, re-checked from committed numbers
    check(
        doc["allocs_per_object"] <= doc["alloc_ceiling"],
        artifact,
        f'allocs/object {doc["allocs_per_object"]} over ceiling {doc["alloc_ceiling"]}',
    )


KNOWN = {
    "BENCH_hub.json": validate_hub,
    "BENCH_timed.json": validate_timed,
    "BENCH_shared.json": validate_shared,
    "BENCH_hotpath.json": validate_hotpath,
    "BENCH_checkpoint.json": validate_checkpoint,
    "BENCH_fanout.json": validate_fanout,
    "BENCH_floor.json": validate_floor,
    "BENCH_async.json": validate_async,
    "BENCH_prune.json": validate_prune,
}


def main(argv):
    names = argv or sorted(p.name for p in Path(".").glob("BENCH_*.json"))
    if not names:
        print("validate_bench: no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    # a preset nobody taught the validator about must not land silently,
    # whether it was named on the command line or just left in the tree
    named = {Path(n).name for n in names}
    for stray in sorted(p.name for p in Path(".").glob("BENCH_*.json")):
        if stray not in KNOWN and stray not in named:
            fail(stray, "unknown artifact — add its schema to tools/validate_bench.py")
    for name in names:
        base = Path(name).name
        if base not in KNOWN:
            fail(name, "unknown artifact — add its schema to tools/validate_bench.py")
            continue
        path = Path(name)
        if not path.is_file():
            fail(name, "missing artifact")
            continue
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            fail(name, f"unreadable: {e}")
            continue
        assert_finite(name, doc)
        KNOWN[base](name, doc)
        if not any(f.startswith(f"{name}:") for f in FAILURES):
            print(f"ok: {name}")
    if FAILURES:
        for f in FAILURES:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"validate_bench: {len(names)} artifact(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
