#!/usr/bin/env python3
"""Validate the BENCH_*.json artifacts the experiments binary writes.

Usage:
    python3 tools/validate_bench.py                         # every BENCH_*.json in cwd
    python3 tools/validate_bench.py BENCH_floor.json ...    # the named artifacts

Every artifact has one shape, `{preset, host_cpus, params, records}`, and
every record is

    {arm, mix, queries, shards, workers, objects, elapsed_s,
     objects_per_sec, ns_per_object, updates, checksum, counters, metrics}

where `counters` holds every HubStats field and `metrics` maps names to
numbers or null. Artifacts carry measurements only; the checks live here,
in two layers:

- the generic rules, for every artifact: the shape above, finite numbers,
  positive throughput and updates, and equivalence — records with equal
  (mix, queries) replayed the same stream to the same queries, so they
  must agree on updates and checksum;
- one claim list per preset. A claim computes its ratios from the records
  and owns its bound.

A BENCH_*.json in the working directory without a claim list fails, and
so does a named artifact that is missing. Every failure names its rule or
claim.
"""

import json
import math
import sys
from pathlib import Path

RECORD_FIELDS = (
    "arm",
    "mix",
    "queries",
    "shards",
    "workers",
    "objects",
    "elapsed_s",
    "objects_per_sec",
    "ns_per_object",
    "updates",
    "checksum",
    "counters",
    "metrics",
)
INT_FIELDS = ("queries", "shards", "workers", "objects", "updates", "checksum")
FLOAT_FIELDS = ("elapsed_s", "objects_per_sec", "ns_per_object")
COUNTERS = (
    "queries",
    "shared_queries",
    "digest_groups",
    "digest_hits",
    "digest_rebuilds",
    "grouped_queries",
    "count_groups",
    "count_group_hits",
    "admitted",
    "pruned",
    "result_classes",
    "class_hits",
    "publisher_parks",
    "queue_depth_hwm",
)

# the bounds the claims own
ALLOC_CEILING = 90.0  # steady-state allocations per published object
MIN_IMPROVEMENT = 3.0  # floor top-rung ratio
MIN_PRUNE_RATE = 0.9  # prune: pruned / (admitted + pruned), every row
QUIET_FLOOR = 0.05  # fanout top-rung grouped quiet cost vs isolated


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def label(r):
    return f'{r["arm"]}[{r["mix"]}, {r["queries"]} queries, {r["shards"]}x{r["workers"]}]'


def rows(doc, arm=None, mix=None):
    return [
        r
        for r in doc["records"]
        if (arm is None or r["arm"] == arm) and (mix is None or r["mix"] == mix)
    ]


def rungs(doc):
    """queries -> {arm: record}, for presets with one row per arm and rung."""
    out = {}
    for r in doc["records"]:
        out.setdefault(r["queries"], {})[r["arm"]] = r
    return out


def missing_arms(doc, arms):
    for queries, present in sorted(rungs(doc).items()):
        lost = sorted(set(arms) - set(present))
        if lost:
            yield f"{queries}-query rung lacks {lost}"


def metric(r, name):
    """A metric that must be present and non-null."""
    v = r["metrics"][name]
    if v is None:
        raise ValueError(f"{label(r)} has no {name}")
    return v


# --- generic rules ------------------------------------------------------


def shape(doc, preset):
    if not isinstance(doc, dict):
        yield "artifact is not a JSON object"
        return
    keys = sorted(doc)
    if keys != sorted(("preset", "host_cpus", "params", "records")):
        yield f"top-level keys {keys}"
        return
    if doc["preset"] != preset:
        yield f'preset {doc["preset"]!r} in a file named for {preset!r}'
    if not is_int(doc["host_cpus"]) or doc["host_cpus"] < 1:
        yield f'host_cpus {doc["host_cpus"]!r}'
    if not isinstance(doc["params"], dict):
        yield "params is not an object"
    records = doc["records"]
    if not isinstance(records, list) or not records:
        yield "no records"
        return
    for i, r in enumerate(records):
        where = f"record {i}"
        if not isinstance(r, dict) or sorted(r) != sorted(RECORD_FIELDS):
            yield f"{where}: fields {sorted(r) if isinstance(r, dict) else r!r}"
            continue
        for field in ("arm", "mix"):
            if not isinstance(r[field], str) or not r[field]:
                yield f"{where}: {field} {r[field]!r}"
        for field in INT_FIELDS:
            if not is_int(r[field]) or r[field] < 0:
                yield f"{where}: {field} {r[field]!r} is not a count"
        for field in FLOAT_FIELDS:
            if not is_number(r[field]):
                yield f"{where}: {field} {r[field]!r} is not a number"
        counters = r["counters"]
        if not isinstance(counters, dict) or sorted(counters) != sorted(COUNTERS):
            yield f"{where}: counters {sorted(counters) if isinstance(counters, dict) else counters!r}"
        elif not all(is_int(v) and v >= 0 for v in counters.values()):
            yield f"{where}: a counter is not a count"
        metrics = r["metrics"]
        if not isinstance(metrics, dict) or not all(
            v is None or is_number(v) for v in metrics.values()
        ):
            yield f"{where}: metrics must map names to numbers or null"


def finite(doc, path="$"):
    if is_number(doc):
        if not math.isfinite(doc):
            yield f"non-finite number at {path}: {doc}"
    elif isinstance(doc, dict):
        for k, v in doc.items():
            yield from finite(v, f"{path}.{k}")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from finite(v, f"{path}[{i}]")


def positive(doc):
    for r in doc["records"]:
        for field in ("objects", "elapsed_s", "objects_per_sec", "updates"):
            if not r[field] > 0:
                yield f"{label(r)}: {field} is {r[field]}"


def equivalence(doc):
    first = {}
    for r in doc["records"]:
        key = (r["mix"], r["queries"])
        ref = first.setdefault(key, r)
        if (r["updates"], r["checksum"]) != (ref["updates"], ref["checksum"]):
            yield (
                f'{label(r)} delivered {r["updates"]} updates with checksum {r["checksum"]}, '
                f'{ref["arm"]} {ref["updates"]} with {ref["checksum"]}'
            )


# --- shared: the digest plane, sequential and async ---------------------


def shared_arms(doc):
    yield from missing_arms(doc, {"shared", "shared-async"})


def shared_digest_hits(doc):
    """Every row served slides from group digests, equally often."""
    for r in doc["records"]:
        if r["counters"]["digest_hits"] <= 0:
            yield f"{label(r)}: zero digest hits"
    if len({r["counters"]["digest_hits"] for r in doc["records"]}) > 1:
        yield "shared rows disagree on digest hits"


# --- hotpath: the allocation gate ---------------------------------------


def hotpath_arms(doc):
    yield from missing_arms(doc, {"pooled", "pooled-async"})


def hotpath_alloc_ceiling(doc):
    for r in rows(doc, arm="pooled"):
        apo = metric(r, "allocs_per_object")
        if apo > ALLOC_CEILING:
            yield f"{label(r)}: {apo} allocations per object, ceiling {ALLOC_CEILING}"


# --- checkpoint: round trips land on the uninterrupted run --------------


def checkpoint_arms(doc):
    yield from missing_arms(doc, {"uninterrupted", "restored"})
    if not rows(doc, arm="restored-async"):
        yield "no restored-async row"


def checkpoint_cost(doc):
    for r in doc["records"]:
        if r["arm"].startswith("restored"):
            for name in ("checkpoint_bytes", "checkpoint_ms", "restore_ms"):
                if not metric(r, name) > 0:
                    yield f"{label(r)}: {name} is {r['metrics'][name]}"


# --- fanout: the count-group plane's sub-linear ingest ------------------
# The `isolated` arm serves standalone sessions, the baseline without
# sharing; its counters report the query count only.


def fanout_arms(doc):
    yield from missing_arms(doc, {"isolated", "grouped"})
    if not rows(doc, arm="grouped-async"):
        yield "no grouped-async row"


def fanout_grouped_sharing(doc):
    classes = doc["params"]["geometry_classes"]
    for r in doc["records"]:
        if r["arm"].startswith("grouped"):
            c = r["counters"]
            if c["count_group_hits"] <= 0:
                yield f"{label(r)}: never hit a count group"
            if c["count_groups"] != classes:
                yield f'{label(r)}: {c["count_groups"]} count groups, the mix has {classes} geometries'


def quiet_ns(r):
    if not metric(r, "quiet_objects") > 0:
        raise ValueError(f"{label(r)} published no quiet objects")
    return metric(r, "quiet_ns_per_object")


def quiet_costs(doc):
    """(queries, isolated quiet ns/object, grouped quiet ns/object) per rung."""
    out = []
    for queries, arms in sorted(rungs(doc).items()):
        out.append((queries, quiet_ns(arms["isolated"]), quiet_ns(arms["grouped"])))
    return out


def fanout_quiet_sublinear(doc):
    """The grouped quiet cost grows slower than the ladder and than isolated's."""
    costs = quiet_costs(doc)
    (q_lo, iso_lo, grp_lo), (q_hi, iso_hi, grp_hi) = costs[0], costs[-1]
    ladder = q_hi / q_lo
    if ladder >= 2.0:
        grp_ratio, iso_ratio = grp_hi / grp_lo, iso_hi / iso_lo
        if not grp_ratio < ladder:
            yield f"grouped quiet cost grew {grp_ratio:.3f}x over a {ladder:.1f}x ladder"
        if not grp_ratio < iso_ratio:
            yield f"grouped quiet ratio {grp_ratio:.3f}x not below isolated {iso_ratio:.3f}x"


def fanout_quiet_floor(doc):
    """At the top rung the grouped quiet cost is a small fraction of isolated's."""
    queries, iso, grp = quiet_costs(doc)[-1]
    if not grp <= QUIET_FLOOR * iso:
        yield f"{queries}-query rung: grouped quiet {grp} ns/object vs isolated {iso}"


# --- floor: result classes collapse the per-member close ----------------


def floor_arms(doc):
    yield from missing_arms(doc, {"isolated", "classed"})


def floor_closes(doc):
    for r in doc["records"]:
        if not (metric(r, "closes") > 0 and metric(r, "close_us_per_member") > 0):
            yield f"{label(r)}: no slide-close cost"


def floor_classes(doc):
    """Classed serving happened, in one class per geometry."""
    classes = doc["params"]["geometry_classes"]
    for r in rows(doc, arm="classed"):
        if r["counters"]["class_hits"] <= 0:
            yield f"{label(r)}: never served a memoized close"
        if r["counters"]["result_classes"] != classes:
            yield f'{label(r)}: {r["counters"]["result_classes"]} result classes, {classes} geometries'


def floor_memoized_close(doc):
    """At the top rung the classed close is >= 3x cheaper per member than isolated."""
    queries, arms = max(rungs(doc).items())
    classed = metric(arms["classed"], "close_us_per_member")
    ratio = metric(arms["isolated"], "close_us_per_member") / classed
    if ratio < MIN_IMPROVEMENT:
        yield f"{queries}-query rung: classed close only {ratio:.3f}x cheaper than isolated"


# --- prune: admission control at the ingest gate ------------------------


def prune_arms(doc):
    yield from missing_arms(doc, {"dominance", "dominance+predicate"})


def prune_gate_fires(doc):
    """Every row pruned, so every prune rate is positive."""
    for r in doc["records"]:
        if r["counters"]["pruned"] <= 0:
            yield f"{label(r)}: the gate never pruned"


def prune_rate_floor(doc):
    """Every row's gate pruned >= 90% of the objects it judged (counts repeat exactly)."""
    for r in doc["records"]:
        judged = r["counters"]["admitted"] + r["counters"]["pruned"]
        rate = r["counters"]["pruned"] / judged
        if rate < MIN_PRUNE_RATE:
            yield f"{label(r)}: prune rate {rate:.3f} below {MIN_PRUNE_RATE}"


# --- async: many shards on few workers, both mixes ----------------------

ASYNC_MIXES = ("count", "mixed")


def async_arms(doc):
    for mix in ASYNC_MIXES:
        for arm in ("sequential", "async"):
            if not rows(doc, arm=arm, mix=mix):
                yield f"no {arm} row on the {mix} mix"


def async_oversubscribed(doc):
    """Each mix runs more logical shards, and more workers, than host cores."""
    cpus = doc["host_cpus"]
    for mix in ASYNC_MIXES:
        served = rows(doc, arm="async", mix=mix)
        if not any(r["shards"] > cpus for r in served):
            yield f"no {mix} row with shards > host_cpus ({cpus})"
        if not any(r["workers"] > cpus for r in served):
            yield f"no {mix} row with workers > host_cpus ({cpus})"


def async_publisher_never_parks(doc):
    for r in rows(doc, arm="async"):
        if r["counters"]["publisher_parks"] != 0:
            yield f'{label(r)}: parked the publisher {r["counters"]["publisher_parks"]} times'


def async_alloc_ceiling(doc):
    """The one-worker count row's steady state stays under the ceiling."""
    counted = [r for r in rows(doc, arm="async", mix="count") if r["workers"] == 1]
    if not counted:
        yield "no one-worker async row on the count mix"
    for r in counted:
        apo = metric(r, "allocs_per_object")
        if apo > ALLOC_CEILING:
            yield f"{label(r)}: {apo} allocations per object, ceiling {ALLOC_CEILING}"


CLAIMS = {
    "async": [async_arms, async_oversubscribed, async_publisher_never_parks, async_alloc_ceiling],
    "checkpoint": [checkpoint_arms, checkpoint_cost],
    "fanout": [
        fanout_arms,
        fanout_grouped_sharing,
        fanout_quiet_sublinear,
        fanout_quiet_floor,
    ],
    "floor": [floor_arms, floor_closes, floor_classes, floor_memoized_close],
    "hotpath": [hotpath_arms, hotpath_alloc_ceiling],
    "prune": [prune_arms, prune_gate_fires, prune_rate_floor],
    "shared": [shared_arms, shared_digest_hits],
}


def validate(preset, doc):
    """Failures of one artifact, each `rule: message`."""
    failures = [f"shape: {m}" for m in shape(doc, preset)]
    if failures:
        return failures  # the other rules read the shape
    failures += [f"finite: {m}" for m in finite(doc)]
    failures += [f"positive: {m}" for m in positive(doc)]
    failures += [f"equivalence: {m}" for m in equivalence(doc)]
    for claim in CLAIMS[preset]:
        try:
            failures += [f"{claim.__name__}: {m}" for m in claim(doc)]
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
            failures.append(f"{claim.__name__}: cannot evaluate ({type(e).__name__}: {e})")
    return failures


def preset_of(path):
    name = Path(path).name
    if name.startswith("BENCH_") and name.endswith(".json"):
        return name[len("BENCH_") : -len(".json")]
    return None


def main(argv):
    names = argv or sorted(p.name for p in Path(".").glob("BENCH_*.json"))
    if not names:
        print("validate_bench: no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    failures = []
    # an artifact nobody wrote claims for must not land silently, whether
    # it was named or just left in the tree
    named = {Path(n).name for n in names}
    for stray in sorted(p.name for p in Path(".").glob("BENCH_*.json")):
        if stray not in named and preset_of(stray) not in CLAIMS:
            failures.append(f"{stray}: unknown artifact — give its preset a claim list")
    for name in names:
        preset = preset_of(name)
        if preset not in CLAIMS:
            failures.append(f"{name}: unknown artifact — give its preset a claim list")
            continue
        path = Path(name)
        if not path.is_file():
            failures.append(f"{name}: missing artifact")
            continue
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"{name}: unreadable: {e}")
            continue
        found = validate(preset, doc)
        failures += [f"{name}: {f}" for f in found]
        if not found:
            print(f"ok: {name}")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"validate_bench: {len(names)} artifact(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
