//! Regenerates every table and figure of the SAP paper's evaluation, and
//! measures the serving layer into `BENCH_*.json` artifacts.
//!
//! ```text
//! cargo run --release -p sap-bench --bin experiments -- all
//! cargo run --release -p sap-bench --bin experiments -- table2
//! cargo run --release -p sap-bench --bin experiments -- fig9 --len 400000
//! ```
//!
//! The paper subcommands `table2 table3 fig9 fig10 table5 table6 table7
//! table8 table9 all` print the paper's tables. Each serving preset
//! writes `BENCH_<preset>.json` (or the `--json-out` path): the preset,
//! `host_cpus`, its parameters, and one record per measured run (see
//! `sap_bench::Artifact`). Before writing, the binary asserts that rows
//! serving the same mix to the same number of queries delivered
//! byte-identical updates; `tools/validate_bench.py` then checks every
//! claim. The presets:
//!
//! - `async`: the count mix and the mixed count+time-based mix on the
//!   sequential hub and on an `AsyncHub` of `max(32, cores + 1)` shards
//!   with 1, 2 and `cores + 1` workers, steady-state allocations counted;
//! - `shared`: the shared digest plane, sequential and async;
//! - `hotpath`: the pooled publish plane on a mixed count/timed set
//!   under a counting allocator;
//! - `checkpoint`: checkpoint bytes and checkpoint/restore latency up a
//!   query ladder, each run cut in half, restored and resumed;
//! - `fanout`: standalone sessions against the count plane up a query
//!   ladder (to 10⁵ by default), with the quiet (ingest-only) cost split
//!   out;
//! - `floor`: the per-member slide-close cost of standalone sessions and
//!   result-classed serving of one geometry;
//! - `prune`: admission pruning on the shared timed plane, pass-all and
//!   behind a predicate.
//!
//! ```text
//! cargo run --release -p sap-bench --bin experiments -- async \
//!     --len 20000 --queries 500 --json-out BENCH_async.json
//! cargo run --release -p sap-bench --bin experiments -- fanout \
//!     --len 20000 --queries 25000 --shards 1,2,4,8 --json-out BENCH_fanout.json
//! ```

use std::ops::Range;
use std::time::Instant;

use sap_bench::{
    cands, count_query_mix, fanout_query_mix, hotpath_query_mix, measure_on, mem_kb,
    mixed_query_mix, prune_query_mix, prune_stream, run_async, run_sequential, run_standalone,
    secs, serve, serve_async, shared_query_mix, Algo, Artifact, BenchEngineFactory, CountingAlloc,
    Feed, Record, Run, Standalone, Stream, Table,
};
use sap_core::{Sap, SapConfig};
use sap_stream::generators::{ArrivalProcess, Dataset, Workload};
use sap_stream::{run, AsyncHub, Hub, Predicate, Registration, RunSummary, WindowSpec};

/// Every allocation in the process ticks this counter, so a preset's
/// steady-state `allocs_per_object` is a direct read, not an estimate.
/// The two relaxed atomic increments per allocation are noise for every
/// other preset.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The process-wide allocation count, for [`Feed::allocations`].
fn allocations() -> u64 {
    ALLOC.allocations()
}

type ConfigFactory = fn(WindowSpec) -> SapConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut len: Option<usize> = None;
    let mut queries: Option<usize> = None;
    let mut shards: Vec<usize> = vec![1, 2, 4, 8];
    let mut json_out: Option<String> = None;
    let mut repeats = 3usize;
    let mut cmd = String::from("all");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--len" => {
                len = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--len needs a number"),
                );
            }
            "--queries" => {
                queries = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--queries needs a number"),
                );
            }
            "--shards" => {
                shards = it
                    .next()
                    .expect("--shards needs a comma-separated list")
                    .split(',')
                    .map(|v| v.parse().expect("--shards entries must be numbers"))
                    .collect();
            }
            "--json-out" => {
                json_out = Some(it.next().expect("--json-out needs a path").clone());
            }
            "--repeats" => {
                repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeats needs a number >= 1");
                assert!(repeats >= 1, "--repeats needs a number >= 1");
            }
            other => cmd = other.to_string(),
        }
    }
    let seed = 20_170_601; // the paper's publication month
    let paper_len = len.unwrap_or(200_000);
    let out = |preset: &str| json_out.clone().unwrap_or(format!("BENCH_{preset}.json"));

    // the serving presets default shorter than the paper tables because
    // every object fans out to every registered query
    match cmd.as_str() {
        "table2" => table2(paper_len, seed),
        "table3" => table3(paper_len, seed),
        "fig9" => fig9(paper_len, seed),
        "fig10" => fig10(paper_len, seed),
        "table5" => table5(paper_len, seed),
        "table6" => table6(paper_len, seed),
        "table7" => table7(paper_len, seed),
        "table8" => table8(paper_len, seed),
        "table9" => table9(paper_len, seed),
        "async" => async_bench(
            len.unwrap_or(20_000),
            queries.unwrap_or(500),
            &out("async"),
            seed,
            repeats,
        ),
        "shared" => shared(
            len.unwrap_or(20_000),
            queries.unwrap_or(500),
            &shards,
            &out("shared"),
            seed,
        ),
        "hotpath" => hotpath(
            len.unwrap_or(20_000),
            queries.unwrap_or(500),
            &shards,
            &out("hotpath"),
            seed,
            repeats,
        ),
        "checkpoint" => checkpoint_bench(
            len.unwrap_or(20_000),
            queries.unwrap_or(500),
            &shards,
            &out("checkpoint"),
            seed,
            repeats,
        ),
        "fanout" => fanout(
            len.unwrap_or(20_000),
            queries.unwrap_or(100_000),
            &shards,
            &out("fanout"),
            seed,
        ),
        "floor" => floor(
            len.unwrap_or(800),
            queries.unwrap_or(100_000),
            &out("floor"),
            seed,
        ),
        "prune" => prune(
            len.unwrap_or(40_000),
            queries.unwrap_or(100_000),
            &out("prune"),
            seed,
        ),
        "all" => {
            table2(paper_len, seed);
            table3(paper_len, seed);
            fig9(paper_len, seed);
            fig10(paper_len, seed);
            table5(paper_len, seed);
            table6(paper_len, seed);
            table7(paper_len, seed);
            table8(paper_len, seed);
            table9(paper_len, seed);
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; try: table2 table3 fig9 fig10 table5 table6 table7 table8 table9 all async shared hotpath checkpoint fanout floor prune"
            );
            std::process::exit(2);
        }
    }
}

/// The fastest of `repeats` runs — the min-time read, robust to
/// scheduler noise on a busy box. Checksums and allocation counts are
/// deterministic, so every repeat must agree.
fn best_of(repeats: usize, mut measure: impl FnMut() -> Run) -> Run {
    let mut best = measure();
    for _ in 1..repeats {
        let next = measure();
        assert_eq!(next.checksum, best.checksum, "repeats must agree");
        if next.elapsed < best.elapsed {
            best = next;
        }
    }
    best
}

/// Mean wall-clock milliseconds of `repeats` calls after one untimed
/// call, and the last call's result.
fn mean_ms<T>(repeats: usize, mut call: impl FnMut() -> T) -> (T, f64) {
    let mut out = call();
    let started = Instant::now();
    for _ in 0..repeats {
        out = call();
    }
    (out, started.elapsed().as_secs_f64() * 1e3 / repeats as f64)
}

/// A query-count ladder: `queries` over each divisor, zeros dropped.
fn ladder(queries: usize, divisors: &[usize]) -> Vec<usize> {
    let mut rungs: Vec<usize> = divisors
        .iter()
        .map(|d| queries / d)
        .filter(|&q| q > 0)
        .collect();
    rungs.dedup();
    rungs
}

/// The sequential hub against an `AsyncHub` serving `max(32, cores + 1)`
/// logical shards — more shards than the host has cores — on a worker
/// ladder of 1, 2 and `cores + 1` (the last rung oversubscribes the
/// host). Two mixes run on the same ladder: the count mix on a count
/// stream, and the mixed count+time-based mix on a Poisson-arrival
/// stream (the time-based determinism check). Every run warms its pools
/// and windows on the first quarter, then counts its steady-state
/// allocations; each row is the fastest of `repeats`.
fn async_bench(len: usize, queries: usize, json_out: &str, seed: u64, repeats: usize) {
    let chunk = 1_000usize;
    let warmup = (len / 4 / chunk).max(1) * chunk;
    assert!(len > warmup, "async preset needs --len > {warmup}");
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // the point of the executor: logical shards are not capped by cores
    let logical_shards = 32.max(cpus + 1);
    let mut workers_ladder = vec![1usize, 2, cpus + 1];
    workers_ladder.dedup();
    let count = Dataset::Stock.generate(len, seed);
    let timed = Dataset::Stock.generate_timed(len, seed, ArrivalProcess::poisson(25.0));
    let (count_mix, mixed_mix) = (count_query_mix(queries), mixed_query_mix(queries));

    let mut artifact = Artifact::new("async")
        .text("dataset", "stock")
        .text("arrival", "poisson(25)")
        .param("seed", seed)
        .param("len", len)
        .param("queries", queries)
        .param("chunk", chunk)
        .param("warmup", warmup);
    let mut serve_mix = |mix: &'static str, stream, regs: &dyn Fn() -> Vec<Registration>| {
        let feed = Feed {
            warmup,
            allocations: Some(allocations),
            ..Feed::new(stream, chunk)
        };
        let run = best_of(repeats, || {
            run_sequential(&mut serve(Hub::new(), regs()), &feed)
        });
        artifact
            .records
            .push(Record::new("sequential", mix, queries, run));
        for &w in &workers_ladder {
            let run = best_of(repeats, || {
                run_async(
                    &mut serve_async(AsyncHub::new(logical_shards, w), regs()),
                    &feed,
                )
            });
            let record = Record::new("async", mix, queries, run).on(logical_shards, w);
            artifact.records.push(record);
        }
    };
    serve_mix("count", Stream::Count(&count), &|| {
        count_mix.iter().map(|(a, s)| a.count(*s)).collect()
    });
    serve_mix("mixed", Stream::Timed(&timed), &|| {
        mixed_mix.iter().map(|(a, s)| a.registration(*s)).collect()
    });
    artifact.write(json_out);
}

/// Durability: checkpoint size and checkpoint/restore latency up a
/// query ladder of the count mix. Each rung runs the stream once
/// uninterrupted, then again cut in half: the first half, a checkpoint,
/// a restore through [`BenchEngineFactory`], and the second half resumed
/// on the restored hub — which must land on the uninterrupted checksum.
/// The top rung repeats the round trip on an `AsyncHub` with the
/// largest requested shard count and a worker per shard.
fn checkpoint_bench(
    len: usize,
    queries: usize,
    shards: &[usize],
    json_out: &str,
    seed: u64,
    repeats: usize,
) {
    let chunk = 1_000usize;
    assert!(
        len >= 2 * chunk,
        "checkpoint preset needs --len >= {} so the cut falls between publishes",
        2 * chunk
    );
    let data = Dataset::Stock.generate(len, seed);
    // cut on a chunk boundary so the restored run's publish sequence is
    // literally the reference's, split in two
    let cut = (len / 2 / chunk) * chunk;
    let feed = |range: Range<usize>| Feed::new(Stream::Count(&data[range]), chunk);
    let restored = |arm, count: usize, run, bytes: usize, ckpt_ms, restore_ms| {
        Record::new(arm, "count", count, run)
            .with("checkpoint_bytes", bytes as f64)
            .with("bytes_per_query", bytes as f64 / count as f64)
            .with("checkpoint_ms", ckpt_ms)
            .with("restore_ms", restore_ms)
    };

    let mut artifact = Artifact::new("checkpoint")
        .text("dataset", "stock")
        .param("seed", seed)
        .param("len", len)
        .param("cut", cut)
        .param("queries", queries)
        .param("chunk", chunk)
        .param("repeats", repeats);
    for count in ladder(queries, &[8, 4, 2, 1]) {
        let mix = count_query_mix(count);
        let regs = || mix.iter().map(|(a, s)| a.count(*s));
        let whole = run_sequential(&mut serve(Hub::new(), regs()), &feed(0..len));
        artifact
            .records
            .push(Record::new("uninterrupted", "count", count, whole));
        let mut hub = serve(Hub::new(), regs());
        let head = run_sequential(&mut hub, &feed(0..cut));
        let (ckpt, ckpt_ms) = mean_ms(repeats, || hub.checkpoint());
        let (mut hub, restore_ms) = mean_ms(repeats, || {
            Hub::restore(&ckpt, &BenchEngineFactory).expect("own checkpoint restores")
        });
        let tail = Feed {
            resume: Some(&head),
            ..feed(cut..len)
        };
        let run = run_sequential(&mut hub, &tail);
        let record = restored("restored", count, run, ckpt.len(), ckpt_ms, restore_ms);
        artifact.records.push(record);
    }

    let n = shards.iter().copied().max().unwrap_or(2).max(2);
    let mix = count_query_mix(queries);
    let mut hub = serve_async(AsyncHub::new(n, n), mix.iter().map(|(a, s)| a.count(*s)));
    let head = run_async(&mut hub, &feed(0..cut));
    let (ckpt, ckpt_ms) = mean_ms(repeats, || {
        let (ckpt, rest) = hub.checkpoint().expect("healthy shards");
        assert!(rest.is_empty(), "drained before checkpointing");
        ckpt
    });
    let (mut hub, restore_ms) = mean_ms(repeats, || {
        AsyncHub::restore(&ckpt, &BenchEngineFactory, n, n).expect("own checkpoint restores")
    });
    let tail = Feed {
        resume: Some(&head),
        ..feed(cut..len)
    };
    let run = run_async(&mut hub, &tail);
    let record = restored(
        "restored-async",
        queries,
        run,
        ckpt.len(),
        ckpt_ms,
        restore_ms,
    );
    artifact.records.push(record.on(n, n));
    artifact.write(json_out);
}

/// Million-query fan-out: count-based queries over three window
/// geometries served two ways at every rung of a query-count ladder —
/// standalone sessions (per-query ingest, the `isolated` arm) against the
/// count plane (per-group ingest, members slicing the group digest) —
/// plus the shard-local group plane on an `AsyncHub` at the top rung.
/// Publishing in half-slide chunks makes every other publish pure
/// ingest, so each sequential row splits out its quiet cost per object.
fn fanout(len: usize, queries: usize, shards: &[usize], json_out: &str, seed: u64) {
    // half the smallest slide length in the mix: every other publish
    // completes no slide, isolating the pure ingest fan-out — the cost
    // term grouping makes independent of the query count
    let chunk = 125usize;
    let data = Dataset::Stock.generate(len, seed);
    let feed = Feed::new(Stream::Count(&data), chunk);
    let mut artifact = Artifact::new("fanout")
        .text("dataset", "stock")
        .param("seed", seed)
        .param("len", len)
        .param("queries", queries)
        .param("chunk", chunk)
        .param("geometry_classes", 3);
    let rungs = ladder(queries, &[8, 4, 2, 1]);
    for &count in &rungs {
        let mix = fanout_query_mix(count);
        let engines = mix.iter().map(|(a, s)| a.build(*s));
        let iso = run_standalone(&mut Standalone::new(engines), &feed);
        artifact
            .records
            .push(Record::new("isolated", "fanout", count, iso));
        let grp = run_sequential(
            &mut serve(Hub::new(), mix.iter().map(|(a, s)| a.count(*s))),
            &feed,
        );
        artifact
            .records
            .push(Record::new("grouped", "fanout", count, grp));
    }
    let n = shards.iter().copied().max().unwrap_or(2).max(2);
    let top = *rungs.last().expect("ladder is non-empty");
    let mix = fanout_query_mix(top);
    let par = run_async(
        &mut serve_async(AsyncHub::new(n, n), mix.iter().map(|(a, s)| a.count(*s))),
        &feed,
    );
    let record = Record::new("grouped-async", "fanout", top, par).on(n, n);
    artifact.records.push(record);
    artifact.write(json_out);
}

/// The per-member update floor: a ladder of same-geometry SAP queries
/// (one geometry class, `⟨n=32, k=4, s=8⟩`) served two ways — standalone
/// sessions (the `isolated` arm), and the count plane, whose one result
/// class computes each close once and stamps it on every member with a
/// refcount bump.
/// Publishing in half-slide chunks alternates quiet and close publishes,
/// so each row splits out its slide-close µs per member.
fn floor(len: usize, queries: usize, json_out: &str, seed: u64) {
    let spec = WindowSpec::new(32, 4, 8).expect("floor spec is valid");
    // half the slide: publishes alternate strictly between quiet
    // (ingest-only) and close (serving), so the split is exact
    let chunk = spec.s / 2;
    let data = Dataset::Stock.generate(len, seed);
    let feed = Feed::new(Stream::Count(&data), chunk);
    let mut artifact = Artifact::new("floor")
        .text("dataset", "stock")
        .param("seed", seed)
        .param("len", len)
        .param("queries", queries)
        .param("chunk", chunk)
        .param("n", spec.n)
        .param("k", spec.k)
        .param("s", spec.s)
        .param("geometry_classes", 1);
    for count in ladder(queries, &[100, 10, 1]) {
        let engines = (0..count).map(|_| Algo::Sap.build(spec));
        let iso = run_standalone(&mut Standalone::new(engines), &feed);
        artifact
            .records
            .push(Record::new("isolated", "floor", count, iso));
        let members = (0..count).map(|_| Algo::Sap.count(spec));
        let run = run_sequential(&mut serve(Hub::new(), members), &feed);
        artifact
            .records
            .push(Record::new("classed", "floor", count, run));
    }
    artifact.write(json_out);
}

/// Ingest-side admission control on the shared timed plane: a
/// skewed-score (`1000·u⁴`), gap-1 stream served to a query ladder over
/// up to 1024 slide groups, pass-all (the dominance gate alone) and
/// behind a selective `score ≥ 500` predicate.
fn prune(len: usize, queries: usize, json_out: &str, seed: u64) {
    let data = prune_stream(len, seed);
    // slides span half the stream, so every group closes exactly one
    // slide at any --len (serving cost, identical across arms, stays
    // rare) while the open slide holds thousands of objects against a
    // gate of at most 8 — the regime the admission plane targets
    let sd_base = (len as u64 / 2).max(1);
    let chunk = 1024usize;
    let feed = Feed::new(Stream::Timed(&data), chunk);
    let mut artifact = Artifact::new("prune")
        .text("dataset", "skewed-u4")
        .param("seed", seed)
        .param("len", len)
        .param("queries", queries)
        .param("chunk", chunk)
        .param("sd_base", sd_base);
    for count in ladder(queries, &[100, 10, 1]) {
        let mix = prune_query_mix(count, sd_base);
        for arm in ["dominance", "dominance+predicate"] {
            let predicate = match arm {
                "dominance+predicate" => Predicate::any().score_at_least(500.0),
                _ => Predicate::any(),
            };
            let members = mix.iter().map(|(a, s)| a.shared(*s).filter(predicate));
            let run = run_sequential(&mut serve(Hub::new(), members), &feed);
            artifact.records.push(Record::new(arm, "prune", count, run));
        }
    }
    artifact.write(json_out);
}

/// The shared digest plane: `queries` all-timed queries over only four
/// distinct slide durations, served over one Poisson stream by the
/// sequential hub's slide groups and by an `AsyncHub`'s shard-local
/// groups at each requested shard count.
fn shared(len: usize, queries: usize, shards: &[usize], json_out: &str, seed: u64) {
    let chunk = 1_000usize;
    let data = Dataset::Stock.generate_timed(len, seed, ArrivalProcess::poisson(25.0));
    let mix = shared_query_mix(queries);
    let durations: std::collections::BTreeSet<u64> =
        mix.iter().map(|(_, s)| s.slide_duration).collect();
    let feed = Feed::new(Stream::Timed(&data), chunk);
    let shared = || mix.iter().map(|(a, s)| a.shared(*s));
    let mut artifact = Artifact::new("shared")
        .text("dataset", "stock")
        .text("arrival", "poisson(25)")
        .param("seed", seed)
        .param("len", len)
        .param("queries", queries)
        .param("chunk", chunk)
        .param("slide_durations", durations.len());
    let shr = run_sequential(&mut serve(Hub::new(), shared()), &feed);
    artifact
        .records
        .push(Record::new("shared", "shared", queries, shr));
    for &n in shards {
        let run = run_async(&mut serve_async(AsyncHub::new(n, n), shared()), &feed);
        let record = Record::new("shared-async", "shared", queries, run).on(n, n);
        artifact.records.push(record);
    }
    artifact.write(json_out);
}

/// Zero-allocation hot path: the pooled publish plane on a mixed
/// count/timed standing-query set over one Poisson stream, on the
/// sequential hub (`pooled`, fastest of `repeats`) and on an `AsyncHub`
/// with a worker per shard at each requested shard count
/// (`pooled-async`). The first quarter of the stream warms every pooled
/// buffer; allocations are counted over the rest.
fn hotpath(
    len: usize,
    queries: usize,
    shards: &[usize],
    json_out: &str,
    seed: u64,
    repeats: usize,
) {
    let chunk = 500usize;
    let warmup = len / 4;
    let data = Dataset::Stock.generate_timed(len, seed, ArrivalProcess::poisson(25.0));
    let mix = hotpath_query_mix(queries);
    let regs = || mix.iter().map(|(a, s)| a.registration(*s));
    let feed = Feed {
        warmup,
        allocations: Some(allocations),
        ..Feed::new(Stream::Timed(&data), chunk)
    };
    let mut artifact = Artifact::new("hotpath")
        .text("dataset", "stock")
        .text("arrival", "poisson(25)")
        .param("seed", seed)
        .param("len", len)
        .param("queries", queries)
        .param("chunk", chunk)
        .param("warmup", warmup);
    let pooled = best_of(repeats, || {
        run_sequential(&mut serve(Hub::new(), regs()), &feed)
    });
    artifact
        .records
        .push(Record::new("pooled", "hotpath", queries, pooled));
    for &n in shards {
        let run = run_async(&mut serve_async(AsyncHub::new(n, n), regs()), &feed);
        let record = Record::new("pooled-async", "hotpath", queries, run).on(n, n);
        artifact.records.push(record);
    }
    artifact.write(json_out);
}

fn paper_datasets(len: usize) -> Vec<Dataset> {
    Dataset::paper_suite(len)
}

fn real_datasets() -> Vec<Dataset> {
    vec![Dataset::Stock, Dataset::Trip, Dataset::Planet]
}

/// Table 2: equal-partition running time under different `m` for the three
/// algorithm variants (non-delay / Algorithm 1 / Algorithm 1 + S-AVL).
fn table2(len: usize, seed: u64) {
    let spec = WindowSpec::new(10_000, 100, 10).expect("spec");
    let ms: Vec<usize> = (5..=37).step_by(4).collect();
    for ds in paper_datasets(len) {
        let data = ds.generate(len, seed);
        let m_star = sap_stats::m_star(spec.n, spec.s, spec.k);
        let mut header = vec!["variant".to_string()];
        header.extend(ms.iter().map(|m| format!("m={m}")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!(
                "Table 2 [{}]: equal partition, seconds vs m (m* = {m_star}, n={}, k={}, s={})",
                ds.name(),
                spec.n,
                spec.k,
                spec.s
            ),
            &header_refs,
        );
        type MFactory = fn(WindowSpec, usize) -> SapConfig;
        let variants: [(&str, MFactory); 3] = [
            ("non-delay", |sp, m| {
                SapConfig::equal(sp, Some(m)).without_delay()
            }),
            ("Algo 1", |sp, m| {
                SapConfig::equal(sp, Some(m)).without_savl()
            }),
            ("Algo 1+S-AVL", |sp, m| SapConfig::equal(sp, Some(m))),
        ];
        for (label, mk) in variants {
            let mut row = vec![label.to_string()];
            for &m in &ms {
                let mut alg = Sap::new(mk(spec, m));
                let s = run(&mut alg, &data);
                row.push(secs(&s));
            }
            t.row(row);
        }
        t.print();
    }
}

/// Table 3: EQUAL vs DYNA vs EN-DYNA across the n, k, s sweeps.
fn table3(len: usize, seed: u64) {
    let variants: [(&str, ConfigFactory); 3] = [
        ("EN-DYNA", SapConfig::enhanced),
        ("DYNA", SapConfig::dynamic),
        ("EQUAL", |s| SapConfig::equal(s, None)),
    ];
    for ds in paper_datasets(len) {
        let data = ds.generate(len, seed);
        let mut t = Table::new(
            format!("Table 3 [{}]: partition policies, seconds", ds.name()),
            &[
                "variant", "n=2k", "n=5k", "n=10k", "n=20k", "k=10", "k=50", "k=100", "k=500",
                "k=1000", "s=1", "s=10", "s=100", "s=500", "s=1000",
            ],
        );
        for (label, mk) in variants {
            let mut row = vec![label.to_string()];
            for n in [2_000usize, 5_000, 10_000, 20_000] {
                let spec = WindowSpec::new(n, 100, (n / 1000).max(1)).unwrap();
                let mut alg = Sap::new(mk(spec));
                row.push(secs(&run(&mut alg, &data)));
            }
            for k in [10usize, 50, 100, 500, 1000] {
                let spec = WindowSpec::new(10_000, k, 10).unwrap();
                let mut alg = Sap::new(mk(spec));
                row.push(secs(&run(&mut alg, &data)));
            }
            for s in [1usize, 10, 100, 500, 1000] {
                let spec = WindowSpec::new(10_000, 100, s).unwrap();
                let mut alg = Sap::new(mk(spec));
                row.push(secs(&run(&mut alg, &data)));
            }
            t.row(row);
        }
        t.print();
    }
}

fn competitor_sweep(
    title: &str,
    datasets: &[Dataset],
    len: usize,
    seed: u64,
    metric: fn(&RunSummary) -> String,
    algos: &[Algo],
) {
    for &ds in datasets {
        let data = ds.generate(len, seed);
        let mut t = Table::new(
            format!("{title} [{}]", ds.name()),
            &[
                "algorithm",
                "n=2k",
                "n=5k",
                "n=10k",
                "n=20k",
                "k=10",
                "k=50",
                "k=100",
                "k=500",
                "k=1000",
                "s=1",
                "s=10",
                "s=100",
                "s=500",
                "s=1000",
            ],
        );
        for &algo in algos {
            let mut row = vec![algo.label().to_string()];
            for n in [2_000usize, 5_000, 10_000, 20_000] {
                let spec = WindowSpec::new(n, 100, (n / 1000).max(1)).unwrap();
                row.push(metric(&measure_on(algo, &data, spec)));
            }
            for k in [10usize, 50, 100, 500, 1000] {
                let spec = WindowSpec::new(10_000, k, 10).unwrap();
                row.push(metric(&measure_on(algo, &data, spec)));
            }
            for s in [1usize, 10, 100, 500, 1000] {
                let spec = WindowSpec::new(10_000, 100, s).unwrap();
                row.push(metric(&measure_on(algo, &data, spec)));
            }
            t.row(row);
        }
        t.print();
    }
}

/// Figure 9: running time of SAP vs MinTopK, SMA, k-skyband on the
/// (simulated) real datasets, swept over n (a–c), k (d–f), and s (g–i).
fn fig9(len: usize, seed: u64) {
    competitor_sweep(
        "Figure 9: running time (seconds)",
        &real_datasets(),
        len,
        seed,
        secs,
        &[Algo::Sap, Algo::MinTopK, Algo::KSkyband, Algo::Sma],
    );
}

/// Figure 10: the same comparison on the synthetic TIMEU and TIMER.
fn fig10(len: usize, seed: u64) {
    let timer_period = (len as f64 / 8.0).max(16.0);
    competitor_sweep(
        "Figure 10: running time (seconds)",
        &[
            Dataset::TimeU,
            Dataset::TimeR {
                period: timer_period,
            },
        ],
        len,
        seed,
        secs,
        &[Algo::Sap, Algo::MinTopK, Algo::KSkyband, Algo::Sma],
    );
}

fn high_speed_sweep(
    title: &str,
    len: usize,
    seed: u64,
    metric: fn(&RunSummary) -> String,
    wide: bool,
) {
    let hs_len = len.max(200_000);
    for ds in paper_datasets(hs_len) {
        let data = ds.generate(hs_len, seed);
        let header: Vec<&str> = if wide {
            vec![
                "algorithm",
                "n=10%",
                "n=20%",
                "n=30%",
                "n=40%",
                "n=50%",
                "k=500",
                "k=1000",
                "k=2000",
                "s=0.1%",
                "s=1%",
                "s=5%",
                "s=10%",
            ]
        } else {
            vec![
                "algorithm",
                "n=10%",
                "n=30%",
                "n=50%",
                "k=500",
                "k=2000",
                "s=1%",
                "s=10%",
            ]
        };
        let mut t = Table::new(format!("{title} [{}]", ds.name()), &header);
        for algo in [Algo::Sap, Algo::MinTopK] {
            let mut row = vec![algo.label().to_string()];
            let n_pcts: &[usize] = if wide {
                &[10, 20, 30, 40, 50]
            } else {
                &[10, 30, 50]
            };
            for &pct in n_pcts {
                let n = hs_len * pct / 100;
                let spec = WindowSpec::new(n, 1000, n / 50).unwrap();
                row.push(metric(&measure_on(algo, &data, spec)));
            }
            let n = hs_len / 5;
            let ks: &[usize] = if wide {
                &[500, 1000, 2000]
            } else {
                &[500, 2000]
            };
            for &k in ks {
                let spec = WindowSpec::new(n, k, n / 50).unwrap();
                row.push(metric(&measure_on(algo, &data, spec)));
            }
            let sdivs: &[usize] = if wide {
                &[1000, 100, 20, 10]
            } else {
                &[100, 10]
            };
            for &sdiv in sdivs {
                let spec = WindowSpec::new(n, 1000, (n / sdiv).max(1)).unwrap();
                row.push(metric(&measure_on(algo, &data, spec)));
            }
            t.row(row);
        }
        t.print();
    }
}

/// Table 5 (Appendix D): high-speed streams — large windows, large k,
/// large slides; SAP vs MinTopK running time.
fn table5(len: usize, seed: u64) {
    high_speed_sweep(
        "Table 5: high-speed streams, seconds",
        len,
        seed,
        secs,
        true,
    );
}

/// Table 6 (Appendix E): average candidate counts across the sweeps.
fn table6(len: usize, seed: u64) {
    competitor_sweep(
        "Table 6: average candidates",
        &paper_datasets(len),
        len,
        seed,
        cands,
        &[Algo::Sap, Algo::MinTopK, Algo::KSkyband],
    );
}

/// Table 7 (Appendix E): candidate counts under high-speed parameters.
fn table7(len: usize, seed: u64) {
    high_speed_sweep("Table 7: candidates, high-speed", len, seed, cands, false);
}

/// Table 8 (Appendix F): average candidate memory (KB) across the sweeps.
fn table8(len: usize, seed: u64) {
    competitor_sweep(
        "Table 8: candidate memory (KB)",
        &paper_datasets(len),
        len,
        seed,
        mem_kb,
        &[Algo::Sap, Algo::MinTopK, Algo::KSkyband],
    );
}

/// Table 9 (Appendix F): memory under high-speed parameters.
fn table9(len: usize, seed: u64) {
    high_speed_sweep("Table 9: memory (KB), high-speed", len, seed, mem_kb, false);
}
