//! Shared harness for regenerating the SAP paper's evaluation (§6 and
//! Appendices D–F): workload construction, algorithm factories, and
//! paper-shaped table formatting.
//!
//! Scaling: the paper streams gigabytes through C++ on 2017 hardware; this
//! harness streams `|D|` objects (default 2×10⁵ per run) through Rust.
//! Parameters keep the paper's *ratios* (`k`, `s/n`, sweep shapes), so
//! relative behaviour — who wins, how costs scale along each axis — is
//! comparable even though absolute numbers differ. See EXPERIMENTS.md.

use std::time::{Duration, Instant};

use sap_baselines::{KSkyband, MinTopK, NaiveTopK, Sma};
use sap_core::{Sap, SapConfig, TimeBased};
use sap_stream::generators::{Dataset, Workload};
use sap_stream::{
    checksum_fold, run, AsyncHub, EngineFactory, FifoScheduler, Hub, HubStats, Object, Predicate,
    QuerySpec, QueryUpdate, Registration, RunSummary, SapError, SeededScheduler, SlidingTopK,
    TimedObject, TimedSpec, TimedTopK, WindowSpec, CHECKSUM_SEED,
};

mod alloc;

pub use alloc::CountingAlloc;

/// Default stream length per measurement run.
pub const DEFAULT_LEN: usize = 200_000;

/// The default query of the paper's Table 1 mapped to harness scale:
/// `n = 10⁴`, `k = 100`, `s = 0.1%·n = 10`.
pub fn default_spec() -> WindowSpec {
    WindowSpec::new(10_000, 100, 10).expect("default spec is valid")
}

/// Algorithms compared in §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// SAP with the enhanced dynamic partition (the paper's "SAP").
    Sap,
    /// SAP with the plain dynamic partition ("DYNA").
    SapDynamic,
    /// SAP with the equal partition at `m*` ("EQUAL").
    SapEqual,
    /// MinTopK (Yang et al.).
    MinTopK,
    /// The one-pass k-skyband algorithm.
    KSkyband,
    /// SMA with the grid index.
    Sma,
    /// The naive re-scanning oracle.
    Naive,
}

impl Algo {
    /// Display name used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Sap => "SAP",
            Algo::SapDynamic => "DYNA",
            Algo::SapEqual => "EQUAL",
            Algo::MinTopK => "minTopK",
            Algo::KSkyband => "k-skyband",
            Algo::Sma => "SMA",
            Algo::Naive => "naive",
        }
    }

    /// Instantiates the algorithm for a query. The box is `Send`, the
    /// engine type a hub [`Registration`] carries; it coerces to a plain
    /// `Box<dyn SlidingTopK>` where `Send` is not needed.
    pub fn build(&self, spec: WindowSpec) -> Box<dyn SlidingTopK + Send> {
        match self {
            Algo::Sap => Box::new(Sap::new(SapConfig::new(spec))),
            Algo::SapDynamic => Box::new(Sap::new(SapConfig::dynamic(spec))),
            Algo::SapEqual => Box::new(Sap::new(SapConfig::equal(spec, None))),
            Algo::MinTopK => Box::new(MinTopK::new(spec)),
            Algo::KSkyband => Box::new(KSkyband::new(spec)),
            Algo::Sma => Box::new(Sma::new(spec)),
            Algo::Naive => Box::new(NaiveTopK::new(spec)),
        }
    }

    /// An isolated count-based registration of this algorithm over `spec`.
    pub fn count(&self, spec: WindowSpec) -> Registration {
        Registration::count(self.build(spec))
    }

    /// An isolated time-based registration: the algorithm over the
    /// Appendix-A reduction of `spec`, wrapped in [`TimeBased`].
    pub fn timed(&self, spec: TimedSpec) -> Registration {
        let inner = self.build(spec.reduced().expect("mix spec is valid"));
        Registration::timed(Box::new(
            TimeBased::from_engine(inner, spec.window_duration, spec.slide_duration)
                .expect("reduced spec matches by construction"),
        ))
    }

    /// A shared-digest-plane registration of `spec`.
    pub fn shared(&self, spec: TimedSpec) -> Registration {
        let engine = self.build(spec.reduced().expect("mix spec is valid"));
        Registration::shared(engine, spec.window_duration, spec.slide_duration)
    }

    /// A shared-count-plane registration of `spec`.
    pub fn grouped(&self, spec: WindowSpec) -> Registration {
        let reduced = TimedSpec::new(spec.n as u64, spec.s as u64, spec.k)
            .and_then(|t| t.reduced())
            .expect("mix spec reduces");
        Registration::grouped(self.build(reduced), spec.n, spec.s)
    }

    /// An isolated registration of a count- or time-based `spec`.
    pub fn isolated(&self, spec: QuerySpec) -> Registration {
        match spec {
            QuerySpec::Count(spec) => self.count(spec),
            QuerySpec::Timed(spec) => self.timed(spec),
        }
    }
}

/// The harness's [`EngineFactory`]: rebuilds every engine the bench
/// mixes register ([`Algo::build`] plus the [`TimeBased`] wrapping) from
/// the name a checkpoint recorded. The bench crate sits below the `sap`
/// facade, so it carries its own name table instead of reusing the
/// facade's `DefaultEngineFactory`.
pub struct BenchEngineFactory;

impl EngineFactory for BenchEngineFactory {
    fn count(&self, name: &str, spec: WindowSpec) -> Result<Box<dyn SlidingTopK + Send>, SapError> {
        Ok(match name {
            "SAP" => Box::new(Sap::new(SapConfig::new(spec))),
            "SAP-dyna" => Box::new(Sap::new(SapConfig::dynamic(spec))),
            "SAP-equal+savl" => Box::new(Sap::new(SapConfig::equal(spec, None))),
            "MinTopK" => Box::new(MinTopK::new(spec)),
            "k-skyband" => Box::new(KSkyband::new(spec)),
            "SMA" => Box::new(Sma::new(spec)),
            "naive" => Box::new(NaiveTopK::new(spec)),
            other => return Err(SapError::checkpoint_unknown_engine(other)),
        })
    }

    fn timed(&self, name: &str, spec: TimedSpec) -> Result<Box<dyn TimedTopK + Send>, SapError> {
        let inner = self.count(name, spec.reduced().map_err(SapError::Spec)?)?;
        let adapter = TimeBased::from_engine(inner, spec.window_duration, spec.slide_duration)
            .expect("a spec that reduces also wraps");
        Ok(Box::new(adapter))
    }
}

/// Runs one `(algorithm, dataset, spec)` measurement.
pub fn measure(algo: Algo, ds: Dataset, len: usize, spec: WindowSpec, seed: u64) -> RunSummary {
    let data = ds.generate(len, seed);
    let mut alg = algo.build(spec);
    run(alg.as_mut(), &data)
}

/// Runs a measurement on pre-generated data (reuse the stream across
/// algorithms so comparisons share inputs).
pub fn measure_on(algo: Algo, data: &[sap_stream::Object], spec: WindowSpec) -> RunSummary {
    let mut alg = algo.build(spec);
    run(alg.as_mut(), data)
}

/// Simple fixed-width table printer for the experiment binaries.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.into(),
        }
    }

    /// Appends one row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        println!("\n=== {} ===", self.title);
        let fmt_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        };
        fmt_row(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            fmt_row(row);
        }
    }
}

/// One measured hub configuration from [`run_hub_sequential`] /
/// [`run_hub_sharded`]: wall-clock time plus the evidence needed to call
/// the runs equivalent.
#[derive(Debug, Clone, PartialEq)]
pub struct HubRun {
    /// Total wall-clock time for publishing (and, for the async hub,
    /// draining) the whole stream.
    pub elapsed: Duration,
    /// Number of `QueryUpdate`s delivered across all queries.
    pub updates: u64,
    /// Order-sensitive checksum over every update in `(QueryId, slide)`
    /// order — identical between the sequential and async hubs when
    /// (and only when) they delivered identical results.
    pub checksum: u64,
    /// Slides served to a query from a shared group digest (0 for runs
    /// that never touch the digest plane).
    pub digest_hits: u64,
    /// Slides a shared query recomputed privately (mid-stream joins
    /// warming up; 0 for non-shared runs).
    pub digest_rebuilds: u64,
}

impl HubRun {
    /// Ingested objects per second — the hub throughput metric. `len` is
    /// the stream length in objects (each object fans out to every
    /// registered query, so compare runs only at equal query counts).
    pub fn objects_per_sec(&self, len: usize) -> f64 {
        len as f64 / self.elapsed.as_secs_f64()
    }
}

/// Deterministic heterogeneous query mix for the hub-scaling bench:
/// cheap windows (so 10⁴ of them fit comfortably in memory) cycling
/// through SAP, MinTopK, and k-skyband with varied `⟨n, k, s⟩`.
pub fn hub_query_mix(count: usize) -> Vec<(Algo, WindowSpec)> {
    let algos = [Algo::Sap, Algo::MinTopK, Algo::KSkyband];
    (0..count)
        .map(|i| {
            let s = [50usize, 100, 200][i % 3];
            let m = [2usize, 4, 8][(i / 3) % 3];
            let k = 1 + (i % 10);
            let spec = WindowSpec::new(s * m, k, s).expect("mix spec is valid");
            (algos[i % algos.len()], spec)
        })
        .collect()
}

/// Folds one update into the running hub checksum: the query handle, the
/// slide index, and the driver's snapshot checksum. Updates must be fed
/// in `(QueryId, slide)` order for cross-run comparability — exactly the
/// order `AsyncHub::drain` returns and the order the sequential hub's
/// per-publish batches already have.
pub fn hub_checksum_fold(acc: u64, update: &QueryUpdate) -> u64 {
    let tagged = [
        Object::new(update.result.slide, 0.0),
        Object::new(update.result.snapshot.len() as u64, 0.0),
    ];
    checksum_fold(checksum_fold(acc, &tagged), &update.result.snapshot)
}

/// Registers every registration in `mix` on a fresh sequential [`Hub`].
fn hub_serving(mix: impl IntoIterator<Item = Registration>) -> Hub {
    let mut hub = Hub::new();
    for registration in mix {
        hub.subscribe(registration).expect("bench mixes are valid");
    }
    hub
}

/// Publishes `data` to a sequential [`Hub`] serving `mix`, in chunks of
/// `chunk` objects, timing the publish loop.
pub fn run_hub_sequential(mix: &[(Algo, WindowSpec)], data: &[Object], chunk: usize) -> HubRun {
    let mut hub = hub_serving(mix.iter().map(|(algo, spec)| algo.count(*spec)));
    let mut updates = 0u64;
    let mut checksum = CHECKSUM_SEED;
    let started = Instant::now();
    for c in data.chunks(chunk) {
        for u in hub.publish(c) {
            updates += 1;
            checksum = hub_checksum_fold(checksum, &u);
        }
    }
    HubRun {
        elapsed: started.elapsed(),
        updates,
        checksum,
        digest_hits: 0,
        digest_rebuilds: 0,
    }
}

/// The `sharded` arm of the hub presets: `mix` on an [`AsyncHub`] with
/// `shards` shards and a worker per shard (see [`run_hub_async`]).
pub fn run_hub_sharded(
    mix: &[(Algo, WindowSpec)],
    data: &[Object],
    chunk: usize,
    shards: usize,
) -> HubRun {
    run_hub_async(mix, data, chunk, shards, shards, None).0
}

/// Publishes `data` to an [`AsyncHub`] with `shards` logical shards
/// served by `workers` reactor threads, draining after every chunk
/// (which bounds the shard-side update accumulation and exercises the
/// determinism barrier). Timing covers publish + drain, so the
/// comparison against [`run_hub_sequential`] includes all coordination
/// overhead. `seed` selects a [`SeededScheduler`] (schedule-fuzzed runs)
/// instead of the production [`FifoScheduler`]. Returns the run plus the
/// publisher park count — the non-blocking-publish evidence for
/// `BENCH_async.json`.
pub fn run_hub_async(
    mix: &[(Algo, WindowSpec)],
    data: &[Object],
    chunk: usize,
    shards: usize,
    workers: usize,
    seed: Option<u64>,
) -> (HubRun, u64) {
    let scheduler: Box<dyn sap_stream::Scheduler> = match seed {
        Some(seed) => Box::new(SeededScheduler::new(seed)),
        None => Box::new(FifoScheduler),
    };
    let mut hub = AsyncHub::with_scheduler(shards, workers, scheduler);
    for (algo, spec) in mix {
        hub.subscribe(algo.count(*spec)).expect("fresh shards");
    }
    let mut updates = 0u64;
    let mut checksum = CHECKSUM_SEED;
    let started = Instant::now();
    for c in data.chunks(chunk) {
        hub.publish(c).expect("no engine panics in the bench mix");
        for u in hub.drain().expect("no engine panics in the bench mix") {
            updates += 1;
            checksum = hub_checksum_fold(checksum, &u);
        }
    }
    let run = HubRun {
        elapsed: started.elapsed(),
        updates,
        checksum,
        digest_hits: 0,
        digest_rebuilds: 0,
    };
    (run, hub.publisher_parks())
}

/// Heterogeneous **mixed-model** query set for the timed hub bench:
/// entries alternate between count-based geometries (the
/// [`hub_query_mix`] shapes) and time-based geometries whose slide
/// durations straddle the stream's mean inter-arrival gap, so timed
/// slides range from packed to empty.
pub fn timed_query_mix(count: usize) -> Vec<(Algo, QuerySpec)> {
    let algos = [Algo::Sap, Algo::MinTopK, Algo::KSkyband];
    (0..count)
        .map(|i| {
            let algo = algos[i % algos.len()];
            if i % 2 == 0 {
                let s = [50usize, 100, 200][(i / 2) % 3];
                let m = [2usize, 4, 8][(i / 6) % 3];
                let k = 1 + (i % 10);
                let spec = WindowSpec::new(s * m, k, s).expect("mix spec is valid");
                (algo, QuerySpec::Count(spec))
            } else {
                let sd = [20u64, 50, 120][(i / 2) % 3];
                let m = [2u64, 4, 8][(i / 6) % 3];
                let k = 1 + (i % 10);
                let spec = TimedSpec::new(sd * m, sd, k).expect("mix spec is valid");
                (algo, QuerySpec::Timed(spec))
            }
        })
        .collect()
}

/// Publishes a timed stream to a sequential `hub` in chunks of `chunk`
/// objects, closing trailing slides with a final watermark, and timing
/// the whole loop. Returns the run plus the hub's counters.
fn run_timed_sequential_on(mut hub: Hub, data: &[TimedObject], chunk: usize) -> (HubRun, HubStats) {
    let horizon = data.last().map_or(0, |o| o.timestamp) + 1;
    let mut updates = 0u64;
    let mut checksum = CHECKSUM_SEED;
    let started = Instant::now();
    for c in data.chunks(chunk) {
        for u in hub.publish_timed(c) {
            updates += 1;
            checksum = hub_checksum_fold(checksum, &u);
        }
    }
    for u in hub.advance_time(horizon) {
        updates += 1;
        checksum = hub_checksum_fold(checksum, &u);
    }
    let elapsed = started.elapsed();
    let stats = hub.stats();
    let run = HubRun {
        elapsed,
        updates,
        checksum,
        digest_hits: stats.digest_hits,
        digest_rebuilds: stats.digest_rebuilds,
    };
    (run, stats)
}

/// Publishes a timed stream to an [`AsyncHub`] with `shards` shards and
/// a worker per shard serving `mix`, draining after every chunk and
/// closing trailing slides with a final watermark. Updates and checksum
/// cover the whole stream; timing starts after the first `warmup`
/// objects. Checksums are comparable with the sequential runners' —
/// equal iff the hubs delivered identical results.
fn run_timed_async(
    mix: impl IntoIterator<Item = Registration>,
    data: &[TimedObject],
    chunk: usize,
    warmup: usize,
    shards: usize,
) -> HubRun {
    let mut hub = AsyncHub::new(shards, shards);
    for registration in mix {
        hub.subscribe(registration)
            .expect("fresh shards accept valid engines");
    }
    let horizon = data.last().map_or(0, |o| o.timestamp) + 1;
    let mut updates = 0u64;
    let mut checksum = CHECKSUM_SEED;
    let mut fold = |hub: &mut AsyncHub| {
        for u in hub.drain().expect("no engine panics in the bench mix") {
            updates += 1;
            checksum = hub_checksum_fold(checksum, &u);
        }
    };
    let warmup = warmup.min(data.len());
    for c in data[..warmup].chunks(chunk) {
        hub.publish_timed(c)
            .expect("no engine panics in the bench mix");
        fold(&mut hub);
    }
    let started = Instant::now();
    for c in data[warmup..].chunks(chunk) {
        hub.publish_timed(c)
            .expect("no engine panics in the bench mix");
        fold(&mut hub);
    }
    hub.advance_time(horizon)
        .expect("no engine panics in the bench mix");
    fold(&mut hub);
    let elapsed = started.elapsed();
    let stats = hub.stats().expect("no engine panics in the bench mix");
    HubRun {
        elapsed,
        updates,
        checksum,
        digest_hits: stats.digest_hits,
        digest_rebuilds: stats.digest_rebuilds,
    }
}

/// Publishes a timed stream to a sequential [`Hub`] serving a mixed
/// count+timed `mix`, in chunks of `chunk` objects, closing trailing
/// slides with a final watermark. Timing covers the full publish loop.
pub fn run_timed_hub_sequential(
    mix: &[(Algo, QuerySpec)],
    data: &[TimedObject],
    chunk: usize,
) -> HubRun {
    let hub = hub_serving(mix.iter().map(|(algo, spec)| algo.isolated(*spec)));
    run_timed_sequential_on(hub, data, chunk).0
}

/// The sharded counterpart of [`run_timed_hub_sequential`]: the timed
/// stream on an [`AsyncHub`] with a worker per shard, draining after
/// every chunk.
pub fn run_timed_hub_sharded(
    mix: &[(Algo, QuerySpec)],
    data: &[TimedObject],
    chunk: usize,
    shards: usize,
) -> HubRun {
    let mix = mix.iter().map(|(algo, spec)| algo.isolated(*spec));
    run_timed_async(mix, data, chunk, 0, shards)
}

/// All-timed query mix for the shared-digest bench: `count` queries over
/// only **four** distinct slide durations (the many-queries/few-groups
/// regime the digest plane targets), windows spanning 2–8 slides, `k`
/// from 1 to 10. Slide durations are large multiples of the generated
/// stream's mean inter-arrival gap so slides hold many objects — the
/// per-slide truncation the plane deduplicates is real work.
pub fn shared_query_mix(count: usize) -> Vec<(Algo, TimedSpec)> {
    let algos = [Algo::Sap, Algo::MinTopK, Algo::KSkyband];
    let sds = [1_000u64, 2_000, 4_000, 8_000];
    (0..count)
        .map(|i| {
            let sd = sds[i % sds.len()];
            let m = [2u64, 4, 8][(i / 4) % 3];
            let k = 1 + (i % 10);
            let spec = TimedSpec::new(sd * m, sd, k).expect("mix spec is valid");
            (algos[i % algos.len()], spec)
        })
        .collect()
}

/// The per-session-recomputation reference for the shared bench: the
/// same timed mix served by isolated Appendix-A adapters (see
/// [`run_timed_hub_sequential`]).
pub fn run_shared_isolated(
    mix: &[(Algo, TimedSpec)],
    data: &[TimedObject],
    chunk: usize,
) -> HubRun {
    let hub = hub_serving(mix.iter().map(|(algo, spec)| algo.timed(*spec)));
    run_timed_sequential_on(hub, data, chunk).0
}

/// Publishes a timed stream to a sequential [`Hub`] serving `mix` on the
/// **shared digest plane** ([`Algo::shared`]): one digest producer per
/// distinct slide duration feeds every member query. Checksums are
/// comparable with [`run_shared_isolated`] — equal iff the plane is
/// byte-identical to per-session recomputation — and the run records the
/// hub's digest hit/rebuild counters.
pub fn run_shared_hub(mix: &[(Algo, TimedSpec)], data: &[TimedObject], chunk: usize) -> HubRun {
    let hub = hub_serving(mix.iter().map(|(algo, spec)| algo.shared(*spec)));
    run_timed_sequential_on(hub, data, chunk).0
}

/// The sharded counterpart of [`run_shared_hub`]: the same shared mix on
/// an [`AsyncHub`] with a worker per shard, slide groups shard-local,
/// draining after every chunk.
pub fn run_shared_hub_sharded(
    mix: &[(Algo, TimedSpec)],
    data: &[TimedObject],
    chunk: usize,
    shards: usize,
) -> HubRun {
    let mix = mix.iter().map(|(algo, spec)| algo.shared(*spec));
    run_timed_async(mix, data, chunk, 0, shards)
}

/// Count-based query mix for the `fanout` preset: `count` queries over
/// only **three** distinct slide lengths (the million-query regime the
/// shared count plane targets), windows spanning 2–8 slides, `k` from 1
/// to 10. Registered together at stream offset 0, the mix collapses
/// into three geometry classes — `(s, 0)` for each distinct `s` — so
/// per-object ingest work is paid per class, not per query. Slides are
/// deliberately **coarse** (`s ≥ 250`): the per-object cost the plane
/// makes sub-linear is the ingest fan-out (every isolated session
/// buffers every object), while slide-close serving — linear in members
/// by definition, it produces one update per member — stays rare.
pub fn fanout_query_mix(count: usize) -> Vec<(Algo, WindowSpec)> {
    let algos = [Algo::Sap, Algo::MinTopK, Algo::KSkyband];
    (0..count)
        .map(|i| {
            let s = [250usize, 500, 1_000][i % 3];
            let m = [2usize, 4, 8][(i / 3) % 3];
            let k = 1 + (i % 10);
            let spec = WindowSpec::new(s * m, k, s).expect("mix spec is valid");
            (algos[i % algos.len()], spec)
        })
        .collect()
}

/// One measured `fanout` configuration: the hub run, the hub's sharing
/// counters, and the **quiet-path split** the preset's sub-linearity
/// claim rests on. Total cost necessarily has a component linear in the
/// query count — every completed slide delivers one update per member —
/// so the preset separates the publishes that completed no slide
/// anywhere: there the isolated path still pays every session (each one
/// buffers every object) while the grouped path pays once per geometry
/// class, independent of membership.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutRun {
    /// Whole-stream timing and equivalence evidence.
    pub run: HubRun,
    /// The hub's counters after the run ([`HubStats::count_group_hits`]
    /// proves sharing happened; `count_group_rebuilds` counts isolated
    /// count slides — work grouping would have pooled).
    pub stats: HubStats,
    /// Objects published by calls that completed no slide.
    pub quiet_objects: u64,
    /// Wall-clock total of those quiet publishes.
    pub quiet_elapsed: Duration,
}

impl FanoutRun {
    /// Per-object cost of the pure ingest path. `None` if the chunking
    /// never produced a quiet publish (or, sharded, where per-call cost
    /// cannot be attributed across worker threads).
    pub fn quiet_ns_per_object(&self) -> Option<f64> {
        (self.quiet_objects > 0)
            .then(|| self.quiet_elapsed.as_secs_f64() * 1e9 / self.quiet_objects as f64)
    }
}

/// Shared publish loop of the sequential `fanout` runners: times every
/// publish call individually so quiet (no-slide) chunks can be
/// attributed, folds the order-sensitive checksum, and reads the hub's
/// counters back.
fn run_fanout_on(mut hub: Hub, data: &[Object], chunk: usize) -> FanoutRun {
    let mut updates = 0u64;
    let mut checksum = CHECKSUM_SEED;
    let mut quiet_objects = 0u64;
    let mut quiet_elapsed = Duration::ZERO;
    let started = Instant::now();
    for c in data.chunks(chunk) {
        let before = Instant::now();
        let batch = hub.publish(c);
        let took = before.elapsed();
        if batch.is_empty() {
            quiet_objects += c.len() as u64;
            quiet_elapsed += took;
        }
        for u in batch {
            updates += 1;
            checksum = hub_checksum_fold(checksum, &u);
        }
    }
    let elapsed = started.elapsed();
    let stats = hub.stats();
    FanoutRun {
        run: HubRun {
            elapsed,
            updates,
            checksum,
            digest_hits: 0,
            digest_rebuilds: 0,
        },
        stats,
        quiet_objects,
        quiet_elapsed,
    }
}

/// The per-session reference for the `fanout` preset: the same
/// count-based mix served by **isolated** sessions ([`Algo::count`]).
pub fn run_fanout_isolated(mix: &[(Algo, WindowSpec)], data: &[Object], chunk: usize) -> FanoutRun {
    let hub = hub_serving(mix.iter().map(|(algo, spec)| algo.count(*spec)));
    run_fanout_on(hub, data, chunk)
}

/// Publishes `data` to a sequential [`Hub`] serving `mix` on the
/// **shared count plane** ([`Algo::grouped`]): queries sharing a window
/// geometry ingest each object once per group and slice their `(n, k)`
/// views from the group digest. The checksum is comparable with
/// [`run_fanout_isolated`] over the same mix — equal iff grouping is
/// byte-identical to per-session serving.
pub fn run_fanout_grouped(mix: &[(Algo, WindowSpec)], data: &[Object], chunk: usize) -> FanoutRun {
    let hub = hub_serving(mix.iter().map(|(algo, spec)| algo.grouped(*spec)));
    run_fanout_on(hub, data, chunk)
}

/// The sharded counterpart of [`run_fanout_grouped`]: the same grouped
/// mix on an [`AsyncHub`] with a worker per shard — count groups
/// shard-local via `home_shard` affinity — draining after every chunk.
/// Quiet publishes are not attributed (publish is asynchronous and the
/// drain is a barrier), so `quiet_objects` stays 0.
pub fn run_fanout_grouped_sharded(
    mix: &[(Algo, WindowSpec)],
    data: &[Object],
    chunk: usize,
    shards: usize,
) -> FanoutRun {
    let mut hub = AsyncHub::new(shards, shards);
    for (algo, spec) in mix {
        hub.subscribe(algo.grouped(*spec))
            .expect("fresh shards accept valid engines");
    }
    let mut updates = 0u64;
    let mut checksum = CHECKSUM_SEED;
    let started = Instant::now();
    for c in data.chunks(chunk) {
        hub.publish(c).expect("no engine panics in the bench mix");
        for u in hub.drain().expect("no engine panics in the bench mix") {
            updates += 1;
            checksum = hub_checksum_fold(checksum, &u);
        }
    }
    let elapsed = started.elapsed();
    let stats = hub.stats().expect("no engine panics in the bench mix");
    FanoutRun {
        run: HubRun {
            elapsed,
            updates,
            checksum,
            digest_hits: 0,
            digest_rebuilds: 0,
        },
        stats,
        quiet_objects: 0,
        quiet_elapsed: Duration::ZERO,
    }
}

/// Which serving shape a `floor` preset arm exercises over one fixed
/// window geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloorArm {
    /// Isolated sessions: every member runs a full engine slide per
    /// close — the reference the checksums are anchored to.
    Isolated,
    /// Grouped with result-class pooling disabled
    /// (`Hub::set_result_class_sharing(false)`): members share the
    /// group's ingest but each solo class still computes its own
    /// `apply_slide_top`, diff, and snapshot per close — the
    /// pre-memoization per-member update floor.
    Unclassed,
    /// Grouped with result-class pooling (the default): one computed
    /// close per class, then a refcount bump plus an id/slide tag per
    /// member.
    Classed,
}

impl FloorArm {
    /// JSON/table label.
    pub fn label(&self) -> &'static str {
        match self {
            FloorArm::Isolated => "isolated",
            FloorArm::Unclassed => "unclassed",
            FloorArm::Classed => "classed",
        }
    }
}

/// One measured `floor` configuration: whole-stream timing plus the
/// **slide-close split** the memoization claim rests on. Quiet publishes
/// (no slide anywhere) price the shared ingest; close publishes price
/// serving — the per-member cost the result-class tier collapses.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorRun {
    /// Whole-stream timing and equivalence evidence.
    pub run: HubRun,
    /// The hub's counters after the run ([`HubStats::class_hits`] proves
    /// memoized serving happened; zero proves it could not have).
    pub stats: HubStats,
    /// Publishes that completed at least one slide.
    pub closes: u64,
    /// Wall-clock total of those close publishes.
    pub close_elapsed: Duration,
    /// Objects published by calls that completed no slide.
    pub quiet_objects: u64,
    /// Wall-clock total of those quiet publishes.
    pub quiet_elapsed: Duration,
}

impl FloorRun {
    /// Mean serving cost per member per close, in microseconds — the
    /// per-member update floor. `None` before the first close.
    pub fn close_us_per_member(&self, members: usize) -> Option<f64> {
        (self.closes > 0 && members > 0)
            .then(|| self.close_elapsed.as_secs_f64() * 1e6 / (self.closes as f64 * members as f64))
    }

    /// Per-object cost of the pure ingest path, like
    /// [`FanoutRun::quiet_ns_per_object`].
    pub fn quiet_ns_per_object(&self) -> Option<f64> {
        (self.quiet_objects > 0)
            .then(|| self.quiet_elapsed.as_secs_f64() * 1e9 / self.quiet_objects as f64)
    }
}

/// Serves `members` same-geometry SAP queries over `data` in one of the
/// three [`FloorArm`] shapes, timing every publish individually so close
/// and quiet costs separate. Checksums are comparable across arms over
/// the same inputs — equal iff result classes (and the group plane under
/// them) are byte-identical to isolated serving.
pub fn run_floor(
    spec: WindowSpec,
    members: usize,
    data: &[Object],
    chunk: usize,
    arm: FloorArm,
) -> FloorRun {
    let mut hub = Hub::new();
    if arm == FloorArm::Unclassed {
        hub.set_result_class_sharing(false);
    }
    for _ in 0..members {
        let registration = match arm {
            FloorArm::Isolated => Algo::Sap.count(spec),
            FloorArm::Unclassed | FloorArm::Classed => Algo::Sap.grouped(spec),
        };
        hub.subscribe(registration)
            .expect("engine built over the reduced spec");
    }
    let mut updates = 0u64;
    let mut checksum = CHECKSUM_SEED;
    let mut closes = 0u64;
    let mut close_elapsed = Duration::ZERO;
    let mut quiet_objects = 0u64;
    let mut quiet_elapsed = Duration::ZERO;
    let started = Instant::now();
    for c in data.chunks(chunk) {
        let before = Instant::now();
        let batch = hub.publish(c);
        let took = before.elapsed();
        if batch.is_empty() {
            quiet_objects += c.len() as u64;
            quiet_elapsed += took;
        } else {
            closes += 1;
            close_elapsed += took;
        }
        for u in batch {
            updates += 1;
            checksum = hub_checksum_fold(checksum, &u);
        }
    }
    let elapsed = started.elapsed();
    let stats = hub.stats();
    FloorRun {
        run: HubRun {
            elapsed,
            updates,
            checksum,
            digest_hits: 0,
            digest_rebuilds: 0,
        },
        stats,
        closes,
        close_elapsed,
        quiet_objects,
        quiet_elapsed,
    }
}

/// Which admission-knob position a `prune` preset arm runs over one
/// shared-timed-plane workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneArm {
    /// Admission pruning disabled (`Hub::set_admission_pruning(false)`):
    /// every predicate-passing object is buffered into its group's open
    /// slide — the reference the checksums are anchored to.
    Off,
    /// Dominance pruning only (the default knob position, pass-all
    /// predicates): objects strictly dominated by `k_max` already-admitted
    /// open-slide objects are dropped at the gate.
    Dominance,
    /// Dominance pruning plus a selective subscription predicate
    /// (`score ≥ 500` on a `1000·u⁴` skew): most objects are rejected
    /// before the gate is even consulted. The threshold sits far below
    /// every slide's top-`k_max`, so results stay byte-identical.
    DominancePredicate,
}

impl PruneArm {
    /// JSON/table label.
    pub fn label(&self) -> &'static str {
        match self {
            PruneArm::Off => "off",
            PruneArm::Dominance => "dominance",
            PruneArm::DominancePredicate => "dominance+predicate",
        }
    }
}

/// One measured `prune` configuration: whole-stream timing plus the
/// admission counters the pruning claim rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneRun {
    /// Whole-stream timing and equivalence evidence.
    pub run: HubRun,
    /// The hub's counters after the run ([`HubStats::pruned`] proves the
    /// gate fired; zero proves it could not have).
    pub stats: HubStats,
}

/// Skewed-score, gap-1 timed stream for the `prune` preset: scores are
/// `1000·u⁴` for uniform `u` (an LCG over `seed`), so most arrivals sit
/// far below each slide's top-`k_max` — exactly the regime ingest-side
/// dominance pruning targets — while the top of every slide stays well
/// above the [`PruneArm::DominancePredicate`] threshold.
pub fn prune_stream(len: usize, seed: u64) -> Vec<TimedObject> {
    let mut x = seed | 1;
    (0..len)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 11) as f64) / ((1u64 << 53) as f64);
            TimedObject::new(i as u64, i as u64, 1000.0 * u * u * u * u)
        })
        .collect()
}

/// Shared-timed-plane query mix for the `prune` preset: up to 1024
/// distinct slide durations spread across `[sd_base, 2·sd_base)` (each
/// founding one slide group), window durations spanning 1–2 slides,
/// `k` fixed per group in 1..=8 (so each group's `k_max` — the gate
/// capacity — stays small), algorithms cycling through the
/// shared-plane trio. With gap-1 arrivals over a `2·sd_base` stream,
/// every group buffers thousands of objects against a gate of at most
/// 8 and closes exactly one slide — the per-object ingest fan-out the
/// admission plane collapses dominates, while slide-close serving
/// (identical across arms by construction) stays rare.
pub fn prune_query_mix(count: usize, sd_base: u64) -> Vec<(Algo, TimedSpec)> {
    let algos = [Algo::Sap, Algo::MinTopK, Algo::KSkyband];
    let step = (sd_base / 1024).max(1);
    (0..count)
        .map(|i| {
            let g = (i % 1024) as u64;
            let sd = (sd_base + step * g).min(sd_base * 2 - 1);
            let m = 1 + (i / 1024) as u64 % 2;
            let k = 1 + (i % 8);
            let spec = TimedSpec::new(sd * m, sd, k).expect("mix spec is valid");
            (algos[(i / 2048) % 3], spec)
        })
        .collect()
}

/// Publishes a timed stream to a sequential [`Hub`] serving `mix` on
/// the shared digest plane with the admission knob in the chosen
/// [`PruneArm`] position. Checksums are comparable across arms over the
/// same inputs — equal iff the admission plane is result-invisible —
/// and the run records the hub's admitted/pruned counters.
pub fn run_prune(
    mix: &[(Algo, TimedSpec)],
    data: &[TimedObject],
    chunk: usize,
    arm: PruneArm,
) -> PruneRun {
    let mut hub = Hub::new();
    if arm == PruneArm::Off {
        hub.set_admission_pruning(false);
    }
    let predicate = match arm {
        PruneArm::DominancePredicate => Predicate::any().score_at_least(500.0),
        _ => Predicate::any(),
    };
    for (algo, spec) in mix {
        hub.subscribe(algo.shared(*spec).filter(predicate))
            .expect("engine built over the reduced spec");
    }
    let (run, stats) = run_timed_sequential_on(hub, data, chunk);
    PruneRun { run, stats }
}

/// One standing query of the `hotpath` preset's **mixed-model** set:
/// count-based, isolated time-based, or shared-plane time-based — the
/// three session flavors whose slide-completion paths the zero-allocation
/// refactor touches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HotQuery {
    /// A count-based session (`AnySession::Count`).
    Count(Algo, WindowSpec),
    /// An isolated Appendix-A adapter session (`AnySession::Timed`).
    Timed(Algo, TimedSpec),
    /// A shared-digest-plane session (`AnySession::Shared`).
    Shared(Algo, TimedSpec),
}

/// Mixed count/timed/shared query set for the `hotpath` preset, cycling
/// evenly through the three session flavors. Count geometries use small
/// slides (`s ∈ {10, 20, 50}`) and small `k`, so slide completion — the
/// path the allocation discipline targets — fires densely; timed slide
/// durations straddle a few multiples of the generated stream's ~25-unit
/// mean gap; shared entries use two distinct slide durations so digest
/// groups actually form.
pub fn hotpath_query_mix(count: usize) -> Vec<HotQuery> {
    let algos = [Algo::Sap, Algo::MinTopK, Algo::KSkyband];
    (0..count)
        .map(|i| {
            let algo = algos[(i / 3) % algos.len()];
            match i % 3 {
                0 => {
                    let s = [5usize, 10, 20][(i / 3) % 3];
                    let m = [4usize, 8, 16][(i / 9) % 3];
                    let k = 1 + (i % 3);
                    HotQuery::Count(
                        algo,
                        WindowSpec::new(s * m, k, s).expect("mix spec is valid"),
                    )
                }
                1 => {
                    let sd = [50u64, 100, 200][(i / 3) % 3];
                    let m = [4u64, 8][(i / 9) % 2];
                    let k = 1 + (i % 5);
                    HotQuery::Timed(
                        algo,
                        TimedSpec::new(sd * m, sd, k).expect("mix spec is valid"),
                    )
                }
                _ => {
                    let sd = [400u64, 800][(i / 3) % 2];
                    let m = [2u64, 4][(i / 9) % 2];
                    let k = 1 + (i % 10);
                    HotQuery::Shared(
                        algo,
                        TimedSpec::new(sd * m, sd, k).expect("mix spec is valid"),
                    )
                }
            }
        })
        .collect()
}

impl HotQuery {
    /// The registration this query describes.
    pub fn registration(&self) -> Registration {
        match *self {
            HotQuery::Count(algo, spec) => algo.count(spec),
            HotQuery::Timed(algo, spec) => algo.timed(spec),
            HotQuery::Shared(algo, spec) => algo.shared(spec),
        }
    }
}

/// One measured `hotpath` case: whole-stream equivalence evidence plus
/// steady-state (post-warm-up) throughput and allocator pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathRun {
    /// Wall-clock time of the steady phase (everything after warm-up,
    /// including the final watermark).
    pub elapsed: Duration,
    /// Objects published during the steady phase.
    pub steady_objects: u64,
    /// Heap allocations during the steady phase — `None` for sharded
    /// runs, whose worker threads share the process-global counter.
    pub steady_allocs: Option<u64>,
    /// `QueryUpdate`s delivered across the whole stream.
    pub updates: u64,
    /// Order-sensitive checksum over every update of the whole stream.
    pub checksum: u64,
    /// Digest-plane hit/rebuild counters (shared sessions only).
    pub digest_hits: u64,
    /// See [`HotpathRun::digest_hits`].
    pub digest_rebuilds: u64,
}

impl HotpathRun {
    /// Steady-phase ingest throughput.
    pub fn objects_per_sec(&self) -> f64 {
        self.steady_objects as f64 / self.elapsed.as_secs_f64()
    }

    /// Steady-phase allocations per published object — the
    /// `BENCH_hotpath.json` headline metric.
    pub fn allocs_per_object(&self) -> Option<f64> {
        self.steady_allocs
            .map(|a| a as f64 / self.steady_objects as f64)
    }
}

/// Publishes a timed stream to a sequential [`Hub`] serving the mixed
/// `mix`, in chunks of `chunk` objects. The first `warmup` objects warm
/// every pooled buffer (and the digest plane) without being measured;
/// the remainder — plus the final watermark — is timed, with the heap
/// pressure read from `allocations` (the caller's counting global
/// allocator). Checksums cover the whole stream and are comparable with
/// [`run_hotpath_sharded`].
pub fn run_hotpath(
    mix: &[HotQuery],
    data: &[TimedObject],
    chunk: usize,
    warmup: usize,
    allocations: &dyn Fn() -> u64,
) -> HotpathRun {
    let mut hub = hub_serving(mix.iter().map(HotQuery::registration));
    let horizon = data.last().map_or(0, |o| o.timestamp) + 1;
    let mut updates = 0u64;
    let mut checksum = CHECKSUM_SEED;
    let mut fold = |batch: Vec<QueryUpdate>| {
        for u in batch {
            updates += 1;
            checksum = hub_checksum_fold(checksum, &u);
        }
    };
    let warmup = warmup.min(data.len());
    for c in data[..warmup].chunks(chunk) {
        fold(hub.publish_timed(c));
    }
    let alloc_base = allocations();
    let started = Instant::now();
    for c in data[warmup..].chunks(chunk) {
        fold(hub.publish_timed(c));
    }
    fold(hub.advance_time(horizon));
    let elapsed = started.elapsed();
    let steady_allocs = allocations() - alloc_base;
    let stats = hub.stats();
    HotpathRun {
        elapsed,
        steady_objects: (data.len() - warmup) as u64,
        steady_allocs: Some(steady_allocs),
        updates,
        checksum,
        digest_hits: stats.digest_hits,
        digest_rebuilds: stats.digest_rebuilds,
    }
}

/// The sharded cross-check of [`run_hotpath`]: the same mixed set on an
/// [`AsyncHub`] with a worker per shard, draining per chunk — its
/// whole-stream checksum must equal the sequential run's. Allocations
/// are not attributed (worker threads share the global counter), so
/// `steady_allocs` is `None`.
pub fn run_hotpath_sharded(
    mix: &[HotQuery],
    data: &[TimedObject],
    chunk: usize,
    warmup: usize,
    shards: usize,
) -> HotpathRun {
    let mix = mix.iter().map(HotQuery::registration);
    let run = run_timed_async(mix, data, chunk, warmup, shards);
    HotpathRun {
        elapsed: run.elapsed,
        steady_objects: (data.len() - warmup.min(data.len())) as u64,
        steady_allocs: None,
        updates: run.updates,
        checksum: run.checksum,
        digest_hits: run.digest_hits,
        digest_rebuilds: run.digest_rebuilds,
    }
}

/// Formats seconds with millisecond precision.
pub fn secs(summary: &RunSummary) -> String {
    format!("{:.3}", summary.elapsed.as_secs_f64())
}

/// Formats the average candidate count.
pub fn cands(summary: &RunSummary) -> String {
    format!("{:.0}", summary.avg_candidates)
}

/// Formats the average candidate memory in KB (Appendix F's unit).
pub fn mem_kb(summary: &RunSummary) -> String {
    format!("{:.1}", summary.avg_memory_bytes / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_instantiate_and_run() {
        let spec = WindowSpec::new(200, 5, 10).unwrap();
        for algo in [
            Algo::Sap,
            Algo::SapDynamic,
            Algo::SapEqual,
            Algo::MinTopK,
            Algo::KSkyband,
            Algo::Sma,
            Algo::Naive,
        ] {
            let s = measure(algo, Dataset::TimeU, 2_000, spec, 1);
            assert_eq!(s.slides, 200, "{}", algo.label());
        }
    }

    #[test]
    fn identical_inputs_identical_checksums() {
        let spec = WindowSpec::new(100, 5, 10).unwrap();
        let data = Dataset::Stock.generate(2_000, 3);
        let a = measure_on(Algo::Sap, &data, spec);
        let b = measure_on(Algo::MinTopK, &data, spec);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn table_printer_roundtrip() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // must not panic
    }

    #[test]
    fn hub_runs_agree_across_shard_counts() {
        let mix = hub_query_mix(17);
        assert_eq!(mix.len(), 17);
        let data = Dataset::Stock.generate(3_000, 11);
        let seq = run_hub_sequential(&mix, &data, 250);
        assert!(seq.updates > 0);
        assert!(seq.objects_per_sec(data.len()).is_finite());
        for shards in [1, 2, 4] {
            let par = run_hub_sharded(&mix, &data, 250, shards);
            assert_eq!(par.updates, seq.updates, "shards={shards}");
            assert_eq!(par.checksum, seq.checksum, "shards={shards}");
        }
    }

    #[test]
    fn timed_hub_runs_agree_across_shard_counts() {
        use sap_stream::ArrivalProcess;
        let mix = timed_query_mix(13);
        assert!(mix.iter().any(|(_, s)| matches!(s, QuerySpec::Timed(_))));
        assert!(mix.iter().any(|(_, s)| matches!(s, QuerySpec::Count(_))));
        let data = Dataset::Stock.generate_timed(3_000, 11, ArrivalProcess::poisson(8.0));
        let seq = run_timed_hub_sequential(&mix, &data, 250);
        assert!(seq.updates > 0);
        for shards in [1, 2, 4] {
            let par = run_timed_hub_sharded(&mix, &data, 250, shards);
            assert_eq!(par.updates, seq.updates, "shards={shards}");
            assert_eq!(par.checksum, seq.checksum, "shards={shards}");
        }
    }

    #[test]
    fn hotpath_hubs_agree() {
        use sap_stream::ArrivalProcess;
        let mix = hotpath_query_mix(30);
        assert!(mix.iter().any(|q| matches!(q, HotQuery::Count(..))));
        assert!(mix.iter().any(|q| matches!(q, HotQuery::Timed(..))));
        assert!(mix.iter().any(|q| matches!(q, HotQuery::Shared(..))));
        let data = Dataset::Stock.generate_timed(4_000, 11, ArrivalProcess::poisson(25.0));
        // no counting allocator installed here: the counter input only
        // feeds the reported metric, not the run itself
        let none = || 0u64;
        let pooled = run_hotpath(&mix, &data, 250, 1_000, &none);
        assert!(pooled.updates > 0);
        assert_eq!(pooled.steady_objects, 3_000);
        assert!(pooled.digest_hits > 0, "shared members must share");
        for shards in [1, 2] {
            let par = run_hotpath_sharded(&mix, &data, 250, 1_000, shards);
            assert_eq!(par.checksum, pooled.checksum, "shards={shards}");
            assert_eq!(par.updates, pooled.updates, "shards={shards}");
            assert_eq!(par.steady_allocs, None);
        }
    }

    #[test]
    fn fanout_runs_match_isolated_serving() {
        let mix = fanout_query_mix(40);
        let data = Dataset::Stock.generate(3_000, 11);
        // chunk 125 halves the smallest slide (250), so every other
        // publish is quiet and the quiet-path split has data
        let iso = run_fanout_isolated(&mix, &data, 125);
        assert!(iso.run.updates > 0);
        assert!(
            iso.quiet_objects > 0,
            "sub-slide chunks must yield quiet publishes"
        );
        assert!(iso.quiet_ns_per_object().is_some_and(|ns| ns.is_finite()));
        assert_eq!(
            iso.stats.count_group_rebuilds, iso.run.updates,
            "every isolated count slide is a rebuild"
        );
        let grp = run_fanout_grouped(&mix, &data, 125);
        assert_eq!(grp.run.updates, iso.run.updates);
        assert_eq!(
            grp.run.checksum, iso.run.checksum,
            "grouping must not change results"
        );
        assert!(grp.quiet_objects > 0);
        assert_eq!(grp.stats.count_groups, 3, "three slide lengths, one offset");
        assert_eq!(grp.stats.grouped_queries, 40);
        assert!(
            grp.stats.count_group_hits > 0,
            "40 queries over 3 groups must share"
        );
        assert_eq!(
            grp.stats.count_group_rebuilds, 0,
            "no isolated count sessions"
        );
        for shards in [1, 2, 4] {
            let par = run_fanout_grouped_sharded(&mix, &data, 125, shards);
            assert_eq!(par.run.updates, iso.run.updates, "shards={shards}");
            assert_eq!(par.run.checksum, iso.run.checksum, "shards={shards}");
            assert!(par.stats.count_group_hits > 0, "shards={shards}");
            assert_eq!(par.quiet_objects, 0, "sharded quiet cost is unattributed");
        }
    }

    #[test]
    fn shared_runs_match_isolated_recomputation() {
        use sap_stream::ArrivalProcess;
        let mix = shared_query_mix(25);
        let data = Dataset::Stock.generate_timed(3_000, 11, ArrivalProcess::poisson(25.0));
        let iso = run_shared_isolated(&mix, &data, 250);
        assert!(iso.updates > 0);
        assert_eq!(iso.digest_hits, 0, "isolated adapters never share");
        let shared = run_shared_hub(&mix, &data, 250);
        assert_eq!(shared.updates, iso.updates);
        assert_eq!(
            shared.checksum, iso.checksum,
            "sharing must not change results"
        );
        assert!(
            shared.digest_hits > 0,
            "25 queries over 4 groups must share"
        );
        assert_eq!(shared.digest_rebuilds, 0, "all registered up front");
        for shards in [1, 2, 4] {
            let par = run_shared_hub_sharded(&mix, &data, 250, shards);
            assert_eq!(par.updates, iso.updates, "shards={shards}");
            assert_eq!(par.checksum, iso.checksum, "shards={shards}");
            assert!(par.digest_hits > 0, "shards={shards}");
        }
    }
}
