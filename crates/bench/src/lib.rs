//! Shared harness for regenerating the SAP paper's evaluation (§6 and
//! Appendices D–F) and measuring the serving layer: workload
//! construction, algorithm factories, paper-shaped table formatting, the
//! two hub runners, and the one record shape every `BENCH_*.json`
//! artifact uses.
//!
//! Scaling: the paper streams gigabytes through C++ on 2017 hardware; this
//! harness streams `|D|` objects (default 2×10⁵ per run) through Rust.
//! Parameters keep the paper's *ratios* (`k`, `s/n`, sweep shapes), so
//! relative behaviour — who wins, how costs scale along each axis — is
//! comparable even though absolute numbers differ.

use std::ops::Range;
use std::time::{Duration, Instant};

use sap_baselines::{KSkyband, MinTopK, NaiveTopK, Sma};
use sap_core::{Sap, SapConfig};
use sap_stream::generators::{Dataset, Workload};
use sap_stream::{
    checksum_fold, run, AsyncHub, EngineFactory, Hub, HubStats, Object, QuerySpec, Registration,
    RunSummary, SapError, Session, SlideResult, SlidingTopK, TimedObject, TimedSpec, WindowSpec,
    CHECKSUM_SEED,
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

    /// A count-based registration of `spec`: a member of its count
    /// group, the engine over [`WindowSpec::reduced`].
    pub fn count(&self, spec: WindowSpec) -> Registration {
        Registration::grouped(self.build(spec.reduced()), spec.n, spec.s)
    }

    /// A shared-digest-plane registration of `spec` — the plane every
    /// time-based query registers on.
    pub fn shared(&self, spec: TimedSpec) -> Registration {
        let engine = self.build(spec.reduced().expect("mix spec is valid"));
        Registration::shared(engine, spec.window_duration, spec.slide_duration)
    }

    /// The registration `register` makes for a count- or time-based
    /// `spec`: a member of its count group or of its slide group.
    pub fn registration(&self, spec: QuerySpec) -> Registration {
        match spec {
            QuerySpec::Count(spec) => self.count(spec),
            QuerySpec::Timed(spec) => self.shared(spec),
        }
    }
}

/// The harness's [`EngineFactory`]: rebuilds every engine the bench
/// mixes register ([`Algo::build`]) from the name a checkpoint recorded. The bench crate sits below the `sap`
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

/// Deterministic heterogeneous count-based query mix (the `async`
/// preset's `count` mix): cheap windows (so 10⁴ of them fit comfortably
/// in memory) cycling through SAP, MinTopK, and k-skyband with varied
/// `⟨n, k, s⟩`.
pub fn count_query_mix(count: usize) -> Vec<(Algo, WindowSpec)> {
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

/// Heterogeneous **mixed-model** query set (the `async` preset's `mixed`
/// mix): entries alternate between count-based geometries (the
/// [`count_query_mix`] shapes) and time-based geometries whose slide
/// durations straddle the stream's mean inter-arrival gap, so timed
/// slides range from packed to empty.
pub fn mixed_query_mix(count: usize) -> Vec<(Algo, QuerySpec)> {
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

/// Count-based query mix for the `fanout` preset: `count` queries over
/// only **three** distinct slide lengths (the million-query regime the
/// shared count plane targets), windows spanning 2–8 slides, `k` from 1
/// to 10. Registered together at stream offset 0, the mix collapses
/// into three geometry classes — `(s, 0)` for each distinct `s` — so
/// per-object ingest work is paid per class, not per query. Slides are
/// deliberately **coarse** (`s ≥ 250`): the per-object cost the plane
/// makes sub-linear is the ingest fan-out (every standalone session
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

/// Skewed-score, gap-1 timed stream for the `prune` preset: scores are
/// `1000·u⁴` for uniform `u` (an LCG over `seed`), so most arrivals sit
/// far below each slide's top-`k_max` — exactly the regime ingest-side
/// dominance pruning targets — while the top of every slide stays well
/// above the preset's `score ≥ 500` predicate threshold.
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

/// Mixed count/timed query set for the `hotpath` preset, cycling evenly
/// through one count-based and two time-based geometry families. Count
/// geometries use small slides (`s ∈ {10, 20, 50}`) and small `k`, so
/// slide completion — the path the allocation discipline targets — fires
/// densely; the first time-based family's slide durations straddle a few
/// multiples of the generated stream's ~25-unit mean gap, and the second
/// uses two longer slide durations, so digest groups of both sizes form.
pub fn hotpath_query_mix(count: usize) -> Vec<(Algo, QuerySpec)> {
    let algos = [Algo::Sap, Algo::MinTopK, Algo::KSkyband];
    (0..count)
        .map(|i| {
            let algo = algos[(i / 3) % algos.len()];
            let spec = match i % 3 {
                0 => {
                    let s = [5usize, 10, 20][(i / 3) % 3];
                    let m = [4usize, 8, 16][(i / 9) % 3];
                    let k = 1 + (i % 3);
                    QuerySpec::Count(WindowSpec::new(s * m, k, s).expect("mix spec is valid"))
                }
                1 => {
                    let sd = [50u64, 100, 200][(i / 3) % 3];
                    let m = [4u64, 8][(i / 9) % 2];
                    let k = 1 + (i % 5);
                    QuerySpec::Timed(TimedSpec::new(sd * m, sd, k).expect("mix spec is valid"))
                }
                _ => {
                    let sd = [400u64, 800][(i / 3) % 2];
                    let m = [2u64, 4][(i / 9) % 2];
                    let k = 1 + (i % 10);
                    QuerySpec::Timed(TimedSpec::new(sd * m, sd, k).expect("mix spec is valid"))
                }
            };
            (algo, spec)
        })
        .collect()
}

/// Subscribes every registration in `mix` on a sequential `hub`.
pub fn serve(mut hub: Hub, mix: impl IntoIterator<Item = Registration>) -> Hub {
    for registration in mix {
        hub.subscribe(registration).expect("bench mixes are valid");
    }
    hub
}

/// Subscribes every registration in `mix` on an [`AsyncHub`].
pub fn serve_async(mut hub: AsyncHub, mix: impl IntoIterator<Item = Registration>) -> AsyncHub {
    for registration in mix {
        hub.subscribe(registration).expect("bench mixes are valid");
    }
    hub
}

/// Folds one update into the running hub checksum: the slide index and
/// the driver's snapshot checksum. Updates must be fed in `(QueryId,
/// slide)` order for cross-run comparability — exactly the order
/// `AsyncHub::drain` returns, the order the sequential hub's per-publish
/// batches already have, and the order [`Standalone`] serves.
pub fn hub_checksum_fold(acc: u64, result: &SlideResult) -> u64 {
    let tagged = [
        Object::new(result.slide, 0.0),
        Object::new(result.snapshot.len() as u64, 0.0),
    ];
    checksum_fold(checksum_fold(acc, &tagged), &result.snapshot)
}

/// The input a hub run publishes.
#[derive(Debug, Clone, Copy)]
pub enum Stream<'a> {
    /// Count-based input, published with `publish`.
    Count(&'a [Object]),
    /// Timestamped input, published with `publish_timed`; the run ends
    /// with a watermark past the last timestamp, closing every slide.
    Timed(&'a [TimedObject]),
}

impl<'a> Stream<'a> {
    fn len(&self) -> usize {
        match self {
            Stream::Count(data) => data.len(),
            Stream::Timed(data) => data.len(),
        }
    }

    fn slice(self, range: Range<usize>) -> Stream<'a> {
        match self {
            Stream::Count(data) => Stream::Count(&data[range]),
            Stream::Timed(data) => Stream::Timed(&data[range]),
        }
    }

    fn chunks(self, size: usize) -> impl Iterator<Item = Stream<'a>> {
        let len = self.len();
        (0..len)
            .step_by(size)
            .map(move |lo| self.slice(lo..(lo + size).min(len)))
    }

    /// The closing watermark of a timed stream.
    fn horizon(&self) -> Option<u64> {
        match self {
            Stream::Count(_) => None,
            Stream::Timed(data) => Some(data.last().map_or(0, |o| o.timestamp) + 1),
        }
    }
}

/// How a runner publishes its [`Stream`].
#[derive(Debug, Clone, Copy)]
pub struct Feed<'a> {
    /// The input.
    pub stream: Stream<'a>,
    /// Objects per publish call; the async runner drains after each.
    pub chunk: usize,
    /// Leading objects published before the clock and the allocation
    /// count start. The run's updates and checksum still cover them.
    pub warmup: usize,
    /// A process-wide allocation counter, read around the timed phase.
    pub allocations: Option<fn() -> u64>,
    /// A run this one continues: its updates and checksum are the
    /// starting point, so a run resumed on a restored hub lands on the
    /// checksum of the uninterrupted run.
    pub resume: Option<&'a Run>,
}

impl<'a> Feed<'a> {
    /// `stream` in chunks of `chunk` objects, timed from the first.
    pub fn new(stream: Stream<'a>, chunk: usize) -> Feed<'a> {
        Feed {
            stream,
            chunk,
            warmup: 0,
            allocations: None,
            resume: None,
        }
    }
}

/// How a sequential run's timed publishes divide: calls that completed
/// no slide anywhere (pure ingest) and calls that completed at least one
/// (serving).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Split {
    /// Objects published by quiet calls.
    pub quiet_objects: u64,
    /// Wall-clock total of the quiet calls.
    pub quiet: Duration,
    /// Calls that completed a slide.
    pub closes: u64,
    /// Wall-clock total of those calls.
    pub close: Duration,
}

/// One measured hub run: what every `BENCH_*.json` record holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Wall-clock time of the timed phase: every publish after the
    /// warm-up, the async hub's drains, and a timed stream's closing
    /// watermark.
    pub elapsed: Duration,
    /// Objects published in the timed phase.
    pub objects: u64,
    /// `QueryUpdate`s delivered over the whole stream (and the resumed
    /// run, if any).
    pub updates: u64,
    /// Order-sensitive fold of those updates ([`hub_checksum_fold`]):
    /// equal between runs iff they delivered identical results.
    pub checksum: u64,
    /// The hub's counters after the run.
    pub stats: HubStats,
    /// The quiet/close split of the timed publishes; `None` on the async
    /// hub, whose per-call cost spreads over its worker threads.
    pub split: Option<Split>,
    /// Heap allocations in the timed phase, if the feed counted them.
    pub allocs: Option<u64>,
}

impl Run {
    /// Objects per second of the timed phase.
    pub fn objects_per_sec(&self) -> f64 {
        self.objects as f64 / self.elapsed.as_secs_f64()
    }
}

/// What the runners need from a server.
trait Serve {
    /// Publishes one chunk, handing every update it completed to `fold`
    /// in `(QueryId, slide)` order.
    fn serve(&mut self, chunk: Stream<'_>, fold: &mut dyn FnMut(&SlideResult));
    /// Advances the watermark, handing every update it completed to
    /// `fold`.
    fn close(&mut self, horizon: u64, fold: &mut dyn FnMut(&SlideResult));
    /// The hub's counters.
    fn counters(&mut self) -> HubStats;
}

impl Serve for Hub {
    fn serve(&mut self, chunk: Stream<'_>, fold: &mut dyn FnMut(&SlideResult)) {
        let updates = match chunk {
            Stream::Count(data) => self.publish(data),
            Stream::Timed(data) => self.publish_timed(data),
        };
        updates.iter().for_each(|u| fold(&u.result));
    }

    fn close(&mut self, horizon: u64, fold: &mut dyn FnMut(&SlideResult)) {
        self.advance_time(horizon)
            .iter()
            .for_each(|u| fold(&u.result));
    }

    fn counters(&mut self) -> HubStats {
        self.stats()
    }
}

impl Serve for AsyncHub {
    fn serve(&mut self, chunk: Stream<'_>, fold: &mut dyn FnMut(&SlideResult)) {
        match chunk {
            Stream::Count(data) => self.publish(data),
            Stream::Timed(data) => self.publish_timed(data),
        }
        .expect("no engine panics in the bench mixes");
        let updates = self.drain().expect("no engine panics in the bench mixes");
        updates.iter().for_each(|u| fold(&u.result));
    }

    fn close(&mut self, horizon: u64, fold: &mut dyn FnMut(&SlideResult)) {
        self.advance_time(horizon)
            .expect("no engine panics in the bench mixes");
        let updates = self.drain().expect("no engine panics in the bench mixes");
        updates.iter().for_each(|u| fold(&u.result));
    }

    fn counters(&mut self) -> HubStats {
        self.stats().expect("no engine panics in the bench mixes")
    }
}

/// Standalone [`Session`]s over one count stream, each fed every chunk in
/// turn — the serving baseline without sharing. Its counters report the
/// query count only.
pub struct Standalone(Vec<Session<Box<dyn SlidingTopK + Send>>>);

impl Standalone {
    /// One session per engine, in the order given (the `QueryId` order
    /// a hub would assign).
    pub fn new(engines: impl IntoIterator<Item = Box<dyn SlidingTopK + Send>>) -> Standalone {
        Standalone(engines.into_iter().map(Session::new).collect())
    }
}

impl Serve for Standalone {
    fn serve(&mut self, chunk: Stream<'_>, fold: &mut dyn FnMut(&SlideResult)) {
        let Stream::Count(data) = chunk else {
            panic!("standalone sessions serve count streams")
        };
        for session in &mut self.0 {
            session.push_each(data, &mut |result| fold(&result));
        }
    }

    fn close(&mut self, _: u64, _: &mut dyn FnMut(&SlideResult)) {}

    fn counters(&mut self) -> HubStats {
        HubStats {
            queries: self.0.len(),
            ..HubStats::default()
        }
    }
}

/// Publishes `feed` to a sequential [`Hub`], timing every call so the
/// run carries its quiet/close [`Split`].
pub fn run_sequential(hub: &mut Hub, feed: &Feed<'_>) -> Run {
    run_on(hub, feed, true)
}

/// Publishes a count `feed` to [`Standalone`] sessions, timed and split
/// like [`run_sequential`].
pub fn run_standalone(sessions: &mut Standalone, feed: &Feed<'_>) -> Run {
    run_on(sessions, feed, true)
}

/// Publishes `feed` to an [`AsyncHub`], draining after every chunk
/// (which bounds the shard-side update accumulation and exercises the
/// determinism barrier); the timing covers publish and drain.
pub fn run_async(hub: &mut AsyncHub, feed: &Feed<'_>) -> Run {
    run_on(hub, feed, false)
}

fn run_on(hub: &mut impl Serve, feed: &Feed<'_>, attribute: bool) -> Run {
    let len = feed.stream.len();
    let warmup = feed.warmup.min(len);
    // (updates, checksum), folded in delivery order
    let mut folded = feed
        .resume
        .map_or((0, CHECKSUM_SEED), |r| (r.updates, r.checksum));
    let mut fold = |result: &SlideResult| {
        folded.0 += 1;
        folded.1 = hub_checksum_fold(folded.1, result);
    };
    for chunk in feed.stream.slice(0..warmup).chunks(feed.chunk) {
        hub.serve(chunk, &mut fold);
    }
    let allocs_before = feed.allocations.map(|count| count());
    let mut split = Split::default();
    let started = Instant::now();
    for chunk in feed.stream.slice(warmup..len).chunks(feed.chunk) {
        let before = Instant::now();
        let mut quiet = true;
        hub.serve(chunk, &mut |result| {
            quiet = false;
            fold(result);
        });
        let took = before.elapsed();
        if quiet {
            split.quiet_objects += chunk.len() as u64;
            split.quiet += took;
        } else {
            split.closes += 1;
            split.close += took;
        }
    }
    if let Some(horizon) = feed.stream.horizon() {
        hub.close(horizon, &mut fold);
    }
    let elapsed = started.elapsed();
    let (updates, checksum) = folded;
    let allocs = feed
        .allocations
        .zip(allocs_before)
        .map(|(count, before)| count() - before);
    Run {
        elapsed,
        objects: (len - warmup) as u64,
        updates,
        checksum,
        stats: hub.counters(),
        split: attribute.then_some(split),
        allocs,
    }
}

/// One row of a `BENCH_*.json` artifact: a [`Run`] and its labels.
#[derive(Debug, Clone)]
pub struct Record {
    /// The serving shape measured (`sequential`, `grouped-async`, ...).
    pub arm: &'static str,
    /// The query mix served. Rows with equal `(mix, queries)` replay the
    /// same stream to the same queries, so they must agree on updates
    /// and checksum.
    pub mix: &'static str,
    /// Registered queries.
    pub queries: usize,
    /// Logical shards (1 on the sequential hub).
    pub shards: usize,
    /// Worker threads (1 on the sequential hub).
    pub workers: usize,
    /// The measurement.
    pub run: Run,
    /// Preset-specific numbers beyond the run's own.
    pub extra: Vec<(&'static str, f64)>,
}

impl Record {
    /// A sequential-hub row.
    pub fn new(arm: &'static str, mix: &'static str, queries: usize, run: Run) -> Record {
        Record {
            arm,
            mix,
            queries,
            shards: 1,
            workers: 1,
            run,
            extra: Vec::new(),
        }
    }

    /// The row of a run on `shards` logical shards and `workers` threads.
    pub fn on(self, shards: usize, workers: usize) -> Record {
        Record {
            shards,
            workers,
            ..self
        }
    }

    /// Adds a preset-specific number.
    pub fn with(mut self, metric: &'static str, value: f64) -> Record {
        self.extra.push((metric, value));
        self
    }

    /// The record's `metrics`: the split (per object quiet, per member
    /// close), the allocations, then the preset's own numbers.
    fn metrics(&self) -> Vec<(&'static str, Option<f64>)> {
        let mut metrics = Vec::new();
        if let Some(s) = self.run.split {
            let members = s.closes as f64 * self.queries as f64;
            metrics.extend([
                ("quiet_objects", Some(s.quiet_objects as f64)),
                (
                    "quiet_ns_per_object",
                    (s.quiet_objects > 0)
                        .then(|| s.quiet.as_secs_f64() * 1e9 / s.quiet_objects as f64),
                ),
                ("closes", Some(s.closes as f64)),
                (
                    "close_us_per_member",
                    (members > 0.0).then(|| s.close.as_secs_f64() * 1e6 / members),
                ),
            ]);
        }
        if let Some(allocs) = self.run.allocs {
            metrics.extend([
                ("allocs", Some(allocs as f64)),
                (
                    "allocs_per_object",
                    Some(allocs as f64 / self.run.objects as f64),
                ),
            ]);
        }
        metrics.extend(self.extra.iter().map(|&(name, v)| (name, Some(v))));
        metrics
    }

    fn json(&self) -> String {
        let run = &self.run;
        let elapsed = run.elapsed.as_secs_f64();
        let metrics: Vec<String> = self
            .metrics()
            .into_iter()
            .map(|(name, v)| format!("\"{name}\": {}", v.map_or("null".into(), |v| num(v, 6))))
            .collect();
        format!(
            "{{\"arm\": \"{}\", \"mix\": \"{}\", \"queries\": {}, \"shards\": {}, \"workers\": {}, \"objects\": {}, \"elapsed_s\": {}, \"objects_per_sec\": {}, \"ns_per_object\": {}, \"updates\": {}, \"checksum\": {}, \"counters\": {}, \"metrics\": {{{}}}}}",
            self.arm,
            self.mix,
            self.queries,
            self.shards,
            self.workers,
            run.objects,
            num(elapsed, 6),
            num(run.objects_per_sec(), 6),
            num(elapsed * 1e9 / run.objects as f64, 6),
            run.updates,
            run.checksum,
            counters_json(&run.stats),
            metrics.join(", ")
        )
    }
}

/// Every [`HubStats`] field as a JSON object. The destructuring is
/// exhaustive, so a new counter fails to compile until it is recorded.
fn counters_json(stats: &HubStats) -> String {
    let HubStats {
        queries,
        shared_queries,
        digest_groups,
        digest_hits,
        digest_rebuilds,
        grouped_queries,
        count_groups,
        count_group_hits,
        admitted,
        pruned,
        result_classes,
        class_hits,
        publisher_parks,
        queue_depth_hwm,
    } = *stats;
    format!(
        "{{\"queries\": {queries}, \"shared_queries\": {shared_queries}, \"digest_groups\": {digest_groups}, \"digest_hits\": {digest_hits}, \"digest_rebuilds\": {digest_rebuilds}, \"grouped_queries\": {grouped_queries}, \"count_groups\": {count_groups}, \"count_group_hits\": {count_group_hits}, \"admitted\": {admitted}, \"pruned\": {pruned}, \"result_classes\": {result_classes}, \"class_hits\": {class_hits}, \"publisher_parks\": {publisher_parks}, \"queue_depth_hwm\": {queue_depth_hwm}}}"
    )
}

/// A finite number to `decimals` places, without trailing zeros.
fn num(v: f64, decimals: usize) -> String {
    assert!(v.is_finite(), "non-finite measurement {v}");
    let s = format!("{v:.decimals$}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// A preset's `BENCH_<preset>.json` artifact:
/// `{preset, host_cpus, params, records}`.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The preset name (the artifact is `BENCH_<preset>.json`).
    pub preset: &'static str,
    /// Workload parameters, each value already rendered as JSON.
    pub params: Vec<(&'static str, String)>,
    /// One row per measured run.
    pub records: Vec<Record>,
}

impl Artifact {
    /// An artifact with no parameters or records yet.
    pub fn new(preset: &'static str) -> Artifact {
        Artifact {
            preset,
            params: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Adds a numeric parameter.
    pub fn param(mut self, name: &'static str, value: impl std::fmt::Display) -> Artifact {
        self.params.push((name, value.to_string()));
        self
    }

    /// Adds a text parameter.
    pub fn text(mut self, name: &'static str, value: &str) -> Artifact {
        self.params.push((name, format!("\"{value}\"")));
        self
    }

    /// Asserts what every artifact must hold before it is written: finite,
    /// positive throughput and updates on every row, and equal updates and
    /// checksums on rows with equal `(mix, queries)`.
    fn check(&self) {
        for (i, r) in self.records.iter().enumerate() {
            let ops = r.run.objects_per_sec();
            let label = format!("[{}] {}({}x{})", self.preset, r.arm, r.shards, r.workers);
            assert!(
                ops.is_finite() && ops > 0.0,
                "{label}: non-finite or zero throughput ({ops})"
            );
            assert!(r.run.updates > 0, "{label}: no updates");
            let first = self.records[..i]
                .iter()
                .find(|f| (f.mix, f.queries) == (r.mix, r.queries));
            if let Some(f) = first {
                assert_eq!(
                    (r.run.updates, r.run.checksum),
                    (f.run.updates, f.run.checksum),
                    "{label} diverged from {} on the {} mix at {} queries",
                    f.arm,
                    r.mix,
                    r.queries
                );
            }
        }
    }

    /// The artifact as JSON, one record per line.
    fn json(&self, host_cpus: usize) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        let records: Vec<String> = self
            .records
            .iter()
            .map(|r| format!("    {}", r.json()))
            .collect();
        format!(
            "{{\n  \"preset\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"params\": {{{}}},\n  \"records\": [\n{}\n  ]\n}}\n",
            self.preset,
            params.join(", "),
            records.join(",\n")
        )
    }

    /// Prints the records as one table.
    fn print(&self) {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        let mut t = Table::new(
            format!("{}: {}", self.preset, params.join(" ")),
            &[
                "arm",
                "mix",
                "queries",
                "shards",
                "workers",
                "seconds",
                "objects/s",
                "updates",
                "metrics",
            ],
        );
        for r in &self.records {
            let metrics: Vec<String> = r
                .metrics()
                .into_iter()
                .filter_map(|(name, v)| v.map(|v| format!("{name}={}", num(v, 3))))
                .collect();
            t.row(vec![
                r.arm.into(),
                r.mix.into(),
                r.queries.to_string(),
                r.shards.to_string(),
                r.workers.to_string(),
                format!("{:.3}", r.run.elapsed.as_secs_f64()),
                format!("{:.0}", r.run.objects_per_sec()),
                r.run.updates.to_string(),
                metrics.join(" "),
            ]);
        }
        t.print();
    }

    /// Checks, prints, and writes the artifact to `path`.
    pub fn write(&self, path: &str) {
        self.check();
        self.print();
        let host_cpus = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        std::fs::write(path, self.json(host_cpus)).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path} (host_cpus = {host_cpus})");
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
    use sap_stream::{ArrivalProcess, QueryId, QueryUpdate, TimedSession};

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
        let mix = count_query_mix(17);
        assert_eq!(mix.len(), 17);
        let data = Dataset::Stock.generate(3_000, 11);
        let feed = Feed::new(Stream::Count(&data), 250);
        let regs = || mix.iter().map(|(algo, spec)| algo.count(*spec));
        let seq = run_sequential(&mut serve(Hub::new(), regs()), &feed);
        assert!(seq.updates > 0);
        assert!(seq.objects_per_sec().is_finite());
        for shards in [1, 2, 4] {
            let par = run_async(
                &mut serve_async(AsyncHub::new(shards, shards), regs()),
                &feed,
            );
            assert_eq!(par.updates, seq.updates, "shards={shards}");
            assert_eq!(par.checksum, seq.checksum, "shards={shards}");
        }
    }

    #[test]
    fn timed_hub_runs_agree_across_shard_counts() {
        let mix = mixed_query_mix(13);
        assert!(mix.iter().any(|(_, s)| matches!(s, QuerySpec::Timed(_))));
        assert!(mix.iter().any(|(_, s)| matches!(s, QuerySpec::Count(_))));
        let data = Dataset::Stock.generate_timed(3_000, 11, ArrivalProcess::poisson(8.0));
        let feed = Feed::new(Stream::Timed(&data), 250);
        let regs = || mix.iter().map(|(algo, spec)| algo.registration(*spec));
        let seq = run_sequential(&mut serve(Hub::new(), regs()), &feed);
        assert!(seq.updates > 0);
        for shards in [1, 2, 4] {
            let par = run_async(
                &mut serve_async(AsyncHub::new(shards, shards), regs()),
                &feed,
            );
            assert_eq!(par.updates, seq.updates, "shards={shards}");
            assert_eq!(par.checksum, seq.checksum, "shards={shards}");
        }
    }

    #[test]
    fn hotpath_hubs_agree() {
        let mix = hotpath_query_mix(30);
        assert!(mix.iter().any(|(_, s)| matches!(s, QuerySpec::Count(_))));
        assert!(mix.iter().any(|(_, s)| matches!(s, QuerySpec::Timed(_))));
        let data = Dataset::Stock.generate_timed(4_000, 11, ArrivalProcess::poisson(25.0));
        let regs = || mix.iter().map(|(algo, spec)| algo.registration(*spec));
        // no counting allocator installed here: the counter input only
        // feeds the reported metric, not the run itself
        let counted = Feed {
            warmup: 1_000,
            allocations: Some(|| 0),
            ..Feed::new(Stream::Timed(&data), 250)
        };
        let pooled = run_sequential(&mut serve(Hub::new(), regs()), &counted);
        assert!(pooled.updates > 0);
        assert_eq!(pooled.objects, 3_000);
        assert_eq!(pooled.allocs, Some(0));
        assert!(pooled.stats.digest_hits > 0, "shared members must share");
        let uncounted = Feed {
            allocations: None,
            ..counted
        };
        for shards in [1, 2] {
            let par = run_async(
                &mut serve_async(AsyncHub::new(shards, shards), regs()),
                &uncounted,
            );
            assert_eq!(par.checksum, pooled.checksum, "shards={shards}");
            assert_eq!(par.updates, pooled.updates, "shards={shards}");
            assert_eq!(par.allocs, None);
        }
    }

    #[test]
    fn fanout_runs_match_standalone_sessions() {
        let mix = fanout_query_mix(40);
        let data = Dataset::Stock.generate(3_000, 11);
        // chunk 125 halves the smallest slide (250), so every other
        // publish is quiet and the quiet-path split has data
        let feed = Feed::new(Stream::Count(&data), 125);
        let grouped = || mix.iter().map(|(algo, spec)| algo.count(*spec));
        let engines = mix.iter().map(|(algo, spec)| algo.build(*spec));
        let iso = run_standalone(&mut Standalone::new(engines), &feed);
        assert!(iso.updates > 0);
        let split = iso.split.expect("standalone runs split");
        assert!(
            split.quiet_objects > 0,
            "sub-slide chunks must yield quiet publishes"
        );
        assert!((split.quiet.as_secs_f64() * 1e9 / split.quiet_objects as f64).is_finite());
        assert_eq!(iso.stats.queries, 40);
        let grp = run_sequential(&mut serve(Hub::new(), grouped()), &feed);
        assert_eq!(grp.updates, iso.updates);
        assert_eq!(
            grp.checksum, iso.checksum,
            "grouping must not change results"
        );
        assert!(grp.split.is_some_and(|s| s.quiet_objects > 0));
        assert_eq!(grp.stats.count_groups, 3, "three slide lengths, one offset");
        assert_eq!(grp.stats.grouped_queries, 40);
        assert!(
            grp.stats.count_group_hits > 0,
            "40 queries over 3 groups must share"
        );
        for shards in [1, 2, 4] {
            let par = run_async(
                &mut serve_async(AsyncHub::new(shards, shards), grouped()),
                &feed,
            );
            assert_eq!(par.updates, iso.updates, "shards={shards}");
            assert_eq!(par.checksum, iso.checksum, "shards={shards}");
            assert!(par.stats.count_group_hits > 0, "shards={shards}");
            assert_eq!(par.split, None, "async quiet cost is unattributed");
        }
    }

    #[test]
    fn shared_runs_match_isolated_recomputation() {
        let mix = shared_query_mix(25);
        let data = Dataset::Stock.generate_timed(3_000, 11, ArrivalProcess::poisson(25.0));
        let feed = Feed::new(Stream::Timed(&data), 250);
        let shared = || mix.iter().map(|(algo, spec)| algo.shared(*spec));
        // the reference: a standalone Appendix-A session per query, fed
        // the same chunks
        let mut hub = serve(Hub::new(), shared());
        let ids: Vec<QueryId> = hub.query_ids().collect();
        let mut sessions: Vec<_> = mix
            .iter()
            .map(|(algo, spec)| {
                let engine = algo.build(spec.reduced().unwrap());
                TimedSession::new(engine, spec.window_duration, spec.slide_duration).unwrap()
            })
            .collect();
        for chunk in data.chunks(250) {
            let mut expected = Vec::new();
            for (&query, session) in ids.iter().zip(&mut sessions) {
                let slides = session.push_timed(chunk).into_iter();
                expected.extend(slides.map(|result| QueryUpdate { query, result }));
            }
            assert_eq!(hub.publish_timed(chunk), expected);
        }
        let shr = run_sequential(&mut serve(Hub::new(), shared()), &feed);
        assert!(shr.updates > 0);
        assert!(
            shr.stats.digest_hits > 0,
            "25 queries over 4 groups must share"
        );
        assert_eq!(shr.stats.digest_rebuilds, 0, "all registered up front");
        for shards in [1, 2, 4] {
            let par = run_async(
                &mut serve_async(AsyncHub::new(shards, shards), shared()),
                &feed,
            );
            assert_eq!(par.updates, shr.updates, "shards={shards}");
            assert_eq!(par.checksum, shr.checksum, "shards={shards}");
            assert!(par.stats.digest_hits > 0, "shards={shards}");
        }
    }

    #[test]
    fn resumed_run_lands_on_the_uninterrupted_checksum() {
        let mix = count_query_mix(9);
        let data = Dataset::Stock.generate(2_000, 5);
        let regs = || mix.iter().map(|(algo, spec)| algo.count(*spec));
        let whole = run_sequential(
            &mut serve(Hub::new(), regs()),
            &Feed::new(Stream::Count(&data), 200),
        );
        let mut hub = serve(Hub::new(), regs());
        let head = run_sequential(&mut hub, &Feed::new(Stream::Count(&data[..1_000]), 200));
        let mut restored = Hub::restore(&hub.checkpoint(), &BenchEngineFactory).unwrap();
        let tail = Feed {
            resume: Some(&head),
            ..Feed::new(Stream::Count(&data[1_000..]), 200)
        };
        let rest = run_sequential(&mut restored, &tail);
        assert_eq!(
            (rest.updates, rest.checksum),
            (whole.updates, whole.checksum)
        );
        assert_eq!(rest.objects, 1_000);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn artifact_check_rejects_divergent_rows() {
        let data = Dataset::Stock.generate(1_000, 5);
        let mix = count_query_mix(4);
        let feed = Feed::new(Stream::Count(&data), 100);
        let run = run_sequential(
            &mut serve(Hub::new(), mix.iter().map(|(algo, spec)| algo.count(*spec))),
            &feed,
        );
        let mut other = run.clone();
        other.checksum ^= 1;
        let mut artifact = Artifact::new("demo").param("len", 1_000);
        artifact.records = vec![
            Record::new("a", "count", 4, run),
            Record::new("b", "count", 4, other),
        ];
        artifact.check();
    }
}
