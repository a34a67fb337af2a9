//! The three workloads and the phases that drive them.
//!
//! Every workload runs the same shape: set-up (build the hub, register
//! the population, publish the warm-up prefix that fills the widest
//! window), a closed-loop saturation phase (next batch as soon as the
//! previous call returns), and an open-loop paced phase at a fixed rate.
//! The workloads differ in which layer the time goes to; see
//! `BENCHMARK.json` for why each was chosen.

use std::time::{Duration, Instant};

use sap::prelude::*;

use crate::feed::Feed;
use crate::oracle::{self, Recorder, Sub};
use crate::pacer::Pacer;
use crate::stats::Samples;
use crate::trace::Tracer;

/// The workloads the binary runs. `BENCHMARK.json` lists `paper-engine`
/// and `filtered-async`; `fanout-classed` runs by hand.
pub const NAMES: [&str; 3] = ["paper-engine", "fanout-classed", "filtered-async"];

/// Objects in the seeded base block of a stream, unless its design
/// repeats a shorter one.
const BASE_LEN: usize = 1 << 20;
/// Subscriptions of the static population the oracle watches.
const SAMPLE: usize = 64;
/// Watched updates kept for comparison with a recompute.
const KEEP: usize = 1024;
/// `filtered-async` registers one subscription and unregisters one every
/// this many batches.
const CHURN_EVERY: u64 = 10;
/// `filtered-async` checkpoints the hub after the batch that crosses each
/// multiple of this many time units. It is the least common multiple of
/// the slide durations, so the checkpoint follows the drain of the slides
/// every group just closed instead of delaying them, and every checkpoint
/// interval (a cycle of the async hub) sees the same closes. A paced
/// window starts at a checkpoint and spans about 3500 time units, so it
/// sees exactly two closes, of the 2000 and the 3000 group.
const CHECKPOINT_TIME: u64 = 24_000;

/// The sharing plane a registration goes to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plane {
    Isolated,
    Grouped,
    Shared,
}

/// Every registration the benchmark makes goes through here, so a change
/// to the registration API changes this one function.
pub fn enroll<H: HubExt>(hub: &mut H, plane: Plane, query: &Query) -> Result<QueryId, SapError> {
    match plane {
        Plane::Isolated => hub.register(query),
        Plane::Grouped => hub.register_grouped(query),
        Plane::Shared => hub.register_shared(query),
    }
}

/// A workload's fixed definition; only the stream depends on the seed.
#[derive(Debug)]
pub struct Design {
    pub name: &'static str,
    pub plane: Plane,
    pub population: Vec<Query>,
    /// Objects per publish.
    pub batch: usize,
    /// Rate of the paced phase, objects per second.
    pub paced_rate: f64,
    /// `(logical shards, workers)` of an `AsyncHub` fed a timed stream;
    /// `None` for a sequential `Hub` fed a count stream.
    pub exec: Option<(usize, usize)>,
    /// Objects in the seeded base block the stream repeats.
    pub base_len: usize,
    /// Whether a cycle also spans whole passes over the base block, so
    /// that every slice and window does the same work on the same data.
    pub whole_passes: bool,
}

impl Design {
    /// Batches after which every count query's slides line up again: a
    /// measurement over whole cycles sees every kind of slide close in
    /// its proper share.
    fn cycle_batches(&self) -> u64 {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let lcm = |a: u64, b: u64| a / gcd(a, b) * b;
        let start = if self.whole_passes {
            lcm(self.batch as u64, self.base_len as u64)
        } else {
            self.batch as u64
        };
        let lcm = self
            .population
            .iter()
            .map(Sub::of)
            .fold(start, |acc, sub| match sub.window {
                oracle::Window::Count { s, .. } => lcm(acc, s as u64),
                oracle::Window::Timed { .. } => acc,
            });
        lcm / self.batch as u64
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The named workload.
pub fn design(name: &str) -> Option<Design> {
    match name {
        // 12 isolated SAP queries at the paper's scale: the engines do
        // almost all the work. Their cost follows the data's trends, so
        // the stream repeats a block of a few hundred milliseconds' work
        // and every slice and window covers whole passes over it.
        "paper-engine" => {
            let mut population = Vec::new();
            for n in [10_000, 20_000] {
                for k in [10, 50, 100] {
                    for s in [10, 100] {
                        let q = Query::window(n).top(k).slide(s);
                        population.push(q.algorithm(AlgorithmKind::sap()));
                    }
                }
            }
            Some(Design {
                name: "paper-engine",
                plane: Plane::Isolated,
                population,
                batch: 10,
                paced_rate: 60_000.0,
                exec: None,
                base_len: 128_000,
                whole_passes: true,
            })
        }
        // 10⁵ grouped count subscriptions in 15 count groups: slide-close
        // fan-out (class reduction plus one update per member) dominates
        "fanout-classed" => {
            let population = (0..100_000)
                .map(|i| {
                    let s = [100, 250, 500][i % 3];
                    let m = [2, 4, 8][(i / 3) % 3];
                    let tagged = i % 4 == 3;
                    // tagged members use fewer distinct k, so the
                    // population forms about 270 result classes
                    let k = 1 + (i / 9) % if tagged { 5 } else { 10 };
                    let q = Query::window(s * m).top(k).slide(s);
                    if tagged {
                        q.filter(Predicate::any().tag(4, ((i / 4) % 4) as u64))
                    } else {
                        q
                    }
                })
                .collect();
            Some(Design {
                name: "fanout-classed",
                plane: Plane::Grouped,
                population,
                batch: 50,
                paced_rate: 800.0,
                exec: None,
                base_len: BASE_LEN,
                whole_passes: false,
            })
        }
        // 10⁵ shared timed subscriptions, 7 in 8 behind one of 256 tag
        // predicates, on an async hub with control-plane writes
        "filtered-async" => {
            let population = (0..100_000).map(filtered_async_query).collect();
            Some(Design {
                name: "filtered-async",
                plane: Plane::Shared,
                population,
                batch: 100,
                paced_rate: 3_500.0,
                exec: Some((32, workers())),
                base_len: BASE_LEN,
                whole_passes: false,
            })
        }
        _ => None,
    }
}

/// Subscription `i` of `filtered-async`'s population (and of its churn).
fn filtered_async_query(i: usize) -> Query {
    let h = oracle::mix(i as u64);
    let sd = [2000, 3000, 6000, 8000][i % 4];
    let m = 1 + h % 2;
    let k = 1 + ((h >> 8) % 10) as usize;
    let q = Query::window_duration(sd * m).top(k).slide_duration(sd);
    if (i / 1024).is_multiple_of(8) {
        q
    } else {
        q.filter(Predicate::any().tag(256, ((i / 4) % 256) as u64))
    }
}

/// The workload's seeded stream.
pub fn feed(d: &Design, seed: u64) -> Feed {
    match d.exec {
        None => Feed::stock(d.base_len, seed),
        Some(_) => Feed::stock_timed(d.base_len, seed, ArrivalProcess::poisson(1.0)),
    }
}

/// Hub calls made and how many returned `Err`.
#[derive(Debug, Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Calls {
    pub fn check<T>(&mut self, result: Result<T, SapError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.to_string());
                None
            }
        }
    }
}

// one per run, so the variants' size difference costs nothing
#[allow(clippy::large_enum_variant)]
enum Server {
    Sync(Hub),
    Async(AsyncHub),
}

/// A hub under load and the stream position it has reached.
pub struct Live {
    server: Server,
    plane: Plane,
    batch: usize,
    /// Objects published so far.
    pub published: u64,
    steps: u64,
    /// Count hubs: batches per cycle (see `Design::cycle_batches`); 1 on
    /// the async hub.
    cycle_batches: u64,
    /// Async hub: the event time of the next checkpoint.
    next_checkpoint: u64,
    /// Whether the last step ended a cycle: on a count hub a whole cycle
    /// of slides, on the async hub a checkpoint interval.
    pub cycle_end: bool,
    buf: Vec<Object>,
    timed_buf: Vec<TimedObject>,
    churn_next: usize,
    churn_last: Option<QueryId>,
    pub calls: Calls,
    /// Size of the last checkpoint taken, in bytes.
    pub checkpoint_bytes: usize,
}

impl Live {
    fn enroll(&mut self, query: &Query, tracer: &mut Tracer) -> Option<QueryId> {
        let span = tracer.open("facade.register");
        let result = match &mut self.server {
            Server::Sync(hub) => enroll(hub, self.plane, query),
            Server::Async(hub) => enroll(hub, self.plane, query),
        };
        tracer.close(span, 0, 0);
        self.calls.check(result)
    }

    /// Publishes the next batch, with the control-plane work due on it,
    /// and returns the updates now in the caller's hands.
    pub fn step(&mut self, feed: &Feed, tracer: &mut Tracer) -> Vec<QueryUpdate> {
        let start = self.published;
        let n = self.batch as u64;
        self.published += n;
        self.steps += 1;
        let hub = match &mut self.server {
            Server::Sync(hub) => {
                feed.fill(start, self.batch, &mut self.buf);
                let span = tracer.open("hub.publish");
                let updates = hub.publish(&self.buf);
                tracer.close(span, n, updates.len() as u64);
                self.calls.attempted += 1;
                self.cycle_end = self.steps.is_multiple_of(self.cycle_batches);
                return updates;
            }
            Server::Async(hub) => hub,
        };
        feed.fill_timed(start, self.batch, &mut self.timed_buf);
        let span = tracer.open("exec.publish");
        let published = hub.publish_timed(&self.timed_buf);
        tracer.close(span, n, 0);
        self.calls.check(published);
        let span = tracer.open("exec.drain");
        let drained = hub.drain();
        let mut updates = self.calls.check(drained).unwrap_or_default();
        tracer.close(span, 0, updates.len() as u64);
        if self.steps.is_multiple_of(CHURN_EVERY) {
            // a mid-stream join warms up privately; the previous joiner
            // leaves, so the population stays at its size
            let query = filtered_async_query(self.churn_next);
            self.churn_next += 7919;
            let joined = self.enroll(&query, tracer);
            if let Some(old) = std::mem::replace(&mut self.churn_last, joined) {
                let Server::Async(hub) = &mut self.server else {
                    unreachable!("churn runs on the async hub")
                };
                let span = tracer.open("facade.unregister");
                let left = hub.unregister(old).map(drop);
                tracer.close(span, 0, 0);
                self.calls.check(left);
            }
        }
        let now = self.timed_buf.last().map_or(0, |o| o.timestamp);
        self.cycle_end = now >= self.next_checkpoint;
        if self.cycle_end {
            self.next_checkpoint = (now / CHECKPOINT_TIME + 1) * CHECKPOINT_TIME;
            if let Some(more) = self.checkpoint(tracer) {
                updates.extend(more);
            }
        }
        updates
    }

    /// Checkpoints an async hub, keeping the size; returns the barrier's
    /// updates.
    fn checkpoint(&mut self, tracer: &mut Tracer) -> Option<Vec<QueryUpdate>> {
        let Server::Async(hub) = &mut self.server else {
            return None;
        };
        let span = tracer.open("checkpoint.encode");
        let taken = hub.checkpoint();
        tracer.close(span, 0, 0);
        let (checkpoint, updates) = self.calls.check(taken)?;
        self.checkpoint_bytes = checkpoint.as_bytes().len();
        Some(updates)
    }

    /// Registered subscriptions.
    pub fn len(&self) -> usize {
        match &self.server {
            Server::Sync(hub) => hub.len(),
            Server::Async(hub) => hub.len(),
        }
    }

    /// The hub's counters.
    pub fn stats(&mut self) -> Option<HubStats> {
        match &mut self.server {
            Server::Sync(hub) => Some(hub.stats()),
            Server::Async(hub) => {
                let stats = hub.stats();
                self.calls.check(stats)
            }
        }
    }

    /// Per-shard `(parks, queue depth high-water mark)` of an async hub.
    pub fn shard_loads(&self) -> Vec<(u64, u64)> {
        match &self.server {
            Server::Sync(_) => Vec::new(),
            Server::Async(hub) => hub.shard_loads(),
        }
    }

    /// Time to decode a checkpoint of the hub and restore it into a new
    /// async hub of the same shape, in ms; `None` on a sequential hub.
    pub fn restore_ms(&mut self, tracer: &mut Tracer) -> Option<f64> {
        let Server::Async(hub) = &mut self.server else {
            return None;
        };
        let (shards, workers) = (hub.num_shards(), hub.num_workers());
        let taken = hub.checkpoint();
        let (checkpoint, _) = self.calls.check(taken)?;
        let bytes = checkpoint.as_bytes().to_vec();
        drop(checkpoint);
        let span = tracer.open("checkpoint.restore");
        let started = Instant::now();
        let restored = Checkpoint::from_bytes(&bytes)
            .map_err(SapError::from)
            .and_then(|c| AsyncHub::restore(&c, &DefaultEngineFactory, shards, workers));
        let elapsed = started.elapsed();
        tracer.close(span, 0, 0);
        let restored = self.calls.check(restored)?;
        drop(restored);
        Some(elapsed.as_secs_f64() * 1e3)
    }
}

/// Objects the warm-up prefix publishes: enough to fill the widest window.
fn warmup_objects(d: &Design, feed: &Feed) -> u64 {
    d.population
        .iter()
        .map(|q| match Sub::of(q).window {
            oracle::Window::Count { n, .. } => n as u64,
            oracle::Window::Timed { wd, .. } => feed.first_at(wd),
        })
        .max()
        .unwrap_or(0)
}

/// Builds the hub, registers the population and publishes the warm-up
/// prefix. Returns the live hub, the oracle's recorder (which has seen
/// the warm-up updates), and the set-up time.
pub fn setup(
    d: &Design,
    feed: &Feed,
    seed: u64,
    tracer: &mut Tracer,
) -> (Live, Recorder, Duration) {
    let warmup = warmup_objects(d, feed);
    let started = Instant::now();
    let server = match d.exec {
        None => Server::Sync(Hub::new()),
        Some((shards, workers)) => Server::Async(AsyncHub::new(shards, workers)),
    };
    let mut live = Live {
        server,
        plane: d.plane,
        batch: d.batch,
        published: 0,
        steps: 0,
        cycle_batches: if d.exec.is_some() {
            1
        } else {
            d.cycle_batches()
        },
        next_checkpoint: CHECKPOINT_TIME,
        cycle_end: false,
        buf: Vec::with_capacity(d.batch),
        timed_buf: Vec::with_capacity(d.batch),
        churn_next: d.population.len(),
        churn_last: None,
        calls: Calls::default(),
        checkpoint_bytes: 0,
    };
    let ids: Vec<Option<QueryId>> = d
        .population
        .iter()
        .map(|q| live.enroll(q, tracer))
        .collect();
    let watched = oracle::sample(ids.len(), SAMPLE, seed)
        .into_iter()
        .filter_map(|i| ids[i].map(|id| (id, i)))
        .collect();
    let mut recorder = Recorder::new(watched, seed, KEEP);
    while live.published < warmup {
        let updates = live.step(feed, tracer);
        recorder.observe(&updates);
    }
    (live, recorder, started.elapsed())
}

/// Closed-loop phase result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Saturation {
    pub objects: u64,
    pub elapsed: Duration,
}

impl Saturation {
    pub fn add(&mut self, other: Saturation) {
        self.objects += other.objects;
        self.elapsed += other.elapsed;
    }

    pub fn objects_per_sec(&self) -> f64 {
        self.objects as f64 / self.elapsed.as_secs_f64()
    }
}

/// Publishes batch after batch, each as soon as the previous call
/// returned, for at least `duration` and until a cycle ends (see
/// [`Live::cycle_end`]), so every slice does its fair share of each kind
/// of work.
pub fn saturate(
    live: &mut Live,
    feed: &Feed,
    tracer: &mut Tracer,
    recorder: &mut Recorder,
    duration: Duration,
) -> Saturation {
    let phase = tracer.open("loadgen.saturation");
    let start_objects = live.published;
    let started = Instant::now();
    loop {
        let updates = live.step(feed, tracer);
        recorder.observe(&updates);
        if live.cycle_end && started.elapsed() >= duration {
            break;
        }
    }
    let objects = live.published - start_objects;
    tracer.close(phase, objects, 0);
    Saturation {
        objects,
        elapsed: started.elapsed(),
    }
}

/// Open-loop phase result.
#[derive(Debug, Default, Clone)]
pub struct Paced {
    /// One observation per delivered update: due time of the batch whose
    /// call delivered it until the call returned, in µs.
    pub latency_us: Samples,
    /// The same observations, split into consecutive windows of about
    /// [`PACED_WINDOW`] of schedule each.
    pub windows: Vec<Samples>,
    /// How late each batch was issued, in µs.
    pub lag_us: Samples,
    /// Most batches overdue at once.
    pub backlog_max: u64,
    pub objects: u64,
}

impl Paced {
    pub fn merge(&mut self, other: Paced) {
        self.latency_us.merge(&other.latency_us);
        self.windows.extend(other.windows);
        self.lag_us.merge(&other.lag_us);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.objects += other.objects;
    }
}

/// Schedule time per latency window of the paced phase.
pub const PACED_WINDOW: Duration = Duration::from_secs(1);

/// Publishes at `rate` objects per second for `duration`; batches are
/// due on schedule whether or not the hub keeps up.
pub fn pace(
    live: &mut Live,
    feed: &Feed,
    tracer: &mut Tracer,
    recorder: &mut Recorder,
    duration: Duration,
    rate: f64,
) -> Paced {
    let batches_per_sec = rate / live.batch as f64;
    // whole cycles per window, so each window sees every kind of close
    let cycle = live.cycle_batches;
    let per_window =
        (batches_per_sec * PACED_WINDOW.as_secs_f64() / cycle as f64).ceil() as u64 * cycle;
    let windows = (duration.as_secs_f64() / PACED_WINDOW.as_secs_f64())
        .round()
        .max(1.0) as u64;
    let batches = windows * per_window.max(1);
    let phase = tracer.open("loadgen.paced");
    let mut out = Paced::default();
    let mut pacer = Pacer::new(Instant::now(), batches_per_sec);
    for i in 0..batches {
        if i % per_window == 0 {
            out.windows.push(Samples::default());
        }
        let tick = pacer.next();
        let updates = live.step(feed, tracer);
        let done = Instant::now();
        let latency = done.saturating_duration_since(tick.due).as_secs_f64() * 1e6;
        out.latency_us.push(latency, updates.len() as u64);
        if let Some(window) = out.windows.last_mut() {
            window.push(latency, updates.len() as u64);
        }
        out.lag_us.push(tick.lag.as_secs_f64() * 1e6, 1);
        out.backlog_max = out.backlog_max.max(tick.overdue);
        recorder.observe(&updates);
    }
    out.objects = batches * live.batch as u64;
    tracer.close(phase, out.objects, out.latency_us.count());
    out
}

/// Standalone engines of an isolated population, driven slide by slide.
#[derive(Debug, Default)]
pub struct Engines {
    pub objects: u64,
    pub stats: OpStats,
    pub candidates_mean: f64,
    pub memory_bytes: u64,
}

/// Builds each query's engine with `QueryExt::build` and slides it over
/// the first `objects` objects of the stream; `None` unless the
/// population is isolated.
pub fn drive_engines(
    d: &Design,
    feed: &Feed,
    tracer: &mut Tracer,
    objects: u64,
) -> Option<Engines> {
    if d.plane != Plane::Isolated {
        return None;
    }
    let mut out = Engines {
        objects,
        ..Engines::default()
    };
    let (mut candidates, mut slides) = (0u64, 0u64);
    let mut buf = Vec::new();
    for query in &d.population {
        let mut engine = query.build().expect("population queries are valid");
        let s = engine.spec().s;
        for start in (0..objects).step_by(s) {
            feed.fill(start, s, &mut buf);
            let span = tracer.open("engine.slide");
            std::hint::black_box(engine.slide(&buf));
            tracer.close(span, s as u64, 0);
            candidates += engine.candidate_count() as u64;
            slides += 1;
        }
        let st = engine.stats();
        out.stats.insertions += st.insertions;
        out.stats.deletions += st.deletions;
        out.stats.objects_scanned += st.objects_scanned;
        out.stats.meaningful_sets_formed += st.meaningful_sets_formed;
        out.stats.wrt_tests += st.wrt_tests;
        out.memory_bytes += engine.memory_bytes() as u64;
    }
    out.candidates_mean = candidates as f64 / slides.max(1) as f64;
    Some(out)
}
