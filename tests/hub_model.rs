//! The hub contract, checked op by op against one brute-force model
//! (`tests/common/mod.rs`).
//!
//! Each case draws one op sequence over the whole fault-free hub API —
//! registrations on every plane with all five algorithms and pass-all,
//! score, key and tag filters; unregister; every publish flavor;
//! watermarks; drain, flush, inspect and stats; `move_query` and
//! `resize`; and checkpoints restored into either hub at another shape
//! — and replays it in lockstep on several *lanes*: a `Hub`, an
//! `AsyncHub::new(n, n)` and four `AsyncHub`s driven by
//! `SeededScheduler`s. Every update a lane returns or drains must equal
//! the model's, and after every drain each lane's `HubStats` must equal
//! the model's tallies. The first mismatch panics with one line naming
//! the seed, the lane's shape and the op index.
//!
//! A case's stream, op sequence, lane shapes and scheduler seeds all
//! derive from one `u64`. The `hubs_match_the_model_*` tests split one
//! list of random seeds between them; to replay a repro, add its seed to
//! [`PINNED_SEEDS`], which the first of them runs before its random
//! cases. The `*_stock_stream` tests replay fixed schedules on generated
//! stock streams large enough that every engine leaves warm-up, and
//! short fixed scripts for known scenarios are tests of their own.

use std::collections::HashMap;

use sap::prelude::*;

mod common;
use common::{Expected, Filter, Method, Model, Refusal, Tallies, Window};

/// Seeds that once exposed a divergence, replayed first on every run.
const PINNED_SEEDS: &[u64] = &[];

/// How many random cases the `hubs_match_the_model_*` tests draw between
/// them. Each runs four seeded-scheduler lanes, so a run covers four
/// times as many seeded `AsyncHub` schedules.
const RANDOM_CASES: usize = 500;

/// splitmix64: a tiny deterministic generator, so a case is a pure
/// function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One hub operation, with every argument drawn.
#[derive(Clone, Debug)]
enum Op {
    Register {
        method: Method,
        window: Window,
        k: usize,
        filter: Filter,
        algorithm: usize,
    },
    Unregister(usize),
    Publish(Vec<Object>),
    PublishOne(Object),
    /// `try_publish` on an `AsyncHub`, falling back to `publish` when a
    /// queue is full; `publish` on a `Hub`.
    TryPublish(Vec<Object>),
    PublishTimed(Vec<TimedObject>),
    /// `publish_one_timed` on a `Hub`; a one-object `publish_timed` on
    /// an `AsyncHub`, which has no single-object timed call.
    PublishOneTimed(TimedObject),
    AdvanceTime(u64),
    Drain,
    Flush,
    Inspect(usize),
    Stats,
    /// Moves a query to shard `shard % num_shards` (`AsyncHub` only).
    MoveQuery {
        query: usize,
        shard: usize,
    },
    Resize(usize),
    /// Checkpoints every lane and restores it into the hub `targets`
    /// picks for it.
    Checkpoint {
        targets: u64,
    },
}

/// FNV-1a: a fixed seed from a test's name.
fn seed_of(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn algorithms() -> [AlgorithmKind; 5] {
    [
        AlgorithmKind::sap(),
        AlgorithmKind::Naive,
        AlgorithmKind::KSkyband,
        AlgorithmKind::MinTopK,
        AlgorithmKind::sma(),
    ]
}

/// The library query a drawn registration describes.
fn query(window: Window, k: usize, filter: Filter, algorithm: usize) -> Query {
    let q = match window {
        Window::Count { n, s } => Query::window(n).slide(s),
        Window::Time { wd, sd } => Query::window_duration(wd).slide_duration(sd),
    };
    q.top(k)
        .algorithm(algorithms()[algorithm % 5])
        .filter(filter.predicate())
}

/// How a lane's hub is built.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Sequential,
    /// `AsyncHub::new(n, n)`: a FIFO worker per shard.
    Fifo(usize),
    Seeded {
        shards: usize,
        workers: usize,
        scheduler: u64,
    },
    /// `AsyncHub::restore` (FIFO scheduler) at this shape.
    Restored {
        shards: usize,
        workers: usize,
    },
}

impl Shape {
    fn build(self) -> Flavor {
        match self {
            Shape::Sequential => Flavor::Sequential(Hub::new()),
            Shape::Fifo(n) => Flavor::Async(AsyncHub::new(n, n)),
            Shape::Seeded {
                shards,
                workers,
                scheduler,
            } => Flavor::Async(AsyncHub::with_scheduler(
                shards,
                workers,
                Box::new(SeededScheduler::new(scheduler)),
            )),
            Shape::Restored { .. } => unreachable!("restored lanes come from a checkpoint"),
        }
    }
}

/// The lanes of a case: a `Hub`, an `AsyncHub::new(n, n)` for n ∈ {1,
/// 2, 8}, and seeded-scheduler `AsyncHub`s with 1–12 shards on 1, 2, 8
/// and a drawn number of workers.
fn shapes(rng: &mut Rng) -> Vec<Shape> {
    let mut shapes = vec![Shape::Sequential, Shape::Fifo(rng.pick(&[1, 2, 8]))];
    for workers in [1, 2, 8, rng.pick(&[1, 2, 8])] {
        shapes.push(Shape::Seeded {
            shards: 1 + rng.below(12) as usize,
            workers,
            scheduler: rng.next(),
        });
    }
    shapes
}

/// The hub a checkpoint op restores lane `lane` into: the first lane
/// always into an `AsyncHub` of 32 shards on 3 workers and the second
/// always into a `Hub`, so every checkpoint crosses flavors both ways
/// and reaches shards far above workers; the rest at random.
fn restore_target(targets: u64, lane: usize) -> Shape {
    let mut rng = Rng(targets ^ (lane as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    match lane {
        0 => Shape::Restored {
            shards: 32,
            workers: 3,
        },
        1 => Shape::Sequential,
        _ if rng.chance(35) => Shape::Sequential,
        _ => Shape::Restored {
            shards: 1 + rng.below(12) as usize,
            workers: rng.pick(&[1, 2, 8]),
        },
    }
}

enum Flavor {
    Sequential(Hub),
    Async(AsyncHub),
}

/// One hub replaying the case, with its view of the query handles.
struct Lane {
    shape: Shape,
    /// Where the lane was restored from a checkpoint, if it was.
    restored_at: Option<usize>,
    hub: Flavor,
    /// Handles by registration index.
    ids: Vec<QueryId>,
    index: HashMap<QueryId, usize>,
    /// Updates an `AsyncHub` lane emitted but has not drained yet.
    undrained: Vec<Expected>,
    /// `HubStats::pruned` at the last stats check.
    pruned: u64,
}

type Check = Result<(), String>;

fn ok<T>(result: Result<T, SapError>) -> Result<T, String> {
    result.map_err(|e| format!("unexpected error {e:?}"))
}

/// The first difference between what a lane returned and the model's
/// updates, if any.
fn diff_updates(index: &HashMap<QueryId, usize>, got: &[QueryUpdate], want: &[Expected]) -> Check {
    for i in 0..got.len().max(want.len()) {
        let seen = got.get(i).map(|g| {
            let r = &g.result;
            let query = index.get(&g.query).copied();
            (query, r.slide, r.snapshot.as_slice(), r.events.as_slice())
        });
        let expected = want.get(i).map(|w| {
            let query = Some(w.query);
            (query, w.slide, w.snapshot.as_slice(), w.events.as_slice())
        });
        if seen != expected {
            return Err(format!("update {i}: got {seen:?}, model {expected:?}"));
        }
    }
    Ok(())
}

fn is_unknown<T>(result: &Result<T, SapError>) -> bool {
    matches!(result, Err(SapError::UnknownQuery { .. }))
}

impl Lane {
    fn new(shape: Shape) -> Lane {
        Lane {
            shape,
            restored_at: None,
            hub: shape.build(),
            ids: Vec::new(),
            index: HashMap::new(),
            undrained: Vec::new(),
            pruned: 0,
        }
    }

    fn describe(&self) -> String {
        match self.restored_at {
            Some(op) => format!("{:?} (restored at op {op})", self.shape),
            None => format!("{:?}", self.shape),
        }
    }

    /// Checks drained updates against everything emitted since the last
    /// drain, in the hubs' `(query, slide)` order.
    fn drained(&mut self, got: Vec<QueryUpdate>) -> Check {
        let mut want = std::mem::take(&mut self.undrained);
        want.sort_by_key(|u| (u.query, u.slide));
        diff_updates(&self.index, &got, &want)
    }

    fn stats(&mut self) -> Result<HubStats, String> {
        match &mut self.hub {
            Flavor::Sequential(hub) => Ok(hub.stats()),
            Flavor::Async(hub) => ok(hub.stats()),
        }
    }

    /// The lane's counters against the model's tallies, and the result
    /// classes against the model's count where it has one.
    fn check_stats(&mut self, model: &Model) -> Check {
        let stats = self.stats()?;
        self.pruned = stats.pruned;
        let (got, want) = (Tallies::observed(&stats), model.tallies());
        if got != want {
            return Err(format!("stats {got:?}, model {want:?}"));
        }
        // the model's count where it has one; else at least one class per
        // count group and at most one per member: a joiner's class counts
        // from its seating on, and then stays apart from a class with an
        // equal key
        let bound = stats.count_groups..=(stats.grouped_queries + stats.shared_queries) as u64;
        let classes = model.result_classes().map_or(bound, |n| n..=n);
        if !classes.contains(&stats.result_classes) {
            return Err(format!(
                "{} result classes, model {classes:?}",
                stats.result_classes
            ));
        }
        Ok(())
    }

    fn register(&mut self, method: Method, q: &Query, want: Result<usize, Refusal>) -> Check {
        let hub: &mut dyn HubExt = match &mut self.hub {
            Flavor::Sequential(hub) => hub,
            Flavor::Async(hub) => hub,
        };
        let got = match method {
            Method::Register => hub.register(q),
            Method::Shared => hub.register_shared(q),
            Method::Grouped => hub.register_grouped(q),
        };
        match (got, want) {
            (Ok(id), Ok(idx)) => {
                if self.ids.last().is_some_and(|last| *last >= id) {
                    return Err(format!("handle {id} does not ascend"));
                }
                debug_assert_eq!(self.ids.len(), idx);
                self.ids.push(id);
                self.index.insert(id, idx);
                Ok(())
            }
            (Err(SapError::NotTimeBased), Err(Refusal::NotTimeBased))
            | (Err(SapError::NotCountBased), Err(Refusal::NotCountBased)) => Ok(()),
            (got, want) => Err(format!("registration returned {got:?}, model {want:?}")),
        }
    }

    /// A query's slide count and last snapshot, read by `unregister`
    /// (which removes it) or by inspection; `None` for `UnknownQuery`.
    fn session(
        &mut self,
        query: usize,
        remove: bool,
    ) -> Result<Option<(u64, Vec<Object>)>, String> {
        let id = self.ids[query];
        let view = |s: &HubSession| (s.slides(), s.last_snapshot().to_vec());
        let got = match (&mut self.hub, remove) {
            (Flavor::Sequential(hub), false) => Ok(hub.session(id).map(view)),
            (Flavor::Sequential(hub), true) => hub.unregister(id).map(|s| Some(view(&s))),
            (Flavor::Async(hub), true) => hub.unregister(id).map(|s| Some(view(&s))),
            (Flavor::Async(hub), false) => hub
                .inspect(id)
                .map(|s| Some((s.slides, s.last_snapshot.to_vec()))),
        };
        match got {
            Err(SapError::UnknownQuery { .. }) => Ok(None),
            got => ok(got),
        }
    }

    /// Checkpoints the lane and restores it into `target`; every counter
    /// must travel, result classes and class hits included, except those
    /// the executor owns.
    fn checkpoint(&mut self, target: Shape, step: usize) -> Check {
        let carried = |stats: HubStats| HubStats {
            publisher_parks: 0,
            queue_depth_hwm: 0,
            ..stats
        };
        let before = carried(self.stats()?);
        let checkpoint = match &mut self.hub {
            Flavor::Sequential(hub) => hub.checkpoint(),
            Flavor::Async(hub) => {
                let (checkpoint, drained) = ok(hub.checkpoint())?;
                self.drained(drained)?;
                checkpoint
            }
        };
        let wire = Checkpoint::from_bytes(checkpoint.as_bytes())
            .map_err(|e| format!("own checkpoint rejected: {e:?}"))?;
        let from_sequential = matches!(self.hub, Flavor::Sequential(_));
        self.hub = match target {
            Shape::Sequential => {
                let hub = ok(Hub::restore(&wire, &DefaultEngineFactory))?;
                if from_sequential && hub.checkpoint().as_bytes() != checkpoint.as_bytes() {
                    return Err("a restored hub re-checkpoints to different bytes".into());
                }
                Flavor::Sequential(hub)
            }
            Shape::Restored { shards, workers } => Flavor::Async(ok(AsyncHub::restore(
                &wire,
                &DefaultEngineFactory,
                shards,
                workers,
            ))?),
            _ => unreachable!("restore targets are sequential or restored"),
        };
        self.shape = target;
        self.restored_at = Some(step);
        match carried(self.stats()?) {
            after if after == before => Ok(()),
            after => Err(format!("counters {before:?} restored as {after:?}")),
        }
    }

    /// Runs a publish-like op: a `Hub` returns its updates at once, an
    /// `AsyncHub` holds them for the next drain (`None`).
    fn publish(&mut self, op: &Op) -> Result<Option<Vec<QueryUpdate>>, String> {
        use std::slice::from_ref;
        Ok(match (&mut self.hub, op) {
            (Flavor::Sequential(h), Op::Publish(b) | Op::TryPublish(b)) => Some(h.publish(b)),
            (Flavor::Sequential(h), Op::PublishOne(o)) => Some(h.publish_one(*o)),
            (Flavor::Sequential(h), Op::PublishTimed(b)) => Some(h.publish_timed(b)),
            (Flavor::Sequential(h), Op::PublishOneTimed(o)) => Some(h.publish_one_timed(*o)),
            (Flavor::Sequential(h), Op::AdvanceTime(w)) => Some(h.advance_time(*w)),
            (Flavor::Async(h), Op::Publish(b)) => ok(h.publish(b)).map(|()| None)?,
            (Flavor::Async(h), Op::PublishOne(o)) => ok(h.publish_one(*o)).map(|()| None)?,
            (Flavor::Async(h), Op::TryPublish(b)) => {
                if !ok(h.try_publish(b))? {
                    ok(h.publish(b))?;
                }
                None
            }
            (Flavor::Async(h), Op::PublishTimed(b)) => ok(h.publish_timed(b)).map(|()| None)?,
            (Flavor::Async(h), Op::PublishOneTimed(o)) => {
                ok(h.publish_timed(from_ref(o))).map(|()| None)?
            }
            (Flavor::Async(h), Op::AdvanceTime(w)) => ok(h.advance_time(*w)).map(|()| None)?,
            _ => unreachable!("not a publish-like op"),
        })
    }

    /// Replays one op; `want` holds the updates the model emitted for it.
    fn apply(&mut self, op: &Op, model: &Model, want: &[Expected]) -> Check {
        match (op, &mut self.hub) {
            (
                Op::Publish(_)
                | Op::PublishOne(_)
                | Op::TryPublish(_)
                | Op::PublishTimed(_)
                | Op::PublishOneTimed(_)
                | Op::AdvanceTime(_),
                _,
            ) => match self.publish(op)? {
                Some(got) => diff_updates(&self.index, &got, want),
                None => {
                    self.undrained.extend_from_slice(want);
                    Ok(())
                }
            },
            (Op::Drain, Flavor::Async(hub)) => {
                let got = ok(hub.drain())?;
                self.drained(got)?;
                self.check_stats(model)
            }
            (Op::Drain | Op::Stats, _) => self.check_stats(model),
            (Op::Flush | Op::MoveQuery { .. } | Op::Resize(_), Flavor::Sequential(_)) => Ok(()),
            (Op::Flush, Flavor::Async(hub)) => ok(hub.flush()),
            (Op::MoveQuery { query, shard }, Flavor::Async(hub)) => {
                let got = hub.move_query(self.ids[*query], shard % hub.num_shards());
                match (model.is_live(*query), &got) {
                    (true, Ok(())) => Ok(()),
                    (false, _) if is_unknown(&got) => Ok(()),
                    _ => Err(format!("move_query returned {got:?}")),
                }
            }
            (Op::Resize(n), Flavor::Async(hub)) => ok(hub.resize(*n)),
            (
                Op::Register { .. } | Op::Unregister(_) | Op::Inspect(_) | Op::Checkpoint { .. },
                _,
            ) => unreachable!("handled by the case"),
        }
    }
}

/// A case in progress: the model and every lane, advanced in lockstep.
struct Case {
    name: String,
    model: Model,
    lanes: Vec<Lane>,
    step: usize,
}

impl Case {
    fn new(name: String, shapes: Vec<Shape>) -> Case {
        Case {
            name,
            model: Model::new(),
            lanes: shapes.into_iter().map(Lane::new).collect(),
            step: 0,
        }
    }

    fn run(&mut self, ops: &[Op]) {
        for op in ops {
            self.apply(op);
        }
    }

    /// Every lane's counters, in lane order.
    fn stats(&mut self) -> Vec<HubStats> {
        let lanes = self.lanes.iter_mut();
        lanes.map(|l| l.stats().expect("live lane")).collect()
    }

    /// Applies one op to the model and every lane, panicking with a
    /// one-line repro at the first lane that disagrees.
    fn apply(&mut self, op: &Op) {
        let model = &mut self.model;
        let mut want = Vec::new();
        let mut session = None;
        let mut registered = None;
        match op {
            Op::Register {
                method,
                window,
                k,
                filter,
                ..
            } => registered = Some(model.register(*method, *window, *k, *filter)),
            Op::Unregister(q) => session = Some(model.unregister(*q)),
            Op::Inspect(q) => session = Some(model.state(*q).map(|(n, s)| (n, s.to_vec()))),
            Op::Publish(batch) | Op::TryPublish(batch) => want = model.publish(batch),
            Op::PublishOne(o) => want = model.publish(std::slice::from_ref(o)),
            Op::PublishTimed(batch) => want = model.publish_timed(batch),
            Op::PublishOneTimed(o) => want = model.publish_timed(std::slice::from_ref(o)),
            Op::AdvanceTime(w) => want = model.advance_time(*w),
            _ => {}
        }
        let mut pruned = None;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let check = match op {
                Op::Register {
                    method,
                    window,
                    k,
                    filter,
                    algorithm,
                } => lane.register(
                    *method,
                    &query(*window, *k, *filter, *algorithm),
                    registered.expect("drawn above"),
                ),
                Op::Unregister(q) | Op::Inspect(q) => {
                    let want = session.as_ref().expect("drawn above");
                    match lane.session(*q, matches!(op, Op::Unregister(_))) {
                        Ok(got) if got == *want => Ok(()),
                        Ok(got) => Err(format!("session {got:?}, model {want:?}")),
                        Err(e) => Err(e),
                    }
                }
                Op::Checkpoint { targets } => lane
                    .checkpoint(restore_target(*targets, i), self.step)
                    .and_then(|()| lane.check_stats(&self.model)),
                _ => lane.apply(op, &self.model, &want),
            };
            // the gate is deterministic: every lane prunes the same
            let check = check.and_then(|()| match *pruned.get_or_insert(lane.pruned) {
                p if p == lane.pruned => Ok(()),
                p => Err(format!("pruned {}, lane 0 pruned {p}", lane.pruned)),
            });
            if let Err(what) = check {
                panic!(
                    "repro: {} lane={i} shape={} op={} {op:?}: {what}",
                    self.name,
                    lane.describe(),
                    self.step
                );
            }
        }
        self.step += 1;
    }
}

/// Draws a case's ops from its seed, reading the model for the state a
/// valid op needs (live queries, the clock).
struct Draw {
    rng: Rng,
    /// Objects drawn so far; ids are a bijection of this counter, so
    /// they are unique within a case but not monotonic.
    objects: u64,
    id_mask: u64,
    /// The latest timestamp or watermark: timestamps never go back.
    now: u64,
    last: Option<Op>,
    checkpoints: usize,
    /// 1 for the usual small windows and batches; larger for a long
    /// case, whose windows and batches grow by this factor.
    scale: u64,
}

impl Draw {
    fn new(mut rng: Rng, scale: u64) -> Draw {
        let id_mask = rng.below(1 << 16);
        Draw {
            rng,
            objects: 0,
            id_mask,
            now: 0,
            last: None,
            checkpoints: 0,
            scale,
        }
    }

    fn id(&self, ordinal: u64) -> u64 {
        (ordinal.wrapping_mul(40_503) & 0xFFFF) ^ self.id_mask
    }

    /// The id of an object drawn soon, so key and tag filters match.
    fn upcoming_id(&mut self) -> u64 {
        let ahead = self.rng.below(16);
        self.id(self.objects + ahead)
    }

    fn score(&mut self) -> f64 {
        self.rng.below(8 * self.scale) as f64
    }

    fn object(&mut self) -> Object {
        let id = self.id(self.objects);
        self.objects += 1;
        Object::new(id, self.score())
    }

    fn timed_object(&mut self) -> TimedObject {
        self.now += self.rng.pick(&[0, 0, 0, 1, 1, 1, 2, 3, 7]);
        let o = self.object();
        TimedObject::new(o.id, self.now, o.score)
    }

    fn batch(&mut self) -> Vec<Object> {
        let n = 1 + self.rng.below(8 * self.scale);
        (0..n).map(|_| self.object()).collect()
    }

    fn timed_batch(&mut self) -> Vec<TimedObject> {
        let n = 1 + self.rng.below(8 * self.scale);
        (0..n).map(|_| self.timed_object()).collect()
    }

    fn filter(&mut self) -> Filter {
        let mut f = Filter::default();
        match self.rng.below(10) {
            0..=3 => {}
            4 => f.min = Some(self.rng.below(6) as f64),
            5 => f.max = Some(self.rng.below(6) as f64),
            6 => {
                let lo = self.rng.below(4) as f64;
                f.min = Some(lo);
                f.max = Some(lo + self.rng.below(4) as f64);
            }
            7 => f.key = Some(self.upcoming_id()),
            8 => {
                let modulus = self.rng.pick(&[2, 3]);
                f.tag = Some((modulus, self.rng.below(modulus)));
            }
            _ => {
                f.tag = Some((256, self.upcoming_id() % 256));
                if self.rng.chance(50) {
                    f.min = Some(self.rng.below(4) as f64);
                }
            }
        }
        f
    }

    fn register(&mut self) -> Op {
        if let Some(last @ Op::Register { .. }) = &self.last {
            if self.rng.chance(30) {
                // a twin: same geometry and filter, so result classes form
                return last.clone();
            }
        }
        let method = self
            .rng
            .pick(&[Method::Register, Method::Shared, Method::Grouped]);
        let timed = match method {
            Method::Register => self.rng.chance(50),
            Method::Shared => !self.rng.chance(3),
            Method::Grouped => self.rng.chance(3),
        };
        let (span, top) = (1 + self.rng.below(4), 1 + self.rng.below(4 * self.scale));
        let (window, k) = if timed {
            let sd = self.rng.pick(&[1, 2, 3, 5]) * self.scale;
            let wd = sd * span;
            (Window::Time { wd, sd }, top as usize)
        } else {
            let s = self.rng.pick(&[1, 2, 2, 3, 4]) * self.scale as usize;
            let n = s * span as usize;
            (Window::Count { n, s }, top.min(n as u64) as usize)
        };
        let filter = if method != Method::Register || self.rng.chance(10) {
            self.filter()
        } else {
            Filter::default()
        };
        Op::Register {
            method,
            window,
            k,
            filter,
            algorithm: self.rng.below(5) as usize,
        }
    }

    /// A registration index: usually a live query, sometimes a stale one.
    fn target(&mut self, model: &Model) -> usize {
        let live: Vec<usize> = (0..model.len()).filter(|&q| model.is_live(q)).collect();
        if live.is_empty() || self.rng.chance(10) {
            self.rng.below(model.len() as u64) as usize
        } else {
            self.rng.pick(&live)
        }
    }

    /// The next op, valid for the model's state.
    fn next(&mut self, model: &Model) -> Op {
        let roll = self.rng.below(100);
        let op = match roll {
            _ if model.len() == 0 || roll < 14 => self.register(),
            14..18 => Op::Unregister(self.target(model)),
            18..32 => Op::Publish(self.batch()),
            32..39 => Op::PublishOne(self.object()),
            39..43 => Op::TryPublish(self.batch()),
            43..58 => Op::PublishTimed(self.timed_batch()),
            58..62 => Op::PublishOneTimed(self.timed_object()),
            // now and then a watermark below the clock: a no-op for
            // sessions past it, early empty slides for fresh ones
            62..65 => {
                self.now += self.rng.pick(&[0, 1, 2, 5, 9]);
                Op::AdvanceTime(self.now)
            }
            65 => Op::AdvanceTime(self.now.saturating_sub(self.rng.below(8))),
            66..78 => Op::Drain,
            78..80 => Op::Flush,
            80..83 => Op::Inspect(self.target(model)),
            83..85 => Op::Stats,
            85..89 => Op::MoveQuery {
                query: self.target(model),
                shard: self.rng.below(12) as usize,
            },
            89..91 => Op::Resize(1 + self.rng.below(12) as usize),
            91..93 if self.checkpoints < 2 => {
                self.checkpoints += 1;
                Op::Checkpoint {
                    targets: self.rng.next(),
                }
            }
            _ => Op::Stats,
        };
        self.last = Some(op.clone());
        op
    }
}

/// Runs the random case `seed` names. One case in eight is long: five
/// times wider windows and bigger batches, so every engine leaves
/// warm-up and expires objects.
fn run_seed(test: &str, seed: u64) {
    let mut rng = Rng(seed);
    let mut case = Case::new(format!("test={test} seed={seed:#018x}"), shapes(&mut rng));
    let scale = if rng.chance(12) { 5 } else { 1 };
    let len = 30 + rng.below(30);
    let mut draw = Draw::new(Rng(rng.next()), scale);
    for _ in 0..len {
        let op = draw.next(&case.model);
        case.apply(&op);
    }
    case.apply(&Op::Drain);
}

/// Runs part `part` of the random cases: one of [`PARTS`] slices of one
/// seed list, after [`PINNED_SEEDS`] in the first part.
fn random_part(test: &str, part: usize) {
    let mut seeds = Rng(0x4855_425F_4D4F_444C);
    let seeds: Vec<u64> = (0..RANDOM_CASES).map(|_| seeds.next()).collect();
    let share = seeds.chunks(RANDOM_CASES.div_ceil(PARTS)).nth(part);
    let pinned = if part == 0 { PINNED_SEEDS } else { &[] };
    for &seed in pinned.iter().chain(share.unwrap_or_default()) {
        run_seed(test, seed);
    }
}

/// Declares the tests that share the random cases, one part each, and
/// [`PARTS`], their number.
macro_rules! random_parts {
    ($($name:ident = $part:literal),+ $(,)?) => {
        /// How many tests share the random cases.
        const PARTS: usize = [$($part),+].len();
        $(
            #[test]
            fn $name() {
                random_part(stringify!($name), $part);
            }
        )+
    };
}

random_parts! {
    hubs_match_the_model_00 = 0,
    hubs_match_the_model_01 = 1,
    hubs_match_the_model_02 = 2,
    hubs_match_the_model_03 = 3,
    hubs_match_the_model_04 = 4,
    hubs_match_the_model_05 = 5,
    hubs_match_the_model_06 = 6,
    hubs_match_the_model_07 = 7,
    hubs_match_the_model_08 = 8,
    hubs_match_the_model_09 = 9,
    hubs_match_the_model_10 = 10,
    hubs_match_the_model_11 = 11,
    hubs_match_the_model_12 = 12,
    hubs_match_the_model_13 = 13,
    hubs_match_the_model_14 = 14,
    hubs_match_the_model_15 = 15,
    hubs_match_the_model_16 = 16,
    hubs_match_the_model_17 = 17,
    hubs_match_the_model_18 = 18,
    hubs_match_the_model_19 = 19,
}

// ---------------------------------------------------------------------
// Pinned scripts: short fixed op sequences for known scenarios, each on
// lanes drawn from its name.
// ---------------------------------------------------------------------

/// A script's case, on lanes drawn from its name.
fn script_case(name: &str) -> Case {
    Case::new(format!("script={name}"), shapes(&mut Rng(seed_of(name))))
}

/// Runs a script, then drains.
fn run_script(name: &str, ops: &[Op]) {
    let mut case = script_case(name);
    case.run(ops);
    case.apply(&Op::Drain);
}

/// Declares script tests.
macro_rules! script {
    ($(#[$meta:meta])* $name:ident: [$($op:expr),+ $(,)?]) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            run_script(stringify!($name), &[$($op),+]);
        }
    };
}

const ANY: Filter = Filter {
    min: None,
    max: None,
    key: None,
    tag: None,
};

fn count(n: usize, k: usize, s: usize) -> (Window, usize) {
    (Window::Count { n, s }, k)
}

fn time(wd: u64, k: usize, sd: u64) -> (Window, usize) {
    (Window::Time { wd, sd }, k)
}

fn reg(method: Method, geometry: (Window, usize), filter: Filter) -> Op {
    reg_with(method, geometry, filter, 0)
}

/// A registration running `algorithms()[algorithm]`.
fn reg_with(method: Method, (window, k): (Window, usize), filter: Filter, algorithm: usize) -> Op {
    Op::Register {
        method,
        window,
        k,
        filter,
        algorithm,
    }
}

fn objects(raw: &[(u64, f64)]) -> Vec<Object> {
    raw.iter()
        .map(|&(id, score)| Object::new(id, score))
        .collect()
}

fn timed(raw: &[(u64, u64, f64)]) -> Vec<TimedObject> {
    raw.iter()
        .map(|&(id, ts, score)| TimedObject::new(id, ts, score))
        .collect()
}

fn at_least(min: f64) -> Filter {
    Filter {
        min: Some(min),
        ..ANY
    }
}

script! {
    /// Equal scores at a truncation boundary: the newer (higher id)
    /// object survives a deep group's top-1 slice, and across slides
    /// the later slide's object ranks first even with the smaller id.
    boundary_tie_break_keeps_the_newer_object_through_the_shared_path: [
        reg(Method::Shared, time(10, 3, 10), ANY),
        reg(Method::Shared, time(10, 1, 10), ANY),
        Op::PublishTimed(timed(&[(1, 0, 5.0), (2, 0, 5.0)])),
        Op::AdvanceTime(10),
        Op::Drain,
        reg(Method::Shared, time(20, 2, 10), ANY),
        Op::PublishTimed(timed(&[(10, 10, 5.0), (3, 22, 5.0)])),
        Op::AdvanceTime(30),
        Op::Drain,
    ]
}

script! {
    /// A slide's digest breaks ties toward the higher id (count plane:
    /// the later arrival).
    digest_tie_break: [
        reg(Method::Grouped, count(4, 1, 2), ANY),
        reg(Method::Register, time(4, 1, 2), ANY),
        Op::PublishTimed(timed(&[(40, 0, 3.0), (11, 1, 3.0), (12, 2, 1.0), (13, 3, 1.0)])),
        Op::AdvanceTime(8),
        Op::Drain,
    ]
}

script! {
    /// The dominance gate admits an equal-score newcomer, which the
    /// tie-break then keeps.
    gate_admits_ties: [
        reg(Method::Grouped, count(2, 1, 2), ANY),
        Op::Publish(objects(&[(50, 4.0), (51, 4.0), (52, 2.0), (53, 2.0)])),
        Op::Drain,
    ]
}

script! {
    /// A two-member result class keeps both members emitting through a
    /// resize and a move.
    class_follower_travels: [
        reg(Method::Grouped, count(4, 2, 2), ANY),
        reg(Method::Grouped, count(4, 2, 2), ANY),
        Op::Publish(objects(&[(1, 3.0), (2, 1.0), (3, 4.0), (4, 1.0)])),
        Op::Drain,
        Op::Resize(3),
        Op::Publish(objects(&[(5, 5.0), (6, 9.0), (7, 2.0), (8, 6.0)])),
        Op::Drain,
        Op::MoveQuery { query: 0, shard: 1 },
        Op::Publish(objects(&[(9, 5.0), (10, 3.0), (11, 5.0), (12, 8.0)])),
        Op::Drain,
    ]
}

script! {
    /// Same geometry and phase, different filters: two count groups,
    /// each ranking its own substream.
    count_join_respects_filter: [
        reg(Method::Grouped, count(4, 2, 2), ANY),
        reg(Method::Grouped, count(4, 2, 2), at_least(5.0)),
        Op::Publish(objects(&[(1, 7.0), (2, 3.0), (3, 9.0), (4, 1.0)])),
        Op::Drain,
    ]
}

script! {
    /// The second member joins mid-slide and warms up on ids 3–4 only,
    /// then founds a class of one. Its window differs from its pristine
    /// twin's until slide 0 leaves it, so neither a restore nor a resize
    /// may pool the two by class key alone.
    promoted_member_stays_apart_from_its_pristine_twin: [
        reg(Method::Shared, time(6, 2, 3), ANY),
        Op::PublishTimed(timed(&[(1, 0, 5.0), (2, 1, 4.0)])),
        reg(Method::Shared, time(6, 2, 3), ANY),
        Op::PublishTimed(timed(&[(3, 2, 1.0), (4, 3, 2.0)])),
        Op::Drain,
        Op::Checkpoint { targets: 7 },
        Op::PublishTimed(timed(&[(5, 6, 0.5)])),
        Op::Drain,
        Op::Resize(3),
        Op::PublishTimed(timed(&[(6, 7, 0.25), (7, 9, 0.1)])),
        Op::Drain,
    ]
}

script! {
    /// Two members join a filtered slide group during its slide [6, 9)
    /// and warm up through its two closed slides. While both still warm
    /// up, the group is moved and the hub resized; then one leaves. A
    /// filtered-out object closes the join slide, which seats the other,
    /// and a checkpoint restores it into both hubs.
    joiners_travel_inside_their_group: [
        reg(Method::Shared, time(6, 2, 3), at_least(1.0)),
        Op::PublishTimed(timed(&[(1, 0, 5.0), (2, 4, 4.0), (3, 7, 2.0)])),
        reg(Method::Shared, time(6, 2, 3), at_least(1.0)),
        reg(Method::Shared, time(9, 1, 3), at_least(1.0)),
        Op::PublishTimed(timed(&[(4, 7, 1.5), (5, 8, 0.5)])),
        Op::MoveQuery { query: 1, shard: 1 },
        Op::Resize(3),
        Op::Inspect(2),
        Op::Unregister(2),
        Op::PublishTimed(timed(&[(6, 9, 0.25), (7, 10, 3.0)])),
        Op::Drain,
        Op::Checkpoint { targets: 11 },
        Op::PublishTimed(timed(&[(8, 12, 6.0), (9, 14, 2.0)])),
        Op::AdvanceTime(24),
        Op::Drain,
    ]
}

fn tag(modulus: u64, residue: u64) -> Filter {
    Filter {
        tag: Some((modulus, residue)),
        ..ANY
    }
}

script! {
    /// Slide groups with a key or tag clause see only the objects whose
    /// ids can pass it, so a group that accepts nothing in a call closes
    /// its slides at the call's end. The first batch misses every tag and
    /// key group while crossing three boundaries of each duration; a
    /// `tag(3, 1)` joiner's join slide [30, 40) then closes in a batch
    /// that holds no object it accepts; a watermark crosses two boundaries
    /// with no objects; after a checkpoint, a batch reaches every group.
    dispatched_groups_close_where_the_walk_does: [
        reg(Method::Shared, time(20, 2, 10), ANY),
        reg(Method::Shared, time(20, 1, 10), tag(3, 1)),
        reg(Method::Shared, time(10, 1, 10), Filter { key: Some(40), ..ANY }),
        reg(Method::Shared, time(8, 2, 4), tag(2, 0)),
        Op::PublishTimed(timed(&[
            (3, 1, 4.0),
            (5, 3, 2.0),
            (9, 6, 7.0),
            (11, 9, 1.0),
            (15, 12, 5.0),
            (17, 17, 3.0),
            (21, 22, 6.0),
            (23, 26, 2.0),
            (27, 30, 8.0),
            (29, 31, 1.0),
        ])),
        reg(Method::Shared, time(20, 2, 10), tag(3, 1)),
        Op::PublishTimed(timed(&[(6, 34, 3.0), (33, 38, 9.0), (35, 44, 4.0)])),
        Op::AdvanceTime(61),
        Op::Drain,
        Op::Checkpoint { targets: 0x1D3 },
        Op::PublishTimed(timed(&[(40, 62, 5.0), (7, 65, 2.0), (8, 70, 6.0), (13, 73, 1.0)])),
        Op::AdvanceTime(90),
        Op::Drain,
    ]
}

/// A checkpoint cut inside the open slides of a warm count group and of
/// a warm slide group (each serving a two-member class; 2 of 4 arrivals
/// and 2 of 3 time units in), with a shared member still warming up;
/// restored into both hubs. The cut passes through warm gates, and the
/// restore rebuilds both classes and keeps the warming member a joiner,
/// whose class `result_classes` counts only from its seating on.
#[test]
fn checkpoint_cuts_warm_state() {
    let mut case = script_case("checkpoint_cuts_warm_state");
    case.run(&[
        reg(Method::Grouped, count(8, 1, 4), ANY),
        reg(Method::Grouped, count(8, 1, 4), ANY),
        reg(Method::Shared, time(6, 2, 3), ANY),
        reg(Method::Shared, time(6, 2, 3), ANY),
        Op::PublishTimed(timed(&[
            (7, 0, 2.0),
            (3, 1, 5.0),
            (9, 2, 5.0),
            (1, 3, 4.0),
            (8, 4, 6.0),
        ])),
        reg(Method::Shared, time(9, 1, 3), ANY),
        Op::PublishOneTimed(TimedObject::new(4, 4, 3.0)),
    ]);
    let cut = case.stats();
    case.apply(&Op::Checkpoint { targets: 0x5EED });
    for (i, (cut, restored)) in cut.iter().zip(case.stats()).enumerate() {
        assert!(
            cut.pruned > 0,
            "lane {i}: the cut passes through no warm gate"
        );
        let classes = (cut.result_classes, restored.result_classes);
        assert_eq!(
            classes,
            (2, 2),
            "lane {i}: result classes across the restore"
        );
    }
    case.run(&[
        Op::PublishTimed(timed(&[
            (2, 5, 7.0),
            (6, 8, 1.0),
            (5, 9, 6.0),
            (0, 12, 2.0),
        ])),
        Op::AdvanceTime(20),
        Op::Drain,
    ]);
}

script! {
    /// A registration after three `publish_one` calls sees none of them:
    /// the count group sits mid-slide, so the newcomer founds its own
    /// phase.
    subscribe_flushes_publish_one: [
        reg(Method::Grouped, count(2, 1, 2), ANY),
        Op::PublishOne(Object::new(1, 4.0)),
        Op::PublishOne(Object::new(2, 6.0)),
        Op::PublishOne(Object::new(3, 5.0)),
        reg(Method::Grouped, count(4, 1, 2), ANY),
        Op::PublishOne(Object::new(4, 1.0)),
        Op::PublishOne(Object::new(5, 2.0)),
        Op::Drain,
    ]
}

// ---------------------------------------------------------------------
// Stock streams: fixed schedules on generated stock streams of 4,000
// objects, with windows up to 500 arrivals or 600 time units and `k` up
// to 12, so windows expire, slides go empty and every algorithm leaves
// warm-up. Ids are scrambled by a bijection, so they stay unique but not
// monotonic.
// ---------------------------------------------------------------------

const STOCK_LEN: usize = 4_000;

fn scrambled(id: u64) -> u64 {
    id.wrapping_mul(40_503) & 0xFFFF
}

/// Splits a stream into ragged chunks of 317, 89 and 411 objects.
fn ragged<T: Clone>(mut data: &[T]) -> Vec<Vec<T>> {
    let mut chunks = Vec::new();
    for take in [317, 89, 411].into_iter().cycle() {
        if data.is_empty() {
            return chunks;
        }
        let (chunk, rest) = data.split_at(take.min(data.len()));
        chunks.push(chunk.to_vec());
        data = rest;
    }
    unreachable!("the cycle ends when the stream does")
}

/// The stock stream's untimed publishes.
fn stock_publishes() -> Vec<Op> {
    let data: Vec<Object> = Dataset::Stock.generate(STOCK_LEN, 42);
    let data: Vec<Object> = data
        .iter()
        .map(|o| Object::new(scrambled(o.id), o.score))
        .collect();
    ragged(&data).into_iter().map(Op::Publish).collect()
}

/// The stock stream's timed publishes, at Poisson arrivals `mean_gap`
/// time units apart on average, then a watermark past its end.
fn stock_timed_publishes(mean_gap: f64) -> Vec<Op> {
    let data = Dataset::Stock.generate_timed(STOCK_LEN, 42, ArrivalProcess::poisson(mean_gap));
    let horizon = data.last().map_or(0, |o| o.timestamp) + 500;
    let data: Vec<TimedObject> = data
        .iter()
        .map(|o| TimedObject::new(scrambled(o.id), o.timestamp, o.score))
        .collect();
    let mut ops: Vec<Op> = ragged(&data).into_iter().map(Op::PublishTimed).collect();
    ops.push(Op::AdvanceTime(horizon));
    ops
}

/// Replays the stock schedule: the first seven registrations, the first
/// half of the publishes with a drain after each, a checkpoint, the
/// first query unregistered and the rest registered mid-stream (joining
/// warm groups and growing their `k_max`), then the second half.
fn stock_schedule(test: &str, shapes: Vec<Shape>, registrations: &[Op], publishes: &[Op]) {
    let mut case = Case::new(format!("test={test}"), shapes);
    let (early, late) = registrations.split_at(7);
    let (first, second) = publishes.split_at(publishes.len() / 2);
    case.run(early);
    for op in first {
        case.run(&[op.clone(), Op::Drain]);
    }
    let targets = seed_of(test);
    case.run(&[Op::Checkpoint { targets }, Op::Unregister(0)]);
    case.run(late);
    for op in second {
        case.run(&[op.clone(), Op::Drain]);
    }
}

/// Lanes for a stock schedule: a `Hub`, `AsyncHub::new(n, n)` for n ∈
/// {1, 2, 8}, and 32 shards on 3 workers under a seeded scheduler.
fn stock_shapes(test: &str) -> Vec<Shape> {
    let seeded = Shape::Seeded {
        shards: 32,
        workers: 3,
        scheduler: seed_of(test),
    };
    vec![
        Shape::Sequential,
        Shape::Fifo(1),
        Shape::Fifo(2),
        Shape::Fifo(8),
        seeded,
    ]
}

/// Three slide durations straddling the 6-unit mean gap; the late
/// registrations carry the largest `k` of their groups, growing `k_max`
/// on join, and every fourth member ranks a tag-filtered substream.
#[test]
fn shared_hubs_agree_on_poisson_stock_stream() {
    const TEST: &str = "shared_hubs_agree_on_poisson_stock_stream";
    let registrations: Vec<Op> = (0..12)
        .map(|i| {
            let sd = [4, 30, 150][i % 3];
            let wd = sd * (1 + i as u64 % 4);
            let tag = (i % 4 == 3).then_some((3, i as u64 % 3));
            let filter = Filter { tag, ..ANY };
            reg_with(
                Method::Shared,
                time(wd, 1 + i, sd),
                filter,
                [0, 3, 2][i % 3],
            )
        })
        .collect();
    let publishes = stock_timed_publishes(6.0);
    stock_schedule(TEST, stock_shapes(TEST), &registrations, &publishes);
}

/// `register`ed count and timed queries — isolated count sessions and
/// slide-group members — on one timed stream; the slide durations
/// straddle the 4-unit mean gap, so some slides hold dozens of objects
/// and others none.
#[test]
fn mixed_hubs_agree_on_poisson_stock_stream() {
    const TEST: &str = "mixed_hubs_agree_on_poisson_stock_stream";
    let registrations: Vec<Op> = (0..12)
        .map(|i| {
            let (s, sd, k) = ([10, 20, 50][i % 3], [2, 25, 120][i % 3], 1 + 3 * (i % 4));
            let geometry = match i % 2 {
                0 => count(s * 4, k, s),
                _ => time(sd * 4, k, sd),
            };
            reg_with(Method::Register, geometry, ANY, [0, 3, 2][i % 3])
        })
        .collect();
    let publishes = stock_timed_publishes(4.0);
    stock_schedule(TEST, stock_shapes(TEST), &registrations, &publishes);
}

/// Isolated count queries with all five algorithms, on a `Hub` and on
/// seeded-scheduler `AsyncHub`s whose shards are often far above their
/// workers.
#[test]
fn async_hub_matches_sequential_on_stock_stream() {
    const TEST: &str = "async_hub_matches_sequential_on_stock_stream";
    let registrations: Vec<Op> = (0..12)
        .map(|i| {
            let s = [10, 20, 50][i % 3];
            let geometry = count(s * [4, 8, 10][i % 3], 1 + 3 * (i % 4), s);
            reg_with(Method::Register, geometry, ANY, i % 5)
        })
        .collect();
    let shapes = [(1, 1), (8, 2), (32, 3), (4, 8)].map(|(shards, workers)| Shape::Seeded {
        shards,
        workers,
        scheduler: 0xFEED_F00D,
    });
    let shapes = [&[Shape::Sequential][..], &shapes].concat();
    stock_schedule(TEST, shapes, &registrations, &stock_publishes());
}
