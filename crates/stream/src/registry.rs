//! The session registry: one copy of the fan-out, group, and statistics
//! bookkeeping shared by the sequential [`Hub`] and every [`AsyncHub`]
//! shard, plus the [`Registration`] value both hubs take.
//!
//! [`Registry`] holds that logic once: the sequential hub *is* a
//! registry driven from the caller's thread, and each async-hub shard
//! *is* a registry driven from its command queue — which is what keeps
//! the two byte-identical by construction. Both store the same boxed
//! [`Send`] engines, so one validated registration serves either hub.
//!
//! ## Groups
//!
//! SAP's Appendix-A reduction serves a window by reducing each closed
//! slide to its top objects and feeding that stream to a count-based
//! engine. Every registered query runs that reduction through a
//! [`SharedTimed`] consumer, and queries whose slides close together
//! form a **group** that owns one [`DigestProducer`]: each published
//! object is ingested **once per group**, and each slide is truncated
//! once at `k_max`, the largest member `k`. There is one group type and
//! one member type ([`GroupSession`]); groups differ only in their
//! [`Clock`]:
//!
//! * **event time** ([`Registration::shared`], which every time-based
//!   registration is): one group per `(slide_duration, predicate)`;
//!   slides close on timestamps and watermarks, and each reduces to its
//!   top-`k` per member;
//! * **arrival ordinals** ([`Registration::grouped`], which every
//!   count-based registration is): every count query with slide length
//!   `s` registered at the same stream offset (mod `s`) closes slides on
//!   the same arrivals, whatever its `n` and `k`. Such queries form one
//!   group, whose ordinals double as the producer's ids and timestamps
//!   (so a slide closes exactly every `s` arrivals) and whose ring of the
//!   last `n_max + s` external ids translates emissions back. A slide of
//!   `s` arrivals holds at most `s` objects, so each member reduces it to
//!   its top-`min(k, s)` ([`WindowSpec::reduced`]): for `k ≥ s` its
//!   engine sees exactly the stream a standalone [`Session`] would.
//!
//! A member must only observe objects published after its registration,
//! and each clock has its join rule for that. An arrival-clock member
//! joins a group only when the group's open slide is **empty**: it then
//! starts on a slide boundary and misses nothing. At most one group per
//! `(s, predicate)` can have an empty open slide (two always sit at
//! different offsets mod `s`), and a registration that finds none founds
//! a group at the current offset. An event-clock member joins its one
//! group; if the group has ingested anything it **warms up** as one of
//! the group's **joiners**: a private producer fed the raw stream serves
//! its class until the group slide it joined during has closed, after
//! which the private and shared views provably coincide and the group
//! seats the class as a reduction of its own. Warm-up slides count as
//! [`digest_rebuilds`](HubStats::digest_rebuilds), served slides as
//! [`digest_hits`](HubStats::digest_hits) or
//! [`count_group_hits`](HubStats::count_group_hits).
//!
//! ## Result classes
//!
//! Within a group, members with equal window, `k` and join slide whose
//! pasts provably coincide compute byte-identical slides, so they form
//! one **result class** that owns their one consumer. Every member sits
//! in exactly one class: a member that starts in step with its group
//! joins the class with its key (or founds one), and a joiner's class is
//! its own, one joiner each, until its seating. A slide close
//! serves every class from the producer's borrowed [`DigestView`] inside
//! the close: the id translation and the delta diff run **once per
//! class** (the engine slide once per reduction, below), and each member
//! emission is one five-word `QueryUpdate` holding the class's snapshot
//! and delta — two refcount bumps, zero heap allocations, whatever the
//! delta's size. The class is the only copy of its members' progress:
//! its consumer's slide count and its previous emission are every
//! member's, so a close touches no member session, and
//! [`Registry::session`] and `unregister` copy them onto a member before
//! handing it out. When the engine proves its top-k unchanged
//! ([`SlidingTopK::slide_if_changed`]), the close re-emits the previous
//! snapshot with `[Unchanged]` and skips the translation and the diff.
//! Emissions beyond the one computing member count as
//! [`class_hits`](HubStats::class_hits).
//!
//! ## Reductions
//!
//! Classes that differ only in `k` share one engine. Top-k answers
//! nest: under the one result order, a window's top-`k` is the first `k`
//! of its top-`k'` for every `k' ≥ k` (padding scores `−∞`, below every
//! finite score). So the classes of a group with equal window and join
//! slide that started in step form one **reduction**, and a close runs
//! one engine slide per reduction: on the consumer of its largest-`k`
//! class, the *reducing* class. Every class then translates, diffs and
//! emits the first `k` of that result on its own, and when the engine
//! proves the slide unchanged every class re-emits in `O(1)`. Each other
//! class keeps a **parked** consumer ([`SharedTimed::is_parked`]): the
//! close advances only its ring and slide count, its engine stays fresh,
//! and its checkpoint bytes are exactly a running consumer's.
//!
//! Only classes whose consumers are all fresh can meet, so only in-step
//! classes share: a newcomer with a larger `k` takes over a reduction
//! that has applied no slide yet, while a joiner's class is seated as a
//! reduction of its own. When the reducing class
//! empties, its last member leaves with the in-step consumer, and the
//! largest remaining class takes over; its parked consumer rehydrates
//! ([`SharedTimed::rehydrate`], the restore's replay of the ring) at the
//! next close. The last member out of any other class leaves with that
//! class's consumer still parked. Either way `unregister` runs no engine
//! code: engines run only inside ingest calls, which the async hub's
//! fault model relies on (an engine panic there has no reply to lose).
//!
//! A group keeps its classes for its whole life: `move_query`, `resize`
//! and a checkpoint carry it whole, classes, reductions and joiners
//! included. A checkpoint writes each group with its reductions, each
//! class once with its consumer and its member ids, then its joiners,
//! and a restore installs them the
//! way a resize does ([`RegistryParts::merge`]): every class's consumer
//! comes back parked, and each reduction's reducing class rehydrates —
//! one engine replay per reduction.
//!
//! ## Per-call cost
//!
//! The session store holds every registered query, but a publish or
//! watermark call never walks it: every member's consumer lives in a
//! class of its group, so a call serves groups only. A quiet call
//! therefore costs O(groups) ingest, plus each joiner's private ingest
//! inside its group; a member costs one update record per emission and
//! is never looked up.
//!
//! [`Hub`]: crate::session::Hub
//! [`AsyncHub`]: crate::exec::AsyncHub
//! [`Session`]: crate::session::Session

use std::collections::{HashMap, HashSet, VecDeque};

use crate::checkpoint::{
    tags, CheckpointError, DecodeState, Decoder, EncodeState, Encoder, MAX_RESTORED_WINDOW,
};
use crate::digest::{DigestProducer, DigestView, SharedTimed};
use crate::events::{EventList, SlideResult, Snapshot};
use crate::object::{Object, TimedObject};
use crate::predicate::{Predicate, PruneGate};
use crate::query::{SapError, TimedSpec};
use crate::session::{Clock, GroupSession, QueryId, QueryUpdate, SlideScratch};
use crate::window::{SlidingTopK, WindowSpec};

/// A point-in-time summary of a hub's registered queries and how much
/// per-slide work the shared digest plane is saving — what
/// `Hub::stats()`/`AsyncHub::stats()` report, so benches and examples
/// can measure sharing instead of guessing at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HubStats {
    /// Total registered queries.
    pub queries: usize,
    /// Time-based queries — every one is served by its slide group on
    /// the shared digest plane.
    pub shared_queries: usize,
    /// Live slide groups: distinct `(slide_duration, predicate)` keys
    /// with ≥ 1 shared member.
    ///
    /// **Invariant**: a slide group never spans shards — every member of
    /// a group lives on one shard, enforced by `AsyncHub`'s group-
    /// affine routing (`home_shard`) and debug-asserted at registration
    /// inside `Registry`. Summing this field across shards (see
    /// [`merge`](HubStats::merge)) is exact *only* because of that
    /// invariant: shard-local group counts partition the hub-wide set of
    /// groups, so no group is double-counted.
    pub digest_groups: u64,
    /// Slides served to a time-based member from its group's digest —
    /// work the member did **not** redo.
    pub digest_hits: u64,
    /// Slides a joiner's class computed from its private warm-up
    /// producer — a time-based member that registered mid-slide, catching
    /// up to its group (see the module docs).
    pub digest_rebuilds: u64,
    /// Count-based queries — every one is served by its count group
    /// ([`Registration::grouped`]).
    pub grouped_queries: usize,
    /// Live count groups: distinct `(slide length, registration offset
    /// mod slide length, predicate)` keys with ≥ 1 grouped member.
    /// Shard-local for the same reason as
    /// [`digest_groups`](HubStats::digest_groups), so per-shard sums are exact.
    pub count_groups: u64,
    /// Slides served to a count-based member from its group's shared
    /// truncation — per-slide work the member did **not** redo.
    pub count_group_hits: u64,
    /// Objects admitted into a sharing-plane producer's open slide —
    /// slide groups and count groups alike. Objects a group's
    /// subscription predicate rejects count toward **neither** `admitted`
    /// nor `pruned` — they never reach the dominance gate.
    pub admitted: u64,
    /// Objects the k-skyband dominance gate skipped: at ingest time, at
    /// least `k_max` already-admitted objects of the same open slide
    /// strictly dominated them, so they provably cannot appear in the
    /// slide's top-`k_max` digest and no member can ever observe them.
    /// Every group whose gate can prune runs it (an arrival-clock group
    /// with `k_max ≥ s` cannot, and skips it), and results are
    /// byte-identical to a standalone session of the same query. Pruned
    /// objects still advance arrival ordinals and slide boundaries, so
    /// slide numbering, checkpoints and drain order do not depend on it.
    ///
    /// ```
    /// use sap_stream::{Hub, Object, Registration};
    /// # use sap_stream::{OpStats, SlidingTopK, WindowSpec};
    /// # struct Toy(WindowSpec, Vec<Object>);
    /// # impl SlidingTopK for Toy {
    /// #     fn spec(&self) -> WindowSpec { self.0 }
    /// #     fn slide(&mut self, b: &[Object]) -> &[Object] { self.1 = b.to_vec(); &self.1 }
    /// #     fn candidate_count(&self) -> usize { 0 }
    /// #     fn memory_bytes(&self) -> usize { 0 }
    /// #     fn stats(&self) -> OpStats { OpStats::default() }
    /// #     fn name(&self) -> &str { "toy" }
    /// # }
    /// # fn reduced() -> Box<Toy> { Box::new(Toy(WindowSpec::new(4, 1, 1).unwrap(), Vec::new())) }
    /// let mut hub = Hub::new();
    /// hub.subscribe(Registration::grouped(reduced(), 16, 4)).unwrap();
    /// // descending scores: after the first, every arrival in the open
    /// // slide is dominated by k_max = 1 admitted object and is pruned
    /// let batch: Vec<Object> = (0..4).map(|i| Object::new(i, -(i as f64))).collect();
    /// hub.publish(&batch);
    /// assert_eq!(hub.stats().pruned, 3);
    /// assert_eq!(hub.stats().admitted, 1);
    /// ```
    pub pruned: u64,
    /// Live result classes across both sharing planes (see the module
    /// docs on result classes), each keyed by window, `k` and join slide
    /// inside its group. Every member sits in exactly one class, and a
    /// joiner's class counts from its seating on, so this equals the
    /// number of diffs a group slide close runs; the gap to
    /// `grouped_queries + shared_queries` is the work the second tier
    /// collapses. It counts classes, not the
    /// reductions that run their engines: classes that share a
    /// reduction count once each, as they did before reductions
    /// existed. Classes travel with their group through `move_query`,
    /// `resize` and checkpoint restore.
    ///
    /// Same-class members share one snapshot allocation per close:
    ///
    /// ```
    /// use sap_stream::{Hub, Object, Registration};
    /// # use sap_stream::{OpStats, SlidingTopK, WindowSpec};
    /// # struct Toy(WindowSpec, Vec<Object>);
    /// # impl SlidingTopK for Toy {
    /// #     fn spec(&self) -> WindowSpec { self.0 }
    /// #     fn slide(&mut self, b: &[Object]) -> &[Object] { self.1 = b.to_vec(); &self.1 }
    /// #     fn candidate_count(&self) -> usize { 0 }
    /// #     fn memory_bytes(&self) -> usize { 0 }
    /// #     fn stats(&self) -> OpStats { OpStats::default() }
    /// #     fn name(&self) -> &str { "toy" }
    /// # }
    /// # fn reduced() -> Box<Toy> { Box::new(Toy(WindowSpec::new(4, 2, 2).unwrap(), Vec::new())) }
    /// let mut hub = Hub::new();
    /// // two copies of the same ⟨n = 4, k = 2, s = 2⟩ query (`reduced()`
    /// // builds each member's engine over its reduction
    /// // `WindowSpec::reduced`, here the query's own spec as k ≥ s): one
    /// // result class, one computation
    /// hub.subscribe(Registration::grouped(reduced(), 4, 2)).unwrap();
    /// hub.subscribe(Registration::grouped(reduced(), 4, 2)).unwrap();
    /// let batch: Vec<Object> = (0..2).map(|i| Object::new(i, i as f64)).collect();
    /// let updates = hub.publish(&batch);
    /// assert_eq!(updates.len(), 2);
    /// assert!(updates[0].result.snapshot.ptr_eq(&updates[1].result.snapshot));
    /// assert_eq!(hub.stats().result_classes, 1);
    /// assert_eq!(hub.stats().class_hits, 1);
    /// ```
    pub result_classes: u64,
    /// Member emissions served from a class-level computation **beyond**
    /// the one that ran it — per-slide-close work the class memoized
    /// away. Zero while every class is solo (no two members share a
    /// view). Its meaning is unchanged by reductions: it counts per
    /// class, so a class whose answers a larger-`k` class's engine
    /// computed still counts only its members past the first. Like the
    /// hit/rebuild counters it survives `move_query`, `resize` and
    /// checkpoint restore.
    pub class_hits: u64,
    /// Times a publisher parked (blocked on a full shard queue) —
    /// [`AsyncHub`](crate::exec::AsyncHub) backpressure. Summed across
    /// shards by [`merge`](HubStats::merge); the per-shard split lives in
    /// `AsyncHub::shard_loads`, so a balancer can tell *which* shard is
    /// slow. Always 0 on the sequential hub.
    pub publisher_parks: u64,
    /// High-water mark of any one shard's command-queue depth —
    /// **max**-merged, not summed, so the hub-wide value is the worst
    /// shard's. Always 0 outside `AsyncHub`.
    pub queue_depth_hwm: u64,
}

impl HubStats {
    /// Fraction of shared-member slides served from a group digest:
    /// `hits / (hits + rebuilds)`, or 0 before any shared slide closed.
    pub fn digest_hit_rate(&self) -> f64 {
        let total = self.digest_hits + self.digest_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.digest_hits as f64 / total as f64
        }
    }

    /// Fraction of count-based slides served from a count group: 1.0
    /// once a count slide closed, 0 before. Every count-based query is a
    /// count-group member, so the rate carries no information beyond
    /// that; it stays because the `perfbench` harness reads it.
    pub fn count_group_hit_rate(&self) -> f64 {
        if self.count_group_hits == 0 {
            0.0
        } else {
            1.0
        }
    }

    /// Fraction of gate-eligible objects the dominance gate pruned:
    /// `pruned / (admitted + pruned)`, or 0 before any object reached a
    /// sharing-plane producer.
    pub fn prune_rate(&self) -> f64 {
        let total = self.admitted + self.pruned;
        if total == 0 {
            0.0
        } else {
            self.pruned as f64 / total as f64
        }
    }

    /// Fraction of sharing-plane member slides served from a result-class
    /// memo beyond the computing member: `class_hits / (digest_hits +
    /// count_group_hits)`, or 0 before any shared slide closed.
    ///
    /// **Dashboards should alarm on this rate falling, not on
    /// [`result_classes`](HubStats::result_classes) rising**: the class
    /// *count* grows with a healthy, diverse query population (every new
    /// class key — window, `k`, join slide — adds one), while a falling hit *rate*
    /// means slide closes are doing per-member work the memo used to
    /// absorb — the actual regression signal. Note the denominator counts
    /// member-slides served by the sharing planes, so the rate is
    /// comparable across hubs of different shard counts after
    /// [`merge`](HubStats::merge).
    pub fn class_hit_rate(&self) -> f64 {
        let total = self.digest_hits + self.count_group_hits;
        if total == 0 {
            0.0
        } else {
            self.class_hits as f64 / total as f64
        }
    }

    /// Field-wise accumulation — how `AsyncHub::stats()` folds its
    /// per-shard partials into one hub-wide view. Every field but
    /// [`queue_depth_hwm`](HubStats::queue_depth_hwm) is a straight sum,
    /// exact because each query (and — by the shard-locality invariant
    /// documented on [`digest_groups`](HubStats::digest_groups) — each
    /// group) is owned by exactly one shard; the high-water mark is
    /// max-merged.
    pub fn merge(&mut self, other: &HubStats) {
        self.queries += other.queries;
        self.shared_queries += other.shared_queries;
        self.digest_groups += other.digest_groups;
        self.digest_hits += other.digest_hits;
        self.digest_rebuilds += other.digest_rebuilds;
        self.grouped_queries += other.grouped_queries;
        self.count_groups += other.count_groups;
        self.count_group_hits += other.count_group_hits;
        self.admitted += other.admitted;
        self.pruned += other.pruned;
        self.result_classes += other.result_classes;
        self.class_hits += other.class_hits;
        self.publisher_parks += other.publisher_parks;
        // a high-water mark is a per-shard extremum, not a partition of a
        // hub-wide quantity — the merged value is the worst shard's
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
    }
}

/// The group identities one registry owns, reported alongside its
/// [`HubStats`] partial so the hub can audit the **shard-locality
/// invariant** that makes [`HubStats::merge`]'s straight sums exact:
/// `digest_groups`/`count_groups` totals are only correct because no
/// group ever spans two workers. A group's identity is its clock, slide,
/// open-slide fill and predicate. On the event clock the fill is 0: one
/// registry holds one group per `(slide_duration, predicate)`. On the
/// arrival clock, at a quiesced instant every shard has consumed the
/// same published prefix, so two groups with equal `s` and equal
/// predicate sit at the same fill only if they are the same offset class
/// (the same uniqueness argument the checkpoint encoding and
/// `RegistryParts::merge` rely on). Fill counts **observed stream
/// positions**, not buffered objects, so the identity is stable under
/// dominance pruning and predicate rejection.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct GroupKeys(pub(crate) Vec<(Clock, u64, u64, Predicate)>);

impl GroupKeys {
    /// Debug-asserts that `other` (reported by `shard`) shares no group
    /// identity with the shards already absorbed, then absorbs it. The
    /// release build just accumulates; the debug build turns a group
    /// split across workers — a routing regression that would silently
    /// double-count groups in [`HubStats`] — into a panic at the merge
    /// site.
    pub(crate) fn absorb_disjoint(&mut self, other: &GroupKeys, shard: usize) {
        if cfg!(debug_assertions) {
            if let Some(split) = other.0.iter().find(|id| self.0.contains(id)) {
                let plane = match split.0 {
                    Clock::Event => "slide",
                    Clock::Arrival => "count",
                };
                panic!(
                    "{plane} group split across workers: {split:?} reported by \
                     shard {shard} and an earlier shard"
                );
            }
        }
        self.0.extend_from_slice(&other.0);
    }
}

/// A standing query ready for a hub: its engine, the group clock that
/// serves it, and its subscription predicate — the one value both
/// [`Hub::subscribe`](crate::session::Hub::subscribe) and
/// [`AsyncHub::subscribe`](crate::exec::AsyncHub::subscribe) take.
///
/// Every query joins a sharing-plane group; the constructors name the
/// clock:
///
/// * [`shared`](Registration::shared) — a time-based query
///   `W⟨window_duration, slide_duration⟩`: each slide's top-`k_max` is
///   computed once per slide group (equal `slide_duration` and
///   predicate) and every member slices its own `k`. A member joining
///   mid-stream warms up as one of its group's joiners for at most the
///   rest of the open slide. Its engine answers the Appendix-A reduction
///   `⟨(n/s)·k, k, k⟩` of the durations ([`TimedSpec::reduced`]);
/// * [`grouped`](Registration::grouped) — a count-based query
///   `⟨n, k, s⟩`: queries with equal slide length, registration offset
///   mod `s` and predicate share one per-slide truncation. Its engine
///   answers `⟨(n/s)·w, k, w⟩`, `w = min(k, s)` ([`WindowSpec::reduced`]),
///   which is the query's own spec when `k ≥ s`.
///
/// Results are byte-identical to a standalone session of the same query
/// (a [`Session`](crate::session::Session), or a
/// [`TimedSession`](crate::session::TimedSession)). The engine must be
/// fresh.
///
/// [`filter`](Registration::filter) attaches a subscription predicate:
/// the query ranks only objects the predicate accepts, while rejected
/// objects still advance slide boundaries. Members with different
/// predicates never share a group, so a selective subscription cannot
/// perturb a pass-all neighbor.
///
/// A hub validates the registration once, before it allocates an id:
/// wrong engine geometry (including `k > n` or `s ∤ n`) is a typed
/// [`SapError::Spec`], and an empty score range
/// [`SapError::InvalidPredicate`].
pub struct Registration {
    plane: Plane,
    predicate: Predicate,
}

/// The plane a [`Registration`] asks for, with its engine and geometry.
enum Plane {
    Shared {
        engine: Box<dyn SlidingTopK + Send>,
        window_duration: u64,
        slide_duration: u64,
    },
    Grouped {
        engine: Box<dyn SlidingTopK + Send>,
        n: usize,
        s: usize,
    },
}

impl Registration {
    fn on(plane: Plane) -> Registration {
        Registration {
            plane,
            predicate: Predicate::default(),
        }
    }

    /// A time-based query `W⟨window_duration, slide_duration⟩` on the
    /// shared digest plane; `engine` answers its reduction. It slides on
    /// event time, so it advances on `publish_timed` and `advance_time`
    /// only.
    pub fn shared(
        engine: Box<dyn SlidingTopK + Send>,
        window_duration: u64,
        slide_duration: u64,
    ) -> Registration {
        Registration::on(Plane::Shared {
            engine,
            window_duration,
            slide_duration,
        })
    }

    /// A count-based query `⟨n, k, s⟩` on the count plane, `k` being the
    /// engine's; `engine` answers its reduction [`WindowSpec::reduced`].
    pub fn grouped(engine: Box<dyn SlidingTopK + Send>, n: usize, s: usize) -> Registration {
        Registration::on(Plane::Grouped { engine, n, s })
    }

    /// Ranks only the objects `predicate` accepts (see the type docs).
    pub fn filter(mut self, predicate: Predicate) -> Registration {
        self.predicate = predicate;
        self
    }

    /// Validates the registration into the member a registry serves.
    pub(crate) fn admit(self) -> Result<HubMember, SapError> {
        let Registration { plane, predicate } = self;
        predicate
            .validate()
            .map_err(|reason| SapError::InvalidPredicate { reason })?;
        let (consumer, clock) = match plane {
            Plane::Shared {
                engine,
                window_duration,
                slide_duration,
            } => (
                SharedTimed::from_engine(engine, window_duration, slide_duration),
                Clock::Event,
            ),
            Plane::Grouped { engine, n, s } => {
                (SharedTimed::from_count_engine(engine, n, s), Clock::Arrival)
            }
        };
        Ok(Member {
            consumer: Box::new(consumer.map_err(SapError::Spec)?),
            clock,
            predicate,
        })
    }
}

/// A validated [`Registration`], in the shape a [`Registry`] serves it:
/// the reduced consumer (its window, slide and `k` are the query's;
/// boxed, as it travels through the hubs' command queues), the clock of
/// the group it joins, and the predicate keying it.
pub(crate) struct Member<C: SlidingTopK> {
    pub(crate) consumer: Box<SharedTimed<C>>,
    pub(crate) clock: Clock,
    pub(crate) predicate: Predicate,
}

/// The member both hubs register: boxed [`Send`] engines.
pub(crate) type HubMember = Member<Box<dyn SlidingTopK + Send>>;

/// The registry both hubs drive.
pub(crate) type HubRegistry = Registry<Box<dyn SlidingTopK + Send>>;

/// The group both hubs move between shards.
pub(crate) type HubGroup = Group<Box<dyn SlidingTopK + Send>>;

/// One sharing-plane group (see the [module docs](self)): the producer
/// that truncates each slide once at `k_max`, the subscription
/// predicate, the dominance gate, the clock, and the result classes
/// serving the members. A group travels whole — in [`RegistryParts`]
/// (resize and restore) and in a migration — classes and joiners
/// included.
pub(crate) struct Group<C: SlidingTopK> {
    producer: DigestProducer,
    /// Objects it rejects advance the group's clock but are never
    /// buffered, so every member ranks the filtered stream.
    predicate: Predicate,
    /// The k-skyband dominance gate over the open slide's admitted
    /// objects — rebuilt whenever `k_max` changes or the group is
    /// decoded, reset at every slide close.
    gate: PruneGate,
    clock: GroupClock,
    /// Registered members, joiners included.
    members: usize,
    /// The widest member window: the arrival clock's ring retains
    /// `widest + s` ordinals, which covers every ordinal a member can
    /// reference at a close, because members are served *inside* the
    /// close (before later arrivals can evict entries). Trimming is
    /// lazy, so a shrink drains over time.
    widest: u64,
    /// Every member sits in exactly one class: of one reduction, or of
    /// one joiner.
    reductions: Vec<Reduction<C>>,
    /// The event clock's mid-slide registrants, by ascending member id.
    joiners: Vec<Joiner<C>>,
}

/// How a group tells time, with the arrival clock's state.
enum GroupClock {
    /// Event time: the producer runs on the objects' own ids and
    /// timestamps.
    Event,
    /// Arrival ordinals: the producer runs on group ordinals, used as
    /// both id and timestamp, so the one truncation tie-break — equal
    /// scores to the higher id — lands on arrival recency, exactly like
    /// a standalone [`Session`](crate::session::Session)'s.
    Arrival(Arrivals),
}

/// The arrival clock's state.
struct Arrivals {
    /// External id of group ordinal `r` at `ring[r - ring_base]` — the
    /// translation every class close reads.
    ring: VecDeque<u64>,
    ring_base: u64,
    /// Objects the group has observed = the next ordinal. Under
    /// admission control this counts **every** published object —
    /// predicate-rejected and dominance-pruned ones included — so slide
    /// boundaries, the ring, and drain order do not depend on admission.
    next_ordinal: u64,
}

impl GroupClock {
    fn new(clock: Clock) -> GroupClock {
        match clock {
            Clock::Event => GroupClock::Event,
            Clock::Arrival => GroupClock::Arrival(Arrivals {
                ring: VecDeque::new(),
                ring_base: 0,
                next_ordinal: 0,
            }),
        }
    }

    fn kind(&self) -> Clock {
        match self {
            GroupClock::Event => Clock::Event,
            GroupClock::Arrival(_) => Clock::Arrival,
        }
    }

    /// The per-object clock step: the object as the producer sees it,
    /// and the clock's watermark after it. Event time keeps the object.
    /// The arrival clock stamps the next ordinal `r` as id and timestamp,
    /// appends the external id to the ring (keeping the last `retain`),
    /// and moves to `r + 1`, which closes the slide `r` fills.
    fn step(&mut self, o: TimedObject, retain: u64) -> (TimedObject, u64) {
        match self {
            GroupClock::Event => (o, o.timestamp),
            GroupClock::Arrival(a) => {
                let r = a.next_ordinal;
                a.next_ordinal += 1;
                a.ring.push_back(o.id);
                if a.ring.len() as u64 > retain {
                    a.ring.pop_front();
                    a.ring_base += 1;
                }
                (TimedObject::new(r, r, o.score), r + 1)
            }
        }
    }

    /// The id translation at a close: `top` in the caller's ids, appended
    /// to `out`. Arrival-clock objects carry ordinals, which the ring maps
    /// back to the ids they were published with.
    fn translate(&self, top: &[TimedObject], out: &mut Vec<Object>) {
        match self {
            GroupClock::Event => out.extend(top.iter().map(TimedObject::untimed)),
            GroupClock::Arrival(a) => out.extend(
                top.iter()
                    .map(|o| Object::new(a.ring[(o.id - a.ring_base) as usize], o.score)),
            ),
        }
    }

    /// Observed stream positions inside the open slide — the arrival
    /// clock's close trigger and identity. Derived from the ordinal,
    /// **not** `pending_len()`: admission control admits fewer objects
    /// than it observes, but the slide fills on observation. 0 on the
    /// event clock. Wrapping, because a restore reads a decoded group's
    /// identity before [`RegistryParts::merge`] rejects an inconsistent
    /// one.
    fn fill(&self, producer: &DigestProducer) -> u64 {
        match self {
            GroupClock::Event => 0,
            GroupClock::Arrival(a) => a.next_ordinal.wrapping_sub(
                producer
                    .next_slide()
                    .wrapping_mul(producer.slide_duration()),
            ),
        }
    }
}

impl<C: SlidingTopK> Group<C> {
    /// A group around `producer` with no members yet; the gate is
    /// derived state, rebuilt from the open slide's admitted buffer so
    /// pruning resumes exactly.
    fn new(producer: DigestProducer, predicate: Predicate, clock: GroupClock) -> Self {
        let mut gate = PruneGate::new(producer.k_max());
        gate.rebuild(producer.k_max(), producer.pending());
        Group {
            producer,
            predicate,
            gate,
            clock,
            members: 0,
            widest: 0,
            reductions: Vec::new(),
            joiners: Vec::new(),
        }
    }

    /// The join-rule key: groups with one clock, slide and predicate.
    fn key(&self) -> (Clock, u64, Predicate) {
        (
            self.clock.kind(),
            self.producer.slide_duration(),
            self.predicate,
        )
    }

    /// The identity [`GroupKeys`] audits and canonical order sorts by.
    pub(crate) fn identity(&self) -> (Clock, u64, u64, Predicate) {
        (
            self.clock.kind(),
            self.producer.slide_duration(),
            self.clock.fill(&self.producer),
            self.predicate,
        )
    }

    /// Deepens the digests to a joining member's `k`. Deepening mid-slide
    /// is exact (the open slide is held untruncated), but the gate's cap
    /// just grew: rebuild it from the admitted buffer so it never
    /// over-prunes.
    fn deepen(&mut self, k: usize) {
        self.producer.grow_k_max(k);
        self.gate
            .rebuild(self.producer.k_max(), self.producer.pending());
    }

    /// Counts a member in, widening the retention to its window.
    fn count(&mut self, member: &GroupSession<C>) {
        self.members += 1;
        self.widest = self.widest.max(member.window());
    }

    /// Every seated result class, across the group's reductions.
    fn classes(&self) -> impl Iterator<Item = &Class<C>> {
        self.reductions.iter().flat_map(|r| &r.classes)
    }

    /// Every reduction: the seated ones, then the joiners'.
    fn all_reductions(&self) -> impl Iterator<Item = &Reduction<C>> {
        let joiners = self.joiners.iter().map(|j| &j.reduction);
        self.reductions.iter().chain(joiners)
    }

    /// The class holding member `id`, with its position (reduction,
    /// class) in [`all_reductions`](Group::all_reductions), so a joiner's
    /// reduction index is past the seated ones: `O(classes)` binary
    /// searches of the ascending member lists.
    fn class_of(&self, id: QueryId) -> ((usize, usize), &Class<C>) {
        self.all_reductions()
            .enumerate()
            .find_map(|(ri, r)| {
                let holds = |c: &&Class<C>| c.members.binary_search(&id).is_ok();
                let (ci, class) = r.classes.iter().enumerate().find(|(_, c)| holds(c))?;
                Some(((ri, ci), class))
            })
            .expect("a member's group holds its class")
    }

    /// The admission plane: the predicate gates fan-out, then the
    /// k-skyband dominance gate prunes objects that provably cannot
    /// survive the open slide's top-`k_max` truncation (≥ `k_max`
    /// admitted objects strictly dominate them), and the rest is
    /// buffered. `raw` is the object as published — predicates test its
    /// own id — and `o` as the clock stamped it.
    fn admit(&mut self, raw: &TimedObject, o: TimedObject, counters: &mut Counters) {
        if !self.predicate.accepts_timed(raw) {
            return;
        }
        let gated = self.gated();
        if gated && !self.gate.admits(o.score) {
            counters.pruned += 1;
            return;
        }
        // the clock step already moved the producer to `o.timestamp`, so
        // this ingest can close nothing — it only buffers
        self.producer.ingest_with(o, &mut |_| {
            debug_assert!(false, "an ingest after its clock step closes no slide")
        });
        counters.admitted += 1;
        if gated {
            self.gate.offer(o.score);
        }
    }

    /// Whether the dominance gate can prune at all. An arrival-clock
    /// slide holds `s` arrivals, so with `k_max ≥ s` no object ever has
    /// `k_max` admitted objects ahead of it, and the group skips the gate.
    fn gated(&self) -> bool {
        match self.clock {
            GroupClock::Event => true,
            GroupClock::Arrival(_) => {
                (self.producer.k_max() as u64) < self.producer.slide_duration()
            }
        }
    }

    /// Moves the producer to `to`. Every slide that closes is served
    /// inside the close, from the producer's borrowed view: one engine
    /// slide per reduction, one diff per class, then one update per
    /// member; the members past the first of each class were served
    /// without a diff. A close opens a fresh slide, so the gate resets.
    fn advance(&mut self, to: u64, counters: &mut Counters, delivery: &mut Delivery<'_>) {
        let Group {
            producer,
            gate,
            clock,
            reductions,
            ..
        } = self;
        let before = producer.next_slide();
        producer.advance_to_with(to, &mut |view| {
            for reduction in reductions.iter_mut() {
                reduction.close(view, clock, |members, slide, snapshot, events| {
                    delivery.stamp(members, slide, &snapshot, &events);
                    let served = members.len() as u64;
                    *counters.hits(clock.kind()) += served;
                    counters.class_hits += served - 1;
                });
            }
        });
        if producer.next_slide() != before {
            gate.reset();
        }
    }

    /// Moves the group's clock by `tick`. The joiners go first, served
    /// over the whole tick from their private producers. Then the clock
    /// steps once per object: the step closes the slides it crosses
    /// (event time before the object lands, so the gate judges it against
    /// the slide it lands in; the arrival clock after, as its ordinal
    /// fills the slide), and the admission plane buffers the object in
    /// between. Last, every joiner whose join slide has closed is seated.
    /// A tick that carries nothing for the clock leaves the group alone.
    fn serve(&mut self, tick: Tick<'_>, counters: &mut Counters, delivery: &mut Delivery<'_>) {
        let objects = match (tick, &self.clock) {
            (Tick::Timed(objects), _) | (Tick::Untimed(objects), GroupClock::Arrival(_)) => objects,
            (Tick::Watermark(_), GroupClock::Event) => &[],
            _ => return,
        };
        self.serve_joiners(tick, counters, delivery);
        let retain = self.widest.saturating_add(self.producer.slide_duration());
        for raw in objects {
            let (o, after) = self.clock.step(*raw, retain);
            self.advance(o.timestamp, counters, delivery);
            self.admit(raw, o, counters);
            self.advance(after, counters, delivery);
        }
        if let Tick::Watermark(watermark) = tick {
            self.advance(watermark, counters, delivery);
        }
        self.seat_joiners();
    }

    /// Serves every joiner over the whole tick from its private producer,
    /// fed the raw stream through the group's predicate: a rejected
    /// object still moves the private clock (closing any slides its
    /// timestamp implies), exactly as it moves the group's, so the two
    /// close identical slide sequences for the seating. Each close runs
    /// the joiner's one-class reduction, and its slides count as
    /// [`digest_rebuilds`](HubStats::digest_rebuilds).
    fn serve_joiners(
        &mut self,
        tick: Tick<'_>,
        counters: &mut Counters,
        delivery: &mut Delivery<'_>,
    ) {
        let Group {
            predicate,
            clock,
            joiners,
            ..
        } = self;
        for Joiner {
            producer,
            reduction,
            ..
        } in joiners
        {
            let close: &mut dyn FnMut(DigestView<'_>) = &mut |view| {
                reduction.close(view, clock, |members, slide, snapshot, events| {
                    delivery.stamp(members, slide, &snapshot, &events);
                    counters.digest_rebuilds += members.len() as u64;
                })
            };
            match tick {
                Tick::Timed(objects) => {
                    for &o in objects {
                        producer.advance_to_with(o.timestamp, close);
                        if predicate.accepts_timed(&o) {
                            producer.ingest_with(o, close);
                        }
                    }
                }
                Tick::Watermark(watermark) => producer.advance_to_with(watermark, close),
                Tick::Untimed(_) => {}
            }
        }
    }

    /// Seats every joiner whose join slide the group has closed as a
    /// reduction of its own, in id order: both producers processed the
    /// same timestamps, so from the group's next slide on the private and
    /// shared views are identical.
    fn seat_joiners(&mut self) {
        let next = self.producer.next_slide();
        let ready = self.joiners.extract_if(.., |j| j.open_slide < next);
        self.reductions.extend(ready.map(|j| {
            debug_assert_eq!(
                j.class().consumer.slides_applied(),
                next,
                "warm-up must hand off exactly at the group's slide cursor"
            );
            j.reduction
        }));
    }

    /// Writes the group's state: an event-clock group's slide duration,
    /// predicate and producer; an arrival-clock group's predicate,
    /// producer, ordinal (explicit: under admission control the fill is
    /// not derivable from the producer's buffer) and ring.
    fn encode(&self, e: &mut Encoder) {
        match &self.clock {
            GroupClock::Event => {
                e.put_u64(self.producer.slide_duration());
                self.predicate.encode(e);
                self.producer.encode_state(e);
            }
            GroupClock::Arrival(a) => {
                self.predicate.encode(e);
                self.producer.encode_state(e);
                e.put_u64(a.next_ordinal);
                e.put_u64(a.ring_base);
                e.put_u64(a.ring.len() as u64);
                for &ext in &a.ring {
                    e.put_u64(ext);
                }
            }
        }
    }

    /// Reads the state [`encode`](Group::encode) writes for `clock`.
    fn decode(clock: Clock, dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(match clock {
            Clock::Event => {
                let sd = dec.take_u64()?;
                let predicate = Predicate::decode(dec)?;
                let producer = DigestProducer::decode_state(dec)?;
                if producer.slide_duration() != sd {
                    return Err(CheckpointError::Corrupt(
                        "group key disagrees with its producer",
                    ));
                }
                Group::new(producer, predicate, GroupClock::Event)
            }
            Clock::Arrival => {
                let predicate = Predicate::decode(dec)?;
                let producer = DigestProducer::decode_state(dec)?;
                let next_ordinal = dec.take_u64()?;
                let ring_base = dec.take_u64()?;
                let len = dec.take_seq_len()?;
                let mut ring = VecDeque::with_capacity(len);
                for _ in 0..len {
                    ring.push_back(dec.take_u64()?);
                }
                let arrivals = Arrivals {
                    ring,
                    ring_base,
                    next_ordinal,
                };
                Group::new(producer, predicate, GroupClock::Arrival(arrivals))
            }
        })
    }

    /// Writes the group's checkpoint record: its clock and state
    /// ([`encode`](Group::encode)); its reductions, each as its classes
    /// head first — the consumer's engine name, window, `k` and join
    /// slide, the class's previous emission, the consumer's ring and slide
    /// count in their own frame, then the member ids with their engine
    /// names; and its joiners, as its warming members ([`Joiner::encode`]).
    fn encode_record(&self, e: &mut Encoder, sessions: &[(QueryId, GroupSession<C>)]) {
        e.put_u8(match self.clock {
            GroupClock::Event => 0,
            GroupClock::Arrival(_) => 1,
        });
        self.encode(e);
        let session = |id: &QueryId| {
            let at = sessions.binary_search_by_key(id, |(q, _)| *q);
            &sessions[at.expect("class member ids name registered sessions")].1
        };
        e.put_u64(self.reductions.len() as u64);
        for reduction in &self.reductions {
            e.put_u64(reduction.classes.len() as u64);
            for class in &reduction.classes {
                let consumer = &class.consumer;
                e.put_str(consumer.name());
                e.put_u64(consumer.window_duration());
                e.put_usize(consumer.k());
                e.put_u64(class.join_slide);
                class.prev.encode_state(e);
                e.section(tags::ENGINE, |e| consumer.encode_state(e));
                e.put_u64(class.members.len() as u64);
                for id in &class.members {
                    e.put_u64(id.raw());
                    e.put_str(session(id).engine_name());
                }
            }
        }
        e.put_u64(self.joiners.len() as u64);
        for joiner in &self.joiners {
            joiner.encode(e);
        }
    }

    /// Reads one [`encode_record`](Group::encode_record) record as the
    /// group at `index` of its registry section, in the shape
    /// [`Registry::eject_all`] hands out: the group owns its classes,
    /// reductions and joiners and counts its members, whose sessions,
    /// all without a consumer, are appended to `sessions`. Every class's
    /// consumer comes back parked, and each reduction's head rehydrates
    /// (a joiner's too): one engine replay per reduction. The record's
    /// shape is checked here, its state against the group in
    /// [`RegistryParts::merge`].
    fn decode_record(
        dec: &mut Decoder<'_>,
        index: u64,
        count: &mut dyn FnMut(&str, WindowSpec) -> Result<C, SapError>,
        sessions: &mut Vec<(QueryId, GroupSession<C>)>,
    ) -> Result<Self, SapError> {
        let clock = match dec.take_u8()? {
            0 => Clock::Event,
            1 => Clock::Arrival,
            _ => return Err(CheckpointError::Corrupt("unknown group clock").into()),
        };
        let mut group = Group::decode(clock, dec)?;
        let slide = group.producer.slide_duration();
        let corrupt = |what| SapError::from(CheckpointError::Corrupt(what));
        for _ in 0..dec.take_seq_len()? {
            let mut classes: Vec<Class<C>> = Vec::new();
            for _ in 0..dec.take_seq_len()? {
                let name = dec.take_str()?;
                let (window, k, join_slide) = (dec.take_u64()?, dec.take_usize()?, dec.take_u64()?);
                let prev = Snapshot::decode_state(dec)?;
                let mut consumer = fresh_consumer(count, clock, name, (window, slide, k))?;
                let mut blob = dec.section(tags::ENGINE)?;
                consumer.restore_state(&mut blob)?;
                blob.finish()?;
                if let Some(above) = classes.last() {
                    let step = |c: &SharedTimed<C>| (c.window_duration(), c.slides_applied());
                    if above.join_slide != join_slide || step(&above.consumer) != step(&consumer) {
                        return Err(corrupt(
                            "reduction classes disagree on window, join slide or slide count",
                        ));
                    }
                    if above.consumer.k() <= k {
                        return Err(corrupt("reduction classes out of descending k"));
                    }
                }
                let mut members: Vec<QueryId> = Vec::new();
                for _ in 0..dec.take_seq_len()? {
                    let id = QueryId::from_raw(dec.take_u64()?);
                    if members.last().is_some_and(|last| *last >= id) {
                        return Err(corrupt("class member ids do not ascend"));
                    }
                    let m = GroupSession::classed(clock, &consumer, dec.take_str()?, index);
                    group.count(&m);
                    members.push(id);
                    sessions.push((id, m));
                }
                if members.is_empty() {
                    return Err(corrupt("result class with no members"));
                }
                classes.push(Class {
                    join_slide,
                    consumer,
                    members,
                    prev,
                    scratch: SlideScratch::default(),
                });
            }
            let Some(head) = classes.first_mut() else {
                return Err(corrupt("reduction with no classes"));
            };
            head.consumer.rehydrate();
            group.reductions.push(Reduction { classes });
        }
        let joiners = dec.take_seq_len()?;
        if joiners > 0 && clock == Clock::Arrival {
            return Err(corrupt("count-group member warming up"));
        }
        for _ in 0..joiners {
            let id = QueryId::from_raw(dec.take_u64()?);
            let name = dec.take_str()?;
            let (window, k) = (dec.take_u64()?, dec.take_usize()?);
            let mut consumer = fresh_consumer(count, clock, name, (window, slide, k))?;
            // the slide count, which the consumer's own frame restates
            dec.take_u64()?;
            let prev = Snapshot::decode_state(dec)?;
            let mut blob = dec.section(tags::ENGINE)?;
            consumer.restore_state(&mut blob)?;
            blob.finish()?;
            consumer.rehydrate();
            let open_slide = dec.take_u64()?;
            let producer = DigestProducer::decode_state(dec)?;
            if producer.slide_duration() != slide {
                return Err(corrupt(
                    "warm-up producer disagrees with its session's slide duration",
                ));
            }
            let m = GroupSession::classed(clock, &consumer, consumer.name(), index);
            group.count(&m);
            sessions.push((id, m));
            group.joiners.push(Joiner {
                producer,
                open_slide,
                reduction: Reduction::of(Class::new(id, 0, consumer, prev)),
            });
        }
        group.joiners.sort_by_key(Joiner::member);
        Ok(group)
    }

    /// Checks a restored or migrated class's consumer against this
    /// group, as `join_slide` lines it up:
    /// the group is at least as deep as its `k`, and it applied exactly
    /// the slides the group closed since it joined (on the event clock,
    /// from slide 0). On the arrival clock every object it holds must
    /// carry an ordinal of the slide that brought it, inside the group's
    /// id ring, which translates it. Returns the earliest ordinal its
    /// next emission can reference (`u64::MAX` on the event clock).
    fn check_consumer(
        &self,
        consumer: &SharedTimed<C>,
        join_slide: u64,
    ) -> Result<u64, CheckpointError> {
        if self.producer.k_max() < consumer.k() {
            return Err(CheckpointError::Corrupt(
                "group shallower than a member's k",
            ));
        }
        let next = self.producer.next_slide();
        let a = match &self.clock {
            GroupClock::Event if join_slide == 0 && consumer.slides_applied() == next => {
                return Ok(u64::MAX);
            }
            GroupClock::Event => {
                return Err(CheckpointError::Corrupt(
                    "shared member out of step with its producers",
                ));
            }
            GroupClock::Arrival(a) => a,
        };
        if join_slide > next {
            return Err(CheckpointError::Corrupt(
                "count-group member joined past its group",
            ));
        }
        // arrival slides never straddle a checkpoint boundary, so every
        // member is exactly caught up to its group
        if consumer.slides_applied() != next - join_slide {
            return Err(CheckpointError::Corrupt(
                "count-group member out of step with its group",
            ));
        }
        let sd = self.producer.slide_duration();
        if consumer.window_by_age().any(|(age, o)| {
            !(a.ring_base..a.next_ordinal).contains(&o.id)
                || next.checked_sub(age + 1) != Some(o.id / sd)
        }) {
            return Err(CheckpointError::Corrupt(
                "count-group member holds an ordinal outside its slide",
            ));
        }
        // the next emission ranks the last `window` arrivals, but none
        // from before the join
        let end = next.saturating_add(1).saturating_mul(sd);
        Ok(end
            .saturating_sub(consumer.window_duration())
            .max(join_slide.saturating_mul(sd)))
    }
}

/// One **reduction**: the result classes of a group that share a window
/// and a join slide and started in step, served by one engine run at
/// their largest `k` (see the [module docs](self)).
struct Reduction<C: SlidingTopK> {
    /// By descending `k`, one class per `k`. The first class's consumer
    /// is the one engine the reduction runs (parked only from a take-over
    /// to the next close, which rehydrates it); every other class's
    /// consumer is parked ([`SharedTimed::park_slide`]), and its answer
    /// is the first `k` of the first class's.
    classes: Vec<Class<C>>,
}

impl<C: SlidingTopK> Reduction<C> {
    /// A reduction of one class.
    fn of(class: Class<C>) -> Self {
        Reduction {
            classes: vec![class],
        }
    }

    /// The window and join slide every class shares.
    fn key(&self) -> (u64, u64) {
        let head = &self.classes[0];
        (head.consumer.window_duration(), head.join_slide)
    }

    /// Adds a class that starts in step with the reduction, which has
    /// applied no slide yet: every consumer in it is fresh, so a class of
    /// larger `k` takes over as the reducing class, and the one it
    /// displaces parks.
    fn insert(&mut self, class: Class<C>) {
        debug_assert_eq!(
            self.classes[0].consumer.slides_applied(),
            0,
            "a joinable reduction is at its still-open join slide"
        );
        let k = class.consumer.k();
        let at = self.classes.partition_point(|c| c.consumer.k() > k);
        self.classes.insert(at, class);
    }

    /// The reduction-level half of a close: one engine slide, on the
    /// reducing class's consumer (rehydrated first if a take-over left it
    /// parked); a ring-only step for every parked consumer; then, per
    /// class, one id translation and one diff of its first `k` through
    /// the sessions' one close routine ([`SlideScratch::close`]), handed
    /// to `emit` with the class's members, the members' slide number (all
    /// classes of a reduction share it), the snapshot and the delta. When
    /// the engine proves its top-k unchanged, so is every class's prefix:
    /// each re-emits its `prev` with `[Unchanged]` in `O(1)`.
    fn close(
        &mut self,
        view: DigestView<'_>,
        clock: &GroupClock,
        mut emit: impl FnMut(&[QueryId], u64, Snapshot, EventList),
    ) {
        let (head, parked) = self
            .classes
            .split_first_mut()
            .expect("a reduction holds a class");
        let slide = view.slide - head.join_slide;
        let Class {
            consumer,
            members,
            prev,
            scratch,
            ..
        } = head;
        let top = consumer.apply_slide_top(slide, view.top);
        let translate = |top: &[TimedObject], out: &mut Vec<Object>| clock.translate(top, out);
        let (snapshot, events) = scratch.close(prev, top, translate);
        emit(members, slide, snapshot, events);
        for class in parked {
            class.consumer.park_slide(slide, view.top);
            let top = top.map(|top| &top[..class.consumer.k().min(top.len())]);
            let (snapshot, events) = class.scratch.close(&mut class.prev, top, translate);
            emit(&class.members, slide, snapshot, events);
        }
    }
}

/// One **result class**: members whose emissions are the same function
/// of the group's stream — equal window, `k` and join slide, and a
/// provably equal past (see the [module docs](self)). The class keeps
/// their one consumer, diffs each close once, and sits in one
/// [`Reduction`].
struct Class<C: SlidingTopK> {
    /// The group slide the consumer's slide 0 lines up with: the open
    /// slide its members joined at on the arrival clock. Always 0 on the
    /// event clock, whose slide indices are global: a joiner's warm-up
    /// closes the empty slides before its registration, like a
    /// standalone session does. With the consumer's window and `k`, the
    /// class key.
    join_slide: u64,
    /// The members' one consumer: in step when the class reduces its
    /// reduction, parked otherwise.
    consumer: SharedTimed<C>,
    /// Member query ids, ascending.
    members: Vec<QueryId>,
    /// The class's previous emission: every member's, so the class-level
    /// diff is valid for all of them. With the consumer's slide count,
    /// the only copy of the members' progress (see [`GroupSession`]).
    prev: Snapshot,
    /// Its last delta, shared by the members' updates, is rebuilt in
    /// place once they are all dropped.
    scratch: SlideScratch,
}

impl<C: SlidingTopK> Class<C> {
    /// A class of one: member `id` over `consumer`, lined up with group
    /// slide `join_slide`, with its previous emission `prev`.
    fn new(id: QueryId, join_slide: u64, consumer: SharedTimed<C>, prev: Snapshot) -> Self {
        Class {
            join_slide,
            consumer,
            members: vec![id],
            prev,
            scratch: SlideScratch::default(),
        }
    }

    fn key(&self) -> (u64, usize, u64) {
        (
            self.consumer.window_duration(),
            self.consumer.k(),
            self.join_slide,
        )
    }
}

/// An event-clock member that registered mid-slide, warming up (see the
/// [module docs](self)): a private producer, fed the raw stream through
/// the group's predicate, serves the member's one-class reduction until
/// the group has closed the slide the member joined during. Every later
/// slide started after the registration, so from then on the private
/// and shared views coincide and the group seats the reduction as its
/// own.
struct Joiner<C: SlidingTopK> {
    producer: DigestProducer,
    /// The group's open slide at registration.
    open_slide: u64,
    reduction: Reduction<C>,
}

impl<C: SlidingTopK> Joiner<C> {
    fn class(&self) -> &Class<C> {
        &self.reduction.classes[0]
    }

    fn member(&self) -> QueryId {
        self.class().members[0]
    }

    /// Whether the joiner can be seated in its group, whose producer is
    /// `group`: the group is as deep as its `k`, its consumer applied
    /// exactly the slides its private producer closed, and neither
    /// producer has passed the slide it waits for, so both close it on
    /// the same watermark.
    fn in_step(&self, group: &DigestProducer) -> bool {
        let (consumer, own) = (&self.class().consumer, self.producer.next_slide());
        group.k_max() >= consumer.k()
            && consumer.slides_applied() == own
            && own.max(group.next_slide()) <= self.open_slide
    }

    /// Writes the joiner as its group record's warming member: the
    /// member's id, engine name, window and `k`, its slide count and
    /// previous emission, the consumer's ring and slide count in their own
    /// frame, then the open slide it waits for and the private producer.
    fn encode(&self, e: &mut Encoder) {
        let Class { consumer, prev, .. } = self.class();
        e.put_u64(self.member().raw());
        e.put_str(consumer.name());
        e.put_u64(consumer.window_duration());
        e.put_usize(consumer.k());
        e.put_u64(consumer.slides_applied());
        prev.encode_state(e);
        e.section(tags::ENGINE, |e| consumer.encode_state(e));
        e.put_u64(self.open_slide);
        self.producer.encode_state(e);
    }
}

/// The sharing counters — see the [`HubStats`] fields of the same
/// names. A checkpoint carries all six: the hits, the rebuilds and
/// `class_hits` in `COUNTERS`, admission in `ADMISSION`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) digest_hits: u64,
    pub(crate) digest_rebuilds: u64,
    pub(crate) count_group_hits: u64,
    pub(crate) admitted: u64,
    pub(crate) pruned: u64,
    pub(crate) class_hits: u64,
}

impl Counters {
    /// The hit counter of `clock`'s plane.
    fn hits(&mut self, clock: Clock) -> &mut u64 {
        match clock {
            Clock::Event => &mut self.digest_hits,
            Clock::Arrival => &mut self.count_group_hits,
        }
    }

    /// Adds `other` field by field (saturating: the counters may come
    /// from foreign checkpoint bytes).
    pub(crate) fn absorb(&mut self, other: &Counters) {
        self.digest_hits = self.digest_hits.saturating_add(other.digest_hits);
        self.digest_rebuilds = self.digest_rebuilds.saturating_add(other.digest_rebuilds);
        self.count_group_hits = self.count_group_hits.saturating_add(other.count_group_hits);
        self.admitted = self.admitted.saturating_add(other.admitted);
        self.pruned = self.pruned.saturating_add(other.pruned);
        self.class_hits = self.class_hits.saturating_add(other.class_hits);
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.section(tags::COUNTERS, |e| {
            e.put_u64(self.digest_hits);
            e.put_u64(self.digest_rebuilds);
            e.put_u64(self.count_group_hits);
            e.put_u64(self.class_hits);
        });
        enc.section(tags::ADMISSION, |e| {
            e.put_u64(self.admitted);
            e.put_u64(self.pruned);
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Counters, CheckpointError> {
        let mut sec = dec.section(tags::COUNTERS)?;
        let (digest_hits, digest_rebuilds) = (sec.take_u64()?, sec.take_u64()?);
        let (count_group_hits, class_hits) = (sec.take_u64()?, sec.take_u64()?);
        sec.finish()?;
        let mut sec = dec.section(tags::ADMISSION)?;
        let (admitted, pruned) = (sec.take_u64()?, sec.take_u64()?);
        sec.finish()?;
        Ok(Counters {
            digest_hits,
            digest_rebuilds,
            count_group_hits,
            admitted,
            pruned,
            class_hits,
        })
    }
}

/// The session store and dispatch logic shared by the sequential hub and
/// the shard workers. Sessions are kept in registration order (which is
/// ascending `QueryId` order), so emitted updates are naturally ordered
/// per publish call.
pub(crate) struct Registry<C: SlidingTopK> {
    sessions: Vec<(QueryId, GroupSession<C>)>,
    /// Live group id → group. Ids are opaque registry-local handles,
    /// never reused: an arrival-clock group's offset class shifts across
    /// checkpoint, restore and resize epochs, so it is never an identity.
    groups: HashMap<u64, Group<C>>,
    /// The join-rule index: `(clock, slide, predicate)` → the live ids of
    /// the groups with that key — one on the event clock, one per offset
    /// class on the arrival clock.
    by_key: HashMap<(Clock, u64, Predicate), Vec<u64>>,
    next_gid: u64,
    counters: Counters,
    /// Pooled timed view of an untimed batch (timestamps 0, which only
    /// the arrival clock observes — and it ignores them).
    timed_buf: Vec<TimedObject>,
    /// Recent high-water mark of updates per publish call — the capacity
    /// the next returned `Vec<QueryUpdate>` is pre-sized to once its
    /// first result arrives, so steady-state publishes reallocate the
    /// output at most once instead of log₂(len) times. A publish that
    /// completes no slides never allocates the output at all, and the
    /// hint **decays** (halving per update-emitting call while above the
    /// observed size — see `note_update_hint`), so one catch-up burst —
    /// a watermark jump closing thousands of slides — cannot inflate
    /// every later publish's reservation for the hub's lifetime.
    update_hint: usize,
    /// Which async-hub shard owns this registry (`None` for the
    /// sequential hub) — consulted only by the debug assertion in
    /// [`register`](Registry::register) that a registration lands on
    /// the shard the hub routed it to.
    shard: Option<usize>,
}

impl<C: SlidingTopK> Default for Registry<C> {
    fn default() -> Self {
        Registry {
            sessions: Vec::new(),
            groups: HashMap::new(),
            by_key: HashMap::new(),
            next_gid: 0,
            counters: Counters::default(),
            timed_buf: Vec::new(),
            update_hint: 0,
            shard: None,
        }
    }
}

/// A group ejected for migration: the group plus its member sessions in
/// ascending-id order (see [`Registry::eject_group_of`]).
pub(crate) type EjectedGroup<C> = (Group<C>, Vec<(QueryId, GroupSession<C>)>);

/// Splits decoded or ejected sessions by the index of their group among
/// `groups`, for [`Registry::install_group`] — a member travels with its
/// group, never alone. Each list keeps the input's ascending-id order.
pub(crate) fn split_by_group<C: SlidingTopK>(
    sessions: Vec<(QueryId, GroupSession<C>)>,
    groups: usize,
) -> Vec<Vec<(QueryId, GroupSession<C>)>> {
    let mut members: Vec<Vec<_>> = (0..groups).map(|_| Vec::new()).collect();
    for (id, m) in sessions {
        members[m.group() as usize].push((id, m));
    }
    members
}

/// One registry's serving state, loose: what [`Registry::eject_all`]
/// hands a resize, and what a decoded `tags::REGISTRY` section becomes —
/// the groups with their classes and reductions, the member sessions
/// naming their group by position in `groups` (a classed member without
/// a consumer), and the sharing counters. Everything needed to rebuild a
/// [`Registry`] (or to scatter across `AsyncHub` shards) once
/// [`merge`](RegistryParts::merge) has validated the cross-section
/// invariants.
pub(crate) struct RegistryParts<C: SlidingTopK> {
    pub(crate) sessions: Vec<(QueryId, GroupSession<C>)>,
    /// Both clocks' groups; a member's group handle indexes this list.
    pub(crate) groups: Vec<Group<C>>,
    pub(crate) counters: Counters,
}

impl<C: SlidingTopK> RegistryParts<C> {
    /// Folds per-shard registry sections back into one coherent whole:
    /// sessions concatenated and re-sorted into ascending-id order
    /// (identical to hub registration order, so a restored hub drains in
    /// the same global order as the original), groups concatenated,
    /// counters summed, and every member's group position offset by its
    /// section's. A member names the group that holds it — the record it
    /// was decoded from, or the live group it was ejected with — so its
    /// clock, slide and predicate are its group's by construction.
    /// Cross-section structure is validated here: a group identity that
    /// appears twice means a slide group spanned shards or a count
    /// group's geometry class was split, which the hub never produces,
    /// so it is corruption rather than a merge.
    ///
    /// Every seated result class is checked against its group
    /// ([`Group::check_consumer`]), and every joiner must be able to be
    /// seated in its group ([`Joiner::in_step`]). A member shares its
    /// class's state, so its class's check covers it.
    pub(crate) fn merge(parts: Vec<Self>) -> Result<Self, CheckpointError> {
        let mut sessions = Vec::new();
        let mut groups: Vec<Group<C>> = Vec::new();
        let mut counters = Counters::default();
        for mut part in parts {
            let base = groups.len() as u64;
            for (_, m) in &mut part.sessions {
                m.set_group(m.group() + base);
            }
            groups.extend(part.groups);
            sessions.extend(part.sessions);
            counters.absorb(&part.counters);
        }
        let mut identities = HashSet::new();
        for group in &groups {
            if !identities.insert(group.identity()) {
                return Err(CheckpointError::Corrupt(match group.clock {
                    GroupClock::Event => "a slide group spans registry sections",
                    GroupClock::Arrival(_) => "count groups share a geometry class",
                }));
            }
        }
        sessions.sort_by_key(|(id, _)| *id);
        if sessions.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(CheckpointError::Corrupt(
                "duplicate query id across registry sections",
            ));
        }
        for group in &groups {
            if group.joiners.iter().any(|j| !j.in_step(&group.producer)) {
                return Err(CheckpointError::Corrupt(
                    "warming member out of step with its group",
                ));
            }
        }
        for group in &groups {
            // the earliest ordinal a member's next emission can reference
            let mut reach = u64::MAX;
            for class in group.classes() {
                reach = reach.min(group.check_consumer(&class.consumer, class.join_slide)?);
            }
            let GroupClock::Arrival(a) = &group.clock else {
                if group.members == 0 {
                    return Err(CheckpointError::Corrupt("slide group with no members"));
                }
                continue;
            };
            if group.members == 0 {
                return Err(CheckpointError::Corrupt("count group with no members"));
            }
            let sd = group.producer.slide_duration();
            let pending = group.producer.pending_len() as u64;
            let Some(slide_start) = group.producer.next_slide().checked_mul(sd) else {
                return Err(CheckpointError::Corrupt("count-group ordinal overflows"));
            };
            let Some(fill) = a.next_ordinal.checked_sub(slide_start) else {
                return Err(CheckpointError::Corrupt(
                    "count-group ordinal behind its producer",
                ));
            };
            if fill >= sd {
                return Err(CheckpointError::Corrupt(
                    "count group fill spans a full slide",
                ));
            }
            // admission control can only *withhold* objects from the
            // producer, never invent them
            if pending > fill {
                return Err(CheckpointError::Corrupt(
                    "count group buffers more than it observed",
                ));
            }
            if a.ring_base.checked_add(a.ring.len() as u64) != Some(a.next_ordinal) {
                return Err(CheckpointError::Corrupt(
                    "count-group ring disagrees with its producer",
                ));
            }
            // the open slide buffers ordinals it observed, in the ring
            let open = slide_start.max(a.ring_base)..a.next_ordinal;
            if group
                .producer
                .pending()
                .iter()
                .any(|o| !open.contains(&o.id))
            {
                return Err(CheckpointError::Corrupt(
                    "count-group open slide holds an ordinal it never observed",
                ));
            }
            // the ring must reach back far enough to translate every
            // ordinal a member's next emission can reference
            if a.ring_base > reach {
                return Err(CheckpointError::Corrupt(
                    "count-group ring does not cover its members' windows",
                ));
            }
        }
        Ok(RegistryParts {
            sessions,
            groups,
            counters,
        })
    }
}

/// Where a group close delivers its member emissions: the call's output,
/// pre-sized from the retained hint.
struct Delivery<'a> {
    out: &'a mut Vec<QueryUpdate>,
    hint: usize,
}

impl Delivery<'_> {
    /// The per-member half of a class close: one update per member, each
    /// holding the class's shared snapshot and delta under the class's
    /// slide number. No session is touched — the class keeps the
    /// members' progress. The call's first update sizes the output from
    /// the hint (at least these members): its first, and typically only,
    /// allocation.
    fn stamp(&mut self, members: &[QueryId], slide: u64, snapshot: &Snapshot, events: &EventList) {
        if self.out.capacity() == 0 {
            self.out.reserve(self.hint.max(members.len()));
        }
        self.out.extend(members.iter().map(|&query| QueryUpdate {
            query,
            result: SlideResult {
                slide,
                snapshot: snapshot.clone(),
                events: events.clone(),
            },
        }));
    }
}

/// What moves the groups' clocks on one call.
#[derive(Clone, Copy)]
enum Tick<'a> {
    /// An untimed batch (timestamps 0): only arrival clocks observe it.
    Untimed(&'a [TimedObject]),
    /// A timed batch: every clock observes it.
    Timed(&'a [TimedObject]),
    /// An event-time watermark: only event clocks move.
    Watermark(u64),
}

/// Folds one publish call's update count into the retained hint: track
/// the recent high-water mark, halving while above it so a catch-up
/// burst decays instead of inflating every later reservation. A call
/// that emitted nothing (a buffering-only chunk, or a path with no
/// eligible sessions) is not an observation and leaves the hint alone.
fn note_update_hint(hint: &mut usize, emitted: usize) {
    if emitted > 0 {
        *hint = emitted.max(*hint / 2);
    }
}

/// Whether every member among `sessions` sits in exactly one class of
/// its live group, a joiner's included — the shape a group must arrive
/// in when it is installed.
fn members_in_classes<C: SlidingTopK>(
    groups: &HashMap<u64, Group<C>>,
    sessions: &[(QueryId, GroupSession<C>)],
) -> bool {
    sessions.iter().all(|(id, m)| {
        let classes = groups[&m.group()].all_reductions().flat_map(|r| &r.classes);
        let holding = classes.filter(|c| c.members.binary_search(id).is_ok());
        holding.count() == 1
    })
}

impl<C: SlidingTopK> Registry<C> {
    /// A registry tagged with its owning shard index, so group-affinity
    /// routing bugs trip the debug assertion in
    /// [`register`](Registry::register) instead of silently splitting a
    /// group across shards.
    pub(crate) fn with_shard(shard: usize) -> Self {
        Registry {
            shard: Some(shard),
            ..Registry::default()
        }
    }

    /// Merges id-ascending `incoming` sessions into the id-ascending store
    /// in one pass — the stable sort finds the two sorted runs and merges
    /// them, O(store) whatever the member count, where inserting one at a
    /// time is O(members × store).
    fn merge_sessions(&mut self, incoming: Vec<(QueryId, GroupSession<C>)>) {
        self.sessions.extend(incoming);
        self.sessions.sort_by_key(|(id, _)| *id);
    }

    /// Store position of `id`, by binary search of the id-ordered store.
    fn position(&self, id: QueryId) -> Option<usize> {
        self.sessions.binary_search_by_key(&id, |(q, _)| *q).ok()
    }

    /// Adds a group under a fresh live id, indexed for the join rule.
    fn insert_group(&mut self, group: Group<C>) -> u64 {
        let gid = self.next_gid;
        self.next_gid += 1;
        self.by_key.entry(group.key()).or_default().push(gid);
        self.groups.insert(gid, group);
        gid
    }

    /// Removes a live group and its join-rule index entry.
    fn remove_group(&mut self, gid: u64) -> Group<C> {
        let group = self.groups.remove(&gid).expect("a live group id");
        let key = group.key();
        let gids = self.by_key.get_mut(&key).expect("live groups are indexed");
        gids.retain(|g| *g != gid);
        if gids.is_empty() {
            self.by_key.remove(&key);
        }
        group
    }

    /// Registers a validated member under `id`: joins (or founds) its
    /// group by the clock's join rule (see the [module docs](self)),
    /// deepens the group's digests to its `k`, and seats it. A member
    /// that starts in step with its group joins the class with its exact
    /// key — matching keys mean the class is still at its open join
    /// slide, so the member's fresh consumer is a byte-for-byte duplicate
    /// and dropping it is lossless — or founds one. An event-clock member
    /// joining mid-stream becomes one of its group's joiners instead.
    ///
    /// `home` is the shard the hub routed this registration to (`None`
    /// from the sequential hub). It must be the shard that owns this
    /// registry: a group's members all live on the group's home shard —
    /// the invariant that makes per-shard group counts sum exactly in
    /// [`HubStats::merge`] and lets a group share one producer without
    /// cross-thread coordination.
    pub(crate) fn register(&mut self, id: QueryId, member: Member<C>, home: Option<usize>) {
        debug_assert_eq!(
            home, self.shard,
            "routing bug: a group's members must all land on its home shard"
        );
        let Member {
            consumer,
            clock,
            predicate,
        } = member;
        let (slide, k) = (consumer.slide_duration(), consumer.k());
        let gid = match self.joinable(clock, slide, predicate) {
            Some(gid) => gid,
            None => self.insert_group(Group::new(
                DigestProducer::new(slide, k),
                predicate,
                GroupClock::new(clock),
            )),
        };
        let group = self.groups.get_mut(&gid).expect("joined or founded");
        group.deepen(k);
        // the join rule's second half: a joinable arrival-clock group's
        // open slide is empty, but an event-clock group is in step with
        // a newcomer only while pristine — everything it will ever see
        // starts now
        let in_step = clock == Clock::Arrival || group.producer.is_pristine();
        let next = group.producer.next_slide();
        let join_slide = if in_step { next } else { 0 };
        let member = GroupSession::classed(clock, &consumer, consumer.name(), gid);
        group.count(&member);
        let class = Class::new(id, join_slide, *consumer, Snapshot::empty());
        if !in_step {
            // ids are monotonic: pushing keeps the joiners ascending
            group.joiners.push(Joiner {
                producer: DigestProducer::new(slide, k),
                open_slide: next,
                reduction: Reduction::of(class),
            });
        } else if let Some(twin) = group
            .reductions
            .iter_mut()
            .flat_map(|r| &mut r.classes)
            .find(|c| c.key() == class.key())
        {
            debug_assert_eq!(
                twin.consumer.slides_applied(),
                0,
                "a joinable class is at its still-open join slide"
            );
            // ids are monotonic: pushing keeps members ascending
            twin.members.push(id);
        } else if let Some(reduction) = group
            .reductions
            .iter_mut()
            .find(|r| r.key() == (class.key().0, join_slide))
        {
            reduction.insert(class);
        } else {
            group.reductions.push(Reduction::of(class));
        }
        debug_assert!(
            self.sessions.last().is_none_or(|(last, _)| *last < id),
            "registration ids ascend"
        );
        self.sessions.push((id, member));
    }

    /// The join rule's first half: the live group a `clock` member with
    /// this slide and predicate joins, if any. Predicate-disjoint
    /// members never share a group, since they rank different
    /// substreams. An event-clock member joins the one group with its
    /// key. An arrival-clock member joins the group whose open slide is
    /// **empty** — it then starts on a slide boundary, in step with the
    /// group. At most one group per key has an empty open slide (two
    /// always sit at different offsets mod `s`), so the rule is
    /// deterministic. It tests the *observed* fill, not `pending_len`:
    /// under admission control a group mid-slide may still buffer
    /// nothing.
    fn joinable(&self, clock: Clock, slide: u64, predicate: Predicate) -> Option<u64> {
        let gids = self.by_key.get(&(clock, slide, predicate))?;
        match clock {
            Clock::Event => gids.first().copied(),
            Clock::Arrival => gids.iter().copied().find(|gid| {
                let group = &self.groups[gid];
                group.clock.fill(&group.producer) == 0
            }),
        }
    }

    /// Removes a query, handing its session back; `None` for unknown ids.
    /// A member leaves its class and its group: the last member out
    /// drops the group (so a later registrant founds a fresh, pristine
    /// one), and the survivors' depth and retention are refitted — exact
    /// even mid-slide, for the same reason `k_max` growth is.
    ///
    /// The last member out of a class takes the class's consumer with it
    /// (so the returned session carries its full state: parked, if
    /// another class of its reduction ran the engine, and rehydrating on
    /// its first apply), while an earlier leaver hands its share back
    /// and is returned without a consumer — engines are not `Clone`, and
    /// the state keeps serving the members staying behind. No engine
    /// runs here (see the module docs on reductions).
    pub(crate) fn unregister(&mut self, id: QueryId) -> Option<GroupSession<C>> {
        let pos = self.position(id)?;
        let (_, mut m) = self.sessions.remove(pos);
        self.leave(id, &mut m);
        Some(m)
    }

    /// The group half of [`unregister`](Registry::unregister). The
    /// member leaves with its class's progress; a joiner takes its own
    /// class's consumer.
    fn leave(&mut self, id: QueryId, m: &mut GroupSession<C>) {
        let gid = m.group();
        let group = self.groups.get_mut(&gid).expect("a member's group is live");
        let ((ri, ci), class) = group.class_of(id);
        let seated = group.reductions.len();
        m.copy_progress(class.consumer.slides_applied(), &class.prev, ri >= seated);
        if ri >= seated {
            // a joiner's one class is its member's alone
            let mut joiner = group.joiners.remove(ri - seated);
            m.adopt_consumer(joiner.reduction.classes.swap_remove(0).consumer);
        } else {
            let reduction = &mut group.reductions[ri];
            let members = &mut reduction.classes[ci].members;
            let mi = members
                .binary_search(&id)
                .expect("the class holds its member");
            members.remove(mi);
            if members.is_empty() {
                // the last member out takes the class's consumer: the
                // in-step one if the class reduced its reduction (the
                // largest remaining class then takes over, rehydrating
                // its parked consumer at the next close), else a parked
                // one — no engine runs here
                m.adopt_consumer(reduction.classes.remove(ci).consumer);
                if reduction.classes.is_empty() {
                    group.reductions.remove(ri);
                }
            }
        }
        group.members -= 1;
        if group.members == 0 {
            self.remove_group(gid);
            return;
        }
        let (k_max, widest) = group
            .all_reductions()
            .flat_map(|r| &r.classes)
            .map(|c| (c.consumer.k(), c.consumer.window_duration()))
            .fold((0, 0), |(k, w), (ck, cw)| (k.max(ck), w.max(cw)));
        group.producer.set_k_max(k_max);
        // a narrower cap prunes *more*: rebuild so the gate reflects
        // exactly the new depth
        group.gate.rebuild(k_max, group.producer.pending());
        group.widest = widest;
    }

    /// Fans an untimed batch out to every arrival-clock group. Event-clock
    /// groups carry no event time here and do not advance.
    ///
    /// The empty fast path (no groups, or an empty batch) returns without
    /// touching the heap, and classes emit their closed slides straight
    /// into tagged updates — each result moves once, and the returned
    /// `Vec` is the only per-call allocation, pre-sized from the retained
    /// hint and skipped entirely when no slide closed.
    pub(crate) fn publish(&mut self, objects: &[Object]) -> Vec<QueryUpdate> {
        if self.groups.is_empty() || objects.is_empty() {
            return Vec::new();
        }
        let mut timed = std::mem::take(&mut self.timed_buf);
        timed.clear();
        timed.extend(objects.iter().map(|o| TimedObject::new(o.id, 0, o.score)));
        let out = self.serve(Tick::Untimed(&timed));
        self.timed_buf = timed;
        out
    }

    /// Fans a timed batch out to every group: each ingests the batch
    /// **once**, serving its classes inside every close, its joiners
    /// from their private producers.
    pub(crate) fn publish_timed(&mut self, objects: &[TimedObject]) -> Vec<QueryUpdate> {
        if objects.is_empty() {
            return Vec::new();
        }
        self.serve(Tick::Timed(objects))
    }

    /// Raises the event-time watermark on every event-clock group, which
    /// advances once and serves its classes and joiners. Arrival-clock
    /// groups are untouched.
    pub(crate) fn advance_time(&mut self, watermark: u64) -> Vec<QueryUpdate> {
        self.serve(Tick::Watermark(watermark))
    }

    /// Moves every group's clock by `tick` ([`Group::serve`]). Group
    /// serving appends per class, not per registered query, so when it
    /// emitted anything the output is sorted back into registration
    /// order — `(QueryId, slide)` keys are unique and each session's
    /// slides ascend, so the sort IS registration-order delivery. The
    /// per-class runs are ascending too, but merging them measured slower
    /// than sorting the five-word records: a run averages about five
    /// updates.
    fn serve(&mut self, tick: Tick<'_>) -> Vec<QueryUpdate> {
        let mut out = Vec::new();
        let mut delivery = Delivery {
            out: &mut out,
            hint: self.update_hint,
        };
        for group in self.groups.values_mut() {
            group.serve(tick, &mut self.counters, &mut delivery);
        }
        out.sort_unstable_by_key(|u| (u.query, u.result.slide));
        note_update_hint(&mut self.update_hint, out.len());
        out
    }

    /// The session of `id`, with its progress copied from its class
    /// first, so its getters read the class's slide count and previous
    /// emission, and whether the class is a joiner's.
    pub(crate) fn session(&mut self, id: QueryId) -> Option<&GroupSession<C>> {
        let pos = self.position(id)?;
        let (_, m) = &mut self.sessions[pos];
        let group = &self.groups[&m.group()];
        let ((ri, _), class) = group.class_of(id);
        let warming = ri >= group.reductions.len();
        m.copy_progress(class.consumer.slides_applied(), &class.prev, warming);
        Some(m)
    }

    pub(crate) fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.sessions.iter().map(|(id, _)| *id)
    }

    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The identities of every group this registry owns, for the
    /// hub-side shard-locality audit (see [`GroupKeys::absorb_disjoint`]).
    pub(crate) fn group_keys(&self) -> GroupKeys {
        GroupKeys(self.groups.values().map(Group::identity).collect())
    }

    pub(crate) fn stats(&self) -> HubStats {
        let c = self.counters;
        let mut stats = HubStats {
            queries: self.sessions.len(),
            digest_hits: c.digest_hits,
            digest_rebuilds: c.digest_rebuilds,
            count_group_hits: c.count_group_hits,
            admitted: c.admitted,
            pruned: c.pruned,
            class_hits: c.class_hits,
            ..HubStats::default()
        };
        for group in self.groups.values() {
            stats.result_classes += group.classes().count() as u64;
            match group.clock.kind() {
                Clock::Event => stats.digest_groups += 1,
                Clock::Arrival => stats.count_groups += 1,
            }
        }
        for (_, m) in &self.sessions {
            match m.clock() {
                Clock::Event => stats.shared_queries += 1,
                Clock::Arrival => stats.grouped_queries += 1,
            }
        }
        stats
    }

    // ---- durability plane -------------------------------------------------

    /// Live group ids in canonical order: event-clock groups by
    /// `(slide_duration, predicate)`, then arrival-clock groups by
    /// `(slide length, slide fill, predicate)`. The order is derived
    /// purely from state a checkpoint carries, so a restored registry
    /// writes its groups back in the order it read them, and the key is
    /// unique — distinct same-`(s, predicate)` arrival groups always sit
    /// at distinct offsets mod `s`.
    fn canonical(&self) -> Vec<u64> {
        let mut order: Vec<u64> = self.groups.keys().copied().collect();
        order.sort_unstable_by_key(|gid| self.groups[gid].identity());
        order
    }

    /// Serializes this registry's full serving state as one
    /// `tags::REGISTRY` section body: a `GROUPS` section holding every
    /// group's record ([`Group::encode_record`]: its state, its
    /// reductions and classes with their members, its joiners) in
    /// canonical order — deterministic regardless of `HashMap` iteration
    /// order — then the sharing counters.
    pub(crate) fn encode_checkpoint(&self, enc: &mut Encoder) {
        enc.section(tags::GROUPS, |e| {
            let order = self.canonical();
            e.put_u64(order.len() as u64);
            for gid in order {
                self.groups[&gid].encode_record(e, &self.sessions);
            }
        });
        self.counters.encode(enc);
    }

    /// Decodes one `tags::REGISTRY` section body into loose
    /// [`RegistryParts`], group by group ([`Group::decode_record`]) in
    /// the shape a resize moves, building each engine on its reduction
    /// through the caller's closure. Every structural violation is a
    /// typed error — never a panic.
    pub(crate) fn decode_checkpoint(
        dec: &mut Decoder<'_>,
        count: &mut dyn FnMut(&str, WindowSpec) -> Result<C, SapError>,
    ) -> Result<RegistryParts<C>, SapError> {
        let mut sessions = Vec::new();
        let mut groups = Vec::new();
        let mut sec = dec.section(tags::GROUPS)?;
        for index in 0..sec.take_seq_len()? as u64 {
            groups.push(Group::decode_record(&mut sec, index, count, &mut sessions)?);
        }
        sec.finish()?;
        let counters = Counters::decode(dec)?;
        Ok(RegistryParts {
            sessions,
            groups,
            counters,
        })
    }

    /// Builds a registry from already-merged, already-validated parts —
    /// possibly several shards' worth, when a sharded checkpoint is
    /// restored into a sequential hub. Groups are inserted as they
    /// arrive, with their members counted and seated in classes, joiners'
    /// included.
    pub(crate) fn from_merged(parts: RegistryParts<C>, shard: Option<usize>) -> Self {
        let RegistryParts {
            sessions,
            groups,
            counters,
        } = parts;
        let mut registry = Registry {
            counters,
            shard,
            ..Registry::default()
        };
        // canonical index = live gid: merge pointed every member at its
        // group's index, so adopting positions as ids keeps the
        // references valid verbatim
        for group in groups {
            registry.insert_group(group);
        }
        debug_assert!(
            members_in_classes(&registry.groups, &sessions),
            "members arrive seated in their groups' classes"
        );
        registry.sessions = sessions;
        registry
    }

    /// Adds restored sharing counters (a restore or a resize assigns the
    /// summed counters wholesale to one shard; a migration moves none).
    pub(crate) fn install_counters(&mut self, counters: Counters) {
        self.counters.absorb(&counters);
    }

    // ---- live migration ---------------------------------------------------

    /// Installs a group and its member sessions as one unit (the restore
    /// and migration paths — a group never travels without its members).
    /// The group keeps its classes and gets a fresh live id, its members
    /// are rebound to it, and they merge into the store in one pass — so
    /// drain order is indistinguishable from a hub where the queries had
    /// been registered here originally.
    pub(crate) fn install_group(
        &mut self,
        group: Group<C>,
        mut members: Vec<(QueryId, GroupSession<C>)>,
    ) {
        debug_assert!(!members.is_empty(), "a group never travels empty");
        debug_assert!(
            members.windows(2).all(|w| w[0].0 < w[1].0),
            "members travel in ascending-id order"
        );
        let gid = self.insert_group(group);
        for (_, m) in &mut members {
            m.set_group(gid);
        }
        debug_assert!(
            members_in_classes(&self.groups, &members),
            "members travel seated in their group's classes"
        );
        self.merge_sessions(members);
    }

    /// Ejects the group containing `member` and every member session, for
    /// whole-group migration to another shard (a group's members are
    /// inseparable — moving one moves all). The group keeps its classes
    /// and joiners, so a member travels without a consumer. `None` if `member`
    /// is not registered here.
    pub(crate) fn eject_group_of(&mut self, member: QueryId) -> Option<EjectedGroup<C>> {
        let gid = self.sessions[self.position(member)?].1.group();
        let group = self.remove_group(gid);
        let members = self
            .sessions
            .extract_if(.., |(_, m)| m.group() == gid)
            .collect::<Vec<_>>();
        debug_assert_eq!(members.len(), group.members);
        Some((group, members))
    }

    /// Ejects everything — sessions, groups with their classes,
    /// counters — leaving the registry empty. The `AsyncHub::resize` path
    /// drains each shard through this before re-scattering onto the new
    /// shard set.
    pub(crate) fn eject_all(&mut self) -> RegistryParts<C> {
        // members name their group by position in the parts' list
        let order = self.canonical();
        let index_of: HashMap<u64, u64> = order
            .iter()
            .enumerate()
            .map(|(i, gid)| (*gid, i as u64))
            .collect();
        let mut sessions = std::mem::take(&mut self.sessions);
        for (_, m) in &mut sessions {
            m.set_group(index_of[&m.group()]);
        }
        let groups = order
            .into_iter()
            .map(|gid| self.groups.remove(&gid).expect("order holds live gids"))
            .collect();
        self.by_key.clear();
        self.next_gid = 0;
        RegistryParts {
            sessions,
            groups,
            counters: std::mem::take(&mut self.counters),
        }
    }
}

/// A fresh consumer for a decoded `clock` query of `(window, slide, k)`,
/// over an engine `count` builds by `name` on the query's reduction —
/// the engine a restore replays into. A window past
/// [`MAX_RESTORED_WINDOW`] is corrupt bytes, rejected before it can reach
/// an allocator.
fn fresh_consumer<C: SlidingTopK>(
    count: &mut dyn FnMut(&str, WindowSpec) -> Result<C, SapError>,
    clock: Clock,
    name: &str,
    (window, slide, k): (u64, u64, usize),
) -> Result<SharedTimed<C>, SapError> {
    let bounded = |spec: WindowSpec| {
        if spec.n > MAX_RESTORED_WINDOW {
            Err(CheckpointError::Corrupt(
                "restored window implausibly large",
            ))
        } else {
            Ok(spec)
        }
    };
    let fresh = |_| CheckpointError::Corrupt("factory engine is not a fresh reduction");
    Ok(match clock {
        Clock::Event => {
            let reduced = TimedSpec::new(window, slide, k)
                .and_then(|spec| spec.reduced())
                .map_err(|_| CheckpointError::Corrupt("invalid shared window spec"))?;
            let engine = count(name, bounded(reduced)?)?;
            SharedTimed::from_engine(engine, window, slide).map_err(fresh)?
        }
        Clock::Arrival => {
            let spec = usize::try_from(window)
                .ok()
                .zip(usize::try_from(slide).ok())
                .and_then(|(n, s)| WindowSpec::new(n, k, s).ok())
                .ok_or(CheckpointError::Corrupt("invalid count window spec"))?;
            let engine = count(name, bounded(spec)?.reduced())?;
            SharedTimed::from_count_engine(engine, spec.n, spec.s).map_err(fresh)?
        }
    })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::query::TimedSpec;
    use crate::session::{Session, TimedSession};
    use crate::test_support::Toy;

    fn consumer(wd: u64, sd: u64, k: usize) -> SharedTimed<Toy> {
        let reduced = TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap();
        SharedTimed::from_engine(Toy::new(reduced.n, reduced.k, reduced.s), wd, sd).unwrap()
    }

    type ToyRegistry = Registry<Toy>;

    fn q(raw: u64) -> QueryId {
        QueryId::from_raw(raw)
    }

    /// Registers an arrival-clock member `⟨n, k, s⟩` under `p`.
    fn enroll_arrival(
        reg: &mut ToyRegistry,
        id: u64,
        (n, k, s): (usize, usize, usize),
        p: Predicate,
    ) {
        let reduced = WindowSpec::new(n, k, s).unwrap().reduced();
        let engine = Toy::new(reduced.n, reduced.k, reduced.s);
        let consumer = Box::new(SharedTimed::from_count_engine(engine, n, s).unwrap());
        let member = Member {
            consumer,
            clock: Clock::Arrival,
            predicate: p,
        };
        let home = reg.shard;
        reg.register(q(id), member, home);
    }

    /// Registers an event-clock member.
    fn enroll_event(reg: &mut ToyRegistry, id: u64, consumer: SharedTimed<Toy>, p: Predicate) {
        let member = Member {
            consumer: Box::new(consumer),
            clock: Clock::Event,
            predicate: p,
        };
        let home = reg.shard;
        reg.register(q(id), member, home);
    }

    /// The event-clock group with slide duration `sd` and predicate `p`.
    fn slide_group(reg: &ToyRegistry, sd: u64, p: Predicate) -> &Group<Toy> {
        &reg.groups[&reg.by_key[&(Clock::Event, sd, p)][0]]
    }

    /// Objects at timestamps `from..to`, one per tick.
    fn ticks(from: u64, to: u64) -> Vec<TimedObject> {
        (from..to)
            .map(|t| TimedObject::new(t, t, ((t * 37) % 101) as f64))
            .collect()
    }

    /// Asserts the store is in ascending-id order and every registered
    /// member sits in exactly one class, of its own group — a joiner's
    /// class or a seated one — and returns the joiners' raw ids,
    /// ascending.
    fn assert_seated(reg: &ToyRegistry, step: &str) -> Vec<u64> {
        assert!(
            reg.sessions.windows(2).all(|w| w[0].0 < w[1].0),
            "{step}: store out of id order"
        );
        let mut seats = 0;
        for (gid, group) in &reg.groups {
            for class in group.all_reductions().flat_map(|r| &r.classes) {
                for id in &class.members {
                    let at = reg.position(*id).expect("a class member is registered");
                    assert_eq!(reg.sessions[at].1.group(), *gid, "{step}: {id}'s group");
                    seats += 1;
                }
            }
        }
        assert_eq!(seats, reg.sessions.len(), "{step}: one seat per member");
        let mut joiners: Vec<u64> = reg
            .groups
            .values()
            .flat_map(|g| g.joiners.iter().map(|j| j.member().raw()))
            .collect();
        joiners.sort_unstable();
        joiners
    }

    /// Scatters ejected parts back through the install paths, as the
    /// hubs' resize does for one shard.
    fn reinstall(reg: &mut ToyRegistry, parts: RegistryParts<Toy>, step: &str) {
        let members_of = split_by_group(parts.sessions, parts.groups.len());
        for (group, members) in parts.groups.into_iter().zip(members_of) {
            reg.install_group(group, members);
            assert_seated(reg, step);
        }
    }

    #[test]
    fn every_member_keeps_one_class_through_every_store_mutation() {
        let pass = Predicate::default();
        let none: [u64; 0] = [];
        let mut reg = ToyRegistry::default();
        enroll_arrival(&mut reg, 0, (20, 2, 5), pass);
        enroll_event(&mut reg, 1, consumer(20, 10, 2), pass);
        enroll_event(&mut reg, 2, consumer(20, 10, 2), pass);
        enroll_arrival(&mut reg, 3, (20, 2, 5), pass);
        enroll_arrival(&mut reg, 4, (20, 2, 5), pass);
        let joiners = assert_seated(&reg, "registration");
        assert_eq!(joiners, none, "pristine joins share a class");

        // a mid-slide join into the classed group is a joiner until its
        // join slide [10, 20) closes, and then a reduction of its own
        reg.publish_timed(&ticks(0, 15));
        enroll_event(&mut reg, 5, consumer(20, 10, 2), pass);
        let joiner = reg.session(q(5)).unwrap();
        assert!(joiner.is_warming_up() && joiner.is_classed());
        assert_eq!(assert_seated(&reg, "mid-slide join"), [5]);
        reg.publish_timed(&ticks(15, 20));
        assert!(reg.session(q(5)).unwrap().is_warming_up());
        assert_eq!(assert_seated(&reg, "join slide still open"), [5]);
        reg.publish_timed(&ticks(20, 25));
        let seated = reg.session(q(5)).unwrap();
        assert!(!seated.is_warming_up() && seated.is_classed());
        assert_eq!(assert_seated(&reg, "seating"), none);

        // the class's first member leaves, then its last
        reg.unregister(q(1)).unwrap();
        assert_seated(&reg, "first class member leaves");
        let last = reg.unregister(q(2)).unwrap();
        assert!(!last.is_classed(), "takes the consumer");
        assert_seated(&reg, "last class member leaves");
        let left: Vec<&[QueryId]> = slide_group(&reg, 10, pass)
            .classes()
            .map(|c| c.members.as_slice())
            .collect();
        assert_eq!(left, [[q(5)]], "only 5's class of one is left");

        // two pristine joins of a fresh slide group share a class; a
        // mid-slide join of the warm group is a joiner
        enroll_event(&mut reg, 6, consumer(14, 7, 1), pass);
        enroll_event(&mut reg, 7, consumer(14, 7, 1), pass);
        enroll_event(&mut reg, 8, consumer(20, 10, 2), pass);
        assert_eq!(assert_seated(&reg, "pristine joins"), [8]);

        // install and eject, as `move_query` uses them: the groups travel
        // with their classes and joiners
        let (group, members) = reg.eject_group_of(q(5)).unwrap();
        assert_eq!(assert_seated(&reg, "slide-group eject"), none);
        reg.install_group(group, members);
        assert_eq!(assert_seated(&reg, "slide-group install"), [8]);
        let (group, members) = reg.eject_group_of(q(3)).unwrap();
        assert_seated(&reg, "count-group eject");
        reg.install_group(group, members);
        assert_eq!(assert_seated(&reg, "count-group install"), [8]);

        // `resize`: eject everything, then scatter back through install
        let parts = RegistryParts::merge(vec![reg.eject_all()]).unwrap();
        assert_eq!(assert_seated(&reg, "eject all"), none);
        assert!(reg.is_empty() && reg.groups.is_empty());
        let mut resized = ToyRegistry::default();
        reinstall(&mut resized, parts, "resize");
        assert_eq!(assert_seated(&resized, "resize"), [8]);

        // `from_merged`, the restore path, then the seating
        let parts = RegistryParts::merge(vec![resized.eject_all()]).unwrap();
        let mut restored = ToyRegistry::from_merged(parts, None);
        assert_eq!(assert_seated(&restored, "restore"), [8]);
        assert!(restored.session(q(8)).unwrap().is_warming_up());
        restored.publish_timed(&ticks(25, 35));
        let settled = restored.session(q(8)).unwrap();
        assert!(!settled.is_warming_up(), "8's join slide [20, 30) closed");
        assert_eq!(assert_seated(&restored, "seating after restore"), none);
    }

    #[test]
    fn large_group_migration_keeps_both_stores_complete_and_ordered() {
        const MEMBERS: u64 = 1_500;
        let pass = Predicate::default();
        // a count group of its own on each side: same geometry, but a
        // predicate that accepts every tick keys it apart
        let filler = Predicate::default().score_at_least(0.0);
        // ids interleave the groups: on the source, slide-group members
        // (≡ 0 mod 4), count-group members (≡ 1) and fillers (≡ 2); on
        // the target, fillers (≡ 3). The reference is a second source
        // that never migrates.
        let build = || {
            let mut reg = ToyRegistry::default();
            for i in 0..MEMBERS {
                let k = 1 + (i % 3) as usize;
                enroll_event(&mut reg, 4 * i, consumer(20 + 10 * (i % 2), 10, k), pass);
                enroll_arrival(&mut reg, 4 * i + 1, (20, k, 5), pass);
                enroll_arrival(&mut reg, 4 * i + 2, (20, 1, 5), filler);
            }
            reg
        };
        let (mut source, mut reference) = (build(), build());
        let mut target = ToyRegistry::default();
        for i in 0..MEMBERS {
            enroll_arrival(&mut target, 4 * i + 3, (20, 1, 5), filler);
        }
        let check = |reg: &ToyRegistry, planes: &[u64], step: &str| {
            let want: Vec<u64> = (0..4 * MEMBERS)
                .filter(|id| planes.contains(&(id % 4)))
                .collect();
            let have: Vec<u64> = reg.query_ids().map(QueryId::raw).collect();
            assert_eq!(have, want, "{step}: store incomplete or out of order");
        };
        let warm = ticks(0, 25);
        assert_eq!(source.publish_timed(&warm), reference.publish_timed(&warm));

        let (group, members) = source.eject_group_of(q(0)).unwrap();
        target.install_group(group, members);
        let (group, members) = source.eject_group_of(q(1)).unwrap();
        target.install_group(group, members);
        check(&source, &[2], "source after moving both groups out");
        check(&target, &[0, 1, 3], "target after moving both groups in");
        let group = slide_group(&target, 10, pass);
        assert_eq!(group.members as u64, MEMBERS);
        let classed: usize = group.classes().map(|c| c.members.len()).sum();
        assert_eq!(classed as u64, MEMBERS, "classes travel with the group");
        let count_group = &target.groups[&target.by_key[&(Clock::Arrival, 5, pass)][0]];
        assert_eq!(count_group.members as u64, MEMBERS);

        let (group, members) = target.eject_group_of(q(0)).unwrap();
        source.install_group(group, members);
        let (group, members) = target.eject_group_of(q(1)).unwrap();
        source.install_group(group, members);
        check(&source, &[0, 1, 2], "source after the round trip");
        check(&target, &[3], "target after the round trip");
        // the round-tripped groups serve exactly what staying put did: two
        // closes of the slide group (t = 30, 40), four of the count group
        // and four of the fillers' group
        let more = ticks(25, 45);
        let updates = source.publish_timed(&more);
        assert_eq!(updates.len() as u64, 10 * MEMBERS);
        assert_eq!(updates, reference.publish_timed(&more));
    }

    /// A member that joins a count group with a window wider than the
    /// group's ring reaches back never references an ordinal before its
    /// join, so the ring check on a checkpoint of that state accepts it.
    #[test]
    fn a_wide_late_joiner_passes_the_ring_check() {
        let pass = Predicate::default();
        let mut reg = ToyRegistry::default();
        enroll_arrival(&mut reg, 0, (8, 1, 4), pass);
        reg.publish_timed(&ticks(0, 40));
        enroll_arrival(&mut reg, 1, (40, 1, 4), pass);
        assert_eq!(reg.groups.len(), 1, "the joiner found the group at fill 0");
        assert!(RegistryParts::merge(vec![reg.eject_all()]).is_ok());
    }

    /// Two sections that each hold the slide group of one
    /// `(slide_duration, predicate)` describe a group split across
    /// shards, which the hub never produces: corrupt, not a merge.
    #[test]
    fn a_slide_group_in_two_sections_is_corrupt() {
        let pass = Predicate::default();
        let mut sections = Vec::new();
        for id in 0..2 {
            let mut reg = ToyRegistry::default();
            enroll_event(&mut reg, id, consumer(20, 10, 2), pass);
            sections.push(reg.eject_all());
        }
        assert_eq!(
            RegistryParts::merge(sections).err(),
            Some(CheckpointError::Corrupt(
                "a slide group spans registry sections"
            ))
        );
    }

    /// One query id in two sections is corrupt, whichever groups hold it.
    #[test]
    fn a_query_id_in_two_sections_is_corrupt() {
        let pass = Predicate::default();
        let mut count_section = ToyRegistry::default();
        enroll_arrival(&mut count_section, 0, (8, 1, 4), pass);
        let mut slide_section = ToyRegistry::default();
        enroll_event(&mut slide_section, 0, consumer(20, 10, 2), pass);
        let sections = vec![count_section.eject_all(), slide_section.eject_all()];
        assert_eq!(
            RegistryParts::merge(sections).err(),
            Some(CheckpointError::Corrupt(
                "duplicate query id across registry sections"
            ))
        );
    }

    /// A count group whose id ring would end past `u64::MAX` is corrupt
    /// state, rejected with a typed error: its member's window holds only
    /// pads (the filter rejects every tick), so no ordinal check rejects
    /// it first.
    #[test]
    fn an_overflowing_count_ring_is_corrupt() {
        let mut reg = ToyRegistry::default();
        let none = Predicate::default().score_at_least(1_000.0);
        enroll_arrival(&mut reg, 0, (8, 1, 4), none);
        reg.publish_timed(&ticks(0, 6));
        let mut parts = reg.eject_all();
        let GroupClock::Arrival(a) = &mut parts.groups[0].clock else {
            unreachable!("a count group runs on the arrival clock")
        };
        a.ring_base = u64::MAX;
        assert!(RegistryParts::merge(vec![parts]).is_err());
    }

    /// `Toy`, counting every engine slide in a counter its copies share.
    struct Counted(Toy, Rc<Cell<u64>>);

    impl SlidingTopK for Counted {
        fn spec(&self) -> WindowSpec {
            self.0.spec()
        }
        fn slide(&mut self, batch: &[Object]) -> &[Object] {
            self.1.set(self.1.get() + 1);
            self.0.slide(batch)
        }
        fn candidate_count(&self) -> usize {
            self.0.candidate_count()
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn stats(&self) -> crate::metrics::OpStats {
            self.0.stats()
        }
        fn name(&self) -> &str {
            "counted"
        }
    }

    /// A registry over counted engines, with the one slide counter.
    struct Counting {
        reg: Registry<Counted>,
        slides: Rc<Cell<u64>>,
    }

    impl Counting {
        fn new() -> Self {
            Counting {
                reg: Registry::default(),
                slides: Rc::default(),
            }
        }

        fn engine(&self, spec: WindowSpec) -> Counted {
            Counted(Toy::new(spec.n, spec.k, spec.s), self.slides.clone())
        }

        /// A private consumer of `W⟨wd, sd⟩` top-`k` over a counted engine.
        fn timed(&self, wd: u64, sd: u64, k: usize) -> SharedTimed<Counted> {
            let reduced = TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap();
            SharedTimed::from_engine(self.engine(reduced), wd, sd).unwrap()
        }

        fn enroll_event(&mut self, id: u64, (wd, sd, k): (u64, u64, usize)) {
            let member = Member {
                consumer: Box::new(self.timed(wd, sd, k)),
                clock: Clock::Event,
                predicate: Predicate::default(),
            };
            self.reg.register(q(id), member, None);
        }

        fn enroll_arrival(&mut self, id: u64, (n, k, s): (usize, usize, usize)) {
            let reduced = WindowSpec::new(n, k, s).unwrap().reduced();
            let consumer = SharedTimed::from_count_engine(self.engine(reduced), n, s).unwrap();
            let member = Member {
                consumer: Box::new(consumer),
                clock: Clock::Arrival,
                predicate: Predicate::default(),
            };
            self.reg.register(q(id), member, None);
        }

        /// Unregisters `id`, asserting that no engine ran.
        fn unregister(&mut self, id: u64) -> GroupSession<Counted> {
            let before = self.slides.get();
            let m = self.reg.unregister(q(id)).unwrap();
            assert_eq!(self.slides.get(), before, "unregister ran engine code");
            m
        }

        /// A registry restored from this one's checkpoint the way
        /// `Hub::restore` builds it — encode, decode, merge, install — on
        /// a slide counter of its own, which counts the restore's replays
        /// too. Re-encoding it gives back the checkpoint's bytes.
        fn restored(&self) -> Counting {
            let mut enc = Encoder::new();
            self.reg.encode_checkpoint(&mut enc);
            let payload = enc.into_payload();
            let slides: Rc<Cell<u64>> = Rc::default();
            let mut count = |name: &str, spec: WindowSpec| {
                assert_eq!(name, "counted");
                Ok(Counted(Toy::new(spec.n, spec.k, spec.s), slides.clone()))
            };
            let mut dec = Decoder::new(&payload);
            let parts = Registry::decode_checkpoint(&mut dec, &mut count).unwrap();
            assert!(dec.is_empty());
            let merged = RegistryParts::merge(vec![parts]).unwrap();
            let reg = Registry::from_merged(merged, None);
            let mut again = Encoder::new();
            reg.encode_checkpoint(&mut again);
            assert_eq!(
                again.into_payload(),
                payload,
                "a restore re-encodes to its image"
            );
            Counting { reg, slides }
        }

        /// Every group's reductions, as their classes' `k`s: the first
        /// class of a reduction runs the engine, the rest are parked.
        fn reductions(&self) -> Vec<Vec<Vec<usize>>> {
            let mut all: Vec<Vec<Vec<usize>>> = self
                .reg
                .groups
                .values()
                .map(|g| {
                    let ks = |r: &Reduction<Counted>| {
                        let fresh = r.classes[0].consumer.slides_applied() == 0;
                        let parked = r.classes[1..].iter().all(|c| c.consumer.is_parked());
                        assert!(fresh || parked, "every class but the first is parked");
                        r.classes.iter().map(|c| c.consumer.k()).collect()
                    };
                    g.reductions.iter().map(ks).collect()
                })
                .collect();
            all.sort();
            all
        }
    }

    /// Every member's updates, by raw id.
    fn by_member(updates: Vec<QueryUpdate>) -> HashMap<u64, Vec<SlideResult>> {
        let mut all: HashMap<u64, Vec<SlideResult>> = HashMap::new();
        for u in updates {
            all.entry(u.query.raw()).or_default().push(u.result);
        }
        all
    }

    /// Twenty in-step event-clock members, `k = 1..=10` over two window
    /// durations, form two reductions: each group close runs exactly two
    /// engine slides, while the twenty classes keep their own emissions,
    /// equal to standalone `TimedSession`s.
    #[test]
    fn in_step_event_classes_share_one_reduction_per_window() {
        let mut hub = Counting::new();
        let mut standalone = Vec::new();
        for (i, (wd, k)) in [20u64, 40]
            .iter()
            .flat_map(|&wd| (1..=10).map(move |k| (wd, k)))
            .enumerate()
        {
            hub.enroll_event(i as u64, (wd, 10, k));
            let reduced = TimedSpec::new(wd, 10, k).unwrap().reduced().unwrap();
            standalone.push(
                TimedSession::new(Toy::new(reduced.n, reduced.k, reduced.s), wd, 10).unwrap(),
            );
        }
        assert_eq!(hub.reg.stats().result_classes, 20);
        let ks: Vec<usize> = (1..=10).rev().collect();
        assert_eq!(hub.reductions(), [[ks.clone(), ks]]);
        for batch in 0..9 {
            // each batch crosses one slide boundary
            let objects = ticks(10 * batch + 5, 10 * batch + 15);
            let before = hub.slides.get();
            let served = by_member(hub.reg.publish_timed(&objects));
            assert_eq!(hub.slides.get() - before, 2, "batch {batch}");
            for (i, session) in standalone.iter_mut().enumerate() {
                assert_eq!(
                    served[&(i as u64)],
                    session.push_timed(&objects),
                    "member {i}"
                );
            }
        }
        assert_eq!(hub.reg.stats().result_classes, 20);
    }

    /// The same on the arrival clock, with `k` on both sides of `s = 4`:
    /// one engine slide per window and close, every member equal to a
    /// standalone `Session`.
    #[test]
    fn in_step_arrival_classes_share_one_reduction_per_window() {
        let mut hub = Counting::new();
        let mut standalone = Vec::new();
        for (i, (n, k)) in [12usize, 24]
            .iter()
            .flat_map(|&n| (1..=10).map(move |k| (n, k)))
            .enumerate()
        {
            hub.enroll_arrival(i as u64, (n, k, 4));
            standalone.push(Session::new(Toy::new(n, k, 4)));
        }
        assert_eq!(hub.reg.stats().result_classes, 20);
        assert_eq!(hub.reg.groups.len(), 1);
        let objects: Vec<Object> = ticks(0, 48).iter().map(TimedObject::untimed).collect();
        for (close, slide) in objects.chunks(4).enumerate() {
            let before = hub.slides.get();
            let served = by_member(hub.reg.publish(slide));
            assert_eq!(hub.slides.get() - before, 2, "close {close}");
            for (i, session) in standalone.iter_mut().enumerate() {
                assert_eq!(served[&(i as u64)], session.push(slide), "member {i}");
            }
        }
    }

    /// The twenty-member event-clock shape, restored mid-stream: the
    /// restore replays each reduction's head once, and every close after
    /// it still runs exactly two engine slides while every member equals
    /// its standalone `TimedSession`.
    #[test]
    fn a_restore_keeps_one_reduction_per_event_window() {
        let mut hub = Counting::new();
        let mut standalone = Vec::new();
        for (i, (wd, k)) in [20u64, 40]
            .iter()
            .flat_map(|&wd| (1..=10).map(move |k| (wd, k)))
            .enumerate()
        {
            hub.enroll_event(i as u64, (wd, 10, k));
            let reduced = TimedSpec::new(wd, 10, k).unwrap().reduced().unwrap();
            standalone.push(
                TimedSession::new(Toy::new(reduced.n, reduced.k, reduced.s), wd, 10).unwrap(),
            );
        }
        for batch in 0..9 {
            if batch == 4 {
                let reductions = hub.reductions();
                hub = hub.restored();
                // after four closes the heads hold two and four slides
                assert_eq!(hub.slides.get(), 2 + 4, "one replay per reduction");
                assert_eq!(hub.reductions(), reductions);
                assert_eq!(hub.reg.stats().result_classes, 20);
            }
            let objects = ticks(10 * batch + 5, 10 * batch + 15);
            let before = hub.slides.get();
            let served = by_member(hub.reg.publish_timed(&objects));
            assert_eq!(hub.slides.get() - before, 2, "batch {batch}");
            for (i, session) in standalone.iter_mut().enumerate() {
                assert_eq!(
                    served[&(i as u64)],
                    session.push_timed(&objects),
                    "member {i}"
                );
            }
        }
    }

    /// The same on the arrival clock: twenty members, two reductions,
    /// one replay per reduction at the restore and two engine slides per
    /// close after it, every member equal to a standalone `Session`.
    #[test]
    fn a_restore_keeps_one_reduction_per_arrival_window() {
        let mut hub = Counting::new();
        let mut standalone = Vec::new();
        for (i, (n, k)) in [12usize, 24]
            .iter()
            .flat_map(|&n| (1..=10).map(move |k| (n, k)))
            .enumerate()
        {
            hub.enroll_arrival(i as u64, (n, k, 4));
            standalone.push(Session::new(Toy::new(n, k, 4)));
        }
        let objects: Vec<Object> = ticks(0, 48).iter().map(TimedObject::untimed).collect();
        for (close, slide) in objects.chunks(4).enumerate() {
            if close == 6 {
                let reductions = hub.reductions();
                hub = hub.restored();
                // the heads' rings hold three and six slides
                assert_eq!(hub.slides.get(), 3 + 6, "one replay per reduction");
                assert_eq!(hub.reductions(), reductions);
                assert_eq!(hub.reg.stats().result_classes, 20);
            }
            let before = hub.slides.get();
            let served = by_member(hub.reg.publish(slide));
            assert_eq!(hub.slides.get() - before, 2, "close {close}");
            for (i, session) in standalone.iter_mut().enumerate() {
                assert_eq!(served[&(i as u64)], session.push(slide), "member {i}");
            }
        }
    }

    /// A cut between a take-over and the next close: the reducing class
    /// has emptied and the new head is parked. The restore rehydrates
    /// it, serves on exactly, and its replay plus its closes run the
    /// engine slides the live registry's closes run.
    #[test]
    fn a_cut_after_a_take_over_restores_exactly() {
        let mut live = Counting::new();
        for (i, k) in [3, 2, 2, 1].into_iter().enumerate() {
            live.enroll_event(i as u64, (20, 10, k));
        }
        live.reg.publish_timed(&ticks(0, 35));
        live.unregister(0);
        assert_eq!(live.reductions(), [[vec![2, 1]]]);
        let cut = live.slides.get();
        let mut restored = live.restored();
        assert_eq!(restored.slides.get(), 2, "the new head replays its window");
        assert_eq!(restored.reductions(), [[vec![2, 1]]]);
        for (from, to) in [(35, 45), (45, 55), (55, 75), (75, 130)] {
            let objects = ticks(from, to);
            let want = live.reg.publish_timed(&objects);
            assert_eq!(
                restored.reg.publish_timed(&objects),
                want,
                "ticks {from}..{to}"
            );
            assert_eq!(
                live.slides.get() - cut,
                restored.slides.get(),
                "ticks {from}..{to}"
            );
        }
        assert_eq!(restored.reg.stats(), live.reg.stats());
    }

    /// A member that warms up founds a reduction of its own, even where
    /// an in-step reduction of its window exists.
    #[test]
    fn a_warm_up_promotion_founds_its_own_reduction() {
        let mut hub = Counting::new();
        hub.enroll_event(0, (20, 10, 2));
        hub.reg.publish_timed(&ticks(0, 15));
        hub.enroll_event(1, (20, 10, 5));
        assert!(hub.reg.session(q(1)).unwrap().is_warming_up());
        hub.reg.publish_timed(&ticks(15, 25));
        assert!(hub.reg.session(q(1)).unwrap().is_classed());
        assert_eq!(hub.reductions(), [[vec![2], vec![5]]]);
    }

    /// The reducing class's last member leaves with the in-step
    /// consumer, the largest remaining class takes over at the next
    /// close, and the last member out of a parked class leaves with a
    /// parked consumer. No unregister runs an engine; the members that
    /// stay keep equalling standalone sessions, and each returned
    /// consumer, fed on, equals one that served privately throughout.
    #[test]
    fn a_take_over_keeps_every_member_exact() {
        let mut hub = Counting::new();
        let geometry = [3, 2, 2, 1].map(|k| (20, 10, k));
        let mut standalone = Vec::new();
        let mut private = Vec::new();
        for (i, &(wd, sd, k)) in geometry.iter().enumerate() {
            hub.enroll_event(i as u64, (wd, sd, k));
            let reduced = TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap();
            standalone.push(
                TimedSession::new(Toy::new(reduced.n, reduced.k, reduced.s), wd, sd).unwrap(),
            );
            private.push((DigestProducer::new(sd, k), hub.timed(wd, sd, k)));
        }
        assert_eq!(hub.reductions(), [[vec![3, 2, 1]]]);
        // serves ticks `from..to`, which must run `engines` engine slides,
        // to the hub and to the staying members' standalone sessions and
        // private consumers
        let mut feed = |hub: &mut Counting,
                        private: &mut [(DigestProducer, SharedTimed<Counted>)],
                        (from, to): (u64, u64),
                        stay: &[usize],
                        engines: u64| {
            let objects = ticks(from, to);
            let before = hub.slides.get();
            let served = by_member(hub.reg.publish_timed(&objects));
            assert_eq!(hub.slides.get() - before, engines, "ticks {from}..{to}");
            for &i in stay {
                assert_eq!(
                    served[&(i as u64)],
                    standalone[i].push_timed(&objects),
                    "member {i}"
                );
                let (producer, consumer) = &mut private[i];
                for &o in &objects {
                    producer.ingest_with(o, &mut |v| {
                        consumer.apply_slide_top(v.slide, v.top);
                    });
                }
            }
        };
        feed(&mut hub, &mut private, (0, 35), &[0, 1, 2, 3], 3);

        // the reducing class empties: its member takes the in-step consumer
        let mut reducer = hub.unregister(0).into_inner().unwrap();
        assert!(!reducer.is_parked());
        assert_eq!(reducer.last_result(), private[0].1.last_result());
        assert_eq!(hub.reductions(), [[vec![2, 1]]]);
        // the k = 2 class takes over: its parked consumer rehydrates by
        // replaying its two-slide window, then slides
        feed(&mut hub, &mut private, (35, 45), &[1, 2, 3], 2 + 1);
        feed(&mut hub, &mut private, (45, 55), &[1, 2, 3], 1);
        assert_eq!(hub.reductions(), [[vec![2, 1]]]);

        // the parked class's last member leaves with a parked consumer
        let mut parked = hub.unregister(3).into_inner().unwrap();
        assert!(parked.is_parked());
        assert_eq!(parked.slides_applied(), private[3].1.slides_applied());
        feed(&mut hub, &mut private, (55, 75), &[1, 2], 2);

        // fed on from where it left, each returned consumer equals its
        // private twin
        for (consumer, i) in [(&mut reducer, 0), (&mut parked, 3)] {
            let (producer, twin) = &mut private[i];
            let mut seen = 0;
            for t in [75, 80, 92, 101, 130] {
                producer.ingest_with(TimedObject::new(t, t, (t % 13) as f64), &mut |v| {
                    let ours = consumer.apply_slide_top(v.slide, v.top).map(<[_]>::to_vec);
                    let theirs = twin.apply_slide_top(v.slide, v.top).map(<[_]>::to_vec);
                    assert_eq!(ours, theirs, "slide {}", v.slide);
                    assert_eq!(consumer.last_result(), twin.last_result());
                    seen += 1;
                });
            }
            assert!(seen >= 4);
            assert!(!consumer.is_parked());
        }
    }

    #[test]
    fn digest_depth_follows_the_deepest_member() {
        let pass = Predicate::default();
        let k_max = |reg: &ToyRegistry| slide_group(reg, 10, pass).producer.k_max();
        let mut reg: Registry<Toy> = Registry::default();
        enroll_event(&mut reg, 0, consumer(20, 10, 1), pass);
        assert_eq!(k_max(&reg), 1);
        enroll_event(&mut reg, 1, consumer(40, 10, 5), pass);
        assert_eq!(k_max(&reg), 5, "grows on join");
        // the deepest member leaving shrinks the depth back
        reg.unregister(QueryId::from_raw(1)).unwrap();
        assert_eq!(k_max(&reg), 1, "shrinks on leave");
        // a non-deepest member leaving does not
        enroll_event(&mut reg, 2, consumer(40, 10, 3), pass);
        enroll_event(&mut reg, 3, consumer(20, 10, 2), pass);
        reg.unregister(QueryId::from_raw(3)).unwrap();
        assert_eq!(k_max(&reg), 3);
        // the last member out retires the group
        reg.unregister(QueryId::from_raw(0)).unwrap();
        reg.unregister(QueryId::from_raw(2)).unwrap();
        assert!(reg.groups.is_empty());
    }

    #[test]
    fn predicate_disjoint_members_split_into_sub_groups() {
        let mut reg: Registry<Toy> = Registry::default();
        let hot = Predicate::default().score_at_least(100.0);
        enroll_event(&mut reg, 0, consumer(20, 10, 1), Predicate::default());
        enroll_event(&mut reg, 1, consumer(20, 10, 4), hot);
        assert_eq!(
            reg.groups.len(),
            2,
            "same slide duration, disjoint predicates"
        );
        let pass = Predicate::default();
        assert_eq!(slide_group(&reg, 10, pass).producer.k_max(), 1);
        assert_eq!(slide_group(&reg, 10, hot).producer.k_max(), 4);
        // a same-predicate joiner lands in the existing sub-group
        enroll_event(&mut reg, 2, consumer(40, 10, 2), hot);
        assert_eq!(reg.groups.len(), 2);
        assert_eq!(slide_group(&reg, 10, hot).members, 2);
    }

    #[test]
    fn stats_merge_sums_admission_counters_and_rates_follow() {
        let mut a = HubStats {
            admitted: 60,
            pruned: 40,
            digest_hits: 10,
            count_group_hits: 10,
            class_hits: 5,
            ..HubStats::default()
        };
        let b = HubStats {
            admitted: 40,
            pruned: 60,
            digest_hits: 0,
            count_group_hits: 30,
            class_hits: 15,
            ..HubStats::default()
        };
        assert!((a.prune_rate() - 0.4).abs() < 1e-12);
        assert!((a.class_hit_rate() - 0.25).abs() < 1e-12);
        a.merge(&b);
        assert_eq!(a.admitted, 100);
        assert_eq!(a.pruned, 100);
        assert!(
            (a.prune_rate() - 0.5).abs() < 1e-12,
            "merged rate is hub-wide"
        );
        // 20 class hits over 50 sharing-plane member slides
        assert!((a.class_hit_rate() - 0.4).abs() < 1e-12);
        // empty stats report 0, not NaN
        assert_eq!(HubStats::default().prune_rate(), 0.0);
        assert_eq!(HubStats::default().class_hit_rate(), 0.0);
    }

    /// `HubStats.digest_groups`/`count_groups` summing is exact *only
    /// because* groups are shard-local. If a routing regression ever
    /// founded the same group on two shards, the stats merge must catch
    /// it instead of silently double-counting.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slide group split across workers")]
    fn stats_merge_catches_a_slide_group_split_across_workers() {
        // simulate the regression at the registry level: two shards each
        // founded a slide group with the same slide_duration (routing
        // gone hash-only instead of group-affine)
        let mut a = ToyRegistry::with_shard(0);
        let mut b = ToyRegistry::with_shard(1);
        enroll_event(&mut a, 0, consumer(10, 10, 1), Predicate::default());
        enroll_event(&mut b, 1, consumer(10, 10, 1), Predicate::default());
        let mut seen = GroupKeys::default();
        seen.absorb_disjoint(&a.group_keys(), 0);
        seen.absorb_disjoint(&b.group_keys(), 1); // must panic here
    }

    /// Same detector, count plane: two shards holding the same
    /// `(s, fill)` geometry class is a split count group.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "count group split across workers")]
    fn stats_merge_catches_a_count_group_split_across_workers() {
        let mut seen = GroupKeys::default();
        let shard_keys = GroupKeys(vec![(Clock::Arrival, 4, 2, Predicate::default())]);
        seen.absorb_disjoint(&shard_keys, 0);
        seen.absorb_disjoint(&shard_keys, 1); // must panic here
    }
}
