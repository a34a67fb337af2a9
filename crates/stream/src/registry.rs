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
//! group; if the group has ingested anything it **warms up** on a
//! private producer fed the raw stream until the group slide it joined
//! during has closed, after which the private and shared views provably
//! coincide. Warm-up slides count as
//! [`digest_rebuilds`](HubStats::digest_rebuilds), served slides as
//! [`digest_hits`](HubStats::digest_hits) or
//! [`count_group_hits`](HubStats::count_group_hits).
//!
//! ## Result classes
//!
//! Within a group, members with equal window, `k` and join slide whose
//! pasts provably coincide compute byte-identical slides, so they form
//! one **result class** that owns their one consumer. Every member that
//! is not warming up sits in exactly one class: a member that starts in
//! step with its group joins the class with its key (or founds one),
//! and a warmed-up member founds a class of its own. A slide close
//! serves every class from the producer's borrowed [`DigestView`] inside
//! the close: the reduction, the id translation and the delta diff run
//! **once per class**, and each member emission is two refcount bumps
//! plus an inline event copy — zero heap allocations on a quiet slide.
//! When the class's engine proves its top-k unchanged
//! ([`SlidingTopK::slide_if_changed`]), the close re-emits the previous
//! snapshot with `[Unchanged]` and skips the translation and the diff.
//! Emissions beyond the one computing member count as
//! [`class_hits`](HubStats::class_hits).
//!
//! A group keeps its classes for its whole life: `move_query` and
//! `resize` move it whole, classes included. Classes are derivable from
//! member state, so checkpoints carry no class section: a restore gives
//! each decoded member its own consumer and re-classes the members by
//! byte signature.
//!
//! ## Per-call cost
//!
//! The session store holds every registered query, but a publish or
//! watermark call never walks it. The registry keeps one ascending list
//! of the store entries that need service on **every** call: the warming
//! members. A quiet call therefore costs O(groups) ingest plus O(list)
//! member work; classed members are touched only when their group closes
//! a slide, once per emission. The list is kept in step with every store
//! mutation — O(list) for a single register or unregister, one O(store)
//! rebuild for the bulk paths (restore, group installation and
//! ejection), which already cost O(store).
//!
//! [`Hub`]: crate::session::Hub
//! [`AsyncHub`]: crate::exec::AsyncHub
//! [`Session`]: crate::session::Session

use std::collections::{HashMap, VecDeque};

use crate::checkpoint::{tags, CheckpointError, Decoder, Encoder};
use crate::digest::{result_order, DigestProducer, DigestView, SharedTimed};
use crate::events::{EventList, SlideResult, Snapshot, TopKEvent};
use crate::object::{Object, TimedObject};
use crate::predicate::{Predicate, PruneGate};
use crate::query::{SapError, TimedSpec};
use crate::session::{close_staged, Clock, GroupSession, QueryId, QueryUpdate, SlideScratch};
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
    /// Slides a time-based member computed from its private warm-up
    /// producer (mid-stream joins catching up to their group, and
    /// restored isolated timed sessions joining theirs).
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
    /// inside its group. Every member that is not warming up sits in
    /// exactly one class, so this equals the number of reductions run
    /// per slide close; the gap to `grouped_queries + shared_queries` is
    /// the work the second tier collapses. Classes travel with their
    /// group through `move_query` and `resize`; a restore re-derives
    /// them by byte signature.
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
    /// view). It survives `move_query` and `resize` but resets on
    /// checkpoint restore, unlike the hit/rebuild counters: the
    /// checkpoint format predates it and carries no slot.
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
///   mid-stream warms up privately for at most the rest of the open
///   slide. Its engine answers the Appendix-A reduction
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
/// (resize) and in a migration — classes included; only a decoded group
/// arrives without classes, which the restore derives
/// ([`RegistryParts::pool_classes`]).
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
    /// Registered members, classed and warming alike.
    members: usize,
    /// The widest member window: the arrival clock's ring retains
    /// `widest + s` ordinals, which covers every ordinal a member can
    /// reference at a close, because members are served *inside* the
    /// close (before later arrivals can evict entries). Trimming is
    /// lazy, so a shrink drains over time.
    widest: u64,
    /// Every member that is not warming up sits in exactly one class.
    classes: Vec<Class<C>>,
}

/// How a group tells time, with the arrival clock's state.
enum GroupClock {
    /// Event time: the producer runs on the objects' own ids and
    /// timestamps.
    Event,
    /// Arrival ordinals: the producer runs on group ordinals, used as
    /// both id and timestamp, so the one truncation tie-break — equal
    /// scores to the higher id — lands on arrival recency, exactly like
    /// a standalone [`Session`]'s.
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

    /// The id translation at a close: `top` in the caller's ids, into
    /// `out`. Arrival-clock objects carry ordinals, which the ring maps
    /// back to the ids they were published with.
    fn translate(&self, top: &[TimedObject], out: &mut Vec<Object>) {
        out.clear();
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
            classes: Vec::new(),
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

    /// Founds a class of one around `member`'s consumer.
    fn found_class(&mut self, id: QueryId, member: &mut GroupSession<C>) {
        let consumer = member
            .take_consumer()
            .expect("a founding member carries its consumer");
        self.classes.push(Class {
            join_slide: member.join_slide(),
            consumer,
            members: vec![id],
            prev: member.last_snapshot_shared(),
            scratch: SlideScratch::new(),
            events: EventList::new(),
        });
    }

    /// Pools a decoded, non-warming member into the group's result
    /// classes: joins the class with an identical byte signature — equal
    /// key, slide progress, previous emission, and encoded consumer state
    /// make its future emissions provably identical, so the member's
    /// duplicate consumer is dropped — and founds a class around the
    /// consumer otherwise. Live registration pools only members that
    /// start in step, which need no signature.
    fn class_member(&mut self, id: QueryId, m: &mut GroupSession<C>) {
        let consumer = m.consumer().expect("a decoded member carries its consumer");
        let mut sig = None;
        let class = self.classes.iter_mut().find(|c| {
            c.key() == m.class_key()
                && c.consumer.slides_applied() == consumer.slides_applied()
                && c.prev.as_slice() == m.last_snapshot()
                && consumer_sig(&c.consumer) == *sig.get_or_insert_with(|| consumer_sig(consumer))
        });
        match class {
            Some(class) => {
                // members are pooled in ascending-id order
                class.members.push(id);
                m.take_consumer();
            }
            None => self.found_class(id, m),
        }
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
    /// inside the close, from the producer's borrowed view: one reduction
    /// and diff per class, then a stamp per member; the members past the
    /// first were served without a reduction. A close opens a fresh
    /// slide, so the gate resets.
    fn advance(&mut self, to: u64, counters: &mut Counters, delivery: &mut Delivery<'_, C>) {
        let Group {
            producer,
            gate,
            clock,
            classes,
            ..
        } = self;
        let before = producer.next_slide();
        producer.advance_to_with(to, &mut |view| {
            for class in classes.iter_mut() {
                let snapshot = class.close(view, clock);
                delivery.stamp(&class.members, &snapshot, &class.events);
                let served = class.members.len() as u64;
                *counters.hits(clock.kind()) += served;
                counters.class_hits += served - 1;
            }
        });
        if producer.next_slide() != before {
            gate.reset();
        }
    }

    /// Merges `own` — the pass-all group an older image's isolated count
    /// session `m` implies — into this arrival-clock group of the same
    /// `(s, fill, predicate)`, whose decoded members are `members`. A
    /// hub's queries saw one stream, so both groups describe a suffix of
    /// it ending at the checkpoint: the one that observed fewer arrivals
    /// shifts onto the other's ordinals, its members with it. The ring
    /// keeps the longer suffix and the producer the longer open slide (a
    /// gated group buffers a subsequence of it); where the two disagree,
    /// the image is corrupt.
    fn merge_arrivals<'a>(
        &mut self,
        members: impl Iterator<Item = &'a mut GroupSession<C>>,
        mut own: Group<C>,
        m: &mut GroupSession<C>,
    ) -> Result<(), CheckpointError>
    where
        C: 'a,
    {
        let s = self.producer.slide_duration();
        let (ours, theirs) = (self.next_ordinal(), own.next_ordinal());
        if ours < theirs {
            let slides = (theirs - ours) / s;
            self.shift(slides)?;
            for member in members {
                member.shift(slides);
            }
        } else {
            let slides = (ours - theirs) / s;
            own.shift(slides)?;
            m.shift(slides);
        }
        let (GroupClock::Arrival(a), GroupClock::Arrival(b)) = (&mut self.clock, own.clock) else {
            unreachable!("count groups run on the arrival clock")
        };
        let overlap = a.ring.len().min(b.ring.len());
        if !a
            .ring
            .iter()
            .rev()
            .take(overlap)
            .eq(b.ring.iter().rev().take(overlap))
        {
            return Err(CheckpointError::Corrupt(
                "count sessions at one offset disagree on the stream",
            ));
        }
        if b.ring.len() > a.ring.len() {
            *a = b;
        }
        let mut shorter = own.producer;
        if shorter.pending_len() > self.producer.pending_len() {
            std::mem::swap(&mut self.producer, &mut shorter);
        }
        let mut open = self.producer.pending().iter();
        if !shorter.pending().iter().all(|o| open.any(|p| p == o)) {
            return Err(CheckpointError::Corrupt(
                "count sessions at one offset disagree on the open slide",
            ));
        }
        self.deepen(shorter.k_max());
        Ok(())
    }

    /// Objects an arrival-clock group has observed (0 on the event clock).
    fn next_ordinal(&self) -> u64 {
        match &self.clock {
            GroupClock::Event => 0,
            GroupClock::Arrival(a) => a.next_ordinal,
        }
    }

    /// Moves an arrival-clock group `slides` slides later on its ordinals
    /// (see [`merge_arrivals`](Group::merge_arrivals)).
    fn shift(&mut self, slides: u64) -> Result<(), CheckpointError> {
        self.producer.shift(slides)?;
        if let GroupClock::Arrival(a) = &mut self.clock {
            let by = slides * self.producer.slide_duration();
            let overflow = CheckpointError::Corrupt("count-group ordinal overflows");
            a.ring_base = a.ring_base.checked_add(by).ok_or(overflow.clone())?;
            a.next_ordinal = a.next_ordinal.checked_add(by).ok_or(overflow)?;
        }
        Ok(())
    }

    /// Writes the group into its clock's checkpoint section: `GROUPS`
    /// holds an event-clock group's slide duration, predicate and
    /// producer; `COUNT_GROUPS` an arrival-clock group's predicate,
    /// producer, ordinal (explicit since v3: under admission control the
    /// fill is not derivable from the producer's buffer) and ring.
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

    /// Reads one entry of [`encode`](Group::encode)'s `clock` section.
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
}

/// One **result class**: members whose emissions are the same function
/// of the group's stream — equal window, `k` and join slide, and a
/// provably equal past (see the [module docs](self)). The class owns
/// their one consumer and computes each close once.
struct Class<C: SlidingTopK> {
    /// The group slide the consumer's slide 0 lines up with (see
    /// [`GroupSession`]); with the consumer's window and `k`, the class
    /// key.
    join_slide: u64,
    /// The one consumer serving every member.
    consumer: SharedTimed<C>,
    /// Member query ids, ascending.
    members: Vec<QueryId>,
    /// The class's previous emission — byte-equal to every member's by
    /// construction, so the class-level diff is valid for all of them.
    prev: Snapshot,
    scratch: SlideScratch,
    /// The last closed slide's delta, computed once and cloned per
    /// member (inline — allocation-free when it fits 8 events).
    events: EventList,
}

impl<C: SlidingTopK> Class<C> {
    fn key(&self) -> (u64, usize, u64) {
        (
            self.consumer.window_duration(),
            self.consumer.k(),
            self.join_slide,
        )
    }

    /// The class-level half of a close: one reduction, one id
    /// translation, one diff — whatever the class's member count. When
    /// the engine proves its top-k unchanged, the close re-emits `prev`
    /// with `[Unchanged]` and skips the translation and the diff.
    fn close(&mut self, view: DigestView<'_>, clock: &GroupClock) -> Snapshot {
        let slide = view.slide - self.join_slide;
        let Some(top) = self.consumer.apply_slide_top(slide, view.top) else {
            self.events.clear();
            if !self.prev.is_empty() {
                self.events.push(TopKEvent::Unchanged);
            }
            return self.prev.clone();
        };
        clock.translate(top, &mut self.scratch.snapshot);
        close_staged(&mut self.prev, &mut self.scratch, &mut self.events)
    }
}

/// The sharing counters — see the [`HubStats`] fields of the same
/// names. A checkpoint carries the first five, in their `COUNTERS` and
/// `ADMISSION` byte order; `class_hits` travels in memory only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) digest_hits: u64,
    pub(crate) digest_rebuilds: u64,
    pub(crate) count_group_hits: u64,
    /// Persisted since checkpoint v3.
    pub(crate) admitted: u64,
    pub(crate) pruned: u64,
    /// Never encoded, so it survives a resize and restarts at 0 on a
    /// restore.
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
        });
        enc.section(tags::ADMISSION, |e| {
            e.put_u64(self.admitted);
            e.put_u64(self.pruned);
        });
    }

    /// Reads the counter sections of a format-`version` image; a format-3
    /// image also carries the retired isolated-count rebuild tally, which
    /// is dropped.
    fn decode(dec: &mut Decoder<'_>, version: u32) -> Result<Counters, CheckpointError> {
        let mut sec = dec.section(tags::COUNTERS)?;
        let (digest_hits, digest_rebuilds) = (sec.take_u64()?, sec.take_u64()?);
        let count_group_hits = sec.take_u64()?;
        if version == 3 {
            sec.take_u64()?;
        }
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
            class_hits: 0,
        })
    }
}

/// The session store and dispatch logic shared by the sequential hub and
/// the shard workers. Sessions are kept in registration order (which is
/// ascending `QueryId` order), so emitted updates are naturally ordered
/// per publish call.
pub(crate) struct Registry<C: SlidingTopK> {
    sessions: Vec<(QueryId, GroupSession<C>)>,
    /// Ascending indices into `sessions` of the entries every publish and
    /// watermark call serves directly — see [`needs_call`] and the
    /// module docs on per-call cost. Walking it in order is registration
    /// order.
    solo: Vec<usize>,
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
            solo: Vec::new(),
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

/// A decoded `tags::REGISTRY` section, still loose: sessions with their
/// replayed engines, the groups, and the sharing counters — everything
/// needed to rebuild a [`Registry`] (or to scatter across `AsyncHub`
/// shards) once [`merge`](RegistryParts::merge) has validated the
/// cross-section invariants.
pub(crate) struct RegistryParts<C: SlidingTopK> {
    pub(crate) sessions: Vec<(QueryId, GroupSession<C>)>,
    /// Both clocks' groups; after [`merge`](RegistryParts::merge) a
    /// member's group handle indexes this list.
    pub(crate) groups: Vec<Group<C>>,
    pub(crate) counters: Counters,
    /// Decoded isolated sessions of a format-3 image, not yet in a
    /// group, each with the pass-all group its session implies: a
    /// time-based one (kind 1) as an event-clock member in step with its
    /// adapter's producer, a count-based one (kind 0) as an arrival-clock
    /// member in step with the group its window and pending buffer
    /// describe. [`merge`](RegistryParts::merge) seats them; live
    /// registries never hold one, so it is empty everywhere else.
    pub(crate) unseated: Vec<(QueryId, GroupSession<C>, Group<C>)>,
}

impl<C: SlidingTopK> RegistryParts<C> {
    /// Folds per-shard registry sections back into one coherent whole:
    /// sessions concatenated and re-sorted into ascending-id order
    /// (identical to hub registration order, so a restored hub drains in
    /// the same global order as the original), groups concatenated,
    /// counters summed, and every member pointed at its group's index.
    /// Cross-section structure is validated here — an event-clock group
    /// appearing in two sections would mean a group spanned shards,
    /// which the hub never produces, so it is corruption rather than a
    /// merge.
    ///
    /// Unseated members are seated in id order, after the slide-group
    /// index is built, so a later one finds the group an earlier one
    /// founded or joined. A time-based one whose `(slide_duration,
    /// pass-all)` group exists warms up on its own producer until the
    /// group closes the slide it joined during — the later of the two
    /// open slides, since a session registered after the last arrival
    /// lags its group by empty slides — and deepens the group to its
    /// `k`, as a live mid-stream join does. A count-based one whose
    /// `(s, open-slide fill, pass-all)` group exists merges its group
    /// into it ([`Group::merge_arrivals`]): a hub's queries saw one
    /// stream, so both describe one suffix of it. Otherwise its group is
    /// founded, in step with the member.
    pub(crate) fn merge(parts: Vec<Self>) -> Result<Self, CheckpointError> {
        let mut sessions = Vec::new();
        let mut groups: Vec<Group<C>> = Vec::new();
        let mut counters = Counters::default();
        let mut unseated = Vec::new();
        for mut part in parts {
            // rebase this section's arrival-clock references onto the
            // concatenated list BEFORE its sessions join the shared pool;
            // event-clock members find their group by key
            let base = groups.len() as u64;
            for (_, m) in &mut part.sessions {
                if m.clock() == Clock::Arrival {
                    let rebased = m
                        .group()
                        .checked_add(base)
                        .ok_or(CheckpointError::Corrupt("count-group reference overflows"))?;
                    m.set_group(rebased);
                }
            }
            groups.extend(part.groups);
            sessions.extend(part.sessions);
            unseated.extend(part.unseated);
            counters.absorb(&part.counters);
        }
        let mut slide_groups: HashMap<(u64, Predicate), usize> = HashMap::new();
        for (i, group) in groups.iter().enumerate() {
            let (clock, sd, _, predicate) = group.identity();
            if clock == Clock::Event && slide_groups.insert((sd, predicate), i).is_some() {
                return Err(CheckpointError::Corrupt(
                    "a slide group spans registry sections",
                ));
            }
        }
        unseated.sort_unstable_by_key(|(id, _, _)| *id);
        for (id, mut m, own) in unseated {
            let identity = own.identity();
            let (clock, slide, _, predicate) = identity;
            match clock {
                Clock::Event => match slide_groups.get(&(slide, predicate)) {
                    Some(&index) => {
                        let group = &mut groups[index];
                        let open_slide = group.producer.next_slide().max(own.producer.next_slide());
                        group.deepen(m.k());
                        m.warm_up(own.producer, open_slide);
                    }
                    None => {
                        slide_groups.insert((slide, predicate), groups.len());
                        groups.push(own);
                    }
                },
                Clock::Arrival => {
                    let index = match groups.iter().position(|g| g.identity() == identity) {
                        Some(index) => {
                            let members = sessions.iter_mut().filter_map(|(_, s)| {
                                let mine = s.clock() == Clock::Arrival && s.group() == index as u64;
                                mine.then_some(s)
                            });
                            groups[index].merge_arrivals(members, own, &mut m)?;
                            index
                        }
                        None => {
                            groups.push(own);
                            groups.len() - 1
                        }
                    };
                    m.set_group(index as u64);
                }
            }
            sessions.push((id, m));
        }
        sessions.sort_by_key(|(id, _)| *id);
        if sessions.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(CheckpointError::Corrupt(
                "duplicate query id across registry sections",
            ));
        }
        // per group: member count and the earliest ordinal a member's
        // next emission can reference
        let mut tally = vec![(0usize, u64::MAX); groups.len()];
        for (_, m) in &mut sessions {
            let index = match m.clock() {
                Clock::Event => {
                    let Some(&index) = slide_groups.get(&(m.slide(), m.predicate())) else {
                        return Err(CheckpointError::Corrupt(
                            "shared session without its slide group",
                        ));
                    };
                    m.set_group(index as u64);
                    let group = &groups[index];
                    if group.producer.k_max() < m.k() {
                        return Err(CheckpointError::Corrupt(
                            "slide group shallower than a member's k",
                        ));
                    }
                    if m.is_warming_up() && m.consumer().is_none() {
                        return Err(CheckpointError::Corrupt(
                            "warming shared member without its consumer",
                        ));
                    }
                    index
                }
                Clock::Arrival => {
                    let Some((index, group)) = usize::try_from(m.group())
                        .ok()
                        .and_then(|index| Some((index, groups.get(index)?)))
                        .filter(|(_, group)| group.clock.kind() == Clock::Arrival)
                    else {
                        return Err(CheckpointError::Corrupt(
                            "grouped session without its count group",
                        ));
                    };
                    if group.producer.slide_duration() != m.slide() {
                        return Err(CheckpointError::Corrupt(
                            "count group disagrees with a member's slide length",
                        ));
                    }
                    if group.producer.k_max() < m.k() {
                        return Err(CheckpointError::Corrupt(
                            "count group shallower than a member's k",
                        ));
                    }
                    let next = group.producer.next_slide();
                    if m.join_slide() > next {
                        return Err(CheckpointError::Corrupt(
                            "count-group member joined past its group",
                        ));
                    }
                    // arrival slides never straddle a checkpoint
                    // boundary, so every member is exactly caught up to
                    // its group — validated on every member that carries
                    // a consumer (a decoded one always does; a resized
                    // group's classed members travel without one)
                    if let Some(consumer) = m.consumer() {
                        if consumer.slides_applied() != next - m.join_slide() {
                            return Err(CheckpointError::Corrupt(
                                "count-group member out of step with its group",
                            ));
                        }
                    }
                    // the member's next emission ranks its last `window`
                    // arrivals, but none from before it joined
                    let sd = m.slide();
                    let end = next.saturating_add(1).saturating_mul(sd);
                    let reach = end
                        .saturating_sub(m.window())
                        .max(m.join_slide().saturating_mul(sd));
                    tally[index].1 = tally[index].1.min(reach);
                    index
                }
            };
            tally[index].0 += 1;
        }
        for (i, group) in groups.iter().enumerate() {
            let (members, reach) = tally[i];
            let GroupClock::Arrival(a) = &group.clock else {
                if members == 0 {
                    return Err(CheckpointError::Corrupt("slide group with no members"));
                }
                continue;
            };
            if members == 0 {
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
            if a.ring_base + a.ring.len() as u64 != a.next_ordinal {
                return Err(CheckpointError::Corrupt(
                    "count-group ring disagrees with its producer",
                ));
            }
            // the ring must reach back far enough to translate every
            // ordinal a member's next emission can reference
            if a.ring_base > reach {
                return Err(CheckpointError::Corrupt(
                    "count-group ring does not cover its members' windows",
                ));
            }
            // distinct same-`(s, predicate)` groups always sit at
            // distinct offsets (mod s), i.e. distinct fills — a
            // collision means one geometry class was split, which the
            // hub never produces
            if groups[..i]
                .iter()
                .any(|other| other.identity() == group.identity())
            {
                return Err(CheckpointError::Corrupt(
                    "count groups share a geometry class",
                ));
            }
        }
        Ok(RegistryParts {
            sessions,
            groups,
            counters,
            unseated: Vec::new(),
        })
    }

    /// Seats decoded members in their groups, once, after
    /// [`merge`](RegistryParts::merge) validated them: each is counted
    /// in, and each that is not warming up pools into a result class by
    /// byte signature. Only a restore needs this — a decoded group
    /// arrives without classes, while a migrated one keeps its own.
    pub(crate) fn pool_classes(&mut self) {
        for (id, m) in &mut self.sessions {
            let group = &mut self.groups[m.group() as usize];
            group.count(m);
            if !m.is_warming_up() {
                group.class_member(*id, m);
            }
        }
    }
}

/// Where a group close delivers its member emissions: the session store
/// the members live in, and the call's output.
struct Delivery<'a, C: SlidingTopK> {
    sessions: &'a mut [(QueryId, GroupSession<C>)],
    out: &'a mut Vec<QueryUpdate>,
    hint: usize,
}

impl<C: SlidingTopK> Delivery<'_, C> {
    /// The per-member half of a class close: every member stamps the
    /// class's shared snapshot and delta.
    fn stamp(&mut self, members: &[QueryId], snapshot: &Snapshot, events: &EventList) {
        for &member in members {
            let idx = self
                .sessions
                .binary_search_by_key(&member, |(id, _)| *id)
                .expect("class member ids name registered sessions");
            let (id, session) = &mut self.sessions[idx];
            let mut sink = tagged_sink(self.out, self.hint, *id);
            session.emit_class(snapshot, events, &mut sink);
        }
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

/// The tagged-update sink every publish path hands its sessions: pushes
/// each emitted [`SlideResult`] straight into the output as a
/// `QueryUpdate`, pre-sizing the output from the retained hint on the
/// first (and typically only) allocation. One definition, so the three
/// publish paths can never diverge on the reservation policy.
fn tagged_sink<'a>(
    out: &'a mut Vec<QueryUpdate>,
    hint: usize,
    query: QueryId,
) -> impl FnMut(SlideResult) + 'a {
    move |result| {
        if out.capacity() == 0 {
            out.reserve(hint.max(1));
        }
        out.push(QueryUpdate { query, result });
    }
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

/// Whether every member among `sessions` sits where a live group keeps
/// it: a warming member in no class of its group, any other in exactly
/// one — the shape a group must arrive in when it is installed.
fn members_in_classes<C: SlidingTopK>(
    groups: &HashMap<u64, Group<C>>,
    sessions: &[(QueryId, GroupSession<C>)],
) -> bool {
    sessions.iter().all(|(id, m)| {
        let classes = groups[&m.group()].classes.iter();
        let holding = classes.filter(|c| c.members.binary_search(id).is_ok());
        holding.count() == usize::from(!m.is_warming_up())
    })
}

/// Serves a warming member through `warm`, counting its private slides
/// as [`digest_rebuilds`](HubStats::digest_rebuilds).
fn serve_warming(
    rebuilds: &mut u64,
    sink: &mut dyn FnMut(SlideResult),
    warm: impl FnOnce(&mut dyn FnMut(SlideResult)),
) {
    warm(&mut |result| {
        *rebuilds += 1;
        sink(result);
    });
}

/// Canonical byte signature of a consumer's replayable state — the same
/// bytes `encode_checkpoint` would write for it. Two consumers with
/// equal spec, slide progress, and signature provably compute identical
/// futures, which is what lets a restore pool decoded members back into
/// result classes (and drop the duplicate consumer losslessly) without
/// the checkpoint carrying any class structure.
fn consumer_sig<C: SlidingTopK>(consumer: &SharedTimed<C>) -> Vec<u8> {
    let mut enc = Encoder::new();
    consumer.encode_state(&mut enc);
    enc.into_payload()
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

    /// Appends a freshly registered member — ids are handed out
    /// monotonically, so appending keeps the store in ascending-id order
    /// — and lists it for per-call service while it warms up.
    fn push_session(&mut self, id: QueryId, m: GroupSession<C>) {
        debug_assert!(
            self.sessions.last().is_none_or(|(last, _)| *last < id),
            "registration ids ascend"
        );
        if m.is_warming_up() {
            self.solo.push(self.sessions.len());
        }
        self.sessions.push((id, m));
    }

    /// Recomputes the per-call list from the store — the bulk paths'
    /// bookkeeping, after a mutation that already cost O(store).
    fn rebuild_solo(&mut self) {
        self.solo.clear();
        self.solo.extend(
            self.sessions
                .iter()
                .enumerate()
                .filter(|(_, (_, m))| m.is_warming_up())
                .map(|(i, _)| i),
        );
    }

    /// Merges id-ascending `incoming` sessions into the id-ascending store
    /// in one pass — the stable sort finds the two sorted runs and merges
    /// them, O(store) whatever the member count, where inserting one at a
    /// time is O(members × store) — and recomputes the per-call list.
    fn merge_sessions(&mut self, incoming: Vec<(QueryId, GroupSession<C>)>) {
        self.sessions.extend(incoming);
        self.sessions.sort_by_key(|(id, _)| *id);
        self.rebuild_solo();
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
    /// joining mid-stream warms up instead.
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
        let mut member = GroupSession::new(
            clock,
            *consumer,
            predicate,
            if in_step { next } else { 0 },
            gid,
        );
        group.count(&member);
        if !in_step {
            member.warm_up(DigestProducer::new(slide, k), next);
        } else if let Some(class) = group
            .classes
            .iter_mut()
            .find(|c| c.key() == member.class_key())
        {
            debug_assert_eq!(
                class.consumer.slides_applied(),
                0,
                "a joinable class is at its still-open join slide"
            );
            // ids are monotonic: pushing keeps members ascending
            class.members.push(id);
            member.take_consumer();
        } else {
            group.found_class(id, &mut member);
        }
        self.push_session(id, member);
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
    /// (so the returned session carries its full engine state), while an
    /// earlier leaver hands its share back and is returned without a
    /// consumer — engines are not `Clone`, and the state keeps serving
    /// the members staying behind.
    pub(crate) fn unregister(&mut self, id: QueryId) -> Option<GroupSession<C>> {
        let pos = self.position(id)?;
        let (_, mut m) = self.sessions.remove(pos);
        // drop `pos` from the per-call list; later entries shift down
        let from = self.solo.partition_point(|&i| i < pos);
        if self.solo.get(from) == Some(&pos) {
            self.solo.remove(from);
        }
        for i in &mut self.solo[from..] {
            *i -= 1;
        }
        self.leave(id, &mut m);
        Some(m)
    }

    /// The group half of [`unregister`](Registry::unregister).
    fn leave(&mut self, id: QueryId, m: &mut GroupSession<C>) {
        let gid = m.group();
        let group = self.groups.get_mut(&gid).expect("a member's group is live");
        if m.is_classed() {
            let ci = group
                .classes
                .iter()
                .position(|c| c.members.binary_search(&id).is_ok())
                .expect("a classed member's group holds its class");
            let class = &mut group.classes[ci];
            let mi = class
                .members
                .binary_search(&id)
                .expect("the class holds its member");
            class.members.remove(mi);
            if class.members.is_empty() {
                m.adopt_consumer(group.classes.remove(ci).consumer);
            }
        }
        group.members -= 1;
        if group.members == 0 {
            self.remove_group(gid);
            return;
        }
        // the survivors are the classes plus the warming members, which
        // are all on the per-call list
        let warming = self.solo.iter().filter_map(|&i| {
            let w = &self.sessions[i].1;
            (w.group() == gid).then(|| (w.k(), w.window()))
        });
        let (k_max, widest) = group
            .classes
            .iter()
            .map(|c| (c.consumer.k(), c.consumer.window_duration()))
            .chain(warming)
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
        let mut out = Vec::new();
        let mut timed = std::mem::take(&mut self.timed_buf);
        timed.clear();
        timed.extend(objects.iter().map(|o| TimedObject::new(o.id, 0, o.score)));
        self.serve_groups(Tick::Untimed(&timed), &mut out);
        self.timed_buf = timed;
        self.finish_call(out, 0)
    }

    /// Fans a timed batch out to every session: the per-call list of
    /// warming members is walked in registration order, each feeding the
    /// raw batch to its private view, then each group ingests the batch
    /// **once**, serving its classes inside every close.
    pub(crate) fn publish_timed(&mut self, objects: &[TimedObject]) -> Vec<QueryUpdate> {
        if self.sessions.is_empty() || objects.is_empty() {
            return Vec::new();
        }
        let Registry {
            sessions,
            solo,
            counters,
            update_hint,
            ..
        } = self;
        let mut out = Vec::new();
        let hint = *update_hint;
        for &i in solo.iter() {
            let (id, member) = &mut sessions[i];
            serve_warming(
                &mut counters.digest_rebuilds,
                &mut tagged_sink(&mut out, hint, *id),
                |f| member.push_warmup(objects, f),
            );
        }
        let walked = out.len();
        self.serve_groups(Tick::Timed(objects), &mut out);
        self.promote_ready();
        self.finish_call(out, walked)
    }

    /// Raises the event-time watermark on every time-based session —
    /// event-clock groups advance once and serve their classes, warming
    /// members advance privately. Arrival-clock groups are untouched.
    pub(crate) fn advance_time(&mut self, watermark: u64) -> Vec<QueryUpdate> {
        if self.sessions.is_empty() {
            return Vec::new();
        }
        let Registry {
            sessions,
            solo,
            counters,
            update_hint,
            ..
        } = self;
        let mut out = Vec::new();
        let hint = *update_hint;
        for &i in solo.iter() {
            let (id, member) = &mut sessions[i];
            serve_warming(
                &mut counters.digest_rebuilds,
                &mut tagged_sink(&mut out, hint, *id),
                |f| member.advance_warmup(watermark, f),
            );
        }
        let walked = out.len();
        self.serve_groups(Tick::Watermark(watermark), &mut out);
        self.promote_ready();
        self.finish_call(out, walked)
    }

    /// Moves every group's clock by `tick`, one clock step per object
    /// and group: the step closes the slides it crosses (event time
    /// before the object lands, so the gate judges it against the slide
    /// it lands in; the arrival clock after, as its ordinal fills the
    /// slide), and the admission plane buffers the object in between.
    /// Each close serves the group's classes inside the close (see
    /// [`Group::advance`]); their output is appended after the per-call
    /// walk.
    fn serve_groups(&mut self, tick: Tick<'_>, out: &mut Vec<QueryUpdate>) {
        let Registry {
            sessions,
            groups,
            counters,
            update_hint,
            ..
        } = self;
        let mut delivery = Delivery {
            sessions,
            out,
            hint: *update_hint,
        };
        for group in groups.values_mut() {
            let objects = match (tick, &group.clock) {
                (Tick::Watermark(watermark), GroupClock::Event) => {
                    group.advance(watermark, counters, &mut delivery);
                    continue;
                }
                (Tick::Timed(objects), _) | (Tick::Untimed(objects), GroupClock::Arrival(_)) => {
                    objects
                }
                _ => continue,
            };
            let retain = group.widest.saturating_add(group.producer.slide_duration());
            for raw in objects {
                let (o, after) = group.clock.step(*raw, retain);
                group.advance(o.timestamp, counters, &mut delivery);
                group.admit(raw, o, counters);
                group.advance(after, counters, &mut delivery);
            }
        }
    }

    /// Finishes a publish or watermark call: group serving appends per
    /// class, not per registered query, so when it emitted anything the
    /// output is sorted back into registration order — `(QueryId,
    /// slide)` keys are unique and each session's slides ascend, so the
    /// sort IS registration-order delivery.
    fn finish_call(&mut self, mut out: Vec<QueryUpdate>, walked: usize) -> Vec<QueryUpdate> {
        if out.len() > walked {
            out.sort_unstable_by_key(|u| (u.query, u.result.slide));
        }
        note_update_hint(&mut self.update_hint, out.len());
        out
    }

    /// Seats every warming member whose group has closed the slide it
    /// joined during in a class of its own: both producers processed the
    /// same timestamps, so from the next slide on the private and shared
    /// views are identical. Warming members are all on the per-call list,
    /// and only they pay a group lookup; a seated member leaves it.
    fn promote_ready(&mut self) {
        let Registry {
            sessions,
            solo,
            groups,
            ..
        } = self;
        let mut promoted = false;
        for &i in solo.iter() {
            let (id, m) = &mut sessions[i];
            let group = groups
                .get_mut(&m.group())
                .expect("a member's group is live");
            if m.finish_warmup(group.producer.next_slide()) {
                group.found_class(*id, m);
                promoted = true;
            }
        }
        if promoted {
            solo.retain(|&i| sessions[i].1.is_warming_up());
        }
    }

    pub(crate) fn session(&self, id: QueryId) -> Option<&GroupSession<C>> {
        self.position(id).map(|pos| &self.sessions[pos].1)
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
            stats.result_classes += group.classes.len() as u64;
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
    /// purely from state a checkpoint carries, so encode and decode agree
    /// by construction, and the key is unique — distinct same-`(s,
    /// predicate)` arrival groups always sit at distinct offsets mod `s`.
    fn canonical(&self) -> Vec<u64> {
        let mut order: Vec<u64> = self.groups.keys().copied().collect();
        order.sort_unstable_by_key(|gid| self.groups[gid].identity());
        order
    }

    /// Serializes this registry's full serving state as one
    /// `tags::REGISTRY` section body: sessions in registration order
    /// (each with an engine-name + spec header and a replayable body),
    /// the event-clock groups in `GROUPS` and the arrival-clock groups in
    /// `COUNT_GROUPS`, both in canonical order (deterministic regardless
    /// of `HashMap` iteration order), and the sharing counters.
    pub(crate) fn encode_checkpoint(&self, enc: &mut Encoder) {
        let order = self.canonical();
        let (slide, count): (Vec<&Group<C>>, Vec<&Group<C>>) = order
            .iter()
            .map(|gid| &self.groups[gid])
            .partition(|g| g.clock.kind() == Clock::Event);
        // an arrival-clock member names its group by its position in
        // `COUNT_GROUPS`, since live ids shift across epochs
        let index_of: HashMap<u64, u64> = order[slide.len()..]
            .iter()
            .enumerate()
            .map(|(i, gid)| (*gid, i as u64))
            .collect();
        enc.section(tags::SESSIONS, |e| {
            e.put_u64(self.sessions.len() as u64);
            for (id, m) in &self.sessions {
                e.put_u64(id.raw());
                match m.clock() {
                    Clock::Event => {
                        e.put_u8(2);
                        e.put_str(m.engine_name());
                        e.put_u64(m.window());
                        e.put_u64(m.slide());
                        e.put_usize(m.k());
                        // the predicate rides at the registry entry
                        // level (since v3), keeping the session body
                        // bytes unchanged
                        m.predicate().encode(e);
                    }
                    Clock::Arrival => {
                        e.put_u8(3);
                        e.put_str(m.engine_name());
                        e.put_u64(m.window());
                        e.put_usize(m.k());
                        e.put_u64(m.slide());
                    }
                }
                // a classed member encodes its class's consumer
                let class_consumer = self.groups[&m.group()]
                    .classes
                    .iter()
                    .find(|c| c.members.binary_search(id).is_ok())
                    .map(|c| &c.consumer);
                let index = index_of.get(&m.group()).copied().unwrap_or(0);
                m.encode_checkpoint_body(e, class_consumer, index);
            }
        });
        for (tag, groups) in [(tags::GROUPS, slide), (tags::COUNT_GROUPS, count)] {
            enc.section(tag, |e| {
                e.put_u64(groups.len() as u64);
                for group in groups {
                    group.encode(e);
                }
            });
        }
        self.counters.encode(enc);
    }

    /// Decodes one `tags::REGISTRY` section body of a format-`version`
    /// image into loose [`RegistryParts`], building each session's engine
    /// on its reduction through the caller's closure. A format-3 image
    /// may hold isolated sessions (kinds 0 and 1), which this build never
    /// writes: each becomes an unseated member with the pass-all group
    /// its state implies. Every structural violation is a typed error —
    /// never a panic.
    pub(crate) fn decode_checkpoint(
        dec: &mut Decoder<'_>,
        version: u32,
        count: &mut dyn FnMut(&str, WindowSpec) -> Result<C, SapError>,
    ) -> Result<RegistryParts<C>, SapError> {
        let bounded = |spec: WindowSpec| {
            if spec.n > crate::checkpoint::MAX_RESTORED_WINDOW {
                Err(CheckpointError::Corrupt(
                    "restored window implausibly large",
                ))
            } else {
                Ok(spec)
            }
        };
        let fresh = |_| CheckpointError::Corrupt("factory engine is not a fresh reduction");
        let mut sessions = Vec::new();
        let mut unseated = Vec::new();
        {
            let mut sec = dec.section(tags::SESSIONS)?;
            let n = sec.take_seq_len()?;
            for _ in 0..n {
                let id = QueryId::from_raw(sec.take_u64()?);
                let kind = sec.take_u8()?;
                let name = sec.take_str()?;
                let m = match kind {
                    // an isolated count session: its window and pending
                    // buffer become an unseated arrival-clock member
                    0 if version == 3 => {
                        let (wn, wk, ws) =
                            (sec.take_usize()?, sec.take_usize()?, sec.take_usize()?);
                        let spec = WindowSpec::new(wn, wk, ws)
                            .map_err(|_| CheckpointError::Corrupt("invalid count window spec"))?;
                        let engine = count(name, bounded(spec)?.reduced())?;
                        let consumer = SharedTimed::from_count_engine(engine, spec.n, spec.s)
                            .map_err(fresh)?;
                        let (m, group) = decode_isolated_count(consumer, &mut sec)?;
                        unseated.push((id, m, group));
                        continue;
                    }
                    // an isolated time-based session: its adapter's
                    // engine, producer and consumer become an unseated
                    // event-clock member
                    1 if version == 3 => {
                        let (wd, sd, k) = (sec.take_u64()?, sec.take_u64()?, sec.take_usize()?);
                        let reduced = TimedSpec::new(wd, sd, k)
                            .and_then(|spec| spec.reduced())
                            .map_err(|_| CheckpointError::Corrupt("invalid timed window spec"))?;
                        let engine = count(name, bounded(reduced)?)?;
                        let consumer = SharedTimed::from_engine(engine, wd, sd).map_err(fresh)?;
                        let (m, producer) = GroupSession::decode_adapter_body(consumer, &mut sec)?;
                        let group = Group::new(producer, Predicate::default(), GroupClock::Event);
                        unseated.push((id, m, group));
                        continue;
                    }
                    2 => {
                        let (wd, sd, k) = (sec.take_u64()?, sec.take_u64()?, sec.take_usize()?);
                        let predicate = Predicate::decode(&mut sec)?;
                        let reduced = TimedSpec::new(wd, sd, k)
                            .and_then(|spec| spec.reduced())
                            .map_err(|_| CheckpointError::Corrupt("invalid shared window spec"))?;
                        let engine = count(name, bounded(reduced)?)?;
                        let consumer = SharedTimed::from_engine(engine, wd, sd).map_err(fresh)?;
                        GroupSession::decode_checkpoint_body(
                            Clock::Event,
                            consumer,
                            predicate,
                            &mut sec,
                            k,
                        )?
                    }
                    3 => {
                        let (wn, wk, ws) =
                            (sec.take_usize()?, sec.take_usize()?, sec.take_usize()?);
                        let spec = WindowSpec::new(wn, wk, ws)
                            .map_err(|_| CheckpointError::Corrupt("invalid count window spec"))?;
                        let reduced = bounded(spec)?.reduced();
                        let engine = count(name, reduced)?;
                        let consumer = SharedTimed::from_count_engine(engine, spec.n, spec.s)
                            .map_err(fresh)?;
                        // format 3 padded every reduced slide to `k`
                        let stored_width = if version == 3 { spec.k } else { reduced.s };
                        GroupSession::decode_checkpoint_body(
                            Clock::Arrival,
                            consumer,
                            Predicate::default(),
                            &mut sec,
                            stored_width,
                        )?
                    }
                    _ => return Err(CheckpointError::Corrupt("unknown session kind").into()),
                };
                sessions.push((id, m));
            }
            sec.finish()?;
        }
        let mut groups = Vec::new();
        for (tag, clock) in [
            (tags::GROUPS, Clock::Event),
            (tags::COUNT_GROUPS, Clock::Arrival),
        ] {
            let mut sec = dec.section(tag)?;
            let n = sec.take_seq_len()?;
            for _ in 0..n {
                groups.push(Group::decode(clock, &mut sec)?);
            }
            sec.finish()?;
        }
        // arrival-clock members name their group by `COUNT_GROUPS`
        // position; in the one list those groups follow the slide groups,
        // and each member ranks under its group's predicate
        let slide_groups = groups
            .iter()
            .filter(|g| g.clock.kind() == Clock::Event)
            .count() as u64;
        for (_, m) in &mut sessions {
            if m.clock() == Clock::Arrival {
                let index = m.group().saturating_add(slide_groups);
                m.set_group(index);
                if let Some(group) = usize::try_from(index).ok().and_then(|i| groups.get(i)) {
                    m.set_predicate(group.predicate);
                }
            }
        }
        let counters = Counters::decode(dec, version)?;
        Ok(RegistryParts {
            sessions,
            groups,
            counters,
            unseated,
        })
    }

    /// Builds a registry from already-merged, already-validated parts —
    /// possibly several shards' worth, when a sharded checkpoint is
    /// restored into a sequential hub. Groups are inserted as they
    /// arrive, with their members counted and seated in classes (a
    /// restore seats decoded members first; see
    /// [`RegistryParts::pool_classes`]).
    pub(crate) fn from_merged(parts: RegistryParts<C>, shard: Option<usize>) -> Self {
        let RegistryParts {
            sessions,
            groups,
            counters,
            unseated,
        } = parts;
        debug_assert!(unseated.is_empty(), "merge seats every decoded member");
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
        registry.rebuild_solo();
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
    /// inseparable — moving one moves all). The group keeps its classes,
    /// so a classed member travels without a consumer. `None` if `member`
    /// is not registered here.
    pub(crate) fn eject_group_of(&mut self, member: QueryId) -> Option<EjectedGroup<C>> {
        let gid = self.session(member)?.group();
        let group = self.remove_group(gid);
        let members = self
            .sessions
            .extract_if(.., |(_, m)| m.group() == gid)
            .collect::<Vec<_>>();
        self.rebuild_solo();
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
        self.solo.clear();
        RegistryParts {
            sessions,
            groups,
            counters: std::mem::take(&mut self.counters),
            unseated: Vec::new(),
        }
    }
}

/// Rebuilds an isolated count session of a format-3 image (session kind
/// 0) as an arrival-clock member, with the pass-all group it implies.
/// The session had seen `slides` full slides plus its pending buffer, so
/// its window and pending objects take the group ordinals that end at
/// `slides·s + pending`; the consumer replays each window slide's
/// truncation, and the group resumes at slide `slides` with the pending
/// objects buffered and every held id in its ring. The member's previous
/// emission is the top-k of its window, which the replay recomputes.
/// `consumer` must be fresh, over the query's reduction.
fn decode_isolated_count<C: SlidingTopK>(
    mut consumer: SharedTimed<C>,
    dec: &mut Decoder<'_>,
) -> Result<(GroupSession<C>, Group<C>), CheckpointError> {
    let (n, s) = (consumer.window_duration(), consumer.slide_duration());
    let slides = dec.take_u64()?;
    let window: Vec<Object> = dec.take_seq()?;
    let pending: Vec<Object> = dec.take_seq()?;
    let held = window.len() as u64;
    let fed = slides
        .checked_mul(s)
        .filter(|fed| held == n.min(*fed))
        .ok_or(CheckpointError::Corrupt(
            "session window disagrees with its slide count",
        ))?;
    if pending.len() as u64 >= s {
        return Err(CheckpointError::Corrupt(
            "session pending spans a full slide",
        ));
    }
    let base = fed - held;
    let next_ordinal = fed
        .checked_add(pending.len() as u64)
        .ok_or(CheckpointError::Corrupt("count-group ordinal overflows"))?;
    let stamp = |i: usize, o: &Object| {
        let r = base + i as u64;
        TimedObject::new(r, r, o.score)
    };
    let tops: Vec<Vec<TimedObject>> = window
        .chunks(s as usize)
        .enumerate()
        .map(|(j, slide)| {
            let mut top: Vec<TimedObject> = slide
                .iter()
                .enumerate()
                .map(|(i, o)| stamp(j * s as usize + i, o))
                .collect();
            top.sort_unstable_by(result_order);
            top
        })
        .collect();
    consumer.replay(tops.iter().map(Vec::as_slice), slides);
    let ring: VecDeque<u64> = window.iter().chain(&pending).map(|o| o.id).collect();
    let prev: Vec<Object> = consumer
        .last_result()
        .iter()
        .map(|o| Object::new(ring[(o.id - base) as usize], o.score))
        .collect();
    let open = pending
        .iter()
        .enumerate()
        .map(|(i, o)| stamp(window.len() + i, o))
        .collect();
    let producer = DigestProducer::resume(s, consumer.k(), slides, open)?;
    let arrivals = Arrivals {
        ring,
        ring_base: base,
        next_ordinal,
    };
    let group = Group::new(
        producer,
        Predicate::default(),
        GroupClock::Arrival(arrivals),
    );
    let mut m = GroupSession::new(Clock::Arrival, consumer, Predicate::default(), 0, 0);
    m.resume(slides, Snapshot::from_slice(&prev));
    Ok((m, group))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TimedSpec;
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

    /// Asserts the store is in ascending-id order and the per-call list
    /// is exactly what the full store walk it replaced served on every
    /// call: the warming members, in store order.
    fn assert_listed(reg: &ToyRegistry, step: &str) {
        assert!(
            reg.sessions.windows(2).all(|w| w[0].0 < w[1].0),
            "{step}: store out of id order"
        );
        let walked: Vec<usize> = reg
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, (_, m))| m.is_warming_up())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(reg.solo, walked, "{step}: per-call list");
    }

    /// Raw ids of the listed sessions.
    fn listed(reg: &ToyRegistry) -> Vec<u64> {
        reg.solo.iter().map(|&i| reg.sessions[i].0.raw()).collect()
    }

    /// Scatters ejected parts back through the install paths, as the
    /// hubs' resize does for one shard.
    fn reinstall(reg: &mut ToyRegistry, parts: RegistryParts<Toy>, step: &str) {
        let members_of = split_by_group(parts.sessions, parts.groups.len());
        for (group, members) in parts.groups.into_iter().zip(members_of) {
            reg.install_group(group, members);
            assert_listed(reg, step);
        }
    }

    #[test]
    fn per_call_list_tracks_every_store_mutation() {
        let pass = Predicate::default();
        let none: [u64; 0] = [];
        let mut reg = ToyRegistry::default();
        enroll_arrival(&mut reg, 0, (20, 2, 5), pass);
        enroll_event(&mut reg, 1, consumer(20, 10, 2), pass);
        enroll_event(&mut reg, 2, consumer(20, 10, 2), pass);
        enroll_arrival(&mut reg, 3, (20, 2, 5), pass);
        enroll_arrival(&mut reg, 4, (20, 2, 5), pass);
        assert_listed(&reg, "registration");
        assert_eq!(listed(&reg), none, "pristine joiners share a class");

        // a mid-stream join into the classed group warms up solo, and
        // founds a class of its own once its join slide [10, 20) closes
        reg.publish_timed(&ticks(0, 15));
        enroll_event(&mut reg, 5, consumer(20, 10, 2), pass);
        assert!(reg.session(q(5)).unwrap().is_warming_up());
        assert_listed(&reg, "warming join");
        assert_eq!(listed(&reg), [5]);
        reg.publish_timed(&ticks(15, 25));
        let promoted = reg.session(q(5)).unwrap();
        assert!(!promoted.is_warming_up() && promoted.is_classed());
        assert_listed(&reg, "promotion");
        assert_eq!(listed(&reg), none);

        // the class's first member leaves, then its last
        reg.unregister(q(1)).unwrap();
        assert_listed(&reg, "first class member leaves");
        let last = reg.unregister(q(2)).unwrap();
        assert!(!last.is_classed(), "takes the consumer");
        assert_listed(&reg, "last class member leaves");
        let left: Vec<&[QueryId]> = slide_group(&reg, 10, pass)
            .classes
            .iter()
            .map(|c| c.members.as_slice())
            .collect();
        assert_eq!(left, [[q(5)]], "only 5's class of one is left");

        // two pristine joiners of a fresh slide group share a class; a
        // joiner of the warm group warms up
        enroll_event(&mut reg, 6, consumer(14, 7, 1), pass);
        enroll_event(&mut reg, 7, consumer(14, 7, 1), pass);
        enroll_event(&mut reg, 8, consumer(20, 10, 2), pass);
        assert_listed(&reg, "pristine joins");
        assert_eq!(listed(&reg), [8], "8 joined mid-stream");

        // install and eject, as `move_query` uses them: a migrated
        // settled member keeps its class, a warming one stays solo
        let (group, members) = reg.eject_group_of(q(5)).unwrap();
        assert_listed(&reg, "slide-group eject");
        assert_eq!(listed(&reg), none);
        reg.install_group(group, members);
        assert_listed(&reg, "slide-group install");
        assert_eq!(listed(&reg), [8]);
        let (group, members) = reg.eject_group_of(q(3)).unwrap();
        assert_listed(&reg, "count-group eject");
        reg.install_group(group, members);
        assert_listed(&reg, "count-group install");
        assert_eq!(listed(&reg), [8]);

        // `resize`: eject everything, then scatter back through install
        let parts = RegistryParts::merge(vec![reg.eject_all()]).unwrap();
        assert_listed(&reg, "eject all");
        assert!(reg.solo.is_empty());
        let mut resized = ToyRegistry::default();
        reinstall(&mut resized, parts, "resize");
        assert_eq!(listed(&resized), [8]);

        // `from_merged`, the restore path
        let parts = RegistryParts::merge(vec![resized.eject_all()]).unwrap();
        let mut restored = ToyRegistry::from_merged(parts, None);
        assert_listed(&restored, "restore");
        assert_eq!(listed(&restored), [8]);
        restored.publish_timed(&ticks(25, 35));
        let settled = restored.session(q(8)).unwrap();
        assert!(!settled.is_warming_up(), "8's join slide [20, 30) closed");
        assert_listed(&restored, "promotion after restore");
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
            assert_listed(reg, step);
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
        let classed: usize = group.classes.iter().map(|c| c.members.len()).sum();
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
