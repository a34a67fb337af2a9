//! The session registry: one copy of the fan-out, digest-group, and
//! statistics bookkeeping shared by the sequential [`Hub`] and every
//! [`AsyncHub`] shard, plus the [`Registration`] value both hubs take.
//!
//! [`Registry`] holds that logic once: the sequential hub *is* a
//! registry driven from the caller's thread, and each async-hub shard
//! *is* a registry driven from its command queue — which is what keeps
//! the two byte-identical by construction. Both store the same boxed
//! [`Send`] engines, so one validated registration serves either hub.
//!
//! ## Slide groups
//!
//! Shared time-based sessions are grouped by `slide_duration`: every
//! member of a group closes slides at identical watermarks, so the group
//! owns one [`DigestProducer`] (at `k_max` = the largest member `k`,
//! grown on registration) and each published object is ingested **once
//! per group** instead of once per query. Closed digests fan out to the
//! members, each slicing its own `k` prefix.
//!
//! A member registering mid-stream must only observe objects published
//! after its registration (exactly like an isolated session). Until the
//! group slide it joined during has closed, the member therefore runs on
//! a private warm-up producer fed the raw stream; once that slide closes,
//! the private and shared views provably coincide (every later slide
//! started after the registration) and the member is promoted to shared
//! consumption. Warm-up slides are counted as
//! [`digest_rebuilds`](HubStats::digest_rebuilds), shared consumptions as
//! [`digest_hits`](HubStats::digest_hits).
//!
//! ## Count groups
//!
//! The count-based side has the same sharing opportunity one key over:
//! every count-based query with slide length `s` registered at the same
//! stream offset (mod `s`) fills and closes slides on **identical
//! arrival boundaries**, whatever its `n` and `k`. Such queries form a
//! *count group* — geometry key `(s, registration offset mod s)` — that
//! owns one [`DigestProducer`] driven by the group's arrival ordinals
//! (each ordinal doubling as the synthetic timestamp, so slides close
//! exactly every `s` arrivals) plus one ring of the last `n_max + s`
//! external ids. Each published object is ingested **once per group**;
//! when a slide fills, the group truncates it once at `k_max` and every
//! member slices its `(n, k)` view through its private [`SharedTimed`]
//! reduction — byte-identical to an isolated session, O(groups) instead
//! of O(queries) per object.
//!
//! Registration phase is the known blocker for grouping count queries
//! (equal-`s` sessions generally differ by offset), and the join rule
//! dissolves it: a new member joins an existing group with its `s` only
//! when that group's open slide is **empty** — then the member starts on
//! a fresh slide boundary, has missed nothing, and needs no warm-up
//! machinery at all. At most one group per `s` can have an empty open
//! slide at any instant (two same-`s` groups always sit at different
//! offsets mod `s`), so the rule is deterministic; a registration that
//! finds no empty-slide group founds a new geometry class at the current
//! offset. Group slides served to members are counted as
//! [`count_group_hits`](HubStats::count_group_hits); slides computed by
//! isolated count sessions ([`Registration::count`]) as
//! [`count_group_rebuilds`](HubStats::count_group_rebuilds), so the
//! sharing ratio is observable.
//!
//! ## Result classes
//!
//! Grouping makes *ingest* O(groups), but every slide close still walked
//! every member, re-running an identical reduction and diff for members
//! with the same view. The second tier collapses that per-member floor:
//! within each count group, members are partitioned into **result
//! classes** keyed by `(n, k, join_slide)` — a member's emissions are a
//! pure function of the group's stream and that key, so one class
//! computes byte-identical snapshots for all its members. The class owns
//! the one [`SharedTimed`] consumer the members share; a slide close runs
//! the reduction, the ordinal → external-id translation, and the delta
//! diff **once per class**, and each member emission is two refcount
//! bumps plus an inline event copy (zero heap allocations on a quiet
//! slide). The shared timed plane classes the same way by `(wd, k)` for
//! members that joined a pristine group; mid-stream joiners warm up solo
//! and stay solo after promotion (their class membership is not provable
//! until their partial join slide has left the window). Emissions served
//! from a class beyond the one computing member are counted as
//! [`class_hits`](HubStats::class_hits); classes are derivable from
//! member state, so checkpoints carry no class section and restore
//! rebuilds them — with every byte of the checkpoint identical to the
//! pre-class encoding.
//!
//! ## Per-call cost
//!
//! The session store holds every registered query, but a publish or
//! watermark call never walks it. The registry keeps one ascending list
//! of the store entries that need service on **every** call: isolated
//! count and timed sessions, and *solo* shared members (warming up, or
//! promoted after a mid-stream join). A quiet call therefore costs
//! O(groups) ingest plus O(list) member work; grouped members and
//! classed shared members are touched only when their class's group
//! closes a slide, and then once per member emission. The list is kept
//! in step with every store mutation — O(list) for a single register or
//! unregister, one O(store) rebuild for the bulk paths (restore,
//! group installation and ejection), which already cost O(store).
//!
//! [`Hub`]: crate::session::Hub
//! [`AsyncHub`]: crate::exec::AsyncHub

use std::collections::{HashMap, VecDeque};

use crate::checkpoint::{tags, CheckpointError, Decoder, Encoder};
use crate::digest::{DigestProducer, DigestRef, DigestView, SharedTimed};
use crate::events::{EventList, SlideResult, Snapshot};
use crate::object::{Object, TimedObject};
use crate::predicate::{Predicate, PruneGate};
use crate::query::{SapError, TimedSpec};
use crate::session::{
    close_staged, AnySession, GroupedSession, QueryId, QueryUpdate, Session, SharedSession,
    SlideScratch, TimedSession,
};
use crate::window::{Ingest, SlidingTopK, TimedIngest, TimedTopK, WindowSpec};

/// A point-in-time summary of a hub's registered queries and how much
/// per-slide work the shared digest plane is saving — what
/// `Hub::stats()`/`AsyncHub::stats()` report, so benches and examples
/// can measure sharing instead of guessing at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HubStats {
    /// Total registered queries.
    pub queries: usize,
    /// Count-based queries (window on arrival counts).
    pub count_queries: usize,
    /// Time-based queries running isolated (private Appendix-A adapter).
    pub timed_queries: usize,
    /// Time-based queries served by the shared digest plane.
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
    /// Slides served to a shared member from its group's digest — work
    /// the member did **not** redo.
    pub digest_hits: u64,
    /// Slides a shared member computed from its private warm-up producer
    /// (mid-stream joins catching up to their group).
    pub digest_rebuilds: u64,
    /// Count-based queries served by the shared count plane
    /// ([`Registration::grouped`]).
    pub grouped_queries: usize,
    /// Live count groups: distinct `(slide length, registration offset
    /// mod slide length, predicate)` keys with ≥ 1 grouped member.
    /// Shard-local for the same reason as
    /// [`digest_groups`](HubStats::digest_groups), so per-shard sums are exact.
    pub count_groups: u64,
    /// Slides served to a grouped count member from its group's shared
    /// truncation — per-slide work the member did **not** redo.
    pub count_group_hits: u64,
    /// Slides computed by **isolated** count sessions outside the shared
    /// count plane — the per-query work grouping would have pooled.
    pub count_group_rebuilds: u64,
    /// Objects admitted into a sharing-plane producer's open slide —
    /// slide groups and count groups alike. Ticks whether or not
    /// dominance pruning is enabled, so
    /// [`prune_rate`](HubStats::prune_rate) compares the same population
    /// on both arms. Objects a group's subscription predicate rejects
    /// count toward **neither** `admitted` nor `pruned` — they never
    /// reach the dominance gate.
    pub admitted: u64,
    /// Objects the k-skyband dominance gate skipped: at ingest time, at
    /// least `k_max` already-admitted objects of the same open slide
    /// strictly dominated them, so they provably cannot appear in the
    /// slide's top-`k_max` digest and no member can ever observe them.
    /// Always 0 while admission pruning is disabled
    /// (`set_admission_pruning(false)` — the reference arm).
    pub pruned: u64,
    /// Live result classes across both sharing planes (see the module
    /// docs on result classes): distinct `(n, k, join_slide)` cohorts inside
    /// count groups plus `(wd, k)` cohorts inside slide groups. Equals
    /// the number of reductions actually run per slide close; the gap to
    /// `grouped_queries + shared_queries` is the work the second tier
    /// collapses.
    pub result_classes: u64,
    /// Member emissions served from a class-level computation **beyond**
    /// the one that ran it — per-slide-close work the class memoized
    /// away. Zero while every class is solo (sharing disabled, or no two
    /// members share a view). Derived observability: resets on
    /// checkpoint restore and on `resize`, unlike the hit/rebuild
    /// counters (the checkpoint format predates it and carries no slot).
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

    /// Fraction of count-based slides served from a shared count group:
    /// `count_group_hits / (count_group_hits + count_group_rebuilds)`,
    /// or 0 before any count slide completed.
    pub fn count_group_hit_rate(&self) -> f64 {
        let total = self.count_group_hits + self.count_group_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.count_group_hits as f64 / total as f64
        }
    }

    /// Fraction of gate-eligible objects the dominance gate pruned:
    /// `pruned / (admitted + pruned)`, or 0 before any object reached a
    /// sharing-plane producer. Exactly 0 while admission pruning is
    /// disabled, because [`pruned`](HubStats::pruned) never ticks there.
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
    /// `(n, k, join_slide)` cohort adds one), while a falling hit *rate*
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
    /// per-shard partials into one hub-wide view. Straight sums are
    /// exact for every field because each query (and — by the
    /// shard-locality invariant documented on
    /// [`digest_groups`](HubStats::digest_groups) — each slide group)
    /// is owned by exactly one shard.
    pub fn merge(&mut self, other: &HubStats) {
        self.queries += other.queries;
        self.count_queries += other.count_queries;
        self.timed_queries += other.timed_queries;
        self.shared_queries += other.shared_queries;
        self.digest_groups += other.digest_groups;
        self.digest_hits += other.digest_hits;
        self.digest_rebuilds += other.digest_rebuilds;
        self.grouped_queries += other.grouped_queries;
        self.count_groups += other.count_groups;
        self.count_group_hits += other.count_group_hits;
        self.count_group_rebuilds += other.count_group_rebuilds;
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
/// group ever spans two workers. Slide groups are identified by their
/// `(slide_duration, predicate)`; count groups by `(slide length, slide
/// fill, predicate)` — at a quiesced instant every shard has consumed
/// the same published prefix, so two count groups with equal `s` and
/// equal predicate sit at the same fill only if they are the same
/// offset class (the same uniqueness argument the checkpoint encoding
/// and `RegistryParts::merge` already rely on). Fill counts **observed
/// stream positions**, not buffered objects, so the identity is stable
/// under dominance pruning and predicate rejection.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct GroupKeys {
    pub(crate) digest: Vec<(u64, Predicate)>,
    pub(crate) count: Vec<(u64, u64, Predicate)>,
}

impl GroupKeys {
    /// Debug-asserts that `other` (reported by `shard`) shares no group
    /// identity with the shards already absorbed, then absorbs it. The
    /// release build just accumulates; the debug build turns a group
    /// split across workers — a routing regression that would silently
    /// double-count groups in [`HubStats`] — into a panic at the merge
    /// site.
    pub(crate) fn absorb_disjoint(&mut self, other: &GroupKeys, shard: usize) {
        debug_assert!(
            !other.digest.iter().any(|sd| self.digest.contains(sd)),
            "slide group split across workers: slide_duration {:?} \
             reported by shard {shard} and an earlier shard",
            other.digest.iter().find(|sd| self.digest.contains(sd)),
        );
        debug_assert!(
            !other.count.iter().any(|key| self.count.contains(key)),
            "count group split across workers: geometry class {:?} \
             reported by shard {shard} and an earlier shard",
            other.count.iter().find(|key| self.count.contains(key)),
        );
        self.digest.extend_from_slice(&other.digest);
        self.count.extend_from_slice(&other.count);
    }
}

/// A standing query ready for a hub: its engine, the plane that serves
/// it, and its subscription predicate — the one value both
/// [`Hub::subscribe`](crate::session::Hub::subscribe) and
/// [`AsyncHub::subscribe`](crate::exec::AsyncHub::subscribe) take.
///
/// The constructors name the planes:
///
/// * [`count`](Registration::count) — a count-based query `⟨n, k, s⟩`
///   on its own isolated engine;
/// * [`timed`](Registration::timed) — a time-based query on its own
///   isolated engine;
/// * [`shared`](Registration::shared) — a time-based query
///   `W⟨window_duration, slide_duration⟩` on the **shared digest
///   plane**: each slide's top-`k_max` is computed once per slide group
///   (equal `slide_duration` and predicate) and every member slices its
///   own `k`. A member joining mid-stream warms up privately for at most
///   the rest of the open slide;
/// * [`grouped`](Registration::grouped) — a count-based query
///   `⟨n, k, s⟩` on the **shared count plane**: queries with equal slide
///   length, registration offset mod `s` and predicate share one
///   per-slide truncation.
///
/// Results on a sharing plane are byte-identical to an isolated
/// registration of the same query. A sharing-plane engine answers the
/// private Appendix-A reduction `⟨(n/s)·k, k, k⟩` for its own `k`
/// (durations standing in for `n` and `s` on the digest plane) and must
/// be fresh.
///
/// [`filter`](Registration::filter) attaches a subscription predicate:
/// the query ranks only objects the predicate accepts, while rejected
/// objects still advance slide boundaries. Members with different
/// predicates never share a group, so a selective subscription cannot
/// perturb a pass-all neighbor.
///
/// A hub validates the registration once, before it allocates an id:
/// wrong engine geometry (including `k > n` or `s ∤ n`) is a typed
/// [`SapError::Spec`], an empty score range
/// [`SapError::InvalidPredicate`], and a predicate on an isolated plane,
/// which has no admission stage to apply it,
/// [`SapError::PredicateUnsupported`].
pub struct Registration {
    plane: Plane,
    predicate: Predicate,
}

/// The plane a [`Registration`] asks for, with its engine and geometry.
enum Plane {
    Count(Box<dyn SlidingTopK + Send>),
    Timed(Box<dyn TimedTopK + Send>),
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

    /// An isolated count-based query served by `engine`.
    pub fn count(engine: Box<dyn SlidingTopK + Send>) -> Registration {
        Registration::on(Plane::Count(engine))
    }

    /// An isolated time-based query served by `engine`. It slides on
    /// event time, so it advances on `publish_timed` and `advance_time`
    /// only.
    pub fn timed(engine: Box<dyn TimedTopK + Send>) -> Registration {
        Registration::on(Plane::Timed(engine))
    }

    /// A time-based query `W⟨window_duration, slide_duration⟩` on the
    /// shared digest plane; `engine` answers its reduction.
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

    /// A count-based query `⟨n, k, s⟩` on the shared count plane, `k`
    /// being the engine's; `engine` answers its reduction.
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
        if matches!(plane, Plane::Count(_) | Plane::Timed(_)) {
            if !predicate.is_pass_all() {
                return Err(SapError::PredicateUnsupported);
            }
        } else {
            predicate
                .validate()
                .map_err(|reason| SapError::InvalidPredicate { reason })?;
        }
        Ok(match plane {
            Plane::Count(engine) => Member::Count(engine),
            Plane::Timed(engine) => Member::Timed(engine),
            Plane::Shared {
                engine,
                window_duration,
                slide_duration,
            } => Member::Shared(
                SharedTimed::from_engine(engine, window_duration, slide_duration)
                    .map_err(SapError::Spec)?,
                predicate,
            ),
            Plane::Grouped { engine, n, s } => {
                let spec = WindowSpec::new(n, engine.spec().k, s).map_err(SapError::Spec)?;
                let consumer =
                    SharedTimed::from_engine(engine, n as u64, s as u64).map_err(SapError::Spec)?;
                Member::Grouped(consumer, spec, predicate)
            }
        })
    }
}

/// A validated [`Registration`], in the shape a [`Registry`] serves it.
pub(crate) enum Member<C: SlidingTopK, T: TimedTopK> {
    Count(C),
    Timed(T),
    /// The digest consumer and the predicate keying its slide group.
    Shared(SharedTimed<C>, Predicate),
    /// The reduced consumer, the plain `⟨n, k, s⟩` spec, and the
    /// predicate keying its geometry class.
    Grouped(SharedTimed<C>, WindowSpec, Predicate),
}

/// The member both hubs register: boxed [`Send`] engines.
pub(crate) type HubMember = Member<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// The registry both hubs drive.
pub(crate) type HubRegistry = Registry<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// One slide group: the shared producer, its member count (sessions in
/// [`Registry::sessions`] with this `slide_duration`), and the result
/// classes collapsing same-`(wd, k)` members into one evaluation.
struct DigestGroup<C: SlidingTopK> {
    producer: DigestProducer,
    members: usize,
    /// The group's subscription predicate (also its key's second half):
    /// objects it rejects advance the group's event time but are never
    /// buffered, so every member sees the filtered ranking.
    predicate: Predicate,
    /// The k-skyband dominance gate over the open slide's admitted
    /// objects — rebuilt whenever `k_max` changes or the open slide's
    /// contents are restored, reset at every slide close. Consulted only
    /// while admission pruning is enabled.
    gate: PruneGate,
    /// Result classes of the members that are provably view-equivalent
    /// (joined the group pristine, or byte-matched at installation).
    /// Warming-up and promoted-solo members are served individually and
    /// appear in no class.
    classes: Vec<SharedClass<C>>,
}

/// One **result class** of a slide group: every member with this
/// `(window_duration, k)` that joined the pristine group computes
/// byte-identical slides, so the class owns their one consumer and runs
/// each digest's reduction + diff once, and members stamp the shared
/// snapshot (see [`SharedSession::emit_class`]).
struct SharedClass<C: SlidingTopK> {
    wd: u64,
    k: usize,
    /// The one consumer serving every member (members' own `consumer`
    /// fields are `None` while classed).
    consumer: SharedTimed<C>,
    /// Member query ids, ascending.
    members: Vec<QueryId>,
    /// The class's previous emission — byte-equal to every member's by
    /// construction, so the class-level diff is valid for all of them.
    prev: Snapshot,
    scratch: SlideScratch,
    /// The last closed slide's delta, staged once per class and cloned
    /// (inline, allocation-free when unchanged) per member.
    events: EventList,
}

impl<C: SlidingTopK> SharedClass<C> {
    fn new(consumer: SharedTimed<C>, member: QueryId, prev: Snapshot) -> Self {
        SharedClass {
            wd: consumer.window_duration(),
            k: consumer.k(),
            consumer,
            members: vec![member],
            prev,
            scratch: SlideScratch::new(),
            events: EventList::new(),
        }
    }

    /// The class-level half of a slide close: one reduction, one diff.
    fn close(&mut self, digest: &DigestRef) -> Snapshot {
        let top = self.consumer.apply_digest(digest);
        self.scratch.stage_timed(top);
        close_staged(&mut self.prev, &mut self.scratch, &mut self.events)
    }
}

/// One count group — a `(slide length, registration offset mod s)`
/// geometry class of count-based queries (see the [module docs](self)).
/// The producer runs on the group's **arrival ordinals** (used as both
/// id and synthetic timestamp), so the module's one slide-truncation
/// rule — equal scores break toward the higher id — lands on arrival
/// recency, exactly matching an isolated [`Session`]'s tie-break.
struct CountGroup<C: SlidingTopK> {
    /// Arrival-count slide length (`s`) shared by every member.
    slide_len: usize,
    /// The shared per-slide truncation at `k_max` over group ordinals.
    producer: DigestProducer,
    /// External id of group ordinal `r` at `ring[r - ring_base]` — the
    /// group-wide translation ring every member's emission reads.
    ring: VecDeque<u64>,
    ring_base: u64,
    /// Retention target: `n_max + s` covers every ordinal any member can
    /// reference at a slide close, because members are served *inside*
    /// the close (before later arrivals can evict entries). Trimming is
    /// lazy, so a shrink (deepest member leaving) drains over time.
    ring_cap: usize,
    /// Member query ids, ascending — the serving fan-out list, so a
    /// group's slide close touches only its members, never the full
    /// session store.
    member_ids: Vec<QueryId>,
    /// Objects this group has observed = the next group ordinal. Under
    /// admission control this keeps counting **every** published object
    /// — predicate-rejected and dominance-pruned ones included — so
    /// slide boundaries, the translation ring, and drain order are
    /// byte-identical to the unfiltered plane.
    next_ordinal: u64,
    /// The group's subscription predicate (part of its geometry-class
    /// identity): rejected objects advance ordinals but never reach the
    /// producer, so members rank only the matching substream.
    predicate: Predicate,
    /// The k-skyband dominance gate over the open slide's admitted
    /// objects — see [`DigestGroup::gate`].
    gate: PruneGate,
    /// The members partitioned into result classes by `(n, k,
    /// join_slide)` — every member appears in exactly one class, and a
    /// slide close runs one reduction + diff per class, not per member.
    classes: Vec<CountClass<C>>,
}

impl<C: SlidingTopK> CountGroup<C> {
    /// Observed stream positions inside the open slide — the close
    /// trigger and geometry identity. Derived from the ordinal, **not**
    /// `pending_len()`: admission control admits fewer objects than it
    /// observes, but the slide fills on observation.
    fn fill(&self) -> u64 {
        self.next_ordinal - self.producer.next_slide() * self.slide_len as u64
    }
}

/// One **result class** of a count group: its members share `(n, k,
/// join_slide)`, so their emissions are the same pure function of the
/// group's stream — the class owns their one [`SharedTimed`] consumer
/// and computes each slide close once (see the [module docs](self)).
struct CountClass<C: SlidingTopK> {
    n: usize,
    k: usize,
    /// The group slide the class's members joined at — their private
    /// slide 0.
    join_slide: u64,
    /// The one consumer serving every member.
    consumer: SharedTimed<C>,
    /// Member query ids, ascending.
    members: Vec<QueryId>,
    /// The class's previous emission (byte-equal to every member's).
    prev: Snapshot,
    scratch: SlideScratch,
    /// The last closed slide's delta, computed once and cloned per
    /// member (inline — allocation-free when it fits 8 events).
    events: EventList,
}

impl<C: SlidingTopK> CountClass<C> {
    fn new(
        spec: WindowSpec,
        join_slide: u64,
        consumer: SharedTimed<C>,
        member: QueryId,
        prev: Snapshot,
    ) -> Self {
        CountClass {
            n: spec.n,
            k: spec.k,
            join_slide,
            consumer,
            members: vec![member],
            prev,
            scratch: SlideScratch::new(),
            events: EventList::new(),
        }
    }

    /// The class-level half of a group slide close: one reduction, one
    /// ordinal → external-id translation, one diff — whatever the class's
    /// member count.
    fn close(&mut self, view: DigestView<'_>, ring: &VecDeque<u64>, ring_base: u64) -> Snapshot {
        let top = self
            .consumer
            .apply_slide_top(view.slide - self.join_slide, view.top);
        self.scratch.snapshot.clear();
        self.scratch.snapshot.extend(
            top.iter()
                .map(|o| Object::new(ring[(o.id - ring_base) as usize], o.score)),
        );
        close_staged(&mut self.prev, &mut self.scratch, &mut self.events)
    }
}

/// A count group's portable state — what travels through checkpoints and
/// whole-group shard migrations. Membership and `ring_cap` are
/// recomputed at installation from the member sessions.
pub(crate) struct CountGroupState {
    pub(crate) producer: DigestProducer,
    pub(crate) ring: VecDeque<u64>,
    pub(crate) ring_base: u64,
    /// The group's subscription predicate (pass-all for v2 images).
    pub(crate) predicate: Predicate,
    /// Observed stream positions — carried explicitly since v3: under
    /// admission control the producer's `pending_len` undercounts the
    /// open slide's fill, so the ordinal is no longer derivable from the
    /// producer alone. v2 images derive it as `next_slide · s +
    /// pending_len` (exact there — nothing was ever skipped).
    pub(crate) next_ordinal: u64,
}

impl CountGroupState {
    /// Observed stream positions inside the open slide — see
    /// [`CountGroup::fill`].
    pub(crate) fn fill(&self) -> u64 {
        self.next_ordinal - self.producer.next_slide() * self.producer.slide_duration()
    }
}

/// The session store and dispatch logic shared by the sequential hub and
/// the shard workers. Sessions are kept in registration order (which is
/// ascending `QueryId` order), so emitted updates are naturally ordered
/// per publish call.
pub(crate) struct Registry<C: SlidingTopK, T: TimedTopK> {
    sessions: Vec<(QueryId, AnySession<C, T>)>,
    /// Ascending indices into `sessions` of the entries every publish and
    /// watermark call serves directly — see [`needs_call`] and the
    /// module docs on per-call cost. Walking it in order is registration
    /// order, so serving the list emits exactly what a full store walk
    /// skipping grouped and classed members did.
    solo: Vec<usize>,
    /// `(slide_duration, predicate)` → the group serving every shared
    /// session with that geometry **and** that subscription predicate.
    /// Predicate-disjoint members of one slide duration split into
    /// distinct groups, because they rank different substreams.
    groups: HashMap<(u64, Predicate), DigestGroup<C>>,
    /// Live group id → the count group serving its grouped members. Keys
    /// are opaque registry-local handles (geometry is *derivable* — a
    /// group's offset class is `next_ordinal mod s` relative to this
    /// registry's stream — but never used as an identity, because it
    /// shifts across checkpoint/restore/resize epochs).
    count_groups: HashMap<u64, CountGroup<C>>,
    /// Next live count-group id. Monotonic per registry lifetime; never
    /// reused, so a stale handle can't alias a newer group.
    next_count_gid: u64,
    digest_hits: u64,
    digest_rebuilds: u64,
    count_group_hits: u64,
    count_group_rebuilds: u64,
    /// Objects admitted into a sharing-plane producer — see
    /// [`HubStats::admitted`]. Persisted since checkpoint v3.
    admitted: u64,
    /// Objects the dominance gate skipped — see [`HubStats::pruned`].
    pruned: u64,
    /// Whether ingest consults the k-skyband dominance gate (default).
    /// Off, every predicate-passing object is admitted — the reference
    /// arm, under which `pruned` never ticks.
    admission_pruning: bool,
    /// Member emissions served from a class computation beyond the
    /// computing member — see [`HubStats::class_hits`]. Not persisted
    /// (the checkpoint counter section predates it), so it resets on
    /// restore and resize.
    class_hits: u64,
    /// Whether registration may pool view-equivalent members into shared
    /// result classes (default). Disabled, every grouped registration
    /// founds a solo class and every shared registration stays solo —
    /// the pre-memoization serving shape the floor bench compares
    /// against. Re-classing of *traveling* members (restore, migration)
    /// ignores the flag where a member cannot serve without its class.
    class_sharing: bool,
    /// Pooled untimed view of a timed batch (for count-based sessions).
    plain_buf: Vec<Object>,
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

impl<C: SlidingTopK, T: TimedTopK> Default for Registry<C, T> {
    fn default() -> Self {
        Registry {
            sessions: Vec::new(),
            solo: Vec::new(),
            groups: HashMap::new(),
            count_groups: HashMap::new(),
            next_count_gid: 0,
            digest_hits: 0,
            digest_rebuilds: 0,
            count_group_hits: 0,
            count_group_rebuilds: 0,
            admitted: 0,
            pruned: 0,
            admission_pruning: true,
            class_hits: 0,
            class_sharing: true,
            plain_buf: Vec::new(),
            update_hint: 0,
            shard: None,
        }
    }
}

/// A slide group ejected for migration: the shared producer plus its
/// member sessions in ascending-id order (see
/// [`Registry::eject_group`]).
pub(crate) type EjectedGroup<C, T> = (DigestProducer, Vec<(QueryId, AnySession<C, T>)>);

/// A count group ejected for whole-group migration: the group's shared
/// state plus its member sessions in ascending-id order (see
/// [`Registry::eject_count_group_of`]).
pub(crate) type EjectedCountGroup<C, T> = (CountGroupState, Vec<(QueryId, AnySession<C, T>)>);

/// Sessions split by the unit they install in (see [`split_by_group`]).
pub(crate) type SplitSessions<C, T> = (
    HashMap<(u64, Predicate), Vec<(QueryId, AnySession<C, T>)>>,
    Vec<Vec<(QueryId, AnySession<C, T>)>>,
    Vec<(QueryId, AnySession<C, T>)>,
);

/// Splits decoded or ejected sessions for installation, since a
/// sharing-plane member travels with its group, never alone: slide-group
/// members by group key (for [`Registry::install_group`]), count-group
/// members by canonical group index (for
/// [`Registry::install_count_group`]), and the isolated rest (for
/// [`Registry::install`]) — each list in the input's ascending-id order.
pub(crate) fn split_by_group<C: SlidingTopK, T: TimedTopK>(
    sessions: Vec<(QueryId, AnySession<C, T>)>,
    count_groups: usize,
) -> SplitSessions<C, T> {
    let mut slide: HashMap<(u64, Predicate), Vec<_>> = HashMap::new();
    let mut count: Vec<Vec<_>> = (0..count_groups).map(|_| Vec::new()).collect();
    let mut loose = Vec::new();
    for (id, session) in sessions {
        match &session {
            AnySession::Shared(s) => slide
                .entry((s.slide_duration(), s.predicate()))
                .or_default()
                .push((id, session)),
            AnySession::Grouped(g) => count[g.group() as usize].push((id, session)),
            AnySession::Count(_) | AnySession::Timed(_) => loose.push((id, session)),
        }
    }
    (slide, count, loose)
}

/// A decoded `tags::REGISTRY` section, still loose: sessions with their
/// replayed engines, slide-group producers, and the sharing counters —
/// everything needed to rebuild a [`Registry`] (or to scatter across
/// `AsyncHub` shards) once [`merge`](RegistryParts::merge) has
/// validated the cross-section invariants.
pub(crate) struct RegistryParts<C: SlidingTopK, T: TimedTopK> {
    pub(crate) sessions: Vec<(QueryId, AnySession<C, T>)>,
    pub(crate) groups: Vec<((u64, Predicate), DigestProducer)>,
    /// Count groups in canonical section order; a grouped session's
    /// `group` field indexes this list (rebased during merge).
    pub(crate) count_groups: Vec<CountGroupState>,
    pub(crate) digest_hits: u64,
    pub(crate) digest_rebuilds: u64,
    pub(crate) count_group_hits: u64,
    pub(crate) count_group_rebuilds: u64,
    pub(crate) admitted: u64,
    pub(crate) pruned: u64,
}

impl<C: SlidingTopK, T: TimedTopK> RegistryParts<C, T> {
    /// Folds per-shard registry sections back into one coherent whole:
    /// sessions concatenated and re-sorted into ascending-id order
    /// (identical to hub registration order, so a restored hub drains in
    /// the same global order as the original), groups unioned, counters
    /// summed. Cross-section structure is validated here — a slide group
    /// appearing in two sections would mean a group spanned shards, which
    /// the hub never produces, so it is corruption rather than a merge.
    pub(crate) fn merge(parts: Vec<Self>) -> Result<Self, CheckpointError> {
        let mut sessions = Vec::new();
        let mut groups: Vec<((u64, Predicate), DigestProducer)> = Vec::new();
        let mut count_groups: Vec<CountGroupState> = Vec::new();
        let mut digest_hits = 0u64;
        let mut digest_rebuilds = 0u64;
        let mut count_group_hits = 0u64;
        let mut count_group_rebuilds = 0u64;
        let mut admitted = 0u64;
        let mut pruned = 0u64;
        for mut part in parts {
            // rebase this section's group indices onto the concatenated
            // list BEFORE its sessions dissolve into the shared pool
            let base = count_groups.len() as u64;
            for (_, session) in &mut part.sessions {
                if let AnySession::Grouped(g) = session {
                    let rebased = g
                        .group()
                        .checked_add(base)
                        .ok_or(CheckpointError::Corrupt("count-group reference overflows"))?;
                    g.set_group(rebased);
                }
            }
            count_groups.extend(part.count_groups);
            sessions.extend(part.sessions);
            for (key, producer) in part.groups {
                if groups.iter().any(|(have, _)| *have == key) {
                    return Err(CheckpointError::Corrupt(
                        "a slide group spans registry sections",
                    ));
                }
                groups.push((key, producer));
            }
            digest_hits = digest_hits.saturating_add(part.digest_hits);
            digest_rebuilds = digest_rebuilds.saturating_add(part.digest_rebuilds);
            count_group_hits = count_group_hits.saturating_add(part.count_group_hits);
            count_group_rebuilds = count_group_rebuilds.saturating_add(part.count_group_rebuilds);
            admitted = admitted.saturating_add(part.admitted);
            pruned = pruned.saturating_add(part.pruned);
        }
        sessions.sort_by_key(|(id, _)| *id);
        if sessions.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(CheckpointError::Corrupt(
                "duplicate query id across registry sections",
            ));
        }
        groups.sort_unstable_by_key(|(key, _)| *key);
        let mut member_counts = vec![0usize; groups.len()];
        // per count group: member count and deepest member window
        let mut count_members = vec![(0usize, 0usize); count_groups.len()];
        // per count-group result class `(group, n, k, join_slide)`:
        // whether any member carries the class's consumer — installation
        // has nothing to serve the class from otherwise
        let mut class_consumers: HashMap<(u64, usize, usize, u64), bool> = HashMap::new();
        for (_, session) in &sessions {
            match session {
                AnySession::Shared(s) => {
                    let key = (s.slide_duration(), s.predicate());
                    let Ok(pos) = groups.binary_search_by_key(&key, |(have, _)| *have) else {
                        return Err(CheckpointError::Corrupt(
                            "shared session without its slide group",
                        ));
                    };
                    if groups[pos].1.k_max() < s.timed_spec().k {
                        return Err(CheckpointError::Corrupt(
                            "slide group shallower than a member's k",
                        ));
                    }
                    if s.is_warming_up() && s.consumer().is_none() {
                        return Err(CheckpointError::Corrupt(
                            "warming shared member without its consumer",
                        ));
                    }
                    member_counts[pos] += 1;
                }
                AnySession::Grouped(g) => {
                    let Some(state) = count_groups.get(g.group() as usize) else {
                        return Err(CheckpointError::Corrupt(
                            "grouped session without its count group",
                        ));
                    };
                    let spec = g.spec();
                    if state.producer.slide_duration() != spec.s as u64 {
                        return Err(CheckpointError::Corrupt(
                            "count group disagrees with a member's slide length",
                        ));
                    }
                    if state.producer.k_max() < spec.k {
                        return Err(CheckpointError::Corrupt(
                            "count group shallower than a member's k",
                        ));
                    }
                    let next = state.producer.next_slide();
                    if g.join_slide() > next {
                        return Err(CheckpointError::Corrupt(
                            "count-group member joined past its group",
                        ));
                    }
                    // count slides never straddle a checkpoint boundary,
                    // so every member is exactly caught up to its group —
                    // validated on whichever member carries the class's
                    // consumer (a decoded session always does; ejected
                    // class followers travel without one)
                    if let Some(consumer) = g.consumer() {
                        if consumer.slides_applied() != next - g.join_slide() {
                            return Err(CheckpointError::Corrupt(
                                "count-group member out of step with its group",
                            ));
                        }
                    }
                    let has = class_consumers
                        .entry((g.group(), spec.n, spec.k, g.join_slide()))
                        .or_insert(false);
                    *has |= g.consumer().is_some();
                    let entry = &mut count_members[g.group() as usize];
                    entry.0 += 1;
                    entry.1 = entry.1.max(spec.n);
                }
                _ => {}
            }
        }
        if class_consumers.values().any(|has| !*has) {
            return Err(CheckpointError::Corrupt(
                "count-group result class without a consumer",
            ));
        }
        // an ejected class follower travels behind its representative,
        // which must be present (same slide group) and carry a consumer
        for (_, session) in &sessions {
            let AnySession::Shared(s) = session else {
                continue;
            };
            if s.consumer().is_some() {
                continue;
            }
            let Some(rep) = s.class_rep() else {
                return Err(CheckpointError::Corrupt(
                    "classed shared member without a class representative",
                ));
            };
            let sd = s.slide_duration();
            // sessions are id-sorted (and duplicate-free) by now
            let ok = sessions
                .binary_search_by_key(&rep, |(id, _)| *id)
                .is_ok_and(|pos| {
                    matches!(&sessions[pos].1, AnySession::Shared(r)
                        if r.consumer().is_some() && r.slide_duration() == sd)
                });
            if !ok {
                return Err(CheckpointError::Corrupt(
                    "shared result class without its representative",
                ));
            }
        }
        if member_counts.contains(&0) {
            return Err(CheckpointError::Corrupt("slide group with no members"));
        }
        for (i, state) in count_groups.iter().enumerate() {
            let (members, n_max) = count_members[i];
            if members == 0 {
                return Err(CheckpointError::Corrupt("count group with no members"));
            }
            let sd = state.producer.slide_duration();
            let pending = state.producer.pending_len() as u64;
            let Some(slide_start) = state.producer.next_slide().checked_mul(sd) else {
                return Err(CheckpointError::Corrupt("count-group ordinal overflows"));
            };
            let Some(fill) = state.next_ordinal.checked_sub(slide_start) else {
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
            let next_ordinal = state.next_ordinal;
            if state.ring_base + state.ring.len() as u64 != next_ordinal {
                return Err(CheckpointError::Corrupt(
                    "count-group ring disagrees with its producer",
                ));
            }
            // the ring must reach back far enough to translate every
            // ordinal the deepest member's next emission can reference
            let next_close_end = (state.producer.next_slide() + 1).saturating_mul(sd);
            if state.ring_base > next_close_end.saturating_sub(n_max as u64) {
                return Err(CheckpointError::Corrupt(
                    "count-group ring does not cover its members' windows",
                ));
            }
            // distinct same-`(s, predicate)` groups always sit at
            // distinct offsets (mod s), i.e. distinct fills — a
            // collision means one geometry class was split, which the
            // hub never produces
            if count_groups[..i].iter().any(|other| {
                other.producer.slide_duration() == sd
                    && other.predicate == state.predicate
                    && other.fill() == fill
            }) {
                return Err(CheckpointError::Corrupt(
                    "count groups share a geometry class",
                ));
            }
        }
        Ok(RegistryParts {
            sessions,
            groups,
            count_groups,
            digest_hits,
            digest_rebuilds,
            count_group_hits,
            count_group_rebuilds,
            admitted,
            pruned,
        })
    }
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

/// Whether a stored session needs service on every publish or watermark
/// call — the membership rule of [`Registry::solo`]. Isolated sessions
/// own their engines, and a solo shared member (warming up, or promoted
/// after a mid-stream join) applies its group's digests itself; grouped
/// and classed shared members are served by their class at a close.
fn needs_call<C: SlidingTopK, T: TimedTopK>(session: &AnySession<C, T>) -> bool {
    match session {
        AnySession::Count(_) | AnySession::Timed(_) => true,
        AnySession::Shared(s) => !s.is_classed(),
        AnySession::Grouped(_) => false,
    }
}

/// Canonical byte signature of a consumer's replayable state — the same
/// bytes `encode_checkpoint` would write for it. Two consumers with
/// equal spec, slide progress, and signature provably compute identical
/// futures, which is what lets installation pool restored or migrated
/// members back into result classes (and drop the duplicate consumer
/// losslessly) without the checkpoint carrying any class structure.
fn consumer_sig<C: SlidingTopK>(consumer: &SharedTimed<C>) -> Vec<u8> {
    let mut enc = Encoder::new();
    consumer.encode_state(&mut enc);
    enc.into_payload()
}

impl<C: SlidingTopK, T: TimedTopK> Registry<C, T> {
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

    /// Appends a freshly registered session — ids are handed out
    /// monotonically, so appending keeps the store in ascending-id order
    /// — and lists it for per-call service if it needs it.
    fn push_session(&mut self, id: QueryId, session: AnySession<C, T>) {
        debug_assert!(
            self.sessions.last().is_none_or(|(last, _)| *last < id),
            "registration ids ascend"
        );
        if needs_call(&session) {
            self.solo.push(self.sessions.len());
        }
        self.sessions.push((id, session));
    }

    /// Recomputes the per-call list from the store — the bulk paths'
    /// bookkeeping, after a mutation that already cost O(store).
    fn rebuild_solo(&mut self) {
        self.solo.clear();
        self.solo.extend(
            self.sessions
                .iter()
                .enumerate()
                .filter(|(_, (_, session))| needs_call(session))
                .map(|(i, _)| i),
        );
    }

    /// Merges id-ascending `incoming` sessions into the id-ascending store
    /// in one pass — the stable sort finds the two sorted runs and merges
    /// them, O(store) whatever the member count, where inserting one at a
    /// time is O(members × store) — and recomputes the per-call list.
    fn merge_sessions(&mut self, incoming: Vec<(QueryId, AnySession<C, T>)>) {
        self.sessions.extend(incoming);
        self.sessions.sort_by_key(|(id, _)| *id);
        self.rebuild_solo();
    }

    /// Removes every session `is_member` selects in one pass, handing them
    /// back in ascending-id order, and recomputes the per-call list.
    fn extract_sessions(
        &mut self,
        mut is_member: impl FnMut(&AnySession<C, T>) -> bool,
    ) -> Vec<(QueryId, AnySession<C, T>)> {
        let members = self
            .sessions
            .extract_if(.., |(_, session)| is_member(session))
            .collect();
        self.rebuild_solo();
        members
    }

    /// Store position of `id`, by binary search of the id-ordered store.
    fn position(&self, id: QueryId) -> Option<usize> {
        self.sessions.binary_search_by_key(&id, |(q, _)| *q).ok()
    }

    /// Registers a validated member under `id` on its plane.
    ///
    /// `home` is the shard the hub routed this registration to (`None`
    /// from the sequential hub). It must be the shard that owns this
    /// registry: a group's members all live on the group's home shard —
    /// the invariant that makes per-shard group counts sum exactly in
    /// [`HubStats::merge`] and lets a group share one producer without
    /// cross-thread coordination.
    pub(crate) fn register(&mut self, id: QueryId, member: Member<C, T>, home: Option<usize>) {
        debug_assert_eq!(
            home, self.shard,
            "routing bug: a group's members must all land on its home shard"
        );
        match member {
            Member::Count(alg) => self.push_session(id, AnySession::Count(Session::new(alg))),
            Member::Timed(engine) => {
                self.push_session(id, AnySession::Timed(TimedSession::new(engine)))
            }
            Member::Shared(consumer, predicate) => self.register_shared(id, consumer, predicate),
            Member::Grouped(consumer, spec, predicate) => {
                self.register_grouped(id, consumer, spec, predicate)
            }
        }
    }

    /// Registers a count-group member, joining (or founding) the count
    /// group for its geometry class. The join rule (see the
    /// [module docs](self)): join the group with this slide length whose
    /// open slide is **empty** — the member then starts exactly on a
    /// slide boundary, in step with the group, no warm-up needed — and
    /// found a fresh group at the current stream offset otherwise. At
    /// most one group per `s` can have an empty open slide, so the scan
    /// is deterministic.
    fn register_grouped(
        &mut self,
        id: QueryId,
        consumer: SharedTimed<C>,
        spec: WindowSpec,
        predicate: Predicate,
    ) {
        // the join rule tests the *observed* fill, not `pending_len` —
        // under admission control a group at a slide boundary may still
        // buffer nothing mid-slide, and joining such a group would skew
        // the member's window. Predicate-disjoint members of one
        // geometry class split into sub-groups: they rank different
        // substreams, so they can never share a digest.
        let joinable = self
            .count_groups
            .iter_mut()
            .find(|(_, g)| g.slide_len == spec.s && g.fill() == 0 && g.predicate == predicate);
        let (gid, join_slide) = match joinable {
            Some((gid, group)) => {
                group.producer.grow_k_max(spec.k);
                // deepening mid-stream is exact (the open slide is held
                // untruncated), but the gate's cap just grew: rebuild it
                // from the admitted buffer so it never over-prunes
                group
                    .gate
                    .rebuild(group.producer.k_max(), group.producer.pending());
                group.ring_cap = group.ring_cap.max(spec.n + spec.s);
                // ids are handed out monotonically, so pushing keeps the
                // member list ascending
                group.member_ids.push(id);
                (*gid, group.producer.next_slide())
            }
            None => {
                let gid = self.next_count_gid;
                self.next_count_gid += 1;
                self.count_groups.insert(
                    gid,
                    CountGroup {
                        slide_len: spec.s,
                        producer: DigestProducer::new(spec.s as u64, spec.k),
                        ring: VecDeque::new(),
                        ring_base: 0,
                        ring_cap: spec.n + spec.s,
                        member_ids: vec![id],
                        next_ordinal: 0,
                        predicate,
                        gate: PruneGate::new(spec.k),
                        classes: Vec::new(),
                    },
                );
                (gid, 0)
            }
        };
        // the member's result class: with pooling on, join the group's
        // class with the exact `(n, k, join_slide)` key — matching keys
        // mean the class is still at its (open) join slide, so the
        // incoming fresh consumer is a byte-for-byte duplicate of the
        // class's and dropping it is lossless. Otherwise found a new
        // class around the consumer (pooling off founds only — uniform
        // solo classes are the pre-memoization serving shape).
        let engine_name: Box<str> = consumer.name().into();
        let group = self
            .count_groups
            .get_mut(&gid)
            .expect("the member's group was just joined or founded");
        let joined = self.class_sharing
            && match group
                .classes
                .iter_mut()
                .find(|c| c.n == spec.n && c.k == spec.k && c.join_slide == join_slide)
            {
                Some(class) => {
                    debug_assert_eq!(
                        class.consumer.slides_applied(),
                        0,
                        "a joinable class is at its still-open join slide"
                    );
                    // ids are monotonic: pushing keeps members ascending
                    class.members.push(id);
                    true
                }
                None => false,
            };
        if !joined {
            group.classes.push(CountClass::new(
                spec,
                join_slide,
                consumer,
                id,
                Snapshot::empty(),
            ));
        }
        self.push_session(
            id,
            AnySession::Grouped(GroupedSession::new(engine_name, spec, join_slide, gid)),
        );
    }

    /// Registers a digest consumer, joining (or founding) the slide group
    /// for its `slide_duration`. The group's digest depth grows to cover
    /// the new member's `k`; a member joining a group that has already
    /// ingested stream starts in warm-up (see the [module docs](self)).
    fn register_shared(&mut self, id: QueryId, consumer: SharedTimed<C>, predicate: Predicate) {
        let sd = consumer.slide_duration();
        let k = consumer.k();
        let group = self
            .groups
            .entry((sd, predicate))
            .or_insert_with(|| DigestGroup {
                producer: DigestProducer::new(sd, k),
                members: 0,
                predicate,
                gate: PruneGate::new(k),
                classes: Vec::new(),
            });
        group.producer.grow_k_max(k);
        // a deeper member may have just widened the gate's cap — rebuild
        // from the admitted open-slide buffer so pruning stays safe
        group
            .gate
            .rebuild(group.producer.k_max(), group.producer.pending());
        group.members += 1;
        let join_slide = if group.producer.is_pristine() {
            None
        } else {
            Some(group.producer.next_slide())
        };
        // pristine joiners with one `(wd, k)` provably compute
        // byte-identical slides — everything they will ever see starts
        // now — so pooling collapses them into one result class (whose
        // consumer, in a pristine group, has seen nothing either, making
        // the duplicate consumer droppable). Mid-stream joiners warm up
        // solo and stay solo after promotion: their class membership is
        // not provable while their partial join slide is in the window.
        let session = if join_slide.is_none() && self.class_sharing {
            let spec = TimedSpec {
                window_duration: consumer.window_duration(),
                slide_duration: sd,
                k,
            };
            let engine_name: Box<str> = consumer.name().into();
            match group
                .classes
                .iter_mut()
                .find(|c| c.wd == spec.window_duration && c.k == k)
            {
                Some(class) => {
                    debug_assert_eq!(
                        class.consumer.slides_applied(),
                        0,
                        "a pristine group's classes have seen nothing"
                    );
                    // ids are monotonic: pushing keeps members ascending
                    class.members.push(id);
                }
                None => group
                    .classes
                    .push(SharedClass::new(consumer, id, Snapshot::empty())),
            }
            SharedSession::new_classed(spec, engine_name, predicate)
        } else {
            SharedSession::new(consumer, join_slide, predicate)
        };
        self.push_session(id, AnySession::Shared(session));
    }

    /// Removes a query, handing its session back; `None` for unknown ids.
    /// A shared session leaves its group; the last member out drops the
    /// group entirely (so a later registrant founds a fresh, pristine
    /// one), and a departing deepest member shrinks the group's digest
    /// depth back to the remaining members' maximum `k` — exact even
    /// mid-slide, for the same reason `k_max` growth is.
    ///
    /// A **classed** member also leaves its result class: the last one
    /// out takes the class's consumer with it (so the returned session
    /// carries its full engine state, like before result classes), while
    /// an earlier leaver hands its share back and is returned without a
    /// consumer — engines are not `Clone`, and the state keeps serving
    /// the members staying behind.
    pub(crate) fn unregister(&mut self, id: QueryId) -> Option<AnySession<C, T>> {
        let pos = self.position(id)?;
        let (_, mut session) = self.sessions.remove(pos);
        // drop `pos` from the per-call list; later entries shift down
        let from = self.solo.partition_point(|&i| i < pos);
        if self.solo.get(from) == Some(&pos) {
            self.solo.remove(from);
        }
        for i in &mut self.solo[from..] {
            *i -= 1;
        }
        match &mut session {
            AnySession::Count(_) | AnySession::Timed(_) => {}
            AnySession::Shared(s) => {
                let key = (s.slide_duration(), s.predicate());
                if let Some(group) = self.groups.get_mut(&key) {
                    if s.is_classed() {
                        let ci = group
                            .classes
                            .iter()
                            .position(|c| c.members.contains(&id))
                            .expect("a classed member's group holds its class");
                        let class = &mut group.classes[ci];
                        let mi = class
                            .members
                            .iter()
                            .position(|m| *m == id)
                            .expect("the class holds its member");
                        class.members.remove(mi);
                        if class.members.is_empty() {
                            let class = group.classes.remove(ci);
                            s.adopt_consumer(class.consumer);
                        }
                    }
                    group.members -= 1;
                    if group.members == 0 {
                        self.groups.remove(&key);
                    } else if s.timed_spec().k >= group.producer.k_max() {
                        // the survivors are the group's classes plus its
                        // solo members, all of which are on the list
                        let solo_k = self.solo.iter().filter_map(|&i| match &self.sessions[i].1 {
                            AnySession::Shared(m)
                                if m.slide_duration() == key.0 && m.predicate() == key.1 =>
                            {
                                Some(m.timed_spec().k)
                            }
                            _ => None,
                        });
                        let k_max = group
                            .classes
                            .iter()
                            .map(|c| c.k)
                            .chain(solo_k)
                            .max()
                            .expect("a surviving group has members");
                        group.producer.set_k_max(k_max);
                        // a narrower cap prunes *more*: rebuild so the
                        // gate reflects exactly the new depth
                        group.gate.rebuild(k_max, group.producer.pending());
                    }
                }
            }
            AnySession::Grouped(g) => {
                let gid = g.group();
                if let Some(group) = self.count_groups.get_mut(&gid) {
                    if let Some(p) = group.member_ids.iter().position(|m| *m == id) {
                        group.member_ids.remove(p);
                    }
                    // same class-leave rule as the shared plane
                    if let Some(ci) = group.classes.iter().position(|c| c.members.contains(&id)) {
                        let class = &mut group.classes[ci];
                        let mi = class
                            .members
                            .iter()
                            .position(|m| *m == id)
                            .expect("the class holds its member");
                        class.members.remove(mi);
                        if class.members.is_empty() {
                            let class = group.classes.remove(ci);
                            g.adopt_consumer(class.consumer);
                        }
                    }
                    if group.member_ids.is_empty() {
                        self.count_groups.remove(&gid);
                    } else {
                        // recompute the survivors' depth and retention —
                        // exact even mid-slide, the open slide is held
                        // untruncated and the ring trims lazily. Classes
                        // partition the members, so they carry both maxima.
                        let (mut k_max, mut n_max) = (0usize, 0usize);
                        for class in &group.classes {
                            k_max = k_max.max(class.k);
                            n_max = n_max.max(class.n);
                        }
                        group.producer.set_k_max(k_max);
                        group.gate.rebuild(k_max, group.producer.pending());
                        group.ring_cap = n_max + group.slide_len;
                    }
                }
            }
        }
        Some(session)
    }

    /// Fans an untimed batch out to every count-based session. Time-based
    /// sessions (isolated and shared) carry no event time here and do not
    /// advance.
    ///
    /// The empty fast path (no sessions, or an empty batch) returns
    /// without touching the heap, and sessions emit their completed
    /// slides straight into tagged updates through the sink closure —
    /// each result moves once, and the returned `Vec` is the only
    /// per-call allocation, pre-sized from the retained hint and skipped
    /// entirely when no slide completed.
    pub(crate) fn publish(&mut self, objects: &[Object]) -> Vec<QueryUpdate> {
        if self.sessions.is_empty() || objects.is_empty() {
            return Vec::new();
        }
        let Registry {
            sessions,
            solo,
            count_groups,
            count_group_hits,
            class_hits,
            count_group_rebuilds,
            admitted,
            pruned,
            admission_pruning,
            update_hint,
            ..
        } = self;
        let mut out = Vec::new();
        let hint = *update_hint;
        // only isolated count sessions consume an untimed batch directly;
        // grouped members are served per group, below
        for &i in solo.iter() {
            let (id, session) = &mut sessions[i];
            if let AnySession::Count(session) = session {
                session.push_each(objects, &mut tagged_sink(&mut out, hint, *id));
            }
        }
        *count_group_rebuilds += out.len() as u64;
        let walked = out.len();
        Self::serve_count_groups(
            sessions,
            count_groups,
            count_group_hits,
            class_hits,
            admitted,
            pruned,
            *admission_pruning,
            objects,
            &mut out,
            hint,
        );
        if out.len() > walked {
            // group serving appends per group, not per registered query;
            // (QueryId, slide) keys are unique and each session's slides
            // ascend, so this sort IS registration-order delivery
            out.sort_unstable_by_key(|u| (u.query, u.result.slide));
        }
        note_update_hint(update_hint, out.len());
        out
    }

    /// Fans an untimed batch out to every count group: each group
    /// ingests the batch **once** (one ring push + one pending push per
    /// object), and a filling slide is truncated once at `k_max` and
    /// served to the members — immediately, inside the close, so the
    /// translation ring still covers everything the emission references
    /// even when one batch spans many slides. Per-object cost is
    /// O(count groups), not O(grouped queries); the member fan-out is
    /// per *slide*, and within it the reduction + ordinal translation +
    /// diff run once per **result class** ([`CountClass::close`]) — each
    /// member emission is just a stamp of the class's shared snapshot
    /// ([`GroupedSession::emit_class`]).
    #[allow(clippy::too_many_arguments)]
    fn serve_count_groups(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        count_groups: &mut HashMap<u64, CountGroup<C>>,
        hits: &mut u64,
        class_hits: &mut u64,
        admitted: &mut u64,
        pruned: &mut u64,
        pruning: bool,
        objects: &[Object],
        out: &mut Vec<QueryUpdate>,
        hint: usize,
    ) {
        for group in count_groups.values_mut() {
            let CountGroup {
                slide_len,
                producer,
                ring,
                ring_base,
                ring_cap,
                member_ids,
                next_ordinal,
                predicate,
                gate,
                classes,
            } = group;
            for o in objects {
                let r = *next_ordinal;
                *next_ordinal += 1;
                // every observed object enters the ring and advances the
                // fill, admitted or not — ordinals stay dense, so slide
                // boundaries, checkpoints, and drain order are
                // byte-identical whatever the admission plane skips
                ring.push_back(o.id);
                if ring.len() > *ring_cap {
                    ring.pop_front();
                    *ring_base += 1;
                }
                if predicate.accepts(o) {
                    if pruning && !gate.admits(o.score) {
                        // ≥ k_max admitted objects of this open slide
                        // strictly dominate it — it cannot survive the
                        // close's top-`k_max` truncation, so no member
                        // can ever observe it
                        *pruned += 1;
                    } else {
                        // the ordinal doubles as the synthetic
                        // timestamp; it never reaches the open slide's
                        // end (r < (j+1)·s for an object of slide j), so
                        // closure is always explicit below
                        producer.ingest_with(TimedObject::new(r, r, o.score), &mut |_| {
                            debug_assert!(
                                false,
                                "count slides close on arrival counts, never on ordinal timestamps"
                            );
                        });
                        *admitted += 1;
                        if pruning {
                            gate.offer(o.score);
                        }
                    }
                }
                if (*next_ordinal - producer.next_slide() * *slide_len as u64) == *slide_len as u64
                {
                    producer.close_slide_with(|view| {
                        for class in classes.iter_mut() {
                            let snapshot = class.close(view, ring, *ring_base);
                            for &member in &class.members {
                                let idx = sessions
                                    .binary_search_by_key(&member, |(id, _)| *id)
                                    .expect("count-group member ids name registered sessions");
                                let (id, session) = &mut sessions[idx];
                                let AnySession::Grouped(session) = session else {
                                    unreachable!("count-group member ids name grouped sessions")
                                };
                                let mut sink = tagged_sink(out, hint, *id);
                                session.emit_class(&snapshot, &class.events, &mut sink);
                            }
                        }
                    });
                    // the gate's dominance counter is per open slide;
                    // the close opened a fresh one
                    gate.reset();
                    *hits += member_ids.len() as u64;
                    // classes partition the members, so the members past
                    // one-per-class were served without a reduction
                    *class_hits += (member_ids.len() - classes.len()) as u64;
                }
            }
        }
    }

    /// Fans a timed batch out to every session: each slide group ingests
    /// the batch **once**, then the per-call list is walked in
    /// registration order — isolated count sessions see the untimed view,
    /// isolated timed sessions consume the raw batch, solo shared members
    /// apply their group's closed digests (or, during warm-up, their
    /// private view). Classed and grouped members are served per class,
    /// only by groups that closed a slide.
    pub(crate) fn publish_timed(&mut self, objects: &[TimedObject]) -> Vec<QueryUpdate> {
        if self.sessions.is_empty() || objects.is_empty() {
            return Vec::new();
        }
        let Registry {
            sessions,
            solo,
            groups,
            count_groups,
            digest_hits,
            digest_rebuilds,
            count_group_hits,
            count_group_rebuilds,
            admitted,
            pruned,
            admission_pruning,
            class_hits,
            plain_buf,
            update_hint,
            ..
        } = self;
        // strip the timestamps once, not once per count-based session —
        // into the pooled buffer, so steady-state publishes reuse its
        // capacity instead of allocating a fresh Vec per call
        plain_buf.clear();
        if !count_groups.is_empty()
            || solo
                .iter()
                .any(|&i| matches!(sessions[i].1, AnySession::Count(_)))
        {
            plain_buf.extend(objects.iter().map(TimedObject::untimed));
        }
        let closed = Self::ingest_groups(groups, objects, *admission_pruning, admitted, pruned);
        let mut out = Vec::new();
        let hint = *update_hint;
        for &i in solo.iter() {
            let (id, session) = &mut sessions[i];
            match session {
                AnySession::Count(session) => {
                    let before = out.len();
                    session.push_each(plain_buf, &mut tagged_sink(&mut out, hint, *id));
                    *count_group_rebuilds += (out.len() - before) as u64;
                }
                AnySession::Timed(session) => {
                    session.push_timed_each(objects, &mut tagged_sink(&mut out, hint, *id))
                }
                AnySession::Shared(session) => Self::serve_shared(
                    digest_hits,
                    digest_rebuilds,
                    session,
                    &closed,
                    &mut tagged_sink(&mut out, hint, *id),
                    |s, f| s.push_warmup(objects, f),
                ),
                AnySession::Grouped(_) => unreachable!("grouped members are never listed"),
            }
        }
        let walked = out.len();
        Self::serve_shared_classes(
            sessions,
            groups,
            &closed,
            digest_hits,
            class_hits,
            &mut out,
            hint,
        );
        Self::serve_count_groups(
            sessions,
            count_groups,
            count_group_hits,
            class_hits,
            admitted,
            pruned,
            *admission_pruning,
            plain_buf,
            &mut out,
            hint,
        );
        if out.len() > walked {
            // same argument as `publish`: (QueryId, slide) keys are
            // unique and ascend per session, so sorting the appended
            // class and group output back in IS registration-order
            // delivery
            out.sort_unstable_by_key(|u| (u.query, u.result.slide));
        }
        note_update_hint(update_hint, out.len());
        Self::promote_ready(sessions, solo, groups);
        out
    }

    /// Raises the event-time watermark on every time-based session —
    /// groups advance once, members consume the closed digests, isolated
    /// sessions advance privately. Count-based sessions are untouched.
    pub(crate) fn advance_time(&mut self, watermark: u64) -> Vec<QueryUpdate> {
        if self.sessions.is_empty() {
            return Vec::new();
        }
        let Registry {
            sessions,
            solo,
            groups,
            digest_hits,
            digest_rebuilds,
            class_hits,
            update_hint,
            ..
        } = self;
        let closed = Self::close_groups(groups, |producer| producer.advance_to(watermark));
        let mut out = Vec::new();
        let hint = *update_hint;
        for &i in solo.iter() {
            let (id, session) = &mut sessions[i];
            let mut sink = tagged_sink(&mut out, hint, *id);
            match session {
                AnySession::Count(_) => continue,
                AnySession::Timed(session) => session.advance_watermark_each(watermark, &mut sink),
                AnySession::Shared(session) => Self::serve_shared(
                    digest_hits,
                    digest_rebuilds,
                    session,
                    &closed,
                    &mut sink,
                    |s, f| s.advance_warmup(watermark, f),
                ),
                AnySession::Grouped(_) => unreachable!("grouped members are never listed"),
            }
        }
        let walked = out.len();
        Self::serve_shared_classes(
            sessions,
            groups,
            &closed,
            digest_hits,
            class_hits,
            &mut out,
            hint,
        );
        if out.len() > walked {
            // class serving appends per class, not per registered query;
            // sorting restores registration-order delivery (same
            // uniqueness argument as `publish`)
            out.sort_unstable_by_key(|u| (u.query, u.result.slide));
        }
        note_update_hint(update_hint, out.len());
        Self::promote_ready(sessions, solo, groups);
        out
    }

    /// Drives every group's producer once per call (`drive` is the
    /// watermark step) and collects the slides each group closed, keyed
    /// by `(slide duration, predicate)`. Any close opens a fresh slide,
    /// so the group's dominance gate resets.
    fn close_groups(
        groups: &mut HashMap<(u64, Predicate), DigestGroup<C>>,
        mut drive: impl FnMut(&mut DigestProducer) -> Vec<DigestRef>,
    ) -> HashMap<(u64, Predicate), Vec<DigestRef>> {
        let mut closed = HashMap::new();
        for (key, group) in groups {
            let digests = drive(&mut group.producer);
            if !digests.is_empty() {
                group.gate.reset();
                closed.insert(*key, digests);
            }
        }
        closed
    }

    /// The admission plane's ingest: fans a timed batch to every slide
    /// group, filtering each object **before** it touches the group's
    /// producer. Per object and group: event time advances first
    /// (predicate-rejected and dominance-pruned objects still close
    /// slides — boundaries never depend on admission), then the
    /// predicate gates fan-out, then the k-skyband dominance gate prunes
    /// objects that provably cannot survive the open slide's top-`k_max`
    /// truncation. Returns the closed digests, like
    /// [`close_groups`](Registry::close_groups).
    fn ingest_groups(
        groups: &mut HashMap<(u64, Predicate), DigestGroup<C>>,
        objects: &[TimedObject],
        pruning: bool,
        admitted: &mut u64,
        pruned: &mut u64,
    ) -> HashMap<(u64, Predicate), Vec<DigestRef>> {
        let mut closed = HashMap::new();
        for (key, group) in groups {
            let mut digests: Vec<DigestRef> = Vec::new();
            for &o in objects {
                // advance before testing: if this timestamp closes the
                // open slide, the gate must judge the object against the
                // *fresh* slide it actually lands in
                let before = digests.len();
                digests.extend(group.producer.advance_to(o.timestamp));
                if digests.len() > before {
                    group.gate.reset();
                }
                if !group.predicate.accepts_timed(&o) {
                    continue;
                }
                if pruning && !group.gate.admits(o.score) {
                    *pruned += 1;
                    continue;
                }
                // the producer is already at `o.timestamp`, so this
                // ingest can close nothing — it only buffers
                group.producer.ingest_with(o, &mut |_| {
                    debug_assert!(false, "ingest after advance_to cannot close a slide")
                });
                *admitted += 1;
                if pruning {
                    group.gate.offer(o.score);
                }
            }
            if !digests.is_empty() {
                closed.insert(*key, digests);
            }
        }
        closed
    }

    /// Serves one shared session its slides for this call, emitting them
    /// through the caller's sink: the private warm-up view (counted as
    /// rebuilds) while it is catching up, its group's closed digests
    /// (counted as hits) once promoted. One copy of the hit/rebuild
    /// accounting for both the publish and the watermark path, so
    /// `HubStats` can never drift between them.
    fn serve_shared(
        hits: &mut u64,
        rebuilds: &mut u64,
        session: &mut SharedSession<C>,
        closed: &HashMap<(u64, Predicate), Vec<DigestRef>>,
        sink: &mut dyn FnMut(SlideResult),
        warmup: impl FnOnce(&mut SharedSession<C>, &mut dyn FnMut(SlideResult)),
    ) {
        if session.is_warming_up() {
            let mut served = 0u64;
            warmup(session, &mut |result| {
                served += 1;
                sink(result);
            });
            *rebuilds += served;
        } else if let Some(digests) = closed.get(&(session.slide_duration(), session.predicate())) {
            *hits += digests.len() as u64;
            session.apply_digests(digests, sink);
        }
    }

    /// Serves every slide group's result classes their closed digests:
    /// one reduction + one diff per class per digest
    /// ([`SharedClass::close`]), then each member stamps the class's
    /// shared snapshot ([`SharedSession::emit_class`]). Output is
    /// appended per class, after the session walk — callers re-sort by
    /// `(query, slide)` when anything landed here.
    fn serve_shared_classes(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        groups: &mut HashMap<(u64, Predicate), DigestGroup<C>>,
        closed: &HashMap<(u64, Predicate), Vec<DigestRef>>,
        hits: &mut u64,
        class_hits: &mut u64,
        out: &mut Vec<QueryUpdate>,
        hint: usize,
    ) {
        for (key, group) in groups.iter_mut() {
            let Some(digests) = closed.get(key) else {
                continue;
            };
            for class in group.classes.iter_mut() {
                for digest in digests {
                    let snapshot = class.close(digest);
                    for &member in &class.members {
                        let idx = sessions
                            .binary_search_by_key(&member, |(id, _)| *id)
                            .expect("class member ids name registered sessions");
                        let (id, session) = &mut sessions[idx];
                        let AnySession::Shared(session) = session else {
                            unreachable!("slide-group class members are shared sessions")
                        };
                        let mut sink = tagged_sink(out, hint, *id);
                        session.emit_class(&snapshot, &class.events, &mut sink);
                    }
                }
                // every member-slide here came from the shared digest
                // plane (hits), and all but one-per-class also skipped
                // the reduction (class_hits)
                *hits += (digests.len() * class.members.len()) as u64;
                *class_hits += (digests.len() * (class.members.len() - 1)) as u64;
            }
        }
    }

    /// Promotes every warm-up member whose group has closed the slide it
    /// joined during: both producers processed the same timestamps, so
    /// from the next slide on the private and shared views are identical.
    /// Warming members are solo, so they are all on the per-call list, and
    /// only they pay a group lookup. A promoted member stays solo (see the
    /// module docs on result classes), so the list is unchanged.
    fn promote_ready(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        solo: &[usize],
        groups: &HashMap<(u64, Predicate), DigestGroup<C>>,
    ) {
        for &i in solo {
            if let AnySession::Shared(s) = &mut sessions[i].1 {
                if !s.is_warming_up() {
                    continue;
                }
                if let Some(group) = groups.get(&(s.slide_duration(), s.predicate())) {
                    s.maybe_promote(group.producer.next_slide());
                }
            }
        }
    }

    pub(crate) fn session(&self, id: QueryId) -> Option<&AnySession<C, T>> {
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
        GroupKeys {
            digest: self.groups.keys().copied().collect(),
            count: self
                .count_groups
                .values()
                .map(|g| (g.slide_len as u64, g.fill(), g.predicate))
                .collect(),
        }
    }

    /// Enables/disables pooling of view-equivalent members into result
    /// classes at registration (see [`HubStats::class_hits`]). Existing
    /// classes are untouched, and traveling members (restore, migration)
    /// re-class regardless — a consumer-less follower cannot serve
    /// without its class.
    pub(crate) fn set_class_sharing(&mut self, enabled: bool) {
        self.class_sharing = enabled;
    }

    /// Enables/disables the k-skyband dominance gate at ingest (see
    /// [`HubStats::pruned`]). Enabling rebuilds every group's gate from
    /// its open slide's admitted buffer — the gates go stale while the
    /// knob is off (nothing offers scores to them), and pruning against
    /// a stale gate would be unsound after a re-enable mid-slide.
    pub(crate) fn set_admission_pruning(&mut self, enabled: bool) {
        if enabled && !self.admission_pruning {
            for group in self.groups.values_mut() {
                group
                    .gate
                    .rebuild(group.producer.k_max(), group.producer.pending());
            }
            for group in self.count_groups.values_mut() {
                group
                    .gate
                    .rebuild(group.producer.k_max(), group.producer.pending());
            }
        }
        self.admission_pruning = enabled;
    }

    pub(crate) fn stats(&self) -> HubStats {
        let result_classes = self
            .groups
            .values()
            .map(|g| g.classes.len() as u64)
            .chain(self.count_groups.values().map(|g| g.classes.len() as u64))
            .sum();
        let mut stats = HubStats {
            queries: self.sessions.len(),
            digest_groups: self.groups.len() as u64,
            digest_hits: self.digest_hits,
            digest_rebuilds: self.digest_rebuilds,
            count_groups: self.count_groups.len() as u64,
            count_group_hits: self.count_group_hits,
            count_group_rebuilds: self.count_group_rebuilds,
            admitted: self.admitted,
            pruned: self.pruned,
            result_classes,
            class_hits: self.class_hits,
            ..HubStats::default()
        };
        for (_, session) in &self.sessions {
            match session {
                AnySession::Count(_) => stats.count_queries += 1,
                AnySession::Timed(_) => stats.timed_queries += 1,
                AnySession::Shared(_) => stats.shared_queries += 1,
                AnySession::Grouped(_) => stats.grouped_queries += 1,
            }
        }
        stats
    }

    // ---- durability plane -------------------------------------------------

    /// Serializes this registry's full serving state as one
    /// `tags::REGISTRY` section body: sessions in registration order
    /// (each with an engine-name + spec header and a replayable body),
    /// slide-group producers sorted by slide duration (so the encoding is
    /// deterministic regardless of `HashMap` iteration order), and the
    /// sharing counters.
    pub(crate) fn encode_checkpoint(&self, enc: &mut Encoder) {
        // canonical count-group order: live gids are registry-local and
        // shift across epochs, so grouped sessions reference their group
        // by position in this order instead. `(slide length, slide fill,
        // predicate)` is a unique key — distinct same-`(s, predicate)`
        // groups always sit at distinct offsets mod `s` — and is derived
        // purely from state the section carries, so encode and decode
        // agree by construction.
        let mut order: Vec<u64> = self.count_groups.keys().copied().collect();
        order.sort_unstable_by_key(|gid| {
            let g = &self.count_groups[gid];
            (g.slide_len, g.fill(), g.predicate)
        });
        let index_of: HashMap<u64, u64> = order
            .iter()
            .enumerate()
            .map(|(i, gid)| (*gid, i as u64))
            .collect();
        enc.section(tags::SESSIONS, |e| {
            e.put_u64(self.sessions.len() as u64);
            for (id, session) in &self.sessions {
                e.put_u64(id.raw());
                match session {
                    AnySession::Count(s) => {
                        e.put_u8(0);
                        e.put_str(s.algorithm().name());
                        let spec = s.spec();
                        e.put_usize(spec.n);
                        e.put_usize(spec.k);
                        e.put_usize(spec.s);
                        s.encode_checkpoint_body(e);
                    }
                    AnySession::Timed(s) => {
                        e.put_u8(1);
                        e.put_str(s.engine().name());
                        let spec = s.timed_spec();
                        e.put_u64(spec.window_duration);
                        e.put_u64(spec.slide_duration);
                        e.put_usize(spec.k);
                        s.encode_checkpoint_body(e);
                    }
                    AnySession::Shared(s) => {
                        e.put_u8(2);
                        e.put_str(s.engine_name());
                        let spec = s.timed_spec();
                        e.put_u64(spec.window_duration);
                        e.put_u64(spec.slide_duration);
                        e.put_usize(spec.k);
                        // the subscription predicate rides at the
                        // registry entry level (since v3), keeping the
                        // session body bytes themselves unchanged
                        s.predicate().encode(e);
                        // a classed member encodes its class's consumer —
                        // byte-identical to a private one (see
                        // `SharedSession::encode_checkpoint_body`)
                        let class_consumer = self
                            .groups
                            .get(&(spec.slide_duration, s.predicate()))
                            .and_then(|g| {
                                g.classes
                                    .iter()
                                    .find(|c| c.members.binary_search(id).is_ok())
                            })
                            .map(|c| &c.consumer);
                        s.encode_checkpoint_body(e, class_consumer);
                    }
                    AnySession::Grouped(s) => {
                        e.put_u8(3);
                        e.put_str(s.engine_name());
                        let spec = s.spec();
                        e.put_usize(spec.n);
                        e.put_usize(spec.k);
                        e.put_usize(spec.s);
                        let class_consumer = self
                            .count_groups
                            .get(&s.group())
                            .and_then(|g| {
                                g.classes
                                    .iter()
                                    .find(|c| c.members.binary_search(id).is_ok())
                            })
                            .map(|c| &c.consumer);
                        s.encode_checkpoint_body(e, class_consumer, index_of[&s.group()]);
                    }
                }
            }
        });
        enc.section(tags::GROUPS, |e| {
            let mut keys: Vec<(u64, Predicate)> = self.groups.keys().copied().collect();
            keys.sort_unstable();
            e.put_u64(keys.len() as u64);
            for key in keys {
                e.put_u64(key.0);
                key.1.encode(e);
                self.groups[&key].producer.encode_state(e);
            }
        });
        enc.section(tags::COUNT_GROUPS, |e| {
            e.put_u64(order.len() as u64);
            for gid in &order {
                let g = &self.count_groups[gid];
                g.predicate.encode(e);
                g.producer.encode_state(e);
                // explicit since v3: under admission control the fill is
                // not derivable from the producer's buffer
                e.put_u64(g.next_ordinal);
                e.put_u64(g.ring_base);
                e.put_u64(g.ring.len() as u64);
                for &ext in &g.ring {
                    e.put_u64(ext);
                }
            }
        });
        enc.section(tags::COUNTERS, |e| {
            e.put_u64(self.digest_hits);
            e.put_u64(self.digest_rebuilds);
            e.put_u64(self.count_group_hits);
            e.put_u64(self.count_group_rebuilds);
        });
        enc.section(tags::ADMISSION, |e| {
            e.put_u64(self.admitted);
            e.put_u64(self.pruned);
        });
    }

    /// Decodes one `tags::REGISTRY` section body into loose
    /// [`RegistryParts`], building each session's engine through the
    /// caller's closures (the count closure also serves shared sessions,
    /// whose inner engine runs on the Appendix-A reduced spec). Every
    /// structural violation is a typed error — never a panic.
    ///
    /// `version` is the image's format version (the caller reads it from
    /// the frame): v2 images predate the admission plane, so their
    /// groups decode with pass-all predicates, derived ordinals, and
    /// zeroed admission counters.
    pub(crate) fn decode_checkpoint(
        dec: &mut Decoder<'_>,
        version: u32,
        count: &mut dyn FnMut(&str, WindowSpec) -> Result<C, SapError>,
        timed: &mut dyn FnMut(&str, TimedSpec) -> Result<T, SapError>,
    ) -> Result<RegistryParts<C, T>, SapError> {
        let mut sessions = Vec::new();
        {
            let mut sec = dec.section(tags::SESSIONS)?;
            let n = sec.take_seq_len()?;
            for _ in 0..n {
                let id = QueryId::from_raw(sec.take_u64()?);
                let session = match sec.take_u8()? {
                    0 => {
                        let name = sec.take_str()?;
                        let (wn, wk, ws) =
                            (sec.take_usize()?, sec.take_usize()?, sec.take_usize()?);
                        let spec = WindowSpec::new(wn, wk, ws)
                            .map_err(|_| CheckpointError::Corrupt("invalid count window spec"))?;
                        if spec.n > crate::checkpoint::MAX_RESTORED_WINDOW {
                            return Err(CheckpointError::Corrupt(
                                "restored window implausibly large",
                            )
                            .into());
                        }
                        let engine = count(name, spec)?;
                        if engine.spec() != spec {
                            return Err(
                                CheckpointError::Corrupt("factory engine spec mismatch").into()
                            );
                        }
                        AnySession::Count(Session::decode_checkpoint_body(engine, &mut sec)?)
                    }
                    1 => {
                        let name = sec.take_str()?;
                        let (wd, sd, k) = (sec.take_u64()?, sec.take_u64()?, sec.take_usize()?);
                        let spec = TimedSpec::new(wd, sd, k)
                            .map_err(|_| CheckpointError::Corrupt("invalid timed window spec"))?;
                        let reduced = spec
                            .reduced()
                            .map_err(|_| CheckpointError::Corrupt("timed spec does not reduce"))?;
                        if reduced.n > crate::checkpoint::MAX_RESTORED_WINDOW {
                            return Err(CheckpointError::Corrupt(
                                "restored window implausibly large",
                            )
                            .into());
                        }
                        let engine = timed(name, spec)?;
                        if engine.window_duration() != wd
                            || engine.slide_duration() != sd
                            || engine.k() != k
                        {
                            return Err(
                                CheckpointError::Corrupt("factory engine spec mismatch").into()
                            );
                        }
                        AnySession::Timed(TimedSession::decode_checkpoint_body(engine, &mut sec)?)
                    }
                    2 => {
                        let name = sec.take_str()?;
                        let (wd, sd, k) = (sec.take_u64()?, sec.take_u64()?, sec.take_usize()?);
                        let predicate = if version >= 3 {
                            Predicate::decode(&mut sec)?
                        } else {
                            Predicate::default()
                        };
                        let reduced = TimedSpec::new(wd, sd, k)
                            .and_then(|spec| spec.reduced())
                            .map_err(|_| CheckpointError::Corrupt("invalid shared window spec"))?;
                        if reduced.n > crate::checkpoint::MAX_RESTORED_WINDOW {
                            return Err(CheckpointError::Corrupt(
                                "restored window implausibly large",
                            )
                            .into());
                        }
                        let engine = count(name, reduced)?;
                        let consumer = SharedTimed::from_engine(engine, wd, sd).map_err(|_| {
                            CheckpointError::Corrupt("factory engine is not a fresh reduction")
                        })?;
                        let mut session =
                            SharedSession::decode_checkpoint_body(consumer, &mut sec)?;
                        session.set_predicate(predicate);
                        AnySession::Shared(session)
                    }
                    3 => {
                        let name = sec.take_str()?;
                        let (wn, wk, ws) =
                            (sec.take_usize()?, sec.take_usize()?, sec.take_usize()?);
                        let spec = WindowSpec::new(wn, wk, ws)
                            .map_err(|_| CheckpointError::Corrupt("invalid count window spec"))?;
                        let reduced = TimedSpec::new(spec.n as u64, spec.s as u64, spec.k)
                            .and_then(|t| t.reduced())
                            .map_err(|_| CheckpointError::Corrupt("count spec does not reduce"))?;
                        // bound both: the reduced window exceeds the plain
                        // one whenever k > s
                        if spec.n > crate::checkpoint::MAX_RESTORED_WINDOW
                            || reduced.n > crate::checkpoint::MAX_RESTORED_WINDOW
                        {
                            return Err(CheckpointError::Corrupt(
                                "restored window implausibly large",
                            )
                            .into());
                        }
                        let engine = count(name, reduced)?;
                        let consumer =
                            SharedTimed::from_engine(engine, spec.n as u64, spec.s as u64)
                                .map_err(|_| {
                                    CheckpointError::Corrupt(
                                        "factory engine is not a fresh reduction",
                                    )
                                })?;
                        AnySession::Grouped(GroupedSession::decode_checkpoint_body(
                            consumer, spec, &mut sec,
                        )?)
                    }
                    _ => return Err(CheckpointError::Corrupt("unknown session kind").into()),
                };
                sessions.push((id, session));
            }
            sec.finish()?;
        }
        let mut groups = Vec::new();
        {
            let mut sec = dec.section(tags::GROUPS)?;
            let n = sec.take_seq_len()?;
            for _ in 0..n {
                let sd = sec.take_u64()?;
                let predicate = if version >= 3 {
                    Predicate::decode(&mut sec)?
                } else {
                    Predicate::default()
                };
                let producer = DigestProducer::decode_state(&mut sec)?;
                if producer.slide_duration() != sd {
                    return Err(
                        CheckpointError::Corrupt("group key disagrees with its producer").into(),
                    );
                }
                groups.push(((sd, predicate), producer));
            }
            sec.finish()?;
        }
        let mut count_groups = Vec::new();
        {
            let mut sec = dec.section(tags::COUNT_GROUPS)?;
            let n = sec.take_seq_len()?;
            for _ in 0..n {
                let predicate = if version >= 3 {
                    Predicate::decode(&mut sec)?
                } else {
                    Predicate::default()
                };
                let producer = DigestProducer::decode_state(&mut sec)?;
                let next_ordinal = if version >= 3 {
                    sec.take_u64()?
                } else {
                    // pre-admission images never skipped an object, so
                    // the ordinal is exactly the producer's position
                    producer
                        .next_slide()
                        .checked_mul(producer.slide_duration())
                        .and_then(|o| o.checked_add(producer.pending_len() as u64))
                        .ok_or(CheckpointError::Corrupt("count-group ordinal overflows"))?
                };
                let ring_base = sec.take_u64()?;
                let len = sec.take_seq_len()?;
                let mut ring = VecDeque::with_capacity(len);
                for _ in 0..len {
                    ring.push_back(sec.take_u64()?);
                }
                count_groups.push(CountGroupState {
                    producer,
                    ring,
                    ring_base,
                    predicate,
                    next_ordinal,
                });
            }
            sec.finish()?;
        }
        let (digest_hits, digest_rebuilds, count_group_hits, count_group_rebuilds);
        {
            let mut sec = dec.section(tags::COUNTERS)?;
            digest_hits = sec.take_u64()?;
            digest_rebuilds = sec.take_u64()?;
            count_group_hits = sec.take_u64()?;
            count_group_rebuilds = sec.take_u64()?;
            sec.finish()?;
        }
        // v2 images predate the admission plane: restore with the
        // counters reset rather than guessing
        let (mut admitted, mut pruned) = (0u64, 0u64);
        if version >= 3 {
            let mut sec = dec.section(tags::ADMISSION)?;
            admitted = sec.take_u64()?;
            pruned = sec.take_u64()?;
            sec.finish()?;
        }
        Ok(RegistryParts {
            sessions,
            groups,
            count_groups,
            digest_hits,
            digest_rebuilds,
            count_group_hits,
            count_group_rebuilds,
            admitted,
            pruned,
        })
    }

    /// Builds a registry from already-merged, already-validated parts —
    /// possibly several shards' worth, when a sharded checkpoint is
    /// restored into a sequential hub. Group member counts are
    /// recomputed from the shared sessions themselves.
    ///
    /// Result classes are **rebuilt** here rather than carried: grouped
    /// members re-class by their exact `(n, k, join_slide)` key, shared
    /// members by byte signature (equal spec, progress, previous
    /// emission, and encoded consumer state imply identical futures) —
    /// so a restored registry serves exactly like the one that wrote the
    /// checkpoint, without the checkpoint carrying any class structure.
    pub(crate) fn from_merged(parts: RegistryParts<C, T>, shard: Option<usize>) -> Self {
        let RegistryParts {
            mut sessions,
            groups: group_list,
            count_groups: count_group_list,
            digest_hits,
            digest_rebuilds,
            count_group_hits,
            count_group_rebuilds,
            admitted,
            pruned,
        } = parts;
        let mut groups: HashMap<(u64, Predicate), DigestGroup<C>> = group_list
            .into_iter()
            .map(|(key, producer)| {
                // the gate is derived state: rebuild it from the open
                // slide's admitted buffer so pruning resumes exactly
                let mut gate = PruneGate::new(producer.k_max());
                gate.rebuild(producer.k_max(), producer.pending());
                (
                    key,
                    DigestGroup {
                        producer,
                        members: 0,
                        predicate: key.1,
                        gate,
                        classes: Vec::new(),
                    },
                )
            })
            .collect();
        // canonical index = live gid: merge rebased every grouped
        // session's reference onto the concatenated list, so adopting
        // positions as ids keeps the references valid verbatim
        let mut count_groups: HashMap<u64, CountGroup<C>> = count_group_list
            .into_iter()
            .enumerate()
            .map(|(gid, state)| {
                let mut gate = PruneGate::new(state.producer.k_max());
                gate.rebuild(state.producer.k_max(), state.producer.pending());
                (
                    gid as u64,
                    CountGroup {
                        slide_len: state.producer.slide_duration() as usize,
                        producer: state.producer,
                        ring: state.ring,
                        ring_base: state.ring_base,
                        ring_cap: 0,
                        member_ids: Vec::new(),
                        next_ordinal: state.next_ordinal,
                        predicate: state.predicate,
                        gate,
                        classes: Vec::new(),
                    },
                )
            })
            .collect();
        let next_count_gid = count_groups.len() as u64;
        // the consumer-less travelers (ejected class followers), noted
        // *before* pass 1 — classing strips donors of their consumers,
        // leaving them indistinguishable from followers afterwards
        let followers: Vec<QueryId> = sessions
            .iter()
            .filter(|(_, session)| match session {
                AnySession::Shared(s) => s.is_classed(),
                AnySession::Grouped(g) => g.consumer().is_none(),
                _ => false,
            })
            .map(|(id, _)| *id)
            .collect();
        // pass 1 — membership, and classes founded (or joined) by the
        // members that carry a consumer, so the consumer-less followers
        // of pass 2 always find their class already standing
        for (id, session) in &mut sessions {
            match session {
                AnySession::Shared(s) => {
                    let group = groups
                        .get_mut(&(s.slide_duration(), s.predicate()))
                        .expect("merge validated every shared session has its group");
                    group.members += 1;
                    if s.consumer().is_some() && !s.is_warming_up() {
                        Self::class_shared_member(group, *id, s);
                    }
                }
                AnySession::Grouped(g) => {
                    let group = count_groups
                        .get_mut(&g.group())
                        .expect("merge validated every grouped session has its count group");
                    // sessions are in ascending-id order, so member lists
                    // come out ascending too
                    group.member_ids.push(*id);
                    group.ring_cap = group.ring_cap.max(g.spec().n + group.slide_len);
                    if g.consumer().is_some() {
                        Self::class_grouped_member(group, *id, g);
                    }
                }
                AnySession::Count(_) | AnySession::Timed(_) => {}
            }
        }
        // pass 2 — consumer-less travelers (ejected class followers)
        // rejoin the class their cohort re-founded in pass 1
        for (id, session) in &mut sessions {
            if followers.binary_search(id).is_err() {
                continue;
            }
            match session {
                AnySession::Shared(s) => {
                    let group = groups
                        .get_mut(&(s.slide_duration(), s.predicate()))
                        .expect("validated in pass 1");
                    Self::join_shared_follower(group, *id, s);
                }
                AnySession::Grouped(g) => {
                    let group = count_groups
                        .get_mut(&g.group())
                        .expect("validated in pass 1");
                    Self::join_grouped_follower(group, *id, g);
                }
                _ => unreachable!("only shared and grouped members travel consumer-less"),
            }
        }
        let mut registry = Registry {
            sessions,
            solo: Vec::new(),
            groups,
            count_groups,
            next_count_gid,
            digest_hits,
            digest_rebuilds,
            count_group_hits,
            count_group_rebuilds,
            admitted,
            pruned,
            admission_pruning: true,
            class_hits: 0,
            class_sharing: true,
            plain_buf: Vec::new(),
            update_hint: 0,
            shard,
        };
        registry.rebuild_solo();
        registry
    }

    /// Pools a consumer-carrying, non-warming shared member into its
    /// group's result classes: joins the class with an identical byte
    /// signature — equal `(wd, k)`, slide progress, previous emission,
    /// and encoded consumer state make its future emissions provably
    /// identical, so the member's duplicate consumer is dropped — and
    /// founds a new class around the consumer otherwise. Traveling-path
    /// only (restore, installation); live registration classes pristine
    /// joiners, which need no signature.
    fn class_shared_member(group: &mut DigestGroup<C>, id: QueryId, s: &mut SharedSession<C>) {
        debug_assert!(!s.is_warming_up(), "warming members serve solo");
        let spec = s.timed_spec();
        let consumer = s.take_consumer().expect("caller checked the consumer");
        let sig = consumer_sig(&consumer);
        let candidate = group.classes.iter_mut().find(|c| {
            c.wd == spec.window_duration
                && c.k == spec.k
                && c.consumer.slides_applied() == consumer.slides_applied()
                && c.prev.as_slice() == s.last_snapshot()
                && consumer_sig(&c.consumer) == sig
        });
        match candidate {
            Some(class) => {
                let pos = class.members.partition_point(|m| *m < id);
                class.members.insert(pos, id);
            }
            None => {
                let prev = s.last_snapshot_shared();
                group.classes.push(SharedClass::new(consumer, id, prev));
            }
        }
    }

    /// Pools a consumer-carrying grouped member into its count group's
    /// result classes by exact key — same-`(n, k, join_slide)` members
    /// are interchangeable (their state is a pure function of the
    /// group's stream and the key), so a join drops the duplicate
    /// consumer and a miss founds the class around it.
    fn class_grouped_member(group: &mut CountGroup<C>, id: QueryId, g: &mut GroupedSession<C>) {
        let spec = g.spec();
        let join_slide = g.join_slide();
        let consumer = g.take_consumer().expect("caller checked the consumer");
        let candidate = group
            .classes
            .iter_mut()
            .find(|c| c.n == spec.n && c.k == spec.k && c.join_slide == join_slide);
        match candidate {
            Some(class) => {
                let pos = class.members.partition_point(|m| *m < id);
                class.members.insert(pos, id);
            }
            None => {
                let prev = g.last_snapshot_shared();
                group
                    .classes
                    .push(CountClass::new(spec, join_slide, consumer, id, prev));
            }
        }
    }

    /// Rejoins an ejected shared follower (traveling without a consumer)
    /// to the class its representative carried. The representative — a
    /// class's lowest member id — always lands first, because sessions
    /// install in ascending-id order.
    fn join_shared_follower(group: &mut DigestGroup<C>, id: QueryId, s: &mut SharedSession<C>) {
        let rep = s
            .class_rep()
            .expect("a consumer-less shared traveler names its class representative");
        let class = group
            .classes
            .iter_mut()
            .find(|c| c.members.binary_search(&rep).is_ok())
            .expect("a class representative installs before its followers");
        let pos = class.members.partition_point(|m| *m < id);
        class.members.insert(pos, id);
        s.set_class_rep(None);
    }

    /// Rejoins an ejected grouped follower to a class with its exact
    /// key — same-key classes are interchangeable, so any match serves
    /// it byte-identically (which is why count followers, unlike shared
    /// ones, travel untagged).
    fn join_grouped_follower(group: &mut CountGroup<C>, id: QueryId, g: &GroupedSession<C>) {
        let key = (g.spec().n, g.spec().k, g.join_slide());
        let class = group
            .classes
            .iter_mut()
            .find(|c| (c.n, c.k, c.join_slide) == key)
            .expect("a traveling count group carries a consumer per class key");
        let pos = class.members.partition_point(|m| *m < id);
        class.members.insert(pos, id);
    }

    // ---- live migration ---------------------------------------------------

    /// Installs an **isolated** session that already carries live state
    /// (a checkpoint restore or a live migration), keeping the store in
    /// ascending-id order — so drain order is indistinguishable from a hub
    /// where the query had been registered here originally. Sharing-plane
    /// members travel with their group instead
    /// ([`install_group`](Registry::install_group),
    /// [`install_count_group`](Registry::install_count_group)).
    pub(crate) fn install(&mut self, id: QueryId, session: AnySession<C, T>) {
        debug_assert!(
            matches!(session, AnySession::Count(_) | AnySession::Timed(_)),
            "sharing-plane members travel with their group"
        );
        let pos = self.sessions.partition_point(|(have, _)| *have < id);
        self.sessions.insert(pos, (id, session));
        // an isolated session is always listed; later entries shift up
        let from = self.solo.partition_point(|&i| i < pos);
        for i in &mut self.solo[from..] {
            *i += 1;
        }
        self.solo.insert(from, pos);
    }

    /// Installs a slide group and its member sessions as one unit (the
    /// restore and migration paths — a slide group never travels without
    /// its members, mirroring
    /// [`install_count_group`](Registry::install_count_group)). Members
    /// arrive in ascending-id order and merge into the store in one pass.
    pub(crate) fn install_group(
        &mut self,
        key: (u64, Predicate),
        producer: DigestProducer,
        mut members: Vec<(QueryId, AnySession<C, T>)>,
    ) {
        debug_assert_eq!(producer.slide_duration(), key.0);
        debug_assert!(!members.is_empty(), "a slide group never travels empty");
        debug_assert!(
            members.windows(2).all(|w| w[0].0 < w[1].0),
            "members travel in ascending-id order"
        );
        let mut gate = PruneGate::new(producer.k_max());
        gate.rebuild(producer.k_max(), producer.pending());
        let mut group = DigestGroup {
            producer,
            members: members.len(),
            predicate: key.1,
            gate,
            classes: Vec::new(),
        };
        // re-class the travelers (see `from_merged`): consumer-less
        // followers rejoin their representative's class — the lowest id,
        // so it is classed first — and consumer carriers pool by byte
        // signature. The sharing flag is not consulted: a follower cannot
        // serve without a class.
        for (id, session) in &mut members {
            let AnySession::Shared(s) = session else {
                unreachable!("slide-group members are shared sessions")
            };
            debug_assert_eq!((s.slide_duration(), s.predicate()), key);
            if s.is_classed() {
                Self::join_shared_follower(&mut group, *id, s);
            } else if !s.is_warming_up() {
                Self::class_shared_member(&mut group, *id, s);
            }
        }
        let prev = self.groups.insert(key, group);
        debug_assert!(prev.is_none(), "installing over a live slide group");
        self.merge_sessions(members);
    }

    /// Adds restored sharing counters (a restore assigns the checkpoint's
    /// summed counters wholesale to one shard; a migration moves none).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn install_counters(
        &mut self,
        hits: u64,
        rebuilds: u64,
        count_hits: u64,
        count_rebuilds: u64,
        admitted: u64,
        pruned: u64,
    ) {
        self.digest_hits += hits;
        self.digest_rebuilds += rebuilds;
        self.count_group_hits += count_hits;
        self.count_group_rebuilds += count_rebuilds;
        self.admitted += admitted;
        self.pruned += pruned;
    }

    /// Installs a count group and its member sessions as one unit (the
    /// shard restore/resize path — a count group never travels without
    /// its members). The group gets a fresh local gid; members'
    /// references are rebound here, so whatever epoch they came from is
    /// irrelevant.
    pub(crate) fn install_count_group(
        &mut self,
        state: CountGroupState,
        mut members: Vec<(QueryId, AnySession<C, T>)>,
    ) {
        debug_assert!(!members.is_empty(), "a count group never travels empty");
        let gid = self.next_count_gid;
        self.next_count_gid += 1;
        let next_ordinal = state.next_ordinal;
        let slide_len = state.producer.slide_duration() as usize;
        let mut member_ids: Vec<QueryId> = members.iter().map(|(id, _)| *id).collect();
        member_ids.sort_unstable();
        let mut ring_cap = 0;
        for (_, session) in &members {
            if let AnySession::Grouped(g) = session {
                ring_cap = ring_cap.max(g.spec().n + slide_len);
            } else {
                debug_assert!(false, "count-group members are grouped sessions");
            }
        }
        let mut gate = PruneGate::new(state.producer.k_max());
        gate.rebuild(state.producer.k_max(), state.producer.pending());
        let mut group = CountGroup {
            slide_len,
            producer: state.producer,
            ring: state.ring,
            ring_base: state.ring_base,
            ring_cap,
            member_ids,
            next_ordinal,
            predicate: state.predicate,
            gate,
            classes: Vec::new(),
        };
        // rebuild the result classes (see `from_merged`): consumer
        // carriers found or join by exact key first, then consumer-less
        // followers rejoin any class with their key. The follower set is
        // noted *before* the classing pass — it strips donors of their
        // consumers, leaving them indistinguishable from followers
        let followers: Vec<QueryId> = members
            .iter()
            .filter(|(_, s)| matches!(s, AnySession::Grouped(g) if g.consumer().is_none()))
            .map(|(id, _)| *id)
            .collect();
        for (id, session) in &mut members {
            if let AnySession::Grouped(g) = session {
                if g.consumer().is_some() {
                    Self::class_grouped_member(&mut group, *id, g);
                }
            }
        }
        for (id, session) in &mut members {
            if let AnySession::Grouped(g) = session {
                if followers.contains(id) {
                    Self::join_grouped_follower(&mut group, *id, g);
                }
            }
        }
        self.count_groups.insert(gid, group);
        for (_, session) in &mut members {
            if let AnySession::Grouped(g) = session {
                g.set_group(gid);
            }
        }
        self.merge_sessions(members);
    }

    /// Dissolves a count group's result classes into its member sessions
    /// ahead of an ejection: each class's representative — its lowest
    /// member id — adopts the class consumer and carries it through the
    /// migration; followers travel consumer-less and rejoin by exact key
    /// at installation.
    fn dissolve_count_classes(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        group: &mut CountGroup<C>,
    ) {
        for class in group.classes.drain(..) {
            let rep = class.members[0];
            let idx = sessions
                .binary_search_by_key(&rep, |(id, _)| *id)
                .expect("class member ids name registered sessions");
            let AnySession::Grouped(g) = &mut sessions[idx].1 else {
                unreachable!("count-group class members are grouped sessions")
            };
            g.adopt_consumer(class.consumer);
        }
    }

    /// Dissolves a slide group's result classes ahead of an ejection:
    /// the representative adopts the class consumer, and every follower
    /// is tagged with the representative's id so installation rejoins it
    /// to exactly its old class (shared classes have no exact key — two
    /// distinct classes can share `(wd, k)` — so the tag disambiguates).
    fn dissolve_shared_classes(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        group: &mut DigestGroup<C>,
    ) {
        for class in group.classes.drain(..) {
            let SharedClass {
                consumer, members, ..
            } = class;
            let rep = members[0];
            for &member in &members[1..] {
                let idx = sessions
                    .binary_search_by_key(&member, |(id, _)| *id)
                    .expect("class member ids name registered sessions");
                let AnySession::Shared(s) = &mut sessions[idx].1 else {
                    unreachable!("slide-group class members are shared sessions")
                };
                s.set_class_rep(Some(rep));
            }
            let idx = sessions
                .binary_search_by_key(&rep, |(id, _)| *id)
                .expect("class member ids name registered sessions");
            let AnySession::Shared(s) = &mut sessions[idx].1 else {
                unreachable!("slide-group class members are shared sessions")
            };
            s.adopt_consumer(consumer);
        }
    }

    /// Ejects the count group containing `member` and every member
    /// session, for whole-group migration to another shard (a count
    /// group's members are inseparable — moving one moves all). `None`
    /// if `member` is not a grouped session here.
    pub(crate) fn eject_count_group_of(
        &mut self,
        member: QueryId,
    ) -> Option<EjectedCountGroup<C, T>> {
        let AnySession::Grouped(g) = self.session(member)? else {
            return None;
        };
        let gid = g.group();
        let mut group = self
            .count_groups
            .remove(&gid)
            .expect("a grouped session's gid names a live count group");
        Self::dissolve_count_classes(&mut self.sessions, &mut group);
        let members =
            self.extract_sessions(|s| matches!(s, AnySession::Grouped(g) if g.group() == gid));
        debug_assert_eq!(members.len(), group.member_ids.len());
        Some((
            CountGroupState {
                producer: group.producer,
                ring: group.ring,
                ring_base: group.ring_base,
                predicate: group.predicate,
                next_ordinal: group.next_ordinal,
            },
            members,
        ))
    }

    /// Ejects a slide group and every member session for migration to
    /// another shard: the shared producer plus the members in
    /// ascending-id order. `None` if no such group lives here.
    pub(crate) fn eject_group(&mut self, key: (u64, Predicate)) -> Option<EjectedGroup<C, T>> {
        let mut group = self.groups.remove(&key)?;
        Self::dissolve_shared_classes(&mut self.sessions, &mut group);
        let members = self.extract_sessions(|s| {
            matches!(s, AnySession::Shared(m)
                if m.slide_duration() == key.0 && m.predicate() == key.1)
        });
        debug_assert_eq!(members.len(), group.members);
        Some((group.producer, members))
    }

    /// Ejects everything — sessions, groups, counters — leaving the
    /// registry empty. The `AsyncHub::resize` path drains each shard
    /// through this before re-scattering onto the new shard set.
    pub(crate) fn eject_all(&mut self) -> RegistryParts<C, T> {
        // dissolve every result class back into the session store first
        // (same protocol as the single-group ejects); the class-hit
        // counter has no slot in `RegistryParts`, so it resets here —
        // documented on `HubStats::class_hits`
        for group in self.groups.values_mut() {
            Self::dissolve_shared_classes(&mut self.sessions, group);
        }
        for group in self.count_groups.values_mut() {
            Self::dissolve_count_classes(&mut self.sessions, group);
        }
        self.class_hits = 0;
        let mut groups: Vec<((u64, Predicate), DigestProducer)> = self
            .groups
            .drain()
            .map(|(key, group)| (key, group.producer))
            .collect();
        groups.sort_unstable_by_key(|(key, _)| *key);
        // rewrite grouped references from live gids to canonical
        // positions (same order as encode_checkpoint), since parts carry
        // count groups as an index-addressed list
        let mut order: Vec<u64> = self.count_groups.keys().copied().collect();
        order.sort_unstable_by_key(|gid| {
            let g = &self.count_groups[gid];
            (g.slide_len, g.fill(), g.predicate)
        });
        let index_of: HashMap<u64, u64> = order
            .iter()
            .enumerate()
            .map(|(i, gid)| (*gid, i as u64))
            .collect();
        let mut sessions = std::mem::take(&mut self.sessions);
        for (_, session) in &mut sessions {
            if let AnySession::Grouped(g) = session {
                g.set_group(index_of[&g.group()]);
            }
        }
        let count_groups = order
            .into_iter()
            .map(|gid| {
                let g = self
                    .count_groups
                    .remove(&gid)
                    .expect("order holds live gids");
                CountGroupState {
                    producer: g.producer,
                    ring: g.ring,
                    ring_base: g.ring_base,
                    predicate: g.predicate,
                    next_ordinal: g.next_ordinal,
                }
            })
            .collect();
        self.next_count_gid = 0;
        self.solo.clear();
        RegistryParts {
            sessions,
            groups,
            count_groups,
            digest_hits: std::mem::take(&mut self.digest_hits),
            digest_rebuilds: std::mem::take(&mut self.digest_rebuilds),
            count_group_hits: std::mem::take(&mut self.count_group_hits),
            count_group_rebuilds: std::mem::take(&mut self.count_group_rebuilds),
            admitted: std::mem::take(&mut self.admitted),
            pruned: std::mem::take(&mut self.pruned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TimedSpec;
    use crate::test_support::{Toy, ToyTimed};

    fn consumer(wd: u64, sd: u64, k: usize) -> SharedTimed<Toy> {
        let reduced = TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap();
        SharedTimed::from_engine(Toy::new(reduced.n, reduced.k, reduced.s), wd, sd).unwrap()
    }

    type ToyRegistry = Registry<Toy, ToyTimed>;

    fn q(raw: u64) -> QueryId {
        QueryId::from_raw(raw)
    }

    /// Registers a count-group member `⟨n, k, s⟩`.
    fn register_grouped(reg: &mut ToyRegistry, id: u64, n: usize, k: usize, s: usize) {
        let spec = WindowSpec::new(n, k, s).unwrap();
        reg.register_grouped(
            q(id),
            consumer(n as u64, s as u64, k),
            spec,
            Predicate::default(),
        );
    }

    /// Objects at timestamps `from..to`, one per tick.
    fn ticks(from: u64, to: u64) -> Vec<TimedObject> {
        (from..to)
            .map(|t| TimedObject::new(t, t, ((t * 37) % 101) as f64))
            .collect()
    }

    /// Asserts the store is in ascending-id order and the per-call list
    /// is exactly what the full store walk it replaced served on every
    /// call: isolated count and timed sessions plus unclassed shared
    /// members, in store order.
    fn assert_listed(reg: &ToyRegistry, step: &str) {
        assert!(
            reg.sessions.windows(2).all(|w| w[0].0 < w[1].0),
            "{step}: store out of id order"
        );
        let walked: Vec<usize> = reg
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, (_, session))| match session {
                AnySession::Count(_) | AnySession::Timed(_) => true,
                AnySession::Shared(s) => !s.is_classed(),
                AnySession::Grouped(_) => false,
            })
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
    fn reinstall(reg: &mut ToyRegistry, parts: RegistryParts<Toy, ToyTimed>, step: &str) {
        let (mut slide, count, loose) = split_by_group(parts.sessions, parts.count_groups.len());
        for (key, producer) in parts.groups {
            reg.install_group(key, producer, slide.remove(&key).unwrap());
            assert_listed(reg, step);
        }
        for (state, members) in parts.count_groups.into_iter().zip(count) {
            reg.install_count_group(state, members);
            assert_listed(reg, step);
        }
        for (id, session) in loose {
            reg.install(id, session);
            assert_listed(reg, step);
        }
    }

    #[test]
    fn per_call_list_tracks_every_store_mutation() {
        let pass = Predicate::default();
        let mut reg = ToyRegistry::default();
        reg.register(q(0), Member::Count(Toy::new(20, 2, 5)), None);
        reg.register_shared(q(1), consumer(20, 10, 2), pass);
        reg.register_shared(q(2), consumer(20, 10, 2), pass);
        register_grouped(&mut reg, 3, 20, 2, 5);
        reg.register(q(4), Member::Timed(ToyTimed::new(20, 10, 2)), None);
        assert_listed(&reg, "registration");
        assert_eq!(listed(&reg), [0, 4], "pristine joiners share a class");

        // a mid-stream join into the classed group warms up solo, and
        // stays solo once its join slide [10, 20) closes
        reg.publish_timed(&ticks(0, 15));
        reg.register_shared(q(5), consumer(20, 10, 2), pass);
        assert!(reg
            .session(q(5))
            .unwrap()
            .as_shared()
            .unwrap()
            .is_warming_up());
        assert_listed(&reg, "warming join");
        assert_eq!(listed(&reg), [0, 4, 5]);
        reg.publish_timed(&ticks(15, 25));
        let promoted = reg.session(q(5)).unwrap().as_shared().unwrap();
        assert!(!promoted.is_warming_up() && !promoted.is_classed());
        assert_listed(&reg, "promotion");
        assert_eq!(listed(&reg), [0, 4, 5]);

        // the class's representative leaves, then its last member
        reg.unregister(q(1)).unwrap();
        assert_listed(&reg, "representative leaves");
        let last = reg.unregister(q(2)).unwrap();
        assert!(
            !last.as_shared().unwrap().is_classed(),
            "takes the consumer"
        );
        assert_listed(&reg, "last class member leaves");
        assert!(reg.groups[&(10, pass)].classes.is_empty());

        // with class sharing off a pristine joiner stays solo; back on,
        // the next pristine joiner founds a class
        reg.set_class_sharing(false);
        reg.register_shared(q(6), consumer(14, 7, 1), pass);
        reg.set_class_sharing(true);
        reg.register_shared(q(7), consumer(14, 7, 1), pass);
        reg.register_shared(q(8), consumer(20, 10, 2), pass);
        assert_listed(&reg, "join with class sharing off");
        assert_eq!(listed(&reg), [0, 4, 5, 6, 8], "8 joined mid-stream");

        // install and eject, as `move_query` uses them: a migrated
        // settled member pools into a class, a warming one stays solo
        let (producer, members) = reg.eject_group((10, pass)).unwrap();
        assert_listed(&reg, "slide-group eject");
        assert_eq!(listed(&reg), [0, 4, 6]);
        reg.install_group((10, pass), producer, members);
        assert_listed(&reg, "slide-group install");
        assert_eq!(listed(&reg), [0, 4, 6, 8]);
        let (state, members) = reg.eject_count_group_of(q(3)).unwrap();
        assert_listed(&reg, "count-group eject");
        reg.install_count_group(state, members);
        assert_listed(&reg, "count-group install");
        let isolated = reg.unregister(q(4)).unwrap();
        assert_listed(&reg, "isolated eject");
        reg.install(q(4), isolated);
        assert_listed(&reg, "isolated install");
        assert_eq!(listed(&reg), [0, 4, 6, 8]);

        // `resize`: eject everything, then scatter back through install
        let parts = RegistryParts::merge(vec![reg.eject_all()]).unwrap();
        assert_listed(&reg, "eject all");
        assert!(reg.solo.is_empty());
        let mut resized = ToyRegistry::default();
        reinstall(&mut resized, parts, "resize");
        assert_eq!(listed(&resized), [0, 4, 8], "6 pools with 7 on travel");

        // `from_merged`, the restore path
        let parts = RegistryParts::merge(vec![resized.eject_all()]).unwrap();
        let mut restored = ToyRegistry::from_merged(parts, None);
        assert_listed(&restored, "restore");
        assert_eq!(listed(&restored), [0, 4, 8]);
        restored.publish_timed(&ticks(25, 35));
        let settled = restored.session(q(8)).unwrap().as_shared().unwrap();
        assert!(!settled.is_warming_up(), "8's join slide [20, 30) closed");
        assert_listed(&restored, "promotion after restore");
    }

    #[test]
    fn large_group_migration_keeps_both_stores_complete_and_ordered() {
        const MEMBERS: u64 = 1_500;
        let pass = Predicate::default();
        // ids interleave the planes: on the source, slide-group members
        // (≡ 0 mod 4), count-group members (≡ 1) and isolated timed
        // fillers (≡ 2); on the target, isolated count fillers (≡ 3). The
        // reference is a second source that never migrates.
        let build = || {
            let mut reg = ToyRegistry::default();
            for i in 0..MEMBERS {
                let k = 1 + (i % 3) as usize;
                reg.register_shared(q(4 * i), consumer(20 + 10 * (i % 2), 10, k), pass);
                register_grouped(&mut reg, 4 * i + 1, 20, k, 5);
                reg.register(q(4 * i + 2), Member::Timed(ToyTimed::new(20, 10, 1)), None);
            }
            reg
        };
        let (mut source, mut reference) = (build(), build());
        let mut target = ToyRegistry::default();
        for i in 0..MEMBERS {
            target.register(q(4 * i + 3), Member::Count(Toy::new(20, 1, 5)), None);
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

        let (producer, members) = source.eject_group((10, pass)).unwrap();
        target.install_group((10, pass), producer, members);
        let (state, members) = source.eject_count_group_of(q(1)).unwrap();
        target.install_count_group(state, members);
        check(&source, &[2], "source after moving both groups out");
        check(&target, &[0, 1, 3], "target after moving both groups in");
        let group = &target.groups[&(10, pass)];
        assert_eq!(group.members as u64, MEMBERS);
        let classed: usize = group.classes.iter().map(|c| c.members.len()).sum();
        assert_eq!(classed as u64, MEMBERS, "classes re-form on arrival");
        let count_group = target.count_groups.values().next().unwrap();
        assert_eq!(count_group.member_ids.len() as u64, MEMBERS);

        let (producer, members) = target.eject_group((10, pass)).unwrap();
        source.install_group((10, pass), producer, members);
        let (state, members) = target.eject_count_group_of(q(1)).unwrap();
        source.install_count_group(state, members);
        check(&source, &[0, 1, 2], "source after the round trip");
        check(&target, &[3], "target after the round trip");
        // the round-tripped groups serve exactly what staying put did: two
        // closes of each timed plane (t = 30, 40), four of the count group
        let more = ticks(25, 45);
        let updates = source.publish_timed(&more);
        assert_eq!(updates.len() as u64, 8 * MEMBERS);
        assert_eq!(updates, reference.publish_timed(&more));
    }

    #[test]
    fn digest_depth_follows_the_deepest_member() {
        let pass = Predicate::default();
        let key = (10u64, pass);
        let mut reg: Registry<Toy, ToyTimed> = Registry::default();
        reg.register_shared(QueryId::from_raw(0), consumer(20, 10, 1), pass);
        assert_eq!(reg.groups[&key].producer.k_max(), 1);
        reg.register_shared(QueryId::from_raw(1), consumer(40, 10, 5), pass);
        assert_eq!(reg.groups[&key].producer.k_max(), 5, "grows on join");
        // the deepest member leaving shrinks the depth back
        reg.unregister(QueryId::from_raw(1)).unwrap();
        assert_eq!(reg.groups[&key].producer.k_max(), 1, "shrinks on leave");
        // a non-deepest member leaving does not
        reg.register_shared(QueryId::from_raw(2), consumer(40, 10, 3), pass);
        reg.register_shared(QueryId::from_raw(3), consumer(20, 10, 2), pass);
        reg.unregister(QueryId::from_raw(3)).unwrap();
        assert_eq!(reg.groups[&key].producer.k_max(), 3);
        // the last member out retires the group
        reg.unregister(QueryId::from_raw(0)).unwrap();
        reg.unregister(QueryId::from_raw(2)).unwrap();
        assert!(reg.groups.is_empty());
    }

    #[test]
    fn predicate_disjoint_members_split_into_sub_groups() {
        let mut reg: Registry<Toy, ToyTimed> = Registry::default();
        let hot = Predicate::default().score_at_least(100.0);
        reg.register_shared(
            QueryId::from_raw(0),
            consumer(20, 10, 1),
            Predicate::default(),
        );
        reg.register_shared(QueryId::from_raw(1), consumer(20, 10, 4), hot);
        assert_eq!(
            reg.groups.len(),
            2,
            "same slide duration, disjoint predicates"
        );
        assert_eq!(reg.groups[&(10, Predicate::default())].producer.k_max(), 1);
        assert_eq!(reg.groups[&(10, hot)].producer.k_max(), 4);
        // a same-predicate joiner lands in the existing sub-group
        reg.register_shared(QueryId::from_raw(2), consumer(40, 10, 2), hot);
        assert_eq!(reg.groups.len(), 2);
        assert_eq!(reg.groups[&(10, hot)].members, 2);
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
        a.register_shared(q(0), consumer(10, 10, 1), Predicate::default());
        b.register_shared(q(1), consumer(10, 10, 1), Predicate::default());
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
        let shard_keys = GroupKeys {
            digest: Vec::new(),
            count: vec![(4, 2, Predicate::default())],
        };
        seen.absorb_disjoint(&shard_keys, 0);
        seen.absorb_disjoint(&shard_keys, 1); // must panic here
    }
}
