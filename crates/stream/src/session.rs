//! Query sessions and the multi-query hub.
//!
//! A [`Session`] wraps one algorithm instance and lifts it from the
//! paper's lock-step batch model (`slide(&[Object])` with exactly `s`
//! objects) to flexible ingestion: arbitrary-size
//! [`push`](Session::push) calls are buffered and re-chunked into
//! `s`-aligned slides, and every completed slide yields a
//! [`SlideResult`] — snapshot plus [`TopKEvent`](crate::events::TopKEvent)
//! deltas against the previous emission.
//!
//! A [`TimedSession`] answers a time-based query on event time. It runs
//! SAP's Appendix-A reduction itself: a private [`DigestProducer`] cuts
//! each closed slide to its top-`k`, and a [`SharedTimed`] consumer
//! feeds that reduced stream to a count-based engine.
//!
//! A [`Hub`] serves many standing queries at once — the regime of
//! *Continuous Top-k Queries over Real-Time Web Streams*, where millions
//! of standing subscriptions share one ingestion path. Queries register
//! and unregister at runtime via [`QueryId`] handles; each arriving
//! object is ingested once per sharing-plane group, and results come
//! back tagged with the query that produced them. [`Session`] and
//! [`TimedSession`] are the standalone API; both hubs serve every query
//! from its group instead, as a [`GroupSession`] — on the arrival clock
//! for a count-based query, on the event clock for a time-based one (see
//! [`Hub::publish_timed`]).
//!
//! ## Memory discipline
//!
//! Slide completion is the publish path's innermost loop — at hundreds of
//! standing queries it runs thousands of times per published chunk — so
//! every standalone session and result class closes its slides through
//! one routine on pooled buffers and emits [`Snapshot`]-shared
//! results with a shared [`EventList`] delta: a completed slide performs
//! **at most one** allocation (the shared `Arc` snapshot, only when the
//! result actually changed) once the caller has dropped the previous
//! slide's delta, which the close then rebuilds in place; a quiet slide
//! performs none, re-emitting the previous `Arc` with the process-wide
//! `[Unchanged]` list. When the engine proves its top-k unchanged
//! ([`SlidingTopK::slide_if_changed`]), the close skips the diff as
//! well. A hub member's update is a [`QueryUpdate`] of five words, and a
//! classed member's emission writes that record and nothing else: the
//! member's progress stays with its class (see [`GroupSession`]). See
//! the [`events`](crate::events) module for the snapshot contract.
//!
//! ```
//! use sap_stream::{Hub, Object, Registration};
//! # use sap_stream::{OpStats, SlidingTopK, WindowSpec};
//! # struct Toy(WindowSpec, Vec<Object>);
//! # impl SlidingTopK for Toy {
//! #     fn spec(&self) -> WindowSpec { self.0 }
//! #     fn slide(&mut self, b: &[Object]) -> &[Object] { self.1 = b.to_vec(); &self.1 }
//! #     fn candidate_count(&self) -> usize { 0 }
//! #     fn memory_bytes(&self) -> usize { 0 }
//! #     fn stats(&self) -> OpStats { OpStats::default() }
//! #     fn name(&self) -> &str { "toy" }
//! # }
//! let mut hub = Hub::new();
//! // ⟨n = 2, k = 1, s = 2⟩ on the count plane: the engine runs its
//! // reduction ⟨1, 1, 1⟩ (`WindowSpec::reduced`)
//! let toy = Toy(WindowSpec::new(1, 1, 1).unwrap(), Vec::new());
//! let q = hub.subscribe(Registration::grouped(Box::new(toy), 2, 2)).unwrap();
//! let updates = hub.publish(&[Object::new(0, 1.0), Object::new(1, 5.0)]);
//! assert_eq!(updates.len(), 1);
//! assert_eq!(updates[0].query, q);
//! assert_eq!(hub.session(q).unwrap().slides(), 1);
//! ```

use crate::checkpoint::{tags, Checkpoint, Encoder, EngineFactory};
use crate::digest::{DigestProducer, DigestView, SharedTimed};
use crate::events::{diff_snapshots_into, DiffScratch, EventList, SlideResult, Snapshot};
use crate::object::{Object, TimedObject};
use crate::query::{SapError, TimedSpec};
use crate::registry::{HubRegistry, HubStats, Registration, Registry};
use crate::shard::decode_hub_checkpoint;
use crate::window::{SlidingTopK, SpecError, WindowSpec};

/// Pooled buffers for closing slides — the pooled half of the
/// zero-allocation publish path. Every standalone session and result
/// class owns one and recycles it across slides: the
/// build buffer a slide's snapshot is staged into, the two sorted-id
/// buffers [`diff_snapshots_into`] borrows, and the last event list it
/// handed out, which the next changed close rebuilds in place once no
/// update still holds it (as `exec::ArcPool` recycles batches). After the
/// first few slides warm them to their steady-state capacity, a close
/// performs no transient allocation: the only heap activity left is the
/// emitted `Arc` snapshot of a *changed* result, plus a fresh event list
/// when the caller still holds the previous one.
/// `tests/alloc_regression.rs` pins this, and the `experiments hotpath`
/// bench preset measures it end to end.
#[derive(Debug, Default)]
pub(crate) struct SlideScratch {
    snapshot: Vec<Object>,
    diff: DiffScratch,
    events: EventList,
}

impl SlideScratch {
    /// The one slide-close routine, shared by [`Session`],
    /// [`TimedSession`] and the registry's result classes, a joiner's
    /// included: turns the engine's new top-k into the emitted
    /// [`Snapshot`] and its delta against `prev`, and advances `prev`.
    ///
    /// `top` is `None` when the engine proved its top-k unchanged
    /// ([`SlidingTopK::slide_if_changed`]): the close re-emits `prev` with
    /// `[Unchanged]` in `O(1)`, without staging or diffing. Otherwise
    /// `stage` writes `top` in the caller's ids into the cleared build
    /// buffer and the two are diffed in `O(k)`. A slide provably
    /// identical to the previous one — empty to empty, or byte-equal —
    /// still re-emits the previous `Arc`, so quiet slides allocate
    /// nothing; a changed one materializes into one fresh shared `Arc`.
    /// A quiet delta is the process-wide `[Unchanged]` or empty list; any
    /// other is this scratch's own list, shared by whoever the caller
    /// hands it to. The content check matters beyond saving the
    /// allocation: the delta pairs objects by external id, so a caller who
    /// reuses an id inside one window (the docs ask for uniqueness, but
    /// nothing rejects it) can produce an `[Unchanged]` delta over
    /// *changed* contents — the emitted snapshot must still be the fresh
    /// one.
    pub(crate) fn close<T>(
        &mut self,
        prev: &mut Snapshot,
        top: Option<&[T]>,
        stage: impl FnOnce(&[T], &mut Vec<Object>),
    ) -> (Snapshot, EventList) {
        let Some(top) = top else {
            return (prev.clone(), quiet(prev));
        };
        self.snapshot.clear();
        stage(top, &mut self.snapshot);
        diff_snapshots_into(prev, &self.snapshot, &mut self.diff, &mut self.events);
        let quiet_delta = self.events.is_empty() || self.events.is_unchanged();
        if !(quiet_delta && prev.as_slice() == self.snapshot.as_slice()) {
            *prev = Snapshot::from_slice(&self.snapshot);
        }
        let events = if quiet_delta {
            quiet(prev)
        } else {
            self.events.clone()
        };
        (prev.clone(), events)
    }
}

/// The delta of a close that re-emits `prev`: `[Unchanged]`, or empty
/// when `prev` is — the process-wide lists, so no allocation.
fn quiet(prev: &Snapshot) -> EventList {
    if prev.is_empty() {
        EventList::new()
    } else {
        EventList::unchanged()
    }
}

/// A session: one algorithm instance plus the ingestion buffer, the id
/// translation ring, the previous emission used for delta computation,
/// and pooled close buffers.
///
/// It lifts the engine from the paper's batch model to flexible
/// ingestion. [`SlidingTopK::slide`] takes batches of exactly `s`
/// objects whose ids are 0-based arrival ordinals; a session buffers
/// pushes of any size, re-chunks them into `s`-aligned slides, and
/// renumbers them to ordinals (translating results back), so callers
/// never think about batch boundaries or id bookkeeping. One push may
/// therefore complete zero, one, or many slides.
///
/// ## External ids vs arrival ordinals
///
/// The engines require object ids to be their 0-based arrival ordinals —
/// the paper's `o.t`, which the expiry machinery depends on. Callers of a
/// session are freed from that: pushed objects may carry **any** id
/// (a transaction number, a sensor code, …). The session renumbers
/// arrivals internally and translates emitted snapshots and events back
/// to the caller's ids. Two consequences worth knowing:
///
/// * equal scores tie-break by **arrival recency**, never by the external
///   id's numeric value;
/// * deltas pair `Entered`/`Exited` by external id, so ids should be
///   unique among objects alive in the same window (reuse across
///   non-overlapping window spans is fine).
#[derive(Debug)]
pub struct Session<A: SlidingTopK> {
    alg: A,
    pending: Vec<Object>,
    prev: Snapshot,
    slides: u64,
    /// Total objects ever pushed = the next internal arrival ordinal.
    next_ordinal: u64,
    /// External id of ordinal `o`, at slot `o % ring.len()`; the ring
    /// spans `n + s` ordinals, covering every object an emission can
    /// reference.
    ring: Vec<u64>,
    scratch: SlideScratch,
}

impl<A: SlidingTopK> Session<A> {
    /// Wraps an algorithm instance.
    pub fn new(alg: A) -> Self {
        let spec = alg.spec();
        Session {
            pending: Vec::with_capacity(spec.s),
            prev: Snapshot::empty(),
            slides: 0,
            next_ordinal: 0,
            ring: vec![0; spec.n + spec.s],
            scratch: SlideScratch::default(),
            alg,
        }
    }

    /// The query this session answers.
    pub fn spec(&self) -> WindowSpec {
        self.alg.spec()
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// Number of slides completed so far.
    pub fn slides(&self) -> u64 {
        self.slides
    }

    /// The most recently emitted top-k (descending), empty before the
    /// first completed slide.
    pub fn last_snapshot(&self) -> &[Object] {
        &self.prev
    }

    /// The most recent emission as a refcounted [`Snapshot`] — shares the
    /// allocation of the [`SlideResult`] that carried it (see the
    /// snapshot contract in [`events`](crate::events)).
    pub fn last_snapshot_shared(&self) -> Snapshot {
        self.prev.clone()
    }

    /// Unwraps the session, discarding any buffered objects.
    pub fn into_inner(self) -> A {
        self.alg
    }

    /// Feeds a batch of any size, returning one [`SlideResult`]
    /// (snapshot + delta events) per slide it completed.
    pub fn push(&mut self, objects: &[Object]) -> Vec<SlideResult> {
        let mut out = Vec::new();
        self.push_into(objects, &mut out);
        out
    }

    /// Feeds a batch of any size, **appending** one [`SlideResult`] per
    /// completed slide to `out` instead of allocating a fresh `Vec`.
    pub fn push_into(&mut self, objects: &[Object], out: &mut Vec<SlideResult>) {
        self.push_each(objects, &mut |result| out.push(result));
    }

    /// Feeds a batch of any size, handing each completed slide's
    /// [`SlideResult`] to `f`: the result moves **once**, straight into
    /// whatever the caller is building, and a push that completes no
    /// slides touches no heap.
    pub fn push_each(&mut self, objects: &[Object], f: &mut dyn FnMut(SlideResult)) {
        let s = self.alg.spec().s;
        let mut rest = objects;
        loop {
            // renumber one slide's worth at a time so the ring always
            // covers every ordinal the next emission can reference
            let take = (s - self.pending.len()).min(rest.len());
            for o in &rest[..take] {
                self.buffer_one(o);
            }
            rest = &rest[take..];
            if self.pending.len() == s {
                f(self.complete_slide());
            }
            if rest.is_empty() {
                return;
            }
        }
    }

    /// Feeds one object; returns the slide it completed, if any. An
    /// object that does not complete a slide is renumbered into the
    /// pre-sized pending buffer, and the call returns `None` **without
    /// touching the heap**.
    pub fn push_one(&mut self, object: Object) -> Option<SlideResult> {
        self.buffer_one(&object);
        if self.pending.len() == self.alg.spec().s {
            Some(self.complete_slide())
        } else {
            None
        }
    }

    /// Number of buffered objects not yet spanning a full slide
    /// (always `< s`).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Renumbers one arrival to its ordinal, recording the external id in
    /// the translation ring, and buffers it. Never allocates: `pending`
    /// was sized to `s` at construction and the ring is fixed.
    #[inline]
    fn buffer_one(&mut self, o: &Object) {
        let cap = self.ring.len() as u64;
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        self.ring[(ordinal % cap) as usize] = o.id;
        self.pending.push(Object::new(ordinal, o.score));
    }

    /// Feeds the full pending buffer (exactly `s` renumbered objects) to
    /// the engine and closes the slide, translating the emission back to
    /// external ids: the only possible allocation is the shared `Arc`
    /// snapshot of a *changed* result.
    fn complete_slide(&mut self) -> SlideResult {
        let Session {
            alg,
            pending,
            prev,
            slides,
            ring,
            scratch,
            ..
        } = self;
        let cap = ring.len() as u64;
        let top = alg.slide_if_changed(pending);
        let (snapshot, events) = scratch.close(prev, top, |top, out| {
            out.extend(
                top.iter()
                    .map(|o| Object::new(ring[(o.id % cap) as usize], o.score)),
            )
        });
        pending.clear();
        *slides += 1;
        SlideResult {
            slide: *slides - 1,
            snapshot,
            events,
        }
    }
}

/// A session over a **time-based** query `W⟨window_duration,
/// slide_duration⟩` — the event-time counterpart of [`Session`] — served
/// by SAP's Appendix-A reduction: a private [`DigestProducer`] cuts each
/// closed slide to its top-`k` (same-slide dominance makes the rest
/// provably useless), and a [`SharedTimed`] consumer feeds that reduced
/// stream to a count-based engine over `⟨(n/s)·k, k, k⟩`. A hub's slide
/// group runs the same two halves with one producer for many consumers;
/// this session is a group of one, on the caller's thread.
///
/// Slides close when timestamps cross slide boundaries, so one
/// [`push_timed`](TimedSession::push_timed) may emit zero, one, or many
/// [`SlideResult`]s — including results for **empty slides** (a quiet
/// stretch of stream still re-evaluates the window every `slide_duration`
/// time units once a later arrival, or an explicit
/// [`advance_watermark`](TimedSession::advance_watermark), proves the
/// time has passed). Emitted snapshots carry the caller's ids and scores;
/// the `slide` index counts closed slides from 0, exactly like the
/// count-based session, which is what keeps `(QueryId, slide)` ordering
/// deterministic across hubs. When the engine proves a slide's top-k
/// unchanged, the session re-emits the previous snapshot in `O(1)`.
///
/// Unlike [`Session`], no id renumbering happens here: a
/// [`TimedObject`]'s position in time is its `timestamp`, and its `id` is
/// opaque to the engine except for tie-breaking (equal scores resolve by
/// slide recency, then by descending id within a slide — see the
/// [`TimedObject`] docs).
///
/// The hubs never store one: a time-based registration joins its slide
/// group as a [`GroupSession`], whose emissions are byte-identical to
/// this session's over the same stream.
#[derive(Debug)]
pub struct TimedSession<E: SlidingTopK> {
    producer: DigestProducer,
    consumer: SharedTimed<E>,
    prev: Snapshot,
    slides: u64,
    scratch: SlideScratch,
}

impl<E: SlidingTopK> TimedSession<E> {
    /// Answers the top-k of the last `window_duration` time units,
    /// sliding every `slide_duration`, with `engine` — `k` is the
    /// engine's. The engine must run the Appendix-A reduction of those
    /// durations ([`TimedSpec::reduced`]) and be fresh, with the typed
    /// errors of [`SharedTimed::from_engine`].
    pub fn new(engine: E, window_duration: u64, slide_duration: u64) -> Result<Self, SpecError> {
        let consumer = SharedTimed::from_engine(engine, window_duration, slide_duration)?;
        Ok(TimedSession {
            producer: DigestProducer::new(slide_duration, consumer.k()),
            consumer,
            prev: Snapshot::empty(),
            slides: 0,
            scratch: SlideScratch::default(),
        })
    }

    /// The validated durations this session answers.
    pub fn timed_spec(&self) -> TimedSpec {
        TimedSpec {
            window_duration: self.consumer.window_duration(),
            slide_duration: self.consumer.slide_duration(),
            k: self.consumer.k(),
        }
    }

    /// The wrapped count-based engine, serving the reduced stream.
    pub fn engine(&self) -> &E {
        self.consumer.engine()
    }

    /// Number of slides closed so far.
    pub fn slides(&self) -> u64 {
        self.slides
    }

    /// The most recently emitted top-k (descending), empty before the
    /// first closed slide.
    pub fn last_snapshot(&self) -> &[Object] {
        &self.prev
    }

    /// The most recent emission as a refcounted [`Snapshot`].
    pub fn last_snapshot_shared(&self) -> Snapshot {
        self.prev.clone()
    }

    /// Feeds a batch of timestamped objects (non-decreasing timestamps),
    /// returning one [`SlideResult`] per slide it closed, oldest first.
    pub fn push_timed(&mut self, objects: &[TimedObject]) -> Vec<SlideResult> {
        let mut out = Vec::new();
        self.push_timed_into(objects, &mut out);
        out
    }

    /// Feeds a batch, **appending** the closed slides to `out` instead of
    /// allocating a fresh `Vec`. The closing slide travels producer →
    /// consumer as a borrowed [`DigestView`], so the only heap activity
    /// per slide is the shared `Arc` snapshot of a *changed* result.
    pub fn push_timed_into(&mut self, objects: &[TimedObject], out: &mut Vec<SlideResult>) {
        self.drive(out, |producer, close| {
            for &o in objects {
                producer.ingest_with(o, close);
            }
        });
    }

    /// Raises the event-time watermark, closing (and returning) every
    /// slide ending at or before it — the only way to observe trailing or
    /// empty slides when the stream goes quiet.
    pub fn advance_watermark(&mut self, watermark: u64) -> Vec<SlideResult> {
        let mut out = Vec::new();
        self.advance_watermark_into(watermark, &mut out);
        out
    }

    /// Raises the watermark, **appending** the closed slides to `out`.
    pub fn advance_watermark_into(&mut self, watermark: u64, out: &mut Vec<SlideResult>) {
        self.drive(out, |producer, close| {
            producer.advance_to_with(watermark, close)
        });
    }

    /// Number of objects buffered in the still-open slide.
    pub fn pending(&self) -> usize {
        self.producer.pending_len()
    }

    /// Drives the producer with `drive`, appending one emission per
    /// slide it closes: the slide applied to the consumer, closed against
    /// the previous emission and numbered by the slide count.
    fn drive(
        &mut self,
        out: &mut Vec<SlideResult>,
        drive: impl FnOnce(&mut DigestProducer, &mut dyn FnMut(DigestView<'_>)),
    ) {
        let TimedSession {
            producer,
            consumer,
            prev,
            slides,
            scratch,
        } = self;
        drive(producer, &mut |view| {
            let top = consumer.apply_slide_top(view.slide, view.top);
            let (snapshot, events) = scratch.close(prev, top, |top, out| {
                out.extend(top.iter().map(TimedObject::untimed))
            });
            *slides += 1;
            out.push(SlideResult {
                slide: *slides - 1,
                snapshot,
                events,
            });
        });
    }
}

/// How a sharing-plane group tells time — the one thing that separates
/// the two sharing planes (see `crate::registry`'s groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Clock {
    /// Event time: slides close on timestamps. A time-based query
    /// `W⟨window, slide⟩` ([`Registration::shared`]).
    Event,
    /// Arrival ordinals: a slide closes every `slide` published objects.
    /// A count-based query `⟨n, k, s⟩` ([`Registration::grouped`]).
    Arrival,
}

/// A query served by a sharing-plane group — what both hubs store, and
/// what [`Hub::session`] and `unregister` hand back: a time-based query
/// on the event clock ([`Registration::shared`]) or a count-based one on
/// the arrival clock ([`Registration::grouped`]).
///
/// The member's engine answers a reduction of its query through a
/// [`SharedTimed`] consumer, fed each closed slide's top objects from its
/// group's one [`DigestProducer`]: SAP's Appendix-A `⟨(n/s)·k, k, k⟩` on
/// the event clock (durations standing in for `n` and `s`), and
/// `⟨(n/s)·w, k, w⟩`, `w = min(k, s)`, on the arrival clock
/// ([`WindowSpec::reduced`]). Results are byte-identical to a standalone
/// [`Session`] or [`TimedSession`] of the same query; the per-slide
/// truncation runs once per group instead of once per query.
///
/// While registered, the member's consumer lives in its **result class**
/// in the registry, shared by every member whose emissions provably
/// coincide (see `crate::registry`), and so does the member's progress:
/// the class's slide count and previous emission are every member's, and
/// a class close writes one update per member without touching its
/// session. The registry copies them onto the member whenever it hands
/// one out ([`Hub::session`], `unregister`), so the getters never read
/// stale progress. The session holds a consumer itself only after it
/// left its class as the last member. A consumer handed back by
/// `unregister` may be parked ([`SharedTimed::is_parked`]) — its class
/// read its answers off a larger-`k` class's engine — and rehydrates on
/// its first apply or on [`SharedTimed::rehydrate`].
///
/// An event-clock member that registers after its group ingested
/// anything must only observe objects published after its registration,
/// so it **warms up**: its class is one of the group's joiners, served
/// from a private [`DigestProducer`] until the group slide it joined
/// during has closed. From the next slide on the private and shared
/// views coincide, and the group seats the class as a reduction of its
/// own. An arrival-clock member never warms up: it only joins a group
/// whose open slide is empty.
///
/// [`WindowSpec::reduced`]: crate::window::WindowSpec::reduced
#[derive(Debug)]
pub struct GroupSession<C: SlidingTopK> {
    clock: Clock,
    /// The consumer — `None` while a result class owns it.
    consumer: Option<SharedTimed<C>>,
    /// The window: `window_duration` on the event clock, `n` on the
    /// arrival clock. Kept here (like `slide` and `k`) so a classed
    /// member, whose consumer lives in its class, still answers it.
    window: u64,
    /// The slide: `slide_duration`, or `s`.
    slide: u64,
    k: usize,
    /// The engine's display name, for checkpoint headers while classed.
    engine_name: Box<str>,
    /// The registry's handle for the member's group: its live id while
    /// registered, an index into the group list while it travels.
    group: u64,
    /// Whether its class is a joiner's, the previous emission and the
    /// slide count — copies of its class's (see above).
    warming: bool,
    prev: Snapshot,
    slides: u64,
}

impl<C: SlidingTopK> GroupSession<C> {
    /// The clock the member's group runs on.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The window: `window_duration` on the event clock, `n` on the
    /// arrival clock.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The slide: `slide_duration` on the event clock, `s` on the
    /// arrival clock.
    pub fn slide(&self) -> u64 {
        self.slide
    }

    /// Result size per slide.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The registry's handle for this member's group.
    pub(crate) fn group(&self) -> u64 {
        self.group
    }

    /// Rebinds the member's group handle (installation, and the index
    /// rewrites of a checkpoint or a migration).
    pub(crate) fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// The consumer (and through it, the wrapped engine) — `None` while a
    /// registry result class owns the one consumer its members share.
    pub fn consumer(&self) -> Option<&SharedTimed<C>> {
        self.consumer.as_ref()
    }

    /// The wrapped count-based engine, when this session carries its own
    /// consumer — see [`consumer`](GroupSession::consumer).
    pub fn engine(&self) -> Option<&C> {
        self.consumer.as_ref().map(SharedTimed::engine)
    }

    /// The engine's display name (valid whether classed or not).
    pub fn engine_name(&self) -> &str {
        &self.engine_name
    }

    /// Whether a registry result class computes this member's slides.
    pub fn is_classed(&self) -> bool {
        self.consumer.is_none()
    }

    /// Gives the class consumer back to the last member leaving its
    /// class.
    pub(crate) fn adopt_consumer(&mut self, consumer: SharedTimed<C>) {
        debug_assert!(self.consumer.is_none(), "adopting over a live consumer");
        self.consumer = Some(consumer);
    }

    /// Number of slides closed so far.
    pub fn slides(&self) -> u64 {
        self.slides
    }

    /// The most recently emitted top-k (descending), empty before the
    /// first closed slide.
    pub fn last_snapshot(&self) -> &[Object] {
        &self.prev
    }

    /// The most recent emission as a refcounted [`Snapshot`].
    pub fn last_snapshot_shared(&self) -> Snapshot {
        self.prev.clone()
    }

    /// Whether the session is still catching up on its private view (an
    /// event-clock join whose group slide has not closed yet).
    pub fn is_warming_up(&self) -> bool {
        self.warming
    }

    /// Unwraps the session, discarding the delta state — `None` when a
    /// registry result class owns the consumer.
    pub fn into_inner(self) -> Option<SharedTimed<C>> {
        self.consumer
    }

    /// A member of group `group` whose consumer is `class`'s: classed,
    /// with the class's geometry and its own engine name. Its progress is
    /// the class's (see [`GroupSession`]).
    pub(crate) fn classed(
        clock: Clock,
        class: &SharedTimed<C>,
        engine_name: &str,
        group: u64,
    ) -> Self {
        GroupSession {
            clock,
            consumer: None,
            window: class.window_duration(),
            slide: class.slide_duration(),
            k: class.k(),
            engine_name: engine_name.into(),
            group,
            warming: false,
            prev: Snapshot::empty(),
            slides: 0,
        }
    }

    /// Copies a classed member's progress from its class: the class's
    /// slide count and previous emission, which every member's equal by
    /// construction, and whether the class is a joiner's. A class close
    /// never writes its members, so the registry calls this before it
    /// hands a classed member out.
    pub(crate) fn copy_progress(&mut self, slides: u64, prev: &Snapshot, warming: bool) {
        debug_assert!(self.is_classed());
        self.slides = slides;
        self.prev = prev.clone();
        self.warming = warming;
    }
}

/// The session type both hubs store and return from `unregister`: its
/// engines are [`Send`], so a session can live on an
/// [`AsyncHub`](crate::exec::AsyncHub) shard or move between shards.
pub type HubSession = GroupSession<Box<dyn SlidingTopK + Send>>;

/// Handle identifying a query registered with a [`Hub`] or an
/// [`AsyncHub`](crate::exec::AsyncHub). Ids are handed out
/// monotonically, so ascending `QueryId` order *is* registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// Builds a handle from its raw counter value (hub-internal; the
    /// async hub allocates ids with the same scheme as [`Hub`]).
    pub(crate) fn from_raw(raw: u64) -> Self {
        QueryId(raw)
    }

    /// The raw counter value, used for shard routing.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One query's output from a [`Hub`] publish call.
///
/// Five words: the id, the slide number, and two refcounted pointers —
/// the snapshot and the delta, each shared by every member of the result
/// class that computed them. A hub's drain merges these records and its
/// caller drops them, so both costs scale with this size (pinned at 48
/// bytes at most by a unit test).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryUpdate {
    /// Which registered query produced this result.
    pub query: QueryId,
    /// The completed slide. Its snapshot and delta are refcounted —
    /// retaining or cloning an update never copies either.
    pub result: SlideResult,
}

/// A set of concurrently served continuous top-k queries over one stream.
///
/// Heterogeneous geometries and algorithms coexist, each query sliding
/// exactly when *its* boundary is reached; results are delivered in
/// registration order.
///
/// Both window models share the hub, each registered through
/// [`subscribe`](Hub::subscribe) with a [`Registration`] naming its
/// clock, and every query joins a group that ingests each object once.
/// Count-based queries slide on arrival counts in **count groups**: every
/// query with the same slide length, registration offset mod `s` and
/// predicate shares one per-slide truncation. Time-based queries slide on
/// event time on the **shared digest plane**, where every query with the
/// same `slide_duration` (and predicate) is served from one per-slide
/// top-`k_max` digest instead of recomputing it per query. A stream
/// published with [`publish_timed`](Hub::publish_timed) feeds all of
/// them: count-based queries see the objects' `(id, score)` in arrival
/// order, time-based ones additionally consume the timestamps. The plain
/// [`publish`](Hub::publish) path carries no event time and therefore
/// advances count-based queries only.
#[derive(Default)]
pub struct Hub {
    registry: HubRegistry,
    next_id: u64,
}

impl std::fmt::Debug for Hub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hub")
            .field("queries", &self.registry.len())
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl Hub {
    /// An empty hub.
    pub fn new() -> Self {
        Hub::default()
    }

    /// Registers a standing query on the plane the [`Registration`]
    /// names and returns its handle. The query sees exactly the objects
    /// published after this call. An invalid registration (see
    /// [`Registration`]) is a typed error and leaves the hub unchanged.
    pub fn subscribe(&mut self, registration: Registration) -> Result<QueryId, SapError> {
        let member = registration.admit()?;
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.registry.register(id, member, None);
        Ok(id)
    }

    /// Removes a query, returning its session. An unknown or
    /// already-removed handle is a typed [`SapError::UnknownQuery`] —
    /// never a silent no-op, so callers cannot mistake a stale handle for
    /// a successful removal. The query leaves its group; the last member
    /// out retires the group's digest producer. The last member out of a
    /// result class takes the class's engine along, possibly parked (see
    /// [`SharedTimed::is_parked`]); a query that shared its class returns
    /// without one (see [`GroupSession::consumer`]).
    pub fn unregister(&mut self, id: QueryId) -> Result<HubSession, SapError> {
        self.registry
            .unregister(id)
            .ok_or(SapError::UnknownQuery { query: id })
    }

    /// Publishes a batch of objects to every registered query. Returns
    /// every slide completed by any query, in registration order, each
    /// tagged with its query handle.
    ///
    /// With zero registered queries this is an explicit no-op: the batch
    /// is dropped (no buffering for future registrations — a query that
    /// joins later starts from *its* first published object) and the
    /// returned updates are empty.
    ///
    /// Untimed objects carry no event time, so **time-based queries do
    /// not advance here** — feed them through
    /// [`publish_timed`](Hub::publish_timed) (or close their slides with
    /// [`advance_time`](Hub::advance_time)).
    pub fn publish(&mut self, objects: &[Object]) -> Vec<QueryUpdate> {
        self.registry.publish(objects)
    }

    /// Publishes a batch of **timestamped** objects (non-decreasing
    /// timestamps) to every registered query — the shared ingestion path
    /// for heterogeneous count- and time-based subscriptions. Count-based
    /// sessions observe each object's `(id, score)` in arrival order;
    /// time-based sessions additionally consume the timestamps, closing
    /// their slides (empty ones included) as boundaries are crossed.
    /// Shared queries are served group-wise: each slide group ingests the
    /// batch once and serves its result classes inside each close. Returns
    /// every completed slide in registration order.
    pub fn publish_timed(&mut self, objects: &[TimedObject]) -> Vec<QueryUpdate> {
        self.registry.publish_timed(objects)
    }

    /// Raises the event-time watermark on every time-based query (shared
    /// groups advance once, members consume the digests), closing (and
    /// returning, in registration order) every slide ending at or before
    /// `watermark` — the way to flush trailing and empty slides when the
    /// stream goes quiet. Count-based queries are untouched.
    pub fn advance_time(&mut self, watermark: u64) -> Vec<QueryUpdate> {
        self.registry.advance_time(watermark)
    }

    /// Publishes one object (convenience over [`publish`](Hub::publish)).
    pub fn publish_one(&mut self, object: Object) -> Vec<QueryUpdate> {
        self.publish(std::slice::from_ref(&object))
    }

    /// Publishes one timestamped object (convenience over
    /// [`publish_timed`](Hub::publish_timed)).
    pub fn publish_one_timed(&mut self, object: TimedObject) -> Vec<QueryUpdate> {
        self.publish_timed(std::slice::from_ref(&object))
    }

    /// The session behind a handle, on either clock (`None` for unknown
    /// handles). A classed member's progress lives in its result class,
    /// so this copies the class's slide count and previous emission onto
    /// the session first (`O(classes in its group)`), which is why it
    /// takes `&mut self`.
    pub fn session(&mut self, id: QueryId) -> Option<&HubSession> {
        self.registry.session(id)
    }

    /// Registered-query counts plus the digest plane's sharing metrics
    /// (groups, hits, warm-up rebuilds) — see [`HubStats`].
    pub fn stats(&self) -> HubStats {
        self.registry.stats()
    }

    /// Iterates the registered query handles in registration order.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.registry.query_ids()
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }

    /// Captures the hub's full serving state as a framed, versioned,
    /// checksummed [`Checkpoint`]: every session's window and pending
    /// buffer, slide counters, previous emissions, the digest-group
    /// producers, and the sharing counters. Engine *code* is not
    /// captured — sessions record their engine's
    /// [`name`](SlidingTopK::name) and spec, and
    /// [`restore`](Hub::restore) rebuilds engines through an
    /// [`EngineFactory`].
    ///
    /// The snapshot is taken between publishes, so it always sits on a
    /// clean slide boundary per query; a hub restored from it emits
    /// byte-identical results for any subsequently published stream.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut enc = Encoder::new();
        enc.put_u64(self.next_id);
        enc.put_usize(1);
        enc.section(tags::REGISTRY, |e| self.registry.encode_checkpoint(e));
        Checkpoint::from_payload(enc.into_payload())
    }

    /// Rebuilds a hub from a [`Checkpoint`], constructing each session's
    /// engine through `factory` and replaying the retained state into it.
    /// Accepts checkpoints from either hub: an async hub's per-shard
    /// registries are merged back into one (sessions in registration
    /// order, groups unioned, counters summed).
    ///
    /// Malformed input is a typed [`SapError::Checkpoint`]; an engine
    /// name the factory cannot build surfaces as
    /// [`CheckpointError::UnknownEngine`]. Never panics on foreign bytes.
    ///
    /// [`CheckpointError::UnknownEngine`]: crate::checkpoint::CheckpointError::UnknownEngine
    pub fn restore(checkpoint: &Checkpoint, factory: &dyn EngineFactory) -> Result<Hub, SapError> {
        let (next_id, merged) = decode_hub_checkpoint(checkpoint, factory)?;
        Ok(Hub {
            registry: Registry::from_merged(merged, None),
            next_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TopKEvent;
    use crate::object::top_k_of;
    use crate::test_support::{count, shared, timed, Toy, ToyTimed};
    use std::collections::HashMap;

    fn stream(len: usize) -> Vec<Object> {
        (0..len)
            .map(|i| Object::new(i as u64, ((i * 37) % 101) as f64))
            .collect()
    }

    #[test]
    fn push_rechunks_to_slides() {
        let mut session = Session::new(Toy::new(20, 3, 10));
        let data = stream(35);
        // 7 + 20 + 8 = 35 objects → slides complete at 10, 20, 30
        let a = session.push(&data[..7]);
        assert!(a.is_empty());
        assert_eq!(session.pending(), 7);
        let b = session.push(&data[7..27]);
        assert_eq!(b.len(), 2);
        assert_eq!(session.pending(), 7);
        let c = session.push(&data[27..]);
        assert_eq!(c.len(), 1);
        assert_eq!(session.pending(), 5);
        assert_eq!(session.slides(), 3);
        // snapshots equal the exact-s reference
        let expect = top_k_of(&data[10..30], 3);
        assert_eq!(c[0].snapshot, expect);
        assert_eq!(session.last_snapshot(), expect.as_slice());
    }

    #[test]
    fn push_one_completes_at_slide_boundary() {
        let mut session = Session::new(Toy::new(4, 1, 2));
        assert!(session.push_one(Object::new(0, 1.0)).is_none());
        let r = session.push_one(Object::new(1, 5.0)).unwrap();
        assert_eq!(r.slide, 0);
        assert_eq!(r.snapshot[0].id, 1);
        assert_eq!(r.events, vec![TopKEvent::Entered(Object::new(1, 5.0))]);
    }

    #[test]
    fn events_track_result_churn() {
        let mut session = Session::new(Toy::new(2, 1, 1));
        let r0 = session.push_one(Object::new(0, 5.0)).unwrap();
        assert_eq!(r0.events, vec![TopKEvent::Entered(Object::new(0, 5.0))]);
        // lower score arrives: top-1 unchanged
        let r1 = session.push_one(Object::new(1, 3.0)).unwrap();
        assert_eq!(r1.events, vec![TopKEvent::Unchanged]);
        // an unchanged slide re-emits the previous Arc: zero-copy fan-out
        assert!(r1.snapshot.ptr_eq(&r0.snapshot));
        // object 0 expires (n = 2): object 1 takes over
        let r2 = session.push_one(Object::new(2, 1.0)).unwrap();
        assert_eq!(
            r2.events,
            vec![
                TopKEvent::Exited(Object::new(0, 5.0)),
                TopKEvent::Entered(Object::new(1, 3.0)),
            ]
        );
        assert!(!r2.snapshot.ptr_eq(&r1.snapshot));
    }

    #[test]
    fn emitted_snapshot_shares_the_sessions_retained_arc() {
        let mut session = Session::new(Toy::new(4, 2, 2));
        let r = session.push(&stream(2)).pop().unwrap();
        // the SlideResult and the session's retained previous emission
        // are the same allocation — the Arc snapshot contract
        assert!(r.snapshot.ptr_eq(&session.last_snapshot_shared()));
        assert_eq!(session.last_snapshot(), r.snapshot.as_slice());
    }

    #[test]
    fn duplicate_external_id_with_new_score_emits_fresh_contents() {
        // ids are documented as unique-per-window, but nothing rejects a
        // duplicate — and the delta diff pairs objects by external id, so
        // this is exactly the case where membership equality does NOT
        // imply content equality. The delta may honestly say Unchanged
        // (same membership), but the snapshot must carry the new score
        // and the session's retained prev must advance with it.
        let mut session = Session::new(Toy::new(2, 1, 1));
        let r0 = session.push_one(Object::new(7, 5.0)).unwrap();
        assert_eq!(r0.snapshot.as_slice(), &[Object::new(7, 5.0)]);
        let r1 = session.push_one(Object::new(7, 9.0)).unwrap();
        assert_eq!(
            r1.snapshot.as_slice(),
            &[Object::new(7, 9.0)],
            "snapshot must show the fresh score, not the stale Arc"
        );
        assert!(!r1.snapshot.ptr_eq(&r0.snapshot));
        assert_eq!(session.last_snapshot(), r1.snapshot.as_slice());
    }

    #[test]
    fn hub_fans_out_to_heterogeneous_queries() {
        let mut hub = Hub::new();
        let fast = hub.subscribe(count(4, 1, 2)).unwrap();
        let slow = hub.subscribe(count(8, 2, 4)).unwrap();
        assert_eq!(hub.len(), 2);

        let updates = hub.publish(&stream(4));
        // fast slid twice (s=2), slow once (s=4)
        let fast_updates: Vec<_> = updates.iter().filter(|u| u.query == fast).collect();
        let slow_updates: Vec<_> = updates.iter().filter(|u| u.query == slow).collect();
        assert_eq!(fast_updates.len(), 2);
        assert_eq!(slow_updates.len(), 1);
        assert_eq!(updates.len(), 3);

        // per-query slide counters advance independently
        assert_eq!(hub.session(fast).unwrap().slides(), 2);
        assert_eq!(hub.session(slow).unwrap().slides(), 1);
    }

    #[test]
    fn hub_register_unregister_at_runtime() {
        let mut hub = Hub::new();
        let a = hub.subscribe(count(2, 1, 1)).unwrap();
        let b = hub.subscribe(count(2, 1, 1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(hub.query_ids().collect::<Vec<_>>(), vec![a, b]);

        let removed = hub.unregister(a).expect("a is registered");
        assert_eq!(removed.window(), 2);
        // `a` shared its class with `b`, which keeps the engine
        assert!(removed.consumer().is_none());
        assert_eq!(
            hub.unregister(a).unwrap_err(),
            SapError::UnknownQuery { query: a },
            "double unregister is a typed error"
        );
        assert_eq!(hub.len(), 1);

        // b keeps running; new registrations get fresh ids
        let c = hub.subscribe(count(4, 1, 2)).unwrap();
        assert_ne!(c, a);
        assert_ne!(c, b);
        let updates = hub.publish(&stream(2));
        assert!(updates.iter().all(|u| u.query != a));
        assert!(updates.iter().any(|u| u.query == b));
        assert_eq!(format!("{c}"), "q2");
    }

    #[test]
    fn external_ids_are_translated_round_trip() {
        // same stream twice: once with ordinal ids, once with arbitrary
        // external ids — scores and ordering must match exactly, ids must
        // come back as the caller's
        let data = stream(35);
        let relabeled: Vec<Object> = data
            .iter()
            .map(|o| Object::new(o.id * 1000 + 7, o.score))
            .collect();
        let mut plain = Session::new(Toy::new(20, 3, 10));
        let mut ext = Session::new(Toy::new(20, 3, 10));
        let a = plain.push(&data);
        let b = ext.push(&relabeled);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            let translated: Vec<Object> = ra
                .snapshot
                .iter()
                .map(|o| Object::new(o.id * 1000 + 7, o.score))
                .collect();
            assert_eq!(rb.snapshot, translated, "slide {}", ra.slide);
        }
    }

    #[test]
    fn external_ids_may_be_non_monotonic() {
        // ids identify, arrival orders: ties go to the later arrival even
        // when its external id is smaller
        let mut session = Session::new(Toy::new(2, 1, 2));
        let r = session
            .push(&[Object::new(900, 5.0), Object::new(100, 5.0)])
            .pop()
            .unwrap();
        assert_eq!(r.snapshot[0].id, 100, "later arrival wins the tie");
    }

    #[test]
    fn push_into_appends_without_clearing() {
        let mut session = Session::new(Toy::new(4, 1, 2));
        let mut out = Vec::new();
        session.push_into(&stream(4), &mut out);
        assert_eq!(out.len(), 2);
        // a second push appends after the existing results
        session.push_into(&stream(2), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.iter().map(|r| r.slide).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // and matches the owned-Vec path exactly
        let mut reference = Session::new(Toy::new(4, 1, 2));
        let mut expect = reference.push(&stream(4));
        expect.extend(reference.push(&stream(2)));
        assert_eq!(out, expect);
    }

    #[test]
    fn hub_registration_mid_stream_starts_clean() {
        let mut hub = Hub::new();
        let early = hub.subscribe(count(4, 1, 2)).unwrap();
        hub.publish(&stream(10));
        // a query joining after 10 objects must slide on *its* arrivals
        let late = hub.subscribe(count(4, 1, 2)).unwrap();
        let updates = hub.publish(&stream(4));
        assert_eq!(hub.session(early).unwrap().slides(), 7);
        assert_eq!(hub.session(late).unwrap().slides(), 2);
        assert_eq!(updates.len(), 2 + 2);
    }

    #[test]
    fn timed_session_closes_on_boundaries() {
        let mut session = timed_session(40, 10, 2);
        assert_eq!(session.timed_spec().slides_per_window(), 4);
        // two objects in slide [0, 10): nothing closes yet
        let r = session.push_timed(&[TimedObject::new(0, 3, 5.0), TimedObject::new(1, 7, 9.0)]);
        assert!(r.is_empty());
        assert_eq!(session.pending(), 2);
        // a timestamp jump to 35 closes slides [0,10), [10,20), [20,30)
        let r = session.push_timed(&[TimedObject::new(2, 35, 7.0)]);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].slide, 0);
        assert_eq!(
            r[0].snapshot,
            vec![Object::new(1, 9.0), Object::new(0, 5.0)]
        );
        assert_eq!(
            r[0].events,
            vec![
                TopKEvent::Entered(Object::new(1, 9.0)),
                TopKEvent::Entered(Object::new(0, 5.0)),
            ]
        );
        // the empty middle slides re-emit the same alive window: unchanged
        // deltas sharing the same Arc snapshot
        assert_eq!(r[1].events, vec![TopKEvent::Unchanged]);
        assert_eq!(r[2].events, vec![TopKEvent::Unchanged]);
        assert!(r[1].snapshot.ptr_eq(&r[0].snapshot));
        assert!(r[2].snapshot.ptr_eq(&r[0].snapshot));
        // watermark 50 closes [30,40) — object 2 displaces object 0 —
        // and [40,50), where objects 0 and 1 expire out of the window
        let r = session.advance_watermark(50);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].slide, 3);
        assert_eq!(
            r[0].snapshot,
            vec![Object::new(1, 9.0), Object::new(2, 7.0)]
        );
        assert_eq!(
            r[0].events,
            vec![
                TopKEvent::Exited(Object::new(0, 5.0)),
                TopKEvent::Entered(Object::new(2, 7.0)),
            ]
        );
        assert_eq!(r[1].slide, 4);
        assert_eq!(r[1].snapshot, vec![Object::new(2, 7.0)]);
        assert_eq!(session.slides(), 5);
        assert_eq!(session.last_snapshot(), &[Object::new(2, 7.0)]);
    }

    #[test]
    fn hub_mixes_count_and_timed_queries_on_one_stream() {
        let mut hub = Hub::new();
        let count = hub.subscribe(count(4, 1, 2)).unwrap();
        let timed = hub.subscribe(timed(20, 10, 1)).unwrap();
        assert_eq!(hub.len(), 2);
        assert_eq!(hub.session(count).unwrap().clock(), Clock::Arrival);
        assert_eq!(hub.session(timed).unwrap().clock(), Clock::Event);

        // 6 objects, one per 5 time units: count query slides every 2
        // arrivals, timed query every 10 time units (= 2 arrivals here)
        let data: Vec<TimedObject> = (0..6)
            .map(|i| TimedObject::new(i as u64, 5 * i as u64, ((i * 37) % 101) as f64))
            .collect();
        let updates = hub.publish_timed(&data);
        let count_slides = updates.iter().filter(|u| u.query == count).count();
        let timed_slides = updates.iter().filter(|u| u.query == timed).count();
        assert_eq!(count_slides, 3, "count query: 6 arrivals / s=2");
        // timestamps reach 25, closing timed slides [0,10) and [10,20)
        assert_eq!(timed_slides, 2);
        // flushing the watermark closes [20,30) for the timed query only
        let flushed = hub.advance_time(30);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].query, timed);
        assert_eq!(hub.session(timed).unwrap().slides(), 3);

        // a timed unregister hands its group session back
        let removed = hub.unregister(timed).expect("registered");
        assert_eq!(removed.slides(), 3);
        assert_eq!(removed.clock(), Clock::Event);
    }

    /// Irregular-rate timed stream: gaps cycle 0..7 time units, covering
    /// bursts, quiet stretches, and empty slides.
    fn timed_stream(len: usize) -> Vec<TimedObject> {
        let mut ts = 0u64;
        (0..len)
            .map(|i| {
                ts += (i as u64 * 5 + 3) % 8;
                TimedObject::new(i as u64, ts, ((i * 37) % 101) as f64)
            })
            .collect()
    }

    /// A standalone `TimedSession` of `W⟨wd, sd⟩` top-`k` over `Toy`.
    fn timed_session(wd: u64, sd: u64, k: usize) -> TimedSession<Toy> {
        let reduced = TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap();
        TimedSession::new(Toy::new(reduced.n, reduced.k, reduced.s), wd, sd).unwrap()
    }

    /// The two references a shared query of `W⟨wd, sd⟩` top-`k` must
    /// match, fed what it observes: a standalone `TimedSession` (full
    /// results) and the brute-force `ToyTimed` (snapshots).
    struct Reference {
        session: TimedSession<Toy>,
        toy: ToyTimed,
        results: Vec<SlideResult>,
        snapshots: Vec<Vec<Object>>,
    }

    impl Reference {
        fn new(wd: u64, sd: u64, k: usize) -> Self {
            Reference {
                session: timed_session(wd, sd, k),
                toy: ToyTimed::new(wd, sd, k),
                results: Vec::new(),
                snapshots: Vec::new(),
            }
        }

        fn push(&mut self, chunk: &[TimedObject]) {
            self.session.push_timed_into(chunk, &mut self.results);
            self.snapshots.extend(self.toy.push(chunk));
        }

        fn advance(&mut self, watermark: u64) {
            self.session
                .advance_watermark_into(watermark, &mut self.results);
            self.snapshots.extend(self.toy.advance_to(watermark));
        }

        /// Asserts a hub query's results equal both references.
        fn check(&self, query: QueryId, got: &HashMap<QueryId, Vec<SlideResult>>) {
            let got = &got[&query];
            assert_eq!(got, &self.results, "{query} diverged from its session");
            let snapshots: Vec<Vec<Object>> = got.iter().map(|r| r.snapshot.to_vec()).collect();
            assert_eq!(
                snapshots, self.snapshots,
                "{query} diverged from the ranking"
            );
        }
    }

    fn collect(updates: Vec<QueryUpdate>, by_query: &mut HashMap<QueryId, Vec<SlideResult>>) {
        for u in updates {
            by_query.entry(u.query).or_default().push(u.result);
        }
    }

    #[test]
    fn shared_queries_match_isolated_sessions_exactly() {
        // three shared consumers must emit byte-identical results to
        // standalone sessions fed the same chunks, while the digest plane
        // runs one producer per distinct slide duration
        let mut hub = Hub::new();
        let mut pairs = Vec::new();
        for (wd, sd, k) in [(40u64, 10u64, 2usize), (20, 10, 1), (50, 25, 3)] {
            let query = hub.subscribe(timed(wd, sd, k)).unwrap();
            pairs.push((query, Reference::new(wd, sd, k)));
        }
        let data = timed_stream(120);
        let horizon = data.last().unwrap().timestamp + 200;
        let mut by_query = HashMap::new();
        for chunk in data.chunks(13) {
            collect(hub.publish_timed(chunk), &mut by_query);
            for (_, reference) in &mut pairs {
                reference.push(chunk);
            }
        }
        collect(hub.advance_time(horizon), &mut by_query);
        for (query, mut reference) in pairs {
            reference.advance(horizon);
            reference.check(query, &by_query);
        }
        let stats = hub.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.grouped_queries, 0);
        assert_eq!(stats.shared_queries, 3);
        assert_eq!(stats.digest_groups, 2, "slide durations 10 and 25");
        assert!(stats.digest_hits > 0);
        assert_eq!(stats.digest_rebuilds, 0, "everyone registered up front");
        assert_eq!(stats.digest_hit_rate(), 1.0);
    }

    #[test]
    fn mid_stream_shared_join_warms_up_then_promotes() {
        let mut hub = Hub::new();
        let data = timed_stream(160);
        // references, each fed what its shared twin observes
        let (mut early, mut late) = (Reference::new(40, 10, 2), Reference::new(20, 10, 4));
        let early_shared = hub.subscribe(timed(40, 10, 2)).unwrap();
        let mut by_query = HashMap::new();
        for chunk in data[..80].chunks(11) {
            collect(hub.publish_timed(chunk), &mut by_query);
            early.push(chunk);
        }
        // a mid-stream join with a LARGER k deepens the group's digests;
        // until its join slide closes it runs on a private warm-up view
        let late_shared = hub.subscribe(timed(20, 10, 4)).unwrap();
        assert!(hub.session(late_shared).unwrap().is_warming_up());
        for chunk in data[80..].chunks(11) {
            collect(hub.publish_timed(chunk), &mut by_query);
            early.push(chunk);
            late.push(chunk);
        }
        let horizon = data.last().unwrap().timestamp + 100;
        collect(hub.advance_time(horizon), &mut by_query);
        early.advance(horizon);
        late.advance(horizon);
        assert!(
            !hub.session(late_shared).unwrap().is_warming_up(),
            "the group closed the join slide, so the member promoted"
        );
        early.check(early_shared, &by_query);
        late.check(late_shared, &by_query);
        let stats = hub.stats();
        assert_eq!(stats.digest_groups, 1, "both shared queries share sd 10");
        assert!(
            stats.digest_rebuilds > 0,
            "the late join warmed up privately"
        );
        assert!(stats.digest_hits > 0);
        assert!(stats.digest_hit_rate() > 0.0 && stats.digest_hit_rate() < 1.0);
    }

    #[test]
    fn shared_unregister_hands_back_the_session_and_retires_empty_groups() {
        let mut hub = Hub::new();
        // wrong engine geometry never registers: ⟨6, 2, 2⟩ is not the
        // reduction of W⟨20, 10⟩ for k = 2
        assert!(matches!(
            hub.subscribe(shared(Toy::new(6, 2, 2), 20, 10)),
            Err(SapError::Spec(_))
        ));
        assert!(hub.is_empty());
        let q = hub.subscribe(shared(Toy::new(4, 2, 2), 20, 10)).unwrap();
        hub.publish_timed(&[TimedObject::new(0, 5, 1.0), TimedObject::new(1, 12, 2.0)]);
        assert_eq!(hub.stats().digest_groups, 1);
        assert_eq!(hub.session(q).unwrap().slides(), 1);
        let left = hub.unregister(q).unwrap();
        assert_eq!(left.slides(), 1);
        assert_eq!(left.slide(), 10);
        // the last member out of a class takes the class's consumer along
        let engine = left.engine().expect("last member rehydrates");
        assert_eq!(engine.spec().k, 2);
        assert_eq!(
            hub.stats().digest_groups,
            0,
            "the last member out retires the group"
        );
        // a later registrant founds a fresh, pristine group: no warm-up
        let q2 = hub.subscribe(shared(Toy::new(4, 2, 2), 20, 10)).unwrap();
        assert!(!hub.session(q2).unwrap().is_warming_up());
    }

    #[test]
    fn plain_publish_does_not_advance_timed_queries() {
        let mut hub = Hub::new();
        let timed = hub.subscribe(timed(20, 10, 1)).unwrap();
        let updates = hub.publish(&stream(50));
        assert!(
            updates.is_empty(),
            "untimed objects carry no event time for a timed query"
        );
        assert_eq!(hub.session(timed).unwrap().slides(), 0);
    }

    #[test]
    fn query_updates_stay_at_five_words() {
        assert!(
            std::mem::size_of::<QueryUpdate>() <= 48,
            "QueryUpdate is {} bytes: a drain merges and its caller drops every \
             update, so both costs scale with this size — share the class's \
             delta and snapshot instead of growing the record",
            std::mem::size_of::<QueryUpdate>()
        );
    }

    #[test]
    fn empty_hub_publish_is_noop() {
        let mut hub = Hub::new();
        assert!(hub.is_empty());
        assert!(hub.publish(&stream(10)).is_empty());
        assert!(hub.session(QueryId(0)).is_none());
        // the no-op really drops the batch: a query registered afterwards
        // starts from its own first published object, not the dropped one
        let late = hub.subscribe(count(2, 1, 1)).unwrap();
        let updates = hub.publish(&stream(1));
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].query, late);
        assert_eq!(hub.session(late).unwrap().slides(), 1);
        // unregistering on an empty-again hub is the same typed error
        hub.unregister(late).expect("registered");
        assert_eq!(
            hub.unregister(late).unwrap_err(),
            SapError::UnknownQuery { query: late }
        );
    }
}
