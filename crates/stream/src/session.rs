//! Query sessions and the multi-query hub.
//!
//! A [`Session`] wraps one algorithm instance and lifts it from the
//! paper's lock-step batch model (`slide(&[Object])` with exactly `s`
//! objects) to flexible ingestion: arbitrary-size [`push`](Ingest::push)
//! calls are buffered and re-chunked into `s`-aligned slides, and every
//! completed slide yields a [`SlideResult`] — snapshot plus
//! [`TopKEvent`](crate::events::TopKEvent) deltas against the previous
//! emission.
//!
//! A [`Hub`] owns many sessions at once — the regime of *Continuous Top-k
//! Queries over Real-Time Web Streams*, where millions of standing
//! subscriptions share one ingestion path. Queries register and
//! unregister at runtime via [`QueryId`] handles; each arriving object
//! fans out to every subscribed query, and results come back tagged with
//! the query that produced them.
//!
//! Time-based queries have the same shape one type over:
//! [`TimedSession`] wraps a [`TimedTopK`] engine and closes slides on
//! timestamps instead of arrival counts. It is the standalone API; both
//! hubs serve every time-based query from its slide group instead, as a
//! [`GroupSession`] on the event clock, side by side with the count-based
//! ones (see [`Hub::publish_timed`]).
//!
//! ## Memory discipline
//!
//! Slide completion is the publish path's innermost loop — at hundreds of
//! standing queries it runs thousands of times per published chunk — so
//! every session keeps a [`SlideScratch`] and emits
//! [`Snapshot`]-shared results: a completed
//! slide performs **at most one** allocation (the shared `Arc` snapshot,
//! only when the result actually changed) and a quiet slide performs
//! none, re-emitting the previous `Arc`. See the
//! [`events`](crate::events) module for the snapshot contract.
//!
//! ```
//! use sap_stream::{Hub, Ingest, Object, Registration};
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
//! let toy = Toy(WindowSpec::new(2, 1, 2).unwrap(), Vec::new());
//! let q = hub.subscribe(Registration::count(Box::new(toy))).unwrap();
//! let updates = hub.publish(&[Object::new(0, 1.0), Object::new(1, 5.0)]);
//! assert_eq!(updates.len(), 1);
//! assert_eq!(updates[0].query, q);
//! assert_eq!(hub.session(q).unwrap().slides(), 1);
//! ```

use crate::checkpoint::{
    tags, Checkpoint, CheckpointError, DecodeState, Decoder, EncodeState, Encoder, EngineFactory,
};
use crate::digest::{DigestProducer, DigestView, SharedTimed};
use crate::events::{diff_snapshots_into, EventList, SlideResult, Snapshot};
use crate::object::{Object, TimedObject};
use crate::predicate::Predicate;
use crate::query::SapError;
use crate::registry::{HubRegistry, HubStats, Registration, Registry};
use crate::shard::decode_hub_checkpoint;
use crate::window::{Ingest, SlidingTopK, TimedIngest, TimedTopK, WindowSpec};

/// Reusable per-session buffers for slide completion — the pooled half of
/// the zero-allocation publish path.
///
/// Every session owns one `SlideScratch` and recycles it across slides:
///
/// * the **snapshot stage**: the buffer a slide's translated top-k is
///   built into before it is either published as a fresh
///   [`Snapshot`] (one `Arc` allocation, only
///   when the result changed) or discarded in favour of re-emitting the
///   previous `Arc` (a quiet slide — zero allocations);
/// * the **diff scratch**: the two sorted-id buffers
///   [`diff_snapshots_into`] borrows
///   instead of allocating per slide.
///
/// After the first few slides warm the buffers to their steady-state
/// capacity, completing a slide performs **zero transient allocations**:
/// the only heap activity left is the emitted `Arc` snapshot itself, and
/// only on slides whose result changed. The allocation-regression test
/// (`tests/alloc_regression.rs`) pins this invariant, and the
/// `experiments hotpath` bench preset measures it end to end.
#[derive(Debug, Default)]
pub struct SlideScratch {
    /// Build buffer for the slide's translated snapshot.
    pub(crate) snapshot: Vec<Object>,
    /// Sorted-id membership buffers for the delta diff.
    pub(crate) diff: crate::events::DiffScratch,
}

impl SlideScratch {
    /// Fresh, empty scratch (buffers grow to steady-state capacity over
    /// the first slides and are then recycled).
    pub fn new() -> Self {
        SlideScratch::default()
    }

    /// Stages the untimed view of a timed snapshot into the build buffer.
    pub(crate) fn stage_timed(&mut self, snapshot: &[TimedObject]) {
        self.snapshot.clear();
        self.snapshot
            .extend(snapshot.iter().map(TimedObject::untimed));
    }
}

/// The one slide-emission routine shared by every session flavor:
/// converts the snapshot staged in `scratch` into a [`SlideResult`]
/// against `prev`, advancing the slide counter.
///
/// `known_unchanged` is the engine's `O(1)` no-change proof (SAP's
/// `dirty` flag); with it the diff is skipped outright. When the slide
/// is *provably* identical to the previous one — the engine's proof, an
/// empty-to-empty slide, or a byte-equal snapshot — the previous `Arc`
/// is re-emitted, so quiet slides allocate nothing; otherwise the staged
/// buffer materializes into one fresh shared `Arc`. The content check
/// matters beyond saving the allocation: the delta diff pairs objects by
/// external id, so a caller who reuses an id inside one window (the docs
/// ask for uniqueness, but nothing rejects it) can produce an
/// `[Unchanged]` delta over *changed* contents — the emitted snapshot
/// must still be the fresh one.
fn emit_staged(
    prev: &mut Snapshot,
    slides: &mut u64,
    scratch: &mut SlideScratch,
    known_unchanged: bool,
) -> SlideResult {
    let mut events = EventList::new();
    diff_snapshots_into(
        prev,
        &scratch.snapshot,
        known_unchanged,
        &mut scratch.diff,
        &mut events,
    );
    let proven_identical = known_unchanged
        || events.is_empty()
        || (events.is_unchanged() && prev.as_slice() == scratch.snapshot.as_slice());
    let snapshot = if proven_identical {
        prev.clone()
    } else {
        Snapshot::from_slice(&scratch.snapshot)
    };
    let result = SlideResult {
        slide: *slides,
        snapshot: snapshot.clone(),
        events,
    };
    *prev = snapshot;
    *slides += 1;
    result
}

/// The class-level half of [`emit_staged`]: turns the snapshot staged in
/// `scratch` into one shared [`Snapshot`] plus the delta `events`,
/// advancing the class's `prev` — identical proven-identical logic, but
/// without a slide counter or a [`SlideResult`] wrapper, because a result
/// class computes once and each member stamps its own id and counter onto
/// the shared artifacts (see `crate::registry`'s result classes).
pub(crate) fn close_staged(
    prev: &mut Snapshot,
    scratch: &mut SlideScratch,
    events: &mut EventList,
) -> Snapshot {
    diff_snapshots_into(prev, &scratch.snapshot, false, &mut scratch.diff, events);
    let proven_identical = events.is_empty()
        || (events.is_unchanged() && prev.as_slice() == scratch.snapshot.as_slice());
    let snapshot = if proven_identical {
        prev.clone()
    } else {
        Snapshot::from_slice(&scratch.snapshot)
    };
    *prev = snapshot.clone();
    snapshot
}

/// A session: one algorithm instance plus the ingestion buffer, the id
/// translation ring, the previous emission used for delta computation,
/// and the pooled [`SlideScratch`].
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
    /// Score of ordinal `o`, parallel to `ring`. Emissions don't need it
    /// (the engine returns scores), but a checkpoint does: it lets the
    /// session write its full window contents without any engine
    /// cooperation, which is what makes replay-based restore engine-
    /// agnostic. Fixed-size, so the publish path stays allocation-free.
    ring_scores: Vec<f64>,
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
            ring_scores: vec![0.0; spec.n + spec.s],
            scratch: SlideScratch::new(),
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

    /// Renumbers one arrival to its ordinal, recording the external id in
    /// the translation ring, and buffers it. Never allocates: `pending`
    /// was sized to `s` at construction and the ring is fixed.
    #[inline]
    fn buffer_one(&mut self, o: &Object) {
        let cap = self.ring.len() as u64;
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        self.ring[(ordinal % cap) as usize] = o.id;
        self.ring_scores[(ordinal % cap) as usize] = o.score;
        self.pending.push(Object::new(ordinal, o.score));
    }

    /// Feeds the full pending buffer (exactly `s` renumbered objects) to
    /// the engine and translates the emission back to external ids —
    /// staged in the pooled scratch, so the only possible allocation is
    /// the shared `Arc` snapshot of a *changed* result.
    fn complete_slide(&mut self) -> SlideResult {
        let cap = self.ring.len() as u64;
        {
            let top = self.alg.slide(&self.pending);
            self.scratch.snapshot.clear();
            let ring = &self.ring;
            self.scratch.snapshot.extend(
                top.iter()
                    .map(|o| Object::new(ring[(o.id % cap) as usize], o.score)),
            );
        }
        self.pending.clear();
        let quiet = !self.alg.last_slide_changed();
        emit_staged(&mut self.prev, &mut self.slides, &mut self.scratch, quiet)
    }

    /// Writes the session's checkpoint body: the slide counter, the
    /// engine's current window contents as `(external id, score)` pairs,
    /// and the pending buffer. No engine internals are written — a
    /// count-based engine is an exact top-k function of its window, so
    /// restore rebuilds a fresh engine and **replays** the retained
    /// window through the normal push path, reproducing the engine's
    /// observable state (and every future emission) byte-for-byte.
    pub(crate) fn encode_checkpoint_body(&self, enc: &mut Encoder) {
        let spec = self.alg.spec();
        let cap = self.ring.len() as u64;
        enc.put_u64(self.slides);
        // ordinals currently inside the engine's window: the last
        // min(fed, n) of the `fed` objects handed over in full slides
        let fed = self.next_ordinal - self.pending.len() as u64;
        let window_len = fed.min(spec.n as u64);
        enc.put_u64(window_len);
        for ordinal in (fed - window_len)..fed {
            let slot = (ordinal % cap) as usize;
            enc.put_u64(self.ring[slot]);
            enc.put_f64(self.ring_scores[slot]);
        }
        enc.put_u64(self.pending.len() as u64);
        for o in &self.pending {
            // pending objects carry their ordinal; the external id lives
            // in the translation ring
            enc.put_u64(self.ring[(o.id % cap) as usize]);
            enc.put_f64(o.score);
        }
    }

    /// Rebuilds a session from its checkpoint body by replay: `engine`
    /// must be fresh (as built by an
    /// [`EngineFactory`]); the retained window and
    /// pending buffer are re-pushed through the normal ingestion path
    /// (emissions discarded), then the slide counter is restored so the
    /// next emission carries the original slide index. Replayed arrival
    /// ordinals restart at 0 — harmless, because translation and
    /// tie-breaks depend only on ordinal *ordering*, which replay
    /// preserves.
    pub(crate) fn decode_checkpoint_body(
        engine: A,
        dec: &mut Decoder<'_>,
    ) -> Result<Self, CheckpointError> {
        let spec = engine.spec();
        let slides = dec.take_u64()?;
        let window: Vec<Object> = dec.take_seq()?;
        let pending: Vec<Object> = dec.take_seq()?;
        if window.len() > spec.n {
            return Err(CheckpointError::Corrupt("session window exceeds n"));
        }
        if !window.len().is_multiple_of(spec.s) {
            return Err(CheckpointError::Corrupt(
                "session window is not slide-aligned",
            ));
        }
        if pending.len() >= spec.s {
            return Err(CheckpointError::Corrupt(
                "session pending spans a full slide",
            ));
        }
        if slides < (window.len() / spec.s) as u64 {
            return Err(CheckpointError::Corrupt(
                "session slide counter behind its window",
            ));
        }
        let mut session = Session::new(engine);
        session.push_each(&window, &mut |_| {});
        session.push_each(&pending, &mut |_| {});
        debug_assert_eq!(session.pending.len(), pending.len());
        session.slides = slides;
        Ok(session)
    }
}

impl<A: SlidingTopK> Ingest for Session<A> {
    fn push(&mut self, objects: &[Object]) -> Vec<SlideResult> {
        let mut out = Vec::new();
        self.push_into(objects, &mut out);
        out
    }

    fn push_each(&mut self, objects: &[Object], f: &mut dyn FnMut(SlideResult)) {
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

    /// The buffering fast path: an object that does not complete a slide
    /// is renumbered into the pre-sized pending buffer and the call
    /// returns `None` **without touching the heap** — unlike the default,
    /// which routes through the batch path's output `Vec`.
    fn push_one(&mut self, object: Object) -> Option<SlideResult> {
        self.buffer_one(&object);
        if self.pending.len() == self.alg.spec().s {
            Some(self.complete_slide())
        } else {
            None
        }
    }

    fn pending(&self) -> usize {
        self.pending.len()
    }
}

/// A session over a **time-based** query: one [`TimedTopK`] engine plus
/// the previous emission used for delta computation — the event-time
/// counterpart of [`Session`].
///
/// Slides close when timestamps cross slide boundaries, so one
/// [`push_timed`](TimedIngest::push_timed) may emit zero, one, or many
/// [`SlideResult`]s — including results for **empty slides** (a quiet
/// stretch of stream still re-evaluates the window every `slide_duration`
/// time units once a later arrival, or an explicit
/// [`advance_watermark`](TimedIngest::advance_watermark), proves the time
/// has passed). Emitted snapshots carry the caller's ids and scores; the
/// `slide` index counts closed slides from 0, exactly like the
/// count-based session, which is what keeps `(QueryId, slide)` ordering
/// deterministic across hubs.
///
/// Unlike [`Session`], no id renumbering happens here: a
/// [`TimedObject`]'s position in time is its `timestamp`, and its `id` is
/// opaque to the engine except for tie-breaking (equal scores resolve by
/// slide recency, then by descending id within a slide — see the
/// [`TimedObject`] docs).
///
/// This is the standalone API, driven on the caller's thread. The hubs
/// never store one: a time-based registration joins its slide group as a
/// [`GroupSession`], whose emissions are byte-identical to this
/// session's over the same stream.
#[derive(Debug)]
pub struct TimedSession<E: TimedTopK> {
    engine: E,
    prev: Snapshot,
    slides: u64,
    scratch: SlideScratch,
}

impl<E: TimedTopK> TimedSession<E> {
    /// Wraps a time-based engine.
    pub fn new(engine: E) -> Self {
        TimedSession {
            engine,
            prev: Snapshot::empty(),
            slides: 0,
            scratch: SlideScratch::new(),
        }
    }

    /// The validated durations this session answers.
    pub fn timed_spec(&self) -> crate::query::TimedSpec {
        crate::query::TimedSpec {
            window_duration: self.engine.window_duration(),
            slide_duration: self.engine.slide_duration(),
            k: self.engine.k(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
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

    /// Unwraps the session, discarding the delta state.
    pub fn into_inner(self) -> E {
        self.engine
    }
}

impl<E: TimedTopK> TimedIngest for TimedSession<E> {
    fn push_timed(&mut self, objects: &[TimedObject]) -> Vec<SlideResult> {
        let mut out = Vec::new();
        self.push_timed_into(objects, &mut out);
        out
    }

    /// Slides travel the engine's borrow-based visitor
    /// ([`TimedTopK::ingest_each`]) straight into the pooled scratch and
    /// out through `f` in one move: with a pooled engine
    /// (`TimeBased<E>`) the only heap activity per completed slide is
    /// the shared `Arc` snapshot of a *changed* result. Engines close
    /// slides eagerly inside one ingest call, so a per-slide dirty flag
    /// is not observable here; the O(k) diff is the honest cost (k is
    /// small), and an unchanged outcome still re-emits the previous
    /// `Arc`.
    fn push_timed_each(&mut self, objects: &[TimedObject], f: &mut dyn FnMut(SlideResult)) {
        let TimedSession {
            engine,
            prev,
            slides,
            scratch,
        } = self;
        for &o in objects {
            engine.ingest_each(o, &mut |snapshot| {
                scratch.stage_timed(snapshot);
                f(emit_staged(prev, slides, scratch, false));
            });
        }
    }

    fn advance_watermark(&mut self, watermark: u64) -> Vec<SlideResult> {
        let mut out = Vec::new();
        self.advance_watermark_into(watermark, &mut out);
        out
    }

    fn advance_watermark_each(&mut self, watermark: u64, f: &mut dyn FnMut(SlideResult)) {
        let TimedSession {
            engine,
            prev,
            slides,
            scratch,
        } = self;
        engine.advance_to_each(watermark, &mut |snapshot| {
            scratch.stage_timed(snapshot);
            f(emit_staged(prev, slides, scratch, false));
        });
    }

    fn pending(&self) -> usize {
        self.engine.pending()
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
    /// A [`Registration::grouped`] query `⟨n, k, s⟩`.
    Arrival,
}

/// A session served by a sharing-plane group: a time-based query on the
/// event clock ([`Registration::shared`], which every time-based
/// registration is) or a count-based one on the arrival clock
/// ([`Registration::grouped`]).
///
/// The member's engine answers SAP's Appendix-A reduction
/// `⟨(n/s)·k, k, k⟩` through a [`SharedTimed`] consumer (durations
/// standing in for `n` and `s` on the event clock), fed each closed
/// slide's top-`k` from its group's one [`DigestProducer`]. Results are
/// byte-identical to an isolated registration of the same query; the
/// per-slide truncation runs once per group instead of once per query.
///
/// The consumer normally lives in the member's **result class** in the
/// registry, shared by every member whose emissions provably coincide
/// (see `crate::registry`); the session keeps the member's own slide
/// counter and previous emission. The session holds a consumer itself
/// while it warms up, after it left its class as the last member, and
/// when it is decoded from a checkpoint, until the restore pools it.
///
/// An event-clock member that registers after its group ingested
/// anything must only observe objects published after its registration,
/// so it **warms up**: a private [`DigestProducer`] serves it until the
/// group slide it joined during has closed. From the next slide on the
/// private and shared views coincide, and the registry seats the member
/// in a class of its own. An isolated time-based session restored from
/// an older checkpoint warms up the same way, on the producer its
/// adapter ran. An arrival-clock member never warms up: it only joins a
/// group whose open slide is empty.
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
    /// The subscription predicate, part of the group's identity: applied
    /// to the private warm-up stream so it matches the group's admitted
    /// stream object for object. Encoded at the registry layer (since
    /// v3), never in the session body; a decoded arrival-clock member
    /// takes its group's.
    predicate: Predicate,
    /// The group slide this member's slide 0 lines up with: the open
    /// slide it joined at on the arrival clock. Always 0 on the event
    /// clock, whose slide indices are global: a mid-stream joiner's
    /// warm-up closes the empty slides before its registration, like an
    /// isolated session does.
    join_slide: u64,
    /// The registry's handle for the member's group: its live id while
    /// registered, an index into the group list while it travels.
    group: u64,
    /// Boxed: few members ever warm up, and every member carries the slot.
    warmup: Option<Box<Warmup>>,
    prev: Snapshot,
    slides: u64,
}

/// The private catch-up view of an event-clock member that joined
/// mid-stream.
#[derive(Debug)]
struct Warmup {
    producer: DigestProducer,
    /// The group's open slide at registration (for a restored isolated
    /// session, the later of its own and its group's). Once the group
    /// has closed it, every later slide started after the registration
    /// and the private view equals the shared one.
    open_slide: u64,
    scratch: SlideScratch,
}

impl<C: SlidingTopK> GroupSession<C> {
    /// Wraps a validated consumer as a member of group `group`, lined up
    /// with group slide `join_slide` (see the field docs).
    pub(crate) fn new(
        clock: Clock,
        consumer: SharedTimed<C>,
        predicate: Predicate,
        join_slide: u64,
        group: u64,
    ) -> Self {
        GroupSession {
            clock,
            window: consumer.window_duration(),
            slide: consumer.slide_duration(),
            k: consumer.k(),
            engine_name: consumer.name().into(),
            consumer: Some(consumer),
            predicate,
            join_slide,
            group,
            warmup: None,
            prev: Snapshot::empty(),
            slides: 0,
        }
    }

    /// Starts the warm-up on the private `producer` of a member that
    /// joins its group while the group is at `open_slide` (see
    /// [`Warmup::open_slide`]).
    pub(crate) fn warm_up(&mut self, producer: DigestProducer, open_slide: u64) {
        self.warmup = Some(Box::new(Warmup {
            producer,
            open_slide,
            scratch: SlideScratch::new(),
        }));
    }

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

    /// The subscription predicate this member ranks under.
    pub(crate) fn predicate(&self) -> Predicate {
        self.predicate
    }

    /// The group slide this member's slide 0 lines up with.
    pub(crate) fn join_slide(&self) -> u64 {
        self.join_slide
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

    /// Stamps the group's predicate onto a decoded arrival-clock member.
    pub(crate) fn set_predicate(&mut self, predicate: Predicate) {
        self.predicate = predicate;
    }

    /// The result-class key: window, `k` and join slide.
    pub(crate) fn class_key(&self) -> (u64, usize, u64) {
        (self.window, self.k, self.join_slide)
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

    /// Hands this member's consumer to a result class.
    pub(crate) fn take_consumer(&mut self) -> Option<SharedTimed<C>> {
        self.consumer.take()
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
        self.warmup.is_some()
    }

    /// Unwraps the session, discarding the delta state — `None` when a
    /// registry result class owns the consumer.
    pub fn into_inner(self) -> Option<SharedTimed<C>> {
        self.consumer
    }

    /// Writes the session's checkpoint body: slide counter, previous
    /// emission, the consumer's reduced window (its own frame), then the
    /// clock's tail — on the event clock the warm-up flag (with the
    /// private producer and the open slide it waits for), on the arrival
    /// clock the join slide and the index of the group in the
    /// checkpoint's `COUNT_GROUPS` section (`group_index`; live group ids
    /// are registry-local).
    ///
    /// A classed member encodes its **class's** consumer (passed as
    /// `class_consumer`): the consumer state is a pure function of the
    /// slide tops it absorbed and the class key every member shares, so
    /// the bytes equal what a private consumer would have written — the
    /// result-class tier changes no checkpoint byte.
    pub(crate) fn encode_checkpoint_body(
        &self,
        enc: &mut Encoder,
        class_consumer: Option<&SharedTimed<C>>,
        group_index: u64,
    ) {
        let consumer = self
            .consumer
            .as_ref()
            .or(class_consumer)
            .expect("a classed member encodes through its class's consumer");
        enc.put_u64(self.slides);
        self.prev.encode_state(enc);
        enc.section(tags::ENGINE, |e| consumer.encode_state(e));
        match self.clock {
            Clock::Event => match &self.warmup {
                None => enc.put_u8(0),
                Some(w) => {
                    enc.put_u8(1);
                    enc.put_u64(w.open_slide);
                    w.producer.encode_state(enc);
                }
            },
            Clock::Arrival => {
                enc.put_u64(self.join_slide);
                enc.put_u64(group_index);
            }
        }
    }

    /// Rebuilds a session from its checkpoint body. `consumer` must be
    /// fresh (a [`SharedTimed::from_engine`] over a factory-built engine
    /// on the query's reduction); its reduced window is replayed by
    /// [`SharedTimed::restore_state`]. An arrival-clock member's group
    /// handle is its `COUNT_GROUPS` index until the registry rebinds it;
    /// an event-clock member is found its group by key.
    pub(crate) fn decode_checkpoint_body(
        clock: Clock,
        mut consumer: SharedTimed<C>,
        predicate: Predicate,
        dec: &mut Decoder<'_>,
    ) -> Result<Self, CheckpointError> {
        let slides = dec.take_u64()?;
        let prev = Snapshot::decode_state(dec)?;
        let mut blob = dec.section(tags::ENGINE)?;
        consumer.restore_state(&mut blob)?;
        blob.finish()?;
        let mut session = GroupSession::new(clock, consumer, predicate, 0, 0);
        session.slides = slides;
        session.prev = prev;
        match clock {
            Clock::Event => match dec.take_u8()? {
                0 => {}
                1 => {
                    let open_slide = dec.take_u64()?;
                    let producer = DigestProducer::decode_state(dec)?;
                    if producer.slide_duration() != session.slide {
                        return Err(CheckpointError::Corrupt(
                            "warm-up producer disagrees with its session's slide duration",
                        ));
                    }
                    session.warmup = Some(Box::new(Warmup {
                        producer,
                        open_slide,
                        scratch: SlideScratch::new(),
                    }));
                }
                _ => return Err(CheckpointError::Corrupt("bad warm-up flag")),
            },
            Clock::Arrival => {
                session.join_slide = dec.take_u64()?;
                session.group = dec.take_u64()?;
            }
        }
        Ok(session)
    }

    /// Rebuilds an isolated time-based session from its checkpoint body
    /// (session kind 1, which earlier builds wrote): the slide counter,
    /// the previous emission, then its adapter's producer and consumer in
    /// one frame. `consumer` must be fresh, over a factory-built engine on
    /// the query's reduction. Returns a member in step with the producer,
    /// which the registry seats in its slide group, and the producer.
    pub(crate) fn decode_adapter_body(
        mut consumer: SharedTimed<C>,
        dec: &mut Decoder<'_>,
    ) -> Result<(Self, DigestProducer), CheckpointError> {
        let slides = dec.take_u64()?;
        let prev = Snapshot::decode_state(dec)?;
        let mut blob = dec.section(tags::ENGINE)?;
        let producer = DigestProducer::decode_state(&mut blob)?;
        if producer.slide_duration() != consumer.slide_duration() {
            return Err(CheckpointError::Corrupt(
                "adapter producer disagrees with its spec on slide duration",
            ));
        }
        if producer.k_max() < consumer.k() {
            return Err(CheckpointError::Corrupt(
                "adapter producer shallower than the query's k",
            ));
        }
        consumer.restore_state(&mut blob)?;
        blob.finish()?;
        if consumer.slides_applied() != producer.next_slide() {
            return Err(CheckpointError::Corrupt(
                "adapter consumer out of step with its producer",
            ));
        }
        let mut session = GroupSession::new(Clock::Event, consumer, Predicate::default(), 0, 0);
        session.slides = slides;
        session.prev = prev;
        Ok((session, producer))
    }

    /// The per-member half of a class-computed slide close: stamps this
    /// member's slide counter onto the class's shared snapshot and delta.
    /// Costs two refcount bumps and an inline event copy — zero heap
    /// allocations on a quiet slide (the [`EventList`] spills only past
    /// its inline capacity, which a diff of two `k`-sized snapshots
    /// rarely does, and never when unchanged).
    pub(crate) fn emit_class(
        &mut self,
        snapshot: &Snapshot,
        events: &EventList,
        f: &mut dyn FnMut(SlideResult),
    ) {
        debug_assert!(self.is_classed() && !self.is_warming_up());
        f(SlideResult {
            slide: self.slides,
            snapshot: snapshot.clone(),
            events: events.clone(),
        });
        self.prev = snapshot.clone();
        self.slides += 1;
    }

    /// Warm-up ingestion: feeds the raw batch through the subscription
    /// predicate to the private producer and emits whatever slides it
    /// closes. A rejected object still advances the private event-time
    /// clock (closing any slides its timestamp implies), exactly as it
    /// does in the group's producer — the private and shared views must
    /// close identical slide sequences for the handoff.
    pub(crate) fn push_warmup(&mut self, objects: &[TimedObject], f: &mut dyn FnMut(SlideResult)) {
        let predicate = self.predicate;
        self.warm(f, |producer, close| {
            for &o in objects {
                producer.advance_to_with(o.timestamp, close);
                if predicate.accepts_timed(&o) {
                    producer.ingest_with(o, close);
                }
            }
        });
    }

    /// Warm-up watermark: closes private slides up to `watermark`.
    pub(crate) fn advance_warmup(&mut self, watermark: u64, f: &mut dyn FnMut(SlideResult)) {
        self.warm(f, |producer, close| {
            producer.advance_to_with(watermark, close)
        });
    }

    /// Drives the private producer with `drive`, applying every slide it
    /// closes to the consumer and emitting one [`SlideResult`] per slide.
    /// The closing slide is borrowed and the consumer's output staged in
    /// the pooled scratch, so a quiet slide allocates nothing.
    fn warm(
        &mut self,
        f: &mut dyn FnMut(SlideResult),
        drive: impl FnOnce(&mut DigestProducer, &mut dyn FnMut(DigestView<'_>)),
    ) {
        let GroupSession {
            consumer,
            warmup,
            prev,
            slides,
            ..
        } = self;
        let consumer = consumer
            .as_mut()
            .expect("a warming member owns its consumer");
        let Warmup {
            producer, scratch, ..
        } = &mut **warmup.as_mut().expect("only a warming member warms up");
        drive(producer, &mut |view| {
            scratch.stage_timed(consumer.apply_slide_top(view.slide, view.top));
            f(emit_staged(prev, slides, scratch, false));
        });
    }

    /// Ends warm-up once the group has closed the slide this member
    /// joined during, returning whether it did: from `group_next_slide`
    /// on, the private and shared views are the same (both producers
    /// processed identical timestamps, and every slide past the join
    /// slide started after this session registered).
    pub(crate) fn finish_warmup(&mut self, group_next_slide: u64) -> bool {
        let Some(warmup) = &self.warmup else {
            return false;
        };
        if group_next_slide <= warmup.open_slide {
            return false;
        }
        debug_assert_eq!(
            self.consumer
                .as_ref()
                .expect("a warming member owns its consumer")
                .slides_applied(),
            group_next_slide,
            "warm-up must hand off exactly at the group's slide cursor"
        );
        self.warmup = None;
        true
    }
}

/// A session of any window model — what the hubs store and what
/// [`Hub::unregister`]/`AsyncHub::unregister` hand back. `C` is the
/// engine type (a boxed trait object in the hubs; see [`HubSession`]):
/// an isolated count session runs it on the query's own spec, a group
/// session on the Appendix-A reduction.
#[derive(Debug)]
pub enum AnySession<C: SlidingTopK> {
    /// A count-based session (isolated: private engine).
    Count(Session<C>),
    /// A session served by a sharing-plane group, on either clock —
    /// every time-based query is one.
    Group(GroupSession<C>),
}

impl<C: SlidingTopK> AnySession<C> {
    /// Number of slides completed so far, whichever the window model.
    pub fn slides(&self) -> u64 {
        match self {
            AnySession::Count(s) => s.slides(),
            AnySession::Group(s) => s.slides(),
        }
    }

    /// The most recently emitted top-k (descending), empty before the
    /// first completed slide.
    pub fn last_snapshot(&self) -> &[Object] {
        match self {
            AnySession::Count(s) => s.last_snapshot(),
            AnySession::Group(s) => s.last_snapshot(),
        }
    }

    /// The most recent emission as a refcounted [`Snapshot`] — the same
    /// allocation the emitting [`SlideResult`] carried, so crossing a
    /// shard boundary with it copies nothing.
    pub fn last_snapshot_shared(&self) -> Snapshot {
        match self {
            AnySession::Count(s) => s.last_snapshot_shared(),
            AnySession::Group(s) => s.last_snapshot_shared(),
        }
    }

    /// The count-based session, if that is this session's model.
    pub fn as_count(&self) -> Option<&Session<C>> {
        match self {
            AnySession::Count(s) => Some(s),
            _ => None,
        }
    }

    /// The group session, if that is this session's model.
    pub fn as_group(&self) -> Option<&GroupSession<C>> {
        match self {
            AnySession::Group(s) => Some(s),
            _ => None,
        }
    }

    /// Unwraps a count-based session.
    pub fn into_count(self) -> Option<Session<C>> {
        match self {
            AnySession::Count(s) => Some(s),
            _ => None,
        }
    }

    /// Unwraps a group session.
    pub fn into_group(self) -> Option<GroupSession<C>> {
        match self {
            AnySession::Group(s) => Some(s),
            _ => None,
        }
    }
}

/// The session type both hubs store and return from `unregister`: its
/// engines are [`Send`], so a session can live on an
/// [`AsyncHub`](crate::exec::AsyncHub) shard or move between shards.
pub type HubSession = AnySession<Box<dyn SlidingTopK + Send>>;

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
#[derive(Debug, Clone, PartialEq)]
pub struct QueryUpdate {
    /// Which registered query produced this result.
    pub query: QueryId,
    /// The completed slide. Its snapshot is refcounted — retaining or
    /// cloning an update never copies the top-k.
    pub result: SlideResult,
}

/// A set of concurrently served continuous top-k queries over one stream.
///
/// Each query keeps its own session, so heterogeneous geometries and
/// algorithms coexist: a published object is appended to every session's
/// buffer, and each session slides exactly when *its* boundary is reached.
/// Results are delivered in registration order.
///
/// All window models share the hub, each registered through
/// [`subscribe`](Hub::subscribe) with a [`Registration`] naming its
/// plane. Count-based queries slide on arrival counts; time-based
/// queries slide on event time on the **shared digest plane**, where
/// every query with the same `slide_duration` (and predicate) is served
/// from one per-slide top-`k_max` digest instead of recomputing it per
/// session. A stream published with
/// [`publish_timed`](Hub::publish_timed) feeds all of them: count-based
/// sessions see the objects' `(id, score)` in arrival order, time-based
/// sessions additionally consume the timestamps. The plain
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

    /// Removes a query, returning its session (with the algorithm's full
    /// state). An unknown or already-removed handle is a typed
    /// [`SapError::UnknownQuery`] — never a silent no-op, so callers
    /// cannot mistake a stale handle for a successful removal. A shared
    /// query leaves its slide group; the last member out retires the
    /// group's digest producer.
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

    /// The session behind a handle, whichever its window model.
    pub fn any_session(&self, id: QueryId) -> Option<&HubSession> {
        self.registry.session(id)
    }

    /// The isolated count-based session behind a handle (`None` for
    /// unknown handles and for group members — see
    /// [`group_session`](Hub::group_session)).
    pub fn session(&self, id: QueryId) -> Option<&Session<Box<dyn SlidingTopK + Send>>> {
        self.any_session(id).and_then(AnySession::as_count)
    }

    /// The group session behind a handle — a time-based or grouped
    /// query, on either clock (`None` for unknown handles and for
    /// isolated count queries).
    pub fn group_session(&self, id: QueryId) -> Option<&GroupSession<Box<dyn SlidingTopK + Send>>> {
        self.any_session(id).and_then(AnySession::as_group)
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
        assert_eq!(removed.into_count().expect("count-based").spec().n, 2);
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
        let mut session = TimedSession::new(ToyTimed::new(40, 10, 2));
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
        assert!(hub.session(count).is_some() && hub.group_session(count).is_none());
        assert!(hub.group_session(timed).is_some() && hub.session(timed).is_none());

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
        assert_eq!(hub.group_session(timed).unwrap().slides(), 3);

        // a timed unregister hands its group session back
        let removed = hub.unregister(timed).expect("registered");
        assert_eq!(removed.slides(), 3);
        assert!(removed.into_group().is_some());
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

    #[test]
    fn shared_queries_match_isolated_sessions_exactly() {
        use std::collections::HashMap;
        // three shared consumers over the reduced-spec Toy engine must
        // emit byte-identical results to standalone ToyTimed sessions fed
        // the same chunks, while the digest plane runs one producer per
        // distinct slide duration
        let mut hub = Hub::new();
        let geoms = [(40u64, 10u64, 2usize), (20, 10, 1), (50, 25, 3)];
        let mut pairs = Vec::new();
        for &(wd, sd, k) in &geoms {
            let reduced = (wd / sd) as usize * k;
            let shared = hub
                .subscribe(shared(Toy::new(reduced, k, k), wd, sd))
                .unwrap();
            pairs.push((
                shared,
                TimedSession::new(ToyTimed::new(wd, sd, k)),
                Vec::new(),
            ));
        }
        let data = timed_stream(120);
        let horizon = data.last().unwrap().timestamp + 200;
        let mut by_query: HashMap<QueryId, Vec<SlideResult>> = HashMap::new();
        for chunk in data.chunks(13) {
            for u in hub.publish_timed(chunk) {
                by_query.entry(u.query).or_default().push(u.result);
            }
            for (_, reference, out) in &mut pairs {
                reference.push_timed_into(chunk, out);
            }
        }
        for u in hub.advance_time(horizon) {
            by_query.entry(u.query).or_default().push(u.result);
        }
        for (shared, mut reference, mut out) in pairs {
            reference.advance_watermark_into(horizon, &mut out);
            assert_eq!(
                by_query.get(&shared),
                Some(&out),
                "shared {shared} diverged from its standalone session"
            );
        }
        let stats = hub.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.count_queries, 0);
        assert_eq!(stats.shared_queries, 3);
        assert_eq!(stats.digest_groups, 2, "slide durations 10 and 25");
        assert!(stats.digest_hits > 0);
        assert_eq!(stats.digest_rebuilds, 0, "everyone registered up front");
        assert_eq!(stats.digest_hit_rate(), 1.0);
    }

    #[test]
    fn mid_stream_shared_join_warms_up_then_promotes() {
        use std::collections::HashMap;
        let mut hub = Hub::new();
        let data = timed_stream(160);
        // standalone references, each fed what its shared twin observes
        let mut early_iso = TimedSession::new(ToyTimed::new(40, 10, 2));
        let mut late_iso = TimedSession::new(ToyTimed::new(20, 10, 4));
        let (mut early_out, mut late_out) = (Vec::new(), Vec::new());
        let early_shared = hub.subscribe(shared(Toy::new(8, 2, 2), 40, 10)).unwrap();
        let mut by_query: HashMap<QueryId, Vec<SlideResult>> = HashMap::new();
        let fold = |updates: Vec<QueryUpdate>,
                    by_query: &mut HashMap<QueryId, Vec<SlideResult>>| {
            for u in updates {
                by_query.entry(u.query).or_default().push(u.result);
            }
        };
        for chunk in data[..80].chunks(11) {
            let updates = hub.publish_timed(chunk);
            fold(updates, &mut by_query);
            early_iso.push_timed_into(chunk, &mut early_out);
        }
        // a mid-stream join with a LARGER k deepens the group's digests;
        // until its join slide closes it runs on a private warm-up view
        let late_shared = hub.subscribe(shared(Toy::new(8, 4, 4), 20, 10)).unwrap();
        assert!(hub.group_session(late_shared).unwrap().is_warming_up());
        for chunk in data[80..].chunks(11) {
            let updates = hub.publish_timed(chunk);
            fold(updates, &mut by_query);
            early_iso.push_timed_into(chunk, &mut early_out);
            late_iso.push_timed_into(chunk, &mut late_out);
        }
        let horizon = data.last().unwrap().timestamp + 100;
        let updates = hub.advance_time(horizon);
        fold(updates, &mut by_query);
        early_iso.advance_watermark_into(horizon, &mut early_out);
        late_iso.advance_watermark_into(horizon, &mut late_out);
        assert!(
            !hub.group_session(late_shared).unwrap().is_warming_up(),
            "the group closed the join slide, so the member promoted"
        );
        assert_eq!(by_query.get(&early_shared), Some(&early_out));
        assert_eq!(by_query.get(&late_shared), Some(&late_out));
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
        assert_eq!(hub.group_session(q).unwrap().slides(), 1);
        assert!(hub.session(q).is_none());
        let session = hub.unregister(q).unwrap();
        let left = session.into_group().expect("group model");
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
        assert!(!hub.group_session(q2).unwrap().is_warming_up());
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
        assert_eq!(hub.group_session(timed).unwrap().slides(), 0);
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
