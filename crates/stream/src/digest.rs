//! The shared per-slide digest plane (paper Appendix A, shared across
//! queries).
//!
//! SAP's Appendix-A reduction answers a time-based query by reducing each
//! closed slide to its top-`k` objects and feeding that reduced stream to
//! a count-based engine. The key observation behind *sharing* (cf.
//! Vouzoukidou et al., "Continuous Top-k Queries over Real-Time Web
//! Streams"): every timed query with the same `slide_duration` closes
//! slides at identical watermarks, regardless of `window_duration` — so
//! the per-slide top-`k_max` list is one artifact that can serve **every**
//! overlapping query with `k ≤ k_max`. This module holds its two halves:
//!
//! * [`DigestProducer`] — ingests the raw timed stream once per *slide
//!   group* and closes each slide into its top-`k_max`, in result order,
//!   lent as a borrowed [`DigestView`] inside the close. This is the
//!   **one copy** of the slide-truncation and tie-break rules in the
//!   workspace;
//! * [`SharedTimed`] — a consumer that slices its own prefix from each
//!   view and feeds its private count-based reduction (the synthetic-id
//!   ring + padding machinery), producing results byte-identical to a
//!   standalone session. When its engine proves a slide unchanged
//!   ([`SlidingTopK::slide_if_changed`]), the consumer says so in `O(1)`,
//!   and the hubs re-emit the previous snapshot without translating or
//!   diffing. A consumer whose answers a deeper consumer of the same
//!   window already computes can be **parked**: its slides advance its
//!   ring alone, its engine stays fresh, and
//!   [`rehydrate`](SharedTimed::rehydrate) replays the ring into the
//!   engine when it has to serve on its own (see the type docs).
//!
//! A standalone [`TimedSession`](crate::session::TimedSession) is one
//! producer wired to one consumer; the hubs wire one producer to *many*
//! consumers (see `Registration::shared`), which is where the shared
//! plane earns its keep: 500 queries over 4 slide durations cost 4
//! truncation passes per slide instead of 500.
//!
//! The **count-group plane** (`Registration::grouped`, which every
//! count registration is) rides the same two types from the count-based
//! side: a geometry class of count queries — same slide length `s`, same
//! registration offset mod `s` — closes slides on the same published
//! object, so the registry runs one `DigestProducer` per class on an
//! arrival clock (object arrival index as the timestamp). A slide of `s`
//! arrivals holds at most `s` objects, so its consumers reduce it at
//! width `min(k, s)` ([`WindowSpec::reduced`]): with `k ≥ s` a consumer's
//! engine runs the query's own spec on exactly the stream a standalone
//! session feeds it. Both planes serve their members inside the close,
//! from the borrowed [`DigestView`], through
//! [`SharedTimed::apply_slide_top`]; on the arrival clock one ring of
//! external ids per group translates the view's ordinal ids back to
//! real objects (see the registry's result classes).
//!
//! ```
//! use sap_stream::{DigestProducer, TimedObject};
//!
//! // one digest plane for every query sliding each 10 time units,
//! // deep enough for the largest subscriber (k_max = 2)
//! let mut producer = DigestProducer::new(10, 2);
//! let mut closed = Vec::new();
//! for (id, t, score) in [(0, 3, 5.0), (1, 7, 9.0), (2, 12, 7.0)] {
//!     // crossing t = 10 closes the slide [0, 10); a consumer with
//!     // k = 1 slices its prefix from the same view
//!     producer.ingest_with(TimedObject::new(id, t, score), &mut |view| {
//!         closed.push((view.slide, view.top[0].id, view.prefix(1).len()))
//!     });
//! }
//! assert_eq!(closed, [(0, 1, 1)], "slide 0, descending result order");
//! ```

use std::collections::VecDeque;

use crate::checkpoint::{CheckpointError, DecodeState, Decoder, Encoder};
use crate::metrics::OpStats;
use crate::object::{Object, TimedObject};
use crate::query::TimedSpec;
use crate::window::{SlidingTopK, SpecError, WindowSpec};

/// Sentinel score used for padding slides with fewer than `w` objects:
/// `−∞`, so a pad ranks strictly below every finite score, `f64::MIN`
/// included. A pad's ring slot is `None`, which keeps it out of results
/// and out of checkpoints (a `None` slot carries no score). Ranking pads
/// last is what makes top-k answers nest across consumers of one
/// window: a consumer's result is the first `k` of a deeper consumer's.
const PAD_SCORE: f64 = f64::NEG_INFINITY;

/// The result order of every slide truncation: descending score, equal
/// scores to the **higher id** (see [`DigestProducer::close_slide_with`]).
pub(crate) fn result_order(a: &TimedObject, b: &TimedObject) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(b.id.cmp(&a.id))
}

/// A borrowed view of a slide the producer is closing *right now*: one
/// closed slide's top-`k_max` objects, valid only inside a
/// [`DigestProducer::close_slide_with`] callback. A `TimedSession` (one
/// producer, one consumer) and the hubs (one producer, every result class
/// of a group) apply the view inside the close, so nothing is
/// materialized per slide.
#[derive(Debug, Clone, Copy)]
pub struct DigestView<'a> {
    /// 0-based index of the closing slide.
    pub slide: u64,
    /// The slide's end timestamp (exclusive).
    pub end: u64,
    /// The slide's top objects in **result order** (descending score,
    /// ties to the higher id), at most `k_max` of them — fewer when the
    /// slide held fewer objects, empty for an empty slide.
    pub top: &'a [TimedObject],
}

impl DigestView<'_> {
    /// The top-`k` prefix of this view — exactly what a consumer with
    /// result size `k ≤ k_max` would have computed from the raw slide
    /// (the result order is total, so prefixes of the truncation are
    /// truncations).
    #[inline]
    pub fn prefix(&self, k: usize) -> &[TimedObject] {
        &self.top[..k.min(self.top.len())]
    }
}

/// Ingests a timed stream once and reduces every closed slide to its
/// top-`k_max` digest — the producer half of the shared digest plane.
///
/// Holds only the still-open slide's objects (untruncated), so
/// [`grow_k_max`](DigestProducer::grow_k_max) is exact at any point:
/// truncation happens at close time, never earlier. Slide boundaries are
/// global multiples of `slide_duration` starting at time 0, which is what
/// lets every producer (a standalone `TimedSession`'s included) with
/// the same `slide_duration` agree on slide indices.
#[derive(Debug)]
pub struct DigestProducer {
    slide_duration: u64,
    k_max: usize,
    /// End (exclusive) of the slide currently accumulating.
    slide_end: u64,
    /// Index of the slide currently accumulating (= slides closed so far).
    next_slide: u64,
    pending: Vec<TimedObject>,
}

impl DigestProducer {
    /// A fresh producer for slides of `slide_duration` time units, keeping
    /// each slide's top `k_max`. `slide_duration` must be positive and
    /// `k_max` at least 1 (callers validate through [`TimedSpec`]).
    pub fn new(slide_duration: u64, k_max: usize) -> Self {
        assert!(slide_duration > 0, "slide_duration must be positive");
        assert!(k_max > 0, "k_max must be at least 1");
        DigestProducer {
            slide_duration,
            k_max,
            slide_end: slide_duration,
            next_slide: 0,
            pending: Vec::new(),
        }
    }

    /// Time units per slide.
    pub fn slide_duration(&self) -> u64 {
        self.slide_duration
    }

    /// Current digest depth: how many objects each closed slide retains.
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// Index of the slide currently accumulating (= digests emitted so
    /// far).
    pub fn next_slide(&self) -> u64 {
        self.next_slide
    }

    /// Number of objects buffered in the still-open slide.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The still-open slide's buffered objects, in arrival order — what
    /// the admission plane rebuilds its dominance gate from when a
    /// group's `k_max` changes mid-slide.
    pub fn pending(&self) -> &[TimedObject] {
        &self.pending
    }

    /// Whether the producer has never ingested anything (no closed slides
    /// and an empty open slide) — the state in which a new consumer can
    /// attach with nothing to catch up on.
    pub fn is_pristine(&self) -> bool {
        self.next_slide == 0 && self.pending.is_empty()
    }

    /// Deepens the digests to `k_max ≥` the current depth (shrinking is a
    /// no-op: digests may always be deeper than a consumer needs). Exact
    /// even mid-slide, because the open slide is held untruncated.
    pub fn grow_k_max(&mut self, k_max: usize) {
        self.k_max = self.k_max.max(k_max);
    }

    /// Sets the digest depth exactly — including shrinking it, when the
    /// deepest consumer leaves. Exact at any point for the same reason as
    /// [`grow_k_max`](DigestProducer::grow_k_max): truncation only
    /// happens at close time, never on the open slide.
    pub fn set_k_max(&mut self, k_max: usize) {
        assert!(k_max > 0, "k_max must be at least 1");
        self.k_max = k_max;
    }

    /// Ingests one object (timestamps must be non-decreasing): calls `f`
    /// with a borrowed [`DigestView`] for every slide boundary
    /// `o.timestamp` crosses, oldest first, then buffers `o`.
    pub fn ingest_with(&mut self, o: TimedObject, f: &mut dyn FnMut(DigestView<'_>)) {
        self.advance_to_with(o.timestamp, f);
        self.pending.push(o);
    }

    /// Whether [`advance_to_with`](DigestProducer::advance_to_with)
    /// `watermark` would close a slide.
    pub(crate) fn closes_by(&self, watermark: u64) -> bool {
        watermark >= self.slide_end
    }

    /// Closes every slide ending at or before `watermark` (empty slides
    /// included), calling `f` with a borrowed [`DigestView`] per closed
    /// slide, oldest first.
    pub fn advance_to_with(&mut self, watermark: u64, f: &mut dyn FnMut(DigestView<'_>)) {
        while self.closes_by(watermark) {
            self.close_slide_with(&mut *f);
        }
    }

    /// Closes the open slide in place, even if its time has not elapsed
    /// (useful at end of stream), handing `f` a borrowed view of the
    /// truncated top list — **zero allocations**: the pending buffer is
    /// sorted in place, the view borrows it, and the buffer keeps its
    /// capacity for the next slide.
    ///
    /// This is the workspace's single copy of the slide truncation rule:
    /// the slide reduces to its top-`k_max` under the result order, where
    /// equal scores break toward the **higher id** — the time-based result
    /// order says newer wins, so when a tie straddles the top-`k` boundary
    /// of any consumer the newer object must be the one that survives.
    pub fn close_slide_with<R>(&mut self, f: impl FnOnce(DigestView<'_>) -> R) -> R {
        self.pending.sort_unstable_by(result_order);
        let keep = self.k_max.min(self.pending.len());
        let result = f(DigestView {
            slide: self.next_slide,
            end: self.slide_end,
            top: &self.pending[..keep],
        });
        self.pending.clear();
        self.next_slide += 1;
        self.slide_end += self.slide_duration;
        result
    }

    /// Writes the producer's full state (geometry, slide position, the
    /// open slide's untruncated buffer) — the digest-group half of a hub
    /// checkpoint.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.slide_duration);
        enc.put_usize(self.k_max);
        enc.put_u64(self.next_slide);
        enc.put_seq(&self.pending);
    }

    /// Rebuilds a producer from [`encode_state`](DigestProducer::encode_state)
    /// bytes, re-deriving `slide_end` from the slide index (boundaries
    /// are global multiples of `slide_duration`).
    pub fn decode_state(dec: &mut Decoder<'_>) -> Result<DigestProducer, CheckpointError> {
        let slide_duration = dec.take_u64()?;
        let k_max = dec.take_usize()?;
        let next_slide = dec.take_u64()?;
        let pending: Vec<TimedObject> = dec.take_seq()?;
        if slide_duration == 0 {
            return Err(CheckpointError::Corrupt("digest slide_duration is zero"));
        }
        if k_max == 0 {
            return Err(CheckpointError::Corrupt("digest k_max is zero"));
        }
        let slide_end = next_slide
            .checked_add(1)
            .and_then(|s| s.checked_mul(slide_duration))
            .ok_or(CheckpointError::Corrupt("digest slide position overflows"))?;
        if pending.iter().any(|o| o.timestamp >= slide_end) {
            return Err(CheckpointError::Corrupt(
                "digest pending object past the open slide's end",
            ));
        }
        Ok(DigestProducer {
            slide_duration,
            k_max,
            slide_end,
            next_slide,
            pending,
        })
    }
}

/// The consumer half of the shared digest plane: answers one windowed
/// query by slicing its prefix from each closed slide's [`DigestView`]
/// and feeding its private count-based reduction — the wrapped engine
/// `E` with the synthetic-id ring that translates engine output back to
/// the caller's objects. Each slide reduces to its top-`w`, padded to
/// exactly `w` objects: a time-based query `W⟨n, s⟩` runs at `w = k`,
/// over the Appendix-A spec `⟨(n/s)·k, k, k⟩`
/// ([`from_engine`](SharedTimed::from_engine)); a count query `⟨n, k,
/// s⟩` on the arrival clock at `w = min(k, s)`, since a slide of `s`
/// arrivals never holds more, over `⟨(n/s)·w, k, w⟩` — the query's own
/// spec when `k ≥ s` ([`from_count_engine`](SharedTimed::from_count_engine)).
///
/// Results are **byte-identical** to a standalone session over the same
/// stream: the digest's prefix is exactly the truncation the consumer
/// would have computed itself (the result order is total), and everything
/// downstream of the truncation is private per-consumer state.
///
/// ## Parked consumers
///
/// Top-k answers nest: a window's top-`k` is the first `k` of its
/// top-`k'` for any `k' ≥ k` (pads rank last, see `PAD_SCORE`). So when
/// a deeper consumer of the same window serves a result's prefix, this
/// one need not run its engine at all. It is then **parked**: each slide
/// advances only its ring and slide count (a ring-only step the hubs
/// take for every result class that shares another class's reduction),
/// while its engine stays fresh. A parked consumer writes exactly the
/// checkpoint bytes a running one would, since those are its ring and
/// slide count, and a restore rebuilds every consumer parked
/// ([`restore_state`](SharedTimed::restore_state)).
/// [`rehydrate`](SharedTimed::rehydrate) replays the ring into the fresh
/// engine and ends the parking;
/// [`apply_slide_top`](SharedTimed::apply_slide_top) rehydrates
/// first, so a parked consumer handed back by a hub serves on as if it
/// had run all along. Until then its [`engine`](SharedTimed::engine),
/// [`candidate_count`](SharedTimed::candidate_count) and
/// [`last_result`](SharedTimed::last_result) are those of a fresh engine.
#[derive(Debug)]
pub struct SharedTimed<E: SlidingTopK> {
    inner: E,
    k: usize,
    /// Slots per reduced slide: the engine's slide length `w`.
    width: usize,
    window_duration: u64,
    slide_duration: u64,
    /// synthetic id → original object (None for padding), ring of the last
    /// `n'` synthetic slots.
    ring: VecDeque<Option<TimedObject>>,
    ring_base: u64,
    next_synth_id: u64,
    /// Digests applied so far = the slide index expected next.
    slides_applied: u64,
    /// Whether slides were applied to the ring only: the engine is still
    /// fresh and lags the ring until [`rehydrate`](SharedTimed::rehydrate).
    parked: bool,
    result: Vec<TimedObject>,
    /// Pooled per-digest scratch: the padded reduced-stream batch fed to
    /// the engine.
    batch: Vec<Object>,
}

impl<E: SlidingTopK> SharedTimed<E> {
    /// Wraps an existing count-based engine as a digest consumer for the
    /// last `window_duration` time units, sliding every `slide_duration`.
    /// The engine must already be configured over the reduction of those
    /// durations — `⟨(n/s)·k, k, k⟩` for its own `k` — else
    /// [`SpecError::ReducedSpecMismatch`]; and it must be fresh (the id
    /// translation assumes the reduced stream starts at arrival ordinal
    /// 0), else [`SpecError::EngineNotFresh`].
    pub fn from_engine(
        inner: E,
        window_duration: u64,
        slide_duration: u64,
    ) -> Result<Self, SpecError> {
        let expected =
            TimedSpec::new(window_duration, slide_duration, inner.spec().k)?.reduced()?;
        SharedTimed::over(inner, window_duration, slide_duration, expected)
    }

    /// Wraps an existing count-based engine as the arrival-clock consumer
    /// of the count query `⟨n, k, s⟩`, `k` being the engine's. The engine
    /// must run [`WindowSpec::reduced`] of that query and be fresh, with
    /// the errors of [`from_engine`](SharedTimed::from_engine).
    pub fn from_count_engine(inner: E, n: usize, s: usize) -> Result<Self, SpecError> {
        let expected = WindowSpec::new(n, inner.spec().k, s)?.reduced();
        SharedTimed::over(inner, n as u64, s as u64, expected)
    }

    fn over(inner: E, window: u64, slide: u64, expected: WindowSpec) -> Result<Self, SpecError> {
        let got = inner.spec();
        if got != expected {
            return Err(SpecError::ReducedSpecMismatch { expected, got });
        }
        if inner.candidate_count() != 0 || inner.stats() != OpStats::default() {
            return Err(SpecError::EngineNotFresh);
        }
        Ok(SharedTimed {
            k: got.k,
            width: got.s,
            inner,
            window_duration: window,
            slide_duration: slide,
            ring: VecDeque::with_capacity(got.n.saturating_add(got.s)),
            ring_base: 0,
            next_synth_id: 0,
            slides_applied: 0,
            parked: false,
            result: Vec::new(),
            batch: Vec::with_capacity(got.s),
        })
    }

    /// Number of time units per window.
    pub fn window_duration(&self) -> u64 {
        self.window_duration
    }

    /// Number of time units per slide.
    pub fn slide_duration(&self) -> u64 {
        self.slide_duration
    }

    /// Result size per slide.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The wrapped count-based engine (serving the reduced stream).
    pub fn engine(&self) -> &E {
        &self.inner
    }

    /// The engine's reduced-stream spec `⟨(n/s)·w, k, w⟩`.
    pub fn reduced_spec(&self) -> WindowSpec {
        self.inner.spec()
    }

    /// Digests applied so far = the slide index the next digest must
    /// carry.
    pub fn slides_applied(&self) -> u64 {
        self.slides_applied
    }

    /// Current candidate count of the underlying engine.
    pub fn candidate_count(&self) -> usize {
        self.inner.candidate_count()
    }

    /// The most recent result.
    pub fn last_result(&self) -> &[TimedObject] {
        &self.result
    }

    /// The engine's display name.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Whether the consumer is parked: slides reached its ring only, and
    /// its engine is still fresh (see the type docs).
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Ends the parking: replays the ring into the fresh engine, which
    /// rebuilds the engine's candidate state and the retained result
    /// exactly as the live consumer holds them — the one replay, which a
    /// restore runs too. A no-op on a consumer that is not parked. Costs
    /// one engine slide per slide the ring holds.
    ///
    /// A slide's slots are its kept prefix reversed (see `push_slide`):
    /// reversed again, each replayed slide rebuilds the ring slot for
    /// slot, as slides `0, 1, …`, and the older slides count as applied
    /// and expired from the window.
    pub fn rehydrate(&mut self) {
        if !std::mem::take(&mut self.parked) {
            return;
        }
        let tops: Vec<Vec<TimedObject>> = self
            .ring
            .drain(..)
            .collect::<Vec<_>>()
            .chunks(self.width)
            .map(|slide| slide.iter().rev().flatten().copied().collect())
            .collect();
        let applied = self.slides_applied;
        (self.ring_base, self.next_synth_id, self.slides_applied) = (0, 0, 0);
        for (slide, top) in tops.iter().enumerate() {
            self.apply_slide_top(slide as u64, top);
        }
        self.slides_applied = applied;
    }

    /// Applies one closed slide, given its index and top list (a live
    /// [`DigestView`]'s, or a replayed ring group — `top` may be any depth
    /// `≥ w`; only the own-`w` prefix is consumed): pads the prefix to
    /// exactly `w` synthetic objects, advances the wrapped engine by one
    /// reduced-stream slide, and translates the emission back to the
    /// caller's objects. Slides must arrive gap-free in slide order, from
    /// a producer with `k_max ≥ w` — the hubs and `TimedSession`
    /// guarantee both. A parked consumer rehydrates first.
    ///
    /// Returns a borrow of the consumer's retained result (valid until
    /// the next apply), or `None` when the engine proved its top-k
    /// unchanged ([`SlidingTopK::slide_if_changed`]): the retained result
    /// then stands as it was, so a caller that re-emits its previous
    /// emission skips the translation and the diff. Built entirely from
    /// pooled buffers: applying a slide performs zero allocations after
    /// warm-up.
    pub fn apply_slide_top(&mut self, slide: u64, top: &[TimedObject]) -> Option<&[TimedObject]> {
        self.rehydrate();
        let first = self.next_synth_id;
        self.push_slide(slide, top);
        // the engine's batch is the slide's fresh slots, in ring order
        let fresh = self.ring.range(self.ring.len() - self.width..);
        self.batch.clear();
        self.batch
            .extend((first..).zip(fresh).map(|(id, slot)| match slot {
                Some(orig) => Object::new(id, orig.score),
                None => Object {
                    id,
                    score: PAD_SCORE,
                },
            }));
        let top = self.inner.slide_if_changed(&self.batch)?;
        self.result.clear();
        for obj in top {
            // a pad's slot is `None`: only real objects reach the result
            let idx = (obj.id - self.ring_base) as usize;
            if let Some(Some(orig)) = self.ring.get(idx) {
                self.result.push(*orig);
            }
        }
        Some(&self.result)
    }

    /// The ring-only step of a parked consumer: applies one closed slide
    /// like [`apply_slide_top`](SharedTimed::apply_slide_top) does, to the
    /// ring and the slide count alone, and leaves the engine fresh. Only
    /// a fresh or parked consumer may take it.
    pub(crate) fn park_slide(&mut self, slide: u64, top: &[TimedObject]) {
        debug_assert!(
            self.parked || self.slides_applied == 0,
            "only a fresh or parked consumer parks"
        );
        self.parked = true;
        self.push_slide(slide, top);
    }

    /// The ring half of applying a slide: appends its `w` slots, keeps
    /// the last `n'`, and counts the slide.
    fn push_slide(&mut self, slide: u64, top: &[TimedObject]) {
        debug_assert_eq!(
            slide, self.slides_applied,
            "digests must be applied gap-free in slide order"
        );
        // Synthetic ids are assigned in ring order, and the engine
        // tie-breaks equal scores by the higher synthetic id — so the
        // kept prefix goes in reversed (ascending score, equal scores in
        // ascending caller-id order), making the newer of two equal-score
        // survivors win inside the engine too; the order among unequal
        // scores decides nothing. Pads trail.
        let kept = &top[..self.width.min(top.len())];
        self.ring.extend(kept.iter().rev().copied().map(Some));
        self.ring
            .extend(std::iter::repeat_n(None, self.width - kept.len()));
        self.next_synth_id += self.width as u64;
        while self.ring.len() > self.inner.spec().n {
            self.ring.pop_front();
            self.ring_base += 1;
        }
        self.slides_applied += 1;
    }

    /// Writes the consumer's reduced window — the synthetic-id ring and
    /// the slide position. Everything else (`ring_base`, `next_synth_id`,
    /// the retained result, the wrapped engine's candidate structures) is
    /// reproduced after a restore by replaying the ring through the normal
    /// apply path ([`rehydrate`](SharedTimed::rehydrate)), so no engine
    /// internals ever hit the wire — and a parked consumer writes the same
    /// bytes as a running one.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.ring.len() as u64);
        for slot in &self.ring {
            match slot {
                Some(o) => {
                    enc.put_u8(1);
                    enc.put_u64(o.id);
                    enc.put_u64(o.timestamp);
                    enc.put_f64(o.score);
                }
                None => enc.put_u8(0),
            }
        }
        enc.put_u64(self.slides_applied);
    }

    /// Restores [`encode_state`](SharedTimed::encode_state) bytes into a
    /// **fresh** consumer (as produced by
    /// [`from_engine`](SharedTimed::from_engine) or
    /// [`from_count_engine`](SharedTimed::from_count_engine)) as a
    /// **parked** one: its ring and slide count, with the engine still
    /// fresh — exactly what a live consumer that applied those slides to
    /// its ring alone holds, so it writes back the bytes it was read from.
    /// [`rehydrate`](SharedTimed::rehydrate) (or the first apply) replays
    /// the ring into the engine, which is an exact top-k function of its
    /// window, so the consumer then emits byte-identical results. The ring
    /// holds `w` slots per slide, this consumer's own width.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        assert!(
            self.slides_applied == 0 && self.ring.is_empty(),
            "restore_state requires a fresh consumer"
        );
        let len = dec.take_seq_len()?;
        if len % self.width != 0 {
            return Err(CheckpointError::Corrupt(
                "consumer ring length is not a multiple of its width",
            ));
        }
        let groups = len / self.width;
        let full = self.inner.spec().slides_per_window();
        if groups > full {
            return Err(CheckpointError::Corrupt("consumer ring exceeds the window"));
        }
        for _ in 0..len {
            self.ring.push_back(match dec.take_u8()? {
                0 => None,
                1 => Some(TimedObject::decode_state(dec)?),
                _ => return Err(CheckpointError::Corrupt("bad ring slot flag")),
            });
        }
        let slides_applied = dec.take_u64()?;
        if slides_applied < groups as u64 || (groups < full && slides_applied != groups as u64) {
            return Err(CheckpointError::Corrupt(
                "consumer slide count disagrees with its ring",
            ));
        }
        // `ring_base` and `next_synth_id` stay 0: the replay renumbers
        // the synthetic ids from there
        self.slides_applied = slides_applied;
        self.parked = slides_applied > 0;
        Ok(())
    }

    /// The real objects of the retained window, newest first, each with
    /// its age in slides: 0 for the slide applied last. A restore checks
    /// them against the group that will translate them.
    pub(crate) fn window_by_age(&self) -> impl Iterator<Item = (u64, &TimedObject)> {
        let width = self.width as u64;
        (0..)
            .zip(self.ring.iter().rev())
            .filter_map(move |(i, slot)| Some((i / width, slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::Toy;

    fn obj(id: u64, timestamp: u64, score: f64) -> TimedObject {
        TimedObject {
            id,
            timestamp,
            score,
        }
    }

    /// The slides `o` closes, as `(slide, end, top)`.
    fn ingest(p: &mut DigestProducer, o: TimedObject) -> Vec<(u64, u64, Vec<TimedObject>)> {
        let mut out = Vec::new();
        p.ingest_with(o, &mut |v| out.push((v.slide, v.end, v.top.to_vec())));
        out
    }

    #[test]
    fn producer_truncates_with_the_newer_wins_tie_break() {
        let mut p = DigestProducer::new(10, 2);
        for o in [obj(1, 0, 5.0), obj(2, 1, 5.0), obj(3, 2, 1.0)] {
            ingest(&mut p, o);
        }
        let mut closed = Vec::new();
        p.advance_to_with(10, &mut |v| {
            closed.push((v.end, v.top.to_vec(), v.prefix(1).to_vec()))
        });
        // ties break to the higher id, result order is descending
        let (top, prefix) = (vec![obj(2, 1, 5.0), obj(1, 0, 5.0)], vec![obj(2, 1, 5.0)]);
        assert_eq!(closed, [(10, top, prefix)]);
        assert_eq!(p.next_slide(), 1);
    }

    #[test]
    fn producer_closes_empty_slides_on_jumps() {
        let mut p = DigestProducer::new(10, 1);
        ingest(&mut p, obj(0, 5, 7.0));
        let closed = ingest(&mut p, obj(1, 38, 3.0));
        assert_eq!(closed.len(), 3, "slides [0,10) [10,20) [20,30) close");
        assert_eq!(closed[0].2.len(), 1);
        assert!(closed[1].2.is_empty());
        assert_eq!(closed[2], (2, 30, vec![]));
        assert_eq!(p.pending_len(), 1);
    }

    #[test]
    fn grow_k_max_is_exact_mid_slide() {
        let mut p = DigestProducer::new(10, 1);
        for o in [obj(0, 0, 1.0), obj(1, 1, 2.0), obj(2, 2, 3.0)] {
            ingest(&mut p, o);
        }
        // the open slide is untruncated, so deepening now still yields the
        // full top-3 at close
        p.grow_k_max(3);
        p.grow_k_max(2); // shrinking is a no-op
        assert_eq!(p.k_max(), 3);
        let top = p.close_slide_with(|view| view.top.to_vec());
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], obj(2, 2, 3.0));
    }

    #[test]
    fn pristine_reflects_ingestion_not_time() {
        let mut p = DigestProducer::new(10, 1);
        assert!(p.is_pristine());
        ingest(&mut p, obj(0, 3, 1.0));
        assert!(!p.is_pristine(), "pending objects end pristineness");
        let mut p = DigestProducer::new(10, 1);
        p.advance_to_with(25, &mut |_| {});
        assert!(!p.is_pristine(), "closed slides end pristineness");
    }

    /// `Toy` over the Appendix-A reduction of `W⟨wd, sd⟩` top-`k`.
    fn reduced(wd: u64, sd: u64, k: usize) -> Toy {
        let spec = TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap();
        Toy::new(spec.n, spec.k, spec.s)
    }

    #[test]
    fn consumer_validates_the_reduction() {
        // ⟨100, 5, 10⟩ is not the reduction of W⟨100, 10⟩ for k = 5
        let wrong = Toy::new(100, 5, 10);
        assert!(matches!(
            SharedTimed::from_engine(wrong, 100, 10),
            Err(SpecError::ReducedSpecMismatch { .. })
        ));
        let right = reduced(100, 10, 5);
        let c = SharedTimed::from_engine(right, 100, 10).unwrap();
        assert_eq!(c.k(), 5);
        assert_eq!(c.window_duration(), 100);
        assert_eq!(c.slide_duration(), 10);
        assert_eq!(c.reduced_spec(), WindowSpec::new(50, 5, 5).unwrap());
        assert_eq!(c.name(), "toy");
    }

    #[test]
    fn consumer_slices_its_own_k_from_a_deeper_digest() {
        // one producer at k_max = 3 serves consumers with k = 1 and k = 3
        let mut producer = DigestProducer::new(10, 3);
        let mut narrow = SharedTimed::from_engine(reduced(20, 10, 1), 20, 10).unwrap();
        let mut wide = SharedTimed::from_engine(reduced(20, 10, 3), 20, 10).unwrap();
        for o in [obj(0, 1, 5.0), obj(1, 2, 9.0), obj(2, 3, 7.0)] {
            assert!(ingest(&mut producer, o).is_empty());
        }
        // each close applies the borrowed view to both consumers
        let mut served = Vec::new();
        for watermark in [10, 20, 30] {
            producer.advance_to_with(watermark, &mut |v| {
                narrow.apply_slide_top(v.slide, v.top);
                wide.apply_slide_top(v.slide, v.top);
                served.push((narrow.last_result().to_vec(), wide.last_result().to_vec()));
            });
        }
        let (best, all) = (
            obj(1, 2, 9.0),
            vec![obj(1, 2, 9.0), obj(2, 3, 7.0), obj(0, 1, 5.0)],
        );
        // an empty slide expires nothing yet (the window spans 2 slides),
        // one more expires everything
        assert_eq!(
            served,
            [
                (vec![best], all.clone()),
                (vec![best], all),
                (vec![], vec![])
            ]
        );
        assert_eq!(narrow.slides_applied(), 3);
        assert!(narrow.last_result().is_empty());
    }
}
