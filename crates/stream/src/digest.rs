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
//!   diffing.
//!
//! `sap_core`'s `TimeBased<E>` is one producer wired to one consumer; the
//! hubs wire one producer to *many* consumers (see
//! `Registration::shared`), which is where the shared plane earns
//! its keep: 500 queries over 4 slide durations cost 4 truncation passes
//! per slide instead of 500.
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

/// Sentinel score used for padding slides with fewer than `w` objects.
/// A pad's ring slot is `None`, which is what keeps it out of results;
/// the score only ranks it below every finite score above `f64::MIN`.
const PAD_SCORE: f64 = f64::MIN;

/// The result order of every slide truncation: descending score, equal
/// scores to the **higher id** (see [`DigestProducer::close_slide_with`]).
pub(crate) fn result_order(a: &TimedObject, b: &TimedObject) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(b.id.cmp(&a.id))
}

/// A borrowed view of a slide the producer is closing *right now*: one
/// closed slide's top-`k_max` objects, valid only inside a
/// [`DigestProducer::close_slide_with`] callback. `TimeBased<E>` (one
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
/// lets every producer (and every standalone `TimeBased` adapter) with
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

    /// Closes every slide ending at or before `watermark` (empty slides
    /// included), calling `f` with a borrowed [`DigestView`] per closed
    /// slide, oldest first.
    pub fn advance_to_with(&mut self, watermark: u64, f: &mut dyn FnMut(DigestView<'_>)) {
        while watermark >= self.slide_end {
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
        DigestProducer::resume(slide_duration, k_max, next_slide, pending)
    }

    /// A producer at slide `next_slide` with `pending` in its open slide,
    /// validated like decoded bytes: what
    /// [`decode_state`](DigestProducer::decode_state) reads, and what a
    /// restore derives from an older image's isolated count session.
    pub(crate) fn resume(
        slide_duration: u64,
        k_max: usize,
        next_slide: u64,
        pending: Vec<TimedObject>,
    ) -> Result<DigestProducer, CheckpointError> {
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

    /// Moves an arrival-clock producer `slides` slides later, relabeling
    /// its open slide's ordinals to match: arrival ordinals are internal,
    /// so a restore may shift a group to merge it with another.
    pub(crate) fn shift(&mut self, slides: u64) -> Result<(), CheckpointError> {
        let by = slides.checked_mul(self.slide_duration);
        let shifted = by.and_then(|by| {
            Some((
                self.next_slide.checked_add(slides)?,
                self.slide_end.checked_add(by)?,
                by,
            ))
        });
        let (next_slide, slide_end, by) =
            shifted.ok_or(CheckpointError::Corrupt("count-group ordinal overflows"))?;
        self.next_slide = next_slide;
        self.slide_end = slide_end;
        for o in &mut self.pending {
            o.id = o.id.wrapping_add(by);
            o.timestamp = o.timestamp.wrapping_add(by);
        }
        Ok(())
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
    result: Vec<TimedObject>,
    /// Pooled per-digest scratch: the kept prefix re-sorted to ascending
    /// caller-id order.
    kept: Vec<TimedObject>,
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
            result: Vec::new(),
            kept: Vec::with_capacity(got.s),
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

    /// Applies one closed slide, given its index and top list (a live
    /// [`DigestView`]'s, or a replayed ring group — `top` may be any depth
    /// `≥ w`; only the own-`w` prefix is consumed): pads the prefix to
    /// exactly `w` synthetic objects, advances the wrapped engine by one
    /// reduced-stream slide, and translates the emission back to the
    /// caller's objects. Slides must arrive gap-free in slide order, from
    /// a producer with `k_max ≥ w` — the hubs and `TimeBased` guarantee
    /// both.
    ///
    /// Returns a borrow of the consumer's retained result (valid until
    /// the next apply), or `None` when the engine proved its top-k
    /// unchanged ([`SlidingTopK::slide_if_changed`]): the retained result
    /// then stands as it was, so a caller that re-emits its previous
    /// emission skips the translation and the diff. Built entirely from
    /// pooled buffers: applying a slide performs zero allocations after
    /// warm-up.
    pub fn apply_slide_top(&mut self, slide: u64, top: &[TimedObject]) -> Option<&[TimedObject]> {
        debug_assert_eq!(
            slide, self.slides_applied,
            "digests must be applied gap-free in slide order"
        );
        // Synthetic ids are assigned in batch order, and the engine
        // tie-breaks equal scores by the higher synthetic id — so hand
        // the kept prefix over reversed (ascending score, equal scores in
        // ascending caller-id order), making the newer of two equal-score
        // survivors win inside the engine too; the order among unequal
        // scores decides nothing.
        self.kept.clear();
        self.kept
            .extend(top[..self.width.min(top.len())].iter().rev());
        self.batch.clear();
        for i in 0..self.width {
            let synth_id = self.next_synth_id;
            self.next_synth_id += 1;
            match self.kept.get(i) {
                Some(&orig) => {
                    self.batch.push(Object::new(synth_id, orig.score));
                    self.ring.push_back(Some(orig));
                }
                None => {
                    self.batch.push(Object::new(synth_id, PAD_SCORE));
                    self.ring.push_back(None);
                }
            }
        }
        while self.ring.len() > self.inner.spec().n {
            self.ring.pop_front();
            self.ring_base += 1;
        }
        self.slides_applied += 1;
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

    /// Writes the consumer's reduced window — the synthetic-id ring and
    /// the slide position. Everything else (`ring_base`, `next_synth_id`,
    /// the retained result, the wrapped engine's candidate structures) is
    /// reproduced on restore by replaying the ring through the normal
    /// apply path, so no engine internals ever hit the wire.
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
    /// [`from_count_engine`](SharedTimed::from_count_engine)): each encoded
    /// ring group is re-applied as a slide through
    /// [`apply_slide_top`](SharedTimed::apply_slide_top), which rebuilds
    /// the ring, the retained result, and the wrapped engine's candidate
    /// state in one pass — the engine is an exact top-k function of its
    /// window, so the replayed instance emits byte-identical results from
    /// here on. `stored_width` is the slot count per slide the bytes were
    /// written at: this consumer's `w`, or `k` for an arrival-clock
    /// consumer an earlier format wrote, whose slides keep their first
    /// `w` slots (padding always trails).
    pub fn restore_state(
        &mut self,
        dec: &mut Decoder<'_>,
        stored_width: usize,
    ) -> Result<(), CheckpointError> {
        assert!(
            self.slides_applied == 0 && self.ring.is_empty(),
            "restore_state requires a fresh consumer"
        );
        let len = dec.take_seq_len()?;
        if stored_width < self.width || len % stored_width != 0 {
            return Err(CheckpointError::Corrupt(
                "consumer ring length is not a multiple of its width",
            ));
        }
        let groups = len / stored_width;
        let full = self.inner.spec().slides_per_window();
        if groups > full {
            return Err(CheckpointError::Corrupt("consumer ring exceeds the window"));
        }
        let mut slots: Vec<Option<TimedObject>> = Vec::with_capacity(len);
        for _ in 0..len {
            slots.push(match dec.take_u8()? {
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
        // a slide's slots are its kept prefix reversed (see
        // `apply_slide_top`): reversed again, the replay rebuilds the ring
        // slot for slot
        let width = self.width;
        let tops: Vec<Vec<TimedObject>> = slots
            .chunks(stored_width)
            .map(|slide| slide[..width].iter().rev().flatten().copied().collect())
            .collect();
        self.replay(tops.iter().map(Vec::as_slice), slides_applied);
        Ok(())
    }

    /// Relabels the caller ids in the retained window and result `by`
    /// later — an arrival-clock consumer's objects carry its group's
    /// ordinals, which [`DigestProducer::shift`] moves.
    pub(crate) fn shift(&mut self, by: u64) {
        for o in self.ring.iter_mut().flatten().chain(&mut self.result) {
            o.id = o.id.wrapping_add(by);
            o.timestamp = o.timestamp.wrapping_add(by);
        }
    }

    /// Re-applies `tops` (each one slide's top list, as
    /// [`apply_slide_top`](SharedTimed::apply_slide_top) takes it) into a
    /// fresh consumer as slides `0, 1, …`, then declares `slides_applied`
    /// slides applied — the older ones expired from the window.
    pub(crate) fn replay<'a>(
        &mut self,
        tops: impl Iterator<Item = &'a [TimedObject]>,
        slides_applied: u64,
    ) {
        for (slide, top) in tops.enumerate() {
            self.apply_slide_top(slide as u64, top);
        }
        self.slides_applied = slides_applied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Reference count-based engine over the reduced spec.
    struct Toy {
        spec: WindowSpec,
        window: Vec<Object>,
        result: Vec<Object>,
    }

    impl Toy {
        fn reduced(wd: u64, sd: u64, k: usize) -> Self {
            Toy {
                spec: TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap(),
                window: Vec::new(),
                result: Vec::new(),
            }
        }
    }

    impl SlidingTopK for Toy {
        fn spec(&self) -> WindowSpec {
            self.spec
        }
        fn slide(&mut self, batch: &[Object]) -> &[Object] {
            self.window.extend_from_slice(batch);
            let excess = self.window.len().saturating_sub(self.spec.n);
            self.window.drain(..excess);
            self.result = crate::object::top_k_of(&self.window, self.spec.k);
            &self.result
        }
        fn candidate_count(&self) -> usize {
            0
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn stats(&self) -> OpStats {
            OpStats::default()
        }
        fn name(&self) -> &str {
            "toy"
        }
    }

    #[test]
    fn consumer_validates_the_reduction() {
        // ⟨100, 5, 10⟩ is not the reduction of W⟨100, 10⟩ for k = 5
        let wrong = Toy {
            spec: WindowSpec::new(100, 5, 10).unwrap(),
            window: Vec::new(),
            result: Vec::new(),
        };
        assert!(matches!(
            SharedTimed::from_engine(wrong, 100, 10),
            Err(SpecError::ReducedSpecMismatch { .. })
        ));
        let right = Toy::reduced(100, 10, 5);
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
        let mut narrow = SharedTimed::from_engine(Toy::reduced(20, 10, 1), 20, 10).unwrap();
        let mut wide = SharedTimed::from_engine(Toy::reduced(20, 10, 3), 20, 10).unwrap();
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
