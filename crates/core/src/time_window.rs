//! Time-based sliding windows (paper Appendix A).
//!
//! A time-based query `W⟨n, s⟩` returns the top-k objects of the last `n`
//! time units, sliding every `s` time units. Unlike the count-based model,
//! the number of objects per slide varies. Appendix A's observation makes
//! the count-based machinery reusable: objects arriving within one slide
//! share an arrival time, so same-slide dominance applies and **only the
//! top-k objects of each slide can ever appear in a result**. The query
//! results are therefore covered by at most `n·k/s` objects.
//!
//! [`TimeBased`] implements exactly that reduction as an adapter around
//! **any** count-based engine: each closed slide is reduced to its top-k
//! objects (padded with sentinel objects so every slide contributes the
//! same count), and the stream of reduced slides is fed to the wrapped
//! [`SlidingTopK`] over `⟨n' = (n/s)·k, k, s' = k⟩`. [`TimeBasedSap`] is
//! the paper's instantiation over the [`Sap`] engine. The partition
//! bounds of Appendix A (`|C ∪ M_0| ≤ mk + nk/(sm)`, minimized at the
//! same `m*`) follow from the count-based analysis on the reduced stream.
//!
//! Since the shared digest plane landed, the adapter is a thin
//! composition of its two halves — a [`DigestProducer`] closing and
//! truncating slides (the one copy of the tie-break rules in the
//! workspace) wired to a private [`SharedTimed`] consumer feeding the
//! count-based reduction. The hubs wire the *same* producer type to many
//! consumers, which is how overlapping queries share per-slide work; the
//! adapter is a slide group of one. Both halves are
//! defined in `sap_stream::digest` (the hubs live below this crate) and
//! re-exported here.
//!
//! The adapter implements [`TimedTopK`], which is what plugs it into the
//! standalone session layer: `TimedSession` speaks that trait, so a
//! time-based query built from `Query::window_duration(..)` rides the same
//! event/delta machinery as the count-based ones. The hubs serve such a
//! query from its slide group instead, with byte-identical results.
//!
//! ```
//! use sap_core::TimeBasedSap;
//! use sap_stream::{TimedObject, TimedTopK};
//!
//! // top-2 of the last 100 time units, re-evaluated every 10
//! let mut q = TimeBasedSap::new(100, 10, 2).unwrap();
//! assert!(q.ingest(TimedObject::new(0, 3, 5.0)).is_empty());
//! // crossing t = 10 closes the first slide
//! let results = q.ingest(TimedObject::new(1, 12, 9.0));
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0][0].id, 0);
//! ```

use sap_stream::{SlidingTopK, TimedSpec, TimedTopK};
use sap_stream::{SpecError, WindowSpec};

use crate::config::SapConfig;
use crate::engine::Sap;

pub use sap_stream::TimedObject;
pub use sap_stream::{DigestProducer, DigestView, SharedTimed};

/// A time-based continuous top-k query answered by a count-based engine
/// through the Appendix-A reduction: one [`DigestProducer`] closing and
/// truncating slides, wired to one private [`SharedTimed`] consumer
/// feeding the reduced stream to the engine. `E` is the wrapped engine;
/// the paper's configuration is [`TimeBasedSap`] (= `TimeBased<Sap>`),
/// and the facade crate instantiates
/// `TimeBased<Box<dyn SlidingTopK + Send>>` so every algorithm in the
/// workspace can answer time-based queries.
#[derive(Debug)]
pub struct TimeBased<E: SlidingTopK> {
    producer: DigestProducer,
    consumer: SharedTimed<E>,
}

/// The paper's time-based query: the Appendix-A reduction over the SAP
/// engine.
pub type TimeBasedSap = TimeBased<Sap>;

impl TimeBasedSap {
    /// Creates a time-based query returning the top `k` of the last
    /// `window_duration` time units, sliding every `slide_duration`,
    /// answered by a fresh [`Sap`] engine in its default configuration.
    /// `slide_duration` must divide `window_duration`.
    pub fn new(window_duration: u64, slide_duration: u64, k: usize) -> Result<Self, SpecError> {
        let spec = reduced_spec(window_duration, slide_duration, k)?;
        TimeBased::from_engine(
            Sap::new(SapConfig::new(spec)),
            window_duration,
            slide_duration,
        )
    }
}

/// The Appendix-A reduction of `W⟨window_duration, slide_duration⟩` with
/// result size `k`: the count-based spec `⟨(n/s)·k, k, k⟩`. Thin
/// delegate to `sap_stream`'s [`TimedSpec`] so the reduction (and its
/// validation errors) has exactly one definition.
pub fn reduced_spec(
    window_duration: u64,
    slide_duration: u64,
    k: usize,
) -> Result<WindowSpec, SpecError> {
    TimedSpec::new(window_duration, slide_duration, k)?.reduced()
}

impl<E: SlidingTopK> TimeBased<E> {
    /// Wraps an existing count-based engine as a time-based query over
    /// the last `window_duration` time units, sliding every
    /// `slide_duration`. The engine must already be configured over the
    /// reduction of those durations — `⟨(n/s)·k, k, k⟩` for its own `k` —
    /// else [`SpecError::ReducedSpecMismatch`]; and it must be fresh (the
    /// adapter's id translation assumes the reduced stream starts at
    /// arrival ordinal 0), else [`SpecError::EngineNotFresh`].
    pub fn from_engine(
        inner: E,
        window_duration: u64,
        slide_duration: u64,
    ) -> Result<Self, SpecError> {
        let consumer = SharedTimed::from_engine(inner, window_duration, slide_duration)?;
        Ok(TimeBased {
            producer: DigestProducer::new(slide_duration, consumer.k()),
            consumer,
        })
    }

    /// Number of time units per window.
    pub fn window_duration(&self) -> u64 {
        self.consumer.window_duration()
    }

    /// Number of time units per slide.
    pub fn slide_duration(&self) -> u64 {
        self.consumer.slide_duration()
    }

    /// Result size per slide.
    pub fn k(&self) -> usize {
        self.consumer.k()
    }

    /// The wrapped count-based engine (serving the reduced stream).
    pub fn engine(&self) -> &E {
        self.consumer.engine()
    }

    /// The digest consumer half of the adapter (the producer half is
    /// private).
    pub fn consumer(&self) -> &SharedTimed<E> {
        &self.consumer
    }

    /// Ingests one object. Timestamps must be non-decreasing. Returns the
    /// updated top-k for every slide boundary the timestamp crosses (empty
    /// when the object lands in the still-open slide).
    pub fn ingest(&mut self, o: TimedObject) -> Vec<Vec<TimedObject>> {
        let mut out = Vec::new();
        self.ingest_each(o, &mut |snapshot| out.push(snapshot.to_vec()));
        out
    }

    /// Closes every slide ending at or before `watermark` (empty slides
    /// included), returning one updated top-k per closed slide. Raising
    /// the watermark is how trailing slides are flushed at end of stream.
    pub fn advance_to(&mut self, watermark: u64) -> Vec<Vec<TimedObject>> {
        let mut out = Vec::new();
        self.advance_to_each(watermark, &mut |snapshot| out.push(snapshot.to_vec()));
        out
    }

    /// The allocation-free form of [`ingest`](TimeBased::ingest): calls
    /// `f` with a borrow of the updated top-k for every slide boundary
    /// `o.timestamp` crosses. The closing slide travels producer →
    /// consumer as a borrowed [`DigestView`] — no digest, no owned
    /// snapshot, **zero heap traffic** on the steady-state path (this is
    /// what `TimedSession` drives).
    pub fn ingest_each(&mut self, o: TimedObject, f: &mut dyn FnMut(&[TimedObject])) {
        let TimeBased { producer, consumer } = self;
        producer.ingest_with(o, &mut |view| {
            f(consumer.apply_slide_top(view.slide, view.top));
        });
    }

    /// The allocation-free form of [`advance_to`](TimeBased::advance_to):
    /// calls `f` with a borrow of the updated top-k per closed slide,
    /// oldest first.
    pub fn advance_to_each(&mut self, watermark: u64, f: &mut dyn FnMut(&[TimedObject])) {
        let TimeBased { producer, consumer } = self;
        producer.advance_to_with(watermark, &mut |view| {
            f(consumer.apply_slide_top(view.slide, view.top));
        });
    }

    /// Closes the current slide even if its time has not elapsed (useful at
    /// end of stream), returning the updated top-k. The slide reduces to
    /// its top-k (same-slide dominance makes the remainder provably
    /// useless, Appendix A); truncation and its newer-wins tie-break live
    /// in [`DigestProducer::close_slide_with`], the workspace's single
    /// copy of that rule.
    pub fn close_slide(&mut self) -> Vec<TimedObject> {
        let TimeBased { producer, consumer } = self;
        producer.close_slide_with(|view| consumer.apply_slide_top(view.slide, view.top).to_vec())
    }

    /// Current candidate count of the underlying engine.
    pub fn candidate_count(&self) -> usize {
        self.consumer.candidate_count()
    }

    /// The most recent result.
    pub fn last_result(&self) -> &[TimedObject] {
        self.consumer.last_result()
    }
}

/// The adapter's public face to the session layer: `TimedSession` and
/// the facade builders drive a `TimeBased<E>` through this trait.
impl<E: SlidingTopK> TimedTopK for TimeBased<E> {
    fn window_duration(&self) -> u64 {
        TimeBased::window_duration(self)
    }

    fn slide_duration(&self) -> u64 {
        TimeBased::slide_duration(self)
    }

    fn k(&self) -> usize {
        TimeBased::k(self)
    }

    fn ingest(&mut self, o: TimedObject) -> Vec<Vec<TimedObject>> {
        TimeBased::ingest(self, o)
    }

    fn advance_to(&mut self, watermark: u64) -> Vec<Vec<TimedObject>> {
        TimeBased::advance_to(self, watermark)
    }

    fn ingest_each(&mut self, o: TimedObject, f: &mut dyn FnMut(&[TimedObject])) {
        TimeBased::ingest_each(self, o, f)
    }

    fn advance_to_each(&mut self, watermark: u64, f: &mut dyn FnMut(&[TimedObject])) {
        TimeBased::advance_to_each(self, watermark, f)
    }

    fn last_result(&self) -> &[TimedObject] {
        TimeBased::last_result(self)
    }

    fn pending(&self) -> usize {
        self.producer.pending_len()
    }

    fn candidate_count(&self) -> usize {
        TimeBased::candidate_count(self)
    }

    fn name(&self) -> &str {
        self.consumer.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_stream::Object;

    fn obj(id: u64, timestamp: u64, score: f64) -> TimedObject {
        TimedObject {
            id,
            timestamp,
            score,
        }
    }

    /// Time-based oracle: top-k of all objects with
    /// `timestamp ∈ [window_end - duration, window_end)`. A unit-test copy
    /// (a crate's unit tests cannot reach `tests/common`); it must agree
    /// with the hub model's ranking, `tests/common/time_rank.rs`.
    fn oracle(all: &[TimedObject], window_end: u64, duration: u64, k: usize) -> Vec<TimedObject> {
        let lo = window_end.saturating_sub(duration);
        let mut alive: Vec<TimedObject> = all
            .iter()
            .filter(|o| o.timestamp >= lo && o.timestamp < window_end)
            .copied()
            .collect();
        alive.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(b.id.cmp(&a.id)));
        alive.truncate(k);
        alive
    }

    #[test]
    fn rejects_bad_durations() {
        assert!(TimeBasedSap::new(100, 30, 5).is_err());
        assert!(TimeBasedSap::new(100, 0, 5).is_err());
        assert!(TimeBasedSap::new(100, 20, 5).is_ok());
    }

    #[test]
    fn equal_scores_at_the_truncation_boundary_keep_the_newer_object() {
        // k = 1 and two equal-score objects in one slide: the documented
        // tie-break (newer = higher id wins) must decide which one
        // survives the slide's top-k reduction
        let mut q = TimeBasedSap::new(10, 10, 1).unwrap();
        q.ingest(obj(1, 0, 5.0));
        q.ingest(obj(2, 0, 5.0));
        let results = q.advance_to(10);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0], vec![obj(2, 0, 5.0)], "higher id wins the tie");
        // and among survivors of a larger slide, ties still order newest
        // first in the result
        let mut q = TimeBasedSap::new(20, 10, 2).unwrap();
        q.ingest(obj(7, 0, 3.0));
        q.ingest(obj(5, 1, 3.0));
        q.ingest(obj(3, 2, 1.0));
        let results = q.advance_to(10);
        assert_eq!(results[0], vec![obj(7, 0, 3.0), obj(5, 1, 3.0)]);
    }

    #[test]
    fn cross_slide_ties_resolve_by_slide_recency_not_raw_id() {
        // equal scores in different slides: the later slide's object wins
        // even when its caller id is numerically smaller (ids are opaque
        // across slides; see the TimedObject docs)
        let mut q = TimeBasedSap::new(20, 10, 2).unwrap();
        q.ingest(obj(10, 0, 5.0));
        q.ingest(obj(3, 12, 5.0));
        let results = q.advance_to(20);
        assert_eq!(
            results.last().unwrap(),
            &vec![obj(3, 12, 5.0), obj(10, 0, 5.0)]
        );
    }

    #[test]
    fn from_engine_validates_the_reduction() {
        // ⟨100, 5, 10⟩ is not the reduction of W⟨100, 10⟩ with k = 5
        let wrong = Sap::new(SapConfig::new(WindowSpec::new(100, 5, 10).unwrap()));
        assert!(matches!(
            TimeBased::from_engine(wrong, 100, 10),
            Err(SpecError::ReducedSpecMismatch { .. })
        ));
        // the reduction is ⟨(100/10)·5, 5, 5⟩ = ⟨50, 5, 5⟩
        let right = Sap::new(SapConfig::new(WindowSpec::new(50, 5, 5).unwrap()));
        let q = TimeBased::from_engine(right, 100, 10).unwrap();
        assert_eq!(q.window_duration(), 100);
        assert_eq!(q.slide_duration(), 10);
        assert_eq!(q.k(), 5);
        assert_eq!(q.engine().spec(), WindowSpec::new(50, 5, 5).unwrap());
    }

    #[test]
    fn from_engine_rejects_used_engines() {
        // a used engine's window holds arrival ordinals the adapter's id
        // translation would collide with — must be rejected, not wrapped
        let mut used = Sap::new(SapConfig::new(WindowSpec::new(50, 5, 5).unwrap()));
        let batch: Vec<Object> = (0..5).map(|i| Object::new(i, i as f64)).collect();
        used.slide(&batch);
        assert_eq!(
            TimeBased::from_engine(used, 100, 10).unwrap_err(),
            SpecError::EngineNotFresh
        );
    }

    #[test]
    fn reduction_overflow_is_rejected_not_wrapped() {
        // (2^62 + 8) slides × k = 12 overflows usize; must be a typed
        // error, never a silently tiny wrapped window
        assert!(matches!(
            TimeBasedSap::new((1u64 << 62) + 8, 1, 12),
            Err(SpecError::ReductionOverflow { .. })
        ));
    }

    #[test]
    fn advance_to_closes_empty_slides_through_the_trait() {
        let mut q: Box<dyn TimedTopK> = Box::new(TimeBasedSap::new(40, 10, 2).unwrap());
        assert_eq!(q.name(), "SAP");
        q.ingest(obj(0, 5, 7.0));
        assert_eq!(q.pending(), 1);
        // watermark 40 closes [0,10) .. [30,40): 4 slides, 3 of them empty
        let results = q.advance_to(40);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0], vec![obj(0, 5, 7.0)]);
        assert_eq!(results[3], vec![obj(0, 5, 7.0)], "still alive in [0,40)");
        assert_eq!(q.pending(), 0);
        // one more slide expires it
        assert!(q.advance_to(50).pop().unwrap().is_empty());
        assert!(q.last_result().is_empty());
    }

    #[test]
    fn matches_time_based_oracle_with_variable_rates() {
        // bursty arrivals: the number of objects per slide varies 0..40
        let duration = 100u64;
        let slide = 10u64;
        let k = 3usize;
        let mut q = TimeBasedSap::new(duration, slide, k).unwrap();
        let mut all = Vec::new();
        let mut id = 0u64;
        let mut state = 12345u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for t in 0..600u64 {
            let burst = match t % 30 {
                0..=9 => 4,
                10..=19 => 1,
                _ => 0,
            };
            for _ in 0..burst {
                let o = obj(id, t, (rnd() % 10_000) as f64);
                id += 1;
                all.push(o);
            }
        }
        let mut boundary = slide;
        for &o in &all {
            for res in q.ingest(o) {
                // this result corresponds to the window ending at `boundary`
                let expect = oracle(&all, boundary, duration, k);
                assert_eq!(res, expect, "window ending at {boundary}");
                boundary += slide;
            }
        }
    }

    #[test]
    fn empty_slides_are_fine() {
        let mut q = TimeBasedSap::new(40, 10, 2).unwrap();
        q.ingest(obj(0, 5, 7.0));
        // jump far ahead: several empty slides close
        let results = q.ingest(obj(1, 38, 3.0));
        assert_eq!(results.len(), 3);
        // the first closed window still contains object 0
        assert_eq!(results[0].len(), 1);
        assert_eq!(results[0][0].id, 0);
        let last = q.close_slide();
        assert!(last.iter().any(|o| o.id == 1));
    }

    #[test]
    fn window_expiry_by_time() {
        let mut q = TimeBasedSap::new(20, 10, 1).unwrap();
        q.ingest(obj(0, 0, 100.0));
        q.ingest(obj(1, 11, 5.0));
        // closing at t=20 → window [0,20): object 0 alive
        // at t=30 → window [10,30): object 0 expired
        let r1 = q.close_slide(); // window [.., 20)
        assert_eq!(r1[0].id, 0);
        let r2 = q.close_slide(); // window [10, 30)
        assert_eq!(r2[0].id, 1, "the 100-score object must have expired");
    }
}
