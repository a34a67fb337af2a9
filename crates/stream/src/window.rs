//! The query specification `⟨n, k, s⟩` and the algorithm trait.
//!
//! ```
//! use sap_stream::{SpecError, WindowSpec};
//!
//! let spec = WindowSpec::new(1000, 10, 50).unwrap();
//! assert_eq!(spec.slides_per_window(), 20);
//! assert!(matches!(
//!     WindowSpec::new(10, 5, 3),
//!     Err(SpecError::SlideNotDivisor { .. })
//! ));
//! ```

use crate::metrics::OpStats;
use crate::object::{Object, TimedObject};

/// Validation errors for [`WindowSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `n` must be at least 1.
    WindowEmpty,
    /// `k` must satisfy `1 ≤ k ≤ n`.
    KOutOfRange { k: usize, n: usize },
    /// `s` must satisfy `1 ≤ s ≤ n`.
    SlideOutOfRange { s: usize, n: usize },
    /// The paper's count-based model assumes `m = n/s` is an integer (§2.1);
    /// the engines rely on slides aligning with window boundaries.
    SlideNotDivisor { s: usize, n: usize },
    /// A time-based adapter was handed an engine whose spec is not the
    /// Appendix-A reduction `⟨(n/s)·k, k, k⟩` of the requested durations.
    ReducedSpecMismatch {
        /// The spec the durations reduce to.
        expected: WindowSpec,
        /// The engine's actual spec.
        got: WindowSpec,
    },
    /// A time-based adapter was handed an engine that has already
    /// processed slides; the adapter's id translation assumes the reduced
    /// stream starts at arrival ordinal 0, so only fresh engines can be
    /// wrapped.
    EngineNotFresh,
    /// The Appendix-A reduction `(n/s)·k` of the requested durations does
    /// not fit in `usize`.
    ReductionOverflow {
        /// Slides per window (`n/s`).
        slides: u64,
        /// The result size.
        k: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::WindowEmpty => write!(f, "window size n must be at least 1"),
            SpecError::KOutOfRange { k, n } => {
                write!(f, "k = {k} out of range: must satisfy 1 <= k <= n = {n}")
            }
            SpecError::SlideOutOfRange { s, n } => {
                write!(
                    f,
                    "slide s = {s} out of range: must satisfy 1 <= s <= n = {n}"
                )
            }
            SpecError::SlideNotDivisor { s, n } => {
                write!(f, "slide s = {s} must divide the window size n = {n}")
            }
            SpecError::ReducedSpecMismatch { expected, got } => {
                write!(
                    f,
                    "time-based adapter needs an engine over the reduced spec \
                     ⟨n={}, k={}, s={}⟩, got ⟨n={}, k={}, s={}⟩",
                    expected.n, expected.k, expected.s, got.n, got.k, got.s
                )
            }
            SpecError::EngineNotFresh => {
                write!(
                    f,
                    "time-based adapter requires a fresh engine (no slides processed yet)"
                )
            }
            SpecError::ReductionOverflow { slides, k } => {
                write!(
                    f,
                    "reduced window (n/s)·k = {slides}·{k} does not fit in usize"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A continuous top-k query `⟨n, k, s⟩` over a count-based sliding window
/// (§1). The preference function `F` is applied when objects are created,
/// so it does not appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Window size: the query window holds the last `n` objects.
    pub n: usize,
    /// Number of results returned per slide.
    pub k: usize,
    /// Slide size: `s` objects arrive (and, once the window is full,
    /// `s` objects expire) per slide.
    pub s: usize,
}

impl WindowSpec {
    /// Validates and builds a spec. Requires `1 ≤ k ≤ n`, `1 ≤ s ≤ n`, and
    /// `s | n` (the paper's `m = n/s` integrality assumption).
    pub fn new(n: usize, k: usize, s: usize) -> Result<Self, SpecError> {
        if n == 0 {
            return Err(SpecError::WindowEmpty);
        }
        if k == 0 || k > n {
            return Err(SpecError::KOutOfRange { k, n });
        }
        if s == 0 || s > n {
            return Err(SpecError::SlideOutOfRange { s, n });
        }
        if !n.is_multiple_of(s) {
            return Err(SpecError::SlideNotDivisor { s, n });
        }
        Ok(WindowSpec { n, k, s })
    }

    /// `m = n/s`: the number of slides spanning one window.
    #[inline]
    pub fn slides_per_window(&self) -> usize {
        self.n / self.s
    }
}

/// A continuous top-k algorithm over a count-based sliding window.
///
/// The driver feeds the stream in batches of exactly `s` objects with
/// strictly increasing ids. After each [`slide`](SlidingTopK::slide) call
/// the algorithm's window logically contains the last `min(arrived, n)`
/// objects; the call returns the current top-k (descending result order).
/// During warm-up (fewer than `k` objects arrived) the result may be
/// shorter than `k`.
///
/// Engines need nothing extra for checkpoints: a restore rebuilds a fresh
/// engine through an [`EngineFactory`](crate::checkpoint::EngineFactory)
/// and replays the retained window into it.
pub trait SlidingTopK {
    /// The query this instance answers.
    fn spec(&self) -> WindowSpec;

    /// Processes one slide: `batch.len() == s` new objects arrive and, once
    /// the window is full, the `s` oldest expire. Returns the window's
    /// current top-k in descending order.
    fn slide(&mut self, batch: &[Object]) -> &[Object];

    /// Current number of maintained candidates (the paper's |C|, plus any
    /// auxiliary candidate sets such as SAP's M₀). Raw window storage is
    /// *not* counted — see DESIGN.md §4.8.
    fn candidate_count(&self) -> usize;

    /// Estimated bytes held by the algorithm's candidate/index structures
    /// (Appendix F methodology). Raw window buffers are excluded for every
    /// algorithm so the comparison matches the paper's.
    fn memory_bytes(&self) -> usize;

    /// Cumulative operation counters.
    fn stats(&self) -> OpStats;

    /// Human-readable algorithm name used in reports.
    fn name(&self) -> &str;

    /// Whether the most recent [`slide`](SlidingTopK::slide) may have
    /// changed the returned top-k relative to the slide before it.
    ///
    /// `false` is a *guarantee* of no change, letting delta consumers emit
    /// [`TopKEvent::Unchanged`](crate::events::TopKEvent::Unchanged) in
    /// `O(1)`; `true` (the conservative default) merely permits a change —
    /// the session layer then diffs the snapshots in `O(k)`. SAP overrides
    /// this from its `dirty` tracking; the paper reports results only
    /// "when they are changed" (§4.1), and this hook surfaces that
    /// machinery to the public API.
    fn last_slide_changed(&self) -> bool {
        true
    }
}

impl std::fmt::Debug for dyn SlidingTopK + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let spec = self.spec();
        write!(
            f,
            "SlidingTopK({} over ⟨n={}, k={}, s={}⟩)",
            self.name(),
            spec.n,
            spec.k,
            spec.s
        )
    }
}

impl std::fmt::Debug for dyn SlidingTopK + Send + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `dyn SlidingTopK + Send` is a distinct type from
        // `dyn SlidingTopK`, so the impl above does not cover it — and
        // both hubs' sessions carry the `Send` form
        (self as &dyn SlidingTopK).fmt(f)
    }
}

impl<T: SlidingTopK + ?Sized> SlidingTopK for Box<T> {
    fn spec(&self) -> WindowSpec {
        (**self).spec()
    }
    fn slide(&mut self, batch: &[Object]) -> &[Object] {
        (**self).slide(batch)
    }
    fn candidate_count(&self) -> usize {
        (**self).candidate_count()
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
    fn stats(&self) -> OpStats {
        (**self).stats()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn last_slide_changed(&self) -> bool {
        (**self).last_slide_changed()
    }
}

/// A continuous top-k algorithm over a **time-based** sliding window
/// `W⟨n, s⟩` (paper Appendix A): the window holds the objects of the last
/// `window_duration` time units and slides every `slide_duration` time
/// units, so the number of objects per slide varies with the arrival
/// rate — including down to zero (empty slides are real slides).
///
/// Event time only advances when the implementation is told so: either an
/// [`ingest`](TimedTopK::ingest)ed object carries a timestamp at or past
/// the open slide's end, or the caller raises the watermark explicitly
/// with [`advance_to`](TimedTopK::advance_to). Each closed slide yields
/// one snapshot, so a single call can return many results (a timestamp
/// jump closes every slide it skips over).
///
/// The canonical implementation is `sap_core`'s `TimeBased<E>` adapter,
/// which reduces each slide to its top-k and feeds a count-based
/// [`SlidingTopK`] engine with the reduced stream.
///
/// This is the standalone API: a [`TimedSession`](crate::session::TimedSession)
/// drives one engine on the caller's thread. The hubs never store a
/// `TimedTopK` — they serve every time-based query from its slide group
/// (see [`Registration::shared`](crate::Registration::shared)),
/// and a hub checkpoint holds no engine state, so the trait has no
/// checkpoint hook.
pub trait TimedTopK {
    /// Window length in time units (the paper's `n`).
    fn window_duration(&self) -> u64;

    /// Slide length in time units (the paper's `s`); divides
    /// [`window_duration`](TimedTopK::window_duration).
    fn slide_duration(&self) -> u64;

    /// Result size per slide.
    fn k(&self) -> usize;

    /// Ingests one object. Timestamps must be non-decreasing across calls.
    /// Returns the top-k snapshot for every slide boundary the timestamp
    /// crosses, oldest first — empty when the object lands in the still
    /// open slide.
    fn ingest(&mut self, o: TimedObject) -> Vec<Vec<TimedObject>>;

    /// Raises the event-time watermark: closes (and returns the snapshot
    /// of) every slide ending at or before `watermark`, including empty
    /// ones. Use at end of stream, or to publish quiescence without new
    /// arrivals.
    fn advance_to(&mut self, watermark: u64) -> Vec<Vec<TimedObject>>;

    /// The allocation-free form of [`ingest`](TimedTopK::ingest): calls
    /// `f` with a borrow of each closed slide's snapshot instead of
    /// returning owned `Vec`s. The default routes through `ingest`;
    /// engines with a pooled result (`TimeBased<E>`) override it so the
    /// session hot path never touches the heap per slide.
    fn ingest_each(&mut self, o: TimedObject, f: &mut dyn FnMut(&[TimedObject])) {
        for snapshot in self.ingest(o) {
            f(&snapshot);
        }
    }

    /// The allocation-free form of [`advance_to`](TimedTopK::advance_to)
    /// — see [`ingest_each`](TimedTopK::ingest_each).
    fn advance_to_each(&mut self, watermark: u64, f: &mut dyn FnMut(&[TimedObject])) {
        for snapshot in self.advance_to(watermark) {
            f(&snapshot);
        }
    }

    /// The most recently emitted snapshot.
    fn last_result(&self) -> &[TimedObject];

    /// Number of objects buffered in the still-open slide.
    fn pending(&self) -> usize;

    /// Current candidate count of the underlying machinery (the paper's
    /// |C| on the reduced stream).
    fn candidate_count(&self) -> usize;

    /// Human-readable algorithm name used in reports.
    fn name(&self) -> &str;
}

impl std::fmt::Debug for dyn TimedTopK + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TimedTopK({} over W⟨n={}, k={}, s={}⟩ time units)",
            self.name(),
            self.window_duration(),
            self.k(),
            self.slide_duration()
        )
    }
}

impl std::fmt::Debug for dyn TimedTopK + Send + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (self as &dyn TimedTopK).fmt(f)
    }
}

impl<T: TimedTopK + ?Sized> TimedTopK for Box<T> {
    fn window_duration(&self) -> u64 {
        (**self).window_duration()
    }
    fn slide_duration(&self) -> u64 {
        (**self).slide_duration()
    }
    fn k(&self) -> usize {
        (**self).k()
    }
    fn ingest(&mut self, o: TimedObject) -> Vec<Vec<TimedObject>> {
        (**self).ingest(o)
    }
    fn advance_to(&mut self, watermark: u64) -> Vec<Vec<TimedObject>> {
        (**self).advance_to(watermark)
    }
    fn ingest_each(&mut self, o: TimedObject, f: &mut dyn FnMut(&[TimedObject])) {
        (**self).ingest_each(o, f)
    }
    fn advance_to_each(&mut self, watermark: u64, f: &mut dyn FnMut(&[TimedObject])) {
        (**self).advance_to_each(watermark, f)
    }
    fn last_result(&self) -> &[TimedObject] {
        (**self).last_result()
    }
    fn pending(&self) -> usize {
        (**self).pending()
    }
    fn candidate_count(&self) -> usize {
        (**self).candidate_count()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Arbitrary-size ingestion on top of the paper's slide-by-slide batch
/// model.
///
/// [`SlidingTopK::slide`] requires batches of exactly `s` objects whose
/// ids are 0-based arrival ordinals — the paper's count-based model.
/// Real feeds deliver whatever they deliver, identified however they
/// like; implementors of this trait (see
/// [`Session`](crate::session::Session) and
/// [`Hub`](crate::session::Hub)) buffer arrivals internally, re-chunk
/// them into `s`-aligned slides, and renumber them to the engines'
/// arrival ordinals (translating results back), so callers never think
/// about batch boundaries or id bookkeeping. One push may therefore
/// complete zero, one, or many slides.
pub trait Ingest {
    /// Feeds a batch of any size, returning one [`SlideResult`]
    /// (snapshot + delta events) per slide it completed.
    ///
    /// [`SlideResult`]: crate::events::SlideResult
    fn push(&mut self, objects: &[Object]) -> Vec<crate::events::SlideResult>;

    /// Feeds a batch of any size, handing each completed slide's
    /// [`SlideResult`] to `f` — the zero-copy form the hubs drive: the
    /// result moves **once**, straight from the session into whatever
    /// the caller is building (a tagged `QueryUpdate`, a pooled buffer),
    /// and a push that completes no slides touches no heap. The default
    /// routes through [`push`](Ingest::push);
    /// [`Session`](crate::session::Session) overrides it to emit
    /// natively.
    ///
    /// [`SlideResult`]: crate::events::SlideResult
    fn push_each(&mut self, objects: &[Object], f: &mut dyn FnMut(crate::events::SlideResult)) {
        for result in self.push(objects) {
            f(result);
        }
    }

    /// Feeds a batch of any size, **appending** one [`SlideResult`] per
    /// completed slide to `out` instead of allocating a fresh `Vec` —
    /// [`push_each`](Ingest::push_each) into an existing buffer.
    ///
    /// [`SlideResult`]: crate::events::SlideResult
    fn push_into(&mut self, objects: &[Object], out: &mut Vec<crate::events::SlideResult>) {
        self.push_each(objects, &mut |result| out.push(result));
    }

    /// Feeds one object; returns the slide it completed, if any.
    /// [`Session`](crate::session::Session) overrides this so the
    /// buffering path (no slide completed) returns without touching the
    /// heap.
    fn push_one(&mut self, object: Object) -> Option<crate::events::SlideResult> {
        self.push(std::slice::from_ref(&object)).pop()
    }

    /// Number of buffered objects not yet spanning a full slide
    /// (always `< s`).
    fn pending(&self) -> usize;
}

/// Timestamped ingestion for time-based queries — the counterpart of
/// [`Ingest`] when slides close on event time rather than arrival counts.
///
/// One push may close zero, one, or many slides (a timestamp jump closes
/// every slide it skips over, empty ones included), and unlike the
/// count-based path a slide can also be closed with **no** new arrivals by
/// raising the watermark ([`advance_watermark`](TimedIngest::advance_watermark)).
/// Implemented by [`TimedSession`](crate::session::TimedSession).
pub trait TimedIngest {
    /// Feeds a batch of timestamped objects (non-decreasing timestamps),
    /// returning one [`SlideResult`] per slide it closed, oldest first.
    ///
    /// [`SlideResult`]: crate::events::SlideResult
    fn push_timed(&mut self, objects: &[TimedObject]) -> Vec<crate::events::SlideResult>;

    /// Feeds a batch, handing each closed slide's [`SlideResult`] to `f`
    /// — the zero-copy counterpart of
    /// [`push_timed`](TimedIngest::push_timed), driven by the hubs (see
    /// [`Ingest::push_each`] for the contract).
    ///
    /// [`SlideResult`]: crate::events::SlideResult
    fn push_timed_each(
        &mut self,
        objects: &[TimedObject],
        f: &mut dyn FnMut(crate::events::SlideResult),
    ) {
        for result in self.push_timed(objects) {
            f(result);
        }
    }

    /// Feeds a batch, **appending** the closed slides to `out` instead of
    /// allocating a fresh `Vec` — [`push_timed_each`](TimedIngest::push_timed_each)
    /// into an existing buffer.
    ///
    /// [`SlideResult`]: crate::events::SlideResult
    fn push_timed_into(
        &mut self,
        objects: &[TimedObject],
        out: &mut Vec<crate::events::SlideResult>,
    ) {
        self.push_timed_each(objects, &mut |result| out.push(result));
    }

    /// Feeds one timestamped object; returns the slides it closed.
    fn push_one_timed(&mut self, object: TimedObject) -> Vec<crate::events::SlideResult> {
        self.push_timed(std::slice::from_ref(&object))
    }

    /// Raises the event-time watermark, closing (and returning) every
    /// slide ending at or before it — the only way to observe trailing or
    /// empty slides when the stream goes quiet.
    fn advance_watermark(&mut self, watermark: u64) -> Vec<crate::events::SlideResult>;

    /// Raises the watermark, handing each closed slide's result to `f` —
    /// the zero-copy counterpart of
    /// [`advance_watermark`](TimedIngest::advance_watermark).
    fn advance_watermark_each(
        &mut self,
        watermark: u64,
        f: &mut dyn FnMut(crate::events::SlideResult),
    ) {
        for result in self.advance_watermark(watermark) {
            f(result);
        }
    }

    /// Raises the watermark, **appending** the closed slides to `out` —
    /// [`advance_watermark_each`](TimedIngest::advance_watermark_each)
    /// into an existing buffer.
    fn advance_watermark_into(
        &mut self,
        watermark: u64,
        out: &mut Vec<crate::events::SlideResult>,
    ) {
        self.advance_watermark_each(watermark, &mut |result| out.push(result));
    }

    /// Number of objects buffered in the still-open slide.
    fn pending(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_specs() {
        let w = WindowSpec::new(100, 10, 5).unwrap();
        assert_eq!(w.slides_per_window(), 20);
        assert!(WindowSpec::new(1, 1, 1).is_ok());
        assert!(WindowSpec::new(10, 10, 10).is_ok());
    }

    #[test]
    fn rejects_invalid_specs() {
        assert_eq!(WindowSpec::new(0, 1, 1), Err(SpecError::WindowEmpty));
        assert_eq!(
            WindowSpec::new(10, 0, 1),
            Err(SpecError::KOutOfRange { k: 0, n: 10 })
        );
        assert_eq!(
            WindowSpec::new(10, 11, 1),
            Err(SpecError::KOutOfRange { k: 11, n: 10 })
        );
        assert_eq!(
            WindowSpec::new(10, 5, 0),
            Err(SpecError::SlideOutOfRange { s: 0, n: 10 })
        );
        assert_eq!(
            WindowSpec::new(10, 5, 11),
            Err(SpecError::SlideOutOfRange { s: 11, n: 10 })
        );
        assert_eq!(
            WindowSpec::new(10, 5, 3),
            Err(SpecError::SlideNotDivisor { s: 3, n: 10 })
        );
    }

    #[test]
    fn errors_display() {
        let e = WindowSpec::new(10, 5, 3).unwrap_err();
        assert!(e.to_string().contains("divide"));
    }
}
