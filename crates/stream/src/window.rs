//! The query specification `⟨n, k, s⟩` and the algorithm trait.
//!
//! Time-based queries have no trait of their own: a
//! [`TimedSession`](crate::session::TimedSession) or a hub's slide group
//! runs a [`SlidingTopK`] engine over the Appendix-A reduction of the
//! query's durations ([`TimedSpec::reduced`](crate::query::TimedSpec::reduced)).
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
use crate::object::Object;

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
    /// A digest consumer ([`SharedTimed`](crate::digest::SharedTimed))
    /// was handed an engine whose spec is not the reduction of its query:
    /// Appendix-A `⟨(n/s)·k, k, k⟩` of a time-based query's durations, or
    /// [`WindowSpec::reduced`] of a count-based one.
    ReducedSpecMismatch {
        /// The spec the query reduces to.
        expected: WindowSpec,
        /// The engine's actual spec.
        got: WindowSpec,
    },
    /// A digest consumer was handed an engine that has already processed
    /// slides; the consumer's id translation assumes the reduced stream
    /// starts at arrival ordinal 0, so only fresh engines can be wrapped.
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
                    "digest consumer needs an engine over the reduced spec \
                     ⟨n={}, k={}, s={}⟩, got ⟨n={}, k={}, s={}⟩",
                    expected.n, expected.k, expected.s, got.n, got.k, got.s
                )
            }
            SpecError::EngineNotFresh => {
                write!(
                    f,
                    "digest consumer requires a fresh engine (no slides processed yet)"
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

    /// Processes one slide like [`slide`](SlidingTopK::slide), but returns
    /// `None` when the engine *proves* the top-k unchanged from the slide
    /// before it — the previous result stands, and delta consumers emit
    /// [`TopKEvent::Unchanged`](crate::events::TopKEvent::Unchanged) in
    /// `O(1)` without reading it. `Some` (always, by default) merely
    /// permits a change: the caller then diffs in `O(k)`. SAP overrides
    /// this from its `dirty` tracking; the paper reports results only
    /// "when they are changed" (§4.1), and this hook surfaces that
    /// machinery to the sessions and the sharing planes.
    fn slide_if_changed(&mut self, batch: &[Object]) -> Option<&[Object]> {
        Some(self.slide(batch))
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
    fn slide_if_changed(&mut self, batch: &[Object]) -> Option<&[Object]> {
        (**self).slide_if_changed(batch)
    }
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
