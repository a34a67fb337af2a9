//! The query description layer: a fluent builder for continuous top-k
//! queries and the workspace-wide [`SapError`].
//!
//! The paper fixes one algorithm per experiment and wires it up through a
//! bespoke config struct; a serving system instead wants to describe a
//! query — `⟨n, k, s⟩` plus which engine answers it — as a value that can
//! be validated, stored, and registered with a [`Hub`](crate::session::Hub)
//! at runtime. [`Query`] is that value:
//!
//! ```
//! use sap_stream::{AlgorithmKind, Query};
//!
//! let q = Query::window(1000).top(5).slide(10).algorithm(AlgorithmKind::MinTopK);
//! let spec = q.validate().unwrap();
//! assert_eq!(spec.slides_per_window(), 100);
//! ```
//!
//! Construction of the boxed engine happens one layer up (the `sap` facade
//! crate's `prelude`), where the algorithm crates are all in scope.

use crate::predicate::Predicate;
use crate::window::{SpecError, WindowSpec};

/// Unified error type of the query API, absorbing window-spec validation
/// ([`SpecError`]), per-algorithm configuration errors, and data errors at
/// the ingestion boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum SapError {
    /// The `⟨n, k, s⟩` tuple is invalid.
    Spec(SpecError),
    /// The builder was finalized without a result size (`.top(k)`).
    MissingK,
    /// An object carried a non-finite score (see `Object::try_new`).
    NonFiniteScore {
        /// The offending object's arrival id.
        id: u64,
        /// The offending score (NaN or ±∞).
        score: f64,
    },
    /// SMA's `k_max` must satisfy `k_max ≥ k`.
    KMaxTooSmall {
        /// The configured `k_max`.
        kmax: usize,
        /// The query's `k`.
        k: usize,
    },
    /// SMA's grid needs at least one bucket.
    GridEmpty,
    /// The WRT type-I error probability must lie strictly inside `(0, 1)`.
    AlphaOutOfRange {
        /// The configured probability.
        alpha: f64,
    },
    /// The handle does not name a query registered with this hub (wrong
    /// hub, never registered, or already unregistered).
    UnknownQuery {
        /// The unrecognized handle.
        query: crate::session::QueryId,
    },
    /// The builder mixed count-based geometry (`window`/`slide`) with
    /// time-based geometry (`window_duration`/`slide_duration`); a query
    /// windows on arrival counts or on event time, never both.
    MixedWindowKinds,
    /// A time-based query was handed to an entry point that requires a
    /// count-based one (e.g. `build()`/`session()`); use the `timed`
    /// counterparts, or hub registration, which accepts both.
    NotCountBased,
    /// A count-based query was handed to an entry point that requires a
    /// time-based one (e.g. `timed_session()`).
    NotTimeBased,
    /// An async-hub shard is gone — a registered engine panicked, killing
    /// the shard. The queries owned by that shard are lost; the
    /// other shards are unaffected but the hub as a whole can no longer
    /// guarantee full fan-out, so the recovery story is to drop the hub,
    /// build a fresh one, and re-register the standing queries (engines on
    /// surviving shards can be rescued first via `unregister`).
    ShardDown {
        /// Index of the dead shard.
        shard: usize,
    },
    /// A checkpoint could not be decoded or restored — unknown bytes, a
    /// future format version, corruption, or an engine name the restore
    /// factory cannot build. See
    /// [`CheckpointError`](crate::checkpoint::CheckpointError).
    Checkpoint(crate::checkpoint::CheckpointError),
    /// The query's [`Predicate`] is malformed (non-finite score bound,
    /// empty score range, or a zero/overflowing tag modulus).
    InvalidPredicate {
        /// The violated predicate rule.
        reason: &'static str,
    },
}

impl std::fmt::Display for SapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SapError::Spec(e) => write!(f, "invalid window spec: {e}"),
            SapError::MissingK => write!(f, "query has no result size: call .top(k)"),
            SapError::NonFiniteScore { id, score } => {
                write!(f, "object {id} has non-finite score {score}")
            }
            SapError::KMaxTooSmall { kmax, k } => {
                write!(f, "SMA k_max = {kmax} must be at least k = {k}")
            }
            SapError::GridEmpty => write!(f, "SMA grid needs at least one bucket"),
            SapError::AlphaOutOfRange { alpha } => {
                write!(f, "WRT alpha = {alpha} must lie strictly between 0 and 1")
            }
            SapError::UnknownQuery { query } => {
                write!(f, "no query {query} is registered with this hub")
            }
            SapError::MixedWindowKinds => {
                write!(
                    f,
                    "query mixes count-based (window/slide) and time-based \
                     (window_duration/slide_duration) geometry"
                )
            }
            SapError::NotCountBased => {
                write!(f, "expected a count-based query, got a time-based one")
            }
            SapError::NotTimeBased => {
                write!(f, "expected a time-based query, got a count-based one")
            }
            SapError::ShardDown { shard } => {
                write!(
                    f,
                    "shard {shard} worker is dead (an engine panicked); \
                     rebuild the hub and re-register its queries"
                )
            }
            SapError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SapError::InvalidPredicate { reason } => {
                write!(f, "invalid predicate: {reason}")
            }
        }
    }
}

impl std::error::Error for SapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SapError::Spec(e) => Some(e),
            SapError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for SapError {
    fn from(e: SpecError) -> Self {
        SapError::Spec(e)
    }
}

/// SAP's partition policy, mirrored here so a [`Query`] can describe a SAP
/// configuration without depending on the engine crate (which depends on
/// this one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SapPolicy {
    /// Equal partition (§4.1); `None` uses the cost-model optimum `m*`.
    Equal {
        /// Number of partitions per window; `None` = `m*`.
        m: Option<usize>,
    },
    /// Dynamic partition driven by the Mann–Whitney rank test (§4.2).
    Dynamic,
    /// Enhanced dynamic partition with TBUI/UBSA (§4.3 + §5.2) — the
    /// configuration the paper evaluates as "SAP".
    #[default]
    EnhancedDynamic,
}

/// Which algorithm answers a query. Carries the full per-algorithm
/// configuration so a `Query` is self-contained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmKind {
    /// The SAP framework (the default, in its paper configuration).
    Sap {
        /// Partition policy (§4).
        policy: SapPolicy,
        /// Delay `M_i` formation until front duty (Algorithm 1 lines
        /// 15-16).
        delay_formation: bool,
        /// Represent `M_i` as an S-AVL (§5.1) instead of a sorted skyband.
        use_savl: bool,
        /// Type-I error probability for the WRT (paper default 0.05).
        alpha: f64,
    },
    /// The re-scanning oracle.
    Naive,
    /// One-pass k-skyband maintenance (Shen et al.).
    KSkyband,
    /// MinTopK (Yang et al.).
    MinTopK,
    /// SMA over a grid index (Mouratidis et al.).
    Sma {
        /// Candidate set size `k ≤ k_max`; `None` uses the customary `2k`.
        kmax: Option<usize>,
        /// Grid resolution; `None` uses the implementation default.
        grid_buckets: Option<usize>,
    },
}

impl Default for AlgorithmKind {
    fn default() -> Self {
        AlgorithmKind::sap()
    }
}

impl AlgorithmKind {
    /// SAP in the paper's evaluated configuration: enhanced dynamic
    /// partitioning, delayed formation, S-AVL, `alpha = 0.05`.
    pub fn sap() -> Self {
        AlgorithmKind::Sap {
            policy: SapPolicy::EnhancedDynamic,
            delay_formation: true,
            use_savl: true,
            alpha: 0.05,
        }
    }

    /// SMA with the customary `k_max = 2k` and default grid.
    pub fn sma() -> Self {
        AlgorithmKind::Sma {
            kmax: None,
            grid_buckets: None,
        }
    }

    /// Display name matching the algorithms' `SlidingTopK::name`
    /// conventions.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::Sap { .. } => "SAP",
            AlgorithmKind::Naive => "naive",
            AlgorithmKind::KSkyband => "k-skyband",
            AlgorithmKind::MinTopK => "MinTopK",
            AlgorithmKind::Sma { .. } => "SMA",
        }
    }

    /// Validates the per-algorithm configuration against a window spec.
    pub fn validate(&self, spec: WindowSpec) -> Result<(), SapError> {
        match *self {
            AlgorithmKind::Sap { alpha, .. } => check_alpha(alpha),
            AlgorithmKind::Sma { kmax, grid_buckets } => {
                check_sma_params(spec.k, kmax, grid_buckets)
            }
            AlgorithmKind::Naive | AlgorithmKind::KSkyband | AlgorithmKind::MinTopK => Ok(()),
        }
    }
}

/// Single source of truth for the WRT `alpha` rule; also called by the
/// engine crate's `SapConfig::validated`, so the builder and the
/// constructor can never disagree.
pub fn check_alpha(alpha: f64) -> Result<(), SapError> {
    if alpha > 0.0 && alpha < 1.0 {
        Ok(())
    } else {
        Err(SapError::AlphaOutOfRange { alpha })
    }
}

/// Single source of truth for SMA's parameter rules; also called by
/// `Sma::try_with_params` in the baselines crate.
pub fn check_sma_params(
    k: usize,
    kmax: Option<usize>,
    grid_buckets: Option<usize>,
) -> Result<(), SapError> {
    if let Some(kmax) = kmax {
        if kmax < k {
            return Err(SapError::KMaxTooSmall { kmax, k });
        }
    }
    if grid_buckets == Some(0) {
        return Err(SapError::GridEmpty);
    }
    Ok(())
}

/// A validated **time-based** query `W⟨n, s⟩` (paper Appendix A): the
/// top `k` of the objects whose timestamps fall in the last
/// `window_duration` time units, re-evaluated every `slide_duration` time
/// units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimedSpec {
    /// Window length in time units.
    pub window_duration: u64,
    /// Slide length in time units; divides `window_duration`.
    pub slide_duration: u64,
    /// Number of results returned per slide.
    pub k: usize,
}

impl TimedSpec {
    /// Validates and builds a timed spec. Requires positive durations,
    /// `slide_duration | window_duration`, and `k ≥ 1`.
    pub fn new(window_duration: u64, slide_duration: u64, k: usize) -> Result<Self, SpecError> {
        if window_duration == 0 {
            return Err(SpecError::WindowEmpty);
        }
        if slide_duration == 0
            || slide_duration > window_duration
            || !window_duration.is_multiple_of(slide_duration)
        {
            return Err(SpecError::SlideNotDivisor {
                s: slide_duration as usize,
                n: window_duration as usize,
            });
        }
        if k == 0 {
            // a time window has no object-count upper bound on k, so the
            // only constraint is k ≥ 1; report it against the duration
            return Err(SpecError::KOutOfRange {
                k,
                n: window_duration as usize,
            });
        }
        let spec = TimedSpec {
            window_duration,
            slide_duration,
            k,
        };
        // k must make the reduced count-based spec valid (k ≥ 1)
        spec.reduced()?;
        Ok(spec)
    }

    /// `m = n/s`: the number of slides spanning one window, saturated to
    /// `usize::MAX` on targets where it does not fit (the reduction
    /// itself rejects such specs — see [`reduced`](TimedSpec::reduced)).
    #[inline]
    pub fn slides_per_window(&self) -> usize {
        usize::try_from(self.window_duration / self.slide_duration).unwrap_or(usize::MAX)
    }

    /// The Appendix-A reduction: reducing each slide to its top-`k` makes
    /// the time-based query answerable by a count-based engine over
    /// `⟨n' = (n/s)·k, k, s' = k⟩`. Computed in `u64` and converted
    /// checked, so an unrepresentable reduction is a typed
    /// [`SpecError::ReductionOverflow`] on every target width — never a
    /// silently tiny wrapped window.
    pub fn reduced(&self) -> Result<WindowSpec, SpecError> {
        let slides = self.window_duration / self.slide_duration;
        let n = slides
            .checked_mul(self.k as u64)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(SpecError::ReductionOverflow { slides, k: self.k })?;
        WindowSpec::new(n, self.k, self.k)
    }
}

impl WindowSpec {
    /// The arrival-clock reduction of the count query `⟨n, k, s⟩`: a
    /// slide of `s` arrivals holds at most `s` objects, so each reduces
    /// to its top-`w`, `w = min(k, s)`, and a count-based engine over
    /// `⟨(n/s)·w, k, w⟩` answers the query — the query's own spec when
    /// `k ≥ s`. This is the spec a count query's engine runs on either
    /// hub (see [`TimedSpec::reduced`] for the time-based one).
    pub fn reduced(&self) -> WindowSpec {
        let w = self.k.min(self.s);
        WindowSpec {
            n: self.slides_per_window() * w,
            k: self.k,
            s: w,
        }
    }
}

/// What a [`Query`] validates into: the count-based tuple `⟨n, k, s⟩` or
/// the time-based `W⟨n, s⟩` durations — one query is exactly one of the
/// two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuerySpec {
    /// A count-based query (`Query::window(..)`).
    Count(WindowSpec),
    /// A time-based query (`Query::window_duration(..)`).
    Timed(TimedSpec),
}

impl QuerySpec {
    /// The result size, whichever the window model.
    pub fn k(&self) -> usize {
        match self {
            QuerySpec::Count(spec) => spec.k,
            QuerySpec::Timed(spec) => spec.k,
        }
    }
}

/// A continuous top-k query under construction: window geometry plus the
/// algorithm that answers it. Build fluently, then [`validate`](Query::validate)
/// (or hand it to the facade's `build()`/`Hub::register`, which validate
/// internally).
///
/// Two window models share the one builder, chosen by the constructor and
/// **mutually exclusive** (mixing them is [`SapError::MixedWindowKinds`]):
///
/// * [`Query::window(n)`](Query::window)` + `[`slide(s)`](Query::slide) —
///   count-based: the last `n` *objects*, re-evaluated every `s` arrivals;
/// * [`Query::window_duration(n)`](Query::window_duration)` +
///   `[`slide_duration(s)`](Query::slide_duration) — time-based: the last
///   `n` *time units*, re-evaluated every `s` time units (paper
///   Appendix A).
///
/// The slide length is also a count query's sharing key: queries with
/// the same `s` registered at the same offset mod `s` form one geometry
/// class, and a hub's count plane (`Registration::grouped`, which every
/// count registration is) serves the whole class from one shared ring +
/// digest (see the `digest` module) instead of one session apiece.
///
/// ```
/// use sap_stream::{Query, QuerySpec};
///
/// let timed = Query::window_duration(3_600).top(10).slide_duration(60);
/// match timed.validate_any().unwrap() {
///     QuerySpec::Timed(spec) => assert_eq!(spec.slides_per_window(), 60),
///     QuerySpec::Count(_) => unreachable!(),
/// }
/// assert!(Query::window(100).top(5).slide_duration(60).validate_any().is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    n: Option<usize>,
    s: Option<usize>,
    window_duration: Option<u64>,
    slide_duration: Option<u64>,
    k: Option<usize>,
    algorithm: AlgorithmKind,
    predicate: Predicate,
}

impl Query {
    fn empty() -> Query {
        Query {
            n: None,
            s: None,
            window_duration: None,
            slide_duration: None,
            k: None,
            algorithm: AlgorithmKind::default(),
            predicate: Predicate::default(),
        }
    }

    /// Starts a count-based query over the last `n` objects. The slide
    /// defaults to 1 (re-evaluate on every arrival) and the algorithm to
    /// the paper's SAP.
    pub fn window(n: usize) -> Query {
        Query {
            n: Some(n),
            ..Query::empty()
        }
    }

    /// Starts a time-based query over the last `duration` time units. The
    /// slide defaults to 1 time unit and the algorithm to the paper's SAP;
    /// the engine is constructed through the Appendix-A reduction (see
    /// [`TimedSpec::reduced`]).
    pub fn window_duration(duration: u64) -> Query {
        Query {
            window_duration: Some(duration),
            ..Query::empty()
        }
    }

    /// Sets the result size `k`.
    pub fn top(mut self, k: usize) -> Query {
        self.k = Some(k);
        self
    }

    /// Sets the count-based slide size `s` (must divide `n`). On a
    /// time-based query this records a geometry mix, surfaced by
    /// validation as [`SapError::MixedWindowKinds`].
    pub fn slide(mut self, s: usize) -> Query {
        self.s = Some(s);
        self
    }

    /// Sets the time-based slide duration (must divide the window
    /// duration). On a count-based query this records a geometry mix,
    /// surfaced by validation as [`SapError::MixedWindowKinds`].
    pub fn slide_duration(mut self, duration: u64) -> Query {
        self.slide_duration = Some(duration);
        self
    }

    /// Selects the answering algorithm.
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Query {
        self.algorithm = kind;
        self
    }

    /// Attaches an attribute [`Predicate`]: only matching objects rank
    /// in this query's top-k. The filter applies to the **ranking, not
    /// the stream** — rejected objects still advance arrival ordinals
    /// and event time, so slide numbering matches an unfiltered sibling.
    /// Every hub registration honours it: each one joins a sharing-plane
    /// group, keyed by its predicate among other things.
    pub fn filter(mut self, predicate: Predicate) -> Query {
        self.predicate = predicate;
        self
    }

    /// The attached predicate (pass-all unless [`filter`](Query::filter)
    /// was called).
    pub fn predicate(&self) -> Predicate {
        self.predicate
    }

    /// The configured algorithm.
    pub fn kind(&self) -> &AlgorithmKind {
        &self.algorithm
    }

    /// Whether this query windows on event time (built with
    /// [`Query::window_duration`]) rather than arrival counts. Geometry
    /// mixes report as their *constructor's* kind; validation rejects them
    /// either way.
    pub fn is_time_based(&self) -> bool {
        self.window_duration.is_some()
    }

    /// Validates the full query — geometry (of either window model) and
    /// algorithm configuration — returning which model it is along with
    /// its validated spec.
    pub fn validate_any(&self) -> Result<QuerySpec, SapError> {
        let count = self.n.is_some() || self.s.is_some();
        let timed = self.window_duration.is_some() || self.slide_duration.is_some();
        if count && timed {
            return Err(SapError::MixedWindowKinds);
        }
        self.predicate
            .validate()
            .map_err(|reason| SapError::InvalidPredicate { reason })?;
        let k = self.k.ok_or(SapError::MissingK)?;
        if let Some(duration) = self.window_duration {
            let spec = TimedSpec::new(duration, self.slide_duration.unwrap_or(1), k)?;
            self.algorithm.validate(spec.reduced()?)?;
            return Ok(QuerySpec::Timed(spec));
        }
        // `.slide(s)` with no `.window(n)` is not constructible through the
        // public API (both constructors set a window), but guard anyway
        let n = self.n.ok_or(SapError::Spec(SpecError::WindowEmpty))?;
        let spec = WindowSpec::new(n, k, self.s.unwrap_or(1))?;
        self.algorithm.validate(spec)?;
        Ok(QuerySpec::Count(spec))
    }

    /// Validates a **count-based** query: the `⟨n, k, s⟩` tuple and the
    /// algorithm configuration. Returns the window spec on success; a
    /// time-based query is [`SapError::NotCountBased`] (use
    /// [`validate_timed`](Query::validate_timed) or
    /// [`validate_any`](Query::validate_any) for those).
    pub fn validate(&self) -> Result<WindowSpec, SapError> {
        match self.validate_any()? {
            QuerySpec::Count(spec) => Ok(spec),
            QuerySpec::Timed(_) => Err(SapError::NotCountBased),
        }
    }

    /// Validates a **time-based** query, returning its durations; a
    /// count-based query is [`SapError::NotTimeBased`].
    pub fn validate_timed(&self) -> Result<TimedSpec, SapError> {
        match self.validate_any()? {
            QuerySpec::Timed(spec) => Ok(spec),
            QuerySpec::Count(_) => Err(SapError::NotTimeBased),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let q = Query::window(100).top(5).slide(10);
        let spec = q.validate().unwrap();
        assert_eq!((spec.n, spec.k, spec.s), (100, 5, 10));
        assert_eq!(q.kind().label(), "SAP");
    }

    #[test]
    fn slide_defaults_to_one() {
        let spec = Query::window(7).top(2).validate().unwrap();
        assert_eq!(spec.s, 1);
    }

    #[test]
    fn missing_k_is_an_error() {
        assert_eq!(Query::window(10).validate(), Err(SapError::MissingK));
    }

    #[test]
    fn filter_threads_through_and_is_validated() {
        let q = Query::window(10)
            .top(2)
            .slide(5)
            .filter(Predicate::any().score_at_least(3.0));
        assert!(!q.predicate().is_pass_all());
        assert!(q.validate().is_ok());
        let bad = Query::window(10)
            .top(2)
            .filter(Predicate::any().score_range(5.0, 1.0));
        assert!(matches!(
            bad.validate_any(),
            Err(SapError::InvalidPredicate { .. })
        ));
    }

    #[test]
    fn spec_errors_pass_through() {
        let err = Query::window(10).top(5).slide(3).validate().unwrap_err();
        assert!(matches!(
            err,
            SapError::Spec(SpecError::SlideNotDivisor { .. })
        ));
        assert!(err.to_string().contains("divide"));
    }

    #[test]
    fn timed_builder_round_trip() {
        let q = Query::window_duration(600).top(4).slide_duration(60);
        assert!(q.is_time_based());
        let spec = q.validate_timed().unwrap();
        assert_eq!(spec.window_duration, 600);
        assert_eq!(spec.slide_duration, 60);
        assert_eq!(spec.k, 4);
        assert_eq!(spec.slides_per_window(), 10);
        let reduced = spec.reduced().unwrap();
        assert_eq!((reduced.n, reduced.k, reduced.s), (40, 4, 4));
        assert_eq!(q.validate_any().unwrap(), QuerySpec::Timed(spec));
        assert_eq!(q.validate_any().unwrap().k(), 4);
    }

    #[test]
    fn timed_slide_defaults_to_one_unit() {
        let spec = Query::window_duration(7).top(2).validate_timed().unwrap();
        assert_eq!(spec.slide_duration, 1);
        assert_eq!(spec.slides_per_window(), 7);
    }

    #[test]
    fn mixed_geometry_is_one_typed_error() {
        let from_count = Query::window(100).top(5).slide_duration(10);
        assert_eq!(from_count.validate_any(), Err(SapError::MixedWindowKinds));
        assert!(!from_count.is_time_based(), "constructor decides the kind");
        let from_timed = Query::window_duration(100).top(5).slide(10);
        assert_eq!(from_timed.validate_any(), Err(SapError::MixedWindowKinds));
        assert!(from_timed.is_time_based());
        assert!(from_count
            .validate_any()
            .unwrap_err()
            .to_string()
            .contains("mixes"));
    }

    #[test]
    fn wrong_window_kind_is_typed() {
        let timed = Query::window_duration(100).top(5).slide_duration(10);
        assert_eq!(timed.validate(), Err(SapError::NotCountBased));
        let count = Query::window(100).top(5).slide(10);
        assert_eq!(count.validate_timed(), Err(SapError::NotTimeBased));
    }

    #[test]
    fn timed_spec_rejects_bad_durations() {
        assert_eq!(TimedSpec::new(0, 1, 3), Err(SpecError::WindowEmpty));
        assert!(matches!(
            TimedSpec::new(100, 0, 3),
            Err(SpecError::SlideNotDivisor { .. })
        ));
        assert!(matches!(
            TimedSpec::new(100, 30, 3),
            Err(SpecError::SlideNotDivisor { .. })
        ));
        assert!(matches!(
            TimedSpec::new(100, 200, 3),
            Err(SpecError::SlideNotDivisor { .. })
        ));
        assert!(matches!(
            TimedSpec::new(100, 20, 0),
            Err(SpecError::KOutOfRange { .. })
        ));
        assert!(TimedSpec::new(100, 20, 3).is_ok());
        // k errors flow through the builder's single SapError path
        assert!(matches!(
            Query::window_duration(100)
                .top(0)
                .slide_duration(20)
                .validate_any(),
            Err(SapError::Spec(SpecError::KOutOfRange { .. }))
        ));
    }

    #[test]
    fn timed_algorithm_config_validated_against_reduction() {
        // SMA k_max is checked against the timed query's k, via the
        // reduced spec
        let q = Query::window_duration(100)
            .top(10)
            .slide_duration(10)
            .algorithm(AlgorithmKind::Sma {
                kmax: Some(5),
                grid_buckets: None,
            });
        assert_eq!(
            q.validate_any(),
            Err(SapError::KMaxTooSmall { kmax: 5, k: 10 })
        );
    }

    #[test]
    fn sma_kmax_validated_against_k() {
        let q = Query::window(100)
            .top(10)
            .slide(10)
            .algorithm(AlgorithmKind::Sma {
                kmax: Some(5),
                grid_buckets: None,
            });
        assert_eq!(q.validate(), Err(SapError::KMaxTooSmall { kmax: 5, k: 10 }));
        let ok = Query::window(100)
            .top(10)
            .slide(10)
            .algorithm(AlgorithmKind::sma());
        assert!(ok.validate().is_ok());
        let empty_grid = Query::window(100)
            .top(10)
            .slide(10)
            .algorithm(AlgorithmKind::Sma {
                kmax: None,
                grid_buckets: Some(0),
            });
        assert_eq!(empty_grid.validate(), Err(SapError::GridEmpty));
    }

    #[test]
    fn sap_alpha_validated() {
        let q = Query::window(100)
            .top(10)
            .slide(10)
            .algorithm(AlgorithmKind::Sap {
                policy: SapPolicy::Dynamic,
                delay_formation: true,
                use_savl: true,
                alpha: 1.5,
            });
        assert_eq!(q.validate(), Err(SapError::AlphaOutOfRange { alpha: 1.5 }));
    }

    #[test]
    fn errors_display_and_chain() {
        use std::error::Error;
        let e: SapError = SpecError::WindowEmpty.into();
        assert!(e.source().is_some());
        assert!(SapError::MissingK.source().is_none());
        assert!(SapError::NonFiniteScore {
            id: 3,
            score: f64::NAN
        }
        .to_string()
        .contains("non-finite"));
        let unknown = SapError::UnknownQuery {
            query: crate::session::QueryId::from_raw(3),
        };
        assert_eq!(
            unknown.to_string(),
            "no query q3 is registered with this hub"
        );
        assert!(unknown.source().is_none());
    }
}
