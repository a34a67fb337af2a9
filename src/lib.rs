//! # sap — continuous top-k queries over streaming data
//!
//! A complete Rust reproduction of *"SAP: Improving Continuous Top-K
//! Queries over Streaming Data"* (Zhu, Wang, Yang, Zheng, Wang — IEEE TKDE
//! 29(6), 2017), grown into a query-serving library. The workspace:
//!
//! * [`core`] — the SAP framework: self-adaptive partitioning, the S-AVL
//!   structure, equal / dynamic / enhanced-dynamic partition policies, and
//!   a time-based window adapter;
//! * [`baselines`] — the paper's competitors: the naive re-scanning
//!   oracle, the k-skyband algorithm, MinTopK, and SMA with a grid index;
//! * [`stream`] — the shared data model, workload generators, the
//!   instrumented driver, and the query-session API re-exported through
//!   [`prelude`];
//! * [`stats`] — the Mann–Whitney rank test, selection algorithms, and the
//!   paper's parameter solvers;
//! * [`avltree`] — the order-statistic AVL tree underneath it all.
//!
//! ## Quickstart
//!
//! Describe a query with the fluent builder, [`build`] it into an engine,
//! and feed it through a [`Session`] — pushes of *any*
//! size are re-chunked internally, and every completed slide reports both
//! the snapshot and what changed:
//!
//! ```
//! use sap::prelude::*;
//!
//! // top-5 of the last 1000 objects, re-evaluated every 10 arrivals
//! let query = Query::window(1000).top(5).slide(10);
//! let mut session = query.session().unwrap();
//!
//! let mut id = 0u64;
//! for burst in [3usize, 17, 256, 41] {
//!     let batch: Vec<Object> = (0..burst)
//!         .map(|_| {
//!             let o = Object::new(id, (id % 97) as f64);
//!             id += 1;
//!             o
//!         })
//!         .collect();
//!     for slide in session.push(&batch) {
//!         assert!(slide.snapshot.len() <= 5);
//!         for event in &slide.events {
//!             match event {
//!                 TopKEvent::Entered(o) => assert!(slide.snapshot.contains(o)),
//!                 TopKEvent::Exited(o) => assert!(!slide.snapshot.contains(o)),
//!                 TopKEvent::Unchanged => {}
//!             }
//!         }
//!     }
//! }
//! ```
//!
//! Many standing queries — mixed geometries *and* mixed algorithms —
//! share one stream through a [`Hub`]:
//!
//! ```
//! use sap::prelude::*;
//!
//! let mut hub = Hub::new();
//! let fast = hub.register(&Query::window(100).top(3).slide(10)).unwrap();
//! let deep = hub
//!     .register(&Query::window(500).top(20).slide(50).algorithm(AlgorithmKind::MinTopK))
//!     .unwrap();
//!
//! for o in (0..1000).map(|i| Object::new(i, (i % 31) as f64)) {
//!     for update in hub.publish_one(o) {
//!         assert!(update.query == fast || update.query == deep);
//!     }
//! }
//! assert_eq!(hub.session(fast).unwrap().slides(), 100);
//! assert_eq!(hub.session(deep).unwrap().slides(), 20);
//! ```

pub use sap_avltree as avltree;
pub use sap_baselines as baselines;
pub use sap_core as core;
pub use sap_stats as stats;
pub use sap_stream as stream;

/// Compiles and runs the README's code blocks as doctests, so the
/// quickstart can never rot: `cargo test --doc` (the CI docs job)
/// executes them against the real crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub mod prelude;

use sap_core::TimeBased;
use sap_stream::{
    AlgorithmKind, AsyncHub, EngineFactory, Hub, Query, QueryId, Registration, SapError, Session,
    SlidingTopK, TimedSession, TimedSpec, TimedTopK, WindowSpec,
};

/// Builds the boxed engine a count-based [`Query`] describes, dispatching
/// [`AlgorithmKind::Sap`] to the [`core`]
/// engine and every other kind to [`baselines`]. Validates the query
/// first; all failures surface as [`SapError`], and a time-based query is
/// [`SapError::NotCountBased`] (see [`build_timed`]).
pub fn build(query: &Query) -> Result<Box<dyn SlidingTopK>, SapError> {
    let alg: Box<dyn SlidingTopK + Send> = build_send(query)?;
    Ok(alg)
}

/// Like [`build`], but the box is [`Send`] — the engine type a
/// [`Registration`] carries, so the query can serve on either hub
/// (an [`AsyncHub`] moves it to a worker thread). Every algorithm in
/// this workspace is `Send`; the separate entry point only exists
/// because `dyn SlidingTopK + Send` and `dyn SlidingTopK` are distinct
/// types.
pub fn build_send(query: &Query) -> Result<Box<dyn SlidingTopK + Send>, SapError> {
    build_engine(query.validate()?, query)
}

/// Engine construction shared by every path: the spec is the query's own
/// `⟨n, k, s⟩` (standalone), or the reduction a hub serves it on — the
/// arrival-clock [`WindowSpec::reduced`] of a count query, the
/// Appendix-A [`TimedSpec::reduced`] of a time-based one.
fn build_engine(spec: WindowSpec, query: &Query) -> Result<Box<dyn SlidingTopK + Send>, SapError> {
    if let Some(cfg) = sap_core::SapConfig::from_kind(spec, query.kind()) {
        return Ok(Box::new(sap_core::Sap::new(cfg?)));
    }
    sap_baselines::from_kind(spec, query.kind())
        .expect("every non-SAP algorithm kind is a baseline")
}

/// Builds the boxed time-based engine a [`Query::window_duration`] query
/// describes: the configured algorithm is constructed over the
/// Appendix-A reduction and wrapped in [`TimeBased`]
/// — so SAP *and* every baseline answer time-based queries. A
/// count-based query is [`SapError::NotTimeBased`].
pub fn build_timed(query: &Query) -> Result<Box<dyn TimedTopK + Send>, SapError> {
    let spec: TimedSpec = query.validate_timed()?;
    let inner = build_engine(spec.reduced().map_err(SapError::Spec)?, query)?;
    let adapter = TimeBased::from_engine(inner, spec.window_duration, spec.slide_duration)
        .expect("validated durations reduce to the engine's spec");
    Ok(Box::new(adapter))
}

/// The facade's [`EngineFactory`]: rebuilds any engine this workspace
/// ships from the name a checkpoint recorded
/// ([`SlidingTopK::name`]), so
/// [`Hub::restore`](stream::Hub::restore) and
/// [`AsyncHub::restore`](stream::AsyncHub::restore) work
/// out of the box for every SAP variant and every baseline.
///
/// Restored engines use each algorithm's *default* construction for the
/// recorded spec — tuning knobs that do not change answers (SMA's `kmax`
/// and grid resolution, SAP's `alpha`) are not captured by the format,
/// which is sound because every engine is an exact top-k function of its
/// window: outputs are byte-identical regardless of those knobs. A name
/// the factory does not recognise (e.g. a checkpoint from a build with a
/// custom engine) is [`SapError::Checkpoint`] with
/// [`CheckpointError::UnknownEngine`](stream::checkpoint::CheckpointError::UnknownEngine);
/// supply your own [`EngineFactory`] to extend the table.
///
/// ```
/// use sap::prelude::*;
///
/// let mut hub = Hub::new();
/// hub.register(&Query::window(100).top(3).slide(10)).unwrap();
/// let bytes = hub.checkpoint().as_bytes().to_vec();
///
/// let restored = Hub::restore(
///     &Checkpoint::from_bytes(&bytes).unwrap(),
///     &DefaultEngineFactory,
/// )
/// .unwrap();
/// assert_eq!(restored.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultEngineFactory;

impl DefaultEngineFactory {
    fn by_name(name: &str, spec: WindowSpec) -> Result<Box<dyn SlidingTopK + Send>, SapError> {
        let cfg = match name {
            "SAP" => Some(sap_core::SapConfig::enhanced(spec)),
            "SAP-dyna" => Some(sap_core::SapConfig::dynamic(spec)),
            "SAP-equal+savl" => Some(sap_core::SapConfig::equal(spec, None)),
            "SAP-equal" => Some(sap_core::SapConfig::equal(spec, None).without_savl()),
            "SAP-equal-nondelay" => Some(sap_core::SapConfig::equal(spec, None).without_delay()),
            _ => None,
        };
        if let Some(cfg) = cfg {
            return Ok(Box::new(sap_core::Sap::new(cfg)));
        }
        let kind = match name {
            "naive" => AlgorithmKind::Naive,
            "k-skyband" => AlgorithmKind::KSkyband,
            "MinTopK" => AlgorithmKind::MinTopK,
            "SMA" => AlgorithmKind::sma(),
            _ => return Err(SapError::checkpoint_unknown_engine(name)),
        };
        sap_baselines::from_kind(spec, &kind).expect("every mapped name is a baseline kind")
    }
}

impl EngineFactory for DefaultEngineFactory {
    fn count(&self, name: &str, spec: WindowSpec) -> Result<Box<dyn SlidingTopK + Send>, SapError> {
        Self::by_name(name, spec)
    }
}

/// Builder finalizers on [`Query`], available via [`prelude`].
///
/// `Query` lives in `sap_stream`, below the algorithm crates, so the
/// construction step lands here where SAP and the baselines are both in
/// scope.
pub trait QueryExt {
    /// Validates and constructs the described count-based algorithm.
    fn build(&self) -> Result<Box<dyn SlidingTopK>, SapError>;

    /// Validates, constructs, and wraps the algorithm in a
    /// [`Session`] accepting arbitrary-size pushes.
    fn session(&self) -> Result<Session<Box<dyn SlidingTopK>>, SapError>;

    /// Validates and constructs the described time-based engine (see
    /// [`build_timed`]).
    fn build_timed(&self) -> Result<Box<dyn TimedTopK + Send>, SapError>;

    /// Validates, constructs, and wraps the time-based engine in a
    /// [`TimedSession`] accepting timestamped pushes.
    fn timed_session(&self) -> Result<TimedSession<Box<dyn TimedTopK + Send>>, SapError>;
}

impl QueryExt for Query {
    fn build(&self) -> Result<Box<dyn SlidingTopK>, SapError> {
        build(self)
    }

    fn session(&self) -> Result<Session<Box<dyn SlidingTopK>>, SapError> {
        Ok(Session::new(build(self)?))
    }

    fn build_timed(&self) -> Result<Box<dyn TimedTopK + Send>, SapError> {
        build_timed(self)
    }

    fn timed_session(&self) -> Result<TimedSession<Box<dyn TimedTopK + Send>>, SapError> {
        Ok(TimedSession::new(build_timed(self)?))
    }
}

/// Query registration on [`Hub`] and [`AsyncHub`], available via
/// [`prelude`]: validates a [`Query`], builds its engine, and hands the
/// hub's one entry point the [`Registration`] it describes.
pub trait HubExt {
    /// The hub's engine-level entry point
    /// ([`Hub::subscribe`]/[`AsyncHub::subscribe`]) every method below
    /// registers through.
    fn subscribe(&mut self, registration: Registration) -> Result<QueryId, SapError>;

    /// Validates and constructs a query — **of either window model** —
    /// then registers it as a standing subscription, returning its
    /// handle. Every query joins a group, so every one accepts a
    /// [`Query::filter`]: a count-based query slides on published
    /// arrival counts in its count group — this is
    /// [`register_grouped`](HubExt::register_grouped) — and a time-based
    /// one (built with [`Query::window_duration`]) slides on the
    /// timestamps of `publish_timed` streams in its slide group — this is
    /// [`register_shared`](HubExt::register_shared).
    fn register(&mut self, query: &Query) -> Result<QueryId, SapError> {
        if query.is_time_based() {
            self.register_shared(query)
        } else {
            self.register_grouped(query)
        }
    }

    /// Validates and constructs a **time-based** query, then registers it
    /// on the hub's shared digest plane: every registered query with the
    /// same `slide_duration` **and the same [`Query::filter`]
    /// predicate** is served from one per-slide top-`k_max` digest
    /// instead of recomputing its own, with results byte-identical to a
    /// standalone [`QueryExt::timed_session`].
    /// Predicate-disjoint queries on one slide duration form separate
    /// sub-groups, so a selective subscription never perturbs a pass-all
    /// neighbor. A count-based query is [`SapError::NotTimeBased`].
    fn register_shared(&mut self, query: &Query) -> Result<QueryId, SapError> {
        let spec = query.validate_timed()?;
        let engine = build_engine(spec.reduced().map_err(SapError::Spec)?, query)?;
        let registration = Registration::shared(engine, spec.window_duration, spec.slide_duration);
        self.subscribe(registration.filter(query.predicate()))
    }

    /// Validates and constructs a **count-based** query, then registers
    /// it on the hub's count plane: queries are grouped by window
    /// geometry (slide length + registration offset mod `s`) and
    /// [`Query::filter`] predicate, each group ingests every published
    /// object once, and members slice their `(n, k)` view from the
    /// group's shared per-slide digest — with results byte-identical to
    /// a standalone [`QueryExt::session`]. The engine runs the query's
    /// [`WindowSpec::reduced`] spec. A time-based query is
    /// [`SapError::NotCountBased`].
    fn register_grouped(&mut self, query: &Query) -> Result<QueryId, SapError> {
        let spec = query.validate()?;
        let engine = build_engine(spec.reduced(), query)?;
        let registration = Registration::grouped(engine, spec.n, spec.s);
        self.subscribe(registration.filter(query.predicate()))
    }
}

impl HubExt for Hub {
    fn subscribe(&mut self, registration: Registration) -> Result<QueryId, SapError> {
        Hub::subscribe(self, registration)
    }
}

impl HubExt for AsyncHub {
    fn subscribe(&mut self, registration: Registration) -> Result<QueryId, SapError> {
        AsyncHub::subscribe(self, registration)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn build_dispatches_sap_and_baselines() {
        let base = Query::window(100).top(5).slide(10);
        assert_eq!(base.build().unwrap().name(), "SAP");
        for (kind, name) in [
            (AlgorithmKind::Naive, "naive"),
            (AlgorithmKind::KSkyband, "k-skyband"),
            (AlgorithmKind::MinTopK, "MinTopK"),
            (AlgorithmKind::sma(), "SMA"),
        ] {
            assert_eq!(base.clone().algorithm(kind).build().unwrap().name(), name);
        }
        let dyna = base
            .clone()
            .algorithm(AlgorithmKind::Sap {
                policy: SapPolicy::Dynamic,
                delay_formation: true,
                use_savl: true,
                alpha: 0.05,
            })
            .build()
            .unwrap();
        assert_eq!(dyna.name(), "SAP-dyna");
    }

    #[test]
    fn build_propagates_validation_errors() {
        assert!(matches!(
            Query::window(0).top(1).build(),
            Err(SapError::Spec(_))
        ));
        assert!(matches!(
            Query::window(100)
                .top(10)
                .slide(10)
                .algorithm(AlgorithmKind::Sma {
                    kmax: Some(1),
                    grid_buckets: None
                })
                .build(),
            Err(SapError::KMaxTooSmall { .. })
        ));
    }

    #[test]
    fn hub_register_validates() {
        let mut hub = Hub::new();
        assert!(hub.register(&Query::window(10)).is_err(), "missing k");
        assert_eq!(hub.len(), 0, "failed registration leaves no session");
        let id = hub.register(&Query::window(10).top(2).slide(5)).unwrap();
        assert_eq!(hub.session(id).unwrap().k(), 2);
    }

    #[test]
    fn filtered_count_register_lands_on_an_arrival_clock_group() {
        let keyed = Predicate::any().score_at_least(3.0);
        let counted = Query::window(10).top(2).slide(5).filter(keyed);
        let timed = Query::window_duration(10)
            .top(2)
            .slide_duration(5)
            .filter(keyed);

        // a filtered count query lands on its count group, a filtered
        // time-based one on its slide group
        let mut hub = Hub::new();
        let q = hub.register(&counted).unwrap();
        assert_eq!(hub.session(q).unwrap().clock(), Clock::Arrival);
        let q = hub.register(&timed).unwrap();
        assert_eq!(hub.session(q).unwrap().clock(), Clock::Event);
        hub.register_shared(&timed).unwrap();
        hub.register_grouped(&counted).unwrap();
        assert_eq!(hub.len(), 4);
        let stats = hub.stats();
        assert_eq!((stats.grouped_queries, stats.count_groups), (2, 1));
        assert_eq!((stats.shared_queries, stats.digest_groups), (2, 1));

        let mut reactor = AsyncHub::new(2, 1);
        reactor.register(&counted).unwrap();
        reactor.register(&timed).unwrap();
        reactor.register_shared(&timed).unwrap();
        reactor.register_grouped(&counted).unwrap();
        assert_eq!(reactor.len(), 4);
        let stats = reactor.stats().unwrap();
        assert_eq!((stats.grouped_queries, stats.count_groups), (2, 1));
        assert_eq!((stats.shared_queries, stats.digest_groups), (2, 1));
    }

    #[test]
    fn session_and_direct_slides_agree() {
        let query = Query::window(60).top(4).slide(6);
        let data: Vec<Object> = (0..240)
            .map(|i| Object::new(i, ((i * 37) % 101) as f64))
            .collect();
        let mut direct = query.build().unwrap();
        let mut session = query.session().unwrap();
        let mut expected = Vec::new();
        for batch in data.chunks_exact(6) {
            expected.push(direct.slide(batch).to_vec());
        }
        // deliver the same stream in ragged chunks
        let got: Vec<Snapshot> = [&data[..5], &data[5..9], &data[9..200], &data[200..]]
            .into_iter()
            .flat_map(|chunk| session.push(chunk))
            .map(|r| r.snapshot)
            .collect();
        assert_eq!(got, expected);
    }
}
