//! The one-line import for the query-session API:
//! `use sap::prelude::*;`.
//!
//! Brings in the fluent [`Query`] builder — both window models — with its
//! facade finalizers ([`QueryExt::build`]/[`QueryExt::session`]/
//! [`QueryExt::timed_session`]), the multi-query [`Hub`] and the
//! reactor-multiplexed [`AsyncHub`] (with its seedable [`Scheduler`]s)
//! — both with [`HubExt::register`], the shared digest plane's
//! [`HubExt::register_shared`], and the count plane's
//! [`HubExt::register_grouped`] over the engine-level
//! [`Registration`], serving each query as a [`GroupSession`] (plus
//! their [`HubStats`] sharing metrics), flexible
//! ingestion ([`Ingest`]/[`TimedIngest`]), typed result deltas
//! ([`TopKEvent`]/[`SlideResult`]), the data model (count-based
//! [`Object`] and timestamped [`TimedObject`]), the workload generators
//! with their [`ArrivalProcess`] timing model, the durability plane
//! ([`Checkpoint`]/[`CheckpointError`] with the ready-made
//! [`DefaultEngineFactory`]), and the algorithm entry points.

pub use crate::{build, build_send, build_timed, DefaultEngineFactory, HubExt, QueryExt};

pub use sap_stream::{
    run, run_collecting, AlgorithmKind, ArrivalProcess, AsyncHub, Checkpoint, CheckpointError,
    Clock, Dataset, DigestProducer, DigestView, EngineFactory, EventList, FifoScheduler,
    GroupSession, Hub, HubSession, HubStats, Ingest, Object, OpStats, Predicate, Query, QueryId,
    QuerySpec, QueryState, QueryUpdate, Registration, RunSummary, SapError, SapPolicy, Scheduler,
    ScoreKey, SeededScheduler, Session, SharedTimed, SlideResult, SlideScratch, SlidingTopK,
    Snapshot, SpecError, TimedIngest, TimedObject, TimedSession, TimedSpec, TimedTopK, TopKEvent,
    WindowSpec, Workload,
};

pub use sap_core::{Sap, SapConfig, TimeBased, TimeBasedSap};

pub use sap_baselines::{KSkyband, MinTopK, NaiveTopK, Sma};
