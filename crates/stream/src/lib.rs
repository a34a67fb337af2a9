//! Streaming data model for continuous top-k queries over sliding windows.
//!
//! This crate hosts everything the algorithms (both the SAP framework and
//! the baselines) share:
//!
//! * the [`Object`]/[`ScoreKey`] data model with the paper's dominance
//!   relation (§2.1) and a deterministic total order for tie-breaking;
//! * [`WindowSpec`] — the query tuple `⟨n, k, s⟩` (the preference function
//!   `F` is applied up front, so objects carry their scores);
//! * the [`SlidingTopK`] trait every algorithm implements, plus the
//!   operation counters ([`OpStats`]) used by the complexity assertions and
//!   the evaluation harness;
//! * the workload [`generators`] reproducing the paper's five datasets
//!   (§6.1) — simulated STOCK/TRIP/PLANET plus the exact synthetic TIMER
//!   and TIMEU — and extra adversarial streams;
//! * the instrumented [`driver`] that feeds a stream through an algorithm
//!   and records time, candidate counts, and memory;
//! * the **query-session layer**: the fluent [`Query`] builder and unified
//!   [`SapError`], flexible standalone ingestion
//!   ([`Ingest`]/[`Session`], [`TimedIngest`]/[`TimedSession`]) that
//!   re-chunks arbitrary-size pushes into slides, the multi-query [`Hub`]
//!   serving many standing queries over one stream (each registered
//!   through one [`Registration`] value and served as a
//!   [`GroupSession`]), and typed [`TopKEvent`] result deltas;
//! * the **async hub** ([`AsyncHub`]) — the same serving partitioned
//!   across logical shards served by a few worker threads, with
//!   backpressure on `publish`;
//! * the **shared digest plane** ([`digest`]) — per-slide top-`k_max`
//!   digests computed once per group and served to every member, on one
//!   of two clocks: **slide groups** of time-based queries with equal
//!   `slide_duration`, and **count groups** of count-based queries with
//!   equal slide length and registration offset mod `s`, whose members
//!   slice their `(n, k)` view of each slide at width `min(k, s)`
//!   ([`WindowSpec::reduced`]). Every registration joins a group, and
//!   [`HubStats`] reports how much work the sharing saved.

//! ## Scaling
//!
//! Two hubs serve many standing queries over one stream, and both take
//! the same [`Registration`]:
//!
//! * [`Hub`] is synchronous and single-threaded: `publish` serves the
//!   groups in the caller's thread and returns the completed slides
//!   immediately. Simple, deterministic, and the reference semantics.
//! * [`AsyncHub`] partitions queries across N logical **shards** (hash
//!   of a group's founding [`QueryId`]; every member follows its group)
//!   multiplexed onto M reactor worker threads, so the shard count is
//!   not capped by the core count, and a hot group serves from one
//!   shard. A shard is only ever served by one worker at a time — shard
//!   ownership replaces locking. `publish` is a single-lock broadcast of
//!   one [`Arc`](std::sync::Arc) of the batch onto **bounded** per-shard
//!   queues; it parks while any queue is full (or refuses via
//!   [`AsyncHub::poll_ready`]/[`AsyncHub::try_publish`]), so a publisher
//!   can never run unboundedly ahead of the slowest shard. The ready
//!   pick order is a pluggable, seedable [`Scheduler`] — see [`exec`].
//!
//! Parallel execution stays observably equivalent to the sequential hub
//! through the **determinism barrier**: results accumulate shard-side,
//! and [`AsyncHub::drain`] waits for every shard to catch up, then
//! returns the accumulated updates sorted by `(QueryId, slide)` — an
//! order independent of shard count, worker count and thread timing.
//! Per-query outputs are byte-identical to [`Hub`]'s because each
//! group sees exactly the same object sequence either way;
//! `tests/hub_model.rs` checks both hubs against one brute-force model
//! under over a thousand seeded schedules for SAP and all four
//! baselines, including mid-stream registration and unregistration. SAP's per-slide dirty
//! flag keeps quiet queries at O(1) per slide, which is what makes
//! hash-partitioning (no work stealing) balance well even under skewed
//! query mixes.
//!
//! ## Window models
//!
//! Queries window on one of two clocks, chosen by the [`Query`] builder's
//! constructor and served side by side on either hub:
//!
//! * **count-based** (`Query::window(n)`) — the last `n` *objects*,
//!   sliding every `s` arrivals; the paper's primary model;
//! * **time-based** (`Query::window_duration(n)`) — the last `n` *time
//!   units*, sliding every `s` time units (Appendix A), where the number
//!   of objects per slide varies with the arrival rate and empty slides
//!   are real slides. Timed streams enter through
//!   [`Hub::publish_timed`]/[`TimedIngest`], and quiescence is published
//!   by raising the event-time watermark ([`Hub::advance_time`]).
//!
//! ```
//! use sap_stream::{Query, WindowSpec};
//!
//! let spec = Query::window(100).top(5).slide(10).validate().unwrap();
//! assert_eq!(spec, WindowSpec::new(100, 5, 10).unwrap());
//! let timed = Query::window_duration(3_600).top(5).slide_duration(60);
//! assert_eq!(timed.validate_timed().unwrap().slides_per_window(), 60);
//! ```

pub mod checkpoint;
pub mod digest;
pub mod driver;
pub mod events;
pub mod exec;
pub mod generators;
pub mod metrics;
pub mod object;
pub mod predicate;
pub mod query;
mod registry;
pub mod session;
mod shard;
#[cfg(test)]
mod test_support;
pub mod window;

pub use checkpoint::{
    Checkpoint, CheckpointError, DecodeState, Decoder, EncodeState, Encoder, EngineFactory,
};
pub use digest::{DigestProducer, DigestView, SharedTimed};
pub use driver::{checksum_fold, run, run_collecting, RunSummary, CHECKSUM_SEED};
pub use events::{
    diff_snapshots, diff_snapshots_into, DiffScratch, EventList, SlideResult, Snapshot, TopKEvent,
};
pub use exec::{
    AsyncHub, FifoScheduler, Scheduler, SeededScheduler, COMMANDS_PER_WAKEUP,
    DEFAULT_QUEUE_CAPACITY, PUBLISH_ONE_COALESCE,
};
pub use generators::{ArrivalProcess, Dataset, Workload};
pub use metrics::OpStats;
pub use object::{Object, ScoreKey, TimedObject};
pub use predicate::Predicate;
pub use query::{AlgorithmKind, Query, QuerySpec, SapError, SapPolicy, TimedSpec};
pub use registry::{HubStats, Registration};
pub use session::{
    Clock, GroupSession, Hub, HubSession, QueryId, QueryUpdate, Session, SlideScratch, TimedSession,
};
pub use shard::QueryState;
pub use window::{Ingest, SlidingTopK, SpecError, TimedIngest, TimedTopK, WindowSpec};
