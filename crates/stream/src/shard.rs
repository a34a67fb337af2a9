//! The sharded, thread-parallel multi-query hub.
//!
//! [`Hub`](crate::session::Hub) fans every published object out to every
//! registered query *in the caller's thread*: one slow subscription stalls
//! the whole ingestion path, and throughput is capped at a single core.
//! [`ShardedHub`] is the parallel counterpart on the road from hundreds of
//! standing queries toward the millions of *Continuous Top-k Queries over
//! Real-Time Web Streams*:
//!
//! * registered queries are **partitioned across N shards** by hash of
//!   their [`QueryId`]; each shard is owned by a dedicated worker thread,
//!   so a query's session is only ever touched by one thread and needs no
//!   locking;
//! * [`publish`](ShardedHub::publish) hands each shard an [`Arc`] of the
//!   batch through a **bounded** channel — when a shard's queue is full
//!   the publisher blocks until the worker catches up (backpressure on
//!   the ingestion path instead of unbounded input buffering). Completed
//!   results, by contrast, are *retained* shard-side until collected —
//!   drain at your publish cadence to bound them (see
//!   [`publish`](ShardedHub::publish));
//! * [`drain`](ShardedHub::drain) is a **barrier**: it waits until every
//!   shard has processed everything published so far and returns the
//!   accumulated [`QueryUpdate`]s sorted by `(QueryId, slide)` — a
//!   deterministic order, independent of shard count and thread timing,
//!   that matches the sequential [`Hub`](crate::session::Hub)'s
//!   registration-order delivery (ids are handed out in registration
//!   order, and each query's slides are naturally ascending).
//!
//! Per-query results are **byte-identical** to the sequential hub: each
//! session observes exactly the same object sequence in the same order,
//! only the fan-out loop is distributed. SAP's per-slide dirty flag makes
//! this sharding profitable even with many quiet queries — a quiet slide
//! costs O(1) on its shard, so shards stay balanced without work stealing.
//!
//! All window models are served: count-based queries
//! ([`register_boxed`](ShardedHub::register_boxed)), isolated time-based
//! queries ([`register_timed_boxed`](ShardedHub::register_timed_boxed)),
//! and shared-digest time-based queries
//! ([`register_shared_boxed`](ShardedHub::register_shared_boxed))
//! coexist on the same shards, fed together by
//! [`publish_timed`](ShardedHub::publish_timed) (count-based sessions see
//! arrival order, time-based sessions consume the timestamps). Slide
//! closure driven by timestamps is just as deterministic as count-driven
//! closure — it depends only on the published sequence, never on thread
//! timing — so the drain order contract is unchanged.
//!
//! Shared queries add one placement rule: a slide group's digest
//! producer is **shard-local** state, so every member of a group lives
//! on the shard where the group was founded — a query joining an
//! existing group is routed there even when the Fibonacci hash of its id
//! points elsewhere. Placement is invisible in the output: the drain
//! barrier sorts globally by `(QueryId, slide)`, and per-query results
//! do not depend on which thread computed them.
//!
//! ## When a worker dies
//!
//! A panicking engine kills its shard's worker thread. Every fallible
//! operation reports that as a typed [`SapError::ShardDown`] carrying the
//! shard index — never a hub-side panic. The queries owned by the dead
//! shard are lost (their sessions died with the thread); the surviving
//! shards keep answering, but the hub can no longer fan out to its full
//! query set, so the recovery story is: rescue what you need from healthy
//! shards via [`unregister`](ShardedHub::unregister), drop the hub, build
//! a fresh one, and re-register. The hub never respawns workers silently
//! — losing standing queries' state is not something to paper over.
//! Guarding against that loss *in advance* is what
//! [`checkpoint`](ShardedHub::checkpoint) is for: snapshot periodically,
//! and when a shard dies, [`restore`](ShardedHub::restore) the last
//! checkpoint into a fresh hub (`examples/checkpoint.rs` walks the whole
//! drill).
//!
//! ## Elastic operation
//!
//! The durability plane doubles as live migration:
//! [`move_query`](ShardedHub::move_query) transfers one query's session
//! (a shared query: its whole slide group) to a chosen shard between two
//! publishes, and [`resize`](ShardedHub::resize) re-partitions every
//! session across a new worker count. Neither perturbs results: slides
//! completed on the old and new shard meet in the next
//! [`drain`](ShardedHub::drain), whose global `(QueryId, slide)` sort is
//! placement-blind.
//!
//! ```
//! use sap_stream::{Object, ShardedHub};
//! # use sap_stream::{OpStats, SlidingTopK, WindowSpec};
//! # struct Toy(WindowSpec, Vec<Object>);
//! # impl sap_stream::checkpoint::CheckpointState for Toy {}
//! # impl SlidingTopK for Toy {
//! #     fn spec(&self) -> WindowSpec { self.0 }
//! #     fn slide(&mut self, b: &[Object]) -> &[Object] { self.1 = b.to_vec(); &self.1 }
//! #     fn candidate_count(&self) -> usize { 0 }
//! #     fn memory_bytes(&self) -> usize { 0 }
//! #     fn stats(&self) -> OpStats { OpStats::default() }
//! #     fn name(&self) -> &str { "toy" }
//! # }
//! let mut hub = ShardedHub::new(4);
//! let q = hub.register_alg(Toy(WindowSpec::new(2, 1, 2).unwrap(), Vec::new())).unwrap();
//! hub.publish(&[Object::new(0, 1.0), Object::new(1, 5.0)]).unwrap();
//! let updates = hub.drain().unwrap(); // barrier: all shards caught up
//! assert_eq!(updates.len(), 1);
//! assert_eq!(updates[0].query, q);
//! ```

use std::collections::{BTreeSet, HashMap};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::checkpoint::{tags, Checkpoint, CheckpointError, Decoder, Encoder, EngineFactory};
use crate::digest::{DigestProducer, SharedTimed};
use crate::events::Snapshot;
use crate::object::{Object, TimedObject};
use crate::predicate::Predicate;
use crate::query::SapError;
use crate::registry::{
    split_by_group, CountGroupState, GroupKeys, HubStats, Registry, RegistryParts,
};
use crate::session::{AnySession, QueryId, QueryUpdate};
use crate::window::{SlidingTopK, TimedTopK, WindowSpec};

/// Default bound on each shard's queue, in published batches. Deep enough
/// to keep workers busy across bursty publishes, shallow enough that a
/// stalled shard pushes back on the publisher instead of buffering the
/// stream.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// How many singly-published objects [`ShardedHub::publish_one`]
/// coalesces into one pending batch before forcing a flush. Small enough
/// that a trickle publisher's objects reach the shards promptly relative
/// to any barrier, large enough that a tight `publish_one` loop costs one
/// `Arc` batch per `PUBLISH_ONE_COALESCE` objects instead of one per
/// object.
pub const PUBLISH_ONE_COALESCE: usize = 128;

/// A query session (of either window model) whose engine can cross
/// threads — what a [`ShardedHub`] hands back on
/// [`unregister`](ShardedHub::unregister).
pub type ShardSession = AnySession<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// One worker's ejected serving state (plus its undrained updates) —
/// what travels back on [`ShardedHub::resize`]'s rescatter path.
pub(crate) type ShardParts = RegistryParts<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// The reply channel a worker answers an `EjectAll` on: its full serving
/// state plus any updates parked in its outbound queue.
type PartsReply = mpsc::Receiver<(ShardParts, Vec<QueryUpdate>)>;

/// The registry flavor every hub worker drives: engines boxed and
/// [`Send`], because they cross (or may cross) a thread boundary.
pub(crate) type ShardRegistry = Registry<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// A point-in-time view of one query, fetched across the shard boundary
/// by [`ShardedHub::inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryState {
    /// Number of slides the query has completed.
    pub slides: u64,
    /// The query's most recent top-k emission (descending), empty before
    /// the first completed slide. Refcounted: crossing the shard boundary
    /// shares the session's retained `Arc` instead of copying the top-k.
    pub last_snapshot: Snapshot,
}

/// What the publisher sends down a shard's queue. Control commands travel
/// the same channel as data, so registration and unregistration are
/// totally ordered with respect to the publishes around them — a query
/// registered after `publish(a)` and before `publish(b)` sees exactly the
/// objects of `b` onward, same as with the sequential hub. Shared with
/// [`AsyncHub`](crate::exec::AsyncHub), whose per-shard `VecDeque`s carry
/// the same commands the channel transport does.
pub(crate) enum Command {
    Publish(Arc<[Object]>),
    PublishTimed(Arc<[TimedObject]>),
    AdvanceTime(u64),
    Register(QueryId, Box<dyn SlidingTopK + Send>),
    RegisterTimed(QueryId, Box<dyn TimedTopK + Send>),
    /// The subscription predicate is part of the group key (disjoint
    /// predicates split one slide duration into sub-groups). The trailing
    /// `usize` is the hub-computed home shard for the query's slide group
    /// — the receiving worker debug-asserts it owns it, so a group can
    /// never silently span shards.
    RegisterShared(
        QueryId,
        SharedTimed<Box<dyn SlidingTopK + Send>>,
        Predicate,
        usize,
    ),
    /// A count-group member: the reduced consumer, the plain `⟨n, k, s⟩`
    /// spec, the subscription predicate (part of the geometry-class key),
    /// and the hub-computed home shard of its class (same
    /// no-silent-spanning contract as `RegisterShared`).
    RegisterGrouped(
        QueryId,
        SharedTimed<Box<dyn SlidingTopK + Send>>,
        WindowSpec,
        Predicate,
        usize,
    ),
    Unregister(QueryId, mpsc::Sender<ShardSession>),
    Inspect(QueryId, mpsc::Sender<QueryState>),
    /// Stats partial plus the group identities backing it, so the hub
    /// can debug-assert the shard-locality invariant the summed
    /// `digest_groups`/`count_groups` totals depend on.
    Stats(mpsc::Sender<(HubStats, GroupKeys)>),
    Flush(mpsc::Sender<()>),
    Drain(mpsc::Sender<Vec<QueryUpdate>>),
    /// Serialize this worker's registry as one framed `tags::REGISTRY`
    /// section (the hub splices the per-shard sections into one
    /// [`Checkpoint`]). Sent right after a drain barrier, so the state
    /// sits on a per-query slide boundary.
    CheckpointShard(mpsc::Sender<Vec<u8>>),
    /// Adopt an isolated session that already carries live state (a
    /// restore or a live migration).
    Install(QueryId, ShardSession),
    /// Adopt a slide group and its member sessions as one unit — like a
    /// count group, a slide group never travels without its members.
    InstallGroup(
        (u64, Predicate),
        DigestProducer,
        Vec<(QueryId, ShardSession)>,
    ),
    /// Adopt a count group and its member sessions as one unit — a count
    /// group never travels without its members.
    InstallCountGroup(CountGroupState, Vec<(QueryId, ShardSession)>),
    /// Digest hits/rebuilds, count-group hits/rebuilds, admitted/pruned.
    InstallCounters(u64, u64, u64, u64, u64, u64),
    /// Hand a slide group — producer plus every member session — to the
    /// hub for migration to another shard.
    EjectGroup(
        (u64, Predicate),
        mpsc::Sender<(DigestProducer, Vec<(QueryId, ShardSession)>)>,
    ),
    /// Hand over the count group containing this member, with every
    /// member session, for whole-group migration.
    EjectCountGroup(
        QueryId,
        mpsc::Sender<(CountGroupState, Vec<(QueryId, ShardSession)>)>,
    ),
    /// Hand *everything* back — sessions, groups, counters, and the
    /// undrained updates — emptying the worker (the resize path).
    EjectAll(mpsc::Sender<(ShardParts, Vec<QueryUpdate>)>),
    /// Toggle result-class pooling for *future registrations* on this
    /// shard (traveling sessions re-class regardless; see
    /// [`Registry::set_class_sharing`]).
    SetClassSharing(bool),
    /// Toggle ingest-side dominance pruning on this shard's registry
    /// (takes effect immediately for every group it serves; see
    /// [`Registry::set_admission_pruning`]).
    SetAdmissionPruning(bool),
}

impl Command {
    /// Whether this command feeds the data plane (publish/watermark) —
    /// the commands whose application can close slides and fan a result
    /// class out. The async executor keeps runs of these in one wakeup
    /// lease (see `exec::worker_loop`'s group-aware burst).
    pub(crate) fn is_ingest(&self) -> bool {
        matches!(
            self,
            Command::Publish(_) | Command::PublishTimed(_) | Command::AdvanceTime(_)
        )
    }
}

struct Shard {
    tx: SyncSender<Command>,
    worker: Option<JoinHandle<()>>,
}

/// The shard worker: a [`Registry`] — the same session store and
/// fan-out/digest-group logic the sequential hub runs, which is what
/// keeps the two byte-identical by construction — driven from the
/// command queue in order, accumulating completed slides until the next
/// drain.
fn shard_worker(shard: usize, rx: Receiver<Command>) {
    let mut registry: ShardRegistry = Registry::with_shard(shard);
    let mut updates: Vec<QueryUpdate> = Vec::new();
    while let Ok(cmd) = rx.recv() {
        apply_command(&mut registry, &mut updates, cmd);
    }
}

/// Applies one command to one shard's registry, appending any completed
/// slides to `updates`. The single interpreter both transports share:
/// [`shard_worker`] calls it from a blocking channel loop, an
/// [`AsyncHub`](crate::exec::AsyncHub) worker from its batched wakeup —
/// which is what keeps every hub flavor byte-identical by construction.
pub(crate) fn apply_command(
    registry: &mut ShardRegistry,
    updates: &mut Vec<QueryUpdate>,
    cmd: Command,
) {
    match cmd {
        Command::Publish(batch) => updates.extend(registry.publish(&batch)),
        Command::PublishTimed(batch) => updates.extend(registry.publish_timed(&batch)),
        Command::AdvanceTime(watermark) => updates.extend(registry.advance_time(watermark)),
        Command::Register(id, alg) => registry.register_count(id, alg),
        Command::RegisterTimed(id, engine) => registry.register_timed(id, engine),
        Command::RegisterShared(id, consumer, predicate, home) => {
            registry.register_shared(id, consumer, predicate, Some(home))
        }
        Command::RegisterGrouped(id, consumer, spec, predicate, home) => {
            registry.register_grouped(id, consumer, spec, predicate, Some(home))
        }
        Command::Unregister(id, reply) => {
            // membership is checked hub-side; a miss here would be a
            // routing bug, surfaced as a RecvError on the hub's reply
            if let Some(session) = registry.unregister(id) {
                let _ = reply.send(session);
            }
        }
        Command::Inspect(id, reply) => {
            if let Some(session) = registry.session(id) {
                let _ = reply.send(QueryState {
                    slides: session.slides(),
                    last_snapshot: session.last_snapshot_shared(),
                });
            }
        }
        Command::Stats(reply) => {
            let _ = reply.send((registry.stats(), registry.group_keys()));
        }
        Command::Flush(reply) => {
            let _ = reply.send(());
        }
        Command::Drain(reply) => {
            let _ = reply.send(std::mem::take(updates));
        }
        Command::CheckpointShard(reply) => {
            let mut enc = Encoder::new();
            enc.section(tags::REGISTRY, |e| registry.encode_checkpoint(e));
            let _ = reply.send(enc.into_payload());
        }
        Command::Install(id, session) => registry.install(id, session),
        Command::InstallGroup(key, producer, members) => {
            registry.install_group(key, producer, members)
        }
        Command::InstallCountGroup(state, members) => registry.install_count_group(state, members),
        Command::InstallCounters(hits, rebuilds, count_hits, count_rebuilds, admitted, pruned) => {
            registry.install_counters(hits, rebuilds, count_hits, count_rebuilds, admitted, pruned)
        }
        Command::EjectGroup(key, reply) => {
            // group residence is tracked hub-side; a miss here is a
            // routing bug, surfaced as a RecvError on the hub's reply
            if let Some(ejected) = registry.eject_group(key) {
                let _ = reply.send(ejected);
            }
        }
        Command::EjectCountGroup(id, reply) => {
            // same hub-side residence contract as EjectGroup
            if let Some(ejected) = registry.eject_count_group_of(id) {
                let _ = reply.send(ejected);
            }
        }
        Command::EjectAll(reply) => {
            let _ = reply.send((registry.eject_all(), std::mem::take(updates)));
        }
        Command::SetClassSharing(enabled) => registry.set_class_sharing(enabled),
        Command::SetAdmissionPruning(enabled) => registry.set_admission_pruning(enabled),
    }
}

// ---- the shared hub-side control plane ---------------------------------
//
// Everything between a hub's public API and its transport — placement,
// group affinity, id allocation, drain ordering, checkpoint framing — is
// identical for [`ShardedHub`] (thread-per-shard, bounded channels) and
// [`AsyncHub`](crate::exec::AsyncHub) (few workers, many shards, locked
// queues). It lives here as free functions over a [`Placement`] and a
// [`CommandPort`], so the two hubs are thin wrappers that cannot drift
// apart: they differ only in how a [`Command`] reaches its registry and
// in their publish paths.

/// The transport a hub enqueues [`Command`]s through: a bounded
/// `sync_channel` per shard for [`ShardedHub`], the reactor's locked
/// per-shard queues for [`AsyncHub`](crate::exec::AsyncHub).
pub(crate) trait CommandPort {
    /// Enqueues a command on one shard, blocking under backpressure. A
    /// send only fails when the shard can no longer process commands —
    /// i.e. its worker died (an engine panicked) — reported as the typed
    /// [`SapError::ShardDown`] with the shard index; see the
    /// [module docs](self) for the recovery story.
    fn send(&self, shard: usize, cmd: Command) -> Result<(), SapError>;
}

impl CommandPort for [Shard] {
    fn send(&self, shard: usize, cmd: Command) -> Result<(), SapError> {
        self[shard]
            .tx
            .send(cmd)
            .map_err(|_| SapError::ShardDown { shard })
    }
}

/// Waits for a worker's reply, translating a dropped channel (the worker
/// died mid-operation — whichever transport carried the command, the
/// reply itself always travels an `mpsc` channel) into
/// [`SapError::ShardDown`].
pub(crate) fn recv_reply<T>(shard: usize, rx: &mpsc::Receiver<T>) -> Result<T, SapError> {
    rx.recv().map_err(|_| SapError::ShardDown { shard })
}

/// Hub-side placement bookkeeping: which shard owns each query, the
/// group-affinity maps, the id allocator, and the published-offset
/// counter the count plane's `(s, offset mod s)` dispatch keys are
/// phased against. This map *is* the dispatch table: every control
/// command is routed by [`home_shard`](Placement::home_shard), and the
/// publish paths skip shards whose `shard_len` is zero.
pub(crate) struct Placement {
    /// Number of live queries on each shard, maintained hub-side so
    /// empty shards can be skipped on publish.
    pub(crate) shard_len: Vec<usize>,
    pub(crate) registered: BTreeSet<QueryId>,
    /// `(slide_duration, predicate)` → (owning shard, member count) for
    /// the shared digest plane (predicate-disjoint members of one slide
    /// duration are separate sub-groups, mirroring the workers' keying).
    /// Slide groups are **shard-local** (a digest producer lives where
    /// its members live), so every member of a group must land on one
    /// shard: the first member places the group by hash of its id, later
    /// members follow the group even when their own hash disagrees.
    /// Which shard a query runs on never affects results — a drain sorts
    /// globally by `(QueryId, slide)` — so group-aware placement
    /// preserves the deterministic drain contract by construction.
    pub(crate) shared_groups: HashMap<(u64, Predicate), (usize, usize)>,
    /// Slide-group key of each registered shared query, for unregister
    /// bookkeeping.
    pub(crate) shared_sd: HashMap<QueryId, (u64, Predicate)>,
    /// `(slide length, founding offset mod s, predicate)` → (owning
    /// shard, member count) for the shared **count** plane. The hub
    /// mirrors the workers' join rule arithmetically: a worker group
    /// founded when the hub had published `o` objects has an empty open
    /// slide exactly when `published ≡ o (mod s)` — so routing a
    /// registration to the group keyed `(s, published mod s, predicate)`
    /// lands it precisely where the worker's own join scan will accept
    /// it. (The worker tracks its open-slide fill by *arrival ordinal*,
    /// which every published object advances whether or not the
    /// predicate admits it, so this arithmetic is predicate-blind.)
    /// Count groups are shard-local like slide groups, with the same
    /// whole-group migration discipline.
    pub(crate) count_groups_hub: HashMap<(u64, u64, Predicate), (usize, usize)>,
    /// Count-group key of each registered grouped query, for routing and
    /// unregister bookkeeping.
    pub(crate) grouped_key: HashMap<QueryId, (u64, u64, Predicate)>,
    /// Objects accepted hub-wide (all publish paths) — the registration
    /// offset counter the count-group keys are phased against. Never
    /// reset: keys only ever use it mod `s`, and [`place_parts_on`]
    /// re-derives each restored group's founding class from its
    /// producer's pending fill, so the counter's absolute value is
    /// irrelevant across epochs.
    pub(crate) published: u64,
    /// Placement overrides from `move_query`: queries living somewhere
    /// other than their id hash. Consulted by
    /// [`home_shard`](Placement::home_shard) after the group maps (a
    /// shared query always follows its group), cleared by `resize`
    /// (which re-scatters by hash under the new shard count).
    pub(crate) placed: HashMap<QueryId, usize>,
    pub(crate) next_id: u64,
}

impl Placement {
    pub(crate) fn new(num_shards: usize) -> Placement {
        Placement {
            shard_len: vec![0; num_shards],
            registered: BTreeSet::new(),
            shared_groups: HashMap::new(),
            shared_sd: HashMap::new(),
            count_groups_hub: HashMap::new(),
            grouped_key: HashMap::new(),
            published: 0,
            placed: HashMap::new(),
            next_id: 0,
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.shard_len.len()
    }

    /// The default placement: a Fibonacci hash of the id. Deterministic
    /// across runs, so a given registration order always produces the
    /// same partitioning.
    pub(crate) fn shard_of(&self, id: QueryId) -> usize {
        let h = id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.num_shards()
    }

    /// Which shard actually owns a registered query: its slide group's
    /// shard for shared queries, its count group's shard for grouped
    /// queries (group-aware placement may override the hash), a
    /// `move_query` placement if one is in effect, the Fibonacci hash
    /// otherwise.
    pub(crate) fn home_shard(&self, id: QueryId) -> usize {
        if let Some(&(shard, _)) = self
            .shared_sd
            .get(&id)
            .and_then(|sd| self.shared_groups.get(sd))
        {
            return shard;
        }
        if let Some(&(shard, _)) = self
            .grouped_key
            .get(&id)
            .and_then(|key| self.count_groups_hub.get(key))
        {
            return shard;
        }
        match self.placed.get(&id) {
            Some(&shard) => shard,
            None => self.shard_of(id),
        }
    }

    /// Allocates the next [`QueryId`]. Callers burn the id even when the
    /// subsequent send fails: a dead shard must not wedge the id
    /// sequence, or every retry would re-derive the same id, hash to the
    /// same dead shard, and fail forever — the next attempt gets a fresh
    /// id that may route to a healthy shard.
    fn fresh_id(&mut self) -> QueryId {
        let id = QueryId::from_raw(self.next_id);
        self.next_id += 1;
        id
    }

    /// Empties every per-query map for a repartition under `num_shards`.
    /// `published` and `next_id` survive: the offset counter's absolute
    /// value is placement-independent, and ids must never be reused.
    pub(crate) fn reset(&mut self, num_shards: usize) {
        self.shard_len = vec![0; num_shards];
        self.registered.clear();
        self.shared_groups.clear();
        self.shared_sd.clear();
        self.count_groups_hub.clear();
        self.grouped_key.clear();
        self.placed.clear();
    }
}

/// Registers a boxed count-based engine: id by allocator, shard by hash.
pub(crate) fn register_count_on(
    p: &mut Placement,
    port: &(impl CommandPort + ?Sized),
    alg: Box<dyn SlidingTopK + Send>,
) -> Result<QueryId, SapError> {
    let id = p.fresh_id();
    let shard = p.shard_of(id);
    port.send(shard, Command::Register(id, alg))?;
    p.shard_len[shard] += 1;
    p.registered.insert(id);
    Ok(id)
}

/// Registers a boxed time-based engine: id by allocator, shard by hash.
pub(crate) fn register_timed_on(
    p: &mut Placement,
    port: &(impl CommandPort + ?Sized),
    engine: Box<dyn TimedTopK + Send>,
) -> Result<QueryId, SapError> {
    let id = p.fresh_id();
    let shard = p.shard_of(id);
    port.send(shard, Command::RegisterTimed(id, engine))?;
    p.shard_len[shard] += 1;
    p.registered.insert(id);
    Ok(id)
}

/// Registers on the shared digest plane: a query joining an existing
/// slide group is placed on that group's shard (digest producers are
/// shard-local state), a founding query places the group by hash. Wrong
/// engine geometry is a typed [`SapError::Spec`] and burns no id; a dead
/// target shard burns its id but leaves the group's membership
/// bookkeeping untouched, so the hub never counts a member no shard
/// owns.
pub(crate) fn register_shared_on(
    p: &mut Placement,
    port: &(impl CommandPort + ?Sized),
    engine: Box<dyn SlidingTopK + Send>,
    window_duration: u64,
    slide_duration: u64,
    predicate: Predicate,
) -> Result<QueryId, SapError> {
    predicate
        .validate()
        .map_err(|reason| SapError::InvalidPredicate { reason })?;
    let consumer = SharedTimed::from_engine(engine, window_duration, slide_duration)
        .map_err(SapError::Spec)?;
    let id = p.fresh_id();
    let key = (slide_duration, predicate);
    let shard = match p.shared_groups.get(&key) {
        Some(&(shard, _)) => shard,
        None => p.shard_of(id),
    };
    port.send(
        shard,
        Command::RegisterShared(id, consumer, predicate, shard),
    )?;
    let members = p.shared_groups.entry(key).or_insert((shard, 0));
    members.1 += 1;
    p.shard_len[shard] += 1;
    p.registered.insert(id);
    p.shared_sd.insert(id, key);
    Ok(id)
}

/// Registers on the shared count plane: a query joining a live
/// `(s, offset mod s)` geometry class is placed on that class's shard,
/// a founding query places it by hash. The caller must have settled
/// `published` (flushed any coalesced tail) so the key is phase-exact.
/// Same error/bookkeeping contract as [`register_shared_on`].
pub(crate) fn register_grouped_on(
    p: &mut Placement,
    port: &(impl CommandPort + ?Sized),
    engine: Box<dyn SlidingTopK + Send>,
    n: usize,
    s: usize,
    predicate: Predicate,
) -> Result<QueryId, SapError> {
    predicate
        .validate()
        .map_err(|reason| SapError::InvalidPredicate { reason })?;
    let spec = WindowSpec::new(n, engine.spec().k, s).map_err(SapError::Spec)?;
    let consumer = SharedTimed::from_engine(engine, n as u64, s as u64).map_err(SapError::Spec)?;
    let id = p.fresh_id();
    let key = (s as u64, p.published % s as u64, predicate);
    let shard = match p.count_groups_hub.get(&key) {
        Some(&(shard, _)) => shard,
        None => p.shard_of(id),
    };
    port.send(
        shard,
        Command::RegisterGrouped(id, consumer, spec, predicate, shard),
    )?;
    let members = p.count_groups_hub.entry(key).or_insert((shard, 0));
    members.1 += 1;
    p.shard_len[shard] += 1;
    p.registered.insert(id);
    p.grouped_key.insert(id, key);
    Ok(id)
}

/// Removes a query and returns its session. Bookkeeping is updated only
/// after the session actually came back: a dead shard must leave the
/// hub's state untouched, so retrying keeps reporting ShardDown (the
/// query was lost, not unregistered).
pub(crate) fn unregister_on(
    p: &mut Placement,
    port: &(impl CommandPort + ?Sized),
    id: QueryId,
) -> Result<ShardSession, SapError> {
    if !p.registered.contains(&id) {
        return Err(SapError::UnknownQuery { query: id });
    }
    let shard = p.home_shard(id);
    let (reply, rx) = mpsc::channel();
    port.send(shard, Command::Unregister(id, reply))?;
    let session = recv_reply(shard, &rx)?;
    p.registered.remove(&id);
    p.shard_len[shard] -= 1;
    if let Some(sd) = p.shared_sd.remove(&id) {
        if let Some(members) = p.shared_groups.get_mut(&sd) {
            members.1 -= 1;
            if members.1 == 0 {
                // last member out: retire the group so a later
                // registrant founds a fresh one, placed anew
                p.shared_groups.remove(&sd);
            }
        }
    }
    if let Some(key) = p.grouped_key.remove(&id) {
        if let Some(members) = p.count_groups_hub.get_mut(&key) {
            members.1 -= 1;
            if members.1 == 0 {
                // mirror the worker, which just retired the group
                p.count_groups_hub.remove(&key);
            }
        }
    }
    Ok(session)
}

/// A point-in-time view of one query, routed via its home shard.
pub(crate) fn inspect_on(
    p: &Placement,
    port: &(impl CommandPort + ?Sized),
    id: QueryId,
) -> Result<QueryState, SapError> {
    if !p.registered.contains(&id) {
        return Err(SapError::UnknownQuery { query: id });
    }
    let shard = p.home_shard(id);
    let (reply, rx) = mpsc::channel();
    port.send(shard, Command::Inspect(id, reply))?;
    recv_reply(shard, &rx)
}

/// Sums every shard's [`HubStats`] partial. In debug builds the reported
/// group identities are audited for the shard-locality invariant the
/// straight sums depend on: a group split across workers panics at this
/// merge site instead of silently double-counting
/// `digest_groups`/`count_groups`.
pub(crate) fn stats_on(
    p: &Placement,
    port: &(impl CommandPort + ?Sized),
) -> Result<HubStats, SapError> {
    let replies: Vec<(usize, mpsc::Receiver<(HubStats, GroupKeys)>)> = (0..p.num_shards())
        .map(|shard| {
            let (reply, rx) = mpsc::channel();
            port.send(shard, Command::Stats(reply))
                .map(|()| (shard, rx))
        })
        .collect::<Result<_, _>>()?;
    let mut total = HubStats::default();
    let mut seen = GroupKeys::default();
    for (shard, rx) in replies {
        let (stats, keys) = recv_reply(shard, &rx)?;
        seen.absorb_disjoint(&keys, shard);
        total.merge(&stats);
    }
    Ok(total)
}

/// Barrier without collection: returns once every shard has processed
/// everything published so far.
pub(crate) fn flush_on(p: &Placement, port: &(impl CommandPort + ?Sized)) -> Result<(), SapError> {
    let acks: Vec<(usize, mpsc::Receiver<()>)> = (0..p.num_shards())
        .map(|shard| {
            let (reply, rx) = mpsc::channel();
            port.send(shard, Command::Flush(reply))
                .map(|()| (shard, rx))
        })
        .collect::<Result<_, _>>()?;
    for (shard, ack) in acks {
        recv_reply(shard, &ack)?;
    }
    Ok(())
}

/// The determinism barrier: every drain is enqueued first, then
/// collected — shards retire their backlogs in parallel — and the
/// result, merged with any `parked` updates rescued from retired
/// workers, is sorted globally by `(QueryId, slide)`: an order
/// independent of shard count, worker count, and thread scheduling.
pub(crate) fn drain_on(
    p: &Placement,
    port: &(impl CommandPort + ?Sized),
    parked: &mut Vec<QueryUpdate>,
) -> Result<Vec<QueryUpdate>, SapError> {
    let replies: Vec<(usize, mpsc::Receiver<Vec<QueryUpdate>>)> = (0..p.num_shards())
        .map(|shard| {
            let (reply, rx) = mpsc::channel();
            port.send(shard, Command::Drain(reply))
                .map(|()| (shard, rx))
        })
        .collect::<Result<_, _>>()?;
    let mut updates = std::mem::take(parked);
    for (shard, rx) in replies {
        updates.extend(recv_reply(shard, &rx)?);
    }
    updates.sort_unstable_by_key(|u| (u.query, u.result.slide));
    Ok(updates)
}

/// Splices every shard's framed registry section into one
/// [`Checkpoint`]. The caller must have drained first, so the captured
/// state sits on each query's current slide boundary.
pub(crate) fn checkpoint_sections_on(
    p: &Placement,
    port: &(impl CommandPort + ?Sized),
) -> Result<Checkpoint, SapError> {
    let replies: Vec<(usize, mpsc::Receiver<Vec<u8>>)> = (0..p.num_shards())
        .map(|shard| {
            let (reply, rx) = mpsc::channel();
            port.send(shard, Command::CheckpointShard(reply))
                .map(|()| (shard, rx))
        })
        .collect::<Result<_, _>>()?;
    let mut enc = Encoder::new();
    enc.put_u64(p.next_id);
    enc.put_usize(replies.len());
    for (shard, rx) in replies {
        enc.put_encoded(&recv_reply(shard, &rx)?);
    }
    Ok(Checkpoint::from_payload(enc.into_payload()))
}

/// Decodes a hub checkpoint (either hub flavor, any shard count) into
/// the id-allocator watermark and the merged serving state, validating
/// as it goes. Malformed input is a typed [`SapError::Checkpoint`];
/// never panics on foreign bytes.
pub(crate) fn decode_hub_checkpoint(
    checkpoint: &Checkpoint,
    factory: &dyn EngineFactory,
) -> Result<(u64, ShardParts), SapError> {
    let mut dec = Decoder::new(checkpoint.payload());
    let next_id = dec.take_u64()?;
    let sections = dec.take_usize()?;
    let mut parts = Vec::new();
    for _ in 0..sections {
        let mut registry = dec.section(tags::REGISTRY)?;
        parts.push(Registry::decode_checkpoint(
            &mut registry,
            checkpoint.version(),
            &mut |name, spec| factory.count(name, spec),
            &mut |name, spec| factory.timed(name, spec),
        )?);
        registry.finish().map_err(SapError::from)?;
    }
    dec.finish().map_err(SapError::from)?;
    let merged = RegistryParts::merge(parts).map_err(SapError::from)?;
    if merged.sessions.iter().any(|(id, _)| id.raw() >= next_id) {
        return Err(CheckpointError::Corrupt("session id at or past the id counter").into());
    }
    Ok((next_id, merged))
}

/// Scatters merged serving state across a hub's (fresh or freshly
/// emptied) workers: each slide group with its members on the shard its
/// lowest-id member hashes to, each count group likewise, then the
/// isolated sessions in ascending-id order, then the sharing counters
/// onto shard 0 (they are hub-wide sums; where they live only affects
/// which worker reports them into the stats total).
pub(crate) fn place_parts_on(
    p: &mut Placement,
    port: &(impl CommandPort + ?Sized),
    parts: ShardParts,
) -> Result<(), SapError> {
    let RegistryParts {
        sessions,
        groups,
        count_groups,
        digest_hits,
        digest_rebuilds,
        count_group_hits,
        count_group_rebuilds,
        admitted,
        pruned,
    } = parts;
    let (mut group_members, count_members, loose) = split_by_group(sessions, count_groups.len());
    for (key, producer) in groups {
        let members = group_members
            .remove(&key)
            .expect("merge validated every group has members");
        let shard = p.shard_of(members[0].0);
        for (id, _) in &members {
            p.shared_sd.insert(*id, key);
            p.registered.insert(*id);
        }
        p.shard_len[shard] += members.len();
        p.shared_groups.insert(key, (shard, members.len()));
        port.send(shard, Command::InstallGroup(key, producer, members))?;
    }
    for (state, members) in count_groups.into_iter().zip(count_members) {
        let lowest = members
            .first()
            .expect("merge validated every count group has members")
            .0;
        let shard = p.shard_of(lowest);
        let sd = state.producer.slide_duration();
        // re-derive the founding offset class against the current
        // counter: the installed group's open slide has observed `fill`
        // arrivals (by ordinal — admission pruning withholds objects
        // from `pending` but never from the ordinal clock), so it last
        // sat empty `fill` objects ago — class `(published − fill) mod
        // s`. Merge rejected same-(s, fill, predicate) collisions, so
        // keys are unique.
        let key = (
            sd,
            (p.published % sd + sd - state.fill() % sd) % sd,
            state.predicate,
        );
        for (id, _) in &members {
            p.grouped_key.insert(*id, key);
            p.registered.insert(*id);
        }
        p.shard_len[shard] += members.len();
        p.count_groups_hub.insert(key, (shard, members.len()));
        port.send(shard, Command::InstallCountGroup(state, members))?;
    }
    for (id, session) in loose {
        let shard = p.shard_of(id);
        port.send(shard, Command::Install(id, session))?;
        p.shard_len[shard] += 1;
        p.registered.insert(id);
    }
    if digest_hits != 0
        || digest_rebuilds != 0
        || count_group_hits != 0
        || count_group_rebuilds != 0
        || admitted != 0
        || pruned != 0
    {
        port.send(
            0,
            Command::InstallCounters(
                digest_hits,
                digest_rebuilds,
                count_group_hits,
                count_group_rebuilds,
                admitted,
                pruned,
            ),
        )?;
    }
    Ok(())
}

/// Moves one query's live session (a shared or grouped query: its whole
/// group) to `shard` — the eject/install plane both hub flavors share.
/// The caller must have flushed any coalesced `publish_one` tail.
///
/// # Panics
///
/// If `shard >= p.num_shards()` — a placement that cannot exist, i.e. a
/// caller bug, not a data-dependent condition.
pub(crate) fn move_query_on(
    p: &mut Placement,
    port: &(impl CommandPort + ?Sized),
    id: QueryId,
    shard: usize,
) -> Result<(), SapError> {
    assert!(
        shard < p.num_shards(),
        "move_query target {shard} out of range ({} shards)",
        p.num_shards()
    );
    if !p.registered.contains(&id) {
        return Err(SapError::UnknownQuery { query: id });
    }
    if let Some(&sd) = p.shared_sd.get(&id) {
        let (source, _) = p.shared_groups[&sd];
        if source == shard {
            return Ok(());
        }
        let (reply, rx) = mpsc::channel();
        port.send(source, Command::EjectGroup(sd, reply))?;
        let (producer, members) = recv_reply(source, &rx)?;
        let moved = members.len();
        port.send(shard, Command::InstallGroup(sd, producer, members))?;
        p.shard_len[source] -= moved;
        p.shard_len[shard] += moved;
        p.shared_groups.insert(sd, (shard, moved));
    } else if let Some(&key) = p.grouped_key.get(&id) {
        // a grouped count query moves with its entire count group —
        // same shard-local-state rationale as a slide group
        let (source, _) = p.count_groups_hub[&key];
        if source == shard {
            return Ok(());
        }
        let (reply, rx) = mpsc::channel();
        port.send(source, Command::EjectCountGroup(id, reply))?;
        let (state, members) = recv_reply(source, &rx)?;
        let moved = members.len();
        port.send(shard, Command::InstallCountGroup(state, members))?;
        p.shard_len[source] -= moved;
        p.shard_len[shard] += moved;
        p.count_groups_hub.insert(key, (shard, moved));
    } else {
        let source = p.home_shard(id);
        if source == shard {
            return Ok(());
        }
        let (reply, rx) = mpsc::channel();
        port.send(source, Command::Unregister(id, reply))?;
        let session = recv_reply(source, &rx)?;
        port.send(shard, Command::Install(id, session))?;
        p.shard_len[source] -= 1;
        p.shard_len[shard] += 1;
        if p.shard_of(id) == shard {
            p.placed.remove(&id);
        } else {
            p.placed.insert(id, shard);
        }
    }
    Ok(())
}

/// Reinstalls one shard's ejected parts back onto the shard they came
/// from — the abort path of a transactional [`eject_all_on`]. The part
/// is un-merged, so its grouped sessions reference its own
/// `count_groups` list by canonical index; placement was never touched,
/// so no bookkeeping changes here.
fn reinstall_parts_on(
    port: &(impl CommandPort + ?Sized),
    shard: usize,
    parts: ShardParts,
) -> Result<(), SapError> {
    let RegistryParts {
        sessions,
        groups,
        count_groups,
        digest_hits,
        digest_rebuilds,
        count_group_hits,
        count_group_rebuilds,
        admitted,
        pruned,
    } = parts;
    let (mut group_members, count_members, loose) = split_by_group(sessions, count_groups.len());
    for (key, producer) in groups {
        let members = group_members.remove(&key).unwrap_or_default();
        port.send(shard, Command::InstallGroup(key, producer, members))?;
    }
    for (id, session) in loose {
        port.send(shard, Command::Install(id, session))?;
    }
    for (state, members) in count_groups.into_iter().zip(count_members) {
        port.send(shard, Command::InstallCountGroup(state, members))?;
    }
    if digest_hits != 0
        || digest_rebuilds != 0
        || count_group_hits != 0
        || count_group_rebuilds != 0
        || admitted != 0
        || pruned != 0
    {
        port.send(
            shard,
            Command::InstallCounters(
                digest_hits,
                digest_rebuilds,
                count_group_hits,
                count_group_rebuilds,
                admitted,
                pruned,
            ),
        )?;
    }
    Ok(())
}

/// Empties every worker for a repartition — **transactionally**: every
/// shard's full state is staged before anything commits. If any shard
/// turns out dead mid-stage, the already-staged parts are reinstalled on
/// the shards they came from and the typed [`SapError::ShardDown`] is
/// returned with the old placement intact — a failed resize no longer
/// abandons the survivors' sessions. Rescued undrained updates go into
/// `parked` on both paths (they are completed slides either way; the
/// next drain's global sort places them correctly).
pub(crate) fn eject_all_on(
    p: &Placement,
    port: &(impl CommandPort + ?Sized),
    parked: &mut Vec<QueryUpdate>,
) -> Result<ShardParts, SapError> {
    // stage phase: enqueue every eject (skipping shards that refuse the
    // send — they are already dead), then collect what actually arrives
    let mut down: Option<SapError> = None;
    let mut replies: Vec<(usize, PartsReply)> = Vec::with_capacity(p.num_shards());
    for shard in 0..p.num_shards() {
        let (reply, rx) = mpsc::channel();
        match port.send(shard, Command::EjectAll(reply)) {
            Ok(()) => replies.push((shard, rx)),
            Err(err) => down = down.or(Some(err)),
        }
    }
    let mut staged: Vec<(usize, ShardParts)> = Vec::with_capacity(replies.len());
    for (shard, rx) in replies {
        match recv_reply(shard, &rx) {
            Ok((part, updates)) => {
                parked.extend(updates);
                staged.push((shard, part));
            }
            Err(err) => down = down.or(Some(err)),
        }
    }
    if let Some(err) = down {
        // abort: put every staged part back where it was. A shard dying
        // *during* the abort loses its own sessions (exactly as if it
        // had died a moment later), never another shard's.
        for (shard, part) in staged {
            reinstall_parts_on(port, shard, part)?;
        }
        return Err(err);
    }
    // commit phase: the old workers are empty, merge and re-scatter
    let merged = RegistryParts::merge(staged.into_iter().map(|(_, part)| part).collect())
        .map_err(SapError::from)?;
    Ok(merged)
}

/// A [`Hub`](crate::session::Hub)-equivalent set of standing queries
/// partitioned across worker threads.
///
/// See the [module docs](self) for the architecture. Differences from the
/// sequential hub's API surface:
///
/// * [`publish`](ShardedHub::publish) returns nothing — results
///   accumulate shard-side and are collected by
///   [`drain`](ShardedHub::drain), which doubles as the determinism
///   barrier;
/// * registered engines must be [`Send`] (they move to a worker thread);
///   every algorithm in this workspace is;
/// * `publish` may **block** (backpressure) while any shard's queue is
///   full.
pub struct ShardedHub {
    shards: Vec<Shard>,
    /// The routing/bookkeeping state shared with
    /// [`AsyncHub`](crate::exec::AsyncHub) — see [`Placement`].
    placement: Placement,
    /// Objects accepted by [`publish_one`](ShardedHub::publish_one) and
    /// not yet shipped: they coalesce into one `Arc` batch per
    /// [`PUBLISH_ONE_COALESCE`] objects (or per intervening operation)
    /// instead of one per object. Flushed — preserving publish order —
    /// before any other command is enqueued, so ordering guarantees are
    /// unchanged.
    pending_one: Vec<Object>,
    /// Updates rescued from workers retired by
    /// [`resize`](ShardedHub::resize), merged into the next
    /// [`drain`](ShardedHub::drain) — the global `(QueryId, slide)` sort
    /// puts them exactly where an uninterrupted run would have.
    parked_updates: Vec<QueryUpdate>,
    /// Queue bound each worker was spawned with, reused by `resize`.
    queue_capacity: usize,
    /// The result-class registration knob, remembered hub-side so
    /// workers spawned by [`resize`](ShardedHub::resize) inherit it.
    class_sharing: bool,
    /// The admission-pruning knob, remembered hub-side for the same
    /// reason: workers spawned by [`resize`](ShardedHub::resize) default
    /// to pruning and must inherit a disabled knob.
    admission_pruning: bool,
}

impl std::fmt::Debug for ShardedHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHub")
            .field("shards", &self.shards.len())
            .field("queries", &self.placement.registered.len())
            .field("next_id", &self.placement.next_id)
            .finish()
    }
}

impl ShardedHub {
    /// Spawns `num_shards` worker threads (at least one) with the
    /// [`DEFAULT_QUEUE_CAPACITY`].
    pub fn new(num_shards: usize) -> Self {
        ShardedHub::with_capacity(num_shards, DEFAULT_QUEUE_CAPACITY)
    }

    /// Spawns `num_shards` worker threads whose queues hold at most
    /// `queue_capacity` pending commands each. Both are clamped to ≥ 1;
    /// a capacity of 1 makes every publish rendezvous with the slowest
    /// shard (maximum backpressure, minimum buffering).
    pub fn with_capacity(num_shards: usize, queue_capacity: usize) -> Self {
        let num_shards = num_shards.max(1);
        let queue_capacity = queue_capacity.max(1);
        ShardedHub {
            shards: Self::spawn_workers(num_shards, queue_capacity),
            placement: Placement::new(num_shards),
            pending_one: Vec::new(),
            parked_updates: Vec::new(),
            queue_capacity,
            class_sharing: true,
            admission_pruning: true,
        }
    }

    fn spawn_workers(num_shards: usize, queue_capacity: usize) -> Vec<Shard> {
        (0..num_shards)
            .map(|i| {
                let (tx, rx) = mpsc::sync_channel(queue_capacity);
                let worker = std::thread::Builder::new()
                    .name(format!("sap-shard-{i}"))
                    .spawn(move || shard_worker(i, rx))
                    .expect("spawn shard worker");
                Shard {
                    tx,
                    worker: Some(worker),
                }
            })
            .collect()
    }

    /// Closes every worker's queue and joins it — after outstanding
    /// commands are processed. Shared by [`Drop`] and the
    /// [`resize`](ShardedHub::resize) rescatter.
    fn shutdown_workers(&mut self) {
        for shard in &mut self.shards {
            // drop the sender first so the worker's recv loop ends
            let (closed, _) = mpsc::sync_channel(1);
            shard.tx = closed;
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }

    /// Ships the coalesced `publish_one` buffer as one batch, preserving
    /// publish order. Called before any other command is enqueued (and on
    /// drop), so a singly-published object is always ordered exactly
    /// where its `publish_one` call was.
    fn flush_pending_one(&mut self) -> Result<(), SapError> {
        if self.pending_one.is_empty() {
            return Ok(());
        }
        let batch: Arc<[Object]> = Arc::from(&self.pending_one[..]);
        self.pending_one.clear();
        self.placement.published += batch.len() as u64;
        for shard in 0..self.shards.len() {
            if self.placement.shard_len[shard] > 0 {
                self.shards[..].send(shard, Command::Publish(Arc::clone(&batch)))?;
            }
        }
        Ok(())
    }

    /// Registers a boxed engine as a new standing count-based query and
    /// returns its handle. The engine moves to its shard's worker thread.
    pub fn register_boxed(
        &mut self,
        alg: Box<dyn SlidingTopK + Send>,
    ) -> Result<QueryId, SapError> {
        // coalesced publishes precede the registration, so the new query
        // only ever sees objects published after this call
        self.flush_pending_one()?;
        register_count_on(&mut self.placement, &self.shards[..], alg)
    }

    /// Registers an owned engine (convenience over
    /// [`register_boxed`](ShardedHub::register_boxed)).
    pub fn register_alg<A: SlidingTopK + Send + 'static>(
        &mut self,
        alg: A,
    ) -> Result<QueryId, SapError> {
        self.register_boxed(Box::new(alg))
    }

    /// Registers a boxed time-based engine as a new standing query and
    /// returns its handle. The query slides on event time, so it advances
    /// on [`publish_timed`](ShardedHub::publish_timed) and
    /// [`advance_time`](ShardedHub::advance_time) only.
    pub fn register_timed_boxed(
        &mut self,
        engine: Box<dyn TimedTopK + Send>,
    ) -> Result<QueryId, SapError> {
        self.flush_pending_one()?;
        register_timed_on(&mut self.placement, &self.shards[..], engine)
    }

    /// Registers an owned time-based engine (convenience over
    /// [`register_timed_boxed`](ShardedHub::register_timed_boxed)).
    pub fn register_timed_alg<E: TimedTopK + Send + 'static>(
        &mut self,
        engine: E,
    ) -> Result<QueryId, SapError> {
        self.register_timed_boxed(Box::new(engine))
    }

    /// Registers a time-based query `W⟨window_duration, slide_duration⟩`
    /// on the **shared digest plane** (see
    /// `Hub::register_shared_boxed` for the semantics; results are
    /// byte-identical to an isolated registration). A query joining an
    /// existing slide group is placed on that group's shard — overriding
    /// the id hash, because digest producers are shard-local state — and
    /// a query founding a new group places it by the usual hash. The
    /// deterministic `(QueryId, slide)` drain order is unaffected by
    /// placement.
    ///
    /// Wrong engine geometry is a typed [`SapError::Spec`] and burns no
    /// id. A dead target shard is [`SapError::ShardDown`]; the failed
    /// registration burns its id (same rationale as
    /// [`register_boxed`](ShardedHub::register_boxed)) but leaves the
    /// group's membership bookkeeping untouched, so the hub never counts
    /// a member that no shard owns.
    pub fn register_shared_boxed(
        &mut self,
        engine: Box<dyn SlidingTopK + Send>,
        window_duration: u64,
        slide_duration: u64,
    ) -> Result<QueryId, SapError> {
        self.register_shared_filtered_boxed(
            engine,
            window_duration,
            slide_duration,
            Predicate::default(),
        )
    }

    /// [`register_shared_boxed`](ShardedHub::register_shared_boxed) with
    /// a **subscription predicate** (see
    /// `Hub::register_shared_filtered_boxed` for the semantics).
    /// Predicate-disjoint members of one slide duration form separate
    /// sub-groups, each placed independently. An invalid predicate is a
    /// typed [`SapError::InvalidPredicate`] and burns no id.
    pub fn register_shared_filtered_boxed(
        &mut self,
        engine: Box<dyn SlidingTopK + Send>,
        window_duration: u64,
        slide_duration: u64,
        predicate: Predicate,
    ) -> Result<QueryId, SapError> {
        self.flush_pending_one()?;
        register_shared_on(
            &mut self.placement,
            &self.shards[..],
            engine,
            window_duration,
            slide_duration,
            predicate,
        )
    }

    /// Registers an owned engine on the shared digest plane (convenience
    /// over [`register_shared_boxed`](ShardedHub::register_shared_boxed)).
    pub fn register_shared_alg<A: SlidingTopK + Send + 'static>(
        &mut self,
        engine: A,
        window_duration: u64,
        slide_duration: u64,
    ) -> Result<QueryId, SapError> {
        self.register_shared_boxed(Box::new(engine), window_duration, slide_duration)
    }

    /// Registers a count-based query `⟨n, k, s⟩` on the **shared count
    /// plane** (see `Hub::register_grouped_boxed` for the semantics;
    /// results are byte-identical to an isolated
    /// [`register_boxed`](ShardedHub::register_boxed)). `engine` runs the
    /// Appendix-A reduction of the spec, `k` is the engine's; a query
    /// joining a live geometry class is placed on that class's shard —
    /// count groups are shard-local state, like slide groups — and a
    /// query founding a new class places it by the usual id hash.
    ///
    /// Wrong engine geometry is a typed [`SapError::Spec`] and burns no
    /// id; a dead target shard is [`SapError::ShardDown`] with the same
    /// id-burning/bookkeeping contract as
    /// [`register_shared_boxed`](ShardedHub::register_shared_boxed).
    pub fn register_grouped_boxed(
        &mut self,
        engine: Box<dyn SlidingTopK + Send>,
        n: usize,
        s: usize,
    ) -> Result<QueryId, SapError> {
        self.register_grouped_filtered_boxed(engine, n, s, Predicate::default())
    }

    /// [`register_grouped_boxed`](ShardedHub::register_grouped_boxed)
    /// with a **subscription predicate** (see
    /// `Hub::register_grouped_filtered_boxed` for the semantics).
    /// Predicate-disjoint members of one geometry class form separate
    /// sub-groups, each placed independently. An invalid predicate is a
    /// typed [`SapError::InvalidPredicate`] and burns no id.
    pub fn register_grouped_filtered_boxed(
        &mut self,
        engine: Box<dyn SlidingTopK + Send>,
        n: usize,
        s: usize,
        predicate: Predicate,
    ) -> Result<QueryId, SapError> {
        // coalesced publishes precede the registration — this also settles
        // `published`, so the geometry key is phase-exact
        self.flush_pending_one()?;
        register_grouped_on(
            &mut self.placement,
            &self.shards[..],
            engine,
            n,
            s,
            predicate,
        )
    }

    /// Registers an owned engine on the shared count plane (convenience
    /// over [`register_grouped_boxed`](ShardedHub::register_grouped_boxed)).
    pub fn register_grouped_alg<A: SlidingTopK + Send + 'static>(
        &mut self,
        engine: A,
        n: usize,
        s: usize,
    ) -> Result<QueryId, SapError> {
        self.register_grouped_boxed(Box::new(engine), n, s)
    }

    /// Removes a query and returns its session (with the engine's full
    /// state) once its shard has processed everything published before
    /// this call. Unknown or already-removed handles are a typed
    /// [`SapError::UnknownQuery`]; a dead shard is
    /// [`SapError::ShardDown`] (the query's state died with its worker).
    pub fn unregister(&mut self, id: QueryId) -> Result<ShardSession, SapError> {
        // the departing session must process coalesced publishes first
        self.flush_pending_one()?;
        unregister_on(&mut self.placement, &self.shards[..], id)
    }

    /// Publishes a batch of objects to every registered query.
    ///
    /// The batch is copied once into an [`Arc`] and enqueued on every
    /// non-empty shard; workers apply it concurrently. **Blocks** while
    /// any recipient shard's queue is full — that backpressure is the
    /// flow-control contract: a publisher can never run unboundedly ahead
    /// of the slowest shard. With zero registered queries (or an empty
    /// batch) this is an explicit no-op: nothing is enqueued, no worker
    /// wakes.
    ///
    /// Results are *not* returned here — they accumulate shard-side and
    /// are collected, in deterministic order, by
    /// [`drain`](ShardedHub::drain).
    ///
    /// **Drain regularly.** Backpressure bounds the *input* queues, but
    /// completed [`QueryUpdate`]s are retained (never dropped — they are
    /// the queries' answers) until the next drain, so accumulation grows
    /// with the volume published since the last [`drain`](ShardedHub::drain)
    /// — across every registered query. A caller that publishes a long
    /// stream without draining trades memory for results it never looked
    /// at; draining once per publish chunk (as the benches do) keeps the
    /// retained set proportional to one chunk.
    pub fn publish(&mut self, objects: &[Object]) -> Result<(), SapError> {
        if objects.is_empty() || self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        let batch: Arc<[Object]> = Arc::from(objects);
        self.placement.published += batch.len() as u64;
        for shard in 0..self.shards.len() {
            if self.placement.shard_len[shard] > 0 {
                self.shards[..].send(shard, Command::Publish(Arc::clone(&batch)))?;
            }
        }
        Ok(())
    }

    /// Publishes a batch of **timestamped** objects (non-decreasing
    /// timestamps) to every registered query — the shared ingestion path
    /// for heterogeneous count- and time-based subscriptions, with the
    /// same semantics as the sequential
    /// [`Hub::publish_timed`](crate::session::Hub::publish_timed) and the
    /// same backpressure/drain contract as
    /// [`publish`](ShardedHub::publish).
    pub fn publish_timed(&mut self, objects: &[TimedObject]) -> Result<(), SapError> {
        if objects.is_empty() || self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        let batch: Arc<[TimedObject]> = Arc::from(objects);
        // the untimed view feeds count groups too, so timed batches
        // advance the offset counter exactly like plain ones
        self.placement.published += batch.len() as u64;
        for shard in 0..self.shards.len() {
            if self.placement.shard_len[shard] > 0 {
                self.shards[..].send(shard, Command::PublishTimed(Arc::clone(&batch)))?;
            }
        }
        Ok(())
    }

    /// Raises the event-time watermark on every time-based query (see
    /// [`Hub::advance_time`](crate::session::Hub::advance_time)). The
    /// closed slides accumulate shard-side like any other update and come
    /// back through [`drain`](ShardedHub::drain).
    pub fn advance_time(&mut self, watermark: u64) -> Result<(), SapError> {
        if self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        for shard in 0..self.shards.len() {
            if self.placement.shard_len[shard] > 0 {
                self.shards[..].send(shard, Command::AdvanceTime(watermark))?;
            }
        }
        Ok(())
    }

    /// Publishes one object, **coalescing** it into a pending batch
    /// instead of wrapping every object in its own `Arc` allocation: the
    /// buffer is shipped as one batch after [`PUBLISH_ONE_COALESCE`]
    /// objects, or earlier when any other operation (a batch publish, a
    /// registration, [`flush`](ShardedHub::flush),
    /// [`drain`](ShardedHub::drain), [`inspect`](ShardedHub::inspect), …)
    /// needs the queues — so every observable ordering guarantee is
    /// exactly [`publish`](ShardedHub::publish)'s, and results were never
    /// visible before a barrier anyway. With zero registered queries the
    /// object is dropped, same as an empty-hub `publish`. A dead shard
    /// may therefore be reported by the operation that triggers the
    /// flush rather than the `publish_one` call that buffered the object.
    pub fn publish_one(&mut self, object: Object) -> Result<(), SapError> {
        if self.placement.registered.is_empty() {
            return Ok(());
        }
        self.pending_one.push(object);
        if self.pending_one.len() >= PUBLISH_ONE_COALESCE {
            self.flush_pending_one()
        } else {
            Ok(())
        }
    }

    /// Barrier without collection: returns once every shard has processed
    /// everything published so far. Accumulated updates stay shard-side
    /// for a later [`drain`](ShardedHub::drain).
    pub fn flush(&mut self) -> Result<(), SapError> {
        self.flush_pending_one()?;
        flush_on(&self.placement, &self.shards[..])
    }

    /// The barrier that makes sharding observable-equivalent to the
    /// sequential hub: waits until every shard has processed everything
    /// published so far, then returns all slides completed since the last
    /// drain, sorted by `(QueryId, slide)` — an order independent of
    /// shard count and thread scheduling. Time-based queries keep that
    /// contract: their slide indices are assigned by event-time closure
    /// order, a pure function of the published sequence.
    pub fn drain(&mut self) -> Result<Vec<QueryUpdate>, SapError> {
        self.flush_pending_one()?;
        drain_on(&self.placement, &self.shards[..], &mut self.parked_updates)
    }

    /// A point-in-time view of one query (slide count + last snapshot),
    /// reflecting everything published before this call. Unknown handles
    /// are a typed [`SapError::UnknownQuery`].
    pub fn inspect(&mut self, id: QueryId) -> Result<QueryState, SapError> {
        // "reflects everything published before this call" includes the
        // coalesced publish_one buffer
        self.flush_pending_one()?;
        inspect_on(&self.placement, &self.shards[..], id)
    }

    /// Hub-wide query counts and digest-plane sharing metrics, summed
    /// across the shards' per-worker partials (each shard reports its
    /// own groups/hits/rebuilds; group state is shard-local, so the sum
    /// is exact). A dead shard is [`SapError::ShardDown`].
    pub fn stats(&mut self) -> Result<HubStats, SapError> {
        self.flush_pending_one()?;
        stats_on(&self.placement, &self.shards[..])
    }

    /// Iterates the registered query handles in ascending (= registration)
    /// order.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.placement.registered.iter().copied()
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.placement.registered.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.placement.registered.is_empty()
    }

    /// Number of shards (= worker threads).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    // ---- durability plane -------------------------------------------------

    /// Captures the hub's full serving state as a framed, versioned,
    /// checksummed [`Checkpoint`] — the sharded counterpart of
    /// [`Hub::checkpoint`](crate::session::Hub::checkpoint), and
    /// interchangeable with it: either hub flavor can
    /// [`restore`](ShardedHub::restore) the other's checkpoints, at any
    /// shard count.
    ///
    /// Checkpointing is a **drain-style barrier**: every shard first
    /// retires its backlog, so the captured state sits on each query's
    /// current slide boundary. The updates that barrier collected are
    /// returned alongside the checkpoint — they are slides the captured
    /// state has already emitted (a restored hub will *not* re-emit
    /// them), so hand them to whatever consumed your drains.
    pub fn checkpoint(&mut self) -> Result<(Checkpoint, Vec<QueryUpdate>), SapError> {
        let updates = self.drain()?;
        let checkpoint = checkpoint_sections_on(&self.placement, &self.shards[..])?;
        Ok((checkpoint, updates))
    }

    /// Rebuilds a hub with `num_shards` workers from a [`Checkpoint`]
    /// taken by either hub flavor at any shard count, constructing each
    /// session's engine through `factory` and replaying the retained
    /// state into it. Sessions are re-scattered by the id hash under the
    /// new shard count; each slide group lands wholesale on one shard
    /// (its lowest-id member's), honoring group affinity.
    ///
    /// Malformed input is a typed [`SapError::Checkpoint`]; an engine
    /// name the factory cannot build surfaces as
    /// [`CheckpointError::UnknownEngine`]. Never panics on foreign bytes.
    pub fn restore(
        checkpoint: &Checkpoint,
        factory: &dyn EngineFactory,
        num_shards: usize,
    ) -> Result<ShardedHub, SapError> {
        let (next_id, merged) = decode_hub_checkpoint(checkpoint, factory)?;
        let mut hub = ShardedHub::new(num_shards);
        hub.placement.next_id = next_id;
        place_parts_on(&mut hub.placement, &hub.shards[..], merged)?;
        Ok(hub)
    }

    // ---- elastic operation ------------------------------------------------

    /// Moves one query's live session to `shard`, between two publishes —
    /// i.e. on a slide boundary of the command stream: the session leaves
    /// its old worker only after every previously published batch is
    /// applied there, and lands on the new worker before any later batch,
    /// so it observes the exact same object sequence as an unmoved query.
    /// Results are unaffected: slides completed on either side meet in
    /// the next [`drain`](ShardedHub::drain), whose global
    /// `(QueryId, slide)` sort is placement-blind.
    ///
    /// A shared query moves with its **entire slide group** — the digest
    /// producer is shard-local state shared with its co-members, so the
    /// group travels as one unit and the shard-locality invariant holds
    /// by construction.
    ///
    /// Moving a query to the shard it already lives on is a no-op. A
    /// worker dying mid-move surfaces as [`SapError::ShardDown`]; the
    /// sessions in flight are lost with it (exactly as if their new home
    /// had died a moment later).
    ///
    /// # Panics
    ///
    /// If `shard >= self.num_shards()` — a placement that cannot exist,
    /// i.e. a caller bug, not a data-dependent condition.
    pub fn move_query(&mut self, id: QueryId, shard: usize) -> Result<(), SapError> {
        self.flush_pending_one()?;
        move_query_on(&mut self.placement, &self.shards[..], id, shard)
    }

    /// Re-partitions every live session across a fresh set of
    /// `num_shards` workers (clamped to ≥ 1): each worker hands back its
    /// entire serving state, the old workers are retired, and the state
    /// is re-scattered by the id hash under the new count — slide groups
    /// wholesale, honoring shard affinity. Built on the same
    /// eject/install plane as [`move_query`](ShardedHub::move_query),
    /// and results are unaffected for the same reason: sessions observe
    /// the same object sequence, and updates completed before the resize
    /// (parked here, returned by the next [`drain`](ShardedHub::drain))
    /// sort into the same global order.
    ///
    /// Placement overrides from earlier `move_query` calls are cleared —
    /// the new partitioning is pure hash-and-affinity.
    pub fn resize(&mut self, num_shards: usize) -> Result<(), SapError> {
        let num_shards = num_shards.max(1);
        self.flush_pending_one()?;
        let merged = eject_all_on(&self.placement, &self.shards[..], &mut self.parked_updates)?;
        self.shutdown_workers();
        self.shards = Self::spawn_workers(num_shards, self.queue_capacity);
        self.placement.reset(num_shards);
        place_parts_on(&mut self.placement, &self.shards[..], merged)?;
        // fresh workers default to pooling and pruning; re-broadcast
        // disabled knobs
        if !self.class_sharing {
            self.broadcast_class_sharing()?;
        }
        if !self.admission_pruning {
            self.broadcast_admission_pruning()?;
        }
        Ok(())
    }

    /// Enables or disables result-class pooling for **future
    /// registrations** on every shard (default: enabled). Serving stays
    /// byte-identical either way — the knob only trades the memoized
    /// slide close for per-member serving, for A/B measurement (the
    /// `floor` bench preset) and for pinning down a suspected sharing
    /// bug in production. Sessions already registered, and any session
    /// that travels through a restore or resize, keep their class
    /// machinery regardless.
    pub fn set_result_class_sharing(&mut self, enabled: bool) -> Result<(), SapError> {
        self.flush_pending_one()?;
        self.class_sharing = enabled;
        self.broadcast_class_sharing()
    }

    fn broadcast_class_sharing(&self) -> Result<(), SapError> {
        for shard in 0..self.shards.len() {
            self.shards[..].send(shard, Command::SetClassSharing(self.class_sharing))?;
        }
        Ok(())
    }

    /// Enables or disables ingest-side dominance pruning on every shard
    /// (default: enabled; see
    /// [`Hub::set_admission_pruning`](crate::session::Hub::set_admission_pruning)
    /// for the criterion and the safety argument). Results are
    /// byte-identical either way; disabled is the reference arm where
    /// [`HubStats::pruned`] stays `0`. Takes effect for every group,
    /// existing and future, once each worker processes the toggle — i.e.
    /// ordered with the publishes around it, like any other command.
    pub fn set_admission_pruning(&mut self, enabled: bool) -> Result<(), SapError> {
        self.flush_pending_one()?;
        self.admission_pruning = enabled;
        self.broadcast_admission_pruning()
    }

    fn broadcast_admission_pruning(&self) -> Result<(), SapError> {
        for shard in 0..self.shards.len() {
            self.shards[..].send(shard, Command::SetAdmissionPruning(self.admission_pruning))?;
        }
        Ok(())
    }
}

impl Drop for ShardedHub {
    /// Closes every shard's queue and joins the workers. Outstanding
    /// publishes are processed before the workers exit; accumulated
    /// updates that were never [`drain`](ShardedHub::drain)ed are
    /// discarded. Worker panics are *not* re-raised here (aborting inside
    /// a drop during unwinding would mask the original panic); they
    /// surface as hub-side panics on the next send instead.
    fn drop(&mut self) {
        // ship any coalesced publish_one tail so session state is
        // consistent with every accepted publish (best effort: a dead
        // shard cannot take it anyway)
        let _ = self.flush_pending_one();
        self.shutdown_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OpStats;
    use crate::object::top_k_of;
    use crate::session::Hub;
    use crate::test_support::{Toy, ToyTimed};
    use crate::window::WindowSpec;

    fn stream(len: usize) -> Vec<Object> {
        (0..len)
            .map(|i| Object::new(i as u64, ((i * 37) % 101) as f64))
            .collect()
    }

    #[test]
    fn matches_sequential_hub_update_for_update() {
        for shards in [1, 2, 8] {
            let mut seq = Hub::new();
            let mut par = ShardedHub::new(shards);
            for i in 0..13usize {
                let (n, k, s) = (4 * (1 + i % 3), 1 + i % 4, 2 * (1 + i % 3));
                seq.register_alg(Toy::new(n, k, s));
                par.register_alg(Toy::new(n, k, s)).unwrap();
            }
            let data = stream(97);
            let mut expected = Vec::new();
            for chunk in data.chunks(17) {
                expected.extend(seq.publish(chunk));
                par.publish(chunk).unwrap();
            }
            // one big drain returns everything in global (QueryId, slide)
            // order; the sequential per-publish batches, re-sorted the same
            // way, must be the identical sequence
            expected.sort_unstable_by_key(|u| (u.query, u.result.slide));
            let got = par.drain().unwrap();
            assert_eq!(got, expected, "shards={shards}");
        }
    }

    #[test]
    fn drain_is_a_barrier_and_clears() {
        let mut hub = ShardedHub::with_capacity(3, 1);
        let q = hub.register_alg(Toy::new(4, 2, 2)).unwrap();
        // capacity 1: these publishes exercise the backpressure path
        for chunk in stream(40).chunks(2) {
            hub.publish(chunk).unwrap();
        }
        let first = hub.drain().unwrap();
        assert_eq!(first.len(), 20);
        assert!(first.iter().all(|u| u.query == q));
        assert_eq!(
            first.iter().map(|u| u.result.slide).collect::<Vec<_>>(),
            (0..20).collect::<Vec<_>>()
        );
        assert!(
            hub.drain().unwrap().is_empty(),
            "drain must clear the accumulator"
        );
    }

    #[test]
    fn flush_preserves_updates_for_drain() {
        let mut hub = ShardedHub::new(2);
        hub.register_alg(Toy::new(2, 1, 2)).unwrap();
        hub.publish(&stream(10)).unwrap();
        hub.flush().unwrap();
        assert_eq!(
            hub.drain().unwrap().len(),
            5,
            "flush must not consume updates"
        );
    }

    #[test]
    fn unregister_returns_session_and_types_unknown() {
        let mut hub = ShardedHub::new(4);
        let a = hub.register_alg(Toy::new(4, 1, 2)).unwrap();
        let b = hub.register_alg(Toy::new(4, 1, 2)).unwrap();
        hub.publish(&stream(8)).unwrap();
        // updates accumulated before an unregister stay shard-side until
        // drained, even for the removed query — collect them first
        assert_eq!(hub.drain().unwrap().len(), 8);
        let session = hub.unregister(a).expect("a is registered");
        assert_eq!(session.slides(), 4, "session state travels back intact");
        assert_eq!(
            hub.unregister(a).unwrap_err(),
            SapError::UnknownQuery { query: a },
            "double unregister is a typed error"
        );
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.query_ids().collect::<Vec<_>>(), vec![b]);
        // the survivor keeps serving
        hub.publish(&stream(4)).unwrap();
        assert!(hub.drain().unwrap().iter().all(|u| u.query == b));
    }

    #[test]
    fn mid_stream_registration_is_ordered_with_publishes() {
        let mut hub = ShardedHub::new(2);
        let early = hub.register_alg(Toy::new(4, 1, 2)).unwrap();
        hub.publish(&stream(10)).unwrap();
        let late = hub.register_alg(Toy::new(4, 1, 2)).unwrap();
        hub.publish(&stream(4)).unwrap();
        let updates = hub.drain().unwrap();
        let early_slides = updates.iter().filter(|u| u.query == early).count();
        let late_slides = updates.iter().filter(|u| u.query == late).count();
        assert_eq!(early_slides, 7, "early query saw all 14 objects");
        assert_eq!(late_slides, 2, "late query saw only the last 4");
    }

    #[test]
    fn empty_publish_and_empty_hub_are_noops() {
        let mut hub = ShardedHub::new(2);
        hub.publish(&stream(100)).unwrap(); // zero queries: explicit no-op
        let q = hub.register_alg(Toy::new(2, 1, 2)).unwrap();
        hub.publish(&[]).unwrap(); // empty batch: explicit no-op
        assert!(hub.drain().unwrap().is_empty());
        assert_eq!(hub.inspect(q).unwrap().slides, 0);
    }

    #[test]
    fn inspect_reflects_all_prior_publishes() {
        let mut hub = ShardedHub::new(3);
        let q = hub.register_alg(Toy::new(4, 2, 2)).unwrap();
        let data = stream(12);
        hub.publish(&data).unwrap();
        let state = hub.inspect(q).unwrap();
        assert_eq!(state.slides, 6);
        assert_eq!(state.last_snapshot, top_k_of(&data[8..], 2));
        let ghost = QueryId::from_raw(999);
        assert_eq!(
            hub.inspect(ghost),
            Err(SapError::UnknownQuery { query: ghost })
        );
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let mut hub = ShardedHub::with_capacity(0, 0);
        assert_eq!(hub.num_shards(), 1);
        assert!(hub.is_empty());
        hub.register_alg(Toy::new(2, 1, 1)).unwrap();
        hub.publish(&stream(3)).unwrap();
        assert_eq!(hub.drain().unwrap().len(), 3);
    }

    /// Irregular-rate timed stream: timestamp gaps cycle through 0..7
    /// time units, so slides hold wildly varying object counts (empty
    /// slides included once gaps exceed a slide duration).
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
    fn mixed_timed_and_count_queries_match_sequential_hub() {
        for shards in [1usize, 2, 8] {
            let mut seq = Hub::new();
            let mut par = ShardedHub::new(shards);
            for i in 0..10usize {
                if i % 2 == 0 {
                    let (n, k, s) = (4 * (1 + i % 3), 1 + i % 4, 2 * (1 + i % 3));
                    seq.register_alg(Toy::new(n, k, s));
                    par.register_alg(Toy::new(n, k, s)).unwrap();
                } else {
                    let sd = [5u64, 10, 25][i % 3];
                    let wd = sd * [2u64, 4][(i / 2) % 2];
                    let k = 1 + i % 3;
                    seq.register_timed_alg(ToyTimed::new(wd, sd, k));
                    par.register_timed_alg(ToyTimed::new(wd, sd, k)).unwrap();
                }
            }
            let data = timed_stream(150);
            let mut expected = Vec::new();
            for chunk in data.chunks(23) {
                expected.extend(seq.publish_timed(chunk));
                par.publish_timed(chunk).unwrap();
            }
            // a final watermark flushes trailing and empty slides on both
            let horizon = data.last().unwrap().timestamp + 100;
            expected.extend(seq.advance_time(horizon));
            par.advance_time(horizon).unwrap();
            expected.sort_unstable_by_key(|u| (u.query, u.result.slide));
            let got = par.drain().unwrap();
            assert_eq!(got, expected, "shards={shards}");
            assert!(
                expected.iter().any(|u| u.result.snapshot.is_empty()),
                "the schedule should exercise empty slides"
            );
        }
    }

    #[test]
    fn shared_queries_follow_their_group_even_when_the_hash_disagrees() {
        let mut hub = ShardedHub::new(8);
        let pass = Predicate::default();
        let founder = hub.register_shared_alg(Toy::new(4, 2, 2), 20, 10).unwrap();
        let home = hub.placement.shared_groups[&(10, pass)].0;
        assert_eq!(
            home,
            hub.placement.shard_of(founder),
            "the founder places the group"
        );
        let mut members = vec![founder];
        let mut disagreements = 0usize;
        for _ in 0..12 {
            let q = hub.register_shared_alg(Toy::new(4, 2, 2), 20, 10).unwrap();
            if hub.placement.shard_of(q) != home {
                disagreements += 1;
            }
            assert_eq!(
                hub.placement.home_shard(q),
                home,
                "group-aware placement must override the hash"
            );
            members.push(q);
        }
        assert!(disagreements > 0, "the hash must disagree for this to bite");
        assert_eq!(hub.placement.shared_groups[&(10, pass)].1, 13);
        // placement is invisible in the output: byte-identical to the
        // sequential hub's registration-order delivery
        let mut seq = Hub::new();
        for _ in 0..13 {
            seq.register_shared_alg(Toy::new(4, 2, 2), 20, 10).unwrap();
        }
        let data = timed_stream(60);
        let mut expected = Vec::new();
        for chunk in data.chunks(9) {
            expected.extend(seq.publish_timed(chunk));
            hub.publish_timed(chunk).unwrap();
        }
        expected.sort_unstable_by_key(|u| (u.query, u.result.slide));
        assert_eq!(hub.drain().unwrap(), expected);
        // stats aggregate the per-shard registries
        let stats = hub.stats().unwrap();
        assert_eq!(stats.queries, 13);
        assert_eq!(stats.shared_queries, 13);
        assert_eq!(stats.digest_groups, 1, "one group, wholly on one shard");
        assert!(stats.digest_hits > 0);
        // inspect and unregister route through the group's shard too
        let probe = *members.last().unwrap();
        assert!(hub.inspect(probe).unwrap().slides > 0);
        for q in members {
            assert!(hub.unregister(q).unwrap().into_shared().is_some());
        }
        assert!(
            hub.placement.shared_groups.is_empty(),
            "the last member out retires the group's placement"
        );
    }

    #[test]
    fn dead_shard_does_not_strand_shared_group_bookkeeping() {
        let mut hub = ShardedHub::new(1);
        // a Bomb on the shared plane: ⟨1, 1, 1⟩ is the reduction of
        // W⟨10, 10⟩ with k = 1, and the first closed slide kills shard 0
        let pass = Predicate::default();
        let bomb = hub
            .register_shared_boxed(Box::new(Bomb(WindowSpec::new(1, 1, 1).unwrap())), 10, 10)
            .unwrap();
        assert_eq!(hub.placement.shared_groups[&(10, pass)], (0, 1));
        let _ = hub.publish_timed(&[TimedObject::new(0, 5, 1.0), TimedObject::new(1, 15, 2.0)]);
        let _ = hub.flush();
        // a registration into the group now targets the dead shard: a
        // typed error that must NOT join the membership bookkeeping
        assert_eq!(
            hub.register_shared_alg(Toy::new(1, 1, 1), 10, 10)
                .unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
        assert_eq!(
            hub.placement.shared_groups[&(10, pass)],
            (0, 1),
            "a failed registration never counts as a member"
        );
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.stats().unwrap_err(), SapError::ShardDown { shard: 0 });
        // unregistering the lost query keeps reporting the dead shard and
        // leaves membership intact (the query was lost, not removed)
        assert_eq!(
            hub.unregister(bomb).unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
        assert_eq!(hub.placement.shared_groups[&(10, pass)], (0, 1));
    }

    #[test]
    fn timed_inspect_and_unregister_cross_the_shard_boundary() {
        let mut hub = ShardedHub::new(3);
        let q = hub.register_timed_alg(ToyTimed::new(20, 10, 2)).unwrap();
        hub.publish_timed(&timed_stream(40)).unwrap();
        hub.flush().unwrap();
        let state = hub.inspect(q).unwrap();
        assert!(state.slides > 0);
        let session = hub.unregister(q).unwrap();
        assert_eq!(session.slides(), state.slides);
        assert!(session.into_timed().is_some());
    }

    /// An engine that kills its worker on the first slide.
    struct Bomb(WindowSpec);
    impl crate::checkpoint::CheckpointState for Bomb {}
    impl SlidingTopK for Bomb {
        fn spec(&self) -> WindowSpec {
            self.0
        }
        fn slide(&mut self, _: &[Object]) -> &[Object] {
            panic!("engine bug");
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
            "bomb"
        }
    }

    #[test]
    fn dead_shard_is_a_typed_error_not_a_panic() {
        let mut hub = ShardedHub::new(1);
        let q = hub
            .register_alg(Bomb(WindowSpec::new(1, 1, 1).unwrap()))
            .unwrap();
        // the worker dies processing this batch; the publish itself may
        // still enqueue successfully
        let _ = hub.publish(&stream(1));
        let err = hub.flush().unwrap_err();
        assert_eq!(err, SapError::ShardDown { shard: 0 });
        assert!(err.to_string().contains("shard 0"));
        // every later operation keeps reporting the same typed error
        assert_eq!(hub.drain().unwrap_err(), SapError::ShardDown { shard: 0 });
        assert_eq!(
            hub.publish(&stream(2)).unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
        assert_eq!(
            hub.inspect(q).unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
        assert_eq!(
            hub.unregister(q).unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
        // a failed unregister leaves the bookkeeping untouched: retrying
        // keeps reporting the dead shard instead of UnknownQuery
        assert_eq!(hub.len(), 1);
        assert_eq!(
            hub.unregister(q).unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
    }

    /// The PR 4 caveat, closed: `HubStats.digest_groups`/`count_groups`
    /// summing is exact *only because* groups are shard-local. If a
    /// routing regression ever founded the same group on two workers,
    /// the stats merge must catch it instead of silently double-counting.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slide group split across workers")]
    fn stats_merge_catches_a_slide_group_split_across_workers() {
        // simulate the regression at the registry level: two workers
        // each founded a slide group with the same slide_duration
        // (routing gone hash-only instead of group-affine)
        let mut a: ShardRegistry = Registry::with_shard(0);
        let mut b: ShardRegistry = Registry::with_shard(1);
        let consumer = |_: usize| {
            SharedTimed::from_engine(
                Box::new(Toy::new(1, 1, 1)) as Box<dyn SlidingTopK + Send>,
                10,
                10,
            )
            .unwrap()
        };
        a.register_shared(
            QueryId::from_raw(0),
            consumer(0),
            Predicate::default(),
            Some(0),
        );
        b.register_shared(
            QueryId::from_raw(1),
            consumer(1),
            Predicate::default(),
            Some(1),
        );
        let mut seen = GroupKeys::default();
        seen.absorb_disjoint(&a.group_keys(), 0);
        seen.absorb_disjoint(&b.group_keys(), 1); // must panic here
    }

    /// Same detector, count plane: two workers holding the same
    /// `(s, fill)` geometry class is a split count group.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "count group split across workers")]
    fn stats_merge_catches_a_count_group_split_across_workers() {
        let mut seen = GroupKeys::default();
        let shard_keys = GroupKeys {
            digest: Vec::new(),
            count: vec![(4, 2, Predicate::default())],
        };
        seen.absorb_disjoint(&shard_keys, 0);
        seen.absorb_disjoint(&shard_keys, 1); // must panic here
    }

    /// The healthy side of the invariant: group-affine routing keeps
    /// every group on one shard, so the audited stats sums stay exact
    /// across many shards (this test runs the real merge path, which in
    /// debug builds would panic on any split).
    #[test]
    fn grouped_stats_sums_stay_exact_across_shards() {
        let mut hub = ShardedHub::new(8);
        for _ in 0..6 {
            hub.register_grouped_alg(Toy::new(2, 1, 1), 4, 2).unwrap();
        }
        for _ in 0..5 {
            hub.register_shared_alg(Toy::new(4, 2, 2), 20, 10).unwrap();
        }
        hub.publish(&stream(8)).unwrap();
        hub.flush().unwrap();
        let stats = hub.stats().unwrap();
        assert_eq!(stats.grouped_queries, 6);
        assert_eq!(stats.count_groups, 1, "one geometry class, one shard");
        assert_eq!(stats.digest_groups, 1, "one slide group, one shard");
    }

    #[test]
    fn registration_survives_a_dead_shard() {
        let mut hub = ShardedHub::new(2);
        hub.register_alg(Bomb(WindowSpec::new(1, 1, 1).unwrap()))
            .unwrap();
        let _ = hub.publish(&stream(1)); // kills the Bomb's shard
        let _ = hub.flush(); // make sure the worker is gone
                             // failed registrations burn their id, so retries derive fresh ids
                             // and eventually hash onto the healthy shard
        let q = (0..8)
            .find_map(|_| hub.register_alg(Toy::new(2, 1, 1)).ok())
            .expect("a healthy shard accepted a registration");
        assert_eq!(hub.inspect(q).unwrap().slides, 0);
    }
}
