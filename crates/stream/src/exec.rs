//! The async hub: a single-reactor executor that serves many shards on
//! few workers, with a non-blocking publish path.
//!
//! [`Hub`](crate::session::Hub) fans every published object out to every
//! registered query in the caller's thread, so throughput is capped at
//! one core. [`AsyncHub`] partitions the queries across logical shards
//! instead and multiplexes them onto a small reactor pool with batched
//! wakeups — the executor shape the web-scale continuous top-k
//! literature assumes. A hub serving thousands of logical partitions
//! cannot afford a thread each, and a publisher that blocks in `send`
//! cannot interleave ingestion with other work:
//!
//! * every logical shard is a `Slot`: a bounded command queue plus the
//!   same `Registry` the sequential hub drives, applied through one
//!   interpreter (`apply_command`, see the control plane in
//!   `crate::shard`) — which is what keeps results **byte-identical** to
//!   the sequential [`Hub`](crate::session::Hub), by construction rather
//!   than by luck;
//! * a fixed pool of worker threads multiplexes the slots: each wakeup a
//!   worker claims one ready shard and applies up to
//!   [`COMMANDS_PER_WAKEUP`] queued commands before re-entering the
//!   reactor, amortizing the queue crossing. A slide close inside a
//!   shared group is still **one** queue event: each result class is
//!   served from the borrowed digest view inside the close and stamped
//!   on its members with snapshot refcount bumps, the members'
//!   `QueryUpdate`s delivered in the same wakeup's batch;
//! * [`publish`](AsyncHub::publish) is a single-lock broadcast: one
//!   mutex crossing enqueues the `Arc` batch on every non-empty shard —
//!   or **parks** the publisher until the slowest queue has room. The
//!   non-blocking variants [`poll_ready`](AsyncHub::poll_ready) and
//!   [`try_publish`](AsyncHub::try_publish) let a caller that refuses to
//!   park test for room instead, and
//!   [`publisher_parks`](AsyncHub::publisher_parks) counts the parks so
//!   a deployment can see whether its queues are deep enough;
//! * [`drain`](AsyncHub::drain) is a join-all barrier, returning updates
//!   in the global `(QueryId, slide)` order — independent of shard
//!   count, worker count, and scheduling. Ids are handed out in
//!   registration order and each query's slides ascend, so this is the
//!   sequential hub's registration-order delivery.
//!
//! The quiet publish path performs **zero heap allocations** at steady
//! state: queues never grow past their bound, publish targets live in a
//! reused scratch vector, and batches come from a small `Arc` pool that
//! recycles a buffer as soon as every shard has dropped its reference
//! (`tests/alloc_regression.rs` pins this under a counting allocator).
//!
//! # Deterministic scheduling, for tests
//!
//! Which ready shard a worker serves next is delegated to a pluggable
//! [`Scheduler`]. Production uses [`FifoScheduler`] (lowest index
//! first); the schedule-fuzzing harness uses [`SeededScheduler`], which
//! drives the pick order from a seeded xorshift so an adversarial
//! interleaving can be *replayed from one `u64`*. Results never depend
//! on the schedule — that is exactly the property the model harness
//! (`tests/hub_model.rs`) attacks with over a thousand seeded schedules.
//!
//! ```
//! use sap_stream::{AsyncHub, Object, Registration};
//! # use sap_stream::{OpStats, SlidingTopK, WindowSpec};
//! # struct Toy(WindowSpec, Vec<Object>);
//! # impl SlidingTopK for Toy {
//! #     fn spec(&self) -> WindowSpec { self.0 }
//! #     fn slide(&mut self, b: &[Object]) -> &[Object] { self.1 = b.to_vec(); &self.1 }
//! #     fn candidate_count(&self) -> usize { 0 }
//! #     fn memory_bytes(&self) -> usize { 0 }
//! #     fn stats(&self) -> OpStats { OpStats::default() }
//! #     fn name(&self) -> &str { "toy" }
//! # }
//! // 8 logical shards served by 2 workers — shards do not cap at the
//! // core count
//! let mut hub = AsyncHub::new(8, 2);
//! // ⟨n = 2, k = 1, s = 2⟩, whose engine runs the reduction ⟨1, 1, 1⟩
//! let toy = Toy(WindowSpec::new(1, 1, 1).unwrap(), Vec::new());
//! let q = hub.subscribe(Registration::grouped(Box::new(toy), 2, 2)).unwrap();
//! assert!(hub.poll_ready().unwrap(), "queues are empty: room for a batch");
//! hub.publish(&[Object::new(0, 1.0), Object::new(1, 5.0)]).unwrap();
//! let updates = hub.drain().unwrap(); // join-all barrier
//! assert_eq!(updates.len(), 1);
//! assert_eq!(updates[0].query, q);
//! ```
//!
//! Replaying a schedule: two hubs driven by *different* seeds still
//! drain identically — determinism is a property of the hub, and the
//! seed only steers which worker touches which shard when.
//!
//! ```
//! use sap_stream::{AsyncHub, Object, Registration, SeededScheduler};
//! # use sap_stream::{OpStats, SlidingTopK, WindowSpec};
//! # struct Toy(WindowSpec, Vec<Object>);
//! # impl SlidingTopK for Toy {
//! #     fn spec(&self) -> WindowSpec { self.0 }
//! #     fn slide(&mut self, b: &[Object]) -> &[Object] { self.1 = b.to_vec(); &self.1 }
//! #     fn candidate_count(&self) -> usize { 0 }
//! #     fn memory_bytes(&self) -> usize { 0 }
//! #     fn stats(&self) -> OpStats { OpStats::default() }
//! #     fn name(&self) -> &str { "toy" }
//! # }
//! let data: Vec<Object> = (0..64).map(|i| Object::new(i, (i * 37 % 101) as f64)).collect();
//! let mut drains = Vec::new();
//! for seed in [1u64, 0xDEAD_BEEF] {
//!     let mut hub = AsyncHub::with_scheduler(4, 2, Box::new(SeededScheduler::new(seed)));
//!     for _ in 0..3 {
//!         let toy = Toy(WindowSpec::new(2, 2, 2).unwrap(), Vec::new());
//!         hub.subscribe(Registration::grouped(Box::new(toy), 4, 4)).unwrap();
//!     }
//!     for chunk in data.chunks(8) {
//!         hub.publish(chunk).unwrap();
//!     }
//!     drains.push(hub.drain().unwrap());
//! }
//! assert_eq!(drains[0], drains[1], "the schedule is invisible in the output");
//! ```
//!
//! # When a worker panics
//!
//! An engine panic is caught at the wakeup boundary: the shard is marked
//! dead, its registry (and the queries on it) is dropped, and any queued
//! or future command against it reports the typed
//! [`SapError::ShardDown`] — the *worker thread survives* and keeps
//! serving the other shards, so one poisoned engine costs one shard, not
//! one `1/workers`-th of the hub. Parked publishers are woken to observe
//! the death instead of hanging. The queries on the dead shard are lost;
//! the hub never respawns a shard silently, because losing standing
//! queries' state is not something to paper over. The recovery story:
//! [`checkpoint`](AsyncHub::checkpoint) periodically and
//! [`restore`](AsyncHub::restore) the last checkpoint into a fresh hub —
//! checkpoints are fully interchangeable between `Hub` and `AsyncHub`
//! (`examples/checkpoint.rs` walks the whole drill).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::checkpoint::{Checkpoint, EngineFactory};
use crate::object::{Object, TimedObject};
use crate::query::SapError;
use crate::registry::{HubRegistry, HubStats, Registration, Registry};
use crate::session::{HubSession, QueryId, QueryUpdate};
use crate::shard::{
    apply_command, checkpoint_sections_on, decode_hub_checkpoint, drain_on, eject_all_on, flush_on,
    inspect_on, move_query_on, place_parts_on, register_on, stats_on, unregister_on, Command,
    Placement, QueryState,
};

/// Default bound on each shard's queue, in commands. Deep enough to keep
/// workers busy across bursty publishes, shallow enough that a stalled
/// shard pushes back on the publisher instead of buffering the stream.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// How many singly-published objects [`AsyncHub::publish_one`] coalesces
/// into one pending batch before forcing a flush. Small enough that a
/// trickle publisher's objects reach the shards promptly relative to any
/// barrier, large enough that a tight `publish_one` loop costs one `Arc`
/// batch per `PUBLISH_ONE_COALESCE` objects instead of one per object.
pub const PUBLISH_ONE_COALESCE: usize = 128;

/// How many queued commands one worker wakeup applies to its claimed
/// shard before re-entering the reactor. Batching amortizes the lock
/// crossing and the scheduler pick over the fan-out work; small enough
/// that a backlogged shard still shares its workers fairly.
pub const COMMANDS_PER_WAKEUP: usize = 32;

/// How many recycled batch buffers the publish path keeps. A buffer is
/// reusable once every shard has consumed it, so the pool only needs to
/// cover batches concurrently in flight behind the queues.
const BATCH_POOL_SLOTS: usize = 8;

/// Picks which ready shard a worker serves next.
///
/// Called under the reactor lock with the worker's index and the ready
/// list (ascending shard indices, never empty); the returned value is
/// reduced modulo `ready.len()` by the executor, so any strategy — even
/// a raw random stream — is safe. Picks are totally ordered by the lock,
/// which is what makes a seeded schedule reproducible.
///
/// The hub's output never depends on the pick order (that is the
/// determinism contract `tests/hub_model.rs` fuzzes); a
/// `Scheduler` only steers *which worker does what when* — fairness,
/// cache locality, or, for [`SeededScheduler`], adversarial testing.
pub trait Scheduler: Send {
    /// Returns an index into `ready` (reduced mod `ready.len()`).
    fn pick(&mut self, worker: usize, ready: &[usize]) -> usize;
}

/// The production scheduler: always the lowest ready shard index.
/// Combined with ascending scans this drains shards round-robin-ish and
/// keeps the pick O(1).
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn pick(&mut self, _worker: usize, _ready: &[usize]) -> usize {
        0
    }
}

/// A deterministic adversarial scheduler: picks are driven by a seeded
/// xorshift64* stream mixed with the worker index, so a failing
/// interleaving replays from a single `u64`. Two runs with the same
/// seed, worker count, and command sequence make the same picks in the
/// same total order (the reactor lock serializes them).
#[derive(Debug, Clone)]
pub struct SeededScheduler {
    state: u64,
}

impl SeededScheduler {
    /// A scheduler replaying the pick stream named by `seed` (any value;
    /// zero is mapped to a nonzero internal state).
    pub fn new(seed: u64) -> SeededScheduler {
        SeededScheduler {
            state: seed | 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Scheduler for SeededScheduler {
    fn pick(&mut self, worker: usize, ready: &[usize]) -> usize {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let mixed = self
            .state
            .wrapping_add((worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (mixed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % ready.len()
    }
}

/// One logical shard's seat in the reactor: its bounded command queue
/// and — when no worker currently holds it — its serving core.
struct Slot {
    /// Bounded by the reactor's `capacity`: the publisher parks instead
    /// of pushing past it, so this deque never reallocates after
    /// construction (the zero-allocation publish invariant).
    queue: VecDeque<Command>,
    /// `None` while a worker has the core checked out. Claiming the core
    /// is what serializes a shard: its registry is only ever touched by
    /// one worker at a time, commands strictly in queue order.
    core: Option<Box<ShardCore>>,
    /// Set when an engine panic killed this shard. Its queue is cleared
    /// (dropping queued reply senders, so waiting hub calls observe
    /// `ShardDown`) and every later send is refused.
    dead: bool,
    /// Times a blocking publish parked with **this** shard's queue as the
    /// full one — per-shard backpressure attribution, so a balancer can
    /// tell *which* shard is slow ([`AsyncHub::shard_loads`], summed into
    /// [`HubStats::publisher_parks`] by [`AsyncHub::stats`]).
    parks: u64,
    /// High-water mark of this shard's queue depth, in commands —
    /// maxed into [`HubStats::queue_depth_hwm`]. All mutations happen
    /// under the reactor lock, so plain fields suffice.
    depth_hwm: u64,
}

/// What a worker checks out: the shard's registry plus its undrained
/// updates.
struct ShardCore {
    registry: HubRegistry,
    updates: Vec<QueryUpdate>,
}

impl Slot {
    fn new(shard: usize, capacity: usize) -> Slot {
        Slot {
            queue: VecDeque::with_capacity(capacity),
            core: Some(Box::new(ShardCore {
                registry: Registry::with_shard(shard),
                updates: Vec::new(),
            })),
            dead: false,
            parks: 0,
            depth_hwm: 0,
        }
    }

    /// Ready = a worker could make progress on it right now.
    fn ready(&self) -> bool {
        !self.dead && self.core.is_some() && !self.queue.is_empty()
    }

    /// Idle = fully quiesced (used by the resize slot swap).
    fn idle(&self) -> bool {
        self.dead || (self.core.is_some() && self.queue.is_empty())
    }
}

struct ExecState {
    slots: Vec<Slot>,
    scheduler: Box<dyn Scheduler>,
    shutdown: bool,
    /// Parks accumulated by slots retired through
    /// [`AsyncHub::resize`] — keeps the hub-lifetime
    /// [`AsyncHub::publisher_parks`] total monotone across placements.
    retired_parks: u64,
}

/// The single reactor every worker and the hub thread rendezvous on: one
/// mutex over all slots, one condvar each way (`work_cv` wakes workers,
/// `room_cv` wakes parked publishers and quiesce waiters). The control
/// plane enqueues its commands through [`send`](Reactor::send).
pub(crate) struct Reactor {
    state: Mutex<ExecState>,
    work_cv: Condvar,
    room_cv: Condvar,
    /// Queue bound per shard, in commands.
    capacity: usize,
}

impl Reactor {
    fn new(num_shards: usize, capacity: usize, scheduler: Box<dyn Scheduler>) -> Reactor {
        Reactor {
            state: Mutex::new(ExecState {
                slots: (0..num_shards).map(|i| Slot::new(i, capacity)).collect(),
                scheduler,
                shutdown: false,
                retired_parks: 0,
            }),
            work_cv: Condvar::new(),
            room_cv: Condvar::new(),
            capacity,
        }
    }

    /// Locks the state. Engine panics are caught *outside* this lock, so
    /// poisoning is unreachable in practice; recovering the guard anyway
    /// keeps `Drop` and error paths panic-free.
    fn state(&self) -> MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_room<'a>(&self, guard: MutexGuard<'a, ExecState>) -> MutexGuard<'a, ExecState> {
        self.room_cv
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether every target queue has room for `need` more commands.
    /// A dead target is the typed [`SapError::ShardDown`].
    fn ready_for(&self, targets: &[usize], need: usize) -> Result<bool, SapError> {
        let state = self.state();
        for &shard in targets {
            let slot = &state.slots[shard];
            if slot.dead {
                return Err(SapError::ShardDown { shard });
            }
            if slot.queue.len() + need > self.capacity {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The publish path: atomically enqueues one command on *every*
    /// target, or parks until that is possible (all-or-nothing, so a
    /// partially published batch can never exist) — one lock crossing
    /// for the whole broadcast.
    fn broadcast(
        &self,
        targets: &[usize],
        mut make: impl FnMut() -> Command,
    ) -> Result<(), SapError> {
        if targets.is_empty() {
            return Ok(());
        }
        let mut state = self.state();
        loop {
            let mut full = None;
            for &shard in targets {
                let slot = &state.slots[shard];
                if slot.dead {
                    return Err(SapError::ShardDown { shard });
                }
                if slot.queue.len() >= self.capacity {
                    full = Some(shard);
                    break;
                }
            }
            let Some(culprit) = full else {
                for &shard in targets {
                    let slot = &mut state.slots[shard];
                    slot.queue.push_back(make());
                    slot.depth_hwm = slot.depth_hwm.max(slot.queue.len() as u64);
                }
                drop(state);
                self.work_cv.notify_all();
                return Ok(());
            };
            // the park is charged to the shard whose queue blocked it —
            // that attribution is what lets a balancer see *which* shard
            // is slow rather than just that something parked
            state.slots[culprit].parks += 1;
            state = self.wait_room(state);
        }
    }

    /// Control-command transport: enqueues on one shard, waiting (without
    /// counting as a publisher park) while its queue is full. A send only
    /// fails when the shard can no longer process commands — an engine
    /// panicked — reported as the typed [`SapError::ShardDown`] with the
    /// shard index.
    pub(crate) fn send(&self, shard: usize, cmd: Command) -> Result<(), SapError> {
        let mut state = self.state();
        loop {
            let slot = &state.slots[shard];
            if slot.dead {
                return Err(SapError::ShardDown { shard });
            }
            if slot.queue.len() < self.capacity {
                break;
            }
            state = self.wait_room(state);
        }
        let slot = &mut state.slots[shard];
        slot.queue.push_back(cmd);
        slot.depth_hwm = slot.depth_hwm.max(slot.queue.len() as u64);
        drop(state);
        self.work_cv.notify_one();
        Ok(())
    }
}

/// The worker loop: claim a ready shard (scheduler's choice), check out
/// its core, apply one batch of commands outside the lock, put the core
/// back. Engine panics are absorbed here — the shard dies, the worker
/// survives.
fn worker_loop(reactor: Arc<Reactor>, worker: usize) {
    // per-worker scratch, reused across wakeups (no steady-state allocs).
    // `batch` is a deque so the application loop below can pop from the
    // front in O(1) while leaving unapplied commands alive across a
    // panic's unwind.
    let mut ready: Vec<usize> = Vec::new();
    let mut batch: VecDeque<Command> = VecDeque::with_capacity(COMMANDS_PER_WAKEUP);
    loop {
        let (shard, mut core) = {
            let mut state = reactor.state();
            loop {
                ready.clear();
                ready.extend(
                    state
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, slot)| slot.ready())
                        .map(|(i, _)| i),
                );
                if !ready.is_empty() {
                    let choice = state.scheduler.pick(worker, &ready) % ready.len();
                    let shard = ready[choice];
                    let core = state.slots[shard].core.take().expect("ready ⇒ resident");
                    let take = state.slots[shard].queue.len().min(COMMANDS_PER_WAKEUP);
                    batch.extend(state.slots[shard].queue.drain(..take));
                    // group-aware burst: never cut a run of ingestion
                    // commands at the batch bound — a slide close whose
                    // class fan-out would straddle it drains inside this
                    // single wakeup's catch_unwind lease instead of
                    // interleaving member emissions across two lock
                    // crossings. Bounded by the queue capacity, so a
                    // backlogged shard still cannot monopolize a worker
                    // past one queue's worth of commands.
                    while batch.back().is_some_and(Command::is_ingest)
                        && state.slots[shard]
                            .queue
                            .front()
                            .is_some_and(Command::is_ingest)
                    {
                        let cmd = state.slots[shard]
                            .queue
                            .pop_front()
                            .expect("front observed above");
                        batch.push_back(cmd);
                    }
                    break (shard, core);
                }
                if state.shutdown {
                    // outstanding commands are finished before exit: we
                    // only get here once nothing is (or can become) ready
                    return;
                }
                state = reactor
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // queue space was freed: wake parked publishers before the
        // (potentially long) batch application
        reactor.room_cv.notify_all();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // pop one command at a time: a panic's unwind must NOT drop
            // the unapplied tail, whose reply senders have to stay alive
            // until the slot is marked dead below — otherwise a hub
            // thread woken by a dropped sender could observe the death
            // (ShardDown) and issue a publish that still sees
            // `dead == false`, silently feeding a dying shard
            while let Some(cmd) = batch.pop_front() {
                apply_command(&mut core.registry, &mut core.updates, cmd);
            }
        }));
        let mut state = reactor.state();
        match outcome {
            Ok(()) => {
                let more = !state.slots[shard].queue.is_empty();
                state.slots[shard].core = Some(core);
                drop(state);
                if more {
                    reactor.work_cv.notify_all();
                }
                // the put-back may complete a quiesce (resize) or give a
                // readiness probe its answer
                reactor.room_cv.notify_all();
            }
            Err(_) => {
                // Mark the shard dead FIRST, then drop the unapplied
                // commands and the queue — all under one lock section,
                // so their reply senders (whose drop is what hub calls
                // waiting on this shard observe as ShardDown instead of
                // hanging) cannot be seen before the death is. The one
                // unavoidable mid-unwind drop is the panicking command's
                // own state — harmless, because the commands that run
                // engine code (Publish/PublishTimed/AdvanceTime) carry
                // no reply sender. The core is dropped too: its engines
                // died mid-slide and must not serve again.
                let slot = &mut state.slots[shard];
                slot.dead = true;
                slot.queue.clear();
                batch.clear();
                drop(core);
                drop(state);
                // parked publishers must wake to observe the death
                reactor.room_cv.notify_all();
                reactor.work_cv.notify_all();
            }
        }
    }
}

/// A bounded pool of batch buffers for the zero-allocation publish path:
/// a buffer whose `Arc` refcount has returned to one (every shard
/// consumed it) and whose length matches is recycled via
/// `copy_from_slice`; otherwise a fresh buffer replaces the oldest pool
/// entry round-robin.
struct ArcPool<T> {
    slots: Vec<Arc<[T]>>,
    next: usize,
}

impl<T: Copy> ArcPool<T> {
    fn new() -> ArcPool<T> {
        ArcPool {
            slots: Vec::with_capacity(BATCH_POOL_SLOTS),
            next: 0,
        }
    }

    fn batch(&mut self, data: &[T]) -> Arc<[T]> {
        for slot in &mut self.slots {
            if slot.len() == data.len() {
                if let Some(buf) = Arc::get_mut(slot) {
                    buf.copy_from_slice(data);
                    return Arc::clone(slot);
                }
            }
        }
        let fresh: Arc<[T]> = Arc::from(data);
        if self.slots.len() < BATCH_POOL_SLOTS {
            self.slots.push(Arc::clone(&fresh));
        } else {
            self.slots[self.next] = Arc::clone(&fresh);
            self.next = (self.next + 1) % BATCH_POOL_SLOTS;
        }
        fresh
    }
}

/// A [`Hub`](crate::session::Hub)-equivalent set of standing queries
/// partitioned across many logical shards served by few worker threads.
///
/// See the [module docs](self) for the architecture. Differences from
/// the sequential hub's API surface:
///
/// * [`publish`](AsyncHub::publish) returns nothing — results
///   accumulate shard-side and are collected by
///   [`drain`](AsyncHub::drain), which doubles as the determinism
///   barrier;
/// * `publish` may **park** while any recipient queue is full; the
///   non-blocking pair [`poll_ready`](AsyncHub::poll_ready)/
///   [`try_publish`](AsyncHub::try_publish) refuses instead, and
///   [`publisher_parks`](AsyncHub::publisher_parks) counts the parks;
/// * every fallible operation reports a dead shard as the typed
///   [`SapError::ShardDown`];
/// * [`move_query`](AsyncHub::move_query) and
///   [`resize`](AsyncHub::resize) re-place live sessions between
///   publishes without perturbing results.
pub struct AsyncHub {
    reactor: Arc<Reactor>,
    workers: Vec<JoinHandle<()>>,
    placement: Placement,
    /// Objects accepted by [`publish_one`](AsyncHub::publish_one) and not
    /// yet shipped: they coalesce into one `Arc` batch per
    /// [`PUBLISH_ONE_COALESCE`] objects (or per intervening operation).
    /// Flushed — preserving publish order — before any other command is
    /// enqueued, so ordering guarantees are unchanged.
    pending_one: Vec<Object>,
    /// Updates rescued from a [`resize`](AsyncHub::resize), merged into
    /// the next [`drain`](AsyncHub::drain) — the global `(QueryId,
    /// slide)` sort puts them exactly where an uninterrupted run would
    /// have.
    parked_updates: Vec<QueryUpdate>,
    /// Reused publish-target scratch (the non-empty shards).
    targets: Vec<usize>,
    pool: ArcPool<Object>,
    timed_pool: ArcPool<TimedObject>,
}

impl std::fmt::Debug for AsyncHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncHub")
            .field("shards", &self.placement.num_shards())
            .field("workers", &self.workers.len())
            .field("queries", &self.placement.registered.len())
            .field("next_id", &self.placement.next_id)
            .finish()
    }
}

impl AsyncHub {
    /// An executor with `num_shards` logical shards served by
    /// `num_workers` threads (both clamped to ≥ 1), the
    /// [`DEFAULT_QUEUE_CAPACITY`], and the [`FifoScheduler`]. A shard
    /// costs no thread — shards beyond the core count are exactly the
    /// point; `AsyncHub::new(n, n)` gives every shard a worker of its own.
    pub fn new(num_shards: usize, num_workers: usize) -> AsyncHub {
        AsyncHub::with_config(
            num_shards,
            num_workers,
            DEFAULT_QUEUE_CAPACITY,
            Box::new(FifoScheduler),
        )
    }

    /// [`new`](AsyncHub::new) with an explicit [`Scheduler`] — the
    /// schedule-fuzzing entry point.
    pub fn with_scheduler(
        num_shards: usize,
        num_workers: usize,
        scheduler: Box<dyn Scheduler>,
    ) -> AsyncHub {
        AsyncHub::with_config(num_shards, num_workers, DEFAULT_QUEUE_CAPACITY, scheduler)
    }

    /// Fully explicit construction: shard count, worker count, per-shard
    /// queue bound (all clamped to ≥ 1), and scheduler. A capacity of 1
    /// makes every publish rendezvous with the slowest shard (maximum
    /// backpressure, minimum buffering).
    pub fn with_config(
        num_shards: usize,
        num_workers: usize,
        queue_capacity: usize,
        scheduler: Box<dyn Scheduler>,
    ) -> AsyncHub {
        let num_shards = num_shards.max(1);
        let num_workers = num_workers.max(1);
        let queue_capacity = queue_capacity.max(1);
        let reactor = Arc::new(Reactor::new(num_shards, queue_capacity, scheduler));
        let workers = (0..num_workers)
            .map(|i| {
                let reactor = Arc::clone(&reactor);
                std::thread::Builder::new()
                    .name(format!("sap-async-{i}"))
                    .spawn(move || worker_loop(reactor, i))
                    .expect("spawn async hub worker")
            })
            .collect();
        AsyncHub {
            reactor,
            workers,
            placement: Placement::new(num_shards),
            pending_one: Vec::new(),
            parked_updates: Vec::new(),
            targets: Vec::new(),
            pool: ArcPool::new(),
            timed_pool: ArcPool::new(),
        }
    }

    // ---- registration -----------------------------------------------------

    /// Registers a standing query on the plane the [`Registration`]
    /// names and returns its handle. The query sees exactly the objects
    /// published after this call.
    ///
    /// Placement is by hash of the new id, except that a query joining
    /// an existing slide group or count group is placed on that group's
    /// shard — a group's producer is shard-local state. The
    /// deterministic `(QueryId, slide)` drain order does not depend on
    /// placement.
    ///
    /// An invalid registration (see [`Registration`]) is a typed error
    /// and burns no id. A dead target shard is [`SapError::ShardDown`];
    /// the failed registration burns its id, so a retry derives a fresh
    /// id that may hash onto a healthy shard, and it never counts as a
    /// member of the group it targeted.
    pub fn subscribe(&mut self, registration: Registration) -> Result<QueryId, SapError> {
        let member = registration.admit()?;
        // coalesced publishes precede the registration; this also
        // settles `published`, so a count group's key is phase-exact
        self.flush_pending_one()?;
        register_on(&mut self.placement, &self.reactor, member)
    }

    /// Removes a query and returns its session (with the engine's full
    /// state) once its shard has processed everything published before
    /// this call. Unknown or already-removed handles are a typed
    /// [`SapError::UnknownQuery`]; a dead shard is
    /// [`SapError::ShardDown`] (the query's state died with it, and the
    /// handle stays registered, so retrying keeps reporting the dead
    /// shard). A shared or grouped query leaves its group; the last
    /// member out retires the group.
    pub fn unregister(&mut self, id: QueryId) -> Result<HubSession, SapError> {
        self.flush_pending_one()?;
        unregister_on(&mut self.placement, &self.reactor, id)
    }

    // ---- ingestion --------------------------------------------------------

    /// The non-empty shards every publish must reach.
    fn collect_targets(&mut self) {
        self.targets.clear();
        self.targets.extend(
            self.placement
                .shard_len
                .iter()
                .enumerate()
                .filter(|(_, len)| **len > 0)
                .map(|(i, _)| i),
        );
    }

    /// Ships the coalesced `publish_one` buffer as one batch, preserving
    /// publish order. Called before any other command is enqueued (and
    /// on drop), so a singly-published object is always ordered exactly
    /// where its `publish_one` call was.
    fn flush_pending_one(&mut self) -> Result<(), SapError> {
        if self.pending_one.is_empty() {
            return Ok(());
        }
        // swap the buffer out so the borrow checker lets publish_batch
        // borrow &mut self; its capacity is preserved and restored below
        let pending = std::mem::take(&mut self.pending_one);
        let result = self.publish_batch(&pending);
        self.pending_one = pending;
        self.pending_one.clear();
        result
    }

    fn publish_batch(&mut self, objects: &[Object]) -> Result<(), SapError> {
        let batch = self.pool.batch(objects);
        self.placement.published += objects.len() as u64;
        self.collect_targets();
        self.reactor
            .broadcast(&self.targets, || Command::Publish(Arc::clone(&batch)))
    }

    /// Publishes a batch to every registered query: one lock crossing
    /// enqueues a shared `Arc` of the batch on every non-empty shard.
    /// **Parks** (blocks on the reactor, counted by
    /// [`publisher_parks`](AsyncHub::publisher_parks)) while any
    /// recipient queue is full — that backpressure is the flow-control
    /// contract: a publisher can never run unboundedly ahead of the
    /// slowest shard. Use
    /// [`poll_ready`](AsyncHub::poll_ready)/[`try_publish`](AsyncHub::try_publish)
    /// to refuse instead. With zero registered queries (or an empty
    /// batch) this is an explicit no-op.
    ///
    /// **Drain regularly.** Results accumulate shard-side until
    /// [`drain`](AsyncHub::drain): backpressure bounds the *input*
    /// queues, but completed [`QueryUpdate`]s are retained (they are the
    /// queries' answers) until collected. Draining once per publish
    /// chunk keeps the retained set proportional to one chunk.
    pub fn publish(&mut self, objects: &[Object]) -> Result<(), SapError> {
        if objects.is_empty() || self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        self.publish_batch(objects)
    }

    /// Publishes a batch of **timestamped** objects (non-decreasing
    /// timestamps) — the heterogeneous ingestion path, with the
    /// semantics of
    /// [`Hub::publish_timed`](crate::session::Hub::publish_timed) and
    /// [`publish`](AsyncHub::publish)'s parking/drain contract.
    pub fn publish_timed(&mut self, objects: &[TimedObject]) -> Result<(), SapError> {
        if objects.is_empty() || self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        let batch = self.timed_pool.batch(objects);
        // the untimed view feeds count groups too, so timed batches
        // advance the offset counter exactly like plain ones
        self.placement.published += objects.len() as u64;
        self.collect_targets();
        self.reactor
            .broadcast(&self.targets, || Command::PublishTimed(Arc::clone(&batch)))
    }

    /// Raises the event-time watermark on every time-based query (see
    /// [`Hub::advance_time`](crate::session::Hub::advance_time)). The
    /// closed slides come back through [`drain`](AsyncHub::drain).
    pub fn advance_time(&mut self, watermark: u64) -> Result<(), SapError> {
        if self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        self.collect_targets();
        self.reactor
            .broadcast(&self.targets, || Command::AdvanceTime(watermark))
    }

    /// Publishes one object, **coalescing** it into a pending batch
    /// instead of wrapping every object in its own `Arc`: the buffer is
    /// shipped as one batch after [`PUBLISH_ONE_COALESCE`] objects, or
    /// earlier when any other operation (a batch publish, a
    /// registration, [`flush`](AsyncHub::flush),
    /// [`drain`](AsyncHub::drain), [`inspect`](AsyncHub::inspect), …)
    /// needs the queues — so every observable ordering guarantee is
    /// exactly [`publish`](AsyncHub::publish)'s. With zero registered
    /// queries the object is dropped. A dead shard may therefore be
    /// reported by the operation that triggers the flush rather than the
    /// `publish_one` call that buffered the object.
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

    /// Whether a [`publish`](AsyncHub::publish) right now would proceed
    /// without parking: every non-empty shard's queue has room for this
    /// publish (including shipping any coalesced `publish_one` tail
    /// first). A dead shard is the typed [`SapError::ShardDown`].
    ///
    /// The answer can only move toward *more* room until the hub thread
    /// publishes or enqueues again (workers only ever free queue space),
    /// so `poll_ready() == true` followed immediately by `publish` is
    /// guaranteed not to park — that is exactly
    /// [`try_publish`](AsyncHub::try_publish).
    pub fn poll_ready(&mut self) -> Result<bool, SapError> {
        if self.placement.registered.is_empty() {
            return Ok(true);
        }
        let need = 1 + usize::from(!self.pending_one.is_empty());
        self.collect_targets();
        self.reactor.ready_for(&self.targets, need)
    }

    /// Non-parking publish: ships the batch if every recipient queue has
    /// room (returning `Ok(true)`), otherwise leaves the stream
    /// untouched and returns `Ok(false)` — the caller keeps the batch
    /// and retries after draining or doing other work.
    pub fn try_publish(&mut self, objects: &[Object]) -> Result<bool, SapError> {
        if objects.is_empty() || self.placement.registered.is_empty() {
            return Ok(true);
        }
        // with a capacity-1 queue there is never room for tail + batch
        // in one window; ship the tail (blocking, ordered) first
        if !self.pending_one.is_empty() && self.reactor.capacity < 2 {
            self.flush_pending_one()?;
        }
        if !self.poll_ready()? {
            return Ok(false);
        }
        self.publish(objects).map(|()| true)
    }

    /// How many times a blocking publish parked on a full queue so far,
    /// over the hub's whole lifetime — the backpressure visibility
    /// metric (`BENCH_async.json` reports it; a serving deployment wants
    /// it near zero). Derived from the per-shard counters (plus parks
    /// retired by [`resize`](AsyncHub::resize)); use
    /// [`shard_loads`](AsyncHub::shard_loads) for the attribution.
    pub fn publisher_parks(&self) -> u64 {
        let state = self.reactor.state();
        state.retired_parks + state.slots.iter().map(|s| s.parks).sum::<u64>()
    }

    /// Per-shard backpressure counters for the **current placement**:
    /// `(parks, queue_depth_hwm)` for each logical shard, indexed by
    /// shard. Parks are charged to the shard whose full queue blocked
    /// the publisher; the high-water mark is the deepest its queue has
    /// been, in commands — together they tell a balancer *which* shard
    /// is slow ([`HubStats`] carries the hub-wide sum/max of the same
    /// counters). Reset by [`resize`](AsyncHub::resize), which replaces
    /// the slots.
    pub fn shard_loads(&self) -> Vec<(u64, u64)> {
        let state = self.reactor.state();
        state
            .slots
            .iter()
            .map(|slot| (slot.parks, slot.depth_hwm))
            .collect()
    }

    // ---- collection -------------------------------------------------------

    /// Barrier without collection: returns once every shard has
    /// processed everything published so far. Accumulated updates stay
    /// shard-side for a later [`drain`](AsyncHub::drain).
    pub fn flush(&mut self) -> Result<(), SapError> {
        self.flush_pending_one()?;
        flush_on(&self.placement, &self.reactor)
    }

    /// The join-all barrier: waits until every shard has processed
    /// everything published so far, then returns all slides completed
    /// since the last drain in the global `(QueryId, slide)` order —
    /// byte-identical to the sequential hub's, independent of shard
    /// count, worker count, and scheduler. Time-based queries keep that
    /// contract: their slide indices are assigned by event-time closure
    /// order, a pure function of the published sequence.
    pub fn drain(&mut self) -> Result<Vec<QueryUpdate>, SapError> {
        self.flush_pending_one()?;
        drain_on(&self.placement, &self.reactor, &mut self.parked_updates)
    }

    /// A point-in-time view of one query (slide count + last snapshot),
    /// reflecting everything published before this call. Unknown handles
    /// are a typed [`SapError::UnknownQuery`].
    pub fn inspect(&mut self, id: QueryId) -> Result<QueryState, SapError> {
        // "reflects everything published before this call" includes the
        // coalesced publish_one buffer
        self.flush_pending_one()?;
        inspect_on(&self.placement, &self.reactor, id)
    }

    /// Hub-wide query counts and sharing metrics, summed across shards
    /// (debug builds audit the group shard-locality invariant the sums
    /// rely on). The backpressure pair — `publisher_parks` (hub-lifetime
    /// sum) and `queue_depth_hwm` (max over the current placement) —
    /// lives reactor-side, so it is overlaid here rather than reported
    /// by the shard registries. A dead shard is [`SapError::ShardDown`].
    pub fn stats(&mut self) -> Result<HubStats, SapError> {
        self.flush_pending_one()?;
        let mut stats = stats_on(&self.placement, &self.reactor)?;
        let state = self.reactor.state();
        stats.publisher_parks =
            state.retired_parks + state.slots.iter().map(|s| s.parks).sum::<u64>();
        stats.queue_depth_hwm = state.slots.iter().map(|s| s.depth_hwm).max().unwrap_or(0);
        Ok(stats)
    }

    /// Iterates the registered query handles in ascending (=
    /// registration) order.
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

    /// Number of logical shards (≠ threads: see
    /// [`num_workers`](AsyncHub::num_workers)).
    pub fn num_shards(&self) -> usize {
        self.placement.num_shards()
    }

    /// Number of worker threads serving the shards.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    // ---- durability plane -------------------------------------------------

    /// Captures the hub's full serving state as a framed, versioned,
    /// checksummed [`Checkpoint`] — interchangeable with
    /// [`Hub::checkpoint`](crate::session::Hub::checkpoint): either hub
    /// can restore the other's checkpoints, at any shard count.
    ///
    /// Checkpointing is a **drain-style barrier**: every shard first
    /// retires its backlog, so the captured state sits on each query's
    /// current slide boundary. The updates that barrier collected are
    /// returned alongside the checkpoint — they are slides the captured
    /// state has already emitted (a restored hub will *not* re-emit
    /// them), so hand them to whatever consumed your drains.
    pub fn checkpoint(&mut self) -> Result<(Checkpoint, Vec<QueryUpdate>), SapError> {
        let updates = self.drain()?;
        let checkpoint = checkpoint_sections_on(&self.placement, &self.reactor)?;
        Ok((checkpoint, updates))
    }

    /// Rebuilds a hub (`num_shards` logical shards, `num_workers`
    /// threads, [`FifoScheduler`]) from a [`Checkpoint`] taken by either
    /// hub at any shard count, constructing each session's engine
    /// through `factory` and replaying the retained state into it.
    /// Sessions are re-scattered by the id hash under the new shard
    /// count; each group lands wholesale on one shard (its lowest-id
    /// member's), honoring group affinity.
    ///
    /// Malformed input is a typed [`SapError::Checkpoint`]; an engine
    /// name the factory cannot build surfaces as
    /// [`CheckpointError::UnknownEngine`](crate::CheckpointError::UnknownEngine).
    /// Never panics on foreign bytes.
    pub fn restore(
        checkpoint: &Checkpoint,
        factory: &dyn EngineFactory,
        num_shards: usize,
        num_workers: usize,
    ) -> Result<AsyncHub, SapError> {
        let (next_id, merged) = decode_hub_checkpoint(checkpoint, factory)?;
        let mut hub = AsyncHub::new(num_shards, num_workers);
        hub.placement.next_id = next_id;
        place_parts_on(&mut hub.placement, &hub.reactor, merged)?;
        Ok(hub)
    }

    // ---- elastic operation ------------------------------------------------

    /// Moves one query's live session to `shard`, between two publishes
    /// — i.e. on a slide boundary of the command stream: the session
    /// leaves its old shard only after every previously published batch
    /// is applied there, and lands on the new shard before any later
    /// batch, so it observes the exact same object sequence as an
    /// unmoved query. Slides completed on either side meet in the next
    /// [`drain`](AsyncHub::drain), whose global sort is placement-blind.
    ///
    /// A query moves with its **entire group** — the group's producer is
    /// shard-local state shared with its co-members, so the group travels
    /// as one unit, result classes included. Moving a query to the shard
    /// it already lives on is a no-op. A shard dying mid-move surfaces as
    /// [`SapError::ShardDown`]; the sessions in flight are lost with it.
    ///
    /// # Panics
    ///
    /// If `shard >= self.num_shards()` — a placement that cannot exist,
    /// i.e. a caller bug, not a data-dependent condition.
    pub fn move_query(&mut self, id: QueryId, shard: usize) -> Result<(), SapError> {
        self.flush_pending_one()?;
        move_query_on(&mut self.placement, &self.reactor, id, shard)
    }

    /// Re-partitions every live session across `num_shards` fresh
    /// logical shards (clamped to ≥ 1) — the worker threads are reused,
    /// only the slots are replaced. Each shard hands back its entire
    /// serving state, whose groups are re-scattered by the id hash under
    /// the new count, wholesale with their result classes. Results are
    /// unaffected: sessions observe
    /// the same object sequence, and updates completed before the resize
    /// (parked here, returned by the next [`drain`](AsyncHub::drain))
    /// sort into the same global order.
    ///
    /// The eject is transactional: if a shard turns out dead, every
    /// staged session is reinstalled where it was and the typed
    /// [`SapError::ShardDown`] is returned with the old placement
    /// intact. Placements from earlier `move_query` calls are not kept —
    /// each group lands where its lowest member id hashes.
    pub fn resize(&mut self, num_shards: usize) -> Result<(), SapError> {
        let num_shards = num_shards.max(1);
        self.flush_pending_one()?;
        let merged = eject_all_on(&self.placement, &self.reactor, &mut self.parked_updates)?;
        // quiesce: eject replies guarantee empty queues, but a worker
        // may still hold a core between unlock and put-back — wait until
        // every live slot is whole before swapping the slot vector
        {
            let mut state = self.reactor.state();
            while !state.slots.iter().all(Slot::idle) {
                state = self.reactor.wait_room(state);
            }
            // retire the old slots' park counts so publisher_parks()
            // stays monotone across placements (depth HWMs are
            // per-placement by design and start fresh)
            state.retired_parks += state.slots.iter().map(|s| s.parks).sum::<u64>();
            state.slots = (0..num_shards)
                .map(|i| Slot::new(i, self.reactor.capacity))
                .collect();
        }
        self.placement.reset(num_shards);
        place_parts_on(&mut self.placement, &self.reactor, merged)
    }
}

impl Drop for AsyncHub {
    /// Ships any coalesced `publish_one` tail (best effort), then wakes
    /// and joins the workers. Outstanding commands are processed before
    /// a worker exits; accumulated updates that were never drained are
    /// discarded.
    fn drop(&mut self) {
        let _ = self.flush_pending_one();
        self.reactor.state().shutdown = true;
        self.reactor.work_cv.notify_all();
        self.reactor.room_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OpStats;
    use crate::object::top_k_of;
    use crate::predicate::Predicate;
    use crate::session::{Clock, Hub};
    use crate::shard::GroupKey;
    use crate::test_support::{count, grouped, shared, timed, Toy};
    use crate::window::{SlidingTopK, WindowSpec};

    fn stream(len: usize) -> Vec<Object> {
        (0..len)
            .map(|i| Object::new(i as u64, ((i * 37) % 101) as f64))
            .collect()
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

    /// An engine that kills its shard on the first slide.
    struct Bomb(WindowSpec);
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

    fn bomb() -> Bomb {
        Bomb(WindowSpec::new(1, 1, 1).unwrap())
    }

    #[test]
    fn matches_sequential_hub_update_for_update() {
        for (shards, workers) in [(1, 1), (3, 2), (16, 4)] {
            let mut seq = Hub::new();
            let mut hub = AsyncHub::new(shards, workers);
            for i in 0..13usize {
                let (n, k, s) = (4 * (1 + i % 3), 1 + i % 4, 2 * (1 + i % 3));
                seq.subscribe(count(n, k, s)).unwrap();
                hub.subscribe(count(n, k, s)).unwrap();
            }
            let data = stream(97);
            let mut expected = Vec::new();
            for chunk in data.chunks(17) {
                expected.extend(seq.publish(chunk));
                hub.publish(chunk).unwrap();
            }
            expected.sort_unstable_by_key(|u| (u.query, u.result.slide));
            let got = hub.drain().unwrap();
            assert_eq!(got, expected, "shards={shards} workers={workers}");
        }
    }

    #[test]
    fn more_shards_than_workers_with_capacity_one_still_drains() {
        // capacity 1 forces the publisher through the park/wake path
        let mut hub = AsyncHub::with_config(8, 2, 1, Box::new(FifoScheduler));
        for _ in 0..8 {
            hub.subscribe(count(4, 2, 2)).unwrap();
        }
        for chunk in stream(64).chunks(2) {
            hub.publish(chunk).unwrap();
        }
        let updates = hub.drain().unwrap();
        assert_eq!(updates.len(), 8 * 32);
        assert!(hub.drain().unwrap().is_empty(), "drain clears");
    }

    #[test]
    fn poll_ready_and_try_publish_refuse_instead_of_parking() {
        let mut hub = AsyncHub::with_config(1, 1, 2, Box::new(FifoScheduler));
        // a slow engine wedges the single shard so its queue fills
        hub.subscribe(count(4, 1, 2)).unwrap();
        hub.flush().unwrap();
        // stuff the queue to the brim without a worker keeping up:
        // flush() above parked the worker on an empty queue; now race two
        // batches in — at least the second may find the queue full. Retry
        // until we observe a refusal OR everything was absorbed (the
        // worker can be fast); either way nothing may park forever.
        let mut refused = false;
        for chunk in stream(40).chunks(2) {
            if !hub.try_publish(chunk).unwrap() {
                refused = true;
                // poll_ready eventually reopens once the worker drains
                while !hub.poll_ready().unwrap() {
                    std::thread::yield_now();
                }
                assert!(hub.try_publish(chunk).unwrap(), "room was verified");
            }
        }
        let _ = refused; // timing-dependent; the invariant is no deadlock
        assert_eq!(hub.drain().unwrap().len(), 20);
    }

    #[test]
    fn seeded_schedules_are_invisible_in_output() {
        let mut reference = None;
        for seed in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let mut hub = AsyncHub::with_scheduler(8, 3, Box::new(SeededScheduler::new(seed)));
            for i in 0..10usize {
                let (n, k, s) = (4 * (1 + i % 3), 1 + i % 4, 2 * (1 + i % 3));
                hub.subscribe(count(n, k, s)).unwrap();
            }
            for chunk in stream(60).chunks(7) {
                hub.publish(chunk).unwrap();
            }
            let got = hub.drain().unwrap();
            match &reference {
                None => reference = Some(got),
                Some(expected) => assert_eq!(&got, expected, "seed={seed}"),
            }
        }
    }

    #[test]
    fn shared_and_grouped_planes_work_and_stats_sum_exactly() {
        let mut hub = AsyncHub::new(8, 2);
        for _ in 0..5 {
            hub.subscribe(grouped(Toy::new(2, 1, 1), 4, 2)).unwrap();
        }
        for _ in 0..4 {
            hub.subscribe(shared(Toy::new(4, 2, 2), 20, 10)).unwrap();
        }
        hub.publish(&stream(8)).unwrap();
        hub.flush().unwrap();
        let stats = hub.stats().unwrap();
        assert_eq!(stats.queries, 9);
        assert_eq!(stats.grouped_queries, 5);
        assert_eq!(stats.shared_queries, 4);
        assert_eq!(stats.count_groups, 1, "one geometry class, one shard");
        assert_eq!(stats.digest_groups, 1, "one slide group, one shard");
        assert!(stats.count_group_hits > 0);
    }

    #[test]
    fn timed_queries_and_watermarks_match_sequential() {
        let mut seq = Hub::new();
        let mut hub = AsyncHub::new(4, 2);
        for k in 1..=3 {
            seq.subscribe(timed(20, 10, k)).unwrap();
            hub.subscribe(timed(20, 10, k)).unwrap();
        }
        let data: Vec<TimedObject> = (0..50)
            .map(|i| TimedObject::new(i, i * 3, ((i * 37) % 101) as f64))
            .collect();
        let mut expected = Vec::new();
        for chunk in data.chunks(9) {
            expected.extend(seq.publish_timed(chunk));
            hub.publish_timed(chunk).unwrap();
        }
        expected.extend(seq.advance_time(1_000));
        hub.advance_time(1_000).unwrap();
        expected.sort_unstable_by_key(|u| (u.query, u.result.slide));
        assert_eq!(hub.drain().unwrap(), expected);
    }

    #[test]
    fn unregister_inspect_move_and_resize_round_trip() {
        let mut hub = AsyncHub::new(6, 2);
        let a = hub.subscribe(count(4, 1, 2)).unwrap();
        let b = hub.subscribe(count(4, 1, 2)).unwrap();
        hub.publish(&stream(8)).unwrap();
        assert_eq!(hub.inspect(a).unwrap().slides, 4);
        hub.move_query(a, 5).unwrap();
        hub.publish(&stream(4)).unwrap();
        hub.resize(3).unwrap();
        hub.publish(&stream(2)).unwrap();
        // 8+4+2 objects, slide 2 ⇒ 7 slides each, placement-blind
        let updates = hub.drain().unwrap();
        assert_eq!(updates.iter().filter(|u| u.query == a).count(), 7);
        assert_eq!(updates.iter().filter(|u| u.query == b).count(), 7);
        let session = hub.unregister(a).unwrap();
        assert_eq!(session.slides(), 7);
        assert_eq!(
            hub.unregister(a).unwrap_err(),
            SapError::UnknownQuery { query: a }
        );
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.query_ids().collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn empty_hub_and_empty_batch_are_noops() {
        let mut hub = AsyncHub::new(0, 0); // clamps to 1/1
        assert_eq!(hub.num_shards(), 1);
        assert_eq!(hub.num_workers(), 1);
        hub.publish(&stream(10)).unwrap();
        let q = hub.subscribe(count(2, 1, 2)).unwrap();
        hub.publish(&[]).unwrap();
        assert!(hub.drain().unwrap().is_empty());
        assert_eq!(hub.inspect(q).unwrap().slides, 0);
        assert_eq!(hub.publisher_parks(), 0);
    }

    #[test]
    fn zero_queue_capacity_clamps_to_one() {
        let mut hub = AsyncHub::with_config(0, 0, 0, Box::new(FifoScheduler));
        assert_eq!(hub.num_shards(), 1);
        assert!(hub.is_empty());
        hub.subscribe(count(2, 1, 1)).unwrap();
        hub.publish(&stream(3)).unwrap();
        assert_eq!(hub.drain().unwrap().len(), 3);
    }

    #[test]
    fn flush_preserves_updates_for_drain() {
        let mut hub = AsyncHub::new(2, 2);
        hub.subscribe(count(2, 1, 2)).unwrap();
        hub.publish(&stream(10)).unwrap();
        hub.flush().unwrap();
        assert_eq!(
            hub.drain().unwrap().len(),
            5,
            "flush must not consume updates"
        );
    }

    #[test]
    fn mid_stream_registration_is_ordered_with_publishes() {
        let mut hub = AsyncHub::new(2, 2);
        let early = hub.subscribe(count(4, 1, 2)).unwrap();
        hub.publish(&stream(10)).unwrap();
        let late = hub.subscribe(count(4, 1, 2)).unwrap();
        hub.publish(&stream(4)).unwrap();
        let updates = hub.drain().unwrap();
        let early_slides = updates.iter().filter(|u| u.query == early).count();
        let late_slides = updates.iter().filter(|u| u.query == late).count();
        assert_eq!(early_slides, 7, "early query saw all 14 objects");
        assert_eq!(late_slides, 2, "late query saw only the last 4");
    }

    #[test]
    fn inspect_reflects_all_prior_publishes() {
        let mut hub = AsyncHub::new(3, 3);
        let q = hub.subscribe(count(4, 2, 2)).unwrap();
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
    fn shared_queries_follow_their_group_even_when_the_hash_disagrees() {
        let mut hub = AsyncHub::new(8, 8);
        let group = GroupKey::Slide(10, Predicate::default());
        let founder = hub.subscribe(shared(Toy::new(4, 2, 2), 20, 10)).unwrap();
        let home = hub.placement.groups[&group].0;
        assert_eq!(
            home,
            hub.placement.shard_of(founder),
            "the founder places the group"
        );
        let mut members = vec![founder];
        let mut disagreements = 0usize;
        for _ in 0..12 {
            let q = hub.subscribe(shared(Toy::new(4, 2, 2), 20, 10)).unwrap();
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
        assert_eq!(hub.placement.groups[&group].1, 13);
        // placement is invisible in the output: byte-identical to the
        // sequential hub's registration-order delivery
        let mut seq = Hub::new();
        for _ in 0..13 {
            seq.subscribe(shared(Toy::new(4, 2, 2), 20, 10)).unwrap();
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
            assert!(hub.unregister(q).is_ok());
        }
        assert!(
            hub.placement.groups.is_empty(),
            "the last member out retires the group's placement"
        );
    }

    #[test]
    fn dead_shard_does_not_strand_shared_group_bookkeeping() {
        let mut hub = AsyncHub::new(1, 1);
        // a Bomb on the shared plane: ⟨1, 1, 1⟩ is the reduction of
        // W⟨10, 10⟩ with k = 1, and the first closed slide kills shard 0
        let group = GroupKey::Slide(10, Predicate::default());
        let bomb = hub.subscribe(shared(bomb(), 10, 10)).unwrap();
        assert_eq!(hub.placement.groups[&group], (0, 1));
        let _ = hub.publish_timed(&[TimedObject::new(0, 5, 1.0), TimedObject::new(1, 15, 2.0)]);
        let err = hub.flush().unwrap_err();
        assert_eq!(err, SapError::ShardDown { shard: 0 });
        assert!(err.to_string().contains("shard 0"));
        // a registration into the group now targets the dead shard: a
        // typed error that must NOT join the membership bookkeeping
        assert_eq!(
            hub.subscribe(shared(Toy::new(1, 1, 1), 10, 10))
                .unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
        assert_eq!(
            hub.placement.groups[&group],
            (0, 1),
            "a failed registration never counts as a member"
        );
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.stats().unwrap_err(), SapError::ShardDown { shard: 0 });
        // unregistering the lost query keeps reporting the dead shard and
        // leaves membership intact (the query was lost, not removed)
        for _ in 0..2 {
            assert_eq!(
                hub.unregister(bomb).unwrap_err(),
                SapError::ShardDown { shard: 0 }
            );
        }
        assert_eq!(hub.placement.groups[&group], (0, 1));
    }

    #[test]
    fn timed_inspect_and_unregister_cross_the_shard_boundary() {
        let mut hub = AsyncHub::new(3, 3);
        let q = hub.subscribe(timed(20, 10, 2)).unwrap();
        hub.publish_timed(&timed_stream(40)).unwrap();
        hub.flush().unwrap();
        let state = hub.inspect(q).unwrap();
        assert!(state.slides > 0);
        let session = hub.unregister(q).unwrap();
        assert_eq!(session.slides(), state.slides);
        assert_eq!(session.clock(), Clock::Event);
    }

    #[test]
    fn registration_retries_reach_a_healthy_shard() {
        let mut hub = AsyncHub::new(2, 2);
        hub.subscribe(grouped(bomb(), 1, 1)).unwrap();
        // the first slide kills the Bomb's shard; the flush observes it
        let _ = hub.publish(&stream(1));
        assert!(hub.flush().is_err());
        // failed registrations burn their id, so retries derive fresh ids
        // and eventually hash onto the healthy shard (a query joining the
        // Bomb's group would follow it onto the dead one)
        let q = (0..8)
            .find_map(|_| hub.subscribe(count(4, 1, 2)).ok())
            .expect("a healthy shard accepted a registration");
        assert_eq!(hub.inspect(q).unwrap().slides, 0);
    }
}
