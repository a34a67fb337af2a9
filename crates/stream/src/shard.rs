//! The control plane of the [`AsyncHub`]: the [`Command`]s a hub sends
//! its shards, the one interpreter that applies them to a shard's
//! [`Registry`], and the [`Placement`] bookkeeping that routes them.
//!
//! An async hub partitions its standing queries across logical shards.
//! Each shard runs the same [`Registry`] the sequential [`Hub`] runs,
//! driven from its command queue through [`apply_command`] — which is
//! what keeps the two hubs byte-identical by construction. Control
//! commands travel the same queue as data, so a registration is totally
//! ordered with the publishes around it: a query registered after
//! `publish(a)` and before `publish(b)` sees exactly the objects of `b`
//! onward, as on the sequential hub.
//!
//! Every query is a member of a sharing-plane group, whose producer is
//! **shard-local** state, so placement is by group: a group lives on the
//! shard its founding [`QueryId`] hashes to (a Fibonacci hash) until
//! `move_query` or `resize` moves it whole, and a query joining an
//! existing group is routed there whatever its own id hashes to. A hot
//! group therefore serves from one shard. Placement is invisible in the
//! output: a drain merges every shard's updates into the global
//! `(QueryId, slide)` order, and per-query results do not depend on which
//! thread computed them.
//!
//! Each publish or watermark a shard applies returns its updates already
//! sorted, and the shard keeps them as one **run** per call. At a drain
//! the shard's worker merges its runs into one, and the hub thread only
//! merges those per-shard runs ([`merge_runs`]) into an output sized up
//! front: no sort runs on the hub thread, and a shard that took one
//! publish since the last drain hands its run over without a copy.
//!
//! Everything between the hub's public API and the executor's queues —
//! routing, group affinity, id allocation, drain ordering, checkpoint
//! framing, migration — is a free function here over a [`Placement`]
//! and the executor's [`Reactor`].
//!
//! [`AsyncHub`]: crate::exec::AsyncHub
//! [`Hub`]: crate::session::Hub

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::mpsc;
use std::sync::Arc;

use crate::checkpoint::{tags, Checkpoint, CheckpointError, Decoder, Encoder, EngineFactory};
use crate::events::Snapshot;
use crate::exec::Reactor;
use crate::object::{Object, TimedObject};
use crate::predicate::Predicate;
use crate::query::SapError;
use crate::registry::{
    split_by_group, Counters, GroupKeys, HubGroup, HubMember, HubRegistry, HubStats, Registry,
    RegistryParts,
};
use crate::session::{Clock, HubSession, QueryId, QueryUpdate};
use crate::window::SlidingTopK;

/// One shard's ejected serving state — what travels back on
/// [`AsyncHub::resize`](crate::exec::AsyncHub::resize)'s rescatter path.
pub(crate) type ShardParts = RegistryParts<Box<dyn SlidingTopK + Send>>;

/// The reply channel a shard answers an `EjectAll` on: its full serving
/// state plus its undrained updates, merged into one run.
type PartsReply = mpsc::Receiver<(ShardParts, Vec<QueryUpdate>)>;

/// A point-in-time view of one query, fetched across the shard boundary
/// by [`AsyncHub::inspect`](crate::exec::AsyncHub::inspect).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryState {
    /// Number of slides the query has completed.
    pub slides: u64,
    /// The query's most recent top-k emission (descending), empty before
    /// the first completed slide. Refcounted: crossing the shard boundary
    /// shares the retained `Arc` (its result class's, for a classed
    /// query) instead of copying the top-k.
    pub last_snapshot: Snapshot,
}

/// What the hub sends down a shard's queue.
pub(crate) enum Command {
    Publish(Arc<[Object]>),
    PublishTimed(Arc<[TimedObject]>),
    AdvanceTime(u64),
    /// A validated registration and the hub-computed home shard — the
    /// receiving shard debug-asserts it owns it, so a group can never
    /// silently span shards.
    Register(QueryId, HubMember, usize),
    Unregister(QueryId, mpsc::Sender<HubSession>),
    Inspect(QueryId, mpsc::Sender<QueryState>),
    /// Stats partial plus the group identities backing it, so the hub
    /// can debug-assert the shard-locality invariant the summed
    /// `digest_groups`/`count_groups` totals depend on.
    Stats(mpsc::Sender<(HubStats, GroupKeys)>),
    Flush(mpsc::Sender<()>),
    Drain(mpsc::Sender<Vec<QueryUpdate>>),
    /// Serialize this shard's registry as one framed `tags::REGISTRY`
    /// section (the hub splices the per-shard sections into one
    /// [`Checkpoint`]). Sent right after a drain barrier, so the state
    /// sits on a per-query slide boundary.
    CheckpointShard(mpsc::Sender<Vec<u8>>),
    /// Adopt a group and its member sessions as one unit (a restore or a
    /// live migration) — a group never travels without its members.
    /// Boxed, so the rare install command does not size every queue slot.
    InstallGroup(Box<HubGroup>, Vec<(QueryId, HubSession)>),
    /// Add restored sharing counters.
    InstallCounters(Counters),
    /// Hand over the group containing this member, with every member
    /// session, for whole-group migration to another shard.
    EjectGroupOf(
        QueryId,
        mpsc::Sender<(HubGroup, Vec<(QueryId, HubSession)>)>,
    ),
    /// Hand *everything* back — sessions, groups, counters, and the
    /// undrained updates — emptying the shard (the resize path).
    EjectAll(mpsc::Sender<(ShardParts, Vec<QueryUpdate>)>),
}

impl Command {
    /// Whether this command feeds the data plane (publish/watermark) —
    /// the commands whose application can close slides and fan a result
    /// class out. The executor keeps runs of these in one wakeup lease
    /// (see `exec::worker_loop`'s group-aware burst).
    pub(crate) fn is_ingest(&self) -> bool {
        matches!(
            self,
            Command::Publish(_) | Command::PublishTimed(_) | Command::AdvanceTime(_)
        )
    }
}

/// Applies one command to one shard's registry. An ingest command's
/// completed slides, sorted by `(QueryId, slide)`, join `runs` as one run;
/// a drain or an eject merges the runs into the one it hands back.
pub(crate) fn apply_command(
    registry: &mut HubRegistry,
    runs: &mut Vec<Vec<QueryUpdate>>,
    cmd: Command,
) {
    let mut run = |updates: Vec<QueryUpdate>| {
        if !updates.is_empty() {
            runs.push(updates);
        }
    };
    match cmd {
        Command::Publish(batch) => run(registry.publish(&batch)),
        Command::PublishTimed(batch) => run(registry.publish_timed(&batch)),
        Command::AdvanceTime(watermark) => run(registry.advance_time(watermark)),
        Command::Register(id, member, home) => registry.register(id, member, Some(home)),
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
            let _ = reply.send(merge_runs(std::mem::take(runs)));
        }
        Command::CheckpointShard(reply) => {
            let mut enc = Encoder::new();
            enc.section(tags::REGISTRY, |e| registry.encode_checkpoint(e));
            let _ = reply.send(enc.into_payload());
        }
        Command::InstallGroup(group, members) => registry.install_group(*group, members),
        Command::InstallCounters(counters) => registry.install_counters(counters),
        Command::EjectGroupOf(id, reply) => {
            // group residence is tracked hub-side; a miss here is a
            // routing bug, surfaced as a RecvError on the hub's reply
            if let Some(ejected) = registry.eject_group_of(id) {
                let _ = reply.send(ejected);
            }
        }
        Command::EjectAll(reply) => {
            let _ = reply.send((registry.eject_all(), merge_runs(std::mem::take(runs))));
        }
    }
}

/// Waits for a shard's reply, translating a dropped channel (the shard
/// died mid-operation) into [`SapError::ShardDown`].
pub(crate) fn recv_reply<T>(shard: usize, rx: &mpsc::Receiver<T>) -> Result<T, SapError> {
    rx.recv().map_err(|_| SapError::ShardDown { shard })
}

/// The hub-side identity of a sharing-plane group: a slide group by
/// `(slide_duration, predicate)`, a count group by `(slide length,
/// founding offset mod s, predicate)`.
///
/// A count key mirrors the shards' join rule arithmetically: a group
/// founded when the hub had published `o` objects has an empty open
/// slide exactly when `published ≡ o (mod s)`, so routing a registration
/// to the group keyed `(s, published mod s, predicate)` lands it
/// precisely where the shard's own join scan will accept it. (A shard
/// tracks its open-slide fill by *arrival ordinal*, which every published
/// object advances whether or not the predicate admits it, so this
/// arithmetic is predicate-blind.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum GroupKey {
    Slide(u64, Predicate),
    Count(u64, u64, Predicate),
}

impl GroupKey {
    /// The key of a traveling group when the hub has published
    /// `published` objects. An arrival-clock group's open slide has
    /// observed `fill` arrivals (by ordinal — admission pruning withholds
    /// objects from `pending` but never from the ordinal clock), so it
    /// last sat empty `fill` objects ago: offset class `(published −
    /// fill) mod s`. Merge rejected same-`(s, fill, predicate)`
    /// collisions, so keys are unique.
    fn of(group: &HubGroup, published: u64) -> GroupKey {
        let (clock, slide, fill, predicate) = group.identity();
        match clock {
            Clock::Event => GroupKey::Slide(slide, predicate),
            Clock::Arrival => GroupKey::Count(
                slide,
                (published % slide + slide - fill % slide) % slide,
                predicate,
            ),
        }
    }
}

/// Hub-side placement bookkeeping: which shard owns each group, the
/// group of each query, the id allocator, and the published-offset
/// counter count-group keys are phased against. This map *is* the
/// dispatch table: every control command is routed by
/// [`home_shard`](Placement::home_shard), and the publish paths skip
/// shards whose `shard_len` is zero.
pub(crate) struct Placement {
    /// Number of live queries on each shard, maintained hub-side so
    /// empty shards can be skipped on publish.
    pub(crate) shard_len: Vec<usize>,
    pub(crate) registered: BTreeSet<QueryId>,
    /// Sharing-plane group → (owning shard, member count). The first
    /// member places a group by hash of its id; later members follow
    /// the group even when their own hash disagrees.
    pub(crate) groups: HashMap<GroupKey, (usize, usize)>,
    /// Group of each registered query, for routing and unregister
    /// bookkeeping.
    pub(crate) group_of: HashMap<QueryId, GroupKey>,
    /// Objects accepted hub-wide (all publish paths) — the registration
    /// offset counter count-group keys are phased against. Never reset:
    /// keys only ever use it mod `s`, and [`place_parts_on`] re-derives
    /// each restored group's founding class from its producer's pending
    /// fill, so the counter's absolute value is irrelevant across
    /// epochs.
    pub(crate) published: u64,
    pub(crate) next_id: u64,
}

impl Placement {
    pub(crate) fn new(num_shards: usize) -> Placement {
        Placement {
            shard_len: vec![0; num_shards],
            registered: BTreeSet::new(),
            groups: HashMap::new(),
            group_of: HashMap::new(),
            published: 0,
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

    /// Which shard owns a registered query: its group's.
    pub(crate) fn home_shard(&self, id: QueryId) -> usize {
        self.groups[&self.group_of[&id]].0
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

    /// Records a whole group of installed `members` on `shard`.
    fn place_group(&mut self, key: GroupKey, shard: usize, members: &[(QueryId, HubSession)]) {
        for (id, _) in members {
            self.group_of.insert(*id, key);
            self.registered.insert(*id);
        }
        self.shard_len[shard] += members.len();
        self.groups.insert(key, (shard, members.len()));
    }

    /// Empties every per-query map for a repartition under `num_shards`.
    /// `published` and `next_id` survive: the offset counter's absolute
    /// value is placement-independent, and ids must never be reused.
    pub(crate) fn reset(&mut self, num_shards: usize) {
        self.shard_len = vec![0; num_shards];
        self.registered.clear();
        self.groups.clear();
        self.group_of.clear();
    }
}

/// Registers a validated member: id by allocator; shard by the group it
/// joins, or by hash for a founding query. The caller must have settled
/// `published` (flushed any coalesced tail) so a count group's key is
/// phase-exact. A dead target shard burns the id but leaves the group's
/// membership untouched, so the hub never counts a member no shard owns.
pub(crate) fn register_on(
    p: &mut Placement,
    port: &Reactor,
    member: HubMember,
) -> Result<QueryId, SapError> {
    let id = p.fresh_id();
    let slide = member.consumer.slide_duration();
    let key = match member.clock {
        Clock::Event => GroupKey::Slide(slide, member.predicate),
        Clock::Arrival => GroupKey::Count(slide, p.published % slide, member.predicate),
    };
    let shard = match p.groups.get(&key) {
        Some(&(shard, _)) => shard,
        None => p.shard_of(id),
    };
    port.send(shard, Command::Register(id, member, shard))?;
    p.groups.entry(key).or_insert((shard, 0)).1 += 1;
    p.group_of.insert(id, key);
    p.shard_len[shard] += 1;
    p.registered.insert(id);
    Ok(id)
}

/// Removes a query and returns its session. Bookkeeping is updated only
/// after the session actually came back: a dead shard must leave the
/// hub's state untouched, so retrying keeps reporting ShardDown (the
/// query was lost, not unregistered).
pub(crate) fn unregister_on(
    p: &mut Placement,
    port: &Reactor,
    id: QueryId,
) -> Result<HubSession, SapError> {
    if !p.registered.contains(&id) {
        return Err(SapError::UnknownQuery { query: id });
    }
    let shard = p.home_shard(id);
    let (reply, rx) = mpsc::channel();
    port.send(shard, Command::Unregister(id, reply))?;
    let session = recv_reply(shard, &rx)?;
    p.registered.remove(&id);
    p.shard_len[shard] -= 1;
    let key = p
        .group_of
        .remove(&id)
        .expect("a registered query has a group");
    let members = p.groups.get_mut(&key).expect("a query's group is placed");
    members.1 -= 1;
    if members.1 == 0 {
        // last member out: the shard just retired the group, so a later
        // registrant founds a fresh one, placed anew
        p.groups.remove(&key);
    }
    Ok(session)
}

/// A point-in-time view of one query, routed via its home shard.
pub(crate) fn inspect_on(
    p: &Placement,
    port: &Reactor,
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

/// Enqueues `make(reply)` on every shard, then collects the replies in
/// shard order — shards answer in parallel.
fn ask_all<T>(
    p: &Placement,
    port: &Reactor,
    make: impl Fn(mpsc::Sender<T>) -> Command,
) -> Result<Vec<(usize, mpsc::Receiver<T>)>, SapError> {
    (0..p.num_shards())
        .map(|shard| {
            let (reply, rx) = mpsc::channel();
            port.send(shard, make(reply)).map(|()| (shard, rx))
        })
        .collect()
}

/// Sums every shard's [`HubStats`] partial. In debug builds the reported
/// group identities are audited for the shard-locality invariant the
/// straight sums depend on: a group split across shards panics at this
/// merge site instead of silently double-counting
/// `digest_groups`/`count_groups`.
pub(crate) fn stats_on(p: &Placement, port: &Reactor) -> Result<HubStats, SapError> {
    let mut total = HubStats::default();
    let mut seen = GroupKeys::default();
    for (shard, rx) in ask_all(p, port, Command::Stats)? {
        let (stats, keys) = recv_reply(shard, &rx)?;
        seen.absorb_disjoint(&keys, shard);
        total.merge(&stats);
    }
    Ok(total)
}

/// Barrier without collection: returns once every shard has processed
/// everything published so far.
pub(crate) fn flush_on(p: &Placement, port: &Reactor) -> Result<(), SapError> {
    for (shard, ack) in ask_all(p, port, Command::Flush)? {
        recv_reply(shard, &ack)?;
    }
    Ok(())
}

/// The determinism barrier: every drain is enqueued first, then
/// collected — shards retire their backlogs in parallel, each merging its
/// own runs on its worker — and the per-shard runs, with any `parked`
/// runs rescued from retired shards, are merged into the global
/// `(QueryId, slide)` order: an order independent of shard count, worker
/// count, and thread scheduling.
pub(crate) fn drain_on(
    p: &Placement,
    port: &Reactor,
    parked: &mut Vec<Vec<QueryUpdate>>,
) -> Result<Vec<QueryUpdate>, SapError> {
    let replies = ask_all(p, port, Command::Drain)?;
    let mut runs = std::mem::take(parked);
    for (shard, rx) in replies {
        runs.push(recv_reply(shard, &rx)?);
    }
    Ok(merge_runs(runs))
}

/// Merges `runs`, each ascending by `(QueryId, slide)`, into one
/// ascending output sized up front: a lone run moves through untouched,
/// and several take one heap step per update over the runs' heads. Keys
/// are unique across runs — a query's slide is completed once.
pub(crate) fn merge_runs(mut runs: Vec<Vec<QueryUpdate>>) -> Vec<QueryUpdate> {
    let key = |u: &QueryUpdate| (u.query, u.result.slide);
    debug_assert!(
        runs.iter().all(|run| run.is_sorted_by_key(key)),
        "every run arrives sorted"
    );
    runs.retain(|run| !run.is_empty());
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: BinaryHeap<_> = runs
        .iter()
        .enumerate()
        .map(|(i, run)| Reverse((key(&run.as_slice()[0]), i)))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let run = &mut runs[head.0 .1];
        out.extend(run.next());
        match run.as_slice().first() {
            Some(next) => head.0 .0 = key(next),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    out
}

/// Splices every shard's framed registry section into one
/// [`Checkpoint`]. The caller must have drained first, so the captured
/// state sits on each query's current slide boundary.
pub(crate) fn checkpoint_sections_on(
    p: &Placement,
    port: &Reactor,
) -> Result<Checkpoint, SapError> {
    let replies = ask_all(p, port, Command::CheckpointShard)?;
    let mut enc = Encoder::new();
    enc.put_u64(p.next_id);
    enc.put_usize(replies.len());
    for (shard, rx) in replies {
        enc.put_encoded(&recv_reply(shard, &rx)?);
    }
    Ok(Checkpoint::from_payload(enc.into_payload()))
}

/// Decodes a hub checkpoint (either hub, any shard count) into the
/// id-allocator watermark and the merged serving state, in the shape a
/// resize moves — its groups holding their classes and reductions —
/// validating as it goes. Malformed input is a typed
/// [`SapError::Checkpoint`]; never panics on foreign bytes.
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
            &mut |name, spec| factory.count(name, spec),
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

/// Installs the sharing counters on `shard`, unless all are zero.
fn install_counters_on(port: &Reactor, shard: usize, counters: Counters) -> Result<(), SapError> {
    if counters == Counters::default() {
        return Ok(());
    }
    port.send(shard, Command::InstallCounters(counters))
}

/// Scatters merged serving state across a hub's (fresh or freshly
/// emptied) shards: each group with its members on the shard its
/// lowest-id member hashes to, then the sharing counters onto shard 0
/// (they are hub-wide sums; where they live only affects which shard
/// reports them into the stats total).
pub(crate) fn place_parts_on(
    p: &mut Placement,
    port: &Reactor,
    parts: ShardParts,
) -> Result<(), SapError> {
    let members_of = split_by_group(parts.sessions, parts.groups.len());
    for (group, members) in parts.groups.into_iter().zip(members_of) {
        let lowest = members
            .first()
            .expect("merge validated every group has members")
            .0;
        let shard = p.shard_of(lowest);
        p.place_group(GroupKey::of(&group, p.published), shard, &members);
        port.send(shard, Command::InstallGroup(Box::new(group), members))?;
    }
    install_counters_on(port, 0, parts.counters)
}

/// Moves one query's whole group to `shard` — see
/// [`AsyncHub::move_query`](crate::exec::AsyncHub::move_query). The
/// caller must have flushed any coalesced `publish_one` tail.
///
/// # Panics
///
/// If `shard >= p.num_shards()` — a placement that cannot exist, i.e. a
/// caller bug, not a data-dependent condition.
pub(crate) fn move_query_on(
    p: &mut Placement,
    port: &Reactor,
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
    // a query moves with its entire group: the group's producer is
    // shard-local state its members share
    let key = p.group_of[&id];
    let (source, _) = p.groups[&key];
    if source == shard {
        return Ok(());
    }
    let (reply, rx) = mpsc::channel();
    port.send(source, Command::EjectGroupOf(id, reply))?;
    let (group, members) = recv_reply(source, &rx)?;
    let moved = members.len();
    port.send(shard, Command::InstallGroup(Box::new(group), members))?;
    p.shard_len[source] -= moved;
    p.shard_len[shard] += moved;
    p.groups.insert(key, (shard, moved));
    Ok(())
}

/// Reinstalls one shard's ejected parts back onto the shard they came
/// from — the abort path of a transactional [`eject_all_on`]. The part
/// is un-merged, but its members already reference its own `groups`
/// list by index; placement was never touched, so no bookkeeping
/// changes here.
fn reinstall_parts_on(port: &Reactor, shard: usize, parts: ShardParts) -> Result<(), SapError> {
    let members_of = split_by_group(parts.sessions, parts.groups.len());
    for (group, members) in parts.groups.into_iter().zip(members_of) {
        port.send(shard, Command::InstallGroup(Box::new(group), members))?;
    }
    install_counters_on(port, shard, parts.counters)
}

/// Empties every shard for a repartition — **transactionally**: every
/// shard's full state is staged before anything commits. If any shard
/// turns out dead mid-stage, the already-staged parts are reinstalled on
/// the shards they came from and the typed [`SapError::ShardDown`] is
/// returned with the old placement intact — a failed resize never
/// abandons the survivors' sessions. Rescued undrained updates go into
/// `parked` on both paths, one sorted run per shard (they are completed
/// slides either way; the next drain's merge places them correctly).
pub(crate) fn eject_all_on(
    p: &Placement,
    port: &Reactor,
    parked: &mut Vec<Vec<QueryUpdate>>,
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
                parked.push(updates);
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
    // commit phase: the old shards are empty, merge and re-scatter
    let merged = RegistryParts::merge(staged.into_iter().map(|(_, part)| part).collect())
        .map_err(SapError::from)?;
    Ok(merged)
}
