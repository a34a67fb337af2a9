//! Async-hub schedule fuzzing: an `AsyncHub` must produce
//! **checksum-identical `TopKEvent` streams** to the sequential `Hub`
//! under *every* worker-interleaving the pluggable scheduler can
//! produce. Each proptest case draws a fresh `u64` and replays the
//! adversarial pick order it names through [`SeededScheduler`] at 1, 2,
//! and 8 workers — hundreds of distinct seeded schedules per property —
//! with queries registering, unregistering, moving, and resizing
//! mid-stream across all four planes (count, timed, shared, grouped).
//! Any failure reprints its seed as a one-line repro.
//!
//! The fault-injection half proves the panic containment contract: an
//! engine panic inside a worker costs exactly one shard — every fallible
//! op against it reports the typed `SapError::ShardDown` (never a hang,
//! never a poisoned queue), the worker thread survives, and the other
//! shards keep serving.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sap::prelude::*;

mod common;
use common::fold_all;

/// One-line repro string for a failing schedule: paste the seed into
/// `SeededScheduler::new` (or re-run the property filtering on it) to
/// replay the exact pick order.
fn repro(seed: u64, shards: usize, workers: usize) -> String {
    format!(
        "repro: async_equivalence scheduler_seed={seed:#018x} shards={shards} workers={workers}"
    )
}

/// Tie-heavy stream from a small score alphabet.
fn stream(scores: &[u8]) -> Vec<Object> {
    scores
        .iter()
        .enumerate()
        .map(|(i, s)| Object::try_new(i as u64, *s as f64).expect("finite"))
        .collect()
}

/// The same stream with non-decreasing timestamps derived from per-object
/// gaps, for the mixed-model property.
fn timed_stream(scores: &[u8], gaps: &[u8]) -> Vec<TimedObject> {
    let mut now = 0u64;
    scores
        .iter()
        .enumerate()
        .map(|(i, s)| {
            now += u64::from(gaps[i % gaps.len().max(1)] % 7);
            TimedObject::new(i as u64, now, f64::from(*s))
        })
        .collect()
}

/// Window geometry: s divides n, 1 ≤ k ≤ n.
fn geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=8, 1usize..=6).prop_flat_map(|(m, s)| {
        let n = m * s;
        (Just(n), 1..=n, Just(s))
    })
}

fn all_kinds() -> [AlgorithmKind; 5] {
    [
        AlgorithmKind::sap(),
        AlgorithmKind::Naive,
        AlgorithmKind::KSkyband,
        AlgorithmKind::MinTopK,
        AlgorithmKind::sma(),
    ]
}

/// Ragged chunking of `data[lo..hi]` from the drawn cut lengths.
fn chunks<'a, T>(data: &'a [T], cuts: &[usize], lo: usize, hi: usize) -> Vec<&'a [T]> {
    let mut out = Vec::new();
    let mut offset = lo;
    let mut turn = 0usize;
    while offset < hi {
        let take = if cuts.is_empty() {
            1
        } else {
            cuts[turn % cuts.len()]
        }
        .min(hi - offset);
        turn += 1;
        out.push(&data[offset..offset + take]);
        offset += take;
    }
    out
}

// ---------------------------------------------------------------------
// Property 1: count-based mixes under seeded schedules, with mid-stream
// register/unregister churn.
// ---------------------------------------------------------------------

fn count_reference(
    queries: &[Query],
    early: usize,
    data: &[Object],
    cuts: &[usize],
) -> (BTreeMap<QueryId, u64>, Option<QueryId>) {
    let mut hub = Hub::new();
    let mut sums = BTreeMap::new();
    for q in &queries[..early] {
        hub.register(q).unwrap();
    }
    let mid = data.len() / 2;
    for chunk in chunks(data, cuts, 0, mid) {
        fold_all(&mut sums, hub.publish(chunk));
    }
    let ids: Vec<QueryId> = hub.query_ids().collect();
    let dropped = (ids.len() > 1).then(|| ids[0]);
    if let Some(id) = dropped {
        hub.unregister(id).expect("registered in phase one");
    }
    for q in &queries[early..] {
        hub.register(q).unwrap();
    }
    for chunk in chunks(data, cuts, mid, data.len()) {
        fold_all(&mut sums, hub.publish(chunk));
    }
    (sums, dropped)
}

fn count_async(
    queries: &[Query],
    early: usize,
    data: &[Object],
    cuts: &[usize],
    shards: usize,
    workers: usize,
    seed: u64,
) -> (BTreeMap<QueryId, u64>, Option<QueryId>) {
    let mut hub = AsyncHub::with_scheduler(shards, workers, Box::new(SeededScheduler::new(seed)));
    let mut sums = BTreeMap::new();
    for q in &queries[..early] {
        hub.register(q).unwrap();
    }
    let mid = data.len() / 2;
    for chunk in chunks(data, cuts, 0, mid) {
        hub.publish(chunk).expect("shards alive");
        fold_all(&mut sums, hub.drain().expect("shards alive"));
    }
    let ids: Vec<QueryId> = hub.query_ids().collect();
    let dropped = (ids.len() > 1).then(|| ids[0]);
    if let Some(id) = dropped {
        hub.unregister(id).expect("registered in phase one");
    }
    for q in &queries[early..] {
        hub.register(q).unwrap();
    }
    for chunk in chunks(data, cuts, mid, data.len()) {
        hub.publish(chunk).expect("shards alive");
        fold_all(&mut sums, hub.drain().expect("shards alive"));
    }
    hub.flush().expect("shards alive");
    fold_all(&mut sums, hub.drain().expect("shards alive"));
    (sums, dropped)
}

// ---------------------------------------------------------------------
// Property 2: all four planes (count / timed / shared / grouped) on a
// timestamped stream, with move_query and resize churn on the async
// side — operations that must be *result-invisible*.
// ---------------------------------------------------------------------

/// Registers the mixed-plane query set: count and grouped from the drawn
/// count geometries, isolated-timed and shared-timed from the timed
/// geometries. Returns the handles in registration order.
fn register_mixed<H: HubExt>(
    hub: &mut H,
    count_geoms: &[(usize, usize, usize)],
    timed_geoms: &[(usize, usize, usize)],
) -> Vec<QueryId> {
    let mut ids = Vec::new();
    for (i, &(n, k, s)) in count_geoms.iter().enumerate() {
        let q = Query::window(n).top(k).slide(s);
        ids.push(if i % 2 == 0 {
            hub.register(&q).unwrap()
        } else {
            hub.register_grouped(&q).unwrap()
        });
    }
    for (i, &(n, k, s)) in timed_geoms.iter().enumerate() {
        let q = Query::window_duration(n as u64 * 5)
            .top(k)
            .slide_duration(s as u64 * 5);
        ids.push(if i % 2 == 0 {
            hub.register(&q).unwrap()
        } else {
            hub.register_shared(&q).unwrap()
        });
    }
    ids
}

fn mixed_reference(
    count_geoms: &[(usize, usize, usize)],
    timed_geoms: &[(usize, usize, usize)],
    data: &[TimedObject],
    cuts: &[usize],
    horizon: u64,
) -> BTreeMap<QueryId, u64> {
    let mut hub = Hub::new();
    let mut sums = BTreeMap::new();
    let half = count_geoms.len() / 2;
    let mut ids = register_mixed(&mut hub, &count_geoms[..half], timed_geoms);
    let mid = data.len() / 2;
    for chunk in chunks(data, cuts, 0, mid) {
        fold_all(&mut sums, hub.publish_timed(chunk));
    }
    if ids.len() > 1 {
        hub.unregister(ids.remove(0)).expect("registered early");
    }
    register_mixed(&mut hub, &count_geoms[half..], &[]);
    for chunk in chunks(data, cuts, mid, data.len()) {
        fold_all(&mut sums, hub.publish_timed(chunk));
    }
    fold_all(&mut sums, hub.advance_time(horizon));
    sums
}

#[allow(clippy::too_many_arguments)]
fn mixed_async(
    count_geoms: &[(usize, usize, usize)],
    timed_geoms: &[(usize, usize, usize)],
    data: &[TimedObject],
    cuts: &[usize],
    horizon: u64,
    shards: usize,
    workers: usize,
    seed: u64,
) -> BTreeMap<QueryId, u64> {
    let mut hub = AsyncHub::with_scheduler(shards, workers, Box::new(SeededScheduler::new(seed)));
    let mut sums = BTreeMap::new();
    let half = count_geoms.len() / 2;
    let mut ids = register_mixed(&mut hub, &count_geoms[..half], timed_geoms);
    let mid = data.len() / 2;
    for chunk in chunks(data, cuts, 0, mid) {
        hub.publish_timed(chunk).expect("shards alive");
        fold_all(&mut sums, hub.drain().expect("shards alive"));
    }
    // elastic churn, all result-invisible: relocate the newest session
    // (a shared/grouped id relocates its whole group), then re-partition
    // everything onto a schedule-derived shard count
    if let Some(&last) = ids.last() {
        hub.move_query(last, seed as usize % hub.num_shards())
            .expect("shards alive");
    }
    hub.resize(1 + (seed >> 32) as usize % 8)
        .expect("shards alive");
    if ids.len() > 1 {
        hub.unregister(ids.remove(0)).expect("registered early");
    }
    register_mixed(&mut hub, &count_geoms[half..], &[]);
    for chunk in chunks(data, cuts, mid, data.len()) {
        hub.publish_timed(chunk).expect("shards alive");
        fold_all(&mut sums, hub.drain().expect("shards alive"));
    }
    hub.advance_time(horizon).expect("shards alive");
    fold_all(&mut sums, hub.drain().expect("shards alive"));
    sums
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Count-based churn: every seeded schedule at 1, 2, and 8 workers
    /// drains byte-identical to the sequential hub — SAP and all four
    /// baselines, mid-stream register and unregister included.
    #[test]
    fn seeded_schedules_match_sequential_count_streams(
        scores in vec(0u8..24, 40..140),
        geoms in vec(geometry(), 2..6),
        cuts in vec(1usize..=29, 0..6),
        early_frac in 1usize..=100,
        shards in 1usize..=12,
        seed in 0u64..u64::MAX,
    ) {
        let data = stream(&scores);
        let kinds = all_kinds();
        let queries: Vec<Query> = geoms
            .iter()
            .enumerate()
            .map(|(i, &(n, k, s))| {
                Query::window(n).top(k).slide(s).algorithm(kinds[i % kinds.len()])
            })
            .collect();
        let early = (early_frac * queries.len()).div_ceil(100).min(queries.len());
        let (expected, seq_dropped) = count_reference(&queries, early, &data, &cuts);
        for workers in [1usize, 2, 8] {
            let (got, dropped) =
                count_async(&queries, early, &data, &cuts, shards, workers, seed);
            prop_assert_eq!(dropped, seq_dropped, "{}", repro(seed, shards, workers));
            prop_assert_eq!(&got, &expected, "{}", repro(seed, shards, workers));
        }
    }

    /// Mixed-plane churn: count, grouped, isolated-timed, and
    /// shared-timed queries on one timestamped stream, with mid-stream
    /// unregister plus async-side move_query and resize — all invisible
    /// in the drained event streams under every seeded schedule.
    #[test]
    fn seeded_schedules_match_sequential_mixed_planes(
        scores in vec(0u8..24, 40..120),
        gaps in vec(0u8..=255, 1..8),
        count_geoms in vec(geometry(), 2..5),
        timed_geoms in vec(geometry(), 1..4),
        cuts in vec(1usize..=23, 0..5),
        shards in 1usize..=12,
        seed in 0u64..u64::MAX,
    ) {
        let data = timed_stream(&scores, &gaps);
        let horizon = data.last().map_or(0, |o| o.timestamp) + 1_000;
        let expected = mixed_reference(&count_geoms, &timed_geoms, &data, &cuts, horizon);
        for workers in [1usize, 2, 8] {
            let got = mixed_async(
                &count_geoms, &timed_geoms, &data, &cuts, horizon, shards, workers, seed,
            );
            prop_assert_eq!(&got, &expected, "{}", repro(seed, shards, workers));
        }
    }
}

/// Pinned non-property case: a real generated stream, large enough that
/// every algorithm leaves warm-up and expires objects, across several
/// (shards, workers) shapes including shards ≫ workers.
#[test]
fn async_hub_matches_sequential_on_stock_stream() {
    let data = Dataset::Stock.generate(4_000, 42);
    let kinds = all_kinds();
    let queries: Vec<Query> = (0..12)
        .map(|i| {
            let s = [10usize, 20, 50][i % 3];
            let n = s * [4usize, 8, 10][i % 3];
            Query::window(n)
                .top(1 + 3 * (i % 4))
                .slide(s)
                .algorithm(kinds[i % kinds.len()])
        })
        .collect();
    let cuts = [317usize, 89, 411];
    let (expected, _) = count_reference(&queries, 7, &data, &cuts);
    assert!(!expected.is_empty());
    for (shards, workers) in [(1usize, 1usize), (8, 2), (32, 3), (4, 8)] {
        let (got, _) = count_async(&queries, 7, &data, &cuts, shards, workers, 0xFEED_F00D);
        assert_eq!(
            got, expected,
            "diverged at {shards} shards / {workers} workers"
        );
    }
}

// ---------------------------------------------------------------------
// Fault injection: engine panics inside reactor workers.
// ---------------------------------------------------------------------

/// An engine that panics on its first slide — the async-worker poison
/// pill.
#[derive(Debug)]
struct Bomb {
    spec: WindowSpec,
}

impl Bomb {
    fn new() -> Bomb {
        Bomb {
            spec: WindowSpec::new(4, 1, 2).expect("valid"),
        }
    }
}

impl CheckpointState for Bomb {}

impl SlidingTopK for Bomb {
    fn spec(&self) -> WindowSpec {
        self.spec
    }
    fn slide(&mut self, _batch: &[Object]) -> &[Object] {
        panic!("engine bug")
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

/// Builds a hub with healthy queries on every shard plus one bomb,
/// detonates it, and returns (hub, bomb id, a healthy id on a different
/// shard than the bomb's).
fn detonated(shards: usize, workers: usize) -> (AsyncHub, QueryId, QueryId) {
    let mut hub = AsyncHub::new(shards, workers);
    let healthy: Vec<QueryId> = (0..shards * 2)
        .map(|_| {
            hub.register(&Query::window(4).top(1).slide(2))
                .expect("fresh hub")
        })
        .collect();
    let bomb = hub
        .subscribe(Registration::count(Box::new(Bomb::new())))
        .expect("fresh hub");
    // enough objects to close a slide everywhere, detonating the bomb
    let batch: Vec<Object> = (0..4).map(|i| Object::new(i, i as f64)).collect();
    hub.publish(&batch)
        .expect("death is observed later, not here");
    let err = hub.drain().expect_err("the bomb's shard died mid-drain");
    let SapError::ShardDown { shard } = err else {
        panic!("expected ShardDown, got {err:?}");
    };
    let survivor = *healthy
        .iter()
        .find(|id| {
            // an id the hub still serves: inspect answers instead of erroring
            hub.inspect(**id).is_ok()
        })
        .expect("some query lives on a surviving shard");
    assert!(shard < shards);
    (hub, bomb, survivor)
}

/// Every fallible op against a killed shard reports the typed error —
/// and none of them hang, which is the real contract (a lost reply
/// sender would deadlock the hub thread forever).
#[test]
fn worker_panic_surfaces_shard_down_on_every_fallible_op() {
    let (mut hub, bomb, survivor) = detonated(4, 2);
    let batch: Vec<Object> = (0..4).map(|i| Object::new(i, i as f64)).collect();
    assert!(matches!(
        hub.publish(&batch),
        Err(SapError::ShardDown { .. })
    ));
    assert!(matches!(hub.drain(), Err(SapError::ShardDown { .. })));
    assert!(matches!(hub.flush(), Err(SapError::ShardDown { .. })));
    assert!(matches!(hub.stats(), Err(SapError::ShardDown { .. })));
    assert!(matches!(hub.checkpoint(), Err(SapError::ShardDown { .. })));
    assert!(matches!(hub.inspect(bomb), Err(SapError::ShardDown { .. })));
    assert!(matches!(
        hub.unregister(bomb),
        Err(SapError::ShardDown { .. })
    ));
    // the queue is not poisoned: ops scoped to surviving shards answer
    assert!(hub.inspect(survivor).is_ok());
    // resize stages the eject before committing, so hitting the dead
    // shard aborts with the old placement intact — survivors keep
    // serving afterwards
    assert!(matches!(hub.resize(2), Err(SapError::ShardDown { .. })));
    assert!(hub.inspect(survivor).is_ok());
}

/// A failed resize is transactional: the eject pass stages every live
/// shard's sessions, and when it finds the detonated shard it reinstalls
/// the staged parts on their original shards instead of committing the
/// new placement. Survivor state (slide counts) must be byte-identical
/// before and after the aborted attempt — twice, because the reinstall
/// path itself must leave the hub re-abortable.
#[test]
fn failed_resize_leaves_survivors_intact() {
    let (mut hub, _bomb, survivor) = detonated(4, 2);
    let before = hub.inspect(survivor).expect("survivor serves");
    for attempt in 0..2 {
        assert!(
            matches!(hub.resize(8), Err(SapError::ShardDown { .. })),
            "attempt {attempt}"
        );
        let after = hub.inspect(survivor).expect("old placement intact");
        assert_eq!(after.slides, before.slides, "attempt {attempt}");
        assert_eq!(
            after.last_snapshot, before.last_snapshot,
            "attempt {attempt}"
        );
    }
}

/// With a single worker the panic must not take the reactor down: the
/// same thread that absorbed the unwind keeps serving every other
/// shard's commands.
#[test]
fn single_worker_survives_a_shard_death_and_keeps_serving() {
    let (mut hub, _bomb, survivor) = detonated(4, 1);
    let before = hub.inspect(survivor).expect("survivor serves").slides;
    // new registrations that land on live shards keep working through
    // the same (sole) worker thread
    for _ in 0..8 {
        let id = match hub.register(&Query::window(4).top(1).slide(2)) {
            Ok(id) => id,
            // routed to the dead shard: typed error, not a hang
            Err(SapError::ShardDown { .. }) => continue,
            Err(other) => panic!("unexpected error {other:?}"),
        };
        assert_eq!(hub.inspect(id).expect("fresh query serves").slides, 0);
    }
    assert_eq!(hub.inspect(survivor).unwrap().slides, before);
}
