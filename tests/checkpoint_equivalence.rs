//! Durability-plane equivalence: a run that is checkpointed at an
//! arbitrary point and restored — through either hub, at any
//! shard count — must emit **checksum-byte-identical** results to the
//! uninterrupted run, for SAP and all four baselines, across count-based,
//! time-based, and shared-digest sessions. The codec must reject foreign
//! bytes (truncated, bit-flipped, version-bumped, payload-corrupted) with
//! a typed error and never panic. And the elastic plane — `move_query` /
//! `resize` churn between publishes — must leave the drained result
//! stream untouched.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sap::prelude::*;
use sap::stream::checkpoint::fnv1a;

mod common;
use common::fold_all;

/// Tie-heavy stream from a small score alphabet.
fn stream(scores: &[u8]) -> Vec<Object> {
    scores
        .iter()
        .enumerate()
        .map(|(i, s)| Object::new(i as u64, *s as f64))
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

/// One count-based query per algorithm kind, shared geometry.
fn count_fleet(n: usize, k: usize, s: usize) -> Vec<Query> {
    all_kinds()
        .into_iter()
        .map(|kind| Query::window(n).top(k).slide(s).algorithm(kind))
        .collect()
}

/// The uninterrupted sequential reference for a count-based fleet.
fn sequential_reference(
    queries: &[Query],
    data: &[Object],
    chunk: usize,
) -> BTreeMap<QueryId, u64> {
    let mut hub = Hub::new();
    for q in queries {
        hub.register(q).expect("valid query");
    }
    let mut sums = BTreeMap::new();
    for c in data.chunks(chunk) {
        fold_all(&mut sums, hub.publish(c));
    }
    sums
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential hub: checkpoint at an arbitrary chunk boundary, push the
    /// bytes through the wire format, restore, continue — the folded
    /// result stream equals the uninterrupted run's, and the restored
    /// hub's immediate re-checkpoint is **byte-identical** to the one it
    /// came from (restore loses nothing the format captures).
    #[test]
    fn sequential_checkpoint_restore_is_invisible(
        scores in vec(0u8..16, 1..240),
        (n, k, s) in geometry(),
        chunk in 1usize..20,
        cut_seed in 0usize..100,
    ) {
        let queries = count_fleet(n, k, s);
        let data = stream(&scores);
        let expect = sequential_reference(&queries, &data, chunk);

        let mut hub = Hub::new();
        for q in &queries {
            hub.register(q).expect("valid query");
        }
        let chunks: Vec<&[Object]> = data.chunks(chunk).collect();
        let cut = cut_seed % (chunks.len() + 1);
        let mut sums = BTreeMap::new();
        for c in &chunks[..cut] {
            fold_all(&mut sums, hub.publish(c));
        }
        let ckpt = hub.checkpoint();
        let wire = Checkpoint::from_bytes(ckpt.as_bytes()).expect("own bytes validate");
        let mut hub = Hub::restore(&wire, &DefaultEngineFactory).expect("own checkpoint restores");
        prop_assert_eq!(
            hub.checkpoint().as_bytes(),
            ckpt.as_bytes(),
            "re-checkpoint of a restored hub must be byte-identical"
        );
        for c in &chunks[cut..] {
            fold_all(&mut sums, hub.publish(c));
        }
        prop_assert_eq!(sums, expect, "n={} k={} s={} cut={}", n, k, s, cut);
    }

    /// Sharded hub: checkpoint mid-stream, restore at a *different* shard
    /// count — and also into a sequential hub (the formats are
    /// interchangeable) — and finish the stream; every variant folds to
    /// the uninterrupted reference.
    #[test]
    fn sharded_checkpoint_restores_at_any_shard_count(
        scores in vec(0u8..16, 1..160),
        (n, k, s) in geometry(),
        chunk in 1usize..16,
        cut_seed in 0usize..100,
        before_i in 0usize..3,
        after_i in 0usize..3,
    ) {
        let (before, after) = ([1usize, 2, 8][before_i], [1usize, 2, 8][after_i]);
        let queries = count_fleet(n, k, s);
        let data = stream(&scores);
        let expect = sequential_reference(&queries, &data, chunk);
        let chunks: Vec<&[Object]> = data.chunks(chunk).collect();
        let cut = cut_seed % (chunks.len() + 1);

        let mut hub = AsyncHub::new(before, before);
        for q in &queries {
            hub.register(q).expect("valid query");
        }
        let mut sums = BTreeMap::new();
        for c in &chunks[..cut] {
            hub.publish(c).expect("healthy shards");
        }
        let (ckpt, drained) = hub.checkpoint().expect("healthy shards");
        fold_all(&mut sums, drained);

        // resume sharded at the new count
        let mut resumed =
            AsyncHub::restore(&ckpt, &DefaultEngineFactory, after, after).expect("restores");
        let mut sharded_sums = sums.clone();
        for c in &chunks[cut..] {
            resumed.publish(c).expect("healthy shards");
        }
        fold_all(&mut sharded_sums, resumed.drain().expect("healthy shards"));
        prop_assert_eq!(&sharded_sums, &expect, "sharded {}→{} cut={}", before, after, cut);

        // the same bytes also resume on a sequential hub
        let mut seq = Hub::restore(&ckpt, &DefaultEngineFactory).expect("restores");
        let mut seq_sums = sums;
        for c in &chunks[cut..] {
            fold_all(&mut seq_sums, seq.publish(c));
        }
        prop_assert_eq!(&seq_sums, &expect, "sharded {}→sequential cut={}", before, cut);
    }

    /// Async hub: checkpoint mid-stream under a seeded adversarial
    /// schedule, restore onto a fresh `AsyncHub` at a *different*
    /// (shards, workers) shape — and also onto a sequential hub and from
    /// a sharded checkpoint (all three formats are interchangeable) —
    /// and finish the stream; every variant folds to the uninterrupted
    /// reference.
    #[test]
    fn async_checkpoint_restores_across_hub_flavors(
        scores in vec(0u8..16, 1..160),
        (n, k, s) in geometry(),
        chunk in 1usize..16,
        cut_seed in 0usize..100,
        shape_i in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (shards_after, workers_after) = [(1usize, 1usize), (2, 2), (8, 2), (32, 3)][shape_i];
        let queries = count_fleet(n, k, s);
        let data = stream(&scores);
        let expect = sequential_reference(&queries, &data, chunk);
        let chunks: Vec<&[Object]> = data.chunks(chunk).collect();
        let cut = cut_seed % (chunks.len() + 1);

        let mut hub =
            AsyncHub::with_scheduler(5, 2, Box::new(SeededScheduler::new(seed)));
        for q in &queries {
            hub.register(q).expect("valid query");
        }
        let mut sums = BTreeMap::new();
        for c in &chunks[..cut] {
            hub.publish(c).expect("healthy shards");
        }
        let (ckpt, drained) = hub.checkpoint().expect("healthy shards");
        fold_all(&mut sums, drained);

        // resume on a fresh AsyncHub at the new shape, same seed stream
        let mut resumed =
            AsyncHub::restore(&ckpt, &DefaultEngineFactory, shards_after, workers_after)
                .expect("async checkpoint restores");
        let mut async_sums = sums.clone();
        for c in &chunks[cut..] {
            resumed.publish(c).expect("healthy shards");
        }
        fold_all(&mut async_sums, resumed.drain().expect("healthy shards"));
        prop_assert_eq!(
            &async_sums, &expect,
            "async→async({}x{}) cut={} seed={:#018x}",
            shards_after, workers_after, cut, seed
        );

        // the same bytes also resume on a sequential hub
        let mut seq = Hub::restore(&ckpt, &DefaultEngineFactory).expect("restores");
        let mut seq_sums = sums;
        for c in &chunks[cut..] {
            fold_all(&mut seq_sums, seq.publish(c));
        }
        prop_assert_eq!(&seq_sums, &expect, "async→sequential cut={}", cut);

        // and a *sharded* checkpoint of the same prefix resumes on an
        // AsyncHub (flavor interchange goes both ways)
        let mut sharded = AsyncHub::new(3, 3);
        for q in &queries {
            sharded.register(q).expect("valid query");
        }
        let mut cross_sums = BTreeMap::new();
        for c in &chunks[..cut] {
            sharded.publish(c).expect("healthy shards");
        }
        let (sharded_ckpt, drained) = sharded.checkpoint().expect("healthy shards");
        fold_all(&mut cross_sums, drained);
        let mut crossed =
            AsyncHub::restore(&sharded_ckpt, &DefaultEngineFactory, shards_after, workers_after)
                .expect("sharded checkpoint restores on the async hub");
        for c in &chunks[cut..] {
            crossed.publish(c).expect("healthy shards");
        }
        fold_all(&mut cross_sums, crossed.drain().expect("healthy shards"));
        prop_assert_eq!(&cross_sums, &expect, "sharded→async cut={}", cut);
    }

    /// Elastic churn: `move_query` and `resize` fired between arbitrary
    /// publishes never change what drains — the global `(query, slide)`
    /// stream is placement-blind.
    #[test]
    fn move_and_resize_churn_is_result_invisible(
        scores in vec(0u8..16, 1..160),
        (n, k, s) in geometry(),
        ops in vec((0u8..3, 0usize..64, 0usize..64), 0..12),
    ) {
        let queries = count_fleet(n, k, s);
        let data = stream(&scores);
        let expect = sequential_reference(&queries, &data, 7);

        let mut hub = AsyncHub::new(3, 3);
        let mut ids = Vec::new();
        for q in &queries {
            ids.push(hub.register(q).expect("valid query"));
        }
        let mut sums = BTreeMap::new();
        for (i, c) in data.chunks(7).enumerate() {
            hub.publish(c).expect("healthy shards");
            if let Some((op, a, b)) = ops.get(i).copied() {
                match op {
                    0 => hub
                        .move_query(ids[a % ids.len()], b % hub.num_shards())
                        .expect("live move"),
                    1 => hub.resize(1 + b % 4).expect("live resize"),
                    _ => fold_all(&mut sums, hub.drain().expect("healthy shards")),
                }
            }
        }
        fold_all(&mut sums, hub.drain().expect("healthy shards"));
        prop_assert_eq!(sums, expect);
    }

    /// Codec fuzz on framed bytes: any truncation, any single bit flip,
    /// and any version bump must come back as a typed error — and must
    /// never panic.
    #[test]
    fn foreign_bytes_fail_typed(
        scores in vec(0u8..16, 0..60),
        cut_seed in 0usize..10_000,
        flip_byte in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let mut hub = Hub::new();
        hub.register(&Query::window(8).top(2).slide(4))
            .expect("valid query");
        hub.publish(&stream(&scores));
        let bytes = hub.checkpoint().as_bytes().to_vec();

        // truncation: every proper prefix is rejected
        let cut = cut_seed % bytes.len();
        prop_assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "truncated at {}", cut);

        // bit flip: the trailing checksum (or the magic/version checks
        // ahead of it) catches every single-bit corruption
        let mut bent = bytes.clone();
        bent[flip_byte % bytes.len()] ^= 1 << flip_bit;
        prop_assert!(Checkpoint::from_bytes(&bent).is_err(), "flip at {}", flip_byte % bytes.len());

        // version bump: reported as from-the-future, not as garbage
        let next = sap::stream::checkpoint::FORMAT_VERSION + 1;
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&next.to_le_bytes());
        let tail = future.len() - 8;
        let sum = fnv1a(&future[..tail]);
        future[tail..].copy_from_slice(&sum.to_le_bytes());
        prop_assert!(matches!(
            Checkpoint::from_bytes(&future),
            Err(CheckpointError::UnsupportedVersion { found, .. }) if found == next
        ));
    }
}

/// Time-based and shared-digest sessions: checkpoint a sharded hub
/// mid-stream (engine blobs and digest groups in flight), restore at
/// another shard count, finish — identical to the uninterrupted
/// sequential run. Deterministic sweep over cuts so slide-boundary and
/// mid-slide checkpoints are both covered.
#[test]
fn timed_and_shared_sessions_survive_checkpoint() {
    let queries: Vec<(Query, bool)> = (0..9)
        .map(|i| {
            let sd = [100u64, 200, 400][i % 3];
            let q = Query::window_duration(sd * (2 + (i / 3) as u64))
                .top(1 + i % 5)
                .slide_duration(sd)
                .algorithm([AlgorithmKind::sap(), AlgorithmKind::MinTopK][i % 2]);
            (q, i % 2 == 0) // alternate shared-plane and isolated adapters
        })
        .collect();
    let data: Vec<TimedObject> = (0..600)
        .map(|i| TimedObject::new(i as u64, 10 * i as u64, ((i * 37) % 101) as f64))
        .collect();
    let horizon = data.last().unwrap().timestamp + 2_000;

    let register = |hub: &mut dyn FnMut(&Query, bool) -> QueryId| -> Vec<QueryId> {
        queries.iter().map(|(q, shared)| hub(q, *shared)).collect()
    };

    // uninterrupted sequential reference
    let mut reference = Hub::new();
    register(&mut |q, shared| {
        if shared {
            reference.register_shared(q).expect("valid query")
        } else {
            reference.register(q).expect("valid query")
        }
    });
    let mut expect = BTreeMap::new();
    for c in data.chunks(37) {
        fold_all(&mut expect, reference.publish_timed(c));
    }
    fold_all(&mut expect, reference.advance_time(horizon));

    for (cut, shards_after) in [(0, 2), (3, 8), (7, 1), (11, 2), (16, 2)] {
        let mut hub = AsyncHub::new(2, 2);
        register(&mut |q, shared| {
            if shared {
                hub.register_shared(q).expect("valid query")
            } else {
                hub.register(q).expect("valid query")
            }
        });
        let chunks: Vec<&[TimedObject]> = data.chunks(37).collect();
        let mut sums = BTreeMap::new();
        for c in &chunks[..cut] {
            hub.publish_timed(c).expect("healthy shards");
        }
        let (ckpt, drained) = hub.checkpoint().expect("healthy shards");
        fold_all(&mut sums, drained);
        let mut hub = AsyncHub::restore(&ckpt, &DefaultEngineFactory, shards_after, shards_after)
            .expect("timed checkpoint restores");
        for c in &chunks[cut..] {
            hub.publish_timed(c).expect("healthy shards");
        }
        hub.advance_time(horizon).expect("healthy shards");
        fold_all(&mut sums, hub.drain().expect("healthy shards"));
        assert_eq!(sums, expect, "cut={cut} shards_after={shards_after}");
    }
}

/// Shared-digest groups survive `move_query` (which relocates the whole
/// slide group) and `resize` interleaved with timed publishes.
#[test]
fn shared_groups_survive_move_and_resize() {
    let mut reference = Hub::new();
    let mut hub = AsyncHub::new(3, 3);
    let mut ids = Vec::new();
    for i in 0..8usize {
        let sd = [100u64, 200][i % 2];
        let q = Query::window_duration(sd * 3)
            .top(1 + i % 4)
            .slide_duration(sd);
        reference.register_shared(&q).expect("valid query");
        ids.push(hub.register_shared(&q).expect("valid query"));
    }
    let data: Vec<TimedObject> = (0..500)
        .map(|i| TimedObject::new(i as u64, 7 * i as u64, ((i * 53) % 89) as f64))
        .collect();
    let horizon = data.last().unwrap().timestamp + 1_000;

    let mut expect = BTreeMap::new();
    let mut sums = BTreeMap::new();
    for (i, c) in data.chunks(41).enumerate() {
        fold_all(&mut expect, reference.publish_timed(c));
        hub.publish_timed(c).expect("healthy shards");
        match i % 4 {
            0 => hub
                .move_query(ids[i % ids.len()], i % hub.num_shards())
                .expect("group move"),
            1 => hub.resize(1 + i % 4).expect("live resize"),
            _ => {}
        }
    }
    fold_all(&mut expect, reference.advance_time(horizon));
    hub.advance_time(horizon).expect("healthy shards");
    fold_all(&mut sums, hub.drain().expect("healthy shards"));
    assert_eq!(sums, expect);
}

/// Payload corruption behind a *valid* frame (magic, version, and
/// checksum all recomputed): `Hub::restore` must return a typed error or
/// a coherent hub — never panic. Exhaustive over every payload byte.
#[test]
fn corrupt_payloads_never_panic() {
    let mut hub = Hub::new();
    hub.register(&Query::window(6).top(2).slide(3))
        .expect("valid query");
    hub.register_shared(&Query::window_duration(200).top(2).slide_duration(100))
        .expect("valid query");
    hub.publish(&stream(&[3, 1, 4, 1, 5, 9, 2, 6]));
    let bytes = hub.checkpoint().as_bytes().to_vec();

    for pos in 12..bytes.len() - 8 {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bent = bytes.clone();
            bent[pos] ^= mask;
            let tail = bent.len() - 8;
            let sum = fnv1a(&bent[..tail]);
            bent[tail..].copy_from_slice(&sum.to_le_bytes());
            let ckpt = Checkpoint::from_bytes(&bent).expect("frame recomputed to be valid");
            // Ok (benign mutation, e.g. a score bit) and Err (structural
            // damage) are both acceptable; panicking is not.
            let _ = Hub::restore(&ckpt, &DefaultEngineFactory);
        }
    }
}

/// The async recovery story end to end: a checkpoint taken *before* an
/// engine panic kills a shard restores the full fleet onto a fresh
/// `AsyncHub`, which finishes the stream byte-identical to the
/// uninterrupted sequential reference — the dead hub's typed
/// `ShardDown` errors cost nothing durable.
#[test]
fn async_checkpoint_taken_before_a_kill_restores_cleanly() {
    struct Bomb(WindowSpec);
    impl CheckpointState for Bomb {}
    impl SlidingTopK for Bomb {
        fn spec(&self) -> WindowSpec {
            self.0
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

    let queries = count_fleet(8, 2, 4);
    let data = stream(&[7, 2, 9, 4, 1, 8, 3, 6, 5, 9, 2, 7, 4, 8, 1, 3]);
    let expect = sequential_reference(&queries, &data, 4);
    let chunks: Vec<&[Object]> = data.chunks(4).collect();
    let cut = chunks.len() / 2;

    let mut hub = AsyncHub::new(4, 2);
    for q in &queries {
        hub.register(q).expect("valid query");
    }
    let mut sums = BTreeMap::new();
    for c in &chunks[..cut] {
        hub.publish(c).expect("healthy shards");
    }
    // the cut: durable state captured while every shard is healthy
    let (ckpt, drained) = hub.checkpoint().expect("healthy shards");
    fold_all(&mut sums, drained);

    // now the production incident: a poisoned engine joins and detonates
    hub.subscribe(Registration::count(Box::new(Bomb(
        WindowSpec::new(4, 1, 2).unwrap(),
    ))))
    .expect("registration is healthy");
    hub.publish(chunks[cut])
        .expect("death is observed at the barrier");
    assert!(matches!(hub.drain(), Err(SapError::ShardDown { .. })));
    drop(hub);

    // recovery: the pre-kill checkpoint restores the full fleet onto a
    // fresh reactor (different shape), which finishes the stream
    let mut recovered =
        AsyncHub::restore(&ckpt, &DefaultEngineFactory, 8, 3).expect("pre-kill bytes restore");
    for c in &chunks[cut..] {
        recovered.publish(c).expect("healthy shards");
    }
    fold_all(&mut sums, recovered.drain().expect("healthy shards"));
    assert_eq!(
        sums, expect,
        "recovered run must equal the uninterrupted reference"
    );
}

/// Unknown engine names surface as the typed
/// [`CheckpointError::UnknownEngine`], so a checkpoint from a build with
/// a custom engine fails loud and clear rather than mis-restoring.
#[test]
fn unknown_engine_is_a_typed_error() {
    struct Custom(Box<dyn SlidingTopK + Send>);
    impl CheckpointState for Custom {}
    impl SlidingTopK for Custom {
        fn spec(&self) -> WindowSpec {
            self.0.spec()
        }
        fn slide(&mut self, batch: &[Object]) -> &[Object] {
            self.0.slide(batch)
        }
        fn candidate_count(&self) -> usize {
            self.0.candidate_count()
        }
        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }
        fn stats(&self) -> OpStats {
            self.0.stats()
        }
        fn name(&self) -> &str {
            "bespoke"
        }
    }

    let mut hub = Hub::new();
    let q = Query::window(8).top(2).slide(4);
    hub.subscribe(Registration::count(Box::new(Custom(
        build_send(&q).expect("valid query"),
    ))))
    .expect("valid registration");
    let ckpt = hub.checkpoint();
    match Hub::restore(&ckpt, &DefaultEngineFactory) {
        Err(SapError::Checkpoint(CheckpointError::UnknownEngine(name))) => {
            assert_eq!(name, "bespoke")
        }
        other => panic!("expected UnknownEngine, got {other:?}"),
    }
}
