//! Targeted hub tests the model harness (`tests/hub_model.rs`) does not
//! cover: engine panics inside `AsyncHub` workers, and the checkpoint
//! codec on foreign bytes.
//!
//! The panic half proves the containment contract: an engine panic
//! inside a worker costs exactly one shard — every fallible op against
//! it reports the typed `SapError::ShardDown` (never a hang, never a
//! poisoned queue), the worker thread survives, the other shards keep
//! serving, and a checkpoint taken before the kill restores cleanly.
//! The codec half proves that truncated, bit-flipped, version-bumped
//! and payload-corrupted checkpoints, and unknown engine names, come
//! back as typed errors and never panic.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sap::prelude::*;
use sap::stream::checkpoint::fnv1a;

#[path = "common/checksum.rs"]
mod checksum;
use checksum::fold_all;

/// Tie-heavy stream from a small score alphabet.
fn stream(scores: &[u8]) -> Vec<Object> {
    scores
        .iter()
        .enumerate()
        .map(|(i, s)| Object::new(i as u64, *s as f64))
        .collect()
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

/// One count-based query per algorithm kind over one window and slide,
/// at `k`, `k + 1`, …: distinct result classes, so every engine serves.
fn count_fleet(n: usize, k: usize, s: usize) -> Vec<Query> {
    all_kinds()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Query::window(n).top(k + i).slide(s).algorithm(kind))
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

/// An engine that panics on its first slide — the async-worker poison
/// pill. It answers `⟨3, 1, 1⟩`, a count group of its own: no healthy
/// query shares its slide length.
#[derive(Debug)]
struct Bomb {
    spec: WindowSpec,
}

impl Bomb {
    fn new() -> Bomb {
        Bomb {
            spec: WindowSpec::new(3, 1, 1).expect("valid").reduced(),
        }
    }
}

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

/// Builds a hub with healthy queries on several shards plus one bomb,
/// detonates it, and returns (hub, bomb id, a healthy id on a different
/// shard than the bomb's). A group serves from one shard, so the healthy
/// fleet spreads over three slide lengths, three groups.
fn detonated(shards: usize, workers: usize) -> (AsyncHub, QueryId, QueryId) {
    let mut hub = AsyncHub::new(shards, workers);
    let healthy: Vec<QueryId> = (0..shards * 2)
        .map(|i| {
            hub.register(&Query::window(12).top(1).slide(2 + i % 3))
                .expect("fresh hub")
        })
        .collect();
    let bomb = hub
        .subscribe(Registration::grouped(Box::new(Bomb::new()), 3, 1))
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

/// `publish_one` ships its object at once, as a one-object `publish`
/// does, so the call itself reports the dead shard — not some later
/// operation.
#[test]
fn publish_one_reports_a_dead_shard_itself() {
    let (mut hub, _bomb, _survivor) = detonated(4, 2);
    assert!(matches!(
        hub.publish_one(Object::new(9, 1.0)),
        Err(SapError::ShardDown { .. })
    ));
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

/// The async recovery story end to end: a checkpoint taken *before* an
/// engine panic kills a shard restores the full fleet onto a fresh
/// `AsyncHub`, which finishes the stream byte-identical to the
/// uninterrupted sequential reference — the dead hub's typed
/// `ShardDown` errors cost nothing durable.
#[test]
fn async_checkpoint_taken_before_a_kill_restores_cleanly() {
    struct Bomb(WindowSpec);
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
    let reduced = WindowSpec::new(4, 1, 2).unwrap().reduced();
    hub.subscribe(Registration::grouped(Box::new(Bomb(reduced)), 4, 2))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

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

/// Payload corruption behind a *valid* frame (magic, version, and
/// checksum all recomputed): `Hub::restore` must return a typed error or
/// a coherent hub — never panic. Exhaustive over every payload byte of a
/// hub that holds every kind of checkpoint record: a count class of two
/// whose reduction also holds a parked class, a count class that joined
/// its group at a later slide, an event-clock class, and a warming
/// member. The same state is bent twice: as the `Hub`'s one-section
/// image, and as a four-section image of an `AsyncHub` that holds the
/// two groups in different sections, whose restore merges the sections
/// and binds each member to its group across them. Every fifth bent image is also restored on an
/// `AsyncHub`, which must accept exactly what the `Hub` accepts and serve
/// it alike, with every shard healthy.
#[test]
fn corrupt_payloads_never_panic() {
    let objects = |range: std::ops::Range<u64>| -> Vec<TimedObject> {
        range
            .map(|i| TimedObject::new(i, i * 25, ((i * 7) % 5) as f64))
            .collect()
    };
    let mut hub = Hub::new();
    // one reduction: a class of two at k = 2, and a parked class at k = 1
    for q in [
        Query::window(6).top(2).slide(3),
        Query::window(6).top(2).slide(3),
        Query::window(6).top(1).slide(3),
    ] {
        hub.register_grouped(&q).expect("valid query");
    }
    hub.register_shared(&Query::window_duration(200).top(2).slide_duration(100))
        .expect("valid query");
    hub.publish_timed(&objects(0..9));
    // the count group's open slide is empty: a class that joins at slide
    // 3; the slide group has ingested: a member that warms up through the
    // cut, which closes neither its join slide [200, 300) nor slide 4 of
    // the count group
    let late = hub
        .register_grouped(&Query::window(6).top(1).slide(3))
        .expect("valid query");
    let warming = hub
        .register_shared(&Query::window_duration(200).top(1).slide_duration(100))
        .expect("valid query");
    hub.publish_timed(&objects(9..12));
    assert_eq!(hub.session(late).map(|s| s.slides()), Some(1));
    assert!(hub.session(warming).is_some_and(|s| s.is_warming_up()));
    let stats = hub.stats();
    assert_eq!((stats.result_classes, stats.class_hits > 0), (4, true));
    let one = hub.checkpoint();
    let mut sharded =
        AsyncHub::restore(&one, &DefaultEngineFactory, 4, 2).expect("the hub's own image restores");
    // the count group in the first section and the slide group in the
    // last, so a restore offsets the slide group's members
    sharded.move_query(late, 0).expect("healthy shards");
    sharded.move_query(warming, 3).expect("healthy shards");
    let (four, drained) = sharded.checkpoint().expect("healthy shards");
    assert!(drained.is_empty(), "a restored hub owes no updates");
    drop(sharded);
    // what every hub that restores must then serve without panicking
    let batch = objects(11..51);

    for image in [one.as_bytes(), four.as_bytes()] {
        let mut restores = 0;
        let mut bent_images = 0;
        for pos in 12..image.len() - 8 {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bent = image.to_vec();
                bent[pos] ^= mask;
                let tail = bent.len() - 8;
                let sum = fnv1a(&bent[..tail]);
                bent[tail..].copy_from_slice(&sum.to_le_bytes());
                let ckpt = Checkpoint::from_bytes(&bent).expect("frame recomputed to be valid");
                // Ok (benign mutation, e.g. a score bit) and Err
                // (structural damage) are both acceptable; panicking is
                // not, on restore or on the first publish and watermark
                // after it.
                let mut served = None;
                if let Ok(mut restored) = Hub::restore(&ckpt, &DefaultEngineFactory) {
                    let mut updates = restored.publish_timed(&batch);
                    updates.extend(restored.advance_time(2_000));
                    updates.sort_unstable_by_key(|u| (u.query, u.result.slide));
                    served = Some(updates);
                    restores += 1;
                }
                if bent_images % 5 == 0 {
                    let reactor = AsyncHub::restore(&ckpt, &DefaultEngineFactory, 3, 2);
                    assert_eq!(reactor.is_ok(), served.is_some(), "byte {pos} ^ {mask:#x}");
                    if let (Ok(mut reactor), Some(expected)) = (reactor, served) {
                        reactor.publish_timed(&batch).expect("healthy shards");
                        reactor.advance_time(2_000).expect("healthy shards");
                        let mut got = reactor.drain().expect("healthy shards");
                        got.sort_unstable_by_key(|u| (u.query, u.result.slide));
                        assert_eq!(got, expected, "byte {pos} ^ {mask:#x}");
                    }
                }
                bent_images += 1;
            }
        }
        eprintln!(
            "{} B image: {restores} of {bent_images} bent images restore",
            image.len()
        );
    }
}

/// Unknown engine names surface as the typed
/// [`CheckpointError::UnknownEngine`], so a checkpoint from a build with
/// a custom engine fails loud and clear rather than mis-restoring.
#[test]
fn unknown_engine_is_a_typed_error() {
    struct Custom(Box<dyn SlidingTopK + Send>);
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
    // ⟨8, 2, 4⟩, whose engine runs its reduction ⟨4, 2, 2⟩
    let reduced = Query::window(4).top(2).slide(2);
    hub.subscribe(Registration::grouped(
        Box::new(Custom(build_send(&reduced).expect("valid query"))),
        8,
        4,
    ))
    .expect("valid registration");
    let ckpt = hub.checkpoint();
    match Hub::restore(&ckpt, &DefaultEngineFactory) {
        Err(SapError::Checkpoint(CheckpointError::UnknownEngine(name))) => {
            assert_eq!(name, "bespoke")
        }
        other => panic!("expected UnknownEngine, got {other:?}"),
    }
}
