//! Durability and elastic operation: an `AsyncHub` serving a mixed fleet
//! of standing queries takes periodic checkpoints while one tenant — a
//! deliberately faulty "bomb" engine — eventually panics and takes its
//! whole shard down. The hub reports the dead shard as a typed
//! `SapError::ShardDown`; we restore the last checkpoint onto a *fresh*
//! hub (bigger, while we're at it: 4 shards → 6), patch the faulty engine
//! at restore time through a custom `EngineFactory`, replay the bursts
//! published since that checkpoint, and keep serving. A healthy
//! sequential `Hub` runs the same queries uninterrupted; at the end the
//! recovered run's results are byte-identical to it, query for query.
//!
//! ```text
//! cargo run --release --example checkpoint
//! ```

use sap::prelude::*;
use sap::stream::{checksum_fold, CHECKSUM_SEED};
use std::collections::HashMap;

const SHARDS: usize = 4;
const BURST: usize = 200;
const BURSTS: usize = 25;
const CHECKPOINT_EVERY: usize = 5; // bursts between checkpoints
const FUSE: usize = 2_650; // the bomb detonates mid-interval

/// A tenant engine with a manufacturing defect: it answers correctly
/// (delegating to a real SAP engine) until it has seen [`FUSE`] objects,
/// then panics — killing the shard it happens to live on.
struct Bomb {
    inner: Box<dyn SlidingTopK + Send>,
    seen: usize,
}

impl Bomb {
    fn new(n: usize, k: usize, s: usize) -> Self {
        let spec = WindowSpec::new(n, k, s).expect("valid bomb spec");
        Bomb {
            inner: DefaultEngineFactory
                .count("SAP", spec)
                .expect("factory knows SAP"),
            seen: 0,
        }
    }
}

// Engines restore by replaying their window, so the fuse counter is
// deliberately *not* captured: a restored bomb is defused until it sees
// FUSE objects again.
impl SlidingTopK for Bomb {
    fn spec(&self) -> WindowSpec {
        self.inner.spec()
    }
    fn slide(&mut self, batch: &[Object]) -> &[Object] {
        self.seen += batch.len();
        if self.seen > FUSE {
            panic!("bomb detonated after {} objects", self.seen);
        }
        self.inner.slide(batch)
    }
    fn candidate_count(&self) -> usize {
        self.inner.candidate_count()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn stats(&self) -> OpStats {
        self.inner.stats()
    }
    fn name(&self) -> &str {
        "bomb"
    }
}

/// The operator's recovery policy, expressed as an [`EngineFactory`]:
/// every engine the workspace ships restores through
/// [`DefaultEngineFactory`], and the known-faulty `"bomb"` build is
/// patched to a healthy SAP engine on the way back up. Results are
/// unaffected — the bomb already delegated its answers to SAP, and every
/// engine is an exact top-k function of its window.
struct RecoveryFactory;

impl EngineFactory for RecoveryFactory {
    fn count(&self, name: &str, spec: WindowSpec) -> Result<Box<dyn SlidingTopK + Send>, SapError> {
        let name = if name == "bomb" { "SAP" } else { name };
        DefaultEngineFactory.count(name, spec)
    }
}

fn queries() -> Vec<Query> {
    let kinds = [
        AlgorithmKind::sap(),
        AlgorithmKind::Naive,
        AlgorithmKind::KSkyband,
        AlgorithmKind::MinTopK,
        AlgorithmKind::sma(),
    ];
    (0..10)
        .map(|i| {
            Query::window(100 * (1 + i % 4))
                .top(1 + i % 7)
                .slide(20 * (1 + i % 2))
                .algorithm(kinds[i % kinds.len()])
        })
        .collect()
}

/// Folds each update into its query's running result checksum, so two
/// runs can be compared byte-for-byte without storing every snapshot.
fn fold_into(sums: &mut HashMap<QueryId, u64>, updates: Vec<QueryUpdate>) {
    for u in updates {
        let acc = sums.entry(u.query).or_insert(CHECKSUM_SEED);
        *acc = checksum_fold(*acc, &u.result.snapshot);
    }
}

fn main() {
    // the bomb's panic is the scripted event of this demo — keep its
    // backtrace off the console, let everything else through
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let scripted = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("bomb detonated"));
        if !scripted {
            default_hook(info);
        }
    }));

    let data = Dataset::Stock.generate(BURST * BURSTS, 7);
    let queries = queries();

    // the fleet under test: 10 healthy tenants plus the bomb
    let mut hub = AsyncHub::new(SHARDS, SHARDS);
    for q in &queries {
        hub.register(q).expect("valid query");
    }
    let bomb_id = hub
        .subscribe(Registration::count(Box::new(Bomb::new(300, 5, 50))))
        .expect("registered");
    println!(
        "=== {} queries ({} tenants + 1 bomb) on {SHARDS} shards, {} objects ===",
        hub.len(),
        queries.len(),
        data.len()
    );

    // updates are collected exclusively through checkpoint barriers (and
    // the final one), so a replayed burst's slides are folded exactly once
    let mut recovered_sums = HashMap::new();
    let mut last_checkpoint: Option<(Checkpoint, usize)> = None;
    let mut recoveries = 0usize;
    let mut burst = 0usize;
    while burst < BURSTS {
        let batch = &data[burst * BURST..(burst + 1) * BURST];
        let step = (|| -> Result<(), SapError> {
            hub.publish(batch)?;
            if (burst + 1).is_multiple_of(CHECKPOINT_EVERY) {
                let (ckpt, drained) = hub.checkpoint()?;
                fold_into(&mut recovered_sums, drained);
                println!(
                    "burst {:2}: checkpoint #{} — {} bytes ({} per query)",
                    burst + 1,
                    (burst + 1) / CHECKPOINT_EVERY,
                    ckpt.len(),
                    ckpt.len() / hub.len()
                );
                last_checkpoint = Some((ckpt, burst + 1));
            }
            Ok(())
        })();

        match step {
            Ok(()) => burst += 1,
            Err(SapError::ShardDown { shard }) => {
                let (ckpt, resume_from) = last_checkpoint.as_ref().expect("checkpointed");
                println!(
                    "burst {:2}: shard {shard} is down — restoring checkpoint taken at \
                     burst {resume_from} onto a fresh {}-shard hub (bomb patched to SAP)",
                    burst + 1,
                    SHARDS + 2
                );
                hub = AsyncHub::restore(ckpt, &RecoveryFactory, SHARDS + 2, SHARDS + 2)
                    .expect("own checkpoint restores");
                // rebalance the recovered tenant onto a chosen shard
                // mid-stream; results are placement-blind, so this
                // changes nothing downstream
                hub.move_query(bomb_id, 0).expect("live migration");
                // rewind the stream cursor: bursts since the checkpoint
                // replay, and their slides are emitted exactly once
                burst = *resume_from;
                recoveries += 1;
            }
            Err(e) => panic!("unexpected hub error: {e}"),
        }
    }

    let (_, drained) = hub.checkpoint().expect("final drain");
    fold_into(&mut recovered_sums, drained);

    // the uninterrupted reference: a sequential Hub, same queries in the
    // same registration order (so the ids line up), the bomb's geometry
    // served by the healthy engine it delegates to
    let mut reference = Hub::new();
    for q in &queries {
        reference.register(q).expect("valid query");
    }
    reference
        .register(&Query::window(300).top(5).slide(50))
        .expect("valid query");
    let mut reference_sums = HashMap::new();
    for batch in data.chunks(BURST) {
        fold_into(&mut reference_sums, reference.publish(batch));
    }

    assert_eq!(recoveries, 1, "the bomb fires exactly once");
    assert_eq!(
        recovered_sums, reference_sums,
        "recovered run must be byte-identical to the uninterrupted one"
    );
    println!(
        "\nrecovered after {recoveries} shard loss: {} queries, all result \
         checksums byte-identical to the uninterrupted reference",
        recovered_sums.len()
    );
}
