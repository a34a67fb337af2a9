//! Per-query checksums of drained updates, for the targeted hub tests
//! that compare two runs (`tests/hub_faults.rs`,
//! `tests/sharing_mechanics.rs`) without a model.

use std::collections::BTreeMap;

use sap::prelude::*;

/// FNV-1a step over one u64 word.
fn fold_word(acc: u64, word: u64) -> u64 {
    let mut h = acc;
    let mut x = word;
    for _ in 0..8 {
        h ^= x & 0xFF;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        x >>= 8;
    }
    h
}

/// Folds one update — slide index, the full `TopKEvent` delta stream,
/// and the snapshot — into a query's running checksum. Order sensitive,
/// so two hubs agree iff they emitted identical event streams.
fn fold_update(acc: u64, result: &SlideResult) -> u64 {
    let mut h = fold_word(acc, result.slide);
    for event in &result.events {
        h = match event {
            TopKEvent::Entered(o) => fold_word(fold_word(fold_word(h, 1), o.id), o.score.to_bits()),
            TopKEvent::Exited(o) => fold_word(fold_word(fold_word(h, 2), o.id), o.score.to_bits()),
            TopKEvent::Unchanged => fold_word(h, 3),
        };
    }
    for o in &result.snapshot {
        h = fold_word(fold_word(h, o.id), o.score.to_bits());
    }
    h
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds a batch of updates into per-query running checksums.
pub fn fold_all(sums: &mut BTreeMap<QueryId, u64>, updates: Vec<QueryUpdate>) {
    for u in updates {
        let acc = sums.entry(u.query).or_insert(SEED);
        *acc = fold_update(*acc, &u.result);
    }
}
