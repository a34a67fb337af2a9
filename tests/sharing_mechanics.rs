//! Targeted tests of two sharing mechanisms whose effect on results is
//! nil by design, so the model harness (`tests/hub_model.rs`) cannot see
//! them: result-class members share one snapshot allocation, and the
//! dominance gate prunes exactly what an independent re-simulation of
//! the k-skyband criterion predicts.

use std::collections::BTreeMap;

use sap::prelude::*;

#[path = "common/checksum.rs"]
mod checksum;
use checksum::{fold_all, fold_update, SEED};

/// The class test's stream: ids from 1000, scores folded mod 13.
fn class_stream(scores: &[u8]) -> Vec<Object> {
    scores
        .iter()
        .enumerate()
        // id 1000+i: external ids need not start at 0 — the group ring
        // must translate ordinals to whatever ids the stream carries
        .map(|(i, &score)| Object::new(1_000 + i as u64, (score % 13) as f64))
        .collect()
}

/// The gate test's stream: ids from 1000, scores as drawn.
fn gate_stream(scores: &[u8]) -> Vec<Object> {
    scores
        .iter()
        .enumerate()
        .map(|(i, &score)| Object::new(1_000 + i as u64, score as f64))
        .collect()
}

/// Pins result-class sharing itself, not just its results: on a
/// slide close, every member of a result class receives a clone of the
/// **same** `Snapshot` allocation (`Arc::ptr_eq`), while standalone
/// sessions of the same query each materialize their own. Results are
/// checksum-identical either way.
#[test]
fn class_members_share_one_snapshot_allocation() {
    let data = class_stream(&(0..96).map(|i| (i * 5 % 23) as u8).collect::<Vec<_>>());
    let mut classed = Hub::new();
    let mut isolated = Vec::new();
    let members = 4usize;
    let query = Query::window(8).top(3).slide(4);
    for _ in 0..members {
        classed.register_grouped(&query).unwrap();
        isolated.push(query.session().unwrap());
    }
    let mut classed_sums = BTreeMap::new();
    let mut isolated_sums = vec![SEED; members];
    for chunk in data.chunks(4) {
        let updates = classed.publish(chunk);
        let mut by_slide: BTreeMap<u64, Vec<Snapshot>> = BTreeMap::new();
        for u in &updates {
            by_slide
                .entry(u.result.slide)
                .or_default()
                .push(u.result.snapshot.clone());
        }
        for (slide, snaps) in &by_slide {
            assert_eq!(snaps.len(), members, "slide {slide}: every member emits");
            for snap in &snaps[1..] {
                assert!(
                    snaps[0].ptr_eq(snap),
                    "slide {slide}: class members must share one snapshot Arc"
                );
            }
        }
        fold_all(&mut classed_sums, updates);

        let mut by_slide: BTreeMap<u64, Vec<Snapshot>> = BTreeMap::new();
        for (session, sum) in isolated.iter_mut().zip(&mut isolated_sums) {
            for result in session.push(chunk) {
                by_slide
                    .entry(result.slide)
                    .or_default()
                    .push(result.snapshot.clone());
                *sum = fold_update(*sum, &result);
            }
        }
        for (slide, snaps) in &by_slide {
            for snap in &snaps[1..] {
                assert!(
                    snaps[0].is_empty() || !snaps[0].ptr_eq(snap),
                    "slide {slide}: standalone sessions each own their snapshot"
                );
            }
        }
    }
    assert_eq!(
        classed_sums.values().copied().collect::<Vec<_>>(),
        isolated_sums,
        "sharing must be result-invisible"
    );
    let stats = classed.stats();
    assert_eq!(stats.result_classes, 1, "one geometry, one class");
    assert!(
        stats.class_hits > 0,
        "every close serves 3 members for free"
    );
}

/// Pins the class accounting across migration: `resize` and
/// `move_query` move a group with its result class, so the class count
/// and the class-hit counter read the same before and after, and the
/// members keep sharing one snapshot allocation per close.
#[test]
fn class_accounting_survives_resize_and_move() {
    let data = class_stream(&(0..48).map(|i| (i * 7 % 19) as u8).collect::<Vec<_>>());
    let (early, late) = data.split_at(24);
    let mut hub = AsyncHub::new(4, 2);
    let members = 3usize;
    let query = Query::window(8).top(3).slide(4);
    let first = hub.register_grouped(&query).unwrap();
    for _ in 1..members {
        hub.register_grouped(&query).unwrap();
    }
    hub.publish(early).unwrap();
    hub.drain().unwrap();
    let accounting = |hub: &mut AsyncHub| {
        let stats = hub.stats().unwrap();
        (stats.result_classes, stats.class_hits)
    };
    let settled = accounting(&mut hub);
    assert_eq!(settled.0, 1, "three twins, one class");
    assert!(settled.1 > 0, "twins ride the class close");
    hub.resize(3).unwrap();
    assert_eq!(accounting(&mut hub), settled, "across the resize");
    // at least two of these moves leave the group's current shard
    for shard in 0..3 {
        hub.move_query(first, shard).unwrap();
        assert_eq!(accounting(&mut hub), settled, "across a move to {shard}");
    }
    for chunk in late.chunks(4) {
        hub.publish(chunk).unwrap();
    }
    let mut by_slide: BTreeMap<u64, Vec<Snapshot>> = BTreeMap::new();
    for u in hub.drain().unwrap() {
        by_slide
            .entry(u.result.slide)
            .or_default()
            .push(u.result.snapshot);
    }
    assert_eq!(by_slide.len(), late.len() / 4, "one close per late chunk");
    for (slide, snaps) in &by_slide {
        assert_eq!(snaps.len(), members, "slide {slide}: every member emits");
        for snap in &snaps[1..] {
            assert!(
                snaps[0].ptr_eq(snap),
                "slide {slide}: the traveled class still shares one snapshot Arc"
            );
        }
    }
}

/// Pins the pruned counter itself, not just result invisibility: an
/// independent re-simulation of the k-skyband gate — a min-heap of the
/// top-`k_max` scores among objects admitted to the open slide, prune
/// iff the heap is full and the score is strictly below its root —
/// must predict `HubStats::pruned` and `HubStats::admitted` exactly.
#[test]
fn pruned_counter_matches_an_independent_gate_resimulation() {
    let s = 8usize;
    let data = gate_stream(
        &(0..400)
            .map(|i| ((i * 53 + 11) % 47) as u8)
            .collect::<Vec<_>>(),
    );
    let mut hub = Hub::new();
    // one geometry class, two pass-all members: k_max = 3
    hub.register_grouped(&Query::window(24).top(2).slide(s))
        .unwrap();
    hub.register_grouped(&Query::window(16).top(3).slide(s))
        .unwrap();
    let mut sums = BTreeMap::new();
    for chunk in data.chunks(13) {
        fold_all(&mut sums, hub.publish(chunk));
    }

    // the independent oracle: replay the stream through a from-scratch
    // min-heap gate with cap = k_max = 3, reset on each slide close
    let k_max = 3usize;
    let (mut admitted, mut pruned) = (0u64, 0u64);
    let mut heap: Vec<f64> = Vec::new();
    for (i, o) in data.iter().enumerate() {
        let min = heap.iter().copied().fold(f64::INFINITY, f64::min);
        if heap.len() < k_max || o.score >= min {
            admitted += 1;
            if heap.len() < k_max {
                heap.push(o.score);
            } else if o.score > min {
                let pos = heap.iter().position(|&x| x == min).unwrap();
                heap[pos] = o.score;
            }
        } else {
            pruned += 1;
        }
        if (i + 1) % s == 0 {
            heap.clear();
        }
    }
    let stats = hub.stats();
    assert_eq!(
        stats.admitted, admitted,
        "admitted counter diverged from gate oracle"
    );
    assert_eq!(
        stats.pruned, pruned,
        "pruned counter diverged from gate oracle"
    );
    assert!(
        stats.pruned > 0,
        "this stream must actually exercise the gate"
    );
    let rate = stats.prune_rate();
    assert!((rate - pruned as f64 / (admitted + pruned) as f64).abs() < 1e-12);

    // standalone sessions on the same stream: no gate, same results
    let mut isolated = [
        Query::window(24).top(2).slide(s),
        Query::window(16).top(3).slide(s),
    ]
    .map(|q| q.session().unwrap());
    let mut isolated_sums = vec![SEED; isolated.len()];
    for chunk in data.chunks(13) {
        for (session, sum) in isolated.iter_mut().zip(&mut isolated_sums) {
            for result in session.push(chunk) {
                *sum = fold_update(*sum, &result);
            }
        }
    }
    assert_eq!(
        sums.values().copied().collect::<Vec<_>>(),
        isolated_sums,
        "arms must be checksum-identical"
    );
}
