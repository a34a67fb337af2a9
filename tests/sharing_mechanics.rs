//! Targeted tests of two sharing mechanisms whose effect on results is
//! nil by design, so the model harness (`tests/hub_model.rs`) cannot see
//! them: result-class members share one snapshot allocation, and the
//! dominance gate prunes exactly what an independent re-simulation of
//! the k-skyband criterion predicts.

use std::collections::BTreeMap;

use sap::prelude::*;

#[path = "common/checksum.rs"]
mod checksum;
use checksum::fold_all;

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
/// **same** `Snapshot` allocation (`Arc::ptr_eq`), while with the knob
/// off each member materializes its own. Results are checksum-identical
/// either way.
#[test]
fn class_members_share_one_snapshot_allocation() {
    let data = class_stream(&(0..96).map(|i| (i * 5 % 23) as u8).collect::<Vec<_>>());
    let mut classed = Hub::new();
    let mut off = Hub::new();
    off.set_result_class_sharing(false);
    let members = 4usize;
    for hub in [&mut classed, &mut off] {
        for _ in 0..members {
            hub.register_grouped(&Query::window(8).top(3).slide(4))
                .unwrap();
        }
    }
    let mut classed_sums = BTreeMap::new();
    let mut off_sums = BTreeMap::new();
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

        let updates = off.publish(chunk);
        let mut by_slide: BTreeMap<u64, Vec<Snapshot>> = BTreeMap::new();
        for u in &updates {
            by_slide
                .entry(u.result.slide)
                .or_default()
                .push(u.result.snapshot.clone());
        }
        for (slide, snaps) in &by_slide {
            for snap in &snaps[1..] {
                assert!(
                    snaps[0].is_empty() || !snaps[0].ptr_eq(snap),
                    "slide {slide}: unclassed members each own their snapshot"
                );
            }
        }
        fold_all(&mut off_sums, updates);
    }
    assert_eq!(classed_sums, off_sums, "sharing must be result-invisible");
    let stats = classed.stats();
    assert_eq!(stats.result_classes, 1, "one geometry, one class");
    assert!(
        stats.class_hits > 0,
        "every close serves 3 members for free"
    );
    // knob off: one solo class per member, nobody rides a shared close
    assert_eq!(off.stats().result_classes, members as u64);
    assert_eq!(off.stats().class_hits, 0);
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

    // the reference arm on the same stream: zero prunes, same results
    let mut off = Hub::new();
    off.set_admission_pruning(false);
    off.register_grouped(&Query::window(24).top(2).slide(s))
        .unwrap();
    off.register_grouped(&Query::window(16).top(3).slide(s))
        .unwrap();
    let mut off_sums = BTreeMap::new();
    for chunk in data.chunks(13) {
        fold_all(&mut off_sums, off.publish(chunk));
    }
    assert_eq!(off.stats().pruned, 0);
    assert_eq!(off.stats().admitted, admitted + pruned);
    assert_eq!(
        sums.values().copied().collect::<Vec<_>>(),
        off_sums.values().copied().collect::<Vec<_>>(),
        "arms must be checksum-identical (ids differ, order does not)"
    );
}
