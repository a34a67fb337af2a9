//! Admission-control equivalence: ingest-side dominance pruning and
//! predicate-filtered subscriptions must be **result-invisible**. The
//! pruning arm (knob on, the default), the reference arm (knob off),
//! and a brute-force oracle that ranks the predicate-matching slice of
//! the window must agree — for SAP and all four baselines, on the
//! count plane (`register_grouped`) and the timed plane
//! (`register_shared`), through mid-stream register/unregister churn
//! and `move_query`, on an `AsyncHub` with a worker per shard at 1/2/8
//! shards and on the seeded `AsyncHub`. The pruned counter itself is
//! pinned by an independent re-simulation of the k-skyband gate, and a
//! checkpoint cut through a **warm** pruning group must restore at a
//! different shard count and continue byte-identically.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sap::prelude::*;

mod common;
use common::fold_all;

fn stream(scores: &[u8]) -> Vec<Object> {
    scores
        .iter()
        .enumerate()
        .map(|(i, &score)| Object::new(1_000 + i as u64, score as f64))
        .collect()
}

/// Timed stream from (gap, score) pairs: timestamps accumulate the
/// gaps, so slides range from packed to empty.
fn timed_stream(raw: &[(u8, u8)]) -> Vec<TimedObject> {
    let mut ts = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(gap, score))| {
            ts += gap as u64;
            TimedObject::try_new(i as u64, ts, score as f64).expect("finite")
        })
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

/// Brute-force count-window oracle with a predicate: the window is the
/// last `n` arrivals (predicates filter the *ranking*, not the stream),
/// the ranking is the top-k of the matching slice, ties to the higher
/// id.
fn oracle(seen: &[Object], n: usize, k: usize, predicate: Predicate) -> Vec<Object> {
    let lo = seen.len().saturating_sub(n);
    let mut alive: Vec<Object> = seen[lo..]
        .iter()
        .filter(|o| predicate.accepts(o))
        .copied()
        .collect();
    alive.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(b.id.cmp(&a.id)));
    alive.truncate(k);
    alive
}

/// The scripted churn schedule: register `early` queries, publish half
/// the stream in ragged chunks, unregister one query and register the
/// rest, publish the remainder. Identical to the fan-out suite's
/// schedule, except every hub runs with the admission knob in a chosen
/// position and queries may carry predicates.
struct Schedule<'a> {
    queries: &'a [Query],
    early: usize,
    count_data: &'a [Object],
    timed_data: &'a [TimedObject],
    cuts: &'a [usize],
}

impl Schedule<'_> {
    fn bounds(&self) -> (usize, usize) {
        let len = if self.timed_data.is_empty() {
            self.count_data.len()
        } else {
            self.timed_data.len()
        };
        (len / 2, len)
    }

    fn chunk_sizes(&self, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut offset = lo;
        let mut turn = 0usize;
        while offset < hi {
            let take = if self.cuts.is_empty() {
                1
            } else {
                self.cuts[turn % self.cuts.len()]
            }
            .min(hi - offset);
            turn += 1;
            out.push((offset, offset + take));
            offset += take;
        }
        out
    }

    /// Sequential hub with the knob in the given position; `timed`
    /// picks the plane (`register_shared`+`publish_timed` vs
    /// `register_grouped`+`publish`).
    fn run_hub(&self, pruning: bool, timed: bool) -> (BTreeMap<QueryId, u64>, HubStats) {
        let mut hub = Hub::new();
        hub.set_admission_pruning(pruning);
        let register = |hub: &mut Hub, q: &Query| {
            if timed {
                hub.register_shared(q).unwrap();
            } else {
                hub.register_grouped(q).unwrap();
            }
        };
        let mut sums = BTreeMap::new();
        for q in &self.queries[..self.early] {
            register(&mut hub, q);
        }
        let (mid, len) = self.bounds();
        for (lo, hi) in self.chunk_sizes(0, mid) {
            let updates = if timed {
                hub.publish_timed(&self.timed_data[lo..hi])
            } else {
                hub.publish(&self.count_data[lo..hi])
            };
            fold_all(&mut sums, updates);
        }
        let ids: Vec<QueryId> = hub.query_ids().collect();
        if ids.len() > 1 {
            hub.unregister(ids[0]).expect("registered in phase one");
        }
        for q in &self.queries[self.early..] {
            register(&mut hub, q);
        }
        for (lo, hi) in self.chunk_sizes(mid, len) {
            let updates = if timed {
                hub.publish_timed(&self.timed_data[lo..hi])
            } else {
                hub.publish(&self.count_data[lo..hi])
            };
            fold_all(&mut sums, updates);
        }
        (sums, hub.stats())
    }

    /// Sharded hub, same schedule, knob broadcast to every shard.
    fn run_sharded(
        &self,
        shards: usize,
        pruning: bool,
        timed: bool,
    ) -> (BTreeMap<QueryId, u64>, HubStats) {
        let mut hub = AsyncHub::new(shards, shards);
        hub.set_admission_pruning(pruning).unwrap();
        let mut sums = BTreeMap::new();
        for q in &self.queries[..self.early] {
            if timed {
                hub.register_shared(q).unwrap();
            } else {
                hub.register_grouped(q).unwrap();
            }
        }
        let (mid, len) = self.bounds();
        for (lo, hi) in self.chunk_sizes(0, mid) {
            if timed {
                hub.publish_timed(&self.timed_data[lo..hi]).unwrap();
            } else {
                hub.publish(&self.count_data[lo..hi]).unwrap();
            }
            fold_all(&mut sums, hub.drain().unwrap());
        }
        let ids: Vec<QueryId> = hub.query_ids().collect();
        if ids.len() > 1 {
            hub.unregister(ids[0]).expect("registered in phase one");
        }
        for q in &self.queries[self.early..] {
            if timed {
                hub.register_shared(q).unwrap();
            } else {
                hub.register_grouped(q).unwrap();
            }
        }
        for (lo, hi) in self.chunk_sizes(mid, len) {
            if timed {
                hub.publish_timed(&self.timed_data[lo..hi]).unwrap();
            } else {
                hub.publish(&self.count_data[lo..hi]).unwrap();
            }
            fold_all(&mut sums, hub.drain().unwrap());
        }
        let stats = hub.stats().unwrap();
        (sums, stats)
    }

    /// Async hub under a seeded adversarial schedule.
    fn run_async(
        &self,
        shards: usize,
        workers: usize,
        seed: u64,
        pruning: bool,
        timed: bool,
    ) -> (BTreeMap<QueryId, u64>, HubStats) {
        let mut hub =
            AsyncHub::with_scheduler(shards, workers, Box::new(SeededScheduler::new(seed)));
        hub.set_admission_pruning(pruning).unwrap();
        let mut sums = BTreeMap::new();
        for q in &self.queries[..self.early] {
            if timed {
                hub.register_shared(q).unwrap();
            } else {
                hub.register_grouped(q).unwrap();
            }
        }
        let (mid, len) = self.bounds();
        for (lo, hi) in self.chunk_sizes(0, mid) {
            if timed {
                hub.publish_timed(&self.timed_data[lo..hi]).unwrap();
            } else {
                hub.publish(&self.count_data[lo..hi]).unwrap();
            }
            fold_all(&mut sums, hub.drain().unwrap());
        }
        let ids: Vec<QueryId> = hub.query_ids().collect();
        if ids.len() > 1 {
            hub.unregister(ids[0]).expect("registered in phase one");
        }
        for q in &self.queries[self.early..] {
            if timed {
                hub.register_shared(q).unwrap();
            } else {
                hub.register_grouped(q).unwrap();
            }
        }
        for (lo, hi) in self.chunk_sizes(mid, len) {
            if timed {
                hub.publish_timed(&self.timed_data[lo..hi]).unwrap();
            } else {
                hub.publish(&self.count_data[lo..hi]).unwrap();
            }
            fold_all(&mut sums, hub.drain().unwrap());
        }
        hub.flush().expect("shards alive");
        fold_all(&mut sums, hub.drain().expect("shards alive"));
        let stats = hub.stats().expect("shards alive");
        (sums, stats)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The oracle anchor: a predicate-filtered grouped query — sharing
    /// its geometry class with a pass-all sibling, so the
    /// predicate-disjoint sub-group split is really exercised — agrees
    /// with the brute-force predicate-aware oracle snapshot for
    /// snapshot, with pruning on *and* off, for every algorithm.
    #[test]
    fn filtered_grouped_query_matches_brute_force_oracle(
        scores in vec(0u8..=50, 40..140),
        m in 1usize..=5,
        s in 1usize..=7,
        k in 1usize..=6,
        threshold in 0u8..=40,
        kind_idx in 0usize..5,
        pruning_arm in 0u8..2,
    ) {
        let pruning = pruning_arm == 1;
        let n = s * m;
        let k = k.min(n);
        let data = stream(&scores);
        let kinds = all_kinds();
        let predicate = Predicate::any().score_at_least(threshold as f64);
        let query = Query::window(n)
            .top(k)
            .slide(s)
            .algorithm(kinds[kind_idx])
            .filter(predicate);
        // a pass-all sibling in the same geometry class: the class must
        // split into predicate-disjoint sub-groups, and the sibling's
        // stream must stay unfiltered
        let sibling = Query::window(n)
            .top(k)
            .slide(s)
            .algorithm(kinds[(kind_idx + 1) % 5]);

        let mut hub = Hub::new();
        hub.set_admission_pruning(pruning);
        let sib = hub.register_grouped(&sibling).unwrap();
        let qid = hub.register_grouped(&query).unwrap();
        let mut got: Vec<Snapshot> = Vec::new();
        let mut got_sib: Vec<Snapshot> = Vec::new();
        for chunk in data.chunks(11) {
            for u in hub.publish(chunk) {
                if u.query == qid {
                    got.push(u.result.snapshot);
                } else if u.query == sib {
                    got_sib.push(u.result.snapshot);
                }
            }
        }
        let expected: Vec<Vec<Object>> = (1..=data.len() / s)
            .map(|j| oracle(&data[..j * s], n, k, predicate))
            .collect();
        let expected_sib: Vec<Vec<Object>> = (1..=data.len() / s)
            .map(|j| oracle(&data[..j * s], n, k, Predicate::any()))
            .collect();
        prop_assert_eq!(&got, &expected, "filtered member diverged from oracle");
        prop_assert_eq!(&got_sib, &expected_sib, "pass-all sibling diverged from oracle");
        let stats = hub.stats();
        prop_assert_eq!(
            stats.count_groups, 2,
            "one geometry class, two predicate-disjoint sub-groups"
        );
        if !pruning {
            prop_assert_eq!(stats.pruned, 0, "knob off is the reference arm");
        }
        if !expected.is_empty() {
            prop_assert!(stats.admitted > 0);
        }
    }

    /// The count-plane churn property: the same schedule — mid-stream
    /// unregister, late registrations founding or joining sub-groups,
    /// mixed predicates — replayed with pruning on and off, on the
    /// sequential hub, the sharded hub at 1/2/8 shards, and the seeded
    /// async hub, must produce identical per-query event checksums.
    /// The pruned counter is deterministic, so every pruning arm
    /// reports the same count.
    #[test]
    fn pruning_is_result_invisible_under_count_plane_churn(
        scores in vec(0u8..=50, 50..200),
        geoms in vec((1usize..=4, 1usize..=6, 0usize..5, 0u8..3), 3..8),
        s_base in 1usize..=6,
        cuts in vec(1usize..=23, 0..6),
        early_frac in 1usize..=100,
        seed in 0u64..u64::MAX,
    ) {
        let data = stream(&scores);
        let kinds = all_kinds();
        let queries: Vec<Query> = geoms
            .iter()
            .map(|&(m, k, kind_idx, pred_idx)| {
                let predicate = match pred_idx {
                    0 => Predicate::any(),
                    1 => Predicate::any().score_at_least(20.0),
                    _ => Predicate::any().score_at_most(35.0),
                };
                Query::window(s_base * m)
                    .top(k.min(s_base * m))
                    .slide(s_base)
                    .algorithm(kinds[kind_idx])
                    .filter(predicate)
            })
            .collect();
        let schedule = Schedule {
            early: (early_frac * queries.len()).div_ceil(100).min(queries.len()),
            queries: &queries,
            count_data: &data,
            timed_data: &[],
            cuts: &cuts,
        };

        let (expected, off_stats) = schedule.run_hub(false, false);
        prop_assert!(!expected.is_empty());
        prop_assert_eq!(off_stats.pruned, 0, "knob off never prunes");
        let (on, on_stats) = schedule.run_hub(true, false);
        prop_assert_eq!(&on, &expected, "pruning arm diverged from reference");
        prop_assert_eq!(
            on_stats.admitted + on_stats.pruned, off_stats.admitted,
            "pruning only reroutes admissions, it never changes their total"
        );
        for shards in [1usize, 2, 8] {
            let (got, par_stats) = schedule.run_sharded(shards, true, false);
            prop_assert_eq!(
                &got, &expected,
                "sharded pruning arm diverged at {} shards", shards
            );
            prop_assert_eq!(
                par_stats.pruned, on_stats.pruned,
                "the gate is deterministic: same stream, same prunes"
            );
        }
        let (got, async_stats) = schedule.run_async(2, 2, seed, true, false);
        prop_assert_eq!(&got, &expected, "async pruning arm diverged (seed={:#018x})", seed);
        prop_assert_eq!(async_stats.pruned, on_stats.pruned);
    }

    /// The timed-plane churn property: the same invariants on the
    /// shared digest plane — slide groups keyed by (slide duration,
    /// predicate), variable-rate streams with empty and packed slides.
    #[test]
    fn pruning_is_result_invisible_under_timed_plane_churn(
        raw in vec((0u8..=12, 0u8..=50), 50..160),
        geoms in vec((1u64..=4, 1usize..=6, 0usize..5, 0u8..3), 3..7),
        sd_base in 1u64..=6,
        cuts in vec(1usize..=23, 0..6),
        early_frac in 1usize..=100,
        seed in 0u64..u64::MAX,
    ) {
        let data = timed_stream(&raw);
        let kinds = all_kinds();
        let queries: Vec<Query> = geoms
            .iter()
            .map(|&(m, k, kind_idx, pred_idx)| {
                let predicate = match pred_idx {
                    0 => Predicate::any(),
                    1 => Predicate::any().score_at_least(20.0),
                    _ => Predicate::any().score_at_most(35.0),
                };
                Query::window_duration(sd_base * m)
                    .top(k)
                    .slide_duration(sd_base)
                    .algorithm(kinds[kind_idx])
                    .filter(predicate)
            })
            .collect();
        let schedule = Schedule {
            early: (early_frac * queries.len()).div_ceil(100).min(queries.len()),
            queries: &queries,
            count_data: &[],
            timed_data: &data,
            cuts: &cuts,
        };

        let (expected, off_stats) = schedule.run_hub(false, true);
        prop_assert_eq!(off_stats.pruned, 0, "knob off never prunes");
        let (on, on_stats) = schedule.run_hub(true, true);
        prop_assert_eq!(&on, &expected, "timed pruning arm diverged from reference");
        prop_assert_eq!(on_stats.admitted + on_stats.pruned, off_stats.admitted);
        for shards in [1usize, 2, 8] {
            let (got, par_stats) = schedule.run_sharded(shards, true, true);
            prop_assert_eq!(
                &got, &expected,
                "sharded timed pruning arm diverged at {} shards", shards
            );
            prop_assert_eq!(par_stats.pruned, on_stats.pruned);
        }
        let (got, _) = schedule.run_async(2, 2, seed, true, true);
        prop_assert_eq!(&got, &expected, "async timed pruning arm diverged (seed={:#018x})", seed);
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
    let data = stream(
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

/// A checkpoint cut through a **warm** pruning group — open slide
/// partially filled, the gate holding admitted scores, predicates and
/// admission counters live — must restore into the sequential hub and
/// the sharded hub at a *different* shard count, continue
/// byte-identically, and carry the admission counters (FORMAT v3).
#[test]
fn checkpoint_cuts_through_a_warm_pruning_group() {
    let kinds = all_kinds();
    let data = stream(
        &(0..400)
            .map(|i| ((i * 7 + 3) % 51) as u8)
            .collect::<Vec<_>>(),
    );
    let mut hub = AsyncHub::new(2, 2);
    for (i, kind) in kinds.iter().enumerate() {
        hub.register_grouped(
            &Query::window(30)
                .top(1 + i)
                .slide(10)
                .algorithm(*kind)
                .filter(Predicate::any().score_at_least(10.0)),
        )
        .unwrap();
        hub.register_grouped(&Query::window(12).top(1 + i % 3).slide(6).algorithm(*kind))
            .unwrap();
    }
    // 157 % 10 ≠ 0 and 157 % 6 ≠ 0: both sub-groups are warm at the cut
    let mut sums = BTreeMap::new();
    hub.publish(&data[..157]).unwrap();
    fold_all(&mut sums, hub.drain().unwrap());
    let (cp, residue) = hub.checkpoint().unwrap();
    fold_all(&mut sums, residue);
    // the queue high-water mark is the executor's, not checkpointed
    let stats_at_cut = HubStats {
        queue_depth_hwm: 0,
        ..hub.stats().unwrap()
    };
    assert_eq!(
        stats_at_cut.count_groups, 2,
        "predicate-disjoint members split one geometry class"
    );
    assert!(
        stats_at_cut.pruned > 0,
        "the cut must pass through a warm gate"
    );

    let mut expected_tail = BTreeMap::new();
    hub.publish(&data[157..]).unwrap();
    fold_all(&mut expected_tail, hub.drain().unwrap());
    assert!(!expected_tail.is_empty());

    // restore at a different shard count and into the sequential hub
    let mut expected_stats = stats_at_cut;
    expected_stats.class_hits = 0;
    for shards in [1usize, 5] {
        let mut par = AsyncHub::restore(&cp, &DefaultEngineFactory, shards, shards).unwrap();
        let restored = HubStats {
            queue_depth_hwm: 0,
            ..par.stats().unwrap()
        };
        assert_eq!(
            restored, expected_stats,
            "admission counters travel (shards={shards})"
        );
        let mut par_tail = BTreeMap::new();
        for chunk in data[157..].chunks(31) {
            par.publish(chunk).unwrap();
            fold_all(&mut par_tail, par.drain().unwrap());
        }
        assert_eq!(
            par_tail, expected_tail,
            "restore diverged at {shards} shards"
        );
    }
    let mut seq = Hub::restore(&cp, &DefaultEngineFactory).unwrap();
    assert_eq!(seq.stats(), expected_stats);
    let mut seq_tail = BTreeMap::new();
    fold_all(&mut seq_tail, seq.publish(&data[157..]));
    assert_eq!(seq_tail, expected_tail, "sequential restore diverged");
}

/// Whole-group migration with live predicates and a warm gate: moving
/// one filtered member relocates its sub-group, and results are
/// placement-blind.
#[test]
fn move_query_relocates_a_filtered_pruning_group() {
    let data = stream(
        &(0..240)
            .map(|i| ((i * 11 + 5) % 37) as u8)
            .collect::<Vec<_>>(),
    );
    let predicate = Predicate::any().score_at_least(8.0);
    let mut reference = Hub::new();
    let mut hub = AsyncHub::new(4, 4);
    let mut ids = Vec::new();
    for k in 1..=4usize {
        let q = Query::window(16).top(k).slide(8).filter(predicate);
        reference.register_grouped(&q).unwrap();
        ids.push(hub.register_grouped(&q).unwrap());
    }
    let mut expected = BTreeMap::new();
    let mut got = BTreeMap::new();
    fold_all(&mut expected, reference.publish(&data[..100]));
    hub.publish(&data[..100]).unwrap();
    fold_all(&mut got, hub.drain().unwrap());
    // bounce the sub-group between shards mid-slide (100 % 8 ≠ 0)
    for target in [2usize, 0, 3] {
        hub.move_query(ids[1], target).unwrap();
    }
    fold_all(&mut expected, reference.publish(&data[100..]));
    hub.publish(&data[100..]).unwrap();
    fold_all(&mut got, hub.drain().unwrap());
    assert_eq!(got, expected, "results must be placement-blind");
    let stats = hub.stats().unwrap();
    assert_eq!(stats.count_groups, 1, "one sub-group, moved wholesale");
    assert_eq!(
        stats.pruned,
        reference.stats().pruned,
        "the gate moved with it"
    );
    assert!(stats.pruned > 0);
}
