//! Shared count plane equivalence: a count-based query served by the
//! geometry-grouped fan-out (`HubExt::register_grouped`) must produce
//! the **same results** as an isolated registration
//! (`HubExt::register`) and as a brute-force sliding-window oracle —
//! for SAP and all four baselines, at arbitrary registration offsets
//! (registrations land mid-slide, founding new geometry classes, and on
//! slide boundaries, joining live ones), through mid-stream
//! register/unregister churn, and on an `AsyncHub` with 1, 2, and 8
//! shards of one worker each (count groups are shard-local, like slide
//! groups). A checkpoint cut through a **warm** count group (open slide
//! partially filled) must restore into either hub and continue
//! byte-identically.

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
        // id 1000+i: external ids need not start at 0 — the group ring
        // must translate ordinals to whatever ids the stream carries
        .map(|(i, &score)| Object::new(1_000 + i as u64, (score % 13) as f64))
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

/// Brute-force count-window oracle: top-k of the last `n` objects after
/// `(j + 1) · s` arrivals, ties to the higher id.
fn oracle(seen: &[Object], n: usize, k: usize) -> Vec<Object> {
    let lo = seen.len().saturating_sub(n);
    let mut alive = seen[lo..].to_vec();
    alive.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(b.id.cmp(&a.id)));
    alive.truncate(k);
    alive
}

/// The scripted schedule every surface replays: register `early`
/// queries, publish half the stream in ragged chunks (so later
/// registrations sit at arbitrary offsets mod every `s`), unregister one
/// query and register the rest, publish the remainder. Returns per-query
/// event checksums.
struct Schedule<'a> {
    queries: &'a [Query],
    early: usize,
    data: &'a [Object],
    cuts: &'a [usize],
}

impl Schedule<'_> {
    fn chunks(&self, lo: usize, hi: usize) -> Vec<&[Object]> {
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
            out.push(&self.data[offset..offset + take]);
            offset += take;
        }
        out
    }

    /// Sequential hub; `grouped` picks the registration path and
    /// `sharing` the result-class knob value before each registration
    /// phase (the knob only affects future registrations, so `(false,
    /// true)` produces a mixed classed/unclassed population).
    fn run_hub(
        &self,
        grouped: bool,
        sharing: (bool, bool),
    ) -> (BTreeMap<QueryId, u64>, Option<QueryId>, HubStats) {
        let mut hub = Hub::new();
        let register = |hub: &mut Hub, q: &Query| {
            if grouped {
                hub.register_grouped(q).unwrap()
            } else {
                hub.register(q).unwrap()
            }
        };
        let mut sums = BTreeMap::new();
        hub.set_result_class_sharing(sharing.0);
        for q in &self.queries[..self.early] {
            register(&mut hub, q);
        }
        let mid = self.data.len() / 2;
        for chunk in self.chunks(0, mid) {
            let updates = hub.publish(chunk);
            fold_all(&mut sums, updates);
        }
        let ids: Vec<QueryId> = hub.query_ids().collect();
        let dropped = (ids.len() > 1).then(|| ids[0]);
        if let Some(id) = dropped {
            hub.unregister(id).expect("registered in phase one");
        }
        hub.set_result_class_sharing(sharing.1);
        for q in &self.queries[self.early..] {
            register(&mut hub, q);
        }
        for chunk in self.chunks(mid, self.data.len()) {
            let updates = hub.publish(chunk);
            fold_all(&mut sums, updates);
        }
        (sums, dropped, hub.stats())
    }

    /// Sharded hub, all queries on the shared count plane.
    fn run_sharded(
        &self,
        shards: usize,
        class_sharing: bool,
    ) -> (BTreeMap<QueryId, u64>, Option<QueryId>, HubStats) {
        let mut hub = AsyncHub::new(shards, shards);
        let mut sums = BTreeMap::new();
        if !class_sharing {
            hub.set_result_class_sharing(false).unwrap();
        }
        for q in &self.queries[..self.early] {
            hub.register_grouped(q).unwrap();
        }
        let mid = self.data.len() / 2;
        for chunk in self.chunks(0, mid) {
            hub.publish(chunk).unwrap();
            fold_all(&mut sums, hub.drain().unwrap());
        }
        let ids: Vec<QueryId> = hub.query_ids().collect();
        let dropped = (ids.len() > 1).then(|| ids[0]);
        if let Some(id) = dropped {
            hub.unregister(id).expect("registered in phase one");
        }
        for q in &self.queries[self.early..] {
            hub.register_grouped(q).unwrap();
        }
        for chunk in self.chunks(mid, self.data.len()) {
            hub.publish(chunk).unwrap();
            fold_all(&mut sums, hub.drain().unwrap());
        }
        let stats = hub.stats().unwrap();
        (sums, dropped, stats)
    }

    /// Async hub under a seeded adversarial schedule, all queries on the
    /// shared count plane (classed serving inside worker bursts).
    fn run_async(
        &self,
        shards: usize,
        workers: usize,
        seed: u64,
    ) -> (BTreeMap<QueryId, u64>, Option<QueryId>, HubStats) {
        let mut hub =
            AsyncHub::with_scheduler(shards, workers, Box::new(SeededScheduler::new(seed)));
        let mut sums = BTreeMap::new();
        for q in &self.queries[..self.early] {
            hub.register_grouped(q).unwrap();
        }
        let mid = self.data.len() / 2;
        for chunk in self.chunks(0, mid) {
            hub.publish(chunk).expect("shards alive");
            fold_all(&mut sums, hub.drain().expect("shards alive"));
        }
        let ids: Vec<QueryId> = hub.query_ids().collect();
        let dropped = (ids.len() > 1).then(|| ids[0]);
        if let Some(id) = dropped {
            hub.unregister(id).expect("registered in phase one");
        }
        for q in &self.queries[self.early..] {
            hub.register_grouped(q).unwrap();
        }
        for chunk in self.chunks(mid, self.data.len()) {
            hub.publish(chunk).expect("shards alive");
            fold_all(&mut sums, hub.drain().expect("shards alive"));
        }
        hub.flush().expect("shards alive");
        fold_all(&mut sums, hub.drain().expect("shards alive"));
        let stats = hub.stats().expect("shards alive");
        (sums, dropped, stats)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance anchor: one grouped query — inside a group whose
    /// digest is deeper and whose ring is longer than its own `(n, k)`,
    /// so the prefix slicing and ordinal translation are really
    /// exercised — agrees with the brute-force oracle, snapshot for
    /// snapshot, for every algorithm.
    #[test]
    fn grouped_query_matches_brute_force_oracle(
        scores in vec(0u8..=50, 40..140),
        m in 1usize..=5,
        s in 1usize..=7,
        k in 1usize..=6,
        extra in 0usize..=3,
        kind_idx in 0usize..5,
    ) {
        let n = s * m;
        let k = k.min(n);
        let data = stream(&scores);
        let kinds = all_kinds();
        let query = Query::window(n)
            .top(k)
            .slide(s)
            .algorithm(kinds[kind_idx]);
        // a deeper, wider sibling in the same geometry class: the
        // group's k_max and ring retention exceed `query`'s needs
        let deep = Query::window(s * (m + 1))
            .top((k + extra).min(s * (m + 1)))
            .slide(s)
            .algorithm(kinds[(kind_idx + 1) % 5]);

        let mut hub = Hub::new();
        hub.register_grouped(&deep).unwrap();
        let qid = hub.register_grouped(&query).unwrap();
        let mut got: Vec<Snapshot> = Vec::new();
        for chunk in data.chunks(11) {
            got.extend(
                hub.publish(chunk)
                    .into_iter()
                    .filter(|u| u.query == qid)
                    .map(|u| u.result.snapshot),
            );
        }
        let expected: Vec<Vec<Object>> = (1..=data.len() / s)
            .map(|j| oracle(&data[..j * s], n, k))
            .collect();
        prop_assert_eq!(&got, &expected, "grouped plane diverged from oracle");
        let stats = hub.stats();
        prop_assert_eq!(stats.grouped_queries, 2);
        prop_assert_eq!(stats.count_groups, 1, "same geometry class, one group");
        if !expected.is_empty() {
            prop_assert!(stats.count_group_hits > 0);
        }
    }

    /// The churn property: the same schedule — mid-stream unregister,
    /// and registrations at arbitrary stream offsets that found new
    /// geometry classes or join live ones on empty-slide boundaries —
    /// replayed on the isolated sequential hub, the grouped sequential
    /// hub, and the grouped sharded hub at 1/2/8 shards, must produce
    /// identical per-query event checksums.
    #[test]
    fn grouped_hubs_stay_byte_identical_with_mid_stream_churn(
        scores in vec(0u8..=50, 50..200),
        geoms in vec((1usize..=4, 1usize..=6, 0usize..2, 0usize..5), 3..8),
        s_base in 1usize..=6,
        cuts in vec(1usize..=23, 0..6),
        early_frac in 1usize..=100,
    ) {
        let data = stream(&scores);
        let kinds = all_kinds();
        // only two distinct slide lengths: late joiners that happen to
        // land on an empty-slide boundary join a live group, the rest
        // found classes at their own offsets
        let sds = [s_base, s_base * 2];
        let queries: Vec<Query> = geoms
            .iter()
            .map(|&(m, k, s_idx, kind_idx)| {
                let s = sds[s_idx];
                Query::window(s * m)
                    .top(k.min(s * m))
                    .slide(s)
                    .algorithm(kinds[kind_idx])
            })
            .collect();
        let schedule = Schedule {
            early: (early_frac * queries.len()).div_ceil(100).min(queries.len()),
            queries: &queries,
            data: &data,
            cuts: &cuts,
        };

        let (expected, iso_dropped, iso_stats) = schedule.run_hub(false, (true, true));
        prop_assert!(!expected.is_empty());
        prop_assert!(iso_stats.count_group_rebuilds > 0, "isolated slides count as rebuilds");
        let (grouped, grouped_dropped, grouped_stats) = schedule.run_hub(true, (true, true));
        prop_assert_eq!(grouped_dropped, iso_dropped);
        prop_assert_eq!(
            &grouped, &expected,
            "grouped sequential hub diverged from isolated (queries={}, early={})",
            queries.len(), schedule.early
        );
        prop_assert!(grouped_stats.count_group_hits > 0);
        prop_assert_eq!(grouped_stats.count_group_rebuilds, 0, "no isolated sessions here");
        for shards in [1usize, 2, 8] {
            let (got, par_dropped, par_stats) = schedule.run_sharded(shards, true);
            prop_assert_eq!(par_dropped, iso_dropped, "unregister targets diverged");
            prop_assert_eq!(
                &got, &expected,
                "grouped sharded hub diverged at {} shards (queries={}, early={})",
                shards, queries.len(), schedule.early
            );
            prop_assert_eq!(par_stats.count_group_hits, grouped_stats.count_group_hits,
                "sharding must not change how many slides the plane serves");
        }
    }

    /// The memoization property: result-class serving (the default), the
    /// pre-memoization per-member path (knob off), a mixed population
    /// (knob flipped mid-stream), the sharded hub with the knob off, and
    /// the async hub under seeded schedules all produce identical
    /// per-query event checksums to the isolated hub — which the oracle
    /// property above anchors to brute force. Geometries are drawn in
    /// duplicate so multi-member classes actually form.
    #[test]
    fn class_memoization_is_result_invisible(
        scores in vec(0u8..=50, 50..160),
        geoms in vec((1usize..=4, 1usize..=6, 0usize..5), 2..5),
        s_base in 1usize..=5,
        cuts in vec(1usize..=23, 0..6),
        early_frac in 1usize..=100,
        seed in 0u64..u64::MAX,
    ) {
        let data = stream(&scores);
        let kinds = all_kinds();
        let queries: Vec<Query> = geoms
            .iter()
            .flat_map(|&(m, k, kind_idx)| {
                let q = Query::window(s_base * m)
                    .top(k.min(s_base * m))
                    .slide(s_base)
                    .algorithm(kinds[kind_idx]);
                // a twin per geometry: every result class that survives
                // churn has at least two members to memoize across
                [q.clone(), q]
            })
            .collect();
        let schedule = Schedule {
            early: (early_frac * queries.len()).div_ceil(100).min(queries.len()),
            queries: &queries,
            data: &data,
            cuts: &cuts,
        };

        let (expected, iso_dropped, _) = schedule.run_hub(false, (true, true));
        prop_assert!(!expected.is_empty());
        let (memo, memo_dropped, memo_stats) = schedule.run_hub(true, (true, true));
        prop_assert_eq!(memo_dropped, iso_dropped);
        prop_assert_eq!(&memo, &expected, "classed hub diverged from isolated");
        prop_assert!(
            memo_stats.class_hits > 0,
            "duplicated geometries must form multi-member classes"
        );

        let (off, off_dropped, off_stats) = schedule.run_hub(true, (false, false));
        prop_assert_eq!(off_dropped, iso_dropped);
        prop_assert_eq!(&off, &expected, "knob-off hub diverged from isolated");
        // knob off founds uniform solo classes — per-member serving, so
        // nothing is ever served off another member's computation
        prop_assert_eq!(off_stats.class_hits, 0);

        let (mixed, mixed_dropped, _) = schedule.run_hub(true, (false, true));
        prop_assert_eq!(mixed_dropped, iso_dropped);
        prop_assert_eq!(&mixed, &expected, "mixed classed/unclassed hub diverged");

        let (sharded_off, so_dropped, _) = schedule.run_sharded(2, false);
        prop_assert_eq!(so_dropped, iso_dropped);
        prop_assert_eq!(&sharded_off, &expected, "knob-off sharded hub diverged");

        for (shards, workers) in [(1usize, 1usize), (2, 2), (8, 3)] {
            let (got, async_dropped, async_stats) = schedule.run_async(shards, workers, seed);
            prop_assert_eq!(async_dropped, iso_dropped);
            prop_assert_eq!(
                &got, &expected,
                "async hub diverged (seed={:#018x}, shards={}, workers={})",
                seed, shards, workers
            );
            prop_assert!(async_stats.result_classes > 0, "classes survive the reactor");
        }
    }
}

/// Pins the tentpole's sharing mechanism, not just its results: on a
/// slide close, every member of a result class receives a clone of the
/// **same** `Snapshot` allocation (`Arc::ptr_eq`), while with the knob
/// off each member materializes its own. Results are checksum-identical
/// either way.
#[test]
fn class_members_share_one_snapshot_allocation() {
    let data = stream(&(0..96).map(|i| (i * 5 % 23) as u8).collect::<Vec<_>>());
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

/// A checkpoint cut through a **warm** count group — the open slide
/// partially filled, the ring mid-stream — must restore into both hub
/// flavors and continue byte-identically with the uninterrupted run,
/// with the sharing counters carried over.
#[test]
fn checkpoint_cuts_through_a_warm_count_group() {
    let kinds = all_kinds();
    let data = stream(&(0..400).map(|i| (i * 7 % 51) as u8).collect::<Vec<_>>());
    let mut hub = Hub::new();
    for (i, kind) in kinds.iter().enumerate() {
        // two geometry classes (s = 10 registered up front, s = 6 via the
        // second query each), k varies so k_max grows on join
        hub.register_grouped(&Query::window(30).top(1 + i).slide(10).algorithm(*kind))
            .unwrap();
        hub.register_grouped(&Query::window(12).top(1 + i % 3).slide(6).algorithm(*kind))
            .unwrap();
    }
    // 157 = 15 full s=10 slides + 7 pending, 26 full s=6 slides + 1
    // pending: both groups are warm at the cut
    let mut sums = BTreeMap::new();
    fold_all(&mut sums, hub.publish(&data[..157]));
    let cp = hub.checkpoint();
    let stats_at_cut = hub.stats();
    assert_eq!(stats_at_cut.count_groups, 2);
    assert!(stats_at_cut.count_group_hits > 0);

    // the uninterrupted run is the reference
    let mut expected_tail = BTreeMap::new();
    fold_all(&mut expected_tail, hub.publish(&data[157..]));
    assert!(!expected_tail.is_empty());

    // sequential restore — class_hits is serving locality, not state:
    // a restore rebuilds the result classes and counts fresh
    let mut expected_stats = stats_at_cut;
    expected_stats.class_hits = 0;
    let mut seq = Hub::restore(&cp, &DefaultEngineFactory).unwrap();
    assert_eq!(
        seq.stats(),
        expected_stats,
        "counters travel with the checkpoint"
    );
    let mut seq_tail = BTreeMap::new();
    fold_all(&mut seq_tail, seq.publish(&data[157..]));
    assert_eq!(seq_tail, expected_tail, "sequential restore diverged");

    // sharded restore, groups placed wholesale on their members' shards
    for shards in [1usize, 3] {
        let mut par = AsyncHub::restore(&cp, &DefaultEngineFactory, shards, shards).unwrap();
        // the queue high-water mark is the executor's, not checkpointed
        let restored = HubStats {
            queue_depth_hwm: 0,
            ..par.stats().unwrap()
        };
        assert_eq!(restored, expected_stats, "shards={shards}");
        let mut par_tail = BTreeMap::new();
        for chunk in data[157..].chunks(31) {
            par.publish(chunk).unwrap();
            fold_all(&mut par_tail, par.drain().unwrap());
        }
        assert_eq!(
            par_tail, expected_tail,
            "sharded restore diverged at {shards} shards"
        );
        // the restored plane keeps serving registrations: a new query at
        // the restored offset still lands in a (possibly fresh) group
        par.register_grouped(&Query::window(20).top(2).slide(10))
            .unwrap();
        par.publish(&data[..20]).unwrap();
        par.drain().unwrap();
    }
}

/// Whole-group migration: moving one grouped member relocates its entire
/// count group, and results are unchanged across the move.
#[test]
fn move_query_relocates_the_whole_count_group() {
    let data = stream(&(0..240).map(|i| (i * 11 % 37) as u8).collect::<Vec<_>>());
    let mut reference = Hub::new();
    let mut hub = AsyncHub::new(4, 4);
    let mut ids = Vec::new();
    for k in 1..=4usize {
        reference
            .register_grouped(&Query::window(16).top(k).slide(8))
            .unwrap();
        ids.push(
            hub.register_grouped(&Query::window(16).top(k).slide(8))
                .unwrap(),
        );
    }
    let mut expected = BTreeMap::new();
    let mut got = BTreeMap::new();
    fold_all(&mut expected, reference.publish(&data[..100]));
    hub.publish(&data[..100]).unwrap();
    fold_all(&mut got, hub.drain().unwrap());
    // bounce the group around between publishes, mid-slide (100 % 8 ≠ 0)
    for target in [2usize, 0, 3] {
        hub.move_query(ids[1], target).unwrap();
    }
    fold_all(&mut expected, reference.publish(&data[100..]));
    hub.publish(&data[100..]).unwrap();
    fold_all(&mut got, hub.drain().unwrap());
    assert_eq!(got, expected, "results must be placement-blind");
    let stats = hub.stats().unwrap();
    assert_eq!(stats.count_groups, 1, "one geometry class, moved wholesale");
    assert_eq!(stats.grouped_queries, 4);
}

/// Resize re-scatters count groups wholesale and preserves results.
#[test]
fn resize_preserves_the_count_plane() {
    let data = stream(&(0..300).map(|i| (i * 13 % 41) as u8).collect::<Vec<_>>());
    let mut reference = Hub::new();
    let mut hub = AsyncHub::new(2, 2);
    for i in 0..6usize {
        let q = Query::window(12 * (1 + i % 2)).top(1 + i % 4).slide(12);
        reference.register_grouped(&q).unwrap();
        hub.register_grouped(&q).unwrap();
    }
    let mut expected = BTreeMap::new();
    let mut got = BTreeMap::new();
    // 130 % 12 ≠ 0: the group is warm when the resize cuts through
    fold_all(&mut expected, reference.publish(&data[..130]));
    hub.publish(&data[..130]).unwrap();
    fold_all(&mut got, hub.drain().unwrap());
    hub.resize(5).unwrap();
    fold_all(&mut expected, reference.publish(&data[130..]));
    hub.publish(&data[130..]).unwrap();
    fold_all(&mut got, hub.drain().unwrap());
    assert_eq!(got, expected, "resize must not perturb the count plane");
    assert_eq!(hub.stats().unwrap().count_groups, 1);
}
