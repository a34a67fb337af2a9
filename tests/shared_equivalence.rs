//! Shared digest plane equivalence: a time-based query served by the
//! shared plane (`HubExt::register_shared`) must produce the **same
//! results** as every isolated surface — the raw `TimeBased` adapter, an
//! isolated `TimedSession`, the sequential `Hub`'s isolated timed path —
//! and as a brute-force time-window oracle; and the `AsyncHub`'s
//! shard-local slide groups must reproduce the sequential shared hub
//! checksum-for-checksum at 1, 2, and 8 shards (a worker each). Streams
//! are jittered (bursts, quiet stretches, empty slides), schedules
//! include mid-stream register/unregister where a late joiner **grows
//! the group's `k_max`**, and a regression test pins the slide-boundary
//! tie-break (newer id wins) through the shared path.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sap::prelude::*;

mod common;
use common::fold_all;

/// Builds a timed stream from (gap, score) pairs: timestamps accumulate
/// the gaps (gap 0 = same-instant burst; large gaps = empty slides).
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

/// Brute-force time-window oracle: top-k of the objects with
/// `timestamp ∈ [window_end − duration, window_end)`, ties to the higher
/// id, as untimed result objects.
fn oracle(all: &[TimedObject], window_end: u64, duration: u64, k: usize) -> Vec<Object> {
    let lo = window_end.saturating_sub(duration);
    let mut alive: Vec<TimedObject> = all
        .iter()
        .filter(|o| o.timestamp >= lo && o.timestamp < window_end)
        .copied()
        .collect();
    alive.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(b.id.cmp(&a.id)));
    alive.truncate(k);
    alive.iter().map(TimedObject::untimed).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance anchor: one query on the shared plane — inside a
    /// group whose digests are *deeper* than its own `k`, so the prefix
    /// slicing is really exercised — agrees with the brute-force oracle,
    /// the raw adapter, and an isolated `TimedSession`, snapshot for
    /// snapshot.
    #[test]
    fn shared_query_matches_oracle_adapter_and_isolated_session(
        raw in vec((0u8..=12, 0u8..24), 40..160),
        m in 1u64..=6,
        sd in 1u64..=25,
        k in 1usize..=5,
        extra_k in 0usize..=4,
        algo_idx in 0usize..3,
    ) {
        let wd = sd * m;
        let data = timed_stream(&raw);
        let horizon = data.last().unwrap().timestamp + wd + sd;
        let kinds = [
            AlgorithmKind::sap(),
            AlgorithmKind::MinTopK,
            AlgorithmKind::KSkyband,
        ];
        let query = Query::window_duration(wd)
            .top(k)
            .slide_duration(sd)
            .algorithm(kinds[algo_idx]);
        // a deeper sibling in the same slide group: the group's k_max
        // becomes k + extra_k, so `query` consumes digest prefixes
        let deep = Query::window_duration(sd * (m + 1))
            .top(k + extra_k)
            .slide_duration(sd)
            .algorithm(kinds[(algo_idx + 1) % 3]);

        // ground truth: the raw adapter, itself oracle-checked
        let mut direct = query.build_timed().unwrap();
        let mut expected: Vec<Vec<Object>> = Vec::new();
        for &o in &data {
            for snap in direct.ingest(o) {
                expected.push(snap.iter().map(TimedObject::untimed).collect());
            }
        }
        for snap in direct.advance_to(horizon) {
            expected.push(snap.iter().map(TimedObject::untimed).collect());
        }
        prop_assert!(!expected.is_empty());
        for (i, snap) in expected.iter().enumerate() {
            let window_end = sd * (i as u64 + 1);
            prop_assert_eq!(
                snap,
                &oracle(&data, window_end, wd, k),
                "adapter vs oracle at window ending {} (wd={}, sd={}, k={})",
                window_end, wd, sd, k
            );
        }

        // an isolated TimedSession over the same stream
        let mut session = query.timed_session().unwrap();
        let mut isolated: Vec<Snapshot> = Vec::new();
        for chunk in data.chunks(7) {
            isolated.extend(session.push_timed(chunk).into_iter().map(|r| r.snapshot));
        }
        isolated.extend(session.advance_watermark(horizon).into_iter().map(|r| r.snapshot));
        prop_assert_eq!(&isolated, &expected, "TimedSession diverged");

        // the shared plane, deep sibling registered first
        let mut hub = Hub::new();
        hub.register_shared(&deep).unwrap();
        let qid = hub.register_shared(&query).unwrap();
        let mut got: Vec<Snapshot> = Vec::new();
        for chunk in data.chunks(11) {
            got.extend(
                hub.publish_timed(chunk)
                    .into_iter()
                    .filter(|u| u.query == qid)
                    .map(|u| u.result.snapshot),
            );
        }
        got.extend(
            hub.advance_time(horizon)
                .into_iter()
                .filter(|u| u.query == qid)
                .map(|u| u.result.snapshot),
        );
        prop_assert_eq!(&got, &expected, "shared plane diverged");
        let stats = hub.stats();
        prop_assert_eq!(stats.shared_queries, 2);
        prop_assert_eq!(stats.digest_groups, 1);
        prop_assert!(stats.digest_hits > 0);
    }
}

/// The scripted schedule every surface replays: register `early` queries,
/// publish half the stream in ragged chunks, unregister one query and
/// register the rest (mid-group joins, possibly growing `k_max`), publish
/// the remainder, then raise a final watermark. Returns per-query event
/// checksums.
struct Schedule<'a> {
    queries: &'a [Query],
    early: usize,
    data: &'a [TimedObject],
    cuts: &'a [usize],
}

impl Schedule<'_> {
    fn chunks(&self, lo: usize, hi: usize) -> Vec<&[TimedObject]> {
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

    fn horizon(&self) -> u64 {
        self.data.last().map_or(0, |o| o.timestamp) + 500
    }

    /// Sequential hub; `shared` picks the registration path.
    fn run_hub(&self, shared: bool) -> (BTreeMap<QueryId, u64>, Option<QueryId>) {
        let mut hub = Hub::new();
        let register = |hub: &mut Hub, q: &Query| {
            if shared {
                hub.register_shared(q).unwrap()
            } else {
                hub.register(q).unwrap()
            }
        };
        let mut sums = BTreeMap::new();
        for q in &self.queries[..self.early] {
            register(&mut hub, q);
        }
        let mid = self.data.len() / 2;
        for chunk in self.chunks(0, mid) {
            let updates = hub.publish_timed(chunk);
            fold_all(&mut sums, updates);
        }
        let ids: Vec<QueryId> = hub.query_ids().collect();
        let dropped = (ids.len() > 1).then(|| ids[0]);
        if let Some(id) = dropped {
            hub.unregister(id).expect("registered in phase one");
        }
        for q in &self.queries[self.early..] {
            register(&mut hub, q);
        }
        for chunk in self.chunks(mid, self.data.len()) {
            let updates = hub.publish_timed(chunk);
            fold_all(&mut sums, updates);
        }
        let updates = hub.advance_time(self.horizon());
        fold_all(&mut sums, updates);
        (sums, dropped)
    }

    /// Sharded hub, all queries on the shared plane (shard-local groups).
    fn run_sharded(&self, shards: usize) -> (BTreeMap<QueryId, u64>, Option<QueryId>) {
        let mut hub = AsyncHub::new(shards, shards);
        let mut sums = BTreeMap::new();
        for q in &self.queries[..self.early] {
            hub.register_shared(q).unwrap();
        }
        let mid = self.data.len() / 2;
        for chunk in self.chunks(0, mid) {
            hub.publish_timed(chunk).unwrap();
            fold_all(&mut sums, hub.drain().unwrap());
        }
        let ids: Vec<QueryId> = hub.query_ids().collect();
        let dropped = (ids.len() > 1).then(|| ids[0]);
        if let Some(id) = dropped {
            hub.unregister(id).expect("registered in phase one");
        }
        for q in &self.queries[self.early..] {
            hub.register_shared(q).unwrap();
        }
        for chunk in self.chunks(mid, self.data.len()) {
            hub.publish_timed(chunk).unwrap();
            fold_all(&mut sums, hub.drain().unwrap());
        }
        hub.advance_time(self.horizon()).unwrap();
        fold_all(&mut sums, hub.drain().unwrap());
        (sums, dropped)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The churn property: the same schedule — mid-stream unregister, and
    /// mid-stream joins that land inside live groups (warm-up) and can
    /// grow a group's `k_max` — replayed on the isolated sequential hub,
    /// the shared sequential hub, and the shared sharded hub at 1/2/8
    /// shards, must produce identical per-query event checksums.
    #[test]
    fn shared_hubs_stay_byte_identical_with_mid_stream_churn(
        raw in vec((0u8..=9, 0u8..24), 40..180),
        geoms in vec((0usize..2, 1usize..=5, 1usize..=6, 0usize..3), 3..8),
        sd_base in 1u64..=12,
        cuts in vec(1usize..=29, 0..8),
        early_frac in 1usize..=100,
    ) {
        let data = timed_stream(&raw);
        let kinds = [
            AlgorithmKind::sap(),
            AlgorithmKind::MinTopK,
            AlgorithmKind::KSkyband,
        ];
        // only two distinct slide durations across all queries: late
        // joiners land inside live groups, and differing k per group
        // exercises k_max growth on join
        let sds = [sd_base, sd_base * 3];
        let queries: Vec<Query> = geoms
            .iter()
            .map(|&(sd_idx, m, k, kind_idx)| {
                let sd = sds[sd_idx];
                Query::window_duration(sd * m as u64)
                    .top(k)
                    .slide_duration(sd)
                    .algorithm(kinds[kind_idx])
            })
            .collect();
        let schedule = Schedule {
            early: (early_frac * queries.len()).div_ceil(100).min(queries.len()),
            queries: &queries,
            data: &data,
            cuts: &cuts,
        };

        let (expected, iso_dropped) = schedule.run_hub(false);
        prop_assert!(!expected.is_empty());
        let (shared, shared_dropped) = schedule.run_hub(true);
        prop_assert_eq!(shared_dropped, iso_dropped);
        prop_assert_eq!(
            &shared, &expected,
            "shared sequential hub diverged from isolated (queries={}, early={})",
            queries.len(), schedule.early
        );
        for shards in [1usize, 2, 8] {
            let (got, par_dropped) = schedule.run_sharded(shards);
            prop_assert_eq!(par_dropped, iso_dropped, "unregister targets diverged");
            prop_assert_eq!(
                &got, &expected,
                "shared sharded hub diverged at {} shards (queries={}, early={})",
                shards, queries.len(), schedule.early
            );
        }
    }
}

/// Regression: the slide-boundary tie-break (equal scores → the newer,
/// higher-id object survives the truncation) must hold through the
/// shared path, including when the query's `k` is smaller than the
/// group's digest depth.
#[test]
fn boundary_tie_break_keeps_the_newer_object_through_the_shared_path() {
    let mut hub = Hub::new();
    // deep sibling first: the group's digests keep 3 objects, the
    // narrow query slices its top-1 prefix
    let deep = hub
        .register_shared(&Query::window_duration(10).top(3).slide_duration(10))
        .unwrap();
    let narrow = hub
        .register_shared(&Query::window_duration(10).top(1).slide_duration(10))
        .unwrap();
    hub.publish_timed(&[TimedObject::new(1, 0, 5.0), TimedObject::new(2, 0, 5.0)]);
    let updates = hub.advance_time(10);
    let of = |q: QueryId| {
        updates
            .iter()
            .find(|u| u.query == q)
            .expect("one slide each")
            .result
            .snapshot
            .clone()
    };
    assert_eq!(
        of(narrow),
        vec![Object::new(2, 5.0)],
        "the newer object must survive the top-1 truncation"
    );
    assert_eq!(of(deep), vec![Object::new(2, 5.0), Object::new(1, 5.0)]);

    // cross-slide ties resolve by slide recency, not raw id, shared path
    // included: the later slide's object (smaller id) ranks first
    let mut hub = Hub::new();
    let q = hub
        .register_shared(&Query::window_duration(20).top(2).slide_duration(10))
        .unwrap();
    hub.publish_timed(&[TimedObject::new(10, 0, 5.0), TimedObject::new(3, 12, 5.0)]);
    let updates = hub.advance_time(20);
    let last = updates.iter().rfind(|u| u.query == q).unwrap();
    assert_eq!(
        last.result.snapshot,
        vec![Object::new(3, 5.0), Object::new(10, 5.0)]
    );
}

/// Pinned non-property case on a generated Poisson stream, large enough
/// that windows expire, empty slides occur, every algorithm leaves
/// warm-up, and a late joiner grows its group's `k_max` mid-stream.
#[test]
fn shared_hubs_agree_on_poisson_stock_stream() {
    let data = Dataset::Stock.generate_timed(4_000, 42, ArrivalProcess::poisson(6.0));
    let queries: Vec<Query> = (0..12)
        .map(|i| {
            let kind = [
                AlgorithmKind::sap(),
                AlgorithmKind::MinTopK,
                AlgorithmKind::KSkyband,
            ][i % 3];
            // three slide durations straddling the 6-unit mean gap; the
            // last (late-registered) queries carry the largest k of their
            // groups, forcing k_max growth on join
            let sd = [4u64, 30, 150][i % 3];
            Query::window_duration(sd * (1 + i as u64 % 4))
                .top(1 + i)
                .slide_duration(sd)
                .algorithm(kind)
        })
        .collect();
    let cuts = [317usize, 89, 411];
    let schedule = Schedule {
        early: 7,
        queries: &queries,
        data: &data,
        cuts: &cuts,
    };
    let (expected, _) = schedule.run_hub(false);
    assert!(!expected.is_empty());
    let (shared, _) = schedule.run_hub(true);
    assert_eq!(shared, expected, "shared sequential diverged");
    for shards in [1usize, 2, 8] {
        let (got, _) = schedule.run_sharded(shards);
        assert_eq!(got, expected, "diverged at {shards} shards");
    }
}
