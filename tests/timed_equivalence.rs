//! Time-based query equivalence: a query built with
//! `Query::window_duration(..)` must produce the **same snapshots** on
//! every surface — the raw `TimeBased` adapter, a `TimedSession`, the
//! sequential `Hub`, and the `AsyncHub` at 1/2/8 shards — and those
//! snapshots must match a brute-force time-window oracle, on
//! variable-rate streams whose slides range from packed to empty.
//! A second property mixes count- and time-based queries with mid-stream
//! register/unregister and checks the two hubs stay byte-identical
//! event-stream-for-event-stream (the PR's acceptance criterion).

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

    /// Every surface agrees with the oracle: direct adapter, session,
    /// sequential hub, sharded hub — same stream, same snapshots.
    #[test]
    fn timed_query_matches_oracle_on_every_surface(
        raw in vec((0u8..=12, 0u8..24), 40..160),
        m in 1u64..=6,
        sd in 1u64..=25,
        k in 1usize..=5,
        algo_idx in 0usize..3,
    ) {
        let wd = sd * m;
        let data = timed_stream(&raw);
        // past this watermark every object has expired, so the final
        // slides prove draining down to empty results
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

        // 1. the raw adapter, checked against the brute-force oracle
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
                "window ending {} (wd={}, sd={}, k={}, algo={})",
                window_end, wd, sd, k, query.kind().label()
            );
        }
        prop_assert!(
            expected.last().unwrap().is_empty(),
            "everything expired past the horizon"
        );

        // 2. a TimedSession fed in ragged chunks
        let mut session = query.timed_session().unwrap();
        let mut got: Vec<Snapshot> = Vec::new();
        for chunk in data.chunks(7) {
            got.extend(session.push_timed(chunk).into_iter().map(|r| r.snapshot));
        }
        got.extend(session.advance_watermark(horizon).into_iter().map(|r| r.snapshot));
        prop_assert_eq!(&got, &expected, "TimedSession diverged");
        prop_assert_eq!(session.slides(), expected.len() as u64);

        // 3. the sequential hub
        let mut hub = Hub::new();
        let qid = hub.register(&query).unwrap();
        let mut got: Vec<Snapshot> = Vec::new();
        for chunk in data.chunks(11) {
            got.extend(hub.publish_timed(chunk).into_iter().map(|u| u.result.snapshot));
        }
        got.extend(hub.advance_time(horizon).into_iter().map(|u| u.result.snapshot));
        prop_assert_eq!(&got, &expected, "Hub diverged");
        prop_assert_eq!(hub.timed_session(qid).unwrap().slides(), expected.len() as u64);

        // 4. the sharded hub, with drains interleaved per chunk
        for shards in [1usize, 2, 8] {
            let mut par = AsyncHub::new(shards, shards);
            par.register(&query).unwrap();
            let mut got: Vec<Snapshot> = Vec::new();
            for chunk in data.chunks(11) {
                par.publish_timed(chunk).unwrap();
                got.extend(par.drain().unwrap().into_iter().map(|u| u.result.snapshot));
            }
            par.advance_time(horizon).unwrap();
            got.extend(par.drain().unwrap().into_iter().map(|u| u.result.snapshot));
            prop_assert_eq!(&got, &expected, "AsyncHub({}) diverged", shards);
        }
    }
}

/// The scripted mixed-model schedule both hubs replay: register `early`
/// queries, publish half the timed stream in ragged chunks, unregister
/// one query and register the rest, publish the remainder, then raise a
/// final watermark. Returns per-query event checksums.
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

    fn run_sequential(&self) -> (BTreeMap<QueryId, u64>, Option<QueryId>) {
        let mut hub = Hub::new();
        let mut sums = BTreeMap::new();
        for q in &self.queries[..self.early] {
            hub.register(q).unwrap();
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
            hub.register(q).unwrap();
        }
        for chunk in self.chunks(mid, self.data.len()) {
            let updates = hub.publish_timed(chunk);
            fold_all(&mut sums, updates);
        }
        let updates = hub.advance_time(self.horizon());
        fold_all(&mut sums, updates);
        (sums, dropped)
    }

    fn run_sharded(&self, shards: usize) -> (BTreeMap<QueryId, u64>, Option<QueryId>) {
        let mut hub = AsyncHub::new(shards, shards);
        let mut sums = BTreeMap::new();
        for q in &self.queries[..self.early] {
            hub.register(q).unwrap();
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
            hub.register(q).unwrap();
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

/// Mixed count/timed geometry: s divides n in both models.
fn geometry() -> impl Strategy<Value = (bool, usize, usize, usize)> {
    (0usize..2, 1usize..=6, 1usize..=12, 1usize..=5)
        .prop_map(|(timed, m, s, k)| (timed == 1, m * s, s, k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: heterogeneous count- and time-based
    /// queries on one published timed stream, with mid-stream register
    /// and unregister — 1, 2, and 8 shards each reproduce the sequential
    /// hub's per-query event streams exactly.
    #[test]
    fn mixed_hubs_stay_byte_identical_with_mid_stream_churn(
        raw in vec((0u8..=9, 0u8..24), 40..180),
        geoms in vec(geometry(), 2..7),
        cuts in vec(1usize..=29, 0..8),
        early_frac in 1usize..=100,
    ) {
        let data = timed_stream(&raw);
        let kinds = [
            AlgorithmKind::sap(),
            AlgorithmKind::Naive,
            AlgorithmKind::KSkyband,
            AlgorithmKind::MinTopK,
            AlgorithmKind::sma(),
        ];
        let queries: Vec<Query> = geoms
            .iter()
            .enumerate()
            .map(|(i, &(timed, n, s, k))| {
                let kind = kinds[i % kinds.len()];
                if timed {
                    Query::window_duration(n as u64)
                        .top(k)
                        .slide_duration(s as u64)
                        .algorithm(kind)
                } else {
                    Query::window(n).top(k.min(n)).slide(s).algorithm(kind)
                }
            })
            .collect();
        let schedule = Schedule {
            early: (early_frac * queries.len()).div_ceil(100).min(queries.len()),
            queries: &queries,
            data: &data,
            cuts: &cuts,
        };

        let (expected, seq_dropped) = schedule.run_sequential();
        prop_assert!(!expected.is_empty());
        for shards in [1usize, 2, 8] {
            let (got, par_dropped) = schedule.run_sharded(shards);
            prop_assert_eq!(par_dropped, seq_dropped, "unregister targets diverged");
            prop_assert_eq!(
                &got, &expected,
                "event streams diverged at {} shards (queries={}, early={})",
                shards, queries.len(), schedule.early
            );
        }
    }
}

/// Pinned non-property case on a generated Poisson stream, large enough
/// that timed windows expire, empty slides occur, and every algorithm
/// leaves warm-up — catches regressions even if the property generator
/// drifts toward tiny cases.
#[test]
fn mixed_hubs_agree_on_poisson_stock_stream() {
    let data = Dataset::Stock.generate_timed(4_000, 42, ArrivalProcess::poisson(4.0));
    let queries: Vec<Query> = (0..12)
        .map(|i| {
            let kind = [
                AlgorithmKind::sap(),
                AlgorithmKind::MinTopK,
                AlgorithmKind::KSkyband,
            ][i % 3];
            if i % 2 == 0 {
                let s = [10usize, 20, 50][i % 3];
                Query::window(s * 4)
                    .top(1 + 3 * (i % 4))
                    .slide(s)
                    .algorithm(kind)
            } else {
                // slide durations straddle the 4-unit mean gap: some
                // slides hold dozens of objects, others none
                let sd = [2u64, 25, 120][i % 3];
                Query::window_duration(sd * 4)
                    .top(1 + 3 * (i % 4))
                    .slide_duration(sd)
                    .algorithm(kind)
            }
        })
        .collect();
    let cuts = [317usize, 89, 411];
    let schedule = Schedule {
        early: 7,
        queries: &queries,
        data: &data,
        cuts: &cuts,
    };
    let (expected, _) = schedule.run_sequential();
    assert!(!expected.is_empty());
    for shards in [1usize, 2, 8] {
        let (got, _) = schedule.run_sharded(shards);
        assert_eq!(got, expected, "diverged at {shards} shards");
    }
}
