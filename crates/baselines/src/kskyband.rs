//! The one-pass k-skyband algorithm (Shen et al. \[19\]; paper §2.1).
//!
//! The candidate set holds every window object dominated by fewer than `k`
//! objects. When a new object `o_in` arrives, every candidate with a lower
//! score is (by definition) dominated by `o_in` — all candidates are older —
//! so their dominance counters are incremented and those reaching `k` are
//! evicted for good: their `k` dominators are all newer and will outlive
//! them. When an object expires it is simply deleted from the candidate set
//! if still present.
//!
//! The per-arrival cost is `Θ(n_d)` where `n_d` is the number of candidates
//! the new object dominates — logarithmic-ish on random-order streams but
//! `Θ(n)` on anti-correlated streams where every object is a skyband object
//! (the paper's Figure 1(a) pathology, reproduced by `Dataset::Decreasing`).

use std::collections::BTreeMap;

use sap_stream::{Object, OpStats, ScoreKey, SlidingTopK, WindowSpec};

use crate::common::{btreemap_bytes, top_k_desc, WindowRing};

/// One-pass k-skyband maintenance.
#[derive(Debug)]
pub struct KSkyband {
    spec: WindowSpec,
    /// Candidate → number of (newer, higher-scored) dominators seen so far.
    candidates: BTreeMap<ScoreKey, u32>,
    window: WindowRing,
    evict: Vec<ScoreKey>,
    result: Vec<Object>,
    stats: OpStats,
}

impl KSkyband {
    /// Creates a k-skyband maintainer for the given query.
    pub fn new(spec: WindowSpec) -> Self {
        KSkyband {
            spec,
            candidates: BTreeMap::new(),
            window: WindowRing::with_capacity(spec.n),
            evict: Vec::new(),
            result: Vec::with_capacity(spec.k),
            stats: OpStats::default(),
        }
    }

    fn insert_object(&mut self, o: &Object) {
        let key = o.key();
        let k = self.spec.k as u32;
        // Every candidate with a strictly lower score is dominated by `o`
        // (strict score, and `o` is the newest object). Equal-score
        // candidates are NOT dominated (strictness) — the range below
        // (score, 0) excludes exactly those.
        let bound = ScoreKey {
            score: o.score,
            id: 0,
        };
        self.evict.clear();
        for (ck, dom) in self.candidates.range_mut(..bound) {
            *dom += 1;
            self.stats.objects_scanned += 1;
            if *dom >= k {
                self.evict.push(*ck);
            }
        }
        for ck in self.evict.drain(..) {
            self.candidates.remove(&ck);
            self.stats.deletions += 1;
        }
        self.candidates.insert(key, 0);
        self.stats.insertions += 1;
    }
}

impl SlidingTopK for KSkyband {
    fn spec(&self) -> WindowSpec {
        self.spec
    }

    fn slide(&mut self, batch: &[Object]) -> &[Object] {
        debug_assert_eq!(batch.len(), self.spec.s, "driver must feed full slides");
        for o in batch {
            self.insert_object(o);
        }
        self.window.push_batch(batch);
        let n = self.spec.n;
        let candidates = &mut self.candidates;
        let stats = &mut self.stats;
        self.window.expire_to(n, |key| {
            if candidates.remove(&key).is_some() {
                stats.deletions += 1;
            }
        });
        top_k_desc(&self.candidates, self.spec.k, &mut self.result);
        &self.result
    }

    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn memory_bytes(&self) -> usize {
        btreemap_bytes::<ScoreKey, u32>(self.candidates.len())
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn name(&self) -> &str {
        "k-skyband"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveTopK;
    use sap_stream::generators::{Dataset, Workload};
    use sap_stream::run_collecting;

    fn check_against_oracle(ds: Dataset, len: usize, n: usize, k: usize, s: usize, seed: u64) {
        let data = ds.generate(len, seed);
        let spec = WindowSpec::new(n, k, s).unwrap();
        let (_, got) = run_collecting(&mut KSkyband::new(spec), &data);
        let (_, expect) = run_collecting(&mut NaiveTopK::new(spec), &data);
        assert_eq!(got, expect, "{} n={n} k={k} s={s}", ds.name());
    }

    #[test]
    fn matches_oracle_random_stream() {
        check_against_oracle(Dataset::TimeU, 2000, 100, 5, 10, 1);
    }

    #[test]
    fn matches_oracle_decreasing_stream() {
        // the pathological case: every object is a skyband object
        check_against_oracle(Dataset::Decreasing, 600, 60, 4, 6, 2);
    }

    #[test]
    fn matches_oracle_increasing_and_ties() {
        check_against_oracle(Dataset::Increasing, 600, 60, 4, 6, 3);
        check_against_oracle(Dataset::Constant, 400, 40, 3, 4, 4);
    }

    #[test]
    fn matches_oracle_s_equals_one() {
        check_against_oracle(Dataset::TimeU, 500, 50, 3, 1, 5);
    }

    #[test]
    fn matches_oracle_tumbling() {
        check_against_oracle(Dataset::TimeU, 500, 50, 2, 50, 6);
    }

    #[test]
    fn candidate_set_is_skyband_sized_on_random_data() {
        // On order-independent streams the expected skyband size is
        // O(k · ln(n/k)) — far below n.
        let data = Dataset::TimeU.generate(20_000, 7);
        let spec = WindowSpec::new(2000, 10, 20).unwrap();
        let mut alg = KSkyband::new(spec);
        let summary = sap_stream::run(&mut alg, &data);
        let bound = 10.0 * (2000.0f64 / 10.0).ln() * 3.0; // 3x slack
        assert!(
            summary.avg_candidates < bound,
            "avg candidates {} above skyband bound {}",
            summary.avg_candidates,
            bound
        );
    }

    #[test]
    fn decreasing_stream_keeps_everything() {
        // Figure 1(a): anti-correlated scores → all n objects are skyband.
        let data = Dataset::Decreasing.generate(2000, 8);
        let spec = WindowSpec::new(200, 5, 10).unwrap();
        let mut alg = KSkyband::new(spec);
        let summary = sap_stream::run(&mut alg, &data);
        assert!(
            summary.avg_candidates > 195.0,
            "expected ~n candidates, got {}",
            summary.avg_candidates
        );
    }
}
