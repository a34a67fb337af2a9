//! SMA — the multi-pass grid-indexed algorithm (Mouratidis et al. \[17\];
//! paper §2.1).
//!
//! SMA maintains a candidate set of the top-`k'` window objects with
//! `k ≤ k' ≤ k_max` (the customary `k_max = 2k`), pruned further by
//! dominance: a candidate dominated by `k` newer candidates can never be a
//! result and is dropped. All window objects are additionally indexed in a
//! [`ScoreGrid`]. When expiry shrinks the candidate set below `k`, SMA
//! re-scans the grid from the top cells down and rebuilds the candidate set
//! with the window's top-`k_max` — the expensive operation that dominates
//! its cost on score-decreasing streams (Figure 1(a), §6.3).

use std::collections::BTreeMap;

use sap_stream::{Object, OpStats, SapError, ScoreKey, SlidingTopK, WindowSpec};

use crate::common::{btreemap_bytes, top_k_desc, WindowRing};
use crate::grid::ScoreGrid;

/// Default number of grid cells (the original uses a small constant grid
/// over the data space).
pub const DEFAULT_GRID_BUCKETS: usize = 256;

/// The SMA algorithm.
#[derive(Debug)]
pub struct Sma {
    spec: WindowSpec,
    kmax: usize,
    grid: ScoreGrid,
    /// Candidate → dominance count (number of newer, higher-scored
    /// candidates observed since it joined).
    candidates: BTreeMap<ScoreKey, u32>,
    window: WindowRing,
    arrived: u64,
    rescan_buf: Vec<ScoreKey>,
    evict: Vec<ScoreKey>,
    result: Vec<Object>,
    stats: OpStats,
}

impl Sma {
    /// Creates SMA with the customary `k_max = 2k` and the default grid.
    pub fn new(spec: WindowSpec) -> Self {
        Self::with_params(spec, 2 * spec.k, DEFAULT_GRID_BUCKETS)
    }

    /// Creates SMA with explicit `k_max` (must be ≥ k) and grid resolution.
    pub fn with_params(spec: WindowSpec, kmax: usize, grid_buckets: usize) -> Self {
        Self::try_with_params(spec, kmax, grid_buckets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`with_params`](Sma::with_params): rejects
    /// `k_max < k` and an empty grid through the unified error type (the
    /// rules live in `sap_stream::query` so builder-side and
    /// constructor-side validation cannot drift).
    pub fn try_with_params(
        spec: WindowSpec,
        kmax: usize,
        grid_buckets: usize,
    ) -> Result<Self, SapError> {
        sap_stream::query::check_sma_params(spec.k, Some(kmax), Some(grid_buckets))?;
        Ok(Sma {
            spec,
            kmax,
            grid: ScoreGrid::new(grid_buckets),
            candidates: BTreeMap::new(),
            window: WindowRing::with_capacity(spec.n),
            arrived: 0,
            rescan_buf: Vec::with_capacity(kmax * 2),
            evict: Vec::new(),
            result: Vec::with_capacity(spec.k),
            stats: OpStats::default(),
        })
    }

    /// Number of grid re-scans performed so far.
    pub fn rescan_count(&self) -> u64 {
        self.stats.rescans
    }

    fn insert_candidate(&mut self, o: &Object) {
        let key = o.key();
        let k = self.spec.k as u32;
        // Invariant: C is always the top-|C| of the window (minus dominated
        // never-result objects). An arrival below the current minimum
        // candidate is *discarded*, not stored — inserting it would pollute
        // C with non-top objects and mask the "candidates ran out, re-scan"
        // condition. (Objects discarded here are recovered by the next grid
        // re-scan if they ever climb back into the top-k_max.)
        if let Some(min) = self.candidates.keys().next() {
            if key < *min {
                return;
            }
        }
        // dominance bookkeeping: `o` dominates every lower-scored candidate
        let bound = ScoreKey {
            score: o.score,
            id: 0,
        };
        self.evict.clear();
        for (ck, dom) in self.candidates.range_mut(..bound) {
            *dom += 1;
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
        // cap at k_max
        while self.candidates.len() > self.kmax {
            let min = *self.candidates.keys().next().expect("non-empty");
            self.candidates.remove(&min);
            self.stats.deletions += 1;
        }
    }

    fn rescan(&mut self) {
        self.stats.rescans += 1;
        let scanned = self.grid.collect_top(self.kmax, &mut self.rescan_buf);
        self.stats.objects_scanned += scanned as u64;
        self.candidates.clear();
        for key in self.rescan_buf.iter().take(self.kmax) {
            self.candidates.insert(*key, 0);
            self.stats.insertions += 1;
        }
    }
}

impl SlidingTopK for Sma {
    fn spec(&self) -> WindowSpec {
        self.spec
    }

    fn slide(&mut self, batch: &[Object]) -> &[Object] {
        debug_assert_eq!(batch.len(), self.spec.s, "driver must feed full slides");
        // arrivals: index in the grid and try the candidate set
        self.grid.insert_batch(batch);
        for o in batch {
            self.insert_candidate(o);
        }
        self.arrived += batch.len() as u64;
        self.window.push_batch(batch);

        // expiry
        let n = self.spec.n;
        let candidates = &mut self.candidates;
        let stats = &mut self.stats;
        self.window.expire_to(n, |key| {
            if candidates.remove(&key).is_some() {
                stats.deletions += 1;
            }
        });
        let cutoff = self.arrived.saturating_sub(n as u64);
        self.grid.expire_below(cutoff);

        // re-scan when the candidate set no longer covers a full result
        if self.candidates.len() < self.spec.k && self.window.len() > self.candidates.len() {
            self.rescan();
        }

        top_k_desc(&self.candidates, self.spec.k, &mut self.result);
        &self.result
    }

    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn memory_bytes(&self) -> usize {
        // SMA's working structures include the grid over the whole window —
        // the reason the paper reports no candidate counts for it.
        btreemap_bytes::<ScoreKey, u32>(self.candidates.len()) + self.grid.memory_bytes()
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn name(&self) -> &str {
        "SMA"
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
        let (_, got) = run_collecting(&mut Sma::new(spec), &data);
        let (_, expect) = run_collecting(&mut NaiveTopK::new(spec), &data);
        assert_eq!(got, expect, "{} n={n} k={k} s={s}", ds.name());
    }

    #[test]
    fn matches_oracle_random() {
        check_against_oracle(Dataset::TimeU, 2000, 100, 5, 10, 1);
    }

    #[test]
    fn matches_oracle_decreasing() {
        check_against_oracle(Dataset::Decreasing, 800, 80, 5, 8, 2);
    }

    #[test]
    fn matches_oracle_increasing_ties_sawtooth() {
        check_against_oracle(Dataset::Increasing, 800, 80, 5, 8, 3);
        check_against_oracle(Dataset::Constant, 400, 40, 3, 4, 4);
        check_against_oracle(Dataset::Sawtooth { ramp: 23 }, 1000, 100, 5, 10, 5);
    }

    #[test]
    fn matches_oracle_small_and_large_kmax() {
        let data = Dataset::TimeU.generate(1500, 6);
        let spec = WindowSpec::new(100, 10, 10).unwrap();
        for kmax in [10, 15, 40] {
            let (_, got) = run_collecting(&mut Sma::with_params(spec, kmax, 64), &data);
            let (_, expect) = run_collecting(&mut NaiveTopK::new(spec), &data);
            assert_eq!(got, expect, "kmax={kmax}");
        }
    }

    #[test]
    fn rescans_frequent_on_decreasing_scores() {
        // Figure 1(a): when scores keep decreasing the candidate set keeps
        // expiring from the top and re-scans are frequent.
        let spec = WindowSpec::new(200, 5, 10).unwrap();
        let down = Dataset::Decreasing.generate(4000, 7);
        let mut alg = Sma::new(spec);
        sap_stream::run(&mut alg, &down);
        let down_rescans = alg.rescan_count();

        let up = Dataset::Increasing.generate(4000, 7);
        let mut alg = Sma::new(spec);
        sap_stream::run(&mut alg, &up);
        let up_rescans = alg.rescan_count();

        assert!(
            down_rescans > up_rescans.max(1) * 5,
            "decreasing {down_rescans} vs increasing {up_rescans}"
        );
    }

    #[test]
    fn candidate_set_capped_at_kmax() {
        let data = Dataset::TimeU.generate(3000, 8);
        let spec = WindowSpec::new(300, 7, 10).unwrap();
        let mut alg = Sma::new(spec);
        let summary = sap_stream::run(&mut alg, &data);
        assert!(summary.peak_candidates <= 14);
    }
}
