//! MinTopK (Yang et al. \[25\]; paper §2.1 and Figure 2).
//!
//! MinTopK maintains, for the current window and each of the `m − 1` future
//! windows it overlaps, a *predicted result set* `R_i` — the top-k of the
//! objects that will still be alive in window `W_i` — plus a lower-bound
//! pointer `lbp` per window. The union `∪R_i` is the candidate set; objects
//! outside it are discarded on arrival.
//!
//! **Equivalent formulation used here** (see DESIGN.md §4.4): because
//! `R_i` is the top-k of the *slide suffix* `[i, newest]`, an object is a
//! candidate iff fewer than `k` objects in its own slide or any newer slide
//! have a higher score — the k-skyband at slide granularity. The
//! implementation keeps that set in a score-ordered map with per-candidate
//! dominance counters, updated by one merge pass of each new slide's top
//! `min(s, k)` against the candidate list. Candidate set, results, and the
//! `O(n/s + log |C|)` worst-case incremental cost are identical to the
//! lbp-table formulation; so is the characteristic sensitivity to small `s`.

use std::collections::{BTreeMap, VecDeque};

use sap_stream::{Object, OpStats, ScoreKey, SlidingTopK, WindowSpec};

use crate::common::{btreemap_bytes, top_k_desc};

/// The MinTopK algorithm.
#[derive(Debug)]
pub struct MinTopK {
    spec: WindowSpec,
    /// Candidate → number of counted dominators from its slide-suffix.
    candidates: BTreeMap<ScoreKey, u32>,
    /// Per-slide keys inserted as candidates, for expiry (oldest in front).
    slides: VecDeque<Vec<ScoreKey>>,
    batch_top: Vec<ScoreKey>,
    evict: Vec<ScoreKey>,
    result: Vec<Object>,
    /// Recycled per-slide key list: the expired slide's `Vec` becomes the
    /// next slide's, so steady-state slides never allocate one.
    spare: Vec<ScoreKey>,
    stats: OpStats,
}

impl MinTopK {
    /// Creates a MinTopK instance for the given query.
    pub fn new(spec: WindowSpec) -> Self {
        MinTopK {
            spec,
            candidates: BTreeMap::new(),
            slides: VecDeque::with_capacity(spec.slides_per_window() + 1),
            batch_top: Vec::with_capacity(spec.s.min(spec.k)),
            evict: Vec::new(),
            result: Vec::with_capacity(spec.k),
            spare: Vec::with_capacity(spec.s.min(spec.k)),
            stats: OpStats::default(),
        }
    }
}

impl SlidingTopK for MinTopK {
    fn spec(&self) -> WindowSpec {
        self.spec
    }

    fn slide(&mut self, batch: &[Object]) -> &[Object] {
        debug_assert_eq!(batch.len(), self.spec.s, "driver must feed full slides");
        let k = self.spec.k;
        let c = self.spec.s.min(k);

        // Only the top-min(s,k) of a slide can ever join a predicted result
        // set (§2.1: "only the top-k objects among these s objects have the
        // chance to become k-skyband").
        self.batch_top.clear();
        self.batch_top.extend(batch.iter().map(Object::key));
        self.batch_top.sort_unstable_by(|a, b| b.cmp(a));
        self.batch_top.truncate(c);

        // Merge pass: every existing candidate below the j-th batch key
        // gains j dominators (the j batch-top objects above it — these are
        // in a strictly newer slide). A candidate that accumulates k
        // dominators leaves every predicted result set and is evicted.
        self.evict.clear();
        {
            let iter = self
                .candidates
                .range_mut(..self.batch_top[0])
                .rev()
                .peekable();
            let mut j = 1usize; // batch keys above the current candidate
            for (ck, dom) in iter {
                while j < c && *ck < self.batch_top[j] {
                    j += 1;
                }
                self.stats.objects_scanned += 1;
                *dom += j as u32;
                if *dom >= k as u32 {
                    self.evict.push(*ck);
                }
            }
        }
        for ck in self.evict.drain(..) {
            self.candidates.remove(&ck);
            self.stats.deletions += 1;
        }

        // Insert the slide's own candidates: the i-th highest has i
        // same-slide objects above it (which count toward its suffix
        // dominators). With c ≤ k these all start below the threshold.
        // The key list recycles the previously expired slide's Vec.
        let mut inserted = std::mem::take(&mut self.spare);
        debug_assert!(inserted.is_empty());
        for (i, key) in self.batch_top.iter().enumerate() {
            self.candidates.insert(*key, i as u32);
            self.stats.insertions += 1;
            inserted.push(*key);
        }
        self.slides.push_back(inserted);

        // Expire the slide that left the window, keeping its key list for
        // the next slide to fill.
        if self.slides.len() > self.spec.slides_per_window() {
            let mut old = self.slides.pop_front().expect("len checked");
            for key in old.drain(..) {
                if self.candidates.remove(&key).is_some() {
                    self.stats.deletions += 1;
                }
            }
            self.spare = old;
        }

        top_k_desc(&self.candidates, k, &mut self.result);
        &self.result
    }

    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn memory_bytes(&self) -> usize {
        // candidate map + the per-predicted-window bookkeeping (our
        // slide-key lists play the role of the lbp table: one entry per
        // candidate plus one list header per window).
        btreemap_bytes::<ScoreKey, u32>(self.candidates.len())
            + self.slides.len() * std::mem::size_of::<Vec<ScoreKey>>()
            + self
                .slides
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<ScoreKey>())
                .sum::<usize>()
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn name(&self) -> &str {
        "MinTopK"
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
        let (_, got) = run_collecting(&mut MinTopK::new(spec), &data);
        let (_, expect) = run_collecting(&mut NaiveTopK::new(spec), &data);
        assert_eq!(got, expect, "{} n={n} k={k} s={s}", ds.name());
    }

    #[test]
    fn matches_oracle_random() {
        check_against_oracle(Dataset::TimeU, 2000, 100, 5, 10, 1);
    }

    #[test]
    fn matches_oracle_s_less_than_k() {
        check_against_oracle(Dataset::TimeU, 1500, 120, 12, 4, 2);
    }

    #[test]
    fn matches_oracle_s_greater_than_k() {
        check_against_oracle(Dataset::TimeU, 1500, 120, 3, 40, 3);
    }

    #[test]
    fn matches_oracle_s_equals_one() {
        check_against_oracle(Dataset::TimeU, 600, 50, 4, 1, 4);
    }

    #[test]
    fn matches_oracle_adversarial_streams() {
        check_against_oracle(Dataset::Decreasing, 800, 80, 5, 8, 5);
        check_against_oracle(Dataset::Increasing, 800, 80, 5, 8, 6);
        check_against_oracle(Dataset::Constant, 400, 40, 3, 4, 7);
        check_against_oracle(Dataset::Sawtooth { ramp: 37 }, 1200, 120, 6, 10, 8);
    }

    #[test]
    fn matches_oracle_tumbling() {
        check_against_oracle(Dataset::TimeU, 600, 30, 3, 30, 9);
    }

    #[test]
    fn figure2_worked_example() {
        // Figure 2: n = 21, k = 2, s = 3. The figure's predicted result
        // sets pin down which slide each high scorer arrives in:
        // R7_1 = R7_2 = {94,93} → 94,93 ∈ s2; R7_3 = {92,91} → 92 ∈ s3;
        // R7_4..R7_6 = {91,89} → 89 ∈ s6; R7_7 = {91,82} → 91,82 ∈ s7.
        // Candidate set for W1 = {94, 93, 92, 91, 89, 82}.
        let scores = [
            60.0, 61.0, 62.0, // s1
            94.0, 93.0, 63.0, // s2
            92.0, 64.0, 65.0, // s3
            66.0, 67.0, 68.0, // s4
            69.0, 70.0, 71.0, // s5
            89.0, 72.0, 73.0, // s6
            91.0, 82.0, 74.0, // s7
        ];
        let data: Vec<Object> = scores
            .iter()
            .enumerate()
            .map(|(i, &sc)| Object::new(i as u64, sc))
            .collect();
        let spec = WindowSpec::new(21, 2, 3).unwrap();
        let mut alg = MinTopK::new(spec);
        let mut last: Vec<Object> = Vec::new();
        for batch in data.chunks_exact(3) {
            last = alg.slide(batch).to_vec();
        }
        // the current result: top-2 of the full window W1
        assert_eq!(last[0].score, 94.0);
        assert_eq!(last[1].score, 93.0);
        // candidate set = ∪ R7_i exactly as the paper lists it
        let mut cand: Vec<f64> = alg.candidates.keys().map(|k| k.score).collect();
        cand.sort_unstable_by(f64::total_cmp);
        assert_eq!(cand, vec![82.0, 89.0, 91.0, 92.0, 93.0, 94.0]);

        // Slide to W2 with s8 = {90, 84, 78} (the paper walks these three):
        // 90 joins, evicting 89 and 82; 84 joins (for the future window
        // W8); 78 is discarded outright. New candidate set per Figure 2(b):
        // {94, 93, 92, 91, 90, 84}.
        let s8: Vec<Object> = [90.0, 84.0, 78.0]
            .iter()
            .enumerate()
            .map(|(i, &sc)| Object::new(21 + i as u64, sc))
            .collect();
        let res = alg.slide(&s8).to_vec();
        assert_eq!(res[0].score, 94.0);
        assert_eq!(res[1].score, 93.0);
        let mut cand: Vec<f64> = alg.candidates.keys().map(|k| k.score).collect();
        cand.sort_unstable_by(f64::total_cmp);
        assert_eq!(cand, vec![84.0, 90.0, 91.0, 92.0, 93.0, 94.0]);
    }

    #[test]
    fn candidate_bound_respected() {
        // |C| ≤ n·k / max(s, k) (§2.1)
        let data = Dataset::TimeU.generate(30_000, 11);
        for (n, k, s) in [(1000, 10, 50), (1000, 50, 10), (2000, 5, 5)] {
            let spec = WindowSpec::new(n, k, s).unwrap();
            let mut alg = MinTopK::new(spec);
            let summary = sap_stream::run(&mut alg, &data);
            let bound = (n * k) as f64 / s.max(k) as f64 + k as f64;
            assert!(
                summary.peak_candidates as f64 <= bound,
                "n={n} k={k} s={s}: peak {} > bound {bound}",
                summary.peak_candidates
            );
        }
    }

    #[test]
    fn small_s_keeps_more_candidates_than_large_s() {
        let data = Dataset::TimeU.generate(20_000, 13);
        let spec_small = WindowSpec::new(1000, 20, 5).unwrap();
        let spec_large = WindowSpec::new(1000, 20, 100).unwrap();
        let small = sap_stream::run(&mut MinTopK::new(spec_small), &data);
        let large = sap_stream::run(&mut MinTopK::new(spec_large), &data);
        assert!(
            small.avg_candidates > large.avg_candidates * 1.5,
            "expected s-sensitivity: {} vs {}",
            small.avg_candidates,
            large.avg_candidates
        );
    }
}
