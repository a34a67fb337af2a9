//! The naive multi-pass algorithm: re-scan the window every slide.
//!
//! This is the correctness oracle — `O(n)` per slide, no candidate
//! maintenance, no pruning, no way to be wrong. Every other algorithm in the
//! workspace is required (by tests) to produce byte-identical result
//! sequences.

use std::collections::VecDeque;

use sap_stream::{Object, OpStats, ScoreKey, SlidingTopK, WindowSpec};

/// Full re-scanning reference implementation.
#[derive(Debug)]
pub struct NaiveTopK {
    spec: WindowSpec,
    window: VecDeque<Object>,
    scratch: Vec<ScoreKey>,
    result: Vec<Object>,
    stats: OpStats,
}

impl NaiveTopK {
    /// Creates the oracle for the given query.
    pub fn new(spec: WindowSpec) -> Self {
        NaiveTopK {
            spec,
            window: VecDeque::with_capacity(spec.n + spec.s),
            scratch: Vec::with_capacity(spec.n + spec.s),
            result: Vec::with_capacity(spec.k),
            stats: OpStats::default(),
        }
    }
}

impl SlidingTopK for NaiveTopK {
    fn spec(&self) -> WindowSpec {
        self.spec
    }

    fn slide(&mut self, batch: &[Object]) -> &[Object] {
        debug_assert_eq!(batch.len(), self.spec.s, "driver must feed full slides");
        self.window.extend(batch.iter().copied());
        while self.window.len() > self.spec.n {
            self.window.pop_front();
        }

        // full re-scan: select the k largest keys
        self.stats.rescans += 1;
        self.stats.objects_scanned += self.window.len() as u64;
        self.scratch.clear();
        self.scratch.extend(self.window.iter().map(Object::key));
        let len = self.scratch.len();
        let k = self.spec.k.min(len);
        if k < len {
            self.scratch.select_nth_unstable(len - k);
            self.scratch.drain(..len - k);
        }
        self.scratch.sort_unstable_by(|a, b| b.cmp(a));
        self.result.clear();
        self.result
            .extend(self.scratch.iter().take(k).map(|key| key.to_object()));
        &self.result
    }

    fn candidate_count(&self) -> usize {
        // the naive algorithm's "candidate set" is the whole window
        self.window.len()
    }

    fn memory_bytes(&self) -> usize {
        self.window.capacity() * std::mem::size_of::<Object>()
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn name(&self) -> &str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_stream::object::top_k_of;

    fn objects(scores: &[f64]) -> Vec<Object> {
        scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Object::new(i as u64, s))
            .collect()
    }

    #[test]
    fn matches_reference_topk_on_each_slide() {
        let data = objects(&[5.0, 1.0, 9.0, 3.0, 7.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.5, 9.5]);
        let spec = WindowSpec::new(6, 2, 2).unwrap();
        let mut alg = NaiveTopK::new(spec);
        for (i, batch) in data.chunks_exact(2).enumerate() {
            let got = alg.slide(batch).to_vec();
            let hi = (i + 1) * 2;
            let lo = hi.saturating_sub(6);
            let expect = top_k_of(&data[lo..hi], 2);
            assert_eq!(got, expect, "slide {i}");
        }
    }

    #[test]
    fn warm_up_returns_partial_results() {
        let data = objects(&[1.0, 2.0]);
        let spec = WindowSpec::new(8, 4, 2).unwrap();
        let mut alg = NaiveTopK::new(spec);
        let got = alg.slide(&data);
        assert_eq!(got.len(), 2, "fewer than k objects: return what exists");
        assert_eq!(got[0].score, 2.0);
    }

    #[test]
    fn tumbling_window() {
        // s == n: the window is replaced wholesale each slide
        let data = objects(&[1.0, 2.0, 3.0, 9.0, 8.0, 7.0]);
        let spec = WindowSpec::new(3, 1, 3).unwrap();
        let mut alg = NaiveTopK::new(spec);
        assert_eq!(alg.slide(&data[..3])[0].score, 3.0);
        assert_eq!(alg.slide(&data[3..])[0].score, 9.0);
    }

    #[test]
    fn counts_rescans() {
        let data = objects(&[1.0; 10]);
        let spec = WindowSpec::new(5, 2, 5).unwrap();
        let mut alg = NaiveTopK::new(spec);
        alg.slide(&data[..5]);
        alg.slide(&data[5..]);
        assert_eq!(alg.stats().rescans, 2);
        assert_eq!(alg.stats().objects_scanned, 10);
    }
}
