//! The instrumented driver: feeds a stream through an algorithm slide by
//! slide, recording wall-clock time, candidate counts, and memory — the
//! three metrics of the paper's evaluation (§6.1 and Appendices E–F).
//!
//! ```
//! use sap_stream::{checksum_fold, Object, CHECKSUM_SEED};
//!
//! let snapshot = [Object::new(0, 1.5), Object::new(1, 0.5)];
//! let sum = checksum_fold(CHECKSUM_SEED, &snapshot);
//! assert_eq!(sum, checksum_fold(CHECKSUM_SEED, &snapshot), "deterministic");
//! assert_ne!(sum, CHECKSUM_SEED);
//! ```

use std::time::{Duration, Instant};

use crate::metrics::OpStats;
use crate::object::Object;
use crate::window::SlidingTopK;

/// Summary of one run of an algorithm over a stream.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Algorithm name.
    pub name: String,
    /// Number of slides processed (full batches only).
    pub slides: usize,
    /// Total processing time, excluding stream generation and metric
    /// sampling.
    pub elapsed: Duration,
    /// Average candidate count sampled after each slide once the window is
    /// full (the paper counts "when the window slides", Appendix E).
    pub avg_candidates: f64,
    /// Peak candidate count.
    pub peak_candidates: usize,
    /// Average candidate-structure memory in bytes (Appendix F).
    pub avg_memory_bytes: f64,
    /// Peak candidate-structure memory in bytes.
    pub peak_memory_bytes: usize,
    /// Order-sensitive checksum over all emitted results; two algorithms
    /// answering the same query identically produce identical checksums.
    pub checksum: u64,
    /// Objects at the tail of the input that did not fill a whole slide
    /// and were therefore **not** fed to the algorithm (always `< s`).
    /// The count-based model only slides in full steps of `s`, so a
    /// ragged stream length always strands `len % s` objects; callers
    /// that must not lose them should ingest through a
    /// [`Session`](crate::session::Session), which buffers the remainder
    /// for the next push instead of dropping it.
    pub leftover: usize,
    /// The algorithm's cumulative operation counters.
    pub stats: OpStats,
}

impl RunSummary {
    /// Elapsed time in seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// Initial accumulator for [`checksum_fold`] (the FNV-1a offset basis).
pub const CHECKSUM_SEED: u64 = 0xcbf29ce484222325;

/// Folds one emitted result into the running [`RunSummary::checksum`]:
/// FNV-1a over `(id, score bits)` pairs, order sensitive. Public so other
/// delivery paths (e.g. the session layer) can be checked for
/// byte-identical output against a driver run.
pub fn checksum_fold(acc: u64, result: &[Object]) -> u64 {
    let mut h = acc;
    for o in result {
        for chunk in [o.id, o.score.to_bits()] {
            let mut x = chunk;
            for _ in 0..8 {
                h ^= x & 0xFF;
                h = h.wrapping_mul(0x100000001b3);
                x >>= 8;
            }
        }
    }
    h
}

/// Runs `alg` over `data` in batches of `s`, returning the metric summary.
/// Any trailing partial batch is **not** fed to the algorithm (the window
/// only slides in full steps of `s`, per the count-based model); its size
/// is reported in [`RunSummary::leftover`] so the omission is visible.
pub fn run<A: SlidingTopK + ?Sized>(alg: &mut A, data: &[Object]) -> RunSummary {
    run_impl(alg, data, None)
}

/// Like [`run`] but also collects every emitted top-k — used by the
/// equivalence tests. Memory grows with the stream; avoid in benches.
pub fn run_collecting<A: SlidingTopK + ?Sized>(
    alg: &mut A,
    data: &[Object],
) -> (RunSummary, Vec<Vec<Object>>) {
    let mut collected = Vec::new();
    let summary = run_impl(alg, data, Some(&mut collected));
    (summary, collected)
}

fn run_impl<A: SlidingTopK + ?Sized>(
    alg: &mut A,
    data: &[Object],
    mut collect: Option<&mut Vec<Vec<Object>>>,
) -> RunSummary {
    let spec = alg.spec();
    let s = spec.s;
    let mut slides = 0usize;
    let mut checksum = CHECKSUM_SEED;
    let mut cand_sum = 0f64;
    let mut cand_peak = 0usize;
    let mut mem_sum = 0f64;
    let mut mem_peak = 0usize;
    let mut sampled = 0usize;
    let mut elapsed = Duration::ZERO;

    let mut arrived = 0usize;
    for batch in data.chunks_exact(s) {
        let start = Instant::now();
        let result = alg.slide(batch);
        elapsed += start.elapsed();
        checksum = checksum_fold(checksum, result);
        if let Some(out) = collect.as_deref_mut() {
            out.push(result.to_vec());
        }
        slides += 1;
        arrived += s;
        if arrived >= spec.n {
            let c = alg.candidate_count();
            let m = alg.memory_bytes();
            cand_sum += c as f64;
            mem_sum += m as f64;
            cand_peak = cand_peak.max(c);
            mem_peak = mem_peak.max(m);
            sampled += 1;
        }
    }

    let denom = sampled.max(1) as f64;
    RunSummary {
        name: alg.name().to_string(),
        slides,
        elapsed,
        avg_candidates: cand_sum / denom,
        peak_candidates: cand_peak,
        avg_memory_bytes: mem_sum / denom,
        peak_memory_bytes: mem_peak,
        checksum,
        leftover: data.len() - slides * s,
        stats: alg.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OpStats;
    use crate::object::top_k_of;
    use crate::window::WindowSpec;

    /// Minimal reference implementation for driver tests.
    struct Toy {
        spec: WindowSpec,
        window: Vec<Object>,
        result: Vec<Object>,
    }

    impl SlidingTopK for Toy {
        fn spec(&self) -> WindowSpec {
            self.spec
        }
        fn slide(&mut self, batch: &[Object]) -> &[Object] {
            self.window.extend_from_slice(batch);
            let excess = self.window.len().saturating_sub(self.spec.n);
            self.window.drain(..excess);
            self.result = top_k_of(&self.window, self.spec.k);
            &self.result
        }
        fn candidate_count(&self) -> usize {
            self.window.len()
        }
        fn memory_bytes(&self) -> usize {
            self.window.len() * std::mem::size_of::<Object>()
        }
        fn stats(&self) -> OpStats {
            OpStats::default()
        }
        fn name(&self) -> &str {
            "toy"
        }
    }

    fn toy(n: usize, k: usize, s: usize) -> Toy {
        Toy {
            spec: WindowSpec::new(n, k, s).unwrap(),
            window: Vec::new(),
            result: Vec::new(),
        }
    }

    fn stream(len: usize) -> Vec<Object> {
        (0..len)
            .map(|i| Object::new(i as u64, ((i * 37) % 101) as f64))
            .collect()
    }

    #[test]
    fn drives_full_batches_only() {
        let data = stream(103);
        let mut alg = toy(20, 3, 10);
        let summary = run(&mut alg, &data);
        assert_eq!(summary.slides, 10, "partial trailing batch must be ignored");
        assert_eq!(
            summary.leftover, 3,
            "stranded tail objects must be reported"
        );
    }

    #[test]
    fn exact_streams_have_no_leftover() {
        let data = stream(100);
        let summary = run(&mut toy(20, 3, 10), &data);
        assert_eq!(summary.leftover, 0);
    }

    #[test]
    fn checksum_distinguishes_results() {
        let data = stream(200);
        let mut a = toy(20, 3, 10);
        let mut b = toy(20, 3, 10);
        let mut c = toy(20, 2, 10);
        let sa = run(&mut a, &data);
        let sb = run(&mut b, &data);
        let sc = run(&mut c, &data);
        assert_eq!(sa.checksum, sb.checksum);
        assert_ne!(sa.checksum, sc.checksum);
    }

    #[test]
    fn collecting_matches_oracle() {
        let data = stream(60);
        let mut alg = toy(20, 4, 10);
        let (_, results) = run_collecting(&mut alg, &data);
        assert_eq!(results.len(), 6);
        // after the window is full, each result equals the oracle's
        for (i, res) in results.iter().enumerate() {
            let hi = (i + 1) * 10;
            let lo = hi.saturating_sub(20);
            let expect = top_k_of(&data[lo..hi], 4);
            assert_eq!(res, &expect, "slide {i}");
        }
    }

    #[test]
    fn candidate_sampling_starts_at_full_window() {
        let data = stream(100);
        let mut alg = toy(50, 2, 10);
        let summary = run(&mut alg, &data);
        // toy's candidate count is the window length: always 50 once full
        assert_eq!(summary.avg_candidates, 50.0);
        assert_eq!(summary.peak_candidates, 50);
        assert!(summary.avg_memory_bytes > 0.0);
    }
}
