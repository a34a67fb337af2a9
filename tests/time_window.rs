//! The time-based window adapter (Appendix A) against a time-based oracle
//! under bursty, irregular arrival rates.

use sap::core::{TimeBasedSap, TimedObject};

#[path = "common/time_rank.rs"]
mod time_rank;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn bursty_stream(len_time: u64, seed: u64) -> Vec<TimedObject> {
    let mut rng = Lcg(seed);
    let mut out = Vec::new();
    let mut id = 0u64;
    for t in 0..len_time {
        // burst pattern: quiet stretches, steady periods, and spikes
        let rate = match (t / 37) % 4 {
            0 => 0,
            1 => 1,
            2 => 3,
            _ => (rng.next() % 9) as usize,
        };
        for _ in 0..rate {
            out.push(TimedObject {
                id,
                timestamp: t,
                score: (rng.next() % 100_000) as f64 / 10.0,
            });
            id += 1;
        }
    }
    out
}

#[test]
fn matches_oracle_over_long_bursty_stream() {
    for (duration, slide, k, seed) in [
        (200u64, 20u64, 5usize, 1u64),
        (120, 10, 3, 2),
        (90, 30, 8, 3),
    ] {
        let all = bursty_stream(2_000, seed);
        let mut q = TimeBasedSap::new(duration, slide, k).unwrap();
        let mut boundary = slide;
        for &o in &all {
            for res in q.ingest(o) {
                let expect = time_rank::top_k(&all, boundary, duration, slide, k, |_| true);
                assert_eq!(
                    res, expect,
                    "window ending {boundary} (dur={duration}, slide={slide}, k={k})"
                );
                boundary += slide;
            }
        }
    }
}

#[test]
fn handles_total_silence() {
    let mut q = TimeBasedSap::new(100, 10, 4).unwrap();
    // a single object, then a huge time jump
    q.ingest(TimedObject {
        id: 0,
        timestamp: 0,
        score: 1.0,
    });
    let results = q.ingest(TimedObject {
        id: 1,
        timestamp: 1000,
        score: 2.0,
    });
    assert_eq!(results.len(), 100);
    // after expiry, intermediate windows are empty
    assert!(results[50].is_empty());
    let last = q.close_slide();
    assert_eq!(last.len(), 1);
    assert_eq!(last[0].id, 1);
}

#[test]
fn candidate_count_stays_bounded() {
    let all = bursty_stream(5_000, 9);
    let mut q = TimeBasedSap::new(500, 50, 10).unwrap();
    let mut peak = 0usize;
    for &o in &all {
        q.ingest(o);
        peak = peak.max(q.candidate_count());
    }
    // Appendix A bound: candidates ≤ O(k·√(slides)) + per-slide buffers;
    // with 10 slides per window and k = 10 anything near the raw window
    // (thousands) would be a regression.
    assert!(peak < 600, "peak candidates {peak}");
}
