//! The host-speed probe.
//!
//! A shared host's speed drifts: on a 2-vCPU cloud VM the same work takes
//! up to half as long again for stretches of seconds to minutes while
//! neighbours load the machine, which no statistic over one run can hide.
//! The probe times a fixed piece of work that does not touch the library
//! (ordered-map inserts and removals, then a sort) before and after every
//! measured set-up, slice and window. Its time tracks the workloads' own:
//! across slices, log rate against log probe time has a slope of about
//! −1. So a measurement is scaled to a host on which the probe takes
//! [`REFERENCE_US`], and a change to the library moves the scaled figures
//! while a change in the host's speed mostly does not.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keys the probe inserts.
const KEYS: u64 = 12_000;

/// The probe's reading on the reference host, in µs: about its reading
/// on an unloaded 2-vCPU Xeon VM.
pub const REFERENCE_US: f64 = 1500.0;

/// How many times slower than the reference host the host ran, from
/// the probe times around a measurement (µs).
pub fn slowdown(before_us: f64, after_us: f64) -> f64 {
    (before_us + after_us) / 2.0 / REFERENCE_US
}

/// Runs of the probe per reading; a reading is the fastest, so a
/// preemption during one run does not count as a slow host.
const RUNS: usize = 3;

/// Times the probe's fixed work, in µs.
pub fn probe_us() -> f64 {
    (0..RUNS)
        .map(|_| probe().as_secs_f64() * 1e6)
        .fold(f64::INFINITY, f64::min)
}

/// Times one run of the probe's fixed work.
fn probe() -> Duration {
    let started = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % (KEYS * 4), i);
        if i % 3 == 2 {
            let key = *black_box(&map).keys().next().expect("the map is not empty");
            map.remove(&key);
        }
    }
    let mut values: Vec<f64> = map.iter().map(|(k, v)| (*k as f64).sqrt() * *v as f64).collect();
    values.sort_unstable_by(|a, b| b.total_cmp(a));
    black_box(values);
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_probe_time_over_the_reference() {
        assert_eq!(slowdown(REFERENCE_US, REFERENCE_US), 1.0);
        assert_eq!(slowdown(1000.0, 2000.0), 1500.0 / REFERENCE_US);
        assert!(probe_us() > 0.0);
    }
}
