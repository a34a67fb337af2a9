//! Workload generators reproducing the paper's five datasets (§6.1).
//!
//! The three real datasets (STOCK, TRIP, PLANET) are not available offline;
//! each is replaced by a synthetic generator preserving the distributional
//! property the evaluation exercises — see DESIGN.md §4.8 for the
//! substitution table. TIMER and TIMEU are generated exactly as the paper
//! defines them. A few extra adversarial streams (decreasing, increasing,
//! sawtooth, constant) cover the worst cases discussed around Figure 1.
//!
//! ```
//! use sap_stream::{Dataset, Workload};
//!
//! let a = Dataset::TimeU.generate(100, 7);
//! assert_eq!(a.len(), 100);
//! assert_eq!(a, Dataset::TimeU.generate(100, 7), "deterministic per seed");
//! assert!(a.iter().all(|o| (0.0..1.0).contains(&o.score)));
//! ```

mod dist;
mod planet;
mod stock;
mod trip;

use crate::object::{Object, TimedObject};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

pub use dist::{sample_gamma, sample_lognormal, sample_normal};

/// A deterministic arrival-time model turning a count-based stream into a
/// timed one: objects keep their generated scores and gain timestamps with
/// configurable rate and jitter, so the number of objects per time-based
/// slide actually varies (the whole point of the paper's Appendix-A
/// model).
///
/// Inter-arrival gaps are drawn as
/// `mean_interarrival · ((1 − jitter) + jitter · Exp(1))`:
///
/// * `jitter = 0.0` — a metronome: exactly one object every
///   `mean_interarrival` time units, every slide equally full;
/// * `jitter = 1.0` — a Poisson process: bursts *and* long silences, so
///   slides range from overstuffed to completely empty;
/// * values in between blend the two while keeping the mean rate fixed.
///
/// ```
/// use sap_stream::{ArrivalProcess, Dataset, Workload};
///
/// let poisson = ArrivalProcess::poisson(4.0); // ~4 time units apart
/// let timed = Dataset::TimeU.generate_timed(1_000, 7, poisson);
/// assert_eq!(timed.len(), 1_000);
/// assert!(timed.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalProcess {
    /// Mean gap between consecutive arrivals, in time units. Values below
    /// 1.0 pack multiple objects into one integer timestamp; negative
    /// values are treated as 0.
    pub mean_interarrival: f64,
    /// Rate variability in `[0, 1]`: 0 = uniform spacing, 1 = Poisson.
    /// Values outside the range are clamped — a jitter above 1 would make
    /// inter-arrival gaps negative, breaking the non-decreasing timestamp
    /// contract every timed consumer relies on.
    pub jitter: f64,
}

impl ArrivalProcess {
    /// Perfectly regular arrivals every `mean_interarrival` time units.
    pub fn uniform(mean_interarrival: f64) -> Self {
        ArrivalProcess {
            mean_interarrival,
            jitter: 0.0,
        }
    }

    /// Memoryless arrivals at rate `1 / mean_interarrival` — the
    /// maximally bursty setting, guaranteed to exercise empty slides on
    /// any slide duration comparable to the mean gap.
    pub fn poisson(mean_interarrival: f64) -> Self {
        ArrivalProcess {
            mean_interarrival,
            jitter: 1.0,
        }
    }

    /// Generates `len` non-decreasing integer timestamps,
    /// deterministically from `seed`. Out-of-range fields are clamped
    /// (see the field docs), so the non-decreasing guarantee holds for
    /// any finite parameter values.
    pub fn timestamps(&self, len: usize, seed: u64) -> Vec<u64> {
        let mean = self.mean_interarrival.max(0.0);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7131_ED0A_u64);
        let mut clock = 0.0f64;
        (0..len)
            .map(|_| {
                let u: f64 = rng.random();
                // Exp(1) via inversion; u < 1 so the log is finite
                let exp = -(1.0 - u).ln();
                clock += mean * ((1.0 - jitter) + jitter * exp);
                clock as u64
            })
            .collect()
    }
}

/// A deterministic, seedable stream generator.
pub trait Workload {
    /// Short identifier used in reports (matches the paper's dataset names
    /// where applicable).
    fn name(&self) -> &'static str;

    /// Generates `len` objects with ids `0..len`, deterministically from
    /// `seed`.
    fn generate(&self, len: usize, seed: u64) -> Vec<Object>;

    /// Generates `len` **timestamped** objects: the same scores as
    /// [`generate`](Workload::generate) (same `seed`, same ids), with
    /// arrival times drawn from `arrival`. Input for the time-based query
    /// model (`Hub::publish_timed`, `TimedSession::push_timed`).
    fn generate_timed(&self, len: usize, seed: u64, arrival: ArrivalProcess) -> Vec<TimedObject> {
        let times = arrival.timestamps(len, seed);
        self.generate(len, seed)
            .into_iter()
            .zip(times)
            .map(|(o, timestamp)| TimedObject::new(o.id, timestamp, o.score))
            .collect()
    }
}

/// The built-in datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// Simulated stock transactions; `F = price × volume` (paper's STOCK).
    Stock,
    /// Simulated taxi trips; `F = distance / duration` (paper's TRIP).
    Trip,
    /// Simulated astronomical observations; `F = dist(r, o)` to a fixed
    /// query point (paper's PLANET).
    Planet,
    /// Scores uniform in `[0, 1)`, independent of arrival order
    /// (paper's TIMEU).
    TimeU,
    /// Scores correlated with arrival order: `F(o) = sin(π·o.t / period)`
    /// (paper's TIMER; the paper fixes `period = 10⁶`).
    TimeR {
        /// The sine period in objects.
        period: f64,
    },
    /// Strictly decreasing scores — the adversarial case of Figure 1(a)
    /// where every object is a k-skyband object.
    Decreasing,
    /// Strictly increasing scores — every new object dominates the window.
    Increasing,
    /// Piecewise linear ramps (rise then fall), like the units of Figure 7.
    Sawtooth {
        /// Ramp length in objects.
        ramp: usize,
    },
    /// All scores identical — stresses tie handling end to end.
    Constant,
}

impl Dataset {
    /// The paper's TIMER with its published period of 10⁶ objects.
    pub fn time_r_paper() -> Self {
        Dataset::TimeR { period: 1.0e6 }
    }

    /// The five datasets of the paper's §6.1, with the TIMER period scaled
    /// to `len` so that a laptop-scale stream still sees several periods
    /// (the paper's 10⁶ period assumed multi-gigabyte streams).
    pub fn paper_suite(len: usize) -> Vec<Dataset> {
        vec![
            Dataset::Stock,
            Dataset::Trip,
            Dataset::Planet,
            Dataset::TimeU,
            Dataset::TimeR {
                period: (len as f64 / 8.0).max(16.0),
            },
        ]
    }
}

impl Workload for Dataset {
    fn name(&self) -> &'static str {
        match self {
            Dataset::Stock => "STOCK",
            Dataset::Trip => "TRIP",
            Dataset::Planet => "PLANET",
            Dataset::TimeU => "TIMEU",
            Dataset::TimeR { .. } => "TIMER",
            Dataset::Decreasing => "DECR",
            Dataset::Increasing => "INCR",
            Dataset::Sawtooth { .. } => "SAW",
            Dataset::Constant => "CONST",
        }
    }

    fn generate(&self, len: usize, seed: u64) -> Vec<Object> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5AF0_70F1_u64);
        match self {
            Dataset::Stock => stock::generate(len, &mut rng),
            Dataset::Trip => trip::generate(len, &mut rng),
            Dataset::Planet => planet::generate(len, &mut rng),
            Dataset::TimeU => (0..len)
                .map(|i| Object::new(i as u64, rng.random::<f64>()))
                .collect(),
            Dataset::TimeR { period } => (0..len)
                .map(|i| Object::new(i as u64, (std::f64::consts::PI * i as f64 / period).sin()))
                .collect(),
            Dataset::Decreasing => (0..len)
                .map(|i| Object::new(i as u64, (len - i) as f64))
                .collect(),
            Dataset::Increasing => (0..len).map(|i| Object::new(i as u64, i as f64)).collect(),
            Dataset::Sawtooth { ramp } => {
                let ramp = (*ramp).max(2);
                (0..len)
                    .map(|i| {
                        let phase = i % (2 * ramp);
                        let v = if phase < ramp {
                            phase as f64
                        } else {
                            (2 * ramp - phase) as f64
                        };
                        Object::new(i as u64, v + 0.001 * rng.random::<f64>())
                    })
                    .collect()
            }
            Dataset::Constant => (0..len).map(|i| Object::new(i as u64, 1.0)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic_checks(ds: Dataset) {
        let a = ds.generate(1000, 7);
        let b = ds.generate(1000, 7);
        let c = ds.generate(1000, 8);
        assert_eq!(a.len(), 1000);
        // deterministic under the same seed
        assert!(a.iter().zip(&b).all(|(x, y)| x == y), "{}", ds.name());
        // ids sequential
        assert!(a.iter().enumerate().all(|(i, o)| o.id == i as u64));
        // all scores finite
        assert!(a.iter().all(|o| o.score.is_finite()));
        // different seeds differ for stochastic datasets
        match ds {
            Dataset::Decreasing
            | Dataset::Increasing
            | Dataset::Constant
            | Dataset::TimeR { .. } => {}
            _ => {
                assert!(
                    a.iter().zip(&c).any(|(x, y)| x.score != y.score),
                    "{} ignored its seed",
                    ds.name()
                );
            }
        }
    }

    #[test]
    fn all_datasets_generate() {
        for ds in [
            Dataset::Stock,
            Dataset::Trip,
            Dataset::Planet,
            Dataset::TimeU,
            Dataset::TimeR { period: 128.0 },
            Dataset::Decreasing,
            Dataset::Increasing,
            Dataset::Sawtooth { ramp: 50 },
            Dataset::Constant,
        ] {
            basic_checks(ds);
        }
    }

    #[test]
    fn timer_is_the_paper_formula() {
        let ds = Dataset::TimeR { period: 1.0e6 };
        let objs = ds.generate(10, 0);
        for o in objs {
            let expect = (std::f64::consts::PI * o.id as f64 / 1.0e6).sin();
            assert_eq!(o.score, expect);
        }
    }

    #[test]
    fn decreasing_is_strictly_decreasing() {
        let objs = Dataset::Decreasing.generate(100, 0);
        assert!(objs.windows(2).all(|w| w[0].score > w[1].score));
    }

    #[test]
    fn sawtooth_oscillates() {
        let objs = Dataset::Sawtooth { ramp: 10 }.generate(100, 3);
        let ups = objs.windows(2).filter(|w| w[1].score > w[0].score).count();
        let downs = objs.windows(2).filter(|w| w[1].score < w[0].score).count();
        assert!(ups > 20 && downs > 20);
    }

    #[test]
    fn arrival_process_is_deterministic_and_rate_true() {
        let p = ArrivalProcess::poisson(3.0);
        let a = p.timestamps(5_000, 11);
        let b = p.timestamps(5_000, 11);
        assert_eq!(a, b, "same seed, same clock");
        assert_ne!(a, p.timestamps(5_000, 12));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        // the mean gap survives the jitter (law of large numbers)
        let mean = *a.last().unwrap() as f64 / a.len() as f64;
        assert!((mean - 3.0).abs() < 0.3, "mean gap {mean} far from 3.0");
        // uniform arrivals are a metronome
        let u = ArrivalProcess::uniform(2.0).timestamps(10, 0);
        assert_eq!(u, vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]);
        // out-of-range fields are clamped: timestamps stay non-decreasing
        let wild = ArrivalProcess {
            mean_interarrival: 5.0,
            jitter: 1.5,
        };
        let ts = wild.timestamps(2_000, 3);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        let negative = ArrivalProcess {
            mean_interarrival: -4.0,
            jitter: 0.5,
        };
        assert!(negative.timestamps(10, 0).iter().all(|&t| t == 0));
    }

    #[test]
    fn generate_timed_keeps_scores_and_varies_rates() {
        let plain = Dataset::Stock.generate(500, 9);
        let timed = Dataset::Stock.generate_timed(500, 9, ArrivalProcess::poisson(5.0));
        assert_eq!(timed.len(), 500);
        for (p, t) in plain.iter().zip(&timed) {
            assert_eq!((p.id, p.score), (t.id, t.score), "scores must match");
        }
        // Poisson arrivals produce both shared timestamps-in-a-slide and
        // gaps wider than the mean (the variable objects-per-slide regime)
        let gaps: Vec<u64> = timed
            .windows(2)
            .map(|w| w[1].timestamp - w[0].timestamp)
            .collect();
        assert!(gaps.iter().any(|&g| g <= 1), "no bursts generated");
        assert!(gaps.iter().any(|&g| g >= 10), "no silences generated");
    }

    #[test]
    fn paper_suite_has_five() {
        let suite = Dataset::paper_suite(100_000);
        assert_eq!(suite.len(), 5);
        let names: Vec<&str> = suite.iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["STOCK", "TRIP", "PLANET", "TIMEU", "TIMER"]);
    }
}
