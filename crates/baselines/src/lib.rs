//! Baseline continuous top-k algorithms from the paper's related work (§2.1).
//!
//! These are the competitors the SAP evaluation compares against:
//!
//! * [`NaiveTopK`] — re-scans the whole window on every slide; the
//!   correctness oracle every other algorithm is tested against;
//! * [`KSkyband`] — the one-pass k-skyband algorithm of Shen et al. \[19\]:
//!   maintains every window object dominated by fewer than `k` others;
//! * [`MinTopK`] — Yang et al. \[25\]: exploits the slide size `s` by keeping,
//!   per future window, a predicted top-k result set (equivalently the
//!   k-skyband at slide granularity — see DESIGN.md §4.4);
//! * [`Sma`] — Mouratidis et al. \[17\]: a multi-pass algorithm keeping the
//!   top-`k_max` window objects as candidates over a grid index, re-scanning
//!   the grid whenever the candidate set drops below `k`.
//!
//! All four implement [`sap_stream::SlidingTopK`] and return results
//! identical to the oracle (enforced by this crate's tests and by the
//! workspace integration tests).

mod common;
pub mod grid;
pub mod kskyband;
pub mod mintopk;
pub mod naive;
pub mod sma;

pub use grid::ScoreGrid;
pub use kskyband::KSkyband;
pub use mintopk::MinTopK;
pub use naive::NaiveTopK;
pub use sma::Sma;

use sap_stream::{AlgorithmKind, SapError, SlidingTopK, WindowSpec};

/// Constructs the baseline selected by a query-layer [`AlgorithmKind`].
/// Returns `None` for [`AlgorithmKind::Sap`], which is built by the
/// engine crate; `Some(Err(_))` reports invalid baseline parameters.
///
/// The box is `Send`, the engine type a hub
/// [`Registration`](sap_stream::Registration) carries (an
/// [`AsyncHub`](sap_stream::AsyncHub) moves it to a worker thread); it
/// coerces to a plain `Box<dyn SlidingTopK>` wherever `Send` is not
/// needed.
pub fn from_kind(
    spec: WindowSpec,
    kind: &AlgorithmKind,
) -> Option<Result<Box<dyn SlidingTopK + Send>, SapError>> {
    match *kind {
        AlgorithmKind::Sap { .. } => None,
        AlgorithmKind::Naive => Some(Ok(Box::new(NaiveTopK::new(spec)))),
        AlgorithmKind::KSkyband => Some(Ok(Box::new(KSkyband::new(spec)))),
        AlgorithmKind::MinTopK => Some(Ok(Box::new(MinTopK::new(spec)))),
        AlgorithmKind::Sma { kmax, grid_buckets } => {
            let kmax = kmax.unwrap_or(2 * spec.k);
            let buckets = grid_buckets.unwrap_or(sma::DEFAULT_GRID_BUCKETS);
            Some(Sma::try_with_params(spec, kmax, buckets).map(|a| Box::new(a) as _))
        }
    }
}

#[cfg(test)]
mod factory_tests {
    use super::*;

    #[test]
    fn from_kind_builds_every_baseline() {
        let spec = WindowSpec::new(100, 5, 10).unwrap();
        for (kind, name) in [
            (AlgorithmKind::Naive, "naive"),
            (AlgorithmKind::KSkyband, "k-skyband"),
            (AlgorithmKind::MinTopK, "MinTopK"),
            (AlgorithmKind::sma(), "SMA"),
        ] {
            let alg = from_kind(spec, &kind)
                .expect("baseline kind")
                .expect("valid");
            assert_eq!(alg.name(), name);
            assert_eq!(alg.spec(), spec);
        }
    }

    #[test]
    fn from_kind_rejects_bad_sma_params() {
        let spec = WindowSpec::new(100, 10, 10).unwrap();
        let built = from_kind(
            spec,
            &AlgorithmKind::Sma {
                kmax: Some(3),
                grid_buckets: None,
            },
        )
        .unwrap();
        match built {
            Err(e) => assert_eq!(e, SapError::KMaxTooSmall { kmax: 3, k: 10 }),
            Ok(_) => panic!("undersized k_max must be rejected"),
        }
    }

    #[test]
    fn from_kind_defers_sap_to_the_engine_crate() {
        let spec = WindowSpec::new(100, 5, 10).unwrap();
        assert!(from_kind(spec, &AlgorithmKind::sap()).is_none());
    }
}
