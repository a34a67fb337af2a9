//! Property-based tests (proptest): arbitrary streams and window
//! geometries, algorithm equivalence, and structural invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use sap::baselines::{KSkyband, MinTopK, NaiveTopK, Sma};
use sap::core::{Sap, SapConfig};
use sap::stream::{
    run_collecting, DigestProducer, Object, SharedTimed, SlidingTopK, TimedObject, TimedSpec,
    WindowSpec,
};

/// Builds a stream from raw score choices; a small score alphabet makes
/// ties frequent, which is where bugs hide.
fn stream(scores: Vec<u8>) -> Vec<Object> {
    scores
        .into_iter()
        .enumerate()
        .map(|(i, s)| Object::new(i as u64, s as f64))
        .collect()
}

/// Window geometry: s divides n, 1 ≤ k ≤ n.
fn geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=25, 1usize..=10)
        .prop_flat_map(|(m, s)| {
            let n = m * s;
            (Just(n), 1..=n, Just(s))
        })
        .prop_map(|(n, k, s)| (n, k, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fundamental contract: every algorithm equals the re-scanning
    /// oracle on arbitrary tie-heavy streams and window geometries.
    #[test]
    fn all_algorithms_match_oracle(
        scores in vec(0u8..16, 0..400),
        (n, k, s) in geometry(),
    ) {
        let data = stream(scores);
        let spec = WindowSpec::new(n, k, s).unwrap();
        let (_, expect) = run_collecting(&mut NaiveTopK::new(spec), &data);

        let mut algs: Vec<Box<dyn SlidingTopK>> = vec![
            Box::new(Sap::new(SapConfig::new(spec))),
            Box::new(Sap::new(SapConfig::dynamic(spec))),
            Box::new(Sap::new(SapConfig::equal(spec, None))),
            Box::new(Sap::new(SapConfig::equal(spec, None).without_savl())),
            Box::new(Sap::new(SapConfig::equal(spec, None).without_delay())),
            Box::new(MinTopK::new(spec)),
            Box::new(KSkyband::new(spec)),
            Box::new(Sma::new(spec)),
        ];
        for alg in &mut algs {
            let name = alg.name().to_string();
            let (_, got) = run_collecting(alg.as_mut(), &data);
            prop_assert_eq!(&got, &expect, "{} diverged (n={},k={},s={})", name, n, k, s);
        }
    }

    /// Results are always sorted descending, unique, and within the window.
    #[test]
    fn result_wellformedness(
        scores in vec(0u8..100, 0..300),
        (n, k, s) in geometry(),
    ) {
        let data = stream(scores);
        let spec = WindowSpec::new(n, k, s).unwrap();
        let mut alg = Sap::new(SapConfig::new(spec));
        let mut fed = 0usize;
        for batch in data.chunks_exact(s) {
            let top = alg.slide(batch);
            fed += s;
            let window_lo = fed.saturating_sub(n) as u64;
            prop_assert!(top.len() <= k);
            prop_assert!(top.len() == k.min(fed.min(n)) || top.len() == k,
                "result too short: {} of {}", top.len(), k.min(fed));
            for w in top.windows(2) {
                prop_assert!(w[0].key() > w[1].key(), "not strictly descending");
            }
            for o in top {
                prop_assert!(o.id >= window_lo && o.id < fed as u64, "expired object in result");
            }
        }
    }

    /// MinTopK's candidate bound (§2.1): |C| ≤ n·k / max(s, k) + k.
    #[test]
    fn mintopk_candidate_bound(
        scores in vec(0u8..255, 200..600),
        (n, k, s) in geometry(),
    ) {
        let data = stream(scores);
        let spec = WindowSpec::new(n, k, s).unwrap();
        let mut alg = MinTopK::new(spec);
        for batch in data.chunks_exact(s) {
            alg.slide(batch);
            let bound = n * k / s.max(k) + k;
            prop_assert!(
                alg.candidate_count() <= bound,
                "|C| = {} exceeds bound {}",
                alg.candidate_count(),
                bound
            );
        }
    }

    /// SAP's candidate structures stay bounded by Eq. (1) plus the live
    /// buffers — specifically they never approach the window size on
    /// random streams with n ≫ k.
    #[test]
    fn sap_candidates_bounded(
        scores in vec(0u8..255, 400..800),
        s in 1usize..=8,
    ) {
        let n = 40 * s;
        let k = 3usize;
        let data = stream(scores);
        let spec = WindowSpec::new(n, k, s).unwrap();
        let mut alg = Sap::new(SapConfig::equal(spec, None));
        let p = alg.unit_target();
        let m = n.div_ceil(p);
        let bound = m * k + p * k / s.max(k) + 2 * k;
        for batch in data.chunks_exact(s) {
            alg.slide(batch);
            prop_assert!(
                alg.candidate_count() <= bound,
                "candidates {} exceed Eq.(1) bound {} (p={}, m={})",
                alg.candidate_count(),
                bound,
                p,
                m
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chunked delivery equivalence: feeding the same stream through any
    /// valid slide size yields results consistent with the oracle at that
    /// slide size (no hidden cross-slide state).
    #[test]
    fn restart_determinism(
        scores in vec(0u8..50, 100..300),
    ) {
        let data = stream(scores);
        let spec = WindowSpec::new(60, 6, 6).unwrap();
        let (_, a) = run_collecting(&mut Sap::new(SapConfig::new(spec)), &data);
        let (_, b) = run_collecting(&mut Sap::new(SapConfig::new(spec)), &data);
        prop_assert_eq!(a, b, "engine must be deterministic");
    }
}

/// Scores for the nesting property: few values, so ties are everywhere,
/// and `f64::MIN` among them, the finite score closest to padding.
const NEST_SCORES: [f64; 4] = [f64::MIN, -1.0, 0.0, 2.0];

/// Digest consumers at every `k ≤ k_max` over one window, each over a
/// fresh engine on its reduction `reduced(k)`: SAP's and the
/// brute-force one's, alternating.
type Nest = Vec<(usize, SharedTimed<Box<dyn SlidingTopK>>)>;

fn nest(
    k_max: usize,
    reduced: impl Fn(usize) -> WindowSpec,
    consumer: impl Fn(Box<dyn SlidingTopK>) -> SharedTimed<Box<dyn SlidingTopK>>,
) -> Nest {
    let mut all = Nest::new();
    for k in 1..=k_max {
        let spec = reduced(k);
        all.push((k, consumer(Box::new(Sap::new(SapConfig::new(spec))))));
        all.push((k, consumer(Box::new(NaiveTopK::new(spec)))));
    }
    all
}

/// Applies one closed slide to every consumer, then checks the nesting:
/// each engine's `k` result is the first `k` of the same engine's
/// `k_max` result.
fn apply_nested(consumers: &mut Nest, slide: u64, top: &[TimedObject]) {
    for (_, c) in consumers.iter_mut() {
        c.apply_slide_top(slide, top);
    }
    let (_, deepest) = consumers.split_last_chunk::<2>().expect("k_max ≥ 1");
    for (engine, (k_max, deepest)) in deepest.iter().enumerate() {
        let deepest = deepest.last_result();
        for (k, c) in consumers.iter().skip(engine).step_by(2) {
            let prefix = &deepest[..(*k).min(deepest.len())];
            prop_assert_eq!(
                c.last_result(),
                prefix,
                "slide {}, k = {} of {}",
                slide,
                k,
                k_max
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Top-k answers nest on the event clock: one producer at `k_max`
    /// feeds consumers at every `k ≤ k_max`, and at every slide each
    /// `k` consumer's result is the first `k` of the `k_max` one's —
    /// over tie-heavy streams with `f64::MIN` scores, and with empty and
    /// short slides, whose reduced slides are padded.
    #[test]
    fn event_clock_results_nest_across_k(
        draws in vec((0u64..4, 0usize..4), 0..120),
        (sd, slides, k_max) in (1u64..=4, 1u64..=4, 1usize..=6),
    ) {
        let wd = sd * slides;
        let mut consumers = nest(
            k_max,
            |k| TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap(),
            |e| SharedTimed::from_engine(e, wd, sd).unwrap(),
        );
        let mut producer = DigestProducer::new(sd, k_max);
        let mut t = 0;
        for (id, (gap, score)) in draws.into_iter().enumerate() {
            t += gap;
            let o = TimedObject::new(id as u64, t, NEST_SCORES[score]);
            producer.ingest_with(o, &mut |v| apply_nested(&mut consumers, v.slide, v.top));
        }
        producer.advance_to_with(t + wd + sd, &mut |v| {
            apply_nested(&mut consumers, v.slide, v.top)
        });
    }

    /// The same nesting on the arrival clock, with `s` on both sides of
    /// `k`: each consumer runs `⟨(n/s)·min(k, s), k, min(k, s)⟩`, and a
    /// filter that rejects some arrivals leaves slides short or empty.
    #[test]
    fn arrival_clock_results_nest_across_k(
        draws in vec((0usize..4, 0usize..4), 0..120),
        (s, slides, k_max) in (1usize..=5, 1usize..=4, 1usize..=6),
    ) {
        let n = s * slides;
        let k_max = k_max.min(n);
        let mut consumers = nest(
            k_max,
            |k| WindowSpec::new(n, k, s).unwrap().reduced(),
            |e| SharedTimed::from_count_engine(e, n, s).unwrap(),
        );
        let mut producer = DigestProducer::new(s as u64, k_max);
        for (r, (filter, score)) in (0u64..).zip(draws) {
            // a rejected arrival still fills its slide
            if filter > 0 {
                producer.ingest_with(TimedObject::new(r, r, NEST_SCORES[score]), &mut |_| {});
            }
            producer.advance_to_with(r + 1, &mut |v| {
                apply_nested(&mut consumers, v.slide, v.top)
            });
        }
    }
}
