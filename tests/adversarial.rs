//! Failure-injection and pathological-input battery: extreme scores,
//! regime whiplash, long mixed streams, and hostile window geometries.

use sap::baselines::{KSkyband, MinTopK, NaiveTopK, Sma};
use sap::core::{Sap, SapConfig};
use sap::stream::{run_collecting, Object, SlidingTopK, WindowSpec};

fn algos(spec: WindowSpec) -> Vec<Box<dyn SlidingTopK>> {
    vec![
        Box::new(Sap::new(SapConfig::new(spec))),
        Box::new(Sap::new(SapConfig::dynamic(spec))),
        Box::new(Sap::new(SapConfig::equal(spec, None))),
        Box::new(MinTopK::new(spec)),
        Box::new(KSkyband::new(spec)),
        Box::new(Sma::new(spec)),
    ]
}

fn check(data: &[Object], spec: WindowSpec, label: &str) {
    let (_, expect) = run_collecting(&mut NaiveTopK::new(spec), data);
    for mut alg in algos(spec) {
        let name = alg.name().to_string();
        let (_, got) = run_collecting(alg.as_mut(), data);
        assert_eq!(got, expect, "{name} diverged on {label}");
    }
}

fn objects(scores: impl IntoIterator<Item = f64>) -> Vec<Object> {
    scores
        .into_iter()
        .enumerate()
        .map(|(i, s)| Object::new(i as u64, s))
        .collect()
}

#[test]
fn extreme_score_magnitudes() {
    // alternating huge/tiny/negative magnitudes, including subnormals
    let data = objects((0..800).map(|i| match i % 7 {
        0 => 1.0e300,
        1 => -1.0e300,
        2 => 1.0e-300,
        3 => -1.0e-300,
        4 => 0.0,
        5 => -0.0,
        _ => (i as f64) * 1.0e150,
    }));
    check(
        &data,
        WindowSpec::new(80, 6, 8).unwrap(),
        "extreme magnitudes",
    );
}

#[test]
fn regime_whiplash() {
    // violent alternation between flat, spike, and crash regimes — the
    // worst case for TBUI's threshold and the WRT's samples
    let data = objects((0..3000).map(|i| {
        let regime = (i / 100) % 4;
        match regime {
            0 => 100.0,                      // constant plateau (all ties)
            1 => 1.0e6 + i as f64,           // spike, rising
            2 => 1.0 / (1.0 + i as f64),     // crash, falling
            _ => ((i * 7919) % 1000) as f64, // noise
        }
    }));
    check(
        &data,
        WindowSpec::new(300, 10, 10).unwrap(),
        "regime whiplash",
    );
}

#[test]
fn single_object_window() {
    let data = objects((0..50).map(|i| (i % 7) as f64));
    check(&data, WindowSpec::new(1, 1, 1).unwrap(), "n = k = s = 1");
}

#[test]
fn k_equals_n() {
    // every window object is a result; ordering stress only
    let data = objects((0..600).map(|i| ((i * 31) % 17) as f64));
    check(&data, WindowSpec::new(30, 30, 6).unwrap(), "k = n");
}

#[test]
fn duplicate_heavy_blocks() {
    // long runs of one value punctuated by single outliers
    let data = objects((0..2000).map(|i| if i % 97 == 0 { 1000.0 + i as f64 } else { 42.0 }));
    check(
        &data,
        WindowSpec::new(200, 5, 20).unwrap(),
        "duplicate blocks",
    );
}

#[test]
fn sawtooth_aligned_with_partitions() {
    // period chosen to resonate with the equal-partition size, so partition
    // boundaries repeatedly land on score cliffs
    let spec = WindowSpec::new(400, 8, 8).unwrap();
    let unit = Sap::new(SapConfig::equal(spec, None)).unit_target();
    let data = objects((0..4000).map(|i| (i % unit) as f64));
    check(&data, spec, "partition-aligned sawtooth");
}

#[test]
fn very_long_mixed_stream() {
    // 100k objects cycling through all regimes; many full window turnovers
    let data = objects((0..100_000).map(|i| {
        let phase = (i / 5_000) % 3;
        match phase {
            0 => ((i * 2_654_435_761u64) % 100_000) as f64 / 100.0,
            1 => (100_000 - (i % 100_000)) as f64,
            _ => (i % 10) as f64,
        }
    }));
    let spec = WindowSpec::new(2_000, 25, 50).unwrap();
    check(&data, spec, "long mixed stream");
}

#[test]
fn results_stable_under_reconfiguration_variants() {
    // every SAP configuration knob combination answers identically
    let data = objects((0..4000).map(|i| ((i * 131) % 9973) as f64));
    let spec = WindowSpec::new(500, 10, 25).unwrap();
    let (_, reference) = run_collecting(&mut NaiveTopK::new(spec), &data);
    let configs = [
        SapConfig::new(spec),
        SapConfig::new(spec).without_delay(),
        SapConfig::new(spec).without_savl(),
        SapConfig::new(spec).without_delay().without_savl(),
        SapConfig::dynamic(spec),
        SapConfig::dynamic(spec).without_savl(),
        SapConfig::equal(spec, Some(2)),
        SapConfig::equal(spec, Some(20)),
    ];
    for cfg in configs {
        let mut alg = Sap::new(cfg);
        let name = alg.name().to_string();
        let (_, got) = run_collecting(&mut alg, &data);
        assert_eq!(got, reference, "{name} with cfg {cfg:?}");
    }
}

#[test]
fn alpha_variations_do_not_affect_correctness() {
    // the WRT significance level tunes cost, never results
    let data = objects((0..5000).map(|i| ((i * 271) % 7919) as f64));
    let spec = WindowSpec::new(500, 8, 10).unwrap();
    let (_, reference) = run_collecting(&mut NaiveTopK::new(spec), &data);
    for alpha in [0.01, 0.05, 0.2, 0.5] {
        let mut cfg = SapConfig::dynamic(spec);
        cfg.alpha = alpha;
        let (_, got) = run_collecting(&mut Sap::new(cfg), &data);
        assert_eq!(got, reference, "alpha = {alpha}");
    }
}

/// `f64::MIN` is an ordinary score: a count query's count group ranks it
/// exactly as a standalone session does, never as padding.
#[test]
fn f64_min_count_scores_survive_the_reduction() {
    use sap::prelude::{Hub, HubExt, Ingest, Query, QueryExt};

    // ⟨4, 2, 2⟩: the most recent f64::MIN ranks second in both slides
    let query = Query::window(4).top(2).slide(2);
    let data = objects([f64::MIN, 1.0, f64::MIN, f64::MIN]);
    let expected = vec![
        vec![Object::new(1, 1.0), Object::new(0, f64::MIN)],
        vec![Object::new(1, 1.0), Object::new(3, f64::MIN)],
    ];
    let standalone: Vec<Vec<Object>> = query
        .session()
        .unwrap()
        .push(&data)
        .into_iter()
        .map(|r| r.snapshot.to_vec())
        .collect();
    assert_eq!(standalone, expected);
    let mut hub = Hub::new();
    let ids = [
        hub.register(&query).unwrap(),
        hub.register_grouped(&query).unwrap(),
    ];
    let updates = hub.publish(&data);
    for id in ids {
        let served: Vec<Vec<Object>> = updates
            .iter()
            .filter(|u| u.query == id)
            .map(|u| u.result.snapshot.to_vec())
            .collect();
        assert_eq!(served, expected, "{id}");
    }
}

/// `f64::MIN` is an ordinary score: a time-based query's slide group
/// ranks it exactly as a standalone session does, never as padding.
#[test]
fn f64_min_timed_scores_survive_the_reduction() {
    use sap::prelude::{Hub, HubExt, Query, QueryExt, TimedIngest, TimedObject};

    // W⟨10, 5⟩, k = 3: all three objects of slide [0, 5) rank
    let query = Query::window_duration(10).top(3).slide_duration(5);
    let data = [
        TimedObject::new(0, 0, f64::MIN),
        TimedObject::new(1, 1, 1.0),
        TimedObject::new(2, 2, 5.0),
    ];
    let expected = vec![
        Object::new(2, 5.0),
        Object::new(1, 1.0),
        Object::new(0, f64::MIN),
    ];
    let mut standalone = query.timed_session().unwrap();
    assert!(standalone.push_timed(&data).is_empty());
    let closed = standalone.advance_watermark(5);
    assert_eq!(closed[0].snapshot.to_vec(), expected);
    let mut hub = Hub::new();
    hub.register(&query).unwrap();
    assert!(hub.publish_timed(&data).is_empty());
    let closed = hub.advance_time(5);
    assert_eq!(closed[0].result.snapshot.to_vec(), expected);
}
