//! Time-based windows (paper Appendix A) through the standalone
//! `TimedSession` over SAP, against the brute-force time-window ranking
//! (`tests/common/time_rank.rs`): tie-breaks within and across slides,
//! empty slides, expiry, bursty and silent streams, and the typed errors
//! of a mismatched, used or overflowing reduction.

use sap::prelude::*;
use sap::stream::diff_snapshots;

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

fn obj(id: u64, timestamp: u64, score: f64) -> TimedObject {
    TimedObject::new(id, timestamp, score)
}

/// The top `k` of the last `duration` time units, sliding every
/// `slide`, served by SAP.
fn sap(duration: u64, slide: u64, k: usize) -> TimedSession<Box<dyn SlidingTopK + Send>> {
    Query::window_duration(duration)
        .top(k)
        .slide_duration(slide)
        .timed_session()
        .unwrap()
}

/// The ranking's top-`k` of the window ending at `end`, as a session
/// emits it.
fn expected(all: &[TimedObject], end: u64, duration: u64, slide: u64, k: usize) -> Vec<Object> {
    time_rank::top_k(all, end, duration, slide, k, |_| true)
        .iter()
        .map(TimedObject::untimed)
        .collect()
}

/// Feeds `all` one object per push, checking every closed slide against
/// the ranking, and its delta against the previous emission: a slide
/// SAP proves quiet and a diffed one must read the same.
fn check_against_ranking(all: &[TimedObject], duration: u64, slide: u64, k: usize) {
    let mut q = sap(duration, slide, k);
    let (mut boundary, mut prev) = (slide, Snapshot::empty());
    for &o in all {
        for res in q.push_timed(&[o]) {
            let at = format!("window ending {boundary} (dur={duration}, slide={slide}, k={k})");
            assert_eq!(
                res.snapshot,
                expected(all, boundary, duration, slide, k),
                "{at}"
            );
            assert_eq!(res.events, diff_snapshots(&prev, &res.snapshot), "{at}");
            if res.snapshot == prev {
                assert!(
                    res.snapshot.ptr_eq(&prev),
                    "a quiet slide re-emits its Arc: {at}"
                );
            }
            (boundary, prev) = (boundary + slide, res.snapshot);
        }
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
            out.push(obj(id, t, (rng.next() % 100_000) as f64 / 10.0));
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
        check_against_ranking(&bursty_stream(2_000, seed), duration, slide, k);
    }
}

#[test]
fn matches_time_based_oracle_with_variable_rates() {
    // the number of objects per slide varies 0..40
    let mut rng = Lcg(12345);
    let mut all = Vec::new();
    for t in 0..600u64 {
        let burst = match t % 30 {
            0..=9 => 4,
            10..=19 => 1,
            _ => 0,
        };
        for _ in 0..burst {
            all.push(obj(all.len() as u64, t, (rng.next() % 10_000) as f64));
        }
    }
    check_against_ranking(&all, 100, 10, 3);
}

#[test]
fn handles_total_silence() {
    let mut q = sap(100, 10, 4);
    // a single object, then a huge time jump
    q.push_timed(&[obj(0, 0, 1.0)]);
    let results = q.push_timed(&[obj(1, 1000, 2.0)]);
    assert_eq!(results.len(), 100);
    // after expiry, intermediate windows are empty
    assert!(results[50].snapshot.is_empty());
    let last = q.advance_watermark(1010).pop().unwrap();
    assert_eq!(last.snapshot, vec![Object::new(1, 2.0)]);
}

#[test]
fn candidate_count_stays_bounded() {
    let all = bursty_stream(5_000, 9);
    let mut q = sap(500, 50, 10);
    let mut peak = 0usize;
    for &o in &all {
        q.push_timed(&[o]);
        peak = peak.max(q.engine().candidate_count());
    }
    // Appendix A bound: candidates ≤ O(k·√(slides)) + per-slide buffers;
    // with 10 slides per window and k = 10 anything near the raw window
    // (thousands) would be a regression.
    assert!(peak < 600, "peak candidates {peak}");
}

#[test]
fn rejects_bad_durations() {
    let with = |slide| {
        Query::window_duration(100)
            .top(5)
            .slide_duration(slide)
            .timed_session()
    };
    assert!(matches!(with(30), Err(SapError::Spec(_))));
    assert!(matches!(with(0), Err(SapError::Spec(_))));
    assert!(with(20).is_ok());
}

#[test]
fn equal_scores_at_the_truncation_boundary_keep_the_newer_object() {
    // k = 1 and two equal-score objects in one slide: the documented
    // tie-break (newer = higher id wins) must decide which one survives
    // the slide's top-k reduction
    let mut q = sap(10, 10, 1);
    q.push_timed(&[obj(1, 0, 5.0), obj(2, 0, 5.0)]);
    let results = q.advance_watermark(10);
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].snapshot,
        vec![Object::new(2, 5.0)],
        "higher id wins"
    );
    // and among survivors of a larger slide, ties still order newest
    // first in the result
    let mut q = sap(20, 10, 2);
    q.push_timed(&[obj(7, 0, 3.0), obj(5, 1, 3.0), obj(3, 2, 1.0)]);
    let results = q.advance_watermark(10);
    assert_eq!(
        results[0].snapshot,
        vec![Object::new(7, 3.0), Object::new(5, 3.0)]
    );
}

#[test]
fn cross_slide_ties_resolve_by_slide_recency_not_raw_id() {
    // equal scores in different slides: the later slide's object wins
    // even when its caller id is numerically smaller (ids are opaque
    // across slides; see the TimedObject docs)
    let mut q = sap(20, 10, 2);
    q.push_timed(&[obj(10, 0, 5.0), obj(3, 12, 5.0)]);
    let results = q.advance_watermark(20);
    assert_eq!(
        results.last().unwrap().snapshot,
        vec![Object::new(3, 5.0), Object::new(10, 5.0)]
    );
}

#[test]
fn new_validates_the_reduction() {
    // ⟨100, 5, 10⟩ is not the reduction of W⟨100, 10⟩ with k = 5
    let wrong = Sap::new(SapConfig::new(WindowSpec::new(100, 5, 10).unwrap()));
    assert!(matches!(
        TimedSession::new(wrong, 100, 10),
        Err(SpecError::ReducedSpecMismatch { .. })
    ));
    // the reduction is ⟨(100/10)·5, 5, 5⟩ = ⟨50, 5, 5⟩
    let right = Sap::new(SapConfig::new(WindowSpec::new(50, 5, 5).unwrap()));
    let q = TimedSession::new(right, 100, 10).unwrap();
    let spec = q.timed_spec();
    assert_eq!(
        (spec.window_duration, spec.slide_duration, spec.k),
        (100, 10, 5)
    );
    assert_eq!(q.engine().spec(), WindowSpec::new(50, 5, 5).unwrap());
}

#[test]
fn new_rejects_used_engines() {
    // a used engine's window holds arrival ordinals the consumer's id
    // translation would collide with — must be rejected, not wrapped
    let mut used = Sap::new(SapConfig::new(WindowSpec::new(50, 5, 5).unwrap()));
    let batch: Vec<Object> = (0..5).map(|i| Object::new(i, i as f64)).collect();
    used.slide(&batch);
    assert_eq!(
        TimedSession::new(used, 100, 10).err(),
        Some(SpecError::EngineNotFresh)
    );
}

#[test]
fn reduction_overflow_is_rejected_not_wrapped() {
    // (2^62 + 8) slides × k = 12 overflows usize; must be a typed error,
    // never a silently tiny wrapped window
    let query = Query::window_duration((1u64 << 62) + 8)
        .top(12)
        .slide_duration(1);
    assert!(matches!(
        query.timed_session(),
        Err(SapError::Spec(SpecError::ReductionOverflow { .. }))
    ));
}

#[test]
fn advance_watermark_closes_empty_slides() {
    let mut q = sap(40, 10, 2);
    assert_eq!(q.engine().name(), "SAP");
    q.push_timed(&[obj(0, 5, 7.0)]);
    assert_eq!(q.pending(), 1);
    // watermark 40 closes [0,10) .. [30,40): 4 slides, 3 of them empty
    let results = q.advance_watermark(40);
    assert_eq!(results.len(), 4);
    assert_eq!(results[0].snapshot, vec![Object::new(0, 7.0)]);
    assert_eq!(
        results[3].snapshot,
        vec![Object::new(0, 7.0)],
        "still alive in [0,40)"
    );
    assert_eq!(q.pending(), 0);
    // one more slide expires it
    assert!(q.advance_watermark(50).pop().unwrap().snapshot.is_empty());
    assert!(q.last_snapshot().is_empty());
}

#[test]
fn empty_slides_are_fine() {
    let mut q = sap(40, 10, 2);
    q.push_timed(&[obj(0, 5, 7.0)]);
    // jump far ahead: several empty slides close
    let results = q.push_timed(&[obj(1, 38, 3.0)]);
    assert_eq!(results.len(), 3);
    // the first closed window still contains object 0
    assert_eq!(results[0].snapshot, vec![Object::new(0, 7.0)]);
    let last = q.advance_watermark(40).pop().unwrap();
    assert!(last.snapshot.iter().any(|o| o.id == 1));
}

#[test]
fn window_expiry_by_time() {
    let mut q = sap(20, 10, 1);
    q.push_timed(&[obj(0, 0, 100.0), obj(1, 11, 5.0)]);
    // closing at t=20 → window [0,20): object 0 alive
    let r1 = q.advance_watermark(20).pop().unwrap();
    assert_eq!(r1.snapshot[0].id, 0);
    // at t=30 → window [10,30): object 0 expired
    let r2 = q.advance_watermark(30).pop().unwrap();
    assert_eq!(
        r2.snapshot[0].id, 1,
        "the 100-score object must have expired"
    );
}
