//! Time-based windows end to end: a wall-clock query built with
//! `Query::window_duration(..)`, a bursty timed stream from the
//! `ArrivalProcess` generator, a mixed count+time-based `Hub`, and the
//! same mix on an `AsyncHub` proving byte-identical drains.
//!
//! ```text
//! cargo run --release --example time_windows
//! ```

use sap::prelude::*;

fn main() {
    timed_session_tour();
    mixed_hub();
}

/// One time-based query through a `TimedSession`: top-5 of the last 600
/// time units (think: seconds), re-evaluated every 60.
fn timed_session_tour() {
    let query = Query::window_duration(600).top(5).slide_duration(60);
    let mut session = query.timed_session().expect("valid query");

    // a Poisson arrival process: bursts and silences, so the number of
    // objects per 60-unit slide genuinely varies (including zero)
    let feed = Dataset::Stock.generate_timed(5_000, 7, ArrivalProcess::poisson(3.0));
    println!(
        "=== timed session: top-{} of the last {}s, sliding every {}s ===",
        session.timed_spec().k,
        session.timed_spec().window_duration,
        session.timed_spec().slide_duration,
    );

    let mut empty_slides = 0u64;
    let mut churn = 0u64;
    for burst in feed.chunks(113) {
        for slide in session.push_timed(burst) {
            if slide.snapshot.is_empty() {
                empty_slides += 1;
            }
            churn += slide.entered().count() as u64;
        }
    }
    // the stream went quiet: raise the watermark to flush trailing slides
    // (one window plus one slide, so the final slide's window lies fully
    // past the last arrival)
    let horizon = feed.last().expect("non-empty feed").timestamp + 600 + 60;
    let tail = session.advance_watermark(horizon);
    println!(
        "  {} slides closed ({} after the stream ended), {} result entries, {} empty slides",
        session.slides(),
        tail.len(),
        churn,
        empty_slides + tail.iter().filter(|r| r.snapshot.is_empty()).count() as u64,
    );
    assert!(
        tail.last()
            .expect("the horizon crosses slides")
            .snapshot
            .is_empty(),
        "after a full window of silence the result must drain to empty"
    );
}

/// Heterogeneous standing queries — count-based and time-based, SAP and
/// baselines — sharing one published timed stream, on both hubs.
fn mixed_hub() {
    let feed = Dataset::Trip.generate_timed(20_000, 11, ArrivalProcess::poisson(5.0));
    let queries: Vec<Query> = (0..40)
        .map(|i| {
            if i % 2 == 0 {
                // count-based: windows in objects
                let s = [100usize, 250, 500][i % 3];
                Query::window(s * 4).top(1 + i % 7).slide(s)
            } else {
                // time-based: windows in time units
                let sd = [50u64, 125, 300][i % 3];
                let q = Query::window_duration(sd * 4)
                    .top(1 + i % 7)
                    .slide_duration(sd);
                if i % 4 == 1 {
                    q.algorithm(AlgorithmKind::MinTopK)
                } else {
                    q
                }
            }
        })
        .collect();

    let mut seq = Hub::new();
    for q in &queries {
        seq.register(q).expect("valid query");
    }
    // the sequential hub returns each chunk's updates in registration
    // (= ascending QueryId) order with slides ascending per query —
    // exactly the order the async drain barrier guarantees, so the
    // per-chunk blocks line up update-for-update
    let mut seq_updates: Vec<QueryUpdate> = Vec::new();
    for burst in feed.chunks(1_000) {
        seq_updates.extend(seq.publish_timed(burst));
    }
    seq_updates.extend(seq.advance_time(feed.last().unwrap().timestamp + 1));

    let mut par = AsyncHub::new(4, 4);
    for q in &queries {
        par.register(q).expect("valid query");
    }
    let mut par_updates: Vec<QueryUpdate> = Vec::new();
    for burst in feed.chunks(1_000) {
        par.publish_timed(burst).expect("shards alive");
        par_updates.extend(par.drain().expect("shards alive"));
    }
    par.advance_time(feed.last().unwrap().timestamp + 1)
        .expect("shards alive");
    par_updates.extend(par.drain().expect("shards alive"));

    println!(
        "\n=== mixed hub: {} queries ({} count-based, {} time-based) ===",
        queries.len(),
        queries.iter().filter(|q| !q.is_time_based()).count(),
        queries.iter().filter(|q| q.is_time_based()).count(),
    );
    println!(
        "  sequential delivered {} updates, async {}",
        seq_updates.len(),
        par_updates.len()
    );
    assert_eq!(
        seq_updates, par_updates,
        "async drain must be byte-identical to the sequential hub"
    );
    println!("  byte-identical drains across both hubs ✓");
}
