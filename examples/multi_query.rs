//! Multi-query serving: 100 concurrent standing subscriptions — mixed
//! window geometries ⟨n, k, s⟩ *and* mixed algorithms — over one stock
//! stream, through a single `Hub`; then the same regime scaled 100× onto
//! a thread-parallel `AsyncHub` serving **10,000** queries. This is the
//! regime the ROADMAP's production north-star targets (many users, one
//! ingestion path) and the setting of *Continuous Top-k Queries over
//! Real-Time Web Streams*: subscriptions come and go at runtime while the
//! stream keeps flowing.
//!
//! ```text
//! cargo run --release --example multi_query
//! ```

use sap::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    sequential_hub_100();
    async_hub_10k();
    shared_digest_plane_500();
}

/// 500 time-based queries over just 3 distinct slide durations — the
/// shared digest plane computes each slide's top-`k_max` once per
/// duration and serves every overlapping query its own `k`-prefix,
/// byte-identically to a standalone `TimedSession` per query.
/// `Hub::stats()` reports the sharing instead of leaving us to guess at
/// it.
fn shared_digest_plane_500() {
    const QUERIES: usize = 500;
    let feed = Dataset::Stock.generate_timed(20_000, 11, ArrivalProcess::poisson(25.0));
    let horizon = feed.last().unwrap().timestamp + 1;
    let query_at = |i: usize| {
        let sd = [1_000u64, 2_000, 4_000][i % 3];
        Query::window_duration(sd * [2u64, 4, 8][(i / 3) % 3])
            .top(1 + (i % 10))
            .slide_duration(sd)
            .algorithm([AlgorithmKind::sap(), AlgorithmKind::MinTopK][i % 2])
    };

    // standalone reference: every query re-derives its own per-slide
    // top-k in a session of its own
    let mut isolated: Vec<_> = (0..QUERIES)
        .map(|i| query_at(i).timed_session().expect("valid query"))
        .collect();
    let started = Instant::now();
    let mut iso_updates = 0u64;
    for burst in feed.chunks(1000) {
        for session in &mut isolated {
            iso_updates += session.push_timed(burst).len() as u64;
        }
    }
    for session in &mut isolated {
        iso_updates += session.advance_watermark(horizon).len() as u64;
    }
    let iso_time = started.elapsed();

    // shared plane: same queries, one digest producer per slide duration
    // (`register` puts every time-based query on it)
    let mut shared = Hub::new();
    let ids: Vec<QueryId> = (0..QUERIES)
        .map(|i| shared.register(&query_at(i)).expect("valid query"))
        .collect();
    let started = Instant::now();
    let mut shared_updates = 0u64;
    for burst in feed.chunks(1000) {
        shared_updates += shared.publish_timed(burst).len() as u64;
    }
    shared_updates += shared.advance_time(horizon).len() as u64;
    let shared_time = started.elapsed();

    let stats = shared.stats();
    println!(
        "\n=== shared digest plane: {QUERIES} timed queries, {} objects ===",
        feed.len()
    );
    println!(
        "  standalone: {iso_updates} updates in {:.2}s",
        iso_time.as_secs_f64()
    );
    println!(
        "  shared:     {shared_updates} updates in {:.2}s ({:.2}x)",
        shared_time.as_secs_f64(),
        iso_time.as_secs_f64() / shared_time.as_secs_f64()
    );
    println!(
        "  stats: {} shared queries in {} digest groups, {} digest hits, {} rebuilds (hit-rate {:.3})",
        stats.shared_queries,
        stats.digest_groups,
        stats.digest_hits,
        stats.digest_rebuilds,
        stats.digest_hit_rate()
    );
    assert_eq!(stats.shared_queries, QUERIES);
    assert_eq!(stats.digest_groups, 3, "three distinct slide durations");
    assert!(stats.digest_hits > 0, "sharing must actually happen");
    assert_eq!(
        iso_updates, shared_updates,
        "the plane must complete the same slides"
    );

    // spot-check: every query's answers are byte-identical to its
    // standalone session's
    for (&id, reference) in ids.iter().zip(&isolated) {
        let member = shared.group_session(id).expect("a slide-group member");
        assert_eq!(member.slides(), reference.slides());
        assert_eq!(member.last_snapshot(), reference.last_snapshot());
    }
    println!("spot-check passed: shared results match standalone sessions exactly");
}

/// 10,000 standing queries on one stream: the sequential `Hub` walks all
/// of them in the publisher's thread; the `AsyncHub` partitions them
/// across logical shards by hash of `QueryId`, serves the shards from a
/// few worker threads, and applies backpressure on `publish` when a
/// shard falls behind. Results are byte-identical — the drain barrier
/// returns updates in deterministic `(QueryId, slide)` order regardless
/// of shard and worker count.
fn async_hub_10k() {
    const QUERIES: usize = 10_000;
    const SHARDS: usize = 32;
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(2, 8);
    let feed = Dataset::Stock.generate(5_000, 9);
    let kinds = [
        AlgorithmKind::sap(),
        AlgorithmKind::MinTopK,
        AlgorithmKind::KSkyband,
    ];
    let query_at = |i: usize| {
        let s = [50usize, 100, 200][i % 3];
        let n = s * [2usize, 4, 8][(i / 3) % 3];
        Query::window(n)
            .top(1 + (i % 10))
            .slide(s)
            .algorithm(kinds[i % kinds.len()])
    };

    // sequential reference: every publish fans out in this thread
    let mut seq = Hub::new();
    for i in 0..QUERIES {
        seq.register(&query_at(i)).expect("valid query");
    }
    let started = Instant::now();
    let mut seq_updates = 0u64;
    for burst in feed.chunks(1000) {
        seq_updates += seq.publish(burst).len() as u64;
    }
    let seq_time = started.elapsed();

    // async: same queries, fan-out distributed across worker threads
    let mut hub = AsyncHub::new(SHARDS, workers);
    let mut probe = None;
    for i in 0..QUERIES {
        let id = hub.register(&query_at(i)).expect("valid query");
        if i == 0 {
            probe = Some(id);
        }
    }
    let started = Instant::now();
    let mut par_updates = 0u64;
    for burst in feed.chunks(1000) {
        // parks only if a shard's queue fills; a dead shard would be a
        // typed SapError::ShardDown, not a panic
        hub.publish(burst).expect("shards alive");
        // barrier: deterministic (QueryId, slide) order
        par_updates += hub.drain().expect("shards alive").len() as u64;
    }
    let par_time = started.elapsed();

    let deliveries = (feed.len() * QUERIES) as f64;
    println!(
        "\n=== async hub: {QUERIES} queries, {} objects ===",
        feed.len()
    );
    println!(
        "  sequential: {seq_updates} updates in {:.2}s ({:.1}M object-deliveries/s)",
        seq_time.as_secs_f64(),
        deliveries / seq_time.as_secs_f64() / 1e6
    );
    println!(
        "  async({SHARDS} shards, {workers} workers): {par_updates} updates in {:.2}s ({:.1}M object-deliveries/s, {:.2}x)",
        par_time.as_secs_f64(),
        deliveries / par_time.as_secs_f64() / 1e6,
        seq_time.as_secs_f64() / par_time.as_secs_f64()
    );
    assert_eq!(
        seq_updates, par_updates,
        "both hubs must complete the same slides"
    );

    // spot-check: pull query 0's state out of the async hub and
    // compare against the sequential hub's — byte-identical state
    let probe = probe.expect("query 0 registered");
    let state = hub.inspect(probe).expect("query 0 still registered");
    let reference = seq.session(probe).expect("query 0 on the sequential hub");
    assert_eq!(state.slides, reference.slides());
    assert_eq!(state.last_snapshot, reference.last_snapshot());
    println!("spot-check passed: async output matches the sequential hub exactly");
    let stats = hub.stats().expect("shards alive");
    println!(
        "  stats: {} queries ({} count-based) across {SHARDS} shards",
        stats.queries, stats.count_queries
    );
}

/// The original 100-query tour of the sequential `Hub` API.
fn sequential_hub_100() {
    let feed = Dataset::Stock.generate(200_000, 7);

    // 100 heterogeneous queries: windows from 500 to 5000 ticks, result
    // sizes from 3 to 43, slides from 10 to 500 ticks, spread across SAP
    // and every baseline family
    let kinds = [
        AlgorithmKind::sap(),
        AlgorithmKind::MinTopK,
        AlgorithmKind::KSkyband,
        AlgorithmKind::sma(),
    ];
    let mut hub = Hub::new();
    let mut handles = Vec::new();
    for i in 0..100usize {
        let s = [10, 20, 50, 100, 500][i % 5];
        let n = s * [10, 25, 50][i % 3].min(5000 / s);
        let k = 3 + (i % 5) * 10;
        let query = Query::window(n)
            .top(k.min(n))
            .slide(s)
            .algorithm(kinds[i % kinds.len()]);
        handles.push((i, hub.register(&query).expect("valid query"), query));
    }
    println!("registered {} queries on one hub", hub.len());

    // serve the stream in ragged bursts; count per-query activity, and
    // watch the Arc snapshot contract at work: a quiet slide re-emits
    // the previous slide's snapshot *allocation* (ptr_eq, not just eq),
    // so fan-out of unchanged results is refcounting, never copying
    let started = Instant::now();
    let mut slides = 0u64;
    let mut quiet = 0u64;
    let mut churn = 0u64;
    let mut shared_arcs = 0u64;
    let mut last_snapshots: HashMap<QueryId, Snapshot> = HashMap::new();
    for burst in feed.chunks(997) {
        for update in hub.publish(burst) {
            slides += 1;
            if update.result.changed() {
                churn += update.result.entered().count() as u64;
            } else {
                quiet += 1;
                if let Some(prev) = last_snapshots.get(&update.query) {
                    assert!(
                        update.result.snapshot.ptr_eq(prev),
                        "a quiet slide must re-emit the previous Arc"
                    );
                    shared_arcs += 1;
                }
            }
            last_snapshots.insert(update.query, update.result.snapshot.clone());
        }
    }
    let serve_time = started.elapsed();

    // subscriptions are dynamic: drop half the queries mid-flight and
    // keep serving the remainder
    for (i, id, _) in &handles {
        if i % 2 == 1 {
            hub.unregister(*id).expect("registered above");
        }
    }
    let more = Dataset::Stock.generate(20_000, 8);
    let tail_updates = hub.publish(&more).len();

    println!(
        "served {} slides across 100 queries in {:.2}s ({:.1}M object-deliveries/s)",
        slides,
        serve_time.as_secs_f64(),
        (feed.len() * 100) as f64 / serve_time.as_secs_f64() / 1e6
    );
    println!("  quiet slides:   {quiet} (delta = [Unchanged], O(1) to report)");
    println!("  result entries: {churn}");
    println!(
        "  zero-copy fan-out: {shared_arcs} quiet snapshots shared the previous \
         Arc allocation (ptr_eq verified)"
    );
    println!(
        "  after dropping 50 queries: {} sessions, {} more slides served",
        hub.len(),
        tail_updates
    );

    // spot-check: the hub's output for one query is byte-identical to the
    // same query run in isolation over the same total stream
    let (_, probe_id, probe_query) = &handles[0];
    let hub_session = hub.session(*probe_id).expect("query 0 still registered");
    let mut isolated = probe_query.session().expect("valid query");
    isolated.push(&feed);
    isolated.push(&more);
    assert_eq!(
        hub_session.slides(),
        isolated.slides(),
        "hub and isolated runs must slide in lock-step"
    );
    assert_eq!(
        hub_session.last_snapshot(),
        isolated.last_snapshot(),
        "hub serving must not change any query's answer"
    );
    println!("spot-check passed: hub output matches an isolated run exactly");
}
