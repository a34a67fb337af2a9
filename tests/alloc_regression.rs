//! Allocation-regression gate for the zero-allocation publish path.
//!
//! The publish plane's contract (see `sap_stream::events` and
//! `SlideScratch`): after warm-up,
//!
//! * a push that only buffers (no slide completed) performs **zero**
//!   heap allocations;
//! * a completed slide performs **at most one** allocation in the
//!   session layer — the shared `Arc` snapshot, and only when the result
//!   changed (quiet slides re-emit the previous `Arc`);
//! * engine-internal churn (candidate structures, partition recycling)
//!   is pooled to amortized ≲1 allocation per slide.
//!
//! These tests pin those bounds with a counting global allocator so a
//! regression fails CI instead of landing silently. The pre-refactor
//! path allocated 5–10× per slide (snapshot collect + clone, two diff
//! buffers, event list, digest materialization), so the pinned bounds
//! have real teeth while leaving room for engine-internal noise.
//!
//! Gated to release builds: `cargo test` (debug) reports the gate as
//! ignored; the CI release matrix and bench-smoke run it for real.
//! Allocation counts here are deterministic — the workloads are seeded
//! and single-threaded — but the counter is process-global, so the
//! checks are plain functions run one after another from the **single**
//! `#[test]` at the bottom. Separate tests would race: the harness
//! allocates while it starts a sibling test's thread, and that
//! allocation lands in whichever measured window is open. Keep it the
//! only test in this file; add a new check to [`CHECKS`] instead.

use std::panic::catch_unwind;

use sap::prelude::*;
use sap_bench::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `(name, check)` pairs, each named by its function.
macro_rules! checks {
    ($($check:ident),* $(,)?) => {
        &[$((stringify!($check), $check as fn())),*]
    };
}

/// Every allocation check, in run order.
const CHECKS: &[(&str, fn())] = checks![
    warm_count_session_buffering_push_is_allocation_free,
    warm_count_session_steady_state_stays_under_pinned_bound,
    warm_timed_session_steady_state_stays_under_pinned_bound,
    warm_hub_publish_without_slides_is_allocation_free,
    warm_grouped_hub_publish_meets_the_isolated_pinned_bounds,
    classed_quiet_slide_close_is_allocation_free_per_member,
    warm_async_hub_quiet_publish_is_allocation_free,
    async_park_wake_cycle_stays_under_constant_bound,
    predicate_rejected_publish_is_allocation_free,
    dominance_pruned_quiet_path_meets_the_classed_pinned_bounds,
    checkpoint_leaves_the_warm_publish_path_allocation_free,
    classed_shared_close_is_allocation_free_per_member,
    churning_classed_close_shares_one_delta_per_class,
    indexed_shared_close_is_allocation_free_per_member,
];

/// Runs every check in [`CHECKS`], each to completion even when an
/// earlier one failed, and fails naming every check that panicked (each
/// panic message is printed as it happens).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation bounds are pinned for release builds"
)]
fn allocation_bounds_hold() {
    let failed: Vec<&str> = CHECKS
        .iter()
        .filter(|(_, check)| catch_unwind(*check).is_err())
        .map(|(name, _)| *name)
        .collect();
    assert!(failed.is_empty(), "allocation checks failed: {failed:?}");
}

/// Runs `f` and returns (result, allocations performed).
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOC.allocations();
    let result = f();
    (result, ALLOC.allocations() - before)
}

/// Deterministic score stream (LCG), scores in [0, 1000).
fn score(i: u64) -> f64 {
    let x = i
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((x >> 33) % 1000) as f64
}

fn warm_count_session_buffering_push_is_allocation_free() {
    let mut session = Query::window(400).top(2).slide(10).session().unwrap();
    // warm-up: several full windows so partitions have sealed, expired,
    // and been reclaimed into the spare pools
    for i in 0..2_000u64 {
        session.push_one(Object::new(i, score(i)));
    }
    // a push that does not complete a slide must never touch the heap
    for i in 2_000..2_009u64 {
        let (result, allocs) = measured(|| session.push_one(Object::new(i, score(i))));
        assert!(result.is_none(), "9 pushes into s = 10 complete no slide");
        assert_eq!(allocs, 0, "buffering push {i} allocated");
    }
}

fn warm_count_session_steady_state_stays_under_pinned_bound() {
    // on this sliding ⟨400, 2, 10⟩ window MinTopK's steady state is
    // pooled, so the bound is exact: at most one allocation (the Arc
    // snapshot) per *changed* slide. Not on every shape: over a tumbling
    // reduced window such as ⟨10, 10, 10⟩ MinTopK still allocates twice
    // per close, and k-skyband four times
    let mut session = Query::window(400)
        .top(2)
        .slide(10)
        .algorithm(AlgorithmKind::MinTopK)
        .session()
        .unwrap();
    for i in 0..2_000u64 {
        session.push_one(Object::new(i, score(i)));
    }
    let ((slides, changed), allocs) = measured(|| {
        let mut slides = 0u64;
        let mut changed = 0u64;
        for i in 2_000..12_000u64 {
            if let Some(result) = session.push_one(Object::new(i, score(i))) {
                slides += 1;
                if result.changed() {
                    changed += 1;
                }
            }
        }
        (slides, changed)
    });
    assert_eq!(slides, 1_000);
    assert!(changed > 0, "workload must exercise changed slides");
    assert!(
        allocs <= changed,
        "steady state: {allocs} allocations for {changed} changed slides \
         (pinned bound: ≤ 1 per changed slide; the legacy path paid ≥ 5 per slide)"
    );

    // SAP's partition machinery may churn its candidate BTree, but the
    // recycled partitions/meaningful sets must keep it ≤ 2 per slide
    let mut sap = Query::window(400).top(2).slide(10).session().unwrap();
    for i in 0..2_000u64 {
        sap.push_one(Object::new(i, score(i)));
    }
    let (slides, allocs) = measured(|| {
        let mut slides = 0u64;
        for i in 2_000..12_000u64 {
            if sap.push_one(Object::new(i, score(i))).is_some() {
                slides += 1;
            }
        }
        slides
    });
    assert_eq!(slides, 1_000);
    assert!(
        allocs <= 2 * slides,
        "SAP steady state: {allocs} allocations for {slides} slides \
         (pinned bound: ≤ 2 per slide)"
    );
}

fn warm_timed_session_steady_state_stays_under_pinned_bound() {
    let mut session = Query::window_duration(400)
        .slide_duration(100)
        .top(3)
        .timed_session()
        .unwrap();
    // ~25 objects per slide; warm through several windows
    let mut warm_slides = 0usize;
    for i in 0..500u64 {
        warm_slides += session
            .push_timed(&[TimedObject::new(i, i * 4, score(i))])
            .len();
    }
    assert!(warm_slides > 10, "warm-up must close slides");
    let ((slides, changed), allocs) = measured(|| {
        let mut slides = 0u64;
        let mut changed = 0u64;
        let mut out = Vec::with_capacity(4);
        for i in 500..4_500u64 {
            out.clear();
            session.push_timed_into(&[TimedObject::new(i, i * 4, score(i))], &mut out);
            for result in &out {
                slides += 1;
                if result.changed() {
                    changed += 1;
                }
            }
        }
        (slides, changed)
    });
    assert_eq!(slides, 160, "4000 objects × 4 ticks / 100-tick slides");
    assert!(changed > 0);
    // the adapter's digest plane is borrow-based and the consumer pooled:
    // the Arc per changed slide plus bounded reduced-engine churn
    assert!(
        allocs <= 2 * slides,
        "timed steady state: {allocs} allocations for {slides} slides \
         (pinned bound: ≤ 2 per slide; the legacy adapter paid ~10)"
    );
}

fn warm_hub_publish_without_slides_is_allocation_free() {
    let mut hub = Hub::new();
    let mut ids = Vec::new();
    for q in 0..50u64 {
        let k = 1 + (q as usize % 3);
        ids.push(hub.register(&Query::window(200).top(k).slide(10)).unwrap());
    }
    // warm: every session is phase-aligned (registered together), so
    // multiples of s = 10 complete slides everywhere
    let mut warm = Vec::new();
    for i in 0..1_000u64 {
        warm.push(Object::new(i, score(i)));
    }
    for chunk in warm.chunks(10) {
        hub.publish(chunk);
    }
    // half a slide: every session buffers, none completes — the publish
    // (including its returned empty Vec) must not touch the heap
    let half: Vec<Object> = (1_000..1_005u64)
        .map(|i| Object::new(i, score(i)))
        .collect();
    let (updates, allocs) = measured(|| hub.publish(&half).len());
    assert_eq!(updates, 0);
    assert_eq!(allocs, 0, "no-slide publish must be allocation-free");

    // completing the slide: one output Vec (reserved once from the
    // retained hint) plus at most one Arc per changed update
    let rest: Vec<Object> = (1_005..1_010u64)
        .map(|i| Object::new(i, score(i)))
        .collect();
    let (updates, allocs) = measured(|| hub.publish(&rest).len());
    assert_eq!(updates, ids.len(), "every session completes");
    assert!(
        allocs <= 1 + updates as u64,
        "slide-completing publish: {allocs} allocations for {updates} updates \
         (pinned bound: 1 output Vec + ≤ 1 Arc per update)"
    );
}

fn warm_grouped_hub_publish_meets_the_isolated_pinned_bounds() {
    // The shared count plane must not regress the zero-allocation
    // steady state: the group ring, the group digest producer, and every
    // member's reduced-engine scratch are pooled after warm-up, so a
    // buffering publish (group slide still open) is allocation-free and
    // a group hit pays only the output Vec plus per-update Arcs and
    // bounded reduced-engine churn.
    let mut hub = Hub::new();
    let mut ids = Vec::new();
    for q in 0..50u64 {
        let k = 1 + (q as usize % 3);
        let n = 200 + 10 * (q as usize % 4);
        // varied (n, k) views, one geometry class: registered together
        // with equal s, so every query shares one group ring and digest
        ids.push(
            hub.register_grouped(&Query::window(n).top(k).slide(10))
                .unwrap(),
        );
    }
    let mut warm = Vec::new();
    for i in 0..1_000u64 {
        warm.push(Object::new(i, score(i)));
    }
    for chunk in warm.chunks(10) {
        hub.publish(chunk);
    }
    let stats = hub.stats();
    assert_eq!(stats.count_groups, 1, "one geometry class");
    assert_eq!(stats.grouped_queries, ids.len());
    assert!(stats.count_group_hits > 0, "warm-up must serve group hits");

    // half a slide: the group ring appends and the group digest buffers,
    // no member is touched — the publish must not allocate at all
    let half: Vec<Object> = (1_000..1_005u64)
        .map(|i| Object::new(i, score(i)))
        .collect();
    let (updates, allocs) = measured(|| hub.publish(&half).len());
    assert_eq!(updates, 0);
    assert_eq!(allocs, 0, "group-buffering publish must be allocation-free");

    // completing the group slide serves all 50 members from one shared
    // digest: one output Vec + ≤ 1 Arc per update + the reduced engines'
    // pooled churn (≤ 1 per update, same headroom the timed plane gets)
    let rest: Vec<Object> = (1_005..1_010u64)
        .map(|i| Object::new(i, score(i)))
        .collect();
    let (updates, allocs) = measured(|| hub.publish(&rest).len());
    assert_eq!(
        updates,
        ids.len(),
        "every member is served on the group hit"
    );
    assert!(
        allocs <= 1 + 2 * updates as u64,
        "group-hit publish: {allocs} allocations for {updates} updates \
         (pinned bound: 1 output Vec + ≤ 2 per update)"
    );
}

fn classed_quiet_slide_close_is_allocation_free_per_member() {
    // The result-class floor: a quiet slide close (top-k unchanged) on a
    // warm class touches the heap **zero** times per member — the class
    // re-emits the previous `Arc` snapshot and its inline `[Unchanged]`
    // event list, and per-member emission is a refcount bump plus the
    // QueryId/slide tag stamped into the output Vec. The only permitted
    // allocation is that output Vec itself.
    let mut hub = Hub::new();
    let members = 50usize;
    for _ in 0..members {
        // identical geometry: one group, one 50-member result class
        hub.register_grouped(&Query::window(400).top(1).slide(10))
            .unwrap();
    }
    // one spike per window length dominates top-1 for 40 straight
    // slides, so closes between spikes are quiet
    let spiked = |i: u64| {
        if i.is_multiple_of(400) {
            10_000.0
        } else {
            score(i)
        }
    };
    let warm: Vec<Object> = (0..1_000u64).map(|i| Object::new(i, spiked(i))).collect();
    for chunk in warm.chunks(10) {
        hub.publish(chunk);
    }
    let stats = hub.stats();
    assert_eq!(stats.result_classes, 1, "one geometry class");
    assert!(stats.class_hits > 0, "warm-up must serve classed closes");

    // arrivals 1000..1150 keep the spike at 800 inside the window: every
    // close re-emits the same top-1, i.e. 15 quiet classed closes
    let mut next = 1_000u64;
    for round in 0..15u64 {
        let batch: Vec<Object> = (next..next + 10)
            .map(|i| Object::new(i, spiked(i)))
            .collect();
        next += 10;
        let (updates, allocs) = measured(|| hub.publish(&batch));
        assert_eq!(updates.len(), members, "every member rides the close");
        for u in &updates {
            assert!(
                !u.result.changed(),
                "round {round}: the spike keeps the close quiet"
            );
        }
        assert!(
            allocs <= 1,
            "round {round}: quiet classed close paid {allocs} allocations \
             for {members} members (pinned bound: the output Vec only — \
             0 per member beyond the tag)"
        );
    }
}

fn warm_async_hub_quiet_publish_is_allocation_free() {
    // The async hub's quiet publish is a single lock crossing that
    // enqueues a pooled `Arc` batch on every non-empty shard: after
    // warm-up (pool slots filled at this batch length, target scratch
    // sized, queues at their fixed bound) the hub-side path must not
    // touch the heap at all. The flush barrier before each measured
    // publish settles the pool refcounts, so the measurement is
    // deterministic despite the worker threads.
    let mut hub = AsyncHub::new(8, 2);
    for q in 0..50u64 {
        let k = 1 + (q as usize % 3);
        hub.register(&Query::window(200).top(k).slide(100)).unwrap();
    }
    let warm: Vec<Object> = (0..1_000u64).map(|i| Object::new(i, score(i))).collect();
    for chunk in warm.chunks(5) {
        hub.publish(chunk).unwrap();
    }
    assert!(
        !hub.drain().unwrap().is_empty(),
        "warm-up must close slides"
    );
    // Warm-up may legitimately park (the publisher can outrun two
    // workers across slide boundaries); the quiet path must not add to
    // that count.
    let parks_after_warm = hub.publisher_parks();

    let mut next = 1_000u64;
    for round in 0..8u64 {
        let batch: Vec<Object> = (next..next + 5).map(|i| Object::new(i, score(i))).collect();
        next += 5;
        hub.flush().unwrap();
        let (result, allocs) = measured(|| hub.publish(&batch));
        result.unwrap();
        assert_eq!(allocs, 0, "quiet async publish round {round} allocated");
    }
    assert_eq!(
        hub.drain().unwrap().len(),
        0,
        "40 objects into s = 100 complete no slide"
    );
    assert_eq!(
        hub.publisher_parks(),
        parks_after_warm,
        "quiet path never parks"
    );
}

/// An engine slow enough that a capacity-1 queue is always full when the
/// publisher returns — every measured publish goes through the
/// park/wake path.
#[derive(Debug)]
struct Sleepy {
    spec: WindowSpec,
    empty: Vec<Object>,
}

impl SlidingTopK for Sleepy {
    fn spec(&self) -> WindowSpec {
        self.spec
    }
    fn slide(&mut self, _batch: &[Object]) -> &[Object] {
        std::thread::sleep(std::time::Duration::from_micros(200));
        &self.empty
    }
    fn candidate_count(&self) -> usize {
        0
    }
    fn memory_bytes(&self) -> usize {
        0
    }
    fn stats(&self) -> OpStats {
        OpStats::default()
    }
    fn name(&self) -> &str {
        "sleepy"
    }
}

fn async_park_wake_cycle_stays_under_constant_bound() {
    // Backpressure parking is a condvar wait plus one relaxed counter
    // tick: the cycle itself must stay O(1) allocations per publish no
    // matter how often the publisher parks. A deliberately slow engine
    // behind a capacity-1 queue forces a park on essentially every
    // measured publish.
    let mut hub = AsyncHub::with_config(1, 1, 1, Box::new(FifoScheduler));
    // four windows over one slide of 4, so each engine is a result class
    // of its own and every close sleeps four times
    for n in [4, 8, 12, 16] {
        let spec = WindowSpec::new(n, 1, 4).unwrap().reduced();
        let sleepy = Sleepy {
            spec,
            empty: Vec::new(),
        };
        hub.subscribe(Registration::grouped(Box::new(sleepy), n, 4))
            .unwrap();
    }
    let batch: Vec<Object> = (0..4u64).map(|i| Object::new(i, 7.0)).collect();
    for _ in 0..10 {
        hub.publish(&batch).unwrap();
    }
    hub.flush().unwrap();
    hub.drain().unwrap();

    const PUBLISHES: u64 = 50;
    let (result, allocs) = measured(|| {
        for _ in 0..PUBLISHES {
            hub.publish(&batch)?;
        }
        Ok::<(), SapError>(())
    });
    result.unwrap();
    assert!(
        hub.publisher_parks() >= 10,
        "the workload must actually park (got {} parks)",
        hub.publisher_parks()
    );
    assert!(
        allocs <= 4 * PUBLISHES,
        "park/wake cycle: {allocs} allocations across {PUBLISHES} parking \
         publishes (pinned bound: ≤ 4 per publish, independent of parks)"
    );
}

fn predicate_rejected_publish_is_allocation_free() {
    // The admission plane's cheapest path: an object that misses every
    // group's predicate only advances the ring and the ordinal clock —
    // no digest ingest, no member work, no heap. After warm-up (ring at
    // capacity, pools filled) a buffering publish whose objects are all
    // rejected must be allocation-free, and a slide completed entirely
    // by rejected objects is a quiet classed close (the previous Arc is
    // re-emitted): the output Vec is the only permitted allocation.
    let mut hub = Hub::new();
    let members = 50usize;
    for q in 0..members as u64 {
        let k = 1 + (q as usize % 3);
        hub.register_grouped(
            &Query::window(200)
                .top(k)
                .slide(10)
                .filter(Predicate::any().score_at_least(500.0)),
        )
        .unwrap();
    }
    let warm: Vec<Object> = (0..1_000u64).map(|i| Object::new(i, score(i))).collect();
    for chunk in warm.chunks(10) {
        hub.publish(chunk);
    }
    let stats = hub.stats();
    assert_eq!(stats.count_groups, 1, "one predicate sub-group");
    assert!(stats.count_group_hits > 0, "warm-up must serve group hits");

    // half a slide of predicate misses: ring append + ordinal advance
    // only — the publish must not touch the heap
    let rejected: Vec<Object> = (1_000..1_005u64).map(|i| Object::new(i, 1.0)).collect();
    let (updates, allocs) = measured(|| hub.publish(&rejected).len());
    assert_eq!(updates, 0);
    assert_eq!(allocs, 0, "predicate-miss publish must be allocation-free");

    // the rest of the slide, still all misses: the close serves every
    // member off the unchanged digest — quiet, so no per-member Arcs
    let rest: Vec<Object> = (1_005..1_010u64).map(|i| Object::new(i, 1.0)).collect();
    let (updates, allocs) = measured(|| hub.publish(&rest));
    assert_eq!(updates.len(), members, "every member rides the close");
    for u in &updates {
        assert!(
            !u.result.changed(),
            "a slide of pure rejections cannot change any top-k"
        );
    }
    assert!(
        allocs <= 1,
        "all-rejected slide close paid {allocs} allocations for {members} \
         members (pinned bound: the output Vec only)"
    );
}

fn dominance_pruned_quiet_path_meets_the_classed_pinned_bounds() {
    // The dominance gate's steady state must ride the same ceilings the
    // result-class plane pinned (PR 5): a quiet classed close with most
    // of the slide pruned pays the output Vec and nothing else, and a
    // mid-slide publish of dominated objects is allocation-free — the
    // gate check is a heap peek, and a pruned object skips ingest
    // entirely.
    let mut hub = Hub::new();
    let members = 50usize;
    for _ in 0..members {
        hub.register_grouped(&Query::window(400).top(1).slide(10))
            .unwrap();
    }
    // one spike per window dominates top-1 (quiet closes); within every
    // slide the scores descend, so after the slide's first admission the
    // gate (cap = k_max = 1) prunes the rest
    let shaped = |i: u64| {
        if i.is_multiple_of(400) {
            10_000.0
        } else {
            900.0 - (i % 10) as f64
        }
    };
    let warm: Vec<Object> = (0..1_000u64).map(|i| Object::new(i, shaped(i))).collect();
    for chunk in warm.chunks(10) {
        hub.publish(chunk);
    }
    let warm_stats = hub.stats();
    assert!(
        warm_stats.pruned > 0,
        "descending slides must exercise the gate"
    );
    assert!(
        warm_stats.prune_rate() > 0.5,
        "most of each slide is dominated"
    );

    // mid-slide: the slide's maximum is already admitted, every further
    // object is strictly dominated — pruned without touching the heap
    let mut next = 1_000u64;
    let dominated: Vec<Object> = (next + 1..next + 6)
        .map(|i| Object::new(i, shaped(i)))
        .collect();
    hub.publish(&[Object::new(next, shaped(next))]);
    let before = hub.stats().pruned;
    let (updates, allocs) = measured(|| hub.publish(&dominated).len());
    assert_eq!(updates, 0);
    assert_eq!(
        allocs, 0,
        "pruned mid-slide publish must be allocation-free"
    );
    assert_eq!(hub.stats().pruned, before + 5, "all five were dominated");
    next += 6;

    // quiet closes with pruning live: the classed ceiling holds
    for round in 0..10u64 {
        let batch: Vec<Object> = (next..next + 10)
            .map(|i| Object::new(i, shaped(i)))
            .collect();
        next += 10;
        let (updates, allocs) = measured(|| hub.publish(&batch));
        assert_eq!(updates.len(), members, "every member rides the close");
        for u in &updates {
            assert!(
                !u.result.changed(),
                "round {round}: the spike keeps it quiet"
            );
        }
        assert!(
            allocs <= 1,
            "round {round}: pruned quiet close paid {allocs} allocations \
             (pinned bound: the output Vec only)"
        );
    }
}

fn checkpoint_leaves_the_warm_publish_path_allocation_free() {
    // A checkpoint is a read-only borrow of serving state: taking one on a
    // warm hub must not disturb the pooled scratch or retained hints, so
    // the very next buffering publish is still allocation-free and the
    // next slide-completing publish still meets the steady-state bound.
    let mut hub = Hub::new();
    for q in 0..50u64 {
        let k = 1 + (q as usize % 3);
        hub.register(&Query::window(200).top(k).slide(10)).unwrap();
    }
    let mut warm = Vec::new();
    for i in 0..1_000u64 {
        warm.push(Object::new(i, score(i)));
    }
    for chunk in warm.chunks(10) {
        hub.publish(chunk);
    }

    // checkpointing itself allocates (it builds a byte buffer) — that is
    // off the publish path and unmeasured here; what it must NOT do is
    // drain pools or clear scratch behind the sessions' backs
    let ckpt = hub.checkpoint();
    assert!(
        !ckpt.is_empty(),
        "warm hub produces a non-trivial checkpoint"
    );

    let half: Vec<Object> = (1_000..1_005u64)
        .map(|i| Object::new(i, score(i)))
        .collect();
    let (updates, allocs) = measured(|| hub.publish(&half).len());
    assert_eq!(updates, 0);
    assert_eq!(
        allocs, 0,
        "buffering publish after checkpoint() must stay allocation-free"
    );

    let rest: Vec<Object> = (1_005..1_010u64)
        .map(|i| Object::new(i, score(i)))
        .collect();
    let (updates, allocs) = measured(|| hub.publish(&rest).len());
    assert_eq!(updates, 50, "every session completes");
    assert!(
        allocs <= 1 + updates as u64,
        "slide-completing publish after checkpoint(): {allocs} allocations \
         for {updates} updates (pinned bound: 1 output Vec + ≤ 1 Arc per update)"
    );
}

fn classed_shared_close_is_allocation_free_per_member() {
    // The event-clock plane rides the classed ceiling too: a 50-member
    // shared class in one slide group buffers a publish_timed without
    // touching the heap, and a quiet close — reached through a timestamp
    // or through a watermark — pays the output Vec and nothing else.
    let mut hub = Hub::new();
    let members = 50usize;
    for _ in 0..members {
        // registered before any publish: one pristine slide group, one
        // 50-member result class
        hub.register_shared(&Query::window_duration(400).slide_duration(10).top(1))
            .unwrap();
    }
    // one object per time unit; one spike per window length dominates
    // top-1 for 40 straight slides, so closes between spikes are quiet
    let object = |t: u64| {
        let score = if t.is_multiple_of(400) {
            10_000.0
        } else {
            score(t)
        };
        TimedObject::new(t, t, score)
    };
    let stream = |from: u64, to: u64| -> Vec<TimedObject> { (from..to).map(object).collect() };
    for chunk in stream(0, 1_000).chunks(10) {
        hub.publish_timed(chunk);
    }
    let stats = hub.stats();
    assert_eq!(stats.digest_groups, 1, "one slide group");
    assert_eq!(stats.result_classes, 1, "one result class");
    assert!(stats.class_hits > 0, "warm-up must serve classed closes");

    // the spike at 800 stays in every window ending by 1200: each round
    // closes slide [base, base + 10) through publish_timed and slide
    // [base + 10, base + 20) through advance_time, both quiet
    let quiet = |updates: &[QueryUpdate], round: u64, path: &str| {
        assert_eq!(
            updates.len(),
            members,
            "every member rides the {path} close"
        );
        for u in updates {
            assert!(
                !u.result.changed(),
                "round {round}: the spike keeps the {path} close quiet"
            );
        }
    };
    for round in 0..8u64 {
        let base = 1_000 + 20 * round;
        hub.publish_timed(&stream(base, base + 1));
        let buffered = stream(base + 1, base + 6);
        let (updates, allocs) = measured(|| hub.publish_timed(&buffered).len());
        assert_eq!(updates, 0);
        assert_eq!(
            allocs, 0,
            "round {round}: buffering publish_timed must be allocation-free"
        );
        let batch = stream(base + 6, base + 11);
        let (updates, allocs) = measured(|| hub.publish_timed(&batch));
        quiet(&updates, round, "publish_timed");
        assert!(
            allocs <= 1,
            "round {round}: quiet classed publish_timed close paid {allocs} \
             allocations for {members} members (pinned bound: the output Vec only)"
        );
        hub.publish_timed(&stream(base + 11, base + 20));
        let (updates, allocs) = measured(|| hub.advance_time(base + 20));
        quiet(&updates, round, "advance_time");
        assert!(
            allocs <= 1,
            "round {round}: quiet classed advance_time close paid {allocs} \
             allocations for {members} members (pinned bound: the output Vec only)"
        );
    }
}

fn churning_classed_close_shares_one_delta_per_class() {
    // A class close that changes a lot: 64 members over a tumbling window
    // (n = s = 20) at k = 10, so every close replaces the whole top-10 —
    // a 20-event delta (10 exits, 10 entries). The class diffs once and
    // every member's update holds the class's one delta list, so a
    // closing publish pays the output Vec, the changed snapshot, and at
    // most one event list — none here, since the caller dropped the
    // previous close's updates and the class rebuilds its list in place.
    // A per-member copy of the delta would pay 64.
    let mut hub = Hub::new();
    let members = 64usize;
    let query = Query::window(20).top(10).slide(20);
    for _ in 0..members {
        hub.register_grouped(&query).unwrap();
    }
    let objects = |from: u64| -> Vec<Object> {
        (from..from + 20)
            .map(|i| Object::new(i, score(i)))
            .collect()
    };
    for round in 0..50u64 {
        hub.publish(&objects(20 * round));
    }
    assert_eq!(hub.stats().result_classes, 1, "one geometry, one class");
    for round in 50..65u64 {
        let batch = objects(20 * round);
        let (updates, allocs) = measured(|| hub.publish(&batch));
        assert_eq!(updates.len(), members, "every member rides the close");
        for u in &updates {
            assert!(
                u.result.events.len() > 8,
                "round {round}: a tumbling close churns the whole top-10"
            );
        }
        assert!(
            allocs <= 3,
            "round {round}: churning classed close paid {allocs} allocations \
             for {members} members (pinned bound: the output Vec, the snapshot \
             and at most one event list — a per-member delta copy pays 64)"
        );
    }
}

fn indexed_shared_close_is_allocation_free_per_member() {
    // The dispatch index's path: slide groups behind `tag(4, r)` for
    // r = 0, 1, 2 and a `key` group, no pass-all group, so every object
    // reaches only the groups its id can pass. A buffering publish_timed
    // whose ids hit some tags and miss others (r = 3, the key) touches no
    // heap, and a quiet close pays the output Vec and nothing else,
    // whether the batch that ends the slide reaches the group (it closes
    // as it takes the object) or not (it closes at the call's end). The
    // engines are Naive, whose quiet close allocates nothing, so the
    // bound sees the registry alone: on this stream SAP's engines
    // allocate eight times on one of the sixteen quiet closes, whether
    // the groups are indexed or walked.
    let mut hub = Hub::new();
    let key = 802;
    let query = Query::window_duration(400)
        .slide_duration(10)
        .top(1)
        .algorithm(AlgorithmKind::Naive);
    let mut members = 0usize;
    for r in 0..3 {
        for _ in 0..16 {
            hub.register_shared(&query.clone().filter(Predicate::any().tag(4, r)))
                .unwrap();
            members += 1;
        }
    }
    for _ in 0..2 {
        hub.register_shared(&query.clone().filter(Predicate::any().key(key)))
            .unwrap();
        members += 1;
    }
    // one object per time unit, id = timestamp; the spikes at 800..=803
    // top every tag group's window, and the key group's (802), for 40
    // straight slides, so closes between them are quiet
    let object = |t: u64| {
        let score = if t % 400 < 4 { 10_000.0 } else { score(t) };
        TimedObject::new(t, t, score)
    };
    let stream = |from: u64, to: u64| -> Vec<TimedObject> { (from..to).map(object).collect() };
    for chunk in stream(0, 1_000).chunks(10) {
        hub.publish_timed(chunk);
    }
    let stats = hub.stats();
    assert_eq!(stats.digest_groups, 4, "three tag groups and a key group");
    assert_eq!(stats.result_classes, 4, "one result class each");
    assert!(stats.class_hits > 0, "warm-up must serve classed closes");

    let quiet = |updates: &[QueryUpdate], round: u64, path: &str| {
        assert_eq!(
            updates.len(),
            members,
            "every member rides the {path} close"
        );
        for u in updates {
            assert!(
                !u.result.changed(),
                "round {round}: the spikes keep the {path} close quiet"
            );
        }
    };
    for round in 0..8u64 {
        let base = 1_000 + 20 * round;
        hub.publish_timed(&stream(base, base + 1));
        // ids ≡ 1, 2, 3, 0, 1 (mod 4): residue 3 and the key miss
        let buffered = stream(base + 1, base + 6);
        let (updates, allocs) = measured(|| hub.publish_timed(&buffered).len());
        assert_eq!(updates, 0);
        assert_eq!(
            allocs, 0,
            "round {round}: buffering indexed publish_timed must be allocation-free"
        );
        // t = base + 10 ends slide [base, base + 10): its id reaches the
        // r = 2 group alone; the r = 0, 1 groups and the key group close
        // at the call's end
        let batch = stream(base + 6, base + 11);
        let (updates, allocs) = measured(|| hub.publish_timed(&batch));
        quiet(&updates, round, "publish_timed");
        assert!(
            allocs <= 1,
            "round {round}: quiet indexed publish_timed close paid {allocs} \
             allocations for {members} members (pinned bound: the output Vec only)"
        );
        hub.publish_timed(&stream(base + 11, base + 20));
        let (updates, allocs) = measured(|| hub.advance_time(base + 20));
        quiet(&updates, round, "advance_time");
        assert!(
            allocs <= 1,
            "round {round}: quiet indexed advance_time close paid {allocs} \
             allocations for {members} members (pinned bound: the output Vec only)"
        );
    }
}
