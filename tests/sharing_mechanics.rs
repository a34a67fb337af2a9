//! Targeted tests of sharing mechanisms whose effect on results is nil
//! by design, so the model harness (`tests/hub_model.rs`) cannot see
//! them: result-class members share one snapshot and one delta
//! allocation, a classed member's progress is read from its class, and
//! the dominance gate prunes exactly what an independent re-simulation
//! of the k-skyband criterion predicts.

use std::collections::BTreeMap;

use sap::prelude::*;

#[path = "common/checksum.rs"]
mod checksum;
use checksum::{fold_all, fold_update, SEED};

/// The class test's stream: ids from 1000, scores folded mod 13.
fn class_stream(scores: &[u8]) -> Vec<Object> {
    scores
        .iter()
        .enumerate()
        // id 1000+i: external ids need not start at 0 — the group ring
        // must translate ordinals to whatever ids the stream carries
        .map(|(i, &score)| Object::new(1_000 + i as u64, (score % 13) as f64))
        .collect()
}

/// A hub member under watch: its name, its id, and a standalone session
/// of its query (as `Query::session` builds it) fed what it observes.
type Watched = (&'static str, QueryId, Session<Box<dyn SlidingTopK>>);

/// The gate test's stream: ids from 1000, scores as drawn.
fn gate_stream(scores: &[u8]) -> Vec<Object> {
    scores
        .iter()
        .enumerate()
        .map(|(i, &score)| Object::new(1_000 + i as u64, score as f64))
        .collect()
}

/// Pins result-class sharing itself, not just its results: on a
/// slide close, every member of a result class receives a clone of the
/// **same** `Snapshot` allocation (`Arc::ptr_eq`), while standalone
/// sessions of the same query each materialize their own. Results are
/// checksum-identical either way.
#[test]
fn class_members_share_one_snapshot_allocation() {
    let data = class_stream(&(0..96).map(|i| (i * 5 % 23) as u8).collect::<Vec<_>>());
    let mut classed = Hub::new();
    let mut isolated = Vec::new();
    let members = 4usize;
    let query = Query::window(8).top(3).slide(4);
    for _ in 0..members {
        classed.register_grouped(&query).unwrap();
        isolated.push(query.session().unwrap());
    }
    let mut classed_sums = BTreeMap::new();
    let mut isolated_sums = vec![SEED; members];
    for chunk in data.chunks(4) {
        let updates = classed.publish(chunk);
        let mut by_slide: BTreeMap<u64, Vec<Snapshot>> = BTreeMap::new();
        for u in &updates {
            by_slide
                .entry(u.result.slide)
                .or_default()
                .push(u.result.snapshot.clone());
        }
        for (slide, snaps) in &by_slide {
            assert_eq!(snaps.len(), members, "slide {slide}: every member emits");
            for snap in &snaps[1..] {
                assert!(
                    snaps[0].ptr_eq(snap),
                    "slide {slide}: class members must share one snapshot Arc"
                );
            }
        }
        fold_all(&mut classed_sums, updates);

        let mut by_slide: BTreeMap<u64, Vec<Snapshot>> = BTreeMap::new();
        for (session, sum) in isolated.iter_mut().zip(&mut isolated_sums) {
            for result in session.push(chunk) {
                by_slide
                    .entry(result.slide)
                    .or_default()
                    .push(result.snapshot.clone());
                *sum = fold_update(*sum, &result);
            }
        }
        for (slide, snaps) in &by_slide {
            for snap in &snaps[1..] {
                assert!(
                    snaps[0].is_empty() || !snaps[0].ptr_eq(snap),
                    "slide {slide}: standalone sessions each own their snapshot"
                );
            }
        }
    }
    assert_eq!(
        classed_sums.values().copied().collect::<Vec<_>>(),
        isolated_sums,
        "sharing must be result-invisible"
    );
    let stats = classed.stats();
    assert_eq!(stats.result_classes, 1, "one geometry, one class");
    assert!(
        stats.class_hits > 0,
        "every close serves 3 members for free"
    );
}

/// Pins delta sharing: every member of a result class receives the
/// **same** event list (`EventList::ptr_eq`), however large the delta.
/// A tumbling window (`n = s = 10`) at `k = 5` replaces the whole top-5
/// at every close — a 10-event delta after the first — and the members'
/// updates still equal a standalone session's results.
#[test]
fn class_members_share_one_delta_list() {
    let data = gate_stream(&(0..100).map(|i| (i * 37 % 101) as u8).collect::<Vec<_>>());
    let query = Query::window(10).top(5).slide(10);
    let mut hub = Hub::new();
    let members = 3usize;
    for _ in 0..members {
        hub.register_grouped(&query).unwrap();
    }
    let mut standalone = query.session().unwrap();
    for chunk in data.chunks(10) {
        let updates = hub.publish(chunk);
        let want = standalone.push(chunk);
        assert_eq!(updates.len(), members, "one close per chunk");
        let slide = want[0].slide;
        assert!(
            want[0].events.len() == 10 || slide == 0,
            "slide {slide}: the whole top-5 turns over"
        );
        for u in &updates {
            assert_eq!(
                u.result, want[0],
                "slide {slide}: a standalone session's result"
            );
            assert!(
                u.result.events.ptr_eq(&updates[0].result.events),
                "slide {slide}: class members must share one delta list"
            );
        }
    }
}

/// Pins where a classed member's progress lives: a class close writes
/// one update per member and touches no session, so the class's slide
/// count and previous emission are the only copy, and every read path
/// copies them. Four count queries share one group (slide 4, registered
/// together): `reducing` (window 8, k 3) runs its reduction's engine and
/// `parked` (window 8, k 2) reads the first 2 of it; `leaver` (window 12,
/// k 3) reduces for `taker` (window 12, k 1) until it unregisters after
/// 12 closes, and `taker`'s class takes the reduction over. After 18
/// more closes each of the three reports its standalone session's slide
/// count and last snapshot through `Hub::session`, `AsyncHub::inspect`,
/// a checkpoint→restore on either hub, and the session `unregister`
/// hands back.
#[test]
fn classed_members_read_their_class_progress() {
    let data = class_stream(&(0..120).map(|i| (i * 11 % 29) as u8).collect::<Vec<_>>());
    let (early, late) = data.split_at(48);
    let queries = [
        ("reducing", Query::window(8).top(3).slide(4)),
        ("parked", Query::window(8).top(2).slide(4)),
        ("leaver", Query::window(12).top(3).slide(4)),
        ("taker", Query::window(12).top(1).slide(4)),
    ];
    let mut hub = Hub::new();
    let mut reactor = AsyncHub::new(3, 2);
    let mut members: Vec<Watched> = Vec::new();
    for (name, query) in &queries {
        let id = hub.register_grouped(query).unwrap();
        assert_eq!(reactor.register_grouped(query).unwrap(), id);
        members.push((name, id, query.session().unwrap()));
    }
    let publish = |hub: &mut Hub, reactor: &mut AsyncHub, members: &mut [Watched], chunk| {
        hub.publish(chunk);
        reactor.publish(chunk).unwrap();
        for (_, _, session) in members {
            session.push(chunk);
        }
    };
    for chunk in early.chunks(4) {
        publish(&mut hub, &mut reactor, &mut members, chunk);
    }
    let (_, leaver, _) = members.remove(2);
    hub.unregister(leaver).unwrap();
    reactor.unregister(leaver).unwrap();
    for chunk in late.chunks(4) {
        publish(&mut hub, &mut reactor, &mut members, chunk);
    }
    reactor.drain().unwrap();
    assert_eq!(hub.stats().result_classes, 3, "one class per member");

    let mut restored = Hub::restore(&hub.checkpoint(), &DefaultEngineFactory).unwrap();
    let (image, owed) = reactor.checkpoint().unwrap();
    assert!(owed.is_empty(), "the reactor was drained");
    let mut restored_reactor = AsyncHub::restore(&image, &DefaultEngineFactory, 2, 2).unwrap();
    for (name, id, standalone) in &members {
        let want = (standalone.slides(), standalone.last_snapshot().to_vec());
        assert!(want.0 > 20 && !want.1.is_empty(), "{name}: several closes");
        let progress = |session: &HubSession| (session.slides(), session.last_snapshot().to_vec());
        let member = hub.session(*id).unwrap();
        assert!(member.is_classed(), "{name} sits in a result class");
        assert_eq!(progress(member), want, "{name}: Hub::session");
        let state = reactor.inspect(*id).unwrap();
        assert_eq!(
            (state.slides, state.last_snapshot.to_vec()),
            want,
            "{name}: inspect"
        );
        let member = restored.session(*id).unwrap();
        assert_eq!(
            progress(member),
            want,
            "{name}: Hub::session after a restore"
        );
        let state = restored_reactor.inspect(*id).unwrap();
        assert_eq!(
            (state.slides, state.last_snapshot.to_vec()),
            want,
            "{name}: inspect after a restore"
        );
    }
    // each leaves as the last member of its class, with the class's
    // consumer: still parked only where another class ran the engine
    for (name, id, standalone) in &members {
        let want = (standalone.slides(), standalone.last_snapshot().to_vec());
        for left in [
            hub.unregister(*id).unwrap(),
            reactor.unregister(*id).unwrap(),
        ] {
            assert_eq!(
                (left.slides(), left.last_snapshot().to_vec()),
                want,
                "{name}: the session unregister returns"
            );
            let consumer = left
                .consumer()
                .expect("the last member out takes the consumer");
            assert_eq!(consumer.is_parked(), *name == "parked", "{name}");
        }
    }
}

/// Pins the class accounting across migration: `resize` and
/// `move_query` move a group with its result class, so the class count
/// and the class-hit counter read the same before and after, and the
/// members keep sharing one snapshot allocation per close.
#[test]
fn class_accounting_survives_resize_and_move() {
    let data = class_stream(&(0..48).map(|i| (i * 7 % 19) as u8).collect::<Vec<_>>());
    let (early, late) = data.split_at(24);
    let mut hub = AsyncHub::new(4, 2);
    let members = 3usize;
    let query = Query::window(8).top(3).slide(4);
    let first = hub.register_grouped(&query).unwrap();
    for _ in 1..members {
        hub.register_grouped(&query).unwrap();
    }
    hub.publish(early).unwrap();
    hub.drain().unwrap();
    let accounting = |hub: &mut AsyncHub| {
        let stats = hub.stats().unwrap();
        (stats.result_classes, stats.class_hits)
    };
    let settled = accounting(&mut hub);
    assert_eq!(settled.0, 1, "three twins, one class");
    assert!(settled.1 > 0, "twins ride the class close");
    hub.resize(3).unwrap();
    assert_eq!(accounting(&mut hub), settled, "across the resize");
    // at least two of these moves leave the group's current shard
    for shard in 0..3 {
        hub.move_query(first, shard).unwrap();
        assert_eq!(accounting(&mut hub), settled, "across a move to {shard}");
    }
    for chunk in late.chunks(4) {
        hub.publish(chunk).unwrap();
    }
    let mut by_slide: BTreeMap<u64, Vec<Snapshot>> = BTreeMap::new();
    for u in hub.drain().unwrap() {
        by_slide
            .entry(u.result.slide)
            .or_default()
            .push(u.result.snapshot);
    }
    assert_eq!(by_slide.len(), late.len() / 4, "one close per late chunk");
    for (slide, snaps) in &by_slide {
        assert_eq!(snaps.len(), members, "slide {slide}: every member emits");
        for snap in &snaps[1..] {
            assert!(
                snaps[0].ptr_eq(snap),
                "slide {slide}: the traveled class still shares one snapshot Arc"
            );
        }
    }
}

/// Pins the pruned counter itself, not just result invisibility: an
/// independent re-simulation of the k-skyband gate — a min-heap of the
/// top-`k_max` scores among objects admitted to the open slide, prune
/// iff the heap is full and the score is strictly below its root —
/// must predict `HubStats::pruned` and `HubStats::admitted` exactly.
#[test]
fn pruned_counter_matches_an_independent_gate_resimulation() {
    let s = 8usize;
    let data = gate_stream(
        &(0..400)
            .map(|i| ((i * 53 + 11) % 47) as u8)
            .collect::<Vec<_>>(),
    );
    let mut hub = Hub::new();
    // one geometry class, two pass-all members: k_max = 3
    hub.register_grouped(&Query::window(24).top(2).slide(s))
        .unwrap();
    hub.register_grouped(&Query::window(16).top(3).slide(s))
        .unwrap();
    let mut sums = BTreeMap::new();
    for chunk in data.chunks(13) {
        fold_all(&mut sums, hub.publish(chunk));
    }

    // the independent oracle: replay the stream through a from-scratch
    // min-heap gate with cap = k_max = 3, reset on each slide close
    let k_max = 3usize;
    let (mut admitted, mut pruned) = (0u64, 0u64);
    let mut heap: Vec<f64> = Vec::new();
    for (i, o) in data.iter().enumerate() {
        let min = heap.iter().copied().fold(f64::INFINITY, f64::min);
        if heap.len() < k_max || o.score >= min {
            admitted += 1;
            if heap.len() < k_max {
                heap.push(o.score);
            } else if o.score > min {
                let pos = heap.iter().position(|&x| x == min).unwrap();
                heap[pos] = o.score;
            }
        } else {
            pruned += 1;
        }
        if (i + 1) % s == 0 {
            heap.clear();
        }
    }
    let stats = hub.stats();
    assert_eq!(
        stats.admitted, admitted,
        "admitted counter diverged from gate oracle"
    );
    assert_eq!(
        stats.pruned, pruned,
        "pruned counter diverged from gate oracle"
    );
    assert!(
        stats.pruned > 0,
        "this stream must actually exercise the gate"
    );
    let rate = stats.prune_rate();
    assert!((rate - pruned as f64 / (admitted + pruned) as f64).abs() < 1e-12);

    // standalone sessions on the same stream: no gate, same results
    let mut isolated = [
        Query::window(24).top(2).slide(s),
        Query::window(16).top(3).slide(s),
    ]
    .map(|q| q.session().unwrap());
    let mut isolated_sums = vec![SEED; isolated.len()];
    for chunk in data.chunks(13) {
        for (session, sum) in isolated.iter_mut().zip(&mut isolated_sums) {
            for result in session.push(chunk) {
                *sum = fold_update(*sum, &result);
            }
        }
    }
    assert_eq!(
        sums.values().copied().collect::<Vec<_>>(),
        isolated_sums,
        "arms must be checksum-identical"
    );
}

/// Pins that a late object lands in the same slides whether its group
/// takes it off the registry's dispatch index (a `tag` clause) or off
/// the per-object walk (pass-all). Object 4 arrives at `t = 12` after
/// object 3 at `t = 25` has closed slides 0 and 1, so both groups put it
/// in the open slide [20, 30) and report it in slides 2 and 3: an
/// indexed group catches up to the call's running maximum timestamp
/// before it takes an object, not to the object's own. Late objects
/// are accepted silently today (ROADMAP item 1); the test pins only that
/// the two paths agree.
#[test]
fn a_late_object_lands_in_the_same_slides_for_an_indexed_and_a_walked_group() {
    let mut hub = Hub::new();
    let query = Query::window_duration(20).slide_duration(10).top(2);
    let indexed = hub
        .register_shared(&query.clone().filter(Predicate::any().tag(2, 0)))
        .unwrap();
    let walked = hub.register_shared(&query).unwrap();
    assert_eq!(hub.stats().digest_groups, 2);
    let batches = [
        &[(1, 1, 5.0), (2, 3, 4.0)][..],
        &[(3, 25, 1.0), (4, 12, 9.0)],
        &[(5, 31, 2.0)],
    ];
    let mut updates = Vec::new();
    for batch in batches {
        let objects: Vec<TimedObject> = batch
            .iter()
            .map(|&(id, t, score)| TimedObject::new(id, t, score))
            .collect();
        updates.extend(hub.publish_timed(&objects));
    }
    updates.extend(hub.advance_time(100));
    let holding_4 = |query: QueryId| -> Vec<u64> {
        updates
            .iter()
            .filter(|u| u.query == query && u.result.snapshot.iter().any(|o| o.id == 4))
            .map(|u| u.result.slide)
            .collect()
    };
    assert_eq!(holding_4(walked), [2, 3], "the walk's late-object slides");
    assert_eq!(holding_4(indexed), holding_4(walked));
}
