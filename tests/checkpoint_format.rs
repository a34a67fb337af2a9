//! The checkpoint format, pinned across builds: a `Hub` checkpoint
//! written by an earlier build must restore on today's build, re-encode
//! to the same bytes, and continue identically on either hub.

use sap::prelude::*;
use sap::stream::checkpoint::FORMAT_VERSION;

/// A format-3 checkpoint of [`fixture_hub`].
///
/// It was written at commit cd4647a by running [`fixture_hub`] against
/// that build and saving `hub.checkpoint().as_bytes()` to
/// `tests/fixtures/hub_v3.ckpt`. `fixture_hub` only registers through
/// `HubExt`, which both builds share, so the same program regenerates
/// the file on any build that keeps the format.
const FIXTURE: &[u8] = include_bytes!("fixtures/hub_v3.ckpt");

/// Objects `range` of one irregular-rate stream: gaps cycle through
/// 0..7 time units, so some slides are empty.
fn stream(range: std::ops::Range<u64>) -> Vec<TimedObject> {
    let mut ts = 0u64;
    let mut out = Vec::new();
    for i in 0..range.end {
        ts += (i * 5 + 3) % 8;
        if i >= range.start {
            out.push(TimedObject::new(i, ts, ((i * 37) % 101) as f64));
        }
    }
    out
}

/// The hub the fixture captures after 60 objects: isolated count (SAP
/// and MinTopK) and timed members, a shared class of two, a grouped
/// class of two, a filtered member on each sharing plane, a departed
/// query, mid-stream joins on both sharing planes, and one shared member
/// still warming up at the cut.
fn fixture_hub() -> Hub {
    let mut hub = Hub::new();
    let hot = Predicate::any().score_at_least(30.0);
    let tagged = Predicate::any().tag(3, 1);
    hub.register(&Query::window(12).top(2).slide(4)).unwrap();
    let min_top_k = Query::window(10)
        .top(3)
        .slide(5)
        .algorithm(AlgorithmKind::MinTopK);
    hub.register(&min_top_k).unwrap();
    hub.register(&Query::window_duration(40).top(2).slide_duration(10))
        .unwrap();
    for _ in 0..2 {
        hub.register_shared(&Query::window_duration(40).top(3).slide_duration(10))
            .unwrap();
        hub.register_grouped(&Query::window(12).top(2).slide(4))
            .unwrap();
    }
    let filtered = Query::window_duration(30)
        .top(2)
        .slide_duration(10)
        .filter(hot);
    hub.register_shared(&filtered).unwrap();
    hub.register_grouped(&Query::window(16).top(2).slide(4).filter(tagged))
        .unwrap();
    let gone = hub.register(&Query::window(6).top(1).slide(3)).unwrap();
    hub.publish_timed(&stream(0..30));
    hub.unregister(gone).unwrap();
    hub.register_shared(&Query::window_duration(20).top(4).slide_duration(10))
        .unwrap();
    hub.register_grouped(&Query::window(8).top(3).slide(4))
        .unwrap();
    hub.publish_timed(&stream(30..59));
    hub.register_shared(&Query::window_duration(20).top(2).slide_duration(10))
        .unwrap();
    hub.publish_timed(&stream(59..60));
    hub
}

fn fixture() -> Checkpoint {
    Checkpoint::from_bytes(FIXTURE).expect("the fixture is a valid checkpoint")
}

#[test]
fn format_version_is_still_3() {
    assert_eq!(FORMAT_VERSION, 3);
    assert_eq!(fixture().version(), 3);
}

#[test]
fn restored_fixture_re_checkpoints_to_identical_bytes() {
    let restored = Hub::restore(&fixture(), &DefaultEngineFactory).expect("fixture restores");
    assert_eq!(restored.len(), 12);
    assert_eq!(restored.checkpoint().as_bytes(), FIXTURE);
}

#[test]
fn this_build_writes_the_fixture_bytes() {
    assert_eq!(fixture_hub().checkpoint().as_bytes(), FIXTURE);
}

#[test]
fn restored_fixture_continues_identically_on_both_hubs() {
    let tail = stream(60..160);
    let horizon = tail.last().expect("non-empty tail").timestamp + 100;

    let mut hub = Hub::restore(&fixture(), &DefaultEngineFactory).expect("fixture restores");
    let mut expected = Vec::new();
    for chunk in tail.chunks(13) {
        expected.extend(hub.publish_timed(chunk));
    }
    expected.extend(hub.advance_time(horizon));
    expected.sort_unstable_by_key(|u| (u.query, u.result.slide));

    let mut reactor =
        AsyncHub::restore(&fixture(), &DefaultEngineFactory, 3, 2).expect("fixture restores");
    let mut got = Vec::new();
    for chunk in tail.chunks(13) {
        reactor.publish_timed(chunk).expect("healthy shards");
        got.extend(reactor.drain().expect("healthy shards"));
    }
    reactor.advance_time(horizon).expect("healthy shards");
    got.extend(reactor.drain().expect("healthy shards"));
    got.sort_unstable_by_key(|u| (u.query, u.result.slide));

    assert_eq!(got, expected);
    let served: std::collections::BTreeSet<QueryId> = expected.iter().map(|u| u.query).collect();
    assert_eq!(
        served,
        hub.query_ids().collect(),
        "every restored member keeps serving"
    );
}
