//! The checkpoint format, pinned across builds. This build writes format
//! 4 and reads formats 3 and 4, through five committed images:
//!
//! * four format-3 images written by earlier builds, which still served
//!   isolated sessions: `hub_v3.ckpt` and `hub_v3_sharded.ckpt` hold
//!   isolated time-based sessions (session kind 1), `hub_v3_counts.ckpt`
//!   and the first two hold isolated count sessions (kind 0), and
//!   `hub_v3_serving.ckpt` is [`fixture_hub`] as the last format-3 build
//!   served it. This build reads kinds 0 and 1 but never writes them:
//!   each such session joins its group. Every old image must restore on
//!   either hub and continue with exactly the updates the writing build
//!   produced, pinned per query as an update count and a `fold_all`
//!   checksum;
//! * `hub_v4_serving.ckpt` is [`fixture_hub`] as this build serves it.
//!   This build must write exactly these bytes, re-encode a restore of
//!   them to the same bytes, and continue them like the old images.

use std::collections::BTreeMap;

use sap::prelude::*;
use sap::stream::checkpoint::FORMAT_VERSION;

#[path = "common/checksum.rs"]
mod checksum;
use checksum::fold_all;

/// A format-3 checkpoint of [`fixture_hub`], written at commit cd4647a
/// by running [`fixture_hub`] against that build and saving
/// `hub.checkpoint().as_bytes()` to `tests/fixtures/hub_v3.ckpt`. That
/// build served `register` of a time-based query on its own isolated
/// adapter, so the image holds one kind-1 session (`q2`); its slide
/// group exists, so it restores warming up.
const FIXTURE: &[u8] = include_bytes!("fixtures/hub_v3.ckpt");

/// [`fixture_hub`] as the last format-3 build served it, written at
/// commit 32d9968 by saving `fixture_hub().checkpoint().as_bytes()`:
/// `q2` is a slide-group member from the start, while `q0`, `q1` and
/// `q6` are isolated count sessions (kind 0).
const SERVING_V3: &[u8] = include_bytes!("fixtures/hub_v3_serving.ckpt");

/// [`fixture_hub`] as this build serves it: every query is a group
/// member. Regenerate it only with a deliberate format change, by saving
/// `fixture_hub().checkpoint().as_bytes()`.
const SERVING: &[u8] = include_bytes!("fixtures/hub_v4_serving.ckpt");

/// A format-3 checkpoint of an `AsyncHub` with four shards, written at
/// commit 7c4f8a3 (the last build that served isolated time-based
/// sessions) by this program, saving the checkpoint's bytes to
/// `tests/fixtures/hub_v3_sharded.ckpt`:
///
/// ```text
/// let mut hub = AsyncHub::new(4, 2);
/// let hot = Predicate::any().score_at_least(40.0);
/// hub.register(&Query::window(12).top(2).slide(4)).unwrap(); // q0
/// hub.register_shared(&Query::window_duration(40).top(3).slide_duration(10)).unwrap(); // q1
/// hub.register_shared(&Query::window_duration(20).top(2).slide_duration(10)).unwrap(); // q2
/// let filtered = Query::window_duration(21).top(2).slide_duration(7).filter(hot);
/// hub.register_shared(&filtered).unwrap(); // q3
/// hub.register(&Query::window_duration(14).top(2).slide_duration(7)).unwrap(); // q4
/// hub.register(&Query::window_duration(28).top(3).slide_duration(7)).unwrap(); // q5
/// hub.publish_timed(&stream(0..25)).unwrap();
/// hub.register(&Query::window_duration(21).top(1).slide_duration(7)).unwrap(); // q6
/// hub.register(&Query::window_duration(14).top(4).slide_duration(7)).unwrap(); // q7
/// hub.register(&Query::window_duration(20).top(4).slide_duration(10)).unwrap(); // q8
/// let tail = stream(25..50);
/// hub.publish_timed(&tail).unwrap();
/// hub.advance_time(tail.last().unwrap().timestamp + 6).unwrap();
/// hub.register(&Query::window_duration(30).top(2).slide_duration(10)).unwrap(); // q9
/// let (checkpoint, _) = hub.checkpoint().unwrap();
/// ```
///
/// `q4`–`q9` are kind-1 sessions:
///
/// * `q4`–`q7` slide every 7 units, where the image holds only a
///   filtered slide group, and sit on four different shard sections:
///   `q4` founds the pass-all group and `q5`–`q7` warm up in it;
/// * `q8` slides every 10 units, whose slide group exists: it warms up;
/// * `q9` was registered after the last arrival and a watermark that
///   closed the 7-unit slide holding that arrival but not the 10-unit
///   one. Its producer lags its group by 17 empty slides while the
///   group's open slide still holds objects published before `q9`: it
///   warms up until the group closes that slide.
const SHARDED: &[u8] = include_bytes!("fixtures/hub_v3_sharded.ckpt");

/// A format-3 checkpoint of an `AsyncHub` with four shards, written at
/// commit 32d9968 (the last build that served isolated count sessions)
/// by this program, saving the checkpoint's bytes to
/// `tests/fixtures/hub_v3_counts.ckpt`:
///
/// ```text
/// let mut hub = AsyncHub::new(4, 2);
/// hub.register(&Query::window(12).top(2).slide(4)).unwrap(); // q0
/// let min_top_k = Query::window(8).top(6).slide(4).algorithm(AlgorithmKind::MinTopK);
/// hub.register(&min_top_k).unwrap(); // q1
/// hub.register(&Query::window(10).top(2).slide(5)).unwrap(); // q2
/// hub.publish_timed(&stream(0..8)).unwrap();
/// hub.register_grouped(&Query::window(12).top(3).slide(4)).unwrap(); // q3
/// hub.register_grouped(&Query::window(8).top(6).slide(2)).unwrap(); // q4
/// hub.publish_timed(&stream(8..27)).unwrap();
/// let (checkpoint, _) = hub.checkpoint().unwrap();
/// ```
///
/// * `q0` (`k < s`) and `q1` (`k ≥ s`) are kind-0 sessions at one
///   `(s, fill)` on two shard sections; `q3`'s count group, founded 8
///   objects later at the same offset, sits on `q0`'s section, so both
///   merge into it and it shifts two slides onto their ordinals;
/// * `q2` is a kind-0 session alone at its offset: it founds a group;
/// * `q4` is a grouped member with `k > s`, whose format-3 ring pads each
///   slide to `k`.
const COUNTS: &[u8] = include_bytes!("fixtures/hub_v3_counts.ckpt");

/// Per query: updates and `fold_all` checksum of [`FIXTURE`] continued
/// by [`continue_on_both_hubs`] over `stream(60..160)`, as the writing
/// build's own hubs emitted them.
const FIXTURE_CONTINUATION: [(&str, usize, u64); 12] = [
    ("q0", 25, 0x8e6b04b597de15f7),
    ("q1", 20, 0x48e106b1e7ac2c8d),
    ("q2", 46, 0xe1e417fc5726417c),
    ("q3", 46, 0x7ee127d4ba4baa5a),
    ("q4", 25, 0x8e6b04b597de15f7),
    ("q5", 46, 0x7ee127d4ba4baa5a),
    ("q6", 25, 0x8e6b04b597de15f7),
    ("q7", 46, 0xdfae7366076f10cc),
    ("q8", 25, 0xe426fd1e8d23e22b),
    ("q10", 46, 0xa736a551b2b0ff1c),
    ("q11", 25, 0xefbc001d4d5b93e0),
    ("q12", 46, 0xbc97138daac08690),
];

/// The same for [`COUNTS`] over `stream(27..127)`.
const COUNTS_CONTINUATION: [(&str, usize, u64); 5] = [
    ("q0", 25, 0x2b8b1024197d9c16),
    ("q1", 25, 0xe266a94bbfcbb4b2),
    ("q2", 20, 0x296b981a786a80ba),
    ("q3", 25, 0x16ced84e7ab70807),
    ("q4", 50, 0x37e7810873c23dc0),
];

/// The same for [`SHARDED`] over `stream(50..190)`.
const SHARDED_CONTINUATION: [(&str, usize, u64); 10] = [
    ("q0", 35, 0xf6798f9052eb046d),
    ("q1", 59, 0x08d6cb2ed3644f4d),
    ("q2", 59, 0x9dc21f209f219abf),
    ("q3", 84, 0x98297c13d0da6fb4),
    ("q4", 84, 0xdf2ea2d44e01a001),
    ("q5", 84, 0x8fbff4e5f3f86073),
    ("q6", 84, 0xfa90b52550877f8f),
    ("q7", 84, 0xd2a084d4f4e77764),
    ("q8", 59, 0x90e374c8634ef3b6),
    ("q9", 76, 0x48ee8dae4217c295),
];

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

/// The hub the fixtures capture after 60 objects: isolated count (SAP
/// and MinTopK) queries, a `register`ed timed query, a shared class of
/// two, a grouped class of two, a filtered member on each sharing plane,
/// a departed query, mid-stream joins on both sharing planes, and one
/// shared member still warming up at the cut.
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

fn image(bytes: &[u8]) -> Checkpoint {
    Checkpoint::from_bytes(bytes).expect("a committed image is a valid checkpoint")
}

/// Restores `bytes` on a `Hub` and on a 3-shard, 2-worker `AsyncHub`,
/// publishes `tail` to both — its first object alone, so a restored
/// member's first call stays inside its group's open slide, then chunks
/// of 13 — raises the watermark 100 units past it, and checks that both
/// emitted the same updates and that every restored query kept serving.
/// Returns each query's update count and `fold_all` checksum, in id
/// order.
fn continue_on_both_hubs(bytes: &[u8], tail: std::ops::Range<u64>) -> Vec<(String, usize, u64)> {
    let tail = stream(tail);
    let horizon = tail.last().expect("non-empty tail").timestamp + 100;

    let chunks = std::iter::once(&tail[..1]).chain(tail[1..].chunks(13));
    let mut hub = Hub::restore(&image(bytes), &DefaultEngineFactory).expect("image restores");
    let mut expected = Vec::new();
    for chunk in chunks.clone() {
        expected.extend(hub.publish_timed(chunk));
    }
    expected.extend(hub.advance_time(horizon));
    expected.sort_unstable_by_key(|u| (u.query, u.result.slide));

    let mut reactor =
        AsyncHub::restore(&image(bytes), &DefaultEngineFactory, 3, 2).expect("image restores");
    let mut got = Vec::new();
    for chunk in chunks {
        reactor.publish_timed(chunk).expect("healthy shards");
        got.extend(reactor.drain().expect("healthy shards"));
    }
    reactor.advance_time(horizon).expect("healthy shards");
    got.extend(reactor.drain().expect("healthy shards"));
    got.sort_unstable_by_key(|u| (u.query, u.result.slide));

    assert_eq!(got, expected);
    let mut counts: BTreeMap<QueryId, usize> = BTreeMap::new();
    for u in &expected {
        *counts.entry(u.query).or_default() += 1;
    }
    assert!(
        counts.keys().copied().eq(hub.query_ids()),
        "every restored member keeps serving"
    );
    let mut sums = BTreeMap::new();
    fold_all(&mut sums, expected);
    sums.iter()
        .map(|(query, sum)| (query.to_string(), counts[query], *sum))
        .collect()
}

fn pinned(pins: &[(&str, usize, u64)]) -> Vec<(String, usize, u64)> {
    pins.iter()
        .map(|&(query, updates, sum)| (query.to_owned(), updates, sum))
        .collect()
}

/// The registered query displayed as `name`.
fn query(hub: &Hub, name: &str) -> QueryId {
    hub.query_ids()
        .find(|id| id.to_string() == name)
        .expect("a restored query")
}

#[test]
fn this_build_writes_format_4_and_reads_format_3() {
    assert_eq!(FORMAT_VERSION, 4);
    assert_eq!(image(SERVING).version(), 4);
    for bytes in [FIXTURE, SERVING_V3, SHARDED, COUNTS] {
        assert_eq!(image(bytes).version(), 3);
    }
}

#[test]
fn restored_fixture_re_checkpoints_to_identical_bytes() {
    let restored = Hub::restore(&image(SERVING), &DefaultEngineFactory).expect("fixture restores");
    assert_eq!(restored.len(), 12);
    assert_eq!(restored.checkpoint().as_bytes(), SERVING);
}

#[test]
fn this_build_writes_the_fixture_bytes() {
    assert_eq!(fixture_hub().checkpoint().as_bytes(), SERVING);
}

#[test]
fn restored_fixture_continues_identically_on_both_hubs() {
    assert_eq!(
        continue_on_both_hubs(FIXTURE, 60..160),
        pinned(&FIXTURE_CONTINUATION)
    );
}

/// The old images and this build's image of one hub continue alike: the
/// kind-1 session `q2` serves from its slide group exactly what its
/// isolated adapter would have, and the kind-0 sessions from their count
/// groups exactly what their isolated sessions would have.
#[test]
fn serving_fixture_continues_like_the_old_image() {
    let restored = Hub::restore(&image(FIXTURE), &DefaultEngineFactory).expect("fixture restores");
    let q2 = restored
        .session(query(&restored, "q2"))
        .expect("the kind-1 session joined its slide group");
    assert_eq!(q2.clock(), Clock::Event);
    assert!(q2.is_warming_up(), "its slide group exists");
    for name in ["q0", "q1"] {
        let member = restored.session(query(&restored, name)).unwrap();
        assert_eq!(
            member.clock(),
            Clock::Arrival,
            "{name} joined a count group"
        );
    }
    assert_eq!(
        continue_on_both_hubs(SERVING_V3, 60..160),
        pinned(&FIXTURE_CONTINUATION)
    );
    assert_eq!(
        continue_on_both_hubs(SERVING, 60..160),
        pinned(&FIXTURE_CONTINUATION)
    );
}

#[test]
fn sharded_old_image_seats_its_timed_sessions_in_slide_groups() {
    let hub = Hub::restore(&image(SHARDED), &DefaultEngineFactory).expect("image restores");
    let member = |name| {
        hub.session(query(&hub, name))
            .expect("a kind-1 session restores as a group member")
    };
    let founder = member("q4");
    assert!(
        !founder.is_warming_up() && founder.is_classed(),
        "q4 founds"
    );
    for name in ["q5", "q6", "q7", "q8", "q9"] {
        assert!(member(name).is_warming_up(), "{name} warms up");
    }
    assert_eq!(member("q9").slides(), 0, "q9 never closed a slide");
    // the pass-all group of 7 joins the filtered one and the group of 10;
    // classes: two in the group of 10, one each in the groups of 7, and
    // the kind-0 session `q0`'s in its count group
    let stats = hub.stats();
    assert_eq!(
        (
            stats.grouped_queries,
            stats.shared_queries,
            stats.digest_groups
        ),
        (1, 9, 3)
    );
    assert_eq!(stats.result_classes, 5);

    let mut reactor =
        AsyncHub::restore(&image(SHARDED), &DefaultEngineFactory, 3, 2).expect("image restores");
    let sharded = reactor.stats().expect("healthy shards");
    assert_eq!(
        (sharded.shared_queries, sharded.digest_groups),
        (stats.shared_queries, stats.digest_groups)
    );
    assert_eq!(sharded.result_classes, stats.result_classes);

    assert_eq!(
        continue_on_both_hubs(SHARDED, 50..190),
        pinned(&SHARDED_CONTINUATION)
    );
}

#[test]
fn counts_old_image_seats_its_count_sessions_in_count_groups() {
    let hub = Hub::restore(&image(COUNTS), &DefaultEngineFactory).expect("image restores");
    for name in ["q0", "q1", "q2", "q3", "q4"] {
        let member = hub.session(query(&hub, name)).unwrap();
        assert_eq!(member.clock(), Clock::Arrival, "{name}");
    }
    // q0, q1 and q3 share the group of 4; q2 founds the group of 5
    let stats = hub.stats();
    assert_eq!((stats.grouped_queries, stats.count_groups), (5, 3));
    assert_eq!(stats.result_classes, 5);

    let mut reactor =
        AsyncHub::restore(&image(COUNTS), &DefaultEngineFactory, 3, 2).expect("image restores");
    let sharded = reactor.stats().expect("healthy shards");
    assert_eq!(
        (sharded.grouped_queries, sharded.count_groups),
        (stats.grouped_queries, stats.count_groups)
    );

    assert_eq!(
        continue_on_both_hubs(COUNTS, 27..127),
        pinned(&COUNTS_CONTINUATION)
    );
}
