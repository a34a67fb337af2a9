//! The brute-force time-window ranking: the one definition every
//! time-based check under `tests/` agrees with — the hub model in
//! `tests/common/mod.rs` and the engine-level `tests/time_window.rs`.

use sap::prelude::TimedObject;

/// The top-`k` of the `objects` the filter `accepts` whose timestamps
/// fall in `[end − duration, end)`, where `end` is an absolute slide
/// boundary (a multiple of `slide` counted from time 0). Ranked by
/// score, descending; equal scores go to the **later slide**, then to
/// the **higher id** — the per-slide truncation prefers the higher id,
/// and the reduced stream prefers the newer slide.
pub fn top_k(
    objects: &[TimedObject],
    end: u64,
    duration: u64,
    slide: u64,
    k: usize,
    accepts: impl Fn(&TimedObject) -> bool,
) -> Vec<TimedObject> {
    let lo = end.saturating_sub(duration);
    let mut alive: Vec<TimedObject> = objects
        .iter()
        .filter(|o| o.timestamp >= lo && o.timestamp < end && accepts(o))
        .copied()
        .collect();
    alive.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then((b.timestamp / slide).cmp(&(a.timestamp / slide)))
            .then(b.id.cmp(&a.id))
    });
    alive.truncate(k);
    alive
}
