//! The brute-force oracle behind `failure_rate`.
//!
//! A seeded sample of the static population is watched: every update
//! delivered to a sampled subscription is checked for a gap or repeat in
//! its slide sequence, and a seeded subset of those updates is kept and,
//! after the run, compared with a recompute of its window: apply the
//! predicate, sort by the documented result order (higher score first,
//! equal scores to the newer object), take the first `k`.

use std::collections::BinaryHeap;

use sap::prelude::*;

use crate::feed::Feed;

/// The window model of a subscription, as the oracle needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// The last `n` objects, sliding every `s` arrivals.
    Count { n: usize, s: usize },
    /// The last `wd` time units, sliding every `sd`.
    Timed { wd: u64, sd: u64 },
}

/// One subscription of the static population (registered before the
/// first publish, so its slides are aligned to the stream's start).
#[derive(Debug, Clone, Copy)]
pub struct Sub {
    pub window: Window,
    pub k: usize,
    pub predicate: Predicate,
}

impl Sub {
    /// The oracle's view of a valid query.
    pub fn of(query: &Query) -> Sub {
        let (window, k) = if query.is_time_based() {
            let t = query
                .validate_timed()
                .expect("population queries are valid");
            (
                Window::Timed {
                    wd: t.window_duration,
                    sd: t.slide_duration,
                },
                t.k,
            )
        } else {
            let c = query.validate().expect("population queries are valid");
            (Window::Count { n: c.n, s: c.s }, c.k)
        };
        Sub {
            window,
            k,
            predicate: query.predicate(),
        }
    }

    /// The expected snapshot of slide `slide` (0-based).
    pub fn expected(&self, feed: &Feed, slide: u64) -> Vec<Object> {
        let range = match self.window {
            Window::Count { n, s } => {
                let end = (slide + 1) * s as u64;
                end.saturating_sub(n as u64)..end
            }
            Window::Timed { wd, sd } => {
                let end = (slide + 1) * sd;
                feed.first_at(end.saturating_sub(wd))..feed.first_at(end)
            }
        };
        top_k(range.map(|i| feed.get(i).untimed()), self.predicate, self.k)
    }

    /// How many slides have closed once objects `0..published` arrived.
    pub fn slides_closed(&self, feed: &Feed, published: u64) -> u64 {
        match self.window {
            Window::Count { s, .. } => published / s as u64,
            // a slide closes when an object at or past its end arrives
            Window::Timed { sd, .. } if published > 0 => feed.get(published - 1).timestamp / sd,
            Window::Timed { .. } => 0,
        }
    }
}

/// Top-`k` of the objects `predicate` accepts, best first: by score, ties
/// to the newer (higher-id) object.
pub fn top_k(window: impl Iterator<Item = Object>, predicate: Predicate, k: usize) -> Vec<Object> {
    let mut alive: Vec<Object> = window.filter(|o| predicate.accepts(o)).collect();
    alive.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(b.id.cmp(&a.id)));
    alive.truncate(k);
    alive
}

/// A kept update, ordered by its seeded sampling key.
#[derive(Debug)]
struct Kept {
    key: u64,
    sample: usize,
    slide: u64,
    snapshot: Snapshot,
}

impl PartialEq for Kept {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Kept {}
impl PartialOrd for Kept {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Kept {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// What the oracle found.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Verdict {
    /// Updates compared with a recompute.
    pub checked: u64,
    /// Compared updates that differed.
    pub wrong: u64,
    /// Slides a sampled subscription should have received but did not.
    pub missing: u64,
    /// Updates that repeated or went back in a slide sequence.
    pub repeated: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.wrong + self.missing + self.repeated
    }
}

/// Watches the sampled subscriptions' updates during a run.
#[derive(Debug)]
pub struct Recorder {
    /// Sampled ids, ascending, with their population index.
    ids: Vec<(QueryId, usize)>,
    next_slide: Vec<u64>,
    missing: u64,
    repeated: u64,
    seed: u64,
    keep: usize,
    kept: BinaryHeap<Kept>,
}

impl Recorder {
    /// Watches the `(id, population index)` pairs, keeping at most `keep`
    /// updates (those with the smallest seeded keys) for comparison.
    pub fn new(mut watched: Vec<(QueryId, usize)>, seed: u64, keep: usize) -> Recorder {
        watched.sort_unstable();
        Recorder {
            next_slide: vec![0; watched.len()],
            ids: watched,
            missing: 0,
            repeated: 0,
            seed,
            keep,
            kept: BinaryHeap::with_capacity(keep + 1),
        }
    }

    /// Looks at every delivered update.
    pub fn observe(&mut self, updates: &[QueryUpdate]) {
        for u in updates {
            let Ok(at) = self.ids.binary_search_by(|p| p.0.cmp(&u.query)) else {
                continue;
            };
            let slide = u.result.slide;
            let next = &mut self.next_slide[at];
            if slide < *next {
                self.repeated += 1;
            } else {
                self.missing += slide - *next;
            }
            *next = slide + 1;
            let key = mix(self.seed ^ mix(self.ids[at].1 as u64) ^ slide.rotate_left(32));
            if self.kept.len() < self.keep || self.kept.peek().is_some_and(|top| key < top.key) {
                self.kept.push(Kept {
                    key,
                    sample: self.ids[at].1,
                    slide,
                    snapshot: u.result.snapshot.clone(),
                });
                if self.kept.len() > self.keep {
                    self.kept.pop();
                }
            }
        }
    }

    /// Compares the kept updates with recomputes and counts the slides
    /// still missing once `published` objects have arrived.
    pub fn verify(self, population: &[Sub], feed: &Feed, published: u64) -> Verdict {
        let mut verdict = Verdict {
            missing: self.missing,
            repeated: self.repeated,
            ..Verdict::default()
        };
        for (&(_, i), &next) in self.ids.iter().zip(&self.next_slide) {
            verdict.missing += population[i]
                .slides_closed(feed, published)
                .saturating_sub(next);
        }
        for kept in self.kept {
            verdict.checked += 1;
            let want = population[kept.sample].expected(feed, kept.slide);
            if !same(&kept.snapshot, &want) {
                verdict.wrong += 1;
            }
        }
        verdict
    }
}

/// Exact equality, scores compared bit for bit.
fn same(got: &[Object], want: &[Object]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.id == b.id && a.score.to_bits() == b.score.to_bits())
}

/// The splitmix64 finalizer: a seeded, well-mixed 64-bit hash.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `want` distinct indices below `len`, seeded, ascending (all of them when
/// `want ≥ len`).
pub fn sample(len: usize, want: usize, seed: u64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = (0..len).map(|i| (mix(seed ^ mix(i as u64)), i)).collect();
    keyed.sort_unstable();
    let mut picked: Vec<usize> = keyed.into_iter().take(want).map(|p| p.1).collect();
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(points: &[(u64, f64)]) -> Feed {
        Feed::from_objects(
            points
                .iter()
                .map(|&(t, s)| TimedObject::new(0, t, s))
                .collect(),
        )
    }

    fn ids(objects: &[Object]) -> Vec<u64> {
        objects.iter().map(|o| o.id).collect()
    }

    #[test]
    fn count_window_matches_hand_computation() {
        // scores by index: 0:5 1:9 2:1 3:9 4:7 5:3 6:8 7:2
        let f = feed(&[
            (0, 5.0),
            (1, 9.0),
            (2, 1.0),
            (3, 9.0),
            (4, 7.0),
            (5, 3.0),
            (6, 8.0),
            (7, 2.0),
        ]);
        let sub = Sub::of(&Query::window(4).top(2).slide(2));
        // slide 0 covers objects 0..2, still filling: {5, 9}
        assert_eq!(ids(&sub.expected(&f, 0)), vec![1, 0]);
        // slide 1 covers 0..4: the two 9s tie, the newer (3) first
        assert_eq!(ids(&sub.expected(&f, 1)), vec![3, 1]);
        // slide 2 covers 2..6: {1, 9, 7, 3}
        assert_eq!(ids(&sub.expected(&f, 2)), vec![3, 4]);
        // slide 3 covers 4..8: {7, 3, 8, 2}
        assert_eq!(ids(&sub.expected(&f, 3)), vec![6, 4]);
        assert_eq!(sub.slides_closed(&f, 7), 3);
        // a predicate filters the ranking: odd ids only
        let odd = Sub::of(
            &Query::window(4)
                .top(2)
                .slide(2)
                .filter(Predicate::any().tag(2, 1)),
        );
        assert_eq!(ids(&odd.expected(&f, 3)), vec![5, 7]);
    }

    #[test]
    fn time_window_with_ties_matches_hand_computation() {
        // (timestamp, score); three objects tie at 4.0
        let f = feed(&[
            (0, 4.0),
            (1, 6.0),
            (1, 4.0),
            (3, 2.0),
            (4, 4.0),
            (6, 1.0),
            (7, 5.0),
        ]);
        let sub = Sub::of(&Query::window_duration(4).top(3).slide_duration(2));
        // slide 0: [0, 2) holds ids 0, 1, 2 → 6.0, then the 4.0 tie: 2 over 0
        assert_eq!(ids(&sub.expected(&f, 0)), vec![1, 2, 0]);
        // slide 1: [0, 4) adds id 3 (2.0), which ranks last
        assert_eq!(ids(&sub.expected(&f, 1)), vec![1, 2, 0]);
        // slide 2: [2, 6) holds ids 3, 4 → 4.0 then 2.0
        assert_eq!(ids(&sub.expected(&f, 2)), vec![4, 3]);
        // slide 3: [4, 8) holds ids 4, 5, 6 → 5.0, 4.0, 1.0
        assert_eq!(ids(&sub.expected(&f, 3)), vec![6, 4, 5]);
        // the object at t = 7 closed slides ending at 2, 4 and 6
        assert_eq!(sub.slides_closed(&f, 7), 3);
        assert_eq!(sub.slides_closed(&f, 0), 0);
    }

    #[test]
    fn recorder_flags_wrong_missing_and_repeated_updates() {
        let f = feed(&(0..8).map(|i| (i, (i % 3) as f64)).collect::<Vec<_>>());
        let query = Query::window(4).top(2).slide(2);
        let population = [Sub::of(&query)];
        let mut hub = Hub::new();
        let id = hub.register(&query).unwrap();
        let mut rec = Recorder::new(vec![(id, 0)], 7, 16);
        let mut buf = Vec::new();
        f.fill(0, 8, &mut buf);
        let updates = hub.publish(&buf);
        assert_eq!(updates.len(), 4);
        rec.observe(&updates);
        let clean = rec.verify(&population, &f, 8);
        assert_eq!((clean.checked, clean.failed()), (4, 0));

        // drop slide 1, repeat slide 3, corrupt slide 2, and stop short
        let mut rec = Recorder::new(vec![(id, 0)], 7, 16);
        let mut bad = updates.clone();
        bad[2].result.snapshot = Snapshot::from(vec![Object::new(0, 0.0)]);
        rec.observe(&[
            bad[0].clone(),
            bad[2].clone(),
            bad[3].clone(),
            bad[3].clone(),
        ]);
        let v = rec.verify(&population, &f, 10);
        assert_eq!(v.checked, 4);
        // slide 1 was skipped and slide 4 never came
        assert_eq!((v.wrong, v.missing, v.repeated), (1, 2, 1));
    }

    #[test]
    fn samples_are_seeded_and_distinct() {
        let a = sample(1000, 64, 5);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, sample(1000, 64, 5));
        assert_ne!(a, sample(1000, 64, 6));
        assert_eq!(sample(12, 64, 5), (0..12).collect::<Vec<_>>());
    }
}
