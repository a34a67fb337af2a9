//! The input stream: a seeded base block of the Stock dataset, repeated
//! with fresh ids and shifted timestamps, so a run never runs out of input
//! and the oracle can rebuild any window from an object's index alone.

use sap::prelude::*;

/// An unbounded stream over a finite base block. Object `i` has id `i`
/// (ids are arrival order, so "newer wins" ties are "higher id wins") and
/// the score of base object `i mod len`.
#[derive(Debug, Clone)]
pub struct Feed {
    base: Vec<TimedObject>,
    /// Timestamp advance per repetition of the base block.
    period: u64,
}

impl Feed {
    /// A count stream: Stock scores, timestamp = index.
    pub fn stock(len: usize, seed: u64) -> Feed {
        let base = Dataset::Stock
            .generate(len, seed)
            .into_iter()
            .enumerate()
            .map(|(i, o)| TimedObject::new(i as u64, i as u64, o.score))
            .collect();
        Feed::from_objects(base)
    }

    /// A timed stream: Stock scores with arrival times from `arrival`.
    pub fn stock_timed(len: usize, seed: u64, arrival: ArrivalProcess) -> Feed {
        Feed::from_objects(Dataset::Stock.generate_timed(len, seed, arrival))
    }

    /// A stream over explicit objects (non-decreasing timestamps); ids
    /// are replaced by arrival index.
    pub fn from_objects(base: Vec<TimedObject>) -> Feed {
        assert!(!base.is_empty(), "a feed needs objects");
        assert!(base.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        let period = base[base.len() - 1].timestamp + 1;
        Feed { base, period }
    }

    /// Length of the base block.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Object `i` of the stream.
    #[inline]
    pub fn get(&self, i: u64) -> TimedObject {
        let len = self.base.len() as u64;
        let o = self.base[(i % len) as usize];
        TimedObject::new(i, o.timestamp + (i / len) * self.period, o.score)
    }

    /// Replaces `out` with objects `start..start + n` without timestamps.
    pub fn fill(&self, start: u64, n: usize, out: &mut Vec<Object>) {
        out.clear();
        out.extend((start..start + n as u64).map(|i| self.get(i).untimed()));
    }

    /// Replaces `out` with objects `start..start + n`.
    pub fn fill_timed(&self, start: u64, n: usize, out: &mut Vec<TimedObject>) {
        out.clear();
        out.extend((start..start + n as u64).map(|i| self.get(i)));
    }

    /// Index of the first object with a timestamp at or after `t`.
    pub fn first_at(&self, t: u64) -> u64 {
        let len = self.base.len() as u64;
        let (mut lo, mut hi) = (0u64, (t / self.period + 1) * len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid).timestamp < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_with_fresh_ids_and_later_times() {
        let feed = Feed::from_objects(vec![
            TimedObject::new(9, 0, 1.0),
            TimedObject::new(9, 2, 2.0),
            TimedObject::new(9, 2, 3.0),
        ]);
        let ts: Vec<(u64, u64, f64)> = (0..6)
            .map(|i| feed.get(i))
            .map(|o| (o.id, o.timestamp, o.score))
            .collect();
        assert_eq!(
            ts,
            vec![
                (0, 0, 1.0),
                (1, 2, 2.0),
                (2, 2, 3.0),
                (3, 3, 1.0),
                (4, 5, 2.0),
                (5, 5, 3.0)
            ]
        );
        assert_eq!(feed.first_at(0), 0);
        assert_eq!(feed.first_at(1), 1);
        assert_eq!(feed.first_at(3), 3);
        assert_eq!(feed.first_at(4), 4);
        assert_eq!(feed.first_at(6), 6);
    }

    #[test]
    fn stock_feeds_are_seeded() {
        let a = Feed::stock(100, 3);
        assert_eq!(a.get(150).id, 150);
        assert_eq!(a.get(150).score, a.get(50).score);
        assert_eq!(a.get(7).score, Feed::stock(100, 3).get(7).score);
        let timed = Feed::stock_timed(100, 3, ArrivalProcess::poisson(1.0));
        assert!((0..300).all(|i| timed.get(i).timestamp <= timed.get(i + 1).timestamp));
    }
}
