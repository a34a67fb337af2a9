//! Percentiles over weighted samples.
//!
//! One publish can hand the caller thousands of updates that all share a
//! latency, so a sample is a value plus the number of observations it
//! stands for. Percentiles use the nearest-rank rule over the expanded
//! observations.

/// The percentiles a summary may report, lowest first.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Observations a percentile needs beyond it before it is reported as the
/// highest supported one.
pub const TAIL_MIN: u64 = 10;

/// A bag of weighted samples.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<(f64, u64)>,
    count: u64,
    sorted: bool,
}

/// What a timing is reported as: median, p99, the highest percentile that
/// has at least [`TAIL_MIN`] observations beyond it, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub p50: f64,
    pub p99: f64,
    /// `(quantile, value)` of the highest supported percentile, if any.
    pub top: Option<(f64, f64)>,
}

impl Samples {
    /// Records `weight` observations of `value`; a zero weight is ignored.
    pub fn push(&mut self, value: f64, weight: u64) {
        if weight > 0 {
            self.values.push((value, weight));
            self.count += weight;
            self.sorted = false;
        }
    }

    /// Adds every observation of `other`.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.count += other.count;
        self.sorted = false;
    }

    /// Number of observations (sum of weights).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The nearest-rank `q`-quantile, or 0 without observations.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            self.sorted = true;
        }
        let rank = Self::rank(self.count, q);
        let mut seen = 0;
        for &(value, weight) in &self.values {
            seen += weight;
            if seen >= rank {
                return value;
            }
        }
        self.values.last().map_or(0.0, |v| v.0)
    }

    /// 1-based nearest rank of the `q`-quantile among `count` observations.
    fn rank(count: u64, q: f64) -> u64 {
        // the epsilon keeps 0.99 × 1000 from rounding up to rank 991
        (((q * count as f64) - 1e-9).ceil() as u64).clamp(1, count.max(1))
    }

    /// Median, p99 and the highest percentile of the ladder that still has
    /// [`TAIL_MIN`] observations beyond its rank.
    pub fn summary(&mut self) -> Summary {
        let top = LADDER
            .iter()
            .rev()
            .find(|&&q| self.count >= Self::rank(self.count, q) + TAIL_MIN)
            .map(|&q| (q, self.quantile(q)));
        Summary {
            count: self.count,
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            top,
        }
    }
}

/// The nearest-rank `q`-quantile of plain values, or 0 when there are
/// none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v, 1);
    }
    s.quantile(q)
}

/// Median of a slice of plain values, or 0 when it is empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `pNN` label of a quantile, e.g. `p99.9` for 0.999.
pub fn label(q: f64) -> String {
    let pct = format!("{:.2}", q * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64) -> Samples {
        let mut s = Samples::default();
        for v in 1..=n {
            s.push(v as f64, 1);
        }
        s
    }

    #[test]
    fn highest_percentile_keeps_ten_observations_beyond_it() {
        // 1000 observations: p99 has 10 beyond it, p99.9 only 1
        let sum = uniform(1000).summary();
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.top, Some((0.99, 990.0)));
        assert_eq!(sum.p50, 500.0);
        // 999 observations: p99's rank 990 leaves 9 beyond, so p90 it is
        let sum = uniform(999).summary();
        assert_eq!(sum.top.map(|t| t.0), Some(0.9));
        // 10 000 observations support p99.9
        assert_eq!(uniform(10_000).summary().top.map(|t| t.0), Some(0.999));
        // too few for any percentile
        assert_eq!(uniform(10).summary().top, None);
        assert_eq!(Samples::default().summary().count, 0);
    }

    #[test]
    fn weights_count_as_observations() {
        let mut s = Samples::default();
        s.push(5.0, 990);
        s.push(100.0, 10);
        s.push(7.0, 0);
        let sum = s.summary();
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.p50, 5.0);
        assert_eq!(sum.p99, 5.0, "rank 990 is the last weight-990 sample");
        assert_eq!(s.quantile(0.995), 100.0);
        let mut merged = Samples::default();
        merged.push(1.0, 1000);
        merged.merge(&s);
        assert_eq!(merged.count(), 2000);
        assert_eq!(merged.quantile(0.25), 1.0);
        assert_eq!(merged.quantile(0.999), 100.0);
    }

    #[test]
    fn labels_and_median() {
        assert_eq!(label(0.5), "p50");
        assert_eq!(label(0.999), "p99.9");
        assert_eq!(label(0.9999), "p99.99");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.75), 3.0);
    }
}
