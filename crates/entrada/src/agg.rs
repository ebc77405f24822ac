//! Aggregation primitives. The report sinks in `dnscentral-core` count
//! and distinct-count exactly, over dense ids of their own; what they
//! take from here is [`Cdf`], the empirical distribution behind the EDNS
//! and response sizes (Figure 6) and the dual-stack RTTs.

/// An empirical CDF over integer samples (Figure 6's EDNS sizes).
///
/// Samples are kept unsorted; every read is a pure `&self` function of
/// the sample *multiset* (a linear count, or an order statistic via
/// select-nth on a scratch copy), so report renderers can share one
/// aggregate immutably and merged partials answer identically to a
/// serially-built CDF regardless of insertion order.
#[derive(Debug, Default, Clone)]
pub struct Cdf {
    samples: Vec<u64>,
}

impl Cdf {
    /// Empty CDF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn add(&mut self, v: u64) {
        self.samples.push(v);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// P(X ≤ x).
    pub fn fraction_at_most(&self, x: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let at_most = self.samples.iter().filter(|&&s| s <= x).count();
        at_most as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), nearest-rank:
    /// `x_(⌈q·n⌉)` with 1-based ranks.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(!self.samples.is_empty(), "quantile of empty CDF");
        let n = self.samples.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        let mut scratch = self.samples.clone();
        let (_, nth, _) = scratch.select_nth_unstable(rank - 1);
        *nth
    }

    /// Median, nearest-rank.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Evaluate the CDF at each point, for plotting/reporting.
    pub fn curve(&self, points: &[u64]) -> Vec<(u64, f64)> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        points
            .iter()
            .map(|&x| {
                let frac = if sorted.is_empty() {
                    0.0
                } else {
                    sorted.partition_point(|&s| s <= x) as f64 / sorted.len() as f64
                };
                (x, frac)
            })
            .collect()
    }

    /// Merge another CDF in (sample multiset union).
    pub fn merge(&mut self, other: Cdf) {
        self.samples.extend(other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fractions_and_quantiles() {
        let mut cdf = Cdf::new();
        for v in [512u64, 512, 512, 1232, 1232, 4096, 4096, 4096, 4096, 4096] {
            cdf.add(v);
        }
        assert!((cdf.fraction_at_most(512) - 0.3).abs() < 1e-12);
        assert!((cdf.fraction_at_most(1232) - 0.5).abs() < 1e-12);
        assert!((cdf.fraction_at_most(4095) - 0.5).abs() < 1e-12);
        assert!((cdf.fraction_at_most(4096) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.fraction_at_most(100), 0.0);
        assert_eq!(cdf.median(), 1232);
        assert_eq!(cdf.quantile(0.0), 512);
        assert_eq!(cdf.quantile(1.0), 4096);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut cdf = Cdf::new();
        for i in 0..1000u64 {
            cdf.add(i * 7 % 501);
        }
        let curve = cdf.curve(&[0, 100, 200, 300, 400, 500, 600]);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "CDF must be monotone");
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_interleaved_add_and_query() {
        let mut cdf = Cdf::new();
        cdf.add(10);
        assert_eq!(cdf.fraction_at_most(10), 1.0);
        cdf.add(20);
        assert_eq!(cdf.fraction_at_most(10), 0.5, "reads see later adds");
    }

    #[test]
    fn cdf_merge_equals_serial_build() {
        let mut serial = Cdf::new();
        let mut left = Cdf::new();
        let mut right = Cdf::new();
        for i in 0..500u64 {
            let v = i * 13 % 97;
            serial.add(v);
            if i % 2 == 0 {
                left.add(v);
            } else {
                right.add(v);
            }
        }
        left.merge(right);
        assert_eq!(left.len(), serial.len());
        assert_eq!(left.median(), serial.median());
        assert_eq!(left.quantile(0.99), serial.quantile(0.99));
        assert_eq!(
            left.curve(&[0, 25, 50, 75, 100]),
            serial.curve(&[0, 25, 50, 75, 100])
        );
    }

    #[test]
    #[should_panic(expected = "quantile of empty")]
    fn empty_quantile_panics() {
        Cdf::new().quantile(0.5);
    }
}
