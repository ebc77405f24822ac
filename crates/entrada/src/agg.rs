//! Aggregation primitives: counters, distinct counting (exact and
//! HyperLogLog), CDFs and top-k — the operators behind every table and
//! figure in the paper.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// A grouped counter: `K -> u64` with ratio helpers.
#[derive(Debug, Clone)]
pub struct Counter<K: Eq + Hash> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash> Default for Counter<K> {
    fn default() -> Self {
        Counter {
            counts: HashMap::new(),
            total: 0,
        }
    }
}

impl<K: Eq + Hash> Counter<K> {
    /// Empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to `key`.
    pub fn add(&mut self, key: K, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Increment `key` by one.
    pub fn incr(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Count for `key` (0 when absent).
    pub fn get<Q>(&self, key: &Q) -> u64
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Sum over all keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `count(key) / total`, or 0 on an empty counter.
    pub fn ratio<Q>(&self, key: &Q) -> f64
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        if self.total == 0 {
            0.0
        } else {
            self.get(key) as f64 / self.total as f64
        }
    }

    /// Number of distinct keys.
    pub fn keys(&self) -> usize {
        self.counts.len()
    }

    /// Iterate `(key, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &v)| (k, v))
    }

    /// Merge another counter in.
    pub fn merge(&mut self, other: Counter<K>) {
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        self.total += other.total;
    }
}

impl<K: Eq + Hash + Clone + Ord> Counter<K> {
    /// The `k` heaviest keys, descending, ties broken by key order.
    pub fn top_k(&self, k: usize) -> Vec<(K, u64)> {
        let mut all: Vec<(K, u64)> = self.counts.iter().map(|(k, &v)| (k.clone(), v)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Exact distinct counting (a `HashSet` under the hood) — the reference
/// for the HyperLogLog ablation.
#[derive(Debug, Clone)]
pub struct DistinctCounter<K: Eq + Hash> {
    seen: HashSet<K>,
}

impl<K: Eq + Hash> Default for DistinctCounter<K> {
    fn default() -> Self {
        DistinctCounter {
            seen: HashSet::new(),
        }
    }
}

impl<K: Eq + Hash> DistinctCounter<K> {
    /// Empty counter.
    pub fn new() -> Self {
        DistinctCounter {
            seen: HashSet::new(),
        }
    }

    /// Observe a value; returns true the first time.
    pub fn observe(&mut self, key: K) -> bool {
        self.seen.insert(key)
    }

    /// Distinct values observed.
    pub fn count(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Membership check.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.seen.contains(key)
    }

    /// Merge another counter in (set union).
    pub fn merge(&mut self, other: DistinctCounter<K>) {
        if self.seen.len() < other.seen.len() {
            let mut bigger = other.seen;
            bigger.extend(self.seen.drain());
            self.seen = bigger;
        } else {
            self.seen.extend(other.seen);
        }
    }
}

/// HyperLogLog with 2^P registers: constant-memory distinct counting,
/// ~1.04/sqrt(2^P) relative error. P=12 ⇒ 4096 registers, ~1.6% error —
/// the sketch a production warehouse would use for the paper's
/// millions-of-resolvers counts (Table 3).
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    registers: Vec<u8>,
    p: u8,
}

impl Default for HyperLogLog {
    fn default() -> Self {
        HyperLogLog::new(12)
    }
}

impl HyperLogLog {
    /// Build with 2^p registers (4 ≤ p ≤ 16).
    pub fn new(p: u8) -> Self {
        assert!((4..=16).contains(&p), "p out of range");
        HyperLogLog {
            registers: vec![0; 1 << p],
            p,
        }
    }

    /// Observe a hashable value.
    pub fn observe<T: Hash>(&mut self, value: &T) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        let h = hasher.finish();
        let idx = (h >> (64 - self.p)) as usize;
        let rest = h << self.p;
        let rank = (rest.leading_zeros() as u8 + 1).min(64 - self.p + 1);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimate the distinct count.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            // small-range correction (linear counting)
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros != 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Merge another sketch (register-wise max).
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.p, other.p, "precision mismatch");
        for (a, b) in self.registers.iter_mut().zip(other.registers.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Memory used by the registers, bytes.
    pub fn memory_bytes(&self) -> usize {
        self.registers.len()
    }
}

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
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr("a");
        c.incr("a");
        c.add("b", 3);
        assert_eq!(c.get("a"), 2);
        assert_eq!(c.get("b"), 3);
        assert_eq!(c.get("zzz"), 0);
        assert_eq!(c.total(), 5);
        assert!((c.ratio("a") - 0.4).abs() < 1e-12);
        assert_eq!(c.keys(), 2);
    }

    #[test]
    fn counter_merge_and_topk() {
        let mut a = Counter::new();
        a.add("x", 5);
        a.add("y", 1);
        let mut b = Counter::new();
        b.add("y", 10);
        b.add("z", 3);
        a.merge(b);
        assert_eq!(a.total(), 19);
        assert_eq!(a.top_k(2), vec![("y", 11), ("x", 5)]);
        assert_eq!(a.top_k(10).len(), 3);
    }

    #[test]
    fn topk_tie_break_is_deterministic() {
        let mut c = Counter::new();
        c.add("b", 2);
        c.add("a", 2);
        assert_eq!(c.top_k(2), vec![("a", 2), ("b", 2)]);
    }

    #[test]
    fn empty_counter_ratio_is_zero() {
        let c: Counter<&str> = Counter::new();
        assert_eq!(c.ratio("a"), 0.0);
    }

    #[test]
    fn distinct_counter() {
        let mut d = DistinctCounter::new();
        assert!(d.observe("1.2.3.4"));
        assert!(!d.observe("1.2.3.4"));
        assert!(d.observe("1.2.3.5"));
        assert_eq!(d.count(), 2);
        assert!(d.contains("1.2.3.4"));
    }

    #[test]
    fn hll_accuracy_within_bounds() {
        let mut hll = HyperLogLog::new(12);
        let n = 100_000u64;
        for i in 0..n {
            hll.observe(&i);
        }
        let est = hll.estimate();
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.05, "error {err} (est {est})");
    }

    #[test]
    fn hll_small_range_is_nearly_exact() {
        let mut hll = HyperLogLog::new(12);
        for i in 0..50u64 {
            hll.observe(&i);
        }
        let est = hll.estimate();
        assert!((est - 50.0).abs() < 5.0, "est {est}");
    }

    #[test]
    fn hll_merge_equals_union() {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        let mut union = HyperLogLog::new(10);
        for i in 0..5000u64 {
            a.observe(&i);
            union.observe(&i);
        }
        for i in 2500..7500u64 {
            b.observe(&i);
            union.observe(&i);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), union.estimate());
    }

    #[test]
    fn hll_duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(12);
        for _ in 0..10_000 {
            hll.observe(&"same");
        }
        assert!(hll.estimate() < 3.0);
    }

    #[test]
    fn hll_memory_is_constant() {
        assert_eq!(HyperLogLog::new(12).memory_bytes(), 4096);
    }

    #[test]
    #[should_panic(expected = "precision mismatch")]
    fn hll_merge_precision_mismatch_panics() {
        HyperLogLog::new(10).merge(&HyperLogLog::new(12));
    }

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
    fn distinct_counter_merge_is_union() {
        let mut a = DistinctCounter::new();
        let mut b = DistinctCounter::new();
        for i in 0..10u32 {
            a.observe(i);
        }
        for i in 5..15u32 {
            b.observe(i);
        }
        a.merge(b);
        assert_eq!(a.count(), 15);
        assert!(a.contains(&14));
    }

    #[test]
    #[should_panic(expected = "quantile of empty")]
    fn empty_quantile_panics() {
        Cdf::new().quantile(0.5);
    }
}
