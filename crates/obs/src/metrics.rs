//! Lock-free metrics: counters, gauges, log-linear histograms, and the
//! registry that names them.
//!
//! Hot-path discipline: recording is always a `fetch_add(Relaxed)` (two
//! for histograms, which also track the sum) on pre-fetched `Arc`
//! handles — the registry's `RwLock` is touched only at registration
//! and render time, never per sample.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter (unregistered; see [`Registry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest `f64` sample (stored as bits).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replace the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is greater (monotonic max — used
    /// for high-water marks like queue peaks).
    #[inline]
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while f64::from_bits(cur) < v {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// How much busy/idle time a [`Utilization`] accumulates before it
/// publishes a fresh busy fraction and starts a new window.
const UTILIZATION_WINDOW: Duration = Duration::from_millis(500);

/// Windowed busy-fraction accounting for a worker loop.
///
/// The worker attributes each loop iteration to [`Utilization::busy`]
/// (did real work) or [`Utilization::idle`] (poll timeout, empty
/// channel); once a window's worth of wall time has accumulated, the
/// fraction is published to the gauge as a permille (0..=1000) and the
/// window restarts — so the flight recorder's periodic samples see
/// *recent* utilization, not a lifetime average that stops moving.
/// Dropping flushes a partial window so short-lived workers report too.
pub struct Utilization {
    gauge: Arc<Gauge>,
    busy: Duration,
    idle: Duration,
}

impl Utilization {
    /// Track busy fraction into `gauge` (conventionally named
    /// `*_busy_permille`).
    pub fn new(gauge: Arc<Gauge>) -> Utilization {
        Utilization {
            gauge,
            busy: Duration::ZERO,
            idle: Duration::ZERO,
        }
    }

    /// Attribute `d` of wall time to useful work.
    #[inline]
    pub fn busy(&mut self, d: Duration) {
        self.busy += d;
        self.maybe_flush();
    }

    /// Attribute `d` of wall time to waiting for work.
    #[inline]
    pub fn idle(&mut self, d: Duration) {
        self.idle += d;
        self.maybe_flush();
    }

    fn maybe_flush(&mut self) {
        if self.busy + self.idle >= UTILIZATION_WINDOW {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let total = self.busy + self.idle;
        if total.is_zero() {
            return;
        }
        let permille = self.busy.as_secs_f64() / total.as_secs_f64() * 1000.0;
        self.gauge.set(permille.round());
        self.busy = Duration::ZERO;
        self.idle = Duration::ZERO;
    }
}

impl Drop for Utilization {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per octave, bounding the
/// relative quantile error at 1/16 (±6.25%) above the linear region.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave group.
const SUBS: usize = 1 << SUB_BITS;
/// Bucket groups: group 0 is exact 0..8; group g ≥ 1 covers
/// `[8 << (g-1), 16 << (g-1))` with width `1 << (g-1)` each. 40 groups
/// span microseconds to ~50 days.
const GROUPS: usize = 40;
/// Total atomic buckets per histogram.
const BUCKETS: usize = GROUPS * SUBS;

/// A log-linear histogram with atomic buckets.
///
/// Values 0..7 get exact buckets; above that each power-of-two octave
/// is split into 8 linear sub-buckets, so any recorded value lands in a
/// bucket no wider than 1/8 of its magnitude. Quantiles report the
/// bucket *midpoint* (not the upper bound), keeping the estimate within
/// ±6.25% of the true sample — unlike a pure log2 histogram, whose
/// upper-bound reporting is biased high by up to 2×.
pub struct Histogram {
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Bucket index for a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // ≥ SUB_BITS
    let group = octave - SUB_BITS as usize + 1;
    if group >= GROUPS {
        return BUCKETS - 1;
    }
    let sub = ((v >> (octave - SUB_BITS as usize)) & (SUBS as u64 - 1)) as usize;
    group * SUBS + sub
}

/// `(lower_bound, width)` of bucket `i`; the bucket covers the integer
/// values `lower .. lower + width`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let g = i / SUBS;
    let s = (i % SUBS) as u64;
    if g == 0 {
        (s, 1)
    } else {
        let w = 1u64 << (g - 1);
        ((SUBS as u64 + s) * w, w)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Midpoint of the bucket holding quantile `q` in `0..=1`, or 0
    /// when empty. Within ±6.25% of the true sample value.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let (lower, width) = bucket_bounds(i);
                return lower + (width - 1) / 2;
            }
        }
        let (lower, width) = bucket_bounds(BUCKETS - 1);
        lower + (width - 1) / 2
    }

    /// Fold every sample of `other` into `self` (bucket-wise atomic
    /// adds), preserving total count and sum. `other` is unchanged;
    /// used to combine per-shard histograms into a run-wide one.
    pub fn merge(&self, other: &Histogram) {
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// The occupied buckets as `(inclusive_upper_bound, cumulative
    /// count)` pairs in ascending bound order — the Prometheus
    /// `_bucket{le=...}` series without the trailing `+Inf` (that one
    /// is just [`Histogram::count`]). Buckets that change nothing
    /// (zero occupancy) are skipped, so the exposition stays sparse.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                let (lower, width) = bucket_bounds(i);
                out.push((lower + width - 1, cum));
            }
        }
        out
    }
}

/// One metric's value at a point in time, as enumerated by
/// [`Registry::sample`] — the read-side unit the flight recorder
/// ([`crate::flight`]) keeps, one snapshot per tick.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's count, sum, and p50/p90/p99/p999 quantiles.
    Histogram {
        /// Total samples recorded.
        count: u64,
        /// Sum of all recorded samples.
        sum: u64,
        /// The p50, p90, p99 and p999 bucket midpoints.
        quantiles: [u64; 4],
    },
}

/// One named metric slot.
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    help: String,
    slot: Slot,
}

/// A named collection of metrics; [`Registry::global`] is the
/// process-wide instance everything registers into by default.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<HashMap<String, Entry>>,
}

impl Registry {
    /// A fresh empty registry (tests; production code uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or register a counter under `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        if let Some(Entry {
            slot: Slot::Counter(c),
            ..
        }) = self.entries.read().expect("registry lock").get(name)
        {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        self.insert(name, help, Slot::Counter(Arc::clone(&c)));
        c
    }

    /// Get or register a gauge under `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        if let Some(Entry {
            slot: Slot::Gauge(g),
            ..
        }) = self.entries.read().expect("registry lock").get(name)
        {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        self.insert(name, help, Slot::Gauge(Arc::clone(&g)));
        g
    }

    /// Get or register a histogram under `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        if let Some(Entry {
            slot: Slot::Histogram(h),
            ..
        }) = self.entries.read().expect("registry lock").get(name)
        {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        self.insert(name, help, Slot::Histogram(Arc::clone(&h)));
        h
    }

    /// Expose an externally owned counter under `name`, replacing any
    /// previous occupant (a restarted subsystem re-publishes its own
    /// live handles).
    pub fn publish_counter(&self, name: &str, help: &str, handle: Arc<Counter>) {
        self.insert(name, help, Slot::Counter(handle));
    }

    /// Expose an externally owned histogram under `name` (see
    /// [`Registry::publish_counter`]).
    pub fn publish_histogram(&self, name: &str, help: &str, handle: Arc<Histogram>) {
        self.insert(name, help, Slot::Histogram(handle));
    }

    fn insert(&self, name: &str, help: &str, slot: Slot) {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !name.starts_with(|c: char| c.is_ascii_digit()),
            "invalid metric name {name:?}"
        );
        self.entries.write().expect("registry lock").insert(
            name.to_string(),
            Entry {
                help: help.to_string(),
                slot,
            },
        );
    }

    /// Render every metric in Prometheus text exposition format
    /// (version 0.0.4), names sorted for deterministic output.
    /// Histograms render both the legacy summary series (quantile
    /// gauges + `_sum`/`_count`) and a true cumulative histogram: one
    /// sparse `{name}_hist_bucket{le="..."}` series over the occupied
    /// log-linear buckets plus `+Inf`, so external scrapers can compute
    /// their own quantiles.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let entries = self.entries.read().expect("registry lock");
        let mut names: Vec<&String> = entries.keys().collect();
        names.sort();
        let mut out = String::new();
        for name in names {
            let entry = &entries[name];
            if !entry.help.is_empty() {
                writeln!(out, "# HELP {name} {}", entry.help).expect("string write");
            }
            match &entry.slot {
                Slot::Counter(c) => {
                    writeln!(out, "# TYPE {name} counter").expect("string write");
                    writeln!(out, "{name} {}", c.get()).expect("string write");
                }
                Slot::Gauge(g) => {
                    writeln!(out, "# TYPE {name} gauge").expect("string write");
                    writeln!(out, "{name} {}", g.get()).expect("string write");
                }
                Slot::Histogram(h) => {
                    writeln!(out, "# TYPE {name} summary").expect("string write");
                    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)]
                    {
                        writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q))
                            .expect("string write");
                    }
                    writeln!(out, "{name}_sum {}", h.sum()).expect("string write");
                    writeln!(out, "{name}_count {}", h.count()).expect("string write");
                    // the same buckets as a proper Prometheus histogram
                    // family (kept distinct from the summary above — one
                    // name cannot carry two TYPEs)
                    writeln!(out, "# TYPE {name}_hist histogram").expect("string write");
                    for (le, cum) in h.cumulative_buckets() {
                        writeln!(out, "{name}_hist_bucket{{le=\"{le}\"}} {cum}")
                            .expect("string write");
                    }
                    writeln!(out, "{name}_hist_bucket{{le=\"+Inf\"}} {}", h.count())
                        .expect("string write");
                    writeln!(out, "{name}_hist_sum {}", h.sum()).expect("string write");
                    writeln!(out, "{name}_hist_count {}", h.count()).expect("string write");
                }
            }
        }
        out
    }

    /// Snapshot every registered metric as `(name, value)` pairs in
    /// name order — the flight recorder's per-tick read. Histograms
    /// collapse to count/sum/quantiles so a tick's cost is independent
    /// of sample volume.
    pub fn sample(&self) -> Vec<(String, SampleValue)> {
        let entries = self.entries.read().expect("registry lock");
        let mut out: Vec<(String, SampleValue)> = entries
            .iter()
            .map(|(name, entry)| {
                let value = match &entry.slot {
                    Slot::Counter(c) => SampleValue::Counter(c.get()),
                    Slot::Gauge(g) => SampleValue::Gauge(g.get()),
                    Slot::Histogram(h) => SampleValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        quantiles: [
                            h.quantile(0.5),
                            h.quantile(0.9),
                            h.quantile(0.99),
                            h.quantile(0.999),
                        ],
                    },
                };
                (name.clone(), value)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Get or register a counter in the global registry.
pub fn counter(name: &str, help: &str) -> Arc<Counter> {
    Registry::global().counter(name, help)
}

/// Get or register a gauge in the global registry.
pub fn gauge(name: &str, help: &str) -> Arc<Gauge> {
    Registry::global().gauge(name, help)
}

/// Get or register a histogram in the global registry.
pub fn histogram(name: &str, help: &str) -> Arc<Histogram> {
    Registry::global().histogram(name, help)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(2.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
        g.set(-1.0);
        assert!((g.get() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn gauge_set_max_is_monotonic() {
        let g = Gauge::new();
        g.set_max(3.0);
        g.set_max(1.0);
        assert!((g.get() - 3.0).abs() < 1e-12);
        g.set_max(7.5);
        assert!((g.get() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_publishes_busy_permille() {
        let g = Arc::new(Gauge::new());
        let mut u = Utilization::new(Arc::clone(&g));
        u.busy(Duration::from_millis(300));
        u.idle(Duration::from_millis(100));
        // window (400ms) not yet full: nothing published
        assert_eq!(g.get(), 0.0);
        u.idle(Duration::from_millis(100));
        // 300ms busy of 500ms total → 600 permille
        assert!((g.get() - 600.0).abs() < 1.0, "got {}", g.get());
        // drop flushes a partial window
        u.busy(Duration::from_millis(100));
        drop(u);
        assert!((g.get() - 1000.0).abs() < 1.0, "got {}", g.get());
    }

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            // the value lands inside its bucket's bounds
            let (lower, width) = bucket_bounds(i);
            assert!(
                v >= lower && v < lower + width,
                "{v} outside bucket {i}: [{lower}, {})",
                lower + width
            );
            last = i;
        }
    }

    #[test]
    fn quantiles_on_constant_distribution() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(100);
        }
        for q in [0.01, 0.5, 0.99, 1.0] {
            let est = h.quantile(q) as f64;
            assert!((est - 100.0).abs() / 100.0 <= 0.0625, "q{q}: {est} vs 100");
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 100_000);
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        // 1..=10_000 once each: true quantile q is ~q*10_000
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, truth) in [(0.25, 2500.0), (0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let est = h.quantile(q) as f64;
            let rel = (est - truth).abs() / truth;
            assert!(rel <= 0.07, "q{q}: {est} vs {truth} (rel {rel:.4})");
        }
    }

    #[test]
    fn quantiles_not_biased_high() {
        // A pure log2 histogram reporting upper bounds would put every
        // 100µs sample at 128; midpoint reporting must stay below that
        // and within the sub-bucket of the sample.
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000); // far-tail outlier
        let p50 = h.quantile(0.5);
        assert!((94..=106).contains(&p50), "p50 {p50} not ≈100");
        let p99 = h.quantile(0.99);
        assert!(p99 < 128, "p99 {p99} leaked the log2 upper-bound bias");
        assert!(h.quantile(1.0) >= 900_000, "max reaches the outlier");
    }

    #[test]
    fn quantiles_on_bimodal_distribution() {
        let h = Histogram::new();
        for _ in 0..900 {
            h.record(50);
        }
        for _ in 0..100 {
            h.record(5_000);
        }
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 50.0).abs() / 50.0 <= 0.0625, "p50 {p50}");
        let p95 = h.quantile(0.95) as f64;
        assert!((p95 - 5000.0).abs() / 5000.0 <= 0.0625, "p95 {p95}");
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        h.record(u64::MAX); // clamps to the last bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) > 1u64 << 40);
    }

    #[test]
    fn top_bucket_saturation_keeps_quantiles_monotone() {
        // u64::MAX (and everything past the last group) saturates into
        // the final bucket without panicking or wrapping
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 4);
        // quantile estimates never decrease as q increases
        let grid: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        for w in grid.windows(2) {
            assert!(w[0] <= w[1], "quantiles regressed: {grid:?}");
        }
        assert_eq!(h.quantile(0.0), 0);
        let top = h.quantile(1.0);
        let (lower, width) = bucket_bounds(BUCKETS - 1);
        assert_eq!(top, lower + (width - 1) / 2, "top sample in last bucket");
    }

    #[test]
    fn merge_preserves_count_sum_and_quantile_bounds() {
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..600 {
            a.record(100);
        }
        for _ in 0..400 {
            b.record(10_000);
        }
        let (ca, cb) = (a.count(), b.count());
        let (sa, sb) = (a.sum(), b.sum());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb, "merged count is the sum");
        assert_eq!(a.sum(), sa + sb, "merged sum is the sum");
        // b is untouched
        assert_eq!(b.count(), cb);
        assert_eq!(b.sum(), sb);
        // quantiles of the merge stay within the inputs' bounds and
        // reflect the mixture: p50 near the low mode (600/1000 below),
        // p90 near the high mode
        let p50 = a.quantile(0.5) as f64;
        assert!((p50 - 100.0).abs() / 100.0 <= 0.0625, "p50 {p50}");
        let p90 = a.quantile(0.9) as f64;
        assert!((p90 - 10_000.0).abs() / 10_000.0 <= 0.0625, "p90 {p90}");
        // extremes bounded by the inputs' extremes
        assert!(a.quantile(0.0) >= 94 && a.quantile(1.0) <= 10_625);
        // merging an empty histogram is a no-op
        let before = (a.count(), a.sum(), a.quantile(0.5));
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.sum(), a.quantile(0.5)), before);
    }

    #[test]
    fn registry_get_or_register_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("obs_test_total", "a test counter");
        let b = r.counter("obs_test_total", "ignored on re-register");
        a.add(3);
        assert_eq!(b.get(), 3, "same underlying counter");
    }

    #[test]
    fn publish_replaces_previous_handle() {
        let r = Registry::new();
        let old = Arc::new(Counter::new());
        old.add(7);
        r.publish_counter("obs_replaced_total", "h", Arc::clone(&old));
        let new = Arc::new(Counter::new());
        new.add(1);
        r.publish_counter("obs_replaced_total", "h", Arc::clone(&new));
        let text = r.render_prometheus();
        assert!(text.contains("obs_replaced_total 1"), "{text}");
    }

    #[test]
    fn prometheus_exposition_golden() {
        let r = Registry::new();
        r.counter("demo_queries_total", "queries handled").add(123);
        r.gauge("demo_qps", "current rate").set(42.5);
        let h = r.histogram("demo_latency_us", "latency in microseconds");
        for _ in 0..100 {
            h.record(100);
        }
        let expected = "\
# HELP demo_latency_us latency in microseconds
# TYPE demo_latency_us summary
demo_latency_us{quantile=\"0.5\"} 99
demo_latency_us{quantile=\"0.9\"} 99
demo_latency_us{quantile=\"0.99\"} 99
demo_latency_us{quantile=\"0.999\"} 99
demo_latency_us_sum 10000
demo_latency_us_count 100
# TYPE demo_latency_us_hist histogram
demo_latency_us_hist_bucket{le=\"103\"} 100
demo_latency_us_hist_bucket{le=\"+Inf\"} 100
demo_latency_us_hist_sum 10000
demo_latency_us_hist_count 100
# HELP demo_qps current rate
# TYPE demo_qps gauge
demo_qps 42.5
# HELP demo_queries_total queries handled
# TYPE demo_queries_total counter
demo_queries_total 123
";
        assert_eq!(r.render_prometheus(), expected);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_cover_count() {
        let h = Histogram::new();
        for v in [3u64, 3, 100, 100, 100, 5_000] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 3, "three distinct buckets occupied");
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds ascend: {buckets:?}");
            assert!(w[0].1 < w[1].1, "cumulative counts ascend: {buckets:?}");
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
        // every recorded value is <= the bound of the bucket it fell in
        assert!(buckets[0].0 >= 3 && buckets[1].0 >= 100 && buckets[2].0 >= 5_000);
    }

    #[test]
    fn registry_sample_enumerates_every_kind_in_name_order() {
        let r = Registry::new();
        r.counter("s_total", "c").add(7);
        r.gauge("a_qps", "g").set(1.5);
        let h = r.histogram("m_lat", "h");
        h.record(10);
        h.record(1000);
        let snap = r.sample();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_qps", "m_lat", "s_total"], "sorted by name");
        assert_eq!(snap[2].1, SampleValue::Counter(7));
        assert_eq!(snap[0].1, SampleValue::Gauge(1.5));
        match &snap[1].1 {
            SampleValue::Histogram {
                count,
                sum,
                quantiles,
            } => {
                assert_eq!(*count, 2);
                assert_eq!(*sum, 1010);
                assert!(quantiles[0] <= quantiles[3], "quantiles monotone");
            }
            other => panic!("expected histogram sample, got {other:?}"),
        }
    }
}
