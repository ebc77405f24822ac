//! The micro-bench runner and the machine-readable `BENCH_*.json`
//! report it feeds.
//!
//! Every `dnscentral bench` run produces a [`BenchReport`] — per
//! scenario: warmed-up, outlier-trimmed ns/op (mean/p50/p99 plus the
//! raw min/max envelope), derived records/s, and allocs/op when the
//! counting allocator is installed (see [`crate::alloc`]). Reports
//! serialize to `BENCH_<gitsha-or-date>.json`.
//!
//! The runner is std-only; serialization uses the vendored serde shims
//! the rest of the workspace already depends on.

use crate::alloc as alloctrack;
use serde::Serialize;
use std::path::Path;
use std::time::{Duration, Instant};

/// Current `BENCH_*.json` schema version.
pub const SCHEMA_VERSION: u32 = 1;

/// One benchmarked scenario's measurements. Times are nanoseconds per
/// operation; the mean is outlier-trimmed (top/bottom decile of sample
/// means dropped), min/max are the untrimmed envelope.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Full scenario name, e.g. `ablation/lpm_trie`.
    pub name: String,
    /// Scenario group, e.g. `ablation`.
    pub group: String,
    /// Total timed iterations across all samples.
    pub iters: u64,
    /// Outlier-trimmed mean ns/op.
    pub ns_per_op: f64,
    /// Median sample ns/op.
    pub p50_ns: f64,
    /// 99th-percentile sample ns/op.
    pub p99_ns: f64,
    /// Fastest sample ns/op (envelope floor).
    pub min_ns: f64,
    /// Slowest sample ns/op (envelope ceiling).
    pub max_ns: f64,
    /// Records one iteration processes (0 when not meaningful).
    pub records_per_iter: u64,
    /// Derived throughput, when `records_per_iter > 0`.
    pub records_per_sec: Option<f64>,
    /// Mean allocation events per op, on every thread of the process;
    /// `None` when the counting allocator is not installed.
    pub allocs_per_op: Option<f64>,
    /// Mean allocated bytes per op; `None` without the allocator.
    pub alloc_bytes_per_op: Option<f64>,
    /// Hottest frames from a per-scenario CPU profile; `None` unless
    /// the run was invoked with `--profile`.
    pub hot_frames: Option<Vec<crate::prof::HotFrame>>,
}

/// A full benchmark run, as serialized to `BENCH_<label>.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Run label: short git sha when available, else a UTC date.
    pub label: String,
    /// True when the run used the reduced `--quick` settings.
    pub quick: bool,
    /// Cores available to the run (`None` when the platform cannot
    /// tell): rows taken at different core counts do not compare.
    pub cores: Option<usize>,
    /// Per-scenario measurements, in run order.
    pub scenarios: Vec<ScenarioReport>,
}

impl BenchReport {
    /// An empty report for `label`.
    pub fn new(label: impl Into<String>, quick: bool) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            label: label.into(),
            quick,
            cores: std::thread::available_parallelism().ok().map(|n| n.get()),
            scenarios: Vec::new(),
        }
    }

    /// Pretty JSON for `BENCH_*.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Write the report as pretty JSON to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Human-readable results table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{:<40} {:>12} {:>12} {:>12} {:>12} {:>10}",
            "scenario", "ns/op", "p50", "p99", "records/s", "allocs/op"
        )
        .expect("string write");
        for s in &self.scenarios {
            writeln!(
                out,
                "{:<40} {:>12} {:>12} {:>12} {:>12} {:>10}",
                s.name,
                human_ns(s.ns_per_op),
                human_ns(s.p50_ns),
                human_ns(s.p99_ns),
                s.records_per_sec
                    .map(human_count)
                    .unwrap_or_else(|| "-".into()),
                s.allocs_per_op
                    .map(|a| format!("{a:.1}"))
                    .unwrap_or_else(|| "-".into()),
            )
            .expect("string write");
        }
        out
    }
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn human_count(n: f64) -> String {
    if n >= 1e9 {
        format!("{:.2}G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.2}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.1}k", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}

/// Measurement settings: warmup duration, sample count, and the total
/// timed budget a scenario may spend.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    /// Untimed warmup budget (also calibrates the batch size).
    pub warmup: Duration,
    /// Number of timed samples (each a batch of iterations). Reduced
    /// automatically for scenarios whose single iteration exceeds the
    /// per-sample budget, never below 3.
    pub samples: usize,
    /// Total timed budget across all samples.
    pub measure: Duration,
}

impl Runner {
    /// Reduced settings: the whole scenario registry finishes in well
    /// under a minute.
    pub fn quick() -> Runner {
        Runner {
            warmup: Duration::from_millis(100),
            samples: 10,
            measure: Duration::from_millis(600),
        }
    }

    /// Default settings for trustworthy local numbers.
    pub fn full() -> Runner {
        Runner {
            warmup: Duration::from_millis(300),
            samples: 30,
            measure: Duration::from_secs(2),
        }
    }

    /// Benchmark one scenario: warm up, calibrate a batch size, take
    /// timed samples, and reduce them to a [`ScenarioReport`].
    ///
    /// `f` performs one operation and returns a value the runner sinks
    /// through [`std::hint::black_box`] so the work cannot be elided.
    pub fn run(
        &self,
        name: &str,
        group: &str,
        records_per_iter: u64,
        f: &mut dyn FnMut() -> u64,
    ) -> ScenarioReport {
        // Warmup + calibration: at least one iteration, then as many as
        // fit the warmup budget.
        let mut sink = 0u64;
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            sink = sink.wrapping_add(f());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }
        let est_per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Slow scenarios get fewer samples rather than a blown budget.
        let budget = self.measure.as_secs_f64();
        let samples = if est_per_iter * self.samples as f64 > budget {
            ((budget / est_per_iter) as usize).clamp(3, self.samples)
        } else {
            self.samples
        };
        let per_sample = budget / samples as f64;
        let batch = ((per_sample / est_per_iter) as u64).max(1);

        let mut sample_ns: Vec<f64> = Vec::with_capacity(samples);
        let track = alloctrack::installed();
        // process-wide totals, not the calling thread's counters: a
        // scenario's worker threads allocate too, and the bench process
        // runs one scenario at a time
        let (allocs0, bytes0) = alloctrack::totals();
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                sink = sink.wrapping_add(f());
            }
            sample_ns.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
        let (allocs1, bytes1) = alloctrack::totals();
        std::hint::black_box(sink);
        let iters = samples as u64 * batch;

        let mut sorted = sample_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let trim = sorted.len() / 10;
        let kept = &sorted[trim..sorted.len() - trim];
        let mean = kept.iter().sum::<f64>() / kept.len() as f64;
        let pct = |q: f64| -> f64 {
            let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };

        ScenarioReport {
            name: name.to_string(),
            group: group.to_string(),
            iters,
            ns_per_op: mean,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            min_ns: sorted[0],
            max_ns: sorted[sorted.len() - 1],
            records_per_iter,
            records_per_sec: (records_per_iter > 0 && mean > 0.0)
                .then(|| records_per_iter as f64 / (mean / 1e9)),
            allocs_per_op: track.then(|| (allocs1 - allocs0) as f64 / iters as f64),
            alloc_bytes_per_op: track.then(|| (bytes1 - bytes0) as f64 / iters as f64),
            hot_frames: None,
        }
    }
}

/// A label for the BENCH file: the short git commit sha when a `git`
/// binary and repository are reachable, otherwise today's UTC date as
/// `YYYYMMDD` (bench results are a trajectory; the label orders them).
pub fn default_label() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}{m:02}{d:02}")
}

/// Days-since-epoch to (year, month, day), civil Gregorian calendar
/// (Howard Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(scenarios: Vec<ScenarioReport>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            label: "test".into(),
            quick: true,
            cores: Some(2),
            scenarios,
        }
    }

    fn scenario(name: &str, mean: f64, min: f64, max: f64) -> ScenarioReport {
        ScenarioReport {
            name: name.into(),
            group: "g".into(),
            iters: 100,
            ns_per_op: mean,
            p50_ns: mean,
            p99_ns: max,
            min_ns: min,
            max_ns: max,
            records_per_iter: 10,
            records_per_sec: Some(10.0 / (mean / 1e9)),
            allocs_per_op: None,
            alloc_bytes_per_op: None,
            hot_frames: None,
        }
    }

    #[test]
    fn runner_measures_a_trivial_op() {
        let runner = Runner {
            warmup: Duration::from_millis(5),
            samples: 5,
            measure: Duration::from_millis(20),
        };
        let mut x = 0u64;
        let r = runner.run("test/noop", "test", 7, &mut || {
            x = x.wrapping_add(1);
            x
        });
        assert!(r.iters > 0);
        assert!(r.ns_per_op > 0.0);
        assert!(r.min_ns <= r.ns_per_op && r.ns_per_op <= r.max_ns);
        assert!(r.p50_ns <= r.p99_ns);
        assert_eq!(r.records_per_iter, 7);
        let thrpt = r.records_per_sec.expect("records/s derives");
        assert!(thrpt > 0.0);
        // allocator not installed in this test binary
        assert_eq!(r.allocs_per_op, None);
    }

    #[test]
    fn runner_shrinks_samples_for_slow_scenarios() {
        let runner = Runner {
            warmup: Duration::from_millis(1),
            samples: 10,
            measure: Duration::from_millis(30),
        };
        let r = runner.run("test/slow", "test", 0, &mut || {
            std::thread::sleep(Duration::from_millis(10));
            1
        });
        // 10ms/iter under a 30ms budget: 3 samples of batch 1
        assert_eq!(r.iters, 3, "{r:?}");
        assert_eq!(r.records_per_sec, None);
    }

    #[test]
    fn render_table_lists_scenarios() {
        let r = report_with(vec![scenario("wire/x", 1234.0, 1000.0, 2000.0)]);
        let text = r.render_table();
        assert!(text.contains("wire/x"), "{text}");
        assert!(text.contains("ns/op"), "{text}");
        assert!(text.contains("1.23us"), "{text}");
    }

    #[test]
    fn civil_date_conversion() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        // leap day
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }

    #[test]
    fn default_label_is_nonempty() {
        assert!(!default_label().is_empty());
    }
}
