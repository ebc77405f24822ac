//! Per-stage pipeline accounting and throttled progress reporting.
//!
//! Every instrumented pipeline stage (simnet generation, entrada
//! ingest, the analysis passes, report rendering) opens a [`StageTimer`]
//! around its work and sets the number of items it processed; the
//! global table accumulates wall time and throughput per stage across
//! the whole run and renders as the `--stats` summary table.
//!
//! [`Progress`] emits throttled `records/s` + ETA lines to stderr for
//! long `report`-scale runs; it is silent unless [`set_progress`] was
//! called (the CLI ties it to `--stats`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

#[derive(Default, Clone)]
struct StageAgg {
    calls: u64,
    total: Duration,
    items: u64,
}

fn table() -> &'static Mutex<HashMap<String, StageAgg>> {
    static TABLE: OnceLock<Mutex<HashMap<String, StageAgg>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Times one stage invocation; records duration + item count into the
/// global stage table (and a trace span) on drop.
pub struct StageTimer {
    name: std::borrow::Cow<'static, str>,
    started: Instant,
    items: u64,
    span: crate::trace::Span,
}

/// Open a stage timer named `name`.
pub fn stage(name: &'static str) -> StageTimer {
    StageTimer {
        name: std::borrow::Cow::Borrowed(name),
        started: Instant::now(),
        items: 0,
        span: crate::trace::span(name),
    }
}

/// Open a stage timer with a runtime-built name (e.g. a per-shard
/// `simnet.generate.shard3` row).
pub fn stage_owned(name: String) -> StageTimer {
    StageTimer {
        span: crate::trace::span(name.clone()),
        name: std::borrow::Cow::Owned(name),
        started: Instant::now(),
        items: 0,
    }
}

impl StageTimer {
    /// Add `n` processed items (shown as records + records/s).
    pub fn add_items(&mut self, n: u64) {
        self.items += n;
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        record(&self.name, self.started.elapsed(), self.items);
        // the trace span closes here too, covering the same interval
        let _ = &self.span;
    }
}

/// Add one invocation of `elapsed` over `items` to stage `name`'s row,
/// for work timed in pieces that no single guard brackets (a pipeline
/// worker's generate and analyze shares alternate slice by slice).
pub fn record(name: &str, elapsed: Duration, items: u64) {
    let mut table = table().lock().expect("stage table lock");
    // look up by `&str` first: the name is allocated only on its first use
    let agg = match table.get_mut(name) {
        Some(agg) => agg,
        None => table.entry(name.to_string()).or_default(),
    };
    agg.calls += 1;
    agg.total += elapsed;
    agg.items += items;
}

/// Human-scaled count (`975`, `12.3k`, `4.56M`).
fn human(n: f64) -> String {
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

/// Human-scaled duration (`850ms`, `2.41s`, `3m12s`).
fn human_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 60.0 {
        format!("{}m{:02.0}s", (s / 60.0) as u64, s % 60.0)
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

/// Render the per-stage summary table (stages sorted by total time,
/// descending). Empty string when nothing was recorded.
pub fn render_table() -> String {
    use std::fmt::Write;
    let table = table().lock().expect("stage table lock");
    if table.is_empty() {
        return String::new();
    }
    let mut rows: Vec<(String, StageAgg)> =
        table.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    drop(table);
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.total));
    let mut out = String::new();
    writeln!(out, "== per-stage summary ==").expect("string write");
    writeln!(
        out,
        "{:<28} {:>6} {:>10} {:>12} {:>12}",
        "stage", "calls", "time", "records", "records/s"
    )
    .expect("string write");
    for (name, agg) in &rows {
        let rate = if agg.total.as_secs_f64() > 0.0 {
            human(agg.items as f64 / agg.total.as_secs_f64())
        } else {
            "-".to_string()
        };
        writeln!(
            out,
            "{:<28} {:>6} {:>10} {:>12} {:>12}",
            name,
            agg.calls,
            human_duration(agg.total),
            if agg.items > 0 {
                agg.items.to_string()
            } else {
                "-".to_string()
            },
            if agg.items > 0 { rate } else { "-".to_string() },
        )
        .expect("string write");
    }
    out
}

/// Drop all recorded stages (tests).
pub fn reset() {
    table().lock().expect("stage table lock").clear();
}

static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Turn periodic progress lines on or off (default off).
pub fn set_progress(enabled: bool) {
    PROGRESS.store(enabled, Ordering::Relaxed);
}

/// Whether progress lines are enabled.
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Throttled progress reporter: call [`Progress::tick`] as often as you
/// like; at most one line per second reaches stderr, carrying counts,
/// rate, and (when a total is known) percent complete and ETA. Ticks
/// take `&self`, so the workers of one run share one reporter and
/// stderr shows one bar against the run's total.
pub struct Progress {
    label: String,
    total: Option<u64>,
    done: AtomicU64,
    started: Instant,
    last_print: Mutex<Instant>,
}

impl Progress {
    /// A reporter for `label`; `total` enables percent + ETA.
    pub fn new(label: impl Into<String>, total: Option<u64>) -> Progress {
        let now = Instant::now();
        Progress {
            label: label.into(),
            total,
            done: AtomicU64::new(0),
            started: now,
            last_print: Mutex::new(now),
        }
    }

    /// Record `n` more items; maybe emit a line.
    pub fn tick(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
        if !progress_enabled() {
            return;
        }
        let mut last_print = self.last_print.lock().expect("progress lock");
        if last_print.elapsed() < Duration::from_secs(1) {
            return;
        }
        *last_print = Instant::now();
        eprintln!("{}", self.line(self.started.elapsed().as_secs_f64()));
    }

    /// Render the progress line for a given elapsed time. Zero (or
    /// pathological) durations degrade to a rate-less line — never
    /// `inf` or `NaN` in the output.
    pub fn line(&self, elapsed_secs: f64) -> String {
        let done = self.done();
        let rate = if elapsed_secs > 0.0 && elapsed_secs.is_finite() {
            done as f64 / elapsed_secs
        } else {
            0.0
        };
        match self.total {
            Some(total) if total > 0 && rate > 0.0 && rate.is_finite() => {
                let pct = 100.0 * done as f64 / total as f64;
                let eta = (total.saturating_sub(done)) as f64 / rate;
                format!(
                    "[{}] {}/{} ({pct:.0}%) {}/s eta {}",
                    self.label,
                    done,
                    total,
                    human(rate),
                    human_duration(Duration::from_secs_f64(eta)),
                )
            }
            _ if rate > 0.0 && rate.is_finite() => {
                format!("[{}] {done} done, {}/s", self.label, human(rate))
            }
            _ => format!("[{}] {done} done", self.label),
        }
    }

    /// Items recorded so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_table_accumulates_and_renders() {
        {
            let mut t = stage("test.alpha");
            t.add_items(500);
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let mut t = stage("test.alpha");
            t.add_items(500);
        }
        {
            let _t = stage("test.beta");
        }
        let text = render_table();
        assert!(text.contains("== per-stage summary =="), "{text}");
        assert!(text.contains("records/s"), "{text}");
        let alpha = text
            .lines()
            .find(|l| l.starts_with("test.alpha"))
            .expect("alpha row");
        assert!(alpha.contains("2"), "two calls: {alpha}");
        assert!(alpha.contains("1000"), "items summed: {alpha}");
        let beta = text
            .lines()
            .find(|l| l.starts_with("test.beta"))
            .expect("beta row");
        assert!(beta.contains('-'), "no items recorded: {beta}");
    }

    #[test]
    fn progress_is_silent_by_default_and_counts() {
        let p = Progress::new("test", Some(100));
        p.tick(10);
        p.tick(20);
        assert_eq!(p.done(), 30);
    }

    #[test]
    fn progress_line_never_prints_inf_or_nan() {
        let p = Progress::new("zero", Some(1000));
        p.tick(0);
        // zero elapsed, zero done: no rate, no ETA, no inf/NaN
        for line in [p.line(0.0), p.line(f64::NAN), p.line(f64::INFINITY)] {
            assert!(!line.contains("inf"), "{line}");
            assert!(!line.contains("NaN"), "{line}");
            assert_eq!(line, "[zero] 0 done", "{line}");
        }
        // items recorded but still zero elapsed: same degradation
        p.tick(500);
        let line = p.line(0.0);
        assert_eq!(line, "[zero] 500 done", "{line}");
        // and a sane duration produces the full percent + ETA form
        let line = p.line(2.0);
        assert!(line.contains("(50%)"), "{line}");
        assert!(line.contains("eta"), "{line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        // unknown total, healthy rate
        let open = Progress::new("open", None);
        open.tick(250);
        assert_eq!(open.line(1.0), "[open] 250 done, 250/s");
    }

    #[test]
    fn duplicate_stage_names_aggregate_into_one_row() {
        for _ in 0..3 {
            let mut t = stage("test.dup.same");
            t.add_items(10);
        }
        let text = render_table();
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("test.dup.same"))
            .collect();
        assert_eq!(rows.len(), 1, "one aggregated row, got: {text}");
        assert!(rows[0].contains("30"), "items summed: {}", rows[0]);
        // a zero-duration stage renders "-" rather than inf records/s
        assert!(!text.contains("inf"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn human_units() {
        assert_eq!(human(975.0), "975");
        assert_eq!(human(12_300.0), "12.3k");
        assert_eq!(human(4_560_000.0), "4.56M");
        assert_eq!(human_duration(Duration::from_millis(850)), "850ms");
        assert_eq!(human_duration(Duration::from_secs_f64(2.41)), "2.41s");
        assert_eq!(human_duration(Duration::from_secs(192)), "3m12s");
    }
}
