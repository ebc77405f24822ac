//! The parts every workload shares: repeated set-up, the timed rep
//! loop, correctness checks and the per-layer ledger.

use crate::procfs;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// A workload's set-up runs at least this many times and, when it is
/// cheap, until [`SETUP_MIN_SECS`] have gone or [`SETUP_MAX_ROUNDS`]
/// are done: `setup_s` is the median, and the median of a handful of
/// millisecond timings would swing by more than its bound.
const SETUP_MIN_ROUNDS: usize = 3;
const SETUP_MAX_ROUNDS: usize = 101;
const SETUP_MIN_SECS: f64 = 0.3;

/// What the command line asked for.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed section runs (wall clock, checks included).
    pub seconds: f64,
    /// Add the staged, traced rep after the timed section.
    pub trace: bool,
    /// Tiny sizes, one rep: does every workload still run and check?
    pub smoke: bool,
    /// Scratch directory; the caller removes it.
    pub tmp: PathBuf,
}

/// Operations one rep attempted and how many of them failed, as the
/// workload defines an operation.
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Correctness checks: any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            // every rep runs the same checks: say each failure once
            let what = what();
            if !self.failures.contains(&what) {
                self.failures.push(what);
            }
        }
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.require(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// The timed section's totals.
#[derive(Default)]
pub struct Timed {
    pub rep_secs: Vec<f64>,
    pub rep_rps: Vec<f64>,
    pub records: u64,
    pub allocs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall and CPU seconds from the first timed rep to the last,
    /// between-rep checks included.
    pub wall_s: f64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// `VmHWM` when the timed section ended: set-up, warm-up and the
    /// timed reps, but not the staged rep, which holds whole captures
    /// in memory that the end-to-end path streams.
    pub peak_rss_mib: f64,
}

/// Per-layer metrics by name; absent names print as 0. A metric is a
/// sum over a weight, so a layer called once per warehouse source adds
/// up instead of the last call overwriting the first.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, (f64, f64)>);

impl Layers {
    fn entry(&mut self, name: &'static str, empty: (f64, f64)) -> &mut (f64, f64) {
        assert!(
            crate::catalog::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer catalog"
        );
        self.0.entry(name).or_insert(empty)
    }

    /// The metric is `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self.entry(name, (0.0, 1.0)) = (value, 1.0);
    }

    /// The metric is a total (seconds, a count): add `value` to it.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.entry(name, (0.0, 1.0)).0 += value;
    }

    /// The metric is per record: add `total` spent on `records` more.
    pub fn add_per(&mut self, name: &'static str, total: f64, records: u64) {
        let e = self.entry(name, (0.0, 0.0));
        e.0 += total;
        e.1 += records as f64;
    }

    /// Nanoseconds and allocations per record of a span over `records`.
    pub fn add_span(
        &mut self,
        ns: &'static str,
        allocs: &'static str,
        span: &crate::trace::Span,
        records: u64,
    ) {
        self.add_per(ns, span.secs() * 1e9, records);
        self.add_per(allocs, span.allocs as f64, records);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let (sum, weight) = *self.0.get(name)?;
        Some(if weight == 0.0 { 0.0 } else { sum / weight })
    }
}

/// Everything one workload run produced.
pub struct Report {
    /// The workload's sizes, for the output header.
    pub sizes: Vec<(&'static str, String)>,
    pub setup_secs: Vec<f64>,
    pub timed: Timed,
    pub checks: Checks,
    pub layers: Layers,
    pub tracer: Option<Tracer>,
}

/// Run `build` several times (once in smoke mode), dropping each
/// product before the next round so peak memory is one product's, and
/// keep the last. Returns the product and each round's seconds.
pub fn setup<T>(ctx: &Ctx, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let product = build();
        secs.push(t0.elapsed().as_secs_f64());
        let enough = secs.len() >= SETUP_MIN_ROUNDS
            && (started.elapsed().as_secs_f64() >= SETUP_MIN_SECS
                || secs.len() >= SETUP_MAX_ROUNDS);
        if ctx.smoke || enough {
            return (product, secs);
        }
    }
}

/// The timed section: `warmups` untimed reps, then timed reps until
/// `ctx.seconds` of wall clock have passed (one rep in smoke mode).
/// `rep` does the measured work and returns how many records went
/// through it; `after` checks its output, outside the timed and counted
/// window, and says how many operations failed.
pub fn timed<O>(
    ctx: &Ctx,
    warmups: usize,
    checks: &mut Checks,
    mut rep: impl FnMut() -> (u64, O),
    mut after: impl FnMut(O, &mut Checks) -> Ops,
) -> std::io::Result<Timed> {
    if !ctx.smoke {
        for _ in 0..warmups {
            let (_, out) = rep();
            after(out, checks);
        }
    }
    let mut t = Timed::default();
    let (user0, sys0) = procfs::cpu_secs()?;
    let started = Instant::now();
    loop {
        let allocs0 = obs::alloc::totals().0;
        let t0 = Instant::now();
        let (records, out) = rep();
        let secs = t0.elapsed().as_secs_f64();
        t.allocs += obs::alloc::totals().0 - allocs0;
        t.rep_secs.push(secs);
        t.rep_rps.push(records as f64 / secs);
        t.records += records;
        let ops = after(out, checks);
        t.attempted += ops.attempted;
        t.failed += ops.failed;
        if ctx.smoke || started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    t.wall_s = started.elapsed().as_secs_f64();
    let (user1, sys1) = procfs::cpu_secs()?;
    t.cpu_user_s = user1 - user0;
    t.cpu_sys_s = sys1 - sys0;
    t.peak_rss_mib = procfs::peak_rss_mib()?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_adds_up_across_calls() {
        let mut l = Layers::default();
        // two sources: 100 rows at 300 ns each, 300 rows at 100 ns each
        l.add_per("core.sinks_ns", 30_000.0, 100);
        l.add_per("core.sinks_ns", 30_000.0, 300);
        assert_eq!(l.get("core.sinks_ns"), Some(150.0));
        l.add("core.render_s", 0.25);
        l.add("core.render_s", 0.5);
        assert_eq!(l.get("core.render_s"), Some(0.75));
        l.set("entrada.rows", 7.0);
        l.set("entrada.rows", 9.0);
        assert_eq!(l.get("entrada.rows"), Some(9.0));
        l.add_per("dns-wire.parse_ns", 0.0, 0);
        assert_eq!(l.get("dns-wire.parse_ns"), Some(0.0));
        assert_eq!(l.get("authd.tap_ns"), None);
    }
}
