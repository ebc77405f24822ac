//! The repo benchmark's harness. `benchmark/run.sh` builds and drives
//! it; see `benchmark/README.md` for what it measures and why.
//!
//! - `harness run --workload W --seed N --seconds S --trace 0|1 --tmp DIR --out DIR`
//!   runs one workload in this process and prints every metric by
//!   name with its unit, then one JSON object as the last line.
//! - `harness describe` prints the contents of `BENCHMARK.json`.
//! - `harness compare A B` sets two result directories side by side.

mod batch;
mod catalog;
mod compare;
mod layers;
mod live;
mod measure;
mod procfs;
mod stats;
mod trace;
mod wh;

use measure::{Ctx, Report};
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// Process-wide allocation counts, as the `dnscentral` binary has them:
// every metric reads `obs::alloc::totals()` deltas, never the
// thread-local `obs::alloc::measure`, because the pipelines do their
// work on worker threads.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("describe") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&catalog::describe()).expect("catalog serializes")
            );
            Ok(true)
        }
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err("usage: harness run|describe|compare (see benchmark/README.md)".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("harness: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Flags of `harness run`, as `--name value` pairs.
struct RunArgs {
    workload: String,
    ctx: Ctx,
    out: PathBuf,
    git_sha: String,
    rustc: String,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = catalog::RUN_SECONDS as f64;
    let mut trace = false;
    let mut smoke = false;
    let mut tmp = None;
    let mut out = None;
    let mut git_sha = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if seconds.is_nan() || seconds < 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--tmp" => tmp = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--git-sha" => git_sha = value.clone(),
            "--rustc" => rustc = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            smoke,
            tmp: tmp.ok_or("--tmp is required")?,
        },
        out: out.ok_or("--out is required")?,
        git_sha,
        rustc,
    })
}

fn run(args: &[String]) -> Result<bool, String> {
    let a = parse_run(args)?;
    if !obs::alloc::installed() {
        return Err("the counting allocator is not installed".to_string());
    }
    let ctx = &a.ctx;
    let report = match a.workload.as_str() {
        "batch-calibrated" => batch::run(ctx, false),
        "batch-fleet" => batch::run(ctx, true),
        "wh-append" => wh::append(ctx),
        "wh-scan" => wh::scan(ctx),
        "live-replay" => live::run(ctx, false),
        "live-fleet" => live::run(ctx, true),
        other => {
            let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {other:?}; one of {names:?}"));
        }
    }
    .map_err(|e| format!("{}: {e}", a.workload))?;
    emit(&a, report).map_err(|e| format!("{}: {e}", a.workload))
}

/// Print the header, every metric with its unit and the final JSON
/// line; write the result (and trace) files. Returns `correct`.
fn emit(a: &RunArgs, mut report: Report) -> std::io::Result<bool> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let timed = &report.timed;
    let rps = stats::quartiles(&timed.rep_rps);
    let rep_s = stats::median(&timed.rep_secs);
    let setup_s = stats::median(&report.setup_secs);
    let end_to_end: Vec<(&str, f64)> = vec![
        ("throughput_rps", rps.median),
        (
            "allocs_per_record",
            timed.allocs as f64 / timed.records.max(1) as f64,
        ),
        ("setup_s", setup_s),
    ];

    let layers = &mut report.layers;
    layers.set("proc.peak_rss_mb", timed.peak_rss_mib);
    layers.set("proc.cpu_user_s", timed.cpu_user_s);
    layers.set("proc.cpu_sys_s", timed.cpu_sys_s);
    layers.set(
        "proc.cpu_busy_share",
        (timed.cpu_user_s + timed.cpu_sys_s) / (timed.wall_s * nproc.max(1) as f64),
    );
    if let Some(tracer) = &report.tracer {
        let staged = trace::staged_sum_secs(tracer.spans());
        layers.set("trace.staged_sum_s", staged);
        layers.set("trace.staged_over_e2e", staged / rep_s);
        std::fs::create_dir_all(&a.out)?;
        let doc = trace::to_json(&a.workload, a.ctx.seed, tracer.spans());
        std::fs::write(
            a.out.join(format!("trace-{}.json", a.workload)),
            serde_json::to_string_pretty(&doc).expect("trace serializes"),
        )?;
    }

    let sizes: Map = {
        let mut m = Map::new();
        for (k, v) in &report.sizes {
            m.insert(k.to_string(), json!(v));
        }
        m
    };
    let header = json!({
        "workload": a.workload,
        "seed": a.ctx.seed,
        "seconds": a.ctx.seconds,
        "trace": a.ctx.trace,
        "smoke": a.ctx.smoke,
        "nproc": nproc,
        "git_sha": a.git_sha,
        "rustc": a.rustc,
        "sizes": Value::Object(sizes),
    });
    println!(
        "# {}",
        serde_json::to_string(&header).expect("header serializes")
    );
    println!(
        "# reps {} (median {:.4} s each); throughput q1 {:.1} median {:.1} q3 {:.1} records/s; set-up median {:.4} s over {} rounds",
        timed.rep_secs.len(),
        rep_s,
        rps.q1,
        rps.median,
        rps.q3,
        setup_s,
        report.setup_secs.len(),
    );
    println!(
        "# attempted {} failed {} (failed share {:.6})",
        timed.attempted,
        timed.failed,
        timed.failed as f64 / timed.attempted.max(1) as f64
    );
    for (name, value) in &end_to_end {
        print_metric(name, *value);
    }
    // most per-layer numbers come from the traced run alone; the
    // proc.* rows, the queue peak and the live socket-side numbers
    // describe the timed section and are there either way
    for m in catalog::PER_LAYER {
        if let Some(v) = report.layers.get(m.name) {
            print_metric(m.name, v);
        }
    }
    let correct = report.checks.failures.is_empty();
    for f in &report.checks.failures {
        println!("# CHECK FAILED: {f}");
    }

    let as_metrics = |pairs: &mut dyn Iterator<Item = (&str, f64)>| {
        let mut m = Map::new();
        for (name, value) in pairs {
            let unit = catalog::unit_of(name).expect("metric is in the catalog");
            m.insert(name.to_string(), json!({ "value": value, "unit": unit }));
        }
        Value::Object(m)
    };
    let e2e_json = as_metrics(&mut end_to_end.iter().copied());
    let layer_json = as_metrics(
        &mut catalog::PER_LAYER
            .iter()
            .map(|m| (m.name, report.layers.get(m.name).unwrap_or(0.0))),
    );
    std::fs::create_dir_all(&a.out)?;
    let mut result = json!({
        "header": header,
        "correct": correct,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "end_to_end": e2e_json.clone(),
    });
    if a.ctx.trace {
        if let Value::Object(m) = &mut result {
            m.insert("per_layer".to_string(), layer_json.clone());
        }
    }
    std::fs::write(
        a.out.join(format!("result-{}.json", a.workload)),
        serde_json::to_string_pretty(&result).expect("result serializes"),
    )?;

    let last = json!({
        "correct": correct,
        "attempted": timed.attempted.max(1),
        "failed": timed.failed,
        "metrics": if a.ctx.trace { layer_json } else { e2e_json },
    });
    println!(
        "{}",
        serde_json::to_string(&last).expect("result serializes")
    );
    Ok(correct)
}

fn print_metric(name: &str, value: f64) {
    let unit = catalog::unit_of(name).expect("metric is in the catalog");
    println!("{name:<40} {value:>16.4} {unit}");
}
