//! `harness compare A B`: two result directories side by side, per
//! workload and end-to-end metric, against the catalog's bounds.

use crate::catalog::{END_TO_END, WORKLOADS};
use serde_json::Value;
use std::path::Path;

fn load(dir: &Path, workload: &str) -> Result<Option<Value>, String> {
    let path = dir.join(format!("result-{workload}.json"));
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// By how much of `a` the value `b` is worse (negative: better).
fn worse_by(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Print every pairing found in both directories; `Ok(false)` when `b`
/// is worse than `a` by more than a metric's bound anywhere.
///
/// Results taken at different core counts are refused: a parallel
/// pipeline measured on one core and on two is not the same workload.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let mut within = true;
    let mut compared = 0;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for w in WORKLOADS {
        let (Some(a), Some(b)) = (load(a_dir, w.name)?, load(b_dir, w.name)?) else {
            continue;
        };
        let nproc = |v: &Value| v["header"]["nproc"].as_u64();
        if nproc(&a) != nproc(&b) || nproc(&a).is_none() {
            return Err(format!(
                "{}: results taken at different core counts ({:?} vs {:?}) are not compared",
                w.name,
                nproc(&a),
                nproc(&b)
            ));
        }
        for m in END_TO_END {
            let value = |v: &Value| v["end_to_end"][m.name]["value"].as_f64();
            let (Some(va), Some(vb)) = (value(&a), value(&b)) else {
                return Err(format!("{}: {} missing from a result file", w.name, m.name));
            };
            let worse = worse_by(m.better, va, vb);
            let excess = worse > m.bound;
            within &= !excess;
            compared += 1;
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%{}",
                w.name,
                m.name,
                va,
                vb,
                worse * 100.0,
                m.bound * 100.0,
                if excess { "  EXCEEDS" } else { "" }
            );
        }
    }
    if compared == 0 {
        return Err("no workload has a result file in both directories".to_string());
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metric_direction() {
        assert_eq!(worse_by("higher", 100.0, 90.0), 0.1);
        assert_eq!(worse_by("higher", 100.0, 110.0), -0.1);
        assert_eq!(worse_by("lower", 100.0, 125.0), 0.25);
    }
}
