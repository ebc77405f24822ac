//! What the benchmark measures: the workloads, the end-to-end metrics
//! with their bounds, and the per-layer metrics. `BENCHMARK.json` is
//! `harness describe` written to a file, so the two cannot drift.

use serde_json::{json, Value};

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "batch-calibrated",
        why: "The paper's main path: calibrated generate -> ingest -> sinks -> report. simnet::engine is the longer stage; entrada and core overlap it on the second core.",
    },
    WorkloadDef {
        name: "batch-fleet",
        why: "Same pipeline fed by resolver walks: resolver + simnet::emerge do the work, and the name set overflows resolver::cache's 65,536 entries (larger than the program's own cache).",
    },
    WorkloadDef {
        name: "wh-append",
        why: "Write side of warehouse alone (.nl + B-Root rows held in memory): columnar batching, codec encode, file and manifest writes; tmp+rename, no fsync.",
    },
    WorkloadDef {
        name: "wh-scan",
        why: "Read side of the same layer (plan, decode, row rebuild, sinks, report), paired with wh-append so a codec change that helps one and costs the other shows.",
    },
    WorkloadDef {
        name: "live-replay",
        why: "Closed loop, 2 clients over loopback: socket plane + authd respond + capture tap with a cheap replay client, so the server side sets the rate.",
    },
    WorkloadDef {
        name: "live-fleet",
        why: "Closed loop, 64 resolver instances on 2 threads against the same server: authd::fleetgen + resolver are the ceiling, not the server.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_rps",
        unit: "records/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_record",
        unit: "count",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn l(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, from the traced (staged) run. `_ns` and `_allocs`
/// are per record of the layer's own input. A metric reads 0 on a
/// workload whose staged run does not call that layer.
pub const PER_LAYER: &[Layer] = &[
    l("asdb.plan_build_s", "s", "lower"),
    l("simnet.engine_new_s", "s", "lower"),
    l("simnet.generate_ns", "ns", "lower"),
    l("simnet.generate_allocs", "count", "lower"),
    l("simnet.generate_records", "count", "higher"),
    l("simnet.emerge_ns", "ns", "lower"),
    l("simnet.emerge_allocs", "count", "lower"),
    l("simnet.emerge_records", "count", "higher"),
    l("simnet.drive_sample_ns", "ns", "lower"),
    l("simnet.drive_sample_allocs", "count", "lower"),
    l("resolver.resolve_cold_ns", "ns", "lower"),
    l("resolver.resolve_warm_ns", "ns", "lower"),
    l("resolver.cache_put_full_ns", "ns", "lower"),
    l("resolver.cache_hit_ratio", "ratio", "higher"),
    l("resolver.vantage_queries_per_stimulus", "ratio", "lower"),
    l("resolver.retries", "count", "lower"),
    l("resolver.timeouts", "count", "lower"),
    l("dns-wire.parse_ns", "ns", "lower"),
    l("dns-wire.parse_allocs", "count", "lower"),
    l("dns-wire.encode_into_ns", "ns", "lower"),
    l("netbase.capture_write_ns", "ns", "lower"),
    l("netbase.capture_read_ns", "ns", "lower"),
    l("entrada.ingest_ns", "ns", "lower"),
    l("entrada.ingest_allocs", "count", "lower"),
    l("entrada.rows", "count", "higher"),
    l("entrada.unmatched", "count", "lower"),
    l("entrada.malformed", "count", "lower"),
    l("entrada.capture_errors", "count", "lower"),
    l("asdb.enrich_ns", "ns", "lower"),
    l("asdb.enrich_memo_len", "count", "lower"),
    l("core.sinks_ns", "ns", "lower"),
    l("core.sinks_allocs", "count", "lower"),
    l("core.render_s", "s", "lower"),
    l("core.pipeline_queue_peak", "count", "lower"),
    l("warehouse.push_ns", "ns", "lower"),
    l("warehouse.finish_ns", "ns", "lower"),
    l("warehouse.commit_s", "s", "lower"),
    l("warehouse.append_allocs", "count", "lower"),
    l("warehouse.partitions", "count", "lower"),
    l("warehouse.bytes", "bytes", "lower"),
    l("warehouse.bytes_per_row", "bytes", "lower"),
    l("warehouse.plan_s", "s", "lower"),
    l("warehouse.decode_ns", "ns", "lower"),
    l("warehouse.decode_allocs", "count", "lower"),
    l("warehouse.rows_ns", "ns", "lower"),
    l("warehouse.bytes_scanned", "bytes", "lower"),
    l("warehouse.partitions_opened", "count", "lower"),
    l("warehouse.partitions_pruned", "count", "higher"),
    l("warehouse.pruned_scan_s", "s", "lower"),
    l("warehouse.pruned_open_share", "ratio", "lower"),
    l("authd.respond_ns", "ns", "lower"),
    l("authd.respond_allocs", "count", "lower"),
    l("authd.engine_udp_ns", "ns", "lower"),
    l("authd.tap_ns", "ns", "lower"),
    l("authd.service_p50_us", "us", "lower"),
    l("authd.service_p99_us", "us", "lower"),
    l("authd.client_rtt_p50_us", "us", "lower"),
    l("authd.client_rtt_p99_us", "us", "lower"),
    l("authd.tcp_fallback_share", "ratio", "lower"),
    l("authd.rrl_dropped", "count", "lower"),
    l("authd.send_errors", "count", "lower"),
    l("authd.timeouts", "count", "lower"),
    l("authd.fleet_cache_hit_ratio", "ratio", "higher"),
    l("authd.fleet_sent_per_stimulus", "ratio", "lower"),
    l("authd.fleet_stimuli", "count", "higher"),
    l("proc.peak_rss_mb", "MiB", "lower"),
    l("proc.cpu_user_s", "s", "lower"),
    l("proc.cpu_sys_s", "s", "lower"),
    l("proc.cpu_busy_share", "ratio", "higher"),
    l("trace.staged_sum_s", "s", "lower"),
    l("trace.staged_over_e2e", "ratio", "lower"),
];

/// The unit of a metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The contents of `BENCHMARK.json`.
pub fn describe() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better }))
        .collect();
    json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the driver checks before it makes a single run.
    #[test]
    fn catalog_stays_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["higher", "lower"].contains(&m.better));
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(["higher", "lower"].contains(&m.better));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
