//! Parallel analysis is a pure parallelization: for any seed and any
//! worker count, the rendered report is identical to the serial run.
//! Every worker joins and aggregates the whole time slices it
//! generates, every sink is an order-insensitive function of its row
//! multiset, and partials merge in worker order — so determinism is
//! structural. This property test
//! pins the consumer side the way `shard_determinism` pins the
//! generator side.

use dnscentral_core::pipeline::{run_spec_with, PipelineOpts};
use dnscentral_core::report;
use proptest::prelude::*;
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};

/// Everything report-shaped one run produces, as comparable strings.
fn rendered_run(seed: u64, jobs: usize) -> (String, entrada::ingest::IngestStats, String) {
    let run = run_spec_with(
        dataset(Vantage::Nz, 2020),
        Scale::tiny(),
        seed,
        &PipelineOpts::with_jobs(jobs),
    );
    let json = serde_json::to_string_pretty(&report::dataset_json(&run.id, &run.analysis))
        .expect("serializes");
    let mut dual = String::new();
    for server in &run.spec.servers {
        for site in run.dualstack.report_for_server(server.v4.into()) {
            dual.push_str(&format!("{site:?}\n"));
        }
    }
    (json, run.ingest_stats, dual)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N analysis workers render byte-identical reports to one.
    #[test]
    fn parallel_analysis_is_byte_identical(seed in 0u64..10_000, jobs in 2usize..=4) {
        let (json1, stats1, dual1) = rendered_run(seed, 1);
        let (jsonn, statsn, dualn) = rendered_run(seed, jobs);
        prop_assert_eq!(stats1, statsn, "jobs={} ingest accounting diverged", jobs);
        prop_assert_eq!(json1, jsonn, "jobs={} dataset JSON diverged", jobs);
        prop_assert_eq!(dual1, dualn, "jobs={} dual-stack reports diverged", jobs);
    }
}

/// The headline case from the issue, pinned as a plain test so it runs
/// even when the property sampler picks other job counts.
#[test]
fn one_equals_four() {
    let (json1, stats1, dual1) = rendered_run(42, 1);
    let (json4, stats4, dual4) = rendered_run(42, 4);
    assert_eq!(stats1, stats4);
    assert_eq!(json1, json4);
    assert_eq!(dual1, dual4);
}
