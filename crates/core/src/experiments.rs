//! End-to-end experiment runners: generate a dataset through `simnet`,
//! ingest it through `entrada`, aggregate with [`DatasetAnalysis`] —
//! the full pipeline behind every table and figure.
//!
//! The generator and the analyzer can be decoupled by a `.dnscap` file
//! (as pcap decoupled the paper's collection from ENTRADA): the
//! analyzer reconstructs its enrichment context (address plan, zone,
//! PTR view) from the dataset spec + seed via the same deterministic
//! [`Engine`] constructor the generator used.

use crate::analysis::DatasetAnalysis;
use crate::dualstack::DualStackAnalysis;
use crate::pipeline::{consume_capture, finish, run_spec_with, PipelineOpts};
use crate::qmin::MonthlySample;
use crate::store::WarehouseTarget;
use asdb::cloud::Provider;
use entrada::ingest::IngestStats;
use simnet::engine::{DatasetStats, Engine};
use simnet::profile::Vantage;
use simnet::scenario::{
    dataset, figure3_months, monthly_google, monthly_provider, DatasetSpec, Scale,
};
use std::path::{Path, PathBuf};

/// Everything one dataset run produces.
pub struct DatasetRun {
    /// Dataset identifier (`nl-w2020`, ...).
    pub id: String,
    /// The spec it ran from.
    pub spec: DatasetSpec,
    /// The aggregated analysis.
    pub analysis: DatasetAnalysis,
    /// The Facebook dual-stack analysis (Figures 5/8).
    pub dualstack: DualStackAnalysis,
    /// Generator-side counters.
    pub gen_stats: DatasetStats,
    /// Ingest-side counters.
    pub ingest_stats: IngestStats,
}

/// Analyze a capture at `path` generated from `(spec, scale, seed)`.
pub fn analyze_capture(
    spec: &DatasetSpec,
    scale: Scale,
    seed: u64,
    path: &Path,
) -> std::io::Result<(DatasetAnalysis, DualStackAnalysis, IngestStats)> {
    analyze_capture_into(spec, scale, seed, path, None)
}

/// [`analyze_capture`], appending every row to `store` in the same
/// pass. Partitions stay staged for the caller to commit.
pub fn analyze_capture_into(
    spec: &DatasetSpec,
    scale: Scale,
    seed: u64,
    path: &Path,
    store: Option<&WarehouseTarget>,
) -> std::io::Result<(DatasetAnalysis, DualStackAnalysis, IngestStats)> {
    let engine = Engine::new(spec.clone(), scale, seed);
    let (sinks, stats) = consume_capture(path, &engine, store)?;
    let (analysis, dualstack) = finish(sinks).map_err(std::io::Error::other)?;
    Ok((analysis, dualstack, stats))
}

/// Generate + analyze one of the nine Table 3 datasets.
pub fn run_dataset(vantage: Vantage, year: u16, scale: Scale, seed: u64) -> DatasetRun {
    run_spec(dataset(vantage, year), scale, seed)
}

/// Generate + analyze an arbitrary dataset spec, streamed in memory;
/// use [`run_spec_with`] to shard the generator, parallelize analysis
/// or keep the capture on disk.
pub fn run_spec(spec: DatasetSpec, scale: Scale, seed: u64) -> DatasetRun {
    run_spec_with(spec, scale, seed, &PipelineOpts::default())
}

/// The Figure 3 recipe: one `(year, month, spec, seed)` per month, Nov
/// 2018 – Apr 2020 — a single-provider sample against one ccTLD with
/// its own derived seed. Every series (in-memory, fleet, warehouse
/// ingest and scan) walks this list.
pub fn figure3_specs(
    vantage: Vantage,
    provider: Provider,
    seed: u64,
) -> Vec<(i32, u32, DatasetSpec, u64)> {
    figure3_months()
        .into_iter()
        .map(|(year, month)| {
            let spec = if provider == Provider::Google {
                monthly_google(vantage, year, month)
            } else {
                monthly_provider(vantage, provider, year, month)
            };
            (
                year,
                month,
                spec,
                seed ^ ((year as u64) << 8 | month as u64),
            )
        })
        .collect()
}

/// The monthly qtype summary the change-point detector consumes, from
/// the analysis of a [`figure3_specs`] run: the run covers exactly one
/// month, so the provider aggregate *is* the monthly bucket.
pub fn monthly_sample(
    year: i32,
    month: u32,
    provider: Provider,
    analysis: &DatasetAnalysis,
) -> MonthlySample {
    let agg = analysis.provider(Some(provider));
    MonthlySample::from_counters(year, month, agg.qtype(), agg.minimized_ns)
}

/// Run the Figure 3 longitudinal series for `provider` (the paper dated
/// Google's Q-min rollout this way; any provider's can be) with up to
/// `jobs` of the 18 independent months in flight (0: as
/// [`crate::suite::share_machine`] has it); samples come back in month
/// order, identical for any job count. Under
/// [`PipelineOpts::fleet`] every record comes out of a resolver walk,
/// so the Dec-2019 change point in the samples is emergent — produced
/// by `IterativeResolver::set_qmin` flipping on the rollout date.
pub fn run_monthly_series(
    vantage: Vantage,
    provider: Provider,
    scale: Scale,
    seed: u64,
    opts: &PipelineOpts,
    jobs: usize,
) -> Vec<MonthlySample> {
    let months = figure3_specs(vantage, provider, seed);
    let (jobs, opts) = &crate::suite::share_machine(opts, jobs, months.len());
    let tasks = months
        .into_iter()
        .map(|(year, month, spec, mseed)| {
            let label = format!("suite.fig3-{provider:?}-{year}-{month:02}").to_lowercase();
            let task = move || {
                let run = run_spec_with(spec, scale, mseed, opts);
                monthly_sample(year, month, provider, &run.analysis)
            };
            (label, task)
        })
        .collect();
    crate::suite::run_tasks(tasks, *jobs, |s: &MonthlySample| s.total)
}

/// The nine Table 3 dataset specs, in report order.
pub fn table3_specs() -> Vec<DatasetSpec> {
    [Vantage::Nl, Vantage::Nz, Vantage::BRoot]
        .into_iter()
        .flat_map(|v| [2018u16, 2019, 2020].map(|y| dataset(v, y)))
        .collect()
}

/// A collision-resistant temp path for intermediate captures.
pub fn temp_capture_path(id: &str, seed: u64) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "dnscentral-{id}-{seed}-{}.dnscap",
        std::process::id()
    ));
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_file_preserves_counts() {
        let path = temp_capture_path("roundtrip", 11);
        let run = crate::pipeline::run_spec_with(
            dataset(Vantage::Nz, 2020),
            Scale::tiny(),
            11,
            &crate::pipeline::PipelineOpts {
                keep_capture: Some(path.clone()),
                ..Default::default()
            },
        );
        let _ = std::fs::remove_file(&path);
        assert_eq!(run.id, "nz-w2020");
        assert_eq!(run.gen_stats.queries, run.ingest_stats.rows);
        assert_eq!(run.analysis.total_queries, run.gen_stats.queries);
        assert_eq!(run.ingest_stats.malformed, 0);
        assert_eq!(run.ingest_stats.unmatched_responses, 0);
        assert_eq!(
            run.ingest_stats.unanswered_queries, 0,
            "engine answers everything"
        );
    }

    #[test]
    fn fleet_tcp_retries_pair_with_their_responses() {
        let run = crate::pipeline::run_spec_with(
            dataset(Vantage::Nl, 2020),
            Scale::tiny(),
            42,
            &crate::pipeline::PipelineOpts::with_fleet(),
        );
        assert!(
            run.gen_stats.truncated_udp > 0,
            "the TC→TCP retry path must be exercised"
        );
        assert_eq!(run.gen_stats.queries, run.ingest_stats.rows);
        assert_eq!(run.ingest_stats.unmatched_responses, 0);
        assert_eq!(
            run.ingest_stats.unanswered_queries, 0,
            "a retry's response carries the retry's id"
        );
    }

    #[test]
    fn analysis_attributes_cloud_traffic() {
        let run = run_dataset(Vantage::Nl, 2020, Scale::tiny(), 11);
        let share = run.analysis.cloud_share();
        assert!((0.2..0.45).contains(&share), "cloud share {share}");
        assert!(run.analysis.provider_share(Provider::Google) > 0.05);
        // facebook rows reached the dual-stack analysis
        assert!(run.dualstack.site_count() > 0);
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let all = crate::suite::run_suite(
            table3_specs(),
            Scale::tiny(),
            4,
            &PipelineOpts::default(),
            9,
        );
        assert_eq!(all.len(), 9);
        assert_eq!(all[0].id, "nl-w2018");
        assert_eq!(all[8].id, "broot-w2020");
        // identical to a sequential run of the same spec/seed
        let seq = run_dataset(Vantage::Nz, 2019, Scale::tiny(), 4);
        let par = &all[4];
        assert_eq!(par.id, "nz-w2019");
        assert_eq!(par.analysis.total_queries, seq.analysis.total_queries);
        assert_eq!(par.analysis.valid_queries, seq.analysis.valid_queries);
    }

    #[test]
    fn figure3_recipe_derives_one_seed_per_month() {
        let specs = figure3_specs(Vantage::Nl, Provider::Google, 42);
        assert_eq!(specs.len(), 18);
        let (year, month, _, mseed) = &specs[13];
        assert_eq!((*year, *month), (2019, 12));
        assert_eq!(*mseed, 42 ^ ((2019u64 << 8) | 12));
    }

    #[test]
    fn monthly_series_shape() {
        // a coarse scale: the series is 18 generate+analyze runs
        let series = run_monthly_series(
            Vantage::Nl,
            Provider::Google,
            Scale::tiny(),
            3,
            &PipelineOpts::default(),
            1,
        );
        assert_eq!(series.len(), 18);
        assert!(series.iter().all(|s| s.total > 0));
        // pre-Dec-2019 months have low NS share; post, high
        let pre = &series[6]; // May 2019
        let post = &series[15]; // Feb 2020
        assert!(pre.ns_share < 0.2, "pre {}", pre.ns_share);
        assert!(post.ns_share > 0.3, "post {}", post.ns_share);
    }
}
