//! End-to-end experiment runners: generate a dataset through `simnet`,
//! ingest it through `entrada`, aggregate with [`DatasetAnalysis`] —
//! the full pipeline behind every table and figure.
//!
//! The generator and the analyzer are deliberately decoupled by the
//! `.dnscap` file (as pcap decoupled the paper's collection from
//! ENTRADA): the analyzer reconstructs its enrichment context (address
//! plan, zone, PTR view) from the dataset spec + seed via the same
//! deterministic constructors the generator used.

use crate::analysis::DatasetAnalysis;
use crate::dualstack::DualStackAnalysis;
use crate::qmin::MonthlySample;
use crate::sink::{DualStackSink, FanoutSink, RowSink};
use asdb::synth::InternetPlan;
use dns_wire::types::RType;
use entrada::agg::Counter;
use entrada::enrich::Enricher;
use entrada::ingest::{CaptureIngest, IngestStats};
use netbase::capture::{CaptureReader, CaptureWriter};
use simnet::engine::{plan_config_for, DatasetStats, Engine};
use simnet::profile::Vantage;
use simnet::scenario::{
    dataset, figure3_months, monthly_google, monthly_provider, DatasetSpec, Scale,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
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

/// Generate a dataset capture to `path`. Returns generator counters.
pub fn generate_capture(
    spec: &DatasetSpec,
    scale: Scale,
    seed: u64,
    path: &Path,
) -> std::io::Result<DatasetStats> {
    generate_capture_sharded(spec, scale, seed, path, 1)
}

/// Generate a dataset capture to `path` across `shards` generator
/// threads. The file is byte-identical for any shard count.
pub fn generate_capture_sharded(
    spec: &DatasetSpec,
    scale: Scale,
    seed: u64,
    path: &Path,
    shards: usize,
) -> std::io::Result<DatasetStats> {
    let mut stage = obs::stage("pipeline.generate");
    let _span = obs::span(format!("generate {}", spec.id()));
    let engine = Engine::new(spec.clone(), scale, seed);
    let file = File::create(path)?;
    let mut writer = CaptureWriter::new(BufWriter::new(file))?;
    let stats = engine.generate_sharded(&mut writer, shards)?;
    writer.finish()?;
    stage.add_items(stats.queries + stats.responses);
    Ok(stats)
}

/// Generate a dataset capture to `path` with the algorithmic resolver
/// fleet ([`Engine::generate_fleet`]): same capture format, but every
/// record comes out of an iterative resolver's walk. `workers` stripes
/// fleets across threads; the file is byte-identical for any count.
pub fn generate_capture_fleet(
    spec: &DatasetSpec,
    scale: Scale,
    seed: u64,
    path: &Path,
    workers: usize,
) -> std::io::Result<DatasetStats> {
    let mut stage = obs::stage("pipeline.generate");
    let _span = obs::span(format!("generate-fleet {}", spec.id()));
    let engine = Engine::new(spec.clone(), scale, seed);
    let file = File::create(path)?;
    let mut writer = CaptureWriter::new(BufWriter::new(file))?;
    let stats = engine.generate_fleet(&mut writer, workers)?;
    writer.finish()?;
    stage.add_items(stats.queries + stats.responses);
    Ok(stats)
}

/// Analyze a capture at `path` generated from `(spec, scale, seed)`.
pub fn analyze_capture(
    spec: &DatasetSpec,
    scale: Scale,
    seed: u64,
    path: &Path,
) -> std::io::Result<(DatasetAnalysis, DualStackAnalysis, IngestStats)> {
    let mut stage = obs::stage("pipeline.analyze");
    let _span = obs::span(format!("analyze {}", spec.id()));
    // Reconstruct the enrichment context deterministically.
    let plan = InternetPlan::build(&plan_config_for(spec, scale, seed));
    let engine = Engine::new(spec.clone(), scale, seed); // zone + PTR view
    let enricher = Enricher::new(plan.mapper);
    let file = File::open(path)?;
    let reader = CaptureReader::new(BufReader::new(file))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut ingest = CaptureIngest::new(reader, enricher);
    let mut sink = FanoutSink::new(
        DatasetAnalysis::new(engine.zone().clone()),
        DualStackSink::new(
            DualStackAnalysis::with_servers(&spec.servers),
            engine.ptr_db(),
        ),
    );
    // The generator emits exactly one row per scheduled query, so the
    // a-priori scaled total is the expected row count — a real total
    // makes the progress line render percent + ETA.
    let mut progress = obs::Progress::new(
        format!("analyze {}", spec.id()),
        Some(engine.scaled_total()),
    );
    for row in ingest.by_ref() {
        sink.push(&row);
        progress.tick(1);
    }
    let stats = ingest.stats().clone();
    stage.add_items(stats.rows);
    crate::pipeline::warn_on_capture_errors(&spec.id(), &stats);
    let (analysis, dualstack) = sink.into_parts();
    Ok((analysis, dualstack.into_inner(), stats))
}

/// Generate + analyze one of the nine Table 3 datasets via a temp file.
pub fn run_dataset(vantage: Vantage, year: u16, scale: Scale, seed: u64) -> DatasetRun {
    run_spec(dataset(vantage, year), scale, seed)
}

/// Generate + analyze an arbitrary dataset spec. Since the pipeline
/// fusion this streams records in memory (no intermediate file); use
/// [`crate::pipeline::run_spec_with`] to shard the generator or keep
/// the capture on disk.
pub fn run_spec(spec: DatasetSpec, scale: Scale, seed: u64) -> DatasetRun {
    crate::pipeline::run_spec_with(spec, scale, seed, &crate::pipeline::PipelineOpts::default())
}

/// Run the Figure 3 longitudinal series: one Google-only sample per
/// month (Nov 2018 – Apr 2020) against one ccTLD, returning the monthly
/// qtype summaries the change-point detector consumes.
pub fn run_monthly_series(vantage: Vantage, scale: Scale, seed: u64) -> Vec<MonthlySample> {
    run_monthly_series_for(vantage, asdb::cloud::Provider::Google, scale, seed)
}

/// The Figure 3 machinery for any provider: date *their* Q-min rollout
/// the same way the paper dated Google's.
pub fn run_monthly_series_for(
    vantage: Vantage,
    provider: asdb::cloud::Provider,
    scale: Scale,
    seed: u64,
) -> Vec<MonthlySample> {
    run_monthly_series_for_jobs(vantage, provider, scale, seed, 1)
}

/// [`run_monthly_series_for`] with up to `jobs` months in flight (the
/// 18 monthly runs are independent); samples come back in month order,
/// identical to a serial run for any job count.
pub fn run_monthly_series_for_jobs(
    vantage: Vantage,
    provider: asdb::cloud::Provider,
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> Vec<MonthlySample> {
    let tasks = figure3_months()
        .into_iter()
        .map(|(year, month)| {
            let label = format!("suite.fig3-{provider:?}-{year}-{month:02}").to_lowercase();
            let task = move || {
                let spec = if provider == asdb::cloud::Provider::Google {
                    monthly_google(vantage, year, month)
                } else {
                    monthly_provider(vantage, provider, year, month)
                };
                let run = run_spec(spec, scale, seed ^ ((year as u64) << 8 | month as u64));
                let agg = run.analysis.provider(Some(provider));
                // this run covers exactly one month, so the provider
                // aggregate *is* the monthly bucket
                let mut qtypes: Counter<RType> = Counter::new();
                for (t, c) in agg.qtype.iter() {
                    qtypes.add(*t, c);
                }
                MonthlySample::from_counters(year, month, &qtypes, agg.minimized_ns)
            };
            (label, task)
        })
        .collect();
    crate::suite::run_tasks(tasks, jobs, |s: &MonthlySample| s.total)
}

/// The Figure 3 Google monthly series generated by the *algorithmic
/// resolver fleet* instead of the calibrated sampler: the same months,
/// specs and seeds as [`run_monthly_series`], but every record comes
/// out of an [`simnet::emerge::SimTransport`] walk — so the Dec-2019
/// Q-min change point in the returned samples is emergent, produced by
/// `IterativeResolver::set_qmin` flipping on the rollout date.
pub fn run_monthly_series_fleet(
    vantage: Vantage,
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> Vec<MonthlySample> {
    let provider = asdb::cloud::Provider::Google;
    let tasks = figure3_months()
        .into_iter()
        .map(|(year, month)| {
            let label = format!("suite.fig3-fleet-{year}-{month:02}");
            let task = move || {
                let spec = monthly_google(vantage, year, month);
                let run = crate::pipeline::run_spec_with(
                    spec,
                    scale,
                    seed ^ ((year as u64) << 8 | month as u64),
                    &crate::pipeline::PipelineOpts::with_fleet(),
                );
                let agg = run.analysis.provider(Some(provider));
                let mut qtypes: Counter<RType> = Counter::new();
                for (t, c) in agg.qtype.iter() {
                    qtypes.add(*t, c);
                }
                MonthlySample::from_counters(year, month, &qtypes, agg.minimized_ns)
            };
            (label, task)
        })
        .collect();
    crate::suite::run_tasks(tasks, jobs, |s: &MonthlySample| s.total)
}

/// The nine Table 3 dataset specs, in report order.
pub fn table3_specs() -> Vec<DatasetSpec> {
    [Vantage::Nl, Vantage::Nz, Vantage::BRoot]
        .into_iter()
        .flat_map(|v| [2018u16, 2019, 2020].map(|y| dataset(v, y)))
        .collect()
}

/// Run all nine Table 3 datasets, fanning out across worker threads
/// (the [`crate::suite`] scheduler; results come back in dataset
/// order). On a many-core box this turns the full-report wall time
/// into roughly the longest single dataset's.
pub fn run_all_datasets(scale: Scale, seed: u64) -> Vec<DatasetRun> {
    run_all_datasets_jobs(scale, seed, 9)
}

/// [`run_all_datasets`] with at most `jobs` datasets in flight.
pub fn run_all_datasets_jobs(scale: Scale, seed: u64, jobs: usize) -> Vec<DatasetRun> {
    crate::suite::run_suite(
        table3_specs(),
        scale,
        seed,
        &crate::pipeline::PipelineOpts::default(),
        jobs,
    )
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
    use asdb::cloud::Provider;

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
        let all = run_all_datasets(Scale::tiny(), 4);
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
    fn monthly_series_shape() {
        // a coarse scale: the series is 18 generate+analyze runs
        let series = run_monthly_series(Vantage::Nl, Scale::tiny(), 3);
        assert_eq!(series.len(), 18);
        assert!(series.iter().all(|s| s.total > 0));
        // pre-Dec-2019 months have low NS share; post, high
        let pre = &series[6]; // May 2019
        let post = &series[15]; // Feb 2020
        assert!(pre.ns_share < 0.2, "pre {}", pre.ns_share);
        assert!(post.ns_share > 0.3, "post {}", post.ns_share);
    }
}
