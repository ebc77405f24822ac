//! The warehouse bridge: feed pipeline rows into a persistent
//! [`warehouse::Warehouse`] and rebuild every report from partition
//! scans instead of in-memory runs.
//!
//! The paper's split between collection and analysis was ENTRADA's
//! Parquet-on-HDFS warehouse; this module is the equivalent seam. The
//! write side hangs a [`StoreSink`] off the fused pipeline's fanout
//! (every analysis worker owns an appender, partials merge like any
//! other [`RowSink`]), so `ingest` fills partitions in the same single
//! pass that produces the in-memory report. The read side rebuilds the
//! exact per-dataset analysis from committed partitions: each source
//! records its `(spec, scale, seed)` as manifest metadata
//! ([`SourceInfo`]), scans rebuild the same [`Engine`] from it that
//! [`crate::experiments::analyze_capture`] does for a capture file and
//! fill the same [`analysis_sinks`], and partition chunks fan out over
//! [`crate::suite::run_tasks`] — order-insensitive sinks make the
//! result byte-identical to the in-memory path for any `--jobs` value.

use crate::analysis::DatasetAnalysis;
use crate::dualstack::DualStackAnalysis;
use crate::experiments::{figure3_specs, monthly_sample, DatasetRun};
use crate::paper::{compare_rows, comparison_specs, ComparisonRow, Measured};
use crate::pipeline::{analysis_sinks, run_spec_with, PipelineOpts};
use crate::qmin::MonthlySample;
use crate::sink::RowSink;
use asdb::cloud::Provider;
use entrada::schema::QueryRow;
use serde::{Deserialize, Serialize};
use simnet::engine::Engine;
use simnet::profile::Vantage;
use simnet::scenario::{DatasetSpec, Scale};
use std::sync::Arc;
use warehouse::scan::row_matches;
use warehouse::{AppendConfig, AppendStats, Appender, Predicate, ScanStats, Warehouse};

/// The identity a warehouse source records in the manifest: everything
/// a scan needs to rebuild the enrichment context (zone, PTR view,
/// server list) exactly as the ingest that wrote the rows had it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceInfo {
    /// The dataset spec the rows were generated from.
    pub spec: DatasetSpec,
    /// Scale the run used.
    pub scale: Scale,
    /// Seed the run used.
    pub seed: u64,
}

/// Where the pipeline appends rows: a shared open warehouse, the
/// source id to append under, and the partition flush budget.
#[derive(Debug, Clone)]
pub struct WarehouseTarget {
    /// The open warehouse (shared across ingest workers).
    pub store: Arc<Warehouse>,
    /// Source id the rows append under (register it first with
    /// [`ensure_source`]).
    pub source: String,
    /// Appender tuning (partition width, row/byte flush budget).
    pub config: AppendConfig,
}

/// [`RowSink`] adapter over an optional [`Appender`], so the pipeline
/// can thread a warehouse branch through its existing fanout without
/// special-casing runs that do not persist anything.
pub struct StoreSink<'w>(Option<Appender<'w>>);

impl<'w> StoreSink<'w> {
    /// Wrap an appender (or nothing, for runs without a warehouse).
    pub fn new(appender: Option<Appender<'w>>) -> Self {
        StoreSink(appender)
    }

    /// Flush the appender's open buckets. Partitions stay staged until
    /// the caller commits the warehouse.
    pub fn finish(self) -> Result<AppendStats, warehouse::WarehouseError> {
        match self.0 {
            Some(app) => app.finish(),
            None => Ok(AppendStats::default()),
        }
    }
}

impl RowSink for StoreSink<'_> {
    fn push(&mut self, row: &QueryRow) {
        if let Some(app) = &mut self.0 {
            if obs::flight::sampling_enabled() {
                let key = obs::flight::query_key(row.timestamp.as_micros(), &row.src, row.src_port);
                if obs::flight::sampled(key) {
                    obs::flight::hop("warehouse.append", key);
                }
            }
            app.push(row);
        }
    }

    fn merge(&mut self, other: Self) {
        match (&mut self.0, other.0) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => unreachable!("all sinks of one run share the same warehouse target"),
        }
    }
}

/// Register `id` in the warehouse manifest with `info` as its
/// metadata, or verify that an existing registration matches —
/// re-ingesting under a different spec/scale/seed is rejected because
/// scans would rebuild the wrong enrichment context.
pub fn ensure_source(wh: &Warehouse, id: &str, info: &SourceInfo) -> Result<(), String> {
    let meta = serde_json::to_string(info).expect("source metadata serializes");
    wh.ensure_source(id, &meta).map_err(|e| e.to_string())
}

/// Load and parse one source's recorded [`SourceInfo`].
pub fn source_info(wh: &Warehouse, id: &str) -> Result<SourceInfo, String> {
    let meta = wh
        .source(id)
        .ok_or_else(|| format!("warehouse has no source {id:?} (run `dnscentral ingest` first)"))?;
    serde_json::from_str(&meta.meta).map_err(|e| format!("source {id:?} metadata unreadable: {e}"))
}

/// Register `id` as the source of a `(spec, scale, seed)` run
/// ([`ensure_source`]) and return the target its rows append under.
pub fn register(
    wh: &Arc<Warehouse>,
    id: &str,
    spec: &DatasetSpec,
    scale: Scale,
    seed: u64,
    config: AppendConfig,
) -> Result<WarehouseTarget, String> {
    let info = SourceInfo {
        spec: spec.clone(),
        scale,
        seed,
    };
    ensure_source(wh, id, &info)?;
    Ok(WarehouseTarget {
        store: Arc::clone(wh),
        source: id.to_string(),
        config,
    })
}

/// Generate + analyze `spec` with the pipeline, appending every row to
/// the warehouse under `spec.id()` on the way through. Staged
/// partitions are left for the caller to [`Warehouse::commit`], so one
/// CLI invocation is one atomic manifest update.
pub fn ingest_spec(
    wh: &Arc<Warehouse>,
    spec: DatasetSpec,
    scale: Scale,
    seed: u64,
    opts: &PipelineOpts,
    config: AppendConfig,
) -> Result<DatasetRun, String> {
    let opts = PipelineOpts {
        warehouse: Some(register(wh, &spec.id(), &spec, scale, seed, config)?),
        ..opts.clone()
    };
    Ok(run_spec_with(spec, scale, seed, &opts))
}

/// The warehouse source id of one Figure 3 monthly sample.
pub fn monthly_source_id(vantage: Vantage, provider: Provider, year: i32, month: u32) -> String {
    format!("fig3-{provider:?}-{vantage:?}-{year}-{month:02}").to_lowercase()
}

/// Ingest the 18-month Figure 3 series ([`figure3_specs`]) for one
/// vantage and provider, up to `jobs` months in flight. Each month is
/// its own warehouse source carrying its own spec and derived seed.
/// Staged partitions are left for the caller to commit.
#[allow(clippy::too_many_arguments)]
pub fn ingest_monthly(
    wh: &Arc<Warehouse>,
    vantage: Vantage,
    provider: Provider,
    scale: Scale,
    seed: u64,
    opts: &PipelineOpts,
    config: AppendConfig,
    jobs: usize,
) -> Result<Vec<DatasetRun>, String> {
    // Register every source before any generation work, so a
    // spec/scale/seed conflict fails fast instead of mid-series.
    let months = figure3_specs(vantage, provider, seed)
        .into_iter()
        .map(|(year, month, spec, mseed)| {
            let id = monthly_source_id(vantage, provider, year, month);
            let target = register(wh, &id, &spec, scale, mseed, config)?;
            Ok((spec, mseed, target))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (jobs, opts) = crate::suite::share_machine(opts, jobs, months.len());
    let tasks = months
        .into_iter()
        .map(|(spec, mseed, target)| {
            let label = format!("store.ingest.{}", target.source);
            let opts = PipelineOpts {
                warehouse: Some(target),
                ..opts.clone()
            };
            (label, move || run_spec_with(spec, scale, mseed, &opts))
        })
        .collect();
    Ok(crate::suite::run_tasks(tasks, jobs, |run: &DatasetRun| {
        run.ingest_stats.rows
    }))
}

/// One source's full analysis state, rebuilt from warehouse scans.
pub struct SourceAnalysis {
    /// The source id (usually the dataset id, `nl-w2020`...).
    pub id: String,
    /// The recorded identity the enrichment context came from.
    pub info: SourceInfo,
    /// The aggregated analysis over the matching rows.
    pub analysis: DatasetAnalysis,
    /// The Facebook dual-stack analysis over the matching rows.
    pub dualstack: DualStackAnalysis,
    /// Scan accounting (pruned/scanned/corrupt partitions, row counts).
    pub stats: ScanStats,
}

/// Rebuild one source's analysis from committed partitions, with
/// `pred` pushed down (zone-map pruning first, residual row filter on
/// survivors). Partitions are split into at most `jobs * 4` contiguous
/// chunks scanned in parallel, each holding one decoded partition at a
/// time — memory stays bounded by `jobs`, not warehouse size — and the
/// chunk partials merge in input order, so the result is byte-identical
/// for any job count.
pub fn analyze_source(
    wh: &Warehouse,
    id: &str,
    pred: &Predicate,
    jobs: usize,
) -> Result<SourceAnalysis, String> {
    let info = source_info(wh, id)?;
    let mut pred = pred.clone();
    pred.source = Some(id.to_string());
    let (metas, mut stats) = wh.plan(&pred);
    if warehouse::explain::enabled() {
        let text = warehouse::explain::render_plan(&pred, &metas, &stats);
        warehouse::explain::record_plan(id.to_string(), text);
    }
    // the enrichment context (zone, PTR view, server list), rebuilt
    // as analyze_capture does
    let engine = Engine::new(info.spec.clone(), info.scale, info.seed);
    let engine_ref = &engine;

    let sink = if metas.is_empty() {
        analysis_sinks(engine_ref)
    } else {
        let chunk_count = metas.len().min(jobs.max(1) * 4);
        let chunk_size = metas.len().div_ceil(chunk_count);
        let pred_ref = &pred;
        let tasks: Vec<(String, _)> = metas
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, chunk)| {
                let label = format!("store.scan.{id}.{i}");
                (label, move || {
                    let mut stats = ScanStats::default();
                    let mut sink = analysis_sinks(engine_ref);
                    for meta in chunk {
                        let Some(batch) = wh.read_for_scan(meta, &mut stats) else {
                            continue;
                        };
                        for row in batch.iter() {
                            if row_matches(&row, pred_ref) {
                                stats.rows_matched += 1;
                                sink.push(&row);
                            }
                        }
                    }
                    (sink, stats)
                })
            })
            .collect();
        let mut parts =
            crate::suite::run_tasks(tasks, jobs, |(_, s): &(_, ScanStats)| s.rows).into_iter();
        let (mut sink, part_stats) = parts.next().expect("at least one chunk");
        stats.merge(&part_stats);
        for (partial, partial_stats) in parts {
            sink.merge(partial);
            stats.merge(&partial_stats);
        }
        sink
    };

    let (analysis, dualstack) = sink.into_parts();
    let dualstack = dualstack.into_inner();
    Ok(SourceAnalysis {
        id: id.to_string(),
        info,
        analysis,
        dualstack,
        stats,
    })
}

/// The sources a warehouse report covers: the one `pred` names, or
/// every registered dataset source in registration order — the
/// `fig3-*` monthly samples are series points, not datasets, and
/// belong to [`monthly_series`].
fn report_sources(wh: &Warehouse, pred: &Predicate) -> Vec<String> {
    match &pred.source {
        Some(id) => vec![id.clone()],
        None => wh
            .sources()
            .into_iter()
            .map(|s| s.id)
            .filter(|id| !id.starts_with("fig3-"))
            .collect(),
    }
}

/// Rebuild every covered source's analysis from warehouse scans.
pub fn analyze_sources(
    wh: &Warehouse,
    pred: &Predicate,
    jobs: usize,
) -> Result<Vec<SourceAnalysis>, String> {
    report_sources(wh, pred)
        .iter()
        .map(|id| analyze_source(wh, id, pred, jobs))
        .collect()
}

/// The per-dataset text report (the same exhibits `dnscentral dataset`
/// prints) for every covered source, rendered from warehouse scans,
/// plus the merged scan accounting.
pub fn render_report(
    wh: &Warehouse,
    pred: &Predicate,
    jobs: usize,
) -> Result<(String, ScanStats), String> {
    let mut out = String::new();
    let mut stats = ScanStats::default();
    for sa in analyze_sources(wh, pred, jobs)? {
        out.push_str(&crate::report::render_dataset_report(
            &sa.id,
            sa.info.spec.vantage,
            &sa.analysis,
            &sa.dualstack,
            &sa.info.spec,
        ));
        stats.merge(&sa.stats);
    }
    Ok((out, stats))
}

/// The JSON report from warehouse scans: one
/// [`crate::report::dataset_json`] document per covered source. A
/// single-source scan yields that document bare (exactly what
/// `dnscentral dataset --json` prints), several yield an array.
pub fn report_json(
    wh: &Warehouse,
    pred: &Predicate,
    jobs: usize,
) -> Result<(serde_json::Value, ScanStats), String> {
    let sas = analyze_sources(wh, pred, jobs)?;
    let mut stats = ScanStats::default();
    let mut docs: Vec<serde_json::Value> = Vec::with_capacity(sas.len());
    for sa in &sas {
        docs.push(crate::report::dataset_json(&sa.id, &sa.analysis));
        stats.merge(&sa.stats);
    }
    let doc = if docs.len() == 1 {
        docs.pop().expect("one doc")
    } else {
        serde_json::Value::Array(docs)
    };
    Ok((doc, stats))
}

/// The Figure 3 monthly series from warehouse scans: one sample per
/// ingested `fig3-*` source, up to `jobs` months in flight, samples in
/// month order for any job count.
pub fn monthly_series(
    wh: &Warehouse,
    vantage: Vantage,
    provider: Provider,
    jobs: usize,
) -> Result<(Vec<MonthlySample>, ScanStats), String> {
    // only the month list matters here: each source's spec and seed
    // come back from its manifest metadata
    let tasks = figure3_specs(vantage, provider, 0)
        .into_iter()
        .map(|(year, month, ..)| {
            let id = monthly_source_id(vantage, provider, year, month);
            let label = format!("store.fig3.{id}");
            let task = move || -> Result<(MonthlySample, ScanStats), String> {
                let sa = analyze_source(wh, &id, &Predicate::all(), 1)?;
                Ok((
                    monthly_sample(year, month, provider, &sa.analysis),
                    sa.stats,
                ))
            };
            (label, task)
        })
        .collect();
    let out = crate::suite::run_tasks(tasks, jobs, |r: &Result<(MonthlySample, ScanStats), _>| {
        r.as_ref().map(|(s, _)| s.total).unwrap_or(0)
    });
    let mut series = Vec::with_capacity(out.len());
    let mut stats = ScanStats::default();
    for r in out {
        let (sample, s) = r?;
        series.push(sample);
        stats.merge(&s);
    }
    Ok((series, stats))
}

/// The measured-vs-paper comparison ([`crate::paper::compare_with`])
/// rebuilt entirely from warehouse scans: the five comparison datasets
/// plus both Figure 3 series must have been ingested. Produces the
/// same rows the in-memory run does on the same `(scale, seed)`.
pub fn compare(wh: &Warehouse, jobs: usize) -> Result<(Vec<ComparisonRow>, ScanStats), String> {
    let mut stats = ScanStats::default();
    let mut datasets = Vec::new();
    for spec in comparison_specs() {
        let sa = analyze_source(wh, &spec.id(), &Predicate::all(), jobs)?;
        stats.merge(&sa.stats);
        datasets.push(Measured {
            id: sa.id,
            analysis: sa.analysis,
        });
    }
    let (nl_series, nl_stats) = monthly_series(wh, Vantage::Nl, Provider::Google, jobs)?;
    let (nz_series, nz_stats) = monthly_series(wh, Vantage::Nz, Provider::Google, jobs)?;
    stats.merge(&nl_stats);
    stats.merge(&nz_stats);
    Ok((compare_rows(&datasets, &nl_series, &nz_series), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::scenario::dataset;

    #[test]
    fn monthly_ids_are_distinct_and_stable() {
        let a = monthly_source_id(Vantage::Nl, Provider::Google, 2019, 12);
        let b = monthly_source_id(Vantage::Nz, Provider::Google, 2019, 12);
        let c = monthly_source_id(Vantage::Nl, Provider::Google, 2020, 1);
        assert_eq!(a, "fig3-google-nl-2019-12");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn source_info_roundtrips_through_manifest_metadata() {
        let dir = std::env::temp_dir().join(format!("dnswh-src-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wh = Warehouse::open(&dir).unwrap();
        let info = SourceInfo {
            spec: dataset(Vantage::Nz, 2019),
            scale: Scale::tiny(),
            seed: 77,
        };
        ensure_source(&wh, "nz-w2019", &info).unwrap();
        // same identity re-registers cleanly; a different seed is refused
        ensure_source(&wh, "nz-w2019", &info).unwrap();
        let again = SourceInfo {
            seed: 78,
            ..info.clone()
        };
        assert!(ensure_source(&wh, "nz-w2019", &again).is_err());
        let back = source_info(&wh, "nz-w2019").unwrap();
        assert_eq!(back.seed, 77);
        assert_eq!(back.spec.id(), "nz-w2019");
        assert!(source_info(&wh, "missing").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
