//! The one consumer: records become rows become sinks here and nowhere
//! else.
//!
//! A [`Consumer`] is ENTRADA's single pass — join, enrich, aggregate —
//! as a [`RecordSink`], with the [`Engine`] as the enrichment context.
//! The default path streams with no hand-off: every worker generates
//! its own stripe of hourly slices ([`Engine::generate_striped`]) and
//! feeds each straight into its own `Consumer` on the same thread, so
//! no record crosses a thread and no intermediate file exists; the
//! partials merge in worker order. The resolver fleet keeps its ordered
//! merge (its streams are stateful across slots) and runs one
//! `Consumer` on the merging thread. [`consume`] feeds a file or vector
//! source into that same `Consumer`: [`PipelineOpts::keep_capture`] is
//! the two-pass reference — generate the `.dnscap`, then one
//! [`consume`] over the file — and the same call analyzes a capture
//! that came from a live tap. All of them produce row-identical
//! results.

use crate::analysis::DatasetAnalysis;
use crate::dualstack::DualStackAnalysis;
use crate::experiments::DatasetRun;
use crate::sink::{DualStackSink, FanoutSink, RowSink};
use crate::store::{StoreSink, WarehouseTarget};
use entrada::enrich::Enricher;
use entrada::ingest::{IngestStats, Joiner};
use netbase::capture::{
    CaptureReader, CaptureRecord, CaptureWriter, RecordRef, RecordSink, RecordSlice, RecordSource,
};
use simnet::engine::{DatasetStats, Engine};
use simnet::scenario::{DatasetSpec, Scale};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How one pipeline run executes.
#[derive(Debug, Clone, Default)]
pub struct PipelineOpts {
    /// Worker-thread count, as `--shards` or `--jobs` gives it; 0 is
    /// unset ([`PipelineOpts::worker_count`]). A streamed run's workers
    /// each generate *and* analyze: every worker joins and aggregates
    /// the slices it generated into its own sinks and the partials merge
    /// in worker order — output is byte-identical for any value because
    /// every sink is an order-insensitive function of the row multiset
    /// and the generator's slices are join-self-contained.
    pub workers: usize,
    /// Write the capture to this path and analyze it from disk (the
    /// two-pass behaviour), keeping the file afterwards.
    pub keep_capture: Option<PathBuf>,
    /// Append every analyzed row to this warehouse source as it streams
    /// through. Each worker owns its own appender (partials merge like
    /// any other sink); partitions are staged on completion and left
    /// for the caller to [`warehouse::Warehouse::commit`].
    pub warehouse: Option<crate::store::WarehouseTarget>,
    /// Generate traffic with the *algorithmic resolver fleet*
    /// ([`Engine::generate_fleet`]): every record is produced by an
    /// iterative resolver walking a simulated hierarchy, instead of the
    /// calibrated per-query sampler. The workers are then lanes that
    /// share out fleets (not time ranges) and one consumer analyzes on
    /// the merging thread; the capture boundary and everything
    /// downstream of it are unchanged.
    pub fleet: bool,
}

impl PipelineOpts {
    /// Streaming pipeline with `workers` workers.
    pub fn with_workers(workers: usize) -> PipelineOpts {
        PipelineOpts {
            workers,
            ..PipelineOpts::default()
        }
    }

    /// Worker threads of one run: `workers`, or, unset, one per
    /// available core.
    pub fn worker_count(&self) -> usize {
        match self.workers {
            0 => available_cores(),
            n => n,
        }
    }

    /// Streaming pipeline over the algorithmic resolver fleet.
    pub fn with_fleet() -> PipelineOpts {
        PipelineOpts {
            fleet: true,
            ..PipelineOpts::default()
        }
    }
}

/// Cores this process may run on (1 when the platform will not say).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The in-memory analysis state of one dataset: the single-pass
/// aggregation plus the Facebook dual-stack joins against the engine's
/// PTR view. Warehouse scans ([`crate::store::analyze_source`]) fill
/// the same pair from stored rows.
pub type AnalysisSinks<'a> = FanoutSink<DatasetAnalysis, DualStackSink<'a>>;

/// Everything one consumer feeds: the analysis state and the warehouse
/// appender (a no-op branch for runs that persist nothing).
pub type Sinks<'a> = FanoutSink<AnalysisSinks<'a>, StoreSink<'a>>;

/// A fresh, empty [`AnalysisSinks`] for `engine`'s dataset.
pub fn analysis_sinks(engine: &Engine) -> AnalysisSinks<'_> {
    FanoutSink::new(
        DatasetAnalysis::new(engine.zone().clone()),
        DualStackSink::new(
            DualStackAnalysis::with_servers(&engine.spec().servers),
            engine.ptr_db(),
        ),
    )
}

/// The one pass from records to sinks, as a [`RecordSink`]: join and
/// enrich every record against `engine`'s address plan and push every
/// completed row into its own set of sinks (appending to `store` on the
/// way when there is one). Every path runs this — a streamed worker's
/// slices, the fleet's merged slices, a kept or live capture file —
/// so the analysis is the same code whatever produced the records, and
/// the partials of parallel consumers [`RowSink::merge`].
///
/// Fed by [`RecordSink::emit_slice`] it also keeps the run legible: the
/// time between slices is its producer's (generation on this thread,
/// or on the fleet plane the wait for the lanes), the time inside is
/// analysis, two clock reads a slice.
pub struct Consumer<'a> {
    /// The dataset id, for the trace span and the torn-capture warning.
    id: String,
    joiner: Joiner,
    sinks: Sinks<'a>,
    /// When the last slice was done (or this consumer made).
    mark: Instant,
    producing: Duration,
    analyzing: Duration,
}

impl<'a> Consumer<'a> {
    /// An empty consumer for `engine`'s dataset.
    pub fn new(engine: &'a Engine, store: Option<&'a WarehouseTarget>) -> Consumer<'a> {
        Consumer {
            id: engine.spec().id(),
            joiner: Joiner::new(Enricher::new(engine.plan().mapper.clone())),
            sinks: FanoutSink::new(
                analysis_sinks(engine),
                StoreSink::new(store.map(|t| t.store.appender(&t.source, t.config))),
            ),
            mark: Instant::now(),
            producing: Duration::ZERO,
            analyzing: Duration::ZERO,
        }
    }

    /// Join one record and push the rows it completes; returns how many.
    fn absorb(&mut self, rec: RecordRef<'_>) -> u64 {
        self.joiner.absorb(rec);
        self.push_ready()
    }

    fn push_ready(&mut self) -> u64 {
        let mut rows = 0;
        while let Some(row) = self.joiner.pop_ready() {
            self.sinks.push(&row);
            rows += 1;
        }
        rows
    }

    /// End of stream: flush the unanswered queries and hand back the
    /// sinks with the ingest accounting. A stream that ended on a torn
    /// record is reported here, loudly.
    pub fn finish(mut self) -> (Sinks<'a>, IngestStats) {
        self.joiner.finish();
        self.push_ready();
        let stats = self.joiner.stats().clone();
        warn_on_capture_errors(&self.id, &stats);
        (self.sinks, stats)
    }

    /// Publish what worker `w` of a streamed run spent where: its
    /// shares of the `pipeline.generate` and `pipeline.analyze` stages,
    /// its own `pipeline.worker{w}` row, and the analysis share of its
    /// time as `pipeline_worker{w}_busy_permille`.
    fn report(&self, w: usize) {
        let stats = self.joiner.stats();
        obs::stage::record("pipeline.generate", self.producing, stats.frames);
        obs::stage::record("pipeline.analyze", self.analyzing, stats.rows);
        let total = self.producing + self.analyzing;
        obs::stage::record(&format!("pipeline.worker{w}"), total, stats.rows);
        if !total.is_zero() {
            obs::gauge(
                &format!("pipeline_worker{w}_busy_permille"),
                "share of a pipeline worker's time spent analyzing (the rest produced its slices)",
            )
            .set((self.analyzing.as_secs_f64() / total.as_secs_f64() * 1000.0).round());
        }
    }
}

impl RecordSink for Consumer<'_> {
    fn emit(&mut self, rec: CaptureRecord) -> std::io::Result<()> {
        self.absorb(rec.as_ref());
        Ok(())
    }

    fn emit_slice(&mut self, _slot: u64, slice: &RecordSlice) -> std::io::Result<()> {
        let start = Instant::now();
        self.producing += start - self.mark;
        let _span = obs::trace::enabled().then(|| obs::span(format!("analyze {}", self.id)));
        for rec in slice.iter() {
            self.absorb(rec);
        }
        self.mark = Instant::now();
        self.analyzing += self.mark - start;
        Ok(())
    }
}

/// Feed all of `source` into one [`Consumer`] over `engine` and return
/// its sinks with the ingest accounting.
pub fn consume<'a>(
    mut source: impl RecordSource,
    engine: &'a Engine,
    store: Option<&'a WarehouseTarget>,
) -> (Sinks<'a>, IngestStats) {
    let mut consumer = Consumer::new(engine, store);
    let progress = obs::Progress::new(
        format!("analyze {}", engine.spec().id()),
        Some(engine.scaled_total()),
    );
    loop {
        match source.next_record() {
            Ok(Some(rec)) => progress.tick(consumer.absorb(rec.as_ref())),
            Ok(None) => break,
            Err(_) => {
                consumer.joiner.torn();
                break;
            }
        }
    }
    consumer.finish()
}

/// [`consume`] over the capture file at `path`.
pub fn consume_capture<'a>(
    path: &Path,
    engine: &'a Engine,
    store: Option<&'a WarehouseTarget>,
) -> std::io::Result<(Sinks<'a>, IngestStats)> {
    let mut stage = obs::stage("pipeline.analyze");
    let _span = obs::span(format!("analyze {}", engine.spec().id()));
    let reader = CaptureReader::new(BufReader::new(File::open(path)?))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let (sinks, stats) = consume(reader, engine, store);
    stage.add_items(stats.rows);
    Ok((sinks, stats))
}

/// Close a consumer's sinks: flush the warehouse branch (partitions
/// stay staged for the caller to [`warehouse::Warehouse::commit`]) and
/// hand back the analysis state.
pub fn finish(
    sinks: Sinks<'_>,
) -> Result<(DatasetAnalysis, DualStackAnalysis), warehouse::WarehouseError> {
    let (analysis, store) = sinks.into_parts();
    store.finish()?;
    let (analysis, dualstack) = analysis.into_parts();
    Ok((analysis, dualstack.into_inner()))
}

/// Generate `engine`'s dataset — the calibrated sampler, or the
/// resolver fleet under [`PipelineOpts::fleet`] — into a `.dnscap` file
/// at `path`; the file is byte-identical for any worker count.
pub fn write_capture(
    engine: &Engine,
    path: &Path,
    opts: &PipelineOpts,
) -> std::io::Result<DatasetStats> {
    let mut writer = CaptureWriter::new(BufWriter::new(File::create(path)?))?;
    let mut stage = obs::stage("pipeline.generate");
    let _span = obs::span(format!("generate {}", engine.spec().id()));
    let stats = if opts.fleet {
        engine.generate_fleet(&mut writer, opts.worker_count())
    } else {
        engine.generate_sharded(&mut writer, opts.worker_count())
    }?;
    stage.add_items(stats.queries + stats.responses);
    writer.finish()?;
    Ok(stats)
}

/// The streamed pipeline. Calibrated plane: every worker generates its
/// own stripe of the hourly slices and joins and aggregates them on the
/// spot in its own [`Consumer`] (sound because slices are
/// join-self-contained), so no record crosses a thread. Fleet plane:
/// the workers are the fleets' lanes and one consumer analyzes on the
/// merging thread — the incident stream shares google-public's flows,
/// so per-lane joins would not be row-safe. The partials merge in
/// worker order.
fn stream<'a>(
    engine: &'a Engine,
    opts: &'a PipelineOpts,
) -> (DatasetStats, Sinks<'a>, IngestStats) {
    let _span = obs::span(format!("generate {}", engine.spec().id()));
    let store = opts.warehouse.as_ref();
    let workers = opts.worker_count();
    let consumer = || Consumer::new(engine, store);
    let (gen_stats, consumers) = if opts.fleet {
        let mut merger = consumer();
        (engine.generate_fleet(&mut merger, workers), vec![merger])
    } else {
        let mut consumers: Vec<_> = (0..workers).map(|_| consumer()).collect();
        (engine.generate_striped(&mut consumers), consumers)
    };
    let gen_stats = gen_stats.expect("streamed generation succeeds");
    let mut parts = consumers.into_iter().enumerate().map(|(w, consumer)| {
        consumer.report(w);
        consumer.finish()
    });
    let (mut sinks, mut ingest_stats) = parts.next().expect("at least one worker");
    for (partial, partial_stats) in parts {
        sinks.merge(partial);
        ingest_stats.merge(&partial_stats);
    }
    (gen_stats, sinks, ingest_stats)
}

/// Generate + analyze an arbitrary dataset spec with explicit pipeline
/// options: streamed (default), or via a kept on-disk capture that is
/// generated and then consumed in one pass; 1..N generator shards
/// either way.
pub fn run_spec_with(
    spec: DatasetSpec,
    scale: Scale,
    seed: u64,
    opts: &PipelineOpts,
) -> DatasetRun {
    let engine = Engine::new(spec.clone(), scale, seed);
    let (gen_stats, sinks, ingest_stats) = match &opts.keep_capture {
        Some(path) => {
            let gen_stats =
                write_capture(&engine, path, opts).expect("capture generation succeeds");
            let (sinks, ingest_stats) = consume_capture(path, &engine, opts.warehouse.as_ref())
                .expect("capture analysis succeeds");
            (gen_stats, sinks, ingest_stats)
        }
        None => stream(&engine, opts),
    };
    let (analysis, dualstack) = finish(sinks).expect("warehouse append flushes cleanly");
    DatasetRun {
        id: spec.id(),
        spec,
        analysis,
        dualstack,
        gen_stats,
        ingest_stats,
    }
}

/// Surface torn/corrupt capture records: a nonzero count means the
/// ingest stream ended early and every downstream table is computed
/// from a partial dataset — loud on stderr, counted for scrapes.
fn warn_on_capture_errors(id: &str, stats: &IngestStats) {
    if stats.capture_errors > 0 {
        eprintln!(
            "warning: {id}: {} torn/corrupt capture record(s) cut the ingest stream short; \
             results cover only the intact prefix",
            stats.capture_errors
        );
        obs::counter(
            "pipeline_capture_errors_total",
            "torn/corrupt capture records observed by experiment runs",
        )
        .add(stats.capture_errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_spec, temp_capture_path};
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;

    /// One consumer, however it is fed: slice by slice as a streamed
    /// worker or the fleet's merger feeds it, record by record, or by
    /// [`consume`] over a vector source — the same accounting and the
    /// same rendered report.
    #[test]
    fn consumer_is_one_pass_however_it_is_fed() {
        let engine = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 19);
        let mut records: Vec<CaptureRecord> = Vec::new();
        engine.generate_sharded(&mut records, 1).unwrap();
        let render = |(sinks, stats): (Sinks, IngestStats)| {
            let (analysis, dualstack) = finish(sinks).unwrap();
            let spec = engine.spec();
            let text = crate::report::render_dataset_report(
                &spec.id(),
                spec.vantage,
                &analysis,
                &dualstack,
                spec,
            );
            (text, stats)
        };
        let pulled = render(consume(records.clone().into_iter(), &engine, None));
        assert!(pulled.1.rows > 0 && pulled.1.balanced(), "{:?}", pulled.1);

        let mut by_slice = Consumer::new(&engine, None);
        engine.generate_sharded(&mut by_slice, 1).unwrap();
        assert!(render(by_slice.finish()) == pulled, "fed by slice");

        let mut by_record = Consumer::new(&engine, None);
        for rec in records {
            by_record.emit(rec).unwrap();
        }
        assert!(render(by_record.finish()) == pulled, "fed by record");
    }

    /// The tentpole's correctness claim: the in-memory streamed path
    /// and the kept-capture disk path produce identical results.
    #[test]
    fn streamed_matches_disk_roundtrip() {
        let spec = dataset(Vantage::Nz, 2020);
        let streamed = run_spec_with(spec.clone(), Scale::tiny(), 23, &PipelineOpts::default());
        let path = temp_capture_path("pipeline-disk", 23);
        let disk = run_spec_with(
            spec,
            Scale::tiny(),
            23,
            &PipelineOpts {
                keep_capture: Some(path.clone()),
                ..Default::default()
            },
        );
        assert!(path.exists(), "--keep-capture leaves the file behind");
        let _ = std::fs::remove_file(&path);
        assert_eq!(streamed.ingest_stats, disk.ingest_stats);
        assert_eq!(streamed.gen_stats.queries, disk.gen_stats.queries);
        assert_eq!(streamed.analysis.total_queries, disk.analysis.total_queries);
        assert_eq!(streamed.analysis.valid_queries, disk.analysis.valid_queries);
        assert_eq!(streamed.analysis.cloud_share(), disk.analysis.cloud_share());
    }

    /// Four workers equal the single-threaded consumer, on two inputs:
    /// same rows, same joins, same aggregates, same accounting.
    #[test]
    fn parallel_analysis_matches_single_worker() {
        for (vantage, year, seed) in [(Vantage::Nz, 2019, 31), (Vantage::Nl, 2020, 17)] {
            let spec = dataset(vantage, year);
            let id = spec.id();
            let one = run_spec_with(
                spec.clone(),
                Scale::tiny(),
                seed,
                &PipelineOpts::with_workers(1),
            );
            let four = run_spec_with(spec, Scale::tiny(), seed, &PipelineOpts::with_workers(4));
            assert_eq!(one.ingest_stats, four.ingest_stats, "{id}");
            assert!(
                four.ingest_stats.balanced(),
                "{id}: {:?}",
                four.ingest_stats
            );
            assert_eq!(one.gen_stats.queries, four.gen_stats.queries, "{id}");
            assert_eq!(one.gen_stats.per_fleet, four.gen_stats.per_fleet, "{id}");
            assert_eq!(
                one.analysis.total_queries, four.analysis.total_queries,
                "{id}"
            );
            assert_eq!(
                one.analysis.valid_queries, four.analysis.valid_queries,
                "{id}"
            );
            assert_eq!(
                one.analysis.cloud_share(),
                four.analysis.cloud_share(),
                "{id}"
            );
            assert_eq!(one.analysis.resolvers(), four.analysis.resolvers(), "{id}");
            assert_eq!(
                one.dualstack.dual_stack_resolvers(),
                four.dualstack.dual_stack_resolvers(),
                "{id}"
            );
            assert_eq!(
                one.dualstack.site_count(),
                four.dualstack.site_count(),
                "{id}"
            );
        }
    }

    /// The fleet generator streams through the same ingest unchanged:
    /// accounting balances, rows appear, and parallel analysis workers
    /// agree with the serial consumer.
    #[test]
    fn fleet_path_flows_through_ingest() {
        let spec = dataset(Vantage::Nl, 2020);
        let one = run_spec_with(spec.clone(), Scale::tiny(), 13, &PipelineOpts::with_fleet());
        assert!(one.ingest_stats.rows > 0, "fleet produced no rows");
        assert_eq!(one.ingest_stats.capture_errors, 0);
        assert!(one.ingest_stats.balanced(), "{:?}", one.ingest_stats);
        assert_eq!(one.gen_stats.queries, one.ingest_stats.rows);
        let four = run_spec_with(
            spec,
            Scale::tiny(),
            13,
            &PipelineOpts {
                fleet: true,
                workers: 3,
                ..Default::default()
            },
        );
        assert_eq!(one.ingest_stats, four.ingest_stats);
        assert_eq!(one.analysis.total_queries, four.analysis.total_queries);
        assert_eq!(one.analysis.cloud_share(), four.analysis.cloud_share());
    }

    /// Fleet streaming equals the fleet kept-capture disk round trip.
    #[test]
    fn fleet_streamed_matches_disk_roundtrip() {
        let spec = dataset(Vantage::Nz, 2019);
        let streamed = run_spec_with(spec.clone(), Scale::tiny(), 5, &PipelineOpts::with_fleet());
        let path = temp_capture_path("pipeline-fleet-disk", 5);
        let disk = run_spec_with(
            spec,
            Scale::tiny(),
            5,
            &PipelineOpts {
                fleet: true,
                keep_capture: Some(path.clone()),
                ..Default::default()
            },
        );
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
        assert_eq!(streamed.ingest_stats, disk.ingest_stats);
        assert_eq!(streamed.gen_stats.queries, disk.gen_stats.queries);
        assert_eq!(streamed.analysis.total_queries, disk.analysis.total_queries);
        assert_eq!(streamed.analysis.cloud_share(), disk.analysis.cloud_share());
    }

    /// The default `run_spec` is the streaming path and its accounting
    /// balances with zero capture errors.
    #[test]
    fn default_run_is_clean() {
        let run = run_spec(dataset(Vantage::Nl, 2018), Scale::tiny(), 2);
        assert_eq!(run.ingest_stats.capture_errors, 0);
        assert!(run.ingest_stats.balanced(), "{:?}", run.ingest_stats);
        assert_eq!(run.gen_stats.queries, run.ingest_stats.rows);
    }
}
