//! The one consumer: records become rows become sinks here and nowhere
//! else.
//!
//! [`consume`] is ENTRADA's single pass — join, enrich, aggregate — over
//! any [`RecordSource`], with the [`Engine`] as the enrichment context.
//! The default path streams: the (optionally sharded) engine hands each
//! hourly slice, whole, to a [`SliceRouter`], which routes it over a
//! bounded channel to one of `jobs` consumers; backpressure is the
//! channel bound and no intermediate file exists.
//! [`PipelineOpts::keep_capture`] is the two-pass reference: generate
//! the `.dnscap`, then one [`consume`] over the file. Both produce
//! row-identical results, and the same call analyzes a capture that
//! came from a live tap.

use crate::analysis::DatasetAnalysis;
use crate::dualstack::DualStackAnalysis;
use crate::experiments::DatasetRun;
use crate::sink::{DualStackSink, FanoutSink, RowSink};
use crate::store::{StoreSink, WarehouseTarget};
use entrada::enrich::Enricher;
use entrada::ingest::{CaptureIngest, IngestStats};
use entrada::schema::QueryRow;
use netbase::capture::{
    CaptureError, CaptureReader, CaptureRecord, CaptureWriter, Direction, RecordSink, RecordSource,
};
use simnet::engine::{DatasetStats, Engine};
use simnet::scenario::{DatasetSpec, Scale};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

/// How one pipeline run executes.
#[derive(Debug, Clone, Default)]
pub struct PipelineOpts {
    /// Generator worker-thread count (0 and 1 both mean
    /// single-threaded). Output is byte-identical for any value.
    pub shards: usize,
    /// Analysis (ingest→aggregate) worker-thread count (0 and 1 both
    /// mean single-threaded). Whole time slices are routed to workers,
    /// each runs join+enrich+push into its own sink, and the partials
    /// are merged in worker order — output is byte-identical for any
    /// value because every sink is an order-insensitive function of the
    /// row multiset and the generator's slices are join-self-contained.
    pub jobs: usize,
    /// Write the capture to this path and analyze it from disk (the
    /// two-pass behaviour), keeping the file afterwards.
    pub keep_capture: Option<PathBuf>,
    /// Append every analyzed row to this warehouse source as it streams
    /// through. Each analysis worker owns its own appender (partials
    /// merge like any other sink); partitions are staged on completion
    /// and left for the caller to [`warehouse::Warehouse::commit`].
    pub warehouse: Option<crate::store::WarehouseTarget>,
    /// Generate traffic with the *algorithmic resolver fleet*
    /// ([`Engine::generate_fleet`]): every record is produced by an
    /// iterative resolver walking a simulated hierarchy, instead of the
    /// calibrated per-query sampler. `shards` then stripes fleets (not
    /// time ranges) across generator threads; the capture boundary and
    /// everything downstream of it are unchanged.
    pub fleet: bool,
}

impl PipelineOpts {
    /// Streaming pipeline with `shards` generator threads.
    pub fn with_shards(shards: usize) -> PipelineOpts {
        PipelineOpts {
            shards,
            ..PipelineOpts::default()
        }
    }

    /// Streaming pipeline with `jobs` analysis workers.
    pub fn with_jobs(jobs: usize) -> PipelineOpts {
        PipelineOpts {
            jobs,
            ..PipelineOpts::default()
        }
    }

    /// Effective shard count (at least 1).
    pub fn shard_count(&self) -> usize {
        self.shards.max(1)
    }

    /// Effective analysis-worker count (at least 1).
    pub fn job_count(&self) -> usize {
        self.jobs.max(1)
    }

    /// Streaming pipeline over the algorithmic resolver fleet.
    pub fn with_fleet() -> PipelineOpts {
        PipelineOpts {
            fleet: true,
            ..PipelineOpts::default()
        }
    }
}

/// Flight-recorder hop for a sampled query leaving the generator
/// (responses never sample).
fn note_gen_hop(rec: &CaptureRecord) {
    if rec.direction == Direction::Query {
        let key =
            obs::flight::query_key(rec.timestamp.as_micros(), &rec.flow.src, rec.flow.src_port);
        if obs::flight::sampled(key) {
            obs::flight::hop("pipeline.gen", key);
        }
    }
}

/// Flight-recorder hops for a sampled row coming out of ingest and
/// about to be pushed into the analysis sinks. The key derives from
/// the same (timestamp, src, src_port) triple the generator hop used,
/// so one query's events chain across the pipeline.
#[inline]
fn note_row_hops(row: &QueryRow) {
    if obs::flight::sampling_enabled() {
        let key = obs::flight::query_key(row.timestamp.as_micros(), &row.src, row.src_port);
        if obs::flight::sampled(key) {
            obs::flight::hop("pipeline.ingest", key);
            obs::flight::hop("pipeline.sink", key);
        }
    }
}

/// Slices buffered in flight per analysis worker. A slice is one
/// generator hour — the unit the join state partitions on — so this
/// bounds streamed-pipeline memory to `jobs * SLICE_DEPTH` slices and
/// applies backpressure when analysis lags.
const SLICE_DEPTH: usize = 2;

/// [`RecordSink`] that routes whole time slices to analysis workers:
/// the generator hands each slice over as one vector
/// ([`RecordSink::emit_slice`]) and it goes, untouched, to worker
/// `slot % jobs`. Because every query/response exchange falls entirely
/// within one slice, each worker's ingest joins exactly the
/// transactions it would have joined serially — the
/// per-slice-partitionable join state the parallel consumer rests on.
/// A full channel blocks (backpressure); a disconnected one surfaces as
/// a broken pipe.
pub struct SliceRouter {
    txs: Vec<crossbeam::channel::Sender<Vec<CaptureRecord>>>,
}

impl SliceRouter {
    /// Route slices round-robin by slot over the given worker channels.
    pub fn new(txs: Vec<crossbeam::channel::Sender<Vec<CaptureRecord>>>) -> SliceRouter {
        assert!(!txs.is_empty(), "at least one analysis worker");
        SliceRouter { txs }
    }
}

impl RecordSink for SliceRouter {
    /// A record outside any slice travels as a slice of its own.
    fn emit(&mut self, rec: CaptureRecord) -> std::io::Result<()> {
        self.emit_slice(0, vec![rec])
    }

    fn emit_slice(&mut self, slot: u64, slice: Vec<CaptureRecord>) -> std::io::Result<()> {
        if obs::flight::sampling_enabled() {
            slice.iter().for_each(note_gen_hop);
        }
        self.txs[(slot as usize) % self.txs.len()]
            .send(slice)
            .map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "pipeline analysis worker disconnected",
                )
            })
    }
}

/// [`RecordSource`] over the receiving half: sender disconnect (the
/// generator finished and dropped its router) is the clean
/// end-of-stream. Busy/idle and queue-depth accounting is updated once
/// per slice refill (two clock reads per slice), so the per-record path
/// stays untouched.
pub struct ChannelSource {
    rx: crossbeam::channel::Receiver<Vec<CaptureRecord>>,
    buf: std::vec::IntoIter<CaptureRecord>,
    util: obs::Utilization,
    queue: obs::QueueDepth,
    /// When the last refill handed a slice to the consumer; the gap to
    /// the next refill is time spent analyzing that slice.
    last_refill: Option<std::time::Instant>,
}

impl ChannelSource {
    /// Wrap the receiving half of a slice channel, registering
    /// `{prefix}_busy_permille` (consumer busy fraction) and
    /// `{prefix}_queue_depth`/`_peak` (slices waiting in the channel)
    /// in the global metrics registry.
    pub fn new(
        rx: crossbeam::channel::Receiver<Vec<CaptureRecord>>,
        prefix: &str,
    ) -> ChannelSource {
        ChannelSource {
            rx,
            buf: Vec::new().into_iter(),
            util: obs::Utilization::new(obs::gauge(
                &format!("{prefix}_busy_permille"),
                "analysis consumer busy fraction (permille, windowed)",
            )),
            queue: obs::QueueDepth::register(
                prefix,
                "record slices buffered between generator and ingest",
            ),
            last_refill: None,
        }
    }
}

impl RecordSource for ChannelSource {
    fn next_record(&mut self) -> Result<Option<CaptureRecord>, CaptureError> {
        loop {
            if let Some(rec) = self.buf.next() {
                return Ok(Some(rec));
            }
            let now = std::time::Instant::now();
            if let Some(prev) = self.last_refill.take() {
                self.util.busy(now.duration_since(prev));
            }
            let Ok(slice) = self.rx.recv() else {
                return Ok(None);
            };
            let refilled = std::time::Instant::now();
            self.util.idle(refilled.duration_since(now));
            self.queue.record(self.rx.len());
            self.last_refill = Some(refilled);
            self.buf = slice.into_iter();
        }
    }
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

/// The one pass from records to sinks: join and enrich `source` against
/// `engine`'s address plan, push every row into a fresh set of sinks
/// (appending to `store` on the way when there is one) and return them
/// with the ingest accounting. Every path runs this — a streamed slice
/// channel, a kept or live capture file, `jobs` of them in parallel
/// whose partials [`RowSink::merge`] — so the analysis is the same code
/// whatever produced the records. A source cut short by a torn record
/// is reported here, loudly; progress is reported against the dataset's
/// total, of which a parallel consumer sees its share.
pub fn consume<'a>(
    source: impl RecordSource,
    engine: &'a Engine,
    store: Option<&'a WarehouseTarget>,
) -> (Sinks<'a>, IngestStats) {
    let mut ingest = CaptureIngest::new(source, Enricher::new(engine.plan().mapper.clone()));
    let mut sinks = FanoutSink::new(
        analysis_sinks(engine),
        StoreSink::new(store.map(|t| t.store.appender(&t.source, t.config))),
    );
    let mut progress = obs::Progress::new(
        format!("analyze {}", engine.spec().id()),
        Some(engine.scaled_total()),
    );
    for row in ingest.by_ref() {
        note_row_hops(&row);
        sinks.push(&row);
        progress.tick(1);
    }
    let stats = ingest.stats().clone();
    warn_on_capture_errors(&engine.spec().id(), &stats);
    (sinks, stats)
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

/// Drive `engine`'s generator — the calibrated sampler, or the resolver
/// fleet under [`PipelineOpts::fleet`] — into `out`.
fn generate<S: RecordSink>(
    engine: &Engine,
    out: &mut S,
    opts: &PipelineOpts,
) -> std::io::Result<DatasetStats> {
    let mut stage = obs::stage("pipeline.generate");
    let _span = obs::span(format!("generate {}", engine.spec().id()));
    let stats = if opts.fleet {
        engine.generate_fleet(out, opts.shard_count())
    } else {
        engine.generate_sharded(out, opts.shard_count())
    }?;
    stage.add_items(stats.queries + stats.responses);
    Ok(stats)
}

/// Generate `engine`'s dataset into a `.dnscap` file at `path`; the
/// file is byte-identical for any shard count.
pub fn write_capture(
    engine: &Engine,
    path: &Path,
    opts: &PipelineOpts,
) -> std::io::Result<DatasetStats> {
    let mut writer = CaptureWriter::new(BufWriter::new(File::create(path)?))?;
    let stats = generate(engine, &mut writer, opts)?;
    writer.finish()?;
    Ok(stats)
}

/// The streamed pipeline: one generator thread feeding `jobs` consumers
/// through a [`SliceRouter`]. Each worker joins and aggregates its own
/// slice subset (sound because slices are join-self-contained) and the
/// partials merge in worker order.
fn stream<'a>(
    engine: &'a Engine,
    opts: &'a PipelineOpts,
) -> (DatasetStats, Sinks<'a>, IngestStats) {
    let jobs = opts.job_count();
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..jobs)
        .map(|_| crossbeam::channel::bounded::<Vec<CaptureRecord>>(SLICE_DEPTH))
        .unzip();
    crossbeam::thread::scope(|scope| {
        let generator = scope.spawn(move |_| generate(engine, &mut SliceRouter::new(txs), opts));
        let mut stage = obs::stage("pipeline.analyze");
        let _span = obs::span(format!("analyze {}", engine.spec().id()));
        let workers: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(w, rx)| {
                scope.spawn(move |_| {
                    let mut wstage = obs::stage_owned(format!("pipeline.analyze.worker{w}"));
                    let queue = match jobs {
                        1 => "pipeline_analyze".to_string(),
                        _ => format!("pipeline_analyze_worker{w}"),
                    };
                    let source = ChannelSource::new(rx, &queue);
                    let (sinks, stats) = consume(source, engine, opts.warehouse.as_ref());
                    wstage.add_items(stats.rows);
                    (sinks, stats)
                })
            })
            .collect();
        let gen_stats = generator
            .join()
            .expect("generator thread")
            .expect("streamed generation succeeds");
        let mut parts = workers
            .into_iter()
            .map(|h| h.join().expect("analysis worker"));
        let (mut sinks, mut ingest_stats) = parts.next().expect("at least one worker");
        for (partial, partial_stats) in parts {
            sinks.merge(partial);
            ingest_stats.merge(&partial_stats);
        }
        stage.add_items(ingest_stats.rows);
        (gen_stats, sinks, ingest_stats)
    })
    .expect("pipeline scope join")
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

    /// A `SliceRouter` hands the generator's slices over untouched:
    /// over one channel the stream is the generator's `Vec` output
    /// record for record; over three, slot `s` lands on channel
    /// `s % 3`, each slice keeps its order, and dealing the channels
    /// back round-robin rebuilds the same vector.
    #[test]
    fn slice_router_delivers_the_generators_records_in_slice_order() {
        let engine = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 19);
        let mut reference: Vec<CaptureRecord> = Vec::new();
        engine.generate_sharded(&mut reference, 1).unwrap();
        assert!(!reference.is_empty());
        let slots = engine.spec().days as usize * 24;

        for channels in [1usize, 3] {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..channels)
                .map(|_| crossbeam::channel::unbounded::<Vec<CaptureRecord>>())
                .unzip();
            let mut router = SliceRouter::new(txs);
            engine.generate_sharded(&mut router, 2).unwrap();
            drop(router);
            let per_channel: Vec<Vec<Vec<CaptureRecord>>> = rxs
                .iter()
                .map(|rx| std::iter::from_fn(|| rx.recv().ok()).collect())
                .collect();
            assert_eq!(
                per_channel.iter().map(Vec::len).sum::<usize>(),
                slots,
                "one delivery per slot over {channels} channel(s)"
            );
            let mut lanes: Vec<_> = per_channel.into_iter().map(Vec::into_iter).collect();
            let rebuilt: Vec<CaptureRecord> = (0..slots)
                .flat_map(|slot| lanes[slot % channels].next().expect("slot delivered"))
                .collect();
            assert!(rebuilt == reference, "{channels} channel(s)");
        }
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

    /// Sharded streaming equals single-threaded streaming, run to run.
    #[test]
    fn sharded_streaming_matches_single_thread() {
        let spec = dataset(Vantage::Nz, 2019);
        let one = run_spec_with(
            spec.clone(),
            Scale::tiny(),
            31,
            &PipelineOpts::with_shards(1),
        );
        let four = run_spec_with(spec, Scale::tiny(), 31, &PipelineOpts::with_shards(4));
        assert_eq!(one.ingest_stats, four.ingest_stats);
        assert_eq!(one.gen_stats.queries, four.gen_stats.queries);
        assert_eq!(one.gen_stats.per_fleet, four.gen_stats.per_fleet);
        assert_eq!(one.analysis.total_queries, four.analysis.total_queries);
        assert_eq!(one.analysis.valid_queries, four.analysis.valid_queries);
    }

    /// Parallel analysis workers equal the single-threaded consumer:
    /// same rows, same joins, same aggregates, same accounting.
    #[test]
    fn parallel_analysis_matches_single_worker() {
        let spec = dataset(Vantage::Nl, 2020);
        let one = run_spec_with(spec.clone(), Scale::tiny(), 17, &PipelineOpts::with_jobs(1));
        let four = run_spec_with(spec, Scale::tiny(), 17, &PipelineOpts::with_jobs(4));
        assert_eq!(one.ingest_stats, four.ingest_stats);
        assert!(four.ingest_stats.balanced(), "{:?}", four.ingest_stats);
        assert_eq!(one.gen_stats.queries, four.gen_stats.queries);
        assert_eq!(one.analysis.total_queries, four.analysis.total_queries);
        assert_eq!(one.analysis.valid_queries, four.analysis.valid_queries);
        assert_eq!(one.analysis.cloud_share(), four.analysis.cloud_share());
        assert_eq!(
            one.analysis.resolvers.count(),
            four.analysis.resolvers.count()
        );
        assert_eq!(
            one.dualstack.dual_stack_resolvers(),
            four.dualstack.dual_stack_resolvers()
        );
        assert_eq!(one.dualstack.site_count(), four.dualstack.site_count());
    }

    /// Generator shards and analysis workers compose.
    #[test]
    fn shards_and_jobs_compose() {
        let spec = dataset(Vantage::Nz, 2020);
        let serial = run_spec_with(spec.clone(), Scale::tiny(), 9, &PipelineOpts::default());
        let both = run_spec_with(
            spec,
            Scale::tiny(),
            9,
            &PipelineOpts {
                shards: 3,
                jobs: 3,
                ..Default::default()
            },
        );
        assert_eq!(serial.ingest_stats, both.ingest_stats);
        assert_eq!(serial.analysis.total_queries, both.analysis.total_queries);
        assert_eq!(serial.analysis.cloud_share(), both.analysis.cloud_share());
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
                shards: 2,
                jobs: 3,
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
