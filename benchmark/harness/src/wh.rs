//! `wh-append` and `wh-scan`: the two sides of the `warehouse` layer
//! over the same rows, with no generator in the timed section. The rows
//! are .nl and B-Root 2020 together because the two stress different
//! dictionary and classifier columns (root traffic is mostly junk
//! names).

use crate::layers;
use crate::measure::{self, Checks, Ctx, Layers, Ops, Report};
use crate::trace::{Tracer, PROBES, STAGED};
use dnscentral_core::store::{ensure_source, render_report, SourceInfo};
use entrada::enrich::Enricher;
use entrada::ingest::CaptureIngest;
use entrada::schema::QueryRow;
use entrada::table::ColumnarBatch;
use netbase::capture::CaptureRecord;
use netbase::time::SimTime;
use simnet::engine::Engine;
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};
use std::path::{Path, PathBuf};
use warehouse::{AppendConfig, Predicate, Warehouse};

/// ~102k rows across the two sources: a rep takes a fraction of a
/// second, and building the rows three times stays inside the budget a
/// run has for set-up.
const SCALE: Scale = Scale {
    queries: 1.0 / 200_000.0,
    resolvers: 1.0 / 200.0,
};

/// One warehouse source: the dataset's rows in memory, and the engine
/// whose zone and PTR view the report sinks need.
struct Source {
    info: SourceInfo,
    engine: Engine,
    rows: Vec<QueryRow>,
}

impl Source {
    fn id(&self) -> String {
        self.info.spec.id()
    }
}

/// Day-wide partitions, not the default hour: at this scale an hourly
/// partition holds ~500 rows, and a rep would mostly create and unlink
/// 192 tiny files — 18 to 80 ms of kernel time a rep on the sandbox's
/// ext4 (mounted `discard`), depending on what earlier runs unlinked. A
/// day holds ~10k rows, closer to the rows-per-file the codec sees at
/// the paper's scale, and leaves the kernel 2 ms a rep.
fn append_config() -> AppendConfig {
    AppendConfig {
        partition: netbase::time::SimDuration::from_hours(24),
        ..AppendConfig::default()
    }
}

fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

fn scale_for(ctx: &Ctx) -> Scale {
    if ctx.smoke {
        Scale::tiny()
    } else {
        SCALE
    }
}

/// Generate and ingest both datasets into memory.
fn build_sources(scale: Scale, seed: u64) -> Vec<Source> {
    [Vantage::Nl, Vantage::BRoot]
        .into_iter()
        .map(|vantage| {
            let spec = dataset(vantage, 2020);
            let engine = Engine::new(spec.clone(), scale, seed);
            let mut records: Vec<CaptureRecord> = Vec::new();
            engine
                .generate_sharded(&mut records, 1)
                .expect("generation into memory cannot fail");
            let mapper = engine.plan().mapper.clone();
            let rows = CaptureIngest::new(records.into_iter(), Enricher::new(mapper)).collect();
            Source {
                info: SourceInfo { spec, scale, seed },
                engine,
                rows,
            }
        })
        .collect()
}

/// Open a warehouse at `dir`, append every source, commit.
fn append_all(dir: &Path, sources: &[Source]) -> std::io::Result<Warehouse> {
    let wh = Warehouse::open(dir).map_err(io_err)?;
    for s in sources {
        ensure_source(&wh, &s.id(), &s.info).map_err(io_err)?;
        let mut app = wh.appender(&s.id(), append_config());
        for row in &s.rows {
            app.push(row);
        }
        app.finish().map_err(io_err)?;
    }
    wh.commit().map_err(io_err)?;
    Ok(wh)
}

/// [`append_all`] with a span around each step, filling in the write
/// side of the ledger.
fn staged_append(
    t: &mut Tracer,
    layers: &mut Layers,
    dir: &Path,
    sources: &[Source],
) -> std::io::Result<Warehouse> {
    let root = t.begin(STAGED);
    let wh = Warehouse::open(dir).map_err(io_err)?;
    let (mut rows, mut partitions) = (0u64, 0u64);
    for s in sources {
        ensure_source(&wh, &s.id(), &s.info).map_err(io_err)?;
        let mut app = wh.appender(&s.id(), append_config());
        let n = s.rows.len() as u64;
        let id = t.begin("warehouse.push");
        for row in &s.rows {
            app.push(row);
        }
        let span = t.end(id, n, n);
        layers.add_per("warehouse.push_ns", span.secs() * 1e9, n);
        let id = t.begin("warehouse.finish");
        let stats = app.finish().map_err(io_err)?;
        let span = t.end(id, n, stats.partitions);
        layers.add_per("warehouse.finish_ns", span.secs() * 1e9, n);
        rows += n;
        partitions += stats.partitions;
    }
    let id = t.begin("warehouse.commit");
    wh.commit().map_err(io_err)?;
    let commit = t.end(id, partitions, partitions);
    let staged = t.end(root, rows, rows);
    let bytes = dir_bytes(dir)?;
    layers.set("warehouse.commit_s", commit.secs());
    layers.set("warehouse.append_allocs", staged.allocs_per(rows));
    layers.set("warehouse.partitions", partitions as f64);
    layers.set("warehouse.bytes", bytes as f64);
    layers.set("warehouse.bytes_per_row", bytes as f64 / rows as f64);
    Ok(wh)
}

/// Bytes of every file in a warehouse directory: partitions + manifest.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn sizes(scale: Scale, sources: &[Source]) -> Vec<(&'static str, String)> {
    let ids: Vec<String> = sources.iter().map(Source::id).collect();
    let rows: usize = sources.iter().map(|s| s.rows.len()).sum();
    vec![
        ("sources", ids.join("+")),
        ("scale.queries", format!("1/{:.0}", 1.0 / scale.queries)),
        ("scale.resolvers", format!("1/{:.0}", 1.0 / scale.resolvers)),
        ("rows_per_rep", rows.to_string()),
        ("warmup_reps", "1".to_string()),
        (
            "flush_policy",
            "tmp+rename, no fsync; reads come from the page cache".to_string(),
        ),
    ]
}

fn total_rows(sources: &[Source]) -> u64 {
    sources.iter().map(|s| s.rows.len() as u64).sum()
}

pub fn append(ctx: &Ctx) -> std::io::Result<Report> {
    let scale = scale_for(ctx);
    let (sources, setup_secs) = measure::setup(ctx, || build_sources(scale, ctx.seed));
    let rows = total_rows(&sources);
    let dir = ctx.tmp.join("wh-append");
    let mut checks = Checks::default();
    let timed = measure::timed(
        ctx,
        1,
        &mut checks,
        || {
            drop(append_all(&dir, &sources).expect("append into the scratch directory"));
            (rows, ())
        },
        |(), checks| {
            // an operation is one row pushed; it failed if a fresh
            // open of the directory cannot read it back
            let readable = Warehouse::open(&dir)
                .map(|wh| wh.scan(Predicate::all()).count() as u64)
                .unwrap_or(0);
            checks.equal("rows readable after reopen", readable, rows);
            let _ = std::fs::remove_dir_all(&dir);
            Ops {
                attempted: rows,
                failed: rows.saturating_sub(readable),
            }
        },
    )?;

    let mut layers = Layers::default();
    let mut tracer = None;
    if ctx.trace {
        let mut t = Tracer::new();
        let wh = staged_append(&mut t, &mut layers, &dir, &sources)?;
        checks.equal("staged append rows", wh.rows(), rows);
        drop(wh);
        std::fs::remove_dir_all(&dir)?;
        tracer = Some(t);
    }
    Ok(Report {
        sizes: sizes(scale, &sources),
        setup_secs,
        timed,
        checks,
        layers,
        tracer,
    })
}

pub fn scan(ctx: &Ctx) -> std::io::Result<Report> {
    let scale = scale_for(ctx);
    let dir: PathBuf = ctx.tmp.join("wh-scan");
    let ((sources, wh), setup_secs) = measure::setup(ctx, || {
        let _ = std::fs::remove_dir_all(&dir);
        let sources = build_sources(scale, ctx.seed);
        let wh = append_all(&dir, &sources).expect("append into the scratch directory");
        (sources, wh)
    });

    // the reference the scan must reproduce byte for byte: the same
    // rows through the in-memory sinks, never through the warehouse
    let mut reference = String::new();
    {
        let mut scratch_t = Tracer::new();
        let mut scratch_l = Layers::default();
        for s in &sources {
            reference.push_str(&layers::sinks_and_render(
                &mut scratch_t,
                &mut scratch_l,
                &s.engine,
                &s.id(),
                &s.rows,
            ));
        }
    }
    let rows = total_rows(&sources);
    let partitions = wh.partitions().len() as u64;

    let mut checks = Checks::default();
    let timed = measure::timed(
        ctx,
        1,
        &mut checks,
        || {
            let (text, stats) =
                render_report(&wh, &Predicate::all(), 1).expect("report from the warehouse");
            (stats.rows, (text, stats))
        },
        |(text, stats), checks| {
            checks.require(text == reference, || {
                "warehouse report differs from the in-memory report of the same rows".to_string()
            });
            checks.equal("rows scanned", stats.rows, rows);
            // each source's plan sees every partition and prunes the
            // other source's by id
            checks.equal(
                "pruned + opened",
                stats.pruned + stats.scanned + stats.corrupt,
                stats.partitions_total,
            );
            checks.equal("partitions opened", stats.scanned, partitions);
            checks.equal("corrupt partitions", stats.corrupt, 0);
            // an operation is one partition opened; it failed if it
            // did not decode
            Ops {
                attempted: stats.scanned + stats.corrupt,
                failed: stats.corrupt,
            }
        },
    )?;

    let mut layers = Layers::default();
    let mut tracer = None;
    if ctx.trace {
        let mut t = Tracer::new();
        let text = staged_scan(&mut t, &mut layers, &wh, &sources)?;
        checks.require(text == reference, || {
            "staged scan report differs from the in-memory report".to_string()
        });
        tracer = Some(t);
    }
    drop(wh);
    std::fs::remove_dir_all(&dir)?;
    Ok(Report {
        sizes: sizes(scale, &sources),
        setup_secs,
        timed,
        checks,
        layers,
        tracer,
    })
}

/// `render_report`'s work taken apart, source by source: plan, build
/// the enrichment engine, decode every surviving partition, rebuild
/// rows, push them into the sinks, render. Then a one-hour scan for the
/// pruning numbers.
fn staged_scan(
    t: &mut Tracer,
    layers: &mut Layers,
    wh: &Warehouse,
    sources: &[Source],
) -> std::io::Result<String> {
    let mut text = String::new();
    let root = t.begin(STAGED);
    for s in sources {
        let pred = Predicate::for_source(&s.id());
        let id = t.begin("warehouse.plan");
        let (metas, _) = wh.plan(&pred);
        let span = t.end(id, 0, metas.len() as u64);
        layers.add("warehouse.plan_s", span.secs());

        let (engine, _) = layers::build_engine(t, layers, &s.info.spec, s.info.scale, s.info.seed);

        let id = t.begin("warehouse.decode");
        let mut batches: Vec<ColumnarBatch> = Vec::with_capacity(metas.len());
        for meta in &metas {
            batches.push(wh.read_partition(meta).map_err(io_err)?);
            layers.add("warehouse.bytes_scanned", meta.bytes as f64);
        }
        let n: u64 = batches.iter().map(|b| b.len() as u64).sum();
        let span = t.end(id, metas.len() as u64, n);
        layers.add_span("warehouse.decode_ns", "warehouse.decode_allocs", &span, n);
        layers.add("warehouse.partitions_opened", metas.len() as f64);

        let id = t.begin("warehouse.rows");
        let rebuilt: Vec<QueryRow> = batches.iter().flat_map(|b| b.iter()).collect();
        let span = t.end(id, n, rebuilt.len() as u64);
        layers.add_per("warehouse.rows_ns", span.secs() * 1e9, n);
        drop(batches);

        text.push_str(&layers::sinks_and_render(
            t,
            layers,
            &engine,
            &s.id(),
            &rebuilt,
        ));
    }
    t.end(root, 0, 0);
    // one hour out of the week: zone maps should keep nearly every
    // partition closed
    let probes = t.begin(PROBES);
    let start = sources
        .iter()
        .flat_map(|s| s.rows.iter().map(|r| r.timestamp))
        .min()
        .expect("sources hold rows");
    let pred = Predicate::between(start, SimTime(start.as_micros() + 3_600_000_000));
    let id = t.begin("warehouse.pruned_scan");
    let mut scan = wh.scan(pred);
    let matched = scan.by_ref().count() as u64;
    let stats = scan.stats();
    let span = t.end(id, stats.rows, matched);
    t.end(probes, 0, 0);
    layers.set("warehouse.pruned_scan_s", span.secs());
    layers.set("warehouse.partitions_pruned", stats.pruned as f64);
    layers.set(
        "warehouse.pruned_open_share",
        stats.scanned as f64 / stats.partitions_total.max(1) as f64,
    );
    Ok(text)
}
