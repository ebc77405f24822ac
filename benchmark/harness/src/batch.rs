//! `batch-calibrated` and `batch-fleet`: the fused pipeline,
//! `core::pipeline::run_spec_with` then `render_dataset_report`, on the
//! .nl 2020 dataset. The two differ only in the generator.

use crate::layers;
use crate::measure::{self, Checks, Ctx, Layers, Ops, Report};
use crate::trace::{Tracer, PROBES, STAGED};
use asdb::synth::InternetPlan;
use dnscentral_core::pipeline::{run_spec_with, PipelineOpts};
use dnscentral_core::report::render_dataset_report;
use netbase::capture::CaptureRecord;
use simnet::engine::{plan_config_for, Engine};
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};

/// Calibrated generator: ~86k queries a rep, about a second, so a run
/// holds enough reps for a steady median.
const CALIBRATED: Scale = Scale {
    queries: 1.0 / 160_000.0,
    resolvers: 1.0 / 200.0,
};

/// Resolver fleet: sized so the fleets' name set runs past
/// `resolver::cache::DEFAULT_CAPACITY` within a rep (at `Scale::tiny()`
/// it fits, and a query costs half as much).
const FLEET: Scale = Scale {
    queries: 1.0 / 250_000.0,
    resolvers: 1.0 / 1_000.0,
};

pub fn run(ctx: &Ctx, fleet: bool) -> std::io::Result<Report> {
    let scale = match (ctx.smoke, fleet) {
        (true, _) => Scale::tiny(),
        (false, false) => CALIBRATED,
        (false, true) => FLEET,
    };

    let spec = dataset(Vantage::Nl, 2020);
    let opts = if fleet {
        PipelineOpts::with_fleet()
    } else {
        PipelineOpts::default()
    };
    let seed = ctx.seed;

    // A rep builds its own plan and engine inside `run_spec_with`, so
    // nothing is carried into the timed section; set-up is that same
    // construction timed on its own, which is where work moved out of
    // generation would show.
    let (engine, setup_secs) = measure::setup(ctx, || {
        std::hint::black_box(InternetPlan::build(&plan_config_for(&spec, scale, seed)));
        Engine::new(spec.clone(), scale, seed)
    });
    let queries = engine.scaled_total();
    drop(engine);

    let mut checks = Checks::default();
    let mut first_report: Option<String> = None;
    // the fleet's caches start empty every rep by construction, so it
    // has nothing to warm; the calibrated path gets one untimed rep
    let warmups = if fleet { 0 } else { 1 };
    let timed = measure::timed(
        ctx,
        warmups,
        &mut checks,
        || {
            let run = run_spec_with(spec.clone(), scale, seed, &opts);
            let text = render_dataset_report(
                &run.id,
                run.spec.vantage,
                &run.analysis,
                &run.dualstack,
                &run.spec,
            );
            (run.gen_stats.queries, (run, text))
        },
        |(run, text), checks| {
            let s = &run.ingest_stats;
            checks.require(s.balanced(), || format!("ingest does not balance: {s:?}"));
            checks.equal(
                "generated queries vs analysed queries",
                run.analysis.total_queries,
                run.gen_stats.queries,
            );
            checks.equal("rows vs generated queries", s.rows, run.gen_stats.queries);
            match &first_report {
                None => first_report = Some(text),
                Some(first) => checks.require(*first == text, || {
                    "rendered report differs between reps of one seed".to_string()
                }),
            }
            // one operation is one generated query reaching the sinks
            // as a row. `unmatched_responses` is not counted: the fleet
            // generator reuses a (flow, id) key while it is in flight
            // on ~2% of queries, which ingest pairs off as one
            // unanswered row and one unmatched response, both kept.
            let queries = run.gen_stats.queries;
            Ops {
                attempted: queries,
                failed: queries.saturating_sub(s.rows) + s.malformed + s.capture_errors,
            }
        },
    )?;

    let mut layers = Layers::default();
    layers.set(
        "core.pipeline_queue_peak",
        obs::gauge("pipeline_analyze_queue_peak", "").get(),
    );
    let mut tracer = None;
    if ctx.trace {
        let mut t = Tracer::new();
        let want = first_report.as_deref().unwrap_or_default();
        let text = staged(&mut t, &mut layers, scale, seed, fleet);
        checks.require(text == want, || {
            "staged report differs from the pipeline's".to_string()
        });
        tracer = Some(t);
    }

    Ok(Report {
        sizes: vec![
            ("dataset", spec.id()),
            ("scale.queries", format!("1/{:.0}", 1.0 / scale.queries)),
            ("scale.resolvers", format!("1/{:.0}", 1.0 / scale.resolvers)),
            ("queries_per_rep", queries.to_string()),
            ("warmup_reps", warmups.to_string()),
        ],
        setup_secs,
        timed,
        checks,
        layers,
        tracer,
    })
}

/// One rep's work, layer after layer on one thread: plan, engine,
/// generate into memory, ingest, sinks, render. Returns the report.
fn staged(t: &mut Tracer, layers: &mut Layers, scale: Scale, seed: u64, fleet: bool) -> String {
    let spec = dataset(Vantage::Nl, 2020);
    let root = t.begin(STAGED);
    let (engine, mapper) = layers::build_engine(t, layers, &spec, scale, seed);
    let mut records: Vec<CaptureRecord> = Vec::new();
    let (span_name, names) = if fleet {
        (
            "simnet.emerge",
            [
                "simnet.emerge_ns",
                "simnet.emerge_allocs",
                "simnet.emerge_records",
            ],
        )
    } else {
        (
            "simnet.generate",
            [
                "simnet.generate_ns",
                "simnet.generate_allocs",
                "simnet.generate_records",
            ],
        )
    };
    let id = t.begin(span_name);
    let stats = if fleet {
        engine.generate_fleet(&mut records, 1)
    } else {
        engine.generate_sharded(&mut records, 1)
    }
    .expect("generation into memory cannot fail");
    let span = t.end(id, 0, stats.queries);
    layers.add_span(names[0], names[1], &span, stats.queries);
    layers.set(names[2], stats.queries as f64);
    t.end(root, 0, 0);

    let probes = t.begin(PROBES);
    layers::wire_probe(t, layers, &records);
    t.end(probes, 0, 0);

    // ingest consumes the records, so the wire probe had to come first
    let root = t.begin(STAGED);
    let (rows, _) = layers::ingest(t, layers, records, &mapper);
    let text = layers::sinks_and_render(t, layers, &engine, &spec.id(), &rows);
    t.end(root, 0, 0);

    let probes = t.begin(PROBES);
    layers::enrich_probe(t, layers, &rows, &mapper);
    if fleet {
        layers::resolver_probes(t, layers, &engine, seed);
    }
    t.end(probes, 0, 0);
    text
}
