//! Staged calls into the layers several workloads share. Each function
//! runs one layer's public entry point over the inputs it is given,
//! inside a span, and writes that layer's metrics into the ledger.

use crate::measure::Layers;
use crate::trace::Tracer;
use asdb::mapping::AsMapper;
use asdb::synth::InternetPlan;
use dns_wire::message::Message;
use dns_wire::name::ReusableCompressor;
use dnscentral_core::analysis::DatasetAnalysis;
use dnscentral_core::dualstack::DualStackAnalysis;
use dnscentral_core::report::render_dataset_report;
use dnscentral_core::sink::{DualStackSink, FanoutSink, RowSink};
use entrada::enrich::Enricher;
use entrada::ingest::{CaptureIngest, IngestStats};
use entrada::schema::QueryRow;
use netbase::capture::{CaptureReader, CaptureRecord, CaptureWriter};
use netbase::flow::Transport;
use simnet::engine::{plan_config_for, Engine};
use simnet::scenario::{DatasetSpec, Scale};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// `InternetPlan::build` then `Engine::new`, as every pipeline run and
/// every warehouse source scan does before it touches a record.
pub fn build_engine(
    t: &mut Tracer,
    layers: &mut Layers,
    spec: &DatasetSpec,
    scale: Scale,
    seed: u64,
) -> (Engine, AsMapper) {
    let id = t.begin("asdb.plan_build");
    let plan = InternetPlan::build(&plan_config_for(spec, scale, seed));
    let span = t.end(id, 0, 0);
    layers.add("asdb.plan_build_s", span.secs());
    let id = t.begin("simnet.engine_new");
    let engine = Engine::new(spec.clone(), scale, seed);
    let span = t.end(id, 0, 0);
    layers.add("simnet.engine_new_s", span.secs());
    (engine, plan.mapper)
}

/// `Message::parse` over every UDP payload, then `encode_into` over a
/// bounded sample of the parsed messages. TCP payloads (a few percent)
/// carry RFC 1035 framing and are left out.
pub fn wire_probe(t: &mut Tracer, layers: &mut Layers, records: &[CaptureRecord]) {
    /// Parsed messages kept for the encode pass.
    const ENCODE_SAMPLE: usize = 20_000;
    let udp = || {
        records
            .iter()
            .filter(|r| r.flow.transport == Transport::Udp)
    };
    let n = udp().count() as u64;
    let span = t.leaf("dns-wire.parse", n, || {
        udp()
            .filter(|r| std::hint::black_box(Message::parse(&r.payload)).is_ok())
            .count() as u64
    });
    layers.add_span("dns-wire.parse_ns", "dns-wire.parse_allocs", &span, n);

    let sample: Vec<Message> = udp()
        .take(ENCODE_SAMPLE)
        .filter_map(|r| Message::parse(&r.payload).ok())
        .collect();
    let mut comp = ReusableCompressor::new();
    let mut out = Vec::with_capacity(4096);
    let m = sample.len() as u64;
    let span = t.leaf("dns-wire.encode_into", m, || {
        let mut bytes = 0u64;
        for msg in &sample {
            if msg.encode_into(&mut comp, &mut out).is_ok() {
                bytes += out.len() as u64;
            }
        }
        std::hint::black_box(bytes);
        m
    });
    layers.set("dns-wire.encode_into_ns", span.ns_per(m));
}

/// Drain `CaptureIngest` over the records into rows.
pub fn ingest(
    t: &mut Tracer,
    layers: &mut Layers,
    records: Vec<CaptureRecord>,
    mapper: &AsMapper,
) -> (Vec<QueryRow>, IngestStats) {
    let frames = records.len() as u64;
    let id = t.begin("entrada.ingest");
    let mut ingest = CaptureIngest::new(records.into_iter(), Enricher::new(mapper.clone()));
    let rows: Vec<QueryRow> = ingest.by_ref().collect();
    let stats = ingest.stats().clone();
    drop(ingest);
    let span = t.end(id, frames, stats.rows);
    layers.add_span(
        "entrada.ingest_ns",
        "entrada.ingest_allocs",
        &span,
        stats.rows,
    );
    layers.set("entrada.rows", stats.rows as f64);
    layers.set("entrada.unmatched", stats.unmatched_responses as f64);
    layers.set("entrada.malformed", stats.malformed as f64);
    layers.set("entrada.capture_errors", stats.capture_errors as f64);
    (rows, stats)
}

/// `Enricher::enrich` once per row source address, memo cold at the
/// start as it is for an ingest.
pub fn enrich_probe(t: &mut Tracer, layers: &mut Layers, rows: &[QueryRow], mapper: &AsMapper) {
    let mut enricher = Enricher::new(mapper.clone());
    let n = rows.len() as u64;
    let span = t.leaf("asdb.enrich", n, || {
        rows.iter()
            .filter(|r| std::hint::black_box(enricher.enrich(r.src)).0.is_some())
            .count() as u64
    });
    layers.set("asdb.enrich_ns", span.ns_per(n));
    layers.set("asdb.enrich_memo_len", enricher.memo_len() as f64);
}

/// Push the rows into the two sinks every report is built from, then
/// render the report text.
pub fn sinks_and_render(
    t: &mut Tracer,
    layers: &mut Layers,
    engine: &Engine,
    id: &str,
    rows: &[QueryRow],
) -> String {
    let spec = engine.spec();
    let n = rows.len() as u64;
    let span_id = t.begin("core.sinks");
    let mut sink = FanoutSink::new(
        DatasetAnalysis::new(engine.zone().clone()),
        DualStackSink::new(
            DualStackAnalysis::with_servers(&spec.servers),
            engine.ptr_db(),
        ),
    );
    for row in rows {
        sink.push(row);
    }
    let span = t.end(span_id, n, n);
    layers.add_span("core.sinks_ns", "core.sinks_allocs", &span, n);

    let (analysis, dualstack) = sink.into_parts();
    let dualstack = dualstack.into_inner();
    let span_id = t.begin("core.render");
    let text = render_dataset_report(id, spec.vantage, &analysis, &dualstack, spec);
    let span = t.end(span_id, n, text.len() as u64);
    layers.add("core.render_s", span.secs());
    text
}

/// `CaptureReader` over a capture file, then `CaptureWriter` of the
/// same records into `scratch`. Returns the records read.
pub fn capture_file_probe(
    t: &mut Tracer,
    layers: &mut Layers,
    capture: &Path,
    scratch: &Path,
) -> std::io::Result<Vec<CaptureRecord>> {
    let id = t.begin("netbase.capture_read");
    let reader = CaptureReader::new(BufReader::new(File::open(capture)?))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let records = reader
        .collect::<Result<Vec<CaptureRecord>, _>>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let n = records.len() as u64;
    let span = t.end(id, n, n);
    layers.set("netbase.capture_read_ns", span.ns_per(n));

    let id = t.begin("netbase.capture_write");
    let mut writer = CaptureWriter::new(BufWriter::new(File::create(scratch)?))?;
    for rec in &records {
        writer.write(rec)?;
    }
    std::io::Write::flush(&mut writer.finish()?)?;
    let span = t.end(id, n, n);
    layers.set("netbase.capture_write_ns", span.ns_per(n));
    std::fs::remove_file(scratch)?;
    Ok(records)
}

/// The resolver on its own: `IterativeResolver::resolve` over the
/// offline `SimTransport` on a fixed stimulus batch, first against an
/// empty shared cache, then against the cache that pass left behind;
/// and `FleetCache::put_addresses` into a map already at capacity,
/// which is what every insert costs once a fleet's name set outgrows
/// the cache.
pub fn resolver_probes(t: &mut Tracer, layers: &mut Layers, engine: &Engine, seed: u64) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use resolver::cache::DEFAULT_CAPACITY;
    use resolver::{FleetCache, IterativeResolver, ResolverConfig, SharedCache};
    use simnet::emerge::{ns_rtt_histograms, sample_stimulus, SimTransport, Stimulus};

    const STIMULI: usize = 2_000;
    const FULL_PUTS: u64 = 64;

    let hists = ns_rtt_histograms(&engine.spec().servers);
    let fleet = &engine.fleets()[0];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57_1a11);
    let stims: Vec<Stimulus> = (0..STIMULI)
        .map(|_| {
            sample_stimulus(
                engine.zone(),
                engine.zipf(),
                engine.junk_gen(),
                &fleet.spec,
                false,
                &mut rng,
            )
        })
        .collect();
    let start = engine.spec().start;
    let shared = SharedCache::with_capacity(DEFAULT_CAPACITY);
    let n = stims.len() as u64;
    // one pass over the batch; returns (vantage queries, resolver stats)
    let walk = |pass_seed: u64| {
        let mut tr = SimTransport::new(
            engine,
            fleet,
            &hists,
            StdRng::seed_from_u64(pass_seed),
            None,
        );
        let mut res = IterativeResolver::new(ResolverConfig {
            qmin: true,
            ..Default::default()
        });
        res.attach_shared_cache(shared.clone());
        res.set_log_enabled(false);
        let mut vantage = 0u64;
        for s in &stims {
            res.set_now_micros(start.as_micros());
            tr.begin(0, start, s.junk);
            let _ = std::hint::black_box(res.resolve(&mut tr, &s.qname, s.qtype));
            vantage += tr.emitted;
        }
        (vantage, res.stats)
    };

    let id = t.begin("resolver.resolve_cold");
    let (vantage, cold) = walk(seed);
    let span = t.end(id, n, vantage);
    layers.set("resolver.resolve_cold_ns", span.ns_per(n));
    layers.set(
        "resolver.vantage_queries_per_stimulus",
        vantage as f64 / n as f64,
    );
    layers.set("resolver.retries", cold.retries as f64);
    layers.set("resolver.timeouts", cold.timeouts as f64);

    let id = t.begin("resolver.resolve_warm");
    let (vantage, warm) = walk(seed + 1);
    let span = t.end(id, n, vantage);
    layers.set("resolver.resolve_warm_ns", span.ns_per(n));
    layers.set(
        "resolver.cache_hit_ratio",
        warm.cache_hits as f64 / (warm.cache_hits + warm.cache_misses).max(1) as f64,
    );

    let mut cache = FleetCache::with_capacity(DEFAULT_CAPACITY);
    let addr = vec![std::net::IpAddr::from([192, 0, 2, 1])];
    let qtype = dns_wire::types::RType::A;
    for i in 0..DEFAULT_CAPACITY as u64 {
        cache.put_addresses(
            &engine.zone().registered_domain(i),
            qtype,
            addr.clone(),
            0,
            3600,
        );
    }
    let fresh: Vec<_> = (0..FULL_PUTS)
        .map(|i| engine.zone().registered_domain(DEFAULT_CAPACITY as u64 + i))
        .collect();
    let span = t.leaf("resolver.cache_put_full", FULL_PUTS, || {
        for name in &fresh {
            cache.put_addresses(name, qtype, addr.clone(), 1, 3600);
        }
        cache.len() as u64
    });
    layers.set("resolver.cache_put_full_ns", span.ns_per(FULL_PUTS));
}
