//! `live-replay` and `live-fleet`: `authd::run_live` over loopback —
//! server, load generator and capture tap in one process — on the .nl
//! 2020 dataset at `Scale::tiny()`. The two differ only in the client:
//! the calibrated replay loadgen, or 64 iterative resolvers.
//!
//! Both are closed loops: a client sends its next query only after the
//! reply to the last one, so a slower server receives less load. An
//! open-loop rate sweep is left out on purpose: on two shared cores the
//! paced sender and the server contend, and the sweep would measure
//! the scheduler.

use crate::layers;
use crate::measure::{self, Checks, Ctx, Layers, Ops, Report};
use crate::stats::median;
use crate::trace::{Tracer, PROBES, STAGED};
use authd::proxy::Preamble;
use authd::respond::{OutcomeRef, RespondScratch};
use authd::{run_live, LiveConfig, LiveReport, Responder, Server, ServerConfig, Tap, WorkerState};
use dnscentral_core::experiments::analyze_capture;
use netbase::capture::{CaptureRecord, Direction};
use netbase::flow::Transport;
use simnet::drive::{Driver, PlannedQuery};
use simnet::engine::Engine;
use simnet::profile::Vantage;
use simnet::scenario::{dataset, DatasetSpec, Scale};
use std::net::SocketAddr;
use std::path::Path;

/// Queries a rep sends. The count is fixed, not the duration, because
/// the fleet's rate falls as a run lengthens and its caches fill.
const REPLAY_QUERIES: u64 = 20_000;
const FLEET_QUERIES: u64 = 10_000;
const SMOKE_QUERIES: u64 = 2_000;
/// Resolver instances in `live-fleet`.
const RESOLVERS: usize = 64;
/// Client threads (2 closed-loop clients in replay; 2 threads driving
/// the 64 resolver lanes in fleet) and server workers.
const CLIENT_WORKERS: usize = 2;
const UDP_WORKERS: usize = 1;
const TCP_WORKERS: usize = 1;

fn live_config(
    spec: &DatasetSpec,
    seed: u64,
    capture: &Path,
    queries: u64,
    fleet: bool,
) -> LiveConfig {
    let mut config = LiveConfig::new(spec.clone(), Scale::tiny(), seed, capture.to_path_buf());
    config.loadgen_workers = CLIENT_WORKERS;
    config.udp_workers = UDP_WORKERS;
    config.tcp_workers = TCP_WORKERS;
    config.max_queries = Some(queries);
    config.resolvers = fleet.then_some(RESOLVERS);
    config
}

pub fn run(ctx: &Ctx, fleet: bool) -> std::io::Result<Report> {
    let spec = dataset(Vantage::Nl, 2020);
    let scale = Scale::tiny();
    let seed = ctx.seed;
    let queries = match (ctx.smoke, fleet) {
        (true, _) => SMOKE_QUERIES,
        (false, false) => REPLAY_QUERIES,
        (false, true) => FLEET_QUERIES,
    };
    std::fs::create_dir_all(&ctx.tmp)?;
    let capture = ctx.tmp.join("tap.dnscap");

    // What `run_live` builds before the first query leaves: the server
    // (zone, sockets, workers) and the load generator's engine. The
    // servers are shut down together afterwards: `Server::shutdown`
    // waits out the workers' 50 ms poll interval, a timer and not
    // work, and paying it once leaves room for a hundred rounds.
    let mut servers = Vec::new();
    let ((), setup_secs) = measure::setup(ctx, || {
        servers.push(
            Server::start(ServerConfig {
                udp_workers: UDP_WORKERS,
                tcp_workers: TCP_WORKERS,
                ..ServerConfig::for_spec(&spec)
            })
            .expect("server starts on loopback"),
        );
        std::hint::black_box(Engine::new(spec.clone(), scale, seed));
    });
    servers.iter().for_each(Server::request_shutdown);
    for server in servers {
        server.shutdown()?;
    }

    let mut checks = Checks::default();
    let mut reports: Vec<LiveReport> = Vec::new();
    let config = live_config(&spec, seed, &capture, queries, fleet);
    let timed = measure::timed(
        ctx,
        1,
        &mut checks,
        || {
            let report = run_live(&config).expect("live loop runs on loopback");
            (report.loadgen.sent, report)
        },
        |report, checks| {
            let served = report.server.queries();
            checks.equal(
                "server responses vs queries received",
                report.server.responses,
                served,
            );
            checks.equal("tap records vs 2 x served", report.records, 2 * served);
            // the tap must be what the offline analysis expects: every
            // message joins, every served query becomes a row
            match analyze_capture(&spec, scale, seed, &capture) {
                Ok((_, _, ingest)) => {
                    checks.require(ingest.balanced(), || {
                        format!("tap ingest does not balance: {ingest:?}")
                    });
                    checks.equal("tap rows vs served", ingest.rows, served);
                }
                Err(e) => checks.require(false, || format!("tap does not analyze: {e}")),
            }
            let lg = report.loadgen;
            let ops = Ops {
                attempted: lg.sent,
                failed: lg.sent.saturating_sub(lg.received) + lg.timeouts,
            };
            reports.push(report);
            ops
        },
    )?;
    // the warm-up's report came first; the timed reps are the rest
    let reports = &reports[reports.len() - timed.rep_secs.len()..];

    let mut layers = Layers::default();
    socket_side(&mut layers, reports);
    let mut tracer = None;
    if ctx.trace {
        let mut t = Tracer::new();
        staged(&mut t, &mut layers, &spec, seed, queries, &ctx.tmp, fleet)?;
        tracer = Some(t);
    }
    let _ = std::fs::remove_file(&capture);

    let mut sizes = vec![
        ("dataset", spec.id()),
        ("scale", "tiny".to_string()),
        ("queries_per_rep", queries.to_string()),
        ("warmup_reps", "1".to_string()),
        ("client_threads", CLIENT_WORKERS.to_string()),
        ("udp_workers", UDP_WORKERS.to_string()),
        ("tcp_workers", TCP_WORKERS.to_string()),
        ("link", "loopback".to_string()),
    ];
    if fleet {
        sizes.push(("resolvers", RESOLVERS.to_string()));
    }
    Ok(Report {
        sizes,
        setup_secs,
        timed,
        checks,
        layers,
        tracer,
    })
}

/// The socket-side numbers, from the timed reps' own reports: medians
/// of the per-rep quantiles, sums of the counts.
fn socket_side(layers: &mut Layers, reports: &[LiveReport]) {
    let med = |f: &dyn Fn(&LiveReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&LiveReport) -> u64| reports.iter().map(f).sum::<u64>();
    layers.set("authd.service_p50_us", med(&|r| r.server.p50_us as f64));
    layers.set("authd.service_p99_us", med(&|r| r.server.p99_us as f64));
    layers.set("authd.client_rtt_p50_us", med(&|r| r.client.p50_us as f64));
    layers.set("authd.client_rtt_p99_us", med(&|r| r.client.p99_us as f64));
    let sent = sum(&|r| r.loadgen.sent).max(1) as f64;
    layers.set(
        "authd.tcp_fallback_share",
        sum(&|r| r.loadgen.tcp_fallbacks) as f64 / sent,
    );
    layers.set("authd.rrl_dropped", sum(&|r| r.server.rrl_dropped) as f64);
    layers.set("authd.send_errors", sum(&|r| r.server.send_errors) as f64);
    layers.set("authd.timeouts", sum(&|r| r.loadgen.timeouts) as f64);
    if reports.iter().all(|r| r.fleet.is_some()) {
        let fleet = |r: &LiveReport| r.fleet.expect("checked above");
        layers.set(
            "authd.fleet_cache_hit_ratio",
            med(&|r| fleet(r).cache_hit_ratio),
        );
        layers.set("authd.fleet_stimuli", med(&|r| fleet(r).stimuli as f64));
        layers.set(
            "authd.fleet_sent_per_stimulus",
            sent / sum(&|r| fleet(r).stimuli).max(1) as f64,
        );
    }
}

/// The server's share of the loop, in process and on one thread: sample
/// the queries a replay client would send, push each through the
/// serving core (respond, rate-limit, count, tap) with no socket in
/// between, then read the tap back. Respond and tap writes are timed
/// again on their own as probes; the fleet adds the resolver's probes.
/// What the staged sum leaves of a rep is socket and scheduling time
/// (and, on the fleet, the resolvers).
fn staged(
    t: &mut Tracer,
    layers: &mut Layers,
    spec: &DatasetSpec,
    seed: u64,
    queries: u64,
    tmp: &Path,
    fleet: bool,
) -> std::io::Result<()> {
    let tap_path = tmp.join("staged-tap.dnscap");
    let root = t.begin(STAGED);
    let (engine, _) = layers::build_engine(t, layers, spec, Scale::tiny(), seed);
    let mut driver = Driver::from_engine(engine, seed);
    let id = t.begin("simnet.drive_sample");
    let planned: Vec<PlannedQuery> = (0..queries).map(|_| driver.sample(spec.start)).collect();
    let span = t.end(id, 0, queries);
    if !fleet {
        layers.add_span(
            "simnet.drive_sample_ns",
            "simnet.drive_sample_allocs",
            &span,
            queries,
        );
    }

    let local: SocketAddr = "127.0.0.1:53".parse().expect("static addr");
    let datagrams: Vec<Vec<u8>> = planned
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut d = Preamble {
                src: SocketAddr::new(q.src, 1024 + (i % 60_000) as u16),
                dst: SocketAddr::new(q.dst, 53),
                rtt_us: 0,
            }
            .encode();
            d.extend_from_slice(&q.wire);
            d
        })
        .collect();
    let tap = Tap::create(&tap_path)?;
    let core = authd::Engine::new(
        spec.zone.build(),
        spec.rrl,
        8,
        spec.start,
        Some(tap.clone()),
    );
    let mut state = WorkerState::new();
    let id = t.begin("authd.engine_udp");
    let replies = datagrams
        .iter()
        .filter(|d| core.process_udp(d, local, local, &mut state).is_some())
        .count() as u64;
    tap.finish()?;
    let span = t.end(id, queries, replies);
    layers.set("authd.engine_udp_ns", span.ns_per(queries));
    t.end(root, 0, 0);

    let probes = t.begin(PROBES);
    let records =
        layers::capture_file_probe(t, layers, &tap_path, &tmp.join("staged-copy.dnscap"))?;
    std::fs::remove_file(&tap_path)?;
    layers::wire_probe(t, layers, &records);

    let responder = Responder::for_spec(spec);
    let mut scratch = RespondScratch::new();
    let span = t.leaf("authd.respond", queries, || {
        planned
            .iter()
            .filter(|q| {
                matches!(
                    responder.handle_into(
                        &q.wire,
                        Transport::Udp,
                        q.src,
                        spec.start,
                        None,
                        &mut scratch
                    ),
                    OutcomeRef::Reply { .. }
                )
            })
            .count() as u64
    });
    layers.add_span("authd.respond_ns", "authd.respond_allocs", &span, queries);

    let tap = Tap::create(&tap_path)?;
    let pairs = records
        .iter()
        .filter(|r| r.direction == Direction::Response)
        .count() as u64;
    let span = t.leaf("authd.tap", pairs, || {
        let mut query: Option<&CaptureRecord> = None;
        let mut written = 0;
        for rec in &records {
            match (rec.direction, query.take()) {
                (Direction::Query, _) => query = Some(rec),
                (Direction::Response, Some(q)) => {
                    if tap.write_pair_ref(q.as_ref(), Some(rec.as_ref())).is_ok() {
                        written += 1;
                    }
                }
                (Direction::Response, None) => {}
            }
        }
        let _ = tap.finish();
        written
    });
    layers.set("authd.tap_ns", span.ns_per(pairs));
    std::fs::remove_file(&tap_path)?;

    if fleet {
        layers::resolver_probes(t, layers, driver.engine(), seed);
    }
    t.end(probes, 0, 0);
    Ok(())
}
