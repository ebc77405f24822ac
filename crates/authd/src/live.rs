//! One-command live loop: server + load generator over loopback.
//!
//! `run_live` starts the authoritative server on ephemeral loopback
//! ports, points the profile-driven load generator at it, runs until
//! the stop condition (query count, duration, or SIGINT), then drains
//! the workers and seals the capture tap. The resulting `.dnscap` is
//! consumed by the standard offline analysis (the caller runs
//! `core::experiments::analyze_capture` with the same spec/scale/seed).

use crate::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
use crate::server::{Server, ServerConfig};
use crate::stats::{Stats, StatsSnapshot};
use crate::tap::Tap;
use simnet::scenario::{DatasetSpec, Scale};
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Parameters for a live loopback run.
pub struct LiveConfig {
    /// Dataset to serve and replay.
    pub spec: DatasetSpec,
    /// Fleet scale factor.
    pub scale: Scale,
    /// Seed shared by server, load generator, and later analysis.
    pub seed: u64,
    /// Load-generator worker threads.
    pub loadgen_workers: usize,
    /// Server UDP worker threads.
    pub udp_workers: usize,
    /// Server TCP worker threads.
    pub tcp_workers: usize,
    /// Stop after this many queries.
    pub max_queries: Option<u64>,
    /// Stop after this long.
    pub duration: Option<Duration>,
    /// Where the capture tap writes.
    pub capture: PathBuf,
    /// Print a stats line to stderr this often (None = quiet).
    pub stats_interval: Option<Duration>,
    /// Run the *algorithmic resolver fleet* ([`crate::fleetgen`]) with
    /// this many concurrent resolver instances instead of the
    /// calibrated replay loadgen. The capture tap and downstream
    /// analysis are unchanged.
    pub resolvers: Option<usize>,
}

impl LiveConfig {
    /// Defaults: 4+4+2 workers, quiet, 10k queries.
    pub fn new(spec: DatasetSpec, scale: Scale, seed: u64, capture: PathBuf) -> LiveConfig {
        LiveConfig {
            spec,
            scale,
            seed,
            loadgen_workers: 4,
            udp_workers: 4,
            tcp_workers: 2,
            max_queries: Some(10_000),
            duration: None,
            capture,
            stats_interval: None,
            resolvers: None,
        }
    }
}

/// What a live run did, both sides.
#[derive(Debug, Clone, Copy)]
pub struct LiveReport {
    /// Load-generator outcome.
    pub loadgen: LoadgenReport,
    /// Server-side counters at shutdown.
    pub server: StatsSnapshot,
    /// Client-side counters at shutdown.
    pub client: StatsSnapshot,
    /// Capture records flushed to disk.
    pub records: u64,
    /// Fleet-mode extras (`LiveConfig::resolvers`, same as
    /// `loadgen.fleet`), absent on the calibrated replay path.
    pub fleet: Option<crate::fleetgen::FleetgenReport>,
}

/// The live loop's stats monitor, for `serve` alone or a whole live
/// run: every 50 ms until `wait` says the run is over, refresh the
/// `authd_server_qps` gauge (and `authd_loadgen_qps`, given the load
/// generator's `client` stats) for `--metrics-addr` scrapes, and every
/// `interval` print a snapshot line per side to stderr. `wait(step)`
/// returns within `step`, true once the run is over.
pub fn monitor(
    server: &Server,
    client: Option<&Stats>,
    interval: Option<Duration>,
    mut wait: impl FnMut(Duration) -> bool,
) {
    let step = Duration::from_millis(50);
    let server_qps = obs::gauge("authd_server_qps", "server-side queries per second");
    let client = client.map(|stats| {
        let qps = obs::gauge("authd_loadgen_qps", "load generator queries per second");
        (stats, qps)
    });
    let mut since_print = Duration::ZERO;
    while !wait(step) {
        let elapsed = server.elapsed_secs();
        let server_snap = server.stats().snapshot(elapsed);
        server_qps.set(server_snap.qps);
        let client_snap = client.as_ref().map(|(stats, qps)| {
            let snap = stats.snapshot(elapsed);
            qps.set(snap.qps);
            snap
        });
        since_print += step;
        if interval.is_some_and(|iv| since_print >= iv) {
            since_print = Duration::ZERO;
            match client_snap {
                None => eprintln!("{server_snap}"),
                Some(client_snap) => {
                    eprintln!("serve  | {server_snap}");
                    eprintln!("loadgen| {client_snap}");
                }
            }
        }
    }
}

/// Run the whole loop; returns once the capture is sealed on disk.
pub fn run_live(config: &LiveConfig) -> io::Result<LiveReport> {
    let tap = Tap::create(&config.capture)?;
    let server = Server::start(ServerConfig {
        udp_workers: config.udp_workers,
        tcp_workers: config.tcp_workers,
        tap: Some(tap),
        ..ServerConfig::for_spec(&config.spec)
    })?;

    let client_stats = Stats::new();
    // dropped when the load generator returns: the monitor wakes at once
    let (done, done_rx) = crossbeam::channel::bounded::<()>(0);
    let loadgen = crossbeam::thread::scope(|s| {
        let (server, client_stats) = (&server, &client_stats);
        s.spawn(move |_| {
            monitor(server, Some(client_stats), config.stats_interval, |step| {
                !matches!(
                    done_rx.recv_timeout(step),
                    Err(crossbeam::channel::RecvTimeoutError::Timeout)
                )
            })
        });
        let mut lg = LoadgenConfig::new(
            config.spec.clone(),
            config.scale,
            config.seed,
            server.udp_addr(),
            server.tcp_addr(),
        );
        lg.workers = config.loadgen_workers;
        lg.max_queries = config.max_queries;
        lg.duration = config.duration;
        lg.resolvers = config.resolvers;
        let report = run_loadgen(&lg, client_stats);
        drop(done);
        report
    })
    .expect("live threads do not panic")?;

    let elapsed = server.elapsed_secs();
    let server_snap = server.stats().snapshot(elapsed);
    let records = server.shutdown()?;
    Ok(LiveReport {
        loadgen,
        server: server_snap,
        client: client_stats.snapshot(elapsed),
        records,
        fleet: loadgen.fleet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::reader::Reader;
    use netbase::capture::{CaptureReader, Direction};
    use netbase::flow::Transport;
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;
    use std::fs;

    /// Replay mode: the tap reads back whole and ingests cleanly, one
    /// row per query the server counted.
    #[test]
    fn small_live_run_produces_consumable_capture() {
        use entrada::enrich::Enricher;
        use entrada::ingest::CaptureIngest;
        use simnet::engine::Engine;

        let _guard = crate::signal::TEST_GUARD.lock().unwrap();
        let dir = std::env::temp_dir().join("authd-live-test");
        fs::create_dir_all(&dir).unwrap();
        let capture = dir.join("small.dnscap");
        let spec = dataset(Vantage::Nl, 2020);
        let mut config = LiveConfig::new(spec.clone(), Scale::tiny(), 7, capture.clone());
        config.max_queries = Some(300);
        config.loadgen_workers = 2;
        config.udp_workers = 2;
        config.tcp_workers = 1;
        let report = run_live(&config).unwrap();
        assert_eq!(report.loadgen.sent, report.client.sent);
        assert!(report.loadgen.sent >= 300, "sent {}", report.loadgen.sent);
        assert!(report.records > 0);
        assert!(report.server.queries() >= 300);

        let bytes = fs::read(&capture).unwrap();
        let records = CaptureReader::new(&bytes[..]).unwrap().fold(0u64, |n, r| {
            r.expect("no torn records");
            n + 1
        });
        assert_eq!(records, report.records);

        let engine = Engine::new(spec, Scale::tiny(), 7);
        let reader = CaptureReader::new(&bytes[..]).unwrap();
        let mut ingest = CaptureIngest::new(reader, Enricher::new(engine.plan().mapper.clone()));
        let rows = ingest.by_ref().count() as u64;
        let stats = ingest.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!((stats.malformed, stats.capture_errors), (0, 0), "{stats:?}");
        assert_eq!(rows, report.server.queries());
        fs::remove_file(&capture).ok();
    }

    /// Fleet mode: real resolver instances over real sockets, capture
    /// consumable, shared caches absorbing repeat demand, and the
    /// 0x20-mixing fleets' queries recased on the wire as an offline
    /// capture records them.
    #[test]
    fn fleet_live_run_produces_consumable_capture() {
        let _guard = crate::signal::TEST_GUARD.lock().unwrap();
        let dir = std::env::temp_dir().join("authd-fleet-live-test");
        fs::create_dir_all(&dir).unwrap();
        let capture = dir.join("fleet.dnscap");
        let mut config = LiveConfig::new(
            dataset(Vantage::Nl, 2020),
            Scale::tiny(),
            7,
            capture.clone(),
        );
        config.max_queries = Some(400);
        config.resolvers = Some(16);
        config.loadgen_workers = 2;
        config.udp_workers = 2;
        config.tcp_workers = 1;
        let report = run_live(&config).unwrap();
        let fleet = report.fleet.expect("fleet mode reports fleet extras");
        assert!(report.loadgen.sent >= 400, "sent {}", report.loadgen.sent);
        assert!(report.records > 0);
        assert!(
            fleet.cache_hit_ratio > 0.0,
            "fleet caches saw no hits: {fleet:?}"
        );
        assert!(fleet.stimuli > 0);

        let bytes = fs::read(&capture).unwrap();
        let (mut records, mut recased) = (0u64, 0u64);
        for r in CaptureReader::new(&bytes[..]).unwrap() {
            let rec = r.expect("no torn records");
            records += 1;
            if rec.direction != Direction::Query {
                continue;
            }
            let msg = match rec.flow.transport {
                Transport::Udp => &rec.payload[..],
                Transport::Tcp => &rec.payload[2..],
            };
            let question = Reader::new(msg).unwrap().questions().next().unwrap();
            recased += question.qname.as_wire().iter().any(u8::is_ascii_uppercase) as u64;
        }
        assert_eq!(records, report.records);
        assert!(recased > 0, "no query on the wire was 0x20-mixed");
        fs::remove_file(&capture).ok();
    }

    /// The reactor keeps walks in flight and drains them: 16 resolvers
    /// on one load-generator thread have several vantage exchanges
    /// outstanding at once, and when the run returns every query sent
    /// was answered or timed out, and the tap joins with none
    /// unanswered.
    #[test]
    fn fleet_walks_overlap_and_drain() {
        use entrada::enrich::Enricher;
        use entrada::ingest::CaptureIngest;
        use simnet::engine::Engine;

        let _guard = crate::signal::TEST_GUARD.lock().unwrap();
        let dir = std::env::temp_dir().join("authd-fleet-overlap-test");
        fs::create_dir_all(&dir).unwrap();
        let capture = dir.join("overlap.dnscap");
        let spec = dataset(Vantage::Nl, 2020);
        let mut config = LiveConfig::new(spec.clone(), Scale::tiny(), 7, capture.clone());
        config.max_queries = Some(600);
        config.resolvers = Some(16);
        config.loadgen_workers = 1;
        config.udp_workers = 1;
        config.tcp_workers = 1;
        let report = run_live(&config).unwrap();
        let fleet = report.fleet.expect("fleet mode reports fleet extras");
        assert!(
            fleet.inflight_peak >= 2,
            "walks never overlapped: {fleet:?}"
        );
        let lg = report.loadgen;
        assert!(lg.sent >= 600, "sent {}", lg.sent);
        assert_eq!(lg.sent, lg.received + lg.timeouts, "{lg:?}");

        let engine = Engine::new(spec, Scale::tiny(), 7);
        let reader = CaptureReader::new(fs::File::open(&capture).unwrap()).unwrap();
        let mut ingest = CaptureIngest::new(reader, Enricher::new(engine.plan().mapper.clone()));
        let rows = ingest.by_ref().count() as u64;
        let stats = ingest.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.unanswered_queries, 0, "{stats:?}");
        assert_eq!(rows, report.server.queries());
        fs::remove_file(&capture).ok();
    }
}
