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
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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
    let started = Instant::now();
    let done = AtomicBool::new(false);
    let loadgen = crossbeam::thread::scope(|s| {
        // The monitor always runs: it keeps the qps gauges fresh for
        // `--metrics-addr` scrapes, and additionally prints stats lines
        // when an interval was requested.
        {
            let server = &server;
            let client_stats = &client_stats;
            let done = &done;
            let interval = config.stats_interval;
            let server_qps = obs::gauge("authd_server_qps", "server-side queries per second");
            let loadgen_qps = obs::gauge("authd_loadgen_qps", "load generator queries per second");
            s.spawn(move |_| {
                // sleep in short steps so `done` stays responsive even
                // with a long stats interval
                let step = Duration::from_millis(50);
                let mut since_print = Duration::ZERO;
                while !done.load(Ordering::SeqCst) {
                    std::thread::sleep(step);
                    let elapsed = started.elapsed().as_secs_f64();
                    let server_snap = server.stats().snapshot(elapsed);
                    let client_snap = client_stats.snapshot(elapsed);
                    server_qps.set(server_snap.qps);
                    loadgen_qps.set(client_snap.qps);
                    since_print += step;
                    if interval.is_some_and(|iv| since_print >= iv) {
                        since_print = Duration::ZERO;
                        eprintln!("serve  | {server_snap}");
                        eprintln!("loadgen| {client_snap}");
                    }
                }
            });
        }
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
        let report = run_loadgen(&lg, &client_stats);
        done.store(true, Ordering::SeqCst);
        report
    })
    .expect("live threads do not panic")?;

    let elapsed = started.elapsed().as_secs_f64();
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
    use netbase::capture::CaptureReader;
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;
    use std::fs;

    #[test]
    fn small_live_run_produces_consumable_capture() {
        let _guard = crate::signal::TEST_GUARD.lock().unwrap();
        let dir = std::env::temp_dir().join("authd-live-test");
        fs::create_dir_all(&dir).unwrap();
        let capture = dir.join("small.dnscap");
        let mut config = LiveConfig::new(
            dataset(Vantage::Nl, 2020),
            Scale::tiny(),
            7,
            capture.clone(),
        );
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
        fs::remove_file(&capture).ok();
    }

    /// Fleet mode: real resolver instances over real sockets, capture
    /// consumable, shared caches absorbing repeat demand.
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
        let records = CaptureReader::new(&bytes[..]).unwrap().fold(0u64, |n, r| {
            r.expect("no torn records");
            n + 1
        });
        assert_eq!(records, report.records);
        fs::remove_file(&capture).ok();
    }
}
