//! Closed-loop load generator driven by the fleet profiles.
//!
//! [`run_loadgen`] is the one entry point. By default it *replays*: a
//! producer thread pulls [`PlannedQuery`]s from
//! [`simnet::drive::Driver`] — the same fleet materialization, qtype
//! mixes, Q-min schedule, EDNS sizes, and cache model the offline
//! engine uses — into a bounded channel, and N worker threads each run
//! one [`Client`] exchange per query (UDP, or TCP for the direct-TCP
//! share, with TCP fallback on TC=1). With
//! [`LoadgenConfig::resolvers`] set, the same workers instead drive
//! resolver walks ([`crate::fleetgen`]) over the same [`Client`].
//!
//! Every query carries a [`crate::proxy::Preamble`] with the logical
//! resolver/server addresses so the server's capture tap attributes
//! traffic the way the offline analyzer expects.

use crate::client::Client;
use crate::fleetgen::{self, FleetgenReport};
use crate::signal;
use crate::stats::Stats;
use netbase::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::drive::{Driver, PlannedQuery};
use simnet::engine::Engine;
use simnet::scenario::{DatasetSpec, Scale};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Load generator parameters.
pub struct LoadgenConfig {
    /// Dataset whose fleets drive the traffic.
    pub spec: DatasetSpec,
    /// Fleet scale factor.
    pub scale: Scale,
    /// Seed — must match the analyzer's seed for live/offline parity.
    pub seed: u64,
    /// Server's UDP endpoint.
    pub server_udp: SocketAddr,
    /// Server's TCP endpoint.
    pub server_tcp: SocketAddr,
    /// Closed-loop worker threads.
    pub workers: usize,
    /// Stop after this many queries — planned queries on the replay
    /// path, vantage queries sent (TCP retries included) on the fleet
    /// path (None = unbounded).
    pub max_queries: Option<u64>,
    /// Stop after this long (None = unbounded).
    pub duration: Option<Duration>,
    /// Per-query response timeout.
    pub timeout: Duration,
    /// Run the *algorithmic resolver fleet* ([`crate::fleetgen`]) with
    /// this many concurrent resolver instances, assigned to fleets by
    /// traffic share, instead of replaying the calibrated
    /// [`Driver`]'s pre-planned queries.
    pub resolvers: Option<usize>,
}

impl LoadgenConfig {
    /// Sensible defaults against a local server.
    pub fn new(
        spec: DatasetSpec,
        scale: Scale,
        seed: u64,
        server_udp: SocketAddr,
        server_tcp: SocketAddr,
    ) -> LoadgenConfig {
        LoadgenConfig {
            spec,
            scale,
            seed,
            server_udp,
            server_tcp,
            workers: 4,
            max_queries: None,
            duration: None,
            timeout: Duration::from_millis(500),
            resolvers: None,
        }
    }
}

/// What a load-generation run did.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenReport {
    /// Queries sent.
    pub sent: u64,
    /// Responses received and parsed.
    pub received: u64,
    /// Queries that timed out (includes RRL-dropped responses).
    pub timeouts: u64,
    /// TC=1 answers retried over TCP.
    pub tcp_fallbacks: u64,
    /// Wall-clock run time.
    pub elapsed: Duration,
    /// Resolver-level extras, when [`LoadgenConfig::resolvers`] is set.
    pub fleet: Option<FleetgenReport>,
}

struct Job {
    q: PlannedQuery,
    src_port: u16,
}

/// Run the closed loop until a stop condition (count, duration, or
/// SIGINT via [`signal::triggered`]) is hit; workers drain in-flight
/// queries before returning.
pub fn run_loadgen(config: &LoadgenConfig, stats: &Stats) -> io::Result<LoadgenReport> {
    stats.publish("authd_loadgen");
    let engine = Engine::new(config.spec.clone(), config.scale, config.seed);
    let started = Instant::now();
    let fleet = match config.resolvers {
        Some(n) => Some(fleetgen::run(config, &engine, n, started, stats)?),
        None => {
            replay(
                config,
                Driver::from_engine(engine, config.seed),
                started,
                stats,
            );
            None
        }
    };
    Ok(LoadgenReport {
        sent: stats.sent.get(),
        received: stats.responses.get(),
        timeouts: stats.timeouts.get(),
        tcp_fallbacks: stats.tcp_fallbacks.get(),
        elapsed: started.elapsed(),
        fleet,
    })
}

/// Replay the calibrated driver's queries through `config.workers`
/// closed-loop clients.
fn replay(config: &LoadgenConfig, mut driver: Driver, started: Instant, stats: &Stats) {
    let start_sim = config.spec.start;
    let deadline = config.duration.map(|d| started + d);
    let stop = AtomicBool::new(false);
    let (tx, rx) = crossbeam::channel::bounded::<Job>(1024);
    crossbeam::thread::scope(|s| {
        for _ in 0..config.workers.max(1) {
            let rx = rx.clone();
            let stop = &stop;
            s.spawn(move |_| worker_loop(&rx, config, stats, stop));
        }
        drop(rx);

        // producer: sample queries until a stop condition fires
        let mut port_rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_9097);
        let mut scheduled = 0u64;
        loop {
            if signal::triggered()
                || stop.load(Ordering::SeqCst)
                || deadline.is_some_and(|d| Instant::now() >= d)
                || config.max_queries.is_some_and(|m| scheduled >= m)
            {
                break;
            }
            let now = start_sim + SimDuration::from_micros(started.elapsed().as_micros() as u64);
            let job = Job {
                q: driver.sample(now),
                src_port: port_rng.gen_range(1024..u16::MAX),
            };
            // bounded send applies backpressure; poll the stop
            // conditions while the queue is full
            let mut job = job;
            loop {
                match tx.try_send(job) {
                    Ok(()) => break,
                    Err(crossbeam::channel::TrySendError::Full(back)) => {
                        job = back;
                        if signal::triggered()
                            || stop.load(Ordering::SeqCst)
                            || deadline.is_some_and(|d| Instant::now() >= d)
                        {
                            scheduled = u64::MAX; // force outer break
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                        scheduled = u64::MAX;
                        break;
                    }
                }
            }
            if scheduled == u64::MAX {
                break;
            }
            scheduled += 1;
        }
        drop(tx); // workers drain the queue and exit
    })
    .expect("loadgen threads do not panic");
}

fn worker_loop(
    rx: &crossbeam::channel::Receiver<Job>,
    config: &LoadgenConfig,
    stats: &Stats,
    stop: &AtomicBool,
) {
    let Ok(mut client) = Client::new(config, stats) else {
        stop.store(true, Ordering::SeqCst);
        return;
    };
    while let Ok(job) = rx.recv() {
        let src = SocketAddr::new(job.q.src, job.src_port);
        let dst = SocketAddr::new(job.q.dst, 53);
        client.exchange(&job.q.wire, src, dst, job.q.tcp_direct, None);
        if signal::triggered() {
            // drain fast: keep consuming jobs so the producer's channel
            // never wedges, but stop doing network work
            stop.store(true, Ordering::SeqCst);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
}
