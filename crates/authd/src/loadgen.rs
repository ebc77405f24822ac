//! Closed-loop load generator driven by the fleet profiles.
//!
//! [`run_loadgen`] is the one entry point. By default it *replays*: N
//! worker threads each run one [`Reactor`] of [`REPLAY_SLOTS`] slots,
//! and every slot, as soon as its last query is answered or timed out,
//! draws the next [`PlannedQuery`] straight from the one shared
//! [`simnet::drive::Driver`] — the same fleet materialization, qtype
//! mixes, Q-min schedule, EDNS sizes, and cache model the offline
//! engine uses — and sends it (UDP, or TCP for the direct-TCP share,
//! with TCP fallback on TC=1). With [`LoadgenConfig::resolvers`] set,
//! the same threads' reactors instead carry resolver walks
//! ([`crate::fleetgen`]), one slot per resolver. Both stop by one
//! [`StopRule`].
//!
//! Every query carries a [`crate::proxy::Preamble`] with the logical
//! resolver/server addresses so the server's capture tap attributes
//! traffic the way the offline analyzer expects.

use crate::client::{Outcome, Query, Reactor, Work};
use crate::fleetgen::{self, FleetgenReport};
use crate::signal;
use crate::stats::Stats;
use netbase::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::drive::{Driver, PlannedQuery};
use simnet::engine::Engine;
use simnet::scenario::{DatasetSpec, Scale};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Planned queries each replay thread keeps in flight.
pub const REPLAY_SLOTS: usize = 32;

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
    /// Closed-loop worker threads, one [`Reactor`] each.
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

/// When a run starts no more work: on SIGINT, once a reactor could not
/// start, at the deadline, or once the run's own count reaches
/// [`LoadgenConfig::max_queries`]. The replay counts planned queries,
/// the fleet vantage queries sent. Once fired it stays fired.
pub(crate) struct StopRule {
    stop: AtomicBool,
    deadline: Option<Instant>,
    max_queries: Option<u64>,
}

impl StopRule {
    pub(crate) fn new(config: &LoadgenConfig, started: Instant) -> StopRule {
        StopRule {
            stop: AtomicBool::new(false),
            deadline: config.duration.map(|d| started + d),
            max_queries: config.max_queries,
        }
    }

    /// Stop now.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether the run stops, `count` queries into it.
    pub(crate) fn fired(&self, count: u64) -> bool {
        if self.stop.load(Ordering::SeqCst)
            || signal::triggered()
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.max_queries.is_some_and(|m| count >= m)
        {
            self.stop();
            return true;
        }
        false
    }
}

/// Run the closed loop until a stop condition (count, duration, or
/// SIGINT via [`signal::triggered`]) is hit; no new query or stimulus
/// starts after it, and every query in flight is answered or timed out
/// before this returns.
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
/// reactors.
fn replay(config: &LoadgenConfig, driver: Driver, started: Instant, stats: &Stats) {
    let plan = Mutex::new(Plan {
        driver,
        port_rng: StdRng::seed_from_u64(config.seed ^ 0x5eed_9097),
        drawn: 0,
    });
    let stop = StopRule::new(config, started);
    crossbeam::thread::scope(|s| {
        for _ in 0..config.workers.max(1) {
            let (plan, stop) = (&plan, &stop);
            s.spawn(move |_| {
                let Ok(mut reactor) = Reactor::new(config, REPLAY_SLOTS, stats) else {
                    stop.stop();
                    return;
                };
                reactor.run(&mut Planned {
                    plan,
                    stop,
                    start_sim: config.spec.start,
                    started,
                    jobs: (0..REPLAY_SLOTS).map(|_| None).collect(),
                });
            });
        }
    })
    .expect("loadgen threads do not panic");
}

/// What every replay thread draws from, under one lock: the driver,
/// the source-port stream and the count of queries drawn, so the
/// sequence of (query, source port) pairs is the one a single thread
/// would draw, whichever threads send them.
struct Plan {
    driver: Driver,
    port_rng: StdRng,
    drawn: u64,
}

/// One replay thread's slots: each draws the next planned query as
/// soon as its last one ended, until the stop rule fires.
struct Planned<'a> {
    plan: &'a Mutex<Plan>,
    stop: &'a StopRule,
    start_sim: SimTime,
    started: Instant,
    /// The query each slot has in flight, and its source port.
    jobs: Vec<Option<(PlannedQuery, u16)>>,
}

impl Work for Planned<'_> {
    fn next(&mut self, slot: usize, _last: Outcome<'_>) -> Option<Query<'_>> {
        let job = {
            let mut plan = self.plan.lock().expect("replay plan poisoned");
            if self.stop.fired(plan.drawn) {
                return None;
            }
            plan.drawn += 1;
            let now = self.start_sim
                + SimDuration::from_micros(self.started.elapsed().as_micros() as u64);
            let q = plan.driver.sample(now);
            (q, plan.port_rng.gen_range(1024..u16::MAX))
        };
        let (q, src_port) = self.jobs[slot].insert(job);
        Some(Query {
            wire: &q.wire,
            src: SocketAddr::new(q.src, *src_port),
            dst: SocketAddr::new(q.dst, 53),
            tcp_direct: q.tcp_direct,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;

    /// Three replay threads draw from the one driver: each planned query
    /// is sent once, plus its TCP retry after a TC=1 answer, and none is
    /// lost between threads.
    #[test]
    fn replay_threads_send_each_planned_query_once() {
        let _guard = signal::TEST_GUARD.lock().unwrap();
        let spec = dataset(Vantage::Nl, 2020);
        let server = Server::start(ServerConfig::for_spec(&spec)).unwrap();
        let mut config =
            LoadgenConfig::new(spec, Scale::tiny(), 7, server.udp_addr(), server.tcp_addr());
        config.workers = 3;
        const N: u64 = 2_000;
        config.max_queries = Some(N);
        config.timeout = Duration::from_secs(5);
        let report = run_loadgen(&config, &Stats::new()).unwrap();
        server.shutdown().unwrap();
        assert_eq!(report.timeouts, 0, "{report:?}");
        assert_eq!(report.sent, N + report.tcp_fallbacks, "{report:?}");
        assert_eq!(report.received, report.sent, "{report:?}");
    }
}
