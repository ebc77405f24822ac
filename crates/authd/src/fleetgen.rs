//! Live fleet loadgen: the algorithmic resolver fleet over real sockets.
//!
//! By default [`crate::loadgen`] replays *pre-planned* queries from the
//! calibrated [`simnet::drive::Driver`]; with
//! [`LoadgenConfig::resolvers`] set it calls into this module, which
//! runs `--resolvers=N` actual [`IterativeResolver`] instances, every
//! one of them walking at once. Each lane is one resolver from the
//! fleet materialization and one slot of its load-generator thread's
//! [`Reactor`]: it receives client stimuli (sampled by
//! [`simnet::emerge::sample_stimulus`]) and steps its walk through the
//! delegation hierarchy — synthetic root and leaf tiers answered
//! in-process, inline with the step, after reading the resolver's query
//! bytes with [`simnet::auth::Query::read`] as the server does; the
//! *vantage* tier sent over the lane's own UDP socket (TCP after a TC=1
//! answer) to the `authd` server. A vantage query goes on the wire as
//! the resolver wrote it, respelled 0x20 for a mixing profile by the
//! same [`WireScratch::put_query`] an offline
//! [`simnet::emerge::SimTransport`] records through, so the server's
//! tap sees the queries an offline run records, spelling included; the
//! reply echoes that spelling back to the resolver, as a real server's
//! does. While one lane's query is on the wire, the thread's other
//! lanes walk on: `--resolvers=N` means N walks in flight.
//!
//! Same resolver code, offline and live: Q-min flips on the provider
//! rollout date, the per-fleet shared cache absorbs repeat demand, the
//! RTT selector learns real measured socket latencies, and truncated
//! (TC=1) answers retry over TCP exactly as a real resolver's would.

use crate::client::{Outcome, Query, Reactor, Work};
use crate::loadgen::{LoadgenConfig, StopRule};
use crate::stats::Stats;
use netbase::flow::IpVersion;
use netbase::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::{CacheStats, Exchange, IterativeResolver, SharedCache, Step};
use simnet::auth::Query as AuthQuery;
use simnet::emerge::{
    fleet_resolver, ns_rtt_histograms, root_hints, sample_stimulus, start_stimulus,
    synth_leaf_answer, synth_root_referral, tier_of, FleetMetrics, FleetSummary, Tier,
};
use simnet::engine::Engine;
use simnet::fleet::{cumulative_weights, pick_cumulative};
use simnet::vantage::WireScratch;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Nominal RTT credited to in-process root/leaf tiers (µs); only feeds
/// the resolver's per-host EWMA, never a capture record.
const SYNTH_TIER_RTT_US: u32 = 2_000;
/// How many stimuli a lane may start ahead of the slowest lane on its
/// thread. Every resolver takes the same share of the demand — lanes
/// are dealt to fleets by traffic share, so that is what keeps each
/// fleet's share — while a lane whose walk is slow (a TCP retry, a
/// glueless chain) does not stall the others.
const LANE_LEAD: u64 = 4;

/// The resolver-level half of a fleet run's report (the socket-level
/// half is the [`crate::loadgen::LoadgenReport`] it rides in).
#[derive(Debug, Clone, Copy)]
pub struct FleetgenReport {
    /// Client stimuli handed to resolvers.
    pub stimuli: u64,
    /// Shared-cache hit ratio across all fleets at shutdown.
    pub cache_hit_ratio: f64,
    /// Entries evicted from full cache maps, all fleets.
    pub cache_evictions: u64,
    /// Entries the fleets' caches held at shutdown.
    pub cache_entries: u64,
    /// Resolver-level retransmissions.
    pub resolver_retries: u64,
    /// Resolver-level timeouts observed in walk state machines.
    pub resolver_timeouts: u64,
    /// Most vantage exchanges outstanding at once, all threads.
    pub inflight_peak: u64,
}

/// Every fleet's cache figures, summed.
fn cache_totals(caches: &[SharedCache]) -> CacheStats {
    let mut total = CacheStats::default();
    for cache in caches {
        total.absorb(&cache.stats());
    }
    total
}

/// One resolver lane: a persistent resolver instance bound to one
/// materialized fleet member, the stimuli it has started, and the
/// vantage server its query in flight went to.
struct Lane {
    fleet: usize,
    resolver_idx: usize,
    resolver: IterativeResolver,
    rng: StdRng,
    walks: u64,
    ns: usize,
}

/// What every load-generator thread of a fleet run shares.
struct Run<'a> {
    config: &'a LoadgenConfig,
    engine: &'a Engine,
    stats: &'a Stats,
    caches: &'a [SharedCache],
    metrics: &'a FleetMetrics,
    rtt_hists: &'a [Arc<obs::Histogram>],
    started: Instant,
    stop: StopRule,
    resolvers: usize,
    stimuli: AtomicU64,
    inflight: AtomicI64,
    inflight_peak: AtomicI64,
    inflight_gauge: Arc<obs::Gauge>,
    inflight_peak_gauge: Arc<obs::Gauge>,
}

impl Run<'_> {
    /// One more (`+1`) or one fewer (`-1`) vantage exchange in flight.
    fn inflight(&self, delta: i64) {
        let now = self.inflight.fetch_add(delta, Ordering::Relaxed) + delta;
        self.inflight_gauge.set(now as f64);
        if delta > 0 {
            self.inflight_peak.fetch_max(now, Ordering::Relaxed);
            self.inflight_peak_gauge.set_max(now as f64);
        }
    }
}

/// One load-generator thread's lanes, one per reactor slot: each slot
/// sends its lane's vantage queries and hands the replies back to the
/// lane's walk.
struct Lanes<'a> {
    run: &'a Run<'a>,
    lanes: Vec<Lane>,
    /// Source ports and 0x20 spellings of the vantage queries.
    rng: StdRng,
    /// Where the synthetic tiers' replies are written and the vantage
    /// queries are put.
    wire: WireScratch,
}

impl Lanes<'_> {
    /// Hand lane `i` its next stimulus, unless it is [`LANE_LEAD`]
    /// ahead or the run is stopping.
    fn begin(&mut self, i: usize) -> Option<Step> {
        let run = self.run;
        let slowest = self.lanes.iter().map(|l| l.walks).min().unwrap_or(0);
        if self.lanes[i].walks >= slowest + LANE_LEAD || run.stop.fired(run.stats.sent.get()) {
            return None;
        }
        let engine = run.engine;
        let lane = &mut self.lanes[i];
        let now = run.config.spec.start
            + SimDuration::from_micros(run.started.elapsed().as_micros() as u64);
        let fleet = &engine.fleets()[lane.fleet];
        let is_junk = lane.rng.gen_bool(fleet.spec.junk_ratio.clamp(0.0, 1.0));
        let stim = sample_stimulus(
            engine.zone(),
            engine.zipf(),
            engine.junk_gen(),
            &fleet.spec,
            is_junk,
            &mut lane.rng,
        );
        lane.walks += 1;
        let nth = run.stimuli.fetch_add(1, Ordering::Relaxed);
        if nth.is_multiple_of(128) {
            // keep the cache gauges live for mid-run /metrics and
            // /flight scrapes
            run.metrics
                .observe(&cache_totals(run.caches), run.resolvers as u64);
        }
        let qmin = fleet.spec.qmin_active(now);
        Some(start_stimulus(&mut lane.resolver, qmin, now, &stim))
    }
}

impl Work for Lanes<'_> {
    fn next(&mut self, i: usize, last: Outcome<'_>) -> Option<Query<'_>> {
        let run = self.run;
        let mut step = match last {
            Outcome::Idle => self.begin(i)?,
            Outcome::Answer(reply) => {
                run.inflight(-1);
                let lane = &mut self.lanes[i];
                if let Some(h) = run.rtt_hists.get(lane.ns) {
                    h.record(reply.rtt_us);
                }
                lane.resolver.step(Exchange::Answer {
                    reply: reply.bytes,
                    rtt_us: reply.rtt_us.min(u32::MAX as u64) as u32,
                })
            }
            Outcome::Timeout => {
                run.inflight(-1);
                self.lanes[i].resolver.step(Exchange::Timeout)
            }
        };
        let engine = run.engine;
        let zone = engine.zone();
        let servers = &engine.spec().servers;
        let root_zone = zone.is_root_zone();
        loop {
            let lane = &mut self.lanes[i];
            let fleet = &engine.fleets()[lane.fleet];
            let profile = &fleet.resolvers[lane.resolver_idx];
            step = match step {
                Step::Send { server } => {
                    let bytes = lane.resolver.query();
                    let tier = tier_of(servers, root_zone, server);
                    if let Tier::Vantage(si) = tier {
                        self.wire.put_query(bytes, profile.mix_case, &mut self.rng);
                        lane.ns = si;
                        let src_ip = profile.addr_for(IpVersion::of(server));
                        run.inflight(1);
                        return Some(Query {
                            wire: self.wire.query(),
                            src: SocketAddr::new(src_ip, self.rng.gen_range(1024..u16::MAX)),
                            dst: SocketAddr::new(server, 53),
                            tcp_direct: false,
                        });
                    }
                    // the in-process tiers: bytes that are no query get
                    // no answer, as on a socket
                    let Some(query) = AuthQuery::read(bytes) else {
                        step = lane.resolver.step(Exchange::Timeout);
                        continue;
                    };
                    if let Tier::Root = tier {
                        let (v4, v6) = profile.families();
                        synth_root_referral(zone, servers, v4, v6, &query, &mut self.wire);
                    } else {
                        let ttl = fleet.spec.cache_ttl.as_secs().max(1) as u32;
                        synth_leaf_answer(zone, ttl, &query, &mut self.wire);
                    }
                    lane.resolver.step(Exchange::Answer {
                        reply: self.wire.response().bytes,
                        rtt_us: SYNTH_TIER_RTT_US,
                    })
                }
                Step::Prime => {
                    lane.resolver
                        .prime(root_hints(servers, root_zone, profile.families()))
                }
                Step::Done(_) => self.begin(i)?,
            };
        }
    }
}

/// Run `resolvers` resolver instances, all walking at once, against
/// the server until a stop condition (vantage-query count, duration, or
/// SIGINT) fires; walks in flight then finish. Socket-level tallies
/// accumulate in `stats`; the resolver-level ones are returned.
pub(crate) fn run(
    config: &LoadgenConfig,
    engine: &Engine,
    resolvers: usize,
    started: Instant,
    stats: &Stats,
) -> io::Result<FleetgenReport> {
    let nfleets = engine.fleets().len();
    if nfleets == 0 {
        return Err(io::Error::other("dataset has no fleets"));
    }
    let rtt_hists = ns_rtt_histograms(&config.spec.servers);
    let metrics = FleetMetrics::register();

    // one shared cache per fleet, as offline
    let caches: Vec<SharedCache> = (0..nfleets)
        .map(|_| SharedCache::with_capacity(resolver::cache::DEFAULT_CAPACITY))
        .collect();

    // assign lanes to fleets proportionally to traffic share: lane i
    // takes the fleet whose cumulative share covers (i + 0.5) / N
    let resolvers = resolvers.max(1);
    let fleet_cum = cumulative_weights(engine.fleets().iter().map(|f| f.spec.traffic_share));
    let mut lanes: Vec<Lane> = (0..resolvers)
        .map(|i| {
            let fi = pick_cumulative(&fleet_cum, (i as f64 + 0.5) / resolvers as f64);
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xf1ee_0000 ^ i as u64);
            let fleet = &engine.fleets()[fi];
            let resolver_idx = fleet.pick(&mut rng);
            Lane {
                fleet: fi,
                resolver_idx,
                resolver: fleet_resolver(
                    &fleet.resolvers[resolver_idx],
                    fleet.spec.qmin_active(config.spec.start),
                    &caches[fi],
                ),
                rng,
                walks: 0,
                ns: 0,
            }
        })
        .collect();
    metrics.observe(&cache_totals(&caches), resolvers as u64);

    let run = Run {
        config,
        engine,
        stats,
        caches: &caches,
        metrics: &metrics,
        rtt_hists: &rtt_hists,
        started,
        stop: StopRule::new(config, started),
        resolvers,
        stimuli: AtomicU64::new(0),
        inflight: AtomicI64::new(0),
        inflight_peak: AtomicI64::new(0),
        inflight_gauge: obs::gauge(
            "resolver_fleet_inflight",
            "fleet resolver vantage exchanges outstanding",
        ),
        inflight_peak_gauge: obs::gauge(
            "resolver_fleet_inflight_peak",
            "fleet resolver vantage exchanges outstanding (high-water mark)",
        ),
    };

    // deal lanes round-robin to load-generator threads
    let workers = config.workers.clamp(1, resolvers);
    let mut per_worker: Vec<Vec<Lane>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, lane) in lanes.drain(..).enumerate() {
        per_worker[i % workers].push(lane);
    }

    let run = &run;
    let (resolver_retries, resolver_timeouts) = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|lanes| {
                s.spawn(move |_| {
                    let Ok(mut reactor) = Reactor::new(config, lanes.len(), stats) else {
                        run.stop.stop();
                        return (0u64, 0u64);
                    };
                    let mut work = Lanes {
                        run,
                        lanes,
                        rng: StdRng::seed_from_u64(config.seed ^ 0x11fe_7a05),
                        wire: WireScratch::default(),
                    };
                    reactor.run(&mut work);
                    work.lanes.iter().fold((0, 0), |(r, t), l| {
                        (r + l.resolver.stats.retries, t + l.resolver.stats.timeouts)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleetgen worker"))
            .fold((0, 0), |(r, t), (hr, ht)| (r + hr, t + ht))
    })
    .expect("fleetgen threads do not panic");

    let cache = cache_totals(&caches);
    metrics.finish(&FleetSummary {
        cache,
        retries: resolver_retries,
        timeouts: resolver_timeouts,
        instances: resolvers as u64,
    });
    run.inflight_gauge.set(0.0);

    Ok(FleetgenReport {
        stimuli: run.stimuli.load(Ordering::Relaxed),
        cache_hit_ratio: cache.hit_ratio(),
        cache_evictions: cache.evictions,
        cache_entries: cache.entries() as u64,
        resolver_retries,
        resolver_timeouts,
        inflight_peak: run.inflight_peak.load(Ordering::Relaxed) as u64,
    })
}
