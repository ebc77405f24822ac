//! Live fleet loadgen: the algorithmic resolver fleet over real sockets.
//!
//! By default [`crate::loadgen`] replays *pre-planned* queries from the
//! calibrated [`simnet::drive::Driver`]; with
//! [`LoadgenConfig::resolvers`] set it calls into this module, which
//! runs `--resolvers=N` actual [`IterativeResolver`] instances
//! concurrently. Each lane is one resolver from the fleet
//! materialization: it receives client stimuli (sampled by
//! [`simnet::emerge::sample_stimulus`]) and walks the delegation
//! hierarchy through a `LiveTransport` — synthetic root and leaf tiers
//! answered in-process, the *vantage* tier sent over real UDP/TCP
//! sockets to the `authd` server through the shared [`Client`]
//! exchange, so the server's capture tap records exactly what an
//! offline [`simnet::emerge::SimTransport`] run would have recorded.
//!
//! Same resolver code, offline and live: Q-min flips on the provider
//! rollout date, the per-fleet shared cache absorbs repeat demand, the
//! RTT selector learns real measured socket latencies, and truncated
//! (TC=1) answers retry over TCP through the resolver's own state
//! machine observing a real truncated wire response.

use crate::client::Client;
use crate::loadgen::LoadgenConfig;
use crate::signal;
use crate::stats::Stats;
use dns_wire::message::Message;
use netbase::flow::IpVersion;
use netbase::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::{CacheStats, Exchange, IterativeResolver, SharedCache, Transport};
use simnet::emerge::{
    fleet_resolver, ns_rtt_histograms, resolve_stimulus, root_hints, sample_stimulus,
    synth_leaf_answer, synth_root_referral, tier_of, FleetMetrics, FleetSummary, Tier,
};
use simnet::engine::Engine;
use simnet::fleet::{cumulative_weights, pick_cumulative, Fleet};
use simnet::vantage::WireScratch;
use std::io;
use std::net::{IpAddr, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Nominal RTT credited to in-process root/leaf tiers (µs); only feeds
/// the resolver's per-host EWMA, never a capture record.
const SYNTH_TIER_RTT_US: u32 = 2_000;

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
}

/// The live three-tier transport: in-process root/leaf, real sockets
/// at the vantage. One per worker thread; `lane` re-arms it for the
/// resolver instance whose walk is being driven. Replies are lent as
/// bytes: the synthetic tiers' from `wire`, the vantage's from the
/// client's receive buffer.
struct LiveTransport<'a> {
    engine: &'a Engine,
    client: Client<'a>,
    rtt_hists: &'a [std::sync::Arc<obs::Histogram>],
    rng: StdRng,
    root_zone: bool,
    // current lane
    fleet: usize,
    resolver_idx: usize,
    inflight: &'a AtomicI64,
    inflight_gauge: &'a obs::Gauge,
    /// Where the query and the synthetic tiers' replies are written.
    wire: WireScratch,
}

impl<'a> LiveTransport<'a> {
    fn fleet(&self) -> &'a Fleet {
        &self.engine.fleets()[self.fleet]
    }

    fn profile(&self) -> &'a simnet::fleet::Resolver {
        &self.fleet().resolvers[self.resolver_idx]
    }

    /// One real exchange with vantage server `si`; the preamble carries
    /// the logical resolver/server flow so the tap records
    /// offline-shaped addresses, and the measured RTTs feed both the
    /// resolver's selector and the per-nameserver histogram.
    fn vantage_exchange(&mut self, si: usize, dst: IpAddr, query: &Message) -> Exchange<'_> {
        let src_ip = self.profile().addr_for(IpVersion::of(dst));
        let src = SocketAddr::new(src_ip, self.rng.gen_range(1024..u16::MAX));
        let Some(question) = query.question() else {
            return Exchange::Timeout;
        };
        self.wire
            .write_query(&query.header, question, query.edns.as_ref());

        let gauge_val = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_gauge.set(gauge_val as f64);
        let ns_rtt = self.rtt_hists.get(si).map(|h| &**h);
        let reply = self.client.exchange(
            self.wire.query(),
            src,
            SocketAddr::new(dst, 53),
            false,
            ns_rtt,
        );
        let gauge_val = self.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        self.inflight_gauge.set(gauge_val as f64);
        match reply {
            Some(reply) => Exchange::Answer {
                reply: reply.bytes,
                rtt_us: reply.rtt_us.min(u32::MAX as u64) as u32,
            },
            None => Exchange::Timeout,
        }
    }
}

impl Transport for LiveTransport<'_> {
    fn exchange(&mut self, server: IpAddr, query: &Message) -> Exchange<'_> {
        let zone = self.engine.zone();
        let servers = &self.engine.spec().servers;
        match tier_of(servers, self.root_zone, server) {
            Tier::Vantage(si) => return self.vantage_exchange(si, server, query),
            Tier::Root => {
                let (v4, v6) = self.profile().families();
                synth_root_referral(zone, servers, v4, v6, query.into(), &mut self.wire);
            }
            Tier::Leaf => {
                let ttl = self.fleet().spec.cache_ttl.as_secs().max(1) as u32;
                synth_leaf_answer(zone, ttl, query.into(), &mut self.wire);
            }
        }
        Exchange::Answer {
            reply: self.wire.response().bytes,
            rtt_us: SYNTH_TIER_RTT_US,
        }
    }

    fn root_servers(&self) -> Vec<IpAddr> {
        root_hints(
            &self.engine.spec().servers,
            self.root_zone,
            self.profile().families(),
        )
    }
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
/// materialized fleet member.
struct Lane {
    fleet: usize,
    resolver_idx: usize,
    resolver: IterativeResolver,
    rng: StdRng,
}

/// Run `resolvers` concurrent resolver instances against the server
/// until a stop condition (vantage-query count, duration, or SIGINT)
/// fires. Socket-level tallies accumulate in `stats`; the
/// resolver-level ones are returned.
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
    let inflight_gauge = obs::gauge(
        "resolver_fleet_inflight",
        "fleet resolver stimuli currently mid-walk at the vantage",
    );
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
            }
        })
        .collect();
    metrics.observe(&cache_totals(&caches), resolvers as u64);

    let start_sim = config.spec.start;
    let deadline = config.duration.map(|d| started + d);
    let stop = AtomicBool::new(false);
    let inflight = AtomicI64::new(0);
    let stimuli = AtomicU64::new(0);
    let workers = config.workers.clamp(1, resolvers);

    // deal lanes round-robin to worker threads
    let mut per_worker: Vec<Vec<Lane>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, lane) in lanes.drain(..).enumerate() {
        per_worker[i % workers].push(lane);
    }

    let engine_ref = engine;
    let rtt_ref = &rtt_hists[..];
    let stop_ref = &stop;
    let inflight_ref = &inflight;
    let stimuli_ref = &stimuli;
    let gauge_ref = &*inflight_gauge;
    let metrics_ref = &metrics;
    let caches_ref = &caches[..];
    let mut resolver_retries = 0u64;
    let mut resolver_timeouts = 0u64;
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|mut my_lanes| {
                s.spawn(move |_| {
                    let Ok(client) = Client::new(config, stats) else {
                        stop_ref.store(true, Ordering::SeqCst);
                        return (0u64, 0u64);
                    };
                    let mut tr = LiveTransport {
                        engine: engine_ref,
                        client,
                        rtt_hists: rtt_ref,
                        rng: StdRng::seed_from_u64(config.seed ^ 0x11fe_7a05),
                        root_zone: engine_ref.zone().is_root_zone(),
                        fleet: 0,
                        resolver_idx: 0,
                        inflight: inflight_ref,
                        inflight_gauge: gauge_ref,
                        wire: WireScratch::default(),
                    };
                    loop {
                        for lane in &mut my_lanes {
                            if signal::triggered()
                                || stop_ref.load(Ordering::SeqCst)
                                || deadline.is_some_and(|d| Instant::now() >= d)
                                || config.max_queries.is_some_and(|m| stats.sent.get() >= m)
                            {
                                stop_ref.store(true, Ordering::SeqCst);
                                let mut retries = 0;
                                let mut touts = 0;
                                for l in my_lanes.iter() {
                                    retries += l.resolver.stats.retries;
                                    touts += l.resolver.stats.timeouts;
                                }
                                return (retries, touts);
                            }
                            let now = start_sim
                                + SimDuration::from_micros(started.elapsed().as_micros() as u64);
                            let fleet = &engine_ref.fleets()[lane.fleet];
                            let is_junk = lane.rng.gen_bool(fleet.spec.junk_ratio.clamp(0.0, 1.0));
                            let stim = sample_stimulus(
                                engine_ref.zone(),
                                engine_ref.zipf(),
                                engine_ref.junk_gen(),
                                &fleet.spec,
                                is_junk,
                                &mut lane.rng,
                            );
                            let nth = stimuli_ref.fetch_add(1, Ordering::Relaxed);
                            if nth.is_multiple_of(128) {
                                // keep the cache gauges live for
                                // mid-run /metrics and /flight scrapes
                                metrics_ref.observe(&cache_totals(caches_ref), resolvers as u64);
                            }
                            tr.fleet = lane.fleet;
                            tr.resolver_idx = lane.resolver_idx;
                            let qmin = fleet.spec.qmin_active(now);
                            resolve_stimulus(&mut lane.resolver, &mut tr, qmin, now, &stim);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            let (r, t) = h.join().expect("fleetgen worker");
            resolver_retries += r;
            resolver_timeouts += t;
        }
    })
    .expect("fleetgen threads do not panic");

    let cache = cache_totals(&caches);
    metrics.finish(&FleetSummary {
        cache,
        retries: resolver_retries,
        timeouts: resolver_timeouts,
        instances: resolvers as u64,
    });
    inflight_gauge.set(0.0);

    Ok(FleetgenReport {
        stimuli: stimuli.load(Ordering::Relaxed),
        cache_hit_ratio: cache.hit_ratio(),
        cache_evictions: cache.evictions,
        cache_entries: cache.entries() as u64,
        resolver_retries,
        resolver_timeouts,
    })
}
