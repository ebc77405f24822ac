//! Emergent fleet generation: the algorithmic resolver fleet of the
//! `resolver` crate in the offline traffic loop.
//!
//! [`crate::engine::Engine::generate_sharded`] *calibrates* the vantage
//! stream — per-fleet qtype mixes, Q-min rewrite fractions and cache
//! absorption are sampled from distributions fitted to the paper. This
//! module replaces that per-query sampling with actual resolution:
//! every demand event is a client *stimulus* handed to an
//! [`IterativeResolver`] that walks root → vantage → leaf over a
//! three-tier [`SimTransport`]. Only the vantage tier is recorded, so
//! the capture is the cache-miss shadow the paper measures, and the
//! centralization signatures *emerge* from resolver algorithms instead
//! of being sampled:
//!
//! - The Dec-2019 Q-min flip (§4.2.1) is literally
//!   [`IterativeResolver::set_qmin`] toggling on the provider's rollout
//!   date — the NS-probe share at the vantage is the algorithm's
//!   output.
//! - The Feb-2020 `.nz` cyclic-dependency surge is the vantage handing
//!   out glueless mutually-dependent referrals inside the incident
//!   window; resolvers burn their query budget re-walking the cycle.
//! - Cloud shares stay pinned to Table 4 by the plan the calibrated
//!   engine steers by (`crate::plan`: one `SlotPlan`, one steering
//!   cursor): a fleet's slot quota counts *recorded vantage queries*,
//!   so traffic shares match by construction while the per-query
//!   content is emergent.
//!
//! ## Documented tolerances vs the calibrated engine
//!
//! The fleet path reproduces the calibrated headline series within the
//! tolerances the claims tests pin (see `tests/fleet_emergence.rs`),
//! with these known, accepted divergences:
//!
//! - **No DS/DNSKEY follow-ups** (`validate` stays off): shifts
//!   google-public's vantage mix by ≤ `ds_prob` ≈ 1.8 pp.
//! - **Per-fleet shared caches persist across slots** (calibrated
//!   rebuilds per-resolver caches each hourly slice), so absorption is
//!   higher; the quota pins volume, so only `cache_hits` accounting
//!   differs.
//! - **NoData negatives cache for 900 s** (RFC 2308 default) where the
//!   calibrated path caches NS terminals positively for 3600 s.
//! - **Server/family choice is the RTT selector's** (EWMA, emergent)
//!   rather than the calibrated softmax/logistic draw.
//! - **`.nz` Q-min walks probe twice** (`co.nz NS` + `label.co.nz NS`)
//!   where the calibrated rewrite emits one minimized probe.

use crate::auth::{Authoritative, Layout, Nm, Query, ServerSpec};
use crate::engine::{name_key, pick_qtype, slice_seed, DatasetStats, Engine};
use crate::fleet::{Fleet, Resolver as FleetResolver};
use crate::plan::{self, SlotPlan, Steering};
use crate::profile::FleetSpec;
use crate::rrl::RateLimiter;
use crate::scenario::Incident;
use crate::vantage::{self, Recorded, WireScratch, TCP_RETRY_GAP_US};
use dns_wire::name::Name;
use dns_wire::types::{RClass, RType, Rcode};
use dns_wire::writer::Section;
use netbase::capture::{RecordSink, RecordSlice};
use netbase::flow::IpVersion;
use netbase::time::{SimDuration, SimTime};
use obs::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::{
    CacheStats, Exchange, IterativeResolver, ResolverConfig, SharedCache, Step, Transport,
    WalkScratch,
};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;
use zonedb::junk::JunkGenerator;
use zonedb::popularity::ZipfSampler;
use zonedb::zone::{Lookup, ZoneModel};

/// Synthetic root server addresses (the unrecorded tier above the
/// vantage zone; datasets whose vantage *is* the root skip this tier).
pub const ROOT_V4: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4));
/// See [`ROOT_V4`].
pub const ROOT_V6: IpAddr = IpAddr::V6(Ipv6Addr::new(0x2001, 0x503, 0xba3e, 0, 0, 0, 0x2, 0x30));
/// RTT to the (anycast) root, microseconds.
const ROOT_RTT_US: u64 = 18_000;
/// RTT to leaf (registrant) nameservers, microseconds.
const LEAF_RTT_US: u64 = 12_000;
/// Resolver think-time between walk hops, microseconds.
const HOP_GAP_US: u64 = 150;
/// Virtual-time cost of a timed-out exchange (RRL drop), microseconds.
const TIMEOUT_COST_US: u64 = 300_000;
/// TTL on the synthetic root's delegation of the vantage zone.
const ROOT_NS_TTL: u32 = 172_800;
/// Salt separating per-fleet RNG streams from the calibrated engine's.
const FLEET_SALT: u64 = 0xf1ee_7a55;
/// Salt for the incident stream's RNG.
const INCIDENT_SALT: u64 = 0x1_c1de;

/// One client demand event handed to a fleet resolver.
#[derive(Debug, Clone)]
pub struct Stimulus {
    /// Name the client asked for.
    pub qname: Name,
    /// Record type the client asked for.
    pub qtype: RType,
    /// True when this is junk demand (typo/misconfiguration traffic).
    pub junk: bool,
}

/// Sample one client stimulus for a fleet.
///
/// Deep names (hosts under the delegation) are drawn with probability
/// `spec.qmin_frac` *independent of time*: the client workload never
/// changes on the rollout date. What changes at the flip is purely the
/// resolver algorithm — with Q-min off a deep stimulus reaches the
/// vantage as `www.example.nl A`; with Q-min on the same stimulus
/// produces the minimized `example.nl NS` probe. Post-flip the vantage
/// NS share is therefore `qmin_frac + (1-qmin_frac)·mix_ns`, exactly
/// the calibrated engine's rewrite composition.
pub fn sample_stimulus(
    zone: &ZoneModel,
    zipf: &ZipfSampler,
    junk: &JunkGenerator,
    spec: &FleetSpec,
    is_junk: bool,
    rng: &mut StdRng,
) -> Stimulus {
    if is_junk {
        let (qname, qtype) = plan::junk_question(junk, rng);
        return Stimulus {
            qname,
            qtype,
            junk: true,
        };
    }
    let idx = zipf.sample(rng);
    let mut qname = zone.registered_domain(idx);
    let qtype = pick_qtype(&spec.qtype_mix, rng);
    if spec.qmin_frac > 0.0 && rng.gen_bool(spec.qmin_frac) {
        qname = plan::deep_name(qname, rng);
    }
    Stimulus {
        qname,
        qtype,
        junk: false,
    }
}

/// The three-tier transport a fleet resolver walks.
///
/// Every tier reads the resolver's query bytes with [`Query::read`],
/// the step the live `authd` server answers through too.
///
/// - **root tier** (synthetic, unrecorded): refers everything to the
///   vantage zone, glue filtered to the resolver's address families (a
///   v6-only resolver only learns v6 vantage addresses, so dual-stack
///   preference stays emergent downstream).
/// - **vantage tier** (recorded): [`Authoritative::respond`] behind
///   incident interception; the resolver's bytes go on the wire as
///   written ([`WireScratch::put_query`], 0x20-mixed for a mixing
///   profile) and [`vantage::record`] records the exchange (EDNS
///   truncation with TCP retry, direct-TCP extra, RRL) exactly as the
///   calibrated engine's exchanges are.
/// - **leaf tier** (synthetic, unrecorded): registrant nameservers at
///   the referral glue addresses; positive answers carry the fleet's
///   `cache_ttl` so cache absorption matches the calibrated model.
pub struct SimTransport<'a> {
    zone: &'a ZoneModel,
    auth: &'a Authoritative,
    servers: &'a [ServerSpec],
    incidents: &'a [Incident],
    fleet: &'a Fleet,
    rtt_hists: &'a [Arc<Histogram>],
    cache_ttl_secs: u32,
    root_zone: bool,
    /// Per-slot RNG stream (also used by the steering loop).
    pub rng: StdRng,
    /// Response rate limiter, when the dataset enables RRL.
    pub rrl: Option<RateLimiter>,
    /// Where every recorded message of the slot is written.
    wire: WireScratch,
    /// Records captured at the vantage this slot.
    pub buf: RecordSlice,
    /// Counters for the slot.
    pub stats: DatasetStats,
    /// Vantage query records emitted by the current stimulus.
    pub emitted: u64,
    resolver_idx: usize,
    junk_stimulus: bool,
    start: SimTime,
    elapsed: SimDuration,
}

impl<'a> SimTransport<'a> {
    /// Build a transport for one fleet over one time slice.
    pub fn new(
        engine: &'a Engine,
        fleet: &'a Fleet,
        rtt_hists: &'a [Arc<Histogram>],
        rng: StdRng,
        rrl: Option<RateLimiter>,
    ) -> SimTransport<'a> {
        SimTransport {
            zone: engine.zone(),
            auth: engine.auth(),
            servers: &engine.spec().servers,
            incidents: &engine.spec().incidents,
            fleet,
            rtt_hists,
            cache_ttl_secs: fleet.spec.cache_ttl.as_secs().max(1) as u32,
            root_zone: engine.zone().is_root_zone(),
            rng,
            rrl,
            wire: WireScratch::default(),
            buf: RecordSlice::default(),
            stats: DatasetStats::default(),
            emitted: 0,
            resolver_idx: 0,
            junk_stimulus: false,
            start: SimTime(0),
            elapsed: SimDuration::ZERO,
        }
    }

    /// Arm the transport for one stimulus: which fleet resolver sends,
    /// when it starts, and whether the demand is junk (for accounting).
    pub fn begin(&mut self, resolver_idx: usize, start: SimTime, junk: bool) {
        self.resolver_idx = resolver_idx;
        self.start = start;
        self.junk_stimulus = junk;
        self.elapsed = SimDuration::ZERO;
        self.emitted = 0;
    }

    fn profile(&self) -> &FleetResolver {
        &self.fleet.resolvers[self.resolver_idx]
    }

    fn now(&self) -> SimTime {
        self.start + self.elapsed
    }

    /// During an incident window the vantage answers queries for the
    /// affected domains with a *glueless* referral whose only NS host
    /// lives under the other affected domain — the mutual dependency
    /// that makes resolution cycle (Pappas et al. 2004). Written into
    /// the transport's wire scratch when it applies; the qname is
    /// located only inside a window.
    fn incident_referral(&mut self, query: &Query, t: SimTime) -> bool {
        let Some(question) = query.question.as_ref().filter(|q| q.qtype != RType::Ds) else {
            return false;
        };
        for incident in self.incidents {
            let Incident::CyclicDependency {
                start,
                end,
                domain_indices,
                ..
            } = incident;
            if t < *start || t >= *end {
                continue;
            }
            let Some(idx) = self.zone.locate(&question.qname).delegation else {
                return false;
            };
            if let Some(pos) = domain_indices.iter().position(|d| *d == idx) {
                let other = self.zone.registered_domain(domain_indices[1 - pos]);
                let ns = other.child(b"ns").unwrap_or_else(|_| other.clone());
                self.auth.respond_glueless(query, &ns, &mut self.wire);
                return true;
            }
        }
        false
    }

    /// One recorded exchange at the vantage: `bytes`, the resolver's
    /// query as written, go on the wire and `query` is what the vantage
    /// read of them. The resolver is handed what a socket would hand
    /// it: the response bytes as written, in the spelling it asked
    /// with.
    fn vantage_exchange(
        &mut self,
        si: usize,
        dst_ip: IpAddr,
        bytes: &[u8],
        query: &Query,
    ) -> Exchange<'_> {
        let family = IpVersion::of(dst_ip);
        let r = self.profile();
        let src_ip = r.addr_for(family);
        let rtt_us = r.rtt_us(si, family);
        let mix = r.mix_case;
        let tcp_extra = self.fleet.spec.tcp_extra_at(r.site as usize);

        let t = self.now();
        if !self.incident_referral(query, t) {
            self.auth.respond(query, &mut self.wire);
        }
        if let Some(h) = self.rtt_hists.get(si) {
            h.record(rtt_us as u64);
        }

        // the capture carries the 0x20-mixed spelling on both messages;
        // the resolver reads its own back (real resolvers compare
        // case-insensitively, and a name it learns from the reply is
        // spelled as it asked)
        self.wire.put_query(bytes, mix, &mut self.rng);
        if mix {
            self.wire.echo_spelling(None);
        }
        let recorded = vantage::record(
            &vantage::Exchange {
                query: self.wire.query(),
                response: self.wire.response(),
                edns_size: query.edns_size,
                src_ip,
                dst_ip,
                rtt_us,
                at: t,
                tcp_extra,
            },
            &mut self.rng,
            self.rrl.as_mut(),
            &mut self.buf,
            &mut self.stats,
        );
        if mix {
            self.wire.echo_spelling(Some(bytes));
        }
        self.emitted += recorded.queries();
        if self.junk_stimulus {
            self.stats.junk_queries += recorded.queries();
        }
        let rtt = rtt_us as u64;
        let walk_cost = match recorded {
            Recorded::Dropped => {
                // the resolver sees silence and retries per its state machine
                self.elapsed = self.elapsed + SimDuration::from_micros(TIMEOUT_COST_US);
                return Exchange::Timeout;
            }
            Recorded::Udp => rtt,
            Recorded::Tcp => 2 * rtt,
            Recorded::UdpThenTcp => 3 * rtt + TCP_RETRY_GAP_US,
        };
        self.elapsed = self.elapsed + SimDuration::from_micros(walk_cost + HOP_GAP_US);
        Exchange::Answer {
            reply: self.wire.response().bytes,
            rtt_us,
        }
    }
}

/// Where a fleet resolver primes from, filtered to the address
/// families it has: the synthetic root, or — when the vantage *is* the
/// root (B-Root datasets) — straight at the recorded servers.
pub fn root_hints(servers: &[ServerSpec], root_zone: bool, (v4, v6): (bool, bool)) -> Vec<IpAddr> {
    let hints = if root_zone {
        servers
            .iter()
            .map(|s| (IpAddr::V4(s.v4), IpAddr::V6(s.v6)))
            .collect()
    } else {
        vec![(ROOT_V4, ROOT_V6)]
    };
    hints
        .into_iter()
        .flat_map(|(a4, a6)| [v4.then_some(a4), v6.then_some(a6)])
        .flatten()
        .collect()
}

/// Write the synthetic root's referral into the vantage zone as the
/// response in `wire`: one NS per dataset server, glue filtered to the
/// resolver's address families. Shared by the offline [`SimTransport`]
/// and the live loadgen transport (`authd`), so priming behaves
/// identically on both paths.
pub fn synth_root_referral(
    zone: &ZoneModel,
    servers: &[ServerSpec],
    v4: bool,
    v6: bool,
    query: &Query,
    wire: &mut WireScratch,
) {
    let apex = zone.apex();
    let hosts: Vec<Name> = (1..=servers.len())
        .map(|i| {
            apex.child(format!("ns{i}").as_bytes())
                .unwrap_or_else(|_| apex.clone())
        })
        .collect();
    let mut w = query.open(Rcode::NoError, wire);
    if let Some(q) = &query.question {
        w.question(q);
    }
    for ns in &hosts {
        w.record(
            Section::Authority,
            apex,
            RType::Ns,
            RClass::In,
            ROOT_NS_TTL,
            |c, out| {
                c.encode_name(ns, out);
                Ok(())
            },
        )
        .expect("infallible rdata");
    }
    for (ns, s) in hosts.iter().zip(servers) {
        let glue = [
            (v4, RType::A, &s.v4.octets()[..]),
            (v6, RType::Aaaa, &s.v6.octets()),
        ];
        for (_, rtype, addr) in glue.into_iter().filter(|(has, ..)| *has) {
            w.record(
                Section::Additional,
                ns,
                rtype,
                RClass::In,
                ROOT_NS_TTL,
                |_, out| {
                    out.extend_from_slice(addr);
                    Ok(())
                },
            )
            .expect("infallible rdata");
        }
    }
    query.close(w);
}

/// Write a leaf (registrant) nameserver's answer below the vantage cut
/// as the response in `wire`: deterministic addresses hashed from the
/// qname, NS sets at the delegation, NODATA/NXDOMAIN with a synthetic
/// SOA otherwise. Positive answers carry `cache_ttl_secs` so resolver
/// caches absorb repeat demand on the fleet's calibrated TTL. Shared by
/// the offline [`SimTransport`] and the live loadgen transport.
pub fn synth_leaf_answer(
    zone: &ZoneModel,
    cache_ttl_secs: u32,
    query: &Query,
    wire: &mut WireScratch,
) {
    let Some(question) = &query.question else {
        query.formerr(wire);
        return;
    };
    let qname = &question.qname;
    let ttl = cache_ttl_secs;
    let lookup = zone.classify(qname);
    let rcode = match lookup {
        Lookup::NxDomain => Rcode::NxDomain,
        _ => Rcode::NoError,
    };
    let mut l = Layout::open(query, question, rcode, zone.cut_of(qname), wire);
    let answer = Section::Answer;
    match (lookup, question.qtype) {
        (Lookup::Delegated, RType::A) => {
            let h = name_key(qname);
            l.record(answer, Nm::Question, RType::A, ttl, |_, out| {
                out.extend_from_slice(&[203, 0, 113, (h % 254 + 1) as u8])
            });
        }
        (Lookup::Delegated, RType::Aaaa) => {
            let h = name_key(qname);
            let aaaa = Ipv6Addr::new(0x2001, 0xdb8, 0x100, 0, 0, 0, 0, (h % 65_535 + 1) as u16);
            l.record(answer, Nm::Question, RType::Aaaa, ttl, |_, out| {
                out.extend_from_slice(&aaaa.octets())
            });
        }
        (Lookup::Delegated, RType::Ns) => {
            for host in 0..2 {
                l.ns(answer, Nm::Question, ttl, Nm::Child(host));
            }
        }
        // NODATA, or NXDOMAIN: the cut's SOA
        _ => l.soa(Section::Authority, 900, LEAF_SOA),
    }
    l.close(query);
}

/// The leaf tier's SOA serial, refresh, retry, expire and minimum.
const LEAF_SOA: [u32; 5] = [2020020801, 3600, 600, 2_419_200, 900];

/// Per-nameserver RTT histograms (`resolver_ns_rtt_us_<server>`) in the
/// global metrics registry, one per dataset server in spec order. Both
/// the offline fleet generator and the live loadgen record into these,
/// so `/metrics` and `/flight.json` show the same series either way.
pub fn ns_rtt_histograms(servers: &[ServerSpec]) -> Vec<Arc<Histogram>> {
    servers
        .iter()
        .map(|s| {
            obs::histogram(
                &format!("resolver_ns_rtt_us_{}", metric_label(&s.name)),
                "RTT observed by fleet resolvers toward this nameserver (µs)",
            )
        })
        .collect()
}

/// Fold a server name into the metric-name charset (`[a-z0-9_:]`).
fn metric_label(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// The tier of the simulated hierarchy a server address belongs to.
pub enum Tier {
    /// The synthetic root above the vantage zone.
    Root,
    /// The dataset's vantage server with this index (the recorded tier).
    Vantage(usize),
    /// Anything else: a registrant's nameserver below the vantage cut.
    Leaf,
}

/// Which tier `server` is. With `root_zone` the vantage *is* the root,
/// and the synthetic root's addresses are just another leaf.
pub fn tier_of(servers: &[ServerSpec], root_zone: bool, server: IpAddr) -> Tier {
    if !root_zone && (server == ROOT_V4 || server == ROOT_V6) {
        return Tier::Root;
    }
    servers
        .iter()
        .position(|s| IpAddr::V4(s.v4) == server || IpAddr::V6(s.v6) == server)
        .map_or(Tier::Leaf, Tier::Vantage)
}

impl Transport for SimTransport<'_> {
    fn exchange(&mut self, server: IpAddr, bytes: &[u8]) -> Exchange<'_> {
        // bytes that are no query get no answer, as on a socket
        let Some(query) = Query::read(bytes) else {
            return Exchange::Timeout;
        };
        // the synthetic tiers answer at once, unrecorded
        let rtt_us = match tier_of(self.servers, self.root_zone, server) {
            Tier::Vantage(si) => return self.vantage_exchange(si, server, bytes, &query),
            Tier::Root => {
                let (v4, v6) = self.profile().families();
                synth_root_referral(self.zone, self.servers, v4, v6, &query, &mut self.wire);
                ROOT_RTT_US
            }
            Tier::Leaf => {
                synth_leaf_answer(self.zone, self.cache_ttl_secs, &query, &mut self.wire);
                LEAF_RTT_US
            }
        };
        self.elapsed = self.elapsed + SimDuration::from_micros(rtt_us + HOP_GAP_US);
        Exchange::Answer {
            reply: self.wire.response().bytes,
            rtt_us: rtt_us as u32,
        }
    }

    fn root_servers(&self) -> Vec<IpAddr> {
        root_hints(self.servers, self.root_zone, self.profile().families())
    }
}

/// One fleet's produced slice of a slot. `stats.queries` is the
/// steering quota's currency: the vantage query records in `records`.
struct FleetSlice {
    records: RecordSlice,
    stats: DatasetStats,
}

/// Resolver-level roll-up of a fleet run (or of one fleet's stream).
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetSummary {
    /// The fleets' shared caches, summed.
    pub cache: CacheStats,
    /// Query retransmissions.
    pub retries: u64,
    /// Exchanges that timed out.
    pub timeouts: u64,
    /// Resolver instances materialized.
    pub instances: u64,
}

impl FleetSummary {
    fn absorb(&mut self, other: &FleetSummary) {
        self.cache.absorb(&other.cache);
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.instances += other.instances;
    }
}

/// The `resolver_*` series both fleet drivers publish (this module
/// offline, `authd::fleetgen` live).
pub struct FleetMetrics {
    hit_ratio: Arc<obs::Gauge>,
    entries: Arc<obs::Gauge>,
    instances: Arc<obs::Gauge>,
    evictions: Arc<obs::Counter>,
    retries: Arc<obs::Counter>,
    timeouts: Arc<obs::Counter>,
}

impl FleetMetrics {
    /// Register (or look up) the series.
    pub fn register() -> FleetMetrics {
        FleetMetrics {
            hit_ratio: obs::gauge(
                "resolver_fleet_cache_hit_ratio",
                "shared-cache hit ratio across all fleet resolvers",
            ),
            entries: obs::gauge(
                "resolver_fleet_cache_entries",
                "entries held by the fleets' shared caches (addresses + negatives + delegations)",
            ),
            instances: obs::gauge(
                "resolver_fleet_instances",
                "resolver instances materialized across all fleets",
            ),
            evictions: obs::counter(
                "resolver_fleet_cache_evictions_total",
                "entries evicted from full fleet cache maps (added when the run ends)",
            ),
            retries: obs::counter(
                "resolver_retries_total",
                "fleet resolver query retransmissions",
            ),
            timeouts: obs::counter(
                "resolver_timeouts_total",
                "fleet resolver exchanges that timed out",
            ),
        }
    }

    /// Refresh the gauges; cheap enough for mid-run scrapes.
    pub fn observe(&self, cache: &CacheStats, instances: u64) {
        self.hit_ratio.set(cache.hit_ratio());
        self.entries.set(cache.entries() as f64);
        self.instances.set(instances as f64);
    }

    /// End of run: the gauges, and the run's totals onto the counters.
    pub fn finish(&self, run: &FleetSummary) {
        self.observe(&run.cache, run.instances);
        self.evictions.add(run.cache.evictions);
        self.retries.add(run.retries);
        self.timeouts.add(run.timeouts);
    }
}

/// One fleet member as a resolver instance: its profile's EDNS
/// parameters, Q-min as scheduled, the fleet's shared cache attached.
/// Shared by the offline streams and the live loadgen's lanes.
pub fn fleet_resolver(
    profile: &FleetResolver,
    qmin: bool,
    shared: &SharedCache,
) -> IterativeResolver {
    let mut r = IterativeResolver::sharing(
        ResolverConfig {
            qmin,
            edns_size: profile.edns_size,
            do_bit: profile.do_bit,
            ..Default::default()
        },
        shared.clone(),
    );
    r.set_log_enabled(false);
    r
}

/// Hand one stimulus to a fleet resolver at dataset time `now`, with
/// Q-min as the provider's rollout schedule has it at that instant, and
/// walk it to the end over `transport` (the blocking driver) in the
/// lent `scratch`. How much of the walk reached the vantage is the
/// transport's to say.
pub fn resolve_stimulus(
    resolver: &mut IterativeResolver,
    scratch: &mut WalkScratch,
    transport: &mut impl Transport,
    qmin: bool,
    now: SimTime,
    stimulus: &Stimulus,
) {
    arm(resolver, qmin, now);
    let _ = resolver.resolve_in(scratch, transport, &stimulus.qname, stimulus.qtype);
}

/// [`resolve_stimulus`]'s first step only, for a driver that steps the
/// walk itself (`authd::fleetgen`'s reactor): both fleet drivers arm a
/// resolver for a stimulus the same way.
pub fn start_stimulus(
    resolver: &mut IterativeResolver,
    qmin: bool,
    now: SimTime,
    stimulus: &Stimulus,
) -> Step {
    arm(resolver, qmin, now);
    resolver.start(&stimulus.qname, stimulus.qtype)
}

/// Q-min as scheduled and the clock at `now`, for the next walk.
fn arm(resolver: &mut IterativeResolver, qmin: bool, now: SimTime) {
    resolver.set_qmin(qmin);
    resolver.set_now_micros(now.as_micros());
}

/// Persistent per-fleet state: the shared cache and the lazily
/// materialized resolver instances survive across slots, so TTL decay
/// and RTT learning are continuous over the dataset's whole window.
/// The stream walks one instance at a time and lends each its one walk
/// scratch, so an instance holds only its own state.
///
/// The incident flood is one more stream over Google's fleet, with its
/// own RNG salt and its own shared cache — which never helps, because
/// cyclic failures are not cacheable.
struct FleetStream<'a> {
    engine: &'a Engine,
    fleet: &'a Fleet,
    /// Separates this stream's per-slot RNG seeds from every other's.
    salt: u64,
    shared: SharedCache,
    resolvers: HashMap<usize, IterativeResolver>,
    rtt_hists: &'a [Arc<Histogram>],
    /// The wire scratch each slot's transport borrows and gives back,
    /// so its buffers are grown once per stream, not once per slot.
    wire: WireScratch,
    /// The walk scratch lent to whichever instance walks, so its
    /// buffers are grown once per stream, not once per instance.
    walk: WalkScratch,
}

impl<'a> FleetStream<'a> {
    fn new(
        engine: &'a Engine,
        fi: usize,
        salt: u64,
        rtt_hists: &'a [Arc<Histogram>],
    ) -> FleetStream<'a> {
        FleetStream {
            engine,
            fleet: &engine.fleets()[fi],
            salt,
            shared: SharedCache::with_capacity(resolver::cache::DEFAULT_CAPACITY),
            resolvers: HashMap::new(),
            rtt_hists,
            wire: WireScratch::default(),
            walk: WalkScratch::default(),
        }
    }

    /// Drive this fleet through one hourly slot: each cursor's stimuli
    /// are resolved by real resolver instances until the recorded
    /// vantage volume meets its quota — so Table 4 shares hold by
    /// construction while the per-query content is emergent, and a
    /// flood's walks burn their query budget on the cycle. `records`
    /// is an emptied slice to reuse; the stream's wire scratch is lent
    /// to the slot's transport the same way.
    fn produce_slot(
        &mut self,
        slot: usize,
        plan: &SlotPlan,
        cursors: impl Iterator<Item = Steering>,
        records: RecordSlice,
    ) -> FleetSlice {
        let engine = self.engine;
        let fleet = self.fleet;
        // a fresh transport: the slot's own RNG stream and RRL state
        let mut tr = SimTransport::new(
            engine,
            fleet,
            self.rtt_hists,
            StdRng::seed_from_u64(slice_seed(engine.seed() ^ self.salt, slot)),
            engine.spec().rrl.map(RateLimiter::new),
        );
        tr.buf = records;
        tr.wire = std::mem::take(&mut self.wire);
        let qmin_on = fleet.spec.qmin_active(plan.slot_start(slot));
        for mut steer in cursors {
            while let Some((t, want_junk)) = steer.next(&mut tr.rng) {
                let stim = match steer.flood_target() {
                    Some((idx, qtype)) => Stimulus {
                        qname: engine.zone().registered_domain(idx),
                        qtype,
                        junk: false,
                    },
                    None => sample_stimulus(
                        engine.zone(),
                        engine.zipf(),
                        engine.junk_gen(),
                        &fleet.spec,
                        want_junk,
                        &mut tr.rng,
                    ),
                };
                let r_idx = fleet.pick(&mut tr.rng);
                let res = self.resolvers.entry(r_idx).or_insert_with(|| {
                    fleet_resolver(&fleet.resolvers[r_idx], qmin_on, &self.shared)
                });
                tr.begin(r_idx, t, stim.junk);
                let absorbed = res.stats.cache_hits;
                resolve_stimulus(res, &mut self.walk, &mut tr, qmin_on, t, &stim);
                // demand the cache absorbed: the walk sent no query at
                // all, as the calibrated plane counts it
                tr.stats.cache_hits += res.stats.cache_hits - absorbed;
                steer.emitted(tr.emitted);
            }
        }
        self.wire = tr.wire;
        FleetSlice {
            records: tr.buf,
            stats: tr.stats,
        }
    }

    fn summary(&self) -> FleetSummary {
        FleetSummary {
            cache: self.shared.stats(),
            retries: self.resolvers.values().map(|r| r.stats.retries).sum(),
            timeouts: self.resolvers.values().map(|r| r.stats.timeouts).sum(),
            instances: self.resolvers.len() as u64,
        }
    }
}

impl Engine {
    /// Generate the dataset with the *algorithmic* resolver fleet: every
    /// record is produced by an [`IterativeResolver`] walking the
    /// three-tier [`SimTransport`], with only the vantage tier recorded.
    ///
    /// `lanes` threads share the *fleets* (not the slots): a fleet's
    /// stream is stateful across slots (shared cache, RTT learning), so
    /// each fleet runs sequentially on one lane (`assign_lanes`) while
    /// the calling thread reassembles every slot in fleet order and
    /// feeds `out` — a consumer passed here analyzes inline, on the
    /// merging thread. Output is byte-identical for any lane count.
    pub fn generate_fleet<S: RecordSink>(
        &self,
        out: &mut S,
        lanes: usize,
    ) -> std::io::Result<DatasetStats> {
        let plan = &SlotPlan::new(self);
        let slots = plan.slots();
        let shares: Vec<f64> = self.fleets().iter().map(|f| f.spec.traffic_share).collect();
        let mut stage = obs::stage("simnet.fleet");
        let progress = self.progress("fleet");
        // fleet observability: per-nameserver RTT histograms plus
        // cache/retry/timeout roll-ups published at the end
        let rtt_hists = &ns_rtt_histograms(&self.spec().servers);
        let mut stats = self.zeroed_stats();

        let engine = self;
        let summary = crossbeam::thread::scope(|scope| -> std::io::Result<FleetSummary> {
            // one bounded channel per fleet: its lane sends a slice a
            // slot, the merger takes them in fleet order; emptied slices
            // come back to any stream over one return channel
            let (txs, rxs): (Vec<_>, Vec<_>) = shares
                .iter()
                .map(|_| crossbeam::channel::bounded::<FleetSlice>(2))
                .unzip();
            let (back, spares) = crossbeam::channel::bounded::<RecordSlice>(2 * shares.len());
            let lanes: Vec<_> = assign_lanes(&shares, lanes)
                .into_iter()
                .map(|fleets| {
                    let txs: Vec<_> = fleets.iter().map(|&fi| txs[fi].clone()).collect();
                    let spares = spares.clone();
                    scope.spawn(move |_| {
                        let mut streams: Vec<FleetStream> = fleets
                            .iter()
                            .map(|&fi| {
                                FleetStream::new(engine, fi, FLEET_SALT ^ fi as u64, rtt_hists)
                            })
                            .collect();
                        'outer: for slot in 0..slots {
                            for ((stream, &fi), tx) in streams.iter_mut().zip(&fleets).zip(&txs) {
                                let ratio = engine.fleets()[fi].spec.junk_ratio;
                                let cursor = [plan.steer(fi, slot, ratio)].into_iter();
                                let records = spares.try_recv().unwrap_or_default();
                                let slice = stream.produce_slot(slot, plan, cursor, records);
                                if tx.send(slice).is_err() {
                                    break 'outer; // merger gone: stop early
                                }
                            }
                        }
                        let mut summary = FleetSummary::default();
                        streams.iter().for_each(|s| summary.absorb(&s.summary()));
                        summary
                    })
                })
                .collect();
            drop(txs);

            // the incident stream runs serially in the merger: it is a
            // few slots of one fleet
            let mut incidents =
                FleetStream::new(engine, plan::flood_fleet(engine), INCIDENT_SALT, rtt_hists);
            let mut buf = RecordSlice::default();
            let merged = (0..slots).try_for_each(|slot| {
                for (fi, rx) in rxs.iter().enumerate() {
                    let mut slice = rx
                        .recv()
                        .map_err(|_| std::io::Error::other("fleet lane disconnected"))?;
                    progress.tick(slice.stats.queries);
                    stats.absorb(&slice.stats);
                    stats.per_fleet[fi].1 += slice.stats.queries;
                    buf.append(&mut slice.records);
                    // a full return channel: the streams have spares enough
                    let _ = back.try_send(slice.records);
                }
                let records = spares.try_recv().unwrap_or_default();
                let mut inc =
                    incidents.produce_slot(slot, plan, plan.floods(engine, slot), records);
                stats.absorb(&inc.stats);
                buf.append(&mut inc.records);
                let _ = back.try_send(inc.records);
                buf.sort_by_time();
                out.emit_slice(slot as u64, &buf)?;
                buf.clear();
                Ok(())
            });
            // dropping the receivers wakes lanes blocked on full channels
            drop(rxs);
            // the incident stream's cache never helps (cyclic failures
            // are not cacheable) and stays out of the roll-up
            let mut summary = FleetSummary {
                cache: CacheStats::default(),
                ..incidents.summary()
            };
            for lane in lanes {
                summary.absorb(&lane.join().expect("fleet lanes do not panic"));
            }
            merged.map(|()| summary)
        })
        .expect("fleet scope joins")?;

        let stats = self.close_run([stats]);
        stage.add_items(stats.queries + stats.responses);
        FleetMetrics::register().finish(&summary);
        Ok(stats)
    }
}

/// Which fleets each of (at most) `lanes` threads runs: longest first —
/// fleets by falling `traffic_share`, each to the lane carrying the
/// least so far — so one heavy fleet does not share a thread while
/// another lane idles. Every fleet lands on exactly one lane; the merger
/// reassembles by fleet index, so the assignment never reaches the
/// output.
fn assign_lanes(shares: &[f64], lanes: usize) -> Vec<Vec<usize>> {
    let lanes = lanes.clamp(1, shares.len().max(1));
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[b].total_cmp(&shares[a]).then(a.cmp(&b)));
    let mut assigned = vec![(0.0f64, Vec::new()); lanes];
    for fi in order {
        let lightest = assigned
            .iter_mut()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one lane");
        lightest.0 += shares[fi];
        lightest.1.push(fi);
    }
    assigned.into_iter().map(|(_, fleets)| fleets).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Vantage;
    use crate::scenario::{dataset, monthly_google, Scale};
    use dns_wire::message::Message;
    use netbase::capture::{CaptureReader, CaptureRecord, CaptureWriter, Direction};
    use netbase::flow::Transport as FlowTransport;

    fn generate_fleet_capture(
        spec: crate::scenario::DatasetSpec,
        seed: u64,
        workers: usize,
    ) -> (Engine, Vec<CaptureRecord>, DatasetStats) {
        let engine = Engine::new(spec, Scale::tiny(), seed);
        let mut buf = Vec::new();
        let stats = {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            let s = engine.generate_fleet(&mut w, workers).unwrap();
            w.finish().unwrap();
            s
        };
        let records: Vec<CaptureRecord> = CaptureReader::new(&buf[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        (engine, records, stats)
    }

    #[test]
    fn fleet_volume_tracks_scaled_target() {
        let (engine, records, stats) = generate_fleet_capture(dataset(Vantage::Nl, 2020), 42, 2);
        let target = engine.scaled_total();
        assert!(
            stats.queries as f64 >= target as f64 * 0.95,
            "target {target}, got {}",
            stats.queries
        );
        assert!(
            (stats.queries as f64) < target as f64 * 1.3,
            "target {target}, got {}",
            stats.queries
        );
        assert_eq!(stats.queries + stats.responses, records.len() as u64);
        assert_eq!(
            stats.queries, stats.responses,
            "no RRL: every query answered"
        );
    }

    #[test]
    fn fleet_payloads_parse_and_target_dataset_servers() {
        let (engine, records, _) = generate_fleet_capture(dataset(Vantage::Nl, 2020), 42, 2);
        let servers: Vec<IpAddr> = engine
            .spec()
            .servers
            .iter()
            .flat_map(|s| [IpAddr::V4(s.v4), IpAddr::V6(s.v6)])
            .collect();
        for rec in &records {
            let wire = match rec.flow.transport {
                FlowTransport::Tcp => {
                    let mut msgs = dns_wire::tcp::deframe(&rec.payload).expect("framed");
                    let msg = msgs.next().expect("one message");
                    assert_eq!(msgs.next(), None);
                    msg
                }
                FlowTransport::Udp => &rec.payload[..],
            };
            let msg = Message::parse(wire).expect("wire-valid payloads");
            match rec.direction {
                Direction::Query => {
                    assert!(!msg.header.response);
                    assert!(servers.contains(&rec.flow.dst), "only vantage recorded");
                }
                Direction::Response => {
                    assert!(msg.header.response);
                    assert!(servers.contains(&rec.flow.src));
                }
            }
        }
    }

    #[test]
    fn fleet_deterministic_for_any_worker_count() {
        let engine = Engine::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 7);
        let run = |lanes: usize| {
            let mut buf = Vec::new();
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            let stats = engine.generate_fleet(&mut w, lanes).unwrap();
            w.finish().unwrap();
            (buf, stats)
        };
        let one = run(1);
        // every lane count the longest-first assignment can tell
        // apart, and one past it
        for lanes in 2..=engine.fleets().len() + 1 {
            assert!(one == run(lanes), "{lanes} lanes must not change output");
        }
    }

    /// Longest-first: the heaviest fleets land on different lanes, the
    /// light ones fill in behind them, every fleet on exactly one lane.
    #[test]
    fn lanes_are_assigned_longest_first() {
        let shares = [0.05, 0.4, 0.1, 0.3, 0.15];
        assert_eq!(assign_lanes(&shares, 1), vec![vec![1, 3, 4, 2, 0]]);
        assert_eq!(assign_lanes(&shares, 2), vec![vec![1, 2], vec![3, 4, 0]]);
        // more lanes than fleets: one fleet each
        let lanes = assign_lanes(&shares, 9);
        assert_eq!(lanes.len(), shares.len());
        let mut all: Vec<usize> = lanes.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(assign_lanes(&[], 3), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn fleet_shares_emerge_close_to_table_4() {
        let (engine, _, stats) = generate_fleet_capture(dataset(Vantage::Nl, 2019), 42, 2);
        let total: u64 = stats.per_fleet.iter().map(|(_, c)| c).sum();
        for (fleet, spec) in stats.per_fleet.iter().zip(engine.spec().fleets()) {
            let got = fleet.1 as f64 / total as f64;
            assert!(
                (got - spec.traffic_share).abs() < 0.05,
                "{}: got {got}, want {}",
                fleet.0,
                spec.traffic_share
            );
        }
    }

    #[test]
    fn qmin_flip_emerges_from_the_algorithm() {
        // Google's fleet: Nov 2019 (Q-min off) vs Jan 2020 (Q-min on).
        // The client stimulus distribution is identical in both months;
        // only IterativeResolver::set_qmin differs — so a jump in the
        // vantage NS share is the resolver algorithm's own signature.
        let ns_share = |year: i32, month: u32| {
            let (_, records, _) =
                generate_fleet_capture(monthly_google(Vantage::Nl, year, month), 11, 2);
            let mut ns = 0usize;
            let mut total = 0usize;
            for rec in records.iter().filter(|r| r.direction == Direction::Query) {
                let wire = match rec.flow.transport {
                    FlowTransport::Tcp => dns_wire::tcp::deframe(&rec.payload)
                        .unwrap()
                        .next()
                        .unwrap(),
                    FlowTransport::Udp => &rec.payload[..],
                };
                let msg = Message::parse(wire).unwrap();
                total += 1;
                if msg.question().unwrap().qtype == RType::Ns {
                    ns += 1;
                }
            }
            ns as f64 / total as f64
        };
        let pre = ns_share(2019, 11);
        let post = ns_share(2020, 1);
        assert!(pre < 0.15, "pre-flip NS share {pre}");
        assert!(post > 0.30, "post-flip NS share {post}");
    }

    #[test]
    fn incident_surges_fleet_traffic() {
        let feb = {
            let (_, _, stats) = generate_fleet_capture(monthly_google(Vantage::Nz, 2020, 2), 9, 2);
            stats.queries
        };
        let jan = {
            let (_, _, stats) = generate_fleet_capture(monthly_google(Vantage::Nz, 2020, 1), 9, 2);
            stats.queries
        };
        assert!(
            feb as f64 > jan as f64 * 1.3,
            "cyclic incident must surge: feb {feb} vs jan {jan}"
        );
    }

    #[test]
    fn absorption_comes_from_shared_caches() {
        let (_, _, stats) = generate_fleet_capture(dataset(Vantage::Nl, 2020), 42, 2);
        assert!(stats.cache_hits > 0, "hot names must be absorbed");
    }

    /// `cache_hits` counts the stimuli whose walk sent no query, as the
    /// calibrated plane counts absorbed demand — not the larger of the
    /// walks that never reached the vantage and the shared caches'
    /// lookup hits. Recounted here by replaying every stream slot by
    /// slot: the slices' counts, and the per-walk tallies each
    /// resolver instance kept, must both give the run's figure.
    #[test]
    fn cache_hits_count_the_walks_that_sent_no_query() {
        let engine = Engine::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 42);
        let stats = engine
            .generate_fleet(&mut Vec::<CaptureRecord>::new(), 2)
            .unwrap();
        let plan = SlotPlan::new(&engine);
        let hists = ns_rtt_histograms(&engine.spec().servers);
        let mut streams: Vec<FleetStream> = (0..engine.fleets().len())
            .map(|fi| FleetStream::new(&engine, fi, FLEET_SALT ^ fi as u64, &hists))
            .collect();
        let flood_fleet = plan::flood_fleet(&engine);
        let mut incidents = FleetStream::new(&engine, flood_fleet, INCIDENT_SALT, &hists);
        let mut sliced = 0;
        for slot in 0..plan.slots() {
            for (fi, stream) in streams.iter_mut().enumerate() {
                let cursor = plan.steer(fi, slot, engine.fleets()[fi].spec.junk_ratio);
                let records = RecordSlice::default();
                let slice = stream.produce_slot(slot, &plan, [cursor].into_iter(), records);
                sliced += slice.stats.cache_hits;
            }
            let floods = plan.floods(&engine, slot);
            let records = RecordSlice::default();
            sliced += (incidents.produce_slot(slot, &plan, floods, records))
                .stats
                .cache_hits;
        }
        let walked_without_a_query: u64 = streams
            .iter()
            .chain([&incidents])
            .flat_map(|s| s.resolvers.values())
            .map(|r| r.stats.cache_hits)
            .sum();
        assert!(walked_without_a_query > 0);
        assert_eq!(sliced, walked_without_a_query);
        assert_eq!(stats.cache_hits, walked_without_a_query);
    }
}
