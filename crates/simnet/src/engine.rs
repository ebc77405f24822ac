//! The traffic-generation engine: drives fleets against the
//! authoritative model hour by hour, writing `.dnscap` records.
//!
//! Volumes are exact: each fleet's emitted query count equals its
//! `traffic_share` of the scaled dataset total, apportioned over hourly
//! slots by the demand plan (`crate::plan`, which the emergent plane
//! and the live driver steer by too). Demand above the emitted count is
//! absorbed by resolver caches, just as real vantage points only see
//! the cache-miss shadow of user demand.

use crate::auth::{Authoritative, Query};
use crate::fleet::{sample_dist, splitmix, Fleet, Resolver};
use crate::plan::{self, SlotPlan};
use crate::profile::FleetSpec;
use crate::ptr::PtrDb;
use crate::rrl::RateLimiter;
use crate::scenario::{DatasetSpec, Scale};
use crate::vantage::{self, WireScratch};
use asdb::synth::{InternetPlan, PlanConfig};
use dns_wire::edns::Edns;
use dns_wire::header::Header;
use dns_wire::message::Question;
use dns_wire::name::Name;
use dns_wire::types::RType;
use netbase::capture::{CaptureRecord, CaptureWriter, RecordSink};
use netbase::flow::IpVersion;
use netbase::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::cache::TtlMap;
use std::collections::HashMap;
use std::io::Write;
use std::net::IpAddr;
use zonedb::junk::JunkGenerator;
use zonedb::popularity::ZipfSampler;
use zonedb::zone::ZoneModel;

/// Per-resolver cache capacity (entries).
const CACHE_CAP: usize = 4096;

/// What a sampled resolver caches under: the domain/qtype pair it
/// resolved. A [`name_key`] hash (not the qname text) keeps keys small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    domain: u64,
    rtype: u16,
}

/// One sampled resolver's cache. Keys only — a hit absorbs the demand
/// event, there is no answer to hand back — each live until
/// `inserted + ttl`, in microseconds of simulation time. Caching is why
/// the vantage only sees the cache-miss shadow of user demand (§2 of
/// the paper).
pub(crate) type ResolverCache = TtlMap<CacheKey, ()>;

/// Softmax temperature for server preference, microseconds.
const SERVER_TAU_US: f64 = 30_000.0;
/// Logistic temperature for dual-stack family choice, microseconds.
const FAMILY_TAU_US: f64 = 15_000.0;

/// Derive the synthetic-Internet plan configuration for a dataset, so
/// the generator and any later analyzer build byte-identical plans.
pub fn plan_config_for(spec: &DatasetSpec, scale: Scale, seed: u64) -> PlanConfig {
    PlanConfig {
        other_as_count: ((spec.as_count as f64 * scale.resolvers).ceil() as usize).max(50),
        isp_fraction: 0.45,
        v6_fraction: 0.35,
        seed: seed ^ 0x0a5_c0de,
    }
}

/// Counters the engine reports after generating a dataset.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct DatasetStats {
    /// Query-direction records written.
    pub queries: u64,
    /// Response-direction records written.
    pub responses: u64,
    /// UDP responses that carried the TC bit.
    pub truncated_udp: u64,
    /// Query records sent over TCP.
    pub tcp_queries: u64,
    /// Queries whose response was junk (non-NOERROR).
    pub junk_queries: u64,
    /// Demand events absorbed by resolver caches.
    pub cache_hits: u64,
    /// Responses replaced by RRL TC=1 slips (when RRL is enabled).
    pub rrl_slips: u64,
    /// Responses dropped by RRL.
    pub rrl_drops: u64,
    /// Per-fleet query counts, by fleet name.
    pub per_fleet: Vec<(String, u64)>,
}

impl DatasetStats {
    /// Fold another (disjoint) part of the run in; `per_fleet` adds up
    /// by position ([`Engine::zeroed_stats`] lays the names out).
    pub(crate) fn absorb(&mut self, other: &DatasetStats) {
        for (acc, part) in self.per_fleet.iter_mut().zip(&other.per_fleet) {
            acc.1 += part.1;
        }
        self.queries += other.queries;
        self.responses += other.responses;
        self.truncated_udp += other.truncated_udp;
        self.tcp_queries += other.tcp_queries;
        self.junk_queries += other.junk_queries;
        self.cache_hits += other.cache_hits;
        self.rrl_slips += other.rrl_slips;
        self.rrl_drops += other.rrl_drops;
    }
}

/// What one stripe of the slot range owns: the wire encoder every
/// message goes through, the record buffer each slice fills and its
/// sink drains, the current slice's RRL state, and the counters of the
/// slices generated so far.
struct StripeState {
    rrl: Option<RateLimiter>,
    wire: WireScratch,
    buf: Vec<CaptureRecord>,
    stats: DatasetStats,
}

/// RNG seed for one time slice: stable-hash the dataset seed with the
/// slot index, so any sharding of the slot range reproduces identical
/// per-slice streams.
pub(crate) fn slice_seed(seed: u64, slot: usize) -> u64 {
    splitmix((seed ^ 0xe46).wrapping_add((slot as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// The generation engine for one dataset.
pub struct Engine {
    spec: DatasetSpec,
    scale: Scale,
    seed: u64,
    zone: ZoneModel,
    pub(crate) auth: Authoritative,
    pub(crate) fleets: Vec<Fleet>,
    ptr: PtrDb,
    plan: InternetPlan,
    pub(crate) zipf: ZipfSampler,
    pub(crate) junk: JunkGenerator,
}

impl Engine {
    /// Materialize a dataset: zone, address plan, fleets, PTR zone.
    pub fn new(spec: DatasetSpec, scale: Scale, seed: u64) -> Engine {
        let zone = spec.zone.build();
        let plan = InternetPlan::build(&plan_config_for(&spec, scale, seed));
        let mut ptr = PtrDb::new();
        let server_count = spec.servers.len();
        let mut addr_offset = 0u64;
        let fleets: Vec<Fleet> = spec
            .fleets()
            .into_iter()
            .map(|mut f| {
                // dual-stack (sited) fleets keep enough resolvers per
                // site for the Figure 5 statistics to be meaningful
                let floor = if f.dual_stack {
                    (f.sites.len() as u32 * 8).max(2)
                } else {
                    2
                };
                f.resolver_count = ((f.resolver_count as f64 * scale.resolvers).ceil() as u32)
                    .max(floor)
                    .min(f.resolver_count.max(floor));
                let fleet =
                    Fleet::build_offset(f, &plan, server_count, seed, &mut ptr, addr_offset);
                addr_offset += fleet.spec.resolver_count as u64;
                fleet
            })
            .collect();
        let zipf = ZipfSampler::new(zone.domain_count().max(1), 0.95);
        let junk = JunkGenerator::new(zone.clone());
        let auth = Authoritative::new(zone.clone());
        Engine {
            spec,
            scale,
            seed,
            zone,
            auth,
            fleets,
            ptr,
            plan,
            zipf,
            junk,
        }
    }

    /// The dataset being generated.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }
    /// The reverse-DNS zone built alongside the fleets.
    pub fn ptr_db(&self) -> &PtrDb {
        &self.ptr
    }
    /// The synthetic Internet plan (for enrichment downstream).
    pub fn plan(&self) -> &InternetPlan {
        &self.plan
    }
    /// The zone model.
    pub fn zone(&self) -> &ZoneModel {
        &self.zone
    }
    /// Total queries after scaling.
    pub fn scaled_total(&self) -> u64 {
        (self.spec.total_queries as f64 * self.scale.queries) as u64
    }
    /// The dataset seed (fleet/live paths derive per-slot streams from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }
    /// The scaling knobs in effect.
    pub fn scale(&self) -> Scale {
        self.scale
    }
    /// The materialized fleets, in spec order.
    pub fn fleets(&self) -> &[Fleet] {
        &self.fleets
    }
    /// The authoritative responder for the vantage zone.
    pub fn auth(&self) -> &Authoritative {
        &self.auth
    }
    /// The Zipf popularity sampler over the zone's registered domains.
    pub fn zipf(&self) -> &ZipfSampler {
        &self.zipf
    }
    /// The junk-name generator for this zone.
    pub fn junk_gen(&self) -> &JunkGenerator {
        &self.junk
    }

    /// Generate the dataset into a capture writer (single-threaded).
    pub fn generate<W: Write + Send>(
        &self,
        out: &mut CaptureWriter<W>,
    ) -> std::io::Result<DatasetStats> {
        self.generate_sharded(out, 1)
    }

    /// Generate the dataset into one record sink, in slot order, spread
    /// over `shards` scoped worker threads.
    ///
    /// Time is sliced by hourly slot — each slice is a contiguous time
    /// range driven by its own `StdRng` split from the dataset seed via
    /// [`splitmix`] stable hashing, with fresh per-slice resolver
    /// caches and RRL state — and slices merge in slot order. The
    /// output is therefore byte-identical for any shard count.
    pub fn generate_sharded<S: RecordSink + Send>(
        &self,
        out: &mut S,
        shards: usize,
    ) -> std::io::Result<DatasetStats> {
        let plan = &SlotPlan::new(self);
        let slots = plan.slots();
        let shards = shards.clamp(1, slots.max(1));
        if shards == 1 {
            return self.generate_striped(std::slice::from_mut(out));
        }
        // Every shard runs its stripe of the slot range; the merger
        // pulls slices back in slot order over small bounded channels,
        // so every shard keeps producing while the merge stays strictly
        // ordered and memory stays bounded.
        let progress = &self.progress("simnet");
        let parts = crossbeam::thread::scope(|scope| {
            let (rxs, handles): (Vec<_>, Vec<_>) = (0..shards)
                .map(|w| {
                    let (tx, rx) = crossbeam::channel::bounded::<Vec<CaptureRecord>>(2);
                    let shard = scope.spawn(move |_| {
                        self.stripe(plan, progress, (w, shards), |_, slice| {
                            // a closed channel is the merger gone (sink
                            // error): stop early
                            tx.send(std::mem::take(slice))
                                .map_err(|_| std::io::Error::other("slice merger disconnected"))
                        })
                    });
                    (rx, shard)
                })
                .unzip();
            let merged = (0..slots).try_for_each(|slot| {
                let mut slice = rxs[slot % shards]
                    .recv()
                    .map_err(|_| std::io::Error::other("generator shard disconnected"))?;
                out.emit_slice(slot as u64, &mut slice)
            });
            // dropping the receivers wakes any shard still blocked on a
            // full channel, so the scope always joins
            drop(rxs);
            let parts: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("generator shards do not panic"))
                .collect();
            merged?;
            parts.into_iter().collect::<Result<Vec<_>, _>>()
        })
        .expect("generator scope joins")?;
        Ok(self.close_run(parts))
    }

    /// Generate the dataset with no merge at all: one worker per sink,
    /// worker `w` running its stripe of the slot range into `sinks[w]`
    /// — records never leave the thread that made them. Worker 0 is the
    /// calling thread, so one sink spawns nothing. The union of what
    /// the sinks see is exactly [`Engine::generate_sharded`]'s stream,
    /// slice by slice, for any number of sinks.
    pub fn generate_striped<S: RecordSink + Send>(
        &self,
        sinks: &mut [S],
    ) -> std::io::Result<DatasetStats> {
        let plan = &SlotPlan::new(self);
        let progress = &self.progress("simnet");
        let workers = sinks.len();
        let work = &|(w, out): (usize, &mut S)| {
            self.stripe(plan, progress, (w, workers), |slot, slice| {
                out.emit_slice(slot as u64, slice)
            })
        };
        let parts = crossbeam::thread::scope(|scope| {
            let mut sinks = sinks.iter_mut().enumerate();
            let here = sinks.next().expect("at least one sink");
            let spawned: Vec<_> = sinks
                .map(|there| scope.spawn(move |_| work(there)))
                .collect();
            let mut parts = vec![work(here)];
            parts.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("generator workers do not panic")),
            );
            parts
        })
        .expect("generator scope joins");
        let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(self.close_run(parts))
    }

    /// The progress line of one run of `plane`, shared by its workers.
    pub(crate) fn progress(&self, plane: &str) -> obs::Progress {
        obs::Progress::new(
            format!("{plane} {:?}-{}", self.spec.vantage, self.spec.year),
            Some(self.scaled_total()),
        )
    }

    /// Counters at zero, the fleets' names laid out for `per_fleet`.
    pub(crate) fn zeroed_stats(&self) -> DatasetStats {
        DatasetStats {
            per_fleet: (self.fleets.iter())
                .map(|f| (f.spec.name.clone(), 0))
                .collect(),
            ..DatasetStats::default()
        }
    }

    /// The one slot loop: stripe `w` of `of` — slots `w, w + of, …` —
    /// on the calling thread. One [`StripeState`] serves every slice of
    /// the stripe; each finished slice goes to `each`, which drains it.
    /// The `simnet.generate` stage brackets generation alone, so the
    /// row holds no sink time whatever the stripe feeds.
    fn stripe(
        &self,
        plan: &SlotPlan,
        progress: &obs::Progress,
        (w, of): (usize, usize),
        mut each: impl FnMut(usize, &mut Vec<CaptureRecord>) -> std::io::Result<()>,
    ) -> std::io::Result<DatasetStats> {
        let mut s = StripeState {
            rrl: None,
            wire: WireScratch::default(),
            buf: Vec::new(),
            stats: self.zeroed_stats(),
        };
        for slot in (w..plan.slots()).step_by(of) {
            let mut stage = obs::stage("simnet.generate");
            let before = s.stats.queries;
            self.generate_slice(slot, plan, &mut s);
            stage.add_items(s.buf.len() as u64);
            drop(stage);
            progress.tick(s.stats.queries - before);
            each(slot, &mut s.buf)?;
            s.buf.clear();
        }
        Ok(s.stats)
    }

    /// End of a run, either plane: sum the workers' counters and publish
    /// the `simnet_*` totals.
    pub(crate) fn close_run(&self, parts: impl IntoIterator<Item = DatasetStats>) -> DatasetStats {
        let mut stats = self.zeroed_stats();
        for part in parts {
            stats.absorb(&part);
        }
        obs::counter(
            "simnet_queries_total",
            "query records generated by the simnet engine",
        )
        .add(stats.queries);
        obs::counter(
            "simnet_responses_total",
            "response records generated by the simnet engine",
        )
        .add(stats.responses);
        obs::counter(
            "simnet_cache_hits_total",
            "demand events absorbed by simulated resolver caches",
        )
        .add(stats.cache_hits);
        stats
    }

    /// Generate one hourly time slice into `s.buf`, self-contained: its
    /// own RNG stream, resolver caches, and RRL state, so slices can run
    /// on any thread in any order and still merge byte-identically.
    fn generate_slice(&self, slot: usize, plan: &SlotPlan, s: &mut StripeState) {
        let mut rng = StdRng::seed_from_u64(slice_seed(self.seed, slot));
        s.rrl = self.spec.rrl.map(RateLimiter::new);
        for (fi, fleet) in self.fleets.iter().enumerate() {
            let mut caches = HashMap::new();
            let mut steer = plan.steer(fi, slot, fleet.spec.junk_ratio);
            while let Some((t, want_junk)) = steer.next(&mut rng) {
                let sent = self.demand(fleet, t, want_junk, &mut caches, &mut rng, |rng, ask| {
                    self.emit_exchange(ask, rng, s)
                });
                if sent == 0 {
                    s.stats.cache_hits += 1;
                }
                steer.emitted(sent);
            }
            s.stats.per_fleet[fi].1 += steer.done();
        }
        // incident traffic (the Feb-2020 cyclic dependency) rides on
        // top: one exchange per event, so TCP retries come on top of
        // the quota as they do for any other exchange
        for mut flood in plan.floods(self, slot) {
            let fleet = &self.fleets[plan::flood_fleet(self)];
            while let Some((at, _)) = flood.next(&mut rng) {
                let resolver = &fleet.resolvers[fleet.pick(&mut rng)];
                let (idx, qtype) = flood.flood_target().expect("a flood's cursor");
                let ask = Ask {
                    fleet,
                    resolver,
                    qname: &self.zone.registered_domain(idx),
                    qtype,
                    signed: self.zone.is_signed(idx),
                    junk: false,
                    at,
                };
                self.emit_exchange(&ask, &mut rng, s);
                flood.emitted(1);
            }
        }
        s.buf.sort_by_key(|r| r.timestamp);
    }

    /// One demand event of the calibrated plane: a resolver of `fleet`
    /// is asked a question at `t`, and whatever its cache does not
    /// absorb goes to `send` — the query itself, then the DNSSEC
    /// follow-ups a validating resolver adds. `send` returns the query
    /// records it put on the wire; their sum is returned, 0 when the
    /// cache absorbed the event. This is the whole difference between
    /// the offline engine (`send` answers and records the exchange) and
    /// the live [`crate::drive::Driver`] (`send` queues the query for a
    /// real socket).
    pub(crate) fn demand(
        &self,
        fleet: &Fleet,
        t: SimTime,
        is_junk: bool,
        caches: &mut HashMap<u32, ResolverCache>,
        rng: &mut StdRng,
        mut send: impl FnMut(&mut StdRng, &Ask) -> u64,
    ) -> u64 {
        let spec = &fleet.spec;
        let r_idx = fleet.pick(rng);
        let resolver = &fleet.resolvers[r_idx];

        let (qname, qtype, signed, cacheable) =
            pick_question_for(&self.zone, &self.zipf, &self.junk, spec, t, is_junk, rng);

        let ckey = CacheKey {
            domain: name_key(&qname),
            rtype: qtype.to_u16(),
        };
        let cache = caches.entry(r_idx as u32).or_default();
        if cacheable && cache.lookup(&ckey, t.as_micros()).is_some() {
            return 0;
        }

        let ask = Ask {
            fleet,
            resolver,
            qname: &qname,
            qtype,
            signed,
            junk: is_junk,
            at: t,
        };
        let mut emitted = send(rng, &ask);
        if cacheable && spec.cache_ttl != SimDuration::ZERO {
            // the spec's TTL verbatim: entries decay per-record from
            // their own insertion instant (no whole-second rounding)
            cache.put(ckey, (), (t + spec.cache_ttl).as_micros(), CACHE_CAP);
        }

        // DNSSEC validation follow-ups
        let follow_up = Ask {
            signed: true,
            junk: false,
            ..ask
        };
        if spec.validates && !is_junk && signed && qtype != RType::Ds && rng.gen_bool(spec.ds_prob)
        {
            let delegation = self.zone.minimized_qname(&qname);
            let dkey = CacheKey {
                domain: name_key(&delegation),
                rtype: RType::Ds.to_u16(),
            };
            if cache.lookup(&dkey, t.as_micros()).is_none() {
                let ds = Ask {
                    qname: &delegation,
                    qtype: RType::Ds,
                    at: t + SimDuration::from_millis(5),
                    ..follow_up
                };
                emitted += send(rng, &ds);
                let expiry = t + SimDuration::from_secs(3600);
                cache.put(dkey, (), expiry.as_micros(), CACHE_CAP);
            }
        }
        if spec.validates && rng.gen_bool(spec.dnskey_prob) {
            let dnskey = Ask {
                qname: self.zone.apex(),
                qtype: RType::Dnskey,
                at: t + SimDuration::from_millis(8),
                ..follow_up
            };
            emitted += send(rng, &dnskey);
        }
        emitted
    }

    /// Write the query for `ask` into `wire`: server and address family
    /// by the resolver's RTT preference, 0x20 case randomization (the
    /// anti-spoofing measure some CPs apply; the analysis side treats
    /// names case-insensitively), a random id, the resolver's EDNS
    /// parameters. Draws from `rng` in that order.
    pub(crate) fn build_query(
        &self,
        ask: &Ask,
        rng: &mut StdRng,
        wire: &mut WireScratch,
    ) -> BuiltQuery {
        let resolver = ask.resolver;
        let server_count = self.spec.servers.len();
        let (server, family) = choose_server_family(&ask.fleet.spec, resolver, server_count, rng);
        let server_spec = &self.spec.servers[server];
        let dst_ip: IpAddr = match family {
            IpVersion::V4 => IpAddr::V4(server_spec.v4),
            IpVersion::V6 => IpAddr::V6(server_spec.v6),
        };
        let wire_qname = if resolver.mix_case {
            mix_case_0x20(ask.qname, rng)
        } else {
            ask.qname.clone()
        };
        let built = BuiltQuery {
            header: Header::request(rng.gen()),
            question: Question::new(wire_qname, ask.qtype),
            dnssec_ok: (resolver.edns_size > 0).then_some(resolver.do_bit),
            src_ip: resolver.addr_for(family),
            dst_ip,
            server,
        };
        let edns = built
            .dnssec_ok
            .map(|do_bit| Edns::with_size(resolver.edns_size, do_bit));
        wire.write_query(&built.header, &built.question, edns.as_ref());
        built
    }

    /// Answer `ask` at the vantage and record the exchange (plus the
    /// TCP fallback if the UDP response truncates). Returns query
    /// records written.
    fn emit_exchange(&self, ask: &Ask, rng: &mut StdRng, s: &mut StripeState) -> u64 {
        let query = self.build_query(ask, rng, &mut s.wire);
        let resolver = ask.resolver;
        self.auth.respond(
            Query {
                header: &query.header,
                questions: std::slice::from_ref(&query.question),
                dnssec_ok: query.dnssec_ok,
            },
            ask.signed,
            &mut s.wire,
        );
        let queries = vantage::record(
            &vantage::Exchange {
                query: s.wire.query(),
                response: s.wire.response(),
                edns_size: resolver.edns_size,
                src_ip: query.src_ip,
                dst_ip: query.dst_ip,
                rtt_us: resolver.rtt_us(query.server, IpVersion::of(query.src_ip)),
                at: ask.at,
                tcp_extra: ask.fleet.spec.tcp_extra_at(resolver.site as usize),
            },
            rng,
            s.rrl.as_mut(),
            &mut s.buf,
            &mut s.stats,
        )
        .queries();
        if ask.junk {
            s.stats.junk_queries += queries;
        }
        queries
    }
}

/// One query the calibrated demand chain sends to the vantage.
#[derive(Clone, Copy)]
pub(crate) struct Ask<'a> {
    pub(crate) fleet: &'a Fleet,
    pub(crate) resolver: &'a Resolver,
    pub(crate) qname: &'a Name,
    pub(crate) qtype: RType,
    /// The delegation is signed (the referral carries DS + RRSIG).
    pub(crate) signed: bool,
    /// The query itself is junk demand (follow-ups never are).
    pub(crate) junk: bool,
    pub(crate) at: SimTime,
}

/// [`Engine::build_query`]'s result: what the written query says and
/// its logical flow.
pub(crate) struct BuiltQuery {
    pub(crate) header: Header,
    pub(crate) question: Question,
    /// The DO bit of its OPT; `None` when the resolver sends no EDNS.
    pub(crate) dnssec_ok: Option<bool>,
    pub(crate) src_ip: IpAddr,
    pub(crate) dst_ip: IpAddr,
    /// Index of the chosen server in the dataset's server list.
    pub(crate) server: usize,
}

/// The calibrated plane's per-query qname/qtype decision chain: junk vs
/// Zipf-popular valid names, deep names under the delegation, Q-min
/// rewriting. Returns `(qname, qtype, signed, cacheable)`.
fn pick_question_for(
    zone: &ZoneModel,
    zipf: &ZipfSampler,
    junk: &JunkGenerator,
    spec: &FleetSpec,
    t: SimTime,
    is_junk: bool,
    rng: &mut StdRng,
) -> (Name, RType, bool, bool) {
    if is_junk {
        let (name, qt) = plan::junk_question(junk, rng);
        return (name, qt, false, false);
    }
    let idx = zipf.sample(rng);
    let mut qn = zone.registered_domain(idx);
    let mut qt = pick_qtype(&spec.qtype_mix, rng);
    // NS lookups clients make about arbitrary hostnames count too
    if matches!(qt, RType::A | RType::Aaaa | RType::Ns) && rng.gen_bool(0.55) {
        qn = plan::deep_name(qn, rng);
    }
    if spec.qmin_active(t) && rng.gen_bool(spec.qmin_frac) {
        qn = zone.minimized_qname(&qn);
        qt = RType::Ns;
    }
    (qn, qt, zone.is_signed(idx), true)
}

/// Server and address-family choice.
///
/// Resolvers prefer lower-RTT authoritatives (Müller et al., ref [30] in
/// the paper) — softmax over per-server RTT. Dual-stack resolvers then
/// pick the family by a logistic in the v4-v6 RTT gap plus the fleet's
/// v6 bias: the mechanism the paper confirms at Facebook's sites.
fn choose_server_family(
    spec: &FleetSpec,
    resolver: &Resolver,
    server_count: usize,
    rng: &mut StdRng,
) -> (usize, IpVersion) {
    let preference = |rtt_us: u32| (-(rtt_us as f64) / SERVER_TAU_US).exp();
    if spec.dual_stack {
        let best = |s| {
            resolver
                .rtt_us(s, IpVersion::V4)
                .min(resolver.rtt_us(s, IpVersion::V6))
        };
        let server = pick_weighted(server_count, |s| preference(best(s)), rng);
        let gap = resolver.rtt_us(server, IpVersion::V4) as f64
            - resolver.rtt_us(server, IpVersion::V6) as f64;
        let p_v6 = sigmoid(spec.v6_bias + gap / FAMILY_TAU_US);
        let family = if rng.gen_bool(p_v6.clamp(0.001, 0.999)) {
            IpVersion::V6
        } else {
            IpVersion::V4
        };
        (server, family)
    } else {
        let family = IpVersion::of(resolver.ip);
        let server = pick_weighted(
            server_count,
            |s| preference(resolver.rtt_us(s, family)),
            rng,
        );
        (server, family)
    }
}

/// An index below `n` drawn in proportion to `weight(i)`. The weights
/// are computed twice (once for the total, once for the draw) so that
/// no table of them is built per call.
fn pick_weighted(n: usize, weight: impl Fn(usize) -> f64, rng: &mut StdRng) -> usize {
    let total: f64 = (0..n).map(&weight).sum();
    let mut u = rng.gen::<f64>() * total;
    for i in 0..n {
        u -= weight(i);
        if u <= 0.0 {
            return i;
        }
    }
    n - 1
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Sample a qtype from the fleet mix.
pub(crate) fn pick_qtype(mix: &[(RType, f64)], rng: &mut StdRng) -> RType {
    sample_dist(mix, rng.gen()).unwrap_or(RType::from_u16(0))
}

/// Apply 0x20 case randomization to a name's alphabetic octets: the
/// flips happen in place on a stack copy of the wire form, label by
/// label, so the length octets are never touched.
pub(crate) fn mix_case_0x20(name: &Name, rng: &mut StdRng) -> Name {
    let mut buf = [0u8; dns_wire::name::MAX_NAME_LEN];
    let wire = &mut buf[..name.wire_len()];
    wire.copy_from_slice(name.as_wire());
    let mut pos = 0;
    while wire[pos] != 0 {
        let end = pos + 1 + wire[pos] as usize;
        for b in &mut wire[pos + 1..end] {
            if b.is_ascii_alphabetic() && rng.gen_bool(0.5) {
                *b ^= 0x20;
            }
        }
        pos = end;
    }
    let (mixed, _) = Name::parse(wire, 0).expect("same shape as input");
    mixed
}

/// Case-folded FNV key over a name's wire form (cache identity; also
/// the RRL positive-response class key, so a live authoritative built
/// on [`crate::rrl`] buckets identically to the offline engine).
pub fn name_key(name: &Name) -> u64 {
    name_key_wire(name.as_wire())
}

/// [`name_key`] over raw uncompressed wire bytes, for hot paths that
/// have the name's encoding but no parsed [`Name`] (e.g. the live
/// authoritative's zero-alloc respond cache). Must stay in lockstep
/// with [`name_key`] so both bucket identically.
pub fn name_key_wire(wire: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in wire {
        h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x100_0000_01b3);
    }
    splitmix(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Vantage;
    use crate::scenario::{dataset, monthly_google, Scale};
    use dns_wire::message::Message;
    use netbase::capture::{CaptureReader, Direction};
    use netbase::flow::Transport;

    fn generate(vantage: Vantage, year: u16) -> (Engine, Vec<CaptureRecord>, DatasetStats) {
        let engine = Engine::new(dataset(vantage, year), Scale::tiny(), 42);
        let mut buf = Vec::new();
        let stats = {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            let s = engine.generate(&mut w).unwrap();
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
    fn volume_tracks_scaled_target() {
        let (engine, records, stats) = generate(Vantage::Nl, 2020);
        let target = engine.scaled_total();
        // TCP retries and DS/DNSKEY follow-ups add a few percent
        assert!(
            stats.queries >= target && stats.queries < target + target / 4,
            "target {target}, got {}",
            stats.queries
        );
        assert_eq!(stats.queries + stats.responses, records.len() as u64);
        assert_eq!(stats.queries, stats.responses);
    }

    #[test]
    fn all_payloads_parse_as_dns() {
        let (_, records, _) = generate(Vantage::Nl, 2020);
        for rec in &records {
            // TCP payloads carry the RFC 1035 length prefix
            let wire = match rec.flow.transport {
                Transport::Tcp => {
                    let mut msgs = dns_wire::tcp::deframe_all(&rec.payload).expect("framed");
                    assert_eq!(msgs.len(), 1);
                    msgs.remove(0)
                }
                Transport::Udp => rec.payload.clone(),
            };
            let msg = Message::parse(&wire).expect("wire-valid payloads");
            match rec.direction {
                Direction::Query => assert!(!msg.header.response),
                Direction::Response => assert!(msg.header.response),
            }
        }
    }

    #[test]
    fn junk_fraction_tracks_table_3() {
        let (engine, _, stats) = generate(Vantage::Nl, 2020);
        let junk_target = 1.0 - engine.spec().valid_fraction; // 13.6%
        let got = stats.junk_queries as f64 / stats.queries as f64;
        assert!(
            (got - junk_target).abs() < 0.05,
            "junk {got} vs target {junk_target}"
        );
    }

    #[test]
    fn broot_is_mostly_junk() {
        let (_, _, stats) = generate(Vantage::BRoot, 2020);
        let got = stats.junk_queries as f64 / stats.queries as f64;
        assert!((0.70..0.90).contains(&got), "root junk {got}");
    }

    #[test]
    fn caches_absorb_demand() {
        let (_, _, stats) = generate(Vantage::Nl, 2020);
        assert!(stats.cache_hits > 0, "hot names must hit resolver caches");
    }

    #[test]
    fn tcp_and_truncation_present() {
        let (_, records, stats) = generate(Vantage::Nl, 2020);
        assert!(stats.tcp_queries > 0);
        assert!(stats.truncated_udp > 0);
        // every TCP record carries a measured RTT
        for rec in records
            .iter()
            .filter(|r| r.flow.transport == Transport::Tcp)
        {
            assert!(rec.tcp_rtt_us > 0, "TCP records carry handshake RTT");
        }
        // truncated UDP responses have the TC bit
        let mut tc = 0;
        for rec in &records {
            if rec.direction == Direction::Response && rec.flow.transport == Transport::Udp {
                let msg = Message::parse(&rec.payload).unwrap();
                if msg.header.truncated {
                    tc += 1;
                    assert!(
                        msg.answers.len() + msg.authorities.len() == 0 || rec.payload.len() <= 4096
                    );
                }
            }
        }
        assert_eq!(tc as u64, stats.truncated_udp);
    }

    #[test]
    fn records_are_slot_ordered() {
        let (_, records, _) = generate(Vantage::Nz, 2019);
        // within the stream, hour buckets never go backwards
        let mut last_hour = 0u64;
        for rec in &records {
            let hour = rec.timestamp.as_micros() / 3_600_000_000;
            assert!(hour >= last_hour, "slot order violated");
            last_hour = hour;
        }
    }

    /// Striped workers see exactly the sharded stream: worker `w` of
    /// `W` gets slots `w, w + W, …` in order, and dealing the workers'
    /// slices back by slot rebuilds the ordered generator's vector and
    /// counters.
    #[test]
    fn striped_workers_cover_the_sharded_stream_slice_by_slice() {
        struct Slices(Vec<(usize, Vec<CaptureRecord>)>);
        impl RecordSink for Slices {
            fn emit(&mut self, _: CaptureRecord) -> std::io::Result<()> {
                unreachable!("the generator hands over whole slices")
            }
            fn emit_slice(
                &mut self,
                slot: u64,
                slice: &mut Vec<CaptureRecord>,
            ) -> std::io::Result<()> {
                self.0.push((slot as usize, std::mem::take(slice)));
                Ok(())
            }
        }
        let engine = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 19);
        let mut reference: Vec<CaptureRecord> = Vec::new();
        let reference_stats = engine.generate_sharded(&mut reference, 2).unwrap();
        assert!(!reference.is_empty());
        let slots = engine.spec().days as usize * 24;
        for workers in [1usize, 3] {
            let mut sinks: Vec<Slices> = (0..workers).map(|_| Slices(Vec::new())).collect();
            let stats = engine.generate_striped(&mut sinks).unwrap();
            assert_eq!(stats, reference_stats, "{workers} worker(s)");
            for (w, sink) in sinks.iter().enumerate() {
                assert!(
                    sink.0
                        .iter()
                        .map(|(slot, _)| *slot)
                        .eq((w..slots).step_by(workers)),
                    "worker {w} of {workers} runs its own stripe, in order"
                );
            }
            let mut slices: Vec<_> = sinks.into_iter().flat_map(|s| s.0).collect();
            slices.sort_by_key(|(slot, _)| *slot);
            let rebuilt: Vec<CaptureRecord> = slices.into_iter().flat_map(|(_, s)| s).collect();
            assert!(rebuilt == reference, "{workers} worker(s)");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let engine = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 7);
            let mut buf = Vec::new();
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            engine.generate(&mut w).unwrap();
            w.finish().unwrap();
            buf
        };
        assert_eq!(run(), run(), "same seed => byte-identical capture");
    }

    #[test]
    fn different_seed_differs() {
        let run = |seed| {
            let engine = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), seed);
            let mut buf = Vec::new();
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            engine.generate(&mut w).unwrap();
            w.finish().unwrap();
            buf
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn queries_target_the_dataset_servers() {
        let (engine, records, _) = generate(Vantage::Nl, 2020);
        let servers: Vec<IpAddr> = engine
            .spec()
            .servers
            .iter()
            .flat_map(|s| [IpAddr::V4(s.v4), IpAddr::V6(s.v6)])
            .collect();
        for rec in &records {
            match rec.direction {
                Direction::Query => assert!(servers.contains(&rec.flow.dst)),
                Direction::Response => assert!(servers.contains(&rec.flow.src)),
            }
        }
        // both .nl servers see traffic
        let a_queries = records
            .iter()
            .filter(|r| {
                r.direction == Direction::Query
                    && (r.flow.dst == servers[0] || r.flow.dst == servers[1])
            })
            .count();
        let total_queries = records
            .iter()
            .filter(|r| r.direction == Direction::Query)
            .count();
        assert!(a_queries > 0 && a_queries < total_queries);
    }

    #[test]
    fn incident_floods_two_domains() {
        let spec = monthly_google(Vantage::Nz, 2020, 2);
        let engine = Engine::new(spec, Scale::tiny(), 9);
        let mut buf = Vec::new();
        let mut w = CaptureWriter::new(&mut buf).unwrap();
        let stats = engine.generate(&mut w).unwrap();
        w.finish().unwrap();
        // Compare against January: February must show a large A/AAAA bump.
        let jan = Engine::new(monthly_google(Vantage::Nz, 2020, 1), Scale::tiny(), 9);
        let mut jbuf = Vec::new();
        let mut jw = CaptureWriter::new(&mut jbuf).unwrap();
        let jstats = jan.generate(&mut jw).unwrap();
        jw.finish().unwrap();
        assert!(
            stats.queries as f64 > jstats.queries as f64 * 1.3,
            "feb {} vs jan {}",
            stats.queries,
            jstats.queries
        );
    }

    #[test]
    fn rrl_slips_and_drops_under_pressure() {
        let mut spec = dataset(Vantage::Nz, 2020);
        // draconian limits so the effect is unmistakable at tiny scale
        spec.rrl = Some(crate::rrl::RrlConfig {
            responses_per_second: 0,
            burst: 1,
            slip: 2,
            ..Default::default()
        });
        let engine = Engine::new(spec, Scale::tiny(), 5);
        let mut buf = Vec::new();
        let mut w = CaptureWriter::new(&mut buf).unwrap();
        let stats = engine.generate(&mut w).unwrap();
        w.finish().unwrap();
        assert!(stats.rrl_slips > 0, "slips under a 1 rps budget");
        assert!(stats.rrl_drops > 0, "drops too");
        assert!(
            stats.responses < stats.queries,
            "dropped responses leave queries unanswered"
        );
        // every slip forces a TCP retry, so TCP grows vs baseline
        let baseline = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 5);
        let mut bbuf = Vec::new();
        let mut bw = CaptureWriter::new(&mut bbuf).unwrap();
        let bstats = baseline.generate(&mut bw).unwrap();
        bw.finish().unwrap();
        let tcp_ratio = |s: &DatasetStats| s.tcp_queries as f64 / s.queries as f64;
        assert!(
            tcp_ratio(&stats) > tcp_ratio(&bstats) * 1.5,
            "RRL drives TCP: {} vs {}",
            tcp_ratio(&stats),
            tcp_ratio(&bstats)
        );
    }

    #[test]
    fn case_randomization_applied_by_google_queries() {
        // Google/Cloudflare fleets apply 0x20 mixing; their qnames on
        // the wire should show mixed case, and everything downstream is
        // case-insensitive (the proptests in dns-wire cover equality).
        let (engine, records, _) = generate(Vantage::Nl, 2020);
        let plan = engine.plan();
        let mut mixed = 0usize;
        let mut google_queries = 0usize;
        for rec in records.iter().filter(|r| r.direction == Direction::Query) {
            if plan.mapper.is_public_dns(rec.flow.src) {
                let wire = match rec.flow.transport {
                    Transport::Tcp => dns_wire::tcp::deframe_all(&rec.payload).unwrap().remove(0),
                    Transport::Udp => rec.payload.clone(),
                };
                let msg = Message::parse(&wire).unwrap();
                let qname = msg.question().unwrap().qname.to_string();
                google_queries += 1;
                let has_upper = qname.bytes().any(|b| b.is_ascii_uppercase());
                let has_lower = qname.bytes().any(|b| b.is_ascii_lowercase());
                if has_upper && has_lower {
                    mixed += 1;
                }
            }
        }
        assert!(google_queries > 100, "enough samples: {google_queries}");
        let share = mixed as f64 / google_queries as f64;
        assert!(share > 0.9, "0x20 mixing visible: {share}");
    }

    #[test]
    fn per_fleet_counts_match_shares() {
        let (engine, _, stats) = generate(Vantage::Nl, 2019);
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
}
