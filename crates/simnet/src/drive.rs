//! Profile-driven query sampling for external drivers.
//!
//! The offline [`Engine`] *pushes* a whole
//! dataset into a capture file. A live load generator instead *pulls*
//! one query at a time and puts it on a real socket. [`Driver`] is a
//! pull adapter over the engine's own demand step and query builder —
//! fleet choice by traffic share, then `Engine::demand` (Zipf name
//! popularity, per-CP qtype mixes, Q-min, resolver caches, DNSSEC
//! follow-ups) and `Engine::build_query` (server preference, 0x20
//! mixing, EDNS parameters) — against the *same* fleet materialization
//! (addresses, sites, activity weights), so traffic captured live is
//! attributable by the unchanged offline analysis pipeline. Where the
//! engine answers and records each query inline, the driver queues it
//! for the caller's socket.

use crate::engine::{Caches, Engine};
use crate::fleet::{cumulative_weights, pick_cumulative};
use crate::plan;
use crate::scenario::{DatasetSpec, Scale};
use crate::vantage::WireScratch;
use dns_wire::header::HEADER_LEN;
use dns_wire::name::Name;
use dns_wire::types::RType;
use netbase::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::net::IpAddr;
use std::ops::Deref;

/// How many cache-absorbed demand events in a row one [`Driver::sample`]
/// call skips before it runs the next one against cold caches.
const MAX_CACHE_SKIPS: u32 = 50;

/// The longest query the driver writes: a header, one question with a
/// qname of up to 255 octets, and an option-less OPT.
const MAX_QUERY: usize = HEADER_LEN + 255 + 4 + 11;

/// A planned query's encoded message, held inline so that planning a
/// query allocates nothing; it derefs to the message's bytes.
#[derive(Clone)]
pub struct QueryWire {
    len: u16,
    buf: [u8; MAX_QUERY],
}

impl QueryWire {
    fn new(msg: &[u8]) -> QueryWire {
        let mut buf = [0; MAX_QUERY];
        buf[..msg.len()].copy_from_slice(msg);
        QueryWire {
            len: msg.len() as u16,
            buf,
        }
    }
}

impl Deref for QueryWire {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl fmt::Debug for QueryWire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One query the driver wants on the wire.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The encoded DNS query message (UDP payload / TCP pre-framing).
    pub wire: QueryWire,
    /// Query name as sent (0x20 mixing already applied).
    pub qname: Name,
    /// Query type.
    pub qtype: RType,
    /// Logical resolver source address (from the fleet's address plan).
    pub src: IpAddr,
    /// Logical authoritative destination address (per the dataset's
    /// server list and the resolver's RTT-driven server preference).
    pub dst: IpAddr,
    /// Advertised EDNS UDP size (0 = no EDNS on this query).
    pub edns_size: u16,
    /// This resolver sends the query over TCP outright (the per-site /
    /// per-fleet direct-TCP share, Table 5).
    pub tcp_direct: bool,
    /// The response will be junk (non-NOERROR).
    pub is_junk: bool,
    /// Index of the originating fleet (see [`Driver::fleet_name`]).
    pub fleet: usize,
}

/// A pull-mode sampler over a materialized dataset.
pub struct Driver {
    engine: Engine,
    rng: StdRng,
    /// Where every planned query is written, as a slice's are offline.
    wire: WireScratch,
    fleet_cum: Vec<f64>,
    caches: Vec<Caches>,
    /// Queries planned so far, per fleet: the junk lattice's position.
    emitted: Vec<u64>,
    /// What the last demand event put on the wire and `sample` has not
    /// handed out yet: the query, then its DNSSEC follow-ups.
    pending: VecDeque<PlannedQuery>,
    cache_hits: u64,
}

impl Driver {
    /// Materialize `spec` exactly as the offline engine would and wrap
    /// it in a pull-mode driver.
    pub fn new(spec: DatasetSpec, scale: Scale, seed: u64) -> Driver {
        Driver::from_engine(Engine::new(spec, scale, seed), seed)
    }

    /// Wrap an already-built engine (shares its fleets and zone).
    pub fn from_engine(engine: Engine, seed: u64) -> Driver {
        let fleet_cum = cumulative_weights(engine.fleets.iter().map(|f| f.spec.traffic_share));
        let n = engine.fleets.len();
        Driver {
            engine,
            // a distinct stream from the offline generator's, so live
            // runs do not replay the offline capture byte-for-byte
            rng: StdRng::seed_from_u64(seed ^ 0x11fe_d81e),
            wire: WireScratch::default(),
            fleet_cum,
            caches: (0..n).map(|_| Caches::default()).collect(),
            emitted: vec![0; n],
            pending: VecDeque::new(),
            cache_hits: 0,
        }
    }

    /// The materialized dataset behind this driver.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Name of fleet `idx` (as reported in [`PlannedQuery::fleet`]).
    pub fn fleet_name(&self, idx: usize) -> &str {
        &self.engine.fleets[idx].spec.name
    }

    /// Demand events absorbed by the simulated resolver caches so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Sample the next query to put on the wire at dataset time `t`.
    ///
    /// Cache-absorbed demand is skipped internally (the live stream,
    /// like the real vantage, only sees the cache-miss shadow), and
    /// DNSSEC follow-up queries (DS at the delegation, DNSKEY at the
    /// apex) are returned on the calls after the query they follow.
    pub fn sample(&mut self, t: SimTime) -> PlannedQuery {
        let mut skips = 0;
        loop {
            if let Some(q) = self.pending.pop_front() {
                return q;
            }
            // hot caches everywhere: the event after the last skip
            // meets empty ones, so it always emits
            self.demand(t, skips < MAX_CACHE_SKIPS);
            skips += 1;
        }
    }

    /// One demand event through [`Engine::demand`] (shared code, so
    /// live and offline runs cannot drift apart), its queries queued on
    /// `pending`; `use_caches` off runs it against empty caches.
    fn demand(&mut self, t: SimTime, use_caches: bool) {
        let Driver {
            engine,
            rng,
            wire,
            fleet_cum,
            caches,
            emitted,
            pending,
            cache_hits,
        } = self;
        let fi = pick_cumulative(fleet_cum, rng.gen());
        let fleet = &engine.fleets[fi];
        let want_junk = plan::junk_due(fleet.spec.junk_ratio, emitted[fi]);
        let mut cold = Caches::default();
        let caches = if use_caches {
            &mut caches[fi]
        } else {
            &mut cold
        };
        let sent = engine.demand(fleet, t, want_junk, caches, rng, |rng, ask| {
            // the engine's query, and the direct-TCP coin its recorder
            // tosses when it records the exchange
            let query = engine.build_query(ask, rng, wire);
            let tcp_extra = fleet.spec.tcp_extra_at(ask.resolver.site as usize);
            pending.push_back(PlannedQuery {
                wire: QueryWire::new(wire.query()),
                qname: query.question.qname,
                qtype: ask.qtype,
                src: query.src_ip,
                dst: query.dst_ip,
                edns_size: ask.resolver.edns_size,
                tcp_direct: tcp_extra > 0.0 && rng.gen_bool(tcp_extra),
                is_junk: ask.junk,
                fleet: fi,
            });
            1
        });
        if sent == 0 {
            *cache_hits += 1;
        }
        emitted[fi] += sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Vantage;
    use crate::scenario::dataset;
    use dns_wire::message::Message;
    use netbase::time::SimDuration;
    use std::collections::HashSet;

    fn driver() -> Driver {
        Driver::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 42)
    }

    #[test]
    fn sampled_queries_are_wire_valid() {
        let mut d = driver();
        let t = d.engine().spec().start;
        for _ in 0..500 {
            let q = d.sample(t);
            let msg = Message::parse(&q.wire).expect("valid query wire");
            assert!(!msg.header.response);
            let question = msg.question().expect("one question");
            assert_eq!(question.qtype, q.qtype);
            if q.edns_size > 0 {
                assert_eq!(
                    msg.edns.as_ref().map(|e| e.udp_payload_size),
                    Some(q.edns_size)
                );
            } else {
                assert!(msg.edns.is_none());
            }
        }
    }

    #[test]
    fn sources_come_from_fleet_address_plan() {
        let mut d = driver();
        let t = d.engine().spec().start;
        let servers: Vec<IpAddr> = d
            .engine()
            .spec()
            .servers
            .iter()
            .flat_map(|s| [IpAddr::V4(s.v4), IpAddr::V6(s.v6)])
            .collect();
        for _ in 0..200 {
            let q = d.sample(t);
            assert!(
                servers.contains(&q.dst),
                "dst {} is a dataset server",
                q.dst
            );
            assert_ne!(q.src, q.dst);
        }
    }

    #[test]
    fn fleet_mix_tracks_traffic_share() {
        let mut d = driver();
        let t = d.engine().spec().start;
        let n = 20_000;
        let mut counts = vec![0u64; d.engine.fleets.len()];
        for _ in 0..n {
            let q = d.sample(t);
            counts[q.fleet] += 1;
        }
        for (fi, fleet) in d.engine.fleets.iter().enumerate() {
            let got = counts[fi] as f64 / n as f64;
            assert!(
                (got - fleet.spec.traffic_share).abs() < 0.05,
                "{}: got {got}, want {}",
                fleet.spec.name,
                fleet.spec.traffic_share
            );
        }
        assert!(d.cache_hits() > 0, "hot names hit the simulated caches");
    }

    #[test]
    fn junk_share_tracks_spec() {
        let mut d = driver();
        let t = d.engine().spec().start;
        let n = 8_000;
        let junk = (0..n).filter(|_| d.sample(t).is_junk).count();
        let got = junk as f64 / n as f64;
        let want = 1.0 - d.engine().spec().valid_fraction;
        assert!((got - want).abs() < 0.06, "junk {got} vs {want}");
    }

    #[test]
    fn deterministic_per_seed() {
        let sample_ids = |seed: u64| -> Vec<Vec<u8>> {
            let mut d = Driver::new(dataset(Vantage::Nz, 2020), Scale::tiny(), seed);
            let t = d.engine().spec().start;
            (0..50).map(|_| d.sample(t).wire.to_vec()).collect()
        };
        assert_eq!(sample_ids(3), sample_ids(3));
        assert_ne!(sample_ids(3), sample_ids(4));
    }

    /// A validating resolver asks for a delegation's DS once an hour:
    /// the follow-up consults the resolver cache, as the offline engine's
    /// does (the driver's own copy of the rule once did not).
    #[test]
    fn one_ds_per_delegation_per_resolver_per_hour() {
        let mut d = driver();
        let start = d.engine().spec().start;
        let mut seen = HashSet::new();
        for i in 0..40_000u64 {
            // a live-like clock: 50 ms a query, 33 minutes in all
            let q = d.sample(start + SimDuration::from_millis(50 * i));
            if q.qtype != RType::Ds {
                continue;
            }
            let resolver = d.engine().fleets()[q.fleet]
                .resolvers
                .iter()
                .position(|r| r.ip == q.src || r.alt_ip == Some(q.src))
                .expect("the source is a member of its fleet");
            let delegation = q.qname.to_string().to_ascii_lowercase();
            assert!(
                seen.insert((q.fleet, resolver, delegation)),
                "fleet {} resolver {resolver} asked DS for {} twice inside the hour",
                q.fleet,
                q.qname
            );
        }
        assert!(seen.len() > 100, "enough DS follow-ups: {}", seen.len());
    }
}
