//! Profile-driven query sampling for external drivers.
//!
//! The offline [`Engine`] *pushes* a whole
//! dataset into a capture file. A live load generator instead *pulls*
//! one query at a time and puts it on a real socket. [`Driver`] exposes
//! the same per-query decision chain the engine uses — fleet choice by
//! traffic share, Zipf name popularity, per-CP qtype mixes, Q-min,
//! resolver caches, EDNS parameters, 0x20 mixing, DNSSEC follow-ups,
//! direct-TCP shares — against the *same* fleet materialization
//! (addresses, sites, activity weights), so traffic captured live is
//! attributable by the unchanged offline analysis pipeline.

use crate::engine::{
    choose_server_family, mix_case_0x20, name_key, pick_question_for, CacheKey, Engine,
    ResolverCache, CACHE_CAP,
};
use crate::scenario::{DatasetSpec, Scale};
use dns_wire::builder::MessageBuilder;
use dns_wire::name::Name;
use dns_wire::types::RType;
use netbase::flow::IpVersion;
use netbase::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;

/// How many cache-absorbed demand events one [`Driver::sample`] call
/// skips before giving up and emitting a (possibly cached) query anyway.
const MAX_CACHE_SKIPS: u32 = 50;

/// One query the driver wants on the wire.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The encoded DNS query message (UDP payload / TCP pre-framing).
    pub wire: Vec<u8>,
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
    fleet_cum: Vec<f64>,
    caches: Vec<HashMap<u32, ResolverCache>>,
    emitted: Vec<u64>,
    junk_emitted: Vec<u64>,
    /// DNSSEC follow-up queries waiting to go out.
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
        let mut acc = 0.0;
        let mut fleet_cum: Vec<f64> = engine
            .fleets
            .iter()
            .map(|f| {
                acc += f.spec.traffic_share.max(0.0);
                acc
            })
            .collect();
        if acc > 0.0 {
            for v in &mut fleet_cum {
                *v /= acc;
            }
        }
        let n = engine.fleets.len();
        Driver {
            engine,
            // a distinct stream from the offline generator's, so live
            // runs do not replay the offline capture byte-for-byte
            rng: StdRng::seed_from_u64(seed ^ 0x11fe_d81e),
            fleet_cum,
            caches: (0..n).map(|_| HashMap::new()).collect(),
            emitted: vec![0; n],
            junk_emitted: vec![0; n],
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
    /// apex) are queued and returned on subsequent calls.
    pub fn sample(&mut self, t: SimTime) -> PlannedQuery {
        if let Some(q) = self.pending.pop_front() {
            return q;
        }
        for _ in 0..MAX_CACHE_SKIPS {
            if let Some(q) = self.demand(t, true) {
                return q;
            }
        }
        // hot caches everywhere: emit the next demand event uncached
        self.demand(t, false).expect("uncached demand always emits")
    }

    /// One demand event through the engine's qname/qtype decision chain
    /// (shared code, so live and offline runs cannot drift apart);
    /// `None` when `use_caches` and a resolver cache absorbed it.
    fn demand(&mut self, t: SimTime, use_caches: bool) -> Option<PlannedQuery> {
        let fi = pick_cum(&self.fleet_cum, self.rng.gen());
        let fleet = &self.engine.fleets[fi];
        let want_junk =
            (self.junk_emitted[fi] as f64) < fleet.spec.junk_ratio * (self.emitted[fi] + 1) as f64;
        let r_idx = fleet.pick(&mut self.rng);
        let (qname, qtype, signed, cacheable) = pick_question_for(
            self.engine.zone(),
            &self.engine.zipf,
            &self.engine.junk,
            &fleet.spec,
            t,
            want_junk,
            &mut self.rng,
        );
        if cacheable && use_caches {
            let ckey = CacheKey {
                domain: name_key(&qname),
                rtype: qtype.to_u16(),
            };
            let cache = self.caches[fi].entry(r_idx as u32).or_default();
            if cache.lookup(&ckey, t.as_micros()).is_some() {
                self.cache_hits += 1;
                return None;
            }
            let ttl = fleet.spec.cache_ttl;
            if ttl != SimDuration::ZERO {
                cache.put(ckey, (), (t + ttl).as_micros(), CACHE_CAP);
            }
        }
        Some(self.build_query(fi, r_idx, qname, qtype, signed, cacheable))
    }

    /// Encode the query and queue DNSSEC follow-ups.
    fn build_query(
        &mut self,
        fi: usize,
        r_idx: usize,
        qname: Name,
        qtype: RType,
        signed: bool,
        cacheable: bool,
    ) -> PlannedQuery {
        self.emitted[fi] += 1;
        if !cacheable {
            self.junk_emitted[fi] += 1;
        }
        let follow_ups = {
            let spec = &self.engine.fleets[fi].spec;
            spec.validates
                && cacheable
                && signed
                && qtype != RType::Ds
                && self.rng.gen_bool(spec.ds_prob)
        };
        let dnskey = {
            let spec = &self.engine.fleets[fi].spec;
            spec.validates && self.rng.gen_bool(spec.dnskey_prob)
        };
        let planned = self.encode_one(fi, r_idx, &qname, qtype, !cacheable);
        if follow_ups {
            let delegation = self.engine.zone().minimized_qname(&qname);
            let q = self.encode_one(fi, r_idx, &delegation, RType::Ds, false);
            self.pending.push_back(q);
        }
        if dnskey {
            let apex = self.engine.zone().apex().clone();
            let q = self.encode_one(fi, r_idx, &apex, RType::Dnskey, false);
            self.pending.push_back(q);
        }
        planned
    }

    /// Encode one wire query for `(fleet, resolver, qname, qtype)`.
    fn encode_one(
        &mut self,
        fi: usize,
        r_idx: usize,
        qname: &Name,
        qtype: RType,
        is_junk: bool,
    ) -> PlannedQuery {
        let rng = &mut self.rng;
        let fleet = &self.engine.fleets[fi];
        let spec = &fleet.spec;
        let resolver = &fleet.resolvers[r_idx];
        let server_count = self.engine.spec().servers.len();
        let (server, family) = choose_server_family(spec, resolver, server_count, rng);
        let src = resolver.addr_for(family);
        let server_spec = &self.engine.spec().servers[server];
        let dst: IpAddr = match IpVersion::of(src) {
            IpVersion::V4 => IpAddr::V4(server_spec.v4),
            IpVersion::V6 => IpAddr::V6(server_spec.v6),
        };
        let wire_qname = if resolver.mix_case {
            mix_case_0x20(qname, rng)
        } else {
            qname.clone()
        };
        let mut builder = MessageBuilder::query(rng.gen(), wire_qname.clone(), qtype);
        if resolver.edns_size > 0 {
            builder = builder.with_edns(resolver.edns_size, resolver.do_bit);
        }
        let wire = builder.build().encode().expect("generated queries encode");
        let tcp_extra = spec.tcp_extra_at(resolver.site as usize);
        let tcp_direct = tcp_extra > 0.0 && rng.gen_bool(tcp_extra);
        PlannedQuery {
            wire,
            qname: wire_qname,
            qtype,
            src,
            dst,
            edns_size: resolver.edns_size,
            tcp_direct,
            is_junk,
            fleet: fi,
        }
    }
}

/// Index into a normalized cumulative-weight table.
fn pick_cum(cum: &[f64], u: f64) -> usize {
    match cum.partition_point(|c| *c < u) {
        i if i >= cum.len() => cum.len() - 1,
        i => i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Vantage;
    use crate::scenario::dataset;
    use dns_wire::message::Message;

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
            (0..50).map(|_| d.sample(t).wire).collect()
        };
        assert_eq!(sample_ids(3), sample_ids(3));
        assert_ne!(sample_ids(3), sample_ids(4));
    }
}
