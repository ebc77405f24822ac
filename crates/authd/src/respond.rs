//! The serving hot path: decode → authoritative answer → encode.
//!
//! One [`Responder`] is shared read-only across all worker threads; the
//! only mutable piece of per-query state is the optional RRL gate,
//! which callers pass in (the server shards its limiter by bucket key —
//! `simnet::rrl::ShardedRateLimiter` — so rate decisions stay globally
//! identical to a serial limiter without a global lock).

use dns_wire::message::Message;
use dns_wire::types::Rcode;
use netbase::flow::Transport;
use netbase::time::SimTime;
use simnet::rrl::{RateLimiter, ResponseClass, RrlAction, RrlGate};
use simnet::scenario::DatasetSpec;
use simnet::vantage::{self, WireScratch};
use std::net::IpAddr;
use zonedb::zone::ZoneModel;

/// Direct-mapped response-cache slots per [`RespondScratch`].
const CACHE_SLOTS: usize = 1024;
/// Largest cacheable key (query payload minus the id), bytes.
const MAX_CACHED_KEY: usize = 512;
/// Largest cacheable encoded response, bytes.
const MAX_CACHED_RESP: usize = 4096;

/// What the server should do with one inbound message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Send these bytes back; `truncated` is the UDP TC=1 flag.
    Reply {
        /// Encoded response message.
        bytes: Vec<u8>,
        /// Response was truncated to the advertised UDP size.
        truncated: bool,
        /// RRL replaced the answer with an empty TC=1 slip.
        slipped: bool,
    },
    /// RRL dropped the response; count it, send nothing.
    RrlDrop,
    /// Input did not parse as a DNS query; count it, send nothing.
    Malformed,
}

/// [`Outcome`] borrowing the reply bytes from a [`RespondScratch`]
/// instead of owning them — the zero-allocation return type of
/// [`Responder::handle_into`].
#[derive(Debug, PartialEq, Eq)]
pub enum OutcomeRef<'a> {
    /// Send these bytes back; `truncated` is the UDP TC=1 flag.
    Reply {
        /// Encoded response, valid until the scratch is next used.
        bytes: &'a [u8],
        /// Response was truncated to the advertised UDP size.
        truncated: bool,
        /// RRL replaced the answer with an empty TC=1 slip.
        slipped: bool,
    },
    /// RRL dropped the response; count it, send nothing.
    RrlDrop,
    /// Input did not parse as a DNS query; count it, send nothing.
    Malformed,
}

/// One cached (query → response) pair. The key is the query payload
/// *minus its 2-byte id*; on a hit the cached response is copied out
/// and only its id patched, so the reply is byte-identical to what the
/// slow path would synthesize.
struct CacheEntry {
    key: Vec<u8>,
    transport: Transport,
    resp: Vec<u8>,
    truncated: bool,
    /// Wire length of the qname at response offset 12 (root byte
    /// included) — locates the question section for slip synthesis.
    qname_len: u16,
    /// Response carries an option-less OPT as its final 11 bytes.
    has_edns: bool,
    /// RRL class the slow path derived for this response.
    class: ResponseClass,
}

/// Per-worker mutable state for [`Responder::handle_into`]: a
/// direct-mapped response cache plus the reused output buffer. In
/// steady state (warm cache, stable query mix) the respond path makes
/// zero heap allocations.
pub struct RespondScratch {
    slots: Vec<Option<CacheEntry>>,
    out: Vec<u8>,
    /// Where cache misses write their response.
    wire: WireScratch,
    hits: u64,
    misses: u64,
}

impl Default for RespondScratch {
    fn default() -> Self {
        RespondScratch::new()
    }
}

impl RespondScratch {
    /// Empty scratch with all cache slots vacant.
    pub fn new() -> RespondScratch {
        RespondScratch {
            slots: (0..CACHE_SLOTS).map(|_| None).collect(),
            out: Vec::with_capacity(MAX_CACHED_RESP),
            wire: WireScratch::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Queries answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Queries that went through full parse + synthesis + encode.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The shape of a cacheable query payload (see [`cacheable_query`]).
struct QueryShape {
    /// Wire length of the qname at offset 12, root byte included.
    qname_len: u16,
    /// The single additional record is an OPT.
    has_opt: bool,
}

/// Decide whether `payload` is simple enough to serve from the response
/// cache: exactly one question whose qname is plain labels at offset
/// 12, no answer/authority records, and at most one additional which
/// must be an OPT. Everything else takes the slow path (and is still
/// answered correctly — just without caching).
fn cacheable_query(payload: &[u8]) -> Option<QueryShape> {
    if payload.len() < 12 || payload.len() - 2 > MAX_CACHED_KEY {
        return None;
    }
    let count = |at: usize| u16::from_be_bytes([payload[at], payload[at + 1]]);
    if count(4) != 1 || count(6) != 0 || count(8) != 0 || count(10) > 1 {
        return None;
    }
    // walk the qname: plain labels only (a compression pointer in a
    // query is exotic; let the slow path deal with it)
    let mut pos = 12usize;
    loop {
        let len = *payload.get(pos)? as usize;
        if len == 0 {
            pos += 1;
            break;
        }
        if len > 63 || pos - 12 > 255 {
            return None;
        }
        pos += 1 + len;
    }
    let qname_len = (pos - 12) as u16;
    let fixed_end = pos + 4; // qtype + qclass
    if payload.len() < fixed_end {
        return None;
    }
    let has_opt = if count(10) == 1 {
        // root owner (0x00) + type OPT (41) right after the question
        if payload.len() < fixed_end + 11
            || payload[fixed_end] != 0
            || payload[fixed_end + 1] != 0
            || payload[fixed_end + 2] != 41
        {
            return None;
        }
        true
    } else {
        false
    };
    Some(QueryShape { qname_len, has_opt })
}

/// FNV-1a over the exact key bytes, seeded by transport.
fn cache_hash(key: &[u8], transport: Transport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ ((transport == Transport::Tcp) as u64);
    for &b in key {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stateless response synthesis shared by all workers.
pub struct Responder {
    auth: simnet::auth::Authoritative,
}

impl Responder {
    /// Build a responder serving `zone`.
    pub fn new(zone: ZoneModel) -> Responder {
        Responder {
            auth: simnet::auth::Authoritative::new(zone),
        }
    }

    /// Responder for the zone a dataset spec describes.
    pub fn for_spec(spec: &DatasetSpec) -> Responder {
        Responder::new(spec.zone.build())
    }

    /// The zone being served.
    pub fn zone(&self) -> &ZoneModel {
        self.auth.zone()
    }

    /// Handle one query payload.
    ///
    /// For UDP, the response is truncated to the size the query's EDNS
    /// advertised (512 without EDNS, and never below 512), and `rrl` —
    /// when the dataset enables it — may slip or drop the response. TCP
    /// responses are encoded whole and bypass RRL, exactly like the
    /// offline engine's TCP path.
    pub fn handle(
        &self,
        payload: &[u8],
        transport: Transport,
        src: IpAddr,
        now: SimTime,
        rrl: Option<&mut RateLimiter>,
    ) -> Outcome {
        self.handle_gated(
            payload,
            transport,
            src,
            now,
            rrl,
            &mut WireScratch::default(),
        )
    }

    /// [`Responder::handle`] generic over the RRL gate, so the sharded
    /// server passes a [`simnet::rrl::ShardedRateLimiter`] handle where
    /// the serial server passes `&mut RateLimiter`. The response is
    /// written into `wire`.
    pub fn handle_gated<L: RrlGate>(
        &self,
        payload: &[u8],
        transport: Transport,
        src: IpAddr,
        now: SimTime,
        rrl: Option<&mut L>,
        wire: &mut WireScratch,
    ) -> Outcome {
        let Ok(query) = Message::parse(payload) else {
            return Outcome::Malformed;
        };
        if query.header.response {
            return Outcome::Malformed;
        }
        match query.question() {
            Some(q) => {
                let located = self.zone().locate(&q.qname);
                self.auth.respond_located((&query).into(), located, wire)
            }
            None => self.auth.respond((&query).into(), false, wire),
        };
        let response = wire.response();

        if transport == Transport::Tcp {
            return Outcome::Reply {
                bytes: response.bytes.to_vec(),
                truncated: false,
                slipped: false,
            };
        }

        let edns_size = query.edns.as_ref().map_or(0, |e| e.udp_payload_size);
        match vantage::shape_udp(response, edns_size, src, now, rrl) {
            Some(reply) => Outcome::Reply {
                bytes: reply.bytes,
                truncated: reply.truncated,
                slipped: reply.slipped,
            },
            None => Outcome::RrlDrop,
        }
    }

    /// [`Responder::handle`] through a per-worker response cache,
    /// writing the reply into `scratch` instead of allocating.
    ///
    /// The responder is a pure function of (payload-after-id,
    /// transport): header id aside, identical queries get identical
    /// responses. A cache hit is therefore a memcpy plus a 2-byte id
    /// patch — zero allocations — and RRL slips are synthesized
    /// byte-exactly from the cached response. RRL is consulted exactly
    /// once per UDP query on both the hit and miss paths; slipped and
    /// dropped outcomes are never cached.
    pub fn handle_into<'s>(
        &self,
        payload: &[u8],
        transport: Transport,
        src: IpAddr,
        now: SimTime,
        rrl: Option<&mut RateLimiter>,
        scratch: &'s mut RespondScratch,
    ) -> OutcomeRef<'s> {
        self.handle_into_gated(payload, transport, src, now, rrl, scratch)
    }

    /// [`Responder::handle_into`] generic over the RRL gate (see
    /// [`Responder::handle_gated`]).
    pub fn handle_into_gated<'s, L: RrlGate>(
        &self,
        payload: &[u8],
        transport: Transport,
        src: IpAddr,
        now: SimTime,
        mut rrl: Option<&mut L>,
        scratch: &'s mut RespondScratch,
    ) -> OutcomeRef<'s> {
        let RespondScratch {
            slots,
            out,
            wire,
            hits,
            misses,
        } = scratch;
        let shape = cacheable_query(payload);
        let idx = shape
            .as_ref()
            .map(|_| cache_hash(&payload[2..], transport) as usize % slots.len());
        if let Some(idx) = idx {
            if let Some(entry) = &slots[idx] {
                if entry.transport == transport && entry.key == payload[2..] {
                    *hits += 1;
                    let action = match (transport, rrl.as_deref_mut()) {
                        (Transport::Udp, Some(limiter)) => limiter.gate(src, entry.class, now),
                        _ => RrlAction::Respond,
                    };
                    return match action {
                        RrlAction::Respond => {
                            out.clear();
                            out.extend_from_slice(&payload[..2]);
                            out.extend_from_slice(&entry.resp[2..]);
                            OutcomeRef::Reply {
                                bytes: out,
                                truncated: entry.truncated,
                                slipped: false,
                            }
                        }
                        RrlAction::Slip => {
                            // an empty TC=1 slip: cleared sections, same
                            // flags/rcode, question + OPT straight from
                            // the cached response bytes
                            out.clear();
                            out.extend_from_slice(&payload[..2]);
                            out.push(entry.resp[2] | 0x02); // TC bit
                            out.push(entry.resp[3]);
                            out.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, entry.has_edns as u8]);
                            let qlen = entry.qname_len as usize + 4;
                            out.extend_from_slice(&entry.resp[12..12 + qlen]);
                            if entry.has_edns {
                                out.extend_from_slice(&entry.resp[entry.resp.len() - 11..]);
                            }
                            OutcomeRef::Reply {
                                bytes: out,
                                truncated: true,
                                slipped: true,
                            }
                        }
                        RrlAction::Drop => OutcomeRef::RrlDrop,
                    };
                }
            }
        }

        *misses += 1;
        match self.handle_gated(payload, transport, src, now, rrl, wire) {
            Outcome::Reply {
                bytes,
                truncated,
                slipped,
            } => {
                // copied, not swapped in: `out` keeps its full capacity,
                // so a later hit never has to grow it
                out.clear();
                out.extend_from_slice(&bytes);
                if !slipped && bytes.len() <= MAX_CACHED_RESP {
                    if let (Some(shape), Some(idx)) = (shape, idx) {
                        // with an OPT present its option-less 11-byte
                        // form must close the response, with zero
                        // extended-rcode bits (so resp[3] is the whole
                        // rcode story)
                        let tail_ok = !shape.has_opt || {
                            let t = bytes.len().wrapping_sub(11);
                            bytes.len() >= 23
                                && bytes[t] == 0
                                && bytes[t + 1] == 0
                                && bytes[t + 2] == 41
                                && bytes[t + 5] == 0
                                && bytes[t + 9] == 0
                                && bytes[t + 10] == 0
                        };
                        if tail_ok {
                            let class = vantage::response_class(
                                Rcode::from_u16((bytes[3] & 0x0f) as u16),
                                &payload[12..12 + shape.qname_len as usize],
                            );
                            match &mut slots[idx] {
                                Some(entry) => {
                                    entry.key.clear();
                                    entry.key.extend_from_slice(&payload[2..]);
                                    entry.resp.clear();
                                    entry.resp.extend_from_slice(&bytes);
                                    entry.transport = transport;
                                    entry.truncated = truncated;
                                    entry.qname_len = shape.qname_len;
                                    entry.has_edns = shape.has_opt;
                                    entry.class = class;
                                }
                                vacant => {
                                    *vacant = Some(CacheEntry {
                                        key: payload[2..].to_vec(),
                                        transport,
                                        resp: bytes,
                                        truncated,
                                        qname_len: shape.qname_len,
                                        has_edns: shape.has_opt,
                                        class,
                                    });
                                }
                            }
                        }
                    }
                }
                OutcomeRef::Reply {
                    bytes: out,
                    truncated,
                    slipped,
                }
            }
            Outcome::RrlDrop => OutcomeRef::RrlDrop,
            Outcome::Malformed => OutcomeRef::Malformed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::builder::MessageBuilder;
    use dns_wire::types::RType;
    use simnet::profile::Vantage;
    use simnet::rrl::RrlConfig;
    use simnet::scenario::dataset;

    fn responder() -> Responder {
        Responder::for_spec(&dataset(Vantage::Nl, 2020))
    }

    fn query_bytes(name: &str, edns: Option<u16>) -> Vec<u8> {
        let mut b = MessageBuilder::query(7, name.parse().unwrap(), RType::A);
        if let Some(size) = edns {
            b = b.with_edns(size, true);
        }
        b.build().encode().unwrap()
    }

    #[test]
    fn answers_inzone_query() {
        let r = responder();
        let q = r.zone().registered_domain(0).to_string();
        let out = r.handle(
            &query_bytes(&q, Some(4096)),
            Transport::Udp,
            "192.0.2.1".parse().unwrap(),
            SimTime(0),
            None,
        );
        let Outcome::Reply {
            bytes,
            truncated,
            slipped,
        } = out
        else {
            panic!("expected a reply, got {out:?}");
        };
        assert!(!truncated);
        assert!(!slipped);
        let msg = Message::parse(&bytes).unwrap();
        assert!(msg.header.response);
        assert_eq!(msg.header.rcode, Rcode::NoError);
        // an A query below a delegation gets a referral: NS records in
        // the authority section
        assert!(!msg.authorities.is_empty());
    }

    #[test]
    fn garbage_and_responses_are_malformed() {
        let r = responder();
        let src = "192.0.2.1".parse().unwrap();
        assert_eq!(
            r.handle(b"\x00\x01junk", Transport::Udp, src, SimTime(0), None),
            Outcome::Malformed
        );
        // a response message must not be answered (no reflection loops)
        let q = r.zone().apex().to_string();
        let mut resp = Message::parse(&query_bytes(&q, None)).unwrap();
        resp.header.response = true;
        let wire = resp.encode().unwrap();
        assert_eq!(
            r.handle(&wire, Transport::Udp, src, SimTime(0), None),
            Outcome::Malformed
        );
    }

    /// A query asking more than one question gets a header-only FORMERR
    /// (RFC 9619) on both transports, its OPT mirrored.
    #[test]
    fn multi_question_query_is_formerr() {
        let r = responder();
        let src = "192.0.2.1".parse().unwrap();
        let mut q = MessageBuilder::query(9, r.zone().registered_domain(0), RType::A)
            .with_edns(1232, true)
            .build();
        q.questions.push(dns_wire::message::Question::new(
            r.zone().apex().clone(),
            RType::Soa,
        ));
        let wire = q.encode().unwrap();
        for transport in [Transport::Udp, Transport::Tcp] {
            let out = r.handle(&wire, transport, src, SimTime(0), None);
            let Outcome::Reply { bytes, .. } = out else {
                panic!("expected a reply, got {out:?}");
            };
            let msg = Message::parse(&bytes).unwrap();
            assert_eq!((msg.header.id, msg.header.rcode), (9, Rcode::FormErr));
            assert!(msg.questions.is_empty(), "header only");
            let records = [&msg.answers, &msg.authorities, &msg.additionals];
            assert!(records.iter().all(|s| s.is_empty()));
            assert_eq!(msg.edns.map(|e| e.dnssec_ok), Some(true));
        }
    }

    #[test]
    fn udp_truncates_to_advertised_size_tcp_does_not() {
        let r = responder();
        let src = "192.0.2.1".parse().unwrap();
        // find a signed delegation: DNSSEC padding makes the referral
        // overflow a 512-byte answer
        let zone = r.zone();
        let idx = (0..1000)
            .find(|&i| zone.is_signed(i))
            .expect("nl zone has signed delegations");
        let q = zone.registered_domain(idx).to_string();
        let wire = query_bytes(&q, Some(512));
        let udp = r.handle(&wire, Transport::Udp, src, SimTime(0), None);
        let Outcome::Reply {
            bytes: udp_bytes,
            truncated,
            ..
        } = udp
        else {
            panic!("udp reply expected");
        };
        assert!(truncated, "signed referral must truncate at 512");
        assert!(udp_bytes.len() <= 512);
        assert!(Message::parse(&udp_bytes).unwrap().header.truncated);

        let tcp = r.handle(&wire, Transport::Tcp, src, SimTime(0), None);
        let Outcome::Reply {
            bytes: tcp_bytes,
            truncated,
            ..
        } = tcp
        else {
            panic!("tcp reply expected");
        };
        assert!(!truncated);
        assert!(tcp_bytes.len() > udp_bytes.len());
    }

    #[test]
    fn rrl_slips_then_drops_repeated_queries() {
        let r = responder();
        let src: IpAddr = "192.0.2.1".parse().unwrap();
        let mut rrl = RateLimiter::new(RrlConfig {
            responses_per_second: 2,
            burst: 2,
            slip: 2,
            ..RrlConfig::default()
        });
        let wire = query_bytes(&r.zone().registered_domain(3).to_string(), None);
        let mut slips = 0;
        let mut drops = 0;
        for _ in 0..64 {
            match r.handle(&wire, Transport::Udp, src, SimTime(0), Some(&mut rrl)) {
                Outcome::Reply {
                    slipped: true,
                    truncated,
                    ..
                } => {
                    assert!(truncated);
                    slips += 1;
                }
                Outcome::RrlDrop => drops += 1,
                Outcome::Reply { .. } => {}
                Outcome::Malformed => panic!("well-formed query"),
            }
        }
        assert!(slips > 0, "RRL should slip some responses");
        assert!(drops > 0, "RRL should drop some responses");
    }

    #[test]
    fn cached_path_matches_slow_path_bytes() {
        let r = responder();
        let src: IpAddr = "192.0.2.1".parse().unwrap();
        let mut scratch = RespondScratch::new();
        let zone_q: Vec<String> = (0..8)
            .map(|i| r.zone().registered_domain(i).to_string())
            .collect();
        for transport in [Transport::Udp, Transport::Tcp] {
            for pass in 0..2 {
                for (i, qname) in zone_q.iter().enumerate() {
                    let edns = [None, Some(512), Some(1232), Some(4096)][i % 4];
                    let mut wire = query_bytes(qname, edns);
                    // vary the id between passes: ids must never alias
                    // cache entries, and the reply must echo the new id
                    wire[0] = pass as u8;
                    wire[1] = i as u8;
                    let slow = r.handle(&wire, transport, src, SimTime(0), None);
                    let fast = r.handle_into(&wire, transport, src, SimTime(0), None, &mut scratch);
                    let Outcome::Reply {
                        bytes: slow_bytes,
                        truncated: slow_tc,
                        ..
                    } = slow
                    else {
                        panic!("slow path replied");
                    };
                    let OutcomeRef::Reply {
                        bytes: fast_bytes,
                        truncated: fast_tc,
                        ..
                    } = fast
                    else {
                        panic!("fast path replied");
                    };
                    assert_eq!(fast_bytes, &slow_bytes[..], "pass {pass} q {qname}");
                    assert_eq!(fast_tc, slow_tc);
                }
            }
        }
        // second pass onwards hits the cache
        assert!(scratch.hits() > 0, "warm pass must hit");
        assert!(scratch.misses() >= zone_q.len() as u64);
    }

    #[test]
    fn cached_slip_matches_slow_path_slip() {
        let r = responder();
        let src: IpAddr = "192.0.2.1".parse().unwrap();
        let tight = RrlConfig {
            responses_per_second: 1,
            burst: 1,
            slip: 1, // every limited response slips, deterministically
            ..RrlConfig::default()
        };
        let mut rrl_slow = RateLimiter::new(tight);
        let mut rrl_fast = RateLimiter::new(tight);
        let mut scratch = RespondScratch::new();
        // warm the cache outside RRL accounting
        let wire = query_bytes(&r.zone().registered_domain(3).to_string(), Some(1232));
        let _ = r.handle_into(&wire, Transport::Udp, src, SimTime(0), None, &mut scratch);
        // identical limiter sequences must produce identical outcomes,
        // byte-for-byte, including the slips
        for step in 0..16 {
            let slow = r.handle(&wire, Transport::Udp, src, SimTime(0), Some(&mut rrl_slow));
            let fast = r.handle_into(
                &wire,
                Transport::Udp,
                src,
                SimTime(0),
                Some(&mut rrl_fast),
                &mut scratch,
            );
            match (slow, fast) {
                (
                    Outcome::Reply {
                        bytes: sb,
                        truncated: st,
                        slipped: ss,
                    },
                    OutcomeRef::Reply {
                        bytes: fb,
                        truncated: ft,
                        slipped: fs,
                    },
                ) => {
                    assert_eq!(fb, &sb[..], "step {step}");
                    assert_eq!((ft, fs), (st, ss), "step {step}");
                    if fs {
                        let parsed = Message::parse(fb).unwrap();
                        assert!(parsed.header.truncated);
                        assert!(parsed.answers.is_empty());
                        assert!(parsed.edns.is_some(), "slip keeps the OPT");
                    }
                }
                (Outcome::RrlDrop, OutcomeRef::RrlDrop) => {}
                (s, f) => panic!("diverged at step {step}: {s:?} vs {f:?}"),
            }
        }
        assert!(scratch.hits() >= 16, "RRL steps served from cache");
    }

    #[test]
    fn uncacheable_queries_still_answered() {
        let r = responder();
        let src: IpAddr = "192.0.2.1".parse().unwrap();
        let mut scratch = RespondScratch::new();
        // garbage stays malformed through the scratch path
        assert_eq!(
            r.handle_into(
                b"\x00\x01junk",
                Transport::Udp,
                src,
                SimTime(0),
                None,
                &mut scratch
            ),
            OutcomeRef::Malformed
        );
        // a query with two questions is answered but never cached
        let q = r.zone().registered_domain(0).to_string();
        let mut msg = Message::parse(&query_bytes(&q, None)).unwrap();
        let extra = msg.questions[0].clone();
        msg.questions.push(extra);
        let wire = msg.encode().unwrap();
        let before = scratch.hits();
        for _ in 0..3 {
            let slow = r.handle(&wire, Transport::Udp, src, SimTime(0), None);
            let fast = r.handle_into(&wire, Transport::Udp, src, SimTime(0), None, &mut scratch);
            match (slow, fast) {
                (Outcome::Reply { bytes: sb, .. }, OutcomeRef::Reply { bytes: fb, .. }) => {
                    assert_eq!(fb, &sb[..]);
                }
                (Outcome::Malformed, OutcomeRef::Malformed) => {}
                (s, f) => panic!("diverged: {s:?} vs {f:?}"),
            }
        }
        assert_eq!(
            scratch.hits(),
            before,
            "multi-question query bypasses cache"
        );
    }
}
