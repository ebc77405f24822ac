//! The serving hot path: read the query in place → authoritative
//! answer → shape.
//!
//! One [`Responder`] is shared read-only across all worker threads; the
//! only mutable piece of per-query state is the optional RRL gate,
//! which callers pass in (the server shards its limiter by bucket key —
//! `simnet::rrl::ShardedRateLimiter` — so rate decisions stay globally
//! identical to a serial limiter without a global lock).
//!
//! Every query is answered in full: the query is read where it lies
//! ([`dns_wire::reader::Reader`]), the answer is written into the
//! worker's warm [`RespondScratch`] and a UDP reply is cut from it, so
//! answering allocates nothing unless the qname is longer than a
//! [`dns_wire::name::Name`] holds inline (one allocation).

use dns_wire::reader::Reader;
use netbase::flow::Transport;
use netbase::time::SimTime;
use simnet::auth::Query;
use simnet::rrl::{RateLimiter, RrlGate};
use simnet::scenario::DatasetSpec;
use simnet::vantage::{self, WireScratch};
use std::net::IpAddr;
use zonedb::zone::ZoneModel;

/// What the server should do with one inbound message, the reply bytes
/// borrowed from the [`RespondScratch`] they were written into.
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

/// Per-worker buffers for [`Responder::handle_into`]: where the answer
/// is written whole, and where a UDP reply is cut from it. Both keep
/// their capacity from query to query.
#[derive(Default)]
pub struct RespondScratch {
    wire: WireScratch,
    out: Vec<u8>,
}

impl RespondScratch {
    /// Empty scratch, sized by the first answers written into it.
    pub fn new() -> RespondScratch {
        RespondScratch::default()
    }
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

    /// Handle one query payload, writing the reply into `scratch`.
    ///
    /// For UDP, the response is truncated to the size the query's EDNS
    /// advertised (512 without EDNS, and never below 512), and `rrl` —
    /// when the dataset enables it — may slip or drop the response,
    /// consulted once per query. TCP responses are whole and bypass
    /// RRL, exactly like the offline engine's TCP path.
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

    /// [`Responder::handle_into`] generic over the RRL gate, so the
    /// sharded server passes a [`simnet::rrl::ShardedRateLimiter`]
    /// handle where a serial caller passes `&mut RateLimiter`.
    pub fn handle_into_gated<'s, L: RrlGate>(
        &self,
        payload: &[u8],
        transport: Transport,
        src: IpAddr,
        now: SimTime,
        rrl: Option<&mut L>,
        scratch: &'s mut RespondScratch,
    ) -> OutcomeRef<'s> {
        // what `Message::parse` refuses, and responses (no reflection
        // loops), are not queries
        let Ok(reader) = Reader::new(payload) else {
            return OutcomeRef::Malformed;
        };
        let header = reader.header();
        if header.response {
            return OutcomeRef::Malformed;
        }
        let edns = reader.edns();
        // the one question answered: any other count reads none, which
        // gets a header-only FORMERR
        let mut questions = reader.questions();
        let question = questions.next().filter(|_| questions.next().is_none());
        let query = Query {
            header: &header,
            questions: question.as_slice(),
            dnssec_ok: edns.as_ref().map(|e| e.dnssec_ok),
        };
        let RespondScratch { wire, out } = scratch;
        match &question {
            Some(q) => self
                .auth
                .respond_located(query, self.zone().locate(&q.qname), wire),
            None => self.auth.respond(query, false, wire),
        };
        let response = wire.response();
        if transport == Transport::Tcp {
            return OutcomeRef::Reply {
                bytes: response.bytes,
                truncated: false,
                slipped: false,
            };
        }
        let edns_size = edns.map_or(0, |e| e.udp_payload_size);
        out.clear();
        match vantage::shape_onto(response, edns_size, src, now, rrl, out) {
            Some((truncated, slipped)) => OutcomeRef::Reply {
                bytes: out,
                truncated,
                slipped,
            },
            None => OutcomeRef::RrlDrop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::builder::MessageBuilder;
    use dns_wire::message::Message;
    use dns_wire::types::{RType, Rcode};
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

    /// `wire` answered with no limiter: the reply's bytes and TC flag.
    fn reply(r: &Responder, wire: &[u8], transport: Transport) -> (Vec<u8>, bool) {
        let src = "192.0.2.1".parse().unwrap();
        let mut scratch = RespondScratch::new();
        match r.handle_into(wire, transport, src, SimTime(0), None, &mut scratch) {
            OutcomeRef::Reply {
                bytes,
                truncated,
                slipped: false,
            } => (bytes.to_vec(), truncated),
            out => panic!("expected a reply, got {out:?}"),
        }
    }

    #[test]
    fn answers_inzone_query() {
        let r = responder();
        let q = r.zone().registered_domain(0).to_string();
        let (bytes, truncated) = reply(&r, &query_bytes(&q, Some(4096)), Transport::Udp);
        assert!(!truncated);
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
        let mut scratch = RespondScratch::new();
        // a response message must not be answered (no reflection loops)
        let q = r.zone().apex().to_string();
        let mut resp = Message::parse(&query_bytes(&q, None)).unwrap();
        resp.header.response = true;
        let wire = resp.encode().unwrap();
        for input in [&b"\x00\x01junk"[..], &wire] {
            for transport in [Transport::Udp, Transport::Tcp] {
                assert_eq!(
                    r.handle_into(input, transport, src, SimTime(0), None, &mut scratch),
                    OutcomeRef::Malformed
                );
            }
        }
    }

    /// A query asking more than one question gets a header-only FORMERR
    /// (RFC 9619) on both transports, its OPT mirrored.
    #[test]
    fn multi_question_query_is_formerr() {
        let r = responder();
        let mut q = MessageBuilder::query(9, r.zone().registered_domain(0), RType::A)
            .with_edns(1232, true)
            .build();
        q.questions.push(dns_wire::message::Question::new(
            r.zone().apex().clone(),
            RType::Soa,
        ));
        let wire = q.encode().unwrap();
        for transport in [Transport::Udp, Transport::Tcp] {
            let msg = Message::parse(&reply(&r, &wire, transport).0).unwrap();
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
        // find a signed delegation: DNSSEC padding makes the referral
        // overflow a 512-byte answer
        let zone = r.zone();
        let idx = (0..1000)
            .find(|&i| zone.is_signed(i))
            .expect("nl zone has signed delegations");
        let q = zone.registered_domain(idx).to_string();
        let wire = query_bytes(&q, Some(512));
        let (udp_bytes, truncated) = reply(&r, &wire, Transport::Udp);
        assert!(truncated, "signed referral must truncate at 512");
        assert!(udp_bytes.len() <= 512);
        assert!(Message::parse(&udp_bytes).unwrap().header.truncated);

        let (tcp_bytes, truncated) = reply(&r, &wire, Transport::Tcp);
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
        let mut scratch = RespondScratch::new();
        let wire = query_bytes(&r.zone().registered_domain(3).to_string(), Some(1232));
        let mut slips = 0;
        let mut drops = 0;
        for _ in 0..64 {
            match r.handle_into(
                &wire,
                Transport::Udp,
                src,
                SimTime(0),
                Some(&mut rrl),
                &mut scratch,
            ) {
                OutcomeRef::Reply {
                    bytes,
                    slipped: true,
                    truncated,
                } => {
                    assert!(truncated);
                    let slip = Message::parse(bytes).unwrap();
                    assert!(slip.header.truncated && slip.answers.is_empty());
                    assert!(slip.edns.is_some(), "a slip keeps the OPT");
                    slips += 1;
                }
                OutcomeRef::RrlDrop => drops += 1,
                OutcomeRef::Reply { .. } => {}
                OutcomeRef::Malformed => panic!("well-formed query"),
            }
        }
        assert!(slips > 0, "RRL should slip some responses");
        assert!(drops > 0, "RRL should drop some responses");
    }
}
