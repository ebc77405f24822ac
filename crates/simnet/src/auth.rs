//! The authoritative-server model: given a query, produce the response
//! a TLD/root name server would send, with realistic record contents so
//! that *sizes* — and therefore EDNS-driven truncation and TCP fallback
//! (§4.4) — emerge mechanistically.

use crate::vantage::WireScratch;
use dns_wire::edns::Edns;
use dns_wire::header::Header;
use dns_wire::message::{Message, Question};
use dns_wire::name::{Name, ReusableCompressor};
use dns_wire::types::{RClass, RType, Rcode};
use dns_wire::writer::{MessageWriter, Section};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use zonedb::zone::{Located, Lookup, ZoneModel};

/// An analyzed authoritative server (one NS of the vantage zone).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServerSpec {
    /// Mnemonic, e.g. "nl-A".
    pub name: String,
    /// IPv4 service address.
    pub v4: std::net::Ipv4Addr,
    /// IPv6 service address.
    pub v6: std::net::Ipv6Addr,
}

/// Host labels of a delegation's name servers, in NS-set order.
pub(crate) const NS_LABELS: [&[u8]; 3] = [b"ns1", b"ns2", b"ns3"];

/// AAAA glue of a delegation's first (dual-stack) name server.
const GLUE_V6: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x53, 0, 0, 0, 0, 0x10);
/// The type bitmap of the NSECs in a signed NXDOMAIN (NS SOA RRSIG NSEC DNSKEY).
const NSEC_APEX_TYPES: [u8; 7] = [0, 6, 0x40, 0x01, 0x00, 0x00, 0x03];
/// The type bitmap proving a delegation unsigned (NS RRSIG NSEC, no DS).
const NSEC_UNSIGNED_TYPES: [u8; 7] = [0, 6, 0x00, 0x01, 0x00, 0x00, 0x03];

/// An RRSIG's key tag, signature length and fill octet.
type Signature = (u16, usize, u8);
/// An RSA-1024-sized signature, the common case for TLD zones in the
/// studied window.
const SIG_ZSK: Signature = (20826, 128, 0x5a);
/// A KSK-sized signature, for DNSKEY and DS RRsets.
const SIG_KSK: Signature = (19036, 256, 0xa5);

/// The responder for one zone.
pub struct Authoritative {
    zone: ZoneModel,
    /// TTL on delegation NS records.
    pub delegation_ttl: u32,
    /// Negative-caching TTL (from the SOA minimum).
    pub negative_ttl: u32,
}

/// What the responder reads of a query: the header bits it mirrors,
/// the question section it echoes (answering the first entry), and
/// whether an OPT came along.
#[derive(Clone, Copy)]
pub struct Query<'a> {
    /// The query's header.
    pub header: &'a Header,
    /// The query's question section.
    pub questions: &'a [Question],
    /// The DO bit of the query's OPT; `None` without EDNS.
    pub dnssec_ok: Option<bool>,
}

impl<'a> From<&'a Message> for Query<'a> {
    fn from(msg: &'a Message) -> Self {
        Query {
            header: &msg.header,
            questions: &msg.questions,
            dnssec_ok: msg.edns.as_ref().map(|e| e.dnssec_ok),
        }
    }
}

impl Query<'_> {
    /// Start the response to this query in `wire`: header mirrored,
    /// question section copied.
    pub(crate) fn open<'w>(&self, rcode: Rcode, wire: &'w mut WireScratch) -> Reply<'w> {
        let mut w = wire.response_writer(&Header::response_to(self.header, rcode));
        for q in self.questions {
            w.question(q);
        }
        Reply(w)
    }

    /// Close the response, mirroring the requestor's EDNS presence.
    pub(crate) fn close(&self, reply: Reply<'_>) {
        let edns = self.dnssec_ok.map(|d| Edns::with_size(4096, d));
        reply
            .0
            .finish(edns.as_ref(), usize::MAX)
            .expect("no size limit");
    }
}

/// A response being written: [`MessageWriter`] plus the record shapes
/// the model's answers are made of.
pub(crate) struct Reply<'w>(MessageWriter<'w>);

impl Reply<'_> {
    pub(crate) fn put(
        &mut self,
        section: Section,
        owner: &Name,
        rtype: RType,
        ttl: u32,
        rdata: impl FnOnce(&mut ReusableCompressor, &mut Vec<u8>),
    ) {
        self.0
            .record(section, owner, rtype, RClass::In, ttl, |comp, out| {
                rdata(comp, out);
                Ok(())
            })
            .expect("infallible rdata");
    }

    pub(crate) fn ns(&mut self, section: Section, owner: &Name, ttl: u32, host: &Name) {
        self.put(section, owner, RType::Ns, ttl, |comp, out| {
            comp.encode_name(host, out)
        });
    }

    /// An A or AAAA record, by the address's family.
    pub(crate) fn addr(&mut self, section: Section, owner: &Name, ttl: u32, addr: IpAddr) {
        match addr {
            IpAddr::V4(v4) => self.put(section, owner, RType::A, ttl, |_, out| {
                out.extend_from_slice(&v4.octets())
            }),
            IpAddr::V6(v6) => self.put(section, owner, RType::Aaaa, ttl, |_, out| {
                out.extend_from_slice(&v6.octets())
            }),
        }
    }

    fn rrsig(
        &mut self,
        section: Section,
        owner: &Name,
        ttl: u32,
        covered: RType,
        signer: &Name,
        (key_tag, len, fill): Signature,
    ) {
        self.put(section, owner, RType::Rrsig, ttl, |_, out| {
            out.extend_from_slice(&covered.to_u16().to_be_bytes());
            out.extend_from_slice(&[8, signer.label_count() as u8]);
            for v in [3600u32, 1_600_000_000, 1_598_000_000] {
                out.extend_from_slice(&v.to_be_bytes());
            }
            out.extend_from_slice(&key_tag.to_be_bytes());
            // RFC 4034 §3.1.7: signer name MUST NOT be compressed.
            signer.encode_uncompressed(out);
            out.resize(out.len() + len, fill);
        });
    }

    fn nsec(&mut self, owner: &Name, ttl: u32, next: &Name, types: &[u8]) {
        self.put(Section::Authority, owner, RType::Nsec, ttl, |_, out| {
            // RFC 4034 §4.1.1: next name MUST NOT be compressed.
            next.encode_uncompressed(out);
            out.extend_from_slice(types);
        });
    }

    /// A DS record whose digest is spun out of the delegation's hash.
    fn ds(&mut self, section: Section, owner: &Name, ttl: u32, h: u64, digest: (u8, u8)) {
        let (digest_type, len) = digest;
        self.put(section, owner, RType::Ds, ttl, |_, out| {
            out.extend_from_slice(&(h as u16).to_be_bytes());
            out.extend_from_slice(&[8, digest_type]);
            out.extend((0..len).map(|i| (h >> (i % 8)) as u8));
        });
    }
}

/// Outcome of answering one query; the response itself is in the
/// [`WireScratch`] it was written to, whole.
pub struct Answer {
    /// Response code (also in the written header).
    pub rcode: Rcode,
    /// TTL the resolver should cache this under.
    pub cache_ttl_secs: u32,
}

impl Authoritative {
    /// Build a responder for `zone`.
    pub fn new(zone: ZoneModel) -> Self {
        Authoritative {
            zone,
            delegation_ttl: 3600,
            negative_ttl: 900,
        }
    }

    /// The zone served.
    pub fn zone(&self) -> &ZoneModel {
        &self.zone
    }

    /// Answer `query`, writing the full (pre-truncation) response into
    /// `wire`. `signed_delegation` tells the responder whether the
    /// delegation the qname falls under has a DS RRset (decided by the
    /// caller from the zone model, since junk names have none).
    pub fn respond(
        &self,
        query: Query<'_>,
        signed_delegation: bool,
        wire: &mut WireScratch,
    ) -> Answer {
        let Some(question) = query.questions.first() else {
            query.close(query.open(Rcode::FormErr, wire));
            return Answer {
                rcode: Rcode::FormErr,
                cache_ttl_secs: 0,
            };
        };
        let lookup = self.zone.classify(&question.qname);
        self.answer(query, question, lookup, signed_delegation, wire)
    }

    /// [`Authoritative::respond`] to a one-question `query` whose qname
    /// the caller has already [located](ZoneModel::locate) in this
    /// zone: whether the delegation is signed follows from the
    /// registration it falls under, so the name is classified once.
    pub fn respond_located(
        &self,
        query: Query<'_>,
        located: Located,
        wire: &mut WireScratch,
    ) -> Answer {
        let Some(question) = query.questions.first() else {
            return self.respond(query, false, wire);
        };
        let signed = located.delegation.is_some_and(|i| self.zone.is_signed(i));
        self.answer(query, question, located.lookup, signed, wire)
    }

    fn answer(
        &self,
        query: Query<'_>,
        question: &Question,
        lookup: Lookup,
        signed_delegation: bool,
        wire: &mut WireScratch,
    ) -> Answer {
        let dnssec_ok = query.dnssec_ok.unwrap_or(false);
        let (rcode, cache_ttl_secs) = match lookup {
            Lookup::NxDomain => (Rcode::NxDomain, self.negative_ttl),
            Lookup::InZone => (Rcode::NoError, 3600),
            Lookup::Delegated if question.qtype == RType::Ds => (Rcode::NoError, 3600),
            Lookup::Delegated => (Rcode::NoError, self.delegation_ttl),
        };
        let mut reply = query.open(rcode, wire);
        match lookup {
            Lookup::NxDomain => self.nxdomain(&mut reply, dnssec_ok),
            Lookup::InZone => self.in_zone(&mut reply, question.qtype, dnssec_ok),
            Lookup::Delegated => {
                let delegation = self.zone.minimized_qname(&question.qname);
                match question.qtype {
                    RType::Ds => {
                        self.ds_answer(&mut reply, &delegation, signed_delegation, dnssec_ok)
                    }
                    _ => self.referral(&mut reply, &delegation, signed_delegation, dnssec_ok),
                }
            }
        }
        query.close(reply);
        Answer {
            rcode,
            cache_ttl_secs,
        }
    }

    /// NXDOMAIN: SOA in authority; NSEC + RRSIGs when DO is set. Signed
    /// negative answers are large — they push small-EDNS resolvers into
    /// truncation even on junk.
    fn nxdomain(&self, reply: &mut Reply<'_>, dnssec_ok: bool) {
        let apex = self.zone.apex();
        let ttl = self.negative_ttl;
        self.soa(reply, Section::Authority, ttl);
        if dnssec_ok {
            // RFC 4035 §3.1.3.2: a secure NXDOMAIN proves both the
            // nonexistence of the name and of a covering wildcard —
            // two NSECs, each with its RRSIG, plus the signed SOA.
            reply.rrsig(Section::Authority, apex, ttl, RType::Soa, apex, SIG_ZSK);
            for (owner, next) in [(b"zzzy", b"zzzz"), (b"aaab", b"aaac")] {
                let owner = child(apex, owner);
                reply.nsec(&owner, ttl, &child(apex, next), &NSEC_APEX_TYPES);
                reply.rrsig(Section::Authority, &owner, ttl, RType::Nsec, apex, SIG_ZSK);
            }
        }
    }

    /// Apex / in-zone answers (SOA, NS, DNSKEY at the apex...).
    fn in_zone(&self, reply: &mut Reply<'_>, qtype: RType, dnssec_ok: bool) {
        let apex = self.zone.apex();
        let answer = Section::Answer;
        match qtype {
            RType::Dnskey => {
                // TLD DNSKEY RRsets in the studied window typically held
                // a KSK + ZSK plus pre-published rollover keys, ~1.5-1.8
                // kB with signatures — the classic truncation trigger at
                // 1232-byte EDNS.
                for (flags, keylen, fill) in [
                    (257u16, 260usize, 0x03u8),
                    (256, 132, 0x07),
                    (257, 260, 0x0b),
                    (256, 132, 0x0d),
                ] {
                    reply.put(answer, apex, RType::Dnskey, 3600, |_, out| {
                        out.extend_from_slice(&flags.to_be_bytes());
                        out.extend_from_slice(&[3, 8]);
                        out.resize(out.len() + keylen, fill);
                    });
                }
                if dnssec_ok {
                    for _ in 0..2 {
                        reply.rrsig(answer, apex, 3600, RType::Dnskey, apex, SIG_KSK);
                    }
                }
            }
            RType::Soa => {
                self.soa(reply, answer, 3600);
                if dnssec_ok {
                    reply.rrsig(answer, apex, 3600, RType::Soa, apex, SIG_ZSK);
                }
            }
            RType::Ns => {
                for label in NS_LABELS {
                    reply.ns(answer, apex, 3600, &child(apex, label));
                }
                if dnssec_ok {
                    reply.rrsig(answer, apex, 3600, RType::Ns, apex, SIG_ZSK);
                }
            }
            // NODATA: NOERROR with SOA in authority
            _ => self.soa(reply, Section::Authority, self.negative_ttl),
        }
    }

    /// A referral: the NS set of the covering delegation in authority,
    /// glue in additional, and — for signed delegations under DO — the
    /// DS record plus its RRSIG. This is the answer shape whose size
    /// interacts with Figure 6's EDNS distributions.
    fn referral(&self, reply: &mut Reply<'_>, delegation: &Name, signed: bool, dnssec_ok: bool) {
        let apex = self.zone.apex();
        let authority = Section::Authority;
        let h = hash_name(delegation);
        let hosts = NS_LABELS.map(|label| child(delegation, label));
        let hosts = &hosts[..2 + (h % 2) as usize]; // 2-3 NS records
        for host in hosts {
            reply.ns(authority, delegation, self.delegation_ttl, host);
        }
        if dnssec_ok && signed {
            // the common operational DS RRset: SHA-256 + SHA-384
            // digests plus a 2048-bit signature — what pushes the
            // signed referral past 512 octets
            let ttl = self.delegation_ttl;
            reply.ds(authority, delegation, ttl, h, DS_SHA256);
            reply.ds(authority, delegation, ttl, h.rotate_left(17), DS_SHA384);
            reply.rrsig(authority, delegation, ttl, RType::Ds, apex, SIG_KSK);
        } else if dnssec_ok {
            // proof of unsigned delegation: NSEC + RRSIG
            let ttl = self.negative_ttl;
            reply.nsec(delegation, ttl, delegation, &NSEC_UNSIGNED_TYPES);
            reply.rrsig(authority, delegation, ttl, RType::Nsec, apex, SIG_ZSK);
        }
        // in-bailiwick NS hosts get A glue; the first is dual-stack
        let ttl = self.delegation_ttl;
        for (i, host) in hosts.iter().enumerate() {
            let v4 = Ipv4Addr::new(192, 0, 2, 10 + i as u8);
            reply.addr(Section::Additional, host, ttl, v4.into());
            if i == 0 {
                reply.addr(Section::Additional, host, ttl, GLUE_V6.into());
            }
        }
    }

    /// An authoritative DS answer (the parent owns DS).
    fn ds_answer(&self, reply: &mut Reply<'_>, delegation: &Name, signed: bool, dnssec_ok: bool) {
        if !signed {
            // NODATA + SOA (no DS exists)
            return self.soa(reply, Section::Authority, self.negative_ttl);
        }
        let apex = self.zone.apex();
        reply.ds(
            Section::Answer,
            delegation,
            3600,
            hash_name(delegation),
            DS_SHA256,
        );
        if dnssec_ok {
            reply.rrsig(Section::Answer, delegation, 3600, RType::Ds, apex, SIG_ZSK);
        }
    }

    /// The apex SOA.
    fn soa(&self, reply: &mut Reply<'_>, section: Section, ttl: u32) {
        let apex = self.zone.apex();
        let (mname, rname) = (child(apex, NS_LABELS[0]), child(apex, b"hostmaster"));
        reply.put(section, apex, RType::Soa, ttl, |comp, out| {
            comp.encode_name(&mname, out);
            comp.encode_name(&rname, out);
            for v in [2020041101, 3600, 600, 2_419_200, self.negative_ttl] {
                out.extend_from_slice(&v.to_be_bytes());
            }
        });
    }
}

/// A DS digest type and its length: SHA-256.
const DS_SHA256: (u8, u8) = (2, 32);
/// The companion SHA-384 digest registrars commonly publish.
const DS_SHA384: (u8, u8) = (4, 48);

/// `label.parent`, or `parent` itself where that would be too long.
fn child(parent: &Name, label: &[u8]) -> Name {
    parent.child(label).unwrap_or_else(|_| parent.clone())
}

fn hash_name(name: &Name) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_wire() {
        h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::builder::MessageBuilder;
    use proptest::prelude::*;

    fn zone() -> ZoneModel {
        ZoneModel::nl(1000)
    }

    fn query(qname: &Name, qtype: RType, edns: Option<(u16, bool)>) -> Message {
        let mut b = MessageBuilder::query(99, qname.clone(), qtype);
        if let Some((size, do_bit)) = edns {
            b = b.with_edns(size, do_bit);
        }
        b.build()
    }

    /// Answer `q` and parse what was written.
    fn respond(auth: &Authoritative, q: &Message, signed: bool) -> (Answer, Message, Vec<u8>) {
        let mut wire = WireScratch::default();
        let a = auth.respond(q.into(), signed, &mut wire);
        let bytes = wire.response().bytes.to_vec();
        let message = Message::parse(&bytes).expect("written responses parse");
        assert_eq!(message.header.rcode, a.rcode);
        (a, message, bytes)
    }

    #[test]
    fn referral_for_registered_domain() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(7);
        let q = query(&d, RType::A, Some((1232, false)));
        let (a, message, _) = respond(&auth, &q, true);
        assert_eq!(a.rcode, Rcode::NoError);
        assert!(message.answers.is_empty(), "referral has no answer section");
        assert!(message.authorities.iter().all(|r| r.rtype() == RType::Ns));
        assert!(message.authorities.len() >= 2);
        assert_eq!(a.cache_ttl_secs, 3600);
    }

    #[test]
    fn signed_referral_with_do_carries_ds() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(7);
        let q = query(&d, RType::A, Some((1232, true)));
        let (_, message, signed) = respond(&auth, &q, true);
        let types: Vec<RType> = message.authorities.iter().map(|r| r.rtype()).collect();
        assert!(types.contains(&RType::Ds));
        assert!(types.contains(&RType::Rrsig));
        // and is substantially larger than the unsigned one
        let (_, _, plain) = respond(&auth, &query(&d, RType::A, Some((1232, false))), true);
        let (signed_len, plain_len) = (signed.len(), plain.len());
        assert!(signed_len > plain_len + 150, "{signed_len} vs {plain_len}");
    }

    #[test]
    fn unsigned_delegation_with_do_gets_nsec_proof() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(7);
        let (_, message, _) = respond(&auth, &query(&d, RType::A, Some((4096, true))), false);
        let types: Vec<RType> = message.authorities.iter().map(|r| r.rtype()).collect();
        assert!(types.contains(&RType::Nsec));
        assert!(!types.contains(&RType::Ds));
    }

    #[test]
    fn nxdomain_for_junk() {
        let auth = Authoritative::new(zone());
        let junk: Name = "zzz9qqq.nl.".parse().unwrap();
        let (a, message, _) = respond(&auth, &query(&junk, RType::A, Some((512, false))), false);
        assert_eq!(a.rcode, Rcode::NxDomain);
        assert_eq!(message.authorities.len(), 1, "just the SOA");
        assert_eq!(a.cache_ttl_secs, 900);
    }

    #[test]
    fn signed_nxdomain_is_large() {
        let auth = Authoritative::new(zone());
        let junk: Name = "zzz9qqq.nl.".parse().unwrap();
        let (_, _, plain) = respond(&auth, &query(&junk, RType::A, Some((4096, false))), false);
        let (_, _, signed) = respond(&auth, &query(&junk, RType::A, Some((4096, true))), false);
        let (p, s) = (plain.len(), signed.len());
        assert!(s > p + 250, "{s} vs {p}");
        assert!(s > 512, "signed NXDOMAIN must not fit 512B");
    }

    #[test]
    fn dnskey_answer_exceeds_1232() {
        let auth = Authoritative::new(zone());
        let apex = auth.zone().apex().clone();
        let (_, _, bytes) = respond(
            &auth,
            &query(&apex, RType::Dnskey, Some((4096, true))),
            true,
        );
        let len = bytes.len();
        assert!(len > 1232, "DNSKEY+RRSIG = {len} must truncate at 1232");
        assert!(len < 4096);
    }

    #[test]
    fn ds_query_answered_from_parent() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(3);
        let (a, message, _) = respond(&auth, &query(&d, RType::Ds, Some((1232, true))), true);
        assert_eq!(a.rcode, Rcode::NoError);
        assert_eq!(message.answers[0].rtype(), RType::Ds);
        // unsigned delegation: NODATA
        let (a, message, _) = respond(&auth, &query(&d, RType::Ds, Some((1232, true))), false);
        assert!(message.answers.is_empty());
        assert_eq!(a.rcode, Rcode::NoError);
    }

    #[test]
    fn apex_soa_and_ns() {
        let auth = Authoritative::new(zone());
        let apex = auth.zone().apex().clone();
        let (_, message, _) = respond(&auth, &query(&apex, RType::Soa, None), true);
        assert_eq!(message.answers[0].rtype(), RType::Soa);
        let (_, message, _) = respond(&auth, &query(&apex, RType::Ns, None), true);
        assert_eq!(message.answers.len(), 3);
    }

    #[test]
    fn responses_roundtrip_on_the_wire() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(1);
        for (qt, signed) in [(RType::A, true), (RType::Ds, true), (RType::Mx, false)] {
            let (_, message, bytes) = respond(&auth, &query(&d, qt, Some((1232, true))), signed);
            assert_eq!(message.encode().unwrap(), bytes);
        }
    }

    #[test]
    fn truncation_happens_for_small_edns_on_signed_zone() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(11);
        let q = query(&d, RType::A, Some((512, true)));
        let mut wire = WireScratch::default();
        auth.respond((&q).into(), true, &mut wire);
        let full = wire.response().bytes.len();
        let reply = crate::vantage::shape_udp::<crate::rrl::RateLimiter>(
            wire.response(),
            512,
            "192.0.2.1".parse().unwrap(),
            netbase::time::SimTime(0),
            None,
        )
        .expect("no limiter, no drop");
        assert!(
            reply.truncated,
            "signed referral must exceed 512 (got {full})"
        );
        assert!(reply.bytes.len() <= 512);
        let parsed = Message::parse(&reply.bytes).unwrap();
        assert!(parsed.header.truncated);
    }

    #[test]
    fn query_without_question_is_formerr() {
        let auth = Authoritative::new(zone());
        let mut q = MessageBuilder::query(1, Name::root(), RType::A).build();
        q.questions.clear();
        let (a, message, _) = respond(&auth, &q, false);
        assert_eq!(a.rcode, Rcode::FormErr);
        assert!(message.questions.is_empty());
    }

    /// `name` with the case of its letters flipped where `flips` has a
    /// bit set: what a 0x20-mixing resolver sends.
    fn recase(name: &Name, flips: u64) -> Name {
        let mut wire = name.as_wire().to_vec();
        let mut pos = 0;
        while wire[pos] != 0 {
            let end = pos + 1 + wire[pos] as usize;
            for (j, b) in wire[pos + 1..end].iter_mut().enumerate() {
                if b.is_ascii_alphabetic() && flips >> ((pos + j) % 64) & 1 == 1 {
                    *b ^= 0x20;
                }
            }
            pos = end;
        }
        Name::parse(&wire, 0).unwrap().0
    }

    proptest! {
        /// Whatever is asked, the written response is a well-formed
        /// message with the shape the model promises: it parses,
        /// `Message::encode` lays the parsed form out in the same
        /// bytes, and the UDP cut of the written bytes is the cut
        /// `Message::encode_with_limit` makes.
        #[test]
        fn written_responses_are_the_messages_they_claim(
            kind in 0usize..5,
            idx in 0u64..1000,
            flips in any::<u64>(),
            qtype in 0usize..7,
            edns in 0usize..4,
            do_bit in any::<bool>(),
            signed in any::<bool>(),
        ) {
            use RType::*;
            let qtype = [A, Aaaa, Ns, Ds, Dnskey, Soa, Mx][qtype];
            let edns = [None, Some(512u16), Some(1232), Some(4096)][edns];
            let auth = Authoritative::new(zone());
            let apex = auth.zone().apex();
            let domain = auth.zone().registered_domain(idx);
            let qname = match kind {
                0 => apex.clone(),
                1 => domain.clone(),
                2 => child(&child(&domain, b"cdn-7"), b"www"),
                3 => child(apex, format!("zzz9qqq{idx}").as_bytes()),
                _ => "out.of-zone.example.".parse().unwrap(),
            };
            let q = query(&recase(&qname, flips), qtype, edns.map(|size| (size, do_bit)));
            let dnssec = edns.is_some() && do_bit;
            let mut wire = WireScratch::default();
            let a = auth.respond((&q).into(), signed, &mut wire);
            let full = wire.response().bytes;
            let message = Message::parse(full).expect("written responses parse");
            prop_assert_eq!(&message.encode().unwrap(), full);
            prop_assert_eq!(&message.questions, &q.questions);
            prop_assert_eq!(
                message.edns.as_ref().map(|e| e.dnssec_ok),
                edns.map(|_| do_bit)
            );

            let d = dnssec as usize;
            let referral_hosts = message.additionals.len().saturating_sub(1);
            let (rcode, counts) = match (kind, qtype) {
                (0, Dnskey) => (Rcode::NoError, [4 + 2 * d, 0, 0]),
                (0, Soa) => (Rcode::NoError, [1 + d, 0, 0]),
                (0, Ns) => (Rcode::NoError, [3 + d, 0, 0]),
                (0, _) => (Rcode::NoError, [0, 1, 0]),
                (1 | 2, Ds) if signed => (Rcode::NoError, [1 + d, 0, 0]),
                (1 | 2, Ds) => (Rcode::NoError, [0, 1, 0]),
                (1 | 2, _) => {
                    prop_assert!((2..=3).contains(&referral_hosts));
                    let proof = if signed { 3 } else { 2 };
                    (Rcode::NoError, [0, referral_hosts + d * proof, referral_hosts + 1])
                }
                _ => (Rcode::NxDomain, [0, 1 + 5 * d, 0]),
            };
            prop_assert_eq!((a.rcode, message.header.rcode), (rcode, rcode));
            prop_assert_eq!(
                [message.answers.len(), message.authorities.len(), message.additionals.len()],
                counts
            );

            let limit = edns.unwrap_or(0).max(512) as usize;
            let reply = crate::vantage::shape_udp::<crate::rrl::RateLimiter>(
                wire.response(),
                edns.unwrap_or(0),
                "192.0.2.1".parse().unwrap(),
                netbase::time::SimTime(0),
                None,
            )
            .expect("no limiter, no drop");
            prop_assert!(reply.bytes.len() <= limit);
            prop_assert_eq!(reply.truncated, full.len() > limit);
            prop_assert_eq!(
                (reply.bytes, reply.truncated),
                message.encode_with_limit(limit).unwrap()
            );
        }
    }
}
