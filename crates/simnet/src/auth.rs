//! The authoritative-server model: given a query, produce the response
//! a TLD/root name server would send, with realistic record contents so
//! that *sizes* — and therefore EDNS-driven truncation and TCP fallback
//! (§4.4) — emerge mechanistically.

use dns_wire::builder::MessageBuilder;
use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::types::{RType, Rcode};
use zonedb::zone::{Lookup, ZoneModel};

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

/// The responder for one zone.
pub struct Authoritative {
    zone: ZoneModel,
    /// TTL on delegation NS records.
    pub delegation_ttl: u32,
    /// Negative-caching TTL (from the SOA minimum).
    pub negative_ttl: u32,
}

/// Outcome of answering one query.
pub struct Answer {
    /// The full (pre-truncation) response message.
    pub message: Message,
    /// Response code (also inside the message header).
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

    /// Answer `query`. `signed_delegation` tells the responder whether
    /// the delegation the qname falls under has a DS RRset (decided by
    /// the caller from the zone model, since junk names have none).
    pub fn respond(&self, query: &Message, signed_delegation: bool) -> Answer {
        let Some(question) = query.question() else {
            let msg = MessageBuilder::response(query, Rcode::FormErr).build();
            return Answer {
                message: msg,
                rcode: Rcode::FormErr,
                cache_ttl_secs: 0,
            };
        };
        let dnssec_ok = query.edns.as_ref().map(|e| e.dnssec_ok).unwrap_or(false);
        let lookup = self.zone.classify(&question.qname);
        match lookup {
            Lookup::NxDomain => self.nxdomain(query, dnssec_ok),
            Lookup::InZone => self.in_zone(query, question, dnssec_ok),
            Lookup::Delegated => {
                let delegation = self.zone.minimized_qname(&question.qname);
                match question.qtype {
                    RType::Ds => self.ds_answer(query, &delegation, signed_delegation, dnssec_ok),
                    _ => self.referral(query, &delegation, signed_delegation, dnssec_ok),
                }
            }
        }
    }

    /// NXDOMAIN: SOA in authority; NSEC + RRSIGs when DO is set. Signed
    /// negative answers are large — they push small-EDNS resolvers into
    /// truncation even on junk.
    fn nxdomain(&self, query: &Message, dnssec_ok: bool) -> Answer {
        let apex = self.zone.apex().clone();
        let mut b = MessageBuilder::response(query, Rcode::NxDomain).authority(
            apex.clone(),
            self.negative_ttl,
            self.soa_rdata(),
        );
        if dnssec_ok {
            // RFC 4035 §3.1.3.2: a secure NXDOMAIN proves both the
            // nonexistence of the name and of a covering wildcard —
            // two NSECs, each with its RRSIG, plus the signed SOA.
            let covering = apex.child(b"zzzy").unwrap_or_else(|_| apex.clone());
            let wildcard = apex.child(b"aaab").unwrap_or_else(|_| apex.clone());
            b = b
                .authority(
                    apex.clone(),
                    self.negative_ttl,
                    rrsig_for(RType::Soa, &apex),
                )
                .authority(
                    covering.clone(),
                    self.negative_ttl,
                    RData::Nsec {
                        next: apex.child(b"zzzz").unwrap_or_else(|_| apex.clone()),
                        type_bitmaps: vec![0, 6, 0x40, 0x01, 0x00, 0x00, 0x03],
                    },
                )
                .authority(covering, self.negative_ttl, rrsig_for(RType::Nsec, &apex))
                .authority(
                    wildcard.clone(),
                    self.negative_ttl,
                    RData::Nsec {
                        next: apex.child(b"aaac").unwrap_or_else(|_| apex.clone()),
                        type_bitmaps: vec![0, 6, 0x40, 0x01, 0x00, 0x00, 0x03],
                    },
                )
                .authority(wildcard, self.negative_ttl, rrsig_for(RType::Nsec, &apex));
        }
        Answer {
            message: b.build(),
            rcode: Rcode::NxDomain,
            cache_ttl_secs: self.negative_ttl,
        }
    }

    /// Apex / in-zone answers (SOA, NS, DNSKEY at the apex...).
    fn in_zone(
        &self,
        query: &Message,
        question: &dns_wire::message::Question,
        dnssec_ok: bool,
    ) -> Answer {
        let apex = self.zone.apex().clone();
        let mut b = MessageBuilder::response(query, Rcode::NoError);
        match question.qtype {
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
                    b = b.answer(
                        apex.clone(),
                        3600,
                        RData::Dnskey {
                            flags,
                            protocol: 3,
                            algorithm: 8,
                            public_key: vec![fill; keylen],
                        },
                    );
                }
                if dnssec_ok {
                    b = b
                        .answer(apex.clone(), 3600, rrsig_big(RType::Dnskey, &apex))
                        .answer(apex.clone(), 3600, rrsig_big(RType::Dnskey, &apex));
                }
            }
            RType::Soa => {
                b = b.answer(apex.clone(), 3600, self.soa_rdata());
                if dnssec_ok {
                    b = b.answer(apex.clone(), 3600, rrsig_for(RType::Soa, &apex));
                }
            }
            RType::Ns => {
                for i in 0..3u8 {
                    b = b.answer(apex.clone(), 3600, RData::Ns(self.ns_name(&apex, i)));
                }
                if dnssec_ok {
                    b = b.answer(apex.clone(), 3600, rrsig_for(RType::Ns, &apex));
                }
            }
            _ => {
                // NODATA: NOERROR with SOA in authority
                b = b.authority(apex.clone(), self.negative_ttl, self.soa_rdata());
            }
        }
        Answer {
            message: b.build(),
            rcode: Rcode::NoError,
            cache_ttl_secs: 3600,
        }
    }

    /// A referral: the NS set of the covering delegation in authority,
    /// glue in additional, and — for signed delegations under DO — the
    /// DS record plus its RRSIG. This is the answer shape whose size
    /// interacts with Figure 6's EDNS distributions.
    fn referral(
        &self,
        query: &Message,
        delegation: &Name,
        signed: bool,
        dnssec_ok: bool,
    ) -> Answer {
        let mut b = MessageBuilder::response(query, Rcode::NoError);
        let ns_count = 2 + (hash_name(delegation) % 2) as u8; // 2-3 NS records
        for i in 0..ns_count {
            let ns = self.ns_name(delegation, i);
            b = b.authority(
                delegation.clone(),
                self.delegation_ttl,
                RData::Ns(ns.clone()),
            );
            // in-bailiwick NS hosts get A glue; the first is dual-stack
            b = b.additional(
                ns.clone(),
                self.delegation_ttl,
                RData::A(std::net::Ipv4Addr::new(192, 0, 2, 10 + i)),
            );
            if i == 0 {
                b = b.additional(
                    ns,
                    self.delegation_ttl,
                    RData::Aaaa("2001:db8:53::10".parse().expect("static")),
                );
            }
        }
        if dnssec_ok {
            if signed {
                // the common operational DS RRset: SHA-256 + SHA-384
                // digests plus a 2048-bit signature — what pushes the
                // signed referral past 512 octets
                b = b
                    .authority(
                        delegation.clone(),
                        self.delegation_ttl,
                        ds_rdata(delegation),
                    )
                    .authority(
                        delegation.clone(),
                        self.delegation_ttl,
                        ds_rdata_sha384(delegation),
                    )
                    .authority(
                        delegation.clone(),
                        self.delegation_ttl,
                        rrsig_big(RType::Ds, self.zone.apex()),
                    );
            } else {
                // proof of unsigned delegation: NSEC + RRSIG
                b = b
                    .authority(
                        delegation.clone(),
                        self.negative_ttl,
                        RData::Nsec {
                            next: delegation.clone(),
                            type_bitmaps: vec![0, 6, 0x00, 0x01, 0x00, 0x00, 0x03],
                        },
                    )
                    .authority(
                        delegation.clone(),
                        self.negative_ttl,
                        rrsig_for(RType::Nsec, self.zone.apex()),
                    );
            }
        }
        Answer {
            message: b.build(),
            rcode: Rcode::NoError,
            cache_ttl_secs: self.delegation_ttl,
        }
    }

    /// An authoritative DS answer (the parent owns DS).
    fn ds_answer(
        &self,
        query: &Message,
        delegation: &Name,
        signed: bool,
        dnssec_ok: bool,
    ) -> Answer {
        let mut b = MessageBuilder::response(query, Rcode::NoError);
        if signed {
            b = b.answer(delegation.clone(), 3600, ds_rdata(delegation));
            if dnssec_ok {
                b = b.answer(
                    delegation.clone(),
                    3600,
                    rrsig_for(RType::Ds, self.zone.apex()),
                );
            }
        } else {
            // NODATA + SOA (no DS exists)
            b = b.authority(
                self.zone.apex().clone(),
                self.negative_ttl,
                self.soa_rdata(),
            );
        }
        Answer {
            message: b.build(),
            rcode: Rcode::NoError,
            cache_ttl_secs: 3600,
        }
    }

    fn soa_rdata(&self) -> RData {
        let apex = self.zone.apex();
        RData::Soa {
            mname: self.ns_name(apex, 0),
            rname: apex.child(b"hostmaster").unwrap_or_else(|_| apex.clone()),
            serial: 2020041101,
            refresh: 3600,
            retry: 600,
            expire: 2_419_200,
            minimum: self.negative_ttl,
        }
    }

    /// Deterministic NS host names for a delegation.
    fn ns_name(&self, delegation: &Name, i: u8) -> Name {
        delegation
            .child(NS_LABELS[i as usize])
            .unwrap_or_else(|_| delegation.clone())
    }
}

/// A DS record with SHA-256-sized digest.
fn ds_rdata(delegation: &Name) -> RData {
    let h = hash_name(delegation);
    RData::Ds {
        key_tag: (h & 0xffff) as u16,
        algorithm: 8,
        digest_type: 2,
        digest: (0..32).map(|i| ((h >> (i % 8)) & 0xff) as u8).collect(),
    }
}

/// The companion SHA-384 DS record registrars commonly publish.
fn ds_rdata_sha384(delegation: &Name) -> RData {
    let h = hash_name(delegation).rotate_left(17);
    RData::Ds {
        key_tag: (h & 0xffff) as u16,
        algorithm: 8,
        digest_type: 4,
        digest: (0..48).map(|i| ((h >> (i % 8)) & 0xff) as u8).collect(),
    }
}

/// An RSA-1024-sized RRSIG (128-byte signature), the common case for
/// TLD zones in the studied window.
fn rrsig_for(covered: RType, signer: &Name) -> RData {
    RData::Rrsig {
        type_covered: covered,
        algorithm: 8,
        labels: signer.label_count() as u8,
        original_ttl: 3600,
        expiration: 1_600_000_000,
        inception: 1_598_000_000,
        key_tag: 20826,
        signer: signer.clone(),
        signature: vec![0x5a; 128],
    }
}

/// A KSK-sized RRSIG (256-byte signature) for DNSKEY answers.
fn rrsig_big(covered: RType, signer: &Name) -> RData {
    RData::Rrsig {
        type_covered: covered,
        algorithm: 8,
        labels: signer.label_count() as u8,
        original_ttl: 3600,
        expiration: 1_600_000_000,
        inception: 1_598_000_000,
        key_tag: 19036,
        signer: signer.clone(),
        signature: vec![0xa5; 256],
    }
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

    #[test]
    fn referral_for_registered_domain() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(7);
        let q = query(&d, RType::A, Some((1232, false)));
        let a = auth.respond(&q, true);
        assert_eq!(a.rcode, Rcode::NoError);
        assert!(
            a.message.answers.is_empty(),
            "referral has no answer section"
        );
        assert!(a.message.authorities.iter().all(|r| r.rtype() == RType::Ns));
        assert!(a.message.authorities.len() >= 2);
        assert_eq!(a.cache_ttl_secs, 3600);
    }

    #[test]
    fn signed_referral_with_do_carries_ds() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(7);
        let q = query(&d, RType::A, Some((1232, true)));
        let a = auth.respond(&q, true);
        let types: Vec<RType> = a.message.authorities.iter().map(|r| r.rtype()).collect();
        assert!(types.contains(&RType::Ds));
        assert!(types.contains(&RType::Rrsig));
        // and is substantially larger than the unsigned one
        let plain = auth.respond(&query(&d, RType::A, Some((1232, false))), true);
        let signed_len = a.message.encode().unwrap().len();
        let plain_len = plain.message.encode().unwrap().len();
        assert!(signed_len > plain_len + 150, "{signed_len} vs {plain_len}");
    }

    #[test]
    fn unsigned_delegation_with_do_gets_nsec_proof() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(7);
        let a = auth.respond(&query(&d, RType::A, Some((4096, true))), false);
        let types: Vec<RType> = a.message.authorities.iter().map(|r| r.rtype()).collect();
        assert!(types.contains(&RType::Nsec));
        assert!(!types.contains(&RType::Ds));
    }

    #[test]
    fn nxdomain_for_junk() {
        let auth = Authoritative::new(zone());
        let junk: Name = "zzz9qqq.nl.".parse().unwrap();
        let a = auth.respond(&query(&junk, RType::A, Some((512, false))), false);
        assert_eq!(a.rcode, Rcode::NxDomain);
        assert!(a.message.header.rcode == Rcode::NxDomain);
        assert_eq!(a.message.authorities.len(), 1, "just the SOA");
        assert_eq!(a.cache_ttl_secs, 900);
    }

    #[test]
    fn signed_nxdomain_is_large() {
        let auth = Authoritative::new(zone());
        let junk: Name = "zzz9qqq.nl.".parse().unwrap();
        let plain = auth.respond(&query(&junk, RType::A, Some((4096, false))), false);
        let signed = auth.respond(&query(&junk, RType::A, Some((4096, true))), false);
        let p = plain.message.encode().unwrap().len();
        let s = signed.message.encode().unwrap().len();
        assert!(s > p + 250, "{s} vs {p}");
        assert!(s > 512, "signed NXDOMAIN must not fit 512B");
    }

    #[test]
    fn dnskey_answer_exceeds_1232() {
        let auth = Authoritative::new(zone());
        let apex = auth.zone().apex().clone();
        let a = auth.respond(&query(&apex, RType::Dnskey, Some((4096, true))), true);
        let len = a.message.encode().unwrap().len();
        assert!(len > 1232, "DNSKEY+RRSIG = {len} must truncate at 1232");
        assert!(len < 4096);
    }

    #[test]
    fn ds_query_answered_from_parent() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(3);
        let a = auth.respond(&query(&d, RType::Ds, Some((1232, true))), true);
        assert_eq!(a.rcode, Rcode::NoError);
        assert_eq!(a.message.answers[0].rtype(), RType::Ds);
        // unsigned delegation: NODATA
        let a = auth.respond(&query(&d, RType::Ds, Some((1232, true))), false);
        assert!(a.message.answers.is_empty());
        assert_eq!(a.rcode, Rcode::NoError);
    }

    #[test]
    fn apex_soa_and_ns() {
        let auth = Authoritative::new(zone());
        let apex = auth.zone().apex().clone();
        let a = auth.respond(&query(&apex, RType::Soa, None), true);
        assert_eq!(a.message.answers[0].rtype(), RType::Soa);
        let a = auth.respond(&query(&apex, RType::Ns, None), true);
        assert_eq!(a.message.answers.len(), 3);
    }

    #[test]
    fn responses_roundtrip_on_the_wire() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(1);
        for (qt, signed) in [(RType::A, true), (RType::Ds, true), (RType::Mx, false)] {
            let a = auth.respond(&query(&d, qt, Some((1232, true))), signed);
            let bytes = a.message.encode().unwrap();
            let parsed = Message::parse(&bytes).unwrap();
            assert_eq!(parsed, a.message);
        }
    }

    #[test]
    fn truncation_happens_for_small_edns_on_signed_zone() {
        let auth = Authoritative::new(zone());
        let d = auth.zone().registered_domain(11);
        let q = query(&d, RType::A, Some((512, true)));
        let a = auth.respond(&q, true);
        let full = a.message.encode().unwrap().len();
        let (bytes, truncated) = a.message.encode_with_limit(512).unwrap();
        assert!(truncated, "signed referral must exceed 512 (got {full})");
        let parsed = Message::parse(&bytes).unwrap();
        assert!(parsed.header.truncated);
    }

    #[test]
    fn query_without_question_is_formerr() {
        let auth = Authoritative::new(zone());
        let mut q = MessageBuilder::query(1, Name::root(), RType::A).build();
        q.questions.clear();
        let a = auth.respond(&q, false);
        assert_eq!(a.rcode, Rcode::FormErr);
    }
}
