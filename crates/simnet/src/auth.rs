//! The authoritative-server model: given a query, produce the response
//! a TLD/root name server would send, with realistic record contents so
//! that *sizes* — and therefore EDNS-driven truncation and TCP fallback
//! (§4.4) — emerge mechanistically.
//!
//! Answers are laid out by shape, without the name compressor: each name
//! in one is its base — the apex or the question's cut — or a fixed label
//! under the base, so every compression pointer targets a suffix of the
//! question or the first earlier `label.base`, which may be in the
//! question itself (`ns2.example.nl`).

use crate::vantage::WireScratch;
use dns_wire::edns::Edns;
use dns_wire::header::{Header, HEADER_LEN};
use dns_wire::message::Question;
use dns_wire::name::{Name, MAX_NAME_LEN};
use dns_wire::reader::Reader;
use dns_wire::types::{RClass, RType, Rcode};
use dns_wire::writer::{MessageWriter, Section};
use std::net::Ipv6Addr;
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

/// The labels answers put under their base: the NS hosts, the SOA's
/// mailbox, and each signed-NXDOMAIN NSEC's owner, then its next name.
const LABELS: [&[u8]; 8] = [
    b"ns1",
    b"ns2",
    b"ns3",
    b"hostmaster",
    b"zzzy",
    b"zzzz",
    b"aaab",
    b"aaac",
];
/// Indices into [`LABELS`].
const HOSTMASTER: usize = 3;
const ZZZY: usize = 4;
const AAAB: usize = 6;

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
/// the one question it answers and echoes, and the OPT's size and DO
/// bit.
pub struct Query {
    /// The query's header.
    pub header: Header,
    /// The question answered; `None` when the query asks none or more
    /// than one, which gets a header-only FORMERR (RFC 9619).
    pub question: Option<Question>,
    /// The UDP payload size the OPT advertises; 0 without EDNS.
    pub edns_size: u16,
    /// The DO bit of the query's OPT; `None` without EDNS.
    pub dnssec_ok: Option<bool>,
}

impl Query {
    /// Read query bytes — a datagram, a TCP frame's message, a
    /// resolver's own buffer — into what the authoritative answers: the
    /// one step every answerer of a query on the wire takes, live
    /// (`authd`) and offline (the fleet's root, vantage and leaf
    /// tiers). `None` for bytes that are no DNS message (what
    /// `Reader::new` refuses) and for responses, which are never
    /// answered (no reflection loops). `authd`'s respond proptest holds
    /// it to `Message::parse` over hostile and mutated queries.
    pub fn read(bytes: &[u8]) -> Option<Query> {
        let reader = Reader::new(bytes).ok()?;
        let header = reader.header();
        if header.response {
            return None;
        }
        let mut questions = reader.questions();
        let question = questions.next().filter(|_| questions.next().is_none());
        let edns = reader.edns();
        Some(Query {
            header,
            question,
            edns_size: edns.as_ref().map_or(0, |e| e.udp_payload_size),
            dnssec_ok: edns.map(|e| e.dnssec_ok),
        })
    }

    /// Start the response to this query in `wire`, header only.
    pub(crate) fn open<'w>(&self, rcode: Rcode, wire: &'w mut WireScratch) -> MessageWriter<'w> {
        wire.response_writer(&Header::response_to(&self.header, rcode))
    }

    /// Close the response, mirroring the requestor's EDNS presence.
    pub(crate) fn close(&self, w: MessageWriter<'_>) {
        let edns = self.dnssec_ok.map(|d| Edns::with_size(4096, d));
        w.finish(edns.as_ref(), usize::MAX).expect("no size limit");
    }

    /// Answer with a header-only FORMERR: a query must ask exactly one
    /// question (RFC 9619).
    pub(crate) fn formerr(&self, wire: &mut WireScratch) -> Answer {
        self.close(self.open(Rcode::FormErr, wire));
        Answer {
            rcode: Rcode::FormErr,
            cache_ttl_secs: 0,
        }
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
    /// `wire`: its qname [located](ZoneModel::locate) in this zone once,
    /// whether the delegation is signed following from the registration
    /// it falls under. A query without exactly one question gets a
    /// header-only FORMERR.
    pub fn respond(&self, query: &Query, wire: &mut WireScratch) -> Answer {
        let Some(question) = &query.question else {
            return query.formerr(wire);
        };
        let Located { lookup, delegation } = self.zone.locate(&question.qname);
        let signed = delegation.is_some_and(|i| self.zone.is_signed(i));
        self.answer(query, question, lookup, signed, wire)
    }

    /// [`Authoritative::respond`] with the caller deciding whether the
    /// delegation the qname falls under has a DS RRset: the calibrated
    /// plane draws it with the question.
    pub fn respond_signed(
        &self,
        query: &Query,
        signed_delegation: bool,
        wire: &mut WireScratch,
    ) -> Answer {
        let Some(question) = &query.question else {
            return query.formerr(wire);
        };
        let lookup = self.zone.classify(&question.qname);
        self.answer(query, question, lookup, signed_delegation, wire)
    }

    /// The glueless referral of a cyclic-dependency incident: the
    /// question's cut delegated to `host` alone.
    pub fn respond_glueless(&self, query: &Query, host: &Name, wire: &mut WireScratch) {
        let Some(question) = &query.question else {
            query.formerr(wire);
            return;
        };
        let cut = self.zone.cut_of(&question.qname);
        let mut l = Layout::open(query, question, Rcode::NoError, cut, wire);
        let ttl = self.delegation_ttl;
        l.record(Section::Authority, Nm::Base, RType::Ns, ttl, |n, out| {
            put_against(out, n.qname, host.as_wire())
        });
        l.close(query);
    }

    fn answer(
        &self,
        query: &Query,
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
        // the parent owns DS: an answer at the cut, else NODATA
        let nodata_ds = question.qtype == RType::Ds && !signed_delegation;
        let base = match lookup {
            Lookup::Delegated if !nodata_ds => self.zone.cut_of(&question.qname),
            _ => self.zone.apex().as_wire(),
        };
        let mut l = Layout::open(query, question, rcode, base, wire);
        match lookup {
            Lookup::NxDomain => self.nxdomain(&mut l, dnssec_ok),
            Lookup::InZone => self.in_zone(&mut l, question.qtype, dnssec_ok),
            Lookup::Delegated if nodata_ds => {
                self.soa(&mut l, Section::Authority, self.negative_ttl)
            }
            Lookup::Delegated if question.qtype == RType::Ds => self.ds_answer(&mut l, dnssec_ok),
            Lookup::Delegated => self.referral(&mut l, signed_delegation, dnssec_ok),
        }
        l.close(query);
        Answer {
            rcode,
            cache_ttl_secs,
        }
    }

    /// NXDOMAIN: SOA in authority; NSEC + RRSIGs when DO is set. Signed
    /// negative answers are large — they push small-EDNS resolvers into
    /// truncation even on junk.
    fn nxdomain(&self, l: &mut Layout<'_>, dnssec_ok: bool) {
        let apex = self.zone.apex();
        let (authority, ttl) = (Section::Authority, self.negative_ttl);
        self.soa(l, authority, ttl);
        if dnssec_ok {
            // RFC 4035 §3.1.3.2: a secure NXDOMAIN proves both the
            // nonexistence of the name and of a covering wildcard —
            // two NSECs (zzzy → zzzz, aaab → aaac), each with its
            // RRSIG, plus the signed SOA.
            l.rrsig(authority, Nm::Base, ttl, RType::Soa, apex, SIG_ZSK);
            for i in [ZZZY, AAAB] {
                let (owner, next) = (Nm::Child(i), Nm::Child(i + 1));
                l.nsec(owner, ttl, next, &NSEC_APEX_TYPES);
                l.rrsig(authority, owner, ttl, RType::Nsec, apex, SIG_ZSK);
            }
        }
    }

    /// Apex / in-zone answers (SOA, NS, DNSKEY at the apex...).
    fn in_zone(&self, l: &mut Layout<'_>, qtype: RType, dnssec_ok: bool) {
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
                    l.record(answer, Nm::Base, RType::Dnskey, 3600, |_, out| {
                        out.extend_from_slice(&flags.to_be_bytes());
                        out.extend_from_slice(&[3, 8]);
                        out.resize(out.len() + keylen, fill);
                    });
                }
                if dnssec_ok {
                    for _ in 0..2 {
                        l.rrsig(answer, Nm::Base, 3600, RType::Dnskey, apex, SIG_KSK);
                    }
                }
            }
            RType::Soa => {
                self.soa(l, answer, 3600);
                if dnssec_ok {
                    l.rrsig(answer, Nm::Base, 3600, RType::Soa, apex, SIG_ZSK);
                }
            }
            RType::Ns => {
                for host in 0..3 {
                    l.ns(answer, Nm::Base, 3600, Nm::Child(host));
                }
                if dnssec_ok {
                    l.rrsig(answer, Nm::Base, 3600, RType::Ns, apex, SIG_ZSK);
                }
            }
            // NODATA: NOERROR with SOA in authority
            _ => self.soa(l, Section::Authority, self.negative_ttl),
        }
    }

    /// A referral: the NS set of the covering delegation in authority,
    /// glue in additional, and — for signed delegations under DO — the
    /// DS record plus its RRSIG. This is the answer shape whose size
    /// interacts with Figure 6's EDNS distributions.
    fn referral(&self, l: &mut Layout<'_>, signed: bool, dnssec_ok: bool) {
        let apex = self.zone.apex();
        let (authority, ttl) = (Section::Authority, self.delegation_ttl);
        let h = hash_wire(l.names.base);
        let hosts = 2 + (h % 2) as usize; // 2-3 NS records
        for host in 0..hosts {
            l.ns(authority, Nm::Base, ttl, Nm::Child(host));
        }
        if dnssec_ok && signed {
            // the common operational DS RRset: SHA-256 + SHA-384
            // digests plus a 2048-bit signature — what pushes the
            // signed referral past 512 octets
            l.ds(authority, ttl, h, DS_SHA256);
            l.ds(authority, ttl, h.rotate_left(17), DS_SHA384);
            l.rrsig(authority, Nm::Base, ttl, RType::Ds, apex, SIG_KSK);
        } else if dnssec_ok {
            // proof of unsigned delegation: NSEC + RRSIG
            let ttl = self.negative_ttl;
            l.nsec(Nm::Base, ttl, Nm::Base, &NSEC_UNSIGNED_TYPES);
            l.rrsig(authority, Nm::Base, ttl, RType::Nsec, apex, SIG_ZSK);
        }
        // in-bailiwick NS hosts get A glue; the first is dual-stack
        for host in 0..hosts {
            let glue = Nm::Child(host);
            l.record(Section::Additional, glue, RType::A, ttl, |_, out| {
                out.extend_from_slice(&[192, 0, 2, 10 + host as u8])
            });
            if host == 0 {
                l.record(Section::Additional, glue, RType::Aaaa, ttl, |_, out| {
                    out.extend_from_slice(&GLUE_V6.octets())
                });
            }
        }
    }

    /// An authoritative DS answer for a signed delegation.
    fn ds_answer(&self, l: &mut Layout<'_>, dnssec_ok: bool) {
        let apex = self.zone.apex();
        l.ds(Section::Answer, 3600, hash_wire(l.names.base), DS_SHA256);
        if dnssec_ok {
            l.rrsig(Section::Answer, Nm::Base, 3600, RType::Ds, apex, SIG_ZSK);
        }
    }

    /// The apex SOA; `l` lays out under the apex.
    fn soa(&self, l: &mut Layout<'_>, section: Section, ttl: u32) {
        let fields = [2020041101, 3600, 600, 2_419_200, self.negative_ttl];
        l.soa(section, ttl, fields);
    }
}

/// A DS digest type and its length: SHA-256.
const DS_SHA256: (u8, u8) = (2, 32);
/// The companion SHA-384 digest registrars commonly publish.
const DS_SHA384: (u8, u8) = (4, 48);

/// A name in an answer laid out by shape: the question's, the base, or
/// `LABELS[i]` under the base.
#[derive(Clone, Copy)]
pub(crate) enum Nm {
    Question,
    Base,
    Child(usize),
}

/// Where the names of one answer first occur: the offsets the name
/// compressor would find, known from the question's layout.
pub(crate) struct Names<'a> {
    /// The question's name as asked; it starts at offset 12.
    qname: &'a [u8],
    /// The apex, or the cut: a suffix of `qname`, spelled as asked.
    base: &'a [u8],
    /// Where the base and each `LABELS[i].base` first occur, once they do.
    base_at: Option<usize>,
    first: [Option<usize>; LABELS.len()],
}

impl<'a> Names<'a> {
    /// When `qname` ends in `base`, the base — and the label above it
    /// there, if one of [`LABELS`] — first occur in the question.
    fn new(qname: &'a [u8], base: &'a [u8]) -> Self {
        let mut first = [None; LABELS.len()];
        let found = find_suffix(qname, base);
        if let Some((at, Some(above))) = found {
            let label = &qname[above + 1..at];
            if let Some(i) = LABELS.iter().position(|l| l.eq_ignore_ascii_case(label)) {
                first[i] = Some(HEADER_LEN + above);
            }
        }
        let base_at = found.map(|(at, _)| HEADER_LEN + at);
        Names {
            qname,
            base,
            base_at,
            first,
        }
    }

    /// Write `name` as the compressor would: a pointer to where it first
    /// occurs, or else its label and the base. Nothing points at the root.
    fn put(&mut self, out: &mut Vec<u8>, name: Nm) {
        let i = match name {
            Nm::Question if self.qname != [0] => return pointer(out, HEADER_LEN),
            Nm::Question => return out.push(0),
            // a child past 255 octets is the base itself
            Nm::Child(i) if self.base.len() + 1 + LABELS[i].len() <= MAX_NAME_LEN => i,
            _ => return self.put_base(out),
        };
        if let Some(at) = self.first[i] {
            return pointer(out, at);
        }
        self.first[i] = Some(out.len());
        out.push(LABELS[i].len() as u8);
        out.extend_from_slice(LABELS[i]);
        self.put_base(out);
    }

    fn put_base(&mut self, out: &mut Vec<u8>) {
        match self.base_at {
            _ if self.base == [0] => out.push(0),
            Some(at) => pointer(out, at),
            None => {
                self.base_at = Some(out.len());
                put_against(out, self.qname, self.base);
            }
        }
    }
}

/// One answer being laid out: the response's writer and its names.
pub(crate) struct Layout<'a> {
    w: MessageWriter<'a>,
    names: Names<'a>,
}

impl<'a> Layout<'a> {
    /// Start the answer to `query`'s one `question` in `wire`, its names
    /// under `base`, with the question written as asked.
    pub(crate) fn open(
        query: &Query,
        question: &'a Question,
        rcode: Rcode,
        base: &'a [u8],
        wire: &'a mut WireScratch,
    ) -> Self {
        let mut w = query.open(rcode, wire);
        w.literal_question(question);
        let names = Names::new(question.qname.as_wire(), base);
        Layout { w, names }
    }

    /// Close the answer, mirroring the requestor's EDNS presence.
    pub(crate) fn close(self, query: &Query) {
        query.close(self.w);
    }

    /// One class-IN record in `section`: its owner, type and TTL, and
    /// the RDATA `rdata` writes, framed by its RDLENGTH.
    pub(crate) fn record(
        &mut self,
        section: Section,
        owner: Nm,
        rtype: RType,
        ttl: u32,
        rdata: impl FnOnce(&mut Names<'a>, &mut Vec<u8>),
    ) {
        let names = &mut self.names;
        self.w.literal_records(section, |out| {
            names.put(out, owner);
            out.extend_from_slice(&rtype.to_u16().to_be_bytes());
            out.extend_from_slice(&RClass::In.to_u16().to_be_bytes());
            out.extend_from_slice(&ttl.to_be_bytes());
            let rdlen_at = out.len();
            out.extend_from_slice(&[0, 0]);
            rdata(names, out);
            let rdlen = (out.len() - rdlen_at - 2) as u16;
            out[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
            1
        });
    }

    pub(crate) fn ns(&mut self, section: Section, owner: Nm, ttl: u32, host: Nm) {
        self.record(section, owner, RType::Ns, ttl, |n, out| n.put(out, host));
    }

    /// A SOA at the base: `LABELS[0]` and the hostmaster under it, and
    /// serial, refresh, retry, expire and minimum.
    pub(crate) fn soa(&mut self, section: Section, ttl: u32, fields: [u32; 5]) {
        self.record(section, Nm::Base, RType::Soa, ttl, |n, out| {
            n.put(out, Nm::Child(0));
            n.put(out, Nm::Child(HOSTMASTER));
            for v in fields {
                out.extend_from_slice(&v.to_be_bytes());
            }
        });
    }

    fn rrsig(
        &mut self,
        section: Section,
        owner: Nm,
        ttl: u32,
        covered: RType,
        signer: &Name,
        (key_tag, len, fill): Signature,
    ) {
        self.record(section, owner, RType::Rrsig, ttl, |_, out| {
            out.extend_from_slice(&covered.to_u16().to_be_bytes());
            out.extend_from_slice(&[8, signer.label_count() as u8]);
            for v in [3600u32, 1_600_000_000, 1_598_000_000] {
                out.extend_from_slice(&v.to_be_bytes());
            }
            out.extend_from_slice(&key_tag.to_be_bytes());
            // RFC 4034 §3.1.7: signer name MUST NOT be compressed.
            out.extend_from_slice(signer.as_wire());
            out.resize(out.len() + len, fill);
        });
    }

    /// An NSEC whose next name is the base or, under the apex, a child.
    fn nsec(&mut self, owner: Nm, ttl: u32, next: Nm, types: &[u8]) {
        self.record(Section::Authority, owner, RType::Nsec, ttl, |n, out| {
            // RFC 4034 §4.1.1: next name MUST NOT be compressed.
            if let Nm::Child(i) = next {
                out.push(LABELS[i].len() as u8);
                out.extend_from_slice(LABELS[i]);
            }
            out.extend_from_slice(n.base);
            out.extend_from_slice(types);
        });
    }

    /// A DS record at the base whose digest is spun out of the
    /// delegation's hash.
    fn ds(&mut self, section: Section, ttl: u32, h: u64, (digest_type, len): (u8, u8)) {
        self.record(section, Nm::Base, RType::Ds, ttl, |_, out| {
            out.extend_from_slice(&(h as u16).to_be_bytes());
            out.extend_from_slice(&[8, digest_type]);
            out.extend((0..len).map(|i| (h >> (i % 8)) as u8));
        });
    }
}

/// Write `name` as the compressor does where only the question `qname`
/// precedes it: its labels up to the longest suffix the two share, then
/// a pointer there.
fn put_against(out: &mut Vec<u8>, qname: &[u8], name: &[u8]) {
    let mut at = 0;
    while name[at] != 0 {
        if let Some((suffix, _)) = find_suffix(qname, &name[at..]) {
            return pointer(out, HEADER_LEN + suffix);
        }
        let end = at + 1 + name[at] as usize;
        out.extend_from_slice(&name[at..end]);
        at = end;
    }
    out.push(0);
}

/// Where `suffix` starts in `qname` when it is a whole-label suffix of
/// it, ASCII case folded as the compressor matches, and where the label
/// above it starts.
fn find_suffix(qname: &[u8], suffix: &[u8]) -> Option<(usize, Option<usize>)> {
    let tail = qname.len().checked_sub(suffix.len())?;
    let (mut at, mut above) = (0, None);
    while at < tail {
        above = Some(at);
        at += 1 + qname[at] as usize;
    }
    (at == tail && qname[at..].eq_ignore_ascii_case(suffix)).then_some((at, above))
}

/// A compression pointer to offset `at`.
fn pointer(out: &mut Vec<u8>, at: usize) {
    debug_assert!(at <= 0x3fff, "pointer past 16 KiB");
    out.extend_from_slice(&(0xc000 | at as u16).to_be_bytes());
}

fn hash_wire(wire: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in wire {
        h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::builder::MessageBuilder;
    use dns_wire::message::Message;
    use proptest::prelude::*;

    fn zone() -> ZoneModel {
        ZoneModel::nl(1000)
    }

    /// `label.parent`, or `parent` itself where that would be too long.
    fn child(parent: &Name, label: &[u8]) -> Name {
        parent.child(label).unwrap_or_else(|_| parent.clone())
    }

    fn query(qname: &Name, qtype: RType, edns: Option<(u16, bool)>) -> Message {
        let mut b = MessageBuilder::query(99, qname.clone(), qtype);
        if let Some((size, do_bit)) = edns {
            b = b.with_edns(size, do_bit);
        }
        b.build()
    }

    /// `q` as the authoritative reads it off the wire.
    fn asked(q: &Message) -> Query {
        Query::read(&q.encode().unwrap()).expect("a query")
    }

    /// Answer `q` and parse what was written.
    fn respond(auth: &Authoritative, q: &Message, signed: bool) -> (Answer, Message, Vec<u8>) {
        let mut wire = WireScratch::default();
        let a = auth.respond_signed(&asked(q), signed, &mut wire);
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
        auth.respond_signed(&asked(&q), true, &mut wire);
        let full = wire.response().bytes.len();
        let mut bytes = Vec::new();
        let (truncated, _) = crate::vantage::shape_onto::<crate::rrl::RateLimiter>(
            wire.response(),
            512,
            "192.0.2.1".parse().unwrap(),
            netbase::time::SimTime(0),
            None,
            &mut bytes,
        )
        .expect("no limiter, no drop");
        assert!(truncated, "signed referral must exceed 512 (got {full})");
        assert!(bytes.len() <= 512);
        let parsed = Message::parse(&bytes).unwrap();
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
            let a = auth.respond_signed(&asked(&q), signed, &mut wire);
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
            let mut bytes = Vec::new();
            let (truncated, _) = crate::vantage::shape_onto::<crate::rrl::RateLimiter>(
                wire.response(),
                edns.unwrap_or(0),
                "192.0.2.1".parse().unwrap(),
                netbase::time::SimTime(0),
                None,
                &mut bytes,
            )
            .expect("no limiter, no drop");
            prop_assert!(bytes.len() <= limit);
            prop_assert_eq!(truncated, full.len() > limit);
            prop_assert_eq!(
                (bytes, truncated),
                message.encode_with_limit(limit).unwrap()
            );
        }
    }

    /// A name of labels drawn from `pool`, `picks` in order under the
    /// root, skipping any that would pass 255 octets.
    fn grown(picks: &[(usize, usize)], top: &Name) -> Name {
        let pool: [&[u8]; 9] = [
            b"ns1",
            b"NS2",
            b"ns3",
            b"hostmaster",
            b"zzzy",
            b"aaab",
            b"nz",
            b"co",
            b"Nl",
        ];
        let long = [b'x'; 63];
        picks.iter().fold(top.clone(), |name, &(pick, len)| {
            let label = pool.get(pick).copied().unwrap_or(&long[..1 + len % 63]);
            name.child(label).unwrap_or(name)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// [`Names`] writes what the compressor would: after a question
        /// grown toward 255 octets, any sequence of the base and its
        /// fixed children — under a suffix of the question (where a
        /// child past 255 octets falls back to the base) or under a
        /// name the question may share only a tail with — is written in
        /// the compressor's bytes.
        #[test]
        fn layout_names_are_the_compressors(
            picks in prop::collection::vec((0usize..12, any::<usize>()), 0..12),
            flips in any::<u64>(),
            base in 0usize..14,
            written in prop::collection::vec(prop::option::of(0usize..LABELS.len()), 1..12),
        ) {
            let qname = recase(&grown(&picks, &Name::root()), flips);
            let other: [&str; 4] = ["nz.", "co.nz.", "example.com.", "."];
            let base = match base.checked_sub(other.len()) {
                Some(depth) => qname.ancestor(depth),
                None => other[base].parse().unwrap(),
            };
            let mut comp = dns_wire::name::ReusableCompressor::new();
            let mut expected = vec![0; HEADER_LEN];
            comp.encode_name(&qname, &mut expected);
            let mut out = expected.clone();
            let mut names = Names::new(qname.as_wire(), base.as_wire());
            for name in written {
                match name {
                    Some(i) => {
                        comp.encode_name(&child(&base, LABELS[i]), &mut expected);
                        names.put(&mut out, Nm::Child(i));
                    }
                    None => {
                        comp.encode_name(&base, &mut expected);
                        names.put(&mut out, Nm::Base);
                    }
                }
                prop_assert_eq!(&out, &expected);
            }
        }

        /// Every answer laid out by shape is, byte for byte, the message
        /// the compressor writes: `Message::parse(..).encode()` is the
        /// oracle. The qnames cover `.nl`, `.nz` (structural `co.nz`
        /// names too) and the root; a fixed label (`ns1`, `NS2`, `ns3`,
        /// `hostmaster`, `zzzy`, `aaab`) just above the cut or the
        /// apex; names grown toward 255 octets; out-of-zone names; 0x20
        /// case mixes; and the incident's glueless referral.
        #[test]
        fn answers_laid_out_by_shape_are_the_compressors_bytes(
            zone in 0usize..3,
            idx in any::<u64>(),
            under in 0usize..3,
            above in prop::option::of(0usize..9),
            picks in prop::collection::vec((0usize..12, any::<usize>()), 0..10),
            out_of_zone in 0u8..7,
            flips in any::<u64>(),
            qtype in 0usize..7,
            edns in 0usize..3,
            do_bit in any::<bool>(),
            signed in any::<bool>(),
            glueless in prop::option::of(0usize..3),
        ) {
            use RType::*;
            let mut zone_models = vec![ZoneModel::nl(1000), ZoneModel::nz(300, 300), ZoneModel::root(40)];
            let auth = Authoritative::new(zone_models.swap_remove(zone));
            let apex = auth.zone().apex().clone();
            let domain = auth.zone().registered_domain(idx % auth.zone().domain_count());
            let base = [apex.clone(), domain.clone(), child(&apex, b"co")][under].clone();
            let labels: [&[u8]; 9] =
                [b"ns1", b"NS2", b"ns3", b"hostmaster", b"zzzy", b"aaab", b"Ns1", b"www", b"co"];
            let top = match above {
                Some(i) => child(&base, labels[i]),
                None => base,
            };
            // out of zone: the same labels under another top-level name
            let top = match out_of_zone {
                0 => Name::from_labels(top.labels().chain([&b"example"[..]])).unwrap_or(top),
                _ => top,
            };
            let qname = recase(&grown(&picks, &top), flips);
            let qtype = [A, Aaaa, Ns, Ds, Dnskey, Soa, Mx][qtype];
            let edns = [None, Some(512u16), Some(4096)][edns];
            let q = query(&qname, qtype, edns.map(|size| (size, do_bit)));
            let mut wire = WireScratch::default();
            match glueless {
                Some(host) => {
                    let other = auth.zone().registered_domain((idx / 3) % auth.zone().domain_count());
                    let host = child(&[other, domain, apex][host], b"ns");
                    auth.respond_glueless(&asked(&q), &host, &mut wire);
                }
                None => {
                    auth.respond_signed(&asked(&q), signed, &mut wire);
                }
            }
            let full = wire.response().bytes;
            let message = Message::parse(full).expect("written answers parse");
            prop_assert_eq!(&message.encode().unwrap(), full);
            prop_assert_eq!(&message.questions, &q.questions);
        }
    }
}
