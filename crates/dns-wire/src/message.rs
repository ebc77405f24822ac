//! Full DNS messages: questions, records, parse and encode.

use crate::edns::Edns;
use crate::error::WireError;
use crate::header::Header;
use crate::name::{Name, ReusableCompressor};
use crate::rdata::RData;
use crate::reader::{Entry, Reader};
use crate::types::{RClass, RType};
use crate::writer::{Marks, MessageWriter, Section};

/// A question-section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RType,
    /// Queried class (almost always IN).
    pub qclass: RClass,
}

impl Question {
    /// A class-IN question.
    pub fn new(qname: Name, qtype: RType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RClass::In,
        }
    }
}

/// A resource record in the answer, authority or additional section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Class (IN except for OPT, which abuses the field).
    pub class: RClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl Record {
    /// A class-IN record.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: RClass::In,
            ttl,
            rdata,
        }
    }

    /// The record type.
    pub fn rtype(&self) -> RType {
        self.rdata.rtype()
    }
}

/// A complete DNS message.
///
/// The OPT pseudo-record, if present, is lifted out of the additional
/// section into [`Message::edns`], and its extended-rcode bits are merged
/// into [`Header::rcode`] — matching how measurement pipelines reason
/// about messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header (with merged extended rcode).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section, *excluding* the OPT record.
    pub additionals: Vec<Record>,
    /// EDNS(0) data, if an OPT record was present.
    pub edns: Option<Edns>,
}

impl Message {
    /// An empty message with the given header.
    pub fn new(header: Header) -> Self {
        Message {
            header,
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }

    /// Parse a message from wire bytes. The checks are
    /// [`Reader::new`]'s, in the same one walk that copies each entry out.
    pub fn parse(msg: &[u8]) -> Result<Message, WireError> {
        let mut parsed = Message::new(Header::request(0));
        let build = |msg, pos| {
            Name::parse(msg, pos).map(|(name, end)| {
                let len = name.wire_len();
                (name, end, len)
            })
        };
        let reader = Reader::walk(msg, build, |entry| match entry {
            Entry::Question(qname, qtype, qclass) => parsed.questions.push(Question {
                qname,
                qtype: RType::from_u16(qtype),
                qclass: RClass::from_u16(qclass),
            }),
            Entry::Record(section, name, class, ttl, rdata) => {
                let records = match section {
                    Section::Answer => &mut parsed.answers,
                    Section::Authority => &mut parsed.authorities,
                    Section::Additional => &mut parsed.additionals,
                };
                records.push(Record {
                    name,
                    class: RClass::from_u16(class),
                    ttl,
                    rdata: rdata.into_rdata(),
                });
            }
        })?;
        parsed.header = reader.header();
        parsed.edns = reader.edns();
        Ok(parsed)
    }

    /// Encode to wire bytes with name compression. No size limit — for
    /// TCP, or as the first step of [`Message::encode_with_limit`].
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(512);
        self.encode_into(&mut ReusableCompressor::new(), &mut out)?;
        Ok(out)
    }

    /// Encode for UDP under a payload-size limit.
    ///
    /// If the full message does not fit, records are dropped (additional
    /// first, then authority, then answer — all-or-nothing per section is
    /// NOT used; we drop from the tail, matching common server behaviour)
    /// and the TC bit is set, telling the client to retry over TCP. This
    /// is the mechanism behind the paper's truncation-rate comparison
    /// (Facebook 17.16% vs Google 0.04%, §4.4).
    pub fn encode_with_limit(&self, limit: usize) -> Result<(Vec<u8>, bool), WireError> {
        let mut out = Vec::with_capacity(512);
        let truncated =
            self.encode_with_limit_into(limit, &mut ReusableCompressor::new(), &mut out)?;
        Ok((out, truncated))
    }

    /// [`Message::encode_with_limit`] into caller-owned buffers, as
    /// [`Message::encode_into`] is to [`Message::encode`]. Returns
    /// whether records were dropped (and TC set). One pass: the writer
    /// cuts at a record boundary instead of encoding again.
    pub fn encode_with_limit_into(
        &self,
        limit: usize,
        comp: &mut ReusableCompressor,
        out: &mut Vec<u8>,
    ) -> Result<bool, WireError> {
        let mut marks = Marks::default();
        let mut w = MessageWriter::new(&self.header, comp, out, &mut marks);
        for q in &self.questions {
            w.question(q);
        }
        for (section, records) in [
            (Section::Answer, &self.answers),
            (Section::Authority, &self.authorities),
            (Section::Additional, &self.additionals),
        ] {
            for r in records {
                w.record(section, &r.name, r.rtype(), r.class, r.ttl, |comp, out| {
                    r.rdata.encode(comp, out)
                })?;
            }
        }
        w.finish(self.edns.as_ref(), limit)
    }

    /// Encode into caller-owned buffers, reusing their capacity: `out`
    /// is cleared and `comp` reset first, so a hot loop that keeps both
    /// across messages performs zero heap allocations in steady state.
    /// Produces bytes identical to [`Message::encode`].
    pub fn encode_into(
        &self,
        comp: &mut ReusableCompressor,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        self.encode_with_limit_into(usize::MAX, comp, out)
            .map(|_| ())
    }

    /// The first question, if any — the common case for queries.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, HEADER_LEN};
    use crate::types::Rcode;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let mut msg = Message::new(Header::response_to(
            &Header::request(0xabcd),
            Rcode::NoError,
        ));
        msg.questions
            .push(Question::new(n("example.nl"), RType::Ns));
        msg.answers.push(Record::new(
            n("example.nl"),
            3600,
            RData::Ns(n("ns1.example.nl")),
        ));
        msg.answers.push(Record::new(
            n("example.nl"),
            3600,
            RData::Ns(n("ns2.example.nl")),
        ));
        msg.additionals.push(Record::new(
            n("ns1.example.nl"),
            3600,
            RData::A("192.0.2.53".parse().unwrap()),
        ));
        msg.additionals.push(Record::new(
            n("ns1.example.nl"),
            3600,
            RData::Aaaa("2001:db8::53".parse().unwrap()),
        ));
        msg.edns = Some(Edns::with_size(1232, true));
        msg
    }

    #[test]
    fn roundtrip_full_response() {
        let msg = sample_response();
        let bytes = msg.encode().unwrap();
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn roundtrip_bare_query() {
        let mut msg = Message::new(Header::request(1));
        msg.questions.push(Question::new(n("nz"), RType::Soa));
        let bytes = msg.encode().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 1 + 2 + 1 + 4);
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn compression_shrinks_messages() {
        let msg = sample_response();
        let compressed = msg.encode().unwrap();
        // Rough check: the owner name "example.nl" appears many times; the
        // compressed form must be far below the naive sum.
        let naive: usize = 12
            + msg.questions.iter().map(|q| q.qname.wire_len() + 4).sum::<usize>()
            + 2 * (12 + 16) // two NS records, uncompressed estimate
            + 2 * (16 + 14)
            + 11;
        assert!(compressed.len() < naive, "{} !< {naive}", compressed.len());
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffers() {
        let msg = sample_response();
        let fresh = msg.encode().unwrap();
        let mut comp = ReusableCompressor::new();
        let mut out = Vec::new();
        msg.encode_into(&mut comp, &mut out).unwrap();
        assert_eq!(out, fresh, "byte-identical to the allocating path");
        // reuse across different messages: stale state must not leak
        let mut other = Message::new(Header::request(7));
        other.questions.push(Question::new(n("x.nz"), RType::A));
        msg.encode_into(&mut comp, &mut out).unwrap();
        other.encode_into(&mut comp, &mut out).unwrap();
        assert_eq!(out, other.encode().unwrap());
        msg.encode_into(&mut comp, &mut out).unwrap();
        assert_eq!(out, fresh);
        // and the extended rcode merge behaves like encode()
        let mut ext = sample_response();
        ext.header.rcode = Rcode::BadVers;
        ext.encode_into(&mut comp, &mut out).unwrap();
        assert_eq!(out, ext.encode().unwrap());
        assert_eq!(Message::parse(&out).unwrap().header.rcode, Rcode::BadVers);
    }

    #[test]
    fn truncation_drops_and_sets_tc() {
        let msg = sample_response();
        let full = msg.encode().unwrap();
        let (bytes, truncated) = msg.encode_with_limit(full.len() - 1).unwrap();
        assert!(truncated);
        assert!(bytes.len() < full.len());
        let parsed = Message::parse(&bytes).unwrap();
        assert!(parsed.header.truncated);
        assert_eq!(parsed.questions, msg.questions, "question always kept");
    }

    #[test]
    fn no_truncation_when_it_fits() {
        let msg = sample_response();
        let full = msg.encode().unwrap();
        let (bytes, truncated) = msg.encode_with_limit(4096).unwrap();
        assert!(!truncated);
        assert_eq!(bytes, full);
    }

    #[test]
    fn truncation_to_empty_when_limit_tiny() {
        let msg = sample_response();
        // Enough for header+question+OPT only.
        let mut empty = msg.clone();
        empty.answers.clear();
        empty.authorities.clear();
        empty.additionals.clear();
        let floor = empty.encode().unwrap().len();
        let (bytes, truncated) = msg.encode_with_limit(floor).unwrap();
        assert!(truncated);
        let parsed = Message::parse(&bytes).unwrap();
        assert!(parsed.answers.is_empty());
        assert!(parsed.header.truncated);
    }

    #[test]
    fn wont_fit_when_question_alone_overflows() {
        let msg = sample_response();
        assert!(matches!(
            msg.encode_with_limit(10),
            Err(WireError::WontFit { .. })
        ));
    }

    #[test]
    fn opt_outside_additional_is_malformed() {
        let msg = sample_response();
        let bytes = msg.encode().unwrap();
        let parsed = Message::parse(&bytes).unwrap();
        assert!(parsed.edns.is_some());
        // craft: change answer count to claim OPT in answer section —
        // simpler: build a message whose answer section contains an OPT.
        let mut raw = Vec::new();
        Header::request(5).encode([0, 1, 0, 0], &mut raw);
        Edns::with_size(512, false).encode(&mut raw);
        assert_eq!(Message::parse(&raw), Err(WireError::MalformedEdns));
    }

    #[test]
    fn double_opt_is_malformed() {
        let mut raw = Vec::new();
        Header::request(5).encode([0, 0, 0, 2], &mut raw);
        Edns::with_size(512, false).encode(&mut raw);
        Edns::with_size(512, false).encode(&mut raw);
        assert_eq!(Message::parse(&raw), Err(WireError::MalformedEdns));
    }

    #[test]
    fn extended_rcode_merges() {
        // Header rcode low bits 0 + OPT extended bits 1 => rcode 16 (BADVERS)
        let mut raw = Vec::new();
        let mut h = Header::request(5);
        h.response = true;
        h.encode([0, 0, 0, 1], &mut raw);
        let e = Edns {
            extended_rcode_bits: 1,
            ..Edns::with_size(512, false)
        };
        e.encode(&mut raw);
        let parsed = Message::parse(&raw).unwrap();
        assert_eq!(parsed.header.rcode, Rcode::BadVers);
    }

    #[test]
    fn extended_rcode_reencodes() {
        let mut msg = Message::new(Header::request(9));
        msg.header.response = true;
        msg.header.rcode = Rcode::BadVers;
        msg.edns = Some(Edns::with_size(1232, false));
        let bytes = msg.encode().unwrap();
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed.header.rcode, Rcode::BadVers);
    }

    #[test]
    fn count_mismatch_detected() {
        let mut raw = Vec::new();
        Header::request(5).encode([2, 0, 0, 0], &mut raw); // claims 2 questions
        n("example.nl").encode_uncompressed(&mut raw);
        raw.extend_from_slice(&[0, 1, 0, 1]); // A, IN
        assert_eq!(
            Message::parse(&raw),
            Err(WireError::CountMismatch {
                section: "question"
            })
        );
    }

    #[test]
    fn garbage_never_panics() {
        // quick deterministic fuzz: parse every prefix of a valid message
        let bytes = sample_response().encode().unwrap();
        for end in 0..bytes.len() {
            let _ = Message::parse(&bytes[..end]);
        }
        // and a few byte-flips
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xff;
            let _ = Message::parse(&b);
        }
    }
}
