//! Messages read in place.
//!
//! [`Reader::new`] checks a whole message once, by every rule
//! [`Message::parse`](crate::message::Message::parse) applies and to the
//! same errors, and the reader then hands out the header, the questions
//! and each record straight from the bytes: owner, type, class, TTL and
//! RDATA range, with accessors for the RDATA a resolver walks by
//! (addresses, NS and CNAME targets, DS digests, DNSKEY keys). Nothing
//! is copied until asked for, so reading a reply allocates nothing.
//! `Message::parse` is this reader plus the copies: there is one section
//! walker.

use crate::edns::Edns;
use crate::error::WireError;
use crate::header::{Header, HEADER_LEN};
use crate::message::Question;
use crate::name::{suffix_matches, Name};
use crate::rdata::RDataRef;
use crate::types::{RClass, RType, Rcode};
use crate::writer::Section;
use std::net::IpAddr;
use std::ops::Range;

/// A checked message, read in place.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    msg: &'a [u8],
    /// The header, its rcode merged with the OPT's extended bits.
    header: Header,
    /// Question, answer, authority and additional counts.
    counts: [u16; 4],
    /// Where the question section and each record section start.
    starts: [usize; 4],
    /// The OPT record's class and TTL fields and its RDATA.
    opt: Option<(u16, u32, &'a [u8])>,
}

/// What [`Reader::walk`] hands its visitor, in wire order, as each
/// entry passes its checks. `N` is what the walk's name reader made of
/// the question's or the owner's name.
pub(crate) enum Entry<'a, N> {
    /// A question: its name and its type and class fields.
    Question(N, u16, u16),
    /// A record of `Section` (the OPT is none): owner, class field,
    /// TTL and RDATA.
    Record(Section, N, u16, u32, RDataRef<'a, N>),
}

impl<'a> Reader<'a> {
    /// Check `msg` as a whole: header, every question, every record's
    /// owner, fields and RDATA, and the OPT's placement and options.
    /// Accepts exactly what `Message::parse` accepts, failing with the
    /// error it fails with. Names are checked, not built.
    pub fn new(msg: &'a [u8]) -> Result<Reader<'a>, WireError> {
        let skip = |msg, pos| Name::skip(msg, pos).map(|(end, len)| ((), end, len));
        Reader::walk(msg, skip, |_| {})
    }

    /// The one walk over a message's sections: [`Reader::new`]'s
    /// checks in wire order, each entry handed to `visit` once it has
    /// passed. Every name — questions', owners', those inside RDATA —
    /// goes through `read_name`, which returns its result, the position
    /// past the name and the name's uncompressed length: a caller that
    /// copies the message out (`Message::parse_into`) builds each name
    /// where the checks would only skip it, in the same single pass.
    pub(crate) fn walk<N>(
        msg: &'a [u8],
        read_name: impl Fn(&'a [u8], usize) -> Result<(N, usize, usize), WireError>,
        mut visit: impl FnMut(Entry<'a, N>),
    ) -> Result<Reader<'a>, WireError> {
        let field = |at: usize| u16::from_be_bytes([msg[at], msg[at + 1]]);
        let (mut header, counts) = Header::parse(msg)?;
        let mut starts = [HEADER_LEN; 4];
        let mut pos = HEADER_LEN;
        for _ in 0..counts[0] {
            let question = |pos| {
                let (name, p, _) = read_name(msg, pos)?;
                if p + 4 > msg.len() {
                    return Err(WireError::Truncated { offset: msg.len() });
                }
                Ok((name, p))
            };
            let (name, p) = question(pos).map_err(|e| section_err(e, "question"))?;
            visit(Entry::Question(name, field(p), field(p + 2)));
            pos = p + 4;
        }
        let mut opt = None;
        for (si, &count) in counts[1..].iter().enumerate() {
            starts[si + 1] = pos;
            let section = [Section::Answer, Section::Authority, Section::Additional][si];
            let section_name = ["answer", "authority", "additional"][si];
            for _ in 0..count {
                let (owner, p, owner_len) =
                    read_name(msg, pos).map_err(|e| section_err(e, section_name))?;
                if p + 10 > msg.len() {
                    return Err(WireError::Truncated { offset: msg.len() });
                }
                let rtype = RType::from_u16(field(p));
                let class_field = field(p + 2);
                let ttl_field = (field(p + 4) as u32) << 16 | field(p + 6) as u32;
                let rdlen = field(p + 8) as usize;
                let rdata_start = p + 10;
                let rdata = msg
                    .get(rdata_start..rdata_start + rdlen)
                    .ok_or(WireError::Truncated { offset: msg.len() })?;
                if rtype == RType::Opt {
                    // one OPT, owned by the root, in the additional section
                    if section != Section::Additional || opt.is_some() || owner_len != 1 {
                        return Err(WireError::MalformedEdns);
                    }
                    Edns::check_options(rdata)?;
                    // extended rcode: high 8 bits from the OPT, low 4
                    // from the header (RFC 6891 §6.1.3)
                    let high = ttl_field >> 24;
                    if high != 0 {
                        let low = header.rcode.to_u16() & 0x0f;
                        header.rcode = Rcode::from_u16(((high as u16) << 4) | low);
                    }
                    opt = Some((class_field, ttl_field, rdata));
                } else {
                    let in_rdata = |msg, pos| read_name(msg, pos).map(|(n, end, _)| (n, end));
                    let read = RDataRef::parse(rtype, msg, rdata_start, rdlen, in_rdata)?;
                    visit(Entry::Record(section, owner, class_field, ttl_field, read));
                }
                pos = rdata_start + rdlen;
            }
        }
        Ok(Reader {
            msg,
            header,
            counts,
            starts,
            opt,
        })
    }

    /// The header, its rcode merged with the OPT's extended bits.
    pub fn header(&self) -> Header {
        self.header
    }

    /// The response code, extended bits included.
    pub fn rcode(&self) -> Rcode {
        self.header.rcode
    }

    /// The question section, in order.
    pub fn questions(&self) -> impl Iterator<Item = Question> + 'a {
        let msg = self.msg;
        let mut pos = self.starts[0];
        (0..self.counts[0]).map_while(move |_| {
            let (question, next) = question_at(msg, pos)?;
            pos = next;
            Some(question)
        })
    }

    /// The records of `section`, in order; the OPT is not one of them.
    pub fn records(&self, section: Section) -> Records<'a> {
        let si = section as usize + 1;
        Records {
            msg: self.msg,
            pos: self.starts[si],
            left: self.counts[si],
        }
    }

    /// How many records `section` holds, the OPT not counted.
    pub fn count(&self, section: Section) -> usize {
        let opt = section == Section::Additional && self.opt.is_some();
        usize::from(self.counts[section as usize + 1]) - usize::from(opt)
    }

    /// The OPT record, decoded, if there is one.
    pub fn edns(&self) -> Option<Edns> {
        self.opt.map(|(class, ttl, rdata)| {
            Edns::from_record_fields(class, ttl, rdata).expect("checked by Reader::new")
        })
    }
}

/// The checked question at `msg[pos]`, and the position past it.
fn question_at(msg: &[u8], pos: usize) -> Option<(Question, usize)> {
    let (qname, p) = Name::parse(msg, pos).ok()?;
    let fields = msg.get(p..p + 4)?;
    let question = Question {
        qname,
        qtype: RType::from_u16(u16::from_be_bytes([fields[0], fields[1]])),
        qclass: RClass::from_u16(u16::from_be_bytes([fields[2], fields[3]])),
    };
    Some((question, p + 4))
}

/// A truncation inside a section is a count the body does not hold.
fn section_err(e: WireError, section: &'static str) -> WireError {
    match e {
        WireError::Truncated { .. } => WireError::CountMismatch { section },
        other => other,
    }
}

/// The records of one section of a [`Reader`]'s message.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    msg: &'a [u8],
    pos: usize,
    left: u16,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        while self.left > 0 {
            self.left -= 1;
            let owner_at = self.pos;
            let (p, _) = Name::skip(self.msg, owner_at).ok()?;
            let fields = self.msg.get(p..p + 10)?;
            let rtype = RType::from_u16(u16::from_be_bytes([fields[0], fields[1]]));
            let rdlen = u16::from_be_bytes([fields[8], fields[9]]) as usize;
            let rdata = p + 10..p + 10 + rdlen;
            self.pos = rdata.end;
            if rtype == RType::Opt {
                continue;
            }
            return Some(RecordRef {
                msg: self.msg,
                owner_at,
                rtype,
                class: RClass::from_u16(u16::from_be_bytes([fields[2], fields[3]])),
                ttl: u32::from_be_bytes([fields[4], fields[5], fields[6], fields[7]]),
                rdata,
            });
        }
        None
    }
}

/// One record of a checked message, read in place.
#[derive(Debug, Clone)]
pub struct RecordRef<'a> {
    msg: &'a [u8],
    owner_at: usize,
    /// Record type.
    pub rtype: RType,
    /// Class.
    pub class: RClass,
    /// Time to live, seconds.
    pub ttl: u32,
    rdata: Range<usize>,
}

impl<'a> RecordRef<'a> {
    /// The owner name, decoded.
    pub fn owner(&self) -> Name {
        Name::parse(self.msg, self.owner_at)
            .expect("checked by Reader::new")
            .0
    }

    /// Whether the owner is `name` (ASCII case folded), compared where
    /// it sits without decoding it.
    pub fn owner_is(&self, name: &Name) -> bool {
        suffix_matches(self.msg, self.owner_at, name.as_wire())
    }

    /// The RDATA octets (names in them may point elsewhere in the
    /// message).
    pub fn rdata(&self) -> &'a [u8] {
        &self.msg[self.rdata.clone()]
    }

    /// The address of an A or AAAA record.
    pub fn addr(&self) -> Option<IpAddr> {
        match self.rtype {
            RType::A => <[u8; 4]>::try_from(self.rdata()).ok().map(IpAddr::from),
            RType::Aaaa => <[u8; 16]>::try_from(self.rdata()).ok().map(IpAddr::from),
            _ => None,
        }
    }

    /// The host an NS record names.
    pub fn ns(&self) -> Option<Name> {
        self.target_of(RType::Ns)
    }

    /// The target a CNAME record names.
    pub fn cname(&self) -> Option<Name> {
        self.target_of(RType::Cname)
    }

    /// The digest a DS record carries.
    pub fn ds_digest(&self) -> Option<&'a [u8]> {
        self.after_fixed_four(RType::Ds)
    }

    /// The public key a DNSKEY record carries.
    pub fn dnskey_key(&self) -> Option<&'a [u8]> {
        self.after_fixed_four(RType::Dnskey)
    }

    /// The name that is the whole RDATA of a record of type `rtype`.
    fn target_of(&self, rtype: RType) -> Option<Name> {
        if self.rtype != rtype {
            return None;
        }
        Name::parse(self.msg, self.rdata.start).ok().map(|(n, _)| n)
    }

    /// DS and DNSKEY: the octets after their four fixed ones.
    fn after_fixed_four(&self, rtype: RType) -> Option<&'a [u8]> {
        (self.rtype == rtype)
            .then(|| self.rdata().get(4..))
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MessageBuilder;
    use crate::rdata::RData;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn a_referral_reads_in_place() {
        let query = MessageBuilder::query(9, n("www.Example.nl"), RType::A)
            .with_edns(1232, true)
            .build();
        let reply = MessageBuilder::response(&query, Rcode::NoError)
            .authority(n("example.nl"), 3600, RData::Ns(n("ns1.example.nl")))
            .authority(n("example.nl"), 3600, RData::Ns(n("ns2.example.nl")))
            .additional(n("ns1.example.nl"), 60, RData::A([192, 0, 2, 10].into()))
            .additional(
                n("ns1.example.nl"),
                60,
                RData::Aaaa("2001:db8::10".parse().unwrap()),
            )
            .build();
        let bytes = reply.encode().unwrap();
        let r = Reader::new(&bytes).unwrap();
        assert_eq!(r.header(), reply.header);
        assert_eq!(r.questions().collect::<Vec<_>>(), query.questions);
        assert_eq!(r.count(Section::Answer), 0);
        assert_eq!(r.count(Section::Authority), 2);
        assert_eq!(r.count(Section::Additional), 2, "the OPT is not a record");
        let hosts: Vec<Name> = r
            .records(Section::Authority)
            .filter_map(|x| x.ns())
            .collect();
        assert_eq!(hosts, vec![n("ns1.example.nl"), n("ns2.example.nl")]);
        let cut = r.records(Section::Authority).next().unwrap();
        assert!(cut.owner_is(&n("EXAMPLE.NL")) && !cut.owner_is(&n("nl")));
        assert_eq!(
            cut.owner().to_string(),
            "Example.nl.",
            "compressed into the qname"
        );
        let glue: Vec<IpAddr> = r
            .records(Section::Additional)
            .filter_map(|x| x.addr())
            .collect();
        assert_eq!(glue.len(), 2);
        assert_eq!(r.edns(), reply.edns);
    }

    #[test]
    fn dnssec_accessors_read_the_payloads() {
        let query = MessageBuilder::query(1, n("d0.zz"), RType::Ds).build();
        let reply = MessageBuilder::response(&query, Rcode::NoError)
            .answer(
                n("d0.zz"),
                60,
                RData::Ds {
                    key_tag: 7,
                    algorithm: 8,
                    digest_type: 2,
                    digest: vec![1, 2, 3],
                },
            )
            .answer(
                n("d0.zz"),
                60,
                RData::Dnskey {
                    flags: 257,
                    protocol: 3,
                    algorithm: 8,
                    public_key: vec![9, 9],
                },
            )
            .answer(n("alias.zz"), 60, RData::Cname(n("d0.zz")))
            .build();
        let bytes = reply.encode().unwrap();
        let r = Reader::new(&bytes).unwrap();
        let answers: Vec<RecordRef> = r.records(Section::Answer).collect();
        assert_eq!(answers[0].ds_digest(), Some(&[1u8, 2, 3][..]));
        assert_eq!(answers[0].dnskey_key(), None);
        assert_eq!(answers[1].dnskey_key(), Some(&[9u8, 9][..]));
        assert_eq!(answers[2].cname(), Some(n("d0.zz")));
        assert_eq!(answers[2].ns(), None);
    }

    #[test]
    fn extended_rcode_and_misplaced_opt() {
        let mut raw = Vec::new();
        let mut h = Header::request(5);
        h.response = true;
        h.encode([0, 0, 0, 1], &mut raw);
        Edns {
            extended_rcode_bits: 1,
            ..Edns::with_size(512, false)
        }
        .encode(&mut raw);
        assert_eq!(Reader::new(&raw).unwrap().rcode(), Rcode::BadVers);
        let mut raw = Vec::new();
        Header::request(5).encode([0, 1, 0, 0], &mut raw);
        Edns::with_size(512, false).encode(&mut raw);
        assert_eq!(Reader::new(&raw).err(), Some(WireError::MalformedEdns));
    }
}
