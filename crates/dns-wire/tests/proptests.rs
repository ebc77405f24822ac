//! Property-based tests for the wire format: round-trips, parser
//! robustness against arbitrary and mutated input, and the in-place
//! reader against the parse.

use dns_wire::edns::Edns;
use dns_wire::header::Header;
use dns_wire::message::{Message, Question, Record};
use dns_wire::name::{Name, ReusableCompressor};
use dns_wire::rdata::RData;
use dns_wire::reader::Reader;
use dns_wire::types::{RType, Rcode};
use dns_wire::writer::Section;
use proptest::prelude::*;

/// Strategy for a random label: 1..=63 arbitrary octets.
fn label() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..=63)
}

/// Strategy for a random name: up to 5 labels, total length kept legal.
fn name() -> impl Strategy<Value = Name> {
    prop::collection::vec(label(), 0..=5).prop_filter_map("name too long", |labels| {
        Name::from_labels(labels.iter().map(|l| l.as_slice())).ok()
    })
}

/// Strategy for hostname-ish names (letters/digits/hyphen), closer to
/// real traffic.
fn hostname() -> impl Strategy<Value = Name> {
    prop::collection::vec("[a-z0-9-]{1,20}", 1..=4).prop_filter_map("too long", |labels| {
        Name::from_labels(labels.iter().map(|l| l.as_bytes())).ok()
    })
}

/// `name` with the case of its letters flipped where `flips` has a bit
/// set (bit i for the i-th octet, wrapping).
fn recase(name: &Name, flips: u64) -> Name {
    let labels: Vec<Vec<u8>> = name
        .labels()
        .enumerate()
        .map(|(i, l)| {
            l.iter()
                .enumerate()
                .map(|(j, b)| {
                    let flip = flips >> ((i * 7 + j) % 64) & 1 == 1;
                    if flip && b.is_ascii_alphabetic() {
                        b ^ 0x20
                    } else {
                        *b
                    }
                })
                .collect()
        })
        .collect();
    Name::from_labels(labels.iter().map(|l| l.as_slice())).unwrap()
}

/// Records in the three sections (the OPT is not one).
fn records(msg: &Message) -> usize {
    msg.answers.len() + msg.authorities.len() + msg.additionals.len()
}

fn rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(o.into())),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(o.into())),
        hostname().prop_map(RData::Ns),
        hostname().prop_map(RData::Cname),
        hostname().prop_map(RData::Ptr),
        (any::<u16>(), hostname()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=255), 1..=3)
            .prop_map(RData::Txt),
        (
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..=48)
        )
            .prop_map(|(key_tag, algorithm, digest_type, digest)| RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest
            }),
        (
            any::<u16>(),
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..=64)
        )
            .prop_map(|(flags, algorithm, public_key)| RData::Dnskey {
                flags,
                protocol: 3,
                algorithm,
                public_key
            }),
        (prop::collection::vec(any::<u8>(), 0..=32)).prop_map(|data| RData::Unknown {
            rtype: RType::Unknown(999),
            data
        }),
    ]
}

fn record() -> impl Strategy<Value = Record> {
    (hostname(), any::<u32>(), rdata()).prop_map(|(name, ttl, rdata)| Record::new(name, ttl, rdata))
}

fn message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        hostname(),
        0u16..300,
        prop::collection::vec(record(), 0..=4),
        prop::collection::vec(record(), 0..=2),
        prop::collection::vec(record(), 0..=2),
        prop::option::of((512u16..=4096, any::<bool>())),
        0u16..=16,
    )
        .prop_map(
            |(id, response, qname, qtype, answers, authorities, additionals, edns, rcode)| {
                let mut header = Header::request(id);
                header.response = response;
                header.rcode = Rcode::from_u16(rcode & 0x0f);
                let mut msg = Message::new(header);
                msg.questions
                    .push(Question::new(qname, RType::from_u16(qtype)));
                msg.answers = answers;
                msg.authorities = authorities;
                msg.additionals = additionals;
                msg.edns = edns.map(|(size, dnssec_ok)| Edns::with_size(size, dnssec_ok));
                msg
            },
        )
}

proptest! {
    /// Any name survives wire encode -> parse.
    #[test]
    fn name_wire_roundtrip(n in name()) {
        let mut buf = Vec::new();
        n.encode_uncompressed(&mut buf);
        let (parsed, end) = Name::parse(&buf, 0).unwrap();
        prop_assert_eq!(&parsed, &n);
        prop_assert_eq!(end, buf.len());
    }

    /// Display -> FromStr round-trips for arbitrary (even binary) labels.
    #[test]
    fn name_presentation_roundtrip(n in name()) {
        let s = n.to_string();
        let back: Name = s.parse().unwrap();
        prop_assert_eq!(back, n);
    }

    /// Subdomain relation is reflexive and respects parent chains.
    #[test]
    fn subdomain_laws(n in name()) {
        prop_assert!(n.is_subdomain_of(&n));
        prop_assert!(n.is_subdomain_of(&Name::root()));
        let p = n.parent();
        prop_assert!(n.is_subdomain_of(&p));
        if !n.is_root() {
            prop_assert_eq!(n.label_count(), p.label_count() + 1);
            prop_assert!(n.is_minimized_child_of(&p));
        }
    }

    /// Full messages round-trip through encode/parse.
    #[test]
    fn message_roundtrip(msg in message()) {
        let bytes = msg.encode().unwrap();
        let parsed = Message::parse(&bytes).unwrap();
        prop_assert_eq!(parsed, msg);
    }

    /// Encoding under a limit never exceeds it, and the TC bit is set
    /// exactly when records were dropped.
    #[test]
    fn limit_is_respected(msg in message(), limit in 64usize..1500) {
        let full = msg.encode().unwrap();
        match msg.encode_with_limit(limit) {
            Ok((bytes, truncated)) => {
                prop_assert!(bytes.len() <= limit);
                if truncated {
                    let parsed = Message::parse(&bytes).unwrap();
                    prop_assert!(parsed.header.truncated);
                    prop_assert!(bytes.len() <= full.len());
                } else {
                    prop_assert_eq!(bytes, full);
                }
            }
            Err(_) => {
                // Only legitimate when even the record-free skeleton
                // overflows the limit.
                let mut bare = msg.clone();
                bare.answers.clear();
                bare.authorities.clear();
                bare.additionals.clear();
                bare.header.truncated = true;
                prop_assert!(bare.encode().unwrap().len() > limit);
            }
        }
    }

    /// At *every* limit from the record-free skeleton up to the full
    /// length, the one-pass cut equals the definition the old loop
    /// implemented: records removed from the tail of a clone, one at a
    /// time, until it fits, TC set.
    #[test]
    fn every_limit_cuts_like_dropping_tail_records(msg in message()) {
        // the oracle's candidates, longest first
        let mut candidates = vec![(msg.encode().unwrap(), false)];
        let mut cut = msg.clone();
        cut.header.truncated = true;
        while cut.additionals.pop().is_some()
            || cut.authorities.pop().is_some()
            || cut.answers.pop().is_some()
        {
            candidates.push((cut.encode().unwrap(), true));
        }
        let floor = candidates.last().unwrap().0.len();
        let (mut comp, mut out) = (ReusableCompressor::new(), Vec::new());
        for limit in floor..=candidates[0].0.len() {
            let (want, want_tc) = candidates.iter().find(|(b, _)| b.len() <= limit).unwrap();
            let tc = msg.encode_with_limit_into(limit, &mut comp, &mut out).unwrap();
            prop_assert_eq!((&out, tc), (want, *want_tc), "limit {}", limit);
        }
        prop_assert!(msg.encode_with_limit(floor - 1).is_err());
    }

    /// The parser never panics on arbitrary bytes.
    #[test]
    fn parse_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..=512)) {
        let _ = Message::parse(&bytes);
    }

    /// The parser never panics on mutations of a valid message — and when
    /// it succeeds, re-encoding succeeds too (internal consistency).
    #[test]
    fn parse_mutated_message_never_panics(
        msg in message(),
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..=8)
    ) {
        let mut bytes = msg.encode().unwrap();
        for (pos, val) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= val;
        }
        if let Ok(parsed) = Message::parse(&bytes) {
            let _ = parsed.encode();
        }
    }

    /// Compression: two-name messages always decode back to the same
    /// names even when suffixes are shared.
    #[test]
    fn compression_roundtrip(a in hostname(), b in hostname()) {
        let mut out = Vec::new();
        let mut comp = ReusableCompressor::new();
        comp.encode_name(&a, &mut out);
        let b_at = out.len();
        comp.encode_name(&b, &mut out);
        let (pa, next) = Name::parse(&out, 0).unwrap();
        let (pb, _) = Name::parse(&out, b_at).unwrap();
        prop_assert_eq!(pa, a);
        prop_assert_eq!(pb, b);
        prop_assert_eq!(next, b_at);
    }

    /// A suffix already in the message is pointed at whatever its case:
    /// the second name costs its new label plus one pointer.
    #[test]
    fn mixed_case_suffix_is_one_pointer(
        a in hostname(),
        label in "[a-z0-9]{1,12}",
        flips in any::<u64>(),
    ) {
        let b = recase(&a, flips).child(label.as_bytes()).unwrap();
        let mut out = Vec::new();
        let mut comp = ReusableCompressor::new();
        comp.encode_name(&a, &mut out);
        let b_at = out.len();
        comp.encode_name(&b, &mut out);
        prop_assert_eq!(out.len() - b_at, 1 + label.len() + 2);
        let (pb, end) = Name::parse(&out, b_at).unwrap();
        prop_assert_eq!(pb, b);
        prop_assert_eq!(end, out.len());
    }

    /// Names inside RDATA compress against the rest of the message, in
    /// any case mix, where RFC 3597 allows it and nowhere else: a zone
    /// every record mentions is spelled out once, plus once for each
    /// name that must stay uncompressed.
    #[test]
    fn rdata_names_compress_across_case(
        parent in hostname(),
        flips in prop::collection::vec(any::<u64>(), 12),
    ) {
        // an underscore never comes out of `hostname()`
        let zone = parent.child(b"_zone_").unwrap();
        let mut flips = flips.into_iter();
        let mut host = |label: &str| {
            recase(&zone, flips.next().unwrap()).child(label.as_bytes()).unwrap()
        };
        let mut msg = Message::new(Header::request(7));
        msg.header.response = true;
        msg.questions.push(Question::new(host("www"), RType::A));
        msg.answers = vec![
            Record::new(host("www"), 60, RData::Cname(host("alias"))),
            Record::new(host("alias"), 60, RData::Mx { preference: 5, exchange: host("mail") }),
            Record::new(host("4"), 60, RData::Ptr(host("host"))),
        ];
        msg.authorities = vec![
            Record::new(zone.clone(), 60, RData::Ns(host("ns1"))),
            Record::new(zone.clone(), 60, RData::Soa {
                mname: host("ns1"),
                rname: host("hostmaster"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 5,
            }),
            // the two that RFC 4034 keeps uncompressed
            Record::new(zone.clone(), 60, RData::Rrsig {
                type_covered: RType::Soa,
                algorithm: 8,
                labels: 2,
                original_ttl: 60,
                expiration: 2,
                inception: 1,
                key_tag: 9,
                signer: zone.clone(),
                signature: vec![0x5a; 16],
            }),
            Record::new(zone.clone(), 60, RData::Nsec { next: host("zzz"), type_bitmaps: vec![0, 1, 0x40] }),
        ];
        msg.additionals = vec![Record::new(host("ns1"), 60, RData::A([192, 0, 2, 1].into()))];

        let bytes = msg.encode().unwrap();
        let spelled_out = bytes
            .to_ascii_lowercase()
            .windows(7)
            .filter(|w| w == b"\x06_zone_")
            .count();
        prop_assert_eq!(spelled_out, 3, "the question's, the RRSIG signer's and the NSEC next name's");
        prop_assert_eq!(Message::parse(&bytes).unwrap(), msg.clone());
        let (mut comp, mut out) = (ReusableCompressor::new(), Vec::new());
        msg.encode_into(&mut comp, &mut out).unwrap();
        prop_assert_eq!(out, bytes);
    }
}

/// What a resolver reads out of a reply, taken from a parsed `Message`
/// (the oracle) or from a `Reader` over the same bytes: the rcode, the
/// addresses and CNAME targets owned by `owner` in the answer section,
/// and a referral's cut, NS hosts, glue and cut TTL (the last NS record
/// names the cut).
#[derive(Debug, PartialEq)]
struct WalkView {
    rcode: Rcode,
    addrs: Vec<std::net::IpAddr>,
    cnames: Vec<Name>,
    cut: Option<(Name, u32)>,
    hosts: Vec<Name>,
    glue: Vec<std::net::IpAddr>,
}

fn addr_of(rdata: &RData) -> Option<std::net::IpAddr> {
    match rdata {
        RData::A(a) => Some((*a).into()),
        RData::Aaaa(a) => Some((*a).into()),
        _ => None,
    }
}

fn view_of_message(msg: &Message, owner: &Name) -> WalkView {
    let owned = || msg.answers.iter().filter(|r| r.name == *owner);
    let ns = || {
        msg.authorities.iter().filter_map(|r| match &r.rdata {
            RData::Ns(host) => Some((r, host)),
            _ => None,
        })
    };
    WalkView {
        rcode: msg.header.rcode,
        addrs: owned().filter_map(|r| addr_of(&r.rdata)).collect(),
        cnames: owned()
            .filter_map(|r| match &r.rdata {
                RData::Cname(t) => Some(t.clone()),
                _ => None,
            })
            .collect(),
        cut: ns().next_back().map(|(r, _)| (r.name.clone(), r.ttl)),
        hosts: ns().map(|(_, host)| host.clone()).collect(),
        glue: msg
            .additionals
            .iter()
            .filter_map(|r| addr_of(&r.rdata))
            .collect(),
    }
}

fn view_of_reader(reader: &Reader<'_>, owner: &Name) -> WalkView {
    let owned = || {
        reader
            .records(Section::Answer)
            .filter(|r| r.owner_is(owner))
    };
    let ns = || {
        reader
            .records(Section::Authority)
            .filter(|r| r.rtype == RType::Ns)
    };
    WalkView {
        rcode: reader.rcode(),
        addrs: owned().filter_map(|r| r.addr()).collect(),
        cnames: owned().filter_map(|r| r.cname()).collect(),
        cut: ns().last().map(|r| (r.owner(), r.ttl)),
        hosts: ns().filter_map(|r| r.ns()).collect(),
        glue: reader
            .records(Section::Additional)
            .filter_map(|r| r.addr())
            .collect(),
    }
}

/// A message shaped like the replies a resolver walks: a referral (NS
/// set, glue) or an answer (addresses, a CNAME), names sharing suffixes
/// with the question so they compress, in any case mix.
fn walk_reply() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        hostname(),
        any::<u64>(),
        0u16..=16,
        prop::collection::vec((0u8..5, any::<[u8; 16]>(), any::<u32>()), 0..=8),
        prop::option::of((512u16..=4096, any::<bool>(), 0u8..=2)),
    )
        .prop_map(|(id, qname, flips, rcode, parts, edns)| {
            let mut header = Header::request(id);
            header.response = true;
            header.rcode = Rcode::from_u16(rcode & 0x0f);
            let mut msg = Message::new(header);
            msg.questions
                .push(Question::new(recase(&qname, flips), RType::A));
            let cut = qname.parent();
            for (kind, octets, ttl) in parts {
                let host = cut
                    .child(&octets[..1 + octets[0] as usize % 3])
                    .unwrap_or(cut.clone());
                let v4 = RData::A([octets[1], octets[2], octets[3], octets[4]].into());
                match kind {
                    0 => msg
                        .authorities
                        .push(Record::new(cut.clone(), ttl, RData::Ns(host))),
                    1 => msg.additionals.push(Record::new(host, ttl, v4)),
                    2 => msg
                        .additionals
                        .push(Record::new(host, ttl, RData::Aaaa(octets.into()))),
                    3 => msg
                        .answers
                        .push(Record::new(recase(&qname, !flips), ttl, v4)),
                    _ => msg
                        .answers
                        .push(Record::new(qname.clone(), ttl, RData::Cname(host))),
                }
            }
            msg.edns = edns.map(|(size, dnssec_ok, ext)| Edns {
                extended_rcode_bits: ext,
                ..Edns::with_size(size, dnssec_ok)
            });
            msg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reader under hostile bytes — resolver-shaped replies and
    /// arbitrary messages, whole, cut short, byte-flipped, or noise —
    /// with `Message::parse` as the oracle: it accepts exactly what the
    /// parse accepts, failing the same way; reads the same rcode, the
    /// same answers for the question's name and for each answer's
    /// owner, and the same referral; and never panics.
    #[test]
    fn reader_agrees_with_parse_under_hostile_bytes(
        shaped in walk_reply(),
        general in message(),
        pick in 0usize..2,
        damage in 0usize..4,
        cut in 0usize..4096,
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..=6),
        noise in prop::collection::vec(any::<u8>(), 0..=300),
    ) {
        let msg = if pick == 0 { shaped } else { general };
        let mut bytes = msg.encode().unwrap();
        match damage {
            0 => {}
            1 => bytes.truncate(cut % (bytes.len() + 1)),
            2 => {
                for (pos, val) in flips {
                    let len = bytes.len();
                    bytes[pos % len] ^= val;
                }
            }
            _ => bytes = noise,
        }
        match (Reader::new(&bytes), Message::parse(&bytes)) {
            (Ok(reader), Ok(parsed)) => {
                prop_assert_eq!(reader.header(), parsed.header);
                prop_assert_eq!(reader.questions().collect::<Vec<_>>(), parsed.questions.clone());
                prop_assert_eq!(reader.edns(), parsed.edns.clone());
                let owners = parsed.questions.iter().map(|q| q.qname.clone())
                    .chain(parsed.answers.iter().map(|r| r.name.clone()));
                for owner in owners {
                    prop_assert_eq!(view_of_reader(&reader, &owner), view_of_message(&parsed, &owner));
                }
                for (section, records) in [
                    (Section::Answer, &parsed.answers),
                    (Section::Authority, &parsed.authorities),
                    (Section::Additional, &parsed.additionals),
                ] {
                    prop_assert_eq!(reader.count(section), records.len());
                }
            }
            (Err(read), Err(parse)) => prop_assert_eq!(read, parse),
            (read, parse) => prop_assert!(false, "reader {:?}, parse {:?}", read.map(|_| ()), parse.map(|_| ())),
        }
    }
}

/// Nothing about the cut is sized by a record count: a message with
/// more than 255 records cuts at any of them, in place
/// (`encode_with_limit_into`) and as a copy of the finished bytes
/// (`Marks::cut_onto`, `Marks::slip_onto`), to the same result.
#[test]
fn no_cap_on_the_records_a_cut_walks() {
    use dns_wire::types::RClass;
    use dns_wire::writer::{Marks, MessageWriter, Section};

    let owner: Name = "example.nl".parse().unwrap();
    let mut msg = Message::new(Header::request(1));
    msg.header.response = true;
    msg.questions.push(Question::new(owner.clone(), RType::A));
    for i in 0..300u32 {
        let section = match i {
            0..=199 => &mut msg.answers,
            200..=279 => &mut msg.authorities,
            _ => &mut msg.additionals,
        };
        let rdata = RData::A(i.to_be_bytes().into());
        section.push(Record::new(owner.clone(), i, rdata));
    }
    msg.edns = Some(Edns::with_size(1232, true));

    // the same message through the writer, kept whole with its marks
    let (mut comp, mut full, mut marks) = (ReusableCompressor::new(), Vec::new(), Marks::default());
    let mut w = MessageWriter::new(&msg.header, &mut comp, &mut full, &mut marks);
    w.question(&msg.questions[0]);
    for (i, section) in [
        (0..200u32, Section::Answer),
        (200..280, Section::Authority),
        (280..300, Section::Additional),
    ]
    .into_iter()
    .flat_map(|(range, section)| range.map(move |i| (i, section)))
    {
        w.record(section, &owner, RType::A, RClass::In, i, |_, out| {
            out.extend_from_slice(&i.to_be_bytes());
            Ok(())
        })
        .unwrap();
    }
    assert!(!w.finish(msg.edns.as_ref(), usize::MAX).unwrap());
    assert_eq!(full, msg.encode().unwrap());
    assert_eq!(marks.records(), 300);

    let (mut out, mut copy) = (Vec::new(), Vec::new());
    for keep in [300usize, 299, 256, 255, 200, 7, 0] {
        // each A record is a pointer owner plus 14 octets
        let limit = full.len() - (300 - keep) * 16;
        let cut = msg
            .encode_with_limit_into(limit, &mut comp, &mut out)
            .unwrap();
        assert_eq!(cut, keep < 300);
        assert_eq!(out.len(), limit);
        copy.clear();
        assert_eq!(marks.cut_onto(&full, limit, &mut copy), Ok(cut));
        assert_eq!(copy, out);
        let parsed = Message::parse(&out).unwrap();
        assert_eq!(parsed.header.truncated, cut);
        assert!(parsed.edns.is_some());
        assert_eq!(records(&parsed), keep);
        assert_eq!(parsed.answers.len(), keep.min(200));
        assert_eq!(parsed.additionals.len(), keep.saturating_sub(280));
    }
    copy.clear();
    marks.slip_onto(&full, &mut copy);
    assert_eq!(copy, out, "a slip is the cut that keeps nothing");
}
