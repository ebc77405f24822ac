//! Hardening corpus: hand-crafted hostile wire inputs. Every case must
//! return a typed error (or a correct parse) — never panic, hang, or
//! over-allocate.

use dns_wire::error::WireError;
use dns_wire::header::Header;
use dns_wire::message::Message;
use dns_wire::name::Name;

/// Build a raw message skeleton: header with given counts + body bytes.
fn raw(counts: [u16; 4], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Header::request(0xdead).encode(counts, &mut out);
    out.extend_from_slice(body);
    out
}

#[test]
fn compression_pointer_self_loop() {
    // question name is a pointer to itself
    let msg = raw([1, 0, 0, 0], &[0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01]);
    assert!(matches!(
        Message::parse(&msg),
        Err(WireError::BadPointer { .. })
    ));
}

#[test]
fn compression_pointer_two_hop_cycle() {
    // name at 12 points to 14; name at 14 points to 12
    let body = [0xc0, 14, 0xc0, 12, 0x00, 0x01, 0x00, 0x01];
    let msg = raw([1, 0, 0, 0], &body);
    assert!(Message::parse(&msg).is_err());
}

#[test]
fn deep_pointer_chain_is_bounded() {
    // 200 chained pointers, each pointing 2 bytes back — must be refused
    // (hop limit), not walked forever.
    let mut body = vec![0x00]; // root name at offset 12
    for i in 0..200u16 {
        let target = 12 + i * 2;
        // each pointer points at the previous pointer
        body.push(0xc0 | ((target >> 8) as u8 & 0x3f));
        body.push(target as u8);
    }
    body.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]);
    let msg = raw([1, 0, 0, 0], &body);
    let _ = Message::parse(&msg); // any Err is fine; must terminate
}

#[test]
fn label_runs_past_end() {
    let msg = raw([1, 0, 0, 0], &[0x3f, b'a', b'b']);
    assert!(Message::parse(&msg).is_err());
}

#[test]
fn name_exactly_at_255_limit() {
    // 3 labels of 63 + 1 label of 61 = 63*3+3 + 62 + 1 = 255 octets: legal
    let l63 = vec![b'x'; 63];
    let l61 = vec![b'y'; 61];
    let name = Name::from_labels([l63.as_slice(), &l63, &l63, &l61]).unwrap();
    assert_eq!(name.wire_len(), 255);
    // one more byte tips it over
    let l62 = vec![b'y'; 62];
    assert!(matches!(
        Name::from_labels([l63.as_slice(), &l63, &l63, &l62]),
        Err(WireError::NameTooLong(_))
    ));
}

#[test]
fn counts_larger_than_body() {
    for counts in [[100, 0, 0, 0], [1, 100, 0, 0], [0, 0, 0, 50]] {
        let msg = raw(counts, &[0x00, 0x00, 0x01, 0x00, 0x01]);
        assert!(Message::parse(&msg).is_err(), "{counts:?}");
    }
}

#[test]
fn rdlength_overflowing_usize_arithmetic() {
    // record with rdlength 0xffff but 2 bytes of rdata
    let mut body = Vec::new();
    body.extend_from_slice(&[0x00]); // owner: root
    body.extend_from_slice(&[0x00, 0x01]); // type A
    body.extend_from_slice(&[0x00, 0x01]); // class IN
    body.extend_from_slice(&[0, 0, 0, 60]); // ttl
    body.extend_from_slice(&[0xff, 0xff]); // rdlength
    body.extend_from_slice(&[1, 2]);
    let msg = raw([0, 1, 0, 0], &body);
    assert!(matches!(
        Message::parse(&msg),
        Err(WireError::Truncated { .. })
    ));
}

#[test]
fn opt_with_truncated_option_tlv() {
    let mut body = Vec::new();
    body.push(0x00); // root owner
    body.extend_from_slice(&41u16.to_be_bytes()); // OPT
    body.extend_from_slice(&4096u16.to_be_bytes()); // class = size
    body.extend_from_slice(&[0, 0, 0, 0]); // ttl
    body.extend_from_slice(&6u16.to_be_bytes()); // rdlength
    body.extend_from_slice(&[0, 10, 0, 200, 1, 2]); // opt len 200, 2 bytes
    let msg = raw([0, 0, 0, 1], &body);
    assert!(Message::parse(&msg).is_err());
}

#[test]
fn txt_with_zero_length_strings() {
    // TXT rdata of 3 zero-length character-strings is legal
    let mut body = Vec::new();
    body.push(0x00);
    body.extend_from_slice(&16u16.to_be_bytes()); // TXT
    body.extend_from_slice(&1u16.to_be_bytes());
    body.extend_from_slice(&[0, 0, 0, 60]);
    body.extend_from_slice(&3u16.to_be_bytes());
    body.extend_from_slice(&[0, 0, 0]);
    let msg = raw([0, 1, 0, 0], &body);
    let parsed = Message::parse(&msg).expect("legal TXT");
    assert_eq!(parsed.answers.len(), 1);
}

#[test]
fn soa_name_crossing_rdata_boundary() {
    // SOA whose mname is a pointer to later bytes inside rdata but whose
    // declared rdlength cuts the fixed fields short
    let mut body = Vec::new();
    body.push(0x00);
    body.extend_from_slice(&6u16.to_be_bytes()); // SOA
    body.extend_from_slice(&1u16.to_be_bytes());
    body.extend_from_slice(&[0, 0, 0, 60]);
    body.extend_from_slice(&4u16.to_be_bytes()); // rdlength: way too short
    body.extend_from_slice(&[0x00, 0x00, 0x00, 0x00]);
    let msg = raw([0, 1, 0, 0], &body);
    assert!(Message::parse(&msg).is_err());
}

#[test]
fn empty_and_header_only_inputs() {
    assert!(Message::parse(&[]).is_err());
    assert!(Message::parse(&[0u8; 11]).is_err());
    let ok = raw([0, 0, 0, 0], &[]);
    let parsed = Message::parse(&ok).expect("header-only is a legal message");
    assert!(parsed.questions.is_empty());
}

#[test]
fn trailing_bytes_after_sections_are_tolerated() {
    // real captures contain padding; parser reads declared counts and
    // ignores the rest
    let mut msg = raw([1, 0, 0, 0], &[0x00, 0x00, 0x01, 0x00, 0x01]);
    msg.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    assert!(Message::parse(&msg).is_ok());
}

#[test]
fn tcp_deframer_hostile_lengths() {
    use dns_wire::tcp::Deframer;
    let mut d = Deframer::new();
    // claims 65535 bytes, delivers 3
    d.push(&[0xff, 0xff, 1, 2, 3]);
    assert_eq!(d.next_frame(), None);
    assert_eq!(d.pending(), 5);
    // a zero-length frame mid-stream is fine
    let mut d = Deframer::new();
    d.push(&[0, 0, 0, 1, b'x']);
    assert_eq!(d.next_frame(), Some(&[][..]));
    assert_eq!(d.next_frame(), Some(&[b'x'][..]));
    // the whole-stream walk agrees on both
    assert!(dns_wire::tcp::deframe(&[0xff, 0xff, 1, 2, 3]).is_err());
    let frames: Vec<&[u8]> = dns_wire::tcp::deframe(&[0, 0, 0, 1, b'x'])
        .unwrap()
        .collect();
    assert_eq!(frames, [&[][..], &[b'x'][..]]);
}

#[test]
fn fuzz_smoke_random_blobs() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    for _ in 0..20_000 {
        let len = rng.gen_range(0..160);
        let blob: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = Message::parse(&blob);
        let _ = Name::parse(&blob, 0);
        if let Ok(frames) = dns_wire::tcp::deframe(&blob) {
            // a checked stream is its frames, prefixes included, exactly
            assert_eq!(frames.map(|m| 2 + m.len()).sum::<usize>(), blob.len());
        }
    }
}
