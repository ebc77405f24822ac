//! Logical-address preamble for loopback runs.
//!
//! The analysis pipeline attributes queries to cloud providers by the
//! *resolver's source address* (the fleet address plan) and to letters
//! by the *server's destination address*. Over loopback every packet is
//! `127.0.0.1 → 127.0.0.1`, which would erase exactly the signal the
//! paper measures. So the load generator prefixes each UDP datagram
//! (and each TCP connection, once, before the first length-framed
//! message) with a small preamble carrying the logical flow:
//!
//! ```text
//! "LPX1" | src tag(4|6) octets port | dst tag octets port | rtt_us u32
//! ```
//!
//! All integers big-endian. The server strips the preamble, handles the
//! DNS payload, and stamps capture-tap records with the logical
//! addresses — so the `.dnscap` a live run produces is
//! indistinguishable in shape from an offline one. `rtt_us` lets the
//! client side donate its measured TCP connect time, which the offline
//! format records on TCP rows (Table 5 transport analysis).
//!
//! Datagrams *without* the magic are handled as-is with their real
//! socket addresses, so the server also serves plain `dig`-style
//! clients.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Preamble magic; deliberately an invalid DNS header prefix is not
/// guaranteed, so the tag is checked before any parse attempt.
pub const MAGIC: [u8; 4] = *b"LPX1";

/// A parsed logical-flow preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preamble {
    /// Logical source (resolver) address.
    pub src: SocketAddr,
    /// Logical destination (authoritative) address.
    pub dst: SocketAddr,
    /// Client-measured TCP connect RTT in µs (0 for UDP).
    pub rtt_us: u32,
}

impl Preamble {
    /// Encode, ready to prepend to a payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(46);
        self.encode_into(&mut out);
        out
    }

    /// Append the encoding to `out` (a reused send buffer).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        push_addr(out, self.src);
        push_addr(out, self.dst);
        out.extend_from_slice(&self.rtt_us.to_be_bytes());
    }

    /// Parse a preamble off the front of `buf`.
    ///
    /// Returns the preamble and the number of bytes it consumed, or
    /// `None` when `buf` does not start with [`MAGIC`] (the datagram is
    /// then a bare DNS message from a non-fleet client) or is torn.
    pub fn parse(buf: &[u8]) -> Option<(Preamble, usize)> {
        if buf.len() < 4 || buf[..4] != MAGIC {
            return None;
        }
        let mut pos = 4;
        let src = pull_addr(buf, &mut pos)?;
        let dst = pull_addr(buf, &mut pos)?;
        let rtt_us = u32::from_be_bytes(buf.get(pos..pos + 4)?.try_into().ok()?);
        pos += 4;
        Some((Preamble { src, dst, rtt_us }, pos))
    }
}

fn push_addr(out: &mut Vec<u8>, addr: SocketAddr) {
    match addr.ip() {
        IpAddr::V4(v4) => {
            out.push(4);
            out.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            out.push(6);
            out.extend_from_slice(&v6.octets());
        }
    }
    out.extend_from_slice(&addr.port().to_be_bytes());
}

fn pull_addr(buf: &[u8], pos: &mut usize) -> Option<SocketAddr> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    let ip = match tag {
        4 => {
            let oct: [u8; 4] = buf.get(*pos..*pos + 4)?.try_into().ok()?;
            *pos += 4;
            IpAddr::V4(Ipv4Addr::from(oct))
        }
        6 => {
            let oct: [u8; 16] = buf.get(*pos..*pos + 16)?.try_into().ok()?;
            *pos += 16;
            IpAddr::V6(Ipv6Addr::from(oct))
        }
        _ => return None,
    };
    let port = u16::from_be_bytes(buf.get(*pos..*pos + 2)?.try_into().ok()?);
    *pos += 2;
    Some(SocketAddr::new(ip, port))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_v4_and_v6() {
        let p = Preamble {
            src: "203.0.113.9:4242".parse().unwrap(),
            dst: "[2001:db8::53]:53".parse().unwrap(),
            rtt_us: 12_345,
        };
        let mut wire = p.encode();
        wire.extend_from_slice(b"payload");
        let (got, used) = Preamble::parse(&wire).unwrap();
        assert_eq!(got, p);
        assert_eq!(&wire[used..], b"payload");
    }

    #[test]
    fn rejects_foreign_and_torn_input() {
        assert!(Preamble::parse(b"").is_none());
        assert!(Preamble::parse(b"\x12\x34\x01\x00rest-of-dns").is_none());
        let p = Preamble {
            src: "10.0.0.1:1000".parse().unwrap(),
            dst: "10.0.0.2:53".parse().unwrap(),
            rtt_us: 0,
        };
        let wire = p.encode();
        for cut in 1..wire.len() {
            assert!(Preamble::parse(&wire[..cut]).is_none(), "cut {cut}");
        }
    }
}
