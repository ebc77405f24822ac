//! Typed RDATA for the record types the analysis pipeline inspects.
//!
//! Unknown types are carried opaquely (RFC 3597 style) so that nothing in
//! a capture is ever dropped on the floor.

use crate::error::WireError;
use crate::name::{Name, ReusableCompressor};
use crate::types::RType;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Decoded RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Name server.
    Ns(Name),
    /// Canonical name.
    Cname(Name),
    /// Reverse pointer.
    Ptr(Name),
    /// Mail exchange: preference and exchange host.
    Mx {
        /// Preference value, lower wins.
        preference: u16,
        /// The mail host.
        exchange: Name,
    },
    /// Start of authority.
    Soa {
        /// Primary master name.
        mname: Name,
        /// Responsible mailbox.
        rname: Name,
        /// Zone serial.
        serial: u32,
        /// Refresh interval, seconds.
        refresh: u32,
        /// Retry interval, seconds.
        retry: u32,
        /// Expiry, seconds.
        expire: u32,
        /// Negative-caching TTL (RFC 2308).
        minimum: u32,
    },
    /// Text strings (each at most 255 octets).
    Txt(Vec<Vec<u8>>),
    /// Delegation signer (RFC 4034 §5).
    Ds {
        /// Key tag of the referenced DNSKEY.
        key_tag: u16,
        /// Signing algorithm.
        algorithm: u8,
        /// Digest algorithm.
        digest_type: u8,
        /// The digest itself.
        digest: Vec<u8>,
    },
    /// DNSSEC public key (RFC 4034 §2).
    Dnskey {
        /// Flags (256 = ZSK, 257 = KSK).
        flags: u16,
        /// Always 3.
        protocol: u8,
        /// Signing algorithm.
        algorithm: u8,
        /// Public key material.
        public_key: Vec<u8>,
    },
    /// DNSSEC signature (RFC 4034 §3), abbreviated to the fields the
    /// pipeline sizes responses with.
    Rrsig {
        /// Type covered by this signature.
        type_covered: RType,
        /// Signing algorithm.
        algorithm: u8,
        /// Labels in the owner name.
        labels: u8,
        /// Original TTL.
        original_ttl: u32,
        /// Expiration timestamp.
        expiration: u32,
        /// Inception timestamp.
        inception: u32,
        /// Key tag.
        key_tag: u16,
        /// Signer name.
        signer: Name,
        /// Signature bytes.
        signature: Vec<u8>,
    },
    /// Authenticated denial (RFC 4034 §4): next name + type bitmap,
    /// bitmap kept raw.
    Nsec {
        /// Next owner name in canonical order.
        next: Name,
        /// Raw type-bitmap octets.
        type_bitmaps: Vec<u8>,
    },
    /// Hashed authenticated denial (RFC 5155 §3).
    Nsec3 {
        /// Hash algorithm (1 = SHA-1).
        hash_algorithm: u8,
        /// Flags (bit 0 = opt-out).
        flags: u8,
        /// Hash iterations.
        iterations: u16,
        /// Salt octets (empty = no salt).
        salt: Vec<u8>,
        /// Hashed next owner.
        next_hashed: Vec<u8>,
        /// Raw type-bitmap octets.
        type_bitmaps: Vec<u8>,
    },
    /// Certification Authority Authorization (RFC 8659).
    Caa {
        /// Flags (bit 7 = critical).
        flags: u8,
        /// Property tag (e.g. `issue`).
        tag: Vec<u8>,
        /// Property value.
        value: Vec<u8>,
    },
    /// Service binding (RFC 9460): SVCB, and HTTPS via
    /// [`RData::Https`].
    Svcb {
        /// Priority (0 = alias mode).
        priority: u16,
        /// Target name (never compressed).
        target: Name,
        /// Service parameters, raw `(key, value)` pairs in key order.
        params: Vec<(u16, Vec<u8>)>,
    },
    /// HTTPS service binding (RFC 9460), same shape as SVCB.
    Https {
        /// Priority (0 = alias mode).
        priority: u16,
        /// Target name (never compressed).
        target: Name,
        /// Service parameters, raw `(key, value)` pairs in key order.
        params: Vec<(u16, Vec<u8>)>,
    },
    /// Anything else, kept as raw octets with its type code.
    Unknown {
        /// The record type this blob belongs to.
        rtype: RType,
        /// Raw RDATA.
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type this RDATA encodes.
    pub fn rtype(&self) -> RType {
        match self {
            RData::A(_) => RType::A,
            RData::Aaaa(_) => RType::Aaaa,
            RData::Ns(_) => RType::Ns,
            RData::Cname(_) => RType::Cname,
            RData::Ptr(_) => RType::Ptr,
            RData::Mx { .. } => RType::Mx,
            RData::Soa { .. } => RType::Soa,
            RData::Txt(_) => RType::Txt,
            RData::Ds { .. } => RType::Ds,
            RData::Dnskey { .. } => RType::Dnskey,
            RData::Rrsig { .. } => RType::Rrsig,
            RData::Nsec { .. } => RType::Nsec,
            RData::Nsec3 { .. } => RType::Nsec3,
            RData::Caa { .. } => RType::Caa,
            RData::Svcb { .. } => RType::Svcb,
            RData::Https { .. } => RType::Https,
            RData::Unknown { rtype, .. } => *rtype,
        }
    }

    /// Parse RDATA of type `rtype` from `msg[start..start+rdlen]`.
    ///
    /// `msg` is the whole message because several types embed names which
    /// may use compression pointers into earlier parts of the message.
    pub fn parse(rtype: RType, msg: &[u8], start: usize, rdlen: usize) -> Result<RData, WireError> {
        RDataRef::parse(rtype, msg, start, rdlen, Name::parse).map(RDataRef::into_rdata)
    }

    /// Append the wire encoding to `out`, compressing embedded names where
    /// RFC 3597 permits (NS/CNAME/PTR/MX/SOA — the "well known" types).
    /// Returns nothing; the caller patches RDLENGTH around this.
    pub fn encode(
        &self,
        comp: &mut ReusableCompressor,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        match self {
            RData::A(a) => out.extend_from_slice(&a.octets()),
            RData::Aaaa(a) => out.extend_from_slice(&a.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => comp.encode_name(n, out),
            RData::Mx {
                preference,
                exchange,
            } => {
                out.extend_from_slice(&preference.to_be_bytes());
                comp.encode_name(exchange, out);
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                comp.encode_name(mname, out);
                comp.encode_name(rname, out);
                for v in [serial, refresh, retry, expire, minimum] {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            RData::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(WireError::StringTooLong(s.len()));
                    }
                    out.push(s.len() as u8);
                    out.extend_from_slice(s);
                }
            }
            RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                out.extend_from_slice(&key_tag.to_be_bytes());
                out.push(*algorithm);
                out.push(*digest_type);
                out.extend_from_slice(digest);
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => {
                out.extend_from_slice(&flags.to_be_bytes());
                out.push(*protocol);
                out.push(*algorithm);
                out.extend_from_slice(public_key);
            }
            RData::Rrsig {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer,
                signature,
            } => {
                out.extend_from_slice(&type_covered.to_u16().to_be_bytes());
                out.push(*algorithm);
                out.push(*labels);
                out.extend_from_slice(&original_ttl.to_be_bytes());
                out.extend_from_slice(&expiration.to_be_bytes());
                out.extend_from_slice(&inception.to_be_bytes());
                out.extend_from_slice(&key_tag.to_be_bytes());
                // RFC 4034 §3.1.7: signer name MUST NOT be compressed.
                signer.encode_uncompressed(out);
                out.extend_from_slice(signature);
            }
            RData::Nsec { next, type_bitmaps } => {
                // RFC 4034 §4.1.1: next name MUST NOT be compressed.
                next.encode_uncompressed(out);
                out.extend_from_slice(type_bitmaps);
            }
            RData::Nsec3 {
                hash_algorithm,
                flags,
                iterations,
                salt,
                next_hashed,
                type_bitmaps,
            } => {
                if salt.len() > 255 {
                    return Err(WireError::StringTooLong(salt.len()));
                }
                if next_hashed.len() > 255 {
                    return Err(WireError::StringTooLong(next_hashed.len()));
                }
                out.push(*hash_algorithm);
                out.push(*flags);
                out.extend_from_slice(&iterations.to_be_bytes());
                out.push(salt.len() as u8);
                out.extend_from_slice(salt);
                out.push(next_hashed.len() as u8);
                out.extend_from_slice(next_hashed);
                out.extend_from_slice(type_bitmaps);
            }
            RData::Caa { flags, tag, value } => {
                if tag.len() > 255 {
                    return Err(WireError::StringTooLong(tag.len()));
                }
                out.push(*flags);
                out.push(tag.len() as u8);
                out.extend_from_slice(tag);
                out.extend_from_slice(value);
            }
            RData::Svcb {
                priority,
                target,
                params,
            }
            | RData::Https {
                priority,
                target,
                params,
            } => {
                out.extend_from_slice(&priority.to_be_bytes());
                // RFC 9460 §2.2: target name is never compressed
                target.encode_uncompressed(out);
                for (key, value) in params {
                    out.extend_from_slice(&key.to_be_bytes());
                    out.extend_from_slice(&(value.len() as u16).to_be_bytes());
                    out.extend_from_slice(value);
                }
            }
            RData::Unknown { data, .. } => out.extend_from_slice(data),
        }
        Ok(())
    }
}

/// RDATA as it sits in the message: every check [`RData::parse`]
/// makes, with the fields located but nothing copied, so a reader that
/// only validates allocates nothing. Embedded names are `N`: whatever
/// the caller's name reader makes of them — `()` when it only checks
/// them, a [`Name`] when [`RDataRef::into_rdata`] is to build the owned
/// form.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RDataRef<'a, N> {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Ns(N),
    Cname(N),
    Ptr(N),
    Mx {
        preference: u16,
        exchange: N,
    },
    Soa {
        mname: N,
        rname: N,
        /// serial, refresh, retry, expire, minimum.
        fields: &'a [u8],
    },
    /// The character-strings, each length-prefixed.
    Txt(&'a [u8]),
    Ds {
        key_tag: u16,
        algorithm: u8,
        digest_type: u8,
        digest: &'a [u8],
    },
    Dnskey {
        flags: u16,
        protocol: u8,
        algorithm: u8,
        public_key: &'a [u8],
    },
    Rrsig {
        /// Type covered through key tag, the 18 fixed octets.
        fixed: &'a [u8],
        signer: N,
        signature: &'a [u8],
    },
    Nsec {
        next: N,
        type_bitmaps: &'a [u8],
    },
    Nsec3 {
        hash_algorithm: u8,
        flags: u8,
        iterations: u16,
        salt: &'a [u8],
        next_hashed: &'a [u8],
        type_bitmaps: &'a [u8],
    },
    Caa {
        flags: u8,
        tag: &'a [u8],
        value: &'a [u8],
    },
    /// SVCB or HTTPS (`rtype`), parameters as their key-length-value
    /// octets.
    Svcb {
        rtype: RType,
        priority: u16,
        target: N,
        params: &'a [u8],
    },
    Unknown {
        rtype: RType,
        data: &'a [u8],
    },
}

impl<'a, N> RDataRef<'a, N> {
    /// Read RDATA of type `rtype` at `msg[start..start+rdlen]`, checking
    /// it exactly as [`RData::parse`] does, in the same order, to the
    /// same errors; `read_name` reads an embedded name and returns the
    /// position past it.
    #[inline]
    pub(crate) fn parse(
        rtype: RType,
        msg: &'a [u8],
        start: usize,
        rdlen: usize,
        read_name: impl Fn(&'a [u8], usize) -> Result<(N, usize), WireError>,
    ) -> Result<RDataRef<'a, N>, WireError> {
        let end = start
            .checked_add(rdlen)
            .ok_or(WireError::Truncated { offset: start })?;
        if end > msg.len() {
            return Err(WireError::Truncated { offset: msg.len() });
        }
        let slice = &msg[start..end];
        let exact = |need: usize| -> Result<(), WireError> {
            if rdlen == need {
                Ok(())
            } else {
                Err(WireError::BadRdataLength {
                    declared: rdlen,
                    consumed: need,
                })
            }
        };
        let at_least = |need: usize| {
            if rdlen < need {
                Err(WireError::Truncated { offset: end })
            } else {
                Ok(())
            }
        };
        // a name that must end the RDATA, or at least not overrun it
        let ends_at = |to: usize| {
            if to == end {
                Ok(())
            } else {
                Err(WireError::BadRdataLength {
                    declared: rdlen,
                    consumed: to - start,
                })
            }
        };
        let within = |to: usize| if to > end { ends_at(to) } else { Ok(()) };
        Ok(match rtype {
            RType::A => {
                exact(4)?;
                RDataRef::A(Ipv4Addr::new(slice[0], slice[1], slice[2], slice[3]))
            }
            RType::Aaaa => {
                exact(16)?;
                let mut o = [0u8; 16];
                o.copy_from_slice(slice);
                RDataRef::Aaaa(Ipv6Addr::from(o))
            }
            RType::Ns | RType::Cname | RType::Ptr => {
                let (name, to) = read_name(msg, start)?;
                ends_at(to)?;
                match rtype {
                    RType::Ns => RDataRef::Ns(name),
                    RType::Cname => RDataRef::Cname(name),
                    _ => RDataRef::Ptr(name),
                }
            }
            RType::Mx => {
                at_least(3)?;
                let (exchange, to) = read_name(msg, start + 2)?;
                ends_at(to)?;
                RDataRef::Mx {
                    preference: u16::from_be_bytes([slice[0], slice[1]]),
                    exchange,
                }
            }
            RType::Soa => {
                let (mname, p1) = read_name(msg, start)?;
                let (rname, p2) = read_name(msg, p1)?;
                ends_at(p2 + 20)?;
                RDataRef::Soa {
                    mname,
                    rname,
                    fields: &msg[p2..end],
                }
            }
            RType::Txt => {
                let mut pos = 0usize;
                while pos < slice.len() {
                    let len = slice[pos] as usize;
                    if pos + 1 + len > slice.len() {
                        return Err(WireError::Truncated {
                            offset: start + pos,
                        });
                    }
                    pos += 1 + len;
                }
                RDataRef::Txt(slice)
            }
            RType::Ds => {
                at_least(4)?;
                RDataRef::Ds {
                    key_tag: u16::from_be_bytes([slice[0], slice[1]]),
                    algorithm: slice[2],
                    digest_type: slice[3],
                    digest: &slice[4..],
                }
            }
            RType::Dnskey => {
                at_least(4)?;
                RDataRef::Dnskey {
                    flags: u16::from_be_bytes([slice[0], slice[1]]),
                    protocol: slice[2],
                    algorithm: slice[3],
                    public_key: &slice[4..],
                }
            }
            RType::Rrsig => {
                at_least(18)?;
                let (signer, p) = read_name(msg, start + 18)?;
                within(p)?;
                RDataRef::Rrsig {
                    fixed: &slice[..18],
                    signer,
                    signature: &msg[p..end],
                }
            }
            RType::Nsec => {
                let (next, p) = read_name(msg, start)?;
                within(p)?;
                RDataRef::Nsec {
                    next,
                    type_bitmaps: &msg[p..end],
                }
            }
            RType::Nsec3 => {
                at_least(5)?;
                let salt_len = slice[4] as usize;
                if 5 + salt_len + 1 > rdlen {
                    return Err(WireError::Truncated { offset: end });
                }
                let hash_len = slice[5 + salt_len] as usize;
                if 5 + salt_len + 1 + hash_len > rdlen {
                    return Err(WireError::Truncated { offset: end });
                }
                RDataRef::Nsec3 {
                    hash_algorithm: slice[0],
                    flags: slice[1],
                    iterations: u16::from_be_bytes([slice[2], slice[3]]),
                    salt: &slice[5..5 + salt_len],
                    next_hashed: &slice[6 + salt_len..6 + salt_len + hash_len],
                    type_bitmaps: &slice[6 + salt_len + hash_len..],
                }
            }
            RType::Caa => {
                at_least(2)?;
                let tag_len = slice[1] as usize;
                if 2 + tag_len > rdlen {
                    return Err(WireError::Truncated { offset: end });
                }
                RDataRef::Caa {
                    flags: slice[0],
                    tag: &slice[2..2 + tag_len],
                    value: &slice[2 + tag_len..],
                }
            }
            RType::Svcb | RType::Https => {
                at_least(3)?;
                let (target, p) = read_name(msg, start + 2)?;
                let mut pos = p;
                while pos < end {
                    if pos + 4 > end {
                        return Err(WireError::Truncated { offset: pos });
                    }
                    let len = u16::from_be_bytes([msg[pos + 2], msg[pos + 3]]) as usize;
                    if pos + 4 + len > end {
                        return Err(WireError::Truncated { offset: pos + 4 });
                    }
                    pos += 4 + len;
                }
                RDataRef::Svcb {
                    rtype,
                    priority: u16::from_be_bytes([slice[0], slice[1]]),
                    target,
                    params: &msg[p.min(end)..end],
                }
            }
            other => RDataRef::Unknown {
                rtype: other,
                data: slice,
            },
        })
    }
}

impl RDataRef<'_, Name> {
    /// The owned form, as [`RData::parse`] returns it.
    #[inline]
    pub(crate) fn into_rdata(self) -> RData {
        let u32_at = |b: &[u8], i: usize| u32::from_be_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        match self {
            RDataRef::A(a) => RData::A(a),
            RDataRef::Aaaa(a) => RData::Aaaa(a),
            RDataRef::Ns(n) => RData::Ns(n),
            RDataRef::Cname(n) => RData::Cname(n),
            RDataRef::Ptr(n) => RData::Ptr(n),
            RDataRef::Mx {
                preference,
                exchange,
            } => RData::Mx {
                preference,
                exchange,
            },
            RDataRef::Soa {
                mname,
                rname,
                fields,
            } => RData::Soa {
                mname,
                rname,
                serial: u32_at(fields, 0),
                refresh: u32_at(fields, 4),
                retry: u32_at(fields, 8),
                expire: u32_at(fields, 12),
                minimum: u32_at(fields, 16),
            },
            RDataRef::Txt(strings) => {
                let mut out = Vec::new();
                let mut pos = 0;
                while pos < strings.len() {
                    let len = strings[pos] as usize;
                    out.push(strings[pos + 1..pos + 1 + len].to_vec());
                    pos += 1 + len;
                }
                if out.is_empty() {
                    // RFC 1035: TXT must contain at least one string.
                    out.push(Vec::new());
                }
                RData::Txt(out)
            }
            RDataRef::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest: digest.to_vec(),
            },
            RDataRef::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => RData::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key: public_key.to_vec(),
            },
            RDataRef::Rrsig {
                fixed,
                signer,
                signature,
            } => RData::Rrsig {
                type_covered: RType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]])),
                algorithm: fixed[2],
                labels: fixed[3],
                original_ttl: u32_at(fixed, 4),
                expiration: u32_at(fixed, 8),
                inception: u32_at(fixed, 12),
                key_tag: u16::from_be_bytes([fixed[16], fixed[17]]),
                signer,
                signature: signature.to_vec(),
            },
            RDataRef::Nsec { next, type_bitmaps } => RData::Nsec {
                next,
                type_bitmaps: type_bitmaps.to_vec(),
            },
            RDataRef::Nsec3 {
                hash_algorithm,
                flags,
                iterations,
                salt,
                next_hashed,
                type_bitmaps,
            } => RData::Nsec3 {
                hash_algorithm,
                flags,
                iterations,
                salt: salt.to_vec(),
                next_hashed: next_hashed.to_vec(),
                type_bitmaps: type_bitmaps.to_vec(),
            },
            RDataRef::Caa { flags, tag, value } => RData::Caa {
                flags,
                tag: tag.to_vec(),
                value: value.to_vec(),
            },
            RDataRef::Svcb {
                rtype,
                priority,
                target,
                params,
            } => {
                let mut pairs = Vec::new();
                let mut pos = 0;
                while pos < params.len() {
                    let key = u16::from_be_bytes([params[pos], params[pos + 1]]);
                    let len = u16::from_be_bytes([params[pos + 2], params[pos + 3]]) as usize;
                    pairs.push((key, params[pos + 4..pos + 4 + len].to_vec()));
                    pos += 4 + len;
                }
                if rtype == RType::Svcb {
                    RData::Svcb {
                        priority,
                        target,
                        params: pairs,
                    }
                } else {
                    RData::Https {
                        priority,
                        target,
                        params: pairs,
                    }
                }
            }
            RDataRef::Unknown { rtype, data } => RData::Unknown {
                rtype,
                data: data.to_vec(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// Encode standalone (no prior message context), then reparse.
    fn roundtrip(rd: &RData) -> RData {
        let mut comp = ReusableCompressor::new();
        let mut out = Vec::new();
        rd.encode(&mut comp, &mut out).unwrap();
        RData::parse(rd.rtype(), &out, 0, out.len()).unwrap()
    }

    #[test]
    fn a_and_aaaa_roundtrip() {
        let a = RData::A("192.0.2.1".parse().unwrap());
        assert_eq!(roundtrip(&a), a);
        let aaaa = RData::Aaaa("2001:db8::53".parse().unwrap());
        assert_eq!(roundtrip(&aaaa), aaaa);
    }

    #[test]
    fn a_with_wrong_length_is_rejected() {
        assert!(matches!(
            RData::parse(RType::A, &[1, 2, 3], 0, 3),
            Err(WireError::BadRdataLength { .. })
        ));
        assert!(matches!(
            RData::parse(RType::Aaaa, &[0; 4], 0, 4),
            Err(WireError::BadRdataLength { .. })
        ));
    }

    #[test]
    fn name_types_roundtrip() {
        for rd in [
            RData::Ns(n("ns1.dns.nl")),
            RData::Cname(n("alias.example.nz")),
            RData::Ptr(n("resolver-ams4.fb.example")),
        ] {
            assert_eq!(roundtrip(&rd), rd);
        }
    }

    #[test]
    fn mx_roundtrip() {
        let mx = RData::Mx {
            preference: 10,
            exchange: n("mx1.example.nl"),
        };
        assert_eq!(roundtrip(&mx), mx);
    }

    #[test]
    fn soa_roundtrip() {
        let soa = RData::Soa {
            mname: n("ns1.dns.nl"),
            rname: n("hostmaster.domain-registry.nl"),
            serial: 2020041101,
            refresh: 3600,
            retry: 600,
            expire: 2419200,
            minimum: 600,
        };
        assert_eq!(roundtrip(&soa), soa);
    }

    #[test]
    fn txt_roundtrip_multi_string() {
        let txt = RData::Txt(vec![b"v=spf1 -all".to_vec(), vec![0u8; 255]]);
        assert_eq!(roundtrip(&txt), txt);
    }

    #[test]
    fn txt_overlong_string_rejected_on_encode() {
        let txt = RData::Txt(vec![vec![0u8; 256]]);
        let mut comp = ReusableCompressor::new();
        let mut out = Vec::new();
        assert_eq!(
            txt.encode(&mut comp, &mut out),
            Err(WireError::StringTooLong(256))
        );
    }

    #[test]
    fn dnssec_types_roundtrip() {
        let ds = RData::Ds {
            key_tag: 20826,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0xab; 32],
        };
        assert_eq!(roundtrip(&ds), ds);
        let key = RData::Dnskey {
            flags: 257,
            protocol: 3,
            algorithm: 13,
            public_key: vec![1; 64],
        };
        assert_eq!(roundtrip(&key), key);
        let sig = RData::Rrsig {
            type_covered: RType::Ns,
            algorithm: 13,
            labels: 2,
            original_ttl: 3600,
            expiration: 1_600_000_000,
            inception: 1_598_000_000,
            key_tag: 12345,
            signer: n("nl"),
            signature: vec![7; 64],
        };
        assert_eq!(roundtrip(&sig), sig);
        let nsec = RData::Nsec {
            next: n("aaa.nl"),
            type_bitmaps: vec![0, 6, 0x40, 0, 0, 0, 0x03],
        };
        assert_eq!(roundtrip(&nsec), nsec);
    }

    #[test]
    fn nsec3_roundtrip() {
        let rd = RData::Nsec3 {
            hash_algorithm: 1,
            flags: 1, // opt-out
            iterations: 10,
            salt: vec![0xde, 0xad],
            next_hashed: vec![0x5a; 20],
            type_bitmaps: vec![0, 6, 0x40, 0, 0, 0, 0x03],
        };
        assert_eq!(roundtrip(&rd), rd);
        // empty salt is legal
        let rd = RData::Nsec3 {
            hash_algorithm: 1,
            flags: 0,
            iterations: 0,
            salt: vec![],
            next_hashed: vec![1; 20],
            type_bitmaps: vec![],
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn nsec3_truncated_rejected() {
        assert!(RData::parse(RType::Nsec3, &[1, 0, 0, 10], 0, 4).is_err());
        // salt length runs past the end
        assert!(RData::parse(RType::Nsec3, &[1, 0, 0, 10, 200, 1], 0, 6).is_err());
    }

    #[test]
    fn caa_roundtrip() {
        let rd = RData::Caa {
            flags: 0x80,
            tag: b"issue".to_vec(),
            value: b"letsencrypt.org".to_vec(),
        };
        assert_eq!(roundtrip(&rd), rd);
        assert!(RData::parse(RType::Caa, &[0], 0, 1).is_err());
        assert!(RData::parse(RType::Caa, &[0, 200, 1], 0, 3).is_err());
    }

    #[test]
    fn svcb_https_roundtrip() {
        let svcb = RData::Svcb {
            priority: 0,
            target: n("pool.svc.example.nl"),
            params: vec![],
        };
        assert_eq!(roundtrip(&svcb), svcb);
        let https = RData::Https {
            priority: 1,
            target: n("."),
            params: vec![(1, b"\x02h2".to_vec()), (4, vec![192, 0, 2, 1])],
        };
        assert_eq!(roundtrip(&https), https);
        // truncated param TLV
        assert!(RData::parse(RType::Https, &[0, 1, 0, 0, 1, 0, 9], 0, 7).is_err());
    }

    #[test]
    fn unknown_type_is_opaque() {
        let rd = RData::Unknown {
            rtype: RType::Unknown(4242),
            data: vec![1, 2, 3, 4, 5],
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn ns_with_trailing_garbage_rejected() {
        // valid name followed by an extra byte inside the declared rdlen
        let mut buf = Vec::new();
        n("ns1.nl").encode_uncompressed(&mut buf);
        buf.push(0xff);
        assert!(matches!(
            RData::parse(RType::Ns, &buf, 0, buf.len()),
            Err(WireError::BadRdataLength { .. })
        ));
    }

    #[test]
    fn ds_too_short_rejected() {
        assert!(matches!(
            RData::parse(RType::Ds, &[0, 1, 2], 0, 3),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn compression_pointer_in_rdata_resolves() {
        // message: name at 0, then NS rdata that points back to it
        let mut msg = Vec::new();
        n("example.nl").encode_uncompressed(&mut msg);
        let rdata_at = msg.len();
        msg.extend_from_slice(b"\x03ns1");
        msg.extend_from_slice(&[0xc0, 0x00]);
        let rd = RData::parse(RType::Ns, &msg, rdata_at, msg.len() - rdata_at).unwrap();
        assert_eq!(rd, RData::Ns(n("ns1.example.nl")));
    }
}
