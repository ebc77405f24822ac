//! Core DNS enumerations: record types, classes, opcodes and rcodes.
//!
//! All enums round-trip through their numeric wire representation and keep
//! unknown code points (as `Unknown(u16)` / `Unknown(u8)`), because a
//! passive measurement pipeline must classify, not reject, exotic traffic.

use core::fmt;

/// A DNS resource-record type (the TYPE / QTYPE field).
///
/// The set of named variants covers every type the IMC'20 analysis
/// inspects (Figure 2 distinguishes A, AAAA, NS, DS, DNSKEY, MX, SOA,
/// TXT and "other"). Anything else is preserved as [`RType::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RType {
    /// IPv4 host address (RFC 1035).
    A,
    /// Authoritative name server (RFC 1035).
    Ns,
    /// Canonical alias name (RFC 1035).
    Cname,
    /// Start of authority (RFC 1035).
    Soa,
    /// Domain-name pointer, used for reverse DNS (RFC 1035).
    Ptr,
    /// Mail exchange (RFC 1035).
    Mx,
    /// Free-form text strings (RFC 1035).
    Txt,
    /// IPv6 host address (RFC 3596).
    Aaaa,
    /// Server selection (RFC 2782).
    Srv,
    /// Naming-authority pointer (RFC 3403).
    Naptr,
    /// Delegation signer digest (RFC 4034).
    Ds,
    /// DNSSEC signature (RFC 4034).
    Rrsig,
    /// Authenticated denial of existence (RFC 4034).
    Nsec,
    /// DNSSEC public key (RFC 4034).
    Dnskey,
    /// Hashed authenticated denial (RFC 5155).
    Nsec3,
    /// EDNS(0) pseudo-record (RFC 6891); only valid in the additional section.
    Opt,
    /// TLSA certificate association (RFC 6698).
    Tlsa,
    /// Child DS (RFC 7344).
    Cds,
    /// Child DNSKEY (RFC 7344).
    Cdnskey,
    /// Certification Authority Authorization (RFC 8659).
    Caa,
    /// HTTPS service binding (RFC 9460).
    Https,
    /// Service binding (RFC 9460).
    Svcb,
    /// Any (the QTYPE `*` of RFC 1035, deprecated by RFC 8482).
    Any,
    /// A type code this crate has no named variant for.
    Unknown(u16),
}

impl RType {
    /// Decode from the 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RType::A,
            2 => RType::Ns,
            5 => RType::Cname,
            6 => RType::Soa,
            12 => RType::Ptr,
            15 => RType::Mx,
            16 => RType::Txt,
            28 => RType::Aaaa,
            33 => RType::Srv,
            35 => RType::Naptr,
            43 => RType::Ds,
            46 => RType::Rrsig,
            47 => RType::Nsec,
            48 => RType::Dnskey,
            50 => RType::Nsec3,
            41 => RType::Opt,
            52 => RType::Tlsa,
            59 => RType::Cds,
            60 => RType::Cdnskey,
            257 => RType::Caa,
            65 => RType::Https,
            64 => RType::Svcb,
            255 => RType::Any,
            other => RType::Unknown(other),
        }
    }

    /// Encode to the 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RType::A => 1,
            RType::Ns => 2,
            RType::Cname => 5,
            RType::Soa => 6,
            RType::Ptr => 12,
            RType::Mx => 15,
            RType::Txt => 16,
            RType::Aaaa => 28,
            RType::Srv => 33,
            RType::Naptr => 35,
            RType::Ds => 43,
            RType::Rrsig => 46,
            RType::Nsec => 47,
            RType::Dnskey => 48,
            RType::Nsec3 => 50,
            RType::Opt => 41,
            RType::Tlsa => 52,
            RType::Cds => 59,
            RType::Cdnskey => 60,
            RType::Caa => 257,
            RType::Https => 65,
            RType::Svcb => 64,
            RType::Any => 255,
            RType::Unknown(v) => v,
        }
    }

    /// True for the record types that only appear in DNSSEC validation
    /// traffic (the signal behind Figure 2's DS/DNSKEY analysis).
    pub fn is_dnssec(self) -> bool {
        matches!(
            self,
            RType::Ds
                | RType::Dnskey
                | RType::Rrsig
                | RType::Nsec
                | RType::Nsec3
                | RType::Cds
                | RType::Cdnskey
        )
    }

    /// The mnemonic, as used in zone files and in the paper's figures.
    pub fn mnemonic(self) -> String {
        match self {
            RType::A => "A".into(),
            RType::Ns => "NS".into(),
            RType::Cname => "CNAME".into(),
            RType::Soa => "SOA".into(),
            RType::Ptr => "PTR".into(),
            RType::Mx => "MX".into(),
            RType::Txt => "TXT".into(),
            RType::Aaaa => "AAAA".into(),
            RType::Srv => "SRV".into(),
            RType::Naptr => "NAPTR".into(),
            RType::Ds => "DS".into(),
            RType::Rrsig => "RRSIG".into(),
            RType::Nsec => "NSEC".into(),
            RType::Dnskey => "DNSKEY".into(),
            RType::Nsec3 => "NSEC3".into(),
            RType::Opt => "OPT".into(),
            RType::Tlsa => "TLSA".into(),
            RType::Cds => "CDS".into(),
            RType::Cdnskey => "CDNSKEY".into(),
            RType::Caa => "CAA".into(),
            RType::Https => "HTTPS".into(),
            RType::Svcb => "SVCB".into(),
            RType::Any => "ANY".into(),
            RType::Unknown(v) => format!("TYPE{v}"),
        }
    }
}

impl fmt::Display for RType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

impl serde::Serialize for RType {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.mnemonic())
    }
}

impl<'de> serde::Deserialize<'de> for RType {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        // accept both mnemonics and RFC 3597 "TYPEnnn"
        let known = [
            RType::A,
            RType::Ns,
            RType::Cname,
            RType::Soa,
            RType::Ptr,
            RType::Mx,
            RType::Txt,
            RType::Aaaa,
            RType::Srv,
            RType::Naptr,
            RType::Ds,
            RType::Rrsig,
            RType::Nsec,
            RType::Dnskey,
            RType::Nsec3,
            RType::Opt,
            RType::Tlsa,
            RType::Cds,
            RType::Cdnskey,
            RType::Caa,
            RType::Https,
            RType::Svcb,
            RType::Any,
        ];
        if let Some(t) = known.iter().find(|t| t.mnemonic() == s) {
            return Ok(*t);
        }
        if let Some(num) = s.strip_prefix("TYPE") {
            if let Ok(v) = num.parse::<u16>() {
                return Ok(RType::from_u16(v));
            }
        }
        Err(serde::de::Error::custom(format!(
            "unknown record type {s:?}"
        )))
    }
}

/// A DNS class (the CLASS / QCLASS field). Almost always `In`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RClass {
    /// The Internet.
    In,
    /// Chaosnet, still used for `version.bind` style probes.
    Ch,
    /// Hesiod.
    Hs,
    /// QCLASS NONE (RFC 2136).
    None,
    /// QCLASS ANY.
    Any,
    /// Unrecognized class.
    Unknown(u16),
}

impl RClass {
    /// Decode from the 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RClass::In,
            3 => RClass::Ch,
            4 => RClass::Hs,
            254 => RClass::None,
            255 => RClass::Any,
            other => RClass::Unknown(other),
        }
    }

    /// Encode to the 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RClass::In => 1,
            RClass::Ch => 3,
            RClass::Hs => 4,
            RClass::None => 254,
            RClass::Any => 255,
            RClass::Unknown(v) => v,
        }
    }
}

/// A DNS opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// Unrecognized opcode.
    Unknown(u8),
}

impl Opcode {
    /// Decode from the 4-bit wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }

    /// Encode to the 4-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(v) => v & 0x0f,
        }
    }
}

/// A DNS response code.
///
/// The paper's "junk" definition (§3) is *any query whose response carries
/// a non-NOERROR rcode*; [`Rcode::is_junk`] encodes exactly that test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rcode {
    /// No error (0).
    NoError,
    /// Format error (1).
    FormErr,
    /// Server failure (2).
    ServFail,
    /// Non-existent domain (3).
    NxDomain,
    /// Not implemented (4).
    NotImp,
    /// Refused (5).
    Refused,
    /// YXDOMAIN (6, RFC 2136).
    YxDomain,
    /// NOTAUTH (9).
    NotAuth,
    /// BADVERS / BADSIG (16, with EDNS extension bits).
    BadVers,
    /// Unrecognized rcode (includes extended values carried by OPT).
    Unknown(u16),
}

impl Rcode {
    /// Decode from the (possibly EDNS-extended) numeric value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            6 => Rcode::YxDomain,
            9 => Rcode::NotAuth,
            16 => Rcode::BadVers,
            other => Rcode::Unknown(other),
        }
    }

    /// Encode to the numeric value (low 4 bits go in the header; the high
    /// 8 bits, if any, belong in the OPT TTL per RFC 6891).
    pub fn to_u16(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::YxDomain => 6,
            Rcode::NotAuth => 9,
            Rcode::BadVers => 16,
            Rcode::Unknown(v) => v,
        }
    }

    /// The paper's §3 junk rule: anything but NOERROR.
    pub fn is_junk(self) -> bool {
        self != Rcode::NoError
    }

    /// Presentation mnemonic.
    pub fn mnemonic(self) -> String {
        match self {
            Rcode::NoError => "NOERROR".into(),
            Rcode::FormErr => "FORMERR".into(),
            Rcode::ServFail => "SERVFAIL".into(),
            Rcode::NxDomain => "NXDOMAIN".into(),
            Rcode::NotImp => "NOTIMP".into(),
            Rcode::Refused => "REFUSED".into(),
            Rcode::YxDomain => "YXDOMAIN".into(),
            Rcode::NotAuth => "NOTAUTH".into(),
            Rcode::BadVers => "BADVERS".into(),
            Rcode::Unknown(v) => format!("RCODE{v}"),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtype_roundtrip_named() {
        for v in 0..300u16 {
            let t = RType::from_u16(v);
            assert_eq!(t.to_u16(), v, "rtype {v} must round-trip");
        }
    }

    #[test]
    fn rtype_known_codes() {
        assert_eq!(RType::from_u16(1), RType::A);
        assert_eq!(RType::from_u16(28), RType::Aaaa);
        assert_eq!(RType::from_u16(2), RType::Ns);
        assert_eq!(RType::from_u16(43), RType::Ds);
        assert_eq!(RType::from_u16(48), RType::Dnskey);
        assert_eq!(RType::from_u16(41), RType::Opt);
        assert_eq!(RType::from_u16(9999), RType::Unknown(9999));
    }

    #[test]
    fn dnssec_classification() {
        assert!(RType::Ds.is_dnssec());
        assert!(RType::Dnskey.is_dnssec());
        assert!(RType::Rrsig.is_dnssec());
        assert!(!RType::A.is_dnssec());
        assert!(!RType::Ns.is_dnssec());
        assert!(!RType::Opt.is_dnssec());
    }

    #[test]
    fn rclass_roundtrip() {
        for v in [1u16, 3, 4, 254, 255, 42] {
            assert_eq!(RClass::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn opcode_roundtrip_masks_high_bits() {
        for v in 0..16u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v & 0x0f);
        }
        assert_eq!(Opcode::from_u8(0x10), Opcode::Query, "high bits ignored");
    }

    #[test]
    fn rcode_junk_rule_matches_paper() {
        assert!(!Rcode::NoError.is_junk());
        for r in [
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::Refused,
            Rcode::Unknown(23),
        ] {
            assert!(r.is_junk(), "{r} must count as junk");
        }
    }

    #[test]
    fn rcode_roundtrip() {
        for v in 0..20u16 {
            assert_eq!(Rcode::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn rtype_serde_roundtrip() {
        for v in [1u16, 2, 28, 43, 48, 65, 255, 999] {
            let t = RType::from_u16(v);
            let json = serde_json::to_string(&t).unwrap();
            let back: RType = serde_json::from_str(&json).unwrap();
            assert_eq!(back, t, "{json}");
        }
        assert_eq!(serde_json::to_string(&RType::Aaaa).unwrap(), "\"AAAA\"");
        let t: RType = serde_json::from_str("\"TYPE4242\"").unwrap();
        assert_eq!(t, RType::Unknown(4242));
        assert!(serde_json::from_str::<RType>("\"NOPE\"").is_err());
    }

    #[test]
    fn mnemonics() {
        assert_eq!(RType::Aaaa.to_string(), "AAAA");
        assert_eq!(RType::Unknown(300).to_string(), "TYPE300");
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
    }
}
