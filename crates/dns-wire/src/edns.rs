//! EDNS(0), RFC 6891: the OPT pseudo-record.
//!
//! The OPT record's *requestor UDP payload size* field is the subject of
//! the paper's Figure 6 (CDF of EDNS(0) UDP message size, Facebook vs
//! Google) and drives the truncation / TCP-fallback behaviour of §4.4:
//! an authoritative answer larger than the advertised size is truncated,
//! forcing the resolver to retry over TCP.

use crate::error::WireError;
use crate::types::RType;

/// The classic pre-EDNS UDP payload limit (RFC 1035 §4.2.1).
pub const CLASSIC_UDP_LIMIT: u16 = 512;
/// The DNS-flag-day-2020 recommended payload size, widely used by
/// Google/Microsoft resolvers in the paper's w2020 data.
pub const FLAG_DAY_2020_SIZE: u16 = 1232;

/// A decoded EDNS(0) OPT pseudo-record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edns {
    /// Requestor's advertised maximum UDP payload size.
    pub udp_payload_size: u16,
    /// Extended-rcode high bits (combined with the header's low 4 bits).
    pub extended_rcode_bits: u8,
    /// EDNS version; 0 is the only deployed version.
    pub version: u8,
    /// DNSSEC-OK bit: the requestor wants DNSSEC records in the answer.
    pub dnssec_ok: bool,
    /// Uninterpreted options (code, payload) — e.g. cookies, NSID.
    pub options: Vec<(u16, Vec<u8>)>,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload_size: FLAG_DAY_2020_SIZE,
            extended_rcode_bits: 0,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }
}

impl Edns {
    /// A plain OPT advertising `size` bytes, optionally with DO set.
    pub fn with_size(size: u16, dnssec_ok: bool) -> Self {
        Edns {
            udp_payload_size: size,
            dnssec_ok,
            ..Default::default()
        }
    }

    /// The effective UDP limit this OPT imposes on a responder: values
    /// below 512 are treated as 512 (RFC 6891 §6.2.5).
    pub fn effective_udp_limit(&self) -> u16 {
        self.udp_payload_size.max(CLASSIC_UDP_LIMIT)
    }

    /// Decode from the generic record fields of an additional-section
    /// record whose type is OPT. `class_field` carries the payload size,
    /// `ttl_field` the extended rcode/version/flags (RFC 6891 §6.1.3).
    pub fn from_record_fields(
        class_field: u16,
        ttl_field: u32,
        rdata: &[u8],
    ) -> Result<Edns, WireError> {
        let mut options = Vec::new();
        for option in (Options { rdata, pos: 0 }) {
            let (code, payload) = option?;
            options.push((code, payload.to_vec()));
        }
        Ok(Edns {
            udp_payload_size: class_field,
            extended_rcode_bits: (ttl_field >> 24) as u8,
            version: (ttl_field >> 16) as u8,
            dnssec_ok: ttl_field & 0x8000 != 0,
            options,
        })
    }

    /// Check an OPT's RDATA as [`Edns::from_record_fields`] does, to the
    /// same error, without copying its options out.
    pub(crate) fn check_options(rdata: &[u8]) -> Result<(), WireError> {
        Options { rdata, pos: 0 }.try_for_each(|option| option.map(drop))
    }

    /// Encode as a full additional-section record (owner = root).
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_with_rcode_bits(self.extended_rcode_bits, out);
    }

    /// [`Edns::encode`] with the extended-rcode high bits overridden —
    /// used by message encoding to merge the header's rcode without
    /// cloning the OPT.
    pub fn encode_with_rcode_bits(&self, rcode_bits: u8, out: &mut Vec<u8>) {
        out.push(0); // root owner name, uncompressed
        out.extend_from_slice(&RType::Opt.to_u16().to_be_bytes());
        out.extend_from_slice(&self.udp_payload_size.to_be_bytes());
        let mut ttl: u32 = ((rcode_bits as u32) << 24) | ((self.version as u32) << 16);
        if self.dnssec_ok {
            ttl |= 0x8000;
        }
        out.extend_from_slice(&ttl.to_be_bytes());
        // RDLENGTH is patched once the options are written
        let rdlen_at = out.len();
        out.extend_from_slice(&[0, 0]);
        for (code, payload) in &self.options {
            out.extend_from_slice(&code.to_be_bytes());
            out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
            out.extend_from_slice(payload);
        }
        let rdlen = (out.len() - rdlen_at - 2) as u16;
        out[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    /// Encoded size in octets.
    pub fn encoded_len(&self) -> usize {
        11 + self.options.iter().map(|(_, p)| 4 + p.len()).sum::<usize>()
    }
}

/// The `(code, payload)` options of an OPT's RDATA, in order; an
/// option that runs past the end is an error, and the last item.
struct Options<'a> {
    rdata: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for Options<'a> {
    type Item = Result<(u16, &'a [u8]), WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (rdata, pos) = (self.rdata, self.pos);
        if pos >= rdata.len() {
            return None;
        }
        // an error ends the walk
        self.pos = rdata.len();
        if pos + 4 > rdata.len() {
            return Some(Err(WireError::Truncated { offset: pos }));
        }
        let code = u16::from_be_bytes([rdata[pos], rdata[pos + 1]]);
        let len = u16::from_be_bytes([rdata[pos + 2], rdata[pos + 3]]) as usize;
        let Some(payload) = rdata.get(pos + 4..pos + 4 + len) else {
            return Some(Err(WireError::Truncated { offset: pos + 4 }));
        };
        self.pos = pos + 4 + len;
        Some(Ok((code, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_plain() {
        let e = Edns::with_size(4096, true);
        let mut out = Vec::new();
        e.encode(&mut out);
        assert_eq!(out.len(), e.encoded_len());
        // skip name(1) + type(2): class at 3..5, ttl at 5..9, rdlen 9..11
        let class = u16::from_be_bytes([out[3], out[4]]);
        let ttl = u32::from_be_bytes([out[5], out[6], out[7], out[8]]);
        let rdlen = u16::from_be_bytes([out[9], out[10]]) as usize;
        let parsed = Edns::from_record_fields(class, ttl, &out[11..11 + rdlen]).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn roundtrip_with_options() {
        let e = Edns {
            udp_payload_size: 1232,
            extended_rcode_bits: 1,
            version: 0,
            dnssec_ok: false,
            options: vec![(10, vec![1, 2, 3, 4, 5, 6, 7, 8]), (3, vec![])],
        };
        let mut out = Vec::new();
        e.encode(&mut out);
        let class = u16::from_be_bytes([out[3], out[4]]);
        let ttl = u32::from_be_bytes([out[5], out[6], out[7], out[8]]);
        let rdlen = u16::from_be_bytes([out[9], out[10]]) as usize;
        let parsed = Edns::from_record_fields(class, ttl, &out[11..11 + rdlen]).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn truncated_option_rejected() {
        assert!(matches!(
            Edns::from_record_fields(512, 0, &[0, 10, 0, 9, 1, 2]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            Edns::from_record_fields(512, 0, &[0, 10, 0]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn effective_limit_floors_at_512() {
        assert_eq!(Edns::with_size(0, false).effective_udp_limit(), 512);
        assert_eq!(Edns::with_size(100, false).effective_udp_limit(), 512);
        assert_eq!(Edns::with_size(512, false).effective_udp_limit(), 512);
        assert_eq!(Edns::with_size(1232, false).effective_udp_limit(), 1232);
    }

    #[test]
    fn do_bit_placement() {
        let e = Edns::with_size(512, true);
        let mut out = Vec::new();
        e.encode(&mut out);
        let ttl = u32::from_be_bytes([out[5], out[6], out[7], out[8]]);
        assert_eq!(ttl, 0x8000);
    }
}
