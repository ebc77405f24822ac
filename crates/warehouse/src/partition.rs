//! Partition files: one self-describing blob per (source, hour bucket)
//! holding every [`ColumnarBatch`] column as an individually-encoded
//! segment, a zone-map footer, and a trailing CRC32 over the whole
//! file.
//!
//! Layout (all integers little-endian unless varint):
//!
//! ```text
//! "DNSW" magic | u16 version | u8 column count
//! column × N:   u8 column id | u32 payload length | payload
//! u8 0xEE footer marker | zone map (see below)
//! u32 crc32 of every byte above
//! ```
//!
//! Column encodings are chosen per column: timestamps are
//! zigzag-varint deltas (near-sorted within an hour partition), qnames
//! stay dictionary-encoded (ids varint + the dictionary itself),
//! low-cardinality columns (qtype, rcode, EDNS size, server) are
//! run-length encoded, the binary transport column is bit-packed, and
//! high-entropy columns (source address/port, sizes, RTTs, ASNs) are
//! stored raw or as plain varints.

use crate::codec::{
    crc32, get_bits, get_column, get_deltas, get_rle, get_varints, put_bits, put_deltas, put_rle,
    put_varint, put_varints, DecodeError, Reader,
};
use dns_wire::name::Name;
use entrada::table::{ColumnarBatch, Columns};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

const MAGIC: &[u8; 4] = b"DNSW";
const VERSION: u16 = 1;
const FOOTER_MARKER: u8 = 0xEE;
const COLUMN_COUNT: u8 = 14;

/// Column names in file order (index = column id - 1), for EXPLAIN's
/// per-column byte accounting.
pub const COLUMN_NAMES: [&str; COLUMN_COUNT as usize] = [
    "timestamps",
    "srcs",
    "src_ports",
    "servers",
    "transports",
    "qname_ids",
    "qtypes",
    "edns_sizes",
    "flags",
    "rcodes",
    "response_sizes",
    "tcp_rtts",
    "asns",
    "qname_dict",
];

/// Encoded payload bytes per column (index = column id - 1), as
/// returned by [`decode_profiled`].
pub type ColumnBytes = [u64; COLUMN_COUNT as usize];

/// Distinct-qtype lists longer than this are dropped from the zone map
/// (an empty list means "unknown — cannot prune on qtype").
const MAX_ZONE_QTYPES: usize = 64;

/// Per-partition statistics used to skip the partition without reading
/// its column bytes. Stored both in the partition footer (so the file
/// is self-describing) and in the manifest (so pruning never opens the
/// file at all).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZoneMap {
    /// Rows in the partition.
    pub rows: u64,
    /// Minimum row timestamp, microseconds since the epoch.
    pub min_ts: u64,
    /// Maximum row timestamp, microseconds since the epoch.
    pub max_ts: u64,
    /// Presence bitmap of provider tags: bit `t` set when some row has
    /// [`entrada::table::provider_tag`] `t` (bit 0 = rest of Internet).
    pub providers: u8,
    /// Sorted distinct qtypes, or empty when the partition had more
    /// than `MAX_ZONE_QTYPES` distinct values (= cannot prune).
    pub qtypes: Vec<u16>,
}

/// Why a partition file failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// Shorter than the fixed header + trailer.
    TooShort,
    /// Magic bytes are not `DNSW`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// Stored CRC32 does not match the file contents.
    CrcMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the file.
        computed: u32,
    },
    /// A column segment failed to decode.
    Decode(DecodeError),
    /// Structural problem (bad column id, inconsistent lengths, ...).
    Invalid(&'static str),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::TooShort => write!(f, "truncated (shorter than header + trailer)"),
            PartitionError::BadMagic => write!(f, "bad magic (not a partition file)"),
            PartitionError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            PartitionError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "CRC mismatch (stored {stored:08x}, computed {computed:08x})"
                )
            }
            PartitionError::Decode(e) => write!(f, "column decode failed: {e}"),
            PartitionError::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

impl From<DecodeError> for PartitionError {
    fn from(e: DecodeError) -> Self {
        PartitionError::Decode(e)
    }
}

/// Compute the zone map of a batch (providers derive from the ASN
/// column, exactly as [`ColumnarBatch`] row reconstruction does).
pub fn zone_map_of(batch: &ColumnarBatch) -> ZoneMap {
    let c = batch.columns();
    let mut providers = 0u8;
    for tag in batch.provider_tags() {
        providers |= 1 << tag;
    }
    let mut qtypes: Vec<u16> = c.qtypes.to_vec();
    qtypes.sort_unstable();
    qtypes.dedup();
    if qtypes.len() > MAX_ZONE_QTYPES {
        qtypes.clear();
    }
    ZoneMap {
        rows: c.timestamps.len() as u64,
        min_ts: c.timestamps.iter().copied().min().unwrap_or(0),
        max_ts: c.timestamps.iter().copied().max().unwrap_or(0),
        providers,
        qtypes,
    }
}

fn put_ip(out: &mut Vec<u8>, ip: &IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            out.push(4);
            out.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            out.push(6);
            out.extend_from_slice(&v6.octets());
        }
    }
}

fn get_ip(r: &mut Reader<'_>) -> Result<IpAddr, DecodeError> {
    match r.u8()? {
        4 => {
            let b = r.bytes(4)?;
            Ok(IpAddr::from([b[0], b[1], b[2], b[3]]))
        }
        6 => {
            let b = r.bytes(16)?;
            let mut a = [0u8; 16];
            a.copy_from_slice(b);
            Ok(IpAddr::from(a))
        }
        _ => Err(DecodeError::Invalid("ip tag")),
    }
}

fn put_column(out: &mut Vec<u8>, id: u8, payload: &[u8]) {
    out.push(id);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode a batch into partition-file bytes (including footer + CRC).
/// Returns the bytes and the zone map written into the footer.
pub fn encode(batch: &ColumnarBatch) -> (Vec<u8>, ZoneMap) {
    let c = batch.columns();
    let zone = zone_map_of(batch);
    let mut out = Vec::with_capacity(batch.bytes() / 2 + 64);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(COLUMN_COUNT);

    let mut seg = Vec::new();

    // 1: timestamps — zigzag varint deltas
    put_deltas(&mut seg, &c.timestamps);
    put_column(&mut out, 1, &seg);
    seg.clear();

    // 2: source addresses — raw tag + octets (high entropy)
    put_varint(&mut seg, c.srcs.len() as u64);
    for ip in &c.srcs {
        put_ip(&mut seg, ip);
    }
    put_column(&mut out, 2, &seg);
    seg.clear();

    // 3: source ports — raw u16 LE
    put_varint(&mut seg, c.src_ports.len() as u64);
    for p in &c.src_ports {
        seg.extend_from_slice(&p.to_le_bytes());
    }
    put_column(&mut out, 3, &seg);
    seg.clear();

    // 4: servers — tiny per-partition IP dictionary + RLE indexes
    let mut server_dict: Vec<IpAddr> = Vec::new();
    let indexes: Vec<u64> = c
        .servers
        .iter()
        .map(|ip| {
            if let Some(i) = server_dict.iter().position(|s| s == ip) {
                i as u64
            } else {
                server_dict.push(*ip);
                (server_dict.len() - 1) as u64
            }
        })
        .collect();
    put_varint(&mut seg, server_dict.len() as u64);
    for ip in &server_dict {
        put_ip(&mut seg, ip);
    }
    put_rle(&mut seg, indexes.into_iter());
    put_column(&mut out, 4, &seg);
    seg.clear();

    // 5: transports — one bit per row
    put_bits(&mut seg, &c.transports);
    put_column(&mut out, 5, &seg);
    seg.clear();

    // 6: qname dictionary ids — varints (Zipf head keeps these small)
    put_varints(&mut seg, c.qname_ids.iter().map(|&v| v as u64));
    put_column(&mut out, 6, &seg);
    seg.clear();

    // 7-8: qtypes and EDNS sizes — RLE
    put_rle(&mut seg, c.qtypes.iter().map(|&v| v as u64));
    put_column(&mut out, 7, &seg);
    seg.clear();
    put_rle(&mut seg, c.edns_sizes.iter().map(|&v| v as u64));
    put_column(&mut out, 8, &seg);
    seg.clear();

    // 9: flags — raw bytes (16 combinations, short runs)
    put_varint(&mut seg, c.flags.len() as u64);
    seg.extend_from_slice(&c.flags);
    put_column(&mut out, 9, &seg);
    seg.clear();

    // 10: rcodes — RLE
    put_rle(&mut seg, c.rcodes.iter().map(|&v| v as u64));
    put_column(&mut out, 10, &seg);
    seg.clear();

    // 11-13: response sizes, TCP RTTs, ASNs — plain varints
    put_varints(&mut seg, c.response_sizes.iter().map(|&v| v as u64));
    put_column(&mut out, 11, &seg);
    seg.clear();
    put_varints(&mut seg, c.tcp_rtts.iter().map(|&v| v as u64));
    put_column(&mut out, 12, &seg);
    seg.clear();
    put_varints(&mut seg, c.asns.iter().map(|&v| v as u64));
    put_column(&mut out, 13, &seg);
    seg.clear();

    // 14: qname dictionary — length-prefixed wire-form names in id order
    put_varint(&mut seg, c.dict.len() as u64);
    for name in &c.dict {
        put_varint(&mut seg, name.wire_len() as u64);
        seg.extend_from_slice(name.as_wire());
    }
    put_column(&mut out, 14, &seg);

    // footer: zone map
    out.push(FOOTER_MARKER);
    out.extend_from_slice(&zone.rows.to_le_bytes());
    out.extend_from_slice(&zone.min_ts.to_le_bytes());
    out.extend_from_slice(&zone.max_ts.to_le_bytes());
    out.push(zone.providers);
    put_varint(&mut out, zone.qtypes.len() as u64);
    for q in &zone.qtypes {
        out.extend_from_slice(&q.to_le_bytes());
    }

    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    (out, zone)
}

fn column_payload<'a>(
    r: &mut Reader<'a>,
    profile: &mut ColumnBytes,
    expect_id: u8,
) -> Result<Reader<'a>, PartitionError> {
    let id = r.u8()?;
    if id != expect_id {
        return Err(PartitionError::Invalid("column id"));
    }
    let len = r.u32_le()? as usize;
    profile[expect_id as usize - 1] = len as u64;
    Ok(Reader::new(r.bytes(len)?))
}

/// The per-value conversion of a column stored wider than its type:
/// a value that does not fit is `Invalid(what)`.
fn fits<T: TryFrom<u64>>(what: &'static str) -> impl Fn(u64) -> Result<T, PartitionError> {
    move |v| T::try_from(v).map_err(|_| PartitionError::Invalid(what))
}

/// Decode partition-file bytes back into a batch + its footer zone
/// map, verifying the CRC first (so any flipped bit or truncation is a
/// [`PartitionError`], never bad rows).
pub fn decode(bytes: &[u8]) -> Result<(ColumnarBatch, ZoneMap), PartitionError> {
    decode_profiled(bytes).map(|(batch, zone, _)| (batch, zone))
}

/// [`decode`], additionally returning the encoded payload length of
/// every column segment (indexed by column id - 1, named by
/// [`COLUMN_NAMES`]) so EXPLAIN can report where the decoded bytes
/// went without a second pass over the file.
pub fn decode_profiled(
    bytes: &[u8],
) -> Result<(ColumnarBatch, ZoneMap, ColumnBytes), PartitionError> {
    let mut colbytes: ColumnBytes = [0; COLUMN_COUNT as usize];
    if bytes.len() < MAGIC.len() + 2 + 1 + 1 + 25 + 4 {
        return Err(PartitionError::TooShort);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(PartitionError::CrcMismatch { stored, computed });
    }

    let mut r = Reader::new(body);
    if r.bytes(4)? != MAGIC {
        return Err(PartitionError::BadMagic);
    }
    let version = r.u16_le()?;
    if version != VERSION {
        return Err(PartitionError::BadVersion(version));
    }
    if r.u8()? != COLUMN_COUNT {
        return Err(PartitionError::Invalid("column count"));
    }

    // Every column decodes in one pass straight into its typed Vec. The
    // timestamp column fixes the row count; every other column must
    // declare exactly that many values before anything is reserved.
    let mut cols = Columns::default();

    let mut seg = column_payload(&mut r, &mut colbytes, 1)?;
    cols.timestamps = get_deltas(&mut seg)?;
    let rows = cols.timestamps.len();

    let mut seg = column_payload(&mut r, &mut colbytes, 2)?;
    cols.srcs = get_column(&mut seg, rows, get_ip)?;

    let mut seg = column_payload(&mut r, &mut colbytes, 3)?;
    cols.src_ports = get_column(&mut seg, rows, Reader::u16_le)?;

    let mut seg = column_payload(&mut r, &mut colbytes, 4)?;
    let n = seg.varint_len(seg.remaining() / 5)?; // an address takes 5 bytes or more
    let mut server_dict: Vec<IpAddr> = Vec::with_capacity(n);
    for _ in 0..n {
        server_dict.push(get_ip(&mut seg)?);
    }
    cols.servers = get_rle(&mut seg, rows, |i| {
        server_dict
            .get(i as usize)
            .copied()
            .ok_or(PartitionError::Invalid("server index"))
    })?;

    let mut seg = column_payload(&mut r, &mut colbytes, 5)?;
    cols.transports = get_bits(&mut seg, rows)?;

    let mut seg = column_payload(&mut r, &mut colbytes, 6)?;
    cols.qname_ids = get_varints(&mut seg, rows, fits("qname id"))?;

    let mut seg = column_payload(&mut r, &mut colbytes, 7)?;
    cols.qtypes = get_rle(&mut seg, rows, fits("qtype"))?;

    let mut seg = column_payload(&mut r, &mut colbytes, 8)?;
    cols.edns_sizes = get_rle(&mut seg, rows, fits("edns size"))?;

    let mut seg = column_payload(&mut r, &mut colbytes, 9)?;
    seg.count(rows)?;
    cols.flags = seg.bytes(rows)?.to_vec();

    let mut seg = column_payload(&mut r, &mut colbytes, 10)?;
    cols.rcodes = get_rle(&mut seg, rows, fits("rcode"))?;

    let mut seg = column_payload(&mut r, &mut colbytes, 11)?;
    cols.response_sizes = get_varints(&mut seg, rows, fits("response size"))?;

    let mut seg = column_payload(&mut r, &mut colbytes, 12)?;
    cols.tcp_rtts = get_varints(&mut seg, rows, fits("tcp rtt"))?;

    let mut seg = column_payload(&mut r, &mut colbytes, 13)?;
    cols.asns = get_varints(&mut seg, rows, fits("asn"))?;

    // 14: each entry must be exactly one uncompressed wire-form name —
    // `\x03abc\x00junk` is not `abc.` — parsed once, into the `Name`
    // the batch keeps
    let mut seg = column_payload(&mut r, &mut colbytes, 14)?;
    let n = seg.varint_len(seg.remaining() / 2)?; // an entry takes 2 bytes or more
    cols.dict.reserve_exact(n);
    for _ in 0..n {
        let len = seg.varint_len(seg.remaining())?;
        let wire = seg.bytes(len)?;
        match Name::parse(wire, 0) {
            Ok((name, end)) if end == len => cols.dict.push(name),
            _ => return Err(PartitionError::Invalid("dictionary entry")),
        }
    }

    // footer
    if r.u8()? != FOOTER_MARKER {
        return Err(PartitionError::Invalid("footer marker"));
    }
    let zone_rows = r.u64_le()?;
    if zone_rows != rows as u64 {
        return Err(PartitionError::Invalid("footer row count"));
    }
    let min_ts = r.u64_le()?;
    let max_ts = r.u64_le()?;
    let providers = r.u8()?;
    let qn = r.varint_len(r.remaining() / 2)?;
    let mut qtypes = Vec::with_capacity(qn);
    for _ in 0..qn {
        qtypes.push(r.u16_le()?);
    }
    if !r.is_empty() {
        return Err(PartitionError::Invalid("trailing bytes"));
    }

    let batch = ColumnarBatch::from_columns(cols).map_err(PartitionError::Invalid)?;
    Ok((
        batch,
        ZoneMap {
            rows: zone_rows,
            min_ts,
            max_ts,
            providers,
            qtypes,
        },
        colbytes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use entrada::schema::QueryRow;

    fn sample_batch(n: u64) -> ColumnarBatch {
        let mut batch = ColumnarBatch::new();
        for i in 0..n {
            batch.push(&sample_row(i));
        }
        batch
    }

    fn sample_row(i: u64) -> QueryRow {
        use asdb::registry::Asn;
        use dns_wire::types::{RType, Rcode};
        use netbase::flow::Transport;
        use netbase::time::SimTime;
        QueryRow {
            timestamp: SimTime(1_500_000_000_000_000 + i * 250_000),
            src: if i.is_multiple_of(4) {
                format!("2001:db8::{:x}", i % 200 + 1).parse().unwrap()
            } else {
                format!("198.51.100.{}", i % 250).parse().unwrap()
            },
            src_port: 1024 + (i * 7 % 60_000) as u16,
            server: if i.is_multiple_of(2) {
                "194.0.28.53".parse().unwrap()
            } else {
                "2001:678:2c::53".parse().unwrap()
            },
            transport: if i.is_multiple_of(5) {
                Transport::Tcp
            } else {
                Transport::Udp
            },
            qname: format!("n{}.example.nl.", i % 11).parse().unwrap(),
            qtype: if i.is_multiple_of(3) {
                RType::Aaaa
            } else {
                RType::A
            },
            edns_size: if i.is_multiple_of(4) {
                None
            } else {
                Some(1232)
            },
            do_bit: i.is_multiple_of(2),
            rcode: if i.is_multiple_of(9) {
                None
            } else {
                Some(Rcode::NoError)
            },
            response_size: if i.is_multiple_of(9) {
                None
            } else {
                Some(64 + i as u32 % 900)
            },
            response_truncated: i.is_multiple_of(31),
            tcp_rtt_us: if i.is_multiple_of(5) {
                15_000 + i as u32
            } else {
                0
            },
            asn: if i.is_multiple_of(6) {
                Some(Asn(15169))
            } else {
                Some(Asn(64512 + (i % 20) as u32))
            },
            provider: if i.is_multiple_of(6) {
                Some(asdb::cloud::Provider::Google)
            } else {
                None
            },
            public_dns: false,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let batch = sample_batch(2_000);
        let (bytes, zone) = encode(&batch);
        let (got, footer_zone) = decode(&bytes).expect("decodes");
        assert_eq!(zone, footer_zone);
        assert_eq!(got.len(), batch.len());
        assert_eq!(got.dictionary_size(), batch.dictionary_size());
        for i in 0..batch.len() {
            assert_eq!(got.get(i), batch.get(i));
        }
    }

    #[test]
    fn encoding_is_compact() {
        let batch = sample_batch(10_000);
        let (bytes, _) = encode(&batch);
        assert!(
            bytes.len() < batch.bytes(),
            "encoded {}B vs in-memory {}B",
            bytes.len(),
            batch.bytes()
        );
    }

    #[test]
    fn zone_map_reflects_contents() {
        let batch = sample_batch(600);
        let zone = zone_map_of(&batch);
        assert_eq!(zone.rows, 600);
        assert!(zone.min_ts <= zone.max_ts);
        // rows 0, 6, 12... carry AS15169 = Google (tag 1); others tag 0
        assert_eq!(zone.providers, 0b11);
        assert_eq!(zone.qtypes, vec![1, 28], "A and AAAA");
    }

    #[test]
    fn truncation_detected() {
        let (bytes, _) = encode(&sample_batch(100));
        for cut in [0, 1, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bitflip_detected_by_crc() {
        let (mut bytes, _) = encode(&sample_batch(100));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match decode(&bytes) {
            Err(PartitionError::CrcMismatch { .. }) => {}
            Err(other) => panic!("expected CrcMismatch, got {other:?}"),
            Ok(_) => panic!("expected CrcMismatch, got Ok"),
        }
    }

    /// `bytes` with column `id`'s payload replaced by `payload` and the
    /// CRC re-sealed, so the structural decoder is what judges it.
    fn with_column(bytes: &[u8], id: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = bytes[..7].to_vec();
        let mut pos = 7;
        for col in 1..=COLUMN_COUNT {
            let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
            if col == id {
                put_column(&mut out, id, payload);
            } else {
                out.extend_from_slice(&bytes[pos..pos + 5 + len]);
            }
            pos += 5 + len;
        }
        out.extend_from_slice(&bytes[pos..bytes.len() - 4]);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode_err(bytes: &[u8]) -> PartitionError {
        match decode(bytes) {
            Err(e) => e,
            Ok(_) => panic!("decoded"),
        }
    }

    #[test]
    fn dictionary_entries_must_be_exactly_one_name() {
        // rows alternate between two names: `abc.` and `abd.`
        let mut batch = ColumnarBatch::new();
        for i in 0..4 {
            let mut row = sample_row(i);
            row.qname = if i % 2 == 0 { "abc." } else { "abd." }.parse().unwrap();
            batch.push(&row);
        }
        let (bytes, _) = encode(&batch);
        let dict = |entries: &[&[u8]]| {
            let mut seg = Vec::new();
            put_varint(&mut seg, entries.len() as u64);
            for e in entries {
                put_varint(&mut seg, e.len() as u64);
                seg.extend_from_slice(e);
            }
            seg
        };
        let good = with_column(&bytes, 14, &dict(&[b"\x03abc\x00", b"\x03abd\x00"]));
        assert_eq!(
            good, bytes,
            "the helper re-seals an unchanged file unchanged"
        );
        // a name that ends before its entry does, beside the real `abc.`
        let junk = with_column(&bytes, 14, &dict(&[b"\x03abc\x00", b"\x03abc\x00junk"]));
        assert_eq!(
            decode_err(&junk),
            PartitionError::Invalid("dictionary entry")
        );
        // a compression pointer has nothing to point back to
        let pointer = with_column(&bytes, 14, &dict(&[b"\x03abc\x00", b"\xc0\x00"]));
        assert_eq!(
            decode_err(&pointer),
            PartitionError::Invalid("dictionary entry")
        );
        // an exact duplicate is caught by the intern index
        let dup = with_column(&bytes, 14, &dict(&[b"\x03abc\x00", b"\x03abc\x00"]));
        assert_eq!(
            decode_err(&dup),
            PartitionError::Invalid("duplicate dictionary entry")
        );
        // a case variant is a distinct entry, and rebuilds with its own octets
        let case = with_column(&bytes, 14, &dict(&[b"\x03abc\x00", b"\x03ABC\x00"]));
        let (got, _) = decode(&case).expect("case variants are distinct entries");
        assert_eq!(got.get(0).qname.as_wire(), b"\x03abc\x00");
        assert_eq!(got.get(1).qname.as_wire(), b"\x03ABC\x00");
    }

    #[test]
    fn column_counts_must_match_the_row_count_before_reserving() {
        let (bytes, _) = encode(&sample_batch(10));
        for id in [2u8, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13] {
            for declared in [9u64, 11, u64::MAX >> 1] {
                // a count that would reserve petabytes if it were trusted
                let mut seg = Vec::new();
                put_varint(&mut seg, declared);
                seg.extend_from_slice(&[0; 16]);
                assert_eq!(
                    decode_err(&with_column(&bytes, id, &seg)),
                    PartitionError::Decode(DecodeError::Invalid("column length")),
                    "column {id} declaring {declared} of 10 rows"
                );
            }
        }
    }

    #[test]
    fn typed_decoders_reject_what_does_not_fit() {
        let (bytes, _) = encode(&sample_batch(10));
        // a qtype over 65,535
        let mut seg = Vec::new();
        put_rle(&mut seg, std::iter::repeat_n(65_536u64, 10));
        assert_eq!(
            decode_err(&with_column(&bytes, 7, &seg)),
            PartitionError::Invalid("qtype")
        );
        // a server index past its per-partition dictionary
        let mut seg = Vec::new();
        put_varint(&mut seg, 1);
        put_ip(&mut seg, &"194.0.28.53".parse().unwrap());
        put_rle(&mut seg, [0u64, 0, 0, 0, 0, 0, 0, 0, 0, 1].into_iter());
        assert_eq!(
            decode_err(&with_column(&bytes, 4, &seg)),
            PartitionError::Invalid("server index")
        );
        // a run longer than its column
        let mut seg = Vec::new();
        put_varint(&mut seg, 10);
        put_varint(&mut seg, 11);
        put_varint(&mut seg, 1);
        assert_eq!(
            decode_err(&with_column(&bytes, 10, &seg)),
            PartitionError::Decode(DecodeError::Invalid("run length"))
        );
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = ColumnarBatch::new();
        let (bytes, zone) = encode(&batch);
        assert_eq!(zone.rows, 0);
        let (got, _) = decode(&bytes).expect("decodes");
        assert!(got.is_empty());
    }
}
