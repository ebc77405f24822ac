//! Columnar row batches: the warehouse's in-memory representation.
//!
//! ENTRADA stores joined query rows in columnar form (Parquet); this is
//! the same idea at library scale. A [`ColumnarBatch`] holds each field
//! of [`QueryRow`] in its own dense column, with qnames
//! dictionary-encoded into a shared arena — repeated names (the Zipf
//! head, minimized Q-min names) are stored once. Multi-pass analyses
//! can hold tens of millions of rows this way at a fraction of the
//! row-struct footprint.

use crate::schema::QueryRow;
use asdb::cloud::Provider;
use asdb::registry::Asn;
use dns_wire::name::Name;
use dns_wire::types::{RType, Rcode};
use netbase::flow::Transport;
use netbase::time::SimTime;
use std::collections::HashMap;
use std::net::IpAddr;

/// Provider tag stored per row (one byte): 0 = rest of the Internet,
/// 1..=5 the five paper providers in [`asdb::cloud::ALL_PROVIDERS`]
/// order. Shared with the warehouse's zone maps, which prune
/// partitions on the same tags.
pub fn provider_tag(p: Option<Provider>) -> u8 {
    match p {
        None => 0,
        Some(Provider::Google) => 1,
        Some(Provider::Amazon) => 2,
        Some(Provider::Microsoft) => 3,
        Some(Provider::Facebook) => 4,
        Some(Provider::Cloudflare) => 5,
    }
}

/// Inverse of [`provider_tag`] (unknown tags map to `None`).
pub fn tag_provider(t: u8) -> Option<Provider> {
    match t {
        1 => Some(Provider::Google),
        2 => Some(Provider::Amazon),
        3 => Some(Provider::Microsoft),
        4 => Some(Provider::Facebook),
        5 => Some(Provider::Cloudflare),
        _ => None,
    }
}

/// A dictionary-encoded columnar batch of query rows: the raw
/// [`Columns`] plus a lookup index over the qname dictionary.
#[derive(Default)]
pub struct ColumnarBatch {
    cols: Columns,
    dict_index: HashMap<Vec<u8>, u32>,
}

impl ColumnarBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one row.
    pub fn push(&mut self, row: &QueryRow) {
        let qname_id = self.intern(row.qname.as_wire());
        let c = &mut self.cols;
        c.timestamps.push(row.timestamp.as_micros());
        c.srcs.push(row.src);
        c.src_ports.push(row.src_port);
        c.servers.push(row.server);
        c.transports.push(match row.transport {
            Transport::Udp => 0,
            Transport::Tcp => 1,
        });
        c.qname_ids.push(qname_id);
        c.qtypes.push(row.qtype.to_u16());
        c.edns_sizes.push(row.edns_size.unwrap_or(u16::MAX));
        let mut flags = 0u8;
        if row.do_bit {
            flags |= 1;
        }
        if row.response_truncated {
            flags |= 2;
        }
        if row.public_dns {
            flags |= 4;
        }
        if row.rcode.is_some() {
            flags |= 8;
        }
        c.flags.push(flags);
        c.rcodes.push(row.rcode.map(Rcode::to_u16).unwrap_or(0));
        c.response_sizes.push(row.response_size.unwrap_or(0));
        c.tcp_rtts.push(row.tcp_rtt_us);
        c.asns.push(row.asn.map(|a| a.0).unwrap_or(0));
    }

    fn intern(&mut self, wire: &[u8]) -> u32 {
        if let Some(&id) = self.dict_index.get(wire) {
            return id;
        }
        let id = self.cols.dict_offsets.len() as u32;
        let start = self.cols.dict_arena.len() as u32;
        self.cols.dict_arena.extend_from_slice(wire);
        self.cols.dict_offsets.push((start, wire.len() as u32));
        self.dict_index.insert(wire.to_vec(), id);
        id
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.timestamps.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cols.timestamps.is_empty()
    }

    /// Distinct qnames in the dictionary.
    pub fn dictionary_size(&self) -> usize {
        self.cols.dict_offsets.len()
    }

    /// Reconstruct row `i`.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn get(&self, i: usize) -> QueryRow {
        let c = &self.cols;
        let (start, len) = c.dict_offsets[c.qname_ids[i] as usize];
        let wire = &c.dict_arena[start as usize..(start + len) as usize];
        let (qname, _) = Name::parse(wire, 0).expect("dictionary holds valid names");
        let flags = c.flags[i];
        QueryRow {
            timestamp: SimTime(c.timestamps[i]),
            src: c.srcs[i],
            src_port: c.src_ports[i],
            server: c.servers[i],
            transport: if c.transports[i] == 0 {
                Transport::Udp
            } else {
                Transport::Tcp
            },
            qname,
            qtype: RType::from_u16(c.qtypes[i]),
            edns_size: match c.edns_sizes[i] {
                u16::MAX => None,
                v => Some(v),
            },
            do_bit: flags & 1 != 0,
            rcode: if flags & 8 != 0 {
                Some(Rcode::from_u16(c.rcodes[i]))
            } else {
                None
            },
            response_size: match c.response_sizes[i] {
                0 => None,
                v => Some(v),
            },
            response_truncated: flags & 2 != 0,
            tcp_rtt_us: c.tcp_rtts[i],
            asn: match c.asns[i] {
                0 => None,
                v => Some(Asn(v)),
            },
            provider: tag_provider(asn_provider_tag(c.asns[i])),
            public_dns: flags & 4 != 0,
        }
    }

    /// Iterate reconstructed rows.
    pub fn iter(&self) -> impl Iterator<Item = QueryRow> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Indices of rows from `provider` (None = the rest of the
    /// Internet) — a columnar predicate scan.
    pub fn filter_provider(&self, provider: Option<Provider>) -> Vec<usize> {
        let tag = provider_tag(provider);
        self.provider_tags()
            .enumerate()
            .filter(|(_, t)| *t == tag)
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-row provider tags (see [`provider_tag`]), derived from the
    /// ASN column — providers are not stored per row.
    pub fn provider_tags(&self) -> impl Iterator<Item = u8> + '_ {
        self.cols.asns.iter().copied().map(asn_provider_tag)
    }

    /// Merge another batch in: columns are appended, the other batch's
    /// dictionary ids are remapped through this batch's dictionary
    /// (shared names stay stored once). Equivalent to pushing the other
    /// batch's rows in order, without reconstructing them.
    pub fn merge(&mut self, other: ColumnarBatch) {
        let other = other.cols;
        let remap: Vec<u32> = other
            .dict_offsets
            .iter()
            .map(|&(start, len)| {
                self.intern(&other.dict_arena[start as usize..(start + len) as usize])
            })
            .collect();
        let c = &mut self.cols;
        c.qname_ids
            .extend(other.qname_ids.iter().map(|&id| remap[id as usize]));
        c.timestamps.extend(other.timestamps);
        c.srcs.extend(other.srcs);
        c.src_ports.extend(other.src_ports);
        c.servers.extend(other.servers);
        c.transports.extend(other.transports);
        c.qtypes.extend(other.qtypes);
        c.edns_sizes.extend(other.edns_sizes);
        c.flags.extend(other.flags);
        c.rcodes.extend(other.rcodes);
        c.response_sizes.extend(other.response_sizes);
        c.tcp_rtts.extend(other.tcp_rtts);
        c.asns.extend(other.asns);
    }

    /// Heap footprint estimate of the batch, bytes: every column at
    /// `len * size_of::<elem>()` plus the dictionary arena, offsets,
    /// and an estimate for the dictionary hash index. The warehouse
    /// appender flushes partitions when this crosses its byte budget.
    ///
    /// (This supersedes an earlier formula that under-counted by one
    /// `u16` column per row — `rcodes` was missed.)
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.cols.timestamps.len()
            * (size_of::<u64>()                 // timestamps
                + size_of::<IpAddr>() * 2       // srcs, servers
                + size_of::<u16>() * 4          // src_ports, qtypes, edns_sizes, rcodes
                + size_of::<u8>() * 2           // transports, flags
                + size_of::<u32>() * 4)         // qname_ids, response_sizes, tcp_rtts, asns
            + self.cols.dict_arena.len()
            + self.cols.dict_offsets.len() * size_of::<(u32, u32)>()
            + self.dict_index.len() * 48
    }

    /// The raw columns, for serialization (the `warehouse` crate
    /// encodes these into partition files).
    pub fn columns(&self) -> &Columns {
        &self.cols
    }

    /// Rebuild a batch from raw columns (the inverse of [`columns`]
    /// after a serialization round trip). Validates column lengths,
    /// dictionary offsets, and qname ids so a decoder bug or corrupt
    /// file surfaces as an error here rather than a panic later.
    ///
    /// [`columns`]: ColumnarBatch::columns
    pub fn from_columns(c: Columns) -> Result<ColumnarBatch, &'static str> {
        let n = c.timestamps.len();
        if [
            c.srcs.len(),
            c.src_ports.len(),
            c.servers.len(),
            c.transports.len(),
            c.qname_ids.len(),
            c.qtypes.len(),
            c.edns_sizes.len(),
            c.flags.len(),
            c.rcodes.len(),
            c.response_sizes.len(),
            c.tcp_rtts.len(),
            c.asns.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err("column lengths disagree");
        }
        for &(start, len) in &c.dict_offsets {
            let end = (start as usize).checked_add(len as usize);
            if end.is_none_or(|e| e > c.dict_arena.len()) {
                return Err("dictionary offset out of arena bounds");
            }
        }
        let dict_len = c.dict_offsets.len() as u32;
        if c.qname_ids.iter().any(|&id| id >= dict_len) {
            return Err("qname id out of dictionary bounds");
        }
        let mut dict_index = HashMap::with_capacity(c.dict_offsets.len());
        for (id, &(start, len)) in c.dict_offsets.iter().enumerate() {
            let wire = c.dict_arena[start as usize..(start + len) as usize].to_vec();
            if Name::parse(&wire, 0).is_err() {
                return Err("dictionary entry is not a valid wire-form name");
            }
            if dict_index.insert(wire, id as u32).is_some() {
                return Err("duplicate dictionary entry");
            }
        }
        Ok(ColumnarBatch {
            cols: c,
            dict_index,
        })
    }
}

/// The raw columns of a [`ColumnarBatch`], one element per row except
/// the dictionary. Sentinels: `edns_sizes` uses `u16::MAX` for absent,
/// `response_sizes` 0 for `None`, `asns` 0 for unattributed, and
/// `flags` packs `do`/`truncated`/`public_dns`/`answered` in bits 0-3.
/// A batch only hands these out by `&`; [`ColumnarBatch::from_columns`]
/// validates a set before it becomes a batch.
#[derive(Default, Clone)]
pub struct Columns {
    /// Microseconds since the epoch, one per row.
    pub timestamps: Vec<u64>,
    /// Resolver source addresses.
    pub srcs: Vec<IpAddr>,
    /// Source ports.
    pub src_ports: Vec<u16>,
    /// Authoritative server addresses.
    pub servers: Vec<IpAddr>,
    /// 0 = UDP, 1 = TCP.
    pub transports: Vec<u8>,
    /// Indexes into `dict_offsets`.
    pub qname_ids: Vec<u32>,
    /// Query types as raw u16.
    pub qtypes: Vec<u16>,
    /// EDNS sizes (`u16::MAX` = absent).
    pub edns_sizes: Vec<u16>,
    /// Packed per-row flag bits.
    pub flags: Vec<u8>,
    /// Response codes (valid only when flag bit 3 set).
    pub rcodes: Vec<u16>,
    /// Response sizes (0 = unanswered).
    pub response_sizes: Vec<u32>,
    /// TCP handshake RTTs, microseconds (0 for UDP).
    pub tcp_rtts: Vec<u32>,
    /// Origin AS numbers (0 = unattributed).
    pub asns: Vec<u32>,
    /// `(start, len)` spans into `dict_arena`, one per dictionary id.
    pub dict_offsets: Vec<(u32, u32)>,
    /// Wire-form qname bytes, concatenated.
    pub dict_arena: Vec<u8>,
}

/// The provider tag of an ASN-column value (0 = unmapped): providers
/// are not stored per row, they derive from the 20 known cloud ASes.
fn asn_provider_tag(asn: u32) -> u8 {
    if asn == 0 {
        return 0;
    }
    for p in asdb::cloud::ALL_PROVIDERS {
        if p.asns().iter().any(|a| a.0 == asn) {
            return provider_tag(Some(p));
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: u64) -> QueryRow {
        QueryRow {
            timestamp: SimTime(1_000_000 + i),
            src: if i.is_multiple_of(3) {
                "8.8.8.8".parse().unwrap()
            } else {
                format!("192.0.2.{}", i % 250).parse().unwrap()
            },
            src_port: 1000 + (i % 60_000) as u16,
            server: "194.0.28.53".parse().unwrap(),
            transport: if i.is_multiple_of(5) {
                Transport::Tcp
            } else {
                Transport::Udp
            },
            // only a few distinct qnames: the dictionary should dedupe
            qname: format!("host{}.example.nl.", i % 7).parse().unwrap(),
            qtype: if i.is_multiple_of(2) {
                RType::A
            } else {
                RType::Ns
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
                Some(100 + i as u32)
            },
            response_truncated: i.is_multiple_of(11),
            tcp_rtt_us: if i.is_multiple_of(5) { 20_000 } else { 0 },
            asn: if i.is_multiple_of(3) {
                Some(Asn(15169))
            } else {
                Some(Asn(64512))
            },
            provider: if i.is_multiple_of(3) {
                Some(Provider::Google)
            } else {
                None
            },
            public_dns: i.is_multiple_of(3),
        }
    }

    #[test]
    fn roundtrip_exact() {
        let mut batch = ColumnarBatch::new();
        let rows: Vec<QueryRow> = (0..500).map(row).collect();
        for r in &rows {
            batch.push(r);
        }
        assert_eq!(batch.len(), 500);
        for (i, orig) in rows.iter().enumerate() {
            let got = batch.get(i);
            assert_eq!(got.timestamp, orig.timestamp);
            assert_eq!(got.src, orig.src);
            assert_eq!(got.qname, orig.qname);
            assert_eq!(got.qtype, orig.qtype);
            assert_eq!(got.edns_size, orig.edns_size);
            assert_eq!(got.do_bit, orig.do_bit);
            assert_eq!(got.rcode, orig.rcode);
            assert_eq!(got.response_size, orig.response_size);
            assert_eq!(got.response_truncated, orig.response_truncated);
            assert_eq!(got.tcp_rtt_us, orig.tcp_rtt_us);
            assert_eq!(got.asn, orig.asn);
            assert_eq!(got.provider, orig.provider);
            assert_eq!(got.public_dns, orig.public_dns);
            assert_eq!(got.transport, orig.transport);
        }
    }

    #[test]
    fn dictionary_dedupes_qnames() {
        let mut batch = ColumnarBatch::new();
        for i in 0..10_000 {
            batch.push(&row(i));
        }
        assert_eq!(batch.dictionary_size(), 7, "7 distinct names interned once");
        // far below a row-struct representation (Name alone is ~20B heap
        // per row, plus Vec overheads)
        let per_row = batch.bytes() / batch.len();
        assert!(per_row < 120, "columnar footprint {per_row} B/row");
    }

    #[test]
    fn provider_filter_scans_columns() {
        let mut batch = ColumnarBatch::new();
        for i in 0..300 {
            batch.push(&row(i));
        }
        let google = batch.filter_provider(Some(Provider::Google));
        assert_eq!(google.len(), 100);
        for &i in &google {
            assert_eq!(batch.get(i).provider, Some(Provider::Google));
        }
        let other = batch.filter_provider(None);
        assert_eq!(other.len(), 200);
    }

    #[test]
    fn iter_matches_get() {
        let mut batch = ColumnarBatch::new();
        for i in 0..50 {
            batch.push(&row(i));
        }
        for (i, r) in batch.iter().enumerate() {
            assert_eq!(r.qname, batch.get(i).qname);
        }
        assert_eq!(batch.iter().count(), 50);
    }

    #[test]
    fn merge_equals_serial_pushes() {
        let mut serial = ColumnarBatch::new();
        let mut left = ColumnarBatch::new();
        let mut right = ColumnarBatch::new();
        for i in 0..400 {
            let r = row(i);
            serial.push(&r);
            if i < 150 {
                left.push(&r);
            } else {
                right.push(&r);
            }
        }
        left.merge(right);
        assert_eq!(left.len(), serial.len());
        assert_eq!(left.dictionary_size(), serial.dictionary_size());
        for i in 0..serial.len() {
            assert_eq!(left.get(i), serial.get(i));
        }
    }

    #[test]
    fn bytes_counts_every_column() {
        use std::mem::size_of;
        let mut batch = ColumnarBatch::new();
        for i in 0..1_000 {
            batch.push(&row(i));
        }
        // fixed-width per-row footprint: every column, including all
        // four u16 columns (the old formula missed `rcodes`)
        let per_row = size_of::<u64>()
            + size_of::<IpAddr>() * 2
            + size_of::<u16>() * 4
            + size_of::<u8>() * 2
            + size_of::<u32>() * 4;
        assert!(batch.bytes() >= batch.len() * per_row);
    }

    #[test]
    fn columns_roundtrip() {
        let mut batch = ColumnarBatch::new();
        for i in 0..300 {
            batch.push(&row(i));
        }
        let rebuilt = ColumnarBatch::from_columns(batch.columns().clone()).expect("valid columns");
        assert_eq!(rebuilt.len(), batch.len());
        assert_eq!(rebuilt.dictionary_size(), batch.dictionary_size());
        for i in 0..batch.len() {
            assert_eq!(rebuilt.get(i), batch.get(i));
        }
        // the rebuilt dictionary index keeps interning shared names
        let mut extended = rebuilt;
        extended.push(&row(3));
        assert_eq!(extended.dictionary_size(), batch.dictionary_size());
    }

    #[test]
    fn from_columns_rejects_malformed() {
        let mut batch = ColumnarBatch::new();
        batch.push(&row(1));
        let mut cols = batch.columns().clone();
        cols.qtypes.pop();
        assert!(ColumnarBatch::from_columns(cols).is_err(), "length skew");

        let mut bad_ids = batch.columns().clone();
        bad_ids.qname_ids[0] = 7;
        assert!(
            ColumnarBatch::from_columns(bad_ids).is_err(),
            "qname id out of range"
        );
    }

    #[test]
    fn empty_batch() {
        let batch = ColumnarBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.iter().count(), 0);
        assert_eq!(batch.dictionary_size(), 0);
    }
}
