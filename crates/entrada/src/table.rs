//! Columnar row batches: the warehouse's in-memory representation.
//!
//! ENTRADA stores joined query rows in columnar form (Parquet); this is
//! the same idea at library scale. A [`ColumnarBatch`] holds each field
//! of [`QueryRow`] in its own dense column, with qnames
//! dictionary-encoded — repeated names (the Zipf head, minimized Q-min
//! names) are stored once, as a [`Name`], and a row holds its id.
//! Multi-pass analyses can hold tens of millions of rows this way at a
//! fraction of the row-struct footprint. Pushing, decoding and
//! rebuilding a row allocate nothing per row: dictionary names up to
//! 30 octets live inline, and the intern index holds ids, not copies.

use crate::schema::QueryRow;
use asdb::cloud::Provider;
use asdb::registry::Asn;
use dns_wire::name::Name;
use dns_wire::types::{RType, Rcode};
use netbase::flow::Transport;
use netbase::time::SimTime;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::net::IpAddr;

/// Provider tag of a row (one byte, derived from its ASN, never
/// stored): 0 = rest of the Internet, 1..=5 the five paper providers
/// in [`asdb::cloud::ALL_PROVIDERS`] order. Shared with the
/// warehouse's zone maps, which prune partitions on the same tags.
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

/// A dictionary-encoded columnar batch of query rows: the raw
/// [`Columns`] plus an intern index over the qname dictionary.
#[derive(Default)]
pub struct ColumnarBatch {
    cols: Columns,
    index: NameIndex,
    /// Heap octets of the dictionary's boxed (longer than inline) names.
    dict_heap: usize,
}

/// The intern index: open addressing over the dictionary's *exact*
/// wire bytes. `Name`'s own `Eq`/`Hash` fold ASCII case, which would
/// merge `Example.nl.` into `example.nl.` and rebuild rows with the
/// wrong octets; this index tells them apart. Slots hold `id + 1` (0 =
/// empty) and point into the dictionary, so a name is stored once and
/// never copied to key a map. The hasher is randomly keyed SipHash:
/// qnames come from untrusted captures, and a fixed hash would let
/// crafted names collide until interning went quadratic. Each entry's
/// hash is kept beside it, so a name is hashed once: the table grows by
/// the stored hashes, and a probe compares octets only when the hashes
/// agree.
#[derive(Default)]
struct NameIndex {
    hasher: RandomState,
    /// A power of two in length (or empty), at most half full.
    slots: Vec<u32>,
    /// The hash of every dictionary entry, by id.
    hashes: Vec<u32>,
}

impl NameIndex {
    fn hash(&self, wire: &[u8]) -> u32 {
        self.hasher.hash_one(wire) as u32
    }

    /// The id of `wire`, whose [`hash`](NameIndex::hash) is `hash`, in
    /// `dict`, or the empty slot it would take. Needs at least one
    /// empty slot ([`NameIndex::reserve`]).
    fn find(&self, dict: &[Name], wire: &[u8], hash: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                id if self.hashes[id as usize - 1] == hash
                    && dict[id as usize - 1].as_wire() == wire =>
                {
                    return Ok(id - 1)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Give the next dictionary id to the entry whose empty slot
    /// [`find`](NameIndex::find) returned.
    fn insert(&mut self, slot: usize, hash: u32) -> u32 {
        let id = self.hashes.len() as u32;
        self.slots[slot] = id + 1;
        self.hashes.push(hash);
        id
    }

    /// Make room for a dictionary of `entries` names. When the table
    /// has to grow, every entry moves to its new slot by its stored
    /// hash (entries are distinct, so no octets are compared).
    fn reserve(&mut self, entries: usize) {
        if entries * 2 <= self.slots.len() {
            return;
        }
        let len = (entries * 2).next_power_of_two().max(16);
        let mask = len - 1;
        self.slots = vec![0; len];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }
}

impl ColumnarBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one row.
    pub fn push(&mut self, row: &QueryRow) {
        let qname_id = self.intern(&row.qname);
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

    fn intern(&mut self, name: &Name) -> u32 {
        let dict = &mut self.cols.dict;
        let wire = name.as_wire();
        let hash = self.index.hash(wire);
        self.index.reserve(dict.len() + 1);
        match self.index.find(dict, wire, hash) {
            Ok(id) => id,
            Err(slot) => {
                self.dict_heap += name.heap_bytes();
                dict.push(name.clone());
                self.index.insert(slot, hash)
            }
        }
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
        self.cols.dict.len()
    }

    /// Reconstruct row `i`. Allocation-free unless its qname is longer
    /// than a `Name` holds inline.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn get(&self, i: usize) -> QueryRow {
        let c = &self.cols;
        let asn = match c.asns[i] {
            0 => None,
            v => Some(Asn(v)),
        };
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
            qname: c.dict[c.qname_ids[i] as usize].clone(),
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
            asn,
            provider: asn.and_then(Provider::of_asn),
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
        self.cols
            .asns
            .iter()
            .map(|&asn| provider_tag(Provider::of_asn(Asn(asn))))
    }

    /// Merge another batch in: columns are appended, the other batch's
    /// dictionary ids are remapped through this batch's dictionary
    /// (shared names stay stored once). Equivalent to pushing the other
    /// batch's rows in order, without reconstructing them.
    pub fn merge(&mut self, other: ColumnarBatch) {
        let other = other.cols;
        let remap: Vec<u32> = other.dict.iter().map(|name| self.intern(name)).collect();
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
    /// `len * size_of::<elem>()`, one `Name` per dictionary entry plus
    /// the heap octets of the boxed ones, and the intern index's slots
    /// and stored hashes.
    /// The warehouse appender flushes partitions when this crosses its
    /// byte budget.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.cols.timestamps.len()
            * (size_of::<u64>()                 // timestamps
                + size_of::<IpAddr>() * 2       // srcs, servers
                + size_of::<u16>() * 4          // src_ports, qtypes, edns_sizes, rcodes
                + size_of::<u8>() * 2           // transports, flags
                + size_of::<u32>() * 4)         // qname_ids, response_sizes, tcp_rtts, asns
            + self.cols.dict.len() * size_of::<Name>()
            + self.dict_heap
            + self.index.slots.len() * size_of::<u32>()
            + self.index.hashes.len() * size_of::<u32>()
    }

    /// The raw columns, for serialization (the `warehouse` crate
    /// encodes these into partition files).
    pub fn columns(&self) -> &Columns {
        &self.cols
    }

    /// Rebuild a batch from raw columns (the inverse of [`columns`]
    /// after a serialization round trip). Validates column lengths,
    /// qname ids and dictionary uniqueness so a decoder bug or corrupt
    /// file surfaces as an error here rather than a panic later.
    /// Building the intern index is the uniqueness check: entries must
    /// differ in their exact octets, so `Example.nl.` may sit beside
    /// `example.nl.` but not beside itself.
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
        let dict_len = u32::try_from(c.dict.len()).map_err(|_| "dictionary too large")?;
        if c.qname_ids.iter().any(|&id| id >= dict_len) {
            return Err("qname id out of dictionary bounds");
        }
        let mut index = NameIndex::default();
        index.reserve(c.dict.len());
        index.hashes.reserve_exact(c.dict.len());
        let mut dict_heap = 0;
        for name in &c.dict {
            let hash = index.hash(name.as_wire());
            let Err(slot) = index.find(&c.dict, name.as_wire(), hash) else {
                return Err("duplicate dictionary entry");
            };
            index.insert(slot, hash);
            dict_heap += name.heap_bytes();
        }
        Ok(ColumnarBatch {
            cols: c,
            index,
            dict_heap,
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
    /// Indexes into `dict`.
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
    /// The qname dictionary, indexed by `qname_ids`: distinct exact
    /// wire forms in first-seen order.
    pub dict: Vec<Name>,
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
        // plus the dictionary (inline names: no heap octets) and the
        // intern index: its slots and one stored hash per entry
        let (names, slots) = (batch.dictionary_size(), batch.index.slots.len());
        assert_eq!(batch.index.hashes.len(), names);
        assert_eq!(
            batch.bytes(),
            batch.len() * per_row
                + names * size_of::<Name>()
                + slots * size_of::<u32>()
                + names * size_of::<u32>()
        );
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
    fn dictionary_keeps_exact_octets() {
        let mut batch = ColumnarBatch::new();
        let spellings = [
            "example.nl.",
            "Example.nl.",
            "EXAMPLE.NL.",
            "example.nl.",
            // longer than a `Name` holds inline: boxed
            "a-label-long-enough-to-spill.example.nl.",
            "A-label-long-enough-to-spill.example.nl.",
        ];
        for (i, s) in spellings.iter().enumerate() {
            let mut r = row(i as u64);
            r.qname = s.parse().unwrap();
            batch.push(&r);
        }
        assert_eq!(batch.dictionary_size(), 5, "only the exact repeat folds");
        for (i, s) in spellings.iter().enumerate() {
            let want: Name = s.parse().unwrap();
            assert_eq!(batch.get(i).qname.as_wire(), want.as_wire(), "{s}");
        }
        let boxed: usize = batch.columns().dict.iter().map(Name::heap_bytes).sum();
        assert!(boxed > 0);
        let rebuilt = ColumnarBatch::from_columns(batch.columns().clone()).unwrap();
        assert_eq!(
            rebuilt.bytes(),
            batch.bytes(),
            "boxed names counted both ways"
        );
    }

    #[test]
    fn intern_index_grows_past_many_distinct_names() {
        let mut batch = ColumnarBatch::new();
        for i in 0..5_000u64 {
            let mut r = row(i);
            r.qname = format!("junk{}.nl.", i % 3_000).parse().unwrap();
            batch.push(&r);
        }
        assert_eq!(batch.dictionary_size(), 3_000);
        for i in 0..5_000u64 {
            let want: Name = format!("junk{}.nl.", i % 3_000).parse().unwrap();
            assert_eq!(batch.get(i as usize).qname.as_wire(), want.as_wire());
        }
        // the table grew from 16 slots to at least 6,000 by the stored
        // hashes alone: each is its entry's hash, and every entry is
        // found at its own id through the grown table
        let index = &batch.index;
        let dict = &batch.columns().dict;
        assert_eq!(index.hashes.len(), dict.len());
        for (id, name) in dict.iter().enumerate() {
            let hash = index.hash(name.as_wire());
            assert_eq!(index.hashes[id], hash, "{name}");
            assert_eq!(index.find(dict, name.as_wire(), hash), Ok(id as u32));
        }
        let filled = index.slots.iter().filter(|&&s| s != 0).count();
        assert_eq!(filled, dict.len(), "one slot per entry");
        // at most half full, and counted in the flush budget with the
        // dictionary's names
        let slots = batch.index.slots.len();
        assert!(slots >= 2 * 3_000 && slots.is_power_of_two());
        let mut columns_only = ColumnarBatch::new();
        for i in 0..5_000u64 {
            columns_only.push(&row(i));
        }
        let entry = size_of::<Name>() + size_of::<u32>();
        let dict_and_index = 3_000 * entry + slots * size_of::<u32>();
        assert_eq!(
            batch.bytes() - dict_and_index,
            columns_only.bytes() - 7 * entry - 16 * size_of::<u32>()
        );
    }

    #[test]
    fn rebuilt_batch_keeps_exact_octets_under_push_and_merge() {
        let spelled = |i: u64, s: &str| {
            let mut r = row(i);
            r.qname = s.parse().unwrap();
            r
        };
        let mut batch = ColumnarBatch::new();
        batch.push(&spelled(0, "example.nl."));
        batch.push(&spelled(1, "Example.nl."));
        let mut rebuilt = ColumnarBatch::from_columns(batch.columns().clone()).unwrap();
        assert_eq!(rebuilt.dictionary_size(), 2);
        // an exact repeat folds into the rebuilt index, a case variant
        // does not
        rebuilt.push(&spelled(2, "Example.nl."));
        rebuilt.push(&spelled(3, "example.nl."));
        rebuilt.push(&spelled(4, "EXAMPLE.NL."));
        assert_eq!(rebuilt.dictionary_size(), 3);
        let mut other = ColumnarBatch::new();
        other.push(&spelled(5, "example.nl."));
        other.push(&spelled(6, "eXample.nl."));
        other.push(&spelled(7, "EXAMPLE.NL."));
        rebuilt.merge(other);
        assert_eq!(rebuilt.dictionary_size(), 4);
        let want = [
            "example.nl.",
            "Example.nl.",
            "Example.nl.",
            "example.nl.",
            "EXAMPLE.NL.",
            "example.nl.",
            "eXample.nl.",
            "EXAMPLE.NL.",
        ];
        assert_eq!(rebuilt.len(), want.len());
        for (i, s) in want.iter().enumerate() {
            let name: Name = s.parse().unwrap();
            assert_eq!(rebuilt.get(i).qname.as_wire(), name.as_wire(), "row {i}");
        }
        // the rebuilt batch's columns rebuild again: no duplicate crept in
        let again = ColumnarBatch::from_columns(rebuilt.columns().clone()).unwrap();
        assert_eq!(again.dictionary_size(), 4);
        assert_eq!(again.bytes(), rebuilt.bytes());
    }

    #[test]
    fn from_columns_rejects_exact_duplicates_only() {
        let mut batch = ColumnarBatch::new();
        batch.push(&row(1));
        let mut cols = batch.columns().clone();
        let mut variant = cols.dict[0].to_string();
        variant.make_ascii_uppercase();
        cols.dict.push(variant.parse().unwrap());
        let ok = ColumnarBatch::from_columns(cols.clone()).expect("case variant is distinct");
        assert_eq!(ok.dictionary_size(), 2);
        cols.dict.push(cols.dict[0].clone());
        assert_eq!(
            ColumnarBatch::from_columns(cols).err(),
            Some("duplicate dictionary entry")
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
