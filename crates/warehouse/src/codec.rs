//! Byte-level codecs for partition files: LEB128 varints, zigzag
//! deltas, run-length encoding, one-bit packing, and the CRC32 that
//! seals every partition.
//!
//! Everything here is self-contained — the build environment has no
//! compression or checksum crates, and the column encodings the
//! warehouse needs (Parquet-style dictionary + RLE + delta) are small
//! enough to hand-roll and property-test.

/// Why a byte sequence failed to decode. Carried up into
/// [`crate::WarehouseError::Corrupt`] with the partition path attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran off the end of the buffer.
    Truncated,
    /// A varint ran past 10 bytes / 64 bits.
    VarintOverflow,
    /// A value was structurally out of range (bad tag, bad length).
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated"),
            DecodeError::VarintOverflow => write!(f, "varint overflow"),
            DecodeError::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) slicing-by-8 tables,
/// built at compile time. `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold into the register with eight
/// independent lookups instead of a chain of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut n = 0;
    while n < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        n += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`: slicing-by-8 over whole 8-byte words, then
/// bytewise over the tail. Same values as the bytewise loop.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// -------------------------------------------------------------- varints

/// Append `v` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-map a signed value so small magnitudes stay small varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --------------------------------------------------------------- reader

/// A bounds-checked read cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Next little-endian u16.
    pub fn u16_le(&mut self) -> Result<u16, DecodeError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Next little-endian u32.
    pub fn u32_le(&mut self) -> Result<u32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next little-endian u64.
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Next LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(DecodeError::VarintOverflow);
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::VarintOverflow);
            }
        }
    }

    /// A varint that must fit a usize-index bound.
    pub fn varint_len(&mut self, max: usize) -> Result<usize, DecodeError> {
        let v = self.varint()?;
        if v > max as u64 {
            return Err(DecodeError::Invalid("length"));
        }
        Ok(v as usize)
    }

    /// A column's declared value count, which must be exactly `rows`
    /// (the partition's row count): checked before anything is
    /// reserved for the column, so an untrusted count never sizes an
    /// allocation.
    pub fn count(&mut self, rows: usize) -> Result<(), DecodeError> {
        if self.varint()? != rows as u64 {
            return Err(DecodeError::Invalid("column length"));
        }
        Ok(())
    }
}

// ------------------------------------------------------ column codecs

/// Delta + zigzag + varint encode a monotone-ish u64 column
/// (timestamps: within a partition they are near-sorted, so deltas are
/// tiny).
pub fn put_deltas(out: &mut Vec<u8>, values: &[u64]) {
    put_varint(out, values.len() as u64);
    let mut prev = 0u64;
    for &v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// Inverse of [`put_deltas`]. The declared count may not exceed the
/// bytes left, since every delta takes at least one.
pub fn get_deltas(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = r.varint_len(r.remaining())?;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev.wrapping_add(unzigzag(r.varint()?) as u64);
        out.push(prev);
    }
    Ok(out)
}

/// Plain varint encode a u64-widenable column.
pub fn put_varints(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
    put_varint(out, values.len() as u64);
    for v in values {
        put_varint(out, v);
    }
}

/// A column of exactly `rows` values, each read by `f` straight into
/// its typed slot (raw addresses and ports, or varints through
/// [`get_varints`]).
pub fn get_column<'a, T, E: From<DecodeError>>(
    r: &mut Reader<'a>,
    rows: usize,
    mut f: impl FnMut(&mut Reader<'a>) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    r.count(rows)?;
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(f(r)?);
    }
    Ok(out)
}

/// Inverse of [`put_varints`] for a column of exactly `rows` values,
/// in one pass: each varint goes through `f` (a narrowing conversion
/// that names the column in its error) into the typed column.
pub fn get_varints<T, E: From<DecodeError>>(
    r: &mut Reader<'_>,
    rows: usize,
    mut f: impl FnMut(u64) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    get_column(r, rows, |r| f(r.varint()?))
}

/// Run-length encode a low-cardinality column as (run, value) varint
/// pairs: qtype/rcode/EDNS columns are long runs of a handful of
/// values.
pub fn put_rle(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
    put_varint(out, values.len() as u64);
    let mut run: Option<(u64, u64)> = None;
    for v in values {
        match &mut run {
            Some((val, count)) if *val == v => *count += 1,
            _ => {
                if let Some((val, count)) = run.take() {
                    put_varint(out, count);
                    put_varint(out, val);
                }
                run = Some((v, 1));
            }
        }
    }
    if let Some((val, count)) = run {
        put_varint(out, count);
        put_varint(out, val);
    }
}

/// Inverse of [`put_rle`] for a column of exactly `rows` values, in one
/// pass: each run's value goes through `f` once (a narrowing
/// conversion, or a lookup in a per-partition dictionary) and is
/// repeated straight into the typed column.
pub fn get_rle<T: Copy, E: From<DecodeError>>(
    r: &mut Reader<'_>,
    rows: usize,
    mut f: impl FnMut(u64) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    r.count(rows)?;
    let mut out = Vec::with_capacity(rows);
    while out.len() < rows {
        let count = r.varint()?;
        let val = r.varint()?;
        if count == 0 || count > (rows - out.len()) as u64 {
            return Err(DecodeError::Invalid("run length").into());
        }
        out.resize(out.len() + count as usize, f(val)?);
    }
    Ok(out)
}

/// Pack a 0/1 column (transport) one bit per value.
pub fn put_bits(out: &mut Vec<u8>, values: &[u8]) {
    put_varint(out, values.len() as u64);
    let mut byte = 0u8;
    for (i, &v) in values.iter().enumerate() {
        if v != 0 {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !values.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// Inverse of [`put_bits`] for a column of exactly `rows` values.
pub fn get_bits(r: &mut Reader<'_>, rows: usize) -> Result<Vec<u8>, DecodeError> {
    r.count(rows)?;
    let packed = r.bytes(rows.div_ceil(8))?;
    Ok((0..rows).map(|i| (packed[i / 8] >> (i % 8)) & 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The identity conversion, for decoding a `u64` column.
    fn same(v: u64) -> Result<u64, DecodeError> {
        Ok(v)
    }

    #[test]
    fn crc32_known_vectors() {
        // zlib reference values
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        let buf = [0xffu8; 11];
        assert_eq!(Reader::new(&buf).varint(), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn deltas_roundtrip_unsorted() {
        let vals = vec![100, 90, 95, 1_000_000, 0, u64::MAX, 3];
        let mut buf = Vec::new();
        put_deltas(&mut buf, &vals);
        let got = get_deltas(&mut Reader::new(&buf)).unwrap();
        assert_eq!(got, vals);
    }

    #[test]
    fn deltas_count_is_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40); // a count no segment can hold
        buf.push(0);
        assert_eq!(
            get_deltas(&mut Reader::new(&buf)),
            Err(DecodeError::Invalid("length"))
        );
    }

    #[test]
    fn rle_roundtrip_and_compresses() {
        let vals: Vec<u64> = std::iter::repeat_n(1u64, 1000)
            .chain(std::iter::repeat_n(28, 500))
            .chain([1, 2, 3])
            .collect();
        let mut buf = Vec::new();
        put_rle(&mut buf, vals.iter().copied());
        assert!(buf.len() < 32, "RLE output {}B for 1503 values", buf.len());
        let got = get_rle(&mut Reader::new(&buf), vals.len(), same).unwrap();
        assert_eq!(got, vals);
    }

    #[test]
    fn rle_rejects_overlong_runs() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 3); // claim 3 values
        put_varint(&mut buf, 5); // but a run of 5
        put_varint(&mut buf, 9);
        assert_eq!(
            get_rle(&mut Reader::new(&buf), 3, same),
            Err(DecodeError::Invalid("run length"))
        );
    }

    #[test]
    fn declared_counts_must_match_the_row_count() {
        let mut buf = Vec::new();
        put_varints(&mut buf, [1u64, 2, 3].into_iter());
        for rows in [2, 4, usize::MAX] {
            assert_eq!(
                get_varints(&mut Reader::new(&buf), rows, same),
                Err(DecodeError::Invalid("column length"))
            );
        }
        assert_eq!(
            get_varints(&mut Reader::new(&buf), 3, same),
            Ok(vec![1, 2, 3])
        );
        let mut bits = Vec::new();
        put_bits(&mut bits, &[1, 0, 1]);
        assert!(get_bits(&mut Reader::new(&bits), 4).is_err());
    }

    #[test]
    fn bits_roundtrip_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let vals: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();
            let mut buf = Vec::new();
            put_bits(&mut buf, &vals);
            let got = get_bits(&mut Reader::new(&buf), n).unwrap();
            assert_eq!(got, vals);
        }
    }

    #[test]
    fn truncated_reads_error() {
        let mut buf = Vec::new();
        put_deltas(&mut buf, &[1, 2, 3]);
        buf.truncate(buf.len() - 1);
        assert_eq!(
            get_deltas(&mut Reader::new(&buf)),
            Err(DecodeError::Truncated)
        );
    }
}
