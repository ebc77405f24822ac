//! Domain names: storage, comparison, wire decoding (with compression
//! pointers) and compressing wire encoding.
//!
//! Names are stored in canonical wire form — a sequence of
//! length-prefixed labels terminated by the root label — with the
//! original octets preserved (DNS names are case-*preserving* but
//! case-*insensitive*; comparisons and hashing fold ASCII case, per
//! RFC 1035 §2.3.3 / RFC 4343).
//!
//! The label-counting helpers ([`Name::label_count`],
//! [`Name::is_minimized_child_of`]) implement the exact test the paper
//! uses to recognize QNAME-minimized queries: a qname "stripped to just
//! one label more than the zone for which the server is authoritative"
//! (RFC 7816).

use crate::error::WireError;
use core::fmt;
use core::hash::{BuildHasherDefault, Hash, Hasher};
use core::str::FromStr;
use std::collections::HashMap;

/// Maximum length of one label, in octets (RFC 1035 §3.1).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole encoded name, in octets (RFC 1035 §3.1).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum compression-pointer hops tolerated before declaring a loop.
const MAX_POINTER_HOPS: usize = 63;
/// Longest wire form a [`Name`] holds without a heap allocation. Every
/// name the generators put in a record fits (`ns1.` + the longest
/// `label.school.nz.` is 28 octets; no `.nl` qname passes 24), and it
/// keeps `Name` at 32 bytes.
const INLINE_CAP: usize = 30;

/// A fully-qualified domain name in wire form.
///
/// Internally: the uncompressed wire encoding, e.g. `example.nl.` is
/// `\x07example\x02nl\x00`. The root name is the single byte `\x00`.
/// Wire forms of up to 30 octets live inside the value, so building,
/// cloning and slicing such a name never touches the heap; longer ones
/// are boxed. Nothing outside this module can tell which: every
/// accessor goes through [`Name::as_wire`].
#[derive(Clone)]
pub struct Name {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Heap(Box<[u8]>),
}

// the hot path's names are inline, and a `Name` stays cheap to move
const _: () = assert!(INLINE_CAP >= 30 && core::mem::size_of::<Name>() <= 40);

/// A wire form being assembled on the stack. `len` keeps counting past
/// the buffer so [`WireBuf::finish`] can report the length the name
/// would have had.
struct WireBuf {
    buf: [u8; MAX_NAME_LEN],
    len: usize,
}

impl WireBuf {
    fn new() -> Self {
        WireBuf {
            buf: [0; MAX_NAME_LEN],
            len: 0,
        }
    }

    fn push(&mut self, byte: u8) {
        if let Some(slot) = self.buf.get_mut(self.len) {
            *slot = byte;
        }
        self.len += 1;
    }

    fn extend(&mut self, bytes: &[u8]) {
        if let Some(dst) = self.buf.get_mut(self.len..self.len + bytes.len()) {
            dst.copy_from_slice(bytes);
        }
        self.len += bytes.len();
    }

    /// Append one length-prefixed label, after checking its length.
    fn push_label(&mut self, label: &[u8]) -> Result<(), WireError> {
        if label.is_empty() {
            return Err(WireError::BadNameString);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        self.push(label.len() as u8);
        self.extend(label);
        Ok(())
    }

    fn finish(self) -> Result<Name, WireError> {
        match self.buf.get(..self.len) {
            Some(wire) => Ok(Name::from_wire(wire)),
            None => Err(WireError::NameTooLong(self.len)),
        }
    }
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name::from_wire(&[0])
    }

    /// Store a well-formed wire form of at most [`MAX_NAME_LEN`] octets.
    fn from_wire(wire: &[u8]) -> Self {
        let repr = if wire.len() <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..wire.len()].copy_from_slice(wire);
            Repr::Inline {
                len: wire.len() as u8,
                buf,
            }
        } else {
            Repr::Heap(wire.into())
        };
        Name { repr }
    }

    /// Build a name from an iterator of label byte-slices (top label last).
    ///
    /// ```
    /// # use dns_wire::name::Name;
    /// let n = Name::from_labels([b"www".as_slice(), b"example", b"nl"]).unwrap();
    /// assert_eq!(n.to_string(), "www.example.nl.");
    /// ```
    pub fn from_labels<'a, I>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut wire = WireBuf::new();
        for label in labels {
            wire.push_label(label)?;
        }
        wire.push(0);
        wire.finish()
    }

    /// The uncompressed wire encoding of this name.
    pub fn as_wire(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(wire) => wire,
        }
    }

    /// Length of the uncompressed wire encoding in octets.
    pub fn wire_len(&self) -> usize {
        self.as_wire().len()
    }

    /// Heap octets this name owns beyond `size_of::<Name>()`: 0 when
    /// the wire form is stored inline, its length when it is boxed.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Heap(wire) => wire.len(),
        }
    }

    /// True if this is the root name.
    pub fn is_root(&self) -> bool {
        self.wire_len() == 1
    }

    /// Iterate over the labels, leftmost (deepest) first.
    pub fn labels(&self) -> LabelIter<'_> {
        LabelIter {
            wire: self.as_wire(),
            pos: 0,
        }
    }

    /// Number of labels, excluding the root. `example.nl.` has 2.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Strip the leftmost label, yielding the parent domain.
    /// The parent of the root is the root.
    pub fn parent(&self) -> Name {
        if self.is_root() {
            return self.clone();
        }
        let wire = self.as_wire();
        Name::from_wire(&wire[1 + wire[0] as usize..])
    }

    /// Prepend one label to this name.
    pub fn child(&self, label: &[u8]) -> Result<Name, WireError> {
        let mut wire = WireBuf::new();
        wire.push_label(label)?;
        wire.extend(self.as_wire());
        wire.finish()
    }

    /// The ancestor of this name with exactly `depth` labels — `depth`
    /// 2 of `www.example.nl.` is `example.nl.` — or the name itself when
    /// it has no more than `depth` labels. One slice of the wire form.
    pub fn ancestor(&self, depth: usize) -> Name {
        Name::from_wire(self.ancestor_wire(depth))
    }

    /// The wire form of [`Name::ancestor`]: the slice of this name's own
    /// wire form it starts at, with no name built.
    pub fn ancestor_wire(&self, depth: usize) -> &[u8] {
        let wire = self.as_wire();
        let mut skip = self.label_count().saturating_sub(depth);
        let mut pos = 0;
        while skip > 0 {
            pos += 1 + wire[pos] as usize;
            skip -= 1;
        }
        &wire[pos..]
    }

    /// True if `self` equals `zone` or is underneath it (case-insensitive).
    /// Allocation-free: walks label lengths to where `zone`'s wire form
    /// would have to start, then case-folds that suffix against it.
    ///
    /// ```
    /// # use dns_wire::name::Name;
    /// let zone: Name = "nl.".parse().unwrap();
    /// let host: Name = "www.EXAMPLE.NL.".parse().unwrap();
    /// assert!(host.is_subdomain_of(&zone));
    /// assert!(!zone.is_subdomain_of(&host));
    /// ```
    pub fn is_subdomain_of(&self, zone: &Name) -> bool {
        let (wire, zone) = (self.as_wire(), zone.as_wire());
        let Some(boundary) = wire.len().checked_sub(zone.len()) else {
            return false;
        };
        let mut pos = 0;
        while pos < boundary {
            pos += 1 + wire[pos] as usize;
        }
        pos == boundary && eq_fold(&wire[boundary..], zone)
    }

    /// The QNAME-minimization test of RFC 7816 as applied by the paper:
    /// true when `self` has *exactly one* more label than `zone` and lies
    /// underneath it. A Q-min resolver asking a `.nl` server about
    /// `a.b.example.nl` sends `example.nl` — minimized; a classic resolver
    /// sends the full `a.b.example.nl` — not minimized.
    pub fn is_minimized_child_of(&self, zone: &Name) -> bool {
        self.label_count() == zone.label_count() + 1 && self.is_subdomain_of(zone)
    }

    /// Decode a (possibly compressed) name from `msg` starting at `pos`.
    ///
    /// Returns the name and the position just past its encoding *in the
    /// original stream* (i.e. past the pointer, if the name ended with
    /// one). Pointers must point strictly backwards; hop count is capped
    /// to defeat loops.
    pub fn parse(msg: &[u8], pos: usize) -> Result<(Name, usize), WireError> {
        let mut wire = [0u8; MAX_NAME_LEN];
        let (end, len) = walk(msg, pos, |label, at| {
            wire[at..at + label.len()].copy_from_slice(label)
        })?;
        // the root octet, wire[len - 1], is still the zero it started as
        Ok((Name::from_wire(&wire[..len]), end))
    }

    /// Check the (possibly compressed) name at `msg[pos]` by the rules
    /// of [`Name::parse`], without building it: the same errors, and on
    /// success the position past its encoding and its uncompressed
    /// length.
    pub(crate) fn skip(msg: &[u8], pos: usize) -> Result<(usize, usize), WireError> {
        walk(msg, pos, |_, _| {})
    }

    /// Append the uncompressed encoding to `out`.
    pub fn encode_uncompressed(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_wire());
    }
}

/// The one walk over an encoded name that [`Name::parse`] and
/// [`Name::skip`] share: each label, length octet included, goes to
/// `label` in order with the offset it takes in the uncompressed name,
/// once the name is known to have room for it. Returns the position
/// past the name in the original stream and its uncompressed length,
/// root octet included.
#[inline(always)]
fn walk(
    msg: &[u8],
    pos: usize,
    mut label: impl FnMut(&[u8], usize),
) -> Result<(usize, usize), WireError> {
    let mut len = 0usize;
    let mut cursor = pos;
    let mut after: Option<usize> = None; // resume point in the outer stream
    let mut hops = 0usize;
    let mut min_ptr_target = pos; // each pointer must go strictly before this

    loop {
        let len_byte = *msg
            .get(cursor)
            .ok_or(WireError::Truncated { offset: cursor })?;
        match len_byte & 0xc0 {
            0x00 => {
                let label_len = len_byte as usize;
                if label_len == 0 {
                    len += 1;
                    if len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(len));
                    }
                    return Ok((after.unwrap_or(cursor + 1), len));
                }
                let label_end = cursor + 1 + label_len;
                if label_end > msg.len() {
                    return Err(WireError::Truncated { offset: msg.len() });
                }
                let at = len;
                len += 1 + label_len;
                if len > MAX_NAME_LEN {
                    return Err(WireError::NameTooLong(len));
                }
                label(&msg[cursor..label_end], at);
                cursor = label_end;
            }
            0xc0 => {
                let second = *msg
                    .get(cursor + 1)
                    .ok_or(WireError::Truncated { offset: cursor + 1 })?;
                let target = (((len_byte & 0x3f) as usize) << 8) | second as usize;
                if target >= min_ptr_target {
                    return Err(WireError::BadPointer { at: cursor, target });
                }
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return Err(WireError::BadPointer { at: cursor, target });
                }
                if after.is_none() {
                    after = Some(cursor + 2);
                }
                min_ptr_target = target;
                cursor = target;
            }
            other => return Err(WireError::BadLabelType(other)),
        }
    }
}

/// Case-folding equality of two wire-form names or suffixes (ASCII
/// only, per RFC 4343), both starting on a label boundary. Length
/// octets take part in the fold, which is exact because every
/// constructor caps labels at [`MAX_LABEL_LEN`] (0x3f): a length octet
/// is never a letter, so the first differing length already differs as
/// a byte, and until then the label boundaries of both sides coincide.
fn eq_fold(a: &[u8], b: &[u8]) -> bool {
    a.eq_ignore_ascii_case(b)
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        eq_fold(self.as_wire(), other.as_wire())
    }
}

impl Eq for Name {}

/// Each label as its length then its case-folded octets, one `write_u8`
/// an octet. The stream is what the fleet cache's eviction tie-break
/// (`stable_hash`) orders by, so it is pinned by a test. Writing a
/// label at a time (a folded copy, one `write`) gives SipHash the same
/// stream but measured slower on 40,000 real `.nl` qnames (45 vs 42 ns
/// a name): its one-octet write is its cheapest path.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for label in self.labels() {
            state.write_usize(label.len());
            for &b in label {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences
    /// right-to-left, case-folded.
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        let mine: Vec<&[u8]> = self.labels().collect();
        let theirs: Vec<&[u8]> = other.labels().collect();
        for (a, b) in mine.iter().rev().zip(theirs.iter().rev()) {
            let fa = a.iter().map(|c| c.to_ascii_lowercase());
            let fb = b.iter().map(|c| c.to_ascii_lowercase());
            match fa.cmp(fb) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        mine.len().cmp(&theirs.len())
    }
}

/// Iterator over the labels of a [`Name`], deepest label first.
pub struct LabelIter<'a> {
    wire: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = *self.wire.get(self.pos)? as usize;
        if len == 0 {
            return None;
        }
        let start = self.pos + 1;
        self.pos = start + len;
        Some(&self.wire[start..start + len])
    }
}

impl fmt::Display for Name {
    /// Presentation format with a trailing dot; non-printable bytes are
    /// escaped `\DDD`, literal dots in labels as `\.`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for label in self.labels() {
            for &b in label {
                match b {
                    b'.' => f.write_str("\\.")?,
                    b'\\' => f.write_str("\\\\")?,
                    0x21..=0x7e => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{b:03}")?,
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl FromStr for Name {
    type Err = WireError;

    /// Parse presentation format. Accepts with or without trailing dot;
    /// supports `\.`, `\\` and `\DDD` escapes. `"."` is the root.
    fn from_str(s: &str) -> Result<Self, WireError> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let bytes = s.as_bytes();
        let mut wire = WireBuf::new();
        // the open label; `n` keeps counting past the buffer so an
        // over-long label is reported with its length
        let mut label = [0u8; MAX_LABEL_LEN];
        let mut n = 0usize;
        let mut i = 0;
        while i < bytes.len() {
            let octet = match bytes[i] {
                b'\\' => {
                    let next = *bytes.get(i + 1).ok_or(WireError::BadNameString)?;
                    if next.is_ascii_digit() {
                        let ddd = bytes.get(i + 1..i + 4).ok_or(WireError::BadNameString)?;
                        if !ddd.iter().all(u8::is_ascii_digit) {
                            return Err(WireError::BadNameString);
                        }
                        let v = ddd.iter().fold(0u16, |v, d| v * 10 + (d - b'0') as u16);
                        i += 4;
                        u8::try_from(v).map_err(|_| WireError::BadNameString)?
                    } else {
                        i += 2;
                        next
                    }
                }
                b'.' => {
                    if n == 0 {
                        return Err(WireError::BadNameString);
                    }
                    wire.push_label(label.get(..n).ok_or(WireError::LabelTooLong(n))?)?;
                    n = 0;
                    i += 1;
                    continue;
                }
                b => {
                    i += 1;
                    b
                }
            };
            if let Some(slot) = label.get_mut(n) {
                *slot = octet;
            }
            n += 1;
        }
        if n > 0 {
            wire.push_label(label.get(..n).ok_or(WireError::LabelTooLong(n))?)?;
        }
        wire.push(0);
        wire.finish()
    }
}

/// The FNV-1a offset basis: the key of the root suffix.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a prime, and its inverse modulo 2^64 (Newton's iteration:
/// each step doubles the correct low bits, from 3).
const FNV_PRIME: u64 = 0x100_0000_01b3;
const FNV_PRIME_INV: u64 = {
    let mut inv = FNV_PRIME;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(FNV_PRIME.wrapping_mul(inv)));
        i += 1;
    }
    inv
};
const _: () = assert!(FNV_PRIME.wrapping_mul(FNV_PRIME_INV) == 1);

/// One FNV-1a step over a case-folded octet, and its inverse.
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(FNV_PRIME)
}

fn fnv_unstep(h: u64, b: u8) -> u64 {
    h.wrapping_mul(FNV_PRIME_INV) ^ b.to_ascii_lowercase() as u64
}

/// The key of the suffix of wire form `wire` that starts at octet
/// `pos`: FNV-1a over its case-folded octets, the root octet left out,
/// taken last to first. So the whole name's key is one right-to-left
/// pass, and the key of the suffix after a label is that label's octets
/// unstepped off the front: a name's suffixes cost twice its length,
/// where keying each afresh was quadratic in its labels.
fn suffix_key(wire: &[u8], pos: usize) -> u64 {
    wire[pos..wire.len() - 1]
        .iter()
        .rev()
        .fold(FNV_BASIS, |h, &b| fnv_step(h, b))
}

/// True when the name suffix starting at `msg[at]` (following
/// compression pointers, strictly backwards) equals `suffix`
/// (uncompressed, well-formed wire), ASCII case-folded.
pub(crate) fn suffix_matches(msg: &[u8], at: usize, suffix: &[u8]) -> bool {
    let mut mp = at;
    let mut sp = 0usize;
    let mut hops = 0usize;
    let mut min_target = at;
    loop {
        let Some(&len_byte) = msg.get(mp) else {
            return false;
        };
        match len_byte & 0xc0 {
            0x00 => {
                let len = len_byte as usize;
                let s_len = suffix[sp] as usize;
                if len == 0 {
                    return s_len == 0;
                }
                if s_len != len {
                    return false;
                }
                let m_end = mp + 1 + len;
                if m_end > msg.len() {
                    return false;
                }
                if !msg[mp + 1..m_end].eq_ignore_ascii_case(&suffix[sp + 1..sp + 1 + len]) {
                    return false;
                }
                mp = m_end;
                sp += 1 + len;
            }
            0xc0 => {
                let Some(&second) = msg.get(mp + 1) else {
                    return false;
                };
                let target = (((len_byte & 0x3f) as usize) << 8) | second as usize;
                if target >= min_target || hops >= MAX_POINTER_HOPS {
                    return false;
                }
                hops += 1;
                min_target = target;
                mp = target;
            }
            _ => return false,
        }
    }
}

/// A [`Hasher`] for keys that already are hashes: the suffix table's
/// keys come out of [`suffix_key`], so hashing them a second time only
/// costs time. A crafted collision costs one probe chain inside one
/// message's few dozen suffixes, and the pointer is verified anyway.
#[derive(Default)]
struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the suffix table is keyed by u64");
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The name compressor (RFC 1035 §4.1.4): remembers, for every name
/// suffix already emitted, its offset in the message, so later names
/// can point at it. Offsets beyond 0x3FFF cannot be pointed at.
///
/// Built for reuse across messages without allocating: the suffix
/// table's keys are 64-bit FNV hashes of the case-folded suffix, not
/// owned byte strings, and serve as their own table hash, so
/// [`ReusableCompressor::reset`] between messages keeps the map's
/// capacity and steady-state encoding performs zero heap allocations.
///
/// Hash entries are *verified* against the actual output buffer before
/// a pointer is emitted (`suffix_matches`); a colliding hash merely
/// loses compression for the rest of that name — the produced message
/// is always correct.
#[derive(Default)]
pub struct ReusableCompressor {
    /// Key of the lowercased suffix -> offset in the message.
    seen: HashMap<u64, u16, BuildHasherDefault<KeyIsHash>>,
}

impl ReusableCompressor {
    /// Create an empty compressor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all recorded suffixes but keep the table's capacity; call
    /// between messages.
    pub fn reset(&mut self) {
        self.seen.clear();
    }

    /// Encode `name` at the current end of `out`, compressing against
    /// earlier names, and record its suffixes for future reuse. Linear
    /// in the name's length: the key of each suffix is the longer
    /// suffix's key with its first label unstepped, not a fresh hash.
    pub fn encode_name(&mut self, name: &Name, out: &mut Vec<u8>) {
        let wire = name.as_wire();
        let mut key = suffix_key(wire, 0);
        let mut pos = 0usize;
        while wire[pos] != 0 {
            let label = &wire[pos..pos + 1 + wire[pos] as usize];
            match self.seen.get(&key) {
                Some(&offset) if suffix_matches(out, offset as usize, &wire[pos..]) => {
                    out.push(0xc0 | ((offset >> 8) as u8));
                    out.push(offset as u8);
                    return;
                }
                Some(_) => {
                    // hash collision: emit the rest uncompressed
                    out.extend_from_slice(&wire[pos..]);
                    return;
                }
                None => {
                    let here = out.len();
                    if here <= 0x3fff {
                        self.seen.insert(key, here as u16);
                    }
                    out.extend_from_slice(label);
                    key = label.iter().fold(key, |h, &b| fnv_unstep(h, b));
                    pos += label.len();
                }
            }
        }
        out.push(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Just;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("example.nl").to_string(), "example.nl.");
        assert_eq!(n("example.nl.").to_string(), "example.nl.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("a.b.c.example.co.nz").label_count(), 6);
    }

    #[test]
    fn root_properties() {
        let r = Name::root();
        assert!(r.is_root());
        assert_eq!(r.label_count(), 0);
        assert_eq!(r.parent(), r);
        assert_eq!(r.wire_len(), 1);
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let a = n("WWW.Example.NL");
        let b = n("www.example.nl");
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn display_preserves_case() {
        assert_eq!(n("ExAmPlE.nl").to_string(), "ExAmPlE.nl.");
    }

    #[test]
    fn parent_and_child() {
        let d = n("www.example.nl");
        assert_eq!(d.parent(), n("example.nl"));
        assert_eq!(d.parent().parent(), n("nl"));
        assert_eq!(d.parent().parent().parent(), Name::root());
        assert_eq!(n("nl").child(b"sidn").unwrap(), n("sidn.nl"));
    }

    #[test]
    fn subdomain_relation() {
        let nl = n("nl");
        assert!(n("example.nl").is_subdomain_of(&nl));
        assert!(n("a.b.example.nl").is_subdomain_of(&nl));
        assert!(n("nl").is_subdomain_of(&nl));
        assert!(!n("example.nz").is_subdomain_of(&nl));
        assert!(!n("nl").is_subdomain_of(&n("example.nl")));
        assert!(n("anything.at.all").is_subdomain_of(&Name::root()));
        // suffix-in-label must not count: "foonl" is not under "nl"
        assert!(!n("foonl").is_subdomain_of(&nl));
    }

    #[test]
    fn subdomain_folds_case_and_respects_label_boundaries() {
        assert!(n("WWW.Example.NL").is_subdomain_of(&n("example.nl")));
        assert!(n("www.example.nl").is_subdomain_of(&n("EXAMPLE.NL")));
        // same trailing bytes, different label boundary
        assert!(!n("xnl").is_subdomain_of(&n("nl")));
        assert!(!n("a.xnl").is_subdomain_of(&n("nl")));
        // the zone's wire form appears inside one label of the name:
        // `\x04x\x02nl\x00` ends in `\x02nl\x00`, but not at a boundary
        let inner = Name::from_labels([b"x\x02nl".as_slice()]).unwrap();
        assert!(inner.as_wire().ends_with(n("nl").as_wire()));
        assert!(!inner.is_subdomain_of(&n("nl")));
        // root and equal names
        assert!(Name::root().is_subdomain_of(&Name::root()));
        assert!(!Name::root().is_subdomain_of(&n("nl")));
        assert!(n("example.nl").is_subdomain_of(&n("Example.NL")));
    }

    #[test]
    fn length_octets_never_collide_with_letters() {
        // a length octet in 0x41..=0x5a ('A'..='Z') would fold onto
        // 0x61..=0x7a and break the whole-wire compare; labels cap at
        // 63 octets, so no constructor can produce one
        for len in 0x41..=0x5a_usize {
            let label = vec![b'a'; len];
            assert!(Name::from_labels([label.as_slice()]).is_err());
            assert!(Name::root().child(&label).is_err());
            let mut wire = vec![len as u8];
            wire.extend_from_slice(&label);
            wire.push(0);
            assert!(Name::parse(&wire, 0).is_err());
        }
        // the longest legal label: its length octet is 0x3f ('?')
        let max = vec![b'Q'; MAX_LABEL_LEN];
        let upper = Name::from_labels([max.as_slice(), b"NL"]).unwrap();
        let lower = Name::from_labels([max.to_ascii_lowercase().as_slice(), b"nl"]).unwrap();
        assert_eq!(upper, lower);
        assert!(upper.is_subdomain_of(&lower));
        assert!(upper.is_subdomain_of(&n("nl")));
        // a label of 0x3f '?' bytes differs from one of 0x3e
        let shorter = Name::from_labels([&max[1..], b"nl"]).unwrap();
        assert_ne!(upper, shorter);
        assert!(!upper.is_subdomain_of(&shorter));
    }

    #[test]
    fn ancestor_slices_to_depth() {
        let d = n("a.b.WWW.example.nl");
        assert_eq!(d.ancestor(0), Name::root());
        assert_eq!(d.ancestor(1), n("nl"));
        assert_eq!(d.ancestor(2), n("example.nl"));
        assert_eq!(d.ancestor(3).to_string(), "WWW.example.nl.");
        assert_eq!(d.ancestor(5), d);
        assert_eq!(d.ancestor(9), d, "already at or below that depth");
        assert_eq!(Name::root().ancestor(0), Name::root());
        assert_eq!(Name::root().ancestor(3), Name::root());
    }

    #[test]
    fn qmin_test_matches_rfc7816() {
        let nl = n("nl");
        assert!(n("example.nl").is_minimized_child_of(&nl));
        assert!(!n("www.example.nl").is_minimized_child_of(&nl));
        assert!(!n("nl").is_minimized_child_of(&nl));
        let conz = n("co.nz");
        assert!(n("example.co.nz").is_minimized_child_of(&conz));
        assert!(!n("example.co.nz").is_minimized_child_of(&n("nz")));
    }

    #[test]
    fn label_limits() {
        let long = vec![b'a'; 64];
        assert_eq!(
            Name::from_labels([long.as_slice()]),
            Err(WireError::LabelTooLong(64))
        );
        let ok = vec![b'a'; 63];
        assert!(Name::from_labels([ok.as_slice()]).is_ok());
    }

    #[test]
    fn name_length_limit() {
        // 4 labels of 63 bytes = 4*64+1 = 257 > 255
        let l = vec![b'x'; 63];
        let r = Name::from_labels([l.as_slice(), &l, &l, &l]);
        assert!(matches!(r, Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn escapes_roundtrip() {
        let name = n("a\\.b.example.nl");
        assert_eq!(name.label_count(), 3);
        assert_eq!(name.labels().next().unwrap(), b"a.b");
        assert_eq!(name.to_string(), "a\\.b.example.nl.");
        let esc = n("\\001\\255.nl");
        assert_eq!(esc.labels().next().unwrap(), &[1u8, 255]);
        assert_eq!(esc.to_string(), "\\001\\255.nl.");
        // and the Display output parses back to the same name
        assert_eq!(n(&esc.to_string()), esc);
    }

    #[test]
    fn bad_presentation_forms() {
        assert!("a..b".parse::<Name>().is_err());
        assert!(".leading".parse::<Name>().is_err());
        assert!("trail\\".parse::<Name>().is_err());
        assert!("big\\999escape".parse::<Name>().is_err());
        // a \DDD escape cut short by a multi-byte character
        assert!("a\\12\u{e9}.nl".parse::<Name>().is_err());
    }

    #[test]
    fn wire_parse_simple() {
        let msg = b"\x07example\x02nl\x00";
        let (name, end) = Name::parse(msg, 0).unwrap();
        assert_eq!(name, n("example.nl"));
        assert_eq!(end, msg.len());
    }

    #[test]
    fn wire_parse_with_pointer() {
        // offset 0: "nl." ; offset 4: "www" + pointer to 0
        let mut msg = Vec::new();
        msg.extend_from_slice(b"\x02nl\x00");
        let www_at = msg.len();
        msg.extend_from_slice(b"\x03www");
        msg.extend_from_slice(&[0xc0, 0x00]);
        let (name, end) = Name::parse(&msg, www_at).unwrap();
        assert_eq!(name, n("www.nl"));
        assert_eq!(end, msg.len());
    }

    #[test]
    fn wire_parse_pointer_chain() {
        // 0: "nl." ; 4: "example" + ptr->0 ; 14: "www" + ptr->4
        let mut msg = Vec::new();
        msg.extend_from_slice(b"\x02nl\x00");
        msg.extend_from_slice(b"\x07example");
        msg.extend_from_slice(&[0xc0, 0x00]);
        let www_at = msg.len();
        msg.extend_from_slice(b"\x03www");
        msg.extend_from_slice(&[0xc0, 0x04]);
        let (name, _) = Name::parse(&msg, www_at).unwrap();
        assert_eq!(name, n("www.example.nl"));
    }

    #[test]
    fn wire_parse_rejects_forward_pointer() {
        let msg = [0xc0u8, 0x02, 0x00, 0x00];
        assert!(matches!(
            Name::parse(&msg, 0),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn wire_parse_rejects_self_pointer() {
        let msg = [0xc0u8, 0x00];
        assert!(matches!(
            Name::parse(&msg, 0),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn wire_parse_rejects_pointer_loop() {
        // two pointers pointing at each other can't happen (strictly
        // decreasing targets), but verify a long chain is refused via the
        // strictly-backwards rule.
        let mut msg = Vec::new();
        msg.extend_from_slice(&[0xc0, 0x00]); // points at itself
        msg.extend_from_slice(&[0xc0, 0x00]); // points backwards at the self-pointer
        let r = Name::parse(&msg, 2);
        assert!(matches!(r, Err(WireError::BadPointer { .. })));
    }

    #[test]
    fn wire_parse_rejects_truncation_and_bad_type() {
        assert!(matches!(
            Name::parse(b"\x05abc", 0),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            Name::parse(&[0x80, 0x00], 0),
            Err(WireError::BadLabelType(0x80))
        ));
        assert!(matches!(
            Name::parse(&[0x40], 0),
            Err(WireError::BadLabelType(0x40))
        ));
        assert!(matches!(
            Name::parse(&[], 0),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn compressor_reuses_suffixes() {
        let mut out = Vec::new();
        let mut comp = ReusableCompressor::new();
        comp.encode_name(&n("www.example.nl"), &mut out);
        let first_len = out.len();
        assert_eq!(first_len, 16); // 4+8+3+1
        comp.encode_name(&n("mail.example.nl"), &mut out);
        // "mail" label (5 bytes) + pointer (2 bytes)
        assert_eq!(out.len(), first_len + 7);
        // both decode correctly
        let (a, next) = Name::parse(&out, 0).unwrap();
        assert_eq!(a, n("www.example.nl"));
        let (b, _) = Name::parse(&out, next).unwrap();
        assert_eq!(b, n("mail.example.nl"));
    }

    #[test]
    fn compressor_case_insensitive_reuse() {
        let mut out = Vec::new();
        let mut comp = ReusableCompressor::new();
        comp.encode_name(&n("a.EXAMPLE.NL"), &mut out);
        let len = out.len();
        comp.encode_name(&n("b.example.nl"), &mut out);
        assert_eq!(out.len(), len + 4, "one label + pointer");
    }

    #[test]
    fn compressor_identical_name_is_single_pointer() {
        let mut out = Vec::new();
        let mut comp = ReusableCompressor::new();
        comp.encode_name(&n("example.nl"), &mut out);
        let len = out.len();
        comp.encode_name(&n("example.nl"), &mut out);
        assert_eq!(out.len(), len + 2);
    }

    #[test]
    fn compressor_reset_forgets_every_suffix() {
        let names = [
            n("www.example.nl"),
            n("mail.EXAMPLE.nl"),
            n("www.example.nl"),
            n("other.nl"),
            n("deep.a.b.example.nl"),
        ];
        let mut comp = ReusableCompressor::new();
        let mut first = Vec::new();
        for name in &names {
            comp.encode_name(name, &mut first);
        }
        // 16, then 5+2, a bare pointer, 6+2, and 5+2+2+2
        assert_eq!(first.len(), 16 + 7 + 2 + 8 + 11);
        comp.reset();
        let mut second = Vec::new();
        for name in &names {
            comp.encode_name(name, &mut second);
        }
        assert_eq!(
            second, first,
            "a stale offset would have compressed the first name"
        );
    }

    #[test]
    fn compressor_output_decodes() {
        let names = [
            n("a.b.c.example.nl"),
            n("x.b.c.example.nl"),
            n("c.example.nl"),
        ];
        let mut out = Vec::new();
        let mut comp = ReusableCompressor::new();
        for name in &names {
            comp.encode_name(name, &mut out);
        }
        let mut pos = 0;
        for name in &names {
            let (decoded, next) = Name::parse(&out, pos).unwrap();
            assert_eq!(&decoded, name);
            pos = next;
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn suffix_matcher_follows_pointers_and_rejects_mismatch() {
        // build: "example.nl." then "www" + ptr, via the compressor itself
        let mut out = Vec::new();
        let mut comp = ReusableCompressor::new();
        comp.encode_name(&n("example.nl"), &mut out);
        let www_at = out.len();
        comp.encode_name(&n("www.example.nl"), &mut out);
        assert!(suffix_matches(&out, 0, n("example.nl").as_wire()));
        assert!(suffix_matches(&out, 0, n("EXAMPLE.NL").as_wire()));
        assert!(suffix_matches(&out, www_at, n("www.example.nl").as_wire()));
        assert!(!suffix_matches(&out, 0, n("example.nz").as_wire()));
        assert!(!suffix_matches(&out, 0, n("sub.example.nl").as_wire()));
        assert!(!suffix_matches(&out, 0, n("nl").as_wire()));
    }

    #[test]
    fn canonical_ordering() {
        // RFC 4034 §6.1 example ordering flavor
        let mut v = vec![
            n("z.example.nl"),
            n("a.example.nl"),
            n("example.nl"),
            n("nl"),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                n("nl"),
                n("example.nl"),
                n("a.example.nl"),
                n("z.example.nl")
            ]
        );
    }

    /// Labels (deepest first) whose wire form is exactly `total` octets,
    /// cut and filled from `noise`. `total` is 1 or at least 3.
    fn labels_with_wire_len(total: usize, noise: &[u8]) -> Vec<Vec<u8>> {
        let mut noise = noise.iter().copied().cycle();
        let mut labels = Vec::new();
        let mut left = total - 1; // the root octet
        while left > 0 {
            // a label takes 2..=64 octets and must not strand a single one
            let mut take = 2 + noise.next().unwrap() as usize % (left.min(64) - 1);
            if left - take == 1 {
                take = if take == 64 { 63 } else { take + 1 };
            }
            labels.push(noise.by_ref().take(take - 1).collect());
            left -= take;
        }
        labels
    }

    fn from_model(labels: &[Vec<u8>]) -> Result<Name, WireError> {
        Name::from_labels(labels.iter().map(|l| l.as_slice()))
    }

    /// RFC 4034 §6.1 over the label lists themselves.
    fn model_cmp(a: &[Vec<u8>], b: &[Vec<u8>]) -> core::cmp::Ordering {
        let fold = |labels: &[Vec<u8>]| -> Vec<Vec<u8>> {
            labels
                .iter()
                .rev()
                .map(|l| l.to_ascii_lowercase())
                .collect()
        };
        fold(a).cmp(&fold(b))
    }

    /// The same octets, case included (`==` folds it).
    fn same_octets(a: &Name, b: &Name) -> bool {
        a.as_wire() == b.as_wire()
    }

    fn hash_of(name: &Name) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        h.finish()
    }

    /// Wire lengths either side of the inline capacity, and the longest.
    fn straddling_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(INLINE_CAP - 1),
            Just(INLINE_CAP),
            Just(INLINE_CAP + 1),
            Just(MAX_NAME_LEN)
        ]
    }

    fn noise() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 64..=320)
    }

    proptest! {
        /// A name behaves as its label list does, whichever
        /// representation holds it and whichever its relatives land in.
        #[test]
        fn representation_never_shows(
            len_a in straddling_len(),
            len_b in straddling_len(),
            noise_a in noise(),
            noise_b in noise(),
        ) {
            let model = labels_with_wire_len(len_a, &noise_a);
            let name = from_model(&model).unwrap();
            prop_assert_eq!(name.wire_len(), len_a);
            prop_assert_eq!(matches!(name.repr, Repr::Inline { .. }), len_a <= INLINE_CAP);
            prop_assert_eq!(name.labels().map(<[u8]>::to_vec).collect::<Vec<_>>(), model.clone());

            // parse and presentation format rebuild the same octets
            let (parsed, end) = Name::parse(name.as_wire(), 0).unwrap();
            prop_assert_eq!(end, len_a);
            prop_assert!(same_octets(&parsed, &name));
            let shown = name.to_string();
            prop_assert!(same_octets(&shown.parse().unwrap(), &name));

            // Eq and Hash fold ASCII case and nothing else
            let swapped: Vec<Vec<u8>> = model
                .iter()
                .map(|l| l.iter().map(|b| if b.is_ascii_alphabetic() { b ^ 0x20 } else { *b }).collect())
                .collect();
            let other_case = from_model(&swapped).unwrap();
            prop_assert_eq!(&other_case, &name);
            prop_assert_eq!(hash_of(&other_case), hash_of(&name));
            prop_assert_eq!(other_case.cmp(&name), core::cmp::Ordering::Equal);

            // Ord is the model's, across representations
            let model_b = labels_with_wire_len(len_b, &noise_b);
            let name_b = from_model(&model_b).unwrap();
            prop_assert_eq!(name.cmp(&name_b), model_cmp(&model, &model_b));
            prop_assert_eq!(name == name_b, model_cmp(&model, &model_b).is_eq());

            // parent and ancestor walk down through the capacity
            let mut walk = name.clone();
            for depth in (0..model.len()).rev() {
                walk = walk.parent();
                let expect = from_model(&model[model.len() - depth..]).unwrap();
                prop_assert!(same_octets(&walk, &expect));
                prop_assert!(same_octets(&name.ancestor(depth), &expect));
                prop_assert!(name.is_subdomain_of(&walk));
                prop_assert!(other_case.is_subdomain_of(&walk));
                prop_assert!(!walk.is_subdomain_of(&name));
            }
            prop_assert!(walk.is_root());
            prop_assert!(same_octets(&name.ancestor(model.len() + 3), &name));

            // child walks up through it, until the name would pass 255
            let label = &noise_b[..1 + noise_b[0] as usize % 63];
            let grown = 1 + label.len() + len_a;
            match name.child(label) {
                Ok(child) => {
                    prop_assert!(grown <= MAX_NAME_LEN);
                    prop_assert_eq!(child.wire_len(), grown);
                    prop_assert_eq!(child.labels().next().unwrap(), label);
                    prop_assert!(same_octets(&child.parent(), &name));
                    prop_assert!(child.is_subdomain_of(&name));
                    prop_assert!(child.is_minimized_child_of(&name));
                }
                Err(e) => prop_assert_eq!(e, WireError::NameTooLong(grown)),
            }
        }

        /// 256 octets is one too many for every constructor.
        #[test]
        fn one_octet_past_the_limit_is_refused(noise in noise()) {
            let model = labels_with_wire_len(MAX_NAME_LEN + 1, &noise);
            prop_assert_eq!(from_model(&model), Err(WireError::NameTooLong(256)));
            let mut wire: Vec<u8> = Vec::new();
            for l in &model {
                wire.push(l.len() as u8);
                wire.extend_from_slice(l);
            }
            wire.push(0);
            prop_assert!(matches!(Name::parse(&wire, 0), Err(WireError::NameTooLong(_))));
            let longest = from_model(&model[1..]).unwrap();
            prop_assert_eq!(longest.child(&model[0]), Err(WireError::NameTooLong(256)));
            // each label's presentation form ends in its own dot
            let shown: String = model
                .iter()
                .map(|l| from_model(std::slice::from_ref(l)).unwrap().to_string())
                .collect();
            prop_assert_eq!(shown.parse::<Name>(), Err(WireError::NameTooLong(256)));
        }
    }

    /// The byte stream `Name::hash` must feed a hasher, built out and
    /// written at once: per label, its length as a native `usize`, then
    /// its case-folded octets.
    fn hash_as_one_stream<H: Hasher>(name: &Name, state: &mut H) {
        let mut stream = Vec::new();
        for label in name.labels() {
            stream.extend_from_slice(&label.len().to_ne_bytes());
            stream.extend(label.iter().map(u8::to_ascii_lowercase));
        }
        state.write(&stream);
    }

    /// The compressor as it was: every suffix keyed by FNV-1a over its
    /// own folded octets, so a name of `n` labels hashed `n` suffixes
    /// from scratch.
    #[derive(Default)]
    struct SuffixRehashingCompressor {
        seen: HashMap<u64, u16>,
    }

    impl SuffixRehashingCompressor {
        fn encode_name(&mut self, name: &Name, out: &mut Vec<u8>) {
            let fnv_lower = |w: &[u8]| {
                w.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x100_0000_01b3)
                })
            };
            let wire = name.as_wire();
            let mut pos = 0usize;
            while wire[pos] != 0 {
                let key = fnv_lower(&wire[pos..]);
                match self.seen.get(&key) {
                    Some(&offset) if suffix_matches(out, offset as usize, &wire[pos..]) => {
                        out.push(0xc0 | ((offset >> 8) as u8));
                        out.push(offset as u8);
                        return;
                    }
                    Some(_) => {
                        out.extend_from_slice(&wire[pos..]);
                        return;
                    }
                    None => {
                        let here = out.len();
                        if here <= 0x3fff {
                            self.seen.insert(key, here as u16);
                        }
                        let len = wire[pos] as usize;
                        out.extend_from_slice(&wire[pos..pos + 1 + len]);
                        pos += 1 + len;
                    }
                }
            }
            out.push(0);
        }
    }

    /// Names over a few short labels, so suffixes repeat, each octet's
    /// case drawn from `case`.
    fn name_set() -> impl Strategy<Value = Vec<Name>> {
        let label = prop::collection::vec(0usize..5, 1..=6);
        (prop::collection::vec(label, 1..=12), any::<u64>()).prop_map(|(names, case)| {
            const POOL: [&[u8]; 5] = [b"www", b"example", b"nl", b"ns1", b"x"];
            let mut bit = 0u32;
            names
                .iter()
                .map(|picks| {
                    let labels: Vec<Vec<u8>> = picks
                        .iter()
                        .map(|&p| {
                            POOL[p]
                                .iter()
                                .map(|&b| {
                                    bit = (bit + 1) % 64;
                                    if case >> bit & 1 == 1 {
                                        b.to_ascii_uppercase()
                                    } else {
                                        b
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    Name::from_labels(labels.iter().map(Vec::as_slice)).unwrap()
                })
                .collect()
        })
    }

    #[test]
    fn unstepping_a_label_keys_the_suffix_after_it() {
        for name in ["www.Example.NL", "a.b.c.d.e.f.example.nl", "x", "."] {
            let wire = n(name);
            let wire = wire.as_wire();
            let (mut key, mut pos) = (suffix_key(wire, 0), 0);
            while wire[pos] != 0 {
                let label = &wire[pos..pos + 1 + wire[pos] as usize];
                key = label.iter().fold(key, |h, &b| fnv_unstep(h, b));
                pos += label.len();
                assert_eq!(key, suffix_key(wire, pos), "{name} at {pos}");
            }
            assert_eq!(key, FNV_BASIS);
        }
    }

    proptest! {
        /// `Name::hash` feeds SipHash exactly the per-label stream of
        /// lengths and folded octets, whatever the case and length: the
        /// same hash as that stream written at once, under
        /// `DefaultHasher` (the cache's eviction tie-break) and under a
        /// keyed `RandomState` (the maps).
        #[test]
        fn hash_is_the_per_label_stream(len in straddling_len(), noise in noise(), flips in any::<u64>()) {
            use std::collections::hash_map::{DefaultHasher, RandomState};
            use std::hash::BuildHasher;
            let model = labels_with_wire_len(len, &noise);
            let recased: Vec<Vec<u8>> = model
                .iter()
                .enumerate()
                .map(|(i, l)| l.iter().map(|b| if flips >> (i % 64) & 1 == 1 { b.to_ascii_uppercase() } else { *b }).collect())
                .collect();
            for name in [from_model(&model).unwrap(), from_model(&recased).unwrap()] {
                let (mut now, mut then) = (DefaultHasher::new(), DefaultHasher::new());
                name.hash(&mut now);
                hash_as_one_stream(&name, &mut then);
                prop_assert_eq!(now.finish(), then.finish());
                let keyed = RandomState::new();
                let (mut now, mut then) = (keyed.build_hasher(), keyed.build_hasher());
                name.hash(&mut now);
                hash_as_one_stream(&name, &mut then);
                prop_assert_eq!(now.finish(), then.finish());
            }
        }

        /// The one-pass compressor writes what the suffix-rehashing one
        /// wrote, for any set of names in any case mix, and across a
        /// reset.
        #[test]
        fn encode_name_matches_the_rehashing_compressor(first in name_set(), second in name_set()) {
            let mut comp = ReusableCompressor::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for names in [&first, &second] {
                comp.reset();
                got.clear();
                let mut old = SuffixRehashingCompressor::default();
                want.clear();
                for name in names {
                    comp.encode_name(name, &mut got);
                    old.encode_name(name, &mut want);
                }
                prop_assert_eq!(&got, &want);
            }
        }
    }

    #[test]
    fn short_names_live_inline() {
        let at_cap = Name::from_labels([&[b'a'; INLINE_CAP - 2][..]]).unwrap();
        assert_eq!(at_cap.wire_len(), INLINE_CAP);
        assert!(matches!(at_cap.repr, Repr::Inline { .. }));
        assert_eq!(at_cap.heap_bytes(), 0);
        let over = Name::from_labels([&[b'a'; INLINE_CAP - 1][..]]).unwrap();
        assert!(matches!(over.repr, Repr::Heap(_)));
        assert_eq!(over.heap_bytes(), INLINE_CAP + 1);
        // slicing a boxed name back under the capacity moves it inline
        let long = n("a-label-long-enough-to-spill.example.nl");
        assert!(matches!(long.repr, Repr::Heap(_)));
        assert!(matches!(long.parent().repr, Repr::Inline { .. }));
        assert!(matches!(long.ancestor(1).repr, Repr::Inline { .. }));
    }
}
