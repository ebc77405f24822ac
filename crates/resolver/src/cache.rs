//! The fleet resolver cache: positive answers, negative answers, and
//! delegations, each entry carrying its own expiry (`insertion time +
//! TTL`) so decay is per-record — never a wall-clock bucket.
//!
//! One instance is shared by every resolver of a fleet (the paper's
//! observation that a provider's frontend fans queries into a common
//! cache layer), behind [`SharedCache`]'s mutex; a resolver with no
//! fleet keeps a private one. All times are microseconds on the
//! simulation clock; live mode feeds wall-clock micros instead — the
//! cache only ever compares them.
//!
//! # Cost of each operation
//!
//! Each of the three maps is one [`TtlMap`]: its entries in a slab, an
//! open-addressed index over them, and a binary heap over the same
//! entries ordered by `(expiry, stable hash of the key)` — the order in
//! which entries are evicted (a map that has never held more than 8
//! entries has only the slab, which it scans). A key's stable hash is
//! taken once per call and serves as both the index's hash and the
//! heap's tie-break. An address or server set ([`Addrs`]) of one
//! address — every answer the fleet plane's leaf tier gives — is held
//! inline and costs nothing to put or hand out. A longer set is
//! interned: the cache holds one copy of each distinct one, a hit hands
//! out another reference to it, and a put of a set the cache already
//! holds allocates nothing. With `n` entries in a map:
//!
//! | operation | cost |
//! |---|---|
//! | [`FleetCache::consult`], [`FleetCache::addresses`], [`FleetCache::negative`] | one hash of the name, O(1) probes, no allocation, hit or miss; O(log n) more when the probe removes a dead entry |
//! | [`FleetCache::deepest_cut`] | one case-folded pass over the name, then one hash and O(1) probes per ancestor, deepest first; the first live hit wins; no allocation but the clone of a cut longer than `Name`'s 30-octet inline form |
//! | `put_*` below capacity | one hash, O(1) probes and an O(log n) heap insert; the key is cloned only when it is new, and a set of two or more addresses only when the cache holds no equal one |
//! | `put_*` at capacity | O(log n): remove the heap's first entry, then as above |
//! | [`FleetCache::stats`], [`FleetCache::len`] | O(1) |
//!
//! Nothing on these paths iterates a map. The set of interned sets is
//! swept for sets that only it still holds when it has doubled since
//! the last sweep, which keeps it within twice the sets in use.
//! Growing a map reallocates its three buffers; emptying one keeps
//! them, so a map that has reached its size allocates nothing more.
//!
//! # The clock runs backwards, so nothing is reaped by time
//!
//! `simnet::emerge` draws each stimulus time uniformly inside its hour
//! slot, so `now_us` moves both ways between calls: an entry that is
//! dead at one call is live again at the next. An entry therefore
//! leaves a map only where a caller-visible rule removes it — a lookup
//! of *that key* finds it dead, or a put at capacity evicts the
//! earliest-expiring one — and never because some other operation
//! noticed the time. A dead entry still holds its slot (and is first in
//! line for eviction); `deepest_cut` skips it without removing it.

use dns_wire::name::{Name, MAX_NAME_LEN};
use dns_wire::types::RType;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use std::sync::{Arc, Mutex};

/// A cached address or server set, shared between the cache, the walk
/// that learned it and every resolver that hits it: one address is held
/// inline, and a longer set is the cache's interned copy of it. Either
/// way it derefs, compares and hashes as the slice of its addresses.
#[derive(Clone)]
pub struct Addrs(Set);

#[derive(Clone)]
enum Set {
    One(IpAddr),
    Many(Arc<[IpAddr]>),
}

impl std::ops::Deref for Addrs {
    type Target = [IpAddr];

    fn deref(&self) -> &[IpAddr] {
        match &self.0 {
            Set::One(addr) => std::slice::from_ref(addr),
            Set::Many(set) => set,
        }
    }
}

/// A set of its own: inline when it is one address, else a fresh
/// shared copy ([`FleetCache`] hands out its interned one instead).
impl From<&[IpAddr]> for Addrs {
    fn from(set: &[IpAddr]) -> Addrs {
        match set {
            [addr] => Addrs(Set::One(*addr)),
            _ => Addrs(Set::Many(set.into())),
        }
    }
}

impl From<Vec<IpAddr>> for Addrs {
    fn from(set: Vec<IpAddr>) -> Addrs {
        Addrs::from(&set[..])
    }
}

impl PartialEq for Addrs {
    fn eq(&self, other: &Addrs) -> bool {
        **self == **other
    }
}

impl Eq for Addrs {}

impl Hash for Addrs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Addrs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// What a cached negative answer asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Negative {
    /// The name does not exist (RFC 2308 type 1/2).
    NxDomain,
    /// The name exists but has no records of this type (type 3).
    NoData,
}

/// One cache entry: the key and value, when it expires (`inserted +
/// ttl`, compared per lookup — an entry inserted just before a
/// wall-hour tick survives into the next hour for its full remaining
/// TTL), its key's stable hash, and where it sits in the heap.
#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    expiry_us: u64,
    hash: u64,
    heap_pos: u32,
}

impl<K, V> Slot<K, V> {
    fn live_at(&self, now_us: u64) -> bool {
        now_us < self.expiry_us
    }
}

/// One heap element: an entry's place in the eviction order, and the
/// slab slot it orders.
#[derive(Debug, Clone, Copy)]
struct Order {
    expiry_us: u64,
    hash: u64,
    slot: u32,
}

impl Order {
    /// What the heap orders by: unique per entry (see [`TtlMap::put`]).
    fn key(&self) -> (u64, u64) {
        (self.expiry_us, self.hash)
    }
}

/// Entries a map holds before it builds its index and heap. Up to this
/// many, a probe scans the slab's hashes and an eviction scans it for
/// the least `(expiry, hash)`: most of the calibrated sampler's
/// per-resolver maps never hold more, and stay one allocation.
const SMALL: usize = 8;

/// A TTL map with earliest-expiry eviction: entries by key, and the
/// same entries in eviction order. [`FleetCache`] is three of these;
/// `simnet`'s calibrated sampler keeps one per resolver. Times are
/// whatever unit the caller compares in — the map only orders them.
#[derive(Debug, Clone)]
pub struct TtlMap<K, V> {
    /// The entries, densely: a removal moves the last one into the hole.
    slab: Vec<Slot<K, V>>,
    /// Linear-probing index over `slab`, 0 for an empty bucket, else a
    /// key hash's high half over (slab position + 1). The high half
    /// also picks the home bucket. Empty while the map is small (see
    /// [`SMALL`]), then a power of two at least twice `slab.len()`.
    index: Vec<u64>,
    /// A binary min-heap over every entry by `(expiry, stable hash)`:
    /// the first is the next victim. The hash breaks expiry ties the
    /// same way on every run. Empty while the map is small.
    heap: Vec<Order>,
}

impl<K, V> Default for TtlMap<K, V> {
    fn default() -> Self {
        TtlMap {
            slab: Vec::new(),
            index: Vec::new(),
            heap: Vec::new(),
        }
    }
}

/// The slab positions whose entries carry one full key hash, in probe
/// order.
struct Probe<'a, K, V> {
    map: &'a TtlMap<K, V>,
    hash: u64,
    bucket: usize,
}

impl<K, V> Iterator for Probe<'_, K, V> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let slab = &self.map.slab;
        let Some(mask) = self.map.index.len().checked_sub(1) else {
            // a small map: the bucket is a slab position
            let i = self.bucket
                + slab[self.bucket..]
                    .iter()
                    .position(|s| s.hash == self.hash)?;
            self.bucket = i + 1;
            return Some(i);
        };
        loop {
            let word = self.map.index[self.bucket];
            if word == 0 {
                return None;
            }
            self.bucket = (self.bucket + 1) & mask;
            if word >> 32 == self.hash >> 32 {
                let i = (word as u32 - 1) as usize;
                if slab[i].hash == self.hash {
                    return Some(i);
                }
            }
        }
    }
}

impl<K: Hash + Eq, V> TtlMap<K, V> {
    /// Entries held, live or dead-but-not-yet-removed.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Entries the map holds room for without growing.
    pub fn capacity(&self) -> usize {
        match self.index.len() {
            0 => self.slab.capacity(),
            buckets => buckets / 2,
        }
    }

    /// Drop every entry: the map is as empty as a new one, and keeps
    /// its buffers.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.heap.clear();
        self.index.fill(0);
    }

    /// A clone of the live value under `key`; a dead entry is removed.
    /// An entry is live while `now_us < expiry_us`.
    pub fn lookup<Q>(&mut self, key: &Q, now_us: u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        self.lookup_hashed(stable_hash(key), |k| k.borrow() == key, now_us)
    }

    /// Insert or refresh `key`. An insert that would grow a map already
    /// at `capacity` first evicts the earliest-expiring entry; a refresh
    /// grows nothing and evicts nothing. Returns whether it evicted.
    pub fn put(&mut self, key: K, value: V, expiry_us: u64, capacity: usize) -> bool {
        let hash = stable_hash(&key);
        match self.find(hash, |k| *k == key) {
            Some(i) => self.refresh(i, value, expiry_us),
            None => self.insert(hash, key, value, expiry_us, capacity),
        }
    }

    /// The entry under `key` if it is live; a dead one is left alone.
    #[cfg(test)]
    fn peek<Q>(&self, key: &Q, now_us: u64) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.peek_hashed(stable_hash(key), |k| k.borrow() == key, now_us)
    }

    fn is_small(&self) -> bool {
        self.index.is_empty()
    }

    fn probe(&self, hash: u64) -> Probe<'_, K, V> {
        let bucket = if self.is_small() { 0 } else { self.home(hash) };
        Probe {
            map: self,
            hash,
            bucket,
        }
    }

    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.index.len() - 1)
    }

    fn find(&self, hash: u64, eq: impl Fn(&K) -> bool) -> Option<usize> {
        self.probe(hash).find(|&i| eq(&self.slab[i].key))
    }

    /// [`TtlMap::peek`] for a key whose stable hash is `hash` and which
    /// `eq` recognizes.
    fn peek_hashed(&self, hash: u64, eq: impl Fn(&K) -> bool, now_us: u64) -> Option<(&K, &V)> {
        let slot = &self.slab[self.find(hash, eq)?];
        slot.live_at(now_us).then_some((&slot.key, &slot.value))
    }

    /// [`TtlMap::lookup`] for a key whose stable hash is `hash` and
    /// which `eq` recognizes.
    fn lookup_hashed(&mut self, hash: u64, eq: impl Fn(&K) -> bool, now_us: u64) -> Option<V>
    where
        V: Clone,
    {
        let i = self.find(hash, eq)?;
        if self.slab[i].live_at(now_us) {
            return Some(self.slab[i].value.clone());
        }
        self.remove(i);
        None
    }

    /// [`TtlMap::put`] for a key whose stable hash is `hash` and which
    /// `eq` recognizes; `key` builds it only when it is new.
    fn put_hashed(
        &mut self,
        hash: u64,
        eq: impl Fn(&K) -> bool,
        key: impl FnOnce() -> K,
        value: V,
        expiry_us: u64,
        capacity: usize,
    ) -> bool {
        match self.find(hash, eq) {
            Some(i) => self.refresh(i, value, expiry_us),
            None => self.insert(hash, key(), value, expiry_us, capacity),
        }
    }

    /// Give the entry at `i` a new value and expiry, and move it to its
    /// new place in the eviction order.
    fn refresh(&mut self, i: usize, value: V, expiry_us: u64) -> bool {
        let hash = self.slab[i].hash;
        let i = self.displace(hash, expiry_us, Some(i)).expect("still held");
        let slot = &mut self.slab[i];
        slot.value = value;
        slot.expiry_us = expiry_us;
        let pos = slot.heap_pos as usize;
        if !self.is_small() {
            self.heap[pos].expiry_us = expiry_us;
            self.reorder(pos);
        }
        false
    }

    /// Add a key the map does not hold, evicting first at `capacity`.
    fn insert(&mut self, hash: u64, key: K, value: V, expiry_us: u64, capacity: usize) -> bool {
        let evicted = self.slab.len() >= capacity && self.evict_first();
        self.displace(hash, expiry_us, None);
        let i = self.slab.len();
        if self.is_small() && i < SMALL {
            // room for a small map's whole life, at its first insert
            self.slab.reserve_exact(SMALL - i);
        } else if 2 * (i + 1) > self.index.len() {
            self.grow();
        }
        self.slab.push(Slot {
            key,
            value,
            expiry_us,
            hash,
            heap_pos: self.heap.len() as u32,
        });
        if !self.is_small() {
            self.index_insert(hash, i);
            self.heap.push(Order {
                expiry_us,
                hash,
                slot: i as u32,
            });
            self.sift_up(i);
            debug_assert_eq!(self.slab.len(), self.heap.len());
        }
        evicted
    }

    /// Two keys with one 64-bit hash and one expiry cannot both be
    /// ordered: before an entry takes `(expiry_us, hash)`, any other
    /// entry at that place goes, as if evicted but not counted. Returns
    /// where the entry at `keep` is afterwards.
    fn displace(&mut self, hash: u64, expiry_us: u64, keep: Option<usize>) -> Option<usize> {
        let other = self
            .probe(hash)
            .find(|&i| Some(i) != keep && self.slab[i].expiry_us == expiry_us);
        let Some(other) = other else {
            return keep;
        };
        self.remove(other);
        // the last entry moved into the hole
        keep.map(|k| if k == self.slab.len() { other } else { k })
    }

    fn evict_first(&mut self) -> bool {
        let first = if self.is_small() {
            (0..self.slab.len()).min_by_key(|&i| (self.slab[i].expiry_us, self.slab[i].hash))
        } else {
            self.heap.first().map(|first| first.slot as usize)
        };
        first.map(|i| self.remove(i)).is_some()
    }

    /// Remove the entry at `i` from the index, the heap and the slab.
    fn remove(&mut self, i: usize) {
        if self.is_small() {
            self.slab.swap_remove(i);
            return;
        }
        let (hash, pos) = (self.slab[i].hash, self.slab[i].heap_pos as usize);
        self.unindex(hash, i);
        let last = self.heap.pop().expect("every entry is ordered");
        if pos < self.heap.len() {
            self.place(pos, last);
            self.reorder(pos);
        }
        self.slab.swap_remove(i);
        if let Some(moved) = self.slab.get(i) {
            let (hash, pos) = (moved.hash, moved.heap_pos as usize);
            let bucket = self.bucket_of(hash, self.slab.len());
            self.index[bucket] = word(hash, i);
            self.heap[pos].slot = i as u32;
        }
    }

    /// Double the index (to four times [`SMALL`] when a small map
    /// outgrows its scan, ordering its entries into the heap) and
    /// re-place every entry; the slab and heap get room for as many
    /// entries.
    fn grow(&mut self) {
        let small = self.is_small();
        let buckets = (2 * self.index.len()).max(4 * SMALL);
        self.index.clear();
        self.index.resize(buckets, 0);
        for i in 0..self.slab.len() {
            self.index_insert(self.slab[i].hash, i);
        }
        self.slab.reserve_exact(buckets / 2 - self.slab.len());
        self.heap.reserve_exact(buckets / 2 - self.heap.len());
        if small {
            for (i, slot) in self.slab.iter_mut().enumerate() {
                slot.heap_pos = i as u32;
                self.heap.push(Order {
                    expiry_us: slot.expiry_us,
                    hash: slot.hash,
                    slot: i as u32,
                });
            }
            for pos in (0..self.heap.len() / 2).rev() {
                self.sift_down(pos);
            }
        }
    }

    fn index_insert(&mut self, hash: u64, i: usize) {
        let mask = self.index.len() - 1;
        let mut bucket = self.home(hash);
        while self.index[bucket] != 0 {
            bucket = (bucket + 1) & mask;
        }
        self.index[bucket] = word(hash, i);
    }

    /// The bucket that holds slab position `i`, whose key hash is `hash`.
    fn bucket_of(&self, hash: u64, i: usize) -> usize {
        let mask = self.index.len() - 1;
        let mut bucket = self.home(hash);
        while self.index[bucket] != word(hash, i) {
            bucket = (bucket + 1) & mask;
        }
        bucket
    }

    /// Empty the bucket of slab position `i`, shifting back each later
    /// entry of its run that may move closer to its home bucket, so a
    /// probe never needs a tombstone.
    fn unindex(&mut self, hash: u64, i: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.bucket_of(hash, i);
        let mut next = (hole + 1) & mask;
        loop {
            let w = self.index[next];
            if w == 0 {
                break;
            }
            let home = (w >> 32) as usize & mask;
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.index[hole] = w;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.index[hole] = 0;
    }

    /// Put `order` at heap position `pos`, and tell its entry.
    fn place(&mut self, pos: usize, order: Order) {
        self.slab[order.slot as usize].heap_pos = pos as u32;
        self.heap[pos] = order;
    }

    /// Restore the heap order around position `pos`, whose key changed.
    fn reorder(&mut self, pos: usize) {
        if pos > 0 && self.heap[pos].key() < self.heap[(pos - 1) / 2].key() {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        let order = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[parent].key() < order.key() {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, order);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let order = self.heap[pos];
        loop {
            let mut child = 2 * pos + 1;
            let Some(left) = self.heap.get(child) else {
                break;
            };
            if let Some(right) = self.heap.get(child + 1) {
                if right.key() < left.key() {
                    child += 1;
                }
            }
            if order.key() < self.heap[child].key() {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, order);
    }
}

/// An index bucket's content for slab position `i` under key hash `hash`.
fn word(hash: u64, i: usize) -> u64 {
    (hash & !u64::from(u32::MAX)) | (i as u64 + 1)
}

/// The hash that orders entries of equal expiry: SipHash with fixed
/// keys, so the eviction order is the same on every run.
fn stable_hash<K: Hash + ?Sized>(k: &K) -> u64 {
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// Labels a name of [`MAX_NAME_LEN`] octets holds at most: each takes a
/// length octet and one more, and the root octet ends it.
const MAX_LABELS: usize = (MAX_NAME_LEN - 1) / 2;
const USIZE: usize = std::mem::size_of::<usize>();

/// The stream `Name`'s `Hash` feeds a hasher — per label, its length as
/// a `usize`, then its octets case-folded — laid out in one pass over
/// the wire form, so that the stable hash of the name or of any of its
/// ancestors is one write of a suffix of it.
struct NameStream {
    bytes: [u8; MAX_LABELS * USIZE + MAX_NAME_LEN],
    len: usize,
    /// The wire offset of each label, deepest first, then of the root.
    starts: [u8; MAX_LABELS + 1],
    labels: usize,
}

impl NameStream {
    fn of(name: &Name) -> NameStream {
        let mut s = NameStream {
            bytes: [0; MAX_LABELS * USIZE + MAX_NAME_LEN],
            len: 0,
            starts: [0; MAX_LABELS + 1],
            labels: 0,
        };
        let wire = name.as_wire();
        let mut at = 0;
        loop {
            s.starts[s.labels] = at as u8;
            let len = usize::from(wire[at]);
            if len == 0 {
                return s;
            }
            s.labels += 1;
            s.bytes[s.len..s.len + USIZE].copy_from_slice(&len.to_ne_bytes());
            s.len += USIZE;
            let label = &wire[at + 1..at + 1 + len];
            for (out, b) in s.bytes[s.len..s.len + len].iter_mut().zip(label) {
                *out = b.to_ascii_lowercase();
            }
            s.len += len;
            at += 1 + len;
        }
    }

    /// The ancestor `depth` labels deep (the name itself from its own
    /// depth on): where its wire form starts in the name's, and a hasher
    /// that has taken its stream.
    fn ancestor(&self, depth: usize) -> (usize, DefaultHasher) {
        let skip = self.labels.saturating_sub(depth);
        let wire_at = usize::from(self.starts[skip]);
        // each label before it took USIZE - 1 octets more in the stream
        let stream_at = wire_at + skip * (USIZE - 1);
        let mut h = DefaultHasher::new();
        h.write(&self.bytes[stream_at..self.len]);
        (wire_at, h)
    }

    /// `stable_hash(&(name, qtype))`, the key of an answer.
    fn answer_hash(&self, qtype: RType) -> u64 {
        let (_, mut h) = self.ancestor(self.labels);
        qtype.hash(&mut h);
        h.finish()
    }
}

/// Counters and sizes of one cache (or, summed with
/// [`CacheStats::absorb`], of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (positive or negative).
    pub hits: u64,
    /// Lookups that found nothing live.
    pub misses: u64,
    /// Entries removed to make room for a put at capacity.
    pub evictions: u64,
    /// Entries (live or not yet removed) in the address map.
    pub addresses: usize,
    /// Entries in the negative map.
    pub negatives: usize,
    /// Entries in the delegation map.
    pub delegations: usize,
}

impl CacheStats {
    /// Entries across the three maps.
    pub fn entries(&self) -> usize {
        self.addresses + self.negatives + self.delegations
    }

    /// `hits / (hits + misses)`: the fraction of lookups the cache
    /// answered (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        match self.hits + self.misses {
            0 => 0.0,
            lookups => self.hits as f64 / lookups as f64,
        }
    }

    /// Add another cache's figures to these.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.addresses += other.addresses;
        self.negatives += other.negatives;
        self.delegations += other.delegations;
    }
}

/// The stable hash of the answer key `(qname, qtype)`, and the test
/// that recognizes that key.
fn answer_key(qname: &Name, qtype: RType) -> (u64, impl Fn(&(Name, RType)) -> bool + Copy + '_) {
    let hash = NameStream::of(qname).answer_hash(qtype);
    (hash, move |k: &(Name, RType)| k.1 == qtype && k.0 == *qname)
}

/// Interned sets held before the first sweep for unused ones.
const MIN_SWEEP: usize = 64;

/// The per-fleet resolver cache. Not thread-safe by itself — wrap in
/// [`SharedCache`] to share across concurrent resolvers.
#[derive(Debug, Clone, Default)]
pub struct FleetCache {
    /// (qname, qtype) -> addresses.
    addresses: TtlMap<(Name, RType), Addrs>,
    /// (qname, qtype) -> cached denial.
    negatives: TtlMap<(Name, RType), Negative>,
    /// zone cut -> authoritative server addresses.
    delegations: TtlMap<Name, Addrs>,
    /// One copy of every set of two or more addresses held.
    sets: HashSet<Arc<[IpAddr]>>,
    /// The set count at which `sets` is next swept.
    sweep_at: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Default per-map entry budget: sized for a provider-scale fleet at
/// simulation scale, small enough that eviction paths actually run.
pub const DEFAULT_CAPACITY: usize = 65_536;

fn expiry(now_us: u64, ttl_secs: u32) -> u64 {
    now_us.saturating_add(u64::from(ttl_secs) * 1_000_000)
}

impl FleetCache {
    /// An empty cache holding up to `capacity` entries per map.
    pub fn with_capacity(capacity: usize) -> FleetCache {
        FleetCache {
            capacity: capacity.max(1),
            ..FleetCache::default()
        }
    }

    /// One lookup for a resolver about to walk: the cached denial for
    /// `(qname, qtype)` if one is live, else the cached addresses, else
    /// `None`. Counts one hit or one miss.
    pub fn consult(
        &mut self,
        qname: &Name,
        qtype: RType,
        now_us: u64,
    ) -> Option<Result<Addrs, Negative>> {
        let (hash, eq) = answer_key(qname, qtype);
        let found = match self.negatives.lookup_hashed(hash, eq, now_us) {
            Some(kind) => Some(Err(kind)),
            None => self.addresses.lookup_hashed(hash, eq, now_us).map(Ok),
        };
        self.count(found.is_some());
        found
    }

    /// Cached addresses for `(qname, qtype)`, honoring per-entry TTL.
    /// Counts one hit or one miss.
    pub fn addresses(&mut self, qname: &Name, qtype: RType, now_us: u64) -> Option<Addrs> {
        let (hash, eq) = answer_key(qname, qtype);
        let found = self.addresses.lookup_hashed(hash, eq, now_us);
        self.count(found.is_some());
        found
    }

    /// Cache a positive answer.
    pub fn put_addresses(
        &mut self,
        qname: &Name,
        qtype: RType,
        addrs: Vec<IpAddr>,
        now_us: u64,
        ttl_secs: u32,
    ) {
        self.put_answer(qname, qtype, &addrs, now_us, ttl_secs);
    }

    /// [`FleetCache::put_addresses`] from a borrowed set, which comes
    /// back shared: the cache's copy of it.
    pub fn put_answer(
        &mut self,
        qname: &Name,
        qtype: RType,
        addrs: &[IpAddr],
        now_us: u64,
        ttl_secs: u32,
    ) -> Addrs {
        let addrs = self.intern(addrs);
        if ttl_secs > 0 {
            let (hash, eq) = answer_key(qname, qtype);
            let evicted = self.addresses.put_hashed(
                hash,
                eq,
                || (qname.clone(), qtype),
                addrs.clone(),
                expiry(now_us, ttl_secs),
                self.capacity,
            );
            self.evictions += u64::from(evicted);
        }
        addrs
    }

    /// Cached denial for `(qname, qtype)`, if still live. Counts one
    /// hit or one miss.
    pub fn negative(&mut self, qname: &Name, qtype: RType, now_us: u64) -> Option<Negative> {
        let (hash, eq) = answer_key(qname, qtype);
        let found = self.negatives.lookup_hashed(hash, eq, now_us);
        self.count(found.is_some());
        found
    }

    /// Cache a denial under the zone's negative TTL.
    pub fn put_negative(
        &mut self,
        qname: &Name,
        qtype: RType,
        kind: Negative,
        now_us: u64,
        ttl_secs: u32,
    ) {
        if ttl_secs == 0 {
            return;
        }
        let (hash, eq) = answer_key(qname, qtype);
        let evicted = self.negatives.put_hashed(
            hash,
            eq,
            || (qname.clone(), qtype),
            kind,
            expiry(now_us, ttl_secs),
            self.capacity,
        );
        self.evictions += u64::from(evicted);
    }

    /// The deepest live delegation covering `name`: its ancestors are
    /// probed deepest first (there is one per depth, so the first live
    /// hit is the deepest).
    pub fn deepest_cut(&self, name: &Name, now_us: u64) -> Option<(Name, Addrs)> {
        let stream = NameStream::of(name);
        let wire = name.as_wire();
        (0..=stream.labels).rev().find_map(|depth| {
            let (at, hash) = stream.ancestor(depth);
            let ancestor = &wire[at..];
            self.delegations
                .peek_hashed(
                    hash.finish(),
                    |cut| cut.as_wire().eq_ignore_ascii_case(ancestor),
                    now_us,
                )
                .map(|(cut, servers)| (cut.clone(), servers.clone()))
        })
    }

    /// Cache a learned zone cut; its server set comes back shared: the
    /// cache's copy of it.
    pub fn put_delegation(
        &mut self,
        cut: &Name,
        servers: &[IpAddr],
        now_us: u64,
        ttl_secs: u32,
    ) -> Addrs {
        let servers = self.intern(servers);
        if ttl_secs > 0 {
            let (_, hash) = NameStream::of(cut).ancestor(usize::MAX);
            let evicted = self.delegations.put_hashed(
                hash.finish(),
                |k| k == cut,
                || cut.clone(),
                servers.clone(),
                expiry(now_us, ttl_secs),
                self.capacity,
            );
            self.evictions += u64::from(evicted);
        }
        servers
    }

    /// `set` as the cache holds it: one address inline, a longer set
    /// the cache's copy, made on first sight. Sets only this cache's
    /// interning still holds are dropped in a sweep each time their
    /// count has doubled since the last one.
    pub(crate) fn intern(&mut self, set: &[IpAddr]) -> Addrs {
        if let [addr] = set {
            return Addrs(Set::One(*addr));
        }
        if let Some(shared) = self.sets.get(set) {
            return Addrs(Set::Many(shared.clone()));
        }
        if self.sets.len() >= self.sweep_at {
            // nothing can clone a set without this cache's lock, so a
            // count of one stays one
            self.sets.retain(|s| Arc::strong_count(s) > 1);
            self.sweep_at = (2 * self.sets.len()).max(MIN_SWEEP);
        }
        let shared: Arc<[IpAddr]> = set.into();
        self.sets.insert(shared.clone());
        Addrs(Set::Many(shared))
    }

    /// Distinct address and server sets interned, in use or not yet
    /// swept.
    #[cfg(test)]
    fn interned(&self) -> usize {
        self.sets.len()
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Counters and per-map sizes, as of now. `hits + misses` is the
    /// number of `consult`/`addresses`/`negative` calls so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            addresses: self.addresses.len(),
            negatives: self.negatives.len(),
            delegations: self.delegations.len(),
        }
    }

    /// Total live-or-stale entries across the three maps.
    pub fn len(&self) -> usize {
        self.stats().entries()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cheaply-clonable handle to a fleet-shared [`FleetCache`].
#[derive(Debug, Clone, Default)]
pub struct SharedCache(Arc<Mutex<FleetCache>>);

impl SharedCache {
    /// A fresh shared cache with the given per-map capacity.
    pub fn with_capacity(capacity: usize) -> SharedCache {
        SharedCache(Arc::new(Mutex::new(FleetCache::with_capacity(capacity))))
    }

    /// Run `f` under the cache lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut FleetCache) -> R) -> R {
        f(&mut self.0.lock().expect("fleet cache lock"))
    }

    /// Counters and per-map sizes so far.
    pub fn stats(&self) -> CacheStats {
        self.with(|c| c.stats())
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Fraction of lookups the cache answered so far.
    pub fn hit_ratio(&self) -> f64 {
        self.stats().hit_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Just;
    use std::collections::{BTreeMap, HashMap};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    const HOUR_US: u64 = 3_600_000_000;

    #[test]
    fn expiry_is_insertion_plus_ttl_not_wall_bucket() {
        let mut c = FleetCache::with_capacity(16);
        // inserted one second before a wall-hour boundary, TTL 120s:
        // must survive well past the boundary and die at insertion+120s
        let t0 = HOUR_US - 1_000_000;
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], t0, 120);
        assert!(c.addresses(&n("a.nl."), RType::A, HOUR_US + 1).is_some());
        assert!(c
            .addresses(&n("a.nl."), RType::A, t0 + 119_000_000)
            .is_some());
        assert!(c
            .addresses(&n("a.nl."), RType::A, t0 + 120_000_000)
            .is_none());
    }

    #[test]
    fn negative_entries_expire_per_record_too() {
        let mut c = FleetCache::with_capacity(16);
        c.put_negative(&n("gone.nl."), RType::A, Negative::NxDomain, 0, 900);
        assert_eq!(
            c.negative(&n("gone.nl."), RType::A, 899_999_999),
            Some(Negative::NxDomain)
        );
        assert_eq!(c.negative(&n("gone.nl."), RType::A, 900_000_000), None);
    }

    #[test]
    fn deepest_live_cut_wins() {
        let mut c = FleetCache::with_capacity(16);
        c.put_delegation(&n("nl."), &[addr("194.0.28.53")], 0, 3600);
        c.put_delegation(&n("x.nl."), &[addr("192.0.2.10")], 0, 60);
        let (cut, _) = c.deepest_cut(&n("www.x.nl."), 0).unwrap();
        assert_eq!(cut, n("x.nl."));
        // after the child cut expires, the TLD cut covers again
        let (cut, _) = c.deepest_cut(&n("www.x.nl."), 61_000_000).unwrap();
        assert_eq!(cut, n("nl."));
    }

    #[test]
    fn capacity_evicts_earliest_expiry() {
        let mut c = FleetCache::with_capacity(2);
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 0, 10);
        c.put_addresses(&n("b.nl."), RType::A, vec![addr("192.0.2.2")], 0, 1000);
        c.put_addresses(&n("c.nl."), RType::A, vec![addr("192.0.2.3")], 0, 500);
        assert!(c.addresses(&n("a.nl."), RType::A, 1).is_none(), "evicted");
        assert!(c.addresses(&n("b.nl."), RType::A, 1).is_some());
        assert!(c.addresses(&n("c.nl."), RType::A, 1).is_some());
    }

    #[test]
    fn consult_prefers_a_live_denial_and_counts_once() {
        let mut c = FleetCache::with_capacity(16);
        assert_eq!(c.consult(&n("a.nl."), RType::A, 0), None);
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 0, 60);
        assert_eq!(
            c.consult(&n("A.NL."), RType::A, 1),
            Some(Ok(vec![addr("192.0.2.1")].into())),
            "keys fold case"
        );
        assert_eq!(c.consult(&n("a.nl."), RType::Aaaa, 1), None, "other qtype");
        c.put_negative(&n("a.nl."), RType::A, Negative::NoData, 1, 10);
        assert_eq!(
            c.consult(&n("a.nl."), RType::A, 2),
            Some(Err(Negative::NoData))
        );
        // the denial dies first; the addresses under it are still live
        assert_eq!(
            c.consult(&n("a.nl."), RType::A, 11_000_000),
            Some(Ok(vec![addr("192.0.2.1")].into()))
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (3, 2), "one count per consult");
        assert_eq!(
            s.negatives, 0,
            "the dead denial was removed by its own lookup"
        );
    }

    #[test]
    fn every_lookup_is_a_hit_or_a_miss() {
        let mut c = FleetCache::with_capacity(16);
        c.put_negative(&n("gone.nl."), RType::A, Negative::NxDomain, 0, 900);
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 0, 60);
        let mut lookups = 0;
        for name in ["gone.nl.", "a.nl.", "b.nl."] {
            for now in [0, 61_000_000] {
                c.negative(&n(name), RType::A, now);
                c.addresses(&n(name), RType::A, now);
                c.consult(&n(name), RType::A, now);
                lookups += 3;
            }
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, lookups);
        assert!(s.hits > 0 && s.misses > 0);
    }

    #[test]
    fn a_backwards_clock_finds_dead_entries_live_again() {
        // simnet::emerge draws times uniformly inside an hour slot, so
        // consecutive calls see the clock move both ways
        let mut c = FleetCache::with_capacity(16);
        c.put_delegation(&n("nl."), &[addr("194.0.28.53")], 0, 3600);
        c.put_delegation(&n("x.nl."), &[addr("192.0.2.10")], 0, 60);
        let late = 61_000_000;
        assert_eq!(c.deepest_cut(&n("www.x.nl."), late).unwrap().0, n("nl."));
        assert_eq!(c.deepest_cut(&n("www.x.nl."), 5).unwrap().0, n("x.nl."));
        assert_eq!(
            c.stats().delegations,
            2,
            "a dead cut is skipped, not reaped"
        );
        // an address lookup that finds its own entry dead does remove it
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 0, 60);
        assert!(c.addresses(&n("a.nl."), RType::A, late).is_none());
        assert!(c.addresses(&n("a.nl."), RType::A, 5).is_none());
        // the root cut covers everything, and only an exact label match counts
        c.put_delegation(&Name::root(), &[addr("198.41.0.4")], 0, 60);
        assert_eq!(c.deepest_cut(&n("xnl."), 5).unwrap().0, Name::root());
        assert_eq!(c.deepest_cut(&n("NL."), 5).unwrap().0, n("nl."));
    }

    #[test]
    fn evictions_and_per_map_sizes_are_counted() {
        let mut c = FleetCache::with_capacity(2);
        for (i, name) in ["a.nl.", "b.nl.", "c.nl.", "d.nl."].iter().enumerate() {
            c.put_addresses(&n(name), RType::A, vec![addr("192.0.2.1")], i as u64, 60);
            c.put_delegation(&n(name), &[addr("192.0.2.2")], i as u64, 60);
        }
        c.put_negative(&n("gone.nl."), RType::A, Negative::NxDomain, 0, 900);
        let s = c.stats();
        assert_eq!((s.addresses, s.delegations, s.negatives), (2, 2, 1));
        assert_eq!(s.evictions, 4);
        assert_eq!(s.entries(), c.len());
        // earliest expiry went first, in both maps
        assert!(c.addresses(&n("a.nl."), RType::A, 5).is_none());
        assert!(c.addresses(&n("d.nl."), RType::A, 5).is_some());
        assert!(c.deepest_cut(&n("b.nl."), 5).is_none());
        assert!(c.deepest_cut(&n("c.nl."), 5).is_some());
    }

    #[test]
    fn a_refresh_at_capacity_evicts_nothing() {
        let mut c = FleetCache::with_capacity(2);
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 0, 10);
        c.put_addresses(&n("b.nl."), RType::A, vec![addr("192.0.2.2")], 0, 1000);
        // a.nl. is the earliest to expire; refreshing b.nl. used to evict it
        c.put_addresses(&n("B.NL."), RType::A, vec![addr("192.0.2.3")], 1, 1000);
        assert_eq!(c.stats().evictions, 0);
        assert!(
            c.addresses(&n("a.nl."), RType::A, 1).is_some(),
            "bystander kept"
        );
        assert_eq!(
            c.addresses(&n("b.nl."), RType::A, 1),
            Some(vec![addr("192.0.2.3")].into()),
            "refreshed in place"
        );
        // same for the other two maps
        c.put_negative(&n("x.nl."), RType::A, Negative::NxDomain, 0, 10);
        c.put_negative(&n("y.nl."), RType::A, Negative::NxDomain, 0, 900);
        c.put_negative(&n("y.nl."), RType::A, Negative::NoData, 1, 900);
        assert_eq!(
            c.negative(&n("x.nl."), RType::A, 1),
            Some(Negative::NxDomain)
        );
        assert_eq!(c.negative(&n("y.nl."), RType::A, 1), Some(Negative::NoData));
        c.put_delegation(&n("nl."), &[addr("194.0.28.53")], 0, 10);
        c.put_delegation(&n("x.nl."), &[addr("192.0.2.10")], 0, 3600);
        c.put_delegation(&n("x.nl."), &[addr("192.0.2.11")], 1, 3600);
        assert_eq!(c.deepest_cut(&n("nl."), 1).unwrap().0, n("nl."));
        assert_eq!(c.stats().evictions, 0);
        // the refreshed entry sits at its new expiry in the eviction order
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 2, 5000);
        c.put_addresses(&n("c.nl."), RType::A, vec![addr("192.0.2.4")], 2, 9000);
        assert_eq!(c.stats().evictions, 1);
        assert!(
            c.addresses(&n("b.nl."), RType::A, 3).is_none(),
            "now the earliest"
        );
        assert!(c.addresses(&n("a.nl."), RType::A, 3).is_some());
    }

    /// A key that counts how often it is hashed or cloned — the two
    /// things the old eviction did to every entry of a full map.
    #[derive(PartialEq, Eq)]
    struct CountingKey(u64);

    thread_local! {
        static KEY_TOUCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    impl Hash for CountingKey {
        fn hash<H: Hasher>(&self, state: &mut H) {
            KEY_TOUCHES.with(|t| t.set(t.get() + 1));
            self.0.hash(state);
        }
    }

    impl Clone for CountingKey {
        fn clone(&self) -> Self {
            KEY_TOUCHES.with(|t| t.set(t.get() + 1));
            CountingKey(self.0)
        }
    }

    #[test]
    fn a_put_into_a_full_map_touches_a_handful_of_keys() {
        let mut map: TtlMap<CountingKey, u64> = TtlMap::default();
        for i in 0..DEFAULT_CAPACITY as u64 {
            map.put(CountingKey(i), i, 1_000 + i, DEFAULT_CAPACITY);
        }
        assert_eq!(map.len(), DEFAULT_CAPACITY);
        KEY_TOUCHES.with(|t| t.set(0));
        const PUTS: u64 = 1_000;
        for i in 0..PUTS {
            let fresh = DEFAULT_CAPACITY as u64 + i;
            assert!(map.put(CountingKey(fresh), fresh, 1_000 + fresh, DEFAULT_CAPACITY));
        }
        assert_eq!(map.len(), DEFAULT_CAPACITY);
        // per put: one hash of the new key, which is moved in; the
        // victim leaves by its stored hash, and so does the entry moved
        // into its slot — a scan would be 65,536 per put. The bound is
        // 1.25 times that.
        let per_put = KEY_TOUCHES.with(|t| t.get()) as f64 / PUTS as f64;
        assert!(per_put <= 1.25, "{per_put} key hashes/clones per put");
        // the 1,000 earliest expiries are the ones that went
        assert!(map.peek(&CountingKey(PUTS - 1), 0).is_none());
        assert!(map.peek(&CountingKey(PUTS), 0).is_some());
    }

    /// The calibrated sampler's use of the map: a `(domain, rtype)`
    /// key and no value.
    type SamplerMap = TtlMap<(u64, u16), ()>;

    #[test]
    fn sampler_keys_expire_exclusively_and_differ_by_rtype() {
        let mut m = SamplerMap::default();
        m.put((5, 1), (), 1_000 + 60, 100);
        assert!(m.lookup(&(5, 1), 1_000 + 59).is_some());
        assert!(m.lookup(&(5, 28), 1_000).is_none(), "other rtype");
        assert_eq!(m.len(), 1);
        assert!(m.lookup(&(5, 1), 1_000 + 60).is_none(), "dead at expiry");
        assert!(m.is_empty(), "removed by its own lookup");
    }

    #[test]
    fn sampler_keys_evict_soonest_expiry_and_refresh_in_place() {
        let mut m = SamplerMap::default();
        m.put((1, 1), (), 10, 2);
        m.put((2, 1), (), 100, 2);
        assert!(!m.put((2, 1), (), 120, 2), "a refresh at capacity");
        assert!(m.peek(&(1, 1), 0).is_some(), "bystander kept");
        assert!(m.put((3, 1), (), 50, 2), "a new key at capacity");
        assert_eq!(m.len(), 2);
        assert!(m.peek(&(1, 1), 0).is_none(), "soonest expiry went");
        assert!(m.peek(&(2, 1), 0).is_some());
        assert!(m.peek(&(3, 1), 0).is_some());
    }

    #[test]
    fn shared_handle_counts_hits() {
        let shared = SharedCache::with_capacity(16);
        shared.with(|c| c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 0, 60));
        let hit = shared.with(|c| c.addresses(&n("a.nl."), RType::A, 1).is_some());
        assert!(hit);
        assert_eq!(shared.hits(), 1);
        assert!(shared.hit_ratio() > 0.0);
    }

    /// The map `TtlMap` was before it became one flat table — a hash
    /// map plus a `BTreeMap` eviction index, each key hashed by both —
    /// kept as the oracle of its behaviour.
    struct OracleMap<K, V> {
        entries: HashMap<K, (V, u64, u64)>,
        order: BTreeMap<(u64, u64), K>,
    }

    impl<K: Hash + Eq + Clone, V: Clone> OracleMap<K, V> {
        fn new() -> Self {
            OracleMap {
                entries: HashMap::new(),
                order: BTreeMap::new(),
            }
        }

        fn peek(&self, key: &K, now_us: u64) -> Option<V> {
            let (value, expiry_us, _) = self.entries.get(key)?;
            (now_us < *expiry_us).then(|| value.clone())
        }

        fn lookup(&mut self, key: &K, now_us: u64) -> Option<V> {
            let &(ref value, expiry_us, hash) = self.entries.get(key)?;
            if now_us < expiry_us {
                return Some(value.clone());
            }
            self.order.remove(&(expiry_us, hash));
            self.entries.remove(key);
            None
        }

        fn clear(&mut self) {
            self.entries.clear();
            self.order.clear();
        }

        fn put(&mut self, key: K, value: V, expiry_us: u64, capacity: usize) -> bool {
            let evicted = self.entries.len() >= capacity
                && !self.entries.contains_key(&key)
                && match self.order.pop_first() {
                    Some((_, victim)) => self.entries.remove(&victim).is_some(),
                    None => false,
                };
            let hash = stable_hash(&key);
            if let Some((_, old_expiry, _)) = self.entries.get(&key) {
                self.order.remove(&(*old_expiry, hash));
            }
            self.entries.insert(key.clone(), (value, expiry_us, hash));
            if let Some(other) = self.order.insert((expiry_us, hash), key) {
                self.entries.remove(&other);
            }
            evicted
        }

        /// Every entry in eviction order.
        fn contents(&self) -> Vec<(K, V, u64)> {
            self.order
                .iter()
                .map(|(&(expiry_us, _), k)| (k.clone(), self.entries[k].0.clone(), expiry_us))
                .collect()
        }
    }

    impl<K: Hash + Eq + Clone, V: Clone> TtlMap<K, V> {
        /// Every entry in eviction order, after checking that the index,
        /// the heap and the slab agree.
        fn contents(&self) -> Vec<(K, V, u64)> {
            if self.is_small() {
                assert!(self.slab.len() <= SMALL && self.heap.is_empty());
            } else {
                assert_eq!(self.heap.len(), self.slab.len());
                assert!(self.index.len() >= 2 * self.slab.len());
            }
            for (pos, order) in self.heap.iter().enumerate() {
                let slot = &self.slab[order.slot as usize];
                assert_eq!(slot.heap_pos as usize, pos);
                assert_eq!((slot.expiry_us, slot.hash), order.key());
                if pos > 0 {
                    assert!(self.heap[(pos - 1) / 2].key() < order.key(), "heap order");
                }
            }
            for (i, slot) in self.slab.iter().enumerate() {
                if !self.is_small() {
                    assert_eq!(self.index[self.bucket_of(slot.hash, i)], word(slot.hash, i));
                }
                assert_eq!(self.find(slot.hash, |k| *k == slot.key), Some(i));
            }
            if !self.is_small() {
                assert_eq!(
                    self.index.iter().filter(|&&w| w != 0).count(),
                    self.slab.len()
                );
            }
            let mut all: Vec<&Slot<K, V>> = self.slab.iter().collect();
            all.sort_by_key(|s| (s.expiry_us, s.hash));
            all.into_iter()
                .map(|s| (s.key.clone(), s.value.clone(), s.expiry_us))
                .collect()
        }
    }

    /// A key whose stable hash it shares with three other keys, so that
    /// equal hashes — and with an equal expiry, the displacement of one
    /// entry by another — are common.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u8);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            (self.0 / 4).hash(state);
        }
    }

    #[derive(Debug, Clone)]
    enum MapOp {
        Put(u8, u8),
        Lookup,
        Peek,
        Clear,
    }

    fn map_op() -> impl Strategy<Value = MapOp> {
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(v, bump)| MapOp::Put(v, bump)),
            (any::<u8>(), any::<u8>()).prop_map(|(v, bump)| MapOp::Put(v, bump)),
            Just(MapOp::Lookup),
            Just(MapOp::Peek),
            Just(MapOp::Clear),
        ]
    }

    #[test]
    fn a_put_at_an_equal_hash_and_expiry_displaces_the_other_key() {
        let mut map: TtlMap<Colliding, u8> = TtlMap::default();
        assert!(!map.put(Colliding(4), 1, 10, 8));
        assert!(!map.put(Colliding(5), 2, 20, 8));
        assert!(!map.put(Colliding(6), 3, 10, 8));
        assert_eq!(map.peek(&Colliding(4), 0), None, "displaced, not evicted");
        assert_eq!(map.len(), 2);
        // a refresh onto another key's place displaces it too
        assert!(!map.put(Colliding(5), 4, 10, 8));
        assert_eq!(map.contents(), vec![(Colliding(5), 4, 10)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Puts, refreshes, lookups of live and dead entries, peeks and
        /// clears, at capacities on both sides of [`SMALL`], over keys
        /// whose stable hashes collide and a clock that moves both ways:
        /// the flat map returns what the oracle returns and holds the
        /// same entries in the same eviction order after every
        /// operation.
        #[test]
        fn ttl_map_matches_the_btree_oracle(
            capacity in 1usize..3 * SMALL,
            ops in prop::collection::vec((map_op(), 0u8..4 * SMALL as u8, 0u64..12), 1..240),
        ) {
            let mut real: TtlMap<Colliding, u8> = TtlMap::default();
            let mut oracle = OracleMap::new();
            for (step, (op, key, time)) in ops.into_iter().enumerate() {
                let key = Colliding(key);
                match op {
                    MapOp::Put(value, bump) => {
                        // whole ticks, so expiries tie often
                        let expiry = time + u64::from(bump % 4);
                        prop_assert_eq!(
                            real.put(key.clone(), value, expiry, capacity),
                            oracle.put(key, value, expiry, capacity)
                        );
                    }
                    MapOp::Lookup => {
                        prop_assert_eq!(real.lookup(&key, time), oracle.lookup(&key, time));
                    }
                    MapOp::Peek => {
                        let got = real.peek(&key, time).map(|(_, v)| *v);
                        prop_assert_eq!(got, oracle.peek(&key, time));
                    }
                    MapOp::Clear => {
                        let room = real.capacity();
                        real.clear();
                        oracle.clear();
                        prop_assert_eq!(real.capacity(), room, "clear keeps the buffers");
                    }
                }
                prop_assert!(real.len() <= capacity.max(1), "step {}", step);
                prop_assert_eq!(real.len(), oracle.entries.len(), "step {}", step);
                prop_assert_eq!(real.contents(), oracle.contents(), "step {}", step);
            }
        }
    }

    /// A name of 1–9 labels of 1–40 arbitrary octets (any case, dots
    /// and zeros included), up to the 255-octet limit: short names
    /// live inline, longer ones are boxed.
    fn any_name() -> impl Strategy<Value = Name> {
        prop::collection::vec(prop::collection::vec(any::<u8>(), 1..41), 0..10)
            .prop_filter_map("longer than 255 octets", |labels| {
                Name::from_labels(labels.iter().map(Vec::as_slice)).ok()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One pass over a name gives every ancestor's stable hash and
        /// wire form, and the answer key's hash, at every depth and
        /// past the name's own.
        #[test]
        fn one_pass_ancestor_hashes_are_the_stable_hashes(name in any_name()) {
            let stream = NameStream::of(&name);
            prop_assert_eq!(stream.labels, name.label_count());
            for depth in 0..=name.label_count() + 1 {
                let (at, hash) = stream.ancestor(depth);
                prop_assert_eq!(hash.finish(), stable_hash(&name.ancestor(depth)));
                prop_assert_eq!(&name.as_wire()[at..], name.ancestor_wire(depth));
            }
            for qtype in [RType::A, RType::Aaaa, RType::Ns] {
                prop_assert_eq!(stream.answer_hash(qtype), stable_hash(&(name.clone(), qtype)));
            }
        }
    }

    #[test]
    fn deepest_cut_finds_cuts_of_boxed_names() {
        let long = n("www.a-label-long-enough-to-box.the-name.example.nl.");
        assert!(long.heap_bytes() > 0, "longer than the inline form");
        let mut c = FleetCache::with_capacity(16);
        let cut = long.ancestor(4);
        assert!(cut.heap_bytes() > 0);
        c.put_delegation(&cut, &[addr("192.0.2.53")], 0, 60);
        c.put_delegation(&n("nl."), &[addr("194.0.28.53")], 0, 60);
        let (found, servers) = c.deepest_cut(&long, 1).unwrap();
        assert_eq!(found.as_wire(), cut.as_wire());
        assert_eq!(&servers[..], &[addr("192.0.2.53")]);
        let upper: Name = long.to_string().to_ascii_uppercase().parse().unwrap();
        assert_eq!(c.deepest_cut(&upper, 1).unwrap().0, cut, "folds case");
    }

    /// True when `a` and `b` are one interned copy.
    fn same_copy(a: &Addrs, b: &Addrs) -> bool {
        matches!((&a.0, &b.0), (Set::Many(a), Set::Many(b)) if Arc::ptr_eq(a, b))
    }

    #[test]
    fn equal_sets_are_held_once_and_unused_ones_are_swept() {
        let mut c = FleetCache::with_capacity(4);
        let pair = [addr("192.0.2.1"), addr("192.0.2.2")];
        let a = c.put_answer(&n("a.nl."), RType::A, &pair, 0, 60);
        let b = c.put_answer(&n("b.nl."), RType::A, &pair, 0, 60);
        let cut = c.put_delegation(&n("nl."), &pair, 0, 60);
        assert!(same_copy(&a, &b) && same_copy(&a, &cut), "one copy");
        assert_eq!(c.interned(), 1);
        drop((a, b, cut));
        // one address is held inline: nothing to intern
        let one = c.put_answer(&n("c.nl."), RType::A, &pair[..1], 0, 60);
        assert!(matches!(one.0, Set::One(_)) && one[..] == pair[..1]);
        assert_eq!(c.interned(), 1);
        // sets nobody holds any more, beyond the sweep's floor
        for i in 0..4 * MIN_SWEEP as u32 {
            let set = [pair[0], IpAddr::from((i + 1_000).to_be_bytes())];
            c.put_answer(&n("x.nl."), RType::A, &set, 1, 0);
        }
        assert!(c.interned() <= 2 * MIN_SWEEP, "{} sets held", c.interned());
        // the cached ones survive every sweep, content and all
        let held = c.addresses(&n("a.nl."), RType::A, 1).unwrap();
        assert_eq!(&held[..], &pair);
        assert_eq!(&c.deepest_cut(&n("w.nl."), 1).unwrap().1[..], &pair);
    }

    /// Two threads sharing one cache, as live `fleetgen`'s reactor
    /// threads do: every lookup is counted once, no map outgrows its
    /// capacity, and every set handed out holds what was put for its
    /// name.
    #[test]
    fn two_threads_share_one_cache() {
        const CAPACITY: usize = 32;
        const NAMES: u32 = 96;
        let shared = SharedCache::with_capacity(CAPACITY);
        let name = |i: u32| n(&format!("h{i}.example.nl."));
        // the set a name always caches: a few names share each one
        let set_of = |i: u32| {
            vec![
                addr("192.0.2.1"),
                IpAddr::from([198, 51, 100, (i / 3) as u8]),
            ]
        };
        let lookups: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u32)
                .map(|t| {
                    let shared = shared.clone();
                    scope.spawn(move || {
                        let mut lookups = 0;
                        for step in 0..4_000u32 {
                            let i = (step * 7 + t * 13) % NAMES;
                            let now = u64::from(step % 50) * 1_000_000;
                            let found = shared.with(|c| {
                                let found = c.consult(&name(i), RType::A, now);
                                if found.is_none() {
                                    c.put_answer(&name(i), RType::A, &set_of(i), now, 10);
                                    c.put_negative(
                                        &name(i + NAMES),
                                        RType::A,
                                        Negative::NoData,
                                        now,
                                        5,
                                    );
                                    c.put_delegation(&name(i), &set_of(i), now, 20);
                                }
                                found
                            });
                            lookups += 1;
                            if let Some(Ok(addrs)) = found {
                                assert_eq!(&addrs[..], &set_of(i)[..], "name {i}");
                            }
                            let cut = shared.with(|c| c.deepest_cut(&name(i), now));
                            if let Some((cut, servers)) = cut {
                                assert_eq!(cut, name(i));
                                assert_eq!(&servers[..], &set_of(i)[..], "cut {i}");
                            }
                        }
                        lookups
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let s = shared.stats();
        assert_eq!(s.hits + s.misses, lookups);
        assert!(s.hits > 0 && s.misses > 0 && s.evictions > 0, "{s:?}");
        assert!(s.addresses <= CAPACITY && s.negatives <= CAPACITY && s.delegations <= CAPACITY);
        assert!(shared.with(|c| c.interned()) <= 2 * MIN_SWEEP);
    }
}
