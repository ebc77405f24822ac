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
//! Each of the three maps is a hash map plus an ordered index over the
//! same entries keyed by `(expiry, stable hash of the key)` — the order
//! in which entries are evicted. Address and server sets are shared
//! slices ([`Addrs`]): a hit hands out another reference to the cached
//! set, and a put stores the caller's. With `n` entries in a map:
//!
//! | operation | cost |
//! |---|---|
//! | [`FleetCache::consult`], [`FleetCache::addresses`], [`FleetCache::negative`] | O(1) hash probes, no allocation, hit or miss; O(log n) more when the probe removes a dead entry |
//! | [`FleetCache::deepest_cut`] | at most `labels + 1` hash probes, deepest ancestor first; the first live hit wins; no allocation |
//! | `put_*` below capacity | O(log n): one hash insert, one index insert; the set is not copied ([`FleetCache::put_addresses`] takes a `Vec`, which becomes one shared slice) |
//! | `put_*` at capacity | O(log n): pop the index's first entry, then as above |
//! | [`FleetCache::stats`], [`FleetCache::len`] | O(1) |
//!
//! Nothing on these paths iterates a map.
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

use dns_wire::name::Name;
use dns_wire::types::RType;
use std::borrow::Borrow;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use std::sync::{Arc, Mutex};

/// A cached address or server set, shared between the cache, the walk
/// that learned it and every resolver that hits it.
pub type Addrs = Arc<[IpAddr]>;

/// What a cached negative answer asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Negative {
    /// The name does not exist (RFC 2308 type 1/2).
    NxDomain,
    /// The name exists but has no records of this type (type 3).
    NoData,
}

/// One cache entry: the value, when it expires (`inserted + ttl`,
/// compared per lookup — an entry inserted just before a wall-hour tick
/// survives into the next hour for its full remaining TTL), and its
/// key's stable hash, which with the expiry locates it in the index.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    expiry_us: u64,
    key_hash: u64,
}

impl<V> Slot<V> {
    fn live_at(&self, now_us: u64) -> bool {
        now_us < self.expiry_us
    }
}

/// A TTL map with earliest-expiry eviction: entries by key, and the
/// same entries in eviction order. [`FleetCache`] is three of these;
/// `simnet`'s calibrated sampler keeps one per resolver. Times are
/// whatever unit the caller compares in — the map only orders them.
#[derive(Debug, Clone)]
pub struct TtlMap<K, V> {
    entries: HashMap<K, Slot<V>>,
    /// `(expiry, stable_hash(key)) -> key`, one per entry; the first is
    /// the next victim. The hash breaks expiry ties the same way on
    /// every run, whatever the hash map's iteration order.
    order: BTreeMap<(u64, u64), K>,
}

impl<K, V> Default for TtlMap<K, V> {
    fn default() -> Self {
        TtlMap {
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }
}

impl<K: Hash + Eq + Clone, V> TtlMap<K, V> {
    /// Entries held, live or dead-but-not-yet-removed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry under `key` if it is live; a dead one is left alone.
    fn peek<Q>(&self, key: &Q, now_us: u64) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries
            .get_key_value(key)
            .filter(|(_, slot)| slot.live_at(now_us))
            .map(|(k, slot)| (k, &slot.value))
    }

    /// A clone of the live value under `key`; a dead entry is removed.
    /// An entry is live while `now_us < expiry_us`.
    pub fn lookup<Q>(&mut self, key: &Q, now_us: u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        let slot = self.entries.get(key)?;
        if slot.live_at(now_us) {
            return Some(slot.value.clone());
        }
        self.order.remove(&(slot.expiry_us, slot.key_hash));
        self.entries.remove(key);
        None
    }

    /// Insert or refresh `key`. An insert that would grow a map already
    /// at `capacity` first evicts the earliest-expiring entry; a refresh
    /// grows nothing and evicts nothing. Returns whether it evicted.
    pub fn put(&mut self, key: K, value: V, expiry_us: u64, capacity: usize) -> bool {
        let evicted = self.entries.len() >= capacity
            && !self.entries.contains_key(&key)
            && self.evict_first();
        let displaced = match self.entries.entry(key) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                let key = self
                    .order
                    .remove(&(slot.expiry_us, slot.key_hash))
                    .expect("every entry is indexed");
                slot.value = value;
                slot.expiry_us = expiry_us;
                self.order.insert((expiry_us, slot.key_hash), key)
            }
            Entry::Vacant(e) => {
                let key_hash = stable_hash(e.key());
                let displaced = self.order.insert((expiry_us, key_hash), e.key().clone());
                e.insert(Slot {
                    value,
                    expiry_us,
                    key_hash,
                });
                displaced
            }
        };
        // two keys with one 64-bit hash and one expiry cannot both be
        // indexed: the older goes, as if evicted, so map and index
        // stay one-to-one
        if let Some(other) = displaced {
            self.entries.remove(&other);
        }
        debug_assert_eq!(self.entries.len(), self.order.len());
        evicted
    }

    fn evict_first(&mut self) -> bool {
        match self.order.pop_first() {
            Some((_, victim)) => self.entries.remove(&victim).is_some(),
            None => false,
        }
    }
}

/// The hash that orders entries of equal expiry: SipHash with fixed
/// keys, so the eviction order is the same on every run.
fn stable_hash<K: Hash + ?Sized>(k: &K) -> u64 {
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// The borrowed form of an answer-map key, so a lookup hashes and
/// compares `(&Name, RType)` against the owned `(Name, RType)` keys
/// without cloning the name.
trait AnswerKey {
    fn qname(&self) -> &Name;
    fn qtype(&self) -> RType;
}

impl AnswerKey for (Name, RType) {
    fn qname(&self) -> &Name {
        &self.0
    }
    fn qtype(&self) -> RType {
        self.1
    }
}

impl AnswerKey for (&Name, RType) {
    fn qname(&self) -> &Name {
        self.0
    }
    fn qtype(&self) -> RType {
        self.1
    }
}

impl<'a> Borrow<dyn AnswerKey + 'a> for (Name, RType) {
    fn borrow(&self) -> &(dyn AnswerKey + 'a) {
        self
    }
}

// field by field in order, which is how the owned tuple hashes
impl Hash for dyn AnswerKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.qname().hash(state);
        self.qtype().hash(state);
    }
}

impl PartialEq for dyn AnswerKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.qtype() == other.qtype() && self.qname() == other.qname()
    }
}

impl Eq for dyn AnswerKey + '_ {}

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
        let key: &dyn AnswerKey = &(qname, qtype);
        let found = match self.negatives.lookup(key, now_us) {
            Some(kind) => Some(Err(kind)),
            None => self.addresses.lookup(key, now_us).map(Ok),
        };
        self.count(found.is_some());
        found
    }

    /// Cached addresses for `(qname, qtype)`, honoring per-entry TTL.
    /// Counts one hit or one miss.
    pub fn addresses(&mut self, qname: &Name, qtype: RType, now_us: u64) -> Option<Addrs> {
        let key: &dyn AnswerKey = &(qname, qtype);
        let found = self.addresses.lookup(key, now_us);
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
        self.put_answer(qname, qtype, addrs.into(), now_us, ttl_secs);
    }

    /// [`FleetCache::put_addresses`] for a set that is already shared:
    /// the cache keeps another reference to it.
    pub fn put_answer(
        &mut self,
        qname: &Name,
        qtype: RType,
        addrs: Addrs,
        now_us: u64,
        ttl_secs: u32,
    ) {
        if ttl_secs == 0 {
            return;
        }
        let key = (qname.clone(), qtype);
        let evicted = self
            .addresses
            .put(key, addrs, expiry(now_us, ttl_secs), self.capacity);
        self.evictions += u64::from(evicted);
    }

    /// Cached denial for `(qname, qtype)`, if still live. Counts one
    /// hit or one miss.
    pub fn negative(&mut self, qname: &Name, qtype: RType, now_us: u64) -> Option<Negative> {
        let key: &dyn AnswerKey = &(qname, qtype);
        let found = self.negatives.lookup(key, now_us);
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
        let key = (qname.clone(), qtype);
        let evicted = self
            .negatives
            .put(key, kind, expiry(now_us, ttl_secs), self.capacity);
        self.evictions += u64::from(evicted);
    }

    /// The deepest live delegation covering `name`: its ancestors are
    /// probed deepest first (there is one per depth, so the first live
    /// hit is the deepest).
    pub fn deepest_cut(&self, name: &Name, now_us: u64) -> Option<(Name, Addrs)> {
        (0..=name.label_count()).rev().find_map(|depth| {
            self.delegations
                .peek(&name.ancestor(depth), now_us)
                .map(|(cut, servers)| (cut.clone(), servers.clone()))
        })
    }

    /// Cache a learned zone cut.
    pub fn put_delegation(
        &mut self,
        cut: &Name,
        servers: impl Into<Addrs>,
        now_us: u64,
        ttl_secs: u32,
    ) {
        if ttl_secs == 0 {
            return;
        }
        let evicted = self.delegations.put(
            cut.clone(),
            servers.into(),
            expiry(now_us, ttl_secs),
            self.capacity,
        );
        self.evictions += u64::from(evicted);
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

    /// Fraction of lookups answered from the cache so far.
    pub fn hit_ratio(&self) -> f64 {
        self.stats().hit_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        c.put_delegation(&n("nl."), vec![addr("194.0.28.53")], 0, 3600);
        c.put_delegation(&n("x.nl."), vec![addr("192.0.2.10")], 0, 60);
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
        c.put_delegation(&n("nl."), vec![addr("194.0.28.53")], 0, 3600);
        c.put_delegation(&n("x.nl."), vec![addr("192.0.2.10")], 0, 60);
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
        c.put_delegation(&Name::root(), vec![addr("198.41.0.4")], 0, 60);
        assert_eq!(c.deepest_cut(&n("xnl."), 5).unwrap().0, Name::root());
        assert_eq!(c.deepest_cut(&n("NL."), 5).unwrap().0, n("nl."));
    }

    #[test]
    fn evictions_and_per_map_sizes_are_counted() {
        let mut c = FleetCache::with_capacity(2);
        for (i, name) in ["a.nl.", "b.nl.", "c.nl.", "d.nl."].iter().enumerate() {
            c.put_addresses(&n(name), RType::A, vec![addr("192.0.2.1")], i as u64, 60);
            c.put_delegation(&n(name), vec![addr("192.0.2.2")], i as u64, 60);
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
        c.put_delegation(&n("nl."), vec![addr("194.0.28.53")], 0, 10);
        c.put_delegation(&n("x.nl."), vec![addr("192.0.2.10")], 0, 3600);
        c.put_delegation(&n("x.nl."), vec![addr("192.0.2.11")], 1, 3600);
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
        // per put: hash the new key for the map and for the index,
        // clone it into the index, hash the victim to remove it — and
        // the occasional rehash of a growing table; a scan would be
        // 65,536 per put
        let per_put = KEY_TOUCHES.with(|t| t.get()) / PUTS;
        assert!(per_put <= 8, "{per_put} key hashes/clones per put");
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
}
