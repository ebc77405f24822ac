//! Dense ids for the sinks: a key read off the wire is hashed once, on
//! its way into an [`Interner`], and everything grouped by it after that
//! is an array or an [`IdSet`] indexed by the id.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

/// A source address as an [`Interner`] key. Equality is the address's;
/// the hash feeds the keyed hasher its bits in one write, where
/// `IpAddr`'s derived `Hash` makes three (variant, length, octets). The
/// hasher and its key are unchanged, so the map is no easier to flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Addr(pub(crate) IpAddr);

impl Hash for Addr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.0 {
            IpAddr::V4(a) => state.write_u32(a.to_bits()),
            IpAddr::V6(a) => state.write_u128(a.to_bits()),
        }
    }
}

/// Keys numbered `0, 1, 2, …` in first-sighting order. The map is std's
/// SipHash with a random key, so addresses taken from an untrusted
/// capture cannot be chosen to collide.
#[derive(Debug, Clone)]
pub(crate) struct Interner<K> {
    ids: HashMap<K, u32>,
    keys: Vec<K>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner {
            ids: HashMap::new(),
            keys: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> Interner<K> {
    /// The id of `key`, and whether this call assigned it.
    pub(crate) fn intern(&mut self, key: K) -> (u32, bool) {
        match self.ids.entry(key) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let id = u32::try_from(self.keys.len()).expect("fewer than 2^32 keys");
                e.insert(id);
                self.keys.push(key);
                (id, true)
            }
        }
    }

    /// Every key, indexed by its id.
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Keys interned so far.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

/// A set of dense ids: one bit each, and its size kept as bits are set.
#[derive(Debug, Default, Clone)]
pub(crate) struct IdSet {
    words: Vec<u64>,
    len: u64,
}

impl IdSet {
    /// Add `id` to the set.
    pub(crate) fn insert(&mut self, id: u32) {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Ids in the set.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The ids in the set, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| (w * 64 + b) as u32)
        })
    }

    /// Add every id of `other`, renumbered through `remap` (its id →
    /// this set's id).
    pub(crate) fn merge(&mut self, other: &IdSet, remap: &[u32]) {
        for id in other.iter() {
            self.insert(remap[id as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_numbers_keys_in_first_sighting_order() {
        let mut i = Interner::default();
        assert_eq!(i.intern("b"), (0, true));
        assert_eq!(i.intern("a"), (1, true));
        assert_eq!(i.intern("b"), (0, false));
        assert_eq!(i.keys(), ["b", "a"]);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn id_set_counts_each_id_once_and_merges_through_a_remap() {
        let mut a = IdSet::default();
        for id in [3, 64, 3, 200] {
            a.insert(id);
        }
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().collect::<Vec<_>>(), [3, 64, 200]);
        let mut b = IdSet::default();
        b.insert(0);
        b.insert(1);
        // b's 0 is a's 64 (already present), b's 1 is new
        a.merge(&b, &[64, 7]);
        assert_eq!(a.iter().collect::<Vec<_>>(), [3, 7, 64, 200]);
        assert_eq!(a.len(), 4);
    }
}
