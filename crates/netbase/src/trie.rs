//! Longest-prefix-match binary tries over [`IpPrefix`] keys.
//!
//! One trie holds both families (IPv4 bits are left-aligned into the
//! 128-bit key space but families never collide because lookups walk the
//! family's own root). This is the substrate for IP→AS mapping at
//! 40k+ prefixes, the scale the paper's vantage points observe.
//!
//! The trie is a node arena: every node lives in one `Vec`, children are
//! `u32` indices into it, and stored pairs sit in a second `Vec` the
//! nodes point into. Building a table allocates only when one of the two
//! grows, and a clone copies the two buffers.

use crate::prefix::{addr_bits, IpPrefix};
use std::net::IpAddr;

/// "No child" and "no value". As an index it is past the end of any
/// arena, so one `get` both tests for a child and bounds-checks it.
const NONE: u32 = u32::MAX;
/// Arena slots of the two roots, which exist from the start.
const ROOT_V4: usize = 0;
const ROOT_V6: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Node {
    children: [u32; 2],
    /// Index into `PrefixTrie::values`, or [`NONE`].
    value: u32,
}

const EMPTY: Node = Node {
    children: [NONE, NONE],
    value: NONE,
};

/// A binary LPM trie mapping prefixes to values.
#[derive(Clone)]
pub struct PrefixTrie<V> {
    nodes: Vec<Node>,
    values: Vec<(IpPrefix, V)>,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// An arena index as a `u32`; the arena is capped below [`NONE`].
fn index(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&i| i != NONE)
        .expect("prefix trie arena exceeds u32 indices")
}

impl<V> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![EMPTY; 2],
            values: Vec::new(),
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn root(prefix: &IpPrefix) -> usize {
        if prefix.is_ipv4() {
            ROOT_V4
        } else {
            ROOT_V6
        }
    }

    /// Insert `prefix -> value`; returns the previous value if the exact
    /// prefix was already present.
    pub fn insert(&mut self, prefix: IpPrefix, value: V) -> Option<V> {
        let mut node = Self::root(&prefix);
        for bit in prefix.bits() {
            let next = self.nodes.len();
            let child = &mut self.nodes[node].children[usize::from(bit)];
            if *child == NONE {
                *child = index(next);
                self.nodes.push(EMPTY);
            }
            node = self.nodes[node].children[usize::from(bit)] as usize;
        }
        match self.nodes[node].value {
            NONE => {
                self.nodes[node].value = index(self.values.len());
                self.values.push((prefix, value));
                None
            }
            slot => Some(std::mem::replace(&mut self.values[slot as usize].1, value)),
        }
    }

    /// Longest-prefix match for `ip`: the most-specific stored prefix
    /// containing it, with its value.
    pub fn lookup(&self, ip: IpAddr) -> Option<(&IpPrefix, &V)> {
        let (root, max_bits) = match ip {
            IpAddr::V4(_) => (ROOT_V4, 32u8),
            IpAddr::V6(_) => (ROOT_V6, 128u8),
        };
        let mut bits = addr_bits(ip);
        let mut node = &self.nodes[root];
        let mut best = node.value;
        for _ in 0..max_bits {
            let bit = (bits >> 127) as usize;
            bits <<= 1;
            match self.nodes.get(node.children[bit] as usize) {
                Some(child) => {
                    node = child;
                    if node.value != NONE {
                        best = node.value;
                    }
                }
                None => break,
            }
        }
        self.values.get(best as usize).map(|(p, v)| (p, v))
    }

    /// Exact-match retrieval.
    pub fn get(&self, prefix: &IpPrefix) -> Option<&V> {
        let mut node = &self.nodes[Self::root(prefix)];
        for bit in prefix.bits() {
            node = self.nodes.get(node.children[usize::from(bit)] as usize)?;
        }
        self.values.get(node.value as usize).map(|(_, v)| v)
    }

    /// Visit every `(prefix, value)` pair (order: v4 pre-order, then v6).
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(&'a IpPrefix, &'a V)) {
        fn walk<'a, V>(
            trie: &'a PrefixTrie<V>,
            node: usize,
            f: &mut impl FnMut(&'a IpPrefix, &'a V),
        ) {
            let Some(n) = trie.nodes.get(node) else {
                return;
            };
            if let Some((p, v)) = trie.values.get(n.value as usize) {
                f(p, v);
            }
            for child in n.children {
                walk(trie, child as usize, f);
            }
        }
        walk(self, ROOT_V4, &mut f);
        walk(self, ROOT_V6, &mut f);
    }

    /// Collect all stored pairs into a vec (mainly for tests/reports).
    pub fn entries(&self) -> Vec<(&IpPrefix, &V)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|p, v| out.push((p, v)));
        out
    }
}

/// A baseline LPM implementation for the ablation bench and differential
/// testing: sorted vec scanned from longest to shortest length.
pub struct LinearLpm<V> {
    entries: Vec<(IpPrefix, V)>,
    sorted: bool,
}

impl<V> Default for LinearLpm<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LinearLpm<V> {
    /// An empty table.
    pub fn new() -> Self {
        LinearLpm {
            entries: Vec::new(),
            sorted: true,
        }
    }

    /// Add an entry; a prefix inserted again has its value replaced, as
    /// [`PrefixTrie::insert`] does (the older entry goes at the next
    /// `lookup`).
    pub fn insert(&mut self, prefix: IpPrefix, value: V) {
        self.entries.push((prefix, value));
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // newest first, so that the stable sort puts the last value
            // of a prefix inserted twice ahead of the older ones, and the
            // dedup keeps only it
            self.entries.reverse();
            // longest prefixes first so the first hit is the best match
            self.entries
                .sort_by_key(|e| (std::cmp::Reverse(e.0.len()), e.0));
            self.entries.dedup_by_key(|e| e.0);
            self.sorted = true;
        }
    }

    /// Longest-prefix match by linear scan.
    pub fn lookup(&mut self, ip: IpAddr) -> Option<(&IpPrefix, &V)> {
        self.ensure_sorted();
        self.entries
            .iter()
            .find(|(p, _)| p.contains(ip))
            .map(|(p, v)| (p, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let t: PrefixTrie<u32> = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(ip("8.8.8.8")), None);
        assert_eq!(t.lookup(ip("2001:db8::1")), None);
    }

    #[test]
    fn longest_match_wins() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.20.0.0/16"), 16);
        t.insert(p("10.20.30.0/24"), 24);
        assert_eq!(t.lookup(ip("10.20.30.40")).unwrap().1, &24);
        assert_eq!(t.lookup(ip("10.20.99.1")).unwrap().1, &16);
        assert_eq!(t.lookup(ip("10.99.99.1")).unwrap().1, &8);
        assert_eq!(t.lookup(ip("11.0.0.1")), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn families_are_disjoint() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "v4");
        t.insert(p("::/0"), "v6");
        assert_eq!(t.lookup(ip("1.2.3.4")).unwrap().1, &"v4");
        assert_eq!(t.lookup(ip("2001:db8::1")).unwrap().1, &"v6");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn default_route_as_fallback() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("192.0.2.0/24"), 1);
        assert_eq!(t.lookup(ip("192.0.2.9")).unwrap().1, &1);
        assert_eq!(t.lookup(ip("8.8.8.8")).unwrap().1, &0);
    }

    #[test]
    fn insert_replaces_exact() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn exact_get_does_not_aggregate() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.get(&p("10.0.0.0/16")), None);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&1));
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(p("8.8.8.8/32"), "dns");
        t.insert(p("2001:4860:4860::8888/128"), "dns6");
        assert_eq!(t.lookup(ip("8.8.8.8")).unwrap().1, &"dns");
        assert_eq!(t.lookup(ip("8.8.8.9")), None);
        assert_eq!(t.lookup(ip("2001:4860:4860::8888")).unwrap().1, &"dns6");
    }

    #[test]
    fn v6_deep_prefixes() {
        let mut t = PrefixTrie::new();
        t.insert(p("2a00:1450::/29"), "goog");
        t.insert(p("2a00:1450:4000::/36"), "goog-eu");
        assert_eq!(t.lookup(ip("2a00:1450:4013::5e")).unwrap().1, &"goog-eu");
        assert_eq!(t.lookup(ip("2a00:1450:c000::1")).unwrap().1, &"goog");
    }

    #[test]
    fn entries_visits_all() {
        let mut t = PrefixTrie::new();
        for (i, s) in ["1.0.0.0/8", "2.0.0.0/8", "2001:db8::/32"]
            .iter()
            .enumerate()
        {
            t.insert(p(s), i);
        }
        let mut got: Vec<String> = t.entries().iter().map(|(p, _)| p.to_string()).collect();
        got.sort();
        assert_eq!(got, vec!["1.0.0.0/8", "2.0.0.0/8", "2001:db8::/32"]);
    }

    #[test]
    fn trie_agrees_with_linear_baseline() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut trie = PrefixTrie::new();
        let mut linear = LinearLpm::new();
        let mut inserted = Vec::new();
        for i in 0..500u32 {
            // short prefixes repeat: a re-insert must replace the value
            let len = rng.gen_range(2..=28);
            let addr = std::net::Ipv4Addr::from(rng.gen::<u32>());
            let pfx = IpPrefix::new(IpAddr::V4(addr), len).unwrap();
            trie.insert(pfx, i);
            linear.insert(pfx, i);
            inserted.push(pfx);
            // lookups between inserts sort the baseline part-way
            if i % 97 == 0 {
                linear.lookup(pfx.network());
            }
        }
        let distinct: std::collections::HashSet<_> = inserted.iter().collect();
        assert!(distinct.len() < inserted.len(), "some prefix repeats");
        let probes = (0..2000).map(|_| IpAddr::V4(std::net::Ipv4Addr::from(rng.gen::<u32>())));
        for probe in probes.chain(inserted.iter().map(|p| p.network())) {
            let a = trie.lookup(probe).map(|(p, v)| (*p, *v));
            let b = linear.lookup(probe).map(|(p, v)| (*p, *v));
            assert_eq!(a, b, "probe {probe}");
        }
    }
}
