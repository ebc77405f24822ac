//! Property tests: over arbitrary (including pathological) delegation
//! graphs, resolution always terminates within its budget, never
//! panics, and Q-min never changes the *outcome* of a resolution —
//! only what intermediate servers see. The query bytes the resolver
//! sends are the message its configuration and ask imply, by the
//! `Message` oracle. And the indexed [`FleetCache`] behaves, operation
//! for operation, like the linear-scan cache it replaced
//! ([`scan_model`]); the sets it hands out are their addresses, whether
//! held inline or interned.

use dns_wire::edns::Edns;
use dns_wire::header::Header;
use dns_wire::message::{Message, Question};
use dns_wire::name::Name;
use dns_wire::types::RType;
use proptest::prelude::*;
use proptest::strategy::Just;
use resolver::hierarchy::{Network, ZoneBuilder};
use resolver::{
    Addrs, Exchange, FleetCache, IterativeResolver, Negative, ResolveError, ResolverConfig, Step,
    Transport,
};
use std::net::IpAddr;

/// Build a random world: a root, one TLD, and `n` leaf domains whose NS
/// hosts point at a random other domain (possibly forming cycles) or at
/// themselves with proper glue.
fn random_world(edges: &[u8], glued: &[bool]) -> (Network, Vec<Name>) {
    let n = edges.len();
    let mut net = Network::new();
    let mut tld = ZoneBuilder::new("zz.").server("ns1.tld.zz.", "203.0.113.1");
    let mut names = Vec::new();
    for i in 0..n {
        let me = format!("d{i}.zz.");
        names.push(me.parse().unwrap());
        let target = edges[i] as usize % n;
        if glued[i] {
            // healthy: self-hosted NS with glue, plus a leaf zone
            let ns = format!("ns.d{i}.zz.");
            let addr = format!("198.51.{}.{}", i / 250 + 1, i % 250 + 1);
            tld = tld.delegate(&me, &[&ns]).address(&ns, &addr);
            net.add(
                ZoneBuilder::new(&me)
                    .server(&ns, &addr)
                    .address(&format!("www.{me}"), &format!("192.0.2.{}", i % 250 + 1)),
            );
        } else {
            // fragile: NS hosted under another domain, no glue
            let ns = format!("ns.d{target}.zz.");
            tld = tld.delegate(&me, &[&ns]);
        }
    }
    net.add(
        ZoneBuilder::new(".")
            .server("a.root.zz.", "198.41.0.4")
            .delegate("zz.", &["ns1.tld.zz."])
            .address("ns1.tld.zz.", "203.0.113.1"),
    );
    net.add(tld);
    (net, names)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any world, any target, both resolver modes: terminate within the
    /// budget with a typed outcome; glued domains always resolve.
    #[test]
    fn always_terminates(
        edges in prop::collection::vec(any::<u8>(), 1..12),
        glued in prop::collection::vec(any::<bool>(), 12),
        qmin in any::<bool>(),
        pick in any::<u8>(),
    ) {
        let n = edges.len();
        let glued = &glued[..n];
        let (mut net, names) = random_world(&edges, glued);
        let mut r = IterativeResolver::new(ResolverConfig {
            qmin,
            max_queries: 48,
            ..Default::default()
        });
        let i = pick as usize % n;
        let www: Name = format!("www.d{i}.zz.").parse().unwrap();
        let result = r.resolve(&mut net, &www, RType::A);
        prop_assert!(r.queries_sent() <= 48, "budget respected");
        if glued[i] {
            prop_assert!(
                result.is_ok(),
                "glued domain must resolve: {result:?} (www.d{i})"
            );
        } else {
            prop_assert!(result.is_err(), "unglued chains end in an error");
            // the error is typed, not a panic or a hang
            let typed = matches!(
                result.unwrap_err(),
                ResolveError::CyclicDependency { .. }
                    | ResolveError::BudgetExhausted { .. }
                    | ResolveError::Unreachable
                    | ResolveError::NxDomain
                    | ResolveError::NoData
            );
            prop_assert!(typed);
        }
        let _ = names;
    }

    /// Q-min and classic resolution agree on every outcome over healthy
    /// worlds — minimization is observably different only to servers.
    #[test]
    fn qmin_preserves_outcomes(
        count in 1usize..8,
        pick in any::<u8>(),
    ) {
        let edges = vec![0u8; count];
        let glued = vec![true; count];
        let i = pick as usize % count;
        let www: Name = format!("www.d{i}.zz.").parse().unwrap();

        let (mut net_a, _) = random_world(&edges, &glued);
        let mut classic = IterativeResolver::new(ResolverConfig::default());
        let a = classic.resolve(&mut net_a, &www, RType::A);

        let (mut net_b, _) = random_world(&edges, &glued);
        let mut minimizing =
            IterativeResolver::new(ResolverConfig { qmin: true, ..Default::default() });
        let b = minimizing.resolve(&mut net_b, &www, RType::A);

        prop_assert_eq!(a, b);
        // and the TLD saw full qnames only from the classic resolver
        let tld: std::net::IpAddr = "203.0.113.1".parse().unwrap();
        let classic_full = net_a
            .queries_at(tld)
            .iter()
            .any(|q| q.qname.label_count() == 3);
        let qmin_full = net_b
            .queries_at(tld)
            .iter()
            .any(|q| q.qname.label_count() == 3);
        prop_assert!(classic_full, "classic leaks www.*");
        prop_assert!(!qmin_full, "q-min never sends 3 labels to the TLD");
    }
}

/// A root serving the one TLD `name` falls under, and that TLD
/// answering for `name` (an address, or NODATA for other types).
fn world_of(name: &Name) -> Network {
    let tld = Name::from_labels(name.labels().last()).unwrap().to_string();
    let ns = format!("ns1.{tld}");
    let mut net = Network::new();
    net.add(
        ZoneBuilder::new(".")
            .server("a.root.zz.", "198.41.0.4")
            .delegate(&tld, &[&ns])
            .address(&ns, "203.0.113.1"),
    );
    net.add(
        ZoneBuilder::new(&tld)
            .server(&ns, "203.0.113.1")
            .address(&name.to_string(), "192.0.2.1"),
    );
    net
}

/// The types a walk is asked for.
const ASKED: [RType; 7] = [
    RType::A,
    RType::Aaaa,
    RType::Ns,
    RType::Ds,
    RType::Dnskey,
    RType::Mx,
    RType::Soa,
];

/// A name of 2–8 labels (letters of both cases and digits), often past
/// `Name`'s 30-octet inline form and up to its 255-octet limit.
fn qname() -> impl Strategy<Value = Name> {
    prop::collection::vec("[a-zA-Z0-9]{1,40}", 2..8).prop_filter_map("fits 255 octets", |labels| {
        Name::from_labels(labels.iter().map(|l| l.as_bytes())).ok()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every query the walk sends parses, by `Message::parse`, to one
    /// question — the ask's own on the first send, spelled as asked —
    /// under a plain request header with the configured CD bit and the
    /// configured OPT (none at size 0), and encodes back to the very
    /// bytes sent. Each send carries a fresh id, and the reply the walk
    /// then reads carries that id.
    #[test]
    fn query_bytes_are_the_message_the_ask_implies(
        name in qname(),
        qtype in 0usize..ASKED.len(),
        edns_size in 0usize..3,
        do_bit in any::<bool>(),
        cd_bit in any::<bool>(),
    ) {
        let (qtype, edns_size) = (ASKED[qtype], [0, 1232, 4096][edns_size]);
        let mut net = world_of(&name);
        let mut r = IterativeResolver::new(ResolverConfig {
            edns_size,
            do_bit,
            cd_bit,
            ..Default::default()
        });
        let want_edns = (edns_size > 0).then(|| Edns::with_size(edns_size, do_bit));
        let (mut sends, mut last_id) = (0, None);
        let mut step = r.start(&name, qtype);
        loop {
            step = match step {
                Step::Send { server } => {
                    let sent = r.query();
                    let msg = Message::parse(sent).expect("the resolver's query parses");
                    let mut header = Header::request(msg.header.id);
                    header.checking_disabled = cd_bit;
                    prop_assert_eq!(msg.header, header);
                    prop_assert_eq!(&msg.edns, &want_edns);
                    prop_assert_eq!(msg.questions.len(), 1);
                    prop_assert!(msg.answers.is_empty() && msg.authorities.is_empty());
                    prop_assert!(msg.additionals.is_empty());
                    prop_assert_eq!(&msg.encode().unwrap()[..], sent);
                    if sends == 0 {
                        prop_assert_eq!(&msg.questions[0], &Question::new(name.clone(), qtype));
                        prop_assert_eq!(msg.questions[0].qname.as_wire(), name.as_wire());
                    }
                    prop_assert!(Some(msg.header.id) != last_id, "a fresh id per send");
                    last_id = Some(msg.header.id);
                    sends += 1;
                    let exchange = net.exchange(server, sent);
                    if let Exchange::Answer { reply, .. } = exchange {
                        prop_assert_eq!(Message::parse(reply).unwrap().header.id, msg.header.id);
                    }
                    r.step(exchange)
                }
                Step::Prime => r.prime(net.root_servers()),
                Step::Done(_) => break,
            };
        }
        prop_assert!(sends >= 2, "the walk asked the root and the TLD");
    }
}

/// The cache as it was before it was indexed, kept as the reference
/// the indexed one is checked against: plain hash maps, a scan of every
/// delegation per cut lookup, a scan of the whole map per eviction. One
/// rule differs from that code: a put that refreshes a cached key no
/// longer evicts (it used to cost a full map an unrelated entry).
mod scan_model {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

    pub struct Entry<T> {
        pub value: T,
        expiry_us: u64,
    }

    impl<T> Entry<T> {
        fn new(value: T, now_us: u64, ttl_secs: u32) -> Entry<T> {
            Entry {
                value,
                expiry_us: now_us.saturating_add(u64::from(ttl_secs) * 1_000_000),
            }
        }

        fn live_at(&self, now_us: u64) -> bool {
            now_us < self.expiry_us
        }
    }

    #[derive(Default)]
    pub struct ScanCache {
        pub addresses: HashMap<(Name, RType), Entry<Addrs>>,
        pub negatives: HashMap<(Name, RType), Entry<Negative>>,
        pub delegations: HashMap<Name, Entry<Addrs>>,
        pub capacity: usize,
        pub evictions: u64,
    }

    fn lookup<K: Hash + Eq, T: Clone>(
        map: &mut HashMap<K, Entry<T>>,
        key: &K,
        now_us: u64,
    ) -> Option<T> {
        match map.get(key) {
            Some(e) if e.live_at(now_us) => Some(e.value.clone()),
            Some(_) => {
                map.remove(key);
                None
            }
            None => None,
        }
    }

    fn stable_hash<K: Hash>(k: &K) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    /// Insert, first evicting the earliest-expiring entry (ties: the
    /// smaller key hash) if the insert would grow a full map.
    fn put<K: Clone + Hash + Eq, T>(
        map: &mut HashMap<K, Entry<T>>,
        key: K,
        entry: Entry<T>,
        capacity: usize,
    ) -> bool {
        let mut evicted = false;
        if map.len() >= capacity && !map.contains_key(&key) {
            let victim = map
                .iter()
                .map(|(k, e)| (e.expiry_us, stable_hash(k), k.clone()))
                .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
                .map(|(_, _, k)| k);
            if let Some(victim) = victim {
                evicted = map.remove(&victim).is_some();
            }
        }
        map.insert(key, entry);
        evicted
    }

    impl ScanCache {
        pub fn addresses(&mut self, q: &Name, t: RType, now_us: u64) -> Option<Addrs> {
            lookup(&mut self.addresses, &(q.clone(), t), now_us)
        }

        pub fn negative(&mut self, q: &Name, t: RType, now_us: u64) -> Option<Negative> {
            lookup(&mut self.negatives, &(q.clone(), t), now_us)
        }

        pub fn consult(
            &mut self,
            q: &Name,
            t: RType,
            now_us: u64,
        ) -> Option<Result<Addrs, Negative>> {
            match self.negative(q, t, now_us) {
                Some(kind) => Some(Err(kind)),
                None => self.addresses(q, t, now_us).map(Ok),
            }
        }

        pub fn deepest_cut(&self, name: &Name, now_us: u64) -> Option<(Name, Addrs)> {
            self.delegations
                .iter()
                .filter(|(cut, e)| e.live_at(now_us) && name.is_subdomain_of(cut))
                .max_by_key(|(cut, _)| cut.label_count())
                .map(|(cut, e)| (cut.clone(), e.value.clone()))
        }

        pub fn put_addresses(&mut self, q: &Name, t: RType, v: Vec<IpAddr>, now: u64, ttl: u32) {
            let entry = Entry::new(v.into(), now, ttl);
            self.evictions += u64::from(put(
                &mut self.addresses,
                (q.clone(), t),
                entry,
                self.capacity,
            ));
        }

        pub fn put_negative(&mut self, q: &Name, t: RType, v: Negative, now: u64, ttl: u32) {
            let entry = Entry::new(v, now, ttl);
            self.evictions += u64::from(put(
                &mut self.negatives,
                (q.clone(), t),
                entry,
                self.capacity,
            ));
        }

        pub fn put_delegation(&mut self, cut: &Name, v: Vec<IpAddr>, now: u64, ttl: u32) {
            let entry = Entry::new(v.into(), now, ttl);
            self.evictions += u64::from(put(
                &mut self.delegations,
                cut.clone(),
                entry,
                self.capacity,
            ));
        }
    }
}

/// The names the cache model is exercised over: a small tree with case
/// variants, a label that merely ends in another (`xnl.`), and the root.
const UNIVERSE: [&str; 10] = [
    ".",
    "nl.",
    "NL.",
    "xnl.",
    "a.nl.",
    "A.nl.",
    "b.nl.",
    "w.a.nl.",
    "w.b.nl.",
    "v.w.a.NL.",
];
const QTYPES: [RType; 2] = [RType::A, RType::Aaaa];

#[derive(Debug, Clone)]
enum CacheOp {
    Addresses,
    Negative,
    Consult,
    DeepestCut,
    PutAddresses(u8),
    PutNegative(bool),
    PutDelegation(u8),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        Just(CacheOp::Addresses),
        Just(CacheOp::Negative),
        Just(CacheOp::Consult),
        Just(CacheOp::DeepestCut),
        any::<u8>().prop_map(CacheOp::PutAddresses),
        any::<bool>().prop_map(CacheOp::PutNegative),
        any::<u8>().prop_map(CacheOp::PutDelegation),
    ]
}

/// Everything still in `cache`, found without disturbing it: at time 0
/// every entry is live (TTLs are at least a second), so a sweep of the
/// universe over a clone lists exactly the keys present.
#[allow(clippy::type_complexity)]
fn survivors(
    cache: &FleetCache,
) -> (
    Vec<(usize, RType, Addrs)>,
    Vec<(usize, RType, Negative)>,
    Vec<(usize, Name, Addrs)>,
) {
    let mut sweep = cache.clone();
    let mut addresses = Vec::new();
    let mut negatives = Vec::new();
    let mut delegations = Vec::new();
    let names: Vec<Name> = UNIVERSE.iter().map(|text| text.parse().unwrap()).collect();
    for (i, name) in names.iter().enumerate() {
        // case variants are one key: sweep it once
        if names[..i].contains(name) {
            continue;
        }
        for t in QTYPES {
            if let Some(v) = sweep.addresses(name, t, 0) {
                addresses.push((i, t, v));
            }
            if let Some(v) = sweep.negative(name, t, 0) {
                negatives.push((i, t, v));
            }
        }
        // a cut is present iff it is its own deepest cut
        if let Some((cut, v)) = sweep.deepest_cut(name, 0) {
            if cut == *name {
                delegations.push((i, cut, v));
            }
        }
    }
    (addresses, negatives, delegations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random puts, lookups and cut searches over a small name universe
    /// with a small capacity and a clock that moves both ways: the
    /// indexed cache returns what the scan model returns, keeps the
    /// same entries after every operation (so evicts the same victims),
    /// and never holds more than `capacity` entries in a map.
    #[test]
    fn indexed_cache_matches_the_scan_model(
        capacity in 1usize..5,
        ops in prop::collection::vec(
            // whole seconds, so equal expiries (broken by key hash) and
            // lookups exactly at an expiry are common
            (cache_op(), 0..UNIVERSE.len(), 0..QTYPES.len(), 0u64..9, 1u32..6),
            1..120,
        ),
    ) {
        let mut real = FleetCache::with_capacity(capacity);
        let mut model = scan_model::ScanCache { capacity, ..Default::default() };
        let mut lookups = 0u64;
        for (step, (op, name_idx, type_idx, now_secs, ttl)) in ops.into_iter().enumerate() {
            let now = now_secs * 1_000_000;
            let name: Name = UNIVERSE[name_idx].parse().unwrap();
            let t = QTYPES[type_idx];
            let servers = |tag: u8| vec![IpAddr::from([192, 0, 2, tag])];
            match op {
                CacheOp::Addresses => {
                    lookups += 1;
                    prop_assert_eq!(real.addresses(&name, t, now), model.addresses(&name, t, now));
                }
                CacheOp::Negative => {
                    lookups += 1;
                    prop_assert_eq!(real.negative(&name, t, now), model.negative(&name, t, now));
                }
                CacheOp::Consult => {
                    lookups += 1;
                    prop_assert_eq!(real.consult(&name, t, now), model.consult(&name, t, now));
                }
                CacheOp::DeepestCut => {
                    let (got, want) = (real.deepest_cut(&name, now), model.deepest_cut(&name, now));
                    // byte-for-byte the stored cut, not just an equal name
                    prop_assert_eq!(
                        got.as_ref().map(|(cut, _)| cut.to_string()),
                        want.as_ref().map(|(cut, _)| cut.to_string())
                    );
                    prop_assert_eq!(got, want);
                }
                CacheOp::PutAddresses(tag) => {
                    real.put_addresses(&name, t, servers(tag), now, ttl);
                    model.put_addresses(&name, t, servers(tag), now, ttl);
                }
                CacheOp::PutNegative(nx) => {
                    let kind = if nx { Negative::NxDomain } else { Negative::NoData };
                    real.put_negative(&name, t, kind, now, ttl);
                    model.put_negative(&name, t, kind, now, ttl);
                }
                CacheOp::PutDelegation(tag) => {
                    real.put_delegation(&name, &servers(tag), now, ttl);
                    model.put_delegation(&name, servers(tag), now, ttl);
                }
            }
            let stats = real.stats();
            prop_assert!(stats.addresses <= capacity, "step {}: {:?}", step, stats);
            prop_assert!(stats.negatives <= capacity, "step {}: {:?}", step, stats);
            prop_assert!(stats.delegations <= capacity, "step {}: {:?}", step, stats);
            prop_assert_eq!(
                (stats.addresses, stats.negatives, stats.delegations),
                (model.addresses.len(), model.negatives.len(), model.delegations.len())
            );
            prop_assert_eq!(stats.evictions, model.evictions);
            prop_assert_eq!(stats.hits + stats.misses, lookups);

            let (addresses, negatives, delegations) = survivors(&real);
            prop_assert_eq!(addresses.len(), model.addresses.len(), "step {}", step);
            for (i, t, v) in addresses {
                let key = (UNIVERSE[i].parse::<Name>().unwrap(), t);
                prop_assert_eq!(model.addresses.get(&key).map(|e| &e.value), Some(&v));
            }
            prop_assert_eq!(negatives.len(), model.negatives.len(), "step {}", step);
            for (i, t, v) in negatives {
                let key = (UNIVERSE[i].parse::<Name>().unwrap(), t);
                prop_assert_eq!(model.negatives.get(&key).map(|e| &e.value), Some(&v));
            }
            prop_assert_eq!(delegations.len(), model.delegations.len(), "step {}", step);
            for (_, cut, v) in delegations {
                prop_assert_eq!(model.delegations.get(&cut).map(|e| &e.value), Some(&v));
            }
        }
    }
}

/// Any address, v4 or v6.
fn any_addr() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(IpAddr::from),
        any::<[u8; 16]>().prop_map(IpAddr::from),
    ]
}

fn hash_of<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault};
    BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An [`Addrs`] built from any set of one or more addresses — its
    /// own (inline when it is one address), or the cache's copy of a
    /// set the cache has already interned — derefs to that set, and
    /// compares and hashes as it does.
    #[test]
    fn addrs_are_their_set_inline_or_interned(
        set in prop::collection::vec(any_addr(), 1..6),
        extra in any_addr(),
    ) {
        let mut cache = FleetCache::with_capacity(8);
        let a: Name = "a.example.".parse().unwrap();
        let b: Name = "b.example.".parse().unwrap();
        cache.put_answer(&a, RType::A, &set, 0, 60);
        let interned = cache.put_answer(&b, RType::A, &set, 0, 60);
        let own = Addrs::from(&set[..]);
        for addrs in [&own, &interned] {
            prop_assert_eq!(&addrs[..], &set[..]);
            prop_assert_eq!(addrs, &Addrs::from(&set[..]));
            prop_assert_eq!(hash_of(addrs), hash_of(&set[..]));
        }
        let mut longer = set.clone();
        longer.push(extra);
        prop_assert_ne!(&own, &Addrs::from(&longer[..]));
    }
}
