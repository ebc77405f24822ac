//! A toy authoritative hierarchy for the resolver's tests and its
//! example: zones with delegations and glue, served by addressable name
//! servers, answering real wire-format questions.
//!
//! It is deliberately simpler than `simnet`'s authoritative tiers: it
//! parses each query whole and answers with an owned message, which
//! makes it the oracle the walk is held to — root, TLDs and leaf zones,
//! with configurable NS records (including the broken, mutually
//! dependent kind). The worlds the tests share are built at the end.
//!
//! One file serves every user: the integration tests declare it with
//! `mod hierarchy;`, and the crate's own unit tests and the example
//! include it by `#[path]`.

#![allow(dead_code)] // each user builds only the worlds it walks

use dns_wire::builder::MessageBuilder;
use dns_wire::message::{Message, Question};
use dns_wire::name::{Name, ReusableCompressor};
use dns_wire::rdata::RData;
use dns_wire::types::{RType, Rcode};
use resolver::{Exchange, Transport};
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;

/// One zone's data.
#[derive(Debug, Clone)]
struct Zone {
    apex: Name,
    /// NS host names of the zone itself.
    ns: Vec<Name>,
    /// Child zone cuts: owner -> NS host names (referral targets).
    delegations: HashMap<Name, Vec<Name>>,
    /// Address records within this zone (hosts and glue).
    addresses: HashMap<Name, Vec<IpAddr>>,
    /// CNAMEs within this zone.
    cnames: HashMap<Name, Name>,
    /// This zone publishes a (toy) DNSKEY and signs its data.
    signed: bool,
    /// Children with DS records at this parent (secure delegations).
    signed_children: std::collections::HashSet<Name>,
}

impl Zone {
    /// The deepest delegation cut covering `qname`, if any.
    fn covering_delegation(&self, qname: &Name) -> Option<(&Name, &Vec<Name>)> {
        self.delegations
            .iter()
            .filter(|(cut, _)| qname.is_subdomain_of(cut))
            .max_by_key(|(cut, _)| cut.label_count())
    }
}

/// Fluent zone construction.
pub struct ZoneBuilder {
    zone: Zone,
    servers: Vec<IpAddr>,
}

impl ZoneBuilder {
    /// Start a zone at `apex`, served by the given addresses (which the
    /// builder also registers as the apex NS hosts' A records when the
    /// NS hosts live in-zone).
    pub fn new(apex: &str) -> ZoneBuilder {
        ZoneBuilder {
            zone: Zone {
                apex: apex.parse().expect("valid apex"),
                ns: Vec::new(),
                delegations: HashMap::new(),
                addresses: HashMap::new(),
                cnames: HashMap::new(),
                signed: false,
                signed_children: std::collections::HashSet::new(),
            },
            servers: Vec::new(),
        }
    }

    /// Add a name server for this zone: host name + address. The
    /// address is registered both as the server endpoint and as an
    /// in-zone A/AAAA record for the host (when in-bailiwick).
    pub fn server(mut self, host: &str, addr: &str) -> Self {
        let host: Name = host.parse().expect("valid host");
        let addr: IpAddr = addr.parse().expect("valid address");
        self.zone.ns.push(host.clone());
        self.zone.addresses.entry(host).or_default().push(addr);
        self.servers.push(addr);
        self
    }

    /// Delegate `child` to NS hosts (names only; add glue separately if
    /// the hosts are in-bailiwick).
    pub fn delegate(mut self, child: &str, ns_hosts: &[&str]) -> Self {
        let child: Name = child.parse().expect("valid child");
        let hosts: Vec<Name> = ns_hosts
            .iter()
            .map(|h| h.parse().expect("valid ns host"))
            .collect();
        self.zone.delegations.insert(child, hosts);
        self
    }

    /// Add an address record (host data or glue).
    pub fn address(mut self, host: &str, addr: &str) -> Self {
        let host: Name = host.parse().expect("valid host");
        self.zone
            .addresses
            .entry(host)
            .or_default()
            .push(addr.parse().expect("valid address"));
        self
    }

    /// Mark the zone as DNSSEC-signed (it will answer DNSKEY queries
    /// with the toy key scheme of [`toy_key`]).
    pub fn signed(mut self) -> Self {
        self.zone.signed = true;
        self
    }

    /// Publish a DS record for `child` (a secure delegation).
    pub fn secure_delegation(mut self, child: &str) -> Self {
        self.zone
            .signed_children
            .insert(child.parse().expect("valid child"));
        self
    }

    /// Add a CNAME.
    pub fn cname(mut self, alias: &str, target: &str) -> Self {
        self.zone.cnames.insert(
            alias.parse().expect("valid alias"),
            target.parse().expect("valid target"),
        );
        self
    }

    fn build(self) -> (Zone, Vec<IpAddr>) {
        (self.zone, self.servers)
    }
}

/// The simulated network: zones and the servers that answer for them.
#[derive(Default)]
pub struct Network {
    zones: Vec<Zone>,
    /// server address -> zone indices it serves (a server can host
    /// several zones, like real TLD operators). Ordered by address, so
    /// [`Network::root_servers`] lists the roots in the same order in
    /// every run.
    servers: BTreeMap<IpAddr, Vec<usize>>,
    /// Queries each server has answered (the vantage-point view).
    pub server_log: HashMap<IpAddr, Vec<Question>>,
    /// Where the [`Transport`] exchange encodes its replies.
    comp: ReusableCompressor,
    reply: Vec<u8>,
}

impl Network {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a zone.
    pub fn add(&mut self, builder: ZoneBuilder) {
        let (zone, servers) = builder.build();
        let idx = self.zones.len();
        self.zones.push(zone);
        for s in servers {
            self.servers.entry(s).or_default().push(idx);
        }
    }

    /// The root servers' addresses (for resolver priming), in address
    /// order.
    pub fn root_servers(&self) -> Vec<IpAddr> {
        self.zones
            .iter()
            .enumerate()
            .filter(|(_, z)| z.apex.is_root())
            .flat_map(|(i, _)| {
                self.servers
                    .iter()
                    .filter(move |(_, zs)| zs.contains(&i))
                    .map(|(a, _)| *a)
            })
            .collect()
    }

    /// Total queries observed across servers.
    pub fn total_queries(&self) -> usize {
        self.server_log.values().map(Vec::len).sum()
    }

    /// Queries observed at one server.
    pub fn queries_at(&self, server: IpAddr) -> &[Question] {
        self.server_log
            .get(&server)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Send `query` to `server`; `None` if nothing listens there
    /// (timeout, from the resolver's perspective).
    pub fn query(&mut self, server: IpAddr, query: &Message) -> Option<Message> {
        let zone_ids = self.servers.get(&server)?.clone();
        let question = query.question()?.clone();
        self.server_log
            .entry(server)
            .or_default()
            .push(question.clone());
        // deepest zone this server is authoritative for that covers qname
        let zone = zone_ids
            .iter()
            .map(|&i| &self.zones[i])
            .filter(|z| question.qname.is_subdomain_of(&z.apex))
            .max_by_key(|z| z.apex.label_count())?;
        Some(answer(zone, query, &question))
    }
}

/// [`Network::query`] over the wire: the query parsed, the reply encoded
/// — the bytes a socket would deliver, valid until the next query.
/// Bytes that do not parse as a message get no answer.
impl Transport for Network {
    fn exchange(&mut self, server: IpAddr, query: &[u8]) -> Exchange<'_> {
        let reply = Message::parse(query)
            .ok()
            .and_then(|query| self.query(server, &query));
        match reply.map(|reply| reply.encode_into(&mut self.comp, &mut self.reply)) {
            Some(Ok(())) => Exchange::Answer {
                reply: &self.reply,
                rtt_us: 0,
            },
            _ => Exchange::Timeout,
        }
    }

    fn root_servers(&self) -> Vec<IpAddr> {
        Network::root_servers(self)
    }
}

/// The toy "public key" of a signed zone: a stable hash of its apex.
/// Stands in for real key material so validation *traffic* (DS, then
/// DNSKEY, then comparison) is mechanical without a crypto dependency.
pub fn toy_key(apex: &Name) -> Vec<u8> {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in apex.as_wire() {
        h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x100_0000_01b3);
    }
    h.to_be_bytes().to_vec()
}

/// Build the zone's authoritative answer.
fn answer(zone: &Zone, query: &Message, question: &Question) -> Message {
    // DS: answered by the *parent* of a secure delegation
    if question.qtype == RType::Ds && zone.delegations.contains_key(&question.qname) {
        if zone.signed_children.contains(&question.qname) {
            return MessageBuilder::response(query, Rcode::NoError)
                .answer(
                    question.qname.clone(),
                    3600,
                    RData::Ds {
                        key_tag: 1,
                        algorithm: 8,
                        digest_type: 2,
                        digest: toy_key(&question.qname),
                    },
                )
                .build();
        }
        // insecure delegation: NODATA
        return MessageBuilder::response(query, Rcode::NoError)
            .authority(zone.apex.clone(), 300, soa(&zone.apex))
            .build();
    }
    // DNSKEY at a signed apex
    if question.qtype == RType::Dnskey && question.qname == zone.apex && zone.signed {
        return MessageBuilder::response(query, Rcode::NoError)
            .answer(
                zone.apex.clone(),
                3600,
                RData::Dnskey {
                    flags: 257,
                    protocol: 3,
                    algorithm: 8,
                    public_key: toy_key(&zone.apex),
                },
            )
            .build();
    }
    // below a delegation cut? -> referral
    if let Some((cut, ns_hosts)) = zone.covering_delegation(&question.qname) {
        let mut b = MessageBuilder::response(query, Rcode::NoError);
        for host in ns_hosts {
            b = b.authority(cut.clone(), 3600, RData::Ns(host.clone()));
            // glue only when the host is inside THIS zone's bailiwick
            if host.is_subdomain_of(&zone.apex) {
                if let Some(addrs) = zone.addresses.get(host) {
                    for addr in addrs {
                        b = b.additional(host.clone(), 3600, addr_rdata(*addr));
                    }
                }
            }
        }
        return b.build();
    }
    // CNAME?
    if let Some(target) = zone.cnames.get(&question.qname) {
        let mut b = MessageBuilder::response(query, Rcode::NoError).answer(
            question.qname.clone(),
            300,
            RData::Cname(target.clone()),
        );
        // chase in-zone targets for the client's convenience
        if question.qtype == RType::A || question.qtype == RType::Aaaa {
            if let Some(addrs) = zone.addresses.get(target) {
                for addr in addrs {
                    if matches(question.qtype, *addr) {
                        b = b.answer(target.clone(), 300, addr_rdata(*addr));
                    }
                }
            }
        }
        return b.build();
    }
    // authoritative data?
    match question.qtype {
        RType::A | RType::Aaaa => {
            if let Some(addrs) = zone.addresses.get(&question.qname) {
                let mut b = MessageBuilder::response(query, Rcode::NoError);
                let mut any = false;
                for addr in addrs {
                    if matches(question.qtype, *addr) {
                        b = b.answer(question.qname.clone(), 300, addr_rdata(*addr));
                        any = true;
                    }
                }
                if !any {
                    // NODATA
                    b = b.authority(zone.apex.clone(), 300, soa(&zone.apex));
                }
                return b.build();
            }
        }
        RType::Ns if question.qname == zone.apex => {
            let mut b = MessageBuilder::response(query, Rcode::NoError);
            for host in &zone.ns {
                b = b.answer(zone.apex.clone(), 3600, RData::Ns(host.clone()));
            }
            return b.build();
        }
        RType::Soa if question.qname == zone.apex => {
            return MessageBuilder::response(query, Rcode::NoError)
                .answer(zone.apex.clone(), 3600, soa(&zone.apex))
                .build();
        }
        _ => {}
    }
    // name exists structurally (an address/cname/delegation lives below
    // it)? then NODATA, else NXDOMAIN
    let exists = question.qname == zone.apex
        || zone
            .addresses
            .keys()
            .any(|h| h.is_subdomain_of(&question.qname))
        || zone
            .cnames
            .keys()
            .any(|h| h.is_subdomain_of(&question.qname))
        || zone
            .delegations
            .keys()
            .any(|h| h.is_subdomain_of(&question.qname));
    let rcode = if exists {
        Rcode::NoError
    } else {
        Rcode::NxDomain
    };
    MessageBuilder::response(query, rcode)
        .authority(zone.apex.clone(), 300, soa(&zone.apex))
        .build()
}

fn matches(qtype: RType, addr: IpAddr) -> bool {
    matches!(
        (qtype, addr),
        (RType::A, IpAddr::V4(_)) | (RType::Aaaa, IpAddr::V6(_))
    )
}

fn addr_rdata(addr: IpAddr) -> RData {
    match addr {
        IpAddr::V4(v4) => RData::A(v4),
        IpAddr::V6(v6) => RData::Aaaa(v6),
    }
}

fn soa(apex: &Name) -> RData {
    RData::Soa {
        mname: apex.child(b"ns1").unwrap_or_else(|_| apex.clone()),
        rname: apex.child(b"hostmaster").unwrap_or_else(|_| apex.clone()),
        serial: 1,
        refresh: 3600,
        retry: 600,
        expire: 86_400,
        minimum: 300,
    }
}

/// A ready-made three-level world: root, `.nl` + `.nz`, and a few leaf
/// zones — the fixture most tests and examples use.
pub fn sample_world() -> Network {
    let mut net = Network::new();
    net.add(
        ZoneBuilder::new(".")
            .server("a.root-servers.example.", "198.41.0.4")
            .server("b.root-servers.example.", "199.9.14.201")
            .delegate("nl.", &["ns1.dns.nl.", "ns2.dns.nl."])
            .address("ns1.dns.nl.", "194.0.28.53")
            .address("ns2.dns.nl.", "185.159.198.53")
            .delegate("nz.", &["ns1.dns.net.nz."])
            .address("ns1.dns.net.nz.", "202.46.190.10"),
    );
    net.add(
        ZoneBuilder::new("nl.")
            .server("ns1.dns.nl.", "194.0.28.53")
            .server("ns2.dns.nl.", "185.159.198.53")
            .delegate("example.nl.", &["ns1.example.nl."])
            .address("ns1.example.nl.", "192.0.2.53") // glue
            .delegate("hosted.nl.", &["ns.provider.nz."]), // out-of-bailiwick NS
    );
    net.add(
        ZoneBuilder::new("nz.")
            .server("ns1.dns.net.nz.", "202.46.190.10")
            .delegate("provider.nz.", &["ns.provider.nz."])
            .address("ns.provider.nz.", "203.0.113.53"), // glue
    );
    net.add(
        ZoneBuilder::new("example.nl.")
            .server("ns1.example.nl.", "192.0.2.53")
            .address("www.example.nl.", "192.0.2.80")
            .address("www.example.nl.", "2001:db8::80")
            .cname("cdn.example.nl.", "www.example.nl."),
    );
    net.add(
        ZoneBuilder::new("provider.nz.")
            .server("ns.provider.nz.", "203.0.113.53")
            .address("hosted-web.provider.nz.", "203.0.113.80"),
    );
    net.add(
        ZoneBuilder::new("hosted.nl.")
            .server("ns.provider.nz.", "203.0.113.53")
            .address("www.hosted.nl.", "203.0.113.81"),
    );
    net
}

/// A signed world: the root signs and delegates securely to `zz.`,
/// which delegates `d0.zz.` and `d1.zz.` securely (both signed) and
/// `d2.zz.` insecurely.
pub fn signed_world() -> Network {
    let mut net = Network::new();
    net.add(
        ZoneBuilder::new(".")
            .signed()
            .server("a.root.zz.", "198.41.0.4")
            .delegate("zz.", &["ns1.tld.zz."])
            .secure_delegation("zz.")
            .address("ns1.tld.zz.", "203.0.113.1"),
    );
    let mut tld = ZoneBuilder::new("zz.")
        .signed()
        .server("ns1.tld.zz.", "203.0.113.1");
    for (i, secure) in [(0, true), (1, true), (2, false)] {
        let me = format!("d{i}.zz.");
        let ns = format!("ns.d{i}.zz.");
        let addr = format!("198.51.100.{}", i + 1);
        tld = tld.delegate(&me, &[&ns]).address(&ns, &addr);
        if secure {
            tld = tld.secure_delegation(&me);
        }
        let mut leaf = ZoneBuilder::new(&me)
            .server(&ns, &addr)
            .address(&format!("www.{me}"), &format!("192.0.2.{}", i + 1));
        if secure {
            leaf = leaf.signed();
        }
        net.add(leaf);
    }
    net.add(tld);
    net
}

/// Two domains whose NS sets point at each other, with no glue: the
/// Feb-2020 `.nz` configuration. Resolution must terminate with a cycle
/// error — and the TLD absorbs the repeated queries.
pub fn cyclic_world() -> Network {
    let mut net = Network::new();
    net.add(
        ZoneBuilder::new(".")
            .server("a.root-servers.example.", "198.41.0.4")
            .delegate("nz.", &["ns1.dns.net.nz."])
            .address("ns1.dns.net.nz.", "202.46.190.10"),
    );
    net.add(
        ZoneBuilder::new("nz.")
            .server("ns1.dns.net.nz.", "202.46.190.10")
            // the broken pair: each NS lives under the *other* domain
            .delegate("alpha.nz.", &["ns.beta.nz."])
            .delegate("beta.nz.", &["ns.alpha.nz."]),
    );
    net
}

/// The parent publishes DS, the child is not signed (no DNSKEY): every
/// validating walk below `zz.` is bogus.
pub fn bogus_world() -> Network {
    let mut net = Network::new();
    net.add(
        ZoneBuilder::new(".")
            .server("a.root.zz.", "198.41.0.4")
            .delegate("zz.", &["ns1.tld.zz."])
            .secure_delegation("zz.")
            .address("ns1.tld.zz.", "203.0.113.1"),
    );
    net.add(
        ZoneBuilder::new("zz.") // not .signed()
            .server("ns1.tld.zz.", "203.0.113.1")
            .delegate("d0.zz.", &["ns.d0.zz."])
            .address("ns.d0.zz.", "198.51.100.1"),
    );
    net
}

/// A delegation to a server nobody answers for.
pub fn dead_world() -> Network {
    let mut net = Network::new();
    net.add(
        ZoneBuilder::new(".")
            .server("a.root-servers.example.", "198.41.0.4")
            .delegate("dead.", &["ns.dead."])
            .address("ns.dead.", "10.255.255.1"), // nobody listens
    );
    net
}
