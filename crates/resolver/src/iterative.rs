//! The iterative resolution algorithm: referral walking from the root,
//! optional QNAME minimization, delegation/address caching, and cycle
//! detection.
//!
//! The resolver is generic over [`Transport`], so the same walk runs
//! against the in-process test [`Network`](crate::hierarchy::Network),
//! simnet's zone-model answerer, or real sockets toward `authd`. Every
//! resolver caches through a [`SharedCache`] (per-entry TTL decay) —
//! its own until a fleet attaches the one its resolvers share — and
//! gets per-host RTT ordering plus a bounded retry/timeout state
//! machine per in-flight query.
//!
//! A hop allocates nothing of its own: the query is one message the
//! resolver re-addresses, servers are ranked in a kept buffer, and each
//! reply is read in place ([`Reader`]) down to what the walk keeps — an
//! answer's addresses or a referral's glue, as one shared slice that
//! the cache holds too.

use crate::cache::{Addrs, Negative, SharedCache, DEFAULT_CAPACITY};
use crate::selector::HostSelector;
use crate::transport::{Exchange, Transport};
use dns_wire::builder::MessageBuilder;
use dns_wire::message::{Message, Question};
use dns_wire::name::Name;
use dns_wire::reader::Reader;
use dns_wire::types::{RType, Rcode};
use dns_wire::writer::Section;
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

/// Fallback TTL when an answer carries no usable records (seconds).
const DEFAULT_ANSWER_TTL: u32 = 300;
/// Fallback negative TTL when no SOA is present (RFC 2308 default).
const DEFAULT_NEGATIVE_TTL: u32 = 900;

/// Resolver behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct ResolverConfig {
    /// Walk zone cuts with minimized qnames (RFC 7816). This is the
    /// switch whose flip the paper dates to Dec 2019 for Google.
    pub qmin: bool,
    /// Validate delegations DNSSEC-style: fetch DS at each parent and
    /// DNSKEY once per child zone, and compare (§4.2.2 — the traffic
    /// signature that separates Cloudflare/Google from Microsoft).
    pub validate: bool,
    /// Hard budget of queries per [`IterativeResolver::resolve`] call —
    /// what stops a cyclic dependency from looping forever.
    pub max_queries: u32,
    /// Maximum CNAME chain length.
    pub max_cnames: u32,
    /// EDNS advertised UDP payload size, on every hop of the walk.
    /// 0 = no OPT record at all.
    pub edns_size: u16,
    /// DNSSEC-OK: set the DO bit inside the OPT record on every hop.
    pub do_bit: bool,
    /// Checking Disabled: carried on every hop of the walk — referral
    /// probes, Q-min probes, DS/DNSKEY fetches, CNAME chases and
    /// glueless-NS re-walks alike.
    pub cd_bit: bool,
    /// How many times each server of a zone's NS set is tried before
    /// the query errors as unreachable. The retry passes re-rank
    /// servers by the RTT selector, so a timing-out server is demoted
    /// mid-resolution.
    pub attempts_per_server: u32,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            qmin: false,
            validate: false,
            max_queries: 64,
            max_cnames: 8,
            edns_size: 0,
            do_bit: false,
            cd_bit: false,
            attempts_per_server: 2,
        }
    }
}

/// One query the resolver sent (mirrors what a vantage point captures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// Server the query went to.
    pub server: IpAddr,
    /// Queried name, as sent on the wire.
    pub qname: Name,
    /// Queried type.
    pub qtype: RType,
    /// EDNS payload size advertised on this hop (0 = no OPT).
    pub edns_size: u16,
    /// DO bit on this hop.
    pub do_bit: bool,
    /// CD bit on this hop.
    pub cd_bit: bool,
}

/// Resolution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The name does not exist.
    NxDomain,
    /// The name exists but has no records of the requested type.
    NoData,
    /// The per-resolution query budget ran out (the user-visible
    /// symptom of pathological delegations).
    BudgetExhausted {
        /// Queries spent before giving up.
        queries: u32,
    },
    /// NS resolution required resolving a name that is itself being
    /// resolved: a cyclic dependency (Pappas et al. 2004 — the paper's
    /// Feb-2020 `.nz` incident).
    CyclicDependency {
        /// The name whose resolution re-entered itself.
        name: Name,
    },
    /// No server for a zone could be reached or produced an answer.
    Unreachable,
    /// The CNAME chain exceeded the limit.
    CnameLoop,
    /// Validation failed: the child's DNSKEY does not match the DS the
    /// parent published.
    Bogus {
        /// The delegation that failed to validate.
        zone: Name,
    },
}

/// Per-resolver counters for the retry/timeout state machine and the
/// shared-cache interaction. Plain totals; a fleet harness aggregates
/// them into its metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolverStats {
    /// Query sends beyond each hop's first attempt.
    pub retries: u64,
    /// Exchanges that ended in a transport timeout.
    pub timeouts: u64,
    /// Resolutions answered from the cache (positive or negative)
    /// without any query.
    pub cache_hits: u64,
    /// Resolutions that had to walk.
    pub cache_misses: u64,
}

/// An iterative (root-walking) resolver with caches.
pub struct IterativeResolver {
    config: ResolverConfig,
    /// every query sent, in order (when logging is enabled).
    pub log: Vec<QueryLogEntry>,
    /// Retry/timeout/cache counters.
    pub stats: ResolverStats,
    queries_this_call: u32,
    sent_total: u64,
    log_enabled: bool,
    resolving: HashSet<Name>,
    /// delegation -> the parent's DS digest (None = insecure).
    ds_cache: HashMap<Name, Option<Vec<u8>>>,
    /// zone -> verified DNSKEY material.
    dnskey_cache: HashMap<Name, Vec<u8>>,
    /// Answers, denials and zone cuts, with per-entry TTL decay:
    /// private to this resolver until a fleet's cache is attached.
    cache: SharedCache,
    /// Simulation/wall clock, microseconds — the time base for cache
    /// expiry.
    now_us: u64,
    selector: HostSelector,
    /// The one query every ask re-addresses: its id and question change
    /// per send, the EDNS and CD bits the configuration fixes do not.
    query: Message,
    /// The servers of the ask in hand, best first, with their scores.
    ranked: Vec<(f64, IpAddr)>,
    /// Addresses being read out of a reply.
    found: Vec<IpAddr>,
}

impl IterativeResolver {
    /// Build with the given configuration.
    pub fn new(config: ResolverConfig) -> Self {
        let mut query = MessageBuilder::query(0, Name::root(), RType::A);
        if config.edns_size > 0 {
            query = query.with_edns(config.edns_size, config.do_bit);
        }
        IterativeResolver {
            config,
            log: Vec::new(),
            stats: ResolverStats::default(),
            queries_this_call: 0,
            sent_total: 0,
            log_enabled: true,
            resolving: HashSet::new(),
            ds_cache: HashMap::new(),
            dnskey_cache: HashMap::new(),
            cache: SharedCache::with_capacity(DEFAULT_CAPACITY),
            now_us: 0,
            selector: HostSelector::new(),
            query: query.checking_disabled(config.cd_bit).build(),
            ranked: Vec::new(),
            found: Vec::new(),
        }
    }

    /// Attach a fleet-shared cache in place of the private one; all
    /// positive/negative/delegation caching moves there.
    pub fn attach_shared_cache(&mut self, cache: SharedCache) {
        self.cache = cache;
    }

    /// Advance this resolver's clock (microseconds), against which
    /// cached entries decay. A resolver whose clock is never set stays
    /// at 0, where nothing it cached expires.
    pub fn set_now_micros(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// Flip QNAME minimization (a provider rollout toggles this on the
    /// paper's timeline).
    pub fn set_qmin(&mut self, on: bool) {
        self.config.qmin = on;
    }

    /// Disable the per-query log (fleet runs: the capture tap records
    /// traffic, keeping an in-memory log per resolver would just grow).
    pub fn set_log_enabled(&mut self, on: bool) {
        self.log_enabled = on;
    }

    /// The active configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// The per-host RTT selector (for metrics export).
    pub fn selector(&self) -> &HostSelector {
        &self.selector
    }

    /// Queries sent over this resolver's lifetime.
    pub fn queries_sent(&self) -> usize {
        self.sent_total as usize
    }

    /// Zone cuts in this resolver's cache (for tests/inspection).
    pub fn cached_cuts(&self) -> usize {
        self.cache.stats().delegations
    }

    /// Resolve `name`/`rtype` to addresses, walking `net` from its
    /// root servers.
    pub fn resolve<T: Transport>(
        &mut self,
        net: &mut T,
        name: &Name,
        rtype: RType,
    ) -> Result<Vec<IpAddr>, ResolveError> {
        self.queries_this_call = 0;
        self.resolving.clear();
        let result = self.resolve_inner(net, name, rtype, 0);
        if self.queries_this_call == 0 {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
        }
        result.map(|addrs| addrs.to_vec())
    }

    fn resolve_inner<T: Transport>(
        &mut self,
        net: &mut T,
        name: &Name,
        rtype: RType,
        cname_depth: u32,
    ) -> Result<Addrs, ResolveError> {
        if cname_depth > self.config.max_cnames {
            return Err(ResolveError::CnameLoop);
        }
        let now = self.now_us;
        if let Some(cached) = self.cache.with(|c| c.consult(name, rtype, now)) {
            return cached.map_err(|kind| match kind {
                Negative::NxDomain => ResolveError::NxDomain,
                Negative::NoData => ResolveError::NoData,
            });
        }
        if !self.resolving.insert(name.clone()) {
            return Err(ResolveError::CyclicDependency { name: name.clone() });
        }
        let result = self.walk(net, name, rtype, cname_depth);
        self.resolving.remove(name);
        self.cache.with(|c| match &result {
            Ok((addrs, ttl)) => c.put_answer(name, rtype, addrs.clone(), now, *ttl),
            Err(ResolveError::NxDomain) => {
                c.put_negative(name, rtype, Negative::NxDomain, now, DEFAULT_NEGATIVE_TTL)
            }
            Err(ResolveError::NoData) => {
                c.put_negative(name, rtype, Negative::NoData, now, DEFAULT_NEGATIVE_TTL)
            }
            Err(_) => {}
        });
        result.map(|(addrs, _)| addrs)
    }

    /// The referral walk itself. Returns the addresses plus the TTL to
    /// cache them under.
    fn walk<T: Transport>(
        &mut self,
        net: &mut T,
        name: &Name,
        rtype: RType,
        cname_depth: u32,
    ) -> Result<(Addrs, u32), ResolveError> {
        // start from the deepest cached cut covering the name
        let (cut, mut servers) = self.best_cut(net, name);
        // depth we know to be inside `servers`' bailiwick (for Q-min's
        // empty-non-terminal traversal)
        let mut known_depth = cut.label_count();

        for _ in 0..64 {
            // pick the wire question
            let (send_qname, send_qtype) = if self.config.qmin {
                let child = name.ancestor(known_depth + 1);
                if &child == name {
                    (name.clone(), rtype)
                } else {
                    (child, RType::Ns)
                }
            } else {
                (name.clone(), rtype)
            };
            let terminal = &send_qname == name && send_qtype == rtype;

            let hop = self.ask(net, &servers, &send_qname, send_qtype, |reply, found| {
                read_hop(reply, found, name, terminal)
            })?;
            match hop {
                Hop::NxDomain => return Err(ResolveError::NxDomain),
                Hop::Answer(addrs, ttl) => return Ok((addrs, ttl)),
                Hop::Cname(target) => {
                    return self
                        .resolve_inner(net, &target, rtype, cname_depth + 1)
                        .map(|addrs| (addrs, DEFAULT_ANSWER_TTL));
                }
                Hop::NoData => return Err(ResolveError::NoData),
                Hop::Referral {
                    cut: new_cut,
                    ttl: cut_ttl,
                    next,
                } => {
                    let new_servers = match next {
                        NextServers::Glue(glue) => glue,
                        NextServers::Hosts(hosts) => {
                            // no glue: resolve the NS hosts (cycle-guarded)
                            let mut found = Vec::new();
                            let mut cycle: Option<ResolveError> = None;
                            for host in &hosts {
                                match self.resolve_inner(net, host, RType::A, 0) {
                                    Ok(addrs) => found.extend_from_slice(&addrs),
                                    Err(e @ ResolveError::CyclicDependency { .. }) => {
                                        cycle = Some(e);
                                    }
                                    Err(_) => {}
                                }
                            }
                            if found.is_empty() {
                                return Err(cycle.unwrap_or(ResolveError::Unreachable));
                            }
                            Addrs::from(found)
                        }
                    };
                    if self.config.validate {
                        self.validate_delegation(net, &servers, &new_cut, &new_servers)?;
                    }
                    let now = self.now_us;
                    self.cache
                        .with(|c| c.put_delegation(&new_cut, new_servers.clone(), now, cut_ttl));
                    known_depth = new_cut.label_count();
                    servers = new_servers;
                }
                Hop::Other => {
                    if self.config.qmin && &send_qname != name {
                        // NODATA at an empty non-terminal, or an
                        // authoritative NS answer (same-server child
                        // zone): step one label deeper
                        known_depth += 1;
                        continue;
                    }
                    return Err(ResolveError::NoData);
                }
            }
        }
        Err(ResolveError::BudgetExhausted {
            queries: self.queries_this_call,
        })
    }

    /// DNSSEC-style delegation check: DS at the parent, DNSKEY once per
    /// child zone, compared. Mirrors the §4.2.2 traffic pattern: a
    /// validator emits one DS query per (uncached) delegation but only
    /// one DNSKEY query per zone.
    fn validate_delegation<T: Transport>(
        &mut self,
        net: &mut T,
        parent_servers: &[IpAddr],
        cut: &Name,
        child_servers: &[IpAddr],
    ) -> Result<(), ResolveError> {
        let ds = match self.ds_cache.get(cut) {
            Some(cached) => cached.clone(),
            None => {
                let digest = self.ask(net, parent_servers, cut, RType::Ds, |reply, _| {
                    first_answer_for(reply, cut, |r| r.ds_digest())
                })?;
                self.ds_cache.insert(cut.clone(), digest.clone());
                digest
            }
        };
        let Some(digest) = ds else {
            return Ok(()); // insecure delegation: nothing to validate
        };
        let key = match self.dnskey_cache.get(cut) {
            Some(k) => k.clone(),
            None => {
                let key = self
                    .ask(net, child_servers, cut, RType::Dnskey, |reply, _| {
                        first_answer_for(reply, cut, |r| r.dnskey_key())
                    })?
                    .ok_or_else(|| ResolveError::Bogus { zone: cut.clone() })?;
                self.dnskey_cache.insert(cut.clone(), key.clone());
                key
            }
        };
        if key == digest {
            Ok(())
        } else {
            Err(ResolveError::Bogus { zone: cut.clone() })
        }
    }

    /// The deepest cached delegation covering `name` (falling back to
    /// the root servers).
    fn best_cut<T: Transport>(&self, net: &T, name: &Name) -> (Name, Addrs) {
        self.cache
            .with(|c| c.deepest_cut(name, self.now_us))
            .unwrap_or_else(|| (Name::root(), net.root_servers().into()))
    }

    /// Send one question and `read` the reply: servers ordered
    /// best-first by the RTT selector, each tried up to
    /// `attempts_per_server` times, with timeouts demoting a server
    /// between passes — the bounded retry/timeout state machine of one
    /// in-flight query. The reply is read where the transport holds it;
    /// `read` takes what the walk keeps, with a scratch vector for
    /// addresses.
    fn ask<T: Transport, R>(
        &mut self,
        net: &mut T,
        servers: &[IpAddr],
        qname: &Name,
        qtype: RType,
        read: impl FnOnce(&Reader<'_>, &mut Vec<IpAddr>) -> R,
    ) -> Result<R, ResolveError> {
        self.query.questions[0] = Question::new(qname.clone(), qtype);
        for attempt in 0..self.config.attempts_per_server.max(1) {
            // re-rank every pass: a timeout in the previous pass moves
            // that server to the back
            self.selector.rank(servers, &mut self.ranked);
            for i in 0..self.ranked.len() {
                let server = self.ranked[i].1;
                if self.queries_this_call >= self.config.max_queries {
                    return Err(ResolveError::BudgetExhausted {
                        queries: self.queries_this_call,
                    });
                }
                self.queries_this_call += 1;
                if attempt > 0 {
                    self.stats.retries += 1;
                }
                self.query.header.id = (self.sent_total as u16).wrapping_mul(31).wrapping_add(7);
                self.sent_total += 1;
                if self.log_enabled {
                    self.log.push(QueryLogEntry {
                        server,
                        qname: qname.clone(),
                        qtype,
                        edns_size: self.config.edns_size,
                        do_bit: self.config.do_bit,
                        cd_bit: self.config.cd_bit,
                    });
                }
                let reply = match net.exchange(server, &self.query) {
                    Exchange::Answer { reply, rtt_us } => {
                        Reader::new(reply).ok().map(|reply| (reply, rtt_us))
                    }
                    Exchange::Timeout => None,
                };
                match reply {
                    Some((reply, rtt_us)) => {
                        self.selector.observe_rtt(server, rtt_us);
                        return Ok(read(&reply, &mut self.found));
                    }
                    // silence, or bytes that are no DNS message: no
                    // answer from this server either way
                    None => {
                        self.stats.timeouts += 1;
                        self.selector.observe_timeout(server);
                    }
                }
            }
        }
        Err(ResolveError::Unreachable)
    }
}

/// What one reply tells the walk, read out of its bytes by [`read_hop`].
enum Hop {
    NxDomain,
    /// Addresses for the name asked — or for its CNAME target, when
    /// they rode along — and the TTL to cache them under.
    Answer(Addrs, u32),
    /// A CNAME whose target has to be resolved.
    Cname(Name),
    NoData,
    /// A referral: the new cut, its NS TTL, and where its servers are.
    Referral {
        cut: Name,
        ttl: u32,
        next: NextServers,
    },
    /// Neither an answer nor a referral: what a Q-min probe gets at an
    /// empty non-terminal or from a same-server child zone.
    Other,
}

/// Where a referral's servers are.
enum NextServers {
    /// In the glue.
    Glue(Addrs),
    /// Behind these NS hosts, which have to be resolved first.
    Hosts(Vec<Name>),
}

/// Read a reply to the question the walk sent: the real one
/// (`terminal`) about `name`, or a Q-min probe.
fn read_hop(reply: &Reader<'_>, found: &mut Vec<IpAddr>, name: &Name, terminal: bool) -> Hop {
    if reply.rcode() == Rcode::NxDomain {
        return Hop::NxDomain;
    }
    if terminal {
        if let Some(addrs) = answer_addrs(reply, name, found) {
            return Hop::Answer(addrs, answer_ttl(reply, name));
        }
        let cname = reply
            .records(Section::Answer)
            .find(|r| r.rtype == RType::Cname && r.owner_is(name))
            .and_then(|r| r.cname());
        if let Some(target) = cname {
            // chased answers may ride along
            return match answer_addrs(reply, &target, found) {
                Some(addrs) => Hop::Answer(addrs, answer_ttl(reply, &target)),
                None => Hop::Cname(target),
            };
        }
        if reply.count(Section::Answer) == 0 && !is_referral(reply) {
            return Hop::NoData;
        }
    }
    if is_referral(reply) {
        return read_referral(reply, found);
    }
    Hop::Other
}

/// The A/AAAA addresses the answer section holds for `owner`, in order,
/// as one shared slice; `None` when there are none.
fn answer_addrs(reply: &Reader<'_>, owner: &Name, found: &mut Vec<IpAddr>) -> Option<Addrs> {
    found.clear();
    found.extend(
        reply
            .records(Section::Answer)
            .filter_map(|r| r.addr().filter(|_| r.owner_is(owner))),
    );
    (!found.is_empty()).then(|| Addrs::from(&found[..]))
}

/// What `pick` reads from the first answer record owned by `owner` that
/// it reads anything from, copied out.
fn first_answer_for<'a>(
    reply: &Reader<'a>,
    owner: &Name,
    pick: impl Fn(&dns_wire::reader::RecordRef<'a>) -> Option<&'a [u8]>,
) -> Option<Vec<u8>> {
    reply
        .records(Section::Answer)
        .find_map(|r| pick(&r).filter(|_| r.owner_is(owner)).map(<[u8]>::to_vec))
}

/// NOERROR, empty answer, NS records in authority = a referral.
fn is_referral(reply: &Reader<'_>) -> bool {
    let authority = || reply.records(Section::Authority);
    reply.rcode() == Rcode::NoError
        && reply.count(Section::Answer) == 0
        && authority().any(|r| r.rtype == RType::Ns)
        && !authority().any(|r| r.rtype == RType::Soa)
}

/// A referral's cut and NS TTL (the last NS record's), and its servers:
/// the glue's addresses, or without glue the NS hosts.
fn read_referral(reply: &Reader<'_>, found: &mut Vec<IpAddr>) -> Hop {
    let ns = || {
        reply
            .records(Section::Authority)
            .filter(|r| r.rtype == RType::Ns)
    };
    let (cut, ttl) = ns()
        .last()
        .map_or((Name::root(), DEFAULT_ANSWER_TTL), |r| (r.owner(), r.ttl));
    found.clear();
    found.extend(reply.records(Section::Additional).filter_map(|r| r.addr()));
    let next = if found.is_empty() {
        NextServers::Hosts(ns().filter_map(|r| r.ns()).collect())
    } else {
        NextServers::Glue(Addrs::from(&found[..]))
    };
    Hop::Referral { cut, ttl, next }
}

/// Minimum TTL over the answer records for `owner` (the value a cache
/// must honor), with a default when none match.
fn answer_ttl(reply: &Reader<'_>, owner: &Name) -> u32 {
    reply
        .records(Section::Answer)
        .filter(|r| r.owner_is(owner))
        .map(|r| r.ttl)
        .min()
        .unwrap_or(DEFAULT_ANSWER_TTL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{sample_world, Network, ZoneBuilder};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn resolves_through_the_tree() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        let addrs = r
            .resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(addrs, vec!["192.0.2.80".parse::<IpAddr>().unwrap()]);
        // walked root -> nl -> example.nl
        assert_eq!(r.queries_sent(), 3);
        assert_eq!(r.cached_cuts(), 2, "nl. and example.nl. learned");
    }

    #[test]
    fn cache_short_circuits_the_second_walk() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let before = r.queries_sent();
        // same name: answered from the address cache, zero queries
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(r.queries_sent(), before);
        // sibling name: starts at the cached example.nl. cut, one query
        let aaaa = r
            .resolve(&mut net, &n("www.example.nl."), RType::Aaaa)
            .unwrap();
        assert_eq!(aaaa, vec!["2001:db8::80".parse::<IpAddr>().unwrap()]);
        assert_eq!(r.queries_sent(), before + 1);
    }

    #[test]
    fn qmin_changes_what_the_tld_sees() {
        // the paper's §4.2.1, as an algorithm-level assertion
        let tld_server: IpAddr = "194.0.28.53".parse().unwrap();

        let mut net = sample_world();
        let mut classic = IterativeResolver::new(ResolverConfig::default());
        classic
            .resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let classic_seen: Vec<(String, RType)> = net
            .queries_at(tld_server)
            .iter()
            .map(|q| (q.qname.to_string(), q.qtype))
            .collect();
        assert_eq!(
            classic_seen,
            vec![("www.example.nl.".to_string(), RType::A)],
            "classic resolver leaks the full qname to the TLD"
        );

        let mut net = sample_world();
        let mut minimizing = IterativeResolver::new(ResolverConfig {
            qmin: true,
            ..Default::default()
        });
        minimizing
            .resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let qmin_seen: Vec<(String, RType)> = net
            .queries_at(tld_server)
            .iter()
            .map(|q| (q.qname.to_string(), q.qtype))
            .collect();
        assert_eq!(
            qmin_seen,
            vec![("example.nl.".to_string(), RType::Ns)],
            "Q-min sends one label below the cut, qtype NS"
        );
    }

    #[test]
    fn qmin_still_resolves_correctly() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            qmin: true,
            ..Default::default()
        });
        let addrs = r
            .resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(addrs, vec!["192.0.2.80".parse::<IpAddr>().unwrap()]);
    }

    #[test]
    fn out_of_bailiwick_ns_resolves_via_second_walk() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        // hosted.nl is served by ns.provider.nz: the resolver must first
        // resolve that host through .nz
        let addrs = r.resolve(&mut net, &n("www.hosted.nl."), RType::A).unwrap();
        assert_eq!(addrs, vec!["203.0.113.81".parse::<IpAddr>().unwrap()]);
        // the .nz TLD server must have been consulted on the way
        assert!(!net.queries_at("202.46.190.10".parse().unwrap()).is_empty());
    }

    #[test]
    fn nxdomain_and_nodata_surface() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        assert_eq!(
            r.resolve(&mut net, &n("nosuch.example.nl."), RType::A),
            Err(ResolveError::NxDomain)
        );
        assert_eq!(
            r.resolve(&mut net, &n("www.example.nl."), RType::Mx),
            Err(ResolveError::NoData)
        );
    }

    #[test]
    fn cname_is_followed() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        let addrs = r
            .resolve(&mut net, &n("cdn.example.nl."), RType::A)
            .unwrap();
        assert_eq!(addrs, vec!["192.0.2.80".parse::<IpAddr>().unwrap()]);
    }

    /// Two domains whose NS sets point at each other, with no glue: the
    /// Feb-2020 `.nz` configuration. Resolution must terminate with a
    /// cycle error — and the TLD absorbs the repeated queries.
    fn cyclic_world() -> Network {
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

    #[test]
    fn cyclic_dependency_detected_not_looped() {
        let mut net = cyclic_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        let err = r
            .resolve(&mut net, &n("www.alpha.nz."), RType::A)
            .unwrap_err();
        assert!(
            matches!(err, ResolveError::CyclicDependency { .. }),
            "got {err:?}"
        );
        // bounded work even though the configuration is unresolvable
        assert!(r.queries_sent() <= 64);
    }

    #[test]
    fn cyclic_dependency_hammers_the_tld() {
        // the incident's vantage-point signature: retries multiply A
        // queries at the TLD (Figure 3b's surge)
        let tld: IpAddr = "202.46.190.10".parse().unwrap();
        let mut net = cyclic_world();
        let mut tld_queries = 0usize;
        for _ in 0..50 {
            // caches cannot help: nothing positive is ever learned
            let mut r = IterativeResolver::new(ResolverConfig::default());
            let _ = r.resolve(&mut net, &n("www.alpha.nz."), RType::A);
        }
        tld_queries += net.queries_at(tld).len();
        assert!(
            tld_queries >= 150,
            "repeated failed resolutions amplify at the TLD: {tld_queries}"
        );
        // and the queries are for the in-cycle names (A lookups of NS hosts)
        let ns_lookups = net
            .queries_at(tld)
            .iter()
            .filter(|q| q.qname.to_string().starts_with("ns.") && q.qtype == RType::A)
            .count();
        assert!(ns_lookups >= 100, "{ns_lookups}");
    }

    #[test]
    fn budget_bounds_any_walk() {
        let mut net = cyclic_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            max_queries: 5,
            ..Default::default()
        });
        let err = r
            .resolve(&mut net, &n("www.alpha.nz."), RType::A)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ResolveError::BudgetExhausted { .. } | ResolveError::CyclicDependency { .. }
            ),
            "{err:?}"
        );
        assert!(r.queries_sent() <= 5);
    }

    #[test]
    fn unreachable_server_is_an_error() {
        let mut net = Network::new();
        net.add(
            ZoneBuilder::new(".")
                .server("a.root-servers.example.", "198.41.0.4")
                .delegate("dead.", &["ns.dead."])
                .address("ns.dead.", "10.255.255.1"), // nobody listens
        );
        let mut r = IterativeResolver::new(ResolverConfig::default());
        assert_eq!(
            r.resolve(&mut net, &n("www.dead."), RType::A),
            Err(ResolveError::Unreachable)
        );
        // the retry machine tried the dead server on every pass and
        // counted each timeout
        assert!(r.stats.timeouts >= 2, "timeouts {}", r.stats.timeouts);
        assert!(r.stats.retries >= 1, "retries {}", r.stats.retries);
    }

    #[test]
    fn qmin_walk_is_deeper_but_bounded() {
        // a 5-label name: Q-min sends more, smaller queries
        let mut net = sample_world();
        let mut classic = IterativeResolver::new(ResolverConfig::default());
        let _ = classic.resolve(&mut net, &n("a.b.www.example.nl."), RType::A);
        let classic_count = classic.queries_sent();
        let mut net = sample_world();
        let mut minimizing = IterativeResolver::new(ResolverConfig {
            qmin: true,
            ..Default::default()
        });
        let _ = minimizing.resolve(&mut net, &n("a.b.www.example.nl."), RType::A);
        assert!(minimizing.queries_sent() >= classic_count);
        assert!(minimizing.queries_sent() <= classic_count + 4);
    }
}

#[cfg(test)]
mod validate_tests {
    use super::*;
    use crate::hierarchy::{Network, ZoneBuilder};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A signed world: root signs, delegates securely to zz., which
    /// securely delegates two leaf zones (and one insecurely).
    fn signed_world() -> Network {
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

    #[test]
    fn validating_resolution_succeeds_on_signed_chain() {
        let mut net = signed_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            validate: true,
            ..Default::default()
        });
        let addrs = r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        assert_eq!(addrs, vec!["192.0.2.1".parse::<IpAddr>().unwrap()]);
        // the walk contains DS queries at parents and DNSKEYs at children
        let ds = r.log.iter().filter(|e| e.qtype == RType::Ds).count();
        let dnskey = r.log.iter().filter(|e| e.qtype == RType::Dnskey).count();
        assert_eq!(ds, 2, "zz. and d0.zz.");
        assert_eq!(dnskey, 2);
    }

    #[test]
    fn ds_exceeds_dnskey_across_many_delegations() {
        // the Figure 2d signature: one DNSKEY per zone, one DS per
        // delegation — resolve both secure leaves plus a sibling name
        let mut net = signed_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            validate: true,
            ..Default::default()
        });
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        r.resolve(&mut net, &n("www.d1.zz."), RType::A).unwrap();
        let ds = r.log.iter().filter(|e| e.qtype == RType::Ds).count();
        let dnskey_zz = r
            .log
            .iter()
            .filter(|e| e.qtype == RType::Dnskey && e.qname == n("zz."))
            .count();
        assert_eq!(dnskey_zz, 1, "DNSKEY for the TLD fetched exactly once");
        assert_eq!(ds, 3, "one DS per distinct delegation (zz., d0, d1)");
    }

    #[test]
    fn insecure_delegation_skips_dnskey() {
        let mut net = signed_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            validate: true,
            ..Default::default()
        });
        let addrs = r.resolve(&mut net, &n("www.d2.zz."), RType::A).unwrap();
        assert_eq!(addrs, vec!["192.0.2.3".parse::<IpAddr>().unwrap()]);
        // DS asked for d2.zz. (answer: NODATA) but no DNSKEY at d2.zz.
        assert!(r
            .log
            .iter()
            .any(|e| e.qtype == RType::Ds && e.qname == n("d2.zz.")));
        assert!(!r
            .log
            .iter()
            .any(|e| e.qtype == RType::Dnskey && e.qname == n("d2.zz.")));
    }

    #[test]
    fn bogus_chain_is_rejected() {
        // parent publishes DS, child is NOT signed (no DNSKEY): bogus
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
        let mut r = IterativeResolver::new(ResolverConfig {
            validate: true,
            ..Default::default()
        });
        let err = r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap_err();
        assert_eq!(err, ResolveError::Bogus { zone: n("zz.") });
    }

    #[test]
    fn non_validating_resolver_ignores_dnssec() {
        let mut net = signed_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        assert!(!r.log.iter().any(|e| e.qtype == RType::Ds));
        assert!(!r.log.iter().any(|e| e.qtype == RType::Dnskey));
    }
}

/// The ISSUE's CD/AD satellite: EDNS size, DO and CD must ride on
/// *every* hop of the walk — referral probes, Q-min probes, terminal
/// queries, DS/DNSKEY fetches, glueless-NS re-walks and CNAME chases —
/// not just the first query. One test per hop type.
#[cfg(test)]
mod flag_tests {
    use super::*;
    use crate::hierarchy::sample_world;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn flagged() -> ResolverConfig {
        ResolverConfig {
            qmin: true,
            validate: true,
            edns_size: 1232,
            do_bit: true,
            cd_bit: true,
            ..Default::default()
        }
    }

    fn assert_flags(e: &QueryLogEntry) {
        assert_eq!(e.edns_size, 1232, "hop {}/{:?} lost EDNS", e.qname, e.qtype);
        assert!(e.do_bit, "hop {}/{:?} lost DO", e.qname, e.qtype);
        assert!(e.cd_bit, "hop {}/{:?} lost CD", e.qname, e.qtype);
    }

    #[test]
    fn referral_hops_carry_flags() {
        let mut net = super::validate_tests_world();
        let mut r = IterativeResolver::new(flagged());
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        // the walk's referral probes (root and TLD hops) are NS-typed
        // under Q-min; every one must carry the flags
        let probes: Vec<&QueryLogEntry> = r.log.iter().filter(|e| e.qtype == RType::Ns).collect();
        assert!(!probes.is_empty(), "no referral/Q-min probe hops logged");
        probes.iter().for_each(|e| assert_flags(e));
    }

    #[test]
    fn terminal_query_carries_flags() {
        let mut net = super::validate_tests_world();
        let mut r = IterativeResolver::new(flagged());
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        let terminal = r
            .log
            .iter()
            .find(|e| e.qname == n("www.d0.zz.") && e.qtype == RType::A)
            .expect("terminal hop logged");
        assert_flags(terminal);
    }

    #[test]
    fn ds_hop_carries_flags() {
        let mut net = super::validate_tests_world();
        let mut r = IterativeResolver::new(flagged());
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        let ds = r
            .log
            .iter()
            .find(|e| e.qtype == RType::Ds)
            .expect("DS hop logged");
        assert_flags(ds);
    }

    #[test]
    fn dnskey_hop_carries_flags() {
        let mut net = super::validate_tests_world();
        let mut r = IterativeResolver::new(flagged());
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        let dnskey = r
            .log
            .iter()
            .find(|e| e.qtype == RType::Dnskey)
            .expect("DNSKEY hop logged");
        assert_flags(dnskey);
    }

    #[test]
    fn glueless_ns_rewalk_carries_flags() {
        // www.hosted.nl is served by an out-of-bailiwick NS: the
        // resolver re-walks for ns.provider.nz. mid-resolution
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            edns_size: 1232,
            do_bit: true,
            cd_bit: true,
            ..Default::default()
        });
        r.resolve(&mut net, &n("www.hosted.nl."), RType::A).unwrap();
        let rewalk: Vec<&QueryLogEntry> = r
            .log
            .iter()
            .filter(|e| e.qname == n("ns.provider.nz."))
            .collect();
        assert!(!rewalk.is_empty(), "no glueless re-walk hops logged");
        for e in rewalk {
            assert_eq!(e.edns_size, 1232);
            assert!(e.do_bit && e.cd_bit, "glueless hop lost flags");
        }
    }

    #[test]
    fn cname_chase_carries_flags() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            edns_size: 1232,
            do_bit: true,
            cd_bit: true,
            ..Default::default()
        });
        r.resolve(&mut net, &n("cdn.example.nl."), RType::A)
            .unwrap();
        assert!(!r.log.is_empty());
        for e in &r.log {
            assert_eq!(e.edns_size, 1232, "CNAME-chase hop {} lost EDNS", e.qname);
            assert!(
                e.do_bit && e.cd_bit,
                "CNAME-chase hop {} lost flags",
                e.qname
            );
        }
    }

    #[test]
    fn every_hop_of_a_validating_qmin_walk_is_flagged() {
        let mut net = super::validate_tests_world();
        let mut r = IterativeResolver::new(flagged());
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        r.resolve(&mut net, &n("www.d1.zz."), RType::A).unwrap();
        assert!(r.log.len() >= 6, "expected a multi-hop walk");
        r.log.iter().for_each(assert_flags);
    }
}

#[cfg(test)]
mod fleet_cache_tests {
    use super::*;
    use crate::cache::SharedCache;
    use crate::hierarchy::sample_world;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn shared_cache_absorbs_repeat_lookups_across_resolvers() {
        let mut net = sample_world();
        let shared = SharedCache::with_capacity(1024);
        let mut a = IterativeResolver::new(ResolverConfig::default());
        let mut b = IterativeResolver::new(ResolverConfig::default());
        a.attach_shared_cache(shared.clone());
        b.attach_shared_cache(shared.clone());

        a.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let sent_before = b.queries_sent();
        // resolver B never walked, but the fleet cache answers
        b.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(b.queries_sent(), sent_before, "fleet cache hit");
        assert_eq!(b.stats.cache_hits, 1);
        assert!(shared.hits() >= 1);
    }

    #[test]
    fn shared_entries_decay_by_record_ttl() {
        let mut net = sample_world();
        let shared = SharedCache::with_capacity(1024);
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.attach_shared_cache(shared.clone());

        r.set_now_micros(0);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let walked = r.queries_sent();

        // within the answer TTL (300s): served from the shared cache
        r.set_now_micros(200_000_000);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(r.queries_sent(), walked);

        // past the answer TTL but within the 3600s delegation TTL: the
        // resolver re-queries the leaf zone only, not the whole chain
        r.set_now_micros(400_000_000);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(r.queries_sent(), walked + 1, "one re-query at the leaf cut");

        // past every TTL: full re-walk from the root
        r.set_now_micros(4_000_000_000);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(r.queries_sent(), walked + 1 + 3, "cold re-walk");
    }

    #[test]
    fn negative_answers_are_cached_in_the_fleet_cache() {
        let mut net = sample_world();
        let shared = SharedCache::with_capacity(1024);
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.attach_shared_cache(shared.clone());
        assert_eq!(
            r.resolve(&mut net, &n("nosuch.example.nl."), RType::A),
            Err(ResolveError::NxDomain)
        );
        let sent = r.queries_sent();
        // the denial is served from cache within the negative TTL
        assert_eq!(
            r.resolve(&mut net, &n("nosuch.example.nl."), RType::A),
            Err(ResolveError::NxDomain)
        );
        assert_eq!(r.queries_sent(), sent, "negative cache hit");
    }

    #[test]
    fn log_can_be_disabled_without_breaking_budget() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.set_log_enabled(false);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert!(r.log.is_empty());
        assert_eq!(r.queries_sent(), 3, "sent counter independent of log");
    }
}

/// The signed test world, shared by the validation and flag tests.
#[cfg(test)]
fn validate_tests_world() -> crate::hierarchy::Network {
    use crate::hierarchy::{Network, ZoneBuilder};
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
