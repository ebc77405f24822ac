//! The iterative resolution algorithm: referral walking from the root,
//! optional QNAME minimization, delegation/address caching, and cycle
//! detection.
//!
//! The walk is a sans-io step machine: [`IterativeResolver::start`]
//! and [`IterativeResolver::step`] say what the walk needs next — a
//! query sent to a server ([`Step::Send`]), the root hints
//! ([`Step::Prime`]) or nothing more ([`Step::Done`]). There is no
//! clock and no socket inside, so one driver can keep many walks in
//! flight (`authd`'s reactor), and [`IterativeResolver::resolve`] is
//! the blocking driver over any [`Transport`]: simnet's three-tier
//! `SimTransport`, the toy hierarchy the crate's tests walk, or anything
//! else that answers one query at a time.
//!
//! What a recursive walk keeps on the call stack — the name being
//! resolved, its CNAME targets and glueless NS hosts, and the DS/DNSKEY
//! asks of a validated delegation — lives on a stack of frames in a
//! [`WalkScratch`], with every other buffer a walk works in. A name
//! already on that stack is a cyclic dependency. Every resolver caches
//! through a [`SharedCache`] (per-entry TTL decay) — its own until a
//! fleet attaches the one its resolvers share — and gets per-host RTT
//! ordering plus a bounded retry/timeout state machine per in-flight
//! query.
//!
//! An instance holds only what is its own across walks: its
//! configuration, counters, query-id counter, DS/DNSKEY memos and RTT
//! selector. The walk scratch is its own too when it walks alone (as
//! a live `fleetgen` lane does, with walks in flight side by side), but
//! an offline fleet stream walks its instances one at a time and lends
//! them one scratch ([`IterativeResolver::resolve_in`]), so that a
//! fresh instance grows no buffer: its first walk allocates only its
//! selector's table, and whatever the cache newly learns.
//!
//! A hop allocates nothing of its own: each ask writes its query once
//! into the scratch and each send patches only its id, servers are
//! ranked in the scratch, and each reply is read in place ([`Reader`])
//! down to what the walk keeps — an answer's addresses or a referral's
//! glue, read into the scratch and handed to the cache, which returns
//! the set as it holds it (one address inline, a longer set its
//! interned copy) under the lock the hop takes anyway.

use crate::cache::{Addrs, Negative, SharedCache, DEFAULT_CAPACITY};
use crate::selector::HostSelector;
use crate::transport::{Exchange, Transport};
use dns_wire::edns::Edns;
use dns_wire::header::{Header, HEADER_LEN};
use dns_wire::message::Question;
use dns_wire::name::Name;
use dns_wire::reader::Reader;
use dns_wire::types::{RType, Rcode};
use dns_wire::writer::{write_query_into, Section, MAX_QUERY_LEN};
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

/// Fallback TTL when an answer carries no usable records (seconds).
const DEFAULT_ANSWER_TTL: u32 = 300;
/// Fallback negative TTL when no SOA is present (RFC 2308 default).
const DEFAULT_NEGATIVE_TTL: u32 = 900;
/// Hops one walk may take before it gives up.
const MAX_HOPS: u32 = 64;

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
    /// Hard budget of queries per walk (one [`IterativeResolver::start`]
    /// to its [`Step::Done`]) — what stops a cyclic dependency from
    /// looping forever.
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

/// One query the resolver sent (mirrors what a vantage point captures):
/// its question, read back from the bytes sent. The EDNS, DO and CD
/// bits are the configuration's on every query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// Server the query went to.
    pub server: IpAddr,
    /// Queried name, as sent on the wire.
    pub qname: Name,
    /// Queried type.
    pub qtype: RType,
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Queries sent over this resolver's lifetime; each send's id is
    /// taken from it.
    sent_total: u64,
    log_enabled: bool,
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
    /// What the walk in hand works in: this resolver's own scratch, or
    /// one lent to it for the walk ([`IterativeResolver::resolve_in`]).
    scratch: WalkScratch,
}

/// What one walk works in: its buffers, which a walk grows once and
/// then reuses, and where it stands. Nothing in it outlives the walk,
/// so any number of resolvers that walk one at a time can share one — a
/// fleet stream lends its own to whichever instance walks
/// ([`IterativeResolver::resolve_in`]), and a fresh instance then grows
/// no buffer of its own. An empty one holds no memory.
#[derive(Default)]
pub struct WalkScratch {
    /// The query of the ask in hand, as sent: written once per ask,
    /// with the EDNS and CD bits the configuration fixes, and its id
    /// patched per send.
    query: Vec<u8>,
    /// The servers of the ask in hand, best first, with their scores.
    ranked: Vec<(f64, IpAddr)>,
    /// The set in hand: addresses read out of a reply, or the servers
    /// of a referral about to be followed.
    found: Vec<IpAddr>,
    /// The names being resolved: the top-level name at the bottom, the
    /// CNAME target or NS host being resolved for the frame below on
    /// top. A name already on the stack is a cyclic dependency.
    frames: Vec<Frame>,
    /// A name whose walk waits for the root hints ([`Step::Prime`]).
    pending: Option<(Name, RType, u32)>,
    /// The ask in flight for the top frame.
    ask: Ask,
    /// Queries this walk has sent, against
    /// [`ResolverConfig::max_queries`].
    queries: u32,
}

/// What a walk needs next from whoever drives it.
#[derive(Debug)]
pub enum Step {
    /// Send [`IterativeResolver::query`] to `server`, and hand what came
    /// back to [`IterativeResolver::step`].
    Send {
        /// The server to ask.
        server: IpAddr,
    },
    /// No cached cut covers the name being walked: hand the root hints
    /// ([`Transport::root_servers`]) to [`IterativeResolver::prime`].
    Prime,
    /// The walk is over: the addresses, or why there are none.
    Done(Result<Addrs, ResolveError>),
}

/// One name being resolved: what `resolve_inner` and `walk` kept on the
/// call stack when the walk was recursive.
struct Frame {
    name: Name,
    rtype: RType,
    cname_depth: u32,
    /// Servers of the deepest cut reached so far.
    servers: Addrs,
    /// Depth known to be inside `servers`' bailiwick (for Q-min's
    /// empty-non-terminal traversal).
    known_depth: usize,
    /// Hops asked so far, bounded by [`MAX_HOPS`].
    hops: u32,
    wait: Wait,
}

/// What a frame waits for.
enum Wait {
    /// The reply to its hop: the real question (`terminal`) or a Q-min
    /// probe.
    Hop { terminal: bool },
    /// Its CNAME target's resolution, on the frame above.
    Cname,
    /// A glueless referral's NS hosts, resolved one at a time on the
    /// frame above.
    Hosts {
        cut: Name,
        ttl: u32,
        hosts: Vec<Name>,
        next: usize,
        found: Vec<IpAddr>,
        cycle: Option<ResolveError>,
    },
    /// A referral to `cut` being validated: the parent's DS for it
    /// while `digest` is `None`, then the child's DNSKEY to compare
    /// with that digest.
    Validate {
        cut: Name,
        ttl: u32,
        child: Addrs,
        digest: Option<Vec<u8>>,
    },
}

/// The ask in flight: its retry pass, the next ranked server to try,
/// and the server the query went to.
struct Ask {
    attempt: u32,
    next: usize,
    server: IpAddr,
}

impl Default for Ask {
    fn default() -> Ask {
        Ask {
            attempt: 0,
            next: 0,
            server: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
        }
    }
}

impl IterativeResolver {
    /// Build with the given configuration, caching privately.
    pub fn new(config: ResolverConfig) -> Self {
        Self::sharing(config, SharedCache::with_capacity(DEFAULT_CAPACITY))
    }

    /// Build with the given configuration, caching in `cache`: a
    /// fleet's, shared with its other resolvers.
    pub fn sharing(config: ResolverConfig, cache: SharedCache) -> Self {
        IterativeResolver {
            config,
            log: Vec::new(),
            stats: ResolverStats::default(),
            sent_total: 0,
            log_enabled: true,
            ds_cache: HashMap::new(),
            dnskey_cache: HashMap::new(),
            cache,
            now_us: 0,
            selector: HostSelector::new(),
            scratch: WalkScratch::default(),
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

    /// The query every [`Step::Send`] asks for, as wire bytes: written
    /// once per ask, its id patched per send, valid until the next call
    /// into the walk.
    pub fn query(&self) -> &[u8] {
        &self.scratch.query
    }

    /// Resolve `name`/`rtype` to addresses, walking `net` from its
    /// root servers: the blocking driver of the walk machine
    /// ([`IterativeResolver::start`], then each [`Step`] answered from
    /// `net` until [`Step::Done`]). The addresses are the cache's
    /// shared copy.
    pub fn resolve<T: Transport>(
        &mut self,
        net: &mut T,
        name: &Name,
        rtype: RType,
    ) -> Result<Addrs, ResolveError> {
        let mut step = self.start(name, rtype);
        loop {
            step = match step {
                Step::Send { server } => {
                    let exchange = net.exchange(server, &self.scratch.query);
                    self.step(exchange)
                }
                Step::Prime => self.prime(net.root_servers()),
                Step::Done(result) => return result,
            };
        }
    }

    /// [`IterativeResolver::resolve`] in `scratch` instead of this
    /// resolver's own walk buffers, which stay as they are: a driver
    /// that walks many resolvers one at a time lends each the same
    /// scratch, so that only the first walk grows it.
    pub fn resolve_in<T: Transport>(
        &mut self,
        scratch: &mut WalkScratch,
        net: &mut T,
        name: &Name,
        rtype: RType,
    ) -> Result<Addrs, ResolveError> {
        std::mem::swap(&mut self.scratch, scratch);
        let result = self.resolve(net, name, rtype);
        std::mem::swap(&mut self.scratch, scratch);
        result
    }

    /// Begin a walk for `name`/`rtype`; any walk in hand is abandoned.
    /// A cached answer or denial comes back as [`Step::Done`] at once.
    pub fn start(&mut self, name: &Name, rtype: RType) -> Step {
        self.scratch.queries = 0;
        self.scratch.frames.clear();
        self.scratch.pending = None;
        let step = self.enter(Cow::Borrowed(name), rtype, 0);
        self.run(step)
    }

    /// Hand the walk the outcome of the exchange its last
    /// [`Step::Send`] asked for.
    pub fn step(&mut self, exchange: Exchange<'_>) -> Step {
        let server = self.scratch.ask.server;
        let reply = match exchange {
            Exchange::Answer { reply, rtt_us } => {
                Reader::new(reply).ok().map(|reply| (reply, rtt_us))
            }
            Exchange::Timeout => None,
        };
        let step = match reply {
            Some((reply, rtt_us)) => {
                self.selector.observe_rtt(server, rtt_us);
                self.answered(&reply)
            }
            // silence, or bytes that are no DNS message: no answer from
            // this server either way
            None => {
                self.stats.timeouts += 1;
                self.selector.observe_timeout(server);
                self.send_next()
            }
        };
        self.run(step)
    }

    /// Hand the walk the root hints its [`Step::Prime`] asked for.
    pub fn prime(&mut self, hints: Vec<IpAddr>) -> Step {
        let (name, rtype, cname_depth) = self
            .scratch
            .pending
            .take()
            .expect("prime answers a Step::Prime");
        let step = self.walk(name, rtype, cname_depth, 0, hints.into());
        self.run(step)
    }

    /// Hand each finished resolution to the frame below it, until the
    /// walk needs the driver again or is over. Inside the machine a
    /// [`Step::Done`] ends the top frame's resolution only.
    fn run(&mut self, mut step: Step) -> Step {
        loop {
            step = match step {
                Step::Done(result) => match self.scratch.frames.last_mut() {
                    None => {
                        if self.scratch.queries == 0 {
                            self.stats.cache_hits += 1;
                        } else {
                            self.stats.cache_misses += 1;
                        }
                        return Step::Done(result);
                    }
                    Some(frame) => match &mut frame.wait {
                        Wait::Cname => {
                            let result = result.map(|addrs| {
                                self.scratch.found.clear();
                                self.scratch.found.extend_from_slice(&addrs);
                                DEFAULT_ANSWER_TTL
                            });
                            self.finish(result)
                        }
                        Wait::Hosts { found, cycle, .. } => {
                            match result {
                                Ok(addrs) => found.extend_from_slice(&addrs),
                                Err(e @ ResolveError::CyclicDependency { .. }) => {
                                    *cycle = Some(e);
                                }
                                Err(_) => {}
                            }
                            self.next_host()
                        }
                        _ => unreachable!("only a CNAME or an NS host resolves above a walk"),
                    },
                },
                _ => return step,
            };
        }
    }

    /// Resolve one name (the top-level one, a CNAME target or an NS
    /// host): the cache first, then the cycle guard, then a walk from
    /// the deepest cached cut covering the name.
    fn enter(&mut self, name: Cow<'_, Name>, rtype: RType, cname_depth: u32) -> Step {
        if cname_depth > self.config.max_cnames {
            return Step::Done(Err(ResolveError::CnameLoop));
        }
        let now = self.now_us;
        if let Some(cached) = self.cache.with(|c| c.consult(&name, rtype, now)) {
            return Step::Done(cached.map_err(|kind| match kind {
                Negative::NxDomain => ResolveError::NxDomain,
                Negative::NoData => ResolveError::NoData,
            }));
        }
        if self.scratch.frames.iter().any(|frame| frame.name == *name) {
            return Step::Done(Err(ResolveError::CyclicDependency {
                name: name.into_owned(),
            }));
        }
        match self.cache.with(|c| c.deepest_cut(&name, now)) {
            Some((cut, servers)) => self.walk(
                name.into_owned(),
                rtype,
                cname_depth,
                cut.label_count(),
                servers,
            ),
            None => {
                self.scratch.pending = Some((name.into_owned(), rtype, cname_depth));
                Step::Prime
            }
        }
    }

    /// Push the referral walk for `name`, starting at a cut
    /// `known_depth` labels deep.
    fn walk(
        &mut self,
        name: Name,
        rtype: RType,
        cname_depth: u32,
        known_depth: usize,
        servers: Addrs,
    ) -> Step {
        self.scratch.frames.push(Frame {
            name,
            rtype,
            cname_depth,
            servers,
            known_depth,
            hops: 0,
            wait: Wait::Hop { terminal: true },
        });
        self.next_hop()
    }

    /// Ask the top walk's next question: the name itself, or under
    /// Q-min one label below what is known to lie in the servers'
    /// bailiwick.
    fn next_hop(&mut self) -> Step {
        let qmin = self.config.qmin;
        let frame = self.scratch.frames.last_mut().expect("a walk is in hand");
        if frame.hops == MAX_HOPS {
            return self.finish(Err(ResolveError::BudgetExhausted {
                queries: self.scratch.queries,
            }));
        }
        frame.hops += 1;
        let (qname, qtype) = if qmin {
            let child = frame.name.ancestor(frame.known_depth + 1);
            if child == frame.name {
                (child, frame.rtype)
            } else {
                (child, RType::Ns)
            }
        } else {
            (frame.name.clone(), frame.rtype)
        };
        let terminal = qname == frame.name && qtype == frame.rtype;
        frame.wait = Wait::Hop { terminal };
        self.begin_ask(qname, qtype)
    }

    /// Put one question to the servers the top frame waits on, best
    /// first by the RTT selector.
    fn begin_ask(&mut self, qname: Name, qtype: RType) -> Step {
        let config = &self.config;
        let mut header = Header::request(0);
        header.checking_disabled = config.cd_bit;
        let edns = (config.edns_size > 0).then(|| Edns::with_size(config.edns_size, config.do_bit));
        let question = Question::new(qname, qtype);
        // room for the longest query, so that a scratch's buffer grows once
        self.scratch.query.clear();
        self.scratch.query.reserve(MAX_QUERY_LEN);
        write_query_into(&header, &question, edns.as_ref(), &mut self.scratch.query);
        self.scratch.ask.attempt = 0;
        self.scratch.ask.next = 0;
        self.rank();
        self.send_next()
    }

    /// Rank the servers of the ask in hand: the child's for a DNSKEY,
    /// the walk's own otherwise.
    fn rank(&mut self) {
        let frame = self.scratch.frames.last().expect("a walk is in hand");
        let servers = match &frame.wait {
            Wait::Validate {
                child,
                digest: Some(_),
                ..
            } => child,
            _ => &frame.servers,
        };
        self.selector.rank(servers, &mut self.scratch.ranked);
    }

    /// Send the ask in hand to its next server: each of the ranked
    /// servers in turn, `attempts_per_server` passes, re-ranked per pass
    /// so that a timeout in one pass moves that server to the back —
    /// the bounded retry/timeout state machine of one in-flight query.
    fn send_next(&mut self) -> Step {
        while self.scratch.ask.next == self.scratch.ranked.len() {
            self.scratch.ask.attempt += 1;
            if self.scratch.ask.attempt >= self.config.attempts_per_server.max(1) {
                return self.finish(Err(ResolveError::Unreachable));
            }
            self.scratch.ask.next = 0;
            self.rank();
        }
        if self.scratch.queries >= self.config.max_queries {
            return self.finish(Err(ResolveError::BudgetExhausted {
                queries: self.scratch.queries,
            }));
        }
        let server = self.scratch.ranked[self.scratch.ask.next].1;
        self.scratch.ask.next += 1;
        self.scratch.ask.server = server;
        self.scratch.queries += 1;
        if self.scratch.ask.attempt > 0 {
            self.stats.retries += 1;
        }
        let id = (self.sent_total as u16).wrapping_mul(31).wrapping_add(7);
        self.scratch.query[..2].copy_from_slice(&id.to_be_bytes());
        self.sent_total += 1;
        if self.log_enabled {
            // the question as sent: it opens the query, uncompressed
            let (qname, end) =
                Name::parse(&self.scratch.query, HEADER_LEN).expect("a written query");
            self.log.push(QueryLogEntry {
                server,
                qname,
                qtype: RType::from_u16(u16::from_be_bytes([
                    self.scratch.query[end],
                    self.scratch.query[end + 1],
                ])),
            });
        }
        Step::Send { server }
    }

    /// Act on the reply to the ask in hand: a hop, or the DS or DNSKEY
    /// material of the cut being validated.
    fn answered(&mut self, reply: &Reader<'_>) -> Step {
        let frame = self.scratch.frames.last_mut().expect("a walk is in hand");
        if let Wait::Validate { cut, digest, .. } = &mut frame.wait {
            return match digest.take() {
                None => {
                    let ds = first_answer_for(reply, cut, |r| r.ds_digest());
                    self.ds_cache.insert(cut.clone(), ds.clone());
                    self.after_ds(ds)
                }
                Some(digest) => match first_answer_for(reply, cut, |r| r.dnskey_key()) {
                    None => {
                        let zone = cut.clone();
                        self.finish(Err(ResolveError::Bogus { zone }))
                    }
                    Some(key) => {
                        self.dnskey_cache.insert(cut.clone(), key.clone());
                        self.validated(key == digest)
                    }
                },
            };
        }
        let Wait::Hop { terminal } = frame.wait else {
            unreachable!("a reply answers the hop or the validation in flight")
        };
        match read_hop(reply, &mut self.scratch.found, &frame.name, terminal) {
            Hop::NxDomain => self.finish(Err(ResolveError::NxDomain)),
            Hop::Answer(ttl) => self.finish(Ok(ttl)),
            Hop::Cname(target) => {
                frame.wait = Wait::Cname;
                let (rtype, depth) = (frame.rtype, frame.cname_depth + 1);
                self.enter(Cow::Owned(target), rtype, depth)
            }
            Hop::NoData => self.finish(Err(ResolveError::NoData)),
            Hop::Referral { cut, ttl, next } => match next {
                NextServers::Glue => self.delegate(cut, ttl),
                // no glue: resolve the NS hosts (cycle-guarded)
                NextServers::Hosts(hosts) => {
                    frame.wait = Wait::Hosts {
                        cut,
                        ttl,
                        hosts,
                        next: 0,
                        found: Vec::new(),
                        cycle: None,
                    };
                    self.next_host()
                }
            },
            Hop::Other if self.config.qmin && !terminal => {
                // NODATA at an empty non-terminal, or an authoritative
                // NS answer (same-server child zone): step one label
                // deeper
                frame.known_depth += 1;
                self.next_hop()
            }
            Hop::Other => self.finish(Err(ResolveError::NoData)),
        }
    }

    /// Resolve the next NS host of a glueless referral, or — when every
    /// host is done — follow the referral to the addresses found.
    fn next_host(&mut self) -> Step {
        let frame = self.scratch.frames.last_mut().expect("a walk is in hand");
        let Wait::Hosts { hosts, next, .. } = &mut frame.wait else {
            unreachable!("NS hosts resolve for a glueless referral")
        };
        if let Some(host) = hosts.get_mut(*next) {
            let host = std::mem::replace(host, Name::root());
            *next += 1;
            return self.enter(Cow::Owned(host), RType::A, 0);
        }
        let Wait::Hosts {
            cut,
            ttl,
            found,
            cycle,
            ..
        } = self.take_wait()
        else {
            unreachable!()
        };
        if found.is_empty() {
            return self.finish(Err(cycle.unwrap_or(ResolveError::Unreachable)));
        }
        self.scratch.found.clear();
        self.scratch.found.extend_from_slice(&found);
        self.delegate(cut, ttl)
    }

    /// Follow a referral to `cut`, served by the set in hand — after
    /// DNSSEC-style validation when configured: DS at the parent,
    /// DNSKEY once per child zone, compared. Mirrors the §4.2.2 traffic
    /// pattern: a validator emits one DS query per (uncached)
    /// delegation but only one DNSKEY query per zone.
    fn delegate(&mut self, cut: Name, ttl: u32) -> Step {
        if !self.config.validate {
            return self.adopt(cut, ttl);
        }
        let servers = self.cache.with(|c| c.intern(&self.scratch.found));
        let cached = self.ds_cache.get(&cut).cloned();
        let qname = cached.is_none().then(|| cut.clone());
        self.scratch
            .frames
            .last_mut()
            .expect("a walk is in hand")
            .wait = Wait::Validate {
            cut,
            ttl,
            child: servers,
            digest: None,
        };
        match (cached, qname) {
            (Some(ds), _) => self.after_ds(ds),
            (None, qname) => self.begin_ask(qname.expect("asked when not cached"), RType::Ds),
        }
    }

    /// The parent's DS for the cut in hand is known: an insecure
    /// delegation is followed as is, a secure one needs the child's
    /// DNSKEY.
    fn after_ds(&mut self, ds: Option<Vec<u8>>) -> Step {
        let Some(ds) = ds else {
            // insecure delegation: nothing to validate
            return self.validated(true);
        };
        let frame = self.scratch.frames.last_mut().expect("a walk is in hand");
        let Wait::Validate { cut, digest, .. } = &mut frame.wait else {
            unreachable!("DS is asked for a cut in hand")
        };
        if let Some(key) = self.dnskey_cache.get(cut).cloned() {
            return self.validated(key == ds);
        }
        let qname = cut.clone();
        *digest = Some(ds);
        self.begin_ask(qname, RType::Dnskey)
    }

    /// End the validation in hand: the referral is followed when it
    /// held (an insecure cut, or the child's key matching the parent's
    /// digest), the walk is bogus when not.
    fn validated(&mut self, valid: bool) -> Step {
        let Wait::Validate {
            cut, ttl, child, ..
        } = self.take_wait()
        else {
            unreachable!("a validation ends for a cut in hand")
        };
        if valid {
            self.scratch.found.clear();
            self.scratch.found.extend_from_slice(&child);
            self.adopt(cut, ttl)
        } else {
            self.finish(Err(ResolveError::Bogus { zone: cut }))
        }
    }

    /// Take what the top frame waited for out of it; its next hop (or
    /// its end) replaces it.
    fn take_wait(&mut self) -> Wait {
        let frame = self.scratch.frames.last_mut().expect("a walk is in hand");
        std::mem::replace(&mut frame.wait, Wait::Cname)
    }

    /// Cache the cut, served by the set in hand, and walk on from it.
    fn adopt(&mut self, cut: Name, ttl: u32) -> Step {
        let (now, found) = (self.now_us, &self.scratch.found);
        let servers = self.cache.with(|c| c.put_delegation(&cut, found, now, ttl));
        let frame = self.scratch.frames.last_mut().expect("a walk is in hand");
        frame.known_depth = cut.label_count();
        frame.servers = servers;
        self.next_hop()
    }

    /// End the top walk: pop its frame (its cycle guard), cache what it
    /// found (answers — the set in hand, to cache for `ttl` seconds —
    /// and denials; not failures), and return the addresses to the
    /// frame below.
    fn finish(&mut self, result: Result<u32, ResolveError>) -> Step {
        let frame = self.scratch.frames.pop().expect("a walk is in hand");
        let (name, rtype, now, found) =
            (&frame.name, frame.rtype, self.now_us, &self.scratch.found);
        let result = self.cache.with(|c| match result {
            Ok(ttl) => Ok(c.put_answer(name, rtype, found, now, ttl)),
            Err(e) => {
                let denial = match e {
                    ResolveError::NxDomain => Some(Negative::NxDomain),
                    ResolveError::NoData => Some(Negative::NoData),
                    _ => None,
                };
                if let Some(kind) = denial {
                    c.put_negative(name, rtype, kind, now, DEFAULT_NEGATIVE_TTL);
                }
                Err(e)
            }
        });
        Step::Done(result)
    }
}

/// What one reply tells the walk, read out of its bytes by [`read_hop`].
enum Hop {
    NxDomain,
    /// Addresses for the name asked — or for its CNAME target, when
    /// they rode along — read into the set in hand, and the TTL to
    /// cache them under.
    Answer(u32),
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
    /// In the glue, read into the set in hand.
    Glue,
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
        if answer_addrs(reply, name, found) {
            return Hop::Answer(answer_ttl(reply, name));
        }
        let cname = reply
            .records(Section::Answer)
            .find(|r| r.rtype == RType::Cname && r.owner_is(name))
            .and_then(|r| r.cname());
        if let Some(target) = cname {
            // chased answers may ride along
            return match answer_addrs(reply, &target, found) {
                true => Hop::Answer(answer_ttl(reply, &target)),
                false => Hop::Cname(target),
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

/// Read the A/AAAA addresses the answer section holds for `owner` into
/// `found`, in order; false when there are none.
fn answer_addrs(reply: &Reader<'_>, owner: &Name, found: &mut Vec<IpAddr>) -> bool {
    found.clear();
    found.extend(
        reply
            .records(Section::Answer)
            .filter_map(|r| r.addr().filter(|_| r.owner_is(owner))),
    );
    !found.is_empty()
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
/// the glue's addresses (read into `found`), or without glue the NS
/// hosts.
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
        NextServers::Glue
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

/// The walk as a step machine: walks driven together, one step at a
/// time, are the walks `resolve` runs alone.
#[cfg(test)]
mod machine_tests {
    use super::*;
    use crate::hierarchy::{
        bogus_world, cyclic_world, dead_world, sample_world, signed_world, Network,
    };

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// One resolver's part: its world, its configuration, and the walks
    /// it makes in order (later ones meet what the earlier ones cached).
    struct Case {
        world: fn() -> Network,
        config: ResolverConfig,
        walks: Vec<(Name, RType)>,
    }

    fn cases() -> Vec<Case> {
        let plain = ResolverConfig::default();
        let qmin = ResolverConfig {
            qmin: true,
            ..plain
        };
        let validating = ResolverConfig {
            validate: true,
            ..qmin
        };
        let case = |world, config, walks: &[(&str, RType)]| Case {
            world,
            config,
            walks: walks.iter().map(|(name, t)| (n(name), *t)).collect(),
        };
        vec![
            case(
                sample_world,
                plain,
                &[
                    ("www.example.nl.", RType::A),
                    ("www.example.nl.", RType::Aaaa),
                ],
            ),
            case(
                sample_world,
                qmin,
                &[
                    ("a.b.www.example.nl.", RType::A),
                    ("www.example.nl.", RType::A),
                ],
            ),
            case(sample_world, plain, &[("cdn.example.nl.", RType::A)]),
            case(sample_world, qmin, &[("www.hosted.nl.", RType::A)]),
            case(
                sample_world,
                plain,
                &[
                    ("nosuch.example.nl.", RType::A),
                    ("www.example.nl.", RType::Mx),
                ],
            ),
            case(cyclic_world, plain, &[("www.alpha.nz.", RType::A)]),
            case(
                cyclic_world,
                ResolverConfig {
                    max_queries: 5,
                    ..plain
                },
                &[("www.alpha.nz.", RType::A)],
            ),
            case(
                signed_world,
                validating,
                &[
                    ("www.d0.zz.", RType::A),
                    ("www.d1.zz.", RType::A),
                    ("www.d2.zz.", RType::A),
                ],
            ),
            case(
                sample_world,
                ResolverConfig {
                    max_queries: 2,
                    ..qmin
                },
                &[("www.example.nl.", RType::A)],
            ),
            case(bogus_world, validating, &[("www.d0.zz.", RType::A)]),
            case(dead_world, plain, &[("www.dead.", RType::A)]),
        ]
    }

    /// Resolvers that walk one at a time in one lent scratch walk as
    /// each would in its own, and a walk leaves no frame behind in it.
    #[test]
    fn a_lent_scratch_walks_as_each_resolvers_own() {
        let mut scratch = WalkScratch::default();
        for (k, case) in cases().iter().enumerate() {
            // one world for both: its root hints come in its own order
            let mut net = (case.world)();
            let mut own = IterativeResolver::new(case.config);
            let mut lent = IterativeResolver::new(case.config);
            for (name, rtype) in &case.walks {
                let want = own.resolve(&mut net, name, *rtype);
                let got = lent.resolve_in(&mut scratch, &mut net, name, *rtype);
                assert_eq!(got, want, "case {k}: {name} {rtype:?}");
                assert!(scratch.frames.is_empty() && scratch.pending.is_none());
            }
            assert_eq!(lent.log, own.log, "case {k}: the queries sent");
            assert_eq!(lent.stats, own.stats, "case {k}: the counters");
            assert_eq!(
                lent.scratch.query.capacity(),
                0,
                "case {k}: its own buffers stay empty"
            );
        }
        assert!(scratch.query.capacity() >= MAX_QUERY_LEN);
    }

    type Outcome = (
        Vec<QueryLogEntry>,
        ResolverStats,
        Vec<Result<Addrs, ResolveError>>,
    );

    #[test]
    fn interleaved_walks_equal_sequential_walks() {
        let cases = cases();
        // a world's root hints come in its own order: both runs use the
        // same instance
        let mut worlds: Vec<Network> = cases.iter().map(|c| (c.world)()).collect();
        // each resolver alone, through the blocking driver
        let alone: Vec<Outcome> = cases
            .iter()
            .zip(&mut worlds)
            .map(|(case, net)| {
                let mut r = IterativeResolver::new(case.config);
                let results = case
                    .walks
                    .iter()
                    .map(|(name, rtype)| r.resolve(net, name, *rtype))
                    .collect();
                (r.log, r.stats, results)
            })
            .collect();

        // all of them at once, one step each in turn
        let mut resolvers: Vec<IterativeResolver> = cases
            .iter()
            .map(|c| IterativeResolver::new(c.config))
            .collect();
        let mut results: Vec<Vec<Result<Addrs, ResolveError>>> =
            cases.iter().map(|_| Vec::new()).collect();
        let mut steps: Vec<Option<Step>> = cases
            .iter()
            .zip(&mut resolvers)
            .map(|(c, r)| Some(r.start(&c.walks[0].0, c.walks[0].1)))
            .collect();
        let mut sends = vec![0u32; cases.len()];
        let mut interleaved = false;
        while steps.iter().any(Option::is_some) {
            let live = steps.iter().filter(|s| s.is_some()).count();
            interleaved |= live > 1;
            for k in 0..cases.len() {
                let r = &mut resolvers[k];
                let next = match steps[k].take() {
                    None => continue,
                    Some(Step::Send { server }) => {
                        sends[k] += 1;
                        let exchange = worlds[k].exchange(server, r.query());
                        r.step(exchange)
                    }
                    Some(Step::Prime) => r.prime(worlds[k].root_servers()),
                    Some(Step::Done(result)) => {
                        assert!(
                            sends[k] <= cases[k].config.max_queries,
                            "walk {k} sent {} queries",
                            sends[k]
                        );
                        sends[k] = 0;
                        results[k].push(result);
                        match cases[k].walks.get(results[k].len()) {
                            Some((name, rtype)) => r.start(name, *rtype),
                            None => continue,
                        }
                    }
                };
                steps[k] = Some(next);
            }
        }
        assert!(interleaved);
        for (k, (r, results)) in resolvers.into_iter().zip(results).enumerate() {
            let (log, stats, alone_results) = &alone[k];
            assert_eq!(&r.log, log, "case {k}: the queries sent");
            assert_eq!(&r.stats, stats, "case {k}: the counters");
            assert_eq!(&results, alone_results, "case {k}: the answers");
        }
        // every kind of ending came up
        let endings: Vec<String> = alone
            .iter()
            .flat_map(|(_, _, results)| results)
            .map(|r| match r {
                Ok(_) => "answer".to_string(),
                Err(e) => format!("{e:?}")
                    .split([' ', '{', '('])
                    .next()
                    .unwrap()
                    .to_string(),
            })
            .collect();
        for want in [
            "answer",
            "NxDomain",
            "NoData",
            "CyclicDependency",
            "BudgetExhausted",
            "Bogus",
            "Unreachable",
        ] {
            assert!(
                endings.iter().any(|e| e == want),
                "no {want} in {endings:?}"
            );
        }
    }
}
