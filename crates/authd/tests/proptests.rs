//! Property tests for the serving core.
//!
//! - [`Responder::handle_into`] reads each query in place; an oracle
//!   that parses it whole (`Message::parse`), answers it with
//!   `Authoritative::respond_located` and shapes the answer the same
//!   way must agree with it byte for byte, on arbitrary bytes and on
//!   sampled fleet queries with mutated headers, question counts and
//!   EDNS, over both transports and through a tight rate limiter.
//! - [`authd::Engine`] survives hostile datagrams and frames (torn
//!   `LPX1` preambles included) and accounts for every query it is fed.

use authd::proxy::{Preamble, MAGIC};
use authd::respond::{OutcomeRef, RespondScratch};
use authd::{Engine, Responder, WorkerState};
use dns_wire::edns::Edns;
use dns_wire::message::Message;
use netbase::flow::Transport;
use netbase::time::SimTime;
use proptest::prelude::*;
use proptest::strategy::Just;
use proptest::TestRng;
use simnet::auth::Authoritative;
use simnet::drive::Driver;
use simnet::profile::Vantage;
use simnet::rrl::{RateLimiter, RrlConfig};
use simnet::scenario::{dataset, Scale};
use simnet::vantage::{shape_onto, WireScratch};
use std::net::{IpAddr, SocketAddr};
use std::sync::OnceLock;

/// The `.nl` 2020 zone, answered both ways, and 256 queries its fleets
/// send (tiny scale, seed 42).
struct Fixture {
    responder: Responder,
    oracle: Authoritative,
    sampled: Vec<Vec<u8>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = dataset(Vantage::Nl, 2020);
        let t = spec.start;
        let zone = spec.zone.build();
        let mut driver = Driver::new(spec, Scale::tiny(), 42);
        Fixture {
            responder: Responder::new(zone.clone()),
            oracle: Authoritative::new(zone),
            sampled: (0..256).map(|_| driver.sample(t).wire.to_vec()).collect(),
        }
    })
}

/// A sampled query, changed: its header's flag octets replaced, its
/// question section emptied or doubled, its OPT dropped or re-sized,
/// one octet flipped.
#[derive(Debug, Clone)]
struct Mutation {
    pick: usize,
    flags: Option<u16>,
    questions: usize,
    edns: Option<Option<(u16, bool)>>,
    flip: Option<(usize, u8)>,
}

impl Mutation {
    fn apply(&self, sampled: &[Vec<u8>]) -> Vec<u8> {
        let mut msg = Message::parse(&sampled[self.pick % sampled.len()]).expect("sampled");
        let question = msg.questions[0].clone();
        msg.questions = vec![question; self.questions];
        if let Some(edns) = self.edns {
            msg.edns = edns.map(|(size, dnssec_ok)| Edns::with_size(size, dnssec_ok));
        }
        let mut wire = msg.encode().expect("encodes");
        if let Some(flags) = self.flags {
            wire[2..4].copy_from_slice(&flags.to_be_bytes());
        }
        if let Some((at, mask)) = self.flip {
            let at = at % wire.len();
            wire[at] ^= mask;
        }
        wire
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let size = prop_oneof![
        Just(0u16),
        Just(511),
        Just(512),
        Just(1232),
        Just(4096),
        any::<u16>()
    ];
    (
        any::<usize>(),
        prop_oneof![Just(None), Just(None), any::<u16>().prop_map(Some)],
        prop_oneof![Just(1usize), Just(1), Just(0), Just(2)],
        prop_oneof![
            Just(None),
            Just(Some(None)),
            (size, any::<bool>()).prop_map(|e| Some(Some(e))),
        ],
        prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            (any::<usize>(), 1u8..=255).prop_map(Some)
        ],
    )
        .prop_map(|(pick, flags, questions, edns, flip)| Mutation {
            pick,
            flags,
            questions,
            edns,
            flip,
        })
}

/// What one step feeds the responder.
#[derive(Debug, Clone)]
enum Input {
    Bytes(Vec<u8>),
    Sampled(Mutation),
    /// The previous step's input again, so buckets fill and limit.
    Repeat,
}

/// One step: the input, over TCP or UDP, from one of three sources,
/// this many milliseconds after the step before.
fn step() -> impl Strategy<Value = (Input, bool, usize, u64)> {
    let input = prop_oneof![
        prop::collection::vec(any::<u8>(), 0..300).prop_map(Input::Bytes),
        mutation().prop_map(Input::Sampled),
        mutation().prop_map(Input::Sampled),
        Just(Input::Repeat),
        Just(Input::Repeat),
    ];
    (input, any::<bool>(), 0usize..3, 0u64..400)
}

/// An outcome with its bytes owned, comparable across both sides.
#[derive(Debug, PartialEq, Eq)]
enum Owned {
    Reply(Vec<u8>, bool, bool),
    RrlDrop,
    Malformed,
}

impl From<OutcomeRef<'_>> for Owned {
    fn from(out: OutcomeRef<'_>) -> Owned {
        match out {
            OutcomeRef::Reply {
                bytes,
                truncated,
                slipped,
            } => Owned::Reply(bytes.to_vec(), truncated, slipped),
            OutcomeRef::RrlDrop => Owned::RrlDrop,
            OutcomeRef::Malformed => Owned::Malformed,
        }
    }
}

/// The reference responder: parse the message whole, answer its first
/// question (any other count gets FORMERR), send TCP answers whole and
/// cut UDP ones.
fn oracle(
    auth: &Authoritative,
    payload: &[u8],
    transport: Transport,
    src: IpAddr,
    now: SimTime,
    rrl: &mut RateLimiter,
) -> Owned {
    let Ok(query) = Message::parse(payload) else {
        return Owned::Malformed;
    };
    if query.header.response {
        return Owned::Malformed;
    }
    let mut wire = WireScratch::default();
    match query.question() {
        Some(q) => auth.respond_located((&query).into(), auth.zone().locate(&q.qname), &mut wire),
        None => auth.respond((&query).into(), false, &mut wire),
    };
    if transport == Transport::Tcp {
        return Owned::Reply(wire.response().bytes.to_vec(), false, false);
    }
    let edns_size = query.edns.as_ref().map_or(0, |e| e.udp_payload_size);
    let mut bytes = Vec::new();
    match shape_onto(wire.response(), edns_size, src, now, Some(rrl), &mut bytes) {
        Some((truncated, slipped)) => Owned::Reply(bytes, truncated, slipped),
        None => Owned::RrlDrop,
    }
}

/// `handle_into` agrees with the oracle on every step of 256 generated
/// sequences: Malformed exactly when `Message::parse` fails or QR is
/// set, and otherwise the same bytes, TC flag and slip, each side
/// gating its own limiter. Across the run, every outcome shows up.
#[test]
fn handle_into_matches_the_parse_oracle() {
    let f = fixture();
    let sources: [IpAddr; 3] = [
        "192.0.2.1".parse().unwrap(),
        "198.51.100.9".parse().unwrap(),
        "2001:db8::7".parse().unwrap(),
    ];
    // one scratch for the whole run: a warm scratch must not carry
    // anything from one query into the next
    let mut scratch = RespondScratch::new();
    let mut seen = [0u64; 5]; // replies, truncations, slips, drops, malformed
    proptest::run_cases(
        ProptestConfig::with_cases(256),
        "handle_into_matches_the_parse_oracle",
        |rng: &mut TestRng| {
            let config = RrlConfig {
                responses_per_second: 1,
                burst: (1u32..=3).generate(rng),
                slip: (0u32..=3).generate(rng),
                ..RrlConfig::default()
            };
            let (mut live, mut model) = (RateLimiter::new(config), RateLimiter::new(config));
            let steps = prop::collection::vec(step(), 1..24).generate(rng);
            let (mut now, mut last) = (SimTime(0), Vec::new());
            for (i, (input, tcp, src, gap_ms)) in steps.into_iter().enumerate() {
                let payload = match input {
                    Input::Bytes(bytes) => bytes,
                    Input::Sampled(m) => m.apply(&f.sampled),
                    Input::Repeat => last.clone(),
                };
                let transport = if tcp { Transport::Tcp } else { Transport::Udp };
                let src = sources[src];
                now = SimTime(now.as_micros() + gap_ms * 1000);
                let got: Owned = f
                    .responder
                    .handle_into(&payload, transport, src, now, Some(&mut live), &mut scratch)
                    .into();
                let want = oracle(&f.oracle, &payload, transport, src, now, &mut model);
                prop_assert_eq!(
                    &got,
                    &want,
                    "step {} ({:?}): {:02x?}",
                    i,
                    transport,
                    payload
                );
                match got {
                    Owned::Reply(_, truncated, slipped) => {
                        seen[0] += 1;
                        seen[1] += (truncated && !slipped) as u64;
                        seen[2] += slipped as u64;
                    }
                    Owned::RrlDrop => seen[3] += 1,
                    Owned::Malformed => seen[4] += 1,
                }
                last = payload;
            }
            Ok(())
        },
    );
    assert!(
        seen.iter().all(|&n| n > 0),
        "replies, truncations, slips, drops, malformed: {seen:?}"
    );
}

/// A datagram or frame an attacker or a broken client might send.
fn hostile(sampled: &[Vec<u8>], rng: &mut TestRng) -> Vec<u8> {
    let preamble = Preamble {
        src: "203.0.113.5:4242".parse().unwrap(),
        dst: "198.51.100.53:53".parse().unwrap(),
        rtt_us: 300,
    }
    .encode();
    let junk = prop::collection::vec(any::<u8>(), 0..120).generate(rng);
    let query = mutation().generate(rng).apply(sampled);
    let mut out = Vec::new();
    match (0u8..6).generate(rng) {
        0 => out = junk,
        // the magic, then junk: a preamble torn anywhere
        1 => {
            out.extend_from_slice(&MAGIC);
            out.extend_from_slice(&junk);
        }
        2 => {
            let cut = (0..preamble.len()).generate(rng);
            out.extend_from_slice(&preamble[..cut]);
        }
        // a whole preamble before junk or a (mutated) query
        3 => {
            out.extend_from_slice(&preamble);
            out.extend_from_slice(&junk);
        }
        4 => {
            out.extend_from_slice(&preamble);
            out.extend_from_slice(&query);
        }
        // a query cut short
        _ => {
            let cut = (0..query.len()).generate(rng);
            out.extend_from_slice(&query[..cut]);
        }
    }
    out
}

/// Nothing fed to the serving core panics, and every query is counted
/// once as answered, malformed or dropped by RRL (which is tight here).
#[test]
fn engine_survives_hostile_input_and_accounts_for_every_query() {
    let f = fixture();
    let spec = dataset(Vantage::Nl, 2020);
    let rrl = RrlConfig {
        responses_per_second: 1,
        burst: 1,
        slip: 2,
        ..RrlConfig::default()
    };
    let engine = Engine::new(spec.zone.build(), Some(rrl), 4, spec.start, None);
    let peer: SocketAddr = "127.0.0.1:55557".parse().unwrap();
    let local: SocketAddr = "127.0.0.1:53".parse().unwrap();
    let mut state = WorkerState::new();
    proptest::run_cases(
        ProptestConfig::with_cases(256),
        "engine_survives_hostile_input_and_accounts_for_every_query",
        |rng: &mut TestRng| {
            let input = hostile(&f.sampled, rng);
            if any::<bool>().generate(rng) {
                let _ = engine.process_udp(&input, peer, local, &mut state);
            } else {
                let preamble = any::<bool>()
                    .generate(rng)
                    .then(|| Preamble::parse(&input).map(|(p, _)| p))
                    .flatten();
                let _ = engine.process_tcp(&input, peer, local, preamble, &mut state);
            }
            Ok(())
        },
    );
    let s = engine.stats();
    let fed = s.udp_queries.get() + s.tcp_queries.get();
    assert_eq!(fed, 256);
    assert_eq!(
        fed,
        s.responses.get() + s.malformed.get() + s.rrl_dropped.get()
    );
    assert!(s.responses.get() > 0 && s.malformed.get() > 0 && s.rrl_dropped.get() > 0);
}
