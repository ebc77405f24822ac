//! Integration tests for the perf-observability layer: the
//! `dnscentral bench` subcommand (JSON schema, the exact scenario
//! registry, profiling) and the allocation guarantees of the serving,
//! wire-encode, record, fleet, sink and warehouse paths.

use std::path::PathBuf;
use std::process::Command;

/// The allocation assertions need the counting allocator installed in
/// *this* test binary; the subcommand tests exercise the one installed
/// in the CLI binary.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnscentral"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dnscentral-bench-{}-{name}", std::process::id()));
    p
}

/// The registry, exactly, each id once: both sides of each design
/// choice DESIGN.md §6 marks ✦, and the live server's socket-plane
/// saturation pair. A new row needs a ✦ bullet, or a reader for a
/// number the repo benchmark does not measure.
#[test]
fn bench_list_covers_the_required_scenarios() {
    let out = bin().args(["bench", "--list"]).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let mut listed: Vec<&str> = text.lines().collect();
    listed.sort_unstable();
    assert_eq!(
        listed,
        [
            "ablation/cache_funnel_3600s",
            "ablation/detector_cusum",
            "ablation/detector_threshold",
            "ablation/lpm_linear_scan",
            "ablation/lpm_trie",
            "ablation/name_compressed",
            "ablation/name_uncompressed",
            "ablation/scan_columnar",
            "ablation/scan_row_structs",
            "authd/saturation",
            "authd/saturation_single",
        ]
    );
    // --filter narrows the list
    let out = bin()
        .args(["bench", "--list", "--filter=authd/"])
        .output()
        .expect("runs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        text.lines().collect::<Vec<_>>(),
        ["authd/saturation", "authd/saturation_single"]
    );
}

#[test]
fn bench_quick_emits_schema_valid_json() {
    let json = tmp("schema.json");
    let out = bin()
        .args([
            "bench",
            "--quick",
            "--filter=ablation/",
            &format!("--json={}", json.display()),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // stdout carries the human table
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("ns/op"), "{table}");
    assert!(table.contains("ablation/lpm_trie"), "{table}");

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).expect("valid JSON");
    assert_eq!(doc["schema_version"], 1);
    assert_eq!(doc["quick"], true);
    assert!(!doc["label"].as_str().unwrap().is_empty());
    let scenarios = doc["scenarios"].as_array().unwrap();
    assert_eq!(scenarios.len(), 9, "nine ablation scenarios");
    for s in scenarios {
        assert!(s["name"].as_str().unwrap().starts_with("ablation/"));
        assert_eq!(s["group"], "ablation");
        assert!(s["iters"].as_u64().unwrap() > 0);
        for field in ["ns_per_op", "p50_ns", "p99_ns", "min_ns", "max_ns"] {
            assert!(s[field].as_f64().unwrap() > 0.0, "{field}: {s}");
        }
        assert!(s["min_ns"].as_f64().unwrap() <= s["max_ns"].as_f64().unwrap());
        // every ablation scenario processes records, and the CLI's
        // counting allocator makes allocs/op concrete numbers
        assert!(s["records_per_sec"].as_f64().unwrap() > 0.0, "{s}");
        assert!(s["allocs_per_op"].as_f64().is_some(), "{s}");
        assert!(s["alloc_bytes_per_op"].as_f64().is_some(), "{s}");
    }
    let _ = std::fs::remove_file(&json);
}

#[test]
fn bench_rejects_unknown_filters() {
    let out = bin()
        .args(["bench", "--quick", "--filter=nonexistent/"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("no bench scenarios match"));
}

#[test]
fn bench_profile_writes_parseable_folded_stacks_and_hot_frames() {
    let folded = tmp("profile.folded");
    let json = tmp("profile.json");
    let out = bin()
        .args([
            "bench",
            "--quick",
            "--filter=ablation/detector_cusum",
            &format!("--profile={}", folded.display()),
            &format!("--json={}", json.display()),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bench: profile"),
        "profile summary line on stderr"
    );

    let text = std::fs::read_to_string(&folded).expect("folded file written");
    for line in text.lines() {
        // flamegraph.pl input: "frame;frame;frame count"
        let (frames, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!frames.is_empty(), "{line}");
        assert!(count.parse::<u64>().unwrap() > 0, "{line}");
    }
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).expect("valid JSON");
    let row = &doc["scenarios"][0];
    assert_eq!(row["name"], "ablation/detector_cusum");
    #[cfg(target_os = "linux")]
    {
        assert!(!text.is_empty(), "expected samples on Linux");
        let hot = row["hot_frames"].as_array().expect("hot_frames attached");
        assert!(!hot.is_empty());
        for f in hot {
            assert!(!f["name"].as_str().unwrap().is_empty());
            assert!(f["total_samples"].as_u64().unwrap() >= f["self_samples"].as_u64().unwrap());
        }
    }
    for f in [&folded, &json] {
        let _ = std::fs::remove_file(f);
    }
}

/// `.nl` 2020 queries sampled at the tiny scale (seed 42), in order:
/// a test warms a worker on the first `warm` and measures on the rest,
/// which its responder has never seen.
fn sampled_queries(warm: usize, fresh: usize) -> Vec<simnet::drive::PlannedQuery> {
    use simnet::drive::Driver;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    let spec = dataset(Vantage::Nl, 2020);
    let t = spec.start;
    let mut driver = Driver::new(spec, Scale::tiny(), 42);
    (0..warm + fresh).map(|_| driver.sample(t)).collect()
}

/// Run `answer` once per query in `fresh`, each measured on its own;
/// every call must reply. A query may allocate only when its qname is
/// too long for a `Name` to hold inline, and then exactly once (the
/// parsed qname); the queries off that budget are listed as (index,
/// long qname, allocations).
fn assert_fresh_queries_allocate_only_long_names<Q>(
    what: &str,
    fresh: &[(Q, bool)],
    mut answer: impl FnMut(&Q) -> bool,
) {
    let mut wrong = Vec::new();
    for (i, (q, long)) in fresh.iter().enumerate() {
        let (replied, stats) = obs::alloc::measure(|| answer(q));
        assert!(replied, "{what}: fresh query {i} got no reply");
        if stats.allocs != *long as u64 {
            wrong.push((i, *long, stats.allocs));
        }
    }
    assert!(
        wrong.is_empty(),
        "{what}: (query, long qname, allocations) off budget: {wrong:?}"
    );
}

/// A profiler that has run once ("armed": handler installed, ring
/// allocated, timer disarmed) must not make the respond path allocate.
#[test]
fn armed_but_idle_profiler_keeps_respond_path_allocation_free() {
    use authd::respond::{OutcomeRef, RespondScratch, Responder};
    use netbase::flow::Transport;
    use netbase::time::SimTime;
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;

    assert!(obs::alloc::installed(), "counting allocator active");
    // arm then stop: SIGPROF handler stays installed and the sample
    // ring stays allocated, exactly the state a server is in between
    // /profile?seconds=N requests
    if obs::prof::supported() {
        obs::prof::start(obs::prof::DEFAULT_HZ).expect("profiler starts");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let profile = obs::prof::stop().expect("profiler stops");
        assert_eq!(profile.hz, obs::prof::DEFAULT_HZ);
    }

    let responder = Responder::for_spec(&dataset(Vantage::Nl, 2020));
    let queries = sampled_queries(512, 512);
    let (warm, fresh) = queries.split_at(512);
    let now = SimTime(0);
    let mut scratch = RespondScratch::new();
    for q in warm {
        let _ = responder.handle_into(&q.wire, Transport::Udp, q.src, now, None, &mut scratch);
    }
    let fresh: Vec<_> = fresh
        .iter()
        .map(|q| (q, q.qname.heap_bytes() > 0))
        .collect();
    assert_fresh_queries_allocate_only_long_names("respond (armed profiler)", &fresh, |q| {
        matches!(
            responder.handle_into(&q.wire, Transport::Udp, q.src, now, None, &mut scratch),
            OutcomeRef::Reply { .. }
        )
    });
}

/// Every query is answered in full, in place: warmed on 512 sampled
/// queries, a worker's respond step allocates nothing for 1,024 it has
/// never seen, but one allocation per qname too long for `Name`'s
/// inline form.
#[test]
fn respond_hot_path_is_allocation_free_in_steady_state() {
    use authd::respond::{OutcomeRef, RespondScratch, Responder};
    use netbase::flow::Transport;
    use netbase::time::SimTime;
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;

    assert!(obs::alloc::installed(), "counting allocator active");
    // flight recorder + query sampler on: the respond path must stay
    // allocation-free with full observability enabled (flight hops live
    // in the socket servers, not in `handle_into`)
    obs::flight::start(std::time::Duration::from_millis(100));
    obs::flight::enable_sampling(7, 42);
    let responder = Responder::for_spec(&dataset(Vantage::Nl, 2020));
    let queries = sampled_queries(512, 1024);
    let (warm, fresh) = queries.split_at(512);
    let now = SimTime(0);
    let mut scratch = RespondScratch::new();
    for q in warm {
        for transport in [Transport::Udp, Transport::Tcp] {
            let _ = responder.handle_into(&q.wire, transport, q.src, now, None, &mut scratch);
        }
    }
    for transport in [Transport::Udp, Transport::Tcp] {
        let fresh: Vec<_> = fresh
            .iter()
            .map(|q| (q, q.qname.heap_bytes() > 0))
            .collect();
        assert_fresh_queries_allocate_only_long_names("respond", &fresh, |q| {
            matches!(
                responder.handle_into(&q.wire, transport, q.src, now, None, &mut scratch),
                OutcomeRef::Reply { .. }
            )
        });
    }
}

/// The answer under it: `Authoritative::respond` writes straight into a
/// warm `WireScratch` and allocates nothing, whatever the shape — a
/// signed referral, a signed NXDOMAIN, a DNSKEY answer too big for
/// 1,232 octets — and cutting that one for UDP into a warm buffer
/// allocates nothing either.
#[test]
fn authoritative_respond_is_allocation_free_into_a_warm_scratch() {
    use dns_wire::builder::MessageBuilder;
    use dns_wire::message::Message;
    use dns_wire::types::{RType, Rcode};
    use netbase::time::SimTime;
    use simnet::auth::{Authoritative, Query};
    use simnet::profile::Vantage;
    use simnet::rrl::RateLimiter;
    use simnet::scenario::dataset;
    use simnet::vantage::{shape_onto, WireScratch};

    assert!(obs::alloc::installed(), "counting allocator active");
    let auth = Authoritative::new(dataset(Vantage::Nl, 2020).zone.build());
    let zone = auth.zone();
    let signed = (0..1000)
        .find(|&i| zone.is_signed(i))
        .expect("a signed delegation");
    let query = |qname, qtype| {
        let msg = MessageBuilder::query(7, qname, qtype)
            .with_edns(1232, true)
            .build();
        Query::read(&msg.encode().unwrap()).expect("a query")
    };
    let queries = [
        (
            query(zone.registered_domain(signed), RType::A),
            Rcode::NoError,
        ),
        (
            query("no-such-name-xyzzy.nl".parse().unwrap(), RType::A),
            Rcode::NxDomain,
        ),
        (query(zone.apex().clone(), RType::Dnskey), Rcode::NoError),
    ];
    let src = "192.0.2.1".parse().unwrap();
    let mut wire = WireScratch::default();
    let respond_all = |wire: &mut WireScratch| {
        for (q, rcode) in &queries {
            assert_eq!(auth.respond(q, wire).rcode, *rcode);
            assert!(
                wire.response().bytes.len() > 512,
                "every shape here is a big one"
            );
        }
    };
    respond_all(&mut wire); // sizes the scratch

    let (_, stats) = obs::alloc::measure(|| {
        for _ in 0..50 {
            respond_all(&mut wire);
        }
    });
    assert_eq!(stats.allocs, 0, "respond allocated into a warm scratch");
    assert_eq!(stats.bytes, 0);

    // the DNSKEY answer is the message last written; the first cut
    // sizes the reply buffer
    let mut reply = Vec::new();
    let cut = |reply: &mut Vec<u8>| {
        reply.clear();
        shape_onto::<RateLimiter>(wire.response(), 1232, src, SimTime(0), None, reply)
    };
    cut(&mut reply);
    let (shaped, stats) = obs::alloc::measure(|| cut(&mut reply));
    assert_eq!(shaped, Some((true, false)), "cut, not slipped");
    assert!(reply.len() <= 1232);
    assert_eq!(stats.allocs, 0, "the cut allocated into a warm buffer");
    let cut = Message::parse(&reply).expect("the cut parses");
    assert!(cut.header.truncated && !cut.answers.is_empty() && cut.edns.is_some());
}

/// A serving core with a tap (and RRL, when `rrl`), plus sampled
/// queries as preamble-framed datagrams, each with whether its qname is
/// too long to be held inline: 512 to warm a worker on, then 512 fresh
/// ones. With RRL on, the limiter's shard tables are grown first.
fn engine_fixture(rrl: bool) -> (authd::Engine, Vec<(Vec<u8>, bool)>, std::path::PathBuf) {
    use authd::proxy::Preamble;
    use simnet::profile::Vantage;
    use simnet::rrl::RrlConfig;
    use simnet::scenario::dataset;
    use std::net::{IpAddr, Ipv4Addr, SocketAddr};

    let spec = dataset(Vantage::Nl, 2020);
    let tap_path = tmp(&format!("full-cycle-{rrl}.dnscap"));
    let tap = authd::Tap::create(&tap_path).expect("tap creates");
    // with RRL on, the gate (sharded limiter lock + bucket update) is
    // part of the measured cycle, but generous enough never to limit —
    // a bucket holds 4,096 answers, more than the fixture sends, and
    // refills within a microsecond — so every query deterministically
    // produces a reply
    let rrl = rrl.then(|| RrlConfig {
        responses_per_second: u32::MAX,
        burst: 4_096,
        ..spec.rrl.unwrap_or_default()
    });
    let engine = authd::Engine::new(spec.zone.build(), rrl, 8, spec.start, Some(tap));
    let datagram = |src: IpAddr, port: u16, wire: &[u8]| {
        let preamble = Preamble {
            src: SocketAddr::new(src, port),
            dst: "198.51.100.53:53".parse().unwrap(),
            rtt_us: 120,
        };
        let mut datagram = preamble.encode();
        datagram.extend_from_slice(wire);
        datagram
    };
    let sampled = sampled_queries(512, 512);
    // with RRL on, a bucket for each query four times over, each from a
    // /24 of its own that no fixture query comes from: about 512
    // buckets a shard, four times what the fixture's queries add. By
    // the warm-up they are all idle past their refill, so a table they
    // fill drops them instead of growing.
    let throwaway = if rrl.is_some() { 4 * sampled.len() } else { 0 };
    let (peer, local) = (
        "127.0.0.1:55554".parse().unwrap(),
        "127.0.0.1:53".parse().unwrap(),
    );
    let mut state = authd::WorkerState::new();
    for (i, q) in sampled.iter().cycle().take(throwaway).enumerate() {
        let src = Ipv4Addr::from(0x0a00_0000 | (i as u32) << 8);
        engine.process_udp(
            &datagram(src.into(), 40_000, &q.wire),
            peer,
            local,
            &mut state,
        );
    }
    let queries = (sampled.iter().enumerate())
        .map(|(i, q)| {
            let datagram = datagram(q.src, 40_000 + i as u16, &q.wire);
            (datagram, q.qname.heap_bytes() > 0)
        })
        .collect();
    (engine, queries, tap_path)
}

/// Receive, respond and tap a UDP datagram: nothing allocates but a
/// long qname. The rate limiter keeps a bucket per source network and
/// name; its shard tables were grown before the warm-up, so the fresh
/// buckets the measured queries add never grow one.
#[test]
fn full_udp_cycle_is_allocation_free_in_steady_state() {
    assert!(obs::alloc::installed(), "counting allocator active");
    obs::flight::start(std::time::Duration::from_millis(100));
    obs::flight::enable_sampling(7, 42);
    let peer: std::net::SocketAddr = "127.0.0.1:55555".parse().unwrap();
    let local: std::net::SocketAddr = "127.0.0.1:53".parse().unwrap();
    for rrl in [false, true] {
        let (engine, queries, tap_path) = engine_fixture(rrl);
        let (warm, fresh) = queries.split_at(512);
        let mut state = authd::WorkerState::new();
        for (datagram, _) in warm {
            let _ = engine.process_udp(datagram, peer, local, &mut state);
        }
        let what = format!("recv→respond→tap cycle (udp, rrl {rrl})");
        assert_fresh_queries_allocate_only_long_names(&what, fresh, |datagram| {
            engine
                .process_udp(datagram, peer, local, &mut state)
                .is_some()
        });
        let _ = std::fs::remove_file(&tap_path);
    }
}

#[test]
fn full_tcp_cycle_is_allocation_free_in_steady_state() {
    use authd::proxy::Preamble;

    assert!(obs::alloc::installed(), "counting allocator active");
    obs::flight::start(std::time::Duration::from_millis(100));
    obs::flight::enable_sampling(7, 42);
    // TCP answers bypass RRL
    let (engine, queries, tap_path) = engine_fixture(true);
    let peer: std::net::SocketAddr = "127.0.0.1:55556".parse().unwrap();
    let local: std::net::SocketAddr = "127.0.0.1:53".parse().unwrap();
    // the TCP path sees deframed messages (no preamble prefix) plus the
    // connection's preamble, so strip the prefixes built by the fixture
    let messages: Vec<((Vec<u8>, Preamble), bool)> = queries
        .iter()
        .map(|(datagram, long)| {
            let (p, used) = Preamble::parse(datagram).expect("fixture has preambles");
            ((datagram[used..].to_vec(), p), *long)
        })
        .collect();
    let (warm, fresh) = messages.split_at(512);
    let mut state = authd::WorkerState::new();
    for ((msg, p), _) in warm {
        let _ = engine.process_tcp(msg, peer, local, Some(*p), &mut state);
    }
    assert_fresh_queries_allocate_only_long_names(
        "recv→respond→tap cycle (tcp)",
        fresh,
        |(msg, p)| {
            engine
                .process_tcp(msg, peer, local, Some(*p), &mut state)
                .is_some()
        },
    );
    let _ = std::fs::remove_file(&tap_path);
}

/// The TCP connection loop a TCP worker runs (`Engine::serve_tcp_conn`)
/// over a loopback pair: a first connection carries the 512 warm-up
/// queries and a second the 512 fresh ones, each behind its first
/// query's preamble, one query in flight at a time. The second
/// connection allocates only what `process_tcp` does: one allocation
/// per qname too long to be held inline. Its deframer and preamble
/// buffer are the worker's, emptied per connection; before, each
/// connection made its own deframer, preamble buffer and 4 KiB read
/// chunk, and each frame was copied out of the deframer.
#[test]
fn tcp_connection_loop_allocates_only_what_process_tcp_does() {
    use authd::proxy::Preamble;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicBool;

    assert!(obs::alloc::installed(), "counting allocator active");
    let (engine, queries, tap_path) = engine_fixture(false);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr = listener.local_addr().expect("bound");
    let mut worker = authd::TcpWorkerState::new();
    let shutdown = AtomicBool::new(false);
    let connections = queries.chunks(512);
    let long = queries[512..].iter().filter(|(_, long)| *long).count() as u64;
    let allocs = std::thread::scope(|scope| {
        scope.spawn(|| {
            for connection in connections {
                let mut stream = TcpStream::connect(addr).expect("connects");
                let timeout = Some(std::time::Duration::from_secs(10));
                stream.set_read_timeout(timeout).expect("a timeout");
                let (_, used) = Preamble::parse(&connection[0].0).expect("fixture has preambles");
                stream
                    .write_all(&connection[0].0[..used])
                    .expect("preamble");
                let mut reply = vec![0; 65_535];
                for (datagram, _) in connection {
                    let (_, used) = Preamble::parse(datagram).expect("fixture has preambles");
                    let framed = dns_wire::tcp::frame(&datagram[used..]).expect("frames");
                    stream.write_all(&framed).expect("query");
                    let mut len = [0; 2];
                    stream.read_exact(&mut len).expect("reply length");
                    let len = usize::from(u16::from_be_bytes(len));
                    stream.read_exact(&mut reply[..len]).expect("reply");
                }
            }
        });
        let mut serve = || {
            let (stream, _) = listener.accept().expect("accepts");
            obs::alloc::measure(|| engine.serve_tcp_conn(stream, &shutdown, &mut worker)).1
        };
        serve();
        serve().allocs
    });
    assert!(
        allocs <= long,
        "the second connection made {allocs} allocations ({long} long qnames)"
    );
    let served = engine.stats().tcp_queries.get();
    assert_eq!(served, 1_024, "every query was served");
    let _ = std::fs::remove_file(&tap_path);
}

/// A referral response: two NS records and a DS in authority, one A of
/// glue in additional, under EDNS — enough names for compression to
/// matter.
fn sample_response() -> dns_wire::message::Message {
    use dns_wire::builder::MessageBuilder;
    use dns_wire::rdata::RData;
    use dns_wire::types::{RType, Rcode};
    let qname: dns_wire::name::Name = "www.bankexample.nl.".parse().expect("static");
    let q = MessageBuilder::query(77, qname, RType::A)
        .with_edns(1232, true)
        .build();
    MessageBuilder::response(&q, Rcode::NoError)
        .authority(
            "bankexample.nl.".parse().expect("static"),
            3600,
            RData::Ns("ns1.bankexample.nl.".parse().expect("static")),
        )
        .authority(
            "bankexample.nl.".parse().expect("static"),
            3600,
            RData::Ns("ns2.bankexample.nl.".parse().expect("static")),
        )
        .authority(
            "bankexample.nl.".parse().expect("static"),
            3600,
            RData::Ds {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![9; 32],
            },
        )
        .additional(
            "ns1.bankexample.nl.".parse().expect("static"),
            3600,
            RData::A("192.0.2.1".parse().expect("static")),
        )
        .build()
}

#[test]
fn wire_encode_into_is_allocation_free_and_byte_identical() {
    use dns_wire::name::ReusableCompressor;

    assert!(obs::alloc::installed(), "counting allocator active");
    // same observability load as the respond test: recorder sampling
    // the registry in the background, query sampler armed
    obs::flight::start(std::time::Duration::from_millis(100));
    obs::flight::enable_sampling(7, 42);
    let msg = sample_response();
    let expected = msg.encode().expect("encodes");
    let mut comp = ReusableCompressor::new();
    let mut out = Vec::new();
    // first call sizes the buffers; steady state reuses them
    msg.encode_into(&mut comp, &mut out).expect("encodes");
    assert_eq!(out, expected);

    let (_, stats) = obs::alloc::measure(|| {
        for _ in 0..100 {
            msg.encode_into(&mut comp, &mut out).expect("encodes");
        }
    });
    assert_eq!(out, expected);
    assert_eq!(stats.allocs, 0, "encode_into allocated in steady state");
    assert_eq!(stats.bytes, 0);

    // an OPT that carries options is written in place as well
    let mut cookie = msg.clone();
    cookie.edns = Some(dns_wire::edns::Edns {
        options: vec![(10, vec![0xc0; 8])],
        ..dns_wire::edns::Edns::with_size(1232, true)
    });
    cookie.encode_into(&mut comp, &mut out).expect("encodes");
    let (_, stats) = obs::alloc::measure(|| {
        for _ in 0..100 {
            cookie.encode_into(&mut comp, &mut out).expect("encodes");
        }
    });
    assert_eq!(dns_wire::message::Message::parse(&out), Ok(cookie));
    assert_eq!(stats.allocs, 0, "an OPT with options allocated");
}

/// The record path's allocation budget, stage by stage: `.nl` 2020 at
/// the tiny scale, generated on one shard into owned records, then
/// again into a capture writer that reads every slice where it lies,
/// and the records ingested on this thread. Generating measures 0.00723
/// allocations per query (249 in all; 0.0121 while each hourly slice's
/// stage timer allocated its stage name, 0.0653 while each resolver had
/// a cache of its own, and 0.510 while every emptied one lost its
/// eviction index and reallocated it) and ingesting 0.00035 (12 in
/// all: the join's map and queues and the end-of-stream sort); each is
/// bounded at 1.25 times that.
///
/// The `obs` stage table and metric registry are process-wide: the
/// thread that first records a stage or registers a counter pays for
/// its entry. The unmeasured owned run and an empty ingest make those
/// entries first, so this test counts the same run alone as after the
/// tests before it.
#[test]
fn record_path_stays_within_its_allocation_budget() {
    use entrada::enrich::Enricher;
    use entrada::ingest::CaptureIngest;
    use netbase::capture::{CaptureRecord, CaptureWriter};
    use simnet::engine::Engine;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    assert!(obs::alloc::installed(), "counting allocator active");
    let engine = Engine::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 42);
    let new_enricher = || Enricher::new(engine.plan().mapper.clone());
    let mut records: Vec<CaptureRecord> = Vec::new();
    let owned = engine.generate_sharded(&mut records, 1).unwrap();
    CaptureIngest::new(Vec::new().into_iter(), new_enricher()).for_each(drop);
    let enricher = new_enricher();
    let mut capture = CaptureWriter::new(std::io::sink()).unwrap();
    let (generated, generate) = obs::alloc::measure(|| {
        engine
            .generate_sharded(&mut capture, 1)
            .expect("generation into a sink cannot fail")
    });
    assert_eq!(owned, generated, "the same run either way");
    let (rows, ingest) =
        obs::alloc::measure(|| CaptureIngest::new(records.into_iter(), enricher).count() as u64);
    let queries = generated.queries;
    assert_eq!(rows, queries, "every query became a row");
    for (stage, stats, measured) in [("generate", generate, 0.00723), ("ingest", ingest, 0.00035)] {
        let per_query = stats.allocs as f64 / queries as f64;
        assert!(
            per_query <= 1.25 * measured,
            "{stage} made {per_query:.5} allocations per query ({} over {queries})",
            stats.allocs
        );
    }
}

/// The address plan's allocation budget: `InternetPlan::build` for `.nl`
/// 2020 at the tiny scale (seed 42), on this thread. Measured: 218
/// allocations (2,150 while every prefix-trie node was its own `Box`):
/// the registry, the AS and pool lists, and the two trie arenas
/// growing. The bound is 1.25 times that.
#[test]
fn address_plan_builds_within_its_allocation_budget() {
    use asdb::synth::InternetPlan;
    use simnet::engine::plan_config_for;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    assert!(obs::alloc::installed(), "counting allocator active");
    let config = plan_config_for(&dataset(Vantage::Nl, 2020), Scale::tiny(), 42);
    let (plan, stats) = obs::alloc::measure(|| InternetPlan::build(&config));
    assert!(plan.mapper.prefix_count() > 0);
    assert!(
        stats.allocs as f64 <= 1.25 * 218.0,
        "building the plan made {} allocations",
        stats.allocs
    );
}

/// The replay driver's allocation budget: `Driver::sample` plans
/// 20,000 `.nl` 2020 queries at the tiny scale (seed 42), the driver
/// built beforehand. Measured: 0.0097 allocations per query (194 in
/// all; 0.154 while each resolver had a cache of its own, and 0.287
/// when each was a hash map plus a B-tree), the fleets' caches growing
/// and the rare qname too long for `Name`'s inline form; each planned
/// query's bytes are held inline. The bound is 1.25 times that.
#[test]
fn driver_sample_stays_within_its_allocation_budget() {
    use simnet::drive::Driver;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    assert!(obs::alloc::installed(), "counting allocator active");
    let spec = dataset(Vantage::Nl, 2020);
    let t = spec.start;
    let mut driver = Driver::new(spec, Scale::tiny(), 42);
    let queries = 20_000;
    let (bytes, stats) = obs::alloc::measure(|| {
        (0..queries)
            .map(|_| driver.sample(t).wire.len() as u64)
            .sum::<u64>()
    });
    assert!(bytes > 12 * queries, "every planned query has a message");
    let per_query = stats.allocs as f64 / queries as f64;
    assert!(
        per_query <= 1.25 * 0.0097,
        "sampling made {per_query:.5} allocations per query ({} over {queries})",
        stats.allocs
    );
}

/// The fleet plane's walk budget: one `.nl` 2020 fleet resolver (Q-min
/// on, fleet-shared cache) resolves 2,000 sampled stimuli over the
/// offline `SimTransport` to warm its cache and buffers, then 2,000
/// more are measured (1,481 vantage queries). Those measure 0.0055
/// allocations per stimulus (11 in all): the cache's maps and the
/// record slice growing. A walk allocates nothing else: a one-address
/// set (every leaf answer) is held inline, the cache interns every
/// longer address and server set, and `resolve` returns the set as the
/// cache holds it. It was 0.205 while the cache interned one-address
/// sets too (398 of 410 were AAAA sets it held no copy of yet: a leaf's
/// AAAA address is one of 65,535), and 2.22 when each answer and
/// referral built a fresh set and `resolve` copied the result into a
/// `Vec`. The bound is 1.25 times the measured value.
#[test]
fn fleet_walk_stays_within_its_allocation_budget() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use resolver::cache::DEFAULT_CAPACITY;
    use resolver::{IterativeResolver, ResolverConfig, SharedCache};
    use simnet::emerge::{ns_rtt_histograms, sample_stimulus, SimTransport, Stimulus};
    use simnet::engine::Engine;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    assert!(obs::alloc::installed(), "counting allocator active");
    let engine = Engine::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 42);
    let fleet = &engine.fleets()[0];
    let mut rng = StdRng::seed_from_u64(42);
    let stimuli: Vec<Stimulus> = (0..4_000)
        .map(|_| {
            let junk = rng.gen_bool(fleet.spec.junk_ratio);
            let (zone, zipf, junk_gen) = (engine.zone(), engine.zipf(), engine.junk_gen());
            sample_stimulus(zone, zipf, junk_gen, &fleet.spec, junk, &mut rng)
        })
        .collect();
    let hists = ns_rtt_histograms(&engine.spec().servers);
    let mut tr = SimTransport::new(&engine, fleet, &hists, StdRng::seed_from_u64(7), None);
    let mut resolver = IterativeResolver::new(ResolverConfig {
        qmin: true,
        ..Default::default()
    });
    resolver.attach_shared_cache(SharedCache::with_capacity(DEFAULT_CAPACITY));
    resolver.set_log_enabled(false);
    let start = engine.spec().start;
    let mut walk = |batch: &[Stimulus]| {
        let mut vantage = 0;
        for s in batch {
            resolver.set_now_micros(start.as_micros());
            tr.begin(0, start, s.junk);
            let _ = resolver.resolve(&mut tr, &s.qname, s.qtype);
            vantage += tr.emitted;
        }
        vantage
    };
    let (warm, measured) = stimuli.split_at(2_000);
    walk(warm);
    let (vantage, stats) = obs::alloc::measure(|| walk(measured));
    assert!(vantage > 0, "the measured walks reached the vantage");
    let per_stimulus = stats.allocs as f64 / measured.len() as f64;
    assert!(
        per_stimulus <= 1.25 * 0.0055,
        "the fleet walk made {per_stimulus:.4} allocations per stimulus ({} in all)",
        stats.allocs
    );
}

/// What a fresh fleet instance costs when the cache already knows what
/// it asks: one `.nl` 2020 instance walks 1,000 sampled stimuli, then
/// 1,000 fresh instances (each fleet member's profile in turn, Q-min
/// on) walk one of those stimuli each, two hours on, in one walk
/// scratch the way an offline fleet stream lends its own. By then every
/// answer, denial and cut below the root's delegation of `nl.` has
/// expired, so each walk asks the vantage and the leaf again and
/// re-learns only what the cache already held: equal sets, keys it has
/// seen. An instance then allocates its RTT selector's table once and
/// nothing else, no walk buffer of its own: 1,002 allocations over the
/// 1,000 (5,881 when each instance grew its own walk buffers and hashed
/// its hosts into a map). The bound is 1.25 allocations per instance.
#[test]
fn fresh_fleet_instances_allocate_only_their_selector() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use resolver::cache::DEFAULT_CAPACITY;
    use resolver::{SharedCache, WalkScratch};
    use simnet::emerge::{
        fleet_resolver, ns_rtt_histograms, resolve_stimulus, sample_stimulus, SimTransport,
        Stimulus,
    };
    use simnet::engine::Engine;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    const INSTANCES: usize = 1_000;
    assert!(obs::alloc::installed(), "counting allocator active");
    let engine = Engine::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 42);
    let fleet = &engine.fleets()[0];
    let mut rng = StdRng::seed_from_u64(42);
    // distinct asks, so that no fresh instance finds what another re-learned
    let mut seen = std::collections::HashSet::new();
    let stimuli: Vec<Stimulus> = std::iter::repeat_with(|| {
        let junk = rng.gen_bool(fleet.spec.junk_ratio);
        let (zone, zipf, junk_gen) = (engine.zone(), engine.zipf(), engine.junk_gen());
        sample_stimulus(zone, zipf, junk_gen, &fleet.spec, junk, &mut rng)
    })
    .filter(|s| seen.insert((s.qname.clone(), s.qtype)))
    .take(INSTANCES)
    .collect();
    let hists = ns_rtt_histograms(&engine.spec().servers);
    let mut tr = SimTransport::new(&engine, fleet, &hists, StdRng::seed_from_u64(7), None);
    let shared = SharedCache::with_capacity(DEFAULT_CAPACITY);
    let mut scratch = WalkScratch::default();
    let start = engine.spec().start;
    let members = fleet.resolvers.len();
    let mut earlier = fleet_resolver(&fleet.resolvers[0], true, &shared);
    for s in &stimuli {
        tr.begin(0, start, s.junk);
        resolve_stimulus(&mut earlier, &mut scratch, &mut tr, true, start, s);
    }
    let later = start + netbase::time::SimDuration::from_secs(2 * 3600);
    let (silent, stats) = obs::alloc::measure(|| {
        let mut silent = 0;
        for (i, s) in stimuli.iter().enumerate() {
            let member = i % members;
            let mut instance = fleet_resolver(&fleet.resolvers[member], true, &shared);
            tr.begin(member, later, s.junk);
            resolve_stimulus(&mut instance, &mut scratch, &mut tr, true, later, s);
            silent += usize::from(instance.queries_sent() == 0);
        }
        silent
    });
    assert_eq!(silent, 0, "every fresh instance walked");
    let per_instance = stats.allocs as f64 / INSTANCES as f64;
    assert!(
        per_instance <= 1.25,
        "a fresh instance made {per_instance:.3} allocations ({} over {INSTANCES})",
        stats.allocs
    );
}

/// `.nl` and B-Root 2020 rows at the tiny scale, generated and ingested
/// on one shard (the rows themselves are not counted).
fn tiny_rows() -> Vec<(simnet::engine::Engine, Vec<entrada::schema::QueryRow>)> {
    use entrada::enrich::Enricher;
    use entrada::ingest::CaptureIngest;
    use netbase::capture::CaptureRecord;
    use simnet::engine::Engine;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    [Vantage::Nl, Vantage::BRoot]
        .into_iter()
        .map(|vantage| {
            let engine = Engine::new(dataset(vantage, 2020), Scale::tiny(), 42);
            let mut records: Vec<CaptureRecord> = Vec::new();
            engine
                .generate_sharded(&mut records, 1)
                .expect("generation into memory cannot fail");
            let enricher = Enricher::new(engine.plan().mapper.clone());
            let rows = CaptureIngest::new(records.into_iter(), enricher).collect();
            (engine, rows)
        })
        .collect()
}

/// The report sinks' allocation budget: every `.nl` and B-Root 2020 row
/// at the tiny scale pushed through `pipeline::analysis_sinks`, the pair
/// every report is built from, on this thread. Measured on these 51,209
/// rows: 0.013 allocations per row, the dense-id tables and the CDF
/// samples growing (0.027 while each new Facebook source's PTR parse
/// collected two `Vec`s and a `String`; 0.111 when every distinct count
/// was a `HashSet`, every group-by a `HashMap`, and a Facebook row
/// allocated two `String`s and two `Vec`s). The bound is about twice
/// the measured value.
#[test]
fn analysis_sinks_stay_within_their_allocation_budget() {
    use dnscentral_core::pipeline::analysis_sinks;
    use dnscentral_core::sink::RowSink;

    assert!(obs::alloc::installed(), "counting allocator active");
    let (mut allocs, mut rows) = (0, 0);
    for (engine, source_rows) in tiny_rows() {
        let (sinks, stats) = obs::alloc::measure(|| {
            let mut sinks = analysis_sinks(&engine);
            for row in &source_rows {
                sinks.push(row);
            }
            sinks
        });
        assert_eq!(sinks.a.total_queries, source_rows.len() as u64);
        allocs += stats.allocs;
        rows += source_rows.len() as u64;
    }
    let per_row = allocs as f64 / rows as f64;
    assert!(
        per_row <= 0.026,
        "the analysis sinks made {per_row:.3} allocations per row over {rows} rows"
    );
}

/// The warehouse row path's allocation budget, in both directions:
/// `.nl` and B-Root 2020 rows at the tiny scale appended into a fresh
/// warehouse at the default budgets (commit included), then read back
/// by `render_report`. Counted with process-wide `obs::alloc::totals()`
/// deltas, so whatever a scan does on other threads counts too; the
/// other tests in this binary run concurrently and can only add to a
/// delta, so each side keeps its smallest of three attempts. Measured
/// on these 51,209 rows: append 0.54 and scan 0.20 allocations per row,
/// mostly per-partition costs of 336 hourly partitions (scan 0.33 while
/// each source's address plan boxed every prefix-trie node, a PTR parse
/// collected `Vec`s and every table cell was formatted into a `String`
/// of its own, 0.39 while the report sinks grew `HashSet`s and
/// `HashMap`s; 5.85 and 6.00 when every row rebuilt a `Vec` of ASNs per
/// provider and the dictionary copied every name to the heap, and the
/// repo benchmark's `wh-append`/`wh-scan` read 5.17 and 5.41 then). The
/// bounds are about twice the measured values.
#[test]
fn warehouse_rows_stay_within_their_allocation_budget() {
    use dnscentral_core::store::{ensure_source, render_report, SourceInfo};
    use entrada::schema::QueryRow;
    use simnet::scenario::Scale;
    use warehouse::{AppendConfig, Predicate, Warehouse};

    assert!(obs::alloc::installed(), "counting allocator active");
    let sources: Vec<(SourceInfo, Vec<QueryRow>)> = tiny_rows()
        .into_iter()
        .map(|(engine, rows)| {
            let info = SourceInfo {
                spec: engine.spec().clone(),
                scale: Scale::tiny(),
                seed: 42,
            };
            (info, rows)
        })
        .collect();
    let rows: u64 = sources.iter().map(|(_, r)| r.len() as u64).sum();

    let (mut append, mut scan) = (u64::MAX, u64::MAX);
    for attempt in 0..3 {
        let dir = tmp(&format!("wh-budget-{attempt}"));
        let _ = std::fs::remove_dir_all(&dir);
        let start = obs::alloc::totals().0;
        let wh = Warehouse::open(&dir).expect("open");
        for (info, source_rows) in &sources {
            let id = info.spec.id();
            ensure_source(&wh, &id, info).expect("register source");
            let mut app = wh.appender(&id, AppendConfig::default());
            for row in source_rows {
                app.push(row);
            }
            app.finish().expect("flush");
        }
        wh.commit().expect("commit");
        let appended = obs::alloc::totals().0;
        let (text, stats) = render_report(&wh, &Predicate::all(), 1).expect("report");
        let scanned = obs::alloc::totals().0;
        assert_eq!(stats.rows, rows, "every row scanned back");
        assert_eq!(stats.corrupt, 0);
        assert!(!text.is_empty());
        append = append.min(appended - start);
        scan = scan.min(scanned - appended);
        drop(wh);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (append, scan) = (append as f64 / rows as f64, scan as f64 / rows as f64);
    assert!(
        append <= 1.1,
        "append made {append:.2} allocations per row over {rows} rows"
    );
    assert!(
        scan <= 0.40,
        "render_report made {scan:.2} allocations per row over {rows} rows"
    );
}
