//! Integration tests for the perf-observability layer: the
//! `dnscentral bench` subcommand (JSON schema, scenario coverage, the
//! baseline regression gate) and the zero-allocation guarantees of the
//! serving and wire-encode hot paths.

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

#[test]
fn bench_list_covers_the_required_scenarios() {
    let out = bin().args(["bench", "--list"]).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for required in [
        "wire/message_encode",
        "wire/message_encode_into",
        "wire/message_parse",
        "gen/generate_shard1",
        "gen/generate_shard4",
        "ingest/ingest_and_enrich",
        "pipeline/streamed_shard1",
        "pipeline/streamed_shard4",
        "analysis/aggregate_rows",
        "analysis/edns_size",
        "analysis/junk",
        "analysis/concentration",
        "serve/respond_udp",
        "serve/respond_udp_cached",
        "serve/respond_tcp",
        "authd/saturation",
        "authd/saturation_single",
        "resolver/cache_put_full",
        "resolver/resolve_cold",
        "resolver/resolve_cached",
        "fleet/live_1k",
        "warehouse/scan_explain",
        "obs/flight_record",
        // both sides of each DESIGN §6 ✦ choice
        "ablation/name_compressed",
        "ablation/name_uncompressed",
        "ablation/lpm_trie",
        "ablation/lpm_linear_scan",
        "ablation/cache_funnel_3600s",
        "ablation/distinct_exact",
        "ablation/distinct_hll",
        "ablation/detector_cusum",
        "ablation/detector_threshold",
        "ablation/scan_row_structs",
        "ablation/scan_columnar",
    ] {
        assert!(text.lines().any(|l| l == required), "missing {required}");
    }
    // --filter narrows the list
    let out = bin()
        .args(["bench", "--list", "--filter=wire/"])
        .output()
        .expect("runs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.lines().count() >= 5);
    assert!(text.lines().all(|l| l.starts_with("wire/")), "{text}");
}

#[test]
fn bench_quick_emits_schema_valid_json() {
    let json = tmp("schema.json");
    let out = bin()
        .args([
            "bench",
            "--quick",
            "--filter=analysis/",
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
    assert!(table.contains("analysis/aggregate_rows"), "{table}");

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).expect("valid JSON");
    assert_eq!(doc["schema_version"], 1);
    assert_eq!(doc["quick"], true);
    assert!(!doc["label"].as_str().unwrap().is_empty());
    let scenarios = doc["scenarios"].as_array().unwrap();
    assert_eq!(scenarios.len(), 5, "five analysis scenarios");
    for s in scenarios {
        assert!(s["name"].as_str().unwrap().starts_with("analysis/"));
        assert_eq!(s["group"], "analysis");
        assert!(s["iters"].as_u64().unwrap() > 0);
        for field in ["ns_per_op", "p50_ns", "p99_ns", "min_ns", "max_ns"] {
            assert!(s[field].as_f64().unwrap() > 0.0, "{field}: {s}");
        }
        assert!(s["min_ns"].as_f64().unwrap() <= s["max_ns"].as_f64().unwrap());
        // every analysis scenario processes records, and the CLI's
        // counting allocator makes allocs/op concrete numbers
        assert!(s["records_per_sec"].as_f64().unwrap() > 0.0, "{s}");
        assert!(s["allocs_per_op"].as_f64().is_some(), "{s}");
        assert!(s["alloc_bytes_per_op"].as_f64().is_some(), "{s}");
    }
    let _ = std::fs::remove_file(&json);
}

#[test]
fn baseline_gate_passes_on_self_and_fails_on_injected_regression() {
    use obs::bench::BenchReport;
    let json = tmp("gate.json");
    let doctored = tmp("gate-doctored.json");
    let filter = "--filter=ablation/detector_cusum";
    let out = bin()
        .args([
            "bench",
            "--quick",
            filter,
            &format!("--json={}", json.display()),
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());

    // Comparing a fresh run against its own twin must not flag noise.
    // The threshold is wide because this test checks the wiring (exit
    // code, report lines) while other tests load the box; the diff rule
    // itself is unit-tested on synthetic reports in `obs::bench`, and CI
    // runs the real gate at 0.5.
    let out = bin()
        .args([
            "bench",
            "--quick",
            filter,
            &format!("--baseline={}", json.display()),
            "--threshold=1.0",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "self-baseline flagged: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("no regressions"));
    let core_warning = "rows taken at different core counts do not compare";
    assert!(!String::from_utf8_lossy(&out.stderr).contains(core_warning));

    // a baseline doctored 100x faster, with no core count on record,
    // must trip the gate (exit nonzero) and say the rows do not compare
    let mut base = BenchReport::load(&json).expect("loads");
    base.cores = None;
    for s in &mut base.scenarios {
        s.ns_per_op /= 100.0;
        s.p50_ns /= 100.0;
        s.p99_ns /= 100.0;
        s.min_ns /= 100.0;
        s.max_ns /= 100.0;
    }
    base.save(&doctored).unwrap();
    let out = bin()
        .args([
            "bench",
            "--quick",
            filter,
            &format!("--baseline={}", doctored.display()),
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "doctored baseline not flagged");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("REGRESSION ablation/detector_cusum"),
        "{text}"
    );
    let warned = String::from_utf8_lossy(&out.stderr);
    assert!(warned.contains(core_warning), "{warned}");

    for f in [&json, &doctored] {
        let _ = std::fs::remove_file(f);
    }
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

/// ISSUE satellite: a profiler that has run once ("armed": handler
/// installed, ring allocated, timer disarmed) must not disturb the
/// respond path's zero-allocation steady state.
#[test]
fn armed_but_idle_profiler_keeps_respond_path_allocation_free() {
    use authd::respond::{OutcomeRef, RespondScratch, Responder};
    use netbase::flow::Transport;
    use netbase::time::SimTime;
    use simnet::drive::Driver;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

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

    let spec = dataset(Vantage::Nl, 2020);
    let t = spec.start;
    let responder = Responder::for_spec(&spec);
    let mut driver = Driver::new(spec, Scale::tiny(), 42);
    let queries: Vec<(Vec<u8>, std::net::IpAddr)> = (0..64)
        .map(|_| {
            let q = driver.sample(t);
            (q.wire, q.src)
        })
        .collect();
    let now = SimTime(0);
    let mut scratch = RespondScratch::new();
    for _ in 0..2 {
        for (wire, src) in &queries {
            let _ = responder.handle_into(wire, Transport::Udp, *src, now, None, &mut scratch);
        }
    }
    let steady: Vec<(Vec<u8>, std::net::IpAddr)> = queries
        .into_iter()
        .filter(|(wire, src)| {
            let misses = scratch.misses();
            let _ = responder.handle_into(wire, Transport::Udp, *src, now, None, &mut scratch);
            scratch.misses() == misses
        })
        .collect();
    assert!(steady.len() >= 32, "mix should mostly cache");

    let (_, stats) = obs::alloc::measure(|| {
        for _ in 0..50 {
            for (wire, src) in &steady {
                match responder.handle_into(wire, Transport::Udp, *src, now, None, &mut scratch) {
                    OutcomeRef::Reply { .. } | OutcomeRef::RrlDrop | OutcomeRef::Malformed => {}
                }
            }
        }
    });
    assert_eq!(stats.allocs, 0, "armed-but-idle profiler broke 0 allocs/op");
    assert_eq!(stats.bytes, 0);
}

#[test]
fn respond_hot_path_is_allocation_free_in_steady_state() {
    use authd::respond::{OutcomeRef, RespondScratch, Responder};
    use netbase::flow::Transport;
    use netbase::time::SimTime;
    use simnet::drive::Driver;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    assert!(obs::alloc::installed(), "counting allocator active");
    // flight recorder + query sampler on: the cached respond path must
    // stay allocation-free with full observability enabled (flight hops
    // live in the socket servers, not in `handle_into`)
    obs::flight::start(std::time::Duration::from_millis(100));
    obs::flight::enable_sampling(7, 42);
    let spec = dataset(Vantage::Nl, 2020);
    let t = spec.start;
    let responder = Responder::for_spec(&spec);
    let mut driver = Driver::new(spec, Scale::tiny(), 42);
    let queries: Vec<(Vec<u8>, std::net::IpAddr)> = (0..64)
        .map(|_| {
            let q = driver.sample(t);
            (q.wire, q.src)
        })
        .collect();
    let now = SimTime(0);
    let mut scratch = RespondScratch::new();
    // warm passes populate the per-worker response cache
    for _ in 0..2 {
        for (wire, src) in &queries {
            let _ = responder.handle_into(wire, Transport::Udp, *src, now, None, &mut scratch);
        }
    }
    // keep only steady-state cache hits: uncacheable queries and
    // direct-mapped slot collisions legitimately take the slow path
    let steady: Vec<(Vec<u8>, std::net::IpAddr)> = queries
        .into_iter()
        .filter(|(wire, src)| {
            let misses = scratch.misses();
            let _ = responder.handle_into(wire, Transport::Udp, *src, now, None, &mut scratch);
            scratch.misses() == misses
        })
        .collect();
    assert!(
        steady.len() >= 32,
        "most of the sampled mix should cache ({} of 64)",
        steady.len()
    );

    let (replies, stats) = obs::alloc::measure(|| {
        let mut replies = 0u64;
        for _ in 0..50 {
            for (wire, src) in &steady {
                match responder.handle_into(wire, Transport::Udp, *src, now, None, &mut scratch) {
                    OutcomeRef::Reply { .. } => replies += 1,
                    OutcomeRef::RrlDrop | OutcomeRef::Malformed => {}
                }
            }
        }
        replies
    });
    assert_eq!(replies, 50 * steady.len() as u64);
    assert_eq!(stats.allocs, 0, "respond hot path allocated");
    assert_eq!(stats.bytes, 0);
}

/// The miss path under it: `Authoritative::respond` writes its answer
/// straight into a warm `WireScratch` and allocates nothing, whatever
/// the shape — a signed referral, a signed NXDOMAIN, a DNSKEY answer
/// too big for 1,232 octets. Cutting that one for UDP costs the single
/// allocation that holds the reply's bytes.
#[test]
fn authoritative_respond_is_allocation_free_into_a_warm_scratch() {
    use dns_wire::builder::MessageBuilder;
    use dns_wire::message::Message;
    use dns_wire::types::{RType, Rcode};
    use netbase::time::SimTime;
    use simnet::auth::Authoritative;
    use simnet::profile::Vantage;
    use simnet::rrl::RateLimiter;
    use simnet::scenario::dataset;
    use simnet::vantage::{shape_udp, WireScratch};

    assert!(obs::alloc::installed(), "counting allocator active");
    let auth = Authoritative::new(dataset(Vantage::Nl, 2020).zone.build());
    let zone = auth.zone();
    let signed = (0..1000)
        .find(|&i| zone.is_signed(i))
        .expect("a signed delegation");
    let query = |qname, qtype| {
        MessageBuilder::query(7, qname, qtype)
            .with_edns(1232, true)
            .build()
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
            assert_eq!(auth.respond(q.into(), true, wire).rcode, *rcode);
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

    // the DNSKEY answer is the message last written
    let (reply, stats) = obs::alloc::measure(|| {
        shape_udp::<RateLimiter>(wire.response(), 1232, src, SimTime(0), None)
    });
    let reply = reply.expect("no limiter, no drop");
    assert!(reply.truncated && reply.bytes.len() <= 1232);
    assert_eq!(stats.allocs, 1, "the cut is one exact-length copy");
    assert_eq!(stats.bytes, reply.bytes.len() as u64);
    let cut = Message::parse(&reply.bytes).expect("the cut parses");
    assert!(cut.header.truncated && !cut.answers.is_empty() && cut.edns.is_some());
}

/// Sampled queries plus a fixed logical flow for the full-cycle tests.
fn engine_fixture() -> (
    authd::Engine,
    Vec<(Vec<u8>, std::net::SocketAddr)>,
    std::path::PathBuf,
) {
    use authd::proxy::Preamble;
    use simnet::drive::Driver;
    use simnet::profile::Vantage;
    use simnet::rrl::RrlConfig;
    use simnet::scenario::{dataset, Scale};

    let spec = dataset(Vantage::Nl, 2020);
    let t = spec.start;
    let tap_path = tmp("full-cycle.dnscap");
    let tap = authd::Tap::create(&tap_path).expect("tap creates");
    // RRL on — the gate (sharded limiter lock + bucket update) is part
    // of the measured cycle — but generous enough never to limit, so
    // every query deterministically produces a reply
    let rrl = RrlConfig {
        responses_per_second: u32::MAX,
        burst: u32::MAX,
        ..spec.rrl.unwrap_or_default()
    };
    let engine = authd::Engine::new(spec.zone.build(), Some(rrl), 8, spec.start, Some(tap));
    let mut driver = Driver::new(spec, Scale::tiny(), 42);
    let queries: Vec<(Vec<u8>, std::net::SocketAddr)> = (0..64)
        .map(|i| {
            let q = driver.sample(t);
            let src = std::net::SocketAddr::new(q.src, 40_000 + i as u16);
            let preamble = Preamble {
                src,
                dst: "198.51.100.53:53".parse().unwrap(),
                rtt_us: 120,
            };
            let mut datagram = preamble.encode();
            datagram.extend_from_slice(&q.wire);
            (datagram, src)
        })
        .collect();
    (engine, queries, tap_path)
}

#[test]
fn full_udp_cycle_is_allocation_free_in_steady_state() {
    assert!(obs::alloc::installed(), "counting allocator active");
    obs::flight::start(std::time::Duration::from_millis(100));
    obs::flight::enable_sampling(7, 42);
    let (engine, queries, tap_path) = engine_fixture();
    let peer: std::net::SocketAddr = "127.0.0.1:55555".parse().unwrap();
    let local: std::net::SocketAddr = "127.0.0.1:53".parse().unwrap();
    let mut state = authd::WorkerState::new();
    for _ in 0..2 {
        for (datagram, _) in &queries {
            let _ = engine.process_udp(datagram, peer, local, &mut state);
        }
    }
    // keep only steady-state cache hits (collisions and uncacheable
    // shapes legitimately take the allocating slow path)
    let steady: Vec<&(Vec<u8>, std::net::SocketAddr)> = queries
        .iter()
        .filter(|(datagram, _)| {
            let misses = state.scratch().misses();
            let _ = engine.process_udp(datagram, peer, local, &mut state);
            state.scratch().misses() == misses
        })
        .collect();
    assert!(
        steady.len() >= 32,
        "mix should mostly cache: {}",
        steady.len()
    );

    let (replies, stats) = obs::alloc::measure(|| {
        let mut replies = 0u64;
        for _ in 0..50 {
            for (datagram, _) in &steady {
                if engine
                    .process_udp(datagram, peer, local, &mut state)
                    .is_some()
                {
                    replies += 1;
                }
            }
        }
        replies
    });
    assert_eq!(
        replies,
        50 * steady.len() as u64,
        "every steady query replied"
    );
    assert_eq!(stats.allocs, 0, "recv→respond→tap cycle allocated (udp)");
    assert_eq!(stats.bytes, 0);
    let _ = std::fs::remove_file(&tap_path);
}

#[test]
fn full_tcp_cycle_is_allocation_free_in_steady_state() {
    use authd::proxy::Preamble;

    assert!(obs::alloc::installed(), "counting allocator active");
    obs::flight::start(std::time::Duration::from_millis(100));
    obs::flight::enable_sampling(7, 42);
    let (engine, queries, tap_path) = engine_fixture();
    let peer: std::net::SocketAddr = "127.0.0.1:55556".parse().unwrap();
    let local: std::net::SocketAddr = "127.0.0.1:53".parse().unwrap();
    // the TCP path sees deframed messages (no preamble prefix) plus the
    // connection's preamble, so strip the prefixes built by the fixture
    let messages: Vec<(Vec<u8>, Preamble)> = queries
        .iter()
        .map(|(datagram, _)| {
            let (p, used) = Preamble::parse(datagram).expect("fixture has preambles");
            (datagram[used..].to_vec(), p)
        })
        .collect();
    let mut state = authd::WorkerState::new();
    for _ in 0..2 {
        for (msg, p) in &messages {
            let _ = engine.process_tcp(msg, peer, local, Some(*p), &mut state);
        }
    }
    let steady: Vec<&(Vec<u8>, Preamble)> = messages
        .iter()
        .filter(|(msg, p)| {
            let misses = state.scratch().misses();
            let _ = engine.process_tcp(msg, peer, local, Some(*p), &mut state);
            state.scratch().misses() == misses
        })
        .collect();
    assert!(
        steady.len() >= 32,
        "mix should mostly cache: {}",
        steady.len()
    );

    let (replies, stats) = obs::alloc::measure(|| {
        let mut replies = 0u64;
        for _ in 0..50 {
            for (msg, p) in &steady {
                if engine
                    .process_tcp(msg, peer, local, Some(*p), &mut state)
                    .is_some()
                {
                    replies += 1;
                }
            }
        }
        replies
    });
    assert_eq!(
        replies,
        50 * steady.len() as u64,
        "every steady query replied"
    );
    assert_eq!(stats.allocs, 0, "recv→respond→tap cycle allocated (tcp)");
    assert_eq!(stats.bytes, 0);
    let _ = std::fs::remove_file(&tap_path);
}

#[test]
fn wire_encode_into_is_allocation_free_and_byte_identical() {
    use dns_wire::name::ReusableCompressor;

    assert!(obs::alloc::installed(), "counting allocator active");
    // same observability load as the respond test: recorder sampling
    // the registry in the background, query sampler armed
    obs::flight::start(std::time::Duration::from_millis(100));
    obs::flight::enable_sampling(7, 42);
    let msg = bench::scenarios::sample_response();
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

/// The record path's allocation budget: `.nl` 2020 at the tiny scale,
/// generated into memory on one shard and ingested on this thread, may
/// allocate at most 8 times per query (it measures about 6: the
/// payloads themselves, the rows, the sort; 91 before the inline `Name`,
/// 10.5 before responses were written straight into the slice's buffer).
#[test]
fn record_path_stays_within_its_allocation_budget() {
    use entrada::enrich::Enricher;
    use entrada::ingest::CaptureIngest;
    use netbase::capture::CaptureRecord;
    use simnet::engine::Engine;
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    assert!(obs::alloc::installed(), "counting allocator active");
    let engine = Engine::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 42);
    let enricher = Enricher::new(engine.plan().mapper.clone());
    let ((queries, rows), stats) = obs::alloc::measure(|| {
        let mut records: Vec<CaptureRecord> = Vec::new();
        let generated = engine
            .generate_sharded(&mut records, 1)
            .expect("generation into memory cannot fail");
        let rows = CaptureIngest::new(records.into_iter(), enricher).count() as u64;
        (generated.queries, rows)
    });
    assert_eq!(rows, queries, "every query became a row");
    let per_query = stats.allocs as f64 / queries as f64;
    assert!(
        per_query <= 8.0,
        "generate + ingest made {per_query:.1} allocations per query ({} over {queries})",
        stats.allocs
    );
}

/// The fleet plane's walk budget: one `.nl` 2020 fleet resolver (Q-min
/// on, fleet-shared cache) resolves 2,000 sampled stimuli over the
/// offline `SimTransport` to warm its cache and buffers, then 2,000
/// more are measured (1,481 vantage queries). Those cost 12.89
/// allocations per stimulus when every reply was parsed into a
/// `Message`, every ask built one and ranked its servers into a fresh
/// `Vec`, and every hit cloned a `Vec`; they measure 3.70 now: the
/// capture's own payload copies, one shared address set per answer or
/// referral, and the `Vec` that `resolve` returns. The bound is about
/// twice the measured value.
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
        per_stimulus <= 7.5,
        "the fleet walk made {per_stimulus:.2} allocations per stimulus"
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
/// rows: 0.027 allocations per row, the dense-id tables and the CDF
/// samples growing (0.111 when every distinct count was a `HashSet`,
/// every group-by a `HashMap`, and a Facebook row allocated two
/// `String`s and two `Vec`s). The bound is about twice the measured
/// value.
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
        per_row <= 0.055,
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
/// on these 51,209 rows: append 0.54 and scan 0.33 allocations per row,
/// mostly per-partition costs of 336 hourly partitions (scan 0.39 while
/// the report sinks grew `HashSet`s and `HashMap`s; 5.85 and 6.00 when
/// every row rebuilt a `Vec` of ASNs per provider and the dictionary
/// copied every name to the heap, and the repo benchmark's
/// `wh-append`/`wh-scan` read 5.17 and 5.41 then). The bounds are about
/// twice the measured values.
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
        scan <= 0.65,
        "render_report made {scan:.2} allocations per row over {rows} rows"
    );
}
