//! End-to-end live loop: serve + loadgen over loopback, ingest the
//! live capture tap through the unchanged offline analysis, and check
//! that cloud attribution matches an offline generate+analyze run of
//! the same dataset within 2 percentage points absolute. Plus the RRL
//! evidence chain: a dropped response must leave a query-with-no-
//! response in the capture, which ingest classifies as unanswered.

use asdb::cloud::Provider;
use authd::{run_live, LiveConfig};
use dnscentral_core::experiments::{analyze_capture, run_dataset};
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};

const QUERIES: u64 = 10_000;
const TOLERANCE_PP: f64 = 0.02;

#[test]
fn live_capture_matches_offline_cloud_shares() {
    let spec = dataset(Vantage::Nl, 2020);
    let scale = Scale::tiny();
    let seed = 42;
    let dir = std::env::temp_dir().join("dnscentral-live-loop");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("live-loop.dnscap");

    let mut config = LiveConfig::new(spec.clone(), scale, seed, capture.clone());
    config.max_queries = Some(QUERIES);
    let report = run_live(&config).expect("live loop runs");
    assert!(
        report.loadgen.sent >= QUERIES,
        "sent {}",
        report.loadgen.sent
    );
    assert!(report.records > 0, "capture tap stayed empty");
    assert_eq!(
        report.loadgen.timeouts, 0,
        "loopback queries must not time out"
    );

    let (live, _dualstack, ingest) =
        analyze_capture(&spec, scale, seed, &capture).expect("live capture analyzes");
    assert_eq!(ingest.malformed, 0, "live tap wrote malformed frames");
    assert_eq!(ingest.unanswered_queries, 0, "unpaired query records");

    let offline = run_dataset(Vantage::Nl, 2020, scale, seed);
    let live_cloud = live.cloud_share();
    let offline_cloud = offline.analysis.cloud_share();
    assert!(
        (live_cloud - offline_cloud).abs() < TOLERANCE_PP,
        "total cloud share diverged: live {live_cloud:.4} vs offline {offline_cloud:.4}"
    );
    for provider in [
        Provider::Google,
        Provider::Amazon,
        Provider::Microsoft,
        Provider::Facebook,
        Provider::Cloudflare,
    ] {
        let l = live.provider_share(provider);
        let o = offline.analysis.provider_share(provider);
        assert!(
            (l - o).abs() < TOLERANCE_PP,
            "{provider:?} share diverged: live {l:.4} vs offline {o:.4}"
        );
    }

    std::fs::remove_file(&capture).ok();
}

/// An RRL-dropped UDP query is not lost evidence: the tap records the
/// query with no response, and offline ingest classifies exactly those
/// records as unanswered queries.
#[test]
fn rrl_dropped_queries_surface_as_unanswered_in_ingest() {
    use dns_wire::builder::MessageBuilder;
    use dns_wire::types::RType;
    use simnet::rrl::RrlConfig;
    use std::time::{Duration, Instant};

    let spec = dataset(Vantage::Nl, 2020);
    let scale = Scale::tiny();
    let seed = 42;
    let dir = std::env::temp_dir().join("dnscentral-live-loop");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("rrl-drop.dnscap");

    let mut config = authd::ServerConfig::for_spec(&spec);
    let qname = config.zone.registered_domain(0).to_string();
    // pure-drop RRL with a one-response budget: hammering one bucket
    // from one source prefix drops everything after the first token
    config.rrl = Some(RrlConfig {
        responses_per_second: 1,
        burst: 1,
        slip: 0,
        ..RrlConfig::default()
    });
    config.tap = Some(authd::Tap::create(&capture).unwrap());
    let server = authd::Server::start(config).unwrap();
    let dropped = std::sync::Arc::clone(&server.stats().rrl_dropped);
    let responses = std::sync::Arc::clone(&server.stats().responses);

    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut id = 0u16;
    while dropped.get() < 3 {
        assert!(Instant::now() < deadline, "RRL never dropped a response");
        let wire = MessageBuilder::query(id, qname.parse().unwrap(), RType::A)
            .with_edns(1232, false)
            .build()
            .encode()
            .unwrap();
        id = id.wrapping_add(1);
        sock.send_to(&wire, server.udp_addr()).unwrap();
        let _ = sock.recv_from(&mut buf); // drain replies, tolerate drops
    }
    // let in-flight datagrams finish before sealing the tap
    std::thread::sleep(Duration::from_millis(100));
    let records = server.shutdown().unwrap();
    let (final_dropped, final_responses) = (dropped.get(), responses.get());
    assert!(records > 0, "tap stayed empty");

    let (_analysis, _dualstack, ingest) =
        analyze_capture(&spec, scale, seed, &capture).expect("capture analyzes");
    assert_eq!(ingest.malformed, 0);
    assert_eq!(
        ingest.unanswered_queries, final_dropped,
        "every RRL drop must appear as a query with no response \
         (dropped {final_dropped}, responses {final_responses})"
    );
    assert!(ingest.unanswered_queries >= 3);
    assert_eq!(
        ingest.rows,
        final_dropped + final_responses,
        "one row per query"
    );

    std::fs::remove_file(&capture).ok();
}

/// Live/offline parity at the byte level: one fixed (query, source,
/// time) trace with RRL on goes through the offline recorder and
/// through the live responder, and every UDP response —
/// truncations, slips and drops included — comes out identical.
#[test]
fn offline_recorder_and_live_responder_emit_identical_udp_responses() {
    use authd::respond::{OutcomeRef, RespondScratch};
    use authd::Responder;
    use dns_wire::builder::MessageBuilder;
    use dns_wire::types::RType;
    use netbase::capture::RecordSlice;
    use netbase::flow::Transport;
    use netbase::time::SimDuration;
    use rand::{rngs::StdRng, SeedableRng};
    use simnet::auth::{Authoritative, Query};
    use simnet::rrl::{RateLimiter, RrlConfig};
    use simnet::vantage::{self, Recorded, WireScratch};
    use std::net::IpAddr;

    let spec = dataset(Vantage::Nl, 2020);
    let zone = spec.zone.build();
    let auth = Authoritative::new(zone.clone());
    let responder = Responder::new(zone.clone());
    let tight = RrlConfig {
        responses_per_second: 2,
        burst: 2,
        slip: 2,
        ..RrlConfig::default()
    };
    let (mut rrl_offline, mut rrl_live) = (RateLimiter::new(tight), RateLimiter::new(tight));
    let mut scratch = RespondScratch::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mut stats = simnet::DatasetStats::default();
    let mut wire = WireScratch::default();
    let mut buf = RecordSlice::default();

    let sources: [IpAddr; 2] = ["192.0.2.1".parse().unwrap(), "2001:db8::7".parse().unwrap()];
    let dst_ip: IpAddr = IpAddr::V4(spec.servers[0].v4);
    let (mut truncated, mut slipped, mut dropped) = (0, 0, 0);
    for i in 0..400u64 {
        let qname = match i % 7 {
            6 => "no-such-name-xyzzy.nl".parse().unwrap(),
            k => zone.registered_domain(k % 3),
        };
        let mut b = MessageBuilder::query(i as u16, qname.clone(), RType::A);
        if let Some(size) = [None, Some(512), Some(1232), Some(4096)][(i % 4) as usize] {
            b = b.with_edns(size, true);
        }
        let query = b.build();
        let src_ip = sources[(i % 2) as usize];
        let at = spec.start + SimDuration::from_millis(i * 10);

        wire.write_query(&query.header, &query.questions[0], query.edns.as_ref());
        let asked = Query::read(wire.query()).expect("a query");
        auth.respond(&asked, &mut wire);
        let first = buf.iter().len();
        let recorded = vantage::record(
            &vantage::Exchange {
                query: wire.query(),
                response: wire.response(),
                edns_size: query.edns.as_ref().map_or(0, |e| e.udp_payload_size),
                src_ip,
                dst_ip,
                rtt_us: 1_000,
                at,
                tcp_extra: 0.0,
            },
            &mut rng,
            Some(&mut rrl_offline),
            &mut buf,
            &mut stats,
        );
        let offline = (recorded != Recorded::Dropped)
            .then(|| buf.iter().nth(first + 1).unwrap().payload.to_vec());

        let live = match responder.handle_into(
            &query.encode().unwrap(),
            Transport::Udp,
            src_ip,
            at,
            Some(&mut rrl_live),
            &mut scratch,
        ) {
            OutcomeRef::Reply {
                bytes,
                truncated: tc,
                slipped: sl,
            } => {
                truncated += (tc && !sl) as u32;
                slipped += sl as u32;
                Some(bytes.to_vec())
            }
            OutcomeRef::RrlDrop => {
                dropped += 1;
                None
            }
            OutcomeRef::Malformed => panic!("query {i} is well-formed"),
        };
        assert_eq!(offline, live, "query {i} ({qname})");
    }
    assert!(
        truncated > 0 && slipped > 0 && dropped > 0,
        "trace must exercise every shape: {truncated} truncated, {slipped} slipped, {dropped} dropped"
    );
    assert_eq!(
        (stats.rrl_slips, stats.rrl_drops),
        (slipped as u64, dropped as u64)
    );
}
