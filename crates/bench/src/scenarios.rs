//! The scenario registry: every benchmarkable hot path as a plain
//! callable.
//!
//! The `dnscentral bench` subcommand feeds this table to
//! `obs::bench::Runner` and emits the `BENCH_*.json` reports of the
//! perf trajectory.
//!
//! A scenario is two layers:
//!
//! - [`Scenario::setup`] builds the inputs (sample messages, a tiny
//!   capture, a responder…). Runs once, untimed.
//! - [`Prepared::iter`] is the timed body. It returns a `u64` derived
//!   from the work (a length, a count) so the optimizer cannot discard
//!   the computation.
//!
//! `records_per_iter` is the number of logical records one call
//! processes (queries served, rows aggregated, names parsed); the
//! runner turns it into records/s.

use dns_wire::builder::MessageBuilder;
use dns_wire::message::Message;
use dns_wire::name::{Name, ReusableCompressor};
use dns_wire::rdata::RData;
use dns_wire::types::{RType, Rcode};
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};

/// A prepared scenario: inputs built, ready to be timed.
pub struct Prepared {
    /// Logical records processed per call of `iter`.
    pub records_per_iter: u64,
    /// The timed body. Returns a value derived from the work so the
    /// computation cannot be optimized away.
    pub iter: Box<dyn FnMut() -> u64>,
}

impl Prepared {
    fn new(records_per_iter: u64, iter: impl FnMut() -> u64 + 'static) -> Prepared {
        Prepared {
            records_per_iter,
            iter: Box::new(iter),
        }
    }
}

/// One named benchmark scenario.
pub struct Scenario {
    /// Group label (`wire`, `gen`, `ingest`, `pipeline`, `suite`,
    /// `analysis`, `warehouse`, `obs`, `serve`, `authd`, `resolver`,
    /// `fleet`, `substrates`, `ablation`); the CLI reports
    /// `group/name`.
    pub group: &'static str,
    /// Scenario name within the group.
    pub name: &'static str,
    /// Build the inputs; runs once, untimed.
    pub setup: fn() -> Prepared,
}

impl Scenario {
    /// The `group/name` identifier used in reports and `--filter`.
    pub fn id(&self) -> String {
        format!("{}/{}", self.group, self.name)
    }
}

/// Every scenario, in report order.
pub fn all() -> Vec<Scenario> {
    let mut v = Vec::new();
    v.extend(wire());
    v.extend(gen());
    v.extend(ingest());
    v.extend(pipeline());
    v.extend(suite());
    v.extend(analysis());
    v.extend(warehouse_store());
    v.extend(obs_flight());
    v.extend(serve());
    v.extend(authd_live());
    v.extend(resolver_walks());
    v.extend(fleet_live());
    v.extend(substrates());
    v.extend(ablation());
    v
}

// --- wire -----------------------------------------------------------

fn sample_names() -> Vec<Name> {
    (0..64)
        .map(|i| {
            format!(
                "{}.example{}.nl.",
                zonedb::names::encode_label(i * 977),
                i % 7
            )
            .parse()
            .expect("generated names parse")
        })
        .collect()
}

/// The referral response the wire scenarios encode/parse — public so
/// the workspace's allocation tests can pin the encode path on the
/// exact message the benches measure.
pub fn sample_response() -> Message {
    let qname: Name = "www.bankexample.nl.".parse().expect("static");
    let q = MessageBuilder::query(77, qname.clone(), RType::A)
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

fn wire() -> Vec<Scenario> {
    vec![
        Scenario {
            group: "wire",
            name: "name_parse",
            setup: || {
                let wires: Vec<Vec<u8>> = sample_names()
                    .iter()
                    .map(|n| {
                        let mut v = Vec::new();
                        n.encode_uncompressed(&mut v);
                        v
                    })
                    .collect();
                let n = wires.len() as u64;
                Prepared::new(n, move || {
                    let mut labels = 0u64;
                    for w in &wires {
                        labels += Name::parse(w, 0).expect("valid").0.label_count() as u64;
                    }
                    labels
                })
            },
        },
        Scenario {
            group: "wire",
            name: "message_encode",
            setup: || {
                let resp = sample_response();
                Prepared::new(1, move || resp.encode().expect("encodes").len() as u64)
            },
        },
        Scenario {
            group: "wire",
            name: "message_encode_into",
            setup: || {
                let resp = sample_response();
                let mut comp = ReusableCompressor::new();
                let mut out = Vec::with_capacity(512);
                Prepared::new(1, move || {
                    resp.encode_into(&mut comp, &mut out).expect("encodes");
                    out.len() as u64
                })
            },
        },
        Scenario {
            group: "wire",
            name: "message_parse",
            setup: || {
                let bytes = sample_response().encode().expect("encodes");
                Prepared::new(1, move || {
                    Message::parse(&bytes).expect("parses").authorities.len() as u64
                })
            },
        },
        Scenario {
            group: "wire",
            name: "encode_with_limit_truncating",
            setup: || {
                let resp = sample_response();
                let limit = 100 + resp.encode().expect("encodes").len() / 2;
                Prepared::new(1, move || {
                    resp.encode_with_limit(limit).expect("fits").0.len() as u64
                })
            },
        },
    ]
}

// --- gen ------------------------------------------------------------

fn gen_scenario(shards: usize) -> Prepared {
    use netbase::capture::CaptureWriter;
    use simnet::engine::Engine;
    let engine = Engine::new(dataset(Vantage::BRoot, 2020), Scale::tiny(), 3);
    let total = engine.scaled_total();
    Prepared::new(total, move || {
        let mut buf = Vec::with_capacity(4 << 20);
        let mut w = CaptureWriter::new(&mut buf).expect("writer");
        engine.generate_sharded(&mut w, shards).expect("generation");
        w.finish().expect("flush");
        buf.len() as u64
    })
}

fn gen() -> Vec<Scenario> {
    vec![
        Scenario {
            group: "gen",
            name: "generate_shard1",
            setup: || gen_scenario(1),
        },
        Scenario {
            group: "gen",
            name: "generate_shard4",
            setup: || gen_scenario(4),
        },
    ]
}

// --- ingest ---------------------------------------------------------

/// A tiny `.nz` capture, in memory.
fn sample_capture_bytes() -> Vec<u8> {
    use netbase::capture::CaptureWriter;
    use simnet::engine::Engine;
    let engine = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 7);
    let mut buf = Vec::new();
    let mut w = CaptureWriter::new(&mut buf).expect("in-memory writer");
    engine.generate(&mut w).expect("generation");
    w.finish().expect("flush");
    buf
}

fn ingest() -> Vec<Scenario> {
    vec![Scenario {
        group: "ingest",
        name: "ingest_and_enrich",
        setup: || {
            use entrada::enrich::Enricher;
            use entrada::ingest::CaptureIngest;
            use netbase::capture::CaptureReader;
            use simnet::engine::plan_config_for;
            let capture = sample_capture_bytes();
            let nz = dataset(Vantage::Nz, 2020);
            let plan = asdb::synth::InternetPlan::build(&plan_config_for(&nz, Scale::tiny(), 7));
            let rows = {
                let reader = CaptureReader::new(&capture[..]).expect("valid header");
                CaptureIngest::new(reader, Enricher::new(plan.mapper.clone())).count() as u64
            };
            Prepared::new(rows, move || {
                let reader = CaptureReader::new(&capture[..]).expect("valid header");
                CaptureIngest::new(reader, Enricher::new(plan.mapper.clone())).count() as u64
            })
        },
    }]
}

// --- pipeline -------------------------------------------------------

fn pipeline() -> Vec<Scenario> {
    use dnscentral_core::experiments::{analyze_capture, generate_capture, temp_capture_path};
    use dnscentral_core::pipeline::{run_spec_with, PipelineOpts};
    use simnet::engine::Engine;
    fn e2e_total() -> u64 {
        Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 5).scaled_total()
    }
    vec![
        Scenario {
            group: "pipeline",
            name: "file_roundtrip",
            setup: || {
                let e2e = dataset(Vantage::Nz, 2020);
                Prepared::new(e2e_total(), move || {
                    let path = temp_capture_path("bench-e2e", 5);
                    generate_capture(&e2e, Scale::tiny(), 5, &path).expect("generate");
                    let out = analyze_capture(&e2e, Scale::tiny(), 5, &path).expect("analyze");
                    let _ = std::fs::remove_file(&path);
                    out.0.total_queries
                })
            },
        },
        Scenario {
            group: "pipeline",
            name: "streamed_shard1",
            setup: || {
                let e2e = dataset(Vantage::Nz, 2020);
                Prepared::new(e2e_total(), move || {
                    run_spec_with(e2e.clone(), Scale::tiny(), 5, &PipelineOpts::with_shards(1))
                        .analysis
                        .total_queries
                })
            },
        },
        Scenario {
            group: "pipeline",
            name: "streamed_shard4",
            setup: || {
                let e2e = dataset(Vantage::Nz, 2020);
                Prepared::new(e2e_total(), move || {
                    run_spec_with(e2e.clone(), Scale::tiny(), 5, &PipelineOpts::with_shards(4))
                        .analysis
                        .total_queries
                })
            },
        },
    ]
}

// --- suite ----------------------------------------------------------

/// Four independent tiny datasets through [`dnscentral_core::run_suite`]
/// with the given job cap; `suite/serial` vs `suite/jobs4` is the
/// multi-dataset scheduling speedup (≈ core count, up to 4).
fn suite_scenario(jobs: usize) -> Prepared {
    use dnscentral_core::pipeline::PipelineOpts;
    use dnscentral_core::run_suite;
    use simnet::engine::Engine;
    let specs = vec![
        dataset(Vantage::Nl, 2020),
        dataset(Vantage::Nz, 2020),
        dataset(Vantage::BRoot, 2020),
        dataset(Vantage::Nl, 2019),
    ];
    let total: u64 = specs
        .iter()
        .map(|s| Engine::new(s.clone(), Scale::tiny(), 5).scaled_total())
        .sum();
    Prepared::new(total, move || {
        run_suite(
            specs.clone(),
            Scale::tiny(),
            5,
            &PipelineOpts::default(),
            jobs,
        )
        .iter()
        .map(|run| run.analysis.total_queries)
        .sum()
    })
}

fn suite() -> Vec<Scenario> {
    vec![
        Scenario {
            group: "suite",
            name: "serial",
            setup: || suite_scenario(1),
        },
        Scenario {
            group: "suite",
            name: "jobs4",
            setup: || suite_scenario(4),
        },
    ]
}

// --- analysis -------------------------------------------------------

fn sample_rows() -> (Vec<entrada::schema::QueryRow>, zonedb::zone::ZoneModel) {
    use entrada::enrich::Enricher;
    use entrada::ingest::CaptureIngest;
    use netbase::capture::CaptureReader;
    use simnet::engine::plan_config_for;
    let capture = sample_capture_bytes();
    let nz = dataset(Vantage::Nz, 2020);
    let plan = asdb::synth::InternetPlan::build(&plan_config_for(&nz, Scale::tiny(), 7));
    let reader = CaptureReader::new(&capture[..]).expect("valid header");
    let rows = CaptureIngest::new(reader, Enricher::new(plan.mapper)).collect();
    (rows, nz.zone.build())
}

fn sample_analysis() -> (dnscentral_core::analysis::DatasetAnalysis, u64) {
    use dnscentral_core::analysis::DatasetAnalysis;
    let (rows, zone) = sample_rows();
    let n = rows.len() as u64;
    let mut a = DatasetAnalysis::new(zone);
    for row in &rows {
        a.push(row);
    }
    (a, n)
}

fn analysis() -> Vec<Scenario> {
    vec![
        Scenario {
            group: "analysis",
            name: "aggregate_rows",
            setup: || {
                use dnscentral_core::analysis::DatasetAnalysis;
                let (rows, zone) = sample_rows();
                let n = rows.len() as u64;
                Prepared::new(n, move || {
                    let mut a = DatasetAnalysis::new(zone.clone());
                    for row in &rows {
                        a.push(row);
                    }
                    a.total_queries
                })
            },
        },
        Scenario {
            group: "analysis",
            name: "merge",
            setup: || {
                use dnscentral_core::analysis::DatasetAnalysis;
                let (rows, zone) = sample_rows();
                let n = rows.len() as u64;
                // four partials over disjoint row subsets, merged the
                // way the parallel consumer merges worker sinks
                let partials: Vec<DatasetAnalysis> = (0..4)
                    .map(|w| {
                        let mut a = DatasetAnalysis::new(zone.clone());
                        for row in rows.iter().skip(w).step_by(4) {
                            a.push(row);
                        }
                        a
                    })
                    .collect();
                Prepared::new(n, move || {
                    let mut merged = partials[0].clone();
                    for p in &partials[1..] {
                        merged.merge(p.clone());
                    }
                    merged.total_queries
                })
            },
        },
        Scenario {
            group: "analysis",
            name: "edns_size",
            setup: || {
                use dnscentral_core::ednssize::edns_report;
                let (a, n) = sample_analysis();
                Prepared::new(n, move || edns_report(&a).iter().map(|r| r.samples).sum())
            },
        },
        Scenario {
            group: "analysis",
            name: "junk",
            setup: || {
                use dnscentral_core::junk::junk_report;
                let (a, n) = sample_analysis();
                Prepared::new(n, move || {
                    let r = junk_report("bench", &a);
                    r.per_provider.len() as u64 + (r.overall * 1000.0) as u64
                })
            },
        },
        Scenario {
            group: "analysis",
            name: "concentration",
            setup: || {
                use dnscentral_core::concentration::concentration;
                let (a, n) = sample_analysis();
                Prepared::new(n, move || {
                    (concentration("bench", &a).cloud_share * 1_000_000.0) as u64
                })
            },
        },
    ]
}

// --- warehouse ------------------------------------------------------

fn warehouse_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dnswh-bench-{}-{name}", std::process::id()))
}

/// A committed single-source warehouse over `rows` (fresh directory).
fn built_warehouse(
    rows: &[entrada::schema::QueryRow],
    dir: &std::path::Path,
) -> warehouse::Warehouse {
    let _ = std::fs::remove_dir_all(dir);
    let wh = warehouse::Warehouse::open(dir).expect("warehouse opens");
    wh.ensure_source("bench", "{}").expect("source registers");
    let mut app = wh.appender("bench", warehouse::AppendConfig::default());
    for r in rows {
        app.push(r);
    }
    app.finish().expect("append flushes");
    wh.commit().expect("commit");
    wh
}

fn warehouse_store() -> Vec<Scenario> {
    vec![
        Scenario {
            group: "warehouse",
            name: "append",
            setup: || {
                let (rows, _) = sample_rows();
                let n = rows.len() as u64;
                let dir = warehouse_dir("append");
                Prepared::new(n, move || {
                    let wh = built_warehouse(&rows, &dir);
                    let written = wh.rows();
                    let _ = std::fs::remove_dir_all(&dir);
                    written
                })
            },
        },
        Scenario {
            group: "warehouse",
            name: "scan_full",
            setup: || {
                let (rows, _) = sample_rows();
                let n = rows.len() as u64;
                let wh = built_warehouse(&rows, &warehouse_dir("scan-full"));
                Prepared::new(n, move || {
                    wh.scan(warehouse::Predicate::all()).count() as u64
                })
            },
        },
        Scenario {
            group: "warehouse",
            name: "scan_pruned",
            setup: || {
                use netbase::time::SimTime;
                let (rows, _) = sample_rows();
                let start = rows.iter().map(|r| r.timestamp).min().expect("rows exist");
                let wh = built_warehouse(&rows, &warehouse_dir("scan-pruned"));
                // a one-hour window: the zone maps skip everything else
                let pred = warehouse::Predicate::between(
                    start,
                    SimTime(start.as_micros() + 3_600_000_000),
                );
                let matched = wh.scan(pred.clone()).count() as u64;
                Prepared::new(matched.max(1), move || wh.scan(pred.clone()).count() as u64)
            },
        },
        Scenario {
            group: "warehouse",
            name: "scan_explain",
            setup: || {
                let (rows, _) = sample_rows();
                let n = rows.len() as u64;
                let wh = built_warehouse(&rows, &warehouse_dir("scan-explain"));
                // per-partition decode profiling on for every later
                // scan in this process; the drain keeps it bounded
                warehouse::explain::enable();
                Prepared::new(n, move || {
                    let rows = wh.scan(warehouse::Predicate::all()).count() as u64;
                    let profiles = warehouse::explain::take();
                    rows + profiles.len() as u64
                })
            },
        },
    ]
}

// --- obs ------------------------------------------------------------

fn obs_flight() -> Vec<Scenario> {
    vec![Scenario {
        group: "obs",
        name: "flight_record",
        setup: || {
            use std::time::Duration;
            // a registry the size of a busy run: 48 counters moving at
            // different rates plus 8 populated histograms
            let registry = obs::metrics::Registry::new();
            for i in 0..48u64 {
                registry
                    .counter(&format!("bench_counter_{i:02}"), "bench fixture")
                    .add(i * 7);
            }
            for i in 0..8u64 {
                let h = registry.histogram(&format!("bench_hist_{i}"), "bench fixture");
                for v in 0..64 {
                    h.record(v * 17 + i);
                }
            }
            let recorder =
                obs::flight::Recorder::new(Duration::from_secs(1), obs::flight::RING_CAPACITY);
            // one tick = one full sweep of the 56 registered metrics
            Prepared::new(56, move || {
                recorder.tick_registry(&registry);
                recorder.ticks()
            })
        },
    }]
}

// --- serve ----------------------------------------------------------

fn sample_queries(n: usize) -> Vec<(Vec<u8>, std::net::IpAddr)> {
    use simnet::drive::Driver;
    let spec = dataset(Vantage::Nl, 2020);
    let t = spec.start;
    let mut driver = Driver::new(spec, Scale::tiny(), 42);
    (0..n)
        .map(|_| {
            let q = driver.sample(t);
            (q.wire, q.src)
        })
        .collect()
}

fn serve_scenario(transport: netbase::flow::Transport, cached: bool) -> Prepared {
    use authd::respond::{Outcome, OutcomeRef, RespondScratch, Responder};
    use netbase::time::SimTime;
    let responder = Responder::for_spec(&dataset(Vantage::Nl, 2020));
    let queries = sample_queries(512);
    let now = SimTime(0);
    let n = queries.len() as u64;
    let mut scratch = RespondScratch::new();
    Prepared::new(n, move || {
        let mut replies = 0u64;
        for (wire, src) in &queries {
            if cached {
                match responder.handle_into(wire, transport, *src, now, None, &mut scratch) {
                    OutcomeRef::Reply { .. } => replies += 1,
                    OutcomeRef::RrlDrop | OutcomeRef::Malformed => {}
                }
            } else {
                match responder.handle(wire, transport, *src, now, None) {
                    Outcome::Reply { .. } => replies += 1,
                    Outcome::RrlDrop | Outcome::Malformed => {}
                }
            }
        }
        replies
    })
}

fn serve() -> Vec<Scenario> {
    use netbase::flow::Transport;
    vec![
        Scenario {
            group: "serve",
            name: "respond_udp",
            setup: || serve_scenario(Transport::Udp, false),
        },
        Scenario {
            group: "serve",
            name: "respond_udp_cached",
            setup: || serve_scenario(Transport::Udp, true),
        },
        Scenario {
            group: "serve",
            name: "respond_tcp",
            setup: || serve_scenario(Transport::Tcp, false),
        },
    ]
}

// --- authd (live sockets) -------------------------------------------

/// Closed-loop UDP saturation against a real [`authd::Server`] on
/// loopback: many client sockets (so the kernel's reuseport hash
/// spreads the 4-tuples across the server's shards), preamble-carried
/// logical sources (so RRL buckets spread across limiter shards), RRL
/// configured with `slip: 1` so every limited response degrades to a
/// deterministic TC=1 slip instead of a drop — each query gets exactly
/// one reply and the loop can drain to completion.
fn saturation_scenario(sharded: bool) -> Prepared {
    use authd::proxy::Preamble;
    use authd::sockets::{MsgBufPool, UdpShard, UdpShardSet, MAX_BATCH};
    use simnet::rrl::RrlConfig;
    use std::time::{Duration, Instant};

    const QUERIES: usize = 512;
    const DISTINCT: usize = 64;
    const CLIENT_SOCKS: usize = 8;

    let spec = dataset(Vantage::Nl, 2020);
    let mut config = authd::ServerConfig::for_spec(&spec);
    config.udp_workers = 4;
    config.tcp_workers = 1;
    config.udp_sharding = sharded;
    config.rrl = Some(RrlConfig {
        slip: 1,
        ..spec.rrl.unwrap_or_default()
    });
    let server = authd::Server::start(config).expect("server starts");
    let addr = server.udp_addr();

    // a small repeated query set keeps steady-state responds on the
    // per-worker scratch-cache hit path, so the scenario measures the
    // socket plane rather than response building; source ports still
    // vary per datagram so reuseport spreads the flows over the shards
    let base = sample_queries(DISTINCT);
    let datagrams: Vec<Vec<u8>> = (0..QUERIES)
        .map(|i| {
            let (wire, src) = base[i % DISTINCT].clone();
            (i, wire, src)
        })
        .map(|(i, wire, src)| {
            let preamble = Preamble {
                src: std::net::SocketAddr::new(src, 10_000 + (i % 50_000) as u16),
                dst: addr,
                rtt_us: 0,
            };
            let mut d = preamble.encode();
            d.extend_from_slice(&wire);
            d
        })
        .collect();

    // one single-shard set per client socket: distinct source ports
    // (so the server's reuseport hash spreads them over its shards)
    // but each moving whole batches per syscall, so staging the burst
    // costs the sender almost nothing
    let mut clients: Vec<(UdpShard, MsgBufPool)> = (0..CLIENT_SOCKS)
        .map(|_| {
            let set = UdpShardSet::bind(
                "127.0.0.1:0".parse().expect("static addr"),
                1,
                Duration::from_millis(5),
            )
            .expect("client binds");
            let shard = set.into_shards().pop().expect("one shard");
            (shard, MsgBufPool::new(MAX_BATCH))
        })
        .collect();

    // open loop: blast the burst, then time how fast the server plane
    // absorbs it (recv -> respond -> send, observed via the responses
    // counter). Replies land in the client sockets' buffers and are
    // simply dropped there once full; round-tripping them through this
    // single bench thread would measure the client, not the server.
    let responses = std::sync::Arc::clone(&server.stats().responses);
    Prepared::new(QUERIES as u64, move || {
        // keep the server alive for the whole scenario
        let _ = server.udp_addr();
        let sent_at = responses.get();
        for chunk in datagrams.chunks(CLIENT_SOCKS * MAX_BATCH) {
            for (j, d) in chunk.iter().enumerate() {
                clients[j % CLIENT_SOCKS].1.stage_reply(addr, d);
            }
            for (shard, pool) in clients.iter_mut() {
                let _ = shard.send_staged(pool);
                pool.clear_replies();
            }
        }
        let mut done = 0u64;
        let mut last_progress = Instant::now();
        while done < QUERIES as u64 && last_progress.elapsed() < Duration::from_millis(250) {
            // the sleep hands the core to the workers; the counter
            // read on wake costs one relaxed atomic load
            std::thread::sleep(Duration::from_micros(20));
            let now = responses.get() - sent_at;
            if now > done {
                done = now;
                last_progress = Instant::now();
            }
        }
        done
    })
}

fn authd_live() -> Vec<Scenario> {
    vec![
        Scenario {
            group: "authd",
            name: "saturation",
            setup: || saturation_scenario(true),
        },
        Scenario {
            group: "authd",
            name: "saturation_single",
            setup: || saturation_scenario(false),
        },
    ]
}

// --- resolver (fleet walks) -----------------------------------------

/// One resolver pass over a fixed stimulus batch through the offline
/// three-tier [`SimTransport`]: root referral, recorded vantage,
/// synthetic leaf. Returns the stimulus count (always nonzero).
fn fleet_walk_batch(
    engine: &simnet::engine::Engine,
    hists: &[std::sync::Arc<obs::Histogram>],
    stims: &[simnet::emerge::Stimulus],
    shared: &resolver::SharedCache,
    seed: u64,
) -> u64 {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use resolver::{IterativeResolver, ResolverConfig};
    use simnet::emerge::SimTransport;
    let fleet = &engine.fleets()[0];
    let mut tr = SimTransport::new(engine, fleet, hists, StdRng::seed_from_u64(seed), None);
    let mut res = IterativeResolver::new(ResolverConfig {
        qmin: true,
        ..Default::default()
    });
    res.attach_shared_cache(shared.clone());
    res.set_log_enabled(false);
    let start = engine.spec().start;
    let mut n = 0u64;
    for s in stims {
        res.set_now_micros(start.as_micros());
        tr.begin(0, start, s.junk);
        let _ = res.resolve(&mut tr, &s.qname, s.qtype);
        n += 1;
    }
    n
}

/// Cold: a fresh shared cache each call, so every stimulus walks the
/// full hierarchy. Cached: one pre-warmed cache persists across calls,
/// so steady state measures the TTL-cache hit path plus leaf requery.
fn resolver_scenario(cached: bool) -> Prepared {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use resolver::SharedCache;
    use simnet::emerge::{ns_rtt_histograms, sample_stimulus, Stimulus};
    use simnet::engine::Engine;

    const STIMULI: usize = 64;
    let engine = Engine::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 9);
    let hists = ns_rtt_histograms(&engine.spec().servers);
    // a fixed batch so cold and cached walk the same demand
    let stims: Vec<Stimulus> = {
        let mut rng = StdRng::seed_from_u64(11);
        let spec = engine.fleets()[0].spec.clone();
        (0..STIMULI)
            .map(|_| {
                sample_stimulus(
                    engine.zone(),
                    engine.zipf(),
                    engine.junk_gen(),
                    &spec,
                    false,
                    &mut rng,
                )
            })
            .collect()
    };
    let shared = SharedCache::with_capacity(resolver::cache::DEFAULT_CAPACITY);
    if cached {
        fleet_walk_batch(&engine, &hists, &stims, &shared, 0);
    }
    Prepared::new(STIMULI as u64, move || {
        if cached {
            fleet_walk_batch(&engine, &hists, &stims, &shared, 1)
        } else {
            let cold = SharedCache::with_capacity(resolver::cache::DEFAULT_CAPACITY);
            fleet_walk_batch(&engine, &hists, &stims, &cold, 1)
        }
    })
}

/// `FleetCache::put_addresses` into a map already at
/// `DEFAULT_CAPACITY`: every put adds a key, so every put evicts. The
/// row that trips the gate if eviction goes back to scanning the map.
fn cache_put_full_scenario() -> Prepared {
    use resolver::cache::{FleetCache, DEFAULT_CAPACITY};
    use zonedb::zone::ZoneModel;

    const PUTS: u64 = 64;
    let zone = ZoneModel::nl(5_900_000);
    let addr = vec![std::net::IpAddr::from([192, 0, 2, 1])];
    let mut cache = FleetCache::with_capacity(DEFAULT_CAPACITY);
    let mut next = 0u64;
    let mut put = move |cache: &mut FleetCache| {
        let name = zone.registered_domain(next % 5_900_000);
        cache.put_addresses(&name, RType::A, addr.clone(), next, 3600);
        next += 1;
    };
    for _ in 0..DEFAULT_CAPACITY {
        put(&mut cache);
    }
    Prepared::new(PUTS, move || {
        for _ in 0..PUTS {
            put(&mut cache);
        }
        cache.stats().evictions
    })
}

fn resolver_walks() -> Vec<Scenario> {
    vec![
        Scenario {
            group: "resolver",
            name: "cache_put_full",
            setup: cache_put_full_scenario,
        },
        Scenario {
            group: "resolver",
            name: "resolve_cold",
            setup: || resolver_scenario(false),
        },
        Scenario {
            group: "resolver",
            name: "resolve_cached",
            setup: || resolver_scenario(true),
        },
    ]
}

// --- fleet (live sockets) -------------------------------------------

/// The end-to-end fleet loop: 16 [`resolver::IterativeResolver`]
/// instances driving 1k vantage queries through a real [`authd`]
/// server over loopback, shared caches and RTT selection live.
fn fleet_live() -> Vec<Scenario> {
    vec![Scenario {
        group: "fleet",
        name: "live_1k",
        setup: || {
            const QUERIES: u64 = 1_000;
            let spec = dataset(Vantage::Nl, 2020);
            let mut config = authd::ServerConfig::for_spec(&spec);
            config.udp_workers = 2;
            config.tcp_workers = 1;
            let server = authd::Server::start(config).expect("server starts");
            let mut fg = authd::LoadgenConfig::new(
                spec,
                Scale::tiny(),
                9,
                server.udp_addr(),
                server.tcp_addr(),
            );
            fg.resolvers = Some(16);
            fg.workers = 2;
            fg.max_queries = Some(QUERIES);
            Prepared::new(QUERIES, move || {
                // keep the server alive for the whole scenario
                let _ = server.udp_addr();
                let stats = authd::Stats::new();
                let report = authd::run_loadgen(&fg, &stats).expect("loadgen runs");
                report.sent
            })
        },
    }]
}

// --- substrates -----------------------------------------------------

fn substrates() -> Vec<Scenario> {
    vec![
        Scenario {
            group: "substrates",
            name: "zone_classify_5.9M",
            setup: || {
                use zonedb::zone::ZoneModel;
                let zone = ZoneModel::nl(5_900_000);
                let qnames: Vec<Name> =
                    (0..256).map(|i| zone.registered_domain(i * 9973)).collect();
                let n = qnames.len() as u64;
                Prepared::new(n, move || {
                    qnames.iter().map(|q| zone.classify(q) as u64).sum()
                })
            },
        },
        Scenario {
            group: "substrates",
            name: "zipf_sample",
            setup: || {
                use rand::rngs::StdRng;
                use rand::SeedableRng;
                use zonedb::popularity::ZipfSampler;
                let zipf = ZipfSampler::new(5_900_000, 0.95);
                let mut rng = StdRng::seed_from_u64(3);
                Prepared::new(1, move || zipf.sample(&mut rng))
            },
        },
    ]
}

// --- ablation -------------------------------------------------------
//
// Both sides of each design choice DESIGN.md §6 marks ✦. The two rows
// of a pair run the same input, so they compare directly.

/// Name compression: the 64 sample names through a
/// [`ReusableCompressor`] (suffix table, pointers) or spelled out in
/// full.
fn name_encode_scenario(compress: bool) -> Prepared {
    let names = sample_names();
    let n = names.len() as u64;
    Prepared::new(n, move || {
        let mut comp = ReusableCompressor::new();
        let mut out = Vec::with_capacity(2048);
        for name in &names {
            if compress {
                comp.encode_name(name, &mut out);
            } else {
                name.encode_uncompressed(&mut out);
            }
        }
        out.len() as u64
    })
}

/// Longest-prefix match over 45k random prefixes: the bitwise trie
/// `asdb` maps addresses with, or a longest-first linear scan.
fn lpm_scenario(use_trie: bool) -> Prepared {
    use netbase::prefix::IpPrefix;
    use netbase::trie::{LinearLpm, PrefixTrie};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::net::{IpAddr, Ipv4Addr};
    let mut rng = StdRng::seed_from_u64(1);
    let prefixes: Vec<IpPrefix> = (0..45_000)
        .map(|_| {
            let len = rng.gen_range(12..=24);
            IpPrefix::new(IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())), len).expect("len in range")
        })
        .collect();
    // few probes: a miss costs the linear scan all 45k entries
    let probes: Vec<IpAddr> = (0..64)
        .map(|_| IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())))
        .collect();
    let n = probes.len() as u64;
    if use_trie {
        let mut trie = PrefixTrie::new();
        for (i, p) in prefixes.into_iter().enumerate() {
            trie.insert(p, i);
        }
        Prepared::new(n, move || {
            probes
                .iter()
                .filter(|ip| trie.lookup(**ip).is_some())
                .count() as u64
        })
    } else {
        let mut linear = LinearLpm::new();
        for (i, p) in prefixes.into_iter().enumerate() {
            linear.insert(p, i);
        }
        Prepared::new(n, move || {
            probes
                .iter()
                .filter(|ip| linear.lookup(**ip).is_some())
                .count() as u64
        })
    }
}

/// The resolver-to-authoritative cache-miss funnel (cf. Moura et al.,
/// "Cache me if you can"): Zipf demand over 100k names, one query every
/// 30 ms, against a 65,536-entry [`resolver::cache::TtlMap`] at a
/// 3600 s TTL — look up, and on a miss store the answer.
fn cache_funnel_scenario() -> Prepared {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use resolver::cache::{TtlMap, DEFAULT_CAPACITY};
    use zonedb::popularity::ZipfSampler;
    const QUERIES: u64 = 1024;
    const TTL_US: u64 = 3600 * 1_000_000;
    let zipf = ZipfSampler::new(100_000, 0.95);
    let mut rng = StdRng::seed_from_u64(10);
    let mut cache: TtlMap<(u64, u16), ()> = TtlMap::default();
    let mut now_us = 0u64;
    Prepared::new(QUERIES, move || {
        let mut misses = 0u64;
        for _ in 0..QUERIES {
            now_us += 30_000;
            let key = (zipf.sample(&mut rng), RType::A.to_u16());
            if cache.lookup(&key, now_us).is_none() {
                cache.put(key, (), now_us + TTL_US, DEFAULT_CAPACITY);
                misses += 1;
            }
        }
        misses
    })
}

/// Distinct-resolver counting (Table 3): an exact hash set, or a 4 KiB
/// HyperLogLog sketch, observing keys drawn from a million.
fn distinct_scenario(exact: bool) -> Prepared {
    use entrada::agg::{DistinctCounter, HyperLogLog};
    const OBSERVATIONS: u64 = 1024;
    let mut i = 0u64;
    let mut next_key = move || {
        i = i.wrapping_add(0x9e37_79b9);
        i % 1_000_000
    };
    if exact {
        let mut set = DistinctCounter::new();
        Prepared::new(OBSERVATIONS, move || {
            for _ in 0..OBSERVATIONS {
                set.observe(next_key());
            }
            set.count()
        })
    } else {
        let mut sketch = HyperLogLog::new(12);
        Prepared::new(OBSERVATIONS, move || {
            for _ in 0..OBSERVATIONS {
                sketch.observe(&next_key());
            }
            sketch.estimate() as u64
        })
    }
}

/// A synthetic monthly Q-min series shaped like Figure 3: NS share
/// 0.04 ± 0.05 until the resolver deploys in 2019-12, 0.45 ± 0.05 after.
fn qmin_series() -> Vec<dnscentral_core::qmin::MonthlySample> {
    use dnscentral_core::qmin::MonthlySample;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    simnet::scenario::figure3_months()
        .into_iter()
        .map(|(year, month)| {
            let deployed = (year, month) >= (2019, 12);
            let base: f64 = if deployed { 0.45 } else { 0.04 };
            let ns = (base + rng.gen_range(-0.05..0.05_f64)).clamp(0.0, 1.0);
            MonthlySample {
                year,
                month,
                total: 1000,
                qtype_counts: vec![],
                ns_share: ns,
                minimized_ns_share: if deployed { 0.9 } else { 0.3 },
                address_share: 1.0 - ns,
            }
        })
        .collect()
}

/// Q-min change-point detection over [`qmin_series`]: CUSUM on the NS
/// share, or the largest month-over-month jump above a threshold.
fn detector_scenario(cusum: bool) -> Prepared {
    use dnscentral_core::qmin::{detect_cusum, detect_threshold};
    let series = qmin_series();
    Prepared::new(series.len() as u64, move || {
        let found = if cusum {
            detect_cusum(&series, 0.05, 0.3)
        } else {
            detect_threshold(&series, 0.15)
        };
        found.map_or(0, |cp| cp.year as u64 * 12 + cp.month as u64)
    })
}

/// A junk-share scan over the same ingested rows, held as a `Vec` of
/// row structs or as a dictionary-encoded columnar batch.
fn row_scan_scenario(columnar: bool) -> Prepared {
    let (rows, _) = sample_rows();
    let n = rows.len() as u64;
    if columnar {
        let mut batch = entrada::table::ColumnarBatch::new();
        for r in &rows {
            batch.push(r);
        }
        Prepared::new(n, move || {
            batch.iter().filter(|r| r.is_junk()).count() as u64
        })
    } else {
        Prepared::new(n, move || {
            rows.iter().filter(|r| r.is_junk()).count() as u64
        })
    }
}

fn ablation() -> Vec<Scenario> {
    fn arm(name: &'static str, setup: fn() -> Prepared) -> Scenario {
        Scenario {
            group: "ablation",
            name,
            setup,
        }
    }
    vec![
        arm("name_compressed", || name_encode_scenario(true)),
        arm("name_uncompressed", || name_encode_scenario(false)),
        arm("lpm_trie", || lpm_scenario(true)),
        arm("lpm_linear_scan", || lpm_scenario(false)),
        arm("cache_funnel_3600s", cache_funnel_scenario),
        arm("distinct_exact", || distinct_scenario(true)),
        arm("distinct_hll", || distinct_scenario(false)),
        arm("detector_cusum", || detector_scenario(true)),
        arm("detector_threshold", || detector_scenario(false)),
        arm("scan_row_structs", || row_scan_scenario(false)),
        arm("scan_columnar", || row_scan_scenario(true)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique_and_grouped() {
        let scenarios = all();
        let ids: HashSet<String> = scenarios.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), scenarios.len(), "duplicate scenario ids");
        for required in [
            "wire/message_encode",
            "wire/message_encode_into",
            "wire/message_parse",
            "gen/generate_shard1",
            "gen/generate_shard4",
            "ingest/ingest_and_enrich",
            "pipeline/streamed_shard1",
            "pipeline/streamed_shard4",
            "suite/serial",
            "suite/jobs4",
            "analysis/aggregate_rows",
            "analysis/merge",
            "ablation/detector_cusum",
            "analysis/edns_size",
            "analysis/concentration",
            "warehouse/append",
            "warehouse/scan_full",
            "warehouse/scan_pruned",
            "serve/respond_udp",
            "serve/respond_udp_cached",
            "authd/saturation",
            "authd/saturation_single",
            "resolver/cache_put_full",
            "resolver/resolve_cold",
            "resolver/resolve_cached",
            "fleet/live_1k",
        ] {
            assert!(ids.contains(required), "missing scenario {required}");
        }
    }

    #[test]
    fn wire_scenarios_run_and_return_nonzero() {
        for s in wire() {
            let mut p = (s.setup)();
            assert!(p.records_per_iter > 0, "{}: zero records", s.id());
            assert!((p.iter)() > 0, "{}: zero result", s.id());
        }
    }

    #[test]
    fn serve_scenarios_answer_every_query() {
        for s in serve() {
            let mut p = (s.setup)();
            let replies = (p.iter)();
            assert_eq!(replies, p.records_per_iter, "{}: dropped queries", s.id());
        }
    }

    #[test]
    fn saturation_scenarios_absorb_their_bursts() {
        for s in authd_live() {
            let mut p = (s.setup)();
            let served = (p.iter)();
            // UDP on loopback with grown rcvbufs: the burst shouldn't
            // drop anything, but don't make the suite flaky over a
            // stray datagram
            assert!(
                served * 10 >= p.records_per_iter * 9,
                "{}: only {served}/{} queries answered",
                s.id(),
                p.records_per_iter
            );
        }
    }
}
