//! The scenario registry: the design-choice pairs and the socket-plane
//! saturation rows, as plain callables.
//!
//! The `dnscentral bench` subcommand feeds this table to
//! `obs::bench::Runner` and prints (or writes as JSON) one row per
//! scenario. Throughput claims are backed by the repo benchmark under
//! `benchmark/`, which measures every layer end to end; this registry
//! keeps only what that harness does not: both sides of each design
//! choice DESIGN.md §6 marks ✦, and the live server's saturation pair.
//!
//! A scenario is two layers:
//!
//! - [`Scenario::setup`] builds the inputs (sample names, ingested
//!   rows, a running server…). Runs once, untimed.
//! - [`Prepared::iter`] is the timed body. It returns a `u64` derived
//!   from the work (a length, a count) so the optimizer cannot discard
//!   the computation.
//!
//! `records_per_iter` is the number of logical records one call
//! processes (queries served, rows scanned, names encoded); the runner
//! turns it into records/s.

use dns_wire::name::{Name, ReusableCompressor};
use dns_wire::types::RType;
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
    /// Group label (`authd` or `ablation`); the CLI reports
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
    let mut v = authd_live();
    v.extend(ablation());
    v
}

// --- shared inputs --------------------------------------------------

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

fn sample_queries(n: usize) -> Vec<(Vec<u8>, std::net::IpAddr)> {
    use simnet::drive::Driver;
    let spec = dataset(Vantage::Nl, 2020);
    let t = spec.start;
    let mut driver = Driver::new(spec, Scale::tiny(), 42);
    (0..n)
        .map(|_| {
            let q = driver.sample(t);
            (q.wire.to_vec(), q.src)
        })
        .collect()
}

/// The rows of a tiny `.nz` capture, generated in memory and ingested.
fn sample_rows() -> Vec<entrada::schema::QueryRow> {
    use entrada::enrich::Enricher;
    use entrada::ingest::CaptureIngest;
    use netbase::capture::{CaptureReader, CaptureWriter};
    use simnet::engine::{plan_config_for, Engine};
    let nz = dataset(Vantage::Nz, 2020);
    let engine = Engine::new(nz.clone(), Scale::tiny(), 7);
    let mut capture = Vec::new();
    let mut w = CaptureWriter::new(&mut capture).expect("in-memory writer");
    engine.generate(&mut w).expect("generation");
    w.finish().expect("flush");
    let plan = asdb::synth::InternetPlan::build(&plan_config_for(&nz, Scale::tiny(), 7));
    let reader = CaptureReader::new(&capture[..]).expect("valid header");
    CaptureIngest::new(reader, Enricher::new(plan.mapper)).collect()
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

    // every datagram is answered in full (read in place, answered,
    // cut), so a burst measures the socket plane plus the whole respond
    // step; 64 sampled queries repeat to fill it, their source ports
    // varying per datagram so reuseport spreads the flows over the
    // shards
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
    let rows = sample_rows();
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
        arm("detector_cusum", || detector_scenario(true)),
        arm("detector_threshold", || detector_scenario(false)),
        arm("scan_row_structs", || row_scan_scenario(false)),
        arm("scan_columnar", || row_scan_scenario(true)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_scenarios_run_and_return_nonzero() {
        for s in ablation() {
            let mut p = (s.setup)();
            assert!(p.records_per_iter > 0, "{}: zero records", s.id());
            assert!((p.iter)() > 0, "{}: zero result", s.id());
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
