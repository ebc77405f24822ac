//! The dense-id sinks against a naive oracle. Random rows — v4 and v6
//! sources that repeat, qtype codes above 255 and unknown ones, ASes
//! missing or outside the registry, rows with no provider, timestamps on
//! both sides of a new year, Facebook sources with a PTR name, without
//! one and with one that does not parse — are split into 1 to 7
//! partials that merge in shuffled order. Every accessor a report reads
//! must equal what plain `HashMap`s and `HashSet`s over the same rows
//! say, and the merged sinks must render the report a single partial
//! renders, byte for byte.

use asdb::cloud::{Provider, ALL_PROVIDERS};
use asdb::registry::Asn;
use dns_wire::types::{RType, Rcode};
use dnscentral_core::analysis::DatasetAnalysis;
use dnscentral_core::dualstack::DualStackAnalysis;
use dnscentral_core::report::render_dataset_report;
use dnscentral_core::sink::{DualStackSink, FanoutSink, RowSink};
use entrada::schema::QueryRow;
use netbase::flow::{IpVersion, Transport};
use netbase::time::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::profile::Vantage;
use simnet::ptr::{parse_fb_ptr, PtrDb};
use simnet::scenario::{dataset, DatasetSpec};
use std::collections::{HashMap, HashSet};
use std::net::{IpAddr, Ipv4Addr};
use zonedb::zone::ZoneModel;

/// Source pairs: pair `k` is `10.0.k.1` and `2001:db8::k`.
const PAIRS: u8 = 20;

fn pair(k: u8) -> (Ipv4Addr, IpAddr) {
    (
        Ipv4Addr::new(10, 0, k, 1),
        IpAddr::V6(format!("2001:db8::{k:x}").parse().unwrap()),
    )
}

/// The PTR view: a quarter of the pairs have no record, the rest a site
/// name with the embedded IPv4, one without it, or one whose dashed
/// site code `parse_fb_ptr` rejects.
fn ptr_db() -> PtrDb {
    let mut db = PtrDb::new();
    for k in 0..PAIRS {
        let (v4, v6) = pair(k);
        match k % 4 {
            0 => {}
            1 => db.register_dual_stack("ams", k as u32, v4, v6, true),
            2 => db.register_dual_stack("sjc", k as u32, v4, v6, false),
            _ => db.register_dual_stack("x-y", k as u32, v4, v6, true),
        }
    }
    db
}

const QNAMES: [&str; 9] = [
    "example.nl.",
    "www.example.nl.",
    "a.b.example.nl.",
    "nl.",
    ".",
    "example.com.",
    "EXAMPLE.NL.",
    "qwkzlpahd.",
    "x.nl.",
];

/// Type codes: named ones, unknown ones below 256, and codes above the
/// dense table (CAA is 257).
const QTYPES: [u16; 12] = [1, 2, 28, 43, 48, 255, 257, 99, 200, 4242, 65535, 6];

/// One row from a seed. Most rows carry their source's own AS, as the
/// enricher writes them; some carry none or a stray one.
fn row(seed: u64, spec: &DatasetSpec) -> QueryRow {
    let mut r = StdRng::seed_from_u64(seed);
    let k = r.gen_range(0..PAIRS);
    let (v4, v6) = pair(k);
    let src = if r.gen_bool(0.5) { IpAddr::V4(v4) } else { v6 };
    let provider = match r.gen_range(0..7u32) {
        0..=4 => Some(ALL_PROVIDERS[r.gen_range(0..5usize)]),
        5 => Some(Provider::Facebook),
        _ => None,
    };
    let asn = match r.gen_range(0..10u32) {
        0..=6 => match k % 5 {
            0 => None,
            1 => Some(Asn(4_200_000_000 + k as u32)),
            _ => Some(ALL_PROVIDERS[(k % 5) as usize].asns()[0]),
        },
        7 => None,
        8 => Some(ALL_PROVIDERS[r.gen_range(0..5usize)].asns()[0]),
        _ => Some(Asn(64_496 + r.gen_range(0..8u32))),
    };
    let servers = &spec.servers;
    let server = match r.gen_range(0..4u32) {
        0 => IpAddr::V4(servers[0].v4),
        1 => IpAddr::V6(servers[0].v6),
        2 => IpAddr::V4(servers[1].v4),
        _ => "192.0.2.53".parse().unwrap(),
    };
    let tcp = r.gen_bool(0.3);
    // three days from 2019-12-30: two months and two years
    let timestamp =
        SimTime(SimTime::from_date(2019, 12, 30).0 + r.gen_range(0..3 * 86_400_000_000u64));
    QueryRow {
        timestamp,
        src,
        src_port: r.gen_range(1024..65535u32) as u16,
        server,
        transport: if tcp { Transport::Tcp } else { Transport::Udp },
        qname: QNAMES[r.gen_range(0..QNAMES.len())].parse().unwrap(),
        qtype: RType::from_u16(QTYPES[r.gen_range(0..QTYPES.len())]),
        edns_size: r
            .gen_bool(0.7)
            .then(|| [512u16, 1232, 1400, 4096][r.gen_range(0..4usize)]),
        do_bit: r.gen_bool(0.5),
        rcode: match r.gen_range(0..5u32) {
            0 => None,
            1 => Some(Rcode::NxDomain),
            2 => Some(Rcode::ServFail),
            _ => Some(Rcode::NoError),
        },
        response_size: r.gen_bool(0.8).then(|| r.gen_range(40..1500u32)),
        response_truncated: r.gen_bool(0.1),
        tcp_rtt_us: if tcp && r.gen_bool(0.8) {
            r.gen_range(1..90_000u32)
        } else {
            0
        },
        asn,
        provider,
        public_dns: r.gen_bool(0.5),
    }
}

type Sinks<'a> = FanoutSink<DatasetAnalysis, DualStackSink<'a>>;

fn sinks<'a>(spec: &DatasetSpec, zone: &ZoneModel, ptr: &'a PtrDb) -> Sinks<'a> {
    FanoutSink::new(
        DatasetAnalysis::new(zone.clone()),
        DualStackSink::new(DualStackAnalysis::with_servers(&spec.servers), ptr),
    )
}

/// Nearest-rank median, as `Cdf::median` defines it.
fn median(v: &[u64]) -> Option<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    (!v.is_empty()).then(|| v[v.len().div_ceil(2) - 1])
}

/// Per-provider quantities, from plain collections.
#[derive(Debug, Default, PartialEq)]
struct ProviderOracle {
    queries: u64,
    junk: u64,
    qtype: HashMap<u16, u64>,
    v4_queries: u64,
    v6_queries: u64,
    udp_queries: u64,
    tcp_queries: u64,
    resolvers_v4: u64,
    resolvers_v6: u64,
    edns_sizes: (usize, Option<u64>),
    response_sizes: (usize, Option<u64>),
    truncated_udp: u64,
    answered_udp: u64,
    minimized_ns: u64,
    ns_queries: u64,
}

/// `(qtype code, queries)`, sorted.
type Qtypes = Vec<(u16, u64)>;

/// One Figure 5 line: `(site, q_v4, q_v6, median rtt v4, v6)`.
type SiteLine = (String, u64, u64, Option<u64>, Option<u64>);

/// Everything the reports read from the two sinks.
#[derive(Debug, PartialEq)]
struct Oracle {
    total: u64,
    valid: u64,
    resolvers: u64,
    ases: u64,
    as_volume: Vec<(Asn, u64)>,
    providers: Vec<ProviderOracle>,
    google: (u64, u64, u64, u64),
    monthly: Vec<((Provider, i32, u32), Qtypes)>,
    hourly: Vec<u64>,
    sites: usize,
    dual_stack: usize,
    no_ptr: Vec<IpAddr>,
    unparsed: Vec<IpAddr>,
    unjoinable: Vec<IpAddr>,
    /// Per analyzed server, then the unregistered one.
    figure5: Vec<Vec<SiteLine>>,
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

fn naive(rows: &[QueryRow], zone: &ZoneModel, ptr: &PtrDb, spec: &DatasetSpec) -> Oracle {
    let slots: Vec<Option<Provider>> = ALL_PROVIDERS
        .iter()
        .map(|&p| Some(p))
        .chain([None])
        .collect();
    let mut providers = Vec::new();
    for &p in &slots {
        let mine: Vec<&QueryRow> = rows.iter().filter(|r| r.provider == p).collect();
        let mut o = ProviderOracle {
            queries: mine.len() as u64,
            ..Default::default()
        };
        let (mut v4s, mut v6s) = (HashSet::new(), HashSet::new());
        let (mut edns, mut resp) = (Vec::new(), Vec::new());
        for r in &mine {
            o.junk += r.is_junk() as u64;
            *o.qtype.entry(r.qtype.to_u16()).or_default() += 1;
            match r.ip_version() {
                IpVersion::V4 => {
                    o.v4_queries += 1;
                    v4s.insert(r.src);
                }
                IpVersion::V6 => {
                    o.v6_queries += 1;
                    v6s.insert(r.src);
                }
            }
            match r.transport {
                Transport::Udp => {
                    o.udp_queries += 1;
                    edns.extend(r.edns_size.map(u64::from));
                    if r.rcode.is_some() {
                        o.answered_udp += 1;
                        if r.response_truncated {
                            o.truncated_udp += 1;
                        } else {
                            resp.extend(r.response_size.map(u64::from));
                        }
                    }
                }
                Transport::Tcp => o.tcp_queries += 1,
            }
            if r.qtype == RType::Ns {
                o.ns_queries += 1;
                o.minimized_ns += r.qname.is_minimized_child_of(zone.apex()) as u64;
            }
        }
        o.resolvers_v4 = v4s.len() as u64;
        o.resolvers_v6 = v6s.len() as u64;
        o.edns_sizes = (edns.len(), median(&edns));
        o.response_sizes = (resp.len(), median(&resp));
        providers.push(o);
    }

    let mut as_volume: HashMap<Asn, u64> = HashMap::new();
    let mut monthly: HashMap<(Provider, i32, u32), HashMap<u16, u64>> = HashMap::new();
    let mut hourly = vec![0u64; 24];
    let (mut pub_q, mut rest_q) = (0, 0);
    let (mut pub_r, mut rest_r) = (HashSet::new(), HashSet::new());
    for r in rows {
        if let Some(asn) = r.asn {
            *as_volume.entry(asn).or_default() += 1;
        }
        hourly[r.timestamp.hour_of_day_f64() as usize] += 1;
        if let Some(p) = r.provider {
            let (y, m) = r.year_month();
            *monthly
                .entry((p, y, m))
                .or_default()
                .entry(r.qtype.to_u16())
                .or_default() += 1;
            if p == Provider::Google {
                if r.public_dns {
                    pub_q += 1;
                    pub_r.insert(r.src);
                } else {
                    rest_q += 1;
                    rest_r.insert(r.src);
                }
            }
        }
    }
    let mut as_volume: Vec<(Asn, u64)> = as_volume.into_iter().collect();
    as_volume.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // §4.3 by hand: every Facebook source's PTR verdict, then the rows
    // of the parsed ones per (site, canonical server)
    let fb: Vec<&QueryRow> = rows
        .iter()
        .filter(|r| r.provider == Some(Provider::Facebook))
        .collect();
    let (mut no_ptr, mut unparsed, mut unjoinable) =
        (HashSet::new(), HashSet::new(), HashSet::new());
    let mut join: HashMap<(String, Ipv4Addr), HashSet<IpAddr>> = HashMap::new();
    // site -> canonical server -> (q_v4, q_v6, rtts v4, rtts v6)
    type Agg = (u64, u64, Vec<u64>, Vec<u64>);
    let mut per_site: HashMap<String, HashMap<IpAddr, Agg>> = HashMap::new();
    let canonical = |server: IpAddr| {
        spec.servers
            .iter()
            .find(|s| IpAddr::V6(s.v6) == server)
            .map_or(server, |s| IpAddr::V4(s.v4))
    };
    for r in &fb {
        let Some(name) = ptr.lookup(r.src) else {
            no_ptr.insert(r.src);
            continue;
        };
        let Some((site, embedded)) = parse_fb_ptr(name) else {
            unparsed.insert(r.src);
            continue;
        };
        match embedded {
            Some(key) => {
                join.entry((site.clone(), key)).or_default().insert(r.src);
            }
            None => {
                unjoinable.insert(r.src);
            }
        }
        let agg = per_site
            .entry(site)
            .or_default()
            .entry(canonical(r.server))
            .or_default();
        let v6 = r.src.is_ipv6();
        if v6 {
            agg.1 += 1;
        } else {
            agg.0 += 1;
        }
        if r.transport == Transport::Tcp && r.tcp_rtt_us > 0 {
            if v6 { &mut agg.3 } else { &mut agg.2 }.push(r.tcp_rtt_us as u64);
        }
    }
    let mut order: Vec<(&String, u64)> = per_site
        .iter()
        .map(|(site, s)| (site, s.values().map(|a| a.0 + a.1).sum()))
        .collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let figure5 = spec
        .servers
        .iter()
        .map(|s| IpAddr::V4(s.v4))
        .chain(["192.0.2.53".parse().unwrap()])
        .map(|server| {
            order
                .iter()
                .map(|(site, _)| {
                    let empty = (0, 0, Vec::new(), Vec::new());
                    let a = per_site[*site].get(&server).unwrap_or(&empty);
                    (site.to_string(), a.0, a.1, median(&a.2), median(&a.3))
                })
                .collect()
        })
        .collect();
    let dual_stack = join
        .values()
        .filter(|a| a.iter().any(|x| x.is_ipv4()) && a.iter().any(|x| x.is_ipv6()))
        .count();

    Oracle {
        total: rows.len() as u64,
        valid: rows.iter().filter(|r| r.is_valid()).count() as u64,
        resolvers: rows.iter().map(|r| r.src).collect::<HashSet<_>>().len() as u64,
        ases: as_volume.len() as u64,
        as_volume,
        providers,
        google: (pub_q, rest_q, pub_r.len() as u64, rest_r.len() as u64),
        monthly: sorted(
            monthly
                .into_iter()
                .map(|(k, c)| (k, sorted(c.into_iter().collect())))
                .collect(),
        ),
        hourly,
        sites: per_site.len(),
        dual_stack,
        no_ptr: sorted(no_ptr.into_iter().collect()),
        unparsed: sorted(unparsed.into_iter().collect()),
        unjoinable: sorted(unjoinable.into_iter().collect()),
        figure5,
    }
}

/// The same quantities, read through the sinks' accessors.
fn read(a: &DatasetAnalysis, d: &DualStackAnalysis, spec: &DatasetSpec) -> Oracle {
    let cdf = |c: &entrada::agg::Cdf| (c.len(), (!c.is_empty()).then(|| c.median()));
    let providers = ALL_PROVIDERS
        .iter()
        .map(|&p| Some(p))
        .chain([None])
        .map(|p| {
            let agg = a.provider(p);
            ProviderOracle {
                queries: agg.queries,
                junk: agg.junk,
                qtype: agg.qtype().iter().map(|(t, c)| (t.to_u16(), c)).collect(),
                v4_queries: agg.v4_queries,
                v6_queries: agg.v6_queries,
                udp_queries: agg.udp_queries,
                tcp_queries: agg.tcp_queries,
                resolvers_v4: agg.resolvers_v4(),
                resolvers_v6: agg.resolvers_v6(),
                edns_sizes: cdf(&agg.edns_sizes),
                response_sizes: cdf(&agg.response_sizes),
                truncated_udp: agg.truncated_udp,
                answered_udp: agg.answered_udp,
                minimized_ns: agg.minimized_ns,
                ns_queries: agg.ns_queries,
            }
        })
        .collect();
    let g = a.google_public();
    let figure5 = spec
        .servers
        .iter()
        .map(|s| IpAddr::V4(s.v4))
        .chain(["192.0.2.53".parse().unwrap()])
        .map(|server| {
            d.report_for_server(server)
                .into_iter()
                .map(|s| {
                    let rtts = (s.median_rtt_v4_us, s.median_rtt_v6_us);
                    (s.site, s.queries_v4, s.queries_v6, rtts.0, rtts.1)
                })
                .collect()
        })
        .collect();
    Oracle {
        total: a.total_queries,
        valid: a.valid_queries,
        resolvers: a.resolvers(),
        ases: a.ases(),
        as_volume: a.as_volume_top_k(usize::MAX),
        providers,
        google: (
            g.public_queries,
            g.rest_queries,
            g.public_resolvers(),
            g.rest_resolvers(),
        ),
        monthly: a
            .monthly_qtype()
            .map(|(k, c)| (k, sorted(c.iter().map(|(t, n)| (t.to_u16(), n)).collect())))
            .collect(),
        hourly: a.hourly().to_vec(),
        sites: d.site_count(),
        dual_stack: d.dual_stack_resolvers(),
        no_ptr: sorted(d.no_ptr().collect()),
        unparsed: sorted(d.unparsed().collect()),
        unjoinable: sorted(d.unjoinable().collect()),
        figure5,
    }
}

fn render(a: &DatasetAnalysis, d: &DualStackAnalysis, spec: &DatasetSpec) -> String {
    // B-Root adds the AS ranking to the per-dataset exhibits
    render_dataset_report("prop", Vantage::BRoot, a, d, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merged_partials_match_the_oracle_and_one_pass(
        seeds in prop::collection::vec(any::<u64>(), 0..400),
        parts in 1usize..=7,
        shuffle in any::<u64>(),
    ) {
        let spec = dataset(Vantage::Nl, 2020);
        let zone = ZoneModel::nl(100);
        let ptr = ptr_db();
        let rows: Vec<QueryRow> = seeds.iter().map(|&s| row(s, &spec)).collect();

        let mut rng = StdRng::seed_from_u64(shuffle);
        let mut partials: Vec<Sinks> = (0..parts).map(|_| sinks(&spec, &zone, &ptr)).collect();
        for r in &rows {
            partials[rng.gen_range(0..parts)].push(r);
        }
        for i in (1..partials.len()).rev() {
            partials.swap(i, rng.gen_range(0..=i));
        }
        let mut merged = partials.pop().expect("at least one partial");
        while let Some(p) = partials.pop() {
            merged.merge(p);
        }
        let (ma, md) = merged.into_parts();
        let md = md.into_inner();

        let mut one = sinks(&spec, &zone, &ptr);
        for r in &rows {
            one.push(r);
        }
        let (oa, od) = one.into_parts();
        let od = od.into_inner();

        prop_assert_eq!(read(&ma, &md, &spec), naive(&rows, &zone, &ptr, &spec));
        prop_assert_eq!(read(&oa, &od, &spec), naive(&rows, &zone, &ptr, &spec));
        prop_assert!(
            render(&ma, &md, &spec) == render(&oa, &od, &spec),
            "{} partials render differently from one pass",
            parts
        );
    }
}
