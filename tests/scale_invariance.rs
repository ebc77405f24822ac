//! Scale-invariance: the paper's results are all *ratios*, and the
//! reproduction's claim to validity rests on those ratios being stable
//! under the volume scaling that replaces the authors' 55.7B-query
//! corpus. Run the same dataset at two scales and compare.

use asdb::cloud::ALL_PROVIDERS;
use dnscentral_core::experiments::run_dataset;
use simnet::profile::Vantage;
use simnet::scenario::Scale;

#[test]
fn ratios_stable_across_scales() {
    let small = run_dataset(Vantage::Nz, 2020, Scale::tiny(), 77);
    let big = run_dataset(
        Vantage::Nz,
        2020,
        Scale {
            queries: Scale::tiny().queries * 8.0,
            resolvers: Scale::tiny().resolvers * 4.0,
        },
        77,
    );
    assert!(big.analysis.total_queries > small.analysis.total_queries * 6);

    // Figure 1: per-provider shares
    for p in ALL_PROVIDERS {
        let a = small.analysis.provider_share(p);
        let b = big.analysis.provider_share(p);
        assert!((a - b).abs() < 0.02, "{p}: share {a} vs {b}");
    }
    // Table 3: valid fraction
    assert!((small.analysis.valid_fraction() - big.analysis.valid_fraction()).abs() < 0.03);
    // Table 5 flavor: dataset-wide family and transport ratios. (A
    // single provider's v6 ratio is dominated by which few resolvers a
    // tiny fleet gets, so the invariance claim is made at dataset scope
    // where populations are large at every scale.)
    let family = |run: &dnscentral_core::experiments::DatasetRun| {
        let mut v4 = 0u64;
        let mut v6 = 0u64;
        let mut udp = 0u64;
        let mut tcp = 0u64;
        for p in ALL_PROVIDERS.iter().map(|&p| Some(p)).chain([None]) {
            let agg = run.analysis.provider(p);
            v4 += agg.v4_queries;
            v6 += agg.v6_queries;
            udp += agg.udp_queries;
            tcp += agg.tcp_queries;
        }
        (
            v6 as f64 / (v4 + v6) as f64,
            tcp as f64 / (udp + tcp) as f64,
        )
    };
    let (sv6, stcp) = family(&small);
    let (bv6, btcp) = family(&big);
    assert!((sv6 - bv6).abs() < 0.10, "v6 {sv6} vs {bv6}");
    assert!((stcp - btcp).abs() < 0.02, "tcp {stcp} vs {btcp}");
    // Table 4: the Google public split
    assert!(
        (small.analysis.google_public().public_query_ratio()
            - big.analysis.google_public().public_query_ratio())
        .abs()
            < 0.05
    );
}

#[test]
fn resolver_and_as_counts_scale_with_resolver_knob() {
    let base = run_dataset(Vantage::Nl, 2019, Scale::tiny(), 13);
    let bigger = run_dataset(
        Vantage::Nl,
        2019,
        Scale {
            queries: Scale::tiny().queries * 2.0,
            resolvers: Scale::tiny().resolvers * 4.0,
        },
        13,
    );
    let r_ratio = bigger.analysis.resolvers() as f64 / base.analysis.resolvers() as f64;
    assert!(
        (2.0..6.5).contains(&r_ratio),
        "resolver population tracks the knob: {r_ratio}"
    );
    let as_ratio = bigger.analysis.ases() as f64 / base.analysis.ases() as f64;
    assert!(
        (1.5..6.5).contains(&as_ratio),
        "AS count tracks the knob: {as_ratio}"
    );
}

#[test]
fn query_volume_tracks_query_knob_exactly() {
    let s1 = Scale::tiny();
    let s2 = Scale {
        queries: s1.queries * 3.0,
        resolvers: s1.resolvers,
    };
    let a = run_dataset(Vantage::BRoot, 2019, s1, 21);
    let b = run_dataset(Vantage::BRoot, 2019, s2, 21);
    let ratio = b.analysis.total_queries as f64 / a.analysis.total_queries as f64;
    assert!(
        (2.8..3.2).contains(&ratio),
        "volume knob is exact up to retries: {ratio}"
    );
}
