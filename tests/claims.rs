//! End-to-end assertions of the paper's qualitative claims (the
//! "shape" inventory in DESIGN.md §4), run through the full
//! generate → capture → ingest → analyze pipeline.
//!
//! Expensive dataset runs are shared across tests via `OnceLock`.

use asdb::cloud::Provider;
use dns_wire::types::RType;
use dnscentral_core::experiments::{run_dataset, DatasetRun};
use dnscentral_core::{ednssize, junk, metrics, transport};
use simnet::profile::Vantage;
use simnet::scenario::Scale;
use std::net::IpAddr;
use std::sync::OnceLock;

fn nl2020() -> &'static DatasetRun {
    static RUN: OnceLock<DatasetRun> = OnceLock::new();
    RUN.get_or_init(|| run_dataset(Vantage::Nl, 2020, Scale::medium(), 42))
}

fn nz2020() -> &'static DatasetRun {
    static RUN: OnceLock<DatasetRun> = OnceLock::new();
    RUN.get_or_init(|| run_dataset(Vantage::Nz, 2020, Scale::small(), 42))
}

fn broot2020() -> &'static DatasetRun {
    static RUN: OnceLock<DatasetRun> = OnceLock::new();
    RUN.get_or_init(|| run_dataset(Vantage::BRoot, 2020, Scale::small(), 42))
}

fn nl2018() -> &'static DatasetRun {
    static RUN: OnceLock<DatasetRun> = OnceLock::new();
    RUN.get_or_init(|| run_dataset(Vantage::Nl, 2018, Scale::small(), 42))
}

/// Claim 1 (Figure 1): five CPs carry ≳30% of ccTLD queries but under
/// 10% at B-Root, and the root share grows over the years.
#[test]
fn claim1_cloud_concentration() {
    let nl = nl2020().analysis.cloud_share();
    assert!((0.28..0.40).contains(&nl), ".nl cloud share {nl}");
    let nz = nz2020().analysis.cloud_share();
    assert!((0.24..0.34).contains(&nz), ".nz cloud share {nz}");
    let root = broot2020().analysis.cloud_share();
    assert!((0.06..0.12).contains(&root), "B-Root cloud share {root}");
    assert!(nl > root * 3.0, "ccTLD concentration dwarfs the root's");
}

/// Claim 1b: the vantage hears from tens of thousands of ASes (scaled),
/// yet 5 CPs (20 ASes) hold ~1/3 of the traffic — the centralization
/// headline.
#[test]
fn claim1b_many_ases_few_winners() {
    let a = &nl2020().analysis;
    assert!(a.ases() > 500, "AS diversity (scaled): {}", a.ases());
    // at the root, the first cloud AS is NOT the top source
    let rank = broot2020()
        .analysis
        .first_cloud_as_rank()
        .expect("cloud AS seen");
    assert!(
        rank >= 2,
        "ISPs outrank the first cloud AS at B-Root (rank {rank})"
    );
}

/// Claim 2 (Tables 4/7): Google Public DNS carries 84-90% of Google's
/// queries from a small minority of its resolver population, at both
/// ccTLDs — so the .nl/.nz difference isn't a service-mix artifact.
#[test]
fn claim2_google_public_split() {
    for run in [nl2020(), nz2020()] {
        let g = metrics::google_split(&run.id, &run.analysis);
        assert!(
            (0.82..0.92).contains(&g.public_query_ratio),
            "{}: public query ratio {}",
            run.id,
            g.public_query_ratio
        );
        assert!(
            g.public_resolver_ratio < 0.30,
            "{}: few resolvers carry it: {}",
            run.id,
            g.public_resolver_ratio
        );
    }
    // and Google's overall share is larger at .nl than .nz (Figure 1)
    let nl_share = nl2020().analysis.provider_share(Provider::Google);
    let nz_share = nz2020().analysis.provider_share(Provider::Google);
    assert!(
        nl_share > nz_share,
        "google .nl {nl_share} vs .nz {nz_share}"
    );
}

/// Claim 3 (Figure 2): between 2018 and 2020 the NS share jumps for the
/// Q-min adopters (Google, Cloudflare, Facebook) but not Microsoft; the
/// NS queries are overwhelmingly minimized-form names.
#[test]
fn claim3_qmin_ns_jump() {
    let old = &nl2018().analysis;
    let new = &nl2020().analysis;
    for p in [Provider::Google, Provider::Cloudflare, Provider::Facebook] {
        let before = old.provider(Some(p)).qtype_ratio(RType::Ns);
        let after = new.provider(Some(p)).qtype_ratio(RType::Ns);
        assert!(
            after > before + 0.20,
            "{p}: NS share {before} -> {after} must jump"
        );
        assert!(
            new.provider(Some(p)).minimized_ns_ratio() > 0.8,
            "{p}: post-deployment NS queries are minimized"
        );
    }
    let ms_before = old
        .provider(Some(Provider::Microsoft))
        .qtype_ratio(RType::Ns);
    let ms_after = new
        .provider(Some(Provider::Microsoft))
        .qtype_ratio(RType::Ns);
    assert!(
        (ms_after - ms_before).abs() < 0.05,
        "Microsoft never adopts: {ms_before} -> {ms_after}"
    );
    // 2018: A dominates everywhere (Figure 2's first panels)
    for p in asdb::cloud::ALL_PROVIDERS {
        let a_share = old.provider(Some(p)).qtype_ratio(RType::A);
        let ns_share = old.provider(Some(p)).qtype_ratio(RType::Ns);
        assert!(a_share > ns_share, "{p} 2018: A {a_share} > NS {ns_share}");
    }
}

/// Claim 3b: Amazon's Q-min signal appears at .nz (w2020) but not .nl.
#[test]
fn claim3b_amazon_nz_only() {
    let nz = nz2020()
        .analysis
        .provider(Some(Provider::Amazon))
        .qtype_ratio(RType::Ns);
    let nl = nl2020()
        .analysis
        .provider(Some(Provider::Amazon))
        .qtype_ratio(RType::Ns);
    assert!(nz > 0.15, "Amazon NS at .nz w2020: {nz}");
    assert!(nl < 0.10, "Amazon NS at .nl w2020: {nl}");
}

/// Claim 4 (Figure 2d / §4.2.2): every CP but Microsoft shows DNSSEC
/// validation; Cloudflare queries far more DS than DNSKEY; Google's DS
/// share is diluted by its non-validating cloud traffic.
#[test]
fn claim4_dnssec_validation() {
    let a = &nl2020().analysis;
    for p in [
        Provider::Google,
        Provider::Amazon,
        Provider::Facebook,
        Provider::Cloudflare,
    ] {
        assert!(
            a.provider(Some(p)).qtype().get(RType::Ds) > 0,
            "{p} validates (sends DS)"
        );
    }
    assert_eq!(
        a.provider(Some(Provider::Microsoft)).qtype().get(RType::Ds),
        0,
        "the one non-validating CP"
    );
    let cf = a.provider(Some(Provider::Cloudflare));
    assert!(
        cf.qtype().get(RType::Ds) > 10 * cf.qtype().get(RType::Dnskey).max(1),
        "Cloudflare DS >> DNSKEY"
    );
    let g_ds = a.provider(Some(Provider::Google)).qtype_ratio(RType::Ds);
    let cf_ds = cf.qtype_ratio(RType::Ds);
    assert!(
        g_ds < cf_ds / 2.0,
        "Google's DS share diluted: {g_ds} vs {cf_ds}"
    );
}

/// Claim 5 (Figure 4): at the root, every CP's junk ratio sits below
/// the vantage-wide 80%; at the ccTLDs, rates are comparable.
#[test]
fn claim5_junk_profiles() {
    let root = junk::junk_report("broot-w2020", &broot2020().analysis);
    assert!(
        (0.70..0.90).contains(&root.overall),
        "root junk {}",
        root.overall
    );
    assert!(
        root.all_providers_below_overall(),
        "{:?}",
        root.per_provider
    );
    let nl = junk::junk_report("nl-w2020", &nl2020().analysis);
    assert!(
        (0.08..0.20).contains(&nl.overall),
        ".nl junk {}",
        nl.overall
    );
    for (p, ratio) in &nl.per_provider {
        assert!((0.02..0.20).contains(ratio), "{p}: ccTLD junk {ratio}");
    }
}

/// Claim 6 (Tables 5/6): Amazon and Microsoft are ~all-IPv4;
/// Google/Cloudflare are roughly even; Facebook majority-IPv6 by 2020 —
/// and resolver-population shares track traffic shares.
#[test]
fn claim6_family_profiles() {
    let t = transport::transport_report("nl-w2020", &nl2020().analysis);
    let row = |name: &str| t.rows.iter().find(|r| r.provider == name).unwrap();
    assert!(
        row("Amazon").ipv6 < 0.08,
        "Amazon v6 {}",
        row("Amazon").ipv6
    );
    assert!(
        row("Microsoft").ipv6 < 0.03,
        "Microsoft v6 {}",
        row("Microsoft").ipv6
    );
    assert!(
        (0.35..0.60).contains(&row("Google").ipv6),
        "Google v6 {}",
        row("Google").ipv6
    );
    assert!(
        (0.35..0.60).contains(&row("Cloudflare").ipv6),
        "Cloudflare v6 {}",
        row("Cloudflare").ipv6
    );
    assert!(
        row("Facebook").ipv6 > 0.60,
        "Facebook v6 {}",
        row("Facebook").ipv6
    );
    // 2018: Facebook was not yet majority-v6
    let t18 = transport::transport_report("nl-w2018", &nl2018().analysis);
    let fb18 = t18.rows.iter().find(|r| r.provider == "Facebook").unwrap();
    assert!(fb18.ipv6 < 0.60, "Facebook 2018 v6 {}", fb18.ipv6);

    // Table 6: population shares correlate with traffic shares
    let amazon = transport::resolver_families(&nl2020().analysis, Provider::Amazon);
    assert!(
        (0.005..0.05).contains(&amazon.v6_share),
        "Amazon v6 pop {}",
        amazon.v6_share
    );
    assert!(
        amazon.v6_traffic_share < 0.08,
        "small v6 pop, small v6 traffic: {}",
        amazon.v6_traffic_share
    );
    let ms = transport::resolver_families(&nl2020().analysis, Provider::Microsoft);
    assert!(
        ms.v6_traffic_share < amazon.v6_traffic_share,
        "Microsoft's v6 resolvers are nearly idle"
    );
}

/// Claim 6b (Table 5, transport): only Facebook uses TCP heavily;
/// Google and Microsoft effectively never do.
#[test]
fn claim6b_tcp_profiles() {
    let t = transport::transport_report("nl-w2020", &nl2020().analysis);
    let row = |name: &str| t.rows.iter().find(|r| r.provider == name).unwrap();
    assert!(
        row("Facebook").tcp > 0.08,
        "Facebook TCP {}",
        row("Facebook").tcp
    );
    assert!(row("Google").tcp < 0.01);
    assert!(row("Microsoft").tcp < 0.01);
    assert!(row("Amazon").tcp < 0.10);
}

/// Claim 7 (Figures 5/8): Facebook's dominant site sends no TCP; sites
/// with a large v6-minus-v4 RTT gap prefer IPv4; the dual-stack join
/// works through PTR names.
#[test]
fn claim7_facebook_sites() {
    let run = nl2020();
    let dual = &run.dualstack;
    assert_eq!(dual.site_count(), 13, "13 sites identified via PTR");
    assert!(
        dual.dual_stack_resolvers() > 50,
        "join found dual-stack resolvers"
    );
    assert!(
        dual.no_ptr().next().is_some(),
        "a few addresses lack PTR records"
    );

    let server_a: IpAddr = run.spec.servers[0].v4.into();
    let report = run.dualstack.report_for_server(server_a);
    let loc1 = &report[0];
    assert!(loc1.queries_v4 + loc1.queries_v6 > 0);
    assert_eq!(
        (loc1.median_rtt_v4_us, loc1.median_rtt_v6_us),
        (None, None),
        "the dominant site sends no TCP"
    );
    // v4-preferring sites are exactly those with a big v6 RTT penalty
    for site in &report {
        if let (Some(r4), Some(r6)) = (site.median_rtt_v4_us, site.median_rtt_v6_us) {
            if r6 > r4 + 30_000 {
                assert!(
                    site.v6_ratio < 0.5,
                    "{}: v6 penalty {}us but ratio {}",
                    site.site,
                    r6 - r4,
                    site.v6_ratio
                );
            } else if r4 + 10_000 > r6 {
                assert!(
                    site.v6_ratio > 0.5,
                    "{}: no v6 penalty, ratio {}",
                    site.site,
                    site.v6_ratio
                );
            }
        }
    }
}

/// Claim 8 (Figure 6 / §4.4): ~1/3 of Facebook's EDNS sizes sit at 512
/// vs Google concentrated at 1232+; Facebook's truncation rate exceeds
/// Google's and Microsoft's by orders of magnitude.
#[test]
fn claim8_edns_and_truncation() {
    let run = nl2020();
    let fb = ednssize::edns_report_for(&run.analysis, Provider::Facebook);
    let g = ednssize::edns_report_for(&run.analysis, Provider::Google);
    let ms = ednssize::edns_report_for(&run.analysis, Provider::Microsoft);
    assert!(
        (0.22..0.42).contains(&fb.fraction_at_most(512)),
        "FB at 512: {}",
        fb.fraction_at_most(512)
    );
    assert!(
        g.fraction_at_most(512) < 0.02,
        "Google at 512: {}",
        g.fraction_at_most(512)
    );
    assert!(
        (0.15..0.35).contains(&g.fraction_at_most(1232)),
        "Google at 1232: {}",
        g.fraction_at_most(1232)
    );
    assert!(
        fb.truncation_ratio > 0.10 && fb.truncation_ratio < 0.30,
        "FB truncation {}",
        fb.truncation_ratio
    );
    assert!(
        g.truncation_ratio < 0.005,
        "Google truncation {}",
        g.truncation_ratio
    );
    assert!(
        ms.truncation_ratio < 0.005,
        "Microsoft truncation {}",
        ms.truncation_ratio
    );
    assert!(
        fb.truncation_ratio > 50.0 * g.truncation_ratio.max(1e-6),
        "orders of magnitude apart"
    );
}

/// Table 3 shape: traffic grows year over year at every vantage; the
/// valid fraction matches the paper's targets.
#[test]
fn table3_growth_and_validity() {
    let nl18 = nl2018();
    let nl20 = nl2020();
    assert!(nl20.analysis.total_queries > nl18.analysis.total_queries);
    let v18 = nl18.analysis.valid_fraction();
    let v20 = nl20.analysis.valid_fraction();
    assert!((v18 - 0.896).abs() < 0.03, "w2018 valid {v18}");
    assert!((v20 - 0.864).abs() < 0.03, "w2020 valid {v20}");
    let root = broot2020().analysis.valid_fraction();
    assert!((root - 0.20).abs() < 0.05, "B-Root 2020 valid {root}");
}
