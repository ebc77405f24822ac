//! Exhibit regenerators, figures: Figures 1-6 from shared pipeline
//! runs; the series is printed once, the analysis stage is timed.

use bench::{quick, shared_broot2020, shared_nl2020};
use criterion::Criterion;
use dnscentral_core::experiments::run_monthly_series;
use dnscentral_core::pipeline::PipelineOpts;
use dnscentral_core::qmin::{detect_cusum, detect_threshold};
use dnscentral_core::{ednssize, junk, metrics, report};
use simnet::profile::Vantage;
use simnet::scenario::Scale;
use std::net::IpAddr;

fn print_once(what: &str, body: &str) {
    eprintln!("\n--- regenerated {what} ---\n{body}");
}

fn benches(c: &mut Criterion) {
    let nl = shared_nl2020();
    let broot = shared_broot2020();

    // Figure 1: cloud shares.
    let shares = vec![
        metrics::cloud_share(&nl.id, &nl.analysis),
        metrics::cloud_share(&broot.id, &broot.analysis),
    ];
    print_once("Figure 1 (scaled)", &report::render_fig1(&shares));
    c.bench_function("figures/fig1_cloud_share", |b| {
        b.iter(|| metrics::cloud_share(&nl.id, &nl.analysis))
    });

    // Figure 2: qtype mixes.
    let mixes: Vec<_> = asdb::cloud::ALL_PROVIDERS
        .iter()
        .map(|&p| metrics::qtype_mix(&nl.id, &nl.analysis, Some(p)))
        .collect();
    print_once("Figure 2 (scaled)", &report::render_fig2(&mixes));
    c.bench_function("figures/fig2_qtype_mix", |b| {
        b.iter(|| metrics::qtype_mix(&nl.id, &nl.analysis, Some(asdb::cloud::Provider::Google)))
    });

    // Figure 3: the monthly series + change-point detection.
    let series = run_monthly_series(
        Vantage::Nl,
        asdb::cloud::Provider::Google,
        Scale::tiny(),
        42,
        &PipelineOpts::default(),
        1,
    );
    let detected = detect_cusum(&series, 0.05, 0.3);
    print_once(
        "Figure 3 (scaled)",
        &report::render_fig3(".nl", &series, detected),
    );
    c.bench_function("figures/fig3_changepoint_cusum", |b| {
        b.iter(|| detect_cusum(&series, 0.05, 0.3))
    });
    c.bench_function("figures/fig3_changepoint_threshold", |b| {
        b.iter(|| detect_threshold(&series, 0.15))
    });

    // Figure 4: junk ratios.
    let junks = vec![
        junk::junk_report(&nl.id, &nl.analysis),
        junk::junk_report(&broot.id, &broot.analysis),
    ];
    print_once("Figure 4 (scaled)", &report::render_fig4(&junks));
    c.bench_function("figures/fig4_junk", |b| {
        b.iter(|| junk::junk_report(&nl.id, &nl.analysis))
    });

    // Figures 5/8: the Facebook site analysis needs mutable access for
    // medians; rebuild a small run for it.
    let run = dnscentral_core::experiments::run_dataset(Vantage::Nl, 2020, Scale::tiny(), 42);
    let server_a: IpAddr = run.spec.servers[0].v4.into();
    let server_b: IpAddr = run.spec.servers[1].v4.into();
    let sites_a = run.dualstack.report_for_server(server_a);
    let sites_b = run.dualstack.report_for_server(server_b);
    print_once(
        "Figure 5 (scaled, server A)",
        &report::render_fig5("nl-A", &sites_a),
    );
    print_once(
        "Figure 8 (scaled, server B)",
        &report::render_fig5("nl-B", &sites_b),
    );
    c.bench_function("figures/fig5_site_report", |b| {
        b.iter(|| run.dualstack.report_for_server(server_a))
    });

    // Figure 6: EDNS CDFs.
    let reports = ednssize::edns_report(&run.analysis);
    print_once("Figure 6 (scaled)", &report::render_fig6(&reports));
    c.bench_function("figures/fig6_edns_cdf", |b| {
        b.iter(|| ednssize::edns_report_for(&run.analysis, asdb::cloud::Provider::Facebook))
    });
}

fn main() {
    let mut c = quick();
    benches(&mut c);
    c.final_summary();
}
