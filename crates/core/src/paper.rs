//! The paper's published numbers, as machine-checkable anchors, and the
//! comparison harness that runs this pipeline and lines its measured
//! values up against them.
//!
//! `dnscentral experiments` uses this to *generate* EXPERIMENTS.md, so
//! the paper-vs-measured record is always reproducible from source.

use crate::analysis::DatasetAnalysis;
use crate::experiments::run_monthly_series;
use crate::pipeline::PipelineOpts;
use crate::qmin::MonthlySample;
use crate::{ednssize, junk, metrics, qmin, transport};
use asdb::cloud::Provider;
use serde::Serialize;
use simnet::profile::Vantage;
use simnet::scenario::{dataset, DatasetSpec, Scale};

/// One measured dataset, however it was produced — a fresh pipeline run
/// or a warehouse scan. The comparison body only needs the id and the
/// aggregated analysis.
pub struct Measured {
    /// The dataset id ("nl-w2020"...).
    pub id: String,
    /// The aggregated single-pass analysis.
    pub analysis: DatasetAnalysis,
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonRow {
    /// Exhibit identifier ("Figure 1", "Table 5"...).
    pub exhibit: &'static str,
    /// What is being compared.
    pub metric: String,
    /// The paper's value, as printed there.
    pub paper: String,
    /// This pipeline's measured value.
    pub measured: String,
    /// Does the measured value sit inside the acceptance band?
    pub ok: bool,
}

fn pct_row(
    exhibit: &'static str,
    metric: impl Into<String>,
    paper: f64,
    measured: f64,
    tolerance: f64,
) -> ComparisonRow {
    ComparisonRow {
        exhibit,
        metric: metric.into(),
        paper: format!("{:.1}%", paper * 100.0),
        measured: format!("{:.1}%", measured * 100.0),
        ok: (paper - measured).abs() <= tolerance,
    }
}

/// The five datasets the comparison reads, in the order
/// [`compare_rows`] takes them.
pub fn comparison_specs() -> Vec<DatasetSpec> {
    vec![
        dataset(Vantage::Nl, 2020),
        dataset(Vantage::Nl, 2019),
        dataset(Vantage::Nz, 2020),
        dataset(Vantage::Nz, 2019),
        dataset(Vantage::BRoot, 2020),
    ]
}

/// Run the comparison suite with up to `jobs` datasets (and then
/// monthly samples) in flight, each through the pipeline `opts`
/// describes. This generates and analyzes five datasets plus two
/// monthly series; at [`Scale::small`] it takes tens of seconds
/// serially, at [`Scale::report`] some minutes. The rows are identical
/// for any job count — results are merged in dataset order.
pub fn compare_with(
    scale: Scale,
    seed: u64,
    opts: &PipelineOpts,
    jobs: usize,
) -> Vec<ComparisonRow> {
    let datasets: Vec<Measured> =
        crate::suite::run_suite(comparison_specs(), scale, seed, opts, jobs)
            .into_iter()
            .map(|run| Measured {
                id: run.id,
                analysis: run.analysis,
            })
            .collect();
    let series = |vantage| run_monthly_series(vantage, Provider::Google, scale, seed, opts, jobs);
    compare_rows(&datasets, &series(Vantage::Nl), &series(Vantage::Nz))
}

/// The comparison body over already-measured inputs: the five
/// [`comparison_specs`] datasets plus both Figure 3 Google monthly
/// series. [`compare_with`] feeds it fresh pipeline runs;
/// [`crate::store::compare`] feeds it warehouse scans — same rows
/// either way.
pub fn compare_rows(
    datasets: &[Measured],
    nl_series: &[MonthlySample],
    nz_series: &[MonthlySample],
) -> Vec<ComparisonRow> {
    let [nl20, nl19, nz20, nz19, br20] = datasets else {
        panic!("compare_rows takes the five comparison_specs datasets");
    };
    let mut rows = Vec::new();

    // --- Table 3: valid fractions -----------------------------------
    for (run, paper) in [(nl20, 11.88 / 13.75), (nz20, 3.03 / 4.57), (br20, 0.20)] {
        rows.push(pct_row(
            "Table 3",
            format!("{}: valid-query fraction", run.id),
            paper,
            run.analysis.valid_fraction(),
            0.03,
        ));
    }

    // --- Figure 1: cloud shares --------------------------------------
    rows.push(pct_row(
        "Figure 1",
        "nl-w2019: 5-CP share (\u{2248}1/3)",
        0.333,
        nl19.analysis.cloud_share(),
        0.04,
    ));
    rows.push(pct_row(
        "Figure 1",
        "nz-w2019: 5-CP share (<30%)",
        0.28,
        nz19.analysis.cloud_share(),
        0.04,
    ));
    rows.push(pct_row(
        "Figure 1",
        "broot-w2020: 5-CP share",
        0.087,
        br20.analysis.cloud_share(),
        0.015,
    ));

    // --- Table 4/7: the Google split ---------------------------------
    for (run, paper_q, paper_r) in [
        (nl20, 0.865, 0.156),
        (nz20, 0.884, 0.187),
        (nl19, 0.893, 0.154),
        (nz19, 0.844, 0.177),
    ] {
        let g = metrics::google_split(&run.id, &run.analysis);
        rows.push(pct_row(
            "Table 4/7",
            format!("{}: Google Public DNS query share", run.id),
            paper_q,
            g.public_query_ratio,
            0.03,
        ));
        rows.push(pct_row(
            "Table 4/7",
            format!("{}: Google Public DNS resolver share", run.id),
            paper_r,
            g.public_resolver_ratio,
            0.06,
        ));
    }

    // --- Table 5: family/transport (w2020 .nl + .nz) ------------------
    let t5 = |run: &Measured, p: Provider| {
        let rep = transport::transport_report(&run.id, &run.analysis);
        rep.rows
            .into_iter()
            .find(|r| r.provider == p.name())
            .expect("provider present")
    };
    for (run, rows_expected) in [
        (
            nl20,
            [
                (Provider::Google, 0.48, 0.00),
                (Provider::Amazon, 0.03, 0.05),
                (Provider::Microsoft, 0.00, 0.00),
                (Provider::Facebook, 0.76, 0.14),
                (Provider::Cloudflare, 0.49, 0.02),
            ],
        ),
        (
            nz20,
            [
                (Provider::Google, 0.46, 0.00),
                (Provider::Amazon, 0.04, 0.05),
                (Provider::Microsoft, 0.00, 0.00),
                (Provider::Facebook, 0.83, 0.15),
                (Provider::Cloudflare, 0.51, 0.01),
            ],
        ),
    ] {
        for (p, v6, tcp) in rows_expected {
            let got = t5(run, p);
            rows.push(pct_row(
                "Table 5",
                format!("{}: {} IPv6 share", run.id, p.name()),
                v6,
                got.ipv6,
                0.08,
            ));
            rows.push(pct_row(
                "Table 5",
                format!("{}: {} TCP share", run.id, p.name()),
                tcp,
                got.tcp,
                0.06,
            ));
        }
    }

    // --- Table 6: resolver families (w2020) ---------------------------
    for (run, amazon_v6, ms_v6) in [(nl20, 0.018, 0.030), (nz20, 0.021, 0.046)] {
        let a = transport::resolver_families(&run.analysis, Provider::Amazon);
        let m = transport::resolver_families(&run.analysis, Provider::Microsoft);
        rows.push(pct_row(
            "Table 6",
            format!("{}: Amazon IPv6 resolver share", run.id),
            amazon_v6,
            a.v6_share,
            0.02,
        ));
        rows.push(pct_row(
            "Table 6",
            format!("{}: Microsoft IPv6 resolver share", run.id),
            ms_v6,
            m.v6_share,
            0.04,
        ));
    }

    // --- Figure 4: junk ----------------------------------------------
    let root_junk = junk::junk_report(&br20.id, &br20.analysis);
    rows.push(pct_row(
        "Figure 4",
        "broot-w2020: overall junk",
        0.80,
        root_junk.overall,
        0.03,
    ));
    rows.push(ComparisonRow {
        exhibit: "Figure 4",
        metric: "broot-w2020: every CP below the vantage junk level".into(),
        paper: "yes".into(),
        measured: if root_junk.all_providers_below_overall() {
            "yes"
        } else {
            "no"
        }
        .into(),
        ok: root_junk.all_providers_below_overall(),
    });

    // --- Figure 6 / §4.4: EDNS + truncation ---------------------------
    {
        let fb = ednssize::edns_report_for(&nl20.analysis, Provider::Facebook);
        let g = ednssize::edns_report_for(&nl20.analysis, Provider::Google);
        let ms = ednssize::edns_report_for(&nl20.analysis, Provider::Microsoft);
        rows.push(pct_row(
            "Figure 6",
            "nl-w2020: Facebook EDNS \u{2264}512",
            0.30,
            fb.fraction_at_most(512),
            0.12,
        ));
        rows.push(pct_row(
            "Figure 6",
            "nl-w2020: Google EDNS \u{2264}1232",
            0.24,
            g.fraction_at_most(1232),
            0.12,
        ));
        rows.push(pct_row(
            "\u{a7}4.4",
            "nl-w2020: Facebook UDP truncation",
            0.1716,
            fb.truncation_ratio,
            0.07,
        ));
        rows.push(pct_row(
            "\u{a7}4.4",
            "nl-w2020: Google UDP truncation",
            0.0004,
            g.truncation_ratio,
            0.002,
        ));
        rows.push(pct_row(
            "\u{a7}4.4",
            "nl-w2020: Microsoft UDP truncation",
            0.0001,
            ms.truncation_ratio,
            0.002,
        ));
    }

    // --- §4.1: the B-Root AS ranking remark ---------------------------
    let rank = br20.analysis.first_cloud_as_rank();
    rows.push(ComparisonRow {
        exhibit: "\u{a7}4.1",
        metric: "broot-w2020: rank of first cloud AS (behind ISPs)".into(),
        paper: "5".into(),
        measured: rank.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
        ok: rank.is_some_and(|r| (3..=8).contains(&r)),
    });

    // --- Figure 3: the Q-min change-point -----------------------------
    for (vantage, series) in [(Vantage::Nl, nl_series), (Vantage::Nz, nz_series)] {
        let detected = qmin::detect_cusum(series, 0.05, 0.3);
        let got = detected
            .map(|cp| format!("{}-{:02}", cp.year, cp.month))
            .unwrap_or_else(|| "none".into());
        rows.push(ComparisonRow {
            exhibit: "Figure 3",
            metric: format!("{}: Google Q-min deployment month", vantage.label()),
            paper: "2019-12".into(),
            measured: got.clone(),
            ok: got == "2019-12",
        });
        if vantage == Vantage::Nz {
            let feb = series.iter().find(|s| (s.year, s.month) == (2020, 2));
            let jan = series.iter().find(|s| (s.year, s.month) == (2020, 1));
            let dipped = matches!((jan, feb), (Some(j), Some(f))
                if f.address_share > j.address_share + 0.1);
            rows.push(ComparisonRow {
                exhibit: "Figure 3b",
                metric: ".nz: Feb-2020 cyclic-dependency A/AAAA surge".into(),
                paper: "present".into(),
                measured: if dipped { "present" } else { "absent" }.into(),
                ok: dipped,
            });
        }
    }

    rows
}

/// Render the comparison as a Markdown table.
pub fn render_markdown(rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str("| Exhibit | Metric | Paper | Measured | In band |\n");
    out.push_str("|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.exhibit,
            r.metric,
            r.paper,
            r.measured,
            if r.ok { "yes" } else { "**NO**" }
        ));
    }
    let pass = rows.iter().filter(|r| r.ok).count();
    out.push_str(&format!("\n{pass}/{} comparisons in band.\n", rows.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_mostly_lands_at_tiny_scale() {
        let rows = compare_with(Scale::tiny(), 42, &PipelineOpts::default(), 1);
        assert!(rows.len() > 30, "broad coverage: {} rows", rows.len());
        let pass = rows.iter().filter(|r| r.ok).count();
        // tiny scale is noisy; demand a strong majority, not perfection
        assert!(
            pass * 10 >= rows.len() * 8,
            "{pass}/{} in band: {:#?}",
            rows.len(),
            rows.iter().filter(|r| !r.ok).collect::<Vec<_>>()
        );
        // the headline rows must hold even at tiny scale
        for must in ["Google Q-min deployment month", "5-CP share"] {
            assert!(
                rows.iter()
                    .filter(|r| r.metric.contains(must))
                    .all(|r| r.ok),
                "{must}: {:?}",
                rows.iter()
                    .filter(|r| r.metric.contains(must))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn markdown_renders() {
        let rows = vec![ComparisonRow {
            exhibit: "Figure 1",
            metric: "test".into(),
            paper: "30%".into(),
            measured: "31%".into(),
            ok: true,
        }];
        let md = render_markdown(&rows);
        assert!(md.contains("| Figure 1 | test | 30% | 31% | yes |"));
        assert!(md.contains("1/1"));
    }
}
