//! Text rendering of every table and figure the paper reports.
//!
//! Each `render_*` function produces a plain-text block shaped like the
//! paper's corresponding exhibit, so the CLI's `report` subcommand and
//! EXPERIMENTS.md can be regenerated mechanically.

use crate::analysis::DatasetAnalysis;
use crate::dualstack::SiteReport;
use crate::ednssize::EdnsCdfReport;
use crate::junk::JunkReport;
use crate::metrics::{CloudShare, DatasetSummary, GoogleSplit, QtypeMix};
use crate::qmin::{ChangePoint, MonthlySample};
use crate::transport::{ResolverFamilyRow, TransportReport};
use asdb::cloud::ALL_PROVIDERS;

/// A minimal fixed-width text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}", cell, w = widths[i]));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn frac2(x: f64) -> String {
    format!("{x:.2}")
}

/// Table 1: the providers and their ASes (static ground truth).
pub fn render_table1() -> String {
    let mut t = TextTable::new(vec!["Company", "ASes", "Public DNS?"]);
    for p in ALL_PROVIDERS {
        let asns = p
            .asns()
            .iter()
            .map(|a| a.0.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        t.row(vec![
            p.name().to_string(),
            asns,
            if p.runs_public_dns() {
                "Yes".into()
            } else {
                "No".into()
            },
        ]);
    }
    format!(
        "Table 1: Cloud/content providers and their ASes\n{}",
        t.render()
    )
}

/// Table 2: the analyzed authoritative servers and zone sizes, from
/// the scenario configuration.
pub fn render_table2() -> String {
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, ZoneSpec};
    let mut t = TextTable::new(vec!["Week", "Vantage", "Analyzed NSes", "Zone size"]);
    for vantage in [Vantage::Nl, Vantage::Nz] {
        for year in [2018u16, 2019, 2020] {
            let spec = dataset(vantage, year);
            let size = match spec.zone {
                ZoneSpec::Nl { slds } => format!("{:.1}M", slds as f64 / 1e6),
                ZoneSpec::Nz { slds, thirds } => {
                    format!("{}K", (slds + thirds) / 1000)
                }
                ZoneSpec::Root { tlds } => format!("{tlds} TLDs"),
            };
            t.row(vec![
                format!("w{year}: {}", spec.start.civil_date()),
                vantage.label().to_string(),
                spec.servers.len().to_string(),
                size,
            ]);
        }
    }
    format!(
        "Table 2: analyzed authoritative servers and zones\n{}",
        t.render()
    )
}

/// Table 3: the dataset inventory.
pub fn render_table3(summaries: &[DatasetSummary]) -> String {
    let mut t = TextTable::new(vec![
        "Dataset",
        "Queries(total)",
        "Queries(valid)",
        "Resolvers",
        "ASes",
    ]);
    for s in summaries {
        t.row(vec![
            s.id.clone(),
            s.queries_total.to_string(),
            s.queries_valid.to_string(),
            s.resolvers.to_string(),
            s.ases.to_string(),
        ]);
    }
    format!("Table 3: Evaluated datasets (scaled)\n{}", t.render())
}

/// Figure 1: cloud query share per dataset.
pub fn render_fig1(shares: &[CloudShare]) -> String {
    let mut t = TextTable::new(vec![
        "Dataset",
        "Google",
        "Amazon",
        "Microsoft",
        "Facebook",
        "Cloudflare",
        "All CPs",
    ]);
    for s in shares {
        let mut cells = vec![s.id.clone()];
        for (_, share) in &s.per_provider {
            cells.push(pct(*share));
        }
        cells.push(pct(s.total));
        t.row(cells);
    }
    format!("Figure 1: Clouds query ratio per vantage\n{}", t.render())
}

/// Tables 4/7: the Google Public DNS split.
pub fn render_table4(splits: &[GoogleSplit]) -> String {
    let mut t = TextTable::new(vec![
        "Dataset",
        "Google queries",
        "Public DNS",
        "Rest",
        "Ratio pub (q)",
        "Resolvers",
        "Pub resolvers",
        "Ratio pub (r)",
    ]);
    for g in splits {
        t.row(vec![
            g.id.clone(),
            g.total_queries.to_string(),
            g.public_queries.to_string(),
            g.rest_queries.to_string(),
            pct(g.public_query_ratio),
            g.total_resolvers.to_string(),
            g.public_resolvers.to_string(),
            pct(g.public_resolver_ratio),
        ]);
    }
    format!(
        "Table 4/7: Queries from Google, Public DNS vs rest\n{}",
        t.render()
    )
}

/// Figure 2: per-provider qtype mixes (top types).
pub fn render_fig2(mixes: &[QtypeMix]) -> String {
    let mut out = String::from("Figure 2: Resource records per cloud provider\n");
    for m in mixes {
        out.push_str(&format!("[{} @ {}] ", m.provider, m.id));
        let top: Vec<String> = m
            .shares
            .iter()
            .take(6)
            .map(|(t, s)| format!("{t}={}", pct(*s)))
            .collect();
        out.push_str(&top.join("  "));
        out.push('\n');
    }
    out
}

/// Figure 3: the monthly Google series with detection verdicts.
pub fn render_fig3(label: &str, series: &[MonthlySample], detected: Option<ChangePoint>) -> String {
    let mut t = TextTable::new(vec![
        "Month",
        "Queries",
        "NS share",
        "A+AAAA share",
        "NS minimized",
    ]);
    for s in series {
        t.row(vec![
            format!("{}-{:02}", s.year, s.month),
            s.total.to_string(),
            pct(s.ns_share),
            pct(s.address_share),
            pct(s.minimized_ns_share),
        ]);
    }
    let verdict = match detected {
        Some(cp) => format!("Q-min change-point detected: {}-{:02}", cp.year, cp.month),
        None => "No Q-min change-point detected".to_string(),
    };
    format!(
        "Figure 3: Google monthly queries to {label}\n{}{verdict}\n",
        t.render()
    )
}

/// Figure 4: junk ratios.
pub fn render_fig4(reports: &[JunkReport]) -> String {
    let mut t = TextTable::new(vec![
        "Dataset",
        "Overall",
        "Google",
        "Amazon",
        "Microsoft",
        "Facebook",
        "Cloudflare",
        "Other",
    ]);
    for r in reports {
        let mut cells = vec![r.id.clone(), pct(r.overall)];
        for (_, ratio) in &r.per_provider {
            cells.push(pct(*ratio));
        }
        cells.push(pct(r.other));
        t.row(cells);
    }
    format!("Figure 4: Clouds' DNS junk ratio\n{}", t.render())
}

/// Table 5: transport/family distribution.
pub fn render_table5(reports: &[TransportReport]) -> String {
    let mut t = TextTable::new(vec!["Dataset", "Provider", "IPv4", "IPv6", "UDP", "TCP"]);
    for rep in reports {
        for row in &rep.rows {
            t.row(vec![
                rep.id.clone(),
                row.provider.clone(),
                frac2(row.ipv4),
                frac2(row.ipv6),
                frac2(row.udp),
                frac2(row.tcp),
            ]);
        }
    }
    format!("Table 5: Query distribution per CP\n{}", t.render())
}

/// Table 6: Amazon/Microsoft resolver families.
pub fn render_table6(rows: &[(String, ResolverFamilyRow)]) -> String {
    let mut t = TextTable::new(vec![
        "Dataset",
        "Provider",
        "Resolvers",
        "IPv4",
        "IPv6",
        "IPv6 share",
        "IPv6 traffic",
    ]);
    for (id, r) in rows {
        t.row(vec![
            id.clone(),
            r.provider.clone(),
            r.total.to_string(),
            r.v4.to_string(),
            r.v6.to_string(),
            pct(r.v6_share),
            pct(r.v6_traffic_share),
        ]);
    }
    format!(
        "Table 6: Resolver populations by IP version\n{}",
        t.render()
    )
}

/// Figures 5/8: Facebook sites against one server.
pub fn render_fig5(server_label: &str, sites: &[SiteReport]) -> String {
    let mut t = TextTable::new(vec![
        "Loc",
        "Site",
        "IPv4 q",
        "IPv6 q",
        "IPv6 ratio",
        "med RTT v4 (ms)",
        "med RTT v6 (ms)",
    ]);
    for s in sites {
        let fmt_rtt = |r: Option<u64>| match r {
            Some(us) => format!("{:.1}", us as f64 / 1000.0),
            None => "-".to_string(),
        };
        t.row(vec![
            s.rank.to_string(),
            s.site.clone(),
            s.queries_v4.to_string(),
            s.queries_v6.to_string(),
            pct(s.v6_ratio),
            fmt_rtt(s.median_rtt_v4_us),
            fmt_rtt(s.median_rtt_v6_us),
        ]);
    }
    format!(
        "Figure 5/8: Facebook sites vs {server_label}\n{}",
        t.render()
    )
}

/// Figure 6: EDNS size CDFs + truncation.
pub fn render_fig6(reports: &[EdnsCdfReport]) -> String {
    let mut t = TextTable::new(vec![
        "Provider",
        "<=512",
        "<=1232",
        "<=1400",
        "<=4096",
        "Truncated UDP",
        "Med. resp (B)",
    ]);
    for r in reports {
        let at = |x: u64| pct(r.fraction_at_most(x));
        t.row(vec![
            r.provider.clone(),
            at(512),
            at(1232),
            at(1400),
            at(4096),
            format!("{:.2}%", r.truncation_ratio * 100.0),
            r.median_response_size
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    format!(
        "Figure 6: CDF of EDNS(0) UDP size + truncation\n{}",
        t.render()
    )
}

/// Every per-dataset exhibit as one text block: the `dataset`
/// subcommand's output, and the per-source body of warehouse-backed
/// `report --warehouse` — both paths render through here so they are
/// byte-identical by construction.
pub fn render_dataset_report(
    id: &str,
    vantage: simnet::profile::Vantage,
    analysis: &DatasetAnalysis,
    dualstack: &crate::dualstack::DualStackAnalysis,
    spec: &simnet::scenario::DatasetSpec,
) -> String {
    use crate::{ednssize, junk, metrics, transport};
    let mut out = format!("=== {id} ===\n");
    out.push_str(&render_table3(&[metrics::dataset_summary(id, analysis)]));
    out.push_str(&render_fig1(&[metrics::cloud_share(id, analysis)]));
    out.push_str(&render_table4(&[metrics::google_split(id, analysis)]));
    let mixes: Vec<_> = ALL_PROVIDERS
        .iter()
        .map(|&p| metrics::qtype_mix(id, analysis, Some(p)))
        .collect();
    out.push_str(&render_fig2(&mixes));
    out.push_str(&render_fig4(&[junk::junk_report(id, analysis)]));
    out.push_str(&render_table5(&[transport::transport_report(id, analysis)]));
    let t6: Vec<_> = [
        asdb::cloud::Provider::Amazon,
        asdb::cloud::Provider::Microsoft,
    ]
    .iter()
    .map(|&p| (id.to_string(), transport::resolver_families(analysis, p)))
    .collect();
    out.push_str(&render_table6(&t6));
    out.push_str(&render_fig6(&ednssize::edns_report(analysis)));
    if vantage == simnet::profile::Vantage::BRoot {
        out.push_str(&render_as_ranking(analysis, 8));
    }
    for server in spec.servers.iter().take(2) {
        let sites = dualstack.report_for_server(std::net::IpAddr::V4(server.v4));
        if sites.iter().any(|s| s.queries_v4 + s.queries_v6 > 0) {
            out.push_str(&render_fig5(&server.name, &sites));
        }
    }
    out
}

/// Everything the `report` command prints: the nine datasets, then the
/// Figure 3 series. The datasets come back from the suite scheduler (at
/// most `jobs` in flight) in spec order and every exhibit renders from
/// them in that order, so the text is byte-identical for any
/// `jobs`/`shards` value.
pub fn render_full_report(
    scale: simnet::scenario::Scale,
    seed: u64,
    opts: &crate::pipeline::PipelineOpts,
    jobs: usize,
) -> String {
    use crate::{ednssize, experiments, junk, metrics, qmin, transport};
    use asdb::cloud::Provider;
    use simnet::profile::Vantage;
    let mut out = String::new();
    // every exhibit is followed by one blank line
    let mut block = |text: &str| {
        out.push_str(text);
        out.push('\n');
    };
    let (mut summaries, mut shares, mut splits) = (Vec::new(), Vec::new(), Vec::new());
    let (mut junks, mut transports, mut t6) = (Vec::new(), Vec::new(), Vec::new());
    let mut broot_valid = Vec::new();
    block(&render_table1());
    block(&render_table2());
    let runs = crate::run_suite(experiments::table3_specs(), scale, seed, opts, jobs);
    for run in &runs {
        let (vantage, year) = (run.spec.vantage, run.spec.year);
        let (id, analysis) = (run.id.as_str(), &run.analysis);
        summaries.push(metrics::dataset_summary(id, analysis));
        shares.push(metrics::cloud_share(id, analysis));
        if year >= 2019 && vantage != Vantage::BRoot {
            splits.push(metrics::google_split(id, analysis));
        }
        junks.push(junk::junk_report(id, analysis));
        transports.push(transport::transport_report(id, analysis));
        if year == 2020 && vantage != Vantage::BRoot {
            for p in [Provider::Amazon, Provider::Microsoft] {
                t6.push((id.to_string(), transport::resolver_families(analysis, p)));
            }
        }
        let mixes = || -> Vec<QtypeMix> {
            ALL_PROVIDERS
                .iter()
                .map(|&p| metrics::qtype_mix(id, analysis, Some(p)))
                .collect()
        };
        if vantage == Vantage::Nl && year == 2020 {
            // the .nl w2020 exhibits: Figure 2 panel, Figure 6, Figure 5/8
            block(&render_fig2(&mixes()));
            block(&render_fig6(&ednssize::edns_report(analysis)));
            for server in &run.spec.servers {
                let sites = run
                    .dualstack
                    .report_for_server(std::net::IpAddr::V4(server.v4));
                block(&render_fig5(&server.name, &sites));
            }
        }
        if vantage == Vantage::Nl && year == 2019 {
            // Appendix B, Figure 7: the 2019 qtype panels
            block(&render_fig2(&mixes()).replace("Figure 2", "Figure 7"));
        }
        if vantage == Vantage::BRoot {
            broot_valid.push((year, analysis.valid_fraction()));
            if year == 2020 {
                block(&render_as_ranking(analysis, 8));
            }
        }
    }
    block(&render_table3(&summaries));
    block(&render_fig1(&shares));
    block(&render_table4(&splits));
    block(&render_fig4(&junks));
    block(&render_table5(&transports));
    block(&render_table6(&t6));
    block(&render_junk_overview(&broot_valid));
    for vantage in [Vantage::Nl, Vantage::Nz] {
        let series =
            experiments::run_monthly_series(vantage, Provider::Google, scale, seed, opts, jobs);
        let detected = qmin::detect_cusum(&series, 0.05, 0.3);
        block(&render_fig3(vantage.label(), &series, detected));
    }
    out
}

/// Machine-readable export of every per-dataset exhibit, for plotting
/// pipelines and EXPERIMENTS.md generation.
pub fn dataset_json(id: &str, analysis: &DatasetAnalysis) -> serde_json::Value {
    use crate::{concentration, ednssize, junk, metrics, transport};
    let mixes: Vec<_> = ALL_PROVIDERS
        .iter()
        .map(|&p| metrics::qtype_mix(id, analysis, Some(p)))
        .collect();
    let t6: Vec<_> = [
        asdb::cloud::Provider::Amazon,
        asdb::cloud::Provider::Microsoft,
    ]
    .iter()
    .map(|&p| transport::resolver_families(analysis, p))
    .collect();
    serde_json::json!({
        "id": id,
        "table3": metrics::dataset_summary(id, analysis),
        "figure1": metrics::cloud_share(id, analysis),
        "table4": metrics::google_split(id, analysis),
        "figure2": mixes,
        "figure4": junk::junk_report(id, analysis),
        "table5": transport::transport_report(id, analysis),
        "table6": t6,
        "figure6": ednssize::edns_report(analysis),
        "concentration": concentration::concentration(id, analysis),
    })
}

/// Concentration indices (the Allman/ISOC-style extension).
pub fn render_concentration(reports: &[crate::concentration::ConcentrationReport]) -> String {
    let mut t = TextTable::new(vec![
        "Dataset",
        "ASes",
        "CR-1",
        "CR-10",
        "CR-100",
        "HHI",
        "Gini",
        "5-CP share",
    ]);
    for r in reports {
        t.row(vec![
            r.id.clone(),
            r.ases.to_string(),
            pct(r.cr1),
            pct(r.cr10),
            pct(r.cr100),
            format!("{:.4}", r.hhi),
            format!("{:.3}", r.gini),
            pct(r.cloud_share),
        ]);
    }
    format!(
        "Concentration indices over per-AS query volume\n{}",
        t.render()
    )
}

/// The §3 root junk cross-check against RSSAC002-style aggregates.
pub fn render_junk_overview(measured_broot_valid: &[(u16, f64)]) -> String {
    let mut t = TextTable::new(vec![
        "Year",
        "RSSAC002 valid (11 letters)",
        "B-Root valid (this pipeline)",
        "Paper B-Root valid",
    ]);
    let paper = [(2018u16, 0.347), (2019, 0.346), (2020, 0.20)];
    for (year, measured) in measured_broot_valid {
        let rssac = crate::rootstats::system_validity(&crate::rootstats::synthetic_year(*year));
        let p = paper
            .iter()
            .find(|(y, _)| y == year)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        t.row(vec![
            year.to_string(),
            pct(rssac.valid_fraction),
            pct(*measured),
            pct(p),
        ]);
    }
    format!(
        "Junk overview (§3): the root system is junk-dominated; ccTLDs are not\n{}",
        t.render()
    )
}

/// The B-Root ranking remark of §4.1.
pub fn render_as_ranking(a: &DatasetAnalysis, k: usize) -> String {
    let mut t = TextTable::new(vec!["Rank", "AS", "Queries"]);
    for (i, (asn, count)) in a.as_volume_top_k(k).into_iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            asn.to_string(),
            count.to_string(),
        ]);
    }
    let first_cp = a
        .first_cloud_as_rank()
        .map(|r| format!("first cloud AS at rank {r}"))
        .unwrap_or_else(|| "no cloud AS observed".to_string());
    format!("Top source ASes ({first_cp})\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxx", "y"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a   "));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        TextTable::new(vec!["a"]).row(vec!["x", "y"]);
    }

    #[test]
    fn table1_contains_ground_truth() {
        let s = render_table1();
        assert!(s.contains("15169"));
        assert!(s.contains("Cloudflare"));
        assert!(s.contains("8068"));
        assert!(s.contains("Yes"));
        assert!(s.contains("No"));
    }

    #[test]
    fn fig3_verdict_rendering() {
        let s = render_fig3(
            ".nl",
            &[],
            Some(ChangePoint {
                year: 2019,
                month: 12,
            }),
        );
        assert!(s.contains("2019-12"));
        let s = render_fig3(".nl", &[], None);
        assert!(s.contains("No Q-min change-point"));
    }

    #[test]
    fn table2_renders_zone_sizes() {
        let s = render_table2();
        assert!(s.contains("5.9M"));
        assert!(s.contains("710K"));
        assert!(s.contains(".nl"));
        assert!(s.contains("2020-04-05"));
    }

    #[test]
    fn fig6_renders_median_column() {
        let r = crate::ednssize::EdnsCdfReport {
            provider: "Facebook".into(),
            curve: vec![(512, 0.3), (4096, 1.0)],
            samples: 100,
            truncation_ratio: 0.1716,
            median_response_size: Some(612),
        };
        let s = render_fig6(&[r]);
        assert!(s.contains("17.16%"));
        assert!(s.contains("612"));
    }

    #[test]
    fn concentration_renders() {
        let r = crate::concentration::ConcentrationReport {
            id: "x".into(),
            ases: 42,
            cr1: 0.1,
            cr10: 0.3,
            cr100: 0.9,
            hhi: 0.0123,
            gini: 0.456,
            cloud_share: 0.32,
        };
        let s = render_concentration(&[r]);
        assert!(s.contains("0.0123"));
        assert!(s.contains("0.456"));
        assert!(s.contains("32.0%"));
    }

    #[test]
    fn junk_overview_renders_all_years() {
        let s = render_junk_overview(&[(2018, 0.35), (2019, 0.35), (2020, 0.20)]);
        assert!(s.contains("2018"));
        assert!(s.contains("2020"));
        assert!(s.contains("20.0%"));
        // RSSAC002 side present
        assert!(s.contains("32.") || s.contains("31."));
    }

    #[test]
    fn fig5_renders_missing_rtt_as_dash() {
        let site = crate::dualstack::SiteReport {
            rank: 1,
            site: "ams".into(),
            queries_v4: 10,
            queries_v6: 90,
            v6_ratio: 0.9,
            median_rtt_v4_us: None,
            median_rtt_v6_us: Some(23_500),
        };
        let s = render_fig5("nl-A", &[site]);
        assert!(s.contains('-'));
        assert!(s.contains("23.5"));
        assert!(s.contains("90.0%"));
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(pct(0.865), "86.5%");
        assert_eq!(frac2(0.48), "0.48");
    }
}
