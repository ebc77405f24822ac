//! Concentration indices over the AS-level traffic distribution.
//!
//! The paper reports the five CPs' combined share (Figure 1); related
//! work (Allman, IMC'18; the ISOC consolidation report it cites)
//! quantifies centralization with standard market-concentration
//! indices. This module adds them over the same per-AS query volumes:
//!
//! - **CR-k**: combined share of the k heaviest ASes.
//! - **HHI** (Herfindahl–Hirschman): Σ sᵢ², the antitrust standard
//!   (≤ 0.01 competitive, ≥ 0.25 highly concentrated).
//! - **Gini** coefficient of the per-AS volume distribution.

use crate::analysis::DatasetAnalysis;
use serde::Serialize;

/// Concentration summary for one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct ConcentrationReport {
    /// Dataset identifier.
    pub id: String,
    /// Number of ASes with attributed traffic.
    pub ases: usize,
    /// Share of the single heaviest AS.
    pub cr1: f64,
    /// Share of the 10 heaviest ASes.
    pub cr10: f64,
    /// Share of the 100 heaviest ASes.
    pub cr100: f64,
    /// Herfindahl–Hirschman index in [0, 1].
    pub hhi: f64,
    /// Gini coefficient in [0, 1).
    pub gini: f64,
    /// Combined share of the paper's 20 cloud-provider ASes.
    pub cloud_share: f64,
}

/// Compute the indices from a dataset analysis.
pub fn concentration(id: &str, a: &DatasetAnalysis) -> ConcentrationReport {
    let mut stage = obs::stage("analysis.concentration");
    stage.add_items(a.total_queries);
    let volumes: Vec<u64> = a
        .as_volume_top_k(usize::MAX)
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let total: u64 = volumes.iter().sum();
    let share_of_top = |k: usize| -> f64 {
        if total == 0 {
            0.0
        } else {
            volumes.iter().take(k).sum::<u64>() as f64 / total as f64
        }
    };
    ConcentrationReport {
        id: id.to_string(),
        ases: volumes.len(),
        cr1: share_of_top(1),
        cr10: share_of_top(10),
        cr100: share_of_top(100),
        hhi: hhi(&volumes, total),
        gini: gini(&volumes, total),
        cloud_share: a.cloud_share(),
    }
}

fn hhi(volumes: &[u64], total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    volumes
        .iter()
        .map(|&v| {
            let s = v as f64 / total as f64;
            s * s
        })
        .sum()
}

/// Gini over a descending-sorted volume vector.
fn gini(desc: &[u64], total: u64) -> f64 {
    let n = desc.len();
    if n == 0 || total == 0 {
        return 0.0;
    }
    // G = (n + 1 - 2 * Σ cumshare_i / n) / n with ascending order;
    // compute from the descending vector by reversing the rank weights.
    let mut weighted = 0f64;
    for (rank_desc, &v) in desc.iter().enumerate() {
        let rank_asc = n - rank_desc; // 1-based ascending rank
        weighted += rank_asc as f64 * v as f64;
    }
    let mean = total as f64 / n as f64;
    (2.0 * weighted) / (n as f64 * n as f64 * mean) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb::registry::Asn;
    use dns_wire::types::{RType, Rcode};
    use entrada::schema::QueryRow;
    use netbase::flow::Transport;
    use netbase::time::SimTime;
    use zonedb::zone::ZoneModel;

    fn push(a: &mut DatasetAnalysis, asn: u32, count: usize) {
        for _ in 0..count {
            let row = QueryRow {
                timestamp: SimTime::from_date(2020, 4, 7),
                src: "192.0.9.1".parse().unwrap(),
                src_port: 1,
                server: "194.0.28.53".parse().unwrap(),
                transport: Transport::Udp,
                qname: "example.nl.".parse().unwrap(),
                qtype: RType::A,
                edns_size: None,
                do_bit: false,
                rcode: Some(Rcode::NoError),
                response_size: Some(64),
                response_truncated: false,
                tcp_rtt_us: 0,
                asn: Some(Asn(asn)),
                provider: None,
                public_dns: false,
            };
            a.push(&row);
        }
    }

    #[test]
    fn uniform_distribution_is_unconcentrated() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(10));
        for asn in 1..=100 {
            push(&mut a, asn, 10);
        }
        let r = concentration("t", &a);
        assert_eq!(r.ases, 100);
        assert!((r.cr1 - 0.01).abs() < 1e-9);
        assert!((r.cr10 - 0.10).abs() < 1e-9);
        assert!((r.cr100 - 1.0).abs() < 1e-9);
        assert!(
            (r.hhi - 0.01).abs() < 1e-9,
            "HHI of 100 equal firms = 1/100"
        );
        assert!(r.gini.abs() < 1e-9, "gini {}", r.gini);
    }

    #[test]
    fn monopoly_is_maximally_concentrated() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(10));
        push(&mut a, 15169, 1000);
        let r = concentration("t", &a);
        assert!((r.cr1 - 1.0).abs() < 1e-9);
        assert!((r.hhi - 1.0).abs() < 1e-9);
        assert_eq!(r.gini, 0.0, "one AS: no inequality *among* ASes");
    }

    #[test]
    fn skew_raises_all_indices() {
        let mut flat = DatasetAnalysis::new(ZoneModel::nl(10));
        for asn in 1..=50 {
            push(&mut flat, asn, 10);
        }
        let mut skewed = DatasetAnalysis::new(ZoneModel::nl(10));
        for asn in 1..=50 {
            push(&mut skewed, asn, if asn <= 2 { 200 } else { 2 });
        }
        let f = concentration("flat", &flat);
        let s = concentration("skewed", &skewed);
        assert!(s.cr1 > f.cr1);
        assert!(s.cr10 > f.cr10);
        assert!(s.hhi > f.hhi);
        assert!(s.gini > f.gini + 0.3, "gini {} vs {}", s.gini, f.gini);
    }

    #[test]
    fn empty_analysis_is_zero() {
        let a = DatasetAnalysis::new(ZoneModel::nl(10));
        let r = concentration("t", &a);
        assert_eq!(r.ases, 0);
        assert_eq!(r.hhi, 0.0);
        assert_eq!(r.gini, 0.0);
    }

    #[test]
    fn gini_bounds() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(10));
        for asn in 1..=30 {
            push(&mut a, asn, asn as usize * 3);
        }
        let r = concentration("t", &a);
        assert!(r.gini > 0.0 && r.gini < 1.0, "gini {}", r.gini);
    }
}
