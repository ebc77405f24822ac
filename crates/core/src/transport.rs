//! Transport and address-family characterization: Table 5 (IPv4/IPv6,
//! UDP/TCP shares per provider) and Table 6 (Amazon/Microsoft resolver
//! populations by family).

use crate::analysis::DatasetAnalysis;
use asdb::cloud::{Provider, ALL_PROVIDERS};
use serde::Serialize;

/// One Table 5 row.
#[derive(Debug, Clone, Serialize)]
pub struct TransportRow {
    /// Provider name.
    pub provider: String,
    /// IPv4 share of queries.
    pub ipv4: f64,
    /// IPv6 share of queries.
    pub ipv6: f64,
    /// UDP share of queries.
    pub udp: f64,
    /// TCP share of queries.
    pub tcp: f64,
}

/// Table 5 for one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct TransportReport {
    /// Dataset identifier.
    pub id: String,
    /// One row per provider, paper order.
    pub rows: Vec<TransportRow>,
}

/// One Table 6 block: resolver counts by family.
#[derive(Debug, Clone, Serialize)]
pub struct ResolverFamilyRow {
    /// Provider name.
    pub provider: String,
    /// Total distinct resolvers.
    pub total: u64,
    /// Distinct IPv4 resolvers.
    pub v4: u64,
    /// Distinct IPv6 resolvers.
    pub v6: u64,
    /// IPv6 share of the resolver population.
    pub v6_share: f64,
    /// IPv6 share of the provider's *queries* (for the Table 5/6
    /// correlation the paper draws).
    pub v6_traffic_share: f64,
}

/// Build Table 5.
pub fn transport_report(id: &str, a: &DatasetAnalysis) -> TransportReport {
    let rows = ALL_PROVIDERS
        .iter()
        .map(|&p| {
            let agg = a.provider(Some(p));
            TransportRow {
                provider: p.name().to_string(),
                ipv4: 1.0 - agg.v6_ratio(),
                ipv6: agg.v6_ratio(),
                udp: 1.0 - agg.tcp_ratio(),
                tcp: agg.tcp_ratio(),
            }
        })
        .collect();
    TransportReport {
        id: id.to_string(),
        rows,
    }
}

/// Build one Table 6 block.
pub fn resolver_families(a: &DatasetAnalysis, provider: Provider) -> ResolverFamilyRow {
    let agg = a.provider(Some(provider));
    let v4 = agg.resolvers_v4();
    let v6 = agg.resolvers_v6();
    ResolverFamilyRow {
        provider: provider.name().to_string(),
        total: v4 + v6,
        v4,
        v6,
        v6_share: if v4 + v6 == 0 {
            0.0
        } else {
            v6 as f64 / (v4 + v6) as f64
        },
        v6_traffic_share: agg.v6_ratio(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::types::{RType, Rcode};
    use entrada::schema::QueryRow;
    use netbase::flow::Transport;
    use netbase::time::SimTime;
    use zonedb::zone::ZoneModel;

    fn push(a: &mut DatasetAnalysis, src: &str, provider: Provider, tcp: bool) {
        let row = QueryRow {
            timestamp: SimTime::from_date(2020, 4, 7),
            src: src.parse().unwrap(),
            src_port: 1,
            server: "194.0.28.53".parse().unwrap(),
            transport: if tcp { Transport::Tcp } else { Transport::Udp },
            qname: "example.nl.".parse().unwrap(),
            qtype: RType::A,
            edns_size: Some(512),
            do_bit: true,
            rcode: Some(Rcode::NoError),
            response_size: Some(100),
            response_truncated: false,
            tcp_rtt_us: if tcp { 20_000 } else { 0 },
            asn: Some(provider.asns()[0]),
            provider: Some(provider),
            public_dns: false,
        };
        a.push(&row);
    }

    #[test]
    fn table5_rows() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(10));
        // Microsoft: pure v4/UDP
        for i in 0..10 {
            push(&mut a, &format!("40.64.0.{i}"), Provider::Microsoft, false);
        }
        // Facebook: 3 v6 + 1 v4, 1 TCP
        push(&mut a, "2a03:2880::1", Provider::Facebook, false);
        push(&mut a, "2a03:2880::2", Provider::Facebook, false);
        push(&mut a, "2a03:2880::3", Provider::Facebook, true);
        push(&mut a, "31.13.64.1", Provider::Facebook, false);
        let t = transport_report("nl-w2020", &a);
        let ms = t.rows.iter().find(|r| r.provider == "Microsoft").unwrap();
        assert_eq!(ms.ipv4, 1.0);
        assert_eq!(ms.ipv6, 0.0);
        assert_eq!(ms.udp, 1.0);
        let fb = t.rows.iter().find(|r| r.provider == "Facebook").unwrap();
        assert!((fb.ipv6 - 0.75).abs() < 1e-12);
        assert!((fb.tcp - 0.25).abs() < 1e-12);
        // rows always sum to 1 across each pair
        for r in &t.rows {
            assert!((r.ipv4 + r.ipv6 - 1.0).abs() < 1e-9 || (r.ipv4, r.ipv6) == (1.0, 0.0));
            assert!((r.udp + r.tcp - 1.0).abs() < 1e-9 || (r.udp, r.tcp) == (1.0, 0.0));
        }
    }

    #[test]
    fn table6_resolver_counts() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(10));
        for i in 0..98 {
            push(
                &mut a,
                &format!("52.0.{}.{}", i / 250, i % 250),
                Provider::Amazon,
                false,
            );
        }
        push(&mut a, "2600:1f00::1", Provider::Amazon, false);
        push(&mut a, "2600:1f00::2", Provider::Amazon, false);
        // repeat queries must not inflate resolver counts
        push(&mut a, "2600:1f00::2", Provider::Amazon, false);
        let r = resolver_families(&a, Provider::Amazon);
        assert_eq!(r.total, 100);
        assert_eq!(r.v4, 98);
        assert_eq!(r.v6, 2);
        assert!((r.v6_share - 0.02).abs() < 1e-12);
        // traffic share counts queries, not resolvers
        assert!((r.v6_traffic_share - 3.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn empty_provider_is_all_zero() {
        let a = DatasetAnalysis::new(ZoneModel::nl(10));
        let r = resolver_families(&a, Provider::Cloudflare);
        assert_eq!(r.total, 0);
        assert_eq!(r.v6_share, 0.0);
    }
}
