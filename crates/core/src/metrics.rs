//! Centralization metrics: Table 3, Figure 1 and Tables 4/7 views.

use crate::analysis::DatasetAnalysis;
use asdb::cloud::{Provider, ALL_PROVIDERS};
use serde::Serialize;

/// One Table 3 row: dataset totals.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct DatasetSummary {
    /// Dataset identifier (`nl-w2020`, ...).
    pub id: String,
    /// All queries.
    pub queries_total: u64,
    /// NOERROR-answered queries.
    pub queries_valid: u64,
    /// Distinct resolvers.
    pub resolvers: u64,
    /// Distinct ASes.
    pub ases: u64,
}

/// Figure 1: per-provider share for one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct CloudShare {
    /// Dataset identifier.
    pub id: String,
    /// `(provider name, share of all queries)` in paper order.
    pub per_provider: Vec<(String, f64)>,
    /// Sum over the five providers.
    pub total: f64,
}

/// Tables 4/7: the Google Public DNS split.
#[derive(Debug, Clone, Serialize)]
pub struct GoogleSplit {
    /// Dataset identifier.
    pub id: String,
    /// All Google queries.
    pub total_queries: u64,
    /// Queries from the advertised Public DNS ranges.
    pub public_queries: u64,
    /// Queries from the rest of the cloud.
    pub rest_queries: u64,
    /// Distinct Google resolvers.
    pub total_resolvers: u64,
    /// Distinct Public DNS resolvers.
    pub public_resolvers: u64,
    /// Public share of queries (paper: 86.5% / 88.4% in w2020).
    pub public_query_ratio: f64,
    /// Public share of resolvers (paper: 15.6% / 18.7% in w2020).
    pub public_resolver_ratio: f64,
}

/// Figure 2: the per-provider query-type mix.
#[derive(Debug, Clone, Serialize)]
pub struct QtypeMix {
    /// Dataset identifier.
    pub id: String,
    /// Provider name ("Other" for the rest of the Internet).
    pub provider: String,
    /// `(qtype mnemonic, share)` sorted by share, descending.
    pub shares: Vec<(String, f64)>,
}

/// Build the Table 3 row.
pub fn dataset_summary(id: &str, a: &DatasetAnalysis) -> DatasetSummary {
    DatasetSummary {
        id: id.to_string(),
        queries_total: a.total_queries,
        queries_valid: a.valid_queries,
        resolvers: a.resolvers(),
        ases: a.ases(),
    }
}

/// Build the Figure 1 bars.
pub fn cloud_share(id: &str, a: &DatasetAnalysis) -> CloudShare {
    let per_provider: Vec<(String, f64)> = ALL_PROVIDERS
        .iter()
        .map(|&p| (p.name().to_string(), a.provider_share(p)))
        .collect();
    CloudShare {
        id: id.to_string(),
        total: per_provider.iter().map(|(_, s)| s).sum(),
        per_provider,
    }
}

/// Build the Table 4/7 split.
pub fn google_split(id: &str, a: &DatasetAnalysis) -> GoogleSplit {
    let g = a.google_public();
    GoogleSplit {
        id: id.to_string(),
        total_queries: g.public_queries + g.rest_queries,
        public_queries: g.public_queries,
        rest_queries: g.rest_queries,
        total_resolvers: g.public_resolvers() + g.rest_resolvers(),
        public_resolvers: g.public_resolvers(),
        public_query_ratio: g.public_query_ratio(),
        public_resolver_ratio: g.public_resolver_ratio(),
    }
}

/// Build the Figure 2 panel for one provider.
pub fn qtype_mix(id: &str, a: &DatasetAnalysis, provider: Option<Provider>) -> QtypeMix {
    let agg = a.provider(provider);
    let mut shares: Vec<(String, f64)> = agg
        .qtype()
        .iter()
        .map(|(t, c)| (t.mnemonic(), c as f64 / agg.queries.max(1) as f64))
        .collect();
    shares.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("no NaN").then(x.0.cmp(&y.0)));
    QtypeMix {
        id: id.to_string(),
        provider: provider
            .map(|p| p.name().to_string())
            .unwrap_or_else(|| "Other".into()),
        shares,
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

    fn sample_analysis() -> DatasetAnalysis {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(100));
        let base = QueryRow {
            timestamp: SimTime::from_date(2020, 4, 7),
            src: "8.8.8.8".parse().unwrap(),
            src_port: 1,
            server: "194.0.28.53".parse().unwrap(),
            transport: Transport::Udp,
            qname: "example.nl.".parse().unwrap(),
            qtype: RType::A,
            edns_size: Some(1232),
            do_bit: false,
            rcode: Some(Rcode::NoError),
            response_size: Some(100),
            response_truncated: false,
            tcp_rtt_us: 0,
            asn: Some(asdb::registry::Asn(15169)),
            provider: Some(asdb::cloud::Provider::Google),
            public_dns: true,
        };
        for i in 0..6 {
            let mut r = base.clone();
            if i >= 5 {
                r.src = "74.125.0.9".parse().unwrap();
                r.public_dns = false;
                r.qtype = RType::Ns;
            }
            a.push(&r);
        }
        let mut other = base.clone();
        other.src = "192.0.9.1".parse().unwrap();
        other.provider = None;
        other.public_dns = false;
        other.asn = Some(asdb::registry::Asn(64512));
        other.rcode = Some(Rcode::NxDomain);
        for _ in 0..4 {
            a.push(&other);
        }
        a
    }

    #[test]
    fn summary_counts() {
        let a = sample_analysis();
        let s = dataset_summary("test", &a);
        assert_eq!(s.queries_total, 10);
        assert_eq!(s.queries_valid, 6);
        assert_eq!(s.resolvers, 3);
        assert_eq!(s.ases, 2);
    }

    #[test]
    fn figure1_shares() {
        let a = sample_analysis();
        let f = cloud_share("test", &a);
        assert_eq!(f.per_provider.len(), 5);
        assert!((f.total - 0.6).abs() < 1e-12);
        let google = f.per_provider.iter().find(|(n, _)| n == "Google").unwrap();
        assert!((google.1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn table4_split() {
        let a = sample_analysis();
        let g = google_split("test", &a);
        assert_eq!(g.total_queries, 6);
        assert_eq!(g.public_queries, 5);
        assert!((g.public_query_ratio - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(g.total_resolvers, 2);
        assert!((g.public_resolver_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn figure2_mix_sorted() {
        let a = sample_analysis();
        let m = qtype_mix("test", &a, Some(asdb::cloud::Provider::Google));
        assert_eq!(m.shares[0].0, "A");
        assert!((m.shares[0].1 - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(m.shares[1].0, "NS");
        let o = qtype_mix("test", &a, None);
        assert_eq!(o.provider, "Other");
        assert_eq!(o.shares[0].0, "A");
    }
}
