//! The single-pass dataset aggregation: one walk over the query stream
//! accumulates every quantity the paper's tables and figures need.

use asdb::cloud::{Provider, ALL_PROVIDERS};
use asdb::registry::Asn;
use dns_wire::types::RType;
use entrada::agg::{Cdf, Counter, DistinctCounter};
use entrada::schema::QueryRow;
use netbase::flow::{IpVersion, Transport};
use std::collections::HashMap;
use std::net::IpAddr;
use zonedb::zone::ZoneModel;

/// Per-provider (or per-"rest of Internet") accumulators.
#[derive(Debug, Default, Clone)]
pub struct ProviderAgg {
    /// Queries attributed.
    pub queries: u64,
    /// Junk (non-NOERROR) among them.
    pub junk: u64,
    /// Query-type histogram (Figure 2).
    pub qtype: Counter<RType>,
    /// Source-family split (Table 5).
    pub v4_queries: u64,
    /// IPv6 queries.
    pub v6_queries: u64,
    /// Transport split (Table 5).
    pub udp_queries: u64,
    /// TCP queries.
    pub tcp_queries: u64,
    /// Distinct IPv4 resolvers (Table 6).
    pub resolvers_v4: DistinctCounter<IpAddr>,
    /// Distinct IPv6 resolvers (Table 6).
    pub resolvers_v6: DistinctCounter<IpAddr>,
    /// EDNS advertised sizes on UDP queries (Figure 6).
    pub edns_sizes: Cdf,
    /// Sizes of (non-truncated) UDP responses, octets — what the
    /// advertised EDNS limit is tested against in §4.4.
    pub response_sizes: Cdf,
    /// UDP queries answered with TC=1 (§4.4).
    pub truncated_udp: u64,
    /// UDP queries answered at all (truncation denominator).
    pub answered_udp: u64,
    /// NS queries whose qname is in minimized form (§4.2.1).
    pub minimized_ns: u64,
    /// All NS queries.
    pub ns_queries: u64,
}

impl ProviderAgg {
    /// Junk ratio (Figure 4).
    pub fn junk_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.junk as f64 / self.queries as f64
        }
    }

    /// IPv6 share of queries (Table 5).
    pub fn v6_ratio(&self) -> f64 {
        let total = self.v4_queries + self.v6_queries;
        if total == 0 {
            0.0
        } else {
            self.v6_queries as f64 / total as f64
        }
    }

    /// TCP share of queries (Table 5).
    pub fn tcp_ratio(&self) -> f64 {
        let total = self.udp_queries + self.tcp_queries;
        if total == 0 {
            0.0
        } else {
            self.tcp_queries as f64 / total as f64
        }
    }

    /// Fraction of UDP answers that were truncated (§4.4).
    pub fn truncation_ratio(&self) -> f64 {
        if self.answered_udp == 0 {
            0.0
        } else {
            self.truncated_udp as f64 / self.answered_udp as f64
        }
    }

    /// Share of qtype `t` among this provider's queries (Figure 2).
    pub fn qtype_ratio(&self, t: RType) -> f64 {
        self.qtype.ratio(&t)
    }

    /// Share of NS queries that are minimized-form (Q-min signal).
    pub fn minimized_ns_ratio(&self) -> f64 {
        if self.ns_queries == 0 {
            0.0
        } else {
            self.minimized_ns as f64 / self.ns_queries as f64
        }
    }

    /// Merge another partial aggregate in. Every field is a sum, a set
    /// union, or a sample-multiset union, so partials built over
    /// disjoint row subsets merge into exactly the aggregate one serial
    /// pass over all rows would build.
    pub fn merge(&mut self, other: ProviderAgg) {
        self.queries += other.queries;
        self.junk += other.junk;
        self.qtype.merge(other.qtype);
        self.v4_queries += other.v4_queries;
        self.v6_queries += other.v6_queries;
        self.udp_queries += other.udp_queries;
        self.tcp_queries += other.tcp_queries;
        self.resolvers_v4.merge(other.resolvers_v4);
        self.resolvers_v6.merge(other.resolvers_v6);
        self.edns_sizes.merge(other.edns_sizes);
        self.response_sizes.merge(other.response_sizes);
        self.truncated_udp += other.truncated_udp;
        self.answered_udp += other.answered_udp;
        self.minimized_ns += other.minimized_ns;
        self.ns_queries += other.ns_queries;
    }
}

/// Whole-dataset aggregation (one pass, streaming).
#[derive(Debug, Clone)]
pub struct DatasetAnalysis {
    zone: ZoneModel,
    /// All queries seen.
    pub total_queries: u64,
    /// NOERROR-answered queries (Table 3 "valid").
    pub valid_queries: u64,
    /// Distinct source addresses (Table 3 "resolvers").
    pub resolvers: DistinctCounter<IpAddr>,
    /// Distinct source ASes (Table 3 "ASes").
    pub ases: DistinctCounter<Asn>,
    /// Per-provider accumulators; the `None` key is the rest of the
    /// Internet.
    pub by_provider: HashMap<Option<Provider>, ProviderAgg>,
    /// Google Public DNS vs rest-of-Google (Tables 4/7).
    pub google_public: GoogleSplitAgg,
    /// Monthly qtype series per provider (Figure 3), keyed
    /// `(provider, year, month)`.
    pub monthly_qtype: HashMap<(Provider, i32, u32), Counter<RType>>,
    /// Top source ASes by query volume (the B-Root ranking remark).
    pub as_volume: Counter<Asn>,
    /// Queries per hour-of-day (0-23): the diurnal load shape the
    /// paper compensates for by using week-long snapshots.
    pub hourly: Counter<u32>,
}

/// The Table 4/7 split accumulators.
#[derive(Debug, Default, Clone)]
pub struct GoogleSplitAgg {
    /// Queries from the advertised Public DNS ranges.
    pub public_queries: u64,
    /// Queries from the rest of Google's network.
    pub rest_queries: u64,
    /// Distinct Public DNS resolver addresses.
    pub public_resolvers: DistinctCounter<IpAddr>,
    /// Distinct rest-of-Google resolver addresses.
    pub rest_resolvers: DistinctCounter<IpAddr>,
}

impl GoogleSplitAgg {
    /// Public share of Google queries (≈86-88% in the paper).
    pub fn public_query_ratio(&self) -> f64 {
        let total = self.public_queries + self.rest_queries;
        if total == 0 {
            0.0
        } else {
            self.public_queries as f64 / total as f64
        }
    }

    /// Public share of Google resolvers (≈15-19% in the paper).
    pub fn public_resolver_ratio(&self) -> f64 {
        let total = self.public_resolvers.count() + self.rest_resolvers.count();
        if total == 0 {
            0.0
        } else {
            self.public_resolvers.count() as f64 / total as f64
        }
    }

    /// Merge another partial split in (sums + set unions).
    pub fn merge(&mut self, other: GoogleSplitAgg) {
        self.public_queries += other.public_queries;
        self.rest_queries += other.rest_queries;
        self.public_resolvers.merge(other.public_resolvers);
        self.rest_resolvers.merge(other.rest_resolvers);
    }
}

impl DatasetAnalysis {
    /// Build for a dataset served from `zone` (needed for the
    /// minimized-qname test).
    pub fn new(zone: ZoneModel) -> Self {
        let mut by_provider = HashMap::new();
        for p in ALL_PROVIDERS {
            by_provider.insert(Some(p), ProviderAgg::default());
        }
        by_provider.insert(None, ProviderAgg::default());
        DatasetAnalysis {
            zone,
            total_queries: 0,
            valid_queries: 0,
            resolvers: DistinctCounter::new(),
            ases: DistinctCounter::new(),
            by_provider,
            google_public: GoogleSplitAgg::default(),
            monthly_qtype: HashMap::new(),
            as_volume: Counter::new(),
            hourly: Counter::new(),
        }
    }

    /// Consume one row.
    pub fn push(&mut self, row: &QueryRow) {
        self.total_queries += 1;
        if row.is_valid() {
            self.valid_queries += 1;
        }
        self.resolvers.observe(row.src);
        self.hourly.incr(row.timestamp.hour_of_day_f64() as u32);
        if let Some(asn) = row.asn {
            self.ases.observe(asn);
            self.as_volume.incr(asn);
        }

        let agg = self.by_provider.entry(row.provider).or_default();
        agg.queries += 1;
        if row.is_junk() {
            agg.junk += 1;
        }
        agg.qtype.incr(row.qtype);
        match row.ip_version() {
            IpVersion::V4 => {
                agg.v4_queries += 1;
                agg.resolvers_v4.observe(row.src);
            }
            IpVersion::V6 => {
                agg.v6_queries += 1;
                agg.resolvers_v6.observe(row.src);
            }
        }
        match row.transport {
            Transport::Udp => {
                agg.udp_queries += 1;
                if let Some(size) = row.edns_size {
                    agg.edns_sizes.add(size as u64);
                }
                if row.rcode.is_some() {
                    agg.answered_udp += 1;
                    if row.response_truncated {
                        agg.truncated_udp += 1;
                    } else if let Some(size) = row.response_size {
                        agg.response_sizes.add(size as u64);
                    }
                }
            }
            Transport::Tcp => agg.tcp_queries += 1,
        }
        if row.qtype == RType::Ns {
            agg.ns_queries += 1;
            if self.zone.minimized_qname(&row.qname) == row.qname {
                agg.minimized_ns += 1;
            }
        }

        if let Some(provider) = row.provider {
            if provider == Provider::Google {
                if row.public_dns {
                    self.google_public.public_queries += 1;
                    self.google_public.public_resolvers.observe(row.src);
                } else {
                    self.google_public.rest_queries += 1;
                    self.google_public.rest_resolvers.observe(row.src);
                }
            }
            let (y, m) = row.year_month();
            self.monthly_qtype
                .entry((provider, y, m))
                .or_default()
                .incr(row.qtype);
        }
    }

    /// Consume a whole stream.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = QueryRow>) {
        for row in rows {
            self.push(&row);
        }
    }

    /// Merge a partial aggregate built over a disjoint subset of the
    /// same dataset's rows (and the same zone). Every accumulator is an
    /// order-insensitive function of the row multiset — sums, set
    /// unions, CDF sample unions — so merging worker partials in any
    /// deterministic order reproduces the serial aggregate exactly.
    pub fn merge(&mut self, other: DatasetAnalysis) {
        self.total_queries += other.total_queries;
        self.valid_queries += other.valid_queries;
        self.resolvers.merge(other.resolvers);
        self.ases.merge(other.ases);
        for (key, agg) in other.by_provider {
            self.by_provider.entry(key).or_default().merge(agg);
        }
        self.google_public.merge(other.google_public);
        for (key, counter) in other.monthly_qtype {
            self.monthly_qtype.entry(key).or_default().merge(counter);
        }
        self.as_volume.merge(other.as_volume);
        self.hourly.merge(other.hourly);
    }

    /// The zone this analysis runs against.
    pub fn zone(&self) -> &ZoneModel {
        &self.zone
    }

    /// Accumulator for one provider (`None` = rest of Internet).
    pub fn provider(&self, p: Option<Provider>) -> &ProviderAgg {
        self.by_provider.get(&p).expect("all providers pre-seeded")
    }

    /// Query share of one provider (Figure 1 bars).
    pub fn provider_share(&self, p: Provider) -> f64 {
        if self.total_queries == 0 {
            0.0
        } else {
            self.provider(Some(p)).queries as f64 / self.total_queries as f64
        }
    }

    /// Combined share of the five CPs (Figure 1's headline number).
    pub fn cloud_share(&self) -> f64 {
        ALL_PROVIDERS.iter().map(|&p| self.provider_share(p)).sum()
    }

    /// Valid fraction (Table 3).
    pub fn valid_fraction(&self) -> f64 {
        if self.total_queries == 0 {
            0.0
        } else {
            self.valid_queries as f64 / self.total_queries as f64
        }
    }

    /// Peak-to-trough ratio of the hourly load shape; near 1.0 means
    /// flat, the engine's diurnal model targets ~1.5-2.
    pub fn diurnal_peak_trough(&self) -> f64 {
        let counts: Vec<u64> = (0..24).map(|h| self.hourly.get(&h)).collect();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        if min == 0 {
            0.0
        } else {
            max as f64 / min as f64
        }
    }

    /// The rank of the first cloud-provider AS in the by-volume AS
    /// ranking (the paper: 5th at B-Root 2020, behind four ISPs).
    pub fn first_cloud_as_rank(&self) -> Option<usize> {
        self.as_volume
            .top_k(self.as_volume.keys())
            .iter()
            .position(|&(asn, _)| Provider::of_asn(asn).is_some())
            .map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::types::Rcode;
    use netbase::time::SimTime;

    fn row(
        src: &str,
        provider: Option<Provider>,
        qtype: RType,
        rcode: Rcode,
        transport: Transport,
    ) -> QueryRow {
        QueryRow {
            timestamp: SimTime::from_date(2020, 4, 7),
            src: src.parse().unwrap(),
            src_port: 1000,
            server: "194.0.28.53".parse().unwrap(),
            transport,
            qname: "example.nl.".parse().unwrap(),
            qtype,
            edns_size: Some(1232),
            do_bit: false,
            rcode: Some(rcode),
            response_size: Some(120),
            response_truncated: false,
            tcp_rtt_us: 0,
            asn: provider.map(|p| p.asns()[0]),
            provider,
            public_dns: src.starts_with("8.8."),
        }
    }

    #[test]
    fn shares_and_validity() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(100));
        a.push(&row(
            "8.8.8.8",
            Some(Provider::Google),
            RType::A,
            Rcode::NoError,
            Transport::Udp,
        ));
        a.push(&row(
            "8.8.4.4",
            Some(Provider::Google),
            RType::A,
            Rcode::NoError,
            Transport::Udp,
        ));
        a.push(&row(
            "1.1.1.1",
            Some(Provider::Cloudflare),
            RType::Ds,
            Rcode::NoError,
            Transport::Udp,
        ));
        a.push(&row(
            "192.0.9.1",
            None,
            RType::A,
            Rcode::NxDomain,
            Transport::Udp,
        ));
        assert_eq!(a.total_queries, 4);
        assert_eq!(a.valid_queries, 3);
        assert!((a.valid_fraction() - 0.75).abs() < 1e-12);
        assert!((a.provider_share(Provider::Google) - 0.5).abs() < 1e-12);
        assert!((a.cloud_share() - 0.75).abs() < 1e-12);
        assert_eq!(a.resolvers.count(), 4);
        assert_eq!(a.ases.count(), 2, "only attributed rows count ASes");
        assert_eq!(a.provider(None).junk, 1);
    }

    #[test]
    fn google_split_tracks_public_ranges() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(100));
        for _ in 0..9 {
            a.push(&row(
                "8.8.8.8",
                Some(Provider::Google),
                RType::A,
                Rcode::NoError,
                Transport::Udp,
            ));
        }
        a.push(&row(
            "74.125.1.1",
            Some(Provider::Google),
            RType::A,
            Rcode::NoError,
            Transport::Udp,
        ));
        assert!((a.google_public.public_query_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(a.google_public.public_resolvers.count(), 1);
        assert_eq!(a.google_public.rest_resolvers.count(), 1);
    }

    #[test]
    fn transport_and_family_aggregation() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(100));
        a.push(&row(
            "2a03:2880::1",
            Some(Provider::Facebook),
            RType::A,
            Rcode::NoError,
            Transport::Udp,
        ));
        a.push(&row(
            "2a03:2880::1",
            Some(Provider::Facebook),
            RType::A,
            Rcode::NoError,
            Transport::Tcp,
        ));
        a.push(&row(
            "31.13.64.1",
            Some(Provider::Facebook),
            RType::A,
            Rcode::NoError,
            Transport::Udp,
        ));
        let fb = a.provider(Some(Provider::Facebook));
        assert!((fb.v6_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((fb.tcp_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(fb.resolvers_v4.count(), 1);
        assert_eq!(fb.resolvers_v6.count(), 1);
    }

    #[test]
    fn minimized_ns_detection() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(100));
        let mut minimized = row(
            "8.8.8.8",
            Some(Provider::Google),
            RType::Ns,
            Rcode::NoError,
            Transport::Udp,
        );
        minimized.qname = "example.nl.".parse().unwrap(); // 2 labels: minimized form
        a.push(&minimized);
        let mut full = row(
            "8.8.8.8",
            Some(Provider::Google),
            RType::Ns,
            Rcode::NoError,
            Transport::Udp,
        );
        full.qname = "www.example.nl.".parse().unwrap();
        a.push(&full);
        let g = a.provider(Some(Provider::Google));
        assert_eq!(g.ns_queries, 2);
        assert_eq!(g.minimized_ns, 1);
        assert!((g.minimized_ns_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn truncation_denominator_is_answered_udp() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(100));
        let mut tr = row(
            "31.13.64.1",
            Some(Provider::Facebook),
            RType::A,
            Rcode::NoError,
            Transport::Udp,
        );
        tr.response_truncated = true;
        a.push(&tr);
        a.push(&row(
            "31.13.64.1",
            Some(Provider::Facebook),
            RType::A,
            Rcode::NoError,
            Transport::Udp,
        ));
        a.push(&row(
            "31.13.64.1",
            Some(Provider::Facebook),
            RType::A,
            Rcode::NoError,
            Transport::Tcp,
        ));
        let fb = a.provider(Some(Provider::Facebook));
        assert!(
            (fb.truncation_ratio() - 0.5).abs() < 1e-12,
            "TCP rows excluded"
        );
    }

    #[test]
    fn monthly_series_buckets() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(100));
        let mut r1 = row(
            "8.8.8.8",
            Some(Provider::Google),
            RType::A,
            Rcode::NoError,
            Transport::Udp,
        );
        r1.timestamp = SimTime::from_date(2019, 11, 20);
        a.push(&r1);
        let mut r2 = row(
            "8.8.8.8",
            Some(Provider::Google),
            RType::Ns,
            Rcode::NoError,
            Transport::Udp,
        );
        r2.timestamp = SimTime::from_date(2019, 12, 2);
        a.push(&r2);
        assert_eq!(
            a.monthly_qtype[&(Provider::Google, 2019, 11)].get(&RType::A),
            1
        );
        assert_eq!(
            a.monthly_qtype[&(Provider::Google, 2019, 12)].get(&RType::Ns),
            1
        );
    }

    #[test]
    fn first_cloud_as_rank() {
        let mut a = DatasetAnalysis::new(ZoneModel::root(50));
        // two ISP ASes outrank Google's
        for _ in 0..10 {
            let mut r = row("192.0.9.1", None, RType::A, Rcode::NoError, Transport::Udp);
            r.asn = Some(Asn(9999));
            a.push(&r);
        }
        for _ in 0..8 {
            let mut r = row("192.0.10.1", None, RType::A, Rcode::NoError, Transport::Udp);
            r.asn = Some(Asn(8888));
            a.push(&r);
        }
        for _ in 0..5 {
            a.push(&row(
                "8.8.8.8",
                Some(Provider::Google),
                RType::A,
                Rcode::NoError,
                Transport::Udp,
            ));
        }
        assert_eq!(a.first_cloud_as_rank(), Some(3));
    }
}
