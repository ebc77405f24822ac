//! The single-pass dataset aggregation: one walk over the query stream
//! accumulates every quantity the paper's tables and figures need.
//!
//! A row pays one keyed hash. Its source address is the only key that is
//! both untrusted and unbounded, so it is interned once into a dense id
//! per partial, and every distinct count over sources (resolvers, the
//! per-provider family populations, the Google split) is a bitset over
//! those ids. Everything else a row is grouped by is a closed domain and
//! indexes an array: the provider (six slots), the hour (24), the qtype
//! code (256, with a keyed map for codes above) and the source AS (a
//! slot resolved when an address is first seen). [`DatasetAnalysis::merge`]
//! renumbers the other partial's ids through their addresses, so counts
//! stay exact and merged partials equal one serial pass.

use crate::dense::{Addr, IdSet, Interner};
use asdb::cloud::{Provider, ALL_PROVIDERS};
use asdb::registry::Asn;
use dns_wire::types::RType;
use entrada::agg::Cdf;
use entrada::schema::QueryRow;
use netbase::flow::{IpVersion, Transport};
use std::collections::HashMap;
use zonedb::zone::ZoneModel;

/// Query counts by type: a dense table over the codes below 256, which
/// hold every type the paper's figures name, and a keyed map for the
/// codes above, which come off the wire unfiltered.
#[derive(Debug, Clone)]
pub struct QtypeCounts {
    dense: Box<[u64; 256]>,
    overflow: HashMap<u16, u64>,
    total: u64,
}

impl Default for QtypeCounts {
    fn default() -> Self {
        QtypeCounts {
            dense: Box::new([0; 256]),
            overflow: HashMap::new(),
            total: 0,
        }
    }
}

impl QtypeCounts {
    pub(crate) fn add(&mut self, t: RType, n: u64) {
        let code = t.to_u16();
        match self.dense.get_mut(code as usize) {
            Some(c) => *c += n,
            None => *self.overflow.entry(code).or_insert(0) += n,
        }
        self.total += n;
    }

    /// Queries of type `t`.
    pub fn get(&self, t: RType) -> u64 {
        let code = t.to_u16();
        match self.dense.get(code as usize) {
            Some(&c) => c,
            None => self.overflow.get(&code).copied().unwrap_or(0),
        }
    }

    /// Queries of every type.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Share of type `t`, or 0 with no queries.
    pub fn ratio(&self, t: RType) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.get(t) as f64 / self.total as f64
        }
    }

    /// `(type, count)` for every type seen, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (RType, u64)> + '_ {
        let dense = (0u16..).zip(self.dense.iter().copied());
        let overflow = self.overflow.iter().map(|(&code, &c)| (code, c));
        dense
            .chain(overflow)
            .filter(|&(_, c)| c > 0)
            .map(|(code, c)| (RType::from_u16(code), c))
    }

    fn merge(&mut self, other: &QtypeCounts) {
        for (mine, theirs) in self.dense.iter_mut().zip(other.dense.iter()) {
            *mine += theirs;
        }
        for (&code, &c) in &other.overflow {
            *self.overflow.entry(code).or_insert(0) += c;
        }
        self.total += other.total;
    }
}

/// Per-provider (or per-"rest of Internet") accumulators.
#[derive(Debug, Default, Clone)]
pub struct ProviderAgg {
    /// Queries attributed.
    pub queries: u64,
    /// Junk (non-NOERROR) among them.
    pub junk: u64,
    /// Query-type histogram (Figure 2).
    qtype: QtypeCounts,
    /// Source-family split (Table 5).
    pub v4_queries: u64,
    /// IPv6 queries.
    pub v6_queries: u64,
    /// Transport split (Table 5).
    pub udp_queries: u64,
    /// TCP queries.
    pub tcp_queries: u64,
    /// Distinct IPv4 resolvers (Table 6), as source ids.
    resolvers_v4: IdSet,
    /// Distinct IPv6 resolvers (Table 6), as source ids.
    resolvers_v6: IdSet,
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
    /// Query-type histogram (Figure 2).
    pub fn qtype(&self) -> &QtypeCounts {
        &self.qtype
    }

    /// Distinct IPv4 resolvers (Table 6).
    pub fn resolvers_v4(&self) -> u64 {
        self.resolvers_v4.len()
    }

    /// Distinct IPv6 resolvers (Table 6).
    pub fn resolvers_v6(&self) -> u64 {
        self.resolvers_v6.len()
    }

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
        self.qtype.ratio(t)
    }

    /// Share of NS queries that are minimized-form (Q-min signal).
    pub fn minimized_ns_ratio(&self) -> f64 {
        if self.ns_queries == 0 {
            0.0
        } else {
            self.minimized_ns as f64 / self.ns_queries as f64
        }
    }

    /// Merge another partial aggregate in, its source ids renumbered
    /// through `remap`. Every field is a sum, a set union, or a
    /// sample-multiset union.
    fn merge(&mut self, other: ProviderAgg, remap: &[u32]) {
        self.queries += other.queries;
        self.junk += other.junk;
        self.qtype.merge(&other.qtype);
        self.v4_queries += other.v4_queries;
        self.v6_queries += other.v6_queries;
        self.udp_queries += other.udp_queries;
        self.tcp_queries += other.tcp_queries;
        self.resolvers_v4.merge(&other.resolvers_v4, remap);
        self.resolvers_v6.merge(&other.resolvers_v6, remap);
        self.edns_sizes.merge(other.edns_sizes);
        self.response_sizes.merge(other.response_sizes);
        self.truncated_udp += other.truncated_udp;
        self.answered_udp += other.answered_udp;
        self.minimized_ns += other.minimized_ns;
        self.ns_queries += other.ns_queries;
    }
}

/// The Table 4/7 split accumulators.
#[derive(Debug, Default, Clone)]
pub struct GoogleSplitAgg {
    /// Queries from the advertised Public DNS ranges.
    pub public_queries: u64,
    /// Queries from the rest of Google's network.
    pub rest_queries: u64,
    public_resolvers: IdSet,
    rest_resolvers: IdSet,
}

impl GoogleSplitAgg {
    /// Distinct Public DNS resolver addresses.
    pub fn public_resolvers(&self) -> u64 {
        self.public_resolvers.len()
    }

    /// Distinct rest-of-Google resolver addresses.
    pub fn rest_resolvers(&self) -> u64 {
        self.rest_resolvers.len()
    }

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
        let total = self.public_resolvers() + self.rest_resolvers();
        if total == 0 {
            0.0
        } else {
            self.public_resolvers() as f64 / total as f64
        }
    }

    /// Merge another partial split in (sums + set unions over ids
    /// renumbered through `remap`).
    fn merge(&mut self, other: GoogleSplitAgg, remap: &[u32]) {
        self.public_queries += other.public_queries;
        self.rest_queries += other.rest_queries;
        self.public_resolvers.merge(&other.public_resolvers, remap);
        self.rest_resolvers.merge(&other.rest_resolvers, remap);
    }
}

/// A Figure 3 bucket: one provider's queries in one calendar month.
pub type MonthKey = (Provider, i32, u32);

/// The monthly qtype series, kept sorted by key. Rows arrive in long
/// runs of one day, so each provider remembers the day it last saw and
/// that day's bucket; the calendar is consulted when the day changes.
#[derive(Debug, Clone)]
struct MonthlyQtypes {
    months: Vec<(MonthKey, QtypeCounts)>,
    /// Per provider: (day number, index into `months`).
    last: [(u64, usize); 5],
}

impl Default for MonthlyQtypes {
    fn default() -> Self {
        MonthlyQtypes {
            months: Vec::new(),
            last: [(u64::MAX, 0); 5],
        }
    }
}

impl MonthlyQtypes {
    const MICROS_PER_DAY: u64 = 86_400_000_000;

    fn incr(&mut self, provider: Provider, row: &QueryRow) {
        let day = row.timestamp.as_micros() / Self::MICROS_PER_DAY;
        let (last_day, idx) = self.last[provider as usize];
        let idx = if last_day == day {
            idx
        } else {
            let (y, m) = row.year_month();
            let idx = self.bucket((provider, y, m));
            self.last[provider as usize] = (day, idx);
            idx
        };
        self.months[idx].1.add(row.qtype, 1);
    }

    /// The index of `key`'s bucket, made if missing. Making one shifts
    /// the buckets after it, so every remembered index is dropped.
    fn bucket(&mut self, key: MonthKey) -> usize {
        match self.months.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => i,
            Err(i) => {
                self.months.insert(i, (key, QtypeCounts::default()));
                self.last = [(u64::MAX, 0); 5];
                i
            }
        }
    }

    fn merge(&mut self, other: MonthlyQtypes) {
        for (key, counts) in other.months {
            let i = self.bucket(key);
            self.months[i].1.merge(&counts);
        }
    }
}

/// `as_slot` of a row without an AS.
const NO_AS: u32 = u32::MAX;

/// Whole-dataset aggregation (one pass, streaming).
#[derive(Debug, Clone)]
pub struct DatasetAnalysis {
    zone: ZoneModel,
    /// All queries seen.
    pub total_queries: u64,
    /// NOERROR-answered queries (Table 3 "valid").
    pub valid_queries: u64,
    /// Source addresses as dense ids: the one keyed probe a row pays.
    /// Its size is Table 3's "resolvers".
    sources: Interner<Addr>,
    /// Per source id: the AS slot its first row carried.
    source_as: Vec<u32>,
    /// Source ASes as dense slots (Table 3 "ASes").
    ases: Interner<Asn>,
    /// Queries per AS slot (the B-Root ranking remark).
    as_volume: Vec<u64>,
    /// Per-provider accumulators in [`ALL_PROVIDERS`] order, then the
    /// rest of the Internet.
    by_provider: [ProviderAgg; 6],
    /// Google Public DNS vs rest-of-Google (Tables 4/7).
    google_public: GoogleSplitAgg,
    /// Monthly qtype series per provider (Figure 3).
    monthly_qtype: MonthlyQtypes,
    /// Queries per hour-of-day (0-23): the diurnal load shape the
    /// paper compensates for by using week-long snapshots.
    hourly: [u64; 24],
}

/// The `by_provider` slot of a row's provider.
fn provider_slot(p: Option<Provider>) -> usize {
    p.map_or(ALL_PROVIDERS.len(), |p| p as usize)
}

impl DatasetAnalysis {
    /// Build for a dataset served from `zone` (needed for the
    /// minimized-qname test).
    pub fn new(zone: ZoneModel) -> Self {
        DatasetAnalysis {
            zone,
            total_queries: 0,
            valid_queries: 0,
            sources: Interner::default(),
            source_as: Vec::new(),
            ases: Interner::default(),
            as_volume: Vec::new(),
            by_provider: Default::default(),
            google_public: GoogleSplitAgg::default(),
            monthly_qtype: MonthlyQtypes::default(),
            hourly: [0; 24],
        }
    }

    /// The slot of `asn`, made on its first row.
    fn as_slot(&mut self, asn: Option<Asn>) -> u32 {
        let Some(asn) = asn else {
            return NO_AS;
        };
        let (slot, new) = self.ases.intern(asn);
        if new {
            self.as_volume.push(0);
        }
        slot
    }

    /// Consume one row.
    pub fn push(&mut self, row: &QueryRow) {
        self.total_queries += 1;
        if row.is_valid() {
            self.valid_queries += 1;
        }
        let (src, new) = self.sources.intern(Addr(row.src));
        self.hourly[(row.timestamp.seconds_of_day() / 3600) as usize] += 1;
        // an address's AS is resolved on its first row; a later row that
        // disagrees, which the enricher never writes, pays the AS map
        if new {
            let slot = self.as_slot(row.asn);
            self.source_as.push(slot);
        }
        let mut slot = self.source_as[src as usize];
        let cached = (slot != NO_AS).then(|| self.ases.keys()[slot as usize]);
        if cached != row.asn {
            slot = self.as_slot(row.asn);
        }
        if slot != NO_AS {
            self.as_volume[slot as usize] += 1;
        }

        let agg = &mut self.by_provider[provider_slot(row.provider)];
        agg.queries += 1;
        if row.is_junk() {
            agg.junk += 1;
        }
        agg.qtype.add(row.qtype, 1);
        match row.ip_version() {
            IpVersion::V4 => {
                agg.v4_queries += 1;
                agg.resolvers_v4.insert(src);
            }
            IpVersion::V6 => {
                agg.v6_queries += 1;
                agg.resolvers_v6.insert(src);
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
            if self.zone.is_minimized(&row.qname) {
                agg.minimized_ns += 1;
            }
        }

        if let Some(provider) = row.provider {
            if provider == Provider::Google {
                let g = &mut self.google_public;
                if row.public_dns {
                    g.public_queries += 1;
                    g.public_resolvers.insert(src);
                } else {
                    g.rest_queries += 1;
                    g.rest_resolvers.insert(src);
                }
            }
            self.monthly_qtype.incr(provider, row);
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
    /// deterministic order reproduces the serial aggregate exactly. The
    /// other partial's source ids and AS slots are renumbered through
    /// the addresses and AS numbers they stand for.
    pub fn merge(&mut self, other: DatasetAnalysis) {
        self.total_queries += other.total_queries;
        self.valid_queries += other.valid_queries;
        let as_remap: Vec<u32> = other
            .ases
            .keys()
            .iter()
            .zip(&other.as_volume)
            .map(|(&asn, &volume)| {
                let slot = self.as_slot(Some(asn));
                self.as_volume[slot as usize] += volume;
                slot
            })
            .collect();
        let remap: Vec<u32> = other
            .sources
            .keys()
            .iter()
            .zip(&other.source_as)
            .map(|(&addr, &slot)| {
                let (id, new) = self.sources.intern(addr);
                if new {
                    let slot = if slot == NO_AS {
                        NO_AS
                    } else {
                        as_remap[slot as usize]
                    };
                    self.source_as.push(slot);
                }
                id
            })
            .collect();
        for (mine, theirs) in self.by_provider.iter_mut().zip(other.by_provider) {
            mine.merge(theirs, &remap);
        }
        self.google_public.merge(other.google_public, &remap);
        self.monthly_qtype.merge(other.monthly_qtype);
        for (mine, theirs) in self.hourly.iter_mut().zip(other.hourly) {
            *mine += theirs;
        }
    }

    /// The zone this analysis runs against.
    pub fn zone(&self) -> &ZoneModel {
        &self.zone
    }

    /// Accumulator for one provider (`None` = rest of Internet).
    pub fn provider(&self, p: Option<Provider>) -> &ProviderAgg {
        &self.by_provider[provider_slot(p)]
    }

    /// Distinct source addresses (Table 3 "resolvers").
    pub fn resolvers(&self) -> u64 {
        self.sources.len() as u64
    }

    /// Distinct source ASes (Table 3 "ASes").
    pub fn ases(&self) -> u64 {
        self.ases.len() as u64
    }

    /// Google Public DNS vs rest-of-Google (Tables 4/7).
    pub fn google_public(&self) -> &GoogleSplitAgg {
        &self.google_public
    }

    /// Queries per hour of day, 0-23.
    pub fn hourly(&self) -> &[u64; 24] {
        &self.hourly
    }

    /// The monthly qtype series per provider (Figure 3), sorted by
    /// `(provider, year, month)`.
    pub fn monthly_qtype(&self) -> impl Iterator<Item = (MonthKey, &QtypeCounts)> {
        self.monthly_qtype.months.iter().map(|(k, c)| (*k, c))
    }

    /// The `k` source ASes with the most queries, descending, ties
    /// broken by AS number.
    pub fn as_volume_top_k(&self, k: usize) -> Vec<(Asn, u64)> {
        let mut all: Vec<(Asn, u64)> = self
            .ases
            .keys()
            .iter()
            .copied()
            .zip(self.as_volume.iter().copied())
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
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
        let max = self.hourly.iter().copied().max().unwrap_or(0);
        let min = self.hourly.iter().copied().min().unwrap_or(0);
        if min == 0 {
            0.0
        } else {
            max as f64 / min as f64
        }
    }

    /// The rank of the first cloud-provider AS in the by-volume AS
    /// ranking (the paper: 5th at B-Root 2020, behind four ISPs).
    pub fn first_cloud_as_rank(&self) -> Option<usize> {
        self.as_volume_top_k(usize::MAX)
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
        assert_eq!(a.resolvers(), 4);
        assert_eq!(a.ases(), 2, "only attributed rows count ASes");
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
        let g = a.google_public();
        assert!((g.public_query_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(g.public_resolvers(), 1);
        assert_eq!(g.rest_resolvers(), 1);
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
        assert_eq!(fb.resolvers_v4(), 1);
        assert_eq!(fb.resolvers_v6(), 1);
    }

    #[test]
    fn minimized_ns_detection() {
        let mut a = DatasetAnalysis::new(ZoneModel::nl(100));
        let ns = |qname: &str| {
            let mut r = row(
                "8.8.8.8",
                Some(Provider::Google),
                RType::Ns,
                Rcode::NoError,
                Transport::Udp,
            );
            r.qname = qname.parse().unwrap();
            r
        };
        a.push(&ns("example.nl.")); // 2 labels: minimized form
        a.push(&ns("www.example.nl."));
        // the apex and an out-of-zone name are short, but not minimized
        a.push(&ns("nl."));
        a.push(&ns("example.com."));
        let g = a.provider(Some(Provider::Google));
        assert_eq!(g.ns_queries, 4);
        assert_eq!(g.minimized_ns, 1);
        assert!((g.minimized_ns_ratio() - 0.25).abs() < 1e-12);
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
        r1.timestamp = SimTime::from_date(2019, 12, 2);
        a.push(&r1);
        let mut r2 = row(
            "8.8.8.8",
            Some(Provider::Google),
            RType::Ns,
            Rcode::NoError,
            Transport::Udp,
        );
        r2.timestamp = SimTime::from_date(2019, 11, 20);
        a.push(&r2);
        a.push(&r1);
        let months: Vec<_> = a
            .monthly_qtype()
            .map(|(k, c)| (k, c.get(RType::A), c.get(RType::Ns)))
            .collect();
        assert_eq!(
            months,
            [
                ((Provider::Google, 2019, 11), 0, 1),
                ((Provider::Google, 2019, 12), 2, 0)
            ]
        );
    }

    #[test]
    fn qtype_codes_above_the_dense_table_are_counted() {
        let mut c = QtypeCounts::default();
        for t in [RType::A, RType::Caa, RType::Unknown(4242), RType::Caa] {
            c.add(t, 1);
        }
        assert_eq!((c.get(RType::Caa), c.get(RType::A), c.total()), (2, 1, 4));
        let mut seen: Vec<_> = c.iter().map(|(t, n)| (t.to_u16(), n)).collect();
        seen.sort();
        assert_eq!(seen, [(1, 1), (257, 2), (4242, 1)]);
    }

    #[test]
    fn as_slot_follows_the_row_not_the_first_sighting() {
        let mut a = DatasetAnalysis::new(ZoneModel::root(50));
        let mut r = row("192.0.9.1", None, RType::A, Rcode::NoError, Transport::Udp);
        r.asn = Some(Asn(9999));
        a.push(&r);
        r.asn = Some(Asn(8888));
        a.push(&r);
        r.asn = None;
        a.push(&r);
        assert_eq!(a.ases(), 2);
        assert_eq!(a.as_volume_top_k(5), [(Asn(8888), 1), (Asn(9999), 1)]);
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
