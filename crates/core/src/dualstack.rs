//! The Facebook dual-stack analysis of §4.3 / Figures 5 and 8.
//!
//! Pipeline, exactly as the paper describes it:
//! 1. reverse-look-up every address that sent Facebook queries;
//! 2. parse the site (airport code) and, where present, the embedded
//!    IPv4 address out of the PTR name;
//! 3. join v4/v6 addresses on the embedded-IPv4 key → dual-stack
//!    resolvers;
//! 4. per site and per analyzed server: query volumes by family, and
//!    the median TCP-handshake RTT by family.
//!
//! Steps 1 and 2 depend on the address alone, so they run once per
//! source: a row pays one keyed probe to turn its address into a dense
//! id, and that id's remembered verdict says which site (if any) its
//! queries count for. Sites and servers are dense slots too.

use crate::dense::{Addr, Interner};
use asdb::cloud::Provider;
use entrada::agg::Cdf;
use entrada::schema::QueryRow;
use netbase::flow::{IpVersion, Transport};
use serde::Serialize;
use simnet::ptr::{parse_fb_ptr, PtrDb};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

/// Per-(site, server) accumulators.
#[derive(Debug, Default)]
struct SiteServerAgg {
    q_v4: u64,
    q_v6: u64,
    rtt_v4: Cdf,
    rtt_v6: Cdf,
}

impl SiteServerAgg {
    fn merge(&mut self, other: SiteServerAgg) {
        self.q_v4 += other.q_v4;
        self.q_v6 += other.q_v6;
        self.rtt_v4.merge(other.rtt_v4);
        self.rtt_v6.merge(other.rtt_v6);
    }
}

/// What a source address's PTR record says, read on its first row.
#[derive(Debug, Clone, Copy)]
enum Ptr {
    /// No PTR record at all.
    Missing,
    /// A PTR record that is not a Facebook resolver name.
    Unparsed,
    /// A site's resolver, with the IPv4 its name embeds (the join key;
    /// absent at the 13th site).
    Site {
        site: u32,
        embedded: Option<Ipv4Addr>,
    },
}

/// The analysis state.
pub struct DualStackAnalysis {
    /// Registered servers, `(v4, v6)`: slot `i` aggregates both service
    /// addresses of server `i` (both families serve the same anycast
    /// instance).
    registered: Vec<(IpAddr, IpAddr)>,
    /// Any other server address, slotted after the registered ones.
    other_servers: Interner<IpAddr>,
    /// Facebook source addresses as dense ids.
    sources: Interner<Addr>,
    /// Per source id: its PTR verdict.
    verdicts: Vec<Ptr>,
    /// Site codes as dense slots.
    site_ids: HashMap<String, u32>,
    site_names: Vec<String>,
    /// `[site][server slot]` aggregates.
    sites: Vec<Vec<SiteServerAgg>>,
}

/// One row of the Figure 5 output for a chosen server.
#[derive(Debug, Clone, Serialize)]
pub struct SiteReport {
    /// Rank by total query volume (1 = the dominant site, as in the
    /// paper's "location 1").
    pub rank: usize,
    /// Airport-style site code.
    pub site: String,
    /// IPv4 queries to the chosen server.
    pub queries_v4: u64,
    /// IPv6 queries to the chosen server.
    pub queries_v6: u64,
    /// IPv6 share at this site/server.
    pub v6_ratio: f64,
    /// Median TCP handshake RTT over IPv4, microseconds (None = no TCP
    /// observed — true of the dominant site in the paper).
    pub median_rtt_v4_us: Option<u64>,
    /// Median TCP handshake RTT over IPv6, microseconds.
    pub median_rtt_v6_us: Option<u64>,
}

impl Default for DualStackAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

impl DualStackAnalysis {
    /// Fresh state.
    pub fn new() -> Self {
        DualStackAnalysis {
            registered: Vec::new(),
            other_servers: Interner::default(),
            sources: Interner::default(),
            verdicts: Vec::new(),
            site_ids: HashMap::new(),
            site_names: Vec::new(),
            sites: Vec::new(),
        }
    }

    /// As [`DualStackAnalysis::new`], registering the analyzed servers
    /// so each server's v4 and v6 service addresses aggregate together
    /// (both families serve the same anycast instance).
    pub fn with_servers(servers: &[simnet::auth::ServerSpec]) -> Self {
        let mut out = Self::new();
        out.registered = servers
            .iter()
            .map(|s| (IpAddr::V4(s.v4), IpAddr::V6(s.v6)))
            .collect();
        out
    }

    /// The slot `server`'s queries aggregate under: a registered
    /// server's by a scan of the handful registered, any other address
    /// through the keyed map.
    fn server_slot(&mut self, server: IpAddr) -> usize {
        match self
            .registered
            .iter()
            .position(|&(v4, v6)| server == v4 || server == v6)
        {
            Some(i) => i,
            None => self.registered.len() + self.other_servers.intern(server).0 as usize,
        }
    }

    /// Server slots in use.
    fn server_count(&self) -> usize {
        self.registered.len() + self.other_servers.len()
    }

    /// The address each server slot is reported under.
    fn server_addr(&self, slot: usize) -> IpAddr {
        match self.registered.get(slot) {
            Some(&(v4, _)) => v4,
            None => self.other_servers.keys()[slot - self.registered.len()],
        }
    }

    fn site_id(&mut self, site: &str) -> u32 {
        if let Some(&id) = self.site_ids.get(site) {
            return id;
        }
        let id = self.site_names.len() as u32;
        self.site_ids.insert(site.to_string(), id);
        self.site_names.push(site.to_string());
        self.sites.push(Vec::new());
        id
    }

    fn agg(&mut self, site: u32, server: usize) -> &mut SiteServerAgg {
        let per_server = &mut self.sites[site as usize];
        if per_server.len() <= server {
            per_server.resize_with(server + 1, SiteServerAgg::default);
        }
        &mut per_server[server]
    }

    /// Feed one row (non-Facebook rows are ignored). `ptr` is the
    /// reverse-DNS view the analyst queries; an address is looked up on
    /// its first row only, so every row must be fed the same view.
    pub fn push(&mut self, row: &QueryRow, ptr: &PtrDb) {
        if row.provider != Some(Provider::Facebook) {
            return;
        }
        let (src, new) = self.sources.intern(Addr(row.src));
        if new {
            let verdict = match ptr.lookup(row.src).map(parse_fb_ptr) {
                None => Ptr::Missing,
                Some(None) => Ptr::Unparsed,
                Some(Some((site, embedded))) => Ptr::Site {
                    site: self.site_id(&site),
                    embedded,
                },
            };
            self.verdicts.push(verdict);
        }
        let Ptr::Site { site, .. } = self.verdicts[src as usize] else {
            return;
        };
        let server = self.server_slot(row.server);
        let agg = self.agg(site, server);
        match row.ip_version() {
            IpVersion::V4 => agg.q_v4 += 1,
            IpVersion::V6 => agg.q_v6 += 1,
        }
        if row.transport == Transport::Tcp && row.tcp_rtt_us > 0 {
            match row.ip_version() {
                IpVersion::V4 => agg.rtt_v4.add(row.tcp_rtt_us as u64),
                IpVersion::V6 => agg.rtt_v6.add(row.tcp_rtt_us as u64),
            }
        }
    }

    /// The Facebook source addresses whose verdict `keep` accepts.
    fn sources_where(&self, keep: fn(&Ptr) -> bool) -> impl Iterator<Item = IpAddr> + '_ {
        self.sources
            .keys()
            .iter()
            .zip(&self.verdicts)
            .filter(move |(_, p)| keep(p))
            .map(|(&Addr(addr), _)| addr)
    }

    /// Addresses that had no PTR record at all.
    pub fn no_ptr(&self) -> impl Iterator<Item = IpAddr> + '_ {
        self.sources_where(|p| matches!(p, Ptr::Missing))
    }

    /// Addresses whose PTR record is not a Facebook resolver name: they
    /// count for no site.
    pub fn unparsed(&self) -> impl Iterator<Item = IpAddr> + '_ {
        self.sources_where(|p| matches!(p, Ptr::Unparsed))
    }

    /// Addresses whose PTR lacked the embedded IPv4 (the 13th site).
    pub fn unjoinable(&self) -> impl Iterator<Item = IpAddr> + '_ {
        self.sources_where(|p| matches!(p, Ptr::Site { embedded: None, .. }))
    }

    /// Number of identified dual-stack resolvers (both families seen
    /// for the same embedded-v4 join key).
    pub fn dual_stack_resolvers(&self) -> usize {
        let mut families: HashMap<(u32, Ipv4Addr), (bool, bool)> = HashMap::new();
        for (Addr(addr), p) in self.sources.keys().iter().zip(&self.verdicts) {
            if let Ptr::Site {
                site,
                embedded: Some(key),
            } = *p
            {
                let seen = families.entry((site, key)).or_default();
                match addr {
                    IpAddr::V4(_) => seen.0 = true,
                    IpAddr::V6(_) => seen.1 = true,
                }
            }
        }
        families.values().filter(|&&(v4, v6)| v4 && v6).count()
    }

    /// Distinct sites observed.
    pub fn site_count(&self) -> usize {
        self.site_names.len()
    }

    /// Merge a partial analysis built over a disjoint subset of the
    /// same dataset's rows (with the same registered servers). All
    /// state is sums and set unions over the row multiset, so merged
    /// worker partials report exactly what one serial pass would; the
    /// other partial's ids and slots are renumbered through the
    /// addresses and site codes they stand for.
    pub fn merge(&mut self, other: DualStackAnalysis) {
        let site_remap: Vec<u32> = other.site_names.iter().map(|s| self.site_id(s)).collect();
        let server_remap: Vec<usize> = (0..other.server_count())
            .map(|slot| self.server_slot(other.server_addr(slot)))
            .collect();
        for (&addr, &p) in other.sources.keys().iter().zip(&other.verdicts) {
            if self.sources.intern(addr).1 {
                self.verdicts.push(match p {
                    Ptr::Site { site, embedded } => Ptr::Site {
                        site: site_remap[site as usize],
                        embedded,
                    },
                    p => p,
                });
            }
        }
        for (site, per_server) in other.sites.into_iter().enumerate() {
            for (slot, agg) in per_server.into_iter().enumerate() {
                self.agg(site_remap[site], server_remap[slot]).merge(agg);
            }
        }
    }

    /// Figure 5 for one analyzed server: sites ranked by *overall*
    /// volume (so "location 1" is stable across servers, like the
    /// paper's numbering), with per-server family mixes and RTTs.
    pub fn report_for_server(&self, server: IpAddr) -> Vec<SiteReport> {
        let slot = (0..self.server_count()).find(|&slot| self.server_addr(slot) == server);
        let mut order: Vec<(&str, &[SiteServerAgg])> = self
            .site_names
            .iter()
            .map(String::as_str)
            .zip(self.sites.iter().map(Vec::as_slice))
            .collect();
        let total = |per_server: &[SiteServerAgg]| -> u64 {
            per_server.iter().map(|a| a.q_v4 + a.q_v6).sum()
        };
        order.sort_by(|a, b| total(b.1).cmp(&total(a.1)).then(a.0.cmp(b.0)));
        let empty = SiteServerAgg::default();
        order
            .into_iter()
            .enumerate()
            .map(|(i, (site, per_server))| {
                let agg = slot.and_then(|s| per_server.get(s)).unwrap_or(&empty);
                let total = agg.q_v4 + agg.q_v6;
                SiteReport {
                    rank: i + 1,
                    site: site.to_string(),
                    queries_v4: agg.q_v4,
                    queries_v6: agg.q_v6,
                    v6_ratio: if total == 0 {
                        0.0
                    } else {
                        agg.q_v6 as f64 / total as f64
                    },
                    median_rtt_v4_us: if agg.rtt_v4.is_empty() {
                        None
                    } else {
                        Some(agg.rtt_v4.median())
                    },
                    median_rtt_v6_us: if agg.rtt_v6.is_empty() {
                        None
                    } else {
                        Some(agg.rtt_v6.median())
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::types::{RType, Rcode};
    use netbase::time::SimTime;

    fn row(src: &str, server: &str, tcp: bool, rtt: u32) -> QueryRow {
        QueryRow {
            timestamp: SimTime::from_date(2020, 4, 7),
            src: src.parse().unwrap(),
            src_port: 1,
            server: server.parse().unwrap(),
            transport: if tcp { Transport::Tcp } else { Transport::Udp },
            qname: "example.nl.".parse().unwrap(),
            qtype: RType::A,
            edns_size: Some(512),
            do_bit: true,
            rcode: Some(Rcode::NoError),
            response_size: Some(100),
            response_truncated: false,
            tcp_rtt_us: rtt,
            asn: Some(Provider::Facebook.asns()[0]),
            provider: Some(Provider::Facebook),
            public_dns: false,
        }
    }

    fn setup() -> (PtrDb, DualStackAnalysis) {
        let mut ptr = PtrDb::new();
        let v4a: Ipv4Addr = "157.240.1.1".parse().unwrap();
        ptr.register_dual_stack("ams", 1, v4a, "2a03:2880::1:1".parse().unwrap(), true);
        let v4b: Ipv4Addr = "157.240.2.2".parse().unwrap();
        ptr.register_dual_stack("sjc", 2, v4b, "2a03:2880::2:2".parse().unwrap(), false);
        (ptr, DualStackAnalysis::new())
    }

    const SERVER_A: &str = "194.0.28.53";
    const SERVER_B: &str = "185.159.198.53";

    #[test]
    fn join_identifies_dual_stack() {
        let (ptr, mut a) = setup();
        a.push(&row("157.240.1.1", SERVER_A, false, 0), &ptr);
        a.push(&row("2a03:2880::1:1", SERVER_A, false, 0), &ptr);
        assert_eq!(a.dual_stack_resolvers(), 1);
        // the no-embedded-v4 site cannot be joined
        a.push(&row("157.240.2.2", SERVER_A, false, 0), &ptr);
        a.push(&row("2a03:2880::2:2", SERVER_A, false, 0), &ptr);
        assert_eq!(a.dual_stack_resolvers(), 1);
        assert_eq!(a.unjoinable().count(), 2);
        assert_eq!(a.site_count(), 2);
    }

    #[test]
    fn missing_ptr_is_recorded() {
        let (mut ptr, mut a) = setup();
        ptr.remove("157.240.1.1".parse().unwrap());
        a.push(&row("157.240.1.1", SERVER_A, false, 0), &ptr);
        assert_eq!(a.no_ptr().count(), 1);
        assert_eq!(a.site_count(), 0);
    }

    /// Every Facebook source lands in exactly one of a site, `no_ptr`
    /// or `unparsed` — a PTR name that does not parse used to drop its
    /// rows from every count.
    #[test]
    fn every_facebook_source_is_accounted_for_once() {
        let (mut ptr, mut a) = setup();
        ptr.remove("157.240.1.1".parse().unwrap());
        // a dash in the site code leaves a name `parse_fb_ptr` rejects
        let garbled: IpAddr = "157.240.8.8".parse().unwrap();
        let v6: IpAddr = "2a03:2880::8:8".parse().unwrap();
        ptr.register_dual_stack("x-y", 8, "157.240.8.8".parse().unwrap(), v6, true);
        let sources = [
            "157.240.1.1",    // no PTR
            "2a03:2880::1:1", // ams
            "157.240.2.2",    // sjc, unjoinable
            "157.240.8.8",    // unparsed
        ];
        for s in sources {
            a.push(&row(s, SERVER_A, false, 0), &ptr);
            a.push(&row(s, SERVER_B, true, 9_000), &ptr);
        }
        let no_ptr: Vec<IpAddr> = a.no_ptr().collect();
        let unparsed: Vec<IpAddr> = a.unparsed().collect();
        let sited: Vec<IpAddr> = a.sources_where(|p| matches!(p, Ptr::Site { .. })).collect();
        assert_eq!(unparsed, [garbled]);
        for s in sources {
            let addr: IpAddr = s.parse().unwrap();
            let places = [
                sited.contains(&addr),
                no_ptr.contains(&addr),
                unparsed.contains(&addr),
            ];
            assert_eq!(places.iter().filter(|&&p| p).count(), 1, "{s}: {places:?}");
        }
        assert_eq!(a.site_count(), 2, "an unparsed name makes no site");
    }

    #[test]
    fn per_server_family_mix_and_rtt() {
        let (ptr, mut a) = setup();
        // ams: 3 v6 + 1 v4 to server A; TCP RTTs differ by family
        a.push(&row("2a03:2880::1:1", SERVER_A, true, 30_000), &ptr);
        a.push(&row("2a03:2880::1:1", SERVER_A, true, 32_000), &ptr);
        a.push(&row("2a03:2880::1:1", SERVER_A, false, 0), &ptr);
        a.push(&row("157.240.1.1", SERVER_A, true, 20_000), &ptr);
        // and some server-B traffic that must not leak into A's report
        a.push(&row("157.240.1.1", SERVER_B, false, 0), &ptr);
        let report = a.report_for_server(SERVER_A.parse().unwrap());
        let ams = report.iter().find(|r| r.site == "ams").unwrap();
        assert_eq!(ams.queries_v4, 1);
        assert_eq!(ams.queries_v6, 3);
        assert!((ams.v6_ratio - 0.75).abs() < 1e-12);
        assert_eq!(ams.median_rtt_v4_us, Some(20_000));
        // nearest-rank median of [30000, 32000]
        assert_eq!(ams.median_rtt_v6_us, Some(30_000));
    }

    #[test]
    fn ranking_is_by_overall_volume() {
        let (ptr, mut a) = setup();
        for _ in 0..10 {
            a.push(&row("157.240.2.2", SERVER_A, false, 0), &ptr);
        }
        a.push(&row("157.240.1.1", SERVER_A, false, 0), &ptr);
        let report = a.report_for_server(SERVER_A.parse().unwrap());
        assert_eq!(report[0].site, "sjc");
        assert_eq!(report[0].rank, 1);
        assert_eq!(report[1].site, "ams");
    }

    #[test]
    fn site_without_tcp_has_no_rtt() {
        let (ptr, mut a) = setup();
        a.push(&row("157.240.1.1", SERVER_A, false, 0), &ptr);
        let report = a.report_for_server(SERVER_A.parse().unwrap());
        let ams = report.iter().find(|r| r.site == "ams").unwrap();
        assert_eq!(ams.median_rtt_v4_us, None);
        assert_eq!(ams.median_rtt_v6_us, None);
    }

    #[test]
    fn non_facebook_rows_ignored() {
        let (ptr, mut a) = setup();
        let mut r = row("8.8.8.8", SERVER_A, false, 0);
        r.provider = Some(Provider::Google);
        a.push(&r, &ptr);
        assert_eq!(a.site_count(), 0);
        assert_eq!(a.no_ptr().count(), 0);
    }
}
