//! Resolver fleet runtime: turns a [`FleetSpec`] into concrete
//! resolvers with addresses, sites, EDNS parameters, activity weights
//! and RTTs, ready for the engine to drive.

use crate::profile::{FleetSpec, SiteSpec};
use crate::ptr::PtrDb;
use asdb::synth::InternetPlan;
use netbase::flow::IpVersion;
use netbase::prefix::IpPrefix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr};

/// One concrete resolver instance.
#[derive(Debug, Clone)]
pub struct Resolver {
    /// Primary source address (family per fleet assignment).
    pub ip: IpAddr,
    /// Secondary address for dual-stack resolvers (always the other
    /// family; `ip` is v4, `alt_ip` v6 for those).
    pub alt_ip: Option<IpAddr>,
    /// Index into the fleet's site table.
    pub site: u8,
    /// Relative activity weight (normalized by the engine).
    pub weight: f64,
    /// Advertised EDNS UDP size; 0 = no EDNS.
    pub edns_size: u16,
    /// Sets the DNSSEC-OK bit on queries.
    pub do_bit: bool,
    /// Applies 0x20 case randomization to outgoing qnames.
    pub mix_case: bool,
    /// Per-server RTTs in microseconds, held inline.
    rtts_us: RttTable,
}

/// Most servers a dataset analyzes (`.nz` lists six).
const MAX_SERVERS: usize = 6;

/// A resolver's RTT to every server: the first `servers` entries over
/// IPv4, the next `servers` over IPv6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RttTable {
    us: [u32; 2 * MAX_SERVERS],
    servers: usize,
}

impl Resolver {
    /// The source address for a given family (dual-stack only has both).
    pub fn addr_for(&self, version: IpVersion) -> IpAddr {
        match (version, self.ip, self.alt_ip) {
            (IpVersion::V4, ip @ IpAddr::V4(_), _) => ip,
            (IpVersion::V6, ip @ IpAddr::V6(_), _) => ip,
            (IpVersion::V4, _, Some(alt @ IpAddr::V4(_))) => alt,
            (IpVersion::V6, _, Some(alt @ IpAddr::V6(_))) => alt,
            (_, ip, _) => ip, // single-family resolver: only choice
        }
    }

    /// Whether this resolver has an address to send from over
    /// `(IPv4, IPv6)`.
    pub fn families(&self) -> (bool, bool) {
        let has =
            |v| IpVersion::of(self.ip) == v || self.alt_ip.is_some_and(|a| IpVersion::of(a) == v);
        (has(IpVersion::V4), has(IpVersion::V6))
    }

    /// RTT to `server` over `version`, in microseconds.
    pub fn rtt_us(&self, server: usize, version: IpVersion) -> u32 {
        let RttTable { us, servers } = &self.rtts_us;
        match version {
            IpVersion::V4 => us[..*servers][server],
            IpVersion::V6 => us[*servers..][server],
        }
    }
}

/// A materialized fleet.
pub struct Fleet {
    /// The spec it was built from.
    pub spec: FleetSpec,
    /// Its resolvers.
    pub resolvers: Vec<Resolver>,
    /// Cumulative activity weights for O(log n) weighted sampling.
    cumulative: Vec<f64>,
}

impl Fleet {
    /// Materialize `spec` against the address plan. `server_count` sizes
    /// the RTT tables; `ptr` receives Facebook-style reverse records for
    /// dual-stack fleets. Deterministic given `seed`.
    pub fn build(
        spec: FleetSpec,
        plan: &InternetPlan,
        server_count: usize,
        seed: u64,
        ptr: &mut PtrDb,
    ) -> Fleet {
        Fleet::build_offset(spec, plan, server_count, seed, ptr, 0)
    }

    /// As [`Fleet::build`], with an address-index offset so fleets that
    /// share pools (the two "other" fleets) never collide on addresses.
    pub fn build_offset(
        spec: FleetSpec,
        plan: &InternetPlan,
        server_count: usize,
        seed: u64,
        ptr: &mut PtrDb,
        addr_offset: u64,
    ) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed ^ fxhash(spec.name.as_bytes()));
        let (v4_pools, v6_pools) = pools_for(&spec, plan);
        let mut resolvers = Vec::with_capacity(spec.resolver_count as usize);
        let site_cum = cumulative_weights(spec.sites.iter().map(|s| s.weight));
        // Family placement: v6 resolvers occupy a deterministic rank
        // interval whose *weight mass* matches the fleet's target v6
        // traffic share while its *count* matches the population share
        // (Tables 5 vs 6). Random per-resolver assignment would let one
        // lucky heavy-hitter swing the traffic share wildly under Zipf
        // activity skew.
        // Zipf-ish activity: the resolver of rank r weighs 1/(r+1)^skew.
        // One table per fleet serves the v6 interval, the EDNS
        // stratification and every resolver's own weight.
        let rank_weights: Vec<f64> = (0..spec.resolver_count as u64)
            .map(|r| 1.0 / ((r + 1) as f64).powf(spec.activity_skew))
            .collect();
        let v6_interval = if spec.dual_stack {
            (0, 0)
        } else {
            v6_rank_interval(&rank_weights, spec.v6_resolver_frac, spec.v6_activity_boost)
        };
        // EDNS sizes are assigned by weight-stratified deficit so the
        // *query-weighted* size distribution (what Figure 6 plots)
        // matches the spec even under heavy activity skew.
        let edns_by_rank = stratified_assign(&rank_weights, &spec.edns_dist);
        // unsited resolvers sit at a drawn distance from every server,
        // shaped per server by this fixed profile
        let server_shape: Vec<f64> = (0..server_count)
            .map(|s| 0.85 + 0.3 * ((s as f64 * 0.7).sin().abs()))
            .collect();
        // Every physical site must stay observable: independent weighted
        // draws can leave a low-weight site with zero resolvers (or only
        // near-idle ones), hiding it from PTR-based site discovery. Pin
        // the fleet's hottest `sites.len()` resolvers one-per-site; the
        // weighted draw places everyone else.
        let pinned_sites = pin_sites(&spec, seed);
        for i in 0..spec.resolver_count {
            let drawn_site = if spec.sites.is_empty() {
                0u8
            } else {
                pick_cumulative(&site_cum, rng.gen()) as u8
            };
            let site = pinned_sites
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, s)| *s)
                .unwrap_or(drawn_site);
            // the rank is shuffled by index hashing so address order is
            // not activity order
            let rank = splitmix(seed ^ (i as u64) << 1) % spec.resolver_count as u64;
            let weight = rank_weights[rank as usize];
            let v6_resolver = rank >= v6_interval.0 && rank < v6_interval.1;
            let site_spec = spec.sites.get(site as usize);
            let (ip, alt_ip) = assign_addresses(
                &spec,
                &v4_pools,
                &v6_pools,
                i,
                addr_offset,
                site,
                v6_resolver,
                ptr,
            );
            let edns_size = match site_spec.and_then(|s| s.edns_dist.as_ref()) {
                Some(site_dist) => sample_dist(site_dist, rng.gen()).unwrap_or(0),
                None => edns_by_rank[rank as usize],
            };
            let do_bit = rng.gen_bool(spec.do_bit_frac);
            let mix_case = rng.gen_bool(spec.case_randomization);
            let rtts_us = rtt_table(site_spec, &server_shape, &mut rng);
            resolvers.push(Resolver {
                ip,
                alt_ip,
                site,
                weight,
                edns_size,
                do_bit,
                mix_case,
                rtts_us,
            });
        }
        let cumulative = cumulative_weights(resolvers.iter().map(|r| r.weight));
        Fleet {
            spec,
            resolvers,
            cumulative,
        }
    }

    /// Pick a resolver index, weighted by activity.
    pub fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        pick_cumulative(&self.cumulative, rng.gen())
    }

    /// Resolver count.
    pub fn len(&self) -> usize {
        self.resolvers.len()
    }

    /// True when no resolvers exist.
    pub fn is_empty(&self) -> bool {
        self.resolvers.is_empty()
    }
}

/// Address pools this fleet draws from.
fn pools_for(spec: &FleetSpec, plan: &InternetPlan) -> (Vec<IpPrefix>, Vec<IpPrefix>) {
    if let Some(provider) = spec.provider {
        if spec.public_dns {
            let ranges = provider.public_dns_ranges();
            let v4 = ranges.iter().filter(|p| p.is_ipv4()).copied().collect();
            let v6 = ranges.iter().filter(|p| !p.is_ipv4()).copied().collect();
            return (v4, v6);
        }
        let (_, v4_all, v6_all) = plan
            .provider_pools
            .iter()
            .find(|(p, _, _)| *p == provider)
            .expect("provider present in plan");
        // non-public fleets avoid the public ranges so the Table 4
        // split is clean
        let public = provider.public_dns_ranges();
        let v4 = v4_all
            .iter()
            .filter(|p| !public.iter().any(|r| p.covers(r) && p.len() == r.len()))
            .filter(|p| !public.contains(p))
            .copied()
            .collect();
        let v6 = v6_all
            .iter()
            .filter(|p| !public.contains(p))
            .copied()
            .collect();
        (v4, v6)
    } else {
        // "other" fleets: spread across the synthetic AS prefixes
        let v4 = plan
            .other_ases
            .iter()
            .flat_map(|a| a.v4.iter().copied())
            .collect();
        let v6 = plan
            .other_ases
            .iter()
            .flat_map(|a| a.v6.iter().copied())
            .collect();
        (v4, v6)
    }
}

/// Assign primary (and for dual-stack fleets, secondary) addresses.
#[allow(clippy::too_many_arguments)]
fn assign_addresses(
    spec: &FleetSpec,
    v4_pools: &[IpPrefix],
    v6_pools: &[IpPrefix],
    index: u32,
    addr_offset: u64,
    site: u8,
    v6_resolver: bool,
    ptr: &mut PtrDb,
) -> (IpAddr, Option<IpAddr>) {
    if spec.dual_stack {
        let v4 = host_in(v4_pools, index as u64 + addr_offset);
        let v6 = host_in(v6_pools, index as u64 + addr_offset);
        let v4 = match v4 {
            IpAddr::V4(a) => a,
            IpAddr::V6(_) => Ipv4Addr::new(198, 51, 100, 1), // unreachable with FB pools
        };
        let site_code = spec
            .sites
            .get(site as usize)
            .map_or("xxx", |s| s.code.as_str());
        // the 13th site's PTR names lack the embedded IPv4 (paper §4.3)
        let embed_v4 = (site as usize) != spec.sites.len().saturating_sub(1);
        ptr.register_dual_stack(site_code, index, v4, v6, embed_v4);
        // a handful of addresses have no PTR at all (paper: 1 v4, 2 v6)
        if index == 0 {
            ptr.remove(IpAddr::V4(v4));
        }
        if index == 1 || index == 2 {
            ptr.remove(v6);
        }
        (IpAddr::V4(v4), Some(v6))
    } else {
        let v6_resolver = v6_resolver && !v6_pools.is_empty();
        let ip = if v6_resolver {
            host_in(v6_pools, index as u64 + addr_offset)
        } else {
            host_in(v4_pools, index as u64 + addr_offset)
        };
        (ip, None)
    }
}

/// The `i`-th host across a pool list: round-robin over pools, then
/// sequential within the pool. Distinct indices yield distinct
/// addresses (no hashing collisions), which matters for resolver
/// counting (Tables 3/4/6) and PTR identity.
fn host_in(pools: &[IpPrefix], i: u64) -> IpAddr {
    assert!(!pools.is_empty(), "fleet with no address pool");
    let pool = &pools[(i % pools.len() as u64) as usize];
    let host_idx = i / pools.len() as u64 + 1; // skip the network address
    if pool.is_ipv4() {
        IpAddr::V4(pool.v4_host(host_idx % pool.v4_size().max(1)))
    } else {
        IpAddr::V6(pool.v6_host(host_idx))
    }
}

/// One resolver's RTT table (IPv4 per server, then IPv6 per server):
/// the site's table for sited fleets, otherwise a lognormal-ish distance
/// draw shared across families with small skew, one entry per
/// `server_shape` factor.
fn rtt_table(site: Option<&SiteSpec>, server_shape: &[f64], rng: &mut StdRng) -> RttTable {
    let mut us = [0; 2 * MAX_SERVERS];
    let servers = site.map_or(server_shape.len(), |s| s.rtt_v4_ms.len());
    assert!(
        servers <= MAX_SERVERS,
        "more servers than an RTT table holds"
    );
    match site {
        Some(s) => {
            let jitter = 0.9 + rng.gen::<f64>() * 0.2;
            for (slot, ms) in us.iter_mut().zip(s.rtt_v4_ms.iter().chain(&s.rtt_v6_ms)) {
                *slot = (ms * jitter * 1000.0) as u32;
            }
        }
        None => {
            let base_ms = 5.0 * (1.0 + rng.gen::<f64>() * 8.0).powf(1.6);
            for (s, shape) in server_shape.iter().enumerate() {
                let per_server = base_ms * shape;
                let fam_skew = 0.95 + rng.gen::<f64>() * 0.1;
                us[s] = (per_server * 1000.0) as u32;
                us[servers + s] = (per_server * fam_skew * 1000.0) as u32;
            }
        }
    }
    RttTable { us, servers }
}

/// Draw from a `(value, weight)` distribution with a uniform `u` in
/// [0,1); `None` for an empty distribution.
pub fn sample_dist<T: Copy>(dist: &[(T, f64)], u: f64) -> Option<T> {
    let total: f64 = dist.iter().map(|(_, w)| w).sum();
    let mut acc = 0.0;
    for (v, w) in dist {
        acc += w / total;
        if u < acc {
            return Some(*v);
        }
    }
    dist.last().map(|(v, _)| *v)
}

/// Pick the fleet's hottest `sites.len()` resolver indices and assign
/// them one site each (site order = spec order, hottest first, so the
/// dominant site also holds the single most active resolver). Returns
/// `(resolver_index, site)` pairs; empty for single-site fleets where
/// coverage is trivial.
fn pin_sites(spec: &FleetSpec, seed: u64) -> Vec<(u32, u8)> {
    if spec.sites.len() < 2 || (spec.resolver_count as usize) < spec.sites.len() {
        return Vec::new();
    }
    let mut by_rank: Vec<u32> = (0..spec.resolver_count).collect();
    by_rank.sort_by_key(|&i| {
        (
            splitmix(seed ^ (i as u64) << 1) % spec.resolver_count as u64,
            i,
        )
    });
    by_rank
        .iter()
        .take(spec.sites.len())
        .enumerate()
        .map(|(s, &i)| (i, s as u8))
        .collect()
}

/// Running sums of `weights` (negatives count as zero), normalised so
/// the last entry is 1: the table [`pick_cumulative`] draws from.
pub fn cumulative_weights(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    let mut out: Vec<f64> = weights
        .map(|w| {
            acc += w.max(0.0);
            acc
        })
        .collect();
    if let Some(last) = out.last().copied() {
        if last > 0.0 {
            for v in &mut out {
                *v /= last;
            }
        }
    }
    out
}

/// The index whose slice of a [`cumulative_weights`] table covers `u`
/// in `[0, 1)`: how resolvers are picked by activity, sites by weight
/// and fleets by traffic share.
pub fn pick_cumulative(cumulative: &[f64], u: f64) -> usize {
    match cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN weights")) {
        Ok(i) => (i + 1).min(cumulative.len() - 1),
        Err(i) => i.min(cumulative.len() - 1),
    }
}

/// The rank interval [lo, hi) assigned to IPv6 resolvers: its length is
/// the target *population* share and its position is chosen so the
/// enclosed Zipf weight mass matches the target *traffic* share
/// (population share x activity boost). See Tables 5/6 of the paper:
/// Amazon's 1.8% IPv6 resolvers carry 3% of its queries, Microsoft's
/// 3% carry almost none.
fn v6_rank_interval(weights: &[f64], pop_frac: f64, boost: f64) -> (u64, u64) {
    let n = weights.len() as u64;
    if pop_frac <= 0.0 || n == 0 {
        return (0, 0);
    }
    if pop_frac >= 1.0 {
        return (0, n);
    }
    let m = (((pop_frac * n as f64).round() as u64).max(1)).min(n);
    let total: f64 = weights.iter().sum();
    let target = (pop_frac * boost).clamp(0.0, 0.95);
    // slide the window; weights are decreasing, so the window share is
    // monotone decreasing in the start position — pick the best fit
    let mut window: f64 = weights.iter().take(m as usize).sum();
    let mut best = (0u64, (window / total - target).abs());
    for a in 1..=(n - m) {
        window += weights[(a + m - 1) as usize] - weights[(a - 1) as usize];
        let err = (window / total - target).abs();
        if err < best.1 {
            best = (a, err);
        }
    }
    (best.0, best.0 + m)
}

/// Weight-stratified categorical assignment: distribute ranks over the
/// `(value, prob)` categories so each category's share of the total
/// rank *weight* (not just count) matches its probability. Greedy by
/// descending weight: each rank goes to the category with the largest
/// remaining weight deficit.
fn stratified_assign(weights: &[f64], dist: &[(u16, f64)]) -> Vec<u16> {
    if weights.is_empty() || dist.is_empty() {
        return Vec::new();
    }
    let total_prob: f64 = dist.iter().map(|(_, p)| p).sum();
    let total_weight: f64 = weights.iter().sum();
    let mut deficit: Vec<f64> = dist
        .iter()
        .map(|(_, p)| p / total_prob * total_weight)
        .collect();
    let mut out = Vec::with_capacity(weights.len());
    for w in weights {
        let (best, _) = deficit
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty dist");
        deficit[best] -= w;
        out.push(dist[best].0);
    }
    out
}

/// SplitMix64: cheap deterministic scrambling for index-derived choices.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FxHash-style byte hashing for stable per-fleet seeds.
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{facebook_fleet, google_fleets, microsoft_fleet, Vantage};
    use asdb::synth::{InternetPlan, PlanConfig};

    fn plan() -> InternetPlan {
        InternetPlan::build(&PlanConfig {
            other_as_count: 100,
            isp_fraction: 0.5,
            v6_fraction: 0.4,
            seed: 1,
        })
    }

    fn shrink(mut spec: crate::profile::FleetSpec, n: u32) -> crate::profile::FleetSpec {
        spec.resolver_count = n;
        spec
    }

    #[test]
    fn google_public_fleet_uses_public_ranges() {
        let plan = plan();
        let mut ptr = PtrDb::new();
        let spec = shrink(google_fleets(Vantage::Nl, 2020).remove(0), 500);
        let fleet = Fleet::build(spec, &plan, 2, 42, &mut ptr);
        assert_eq!(fleet.len(), 500);
        for r in &fleet.resolvers {
            assert!(
                plan.mapper.is_public_dns(r.ip),
                "{} must be in the advertised public ranges",
                r.ip
            );
        }
        assert!(ptr.is_empty(), "only dual-stack fleets get PTR records");
    }

    #[test]
    fn google_rest_fleet_avoids_public_ranges() {
        let plan = plan();
        let mut ptr = PtrDb::new();
        let spec = shrink(google_fleets(Vantage::Nl, 2020).remove(1), 500);
        let fleet = Fleet::build(spec, &plan, 2, 42, &mut ptr);
        for r in &fleet.resolvers {
            assert!(!plan.mapper.is_public_dns(r.ip), "{}", r.ip);
            assert_eq!(
                plan.mapper.provider_of(r.ip),
                Some(asdb::cloud::Provider::Google),
                "{}",
                r.ip
            );
        }
    }

    #[test]
    fn v6_interval_hits_population_and_traffic_targets() {
        let plan = plan();
        let mut ptr = PtrDb::new();
        let spec = shrink(crate::profile::amazon_fleet(Vantage::Nl, 2020), 2000);
        let (pop_target, boost) = (spec.v6_resolver_frac, spec.v6_activity_boost);
        let fleet = Fleet::build(spec, &plan, 2, 42, &mut ptr);
        let v6: Vec<&Resolver> = fleet.resolvers.iter().filter(|r| r.ip.is_ipv6()).collect();
        let pop = v6.len() as f64 / fleet.len() as f64;
        assert!(
            (pop - pop_target).abs() < 0.01,
            "population share {pop} vs {pop_target}"
        );
        let total_w: f64 = fleet.resolvers.iter().map(|r| r.weight).sum();
        let v6_w: f64 = v6.iter().map(|r| r.weight).sum();
        let traffic = v6_w / total_w;
        let traffic_target = pop_target * boost;
        assert!(
            (traffic - traffic_target).abs() < 0.02,
            "traffic share {traffic} vs {traffic_target}"
        );
    }

    #[test]
    fn microsoft_fleet_is_v4_dominated() {
        let plan = plan();
        let mut ptr = PtrDb::new();
        let spec = shrink(microsoft_fleet(Vantage::Nl, 2020), 2000);
        let fleet = Fleet::build(spec, &plan, 2, 42, &mut ptr);
        let v6 = fleet.resolvers.iter().filter(|r| r.ip.is_ipv6()).count();
        let frac = v6 as f64 / 2000.0;
        assert!((0.01..0.06).contains(&frac), "v6 resolver frac {frac}");
        // none have the DO bit (Microsoft does not validate)
        assert!(fleet.resolvers.iter().all(|r| !r.do_bit));
    }

    #[test]
    fn facebook_fleet_is_dual_stack_with_ptr() {
        let plan = plan();
        let mut ptr = PtrDb::new();
        let spec = shrink(facebook_fleet(Vantage::Nl, 2020), 300);
        let fleet = Fleet::build(spec, &plan, 2, 42, &mut ptr);
        for r in &fleet.resolvers {
            assert!(r.ip.is_ipv4());
            assert!(r.alt_ip.unwrap().is_ipv6());
            assert!((r.site as usize) < 13);
        }
        // ~2 records per resolver, minus the 3 removed no-PTR addresses
        assert_eq!(ptr.len(), 300 * 2 - 3);
        // address families route to the right provider
        assert_eq!(
            plan.mapper.provider_of(fleet.resolvers[5].ip),
            Some(asdb::cloud::Provider::Facebook)
        );
    }

    #[test]
    fn facebook_site_one_dominates_and_has_big_edns() {
        let plan = plan();
        let mut ptr = PtrDb::new();
        let spec = shrink(facebook_fleet(Vantage::Nl, 2020), 2000);
        let fleet = Fleet::build(spec, &plan, 2, 42, &mut ptr);
        let site1 = fleet.resolvers.iter().filter(|r| r.site == 0).count();
        let frac = site1 as f64 / 2000.0;
        assert!((0.25..0.45).contains(&frac), "site-1 share {frac}");
        for r in fleet.resolvers.iter().filter(|r| r.site == 0) {
            assert_eq!(r.edns_size, 4096, "site 1 never truncates");
        }
        // sites 8-10 carry the server-A v6 penalty
        let r = fleet.resolvers.iter().find(|r| r.site == 7).unwrap();
        assert!(r.rtt_us(0, IpVersion::V6) > r.rtt_us(0, IpVersion::V4) + 25_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let plan = plan();
        let build = || {
            let mut ptr = PtrDb::new();
            let spec = shrink(google_fleets(Vantage::Nl, 2020).remove(0), 100);
            Fleet::build(spec, &plan, 2, 7, &mut ptr)
        };
        let a = build();
        let b = build();
        for (x, y) in a.resolvers.iter().zip(b.resolvers.iter()) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.edns_size, y.edns_size);
            assert_eq!(x.rtts_us, y.rtts_us);
        }
    }

    #[test]
    fn weighted_pick_respects_skew() {
        let plan = plan();
        let mut ptr = PtrDb::new();
        let mut spec = shrink(google_fleets(Vantage::Nl, 2020).remove(0), 200);
        spec.activity_skew = 1.2;
        let fleet = Fleet::build(spec, &plan, 2, 7, &mut ptr);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 200];
        for _ in 0..20_000 {
            counts[fleet.pick(&mut rng)] += 1;
        }
        // the most active resolver should far exceed the median
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert!(
            sorted[199] > sorted[100] * 5,
            "skew visible: {:?}",
            &sorted[195..]
        );
        // every resolver is reachable in principle (weights positive)
        assert!(fleet.resolvers.iter().all(|r| r.weight > 0.0));
    }

    #[test]
    fn sample_dist_boundaries() {
        let dist = vec![(512u16, 0.3), (1232, 0.5), (4096, 0.2)];
        assert_eq!(sample_dist(&dist, 0.0), Some(512));
        assert_eq!(sample_dist(&dist, 0.29), Some(512));
        assert_eq!(sample_dist(&dist, 0.31), Some(1232));
        assert_eq!(sample_dist(&dist, 0.79), Some(1232));
        assert_eq!(sample_dist(&dist, 0.81), Some(4096));
        assert_eq!(sample_dist(&dist, 0.999), Some(4096));
    }

    #[test]
    fn addr_for_dual_stack() {
        let r = Resolver {
            ip: "157.240.1.1".parse().unwrap(),
            alt_ip: Some("2a03:2880::1".parse().unwrap()),
            site: 0,
            weight: 1.0,
            edns_size: 512,
            do_bit: true,
            mix_case: false,
            rtts_us: RttTable {
                us: [10_000, 12_000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                servers: 1,
            },
        };
        assert!(r.addr_for(IpVersion::V4).is_ipv4());
        assert!(r.addr_for(IpVersion::V6).is_ipv6());
        assert_eq!(r.rtt_us(0, IpVersion::V6), 12_000);
    }
}
