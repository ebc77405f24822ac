//! The synthetic Internet address plan.
//!
//! The paper resolves source addresses against a BGP-derived prefix
//! table covering the whole routed Internet (40k+ origin ASes visible
//! at each vantage). We cannot ship that table, so this module builds a
//! structurally equivalent one: the five CPs keep their real AS numbers
//! and well-known address pools, and a configurable number of "other"
//! ASes (default sized to the paper's observed AS counts) each announce
//! a few prefixes from address space provably disjoint from the CP
//! pools. Attribution code downstream is agnostic to which plan it runs
//! on — that is the point of the substitution.

use crate::cloud::{Provider, ALL_PROVIDERS};
use crate::mapping::AsMapper;
use crate::registry::{AsInfo, AsKind, AsRegistry, Asn};
use netbase::prefix::IpPrefix;
use netbase::trie::PrefixTrie;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Configuration for [`InternetPlan::build`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanConfig {
    /// Number of non-CP ASes to synthesize. The paper's vantages see
    /// 37k-52k ASes; tests use a few hundred for speed.
    pub other_as_count: usize,
    /// Fraction of "other" ASes that are eyeball ISPs (run resolvers
    /// that query the vantage zones heavily).
    pub isp_fraction: f64,
    /// Fraction of "other" ASes that also announce IPv6 space.
    pub v6_fraction: f64,
    /// RNG seed; the plan is fully deterministic given the config.
    pub seed: u64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            other_as_count: 40_000,
            isp_fraction: 0.45,
            v6_fraction: 0.35,
            seed: 1,
        }
    }
}

/// A fully built address plan: mapper plus the per-AS prefix lists the
/// simulator draws resolver addresses from.
pub struct InternetPlan {
    /// IP → AS/provider resolution.
    pub mapper: AsMapper,
    /// Per-provider (v4 pools, v6 pools), parallel to
    /// [`Provider::v4_pools`] / [`Provider::v6_pools`].
    pub provider_pools: Vec<(Provider, Vec<IpPrefix>, Vec<IpPrefix>)>,
    /// The "other" ASes with their announced prefixes (v4, then v6).
    pub other_ases: Vec<OtherAs>,
}

/// One synthesized non-CP AS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OtherAs {
    /// Its number.
    pub asn: Asn,
    /// ISP (eyeball, runs busy resolvers) or other.
    pub is_isp: bool,
    /// Announced IPv4 prefixes.
    pub v4: Vec<IpPrefix>,
    /// Announced IPv6 prefixes (possibly empty).
    pub v6: Vec<IpPrefix>,
}

/// First octets reserved for CP pools or special use; the synthetic
/// "other" space avoids them entirely, guaranteeing disjointness.
const FORBIDDEN_FIRST_OCTETS: &[u8] = &[
    0, 1, 8, 10, 13, 18, 20, 31, 35, 40, 51, 52, 54, 65, 66, 69, 74, 100, 103, 104, 108, 127, 141,
    157, 162, 169, 172, 173, 192, 198, 203, 224,
];

impl InternetPlan {
    /// Build the plan. Deterministic in `config`. The prefix trie is a
    /// node arena, so the plan's allocations are its lists and the
    /// trie's two buffers growing, not one per trie node.
    pub fn build(config: &PlanConfig) -> InternetPlan {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_a5db);
        let mut trie: PrefixTrie<Asn> = PrefixTrie::new();
        let mut registry = AsRegistry::with_cloud_providers();

        // 1. Cloud providers announce their pools.
        let mut provider_pools = Vec::new();
        for provider in ALL_PROVIDERS {
            let v4 = provider.v4_pools();
            let v6 = provider.v6_pools();
            for (i, p) in v4.iter().enumerate() {
                trie.insert(*p, provider.asn_for_pool(i));
            }
            for (i, p) in v6.iter().enumerate() {
                trie.insert(*p, provider.asn_for_pool(i));
            }
            provider_pools.push((provider, v4, v6));
        }

        // 2. Synthesize "other" ASes over the allowed first-octet pool.
        let allowed: Vec<u8> = (1u8..=223)
            .filter(|o| !FORBIDDEN_FIRST_OCTETS.contains(o))
            .collect();
        let mut v4_counter: u64 = 0;
        let mut v6_counter: u64 = 1;
        let mut other_ases = Vec::with_capacity(config.other_as_count);
        let mut next_asn: u32 = 174;
        for _ in 0..config.other_as_count {
            while Provider::of_asn(Asn(next_asn)).is_some() {
                next_asn += 1;
            }
            let asn = Asn(next_asn);
            next_asn += 1;

            let is_isp = rng.gen_bool(config.isp_fraction);
            // 1-3 v4 prefixes; ISPs tend to hold more space (shorter).
            let n_v4 = rng.gen_range(1..=3);
            let mut v4 = Vec::with_capacity(n_v4);
            for _ in 0..n_v4 {
                // Carve successive /18s: octet.block.sub → /18 gives
                // 4 * 256 * allowed ≈ 196k slots, plenty for 3*52k.
                let slot = v4_counter;
                v4_counter += 1;
                let octet = allowed[(slot % allowed.len() as u64) as usize];
                let rest = slot / allowed.len() as u64;
                let second = (rest % 256) as u8;
                let quarter = ((rest / 256) % 4) as u8; // /18 inside the /16
                let addr = Ipv4Addr::new(octet, second, quarter << 6, 0);
                let len = if is_isp { 18 } else { rng.gen_range(18..=20) };
                v4.push(IpPrefix::new(IpAddr::V4(addr), len).expect("len in range"));
            }
            let mut v6 = Vec::new();
            if rng.gen_bool(config.v6_fraction) {
                // /48s under 2400::/16 spaced so they never collide with
                // Cloudflare's 2400:cb00::/32 (counter stays tiny).
                let bits: u128 = (0x2400u128 << 112) | ((v6_counter as u128) << 80);
                v6_counter += 1;
                v6.push(IpPrefix::new(IpAddr::V6(Ipv6Addr::from(bits)), 48).expect("len in range"));
            }
            for p in v4.iter().chain(v6.iter()) {
                trie.insert(*p, asn);
            }
            registry.register(AsInfo {
                asn,
                name: format!("{}-{}", if is_isp { "isp" } else { "net" }, asn.0),
                kind: if is_isp { AsKind::Isp } else { AsKind::Other },
            });
            other_ases.push(OtherAs {
                asn,
                is_isp,
                v4,
                v6,
            });
        }

        InternetPlan {
            mapper: AsMapper::new(trie, registry),
            provider_pools,
            other_ases,
        }
    }

    /// The ISP subset of the other ASes.
    pub fn isps(&self) -> impl Iterator<Item = &OtherAs> {
        self.other_ases.iter().filter(|a| a.is_isp)
    }

    /// Total AS count (cloud + other).
    pub fn as_count(&self) -> usize {
        20 + self.other_ases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan() -> InternetPlan {
        InternetPlan::build(&PlanConfig {
            other_as_count: 500,
            isp_fraction: 0.5,
            v6_fraction: 0.4,
            seed: 7,
        })
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_plan();
        let b = small_plan();
        assert_eq!(a.other_ases.len(), b.other_ases.len());
        for (x, y) in a.other_ases.iter().zip(b.other_ases.iter()) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.v4, y.v4);
            assert_eq!(x.v6, y.v6);
            assert_eq!(x.is_isp, y.is_isp);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_plan();
        let b = InternetPlan::build(&PlanConfig {
            other_as_count: 500,
            isp_fraction: 0.5,
            v6_fraction: 0.4,
            seed: 8,
        });
        let same = a
            .other_ases
            .iter()
            .zip(b.other_ases.iter())
            .all(|(x, y)| x.is_isp == y.is_isp && x.v4 == y.v4);
        assert!(!same, "seed must matter");
    }

    #[test]
    fn cp_addresses_attribute_to_cp() {
        let plan = small_plan();
        assert_eq!(
            plan.mapper.provider_of("8.8.8.8".parse().unwrap()),
            Some(Provider::Google)
        );
        assert_eq!(
            plan.mapper.provider_of("2a03:2880::1".parse().unwrap()),
            Some(Provider::Facebook)
        );
        assert_eq!(
            plan.mapper.provider_of("52.1.2.3".parse().unwrap()),
            Some(Provider::Amazon)
        );
        assert_eq!(
            plan.mapper.provider_of("40.100.1.1".parse().unwrap()),
            Some(Provider::Microsoft)
        );
        assert_eq!(
            plan.mapper.provider_of("1.1.1.1".parse().unwrap()),
            Some(Provider::Cloudflare)
        );
    }

    #[test]
    fn other_addresses_attribute_to_their_as_not_a_cp() {
        let plan = small_plan();
        for other in plan.other_ases.iter().take(50) {
            for p in other.v4.iter().chain(other.v6.iter()) {
                let host = p.network();
                assert_eq!(plan.mapper.asn_of(host), Some(other.asn), "{p}");
                assert_eq!(plan.mapper.provider_of(host), None, "{p}");
            }
        }
    }

    #[test]
    fn other_prefixes_disjoint_from_cp_pools() {
        let plan = small_plan();
        let cp_pools: Vec<IpPrefix> = ALL_PROVIDERS
            .iter()
            .flat_map(|p| p.v4_pools().into_iter().chain(p.v6_pools()))
            .collect();
        for other in &plan.other_ases {
            for p in other.v4.iter().chain(other.v6.iter()) {
                for cp in &cp_pools {
                    assert!(!cp.covers(p) && !p.covers(cp), "{p} vs {cp}");
                }
            }
        }
    }

    #[test]
    fn as_counts_and_roles() {
        let plan = small_plan();
        assert_eq!(plan.as_count(), 520);
        let isps = plan.isps().count();
        assert!((150..=350).contains(&isps), "isp fraction ~0.5: {isps}");
        assert!(plan.mapper.prefix_count() > 500);
        let with_v6 = plan.other_ases.iter().filter(|a| !a.v6.is_empty()).count();
        assert!(
            (100..=300).contains(&with_v6),
            "v6 fraction ~0.4: {with_v6}"
        );
    }

    #[test]
    fn unique_asns() {
        let plan = small_plan();
        let mut seen = std::collections::HashSet::new();
        for a in &plan.other_ases {
            assert!(seen.insert(a.asn));
            assert_eq!(Provider::of_asn(a.asn), None);
        }
    }

    #[test]
    fn scales_to_paper_size() {
        // Build the full 40k-AS plan once to prove capacity; keep it
        // out of the default small tests for speed elsewhere.
        let plan = InternetPlan::build(&PlanConfig {
            other_as_count: 40_000,
            ..Default::default()
        });
        assert_eq!(plan.as_count(), 40_020);
        assert!(plan.mapper.prefix_count() >= 40_000);
        // spot-check random attribution still works at scale
        let other = &plan.other_ases[39_999];
        assert_eq!(plan.mapper.asn_of(other.v4[0].network()), Some(other.asn));
    }
}
