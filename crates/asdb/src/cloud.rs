//! The five cloud/content providers and their autonomous systems
//! (paper Table 1), plus each provider's address pools used by the
//! simulator and the Google-Public-DNS classification list used by the
//! Table 4/7 analysis.

use crate::registry::Asn;
use core::fmt;
use netbase::prefix::IpPrefix;
use serde::{Deserialize, Serialize};

/// One of the five cloud/content providers the paper tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Provider {
    /// Google (AS15169) — operates Google Public DNS.
    Google,
    /// Amazon (5 ASes).
    Amazon,
    /// Microsoft (12 ASes).
    Microsoft,
    /// Facebook (AS32934).
    Facebook,
    /// Cloudflare (AS13335) — operates the 1.1.1.1 public resolver.
    Cloudflare,
}

/// All five providers, in the paper's presentation order.
pub const ALL_PROVIDERS: [Provider; 5] = [
    Provider::Google,
    Provider::Amazon,
    Provider::Microsoft,
    Provider::Facebook,
    Provider::Cloudflare,
];

impl Provider {
    /// The provider's AS numbers, exactly as the paper's Table 1 lists
    /// them (Microsoft's "8068-8075" range expanded).
    pub fn asns(self) -> &'static [Asn] {
        match self {
            Provider::Google => &[Asn(15169)],
            Provider::Amazon => &[Asn(7224), Asn(8987), Asn(9059), Asn(14168), Asn(16509)],
            Provider::Microsoft => &[
                Asn(3598),
                Asn(6584),
                Asn(8068),
                Asn(8069),
                Asn(8070),
                Asn(8071),
                Asn(8072),
                Asn(8073),
                Asn(8074),
                Asn(8075),
                Asn(12076),
                Asn(23468),
            ],
            Provider::Facebook => &[Asn(32934)],
            Provider::Cloudflare => &[Asn(13335)],
        }
    }

    /// The provider owning `asn`, if it is one of the 20 Table 1 ASes:
    /// the one ASN → provider table, read for every warehouse row
    /// rebuilt and every zone map written. Allocation-free.
    pub fn of_asn(asn: Asn) -> Option<Provider> {
        ALL_PROVIDERS.into_iter().find(|p| p.asns().contains(&asn))
    }

    /// Whether the provider runs a public DNS resolver service
    /// (Table 1's "Public DNS?" column).
    pub fn runs_public_dns(self) -> bool {
        matches!(self, Provider::Google | Provider::Cloudflare)
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Provider::Google => "Google",
            Provider::Amazon => "Amazon",
            Provider::Microsoft => "Microsoft",
            Provider::Facebook => "Facebook",
            Provider::Cloudflare => "Cloudflare",
        }
    }

    /// IPv4 address pools the provider's resolvers send queries from.
    ///
    /// Pools use the providers' well-known address space where that is
    /// public knowledge, and clean synthetic blocks elsewhere; the
    /// analysis only depends on pool→AS attribution being consistent.
    pub fn v4_pools(self) -> Vec<IpPrefix> {
        let list: &[&str] = match self {
            Provider::Google => &[
                "8.8.8.0/24",     // public resolver anycast
                "8.8.4.0/24",     // public resolver anycast
                "172.253.0.0/16", // public resolver egress
                "74.125.0.0/16",  // crawl / corporate
                "66.249.64.0/19", // crawl
                "108.177.0.0/17", // cloud
            ],
            Provider::Amazon => &[
                "52.0.0.0/12",
                "54.64.0.0/12",
                "13.32.0.0/12",
                "18.128.0.0/12",
                "35.152.0.0/13",
            ],
            Provider::Microsoft => &[
                "40.64.0.0/10",
                "13.64.0.0/11",
                "20.33.0.0/16",
                "51.103.0.0/16",
                "65.52.0.0/14",
                "104.40.0.0/13",
            ],
            Provider::Facebook => &[
                "31.13.64.0/18",
                "66.220.144.0/20",
                "69.171.224.0/19",
                "157.240.0.0/16",
                "173.252.64.0/18",
            ],
            Provider::Cloudflare => &[
                "1.1.1.0/24",
                "1.0.0.0/24",
                "162.158.0.0/15",
                "103.21.244.0/22",
                "141.101.64.0/18",
            ],
        };
        list.iter()
            .map(|s| s.parse().expect("static pool parses"))
            .collect()
    }

    /// IPv6 address pools.
    pub fn v6_pools(self) -> Vec<IpPrefix> {
        let list: &[&str] = match self {
            Provider::Google => &[
                "2001:4860:4860::/48", // public resolver anycast
                "2404:6800:4808::/48", // public resolver egress
                "2001:4860::/36",      // the rest of AS15169
                "2607:f8b0::/32",
            ],
            Provider::Amazon => &["2600:1f00::/24", "2406:da00::/24"],
            Provider::Microsoft => &["2603:1000::/24", "2a01:110::/31"],
            Provider::Facebook => &["2a03:2880::/32", "2620:0:1c00::/40"],
            Provider::Cloudflare => &["2606:4700::/32", "2400:cb00::/32"],
        };
        list.iter()
            .map(|s| s.parse().expect("static pool parses"))
            .collect()
    }

    /// The advertised Google Public DNS ranges — the classification list
    /// the paper's Table 4/7 uses to split Google traffic into "Public
    /// DNS" vs "the rest of the cloud". Empty for other providers.
    pub fn public_dns_ranges(self) -> Vec<IpPrefix> {
        match self {
            Provider::Google => [
                "8.8.8.0/24",
                "8.8.4.0/24",
                "172.253.0.0/16",
                "2001:4860:4860::/48",
                "2404:6800:4808::/48",
            ]
            .iter()
            .map(|s| s.parse().expect("static range parses"))
            .collect(),
            Provider::Cloudflare => ["1.1.1.0/24", "1.0.0.0/24", "2606:4700:4700::/48"]
                .iter()
                .map(|s| s.parse().expect("static range parses"))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Round-robin AS assignment for a pool index, so multi-AS providers
    /// (Amazon, Microsoft) spread their pools across their ASes.
    pub fn asn_for_pool(self, pool_index: usize) -> Asn {
        let asns = self.asns();
        asns[pool_index % asns.len()]
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn twenty_ases_total_as_in_table_1() {
        let total: usize = ALL_PROVIDERS.iter().map(|p| p.asns().len()).sum();
        assert_eq!(total, 20, "paper: 'only 20 ASes'");
    }

    #[test]
    fn asns_are_disjoint_across_providers() {
        let mut seen = HashSet::new();
        for p in ALL_PROVIDERS {
            for &asn in p.asns() {
                assert!(seen.insert(asn), "{asn:?} appears twice");
            }
        }
    }

    #[test]
    fn table_1_membership_spot_checks() {
        assert_eq!(Provider::Google.asns(), [Asn(15169)]);
        assert!(Provider::Amazon.asns().contains(&Asn(16509)));
        assert_eq!(Provider::Microsoft.asns().len(), 12);
        assert!(Provider::Microsoft.asns().contains(&Asn(8071)));
        assert_eq!(Provider::Facebook.asns(), [Asn(32934)]);
        assert_eq!(Provider::Cloudflare.asns(), [Asn(13335)]);
    }

    #[test]
    fn of_asn_inverts_asns() {
        for p in ALL_PROVIDERS {
            for &asn in p.asns() {
                assert_eq!(Provider::of_asn(asn), Some(p), "{asn}");
            }
        }
        for unmapped in [0, 1, 15168, 15170, 64512, u32::MAX] {
            assert_eq!(Provider::of_asn(Asn(unmapped)), None, "AS{unmapped}");
        }
    }

    #[test]
    fn public_dns_flags_match_table_1() {
        assert!(Provider::Google.runs_public_dns());
        assert!(Provider::Cloudflare.runs_public_dns());
        assert!(!Provider::Amazon.runs_public_dns());
        assert!(!Provider::Microsoft.runs_public_dns());
        assert!(!Provider::Facebook.runs_public_dns());
    }

    #[test]
    fn pools_are_nonempty_and_disjoint_across_providers() {
        let mut all: Vec<(Provider, IpPrefix)> = Vec::new();
        for p in ALL_PROVIDERS {
            assert!(!p.v4_pools().is_empty());
            assert!(!p.v6_pools().is_empty());
            for pool in p.v4_pools().into_iter().chain(p.v6_pools()) {
                all.push((p, pool));
            }
        }
        for (i, (pa, a)) in all.iter().enumerate() {
            for (pb, b) in all.iter().skip(i + 1) {
                if pa != pb {
                    assert!(!a.covers(b) && !b.covers(a), "{pa} {a} overlaps {pb} {b}");
                }
            }
        }
    }

    #[test]
    fn google_public_ranges_are_inside_google_pools() {
        let pools: Vec<IpPrefix> = Provider::Google
            .v4_pools()
            .into_iter()
            .chain(Provider::Google.v6_pools())
            .collect();
        for range in Provider::Google.public_dns_ranges() {
            assert!(
                pools.iter().any(|p| p.covers(&range) || *p == range),
                "{range} not inside any Google pool"
            );
        }
    }

    #[test]
    fn asn_for_pool_cycles() {
        let asns = Provider::Amazon.asns();
        assert_eq!(Provider::Amazon.asn_for_pool(0), asns[0]);
        assert_eq!(Provider::Amazon.asn_for_pool(5), asns[0]);
        assert_eq!(Provider::Amazon.asn_for_pool(6), asns[1]);
        assert_eq!(Provider::Google.asn_for_pool(17), Asn(15169));
    }
}
