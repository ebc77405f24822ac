//! Prefix→AS mapping: the enrichment step that turns a query source
//! address into an AS and, transitively, a cloud provider.

use crate::cloud::Provider;
use crate::registry::{AsRegistry, Asn};
use netbase::prefix::IpPrefix;
use netbase::trie::PrefixTrie;
use std::net::IpAddr;
use std::sync::Arc;

/// IP → AS (and provider) resolution: an LPM trie over announced
/// prefixes plus the AS registry, and the Google-Public-DNS range list
/// for the Table 4/7 split. The tables are shared: a clone (one per
/// pipeline worker's enricher) bumps a count and copies nothing. Each
/// trie is a node arena, so building one allocates only as its two
/// buffers grow.
#[derive(Clone)]
pub struct AsMapper(Arc<Tables>);

#[derive(Clone)]
struct Tables {
    prefixes: PrefixTrie<Asn>,
    registry: AsRegistry,
    public_dns: PrefixTrie<Provider>,
}

impl AsMapper {
    /// Build from announced prefixes and a registry. The public-DNS
    /// classification trie is populated from the providers' advertised
    /// resolver ranges.
    pub fn new(prefixes: PrefixTrie<Asn>, registry: AsRegistry) -> Self {
        let mut public_dns = PrefixTrie::new();
        for provider in crate::cloud::ALL_PROVIDERS {
            for range in provider.public_dns_ranges() {
                public_dns.insert(range, provider);
            }
        }
        AsMapper(Arc::new(Tables {
            prefixes,
            registry,
            public_dns,
        }))
    }

    /// Longest-prefix lookup: the AS announcing the covering prefix.
    pub fn asn_of(&self, ip: IpAddr) -> Option<Asn> {
        self.0.prefixes.lookup(ip).map(|(_, asn)| *asn)
    }

    /// The cloud provider a source address belongs to, if any.
    pub fn provider_of(&self, ip: IpAddr) -> Option<Provider> {
        self.asn_of(ip)
            .and_then(|asn| self.0.registry.provider_of(asn))
    }

    /// True when the address is inside a provider's advertised public-DNS
    /// resolver ranges (Google's list in the paper's §4.1).
    pub fn is_public_dns(&self, ip: IpAddr) -> bool {
        self.0.public_dns.lookup(ip).is_some()
    }

    /// The provider whose public-DNS ranges cover `ip`, if any.
    pub fn public_dns_provider(&self, ip: IpAddr) -> Option<Provider> {
        self.0.public_dns.lookup(ip).map(|(_, p)| *p)
    }

    /// Number of announced prefixes.
    pub fn prefix_count(&self) -> usize {
        self.0.prefixes.len()
    }

    /// Access the registry.
    pub fn registry(&self) -> &AsRegistry {
        &self.0.registry
    }

    /// Insert one announcement. The tables are copied first when
    /// another clone still shares them (each trie is two buffers).
    pub fn announce(&mut self, prefix: IpPrefix, asn: Asn) {
        Arc::make_mut(&mut self.0).prefixes.insert(prefix, asn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AsInfo, AsKind};

    fn mapper() -> AsMapper {
        let mut trie = PrefixTrie::new();
        let mut reg = AsRegistry::with_cloud_providers();
        // Google pools
        for (i, pool) in Provider::Google.v4_pools().into_iter().enumerate() {
            trie.insert(pool, Provider::Google.asn_for_pool(i));
        }
        for (i, pool) in Provider::Google.v6_pools().into_iter().enumerate() {
            trie.insert(pool, Provider::Google.asn_for_pool(i));
        }
        // one ISP
        reg.register(AsInfo {
            asn: Asn(1103),
            name: "SURFnet".into(),
            kind: AsKind::Isp,
        });
        trie.insert("145.0.0.0/13".parse().unwrap(), Asn(1103));
        AsMapper::new(trie, reg)
    }

    #[test]
    fn provider_attribution() {
        let m = mapper();
        assert_eq!(
            m.provider_of("8.8.8.8".parse().unwrap()),
            Some(Provider::Google)
        );
        assert_eq!(
            m.provider_of("2001:4860:4860::8888".parse().unwrap()),
            Some(Provider::Google)
        );
        assert_eq!(
            m.provider_of("145.2.3.4".parse().unwrap()),
            None,
            "ISP is not a CP"
        );
        assert_eq!(m.asn_of("145.2.3.4".parse().unwrap()), Some(Asn(1103)));
        assert_eq!(
            m.asn_of("203.0.113.1".parse().unwrap()),
            None,
            "unannounced"
        );
    }

    #[test]
    fn public_dns_split() {
        let m = mapper();
        // public ranges
        assert!(m.is_public_dns("8.8.8.8".parse().unwrap()));
        assert!(m.is_public_dns("8.8.4.4".parse().unwrap()));
        assert!(m.is_public_dns("2001:4860:4860::64".parse().unwrap()));
        assert_eq!(
            m.public_dns_provider("8.8.8.8".parse().unwrap()),
            Some(Provider::Google)
        );
        // Google, but not the public service
        assert!(!m.is_public_dns("74.125.1.1".parse().unwrap()));
        assert_eq!(
            m.provider_of("74.125.1.1".parse().unwrap()),
            Some(Provider::Google)
        );
        // Cloudflare public resolver ranges classify even without announcements
        assert_eq!(
            m.public_dns_provider("1.1.1.1".parse().unwrap()),
            Some(Provider::Cloudflare)
        );
    }

    #[test]
    fn announce_extends_table() {
        let mut m = mapper();
        let before = m.clone();
        assert_eq!(m.asn_of("198.51.100.1".parse().unwrap()), None);
        m.announce("198.51.100.0/24".parse().unwrap(), Asn(65000));
        assert_eq!(m.asn_of("198.51.100.1".parse().unwrap()), Some(Asn(65000)));
        assert_eq!(
            before.asn_of("198.51.100.1".parse().unwrap()),
            None,
            "a clone keeps its tables"
        );
    }
}
