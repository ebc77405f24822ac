//! The AS registry: number → metadata.

use crate::cloud::Provider;
use core::fmt;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An autonomous-system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// The coarse role of an AS in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// One of the five tracked cloud/content providers.
    Cloud(Provider),
    /// An "eyeball" ISP running its own resolvers.
    Isp,
    /// Anything else (hosting, enterprise, academic...).
    Other,
}

/// Metadata about one AS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Human-readable operator name.
    pub name: String,
    /// Role classification.
    pub kind: AsKind,
}

impl AsInfo {
    /// The cloud provider this AS belongs to, if any.
    pub fn provider(&self) -> Option<Provider> {
        match self.kind {
            AsKind::Cloud(p) => Some(p),
            _ => None,
        }
    }
}

/// A lookup table of AS metadata.
#[derive(Debug, Default, Clone)]
pub struct AsRegistry {
    by_asn: HashMap<Asn, AsInfo>,
}

impl AsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-seeded with the paper's 20 cloud-provider ASes.
    pub fn with_cloud_providers() -> Self {
        let mut reg = Self::new();
        for provider in crate::cloud::ALL_PROVIDERS {
            for &asn in provider.asns() {
                reg.register(AsInfo {
                    asn,
                    name: format!("{} ({})", provider.name(), asn),
                    kind: AsKind::Cloud(provider),
                });
            }
        }
        reg
    }

    /// Insert or replace an entry.
    pub fn register(&mut self, info: AsInfo) {
        self.by_asn.insert(info.asn, info);
    }

    /// Look up by number.
    pub fn get(&self, asn: Asn) -> Option<&AsInfo> {
        self.by_asn.get(&asn)
    }

    /// The provider owning `asn`, if it is a cloud AS.
    pub fn provider_of(&self, asn: Asn) -> Option<Provider> {
        self.get(asn).and_then(AsInfo::provider)
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.by_asn.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_asn.is_empty()
    }

    /// Iterate over all entries (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &AsInfo> {
        self.by_asn.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_seed_has_twenty_entries() {
        let reg = AsRegistry::with_cloud_providers();
        assert_eq!(reg.len(), 20);
        assert_eq!(reg.provider_of(Asn(15169)), Some(Provider::Google));
        assert_eq!(reg.provider_of(Asn(8070)), Some(Provider::Microsoft));
        assert_eq!(reg.provider_of(Asn(64512)), None);
    }

    #[test]
    fn register_replaces() {
        let mut reg = AsRegistry::new();
        reg.register(AsInfo {
            asn: Asn(1),
            name: "one".into(),
            kind: AsKind::Isp,
        });
        reg.register(AsInfo {
            asn: Asn(1),
            name: "uno".into(),
            kind: AsKind::Other,
        });
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get(Asn(1)).unwrap().name, "uno");
        assert_eq!(reg.get(Asn(1)).unwrap().provider(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Asn(15169).to_string(), "AS15169");
    }
}
