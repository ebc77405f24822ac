//! Authoritative zone models for `.nl`, `.nz` and the root.

use crate::names::{decode_label, label, tld};
use dns_wire::name::Name;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The `.nz` second-level subzones under which third-level registrations
/// live (the paper: ".nz allows registrations as a third-level domain
/// ... as well as a second-level domain"). Weights approximate the real
/// skew towards `co.nz`.
pub const NZ_SUBZONES: [(&str, f64); 7] = [
    ("co", 0.72),
    ("net", 0.06),
    ("org", 0.08),
    ("govt", 0.02),
    ("ac", 0.03),
    ("school", 0.05),
    ("geek", 0.04),
];

/// What an authoritative server would say about a qname.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lookup {
    /// The name is the zone apex or an in-zone structural name
    /// (e.g. `co.nz` at the `.nz` servers); answered authoritatively.
    InZone,
    /// The name equals or falls under a registered delegation; the
    /// server returns a referral (or the delegation's records) —
    /// NOERROR either way.
    Delegated,
    /// Nothing registered matches: NXDOMAIN.
    NxDomain,
}

impl Lookup {
    /// Does this resolution produce a NOERROR rcode (the paper's
    /// "valid query" test)?
    pub fn is_valid(self) -> bool {
        !matches!(self, Lookup::NxDomain)
    }
}

/// A qname located in a zone ([`ZoneModel::locate`]): the answer class,
/// and the registration a delegated name falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    /// What the zone's servers answer.
    pub lookup: Lookup,
    /// The registration index, exactly when `lookup` is
    /// [`Lookup::Delegated`].
    pub delegation: Option<u64>,
}

/// The kind of zone, fixing its registration structure.
#[derive(Debug, Clone, PartialEq)]
enum ZoneKind {
    /// Registrations are second-level domains only (`.nl`).
    SecondLevel {
        /// Number of registered SLDs.
        slds: u64,
    },
    /// Registrations at the second level plus third level under fixed
    /// subzones (`.nz`).
    MixedLevel {
        /// Number of direct second-level registrations.
        slds: u64,
        /// Number of third-level registrations (spread over
        /// [`NZ_SUBZONES`] by weight).
        thirds: u64,
    },
    /// The root: registrations are TLD delegations.
    Root {
        /// Number of TLDs.
        tlds: usize,
    },
}

/// A generated zone: apex plus a deterministic registration universe.
#[derive(Debug, Clone)]
pub struct ZoneModel {
    apex: Name,
    kind: ZoneKind,
    /// Fraction of registered domains that are DNSSEC-signed (have DS
    /// records at the parent); drives DS-query volume.
    pub signed_fraction: f64,
    tld_cache: Option<HashMap<Name, u64>>,
}

impl PartialEq for ZoneModel {
    fn eq(&self, other: &Self) -> bool {
        self.apex == other.apex && self.kind == other.kind
    }
}

impl ZoneModel {
    /// The `.nl` model with `slds` registered second-level domains
    /// (paper: 5.8-5.9M; simulations scale this down). More than half of
    /// `.nl` is DNSSEC-signed, the highest of any large TLD.
    pub fn nl(slds: u64) -> Self {
        ZoneModel {
            apex: "nl".parse().expect("static"),
            kind: ZoneKind::SecondLevel { slds },
            signed_fraction: 0.55,
            tld_cache: None,
        }
    }

    /// The `.nz` model (paper: 140-141k SLDs + 569-580k third-level).
    pub fn nz(slds: u64, thirds: u64) -> Self {
        ZoneModel {
            apex: "nz".parse().expect("static"),
            kind: ZoneKind::MixedLevel { slds, thirds },
            signed_fraction: 0.05,
            tld_cache: None,
        }
    }

    /// The root-zone model with `tlds` delegations (~1500 in reality).
    pub fn root(tlds: usize) -> Self {
        let mut cache = HashMap::with_capacity(tlds);
        for i in 0..tlds {
            cache.insert(child_of(&Name::root(), tld(i).as_bytes()), i as u64);
        }
        ZoneModel {
            apex: Name::root(),
            kind: ZoneKind::Root { tlds },
            signed_fraction: 0.90,
            tld_cache: Some(cache),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Total registered delegations.
    pub fn domain_count(&self) -> u64 {
        match self.kind {
            ZoneKind::SecondLevel { slds } => slds,
            ZoneKind::MixedLevel { slds, thirds } => slds + thirds,
            ZoneKind::Root { tlds } => tlds as u64,
        }
    }

    /// The `idx`-th registered delegation name (idx < domain_count).
    ///
    /// For `.nz`, indices below the SLD count yield `label.nz`; the rest
    /// yield `label.<subzone>.nz` with subzones weighted per
    /// [`NZ_SUBZONES`].
    pub fn registered_domain(&self, idx: u64) -> Name {
        match &self.kind {
            ZoneKind::SecondLevel { slds } => {
                assert!(idx < *slds, "index out of zone");
                child_of(&self.apex, label(idx).as_bytes())
            }
            ZoneKind::MixedLevel { slds, thirds } => {
                assert!(idx < slds + thirds, "index out of zone");
                if idx < *slds {
                    child_of(&self.apex, label(idx).as_bytes())
                } else {
                    let t = idx - slds;
                    let (sub, local) = third_level_split(t, *thirds);
                    let subzone = child_of(&self.apex, sub.as_bytes());
                    child_of(&subzone, label(local).as_bytes())
                }
            }
            ZoneKind::Root { tlds } => {
                assert!(idx < *tlds as u64, "index out of zone");
                child_of(&self.apex, tld(idx as usize).as_bytes())
            }
        }
    }

    /// Whether the registered delegation at `idx` is DNSSEC-signed.
    /// Deterministic: a hash of the index against `signed_fraction`.
    pub fn is_signed(&self, idx: u64) -> bool {
        // splitmix-style scramble for a uniform [0,1) slot
        let mut z = idx.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) < self.signed_fraction
    }

    /// Resolve a qname the way this zone's authoritative servers would.
    pub fn classify(&self, qname: &Name) -> Lookup {
        self.locate(qname).lookup
    }

    /// [`ZoneModel::classify`] and, from the same walk of the name, the
    /// registration index of the delegation a delegated `qname` equals
    /// or falls under — the inverse of [`ZoneModel::registered_domain`].
    /// That is what lets an authoritative server decide, from the qname
    /// alone, whether the delegation is DNSSEC-signed (`is_signed`).
    pub fn locate(&self, qname: &Name) -> Located {
        const NXDOMAIN: Located = Located {
            lookup: Lookup::NxDomain,
            delegation: None,
        };
        let delegated = |idx| Located {
            lookup: Lookup::Delegated,
            delegation: Some(idx),
        };
        if qname == &self.apex {
            return Located {
                lookup: Lookup::InZone,
                delegation: None,
            };
        }
        if !qname.is_subdomain_of(&self.apex) {
            // A query for an out-of-bailiwick name: the real servers
            // answer REFUSED, but for rcode accounting it is junk
            // either way; callers treat it as NxDomain-class.
            return NXDOMAIN;
        }
        match &self.kind {
            ZoneKind::SecondLevel { slds } => match label_index(qname, 2) {
                Some(idx) if idx < *slds => delegated(idx),
                _ => NXDOMAIN,
            },
            ZoneKind::MixedLevel { slds, thirds } => {
                // structural subzone like co.nz?
                let subzone = label_at(qname, 2).and_then(subzone_label_position);
                let Some(sub_pos) = subzone else {
                    return match label_index(qname, 2) {
                        Some(idx) if idx < *slds => delegated(idx),
                        _ => NXDOMAIN,
                    };
                };
                if qname.label_count() == 2 {
                    return Located {
                        lookup: Lookup::InZone,
                        delegation: None,
                    };
                }
                match label_index(qname, 3) {
                    Some(local) if third_level_member(sub_pos, local, *thirds) => {
                        let start: u64 = (0..sub_pos)
                            .map(|j| share_of(j, NZ_SUBZONES[j].1, *thirds))
                            .sum();
                        delegated(slds + start + local)
                    }
                    _ => NXDOMAIN,
                }
            }
            ZoneKind::Root { .. } => {
                let cache = self.tld_cache.as_ref().expect("root model has cache");
                match cache.get(&qname.ancestor(1)) {
                    Some(&idx) => delegated(idx),
                    None => NXDOMAIN,
                }
            }
        }
    }

    /// The qname a QNAME-minimizing resolver (RFC 7816) would send to
    /// this zone's servers when resolving `full`: stripped to one label
    /// more than the deepest zone cut the servers are authoritative for.
    ///
    /// For `.nl`: `a.b.example.nl` -> `example.nl`. For `.nz`, names
    /// under a structural subzone strip to the third level on the second
    /// pass (`a.example.co.nz` -> `example.co.nz`) but a first-pass
    /// resolver asks for `co.nz` itself; both appear in real minimized
    /// streams. This returns the deepest minimized form.
    pub fn minimized_qname(&self, full: &Name) -> Name {
        full.ancestor(self.cut_depth(full))
    }

    /// [`ZoneModel::minimized_qname`] in place: the wire form of the cut
    /// a referral for `full` delegates, as a suffix of `full`'s own.
    pub fn cut_of<'n>(&self, full: &'n Name) -> &'n [u8] {
        full.ancestor_wire(self.cut_depth(full))
    }

    /// How many labels of `full` [`ZoneModel::minimized_qname`] keeps.
    fn cut_depth(&self, full: &Name) -> usize {
        match &self.kind {
            ZoneKind::MixedLevel { .. }
                if full.label_count() >= 3
                    && label_at(full, 2).and_then(subzone_label_position).is_some() =>
            {
                3
            }
            _ => self.apex.label_count() + 1,
        }
    }

    /// Is `qname` itself a minimized name, as the paper's Q-min signal
    /// counts it: inside the zone and exactly one label below the cut —
    /// `example.nl.` at `.nl`, `com.` at the root. Under a `.nz`
    /// structural subzone the cut is the subzone, so `shop.co.nz.` is
    /// minimized too (and so is `co.nz.`, a first-pass resolver's ask).
    /// The apex (`. NS` priming, `nl. NS`) and out-of-zone names are not.
    /// Allocation-free.
    pub fn is_minimized(&self, qname: &Name) -> bool {
        if !qname.is_subdomain_of(&self.apex) {
            return false;
        }
        let below = qname.label_count() - self.apex.label_count();
        match &self.kind {
            ZoneKind::MixedLevel { .. } if below == 2 => qname
                .labels()
                .nth(1)
                .is_some_and(|l| subzone_label_position(l).is_some()),
            _ => below == 1,
        }
    }

    /// True when this is the root-zone model.
    pub fn is_root_zone(&self) -> bool {
        matches!(self.kind, ZoneKind::Root { .. })
    }
}

/// Where third-level registration index `t` (0-based over all thirds)
/// lands: subzone label and index local to that subzone.
fn third_level_split(t: u64, thirds: u64) -> (&'static str, u64) {
    let mut start = 0u64;
    for (i, (label, w)) in NZ_SUBZONES.iter().enumerate() {
        let count = share_of(i, *w, thirds);
        if t < start + count {
            return (label, t - start);
        }
        start += count;
    }
    // rounding remainder lands in the last subzone
    let (label, _) = NZ_SUBZONES[NZ_SUBZONES.len() - 1];
    (
        label,
        t - start
            + share_of(
                NZ_SUBZONES.len() - 1,
                NZ_SUBZONES[NZ_SUBZONES.len() - 1].1,
                thirds,
            ),
    )
}

/// Registration count allotted to subzone `i` out of `thirds` total.
fn share_of(i: usize, weight: f64, thirds: u64) -> u64 {
    if i == NZ_SUBZONES.len() - 1 {
        // absorb rounding remainder in the last subzone
        let assigned: u64 = NZ_SUBZONES[..i]
            .iter()
            .map(|(_, w)| (*w * thirds as f64) as u64)
            .sum();
        thirds - assigned
    } else {
        (weight * thirds as f64) as u64
    }
}

/// Is `local` a registered third-level index inside subzone `sub_pos`?
fn third_level_member(sub_pos: usize, local: u64, thirds: u64) -> bool {
    local < share_of(sub_pos, NZ_SUBZONES[sub_pos].1, thirds)
}

/// `label.parent.`, for the labels this crate generates.
fn child_of(parent: &Name, label: &[u8]) -> Name {
    parent.child(label).expect("generated labels are short")
}

/// Which [`NZ_SUBZONES`] entry `label` names, folding ASCII case.
fn subzone_label_position(label: &[u8]) -> Option<usize> {
    NZ_SUBZONES
        .iter()
        .position(|(s, _)| s.as_bytes().eq_ignore_ascii_case(label))
}

/// The label of `name` `depth` labels below the root (1 is its
/// top-level label), if it has that many.
fn label_at(name: &Name, depth: usize) -> Option<&[u8]> {
    let above = name.label_count().checked_sub(depth)?;
    name.labels().nth(above)
}

/// The label at `depth` decoded as a registration index.
fn label_index(name: &Name, depth: usize) -> Option<u64> {
    label_at(name, depth).and_then(decode_label)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn delegation_index_inverts_registered_domain() {
        for zone in [
            ZoneModel::nl(1000),
            ZoneModel::nz(140, 560),
            ZoneModel::root(300),
        ] {
            for idx in 0..zone.domain_count() {
                let name = zone.registered_domain(idx);
                assert_eq!(
                    zone.locate(&name).delegation,
                    Some(idx),
                    "{name} in {}",
                    zone.apex()
                );
                // deep names under the delegation resolve to the same index
                if !zone.is_root_zone() {
                    let www = name.child(b"www").unwrap();
                    assert_eq!(zone.locate(&www).delegation, Some(idx), "{www}");
                }
            }
            // junk and apex names have no index
            assert_eq!(zone.locate(zone.apex()).delegation, None);
        }
        let nl = ZoneModel::nl(50);
        assert_eq!(nl.locate(&n("not-registered-x.nl")).delegation, None);
        assert_eq!(nl.locate(&n("example.com")).delegation, None);
    }

    #[test]
    fn nl_membership() {
        let z = ZoneModel::nl(1000);
        assert_eq!(z.domain_count(), 1000);
        for idx in [0u64, 1, 500, 999] {
            let d = z.registered_domain(idx);
            assert_eq!(d.label_count(), 2);
            assert!(d.is_subdomain_of(z.apex()));
            assert_eq!(z.classify(&d), Lookup::Delegated, "{d}");
            // names under a registered delegation are NOERROR referrals
            let www = d.child(b"www").unwrap();
            assert_eq!(z.classify(&www), Lookup::Delegated, "{www}");
        }
        // index 1000 is out of zone
        let ghost = z.apex().child(label(1000).as_bytes()).unwrap();
        assert_eq!(z.classify(&ghost), Lookup::NxDomain);
        // garbage label
        assert_eq!(z.classify(&n("xyzzy123.nl")), Lookup::NxDomain);
        // apex itself
        assert_eq!(z.classify(&n("nl")), Lookup::InZone);
        // out of bailiwick
        assert_eq!(z.classify(&n("example.nz")), Lookup::NxDomain);
    }

    #[test]
    fn nl_case_insensitive_membership() {
        let z = ZoneModel::nl(100);
        let d = z.registered_domain(42);
        let upper: Name = d.to_string().to_uppercase().parse().unwrap();
        assert_eq!(z.classify(&upper), Lookup::Delegated);
    }

    /// Regression: `str::to_lowercase` folds U+212A KELVIN SIGN to `k`, so
    /// the label `E2 84 AA 61` used to decode as `ka` (index 30) and a
    /// name that is not `ka.nl` under DNS case folding got a referral.
    #[test]
    fn unicode_lookalikes_are_not_registered() {
        let z = ZoneModel::nl(1000);
        assert_eq!(z.classify(&n("ka.nl")), Lookup::Delegated);
        assert_eq!(z.locate(&n("KA.nl")).delegation, Some(30));
        let kelvin = z.apex().child("\u{212a}a".as_bytes()).unwrap();
        assert_ne!(kelvin, n("ka.nl"));
        assert_eq!(z.classify(&kelvin), Lookup::NxDomain);
        assert_eq!(z.locate(&kelvin).delegation, None);
        assert_eq!(z.classify(&kelvin.child(b"www").unwrap()), Lookup::NxDomain);
        // the same fold made `gee<KELVIN>.nz` the structural subzone `geek.nz`
        let nz = ZoneModel::nz(100, 500);
        assert_eq!(nz.classify(&n("GEEK.nz")), Lookup::InZone);
        let geek = nz.apex().child("gee\u{212a}".as_bytes()).unwrap();
        assert_eq!(nz.classify(&geek), Lookup::NxDomain);
    }

    #[test]
    fn nz_mixed_levels() {
        let z = ZoneModel::nz(140, 580);
        assert_eq!(z.domain_count(), 720);
        // SLD range
        let sld = z.registered_domain(10);
        assert_eq!(sld.label_count(), 2);
        assert_eq!(z.classify(&sld), Lookup::Delegated);
        // third-level range
        let third = z.registered_domain(140);
        assert_eq!(third.label_count(), 3, "{third}");
        assert_eq!(z.classify(&third), Lookup::Delegated, "{third}");
        // subzone apexes are in-zone, not NXDOMAIN
        assert_eq!(z.classify(&n("co.nz")), Lookup::InZone);
        assert_eq!(z.classify(&n("geek.nz")), Lookup::InZone);
        // unregistered third level
        assert_eq!(z.classify(&n("zzzzz.co.nz")), Lookup::NxDomain);
    }

    #[test]
    fn nz_all_thirds_resolve() {
        let z = ZoneModel::nz(100, 500);
        for idx in 100..600 {
            let d = z.registered_domain(idx);
            assert_eq!(z.classify(&d), Lookup::Delegated, "idx {idx} -> {d}");
        }
    }

    #[test]
    fn nz_subzone_weights_respected() {
        let z = ZoneModel::nz(0, 10_000);
        let mut co = 0;
        for idx in 0..10_000 {
            let d = z.registered_domain(idx);
            if d.to_string().ends_with(".co.nz.") {
                co += 1;
            }
        }
        let share = co as f64 / 10_000.0;
        assert!((0.65..0.8).contains(&share), "co.nz share {share}");
    }

    #[test]
    fn root_membership() {
        let z = ZoneModel::root(100);
        assert!(z.is_root_zone());
        assert_eq!(z.classify(&n("nl")), Lookup::Delegated);
        assert_eq!(z.classify(&n("example.com")), Lookup::Delegated);
        assert_eq!(z.classify(&n("a.b.c.org")), Lookup::Delegated);
        // Chromium-style junk probe
        assert_eq!(z.classify(&n("qwkzlpahd")), Lookup::NxDomain);
        assert_eq!(z.classify(&n("foo.notarealtld")), Lookup::NxDomain);
        for i in 0..100u64 {
            let d = z.registered_domain(i);
            assert_eq!(z.classify(&d), Lookup::Delegated, "{d}");
        }
    }

    #[test]
    fn minimized_qnames() {
        let nl = ZoneModel::nl(100);
        assert_eq!(nl.minimized_qname(&n("a.b.example.nl")), n("example.nl"));
        assert_eq!(nl.minimized_qname(&n("example.nl")), n("example.nl"));

        let nz = ZoneModel::nz(10, 10);
        assert_eq!(nz.minimized_qname(&n("www.shop.co.nz")), n("shop.co.nz"));
        assert_eq!(nz.minimized_qname(&n("direct.nz")), n("direct.nz"));
        assert_eq!(nz.minimized_qname(&n("www.direct.nz")), n("direct.nz"));

        let root = ZoneModel::root(20);
        assert_eq!(root.minimized_qname(&n("www.example.com")), n("com"));
    }

    #[test]
    fn is_minimized_counts_one_label_below_the_cut_inside_the_zone() {
        let (nl, nz, root) = (
            ZoneModel::nl(100),
            ZoneModel::nz(10, 10),
            ZoneModel::root(20),
        );
        for (zone, qname, minimized) in [
            (&nl, "example.nl.", true),
            (&nl, "EXAMPLE.NL.", true),
            (&nl, "www.example.nl.", false),
            (&nl, "nl.", false),
            (&nl, ".", false),
            (&nl, "example.com.", false),
            (&nz, "direct.nz.", true),
            (&nz, "co.nz.", true),
            (&nz, "shop.co.nz.", true),
            (&nz, "www.shop.co.nz.", false),
            (&nz, "www.direct.nz.", false),
            (&nz, "nz.", false),
            (&nz, "shop.co.uk.", false),
            (&root, "com.", true),
            (&root, "example.com.", false),
            (&root, ".", false),
        ] {
            assert_eq!(
                zone.is_minimized(&n(qname)),
                minimized,
                "{qname} at {}",
                zone.apex()
            );
        }
    }

    #[test]
    fn minimized_qname_is_one_label_below_cut() {
        let nl = ZoneModel::nl(100);
        let full = n("deep.sub.host.example.nl");
        let m = nl.minimized_qname(&full);
        assert!(m.is_minimized_child_of(nl.apex()));
    }

    #[test]
    fn signed_fraction_is_deterministic_and_plausible() {
        let z = ZoneModel::nl(10_000);
        let signed = (0..10_000).filter(|&i| z.is_signed(i)).count();
        let frac = signed as f64 / 10_000.0;
        assert!((0.5..0.6).contains(&frac), "signed {frac}");
        // determinism
        assert_eq!(z.is_signed(77), z.is_signed(77));
    }

    #[test]
    fn lookup_validity_matches_rcode_semantics() {
        assert!(Lookup::InZone.is_valid());
        assert!(Lookup::Delegated.is_valid());
        assert!(!Lookup::NxDomain.is_valid());
    }

    #[test]
    #[should_panic(expected = "index out of zone")]
    fn out_of_range_index_panics() {
        ZoneModel::nl(5).registered_domain(5);
    }
}
