//! Property tests for the zone models: membership coherence between
//! generation and classification, Q-min semantics, junk guarantees.

use proptest::prelude::*;
use zonedb::names::{decode_label, encode_label};
use zonedb::zone::{Lookup, ZoneModel};

proptest! {
    /// Label encoding is a bijection.
    #[test]
    fn label_bijection(idx in 0u64..u64::MAX) {
        prop_assert_eq!(decode_label(encode_label(idx)), Some(idx));
    }

    /// Every generated registration classifies as Delegated, and any
    /// name beneath it stays NOERROR (a referral covers the subtree).
    #[test]
    fn nl_membership_coherent(slds in 1u64..100_000, idx_frac in 0.0f64..1.0) {
        let zone = ZoneModel::nl(slds);
        let idx = ((slds - 1) as f64 * idx_frac) as u64;
        let d = zone.registered_domain(idx);
        prop_assert_eq!(zone.classify(&d), Lookup::Delegated);
        let www = d.child(b"www").unwrap();
        prop_assert_eq!(zone.classify(&www), Lookup::Delegated);
        // the next index past the zone end is NXDOMAIN
        let ghost = zone.apex().child(encode_label(slds + idx).as_bytes()).unwrap();
        prop_assert_eq!(zone.classify(&ghost), Lookup::NxDomain);
    }

    /// Same coherence for the mixed-level `.nz` model over its whole
    /// index space, including the subzone boundary.
    #[test]
    fn nz_membership_coherent(
        slds in 1u64..5_000,
        thirds in 1u64..20_000,
        idx_frac in 0.0f64..1.0,
    ) {
        let zone = ZoneModel::nz(slds, thirds);
        let idx = ((slds + thirds - 1) as f64 * idx_frac) as u64;
        let d = zone.registered_domain(idx);
        prop_assert_eq!(zone.classify(&d), Lookup::Delegated, "{}", d);
        prop_assert!(d.is_subdomain_of(zone.apex()));
    }

    /// The minimized qname always (a) sits under the apex, (b) has at
    /// most the original label count, and (c) is a prefix-ancestor of
    /// the full name.
    #[test]
    fn minimization_laws(slds in 1u64..10_000, idx_frac in 0.0f64..1.0, depth in 0usize..3) {
        let zone = ZoneModel::nl(slds);
        let idx = ((slds - 1) as f64 * idx_frac) as u64;
        let mut full = zone.registered_domain(idx);
        for i in 0..depth {
            full = full.child(format!("l{i}").as_bytes()).unwrap();
        }
        let min = zone.minimized_qname(&full);
        prop_assert!(min.is_subdomain_of(zone.apex()));
        prop_assert!(min.label_count() <= full.label_count());
        prop_assert!(full.is_subdomain_of(&min));
        // idempotent
        prop_assert_eq!(zone.minimized_qname(&min).clone(), min);
    }

    /// Junk names never collide with the registration space.
    #[test]
    fn junk_never_registered(seed in 0u64..10_000) {
        use rand::SeedableRng;
        let zone = ZoneModel::nz(1000, 3000);
        let junk = zonedb::junk::JunkGenerator::new(zone.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let (name, _) = junk.sample(&mut rng);
            prop_assert_eq!(zone.classify(&name), Lookup::NxDomain, "{}", name);
        }
    }

    /// Zipf sampling stays in range and is deterministic per seed.
    #[test]
    fn zipf_in_range(n in 1u64..1_000_000, s in 0.0f64..1.8, seed in 0u64..1000) {
        use rand::SeedableRng;
        let z = zonedb::popularity::ZipfSampler::new(n, s);
        let mut a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = z.sample(&mut a);
            prop_assert!(x < n);
            prop_assert_eq!(x, z.sample(&mut b));
        }
    }
}
