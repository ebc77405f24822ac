//! Junk-query generation: the traffic the paper's §3 classifies as
//! non-NOERROR.
//!
//! The root receives 68-80% junk, dominated (since 2019) by
//! Chromium-based browsers probing random, non-existent TLDs at network
//! startup; the ccTLDs see 11-34% junk, mostly typos and stale names.
//! This module generates both families of junk deterministically.

use crate::zone::ZoneModel;
use dns_wire::name::Name;
use rand::Rng;

/// What flavor of junk a generated qname represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JunkKind {
    /// A Chromium-style probe: one random alphabetic label, 7-15 chars,
    /// queried at the root (or leaked to a TLD).
    ChromiumProbe,
    /// A typo/stale name: an unregistered label under the zone apex.
    StaleName,
    /// A name under a different (wrong) TLD entirely.
    OutOfZone,
}

/// Deterministic junk-name generator for one zone.
#[derive(Debug, Clone)]
pub struct JunkGenerator {
    zone: ZoneModel,
}

impl JunkGenerator {
    /// Build for the given zone.
    pub fn new(zone: ZoneModel) -> Self {
        JunkGenerator { zone }
    }

    /// Draw a junk qname. Every returned name classifies as
    /// [`crate::zone::Lookup::NxDomain`] against the zone (tested).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Name, JunkKind) {
        let kind = if self.zone.is_root_zone() {
            // root junk skews heavily to Chromium probes (after 2019)
            if rng.gen_bool(0.75) {
                JunkKind::ChromiumProbe
            } else {
                JunkKind::StaleName
            }
        } else if rng.gen_bool(0.85) {
            JunkKind::StaleName
        } else {
            JunkKind::ChromiumProbe
        };
        // the label is drawn on the stack: a probe, plus one digit for a
        // stale name (digits cannot appear in the syllable encoding, so
        // a label with a digit is guaranteed unregistered)
        let mut buf = [0u8; PROBE_MAX_LEN + 1];
        let mut len = probe_into(rng, &mut buf);
        match kind {
            JunkKind::ChromiumProbe => {}
            JunkKind::StaleName => {
                let digit: i32 = rng.gen_range(0..10);
                buf[len] = b'0' + digit as u8;
                len += 1;
            }
            JunkKind::OutOfZone => unreachable!("not drawn by sample"),
        }
        // at the root the label is the whole name; at a ccTLD it is a
        // probe leaked, or a typo made, as a subdomain query
        let name = self.zone.apex().child(&buf[..len]).expect("short label");
        (name, kind)
    }
}

/// Longest Chromium probe label.
const PROBE_MAX_LEN: usize = 15;

/// Draw a probe label into `buf`; returns its length.
fn probe_into<R: Rng + ?Sized>(rng: &mut R, buf: &mut [u8]) -> usize {
    let len = rng.gen_range(7..=PROBE_MAX_LEN);
    // exclude vowel-heavy syllable collisions by allowing any letters:
    // the syllable decoder rejects odd lengths and unknown pairs, and a
    // random 7-15 letter string virtually never decodes; stale-name
    // callers add a digit to make rejection certain.
    for b in &mut buf[..len] {
        *b = b'a' + rng.gen_range(0..26u8);
    }
    len
}

/// A Chromium network-probe label: 7-15 random lowercase letters.
pub fn chromium_probe_label<R: Rng + ?Sized>(rng: &mut R) -> String {
    let mut buf = [0u8; PROBE_MAX_LEN];
    let len = probe_into(rng, &mut buf);
    String::from_utf8_lossy(&buf[..len]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Lookup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn junk_is_always_nxdomain_nl() {
        let z = ZoneModel::nl(10_000);
        let g = JunkGenerator::new(z.clone());
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let (name, _) = g.sample(&mut rng);
            assert_eq!(z.classify(&name), Lookup::NxDomain, "{name}");
        }
    }

    #[test]
    fn junk_is_always_nxdomain_nz() {
        let z = ZoneModel::nz(1000, 4000);
        let g = JunkGenerator::new(z.clone());
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..2000 {
            let (name, _) = g.sample(&mut rng);
            assert_eq!(z.classify(&name), Lookup::NxDomain, "{name}");
        }
    }

    #[test]
    fn junk_is_always_nxdomain_root() {
        let z = ZoneModel::root(1500);
        let g = JunkGenerator::new(z.clone());
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..2000 {
            let (name, _) = g.sample(&mut rng);
            assert_eq!(z.classify(&name), Lookup::NxDomain, "{name}");
        }
    }

    #[test]
    fn root_junk_is_mostly_chromium() {
        let g = JunkGenerator::new(ZoneModel::root(1500));
        let mut rng = StdRng::seed_from_u64(14);
        let mut chromium = 0;
        for _ in 0..5000 {
            if g.sample(&mut rng).1 == JunkKind::ChromiumProbe {
                chromium += 1;
            }
        }
        let share = chromium as f64 / 5000.0;
        assert!((0.65..0.85).contains(&share), "chromium share {share}");
    }

    #[test]
    fn cctld_junk_is_mostly_stale() {
        let g = JunkGenerator::new(ZoneModel::nl(100));
        let mut rng = StdRng::seed_from_u64(15);
        let stale = (0..5000)
            .filter(|_| g.sample(&mut rng).1 == JunkKind::StaleName)
            .count();
        let share = stale as f64 / 5000.0;
        assert!(share > 0.75, "stale share {share}");
    }

    #[test]
    fn probe_labels_look_like_chromium() {
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..500 {
            let l = chromium_probe_label(&mut rng);
            assert!((7..=15).contains(&l.len()));
            assert!(l.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let g = JunkGenerator::new(ZoneModel::nl(100));
        let mut a = StdRng::seed_from_u64(17);
        let mut b = StdRng::seed_from_u64(17);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut a).0, g.sample(&mut b).0);
        }
    }
}
