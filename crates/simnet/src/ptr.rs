//! The synthetic Facebook reverse-DNS (PTR) zone.
//!
//! §4.3 of the paper identifies dual-stack Facebook resolvers by
//! reverse-looking-up every address that queried the vantage: Facebook's
//! PTR names embed an airport-style site code, and for 12 of the 13
//! sites they also embed the host's IPv4 address — even on the PTR of an
//! IPv6 address. Joining v4 and v6 PTR names on that embedded IPv4 key
//! reveals which pairs are the same machine. This module reproduces that
//! naming scheme so the `core::dualstack` analysis can run the same join.

use dns_wire::name::Name;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

/// A reverse-DNS database: address → PTR name.
#[derive(Debug, Default, Clone)]
pub struct PtrDb {
    records: HashMap<IpAddr, Name>,
}

impl PtrDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the PTR pair for one dual-stack Facebook resolver at
    /// `site`. When `embed_v4` is set (12 of 13 sites), both PTR names
    /// carry the dashed IPv4; otherwise a host counter is used and the
    /// join is impossible (the paper's 13th site).
    pub fn register_dual_stack(
        &mut self,
        site: &str,
        host_id: u32,
        v4: Ipv4Addr,
        v6: IpAddr,
        embed_v4: bool,
    ) {
        let v4_name = Self::ptr_name(site, host_id, Some(v4), false, embed_v4);
        let v6_name = Self::ptr_name(site, host_id, Some(v4), true, embed_v4);
        self.records.insert(IpAddr::V4(v4), v4_name);
        self.records.insert(v6, v6_name);
    }

    /// Drop the PTR record for an address (the paper found 1 IPv4 and
    /// 2 IPv6 addresses with no PTR at all).
    pub fn remove(&mut self, ip: IpAddr) {
        self.records.remove(&ip);
    }

    /// The reverse lookup itself.
    pub fn lookup(&self, ip: IpAddr) -> Option<&Name> {
        self.records.get(&ip)
    }

    /// Number of PTR records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over all `(address, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&IpAddr, &Name)> {
        self.records.iter()
    }

    /// Construct a Facebook-convention PTR name:
    /// `fbdns-<site>-<a>-<b>-<c>-<d>.<fam>.fbinfra.example.` when the
    /// IPv4 is embedded, else `fbdns-<site>-h<id>.<fam>.fbinfra.example.`
    fn ptr_name(
        site: &str,
        host_id: u32,
        v4: Option<Ipv4Addr>,
        is_v6: bool,
        embed_v4: bool,
    ) -> Name {
        use std::io::Write;
        // the host label is written into a label-sized stack buffer
        let mut buf = [0u8; dns_wire::name::MAX_LABEL_LEN];
        let mut rest = &mut buf[..];
        match (embed_v4, v4) {
            (true, Some(a)) => {
                let o = a.octets();
                write!(rest, "fbdns-{site}-{}-{}-{}-{}", o[0], o[1], o[2], o[3])
            }
            _ => write!(rest, "fbdns-{site}-h{host_id}"),
        }
        .expect("generated PTR host labels fit a label");
        let written = dns_wire::name::MAX_LABEL_LEN - rest.len();
        let fam: &[u8] = if is_v6 { b"six" } else { b"four" };
        Name::from_labels([&buf[..written], fam, b"fbinfra", b"example"])
            .expect("generated PTR names are valid")
    }
}

/// Parse a Facebook-convention PTR name back into `(site, embedded
/// IPv4)`. Returns `None` for non-matching names or names without the
/// embedded address — exactly the information boundary the paper's join
/// had to work with.
pub fn parse_fb_ptr(name: &Name) -> Option<(String, Option<Ipv4Addr>)> {
    let first = name.labels().next()?;
    let s = std::str::from_utf8(first).ok()?;
    let rest = s.strip_prefix("fbdns-")?;
    let mut parts = rest.split('-');
    let site = parts.next()?.to_string();
    let tail: Vec<&str> = parts.collect();
    if tail.len() == 4 {
        let octets: Option<Vec<u8>> = tail.iter().map(|p| p.parse().ok()).collect();
        if let Some(o) = octets {
            return Some((site, Some(Ipv4Addr::new(o[0], o[1], o[2], o[3]))));
        }
    }
    if tail.len() == 1 && tail[0].starts_with('h') {
        return Some((site, None));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_stack_join_via_embedded_v4() {
        let mut db = PtrDb::new();
        let v4: Ipv4Addr = "157.240.9.7".parse().unwrap();
        let v6: IpAddr = "2a03:2880::9:7".parse().unwrap();
        db.register_dual_stack("ams", 1, v4, v6, true);
        let (site4, embed4) = parse_fb_ptr(db.lookup(IpAddr::V4(v4)).unwrap()).unwrap();
        let (site6, embed6) = parse_fb_ptr(db.lookup(v6).unwrap()).unwrap();
        assert_eq!(site4, "ams");
        assert_eq!(site6, "ams");
        assert_eq!(embed4, Some(v4));
        assert_eq!(embed6, Some(v4), "v6 PTR embeds the v4 key");
    }

    #[test]
    fn thirteenth_site_has_no_embedded_v4() {
        let mut db = PtrDb::new();
        let v4: Ipv4Addr = "157.240.1.1".parse().unwrap();
        let v6: IpAddr = "2a03:2880::1:1".parse().unwrap();
        db.register_dual_stack("sjc", 42, v4, v6, false);
        let (_, embed) = parse_fb_ptr(db.lookup(v6).unwrap()).unwrap();
        assert_eq!(embed, None, "no join key at the unembedded site");
    }

    #[test]
    fn missing_ptr_records() {
        let mut db = PtrDb::new();
        let v4: Ipv4Addr = "157.240.2.2".parse().unwrap();
        let v6: IpAddr = "2a03:2880::2:2".parse().unwrap();
        db.register_dual_stack("fra", 3, v4, v6, true);
        assert_eq!(db.len(), 2);
        db.remove(v6);
        assert!(db.lookup(v6).is_none());
        assert!(db.lookup(IpAddr::V4(v4)).is_some());
    }

    #[test]
    fn foreign_names_do_not_parse() {
        let n: Name = "resolver1.example.nl.".parse().unwrap();
        assert!(parse_fb_ptr(&n).is_none());
        let n: Name = "fbdns-ams-not-an-ip-x.four.fbinfra.example."
            .parse()
            .unwrap();
        assert!(parse_fb_ptr(&n).is_none());
        assert!(parse_fb_ptr(&Name::root()).is_none());
    }

    #[test]
    fn ptr_names_are_valid_dns() {
        let mut db = PtrDb::new();
        db.register_dual_stack(
            "gru",
            7,
            "255.255.255.255".parse().unwrap(),
            "2a03:2880::ffff".parse().unwrap(),
            true,
        );
        for (_, name) in db.iter() {
            assert!(name.label_count() >= 3);
            assert!(name.wire_len() <= 255);
        }
    }
}
