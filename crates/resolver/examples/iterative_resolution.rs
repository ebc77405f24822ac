//! Watch the resolution algorithms the paper measures, at the
//! query-by-query level:
//!
//! 1. a classic resolver vs a QNAME-minimizing one walking the same
//!    name — what each authoritative server sees (§4.2.1);
//! 2. the Feb-2020 `.nz` cyclic-dependency incident, mechanized: two
//!    domains whose NS sets point at each other amplify A-queries at
//!    the TLD until budgets run out (Figure 3b's surge);
//! 3. a validating resolver's DS and DNSKEY traffic over four signed
//!    `.nl` domains (§4.2.2).
//!
//! ```sh
//! cargo run --release -p resolver --example iterative_resolution
//! ```
//!
//! The servers are the toy hierarchy the resolver's tests walk.

#[path = "../tests/hierarchy/mod.rs"]
mod hierarchy;

use dns_wire::types::RType;
use hierarchy::{cyclic_world, sample_world, Network, ZoneBuilder};
use resolver::{IterativeResolver, ResolverConfig};

/// The root and `.nl` signed, with four signed, securely delegated
/// `.nl` domains.
fn signed_nl_world() -> Network {
    let mut net = Network::new();
    net.add(
        ZoneBuilder::new(".")
            .signed()
            .server("a.root-servers.example.", "198.41.0.4")
            .delegate("nl.", &["ns1.dns.nl."])
            .secure_delegation("nl.")
            .address("ns1.dns.nl.", "194.0.28.53"),
    );
    let mut tld = ZoneBuilder::new("nl.")
        .signed()
        .server("ns1.dns.nl.", "194.0.28.53");
    for i in 0..4 {
        let me = format!("dom{i}.nl.");
        let ns = format!("ns.dom{i}.nl.");
        let addr = format!("198.51.100.{}", i + 1);
        tld = tld
            .delegate(&me, &[&ns])
            .address(&ns, &addr)
            .secure_delegation(&me);
        net.add(
            ZoneBuilder::new(&me)
                .signed()
                .server(&ns, &addr)
                .address(&format!("www.{me}"), &format!("192.0.2.{}", i + 1)),
        );
    }
    net.add(tld);
    net
}

fn main() {
    println!("=== 1. Classic vs QNAME-minimizing resolution ===\n");
    for qmin in [false, true] {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            qmin,
            ..Default::default()
        });
        let name = "www.example.nl.".parse().unwrap();
        let addrs = r.resolve(&mut net, &name, RType::A).expect("resolves");
        println!(
            "{} resolver -> {addrs:?} in {} queries:",
            if qmin { "Q-min  " } else { "classic" },
            r.queries_sent()
        );
        for entry in &r.log {
            println!("  {} <- {} {}", entry.server, entry.qname, entry.qtype);
        }
        let tld_seen = net.queries_at("194.0.28.53".parse().unwrap());
        println!(
            "  the .nl TLD server saw: {}\n",
            tld_seen
                .iter()
                .map(|q| format!("{} {}", q.qname, q.qtype))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "-> the TLD's view changes from the full hostname (A) to the\n\
         delegation name (NS): exactly the Figure 2/3 signal the paper\n\
         detects at .nl and .nz.\n"
    );

    println!("=== 2. The cyclic-dependency incident, mechanized ===\n");
    let mut net = cyclic_world();
    let tld = "202.46.190.10".parse().unwrap();
    let name = "www.alpha.nz.".parse().unwrap();
    for attempt in 1..=5 {
        let mut r = IterativeResolver::new(ResolverConfig::default());
        let err = r.resolve(&mut net, &name, RType::A).unwrap_err();
        println!(
            "attempt {attempt}: {err:?} after {} queries ({} at the TLD so far)",
            r.queries_sent(),
            net.queries_at(tld).len()
        );
    }
    println!(
        "\n-> every retry burns more A-queries for the in-cycle NS hosts at\n\
         the TLD; scale this by Google's resolver fleet retrying for a\n\
         month and you get the millions of extra A/AAAA queries of\n\
         Figure 3b.\n"
    );

    println!("=== 3. A validating resolver's DS/DNSKEY traffic (\u{a7}4.2.2) ===\n");
    let mut net = signed_nl_world();
    let mut r = IterativeResolver::new(ResolverConfig {
        validate: true,
        ..Default::default()
    });
    for i in 0..4 {
        let name = format!("www.dom{i}.nl.").parse().unwrap();
        r.resolve(&mut net, &name, RType::A).expect("validates");
    }
    let ds = r.log.iter().filter(|e| e.qtype == RType::Ds).count();
    let dnskey = r.log.iter().filter(|e| e.qtype == RType::Dnskey).count();
    println!("resolved 4 signed domains; validation traffic:");
    for e in r
        .log
        .iter()
        .filter(|e| matches!(e.qtype, RType::Ds | RType::Dnskey))
    {
        println!("  {} <- {} {}", e.server, e.qname, e.qtype);
    }
    println!(
        "\n-> {ds} DS queries (one per delegation) vs {dnskey} DNSKEY queries\n\
         (one per zone, then cached): the Figure 2d pattern that makes\n\
         Cloudflare DS-heavy, and whose absence marks Microsoft as the\n\
         one non-validating provider."
    );
}
