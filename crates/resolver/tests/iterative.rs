//! The walk, against the toy hierarchy in `hierarchy/`: referrals,
//! Q-min, CNAMEs, glueless NS hosts, cyclic and dead delegations,
//! DNSSEC validation, the flags on every hop and the fleet-shared
//! cache. `hierarchy_tests` first holds the hierarchy itself to the
//! answers a walk relies on.

mod hierarchy;

mod hierarchy_tests {
    use crate::hierarchy::{sample_world, Network};
    use dns_wire::builder::MessageBuilder;
    use dns_wire::message::Message;
    use dns_wire::rdata::RData;
    use dns_wire::types::{RType, Rcode};

    fn q(net: &mut Network, server: &str, qname: &str, qtype: RType) -> Message {
        let query = MessageBuilder::query(1, qname.parse().unwrap(), qtype).build();
        net.query(server.parse().unwrap(), &query)
            .expect("server answers")
    }

    #[test]
    fn root_refers_to_tld_with_glue() {
        let mut net = sample_world();
        let resp = q(&mut net, "198.41.0.4", "www.example.nl.", RType::A);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        let ns: Vec<String> = resp
            .authorities
            .iter()
            .map(|r| r.name.to_string())
            .collect();
        assert!(ns.iter().all(|n| n == "nl."), "{ns:?}");
        assert!(!resp.additionals.is_empty(), "glue present");
    }

    #[test]
    fn tld_refers_to_leaf() {
        let mut net = sample_world();
        let resp = q(&mut net, "194.0.28.53", "www.example.nl.", RType::A);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities[0].name.to_string(), "example.nl.");
    }

    #[test]
    fn leaf_answers_authoritatively() {
        let mut net = sample_world();
        let resp = q(&mut net, "192.0.2.53", "www.example.nl.", RType::A);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(
            resp.answers[0].rdata,
            RData::A("192.0.2.80".parse().unwrap())
        );
        // AAAA too
        let resp = q(&mut net, "192.0.2.53", "www.example.nl.", RType::Aaaa);
        assert_eq!(
            resp.answers[0].rdata,
            RData::Aaaa("2001:db8::80".parse().unwrap())
        );
    }

    #[test]
    fn cname_is_chased_in_zone() {
        let mut net = sample_world();
        let resp = q(&mut net, "192.0.2.53", "cdn.example.nl.", RType::A);
        assert_eq!(resp.answers.len(), 2);
        assert!(matches!(resp.answers[0].rdata, RData::Cname(_)));
        assert!(matches!(resp.answers[1].rdata, RData::A(_)));
    }

    #[test]
    fn nxdomain_and_nodata() {
        let mut net = sample_world();
        let resp = q(&mut net, "192.0.2.53", "nosuch.example.nl.", RType::A);
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        // www exists but has no MX: NODATA
        let resp = q(&mut net, "192.0.2.53", "www.example.nl.", RType::Mx);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn out_of_bailiwick_ns_gets_no_glue() {
        let mut net = sample_world();
        let resp = q(&mut net, "194.0.28.53", "www.hosted.nl.", RType::A);
        let ns_names: Vec<String> = resp
            .authorities
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Ns(n) => Some(n.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(ns_names, vec!["ns.provider.nz."]);
        assert!(resp.additionals.is_empty(), "nz host: no .nl glue");
    }

    #[test]
    fn server_log_records_questions() {
        let mut net = sample_world();
        q(&mut net, "198.41.0.4", "www.example.nl.", RType::A);
        q(&mut net, "198.41.0.4", "x.nz.", RType::A);
        assert_eq!(net.queries_at("198.41.0.4".parse().unwrap()).len(), 2);
        assert_eq!(net.total_queries(), 2);
    }

    #[test]
    fn unknown_server_is_silence() {
        let mut net = sample_world();
        let query = MessageBuilder::query(1, "x.nl.".parse().unwrap(), RType::A).build();
        assert!(net.query("10.9.9.9".parse().unwrap(), &query).is_none());
    }

    #[test]
    fn root_servers_enumerated() {
        let net = sample_world();
        let mut roots = net.root_servers();
        roots.sort();
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn root_servers_come_in_one_order() {
        let roots = sample_world().root_servers();
        assert_eq!(roots.len(), 2);
        for _ in 0..8 {
            assert_eq!(sample_world().root_servers(), roots);
        }
    }
}

mod tests {
    use crate::hierarchy::{cyclic_world, dead_world, sample_world};
    use dns_wire::name::Name;
    use dns_wire::types::RType;
    use resolver::{IterativeResolver, ResolveError, ResolverConfig};
    use std::net::IpAddr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn resolves_through_the_tree() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        let addrs = r
            .resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(&addrs[..], ["192.0.2.80".parse::<IpAddr>().unwrap()]);
        // walked root -> nl -> example.nl
        assert_eq!(r.queries_sent(), 3);
        assert_eq!(r.cached_cuts(), 2, "nl. and example.nl. learned");
    }

    #[test]
    fn cache_short_circuits_the_second_walk() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let before = r.queries_sent();
        // same name: answered from the address cache, zero queries
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(r.queries_sent(), before);
        // sibling name: starts at the cached example.nl. cut, one query
        let aaaa = r
            .resolve(&mut net, &n("www.example.nl."), RType::Aaaa)
            .unwrap();
        assert_eq!(&aaaa[..], ["2001:db8::80".parse::<IpAddr>().unwrap()]);
        assert_eq!(r.queries_sent(), before + 1);
    }

    #[test]
    fn qmin_changes_what_the_tld_sees() {
        // the paper's §4.2.1, as an algorithm-level assertion
        let tld_server: IpAddr = "194.0.28.53".parse().unwrap();

        let mut net = sample_world();
        let mut classic = IterativeResolver::new(ResolverConfig::default());
        classic
            .resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let classic_seen: Vec<(String, RType)> = net
            .queries_at(tld_server)
            .iter()
            .map(|q| (q.qname.to_string(), q.qtype))
            .collect();
        assert_eq!(
            classic_seen,
            vec![("www.example.nl.".to_string(), RType::A)],
            "classic resolver leaks the full qname to the TLD"
        );

        let mut net = sample_world();
        let mut minimizing = IterativeResolver::new(ResolverConfig {
            qmin: true,
            ..Default::default()
        });
        minimizing
            .resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let qmin_seen: Vec<(String, RType)> = net
            .queries_at(tld_server)
            .iter()
            .map(|q| (q.qname.to_string(), q.qtype))
            .collect();
        assert_eq!(
            qmin_seen,
            vec![("example.nl.".to_string(), RType::Ns)],
            "Q-min sends one label below the cut, qtype NS"
        );
    }

    #[test]
    fn qmin_still_resolves_correctly() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            qmin: true,
            ..Default::default()
        });
        let addrs = r
            .resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(&addrs[..], ["192.0.2.80".parse::<IpAddr>().unwrap()]);
    }

    #[test]
    fn out_of_bailiwick_ns_resolves_via_second_walk() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        // hosted.nl is served by ns.provider.nz: the resolver must first
        // resolve that host through .nz
        let addrs = r.resolve(&mut net, &n("www.hosted.nl."), RType::A).unwrap();
        assert_eq!(&addrs[..], ["203.0.113.81".parse::<IpAddr>().unwrap()]);
        // the .nz TLD server must have been consulted on the way
        assert!(!net.queries_at("202.46.190.10".parse().unwrap()).is_empty());
    }

    #[test]
    fn nxdomain_and_nodata_surface() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        assert_eq!(
            r.resolve(&mut net, &n("nosuch.example.nl."), RType::A),
            Err(ResolveError::NxDomain)
        );
        assert_eq!(
            r.resolve(&mut net, &n("www.example.nl."), RType::Mx),
            Err(ResolveError::NoData)
        );
    }

    #[test]
    fn cname_is_followed() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        let addrs = r
            .resolve(&mut net, &n("cdn.example.nl."), RType::A)
            .unwrap();
        assert_eq!(&addrs[..], ["192.0.2.80".parse::<IpAddr>().unwrap()]);
    }

    #[test]
    fn cyclic_dependency_detected_not_looped() {
        let mut net = cyclic_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        let err = r
            .resolve(&mut net, &n("www.alpha.nz."), RType::A)
            .unwrap_err();
        assert!(
            matches!(err, ResolveError::CyclicDependency { .. }),
            "got {err:?}"
        );
        // bounded work even though the configuration is unresolvable
        assert!(r.queries_sent() <= 64);
    }

    #[test]
    fn cyclic_dependency_hammers_the_tld() {
        // the incident's vantage-point signature: retries multiply A
        // queries at the TLD (Figure 3b's surge)
        let tld: IpAddr = "202.46.190.10".parse().unwrap();
        let mut net = cyclic_world();
        let mut tld_queries = 0usize;
        for _ in 0..50 {
            // caches cannot help: nothing positive is ever learned
            let mut r = IterativeResolver::new(ResolverConfig::default());
            let _ = r.resolve(&mut net, &n("www.alpha.nz."), RType::A);
        }
        tld_queries += net.queries_at(tld).len();
        assert!(
            tld_queries >= 150,
            "repeated failed resolutions amplify at the TLD: {tld_queries}"
        );
        // and the queries are for the in-cycle names (A lookups of NS hosts)
        let ns_lookups = net
            .queries_at(tld)
            .iter()
            .filter(|q| q.qname.to_string().starts_with("ns.") && q.qtype == RType::A)
            .count();
        assert!(ns_lookups >= 100, "{ns_lookups}");
    }

    #[test]
    fn budget_bounds_any_walk() {
        let mut net = cyclic_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            max_queries: 5,
            ..Default::default()
        });
        let err = r
            .resolve(&mut net, &n("www.alpha.nz."), RType::A)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ResolveError::BudgetExhausted { .. } | ResolveError::CyclicDependency { .. }
            ),
            "{err:?}"
        );
        assert!(r.queries_sent() <= 5);
    }

    #[test]
    fn unreachable_server_is_an_error() {
        let mut net = dead_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        assert_eq!(
            r.resolve(&mut net, &n("www.dead."), RType::A),
            Err(ResolveError::Unreachable)
        );
        // the retry machine tried the dead server on every pass and
        // counted each timeout
        assert!(r.stats.timeouts >= 2, "timeouts {}", r.stats.timeouts);
        assert!(r.stats.retries >= 1, "retries {}", r.stats.retries);
    }

    #[test]
    fn qmin_walk_is_deeper_but_bounded() {
        // a 5-label name: Q-min sends more, smaller queries
        let mut net = sample_world();
        let mut classic = IterativeResolver::new(ResolverConfig::default());
        let _ = classic.resolve(&mut net, &n("a.b.www.example.nl."), RType::A);
        let classic_count = classic.queries_sent();
        let mut net = sample_world();
        let mut minimizing = IterativeResolver::new(ResolverConfig {
            qmin: true,
            ..Default::default()
        });
        let _ = minimizing.resolve(&mut net, &n("a.b.www.example.nl."), RType::A);
        assert!(minimizing.queries_sent() >= classic_count);
        assert!(minimizing.queries_sent() <= classic_count + 4);
    }
}

mod validate_tests {
    use crate::hierarchy::{bogus_world, signed_world};
    use dns_wire::name::Name;
    use dns_wire::types::RType;
    use resolver::{IterativeResolver, ResolveError, ResolverConfig};
    use std::net::IpAddr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn validating_resolution_succeeds_on_signed_chain() {
        let mut net = signed_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            validate: true,
            ..Default::default()
        });
        let addrs = r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        assert_eq!(&addrs[..], ["192.0.2.1".parse::<IpAddr>().unwrap()]);
        // the walk contains DS queries at parents and DNSKEYs at children
        let ds = r.log.iter().filter(|e| e.qtype == RType::Ds).count();
        let dnskey = r.log.iter().filter(|e| e.qtype == RType::Dnskey).count();
        assert_eq!(ds, 2, "zz. and d0.zz.");
        assert_eq!(dnskey, 2);
    }

    #[test]
    fn ds_exceeds_dnskey_across_many_delegations() {
        // the Figure 2d signature: one DNSKEY per zone, one DS per
        // delegation — resolve both secure leaves plus a sibling name
        let mut net = signed_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            validate: true,
            ..Default::default()
        });
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        r.resolve(&mut net, &n("www.d1.zz."), RType::A).unwrap();
        let ds = r.log.iter().filter(|e| e.qtype == RType::Ds).count();
        let dnskey_zz = r
            .log
            .iter()
            .filter(|e| e.qtype == RType::Dnskey && e.qname == n("zz."))
            .count();
        assert_eq!(dnskey_zz, 1, "DNSKEY for the TLD fetched exactly once");
        assert_eq!(ds, 3, "one DS per distinct delegation (zz., d0, d1)");
    }

    #[test]
    fn insecure_delegation_skips_dnskey() {
        let mut net = signed_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            validate: true,
            ..Default::default()
        });
        let addrs = r.resolve(&mut net, &n("www.d2.zz."), RType::A).unwrap();
        assert_eq!(&addrs[..], ["192.0.2.3".parse::<IpAddr>().unwrap()]);
        // DS asked for d2.zz. (answer: NODATA) but no DNSKEY at d2.zz.
        assert!(r
            .log
            .iter()
            .any(|e| e.qtype == RType::Ds && e.qname == n("d2.zz.")));
        assert!(!r
            .log
            .iter()
            .any(|e| e.qtype == RType::Dnskey && e.qname == n("d2.zz.")));
    }

    #[test]
    fn bogus_chain_is_rejected() {
        let mut net = bogus_world();
        let mut r = IterativeResolver::new(ResolverConfig {
            validate: true,
            ..Default::default()
        });
        let err = r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap_err();
        assert_eq!(err, ResolveError::Bogus { zone: n("zz.") });
    }

    #[test]
    fn non_validating_resolver_ignores_dnssec() {
        let mut net = signed_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.resolve(&mut net, &n("www.d0.zz."), RType::A).unwrap();
        assert!(!r.log.iter().any(|e| e.qtype == RType::Ds));
        assert!(!r.log.iter().any(|e| e.qtype == RType::Dnskey));
    }
}

/// EDNS size, DO and CD ride on *every* hop of a walk — referral and
/// Q-min probes, terminal queries, DS/DNSKEY fetches, glueless-NS
/// re-walks and CNAME chases — as the bytes sent say: each query is
/// read back with `Message::parse` on its way to the servers.
mod flag_tests {
    use crate::hierarchy::{sample_world, signed_world, Network};
    use dns_wire::edns::Edns;
    use dns_wire::message::Message;
    use dns_wire::types::RType;
    use resolver::{Exchange, IterativeResolver, ResolverConfig, Transport};
    use std::net::IpAddr;

    /// A network that parses every query sent to it.
    struct Wiretap(Network, Vec<Message>);

    impl Transport for Wiretap {
        fn exchange(&mut self, server: IpAddr, query: &[u8]) -> Exchange<'_> {
            self.1
                .push(Message::parse(query).expect("a query the resolver wrote"));
            self.0.exchange(server, query)
        }

        fn root_servers(&self) -> Vec<IpAddr> {
            self.0.root_servers()
        }
    }

    #[test]
    fn every_hop_of_every_walk_carries_the_flags() {
        let flagged = ResolverConfig {
            edns_size: 1232,
            do_bit: true,
            cd_bit: true,
            ..Default::default()
        };
        let validating = ResolverConfig {
            qmin: true,
            validate: true,
            ..flagged
        };
        let walks = [
            // Q-min probes, the terminal query, DS and DNSKEY fetches
            (validating, signed_world(), "www.d0.zz."),
            // the out-of-bailiwick NS host is re-walked mid-resolution
            (flagged, sample_world(), "www.hosted.nl."),
            (flagged, sample_world(), "cdn.example.nl."),
        ];
        let mut asked = Vec::new();
        for (config, world, name) in walks {
            let mut tap = Wiretap(world, Vec::new());
            let mut r = IterativeResolver::new(config);
            r.resolve(&mut tap, &name.parse().unwrap(), RType::A)
                .unwrap();
            assert!(tap.1.len() >= 2, "{name}: a multi-hop walk");
            for q in tap.1 {
                let question = &q.questions[0];
                assert_eq!(q.edns, Some(Edns::with_size(1232, true)), "{question:?}");
                assert!(q.header.checking_disabled, "{question:?} lost CD");
                asked.push((question.qname.to_string(), question.qtype));
            }
        }
        for (qname, qtype) in [
            ("d0.zz.", RType::Ns),
            ("www.d0.zz.", RType::A),
            ("d0.zz.", RType::Ds),
            ("d0.zz.", RType::Dnskey),
            ("ns.provider.nz.", RType::A),
        ] {
            let hop = (qname.to_string(), qtype);
            assert!(asked.contains(&hop), "no {hop:?} hop asked");
        }
    }
}

mod fleet_cache_tests {
    use crate::hierarchy::sample_world;
    use dns_wire::name::Name;
    use dns_wire::types::RType;
    use resolver::{IterativeResolver, ResolveError, ResolverConfig, SharedCache};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn shared_cache_absorbs_repeat_lookups_across_resolvers() {
        let mut net = sample_world();
        let shared = SharedCache::with_capacity(1024);
        let mut a = IterativeResolver::new(ResolverConfig::default());
        let mut b = IterativeResolver::new(ResolverConfig::default());
        a.attach_shared_cache(shared.clone());
        b.attach_shared_cache(shared.clone());

        a.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let sent_before = b.queries_sent();
        // resolver B never walked, but the fleet cache answers
        b.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(b.queries_sent(), sent_before, "fleet cache hit");
        assert_eq!(b.stats.cache_hits, 1);
        assert!(shared.hits() >= 1);
    }

    #[test]
    fn shared_entries_decay_by_record_ttl() {
        let mut net = sample_world();
        let shared = SharedCache::with_capacity(1024);
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.attach_shared_cache(shared.clone());

        r.set_now_micros(0);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        let walked = r.queries_sent();

        // within the answer TTL (300s): served from the shared cache
        r.set_now_micros(200_000_000);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(r.queries_sent(), walked);

        // past the answer TTL but within the 3600s delegation TTL: the
        // resolver re-queries the leaf zone only, not the whole chain
        r.set_now_micros(400_000_000);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(r.queries_sent(), walked + 1, "one re-query at the leaf cut");

        // past every TTL: full re-walk from the root
        r.set_now_micros(4_000_000_000);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert_eq!(r.queries_sent(), walked + 1 + 3, "cold re-walk");
    }

    #[test]
    fn negative_answers_are_cached_in_the_fleet_cache() {
        let mut net = sample_world();
        let shared = SharedCache::with_capacity(1024);
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.attach_shared_cache(shared.clone());
        assert_eq!(
            r.resolve(&mut net, &n("nosuch.example.nl."), RType::A),
            Err(ResolveError::NxDomain)
        );
        let sent = r.queries_sent();
        // the denial is served from cache within the negative TTL
        assert_eq!(
            r.resolve(&mut net, &n("nosuch.example.nl."), RType::A),
            Err(ResolveError::NxDomain)
        );
        assert_eq!(r.queries_sent(), sent, "negative cache hit");
    }

    #[test]
    fn log_can_be_disabled_without_breaking_budget() {
        let mut net = sample_world();
        let mut r = IterativeResolver::new(ResolverConfig::default());
        r.set_log_enabled(false);
        r.resolve(&mut net, &n("www.example.nl."), RType::A)
            .unwrap();
        assert!(r.log.is_empty());
        assert_eq!(r.queries_sent(), 3, "sent counter independent of log");
    }
}
