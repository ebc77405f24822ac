//! Property tests for the networking substrate.

use netbase::capture::{
    CaptureReader, CaptureRecord, CaptureWriter, Direction, RecordSink, RecordSlice,
};
use netbase::flow::{FlowKey, Transport};
use netbase::prefix::IpPrefix;
use netbase::time::{civil_from_days, days_from_civil, SimDuration, SimTime};
use netbase::trie::{LinearLpm, PrefixTrie};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn ip_addr() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<u32>().prop_map(|v| IpAddr::V4(Ipv4Addr::from(v))),
        any::<u128>().prop_map(|v| IpAddr::V6(Ipv6Addr::from(v))),
    ]
}

fn prefix() -> impl Strategy<Value = IpPrefix> {
    prop_oneof![
        (any::<u32>(), 0u8..=32)
            .prop_map(|(a, l)| IpPrefix::new(IpAddr::V4(Ipv4Addr::from(a)), l).unwrap()),
        (any::<u128>(), 0u8..=128).prop_map(|(a, l)| IpPrefix::new(
            IpAddr::V6(Ipv6Addr::from(a)),
            l
        )
        .unwrap()),
    ]
}

fn capture_record() -> impl Strategy<Value = CaptureRecord> {
    (
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
        ip_addr(),
        any::<u16>(),
        ip_addr(),
        any::<u16>(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..=200),
    )
        .prop_map(
            |(ts, dir, tcp, src, sp, dst, dp, rtt, payload)| CaptureRecord {
                timestamp: SimTime(ts),
                direction: if dir {
                    Direction::Query
                } else {
                    Direction::Response
                },
                flow: FlowKey {
                    src,
                    src_port: sp,
                    dst,
                    dst_port: dp,
                    transport: if tcp { Transport::Tcp } else { Transport::Udp },
                },
                tcp_rtt_us: rtt,
                payload,
            },
        )
}

/// A record as the generator writes them: an empty payload, a UDP
/// message, or a framed TCP one, at one of few timestamps so that sorts
/// meet ties.
fn slice_record() -> impl Strategy<Value = CaptureRecord> {
    (capture_record(), 0u8..3, 0u64..40).prop_map(|(mut rec, kind, ts)| {
        rec.timestamp = SimTime(ts);
        match kind {
            0 => rec.payload.clear(),
            1 => rec.flow.transport = Transport::Udp,
            _ => {
                let len = (rec.payload.len() as u16).to_be_bytes();
                rec.payload.splice(0..0, len);
                rec.flow.transport = Transport::Tcp;
            }
        }
        rec
    })
}

/// Write `rec` into `slice` in place, as the generator writes payloads:
/// in one piece, or in two after a write that is turned down (as an RRL
/// drop is) and must leave no trace.
fn write_in_place(slice: &mut RecordSlice, rec: &CaptureRecord, in_pieces: bool) {
    let (at, dir, flow, rtt) = (rec.timestamp, rec.direction, rec.flow, rec.tcp_rtt_us);
    if in_pieces {
        let dropped = slice.push_with(at, dir, flow, rtt, |out| {
            out.extend_from_slice(&rec.payload);
            None::<()>
        });
        assert!(dropped.is_none());
    }
    let half = if in_pieces { rec.payload.len() / 2 } else { 0 };
    let (head, tail) = rec.payload.split_at(half);
    slice.push_with(at, dir, flow, rtt, |out| {
        out.extend_from_slice(head);
        out.extend_from_slice(tail);
        Some(())
    });
}

proptest! {
    /// Prefix parse <-> display round-trip.
    #[test]
    fn prefix_text_roundtrip(p in prefix()) {
        let s = p.to_string();
        let back: IpPrefix = s.parse().unwrap();
        prop_assert_eq!(back, p);
    }

    /// A prefix always contains its own network address, and containment
    /// implies the LPM trie can find it.
    #[test]
    fn prefix_contains_network(p in prefix()) {
        prop_assert!(p.contains(p.network()));
        let mut t = PrefixTrie::new();
        t.insert(p, ());
        prop_assert!(t.lookup(p.network()).is_some());
    }

    /// Trie and the linear-scan baseline always agree on the best match
    /// and its value, prefixes inserted twice included (the last value
    /// wins in both).
    #[test]
    fn trie_matches_linear_baseline(
        prefixes in prop::collection::vec(prefix(), 1..40),
        repeats in prop::collection::vec(any::<u8>(), 0..10),
        probes in prop::collection::vec(ip_addr(), 1..40),
    ) {
        let mut trie = PrefixTrie::new();
        let mut linear = LinearLpm::new();
        let again = repeats.iter().map(|&r| prefixes[usize::from(r) % prefixes.len()]);
        for (i, p) in prefixes.iter().copied().chain(again).enumerate() {
            trie.insert(p, i);
            linear.insert(p, i);
        }
        let networks = prefixes.iter().map(|p| p.network());
        for probe in probes.into_iter().chain(networks) {
            let a = trie.lookup(probe).map(|(p, v)| (*p, *v));
            let b = linear.lookup(probe).map(|(p, v)| (*p, *v));
            prop_assert_eq!(a, b, "probe {}", probe);
        }
    }

    /// The LPM result, when present, contains the probe.
    #[test]
    fn lpm_result_contains_probe(
        prefixes in prop::collection::vec(prefix(), 1..40),
        probe in ip_addr(),
    ) {
        let mut trie = PrefixTrie::new();
        for p in &prefixes {
            trie.insert(*p, ());
        }
        if let Some((m, _)) = trie.lookup(probe) {
            prop_assert!(m.contains(probe));
            // and no stored prefix longer than m contains the probe
            for p in &prefixes {
                if p.contains(probe) {
                    prop_assert!(p.len() <= m.len());
                }
            }
        } else {
            for p in &prefixes {
                prop_assert!(!p.contains(probe));
            }
        }
    }

    /// The arena trie against a model: a `BTreeMap` of exact entries and
    /// a longest-match scan over it. Prefixes come from a small pool,
    /// mostly in a few short blocks of either family, so inserts repeat
    /// and nest.
    #[test]
    fn trie_arena_matches_btreemap_model(
        pool in prop::collection::vec(prop_oneof![
            (any::<u8>(), 0u8..=12).prop_map(|(a, l)| {
                IpPrefix::new(IpAddr::V4(Ipv4Addr::from(u32::from(a & 0xc3) << 24)), l).unwrap()
            }),
            (any::<u8>(), 0u8..=12).prop_map(|(a, l)| {
                IpPrefix::new(IpAddr::V6(Ipv6Addr::from(u128::from(a & 0xc3) << 120)), l).unwrap()
            }),
            prefix(),
        ], 1..12),
        inserts in prop::collection::vec((any::<usize>(), any::<u32>()), 0..40),
        probes in prop::collection::vec(ip_addr(), 0..20),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model = std::collections::BTreeMap::new();
        for (at, value) in inserts {
            let p = pool[at % pool.len()];
            prop_assert_eq!(trie.insert(p, value), model.insert(p, value), "insert {}", p);
            prop_assert_eq!(trie.len(), model.len());
            prop_assert_eq!(trie.is_empty(), model.is_empty());
        }
        for p in &pool {
            prop_assert_eq!(trie.get(p), model.get(p), "get {}", p);
        }
        let probes = probes.into_iter().chain(pool.iter().map(IpPrefix::network));
        for probe in probes {
            let want = model
                .iter()
                .filter(|(p, _)| p.contains(probe))
                .max_by_key(|(p, _)| p.len());
            prop_assert_eq!(trie.lookup(probe), want, "lookup {}", probe);
        }
        // pre-order is (family, network, len) order, which is the key's own
        prop_assert_eq!(trie.entries(), model.iter().collect::<Vec<_>>());
        let clone = trie.clone();
        prop_assert_eq!(clone.entries(), trie.entries());
    }

    /// Civil calendar conversion is a bijection over a wide range.
    #[test]
    fn civil_bijection(days in 0i64..200_000) {
        let d = civil_from_days(days);
        prop_assert_eq!(days_from_civil(d.year, d.month, d.day), days);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
    }

    /// Time arithmetic: (t + d) - t == d.
    #[test]
    fn time_add_sub(t in any::<u32>(), d in any::<u32>()) {
        let t = SimTime::from_unix_secs(t as u64);
        let d = SimDuration::from_micros(d as u64);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Capture records round-trip through the writer/reader in order.
    #[test]
    fn capture_roundtrip(records in prop::collection::vec(capture_record(), 0..20)) {
        let mut buf = Vec::new();
        {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            for r in &records {
                w.write(r).unwrap();
            }
            w.finish().unwrap();
        }
        let got: Result<Vec<_>, _> = CaptureReader::new(&buf[..]).unwrap().collect();
        prop_assert_eq!(got.unwrap(), records);
    }

    /// A `RecordSlice` is the owned record vector it replaces: records
    /// written in place (in one piece, or in two after a turned-down
    /// write), appended from another slice or written after a clear
    /// iterate as the vector holds them, sort as `sort_by_key(timestamp)` does
    /// (ties stay in order), reach a capture file as the owned records'
    /// bytes, and reach the vector sink as those records.
    #[test]
    fn record_slice_is_the_owned_record_vector(
        ops in prop::collection::vec(
            (0u8..3, any::<bool>(), prop::collection::vec(slice_record(), 0..8)),
            0..12,
        ),
    ) {
        let (mut slice, mut other) = (RecordSlice::default(), RecordSlice::default());
        let mut oracle: Vec<CaptureRecord> = Vec::new();
        for (op, in_pieces, records) in &ops {
            // 0 writes onto the slice, 1 fills the other slice (emptied
            // by its last append, its buffers kept) and appends it, 2
            // clears the slice and refills it
            let target = match op {
                0 => &mut slice,
                1 => &mut other,
                _ => {
                    slice.clear();
                    oracle.clear();
                    &mut slice
                }
            };
            for r in records {
                write_in_place(target, r, *in_pieces);
            }
            if *op == 1 {
                slice.append(&mut other);
                prop_assert_eq!(other.iter().len(), 0);
            }
            oracle.extend(records.iter().cloned());
        }
        let lends = |slice: &RecordSlice, oracle: &[CaptureRecord]| {
            slice.iter().eq(oracle.iter().map(CaptureRecord::as_ref))
        };
        prop_assert_eq!(slice.iter().len(), oracle.len());
        prop_assert!(lends(&slice, &oracle));
        slice.sort_by_time();
        oracle.sort_by_key(|r| r.timestamp);
        prop_assert!(lends(&slice, &oracle));

        let (mut by_slice, mut by_record) = (Vec::new(), Vec::new());
        let mut w = CaptureWriter::new(&mut by_slice).unwrap();
        w.emit_slice(7, &slice).unwrap();
        w.finish().unwrap();
        let mut w = CaptureWriter::new(&mut by_record).unwrap();
        for r in &oracle {
            w.emit(r.clone()).unwrap();
        }
        w.finish().unwrap();
        prop_assert_eq!(by_slice, by_record);

        let mut vector: Vec<CaptureRecord> = Vec::new();
        vector.emit_slice(7, &slice).unwrap();
        prop_assert_eq!(vector, oracle);
    }

    /// The capture reader never panics on arbitrary bytes.
    #[test]
    fn capture_reader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        if let Ok(reader) = CaptureReader::new(&bytes[..]) {
            for item in reader.take(50) {
                if item.is_err() {
                    break;
                }
            }
        }
    }
}
