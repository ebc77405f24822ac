//! Property tests for the warehouse: random row batches written
//! through the appender and read back through a scan are exactly the
//! original rows, octet for octet, for any partition size; predicate
//! scans agree with filtering the original rows in memory; a valid
//! partition mutated and re-sealed never decodes into rows that panic;
//! a truncated or bit-flipped manifest opens or is `Corrupt`, and a torn
//! `MANIFEST.json.tmp` is ignored; and the slicing CRC-32 agrees with a
//! bit-at-a-time reference.

use asdb::cloud::ALL_PROVIDERS;
use asdb::registry::Asn;
use dns_wire::name::Name;
use dns_wire::types::{RType, Rcode};
use entrada::schema::QueryRow;
use entrada::table::ColumnarBatch;
use netbase::flow::Transport;
use netbase::time::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use warehouse::codec::crc32;
use warehouse::manifest::MANIFEST_FILE;
use warehouse::partition::{decode, encode};
use warehouse::{AppendConfig, Predicate, Warehouse, WarehouseError};

/// A qname from a small pool, so partitions repeat names: short names
/// a `Name` holds inline, names longer than 30 octets that it boxes,
/// and ASCII case variants of both (`Q7.Example.nl.`), which the
/// dictionary must keep apart because rows rebuild with their octets.
fn random_qname(rng: &mut StdRng) -> Name {
    let mut text = if rng.gen_bool(0.75) {
        format!("q{}.example.nl.", rng.gen_range(0u32..40))
    } else {
        format!(
            "q{}.a-label-long-enough-to-spill.example.nl.",
            rng.gen_range(0u32..10)
        )
    };
    if rng.gen_bool(0.2) {
        text = text
            .chars()
            .map(|c| {
                if rng.gen_bool(0.5) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
    }
    text.parse().unwrap()
}

/// A random but *self-consistent* row: the provider always matches the
/// ASN (the columnar layout derives provider from the AS column), and
/// sentinel-colliding values (`edns_size == u16::MAX`,
/// `response_size == 0`) are avoided just as real captures never
/// produce them.
fn random_row(rng: &mut StdRng, base_us: u64) -> QueryRow {
    let (asn, provider) = match rng.gen_range(0u32..8) {
        0 => (None, None),
        1..=2 => {
            let p = ALL_PROVIDERS[rng.gen_range(0usize..ALL_PROVIDERS.len())];
            let asns = p.asns();
            (Some(asns[rng.gen_range(0usize..asns.len())]), Some(p))
        }
        _ => (Some(Asn(64_496 + rng.gen_range(0u32..1_000))), None),
    };
    let answered = rng.gen_bool(0.9);
    let transport = if rng.gen_bool(0.08) {
        Transport::Tcp
    } else {
        Transport::Udp
    };
    QueryRow {
        timestamp: SimTime(base_us + rng.gen_range(0u64..8 * 3_600_000_000)),
        src: if rng.gen_bool(0.3) {
            format!("2001:db8::{:x}", rng.gen_range(1u32..0xffff))
                .parse()
                .unwrap()
        } else {
            format!("203.0.113.{}", rng.gen_range(1u32..255))
                .parse()
                .unwrap()
        },
        src_port: rng.gen_range(1024u16..u16::MAX),
        server: "194.0.28.53".parse().unwrap(),
        transport,
        qname: random_qname(rng),
        qtype: match rng.gen_range(0u32..5) {
            0 => RType::A,
            1 => RType::Aaaa,
            2 => RType::Ns,
            3 => RType::Ds,
            _ => RType::Txt,
        },
        edns_size: if rng.gen_bool(0.8) {
            Some(rng.gen_range(512u16..4096))
        } else {
            None
        },
        do_bit: rng.gen_bool(0.4),
        rcode: answered.then(|| {
            if rng.gen_bool(0.8) {
                Rcode::NoError
            } else {
                Rcode::NxDomain
            }
        }),
        response_size: answered.then(|| rng.gen_range(40u32..2000)),
        response_truncated: rng.gen_bool(0.02),
        tcp_rtt_us: if transport == Transport::Tcp {
            rng.gen_range(1_000u32..200_000)
        } else {
            0
        },
        asn,
        provider,
        public_dns: rng.gen_bool(0.1),
    }
}

/// Total order on rows so multisets can be compared as sorted vectors
/// (scans return rows grouped by partition, not in push order). The
/// `Debug` form spells qnames with their exact octets.
fn sort_key(row: &QueryRow) -> (u64, String) {
    (row.timestamp.as_micros(), format!("{row:?}"))
}

/// Sort both sides and compare them as rows *and* as qname octets:
/// `QueryRow`'s `==` folds case in the qname, so it alone cannot see
/// two dictionary entries merged into one.
fn assert_same_rows(mut got: Vec<QueryRow>, mut want: Vec<QueryRow>) -> Result<(), TestCaseError> {
    got.sort_by_key(sort_key);
    want.sort_by_key(sort_key);
    for (g, w) in got.iter().zip(&want) {
        prop_assert_eq!(g.qname.as_wire(), w.qname.as_wire());
    }
    prop_assert_eq!(got, want);
    Ok(())
}

/// CRC-32 (IEEE) one bit at a time: the definition the table-driven
/// `crc32` must agree with.
fn bitwise_crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

fn fresh_root() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dnswh-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn write_scan_roundtrip_any_partition_size(
        seed in 0u64..1_000_000,
        n_rows in 1usize..2_500,
        max_rows in 1usize..400,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = SimTime::from_date(2020, 4, 5).as_micros();
        let rows: Vec<QueryRow> = (0..n_rows).map(|_| random_row(&mut rng, base)).collect();

        let root = fresh_root();
        let wh = Warehouse::open(&root).expect("open");
        wh.ensure_source("prop", "{}").expect("source");
        let mut app = wh.appender("prop", AppendConfig {
            max_rows,
            ..AppendConfig::default()
        });
        for r in &rows {
            app.push(r);
        }
        let stats = app.finish().expect("finish");
        prop_assert_eq!(stats.rows, rows.len() as u64);
        wh.commit().expect("commit");

        // reopen from disk: everything must come back from the files
        let wh = Warehouse::open(&root).expect("reopen");
        let mut scan = wh.scan(Predicate::all());
        let got: Vec<QueryRow> = scan.by_ref().collect();
        let sstats = scan.stats();
        prop_assert_eq!(sstats.corrupt, 0);
        prop_assert_eq!(sstats.rows_matched, rows.len() as u64);
        assert_same_rows(got, rows.clone())?;

        // a random time window scan equals the in-memory filter
        let w0 = base + seed % (8 * 3_600_000_000);
        let w1 = w0 + 2 * 3_600_000_000;
        let pred = Predicate::between(SimTime(w0), SimTime(w1));
        let mut scan = wh.scan(pred);
        let got_window: Vec<QueryRow> = scan.by_ref().collect();
        let want_window: Vec<QueryRow> = rows
            .iter()
            .filter(|r| r.timestamp.as_micros() >= w0 && r.timestamp.as_micros() < w1)
            .cloned()
            .collect();
        assert_same_rows(got_window, want_window)?;

        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Append `n_rows` random rows as source `id` in partitions of at
/// most 100 rows, and commit.
fn append_committed(wh: &Warehouse, id: &str, seed: u64, n_rows: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = SimTime::from_date(2020, 4, 5).as_micros();
    wh.ensure_source(id, "{\"seed\":7}").expect("source");
    let config = AppendConfig {
        max_rows: 100,
        ..AppendConfig::default()
    };
    let mut app = wh.appender(id, config);
    for _ in 0..n_rows {
        app.push(&random_row(&mut rng, base));
    }
    app.finish().expect("finish");
    wh.commit().expect("commit");
}

/// A committed warehouse of a few partitions: its root and the bytes of
/// its manifest.
fn committed_warehouse() -> (PathBuf, Vec<u8>) {
    let root = fresh_root();
    append_committed(&Warehouse::open(&root).expect("open"), "prop", 3, 400);
    let bytes = std::fs::read(root.join(MANIFEST_FILE)).expect("manifest written");
    (root, bytes)
}

/// `Warehouse::open` on `root` must load or report `Corrupt`: anything
/// else (an I/O error, a panic) fails the test.
fn opens_or_is_corrupt(root: &std::path::Path, what: &str) {
    match Warehouse::open(root) {
        Ok(_) | Err(WarehouseError::Corrupt { .. }) => {}
        Err(e) => panic!("{what}: {e}"),
    }
}

#[test]
fn every_truncated_manifest_opens_or_is_corrupt() {
    let (root, bytes) = committed_warehouse();
    for len in 0..bytes.len() {
        std::fs::write(root.join(MANIFEST_FILE), &bytes[..len]).unwrap();
        opens_or_is_corrupt(&root, &format!("manifest cut to {len} bytes"));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash between writing `MANIFEST.json.tmp` and renaming it leaves a
/// torn tmp file beside the committed manifest: `open` must not read it,
/// and the next commit overwrites and renames it away.
#[test]
fn torn_manifest_tmp_is_ignored_and_replaced_by_the_next_commit() {
    let (root, bytes) = committed_warehouse();
    let committed = Warehouse::open(&root).expect("open");
    let tmp = root.join(format!("{MANIFEST_FILE}.tmp"));
    std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap();

    let wh = Warehouse::open(&root).expect("a torn tmp does not stop open");
    assert_eq!(wh.partitions(), committed.partitions());
    assert_eq!(wh.sources(), committed.sources());
    assert_eq!(std::fs::read(root.join(MANIFEST_FILE)).unwrap(), bytes);

    append_committed(&wh, "prop2", 4, 150);
    assert!(!tmp.exists(), "the commit renamed its tmp file away");
    let reopened = Warehouse::open(&root).expect("reopen");
    let parts = reopened.partitions();
    assert!(parts.len() > committed.partitions().len());
    assert_eq!(
        parts[..committed.partitions().len()],
        committed.partitions()[..]
    );
    for meta in &parts {
        reopened
            .read_partition(meta)
            .expect("every listed partition reads back");
    }
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flip one to four random bytes of a saved manifest: `open` loads
    /// it or reports `Corrupt`, never panics.
    #[test]
    fn flipped_manifest_bytes_open_or_are_corrupt(
        seed in 0u64..1_000_000,
        flips in 1usize..5,
    ) {
        static SAVED: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let bytes = SAVED.get_or_init(|| {
            let (root, bytes) = committed_warehouse();
            let _ = std::fs::remove_dir_all(&root);
            bytes
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flipped = bytes.clone();
        for _ in 0..flips {
            let at = rng.gen_range(0..flipped.len());
            flipped[at] ^= rng.gen_range(1u8..=255);
        }
        let root = fresh_root();
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(MANIFEST_FILE), &flipped).unwrap();
        opens_or_is_corrupt(&root, &format!("seed {seed}, {flips} flips"));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Flip bits, truncate, or splice in bytes from elsewhere in the
    /// file, then re-seal the CRC so the structural decoder is what
    /// judges the result: it is an error, or a batch every row of which
    /// rebuilds.
    #[test]
    fn mutated_partitions_decode_to_an_error_or_readable_rows(
        seed in 0u64..1_000_000,
        n_rows in 1usize..200,
        edits in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = SimTime::from_date(2020, 4, 5).as_micros();
        let mut batch = ColumnarBatch::new();
        for _ in 0..n_rows {
            batch.push(&random_row(&mut rng, base));
        }
        let (bytes, _) = encode(&batch);
        let original = &bytes[..bytes.len() - 4];
        let mut body = original.to_vec();
        for _ in 0..edits {
            match rng.gen_range(0u32..3) {
                0 if !body.is_empty() => {
                    let at = rng.gen_range(0..body.len());
                    body[at] ^= 1 << rng.gen_range(0u32..8);
                }
                1 => body.truncate(rng.gen_range(0..=body.len())),
                _ => {
                    let from = rng.gen_range(0..original.len());
                    let len = rng.gen_range(1..=16.min(original.len() - from));
                    let at = rng.gen_range(0..=body.len());
                    let end = (at + rng.gen_range(0usize..=16)).min(body.len());
                    body.splice(at..end, original[from..from + len].iter().copied());
                }
            }
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        if let Ok((batch, _)) = decode(&body) {
            for i in 0..batch.len() {
                let row = batch.get(i);
                prop_assert!(row.qname.wire_len() >= 1);
            }
        }
    }

    #[test]
    fn crc32_matches_a_bitwise_reference(
        data in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        prop_assert_eq!(crc32(&data), bitwise_crc32(&data));
    }
}

/// Appending in two sessions (reopen between them) accumulates; the
/// second commit must not disturb the first session's partitions.
#[test]
fn incremental_append_across_reopens() {
    let mut rng = StdRng::seed_from_u64(7);
    let base = SimTime::from_date(2018, 11, 4).as_micros();
    let first: Vec<QueryRow> = (0..500).map(|_| random_row(&mut rng, base)).collect();
    let second: Vec<QueryRow> = (0..500)
        .map(|_| random_row(&mut rng, base + 86_400_000_000))
        .collect();

    let root = fresh_root();
    {
        let wh = Warehouse::open(&root).unwrap();
        wh.ensure_source("inc", "{}").unwrap();
        let mut app = wh.appender("inc", AppendConfig::default());
        first.iter().for_each(|r| app.push(r));
        app.finish().unwrap();
        wh.commit().unwrap();
    }
    {
        let wh = Warehouse::open(&root).unwrap();
        wh.ensure_source("inc", "{}").unwrap();
        let mut app = wh.appender("inc", AppendConfig::default());
        second.iter().for_each(|r| app.push(r));
        app.finish().unwrap();
        wh.commit().unwrap();
    }

    let wh = Warehouse::open(&root).unwrap();
    let got: Vec<QueryRow> = wh.scan(Predicate::all()).collect();
    let want: Vec<QueryRow> = first.into_iter().chain(second).collect();
    assert_eq!(got.len(), 1000);
    assert_same_rows(got, want).unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
