//! Byte identity as a table: each row is one CLI output, produced
//! through the library entry point the CLI calls and pinned as (length,
//! CRC-32) of exactly the bytes the command writes to stdout, or to the
//! file it leaves behind. Every row
//! runs at 1, 2 and 5 workers — one, as many as a small box has cores,
//! and more than it has — and must give the recorded bytes each time, so
//! an aggregation or scheduling change that moves one digit of one
//! report fails here, under the tier-1 command.
//!
//! The digests are `Scale::tiny()`, seed 42, taken from the CLI's
//! stdout. When a change is meant to alter a report, re-record the row
//! from the CLI (`dnscentral dataset nl 2020 --scale=tiny --json |
//! python3 -c 'import sys, zlib; d = sys.stdin.buffer.read();
//! print(len(d), hex(zlib.crc32(d)))'`) and say why in the change.

use dnscentral_core::experiments::analyze_capture;
use dnscentral_core::pipeline::{run_spec_with, write_capture, PipelineOpts};
use dnscentral_core::report;
use dnscentral_core::store;
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};
use simnet::Engine;
use std::sync::Arc;
use warehouse::{AppendConfig, Predicate, Warehouse};

const SEED: u64 = 42;

/// The worker counts every row runs at.
const WORKERS: [usize; 3] = [1, 2, 5];

/// `(length, CRC-32)` of a command's stdout.
fn digest(stdout: &[u8]) -> (usize, u32) {
    (stdout.len(), warehouse::codec::crc32(stdout))
}

/// What `println!("{}", serde_json::to_string_pretty(doc))` writes.
fn pretty(doc: &serde_json::Value) -> String {
    serde_json::to_string_pretty(doc).expect("serializes") + "\n"
}

/// Run `command` at every worker count and compare each output's digest
/// with the recorded one.
fn assert_row(what: &str, recorded: (usize, u32), command: impl Fn(usize) -> String) {
    for workers in WORKERS {
        let got = digest(command(workers).as_bytes());
        assert_eq!(got, recorded, "`{what}` at {workers} worker(s)");
    }
}

/// `dnscentral dataset <vantage> 2020 --scale=tiny --json [--fleet]`.
fn dataset_json(vantage: Vantage, fleet: bool, workers: usize) -> String {
    let opts = PipelineOpts {
        jobs: workers,
        fleet,
        ..PipelineOpts::default()
    };
    let run = run_spec_with(dataset(vantage, 2020), Scale::tiny(), SEED, &opts);
    pretty(&report::dataset_json(&run.id, &run.analysis))
}

#[test]
fn report_text() {
    assert_row("report --scale=tiny", (13_786, 0x2c9b_8f70), |w| {
        report::render_full_report(Scale::tiny(), SEED, &PipelineOpts::with_jobs(w), w)
    });
}

#[test]
fn dataset_nl_json() {
    assert_row(
        "dataset nl 2020 --scale=tiny --json",
        (10_415, 0x42fd_9c14),
        |w| dataset_json(Vantage::Nl, false, w),
    );
}

#[test]
fn dataset_nz_json() {
    assert_row(
        "dataset nz 2020 --scale=tiny --json",
        (10_129, 0xcbb3_f374),
        |w| dataset_json(Vantage::Nz, false, w),
    );
}

#[test]
fn dataset_broot_json() {
    assert_row(
        "dataset broot 2020 --scale=tiny --json",
        (9_705, 0x5e9d_6ba7),
        |w| dataset_json(Vantage::BRoot, false, w),
    );
}

#[test]
fn dataset_nl_fleet_json() {
    assert_row(
        "dataset nl 2020 --scale=tiny --json --fleet",
        (9_931, 0x8ea8_e17f),
        |w| dataset_json(Vantage::Nl, true, w),
    );
}

#[test]
fn dataset_nz_fleet_json() {
    assert_row(
        "dataset nz 2020 --scale=tiny --json --fleet",
        (9_934, 0xb290_6f81),
        |w| dataset_json(Vantage::Nz, true, w),
    );
}

/// `dnscentral ingest nz 2020 --scale=tiny --warehouse=DIR
/// --partition-rows=4096`, then `report --warehouse=DIR` as text and as
/// `--json`: both digests for each worker count, which the ingest and
/// the scan both run at.
#[test]
fn warehouse_report_text_and_json() {
    let mut outputs = Vec::new();
    for workers in WORKERS {
        let dir = std::env::temp_dir().join(format!(
            "dnscentral-identity-wh{workers}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wh = Arc::new(Warehouse::open(&dir).expect("open"));
        let config = AppendConfig {
            max_rows: 4096,
            ..AppendConfig::default()
        };
        let opts = PipelineOpts::with_jobs(workers);
        store::ingest_spec(
            &wh,
            dataset(Vantage::Nz, 2020),
            Scale::tiny(),
            SEED,
            &opts,
            config,
        )
        .expect("ingest");
        wh.commit().expect("commit");
        let (text, _) = store::render_report(&wh, &Predicate::all(), workers).expect("report");
        let (doc, _) = store::report_json(&wh, &Predicate::all(), workers).expect("json");
        outputs.push((workers, text, pretty(&doc)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (workers, text, json) in outputs {
        assert_eq!(
            digest(text.as_bytes()),
            (4_972, 0xc673_0627),
            "`report --warehouse` after a {workers}-worker ingest"
        );
        // the warehouse JSON is the in-memory `dataset nz 2020 --json`
        assert_eq!(
            digest(json.as_bytes()),
            (10_129, 0xcbb3_f374),
            "`report --warehouse --json` after a {workers}-worker ingest"
        );
    }
}

/// `dnscentral dataset nl 2020 --scale=tiny --fleet --keep-capture`
/// leaves the very file `generate nl 2020 FILE --scale=tiny --fleet`
/// writes, and ingesting it leaves no query unanswered: every TC→TCP
/// retry the fleet records pairs with its response. The digest is the
/// kept file's, taken from the CLI before the resolver walk became a
/// step machine.
#[test]
fn fleet_capture_kept_is_the_capture_generated() {
    let spec = dataset(Vantage::Nl, 2020);
    for workers in WORKERS {
        let path = |what: &str| {
            std::env::temp_dir().join(format!(
                "dnscentral-identity-{what}{workers}-{}.dnscap",
                std::process::id()
            ))
        };
        let (kept, generated) = (path("kept"), path("generated"));
        let opts = PipelineOpts {
            jobs: workers,
            fleet: true,
            ..PipelineOpts::default()
        };
        let keep = PipelineOpts {
            keep_capture: Some(kept.clone()),
            ..opts.clone()
        };
        run_spec_with(spec.clone(), Scale::tiny(), SEED, &keep);
        write_capture(
            &Engine::new(spec.clone(), Scale::tiny(), SEED),
            &generated,
            &opts,
        )
        .expect("generate");
        let bytes = |p: &std::path::Path| std::fs::read(p).expect("capture written");
        let what = format!("the kept fleet capture at {workers} worker(s)");
        assert_eq!(digest(&bytes(&kept)), (14_345_834, 0xa688_8282), "{what}");
        assert!(
            bytes(&kept) == bytes(&generated),
            "{what} is not the generated one"
        );
        let (_, _, ingest) = analyze_capture(&spec, Scale::tiny(), SEED, &kept).expect("ingest");
        assert!(ingest.balanced(), "{what}: {ingest:?}");
        assert_eq!(ingest.unanswered_queries, 0, "{what}: {ingest:?}");
        let _ = std::fs::remove_file(&kept);
        let _ = std::fs::remove_file(&generated);
    }
}
