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
        workers,
        fleet,
        ..PipelineOpts::default()
    };
    let run = run_spec_with(dataset(vantage, 2020), Scale::tiny(), SEED, &opts);
    pretty(&report::dataset_json(&run.id, &run.analysis))
}

#[test]
fn report_text() {
    assert_row("report --scale=tiny", (13_786, 0x2c9b_8f70), |w| {
        report::render_full_report(Scale::tiny(), SEED, &PipelineOpts::with_workers(w), w)
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

/// `dnscentral dataset nl 2020 --scale=tiny --keep-capture` prints the
/// report the streamed run prints — at one worker per core, at
/// `--jobs=4`, and at every worker count of the table — since keeping
/// the capture is generating it and then one pass over the file; and the
/// file it keeps is the one `generate nl 2020 FILE --scale=tiny` writes.
#[test]
fn kept_capture_reports_as_streamed_and_is_the_capture_generated() {
    let spec = dataset(Vantage::Nl, 2020);
    let path = |what: &str| {
        std::env::temp_dir().join(format!(
            "dnscentral-identity-{what}-{}.dnscap",
            std::process::id()
        ))
    };
    let (kept, generated) = (path("kept-calibrated"), path("generated-calibrated"));
    let report = |opts: &PipelineOpts| {
        let run = run_spec_with(spec.clone(), Scale::tiny(), SEED, opts);
        report::render_dataset_report(
            &run.id,
            Vantage::Nl,
            &run.analysis,
            &run.dualstack,
            &run.spec,
        )
    };
    let keep = PipelineOpts {
        keep_capture: Some(kept.clone()),
        ..PipelineOpts::default()
    };
    let kept_report = report(&keep);
    for jobs in [0, 4].into_iter().chain(WORKERS) {
        assert!(
            report(&PipelineOpts::with_workers(jobs)) == kept_report,
            "the --keep-capture report differs from the streamed one at --jobs={jobs}"
        );
    }
    let engine = Engine::new(spec.clone(), Scale::tiny(), SEED);
    write_capture(&engine, &generated, &PipelineOpts::default()).expect("generate");
    let bytes = |p: &std::path::Path| std::fs::read(p).expect("capture written");
    assert!(
        bytes(&kept) == bytes(&generated),
        "the kept capture is not the file generate writes"
    );
    let _ = std::fs::remove_file(&kept);
    let _ = std::fs::remove_file(&generated);
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
        let opts = PipelineOpts::with_workers(workers);
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

/// `dnscentral ingest broot 2020 --scale=tiny --warehouse=DIR
/// --partition-bytes=32768`, then `report --warehouse=DIR` as text and
/// as `--json`: the bytes `dataset broot 2020 --scale=tiny [--json]`
/// prints. B-Root traffic is mostly one-off junk names, so a
/// partition's qname dictionary holds close to one entry per row. At
/// this scale the largest hourly batch is ~100 KB by
/// `ColumnarBatch::bytes`, so a 32 KiB budget splits most hours (24 →
/// 72 partitions); where partitions split must never reach a report.
#[test]
fn junk_heavy_warehouse_split_by_bytes_reports_as_dataset() {
    let spec = dataset(Vantage::BRoot, 2020);
    let direct = run_spec_with(spec.clone(), Scale::tiny(), SEED, &PipelineOpts::default());
    let direct_text = report::render_dataset_report(
        &direct.id,
        Vantage::BRoot,
        &direct.analysis,
        &direct.dualstack,
        &direct.spec,
    );
    for workers in WORKERS {
        let dir = std::env::temp_dir().join(format!(
            "dnscentral-identity-whb{workers}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wh = Arc::new(Warehouse::open(&dir).expect("open"));
        let config = AppendConfig {
            max_bytes: 32 * 1024,
            ..AppendConfig::default()
        };
        let opts = PipelineOpts::with_workers(workers);
        store::ingest_spec(&wh, spec.clone(), Scale::tiny(), SEED, &opts, config).expect("ingest");
        wh.commit().expect("commit");
        let what = format!("a {workers}-worker ingest");
        let partitions = wh.partitions().len();
        assert!(
            partitions > 24,
            "the byte budget never flushed after {what}: {partitions}"
        );
        let (text, _) = store::render_report(&wh, &Predicate::all(), workers).expect("report");
        let (doc, _) = store::report_json(&wh, &Predicate::all(), workers).expect("json");
        assert!(
            text == direct_text,
            "`report --warehouse` after {what} differs from `dataset broot 2020`"
        );
        assert_eq!(
            digest(pretty(&doc).as_bytes()),
            (9_705, 0x5e9d_6ba7),
            "`report --warehouse --json` after {what} is not `dataset broot 2020 --json`"
        );
        let _ = std::fs::remove_dir_all(&dir);
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
            workers,
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
