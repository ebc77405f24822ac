//! End-to-end CLI tests: drive the `dnscentral` binary the way a user
//! would and check its outputs (and its file artifacts round-trip).

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnscentral"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dnscentral-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn table1_prints_ground_truth() {
    let out = bin().arg("table1").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("15169"));
    assert!(text.contains("Cloudflare"));
    assert!(text.contains("8075"));
}

#[test]
fn usage_on_bad_args() {
    let out = bin().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));
    let out = bin().output().expect("runs");
    assert!(!out.status.success());
}

#[test]
fn help_covers_every_command_and_flag() {
    let out = bin().arg("help").output().expect("runs");
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    // every dispatchable command appears in the help text...
    for command in [
        "table1",
        "generate",
        "analyze",
        "dataset",
        "ingest",
        "qmin",
        "report",
        "inspect",
        "export-pcap",
        "import-pcap",
        "analyze-pcap",
        "concentration",
        "junk-overview",
        "experiments",
        "scenario-template",
        "scenario",
        "serve",
        "loadgen",
        "live",
        "bench",
        "help",
    ] {
        assert!(
            help.lines().any(|l| l.trim_start().starts_with(command)),
            "help is missing command {command}"
        );
    }
    // ...as does every flag the parser accepts
    for flag in [
        "--scale",
        "--seed",
        "--shards",
        "--zone",
        "--provider",
        "--duration",
        "--queries",
        "--port",
        "--workers",
        "--udp-workers",
        "--tcp-workers",
        "--udp=",
        "--tcp=",
        "--out",
        "--stats-interval",
        "--trace",
        "--metrics-addr",
        "--filter",
        "--warehouse",
        "--from",
        "--to",
        "--partition-rows",
        "--partition-bytes",
        "--keep-capture",
        "--stats",
        "--json",
        "--quick",
        "--list",
        "--monthly",
        "--flight",
        "--flight-interval",
        "--sample",
        "--explain",
    ] {
        assert!(help.contains(flag), "help is missing flag {flag}");
    }
    // the short usage line advertises the newer commands too
    let err = String::from_utf8(bin().arg("frobnicate").output().expect("runs").stderr).unwrap();
    assert!(err.contains("bench"), "{err}");
    assert!(err.contains("help"), "{err}");
}

#[test]
fn bad_scale_is_rejected() {
    let out = bin()
        .args(["table1", "--scale=galactic"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown scale"));
}

#[test]
fn bad_flag_values_fail_with_friendly_errors() {
    // every case: non-zero exit, a readable message, and no panic text
    for (args, expect) in [
        (&["table1", "--seed=banana"][..], "--seed takes an integer"),
        (
            &["live", "nl", "2020", "x.dnscap", "--duration=banana"][..],
            "bad duration",
        ),
        (
            &["serve", "nl", "2020", "--port=notaport"][..],
            "--port takes a port number",
        ),
        (&["table1", "--metrics-addr=nonsense"][..], "ip:port"),
        (
            &["generate", "nl", "2019", "--scale"][..],
            "requires a value",
        ),
        (&["dataset", "mars", "2020"][..], "unknown vantage"),
        (&["dataset", "nl", "twenty"][..], "year must be a number"),
        // a misspelt flag would otherwise run with the default
        (
            &["table1", "--no-such-flag=3", "--shard=2"][..],
            "unknown flag --no-such-flag",
        ),
        (&["table1", "--shard=2"][..], "unknown flag --shard"),
        (
            &["dataset", "nl", "2020", "--flet"][..],
            "unknown flag --flet",
        ),
    ] {
        let out = bin().args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(expect), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn generate_analyze_inspect_roundtrip() {
    let cap = tmp("gen.dnscap");
    let out = bin()
        .args([
            "generate",
            "nz",
            "2019",
            cap.to_str().unwrap(),
            "--scale=tiny",
            "--seed=5",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout).unwrap().contains("queries"));
    assert!(cap.exists());

    let out = bin()
        .args([
            "analyze",
            "nz",
            "2019",
            cap.to_str().unwrap(),
            "--scale=tiny",
            "--seed=5",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("=== nz-w2019 ==="));
    assert!(text.contains("Figure 1"));
    assert!(text.contains("Table 5"));

    let out = bin()
        .args(["inspect", cap.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("malformed  : 0"), "{text}");
    assert!(text.contains("qtypes"));

    let _ = std::fs::remove_file(&cap);
}

#[test]
fn pcap_export_import_roundtrip() {
    let cap = tmp("x.dnscap");
    let pcap = tmp("x.pcap");
    let back = tmp("x2.dnscap");
    assert!(bin()
        .args([
            "generate",
            "broot",
            "2018",
            cap.to_str().unwrap(),
            "--scale=tiny"
        ])
        .status()
        .expect("runs")
        .success());
    assert!(bin()
        .args(["export-pcap", cap.to_str().unwrap(), pcap.to_str().unwrap()])
        .status()
        .expect("runs")
        .success());
    let out = bin()
        .args([
            "import-pcap",
            pcap.to_str().unwrap(),
            back.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("0 non-DNS frames skipped"));
    // re-imported capture inspects cleanly
    let out = bin()
        .args(["inspect", back.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("malformed  : 0"));
    for f in [&cap, &pcap, &back] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn dataset_json_is_valid() {
    let out = bin()
        .args(["dataset", "nl", "2018", "--scale=tiny", "--json"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(doc["id"], "nl-w2018");
    assert!(doc["figure1"]["total"].as_f64().unwrap() > 0.2);
    assert!(doc["concentration"]["hhi"].as_f64().unwrap() > 0.0);
    assert_eq!(doc["table5"]["rows"].as_array().unwrap().len(), 5);
}

/// `--fleet` reaches the multi-dataset commands: the Figure 3 series
/// under it comes from resolver walks (so the table differs from the
/// calibrated one) and still dates Google's rollout to December 2019.
#[test]
fn qmin_honours_the_fleet_flag() {
    let run = |extra: &[&str]| {
        let out = bin()
            .args(["qmin", "nl", "--scale=tiny"])
            .args(extra)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let calibrated = run(&[]);
    let fleet = run(&["--fleet"]);
    assert_ne!(calibrated, fleet, "--fleet was ignored");
    for text in [&calibrated, &fleet] {
        assert!(
            text.contains("Q-min change-point detected: 2019-12"),
            "{text}"
        );
    }
}

#[test]
fn warehouse_ingest_then_report_matches_direct_run() {
    let wh = tmp("wh");
    let _ = std::fs::remove_dir_all(&wh);
    let whs = wh.to_str().unwrap();

    // ingest without a warehouse dir is a friendly error
    let out = bin().args(["ingest", "nz", "2019"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--warehouse"));

    let out = bin()
        .args([
            "ingest",
            "nz",
            "2019",
            "--scale=tiny",
            "--seed=5",
            "--warehouse",
            whs,
            "--partition-rows=2048",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("new partition(s)"), "{text}");

    // text report from the warehouse == the direct in-memory run
    let direct = bin()
        .args(["dataset", "nz", "2019", "--scale=tiny", "--seed=5"])
        .output()
        .expect("runs");
    assert!(direct.status.success());
    let scanned = bin()
        .args(["report", "--warehouse", whs])
        .output()
        .expect("runs");
    assert!(
        scanned.status.success(),
        "{}",
        String::from_utf8_lossy(&scanned.stderr)
    );
    assert_eq!(
        String::from_utf8(direct.stdout).unwrap(),
        String::from_utf8(scanned.stdout).unwrap()
    );

    // the JSON documents agree byte for byte as well
    let direct = bin()
        .args([
            "dataset",
            "nz",
            "2019",
            "--scale=tiny",
            "--seed=5",
            "--json",
        ])
        .output()
        .expect("runs");
    let scanned = bin()
        .args(["report", "--warehouse", whs, "--json"])
        .output()
        .expect("runs");
    assert!(direct.status.success() && scanned.status.success());
    assert_eq!(direct.stdout, scanned.stdout);

    // a time window before the dataset prunes every partition
    let scanned = bin()
        .args(["report", "--warehouse", whs, "--to", "2018-01-01"])
        .output()
        .expect("runs");
    assert!(scanned.status.success());
    let err = String::from_utf8(scanned.stderr).unwrap();
    assert!(err.contains("pruned"), "{err}");
    assert!(err.contains("0 row(s) read"), "{err}");

    let _ = std::fs::remove_dir_all(&wh);
}

#[test]
fn deterministic_generation_across_invocations() {
    let a = tmp("det-a.dnscap");
    let b = tmp("det-b.dnscap");
    for p in [&a, &b] {
        assert!(bin()
            .args([
                "generate",
                "nz",
                "2018",
                p.to_str().unwrap(),
                "--scale=tiny",
                "--seed=9"
            ])
            .status()
            .expect("runs")
            .success());
    }
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

/// `generate` honours `--fleet`: the capture comes from resolver walks
/// (so it differs from the calibrated one) and is the very file
/// `dataset --fleet --keep-capture` leaves behind.
#[test]
fn generate_honours_the_fleet_flag() {
    let dir = tmp("gen-fleet");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| {
        let out = bin()
            .current_dir(&dir)
            .args(args)
            .arg("--scale=tiny")
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&["generate", "nz", "2020", "calibrated.dnscap"]);
    run(&["generate", "nz", "2020", "fleet.dnscap", "--fleet"]);
    run(&["dataset", "nz", "2020", "--fleet", "--keep-capture"]);
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    let fleet = read("fleet.dnscap");
    assert_ne!(read("calibrated.dnscap"), fleet, "--fleet was ignored");
    assert_eq!(read("nz-w2020.dnscap"), fleet);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_template_roundtrip() {
    let out = bin()
        .args(["scenario-template", "nz", "2018"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(doc["year"], 2018);
    assert_eq!(doc["fleets_override"].as_array().unwrap().len(), 8);

    let path = tmp("scenario.json");
    std::fs::write(&path, &out.stdout).unwrap();
    let out = bin()
        .args(["scenario", path.to_str().unwrap(), "--scale=tiny"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("=== nz-w2018 ==="));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shipped_scenario_runs() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/microsoft-modernizes.json"
    );
    let out = bin()
        .args(["scenario", path, "--scale=tiny"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // the counterfactual: Microsoft shows the Q-min + validation signature
    let ms_line = text
        .lines()
        .find(|l| l.starts_with("[Microsoft"))
        .expect("figure 2 line");
    assert!(ms_line.contains("NS="), "{ms_line}");
}

#[test]
fn analyze_pcap_without_scenario_context() {
    let cap = tmp("ext.dnscap");
    let pcap = tmp("ext.pcap");
    assert!(bin()
        .args([
            "generate",
            "nl",
            "2019",
            cap.to_str().unwrap(),
            "--scale=tiny"
        ])
        .status()
        .expect("runs")
        .success());
    assert!(bin()
        .args(["export-pcap", cap.to_str().unwrap(), pcap.to_str().unwrap()])
        .status()
        .expect("runs")
        .success());
    let out = bin()
        .args(["analyze-pcap", pcap.to_str().unwrap(), "--zone=nl"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // CP attribution works from the real published ranges alone
    assert!(text.contains("All CPs"));
    let stem = pcap.file_stem().unwrap().to_string_lossy().to_string();
    let fig1 = text
        .lines()
        .skip_while(|l| !l.starts_with("Figure 1"))
        .find(|l| l.starts_with(&stem))
        .expect("fig1 row");
    let total: f64 = fig1
        .split_whitespace()
        .last()
        .unwrap()
        .trim_end_matches('%')
        .parse()
        .unwrap();
    assert!(total > 20.0, "cloud share visible in raw pcap: {total}");
    for f in [&cap, &pcap] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn explain_plans_reconcile_and_are_stable_across_jobs() {
    let wh = tmp("wh-explain");
    let _ = std::fs::remove_dir_all(&wh);
    let whs = wh.to_str().unwrap();
    let out = bin()
        .args([
            "ingest",
            "nz",
            "2019",
            "--scale=tiny",
            "--seed=5",
            "--warehouse",
            whs,
            "--partition-rows=512",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // a --from three days into the 7-day dataset prunes roughly half
    // the partitions by the time_from zone-map dimension
    let manifest = std::fs::read_to_string(wh.join("MANIFEST.json")).expect("manifest");
    let doc: serde_json::Value = serde_json::from_str(&manifest).expect("manifest JSON");
    let meta: serde_json::Value =
        serde_json::from_str(doc["sources"][0]["meta"].as_str().expect("source meta"))
            .expect("meta JSON");
    let start = meta["spec"]["start"].as_u64().expect("spec start");
    let mid = (start + 3 * 24 * 3_600_000_000).to_string();

    let run = |jobs: &str| {
        let out = bin()
            .args([
                "report",
                "--warehouse",
                whs,
                "--explain",
                "--from",
                &mid,
                "--jobs",
                jobs,
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        )
    };
    let (stdout1, stderr1) = run("1");
    let (stdout4, _) = run("4");
    // the plan tree (and the whole report) is byte-stable across --jobs
    assert_eq!(stdout1, stdout4, "explain stdout differs between jobs=1|4");

    // plan totals: "partitions: N total, N pruned, N to open"
    let totals = stdout1
        .lines()
        .find(|l| l.trim_start().starts_with("partitions: "))
        .expect("plan totals line");
    let nums: Vec<u64> = totals
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    let [total, pruned, open] = nums[..] else {
        panic!("unexpected totals line {totals:?}");
    };
    assert_eq!(pruned + open, total, "plan does not reconcile: {totals}");
    assert!(pruned > 0, "mid-dataset --from prunes something: {totals}");
    assert!(open > 0, "mid-dataset --from keeps something: {totals}");
    assert!(
        stdout1.contains("pruned by time_from:"),
        "pruning attributed to a zone-map dimension:\n{stdout1}"
    );

    // the post-run profile lands on stderr and agrees with the plan
    assert!(
        stderr1.contains(&format!("EXPLAIN profile: {open} partition(s) decoded")),
        "profile decode count matches the plan:\n{stderr1}"
    );
    assert!(
        stderr1.contains(&format!(
            "{total} partition(s): {pruned} pruned, {open} scanned"
        )),
        "ScanStats summary agrees with the plan:\n{stderr1}"
    );

    let _ = std::fs::remove_dir_all(&wh);
}
