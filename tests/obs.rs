//! Observability end-to-end tests: the `--stats` per-stage table, the
//! `--trace` Chrome trace-event export, and a live Prometheus scrape of
//! a running `live` loop via `--metrics-addr`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnscentral"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dnscentral-obs-{}-{name}", std::process::id()));
    p
}

#[test]
fn stats_flag_prints_stage_table() {
    let out = bin()
        .args(["dataset", "nl", "2018", "--scale=tiny", "--stats"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("== per-stage summary =="), "{text}");
    for stage in [
        "pipeline.generate",
        "pipeline.analyze",
        "simnet.generate",
        "analysis.ednssize",
        "analysis.junk",
    ] {
        assert!(text.contains(stage), "missing stage {stage}:\n{text}");
    }
}

/// A streamed run has no channel to report, so its legibility is the
/// per-worker rows: one `pipeline.worker{w}` per worker, whose records
/// add up to the `pipeline.analyze` row's.
#[test]
fn stats_flag_prints_worker_rows() {
    let out = bin()
        .args([
            "dataset",
            "nl",
            "2018",
            "--scale=tiny",
            "--stats",
            "--shards=2",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!text.contains("== queues =="), "no queue exists:\n{text}");
    // stage | calls | time | records | records/s
    let records = |stage: &str| -> u64 {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(stage))
            .unwrap_or_else(|| panic!("no {stage} row:\n{text}"));
        row.split_whitespace().nth(3).unwrap().parse().expect(row)
    };
    let analyzed = records("pipeline.analyze");
    assert!(analyzed > 0, "{text}");
    assert_eq!(
        records("pipeline.worker0") + records("pipeline.worker1"),
        analyzed,
        "{text}"
    );
    assert!(!text.contains("pipeline.worker2"), "{text}");
}

#[test]
fn trace_flag_writes_valid_chrome_events() {
    let trace = tmp("trace.json");
    let out = bin()
        .args([
            "dataset",
            "nl",
            "2018",
            "--scale=tiny",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("trace:"),
        "trace summary line on stderr"
    );

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    // every line is one complete ("X") trace event
    let mut spans: Vec<(u64, u64, u64, String)> = Vec::new(); // (tid, start, end, name)
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("line parses as JSON");
        assert_eq!(v["ph"].as_str(), Some("X"), "{line}");
        let tid = v["tid"].as_u64().expect("tid");
        let ts = v["ts"].as_u64().expect("ts");
        let dur = v["dur"].as_u64().expect("dur");
        let name = v["name"].as_str().expect("name").to_string();
        spans.push((tid, ts, ts + dur, name));
    }
    assert!(
        spans.iter().any(|s| s.3.starts_with("generate ")),
        "generate span present"
    );
    assert!(
        spans.iter().any(|s| s.3.starts_with("analyze ")),
        "analyze span present"
    );

    // per thread, spans form a laminar family: any two intervals are
    // either disjoint or properly nested (the file is start-sorted with
    // parents before children on ties)
    let mut tids: Vec<u64> = spans.iter().map(|s| s.0).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for &(t, start, end, ref name) in &spans {
            if t != tid {
                continue;
            }
            while stack.last().is_some_and(|&(_, e)| e <= start) {
                stack.pop();
            }
            if let Some(&(_, parent_end)) = stack.last() {
                assert!(
                    end <= parent_end,
                    "span {name} [{start},{end}) straddles its parent's end {parent_end}"
                );
            }
            stack.push((start, end));
        }
    }
    let _ = std::fs::remove_file(&trace);
}

fn http_get_path(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

fn http_get(addr: &str) -> std::io::Result<String> {
    http_get_path(addr, "/metrics")
}

/// Value of a `name value` exposition line, if present.
fn series_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn metrics_endpoint_serves_live_counters() {
    let cap = tmp("live-scrape.dnscap");
    let mut child = bin()
        .args([
            "live",
            "nl",
            "2020",
            cap.to_str().unwrap(),
            "--scale=tiny",
            "--seed=7",
            "--workers=2",
            "--duration=4s",
            "--metrics-addr=127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");

    // the first stdout line announces the bound endpoint
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("metrics: http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    // scrape while the loop runs until the server-side series are live
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut last_body = String::new();
    let mut ok = false;
    while Instant::now() < deadline {
        if let Ok(response) = http_get(&addr) {
            if let Some(body) = response.split("\r\n\r\n").nth(1) {
                last_body = body.to_string();
                let queries = series_value(body, "authd_server_udp_queries_total").unwrap_or(0.0);
                let latencies = series_value(body, "authd_server_latency_us_count").unwrap_or(0.0);
                if queries > 0.0 && latencies > 0.0 {
                    ok = true;
                    break;
                }
            }
        }
        if child.try_wait().expect("try_wait").is_some() {
            break; // endpoint is gone once the run ends
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        ok,
        "metrics never showed live qps/latency series; last scrape:\n{last_body}"
    );
    // the qps gauges and the latency summary are part of the exposition
    assert!(
        last_body.contains("# TYPE authd_server_qps gauge"),
        "{last_body}"
    );
    assert!(
        last_body.contains("authd_server_latency_us{quantile=\"0.99\"}"),
        "{last_body}"
    );
    assert!(
        last_body.contains("authd_loadgen_sent_total"),
        "{last_body}"
    );
    // per-worker utilization gauges register at worker start, so they
    // are part of the exposition for the whole run (--workers=2)
    for series in [
        "# TYPE authd_udp_worker0_busy_permille gauge",
        "authd_udp_worker1_busy_permille",
    ] {
        assert!(last_body.contains(series), "missing {series}:\n{last_body}");
    }

    // drain the rest of stdout so the child never blocks on a full pipe
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("stdout drains");
    let status = child.wait().expect("child exits");
    assert!(status.success(), "live run failed:\n{banner}{rest}");
    let _ = std::fs::remove_file(&cap);
}

#[test]
#[cfg(target_os = "linux")]
fn profile_endpoint_serves_folded_stacks_during_live_run() {
    let cap = tmp("profile-scrape.dnscap");
    let mut child = bin()
        .args([
            "live",
            "nl",
            "2020",
            cap.to_str().unwrap(),
            "--scale=tiny",
            "--seed=7",
            "--workers=2",
            "--duration=8s",
            "--metrics-addr=127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");

    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("metrics: http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    // bad parameters are rejected without sampling
    let response = http_get_path(&addr, "/profile?seconds=0").expect("validation response");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // a 1-second profile of the running server: the response blocks
    // for the sampling window, so allow a generous read timeout
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /profile?seconds=1 HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("profile body");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    assert!(!body.trim().is_empty(), "no samples in a busy live run");
    for line in body.trim_end().lines() {
        let (frames, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!frames.is_empty(), "{line}");
        assert!(count.parse::<u64>().unwrap() > 0, "{line}");
    }

    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("stdout drains");
    let status = child.wait().expect("child exits");
    assert!(status.success(), "live run failed:\n{banner}{rest}");
    let _ = std::fs::remove_file(&cap);
}

#[test]
fn flight_endpoint_serves_window_during_live_run() {
    let cap = tmp("flight-scrape.dnscap");
    let jsonl = tmp("flight.jsonl");
    let mut child = bin()
        .args([
            "live",
            "nl",
            "2020",
            cap.to_str().unwrap(),
            "--scale=tiny",
            "--seed=7",
            "--workers=2",
            "--duration=4s",
            "--metrics-addr=127.0.0.1:0",
            "--flight",
            jsonl.to_str().unwrap(),
            "--flight-interval=200ms",
            "--sample=16",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");

    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("metrics: http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    // scrape /flight.json mid-run until the recorder has ticked a
    // counter series with at least one point
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut last_doc = String::new();
    let mut ok = false;
    while Instant::now() < deadline {
        if let Ok(response) = http_get_path(&addr, "/flight.json") {
            if let Some(body) = response.split("\r\n\r\n").nth(1) {
                last_doc = body.to_string();
                if let Ok(doc) = serde_json::from_str::<serde_json::Value>(body) {
                    let metrics = doc["metrics"].as_array().cloned().unwrap_or_default();
                    let live = metrics.iter().any(|m| {
                        m["kind"] == "counter"
                            && m["points"].as_array().is_some_and(|p| !p.is_empty())
                    });
                    if live && doc["ticks"].as_u64().unwrap_or(0) >= 2 {
                        ok = true;
                        break;
                    }
                }
            }
        }
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        ok,
        "flight.json never served a live counter window; last doc:\n{last_doc}"
    );
    // worker utilization gauges ride along in the recorder window
    assert!(
        last_doc.contains("busy_permille"),
        "no utilization series in flight window:\n{last_doc}"
    );

    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("stdout drains");
    let out = child.wait_with_output().expect("child exits");
    assert!(out.status.success(), "live run failed:\n{banner}{rest}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flight:"), "flight summary line:\n{stderr}");

    // the JSONL dump holds the same window, one decoded point per line
    let dump = std::fs::read_to_string(&jsonl).expect("flight JSONL written");
    let mut counters = 0;
    let mut sampled_hops = 0u64;
    for line in dump.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("line parses as JSON");
        let metric = v["metric"].as_str().expect("metric name");
        match v["kind"].as_str().expect("kind") {
            "counter" => {
                counters += 1;
                let value = v["value"].as_u64().expect("counter value");
                assert!(v["rate"].as_f64().is_some(), "{line}");
                if metric == "obs_flight_sampled_hops_total" {
                    sampled_hops = sampled_hops.max(value);
                }
            }
            "gauge" => assert!(v["value"].as_f64().is_some(), "{line}"),
            "histogram" => {
                assert!(
                    v["count"].as_u64().is_some() && v["p99"].as_f64().is_some(),
                    "{line}"
                );
            }
            other => panic!("unknown series kind {other:?}: {line}"),
        }
    }
    assert!(counters > 0, "counter points in the dump:\n{dump}");
    // the deterministic 1-in-16 sampler traced queries across hops
    assert!(sampled_hops > 0, "sampled hop counter never moved:\n{dump}");
    let _ = std::fs::remove_file(&cap);
    let _ = std::fs::remove_file(&jsonl);
}
