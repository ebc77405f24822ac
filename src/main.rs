//! `dnscentral` — the command-line front end of the IMC'20 reproduction.
//!
//! ```text
//! dnscentral table1                      # Table 1 (static ground truth)
//! dnscentral generate nl 2020 out.dnscap # synthesize one dataset capture
//! dnscentral analyze  nl 2020 out.dnscap # analyze a capture
//! dnscentral dataset  nl 2020            # generate + analyze in one go
//! dnscentral ingest   nl 2020 --warehouse=wh  # ...into a columnar store
//! dnscentral qmin     nl                 # Figure 3 series + change-point
//! dnscentral report                      # every table and figure
//! dnscentral report --warehouse=wh       # the same, from stored partitions
//! dnscentral serve    nl 2020            # live authoritative on real sockets
//! dnscentral loadgen  nl 2020 --udp A --tcp B  # profile-driven load
//! dnscentral live     nl 2020 out.dnscap # serve+loadgen over loopback,
//!                                        # then analyze the live tap
//! dnscentral bench    --quick --json     # micro-benches -> BENCH_*.json
//! dnscentral help                        # full command and flag list
//! ```
//!
//! Common flags: `--scale=tiny|small|report` (default small),
//! `--seed=N` (default 42), `--shards=N` (worker threads per dataset;
//! each generates and analyzes its own slices) and `--jobs=N` (the same
//! workers, and datasets in flight for the multi-dataset commands).
//! Unset, a run uses the machine's cores; output is byte-identical for
//! any value. Value-taking flags accept both `--flag=value` and
//! `--flag value`.
//!
//! Observability flags (any command): `--stats` prints a per-stage
//! time/throughput table (and enables progress lines on long runs),
//! `--trace out.json` writes a Chrome trace-event JSONL of the run, and
//! `--metrics-addr ip:port` serves live Prometheus metrics over HTTP
//! (most useful with `serve` and `live`). `serve` and `live` print
//! periodic stats lines every `--stats-interval` (default 5s).
//! `--flight out.jsonl` runs the flight recorder (a background sampler
//! of every metric, dumped as JSONL and served at `/flight.json`),
//! `--sample N` traces 1-in-N queries across pipeline hops, and
//! `--explain` prints warehouse scan plans + a decode profile.
//!
//! The command table ([`COMMANDS`]) and flag tables ([`VALUE_FLAGS`],
//! [`BOOL_FLAGS`]) are the single source for arg normalization, the
//! usage line, and `help` — they cannot drift apart.

use dnscentral_core::dualstack::DualStackAnalysis;
use dnscentral_core::experiments::{analyze_capture_into, run_monthly_series};
use dnscentral_core::pipeline::{run_spec_with, write_capture, PipelineOpts};
use dnscentral_core::{ednssize, junk, metrics, qmin, report, store, transport};
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};
use simnet::Engine;
use std::net::IpAddr;
use std::path::Path;
use std::process::ExitCode;
use warehouse::Warehouse;

/// Counting global allocator: makes allocations a measured quantity, so
/// `dnscentral bench` reports allocs/op next to ns/op (see `obs::alloc`;
/// the per-event overhead is a few relaxed atomic adds).
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

/// Every command: `(name, argument synopsis, one-line description)`.
const COMMANDS: &[(&str, &str, &str)] = &[
    (
        "table1",
        "",
        "Table 1: the static cloud-provider ground truth",
    ),
    (
        "generate",
        "<nl|nz|broot> <year> <out.dnscap>",
        "synthesize one dataset capture",
    ),
    (
        "analyze",
        "<nl|nz|broot> <year> <capture.dnscap>",
        "analyze a capture",
    ),
    (
        "dataset",
        "<nl|nz|broot> <year>",
        "generate + analyze in one go (--json for machine output)",
    ),
    (
        "ingest",
        "<nl|nz|broot> [year]",
        "generate + analyze into a --warehouse dir (--monthly: Figure 3 series)",
    ),
    (
        "qmin",
        "[nl|nz|broot]",
        "Figure 3 monthly series + change-point detection",
    ),
    ("report", "", "every table and figure of the paper"),
    (
        "inspect",
        "<capture.dnscap>",
        "capture forensics without the scenario",
    ),
    (
        "export-pcap",
        "<in.dnscap> <out.pcap>",
        "convert a capture to libpcap for tcpdump/Wireshark",
    ),
    (
        "import-pcap",
        "<in.pcap> <out.dnscap>",
        "bring externally captured DNS traffic into the pipeline",
    ),
    (
        "analyze-pcap",
        "<in.pcap>",
        "analyze a raw pcap against the real provider ranges",
    ),
    (
        "concentration",
        "",
        "CR1/CR10/CR100, HHI, and Gini concentration indices",
    ),
    ("junk-overview", "", "B-Root valid-traffic share, 2018-2020"),
    ("experiments", "", "measured-vs-paper comparison table"),
    (
        "scenario-template",
        "<nl|nz|broot> <year>",
        "dump an editable scenario JSON",
    ),
    ("scenario", "<scenario.json>", "run a custom scenario file"),
    (
        "serve",
        "<nl|nz|broot> <year>",
        "live authoritative DNS on real sockets",
    ),
    (
        "loadgen",
        "<nl|nz|broot> <year> --udp A --tcp B",
        "closed-loop load against a running server",
    ),
    (
        "live",
        "<nl|nz|broot> <year> [out.dnscap]",
        "serve + loadgen over loopback, then analyze the tap",
    ),
    (
        "bench",
        "[--quick] [--filter=S] [--json[=path]]",
        "run the micro-benches (design-choice pairs, saturation); write BENCH_*.json",
    ),
    ("help", "", "print this command and flag reference"),
];

/// Every value-taking flag: `(name, value synopsis, description)`.
/// Drives arg normalization (`--flag value` -> `--flag=value`) and
/// `help`.
const VALUE_FLAGS: &[(&str, &str, &str)] = &[
    (
        "--scale",
        "tiny|small|medium|report",
        "dataset scale (default small)",
    ),
    ("--seed", "N", "deterministic RNG seed (default 42)"),
    (
        "--shards",
        "N",
        "pipeline worker threads per dataset (default: one per core)",
    ),
    (
        "--jobs",
        "N",
        "the same, plus datasets in flight (default: the cores, shared out) and warehouse scan threads (default 1)",
    ),
    (
        "--zone",
        "nl|nz|root",
        "analyze-pcap: zone model (default root)",
    ),
    (
        "--provider",
        "google|amazon|microsoft|facebook|cloudflare",
        "qmin: provider to track (default google)",
    ),
    (
        "--duration",
        "3s|500ms|2m",
        "serve/loadgen/live: stop after this long",
    ),
    ("--queries", "N", "loadgen/live: stop after N queries"),
    (
        "--resolvers",
        "N",
        "loadgen/live: drive N algorithmic resolver instances (fleet mode) \
         instead of the calibrated replay",
    ),
    ("--port", "N", "serve: fixed port (default ephemeral)"),
    ("--workers", "N", "loadgen/live: load worker threads"),
    (
        "--udp-workers",
        "N",
        "serve/live: UDP worker threads (socket shards)",
    ),
    ("--tcp-workers", "N", "serve/live: TCP worker threads"),
    ("--udp", "host:port", "loadgen: server UDP address"),
    ("--tcp", "host:port", "loadgen: server TCP address"),
    (
        "--out",
        "tap.dnscap",
        "serve: mirror served traffic into a capture",
    ),
    (
        "--stats-interval",
        "5s",
        "serve/live: interval between periodic stats lines (default 5s)",
    ),
    (
        "--trace",
        "out.json",
        "write a Chrome trace-event JSONL of the run",
    ),
    (
        "--metrics-addr",
        "ip:port",
        "serve live Prometheus metrics over HTTP",
    ),
    (
        "--warehouse",
        "dir",
        "columnar warehouse dir: ingest writes it; dataset/analyze/live append; \
         report/qmin/experiments scan it instead of regenerating",
    ),
    (
        "--from",
        "YYYY-MM-DD",
        "warehouse scans: inclusive start time (also raw micros)",
    ),
    (
        "--to",
        "YYYY-MM-DD",
        "warehouse scans: exclusive end time (also raw micros)",
    ),
    (
        "--partition-rows",
        "N",
        "warehouse appends: rows per partition before a flush (default 1M)",
    ),
    (
        "--partition-bytes",
        "N",
        "warehouse appends: in-memory byte budget per partition (default 64M)",
    ),
    (
        "--filter",
        "substr",
        "bench: only scenarios whose id contains substr",
    ),
    (
        "--flight",
        "flight.jsonl",
        "flight recorder: dump the retained telemetry window as JSONL on exit",
    ),
    (
        "--flight-interval",
        "1s",
        "flight recorder: metric sampling interval (default 1s)",
    ),
    (
        "--sample",
        "N",
        "trace 1-in-N queries across pipeline hops (deterministic, seeded by --seed)",
    ),
    (
        "--profile",
        "out.folded",
        "sampling CPU profiler: write flamegraph-ready folded stacks on exit \
         (bench: per-scenario profiles, merged into one file)",
    ),
];

/// Every boolean flag: `(name, description)`. `--json` doubles as
/// `--json=path` for `bench`, so it is listed here, not in
/// [`VALUE_FLAGS`] (a bare `--json` must not swallow the next arg).
const BOOL_FLAGS: &[(&str, &str)] = &[
    (
        "--keep-capture",
        "dataset/scenario: keep the intermediate capture file",
    ),
    (
        "--fleet",
        "every generating command (generate, dataset, scenario, ingest, report, \
         qmin, experiments, concentration, junk-overview): generate with the \
         algorithmic resolver fleet (emergent signatures) instead of the \
         calibrated sampler",
    ),
    ("--stats", "print the per-stage time/throughput table"),
    (
        "--json",
        "dataset: JSON output; bench: write BENCH_<label>.json (or --json=path)",
    ),
    ("--quick", "bench: reduced samples"),
    ("--list", "bench: list scenario ids and exit"),
    (
        "--monthly",
        "ingest: the 18-month Figure 3 series instead of one dataset",
    ),
    (
        "--explain",
        "warehouse scans: print the scan plan, then a post-run decode profile",
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = match normalize_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (flags, positional): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));

    // observability flags apply to every command
    let trace_path = flag_value(&flags, "--trace").map(std::path::PathBuf::from);
    if trace_path.is_some() {
        obs::trace::enable();
    }
    let want_stats = flags.iter().any(|f| *f == "--stats");
    if want_stats {
        obs::stage::set_progress(true);
    }
    let metrics_server = match flag_value(&flags, "--metrics-addr") {
        Some(addr) => {
            let addr: std::net::SocketAddr = match addr.parse() {
                Ok(a) => a,
                Err(_) => {
                    eprintln!("--metrics-addr takes ip:port, got {addr:?}");
                    return ExitCode::FAILURE;
                }
            };
            match obs::prom::serve(addr) {
                Ok(server) => {
                    println!("metrics: http://{}/metrics", server.addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("cannot bind metrics endpoint {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let flight_path = flag_value(&flags, "--flight").map(std::path::PathBuf::from);
    let flight_on = flight_path.is_some() || flag_value(&flags, "--flight-interval").is_some();
    if flight_on {
        let interval = match flag_value(&flags, "--flight-interval") {
            Some(v) => match parse_duration(v) {
                Ok(d) if !d.is_zero() => d,
                Ok(_) => {
                    eprintln!("--flight-interval must be positive");
                    return ExitCode::FAILURE;
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            },
            None => obs::flight::DEFAULT_INTERVAL,
        };
        obs::flight::start(interval);
    }
    if let Some(n) = flag_value(&flags, "--sample") {
        let n: u64 = match n.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--sample takes a positive integer, got {n:?}");
                return ExitCode::FAILURE;
            }
        };
        let seed: u64 = flag_value(&flags, "--seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        obs::flight::enable_sampling(n, seed);
    }
    if flags.iter().any(|f| *f == "--explain") {
        warehouse::explain::enable();
    }
    // `bench` profiles per scenario inside bench_cli; every other
    // command gets one profile spanning the whole run
    let profile_path = flag_value(&flags, "--profile").map(std::path::PathBuf::from);
    let whole_run_profile =
        profile_path.is_some() && positional.first().map(|s| s.as_str()) != Some("bench");
    if whole_run_profile {
        if !obs::prof::supported() {
            eprintln!("profile: CPU sampling unsupported on this platform; output will be empty");
        }
        if let Err(e) = obs::prof::start(obs::prof::DEFAULT_HZ) {
            eprintln!("profile: {e}");
            return ExitCode::FAILURE;
        }
    }

    let code = match run_command(&flags, &positional) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    };

    if whole_run_profile {
        if let Some(profile) = obs::prof::stop() {
            let path = profile_path.as_ref().expect("profile path parsed above");
            if let Err(e) = std::fs::write(path, profile.folded()) {
                eprintln!("profile: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "profile: {} samples ({} lost) over {:.1}s -> {}",
                profile.samples,
                profile.lost,
                profile.duration.as_secs_f64(),
                path.display()
            );
        }
    }

    if flight_on {
        obs::flight::stop();
    }
    if let Some(path) = flight_path {
        match obs::flight::recorder()
            .expect("recorder started")
            .write_jsonl_file(&path)
        {
            Ok(n) => eprintln!("flight: {n} series -> {}", path.display()),
            Err(e) => {
                eprintln!("flight: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if want_stats {
        let table = obs::stage::render_table();
        if !table.is_empty() {
            print!("{table}");
        }
        let scans = render_scan_counters();
        if !scans.is_empty() {
            print!("{scans}");
        }
        let fleet_cache = render_fleet_cache();
        if !fleet_cache.is_empty() {
            print!("{fleet_cache}");
        }
        let queues = render_queue_gauges();
        if !queues.is_empty() {
            print!("{queues}");
        }
    }
    if let Some(path) = trace_path {
        match obs::trace::write_jsonl_file(&path) {
            Ok(n) => eprintln!("trace: {n} spans -> {}", path.display()),
            Err(e) => {
                eprintln!("trace: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    drop(metrics_server); // keep the endpoint up until the very end
    code
}

/// Parse + dispatch one command; `Err` is a user-facing message.
fn run_command(flags: &[&String], positional: &[&String]) -> Result<ExitCode, String> {
    let scale = match flag_value(flags, "--scale").unwrap_or("small") {
        "tiny" => Scale::tiny(),
        "small" => Scale::small(),
        "medium" => Scale::medium(),
        "report" => Scale::report(),
        other => {
            return Err(format!(
                "unknown scale {other:?} (tiny|small|medium|report)"
            ))
        }
    };
    let seed: u64 = parsed_flag(flags, "--seed", "an integer")?.unwrap_or(42);
    // an absent count is unset (0 from here on): the pipeline then
    // sizes itself to the machine
    let count = |flag: &str| match parsed_flag(flags, flag, "a worker-thread count")? {
        Some(0usize) => Err(format!("{flag} must be at least 1")),
        given => Ok(given.unwrap_or(0)),
    };
    let (shards, jobs) = (count("--shards")?, count("--jobs")?);
    // the one pipeline description every generating command runs under;
    // either flag sizes its workers
    let opts = PipelineOpts {
        workers: shards.max(jobs),
        fleet: flags.iter().any(|f| *f == "--fleet"),
        ..PipelineOpts::default()
    };
    // --keep-capture: the capture stays in the cwd, named after the dataset
    let keep_capture = flags.iter().any(|f| *f == "--keep-capture");
    let opts_for = |id: &str| PipelineOpts {
        keep_capture: keep_capture.then(|| std::path::PathBuf::from(format!("{id}.dnscap"))),
        ..opts.clone()
    };

    match positional.first().map(|s| s.as_str()) {
        Some("table1") => print!("{}", report::render_table1()),
        Some("generate") => {
            let (vantage, year, path) = dataset_args(positional)?;
            let spec = dataset(vantage, year);
            let engine = Engine::new(spec.clone(), scale, seed);
            let stats = write_capture(&engine, Path::new(path), &opts).expect("capture generation");
            println!(
                "{}: {} queries ({} tcp, {} truncated, {} junk) -> {path}",
                spec.id(),
                stats.queries,
                stats.tcp_queries,
                stats.truncated_udp,
                stats.junk_queries
            );
        }
        Some("analyze") => {
            let (vantage, year, path) = dataset_args(positional)?;
            let spec = dataset(vantage, year);
            analyze_cli(&spec, scale, seed, Path::new(path), flags)?;
        }
        Some("dataset") => {
            let (vantage, year) = vantage_year(positional)?;
            let spec = dataset(vantage, year);
            let opts = opts_for(&spec.id());
            let run = match open_warehouse(flags)? {
                Some(wh) => {
                    let run =
                        store::ingest_spec(&wh, spec, scale, seed, &opts, append_config(flags)?)?;
                    let committed = wh.commit().map_err(|e| e.to_string())?;
                    eprintln!("[warehouse: {committed} new partition(s)]");
                    run
                }
                None => run_spec_with(spec, scale, seed, &opts),
            };
            if let Some(p) = &opts.keep_capture {
                eprintln!("[capture kept at {}]", p.display());
            }
            if flags.iter().any(|f| *f == "--json") {
                let doc = report::dataset_json(&run.id, &run.analysis);
                println!(
                    "{}",
                    serde_json::to_string_pretty(&doc).expect("serializes")
                );
            } else {
                print_dataset_report(&run.id, vantage, &run.analysis, &run.dualstack, &run.spec);
            }
        }
        Some("ingest") => {
            let wh = open_warehouse(flags)?.ok_or("ingest requires --warehouse=dir")?;
            let dir = flag_value(flags, "--warehouse").expect("flag present");
            let config = append_config(flags)?;
            let vantage =
                parse_vantage(positional.get(1).ok_or("vantage required (nl|nz|broot)")?)?;
            if flags.iter().any(|f| *f == "--monthly") {
                let provider = parse_provider(flags)?;
                let runs = store::ingest_monthly(
                    &wh, vantage, provider, scale, seed, &opts, config, jobs,
                )?;
                let committed = wh.commit().map_err(|e| e.to_string())?;
                let rows: u64 = runs.iter().map(|r| r.ingest_stats.rows).sum();
                println!(
                    "{} monthly sources, {rows} row(s) -> {committed} new partition(s) in {dir}",
                    runs.len()
                );
            } else {
                let year_str = positional
                    .get(2)
                    .ok_or("year required (2018|2019|2020), or --monthly")?;
                let year: u16 = year_str
                    .parse()
                    .map_err(|_| format!("year must be a number, got {year_str:?}"))?;
                let spec = dataset(vantage, year);
                let opts = opts_for(&spec.id());
                let run = store::ingest_spec(&wh, spec, scale, seed, &opts, config)?;
                let committed = wh.commit().map_err(|e| e.to_string())?;
                println!(
                    "{}: {} row(s) -> {committed} new partition(s) in {dir}",
                    run.id, run.ingest_stats.rows
                );
            }
        }
        Some("qmin") => {
            let vantage = parse_vantage(positional.get(1).map(|s| s.as_str()).unwrap_or("nl"))?;
            let provider = parse_provider(flags)?;
            let series = match open_warehouse(flags)? {
                Some(wh) => {
                    let (series, stats) = store::monthly_series(&wh, vantage, provider, jobs)?;
                    print_explain(&stats);
                    eprintln!("[warehouse: {}]", stats.summary());
                    series
                }
                None => run_monthly_series(vantage, provider, scale, seed, &opts, jobs),
            };
            let detected = qmin::detect_cusum(&series, 0.05, 0.3);
            print!(
                "{}",
                report::render_fig3(
                    &format!("{} ({provider})", vantage.label()),
                    &series,
                    detected
                )
            );
        }
        Some("report") => match open_warehouse(flags)? {
            Some(wh) => {
                let pred = scan_predicate(flags)?;
                if flags.iter().any(|f| *f == "--json") {
                    let (doc, stats) = store::report_json(&wh, &pred, jobs)?;
                    print_explain(&stats);
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&doc).expect("serializes")
                    );
                    eprintln!("[warehouse: {}]", stats.summary());
                } else {
                    let (text, stats) = store::render_report(&wh, &pred, jobs)?;
                    print_explain(&stats);
                    print!("{text}");
                    eprintln!("[warehouse: {}]", stats.summary());
                }
            }
            None => print!("{}", report::render_full_report(scale, seed, &opts, jobs)),
        },
        Some("inspect") => {
            let path = positional
                .get(1)
                .ok_or("usage: dnscentral inspect <capture.dnscap>")?;
            inspect_capture(Path::new(path.as_str()));
        }
        Some("export-pcap") => {
            let [input, output] = two_paths(positional, "export-pcap <in.dnscap> <out.pcap>")?;
            export_pcap(Path::new(input), Path::new(output));
        }
        Some("analyze-pcap") => {
            let input = positional
                .get(1)
                .ok_or("usage: dnscentral analyze-pcap <in.pcap> [--zone=nl|nz|root]")?;
            let zone = match flag_value(flags, "--zone").unwrap_or("root") {
                "nl" => zonedb::zone::ZoneModel::nl(5_900_000),
                "nz" => zonedb::zone::ZoneModel::nz(141_000, 569_000),
                "root" => zonedb::zone::ZoneModel::root(1514),
                other => return Err(format!("unknown zone {other:?} (nl|nz|root)")),
            };
            analyze_external_pcap(Path::new(input.as_str()), zone);
        }
        Some("import-pcap") => {
            let [input, output] = two_paths(positional, "import-pcap <in.pcap> <out.dnscap>")?;
            import_pcap_cli(Path::new(input), Path::new(output));
        }
        Some("concentration") => {
            let specs = [Vantage::Nl, Vantage::Nz, Vantage::BRoot]
                .into_iter()
                .map(|v| dataset(v, 2020))
                .collect();
            let reports: Vec<_> = dnscentral_core::run_suite(specs, scale, seed, &opts, jobs)
                .iter()
                .map(|run| dnscentral_core::concentration::concentration(&run.id, &run.analysis))
                .collect();
            print!("{}", report::render_concentration(&reports));
        }
        Some("scenario-template") => {
            let (vantage, year) = vantage_year(positional)?;
            let mut spec = dataset(vantage, year);
            // materialize the fleet list so every knob is editable
            spec.fleets_override = Some(spec.fleets());
            println!(
                "{}",
                serde_json::to_string_pretty(&spec).expect("serializes")
            );
        }
        Some("scenario") => {
            let path = positional
                .get(1)
                .ok_or("usage: dnscentral scenario <scenario.json>")?;
            let text = std::fs::read_to_string(path).expect("scenario file reads");
            let spec: simnet::scenario::DatasetSpec =
                serde_json::from_str(&text).expect("valid scenario JSON");
            let vantage = spec.vantage;
            let opts = opts_for(&spec.id());
            let run = run_spec_with(spec, scale, seed, &opts);
            if let Some(p) = &opts.keep_capture {
                eprintln!("[capture kept at {}]", p.display());
            }
            print_dataset_report(&run.id, vantage, &run.analysis, &run.dualstack, &run.spec);
        }
        Some("experiments") => {
            let rows = match open_warehouse(flags)? {
                Some(wh) => {
                    let (rows, stats) = store::compare(&wh, jobs)?;
                    print_explain(&stats);
                    eprintln!("[warehouse: {}]", stats.summary());
                    rows
                }
                None => dnscentral_core::paper::compare_with(scale, seed, &opts, jobs),
            };
            print!("{}", dnscentral_core::paper::render_markdown(&rows));
        }
        Some("junk-overview") => {
            let specs = [2018u16, 2019, 2020]
                .into_iter()
                .map(|year| dataset(Vantage::BRoot, year))
                .collect();
            let measured: Vec<_> = dnscentral_core::run_suite(specs, scale, seed, &opts, jobs)
                .iter()
                .map(|run| (run.spec.year, run.analysis.valid_fraction()))
                .collect();
            print!("{}", report::render_junk_overview(&measured));
        }
        Some("serve") => {
            let (vantage, year) = vantage_year(positional)?;
            return serve_cli(vantage, year, flags);
        }
        Some("loadgen") => {
            let (vantage, year) = vantage_year(positional)?;
            return loadgen_cli(vantage, year, scale, seed, flags);
        }
        Some("live") => {
            let (vantage, year) = vantage_year(positional)?;
            let out = positional
                .get(3)
                .map(|s| s.as_str())
                .unwrap_or("live.dnscap");
            return live_cli(vantage, year, scale, seed, out, flags);
        }
        Some("bench") => return bench_cli(flags),
        Some("help") => print!("{}", render_help()),
        _ => return Err(usage_line()),
    }
    Ok(ExitCode::SUCCESS)
}

/// Flush buffered `--explain` output after a warehouse scan: the
/// per-source plan trees to stdout (buffered + sorted by source, so
/// the bytes are identical for any `--jobs`), then the run-variable
/// decode profile to stderr.
fn print_explain(stats: &warehouse::ScanStats) {
    if !warehouse::explain::enabled() {
        return;
    }
    for (_, text) in warehouse::explain::take_plans() {
        print!("{text}");
    }
    eprint!(
        "{}",
        warehouse::explain::render_profile(&warehouse::explain::take(), stats)
    );
}

/// The warehouse-scan counter summary printed under the `--stats`
/// stage table; empty until a scan has actually run in this process.
fn render_scan_counters() -> String {
    let read = |name: &str, help: &str| obs::counter(name, help).get();
    let pruned = read(
        "warehouse_partitions_pruned_total",
        "partitions skipped via zone maps before reading any column bytes",
    );
    let scanned = read(
        "warehouse_partitions_scanned_total",
        "partition files read and decoded by scans",
    );
    let corrupt = read(
        "warehouse_partitions_corrupt_total",
        "partition files skipped by scans after CRC/decode failure",
    );
    let rows = read(
        "warehouse_rows_scanned_total",
        "rows decoded from partition files by scans",
    );
    if pruned + scanned + corrupt == 0 {
        return String::new();
    }
    format!(
        "== warehouse scans ==\n\
         {:<20} {pruned:>12}\n\
         {:<20} {scanned:>12}\n\
         {:<20} {corrupt:>12}\n\
         {:<20} {rows:>12}\n",
        "partitions pruned", "partitions scanned", "partitions corrupt", "rows scanned"
    )
}

/// The sampled value of the gauge or counter called `name`.
fn sampled(samples: &[(String, obs::SampleValue)], name: &str) -> Option<f64> {
    samples.iter().find_map(|(n, v)| match v {
        obs::SampleValue::Gauge(v) if n == name => Some(*v),
        obs::SampleValue::Counter(v) if n == name => Some(*v as f64),
        _ => None,
    })
}

/// The queue-depth summary printed under the `--stats` stage table:
/// one row per registered `QueueDepth` (depth at last observation plus
/// high-water mark); empty when nothing registered a bounded queue.
fn render_queue_gauges() -> String {
    let samples = obs::Registry::global().sample();
    let mut rows = String::new();
    for (name, value) in &samples {
        let Some(prefix) = name.strip_suffix("_queue_peak") else {
            continue;
        };
        let obs::SampleValue::Gauge(peak) = value else {
            continue;
        };
        let depth = sampled(&samples, &format!("{prefix}_queue_depth")).unwrap_or(0.0);
        rows.push_str(&format!(
            "{prefix:<28} {:>8} {:>8}\n",
            depth as u64, *peak as u64
        ));
    }
    if rows.is_empty() {
        return String::new();
    }
    format!(
        "== queues ==\n{:<28} {:>8} {:>8}\n{rows}",
        "queue", "depth", "peak"
    )
}

/// The fleet-cache summary printed under the `--stats` stage table;
/// empty unless a resolver fleet ran in this process.
fn render_fleet_cache() -> String {
    let samples = obs::Registry::global().sample();
    let value_of = |name: &str| sampled(&samples, name);
    let Some(entries) = value_of("resolver_fleet_cache_entries") else {
        return String::new();
    };
    format!(
        "== fleet cache ==\n\
         {:<20} {:>12.3}\n\
         {:<20} {:>12}\n\
         {:<20} {:>12}\n",
        "hit ratio",
        value_of("resolver_fleet_cache_hit_ratio").unwrap_or(0.0),
        "entries",
        entries as u64,
        "evictions",
        value_of("resolver_fleet_cache_evictions_total").unwrap_or(0.0) as u64,
    )
}

/// The resolver-level line of a fleet run's closing report.
fn fleet_line(resolvers: usize, fleet: &authd::FleetgenReport) -> String {
    format!(
        "fleet  | resolvers {} cache-hit {:.3} stimuli {} retries {} timeouts {} cache-entries {} evictions {}",
        resolvers,
        fleet.cache_hit_ratio,
        fleet.stimuli,
        fleet.resolver_retries,
        fleet.resolver_timeouts,
        fleet.cache_entries,
        fleet.cache_evictions
    )
}

/// Two required positional path arguments (friendly usage on absence).
fn two_paths<'a>(positional: &[&'a String], usage: &str) -> Result<[&'a str; 2], String> {
    match (positional.get(1), positional.get(2)) {
        (Some(a), Some(b)) => Ok([a.as_str(), b.as_str()]),
        _ => Err(format!("usage: dnscentral {usage}")),
    }
}

/// Parse a value-taking flag with a friendly error instead of a panic.
fn parsed_flag<T: std::str::FromStr>(
    flags: &[&String],
    name: &str,
    what: &str,
) -> Result<Option<T>, String> {
    match flag_value(flags, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name} takes {what}, got {v:?}")),
    }
}

/// Live authoritative server on real sockets until SIGINT (or
/// `--duration`); `--out tap.dnscap` mirrors served traffic.
fn serve_cli(vantage: Vantage, year: u16, flags: &[&String]) -> Result<ExitCode, String> {
    let spec = dataset(vantage, year);
    let mut config = authd::ServerConfig::for_spec(&spec);
    if let Some(port) = parsed_flag::<u16>(flags, "--port", "a port number")? {
        config.bind = std::net::SocketAddr::new(IpAddr::from([127, 0, 0, 1]), port);
    }
    if let Some(n) = parsed_flag(flags, "--udp-workers", "a count")? {
        config.udp_workers = n;
    }
    if let Some(n) = parsed_flag(flags, "--tcp-workers", "a count")? {
        config.tcp_workers = n;
    }
    if let Some(path) = flag_value(flags, "--out") {
        config.tap = Some(authd::Tap::create(Path::new(path)).expect("tap creates"));
    }
    let duration = flag_value(flags, "--duration")
        .map(parse_duration)
        .transpose()?;
    let interval = flag_value(flags, "--stats-interval")
        .map(parse_duration)
        .transpose()?
        .unwrap_or(std::time::Duration::from_secs(5));

    authd::signal::install();
    let server = authd::Server::start(config).expect("server starts");
    println!(
        "{} serving on udp {} / tcp {} (Ctrl-C to drain)",
        spec.id(),
        server.udp_addr(),
        server.tcp_addr()
    );
    let started = std::time::Instant::now();
    let mut since_print = std::time::Duration::ZERO;
    let step = std::time::Duration::from_millis(100);
    let qps_gauge = obs::gauge("authd_server_qps", "server-side queries per second");
    loop {
        if authd::signal::triggered() || duration.is_some_and(|d| started.elapsed() >= d) {
            break;
        }
        std::thread::sleep(step);
        since_print += step;
        let snap = server.stats().snapshot(started.elapsed().as_secs_f64());
        qps_gauge.set(snap.qps);
        if since_print >= interval {
            since_print = std::time::Duration::ZERO;
            eprintln!("{snap}");
        }
    }
    let snap = server.stats().snapshot(started.elapsed().as_secs_f64());
    let records = server.shutdown().expect("drain flushes");
    println!("final: {snap}");
    if records > 0 {
        println!("capture: {records} records flushed");
    }
    Ok(ExitCode::SUCCESS)
}

/// Closed-loop load against an already-running server
/// (`--udp addr --tcp addr`, from `dnscentral serve`'s banner).
fn loadgen_cli(
    vantage: Vantage,
    year: u16,
    scale: Scale,
    seed: u64,
    flags: &[&String],
) -> Result<ExitCode, String> {
    let spec = dataset(vantage, year);
    let udp = parsed_flag(flags, "--udp", "host:port")?.ok_or("--udp server address required")?;
    let tcp = parsed_flag(flags, "--tcp", "host:port")?.ok_or("--tcp server address required")?;
    let mut config = authd::LoadgenConfig::new(spec, scale, seed, udp, tcp);
    if let Some(n) = parsed_flag(flags, "--workers", "a count")? {
        config.workers = n;
    }
    config.max_queries = parsed_flag(flags, "--queries", "a count")?;
    config.duration = flag_value(flags, "--duration")
        .map(parse_duration)
        .transpose()?;
    if config.max_queries.is_none() && config.duration.is_none() {
        config.max_queries = Some(10_000);
    }
    config.resolvers = parsed_flag(flags, "--resolvers", "a count")?;

    authd::signal::install();
    let stats = authd::Stats::new();
    let report = authd::run_loadgen(&config, &stats).expect("loadgen runs");
    println!("{}", stats.snapshot(report.elapsed.as_secs_f64()));
    if let (Some(resolvers), Some(fleet)) = (config.resolvers, report.fleet) {
        println!("{}", fleet_line(resolvers, &fleet));
    }
    println!(
        "sent {} received {} timeouts {} tcp-fallbacks {} in {:.2}s",
        report.sent,
        report.received,
        report.timeouts,
        report.tcp_fallbacks,
        report.elapsed.as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

/// Serve + loadgen over loopback, seal the tap, then run the standard
/// offline analysis on the live capture.
fn live_cli(
    vantage: Vantage,
    year: u16,
    scale: Scale,
    seed: u64,
    out: &str,
    flags: &[&String],
) -> Result<ExitCode, String> {
    let spec = dataset(vantage, year);
    let mut config =
        authd::LiveConfig::new(spec.clone(), scale, seed, Path::new(out).to_path_buf());
    if let Some(n) = parsed_flag(flags, "--workers", "a count")? {
        config.loadgen_workers = n;
    }
    if let Some(n) = parsed_flag(flags, "--udp-workers", "a count")? {
        config.udp_workers = n;
    }
    if let Some(n) = parsed_flag(flags, "--tcp-workers", "a count")? {
        config.tcp_workers = n;
    }
    if let Some(q) = parsed_flag(flags, "--queries", "a count")? {
        config.max_queries = Some(q);
    }
    if let Some(d) = flag_value(flags, "--duration") {
        config.duration = Some(parse_duration(d)?);
        config.max_queries = parsed_flag(flags, "--queries", "a count")?;
    }
    config.stats_interval = flag_value(flags, "--stats-interval")
        .map(parse_duration)
        .transpose()?;
    config.resolvers = parsed_flag(flags, "--resolvers", "a count")?;

    authd::signal::install();
    let report = authd::run_live(&config).expect("live loop runs");
    println!(
        "live: sent {} ({} tcp-fallbacks, {} timeouts), served {} ({} udp / {} tcp), \
         {} capture records -> {out}",
        report.loadgen.sent,
        report.loadgen.tcp_fallbacks,
        report.loadgen.timeouts,
        report.server.queries(),
        report.server.udp_queries,
        report.server.tcp_queries,
        report.records
    );
    println!("serve  | {}", report.server);
    println!("loadgen| {}", report.client);
    if let Some(fleet) = &report.fleet {
        println!("{}", fleet_line(config.resolvers.unwrap_or(0), fleet));
    }
    if report.records == 0 {
        eprintln!("live run produced an empty capture");
        return Ok(ExitCode::FAILURE);
    }

    analyze_cli(&spec, scale, seed, Path::new(out), flags)?;
    Ok(ExitCode::SUCCESS)
}

/// Analyze a capture file — generated, or tapped off a live run — in
/// one pass: the dataset report, the ingest accounting line and, under
/// `--warehouse`, the same rows committed to the store.
fn analyze_cli(
    spec: &simnet::scenario::DatasetSpec,
    scale: Scale,
    seed: u64,
    path: &Path,
    flags: &[&String],
) -> Result<(), String> {
    let wh = open_warehouse(flags)?;
    let target = match &wh {
        Some(wh) => Some(store::register(
            wh,
            &spec.id(),
            spec,
            scale,
            seed,
            append_config(flags)?,
        )?),
        None => None,
    };
    let (analysis, dualstack, ingest) =
        analyze_capture_into(spec, scale, seed, path, target.as_ref())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    print_dataset_report(&spec.id(), spec.vantage, &analysis, &dualstack, spec);
    eprintln!(
        "[ingest: {} frames, {} malformed, {} unanswered, {} capture errors]",
        ingest.frames, ingest.malformed, ingest.unanswered_queries, ingest.capture_errors
    );
    if let Some(wh) = wh {
        let committed = wh.commit().map_err(|e| e.to_string())?;
        eprintln!(
            "[warehouse: {} row(s) -> {committed} new partition(s)]",
            ingest.rows
        );
    }
    Ok(())
}

/// Rewrite `--flag value` as `--flag=value` for the known value-taking
/// flags, so both spellings work, and refuse a flag neither table
/// knows (a misspelt one would otherwise run with the default).
fn normalize_args(raw: Vec<String>) -> Result<Vec<String>, String> {
    let mut out = Vec::with_capacity(raw.len());
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if VALUE_FLAGS.iter().any(|(name, _, _)| *name == arg) {
            match it.next() {
                Some(value) => out.push(format!("{arg}={value}")),
                None => return Err(format!("flag {arg} requires a value")),
            }
            continue;
        }
        if arg.starts_with("--") {
            let name = arg.split_once('=').map_or(arg.as_str(), |(name, _)| name);
            let known = VALUE_FLAGS.iter().any(|(n, _, _)| *n == name)
                || BOOL_FLAGS.iter().any(|(n, _)| *n == name);
            if !known {
                return Err(format!(
                    "unknown flag {name} — run `dnscentral help` for the flags"
                ));
            }
        }
        out.push(arg);
    }
    Ok(out)
}

/// The one-line usage error, generated from [`COMMANDS`].
fn usage_line() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _, _)| *name).collect();
    format!(
        "usage: dnscentral <{}> [args] [flags] — run `dnscentral help` for the full reference",
        names.join("|")
    )
}

/// The `help` command: every command and flag, from the same tables
/// the parser uses.
fn render_help() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "dnscentral — reproduction of \"Clouding up the Internet\" (IMC 2020)\n\n\
         usage: dnscentral <command> [args] [flags]\n\ncommands:"
    )
    .expect("string write");
    for (name, args, desc) in COMMANDS {
        let synopsis = if args.is_empty() {
            (*name).to_string()
        } else {
            format!("{name} {args}")
        };
        writeln!(out, "  {synopsis:<52} {desc}").expect("string write");
    }
    writeln!(
        out,
        "\nvalue flags (both `--flag=value` and `--flag value` work):"
    )
    .expect("string write");
    for (name, value, desc) in VALUE_FLAGS {
        let synopsis = format!("{name}={value}");
        writeln!(out, "  {synopsis:<52} {desc}").expect("string write");
    }
    writeln!(out, "\nboolean flags:").expect("string write");
    for (name, desc) in BOOL_FLAGS {
        writeln!(out, "  {name:<52} {desc}").expect("string write");
    }
    out
}

/// `dnscentral bench`: run the scenario registry under
/// `obs::bench::Runner`, print the results table, and optionally write
/// a `BENCH_<label>.json` report.
fn bench_cli(flags: &[&String]) -> Result<ExitCode, String> {
    use obs::bench::{default_label, BenchReport, Runner};

    let quick = flags.iter().any(|f| *f == "--quick");
    let filter = flag_value(flags, "--filter");
    let scenarios: Vec<bench::scenarios::Scenario> = bench::scenarios::all()
        .into_iter()
        .filter(|s| match filter {
            Some(f) => s.id().contains(f),
            None => true,
        })
        .collect();
    if flags.iter().any(|f| *f == "--list") {
        for s in &scenarios {
            println!("{}", s.id());
        }
        return Ok(ExitCode::SUCCESS);
    }
    if scenarios.is_empty() {
        return Err(format!(
            "no bench scenarios match --filter={}",
            filter.unwrap_or("")
        ));
    }

    let runner = if quick {
        Runner::quick()
    } else {
        Runner::full()
    };
    let label = default_label();
    let mut report = BenchReport::new(&label, quick);
    // --profile: one profiler session per scenario so each report row
    // carries its own hot frames; the folded file merges all of them.
    let profile_path = flag_value(flags, "--profile").map(std::path::PathBuf::from);
    if profile_path.is_some() && !obs::prof::supported() {
        eprintln!("bench: CPU sampling unsupported on this platform; profile will be empty");
    }
    let mut merged = obs::prof::Profile::default();
    for s in scenarios {
        eprintln!("bench: running {}", s.id());
        let mut prepared = (s.setup)();
        if profile_path.is_some() {
            obs::prof::start(obs::prof::BENCH_HZ).map_err(|e| format!("bench profile: {e}"))?;
        }
        let mut row = runner.run(
            &s.id(),
            s.group,
            prepared.records_per_iter,
            &mut prepared.iter,
        );
        if profile_path.is_some() {
            if let Some(profile) = obs::prof::stop() {
                row.hot_frames = Some(profile.hot_frames(5));
                merged.merge(profile);
            }
        }
        report.scenarios.push(row);
    }
    print!("{}", report.render_table());
    if let Some(path) = &profile_path {
        std::fs::write(path, merged.folded())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "bench: profile {} samples ({} lost) -> {}",
            merged.samples,
            merged.lost,
            path.display()
        );
    }

    // `--json=path` writes there; bare `--json` names the file after
    // the run label, extending the BENCH_* trajectory.
    let json_path = match flag_value(flags, "--json") {
        Some(path) => Some(std::path::PathBuf::from(path)),
        None if flags.iter().any(|f| *f == "--json") => {
            Some(std::path::PathBuf::from(format!("BENCH_{label}.json")))
        }
        None => None,
    };
    if let Some(path) = &json_path {
        report
            .save(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("bench: report -> {}", path.display());
    }

    Ok(ExitCode::SUCCESS)
}

/// Parse `3s`, `500ms`, `2m`, or bare seconds.
fn parse_duration(s: &str) -> Result<std::time::Duration, String> {
    let parse_num = |v: &str, unit: &str| -> Result<f64, String> {
        v.parse()
            .map_err(|_| format!("bad duration {s:?} (want e.g. 3{unit})"))
    };
    let secs = if let Some(ms) = s.strip_suffix("ms") {
        parse_num(ms, "ms")? / 1000.0
    } else if let Some(m) = s.strip_suffix('m') {
        parse_num(m, "m")? * 60.0
    } else if let Some(secs) = s.strip_suffix('s') {
        parse_num(secs, "s")?
    } else {
        parse_num(s, "s")?
    };
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("bad duration {s:?} (must be non-negative)"));
    }
    Ok(std::time::Duration::from_secs_f64(secs))
}

fn flag_value<'a>(flags: &'a [&'a String], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
}

/// Open the warehouse named by `--warehouse=dir`, if any.
fn open_warehouse(flags: &[&String]) -> Result<Option<std::sync::Arc<Warehouse>>, String> {
    match flag_value(flags, "--warehouse") {
        None => Ok(None),
        Some(dir) => Warehouse::open(Path::new(dir))
            .map(|wh| Some(std::sync::Arc::new(wh)))
            .map_err(|e| e.to_string()),
    }
}

/// Appender tuning from `--partition-rows` / `--partition-bytes`.
fn append_config(flags: &[&String]) -> Result<warehouse::AppendConfig, String> {
    let mut config = warehouse::AppendConfig::default();
    if let Some(n) = parsed_flag(flags, "--partition-rows", "a row count")? {
        if n == 0 {
            return Err("--partition-rows must be at least 1".to_string());
        }
        config.max_rows = n;
    }
    if let Some(n) = parsed_flag(flags, "--partition-bytes", "a byte budget")? {
        if n == 0 {
            return Err("--partition-bytes must be at least 1".to_string());
        }
        config.max_bytes = n;
    }
    Ok(config)
}

/// The pushdown predicate from `--from` / `--to`.
fn scan_predicate(flags: &[&String]) -> Result<warehouse::Predicate, String> {
    let mut pred = warehouse::Predicate::all();
    pred.from = flag_value(flags, "--from")
        .map(parse_sim_time)
        .transpose()?;
    pred.to = flag_value(flags, "--to").map(parse_sim_time).transpose()?;
    Ok(pred)
}

/// Parse a scan bound: `YYYY-MM-DD`, or raw simulation microseconds.
fn parse_sim_time(s: &str) -> Result<netbase::time::SimTime, String> {
    let parts: Vec<&str> = s.split('-').collect();
    if parts.len() == 3 {
        let bad = || format!("bad date {s:?} (want YYYY-MM-DD)");
        let year: i32 = parts[0].parse().map_err(|_| bad())?;
        let month: u32 = parts[1].parse().map_err(|_| bad())?;
        let day: u32 = parts[2].parse().map_err(|_| bad())?;
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(bad());
        }
        Ok(netbase::time::SimTime::from_date(year, month, day))
    } else {
        s.parse::<u64>()
            .map(netbase::time::SimTime)
            .map_err(|_| format!("bad time {s:?} (want YYYY-MM-DD or microseconds)"))
    }
}

/// The `--provider` flag (default google).
fn parse_provider(flags: &[&String]) -> Result<asdb::cloud::Provider, String> {
    match flag_value(flags, "--provider") {
        None | Some("google") => Ok(asdb::cloud::Provider::Google),
        Some("amazon") => Ok(asdb::cloud::Provider::Amazon),
        Some("microsoft") => Ok(asdb::cloud::Provider::Microsoft),
        Some("facebook") => Ok(asdb::cloud::Provider::Facebook),
        Some("cloudflare") => Ok(asdb::cloud::Provider::Cloudflare),
        Some(other) => Err(format!(
            "unknown provider {other:?} (google|amazon|microsoft|facebook|cloudflare)"
        )),
    }
}

fn parse_vantage(s: &str) -> Result<Vantage, String> {
    match s {
        "nl" => Ok(Vantage::Nl),
        "nz" => Ok(Vantage::Nz),
        "broot" | "b-root" => Ok(Vantage::BRoot),
        other => Err(format!("unknown vantage {other:?} (nl|nz|broot)")),
    }
}

fn vantage_year(positional: &[&String]) -> Result<(Vantage, u16), String> {
    let vantage = parse_vantage(positional.get(1).ok_or("vantage required (nl|nz|broot)")?)?;
    let year_str = positional.get(2).ok_or("year required (2018|2019|2020)")?;
    let year: u16 = year_str
        .parse()
        .map_err(|_| format!("year must be a number, got {year_str:?}"))?;
    Ok((vantage, year))
}

fn dataset_args<'a>(positional: &[&'a String]) -> Result<(Vantage, u16, &'a str), String> {
    let (vantage, year) = vantage_year(positional)?;
    let path = positional
        .get(3)
        .ok_or("capture path required (e.g. out.dnscap)")?;
    Ok((vantage, year, path.as_str()))
}

/// Print the per-dataset exhibits (the same rendering warehouse scans
/// reuse, so `report --warehouse` stays byte-identical to this path).
fn print_dataset_report(
    id: &str,
    vantage: Vantage,
    analysis: &dnscentral_core::DatasetAnalysis,
    dualstack: &DualStackAnalysis,
    spec: &simnet::scenario::DatasetSpec,
) {
    print!(
        "{}",
        report::render_dataset_report(id, vantage, analysis, dualstack, spec)
    );
}

/// Convert a `.dnscap` into a classic libpcap file (Ethernet/IP/UDP/TCP
/// with valid checksums) for tcpdump/Wireshark.
fn export_pcap(input: &Path, output: &Path) {
    use netbase::capture::CaptureReader;
    use netbase::pcap::PcapWriter;
    let infile = std::fs::File::open(input).expect("input opens");
    let reader = CaptureReader::new(std::io::BufReader::new(infile)).expect("valid .dnscap header");
    let outfile = std::fs::File::create(output).expect("output creates");
    let mut writer = PcapWriter::new(std::io::BufWriter::new(outfile)).expect("pcap header writes");
    let mut errors = 0u64;
    for item in reader {
        match item {
            Ok(rec) => writer.write_record(&rec).expect("pcap frame writes"),
            Err(_) => errors += 1,
        }
    }
    let frames = writer.frames_written();
    writer.finish().expect("flush");
    println!(
        "{frames} frames -> {} ({errors} capture errors skipped)",
        output.display()
    );
}

/// Analyze an externally captured pcap without a scenario: cloud
/// attribution uses the providers' real published address ranges, so
/// the Figure 1/4/5-style numbers are meaningful on real traffic; the
/// synthetic rest-of-Internet plan is NOT used (non-CP sources simply
/// stay unattributed).
fn analyze_external_pcap(input: &Path, zone: zonedb::zone::ZoneModel) {
    use asdb::mapping::AsMapper;
    use asdb::registry::AsRegistry;
    use dnscentral_core::DatasetAnalysis;
    use entrada::enrich::Enricher;
    use entrada::ingest::CaptureIngest;
    use netbase::trie::PrefixTrie;

    let data = std::fs::read(input).expect("input reads");
    let (records, skipped) = netbase::pcap::import_pcap(&data).expect("valid pcap");
    eprintln!("[{} DNS frames imported, {skipped} skipped]", records.len());

    // a CP-only mapper: real, published address space only
    let mut trie = PrefixTrie::new();
    for provider in asdb::cloud::ALL_PROVIDERS {
        for (i, pool) in provider.v4_pools().into_iter().enumerate() {
            trie.insert(pool, provider.asn_for_pool(i));
        }
        for (i, pool) in provider.v6_pools().into_iter().enumerate() {
            trie.insert(pool, provider.asn_for_pool(i));
        }
    }
    let mapper = AsMapper::new(trie, AsRegistry::with_cloud_providers());

    // the imported records feed the normal ingest path as they are
    let mut ingest = CaptureIngest::new(records.into_iter(), Enricher::new(mapper));
    let mut analysis = DatasetAnalysis::new(zone);
    let mut chromium = dnscentral_core::junk::ChromiumProbeStats::default();
    for row in ingest.by_ref() {
        analysis.push(&row);
        chromium.push(&row);
    }
    let id = input
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "pcap".into());
    print!(
        "{}",
        report::render_table3(&[metrics::dataset_summary(&id, &analysis)])
    );
    print!(
        "{}",
        report::render_fig1(&[metrics::cloud_share(&id, &analysis)])
    );
    print!(
        "{}",
        report::render_fig4(&[junk::junk_report(&id, &analysis)])
    );
    print!(
        "{}",
        report::render_table5(&[transport::transport_report(&id, &analysis)])
    );
    print!("{}", report::render_fig6(&ednssize::edns_report(&analysis)));
    println!(
        "Chromium-probe share of junk: {:.1}%",
        chromium.probe_share() * 100.0
    );
    let stats = ingest.stats();
    eprintln!(
        "[ingest: {} frames, {} malformed, {} unanswered, {} capture errors]",
        stats.frames, stats.malformed, stats.unanswered_queries, stats.capture_errors
    );
}

/// Convert a libpcap file back into a `.dnscap` (externally captured
/// DNS traffic entering the analysis pipeline).
fn import_pcap_cli(input: &Path, output: &Path) {
    use netbase::capture::CaptureWriter;
    let data = std::fs::read(input).expect("input reads");
    let (records, skipped) = netbase::pcap::import_pcap(&data).expect("valid pcap file");
    let outfile = std::fs::File::create(output).expect("output creates");
    let mut writer = CaptureWriter::new(std::io::BufWriter::new(outfile)).expect("header writes");
    for rec in &records {
        writer.write(rec).expect("record writes");
    }
    writer.finish().expect("flush");
    println!(
        "{} records -> {} ({skipped} non-DNS frames skipped)",
        records.len(),
        output.display()
    );
}

/// Capture forensics: walk any `.dnscap` without needing the scenario
/// that produced it. Messages are counted as ingest counts them: each is
/// read in place, and a TCP payload may coalesce several.
fn inspect_capture(path: &Path) {
    use dns_wire::reader::Reader;
    use netbase::capture::{CaptureReader, Direction};
    use netbase::flow::Transport;
    use std::collections::{HashMap, HashSet};

    let file = std::fs::File::open(path).expect("capture opens");
    let reader = CaptureReader::new(std::io::BufReader::new(file)).expect("valid header");
    let (mut frames, mut queries, mut responses, mut tcp) = (0u64, 0u64, 0u64, 0u64);
    let (mut messages, mut malformed) = (0u64, 0u64);
    let mut first: Option<netbase::time::SimTime> = None;
    let mut last: Option<netbase::time::SimTime> = None;
    let mut qtypes: HashMap<dns_wire::types::RType, u64> = HashMap::new();
    let mut sources: HashSet<IpAddr> = HashSet::new();
    for item in reader {
        let rec = match item {
            Ok(r) => r,
            Err(e) => {
                eprintln!("stream error after {frames} frames: {e}");
                break;
            }
        };
        frames += 1;
        first.get_or_insert(rec.timestamp);
        last = Some(rec.timestamp);
        match rec.direction {
            Direction::Query => {
                queries += 1;
                sources.insert(rec.flow.src);
            }
            Direction::Response => responses += 1,
        }
        // TCP payloads carry the RFC 1035 length prefix; one that is
        // empty or cut short is one malformed message
        let (udp, tcp_frames) = match rec.flow.transport {
            Transport::Udp => (Some(&rec.payload[..]), None),
            Transport::Tcp => {
                tcp += 1;
                match dns_wire::tcp::deframe(&rec.payload) {
                    Ok(frames) => (None, Some(frames)),
                    Err(_) => {
                        messages += 1;
                        malformed += 1;
                        continue;
                    }
                }
            }
        };
        for wire in udp.into_iter().chain(tcp_frames.into_iter().flatten()) {
            messages += 1;
            match Reader::new(wire) {
                Ok(msg) if rec.direction == Direction::Query => {
                    if let Some(q) = msg.questions().next() {
                        *qtypes.entry(q.qtype).or_insert(0) += 1;
                    }
                }
                Ok(_) => {}
                Err(_) => malformed += 1,
            }
        }
    }
    println!("frames     : {frames} ({queries} queries, {responses} responses)");
    println!("tcp frames : {tcp}");
    println!("messages   : {messages}");
    println!("malformed  : {malformed}");
    if let (Some(a), Some(b)) = (first, last) {
        println!("time span  : {a} .. {b}");
    }
    println!("resolvers  : {}", sources.len());
    let mut top: Vec<(String, u64)> = qtypes.into_iter().map(|(t, n)| (t.mnemonic(), n)).collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("qtypes     :");
    for (t, n) in top.iter().take(8) {
        println!("  {t:<8} {n}");
    }
}
