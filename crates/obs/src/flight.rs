//! The flight recorder: continuous time-series telemetry.
//!
//! The paper's headline findings are *temporal* (Google's Dec-2019
//! Q-min flip, the Feb-2020 `.nz` surge), but a scrape or a `--stats`
//! table shows one point in time. A [`Recorder`] keeps the last
//! [`RING_CAPACITY`] results of [`Registry::sample`], one per interval,
//! taken on its own thread ([`start`]). Counters and histogram counts
//! gain a per-second rate since the previous snapshot. The window dumps
//! as JSONL (`--flight=file`) and serves as one JSON document at
//! `/flight.json` on the [`crate::prom`] listener.

use crate::metrics::{Registry, SampleValue};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default sampling interval (`--flight-interval`).
pub const DEFAULT_INTERVAL: Duration = Duration::from_secs(1);

/// Points retained per metric: ten minutes of history at the default
/// 1 s interval.
pub const RING_CAPACITY: usize = 600;

/// One registry snapshot: milliseconds since the recorder's epoch and
/// [`Registry::sample`]'s name-sorted readings.
type Tick = (u64, Vec<(String, SampleValue)>);

/// One metric's reading at one tick.
#[derive(Debug)]
struct Point {
    t_ms: u64,
    value: SampleValue,
    /// Increase per second of a counter or a histogram's count since
    /// the previous tick; 0 on a metric's first tick and for gauges.
    rate: f64,
}

/// The time-series recorder. One global instance runs behind
/// [`start`]; tests drive their own against a private registry via
/// [`Recorder::new`] + [`Recorder::tick_at`].
pub struct Recorder {
    capacity: usize,
    epoch: Instant,
    interval: Duration,
    /// The last `capacity + 1` ticks (the oldest one shown still has
    /// the tick before it to derive its rate from), and the tick count.
    window: Mutex<(VecDeque<Tick>, u64)>,
}

impl Recorder {
    /// A recorder retaining `capacity` points per metric.
    pub fn new(interval: Duration, capacity: usize) -> Recorder {
        Recorder {
            capacity: capacity.max(2),
            epoch: Instant::now(),
            interval,
            window: Mutex::default(),
        }
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.window.lock().expect("flight window lock").1
    }

    /// Take one sample of `registry` at the current elapsed time.
    pub fn tick_registry(&self, registry: &Registry) {
        let t_ms = self.epoch.elapsed().as_millis() as u64;
        self.tick_at(registry, t_ms);
    }

    /// [`Recorder::tick_registry`] at an explicit timestamp (tests pin
    /// wall-clock-free rate math with it).
    pub fn tick_at(&self, registry: &Registry, t_ms: u64) {
        let sample = registry.sample();
        let (kept, ticks) = &mut *self.window.lock().expect("flight window lock");
        if kept.len() > self.capacity {
            kept.pop_front();
        }
        kept.push_back((t_ms, sample));
        *ticks += 1;
    }

    /// Every metric's retained points, sorted by name, oldest first.
    fn series(&self) -> Vec<(String, Vec<Point>)> {
        let (kept, _) = &*self.window.lock().expect("flight window lock");
        let mut series: BTreeMap<&str, Vec<Point>> = BTreeMap::new();
        for i in kept.len().saturating_sub(self.capacity)..kept.len() {
            let ((t_ms, sample), prev) = (&kept[i], i.checked_sub(1).map(|p| &kept[p]));
            for (name, value) in sample {
                let rate = prev.map_or(0.0, |p| rate_since(p, name, value, *t_ms));
                let (t_ms, value) = (*t_ms, value.clone());
                let points = series.entry(name).or_default();
                points.push(Point { t_ms, value, rate });
            }
        }
        series.into_iter().map(|(n, p)| (n.into(), p)).collect()
    }

    /// Dump the retained window as JSONL: one line per metric per
    /// point, metrics in name order, points oldest first. Returns the
    /// number of lines written.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<usize> {
        let mut n = 0;
        for (name, points) in self.series() {
            for p in &points {
                let (kind, fields) = (kind(&p.value), point_json(p));
                writeln!(w, "{{\"metric\":\"{name}\",\"kind\":\"{kind}\",{fields}}}")?;
                n += 1;
            }
        }
        Ok(n)
    }

    /// [`Recorder::write_jsonl`] to a file path.
    pub fn write_jsonl_file(&self, path: &std::path::Path) -> io::Result<usize> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        let n = self.write_jsonl(&mut w)?;
        w.flush()?;
        Ok(n)
    }

    /// The whole retained window as one JSON document (the
    /// `/flight.json` response body).
    pub fn snapshot_json(&self) -> String {
        let (interval_ms, ticks) = (self.interval.as_millis(), self.ticks());
        let mut metrics = Vec::new();
        for (name, points) in self.series() {
            let kind = kind(&points[0].value);
            let points: Vec<String> = points.iter().map(point_json).collect();
            let points = points.join("},{");
            metrics.push(format!(
                "{{\"name\":\"{name}\",\"kind\":\"{kind}\",\"points\":[{{{points}}}]}}"
            ));
        }
        let metrics = metrics.join(",");
        format!("{{\"interval_ms\":{interval_ms},\"ticks\":{ticks},\"metrics\":[{metrics}]}}")
    }
}

/// The cumulative reading a rate derives from (none for a gauge).
fn cumulative(value: &SampleValue) -> Option<u64> {
    match value {
        SampleValue::Counter(v) => Some(*v),
        SampleValue::Histogram { count, .. } => Some(*count),
        SampleValue::Gauge(_) => None,
    }
}

/// Per-second increase of `name`'s `value` at `t_ms` since the `prev`
/// tick; 0 unless that tick read it and is strictly older.
fn rate_since(prev: &Tick, name: &str, value: &SampleValue, t_ms: u64) -> f64 {
    let (prev_ms, sample) = prev;
    let i = sample.binary_search_by(|(n, _)| n.as_str().cmp(name));
    let before = i.ok().and_then(|i| cumulative(&sample[i].1));
    match (before, cumulative(value)) {
        (Some(before), Some(now)) if t_ms > *prev_ms => {
            now.saturating_sub(before) as f64 * 1000.0 / (t_ms - prev_ms) as f64
        }
        _ => 0.0,
    }
}

fn kind(value: &SampleValue) -> &'static str {
    match value {
        SampleValue::Counter(_) => "counter",
        SampleValue::Gauge(_) => "gauge",
        SampleValue::Histogram { .. } => "histogram",
    }
}

/// A point's JSON fields, from `t_ms` on, without the braces. JSON has
/// no NaN or Infinity literals, so a float that is not finite prints 0.
fn point_json(p: &Point) -> String {
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    let (t_ms, rate) = (p.t_ms, finite(p.rate));
    match &p.value {
        SampleValue::Counter(value) => format!("\"t_ms\":{t_ms},\"value\":{value},\"rate\":{rate}"),
        SampleValue::Gauge(value) => format!("\"t_ms\":{t_ms},\"value\":{}", finite(*value)),
        SampleValue::Histogram {
            count,
            sum,
            quantiles: [p50, p90, p99, p999],
        } => format!(
            "\"t_ms\":{t_ms},\"count\":{count},\"rate\":{rate},\"sum\":{sum},\
             \"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"p999\":{p999}"
        ),
    }
}

// ---- the global recorder ----------------------------------------------

/// The global recorder, and while its thread runs, the channel whose
/// drop stops it and the thread's handle.
type GlobalFlight = (Arc<Recorder>, Mutex<Option<(Sender<()>, JoinHandle<()>)>>);

static FLIGHT: OnceLock<GlobalFlight> = OnceLock::new();

/// Start the global flight recorder: a background thread snapshots
/// [`Registry::global`] every `interval` from now on. Idempotent — the
/// first call wins and later calls return `false` (the recorder keeps
/// its original interval).
pub fn start(interval: Duration) -> bool {
    let mut started = false;
    FLIGHT.get_or_init(|| {
        started = true;
        let recorder = Arc::new(Recorder::new(interval, RING_CAPACITY));
        let thread_recorder = Arc::clone(&recorder);
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("obs-flight".into())
            .spawn(move || {
                // dropping the sender wakes the wait at once, so
                // shutdown never waits out a tick
                let mut next = Instant::now() + interval;
                let wait = |next: Instant| next.saturating_duration_since(Instant::now());
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(wait(next)) {
                    thread_recorder.tick_registry(Registry::global());
                    next += interval;
                }
            })
            .expect("spawn obs-flight thread");
        (recorder, Mutex::new(Some((stop, handle))))
    });
    started
}

/// The global recorder, if [`start`]ed.
pub fn recorder() -> Option<Arc<Recorder>> {
    FLIGHT.get().map(|(recorder, _)| Arc::clone(recorder))
}

/// Stop the background sampler thread (the recorder and its window
/// stay readable) and take one final sample so short runs always have
/// at least one point. Idempotent.
pub fn stop() {
    let Some((recorder, thread)) = FLIGHT.get() else {
        return;
    };
    if let Some((stop, handle)) = thread.lock().expect("flight thread lock").take() {
        drop(stop);
        let _ = handle.join();
    }
    recorder.tick_registry(Registry::global());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// The points of `name`, which must exist.
    fn points(rec: &Recorder, name: &str) -> Vec<Point> {
        rec.series()
            .into_iter()
            .find(|(n, _)| n == name)
            .expect("series exists")
            .1
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_points() {
        let registry = Registry::new();
        let c = registry.counter("flight_ring_total", "t");
        let rec = Recorder::new(Duration::from_secs(1), 4);
        for i in 0..10u64 {
            c.add(5);
            rec.tick_at(&registry, i * 1000);
        }
        let points = points(&rec, "flight_ring_total");
        assert_eq!(points.len(), 4, "capacity bounds retention");
        let ts: Vec<u64> = points.iter().map(|p| p.t_ms).collect();
        assert_eq!(ts, [6000, 7000, 8000, 9000], "oldest dropped first");
        assert_eq!(points[0].value, SampleValue::Counter(35));
        assert_eq!(rec.window.lock().unwrap().0.len(), 5, "capacity + 1 ticks");
    }

    #[test]
    fn rate_derivation_spans_ring_wraparound() {
        let registry = Registry::new();
        let c = registry.counter("flight_wrap_total", "t");
        let rec = Recorder::new(Duration::from_secs(1), 4);
        // 10 ticks into a 4-point window: counter climbs 7/s throughout
        for t in 0..10u64 {
            c.add(7);
            rec.tick_at(&registry, t * 1000);
        }
        let points = points(&rec, "flight_wrap_total");
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                (p.rate - 7.0).abs() < 1e-9,
                "rate {} != 7/s at {}",
                p.rate,
                p.t_ms
            );
        }
        // the retained values are the last four cumulative readings
        let values: Vec<SampleValue> = points.into_iter().map(|p| p.value).collect();
        assert_eq!(values, [49, 56, 63, 70].map(SampleValue::Counter));
    }

    #[test]
    fn first_sample_has_zero_rate_and_gauges_pass_through() {
        let registry = Registry::new();
        registry.counter("flight_first_total", "t").add(100);
        registry.gauge("flight_qps", "t").set(12.25);
        let rec = Recorder::new(Duration::from_secs(1), 8);
        rec.tick_at(&registry, 500);
        for (name, points) in rec.series() {
            assert_eq!(points.len(), 1);
            match (name.as_str(), &points[0].value) {
                ("flight_first_total", SampleValue::Counter(value)) => {
                    assert_eq!(*value, 100);
                    assert_eq!(points[0].rate, 0.0, "no previous point, no rate");
                }
                ("flight_qps", SampleValue::Gauge(value)) => assert_eq!(*value, 12.25),
                other => panic!("unexpected series {other:?}"),
            }
        }
    }

    #[test]
    fn histogram_points_carry_quantiles_and_count_rate() {
        let registry = Registry::new();
        let h = registry.histogram("flight_lat_us", "t");
        let rec = Recorder::new(Duration::from_secs(1), 8);
        for _ in 0..50 {
            h.record(200);
        }
        rec.tick_at(&registry, 1000);
        for _ in 0..150 {
            h.record(200);
        }
        rec.tick_at(&registry, 2000);
        let points = points(&rec, "flight_lat_us");
        match points[1].value {
            SampleValue::Histogram {
                count,
                sum,
                quantiles,
            } => {
                assert_eq!(count, 200);
                assert!(
                    (points[1].rate - 150.0).abs() < 1e-9,
                    "150 new samples in 1s"
                );
                assert_eq!(sum, 40_000);
                for q in quantiles {
                    assert!((q as f64 - 200.0).abs() / 200.0 <= 0.0625, "q {q}");
                }
            }
            ref other => panic!("histogram point expected, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_and_snapshot_are_valid_json() {
        let registry = Registry::new();
        registry.counter("flight_json_total", "t").add(3);
        registry.gauge("flight_json_qps", "t").set(1.5);
        registry.histogram("flight_json_lat", "t").record(10);
        let rec = Recorder::new(Duration::from_millis(250), 8);
        rec.tick_at(&registry, 250);
        rec.tick_at(&registry, 500);

        let mut buf = Vec::new();
        let n = rec.write_jsonl(&mut buf).unwrap();
        assert_eq!(n, 6, "3 metrics x 2 ticks");
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("jsonl line parses");
            assert!(v["metric"].as_str().is_some());
            assert!(v["t_ms"].as_u64().is_some());
        }

        let doc: serde_json::Value =
            serde_json::from_str(&rec.snapshot_json()).expect("snapshot parses");
        assert_eq!(doc["interval_ms"].as_u64(), Some(250));
        assert_eq!(doc["ticks"].as_u64(), Some(2));
        let metrics = doc["metrics"].as_array().expect("metrics array");
        assert_eq!(metrics.len(), 3);
        let names: Vec<&str> = metrics
            .iter()
            .map(|m| m["name"].as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            ["flight_json_lat", "flight_json_qps", "flight_json_total"],
            "sorted by name"
        );
        assert_eq!(metrics[2]["points"].as_array().unwrap().len(), 2);
    }

    /// A scripted run at capacity 4: three ticks wrap out, two ticks
    /// share a timestamp (rate 0), a counter first appears at the fifth
    /// tick (rate 0, three points), and a NaN gauge prints as 0. The
    /// expected bytes are what the per-metric seqlock rings this
    /// recorder replaced wrote for the same script.
    #[test]
    fn scripted_window_renders_byte_identically() {
        let registry = Registry::new();
        let a = registry.counter("flight_script_a_total", "t");
        let g = registry.gauge("flight_script_g", "t");
        let h = registry.histogram("flight_script_lat_us", "t");
        let rec = Recorder::new(Duration::from_millis(500), 4);
        for (i, t) in [0u64, 500, 1000, 1750, 1750, 2500, 3000]
            .into_iter()
            .enumerate()
        {
            let i = i as u64;
            a.add(3 + i * 2);
            g.set(if i == 5 {
                f64::NAN
            } else {
                0.25 * i as f64 - 0.5
            });
            for v in 0..(i * 7 + 1) {
                h.record(40 + v * 13);
            }
            if i >= 4 {
                let late = registry.counter("flight_script_b_late_total", "t");
                late.add(if i == 4 { 11 } else { i * 100 });
            }
            rec.tick_at(&registry, t);
        }
        let mut jsonl = Vec::new();
        assert_eq!(rec.write_jsonl(&mut jsonl).unwrap(), 15);
        assert_eq!(String::from_utf8(jsonl).unwrap(), SCRIPTED_JSONL);
        assert_eq!(rec.snapshot_json(), SCRIPTED_SNAPSHOT);
    }

    const SCRIPTED_JSONL: &str = r#"{"metric":"flight_script_a_total","kind":"counter","t_ms":1750,"value":24,"rate":12}
{"metric":"flight_script_a_total","kind":"counter","t_ms":1750,"value":35,"rate":0}
{"metric":"flight_script_a_total","kind":"counter","t_ms":2500,"value":48,"rate":17.333333333333332}
{"metric":"flight_script_a_total","kind":"counter","t_ms":3000,"value":63,"rate":30}
{"metric":"flight_script_b_late_total","kind":"counter","t_ms":1750,"value":11,"rate":0}
{"metric":"flight_script_b_late_total","kind":"counter","t_ms":2500,"value":511,"rate":666.6666666666666}
{"metric":"flight_script_b_late_total","kind":"counter","t_ms":3000,"value":1111,"rate":1200}
{"metric":"flight_script_g","kind":"gauge","t_ms":1750,"value":0.25}
{"metric":"flight_script_g","kind":"gauge","t_ms":1750,"value":0.5}
{"metric":"flight_script_g","kind":"gauge","t_ms":2500,"value":0}
{"metric":"flight_script_g","kind":"gauge","t_ms":3000,"value":1}
{"metric":"flight_script_lat_us","kind":"histogram","t_ms":1750,"count":46,"rate":29.333333333333332,"sum":6572,"p50":135,"p90":271,"p99":303,"p999":303}
{"metric":"flight_script_lat_us","kind":"histogram","t_ms":1750,"count":75,"rate":0,"sum":13010,"p50":151,"p90":303,"p99":399,"p999":399}
{"metric":"flight_script_lat_us","kind":"histogram","t_ms":2500,"count":111,"rate":48,"sum":22640,"p50":183,"p90":367,"p99":495,"p999":495}
{"metric":"flight_script_lat_us","kind":"histogram","t_ms":3000,"count":154,"rate":86,"sum":36099,"p50":215,"p90":431,"p99":543,"p999":607}
"#;

    const SCRIPTED_SNAPSHOT: &str = r#"{"interval_ms":500,"ticks":7,"metrics":[{"name":"flight_script_a_total","kind":"counter","points":[{"t_ms":1750,"value":24,"rate":12},{"t_ms":1750,"value":35,"rate":0},{"t_ms":2500,"value":48,"rate":17.333333333333332},{"t_ms":3000,"value":63,"rate":30}]},{"name":"flight_script_b_late_total","kind":"counter","points":[{"t_ms":1750,"value":11,"rate":0},{"t_ms":2500,"value":511,"rate":666.6666666666666},{"t_ms":3000,"value":1111,"rate":1200}]},{"name":"flight_script_g","kind":"gauge","points":[{"t_ms":1750,"value":0.25},{"t_ms":1750,"value":0.5},{"t_ms":2500,"value":0},{"t_ms":3000,"value":1}]},{"name":"flight_script_lat_us","kind":"histogram","points":[{"t_ms":1750,"count":46,"rate":29.333333333333332,"sum":6572,"p50":135,"p90":271,"p99":303,"p999":303},{"t_ms":1750,"count":75,"rate":0,"sum":13010,"p50":151,"p90":303,"p99":399,"p999":399},{"t_ms":2500,"count":111,"rate":48,"sum":22640,"p50":183,"p90":367,"p99":495,"p999":495},{"t_ms":3000,"count":154,"rate":86,"sum":36099,"p50":215,"p90":431,"p99":543,"p999":607}]}]}"#;

    #[test]
    fn concurrent_reads_during_wrap_never_see_torn_points() {
        let registry = Arc::new(Registry::new());
        let c = registry.counter("flight_torn_total", "t");
        let rec = Arc::new(Recorder::new(Duration::from_secs(1), 8));
        let (writer_rec, writer_registry) = (Arc::clone(&rec), Arc::clone(&registry));
        let stop = Arc::new(AtomicBool::new(false));
        let writer_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            // value and t_ms move in lockstep; a torn read would
            // decouple them
            for i in 1..20_000u64 {
                c.add(3);
                writer_rec.tick_at(&writer_registry, i);
            }
            writer_stop.store(true, Ordering::SeqCst);
        });
        while !stop.load(Ordering::SeqCst) {
            for (_, points) in rec.series() {
                for p in points {
                    assert_eq!(
                        p.value,
                        SampleValue::Counter(p.t_ms * 3),
                        "torn point: {p:?}"
                    );
                    assert!(p.rate == 0.0 || p.rate == 3000.0, "torn rate: {p:?}");
                }
            }
        }
        writer.join().unwrap();
    }
}
