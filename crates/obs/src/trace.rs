//! Lightweight span tracing with Chrome trace-event export.
//!
//! [`span`] returns an RAII guard; when tracing is enabled (the CLI's
//! `--trace <file>` flag calls [`enable`]) the guard records a complete
//! ("X") event on drop — name, thread id, start timestamp, duration —
//! into a global collector. [`write_jsonl`] dumps the collected events
//! as one JSON object per line, loadable by `chrome://tracing` and
//! Perfetto (both accept newline-delimited trace events).
//!
//! When tracing is disabled, [`span`] costs one relaxed atomic load and
//! allocates nothing: instrumented hot loops stay hot.

use std::borrow::Cow;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One collected trace event: a completed span.
#[derive(Debug, Clone)]
struct Event {
    name: Cow<'static, str>,
    tid: u64,
    start_us: u64,
    end_us: u64,
}

struct Collector {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turn span collection on (idempotent; stays on for the process).
pub fn enable() {
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        events: Mutex::new(Vec::new()),
    });
    ENABLED.store(true, Ordering::Release);
}

/// Whether spans are being collected.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// An in-flight span; records itself on drop. Obtain via [`span`].
pub struct Span {
    live: Option<(Cow<'static, str>, u64)>, // (name, start_us)
}

/// Open a span named `name`; the returned guard records the elapsed
/// interval when dropped. Nested guards (dropped in LIFO order) produce
/// properly nested intervals per thread.
#[inline]
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    let collector = COLLECTOR.get().expect("enabled implies initialized");
    let start_us = collector.epoch.elapsed().as_micros() as u64;
    Span {
        live: Some((name.into(), start_us)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((name, start_us)) = self.live.take() else {
            return;
        };
        let Some(collector) = COLLECTOR.get() else {
            return;
        };
        let end_us = collector.epoch.elapsed().as_micros() as u64;
        let tid = TID.with(|t| *t);
        collector.events.lock().expect("trace lock").push(Event {
            name,
            tid,
            start_us,
            end_us,
        });
    }
}

/// Number of spans collected so far.
pub fn collected() -> usize {
    COLLECTOR
        .get()
        .map(|c| c.events.lock().expect("trace lock").len())
        .unwrap_or(0)
}

/// Minimal JSON string escaping (span names are identifiers, but stay
/// safe for arbitrary input).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write every collected span as Chrome trace-event JSONL: one
/// complete ("X") event per line. Returns the
/// number of events written. The collector keeps its events (repeated
/// calls re-export).
pub fn write_jsonl<W: Write>(mut w: W) -> io::Result<usize> {
    let Some(collector) = COLLECTOR.get() else {
        return Ok(0);
    };
    let mut events = collector.events.lock().expect("trace lock").clone();
    // stable order: by start, parents (longer) before children on ties
    events.sort_by_key(|e| (e.start_us, std::cmp::Reverse(e.end_us)));
    for e in &events {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            escape(&e.name),
            e.tid,
            e.start_us,
            e.end_us - e.start_us,
        )?;
    }
    Ok(events.len())
}

/// [`write_jsonl`] to a file path.
pub fn write_jsonl_file(path: &std::path::Path) -> io::Result<usize> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    let n = write_jsonl(&mut w)?;
    w.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_valid_jsonl() {
        enable();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _dynamic = span(format!("dataset {}", "nl-w2020"));
        }
        let mut buf = Vec::new();
        let n = write_jsonl(&mut buf).unwrap();
        assert!(n >= 3);
        let text = String::from_utf8(buf).unwrap();
        let mut seen = Vec::new();
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            assert_eq!(v["ph"].as_str(), Some("X"));
            assert!(v["ts"].as_u64().is_some());
            assert!(v["dur"].as_u64().is_some());
            assert!(v["tid"].as_u64().is_some());
            seen.push((
                v["name"].as_str().unwrap().to_string(),
                v["ts"].as_u64().unwrap(),
                v["dur"].as_u64().unwrap(),
                v["tid"].as_u64().unwrap(),
            ));
        }
        let outer = seen.iter().find(|s| s.0 == "outer").unwrap().clone();
        let inner = seen.iter().find(|s| s.0 == "inner").unwrap().clone();
        assert!(seen.iter().any(|s| s.0 == "dataset nl-w2020"));
        // this test's spans share one thread and nest strictly
        assert_eq!(outer.3, inner.3);
        assert!(inner.1 >= outer.1, "inner starts after outer");
        assert!(
            inner.1 + inner.2 <= outer.1 + outer.2,
            "inner ends before outer"
        );
        assert!(inner.2 >= 1_000, "inner span covers its sleep");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
