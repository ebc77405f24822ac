//! In-memory spans around the harness's calls into each layer.
//!
//! The traced run calls the layers one after another ("staged"), so a
//! span's parent is simply the span that was open when it began. Spans
//! stay in memory until the run ends and are written out once.

use std::time::Instant;

/// One finished (or still open) span. Times are seconds since the
/// tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    pub records_in: u64,
    pub records_out: u64,
    /// Process-wide allocations between begin and end.
    pub allocs: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Nanoseconds per `n` records (0 when `n` is 0).
    pub fn ns_per(&self, n: u64) -> f64 {
        per(self.secs() * 1e9, n)
    }

    /// Allocations per `n` records (0 when `n` is 0).
    pub fn allocs_per(&self, n: u64) -> f64 {
        per(self.allocs as f64, n)
    }
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Name of a root span whose descendants are stages of the end-to-end
/// path; `staged_sum_s` adds up their self times.
pub const STAGED: &str = "staged";
/// Name of the root span for probes that re-measure a part of a stage
/// on its own (they are not part of the staged sum).
pub const PROBES: &str = "probes";

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            records_in: 0,
            records_out: 0,
            // holds the counter at begin until `end` turns it into a delta
            allocs: obs::alloc::totals().0,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize, records_in: u64, records_out: u64) -> Span {
        let end_s = self.epoch.elapsed().as_secs_f64();
        let allocs_now = obs::alloc::totals().0;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_s = end_s;
        span.records_in = records_in;
        span.records_out = records_out;
        span.allocs = allocs_now - span.allocs;
        span.clone()
    }

    /// Time `f` as a leaf span that takes `records` in and gives its
    /// return count out.
    pub fn leaf(&mut self, name: &'static str, records: u64, f: impl FnOnce() -> u64) -> Span {
        let id = self.begin(name);
        let out = f();
        self.end(id, records, out)
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "every span is closed before reading");
        &self.spans
    }
}

/// A span's duration minus the part of it its direct children cover
/// (children that overlap each other are counted once).
pub fn self_secs(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_s.max(me.start_s), s.end_s.min(me.end_s)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
    let mut covered = 0.0;
    let mut reach = me.start_s;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    me.secs() - covered
}

/// Sum of the self times of every span below a root named [`STAGED`]
/// (a run may open that root more than once, with probes in between).
pub fn staged_sum_secs(spans: &[Span]) -> f64 {
    let staged = |mut id: usize| {
        let leaf = id;
        while let Some(p) = spans[id].parent {
            id = p;
        }
        id != leaf && spans[id].name == STAGED
    };
    (0..spans.len())
        .filter(|&i| staged(i))
        .map(|i| self_secs(spans, i))
        .sum()
}

/// The trace file: every span with its self time, and the staged sum.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            serde_json::json!({
                "id": i,
                "name": s.name,
                "workload": workload,
                "parent": s.parent,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "self_s": self_secs(spans, i),
                "records_in": s.records_in,
                "records_out": s.records_out,
                "allocs": s.allocs,
            })
        })
        .collect();
    serde_json::json!({
        "workload": workload,
        "seed": seed,
        "staged_sum_s": staged_sum_secs(spans),
        "spans": rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            parent,
            start_s,
            end_s,
            records_in: 0,
            records_out: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            // overlaps `a` for one second: the union covers 1..6
            span("b", Some(0), 3.0, 6.0),
            span("grandchild", Some(1), 1.5, 2.0),
        ];
        assert_eq!(self_secs(&spans, 0), 5.0);
        assert_eq!(self_secs(&spans, 1), 2.5);
        assert_eq!(self_secs(&spans, 2), 3.0);
        assert_eq!(self_secs(&spans, 3), 0.5);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", None, 2.0, 5.0), span("a", Some(0), 0.0, 3.0)];
        assert_eq!(self_secs(&spans, 0), 2.0);
    }

    #[test]
    fn staged_sum_covers_descendants_and_skips_probes() {
        let spans = vec![
            span(STAGED, None, 0.0, 10.0),
            span("generate", Some(0), 0.0, 4.0),
            span("ingest", Some(0), 4.0, 9.0),
            span("enrich", Some(2), 5.0, 6.0),
            span(PROBES, None, 10.0, 20.0),
            span("parse", Some(4), 10.0, 15.0),
            span(STAGED, None, 20.0, 23.0),
            span("render", Some(6), 20.0, 22.0),
        ];
        // generate 4 + ingest self 4 + enrich 1 + render 2; the roots'
        // own idle seconds and the probes are left out
        assert_eq!(staged_sum_secs(&spans), 11.0);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut t = Tracer::new();
        let root = t.begin(STAGED);
        let leaf = t.leaf("x", 3, || 2);
        t.end(root, 0, 0);
        assert_eq!(leaf.parent, Some(root));
        assert_eq!((leaf.records_in, leaf.records_out), (3, 2));
        assert!(t.spans()[root].secs() >= leaf.secs());
    }
}
