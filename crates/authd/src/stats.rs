//! Lock-free counters and latency histograms for the live loop.
//!
//! Workers on both sides of the loop (server threads, load-generator
//! threads) bump shared handles from the workspace [`obs`] crate; a
//! reporter thread (or the shutdown path) takes [`Stats::snapshot`] and
//! renders it. Nothing here blocks the hot path: counters are
//! `fetch_add(Relaxed)` and the histogram is a fixed array of atomic
//! log-linear buckets (see `obs::Histogram` — quantiles report bucket
//! midpoints, accurate to ±6.25%).
//!
//! [`Stats::publish`] exposes the same live handles through the global
//! metrics registry, so a `--metrics-addr` scrape sees exactly the
//! counters the workers are bumping.

use obs::{Counter, Histogram};
use std::fmt;
use std::sync::Arc;

/// Shared counters for one side of the live loop.
///
/// Server threads use the query/response/RRL counters; load-generator
/// threads use sent/timeouts/fallbacks. Unused counters stay zero and
/// are omitted from rendering.
#[derive(Default)]
pub struct Stats {
    /// Queries received over UDP (server).
    pub udp_queries: Arc<Counter>,
    /// Queries received over TCP (server).
    pub tcp_queries: Arc<Counter>,
    /// Responses sent.
    pub responses: Arc<Counter>,
    /// Datagrams / framed messages that failed to parse as DNS.
    pub malformed: Arc<Counter>,
    /// UDP responses truncated to the advertised EDNS size (TC=1).
    pub truncated: Arc<Counter>,
    /// Responses RRL replaced with a TC=1 slip.
    pub rrl_slipped: Arc<Counter>,
    /// Responses RRL dropped outright.
    pub rrl_dropped: Arc<Counter>,
    /// TCP connections closed for exceeding the pending-bytes cap.
    pub overruns: Arc<Counter>,
    /// UDP response sends that failed at the socket (counted so
    /// `responses` minus `send_errors` is what actually left the host).
    pub send_errors: Arc<Counter>,
    /// TCP connections a worker accepted, each served by it.
    pub tcp_accepted: Arc<Counter>,
    /// Load generator: queries sent.
    pub sent: Arc<Counter>,
    /// Load generator: responses that never arrived in time.
    pub timeouts: Arc<Counter>,
    /// Load generator: TC=1 answers retried over TCP.
    pub tcp_fallbacks: Arc<Counter>,
    /// Query→response latency (µs), whichever side measures it.
    pub latency: Arc<Histogram>,
}

impl Stats {
    /// Fresh zeroed stats.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Bump a counter by one.
    pub fn bump(&self, counter: &Counter) {
        counter.inc();
    }

    /// Expose these live handles in the global metrics registry under
    /// `{prefix}_*` names (e.g. `authd_server_udp_queries_total`).
    /// Re-publishing (a restarted server) replaces the previous
    /// occupant, so scrapes always see the current run's counters.
    pub fn publish(&self, prefix: &str) {
        let reg = obs::Registry::global();
        let pc = |name: &str, help: &str, handle: &Arc<Counter>| {
            reg.publish_counter(&format!("{prefix}_{name}"), help, Arc::clone(handle));
        };
        pc(
            "udp_queries_total",
            "queries received over UDP",
            &self.udp_queries,
        );
        pc(
            "tcp_queries_total",
            "queries received over TCP",
            &self.tcp_queries,
        );
        pc("responses_total", "responses sent", &self.responses);
        pc(
            "malformed_total",
            "messages that failed to parse as DNS",
            &self.malformed,
        );
        pc(
            "truncated_total",
            "UDP responses truncated (TC=1)",
            &self.truncated,
        );
        pc(
            "rrl_slipped_total",
            "responses replaced by RRL TC=1 slips",
            &self.rrl_slipped,
        );
        pc(
            "rrl_dropped_total",
            "responses dropped by RRL",
            &self.rrl_dropped,
        );
        pc(
            "overruns_total",
            "TCP connections closed for pending-bytes overrun",
            &self.overruns,
        );
        pc(
            "send_errors_total",
            "UDP response sends that failed at the socket",
            &self.send_errors,
        );
        pc(
            "tcp_accepted_total",
            "TCP connections accepted",
            &self.tcp_accepted,
        );
        pc("sent_total", "load generator queries sent", &self.sent);
        pc(
            "timeouts_total",
            "load generator response timeouts",
            &self.timeouts,
        );
        pc(
            "tcp_fallbacks_total",
            "TC=1 answers retried over TCP",
            &self.tcp_fallbacks,
        );
        reg.publish_histogram(
            &format!("{prefix}_latency_us"),
            "query-response latency in microseconds",
            Arc::clone(&self.latency),
        );
    }

    /// Consistent-enough point-in-time copy for rendering.
    pub fn snapshot(&self, elapsed_secs: f64) -> StatsSnapshot {
        let udp = self.udp_queries.get();
        let tcp = self.tcp_queries.get();
        let sent = self.sent.get();
        let queries = if sent > 0 { sent } else { udp + tcp };
        StatsSnapshot {
            udp_queries: udp,
            tcp_queries: tcp,
            responses: self.responses.get(),
            malformed: self.malformed.get(),
            truncated: self.truncated.get(),
            rrl_slipped: self.rrl_slipped.get(),
            rrl_dropped: self.rrl_dropped.get(),
            overruns: self.overruns.get(),
            send_errors: self.send_errors.get(),
            tcp_accepted: self.tcp_accepted.get(),
            sent,
            timeouts: self.timeouts.get(),
            tcp_fallbacks: self.tcp_fallbacks.get(),
            qps: if elapsed_secs > 0.0 {
                queries as f64 / elapsed_secs
            } else {
                0.0
            },
            p50_us: self.latency.quantile(0.50),
            p99_us: self.latency.quantile(0.99),
        }
    }
}

/// Point-in-time copy of [`Stats`], plus derived rates.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub qps: f64,
    pub udp_queries: u64,
    pub tcp_queries: u64,
    pub responses: u64,
    pub malformed: u64,
    pub truncated: u64,
    pub rrl_slipped: u64,
    pub rrl_dropped: u64,
    pub overruns: u64,
    pub send_errors: u64,
    pub tcp_accepted: u64,
    pub sent: u64,
    pub timeouts: u64,
    pub tcp_fallbacks: u64,
    pub p50_us: u64,
    pub p99_us: u64,
}

impl StatsSnapshot {
    /// Queries handled (server side).
    pub fn queries(&self) -> u64 {
        self.udp_queries + self.tcp_queries
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qps {:.0} | udp {} tcp {} resp {} | malformed {} trunc {} \
             rrl-slip {} rrl-drop {} | p50 {}us p99 {}us",
            self.qps,
            self.udp_queries,
            self.tcp_queries,
            self.responses,
            self.malformed,
            self.truncated,
            self.rrl_slipped,
            self.rrl_dropped,
            self.p50_us,
            self.p99_us,
        )?;
        if self.send_errors > 0 {
            write!(f, " send-err {}", self.send_errors)?;
        }
        if self.sent > 0 {
            write!(
                f,
                " | sent {} timeouts {} tcp-fallbacks {}",
                self.sent, self.timeouts, self.tcp_fallbacks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000); // far tail
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!((94..=106).contains(&p50), "p50 {p50} within ±6.25% of 100");
        let p99 = h.quantile(0.99);
        assert!(p99 < 128, "p99 {p99} free of the old log2 upper-bound bias");
        assert!(h.quantile(1.0) >= 900_000);
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        h.record(u64::MAX); // clamped to the last bucket
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_qps_and_render() {
        let s = Stats::new();
        for _ in 0..500 {
            s.bump(&s.udp_queries);
        }
        s.bump(&s.truncated);
        s.latency.record(80);
        let snap = s.snapshot(2.0);
        assert_eq!(snap.queries(), 500);
        assert!((snap.qps - 250.0).abs() < 1e-9);
        let line = snap.to_string();
        assert!(line.contains("qps 250"), "{line}");
        assert!(line.contains("trunc 1"), "{line}");
        assert!(!line.contains("sent"), "loadgen fields omitted: {line}");
    }

    #[test]
    fn send_errors_render_only_when_present() {
        let s = Stats::new();
        assert!(!s.snapshot(1.0).to_string().contains("send-err"));
        s.bump(&s.send_errors);
        assert!(s.snapshot(1.0).to_string().contains("send-err 1"));
    }

    #[test]
    fn publish_exposes_live_handles() {
        let s = Stats::new();
        s.publish("authd_stats_test");
        s.bump(&s.udp_queries);
        s.latency.record(200);
        let text = obs::Registry::global().render_prometheus();
        assert!(
            text.contains("authd_stats_test_udp_queries_total 1"),
            "{text}"
        );
        assert!(
            text.contains("authd_stats_test_latency_us_count 1"),
            "{text}"
        );
    }
}
