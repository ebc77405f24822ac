//! Per-nameserver RTT tracking and server ordering: a smoothed-RTT
//! score per host (EWMA) with a timeout penalty, so resolvers converge
//! on the fastest authoritative server of a set — the mechanism behind
//! the paper's anycast/dual-stack preference observations (§4.3).

use std::net::IpAddr;

/// Smoothing factor for the RTT EWMA: one observation moves the
/// estimate 30% of the way — fast convergence without flapping on a
/// single outlier.
const ALPHA: f64 = 0.3;

/// Score assumed for a host that was never measured: optimistic enough
/// that new servers get probed ahead of known-slow ones.
const UNPROBED_SCORE: f64 = 1.0;

/// Multiplicative penalty applied to a host's score on timeout, and
/// the cap it saturates at (microseconds).
const TIMEOUT_FACTOR: f64 = 2.0;
const SCORE_CAP: f64 = 10_000_000.0;

/// Hosts the table makes room for on its first observation: a fleet
/// instance asks a root, a few vantage servers and a few leaf hosts, so
/// most never outgrow it.
const FIRST_ROOM: usize = 8;

/// Observed state for one nameserver address.
#[derive(Debug, Clone, Copy)]
pub struct HostStats {
    /// Smoothed round-trip time, microseconds.
    pub srtt_us: f64,
    /// Queries sent to this host.
    pub sent: u64,
    /// Timeouts observed from this host.
    pub timeouts: u64,
}

/// Per-host EWMA selector. Deterministic: ordering depends only on the
/// sequence of observations, never on randomness or map iteration.
///
/// The hosts are one flat table sorted by address, searched by
/// bisection: it allocates room for 8 hosts (`FIRST_ROOM`) on the first
/// observation and doubles only past that.
#[derive(Debug, Clone, Default)]
pub struct HostSelector {
    hosts: Vec<(IpAddr, HostStats)>,
}

impl HostSelector {
    /// A selector with no observations (every host unprobed).
    pub fn new() -> HostSelector {
        HostSelector::default()
    }

    /// Fold a measured RTT into the host's smoothed estimate.
    pub fn observe_rtt(&mut self, host: IpAddr, rtt_us: u32) {
        let e = self.entry(host, f64::from(rtt_us));
        e.sent += 1;
        e.srtt_us = e.srtt_us * (1.0 - ALPHA) + f64::from(rtt_us) * ALPHA;
    }

    /// Penalize a host that failed to answer: doubles its score so the
    /// next [`HostSelector::rank`] deprioritizes it, while leaving it
    /// reachable for recovery probes.
    pub fn observe_timeout(&mut self, host: IpAddr) {
        let e = self.entry(host, UNPROBED_SCORE);
        e.sent += 1;
        e.timeouts += 1;
        e.srtt_us = (e.srtt_us * TIMEOUT_FACTOR).clamp(1.0, SCORE_CAP);
    }

    /// `host`'s stats, inserted unsent with `srtt_us` when it has none.
    fn entry(&mut self, host: IpAddr, srtt_us: f64) -> &mut HostStats {
        let i = match self.find(host) {
            Ok(i) => i,
            Err(i) => {
                if self.hosts.capacity() == 0 {
                    self.hosts.reserve_exact(FIRST_ROOM);
                }
                let fresh = HostStats {
                    srtt_us,
                    sent: 0,
                    timeouts: 0,
                };
                self.hosts.insert(i, (host, fresh));
                i
            }
        };
        &mut self.hosts[i].1
    }

    /// Where `host` is in the table, or where it would go.
    fn find(&self, host: IpAddr) -> Result<usize, usize> {
        self.hosts.binary_search_by(|(h, _)| h.cmp(&host))
    }

    /// The score used for ordering: smoothed RTT, or the optimistic
    /// unprobed default.
    pub fn score(&self, host: IpAddr) -> f64 {
        self.stats(host).map_or(UNPROBED_SCORE, |h| h.srtt_us)
    }

    /// `candidates` best-first into `out` (cleared first, so a caller
    /// that keeps it allocates nothing), each with its score, which is
    /// looked up once. The sort is stable, so unobserved hosts keep
    /// their input (priming/glue) order.
    pub fn rank(&self, candidates: &[IpAddr], out: &mut Vec<(f64, IpAddr)>) {
        out.clear();
        out.extend(candidates.iter().map(|&host| (self.score(host), host)));
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// Measured state for `host`, if any query was ever sent to it.
    pub fn stats(&self, host: IpAddr) -> Option<HostStats> {
        self.find(host).ok().map(|i| self.hosts[i].1)
    }

    /// Iterate all observed hosts, in address order (for metrics
    /// export).
    pub fn iter(&self) -> impl Iterator<Item = (&IpAddr, &HostStats)> {
        self.hosts.iter().map(|(host, stats)| (host, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    /// The hosts of `candidates` best-first.
    fn order(s: &HostSelector, candidates: &[IpAddr]) -> Vec<IpAddr> {
        let mut ranked = Vec::new();
        s.rank(candidates, &mut ranked);
        ranked.into_iter().map(|(_, host)| host).collect()
    }

    #[test]
    fn fast_host_ordered_first() {
        let mut s = HostSelector::new();
        s.observe_rtt(ip("192.0.2.1"), 50_000);
        s.observe_rtt(ip("192.0.2.2"), 5_000);
        let order = order(&s, &[ip("192.0.2.1"), ip("192.0.2.2")]);
        assert_eq!(order[0], ip("192.0.2.2"));
    }

    #[test]
    fn unprobed_hosts_rank_ahead_of_measured_ones() {
        let mut s = HostSelector::new();
        s.observe_rtt(ip("192.0.2.1"), 30_000);
        let order = order(&s, &[ip("192.0.2.1"), ip("192.0.2.9")]);
        assert_eq!(order[0], ip("192.0.2.9"), "new server gets probed");
    }

    #[test]
    fn timeouts_demote_a_host() {
        let mut s = HostSelector::new();
        s.observe_rtt(ip("192.0.2.1"), 10_000);
        s.observe_rtt(ip("192.0.2.2"), 12_000);
        for _ in 0..4 {
            s.observe_timeout(ip("192.0.2.1"));
        }
        let order = order(&s, &[ip("192.0.2.1"), ip("192.0.2.2")]);
        assert_eq!(order[0], ip("192.0.2.2"));
        let st = s.stats(ip("192.0.2.1")).unwrap();
        assert_eq!(st.timeouts, 4);
    }

    #[test]
    fn ewma_converges_toward_recent_rtt() {
        let mut s = HostSelector::new();
        s.observe_rtt(ip("192.0.2.1"), 100_000);
        for _ in 0..20 {
            s.observe_rtt(ip("192.0.2.1"), 10_000);
        }
        let srtt = s.stats(ip("192.0.2.1")).unwrap().srtt_us;
        assert!(srtt < 12_000.0, "srtt {srtt}");
    }

    #[test]
    fn stable_order_without_observations() {
        let s = HostSelector::new();
        let input = [ip("192.0.2.3"), ip("192.0.2.1"), ip("192.0.2.2")];
        assert_eq!(order(&s, &input), input.to_vec());
    }

    #[test]
    fn the_table_is_sized_once_and_kept_in_address_order() {
        let mut s = HostSelector::new();
        for last in (1..=FIRST_ROOM as u8).rev() {
            s.observe_rtt(IpAddr::from([192, 0, 2, last]), u32::from(last) * 1_000);
        }
        s.observe_timeout(ip("2001:db8::1"));
        s.observe_timeout(ip("192.0.2.3"));
        assert_eq!(s.hosts.len(), FIRST_ROOM + 1);
        let hosts: Vec<IpAddr> = s.iter().map(|(host, _)| *host).collect();
        assert!(hosts.windows(2).all(|w| w[0] < w[1]), "{hosts:?}");
        assert_eq!(s.stats(ip("192.0.2.3")).unwrap().timeouts, 1);
        assert_eq!(s.score(ip("2001:db8::1")), UNPROBED_SCORE * TIMEOUT_FACTOR);
        let mut fresh = HostSelector::new();
        fresh.observe_rtt(ip("192.0.2.1"), 1_000);
        assert_eq!(
            fresh.hosts.capacity(),
            FIRST_ROOM,
            "room for a walk's hosts at once"
        );
    }

    #[test]
    fn ranking_reuses_the_buffer_and_reports_scores() {
        let mut s = HostSelector::new();
        s.observe_rtt(ip("192.0.2.1"), 9_000);
        let mut ranked = vec![(0.0, ip("10.0.0.1")); 8];
        s.rank(&[ip("192.0.2.1"), ip("192.0.2.2")], &mut ranked);
        assert_eq!(
            ranked,
            vec![
                (UNPROBED_SCORE, ip("192.0.2.2")),
                (9_000.0, ip("192.0.2.1"))
            ]
        );
    }
}
