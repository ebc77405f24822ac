//! QNAME-minimization analysis: the Figure 3 monthly qtype series and
//! the change-point detector that pinpoints *when* a provider deployed
//! Q-min (the paper found Dec 2019 for Google and confirmed it with
//! Google's operators).

use crate::analysis::QtypeCounts;
use dns_wire::types::RType;
use serde::Serialize;

/// One month of a provider's query stream, summarized.
#[derive(Debug, Clone, Serialize)]
pub struct MonthlySample {
    /// Calendar year.
    pub year: i32,
    /// Calendar month (1-12).
    pub month: u32,
    /// Queries that month.
    pub total: u64,
    /// `(qtype mnemonic, count)` for the stacked Figure 3 bars.
    pub qtype_counts: Vec<(String, u64)>,
    /// NS share of the month's queries.
    pub ns_share: f64,
    /// Among NS queries, the share in minimized form (one label below
    /// the zone cut) — the paper's manual qname verification, automated.
    pub minimized_ns_share: f64,
    /// A+AAAA share (rises during the Feb-2020 `.nz` incident).
    pub address_share: f64,
}

impl MonthlySample {
    /// Build from a month's qtype histogram plus the minimized count.
    pub fn from_counters(
        year: i32,
        month: u32,
        qtypes: &QtypeCounts,
        minimized_ns: u64,
    ) -> MonthlySample {
        let total = qtypes.total();
        let ns = qtypes.get(RType::Ns);
        let a = qtypes.get(RType::A) + qtypes.get(RType::Aaaa);
        let mut qtype_counts: Vec<(String, u64)> =
            qtypes.iter().map(|(t, c)| (t.mnemonic(), c)).collect();
        qtype_counts.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        MonthlySample {
            year,
            month,
            total,
            qtype_counts,
            ns_share: if total == 0 {
                0.0
            } else {
                ns as f64 / total as f64
            },
            minimized_ns_share: if ns == 0 {
                0.0
            } else {
                minimized_ns as f64 / ns as f64
            },
            address_share: if total == 0 {
                0.0
            } else {
                a as f64 / total as f64
            },
        }
    }
}

/// A detected deployment event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChangePoint {
    /// Year of the first changed month.
    pub year: i32,
    /// Month of the first changed month.
    pub month: u32,
}

/// Simple baseline detector: the first month whose NS share exceeds the
/// running pre-change mean by `min_jump`, provided minimized qnames
/// dominate the post-change NS stream.
pub fn detect_threshold(series: &[MonthlySample], min_jump: f64) -> Option<ChangePoint> {
    if series.len() < 2 {
        return None;
    }
    let mut baseline_sum = series[0].ns_share;
    let mut baseline_n = 1.0;
    for sample in &series[1..] {
        let baseline = baseline_sum / baseline_n;
        if sample.ns_share > baseline + min_jump && sample.minimized_ns_share > 0.5 {
            return Some(ChangePoint {
                year: sample.year,
                month: sample.month,
            });
        }
        baseline_sum += sample.ns_share;
        baseline_n += 1.0;
    }
    None
}

/// CUSUM detector over the NS-share series: robust to noise and to the
/// incident months a threshold detector can trip on. `drift` absorbs
/// slow growth; `alarm` is the decision threshold. The reported
/// change-point is the month the cumulative sum started rising.
pub fn detect_cusum(series: &[MonthlySample], drift: f64, alarm: f64) -> Option<ChangePoint> {
    let mut stage = obs::stage("analysis.qmin");
    stage.add_items(series.len() as u64);
    if series.len() < 4 {
        return detect_threshold(series, 0.15);
    }
    // baseline from the first three months (pre-deployment by
    // construction of any 18-month window that contains a deployment)
    let baseline: f64 = series[..3].iter().map(|s| s.ns_share).sum::<f64>() / 3.0;
    let mut s = 0.0f64;
    let mut run_start: Option<usize> = None;
    for (i, sample) in series.iter().enumerate() {
        let dev = sample.ns_share - baseline - drift;
        let next = (s + dev).max(0.0);
        if next > 0.0 && s == 0.0 {
            run_start = Some(i);
        }
        if next == 0.0 {
            run_start = None;
        }
        s = next;
        if s > alarm {
            let at = run_start.unwrap_or(i);
            // require the qname evidence, as the paper did
            let evidence = series[at..]
                .iter()
                .take(3)
                .any(|m| m.minimized_ns_share > 0.5);
            if evidence {
                return Some(ChangePoint {
                    year: series[at].year,
                    month: series[at].month,
                });
            }
            s = 0.0;
            run_start = None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(year: i32, month: u32, ns_share: f64, minimized: f64) -> MonthlySample {
        MonthlySample {
            year,
            month,
            total: 1000,
            qtype_counts: vec![],
            ns_share,
            minimized_ns_share: minimized,
            address_share: 1.0 - ns_share,
        }
    }

    /// An 18-month series shaped like Figure 3: flat ~4% NS until
    /// Dec 2019, then ~45%.
    fn google_like() -> Vec<MonthlySample> {
        let mut out = Vec::new();
        let (mut y, mut m) = (2018, 11);
        loop {
            let deployed = (y, m) >= (2019, 12);
            let jitter = ((m * 7 + y as u32) % 5) as f64 * 0.004;
            out.push(sample(
                y,
                m,
                if deployed {
                    0.45 + jitter
                } else {
                    0.04 + jitter
                },
                if deployed { 0.93 } else { 0.35 },
            ));
            if (y, m) == (2020, 4) {
                break;
            }
            m += 1;
            if m > 12 {
                m = 1;
                y += 1;
            }
        }
        out
    }

    #[test]
    fn both_detectors_find_december_2019() {
        let series = google_like();
        assert_eq!(
            detect_threshold(&series, 0.15),
            Some(ChangePoint {
                year: 2019,
                month: 12
            })
        );
        assert_eq!(
            detect_cusum(&series, 0.05, 0.3),
            Some(ChangePoint {
                year: 2019,
                month: 12
            })
        );
    }

    #[test]
    fn flat_series_has_no_changepoint() {
        let series: Vec<MonthlySample> = (1..=12)
            .map(|m| sample(2019, m, 0.04 + (m as f64) * 0.001, 0.3))
            .collect();
        assert_eq!(detect_threshold(&series, 0.15), None);
        assert_eq!(detect_cusum(&series, 0.05, 0.3), None);
    }

    #[test]
    fn ns_jump_without_minimized_names_is_rejected() {
        // e.g. a monitoring burst of apex-NS queries, not Q-min
        let mut series: Vec<MonthlySample> = (1..=6).map(|m| sample(2019, m, 0.04, 0.3)).collect();
        for m in 7..=12 {
            series.push(sample(2019, m, 0.5, 0.2)); // NS up, not minimized
        }
        assert_eq!(detect_threshold(&series, 0.15), None);
        assert_eq!(detect_cusum(&series, 0.05, 0.3), None);
    }

    #[test]
    fn cusum_tolerates_incident_dip() {
        // Figure 3b: Feb 2020 incident floods A/AAAA, diluting NS share
        // for one month after deployment; detection must survive it.
        let mut series = google_like();
        let feb = series
            .iter_mut()
            .find(|s| (s.year, s.month) == (2020, 2))
            .unwrap();
        feb.ns_share = 0.18;
        feb.address_share = 0.78;
        assert_eq!(
            detect_cusum(&series, 0.05, 0.3),
            Some(ChangePoint {
                year: 2019,
                month: 12
            })
        );
    }

    #[test]
    fn short_series_handled() {
        assert_eq!(detect_threshold(&[], 0.1), None);
        assert_eq!(detect_cusum(&[], 0.05, 0.3), None);
        let one = vec![sample(2019, 1, 0.5, 0.9)];
        assert_eq!(detect_threshold(&one, 0.1), None);
    }

    #[test]
    fn monthly_sample_from_counters() {
        let mut c = QtypeCounts::default();
        c.add(RType::A, 40);
        c.add(RType::Aaaa, 10);
        c.add(RType::Ns, 50);
        let s = MonthlySample::from_counters(2019, 12, &c, 45);
        assert_eq!(s.total, 100);
        assert!((s.ns_share - 0.5).abs() < 1e-12);
        assert!((s.minimized_ns_share - 0.9).abs() < 1e-12);
        assert!((s.address_share - 0.5).abs() < 1e-12);
        assert_eq!(s.qtype_counts[0].0, "NS");
    }
}
