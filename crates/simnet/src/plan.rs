//! The demand plan: how much every fleet sends in every hourly slot,
//! which of those demand events are junk, what an incident adds, and
//! the small change every question is made of.
//!
//! Table 4's provider shares and Figure 4's junk ratios hold in this
//! reproduction *by construction*, and this module is that
//! construction. The calibrated sampler ([`crate::engine`]), the
//! emergent resolver fleet ([`crate::emerge`]) and the live
//! [`crate::drive::Driver`] all steer by it, so the planes differ only
//! in who answers a demand event — never in how many there are, when
//! they fall, or which are junk.

use crate::engine::Engine;
use crate::fleet::Fleet;
use crate::scenario::Incident;
use dns_wire::name::Name;
use dns_wire::types::RType;
use netbase::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use zonedb::junk::JunkGenerator;

/// The plan's unit of time: quotas, RNG streams, resolver caches and
/// RRL state are all per hourly slot.
const SLOT: SimDuration = SimDuration::from_hours(1);

/// Per-fleet query quotas over the dataset's hourly slots: a fleet's
/// target is its `traffic_share` of the scaled total, spread by the
/// diurnal/weekly load shape as a rounded cumulative quota, so the slot
/// quotas telescope to the target exactly.
pub(crate) struct SlotPlan {
    start: SimTime,
    /// Share of a target due by the end of each slot; the last is 1.
    cum_weights: Vec<f64>,
    /// Query targets over the whole window, in fleet order.
    targets: Vec<u64>,
}

impl SlotPlan {
    /// The plan for `engine`'s dataset at its scale.
    pub(crate) fn new(engine: &Engine) -> SlotPlan {
        let spec = engine.spec();
        let shares = engine.fleets().iter().map(|f| f.spec.traffic_share);
        SlotPlan::build(spec.start, spec.days, shares, engine.scaled_total())
    }

    fn build(start: SimTime, days: u32, shares: impl Iterator<Item = f64>, total: u64) -> SlotPlan {
        let weights: Vec<f64> = (0..days as u64 * 24)
            .map(|s| diurnal_weight(start + SimDuration::from_hours(s)))
            .collect();
        let wsum: f64 = weights.iter().sum();
        let mut cum = 0.0;
        let cum_weights = weights
            .iter()
            .map(|w| {
                cum += w;
                cum / wsum
            })
            .collect();
        SlotPlan {
            start,
            cum_weights,
            targets: shares.map(|s| (s * total as f64).round() as u64).collect(),
        }
    }

    /// Hourly slots in the dataset's window.
    pub(crate) fn slots(&self) -> usize {
        self.cum_weights.len()
    }

    /// The instant `slot` begins.
    pub(crate) fn slot_start(&self, slot: usize) -> SimTime {
        self.start + SimDuration::from_hours(slot as u64)
    }

    /// Queries fleet `fi` owes over the first `slots` slots.
    fn due(&self, fi: usize, slots: usize) -> u64 {
        match slots {
            0 => 0,
            n => (self.targets[fi] as f64 * self.cum_weights[n - 1]).round() as u64,
        }
    }

    /// The steering cursor for fleet `fi` in `slot`.
    pub(crate) fn steer(&self, fi: usize, slot: usize, junk_ratio: f64) -> Steering {
        let base = self.due(fi, slot);
        let quota = self.due(fi, slot + 1).saturating_sub(base);
        Steering {
            slot_start: self.slot_start(slot),
            junk_ratio,
            base,
            quota,
            done: 0,
            attempts: 0,
            max_attempts: quota.saturating_mul(60).max(1000),
            flood: None,
        }
    }

    /// What the dataset's incidents add to `slot`: for each one whose
    /// window overlaps it, a cursor over an even per-slot split of the
    /// scaled flood.
    pub(crate) fn floods<'a>(
        &self,
        engine: &'a Engine,
        slot: usize,
    ) -> impl Iterator<Item = Steering> + 'a {
        let slot_start = self.slot_start(slot);
        engine.spec().incidents.iter().filter_map(move |incident| {
            let Incident::CyclicDependency {
                start,
                end,
                total_queries,
                domain_indices,
            } = incident;
            if slot_start + SLOT <= *start || slot_start >= *end {
                return None;
            }
            let window_slots = ((end.as_micros() - start.as_micros()) / SLOT.as_micros()).max(1);
            let scaled = (*total_queries as f64 * engine.scale().queries) as u64;
            let quota = scaled / window_slots;
            Some(Steering {
                slot_start,
                junk_ratio: 0.0,
                base: 0,
                quota,
                done: 0,
                attempts: 0,
                // an event is at least one vantage query, so the cap
                // never binds before the quota
                max_attempts: quota.max(100),
                flood: Some(*domain_indices),
            })
        })
    }
}

/// Index of the fleet incident floods come from: Google's public
/// resolvers (§4.2.1), or the first fleet of a dataset without them.
pub(crate) fn flood_fleet(engine: &Engine) -> usize {
    let is_google = |f: &Fleet| f.spec.name == "google-public";
    engine.fleets().iter().position(is_google).unwrap_or(0)
}

/// One fleet's demand events for one slot: keeps asking until the
/// vantage queries they produced meet the slot quota. An event may
/// produce none (a resolver cache absorbed it) or several (TCP retries,
/// DNSSEC follow-ups, a resolver walk), so the caller reports back
/// through [`Steering::emitted`].
pub(crate) struct Steering {
    slot_start: SimTime,
    junk_ratio: f64,
    /// Queries the fleet owed before this slot: the junk lattice's
    /// anchor, so the mix holds without any cross-slot state.
    base: u64,
    quota: u64,
    done: u64,
    attempts: u64,
    max_attempts: u64,
    /// An incident flood's cursor: the registration indices of the two
    /// cyclically dependent domains its events hammer.
    flood: Option<[u64; 2]>,
}

impl Steering {
    /// The next demand event — a uniform instant inside the slot and
    /// whether it must be junk — or `None` once the quota is met (or,
    /// against caches that absorb everything, the attempt cap).
    pub(crate) fn next(&mut self, rng: &mut StdRng) -> Option<(SimTime, bool)> {
        if self.done >= self.quota || self.attempts >= self.max_attempts {
            return None;
        }
        self.attempts += 1;
        let t = self.slot_start + SimDuration::from_micros(rng.gen_range(0..SLOT.as_micros()));
        Some((t, junk_due(self.junk_ratio, self.base + self.done)))
    }

    /// Report the vantage queries the last event produced.
    pub(crate) fn emitted(&mut self, queries: u64) {
        self.done += queries;
    }

    /// Vantage queries produced so far.
    pub(crate) fn done(&self) -> u64 {
        self.done
    }

    /// On a flood's cursor, what the event [`Steering::next`] yielded
    /// last asks for: cache-defeating A/AAAA queries alternating over
    /// the two domains (by registration index).
    pub(crate) fn flood_target(&self) -> Option<(u64, RType)> {
        let [first, second] = self.flood?;
        Some(match self.attempts % 2 {
            1 => (first, RType::A),
            _ => (second, RType::Aaaa),
        })
    }
}

/// Whether the demand event after `sent` vantage queries must be junk.
/// `junk_ratio` is a *server-side* target (Figure 4 is measured at the
/// vantage), so junk is steered onto the integer lattice of the
/// cumulative ratio: `⌊ratio·n⌋` of any first `n` queries are junk, and
/// cache absorption of valid demand cannot skew the mix.
pub(crate) fn junk_due(junk_ratio: f64, sent: u64) -> bool {
    (junk_ratio * (sent + 1) as f64).floor() > (junk_ratio * sent as f64).floor()
}

/// A junk demand event: a name that will not resolve, asked for an
/// address.
pub(crate) fn junk_question(junk: &JunkGenerator, rng: &mut StdRng) -> (Name, RType) {
    let (name, _) = junk.sample(rng);
    let qtype = if rng.gen_bool(0.9) {
        RType::A
    } else {
        RType::Aaaa
    };
    (name, qtype)
}

/// A host under the registered domain `base`. Deep names are what make
/// the minimized-qname evidence informative: without Q-min a good share
/// of queries at the vantage carry more labels than the delegation.
pub(crate) fn deep_name(base: Name, rng: &mut StdRng) -> Name {
    let sub: &[u8] = [&b"www"[..], b"mail", b"api", b"cdn", b"img"][rng.gen_range(0..5usize)];
    base.child(sub).unwrap_or(base)
}

/// Diurnal + weekly load shape (cf. "When the Internet Sleeps").
fn diurnal_weight(t: SimTime) -> f64 {
    let h = t.hour_of_day_f64();
    let day = t.weekday();
    let daily = 1.0 + 0.35 * ((h - 14.0) / 24.0 * std::f64::consts::TAU).cos();
    let weekly = if day >= 5 { 0.92 } else { 1.0 };
    daily * weekly
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Table 4 and Figure 4 by construction: every fleet's slot
        /// quotas sum exactly to its target, and — one query per demand
        /// event — exactly `⌊ratio·target⌋` of its events are junk,
        /// whatever the shares, the total and the window.
        #[test]
        fn quotas_telescope_and_the_lattice_holds(
            shares in prop::collection::vec(0.0f64..1.0, 1..6),
            total in 0u64..30_000,
            days in 1u32..=9,
            day in 0u64..1_000,
            junk_ratio in 0.0f64..0.95,
            seed in any::<u64>(),
        ) {
            let start = SimTime::from_date(2018, 1, 1) + SimDuration::from_hours(24 * day);
            let plan = SlotPlan::build(start, days, shares.iter().copied(), total);
            prop_assert_eq!(plan.slots(), days as usize * 24);
            let mut rng = StdRng::seed_from_u64(seed);
            for (fi, share) in shares.iter().enumerate() {
                let target = (share * total as f64).round() as u64;
                let (mut sent, mut junk) = (0u64, 0u64);
                for slot in 0..plan.slots() {
                    let mut steer = plan.steer(fi, slot, junk_ratio);
                    while let Some((t, want_junk)) = steer.next(&mut rng) {
                        prop_assert!(t >= plan.slot_start(slot) && t < plan.slot_start(slot + 1));
                        junk += want_junk as u64;
                        steer.emitted(1);
                    }
                    sent += steer.done();
                }
                prop_assert_eq!(sent, target);
                prop_assert_eq!(junk, (junk_ratio * target as f64).floor() as u64);
            }
        }
    }
}
