//! Response Rate Limiting (RRL), after Vixie & Schryver's scheme as
//! deployed on TLD authoritatives.
//!
//! §4.4 of the paper names RRL as the *other* driver of DNS-over-TCP
//! (besides truncation): a resolver that trips an authoritative's rate
//! limit receives a fraction of its answers as TC=1 "slips" — proving
//! it is not a spoofing victim requires retrying over TCP — and the
//! rest are silently dropped.
//!
//! The classic algorithm: responses are bucketed by *(masked source
//! network, response class)*; each bucket holds a token balance that
//! refills at the configured rate. When a bucket is exhausted, every
//! `slip`-th response is a truncated slip and the others are dropped.

use netbase::time::SimTime;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;

/// What the limiter tells the responder to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrlAction {
    /// Send the real response.
    Respond,
    /// Send a minimal truncated response (TC=1): the "slip".
    Slip,
    /// Send nothing.
    Drop,
}

/// The response class half of the bucket key (different classes have
/// different amplification value to an attacker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseClass {
    /// A positive answer or referral for one owner name (hashed).
    Positive(u64),
    /// A negative (NXDOMAIN/NODATA) answer from one zone.
    Negative,
    /// An error (REFUSED, FORMERR...).
    Error,
}

/// RRL configuration.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct RrlConfig {
    /// Tokens per second per bucket (the `responses-per-second` knob).
    pub responses_per_second: u32,
    /// Maximum token balance (burst allowance), in responses.
    pub burst: u32,
    /// Every `slip`-th limited response is a TC=1 slip instead of a
    /// drop; 0 means never slip (pure drop), 1 means always slip.
    pub slip: u32,
    /// IPv4 mask length for source aggregation (BIND default 24).
    pub ipv4_prefix_len: u8,
    /// IPv6 mask length (BIND default 56).
    pub ipv6_prefix_len: u8,
}

impl Default for RrlConfig {
    fn default() -> Self {
        RrlConfig {
            responses_per_second: 5,
            burst: 15,
            slip: 2,
            ipv4_prefix_len: 24,
            ipv6_prefix_len: 56,
        }
    }
}

#[derive(Debug)]
struct Bucket {
    /// Token balance in millitokens (1000 = one response).
    balance_milli: i64,
    last_refill: SimTime,
    limited_count: u64,
}

/// The rate limiter state.
pub struct RateLimiter {
    config: RrlConfig,
    buckets: HashMap<(u128, ResponseClass), Bucket>,
    /// The fewest buckets at which a full table is swept again.
    sweep_at: usize,
}

impl RateLimiter {
    /// Build with the given configuration.
    pub fn new(config: RrlConfig) -> Self {
        RateLimiter {
            config,
            buckets: HashMap::new(),
            sweep_at: 0,
        }
    }

    /// Decide the fate of one response to `src` of `class` at `now`.
    pub fn check(&mut self, src: IpAddr, class: ResponseClass, now: SimTime) -> RrlAction {
        let key = (self.mask(src), class);
        let len = self.buckets.len();
        if len == self.buckets.capacity()
            && len >= self.sweep_at
            && !self.buckets.contains_key(&key)
        {
            self.age_out(now);
        }
        let cfg = self.config;
        let bucket = self.buckets.entry(key).or_insert(Bucket {
            balance_milli: cfg.burst as i64 * 1000,
            last_refill: now,
            limited_count: 0,
        });
        // refill
        let elapsed_us = now
            .as_micros()
            .saturating_sub(bucket.last_refill.as_micros());
        let refill = (elapsed_us as i64) * (cfg.responses_per_second as i64) / 1000; // millitokens
        bucket.balance_milli = (bucket.balance_milli + refill).min(cfg.burst as i64 * 1000);
        bucket.last_refill = now;

        if bucket.balance_milli >= 1000 {
            bucket.balance_milli -= 1000;
            bucket.limited_count = 0;
            return RrlAction::Respond;
        }
        bucket.limited_count += 1;
        if cfg.slip > 0 && bucket.limited_count.is_multiple_of(cfg.slip as u64) {
            RrlAction::Slip
        } else {
            RrlAction::Drop
        }
    }

    /// Active bucket count (for memory accounting).
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Microseconds after its last refill at which a bucket is back at
    /// `burst`: from then on it decides as a fresh bucket would, since
    /// a full balance answers and resets the limited count. `None` when
    /// buckets never refill (rate 0) or never answer (burst 0), where a
    /// bucket's state outlives any idle time.
    fn idle_window_us(&self) -> Option<u64> {
        let RrlConfig {
            responses_per_second: rate,
            burst,
            ..
        } = self.config;
        (rate > 0 && burst > 0).then(|| (u64::from(burst) * 1_000_000).div_ceil(u64::from(rate)))
    }

    /// Drop the buckets idle for a whole window before `now`; runs when
    /// a new bucket would otherwise grow the table. Decisions are those
    /// of a limiter that never ages as long as `now` does not run
    /// backwards. The next sweep waits until the live buckets have
    /// doubled, so a sweep that frees little lets the table grow and
    /// sweeps stay amortised O(1) per bucket.
    fn age_out(&mut self, now: SimTime) {
        let Some(window) = self.idle_window_us() else {
            return;
        };
        let now = now.as_micros();
        self.buckets
            .retain(|_, b| now.saturating_sub(b.last_refill.as_micros()) < window);
        self.sweep_at = 2 * self.buckets.len();
    }

    fn mask(&self, src: IpAddr) -> u128 {
        mask_src(&self.config, src)
    }
}

/// Aggregate the source address into its bucket network under `cfg`'s
/// prefix lengths. Exposed so sharded deployments route a source to the
/// shard that owns its bucket.
pub fn mask_src(cfg: &RrlConfig, src: IpAddr) -> u128 {
    match src {
        IpAddr::V4(v4) => {
            let bits = u32::from(v4);
            let keep = cfg.ipv4_prefix_len.min(32) as u32;
            let masked = if keep == 0 {
                0
            } else {
                bits & (u32::MAX << (32 - keep))
            };
            masked as u128
        }
        IpAddr::V6(v6) => {
            let bits = u128::from(v6);
            let keep = cfg.ipv6_prefix_len.min(128) as u32;
            let masked = if keep == 0 {
                0
            } else {
                bits & (u128::MAX << (128 - keep))
            };
            // disambiguate from v4 keys
            masked | (1u128 << 127) | 0x6
        }
    }
}

/// Anything that can decide the fate of one response — the serial
/// [`RateLimiter`], a shard handle of a [`ShardedRateLimiter`], or a
/// test double. `authd`'s respond path is generic over this so the
/// single-threaded and sharded servers share one code path.
pub trait RrlGate {
    /// Decide the fate of one response to `src` of `class` at `now`.
    fn gate(&mut self, src: IpAddr, class: ResponseClass, now: SimTime) -> RrlAction;
}

impl RrlGate for RateLimiter {
    fn gate(&mut self, src: IpAddr, class: ResponseClass, now: SimTime) -> RrlAction {
        self.check(src, class, now)
    }
}

impl RrlGate for &ShardedRateLimiter {
    fn gate(&mut self, src: IpAddr, class: ResponseClass, now: SimTime) -> RrlAction {
        ShardedRateLimiter::check(self, src, class, now)
    }
}

/// A [`RateLimiter`] sharded by bucket key for concurrent servers.
///
/// Every bucket — *(masked source network, response class)* — lives in
/// exactly one shard, chosen by a stable hash of the key, so the
/// decision sequence for any bucket is byte-identical to a serial
/// limiter fed the same trace: two queries contend on a shard lock only
/// when they would have contended on the same token bucket anyway
/// (or hash-collide, which affects latency, never decisions).
pub struct ShardedRateLimiter {
    config: RrlConfig,
    shards: Vec<Mutex<RateLimiter>>,
}

impl ShardedRateLimiter {
    /// Build with `shards` independent limiters (minimum 1).
    pub fn new(config: RrlConfig, shards: usize) -> Self {
        let n = shards.max(1);
        ShardedRateLimiter {
            config,
            shards: (0..n)
                .map(|_| Mutex::new(RateLimiter::new(config)))
                .collect(),
        }
    }

    /// Shard index owning `src`/`class`'s bucket (FNV-1a over the key).
    pub fn shard_of(&self, src: IpAddr, class: ResponseClass) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in mask_src(&self.config, src).to_le_bytes() {
            mix(b);
        }
        let (tag, val) = match class {
            ResponseClass::Positive(owner) => (1u8, owner),
            ResponseClass::Negative => (2, 0),
            ResponseClass::Error => (3, 0),
        };
        mix(tag);
        for b in val.to_le_bytes() {
            mix(b);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Decide the fate of one response, locking only the owning shard.
    pub fn check(&self, src: IpAddr, class: ResponseClass, now: SimTime) -> RrlAction {
        let shard = self.shard_of(src, class);
        self.shards[shard]
            .lock()
            .expect("rrl shard poisoned")
            .check(src, class, now)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total active buckets across shards.
    pub fn buckets(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("rrl shard poisoned").buckets())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbase::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_unix_secs(1_000_000 + secs)
    }

    #[test]
    fn under_rate_always_responds() {
        let mut rrl = RateLimiter::new(RrlConfig::default());
        let src: IpAddr = "192.0.2.55".parse().unwrap();
        for i in 0..100 {
            // 2/sec against a 5/sec limit
            let now = t(i / 2);
            assert_eq!(
                rrl.check(src, ResponseClass::Negative, now),
                RrlAction::Respond,
                "i={i}"
            );
        }
    }

    #[test]
    fn burst_exhaustion_limits() {
        let mut rrl = RateLimiter::new(RrlConfig {
            slip: 2,
            ..RrlConfig::default()
        });
        let src: IpAddr = "192.0.2.55".parse().unwrap();
        let now = t(0);
        // burst = 15 tokens available instantly
        for _ in 0..15 {
            assert_eq!(
                rrl.check(src, ResponseClass::Negative, now),
                RrlAction::Respond
            );
        }
        // now limited: slip every 2nd
        let mut slips = 0;
        let mut drops = 0;
        for _ in 0..10 {
            match rrl.check(src, ResponseClass::Negative, now) {
                RrlAction::Slip => slips += 1,
                RrlAction::Drop => drops += 1,
                RrlAction::Respond => panic!("bucket must be empty"),
            }
        }
        assert_eq!(slips, 5);
        assert_eq!(drops, 5);
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut rrl = RateLimiter::new(RrlConfig::default());
        let src: IpAddr = "192.0.2.55".parse().unwrap();
        let now = t(0);
        for _ in 0..15 {
            rrl.check(src, ResponseClass::Negative, now);
        }
        assert_ne!(
            rrl.check(src, ResponseClass::Negative, now),
            RrlAction::Respond
        );
        // 2 seconds later: 10 tokens refilled
        let later = now + SimDuration::from_secs(2);
        for i in 0..10 {
            assert_eq!(
                rrl.check(src, ResponseClass::Negative, later),
                RrlAction::Respond,
                "i={i}"
            );
        }
        assert_ne!(
            rrl.check(src, ResponseClass::Negative, later),
            RrlAction::Respond
        );
    }

    #[test]
    fn source_networks_are_independent() {
        let mut rrl = RateLimiter::new(RrlConfig::default());
        let a: IpAddr = "192.0.2.55".parse().unwrap();
        let b: IpAddr = "198.51.100.9".parse().unwrap();
        let now = t(0);
        for _ in 0..20 {
            rrl.check(a, ResponseClass::Negative, now);
        }
        assert_eq!(
            rrl.check(b, ResponseClass::Negative, now),
            RrlAction::Respond
        );
        assert_eq!(rrl.buckets(), 2);
    }

    #[test]
    fn same_slash24_shares_a_bucket() {
        let mut rrl = RateLimiter::new(RrlConfig::default());
        let a: IpAddr = "192.0.2.55".parse().unwrap();
        let b: IpAddr = "192.0.2.200".parse().unwrap();
        let now = t(0);
        for _ in 0..15 {
            rrl.check(a, ResponseClass::Negative, now);
        }
        assert_ne!(
            rrl.check(b, ResponseClass::Negative, now),
            RrlAction::Respond,
            "same /24 shares the bucket"
        );
        assert_eq!(rrl.buckets(), 1);
    }

    #[test]
    fn response_classes_are_independent() {
        let mut rrl = RateLimiter::new(RrlConfig::default());
        let src: IpAddr = "192.0.2.55".parse().unwrap();
        let now = t(0);
        for _ in 0..15 {
            rrl.check(src, ResponseClass::Negative, now);
        }
        assert_eq!(
            rrl.check(src, ResponseClass::Positive(42), now),
            RrlAction::Respond,
            "positive answers have their own budget"
        );
    }

    #[test]
    fn v4_and_v6_never_collide() {
        let mut rrl = RateLimiter::new(RrlConfig::default());
        let v4: IpAddr = "0.0.0.0".parse().unwrap();
        let v6: IpAddr = "::".parse().unwrap();
        let now = t(0);
        rrl.check(v4, ResponseClass::Error, now);
        rrl.check(v6, ResponseClass::Error, now);
        assert_eq!(rrl.buckets(), 2);
    }

    /// A fixed mixed trace: many sources across a handful of /24s and
    /// classes, bursty enough to exercise Respond, Slip, and Drop.
    fn fixed_trace() -> Vec<(IpAddr, ResponseClass, SimTime)> {
        let mut trace = Vec::new();
        let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic LCG
        for i in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let net = (state >> 16) % 6;
            let host = (state >> 32) % 200;
            let src: IpAddr = if net == 5 {
                format!("2001:db8:{:x}::{:x}", (state >> 8) % 4, host + 1)
                    .parse()
                    .unwrap()
            } else {
                format!("192.0.{net}.{host}").parse().unwrap()
            };
            let class = match (state >> 48) % 4 {
                0 => ResponseClass::Negative,
                1 => ResponseClass::Error,
                n => ResponseClass::Positive(n * 7),
            };
            // ~400 queries per simulated second across ~36
            // (network, class) buckets: ~11/s per bucket, well over
            // the 5/s refill, so buckets deplete and slip/drop fire
            trace.push((src, class, t(i / 400)));
        }
        trace
    }

    #[test]
    fn sharded_decisions_match_serial_on_a_fixed_trace() {
        for shards in [1, 3, 8] {
            let mut serial = RateLimiter::new(RrlConfig::default());
            let sharded = ShardedRateLimiter::new(RrlConfig::default(), shards);
            let trace = fixed_trace();
            let serial_actions: Vec<RrlAction> = trace
                .iter()
                .map(|&(src, class, now)| serial.check(src, class, now))
                .collect();
            let sharded_actions: Vec<RrlAction> = trace
                .iter()
                .map(|&(src, class, now)| sharded.check(src, class, now))
                .collect();
            assert_eq!(
                serial_actions, sharded_actions,
                "shards={shards}: decision sequences diverge"
            );
            assert_eq!(sharded.buckets(), serial.buckets());
            // the trace actually exercised every action
            for action in [RrlAction::Respond, RrlAction::Slip, RrlAction::Drop] {
                assert!(
                    sharded_actions.contains(&action),
                    "{action:?} never occurred"
                );
            }
        }
    }

    #[test]
    fn sharded_gate_trait_routes_to_the_owning_shard() {
        let sharded = ShardedRateLimiter::new(RrlConfig::default(), 4);
        let src: IpAddr = "192.0.2.55".parse().unwrap();
        let now = t(0);
        let mut gate = &sharded;
        for _ in 0..15 {
            assert_eq!(
                gate.gate(src, ResponseClass::Negative, now),
                RrlAction::Respond
            );
        }
        assert_ne!(
            gate.gate(src, ResponseClass::Negative, now),
            RrlAction::Respond
        );
        // only one bucket exists, in exactly one shard
        assert_eq!(sharded.buckets(), 1);
    }

    #[test]
    fn idle_buckets_make_room_before_the_table_grows() {
        let mut rrl = RateLimiter::new(RrlConfig::default());
        let window = SimDuration::from_micros(rrl.idle_window_us().unwrap());
        let v4 = |i: u32| IpAddr::V4((0x0a00_0000 + (i << 8)).into());
        for i in 0..512 {
            assert_eq!(
                rrl.check(v4(i), ResponseClass::Negative, t(0)),
                RrlAction::Respond
            );
        }
        let capacity = rrl.buckets.capacity();
        for i in 512..1024 {
            assert_eq!(
                rrl.check(v4(i), ResponseClass::Negative, t(0) + window),
                RrlAction::Respond
            );
        }
        // the slots the sweep freed may still count as used (tombstones),
        // so the reading can fall; a table that grew would read 1,792
        assert!(rrl.buckets.capacity() <= capacity);
        assert_eq!(rrl.buckets(), 512, "the first 512 buckets aged out");
    }

    #[test]
    fn buckets_never_age_without_a_refill_or_a_burst() {
        for (responses_per_second, burst) in [(0, 15), (5, 0)] {
            let mut rrl = RateLimiter::new(RrlConfig {
                responses_per_second,
                burst,
                ..RrlConfig::default()
            });
            assert_eq!(rrl.idle_window_us(), None);
            for i in 0..100u32 {
                let src = IpAddr::V4((i << 8).into());
                rrl.check(src, ResponseClass::Error, t(u64::from(i) * 1000));
            }
            assert_eq!(rrl.buckets(), 100);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// An ageing limiter decides exactly as one that never ages. The oracle never ages because its table is
        /// reserved past the stream's length, so it is never full. A
        /// case draws from 1-39 source networks, so buckets deplete,
        /// go idle, age out and come back.
        #[test]
        fn ageing_limiter_matches_one_that_never_ages(
            responses_per_second in 0u32..6,
            burst in 0u32..5,
            slip in 0u32..4,
            nets in 1u32..40,
            events in proptest::prelude::prop::collection::vec(
                (proptest::prelude::any::<u32>(), 0u64..3, 0u64..5, 0u64..400_000),
                1..400,
            ),
        ) {
            let config = RrlConfig {
                responses_per_second,
                burst,
                slip,
                ..RrlConfig::default()
            };
            let mut ageing = RateLimiter::new(config);
            let mut oracle = RateLimiter::new(config);
            oracle.buckets.reserve(events.len());
            let mut now = t(0);
            for (net, class, pause, step_us) in events {
                // one step in five is a pause of up to a few seconds
                now += SimDuration::from_micros(if pause == 0 { step_us * 10 } else { step_us / 4 });
                let net = net % nets;
                let src = if net % 3 == 0 {
                    IpAddr::V6((u128::from(net) << 72).into())
                } else {
                    IpAddr::V4((net << 8).into())
                };
                let class = match class {
                    0 => ResponseClass::Negative,
                    1 => ResponseClass::Error,
                    n => ResponseClass::Positive(n),
                };
                proptest::prop_assert_eq!(
                    ageing.check(src, class, now),
                    oracle.check(src, class, now)
                );
            }
            proptest::prop_assert!(ageing.buckets() <= oracle.buckets());
        }
    }

    #[test]
    fn slip_zero_means_pure_drop() {
        let mut rrl = RateLimiter::new(RrlConfig {
            slip: 0,
            ..RrlConfig::default()
        });
        let src: IpAddr = "192.0.2.55".parse().unwrap();
        let now = t(0);
        for _ in 0..15 {
            rrl.check(src, ResponseClass::Negative, now);
        }
        for _ in 0..10 {
            assert_eq!(
                rrl.check(src, ResponseClass::Negative, now),
                RrlAction::Drop
            );
        }
    }
}
