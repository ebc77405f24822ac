//! Calibration tables: per-provider, per-vantage, per-year resolver
//! fleet behaviour, encoded from the paper's published aggregates.
//!
//! Sources, by field:
//! - `traffic_share`: Figure 1 (cloud query ratio), anchored on Table 4
//!   and Table 7 for Google's absolute volumes.
//! - `v6_*`, `tcp_extra`: Table 5 (query distribution per CP).
//! - `resolver_count`, `v6_resolver_frac`: Table 6 and Table 4.
//! - `edns_dist`: Figure 6 (EDNS(0) UDP size CDF) and §4.4 truncation
//!   rates (truncation itself is mechanistic — see `auth`).
//! - `qmin_from` / `qmin_frac`: §4.2.1 / Figure 3 — Google's rollout in
//!   Dec 2019 is the paper's confirmed date; the other adopters'
//!   (Cloudflare, Facebook, and Amazon-at-`.nz`) dates are not published,
//!   so representative dates inside the observed windows are used and
//!   recorded in EXPERIMENTS.md.
//! - `validates`, `ds_prob`: §4.2.2 (all CPs validate except one —
//!   Microsoft; Cloudflare DS-heavy; Google's DS share diluted).
//! - `junk_ratio`: Figure 4.

use asdb::cloud::Provider;
use dns_wire::types::RType;
use netbase::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A measurement vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vantage {
    /// The `.nl` ccTLD authoritative servers (2 analyzed).
    Nl,
    /// The `.nz` ccTLD authoritative servers (6 analyzed).
    Nz,
    /// B-Root (DITL one-day samples).
    BRoot,
}

impl Vantage {
    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Vantage::Nl => ".nl",
            Vantage::Nz => ".nz",
            Vantage::BRoot => "B-Root",
        }
    }
}

/// When each provider deployed QNAME minimization, as modelled.
/// Google's date is the one the paper verified with Google operators
/// (Dec 2019); the others are representative (see module docs).
pub fn qmin_start(provider: Provider) -> Option<SimTime> {
    match provider {
        Provider::Google => Some(SimTime::from_date(2019, 12, 1)),
        Provider::Cloudflare => Some(SimTime::from_date(2019, 2, 1)),
        Provider::Facebook => Some(SimTime::from_date(2019, 9, 1)),
        // Amazon's NS growth is only observed at .nz by w2020; the .nz
        // fleet spec opts in, .nl does not.
        Provider::Amazon => Some(SimTime::from_date(2020, 2, 15)),
        Provider::Microsoft => None,
    }
}

/// One Facebook-style anycast site: weight and per-server RTTs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteSpec {
    /// Airport-style site code, embedded in PTR names.
    pub code: String,
    /// Share of the fleet's queries originating at this site.
    pub weight: f64,
    /// Per-analyzed-server IPv4 RTT, milliseconds.
    pub rtt_v4_ms: Vec<f64>,
    /// Per-analyzed-server IPv6 RTT, milliseconds.
    pub rtt_v6_ms: Vec<f64>,
    /// Site-local EDNS size distribution override.
    pub edns_dist: Option<Vec<(u16, f64)>>,
    /// Site-local extra-TCP override (site 1 sends none).
    pub tcp_extra: Option<f64>,
}

/// A resolver fleet: the unit of traffic generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Stable name, e.g. `google-public`, `amazon`, `other-isp`.
    pub name: String,
    /// Owning cloud provider, if any.
    pub provider: Option<Provider>,
    /// Draw source addresses from the provider's public-DNS ranges.
    pub public_dns: bool,
    /// Resolver population (already scaled).
    pub resolver_count: u32,
    /// Fraction of the dataset's total queries this fleet sends.
    pub traffic_share: f64,
    /// Fraction of resolvers numbered from IPv6 space (ignored for
    /// dual-stack fleets).
    pub v6_resolver_frac: f64,
    /// Activity multiplier for IPv6 resolvers (lets a small v6
    /// population carry a configured traffic share, cf. Table 6 vs 5).
    pub v6_activity_boost: f64,
    /// Dual-stack fleet: every resolver has both addresses and picks a
    /// family per query by RTT preference (Facebook, §4.3).
    pub dual_stack: bool,
    /// Logistic bias towards IPv6 for dual-stack family choice.
    pub v6_bias: f64,
    /// Base qtype mix (weights; DS/DNSKEY arise mechanistically).
    pub qtype_mix: Vec<(RType, f64)>,
    /// Fraction of demand that is junk (non-NOERROR), Figure 4.
    pub junk_ratio: f64,
    /// EDNS(0) advertised-size distribution; size 0 means "no EDNS".
    pub edns_dist: Vec<(u16, f64)>,
    /// Fraction of resolvers setting the DO bit.
    pub do_bit_frac: f64,
    /// Fleet validates DNSSEC (sends DS/DNSKEY follow-ups).
    pub validates: bool,
    /// P(DS follow-up | NOERROR referral for a signed delegation).
    pub ds_prob: f64,
    /// P(DNSKEY query at the zone apex | emission).
    pub dnskey_prob: f64,
    /// Baseline TCP fraction beyond truncation-driven fallback.
    pub tcp_extra: f64,
    /// QNAME-minimization activation instant, if the fleet ever adopts.
    pub qmin_from: Option<SimTime>,
    /// Fraction of eligible queries minimized once active.
    pub qmin_frac: f64,
    /// Anycast sites (empty = one implicit site without PTR records).
    pub sites: Vec<SiteSpec>,
    /// Positive-cache TTL applied by resolvers.
    pub cache_ttl: SimDuration,
    /// Zipf exponent of per-resolver activity skew.
    pub activity_skew: f64,
    /// Fraction of resolvers applying 0x20 case randomization to
    /// qnames (an anti-spoofing measure; Google and Cloudflare do).
    pub case_randomization: f64,
}

impl FleetSpec {
    /// A neutral baseline fleet; provider builders below override.
    fn base(name: &str, resolver_count: u32, traffic_share: f64) -> FleetSpec {
        FleetSpec {
            name: name.to_string(),
            provider: None,
            public_dns: false,
            resolver_count: resolver_count.max(1),
            traffic_share,
            v6_resolver_frac: 0.25,
            v6_activity_boost: 1.0,
            dual_stack: false,
            v6_bias: 0.0,
            qtype_mix: standard_qtype_mix(),
            junk_ratio: 0.10,
            edns_dist: vec![(0, 0.10), (512, 0.15), (1232, 0.25), (4096, 0.50)],
            do_bit_frac: 0.40,
            validates: false,
            ds_prob: 0.0,
            dnskey_prob: 0.0,
            tcp_extra: 0.0,
            qmin_from: None,
            qmin_frac: 0.0,
            sites: Vec::new(),
            cache_ttl: SimDuration::from_secs(3600),
            activity_skew: 0.9,
            case_randomization: 0.0,
        }
    }

    /// Probability that a resolver at `site` sends a query over TCP
    /// outright: the site's own share where it has one (Table 5), the
    /// fleet's otherwise.
    pub fn tcp_extra_at(&self, site: usize) -> f64 {
        self.sites
            .get(site)
            .and_then(|s| s.tcp_extra)
            .unwrap_or(self.tcp_extra)
    }

    /// Is QNAME minimization active for this fleet at `t`?
    pub fn qmin_active(&self, t: SimTime) -> bool {
        matches!(self.qmin_from, Some(start) if t >= start && self.qmin_frac > 0.0)
    }
}

/// The generic qtype mix of pre-Q-min resolver streams (Figure 2's 2018
/// panels): A-dominated, substantial AAAA, mail/text tail.
pub fn standard_qtype_mix() -> Vec<(RType, f64)> {
    vec![
        (RType::A, 0.52),
        (RType::Aaaa, 0.22),
        (RType::Mx, 0.07),
        (RType::Txt, 0.05),
        (RType::Ns, 0.04),
        (RType::Soa, 0.03),
        (RType::Cname, 0.02),
        (RType::Srv, 0.02),
        (RType::Caa, 0.01),
        (RType::Any, 0.02),
    ]
}

/// Calendar year → the week index 0/1/2 used in per-year tables.
fn yi(year: u16) -> usize {
    match year {
        2018 => 0,
        2019 => 1,
        2020 => 2,
        other => panic!("no calibration for {other}"),
    }
}

/// Google: split into the Public DNS service and the rest of the cloud
/// (Table 4/7). Returns both fleets.
pub fn google_fleets(vantage: Vantage, year: u16) -> Vec<FleetSpec> {
    let y = yi(year);
    // Figure 1 shares anchored on Table 4/7 absolute volumes.
    let share = match vantage {
        Vantage::Nl => [0.150, 0.157, 0.132][y],
        Vantage::Nz => [0.075, 0.076, 0.072][y],
        Vantage::BRoot => [0.026, 0.031, 0.036][y],
    };
    // Public-DNS fraction of Google queries (Table 4: 86.5%/88.4% in
    // w2020; Table 7: 89.3%/84.4% in w2019).
    let pub_frac = match vantage {
        Vantage::Nl => [0.87, 0.893, 0.865][y],
        Vantage::Nz => [0.86, 0.844, 0.884][y],
        Vantage::BRoot => [0.87, 0.87, 0.87][y],
    };
    // Resolver populations (Table 4/7; 2018 extrapolated).
    let (pub_resolvers, rest_resolvers) = match vantage {
        Vantage::Nl => [(3400, 18600), (3581, 19763), (3750, 20193)][y],
        Vantage::Nz => [(3400, 15600), (3575, 16514), (3840, 17390)][y],
        Vantage::BRoot => [(3600, 21000), (3700, 22000), (3900, 24000)][y],
    };
    let v6 = match vantage {
        Vantage::Nl => [0.34, 0.51, 0.48][y],
        Vantage::Nz => [0.39, 0.46, 0.46][y],
        Vantage::BRoot => [0.36, 0.48, 0.47][y],
    };
    let junk = junk_ratio(Provider::Google, vantage, year);
    let mut public = FleetSpec::base("google-public", pub_resolvers, share * pub_frac);
    public.provider = Some(Provider::Google);
    public.public_dns = true;
    public.v6_resolver_frac = v6;
    public.junk_ratio = junk;
    public.edns_dist = vec![(1232, 0.24), (4096, 0.76)];
    public.do_bit_frac = 1.0;
    public.validates = true;
    // Table 4 + §4.2.2: ~10M DS of 1.8B Google queries at .nl w2020 —
    // the public validator's DS stream diluted by the whole cloud.
    public.ds_prob = 0.018;
    public.dnskey_prob = 0.0006;
    public.qmin_from = qmin_start(Provider::Google);
    public.qmin_frac = 0.55;
    public.activity_skew = 0.6;
    public.case_randomization = 1.0;

    let mut rest = FleetSpec::base("google-rest", rest_resolvers, share * (1.0 - pub_frac));
    rest.provider = Some(Provider::Google);
    rest.v6_resolver_frac = v6;
    rest.junk_ratio = junk * 1.3;
    rest.edns_dist = vec![(1232, 0.24), (4096, 0.76)];
    rest.do_bit_frac = 0.3;
    rest.validates = true;
    rest.ds_prob = 0.004;
    rest.qmin_from = qmin_start(Provider::Google);
    rest.qmin_frac = 0.25;
    rest.activity_skew = 1.1;
    vec![public, rest]
}

/// Amazon: almost entirely IPv4 (Table 5/6), a little TCP, validates
/// weakly, adopts Q-min only in the `.nz` stream by w2020.
pub fn amazon_fleet(vantage: Vantage, year: u16) -> FleetSpec {
    let y = yi(year);
    let share = match vantage {
        Vantage::Nl => [0.055, 0.060, 0.065][y],
        Vantage::Nz => [0.080, 0.085, 0.090][y],
        Vantage::BRoot => [0.014, 0.017, 0.020][y],
    };
    let resolvers = match vantage {
        Vantage::Nl => [33000, 36000, 38317][y],
        Vantage::Nz => [30000, 32500, 34645][y],
        Vantage::BRoot => [36000, 39000, 42000][y],
    };
    // Table 6: 1.8% (.nl) / 2.1% (.nz) of w2020 resolvers are IPv6,
    // carrying 3-4% of queries -> activity boost ~1.7.
    let (v6_res, v6_traffic) = match vantage {
        Vantage::Nl => [(0.0, 0.0), (0.012, 0.02), (0.018, 0.03)][y],
        Vantage::Nz => [(0.0, 0.0), (0.018, 0.03), (0.021, 0.04)][y],
        Vantage::BRoot => [(0.0, 0.0), (0.015, 0.025), (0.02, 0.035)][y],
    };
    let tcp: f64 = match vantage {
        Vantage::Nl => [0.0, 0.02, 0.05][y],
        Vantage::Nz => [0.02, 0.04, 0.05][y],
        Vantage::BRoot => [0.01, 0.02, 0.03][y],
    };
    let mut f = FleetSpec::base("amazon", resolvers, share);
    f.provider = Some(Provider::Amazon);
    f.v6_resolver_frac = v6_res;
    f.v6_activity_boost = if v6_res > 0.0 {
        v6_traffic / v6_res
    } else {
        1.0
    };
    f.junk_ratio = junk_ratio(Provider::Amazon, vantage, year);
    f.edns_dist = vec![(512, 0.05), (4096, 0.85), (8192, 0.10)];
    f.do_bit_frac = 0.5;
    f.validates = true;
    f.ds_prob = 0.055;
    f.dnskey_prob = 0.0004;
    // Table 5's TCP share minus the truncation the 512-EDNS cohort
    // mechanically produces (~1.5%)
    f.tcp_extra = (tcp - 0.015).max(0.0);
    if vantage == Vantage::Nz && year == 2020 {
        f.qmin_from = qmin_start(Provider::Amazon);
        f.qmin_frac = 0.35;
    }
    f
}

/// Microsoft: IPv4-only, UDP-only, the one non-validating CP.
pub fn microsoft_fleet(vantage: Vantage, year: u16) -> FleetSpec {
    let y = yi(year);
    let share = match vantage {
        Vantage::Nl => [0.050, 0.050, 0.052][y],
        Vantage::Nz => [0.055, 0.060, 0.065][y],
        Vantage::BRoot => [0.011, 0.013, 0.015][y],
    };
    let resolvers = match vantage {
        Vantage::Nl => [12500, 13500, 14494][y],
        Vantage::Nz => [8800, 9500, 10206][y],
        Vantage::BRoot => [13000, 14000, 15500][y],
    };
    let mut f = FleetSpec::base("microsoft", resolvers, share);
    f.provider = Some(Provider::Microsoft);
    // Table 6: 3.0% (.nl) / 4.6% (.nz) IPv6 resolvers in w2020 but
    // "much smaller" traffic -> fractional activity.
    f.v6_resolver_frac = match vantage {
        Vantage::Nl => [0.0, 0.02, 0.03][y],
        Vantage::Nz => [0.0, 0.03, 0.046][y],
        Vantage::BRoot => [0.0, 0.025, 0.04][y],
    };
    f.v6_activity_boost = 0.1;
    f.junk_ratio = junk_ratio(Provider::Microsoft, vantage, year);
    f.edns_dist = vec![(1232, 0.30), (4096, 0.70)];
    f.do_bit_frac = 0.0;
    f.validates = false;
    f
}

/// Facebook: dual-stack, RTT-driven family preference, 13 anycast
/// sites, low EDNS sizes at most sites (-> high truncation -> TCP).
pub fn facebook_fleet(vantage: Vantage, year: u16) -> FleetSpec {
    let y = yi(year);
    let share = match vantage {
        Vantage::Nl => [0.030, 0.032, 0.033][y],
        Vantage::Nz => [0.028, 0.030, 0.032][y],
        Vantage::BRoot => [0.004, 0.005, 0.006][y],
    };
    let mut f = FleetSpec::base("facebook", 2600, share);
    f.provider = Some(Provider::Facebook);
    f.dual_stack = true;
    // Table 5: v6 share 0.48 (2018) -> 0.76/0.81+ (2019/2020).
    f.v6_bias = [0.1, 1.7, 1.7][y];
    f.junk_ratio = junk_ratio(Provider::Facebook, vantage, year);
    // non-dominant sites; site 1 overrides to 4096, so the fleet-wide
    // share at 512 lands near the paper's ~30% (Figure 6)
    f.edns_dist = vec![(512, 0.52), (1400, 0.22), (4096, 0.26)];
    f.do_bit_frac = 1.0;
    f.validates = true;
    f.ds_prob = 0.07;
    f.dnskey_prob = 0.0004;
    // §4.4: TCP beyond truncation; .nz's low signed fraction produces
    // little truncation, so its Table 5 TCP share is mostly this knob.
    f.tcp_extra = match vantage {
        Vantage::Nl => [0.06, 0.01, 0.0][y],
        Vantage::Nz => [0.45, 0.15, 0.13][y],
        Vantage::BRoot => [0.05, 0.03, 0.03][y],
    };
    f.qmin_from = qmin_start(Provider::Facebook);
    f.qmin_frac = 0.45;
    f.sites = facebook_sites(vantage);
    f.activity_skew = 0.4;
    f
}

/// Cloudflare: the DS-heavy validating public resolver; even v4/v6.
pub fn cloudflare_fleet(vantage: Vantage, year: u16) -> FleetSpec {
    let y = yi(year);
    let share = match vantage {
        Vantage::Nl => [0.028, 0.034, 0.040][y],
        Vantage::Nz => [0.025, 0.028, 0.030][y],
        Vantage::BRoot => [0.006, 0.008, 0.010][y],
    };
    let mut f = FleetSpec::base("cloudflare", 6000, share);
    f.provider = Some(Provider::Cloudflare);
    f.public_dns = true;
    f.v6_resolver_frac = match vantage {
        Vantage::Nl => [0.46, 0.43, 0.49][y],
        Vantage::Nz => [0.46, 0.44, 0.51][y],
        Vantage::BRoot => [0.46, 0.44, 0.50][y],
    };
    f.junk_ratio = junk_ratio(Provider::Cloudflare, vantage, year);
    f.edns_dist = vec![(1232, 0.90), (4096, 0.10)];
    f.do_bit_frac = 1.0;
    f.validates = true;
    // Figure 2d: Cloudflare sends more DS than DNSKEY by a wide margin.
    f.ds_prob = 0.16;
    f.dnskey_prob = 0.0015;
    f.tcp_extra = match vantage {
        Vantage::Nl => [0.0, 0.008, 0.015][y],
        Vantage::Nz => [0.0, 0.0, 0.008][y],
        Vantage::BRoot => [0.0, 0.005, 0.01][y],
    };
    f.qmin_from = qmin_start(Provider::Cloudflare);
    f.qmin_frac = 0.60;
    f.activity_skew = 0.5;
    f.case_randomization = 1.0;
    f
}

/// The rest of the Internet, split into eyeball ISPs and miscellaneous
/// sources. `other_share` is 1 - sum of CP shares; `resolver_budget` is
/// the dataset's resolver count minus the CP fleets'.
pub fn other_fleets(
    vantage: Vantage,
    year: u16,
    other_share: f64,
    resolver_budget: u32,
    junk: f64,
) -> Vec<FleetSpec> {
    let isp_resolvers = (resolver_budget as f64 * 0.55) as u32;
    let misc_resolvers = resolver_budget - isp_resolvers;
    // `junk` is the weighted-average target across the two other
    // fleets (70/30 by traffic). Misc sources skew junkier; solve the
    // ISP rate so the mixture hits the target exactly.
    let misc_junk = (junk * 1.35).min(0.97);
    let isp_junk = ((junk - 0.3 * misc_junk) / 0.7).clamp(0.0, 0.97);
    let mut isp = FleetSpec::base("other-isp", isp_resolvers, other_share * 0.7);
    isp.junk_ratio = isp_junk;
    isp.v6_resolver_frac = 0.28;
    isp.do_bit_frac = 0.45;
    isp.validates = true;
    isp.ds_prob = 0.03;
    isp.dnskey_prob = 0.0002;
    isp.tcp_extra = 0.01;
    // passive studies saw ~1/3 of 2019+ queries minimized overall
    if year >= 2019 {
        isp.qmin_from = Some(SimTime::from_date(2019, 6, 1));
        isp.qmin_frac = 0.18;
    }
    isp.activity_skew = 1.1;

    let mut misc = FleetSpec::base("other-misc", misc_resolvers.max(1), other_share * 0.3);
    misc.junk_ratio = misc_junk;
    misc.v6_resolver_frac = 0.15;
    misc.do_bit_frac = 0.25;
    misc.edns_dist = vec![(0, 0.25), (512, 0.25), (1232, 0.15), (4096, 0.35)];
    misc.tcp_extra = 0.005;
    misc.activity_skew = 1.3;
    let _ = vantage;
    vec![isp, misc]
}

/// Figure 4: junk ratio per provider, vantage and year. CPs run below
/// the vantage average at the root; ccTLD rates dip in 2020 (possible
/// NSEC aggressive caching, §4.2.3).
pub fn junk_ratio(provider: Provider, vantage: Vantage, year: u16) -> f64 {
    let y = yi(year);
    match vantage {
        Vantage::Nl | Vantage::Nz => match provider {
            Provider::Google => [0.10, 0.10, 0.08][y],
            Provider::Amazon => [0.12, 0.12, 0.10][y],
            Provider::Microsoft => [0.14, 0.14, 0.12][y],
            Provider::Facebook => [0.08, 0.08, 0.06][y],
            Provider::Cloudflare => [0.12, 0.12, 0.09][y],
        },
        Vantage::BRoot => match provider {
            Provider::Google => [0.26, 0.25, 0.22][y],
            Provider::Amazon => [0.31, 0.30, 0.26][y],
            Provider::Microsoft => [0.33, 0.32, 0.28][y],
            Provider::Facebook => [0.22, 0.20, 0.17][y],
            // the Figure 4 exception: Cloudflare's 2019 root junk spike
            Provider::Cloudflare => [0.28, 0.46, 0.24][y],
        },
    }
}

/// Facebook's 13 anycast sites. Site 1 dominates and runs large EDNS
/// (so it never truncates and sends no TCP — the paper could not
/// measure its RTT). On `.nl`'s server A, sites 8-10 have a large
/// IPv6 RTT penalty; on server B, sites 2 and 4 do (Figures 5/8).
pub fn facebook_sites(vantage: Vantage) -> Vec<SiteSpec> {
    let codes = [
        "ams", "fra", "lhr", "cdg", "arn", "mad", "waw", "sin", "hkg", "nrt", "gru", "iad", "sjc",
    ];
    let weights = [
        0.34, 0.11, 0.095, 0.075, 0.065, 0.06, 0.05, 0.045, 0.04, 0.035, 0.03, 0.028, 0.027,
    ];
    // (v4_A, v6_A, v4_B, v6_B) in ms; for .nz/B-Root the same matrix is
    // shifted (the asymmetric-structure figure is .nl-specific).
    let rtt: [(f64, f64, f64, f64); 13] = [
        (12.0, 12.0, 15.0, 15.0),
        (20.0, 22.0, 30.0, 78.0),
        (25.0, 24.0, 28.0, 30.0),
        (35.0, 37.0, 40.0, 96.0),
        (40.0, 42.0, 38.0, 40.0),
        (55.0, 53.0, 50.0, 52.0),
        (70.0, 72.0, 65.0, 66.0),
        (90.0, 136.0, 85.0, 88.0),
        (100.0, 147.0, 95.0, 97.0),
        (110.0, 162.0, 105.0, 108.0),
        (130.0, 132.0, 125.0, 127.0),
        (150.0, 149.0, 140.0, 143.0),
        (170.0, 173.0, 165.0, 168.0),
    ];
    let shift = match vantage {
        Vantage::Nl => 0.0,
        Vantage::Nz => 120.0,
        Vantage::BRoot => 30.0,
    };
    let server_count = match vantage {
        Vantage::Nl => 2,
        Vantage::Nz => 6,
        Vantage::BRoot => 1,
    };
    (0..13)
        .map(|i| {
            let (a4, a6, b4, b6) = rtt[i];
            let mut rtt_v4 = vec![a4 + shift, b4 + shift];
            let mut rtt_v6 = vec![a6 + shift, b6 + shift];
            // extend/trim to the vantage's server count by cycling
            while rtt_v4.len() < server_count {
                let k = rtt_v4.len();
                rtt_v4.push(rtt_v4[k % 2] + 5.0 * k as f64);
                rtt_v6.push(rtt_v6[k % 2] + 5.0 * k as f64);
            }
            rtt_v4.truncate(server_count);
            rtt_v6.truncate(server_count);
            SiteSpec {
                code: codes[i].to_string(),
                weight: weights[i],
                rtt_v4_ms: rtt_v4,
                rtt_v6_ms: rtt_v6,
                edns_dist: if i == 0 {
                    Some(vec![(4096, 1.0)])
                } else {
                    None
                },
                tcp_extra: if i == 0 { Some(0.0) } else { None },
            }
        })
        .collect()
}

/// All fleets for a (vantage, year) dataset, with the "other" fleets
/// sized to the dataset's published totals.
pub fn fleets_for(
    vantage: Vantage,
    year: u16,
    total_resolvers: u32,
    overall_junk: f64,
) -> Vec<FleetSpec> {
    let mut fleets = google_fleets(vantage, year);
    fleets.push(amazon_fleet(vantage, year));
    fleets.push(microsoft_fleet(vantage, year));
    fleets.push(facebook_fleet(vantage, year));
    fleets.push(cloudflare_fleet(vantage, year));
    let cp_share: f64 = fleets.iter().map(|f| f.traffic_share).sum();
    let cp_junk: f64 = fleets.iter().map(|f| f.traffic_share * f.junk_ratio).sum();
    let cp_resolvers: u32 = fleets.iter().map(|f| f.resolver_count).sum();
    let other_share = (1.0 - cp_share).max(0.0);
    // choose the other fleets' junk so the dataset-wide ratio matches
    // Table 3's valid/total split
    let other_junk = (((overall_junk - cp_junk) / other_share).clamp(0.0, 0.97)).min(0.97);
    let budget = total_resolvers.saturating_sub(cp_resolvers).max(2);
    fleets.extend(other_fleets(vantage, year, other_share, budget, other_junk));
    fleets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        for vantage in [Vantage::Nl, Vantage::Nz, Vantage::BRoot] {
            for year in [2018, 2019, 2020] {
                let fleets = fleets_for(vantage, year, 2_000_000, 0.2);
                let sum: f64 = fleets.iter().map(|f| f.traffic_share).sum();
                assert!((sum - 1.0).abs() < 1e-9, "{vantage:?} {year}: {sum}");
            }
        }
    }

    #[test]
    fn cp_share_matches_figure_1() {
        // >30% at .nl, slightly below 30% at .nz, 8.7%-ish at B-Root.
        let cp_share = |v, y| -> f64 {
            fleets_for(v, y, 2_000_000, 0.2)
                .iter()
                .filter(|f| f.provider.is_some())
                .map(|f| f.traffic_share)
                .sum()
        };
        assert!(cp_share(Vantage::Nl, 2019) > 0.30);
        assert!(cp_share(Vantage::Nl, 2020) > 0.30);
        let nz2019 = cp_share(Vantage::Nz, 2019);
        assert!((0.25..0.30).contains(&nz2019), "{nz2019}");
        let br2020 = cp_share(Vantage::BRoot, 2020);
        assert!((0.08..0.095).contains(&br2020), "{br2020}");
        // growth over years at the root
        assert!(cp_share(Vantage::BRoot, 2018) < cp_share(Vantage::BRoot, 2020));
    }

    #[test]
    fn google_public_split_matches_table_4() {
        let fleets = google_fleets(Vantage::Nl, 2020);
        let total: f64 = fleets.iter().map(|f| f.traffic_share).sum();
        let public = fleets.iter().find(|f| f.public_dns).unwrap();
        let ratio = public.traffic_share / total;
        assert!((ratio - 0.865).abs() < 0.01, "{ratio}");
        assert_eq!(public.resolver_count, 3750);
        // .nz
        let fleets = google_fleets(Vantage::Nz, 2020);
        let total: f64 = fleets.iter().map(|f| f.traffic_share).sum();
        let public = fleets.iter().find(|f| f.public_dns).unwrap();
        assert!((public.traffic_share / total - 0.884).abs() < 0.01);
    }

    #[test]
    fn google_qmin_is_december_2019() {
        let f = &google_fleets(Vantage::Nl, 2020)[0];
        let start = f.qmin_from.unwrap();
        assert_eq!(start, SimTime::from_date(2019, 12, 1));
        assert!(!f.qmin_active(SimTime::from_date(2019, 11, 30)));
        assert!(f.qmin_active(SimTime::from_date(2019, 12, 2)));
    }

    #[test]
    fn microsoft_never_validates_or_minimizes() {
        for v in [Vantage::Nl, Vantage::Nz, Vantage::BRoot] {
            for y in [2018, 2019, 2020] {
                let f = microsoft_fleet(v, y);
                assert!(!f.validates);
                assert_eq!(f.ds_prob, 0.0);
                assert!(f.qmin_from.is_none());
                assert_eq!(f.tcp_extra, 0.0);
            }
        }
    }

    #[test]
    fn amazon_qmin_only_at_nz_2020() {
        assert!(amazon_fleet(Vantage::Nz, 2020).qmin_from.is_some());
        assert!(amazon_fleet(Vantage::Nl, 2020).qmin_from.is_none());
        assert!(amazon_fleet(Vantage::Nz, 2019).qmin_from.is_none());
    }

    #[test]
    fn amazon_v6_matches_table_6() {
        let f = amazon_fleet(Vantage::Nl, 2020);
        assert!((f.v6_resolver_frac - 0.018).abs() < 1e-9);
        assert_eq!(f.resolver_count, 38317);
        let f = amazon_fleet(Vantage::Nz, 2020);
        assert!((f.v6_resolver_frac - 0.021).abs() < 1e-9);
        assert_eq!(f.resolver_count, 34645);
    }

    #[test]
    fn facebook_sites_structure() {
        let sites = facebook_sites(Vantage::Nl);
        assert_eq!(sites.len(), 13);
        let wsum: f64 = sites.iter().map(|s| s.weight).sum();
        assert!((wsum - 1.0).abs() < 0.01, "{wsum}");
        assert!(sites[0].weight > 3.0 * sites[1].weight, "site 1 dominates");
        assert_eq!(sites[0].tcp_extra, Some(0.0), "site 1 sends no TCP");
        assert_eq!(sites[0].edns_dist.as_ref().unwrap()[0].0, 4096);
        // sites 8-10 (indices 7-9): big v6 penalty on server A (index 0)
        for (i, site) in sites.iter().enumerate().take(10).skip(7) {
            assert!(
                site.rtt_v6_ms[0] > site.rtt_v4_ms[0] + 30.0,
                "site {} A",
                i + 1
            );
        }
        // sites 2 and 4 (indices 1,3): big v6 penalty on server B
        for i in [1, 3] {
            assert!(sites[i].rtt_v6_ms[1] > sites[i].rtt_v4_ms[1] + 30.0);
        }
        // site 1 symmetric
        assert!((sites[0].rtt_v6_ms[0] - sites[0].rtt_v4_ms[0]).abs() < 1.0);
    }

    #[test]
    fn facebook_site_lists_match_server_counts() {
        assert_eq!(facebook_sites(Vantage::Nl)[0].rtt_v4_ms.len(), 2);
        assert_eq!(facebook_sites(Vantage::Nz)[0].rtt_v4_ms.len(), 6);
        assert_eq!(facebook_sites(Vantage::BRoot)[0].rtt_v4_ms.len(), 1);
    }

    #[test]
    fn cloudflare_is_ds_heavy() {
        let f = cloudflare_fleet(Vantage::Nl, 2020);
        assert!(f.ds_prob > 5.0 * f.dnskey_prob * 10.0);
        assert!(f.validates);
        assert_eq!(f.do_bit_frac, 1.0);
    }

    #[test]
    fn cloudflare_2019_root_junk_spike() {
        let j18 = junk_ratio(Provider::Cloudflare, Vantage::BRoot, 2018);
        let j19 = junk_ratio(Provider::Cloudflare, Vantage::BRoot, 2019);
        let j20 = junk_ratio(Provider::Cloudflare, Vantage::BRoot, 2020);
        assert!(j19 > j18 && j19 > j20, "the Figure 4 exception");
    }

    #[test]
    fn other_junk_absorbs_dataset_target() {
        // B-Root 2020: 80% junk overall, CPs far lower; the other
        // fleets must make up the difference.
        let fleets = fleets_for(Vantage::BRoot, 2020, 6_000_000, 0.80);
        let total_junk: f64 = fleets.iter().map(|f| f.traffic_share * f.junk_ratio).sum();
        assert!((total_junk - 0.80).abs() < 0.02, "{total_junk}");
    }

    #[test]
    fn qtype_mix_sums_to_one() {
        let s: f64 = standard_qtype_mix().iter().map(|(_, w)| w).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no calibration")]
    fn unknown_year_panics() {
        amazon_fleet(Vantage::Nl, 2021);
    }
}
