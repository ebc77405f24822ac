//! Reproduce Figure 3: the 18-month longitudinal view of Google's
//! queries to a ccTLD, and the change-point detection that dates the
//! QNAME-minimization rollout (the paper confirmed Dec 2019 with
//! Google's operators).
//!
//! ```sh
//! cargo run --release --example qmin_detection          # .nl
//! cargo run --release --example qmin_detection -- nz    # .nz (with the
//!                                                       #  Feb-2020 incident)
//! ```

use asdb::cloud::Provider;
use dnscentral_core::experiments::run_monthly_series;
use dnscentral_core::pipeline::PipelineOpts;
use dnscentral_core::qmin::{detect_cusum, detect_threshold};
use dnscentral_core::report;
use simnet::profile::Vantage;
use simnet::scenario::Scale;

fn main() {
    let vantage = match std::env::args().nth(1).as_deref() {
        Some("nz") => Vantage::Nz,
        _ => Vantage::Nl,
    };
    eprintln!(
        "generating 18 monthly Google samples against {} ...",
        vantage.label()
    );
    let series = run_monthly_series(
        vantage,
        Provider::Google,
        Scale::small(),
        42,
        &PipelineOpts::default(),
        1,
    );

    let cusum = detect_cusum(&series, 0.05, 0.3);
    print!("{}", report::render_fig3(vantage.label(), &series, cusum));

    // both detectors should agree on the deployment month
    let threshold = detect_threshold(&series, 0.15);
    match (cusum, threshold) {
        (Some(a), Some(b)) if a == b => {
            println!("threshold detector agrees: {}-{:02}", b.year, b.month)
        }
        (a, b) => println!("detectors disagree: cusum={a:?} threshold={b:?}"),
    }

    if vantage == Vantage::Nz {
        let feb = series
            .iter()
            .find(|s| (s.year, s.month) == (2020, 2))
            .expect("series covers Feb 2020");
        println!(
            "\nFeb 2020 cyclic-dependency incident: A+AAAA share {:.1}% \
             (the paper's Figure 3b dip)",
            feb.address_share * 100.0
        );
    }
}
