//! Quickstart: synthesize one week of `.nz` authoritative traffic,
//! run the full analysis pipeline, and print the headline
//! centralization numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dnscentral_core::experiments::run_dataset;
use dnscentral_core::metrics;
use simnet::profile::Vantage;
use simnet::scenario::Scale;

fn main() {
    // One call: generate a scaled w2020 `.nz` capture, ingest it, and
    // aggregate. `Scale::small` keeps this under a couple of seconds.
    let run = run_dataset(Vantage::Nz, 2020, Scale::small(), 42);

    println!("dataset        : {}", run.id);
    println!("queries        : {}", run.analysis.total_queries);
    println!(
        "valid (NOERROR): {:.1}%",
        run.analysis.valid_fraction() * 100.0
    );
    println!("resolvers      : {}", run.analysis.resolvers());
    println!("source ASes    : {}", run.analysis.ases());
    println!();

    // The paper's headline (Figure 1): how much of the traffic do five
    // companies send?
    let share = metrics::cloud_share(&run.id, &run.analysis);
    println!("cloud provider query shares:");
    for (provider, s) in &share.per_provider {
        println!("  {provider:<11} {:>5.1}%", s * 100.0);
    }
    println!(
        "  {:<11} {:>5.1}%   <- from just 20 ASes",
        "ALL",
        share.total * 100.0
    );

    assert!(
        share.total > 0.2,
        "the concentration signal should be obvious"
    );
}
