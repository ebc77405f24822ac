//! Reproduce Figures 5 and 8: Facebook's resolver sites, identified by
//! reverse DNS, with their IPv4/IPv6 preference explained by TCP
//! handshake RTTs — against both analyzed `.nl` servers.
//!
//! ```sh
//! cargo run --release --example facebook_dualstack
//! ```

use dnscentral_core::experiments::run_dataset;
use dnscentral_core::report;
use simnet::profile::Vantage;
use simnet::scenario::Scale;
use std::net::IpAddr;

fn main() {
    eprintln!("generating .nl w2020 at medium scale (a few seconds) ...");
    let run = run_dataset(Vantage::Nl, 2020, Scale::medium(), 42);

    println!(
        "PTR identification: {} sites, {} dual-stack resolvers joined on \
         embedded IPv4, {} addresses without PTR, {} unjoinable",
        run.dualstack.site_count(),
        run.dualstack.dual_stack_resolvers(),
        run.dualstack.no_ptr().count(),
        run.dualstack.unjoinable().count()
    );
    println!();

    for server in &run.spec.servers {
        let sites = run.dualstack.report_for_server(IpAddr::V4(server.v4));
        print!("{}", report::render_fig5(&server.name, &sites));

        // the paper's reading of the figure, restated by the code:
        let loc1 = &sites[0];
        if loc1.median_rtt_v4_us.is_none() && loc1.median_rtt_v6_us.is_none() {
            println!(
                "  -> location 1 ({}) sent no TCP: its RTT cannot be estimated\n",
                loc1.site
            );
        }
        for s in &sites {
            if let (Some(r4), Some(r6)) = (s.median_rtt_v4_us, s.median_rtt_v6_us) {
                if r6 > r4 + 30_000 && s.v6_ratio < 0.5 {
                    println!(
                        "  -> {} prefers IPv4: v6 RTT is {:.0} ms above v4 \
                         (confirming the latency-preference hypothesis)",
                        s.site,
                        (r6 - r4) as f64 / 1000.0
                    );
                }
            }
        }
        println!();
    }
}
