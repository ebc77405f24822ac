//! The allocation budget of whole runs, counted process-wide.
//!
//! `tests/bench.rs` pins each layer's allocations on the thread that
//! runs it, which cannot see what a run's worker threads allocate: a
//! cost paid once per worker or per resolver instance (a deep copy of
//! the address plan for every worker's enricher, say) shows only in the
//! process-wide `obs::alloc::totals()`. This file holds one test
//! because those totals count every thread of the test binary, so any
//! other test running beside it would add to them.

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

use dnscentral_core::pipeline::{run_spec_with, PipelineOpts};
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};

/// `.nl` 2020 at `Scale::tiny()`, streamed through two workers,
/// calibrated and fleet: everything the run allocates on any thread —
/// building the engine, generating, joining, enriching, the report
/// sinks — over the queries it generated. Measured: calibrated 0.195
/// (6,705 over 34,442 queries) and fleet 0.197–0.200 (the fleet's count
/// moves by about a hundred from run to run with how its lanes and the
/// merger hand record slices back and forth) allocations per query;
/// 0.313 and 0.754 while every worker deep-copied the address plan,
/// every resolver instance grew its own walk buffers and the fleet
/// cache interned one-address sets. The bounds are 1.25 times the
/// measured values.
#[test]
fn whole_runs_stay_within_their_allocation_budget() {
    assert!(obs::alloc::installed(), "counting allocator active");
    for (fleet, measured) in [(false, 0.195), (true, 0.200)] {
        let opts = PipelineOpts {
            shards: 2,
            fleet,
            ..PipelineOpts::default()
        };
        let before = obs::alloc::totals().0;
        let run = run_spec_with(dataset(Vantage::Nl, 2020), Scale::tiny(), 42, &opts);
        let allocs = obs::alloc::totals().0 - before;
        let queries = run.gen_stats.queries;
        assert!(queries > 0, "the run generated queries");
        let per_query = allocs as f64 / queries as f64;
        assert!(
            per_query <= 1.25 * measured,
            "fleet {fleet}: the run made {per_query:.4} allocations per query \
             ({allocs} over {queries})"
        );
    }
}
