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
/// sinks — over the queries it generated. Measured: calibrated 0.054
/// (1,855 over 34,442 queries) and fleet 0.123 (4,224–4,226 over
/// 34,420; the fleet's count moves by a few dozen from run to run with
/// how its lanes and the merger hand record slices back and forth)
/// allocations per query; 0.112 and 0.125 while each sampled resolver
/// had a cache of its own and a map's first 8 entries were held in a
/// slab of their own; 0.195 and 0.200 while every prefix-trie node was its own
/// `Box` and every Facebook PTR parse collected two `Vec`s and a
/// `String`; 0.313 and 0.754 while every worker deep-copied the
/// address plan, every resolver instance grew its own walk buffers and
/// the fleet cache interned one-address sets. The bounds are 1.25 times
/// the measured values.
#[test]
fn whole_runs_stay_within_their_allocation_budget() {
    assert!(obs::alloc::installed(), "counting allocator active");
    for (fleet, measured) in [(false, 0.054), (true, 0.123)] {
        let opts = PipelineOpts {
            workers: 2,
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
