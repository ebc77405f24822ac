//! `obs` — the workspace observability layer.
//!
//! ENTRADA's operational value comes from knowing what the pipeline is
//! doing while billions of queries flow through it; this crate is the
//! reproduction's equivalent, shared by the simulator, the analytics
//! pipeline, and the live serving loop:
//!
//! - [`metrics`] — a lock-free registry of named atomic counters,
//!   gauges, and log-linear histograms. Handles are `Arc`-cheap and
//!   every hot-path update is a single `fetch_add(Relaxed)`.
//! - [`trace`] — scoped RAII span timers on a per-thread id, exported
//!   as Chrome trace-event JSONL (`chrome://tracing`, Perfetto).
//!   Disabled spans cost one atomic load.
//! - [`mod@stage`] — per-stage duration/throughput accounting behind the
//!   CLI's `--stats` summary table, plus a throttled [`stage::Progress`]
//!   reporter (records/s, ETA) for `report`-scale runs.
//! - [`flight`] — the flight recorder: a background thread keeps the
//!   last 600 registry snapshots behind `--flight` (value + rate for
//!   counters, quantile vectors for histograms).
//! - [`prom`] — Prometheus text-format exposition of the registry,
//!   served by a tiny built-in HTTP listener (`--metrics-addr`); also
//!   answers `/flight.json` with the recorder's retained window.
//! - [`mod@bench`] — a warmup/trimmed-stats micro-bench runner and the
//!   `BENCH_*.json` report it writes (`dnscentral bench`).
//! - [`alloc`] — an optional counting `#[global_allocator]` so bench
//!   rows report allocs/op and zero-alloc hot paths are asserted.
//! - [`prof`] — a dependency-free sampling CPU profiler: SIGPROF +
//!   frame-pointer walks into a lock-free ring on Linux, symbolized
//!   off-signal into flamegraph-ready folded stacks (`--profile`,
//!   `/profile?seconds=N`); inert no-op elsewhere.
//!
//! Everything runs on std plus the workspace's vendored serde shims
//! (used only by the [`mod@bench`] report model): no async runtime, nothing
//! blocking on the instrumented paths.

#![warn(missing_docs)]
// `alloc` (GlobalAlloc impl) and `prof` (signal/timer FFI) opt out locally
#![deny(unsafe_code)]

pub mod alloc;
pub mod bench;
pub mod flight;
pub mod metrics;
pub mod prof;
pub mod prom;
pub mod stage;
pub mod trace;

pub use metrics::{
    counter, gauge, histogram, Counter, Gauge, Histogram, Registry, SampleValue, Utilization,
};
pub use stage::{stage, stage_owned, Progress, StageTimer};
pub use trace::span;
