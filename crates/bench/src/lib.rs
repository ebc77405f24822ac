#![forbid(unsafe_code)]
//! The micro-bench scenario registry.
//!
//! Each side of the design choices DESIGN.md §6 marks ✦, and the live
//! server's socket-plane saturation pair, is a plain callable in
//! [`scenarios`]. The `dnscentral bench` subcommand is the one front
//! end: it runs them under `obs::bench::Runner` and prints a table or
//! writes a `BENCH_*.json` report. Layer throughput is measured by the
//! repo benchmark under `benchmark/`, not here.

pub mod scenarios;
