//! `dnscentral-core`: the DNS-centralization analyses of *"Clouding up
//! the Internet: how centralized is DNS traffic becoming?"* (IMC 2020).
//!
//! Everything here consumes the enriched [`entrada::QueryRow`] stream
//! and produces the paper's tables and figures:
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`analysis`] | the single-pass aggregation feeding everything below |
//! | [`metrics`] | Table 3 (datasets), Figure 1 (cloud share), Tables 4/7 (Google split) |
//! | [`qmin`] | Figure 3 (monthly series) + the Q-min change-point detector |
//! | [`junk`] | Figure 4 (junk ratio per provider) and the §3 junk overview |
//! | [`transport`] | Table 5 (IPv4/IPv6, UDP/TCP) and Table 6 (resolver families) |
//! | [`dualstack`] | Figures 5/8 (Facebook sites: PTR join, RTT medians, family mix) |
//! | [`ednssize`] | Figure 6 (EDNS(0) size CDF) and §4.4 truncation rates |
//! | [`rootstats`] | the RSSAC002-style root junk cross-check of §3 |
//! | [`report`] | text/JSON rendering of every table and figure |
//! | [`experiments`] | end-to-end experiment runners (generate → ingest → analyze) |
//! | [`pipeline`] | the one records→rows→sinks consumer and the slice-parallel pipeline behind the runners |
//! | [`sink`] | the mergeable [`sink::RowSink`] trait every consumer implements |
//! | [`suite`] | the bounded multi-dataset scheduler behind `--jobs` |
//! | [`store`] | the warehouse bridge: persistent ingest + scan-based reports |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod concentration;
mod dense;
pub mod dualstack;
pub mod ednssize;
pub mod experiments;
pub mod junk;
pub mod metrics;
pub mod paper;
pub mod pipeline;
pub mod qmin;
pub mod report;
pub mod rootstats;
pub mod sink;
pub mod store;
pub mod suite;
pub mod transport;

pub use analysis::{DatasetAnalysis, ProviderAgg};
pub use experiments::{run_dataset, run_monthly_series, DatasetRun};
pub use pipeline::{run_spec_with, PipelineOpts};
pub use sink::{FanoutSink, RowSink};
pub use suite::{run_suite, run_tasks};
