//! Live authoritative DNS serving over real sockets.
//!
//! The rest of the workspace studies DNS centralization *offline*: the
//! simulator writes a `.dnscap` capture, ENTRADA-style ingestion turns
//! it into rows, and the analysis crates reproduce the paper's
//! exhibits. This crate closes the loop over a real network path:
//!
//! - [`server`] — a multithreaded authoritative server speaking actual
//!   UDP and TCP (RFC 1035 length framing), synthesizing responses with
//!   [`simnet::auth::Authoritative`] and rate-limiting with a sharded
//!   [`simnet::rrl`] limiter whose decisions match the serial one.
//! - [`sockets`] — the socket plane under it: per-worker `SO_REUSEPORT`
//!   UDP shards with `recvmmsg`/`sendmmsg` batching on Linux (syscalls
//!   declared directly against the platform libc — no new crates), a
//!   portable `try_clone` fallback elsewhere, and the `poll(2)` wait
//!   on the listener that every TCP worker accepts from.
//! - [`loadgen`] — the closed-loop load generator
//!   ([`run_loadgen`]): by default driven by
//!   [`simnet::drive::Driver`], replaying the same fleet profiles
//!   (per-CP qtype mixes, Q-min, EDNS sizes, dual-stack preferences)
//!   the offline engine uses.
//! - [`fleetgen`] — its *algorithmic* mode: `--resolvers=N`
//!   concurrent [`resolver::IterativeResolver`] instances walking the
//!   hierarchy over real sockets, with shared per-fleet caches, RTT
//!   selection learned from measured socket latencies, and Q-min
//!   flipping on the provider rollout date — the same resolver code
//!   the offline fleet engine ([`simnet::emerge`]) runs in-process.
//! - [`client`] — the one closed-loop exchange both modes put on the
//!   socket: preamble-framed UDP send, id-matched receive, TCP retry
//!   on TC=1.
//! - [`tap`] — a capture tap mirroring every query/response the server
//!   handles into the same `.dnscap` format, so live traffic flows
//!   through the unchanged `entrada` → `core` analysis pipeline.
//! - [`proxy`] — a logical-address preamble that lets loopback traffic
//!   carry the resolver-fleet/server addresses the analyzer attributes
//!   cloud share by.
//! - [`stats`] — lock-free per-worker counters and latency histograms
//!   (p50/p99) for both sides.
//! - [`live`] — spawns server and load generator together over
//!   loopback for one-command end-to-end runs.
//!
//! No async runtime and no new dependencies: `std::net` blocking
//! sockets, one thread per worker, and no queue between threads but
//! the kernel's.

pub mod client;
pub mod fleetgen;
pub mod live;
pub mod loadgen;
pub mod proxy;
pub mod respond;
pub mod server;
pub mod signal;
pub mod sockets;
pub mod stats;
pub mod tap;

pub use fleetgen::FleetgenReport;
pub use live::{run_live, LiveConfig, LiveReport};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use obs::Histogram;
pub use respond::Responder;
pub use server::{Engine, Server, ServerConfig, TcpWorkerState, WorkerState};
pub use stats::{Stats, StatsSnapshot};
pub use tap::Tap;
