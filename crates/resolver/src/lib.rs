//! An iterative DNS resolver: a sans-io walk from the root down the
//! zone cuts, with its cache, its server selector and the transport
//! seam its drivers meet it at.
//!
//! The rest of the workspace treats resolvers *statistically* (the
//! calibrated fleets of `simnet`); this crate implements one
//! *algorithmically*, because two of the paper's findings are about
//! resolver algorithms:
//!
//! - **QNAME minimization** (§4.2.1, RFC 7816): what a ccTLD sees
//!   changes from `a.b.example.nl A` to `example.nl NS` when the
//!   resolver walks zone cuts minimally. [`IterativeResolver`] exposes
//!   the exact per-server query log, so the before/after is the
//!   algorithm's output, not a modeled distribution.
//! - **Cyclic NS dependencies** (§4.2.1's Feb-2020 `.nz` incident,
//!   Pappas et al. 2004): when two domains' NS sets point at each other
//!   with no glue, resolution cannot bottom out; resolvers burn their
//!   query budget at the parent and retry — millions of extra A/AAAA
//!   queries at the TLD. The resolver reproduces exactly that
//!   signature.
//!
//! The walk asks and reads in wire bytes: each ask's query is written
//! once into the walk's scratch, with only its id patched per send, and
//! each reply is read where it lies. [`transport`] is the seam
//! a driver meets the walk at — `authd`'s reactor over sockets, simnet's
//! three-tier `SimTransport` offline — and both put the query on the
//! wire as written. The crate's tests and its example walk a toy
//! root → TLD → leaf hierarchy (`tests/hierarchy/`) that parses each
//! query whole and answers with an owned message: the oracle the walk
//! is held to.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod iterative;
pub mod selector;
pub mod transport;

pub use cache::{Addrs, CacheStats, FleetCache, Negative, SharedCache};
pub use iterative::{
    IterativeResolver, QueryLogEntry, ResolveError, ResolverConfig, ResolverStats, Step,
    WalkScratch,
};
pub use selector::{HostSelector, HostStats};
pub use transport::{Exchange, Transport};

// The unit tests that read private walk state walk the same toy
// hierarchy as the integration tests, which names this crate
// `resolver`.
#[cfg(test)]
extern crate self as resolver;
#[cfg(test)]
#[path = "../tests/hierarchy/mod.rs"]
mod hierarchy;
