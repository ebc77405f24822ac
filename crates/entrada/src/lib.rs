//! A streaming DNS analytics warehouse — the workspace's equivalent of
//! ENTRADA (Wullink et al., NOMS 2016), the platform both ccTLD
//! operators ran for the paper.
//!
//! The pipeline is: `.dnscap` frames → wire-format parse →
//! query/response **join** (transaction matching on flow + DNS id) →
//! **enrichment** (AS, cloud provider, public-DNS classification,
//! address family, EDNS attributes) → a stream of [`QueryRow`]s that
//! analyses aggregate with the primitives in [`agg`] (counters,
//! distinct counting both exact and sketched, CDFs, top-k).
//!
//! Malformed frames are counted and skipped, never fatal — a passive
//! pipeline must survive anything the network throws at it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agg;
pub mod enrich;
pub mod ingest;
pub mod schema;
pub mod table;

pub use agg::{Cdf, Counter, DistinctCounter, HyperLogLog};
pub use enrich::Enricher;
pub use ingest::{CaptureIngest, IngestStats};
pub use schema::QueryRow;
pub use table::ColumnarBatch;
