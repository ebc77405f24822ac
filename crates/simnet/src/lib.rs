//! Discrete-event DNS traffic simulator.
//!
//! This crate is the data-gate substitution for the paper's private pcap
//! archives: it synthesizes resolver-to-authoritative DNS traffic for
//! the three vantage points (`.nl`, `.nz`, B-Root) across the three
//! yearly snapshots, writing wire-format frames through the `.dnscap`
//! capture boundary that the `entrada` warehouse ingests.
//!
//! Everything the paper measures is generated *mechanistically* where
//! the mechanism matters, and *calibrated* where only the mixture
//! matters:
//!
//! - **Mechanistic**: QNAME minimization really strips qnames to one
//!   label below the zone cut and switches to NS queries; truncation
//!   really happens when an encoded response exceeds the advertised
//!   EDNS(0) size, and really triggers a TCP retry carrying a handshake
//!   RTT; resolver caches really absorb repeat queries for hot names;
//!   DS queries really follow referrals for signed delegations.
//! - **Calibrated**: per-provider query shares, qtype mixes, junk
//!   ratios, address-family fleets and EDNS-size distributions follow
//!   the paper's published aggregates (Tables 3-6, Figures 1-6), which
//!   are encoded in [`profile`].
//!
//! The module map: [`profile`] (calibration tables), [`fleet`]
//! (resolver fleets, Facebook sites, PTR zone),
//! [`auth`] (the authoritative responder), [`vantage`] (what the
//! vantage puts on the wire: truncation, RRL, the TC→TCP retry),
//! `plan` (private: the demand plan every generator steers by — slot
//! quotas, the junk lattice, incident floods), [`engine`] (the
//! calibrated generation loop, its demand step and query builder),
//! [`emerge`] (the same plan answered by resolver walks), [`drive`]
//! (the engine's demand step pulled one query at a time, for live
//! sockets), [`scenario`] (the nine datasets plus the monthly series).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod auth;
pub mod drive;
pub mod emerge;
pub mod engine;
pub mod fleet;
mod plan;
pub mod profile;
pub mod ptr;
pub mod rrl;
pub mod scenario;
pub mod vantage;

pub use drive::{Driver, PlannedQuery};
pub use engine::{DatasetStats, Engine};
pub use profile::{qmin_start, FleetSpec, SiteSpec, Vantage};
pub use ptr::PtrDb;
pub use scenario::{dataset, monthly_google, monthly_provider, DatasetSpec, Scale, Week};
