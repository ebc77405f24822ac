//! DNS wire format, from scratch.
//!
//! This crate implements the DNS message format of RFC 1034/1035 together
//! with the extensions the IMC 2020 paper *"Clouding up the Internet"*
//! depends on: EDNS(0) (RFC 6891), the DNSSEC record types DS / DNSKEY /
//! RRSIG / NSEC (RFC 4034), and the truncation (TC) semantics that drive
//! UDP-to-TCP fallback.
//!
//! Design follows the smoltcp school: plain data structures, explicit
//! errors (no panics on untrusted input), no clever type-level tricks,
//! and exhaustive tests including round-trip property tests.
//!
//! # Layout
//!
//! - [`name`] — domain names: labels, case-insensitive comparison,
//!   compression-pointer decoding and compressing encoder.
//! - [`types`] — enumerations: [`RType`], [`RClass`], [`Rcode`], [`Opcode`].
//! - [`header`] — the 12-byte message header and its flag bits.
//! - [`rdata`] — typed RDATA for the record types the pipeline inspects.
//! - [`edns`] — the OPT pseudo-record: UDP payload size, DO bit, options.
//! - [`message`] — full messages: parse, encode, truncate.
//! - [`reader`] — the one place bytes become sections: a checked
//!   message read in place, without allocating.
//! - [`writer`] — the one place sections become bytes; truncation as a
//!   cut at a record mark.
//! - [`builder`] — ergonomic query/response construction.
//!
//! # Example
//!
//! ```
//! use dns_wire::{builder::MessageBuilder, name::Name, types::RType};
//!
//! let qname: Name = "example.nl.".parse().unwrap();
//! let query = MessageBuilder::query(0x1234, qname.clone(), RType::A)
//!     .with_edns(1232, false)
//!     .build();
//! let bytes = query.encode().unwrap();
//! let parsed = dns_wire::message::Message::parse(&bytes).unwrap();
//! assert_eq!(parsed.questions[0].qname, qname);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod edns;
pub mod error;
pub mod header;
pub mod message;
pub mod name;
pub mod rdata;
pub mod reader;
pub mod tcp;
pub mod types;
pub mod writer;

pub use builder::MessageBuilder;
pub use error::WireError;
pub use header::Header;
pub use message::{Message, Question, Record};
pub use name::Name;
pub use reader::Reader;
pub use types::{Opcode, RClass, RType, Rcode};
