//! The transport seam: how a resolver's walk meets the servers it asks.
//!
//! The walk itself is a step machine
//! ([`crate::iterative::IterativeResolver::start`] and
//! [`step`](crate::iterative::IterativeResolver::step)) that is handed
//! one [`Exchange`] per query it asked to send, from whatever drives it:
//! `authd`'s reactor keeps many walks in flight over real sockets. A
//! [`Transport`] is what the *blocking* driver,
//! [`crate::iterative::IterativeResolver::resolve`], runs over — an
//! in-process zone world (simnet's three-tier `SimTransport`, or the toy
//! hierarchy the crate's tests walk) that answers one query at a time.
//! Either way the driver owns everything below the message layer —
//! timeouts, truncation + TCP fallback, capture taps — and hands the
//! walk either a complete response with its measured round-trip time
//! or a timeout.
//!
//! Both directions cross the seam as wire bytes. The query is the
//! resolver's own buffer ([`IterativeResolver::query`]), written once
//! per ask with only the id patched per send, so a driver puts it on
//! the wire — or reads it, as an in-process authoritative does — as it
//! is. A response is the bytes the driver already has — the reply it
//! wrote, or the datagram it received — lent from its own buffer for
//! the one step; the resolver reads them in place
//! ([`dns_wire::reader::Reader`]) and copies out only what it keeps.
//!
//! [`IterativeResolver::query`]: crate::iterative::IterativeResolver::query

use std::net::IpAddr;

/// Outcome of one query/response exchange with a server.
#[derive(Debug, Clone, Copy)]
pub enum Exchange<'a> {
    /// The server answered.
    Answer {
        /// The (reassembled, post-TCP-fallback) response, as wire
        /// bytes in the transport's buffer.
        reply: &'a [u8],
        /// Measured (or modeled) round-trip time, microseconds; feeds
        /// the resolver's per-host RTT selector.
        rtt_us: u32,
    },
    /// No response within the transport's deadline: the resolver's
    /// retry state machine takes over (next attempt / next server).
    Timeout,
}

/// A transport the blocking driver walks over.
pub trait Transport {
    /// Exchange `query` — a whole DNS message, as the resolver wrote it
    /// — with `server`, blocking until a response arrives or the
    /// transport's deadline passes.
    fn exchange(&mut self, server: IpAddr, query: &[u8]) -> Exchange<'_>;

    /// The root-server addresses to start a cold walk from (the
    /// priming hints a real resolver ships with).
    fn root_servers(&self) -> Vec<IpAddr>;
}
