//! The transport seam: how a resolver exchanges messages with servers.
//!
//! [`crate::iterative::IterativeResolver`] is generic over this trait,
//! so the same walk/cache/retry logic runs against an in-process zone
//! world (the test [`Network`], simnet's `ZoneModel` answerer) or real
//! UDP/TCP sockets toward `authd` in live mode. The transport owns
//! everything below the message layer — timeouts, truncation + TCP
//! fallback, capture taps — and hands the resolver either a complete
//! response with its measured round-trip time or a timeout.
//!
//! A response crosses the seam as the bytes the transport already has —
//! the reply it wrote, or the datagram it received — lent from its own
//! buffer until the next exchange; the resolver reads them in place
//! ([`dns_wire::reader::Reader`]) and copies out only what it keeps.

use crate::hierarchy::Network;
use dns_wire::message::Message;
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

/// A pluggable resolver transport.
pub trait Transport {
    /// Exchange `query` with `server`, blocking until a response
    /// arrives or the transport's deadline passes.
    fn exchange(&mut self, server: IpAddr, query: &Message) -> Exchange<'_>;

    /// The root-server addresses to start a cold walk from (the
    /// priming hints a real resolver ships with).
    fn root_servers(&self) -> Vec<IpAddr>;
}

impl Transport for Network {
    fn exchange(&mut self, server: IpAddr, query: &Message) -> Exchange<'_> {
        match self.query_wire(server, query) {
            Some(reply) => Exchange::Answer { reply, rtt_us: 0 },
            None => Exchange::Timeout,
        }
    }

    fn root_servers(&self) -> Vec<IpAddr> {
        Network::root_servers(self)
    }
}
