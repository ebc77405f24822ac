//! What the vantage point puts on the wire, decided once.
//!
//! The paper's TCP/truncation results (§4.4, Table 5, Figure 5's
//! handshake RTTs) all hang on four rules of the authoritative: the
//! EDNS→UDP size limit, the rcode→RRL class, the empty TC=1 slip, and
//! the TC→TCP retry pair. The calibrated engine, the emergent fleet's
//! [`crate::emerge::SimTransport`] and the live `authd` responder all
//! go through this module, so an offline capture and a live tap cannot
//! disagree about any of them.

use crate::engine::{name_key_wire, DatasetStats};
use crate::rrl::{ResponseClass, RrlAction, RrlGate};
use dns_wire::message::Message;
use dns_wire::name::ReusableCompressor;
use dns_wire::types::Rcode;
use netbase::capture::{CaptureRecord, Direction};
use netbase::flow::{FlowKey, Transport};
use netbase::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::IpAddr;

/// Resolver pause between a TC=1 answer and its TCP retry, microseconds.
pub const TCP_RETRY_GAP_US: u64 = 2000;

/// The RRL bucket class of a response: positive answers bucket per
/// (case-folded) qname, given as uncompressed wire bytes.
pub fn response_class(rcode: Rcode, qname_wire: &[u8]) -> ResponseClass {
    match rcode {
        Rcode::NoError => ResponseClass::Positive(name_key_wire(qname_wire)),
        Rcode::NxDomain => ResponseClass::Negative,
        _ => ResponseClass::Error,
    }
}

/// The encoder a slice of generated traffic shares: one name compressor
/// and one output buffer, reused for every message the slice records,
/// so a payload costs the one allocation that holds its bytes. Empty
/// until the first message sizes it.
#[derive(Default)]
pub struct WireScratch {
    comp: ReusableCompressor,
    out: Vec<u8>,
}

impl WireScratch {
    /// `msg` on the wire; the bytes live until the next call.
    pub fn encode(&mut self, msg: &Message) -> &[u8] {
        msg.encode_into(&mut self.comp, &mut self.out)
            .expect("generated messages encode");
        &self.out
    }

    /// `msg` as a DNS-over-TCP frame (RFC 1035 two-octet length prefix).
    fn frame(&mut self, msg: &Message) -> Vec<u8> {
        dns_wire::tcp::frame(self.encode(msg)).expect("generated messages fit TCP")
    }
}

/// A UDP response as it leaves the vantage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpReply {
    /// Encoded response message.
    pub bytes: Vec<u8>,
    /// The TC bit is set: cut to the advertised size, or a slip.
    pub truncated: bool,
    /// RRL replaced the answer with an empty TC=1 slip.
    pub slipped: bool,
}

/// Shape `response` for UDP towards `src`: cut it to the size the
/// query's EDNS advertised (`edns_size` 0 = no EDNS; never below 512)
/// and, with a limiter, let RRL pass it, replace it by an empty TC=1
/// slip (forcing the TCP proof-of-path, §4.4), or drop it (`None`).
/// Encodes through `wire`; the reply's bytes are an exact-length copy.
pub fn shape_udp<L: RrlGate>(
    response: &Message,
    edns_size: u16,
    src: IpAddr,
    now: SimTime,
    rrl: Option<&mut L>,
    wire: &mut WireScratch,
) -> Option<UdpReply> {
    let action = match rrl {
        Some(limiter) => {
            let qname_wire = response.question().map_or(&[][..], |q| q.qname.as_wire());
            limiter.gate(src, response_class(response.header.rcode, qname_wire), now)
        }
        None => RrlAction::Respond,
    };
    match action {
        RrlAction::Respond => {
            let truncated = response
                .encode_with_limit_into(edns_size.max(512) as usize, &mut wire.comp, &mut wire.out)
                .expect("responses always fit after truncation");
            Some(UdpReply {
                bytes: wire.out.clone(),
                truncated,
                slipped: false,
            })
        }
        RrlAction::Slip => {
            let mut slip = response.clone();
            slip.answers.clear();
            slip.authorities.clear();
            slip.additionals.clear();
            slip.header.truncated = true;
            Some(UdpReply {
                bytes: wire.encode(&slip).to_vec(),
                truncated: true,
                slipped: true,
            })
        }
        RrlAction::Drop => None,
    }
}

/// One resolver→vantage exchange, as the capture box will see it.
pub struct Exchange<'a> {
    /// The query as sent (0x20 mixing already applied).
    pub query: &'a Message,
    /// The vantage's full, pre-truncation response to it.
    pub response: &'a Message,
    /// Resolver address.
    pub src_ip: IpAddr,
    /// Vantage server address.
    pub dst_ip: IpAddr,
    /// Path RTT, microseconds.
    pub rtt_us: u32,
    /// When the query reaches the vantage.
    pub at: SimTime,
    /// Probability that this resolver sends the query over TCP outright
    /// (the per-site / per-fleet direct-TCP share, Table 5).
    pub tcp_extra: f64,
}

/// How a recorded exchange went; the caller's clock and quota
/// accounting depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorded {
    /// A UDP query and its answer.
    Udp,
    /// A UDP query answered TC=1 (truncated or slipped), then the TCP
    /// retry and its full answer.
    UdpThenTcp,
    /// A direct TCP query and its answer.
    Tcp,
    /// A UDP query whose response RRL dropped.
    Dropped,
}

impl Recorded {
    /// Query records written.
    pub fn queries(self) -> u64 {
        match self {
            Recorded::UdpThenTcp => 2,
            _ => 1,
        }
    }
}

/// Append one exchange to the capture: the direct-TCP pair, or the UDP
/// pair shaped by [`shape_udp`] plus, after a TC=1 answer, the TCP
/// retry with a fresh transaction id. Draws from `rng` in a fixed
/// order (direct-TCP coin; UDP source port; retry id; then per TCP
/// pair handshake jitter, source port) — captures are byte-stable
/// across callers and releases.
pub fn record<L: RrlGate>(
    x: &Exchange<'_>,
    rng: &mut StdRng,
    rrl: Option<&mut L>,
    wire: &mut WireScratch,
    buf: &mut Vec<CaptureRecord>,
    stats: &mut DatasetStats,
) -> Recorded {
    if x.tcp_extra > 0.0 && rng.gen_bool(x.tcp_extra) {
        let query = wire.frame(x.query);
        let response = wire.frame(x.response);
        record_tcp_pair(x, x.at, query, response, rng, buf, stats);
        return Recorded::Tcp;
    }

    let query_wire = wire.encode(x.query).to_vec();
    let edns_size = x.query.edns.as_ref().map_or(0, |e| e.udp_payload_size);
    let reply = shape_udp(x.response, edns_size, x.src_ip, x.at, rrl, wire);
    let flow = FlowKey {
        src: x.src_ip,
        src_port: rng.gen_range(1024..u16::MAX),
        dst: x.dst_ip,
        dst_port: 53,
        transport: Transport::Udp,
    };
    let query_idx = buf.len();
    buf.push(CaptureRecord {
        timestamp: x.at,
        direction: Direction::Query,
        flow,
        tcp_rtt_us: 0,
        payload: query_wire,
    });
    stats.queries += 1;
    let Some(reply) = reply else {
        stats.rrl_drops += 1;
        return Recorded::Dropped;
    };
    buf.push(CaptureRecord {
        timestamp: x.at + SimDuration::from_micros(x.rtt_us as u64),
        direction: Direction::Response,
        flow: flow.reversed(),
        tcp_rtt_us: 0,
        payload: reply.bytes,
    });
    stats.responses += 1;
    stats.rrl_slips += reply.slipped as u64;
    if !reply.truncated {
        return Recorded::Udp;
    }

    stats.truncated_udp += 1;
    // the retry is the same question under a fresh id, and so is its
    // answer: re-stamp both wire forms instead of rebuilding them
    let id = rng.gen::<u16>().to_be_bytes();
    let mut query =
        dns_wire::tcp::frame(&buf[query_idx].payload).expect("generated queries fit TCP");
    let mut response = wire.frame(x.response);
    query[2..4].copy_from_slice(&id);
    response[2..4].copy_from_slice(&id);
    let retry_at = x.at + SimDuration::from_micros(x.rtt_us as u64 + TCP_RETRY_GAP_US);
    record_tcp_pair(x, retry_at, query, response, rng, buf, stats);
    Recorded::UdpThenTcp
}

/// A TCP query/response pair opening at `t`, carrying the handshake RTT
/// the capture box measures (what Figure 5 derives its medians from).
/// Both payloads come framed (RFC 1035 two-octet length prefix).
fn record_tcp_pair(
    x: &Exchange<'_>,
    t: SimTime,
    query: Vec<u8>,
    response: Vec<u8>,
    rng: &mut StdRng,
    buf: &mut Vec<CaptureRecord>,
    stats: &mut DatasetStats,
) {
    // SYN->SYNACK as measured, with small kernel jitter
    let measured = (x.rtt_us as f64 * rng.gen_range(0.97..1.03)) as u32;
    let flow = FlowKey {
        src: x.src_ip,
        src_port: rng.gen_range(1024..u16::MAX),
        dst: x.dst_ip,
        dst_port: 53,
        transport: Transport::Tcp,
    };
    let after_handshake = t + SimDuration::from_micros(x.rtt_us as u64);
    buf.push(CaptureRecord {
        timestamp: after_handshake,
        direction: Direction::Query,
        flow,
        tcp_rtt_us: measured,
        payload: query,
    });
    buf.push(CaptureRecord {
        timestamp: after_handshake + SimDuration::from_micros(x.rtt_us as u64),
        direction: Direction::Response,
        flow: flow.reversed(),
        tcp_rtt_us: measured,
        payload: response,
    });
    stats.queries += 1;
    stats.responses += 1;
    stats.tcp_queries += 1;
}
