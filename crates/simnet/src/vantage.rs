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
use dns_wire::edns::Edns;
use dns_wire::header::{Header, HEADER_LEN};
use dns_wire::message::Question;
use dns_wire::name::ReusableCompressor;
use dns_wire::types::Rcode;
use dns_wire::writer::{Marks, MessageWriter};
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

/// Where a slice of generated traffic writes its messages: one name
/// compressor and one buffer each for the query and the response of
/// the exchange in hand, reused for every exchange, so a payload costs
/// the one allocation that holds its bytes in the capture. Empty until
/// the first message sizes it.
#[derive(Default)]
pub struct WireScratch {
    comp: ReusableCompressor,
    query: Vec<u8>,
    response: Vec<u8>,
    /// Where `response` can be cut.
    marks: Marks,
}

impl WireScratch {
    /// Write a one-question query as the exchange's query.
    pub fn write_query(&mut self, header: &Header, q: &Question, edns: Option<&Edns>) {
        let mut marks = Marks::default();
        let mut w = MessageWriter::new(header, &mut self.comp, &mut self.query, &mut marks);
        w.question(q);
        w.finish(edns, usize::MAX).expect("no size limit");
    }

    /// Start writing the exchange's response.
    pub(crate) fn response_writer(&mut self, header: &Header) -> MessageWriter<'_> {
        MessageWriter::new(header, &mut self.comp, &mut self.response, &mut self.marks)
    }

    /// The query last written.
    pub fn query(&self) -> &[u8] {
        &self.query
    }

    /// The response last written.
    pub fn response(&self) -> Written<'_> {
        Written {
            bytes: &self.response,
            marks: self.marks,
        }
    }

    /// Overwrite the qname both messages open their question section
    /// with (uncompressed, at the octet after the header) by `wire`, a
    /// respelling of the same name: how a 0x20-mixing resolver's
    /// exchange looks in the capture. Same length, so no compression
    /// pointer moves, and pointers match case-insensitively.
    pub(crate) fn respell_qname(&mut self, wire: &[u8]) {
        for msg in [&mut self.query, &mut self.response] {
            msg[HEADER_LEN..HEADER_LEN + wire.len()].copy_from_slice(wire);
        }
    }
}

/// A whole response as written, with the marks UDP shaping cuts it at.
#[derive(Clone, Copy)]
pub struct Written<'a> {
    /// The full, pre-truncation message (OPT last).
    pub bytes: &'a [u8],
    marks: Marks,
}

impl Written<'_> {
    /// The RRL class: from the header's rcode and the first question's
    /// qname, which opens the question section uncompressed.
    fn class(&self) -> ResponseClass {
        let msg = self.bytes;
        let mut end = HEADER_LEN;
        if msg[4..6] != [0, 0] {
            while msg[end] != 0 {
                end += 1 + msg[end] as usize;
            }
            end += 1;
        }
        response_class(
            Rcode::from_u16((msg[3] & 0x0f) as u16),
            &msg[HEADER_LEN..end],
        )
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
/// The reply's bytes are an exact-length copy; `response` stays whole.
pub fn shape_udp<L: RrlGate>(
    response: Written<'_>,
    edns_size: u16,
    src: IpAddr,
    now: SimTime,
    rrl: Option<&mut L>,
) -> Option<UdpReply> {
    let action = match rrl {
        Some(limiter) => limiter.gate(src, response.class(), now),
        None => RrlAction::Respond,
    };
    let Written { bytes: full, marks } = response;
    let mut bytes = Vec::new();
    let (truncated, slipped) = match action {
        RrlAction::Respond => {
            let limit = edns_size.max(512) as usize;
            let cut = marks
                .cut_into(full, limit, &mut bytes)
                .expect("responses always fit after truncation");
            (cut, false)
        }
        RrlAction::Slip => {
            marks.slip_into(full, &mut bytes);
            (true, true)
        }
        RrlAction::Drop => return None,
    };
    Some(UdpReply {
        bytes,
        truncated,
        slipped,
    })
}

/// One resolver→vantage exchange, as the capture box will see it.
pub struct Exchange<'a> {
    /// The query as sent (0x20 mixing already applied).
    pub query: &'a [u8],
    /// The vantage's full, pre-truncation response to it.
    pub response: Written<'a>,
    /// The UDP size the query's EDNS advertised; 0 without EDNS.
    pub edns_size: u16,
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
    buf: &mut Vec<CaptureRecord>,
    stats: &mut DatasetStats,
) -> Recorded {
    let frame = |msg: &[u8]| dns_wire::tcp::frame(msg).expect("generated messages fit TCP");
    if x.tcp_extra > 0.0 && rng.gen_bool(x.tcp_extra) {
        record_tcp_pair(
            x,
            x.at,
            frame(x.query),
            frame(x.response.bytes),
            rng,
            buf,
            stats,
        );
        return Recorded::Tcp;
    }

    let reply = shape_udp(x.response, x.edns_size, x.src_ip, x.at, rrl);
    let flow = FlowKey {
        src: x.src_ip,
        src_port: rng.gen_range(1024..u16::MAX),
        dst: x.dst_ip,
        dst_port: 53,
        transport: Transport::Udp,
    };
    buf.push(CaptureRecord {
        timestamp: x.at,
        direction: Direction::Query,
        flow,
        tcp_rtt_us: 0,
        payload: x.query.to_vec(),
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
    // answer, whole this time: re-stamp the bytes already written
    let id = rng.gen::<u16>().to_be_bytes();
    let (mut query, mut response) = (frame(x.query), frame(x.response.bytes));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Authoritative;
    use dns_wire::builder::MessageBuilder;
    use dns_wire::message::Message;
    use dns_wire::types::RType;
    use zonedb::zone::ZoneModel;

    /// The capture's 0x20 copy of an exchange is made by overwriting the
    /// qname octets of the written messages; that must be the message a
    /// mixed-case question would have encoded to, record for record.
    #[test]
    fn respelled_exchange_is_the_clean_one_with_the_question_recased() {
        let auth = Authoritative::new(ZoneModel::nl(1000));
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(20);
        for (idx, qtype) in [
            (7, RType::A),
            (7, RType::Ds),
            (8, RType::Ns),
            (9, RType::Aaaa),
        ] {
            let domain = auth.zone().registered_domain(idx);
            let clean = domain.child(b"www").unwrap();
            let query = MessageBuilder::query(5, clean.clone(), qtype)
                .with_edns(1232, true)
                .build();
            let mut wire = WireScratch::default();
            wire.write_query(&query.header, &query.questions[0], query.edns.as_ref());
            auth.respond((&query).into(), true, &mut wire);
            let clean_response = Message::parse(wire.response().bytes).unwrap();

            let mixed = crate::engine::mix_case_0x20(&clean, &mut rng);
            assert_ne!(
                mixed.as_wire(),
                clean.as_wire(),
                "the draw flipped something"
            );
            wire.respell_qname(mixed.as_wire());

            for (bytes, clean_msg) in [
                (wire.query(), &query),
                (wire.response().bytes, &clean_response),
            ] {
                let mut want = clean_msg.clone();
                want.questions[0].qname = mixed.clone();
                let got = Message::parse(bytes).unwrap();
                // `Name` equality folds case: compare the spelling too
                assert_eq!(got, want);
                assert_eq!(got.questions[0].qname.as_wire(), mixed.as_wire());
                assert_eq!(
                    want.encode().unwrap(),
                    bytes,
                    "what encoding it mixed gives"
                );
            }
        }
    }
}
