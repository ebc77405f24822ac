//! What the vantage point puts on the wire, decided once.
//!
//! The paper's TCP/truncation results (§4.4, Table 5, Figure 5's
//! handshake RTTs) all hang on four rules of the authoritative: the
//! EDNS→UDP size limit, the rcode→RRL class, the empty TC=1 slip, and
//! the TC→TCP retry pair. The calibrated engine, the emergent fleet's
//! [`crate::emerge::SimTransport`] and the live `authd` responder all
//! go through this module, so an offline capture and a live tap cannot
//! disagree about any of them.
//! Offline, [`record`] writes every payload straight into the slice's
//! [`RecordSlice`] buffer: a generated payload allocates nothing.

use crate::engine::{name_key_wire, DatasetStats};
use crate::rrl::{ResponseClass, RrlAction, RrlGate};
use dns_wire::edns::Edns;
use dns_wire::header::{Header, HEADER_LEN};
use dns_wire::message::Question;
use dns_wire::name::ReusableCompressor;
use dns_wire::types::Rcode;
use dns_wire::writer::{write_query_into, Marks, MessageWriter};
use netbase::capture::{Direction, RecordSlice};
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

/// Where a slice of generated traffic writes its messages: one buffer
/// each for the query and the response of the exchange in hand, and a
/// name compressor for the fleet's synthetic root, reused for every
/// exchange; [`record`] copies them into the capture, and a live fleet
/// lane sends the query from here. Empty until the first message sizes
/// it.
#[derive(Default)]
pub struct WireScratch {
    comp: ReusableCompressor,
    query: Vec<u8>,
    response: Vec<u8>,
    /// Where `response` can be cut.
    marks: Marks,
}

impl WireScratch {
    /// Write a one-question query as the exchange's query, its name as
    /// it is: nothing precedes a message's first name to point at.
    pub fn write_query(&mut self, header: &Header, q: &Question, edns: Option<&Edns>) {
        write_query_into(header, q, edns, &mut self.query);
    }

    /// Put a fleet resolver's one-question `query` on the vantage wire
    /// as the exchange's query: its bytes as the resolver wrote them,
    /// the qname respelled when the resolver's profile mixes case (0x20,
    /// with `mix_wire_0x20`'s draws from `rng`). Both fleet drivers
    /// send through here — offline into the capture, live over the
    /// lane's socket — so a live tap sees the spelling an offline
    /// capture records.
    pub fn put_query(&mut self, query: &[u8], mix_case: bool, rng: &mut StdRng) {
        self.query.clear();
        self.query.extend_from_slice(query);
        if mix_case {
            mix_wire_0x20(&mut self.query[HEADER_LEN..], rng);
        }
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

    /// Spell the qname the response echoes (uncompressed, at the octet
    /// after the header) as `query` spells it, or by default as the
    /// query in hand does: how a 0x20-mixing resolver's exchange looks
    /// in the capture, and — given the resolver's own query — the
    /// spelling it reads back. Same length, so no compression pointer
    /// moves, and pointers match case-insensitively.
    pub(crate) fn echo_spelling(&mut self, query: Option<&[u8]>) {
        let query = query.unwrap_or(&self.query);
        let end = HEADER_LEN + name_len(&query[HEADER_LEN..]);
        self.response[HEADER_LEN..end].copy_from_slice(&query[HEADER_LEN..end]);
    }
}

/// Flip the case of each letter of the uncompressed name `wire` opens
/// with on a fair coin from `rng`, label by label, so the length octets
/// are never touched: 0x20 case randomization, the anti-spoofing
/// measure some resolver operators apply (the analysis side treats
/// names case-insensitively).
pub(crate) fn mix_wire_0x20(wire: &mut [u8], rng: &mut StdRng) {
    let mut pos = 0;
    while wire[pos] != 0 {
        let end = pos + 1 + wire[pos] as usize;
        for b in &mut wire[pos + 1..end] {
            if b.is_ascii_alphabetic() && rng.gen_bool(0.5) {
                *b ^= 0x20;
            }
        }
        pos = end;
    }
}

/// The length of the uncompressed name `wire` opens with.
fn name_len(wire: &[u8]) -> usize {
    let mut end = 0;
    while wire[end] != 0 {
        end += 1 + wire[end] as usize;
    }
    end + 1
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
        let qname = match msg[4..6] {
            [0, 0] => &[][..],
            _ => &msg[HEADER_LEN..HEADER_LEN + name_len(&msg[HEADER_LEN..])],
        };
        response_class(Rcode::from_u16((msg[3] & 0x0f) as u16), qname)
    }
}

/// Shape `response` for UDP towards `src`, appending the reply to
/// `out`: cut it to the size the query's EDNS advertised (`edns_size`
/// 0 = no EDNS; never below 512) and, with a limiter, let RRL pass it,
/// replace it by an empty TC=1 slip (forcing the TCP proof-of-path,
/// §4.4), or drop it (`None`, nothing appended). Returns whether the
/// reply is truncated and whether it slipped; `response` stays whole.
pub fn shape_onto<L: RrlGate>(
    response: Written<'_>,
    edns_size: u16,
    src: IpAddr,
    now: SimTime,
    rrl: Option<&mut L>,
    out: &mut Vec<u8>,
) -> Option<(bool, bool)> {
    let action = match rrl {
        Some(limiter) => limiter.gate(src, response.class(), now),
        None => RrlAction::Respond,
    };
    let Written { bytes: full, marks } = response;
    match action {
        RrlAction::Respond => {
            let cut = marks.cut_onto(full, edns_size.max(512) as usize, out);
            Some((cut.expect("responses always fit after truncation"), false))
        }
        RrlAction::Slip => {
            marks.slip_onto(full, out);
            Some((true, true))
        }
        RrlAction::Drop => None,
    }
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

/// Append one exchange to `slice`: the direct-TCP pair, or the UDP
/// pair shaped as [`shape_onto`] shapes it plus, after a TC=1 answer,
/// the TCP retry with a fresh transaction id. Draws from `rng` in a
/// fixed order (direct-TCP coin; UDP source port; retry id; then per
/// TCP pair handshake jitter, source port) — captures are byte-stable
/// across callers and releases.
pub fn record<L: RrlGate>(
    x: &Exchange<'_>,
    rng: &mut StdRng,
    rrl: Option<&mut L>,
    slice: &mut RecordSlice,
    stats: &mut DatasetStats,
) -> Recorded {
    if x.tcp_extra > 0.0 && rng.gen_bool(x.tcp_extra) {
        record_tcp_pair(x, x.at, None, rng, slice, stats);
        return Recorded::Tcp;
    }

    let flow = FlowKey {
        src: x.src_ip,
        src_port: rng.gen_range(1024..u16::MAX),
        dst: x.dst_ip,
        dst_port: 53,
        transport: Transport::Udp,
    };
    slice.push_with(x.at, Direction::Query, flow, 0, |out| {
        out.extend_from_slice(x.query);
        Some(())
    });
    stats.queries += 1;
    let answered = x.at + SimDuration::from_micros(x.rtt_us as u64);
    let shaped = slice.push_with(answered, Direction::Response, flow.reversed(), 0, |out| {
        shape_onto(x.response, x.edns_size, x.src_ip, x.at, rrl, out)
    });
    let Some((truncated, slipped)) = shaped else {
        stats.rrl_drops += 1;
        return Recorded::Dropped;
    };
    stats.responses += 1;
    stats.rrl_slips += slipped as u64;
    if !truncated {
        return Recorded::Udp;
    }

    stats.truncated_udp += 1;
    // the retry is the same question under a fresh id, and so is its
    // answer, whole this time: re-stamp the bytes as they are framed
    let id = rng.gen::<u16>().to_be_bytes();
    let retry_at = x.at + SimDuration::from_micros(x.rtt_us as u64 + TCP_RETRY_GAP_US);
    record_tcp_pair(x, retry_at, Some(id), rng, slice, stats);
    Recorded::UdpThenTcp
}

/// A TCP query/response pair opening at `t`, carrying the handshake RTT
/// the capture box measures (what Figure 5 derives its medians from).
/// Both payloads are framed (RFC 1035 two-octet length prefix), under
/// transaction id `id` when one is given.
fn record_tcp_pair(
    x: &Exchange<'_>,
    t: SimTime,
    id: Option<[u8; 2]>,
    rng: &mut StdRng,
    slice: &mut RecordSlice,
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
    let rtt = SimDuration::from_micros(x.rtt_us as u64);
    let (asked, answered) = (t + rtt, t + rtt + rtt);
    for (msg, direction, at, flow) in [
        (x.query, Direction::Query, asked, flow),
        (
            x.response.bytes,
            Direction::Response,
            answered,
            flow.reversed(),
        ),
    ] {
        slice.push_with(at, direction, flow, measured, |out| {
            let start = out.len();
            dns_wire::tcp::frame_onto(msg, out).expect("generated messages fit TCP");
            if let Some(id) = id {
                // the id opens the message, after the length prefix
                out[start + 2..start + 4].copy_from_slice(&id);
            }
            Some(())
        });
    }
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

    /// A fleet resolver's query goes on the wire as written, or — for a
    /// mixing profile — with its qname recased by the draws
    /// `mix_case_0x20` makes. The capture's copy of the exchange echoes
    /// that spelling by overwriting the response's qname octets; that
    /// must be the message a mixed-case question would have encoded to,
    /// record for record, and the resolver must read its own spelling
    /// back.
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
            let sent = query.encode().unwrap();
            let mut wire = WireScratch::default();
            let asked = crate::auth::Query::read(&sent).unwrap();
            auth.respond_signed(&asked, true, &mut wire);
            let clean_bytes = wire.response().bytes.to_vec();
            let clean_response = Message::parse(&clean_bytes).unwrap();

            let mut untouched = rng.clone();
            wire.put_query(&sent, false, &mut rng);
            assert_eq!(wire.query(), sent, "put as written");
            assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>(), "no draw unmixed");

            let mixed = crate::engine::mix_case_0x20(&clean, &mut rng.clone());
            assert_ne!(
                mixed.as_wire(),
                clean.as_wire(),
                "the draw flipped something"
            );
            wire.put_query(&sent, true, &mut rng);
            wire.echo_spelling(None);

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
            wire.echo_spelling(Some(&sent));
            assert_eq!(wire.response().bytes, clean_bytes);
        }
    }
}
