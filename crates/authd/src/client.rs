//! The one closed-loop client both load generators run: a `poll(2)`
//! reactor per load-generator thread.
//!
//! A [`Reactor`] owns a fixed set of *slots*. A slot is one UDP socket
//! of its own (its own source port, as a real resolver's queries have)
//! with at most one exchange outstanding and an absolute deadline. The
//! reactor sends each query behind a logical-address [`Preamble`], then
//! blocks in one `poll(2)` over every slot's socket until a reply lands
//! or the earliest deadline passes. It reads each ready socket without
//! blocking, drops stragglers by id (replies to exchanges that already
//! timed out), and measures RTT per slot. A deadline is absolute: a
//! stream of stragglers cannot hold an exchange open past it.
//!
//! What a slot sends next comes from the reactor's [`Work`]: a fleet
//! lane's resolver walk ([`crate::fleetgen`]) or the replay's next
//! planned query ([`crate::loadgen`]). A TC=1 answer is retried over a
//! fresh TCP connection exactly like a real resolver, and a direct-TCP
//! query goes over TCP outright; both block the reactor for the
//! length of their connection. A reply is checked where it was received
//! ([`Reader`]) and handed on as those bytes: nothing is parsed into a
//! message. The client-side [`Stats`] balance: every query sent is
//! counted once as a response or a timeout.

use crate::loadgen::LoadgenConfig;
use crate::proxy::Preamble;
use crate::sockets::PollSet;
use crate::stats::Stats;
use dns_wire::reader::Reader;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// Header octet 2's TC bit.
const TC: u8 = 0x02;

/// The answer that completed an exchange.
pub struct Reply<'a> {
    /// The response as received (the TCP one after a TC=1 fallback),
    /// a well-formed message, in the reactor's buffer until its next
    /// read.
    pub bytes: &'a [u8],
    /// Send→receive time of that response, microseconds.
    pub rtt_us: u64,
}

/// How a slot's last exchange ended.
pub enum Outcome<'a> {
    /// There was none: the slot is new, or had no work last time.
    Idle,
    /// The server answered.
    Answer(Reply<'a>),
    /// No usable answer before the deadline (a lost datagram, or an RRL
    /// drop that looks identical to one).
    Timeout,
}

/// One query a slot sends, on the logical flow `src → dst`.
pub struct Query<'q> {
    /// The encoded DNS query.
    pub wire: &'q [u8],
    /// Logical source (the resolver the tap attributes it to).
    pub src: SocketAddr,
    /// Logical destination (the nameserver address asked).
    pub dst: SocketAddr,
    /// Over TCP outright instead of UDP first.
    pub tcp_direct: bool,
}

/// What a reactor's slots send.
pub trait Work {
    /// Slot `slot`'s last exchange ended as `last`: the query it sends
    /// next, or `None` when it has nothing to send now. The reactor
    /// returns once no exchange is in flight and every slot has said
    /// `None`.
    fn next(&mut self, slot: usize, last: Outcome<'_>) -> Option<Query<'_>>;
}

/// How an exchange ended, before it is lent to the [`Work`] as an
/// [`Outcome`]: the answer's length in the reactor's buffer, and RTT.
enum Ended {
    Idle,
    Answer(usize, u64),
    Timeout,
}

/// One socket with at most one exchange outstanding.
struct Slot {
    sock: UdpSocket,
    /// Preamble and query as sent; a TC=1 retry resends the query from
    /// here.
    out: Vec<u8>,
    /// Where the query starts in `out`.
    wire_at: usize,
    src: SocketAddr,
    dst: SocketAddr,
    /// The exchange outstanding: the id its reply must carry (none for
    /// a query too short to have one), when it was sent, and its
    /// deadline.
    pending: Option<(Option<[u8; 2]>, Instant, Instant)>,
}

/// One load-generator thread's end of the closed loop.
pub struct Reactor<'a> {
    slots: Vec<Slot>,
    poll: PollSet,
    inflight: usize,
    server_udp: SocketAddr,
    server_tcp: SocketAddr,
    timeout: Duration,
    stats: &'a Stats,
    /// Inbound scratch: one datagram, or one TCP answer.
    buf: Vec<u8>,
    /// TCP scratch: preamble + framed query.
    tcp_out: Vec<u8>,
}

impl<'a> Reactor<'a> {
    /// `slots` loopback sockets aimed at `config`'s server.
    pub fn new(config: &LoadgenConfig, slots: usize, stats: &'a Stats) -> io::Result<Reactor<'a>> {
        let placeholder: SocketAddr = "0.0.0.0:0".parse().expect("static addr");
        let slots = (0..slots.max(1))
            .map(|_| {
                let sock = UdpSocket::bind("127.0.0.1:0")?;
                sock.set_nonblocking(true)?;
                Ok(Slot {
                    sock,
                    out: Vec::with_capacity(512),
                    wire_at: 0,
                    src: placeholder,
                    dst: placeholder,
                    pending: None,
                })
            })
            .collect::<io::Result<Vec<Slot>>>()?;
        Ok(Reactor {
            poll: PollSet::new(slots.iter().map(|s| &s.sock)),
            slots,
            inflight: 0,
            server_udp: config.server_udp,
            server_tcp: config.server_tcp,
            timeout: config.timeout,
            stats,
            buf: vec![0u8; 65_535],
            tcp_out: Vec::with_capacity(2048),
        })
    }

    /// Run every slot until `work` runs dry. When this returns, every
    /// query sent has been answered or has timed out.
    pub fn run(&mut self, work: &mut impl Work) {
        loop {
            for i in 0..self.slots.len() {
                if self.slots[i].pending.is_none() {
                    self.advance(work, i, Ended::Idle);
                }
            }
            if self.inflight == 0 {
                return;
            }
            let now = Instant::now();
            let earliest = self
                .slots
                .iter()
                .filter_map(|s| s.pending.map(|(_, _, deadline)| deadline))
                .min()
                .expect("an exchange is in flight");
            if self
                .poll
                .wait(earliest.saturating_duration_since(now))
                .is_err()
            {
                // poll itself failed: back off, then read what is there
                std::thread::sleep(Duration::from_millis(1));
            }
            let now = Instant::now();
            for i in 0..self.slots.len() {
                let ended = match self.receive(i) {
                    Some(answer) => answer,
                    None => match self.slots[i].pending {
                        Some((_, _, deadline)) if now >= deadline => {
                            self.stats.bump(&self.stats.timeouts);
                            Ended::Timeout
                        }
                        _ => continue,
                    },
                };
                self.slots[i].pending = None;
                self.inflight -= 1;
                self.advance(work, i, ended);
            }
        }
    }

    /// Read slot `i`'s socket dry or up to the reply it waits for.
    /// Stragglers (wrong id) are dropped, bytes that are no DNS message
    /// are counted malformed and dropped. A TC=1 reply is retried over
    /// TCP before it counts as the exchange's end.
    fn receive(&mut self, i: usize) -> Option<Ended> {
        if !self.poll.readable(i) {
            return None;
        }
        loop {
            let n = self.slots[i].sock.recv(&mut self.buf).ok()?;
            let Ok(reply) = Reader::new(&self.buf[..n]) else {
                self.stats.bump(&self.stats.malformed);
                continue;
            };
            let Some((id, sent_at, _)) = self.slots[i].pending else {
                continue; // nothing outstanding: a straggler
            };
            if id != Some(reply.header().id.to_be_bytes()) {
                continue; // a straggler from a timed-out earlier exchange
            }
            let rtt_us = self.observe(sent_at);
            if self.buf[2] & TC == 0 {
                return Some(Ended::Answer(n, rtt_us));
            }
            // the TCP proof-of-path: same question, fresh connection
            self.stats.bump(&self.stats.tcp_fallbacks);
            return Some(self.tcp(i));
        }
    }

    /// Lend slot `i`'s `ended` exchange to `work` and send what it asks
    /// for next, until a UDP query is in flight or the work has none.
    fn advance(&mut self, work: &mut impl Work, i: usize, mut ended: Ended) {
        loop {
            let last = match ended {
                Ended::Idle => Outcome::Idle,
                Ended::Answer(len, rtt_us) => Outcome::Answer(Reply {
                    bytes: &self.buf[..len],
                    rtt_us,
                }),
                Ended::Timeout => Outcome::Timeout,
            };
            let Some(query) = work.next(i, last) else {
                return;
            };
            let slot = &mut self.slots[i];
            slot.out.clear();
            Preamble {
                src: query.src,
                dst: query.dst,
                rtt_us: 0,
            }
            .encode_into(&mut slot.out);
            slot.wire_at = slot.out.len();
            slot.out.extend_from_slice(query.wire);
            (slot.src, slot.dst) = (query.src, query.dst);
            if query.tcp_direct {
                ended = self.tcp(i);
                continue;
            }
            let slot = &mut self.slots[i];
            self.stats.bump(&self.stats.sent);
            let sent_at = Instant::now();
            if slot.sock.send_to(&slot.out, self.server_udp).is_err() {
                self.stats.bump(&self.stats.timeouts);
                ended = Ended::Timeout;
                continue;
            }
            let id = slot.out[slot.wire_at..].get(..2).map(|id| [id[0], id[1]]);
            slot.pending = Some((id, sent_at, sent_at + self.timeout));
            self.inflight += 1;
            return;
        }
    }

    /// Slot `i`'s query over a fresh TCP connection; the preamble
    /// donates the measured connect time as the handshake RTT. Counts
    /// the send, and the answer or the timeout.
    fn tcp(&mut self, i: usize) -> Ended {
        self.stats.bump(&self.stats.sent);
        match self.tcp_exchange(i) {
            Some((len, rtt_us)) => Ended::Answer(len, rtt_us),
            None => {
                self.stats.bump(&self.stats.timeouts);
                Ended::Timeout
            }
        }
    }

    /// The TCP exchange itself: the answer's length in `buf`, and RTT.
    fn tcp_exchange(&mut self, i: usize) -> Option<(usize, u64)> {
        let slot = &self.slots[i];
        let wire = &slot.out[slot.wire_at..];
        let len = u16::try_from(wire.len()).ok()?;
        let connect_at = Instant::now();
        let mut stream = TcpStream::connect_timeout(&self.server_tcp, self.timeout).ok()?;
        let rtt_us = connect_at.elapsed().as_micros().max(1) as u32;
        stream.set_read_timeout(Some(self.timeout)).ok()?;
        let _ = stream.set_nodelay(true);
        self.tcp_out.clear();
        Preamble {
            src: slot.src,
            dst: slot.dst,
            rtt_us,
        }
        .encode_into(&mut self.tcp_out);
        self.tcp_out.extend_from_slice(&len.to_be_bytes());
        self.tcp_out.extend_from_slice(wire);
        stream.write_all(&self.tcp_out).ok()?;
        let sent_at = Instant::now();
        let mut len = [0u8; 2];
        stream.read_exact(&mut len).ok()?;
        let len = u16::from_be_bytes(len) as usize;
        stream.read_exact(&mut self.buf[..len]).ok()?;
        Reader::new(&self.buf[..len]).ok()?;
        Some((len, self.observe(sent_at)))
    }

    /// Count one response and its latency.
    fn observe(&self, sent_at: Instant) -> u64 {
        let rtt_us = sent_at.elapsed().as_micros().max(1) as u64;
        self.stats.latency.record(rtt_us);
        self.stats.bump(&self.stats.responses);
        rtt_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::builder::MessageBuilder;
    use dns_wire::message::Message;
    use dns_wire::types::{RType, Rcode};
    use simnet::profile::Vantage;
    use simnet::scenario::{dataset, Scale};

    /// One slot sending `wires` in turn, recording how each exchange
    /// ended (the reply's id, or `None` for a timeout) and when.
    struct Script {
        wires: Vec<Vec<u8>>,
        sent: usize,
        ended: Vec<(Option<u16>, Instant)>,
        /// Stall this long after a timeout before the next query.
        pause_after_timeout: Duration,
    }

    impl Work for Script {
        fn next(&mut self, _slot: usize, last: Outcome<'_>) -> Option<Query<'_>> {
            match last {
                Outcome::Idle => {}
                Outcome::Answer(reply) => {
                    let id = Reader::new(reply.bytes).unwrap().header().id;
                    self.ended.push((Some(id), Instant::now()));
                }
                Outcome::Timeout => {
                    self.ended.push((None, Instant::now()));
                    std::thread::sleep(self.pause_after_timeout);
                }
            }
            let wire = self.wires.get(self.sent)?;
            self.sent += 1;
            Some(Query {
                wire,
                src: "192.0.2.1:4000".parse().unwrap(),
                dst: "192.0.2.53:53".parse().unwrap(),
                tcp_direct: false,
            })
        }
    }

    fn query(id: u16) -> Vec<u8> {
        MessageBuilder::query(id, "example.nl".parse().unwrap(), RType::A)
            .build()
            .encode()
            .unwrap()
    }

    /// The stub's answer to `datagram` (preamble + query), under
    /// another id when given one.
    fn answer(datagram: &[u8], id: Option<u16>) -> Vec<u8> {
        let (_, skip) = Preamble::parse(datagram).expect("the reactor sends a preamble");
        let mut query = Message::parse(&datagram[skip..]).unwrap();
        query.header.id = id.unwrap_or(query.header.id);
        MessageBuilder::response(&query, Rcode::NoError)
            .build()
            .encode()
            .unwrap()
    }

    fn reactor_for<'a>(addr: SocketAddr, timeout: Duration, stats: &'a Stats) -> Reactor<'a> {
        let mut config =
            LoadgenConfig::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 0, addr, addr);
        config.timeout = timeout;
        Reactor::new(&config, 1, stats).unwrap()
    }

    /// A reply that arrives after its exchange timed out must not be
    /// taken for the answer to the slot's next query.
    #[test]
    fn late_reply_is_not_mistaken_for_the_next_answer() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let timeout = Duration::from_millis(100);
        let stub = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            for delay in [timeout * 2, Duration::ZERO] {
                let (n, peer) = server.recv_from(&mut buf).unwrap();
                let reply = answer(&buf[..n], None);
                std::thread::sleep(delay);
                server.send_to(&reply, peer).unwrap();
            }
        });

        let stats = Stats::new();
        let mut script = Script {
            wires: vec![query(0x1111), query(0x2222)],
            sent: 0,
            ended: Vec::new(),
            // let the late reply to the first query land in the socket
            pause_after_timeout: timeout * 2,
        };
        reactor_for(addr, timeout, &stats).run(&mut script);
        let ids: Vec<Option<u16>> = script.ended.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![None, Some(0x2222)]);
        assert_eq!(stats.timeouts.get(), 1);
        assert_eq!(stats.responses.get(), 1);
        assert_eq!(stats.sent.get(), 2);
        stub.join().unwrap();
    }

    /// Stragglers never extend an exchange: with a wrong-id answer every
    /// 60 ms, and a datagram that is no DNS message between each two, a
    /// 100 ms exchange still times out on its deadline.
    #[test]
    fn a_stream_of_stragglers_does_not_hold_an_exchange_open() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let timeout = Duration::from_millis(100);
        let stub = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            let (n, peer) = server.recv_from(&mut buf).unwrap();
            let wrong_id = answer(&buf[..n], Some(0x0bad));
            for _ in 0..6 {
                std::thread::sleep(Duration::from_millis(30));
                server.send_to(b"no dns", peer).unwrap();
                std::thread::sleep(Duration::from_millis(30));
                server.send_to(&wrong_id, peer).unwrap();
            }
        });

        let stats = Stats::new();
        let mut script = Script {
            wires: vec![query(0x1234)],
            sent: 0,
            ended: Vec::new(),
            pause_after_timeout: Duration::ZERO,
        };
        let started = Instant::now();
        reactor_for(addr, timeout, &stats).run(&mut script);
        let [(id, at)] = script.ended[..] else {
            panic!("one exchange, ended once: {:?}", script.ended.len());
        };
        assert_eq!(id, None, "a straggler was taken for the answer");
        let waited = at - started;
        assert!(
            waited < timeout * 2,
            "the exchange waited {waited:?} against a {timeout:?} timeout"
        );
        assert_eq!((stats.sent.get(), stats.timeouts.get()), (1, 1));
        stub.join().unwrap();
    }
}
