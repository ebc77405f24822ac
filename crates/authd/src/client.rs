//! The one closed-loop client exchange both load generators run.
//!
//! A [`Client`] is one worker's socket plus its reused buffers. An
//! exchange sends the query over UDP behind a logical-address
//! [`Preamble`], waits for the reply *with the query's id* (anything
//! else is a straggler from an exchange that already timed out),
//! retries a TC=1 answer over a fresh TCP connection exactly like a
//! real resolver, and keeps the client-side [`Stats`]. A reply is
//! checked where it was received ([`Reader`]) and handed back as those
//! bytes: nothing is parsed into a message.

use crate::loadgen::LoadgenConfig;
use crate::proxy::Preamble;
use crate::stats::Stats;
use dns_wire::reader::Reader;
use dns_wire::tcp::frame;
use obs::Histogram;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// Header octet 2's TC bit.
const TC: u8 = 0x02;

/// The answer that completed an exchange.
pub struct Reply<'a> {
    /// The response as received (the TCP one after a TC=1 fallback),
    /// a well-formed message, in the client's buffer until its next
    /// exchange.
    pub bytes: &'a [u8],
    /// Send→receive time of that response, microseconds.
    pub rtt_us: u64,
}

/// One worker's end of the closed loop.
pub struct Client<'a> {
    sock: UdpSocket,
    server_udp: SocketAddr,
    server_tcp: SocketAddr,
    timeout: Duration,
    stats: &'a Stats,
    /// Outbound scratch: preamble + payload.
    out: Vec<u8>,
    /// Inbound datagram scratch.
    buf: Vec<u8>,
}

impl<'a> Client<'a> {
    /// Bind a loopback socket aimed at `config`'s server.
    pub fn new(config: &LoadgenConfig, stats: &'a Stats) -> io::Result<Client<'a>> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(config.timeout))?;
        Ok(Client {
            sock,
            server_udp: config.server_udp,
            server_tcp: config.server_tcp,
            timeout: config.timeout,
            stats,
            out: Vec::with_capacity(2048),
            buf: vec![0u8; 65_535],
        })
    }

    /// Run one exchange for the encoded query `wire` on the logical
    /// flow `src → dst`: UDP with TCP fallback on TC=1, or TCP outright
    /// when `tcp_direct`. `None` means no usable answer arrived in time
    /// (a lost datagram, or an RRL drop that looks identical to one).
    /// Every response time also lands in `ns_rtt` when given.
    pub fn exchange(
        &mut self,
        wire: &[u8],
        src: SocketAddr,
        dst: SocketAddr,
        tcp_direct: bool,
        ns_rtt: Option<&Histogram>,
    ) -> Option<Reply<'_>> {
        if !tcp_direct {
            self.stats.bump(&self.stats.sent);
            match self.udp(wire, src, dst, ns_rtt) {
                Some((len, _)) if self.buf[..len][2] & TC != 0 => {
                    // the TCP proof-of-path: same question, fresh connection
                    self.stats.bump(&self.stats.tcp_fallbacks);
                }
                Some((len, rtt_us)) => {
                    return Some(Reply {
                        bytes: &self.buf[..len],
                        rtt_us,
                    })
                }
                None => {
                    self.stats.bump(&self.stats.timeouts);
                    return None;
                }
            }
        }
        self.stats.bump(&self.stats.sent);
        let Some((len, rtt_us)) = self.tcp(wire, src, dst, ns_rtt) else {
            self.stats.bump(&self.stats.timeouts);
            return None;
        };
        Some(Reply {
            bytes: &self.buf[..len],
            rtt_us,
        })
    }

    /// One UDP query; the answer's length in `buf` and its RTT.
    fn udp(
        &mut self,
        wire: &[u8],
        src: SocketAddr,
        dst: SocketAddr,
        ns_rtt: Option<&Histogram>,
    ) -> Option<(usize, u64)> {
        self.out.clear();
        Preamble {
            src,
            dst,
            rtt_us: 0,
        }
        .encode_into(&mut self.out);
        self.out.extend_from_slice(wire);
        let sent_at = Instant::now();
        self.sock.send_to(&self.out, self.server_udp).ok()?;
        loop {
            let n = self.sock.recv(&mut self.buf).ok()?;
            let Ok(reply) = Reader::new(&self.buf[..n]) else {
                self.stats.bump(&self.stats.malformed);
                continue;
            };
            if wire.get(..2) != Some(&reply.header().id.to_be_bytes()[..]) {
                // a straggler from a timed-out earlier exchange
                continue;
            }
            return Some((n, self.observe(sent_at, ns_rtt)));
        }
    }

    /// One query/response over a fresh TCP connection; the preamble
    /// donates the measured connect time as the handshake RTT. The
    /// answer's length in `buf` and its RTT.
    fn tcp(
        &mut self,
        wire: &[u8],
        src: SocketAddr,
        dst: SocketAddr,
        ns_rtt: Option<&Histogram>,
    ) -> Option<(usize, u64)> {
        let connect_at = Instant::now();
        let mut stream = TcpStream::connect_timeout(&self.server_tcp, self.timeout).ok()?;
        let rtt_us = connect_at.elapsed().as_micros().max(1) as u32;
        stream.set_read_timeout(Some(self.timeout)).ok()?;
        let _ = stream.set_nodelay(true);
        self.out.clear();
        Preamble { src, dst, rtt_us }.encode_into(&mut self.out);
        self.out.extend_from_slice(&frame(wire).ok()?);
        stream.write_all(&self.out).ok()?;
        let sent_at = Instant::now();
        let mut len = [0u8; 2];
        stream.read_exact(&mut len).ok()?;
        let len = u16::from_be_bytes(len) as usize;
        stream.read_exact(&mut self.buf[..len]).ok()?;
        let rtt_us = self.observe(sent_at, ns_rtt);
        Reader::new(&self.buf[..len]).ok()?;
        Some((len, rtt_us))
    }

    /// Count one response and its latency.
    fn observe(&self, sent_at: Instant, ns_rtt: Option<&Histogram>) -> u64 {
        let rtt_us = sent_at.elapsed().as_micros().max(1) as u64;
        self.stats.latency.record(rtt_us);
        self.stats.bump(&self.stats.responses);
        if let Some(h) = ns_rtt {
            h.record(rtt_us);
        }
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

    /// A reply that arrives after its exchange timed out must not be
    /// taken for the answer to the next query.
    #[test]
    fn late_reply_is_not_mistaken_for_the_next_answer() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let timeout = Duration::from_millis(100);
        let stub = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            for delay in [timeout * 2, Duration::ZERO] {
                let (n, peer) = server.recv_from(&mut buf).unwrap();
                let (_, skip) = Preamble::parse(&buf[..n]).expect("client sends a preamble");
                let query = Message::parse(&buf[skip..n]).unwrap();
                let reply = MessageBuilder::response(&query, Rcode::NoError).build();
                std::thread::sleep(delay);
                server.send_to(&reply.encode().unwrap(), peer).unwrap();
            }
        });

        let mut config =
            LoadgenConfig::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 0, addr, addr);
        config.timeout = timeout;
        let stats = Stats::new();
        let mut client = Client::new(&config, &stats).unwrap();
        let src: SocketAddr = "192.0.2.1:4000".parse().unwrap();
        let dst: SocketAddr = "192.0.2.53:53".parse().unwrap();
        let wire = |id: u16| {
            MessageBuilder::query(id, "example.nl".parse().unwrap(), RType::A)
                .build()
                .encode()
                .unwrap()
        };

        assert!(client
            .exchange(&wire(0x1111), src, dst, false, None)
            .is_none());
        // let the late reply to the first query land in the socket buffer
        std::thread::sleep(timeout * 2);
        let reply = client
            .exchange(&wire(0x2222), src, dst, false, None)
            .expect("second query is answered promptly");
        assert_eq!(Reader::new(reply.bytes).unwrap().header().id, 0x2222);
        assert_eq!(stats.timeouts.get(), 1);
        assert_eq!(stats.responses.get(), 1);
        stub.join().unwrap();
    }
}
