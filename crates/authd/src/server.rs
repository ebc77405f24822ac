//! Multithreaded authoritative server over real UDP and TCP sockets.
//!
//! Layout: N UDP workers each own one shard of the socket plane
//! ([`crate::sockets::UdpShardSet`] — per-worker `SO_REUSEPORT`
//! sockets with `recvmmsg`/`sendmmsg` batching on Linux, `try_clone` +
//! `recv_from` elsewhere); M TCP workers share the one non-blocking
//! listener, each blocking in `poll(2)` on it and accepting the next
//! connection itself, so the kernel's listen backlog is the only accept
//! queue. All workers share one [`Engine`]: the [`Responder`],
//! an optional *sharded* RRL limiter (per-bucket-key shards, decisions
//! byte-identical to a serial limiter), the [`Stats`] block, and
//! (optionally) one capture [`Tap`].
//!
//! The full per-query cycle — receive, respond, mirror into the tap —
//! allocates nothing on either transport once a worker's buffers are
//! warm, for any query whose qname a [`dns_wire::name::Name`] holds
//! inline (a longer one costs one allocation): every query is answered
//! in full into a per-worker [`RespondScratch`], TCP framing and each
//! connection's deframer reuse per-worker buffers
//! ([`TcpWorkerState`]), and tap records are written through
//! [`netbase::capture::RecordRef`] borrows. Only the RRL limiter's
//! bucket tables grow, as new (source network, name) buckets arrive.
//! The workspace's allocation tests pin this by driving
//! [`Engine::process_udp`] and [`Engine::process_tcp`] directly with
//! queries the worker has never seen.
//!
//! TCP robustness: messages arrive through [`dns_wire::tcp::Deframer`]
//! fed from chunked reads, so RFC 1035 length frames split across
//! arbitrary segment boundaries reassemble correctly; responses go out
//! with `write_all` (short writes retried by the stdlib); a connection
//! buffering more than [`PENDING_CAP`] bytes without completing a
//! frame is dropped and counted as an overrun. A frame that fails to
//! parse as DNS is counted malformed and the connection keeps serving
//! the frames behind it — one bad query must not discard pipelined
//! good ones.

use crate::proxy::Preamble;
use crate::respond::{OutcomeRef, RespondScratch, Responder};
use crate::sockets::{self, MsgBufPool, UdpShard, UdpShardSet};
use crate::stats::Stats;
use crate::tap::Tap;
use dns_wire::tcp::Deframer;
use netbase::capture::{Direction, RecordRef};
use netbase::flow::{FlowKey, Transport};
use netbase::time::{SimDuration, SimTime};
use simnet::rrl::{RateLimiter, RrlConfig, ShardedRateLimiter};
use simnet::scenario::DatasetSpec;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use zonedb::zone::ZoneModel;

/// Per-connection cap on buffered-but-unframed bytes.
pub const PENDING_CAP: usize = 64 * 1024;
/// How often a worker in the middle of a TCP connection polls the
/// shutdown flag; workers waiting for traffic are woken at once
/// ([`Server::request_shutdown`]).
const POLL: Duration = Duration::from_millis(50);
/// RRL shards per UDP worker: enough that hash collisions between
/// distinct hot buckets are rare (collisions cost lock latency, never
/// correctness — a bucket's decisions live in exactly one shard).
const RRL_SHARDS_PER_WORKER: usize = 8;

/// Server construction parameters.
pub struct ServerConfig {
    /// Zone to serve.
    pub zone: ZoneModel,
    /// Response rate limiting (None = unlimited).
    pub rrl: Option<RrlConfig>,
    /// Dataset epoch: capture timestamps are `start + elapsed`.
    pub start: SimTime,
    /// Address to bind (UDP and TCP; port 0 picks ephemeral ports).
    pub bind: SocketAddr,
    /// UDP worker threads (one socket shard each).
    pub udp_workers: usize,
    /// TCP worker threads.
    pub tcp_workers: usize,
    /// Allow the `SO_REUSEPORT` + `*mmsg` UDP fast path where the
    /// platform supports it. The saturation bench sets this false to
    /// measure the single-socket fallback on equal worker counts.
    pub udp_sharding: bool,
    /// Mirror handled traffic into this tap.
    pub tap: Option<Tap>,
}

impl ServerConfig {
    /// Loopback server for `spec`'s zone, RRL policy, and epoch.
    pub fn for_spec(spec: &DatasetSpec) -> ServerConfig {
        ServerConfig {
            zone: spec.zone.build(),
            rrl: spec.rrl,
            start: spec.start,
            bind: "127.0.0.1:0".parse().expect("static addr"),
            udp_workers: 4,
            tcp_workers: 2,
            udp_sharding: true,
            tap: None,
        }
    }
}

/// Maps wall-clock progress onto the dataset's simulated timeline.
#[derive(Clone)]
struct Clock {
    start: SimTime,
    epoch: Instant,
}

impl Clock {
    fn now(&self) -> SimTime {
        self.start + SimDuration::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

/// Reusable per-worker buffers for the transport-independent
/// processing core: the respond scratch plus the TCP framing buffers.
/// One per worker thread; the saturation bench and the allocation
/// tests hold one directly.
#[derive(Default)]
pub struct WorkerState {
    scratch: RespondScratch,
    frame_out: Vec<u8>,
    frame_query: Vec<u8>,
}

impl WorkerState {
    /// Fresh state, its buffers sized by the first queries.
    pub fn new() -> WorkerState {
        WorkerState::default()
    }
}

/// What a TCP worker keeps across the connections it serves: its
/// [`WorkerState`], the stream deframer, and the bytes read before a
/// connection's preamble is decided. Each connection empties the
/// buffers and keeps their room, so once they have grown a connection
/// allocates nothing of its own.
#[derive(Default)]
pub struct TcpWorkerState {
    state: WorkerState,
    deframer: Deframer,
    head: Vec<u8>,
}

impl TcpWorkerState {
    /// Fresh state, its buffers sized by the first connections.
    pub fn new() -> TcpWorkerState {
        TcpWorkerState::default()
    }
}

/// RFC 1035 length-frame `payload` into the reused `out` buffer.
/// False when the payload cannot be framed (longer than `u16::MAX`).
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) -> bool {
    let Ok(len) = u16::try_from(payload.len()) else {
        return false;
    };
    out.clear();
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    true
}

/// The transport-independent serving core every worker shares:
/// respond, rate-limit, count, mirror. Socket loops feed it datagrams
/// and framed TCP messages; the saturation bench and allocation tests
/// feed it directly, so what they measure is what the workers run.
pub struct Engine {
    responder: Responder,
    rrl: Option<ShardedRateLimiter>,
    stats: Stats,
    tap: Option<Tap>,
    clock: Clock,
}

impl Engine {
    /// Build a serving core. `rrl_shards` is the shard count for the
    /// sharded limiter (ignored without an RRL config).
    pub fn new(
        zone: ZoneModel,
        rrl: Option<RrlConfig>,
        rrl_shards: usize,
        start: SimTime,
        tap: Option<Tap>,
    ) -> Engine {
        Engine {
            responder: Responder::new(zone),
            rrl: rrl.map(|c| ShardedRateLimiter::new(c, rrl_shards.max(1))),
            stats: Stats::new(),
            tap,
            clock: Clock {
                start,
                epoch: Instant::now(),
            },
        }
    }

    /// Live counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Process one UDP datagram received from `peer` on a socket bound
    /// to `local`; returns the reply payload to send back to `peer`
    /// (None: malformed or RRL-dropped — counted, nothing to send).
    /// Counts, rate-limits, and mirrors into the tap; allocation-free
    /// once `state` is warm (see the module docs).
    pub fn process_udp<'w>(
        &self,
        datagram: &[u8],
        peer: SocketAddr,
        local: SocketAddr,
        state: &'w mut WorkerState,
    ) -> Option<&'w [u8]> {
        let t0 = Instant::now();
        // logical flow: from the preamble when the load generator sent
        // it, else the real socket addresses (plain clients)
        let (flow_src, flow_dst, payload) = match Preamble::parse(datagram) {
            Some((p, used)) => (p.src, p.dst, &datagram[used..]),
            None => (peer, local, datagram),
        };
        let now = self.clock.now();
        self.stats.bump(&self.stats.udp_queries);
        let mut gate = self.rrl.as_ref();
        let outcome = self.responder.handle_into_gated(
            payload,
            Transport::Udp,
            flow_src.ip(),
            now,
            gate.as_mut(),
            &mut state.scratch,
        );
        let flow = FlowKey {
            src: flow_src.ip(),
            src_port: flow_src.port(),
            dst: flow_dst.ip(),
            dst_port: flow_dst.port(),
            transport: Transport::Udp,
        };
        match outcome {
            OutcomeRef::Malformed => {
                self.stats.bump(&self.stats.malformed);
                None
            }
            OutcomeRef::RrlDrop => {
                self.stats.bump(&self.stats.rrl_dropped);
                // the capture shows what the wire showed: a query the
                // server never answered
                self.tap_exchange(now, flow, 0, payload, None);
                None
            }
            OutcomeRef::Reply {
                bytes,
                truncated,
                slipped,
            } => {
                self.stats.bump(&self.stats.responses);
                if truncated {
                    self.stats.bump(&self.stats.truncated);
                }
                if slipped {
                    self.stats.bump(&self.stats.rrl_slipped);
                }
                self.tap_exchange(now, flow, 0, payload, Some(bytes));
                self.stats
                    .latency
                    .record(t0.elapsed().as_micros().max(1) as u64);
                Some(bytes)
            }
        }
    }

    /// Process one deframed TCP message; returns the length-framed
    /// response to write back, or None when there is nothing to send
    /// (malformed — counted, and the connection must keep serving any
    /// pipelined frames behind it).
    pub fn process_tcp<'w>(
        &self,
        msg: &[u8],
        peer: SocketAddr,
        local: SocketAddr,
        preamble: Option<Preamble>,
        state: &'w mut WorkerState,
    ) -> Option<&'w [u8]> {
        let t0 = Instant::now();
        let now = self.clock.now();
        self.stats.bump(&self.stats.tcp_queries);
        let (flow_src, flow_dst, rtt_us) = match preamble {
            Some(p) => (p.src, p.dst, p.rtt_us),
            None => (peer, local, 0),
        };
        let outcome = self.responder.handle_into_gated(
            msg,
            Transport::Tcp,
            flow_src.ip(),
            now,
            Option::<&mut RateLimiter>::None,
            &mut state.scratch,
        );
        let flow = FlowKey {
            src: flow_src.ip(),
            src_port: flow_src.port(),
            dst: flow_dst.ip(),
            dst_port: flow_dst.port(),
            transport: Transport::Tcp,
        };
        match outcome {
            OutcomeRef::Malformed => {
                self.stats.bump(&self.stats.malformed);
                None
            }
            OutcomeRef::RrlDrop => unreachable!("TCP responses bypass RRL"),
            OutcomeRef::Reply { bytes, .. } => {
                self.stats.bump(&self.stats.responses);
                if !frame_into(&mut state.frame_out, bytes) {
                    return None;
                }
                // capture-format convention: TCP payloads keep the
                // RFC 1035 two-octet length prefix (matches the
                // offline generator)
                if frame_into(&mut state.frame_query, msg) {
                    self.tap_exchange(
                        now,
                        flow,
                        rtt_us,
                        &state.frame_query,
                        Some(&state.frame_out),
                    );
                }
                self.stats
                    .latency
                    .record(t0.elapsed().as_micros().max(1) as u64);
                Some(&state.frame_out)
            }
        }
    }

    /// Serve one TCP connection to completion: the peer closes, a read
    /// or write fails, the connection overruns [`PENDING_CAP`], or
    /// `shutdown` is set. Each framed query goes through
    /// [`Engine::process_tcp`]; a malformed one is counted and the
    /// frames pipelined behind it are still served. The connection's
    /// buffers are `worker`'s, emptied first.
    pub fn serve_tcp_conn(
        &self,
        mut stream: TcpStream,
        shutdown: &AtomicBool,
        worker: &mut TcpWorkerState,
    ) {
        let _ = stream.set_read_timeout(Some(POLL));
        let _ = stream.set_nodelay(true);
        let Ok(peer) = stream.peer_addr() else {
            return;
        };
        let local = stream.local_addr().unwrap_or(peer);
        let TcpWorkerState {
            state,
            deframer,
            head, // bytes before the preamble decision
        } = worker;
        deframer.clear();
        head.clear();
        let mut preamble: Option<Preamble> = None;
        let mut preamble_decided = false;
        let mut chunk = [0u8; 4096];

        while !shutdown.load(Ordering::SeqCst) {
            let n = match stream.read(&mut chunk) {
                Ok(0) => return, // peer closed
                Ok(n) => n,
                // Interrupted: a signal (e.g. obs::prof's SIGPROF ticker)
                // hit the timed read — the connection is still healthy
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    continue
                }
                Err(_) => return,
            };
            let mut bytes = &chunk[..n];
            if !preamble_decided {
                // what the connection sent so far: this read, unless
                // earlier ones left the decision open
                let gathering = !head.is_empty();
                if gathering {
                    head.extend_from_slice(bytes);
                    bytes = head;
                }
                if bytes.len() >= 4 && bytes[..4] != crate::proxy::MAGIC {
                    // bare client (dig): everything seen is frame data
                } else if let Some((p, used)) = Preamble::parse(bytes) {
                    preamble = Some(p);
                    bytes = &bytes[used..];
                } else if bytes.len() > 64 {
                    // claimed the magic but never completed a preamble
                    self.stats.bump(&self.stats.malformed);
                    return;
                } else {
                    if !gathering {
                        head.extend_from_slice(&chunk[..n]);
                    }
                    continue; // need more bytes to decide
                }
                preamble_decided = true;
            }
            deframer.push(bytes);
            if deframer.pending() > PENDING_CAP {
                self.stats.bump(&self.stats.overruns);
                return;
            }
            while let Some(msg) = deframer.next_frame() {
                let framed = self.process_tcp(msg, peer, local, preamble, state);
                if framed.is_some_and(|framed| stream.write_all(framed).is_err()) {
                    return;
                }
            }
        }
    }

    /// Mirror one exchange into the tap (when present), straight from
    /// the borrowed payloads — no per-record allocation.
    fn tap_exchange(
        &self,
        now: SimTime,
        flow: FlowKey,
        tcp_rtt_us: u32,
        query: &[u8],
        response: Option<&[u8]>,
    ) {
        let Some(tap) = &self.tap else { return };
        let q = RecordRef {
            timestamp: now,
            direction: Direction::Query,
            flow,
            tcp_rtt_us,
            payload: query,
        };
        let r = response.map(|bytes| RecordRef {
            timestamp: now,
            direction: Direction::Response,
            flow: flow.reversed(),
            tcp_rtt_us,
            payload: bytes,
        });
        let _ = tap.write_pair_ref(q, r);
    }
}

/// Everything the worker threads share.
struct Shared {
    engine: Engine,
    /// Non-blocking; every TCP worker waits on it and accepts from it.
    listener: TcpListener,
    shutdown: AtomicBool,
}

/// A running server; dropping it without [`Server::shutdown`] leaks
/// worker threads until process exit, so call it.
pub struct Server {
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    udp_sharded: bool,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Clones of the UDP shards: shutting their read side down wakes
    /// the workers blocked on them.
    wake_udp: Vec<std::net::UdpSocket>,
}

impl Server {
    /// Bind sockets, spawn workers, return immediately.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let udp_workers = config.udp_workers.max(1);
        let shard_set =
            UdpShardSet::bind_with(config.bind, udp_workers, POLL, config.udp_sharding)?;
        let udp_addr = shard_set.addr();
        let udp_sharded = shard_set.sharded();
        let listener = TcpListener::bind(config.bind)?;
        listener.set_nonblocking(true)?;
        let tcp_addr = listener.local_addr()?;

        let engine = Engine::new(
            config.zone,
            config.rrl,
            udp_workers * RRL_SHARDS_PER_WORKER,
            config.start,
            config.tap,
        );
        engine.stats().publish("authd_server");
        let shared = Arc::new(Shared {
            engine,
            listener,
            shutdown: AtomicBool::new(false),
        });
        let shards = shard_set.into_shards();
        let wake_udp = shards
            .iter()
            .map(|s| s.socket().try_clone())
            .collect::<io::Result<_>>()?;

        let mut threads = Vec::new();
        for (i, shard) in shards.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("authd-udp-{i}"))
                    .spawn(move || udp_worker(shard, &shared, i))?,
            );
        }

        for i in 0..config.tcp_workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("authd-tcp-{i}"))
                    .spawn(move || tcp_worker(&shared, i))?,
            );
        }

        Ok(Server {
            udp_addr,
            tcp_addr,
            udp_sharded,
            shared,
            threads,
            wake_udp,
        })
    }

    /// Bound UDP address.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// Bound TCP address.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// Whether the UDP plane took the `SO_REUSEPORT` + `*mmsg` path.
    pub fn udp_sharded(&self) -> bool {
        self.udp_sharded
    }

    /// Live counters (shared with the workers).
    pub fn stats(&self) -> &Stats {
        &self.shared.engine.stats
    }

    /// Seconds since the server started.
    pub fn elapsed_secs(&self) -> f64 {
        self.shared.engine.clock.epoch.elapsed().as_secs_f64()
    }

    /// Ask the workers to stop (returns immediately). Workers blocked
    /// waiting for traffic are woken rather than left to their read
    /// timeouts: each UDP shard's and the listener's read side is shut
    /// down. Nothing a wake reads is counted or tapped, and connections
    /// still in the listen backlog are never accepted.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for sock in &self.wake_udp {
            sockets::wake_readers(sock);
        }
        sockets::wake_readers(&self.shared.listener);
    }

    /// Drain: stop workers, join them, flush + seal the tap.
    ///
    /// Returns the number of capture records flushed (0 without a tap).
    pub fn shutdown(mut self) -> io::Result<u64> {
        self.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        match &self.shared.engine.tap {
            Some(tap) => tap.finish(),
            None => Ok(0),
        }
    }
}

fn udp_worker(shard: UdpShard, shared: &Shared, index: usize) {
    let local = shard
        .socket()
        .local_addr()
        .unwrap_or_else(|_| "127.0.0.1:0".parse().expect("static addr"));
    let mut pool = MsgBufPool::new(sockets::MAX_BATCH);
    let mut state = WorkerState::new();
    let stats = &shared.engine.stats;
    // time blocked waiting for datagrams counts as idle, everything
    // after a non-empty batch arrives as busy
    let mut util = obs::Utilization::new(obs::gauge(
        &format!("authd_udp_worker{index}_busy_permille"),
        "authd UDP worker busy fraction (permille, windowed)",
    ));
    while !shared.shutdown.load(Ordering::SeqCst) {
        let wait = Instant::now();
        let got = match shard.recv_batch(&mut pool) {
            Ok(0) => {
                util.idle(wait.elapsed()); // timeout: poll the shutdown flag
                continue;
            }
            // a batch that lands after shutdown is left unserved: it may
            // be the wake itself
            Ok(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Ok(n) => n,
            Err(e) => {
                if e.kind() == io::ErrorKind::ConnectionRefused {
                    // async ICMP error from an earlier reply whose peer
                    // vanished, surfaced on this socket's next syscall;
                    // the error queue holds one entry per bounced reply
                    stats.send_errors.add(shard.drain_errors().max(1));
                } else {
                    thread::sleep(Duration::from_millis(1));
                }
                util.idle(wait.elapsed());
                continue;
            }
        };
        util.idle(wait.elapsed());
        let work = Instant::now();
        pool.clear_replies();
        for i in 0..got {
            let (datagram, peer) = pool.datagram(i);
            if let Some(reply) = shared.engine.process_udp(datagram, peer, local, &mut state) {
                pool.stage_reply(peer, reply);
            }
        }
        let (_sent, errors) = shard.send_staged(&mut pool);
        if errors > 0 {
            stats.send_errors.add(errors);
            // already counted per-datagram above; just empty the queue
            shard.drain_errors();
        }
        util.busy(work.elapsed());
    }
}

fn tcp_worker(shared: &Shared, index: usize) {
    let stats = &shared.engine.stats;
    let mut state = TcpWorkerState::new();
    // busy = occupied by a connection (including its in-conversation
    // read waits — the worker cannot serve anyone else meanwhile)
    let mut util = obs::Utilization::new(obs::gauge(
        &format!("authd_tcp_worker{index}_busy_permille"),
        "authd TCP worker busy fraction (permille, windowed)",
    ));
    while !shared.shutdown.load(Ordering::SeqCst) {
        // block in the kernel until a connection is pending, or the
        // shutdown wake (or the poll timeout) sends us to the flag
        let wait = Instant::now();
        let accepted = match sockets::wait_readable(&shared.listener, POLL) {
            // WouldBlock: another worker took the connection
            Ok(true) => shared.listener.accept().ok(),
            _ => None,
        };
        util.idle(wait.elapsed());
        let Some((stream, _)) = accepted else {
            continue;
        };
        // a connection taken after shutdown is left unserved: the
        // backlog behind it is never accepted either
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        stats.bump(&stats.tcp_accepted);
        let work = Instant::now();
        shared
            .engine
            .serve_tcp_conn(stream, &shared.shutdown, &mut state);
        util.busy(work.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::builder::MessageBuilder;
    use dns_wire::message::Message;
    use dns_wire::tcp::frame;
    use dns_wire::types::{RType, Rcode};
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;
    use std::net::UdpSocket;

    fn start_server() -> (Server, String) {
        let spec = dataset(Vantage::Nl, 2020);
        let config = ServerConfig::for_spec(&spec);
        let qname = config.zone.registered_domain(0).to_string();
        (Server::start(config).unwrap(), qname)
    }

    fn query_wire(qname: &str, id: u16) -> Vec<u8> {
        MessageBuilder::query(id, qname.parse().unwrap(), RType::A)
            .with_edns(4096, false)
            .build()
            .encode()
            .unwrap()
    }

    /// The next length-framed response on `stream`.
    fn read_reply(stream: &mut TcpStream) -> Message {
        let mut len = [0u8; 2];
        stream.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u16::from_be_bytes(len) as usize];
        stream.read_exact(&mut body).unwrap();
        let msg = Message::parse(&body).unwrap();
        assert!(msg.header.response);
        msg
    }

    #[test]
    fn serves_bare_udp_clients() {
        let (server, qname) = start_server();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.send_to(&query_wire(&qname, 99), server.udp_addr())
            .unwrap();
        let mut buf = [0u8; 65_535];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        let msg = Message::parse(&buf[..n]).unwrap();
        assert!(msg.header.response);
        assert_eq!(msg.header.id, 99);
        assert_eq!(msg.header.rcode, Rcode::NoError);
        assert_eq!(server.stats().snapshot(1.0).udp_queries, 1);
        server.shutdown().unwrap();
    }

    #[test]
    fn serves_tcp_with_split_frames() {
        let (server, qname) = start_server();
        let preamble = Preamble {
            src: "192.0.2.1:5300".parse().unwrap(),
            dst: "198.51.100.53:53".parse().unwrap(),
            rtt_us: 120,
        };
        // a bare client, then one that opens with a preamble
        for (id, opening) in [(7, Vec::new()), (8, preamble.encode())] {
            let framed = [opening, frame(&query_wire(&qname, id)).unwrap()].concat();
            let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // dribble it one byte at a time: the server must decide on
            // the preamble and reassemble the frame across partial reads
            for b in &framed {
                stream.write_all(std::slice::from_ref(b)).unwrap();
                stream.flush().unwrap();
            }
            assert_eq!(read_reply(&mut stream).header.id, id);
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn counts_malformed_udp() {
        let (server, _) = start_server();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(b"not dns at all", server.udp_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().snapshot(1.0).malformed == 0 {
            assert!(
                Instant::now() < deadline,
                "malformed datagram never counted"
            );
            thread::sleep(Duration::from_millis(10));
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn tcp_pipelined_frames_survive_a_malformed_one() {
        let (server, qname) = start_server();
        let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // good, bad, good — all in one write; the bad frame must be
        // counted and the frames behind it still served
        let mut burst = Vec::new();
        burst.extend_from_slice(&frame(&query_wire(&qname, 21)).unwrap());
        burst.extend_from_slice(&frame(b"this is not a dns message").unwrap());
        burst.extend_from_slice(&frame(&query_wire(&qname, 22)).unwrap());
        stream.write_all(&burst).unwrap();

        let ids = [(); 2].map(|_| read_reply(&mut stream).header.id);
        assert_eq!(ids, [21, 22], "both good frames answered in order");
        let snap = server.stats().snapshot(1.0);
        assert_eq!(snap.malformed, 1, "the bad frame was counted");
        assert_eq!(snap.tcp_queries, 3);
        server.shutdown().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn udp_send_errors_are_counted_when_the_peer_vanishes() {
        let (server, qname) = start_server();
        // bursts of queries from sockets that close before the reply
        // lands: the kernel raises ICMP port-unreachable, which the
        // worker sees as a failed send (or a refused recv) on a later
        // syscall against the same shard socket
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut id = 0u16;
        while server.stats().snapshot(1.0).send_errors == 0 {
            assert!(
                Instant::now() < deadline,
                "peer-gone replies never surfaced as send errors"
            );
            for _ in 0..16 {
                let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
                sock.send_to(&query_wire(&qname, id), server.udp_addr())
                    .unwrap();
                id = id.wrapping_add(1);
                drop(sock); // gone before the reply can land
            }
            thread::sleep(Duration::from_millis(20));
        }
        server.shutdown().unwrap();
    }

    /// The kernel's listen backlog is the only accept queue. While the
    /// lone TCP worker is held on an idle connection, the connections
    /// opened behind it wait there, and all are served once it is free.
    /// A shutdown with connections still pending returns promptly, and
    /// counts none of them: they were never accepted.
    #[test]
    fn the_listen_backlog_queues_connections_for_a_busy_worker() {
        let spec = dataset(Vantage::Nl, 2020);
        let mut config = ServerConfig::for_spec(&spec);
        config.tcp_workers = 1;
        let qname = config.zone.registered_domain(0).to_string();
        let server = Server::start(config).unwrap();
        let accepted = Arc::clone(&server.stats().tcp_accepted);
        let tcp_queries = Arc::clone(&server.stats().tcp_queries);
        let accepted_reaches = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while accepted.get() < n {
                assert!(Instant::now() < deadline, "connection {n} never accepted");
                thread::sleep(Duration::from_millis(5));
            }
        };
        // connections with their query already sent
        let queued = |ids: std::ops::Range<u16>| -> Vec<TcpStream> {
            ids.map(|id| {
                let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
                stream
                    .write_all(&frame(&query_wire(&qname, id)).unwrap())
                    .unwrap();
                stream
            })
            .collect()
        };

        // the worker takes this one and waits on it for a query
        let idle = TcpStream::connect(server.tcp_addr()).unwrap();
        accepted_reaches(1);
        const N: u16 = 6;
        let waiting = queued(0..N);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(accepted.get(), 1, "a connection was taken off the backlog");
        drop(idle);
        // the backlog is first in, first out; each connection closes
        // once answered, which frees the worker for the next
        for (id, mut stream) in (0..N).zip(waiting) {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(read_reply(&mut stream).header.id, id);
        }
        accepted_reaches(1 + N as u64);

        let idle = TcpStream::connect(server.tcp_addr()).unwrap();
        accepted_reaches(2 + N as u64);
        let pending = queued(N..2 * N);
        thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        server.shutdown().unwrap();
        assert!(t0.elapsed() < POLL * 10, "shutdown took {:?}", t0.elapsed());
        drop((idle, pending));
        assert_eq!(accepted.get(), 2 + N as u64, "a pending one was accepted");
        assert_eq!(tcp_queries.get(), N as u64, "a pending query was served");
    }

    /// Shutdown wakes the idle workers, the two TCP workers waiting on
    /// the one listener among them, instead of waiting out their read
    /// timeouts, and the wake is never served: no query, no malformed
    /// datagram, no TCP connection is counted for it.
    #[test]
    fn idle_shutdown_wakes_the_workers() {
        let spec = dataset(Vantage::Nl, 2020);
        assert_eq!(ServerConfig::for_spec(&spec).tcp_workers, 2);
        // the fastest of three: a loaded test box may deschedule one
        let fastest = (0..3)
            .map(|_| {
                let server = Server::start(ServerConfig::for_spec(&spec)).unwrap();
                // let every worker reach its blocking wait
                thread::sleep(Duration::from_millis(20));
                let stats = [
                    &server.stats().udp_queries,
                    &server.stats().malformed,
                    &server.stats().tcp_accepted,
                ]
                .map(Arc::clone);
                let t0 = Instant::now();
                server.shutdown().unwrap();
                let took = t0.elapsed();
                assert_eq!(stats.map(|c| c.get()), [0; 3], "the wake was counted");
                took
            })
            .min()
            .unwrap();
        assert!(
            fastest < POLL / 5,
            "shutdown took {fastest:?}; the workers' poll interval is {POLL:?}"
        );
    }
}
