//! The sharded, batched socket layer under the authoritative server.
//!
//! Two UDP strategies behind one [`UdpShard`] API:
//!
//! - **Linux**: per-worker `SO_REUSEPORT` sockets — the kernel hashes
//!   each inbound 4-tuple onto exactly one shard, so workers never
//!   contend on a socket lock — with `recvmmsg`/`sendmmsg` moving up
//!   to [`MAX_BATCH`] datagrams per syscall through pooled message
//!   buffers ([`MsgBufPool`]). The syscalls are declared here directly
//!   against the platform libc (the workspace vendors every dependency;
//!   a `libc` crate is exactly the kind of thing it doesn't take).
//! - **Everywhere else** (and on Linux when the sharded bind fails,
//!   e.g. under a restrictive sandbox): the portable fallback — one
//!   bound socket `try_clone`d per worker, `recv_from`/`send_to`, batch
//!   size 1 — with the identical calling convention, so the server
//!   loop is written once.
//!
//! The shard sockets are *created and configured* through FFI but then
//! wrapped in [`std::net::UdpSocket`] (via `FromRawFd`), so lifetime
//! management, `local_addr`, and `SO_RCVTIMEO` read timeouts stay
//! std's problem. The read timeout makes `recvmmsg` (called with
//! `MSG_WAITFORONE`) return `EAGAIN` when idle, which is how worker
//! loops poll their shutdown flag without spinning.
//!
//! [`PollSet`] wraps `poll(2)` over a slice of sockets: the load
//! generator's reactor waits on all of its slots' sockets at once, and
//! [`wait_readable`] is the same call on one TCP listener, so each TCP
//! worker blocks in the kernel until a connection is pending instead of
//! sleeping between `accept` attempts. [`wake_readers`] shuts a
//! socket's read side down, which returns every thread blocked reading
//! it at once — how the server stops its workers without waiting out a
//! read timeout.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Most datagrams moved per `recvmmsg`/`sendmmsg` call.
pub const MAX_BATCH: usize = 32;
/// Kernel receive buffer requested for server sockets. Bursty senders
/// park whole batches in the socket queue between worker sweeps; the
/// default `rmem` drops small datagrams long before this (each skb's
/// truesize accounting dwarfs its payload). Clamped by `rmem_max`.
const SERVER_RCVBUF: usize = 4 << 20;
/// Receive-slot size: the largest UDP datagram (preamble + query).
pub const DATAGRAM_CAP: usize = 65_535;

/// Pooled per-worker message buffers: receive slots filled by
/// [`UdpShard::recv_batch`], reply slots staged with
/// [`MsgBufPool::stage_reply`] and flushed by
/// [`UdpShard::send_staged`]. All buffers are allocated once at
/// construction (replies grow to their high-water mark and are then
/// reused), keeping the worker loop allocation-free in steady state.
pub struct MsgBufPool {
    batch: usize,
    recv_bufs: Vec<Box<[u8]>>,
    recv_lens: Vec<usize>,
    recv_peers: Vec<SocketAddr>,
    reply_bufs: Vec<Vec<u8>>,
    reply_peers: Vec<SocketAddr>,
    staged: usize,
}

impl MsgBufPool {
    /// Pool with `batch` receive and reply slots (clamped to
    /// 1..=[`MAX_BATCH`]).
    pub fn new(batch: usize) -> MsgBufPool {
        let batch = batch.clamp(1, MAX_BATCH);
        let placeholder: SocketAddr = "0.0.0.0:0".parse().expect("static addr");
        MsgBufPool {
            batch,
            recv_bufs: (0..batch)
                .map(|_| vec![0u8; DATAGRAM_CAP].into_boxed_slice())
                .collect(),
            recv_lens: vec![0; batch],
            recv_peers: vec![placeholder; batch],
            reply_bufs: (0..batch).map(|_| Vec::new()).collect(),
            reply_peers: vec![placeholder; batch],
            staged: 0,
        }
    }

    /// Receive slots per batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The `i`-th received datagram of the last batch.
    pub fn datagram(&self, i: usize) -> (&[u8], SocketAddr) {
        (&self.recv_bufs[i][..self.recv_lens[i]], self.recv_peers[i])
    }

    /// Forget staged replies (start of a new batch).
    pub fn clear_replies(&mut self) {
        self.staged = 0;
    }

    /// Stage one reply for the next [`UdpShard::send_staged`]. The
    /// payload is copied into a pooled slot, so the caller's buffer is
    /// free to be reused immediately.
    pub fn stage_reply(&mut self, to: SocketAddr, payload: &[u8]) {
        let slot = &mut self.reply_bufs[self.staged];
        slot.clear();
        slot.extend_from_slice(payload);
        self.reply_peers[self.staged] = to;
        self.staged += 1;
    }

    /// Replies currently staged.
    pub fn staged(&self) -> usize {
        self.staged
    }
}

/// One worker's share of the UDP plane: its own `SO_REUSEPORT` socket
/// on Linux, a `try_clone` of the single shared socket elsewhere.
pub struct UdpShard {
    sock: UdpSocket,
    batched: bool,
}

impl UdpShard {
    /// The underlying socket.
    pub fn socket(&self) -> &UdpSocket {
        &self.sock
    }

    /// Whether this shard moves batches through `recvmmsg`/`sendmmsg`.
    pub fn batched(&self) -> bool {
        self.batched
    }

    /// Receive up to `pool.batch()` datagrams into the pool's receive
    /// slots. Blocks until at least one datagram arrives or the
    /// socket's read timeout elapses; returns `Ok(0)` on timeout so
    /// callers can poll a shutdown flag.
    pub fn recv_batch(&self, pool: &mut MsgBufPool) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        if self.batched {
            return linux::recv_mmsg(&self.sock, pool);
        }
        match self.sock.recv_from(&mut pool.recv_bufs[0]) {
            Ok((n, peer)) => {
                pool.recv_lens[0] = n;
                pool.recv_peers[0] = peer;
                Ok(1)
            }
            // Interrupted: a signal (e.g. obs::prof's SIGPROF ticker)
            // cut the timed recv short; report an empty batch like the
            // batched Linux path does
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                Ok(0)
            }
            Err(e) => Err(e),
        }
    }

    /// Send every staged reply; returns `(sent, errors)`. A failed
    /// datagram is counted and skipped — one refused peer must not
    /// wedge the rest of the batch.
    pub fn send_staged(&self, pool: &mut MsgBufPool) -> (u64, u64) {
        #[cfg(target_os = "linux")]
        if self.batched {
            let out = linux::send_mmsg(&self.sock, pool);
            pool.staged = 0;
            return out;
        }
        let (mut sent, mut errors) = (0u64, 0u64);
        for i in 0..pool.staged {
            match self.sock.send_to(&pool.reply_bufs[i], pool.reply_peers[i]) {
                Ok(_) => sent += 1,
                Err(_) => errors += 1,
            }
        }
        pool.staged = 0;
        (sent, errors)
    }

    /// Discard (and count) entries on the socket's error queue — one
    /// per reply datagram the network bounced back. Callers invoke
    /// this when a syscall surfaces `ConnectionRefused`, so the queue
    /// never pins receive-buffer space. Always 0 off Linux.
    pub fn drain_errors(&self) -> u64 {
        #[cfg(target_os = "linux")]
        {
            linux::drain_errqueue(&self.sock)
        }
        #[cfg(not(target_os = "linux"))]
        {
            0
        }
    }
}

/// A set of UDP shards bound to one address, one per worker.
pub struct UdpShardSet {
    shards: Vec<UdpShard>,
    addr: SocketAddr,
    sharded: bool,
}

impl UdpShardSet {
    /// Bind `count` shards on `addr` (port 0 picks one ephemeral port
    /// shared by every shard). Tries the `SO_REUSEPORT` + `*mmsg` path
    /// on Linux for IPv4 binds; falls back to `try_clone` of a single
    /// socket when unsupported or denied. Every shard gets
    /// `read_timeout` as its `SO_RCVTIMEO`.
    pub fn bind(addr: SocketAddr, count: usize, read_timeout: Duration) -> io::Result<UdpShardSet> {
        Self::bind_with(addr, count, read_timeout, true)
    }

    /// [`UdpShardSet::bind`] with the sharded fast path optionally
    /// disabled — the saturation bench uses this to compare the two
    /// strategies on identical worker counts.
    pub fn bind_with(
        addr: SocketAddr,
        count: usize,
        read_timeout: Duration,
        allow_sharded: bool,
    ) -> io::Result<UdpShardSet> {
        let count = count.max(1);
        #[cfg(target_os = "linux")]
        if allow_sharded && addr.is_ipv4() {
            if let Ok(set) = Self::bind_sharded(addr, count, read_timeout) {
                return Ok(set);
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = allow_sharded;
        Self::bind_cloned(addr, count, read_timeout)
    }

    #[cfg(target_os = "linux")]
    fn bind_sharded(
        addr: SocketAddr,
        count: usize,
        read_timeout: Duration,
    ) -> io::Result<UdpShardSet> {
        let first = linux::bind_reuseport(addr)?;
        first.set_read_timeout(Some(read_timeout))?;
        linux::set_rcvbuf(&first, SERVER_RCVBUF);
        let real = first.local_addr()?;
        let mut shards = vec![UdpShard {
            sock: first,
            batched: true,
        }];
        for _ in 1..count {
            let sock = linux::bind_reuseport(real)?;
            sock.set_read_timeout(Some(read_timeout))?;
            linux::set_rcvbuf(&sock, SERVER_RCVBUF);
            shards.push(UdpShard {
                sock,
                batched: true,
            });
        }
        Ok(UdpShardSet {
            shards,
            addr: real,
            sharded: true,
        })
    }

    fn bind_cloned(
        addr: SocketAddr,
        count: usize,
        read_timeout: Duration,
    ) -> io::Result<UdpShardSet> {
        let sock = UdpSocket::bind(addr)?;
        sock.set_read_timeout(Some(read_timeout))?;
        #[cfg(target_os = "linux")]
        {
            if addr.is_ipv4() {
                linux::set_recverr(&sock);
            }
            linux::set_rcvbuf(&sock, SERVER_RCVBUF);
        }
        let real = sock.local_addr()?;
        let mut shards = Vec::with_capacity(count);
        for _ in 1..count {
            shards.push(UdpShard {
                sock: sock.try_clone()?,
                batched: false,
            });
        }
        shards.push(UdpShard {
            sock,
            batched: false,
        });
        Ok(UdpShardSet {
            shards,
            addr: real,
            sharded: false,
        })
    }

    /// The bound address (all shards share it).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the `SO_REUSEPORT` fast path is active.
    pub fn sharded(&self) -> bool {
        self.sharded
    }

    /// Hand the shards to their workers.
    pub fn into_shards(self) -> Vec<UdpShard> {
        self.shards
    }
}

/// Grow a socket's kernel receive buffer (`SO_RCVBUF`). Open-loop
/// senders (the saturation bench) use this so a blasted batch's replies
/// are never dropped for lack of buffer space. Best-effort: a no-op off
/// Linux and on kernels that clamp the request.
pub fn set_rcvbuf(sock: &UdpSocket, bytes: usize) {
    #[cfg(target_os = "linux")]
    linux::set_rcvbuf(sock, bytes);
    #[cfg(not(target_os = "linux"))]
    let _ = (sock, bytes);
}

/// Sockets waited on together, in a fixed order: one `poll(2)` over
/// all of them per [`PollSet::wait`].
pub struct PollSet {
    #[cfg(unix)]
    fds: Vec<unix::PollFd>,
}

impl PollSet {
    /// Watch `socks` for readability, in this order.
    pub fn new<'s>(socks: impl IntoIterator<Item = &'s UdpSocket>) -> PollSet {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            PollSet {
                fds: socks
                    .into_iter()
                    .map(|s| unix::PollFd::readable(s.as_raw_fd()))
                    .collect(),
            }
        }
        #[cfg(not(unix))]
        {
            let _ = socks;
            PollSet {}
        }
    }

    /// Block until at least one socket is readable or `timeout`
    /// elapses; [`PollSet::readable`] then says which. On non-unix
    /// platforms this degrades to a sleep of `timeout`, after which
    /// every socket counts as readable (the caller's nonblocking reads
    /// report `WouldBlock` themselves).
    pub fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        #[cfg(unix)]
        {
            unix::poll_fds(&mut self.fds, timeout).map(|_| ())
        }
        #[cfg(not(unix))]
        {
            std::thread::sleep(timeout);
            Ok(())
        }
    }

    /// Whether the `i`-th socket was readable at the last wait.
    pub fn readable(&self, i: usize) -> bool {
        #[cfg(unix)]
        {
            self.fds[i].ready()
        }
        #[cfg(not(unix))]
        {
            let _ = i;
            true
        }
    }
}

/// Block until `listener` has a pending connection or `timeout`
/// elapses; `Ok(true)` means accept will not block. On non-unix
/// platforms this degrades to a fixed sleep + `true` (the caller's
/// nonblocking accept then reports `WouldBlock` itself).
pub fn wait_readable(listener: &std::net::TcpListener, timeout: Duration) -> io::Result<bool> {
    #[cfg(unix)]
    {
        use std::os::fd::AsRawFd;
        let mut fds = [unix::PollFd::readable(listener.as_raw_fd())];
        unix::poll_fds(&mut fds, timeout).map(|_| fds[0].ready())
    }
    #[cfg(not(unix))]
    {
        std::thread::sleep(timeout);
        Ok(true)
    }
}

/// Shut `sock`'s read side down: every thread blocked reading it — in
/// `recv`, `recvmmsg`, `accept` or `poll` — returns at once, and later
/// reads return nothing. A server stopping its workers calls this on a
/// clone of each socket they read. A no-op off unix, where readers
/// notice on their next read timeout instead.
#[cfg(unix)]
pub fn wake_readers(sock: &impl std::os::fd::AsRawFd) {
    unix::shutdown_read(sock.as_raw_fd());
}

/// See the unix [`wake_readers`].
#[cfg(not(unix))]
pub fn wake_readers<S>(sock: &S) {
    let _ = sock;
}

#[cfg(unix)]
mod unix {
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        pub fn readable(fd: RawFd) -> PollFd {
            PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            }
        }

        pub fn ready(&self) -> bool {
            self.revents & POLLIN != 0
        }
    }

    const POLLIN: i16 = 0x001;
    const SHUT_RD: c_int = 0;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
        fn shutdown(fd: c_int, how: c_int) -> c_int;
    }

    /// One `poll(2)` over `fds`, the timeout rounded up to whole
    /// milliseconds (so a deadline under a millisecond away waits
    /// instead of spinning); how many are ready, 0 on a timeout or a
    /// signal.
    pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        for pfd in fds.iter_mut() {
            pfd.revents = 0;
        }
        let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as c_int;
        // SAFETY: `fds` is a valid pollfd array for the whole call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            Ok(0)
        } else {
            Err(e)
        }
    }

    /// `shutdown(fd, SHUT_RD)`, best-effort: an unconnected UDP socket
    /// reports `ENOTCONN` but is shut down and its readers woken all
    /// the same.
    pub fn shutdown_read(fd: RawFd) {
        // SAFETY: shutdown on a descriptor the caller keeps open.
        unsafe {
            let _ = shutdown(fd, SHUT_RD);
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    //! Direct declarations against the platform libc for the batched
    //! UDP syscalls. Layouts match the 64-bit Linux ABI (`msghdr` with
    //! `socklen_t` name length and `size_t` iov/control lengths, the
    //! `repr(C)` padding falling exactly where glibc/musl put it).

    use super::{MsgBufPool, DATAGRAM_CAP, MAX_BATCH};
    use std::ffi::{c_int, c_uint, c_void};
    use std::io;
    use std::mem;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::ptr;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_DGRAM: c_int = 2;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEPORT: c_int = 15;
    const SO_RCVBUF: c_int = 8;
    const IPPROTO_IP: c_int = 0;
    /// Deliver async ICMP errors (port unreachable from a vanished
    /// peer) on unconnected sockets; without it udp(7) silently drops
    /// them unless the socket is connected, and a server socket never
    /// is — replies to dead clients would go uncounted.
    const IP_RECVERR: c_int = 11;
    /// `recvmmsg`: block for the first datagram only, then drain
    /// whatever else is already queued without blocking again.
    const MSG_WAITFORONE: c_int = 0x10000;
    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_ERRQUEUE: c_int = 0x2000;

    #[repr(C)]
    struct Iovec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: u32,
        msg_iov: *mut Iovec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: c_int,
    }

    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: c_uint,
    }

    /// Big enough for any sockaddr the kernel writes back.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct SockAddrStorage([u8; 128]);

    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16, // network byte order
        sin_addr: [u8; 4],
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
        fn recvmmsg(
            fd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void, // struct timespec*; always null here
        ) -> c_int;
        fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
        fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    }

    /// Opt an IPv4 server socket into async ICMP error delivery
    /// (`IP_RECVERR`); a failed reply then surfaces as `ECONNREFUSED`
    /// on the socket's next syscall instead of vanishing. Best-effort.
    pub fn set_recverr(sock: &UdpSocket) {
        let one: c_int = 1;
        // SAFETY: setsockopt on a live fd with a valid c_int payload.
        unsafe {
            let _ = setsockopt(
                sock.as_raw_fd(),
                IPPROTO_IP,
                IP_RECVERR,
                &one as *const c_int as *const c_void,
                mem::size_of::<c_int>() as u32,
            );
        }
    }

    /// Discard every entry queued on the socket's error queue,
    /// returning how many there were. Each entry is one reply datagram
    /// the network bounced; leaving them queued would pin receive
    /// buffer space for the life of the socket.
    pub fn drain_errqueue(sock: &UdpSocket) -> u64 {
        let mut drained = 0u64;
        let mut buf = [0u8; 512];
        let mut control = [0u8; 512];
        loop {
            // SAFETY: all pointers are stack locals valid for the call.
            let rc = unsafe {
                let mut iov = Iovec {
                    iov_base: buf.as_mut_ptr() as *mut c_void,
                    iov_len: buf.len(),
                };
                let mut msg = MsgHdr {
                    msg_name: ptr::null_mut(),
                    msg_namelen: 0,
                    msg_iov: &mut iov,
                    msg_iovlen: 1,
                    msg_control: control.as_mut_ptr() as *mut c_void,
                    msg_controllen: control.len(),
                    msg_flags: 0,
                };
                recvmsg(sock.as_raw_fd(), &mut msg, MSG_ERRQUEUE | MSG_DONTWAIT)
            };
            if rc < 0 {
                return drained;
            }
            drained += 1;
        }
    }

    /// Create an IPv4 UDP socket with `SO_REUSEPORT` set *before* bind
    /// (required for the kernel to add it to an existing reuseport
    /// group), bound to `addr`, owned by a std `UdpSocket`.
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "reuseport sharding is IPv4-only; use the cloned fallback",
            ));
        };
        // SAFETY: plain syscalls on a fresh fd; the fd is wrapped in a
        // std UdpSocket immediately so every early return closes it.
        unsafe {
            let fd = socket(AF_INET as c_int, SOCK_DGRAM | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let sock = UdpSocket::from_raw_fd(fd);
            let one: c_int = 1;
            if setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEPORT,
                &one as *const c_int as *const c_void,
                mem::size_of::<c_int>() as u32,
            ) < 0
            {
                return Err(io::Error::last_os_error());
            }
            let sin = SockAddrIn {
                sin_family: AF_INET,
                sin_port: v4.port().to_be(),
                sin_addr: v4.ip().octets(),
                sin_zero: [0; 8],
            };
            if bind(
                fd,
                &sin as *const SockAddrIn as *const c_void,
                mem::size_of::<SockAddrIn>() as u32,
            ) < 0
            {
                return Err(io::Error::last_os_error());
            }
            set_recverr(&sock);
            Ok(sock)
        }
    }

    pub fn set_rcvbuf(sock: &UdpSocket, bytes: usize) {
        let val = bytes.min(c_int::MAX as usize) as c_int;
        // SAFETY: setsockopt on a live fd with a valid c_int payload.
        unsafe {
            let _ = setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                &val as *const c_int as *const c_void,
                mem::size_of::<c_int>() as u32,
            );
        }
    }

    fn decode_sockaddr(storage: &SockAddrStorage) -> Option<SocketAddr> {
        let b = &storage.0;
        let family = u16::from_ne_bytes([b[0], b[1]]);
        let port = u16::from_be_bytes([b[2], b[3]]);
        match family {
            AF_INET => {
                let ip = Ipv4Addr::new(b[4], b[5], b[6], b[7]);
                Some(SocketAddr::new(ip.into(), port))
            }
            AF_INET6 => {
                let mut octets = [0u8; 16];
                octets.copy_from_slice(&b[8..24]);
                Some(SocketAddr::new(Ipv6Addr::from(octets).into(), port))
            }
            _ => None,
        }
    }

    fn encode_sockaddr(addr: SocketAddr, storage: &mut SockAddrStorage) -> u32 {
        let b = &mut storage.0;
        match addr {
            SocketAddr::V4(v4) => {
                b[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                b[2..4].copy_from_slice(&v4.port().to_be_bytes());
                b[4..8].copy_from_slice(&v4.ip().octets());
                b[8..16].fill(0);
                16
            }
            SocketAddr::V6(v6) => {
                b[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                b[2..4].copy_from_slice(&v6.port().to_be_bytes());
                b[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                b[8..24].copy_from_slice(&v6.ip().octets());
                b[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        }
    }

    pub fn recv_mmsg(sock: &UdpSocket, pool: &mut MsgBufPool) -> io::Result<usize> {
        let n = pool.batch;
        // SAFETY: zeroed pollable structs; every pointer written below
        // outlives the recvmmsg call (the pool's receive buffers are
        // stable Box<[u8]> allocations, the header arrays are stack
        // locals of this frame).
        unsafe {
            let mut addrs: [SockAddrStorage; MAX_BATCH] = mem::zeroed();
            let mut iovs: [Iovec; MAX_BATCH] = mem::zeroed();
            let mut msgs: [MMsgHdr; MAX_BATCH] = mem::zeroed();
            for i in 0..n {
                iovs[i] = Iovec {
                    iov_base: pool.recv_bufs[i].as_mut_ptr() as *mut c_void,
                    iov_len: DATAGRAM_CAP,
                };
                msgs[i].msg_hdr.msg_name = &mut addrs[i] as *mut SockAddrStorage as *mut c_void;
                msgs[i].msg_hdr.msg_namelen = mem::size_of::<SockAddrStorage>() as u32;
                msgs[i].msg_hdr.msg_iov = &mut iovs[i];
                msgs[i].msg_hdr.msg_iovlen = 1;
            }
            let got = recvmmsg(
                sock.as_raw_fd(),
                msgs.as_mut_ptr(),
                n as c_uint,
                MSG_WAITFORONE,
                ptr::null_mut(),
            );
            if got < 0 {
                let e = io::Error::last_os_error();
                return match e.kind() {
                    io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::Interrupted => Ok(0),
                    _ => Err(e),
                };
            }
            let got = got as usize;
            let mut filled = 0;
            for i in 0..got {
                let Some(peer) = decode_sockaddr(&addrs[i]) else {
                    continue; // unparseable family: skip the slot
                };
                if filled != i {
                    pool.recv_bufs.swap(filled, i);
                }
                pool.recv_lens[filled] = (msgs[i].msg_len as usize).min(DATAGRAM_CAP);
                pool.recv_peers[filled] = peer;
                filled += 1;
            }
            Ok(filled)
        }
    }

    pub fn send_mmsg(sock: &UdpSocket, pool: &mut MsgBufPool) -> (u64, u64) {
        let total = pool.staged;
        let (mut sent, mut errors) = (0u64, 0u64);
        let mut off = 0usize;
        while off < total {
            // SAFETY: as in recv_mmsg — all pointers outlive the call.
            unsafe {
                let mut addrs: [SockAddrStorage; MAX_BATCH] = mem::zeroed();
                let mut iovs: [Iovec; MAX_BATCH] = mem::zeroed();
                let mut msgs: [MMsgHdr; MAX_BATCH] = mem::zeroed();
                let n = (total - off).min(MAX_BATCH);
                for i in 0..n {
                    let slot = off + i;
                    let len = encode_sockaddr(pool.reply_peers[slot], &mut addrs[i]);
                    iovs[i] = Iovec {
                        iov_base: pool.reply_bufs[slot].as_mut_ptr() as *mut c_void,
                        iov_len: pool.reply_bufs[slot].len(),
                    };
                    msgs[i].msg_hdr.msg_name = &mut addrs[i] as *mut SockAddrStorage as *mut c_void;
                    msgs[i].msg_hdr.msg_namelen = len;
                    msgs[i].msg_hdr.msg_iov = &mut iovs[i];
                    msgs[i].msg_hdr.msg_iovlen = 1;
                }
                let rc = sendmmsg(sock.as_raw_fd(), msgs.as_mut_ptr(), n as c_uint, 0);
                if rc <= 0 {
                    // the datagram at `off` failed (async ICMP error or
                    // local failure): count it, skip it, keep going
                    errors += 1;
                    off += 1;
                } else {
                    sent += rc as u64;
                    off += rc as usize;
                    if (rc as usize) < n {
                        // the next datagram is the one that stopped the
                        // batch; the error itself surfaces on the next
                        // syscall touching the socket
                        continue;
                    }
                }
            }
        }
        (sent, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    fn timeout() -> Duration {
        Duration::from_millis(50)
    }

    #[test]
    fn shard_set_round_trips_datagrams() {
        let set = UdpShardSet::bind("127.0.0.1:0".parse().unwrap(), 4, timeout()).unwrap();
        let addr = set.addr();
        let shards = set.into_shards();
        assert_eq!(shards.len(), 4);
        for s in &shards {
            assert_eq!(s.socket().local_addr().unwrap(), addr);
        }

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for i in 0..64u8 {
            client.send_to(&[i, i, i], addr).unwrap();
        }
        // with SO_REUSEPORT the kernel routes all datagrams from one
        // 4-tuple to one shard; with clones any shard may see them.
        // Echo each datagram back from whichever shard received it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut pools: Vec<MsgBufPool> = shards.iter().map(|_| MsgBufPool::new(16)).collect();
        let mut echoed = 0;
        while echoed < 64 && Instant::now() < deadline {
            for (shard, pool) in shards.iter().zip(pools.iter_mut()) {
                let got = shard.recv_batch(pool).unwrap();
                pool.clear_replies();
                for i in 0..got {
                    let (payload, peer) = pool.datagram(i);
                    assert_eq!(payload.len(), 3);
                    let copy = [payload[0], payload[1], payload[2]];
                    pool.stage_reply(peer, &copy);
                }
                let (sent, errors) = shard.send_staged(pool);
                assert_eq!(errors, 0);
                echoed += sent;
            }
        }
        assert_eq!(echoed, 64, "all datagrams echoed");
        let mut buf = [0u8; 16];
        for _ in 0..64 {
            let (n, _) = client.recv_from(&mut buf).unwrap();
            assert_eq!(n, 3);
            assert_eq!(buf[0], buf[1]);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_binds_the_reuseport_path() {
        let set = UdpShardSet::bind("127.0.0.1:0".parse().unwrap(), 2, timeout()).unwrap();
        assert!(set.sharded(), "linux should take the SO_REUSEPORT path");
        for s in set.into_shards() {
            assert!(s.batched());
        }
        // and the explicit opt-out takes the portable path
        let single =
            UdpShardSet::bind_with("127.0.0.1:0".parse().unwrap(), 2, timeout(), false).unwrap();
        assert!(!single.sharded());
    }

    #[test]
    fn recv_batch_times_out_with_zero() {
        let set = UdpShardSet::bind("127.0.0.1:0".parse().unwrap(), 1, timeout()).unwrap();
        let shard = &set.shards[0];
        let mut pool = MsgBufPool::new(4);
        let t0 = Instant::now();
        assert_eq!(shard.recv_batch(&mut pool).unwrap(), 0);
        assert!(
            t0.elapsed() >= Duration::from_millis(10),
            "blocked on the timeout"
        );
    }

    #[test]
    fn wait_readable_reports_pending_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(!wait_readable(&listener, Duration::from_millis(20)).unwrap());
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut ready = false;
        while Instant::now() < deadline {
            if wait_readable(&listener, Duration::from_millis(50)).unwrap() {
                ready = true;
                break;
            }
        }
        assert!(ready, "pending connection must mark the listener readable");
        listener.accept().unwrap();
    }
}
