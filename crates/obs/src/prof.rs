//! `prof` — a dependency-free in-process sampling CPU profiler.
//!
//! On Linux, [`start`] arms a process-wide `setitimer(ITIMER_PROF)`
//! ticker: the kernel delivers `SIGPROF` to whichever thread is
//! currently burning CPU, and the async-signal-safe handler walks the
//! frame-pointer chain of the interrupted context into a fixed-size
//! lock-free ring (no allocation, no locks, errno untouched). A
//! background collector thread drains the ring while the profile runs;
//! [`stop`] symbolizes the unique program counters off-signal — the
//! main executable through its own ELF `.symtab` (static Rust symbols
//! never reach `.dynsym`, so `dladdr` alone cannot name them), shared
//! objects through `dladdr`, everything else through the
//! `/proc/self/maps` region name — and returns a [`Profile`] that
//! renders collapsed folded stacks (`flamegraph.pl`/`inferno`
//! compatible) plus a top-N hot-frame summary.
//!
//! The sampler relies on frame pointers: the workspace builds with
//! `-C force-frame-pointers=yes` (see `.cargo/config.toml`) so the
//! chain is intact through our own code; foreign frames without frame
//! pointers terminate the walk at the first return address that lands
//! outside every executable mapping.
//!
//! After [`stop`] the signal handler stays installed but the timer is
//! disarmed — an *armed but idle* profiler adds zero work (one relaxed
//! atomic load if a stray signal ever arrives) and zero allocations to
//! instrumented paths.
//!
//! Off Linux (or on architectures without a frame-record convention we
//! walk) everything degrades to an inert no-op: [`start`]/[`stop`]
//! succeed, [`supported`] reports `false`, and the profile is empty.

#![allow(unsafe_code)] // the SIGPROF/setitimer FFI and handler ring; nothing else

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Serialize;

/// Default sampling rate for long-running commands (`--profile`).
pub const DEFAULT_HZ: u32 = 99;
/// Sampling rate used for short per-scenario bench profiles, where a
/// run lasts a few seconds at most and 99 Hz would be too coarse.
pub const BENCH_HZ: u32 = 499;

/// One frame's aggregate weight in a [`Profile`]: `self_samples` counts
/// samples where the frame was the leaf, `total_samples` counts samples
/// where it appeared anywhere on the stack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HotFrame {
    /// Demangled frame name.
    pub name: String,
    /// Samples with this frame on top of the stack.
    pub self_samples: u64,
    /// Samples with this frame anywhere on the stack.
    pub total_samples: u64,
}

/// A finished CPU profile: aggregated, symbolized stacks.
#[derive(Debug, Default)]
pub struct Profile {
    /// Samples captured (after ring losses).
    pub samples: u64,
    /// Samples dropped because the ring was full or the walk failed.
    pub lost: u64,
    /// Wall-clock span between [`start`] and [`stop`].
    pub duration: Duration,
    /// Sampling rate the timer was armed with.
    pub hz: u32,
    /// Root-first symbolized stacks and their sample counts.
    stacks: Vec<(Vec<String>, u64)>,
}

impl Profile {
    /// True when no samples were captured.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Collapsed folded-stack rendering: one `frame;frame;... count`
    /// line per unique stack (root first), sorted for determinism —
    /// feed straight into `flamegraph.pl` or `inferno-flamegraph`.
    pub fn folded(&self) -> String {
        let mut lines: Vec<String> = self
            .stacks
            .iter()
            .map(|(frames, n)| format!("{} {n}", frames.join(";")))
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// The `n` hottest frames by self time (ties broken by total).
    pub fn hot_frames(&self, n: usize) -> Vec<HotFrame> {
        let mut tally: HashMap<&str, (u64, u64)> = HashMap::new();
        for (frames, count) in &self.stacks {
            if let Some(leaf) = frames.last() {
                tally.entry(leaf).or_insert((0, 0)).0 += count;
            }
            let mut seen: Vec<&str> = Vec::with_capacity(frames.len());
            for f in frames {
                if !seen.contains(&f.as_str()) {
                    seen.push(f);
                    tally.entry(f).or_insert((0, 0)).1 += count;
                }
            }
        }
        let mut out: Vec<HotFrame> = tally
            .into_iter()
            .map(|(name, (selfs, total))| HotFrame {
                name: name.to_string(),
                self_samples: selfs,
                total_samples: total,
            })
            .collect();
        out.sort_by(|a, b| {
            (b.self_samples, b.total_samples, &a.name).cmp(&(
                a.self_samples,
                a.total_samples,
                &b.name,
            ))
        });
        out.truncate(n);
        out
    }

    /// Fold another profile's stacks into this one (used by `bench` to
    /// accumulate a run-wide folded file across scenarios).
    pub fn merge(&mut self, other: Profile) {
        self.samples += other.samples;
        self.lost += other.lost;
        self.duration += other.duration;
        if self.hz == 0 {
            self.hz = other.hz;
        }
        let mut map: HashMap<Vec<String>, u64> = self.stacks.drain(..).collect();
        for (stack, n) in other.stacks {
            *map.entry(stack).or_insert(0) += n;
        }
        self.stacks = map.into_iter().collect();
    }
}

/// True when this build can actually capture samples (Linux on
/// x86_64/aarch64); elsewhere the profiler is an inert no-op.
pub fn supported() -> bool {
    backend::SUPPORTED
}

/// True while a profiling session is active (timer armed).
pub fn is_running() -> bool {
    RUNNING.load(Ordering::Acquire)
}

struct Session {
    hz: u32,
    started: Instant,
    stop_flag: Arc<AtomicBool>,
    collector: JoinHandle<HashMap<Vec<usize>, u64>>,
    lost_at_start: u64,
}

static RUNNING: AtomicBool = AtomicBool::new(false);

fn session_slot() -> &'static Mutex<Option<Session>> {
    static SLOT: OnceLock<Mutex<Option<Session>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Arm the sampler at `hz` samples per second of *process CPU time*
/// (clamped to 1..=1000). Errs if a session is already running — there
/// is exactly one process-wide profiler. On unsupported platforms this
/// succeeds and records nothing.
pub fn start(hz: u32) -> Result<(), String> {
    let hz = hz.clamp(1, 1000);
    let mut slot = session_slot().lock().expect("prof session lock");
    if slot.is_some() {
        return Err("profiler already running".to_string());
    }
    backend::init()?;
    let stop_flag = Arc::new(AtomicBool::new(false));
    let lost_at_start = backend::lost_count();
    let flag = Arc::clone(&stop_flag);
    let collector = std::thread::Builder::new()
        .name("obs-prof".to_string())
        .spawn(move || {
            let samples = crate::counter(
                "obs_prof_samples_total",
                "CPU profile samples captured by obs::prof",
            );
            let lost = crate::counter(
                "obs_prof_lost_total",
                "CPU profile samples dropped (ring full or unwalkable stack)",
            );
            let mut lost_seen = backend::lost_count();
            let mut agg: HashMap<Vec<usize>, u64> = HashMap::new();
            loop {
                let done = flag.load(Ordering::Acquire);
                let n = backend::drain(&mut agg);
                if n > 0 {
                    samples.add(n);
                }
                let lost_now = backend::lost_count();
                if lost_now > lost_seen {
                    lost.add(lost_now - lost_seen);
                    lost_seen = lost_now;
                }
                if done {
                    return agg;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        })
        .map_err(|e| format!("spawn obs-prof collector: {e}"))?;
    backend::arm(hz)?;
    *slot = Some(Session {
        hz,
        started: Instant::now(),
        stop_flag,
        collector,
        lost_at_start,
    });
    RUNNING.store(true, Ordering::Release);
    Ok(())
}

/// Disarm the timer, drain and symbolize, and return the profile.
/// `None` when no session is running. The signal handler stays
/// installed (armed but idle) — re-[`start`]ing is cheap.
pub fn stop() -> Option<Profile> {
    let mut slot = session_slot().lock().expect("prof session lock");
    let session = slot.take()?;
    backend::disarm();
    RUNNING.store(false, Ordering::Release);
    // Let any handler that fired just before disarm finish publishing
    // its slot so the final drain sees it.
    std::thread::sleep(Duration::from_millis(10));
    session.stop_flag.store(true, Ordering::Release);
    let agg = session.collector.join().unwrap_or_default();
    let lost = backend::lost_count().saturating_sub(session.lost_at_start);
    let stacks = backend::symbolize(agg);
    let samples = stacks.iter().map(|(_, n)| n).sum();
    Some(Profile {
        samples,
        lost,
        duration: session.started.elapsed(),
        hz: session.hz,
        stacks,
    })
}

/// Run a bounded profiling session: arm, sleep `duration`, stop. This
/// is the `/profile?seconds=N` entry point — it errs (rather than
/// queueing) when a session is already running so the HTTP layer can
/// answer 503 immediately.
pub fn profile_for(duration: Duration, hz: u32) -> Result<Profile, String> {
    start(hz)?;
    std::thread::sleep(duration);
    Ok(stop().expect("profiler session vanished mid-run"))
}

/// Sampling backend for Linux on x86_64/aarch64: SIGPROF + frame-pointer
/// walk + lock-free ring, all via direct libc FFI.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod backend {
    use std::cell::UnsafeCell;
    use std::collections::HashMap;
    use std::ffi::CStr;
    use std::os::raw::{c_char, c_int, c_void};
    use std::ptr;
    use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

    pub const SUPPORTED: bool = true;

    /// Deepest stack we record per sample.
    const MAX_DEPTH: usize = 48;
    /// Ring capacity in samples; at the worst case (every core busy,
    /// 1000 Hz of process CPU per core) the 20 ms collector cadence
    /// drains long before this fills.
    const RING: usize = 4096;
    /// Executable-mapping ranges we validate return addresses against.
    const MAX_TEXT: usize = 64;
    /// How far above the interrupted stack pointer the walk may roam.
    const STACK_WINDOW: usize = 1 << 22;

    // ---- libc FFI (same direct-syscall style as authd::sockets) ----

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 0x0000_0004;
    const SA_RESTART: c_int = 0x1000_0000;

    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    /// glibc/musl `struct sigaction` on 64-bit Linux: handler, 128-byte
    /// signal mask, flags, restorer.
    #[repr(C)]
    struct Sigaction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: c_int,
        sa_restorer: usize,
    }

    #[repr(C)]
    struct DlInfo {
        dli_fname: *const c_char,
        dli_fbase: *mut c_void,
        dli_sname: *const c_char,
        dli_saddr: *mut c_void,
    }

    /// Leading fields of glibc's `dl_phdr_info`; the callback only
    /// reads these, which every libc provides at these offsets.
    #[repr(C)]
    struct DlPhdrInfo {
        dlpi_addr: usize,
        dlpi_name: *const c_char,
        dlpi_phdr: *const c_void,
        dlpi_phnum: u16,
    }

    extern "C" {
        fn sigaction(signum: c_int, act: *const Sigaction, old: *mut Sigaction) -> c_int;
        fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
        fn dladdr(addr: *const c_void, info: *mut DlInfo) -> c_int;
        fn dl_iterate_phdr(
            cb: extern "C" fn(*mut DlPhdrInfo, usize, *mut c_void) -> c_int,
            data: *mut c_void,
        ) -> c_int;
    }

    // ---- the sample ring (bounded Vyukov MPMC; producers are signal
    // handlers on arbitrary threads, the consumer is the collector) ----

    struct Slot {
        seq: AtomicUsize,
        depth: UnsafeCell<usize>,
        pcs: UnsafeCell<[usize; MAX_DEPTH]>,
    }

    // SAFETY: `depth`/`pcs` are only touched by the producer that won
    // the seq CAS for this position, or by the consumer after seeing
    // the producer's Release store of seq — the classic bounded-queue
    // handoff protocol.
    unsafe impl Sync for Slot {}

    static RING_PTR: AtomicPtr<Slot> = AtomicPtr::new(ptr::null_mut());
    static HEAD: AtomicUsize = AtomicUsize::new(0);
    static TAIL: AtomicUsize = AtomicUsize::new(0);
    static LOST: AtomicU64 = AtomicU64::new(0);
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    #[allow(clippy::declare_interior_mutable_const)] // static array seed
    const ZERO: AtomicUsize = AtomicUsize::new(0);
    static TEXT_LO: [AtomicUsize; MAX_TEXT] = [ZERO; MAX_TEXT];
    static TEXT_HI: [AtomicUsize; MAX_TEXT] = [ZERO; MAX_TEXT];
    static TEXT_N: AtomicUsize = AtomicUsize::new(0);

    /// One-time (per process) ring allocation + handler install, plus a
    /// per-session refresh of the executable-mapping table. Called
    /// under the session lock, so never concurrently.
    pub fn init() -> Result<(), String> {
        if RING_PTR.load(Ordering::Acquire).is_null() {
            let slots: Box<[Slot]> = (0..RING)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    depth: UnsafeCell::new(0),
                    pcs: UnsafeCell::new([0; MAX_DEPTH]),
                })
                .collect();
            RING_PTR.store(Box::leak(slots).as_mut_ptr(), Ordering::Release);
        }
        refresh_text_ranges()?;
        install_handler()
    }

    /// Record every executable mapping from /proc/self/maps so the
    /// handler can reject return addresses that point nowhere runnable.
    fn refresh_text_ranges() -> Result<(), String> {
        let maps = std::fs::read_to_string("/proc/self/maps")
            .map_err(|e| format!("read /proc/self/maps: {e}"))?;
        let mut n = 0usize;
        for (lo, hi, _path) in parse_maps(&maps, true) {
            if n == MAX_TEXT {
                // overflow: widen the last range rather than dropping
                TEXT_HI[MAX_TEXT - 1].store(hi, Ordering::Relaxed);
                continue;
            }
            TEXT_LO[n].store(lo, Ordering::Relaxed);
            TEXT_HI[n].store(hi, Ordering::Relaxed);
            n += 1;
        }
        if n == 0 {
            return Err("no executable mappings found".to_string());
        }
        TEXT_N.store(n, Ordering::Release);
        Ok(())
    }

    /// `(lo, hi, path)` for each mapping; `exec_only` keeps just r-x.
    fn parse_maps(maps: &str, exec_only: bool) -> Vec<(usize, usize, String)> {
        let mut out = Vec::new();
        for line in maps.lines() {
            let mut parts = line.split_whitespace();
            let (Some(range), Some(perms)) = (parts.next(), parts.next()) else {
                continue;
            };
            if exec_only && perms.as_bytes().get(2) != Some(&b'x') {
                continue;
            }
            let Some((lo, hi)) = range.split_once('-') else {
                continue;
            };
            let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            else {
                continue;
            };
            let path = line
                .splitn(6, char::is_whitespace)
                .nth(5)
                .map(str::trim)
                .unwrap_or("")
                .to_string();
            out.push((lo, hi, path));
        }
        out
    }

    fn install_handler() -> Result<(), String> {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if INSTALLED.load(Ordering::Acquire) {
            return Ok(());
        }
        let act = Sigaction {
            sa_sigaction: on_sigprof as *const () as usize,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        // SAFETY: `act` is a valid glibc-layout sigaction; the handler
        // is async-signal-safe (atomics and raw stack reads only).
        let rc = unsafe { sigaction(SIGPROF, &act, ptr::null_mut()) };
        if rc != 0 {
            return Err(format!(
                "sigaction(SIGPROF): {}",
                std::io::Error::last_os_error()
            ));
        }
        INSTALLED.store(true, Ordering::Release);
        Ok(())
    }

    pub fn arm(hz: u32) -> Result<(), String> {
        ACTIVE.store(true, Ordering::Release);
        let usec = (1_000_000 / i64::from(hz.max(1))).max(1_000);
        let tick = Itimerval {
            it_interval: Timeval {
                tv_sec: 0,
                tv_usec: usec,
            },
            it_value: Timeval {
                tv_sec: 0,
                tv_usec: usec,
            },
        };
        // SAFETY: plain struct pointer into a process-wide timer API.
        let rc = unsafe { setitimer(ITIMER_PROF, &tick, ptr::null_mut()) };
        if rc != 0 {
            ACTIVE.store(false, Ordering::Release);
            return Err(format!(
                "setitimer(ITIMER_PROF): {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }

    pub fn disarm() {
        let off = Itimerval {
            it_interval: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            it_value: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
        };
        // SAFETY: zeroed itimerval disarms the timer; cannot fail with
        // valid arguments.
        unsafe { setitimer(ITIMER_PROF, &off, ptr::null_mut()) };
        ACTIVE.store(false, Ordering::Release);
    }

    pub fn lost_count() -> u64 {
        LOST.load(Ordering::Relaxed)
    }

    /// Is `pc` inside any executable mapping? Handler-safe: a bounded
    /// scan over atomics.
    #[inline]
    fn in_text(pc: usize) -> bool {
        let n = TEXT_N.load(Ordering::Relaxed).min(MAX_TEXT);
        for i in 0..n {
            if pc >= TEXT_LO[i].load(Ordering::Relaxed) && pc < TEXT_HI[i].load(Ordering::Relaxed) {
                return true;
            }
        }
        false
    }

    /// The SIGPROF handler. Async-signal-safe by construction: atomics,
    /// raw in-bounds stack reads, no allocation, no locks, no libc
    /// calls (errno is left untouched).
    extern "C" fn on_sigprof(_sig: c_int, _info: *mut c_void, ctx: *mut c_void) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        let ring = RING_PTR.load(Ordering::Acquire);
        if ring.is_null() || ctx.is_null() {
            return;
        }
        let mut pcs = [0usize; MAX_DEPTH];
        // SAFETY: ctx is the kernel-provided ucontext for this arch;
        // capture_stack bounds every read (see its comments).
        let depth = unsafe { capture_stack(ctx, &mut pcs) };
        if depth == 0 {
            LOST.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut pos = HEAD.load(Ordering::Relaxed);
        loop {
            // SAFETY: ring points at RING leaked slots; index is masked.
            let slot = unsafe { &*ring.add(pos % RING) };
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                if HEAD
                    .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: winning the CAS grants exclusive write
                    // access to this slot until the seq store below.
                    unsafe {
                        *slot.depth.get() = depth;
                        (&mut *slot.pcs.get())[..depth].copy_from_slice(&pcs[..depth]);
                    }
                    slot.seq.store(pos + 1, Ordering::Release);
                    return;
                }
                pos = HEAD.load(Ordering::Relaxed);
            } else if seq < pos {
                // consumer hasn't freed this slot yet: ring full
                LOST.fetch_add(1, Ordering::Relaxed);
                return;
            } else {
                pos = HEAD.load(Ordering::Relaxed);
            }
        }
    }

    /// Leaf pc, frame pointer, and stack pointer of the interrupted
    /// context, read at the documented glibc `ucontext_t` offsets
    /// (which match the kernel sigcontext register order, so musl's
    /// layout agrees on these fields).
    #[cfg(target_arch = "x86_64")]
    unsafe fn interrupted_regs(ctx: *mut c_void) -> (usize, usize, usize) {
        // gregs[] at byte 40; RBP=10, RSP=15, RIP=16.
        let gregs = (ctx as *const u8).add(40) as *const u64;
        let fp = *gregs.add(10) as usize;
        let sp = *gregs.add(15) as usize;
        let pc = *gregs.add(16) as usize;
        (pc, fp, sp)
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn interrupted_regs(ctx: *mut c_void) -> (usize, usize, usize) {
        // mcontext at byte 176: fault_address, regs[31], sp, pc.
        let mc = (ctx as *const u8).add(176);
        let fp = *(mc.add(8 + 29 * 8) as *const u64) as usize;
        let sp = *(mc.add(8 + 31 * 8) as *const u64) as usize;
        let pc = *(mc.add(8 + 32 * 8) as *const u64) as usize;
        (pc, fp, sp)
    }

    /// Walk the frame-pointer chain, leaf first. Both x86_64 and
    /// aarch64 use the same frame record: `[fp]` is the caller's frame
    /// pointer, `[fp+8]` the return address. Every step must stay
    /// 8-aligned, move strictly upward within a bounded window above
    /// the interrupted stack pointer (that region is mapped — it holds
    /// the frames that got us here), and produce a return address
    /// inside an executable mapping; anything else ends the walk.
    unsafe fn capture_stack(ctx: *mut c_void, out: &mut [usize; MAX_DEPTH]) -> usize {
        let (pc, mut fp, sp) = interrupted_regs(ctx);
        let limit = sp.wrapping_add(STACK_WINDOW);
        let mut n = 0;
        if in_text(pc) {
            out[n] = pc;
            n += 1;
        }
        while n < MAX_DEPTH {
            if fp < sp || fp >= limit || fp & 7 != 0 {
                break;
            }
            let next_fp = *(fp as *const usize);
            let ret = *((fp + 8) as *const usize);
            if !in_text(ret) {
                break;
            }
            out[n] = ret;
            n += 1;
            if next_fp <= fp {
                break;
            }
            fp = next_fp;
        }
        n
    }

    /// Drain every published sample into `agg` (keyed by the raw
    /// leaf-first pc stack). Single consumer: the collector thread.
    pub fn drain(agg: &mut HashMap<Vec<usize>, u64>) -> u64 {
        let ring = RING_PTR.load(Ordering::Acquire);
        if ring.is_null() {
            return 0;
        }
        let mut drained = 0u64;
        loop {
            let pos = TAIL.load(Ordering::Relaxed);
            // SAFETY: same leaked ring as the producer side.
            let slot = unsafe { &*ring.add(pos % RING) };
            if slot.seq.load(Ordering::Acquire) != pos + 1 {
                return drained; // empty, or a producer is mid-write
            }
            // SAFETY: seq == pos+1 means the producer's Release store
            // published this slot; we own it until the store below.
            let stack = unsafe {
                let depth = (*slot.depth.get()).min(MAX_DEPTH);
                (&*slot.pcs.get())[..depth].to_vec()
            };
            slot.seq.store(pos + RING, Ordering::Release);
            TAIL.store(pos + 1, Ordering::Relaxed);
            *agg.entry(stack).or_insert(0) += 1;
            drained += 1;
        }
    }

    // ---- off-signal symbolization ----

    struct Sym {
        addr: usize,
        size: usize,
        name: String,
    }

    struct Resolver {
        bias: usize,
        exe_ranges: Vec<(usize, usize)>,
        regions: Vec<(usize, usize, String)>,
        syms: Vec<Sym>,
    }

    extern "C" fn first_phdr(info: *mut DlPhdrInfo, _size: usize, data: *mut c_void) -> c_int {
        // SAFETY: the callback contract hands us valid pointers; the
        // first entry is always the main executable.
        unsafe { *(data as *mut usize) = (*info).dlpi_addr };
        1 // stop after the first object
    }

    impl Resolver {
        fn new() -> Resolver {
            let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
            let regions = parse_maps(&maps, true);
            let exe_path = std::fs::read_link("/proc/self/exe")
                .map(|p| p.to_string_lossy().into_owned())
                .unwrap_or_default();
            let exe_ranges: Vec<(usize, usize)> = regions
                .iter()
                .filter(|(_, _, p)| !exe_path.is_empty() && p == &exe_path)
                .map(|&(lo, hi, _)| (lo, hi))
                .collect();
            let mut bias = 0usize;
            // SAFETY: first_phdr only writes through the usize pointer
            // we pass in.
            unsafe { dl_iterate_phdr(first_phdr, &mut bias as *mut usize as *mut c_void) };
            let mut syms = std::fs::read(&exe_path)
                .ok()
                .map(|data| parse_elf_functions(&data))
                .unwrap_or_default();
            syms.sort_by_key(|s| s.addr);
            Resolver {
                bias,
                exe_ranges,
                regions,
                syms,
            }
        }

        fn lookup_exe(&self, addr: usize) -> Option<&Sym> {
            let file_addr = addr.checked_sub(self.bias)?;
            let idx = self.syms.partition_point(|s| s.addr <= file_addr);
            let sym = self.syms.get(idx.checked_sub(1)?)?;
            // size-0 symbols (hand-written asm, PLT stubs) get a
            // generous window rather than a miss
            let size = if sym.size == 0 { 1 << 16 } else { sym.size };
            (file_addr < sym.addr + size).then_some(sym)
        }

        fn resolve(&self, pc: usize) -> String {
            if self.exe_ranges.iter().any(|&(lo, hi)| pc >= lo && pc < hi) {
                if let Some(sym) = self.lookup_exe(pc) {
                    return sanitize(&demangle(&sym.name));
                }
                return format!("0x{:x}", pc.saturating_sub(self.bias));
            }
            let mut info = DlInfo {
                dli_fname: ptr::null(),
                dli_fbase: ptr::null_mut(),
                dli_sname: ptr::null(),
                dli_saddr: ptr::null_mut(),
            };
            // SAFETY: dladdr only reads pc and fills `info`; the
            // returned strings live as long as the mapped object.
            let rc = unsafe { dladdr(pc as *const c_void, &mut info) };
            if rc != 0 && !info.dli_sname.is_null() {
                // SAFETY: dladdr reported a valid NUL-terminated name.
                let name = unsafe { CStr::from_ptr(info.dli_sname) }.to_string_lossy();
                return sanitize(&demangle(&name));
            }
            for (lo, hi, path) in &self.regions {
                if pc >= *lo && pc < *hi {
                    let base = path.rsplit('/').next().unwrap_or(path);
                    let label = if base.is_empty() { "anon" } else { base };
                    return format!("[{}]", sanitize(label));
                }
            }
            "[unknown]".to_string()
        }
    }

    fn rd_u16(d: &[u8], off: usize) -> Option<u16> {
        Some(u16::from_le_bytes(d.get(off..off + 2)?.try_into().ok()?))
    }
    fn rd_u32(d: &[u8], off: usize) -> Option<u32> {
        Some(u32::from_le_bytes(d.get(off..off + 4)?.try_into().ok()?))
    }
    fn rd_u64(d: &[u8], off: usize) -> Option<u64> {
        Some(u64::from_le_bytes(d.get(off..off + 8)?.try_into().ok()?))
    }

    /// STT_FUNC entries of the ELF64 `.symtab` (falling back to
    /// `.dynsym` for stripped binaries).
    fn parse_elf_functions(data: &[u8]) -> Vec<Sym> {
        parse_elf_inner(data).unwrap_or_default()
    }

    fn parse_elf_inner(data: &[u8]) -> Option<Vec<Sym>> {
        if data.get(..4)? != b"\x7fELF" || data.get(4) != Some(&2) || data.get(5) != Some(&1) {
            return None; // not ELF64 little-endian
        }
        let shoff = rd_u64(data, 0x28)? as usize;
        let shentsize = rd_u16(data, 0x3a)? as usize;
        let shnum = rd_u16(data, 0x3c)? as usize;
        if shentsize < 64 {
            return None;
        }
        let section = |i: usize| -> Option<(u32, usize, usize, usize)> {
            let base = shoff + i * shentsize;
            Some((
                rd_u32(data, base + 4)?,             // sh_type
                rd_u64(data, base + 0x18)? as usize, // sh_offset
                rd_u64(data, base + 0x20)? as usize, // sh_size
                rd_u32(data, base + 0x28)? as usize, // sh_link
            ))
        };
        const SHT_SYMTAB: u32 = 2;
        const SHT_DYNSYM: u32 = 11;
        let mut chosen = None;
        for i in 0..shnum {
            let Some(s) = section(i) else { continue };
            if s.0 == SHT_SYMTAB {
                chosen = Some(s);
                break;
            }
            if s.0 == SHT_DYNSYM && chosen.is_none() {
                chosen = Some(s);
            }
        }
        let (_, sym_off, sym_size, link) = chosen?;
        let (_, str_off, str_size, _) = section(link)?;
        let strtab = data.get(str_off..str_off + str_size)?;
        let mut out = Vec::new();
        const ENT: usize = 24;
        for i in 0..sym_size / ENT {
            let base = sym_off + i * ENT;
            let info = *data.get(base + 4)?;
            if info & 0xf != 2 {
                continue; // not STT_FUNC
            }
            let value = rd_u64(data, base + 8)? as usize;
            if value == 0 {
                continue;
            }
            let name_off = rd_u32(data, base)? as usize;
            let name_end = strtab
                .get(name_off..)?
                .iter()
                .position(|&b| b == 0)
                .map(|p| name_off + p)?;
            let name = std::str::from_utf8(&strtab[name_off..name_end])
                .ok()?
                .to_string();
            if name.is_empty() {
                continue;
            }
            out.push(Sym {
                addr: value,
                size: rd_u64(data, base + 16)? as usize,
                name,
            });
        }
        Some(out)
    }

    /// Symbolize raw pc stacks into root-first frame-name stacks.
    /// Return addresses (every frame past the leaf) are shifted back by
    /// one byte so they attribute to the call site, not the line after.
    pub fn symbolize(agg: HashMap<Vec<usize>, u64>) -> Vec<(Vec<String>, u64)> {
        let resolver = Resolver::new();
        let mut cache: HashMap<usize, String> = HashMap::new();
        let mut folded: HashMap<Vec<String>, u64> = HashMap::new();
        for (pcs, count) in agg {
            let mut frames: Vec<String> = pcs
                .iter()
                .enumerate()
                .map(|(i, &pc)| {
                    let lookup = if i == 0 { pc } else { pc.saturating_sub(1) };
                    cache
                        .entry(lookup)
                        .or_insert_with(|| resolver.resolve(lookup))
                        .clone()
                })
                .collect();
            frames.reverse(); // leaf-first capture → root-first folded
            *folded.entry(frames).or_insert(0) += count;
        }
        folded.into_iter().collect()
    }

    /// Legacy Rust mangling (`_ZN…17h<hash>E`) → `path::segments`; v0
    /// (`_R…`) and foreign names pass through unchanged.
    pub(super) fn demangle(sym: &str) -> String {
        demangle_legacy(sym).unwrap_or_else(|| sym.to_string())
    }

    fn demangle_legacy(sym: &str) -> Option<String> {
        let rest = sym.strip_prefix("_ZN")?;
        let bytes = rest.as_bytes();
        let mut segs: Vec<&str> = Vec::new();
        let mut i = 0;
        while bytes.get(i) != Some(&b'E') {
            let start = i;
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            let len: usize = rest.get(start..i)?.parse().ok()?;
            let seg = rest.get(i..i + len)?;
            // segments that begin with a `$…$` escape get an extra
            // leading `_` in the mangled form; drop it
            segs.push(seg.strip_prefix("_$").map_or(seg, |_| &seg[1..]));
            i += len;
        }
        if segs.last().is_some_and(|s| {
            s.len() == 17 && s.starts_with('h') && s[1..].bytes().all(|b| b.is_ascii_hexdigit())
        }) {
            segs.pop();
        }
        if segs.is_empty() {
            return None;
        }
        Some(unescape(&segs.join("::")))
    }

    /// Expand `$LT$`-style and `$uXX$` hex escapes from the legacy
    /// mangling scheme.
    fn unescape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut rest = s;
        while let Some(pos) = rest.find('$') {
            out.push_str(&rest[..pos]);
            let tail = &rest[pos + 1..];
            let Some(end) = tail.find('$') else {
                out.push_str(&rest[pos..]);
                return out;
            };
            let token = &tail[..end];
            match token {
                "SP" => out.push('@'),
                "BP" => out.push('*'),
                "RF" => out.push('&'),
                "LT" => out.push('<'),
                "GT" => out.push('>'),
                "LP" => out.push('('),
                "RP" => out.push(')'),
                "C" => out.push(','),
                _ => {
                    let expanded = token
                        .strip_prefix('u')
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32);
                    match expanded {
                        Some(c) => out.push(c),
                        None => {
                            out.push('$');
                            out.push_str(token);
                            out.push('$');
                        }
                    }
                }
            }
            rest = &tail[end + 1..];
        }
        out.push_str(rest);
        out
    }

    /// Folded-format hygiene: `;` separates frames and space separates
    /// the count, so neither may appear inside a name.
    fn sanitize(name: &str) -> String {
        name.replace(';', ":").replace(' ', "_")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn demangles_legacy_symbols() {
            assert_eq!(
                demangle("_ZN4core3fmt9Formatter3pad17h1234567890abcdefE"),
                "core::fmt::Formatter::pad"
            );
            assert_eq!(
                demangle("_ZN38_$LT$Vec$LT$T$GT$$u20$as$u20$Clone$GT$5clone17habcdefabcdefabcdE"),
                "<Vec<T> as Clone>::clone"
            );
            // foreign / v0 names pass through
            assert_eq!(demangle("memcpy"), "memcpy");
            assert_eq!(demangle("_RNvNtCs123_4core3fmt"), "_RNvNtCs123_4core3fmt");
        }

        #[test]
        fn parses_own_elf_symtab() {
            let exe = std::fs::read("/proc/self/exe").expect("read self");
            let syms = parse_elf_functions(&exe);
            assert!(
                syms.len() > 100,
                "expected a rich .symtab, got {} functions",
                syms.len()
            );
            assert!(
                syms.iter().any(|s| s.name.contains("parse_elf")),
                "own function missing from parsed symtab"
            );
        }
    }
}

/// Inert fallback: every operation succeeds and captures nothing.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod backend {
    use std::collections::HashMap;

    pub const SUPPORTED: bool = false;

    pub fn init() -> Result<(), String> {
        Ok(())
    }
    pub fn arm(_hz: u32) -> Result<(), String> {
        Ok(())
    }
    pub fn disarm() {}
    pub fn lost_count() -> u64 {
        0
    }
    pub fn drain(_agg: &mut HashMap<Vec<usize>, u64>) -> u64 {
        0
    }
    pub fn symbolize(_agg: HashMap<Vec<usize>, u64>) -> Vec<(Vec<String>, u64)> {
        Vec::new()
    }
}

/// Serialize unit tests that arm the process-global profiler; the test
/// binary runs them in parallel threads of one process. Also used by
/// [`crate::prom`]'s `/profile` tests.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn profiles_a_busy_loop_and_renders_folded_stacks() {
        let _guard = exclusive();
        start(BENCH_HZ).expect("start profiler");
        assert!(is_running());
        let t0 = Instant::now();
        let mut acc = 1u64;
        while t0.elapsed() < Duration::from_millis(400) {
            for i in 0..100_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
        }
        let profile = stop().expect("a session was running");
        assert!(!is_running());
        if !supported() {
            assert!(profile.is_empty());
            return;
        }
        assert!(profile.samples > 0, "busy loop produced no samples");
        let folded = profile.folded();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded line has a count");
            assert!(!stack.is_empty(), "empty stack in {line:?}");
            count.parse::<u64>().expect("count parses");
        }
        let hot = profile.hot_frames(5);
        assert!(!hot.is_empty());
        assert!(hot[0].total_samples >= hot[0].self_samples || hot[0].self_samples > 0);
    }

    #[test]
    fn second_start_reports_busy_and_stop_is_none_when_idle() {
        let _guard = exclusive();
        assert!(stop().is_none());
        start(99).expect("start");
        let err = start(99).expect_err("second start must fail");
        assert!(err.contains("already running"), "{err}");
        stop().expect("stop the session");
        assert!(stop().is_none());
    }

    #[cfg(not(target_os = "linux"))]
    #[test]
    fn off_linux_is_an_inert_noop() {
        let _guard = exclusive();
        assert!(!supported());
        start(99).expect("no-op start succeeds");
        let p = stop().expect("session existed");
        assert!(p.is_empty());
        assert_eq!(p.folded(), "");
    }

    #[test]
    fn merge_accumulates_counts() {
        let a = Profile {
            samples: 2,
            lost: 0,
            duration: Duration::from_secs(1),
            hz: 99,
            stacks: vec![(vec!["main".into(), "work".into()], 2)],
        };
        let mut b = Profile {
            samples: 3,
            lost: 1,
            duration: Duration::from_secs(1),
            hz: 99,
            stacks: vec![
                (vec!["main".into(), "work".into()], 1),
                (vec!["main".into(), "other".into()], 2),
            ],
        };
        b.merge(a);
        assert_eq!(b.samples, 5);
        assert_eq!(b.lost, 1);
        let folded = b.folded();
        assert!(folded.contains("main;work 3"), "{folded}");
        assert!(folded.contains("main;other 2"), "{folded}");
    }
}
