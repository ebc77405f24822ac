//! Optional allocation tracking behind a counting `#[global_allocator]`.
//!
//! The bench harness (and any binary that opts in) installs
//! [`CountingAlloc`] as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;
//! ```
//!
//! Every heap allocation is then counted twice. The process-wide
//! [`totals`] are what every bench row's allocs/op is a delta of, so a
//! scenario's worker threads count. The per-thread counters are what
//! [`measure`] snapshots around a closure — how the zero-alloc property
//! of the `authd` respond path and the wire codec is *asserted* rather
//! than assumed, undisturbed by what other test threads allocate.
//!
//! When the allocator is not installed (every library user of `obs`)
//! all counters stay at zero and [`installed`] reports `false`; the
//! module costs nothing.
#![allow(unsafe_code)] // the GlobalAlloc impl below; nothing else

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The process-wide totals, on a cache line of their own. Every thread
/// bumps both on every allocation; as two loose statics the linker
/// decided, build by build, whether that was one contended line or two
/// and whether the read-mostly flags packed beside them were invalidated
/// with it: equivalent sources ran 13% apart in CPU per pipeline record.
#[repr(align(64))]
struct Totals {
    /// Allocation count.
    allocs: AtomicU64,
    /// Allocated-byte count (bytes requested, not freed).
    bytes: AtomicU64,
}

static TOTALS: Totals = Totals {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<u64> = const { Cell::new(0) };
}

/// A counting global allocator wrapping [`System`].
///
/// Counting is two relaxed atomic adds plus four const-initialized
/// thread-local bumps per allocation — cheap enough to leave installed
/// in the `dnscentral` binary permanently.
pub struct CountingAlloc;

#[inline]
fn note_alloc(size: u64) {
    TOTALS.allocs.fetch_add(1, Ordering::Relaxed);
    TOTALS.bytes.fetch_add(size, Ordering::Relaxed);
    // TLS may be unavailable during thread teardown; skip quietly then
    // (the process-wide totals above still see the event).
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
    let _ = THREAD_CURRENT.try_with(|c| {
        let now = c.get().wrapping_add(size);
        c.set(now);
        let _ = THREAD_PEAK.try_with(|p| {
            if now > p.get() {
                p.set(now);
            }
        });
    });
}

#[inline]
fn note_dealloc(size: u64) {
    let _ = THREAD_CURRENT.try_with(|c| c.set(c.get().saturating_sub(size)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // a grow/shrink counts as one fresh allocation event: steady
            // state (reused capacity) performs none of these
            note_dealloc(layout.size() as u64);
            note_alloc(new_size as u64);
        }
        p
    }
}

/// What [`measure`] observed while its closure ran (current thread only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopeStats {
    /// Number of allocation events (alloc, alloc_zeroed, grow).
    pub allocs: u64,
    /// Bytes requested across those events.
    pub bytes: u64,
    /// Peak live-byte growth above the level at scope entry.
    pub peak_bytes: u64,
}

/// Run `f`, returning its value plus the allocation activity of the
/// current thread while it ran. All zeros unless [`CountingAlloc`] is
/// the process's global allocator.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, ScopeStats) {
    let allocs0 = THREAD_ALLOCS.with(Cell::get);
    let bytes0 = THREAD_BYTES.with(Cell::get);
    let base = THREAD_CURRENT.with(Cell::get);
    THREAD_PEAK.with(|p| p.set(base));
    let out = f();
    let peak = THREAD_PEAK.with(Cell::get);
    (
        out,
        ScopeStats {
            allocs: THREAD_ALLOCS.with(Cell::get).wrapping_sub(allocs0),
            bytes: THREAD_BYTES.with(Cell::get).wrapping_sub(bytes0),
            peak_bytes: peak.saturating_sub(base),
        },
    )
}

/// Process-wide `(allocation_count, bytes_allocated)` since start.
pub fn totals() -> (u64, u64) {
    (
        TOTALS.allocs.load(Ordering::Relaxed),
        TOTALS.bytes.load(Ordering::Relaxed),
    )
}

/// Probe whether [`CountingAlloc`] is actually installed as the global
/// allocator: perform one heap allocation and see whether the counters
/// move.
pub fn installed() -> bool {
    let before = THREAD_ALLOCS.with(Cell::get);
    let probe = std::hint::black_box(Box::new(0xA5u8));
    drop(std::hint::black_box(probe));
    THREAD_ALLOCS.with(Cell::get) != before
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs test binary does not install the allocator, so counters
    // must stay silent — the "not installed" contract.
    #[test]
    fn uninstalled_counts_nothing() {
        assert!(!installed());
        let (v, stats) = measure(|| {
            let big: Vec<u64> = (0..1024).collect();
            big.len()
        });
        assert_eq!(v, 1024);
        assert_eq!(stats, ScopeStats::default());
        assert_eq!(totals(), (0, 0));
    }
}
