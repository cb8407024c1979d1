//! Opt-in per-query resource profiling.
//!
//! The same discipline as tracing: counting is a property of the handle,
//! not of the process. Every instrumentation site — the allocator hook,
//! [`add_pairs`], [`add_tiles`] — counts iff a [`ProfileSpan`] is open on
//! the thread it runs on, and otherwise costs one load of a
//! const-initialised thread-local: a server that profiles never arms the
//! hooks under another server's (or another test's) threads. Counters are
//! plain thread-locals, so a window measures the thread it was opened on:
//! work an MQO leader performs on behalf of its followers is attributed
//! to the *leader's* profile, mirroring how shared spans credit wall time.
//!
//! Allocation counting needs the embedding binary to opt in by
//! installing [`CountingAlloc`] as its `#[global_allocator]`; without it
//! the `alloc_count` / `alloc_bytes` fields stay zero. CPU time is the
//! per-thread CPU clock (`CLOCK_THREAD_CPUTIME_ID`), zero on platforms
//! without one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;

thread_local! {
    /// [`ProfileSpan`]s open on this thread; the hooks count while nonzero.
    static OPEN_SPANS: Cell<u32> = const { Cell::new(0) };
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static PAIRS: Cell<u64> = const { Cell::new(0) };
    static TILES: Cell<u64> = const { Cell::new(0) };
}

/// Whether a [`ProfileSpan`] is open on this thread. Safe in allocator
/// context: a const-initialised `Cell` never allocates, and `try_with`
/// tolerates thread-local teardown.
#[inline]
fn counting() -> bool {
    OPEN_SPANS.try_with(|c| c.get() != 0).unwrap_or(false)
}

#[inline]
fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, n: u64) {
    let _ = counter.try_with(|c| c.set(c.get().wrapping_add(n)));
}

/// Credits `n` scored vector pairs to the current thread's profile
/// window. Called by similarity kernels; one thread-local load when no
/// window is open.
#[inline]
pub fn add_pairs(n: u64) {
    if counting() {
        bump(&PAIRS, n);
    }
}

/// Credits `n` panel tiles — build tiles of `TILE` (64,
/// `cx_vector::block::TILE`) panel rows a sweep scores its probes
/// against — to the current thread's profile window. One thread-local
/// load when no window is open.
#[inline]
pub fn add_tiles(n: u64) {
    if counting() {
        bump(&TILES, n);
    }
}

/// Credits one successful heap allocation of `bytes` to the current
/// thread's profile window, if one is open.
#[inline]
fn record_alloc(p: *mut u8, bytes: usize) -> *mut u8 {
    if !p.is_null() && counting() {
        bump(&ALLOC_COUNT, 1);
        bump(&ALLOC_BYTES, bytes as u64);
    }
    p
}

/// A `#[global_allocator]` wrapper that counts allocations into the
/// profiler's thread-local counters on threads with an open
/// [`ProfileSpan`], and is a pure pass-through (one thread-local load)
/// everywhere else.
///
/// ```
/// // In a binary that wants allocation profiles:
/// #[global_allocator]
/// static ALLOC: cx_obs::CountingAlloc = cx_obs::CountingAlloc::system();
/// # fn main() {}
/// ```
#[derive(Debug, Default)]
pub struct CountingAlloc<A = System> {
    inner: A,
}

impl CountingAlloc<System> {
    /// A counting wrapper around the system allocator.
    pub const fn system() -> Self {
        CountingAlloc { inner: System }
    }
}

impl<A> CountingAlloc<A> {
    /// Wraps an arbitrary inner allocator.
    pub const fn new(inner: A) -> Self {
        CountingAlloc { inner }
    }
}

// SAFETY: pure delegation to the inner allocator; the counting side
// effect touches only const-initialized thread-local `Cell`s and never
// allocates or unwinds.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(self.inner.alloc(layout), layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(self.inner.alloc_zeroed(layout), layout.size())
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_alloc(self.inner.realloc(ptr, layout, new_size), new_size)
    }
}

/// The resources one query consumed, captured by a [`ProfileSpan`] on
/// the serving thread. All fields are deltas over the span's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// CPU time of the serving thread (ns, per-thread CPU clock; 0 on
    /// platforms without one).
    pub cpu_ns: u64,
    /// Heap allocations observed (0 unless the binary installs
    /// [`CountingAlloc`]).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Vector pairs scored by similarity kernels on this thread.
    pub pairs_scored: u64,
    /// Panel tiles touched: build tiles of `TILE` (64) panel rows.
    pub panel_tiles: u64,
    /// Bytes charged against the query's memory budget.
    pub bytes_charged: u64,
}

impl fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu {:.3} ms · allocs {} ({} B) · pairs {} · tiles {} · charged {} B",
            self.cpu_ns as f64 / 1e6,
            self.alloc_count,
            self.alloc_bytes,
            self.pairs_scored,
            self.panel_tiles,
            self.bytes_charged,
        )
    }
}

/// An open profiling window on the current thread: arms the thread's
/// hooks while it lives, snapshots the thread-local counters and CPU
/// clock at start, and [`finish`] returns the deltas as a
/// [`QueryProfile`]. `!Send`: the window belongs to the thread that
/// opened it.
///
/// [`finish`]: ProfileSpan::finish
#[derive(Debug)]
pub struct ProfileSpan {
    cpu0: u64,
    alloc_count0: u64,
    alloc_bytes0: u64,
    pairs0: u64,
    tiles0: u64,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for ProfileSpan {
    fn drop(&mut self) {
        let _ = OPEN_SPANS.try_with(|c| c.set(c.get().saturating_sub(1)));
    }
}

impl ProfileSpan {
    /// Opens a window at the current thread's counter values.
    pub fn start() -> Self {
        OPEN_SPANS.with(|c| c.set(c.get() + 1));
        ProfileSpan {
            cpu0: thread_cpu_ns(),
            alloc_count0: ALLOC_COUNT.with(Cell::get),
            alloc_bytes0: ALLOC_BYTES.with(Cell::get),
            pairs0: PAIRS.with(Cell::get),
            tiles0: TILES.with(Cell::get),
            _this_thread: PhantomData,
        }
    }

    /// Closes the window (dropping `self` disarms the hooks), charging
    /// `bytes_charged` (from the query's memory budget) into the
    /// resulting profile.
    pub fn finish(self, bytes_charged: u64) -> QueryProfile {
        QueryProfile {
            cpu_ns: thread_cpu_ns().saturating_sub(self.cpu0),
            alloc_count: ALLOC_COUNT.with(Cell::get).wrapping_sub(self.alloc_count0),
            alloc_bytes: ALLOC_BYTES.with(Cell::get).wrapping_sub(self.alloc_bytes0),
            pairs_scored: PAIRS.with(Cell::get).wrapping_sub(self.pairs0),
            panel_tiles: TILES.with(Cell::get).wrapping_sub(self.tiles0),
            bytes_charged,
        }
    }
}

/// CPU time consumed by the calling thread, in nanoseconds.
#[cfg(any(target_os = "linux", target_os = "android"))]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: clock_gettime writes a timespec through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        (ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64
    } else {
        0
    }
}

/// CPU time consumed by the calling thread, in nanoseconds (always 0 on
/// platforms without a per-thread CPU clock binding).
#[cfg(not(any(target_os = "linux", target_os = "android")))]
pub fn thread_cpu_ns() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary counts for real, so the allocator hook's
    // scoping is asserted on the counters themselves.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc::system();

    fn counters() -> [u64; 4] {
        [&ALLOC_COUNT, &ALLOC_BYTES, &PAIRS, &TILES].map(|c| c.with(Cell::get))
    }

    #[test]
    fn counters_do_not_move_outside_a_window_even_while_another_thread_profiles() {
        // `open` holds this thread back until the other has its window
        // open; `done` keeps that window open until this thread has
        // allocated and scored.
        let (open, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let (before, after) = std::thread::scope(|s| {
            s.spawn(|| {
                let span = ProfileSpan::start();
                open.wait();
                done.wait();
                span.finish(0)
            });
            open.wait();
            let before = counters();
            let ballast: Vec<u64> = (0..4096).collect();
            add_pairs(100);
            add_tiles(ballast.len() as u64);
            let after = counters();
            done.wait();
            (before, after)
        });
        assert_eq!(after, before);
    }

    #[test]
    fn a_window_counts_until_it_closes() {
        let span = ProfileSpan::start();
        add_pairs(100);
        add_pairs(23);
        add_tiles(10);
        let ballast: Vec<u64> = (0..4096).collect();
        assert_eq!(ballast.len(), 4096);
        let p = span.finish(4096);
        assert_eq!(p.pairs_scored, 123);
        assert_eq!(p.panel_tiles, 10);
        assert!(p.alloc_count >= 1 && p.alloc_bytes >= 4096 * 8, "{p:?}");
        assert_eq!(p.bytes_charged, 4096);

        let closed = counters();
        add_pairs(1);
        assert_eq!(counters(), closed, "closing the window disarms the hooks");
    }

    #[test]
    fn cpu_clock_advances_under_load() {
        let span = ProfileSpan::start();
        // Busy work the optimizer can't remove.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert_ne!(acc, 1); // keep `acc` observable
        let p = span.finish(0);
        if cfg!(any(target_os = "linux", target_os = "android")) {
            assert!(p.cpu_ns > 0, "thread CPU clock did not advance");
        }
    }

    #[test]
    fn windows_are_deltas() {
        let outer = ProfileSpan::start();
        add_pairs(50);
        let span = ProfileSpan::start();
        add_pairs(7);
        let p = span.finish(0);
        assert_eq!(p.pairs_scored, 7, "baseline pairs must not leak into the window");
        add_pairs(1);
        assert_eq!(outer.finish(0).pairs_scored, 58, "an inner close keeps the outer armed");
    }

    #[test]
    fn display_is_compact() {
        let p = QueryProfile {
            cpu_ns: 1_500_000,
            alloc_count: 3,
            alloc_bytes: 1024,
            pairs_scored: 99,
            panel_tiles: 4,
            bytes_charged: 2048,
        };
        let s = p.to_string();
        assert!(s.contains("cpu 1.500 ms"), "{s}");
        assert!(s.contains("pairs 99"), "{s}");
        assert!(s.contains("charged 2048 B"), "{s}");
    }
}
