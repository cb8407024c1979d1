//! The benchmark's own counting allocator. It counts only while armed
//! (a traced run's driver window); disarmed, every allocation pays one
//! relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

/// A thread counts into its own cell and adds the cell to the shared
/// totals every `FLUSH` allocations, so that a statement making a million
/// allocations pays two atomic adds per `FLUSH` of them and not two each.
/// A thread that ends between flushes loses fewer than `FLUSH` counts.
const FLUSH: u64 = 256;

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and without a destructor, so touching it inside
    // the allocator never allocates and is sound while a thread exits.
    static LOCAL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn record(size: usize) {
    LOCAL.with(|local| {
        let (count, bytes) = local.get();
        local.set((count + 1, bytes + size as u64));
        if count + 1 >= FLUSH {
            flush(local);
        }
    });
}

fn flush(local: &Cell<(u64, u64)>) {
    let (count, bytes) = local.replace((0, 0));
    // Relaxed: statistics that publish no other data.
    COUNT.fetch_add(count, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting beside it touches only atomics
// and a destructor-free thread-local, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            record(layout.size());
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            record(layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            record(new_size);
        }
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far while armed, as far as
/// threads have flushed; the calling thread is flushed first.
pub fn totals() -> (u64, u64) {
    LOCAL.with(flush);
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
