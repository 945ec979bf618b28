//! A counting global allocator for `peak_heap_mb` that stays out of the
//! way of parallel workers.
//!
//! Counting every allocation on shared atomics (as `csce_bench`'s
//! `TrackingAllocator` does) makes each allocation a contended read-modify-
//! write when two workers enumerate at once: on `enum-induced` that slowed
//! queries by a quarter and doubled their run-to-run spread. Here each
//! thread keeps its own balance and moves it to the shared counters only
//! once it passes [`SLACK`] bytes, so the peak is exact to within
//! `SLACK` bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes a thread may allocate or free before it publishes its balance.
const SLACK: isize = 16 * 1024;

static CURRENT: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread's unpublished bytes; published when the thread exits, so the
/// balance of a finished worker is not lost.
struct Balance(Cell<isize>);

impl Drop for Balance {
    fn drop(&mut self) {
        publish(self.0.replace(0));
    }
}

thread_local! {
    static BALANCE: Balance = const { Balance(Cell::new(0)) };
}

/// Install with `#[global_allocator] static A: BatchedTracking = BatchedTracking;`.
pub struct BatchedTracking;

/// Add `delta` bytes to this thread's balance and publish it once it
/// passes the slack (or at once when the thread's storage is gone).
fn account(delta: isize) {
    let due = BALANCE
        .try_with(|b| {
            let v = b.0.get() + delta;
            if v.abs() < SLACK {
                b.0.set(v);
                0
            } else {
                b.0.set(0);
                v
            }
        })
        .unwrap_or(delta);
    publish(due);
}

fn publish(bytes: isize) {
    if bytes != 0 {
        let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for BatchedTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        new
    }
}

impl BatchedTracking {
    /// High-water mark of the published heap size since the last reset.
    pub fn peak_bytes() -> usize {
        PEAK.load(Ordering::Relaxed).max(0) as usize
    }

    /// Reset the peak to the current level, so a measurement window
    /// observes only its own allocations.
    pub fn reset_peak() {
        PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}
