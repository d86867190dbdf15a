//! A counting global allocator for the workspace's allocation tests.
//!
//! Linking this crate installs [`Counting`] as the process's global
//! allocator. Every call forwards unchanged to [`System`], and every
//! allocation call (`alloc`, `alloc_zeroed`, `realloc`) also bumps a
//! counter of the calling thread. A test reads its own thread's count
//! with [`allocations`], so tests running concurrently in one binary do
//! not disturb each other's counts.
//!
//! Only test targets depend on this crate: it is a dev-dependency, so
//! no library or binary of the workspace ever links it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation call of the current thread. During thread
/// teardown the counter may be gone; that call goes uncounted.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to the system allocator, counting allocation calls per
/// thread.
pub struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = allocations();
        let v: Vec<u64> = Vec::with_capacity(4);
        assert_eq!(allocations() - before, 1);
        drop(v);

        // Another thread allocates between two barriers; this thread's
        // count does not move meanwhile.
        let barrier = Arc::new(Barrier::new(2));
        let theirs = Arc::clone(&barrier);
        let child = std::thread::spawn(move || {
            theirs.wait();
            let before = allocations();
            for _ in 0..100 {
                drop(std::hint::black_box(vec![0u8; 16]));
            }
            let made = allocations() - before;
            theirs.wait();
            made
        });
        barrier.wait();
        let before = allocations();
        barrier.wait();
        let during = allocations() - before;
        assert_eq!(child.join().expect("thread runs"), 100);
        assert_eq!(during, 0, "another thread's allocations counted here");
    }
}
