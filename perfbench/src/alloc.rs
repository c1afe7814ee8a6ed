//! A counting global allocator for the traced binary.
//!
//! Counts are kept per thread, so a span on the benchmark thread counts
//! the allocations of the call it wraps and none of the server's
//! threads. Only the traced binary installs the allocator; in the
//! untraced binary the counts stay zero and allocation costs nothing
//! extra.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations and bytes requested, counting a `realloc` as one
/// allocation of its new size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

thread_local! {
    static COUNT: Cell<AllocCount> = const { Cell::new(AllocCount { allocs: 0, bytes: 0 }) };
}

fn note(bytes: usize) {
    // `try_with` never allocates and tolerates thread teardown.
    let _ = COUNT.try_with(|c| {
        let n = c.get();
        c.set(AllocCount {
            allocs: n.allocs + 1,
            bytes: n.bytes + bytes as u64,
        });
    });
}

/// This thread's counts so far.
pub fn count() -> AllocCount {
    COUNT.try_with(Cell::get).unwrap_or_default()
}

/// The system allocator, counting what it hands out.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
