//! A counting allocator for the tests that pin "this path allocates
//! nothing". The count is per thread and off unless [`count`] is running, so
//! the harness' own threads and a binary's other tests stay out of it. A
//! test binary installs it with
//!
//! ```ignore
//! #[path = "common/counting_alloc.rs"]
//! mod counting_alloc;
//! #[global_allocator]
//! static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread is being measured.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

pub struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only extra
// work is bumping a const-initialized, destructor-free thread-local `Cell`,
// which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` and returns its result with the number of allocations (and
/// reallocations) this thread made meanwhile.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    let result = f();
    let allocations = ALLOCATIONS.with(|c| c.replace(None)).expect("was counting");
    (result, allocations)
}
