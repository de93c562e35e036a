//! A counting allocator for the tests that pin "this path allocates
//! nothing" and "this structure holds this much heap". The tally is per
//! thread and off unless [`count`] or [`tally`] is running, so the harness'
//! own threads and a binary's other tests stay out of it. A test binary
//! installs it with
//!
//! ```ignore
//! #[path = "common/counting_alloc.rs"]
//! mod counting_alloc;
//! #[global_allocator]
//! static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated while measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Allocations and reallocations made.
    pub allocations: u64,
    /// Bytes allocated minus bytes freed: the heap the measured code left
    /// behind (negative if it freed older memory).
    pub live_bytes: i64,
    /// Heap blocks allocated minus blocks freed.
    pub live_blocks: i64,
}

thread_local! {
    /// `Some(tally)` while this thread is being measured.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn record(update: impl FnOnce(&mut Tally)) {
    TALLY.with(|c| {
        if let Some(mut t) = c.get() {
            update(&mut t);
            c.set(Some(t));
        }
    });
}

pub struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only extra
// work is updating a const-initialized, destructor-free thread-local `Cell`,
// which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocations += 1;
            t.live_bytes += layout.size() as i64;
            t.live_blocks += 1;
        });
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(|t| {
            t.live_bytes -= layout.size() as i64;
            t.live_blocks -= 1;
        });
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(|t| {
            t.allocations += 1;
            t.live_bytes += new_size as i64 - layout.size() as i64;
        });
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` and returns its result with what this thread allocated
/// meanwhile.
pub fn tally<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|c| c.set(Some(Tally::default())));
    let result = f();
    let tally = TALLY.with(|c| c.replace(None)).expect("was counting");
    (result, tally)
}

/// Runs `f` and returns its result with the number of allocations (and
/// reallocations) this thread made meanwhile.
#[allow(dead_code)] // each test binary uses one of the two entry points
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (result, tally) = tally(f);
    (result, tally.allocations)
}
