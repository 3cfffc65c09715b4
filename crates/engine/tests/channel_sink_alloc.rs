//! `ChannelSink` allocates one batch per ramp step it actually fills and
//! nothing on the final flush, counted with a wrapping global allocator
//! (its own test binary, so no other test sees the wrapper).

use ccube_core::sink::{CellBatch, CellSink};
use ccube_core::STAR;
use ccube_engine::ChannelSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::mpsc;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged, so its contract is
// `System`'s. The counter is a const-initialized thread-local `Cell` without
// a destructor: touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs_during(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

/// Allocations of a stream of `cells` cells, from `new` through `finish`.
fn stream_allocs(cells: u32) -> u64 {
    let (tx, rx) = mpsc::sync_channel(4);
    let allocs = allocs_during(|| {
        let mut sink = ChannelSink::<()>::new(tx, 2, 0);
        for i in 0..cells {
            sink.emit(&[i, STAR], 1, &());
        }
        sink.finish();
    });
    assert_eq!(rx.iter().map(|b| b.len() as u32).sum::<u32>(), cells);
    allocs
}

#[test]
fn a_stream_allocates_one_batch_per_step_and_none_on_the_final_flush() {
    let one_batch = allocs_during(|| {
        let mut batch = CellBatch::<()>::new(2);
        batch.reserve(64);
    });
    assert!(one_batch > 0);
    assert_eq!(stream_allocs(10), one_batch);
    // 64 cells fill the first step: the ramp reserves its second batch,
    // whose 6 cells `finish` ships without reserving a third.
    assert_eq!(stream_allocs(70), 2 * one_batch);
}
