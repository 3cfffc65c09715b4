//! MM-Cubing's recursion runs on per-run scratch: a run allocates while its
//! buffers grow to the deepest level and the largest array, not once per
//! level. A counting global allocator serves this whole binary, so it
//! holds this one test; the counts are per thread.

use ccube_core::sink::CountingSink;
use ccube_core::CubeRequest;
use ccube_data::SyntheticSpec;
use ccube_mm::{mm_cube, MmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counting beside it touches only a
// const-initialized thread-local `Cell`, which never allocates.
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

#[test]
fn allocations_follow_recursion_depth_not_levels() {
    // The ladder's `skew1` shape: ≈ 14 000 recursion levels at min_sup 8.
    let t = SyntheticSpec::uniform(25_000, 8, 100, 1.0, 42).generate();
    for closed in [false, true] {
        let req = CubeRequest {
            closed,
            ..CubeRequest::new(&t, 8)
        };
        let mut sink = CountingSink::default();
        let before = ALLOCATIONS.with(Cell::get);
        mm_cube(&req, MmConfig::default(), &mut sink);
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert!(sink.cells > 30_000, "closed={closed}: {} cells", sink.cells);
        assert!(made <= 1_000, "closed={closed}: {made} allocations");
    }
}
