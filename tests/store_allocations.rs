//! The closed-cube store is one sorted run of flat arrays: building it from
//! flat cells, and one `apply` of a batch, each allocate a fixed handful of
//! buffers (the batch, the sort's scratch, one growth of each of the run's
//! three arrays), never one per cell. A counting global allocator serves
//! this whole binary, so it holds this one test; the counts are per thread.

use c_cubing::ClosedCube;
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

/// At most this many allocations build a store or apply a batch, whatever
/// the number of cells.
const BOUND: u64 = 5;

/// Cell `i`: its decimal digits, one a dimension, so cells are distinct.
fn cell(i: u32) -> [u32; 5] {
    [
        i % 10,
        i / 10 % 10,
        i / 100 % 10,
        i / 1_000 % 10,
        i / 10_000,
    ]
}

/// Cells `ids` (in a scrambled order) flattened, with counts `count(i)`.
fn flat(ids: std::ops::Range<u32>, count: impl Fn(u32) -> u64) -> (Vec<u32>, Vec<u64>) {
    let len = ids.len() as u32;
    let scrambled = (0..len).map(|j| ids.start + j * 7_919 % len);
    let values = scrambled.clone().flat_map(cell).collect();
    (values, scrambled.map(count).collect())
}

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn building_and_applying_allocate_a_fixed_number_of_times() {
    for n in [5_000u32, 40_000] {
        let (values, counts) = flat(0..n, u64::from);
        let mut cube = None;
        let made = allocations(|| {
            let cells = values.chunks_exact(5).zip(counts.iter().copied());
            cube = Some(ClosedCube::new(5, 1, cells));
        });
        let mut cube = cube.unwrap();
        assert_eq!(cube.len(), n as usize);
        assert!(made <= BOUND, "building {n} cells: {made} allocations");
        for k in [10u32, 4_000] {
            // Half the batch new cells, half stored ones with new counts.
            let stored = cube.len() as u32;
            let (mut values, mut counts) = flat(stored..stored + k / 2, u64::from);
            let (old_values, old_counts) = flat(0..k / 2, |i| u64::from(i) + 7);
            values.extend(old_values);
            counts.extend(old_counts);
            let mut applied = (0, 0);
            let made = allocations(|| {
                let cells = values.chunks_exact(5).zip(counts.iter().copied());
                applied = cube.apply(cells);
            });
            assert_eq!(applied, (u64::from(k / 2), u64::from(k / 2)));
            assert!(
                made <= BOUND,
                "applying {k} to {stored} cells: {made} allocations"
            );
            assert_eq!(cube.get(&cell(1)), Some(8));
            assert_eq!(cube.get(&cell(stored)), Some(u64::from(stored)));
        }
    }
}
