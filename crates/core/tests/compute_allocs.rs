//! The planar Kirkpatrick Compute never touches the heap on snapshots of up
//! to its inline capacity (32 distant neighbours): a counting global
//! allocator sees zero allocations across every call, for the error-free
//! algorithm and with distance error and skew tolerated.

use cohesion_core::KirkpatrickAlgorithm;
use cohesion_geometry::Vec2;
use cohesion_model::{Algorithm, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting the allocations made by a
/// thread while its `COUNTING` flag is up.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is the system allocator's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller upholds the rest of the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// Snapshots of 0 to 32 observations, every one distant: `n` directions
/// over an arc of `spread` radians, some co-located robots mixed in.
fn snapshots() -> Vec<Snapshot<Vec2>> {
    let mut out = Vec::new();
    for n in 0..=32 {
        for spread in [0.5, 3.0, 6.0] {
            let pts = (0..n)
                .map(|i| {
                    let t = f64::from(i) / f64::from(n.max(1));
                    Vec2::from_angle(spread * t) * (0.6 + 0.4 * (t * 7.0).sin().abs())
                })
                .collect();
            out.push(Snapshot::from_positions(pts));
        }
    }
    let mut mixed = vec![Vec2::ZERO, Vec2::new(-0.0, 0.0), Vec2::new(0.2, 0.1)];
    mixed.extend((0..29).map(|i| Vec2::from_angle(0.1 * f64::from(i))));
    out.push(Snapshot::from_positions(mixed));
    out
}

#[test]
fn planar_compute_makes_no_allocation_up_to_the_inline_capacity() {
    let snapshots = snapshots();
    let mut algorithms = Vec::new();
    for k in [1, 4] {
        for (delta, lambda) in [(0.0, 0.0), (0.05, 0.0), (0.0, 0.2), (0.05, 0.2)] {
            algorithms.push(KirkpatrickAlgorithm::with_error_tolerance(k, delta, lambda));
        }
    }
    let mut moved = 0;
    let allocations = allocations_in(|| {
        for alg in &algorithms {
            for snapshot in &snapshots {
                let target: Vec2 = alg.compute(snapshot);
                moved += usize::from(target != Vec2::ZERO);
            }
        }
    });
    assert_eq!(allocations, 0, "Compute allocated");
    assert!(moved > 0, "some snapshot must produce a move");
}

#[test]
fn the_counter_sees_a_spilled_snapshot() {
    // 40 distant directions exceed the inline capacity: one spill buffer,
    // so the allocator above is live and counting.
    let pts = (0..40)
        .map(|i| Vec2::from_angle(0.02 * f64::from(i)))
        .collect();
    let snapshot = Snapshot::from_positions(pts);
    let alg = KirkpatrickAlgorithm::new(1);
    let allocations = allocations_in(|| {
        let _: Vec2 = alg.compute(&snapshot);
    });
    assert!(allocations > 0, "the spill path allocates");
}
