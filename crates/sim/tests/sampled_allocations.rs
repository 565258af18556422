//! Heap allocations of a warm §6 sampled run.
//!
//! The test sits in a binary of its own, so its counting global allocator
//! sees this crate's code and nothing else. The counter is per thread:
//! only the allocations the measured call makes on the test's thread
//! count. A warm `run_sampled_detailed` serves every draw from the
//! simulator's job catalog and engine buffers; what it still allocates is
//! the request sampler and the returned vector, a handful whatever the
//! sample count. Grouping per call and fresh engine vectors per request
//! made it tens of thousands.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tapesim_model::specs::paper_table1;
use tapesim_model::Bytes;
use tapesim_placement::Scheme;
use tapesim_sim::Simulator;
use tapesim_workload::{ObjectSizeSpec, RequestSpec, WorkloadSpec};

/// Ceiling on the allocations of one warm run of [`SAMPLES`] requests.
const MAX_ALLOCS: u64 = 10;
const SAMPLES: usize = 1_000;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocation events (fresh and resized blocks) per thread.
struct Counting;

fn count() {
    // Never fails while the thread lives; during its teardown the
    // allocation just goes uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's layout and pointer guarantees are the ones `System` needs;
// the count touches only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_warm_sampled_run_allocates_a_constant_handful() {
    let cfg = paper_table1();
    let w = WorkloadSpec {
        objects: 6_000,
        sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(2)),
        requests: RequestSpec {
            count: 80,
            min_objects: 20,
            max_objects: 40,
            count_shape: 1.0,
            alpha: 0.3,
        },
        seed: 19,
    }
    .generate();
    for scheme in Scheme::ALL {
        let placement = scheme.policy(4).place(&w, &cfg).unwrap();
        let mut sim = Simulator::with_natural_policy(placement, 4);
        // The first run groups what it draws and sizes the buffers; the
        // second, over the same draws, finds everything in place.
        let (cold, _) = allocations(|| sim.run_sampled_detailed(&w, SAMPLES, 5));
        sim.reset();
        let (warm, allocs) = allocations(|| sim.run_sampled_detailed(&w, SAMPLES, 5));
        assert_eq!(warm, cold, "{}", scheme.tag());
        assert!(
            allocs < MAX_ALLOCS,
            "{}: a warm run of {SAMPLES} requests allocated {allocs} times",
            scheme.tag()
        );
    }
}
