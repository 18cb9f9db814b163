//! The detailed core performs no heap allocation in steady state: after
//! a warm-up, a measured interval (the span a SimPoint flow times) must
//! not touch the allocator at all. A counting global allocator checks
//! it on MegaBOOM — the widest queues and the largest ROB — over
//! workloads with heavy branch-predictor training (qsort), long-latency
//! memory traffic (dijkstra) and dense integer work (sha).

use boom_uarch::{BoomConfig, Core};
use rv_workloads::{by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread allocation counter, so test
/// threads running alongside never leak into the measured count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator can run while thread locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Instructions retired before the measurement boundary.
const WARMUP: u64 = 20_000;
/// Instructions in the measured interval (a full-scale SimPoint interval).
const MEASURE: u64 = 50_000;

#[test]
fn measured_interval_allocates_nothing_on_mega() {
    for name in ["qsort", "dijkstra", "sha"] {
        let w = by_name(name, Scale::Full).expect("known workload");
        let mut core = Core::new(BoomConfig::mega(), &w.program);
        let warm = core.run(WARMUP);
        assert!(!warm.exited && !warm.hung, "{name}: warm-up ended early: {warm:?}");
        core.reset_stats();
        let before = allocs();
        let r = core.run(MEASURE);
        let during = allocs() - before;
        assert!(!r.hung && r.retired >= MEASURE, "{name}: {r:?}");
        assert!(core.stats().bp.allocations > 0, "{name}: the interval must train TAGE");
        assert_eq!(during, 0, "{name}: {during} heap allocation(s) in the measured interval");
    }
}
