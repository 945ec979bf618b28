//! An allocation ratchet for plan assembly: a counting global allocator,
//! in this test's own binary, counts the heap allocations `Planner::plan`
//! makes for a 500-vertex sparse pattern on the Patent-shaped graph with
//! 2000 random vertex labels (the `large-hetero` shape), under each
//! variant. Each count must stay under a ceiling set from the measured
//! counts with some headroom, so per-vertex or per-step allocations in the
//! planner cannot creep back unnoticed.

use csce_ccsr::{build_ccsr, read_csr};
use csce_core::{Catalog, Planner, PlannerConfig};
use csce_graph::generate::{chung_lu, randomize_vertex_labels};
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of a thread while its
/// `COUNTING` flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the thread's storage may already be gone at exit.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter only
// touches `const`-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract for `layout` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by `System` under `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` under `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations (reallocations included) `work` makes on this thread.
fn allocations_of<R>(work: impl FnOnce() -> R) -> (R, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = work();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Ceilings per variant, `(variant, release, debug assertions on)`: the
/// measured counts with about half again as headroom. In a release build
/// they were 72 (homomorphic), 66 (edge-induced) and 77 (vertex-induced)
/// when the execution tree became one flat program, down from 1,517, 655
/// and 614 with a heap node per tree step, and are now 73, 66 and 78. The
/// plan stages' debug-assertion checks allocate no vector per step or
/// vertex, so with them on the counts are 74, 67 and 87 (572, 566 and
/// 3,726 when they did). One allocation per tree step (about 500 more)
/// exceeds every ceiling.
const CEILINGS: [(Variant, usize, usize); 3] = [
    (Variant::Homomorphic, 110, 110),
    (Variant::EdgeInduced, 100, 100),
    (Variant::VertexInduced, 115, 125),
];

#[test]
fn plan_allocations_stay_under_their_ceilings() {
    let g = randomize_vertex_labels(&chung_lu(20_000, 88_000, 2.6, 20, 0, false, 7), 2000, 1);
    let gc = build_ccsr(&g).expect("the generated graph is valid");
    let p = PatternSampler::new(&g, 1).sample(500, Density::Sparse).expect("a pattern").pattern;
    assert_eq!(p.n(), 500);
    let mut report = Vec::new();
    for (variant, release, debug) in CEILINGS {
        let ceiling = if cfg!(debug_assertions) { debug } else { release };
        let star = read_csr(&gc, &p, variant);
        let catalog = Catalog::new(&p, &star);
        let planner = Planner::new(PlannerConfig::csce());
        let (plan, count) = allocations_of(|| planner.plan(&catalog, variant));
        assert!(plan.root.split_count() > 0, "{variant}: the plan splits");
        report.push(format!("{variant}: {count} allocations (ceiling {ceiling})"));
        assert!(count <= ceiling, "{}", report.join("\n"));
    }
    println!("{}", report.join("\n"));
}
