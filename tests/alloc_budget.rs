//! Allocation budget of the almost-clique decomposition's similarity
//! estimates (`estimate::NeighborhoodSimilarity` speaking `d1lc::Wire`,
//! the ε-Buddy test's protocol). A node signs all its edges into one
//! buffer and each signature in flight is a range of it, so on a warm
//! session one pass over every edge allocates a constant number of
//! blocks per node, not a few per edge.
//!
//! This binary's global allocator counts the blocks that one thread
//! allocates while it counts. The session runs on one worker, which is
//! the calling thread, so the other tests of the harness cannot disturb
//! the count.

use congest_coloring::congest::{Session, SimConfig};
use congest_coloring::d1lc::wire::Wire;
use congest_coloring::estimate::{NeighborhoodSimilarity, SimilarityScheme};
use congest_coloring::graphs::{gen, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The budget: blocks allocated per node by one pass, building the
/// programs included.
const BLOCKS_PER_NODE: u64 = 20;

struct Counting;

thread_local! {
    /// Blocks this thread allocated since it started counting, or `None`
    /// while it does not count.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Count one block on this thread, if it counts (and its thread-locals
/// still exist).
fn tally() {
    let _ = COUNT.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the count touches only a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the blocks this thread allocated running it (a
/// reallocation counts as a block).
fn blocks_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let out = f();
    let blocks = COUNT.with(|count| count.replace(None));
    (out, blocks.expect("counting"))
}

/// One pass of the ACD's similarity protocol over every edge of
/// G(2000, 0.01) (about 20,000 edges), under the ACD's laptop scheme
/// (σ ≤ 512, k ≤ 16), on a session warmed up by the same pass.
#[test]
fn similarity_pass_allocates_per_node_not_per_edge() {
    let g = gen::gnp(2000, 0.01, 3);
    let scheme = SimilarityScheme {
        sigma_cap: 512,
        scale_cap: 16,
        family_bits: 16,
        ..SimilarityScheme::practical(0.5)
    };
    let programs = || -> Vec<NeighborhoodSimilarity<Wire>> {
        (0..g.n() as NodeId)
            .map(|v| NeighborhoodSimilarity::over(scheme, 5, g.n(), vec![true; g.degree(v)]))
            .collect()
    };
    let config = SimConfig {
        threads: 1,
        ..SimConfig::seeded(1)
    };
    let mut session: Session<'_, Wire> = Session::new(&g, config);
    session.run(&mut programs(), 7).expect("warm-up pass");

    let (report, blocks) = blocks_allocated(|| session.run(&mut programs(), 7).expect("pass"));
    let (n, directed) = (g.n() as u64, 2 * g.m() as u64);
    assert_eq!(report.rounds, 4);
    assert!(report.messages > directed, "every edge must be signed");
    assert!(
        blocks <= BLOCKS_PER_NODE * n,
        "{blocks} blocks for {n} nodes and {directed} directed edges \
         ({:.1} per node, budget {BLOCKS_PER_NODE})",
        blocks as f64 / n as f64
    );
}
