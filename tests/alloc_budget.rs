//! Allocation budgets of the pipeline's passes on a warm one-thread
//! engine:
//!
//! * the almost-clique decomposition's similarity estimates
//!   (`estimate::NeighborhoodSimilarity` speaking `d1lc::Wire`, the
//!   ε-Buddy test's protocol). A node signs all its edges into one
//!   buffer and each signature in flight is a range of it, so one pass
//!   over every edge allocates a constant number of blocks per node, not
//!   a few per edge;
//! * an activation. Its programs borrow the node states, so the states
//!   stay in their buffer and the pass allocates only its small programs;
//! * `SlackColor` with few participants. A MultiTrial program of a node
//!   that cannot take part allocates nothing;
//! * a round in which every node broadcasts a payload whose clone
//!   allocates. A fault-free broadcast is read in its sender's slot, so
//!   the round allocates no copy per receiver.
//!
//! This binary's global allocator counts the blocks, and their bytes,
//! that one thread allocates while it counts. The engine runs on one
//! worker, which is the calling thread, so the other tests of the
//! harness cannot disturb the count.

use congest_coloring::congest::{Ctx, Program, Session, SimConfig};
use congest_coloring::d1lc::pipeline::initial_states;
use congest_coloring::d1lc::slackcolor::slack_color;
use congest_coloring::d1lc::wire::{tags, Wire};
use congest_coloring::d1lc::{Driver, NodeState, ParamProfile};
use congest_coloring::estimate::{NeighborhoodSimilarity, SimilarityScheme, SimilarityTable};
use congest_coloring::graphs::palette::degree_plus_one_lists;
use congest_coloring::graphs::{gen, Graph, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The similarity budget: blocks allocated per node by one pass,
/// building the programs included.
const BLOCKS_PER_NODE: u64 = 20;

/// The activation budget: bytes allocated per node by one
/// `Driver::activate` call, building the programs included.
const ACTIVATION_BYTES_PER_NODE: u64 = 32;

/// The `SlackColor` budget: blocks allocated per node by one call in
/// which one node in ten takes part.
const SLACK_COLOR_BLOCKS_PER_NODE: u64 = 1;

/// The broadcast budget: blocks allocated per node by one round in
/// which every node broadcasts a `Wire::UintList` and every receiver
/// reads each payload. It leaves room for each sender's own clone of its
/// payload, not for a copy per receiver.
const BROADCAST_BLOCKS_PER_NODE: u64 = 2;

/// What one thread allocated while it counted. A reallocation counts as
/// a block of its new size.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    blocks: u64,
    bytes: u64,
}

struct Counting;

thread_local! {
    /// What this thread allocated since it started counting, or `None`
    /// while it does not count.
    static COUNT: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Count one block of `bytes` on this thread, if it counts (and its
/// thread-locals still exist).
fn tally(bytes: usize) {
    let _ = COUNT.try_with(|count| {
        if let Some(t) = count.get() {
            count.set(Some(Tally {
                blocks: t.blocks + 1,
                bytes: t.bytes + bytes as u64,
            }));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the count touches only a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and what this thread allocated running it.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    COUNT.with(|count| count.set(Some(Tally::default())));
    let out = f();
    let tally = COUNT.with(|count| count.replace(None));
    (out, tally.expect("counting"))
}

/// A one-thread engine configuration.
fn one_thread(seed: u64) -> SimConfig {
    SimConfig {
        threads: 1,
        ..SimConfig::seeded(seed)
    }
}

/// The node states a solve of G(2000, 0.01, 3) with (degree+1)-lists
/// starts from.
fn solve_start(g: &Graph) -> Vec<NodeState> {
    let lists = degree_plus_one_lists(g);
    initial_states(g, &lists, &ParamProfile::laptop(), 1)
}

/// One pass of the ACD's similarity protocol over every edge of
/// G(2000, 0.01) (about 20,000 edges), under the ACD's laptop scheme
/// (σ ≤ 512, k ≤ 16), on a session warmed up by the same pass. The
/// pass's shared table is built inside the count.
#[test]
fn similarity_pass_allocates_per_node_not_per_edge() {
    let g = gen::gnp(2000, 0.01, 3);
    let scheme = SimilarityScheme {
        sigma_cap: 512,
        scale_cap: 16,
        family_bits: 16,
        ..SimilarityScheme::practical(0.5)
    };
    // One pass: its table, its programs over the table, and the run.
    let pass = |session: &mut Session<'_, Wire>| {
        let members: Vec<Vec<bool>> = (0..g.n() as NodeId)
            .map(|v| vec![true; g.degree(v)])
            .collect();
        let table = SimilarityTable::new(scheme, 5, members.iter().map(Vec::as_slice));
        let mut programs: Vec<NeighborhoodSimilarity<'_, Wire>> = members
            .into_iter()
            .map(|member| NeighborhoodSimilarity::over(&table, member))
            .collect();
        session.run(&mut programs, 7).expect("pass")
    };
    let mut session: Session<'_, Wire> = Session::new(&g, one_thread(1));
    pass(&mut session);

    let (report, tally) = allocated(|| pass(&mut session));
    let (blocks, n, directed) = (tally.blocks, g.n() as u64, 2 * g.m() as u64);
    assert_eq!(report.rounds, 4);
    assert!(report.messages > directed, "every edge must be signed");
    assert!(
        blocks <= BLOCKS_PER_NODE * n,
        "{blocks} blocks for {n} nodes and {directed} directed edges \
         ({:.1} per node, budget {BLOCKS_PER_NODE})",
        blocks as f64 / n as f64
    );
}

/// One `Driver::activate` call on a warm driver over G(2000, 0.01, 3):
/// every node's program borrows its state, so the states keep their
/// buffer and the call allocates little more than the programs
/// themselves.
#[test]
fn activation_keeps_the_states_in_place() {
    let g = gen::gnp(2000, 0.01, 3);
    let mut driver = Driver::new(&g, one_thread(1));
    let states = driver
        .activate(solve_start(&g), |_| true)
        .expect("warm-up activation");
    let buffer = states.as_ptr();

    let (states, tally) = allocated(|| {
        driver
            .activate(states, |st| st.id % 2 == 0)
            .expect("activation")
    });
    let n = g.n() as u64;
    let dropouts = (0..g.n() as NodeId).filter(|v| v % 2 == 1);
    let news: usize = dropouts.map(|v| g.degree(v)).sum();
    assert_eq!(driver.log.passes()[1].report.messages, news as u64);
    assert_eq!(states.as_ptr(), buffer, "the states left their buffer");
    assert!(
        tally.bytes <= ACTIVATION_BYTES_PER_NODE * n,
        "{} bytes in {} blocks for {n} nodes ({:.1} bytes per node, budget \
         {ACTIVATION_BYTES_PER_NODE})",
        tally.bytes,
        tally.blocks,
        tally.bytes as f64 / n as f64
    );
}

/// Two `SlackColor` calls (smin 8) over G(2000, 0.01, 3), each with
/// another tenth of the nodes active. The second call, on the driver and
/// the states the first one warmed up, allocates less than a block per
/// node: a node that cannot take part in its MultiTrial passes allocates
/// nothing there.
#[test]
fn slack_color_allocates_nothing_per_idle_node() {
    let g = gen::gnp(2000, 0.01, 3);
    let profile = ParamProfile::laptop();
    let tenth = |k: NodeId| move |st: &NodeState| st.id % 10 == k;
    let mut driver = Driver::new(&g, one_thread(1));
    let states = driver
        .activate(solve_start(&g), tenth(0))
        .expect("activation");
    let states = slack_color(&mut driver, states, &profile, 5, 8, "slack").expect("warm-up call");
    let states = driver.activate(states, tenth(1)).expect("activation");
    let warm_passes = driver.log.passes().len();

    let (states, tally) =
        allocated(|| slack_color(&mut driver, states, &profile, 6, 8, "slack").expect("call"));
    let n = g.n() as u64;
    let colored = states
        .iter()
        .filter(|st| tenth(1)(st) && st.color.is_some());
    assert!(colored.count() > 0, "SlackColor colored nobody");
    let passes = &driver.log.passes()[warm_passes..];
    assert!(
        passes.iter().any(|pass| pass.report.rounds == 4),
        "no MultiTrial pass (4 rounds) ran"
    );
    assert!(
        tally.blocks <= SLACK_COLOR_BLOCKS_PER_NODE * n,
        "{} blocks ({} bytes) for {n} nodes over {} passes (budget \
         {SLACK_COLOR_BLOCKS_PER_NODE} per node)",
        tally.blocks,
        tally.bytes,
        passes.len()
    );
}

/// Broadcasts a clone of its payload in round 0, then reads the `values`
/// of every payload in its inbox and reports done.
struct Announce {
    payload: Wire,
    heard: u64,
    sum: u64,
    done: bool,
}

impl Program for Announce {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if ctx.round() == 0 {
            ctx.broadcast(self.payload.clone());
            return;
        }
        for (_, msg) in ctx.inbox() {
            let Wire::UintList { values, .. } = msg else {
                panic!("only lists are broadcast");
            };
            self.heard += 1;
            self.sum += values.iter().sum::<u64>();
        }
        self.done = true;
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// One broadcast round over G(2000, 0.01, 3) on a warm one-thread
/// session: every node broadcasts a `Wire::UintList`, whose clone
/// allocates, and every receiver reads each payload. The payloads are
/// built before the counted pass, so the pass allocates each sender's
/// clone and a few blocks of pass setup, but no copy per receiver.
#[test]
fn broadcasts_are_read_without_a_copy_per_receiver() {
    let g = gen::gnp(2000, 0.01, 3);
    let programs = || -> Vec<Announce> {
        (0..g.n() as u64)
            .map(|v| Announce {
                payload: Wire::UintList {
                    tag: tags::TRIED,
                    values: vec![v, 1, 2],
                    bits_each: 11,
                },
                heard: 0,
                sum: 0,
                done: false,
            })
            .collect()
    };
    let mut session: Session<'_, Wire> = Session::new(&g, one_thread(1));
    session.run(&mut programs(), 7).expect("warm-up pass");

    let mut counted = programs();
    let (report, tally) = allocated(|| session.run(&mut counted, 7).expect("pass"));
    let (n, directed) = (g.n() as u64, 2 * g.m() as u64);
    assert_eq!(report.rounds, 2);
    assert_eq!(report.messages, directed);
    for (v, p) in counted.iter().enumerate() {
        let nbrs = g.neighbors(v as NodeId);
        let want: u64 = nbrs.iter().map(|&u| u64::from(u) + 3).sum();
        assert_eq!((p.heard, p.sum), (nbrs.len() as u64, want), "node {v}");
    }
    assert!(
        tally.blocks <= BROADCAST_BLOCKS_PER_NODE * n,
        "{} blocks ({} bytes) for {n} nodes and {directed} delivered copies \
         ({:.1} per node, budget {BROADCAST_BLOCKS_PER_NODE})",
        tally.blocks,
        tally.bytes,
        tally.blocks as f64 / n as f64
    );
}
