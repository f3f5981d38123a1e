//! The full D1LC pipeline — Algorithm 7 and Theorem 1.
//!
//! `solve` runs, for each degree range `(T(x), x]` of the ladder
//! `Δ, T(Δ), T(T(Δ)), …` (paper: `T(x) = log⁷ x`):
//!
//! 1. `ComputeACD` on the range's uncolored nodes;
//! 2. the sparse/uneven path (Alg. 8);
//! 3. the dense path (Alg. 9);
//!
//! then a low-degree fallback of repeated `TryRandomColor` rounds (the
//! shattering-regime randomized part), the deterministic cleanup, and a
//! final *repair* sweep — a central pass that colors any node the
//! distributed phases left uncolored (w.h.p. none beyond shattered
//! leftovers handled by cleanup; the count is reported honestly in
//! [`Stats::repairs`]).
//!
//! The output is **always** a proper list coloring: every distributed
//! adoption is conflict-free by construction (see `passes::digest_adoption`
//! and the mutual-exclusion arguments in `multitrial`), and repair covers
//! the rest.

use crate::acd::compute_acd;
use crate::config::ParamProfile;
use crate::dense::color_dense;
use crate::driver::{Driver, EngineMode};
use crate::palette::Palette;
use crate::passes::CodecSetupPass;
use crate::shattering::cleanup;
use crate::sparse::color_sparse;
use crate::state::NodeState;
use crate::wire::ColorCodec;
use congest::{PassLog, SimConfig, SimError};
use graphs::palette::ListAssignment;
use graphs::{Color, Graph, NodeId};
use prand::mix::mix2;
use std::collections::BTreeMap;

/// Options for [`solve`].
///
/// `PartialEq` compares every field — two equal options (plus equal
/// graph and lists) fully determine the [`SolveResult`], which is what
/// lets the serving layer ([`crate::server`]) memoize responses. That
/// includes asynchronous execution: [`SimConfig::sched`] is part of
/// `sim` and thus of the memo key, and since the α-synchronizer keeps
/// transcripts byte-identical to the synchronous engine, a memo hit
/// across schedule plans would *also* be sound for the coloring — but
/// plans still key separately because the response carries the plan's
/// own synchronizer overhead counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveOptions {
    /// Constant profile (laptop by default); its
    /// [`ParamProfile::uniform`] selects §5's advice-free MultiTrial and
    /// ACD.
    pub profile: ParamProfile,
    /// Master seed (drives all node randomness and shared hash families).
    pub seed: u64,
    /// Engine configuration (bandwidth policy, thread count, round cap,
    /// fault plan, schedule adversary).
    pub sim: SimConfig,
    /// Engine for the solve's passes: one persistent
    /// [`congest::Session`] by default; [`EngineMode::Reference`]
    /// produces byte-identical results and exists for differential
    /// testing.
    pub engine: EngineMode,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            profile: ParamProfile::laptop(),
            seed: 0xc010_41f0,
            sim: SimConfig::default(),
            engine: EngineMode::Session,
        }
    }
}

impl SolveOptions {
    /// Default options with the given seed.
    pub fn seeded(seed: u64) -> Self {
        SolveOptions {
            seed,
            ..Default::default()
        }
    }
}

/// Outcome statistics of one solve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// How many nodes each pass colored, by pass name.
    pub colored_by: BTreeMap<&'static str, usize>,
    /// Nodes the distributed pipeline failed to color (fixed centrally).
    pub repairs: usize,
    /// Degree-range phases that actually ran.
    pub phases: usize,
    /// Fault-induced conflicts the pre-repair sweep had to break: edges
    /// whose endpoints adopted equal colors because an active
    /// [`congest::FaultPlan`] lost or delayed the messages the
    /// conflict-freedom argument relies on. Always `0` under
    /// `FaultPlan::none()` — the distributed adoptions are then
    /// conflict-free by construction.
    pub fault_conflicts: usize,
    /// Colored nodes the quarantine sweep stripped because they crashed
    /// at some point of the solve (crash-stop or recovered alike): a node
    /// that was down mid-decision may hold a color it never defended, so
    /// its adoption is forfeited and the `finish` central repair recolors
    /// it against the final neighborhood. Always `0` without crash fates.
    pub quarantined: usize,
}

/// Result of [`solve`]: a proper coloring plus metrics.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// One color per node, proper with respect to the lists.
    pub coloring: Vec<Color>,
    /// Per-pass round/bit metrics.
    pub log: PassLog,
    /// Outcome statistics.
    pub stats: Stats,
}

impl SolveResult {
    /// Total CONGEST rounds across all passes.
    pub fn rounds(&self) -> u64 {
        self.log.total_rounds()
    }

    /// Bandwidth-normalized rounds at the given per-edge bandwidth.
    pub fn normalized_rounds(&self, bandwidth: u64) -> u64 {
        self.log.normalized_rounds(bandwidth)
    }

    /// Round totals per pipeline phase (`setup`, `range-1`, …, `fallback`,
    /// `cleanup`), in execution order — the attribution the scenario
    /// sweeps report.
    pub fn phase_breakdown(&self) -> Vec<(String, u64)> {
        self.log.phase_breakdown()
    }
}

/// Build fresh node states from a list assignment (building block for
/// custom drivers and benches).
pub fn initial_states(
    g: &Graph,
    lists: &ListAssignment,
    profile: &ParamProfile,
    seed: u64,
) -> Vec<NodeState> {
    (0..g.n())
        .map(|v| {
            let d = g.degree(v as NodeId);
            let codec = ColorCodec::new(profile, mix2(seed, 0xc0dec), g.n(), lists.color_bits(), d);
            NodeState::new(
                v as NodeId,
                Palette::new(lists.list(v as NodeId).to_vec()),
                codec,
                d,
            )
        })
        .collect()
}

/// First color of `v`'s list unused by any colored neighbor, resolved
/// through the caller's reusable sorted scratch — the one first-free
/// rule shared by the central repair sweep and the greedy oracle
/// ([`crate::baseline::greedy_oracle`]).
pub(crate) fn first_free_color(
    g: &Graph,
    lists: &ListAssignment,
    coloring: &[Option<Color>],
    v: usize,
    taken: &mut Vec<Color>,
) -> Option<Color> {
    taken.clear();
    taken.extend(
        g.neighbors(v as NodeId)
            .iter()
            .filter_map(|&u| coloring[u as usize]),
    );
    taken.sort_unstable();
    lists
        .list(v as NodeId)
        .iter()
        .copied()
        .find(|c| taken.binary_search(c).is_err())
}

/// Break fault-induced conflicts before the central repair sweep: for
/// every edge whose endpoints hold the same color, uncolor one endpoint
/// so [`finish`]'s first-free repair can recolor it properly.
///
/// Under [`congest::FaultPlan::none()`] this never fires — the
/// distributed adoptions are conflict-free by construction. Under an
/// active plan a dropped or delayed decline can let both endpoints keep
/// a contested color; detection here is what makes the pipeline degrade
/// gracefully (wrong answers become repairs, never silent invalidity).
///
/// The victim is the *starved* endpoint when exactly one endpoint was
/// perturbed by the faulty network (`starved` is the sorted
/// [`congest::PassLog::starved_union`]) — it made its decision on
/// incomplete information, so its neighbor's adoption is the trustworthy
/// one. Ties break to the higher id. One sweep suffices: colors only
/// ever *disappear* during the sweep, so no new conflict can appear
/// behind it.
///
/// **Quarantine** runs first: every node in `crashed` (the sorted
/// [`congest::PassLog::crashed_union`]) forfeits its color outright — a
/// node that was down at any point may hold a color it adopted before
/// crashing and never defended against later contenders, and a recovered
/// node may have re-entered mid-protocol with stale state. Stripping them
/// *before* the conflict sweep keeps the sweep's one-pass argument intact
/// (colors still only disappear), and [`finish`]'s first-free repair —
/// always possible on (deg+1)-lists — recolors them against the final
/// neighborhood, so `check_coloring` holds at any crash rate ≤ 1.0.
/// Returns `(fault_conflicts, quarantined)`.
pub(crate) fn resolve_fault_conflicts(
    g: &Graph,
    states: &mut [NodeState],
    starved: &[NodeId],
    crashed: &[NodeId],
) -> (usize, usize) {
    let mut quarantined = 0usize;
    for &v in crashed {
        let st = &mut states[v as usize];
        if st.color.is_some() {
            st.color = None;
            st.colored_by = None;
            quarantined += 1;
        }
    }
    let mut conflicts = 0usize;
    for v in 0..g.n() {
        let Some(cv) = states[v].color else { continue };
        for &u in g.neighbors(v as NodeId) {
            let u = u as usize;
            // Visit each undirected edge once, from its lower endpoint.
            if u <= v || states[u].color != Some(cv) {
                continue;
            }
            let starved_v = starved.binary_search(&(v as NodeId)).is_ok();
            let starved_u = starved.binary_search(&(u as NodeId)).is_ok();
            let victim = match (starved_v, starved_u) {
                (true, false) => v,
                _ => u,
            };
            states[victim].color = None;
            states[victim].colored_by = None;
            conflicts += 1;
            if victim == v {
                break; // v is uncolored; its remaining edges can't conflict
            }
        }
    }
    (conflicts, quarantined)
}

/// Finish a solve: repair stragglers centrally, assemble the coloring and
/// stats, and verify validity.
pub(crate) fn finish(
    g: &Graph,
    lists: &ListAssignment,
    states: Vec<NodeState>,
    log: PassLog,
    phases: usize,
    fault_conflicts: usize,
    quarantined: usize,
) -> SolveResult {
    let mut coloring: Vec<Option<Color>> = states.iter().map(|s| s.color).collect();
    let mut stats = Stats {
        phases,
        fault_conflicts,
        quarantined,
        ..Default::default()
    };
    for st in &states {
        if let Some(name) = st.colored_by {
            *stats.colored_by.entry(name).or_insert(0) += 1;
        }
    }
    // Central repair: pick any list color unused by neighbors. Possible
    // because |list(v)| ≥ d_v + 1. One sorted scratch reused across
    // nodes — no per-node hash-set build.
    let mut taken: Vec<Color> = Vec::new();
    for v in 0..g.n() {
        if coloring[v].is_none() {
            let c = first_free_color(g, lists, &coloring, v, &mut taken)
                .expect("a (deg+1)-list always has a free color");
            coloring[v] = Some(c);
            stats.repairs += 1;
        }
    }
    let coloring: Vec<Color> = coloring
        .into_iter()
        .map(|c| c.expect("filled above"))
        .collect();
    debug_assert_eq!(graphs::palette::check_coloring(g, lists, &coloring), Ok(()));
    SolveResult {
        coloring,
        log,
        stats,
    }
}

/// Solve the (degree+1)-list-coloring problem on `g` with `lists`.
///
/// # Errors
///
/// Propagates engine errors: strict-bandwidth violations, or a
/// [`SimError::FaultInjected`] abort when `opts.sim.fault` carries an
/// active [`congest::FaultPlan`] with a nonzero abort rate.
///
/// # Panics
///
/// Panics if `lists` is not a valid (degree+1)-list assignment for `g`.
///
/// # Example
///
/// ```
/// use d1lc::{solve, SolveOptions};
///
/// let g = graphs::gen::gnp(120, 0.1, 7);
/// let lists = graphs::palette::degree_plus_one_lists(&g);
/// let result = solve(&g, &lists, SolveOptions::seeded(1)).unwrap();
/// assert_eq!(graphs::palette::check_coloring(&g, &lists, &result.coloring), Ok(()));
/// ```
pub fn solve(
    g: &Graph,
    lists: &ListAssignment,
    opts: SolveOptions,
) -> Result<SolveResult, SimError> {
    assert!(
        lists.is_degree_plus_one(g),
        "lists must give every node ≥ deg+1 colors"
    );
    let sim = SimConfig {
        seed: opts.seed,
        ..opts.sim
    };
    let mut driver = Driver::with_engine(g, sim, opts.engine);
    solve_on(&mut driver, g, lists, &opts)
}

/// Run the full pipeline on a caller-provided [`Driver`] — the engine
/// (and therefore any pooled session behind it) is the caller's to own
/// and recycle. `driver.log` is consumed into the result. This is how
/// the [`crate::server`] workers run solves on reused sessions; results
/// are byte-identical to [`solve`] with the same options.
///
/// # Errors
///
/// As [`solve`]. On error the driver (and its session) remains valid.
pub(crate) fn solve_on(
    driver: &mut Driver<'_>,
    g: &Graph,
    lists: &ListAssignment,
    opts: &SolveOptions,
) -> Result<SolveResult, SimError> {
    let profile = opts.profile;
    let mut states = initial_states(g, lists, &profile, opts.seed);

    // One-time codec setup (App. D.3 hash indices).
    driver.begin_phase("setup");
    states = driver.run_pass("codec-setup", states, CodecSetupPass::new)?;

    // Degree-range phases (Alg. 7).
    let delta = g.max_degree();
    let ladder = profile.degree_ladder(delta);
    let floor = profile.degree_threshold_floor;
    let mut phases = 0usize;
    for (i, &hi) in ladder.iter().enumerate() {
        let lo = ladder.get(i + 1).copied().unwrap_or(floor);
        if lo >= hi {
            continue;
        }
        let in_range = |st: &NodeState| {
            let d = g.degree(st.id);
            d > lo && d <= hi && st.uncolored()
        };
        if !states.iter().any(in_range) {
            continue;
        }
        phases += 1;
        driver.begin_phase(format!("range-{phases}"));
        for st in &mut states {
            st.reset_phase();
        }
        states = driver.activate(states, in_range)?;
        let phase_seed = mix2(opts.seed, phases as u64);
        states = compute_acd(driver, states, &profile, phase_seed)?;
        states = color_sparse(driver, states, &profile, phase_seed)?;
        states = color_dense(driver, states, &profile, phase_seed, hi)?;
    }

    // Low-degree fallback: repeated random color trials.
    driver.begin_phase("fallback");
    states = driver.activate(states, |st| st.uncolored())?;
    // Re-activating between trials is unnecessary: TryColor reads activity
    // flags that only shrink, and adopted nodes self-deactivate.
    for _ in 0..profile.fallback_trials {
        if Driver::uncolored_count(&states) == 0 {
            break;
        }
        states = driver.try_color(states, "fallback")?;
    }

    // Deterministic cleanup of the shattered leftovers.
    if Driver::uncolored_count(&states) > 0 {
        driver.begin_phase("cleanup");
        states = cleanup(driver, states)?;
    }

    // Under an active fault plan, lost/late messages can break the
    // conflict-freedom of distributed adoptions, and a crashed node may
    // hold a color it never defended; quarantine-and-detect-and-repair
    // turns both into honest repairs instead of an invalid coloring.
    let (fault_conflicts, quarantined) = if opts.sim.fault.is_active() {
        resolve_fault_conflicts(
            g,
            &mut states,
            &driver.log.starved_union(),
            &driver.log.crashed_union(),
        )
    } else {
        (0, 0)
    };

    Ok(finish(
        g,
        lists,
        states,
        std::mem::take(&mut driver.log),
        phases,
        fault_conflicts,
        quarantined,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;
    use graphs::palette::{
        check_coloring, degree_plus_one_lists, delta_plus_one_lists, random_lists,
        shared_window_lists,
    };

    fn assert_solves(g: &Graph, lists: &ListAssignment, seed: u64) -> SolveResult {
        let result = solve(g, lists, SolveOptions::seeded(seed)).unwrap();
        assert_eq!(check_coloring(g, lists, &result.coloring), Ok(()));
        result
    }

    #[test]
    fn colors_gnp_with_d1c_lists() {
        let g = gen::gnp(200, 0.06, 3);
        let lists = degree_plus_one_lists(&g);
        let r = assert_solves(&g, &lists, 7);
        assert!(r.rounds() > 0);
    }

    #[test]
    fn colors_clique_blend_with_random_lists() {
        let (g, _) = gen::planted_acd(3, 28, 0.04, 80, 0.05, 5);
        let lists = random_lists(&g, 48, 0, 9);
        let r = assert_solves(&g, &lists, 11);
        // The dense machinery must be exercised.
        assert!(r.stats.phases >= 1, "no phase ran");
    }

    #[test]
    fn colors_structured_graphs() {
        for (g, seed) in [
            (gen::cycle(40), 1u64),
            (gen::star(30), 2),
            (gen::complete(40), 3),
            (gen::grid(8, 9), 4),
            (gen::complete_bipartite(15, 20), 5),
        ] {
            let lists = degree_plus_one_lists(&g);
            assert_solves(&g, &lists, seed);
        }
    }

    #[test]
    fn colors_with_delta_plus_one_lists() {
        let g = gen::gnp(100, 0.15, 8);
        let lists = delta_plus_one_lists(&g);
        assert_solves(&g, &lists, 13);
    }

    #[test]
    fn colors_with_shared_window_lists() {
        let g = gen::gnp(80, 0.2, 2);
        let lists = shared_window_lists(&g, g.max_degree() as u64 + 8, 4);
        assert_solves(&g, &lists, 17);
    }

    #[test]
    fn colors_large_color_space() {
        let g = gen::gnp(60, 0.15, 6);
        let lists = random_lists(&g, 60, 2, 3);
        // With 60-bit colors every node's codec must hash colors on the
        // wire, so the solve below runs the per-receiver branch of
        // `announce_color` (raw colors are broadcast instead).
        let opts = SolveOptions::seeded(19);
        let states = initial_states(&g, &lists, &opts.profile, opts.seed);
        assert!(
            states.iter().all(|st| st.codec.hashed()),
            "60-bit colors ride raw"
        );
        assert_solves(&g, &lists, 19);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        for n in [0usize, 1, 2, 3] {
            let g = gen::path(n);
            let lists = degree_plus_one_lists(&g);
            assert_solves(&g, &lists, n as u64);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::gnp(80, 0.1, 4);
        let lists = degree_plus_one_lists(&g);
        let a = solve(&g, &lists, SolveOptions::seeded(21)).unwrap();
        let b = solve(&g, &lists, SolveOptions::seeded(21)).unwrap();
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.rounds(), b.rounds());
    }

    #[test]
    fn repairs_are_rare() {
        let g = gen::gnp(150, 0.08, 9);
        let lists = degree_plus_one_lists(&g);
        let r = assert_solves(&g, &lists, 23);
        assert_eq!(
            r.stats.repairs, 0,
            "distributed pipeline needed central repair"
        );
    }

    #[test]
    fn uniform_acd_pipeline_solves_end_to_end() {
        let (g, _) = gen::planted_acd(3, 24, 0.05, 60, 0.05, 6);
        let lists = random_lists(&g, 48, 0, 4);
        let opts = SolveOptions {
            profile: ParamProfile {
                uniform: true,
                ..ParamProfile::laptop()
            },
            ..SolveOptions::seeded(7)
        };
        let r = solve(&g, &lists, opts).expect("uniform solve");
        assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
        assert!(r.stats.phases >= 1);
    }

    #[test]
    fn phase_breakdown_attributes_all_rounds() {
        let g = gen::gnp(160, 0.4, 5);
        let lists = degree_plus_one_lists(&g);
        let r = assert_solves(&g, &lists, 31);
        let phases = r.phase_breakdown();
        // Every recorded round lands in exactly one phase bucket.
        assert_eq!(phases.iter().map(|(_, x)| x).sum::<u64>(), r.rounds());
        assert_eq!(phases[0].0, "setup");
        assert!(
            phases.iter().any(|(name, _)| name.starts_with("range-")),
            "a degree-range phase must have run: {phases:?}"
        );
        // No pass escaped attribution (the empty label never appears).
        assert!(phases.iter().all(|(name, _)| !name.is_empty()));
    }

    #[test]
    fn high_degree_graphs_use_phases() {
        // Δ must exceed the ladder floor for a phase to run.
        let g = gen::gnp(160, 0.4, 5);
        let lists = degree_plus_one_lists(&g);
        let r = assert_solves(&g, &lists, 29);
        assert!(r.stats.phases >= 1);
        assert!(
            r.stats.colored_by.len() > 1,
            "expected multiple passes to color"
        );
    }
}
