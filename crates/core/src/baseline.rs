//! Baselines the paper compares against (§1.1).
//!
//! * [`solve_random_trial`] — the classical `O(log n)`-round randomized
//!   D1LC algorithm of [Joh99, ABI86, Lub86]: every round each uncolored
//!   node tries one uniform palette color; conflicts drop symmetrically.
//!   Already CONGEST-legal (one color per edge per round).
//! * [`solve_naive_multitrial`] — the LOCAL-style `MultiTrial`: a node
//!   ships `x` **raw colors** to every neighbor each round
//!   (`x·log|C|` bits/edge/round). This is the bandwidth hog the paper's
//!   representative-hash MultiTrial replaces; run it in tracking mode and
//!   compare [`congest::RunReport::normalized_rounds`] (experiment E11).
//! * [`greedy_oracle`] — a sequential (non-distributed) greedy coloring,
//!   used as a validity reference.

use crate::driver::Driver;
use crate::passes::{announce_adoption, digest_adoption, CodecSetupPass};
use crate::pipeline::{finish, initial_states, SolveOptions, SolveResult};
use crate::shattering::cleanup;
use crate::state::NodeState;
use crate::wire::{tags, Wire};
use congest::{Ctx, Program, SimConfig, SimError};
use graphs::palette::ListAssignment;
use graphs::{Color, Graph};
use rand::seq::SliceRandom;

/// The Johansson/Luby-style baseline: repeated single random color trials.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if `lists` is not a (degree+1)-list assignment.
pub fn solve_random_trial(
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
    let mut states = initial_states(g, lists, &opts.profile, opts.seed);
    driver.begin_phase("setup");
    states = driver.run_pass("codec-setup", states, CodecSetupPass::new)?;
    driver.begin_phase("trials");
    states = driver.activate(states, |_| true)?;
    let cap = 40 + 12 * (64 - (g.n().max(2) as u64).leading_zeros());
    for _ in 0..cap {
        if Driver::uncolored_count(&states) == 0 {
            break;
        }
        states = driver.try_color(states, "random-trial")?;
    }
    if Driver::uncolored_count(&states) > 0 {
        driver.begin_phase("cleanup");
        states = cleanup(&mut driver, states)?;
    }
    Ok(finish(g, lists, states, driver.log, 0, 0, 0))
}

/// One LOCAL-style multi-trial round: `x` raw colors per edge.
#[derive(Debug)]
pub struct NaiveMultiTrialPass<'s> {
    st: &'s mut NodeState,
    x: u32,
    color_bits: u32,
    tried: Vec<Color>,
    done: bool,
}

impl<'s> NaiveMultiTrialPass<'s> {
    /// Try `x` raw colors this round; each costs the declared
    /// `color_bits` on the wire.
    pub fn new(st: &'s mut NodeState, x: u32, color_bits: u32) -> Self {
        NaiveMultiTrialPass {
            st,
            x,
            color_bits,
            tried: Vec::new(),
            done: false,
        }
    }
}

impl Program for NaiveMultiTrialPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.done {
            return;
        }
        match ctx.round() {
            0 => {
                if self.st.active && self.st.uncolored() && !self.st.palette.is_empty() {
                    let mut colors = self.st.palette.colors().to_vec();
                    colors.shuffle(ctx.rng());
                    colors.truncate(self.x as usize);
                    self.tried = colors;
                    ctx.broadcast(Wire::UintList {
                        tag: tags::TRIED,
                        values: self.tried.clone(),
                        bits_each: self.color_bits,
                    });
                }
            }
            1 => {
                if !self.tried.is_empty() {
                    // Sorted scratch instead of a per-round hash set:
                    // rival lists are short and only membership-tested.
                    let mut rivals: Vec<Color> = Vec::new();
                    for (_, msg) in ctx.inbox() {
                        if let Wire::UintList {
                            tag: tags::TRIED,
                            values,
                            ..
                        } = msg
                        {
                            rivals.extend(values.iter().copied());
                        }
                    }
                    rivals.sort_unstable();
                    // A color tried by any neighbor is skipped by both
                    // sides — symmetric, hence conflict-free.
                    if let Some(&c) = self.tried.iter().find(|c| rivals.binary_search(c).is_err()) {
                        self.st.adopt(c, "naive-multitrial");
                        announce_adoption(self.st, ctx, c);
                    }
                }
            }
            _ => {
                for &(from, ref msg) in ctx.inbox() {
                    if let Wire::Color {
                        tag: tags::ADOPTED,
                        payload,
                        ..
                    } = msg
                    {
                        let pos = ctx
                            .neighbor_index(from)
                            .expect("adoption from non-neighbor");
                        digest_adoption(self.st, pos, *payload, false);
                    }
                }
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// The LOCAL-style baseline: repeated naive multi-trials of `x` raw colors.
/// Use with [`congest::Bandwidth::Track`] and compare normalized rounds —
/// the point of experiment E11.
///
/// # Errors
///
/// Propagates engine errors (it *will* error under a strict `O(log n)`
/// bandwidth policy when `x·color_bits` exceeds the cap — that failure is
/// the paper's motivation).
///
/// # Panics
///
/// Panics if `lists` is not a (degree+1)-list assignment.
pub fn solve_naive_multitrial(
    g: &Graph,
    lists: &ListAssignment,
    x: u32,
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
    let mut states = initial_states(g, lists, &opts.profile, opts.seed);
    states = driver.run_pass("codec-setup", states, CodecSetupPass::new)?;
    states = driver.activate(states, |_| true)?;
    let cap = 40 + 8 * (64 - (g.n().max(2) as u64).leading_zeros());
    let color_bits = lists.color_bits();
    for _ in 0..cap {
        if Driver::uncolored_count(&states) == 0 {
            break;
        }
        driver.run_in_place("naive-multitrial", &mut states, |st| {
            NaiveMultiTrialPass::new(st, x, color_bits)
        })?;
    }
    if Driver::uncolored_count(&states) > 0 {
        states = cleanup(&mut driver, states)?;
    }
    Ok(finish(g, lists, states, driver.log, 0, 0, 0))
}

/// Sequential greedy list coloring (oracle reference, not distributed).
///
/// # Panics
///
/// Panics if `lists` is not a (degree+1)-list assignment.
pub fn greedy_oracle(g: &Graph, lists: &ListAssignment) -> Vec<Color> {
    assert!(
        lists.is_degree_plus_one(g),
        "lists must give every node ≥ deg+1 colors"
    );
    let mut coloring: Vec<Option<Color>> = vec![None; g.n()];
    // One sorted scratch reused across all nodes — the per-node hash-set
    // rebuild used to dominate this oracle on large graphs. The
    // first-free rule itself is shared with the pipeline's repair sweep.
    let mut taken: Vec<Color> = Vec::new();
    for v in 0..g.n() {
        let c = crate::pipeline::first_free_color(g, lists, &coloring, v, &mut taken)
            .expect("greedy on (deg+1)-lists cannot fail");
        coloring[v] = Some(c);
    }
    coloring
        .into_iter()
        .map(|c| c.expect("assigned above"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;
    use graphs::palette::{check_coloring, degree_plus_one_lists, random_lists};

    #[test]
    fn random_trial_baseline_solves() {
        let g = gen::gnp(120, 0.08, 2);
        let lists = degree_plus_one_lists(&g);
        let r = solve_random_trial(&g, &lists, SolveOptions::seeded(3)).unwrap();
        assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
        assert_eq!(r.stats.repairs, 0);
    }

    #[test]
    fn naive_multitrial_solves_but_floods() {
        let g = gen::gnp(80, 0.1, 4);
        let lists = random_lists(&g, 48, 0, 7);
        let x = 8;
        let r = solve_naive_multitrial(&g, &lists, x, SolveOptions::seeded(5)).unwrap();
        assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
        // The bandwidth bill: some round carried ≥ x·48 bits on one edge.
        assert!(
            r.log.max_edge_bits() >= u64::from(x) * 48,
            "max edge bits {} too low",
            r.log.max_edge_bits()
        );
    }

    #[test]
    fn naive_multitrial_violates_strict_congest() {
        let g = gen::gnp(60, 0.15, 1);
        let lists = random_lists(&g, 48, 0, 9);
        let opts = SolveOptions {
            sim: SimConfig {
                bandwidth: congest::Bandwidth::Strict(congest::SimConfig::congest_bits(60, 16)),
                ..SimConfig::default()
            },
            ..SolveOptions::seeded(7)
        };
        let result = solve_naive_multitrial(&g, &lists, 16, opts);
        assert!(
            result.is_err(),
            "16 raw 48-bit colors should blow a 96-bit cap"
        );
    }

    #[test]
    fn greedy_oracle_is_proper() {
        let g = gen::gnp(100, 0.12, 6);
        let lists = degree_plus_one_lists(&g);
        let coloring = greedy_oracle(&g, &lists);
        assert_eq!(check_coloring(&g, &lists, &coloring), Ok(()));
    }
}
