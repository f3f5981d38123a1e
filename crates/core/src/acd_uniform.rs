//! Uniform almost-clique decomposition: §4.2's `ComputeACD` with the
//! explicit `ε-Buddy` of Algorithm 6 (§5.2) run distributedly on every
//! edge, replacing representative hash functions with pairwise hashing,
//! averaging samplers and the identifier error-correcting code.
//!
//! The pass is round plumbing around [`crate::buddy_uniform`]'s per-edge
//! steps (5 rounds, all edges in parallel):
//!
//! 0. active nodes broadcast their active degree;
//! 1. on each balanced edge the lower-id endpoint chooses and sends
//!    `(hash index, multiset seed)` — Alg. 6 lines 1–3 — with its own
//!    active degree, so the receiver derives the chooser's λ even when
//!    the round-0 broadcast was lost;
//! 2. both endpoints rebuild the hash and multiset and exchange their
//!    σ-bit unique-preimage marks (lines 4–8);
//! 3. endpoints that pass the common-marks test (line 9, in the relative
//!    form of DESIGN.md §12.6) exchange the sampled bits of their coded
//!    common preimages (lines 10–15);
//! 4. verdicts are computed symmetrically (line 16; both sides see the
//!    same data), classification runs locally, and the shared ACD tail
//!    (clique formation + Def. 6 verification) finishes the decomposition.

use crate::acd::{classify, finish_acd};
use crate::buddy_uniform::{edge_seed, BuddyEdge};
use crate::config::ParamProfile;
use crate::driver::Driver;
use crate::state::NodeState;
use crate::wire::{tags, Wire};
use congest::message::bits_for_range;
use congest::{Ctx, Program, SimError, Words};
use prand::mix::mix2;
use std::sync::Arc;

/// One endpoint's progress through Alg. 6 on one edge.
#[derive(Clone, Debug)]
struct EdgeScratch {
    edge: BuddyEdge,
    /// The chooser's `(hash index, multiset seed)`.
    choice: (u64, u64),
    /// This side's unique-preimage picks (sent as marks in round 2).
    picks: Vec<Option<u64>>,
    /// The other side's σ-bit mark vector, once it arrived.
    their_marks: Option<Words>,
    /// This side's sampled code bits and their count σ′, once line 9
    /// passed (sent in round 3).
    code: Option<(Words, u64)>,
}

impl EdgeScratch {
    fn new(edge: BuddyEdge, choice: (u64, u64)) -> Self {
        EdgeScratch {
            edge,
            choice,
            picks: Vec::new(),
            their_marks: None,
            code: None,
        }
    }
}

/// The distributed uniform ε-Buddy pass (5 rounds). Produces a per-edge
/// buddy mask identical on both endpoints.
#[derive(Debug)]
pub struct UniformBuddyPass<'s> {
    st: &'s mut NodeState,
    profile: &'s ParamProfile,
    seed: u64,
    degree_bits: u32,
    neighbor_adeg: Vec<u32>,
    edges: Vec<Option<EdgeScratch>>,
    /// Output: per-neighbor buddy verdicts.
    buddy: Vec<bool>,
    done: bool,
}

impl<'s> UniformBuddyPass<'s> {
    /// Run over a node's state; all nodes share `profile` and `seed`.
    pub fn new(st: &'s mut NodeState, profile: &'s ParamProfile, seed: u64, n: usize) -> Self {
        let degree = st.neighbor_active.len();
        UniformBuddyPass {
            st,
            profile,
            seed,
            degree_bits: bits_for_range(n as u64) as u32,
            neighbor_adeg: vec![0; degree],
            edges: vec![None; degree],
            buddy: vec![false; degree],
            done: false,
        }
    }

    fn active_degree(&self) -> usize {
        self.st.neighbor_active.iter().filter(|&&a| a).count()
    }

    fn active_set(&self, ctx: &Ctx<'_, Wire>) -> Vec<u64> {
        ctx.neighbors()
            .iter()
            .enumerate()
            .filter(|&(pos, _)| self.st.neighbor_active[pos])
            .map(|(_, &w)| u64::from(w))
            .collect()
    }
}

impl Program for UniformBuddyPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.done {
            return;
        }
        if !self.st.active {
            self.done = ctx.round() >= 4;
            return;
        }
        match ctx.round() {
            0 => {
                ctx.broadcast(Wire::Uint {
                    tag: tags::DEGREE,
                    value: self.active_degree() as u64,
                    bits: self.degree_bits,
                });
            }
            1 => {
                for (from, msg) in ctx.inbox() {
                    if let Wire::Uint {
                        tag: tags::DEGREE,
                        value,
                        ..
                    } = msg
                    {
                        let pos = ctx.neighbor_index(from).expect("degree from non-neighbor");
                        self.neighbor_adeg[pos] = *value as u32;
                    }
                }
                // Lower-id endpoint chooses per balanced active edge.
                let me = ctx.id();
                let my_deg = self.active_degree();
                let own = self.active_set(ctx);
                for pos in 0..ctx.neighbors().len() {
                    let nb = ctx.neighbors()[pos];
                    let their = self.neighbor_adeg[pos] as usize;
                    if !self.st.neighbor_active[pos]
                        || me >= nb
                        || !BuddyEdge::balanced(self.profile, my_deg, their)
                    {
                        continue;
                    }
                    let edge = BuddyEdge::new(self.profile, self.seed, my_deg, their);
                    let choice = edge.choose(&own, ctx.rng());
                    self.edges[pos] = Some(EdgeScratch::new(edge, choice));
                    // The degree is at most n: declared at the wider of
                    // its width and the choice's.
                    ctx.send(
                        nb,
                        Wire::UintList {
                            tag: tags::AGG_UP,
                            values: vec![choice.0, choice.1, my_deg as u64],
                            bits_each: edge.choice_bits().max(self.degree_bits),
                        },
                    );
                }
            }
            2 => {
                let my_deg = self.active_degree();
                for (from, msg) in ctx.inbox() {
                    if let Wire::UintList {
                        tag: tags::AGG_UP,
                        values,
                        ..
                    } = msg
                    {
                        if let [hash_index, set_seed, their] = values[..] {
                            let pos = ctx.neighbor_index(from).expect("setup from non-neighbor");
                            self.neighbor_adeg[pos] = their as u32;
                            let edge =
                                BuddyEdge::new(self.profile, self.seed, my_deg, their as usize);
                            self.edges[pos] = Some(EdgeScratch::new(edge, (hash_index, set_seed)));
                        }
                    }
                }
                // Compute and exchange mark vectors on every set-up edge,
                // each a range of one buffer, in neighbor order.
                let own = self.active_set(ctx);
                let mut len = 0;
                for scratch in self.edges.iter_mut().flatten() {
                    scratch.picks = scratch.edge.picks(scratch.choice, &own);
                    len += scratch.picks.len().div_ceil(64);
                }
                let mut buf = Words::zeroed(len);
                let out = Arc::get_mut(&mut buf).expect("a fresh buffer");
                let mut at = 0;
                for scratch in self.edges.iter().flatten() {
                    let len = scratch.picks.len().div_ceil(64);
                    BuddyEdge::mark(&scratch.picks, &mut out[at..at + len]);
                    at += len;
                }
                let mut at = 0;
                for (&nb, scratch) in ctx.neighbors().iter().zip(&self.edges) {
                    let Some(scratch) = scratch else { continue };
                    let len = scratch.picks.len().div_ceil(64);
                    ctx.send(
                        nb,
                        Wire::Bitmap {
                            tag: tags::TRIED,
                            words: Words::range(&buf, at..at + len),
                            bits: scratch.picks.len() as u64,
                        },
                    );
                    at += len;
                }
            }
            3 => {
                for (from, msg) in ctx.inbox() {
                    if let Wire::Bitmap {
                        tag: tags::TRIED,
                        words,
                        ..
                    } = msg
                    {
                        let pos = ctx.neighbor_index(from).expect("marks from non-neighbor");
                        if let Some(scratch) = self.edges[pos].as_mut() {
                            scratch.their_marks = Some(words.clone());
                        }
                    }
                }
                // Line 9, then the sampled code bits of the edges that
                // pass it, each a range of one buffer.
                let passed: Vec<(usize, Vec<usize>, u64)> = self
                    .edges
                    .iter()
                    .enumerate()
                    .filter_map(|(pos, scratch)| {
                        let scratch = scratch.as_ref()?;
                        let theirs = scratch.their_marks.as_deref().unwrap_or_default();
                        let common = scratch.edge.common(&scratch.picks, theirs)?;
                        let sigma2 = scratch.edge.code_len(common.len());
                        Some((pos, common, sigma2))
                    })
                    .collect();
                let words = |sigma2: u64| sigma2.div_ceil(64) as usize;
                let mut buf = Words::zeroed(passed.iter().map(|&(.., s)| words(s)).sum());
                let out = Arc::get_mut(&mut buf).expect("a fresh buffer");
                let (me, mut at) = (ctx.id(), 0);
                for (pos, common, sigma2) in &passed {
                    let scratch = self.edges[*pos].as_ref().expect("passed line 9");
                    let seed = edge_seed(self.seed, me, ctx.neighbors()[*pos]);
                    let len = words(*sigma2);
                    let out = &mut out[at..at + len];
                    scratch.edge.code_bits(&scratch.picks, common, seed, out);
                    at += len;
                }
                let mut at = 0;
                for (pos, _, sigma2) in passed {
                    let len = words(sigma2);
                    let code = Words::range(&buf, at..at + len);
                    ctx.send(
                        ctx.neighbors()[pos],
                        Wire::Bitmap {
                            tag: tags::ASSIGN,
                            words: code.clone(),
                            bits: sigma2,
                        },
                    );
                    let scratch = self.edges[pos].as_mut().expect("passed line 9");
                    scratch.code = Some((code, sigma2));
                    at += len;
                }
            }
            _ => {
                for (from, msg) in ctx.inbox() {
                    if let Wire::Bitmap {
                        tag: tags::ASSIGN,
                        words,
                        ..
                    } = msg
                    {
                        let pos = ctx.neighbor_index(from).expect("bits from non-neighbor");
                        if let Some(EdgeScratch {
                            edge,
                            code: Some((mine, sigma2)),
                            ..
                        }) = &self.edges[pos]
                        {
                            self.buddy[pos] = edge.verdict(mine, words, *sigma2);
                        }
                    }
                }
                classify(
                    self.st,
                    &self.buddy,
                    &self.neighbor_adeg,
                    self.profile.eps_acd,
                );
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// The fully uniform `ComputeACD`: Alg. 6 buddy tests on every edge, then
/// the shared clique-formation/verification tail.
///
/// # Errors
///
/// Propagates engine errors.
pub(crate) fn compute_acd_uniform(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
    profile: &ParamProfile,
    seed: u64,
) -> Result<Vec<NodeState>, SimError> {
    let n = driver.graph.n();
    let mut programs: Vec<UniformBuddyPass> = states
        .iter_mut()
        .map(|st| UniformBuddyPass::new(st, profile, seed, n))
        .collect();
    driver.run_seeded("acd-uniform-buddy", mix2(seed, 0xacd3), &mut programs)?;
    let masks = programs.into_iter().map(|p| p.buddy).collect();
    finish_acd(driver, states, masks, profile, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::Palette;
    use crate::state::AcdClass;
    use crate::wire::ColorCodec;
    use congest::{FaultPlan, SimConfig};
    use graphs::{gen, Graph, NodeId};

    fn fresh_active(g: &Graph) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..=(d as u64)).collect();
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(&profile, 1, g.n(), 16, d),
                    d,
                );
                st.active = true;
                st.neighbor_active = vec![true; d];
                st
            })
            .collect()
    }

    #[test]
    fn uniform_acd_recovers_disjoint_cliques() {
        let g = gen::disjoint_cliques(3, 14);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let states = compute_acd_uniform(&mut driver, fresh_active(&g), &profile, 7).unwrap();
        for st in &states {
            assert_eq!(st.class, AcdClass::Dense, "node {} not dense", st.id);
            assert_eq!(st.clique, Some((st.id / 14) * 14), "node {}", st.id);
            assert_eq!(st.clique_size, 14, "node {}", st.id);
        }
    }

    #[test]
    fn uniform_acd_keeps_gnp_non_dense() {
        let g = gen::gnp(100, 0.12, 5);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(4));
        let states = compute_acd_uniform(&mut driver, fresh_active(&g), &profile, 9).unwrap();
        let dense = states.iter().filter(|s| s.class == AcdClass::Dense).count();
        assert!(dense <= g.n() / 20, "{dense}/{} spuriously dense", g.n());
    }

    #[test]
    fn uniform_acd_on_planted_blend() {
        let (g, truth) = gen::planted_acd(3, 18, 0.04, 50, 0.05, 11);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(8));
        let states = compute_acd_uniform(&mut driver, fresh_active(&g), &profile, 13).unwrap();
        let mut dense_right = 0;
        let mut planted = 0;
        let mut bg_dense = 0;
        for (v, t) in truth.iter().enumerate() {
            if t.is_some() {
                planted += 1;
                if states[v].class == AcdClass::Dense {
                    dense_right += 1;
                }
            } else if states[v].class == AcdClass::Dense {
                bg_dense += 1;
            }
        }
        assert!(
            dense_right * 10 >= planted * 7,
            "{dense_right}/{planted} planted members dense"
        );
        assert!(
            bg_dense <= 3,
            "{bg_dense} background nodes spuriously dense"
        );
    }

    #[test]
    fn verdicts_are_symmetric() {
        // Both endpoints of every edge must reach the same buddy verdict
        // (they act on identical data).
        let g = gen::clique_blend(Default::default(), 5);
        let profile = ParamProfile::laptop();
        let mut states = fresh_active(&g);
        let programs: Vec<UniformBuddyPass> = states
            .iter_mut()
            .map(|st| UniformBuddyPass::new(st, &profile, 21, g.n()))
            .collect();
        let (programs, _) = congest::run(&g, programs, SimConfig::seeded(2)).unwrap();
        let masks: Vec<Vec<bool>> = programs.iter().map(|p| p.buddy.clone()).collect();
        for (u, v) in g.edges() {
            let pu = g.neighbors(u).binary_search(&v).unwrap();
            let pv = g.neighbors(v).binary_search(&u).unwrap();
            assert_eq!(
                masks[u as usize][pu], masks[v as usize][pv],
                "asymmetric verdict on ({u},{v})"
            );
        }
    }

    #[test]
    fn two_party_steps_reproduce_the_pass_verdicts() {
        // The pass and `uniform_buddy` run one set of steps: replaying an
        // edge's recorded choice for two parties, with the pass's edge
        // seed, gives the verdict the pass reached on both endpoints.
        let (g, _) = gen::planted_acd(3, 18, 0.04, 50, 0.05, 11);
        let (profile, seed) = (ParamProfile::laptop(), 13);
        let mut states = fresh_active(&g);
        let programs: Vec<UniformBuddyPass> = states
            .iter_mut()
            .map(|st| UniformBuddyPass::new(st, &profile, seed, g.n()))
            .collect();
        let (programs, _) = congest::run(&g, programs, SimConfig::seeded(8)).unwrap();
        let active_set = |v: NodeId| -> Vec<u64> {
            g.neighbors(v)
                .iter()
                .zip(&programs[v as usize].st.neighbor_active)
                .filter(|&(_, &a)| a)
                .map(|(&w, _)| u64::from(w))
                .collect()
        };
        let (mut friends_at_16, mut rejected_at_9) = (0, 0);
        for (u, v) in g.edges() {
            let (lo, hi) = (u.min(v), u.max(v));
            let pos_lo = g.neighbors(lo).binary_search(&hi).unwrap();
            let pos_hi = g.neighbors(hi).binary_search(&lo).unwrap();
            let Some(chosen) = &programs[lo as usize].edges[pos_lo] else {
                continue;
            };
            let received = programs[hi as usize].edges[pos_hi].as_ref();
            assert_eq!(received.map(|s| s.choice), Some(chosen.choice));
            // The lower id chooses: it is the two-party run's `v`.
            let (n_lo, n_hi) = (active_set(lo), active_set(hi));
            let out = BuddyEdge::new(&profile, seed, n_lo.len(), n_hi.len()).decide(
                &n_hi,
                &n_lo,
                chosen.choice,
                edge_seed(seed, lo, hi),
            );
            for (w, pos) in [(lo, pos_lo), (hi, pos_hi)] {
                assert_eq!(
                    out.friends, programs[w as usize].buddy[pos],
                    "edge ({lo},{hi}) at node {w}"
                );
            }
            match (out.decided_at, out.friends) {
                (16, true) => friends_at_16 += 1,
                (9, _) => rejected_at_9 += 1,
                _ => {}
            }
        }
        assert!(friends_at_16 > 0, "no edge reached line 16 as friends");
        assert!(rejected_at_9 > 0, "no edge was rejected at line 9");
    }

    #[test]
    fn lost_degrees_never_split_an_edge() {
        // A receiver whose round-0 DEGREE message was lost still derives
        // the chooser's λ, because the choice carries the chooser's
        // degree: both endpoints of every set-up edge hold equal edge
        // objects and choices, and only a chooser (whose choice was lost)
        // holds an edge alone.
        let (g, _) = gen::planted_acd(3, 24, 0.05, 60, 0.05, 6);
        let profile = ParamProfile::laptop();
        let mut set_up = 0;
        for seed in 11..=16 {
            let mut states = fresh_active(&g);
            let programs: Vec<UniformBuddyPass> = states
                .iter_mut()
                .map(|st| UniformBuddyPass::new(st, &profile, seed, g.n()))
                .collect();
            let cfg = SimConfig {
                fault: FaultPlan::lossy(0.2),
                ..SimConfig::seeded(seed)
            };
            let (programs, _) = congest::run(&g, programs, cfg).unwrap();
            for (u, v) in g.edges() {
                let (lo, hi) = (u.min(v), u.max(v));
                let pos_lo = g.neighbors(lo).binary_search(&hi).unwrap();
                let pos_hi = g.neighbors(hi).binary_search(&lo).unwrap();
                match (
                    &programs[lo as usize].edges[pos_lo],
                    &programs[hi as usize].edges[pos_hi],
                ) {
                    (Some(chosen), Some(received)) => {
                        assert_eq!(
                            (chosen.edge, chosen.choice),
                            (received.edge, received.choice),
                            "edge ({lo},{hi}) split at seed {seed}"
                        );
                        set_up += 1;
                    }
                    (None, Some(_)) => panic!("node {hi} set up ({lo},{hi}) alone at seed {seed}"),
                    _ => {}
                }
            }
        }
        assert!(set_up > 0, "no edge was set up on both sides");
    }

    #[test]
    fn uniform_acd_is_congest_legal() {
        let g = gen::disjoint_cliques(2, 16);
        let profile = ParamProfile::laptop();
        let cap = congest::SimConfig::congest_bits(g.n(), 96);
        let mut driver = Driver::new(
            &g,
            congest::SimConfig {
                bandwidth: congest::Bandwidth::Strict(cap),
                ..SimConfig::seeded(6)
            },
        );
        compute_acd_uniform(&mut driver, fresh_active(&g), &profile, 3)
            .expect("uniform ACD exceeded the bandwidth cap");
    }
}
