//! Leader selection and slackability estimation — Appendix D.1.
//!
//! Each almost-clique elects as leader the member minimizing the aggregate
//! `e_v + a_v + κ_v` (external degree + anti-degree + chromatic slack),
//! which Lemma 12 shows is a good-enough stand-in for the true
//! minimum-slackability node. The clique then estimates its slackability
//! as `e_x + ζ̂_x + κ_x` (Lemma 16), where `ζ̂_x` counts the edges inside
//! the leader's in-clique neighborhood via one counting round, and
//! classifies itself low- or high-slack against the threshold
//! `ℓ = log^{2.1} Δ` (laptop-scaled in the default profile).
//!
//! Inliers are selected by threshold rather than the paper's exact rank
//! rules (`max(d_x,|C|)/3` fewest common neighbors, `|C|/6` largest
//! degrees): a member is an inlier iff it is adjacent to the leader,
//! shares at least `(1−2ε)` of the clique with the leader's neighborhood,
//! and has degree at most `(1+2ε)|C|`. On ACD-valid cliques both rules
//! keep Ω(|C|) members; thresholds avoid distributed sorting (deviation
//! recorded in DESIGN.md §12.4).
//!
//! Since the aggregate uses `κ_v`, this runs **after** `GenerateSlack`
//! (the paper's Alg. 9 lists leader selection first because its LOCAL
//! original needs no κ; the CONGEST replacement of App. D.1 is
//! κ-dependent).

use crate::clique_comm::{pack_argmin, unpack_argmin_id, AggOp, CliqueAggregatePass};
use crate::config::ParamProfile;
use crate::driver::Driver;
use crate::state::{AcdClass, NodeState};
use crate::wire::{tags, Wire};
use congest::{Ctx, Program, SimError};
use graphs::NodeId;

/// The leader-selection score `e_v + a_v + κ_v` (Lemma 12).
pub fn leader_score(st: &NodeState) -> u64 {
    let av = u64::from(st.clique_size.saturating_sub(1).saturating_sub(st.nc));
    u64::from(st.ext) + av + u64::from(st.chroma_slack)
}

/// Adjacency/slackability pass run once leaders are known (5 rounds).
#[derive(Debug)]
struct LeaderInfoPass<'s> {
    st: &'s mut NodeState,
    profile: &'s ParamProfile,
    ell: u64,
    /// Same-clique neighbors adjacent to the leader (≈ |N(v) ∩ N_C(x)|).
    common: u32,
    low_slack: Option<bool>,
    done: bool,
}

impl<'s> LeaderInfoPass<'s> {
    fn new(st: &'s mut NodeState, profile: &'s ParamProfile, ell: u64) -> Self {
        LeaderInfoPass {
            st,
            profile,
            ell,
            common: 0,
            low_slack: None,
            done: false,
        }
    }

    fn member(&self) -> bool {
        self.st.class == AcdClass::Dense && self.st.leader.is_some()
    }

    fn am_leader(&self) -> bool {
        self.member() && self.st.leader == Some(self.st.id)
    }

    fn clique_positions(&self) -> Vec<usize> {
        self.st
            .neighbor_clique
            .iter()
            .enumerate()
            .filter(|&(_, c)| self.st.clique.is_some() && *c == self.st.clique)
            .map(|(i, _)| i)
            .collect()
    }
}

impl Program for LeaderInfoPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.done {
            return;
        }
        if !self.member() {
            self.done = ctx.round() >= 4;
            return;
        }
        let leader = self.st.leader.expect("member() checked");
        match ctx.round() {
            0 => {
                // The leader itself reports false: members count
                // |N(v) ∩ N_C(x)| excluding x, so Σ = 2·m(N_C(x)).
                self.st.leader_adjacent =
                    !self.am_leader() && ctx.neighbors().binary_search(&leader).is_ok();
                ctx.broadcast(Wire::Flag {
                    tag: tags::HUB_ADJ,
                    on: self.st.leader_adjacent,
                });
            }
            1 => {
                let mut common = 0u32;
                for (from, msg) in ctx.inbox() {
                    if let Wire::Flag {
                        tag: tags::HUB_ADJ,
                        on: true,
                    } = msg
                    {
                        let pos = ctx.neighbor_index(from).expect("flag from non-neighbor");
                        if self.st.neighbor_clique[pos] == self.st.clique {
                            common += 1;
                        }
                    }
                }
                self.common = common;
                if self.st.leader_adjacent {
                    ctx.send(
                        leader,
                        Wire::Uint {
                            tag: tags::AGG_UP,
                            value: u64::from(common),
                            bits: 32,
                        },
                    );
                }
            }
            2 => {
                if self.am_leader() {
                    let two_m: u64 = ctx
                        .inbox()
                        .iter()
                        .filter_map(|(_, msg)| match msg {
                            Wire::Uint {
                                tag: tags::AGG_UP,
                                value,
                                ..
                            } => Some(*value),
                            _ => None,
                        })
                        .sum();
                    let m_hat = (two_m / 2) as f64;
                    let dx = f64::from(self.st.nc + self.st.ext);
                    let zeta = if dx > 0.0 {
                        ((dx * (dx - 1.0) / 2.0 - m_hat) / dx).max(0.0)
                    } else {
                        0.0
                    };
                    let sigma_c = f64::from(self.st.ext) + zeta + f64::from(self.st.chroma_slack);
                    let low = sigma_c <= self.ell as f64;
                    self.low_slack = Some(low);
                    ctx.broadcast(Wire::Flag {
                        tag: tags::AGG_DOWN,
                        on: low,
                    });
                }
            }
            3 => {
                if self.low_slack.is_none() {
                    for (from, msg) in ctx.inbox() {
                        if let Wire::Flag {
                            tag: tags::AGG_DOWN,
                            on,
                        } = msg
                        {
                            if from == leader {
                                self.low_slack = Some(*on);
                            }
                        }
                    }
                }
                // Leader-adjacent members relay the verdict to the
                // distance-2 members.
                if self.st.leader_adjacent {
                    if let Some(low) = self.low_slack {
                        for pos in self.clique_positions() {
                            let to = ctx.neighbors()[pos];
                            ctx.send(
                                to,
                                Wire::Flag {
                                    tag: tags::AGG_DOWN,
                                    on: low,
                                },
                            );
                        }
                    }
                }
            }
            _ => {
                if self.low_slack.is_none() {
                    for (from, msg) in ctx.inbox() {
                        if let Wire::Flag {
                            tag: tags::AGG_DOWN,
                            on,
                        } = msg
                        {
                            let pos = ctx.neighbor_index(from).expect("flag from non-neighbor");
                            if self.st.neighbor_clique[pos] == self.st.clique {
                                self.low_slack = Some(*on);
                                break;
                            }
                        }
                    }
                }
                self.st.low_slack_clique = self.low_slack.unwrap_or(true);
                // Inlier selection by threshold (see module docs).
                let eps = self.profile.eps_acd;
                let c = f64::from(self.st.clique_size.max(1));
                let dv = f64::from(self.st.nc + self.st.ext);
                self.st.is_inlier = !self.am_leader()
                    && self.st.leader_adjacent
                    && f64::from(self.common) >= (1.0 - 2.0 * eps) * (c - 2.0)
                    && dv <= (1.0 + 2.0 * eps) * c;
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    /// A node outside every led clique only finishes, in round 4.
    fn wake_round(&self) -> u64 {
        if self.member() {
            0
        } else {
            4
        }
    }
}

/// Elect leaders (arg-min aggregate of the Lemma 12 score), estimate
/// slackability (Lemma 16), classify cliques low/high-slack and split
/// members into inliers and outliers.
///
/// # Errors
///
/// Propagates engine errors.
pub fn select_leaders(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
    profile: &ParamProfile,
    delta: usize,
) -> Result<Vec<NodeState>, SimError> {
    // Arg-min of the packed (score, id) word across each clique.
    let seed = prand::mix::mix2(driver.config.seed, 0x1ead);
    let mut programs: Vec<CliqueAggregatePass> = states
        .iter_mut()
        .map(|st| {
            let packed = pack_argmin(leader_score(st), st.id);
            CliqueAggregatePass::new(st, AggOp::Min, packed, 64)
        })
        .collect();
    driver.run_seeded("leader-argmin", seed, &mut programs)?;
    let argmins: Vec<Option<u64>> = programs.into_iter().map(|p| p.result).collect();
    for (st, argmin) in states.iter_mut().zip(argmins) {
        if st.class == AcdClass::Dense {
            st.leader = argmin.map(unpack_argmin_id);
        }
    }

    // Slackability estimation + low/high classification + inliers.
    let ell = profile.ell(delta);
    driver.run_in_place("leader-info", &mut states, |st| {
        LeaderInfoPass::new(st, profile, ell)
    })?;
    Ok(states)
}

/// Leaders of each clique, for inspection: `(hub id, leader id)` pairs.
pub fn leaders(states: &[NodeState]) -> Vec<(NodeId, NodeId)> {
    let mut out: Vec<(NodeId, NodeId)> = states
        .iter()
        .filter_map(|st| Some((st.clique?, st.leader?)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acd::compute_acd;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph};

    fn acd_states(g: &Graph, driver: &mut Driver<'_>, profile: &ParamProfile) -> Vec<NodeState> {
        let states = (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..=(d as u64)).collect();
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(profile, 1, g.n(), 16, d),
                    d,
                );
                st.active = true;
                st.neighbor_active = vec![true; d];
                st
            })
            .collect();
        compute_acd(driver, states, profile, 7).unwrap()
    }

    #[test]
    fn disjoint_cliques_elect_one_leader_each() {
        let g = gen::disjoint_cliques(3, 10);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let states = acd_states(&g, &mut driver, &profile);
        let states = select_leaders(&mut driver, states, &profile, g.max_degree()).unwrap();
        let pairs = leaders(&states);
        assert_eq!(pairs.len(), 3, "leaders: {pairs:?}");
        // In a perfect clique every score is 0, so ties break to the
        // minimum id — the hub itself.
        for &(hub, leader) in &pairs {
            assert_eq!(hub, leader);
        }
        // All members agree on their clique's leader and are inliers.
        for st in &states {
            assert!(st.leader.is_some());
            if st.leader != Some(st.id) {
                assert!(st.is_inlier, "node {} not inlier", st.id);
                assert!(st.leader_adjacent);
            }
            // Exact cliques are maximally dense: low slackability.
            assert!(st.low_slack_clique, "node {}", st.id);
        }
    }

    #[test]
    fn leader_score_prefers_internal_nodes() {
        let profile = ParamProfile::laptop();
        let codec = ColorCodec::new(&profile, 1, 100, 16, 4);
        let mut st = NodeState::new(5, Palette::new(vec![0]), codec, 4);
        st.clique_size = 10;
        st.nc = 9;
        st.ext = 0;
        st.chroma_slack = 0;
        assert_eq!(leader_score(&st), 0);
        st.ext = 3;
        st.nc = 6;
        assert_eq!(leader_score(&st), 3 + 3);
    }

    #[test]
    fn blend_cliques_classify_and_pick_inliers() {
        let (g, truth) = gen::planted_acd(2, 16, 0.05, 40, 0.05, 5);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(9));
        let states = acd_states(&g, &mut driver, &profile);
        let states = select_leaders(&mut driver, states, &profile, g.max_degree()).unwrap();
        // Planted members that survived ACD must have a leader and mostly
        // be inliers.
        let mut with_leader = 0;
        let mut inliers = 0;
        let mut dense = 0;
        for (v, t) in truth.iter().enumerate() {
            if t.is_some() && states[v].class == AcdClass::Dense {
                dense += 1;
                if states[v].leader.is_some() {
                    with_leader += 1;
                }
                if states[v].is_inlier {
                    inliers += 1;
                }
            }
        }
        assert!(dense >= 24, "only {dense} planted members stayed dense");
        assert_eq!(with_leader, dense);
        assert!(
            inliers * 10 >= dense * 5,
            "only {inliers}/{dense} dense members are inliers"
        );
    }
}
