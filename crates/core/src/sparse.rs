//! The sparse/uneven path — Algorithm 8 and Proposition 2.
//!
//! 1. `GenerateSlack` in `G[V^{sparse} ∪ V^{uneven}]`;
//! 2. success-guided `V_start` selection (App. D): a node that received
//!    little permanent slack but is adjacent to many nodes that *did*
//!    joins `V_start`; one with neither goes to the BAD set (swept by the
//!    cleanup, per the shattering framework);
//! 3. `SlackColor(V_start)` — their slack is *temporary*: the rest of the
//!    sparse nodes stay inactive, so `d̂(v)` only counts `V_start`;
//! 4. `SlackColor` on the remaining sparse/uneven nodes, whose slack is
//!    the permanent slack from step 1.

use crate::config::ParamProfile;
use crate::driver::Driver;
use crate::slackcolor::slack_color;
use crate::state::{AcdClass, NodeState};
use crate::trycolor::TryColorPass;
use crate::wire::{tags, Wire};
use congest::{Ctx, Program, SimError};

/// 2-round exchange of "I received enough slack" flags (`V_start`
/// selection, App. D). Only a node whose flag is `true` sends it, since
/// `flagged_neighbors` counts only those; silence means `false`.
#[derive(Debug)]
struct GotSlackPass<'s> {
    st: &'s mut NodeState,
    eps: f64,
    done: bool,
}

impl<'s> GotSlackPass<'s> {
    fn new(st: &'s mut NodeState, eps: f64) -> Self {
        GotSlackPass {
            st,
            eps,
            done: false,
        }
    }
}

impl Program for GotSlackPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match ctx.round() {
            0 => {
                if self.st.active && self.st.uncolored() {
                    let d = self.st.active_uncolored_degree() as f64;
                    if f64::from(self.st.slack_gain) >= self.eps * d {
                        ctx.broadcast(Wire::Flag {
                            tag: tags::ACTIVE,
                            on: true,
                        });
                    }
                }
            }
            _ => {
                self.st.flagged_neighbors = ctx
                    .inbox()
                    .iter()
                    .filter(|&(_, m)| matches!(m, Wire::Flag { on: true, .. }))
                    .count() as u32;
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

fn sparse_or_uneven(st: &NodeState) -> bool {
    matches!(st.class, AcdClass::Sparse | AcdClass::Uneven)
}

/// Minimum positive slack among active nodes (the globally known `s_min`).
pub(crate) fn min_active_slack(states: &[NodeState]) -> u64 {
    states
        .iter()
        .filter(|s| s.active)
        .map(|s| s.slack().max(1) as u64)
        .min()
        .unwrap_or(1)
}

/// Run the sparse/uneven path over the current phase's participants.
///
/// # Errors
///
/// Propagates engine errors.
pub fn color_sparse(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
    profile: &ParamProfile,
    seed: u64,
) -> Result<Vec<NodeState>, SimError> {
    // Participants: sparse/uneven classified nodes of this phase.
    let phase_member: Vec<bool> = states
        .iter()
        .map(|st| sparse_or_uneven(st) && st.uncolored())
        .collect();
    states = driver.activate(states, |st| phase_member[st.id as usize])?;
    if Driver::active_count(&states) == 0 {
        return Ok(states);
    }

    // Step 1: GenerateSlack in the sparse/uneven subgraph.
    let pg = profile.pg;
    driver.run_in_place("generate-slack", &mut states, |st| {
        TryColorPass::generate_slack(st, pg)
    })?;

    // Step 2: V_start selection, success-guided.
    let eps = profile.eps_start;
    driver.run_in_place("start-flags", &mut states, |st| GotSlackPass::new(st, eps))?;
    let mut v_start = vec![false; states.len()];
    let mut bad = vec![false; states.len()];
    for st in &states {
        if st.active && st.uncolored() {
            let d = st.active_uncolored_degree() as f64;
            let got = f64::from(st.slack_gain) >= eps * d;
            if !got {
                if f64::from(st.flagged_neighbors) >= eps * d {
                    v_start[st.id as usize] = true;
                } else {
                    bad[st.id as usize] = true;
                }
            }
        }
    }

    // Step 3: SlackColor(V_start) with temporary slack.
    states = driver.activate(states, |st| v_start[st.id as usize] && st.uncolored())?;
    if Driver::active_count(&states) > 0 {
        let smin = min_active_slack(&states);
        states = slack_color(driver, states, profile, seed ^ 0x5a1, smin, "slack-start")?;
    }

    // Step 4: SlackColor on the rest (BAD nodes go to the cleanup under
    // the paper profile; the laptop profile lets them participate).
    let drop_bad = profile.bad_to_cleanup;
    states = driver.activate(states, |st| {
        phase_member[st.id as usize] && st.uncolored() && (!drop_bad || !bad[st.id as usize])
    })?;
    if Driver::active_count(&states) > 0 {
        let smin = min_active_slack(&states);
        states = slack_color(driver, states, profile, seed ^ 0x5a2, smin, "slack-sparse")?;
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acd::compute_acd;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph, NodeId};

    fn fresh_active(g: &Graph, extra: usize) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..(d + 1 + extra) as u64).collect();
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(&profile, 1, g.n(), 24, d),
                    d,
                );
                st.active = true;
                st.neighbor_active = vec![true; d];
                st.status_heard = (true, true);
                st
            })
            .collect()
    }

    #[test]
    fn sparse_path_colors_most_of_gnp() {
        let g = gen::gnp(150, 0.08, 6);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let states = compute_acd(&mut driver, fresh_active(&g, 0), &profile, 5).unwrap();
        let states = color_sparse(&mut driver, states, &profile, 11).unwrap();
        let uncolored = states
            .iter()
            .filter(|s| sparse_or_uneven(s) && s.uncolored())
            .count();
        let total = states.iter().filter(|s| sparse_or_uneven(s)).count();
        assert!(total > 100, "expected mostly sparse nodes, got {total}");
        assert!(
            uncolored * 4 <= total,
            "{uncolored}/{total} sparse nodes uncolored after Alg. 8"
        );
        // Validity.
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (states[u as usize].color, states[v as usize].color) {
                assert_ne!(a, b);
            }
        }
    }

    /// Only nodes whose flag is `true` send one, and every node still
    /// counts its flagged neighbors.
    #[test]
    fn start_flags_are_sent_only_when_true() {
        let g = gen::gnp(60, 0.15, 8);
        let eps = 0.5;
        let flagged = |v: NodeId| v.is_multiple_of(2);
        let mut states = fresh_active(&g, 0);
        for st in &mut states {
            if flagged(st.id) {
                st.slack_gain = g.degree(st.id) as u32;
            }
        }
        let mut driver = Driver::new(&g, SimConfig::seeded(1));
        driver
            .run_in_place("start-flags", &mut states, |st| GotSlackPass::new(st, eps))
            .unwrap();
        let senders: u64 = (0..g.n() as NodeId)
            .filter(|&v| flagged(v))
            .map(|v| g.degree(v) as u64)
            .sum();
        assert_eq!(driver.log.passes()[0].report.messages, senders);
        for st in &states {
            let count = g.neighbors(st.id).iter().filter(|&&u| flagged(u)).count();
            assert_eq!(st.flagged_neighbors as usize, count, "node {}", st.id);
        }
    }

    #[test]
    fn dense_nodes_are_left_alone() {
        let g = gen::disjoint_cliques(2, 12);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(2));
        let states = compute_acd(&mut driver, fresh_active(&g, 0), &profile, 3).unwrap();
        let dense_before: Vec<NodeId> = states
            .iter()
            .filter(|s| s.class == AcdClass::Dense)
            .map(|s| s.id)
            .collect();
        assert!(!dense_before.is_empty());
        let states = color_sparse(&mut driver, states, &profile, 7).unwrap();
        for &v in &dense_before {
            assert!(
                states[v as usize].uncolored(),
                "dense node {v} colored by the sparse path"
            );
        }
    }
}
