//! `TryColor`, `TryRandomColor` and `GenerateSlack` (Algorithms 10–12).
//!
//! One pass = one synchronized color trial (3 rounds):
//!
//! 0. each participant draws a uniform palette color and sends it to all
//!    neighbors (encoded per receiver, App. D.3);
//! 1. a participant keeps its color iff no neighbor tried a matching one;
//!    keepers announce the adoption. Equal colors always hash equally, so
//!    mutual drops are guaranteed — simultaneous conflicts are impossible;
//! 2. everyone digests adoption announcements (palette update, `κ_v` and
//!    slack-gain accounting when requested).
//!
//! `GenerateSlack` (Alg. 10) is this pass with participation probability
//! `p_g` and chromatic-slack counting on.

use crate::passes::{announce_adoption, announce_color, digest_adoptions};
use crate::state::NodeState;
use crate::wire::{tags, Wire};
use congest::{Ctx, Program};
use graphs::Color;
use rand::Rng;

/// One synchronized random-color trial.
#[derive(Debug)]
pub struct TryColorPass<'s> {
    st: &'s mut NodeState,
    participate_prob: f64,
    count_chroma: bool,
    pass_name: &'static str,
    candidate: Option<Color>,
    /// Whether this node has drawn its participation coin (round 0).
    drawn: bool,
    done: bool,
}

impl<'s> TryColorPass<'s> {
    /// A trial where every active uncolored node participates.
    pub fn every_node(st: &'s mut NodeState, pass_name: &'static str) -> Self {
        TryColorPass {
            st,
            participate_prob: 1.0,
            count_chroma: false,
            pass_name,
            candidate: None,
            drawn: false,
            done: false,
        }
    }

    /// The `GenerateSlack` variant: participate with probability `pg` and
    /// account chromatic slack / slack gain (Alg. 10).
    pub fn generate_slack(st: &'s mut NodeState, pg: f64) -> Self {
        TryColorPass {
            st,
            participate_prob: pg,
            count_chroma: true,
            pass_name: "generate-slack",
            candidate: None,
            drawn: false,
            done: false,
        }
    }

    /// Whether this node can try a color this pass.
    fn can_try(&self) -> bool {
        self.st.active && self.st.uncolored() && !self.st.palette.is_empty()
    }
}

impl Program for TryColorPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match ctx.round() {
            0 => {
                if !self.can_try() {
                    return;
                }
                self.drawn = true;
                if ctx.rng().gen::<f64>() < self.participate_prob {
                    let colors = self.st.palette.colors();
                    let pick = ctx.rng().gen_range(0..colors.len());
                    let c = colors[pick];
                    self.candidate = Some(c);
                    announce_color(self.st, ctx, tags::TRIED, c);
                }
            }
            1 => {
                if let Some(c) = self.candidate {
                    let conflict = ctx.inbox().iter().any(|(_, msg)| {
                        matches!(msg, Wire::Color { tag: tags::TRIED, payload, .. }
                            if self.st.codec.matches_mine(c, *payload))
                    });
                    if conflict {
                        self.candidate = None;
                    } else {
                        self.st.adopt(c, self.pass_name);
                        announce_adoption(self.st, ctx, c);
                    }
                }
            }
            _ => {
                digest_adoptions(self.st, ctx, self.count_chroma);
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    /// A node that cannot try a color, or whose coin said no, only
    /// digests adoptions, in round 2.
    fn wake_round(&self) -> u64 {
        if self.candidate.is_some() || (self.can_try() && !self.drawn) {
            0
        } else {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParamProfile;
    use crate::palette::Palette;
    use crate::passes::CodecSetupPass;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph, NodeId};

    fn states_with_lists(g: &Graph, color_bits: u32, extra: usize) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..(d + 1 + extra) as u64).collect();
                let codec = ColorCodec::new(&profile, 7, g.n(), color_bits, d);
                let mut st = NodeState::new(v as NodeId, Palette::new(list), codec, d);
                st.active = true;
                st.neighbor_active = vec![true; d];
                st
            })
            .collect()
    }

    fn run_trials(g: &Graph, mut states: Vec<NodeState>, trials: u32, seed: u64) -> Vec<NodeState> {
        for t in 0..trials {
            let programs: Vec<_> = states
                .iter_mut()
                .map(|st| TryColorPass::every_node(st, "trial"))
                .collect();
            let (_, report) =
                congest::run(g, programs, SimConfig::seeded(seed + u64::from(t))).unwrap();
            assert!(report.completed);
        }
        states
    }

    fn assert_proper(g: &Graph, states: &[NodeState]) {
        for (u, v) in g.edges() {
            let (cu, cv) = (states[u as usize].color, states[v as usize].color);
            if let (Some(a), Some(b)) = (cu, cv) {
                assert_ne!(a, b, "conflict on edge ({u},{v})");
            }
        }
    }

    #[test]
    fn repeated_trials_color_a_cycle() {
        let g = gen::cycle(30);
        let states = run_trials(&g, states_with_lists(&g, 8, 0), 40, 3);
        assert_proper(&g, &states);
        let colored = states.iter().filter(|s| s.color.is_some()).count();
        assert!(colored >= 28, "only {colored}/30 colored after 40 trials");
    }

    #[test]
    fn trials_never_conflict_even_mid_run() {
        let g = gen::complete(12);
        let states = run_trials(&g, states_with_lists(&g, 8, 0), 5, 9);
        assert_proper(&g, &states);
    }

    #[test]
    fn hashed_colors_also_color_properly() {
        // 63-bit colors force the hashed path end to end.
        let g = gen::gnp(40, 0.15, 5);
        let profile = ParamProfile::laptop();
        let lists = graphs::palette::random_lists(&g, 63, 0, 11);
        let mut states: Vec<NodeState> = (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let codec = ColorCodec::new(&profile, 7, g.n(), 63, d);
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(lists.list(v as NodeId).to_vec()),
                    codec,
                    d,
                );
                st.active = true;
                st.neighbor_active = vec![true; d];
                st
            })
            .collect();
        // Codec setup first so neighbor hashes are known.
        let programs: Vec<_> = states.into_iter().map(CodecSetupPass::new).collect();
        let (programs, _) = congest::run(&g, programs, SimConfig::seeded(1)).unwrap();
        states = programs
            .into_iter()
            .map(CodecSetupPass::into_state)
            .collect();
        assert!(states[0].codec.hashed());
        let states = run_trials(&g, states, 30, 21);
        assert_proper(&g, &states);
        let colored = states.iter().filter(|s| s.color.is_some()).count();
        assert!(colored >= g.n() - 2, "only {colored}/{} colored", g.n());
    }

    #[test]
    fn generate_slack_counts_kappa() {
        // Star: leaves share only color space {0,1}; center list is
        // disjoint {100..}. When the center adopts, every leaf gains
        // chromatic slack.
        let g = gen::star(8);
        let profile = ParamProfile::laptop();
        let mut states: Vec<NodeState> = (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = if v == 0 {
                    (100..109).collect()
                } else {
                    vec![0, 1]
                };
                let codec = ColorCodec::new(&profile, 7, g.n(), 16, d);
                let mut st = NodeState::new(v as NodeId, Palette::new(list), codec, d);
                st.active = true;
                st.neighbor_active = vec![true; d];
                st
            })
            .collect();
        // Force participation: pg = 1.
        for _ in 0..3 {
            let programs: Vec<_> = states
                .iter_mut()
                .map(|st| TryColorPass::generate_slack(st, 1.0))
                .collect();
            congest::run(&g, programs, SimConfig::seeded(5)).unwrap();
        }
        assert!(states[0].color.is_some(), "center should color itself");
        for (leaf, st) in states.iter().enumerate().take(9).skip(1) {
            assert!(
                st.chroma_slack >= 1,
                "leaf {leaf} should have chromatic slack"
            );
        }
    }

    #[test]
    fn inactive_nodes_do_not_try_but_do_digest() {
        let g = gen::path(2);
        let mut states = states_with_lists(&g, 8, 0);
        states[1].active = false;
        let states = run_trials(&g, states, 3, 2);
        assert!(states[1].color.is_none());
        if let Some(c0) = states[0].color {
            assert!(!states[1].palette.contains(c0), "digest must prune palette");
            assert!(!states[1].neighbor_uncolored[0]);
        }
    }
}
