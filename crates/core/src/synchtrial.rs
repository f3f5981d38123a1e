//! `SynchColorTrial` — Algorithm 14.
//!
//! The leader of each almost-clique permutes its own palette and hands a
//! *distinct* color to every uncolored inlier, who tries it with a
//! standard `TryColor` exchange (distinctness kills intra-clique
//! conflicts; the exchange kills external ones). Colors travel as images
//! under the **leader's** universal hash (App. D.3): every inlier knows
//! the leader's hash index from the codec setup, so it can recover the
//! intended color from its own palette.

use crate::driver::Driver;
use crate::passes::{announce_adoption, announce_color, digest_adoptions};
use crate::state::{AcdClass, NodeState};
use crate::wire::{tags, Wire};
use congest::{Ctx, Program, SimError};
use graphs::{Color, NodeId};
use rand::seq::SliceRandom;

/// One synchronized clique-wide color trial (5 rounds).
#[derive(Debug)]
pub struct SynchColorTrialPass<'s> {
    st: &'s mut NodeState,
    candidate: Option<Color>,
    done: bool,
}

impl<'s> SynchColorTrialPass<'s> {
    /// Run over a node's state.
    pub fn new(st: &'s mut NodeState) -> Self {
        SynchColorTrialPass {
            st,
            candidate: None,
            done: false,
        }
    }

    fn am_leader(&self) -> bool {
        self.st.class == AcdClass::Dense && self.st.leader == Some(self.st.id)
    }

    fn requester(&self) -> bool {
        self.st.class == AcdClass::Dense
            && self.st.is_inlier
            && !self.st.put_aside
            && self.st.uncolored()
            && self.st.leader.is_some()
            && self.st.leader != Some(self.st.id)
    }
}

impl Program for SynchColorTrialPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.done {
            return;
        }
        match ctx.round() {
            0 => {
                if self.requester() {
                    let leader = self.st.leader.expect("requester() checked");
                    ctx.send(
                        leader,
                        Wire::Flag {
                            tag: tags::REQUEST,
                            on: true,
                        },
                    );
                }
            }
            1 => {
                if self.am_leader() {
                    let mut requesters: Vec<NodeId> = ctx
                        .inbox()
                        .iter()
                        .filter(|&(_, m)| {
                            matches!(
                                m,
                                Wire::Flag {
                                    tag: tags::REQUEST,
                                    ..
                                }
                            )
                        })
                        .map(|(from, _)| from)
                        .collect();
                    requesters.sort_unstable();
                    let mut colors: Vec<Color> = self.st.palette.colors().to_vec();
                    colors.shuffle(ctx.rng());
                    let bits = self.st.codec.color_bits();
                    for (u, psi) in requesters.into_iter().zip(colors) {
                        let payload = self.st.codec.encode_own(psi);
                        ctx.send(
                            u,
                            Wire::Color {
                                tag: tags::ASSIGN,
                                payload,
                                bits,
                            },
                        );
                    }
                }
            }
            2 => {
                if self.requester() {
                    let leader = self.st.leader.expect("requester() checked");
                    let assigned = ctx.inbox().iter().find_map(|(from, msg)| match msg {
                        Wire::Color {
                            tag: tags::ASSIGN,
                            payload,
                            ..
                        } if from == leader => Some(*payload),
                        _ => None,
                    });
                    if let Some(wire) = assigned {
                        let pos = ctx
                            .neighbor_index(leader)
                            .expect("inliers are leader-adjacent");
                        if let Some(c) =
                            self.st
                                .codec
                                .decode_via_neighbor(&self.st.palette, pos, wire)
                        {
                            self.candidate = Some(c);
                            announce_color(self.st, ctx, tags::TRIED, c);
                        }
                    }
                }
            }
            3 => {
                if let Some(c) = self.candidate {
                    let conflict = ctx.inbox().iter().any(|(_, msg)| {
                        matches!(msg, Wire::Color { tag: tags::TRIED, payload, .. }
                            if self.st.codec.matches_mine(c, *payload))
                    });
                    if conflict {
                        self.candidate = None;
                    } else {
                        self.st.adopt(c, "synch-trial");
                        announce_adoption(self.st, ctx, c);
                    }
                }
            }
            _ => {
                digest_adoptions(self.st, ctx, false);
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    /// A node that neither leads nor requests a color only digests
    /// adoptions, in round 4.
    fn wake_round(&self) -> u64 {
        if self.am_leader() || self.requester() || self.candidate.is_some() {
            0
        } else {
            4
        }
    }
}

/// Run one `SynchColorTrial` over all cliques.
///
/// # Errors
///
/// Propagates engine errors.
pub fn synch_color_trial(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
) -> Result<Vec<NodeState>, SimError> {
    driver.run_in_place("synch-trial", &mut states, SynchColorTrialPass::new)?;
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParamProfile;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph};

    fn clique_states(g: &Graph, color_bits: u32, extra: u64) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..=(d as u64 + extra)).map(|i| i * 3 + 1).collect();
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(&profile, 1, g.n(), color_bits, d),
                    d,
                );
                st.active = true;
                st.neighbor_active = vec![true; d];
                st.class = AcdClass::Dense;
                st.clique = Some(0);
                st.neighbor_clique = vec![Some(0); d];
                st.clique_size = g.n() as u32;
                st.leader = Some(0);
                st.leader_adjacent = v != 0;
                st.is_inlier = v != 0;
                st
            })
            .collect()
    }

    #[test]
    fn one_trial_colors_most_of_a_clique() {
        // All nodes share the same list, so the leader's distinct
        // assignments are valid for everyone.
        let g = gen::complete(20);
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let states = synch_color_trial(&mut driver, clique_states(&g, 16, 2)).unwrap();
        let colored = states.iter().filter(|s| s.color.is_some()).count();
        // 19 inliers requested; the leader has 22 colors; every assigned
        // color is distinct, so everyone who got one adopts it.
        assert!(colored >= 18, "only {colored}/20 colored");
        // Validity.
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (states[u as usize].color, states[v as usize].color) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn distinctness_survives_hashed_colors() {
        let g = gen::complete(16);
        let mut driver = Driver::new(&g, SimConfig::seeded(7));
        // Codec setup to exchange hash indices (hashed path).
        let mut states = clique_states(&g, 63, 4);
        states = driver
            .run_pass("codec", states, crate::passes::CodecSetupPass::new)
            .unwrap();
        assert!(states[0].codec.hashed());
        let states = synch_color_trial(&mut driver, states).unwrap();
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (states[u as usize].color, states[v as usize].color) {
                assert_ne!(a, b, "hashed conflict on ({u},{v})");
            }
        }
        let colored = states.iter().filter(|s| s.color.is_some()).count();
        assert!(colored >= 14, "only {colored}/16 colored via hashes");
    }

    #[test]
    fn put_aside_nodes_do_not_request() {
        let g = gen::complete(8);
        let mut states = clique_states(&g, 16, 1);
        for st in &mut states {
            if st.id >= 4 {
                st.put_aside = true;
            }
        }
        let mut driver = Driver::new(&g, SimConfig::seeded(1));
        let states = synch_color_trial(&mut driver, states).unwrap();
        for st in states.iter().skip(4) {
            assert!(st.color.is_none(), "put-aside node {} got colored", st.id);
        }
    }
}
