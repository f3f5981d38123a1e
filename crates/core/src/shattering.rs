//! Post-shattering deterministic cleanup.
//!
//! Nodes the randomized phases failed to color form, w.h.p., small
//! ("shattered") components \[BEPS16\]. The paper colors them with the
//! deterministic algorithm of \[GK21\] on top of a network decomposition
//! and a color-space reduction (Lemma 17). **Substitution** (see
//! DESIGN.md §12.3): we run the elementary deterministic procedure
//! *local-minimum greedy* — every uncolored node whose id is smallest
//! among its uncolored neighbors adopts its smallest palette color — whose
//! round count is bounded by the largest uncolored component, i.e.
//! polylog(n) on shattered instances. Large colors still travel hashed
//! (App. D.3), so the pass is CONGEST-legal for any color-space size.

use crate::driver::Driver;
use crate::passes::{announce_adoption, digest_adoptions};
use crate::state::NodeState;
use crate::wire::{tags, Wire};
use congest::{Ctx, Program, SimError};
use graphs::NodeId;

/// The deterministic cleanup program: repeated 2-round cycles of
/// status-flag exchange and local-minimum adoption.
#[derive(Debug)]
pub struct CleanupPass<'s> {
    st: &'s mut NodeState,
    done: bool,
}

impl<'s> CleanupPass<'s> {
    /// Run over a node's state.
    pub fn new(st: &'s mut NodeState) -> Self {
        CleanupPass { st, done: false }
    }
}

impl Program for CleanupPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if ctx.round() % 2 == 0 {
            // Digest adoptions from the previous cycle, then re-announce
            // uncolored status.
            digest_adoptions(self.st, ctx, false);
            if self.st.uncolored() {
                if self.st.palette.is_empty() {
                    // Collision pathology: leave to the repair sweep.
                    self.done = true;
                } else {
                    ctx.broadcast(Wire::Flag {
                        tag: tags::UNCOLORED,
                        on: true,
                    });
                }
            } else {
                self.done = true;
            }
        } else if self.st.uncolored() {
            let min_uncolored: Option<NodeId> = ctx
                .inbox()
                .iter()
                .filter(|&(_, m)| {
                    matches!(
                        m,
                        Wire::Flag {
                            tag: tags::UNCOLORED,
                            ..
                        }
                    )
                })
                .map(|(from, _)| from)
                .min();
            if min_uncolored.is_none_or(|m| self.st.id < m) {
                let c = self.st.palette.colors()[0];
                self.st.adopt(c, "cleanup");
                announce_adoption(self.st, ctx, c);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Run the cleanup to completion over all uncolored nodes.
///
/// # Errors
///
/// Propagates engine errors.
pub fn cleanup(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
) -> Result<Vec<NodeState>, SimError> {
    driver.run_in_place("cleanup", &mut states, CleanupPass::new)?;
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

    fn fresh(g: &Graph, color_bits: u32) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..=(d as u64)).collect();
                NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(&profile, 1, g.n(), color_bits, d),
                    d,
                )
            })
            .collect()
    }

    fn assert_complete_and_proper(g: &Graph, states: &[NodeState]) {
        for st in states {
            assert!(st.color.is_some(), "node {} uncolored", st.id);
        }
        for (u, v) in g.edges() {
            assert_ne!(
                states[u as usize].color, states[v as usize].color,
                "conflict on ({u},{v})"
            );
        }
    }

    #[test]
    fn cleanup_colors_everything_deterministically() {
        let g = gen::gnp(60, 0.1, 4);
        let mut driver = Driver::new(&g, SimConfig::seeded(1));
        let states = cleanup(&mut driver, fresh(&g, 16)).unwrap();
        assert_complete_and_proper(&g, &states);
    }

    #[test]
    fn cleanup_respects_preexisting_colors() {
        let g = gen::complete(10);
        let mut states = fresh(&g, 16);
        // Pre-color node 3 with color 7; cleanup must avoid it.
        states[3].color = Some(7);
        for st in &mut states {
            if st.id != 3 {
                st.palette.remove(7);
                let pos = g.neighbors(st.id).binary_search(&3).unwrap();
                st.neighbor_uncolored[pos] = false;
            }
        }
        let mut driver = Driver::new(&g, SimConfig::seeded(2));
        let states = cleanup(&mut driver, states).unwrap();
        assert_complete_and_proper(&g, &states);
        assert_eq!(states[3].color, Some(7));
    }

    #[test]
    fn rounds_scale_with_component_size_not_n() {
        // Many small components: the pass must finish fast even with many
        // nodes.
        let g = gen::disjoint_cliques(20, 4);
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let states = cleanup(&mut driver, fresh(&g, 16)).unwrap();
        assert_complete_and_proper(&g, &states);
        assert!(
            driver.log.total_rounds() <= 2 * 4 + 4,
            "used {} rounds",
            driver.log.total_rounds()
        );
    }

    #[test]
    fn worst_case_path_still_terminates() {
        // Descending ids along a path is the adversarial case: one node
        // per cycle.
        let g = gen::path(24);
        let mut driver = Driver::new(&g, SimConfig::seeded(4));
        let states = cleanup(&mut driver, fresh(&g, 8)).unwrap();
        assert_complete_and_proper(&g, &states);
    }

    #[test]
    fn hashed_colors_work_in_cleanup() {
        let g = gen::gnp(40, 0.12, 9);
        let profile = ParamProfile::laptop();
        let lists = graphs::palette::random_lists(&g, 63, 0, 5);
        let states: Vec<NodeState> = (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                NodeState::new(
                    v as NodeId,
                    Palette::new(lists.list(v as NodeId).to_vec()),
                    ColorCodec::new(&profile, 1, g.n(), 63, d),
                    d,
                )
            })
            .collect();
        let mut driver = Driver::new(&g, SimConfig::seeded(5));
        let states = driver
            .run_pass("codec", states, crate::passes::CodecSetupPass::new)
            .unwrap();
        let states = cleanup(&mut driver, states).unwrap();
        assert_complete_and_proper(&g, &states);
    }
}
