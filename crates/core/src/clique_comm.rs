//! Clique-local aggregation (sum / min) through the hub, with random
//! relays for distance-2 members.
//!
//! Almost-cliques have diameter ≤ 2 but no member is adjacent to everyone,
//! so clique-wide computations (clique size, leader arg-min, …) route
//! through the *hub* (the minimum-id member, whose id is the clique id):
//! members adjacent to the hub aggregate the values of their non-adjacent
//! clique-mates (each of whom picks one random adjacent relay) and forward
//! partial aggregates; the hub combines and the result flows back the same
//! way. 6 rounds, `O(log n)` bits per edge.
//!
//! This is the communication pattern Appendix D.1/D.2 relies on for
//! leader selection, slackability estimation and put-aside coordination.

use crate::state::NodeState;
use crate::wire::{tags, Wire};
use congest::{Ctx, Program};
use graphs::NodeId;
use rand::Rng;

/// Aggregation operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of member inputs.
    Sum,
    /// Minimum of member inputs (use packed `(value, id)` words for
    /// arg-min).
    Min,
}

impl AggOp {
    fn identity(self) -> u64 {
        match self {
            AggOp::Sum => 0,
            AggOp::Min => u64::MAX,
        }
    }

    fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a.saturating_add(b),
            AggOp::Min => a.min(b),
        }
    }
}

/// One clique-wide aggregation; every member ends with the clique's
/// aggregate in [`CliqueAggregatePass::result`] (None for non-members or
/// members cut off from the hub, which the caller demotes).
#[derive(Debug)]
pub struct CliqueAggregatePass<'s> {
    st: &'s mut NodeState,
    op: AggOp,
    input: u64,
    bits: u32,
    /// The aggregate, filled on members at the end of the pass.
    pub result: Option<u64>,
    hub_adjacent: bool,
    partial: u64,
    done: bool,
}

impl<'s> CliqueAggregatePass<'s> {
    /// Aggregate `input` across this node's clique with `op`; payload
    /// messages are declared `bits` wide.
    pub fn new(st: &'s mut NodeState, op: AggOp, input: u64, bits: u32) -> Self {
        CliqueAggregatePass {
            st,
            op,
            input,
            bits,
            result: None,
            hub_adjacent: false,
            partial: 0,
            done: false,
        }
    }

    fn member(&self) -> bool {
        self.st.clique.is_some()
    }

    fn hub(&self) -> NodeId {
        self.st.clique.expect("member() checked")
    }

    fn am_hub(&self) -> bool {
        self.member() && self.hub() == self.st.id
    }

    /// Positions of same-clique neighbors.
    fn clique_positions(&self) -> Vec<usize> {
        let cid = self.st.clique;
        self.st
            .neighbor_clique
            .iter()
            .enumerate()
            .filter(|&(_, c)| *c == cid && cid.is_some())
            .map(|(i, _)| i)
            .collect()
    }
}

impl Program for CliqueAggregatePass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.done {
            return;
        }
        if !self.member() {
            self.done = ctx.round() >= 5;
            return;
        }
        match ctx.round() {
            0 => {
                self.hub_adjacent =
                    self.am_hub() || ctx.neighbors().binary_search(&self.hub()).is_ok();
                self.partial = self.op.identity();
                ctx.broadcast(Wire::Flag {
                    tag: tags::HUB_ADJ,
                    on: self.hub_adjacent,
                });
            }
            1 => {
                if self.hub_adjacent {
                    self.partial = self.input;
                } else {
                    // Pick a random same-clique hub-adjacent relay.
                    let mut relays: Vec<NodeId> = Vec::new();
                    for (from, msg) in ctx.inbox() {
                        if let Wire::Flag {
                            tag: tags::HUB_ADJ,
                            on: true,
                        } = msg
                        {
                            let pos = ctx.neighbor_index(from).expect("flag from non-neighbor");
                            if self.st.neighbor_clique[pos] == self.st.clique {
                                relays.push(from);
                            }
                        }
                    }
                    if !relays.is_empty() {
                        let relay = relays[ctx.rng().gen_range(0..relays.len())];
                        ctx.send(
                            relay,
                            Wire::Uint {
                                tag: tags::AGG_UP,
                                value: self.input,
                                bits: self.bits,
                            },
                        );
                    }
                }
            }
            2 => {
                if self.hub_adjacent {
                    for (_, msg) in ctx.inbox() {
                        if let Wire::Uint {
                            tag: tags::AGG_UP,
                            value,
                            ..
                        } = msg
                        {
                            self.partial = self.op.combine(self.partial, *value);
                        }
                    }
                    if !self.am_hub() {
                        ctx.send(
                            self.hub(),
                            Wire::Uint {
                                tag: tags::AGG_UP,
                                value: self.partial,
                                bits: self.bits,
                            },
                        );
                    }
                }
            }
            3 => {
                if self.am_hub() {
                    let mut agg = self.partial;
                    for (_, msg) in ctx.inbox() {
                        if let Wire::Uint {
                            tag: tags::AGG_UP,
                            value,
                            ..
                        } = msg
                        {
                            agg = self.op.combine(agg, *value);
                        }
                    }
                    self.result = Some(agg);
                    ctx.broadcast(Wire::Uint {
                        tag: tags::AGG_DOWN,
                        value: agg,
                        bits: self.bits,
                    });
                }
            }
            4 => {
                if self.result.is_none() {
                    for (from, msg) in ctx.inbox() {
                        if let Wire::Uint {
                            tag: tags::AGG_DOWN,
                            value,
                            ..
                        } = msg
                        {
                            let pos = ctx.neighbor_index(from).expect("agg from non-neighbor");
                            if self.st.neighbor_clique[pos] == self.st.clique {
                                self.result = Some(*value);
                                break;
                            }
                        }
                    }
                }
                // Hub-adjacent members relay the result outward.
                if self.hub_adjacent {
                    if let Some(r) = self.result {
                        for pos in self.clique_positions() {
                            let to = ctx.neighbors()[pos];
                            ctx.send(
                                to,
                                Wire::Uint {
                                    tag: tags::AGG_DOWN,
                                    value: r,
                                    bits: self.bits,
                                },
                            );
                        }
                    }
                }
            }
            _ => {
                if self.result.is_none() {
                    for (from, msg) in ctx.inbox() {
                        if let Wire::Uint {
                            tag: tags::AGG_DOWN,
                            value,
                            ..
                        } = msg
                        {
                            let pos = ctx.neighbor_index(from).expect("agg from non-neighbor");
                            if self.st.neighbor_clique[pos] == self.st.clique {
                                self.result = Some(*value);
                                break;
                            }
                        }
                    }
                }
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    /// A node in no clique only finishes, in round 5.
    fn wake_round(&self) -> u64 {
        if self.member() {
            0
        } else {
            5
        }
    }
}

/// Pack `(value, id)` for arg-min aggregation: the minimum of packed words
/// is the lexicographic minimum of `(value, id)` pairs.
pub fn pack_argmin(value: u64, id: NodeId) -> u64 {
    (value.min((1 << 38) - 1) << 26) | u64::from(id) & ((1 << 26) - 1)
}

/// Recover the id from a packed arg-min word.
pub fn unpack_argmin_id(packed: u64) -> NodeId {
    (packed & ((1 << 26) - 1)) as NodeId
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParamProfile;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph};

    /// States where everyone belongs to one clique with hub = node 0.
    fn clique_states(g: &Graph) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(vec![0]),
                    ColorCodec::new(&profile, 1, g.n(), 16, d),
                    d,
                );
                st.clique = Some(0);
                st.neighbor_clique = vec![Some(0); d];
                st
            })
            .collect()
    }

    fn run_agg(
        g: &Graph,
        mut states: Vec<NodeState>,
        op: AggOp,
        inputs: &[u64],
    ) -> Vec<Option<u64>> {
        let programs: Vec<_> = states
            .iter_mut()
            .map(|st| {
                let x = inputs[st.id as usize];
                CliqueAggregatePass::new(st, op, x, 48)
            })
            .collect();
        let (programs, report) = congest::run(g, programs, SimConfig::seeded(3)).unwrap();
        assert!(report.completed);
        assert!(report.rounds <= 6);
        programs.into_iter().map(|p| p.result).collect()
    }

    #[test]
    fn sum_over_complete_clique() {
        let g = gen::complete(10);
        let inputs: Vec<u64> = (0..10).collect();
        let results = run_agg(&g, clique_states(&g), AggOp::Sum, &inputs);
        for (v, r) in results.iter().enumerate() {
            assert_eq!(*r, Some(45), "node {v}");
        }
    }

    #[test]
    fn min_over_diameter_two_clique() {
        // A K10 minus a perfect-ish matching still has diameter 2; remove
        // some edges touching the hub so relays actually fire.
        let mut b = graphs::GraphBuilder::new(10);
        for u in 0..10u32 {
            for v in (u + 1)..10 {
                // Drop edges (0,7), (0,8), (0,9): those members reach the
                // hub via relays.
                if u == 0 && v >= 7 {
                    continue;
                }
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let inputs: Vec<u64> = (0..10).map(|i| 100 - i).collect();
        let results = run_agg(&g, clique_states(&g), AggOp::Min, &inputs);
        for (v, r) in results.iter().enumerate() {
            assert_eq!(*r, Some(91), "node {v}");
        }
    }

    #[test]
    fn argmin_packing_roundtrip() {
        let p = pack_argmin(500, 123);
        assert_eq!(unpack_argmin_id(p), 123);
        assert!(pack_argmin(2, 999) < pack_argmin(3, 0));
        // Ties broken by id.
        assert!(pack_argmin(5, 3) < pack_argmin(5, 4));
    }

    #[test]
    fn non_members_stay_out() {
        let g = gen::complete(6);
        let mut states = clique_states(&g);
        states[5].clique = None;
        for st in &mut states {
            let pos5 = g.neighbors(st.id).binary_search(&5).ok();
            if let Some(p) = pos5 {
                st.neighbor_clique[p] = None;
            }
        }
        let inputs = vec![1u64; 6];
        let results = run_agg(&g, states, AggOp::Sum, &inputs);
        assert_eq!(results[5], None);
        for (v, r) in results.iter().enumerate().take(5) {
            assert_eq!(*r, Some(5), "node {v}");
        }
    }

    #[test]
    fn two_cliques_aggregate_independently() {
        // Two disjoint K5s.
        let g = gen::disjoint_cliques(2, 5);
        let profile = ParamProfile::laptop();
        let states: Vec<NodeState> = (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(vec![0]),
                    ColorCodec::new(&profile, 1, g.n(), 16, d),
                    d,
                );
                let cid = if v < 5 { 0 } else { 5 };
                st.clique = Some(cid);
                st.neighbor_clique = vec![Some(cid); d];
                st
            })
            .collect();
        let inputs: Vec<u64> = (0..10).collect();
        let results = run_agg(&g, states, AggOp::Sum, &inputs);
        for (v, r) in results.iter().enumerate() {
            let expected = if v < 5 {
                1 + 2 + 3 + 4
            } else {
                5 + 6 + 7 + 8 + 9
            };
            assert_eq!(*r, Some(expected), "node {v}");
        }
    }
}
