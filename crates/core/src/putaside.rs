//! Put-aside sets — Algorithm 13 and Appendix D.2.
//!
//! Low-slack almost-cliques park a set `P_C` of Θ(ℓ) inliers: they stay
//! uncolored through `SlackColor` (providing temporary slack to the rest
//! of the clique) and are colored at the very end by their leader, who
//! collects enough of their palettes and their induced topology.
//!
//! Selection (5 rounds): inliers of low-slack cliques sample themselves,
//! drop on a sampled neighbor in *another* clique (the `E_v ∩ S = ∅` rule,
//! which keeps put-aside sets of different cliques non-adjacent — the
//! property that makes end-of-algorithm coloring safe), and the leader
//! thins the survivors to the Θ(ℓ) target.
//!
//! Coloring (9 rounds): each `P_C` member uploads its `P_C`-neighbor ids
//! and then `|N(v) ∩ P_C| + 4` color *tokens* (images under the leader's
//! universal hash — App. D.3 — or raw colors when small), **chunked over
//! consecutive rounds** so no single message exceeds ~256 bits — the
//! bandwidth-spreading role App. D.2 assigns to its relay intervals,
//! realized here over the direct member↔leader edge (deviation recorded
//! in DESIGN.md §12.5). The leader greedily assigns conflict-free tokens
//! and sends them back.

use crate::config::ParamProfile;
use crate::driver::Driver;
use crate::passes::{announce_adoption, digest_adoptions};
use crate::state::{AcdClass, NodeState};
use crate::wire::{tags, ColorWire, Wire};
use congest::message::bits_for_range;
use congest::{Ctx, Program, SimError};
use graphs::NodeId;
use rand::Rng;

/// Sampling probability for put-aside candidates.
///
/// The paper's Alg. 13 uses `p_s = ℓ²/(48·Δ_C)`; at laptop scale that
/// expectation can be below one node, so the laptop profile also floors
/// the expected sample at `2ℓ` members (the leader trims back to ≈ ℓ).
pub fn putaside_prob(profile: &ParamProfile, ell: u64, clique_size: u32) -> f64 {
    let c = f64::from(clique_size.max(1));
    let paper = (ell * ell) as f64 / (profile.putaside_c * c);
    let floor = 2.0 * ell as f64 / c;
    paper.max(floor).min(0.5)
}

/// Selection pass (5 rounds).
#[derive(Debug)]
pub struct PutAsideSelectPass<'s> {
    st: &'s mut NodeState,
    profile: &'s ParamProfile,
    ell: u64,
    id_bits: u32,
    sampled: bool,
    survivor: bool,
    done: bool,
}

impl<'s> PutAsideSelectPass<'s> {
    /// Run over a node's state; `ell` is the clique-slack threshold `ℓ`.
    pub fn new(st: &'s mut NodeState, profile: &'s ParamProfile, ell: u64, n: usize) -> Self {
        PutAsideSelectPass {
            st,
            profile,
            ell,
            id_bits: bits_for_range(n as u64) as u32,
            sampled: false,
            survivor: false,
            done: false,
        }
    }

    fn candidate(&self) -> bool {
        self.st.class == AcdClass::Dense
            && self.st.low_slack_clique
            && self.st.is_inlier
            && self.st.uncolored()
    }

    fn am_leader(&self) -> bool {
        self.st.leader == Some(self.st.id)
    }
}

impl Program for PutAsideSelectPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match ctx.round() {
            0 => {
                if self.candidate() {
                    let ps = putaside_prob(self.profile, self.ell, self.st.clique_size);
                    if ctx.rng().gen::<f64>() < ps {
                        self.sampled = true;
                        let cid = self.st.clique.expect("dense node has a clique");
                        ctx.broadcast(Wire::Uint {
                            tag: tags::SAMPLED,
                            value: u64::from(cid),
                            bits: self.id_bits,
                        });
                    }
                }
            }
            1 => {
                if self.sampled {
                    let my_cid = self.st.clique.map(u64::from);
                    let clash = ctx.inbox().iter().any(|(_, msg)| {
                        matches!(msg, Wire::Uint { tag: tags::SAMPLED, value, .. }
                            if Some(*value) != my_cid)
                    });
                    if !clash {
                        self.survivor = true;
                        let leader = self.st.leader.expect("inlier has a leader");
                        ctx.send(
                            leader,
                            Wire::Flag {
                                tag: tags::REQUEST,
                                on: true,
                            },
                        );
                    }
                }
            }
            2 => {
                if self.am_leader() {
                    let survivors = ctx
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
                        .count() as u64;
                    let cap = self.ell.max(1);
                    // 16-bit fixed-point keep-probability.
                    let theta = if survivors <= cap {
                        u64::from(u16::MAX)
                    } else {
                        (u64::from(u16::MAX) * cap) / survivors
                    };
                    ctx.broadcast(Wire::Uint {
                        tag: tags::AGG_DOWN,
                        value: theta,
                        bits: 16,
                    });
                }
            }
            3 => {
                if self.survivor {
                    let leader = self.st.leader.expect("inlier has a leader");
                    let theta = ctx
                        .inbox()
                        .iter()
                        .find_map(|(from, msg)| match msg {
                            Wire::Uint {
                                tag: tags::AGG_DOWN,
                                value,
                                ..
                            } if from == leader => Some(*value),
                            _ => None,
                        })
                        .unwrap_or(0);
                    if u64::from(ctx.rng().gen::<u16>()) <= theta {
                        self.st.put_aside = true;
                        let cid = self.st.clique.expect("dense node has a clique");
                        ctx.broadcast(Wire::Uint {
                            tag: tags::SAMPLED,
                            value: u64::from(cid),
                            bits: self.id_bits,
                        });
                    }
                }
            }
            _ => {
                self.st.pc_neighbors.clear();
                for (from, msg) in ctx.inbox() {
                    if let Wire::Uint {
                        tag: tags::SAMPLED,
                        value,
                        ..
                    } = msg
                    {
                        let pos = ctx.neighbor_index(from).expect("pc from non-neighbor");
                        if self.st.neighbor_clique[pos].map(u64::from) == Some(*value)
                            && self.st.clique.map(u64::from) == Some(*value)
                        {
                            self.st.pc_neighbors.push(from);
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
    /// A node that neither leads nor can be put aside only records its
    /// put-aside neighbors, in round 4.
    fn wake_round(&self) -> u64 {
        if self.am_leader() || self.candidate() {
            0
        } else {
            4
        }
    }
}

/// Token-chunk rounds of the coloring pass (supports up to
/// `CHUNK_ROUNDS · ⌊256/color_bits⌋` tokens per member).
const CHUNK_ROUNDS: u64 = 4;

/// One member's upload at the leader: its color tokens and its `P_C`
/// neighbor ids.
type Upload = (Vec<u64>, Vec<NodeId>);

/// End-of-phase coloring of the put-aside sets (9 rounds).
#[derive(Debug)]
pub struct PutAsideColorPass<'s> {
    st: &'s mut NodeState,
    id_bits: u32,
    /// This member's token upload, chunked in round order.
    my_tokens: Vec<u64>,
    /// Leader scratch: tokens and `P_C` topology per member, kept sorted
    /// by member id (binary-search upsert — members are few and the
    /// inbox already arrives in sender order, so this replaces the old
    /// per-leader hash map at zero comparison cost).
    uploads: Vec<(NodeId, Upload)>,
    done: bool,
}

impl<'s> PutAsideColorPass<'s> {
    /// Run over a node's state.
    pub fn new(st: &'s mut NodeState, n: usize) -> Self {
        PutAsideColorPass {
            st,
            id_bits: bits_for_range(n as u64) as u32,
            my_tokens: Vec::new(),
            uploads: Vec::new(),
            done: false,
        }
    }

    /// Tokens per chunk so one chunk message stays near 256 bits.
    fn chunk_len(&self) -> usize {
        (256 / self.st.codec.color_bits().max(1) as usize).max(1)
    }

    fn am_leader(&self) -> bool {
        self.st.class == AcdClass::Dense && self.st.leader == Some(self.st.id)
    }

    fn participating(&self) -> bool {
        self.st.put_aside && self.st.uncolored() && self.st.leader.is_some()
    }

    /// Leader-relative position (the leader is a neighbor of every
    /// put-aside member).
    fn leader_pos(&self, ctx: &Ctx<'_, Wire>) -> Option<usize> {
        ctx.neighbor_index(self.st.leader?)
    }

    /// The leader's upload record for `from` (sorted-insert on miss).
    fn upload_entry(&mut self, from: NodeId) -> &mut Upload {
        let i = match self.uploads.binary_search_by_key(&from, |(v, _)| *v) {
            Ok(i) => i,
            Err(i) => {
                self.uploads.insert(i, (from, (Vec::new(), Vec::new())));
                i
            }
        };
        &mut self.uploads[i].1
    }

    /// Distinct color tokens under the leader's hash for upload.
    fn tokens(&self, ctx: &Ctx<'_, Wire>) -> Vec<u64> {
        let want = (self.st.pc_neighbors.len() + 4).min(CHUNK_ROUNDS as usize * self.chunk_len());
        let Some(pos) = self.leader_pos(ctx) else {
            return Vec::new();
        };
        // Sorted dedup scratch: `want` is O(|P_C ∩ N(v)|), tiny.
        let mut seen: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        for &c in self.st.palette.colors() {
            let token = match self.st.codec.encode_for(pos, c) {
                ColorWire::Raw(x) => x,
                ColorWire::Hashed(img) => img,
            };
            if let Err(i) = seen.binary_search(&token) {
                seen.insert(i, token);
                out.push(token);
                if out.len() >= want {
                    break;
                }
            }
        }
        out
    }
}

impl Program for PutAsideColorPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let assign_round = 1 + CHUNK_ROUNDS; // ids round + chunk rounds
        match ctx.round() {
            0 => {
                if self.participating() {
                    let leader = self.st.leader.expect("participating() checked");
                    self.my_tokens = self.tokens(ctx);
                    let ids = self.st.pc_neighbors.iter().map(|&w| u64::from(w)).collect();
                    ctx.send(
                        leader,
                        Wire::UintList {
                            tag: tags::REQUEST,
                            values: ids,
                            bits_each: self.id_bits,
                        },
                    );
                }
            }
            r if (1..=CHUNK_ROUNDS).contains(&r) => {
                // Leader side: record incoming ids (round 1) and chunks.
                if self.am_leader() {
                    for (from, msg) in ctx.inbox() {
                        let entry = self.upload_entry(from);
                        match msg {
                            Wire::UintList {
                                tag: tags::PAL_UP,
                                values,
                                ..
                            } => {
                                entry.0.extend_from_slice(values);
                            }
                            Wire::UintList {
                                tag: tags::REQUEST,
                                values,
                                ..
                            } => {
                                entry.1 = values.iter().map(|&x| x as NodeId).collect();
                            }
                            _ => {}
                        }
                    }
                }
                // Member side: ship chunk r−1.
                if self.participating() {
                    let leader = self.st.leader.expect("participating() checked");
                    let chunk_len = self.chunk_len();
                    let start = (r as usize - 1) * chunk_len;
                    if start < self.my_tokens.len() {
                        let end = (start + chunk_len).min(self.my_tokens.len());
                        let bits_each = self.st.codec.color_bits();
                        ctx.send(
                            leader,
                            Wire::UintList {
                                tag: tags::PAL_UP,
                                values: self.my_tokens[start..end].to_vec(),
                                bits_each,
                            },
                        );
                    }
                }
            }
            r if r == assign_round => {
                if self.am_leader() {
                    // Absorb the final chunk round's messages.
                    for (from, msg) in ctx.inbox() {
                        if let Wire::UintList {
                            tag: tags::PAL_UP,
                            values,
                            ..
                        } = msg
                        {
                            self.upload_entry(from).0.extend_from_slice(values);
                        }
                    }
                    // Greedy assignment in id order (uploads are already
                    // sorted by member id): pick a token no
                    // already-assigned P_C-neighbor holds. `chosen` grows
                    // in that same ascending order, so member lookups are
                    // binary searches over a sorted vec.
                    let mut chosen: Vec<(NodeId, u64)> = Vec::new();
                    let mut taken: Vec<u64> = Vec::new();
                    let bits_each = self.st.codec.color_bits();
                    for m in 0..self.uploads.len() {
                        let (v, (tokens, nbrs)) = &self.uploads[m];
                        taken.clear();
                        taken.extend(nbrs.iter().filter_map(|u| {
                            chosen
                                .binary_search_by_key(u, |&(w, _)| w)
                                .ok()
                                .map(|i| chosen[i].1)
                        }));
                        taken.sort_unstable();
                        if let Some(&t) = tokens.iter().find(|t| taken.binary_search(t).is_err()) {
                            let v = *v;
                            chosen.push((v, t));
                            ctx.send(
                                v,
                                Wire::Uint {
                                    tag: tags::PAL_DOWN,
                                    value: t,
                                    bits: bits_each,
                                },
                            );
                        }
                    }
                }
            }
            r if r == assign_round + 1 => {
                if self.participating() {
                    let leader = self.st.leader.expect("participating() checked");
                    let token = ctx.inbox().iter().find_map(|(from, msg)| match msg {
                        Wire::Uint {
                            tag: tags::PAL_DOWN,
                            value,
                            ..
                        } if from == leader => Some(*value),
                        _ => None,
                    });
                    if let Some(t) = token {
                        let pos = self.leader_pos(ctx).expect("leader is a neighbor");
                        let color = if self.st.codec.hashed() {
                            self.st.codec.decode_via_neighbor(
                                &self.st.palette,
                                pos,
                                ColorWire::Hashed(t),
                            )
                        } else {
                            self.st.palette.contains(t).then_some(t)
                        };
                        if let Some(c) = color {
                            self.st.adopt(c, "put-aside");
                            announce_adoption(self.st, ctx, c);
                        }
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
    /// A node that neither leads nor was put aside only digests
    /// adoptions, in the round after the assignments arrive.
    fn wake_round(&self) -> u64 {
        if self.am_leader() || self.participating() {
            0
        } else {
            CHUNK_ROUNDS + 3
        }
    }
}

/// Run selection then (later) coloring; exported pieces for the dense
/// orchestrator.
///
/// # Errors
///
/// Propagates engine errors.
pub fn select_put_aside(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
    profile: &ParamProfile,
    delta: usize,
) -> Result<Vec<NodeState>, SimError> {
    let ell = profile.ell(delta);
    let n = driver.graph.n();
    driver.run_in_place("put-aside-select", &mut states, |st| {
        PutAsideSelectPass::new(st, profile, ell, n)
    })?;
    Ok(states)
}

/// Color the put-aside sets through their leaders.
///
/// # Errors
///
/// Propagates engine errors.
pub fn color_put_aside(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
) -> Result<Vec<NodeState>, SimError> {
    let n = driver.graph.n();
    driver.run_in_place("put-aside-color", &mut states, |st| {
        PutAsideColorPass::new(st, n)
    })?;
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph};

    /// A clique where everyone is an inlier of a low-slack clique with
    /// leader/hub 0.
    fn clique_states(g: &Graph, c: u32) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..=(d as u64 + 4)).collect();
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(&profile, 1, g.n(), 16, d),
                    d,
                );
                st.active = true;
                st.neighbor_active = vec![true; d];
                st.class = AcdClass::Dense;
                st.clique = Some(0);
                st.neighbor_clique = vec![Some(0); d];
                st.clique_size = c;
                st.leader = Some(0);
                st.leader_adjacent = v != 0;
                st.is_inlier = v != 0;
                st.low_slack_clique = true;
                st
            })
            .collect()
    }

    #[test]
    fn selection_parks_about_ell_nodes() {
        let g = gen::complete(30);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(4));
        let states = select_put_aside(&mut driver, clique_states(&g, 30), &profile, 29).unwrap();
        let ell = profile.ell(29);
        let pc = states.iter().filter(|s| s.put_aside).count();
        assert!(pc >= 1, "no put-aside nodes selected");
        assert!(
            pc as u64 <= 3 * ell,
            "put-aside too large: {pc} vs ℓ = {ell}"
        );
        // Members' pc_neighbors views agree with the actual set.
        for st in &states {
            for &u in &st.pc_neighbors {
                assert!(states[u as usize].put_aside, "stale pc view at {}", st.id);
            }
        }
    }

    #[test]
    fn coloring_put_aside_is_conflict_free() {
        let g = gen::complete(24);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(9));
        let mut states =
            select_put_aside(&mut driver, clique_states(&g, 24), &profile, 23).unwrap();
        // Pretend everyone else was colored by earlier stages: color all
        // non-PC nodes distinctly (big colors outside lists don't matter —
        // just mark them colored so only PC remains).
        for st in &mut states {
            if !st.put_aside {
                let c = st.palette.colors()[st.id as usize % st.palette.len()];
                st.color = Some(c);
            }
        }
        let pc_before: Vec<NodeId> = states
            .iter()
            .filter(|s| s.put_aside && s.uncolored())
            .map(|s| s.id)
            .collect();
        let states = color_put_aside(&mut driver, states).unwrap();
        for &v in &pc_before {
            assert!(
                states[v as usize].color.is_some(),
                "PC node {v} left uncolored"
            );
        }
        // Distinct colors among adjacent PC members.
        for &v in &pc_before {
            for &u in &states[v as usize].pc_neighbors {
                assert_ne!(
                    states[v as usize].color, states[u as usize].color,
                    "PC conflict {v}–{u}"
                );
            }
        }
    }

    #[test]
    fn cross_clique_sampled_neighbors_cancel() {
        // Two K6 cliques joined by one edge (5–6): if both endpoints
        // sample, both drop. Force sampling with ps = 0.5 over many seeds
        // and just verify the invariant that adjacent PC nodes never
        // belong to different cliques.
        let mut b = graphs::GraphBuilder::new(12);
        for base in [0u32, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.add_edge(5, 6);
        let g = b.build();
        let profile = ParamProfile::laptop();
        for seed in 0..10 {
            let states: Vec<NodeState> = (0..g.n())
                .map(|v| {
                    let d = g.degree(v as NodeId);
                    let list: Vec<u64> = (0..=(d as u64 + 2)).collect();
                    let cid = if v < 6 { 0 } else { 6 };
                    let mut st = NodeState::new(
                        v as NodeId,
                        Palette::new(list),
                        ColorCodec::new(&profile, 1, g.n(), 16, d),
                        d,
                    );
                    st.active = true;
                    st.neighbor_active = vec![true; d];
                    st.class = AcdClass::Dense;
                    st.clique = Some(cid);
                    st.neighbor_clique = g
                        .neighbors(v as NodeId)
                        .iter()
                        .map(|&u| Some(if u < 6 { 0 } else { 6 }))
                        .collect();
                    st.clique_size = 6;
                    st.leader = Some(cid);
                    st.leader_adjacent = v as NodeId != cid;
                    st.is_inlier = v as NodeId != cid;
                    st.low_slack_clique = true;
                    st
                })
                .collect();
            let mut driver = Driver::new(&g, SimConfig::seeded(seed));
            let states = select_put_aside(&mut driver, states, &profile, 6).unwrap();
            if states[5].put_aside {
                assert!(
                    !states[6].put_aside,
                    "seed {seed}: adjacent cross-clique PC"
                );
            }
        }
    }
}
