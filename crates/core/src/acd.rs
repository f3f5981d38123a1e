//! `ComputeACD` — the almost-clique decomposition (§4.2, Definitions 2
//! and 6).
//!
//! The decomposition partitions the active nodes into `V^{sparse}`,
//! `V^{uneven}` and `V^{dense}`, the latter further partitioned into
//! almost-cliques. Following §4.2 the `ε-friend` predicate is evaluated
//! with `EstimateSimilarity` on every edge (`ε-Buddy`):
//!
//! 1. **Estimate pass** (4 rounds) — Alg. 1 on every active edge with
//!    `S_v` = the active neighborhood of `v`: `estimate`'s
//!    [`NeighborhoodSimilarity`] over the active-edge mask, in [`Wire`];
//! 2. local classification — an edge is a *buddy* iff it is ε-balanced and
//!    the estimated `|N(u) ∩ N(v)|` clears `(1 − 2ε)·min(d_u, d_v)`; a
//!    node is *dense* iff most of its edges are buddies, *uneven* iff its
//!    unevenness `η_v` exceeds `ε·d_v` (Definition 5), else *sparse*;
//! 3. **clique formation** (4 rounds) — dense nodes adopt the minimum id
//!    within distance 2 of the buddy graph as clique id (almost-cliques
//!    have diameter ≤ 2, \[ACK19\]);
//! 4. **size & pruning** (8 rounds) — the hub aggregates `|C|`; members
//!    violating Definition 6's conditions 3–4 are demoted to sparse and
//!    the clique neighborhood view is refreshed.

use crate::clique_comm::{AggOp, CliqueAggregatePass};
use crate::config::ParamProfile;
use crate::driver::Driver;
use crate::state::{AcdClass, NodeState};
use crate::wire::{tags, Wire};
use congest::message::bits_for_range;
use congest::{Ctx, Program, SimError};
use estimate::{NeighborhoodSimilarity, SimilarityScheme, SimilarityTable};
use graphs::NodeId;
use prand::mix::mix2;

/// Pass 1: per-edge similarity estimates over the *active* subgraph —
/// `estimate`'s Alg. 1 protocol on the active edges, over the pass's
/// shared [`SimilarityTable`]. Only an active node runs it; an inactive
/// node builds nothing, sends nothing and is parked until round 3.
#[derive(Debug)]
struct BuddyEstimatePass<'s> {
    st: &'s mut NodeState,
    sim: Option<NeighborhoodSimilarity<'s, Wire>>,
    idle_done: bool,
}

impl<'s> BuddyEstimatePass<'s> {
    fn new(st: &'s mut NodeState, table: &'s SimilarityTable) -> Self {
        let sim = st
            .active
            .then(|| NeighborhoodSimilarity::over(table, st.neighbor_active.clone()));
        BuddyEstimatePass {
            st,
            sim,
            idle_done: false,
        }
    }

    /// Pass 2 at this node: its buddy mask from the per-edge estimates
    /// (all `false` at an inactive node), classifying the node on the
    /// way. An edge is a buddy iff it is ε-balanced and the estimated
    /// intersection clears `(1 − 2ε)·min(d_u, d_v)`.
    fn buddy_mask(self, eps: f64) -> Vec<bool> {
        let st = self.st;
        let degree = st.neighbor_active.len();
        let mut buddy = vec![false; degree];
        if let Some(sim) = &self.sim {
            let (neighbor_adeg, estimates) = (sim.neighbor_degrees(), sim.estimates());
            let dv = st.neighbor_active.iter().filter(|&&a| a).count() as f64;
            for pos in 0..degree {
                if !st.neighbor_active[pos] {
                    continue;
                }
                let du = f64::from(neighbor_adeg[pos]);
                let balanced = dv.min(du) >= (1.0 - eps) * dv.max(du);
                if balanced && estimates[pos] >= (1.0 - 2.0 * eps) * dv.min(du) {
                    buddy[pos] = true;
                }
            }
            classify(st, &buddy, neighbor_adeg, eps);
        }
        buddy
    }
}

impl Program for BuddyEstimatePass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match &mut self.sim {
            Some(sim) => sim.on_round(ctx),
            None => self.idle_done = ctx.round() >= 3,
        }
    }

    fn is_done(&self) -> bool {
        self.sim.as_ref().map_or(self.idle_done, Program::is_done)
    }

    fn wake_round(&self) -> u64 {
        if self.sim.is_some() {
            0
        } else {
            3
        }
    }
}

/// Pass 3: minimum-id propagation over buddy edges (2 hops).
#[derive(Debug)]
struct CliqueFormPass<'s> {
    st: &'s mut NodeState,
    buddy: Vec<bool>,
    cid: NodeId,
    id_bits: u32,
    done: bool,
}

impl<'s> CliqueFormPass<'s> {
    fn new(st: &'s mut NodeState, buddy: Vec<bool>, n: usize) -> Self {
        let cid = st.id;
        CliqueFormPass {
            st,
            buddy,
            cid,
            id_bits: bits_for_range(n as u64) as u32,
            done: false,
        }
    }

    fn dense(&self) -> bool {
        self.st.class == AcdClass::Dense
    }

    fn fold_min(&mut self, ctx: &Ctx<'_, Wire>) {
        for (from, msg) in ctx.inbox() {
            if let Wire::Uint {
                tag: tags::CLIQUE,
                value,
                ..
            } = msg
            {
                let pos = ctx.neighbor_index(from).expect("cid from non-neighbor");
                if self.buddy[pos] {
                    self.cid = self.cid.min(*value as NodeId);
                }
            }
        }
    }

    fn broadcast_cid(&self, ctx: &mut Ctx<'_, Wire>) {
        ctx.broadcast(Wire::Uint {
            tag: tags::CLIQUE,
            value: u64::from(self.cid),
            bits: self.id_bits,
        });
    }
}

impl Program for CliqueFormPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match ctx.round() {
            0 => {
                if self.dense() {
                    self.broadcast_cid(ctx);
                }
            }
            1 | 2 => {
                if self.dense() {
                    self.fold_min(ctx);
                    self.broadcast_cid(ctx);
                }
            }
            _ => {
                // Only dense nodes broadcast in round 2, so this inbox
                // holds every neighbor's final clique id.
                record_neighbor_cliques(self.st, ctx);
                if self.dense() {
                    self.st.clique = Some(self.cid);
                    refresh_clique_counts(self.st);
                }
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    /// A node that is not dense only records its neighbors' clique ids,
    /// in round 3.
    fn wake_round(&self) -> u64 {
        if self.dense() {
            0
        } else {
            3
        }
    }
}

/// Set `neighbor_clique` from this round's `CLIQUE` announcements, by
/// neighbor position: a neighbor that announced nothing is in no clique.
fn record_neighbor_cliques(st: &mut NodeState, ctx: &Ctx<'_, Wire>) {
    st.neighbor_clique.fill(None);
    for (from, msg) in ctx.inbox() {
        if let Wire::Uint {
            tag: tags::CLIQUE,
            value,
            ..
        } = msg
        {
            let pos = ctx.neighbor_index(from).expect("cid from non-neighbor");
            st.neighbor_clique[pos] = Some(*value as NodeId);
        }
    }
}

/// Refresh `nc` / `ext` from the `neighbor_clique` + `neighbor_active`
/// views.
pub(crate) fn refresh_clique_counts(st: &mut NodeState) {
    let mut nc = 0u32;
    let mut ext = 0u32;
    for pos in 0..st.neighbor_clique.len() {
        if !st.neighbor_active[pos] {
            continue;
        }
        if st.clique.is_some() && st.neighbor_clique[pos] == st.clique {
            nc += 1;
        } else {
            ext += 1;
        }
    }
    st.nc = nc;
    st.ext = ext;
}

/// Pass 5: re-announce clique membership after pruning (2 rounds).
#[derive(Debug)]
pub(crate) struct CliqueRefreshPass<'s> {
    st: &'s mut NodeState,
    id_bits: u32,
    done: bool,
}

impl<'s> CliqueRefreshPass<'s> {
    pub(crate) fn new(st: &'s mut NodeState, n: usize) -> Self {
        CliqueRefreshPass {
            st,
            id_bits: bits_for_range(n as u64) as u32 + 1,
            done: false,
        }
    }
}

impl Program for CliqueRefreshPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match ctx.round() {
            0 => {
                if let Some(cid) = self.st.clique {
                    ctx.broadcast(Wire::Uint {
                        tag: tags::CLIQUE,
                        value: u64::from(cid),
                        bits: self.id_bits,
                    });
                }
            }
            _ => {
                record_neighbor_cliques(self.st, ctx);
                refresh_clique_counts(self.st);
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    /// A node in no clique announces nothing in round 0.
    fn wake_round(&self) -> u64 {
        u64::from(self.st.clique.is_none())
    }
}

/// The in-pipeline similarity scheme: §4.2's buddy test needs coarse
/// discrimination only, so the window is capped near the bandwidth
/// (`sim_sigma_cap`) rather than at Lemma 2's accuracy-driven size.
fn similarity_scheme(profile: &ParamProfile) -> SimilarityScheme {
    SimilarityScheme {
        sigma_cap: profile.sim_sigma_cap,
        scale_cap: 16,
        family_bits: profile.family_bits,
        ..SimilarityScheme::practical(profile.sim_eps)
    }
}

/// Run the full ACD over the active nodes: classifies every active node
/// and assembles almost-cliques with verified size bounds. Under
/// [`ParamProfile::uniform`] the buddy test is §5's Alg. 6
/// ([`crate::acd_uniform`]) instead of similarity estimates.
///
/// # Errors
///
/// Propagates engine errors.
pub fn compute_acd(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
    profile: &ParamProfile,
    seed: u64,
) -> Result<Vec<NodeState>, SimError> {
    if profile.uniform {
        return crate::acd_uniform::compute_acd_uniform(driver, states, profile, seed);
    }
    let scheme = similarity_scheme(profile);

    // Pass 1: similarity estimates, over one table of what every node
    // derives from public inputs.
    let masks = states.iter().map(|st| {
        if st.active {
            &st.neighbor_active[..]
        } else {
            &[]
        }
    });
    let table = SimilarityTable::new(scheme, seed, masks);
    let mut programs: Vec<BuddyEstimatePass> = states
        .iter_mut()
        .map(|st| BuddyEstimatePass::new(st, &table))
        .collect();
    driver.run_seeded("acd-estimate", mix2(seed, 0xacd), &mut programs)?;

    // Pass 2: local classification from the per-edge estimates.
    let eps = profile.eps_acd;
    let buddy_masks = programs.into_iter().map(|p| p.buddy_mask(eps)).collect();

    // Passes 3–5: clique formation, size verification, refresh.
    finish_acd(driver, states, buddy_masks, profile, seed)
}

/// Classify one node from its buddy mask and its neighbors' active degrees
/// (shared by the representative-hash and uniform ACD variants).
pub(crate) fn classify(st: &mut NodeState, buddy: &[bool], neighbor_adeg: &[u32], eps: f64) {
    if !st.active {
        return;
    }
    let dv = st.neighbor_active.iter().filter(|&&a| a).count() as f64;
    let buddy_count = buddy.iter().filter(|&&b| b).count() as f64;
    let mut eta = 0.0;
    for (pos, &adeg) in neighbor_adeg.iter().enumerate().take(buddy.len()) {
        if st.neighbor_active[pos] {
            let du = f64::from(adeg);
            eta += (du - dv).max(0.0) / (du + 1.0);
        }
    }
    st.class = if dv > 0.0 && buddy_count >= (1.0 - 2.0 * eps) * dv {
        AcdClass::Dense
    } else if eta >= eps * dv {
        AcdClass::Uneven
    } else {
        AcdClass::Sparse
    };
}

/// The ACD tail shared by both buddy variants: clique formation (min-id
/// over buddy edges), clique-size verification against Definition 6, and
/// the neighborhood-view refresh.
pub(crate) fn finish_acd(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
    buddy_masks: Vec<Vec<bool>>,
    profile: &ParamProfile,
    seed: u64,
) -> Result<Vec<NodeState>, SimError> {
    let n = driver.graph.n();
    let eps = profile.eps_acd;

    // Clique formation.
    let mut masks = buddy_masks.into_iter();
    driver.run_in_place("acd-cliques", &mut states, |st| {
        let mask = masks.next().expect("one mask per node");
        CliqueFormPass::new(st, mask, n)
    })?;

    // Clique sizes via hub aggregation; prune Def. 6 violators.
    let bits = bits_for_range(n as u64) as u32;
    let mut programs: Vec<CliqueAggregatePass> = states
        .iter_mut()
        .map(|st| CliqueAggregatePass::new(st, AggOp::Sum, 1, bits))
        .collect();
    driver.run_seeded("acd-size", mix2(seed, 0xacd2), &mut programs)?;
    let sizes: Vec<Option<u64>> = programs.into_iter().map(|p| p.result).collect();
    for (st, size) in states.iter_mut().zip(sizes) {
        if st.class != AcdClass::Dense {
            continue;
        }
        match size {
            Some(size) => {
                st.clique_size = size as u32;
                let dv = st.neighbor_active.iter().filter(|&&a| a).count() as f64;
                let c = size as f64;
                let ok =
                    dv <= (1.0 + 2.0 * eps) * c && (1.0 + 2.0 * eps) * f64::from(st.nc + 1) >= c;
                if !ok {
                    demote(st);
                }
            }
            None => demote(st),
        }
    }

    driver.run_in_place("acd-refresh", &mut states, |st| {
        CliqueRefreshPass::new(st, n)
    })?;
    Ok(states)
}

fn demote(st: &mut NodeState) {
    st.class = AcdClass::Sparse;
    st.clique = None;
    st.clique_size = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph};

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
    fn disjoint_cliques_are_recovered_exactly() {
        let g = gen::disjoint_cliques(3, 12);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let states = compute_acd(&mut driver, fresh_active(&g), &profile, 7).unwrap();
        for st in &states {
            assert_eq!(st.class, AcdClass::Dense, "node {} not dense", st.id);
            let expected_hub = (st.id / 12) * 12;
            assert_eq!(st.clique, Some(expected_hub), "node {}", st.id);
            assert_eq!(st.clique_size, 12, "node {}", st.id);
            assert_eq!(st.nc, 11);
            assert_eq!(st.ext, 0);
        }
    }

    #[test]
    fn gnp_nodes_are_sparse_or_uneven() {
        // G(n, p) has no almost-cliques; nodes split between sparse and
        // (for below-average degrees) uneven — both non-dense classes are
        // handled by the Alg. 8 path.
        let g = gen::gnp(120, 0.1, 9);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(5));
        let states = compute_acd(&mut driver, fresh_active(&g), &profile, 11).unwrap();
        let dense = states.iter().filter(|s| s.class == AcdClass::Dense).count();
        let sparse = states
            .iter()
            .filter(|s| s.class == AcdClass::Sparse)
            .count();
        assert!(dense <= g.n() / 20, "{dense}/{} spuriously dense", g.n());
        assert!(sparse >= g.n() / 2, "only {sparse}/{} sparse", g.n());
    }

    #[test]
    fn planted_blend_separates_dense_from_sparse() {
        let (g, truth) = gen::planted_acd(3, 20, 0.05, 60, 0.05, 13);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(7));
        let states = compute_acd(&mut driver, fresh_active(&g), &profile, 17).unwrap();
        let mut dense_right = 0;
        let mut dense_total = 0;
        let mut cliques_agree = 0;
        for (v, t) in truth.iter().enumerate() {
            if t.is_some() {
                dense_total += 1;
                if states[v].class == AcdClass::Dense {
                    dense_right += 1;
                    // Same planted clique ⇒ same hub.
                    let mate = (v / 20) * 20;
                    if states[v].clique == states[mate].clique {
                        cliques_agree += 1;
                    }
                }
            }
        }
        assert!(
            dense_right * 10 >= dense_total * 8,
            "{dense_right}/{dense_total} planted members classified dense"
        );
        assert!(
            cliques_agree * 10 >= dense_right * 9,
            "{cliques_agree}/{dense_right} hubs agree"
        );
    }

    #[test]
    fn hub_and_spokes_marks_spokes_uneven_or_sparse() {
        let g = gen::hub_and_spokes(4, 40, 3);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(2));
        let states = compute_acd(&mut driver, fresh_active(&g), &profile, 5).unwrap();
        // Spokes (id ≥ 4) have 1–2 neighbors of enormous degree: never dense.
        for st in states.iter().skip(4) {
            assert_ne!(st.class, AcdClass::Dense, "spoke {} dense", st.id);
        }
        let uneven = states
            .iter()
            .skip(4)
            .filter(|s| s.class == AcdClass::Uneven)
            .count();
        assert!(uneven > 100, "only {uneven} spokes uneven");
    }

    #[test]
    fn inactive_nodes_are_untouched() {
        let g = gen::complete(10);
        let mut states = fresh_active(&g);
        for st in &mut states {
            if st.id >= 5 {
                st.active = false;
            }
            for pos in 0..st.neighbor_active.len() {
                let nb = g.neighbors(st.id)[pos];
                st.neighbor_active[pos] = nb < 5;
            }
        }
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(4));
        let states = compute_acd(&mut driver, states, &profile, 21).unwrap();
        for st in states.iter().skip(5) {
            assert_eq!(st.class, AcdClass::Unclassified);
        }
        // The active half forms its own K5 clique.
        for st in states.iter().take(5) {
            assert_eq!(st.class, AcdClass::Dense, "node {}", st.id);
            assert_eq!(st.clique, Some(0));
            assert_eq!(st.clique_size, 5);
        }
    }
}
