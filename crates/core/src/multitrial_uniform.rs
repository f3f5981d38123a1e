//! Uniform `MultiTrial(x)` — Algorithm 5 (§5.1).
//!
//! The non-uniform `MultiTrial` relies on representative hash families that
//! are only known to *exist* (Lemma 1). The uniform variant replaces them
//! with explicit objects:
//!
//! * an ε-almost **pairwise-independent** hash `h_v` from palette to
//!   `[λ_v]`, chosen by `v` itself to have at most `λ_v/3` collisions
//!   inside its palette (the asymmetry trick of §5: one party *verifies*
//!   instead of trusting randomness —
//!   [`PairwiseFamily::pick_low_collision`], shared with Alg. 6);
//! * a **representative multiset** `S_v ⊆ [λ_v]` of size `σ_v = min(b, λ_v)`
//!   drawn through an averaging sampler with an `O(log n)`-bit seed
//!   (Appendix B).
//!
//! `v` announces `(λ_v, hash index, multiset seed)`, tries `x` random
//! palette colors hashing into `S_v`, and neighbors mark which positions
//! of `S_v` their own tried colors hit. The mutual-exclusion argument is
//! unchanged from Alg. 4, so adoptions remain conflict-free.

use crate::config::ParamProfile;
use crate::passes::{announce_adoption, digest_adoption, StatePass};
use crate::state::NodeState;
use crate::wire::{tags, Wire};
use congest::message::bits_for_range;
use congest::{Ctx, Program};
use graphs::Color;
use prand::mix::mix2;
use prand::{MultisetSampler, PairwiseFamily, PairwiseHash};
use rand::seq::SliceRandom;

/// How many indices a node inspects to find a low-collision hash.
const HASH_TRIES: u32 = 24;

/// The shared pairwise family for range `λ` (all nodes derive the same).
fn pwi_family(profile: &ParamProfile, seed: u64, lambda: u64) -> PairwiseFamily {
    PairwiseFamily::new(mix2(seed, lambda ^ 0x9191), lambda, profile.family_bits)
}

/// The shared multiset sampler for range `λ` with window `σ`.
fn sampler_for(profile: &ParamProfile, seed: u64, lambda: u64, sigma: u64) -> MultisetSampler {
    MultisetSampler::new(
        mix2(seed, lambda ^ 0x5e7),
        lambda,
        sigma as u32,
        profile.family_bits.min(20),
    )
}

/// One uniform `MultiTrial(x)` execution (4 rounds).
#[derive(Debug)]
pub struct UniformMultiTrialPass {
    st: NodeState,
    x: u32,
    profile: ParamProfile,
    seed: u64,
    n: usize,
    pass_name: &'static str,
    my_lambda: u64,
    my_hash: Option<PairwiseHash>,
    my_set_seed: u64,
    /// `(λ_u, hash index, set seed)` per participating neighbor position.
    neighbor_setup: Vec<Option<(u64, u64, u64)>>,
    tried: Vec<Color>,
    done: bool,
}

impl UniformMultiTrialPass {
    /// Try up to `x` colors using only explicit pseudorandom objects.
    pub fn new(
        st: NodeState,
        x: u32,
        profile: ParamProfile,
        seed: u64,
        n: usize,
        pass_name: &'static str,
    ) -> Self {
        UniformMultiTrialPass {
            st,
            x,
            profile,
            seed,
            n,
            pass_name,
            my_lambda: 0,
            my_hash: None,
            my_set_seed: 0,
            neighbor_setup: Vec::new(),
            tried: Vec::new(),
            done: false,
        }
    }

    fn participates(&self) -> bool {
        self.st.active && self.st.uncolored() && !self.st.palette.is_empty() && self.x > 0
    }

    fn sigma(&self, lambda: u64) -> u64 {
        self.profile.mt_sigma(self.n).min(lambda)
    }

    fn header_bits(&self) -> u32 {
        bits_for_range(6 * self.n as u64 + 7) as u32
            + self.profile.family_bits
            + self.profile.family_bits.min(20)
    }
}

impl Program for UniformMultiTrialPass {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.done {
            return;
        }
        match ctx.round() {
            0 => {
                self.neighbor_setup = vec![None; ctx.degree()];
                if self.participates() {
                    self.my_lambda = 6 * self.st.palette.len().max(1) as u64;
                    let family = pwi_family(&self.profile, self.seed, self.my_lambda);
                    // Alg. 5 line 1: a member with at most λ/3 palette
                    // collisions.
                    let idx = family.pick_low_collision(
                        self.st.palette.colors(),
                        (self.my_lambda / 3) as usize,
                        HASH_TRIES,
                        ctx.rng(),
                    );
                    self.my_hash = Some(family.member(idx));
                    let sampler = sampler_for(
                        &self.profile,
                        self.seed,
                        self.my_lambda,
                        self.sigma(self.my_lambda),
                    );
                    self.my_set_seed = sampler.sample_seed(ctx.rng());
                    // (λ, i, seed) in one header (the UintList carries the
                    // triple; its width is the honest sum).
                    ctx.broadcast(Wire::UintList {
                        tag: tags::ACTIVE,
                        values: vec![self.my_lambda, idx, self.my_set_seed],
                        bits_each: self.header_bits() / 3 + 1,
                    });
                }
            }
            1 => {
                for &(from, ref msg) in ctx.inbox() {
                    if let Wire::UintList {
                        tag: tags::ACTIVE,
                        values,
                        ..
                    } = msg
                    {
                        if let [lambda, idx, set_seed] = values[..] {
                            let pos = ctx.neighbor_index(from).expect("setup from non-neighbor");
                            self.neighbor_setup[pos] = Some((lambda, idx, set_seed));
                        }
                    }
                }
                let Some(h) = self.my_hash else { return };
                // X_v ← x random palette colors hashing into S_v. The
                // membership probe runs over a sorted scratch (binary
                // search) instead of a per-round hash set.
                let sigma = self.sigma(self.my_lambda);
                let sampler = sampler_for(&self.profile, self.seed, self.my_lambda, sigma);
                let mut in_set: Vec<u64> = sampler.multiset(self.my_set_seed).collect();
                in_set.sort_unstable();
                let mut candidates: Vec<Color> = self
                    .st
                    .palette
                    .colors()
                    .iter()
                    .copied()
                    .filter(|&c| in_set.binary_search(&h.hash(c)).is_ok())
                    .collect();
                candidates.shuffle(ctx.rng());
                candidates.truncate(self.x as usize);
                self.tried = candidates;
                if self.tried.is_empty() {
                    return;
                }
                // Per participating neighbor: mark the positions of S_u
                // hit by our tried colors through h_u. One sorted scratch
                // is reused across neighbors (|X_v| is tiny, so a binary
                // search beats building a hash set per neighbor).
                let mut hits: Vec<u64> = Vec::with_capacity(self.tried.len());
                for pos in 0..ctx.neighbors().len() {
                    let Some((lambda_u, idx_u, seed_u)) = self.neighbor_setup[pos] else {
                        continue;
                    };
                    let hu = pwi_family(&self.profile, self.seed, lambda_u).member(idx_u);
                    let sigma_u = self.sigma(lambda_u);
                    let sampler_u = sampler_for(&self.profile, self.seed, lambda_u, sigma_u);
                    hits.clear();
                    hits.extend(self.tried.iter().map(|&c| hu.hash(c)));
                    hits.sort_unstable();
                    let mut words = vec![0u64; (sigma_u as usize).div_ceil(64)];
                    for (i, s) in sampler_u.multiset(seed_u).enumerate() {
                        if hits.binary_search(&s).is_ok() {
                            words[i / 64] |= 1 << (i % 64);
                        }
                    }
                    ctx.send(
                        ctx.neighbors()[pos],
                        Wire::Bitmap {
                            tag: tags::TRIED,
                            words,
                            bits: sigma_u,
                        },
                    );
                }
            }
            2 => {
                if let Some(h) = self.my_hash {
                    if !self.tried.is_empty() {
                        let sigma = self.sigma(self.my_lambda);
                        let sampler = sampler_for(&self.profile, self.seed, self.my_lambda, sigma);
                        let positions: Vec<u64> = sampler.multiset(self.my_set_seed).collect();
                        let mut blocked_positions = vec![false; positions.len()];
                        for (_, msg) in ctx.inbox() {
                            if let Wire::Bitmap { words, .. } = msg {
                                for (i, b) in blocked_positions.iter_mut().enumerate() {
                                    if words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0) {
                                        *b = true;
                                    }
                                }
                            }
                        }
                        let free = |psi: Color| {
                            let hv = h.hash(psi);
                            positions
                                .iter()
                                .enumerate()
                                .filter(|&(_, &s)| s == hv)
                                .all(|(i, _)| !blocked_positions[i])
                        };
                        if let Some(psi) = self.tried.iter().copied().find(|&p| free(p)) {
                            self.st.adopt(psi, self.pass_name);
                            announce_adoption(&self.st, ctx, psi);
                        }
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
                        digest_adoption(&mut self.st, pos, *payload, false);
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

impl StatePass for UniformMultiTrialPass {
    fn into_state(self) -> NodeState {
        self.st
    }
}

/// Run one uniform `MultiTrial(x)` over all active nodes.
///
/// # Errors
///
/// Propagates engine errors.
pub fn uniform_multitrial(
    driver: &mut crate::driver::Driver<'_>,
    states: Vec<NodeState>,
    x: u32,
    profile: &ParamProfile,
    seed: u64,
) -> Result<Vec<NodeState>, crate::driver::PassFailure> {
    let n = driver.graph.n();
    let p = *profile;
    driver.run_pass("uniform-multitrial", states, |st| {
        UniformMultiTrialPass::new(st, x, p, seed, n, "uniform-multitrial")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph, NodeId};

    fn states_with_extra(g: &Graph, extra: usize) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..(d + 1 + extra) as u64).map(|i| i * 101).collect();
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(&profile, 7, g.n(), 32, d),
                    d,
                );
                st.active = true;
                st.neighbor_active = vec![true; d];
                st
            })
            .collect()
    }

    fn assert_proper(g: &Graph, states: &[NodeState]) {
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (states[u as usize].color, states[v as usize].color) {
                assert_ne!(a, b, "conflict on ({u},{v})");
            }
        }
    }

    #[test]
    fn uniform_multitrial_is_conflict_free() {
        for seed in 0..5u64 {
            let g = gen::complete(10);
            let profile = ParamProfile::laptop();
            let mut driver = Driver::new(&g, SimConfig::seeded(seed));
            let states =
                uniform_multitrial(&mut driver, states_with_extra(&g, 6), 3, &profile, 9).unwrap();
            assert_proper(&g, &states);
        }
    }

    #[test]
    fn uniform_multitrial_colors_high_slack_nodes() {
        let g = gen::gnp(80, 0.15, 3);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(4));
        let states =
            uniform_multitrial(&mut driver, states_with_extra(&g, 200), 8, &profile, 5).unwrap();
        assert_proper(&g, &states);
        let colored = states.iter().filter(|s| s.color.is_some()).count();
        assert!(
            colored * 10 >= g.n() * 7,
            "only {colored}/{} colored",
            g.n()
        );
    }

    #[test]
    fn uniform_multitrial_takes_four_rounds() {
        let g = gen::cycle(12);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(2));
        let _ = uniform_multitrial(&mut driver, states_with_extra(&g, 10), 4, &profile, 3).unwrap();
        assert_eq!(driver.log.total_rounds(), 4);
    }
}
