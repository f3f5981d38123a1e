//! `MultiTrial(x)` — Algorithm 4 (Lemma 6) and its uniform form,
//! Algorithm 5 (§5.1).
//!
//! A node tries up to `x = Θ(log n)` palette colors in **one** message
//! exchange of `O(log n)` bits per edge. Each participant `v` announces a
//! hash `h_v` over `[λ_v]`, `λ_v = 6|Ψ_v|`, and a window of σ hash values
//! it observes. [`ParamProfile::uniform`] picks the hash:
//!
//! * Alg. 4: `h_v` is a member of the shared representative family for
//!   `λ_v`, announced as `(λ_v, i_v)`; the window is `[σ]`, and `v` may
//!   try `Ψ_v ¬_{h_v} Ψ_v` (palette colors with a unique in-window hash);
//! * Alg. 5: representative families are only known to *exist*
//!   (Lemma 1), so `h_v` is an explicit ε-almost pairwise-independent
//!   hash that `v` checks has at most `λ_v/3` collisions inside its
//!   palette (the asymmetry trick of §5: one party *verifies* instead of
//!   trusting randomness — [`PairwiseFamily::pick_low_collision`], shared
//!   with Alg. 6). The window is a representative multiset
//!   `S_v ⊆ [λ_v]` of `σ_v = min(σ, λ_v)` values drawn through an
//!   averaging sampler from an `O(log n)`-bit seed (Appendix B). `v`
//!   announces `(λ_v, i_v, multiset seed)` and may try the palette colors
//!   hashing into `S_v`.
//!
//! Both run the same four rounds:
//!
//! 0. `v` announces its hash and window;
//! 1. `v` draws `X_v`: `x` random colors it may try. For each participating
//!    neighbor `u`, `v` sends the σ-bit bitmap `b_{v→u}` marking which
//!    window positions of `u` the colors of `X_v` hash to under `h_u`;
//! 2. `v` adopts a `ψ ∈ X_v` whose window positions no `b_{u→v}` marks —
//!    no neighbor tried anything hashing there, so no neighbor can adopt
//!    `ψ` this round (the exclusion is *mutual*: if `u` tried `ψ` too,
//!    both see the bit set and both abstain). Adoptions are announced;
//! 3. everyone digests the announcements.
//!
//! Lemma 6: if `x ≤ |Ψ_v|/(2|N(v)|)`, one execution colors `v` with
//! probability `≥ 1 − (7/8)^x − 2ν`.

use crate::config::ParamProfile;
use crate::passes::{announce_adoption, digest_adoptions};
use crate::state::NodeState;
use crate::wire::{tags, Wire};
use congest::message::bits_for_range;
use congest::{inbox_positions, Ctx, Program, Words};
use graphs::Color;
use prand::mix::mix2;
use prand::{
    bitmap_get, MultisetSampler, PairwiseFamily, PairwiseHash, RepHash, RepHashFamily, RepParams,
};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// How many members an Alg. 5 participant inspects for a low-collision
/// hash.
const HASH_TRIES: u32 = 24;

/// Shared hash-family lookup: the family for range `λ` under the global
/// MultiTrial seed. Every node derives identical families, so announcing
/// `(λ, index)` identifies a function.
pub fn family_for_lambda(
    profile: &ParamProfile,
    seed: u64,
    n: usize,
    lambda: u64,
) -> RepHashFamily {
    let sigma = window_len(profile, n, lambda);
    let params = RepParams::practical(
        profile.mt_alpha,
        profile.mt_beta,
        lambda,
        sigma,
        profile.family_bits,
    );
    RepHashFamily::new(mix2(seed, lambda), params)
}

/// The `λ_v = 6|Ψ_v|` rule of Alg. 4, line 1.
pub fn lambda_for_palette(palette_len: usize) -> u64 {
    6 * palette_len.max(1) as u64
}

/// The window size σ of a participant with hash range `λ`, under Alg. 4
/// and Alg. 5 alike: what its TRIED bitmaps are sized by.
fn window_len(profile: &ParamProfile, n: usize, lambda: u64) -> u64 {
    profile.mt_sigma(n).min(lambda)
}

/// Alg. 5's shared pairwise family for range `λ`.
fn pairwise_family(profile: &ParamProfile, seed: u64, lambda: u64) -> PairwiseFamily {
    PairwiseFamily::new(mix2(seed, lambda ^ 0x9191), lambda, profile.family_bits)
}

/// Alg. 5's shared sampler of σ-multisets of `[λ]`.
fn window_sampler(profile: &ParamProfile, seed: u64, n: usize, lambda: u64) -> MultisetSampler {
    let sigma = window_len(profile, n, lambda);
    MultisetSampler::new(
        mix2(seed, lambda ^ 0x5e7),
        lambda,
        sigma as u32,
        profile.family_bits.min(20),
    )
}

/// A participant's hash and window, which it and its neighbors rebuild
/// alike from its announcement `(λ, index, multiset seed)`.
#[derive(Debug)]
enum TrialHash {
    /// Alg. 4: a representative member; window position `i` observes
    /// hash value `i < σ`.
    Rep(RepHash),
    /// Alg. 5: a pairwise member and the multiset `S`; window position
    /// `i` observes hash value `window[i]`.
    Pairwise { h: PairwiseHash, window: Vec<u64> },
}

impl TrialHash {
    /// Round 0: a participant with `palette` draws its announcement (the
    /// multiset seed is 0 under Alg. 4).
    fn draw<R: Rng + ?Sized>(
        profile: &ParamProfile,
        seed: u64,
        n: usize,
        palette: &[Color],
        rng: &mut R,
    ) -> (u64, u64, u64) {
        let lambda = lambda_for_palette(palette.len());
        if !profile.uniform {
            let index = family_for_lambda(profile, seed, n, lambda).sample_index(rng);
            return (lambda, index, 0);
        }
        // Alg. 5, line 1: a member with at most λ/3 palette collisions.
        let family = pairwise_family(profile, seed, lambda);
        let index = family.pick_low_collision(palette, (lambda / 3) as usize, HASH_TRIES, rng);
        let set_seed = window_sampler(profile, seed, n, lambda).sample_seed(rng);
        (lambda, index, set_seed)
    }

    /// The hash and window announced as `(lambda, index, set_seed)`.
    fn announced(
        profile: &ParamProfile,
        seed: u64,
        n: usize,
        (lambda, index, set_seed): (u64, u64, u64),
    ) -> Self {
        if !profile.uniform {
            return TrialHash::Rep(family_for_lambda(profile, seed, n, lambda).member(index));
        }
        TrialHash::Pairwise {
            h: pairwise_family(profile, seed, lambda).member(index),
            window: window_sampler(profile, seed, n, lambda)
                .multiset(set_seed)
                .collect(),
        }
    }

    /// The window size σ.
    fn sigma(&self) -> u64 {
        match self {
            TrialHash::Rep(h) => h.sigma(),
            TrialHash::Pairwise { window, .. } => window.len() as u64,
        }
    }

    /// The palette colors the participant may try.
    fn candidates(&self, palette: &[Color]) -> Vec<Color> {
        match self {
            TrialHash::Rep(h) => h.isolated(palette, palette),
            TrialHash::Pairwise { h, window } => {
                // A sorted scratch (binary search) instead of a hash set.
                let mut in_window = window.clone();
                in_window.sort_unstable();
                palette
                    .iter()
                    .copied()
                    .filter(|&c| in_window.binary_search(&h.hash(c)).is_ok())
                    .collect()
            }
        }
    }

    /// Mark, in the zeroed σ-bit bitmap `words`, the window positions
    /// `tried` hashes to.
    fn mark(&self, tried: &[Color], words: &mut [u64]) {
        match self {
            TrialHash::Rep(h) => h.mark_window(tried, words),
            TrialHash::Pairwise { h, window } => {
                // |X_v| is tiny, so a sorted scratch beats a hash set.
                let mut hits: Vec<u64> = tried.iter().map(|&c| h.hash(c)).collect();
                hits.sort_unstable();
                for (i, s) in window.iter().enumerate() {
                    if hits.binary_search(s).is_ok() {
                        words[i / 64] |= 1 << (i % 64);
                    }
                }
            }
        }
    }

    /// Whether `marked` sets a window position that `psi` hashes to.
    fn marked(&self, psi: Color, marked: &[u64]) -> bool {
        match self {
            TrialHash::Rep(h) => bitmap_get(marked, h.hash(psi)),
            TrialHash::Pairwise { h, window } => {
                let y = h.hash(psi);
                window
                    .iter()
                    .enumerate()
                    .any(|(i, &s)| s == y && bitmap_get(marked, i as u64))
            }
        }
    }
}

/// One `MultiTrial(x)` execution (4 rounds), under Alg. 4 or Alg. 5 as
/// the profile's [`ParamProfile::uniform`] says.
#[derive(Debug)]
pub struct MultiTrialPass<'s> {
    st: &'s mut NodeState,
    x: u32,
    profile: &'s ParamProfile,
    seed: u64,
    n: usize,
    pass_name: &'static str,
    my_hash: Option<TrialHash>,
    /// `(λ_u, index_u, multiset seed_u)` for each participating neighbor
    /// position; left empty by a node that does not take part itself.
    neighbor_hash: Vec<Option<(u64, u64, u64)>>,
    tried: Vec<Color>,
    done: bool,
}

impl<'s> MultiTrialPass<'s> {
    /// Try up to `x` colors for this node.
    pub fn new(
        st: &'s mut NodeState,
        x: u32,
        profile: &'s ParamProfile,
        seed: u64,
        n: usize,
        pass_name: &'static str,
    ) -> Self {
        MultiTrialPass {
            st,
            x,
            profile,
            seed,
            n,
            pass_name,
            my_hash: None,
            neighbor_hash: Vec::new(),
            tried: Vec::new(),
            done: false,
        }
    }

    fn participates(&self) -> bool {
        self.st.active && self.st.uncolored() && !self.st.palette.is_empty() && self.x > 0
    }

    fn header_bits(&self) -> u32 {
        // λ ≤ 6(Δ+1) ≤ 6n values, the family index, and Alg. 5's
        // multiset seed.
        let set_seed_bits = if self.profile.uniform {
            self.profile.family_bits.min(20)
        } else {
            0
        };
        bits_for_range(6 * self.n as u64 + 7) as u32 + self.profile.family_bits + set_seed_bits
    }
}

impl Program for MultiTrialPass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match ctx.round() {
            0 => {
                if self.participates() {
                    self.neighbor_hash = vec![None; ctx.degree()];
                    let palette = self.st.palette.colors();
                    let (lambda, index, set_seed) =
                        TrialHash::draw(self.profile, self.seed, self.n, palette, ctx.rng());
                    self.my_hash = Some(TrialHash::announced(
                        self.profile,
                        self.seed,
                        self.n,
                        (lambda, index, set_seed),
                    ));
                    ctx.broadcast(Wire::MtHash {
                        lambda,
                        index,
                        set_seed,
                        bits: self.header_bits(),
                    });
                }
            }
            1 => {
                let Some(h) = &self.my_hash else { return };
                for (pos, _, msg) in inbox_positions(ctx.neighbors(), ctx.inbox()) {
                    if let Wire::MtHash {
                        lambda,
                        index,
                        set_seed,
                        ..
                    } = msg
                    {
                        self.neighbor_hash[pos] = Some((*lambda, *index, *set_seed));
                    }
                }
                // X_v ← x random colors of the candidates.
                let mut tried = h.candidates(self.st.palette.colors());
                tried.shuffle(ctx.rng());
                tried.truncate(self.x as usize);
                self.tried = tried;
                if self.tried.is_empty() {
                    return;
                }
                // Per participating neighbor: the bitmap over its window,
                // each a range of one buffer, in neighbor order.
                let (profile, seed, n) = (self.profile, self.seed, self.n);
                let sigma = |lambda| window_len(profile, n, lambda);
                let words = |lambda| sigma(lambda).div_ceil(64) as usize;
                let participants = || self.neighbor_hash.iter().flatten();
                let len = participants().map(|&(lambda, ..)| words(lambda)).sum();
                let mut buf = Words::zeroed(len);
                let out = Arc::get_mut(&mut buf).expect("a fresh buffer");
                let mut at = 0;
                for &announced in participants() {
                    let hu = TrialHash::announced(profile, seed, n, announced);
                    let len = words(announced.0);
                    hu.mark(&self.tried, &mut out[at..at + len]);
                    at += len;
                }
                let mut at = 0;
                for (&to, announced) in ctx.neighbors().iter().zip(&self.neighbor_hash) {
                    let Some((lambda, ..)) = *announced else {
                        continue;
                    };
                    let len = words(lambda);
                    ctx.send(
                        to,
                        Wire::Bitmap {
                            tag: tags::TRIED,
                            words: Words::range(&buf, at..at + len),
                            bits: sigma(lambda),
                        },
                    );
                    at += len;
                }
            }
            2 => {
                let Some(h) = &self.my_hash else { return };
                if self.tried.is_empty() {
                    return;
                }
                // The neighbors' bitmaps, OR-ed (missing = tried nothing).
                let mut marked = vec![0u64; h.sigma().div_ceil(64) as usize];
                for (_, msg) in ctx.inbox() {
                    if let Wire::Bitmap { words, .. } = msg {
                        marked
                            .iter_mut()
                            .zip(words.iter())
                            .for_each(|(m, w)| *m |= w);
                    }
                }
                let winner = self
                    .tried
                    .iter()
                    .copied()
                    .find(|&psi| !h.marked(psi, &marked));
                if let Some(psi) = winner {
                    self.st.adopt(psi, self.pass_name);
                    announce_adoption(self.st, ctx, psi);
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

    /// A node that does not take part only digests adoptions, in round 3.
    fn wake_round(&self) -> u64 {
        if self.my_hash.is_some() || self.participates() {
            0
        } else {
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph, NodeId};

    /// Alg. 4's profile, then Alg. 5's.
    fn profiles() -> [ParamProfile; 2] {
        let rep = ParamProfile::laptop();
        [
            rep,
            ParamProfile {
                uniform: true,
                ..rep
            },
        ]
    }

    fn states_with_extra(g: &Graph, extra: usize) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..(d + 1 + extra) as u64).map(|i| i * 131).collect();
                let codec = ColorCodec::new(&profile, 7, g.n(), 32, d);
                let mut st = NodeState::new(v as NodeId, Palette::new(list), codec, d);
                st.active = true;
                st.neighbor_active = vec![true; d];
                st
            })
            .collect()
    }

    fn run_multitrial(
        g: &Graph,
        mut states: Vec<NodeState>,
        x: u32,
        profile: ParamProfile,
        seed: u64,
    ) -> (Vec<NodeState>, congest::RunReport) {
        let programs: Vec<_> = states
            .iter_mut()
            .map(|st| MultiTrialPass::new(st, x, &profile, 99, g.n(), "mt"))
            .collect();
        let (_, report) = congest::run(g, programs, SimConfig::seeded(seed)).unwrap();
        (states, report)
    }

    fn assert_proper(g: &Graph, states: &[NodeState]) {
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (states[u as usize].color, states[v as usize].color) {
                assert_ne!(a, b, "conflict on edge ({u},{v})");
            }
        }
    }

    #[test]
    fn multitrial_takes_four_rounds() {
        for profile in profiles() {
            let g = gen::cycle(16);
            let (_, report) = run_multitrial(&g, states_with_extra(&g, 10), 4, profile, 1);
            assert_eq!(report.rounds, 4, "uniform: {}", profile.uniform);
            assert!(report.messages > 0, "uniform: {}", profile.uniform);
        }
    }

    #[test]
    fn no_conflicts_ever() {
        for profile in profiles() {
            for seed in 0..5 {
                let g = gen::complete(10);
                let (states, _) = run_multitrial(&g, states_with_extra(&g, 4), 3, profile, seed);
                assert_proper(&g, &states);
            }
        }
    }

    #[test]
    fn high_slack_nodes_color_quickly() {
        // Lemma 6 needs x ≤ |Ψ_v|/(2|N(v)|): with palettes of ~d+200
        // colors the cap comfortably admits x = 8, and one MultiTrial
        // should color nearly everyone (Alg. 4 at least 80%, Alg. 5, whose
        // hash only has few collisions, at least 70%).
        for profile in profiles() {
            let g = gen::gnp(80, 0.15, 3);
            let (states, _) = run_multitrial(&g, states_with_extra(&g, 200), 8, profile, 5);
            assert_proper(&g, &states);
            let colored = states.iter().filter(|s| s.color.is_some()).count();
            let tenths = if profile.uniform { 7 } else { 8 };
            assert!(
                colored * 10 >= g.n() * tenths,
                "only {colored}/{} colored, uniform: {}",
                g.n(),
                profile.uniform
            );
        }
    }

    #[test]
    fn success_rate_grows_with_x() {
        // Lemma 6 shape: within the cap x ≤ |Ψ_v|/(2|N(v)|), trying more
        // colors helps. K9 with 64-color palettes: cap = 64/16 = 4.
        for profile in profiles() {
            let trials = 60u64;
            let mut succ = [0usize; 2];
            for (xi, &x) in [1u32, 4].iter().enumerate() {
                for t in 0..trials {
                    let g = gen::complete(9);
                    let (states, _) =
                        run_multitrial(&g, states_with_extra(&g, 55), x, profile, 100 + t);
                    succ[xi] += states.iter().filter(|s| s.color.is_some()).count();
                }
            }
            assert!(
                succ[1] > succ[0],
                "x=4 ({}) should beat x=1 ({}), uniform: {}",
                succ[1],
                succ[0],
                profile.uniform
            );
        }
    }

    #[test]
    fn bandwidth_is_logarithmic() {
        // Strict cap: header + σ bits, far below a λ·|C|-style naive cost.
        for profile in profiles() {
            let g = gen::gnp(64, 0.2, 7);
            let cap = profile.mt_sigma(64) + 64;
            let mut states = states_with_extra(&g, 8);
            let programs: Vec<_> = states
                .iter_mut()
                .map(|st| MultiTrialPass::new(st, 6, &profile, 3, g.n(), "mt"))
                .collect();
            let cfg = congest::SimConfig {
                bandwidth: congest::Bandwidth::Strict(cap),
                ..SimConfig::seeded(2)
            };
            let result = congest::run(&g, programs, cfg);
            assert!(
                result.is_ok(),
                "exceeded {cap} bits, uniform: {}: {:?}",
                profile.uniform,
                result.err()
            );
        }
    }

    #[test]
    fn shared_family_is_consistent() {
        let profile = ParamProfile::laptop();
        let f1 = family_for_lambda(&profile, 5, 100, 60);
        let f2 = family_for_lambda(&profile, 5, 100, 60);
        assert_eq!(f1.member(3).hash(42), f2.member(3).hash(42));
        assert_eq!(lambda_for_palette(10), 60);
        assert_eq!(lambda_for_palette(0), 6);
    }

    #[test]
    fn inactive_nodes_try_nothing() {
        for profile in profiles() {
            let g = gen::path(3);
            let mut states = states_with_extra(&g, 5);
            for st in &mut states {
                st.active = false;
            }
            let (states, report) = run_multitrial(&g, states, 4, profile, 9);
            assert!(states.iter().all(|s| s.color.is_none()));
            assert_eq!(report.messages, 0, "uniform: {}", profile.uniform);
        }
    }
}
