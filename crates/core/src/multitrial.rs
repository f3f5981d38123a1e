//! `MultiTrial(x)` — Algorithm 4, Lemma 6.
//!
//! A node tries up to `x = Θ(log n)` palette colors in **one** message
//! exchange of `O(log n)` bits per edge, using representative hash
//! functions:
//!
//! 0. `v` picks `h_v` from the shared family for `λ_v = 6|Ψ_v|` and
//!    broadcasts `(λ_v, i_v)`;
//! 1. `v` draws `X_v`: `x` random colors from `Ψ_v ¬_{h_v} Ψ_v` (palette
//!    colors with a unique in-window hash). For each participating
//!    neighbor `u`, `v` sends the σ-bit bitmap `b_{v→u}` marking which
//!    window values of `h_u` the colors of `X_v` occupy;
//! 2. `v` adopts a `ψ ∈ X_v` with `b_{u→v}[h_v(ψ)] = 0` for all `u` — no
//!    neighbor tried anything hashing there, so no neighbor can adopt `ψ`
//!    this round (the exclusion is *mutual*: if `u` tried `ψ` too, both
//!    see the bit set and both abstain). Adoptions are announced;
//! 3. everyone digests the announcements.
//!
//! Lemma 6: if `x ≤ |Ψ_v|/(2|N(v)|)`, one execution colors `v` with
//! probability `≥ 1 − (7/8)^x − 2ν`.

use crate::config::ParamProfile;
use crate::passes::{announce_adoption, digest_adoption, StatePass};
use crate::state::NodeState;
use crate::wire::{tags, Wire};
use congest::message::bits_for_range;
use congest::{inbox_positions, Ctx, Program};
use graphs::Color;
use prand::mix::mix2;
use prand::{bitmap_get, RepHash, RepHashFamily, RepParams};
use rand::seq::SliceRandom;

/// Shared hash-family lookup: the family for range `λ` under the global
/// MultiTrial seed. Every node derives identical families, so announcing
/// `(λ, index)` identifies a function.
pub fn family_for_lambda(
    profile: &ParamProfile,
    seed: u64,
    n: usize,
    lambda: u64,
) -> RepHashFamily {
    let sigma = profile.mt_sigma(n).min(lambda);
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

/// One `MultiTrial(x)` execution (4 rounds).
#[derive(Debug)]
pub struct MultiTrialPass {
    st: NodeState,
    x: u32,
    profile: ParamProfile,
    seed: u64,
    n: usize,
    pass_name: &'static str,
    my_hash: Option<RepHash>,
    /// `(λ_u, index_u)` for each participating neighbor position.
    neighbor_hash: Vec<Option<(u64, u64)>>,
    tried: Vec<Color>,
    done: bool,
}

impl MultiTrialPass {
    /// Try up to `x` colors for this node.
    pub fn new(
        st: NodeState,
        x: u32,
        profile: ParamProfile,
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
        // (λ_v, i_v): λ ≤ 6(Δ+1) ≤ 6n values, plus the family index.
        bits_for_range(6 * self.n as u64 + 7) as u32 + self.profile.family_bits
    }
}

impl Program for MultiTrialPass {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.done {
            return;
        }
        match ctx.round() {
            0 => {
                self.neighbor_hash = vec![None; ctx.degree()];
                if self.participates() {
                    let lambda = lambda_for_palette(self.st.palette.len());
                    let family = family_for_lambda(&self.profile, self.seed, self.n, lambda);
                    let index = family.sample_index(ctx.rng());
                    self.my_hash = Some(family.member(index));
                    ctx.broadcast(Wire::MtHash {
                        lambda,
                        index,
                        bits: self.header_bits(),
                    });
                }
            }
            1 => {
                for (pos, _, msg) in inbox_positions(ctx.neighbors(), ctx.inbox()) {
                    if let Wire::MtHash { lambda, index, .. } = msg {
                        self.neighbor_hash[pos] = Some((*lambda, *index));
                    }
                }
                let Some(h) = self.my_hash else { return };
                // X_v ← x random colors of Ψ_v ¬_h Ψ_v.
                let palette = self.st.palette.colors();
                let mut isolated = h.isolated(palette, palette);
                isolated.shuffle(ctx.rng());
                isolated.truncate(self.x as usize);
                self.tried = isolated;
                if self.tried.is_empty() {
                    return;
                }
                // Per participating neighbor: the bitmap over [σ_{λ_u}].
                for pos in 0..ctx.neighbors().len() {
                    let Some((lambda_u, index_u)) = self.neighbor_hash[pos] else {
                        continue;
                    };
                    let fam = family_for_lambda(&self.profile, self.seed, self.n, lambda_u);
                    let hu = fam.member(index_u);
                    let words = hu.window_bitmap(&self.tried);
                    ctx.send(
                        ctx.neighbors()[pos],
                        Wire::Bitmap {
                            tag: tags::TRIED,
                            words,
                            bits: hu.sigma(),
                        },
                    );
                }
            }
            2 => {
                if let Some(h) = self.my_hash {
                    if !self.tried.is_empty() {
                        // Collect neighbors' bitmaps (missing = tried nothing).
                        let blocked = |psi: Color| {
                            let hv = h.hash(psi);
                            ctx.inbox().iter().any(|(_, msg)| {
                                matches!(msg, Wire::Bitmap { words, .. }
                                    if bitmap_get(words, hv))
                            })
                        };
                        let winner = self.tried.iter().copied().find(|&psi| !blocked(psi));
                        if let Some(psi) = winner {
                            self.st.adopt(psi, self.pass_name);
                            announce_adoption(&self.st, ctx, psi);
                        }
                    }
                }
            }
            _ => {
                for (pos, _, msg) in inbox_positions(ctx.neighbors(), ctx.inbox()) {
                    if let Wire::Color {
                        tag: tags::ADOPTED,
                        payload,
                        ..
                    } = msg
                    {
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

impl StatePass for MultiTrialPass {
    fn into_state(self) -> NodeState {
        self.st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph, NodeId};

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
        states: Vec<NodeState>,
        x: u32,
        seed: u64,
    ) -> (Vec<NodeState>, congest::RunReport) {
        let profile = ParamProfile::laptop();
        let programs: Vec<_> = states
            .into_iter()
            .map(|st| MultiTrialPass::new(st, x, profile, 99, g.n(), "mt"))
            .collect();
        let (programs, report) = congest::run(g, programs, SimConfig::seeded(seed)).unwrap();
        (
            programs.into_iter().map(StatePass::into_state).collect(),
            report,
        )
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
        let g = gen::cycle(16);
        let (_, report) = run_multitrial(&g, states_with_extra(&g, 10), 4, 1);
        assert_eq!(report.rounds, 4);
    }

    #[test]
    fn no_conflicts_ever() {
        for seed in 0..5 {
            let g = gen::complete(10);
            let (states, _) = run_multitrial(&g, states_with_extra(&g, 4), 3, seed);
            assert_proper(&g, &states);
        }
    }

    #[test]
    fn high_slack_nodes_color_quickly() {
        // Lemma 6 needs x ≤ |Ψ_v|/(2|N(v)|): with palettes of ~d+200
        // colors the cap comfortably admits x = 8, and one MultiTrial
        // should color nearly everyone.
        let g = gen::gnp(80, 0.15, 3);
        let (states, _) = run_multitrial(&g, states_with_extra(&g, 200), 8, 5);
        assert_proper(&g, &states);
        let colored = states.iter().filter(|s| s.color.is_some()).count();
        assert!(
            colored * 10 >= g.n() * 8,
            "only {colored}/{} colored",
            g.n()
        );
    }

    #[test]
    fn success_rate_grows_with_x() {
        // Lemma 6 shape: within the cap x ≤ |Ψ_v|/(2|N(v)|), trying more
        // colors helps. K9 with 64-color palettes: cap = 64/16 = 4.
        let trials = 60u64;
        let mut succ = [0usize; 2];
        for (xi, &x) in [1u32, 4].iter().enumerate() {
            for t in 0..trials {
                let g = gen::complete(9);
                let (states, _) = run_multitrial(&g, states_with_extra(&g, 55), x, 100 + t);
                succ[xi] += states.iter().filter(|s| s.color.is_some()).count();
            }
        }
        assert!(
            succ[1] > succ[0],
            "x=4 ({}) should beat x=1 ({})",
            succ[1],
            succ[0]
        );
    }

    #[test]
    fn bandwidth_is_logarithmic() {
        // Strict cap: header + σ bits, far below a λ·|C|-style naive cost.
        let g = gen::gnp(64, 0.2, 7);
        let profile = ParamProfile::laptop();
        let sigma = profile.mt_sigma(64);
        let cap = sigma + 64;
        let programs: Vec<_> = states_with_extra(&g, 8)
            .into_iter()
            .map(|st| MultiTrialPass::new(st, 6, profile, 3, g.n(), "mt"))
            .collect();
        let cfg = congest::SimConfig {
            bandwidth: congest::Bandwidth::Strict(cap),
            ..SimConfig::seeded(2)
        };
        let result = congest::run(&g, programs, cfg);
        assert!(result.is_ok(), "exceeded {cap} bits: {:?}", result.err());
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
        let g = gen::path(3);
        let mut states = states_with_extra(&g, 5);
        for st in &mut states {
            st.active = false;
        }
        let (states, _) = run_multitrial(&g, states, 4, 9);
        assert!(states.iter().all(|s| s.color.is_none()));
    }
}
