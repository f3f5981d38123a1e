//! Parameter profiles: every constant of the D1LC pipeline in one place.
//!
//! The paper's constants (`log⁷ n` degree threshold, `ℓ = log^{2.1} Δ`,
//! `p_g = 1/10`, `α = 1/12`, `β = 1/3`, …) are tuned for asymptotics; at
//! laptop scale `log⁷ n` exceeds `n` itself. [`ParamProfile::paper`] keeps
//! the verbatim formulas for documentation and formula-level tests, while
//! [`ParamProfile::laptop`] uses the same *shapes* with constants that let
//! every code path (sparse, uneven, dense, put-aside, shattering) actually
//! fire on graphs with `n ≤ 10⁵` (see DESIGN.md §12.2).

/// All tunable constants of the D1LC pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParamProfile {
    /// `GenerateSlack` participation probability `p_g` (Alg. 10).
    pub pg: f64,
    /// ACD accuracy ε for the balanced/friend predicates (Def. 2).
    pub eps_acd: f64,
    /// Accuracy of the `EstimateSimilarity` calls inside the ACD.
    pub sim_eps: f64,
    /// Window cap for the ACD's similarity signatures (§4.2 claims the
    /// decomposition works with `log n` bandwidth; the laptop profile caps
    /// the signature at a few hundred bits accordingly).
    pub sim_sigma_cap: u64,
    /// `MultiTrial` hash parameter α (paper: 1/12).
    pub mt_alpha: f64,
    /// `MultiTrial` hash parameter β (paper: 1/3).
    pub mt_beta: f64,
    /// Base window bits per `log₂ n` for MultiTrial (σ = this · log₂ n).
    pub mt_sigma_per_log_n: u64,
    /// Lower/upper clamps on the MultiTrial window σ.
    pub mt_sigma_clamp: (u64, u64),
    /// SlackColor ladder exponent κ ∈ (1/s_min, 1] (Alg. 15).
    pub kappa: f64,
    /// Number of initial `TryRandomColor` rounds in SlackColor ("for O(1)
    /// rounds do TryRandomColor").
    pub slackcolor_initial_trials: u32,
    /// Exponent `e` of the degree-threshold function `T(x) = ⌈log₂ x⌉^e`
    /// (paper: 7).
    pub degree_threshold_exp: f64,
    /// Floor for the degree threshold (below it, the low-degree fallback
    /// phase takes over).
    pub degree_threshold_floor: usize,
    /// Exponent of the low-slack threshold `ℓ = ⌈log₂ Δ⌉^e` (paper: 2.1).
    pub ell_exp: f64,
    /// Clamps on ℓ.
    pub ell_clamp: (u64, u64),
    /// Put-aside sampling constant: `p_s = ℓ²/(c·Δ_C)` (paper: c = 48).
    pub putaside_c: f64,
    /// Number of random-color-trial rounds in the low-degree fallback
    /// phase before the deterministic cleanup.
    pub fallback_trials: u32,
    /// Exponent `d` of the color-hash space `M = (n+1)^d` (App. D.3;
    /// paper: ≥ 6).
    pub color_hash_d: u32,
    /// Hash colors on the wire when the declared color width exceeds this
    /// many bits (below it raw colors are cheap enough).
    pub hash_colors_above_bits: u32,
    /// `V_start` threshold ε̂ (App. D: slack / slack-neighbor fraction).
    pub eps_start: f64,
    /// Alg. 15 line-2 entry factor: drop out of SlackColor when
    /// `s(v) < factor·d̂(v)` (paper: 2.0; 0.0 disables the check and lets
    /// the ladder's own progress checks evict non-progressors).
    pub slack_entry_factor: f64,
    /// Whether BAD nodes (no slack, no slack-rich neighbors) skip straight
    /// to the cleanup (paper: true; at laptop scale slack amounts are tiny
    /// integers, so the laptop profile lets them try SlackColor anyway).
    pub bad_to_cleanup: bool,
    /// Family index width in bits for all representative families.
    pub family_bits: u32,
    /// Run §5's uniform (advice-free) implementations: Alg. 5's pairwise
    /// hash and σ-multiset window in every `MultiTrial`, and Alg. 6's
    /// buddy test in the ACD. Off, both use representative hash families
    /// (Alg. 4 and the similarity-estimate ACD).
    pub uniform: bool,
}

impl ParamProfile {
    /// The verbatim paper constants. **Not** meant to color laptop-scale
    /// graphs (the degree ladder immediately collapses: `log⁷ n > n`); it
    /// exists so the formulas themselves are testable and the asymptotic
    /// claims documented.
    pub fn paper() -> Self {
        ParamProfile {
            pg: 0.1,
            eps_acd: 0.1,
            sim_eps: 0.05,
            sim_sigma_cap: u64::MAX,
            mt_alpha: 1.0 / 12.0,
            mt_beta: 1.0 / 3.0,
            mt_sigma_per_log_n: 540, // 45·α⁻¹ = 540: Claim 1's constant
            mt_sigma_clamp: (1, u64::MAX),
            kappa: 0.5,
            slackcolor_initial_trials: 3,
            degree_threshold_exp: 7.0,
            degree_threshold_floor: 2,
            ell_exp: 2.1,
            ell_clamp: (1, u64::MAX),
            putaside_c: 48.0,
            fallback_trials: 0,
            color_hash_d: 6,
            hash_colors_above_bits: 0, // always hash
            eps_start: 0.1,
            slack_entry_factor: 2.0,
            bad_to_cleanup: true,
            family_bits: 24,
            uniform: false,
        }
    }

    /// Laptop-scale constants (default for tests, examples and benches).
    pub fn laptop() -> Self {
        ParamProfile {
            pg: 0.1,
            eps_acd: 0.25,
            // Coarser similarity ε means a smaller hash range λ relative
            // to the window σ, hence *lower* estimator variance per bit —
            // the buddy test needs coarse discrimination only.
            sim_eps: 0.5,
            sim_sigma_cap: 512,
            mt_alpha: 1.0 / 12.0,
            mt_beta: 1.0 / 3.0,
            mt_sigma_per_log_n: 12,
            mt_sigma_clamp: (96, 512),
            kappa: 0.5,
            slackcolor_initial_trials: 3,
            degree_threshold_exp: 2.0,
            degree_threshold_floor: 24,
            ell_exp: 1.2,
            ell_clamp: (4, 64),
            putaside_c: 48.0,
            fallback_trials: 48,
            color_hash_d: 6,
            hash_colors_above_bits: 40,
            eps_start: 0.1,
            slack_entry_factor: 0.0,
            bad_to_cleanup: false,
            family_bits: 16,
            uniform: false,
        }
    }

    /// MultiTrial window σ for an `n`-node graph.
    pub fn mt_sigma(&self, n: usize) -> u64 {
        let log_n = u64::from(64 - (n.max(2) as u64).leading_zeros());
        (self.mt_sigma_per_log_n * log_n).clamp(self.mt_sigma_clamp.0, self.mt_sigma_clamp.1)
    }

    /// The degree-range threshold `T(x) = max(floor, ⌈log₂ x⌉^e)`: a phase
    /// handling degrees up to `x` covers `[T(x), x]` (paper: `[log⁷x, x]`).
    pub fn degree_threshold(&self, x: usize) -> usize {
        if x < 2 {
            return self.degree_threshold_floor;
        }
        let log_x = (x as f64).log2().ceil();
        (log_x.powf(self.degree_threshold_exp) as usize).max(self.degree_threshold_floor)
    }

    /// The low-slack threshold `ℓ` (paper: `log^{2.1} Δ`, Appendix C).
    pub fn ell(&self, delta: usize) -> u64 {
        let log_d = (delta.max(2) as f64).log2().ceil();
        (log_d.powf(self.ell_exp) as u64).clamp(self.ell_clamp.0, self.ell_clamp.1)
    }

    /// The descending ladder of phase degree bounds: `Δ, T(Δ), T(T(Δ)), …`
    /// down to the floor. Phase `i` handles original degrees in
    /// `(ladder[i+1], ladder[i]]`; degrees ≤ the last entry fall to the
    /// low-degree fallback.
    pub fn degree_ladder(&self, delta: usize) -> Vec<usize> {
        let mut ladder = vec![delta.max(1)];
        loop {
            let cur = *ladder.last().expect("ladder is never empty");
            let next = self.degree_threshold(cur);
            if next >= cur || next <= self.degree_threshold_floor {
                break;
            }
            ladder.push(next);
        }
        ladder
    }
}

impl Default for ParamProfile {
    fn default() -> Self {
        Self::laptop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_degree_threshold_is_log_to_the_seventh() {
        let p = ParamProfile::paper();
        // x = 2^10: T(x) = 10^7.
        assert_eq!(p.degree_threshold(1024), 10_000_000);
        // Which exceeds any laptop-scale n — documenting why the laptop
        // profile exists.
        assert!(p.degree_threshold(1 << 20) > (1 << 20));
    }

    #[test]
    fn laptop_ladder_descends() {
        let p = ParamProfile::laptop();
        let ladder = p.degree_ladder(5000);
        assert!(ladder.windows(2).all(|w| w[1] < w[0]), "ladder {ladder:?}");
        assert_eq!(ladder[0], 5000);
        // T(5000) = ceil(log2 5000)² = 13² = 169.
        assert_eq!(ladder[1], 169);
    }

    #[test]
    fn ladder_of_tiny_graph_is_single_phase() {
        let p = ParamProfile::laptop();
        assert_eq!(p.degree_ladder(10), vec![10]);
    }

    #[test]
    fn sigma_is_clamped() {
        let p = ParamProfile::laptop();
        assert_eq!(p.mt_sigma(2), 96);
        assert!(p.mt_sigma(1 << 30) <= 512);
    }

    #[test]
    fn ell_tracks_delta() {
        let p = ParamProfile::laptop();
        assert!(p.ell(4096) >= p.ell(16));
        assert!(p.ell(1 << 30) <= 64);
        let paper = ParamProfile::paper();
        // log2(1024) = 10 → 10^2.1 ≈ 125.
        assert_eq!(paper.ell(1024), 125);
    }

    #[test]
    fn default_is_laptop() {
        assert_eq!(ParamProfile::default(), ParamProfile::laptop());
    }
}
