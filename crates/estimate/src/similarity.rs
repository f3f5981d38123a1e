//! `EstimateSimilarity(ε)` — Algorithm 1, Lemma 2.
//!
//! Two parties holding sets `S_u, S_v ⊆ U` estimate `|S_u ∩ S_v|` within
//! `ε·max(|S_u|, |S_v|)` using `O(1)` message flights of
//! `O(ε⁻⁴ log(1/ν) + log log|U| + log max(|S_u|,|S_v|))` bits:
//!
//! 1. scale the sets up by `k` if they are too small (step 2–3);
//! 2. jointly pick a representative hash function `h` (step 5) — realized
//!    by the lower-id party drawing the family index and sending it;
//! 3. exchange `h(T_u)`, `h(T_v)` where `T_u = S_u ¬_h S_u` (the window
//!    image of the collision-free part, a σ-bit bitmap, step 6);
//! 4. return `|h(T_u) ∩ h(T_v)|·λ/(σ·k)` (step 7).
//!
//! # Signing cost
//!
//! A signature hashes the whole scaled set `S' = S × [k]`, and in the
//! CONGEST protocols every node signs its neighbourhood once per incident
//! edge, each edge under its own family member. The hash splits into an
//! element-only stage and a member stage ([`prand::premix`],
//! [`RepHash::finish`]), so a node premixes `S'` once into a table
//! ([`premix_scaled`], one per distinct `k`, see [`PremixTables`]) and
//! [`window_signature`] pays only the member stage per element and edge,
//! deciding the σ-window with one compare ([`RepHash::window_hit`]). The
//! tables are transient: they live for the round that signs.

use crate::scheme::SimilarityScheme;
use congest::BitTally;
use prand::{premix, RepHash, RepHashFamily};
use rand::Rng;

/// Outcome of one `EstimateSimilarity` execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimilarityEstimate {
    /// The estimate of `|S_u ∩ S_v|`.
    pub estimate: f64,
    /// Communication transcript (Lemma 2's cost claim).
    pub tally: BitTally,
}

/// Run `EstimateSimilarity` on sets `su`, `sv` (sorted, deduplicated).
///
/// `seed` derives the shared hash family (public advice); `rng` supplies
/// the joint randomness of step 5 (in CONGEST the lower-id endpoint draws
/// it and sends the index, which is what the tally charges).
///
/// # Panics
///
/// Panics (debug only) if `su` or `sv` is unsorted.
///
/// # Example
///
/// ```
/// use estimate::{estimate_similarity, SimilarityScheme};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let su: Vec<u64> = (0..200).collect();
/// let sv: Vec<u64> = (100..300).collect();
/// let mut rng = StdRng::seed_from_u64(7);
/// let out = estimate_similarity(&SimilarityScheme::practical(0.25), &su, &sv, 42, &mut rng);
/// assert!((out.estimate - 100.0).abs() <= 0.25 * 200.0 + 1e-9);
/// ```
pub fn estimate_similarity<R: Rng + ?Sized>(
    scheme: &SimilarityScheme,
    su: &[u64],
    sv: &[u64],
    seed: u64,
    rng: &mut R,
) -> SimilarityEstimate {
    debug_assert!(su.windows(2).all(|w| w[0] < w[1]), "su must be sorted");
    debug_assert!(sv.windows(2).all(|w| w[0] < w[1]), "sv must be sorted");
    let mut tally = BitTally::new();
    // Step 1: empty sets have empty intersections.
    if su.is_empty() || sv.is_empty() {
        return SimilarityEstimate {
            estimate: 0.0,
            tally,
        };
    }
    let setup = EdgeSetup::new(scheme, su.len(), sv.len(), seed);
    let h = setup.pick_hash(rng, &mut tally);
    let bu = window_signature(&h, &premix_scaled(su, setup.k));
    let bv = window_signature(&h, &premix_scaled(sv, setup.k));
    // Step 6: exchange the σ-bit signatures.
    tally.exchange(setup.sigma());
    let j = intersection_size(&bu, &bv);
    SimilarityEstimate {
        estimate: setup.descale(j),
        tally,
    }
}

/// Shared per-edge setup: scale factor, family, σ — everything both
/// parties derive from `(scheme, |S_u|, |S_v|, seed)` without
/// communication. Public so downstream protocols (the almost-clique
/// decomposition in the `d1lc` crate) can reuse Alg. 1's machinery.
#[derive(Clone, Copy, Debug)]
pub struct EdgeSetup {
    /// The shared representative hash family for this edge.
    pub family: RepHashFamily,
    /// The Alg. 1 step-2 scale-up factor.
    pub k: u64,
}

impl EdgeSetup {
    /// Derive the setup both endpoints compute without communication.
    pub fn new(scheme: &SimilarityScheme, su_len: usize, sv_len: usize, seed: u64) -> Self {
        let max_len = su_len.max(sv_len);
        let k = scheme.scale_factor(max_len);
        let params = scheme.rep_params(max_len * k as usize);
        EdgeSetup {
            family: RepHashFamily::new(seed, params),
            k,
        }
    }

    /// Step 5: joint hash choice; the index ride costs `⌈log₂ F⌉` bits in
    /// one direction.
    pub fn pick_hash<R: Rng + ?Sized>(&self, rng: &mut R, tally: &mut BitTally) -> RepHash {
        let index = self.family.sample_index(rng);
        tally.a_to_b(u64::from(self.family.index_bits()));
        self.family.member(index)
    }

    /// The observation window σ (signature length in bits).
    pub fn sigma(&self) -> u64 {
        self.family.params().sigma
    }

    /// Step 7's rescaling: window count → intersection estimate.
    pub fn descale(&self, window_count: usize) -> f64 {
        let p = self.family.params();
        window_count as f64 * p.lambda as f64 / (p.sigma as f64 * self.k as f64)
    }
}

/// Alg. 1's scaled-up set `S' = S × [k]` (element `x` becomes `x·k + i`
/// for `i ∈ [k]`; the universe is relabeled injectively, callers keep
/// colors below `2^63/k`) with every element [`premix`]ed: the table
/// [`window_signature`] signs under any member of any family.
pub fn premix_scaled(s: &[u64], k: u64) -> Vec<u64> {
    let mut table = Vec::with_capacity(s.len() * k as usize);
    for &x in s {
        table.extend((0..k).map(|i| premix(x * k + i)));
    }
    table
}

/// Compute the σ-bit signature `h(T)` with `T = S' ¬_h S'` from the
/// premixed scaled set `premixed` ([`premix_scaled`] of `S` with the
/// edge's `k`).
///
/// Because the isolated-set operator is applied with `A = B = S'`, a
/// window bit is set iff **exactly one** element of `S'` hashes to it, so
/// the signature is computed in a single pass over the table with a
/// once/twice bit pair — no sort, no per-edge hash map, and per element
/// only the member stage of the hash and one compare; the rare window
/// hits alone are reduced to a bit position (the equivalence with
/// `isolated` + `window_bitmap` is pinned by a test). This is the inner
/// loop of the ACD similarity estimates, evaluated per directed edge.
pub fn window_signature(h: &RepHash, premixed: &[u64]) -> Vec<u64> {
    let words = h.sigma().div_ceil(64) as usize;
    let mut once = vec![0u64; words];
    let mut twice = vec![0u64; words];
    for &p in premixed {
        if let Some(hv) = h.window_hit(p) {
            let (w, bit) = ((hv / 64) as usize, 1u64 << (hv % 64));
            twice[w] |= once[w] & bit;
            once[w] |= bit;
        }
    }
    for (o, t) in once.iter_mut().zip(&twice) {
        *o &= !t;
    }
    once
}

/// One node's [`premix_scaled`] tables of one set, one per distinct scale
/// factor `k`, each built on first use. A node signs every incident edge
/// from the table of that edge's `k`; a program keeps the tables only for
/// the round that signs.
#[derive(Debug)]
pub struct PremixTables<'a> {
    set: &'a [u64],
    tables: Vec<(u64, Vec<u64>)>,
}

impl<'a> PremixTables<'a> {
    /// No tables yet for `set`.
    pub fn new(set: &'a [u64]) -> Self {
        PremixTables {
            set,
            tables: Vec::new(),
        }
    }

    /// The premixed `set × [k]`.
    pub fn get(&mut self, k: u64) -> &[u64] {
        let at = match self.tables.iter().position(|&(tk, _)| tk == k) {
            Some(at) => at,
            None => {
                self.tables.push((k, premix_scaled(self.set, k)));
                self.tables.len() - 1
            }
        };
        &self.tables[at].1
    }
}

/// The pre-fusion [`window_signature`] on the unmixed set `s`:
/// materialize the scaled set, sort a copy, apply the isolated-set
/// operator, pack the bitmap, all through [`RepHash::hash`]. The test
/// oracle the premixed kernel is pinned against.
#[cfg(test)]
fn window_signature_reference(setup: &EdgeSetup, h: &RepHash, s: &[u64]) -> Vec<u64> {
    if setup.k == 1 {
        // Force the general (hash-map) isolated path, as the original
        // always took: pass a distinct, sorted copy as `b`.
        let mut sorted = s.to_vec();
        sorted.sort_unstable();
        let t = h.isolated(s, &sorted);
        return h.window_bitmap(&t);
    }
    let scaled: Vec<u64> = s
        .iter()
        .flat_map(|&x| (0..setup.k).map(move |i| x * setup.k + i))
        .collect();
    let mut sorted = scaled.clone();
    sorted.sort_unstable();
    let t = h.isolated(&scaled, &sorted);
    h.window_bitmap(&t)
}

/// `|h(T_u) ∩ h(T_v)|` from the two bitmaps.
pub fn intersection_size(bu: &[u64], bv: &[u64]) -> usize {
    bu.iter()
        .zip(bv)
        .map(|(a, b)| (a & b).count_ones() as usize)
        .sum()
}

/// Ground truth `|S_u ∩ S_v|` for sorted slices (test/benchmark helper).
pub fn exact_intersection(su: &[u64], sv: &[u64]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < su.len() && j < sv.len() {
        match su[i].cmp(&sv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_once(su: &[u64], sv: &[u64], eps: f64, seed: u64, trial: u64) -> SimilarityEstimate {
        let mut rng = StdRng::seed_from_u64(trial);
        estimate_similarity(&SimilarityScheme::practical(eps), su, sv, seed, &mut rng)
    }

    /// The premixed once/twice signature must equal the pre-fusion
    /// `isolated(S', S')` + `window_bitmap` composition on random
    /// inputs: set size and spacing, the ACD's and a finer ε, scale-up
    /// on (`scale_cap` 16, so k > 1 on small sets) and off
    /// (`scale_cap` 1, k = 1), and the edge seed. Each case premixes its
    /// set once and signs that one table under several family members,
    /// as a node reuses its table across edges.
    #[test]
    fn window_signature_matches_isolated_bitmap_reference() {
        let mut rng = StdRng::seed_from_u64(0x5167);
        let mut scaled_cases = 0;
        for case in 0..300 {
            let eps = if rng.gen_bool(0.5) { 0.5 } else { 1.0 / 12.0 };
            let scale_cap = if case % 2 == 0 { 16 } else { 1 };
            let scheme = SimilarityScheme {
                sigma_cap: 512,
                scale_cap,
                ..SimilarityScheme::practical(eps)
            };
            let len = rng.gen_range(0usize..600);
            let spacing = rng.gen_range(1u64..50);
            let mut x = rng.gen_range(0u64..1000);
            let s: Vec<u64> = (0..len)
                .map(|_| {
                    x += rng.gen_range(1..=spacing);
                    x
                })
                .collect();
            let other_len = rng.gen_range(1usize..600);
            let setup = EdgeSetup::new(&scheme, len.max(1), other_len, rng.gen());
            let table = premix_scaled(&s, setup.k);
            assert_eq!(table.len(), s.len() * setup.k as usize);
            for _ in 0..4 {
                let index = setup.family.sample_index(&mut rng);
                let h = setup.family.member(index);
                assert_eq!(
                    window_signature(&h, &table),
                    window_signature_reference(&setup, &h, &s),
                    "case {case}: len={len} spacing={spacing} eps={eps} index={index} k={}",
                    setup.k
                );
            }
            if scale_cap == 1 {
                assert_eq!(setup.k, 1, "scale_cap 1 must pin k");
            }
            scaled_cases += usize::from(setup.k > 1);
        }
        assert!(scaled_cases > 100, "only {scaled_cases} cases had k > 1");
    }

    #[test]
    fn empty_sets_give_zero() {
        let out = run_once(&[], &[1, 2, 3], 0.25, 1, 1);
        assert_eq!(out.estimate, 0.0);
        assert_eq!(out.tally.total_bits(), 0);
    }

    #[test]
    fn identical_sets_estimate_their_size() {
        let s: Vec<u64> = (0..500).collect();
        let mut ok = 0;
        for trial in 0..20 {
            let out = run_once(&s, &s, 0.25, 9, trial);
            if (out.estimate - 500.0).abs() <= 0.25 * 500.0 {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 trials within ε bound");
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let su: Vec<u64> = (0..400).collect();
        let sv: Vec<u64> = (1000..1400).collect();
        let mut ok = 0;
        for trial in 0..20 {
            let out = run_once(&su, &sv, 0.25, 5, trial);
            if out.estimate <= 0.25 * 400.0 {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 trials within ε bound");
    }

    #[test]
    fn half_overlap_is_recovered() {
        let su: Vec<u64> = (0..600).collect();
        let sv: Vec<u64> = (300..900).collect();
        let mut ok = 0;
        for trial in 0..30 {
            let out = run_once(&su, &sv, 0.25, 3, trial);
            if (out.estimate - 300.0).abs() <= 0.25 * 600.0 {
                ok += 1;
            }
        }
        assert!(ok >= 27, "only {ok}/30 trials within ε bound");
    }

    #[test]
    fn small_sets_use_scale_up() {
        // Sets of size 8 trigger k > 1; estimates should still be sane.
        let su: Vec<u64> = (0..8).collect();
        let sv: Vec<u64> = (4..12).collect();
        let mut total = 0.0;
        let trials = 50;
        for trial in 0..trials {
            total += run_once(&su, &sv, 0.5, 17, trial).estimate;
        }
        let mean = total / trials as f64;
        assert!((mean - 4.0).abs() < 3.0, "mean estimate {mean}, truth 4");
    }

    #[test]
    fn message_cost_matches_lemma2_shape() {
        // One index flight + two σ-bit signatures.
        let su: Vec<u64> = (0..300).collect();
        let sv: Vec<u64> = (0..300).collect();
        let scheme = SimilarityScheme::practical(0.25);
        let mut rng = StdRng::seed_from_u64(0);
        let out = estimate_similarity(&scheme, &su, &sv, 1, &mut rng);
        let setup = EdgeSetup::new(&scheme, 300, 300, 1);
        let expected = u64::from(setup.family.index_bits()) + 2 * setup.sigma();
        assert_eq!(out.tally.total_bits(), expected);
        assert_eq!(out.tally.flights(), 3);
    }

    #[test]
    fn exact_intersection_helper() {
        assert_eq!(exact_intersection(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(exact_intersection(&[], &[1]), 0);
        assert_eq!(exact_intersection(&[5], &[5]), 1);
    }

    #[test]
    fn deterministic_given_seed_and_rng() {
        let su: Vec<u64> = (0..100).collect();
        let sv: Vec<u64> = (50..150).collect();
        let a = run_once(&su, &sv, 0.25, 2, 7);
        let b = run_once(&su, &sv, 0.25, 2, 7);
        assert_eq!(a, b);
    }
}
