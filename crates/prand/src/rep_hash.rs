//! Representative hash function families (Lemma 1) and the set operators of
//! Proposition 1.
//!
//! # Simulated advice
//!
//! Lemma 1 is an existence result: *some* family of
//! `F = Θ(βλν⁻¹ log|U|)` functions is representative, and the paper's
//! non-uniform algorithms assume nodes share such a family as advice. We
//! realize the advice as a **seeded pseudorandom family**: member `i` of
//! family `(seed, λ)` hashes `x` to `bounded(mix4(seed, λ, i, x), λ)`. A
//! uniformly random family is representative with overwhelming probability
//! (this is exactly how Lemma 1 is proven), so the seeded family preserves
//! the statistical behaviour the algorithms rely on, and the communication
//! cost is unchanged — nodes exchange the `⌈log₂ F⌉`-bit member index.
//! Experiment E10 validates the `(A,B)`-good fraction empirically.
//!
//! This family has no structure to exploit: hashing a set under a member
//! costs one evaluation per element. Alg. 1's signatures use the
//! sorted-range family of [`crate::range_hash`] instead, whose window hits
//! on one point set form one arc; `MultiTrial` and the four-cycle finder
//! keep this one.
//!
//! # Notation (§3.1 of the paper)
//!
//! For a hash function `h`, sets `A, B ⊆ U` and window `σ`:
//!
//! * `A|_h^{≤σ}`   — elements of `A` hashing below `σ` ([`RepHash::low`]);
//! * `A ∧_h^{≤σ} B` — elements of `A|_h^{≤σ}` in collision with some
//!   *other* element of `B` ([`RepHash::colliding`]);
//! * `A ¬_h^{≤σ} B` — elements of `A|_h^{≤σ}` whose hash no other element
//!   of `B` shares ([`RepHash::isolated`]).

use crate::mix::{bounded, mix4};
use crate::params::RepParams;
use rand::Rng;
use std::collections::HashMap;

/// A seeded representative hash family `H = (h_i)_{i∈[F]} ⊆ [λ]^U`.
///
/// # Example
///
/// ```
/// use prand::{RepHashFamily, RepParams};
///
/// let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 96, 16);
/// let family = RepHashFamily::new(42, params);
/// let h = family.member(7);
/// let a: Vec<u64> = (0..100).collect();
/// // Elements of `a` hashing into the window, without collisions inside `a`:
/// let isolated = h.isolated(&a, &a);
/// assert!(isolated.iter().all(|x| a.contains(x)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepHashFamily {
    seed: u64,
    params: RepParams,
}

impl RepHashFamily {
    /// The family identified by `seed` with the given parameters.
    pub fn new(seed: u64, params: RepParams) -> Self {
        RepHashFamily { seed, params }
    }

    /// The family's parameters.
    pub fn params(&self) -> &RepParams {
        &self.params
    }

    /// Member `index` of the family.
    ///
    /// # Panics
    ///
    /// Panics if `index >= F`.
    pub fn member(&self, index: u64) -> RepHash {
        assert!(
            index < self.params.family_size,
            "index {index} out of family range"
        );
        RepHash {
            seed: self.seed,
            lambda: self.params.lambda,
            sigma: self.params.sigma,
            index,
        }
    }

    /// Draw a uniform member index (the `⌈log₂F⌉`-bit value the parties
    /// exchange).
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.params.family_size)
    }

    /// Bits needed to communicate a member index.
    pub fn index_bits(&self) -> u32 {
        self.params.index_bits()
    }
}

/// One member of a [`RepHashFamily`]: a function `U → [0, λ)` with an
/// associated observation window `[0, σ)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepHash {
    seed: u64,
    lambda: u64,
    sigma: u64,
    index: u64,
}

impl RepHash {
    /// Hash `x` into `[0, λ)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        bounded(mix4(self.seed, self.lambda, self.index, x), self.lambda)
    }

    /// Output range λ.
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// Observation window σ.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// The member index within its family.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Whether `x` hashes into the observation window (`h(x) < σ`).
    #[inline]
    pub fn in_window(&self, x: u64) -> bool {
        self.hash(x) < self.sigma
    }

    /// `A|_h^{≤σ}`: the elements of `a` hashing into the window.
    pub fn low(&self, a: &[u64]) -> Vec<u64> {
        a.iter().copied().filter(|&x| self.in_window(x)).collect()
    }

    /// `h(A|_h^{≤σ})`: the *hash values* below σ attained by `a`, sorted
    /// and deduplicated. This is what a node actually transmits (as a
    /// σ-bit bitmap).
    pub fn low_image(&self, a: &[u64]) -> Vec<u64> {
        let mut img: Vec<u64> = a
            .iter()
            .map(|&x| self.hash(x))
            .filter(|&h| h < self.sigma)
            .collect();
        img.sort_unstable();
        img.dedup();
        img
    }

    /// `A ∧_h^{≤σ} B`: elements `x ∈ A` with `h(x) < σ` such that some
    /// element of `B \ {x}` has the same hash.
    ///
    /// `b` must be sorted (as produced by the graph/palette substrate);
    /// this is asserted in debug builds.
    pub fn colliding(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "b must be sorted");
        let counts = self.window_counts(b);
        a.iter()
            .copied()
            .filter(|&x| {
                let h = self.hash(x);
                if h >= self.sigma {
                    return false;
                }
                match counts.get(&h) {
                    None => false,
                    Some(&c) => {
                        if b.binary_search(&x).is_ok() {
                            c >= 2
                        } else {
                            c >= 1
                        }
                    }
                }
            })
            .collect()
    }

    /// `A ¬_h^{≤σ} B`: elements of `A|_h^{≤σ}` not in collision with any
    /// other element of `B` — i.e. `low(a)` minus `colliding(a, b)`.
    ///
    /// `b` must be sorted.
    ///
    /// When `a` and `b` are the *same slice* (the `S ¬_h S` self-join,
    /// the hot case in `MultiTrial` and the similarity estimates), a
    /// one-pass fast path applies: `x` survives iff `h(x) < σ` and no
    /// other element shares its window value, tracked with a once/twice
    /// bit pair — each element hashed exactly once, no hash-map scratch,
    /// no per-element binary search. Results are identical to the
    /// general path (pinned by a test).
    pub fn isolated(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        if std::ptr::eq(a, b) {
            let words = self.sigma.div_ceil(64) as usize;
            let mut once = vec![0u64; words];
            let mut twice = vec![0u64; words];
            let mut hashes = Vec::with_capacity(a.len());
            for &x in a {
                let h = self.hash(x);
                hashes.push(h);
                if h < self.sigma {
                    let (w, bit) = ((h / 64) as usize, 1u64 << (h % 64));
                    twice[w] |= once[w] & bit;
                    once[w] |= bit;
                }
            }
            return a
                .iter()
                .zip(&hashes)
                .filter(|&(_, &h)| {
                    h < self.sigma && twice[(h / 64) as usize] & (1 << (h % 64)) == 0
                })
                .map(|(&x, _)| x)
                .collect();
        }
        debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "b must be sorted");
        let counts = self.window_counts(b);
        a.iter()
            .copied()
            .filter(|&x| {
                let h = self.hash(x);
                if h >= self.sigma {
                    return false;
                }
                match counts.get(&h) {
                    None => true,
                    Some(&c) => {
                        if b.binary_search(&x).is_ok() {
                            c == 1
                        } else {
                            false
                        }
                    }
                }
            })
            .collect()
    }

    /// Pack the window image of `xs` into a `σ`-bit bitmap (`σ/64` words):
    /// bit `i` is set iff some element hashes to `i`. This is the message
    /// format of `MultiTrial` (Alg. 4, line 4).
    pub fn window_bitmap(&self, xs: &[u64]) -> Vec<u64> {
        let mut bits = vec![0u64; self.sigma.div_ceil(64) as usize];
        self.mark_window(xs, &mut bits);
        bits
    }

    /// Set, in the `σ/64`-word bitmap `bits`, the window bit of every
    /// element of `xs` that hashes into the window (what
    /// [`RepHash::window_bitmap`] returns, written into the caller's
    /// words).
    pub fn mark_window(&self, xs: &[u64], bits: &mut [u64]) {
        for &x in xs {
            let h = self.hash(x);
            if h < self.sigma {
                bits[(h / 64) as usize] |= 1 << (h % 64);
            }
        }
    }

    /// Multiplicity of each window hash value over `b`.
    fn window_counts(&self, b: &[u64]) -> HashMap<u64, u32> {
        let mut counts = HashMap::new();
        for &x in b {
            let h = self.hash(x);
            if h < self.sigma {
                *counts.entry(h).or_insert(0u32) += 1;
            }
        }
        counts
    }
}

/// Read bit `i` of a bitmap produced by [`RepHash::window_bitmap`].
#[inline]
pub fn bitmap_get(bits: &[u64], i: u64) -> bool {
    let word = (i / 64) as usize;
    word < bits.len() && bits[word] & (1 << (i % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn family() -> RepHashFamily {
        let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 96, 16);
        RepHashFamily::new(0xfeed, params)
    }

    #[test]
    fn members_are_deterministic_and_distinct() {
        let f = family();
        let h1 = f.member(3);
        let h2 = f.member(4);
        assert_eq!(h1.hash(99), f.member(3).hash(99));
        let same = (0..200).filter(|&x| h1.hash(x) == h2.hash(x)).count();
        assert!(same < 20, "members look identical: {same} agreements");
    }

    /// The same-slice fast path must agree with the general path
    /// (including on duplicate elements).
    #[test]
    fn isolated_self_join_fast_path_matches_general() {
        let f = family();
        for index in [0u64, 2, 5] {
            let h = f.member(index);
            let a: Vec<u64> = (0..400u64).map(|i| i * 3).collect();
            let b = a.clone();
            assert_eq!(h.isolated(&a, &a), h.isolated(&a, &b), "index {index}");
            let mut d: Vec<u64> = (0..100u64).map(|i| i * 5).collect();
            d.push(250);
            d.sort_unstable();
            let db = d.clone();
            assert_eq!(h.isolated(&d, &d), h.isolated(&d, &db), "index {index}");
            assert_eq!(h.isolated(&[], &[]).len(), 0);
        }
    }

    #[test]
    fn hash_respects_lambda() {
        let f = family();
        let h = f.member(0);
        for x in 0..5000u64 {
            assert!(h.hash(x) < h.lambda());
        }
    }

    #[test]
    fn low_matches_in_window() {
        let f = family();
        let h = f.member(1);
        let a: Vec<u64> = (0..300).collect();
        let low = h.low(&a);
        assert!(low.iter().all(|&x| h.in_window(x)));
        let low_set: HashSet<u64> = low.iter().copied().collect();
        for &x in &a {
            assert_eq!(h.in_window(x), low_set.contains(&x));
        }
    }

    #[test]
    fn low_size_concentrates() {
        // E[|A|_h|] = σ|A|/λ; check it is within a factor 2 for a few members.
        let f = family();
        let a: Vec<u64> = (0..300).collect();
        let expected = f.params().sigma as f64 * a.len() as f64 / f.params().lambda as f64;
        for i in 0..20 {
            let low = f.member(i).low(&a);
            let got = low.len() as f64;
            assert!(
                got > expected / 2.0 && got < expected * 2.0,
                "member {i}: |low| = {got}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn partition_low_into_colliding_and_isolated() {
        // A|_h = (A ∧ A) ⊔ (A ¬ A) when B = A.
        let f = family();
        let a: Vec<u64> = (0..250).collect();
        for i in [0u64, 5, 11] {
            let h = f.member(i);
            let low: HashSet<u64> = h.low(&a).into_iter().collect();
            let coll: HashSet<u64> = h.colliding(&a, &a).into_iter().collect();
            let iso: HashSet<u64> = h.isolated(&a, &a).into_iter().collect();
            assert!(coll.is_disjoint(&iso));
            let union: HashSet<u64> = coll.union(&iso).copied().collect();
            assert_eq!(union, low);
        }
    }

    #[test]
    fn proposition1_eq1_collision_image_halves() {
        // |h(A ∧ A)| ≤ |A ∧ A| / 2.
        let f = family();
        let a: Vec<u64> = (0..400).collect();
        for i in 0..10 {
            let h = f.member(i);
            let coll = h.colliding(&a, &a);
            let img: HashSet<u64> = coll.iter().map(|&x| h.hash(x)).collect();
            assert!(2 * img.len() <= coll.len(), "member {i}");
        }
    }

    #[test]
    fn proposition1_eq2_isolated_image_is_injective() {
        // A ⊆ B ⇒ |h(A ¬ B)| = |A ¬ B|.
        let f = family();
        let b: Vec<u64> = (0..400).collect();
        let a: Vec<u64> = (0..150).collect();
        for i in 0..10 {
            let h = f.member(i);
            let iso = h.isolated(&a, &b);
            let img: HashSet<u64> = iso.iter().map(|&x| h.hash(x)).collect();
            assert_eq!(img.len(), iso.len(), "member {i}");
        }
    }

    #[test]
    fn proposition1_eq3_monotonicity() {
        // B ⊆ C ⇒ (A ∧ B) ⊆ (A ∧ C) and (A ¬ C) ⊆ (A ¬ B).
        let f = family();
        let a: Vec<u64> = (0..200).collect();
        let b: Vec<u64> = (0..100).collect();
        let c: Vec<u64> = (0..300).collect();
        for i in 0..10 {
            let h = f.member(i);
            let and_b: HashSet<u64> = h.colliding(&a, &b).into_iter().collect();
            let and_c: HashSet<u64> = h.colliding(&a, &c).into_iter().collect();
            assert!(and_b.is_subset(&and_c), "member {i}: ∧ not monotone");
            let not_b: HashSet<u64> = h.isolated(&a, &b).into_iter().collect();
            let not_c: HashSet<u64> = h.isolated(&a, &c).into_iter().collect();
            assert!(not_c.is_subset(&not_b), "member {i}: ¬ not antitone");
        }
    }

    #[test]
    fn bitmap_roundtrip() {
        let f = family();
        let h = f.member(2);
        let xs: Vec<u64> = (0..500).collect();
        let bits = h.window_bitmap(&xs);
        for &x in &xs {
            let hv = h.hash(x);
            if hv < h.sigma() {
                assert!(bitmap_get(&bits, hv));
            }
        }
        // Bits not covered by any hash must be clear.
        let hit: HashSet<u64> = xs
            .iter()
            .map(|&x| h.hash(x))
            .filter(|&v| v < h.sigma())
            .collect();
        for i in 0..h.sigma() {
            assert_eq!(bitmap_get(&bits, i), hit.contains(&i), "bit {i}");
        }
    }

    #[test]
    fn colliding_detects_cross_set_collisions() {
        // Construct b so that some a-element certainly collides: use the
        // same element value (hash equality guaranteed), which must NOT
        // count (collision must be with a *different* element)…
        let f = family();
        let h = f.member(9);
        let a = vec![42u64];
        // b = {42}: the only shared hash comes from 42 itself → no collision.
        let b_same = vec![42u64];
        assert!(h.colliding(&a, &b_same).is_empty());
        // Find some y ≠ 42 with h(y) == h(42): then {y} collides with 42.
        if h.in_window(42) {
            let target = h.hash(42);
            if let Some(y) = (0..200_000u64).find(|&y| y != 42 && h.hash(y) == target) {
                let b = vec![y];
                assert_eq!(h.colliding(&a, &b), vec![42]);
                assert!(h.isolated(&a, &b).is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of family range")]
    fn member_index_bounds_checked() {
        let f = family();
        let _ = f.member(f.params().family_size);
    }

    #[test]
    fn empirical_goodness_fraction() {
        // Miniature E10: for a random pair (A, B) with |A| ≥ αλ, check that
        // most members satisfy the two Lemma 1 inequalities.
        let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 128, 10);
        let f = RepHashFamily::new(7, params);
        let a: Vec<u64> = (0..150).collect(); // |A| = 150 ≥ αλ = 50
        let b: Vec<u64> = (100..250).collect();
        let sigma = params.sigma as f64;
        let lambda = params.lambda as f64;
        let beta = params.beta;
        let mu = sigma * a.len() as f64 / lambda;
        let mut good = 0;
        let total = 256u64;
        for i in 0..total {
            let h = f.member(i);
            let low = h.low(&a).len() as f64;
            let coll = h.colliding(&a, &b).len() as f64;
            if (low - mu).abs() <= beta * mu && coll <= 2.0 * mu * beta {
                good += 1;
            }
        }
        assert!(
            good as f64 >= 0.75 * total as f64,
            "only {good}/{total} members were (A,B)-good"
        );
    }
}
