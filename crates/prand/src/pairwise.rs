//! Pairwise-independent hash families (explicit construction, §5.1).
//!
//! The classic construction over the Mersenne prime `p = 2⁶¹ − 1`:
//! `h_{a,b}(x) = ((a·x + b) mod p) mod λ` with `a ∈ [1, p)`, `b ∈ [0, p)`.
//! For distinct `x₁, x₂ < p` the pair `(h(x₁), h(x₂))` is uniform over
//! `[p]²` before the final reduction, giving collision probability at most
//! `(1 + ε)/λ` with `ε ≤ λ/p` — an *ε-almost pairwise-independent* family
//! in the sense used by the paper's uniform implementations (Alg. 5–6).
//!
//! The family is seeded: member `i` derives `(a, b)` from `(seed, i)`, so
//! communicating a member costs an index of `family_bits` bits, matching
//! the `O(log λ + log log |C| + log(1/ε))`-bit descriptions the paper cites
//! (Problem 3.4 in \[Vad12\]).

use crate::mix::{mix3, mix64};
use rand::Rng;

/// The Mersenne prime `2^61 − 1` used as the field modulus.
pub const P61: u64 = (1 << 61) - 1;

/// A seeded ε-almost pairwise-independent hash family `U → [0, λ)` with
/// `U = [0, 2^61 − 1)`.
///
/// # Example
///
/// ```
/// use prand::PairwiseFamily;
///
/// let family = PairwiseFamily::new(1, 256, 16);
/// let h = family.member(3);
/// assert!(h.hash(12345) < 256);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairwiseFamily {
    seed: u64,
    lambda: u64,
    family_bits: u32,
}

impl PairwiseFamily {
    /// Family hashing into `[0, lambda)` with `2^family_bits` members.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is zero or `≥ p`, or `family_bits > 62`.
    pub fn new(seed: u64, lambda: u64, family_bits: u32) -> Self {
        assert!(lambda > 0, "lambda must be positive");
        assert!(lambda < P61, "lambda must be below the field modulus");
        assert!(family_bits <= 62, "family_bits too large");
        PairwiseFamily {
            seed,
            lambda,
            family_bits,
        }
    }

    /// Output range λ.
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// Number of members `2^family_bits`.
    pub fn family_size(&self) -> u64 {
        1u64 << self.family_bits
    }

    /// Bits to communicate a member index.
    pub fn index_bits(&self) -> u32 {
        self.family_bits
    }

    /// Member `index`: coefficients `(a, b)` derived from `(seed, index)`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn member(&self, index: u64) -> PairwiseHash {
        assert!(
            index < self.family_size(),
            "index {index} out of family range"
        );
        let a = mix3(self.seed, index, 0x1234_5678) % (P61 - 1) + 1;
        let b = mix3(self.seed, index, 0x8765_4321) % P61;
        PairwiseHash {
            a,
            b,
            lambda: self.lambda,
        }
    }

    /// Draw a uniform member index.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.family_size())
    }

    /// The asymmetry trick of §5: the party that knows `domain` draws up
    /// to `tries` member indices and keeps the first whose
    /// [`PairwiseHash::collision_count`] on `domain` is at most `cap`,
    /// drawing no further; if none is, the one with the fewest
    /// collisions, the first among equals.
    ///
    /// # Panics
    ///
    /// Panics if `tries` is zero.
    pub fn pick_low_collision<R: Rng + ?Sized>(
        &self,
        domain: &[u64],
        cap: usize,
        tries: u32,
        rng: &mut R,
    ) -> u64 {
        assert!(tries > 0, "at least one try");
        let mut best = (usize::MAX, 0);
        for _ in 0..tries {
            let index = self.sample_index(rng);
            let collisions = self.member(index).collision_count(domain);
            if collisions <= cap {
                return index;
            }
            if collisions < best.0 {
                best = (collisions, index);
            }
        }
        best.1
    }

    /// Upper bound on the almost-pairwise-independence slack ε ≈ λ/p.
    pub fn epsilon(&self) -> f64 {
        self.lambda as f64 / P61 as f64
    }
}

/// One member `h_{a,b}` of a [`PairwiseFamily`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    lambda: u64,
}

impl PairwiseHash {
    /// Hash `x` into `[0, λ)`. Inputs are first folded into the field
    /// `[0, 2^61−1)` by a full-avalanche mix (a fixed public injection
    /// would require `x < p`; the mix spreads larger inputs uniformly,
    /// adding a `2^-61`-order term to ε).
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let x = mix64(x) % P61;
        mulmod_p61(self.a, x).wrapping_add(self.b) % P61 % self.lambda
    }

    /// Output range λ.
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// Number of elements of `domain` whose hash collides with another
    /// element of `domain` (the measure
    /// [`PairwiseFamily::pick_low_collision`] keeps low).
    pub fn collision_count(&self, domain: &[u64]) -> usize {
        let mut hashes: Vec<u64> = domain.iter().map(|&x| self.hash(x)).collect();
        hashes.sort_unstable();
        let mut colliding = 0usize;
        let mut i = 0;
        while i < hashes.len() {
            let mut j = i + 1;
            while j < hashes.len() && hashes[j] == hashes[i] {
                j += 1;
            }
            if j - i >= 2 {
                colliding += j - i;
            }
            i = j;
        }
        colliding
    }
}

/// `a·b mod (2^61 − 1)` via 128-bit arithmetic and Mersenne reduction.
#[inline]
fn mulmod_p61(a: u64, b: u64) -> u64 {
    let prod = (a as u128) * (b as u128);
    let lo = (prod & ((1u128 << 61) - 1)) as u64;
    let hi = (prod >> 61) as u64;
    let mut s = lo.wrapping_add(hi % P61);
    if s >= P61 {
        s -= P61;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mulmod_matches_naive() {
        for (a, b) in [(3u64, 5u64), (P61 - 1, P61 - 1), (1 << 60, 12345)] {
            let expected = ((a as u128 * b as u128) % P61 as u128) as u64;
            assert_eq!(mulmod_p61(a, b), expected, "a={a} b={b}");
        }
    }

    #[test]
    fn hashes_in_range() {
        let f = PairwiseFamily::new(9, 100, 8);
        let h = f.member(5);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < 100);
        }
    }

    #[test]
    fn members_differ() {
        let f = PairwiseFamily::new(9, 1 << 20, 8);
        let (h1, h2) = (f.member(0), f.member(1));
        let agreements = (0..100u64).filter(|&x| h1.hash(x) == h2.hash(x)).count();
        assert!(agreements < 5);
    }

    #[test]
    fn pairwise_collision_probability() {
        // Over random members, Pr[h(x1) = h(x2)] ≈ 1/λ for fixed x1 ≠ x2.
        let lambda = 64u64;
        let f = PairwiseFamily::new(33, lambda, 14);
        let trials = f.family_size();
        let (x1, x2) = (123u64, 987_654u64);
        let collisions = (0..trials)
            .filter(|&i| f.member(i).hash(x1) == f.member(i).hash(x2))
            .count();
        let rate = collisions as f64 / trials as f64;
        let ideal = 1.0 / lambda as f64;
        assert!(
            rate < 2.0 * ideal + 0.002,
            "collision rate {rate}, ideal {ideal}"
        );
    }

    #[test]
    fn marginal_is_roughly_uniform() {
        // For fixed x, h(x) over the family should cover [λ] evenly.
        let lambda = 16u64;
        let f = PairwiseFamily::new(5, lambda, 12);
        let mut counts = vec![0usize; lambda as usize];
        for i in 0..f.family_size() {
            counts[f.member(i).hash(42) as usize] += 1;
        }
        let expected = f.family_size() as f64 / lambda as f64;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.3 * expected,
                "value {v}: count {c} vs {expected}"
            );
        }
    }

    #[test]
    fn collision_count_counts_all_colliding_elements() {
        let f = PairwiseFamily::new(1, 2, 4); // λ=2 forces many collisions
        let h = f.member(0);
        let domain: Vec<u64> = (0..10).collect();
        let c = h.collision_count(&domain);
        // With λ = 2 and 10 elements, at least 8 elements must collide.
        assert!(c >= 8, "collision count {c}");
    }

    #[test]
    fn collision_count_zero_on_singleton() {
        let f = PairwiseFamily::new(1, 1000, 4);
        assert_eq!(f.member(0).collision_count(&[7]), 0);
    }

    #[test]
    fn low_collision_hash_is_found() {
        // Alg. 5's setting: a 62-color palette, λ = 6|Ψ| and cap λ/3.
        let palette: Vec<u64> = (0..62).map(|i| i * 101).collect();
        let lambda = 6 * palette.len() as u64;
        let family = PairwiseFamily::new(crate::mix::mix2(1, lambda ^ 0x9191), lambda, 16);
        let mut rng = rand::rngs::mock::StepRng::new(7, 11);
        let index = family.pick_low_collision(&palette, (lambda / 3) as usize, 24, &mut rng);
        let collisions = family.member(index).collision_count(&palette);
        assert!(
            collisions as u64 <= lambda / 3,
            "{collisions} collisions exceed λ/3"
        );
    }

    #[test]
    fn low_collision_pick_follows_the_rule() {
        use rand::RngCore;
        // With 8 index bits, a step of 2^56 makes draw k (from 0) index
        // k + 1; members 1..=6 collide [9, 6, 6, 8, 8, 6] times on `domain`.
        let family = PairwiseFamily::new(5, 32, 8);
        let domain: Vec<u64> = (0..16).collect();
        let collisions: Vec<usize> = (1..=6)
            .map(|i| family.member(i).collision_count(&domain))
            .collect();
        assert_eq!(collisions, [9, 6, 6, 8, 8, 6]);
        let step = 1u64 << 56;
        // (cap, picked index, draws used)
        for (cap, index, draws) in [
            (9, 1, 1), // the first draw is under the cap
            (6, 2, 2), // the first under the cap, and no draw after it
            (5, 2, 6), // none is: the fewest (6), the first of 2, 3 and 6
        ] {
            let mut rng = rand::rngs::mock::StepRng::new(step, step);
            assert_eq!(
                family.pick_low_collision(&domain, cap, 6, &mut rng),
                index,
                "cap {cap}"
            );
            assert_eq!(rng.next_u64(), (draws + 1) * step, "cap {cap}: draws");
        }
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_zero_lambda() {
        let _ = PairwiseFamily::new(0, 0, 4);
    }
}
