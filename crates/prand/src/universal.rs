//! Approximately-universal hash families for large color spaces
//! (Appendix D.3).
//!
//! A `(1+ε)`-approximately universal family satisfies
//! `Pr[h(x₁) = h(x₂)] ≤ (1+ε)/M` for all distinct `x₁, x₂`. The paper uses
//! such a family with `M = Θ(n^d)` so that nodes can announce adopted
//! colors from a color space of size up to `exp(n^Θ(1))` by sending `O(d
//! log n)`-bit hash values, with no collision in any neighborhood w.h.p.
//!
//! Construction: the multiply-shift / field construction reused from
//! [`crate::pairwise`] (a pairwise-independent family is in particular
//! universal). Members are seeded, so a node broadcasts a
//! `family_bits`-bit index once, then `⌈log₂ M⌉` bits per color.

use crate::pairwise::{PairwiseFamily, PairwiseHash};
use rand::Rng;

/// A seeded approximately-universal family `colors → [0, M)`.
///
/// # Example
///
/// ```
/// use prand::ColorHashFamily;
///
/// // Hash 2^40-bit colors into a 2^30 space for a 1000-node graph.
/// let family = ColorHashFamily::for_graph(1000, 3, 7);
/// let h = family.member(12);
/// let img = h.hash(0xdead_beef);
/// assert!(img < family.m());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColorHashFamily {
    inner: PairwiseFamily,
    m: u64,
}

impl ColorHashFamily {
    /// Family hashing into `[0, m)` with `2^family_bits` members.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `family_bits > 62`.
    pub fn new(seed: u64, m: u64, family_bits: u32) -> Self {
        ColorHashFamily {
            inner: PairwiseFamily::new(seed ^ 0x000c_0109, m, family_bits),
            m,
        }
    }

    /// The App. D.3 instantiation: `M = (n+1)^d` (capped at `2^60`, below
    /// the hash field's modulus), which makes any-neighborhood collisions
    /// `n^{-(d-5)}`-unlikely.
    pub fn for_graph(n: usize, d: u32, seed: u64) -> Self {
        let m = (n as u64 + 1).saturating_pow(d).min(1 << 60);
        Self::new(seed, m, 16)
    }

    /// Output space size `M`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Bits per transmitted hash value: `⌈log₂ M⌉`.
    pub fn value_bits(&self) -> u32 {
        64 - self.m.saturating_sub(1).leading_zeros()
    }

    /// Bits to transmit a member index.
    pub fn index_bits(&self) -> u32 {
        self.inner.index_bits()
    }

    /// Member `index` of the family.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn member(&self, index: u64) -> ColorHash {
        ColorHash {
            inner: self.inner.member(index),
        }
    }

    /// Draw a uniform member index.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.inner.sample_index(rng)
    }
}

/// One member of a [`ColorHashFamily`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColorHash {
    inner: PairwiseHash,
}

impl ColorHash {
    /// Hash a color into `[0, M)`.
    #[inline]
    pub fn hash(&self, color: u64) -> u64 {
        self.inner.hash(color)
    }

    /// Whether `hash` is the image of any color in the sorted `palette`,
    /// and if so of which (first match). This is how a receiving node
    /// interprets a hashed color announcement.
    pub fn preimage_in(&self, palette: &[u64], hash: u64) -> Option<u64> {
        palette.iter().copied().find(|&c| self.hash(c) == hash)
    }

    /// Whether the member is injective on `palette` (no collisions) —
    /// App. D.3's no-collision-in-a-neighborhood property, which the
    /// color codec relies on when a receiver removes an announced hash
    /// from its palette: with `M = Θ(n^d)`, a random member is injective
    /// on a node's palette w.h.p. (`no_neighborhood_collisions_whp`
    /// checks it).
    pub fn injective_on(&self, palette: &[u64]) -> bool {
        let mut hs: Vec<u64> = palette.iter().map(|&c| self.hash(c)).collect();
        hs.sort_unstable();
        hs.windows(2).all(|w| w[0] != w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_bits_matches_m() {
        let f = ColorHashFamily::new(1, 1 << 30, 10);
        assert_eq!(f.value_bits(), 30);
        let g = ColorHashFamily::new(1, (1 << 30) + 1, 10);
        assert_eq!(g.value_bits(), 31);
    }

    #[test]
    fn for_graph_scales_with_n_and_d() {
        let f = ColorHashFamily::for_graph(1000, 3, 7);
        assert_eq!(f.m(), 1001u64.pow(3));
    }

    #[test]
    fn no_neighborhood_collisions_whp() {
        // 100 random colors, M = n^3 with n=1000: collisions should be
        // absent for most members.
        let f = ColorHashFamily::for_graph(1000, 3, 3);
        let colors: Vec<u64> = (0..100).map(|i| i * 0x9e37_79b9 + 5).collect();
        let injective = (0..200u64)
            .filter(|&i| f.member(i).injective_on(&colors))
            .count();
        assert!(injective >= 195, "only {injective}/200 members injective");
    }

    #[test]
    fn preimage_lookup() {
        let f = ColorHashFamily::for_graph(100, 3, 9);
        let h = f.member(4);
        let palette = [10u64, 20, 30];
        let target = h.hash(20);
        assert_eq!(h.preimage_in(&palette, target), Some(20));
        // A value that no palette color maps to (search for one).
        let misses = (0..f.m()).find(|&v| palette.iter().all(|&c| h.hash(c) != v));
        if let Some(v) = misses {
            assert_eq!(h.preimage_in(&palette, v), None);
        }
    }

    #[test]
    fn injectivity_detects_collisions() {
        // λ = 2 forces collisions among any 3 colors.
        let f = ColorHashFamily::new(5, 2, 6);
        assert!(!f.member(0).injective_on(&[1, 2, 3]));
    }
}
