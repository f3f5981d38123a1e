//! The sorted-range family: a representative family whose window hits on a
//! fixed point set form one arc of the circle `ℤ/2⁶⁴`.
//!
//! # The family
//!
//! A family is identified by a seed, a salt and [`RepParams`]. The salt
//! fixes one pseudorandom **point** per scaled element `(x, j)`
//! ([`point`]), and member `i` shifts every point by the same offset
//! `K_i = mix3(seed, λ, i)`:
//!
//! ```text
//! w_i(x, j) = point(salt, x, j) + K_i  (mod 2⁶⁴),   h_i(x, j) = bounded(w_i, λ).
//! ```
//!
//! The window test is the one [`RepHashFamily`](crate::RepHashFamily)'s
//! reduction implies: `h_i(x, j) < σ ⇔ w_i ≤ ⌈σ·2⁶⁴/λ⌉ − 1`. So the points
//! member `i` maps into the window are exactly those in the arc
//! `[−K_i, −K_i + ⌈σ·2⁶⁴/λ⌉ − 1]` ([`RangeHash::arc`]), and along the arc
//! the window bit is non-decreasing. A party holding its points sorted
//! finds one member's window hits by locating the arc and reads only them —
//! about `|S'|·σ/λ` points instead of all of `S'`.
//!
//! # Why it is representative
//!
//! Lemma 1 only asks that *some* family be representative, and its proof
//! draws the family at random. For one member the points are uniform and
//! independent pseudorandom words, and a fixed shift of independent
//! uniform words is again independent and uniform, so `h_i` restricted to
//! any set is distributed exactly as a truly random function into `[λ]`.
//! Alg. 1 evaluates one member per edge, so a single edge's estimate has
//! the distribution the lemma's proof assumes. What the family gives up is
//! independence *between* members: two members are shifts of one point
//! set. The similarity protocols draw one salt per pass, so a node's edges
//! share one point set, and the estimates on one node's edges are
//! correlated through it, while every pass draws fresh points.
//!
//! # Scaled elements
//!
//! Alg. 1 scales a small set up to `S' = S × [k]`. The point function
//! hashes the pair `(x, j)` itself, so no relabeling into a single word is
//! needed and every `x ∈ u64` is admissible. Two scaled elements whose
//! points tie are an ordinary hash collision.

use crate::mix::{bounded, mix3};
use crate::params::RepParams;
use rand::Rng;

/// Separates [`point`]'s stream from other `mix3` chains over small
/// integers (a node-id pair, say): for every `j < 2³²`,
/// `j ^ POINT_STREAM` exceeds every `u32`.
const POINT_STREAM: u64 = 0x5eed_a11c_e000_0000;

/// The point of the scaled element `(x, j)` under `salt`: the word every
/// member of every family with this salt shifts.
///
/// # Example
///
/// ```
/// use prand::range_hash::point;
/// assert_eq!(point(7, 1 << 62, 3), point(7, 1 << 62, 3));
/// assert_ne!(point(7, 1 << 62, 3), point(7, 1 << 62, 4));
/// ```
#[inline]
pub fn point(salt: u64, x: u64, j: u64) -> u64 {
    mix3(salt, j ^ POINT_STREAM, x)
}

/// A seeded sorted-range family `(h_i)_{i∈[F]}` over one salt's points.
///
/// # Example
///
/// ```
/// use prand::{RangeHashFamily, RepParams};
///
/// let params = RepParams::practical(1.0 / 32.0, 1.0 / 8.0, 1600, 512, 16);
/// let h = RangeHashFamily::new(42, 9, params).member(5);
/// // h(x, j) < σ exactly for the points on the member's arc.
/// let (first, last) = h.arc();
/// let p = prand::range_hash::point(9, 1234, 0);
/// assert_eq!(h.hash(1234, 0) < 512, p.wrapping_sub(first) <= last.wrapping_sub(first));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeHashFamily {
    seed: u64,
    salt: u64,
    params: RepParams,
    /// `⌈σ·2⁶⁴/λ⌉ − 1`, derived once per family (0 for a window outside
    /// `[1, λ]`, which [`RangeHashFamily::member`] rejects).
    window_max: u64,
}

impl RangeHashFamily {
    /// The family with offsets drawn from `seed` over the points of `salt`.
    pub fn new(seed: u64, salt: u64, params: RepParams) -> Self {
        let (sigma, lambda) = (params.sigma, params.lambda);
        let window_max = if (1..=lambda).contains(&sigma) {
            window_max(sigma, lambda)
        } else {
            0
        };
        RangeHashFamily {
            seed,
            salt,
            params,
            window_max,
        }
    }

    /// The family of the same parameters and salt with offsets drawn from
    /// another `seed`. It keeps the window threshold, so it costs no
    /// division: a protocol derives one family per window and reseeds it
    /// per edge.
    pub fn reseeded(&self, seed: u64) -> Self {
        RangeHashFamily { seed, ..*self }
    }

    /// The family's parameters.
    pub fn params(&self) -> &RepParams {
        &self.params
    }

    /// The salt whose points every member shifts.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Member `index` of the family.
    ///
    /// # Panics
    ///
    /// Panics if `index >= F`, or unless the window is `1 ≤ σ ≤ λ`.
    pub fn member(&self, index: u64) -> RangeHash {
        assert!(
            index < self.params.family_size,
            "index {index} out of family range"
        );
        let (sigma, lambda) = (self.params.sigma, self.params.lambda);
        assert_window(sigma, lambda);
        RangeHash {
            salt: self.salt,
            lambda,
            sigma,
            offset: mix3(self.seed, lambda, index),
            window_max: self.window_max,
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

/// Check that `[0, σ)` is a window of `[0, λ)`.
///
/// # Panics
///
/// Panics unless `1 ≤ σ ≤ λ`.
fn assert_window(sigma: u64, lambda: u64) {
    assert!(
        (1..=lambda).contains(&sigma),
        "window σ = {sigma} must lie in [1, λ = {lambda}]"
    );
}

/// The largest word that lands in the window `[0, σ)` under
/// `bounded(·, λ)`: `⌈σ·2⁶⁴/λ⌉ − 1`.
///
/// # Panics
///
/// Panics unless `1 ≤ σ ≤ λ`.
fn window_max(sigma: u64, lambda: u64) -> u64 {
    assert_window(sigma, lambda);
    (((sigma as u128) << 64).div_ceil(lambda as u128) - 1) as u64
}

/// One member of a [`RangeHashFamily`]: scaled elements `(x, j)` to
/// `[0, λ)`, with the observation window `[0, σ)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeHash {
    salt: u64,
    lambda: u64,
    sigma: u64,
    /// `K_i`.
    offset: u64,
    /// `⌈σ·2⁶⁴/λ⌉ − 1`: the last word in the window.
    window_max: u64,
}

impl RangeHash {
    /// Hash the scaled element `(x, j)` into `[0, λ)`.
    #[inline]
    pub fn hash(&self, x: u64, j: u64) -> u64 {
        self.bit(point(self.salt, x, j))
    }

    /// The hash of the element whose point is `p`: `bounded(p + K_i, λ)`.
    #[inline]
    pub fn bit(&self, p: u64) -> u64 {
        bounded(p.wrapping_add(self.offset), self.lambda)
    }

    /// The arc of points that land in the window, as its first and last
    /// point: `(−K_i, −K_i + ⌈σ·2⁶⁴/λ⌉ − 1)`. The arc wraps past `2⁶⁴ − 1`
    /// when `last < first`. Walking it from `first` to `last`, words run
    /// from 0 to the window's last word, so [`RangeHash::bit`] never
    /// decreases.
    pub fn arc(&self) -> (u64, u64) {
        self.arc_of(0..self.sigma)
    }

    /// The sub-arc of points whose hash lies in `bits`, a non-empty range
    /// inside the window: words `⌈a·2⁶⁴/λ⌉` to `⌈b·2⁶⁴/λ⌉ − 1` for
    /// `bits = a..b`, shifted by `−K_i` like [`RangeHash::arc`]. Because
    /// the hash never decreases along the arc, the sub-arcs of a partition
    /// of the window partition the arc.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is non-empty and ends at or before σ.
    pub fn arc_of(&self, bits: std::ops::Range<u64>) -> (u64, u64) {
        assert!(
            bits.start < bits.end && bits.end <= self.sigma,
            "bits {bits:?} must be a non-empty part of the window [0, {})",
            self.sigma
        );
        let first_word = match bits.start {
            0 => 0,
            a => window_max(a, self.lambda) + 1,
        };
        let last_word = if bits.end == self.sigma {
            self.window_max
        } else {
            window_max(bits.end, self.lambda)
        };
        let origin = self.offset.wrapping_neg();
        (
            origin.wrapping_add(first_word),
            origin.wrapping_add(last_word),
        )
    }

    /// The salt whose points this member shifts.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Observation window σ.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mix64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The arc decides `h(x, j) < σ` exactly, the window's last word is
    /// `⌈σ·2⁶⁴/λ⌉ − 1` (reseeding a family keeps it), and `hash` is the
    /// documented composition, over
    /// random seeds, salts, λ ∈ [2, 2²⁰] (mostly not powers of two),
    /// σ ∈ [1, λ] (σ = λ included), member indices and elements.
    #[test]
    fn arc_and_window_threshold_are_exact() {
        let mut rng = StdRng::seed_from_u64(0x51a7);
        let (mut hits, mut misses, mut full_windows) = (0, 0, 0);
        for case in 0..2000 {
            let lambda = match case % 4 {
                0 => rng.gen_range(2u64..=64),
                _ => rng.gen_range(2u64..=1 << 20),
            };
            let sigma = match case % 5 {
                0 => lambda,
                1 => 1,
                _ => rng.gen_range(1..=lambda),
            };
            full_windows += usize::from(sigma == lambda);
            let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, lambda, sigma, 16);
            let (seed, salt): (u64, u64) = (rng.gen(), rng.gen());
            let index = rng.gen_range(0..params.family_size);
            let family = RangeHashFamily::new(seed, salt, params);
            // A reseeded family is the family of its new seed, threshold
            // included.
            assert_eq!(
                RangeHashFamily::new(!seed, salt, params).reseeded(seed),
                family
            );
            let h = family.member(index);
            let (first, last) = h.arc();
            for _ in 0..32 {
                let (x, j): (u64, u64) = (rng.gen(), rng.gen_range(0..32));
                let p = point(salt, x, j);
                assert_eq!(p, mix64(salt ^ mix64(j ^ POINT_STREAM ^ mix64(x))));
                let hv = h.hash(x, j);
                let offset = mix3(seed, lambda, index);
                assert_eq!(hv, bounded(p.wrapping_add(offset), lambda));
                let on_arc = p.wrapping_sub(first) <= last.wrapping_sub(first);
                assert_eq!(
                    on_arc,
                    hv < sigma,
                    "case {case}: λ={lambda} σ={sigma} x={x} j={j}"
                );
                if on_arc {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            // ⌈σ·2⁶⁴/λ⌉ − 1 is the last word inside the window and
            // ⌈σ·2⁶⁴/λ⌉ (a word only when σ < λ) the first outside.
            let first_out = ((sigma as u128) << 64).div_ceil(lambda as u128);
            let last_in = (first_out - 1) as u64;
            assert_eq!(h.window_max, last_in, "case {case}: λ={lambda} σ={sigma}");
            assert_eq!(h.bit(last), bounded(last_in, lambda), "case {case}");
            assert!(bounded(last_in, lambda) < sigma, "case {case}");
            assert_eq!(h.bit(first), 0, "case {case}: the arc starts at word 0");
            if sigma < lambda {
                assert!(bounded(first_out as u64, lambda) >= sigma, "case {case}");
                assert!(h.bit(last.wrapping_add(1)) >= sigma, "case {case}");
            } else {
                assert_eq!(last_in, u64::MAX, "case {case}: σ = λ admits every word");
                assert_eq!(last, first.wrapping_sub(1), "case {case}: the whole circle");
            }
        }
        assert!(
            hits > 10_000 && misses > 10_000,
            "{hits} hits, {misses} misses"
        );
        assert!(full_windows >= 400, "only {full_windows} cases with σ = λ");
    }

    /// Sub-arcs hold exactly the points whose hash lies in their range,
    /// and the sub-arcs of consecutive ranges meet end to start.
    #[test]
    fn sub_arcs_partition_the_arc() {
        let mut rng = StdRng::seed_from_u64(0xa2c);
        for case in 0..500 {
            let lambda = rng.gen_range(2u64..=1 << 16);
            let sigma = if case % 4 == 0 {
                lambda
            } else {
                rng.gen_range(1..=lambda)
            };
            let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, lambda, sigma, 16);
            let h = RangeHashFamily::new(rng.gen(), rng.gen(), params).member(3);
            let cut = rng.gen_range(0..sigma);
            let whole = h.arc();
            if cut == 0 {
                assert_eq!(h.arc_of(0..sigma), whole, "case {case}");
                continue;
            }
            let (lo, hi) = (h.arc_of(0..cut), h.arc_of(cut..sigma));
            assert_eq!((lo.0, hi.1), whole, "case {case}: λ={lambda} σ={sigma}");
            assert_eq!(
                lo.1.wrapping_add(1),
                hi.0,
                "case {case}: λ={lambda} σ={sigma}"
            );
            for _ in 0..16 {
                let p: u64 = rng.gen();
                let on =
                    |(first, last): (u64, u64)| p.wrapping_sub(first) <= last.wrapping_sub(first);
                let hv = h.bit(p);
                assert_eq!(on(lo), hv < cut, "case {case}");
                assert_eq!(on(hi), (cut..sigma).contains(&hv), "case {case}");
            }
            assert_eq!(
                h.bit(hi.0),
                cut,
                "case {case}: the upper sub-arc starts at bit {cut}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty part of the window")]
    fn sub_arcs_stay_inside_the_window() {
        let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 96, 16);
        let _ = RangeHashFamily::new(1, 2, params).member(0).arc_of(90..97);
    }

    #[test]
    #[should_panic(expected = "must lie in [1, λ")]
    fn empty_window_is_rejected() {
        let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 0, 16);
        let _ = RangeHashFamily::new(1, 2, params).member(0);
    }

    #[test]
    #[should_panic(expected = "out of family range")]
    fn member_index_bounds_checked() {
        let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 96, 4);
        let _ = RangeHashFamily::new(1, 2, params).member(16);
    }

    /// Points of one salt are distinct across `(x, j)` in practice, and a
    /// new salt moves every point.
    #[test]
    fn points_separate_scaled_elements_and_salts() {
        let mut seen = std::collections::HashSet::new();
        for x in [0u64, 1, 2, 1 << 59, (1 << 59) + 1, u64::MAX] {
            for j in 0..16 {
                assert!(seen.insert(point(3, x, j)), "tie at ({x}, {j})");
                assert_ne!(point(3, x, j), point(4, x, j));
            }
        }
    }
}
