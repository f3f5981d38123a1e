//! Pseudorandomness toolkit for the congest-coloring reproduction.
//!
//! Implements every pseudorandom object the paper uses:
//!
//! * [`RepHashFamily`] / [`RepHash`] — *representative hash functions*
//!   (Lemma 1), the paper's central construct, together with the set
//!   operators of Proposition 1 (`A|_h^{≤σ}`, `A ∧_h^{≤σ} B`,
//!   `A ¬_h^{≤σ} B`); `MultiTrial` and the four-cycle finder use it;
//! * [`RangeHashFamily`] / [`RangeHash`] — the sorted-range family behind
//!   Alg. 1's similarity signatures: one salted point per scaled element,
//!   shifted per member, so a member's window hits on a sorted point set
//!   form one arc;
//! * [`RepParams`] — the Lemma 1 parameter derivations (verbatim paper
//!   constants and a laptop-scale profile);
//! * [`PairwiseFamily`] — explicit ε-almost pairwise-independent hashing
//!   over the Mersenne prime 2⁶¹−1 (§5.1);
//! * [`ColorHashFamily`] — approximately-universal hashing for large color
//!   spaces (Appendix D.3);
//! * [`MultisetSampler`] — representative multisets via averaging samplers
//!   (Appendix B);
//! * [`ReedSolomon`] / [`IdCode`] — GF(2⁸) Reed–Solomon and the
//!   concatenated identifier code used by uniform ε-Buddy (§5.2);
//! * [`mix`] — the 64-bit mixing primitives all seeded families derive
//!   from.
//!
//! # Example
//!
//! ```
//! use prand::{RepHashFamily, RepParams};
//!
//! // A family suitable for MultiTrial over a palette of ~100 colors.
//! let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 96, 16);
//! let family = RepHashFamily::new(0xc0ffee, params);
//! let h = family.member(31);
//! let palette: Vec<u64> = (0..100).map(|i| i * 1_000_003).collect();
//! // Colors the node may safely describe in σ bits:
//! let candidates = h.isolated(&palette, &palette);
//! assert!(!candidates.is_empty());
//! ```

#![warn(missing_docs)]

pub mod ecc;
pub mod field;
pub mod mix;
pub mod pairwise;
pub mod params;
pub mod range_hash;
pub mod rep_hash;
pub mod sampler;
pub mod universal;

pub use ecc::{IdCode, InnerCode, ReedSolomon};
pub use field::Gf256;
pub use mix::mix64;
pub use pairwise::{PairwiseFamily, PairwiseHash, P61};
pub use params::RepParams;
pub use range_hash::{RangeHash, RangeHashFamily};
pub use rep_hash::{bitmap_get, RepHash, RepHashFamily};
pub use sampler::MultisetSampler;
pub use universal::{ColorHash, ColorHashFamily};
