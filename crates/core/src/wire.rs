//! The wire format shared by all D1LC passes, and the large-color codec of
//! Appendix D.3.
//!
//! Colors may live in a space of up to `2^64` values (standing in for the
//! paper's `exp(n^Θ(1))`). Sending a raw color costs its declared bit
//! width; the codec instead has every node `v` broadcast (once) the index
//! of a universal hash `h_v` with range `M = (n+1)^d`, after which any
//! neighbor announces a color `ψ` to `v` as the `O(d·log n)`-bit image
//! `h_v(ψ)`. With `d ≥ 6` no collision occurs in any neighborhood w.h.p.,
//! so images are faithful stand-ins for colors: equality tests compare
//! images, palette updates remove the (w.h.p. unique) preimage.

use crate::config::ParamProfile;
use congest::{Message, Words};
use estimate::SimilarityWire;
use graphs::Color;
use prand::{ColorHash, ColorHashFamily};
use rand::Rng;

/// A color on the wire: raw or hashed through the *receiver's* universal
/// hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorWire {
    /// The color itself; costs the declared color width.
    Raw(Color),
    /// The image under the receiver's hash; costs `⌈log₂ M⌉` bits.
    Hashed(u64),
}

/// Semantic tag distinguishing messages that share a round.
pub type Tag = u8;

/// Tags used across the pipeline passes.
pub mod tags {
    /// A color being tried this round.
    pub const TRIED: super::Tag = 1;
    /// A color permanently adopted.
    pub const ADOPTED: super::Tag = 2;
    /// Activation / participation announcements.
    pub const ACTIVE: super::Tag = 3;
    /// Clique identifier announcements.
    pub const CLIQUE: super::Tag = 4;
    /// Adjacent-to-hub / adjacent-to-leader flags.
    pub const HUB_ADJ: super::Tag = 5;
    /// Aggregation payloads flowing toward the hub.
    pub const AGG_UP: super::Tag = 6;
    /// Aggregation results flowing back from the hub.
    pub const AGG_DOWN: super::Tag = 7;
    /// Put-aside sampling announcements.
    pub const SAMPLED: super::Tag = 8;
    /// Leader color assignment (SynchColorTrial).
    pub const ASSIGN: super::Tag = 9;
    /// Put-aside palette upload chunks.
    pub const PAL_UP: super::Tag = 10;
    /// Put-aside final colors flowing back.
    pub const PAL_DOWN: super::Tag = 11;
    /// Uncolored-status announcements (cleanup).
    pub const UNCOLORED: super::Tag = 12;
    /// Degree announcements.
    pub const DEGREE: super::Tag = 13;
    /// Requests (e.g. inlier asks leader for a color).
    pub const REQUEST: super::Tag = 14;
}

/// The single message type of every D1LC pass.
#[derive(Clone, Debug)]
pub enum Wire {
    /// A one-bit flag.
    Flag {
        /// Semantic tag.
        tag: Tag,
        /// The bit.
        on: bool,
    },
    /// A bounded integer.
    Uint {
        /// Semantic tag.
        tag: Tag,
        /// Payload.
        value: u64,
        /// Declared width.
        bits: u32,
    },
    /// A color announcement (tried/adopted/assigned).
    Color {
        /// Semantic tag.
        tag: Tag,
        /// The (possibly hashed) color.
        payload: ColorWire,
        /// Declared width of the payload.
        bits: u32,
    },
    /// MultiTrial hash announcement: Alg. 4's `(λ_v, i_v)` or Alg. 5's
    /// `(λ_v, i_v, multiset seed)`.
    MtHash {
        /// The sender's hash range `λ_v = 6|Ψ_v|`.
        lambda: u64,
        /// Family member index.
        index: u64,
        /// Alg. 5's window seed (0 under Alg. 4, whose window is `[σ]`).
        set_seed: u64,
        /// Combined declared width.
        bits: u32,
    },
    /// A window bitmap (`b_{v→u}` of Alg. 4, line 6).
    Bitmap {
        /// Semantic tag.
        tag: Tag,
        /// Packed bits: a range of a buffer the sender shares among its
        /// messages, so a copy costs a reference count.
        words: Words,
        /// Number of meaningful bits (σ).
        bits: u64,
    },
    /// A list of bounded integers (palette-hash uploads, topology lists).
    UintList {
        /// Semantic tag.
        tag: Tag,
        /// Payload values.
        values: Vec<u64>,
        /// Declared width of each value.
        bits_each: u32,
    },
}

impl Message for Wire {
    fn bit_cost(&self) -> u64 {
        match self {
            Wire::Flag { .. } => 1,
            Wire::Uint { bits, .. } | Wire::Color { bits, .. } | Wire::MtHash { bits, .. } => {
                u64::from(*bits)
            }
            Wire::Bitmap { bits, .. } => *bits,
            Wire::UintList {
                values, bits_each, ..
            } => values.len() as u64 * u64::from(*bits_each),
        }
    }
}

/// The ACD's similarity estimates (`estimate`'s Alg. 1 protocol) ride
/// existing variants: the degree as `Uint` tagged [`tags::DEGREE`], the
/// family index as `Uint` tagged [`tags::AGG_UP`], the signature as a
/// `Bitmap` tagged [`tags::TRIED`].
impl SimilarityWire for Wire {
    fn degree(degree: u32, bits: u32) -> Self {
        Wire::Uint {
            tag: tags::DEGREE,
            value: u64::from(degree),
            bits,
        }
    }

    fn index(index: u64, bits: u32) -> Self {
        Wire::Uint {
            tag: tags::AGG_UP,
            value: index,
            bits,
        }
    }

    fn signature(bitmap: Words, sigma: u64) -> Self {
        Wire::Bitmap {
            tag: tags::TRIED,
            words: bitmap,
            bits: sigma,
        }
    }

    fn as_degree(&self) -> Option<u32> {
        match self {
            Wire::Uint {
                tag: tags::DEGREE,
                value,
                ..
            } => Some(*value as u32),
            _ => None,
        }
    }

    fn as_index(&self) -> Option<u64> {
        match self {
            Wire::Uint {
                tag: tags::AGG_UP,
                value,
                ..
            } => Some(*value),
            _ => None,
        }
    }

    fn as_signature(&self) -> Option<&[u64]> {
        match self {
            Wire::Bitmap {
                tag: tags::TRIED,
                words,
                ..
            } => Some(words),
            _ => None,
        }
    }
}

/// Per-node large-color codec: the node's own universal hash plus the
/// indices its neighbors announced.
#[derive(Clone, Debug)]
pub struct ColorCodec {
    family: ColorHashFamily,
    raw_bits: u32,
    hashed: bool,
    my_index: u64,
    /// Hash index of each neighbor, aligned with the sorted neighbor list.
    neighbor_index: Vec<u64>,
}

impl ColorCodec {
    /// A codec for one node of an `n`-node graph with colors of
    /// `color_bits` bits. All nodes must share `seed`.
    pub fn new(
        profile: &ParamProfile,
        seed: u64,
        n: usize,
        color_bits: u32,
        degree: usize,
    ) -> Self {
        let family = ColorHashFamily::for_graph(n.max(2), profile.color_hash_d, seed);
        let hashed = color_bits > profile.hash_colors_above_bits
            && u64::from(color_bits) > u64::from(family.value_bits());
        ColorCodec {
            family,
            raw_bits: color_bits,
            hashed,
            my_index: 0,
            neighbor_index: vec![0; degree],
        }
    }

    /// Whether colors are hashed on the wire.
    pub fn hashed(&self) -> bool {
        self.hashed
    }

    /// Draw this node's hash index (done once, round 0 of the setup pass).
    pub fn choose_index<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        self.my_index = self.family.sample_index(rng);
        self.my_index
    }

    /// Bits of an index announcement.
    pub fn index_bits(&self) -> u32 {
        self.family.index_bits()
    }

    /// Bits of one encoded color on the wire.
    pub fn color_bits(&self) -> u32 {
        if self.hashed {
            self.family.value_bits()
        } else {
            self.raw_bits
        }
    }

    /// Record a neighbor's announced index (setup pass, round 1).
    pub fn set_neighbor_index(&mut self, pos: usize, index: u64) {
        self.neighbor_index[pos] = index;
    }

    /// This node's own hash (what neighbors encode colors with).
    pub fn my_hash(&self) -> ColorHash {
        self.family.member(self.my_index)
    }

    /// The hash of the neighbor at `pos`.
    pub fn neighbor_hash(&self, pos: usize) -> ColorHash {
        self.family.member(self.neighbor_index[pos])
    }

    /// Encode `color` for the neighbor at `pos`.
    pub fn encode_for(&self, pos: usize, color: Color) -> ColorWire {
        if self.hashed {
            ColorWire::Hashed(self.neighbor_hash(pos).hash(color))
        } else {
            ColorWire::Raw(color)
        }
    }

    /// Encode `color` under this node's *own* hash (leader → inlier
    /// assignments go through the leader's hash, which inliers know).
    pub fn encode_own(&self, color: Color) -> ColorWire {
        if self.hashed {
            ColorWire::Hashed(self.my_hash().hash(color))
        } else {
            ColorWire::Raw(color)
        }
    }

    /// Whether an incoming wire color (encoded with *my* hash) equals my
    /// candidate color.
    pub fn matches_mine(&self, mine: Color, wire: ColorWire) -> bool {
        match wire {
            ColorWire::Raw(c) => c == mine,
            ColorWire::Hashed(img) => self.my_hash().hash(mine) == img,
        }
    }

    /// Remove an announced (wire-encoded, under my hash) color from a
    /// palette; returns the number of colors removed.
    pub fn remove_from(&self, palette: &mut crate::palette::Palette, wire: ColorWire) -> usize {
        match wire {
            ColorWire::Raw(c) => usize::from(palette.remove(c)),
            ColorWire::Hashed(img) => palette.remove_by_hash(&self.my_hash(), img),
        }
    }

    /// Whether the original list contains the announced color (chromatic
    /// slack counting).
    pub fn original_contains(&self, palette: &crate::palette::Palette, wire: ColorWire) -> bool {
        match wire {
            ColorWire::Raw(c) => palette.original().binary_search(&c).is_ok(),
            ColorWire::Hashed(img) => palette.original_has_hash(&self.my_hash(), img),
        }
    }

    /// Decode a wire color (encoded with the hash of the *sender*, whose
    /// neighbor position is `sender_pos`) to a palette color of mine, if
    /// any matches. Used by inliers decoding leader assignments.
    pub fn decode_via_neighbor(
        &self,
        palette: &crate::palette::Palette,
        sender_pos: usize,
        wire: ColorWire,
    ) -> Option<Color> {
        match wire {
            ColorWire::Raw(c) => palette.contains(c).then_some(c),
            ColorWire::Hashed(img) => {
                palette.first_matching_hash(&self.neighbor_hash(sender_pos), img)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::Palette;

    fn codec(color_bits: u32) -> ColorCodec {
        let mut c = ColorCodec::new(&ParamProfile::laptop(), 7, 1000, color_bits, 3);
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        c.choose_index(&mut rng);
        c
    }

    #[test]
    fn small_colors_ride_raw() {
        let c = codec(16);
        assert!(!c.hashed());
        assert_eq!(c.color_bits(), 16);
        assert_eq!(c.encode_for(0, 99), ColorWire::Raw(99));
    }

    #[test]
    fn large_colors_are_hashed() {
        let c = codec(63);
        assert!(c.hashed());
        // M = 1001^6 needs ~60 bits... value_bits < 63 required for
        // hashing to pay off; for n = 1000, d = 6 → 60 bits < 63. ✓
        assert!(c.color_bits() < 63);
        match c.encode_own(123456789) {
            ColorWire::Hashed(img) => assert_eq!(img, c.my_hash().hash(123456789)),
            ColorWire::Raw(_) => panic!("expected hashed"),
        }
    }

    #[test]
    fn matches_mine_is_exact_for_raw() {
        let c = codec(16);
        assert!(c.matches_mine(5, ColorWire::Raw(5)));
        assert!(!c.matches_mine(5, ColorWire::Raw(6)));
    }

    #[test]
    fn matches_mine_via_hash() {
        let c = codec(63);
        let img = c.my_hash().hash(777);
        assert!(c.matches_mine(777, ColorWire::Hashed(img)));
        assert!(
            !c.matches_mine(778, ColorWire::Hashed(img)) || {
                // collision — astronomically unlikely with M = n^6
                false
            }
        );
    }

    #[test]
    fn remove_from_palette_by_wire() {
        let c = codec(63);
        let mut p = Palette::new((0..40).map(|i| i * 97).collect());
        let wire = c.encode_own(5 * 97); // own hash == "my hash" on receiver side
        let removed = c.remove_from(&mut p, wire);
        assert_eq!(removed, 1);
        assert!(!p.contains(5 * 97));
    }

    #[test]
    fn original_contains_via_wire() {
        let c = codec(63);
        let mut p = Palette::new(vec![10, 20, 30]);
        p.remove(20);
        assert!(c.original_contains(&p, c.encode_own(20)));
        assert!(!c.original_contains(&p, c.encode_own(999)));
    }

    /// Bitmap words live out of line, so the message stays five words
    /// whatever σ is.
    #[test]
    fn wire_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Wire>(), 40);
    }

    #[test]
    fn wire_bit_costs() {
        assert_eq!(Wire::Flag { tag: 1, on: true }.bit_cost(), 1);
        assert_eq!(
            Wire::Uint {
                tag: 1,
                value: 9,
                bits: 12
            }
            .bit_cost(),
            12
        );
        assert_eq!(
            Wire::Bitmap {
                tag: 1,
                words: Words::range(&Words::zeroed(2), 0..2),
                bits: 100
            }
            .bit_cost(),
            100
        );
        assert_eq!(
            Wire::UintList {
                tag: 1,
                values: vec![1, 2, 3],
                bits_each: 20
            }
            .bit_cost(),
            60
        );
    }
}
