//! `JointSample(ε)` — Algorithm 2, Lemma 3.
//!
//! Two parties sample an element of `S_u ∩ S_v` jointly: after the same
//! setup as `EstimateSimilarity`, they pick a random hash value in
//! `h(T_u) ∩ h(T_v)` and each output their unique preimage. When
//! `|S_u ∩ S_v| ≥ ε·max(|S_u|,|S_v|)` the two outputs coincide with
//! probability `1 − 5ε/4 − ν`.

use crate::scheme::SimilarityScheme;
use crate::similarity::EdgeSetup;
use congest::message::bits_for_range;
use congest::BitTally;
use prand::{bitmap_get, RangeHash};
use rand::Rng;

/// Outcome of one `JointSample` execution.
#[derive(Clone, Debug, PartialEq)]
pub struct JointSampleOutcome {
    /// Element output by the `S_u` side (descaled), if any.
    pub u_out: Option<u64>,
    /// Element output by the `S_v` side (descaled), if any.
    pub v_out: Option<u64>,
    /// Communication transcript.
    pub tally: BitTally,
}

impl JointSampleOutcome {
    /// Whether both parties output the same element (the Lemma 3 event).
    pub fn agreed(&self) -> bool {
        self.u_out.is_some() && self.u_out == self.v_out
    }
}

/// Run `JointSample` on sorted sets `su`, `sv`. `seed` derives the shared
/// hash family and salts its points, as in
/// [`estimate_similarity`](crate::estimate_similarity).
///
/// # Example
///
/// ```
/// use estimate::{joint_sample, SimilarityScheme};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let s: Vec<u64> = (0..400).collect();
/// let mut rng = StdRng::seed_from_u64(3);
/// let out = joint_sample(&SimilarityScheme::practical(0.25), &s, &s, 11, &mut rng);
/// if out.agreed() {
///     assert!(s.contains(&out.u_out.unwrap()));
/// }
/// ```
pub fn joint_sample<R: Rng + ?Sized>(
    scheme: &SimilarityScheme,
    su: &[u64],
    sv: &[u64],
    seed: u64,
    rng: &mut R,
) -> JointSampleOutcome {
    let mut tally = BitTally::new();
    if su.is_empty() || sv.is_empty() {
        return JointSampleOutcome {
            u_out: None,
            v_out: None,
            tally,
        };
    }
    let setup = EdgeSetup::new(scheme, su.len(), sv.len(), seed, seed);
    let h = setup.pick_hash(rng, &mut tally);
    let bu = setup.signature(&h, su);
    let bv = setup.signature(&h, sv);
    tally.exchange(setup.sigma());
    // Step 6: J = |h(T_u) ∩ h(T_v)|; return nothing if empty.
    let common: Vec<u64> = (0..setup.sigma())
        .filter(|&i| bitmap_get(&bu, i) && bitmap_get(&bv, i))
        .collect();
    if common.is_empty() {
        return JointSampleOutcome {
            u_out: None,
            v_out: None,
            tally,
        };
    }
    // Step 7: jointly pick j_e ∈ [J] — lower-id side draws and sends it.
    let je = rng.gen_range(0..common.len());
    tally.a_to_b(bits_for_range(common.len() as u64));
    let target = common[je];
    // Step 8: each side outputs its unique T-element hashing to `target`.
    let u_out = preimage(&setup, &h, su, target);
    let v_out = preimage(&setup, &h, sv, target);
    JointSampleOutcome {
        u_out,
        v_out,
        tally,
    }
}

/// The element `x` of the unique `(x, j) ∈ T = S' ¬_h S'` with
/// `h(x, j) = target`: a window bit belongs to `T` iff exactly one scaled
/// element hashes to it.
fn preimage(setup: &EdgeSetup, h: &RangeHash, s: &[u64], target: u64) -> Option<u64> {
    let mut found = None;
    for &x in s {
        for j in 0..setup.k {
            if h.hash(x, j) == target {
                if found.is_some() {
                    return None;
                }
                found = Some(x);
            }
        }
    }
    found
}

/// Outcome of a multi-element `JointSample` execution.
#[derive(Clone, Debug, PartialEq)]
pub struct JointSampleManyOutcome {
    /// Elements output by the `S_u` side, in draw order.
    pub u_out: Vec<u64>,
    /// Elements output by the `S_v` side, in draw order.
    pub v_out: Vec<u64>,
    /// Communication transcript.
    pub tally: BitTally,
}

impl JointSampleManyOutcome {
    /// Positions where both parties output the same element.
    pub fn agreements(&self) -> usize {
        self.u_out
            .iter()
            .zip(&self.v_out)
            .filter(|(a, b)| a == b)
            .count()
    }
}

/// The multi-element variant the paper notes after Lemma 3: "the nodes can
/// even sample multiple elements … by picking multiple indices instead of
/// a single one in step 7. This takes the same number of CONGEST rounds."
/// (Samples may repeat, and when the scale-up factor `k > 1` two draws can
/// be copies of the same base element.)
pub fn joint_sample_many<R: Rng + ?Sized>(
    scheme: &SimilarityScheme,
    su: &[u64],
    sv: &[u64],
    count: usize,
    seed: u64,
    rng: &mut R,
) -> JointSampleManyOutcome {
    let mut tally = BitTally::new();
    if su.is_empty() || sv.is_empty() || count == 0 {
        return JointSampleManyOutcome {
            u_out: Vec::new(),
            v_out: Vec::new(),
            tally,
        };
    }
    let setup = EdgeSetup::new(scheme, su.len(), sv.len(), seed, seed);
    let h = setup.pick_hash(rng, &mut tally);
    let bu = setup.signature(&h, su);
    let bv = setup.signature(&h, sv);
    tally.exchange(setup.sigma());
    let common: Vec<u64> = (0..setup.sigma())
        .filter(|&i| bitmap_get(&bu, i) && bitmap_get(&bv, i))
        .collect();
    if common.is_empty() {
        return JointSampleManyOutcome {
            u_out: Vec::new(),
            v_out: Vec::new(),
            tally,
        };
    }
    let mut u_out = Vec::with_capacity(count);
    let mut v_out = Vec::with_capacity(count);
    for _ in 0..count {
        let je = rng.gen_range(0..common.len());
        tally.a_to_b(bits_for_range(common.len() as u64));
        let target = common[je];
        if let (Some(a), Some(b)) = (
            preimage(&setup, &h, su, target),
            preimage(&setup, &h, sv, target),
        ) {
            u_out.push(a);
            v_out.push(b);
        }
    }
    JointSampleManyOutcome {
        u_out,
        v_out,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_input_returns_nothing() {
        let mut rng = StdRng::seed_from_u64(0);
        let out = joint_sample(&SimilarityScheme::practical(0.25), &[], &[1], 0, &mut rng);
        assert!(!out.agreed());
        assert_eq!(out.u_out, None);
    }

    #[test]
    fn identical_sets_agree_often_and_sample_members() {
        let s: Vec<u64> = (0..500).map(|i| i * 7 + 3).collect();
        let scheme = SimilarityScheme::practical(0.25);
        let mut agreements = 0;
        let trials = 60;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(t);
            let out = joint_sample(&scheme, &s, &s, 5, &mut rng);
            if out.agreed() {
                agreements += 1;
                assert!(s.binary_search(&out.u_out.unwrap()).is_ok());
            }
        }
        // Lemma 3: agreement w.p. ≥ 1 − 5ε/4 − ν ≈ 0.69 for ε = .25.
        assert!(
            agreements * 10 >= trials * 6,
            "{agreements}/{trials} agreements"
        );
    }

    #[test]
    fn sampled_elements_favor_intersection() {
        let su: Vec<u64> = (0..600).collect();
        let sv: Vec<u64> = (200..800).collect();
        let scheme = SimilarityScheme::practical(0.25);
        let mut in_intersection = 0;
        let mut agreements = 0;
        for t in 0..80 {
            let mut rng = StdRng::seed_from_u64(1000 + t);
            let out = joint_sample(&scheme, &su, &sv, 8, &mut rng);
            if out.agreed() {
                agreements += 1;
                let x = out.u_out.unwrap();
                if (200..600).contains(&x) {
                    in_intersection += 1;
                }
            }
        }
        assert!(agreements > 30, "too few agreements: {agreements}");
        // Agreement implies intersection membership by construction.
        assert_eq!(in_intersection, agreements);
    }

    #[test]
    fn disjoint_sets_rarely_agree() {
        let su: Vec<u64> = (0..400).collect();
        let sv: Vec<u64> = (10_000..10_400).collect();
        let scheme = SimilarityScheme::practical(0.25);
        let agreements = (0..40)
            .filter(|&t| {
                let mut rng = StdRng::seed_from_u64(t);
                joint_sample(&scheme, &su, &sv, 2, &mut rng).agreed()
            })
            .count();
        assert!(agreements <= 4, "{agreements}/40 spurious agreements");
    }

    #[test]
    fn many_samples_mostly_agree_and_come_from_the_intersection() {
        let su: Vec<u64> = (0..500).collect();
        let sv: Vec<u64> = (100..600).collect();
        let scheme = SimilarityScheme::practical(0.25);
        let mut rng = StdRng::seed_from_u64(77);
        let out = joint_sample_many(&scheme, &su, &sv, 16, 5, &mut rng);
        assert!(!out.u_out.is_empty(), "no samples drawn");
        let agree = out.agreements();
        assert!(
            agree * 10 >= out.u_out.len() * 6,
            "{agree}/{} agreements",
            out.u_out.len()
        );
        for (a, b) in out.u_out.iter().zip(&out.v_out) {
            if a == b {
                assert!(
                    (100..600).contains(a),
                    "agreed sample {a} outside intersection"
                );
            }
        }
    }

    #[test]
    fn many_with_zero_count_is_empty() {
        let s: Vec<u64> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let out = joint_sample_many(&SimilarityScheme::practical(0.5), &s, &s, 0, 2, &mut rng);
        assert!(out.u_out.is_empty());
        assert_eq!(out.agreements(), 0);
    }

    #[test]
    fn agreement_with_scale_up() {
        // Small identical sets exercise the k > 1 path.
        let s: Vec<u64> = (0..10).collect();
        let scheme = SimilarityScheme::practical(0.5);
        let agreements = (0..40)
            .filter(|&t| {
                let mut rng = StdRng::seed_from_u64(t);
                let out = joint_sample(&scheme, &s, &s, 21, &mut rng);
                out.agreed() && s.contains(&out.u_out.unwrap())
            })
            .count();
        assert!(agreements >= 15, "{agreements}/40 agreements with scale-up");
    }
}
