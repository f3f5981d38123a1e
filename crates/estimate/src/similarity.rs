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
//! In the CONGEST protocol ([`crate::NeighborhoodSimilarity`]) every node
//! signs its neighbourhood once per incident edge, each edge under its own
//! family member. The members come
//! from the sorted-range family ([`prand::range_hash`]): member `i` shifts
//! one salted point per scaled element by its offset, so the elements it
//! maps into the σ-window are the points on one arc. The salt is the pass
//! seed, so both endpoints of an edge see the same points and all of a
//! node's edges share them. The pass derives each node's points once, in
//! its [`crate::SimilarityTable`], with each edge's scale factor, family
//! parameters and window threshold; a node gathers its neighbours' points
//! from it into one [`PointTable`] of `S'` per distinct `k`, ordered by
//! point value, and [`window_signature`] reads only the points on the
//! member's arc — about `|S'|·σ/λ = σ·ε/8` of them — instead of all of
//! `S'`. The point tables are transient: they live for the round that
//! signs. [`PointTable::new`] hashes the points itself, for the two-party
//! [`estimate_similarity`].
//!
//! The kernel allocates nothing: it writes into the caller's words, so the
//! protocol signs all of a node's edges into one buffer, and the words it
//! counts in are on the stack.

use crate::scheme::SimilarityScheme;
use congest::BitTally;
use prand::range_hash::point;
use prand::{RangeHash, RangeHashFamily};
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
/// `seed` derives the shared hash family (public advice) and salts its
/// points; `rng` supplies the joint randomness of step 5 (in CONGEST the
/// lower-id endpoint draws it and sends the index, which is what the tally
/// charges).
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
    let setup = EdgeSetup::new(scheme, su.len(), sv.len(), seed, seed);
    let h = setup.pick_hash(rng, &mut tally);
    let bu = setup.signature(&h, su);
    let bv = setup.signature(&h, sv);
    // Step 6: exchange the σ-bit signatures.
    tally.exchange(setup.sigma());
    let j = intersection_size(&bu, &bv);
    SimilarityEstimate {
        estimate: setup.descale(j),
        tally,
    }
}

/// Shared per-edge setup: scale factor, family, σ — everything both
/// parties derive from `(scheme, |S_u|, |S_v|, seed, salt)` without
/// communication. Public so callers can drive or time Alg. 1's steps one
/// at a time; protocols run them through
/// [`NeighborhoodSimilarity`](crate::NeighborhoodSimilarity).
#[derive(Clone, Copy, Debug)]
pub struct EdgeSetup {
    /// The shared representative hash family for this edge.
    pub family: RangeHashFamily,
    /// The Alg. 1 step-2 scale-up factor.
    pub k: u64,
}

impl EdgeSetup {
    /// Derive the setup both endpoints compute without communication
    /// (Alg. 1 steps 2–3): `k` and the family parameters depend only on
    /// `max(|S_u|, |S_v|)`, the family's offsets come from the edge's
    /// `seed`, and its points from `salt`, which every edge of a pass
    /// shares.
    pub fn new(
        scheme: &SimilarityScheme,
        su_len: usize,
        sv_len: usize,
        seed: u64,
        salt: u64,
    ) -> Self {
        let max_len = su_len.max(sv_len);
        let k = scheme.scale_factor(max_len);
        let params = scheme.rep_params(max_len * k as usize);
        EdgeSetup {
            family: RangeHashFamily::new(seed, salt, params),
            k,
        }
    }

    /// Step 5: joint hash choice; the index ride costs `⌈log₂ F⌉` bits in
    /// one direction.
    pub fn pick_hash<R: Rng + ?Sized>(&self, rng: &mut R, tally: &mut BitTally) -> RangeHash {
        let index = self.family.sample_index(rng);
        tally.a_to_b(u64::from(self.family.index_bits()));
        self.family.member(index)
    }

    /// The [`PointTable`] of `s` scaled by this edge's `k` under its salt.
    pub fn table(&self, s: &[u64]) -> PointTable {
        PointTable::new(s, self.k, self.family.salt())
    }

    /// The signature of `s` under member `h` of this edge's family, in
    /// words of its own (the protocol signs into one shared buffer with
    /// [`window_signature`] instead).
    pub fn signature(&self, h: &RangeHash, s: &[u64]) -> Vec<u64> {
        let mut words = vec![0; self.words()];
        window_signature(h, &self.table(s), &mut words);
        words
    }

    /// The observation window σ (signature length in bits).
    pub fn sigma(&self) -> u64 {
        self.family.params().sigma
    }

    /// The signature's length in 64-bit words, `⌈σ/64⌉`.
    pub fn words(&self) -> usize {
        self.sigma().div_ceil(64) as usize
    }

    /// Step 7's rescaling: window count → intersection estimate.
    pub fn descale(&self, window_count: usize) -> f64 {
        let p = self.family.params();
        window_count as f64 * p.lambda as f64 / (p.sigma as f64 * self.k as f64)
    }
}

/// Alg. 1's scaled-up set `S' = S × [k]` as the points of one salt
/// ([`point`]), ordered by their top `⌈log₂|S'|⌉` bits with one counting
/// sort: the table [`window_signature`] signs under any member of any
/// family with that salt.
#[derive(Clone, Debug)]
pub struct PointTable {
    salt: u64,
    /// Point `p` lies in bucket `p >> shift`.
    shift: u32,
    /// Bucket `b` holds `points[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    points: Vec<u64>,
}

impl PointTable {
    /// The points of `s × [k]` under `salt`, hashed here.
    ///
    /// # Panics
    ///
    /// Panics if `|s|·k` exceeds `u32::MAX`.
    pub fn new(s: &[u64], k: u64, salt: u64) -> Self {
        let mut unsorted = Vec::with_capacity(s.len() * k as usize);
        for &x in s {
            unsorted.extend((0..k).map(|j| point(salt, x, j)));
        }
        Self::from_points(unsorted, salt)
    }

    /// The table of `S'` from its points under `salt`, listed element by
    /// element as [`PointTable::new`] hashes them; the similarity pass
    /// gathers them from its [`crate::SimilarityTable`].
    ///
    /// # Panics
    ///
    /// Panics if `|S'|` exceeds `u32::MAX`.
    pub(crate) fn from_points(unsorted: Vec<u64>, salt: u64) -> Self {
        let len = unsorted.len();
        assert!(u32::try_from(len).is_ok(), "|S'| = {len} exceeds u32");
        // At least two buckets, so the shift stays below 64.
        let bits = len.max(2).next_power_of_two().trailing_zeros();
        let shift = 64 - bits;
        // Counting sort: count bucket b at b + 2, so that after the
        // prefix sum `starts[b + 1]` is bucket b's first slot and, once
        // the scatter has advanced it, `starts[b]` is bucket b's start.
        let mut starts = vec![0u32; (1 << bits) + 2];
        for &p in &unsorted {
            starts[(p >> shift) as usize + 2] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut points = vec![0; len];
        for p in unsorted {
            let slot = &mut starts[(p >> shift) as usize + 1];
            points[*slot as usize] = p;
            *slot += 1;
        }
        starts.pop();
        PointTable {
            salt,
            shift,
            starts,
            points,
        }
    }

    /// The points of every bucket that meets `[lo, hi]`: all of the
    /// table's points in that range, and a few around it.
    fn covering(&self, lo: u64, hi: u64) -> &[u64] {
        let from = self.starts[(lo >> self.shift) as usize] as usize;
        let to = self.starts[(hi >> self.shift) as usize + 1] as usize;
        &self.points[from..to]
    }
}

/// Window words [`window_signature`] counts per walk of a sub-arc: its
/// `twice` bits for them live on the stack.
const CHUNK_WORDS: usize = 32;

/// Write the σ-bit signature `h(T)` with `T = S' ¬_h S'` into `out`
/// (`⌈σ/64⌉` words, overwritten), from the point table of `S'`
/// ([`PointTable`] of `S` with the edge's `k` and the member's salt).
///
/// Because the isolated-set operator is applied with `A = B = S'`, a
/// window bit is set iff **exactly one** element of `S'` hashes to it. The
/// elements in the window are the points on the member's arc
/// ([`RangeHash::arc`]). The kernel walks it in sub-arcs of
/// `64·CHUNK_WORDS` window bits ([`RangeHash::arc_of`]; one sub-arc for
/// any σ ≤ 2048), each split in two where it wraps, reads the buckets
/// that meet each range, keeps the points inside it, and counts each
/// one's bit in a once/twice bit pair: `once` is `out`, `twice` a stack
/// array. It allocates nothing. This is the inner loop of the ACD
/// similarity estimates, evaluated per directed edge.
///
/// # Panics
///
/// Panics unless `out` holds exactly `⌈σ/64⌉` words.
pub fn window_signature(h: &RangeHash, table: &PointTable, out: &mut [u64]) {
    debug_assert_eq!(h.salt(), table.salt, "member and table salts differ");
    assert_eq!(
        out.len() as u64,
        h.sigma().div_ceil(64),
        "a σ = {}-bit signature",
        h.sigma()
    );
    for (c, once) in out.chunks_mut(CHUNK_WORDS).enumerate() {
        once.fill(0);
        let base = 64 * (c * CHUNK_WORDS) as u64;
        let end = (base + 64 * once.len() as u64).min(h.sigma());
        let mut twice = [0u64; CHUNK_WORDS];
        let mut count = |lo: u64, hi: u64| {
            for &p in table.covering(lo, hi) {
                if p.wrapping_sub(lo) <= hi - lo {
                    let hv = h.bit(p) - base;
                    let (w, bit) = ((hv / 64) as usize, 1u64 << (hv % 64));
                    twice[w] |= once[w] & bit;
                    once[w] |= bit;
                }
            }
        };
        let (first, last) = h.arc_of(base..end);
        if first <= last {
            count(first, last);
        } else {
            count(first, u64::MAX);
            count(0, last);
        }
        for (o, t) in once.iter_mut().zip(&twice) {
            *o &= !t;
        }
    }
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
    use prand::RepParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_once(su: &[u64], sv: &[u64], eps: f64, seed: u64, trial: u64) -> SimilarityEstimate {
        let mut rng = StdRng::seed_from_u64(trial);
        estimate_similarity(&SimilarityScheme::practical(eps), su, sv, seed, &mut rng)
    }

    /// The signature by definition: count every scaled element's window
    /// bit through the member's single-element hash, keep the bits hit
    /// exactly once.
    fn per_element_signature(h: &RangeHash, s: &[u64], k: u64) -> Vec<u64> {
        let mut hits = vec![0u32; h.sigma() as usize];
        for &x in s {
            for j in 0..k {
                let hv = h.hash(x, j);
                if hv < h.sigma() {
                    hits[hv as usize] += 1;
                }
            }
        }
        let mut bits = vec![0u64; h.sigma().div_ceil(64) as usize];
        for (i, _) in hits.iter().enumerate().filter(|&(_, &c)| c == 1) {
            bits[i / 64] |= 1 << (i % 64);
        }
        bits
    }

    /// The arc kernel must equal the per-element signature on random
    /// inputs: set size and spacing, elements up to `2⁶⁴ − 1`, `k`, λ
    /// from below `|S'|` (many collisions) to `96·|S'|`, σ from 1 to λ,
    /// and the salt. Each case builds one table and signs it under several
    /// members, as a node reuses its table across edges: random members,
    /// one whose arc wraps past `2⁶⁴ − 1` (random members wrap only about
    /// σ/λ of the time, so the first one is searched for), and in every
    /// fourth case the whole circle (σ = λ). Windows over 2,048 bits are
    /// signed in several sub-arcs, and the output starts full of stale
    /// words.
    #[test]
    fn window_signature_matches_per_element_reference() {
        let mut rng = StdRng::seed_from_u64(0x5167);
        let (mut wrapped, mut full, mut chunked) = (0, 0, 0);
        for case in 0..300 {
            let len = rng.gen_range(0usize..300);
            let spacing = rng.gen_range(1u64..50);
            let mut x = if case % 3 == 0 {
                u64::MAX - 50 * len as u64
            } else {
                rng.gen_range(0u64..1000)
            };
            let s: Vec<u64> = (0..len)
                .map(|_| {
                    x += rng.gen_range(1..=spacing);
                    x
                })
                .collect();
            let k = rng.gen_range(1u64..=16);
            let scaled = (len as u64 * k).max(1);
            let lambda = rng.gen_range(scaled / 2 + 2..=96 * scaled);
            let sigma = match case % 4 {
                0 => lambda,
                1 => 1,
                _ => rng.gen_range(1..=lambda.min(2048)),
            };
            let params = RepParams::practical(1.0 / 32.0, 1.0 / 8.0, lambda, sigma, 16);
            let salt: u64 = rng.gen();
            let family = RangeHashFamily::new(rng.gen(), salt, params);
            let table = PointTable::new(&s, k, salt);
            // Absent only when σ/λ is far below 1/F.
            let wrapping = (0..params.family_size).find(|&i| {
                let (first, last) = family.member(i).arc();
                last < first
            });
            let random = (0..3).map(|_| family.sample_index(&mut rng));
            for index in random.chain(wrapping) {
                let h = family.member(index);
                let (first, last) = h.arc();
                wrapped += usize::from(last < first);
                full += usize::from(sigma == lambda);
                chunked += usize::from(sigma > 64 * CHUNK_WORDS as u64);
                let mut out = vec![u64::MAX; sigma.div_ceil(64) as usize];
                window_signature(&h, &table, &mut out);
                assert_eq!(
                    out,
                    per_element_signature(&h, &s, k),
                    "case {case}: len={len} k={k} λ={lambda} σ={sigma} index={index}"
                );
            }
        }
        assert!(wrapped >= 50, "only {wrapped} wrapping arcs");
        assert!(full >= 50, "only {full} members with σ = λ");
        assert!(chunked >= 50, "only {chunked} windows over one sub-arc");
    }

    /// Gate for the sorted-range family: its estimator must match the
    /// `mix4` family's, which hashes every scaled element independently.
    /// Both run Alg. 1 under the ACD's scheme on the same sets with the
    /// same parameters; every trial draws a fresh seed and salt. Per
    /// cell — set size d × overlap × consecutive or random ids — the
    /// bias and spread of the estimates must agree within 0.02·d, and the
    /// share of estimates on the wrong side of the buddy threshold 0.5·d
    /// within 0.04. The old side goes through `RepHash::hash`, `isolated`
    /// and `window_bitmap` on `S × [k]` relabeled `x·k + j` (the ids stay
    /// below 2³², so the relabel cannot wrap).
    fn assert_estimators_match(d: usize) {
        use prand::RepHashFamily;
        const TRIALS: usize = 1000;
        let scheme = SimilarityScheme {
            sigma_cap: 512,
            scale_cap: 16,
            ..SimilarityScheme::practical(0.5)
        };
        let mix4_signature = |h: &prand::RepHash, s: &[u64], k: u64| {
            let scaled: Vec<u64> = s
                .iter()
                .flat_map(|&x| (0..k).map(move |j| x * k + j))
                .collect();
            h.window_bitmap(&h.isolated(&scaled, &scaled))
        };
        let threshold = 0.5 * d as f64;
        let mut rng = StdRng::seed_from_u64(0x9a7e + d as u64);
        for overlap in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for random_ids in [false, true] {
                let common = (overlap * d as f64).round() as usize;
                let pool: Vec<u64> = if random_ids {
                    let mut ids = std::collections::BTreeSet::new();
                    while ids.len() < 2 * d - common {
                        ids.insert(rng.gen_range(0..1u64 << 32));
                    }
                    let mut ids: Vec<u64> = ids.into_iter().collect();
                    // Shuffle so the common part is not the low ids.
                    for i in (1..ids.len()).rev() {
                        ids.swap(i, rng.gen_range(0..=i));
                    }
                    ids
                } else {
                    (0..(2 * d - common) as u64).collect()
                };
                let mut su = pool[..d].to_vec();
                let mut sv = pool[d - common..].to_vec();
                su.sort_unstable();
                sv.sort_unstable();
                let truth = exact_intersection(&su, &sv) as f64;
                assert_eq!(truth as usize, common);
                let mut stats = [(0.0, 0.0, 0usize); 2];
                for _ in 0..TRIALS {
                    let seed: u64 = rng.gen();
                    let setup = EdgeSetup::new(&scheme, d, d, seed, rng.gen());
                    let index = setup.family.sample_index(&mut rng);
                    let h = setup.family.member(index);
                    let new =
                        intersection_size(&setup.signature(&h, &su), &setup.signature(&h, &sv));
                    let old_h = RepHashFamily::new(seed, *setup.family.params()).member(index);
                    let old = intersection_size(
                        &mix4_signature(&old_h, &su, setup.k),
                        &mix4_signature(&old_h, &sv, setup.k),
                    );
                    for (stat, j) in stats.iter_mut().zip([new, old]) {
                        let est = setup.descale(j);
                        stat.0 += est;
                        stat.1 += est * est;
                        stat.2 += usize::from((est >= threshold) != (truth >= threshold));
                    }
                }
                let [new, old] = stats.map(|(sum, sq, wrong)| {
                    let mean = sum / TRIALS as f64;
                    let spread = (sq / TRIALS as f64 - mean * mean).max(0.0).sqrt();
                    (mean - truth, spread, wrong as f64 / TRIALS as f64)
                });
                let cell = format!("d={d} overlap={overlap} random_ids={random_ids}");
                let tol = 0.02 * d as f64;
                assert!(
                    (new.0 - old.0).abs() <= tol,
                    "{cell}: bias {new:?} vs {old:?}"
                );
                assert!(
                    (new.1 - old.1).abs() <= tol,
                    "{cell}: spread {new:?} vs {old:?}"
                );
                assert!(
                    (new.2 - old.2).abs() <= 0.04,
                    "{cell}: wrong side {new:?} vs {old:?}"
                );
            }
        }
    }

    #[test]
    fn sorted_range_estimates_match_the_mix4_family() {
        assert_estimators_match(24);
        assert_estimators_match(100);
    }

    /// The d = 400 cells (|S'| = 6,400) of the family gate.
    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "slow in debug builds; run with --features slow-tests or -- --ignored"
    )]
    fn sorted_range_estimates_match_the_mix4_family_at_d400() {
        assert_estimators_match(400);
    }

    /// Elements near `2⁶⁴` are ordinary elements: the scaled element
    /// `(x, j)` is hashed as a pair, never relabeled into one word, so two
    /// disjoint sets estimate near zero and an agreed joint sample is an
    /// element of the sets.
    #[test]
    fn elements_near_the_top_of_u64_scale_up_safely() {
        let big = [(1u64 << 59) + 1, (1 << 59) + 2];
        let scheme = SimilarityScheme::practical(0.25);
        let (mut total, mut agreed) = (0.0, 0);
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            total += estimate_similarity(&scheme, &[1, 2], &big, seed, &mut rng).estimate;
            let out = crate::joint_sample(&scheme, &big, &big, seed, &mut rng);
            if out.agreed() {
                agreed += 1;
                assert!(big.contains(&out.u_out.unwrap()), "seed {seed}: {out:?}");
            }
        }
        let mean = total / 200.0;
        assert!(mean < 0.5, "mean estimate {mean} of an empty intersection");
        assert!(agreed > 100, "only {agreed}/200 agreed samples");
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
        let setup = EdgeSetup::new(&scheme, 300, 300, 1, 1);
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
