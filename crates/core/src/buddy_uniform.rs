//! Uniform `ε-Buddy` — Algorithm 6 (§5.2), the one implementation.
//!
//! Decides whether an edge `uv` is an ε-friend edge (Definition 2) using
//! only explicit pseudorandom objects. The steps live on one per-edge type,
//! `BuddyEdge`; the CONGEST pass
//! [`UniformBuddyPass`](crate::acd_uniform::UniformBuddyPass) runs them on
//! every edge in parallel, and [`uniform_buddy`] runs them for two
//! parties:
//!
//! 1. degree balance check (line 1);
//! 2. the hash range `λ = 6·max(d_u,d_v)/ε`;
//! 3. the chooser `v` picks a pairwise hash over `[λ]` with few collisions
//!    inside its own neighborhood
//!    ([`PairwiseFamily::pick_low_collision`]) and a seed of the
//!    representative-multiset sampler, and sends `(hash index, multiset
//!    seed)` with its own degree; both sides rebuild the hash and the
//!    multiset `S ⊆ [λ]` of size `σ = min(σ cap, λ)`, clamped to
//!    `[16, 512]` (lines 2–3);
//! 4. both sides exchange σ-bit vectors marking which sampled values have
//!    a *unique* preimage in their neighborhood (lines 4–8);
//! 5. few common marks ⇒ not friends (line 9) — evaluated *relative to
//!    each side's own mark count* rather than against the absolute
//!    `(1−3ε)σ` of the paper's sketch (DESIGN.md §12.6);
//! 6. otherwise each side encodes its common preimages with the identifier
//!    error-correcting code ([`IdCode`]) and sends the bits at `σ′`
//!    positions drawn from the edge seed, which both sides know, so the
//!    positions cost no message (lines 10–15);
//! 7. friends iff the two samples differ in fewer than `ε·σ′` positions:
//!    "genuinely shared neighbors" rather than "the hash collided a lot"
//!    (line 16).
//!
//! ε, the σ cap and the family width are the profile's `eps_acd`,
//! `sim_sigma_cap` and `family_bits`.

use crate::config::ParamProfile;
use congest::BitTally;
use graphs::NodeId;
use prand::mix::{mix2, mix3};
use prand::{IdCode, MultisetSampler, PairwiseFamily};
use rand::Rng;

/// How many members the chooser inspects for a low-collision hash.
const HASH_TRIES: u32 = 16;

/// Seed width of both multiset samplers (the σ marks, the σ′ positions).
const SEED_BITS: u32 = 20;

/// The seed of edge `{a, b}` under the public `seed`: it draws the edge's
/// code positions (lines 10–15).
pub(crate) fn edge_seed(seed: u64, a: NodeId, b: NodeId) -> u64 {
    mix3(seed, u64::from(a.min(b)), u64::from(a.max(b)))
}

/// One edge's Alg. 6 objects — ε, the σ cap, the pairwise family over
/// `[λ]` and the σ-multiset sampler, which both endpoints derive alike
/// from the public seed and the two degrees — and the steps over them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct BuddyEdge {
    eps: f64,
    sigma_cap: u64,
    family: PairwiseFamily,
    sampler: MultisetSampler,
}

impl BuddyEdge {
    /// Line 1: are the degrees `du` and `dv` balanced?
    pub(crate) fn balanced(profile: &ParamProfile, du: usize, dv: usize) -> bool {
        let (du, dv, eps) = (du as f64, dv as f64, profile.eps_acd);
        du > 0.0 && dv > 0.0 && du <= dv / (1.0 - eps) && dv <= du / (1.0 - eps)
    }

    /// The objects of an edge whose endpoints have degrees `du` and `dv`,
    /// over `λ = ⌈6·max(du, dv)/ε⌉` (at least 4).
    pub(crate) fn new(profile: &ParamProfile, seed: u64, du: usize, dv: usize) -> Self {
        let lambda = (6.0 * du.max(dv) as f64 / profile.eps_acd).ceil() as u64;
        Self::over(profile, seed, lambda.max(4))
    }

    /// The objects over the hash range `lambda`.
    fn over(profile: &ParamProfile, seed: u64, lambda: u64) -> Self {
        let sigma = profile.sim_sigma_cap.min(lambda).clamp(16, 512);
        BuddyEdge {
            eps: profile.eps_acd,
            sigma_cap: profile.sim_sigma_cap,
            family: PairwiseFamily::new(mix2(seed, lambda), lambda, profile.family_bits),
            sampler: MultisetSampler::new(mix2(seed, 0x5e77), lambda, sigma as u32, SEED_BITS),
        }
    }

    /// Declared width of each of the chooser's three values: hash index,
    /// multiset seed and degree. The pass widens it to the degree's
    /// width when `n` needs more bits.
    pub(crate) fn choice_bits(&self) -> u32 {
        self.family.index_bits().max(SEED_BITS)
    }

    /// Lines 2–3 on the chooser's side: a member with at most
    /// `⌈ε·|own|/3⌉` collisions on its neighborhood `own`, and a multiset
    /// seed — the `(hash index, multiset seed)` it sends.
    pub(crate) fn choose<R: Rng + ?Sized>(&self, own: &[u64], rng: &mut R) -> (u64, u64) {
        let cap = ((self.eps * own.len() as f64 / 3.0).ceil() as usize).max(1);
        let index = self.family.pick_low_collision(own, cap, HASH_TRIES, rng);
        (index, self.sampler.sample_seed(rng))
    }

    /// Lines 2–7 on either side: rebuild the hash and the multiset from
    /// the chooser's `(index, set_seed)`, and pick each sampled value's
    /// unique preimage in `own` (`None` if it has none or several).
    pub(crate) fn picks(&self, (index, set_seed): (u64, u64), own: &[u64]) -> Vec<Option<u64>> {
        let h = self.family.member(index);
        let mut hashed: Vec<(u64, u64)> = own.iter().map(|&w| (h.hash(w), w)).collect();
        hashed.sort_unstable();
        let hash_at = |i: usize| hashed.get(i).map(|&(x, _)| x);
        self.sampler
            .multiset(set_seed)
            .map(|s| {
                let i = hashed.partition_point(|&(x, _)| x < s);
                (hash_at(i) == Some(s) && hash_at(i + 1) != Some(s)).then(|| hashed[i].1)
            })
            .collect()
    }

    /// Line 8: mark the picked positions in `out`, a zeroed σ-bit vector
    /// of `⌈σ/64⌉` words.
    pub(crate) fn mark(picks: &[Option<u64>], out: &mut [u64]) {
        for (i, p) in picks.iter().enumerate() {
            if p.is_some() {
                out[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Line 9: the positions both sides marked, or `None` if they are
    /// too few — empty, or at most a `1−3ε` share of the smaller side's
    /// own marks.
    pub(crate) fn common(&self, picks: &[Option<u64>], their_marks: &[u64]) -> Option<Vec<usize>> {
        let theirs = |i: usize| {
            their_marks
                .get(i / 64)
                .is_some_and(|w| w & (1 << (i % 64)) != 0)
        };
        let my_count = picks.iter().filter(|p| p.is_some()).count();
        let their_count = their_marks
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        let common: Vec<usize> = (0..picks.len())
            .filter(|&i| picks[i].is_some() && theirs(i))
            .collect();
        let enough = !common.is_empty()
            && common.len() as f64 > (1.0 - 3.0 * self.eps) * my_count.min(their_count) as f64;
        enough.then_some(common)
    }

    /// Line 10: `σ′ = min(σ cap, ℓ)` (at least 1), the number of code
    /// bits sampled from the `ℓ`-bit code of `common` picks.
    pub(crate) fn code_len(&self, common: usize) -> u64 {
        let ell = (common * IdCode::new().bits()) as u64;
        self.sigma_cap.min(ell).max(1)
    }

    /// Lines 10–15: the concatenated code of this side's `common` picks,
    /// sampled at the `σ′` positions that `edge_seed` draws, written into
    /// `out`, a zeroed vector of `⌈σ′/64⌉` words.
    pub(crate) fn code_bits(
        &self,
        picks: &[Option<u64>],
        common: &[usize],
        edge_seed: u64,
        out: &mut [u64],
    ) {
        let code = IdCode::new();
        let ell = (common.len() * code.bits()) as u64;
        let sigma2 = self.code_len(common.len());
        let positions = MultisetSampler::new(mix2(edge_seed, 0xecc), ell, sigma2 as u32, SEED_BITS);
        let codewords: Vec<Vec<u64>> = common
            .iter()
            .map(|&i| code.encode(picks[i].expect("common positions are picked")))
            .collect();
        for (j, pos) in positions.multiset(0).enumerate() {
            let (block, bit) = (pos as usize / code.bits(), pos as usize % code.bits());
            if IdCode::bit(&codewords[block], bit) {
                out[j / 64] |= 1 << (j % 64);
            }
        }
    }

    /// Line 16: friends iff the two sides' sampled code bits differ in
    /// fewer than `ε·σ′` positions.
    pub(crate) fn verdict(&self, mine: &[u64], theirs: &[u64], sigma2: u64) -> bool {
        let differing: u32 = mine
            .iter()
            .zip(theirs)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        f64::from(differing) < self.eps * sigma2 as f64
    }

    /// Lines 4–16 for two parties once the chooser `v` made `choice`,
    /// with the code positions of `edge_seed`.
    pub(crate) fn decide(
        &self,
        nu: &[u64],
        nv: &[u64],
        choice: (u64, u64),
        edge_seed: u64,
    ) -> BuddyOutcome {
        let mut tally = BitTally::new();
        tally.b_to_a(3 * u64::from(self.choice_bits()));
        let (pu, pv) = (self.picks(choice, nu), self.picks(choice, nv));
        tally.exchange(pu.len() as u64);
        let mut their_marks = vec![0; pv.len().div_ceil(64)];
        Self::mark(&pv, &mut their_marks);
        let Some(common) = self.common(&pu, &their_marks) else {
            return BuddyOutcome {
                friends: false,
                decided_at: 9,
                tally,
            };
        };
        let sigma2 = self.code_len(common.len());
        let words = sigma2.div_ceil(64) as usize;
        let (mut xu, mut xv) = (vec![0; words], vec![0; words]);
        self.code_bits(&pu, &common, edge_seed, &mut xu);
        self.code_bits(&pv, &common, edge_seed, &mut xv);
        tally.exchange(sigma2);
        BuddyOutcome {
            friends: self.verdict(&xu, &xv, sigma2),
            decided_at: 16,
            tally,
        }
    }
}

/// Outcome of a uniform ε-Buddy execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuddyOutcome {
    /// The verdict: does the edge look like an ε-friend edge?
    pub friends: bool,
    /// Which line of Alg. 6 decided (1, 9 or 16) — for tests and the E12
    /// experiment.
    pub decided_at: u8,
    /// What the pass sends on the edge: the chooser's three values, then
    /// the σ marks and the σ′ code bits each way. The degree broadcast
    /// behind line 1 serves all of a node's edges and is not billed.
    pub tally: BitTally,
}

/// Run uniform `ε-Buddy` for an edge whose endpoints hold the sorted
/// neighbor-id sets `nu` and `nv`, with the uniform ACD pass's parameters
/// from `profile`.
///
/// `seed` is the public seed the pass shares across all edges; the code
/// positions come from the seed it gives the edge between nodes 0 and 1.
/// `v` is the chooser and draws its choice from `rng`.
pub fn uniform_buddy<R: Rng + ?Sized>(
    profile: &ParamProfile,
    nu: &[u64],
    nv: &[u64],
    seed: u64,
    rng: &mut R,
) -> BuddyOutcome {
    if !BuddyEdge::balanced(profile, nu.len(), nv.len()) {
        return BuddyOutcome {
            friends: false,
            decided_at: 1,
            tally: BitTally::new(),
        };
    }
    let edge = BuddyEdge::new(profile, seed, nu.len(), nv.len());
    let choice = edge.choose(nv, rng);
    edge.decide(nu, nv, choice, edge_seed(seed, 0, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(nu: &[u64], nv: &[u64], trial: u64) -> BuddyOutcome {
        let mut rng = StdRng::seed_from_u64(trial);
        uniform_buddy(&ParamProfile::laptop(), nu, nv, 42, &mut rng)
    }

    /// A run over the hash range λ = 48 ≈ |N|, which forces collisions.
    fn run_tiny_lambda(nu: &[u64], nv: &[u64], trial: u64) -> BuddyOutcome {
        let edge = BuddyEdge::over(&ParamProfile::laptop(), 7, 48);
        let choice = edge.choose(nv, &mut StdRng::seed_from_u64(trial));
        edge.decide(nu, nv, choice, edge_seed(7, 0, 1))
    }

    #[test]
    fn identical_neighborhoods_are_friends() {
        let n: Vec<u64> = (0..60).map(|i| i * 13 + 5).collect();
        let hits = (0..20).filter(|&t| run(&n, &n, t).friends).count();
        assert!(
            hits >= 18,
            "only {hits}/20 accepted identical neighborhoods"
        );
    }

    #[test]
    fn near_identical_neighborhoods_are_friends() {
        let nu: Vec<u64> = (0..60).collect();
        let mut nv = nu.clone();
        nv[0] = 1000;
        nv[1] = 1001;
        nv.sort_unstable();
        let hits = (0..20).filter(|&t| run(&nu, &nv, t).friends).count();
        assert!(
            hits >= 15,
            "only {hits}/20 accepted near-identical neighborhoods"
        );
    }

    #[test]
    fn unbalanced_degrees_rejected_at_line_1() {
        let nu: Vec<u64> = (0..10).collect();
        let nv: Vec<u64> = (0..100).collect();
        let out = run(&nu, &nv, 3);
        assert!(!out.friends);
        assert_eq!(out.decided_at, 1);
        assert_eq!(out.tally.total_bits(), 0);
    }

    #[test]
    fn disjoint_neighborhoods_rejected() {
        let nu: Vec<u64> = (0..50).collect();
        let nv: Vec<u64> = (1000..1050).collect();
        let rejections = (0..20).filter(|&t| !run(&nu, &nv, t).friends).count();
        assert!(
            rejections >= 18,
            "only {rejections}/20 rejected disjoint sets"
        );
    }

    #[test]
    fn low_overlap_rejected() {
        // ε-Buddy distinguishes ε-friend (overlap ≥ 1−ε) from *far from
        // friend* (overlap < 1−3ε = 0.25 here); 5% overlap is firmly in
        // the reject region. Half overlap would be in the gray zone where
        // either answer is allowed.
        let nu: Vec<u64> = (0..60).collect();
        let nv: Vec<u64> = (57..117).collect();
        let rejections = (0..20).filter(|&t| !run(&nu, &nv, t).friends).count();
        assert!(rejections >= 16, "only {rejections}/20 rejected 5% overlap");
    }

    #[test]
    fn collision_heavy_hash_is_caught_by_the_code() {
        // λ forced to ~|N|: most sampled values have preimages on both
        // sides even for disjoint sets, so line 9 passes spuriously and
        // only the ECC Hamming test (line 16) can reject.
        let nu: Vec<u64> = (0..40).collect();
        let nv: Vec<u64> = (10_000..10_040).collect();
        let mut rejected = 0;
        let mut via_code = 0;
        for t in 0..20 {
            let out = run_tiny_lambda(&nu, &nv, t);
            if !out.friends {
                rejected += 1;
                if out.decided_at == 16 {
                    via_code += 1;
                }
            }
        }
        assert!(
            rejected >= 18,
            "only {rejected}/20 rejected under collisions"
        );
        assert!(via_code >= 5, "ECC branch never fired ({via_code}/20)");
    }

    #[test]
    fn identical_sets_survive_tiny_lambda() {
        // Same collision regime, but genuinely identical neighborhoods:
        // the ECC test sees zero Hamming distance and accepts.
        let n: Vec<u64> = (0..40).collect();
        let hits = (0..20)
            .filter(|&t| run_tiny_lambda(&n, &n, t).friends)
            .count();
        assert!(hits >= 18, "only {hits}/20 accepted");
    }

    #[test]
    fn transcript_is_bounded_by_b() {
        // The window cap is the bandwidth b = 256.
        let profile = ParamProfile {
            sim_sigma_cap: 256,
            ..ParamProfile::laptop()
        };
        let n: Vec<u64> = (0..80).collect();
        let out = uniform_buddy(&profile, &n, &n, 42, &mut StdRng::seed_from_u64(5));
        // ≤ a few multiset exchanges of ≤ b bits each plus headers.
        assert!(
            out.tally.total_bits() <= 4 * 256 + 200,
            "transcript too large: {} bits",
            out.tally.total_bits()
        );
    }
}
