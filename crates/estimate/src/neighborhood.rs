//! Per-edge neighborhood-similarity estimation as a CONGEST program.
//!
//! Runs `EstimateSimilarity` (Alg. 1) on every edge simultaneously, with
//! `S_u = N(u)` and `S_v = N(v)` — the building block of
//! `EstimateSparsity` (Alg. 3), local triangle finding (Theorem 2), and
//! the almost-clique decomposition (§4.2).
//!
//! Round structure (4 rounds, O(1) as claimed):
//!
//! 0. every node broadcasts its degree (`⌈log₂ n⌉` bits);
//! 1. on each edge the lower-id endpoint draws the shared family index and
//!    sends it (`⌈log₂ F⌉` bits);
//! 2. both endpoints exchange their σ-bit window signatures;
//! 3. estimates are computed locally; the program finishes.

use crate::scheme::SimilarityScheme;
use crate::similarity::{intersection_size, window_signature, EdgeSetup, PointTables};
use congest::message::bits_for_range;
use congest::{Ctx, Message, Program};
use graphs::NodeId;
use prand::mix::mix3;

/// Messages of the neighborhood-similarity protocol.
#[derive(Clone, Debug)]
pub enum NsMsg {
    /// Round-0 degree announcement; costs `⌈log₂ n⌉` bits.
    Degree {
        /// The sender's degree.
        degree: u32,
        /// Bit cost (`⌈log₂ n⌉`), fixed by the caller.
        bits: u32,
    },
    /// Round-1 joint hash choice; costs `⌈log₂ F⌉` bits.
    Index {
        /// Family member index for this edge.
        index: u64,
        /// Bit cost of the index.
        bits: u32,
    },
    /// Round-2 window signature; costs σ bits.
    Signature {
        /// Packed σ-bit bitmap of `h(T)`.
        bitmap: Vec<u64>,
        /// The window size σ.
        sigma: u64,
    },
}

impl Message for NsMsg {
    fn bit_cost(&self) -> u64 {
        match self {
            NsMsg::Degree { bits, .. } | NsMsg::Index { bits, .. } => u64::from(*bits),
            NsMsg::Signature { sigma, .. } => *sigma,
        }
    }
}

/// Per-node program estimating `|N(u) ∩ N(v)|` for every incident edge.
#[derive(Clone, Debug)]
pub struct NeighborhoodSimilarity {
    scheme: SimilarityScheme,
    seed: u64,
    degree_bits: u32,
    /// Per-neighbor (position-indexed) degree of the other endpoint.
    neighbor_degrees: Vec<u32>,
    /// Per-neighbor family index agreed for the edge.
    edge_index: Vec<u64>,
    /// Round-2 signatures, cached per neighbor: round 3 compares exactly
    /// the signature this node sent, so it is reused, not recomputed.
    my_sigs: Vec<Vec<u64>>,
    /// Per-neighbor estimate of `|N(u) ∩ N(v)|` (valid once done).
    estimates: Vec<f64>,
    done: bool,
}

impl NeighborhoodSimilarity {
    /// A program for one node of an `n`-node graph. All nodes must share
    /// `scheme` and `seed`.
    pub fn new(scheme: SimilarityScheme, seed: u64, n: usize) -> Self {
        NeighborhoodSimilarity {
            scheme,
            seed,
            degree_bits: bits_for_range(n as u64) as u32,
            neighbor_degrees: Vec::new(),
            edge_index: Vec::new(),
            my_sigs: Vec::new(),
            estimates: Vec::new(),
            done: false,
        }
    }

    /// Per-neighbor estimates, aligned with the node's sorted neighbor
    /// list. Empty until the program finishes.
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// The deterministic per-edge family seed both endpoints derive.
    fn edge_seed(&self, a: NodeId, b: NodeId) -> u64 {
        mix3(self.seed, u64::from(a.min(b)), u64::from(a.max(b)))
    }

    /// The edge's setup: its own family seed, and the pass seed as the
    /// salt every edge shares.
    fn edge_setup(&self, me: NodeId, nb: NodeId, my_deg: usize, nb_deg: usize) -> EdgeSetup {
        let seed = self.edge_seed(me, nb);
        EdgeSetup::new(&self.scheme, my_deg, nb_deg, seed, self.seed)
    }
}

impl Program for NeighborhoodSimilarity {
    type Msg = NsMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, NsMsg>) {
        if self.done {
            return;
        }
        match ctx.round() {
            0 => {
                self.neighbor_degrees = vec![0; ctx.degree()];
                self.edge_index = vec![0; ctx.degree()];
                ctx.broadcast(NsMsg::Degree {
                    degree: ctx.degree() as u32,
                    bits: self.degree_bits,
                });
            }
            1 => {
                for &(from, ref msg) in ctx.inbox() {
                    if let NsMsg::Degree { degree, .. } = msg {
                        let i = ctx.neighbor_index(from).expect("degree from non-neighbor");
                        self.neighbor_degrees[i] = *degree;
                    }
                }
                // Lower-id endpoint draws the edge's family index.
                let me = ctx.id();
                let my_deg = ctx.degree();
                for i in 0..ctx.neighbors().len() {
                    let nb = ctx.neighbors()[i];
                    if me < nb {
                        let setup =
                            self.edge_setup(me, nb, my_deg, self.neighbor_degrees[i] as usize);
                        let index = setup.family.sample_index(ctx.rng());
                        self.edge_index[i] = index;
                        ctx.send(
                            nb,
                            NsMsg::Index {
                                index,
                                bits: setup.family.index_bits(),
                            },
                        );
                    }
                }
            }
            2 => {
                for &(from, ref msg) in ctx.inbox() {
                    if let NsMsg::Index { index, .. } = msg {
                        let i = ctx.neighbor_index(from).expect("index from non-neighbor");
                        self.edge_index[i] = *index;
                    }
                }
                // Send per-edge signatures of the own neighborhood, each
                // signed from the one point table of the edge's k.
                let me = ctx.id();
                let my_deg = ctx.degree();
                let own: Vec<u64> = ctx.neighbors().iter().map(|&w| u64::from(w)).collect();
                let mut tables = PointTables::new(&own, self.seed);
                self.my_sigs = Vec::with_capacity(my_deg);
                for i in 0..ctx.neighbors().len() {
                    let nb = ctx.neighbors()[i];
                    let setup = self.edge_setup(me, nb, my_deg, self.neighbor_degrees[i] as usize);
                    let h = setup.family.member(self.edge_index[i]);
                    let bitmap = window_signature(&h, tables.get(setup.k));
                    self.my_sigs.push(bitmap.clone());
                    ctx.send(
                        nb,
                        NsMsg::Signature {
                            bitmap,
                            sigma: setup.sigma(),
                        },
                    );
                }
            }
            _ => {
                let me = ctx.id();
                let my_deg = ctx.degree();
                self.estimates = vec![0.0; ctx.degree()];
                for &(from, ref msg) in ctx.inbox() {
                    if let NsMsg::Signature { bitmap, .. } = msg {
                        let i = ctx
                            .neighbor_index(from)
                            .expect("signature from non-neighbor");
                        let setup =
                            self.edge_setup(me, from, my_deg, self.neighbor_degrees[i] as usize);
                        let j = intersection_size(&self.my_sigs[i], bitmap);
                        self.estimates[i] = setup.descale(j);
                    }
                }
                self.my_sigs = Vec::new();
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Run the protocol on a whole graph and return per-node, per-neighbor
/// estimates (aligned with sorted neighbor lists) plus the engine report.
///
/// # Errors
///
/// Propagates engine errors (bandwidth violations in strict mode).
pub fn run_neighborhood_similarity(
    g: &graphs::Graph,
    scheme: SimilarityScheme,
    config: congest::SimConfig,
    seed: u64,
) -> Result<(Vec<Vec<f64>>, congest::RunReport), congest::SimError> {
    let programs = (0..g.n())
        .map(|_| NeighborhoodSimilarity::new(scheme, seed, g.n()))
        .collect();
    let (programs, report) = congest::run(g, programs, config)?;
    Ok((programs.into_iter().map(|p| p.estimates).collect(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::SimConfig;
    use graphs::gen;

    #[test]
    fn clique_edges_have_full_overlap() {
        let g = gen::complete(24);
        let scheme = SimilarityScheme::practical(0.25);
        let (est, report) =
            run_neighborhood_similarity(&g, scheme, SimConfig::seeded(3), 17).unwrap();
        assert!(report.completed);
        assert_eq!(report.rounds, 4);
        // |N(u) ∩ N(v)| = 22 on every edge of K24.
        let mut close = 0;
        let mut total = 0;
        for row in est.iter().take(24) {
            for &e in row {
                total += 1;
                if (e - 22.0).abs() <= 0.25 * 23.0 {
                    close += 1;
                }
            }
        }
        assert!(close * 10 >= total * 8, "{close}/{total} within ε bound");
    }

    /// Round 3 compares the signatures cached in round 2, signed from one
    /// point table per node and k: every estimate must equal a fresh
    /// per-edge recomputation of both endpoints' signatures from tables
    /// built with the pass salt. Uncapped
    /// scale-up makes k = ⌈7213.6/max(d_u, d_v)⌉ vary across a node's
    /// edges, so most nodes hold several tables.
    #[test]
    fn estimates_equal_fresh_per_edge_signatures() {
        use crate::similarity::PointTable;
        let g = gen::gnp(80, 0.15, 4);
        let scheme = SimilarityScheme {
            scale_cap: u64::MAX,
            ..SimilarityScheme::practical(0.5)
        };
        let programs = (0..g.n())
            .map(|_| NeighborhoodSimilarity::new(scheme, 19, g.n()))
            .collect();
        let (programs, _) = congest::run(&g, programs, SimConfig::seeded(8)).unwrap();
        let set =
            |v: NodeId| -> Vec<u64> { g.neighbors(v).iter().map(|&w| u64::from(w)).collect() };
        let mut mixed = 0;
        for (v, p) in (0..).zip(&programs) {
            let mut scales = Vec::new();
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                let setup = p.edge_setup(v, u, g.degree(v), g.degree(u));
                let h = setup.family.member(p.edge_index[i]);
                let mine = window_signature(&h, &PointTable::new(&set(v), setup.k, 19));
                let theirs = window_signature(&h, &PointTable::new(&set(u), setup.k, 19));
                let fresh = setup.descale(intersection_size(&mine, &theirs));
                assert_eq!(p.estimates[i].to_bits(), fresh.to_bits(), "edge {v}-{u}");
                scales.push(setup.k);
            }
            scales.sort_unstable();
            scales.dedup();
            mixed += usize::from(scales.len() > 1);
        }
        assert!(mixed > g.n() / 2, "only {mixed} nodes hold several tables");
    }

    #[test]
    fn star_edges_have_zero_overlap() {
        let g = gen::star(20);
        let scheme = SimilarityScheme::practical(0.25);
        let (est, _) = run_neighborhood_similarity(&g, scheme, SimConfig::seeded(1), 7).unwrap();
        // Center–leaf edges share no neighbors.
        let mut ok = 0;
        let mut total = 0;
        for &e in &est[0] {
            total += 1;
            if e <= 0.25 * 20.0 {
                ok += 1;
            }
        }
        assert!(ok * 10 >= total * 8, "{ok}/{total} near zero");
    }

    #[test]
    fn respects_strict_congest_bandwidth() {
        let g = gen::gnp(64, 0.2, 5);
        let scheme = SimilarityScheme::practical(0.25);
        // The σ-bit signature dominates; Lemma 2's stated message size is
        // Θ(ε⁻⁴ log(1/ν) + log log|U| + log max|S|) bits, modeled here by
        // σ_cap + a small header allowance.
        let config = congest::SimConfig {
            bandwidth: congest::Bandwidth::Strict(2048 + 64),
            ..SimConfig::seeded(2)
        };
        let result = run_neighborhood_similarity(&g, scheme, config, 3);
        assert!(result.is_ok(), "bandwidth exceeded: {:?}", result.err());
    }

    #[test]
    fn estimates_align_with_ground_truth_on_random_graph() {
        let g = gen::gnp(120, 0.3, 11);
        let scheme = SimilarityScheme::practical(0.25);
        let (est, _) = run_neighborhood_similarity(&g, scheme, SimConfig::seeded(5), 23).unwrap();
        let mut within = 0;
        let mut total = 0;
        for v in 0..g.n() as NodeId {
            let nbrs = g.neighbors(v);
            for (i, &u) in nbrs.iter().enumerate() {
                let truth = g.common_neighbors(v, u) as f64;
                let bound = 0.25 * g.degree(v).max(g.degree(u)) as f64;
                total += 1;
                if (est[v as usize][i] - truth).abs() <= bound {
                    within += 1;
                }
            }
        }
        assert!(
            within as f64 >= 0.85 * total as f64,
            "{within}/{total} edges within the ε bound"
        );
    }
}
