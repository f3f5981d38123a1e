//! Local four-cycle finding — Theorem 3.
//!
//! "There exists an `O(ε⁻⁴)`-round CONGEST algorithm that, for each pair of
//! edges incident on the same vertex, detects w.h.p. when they are part of
//! `εΔ` 4-cycles."
//!
//! Protocol (proof of Theorem 3): each vertex `v` picks a random
//! representative hash function `h_v` and sends it to all neighbors, who
//! answer with the window signature of `N(u) ¬_{h_v} N(u)`. For each pair
//! of neighbors `u, u'`, `v` estimates `|N(u) ∩ N(u')|` from the two
//! signatures exactly as `EstimateSimilarity` would; the pair of edges
//! `(vu, vu')` lies on `|N(u) ∩ N(u')| − 1` four-cycles (the `−1` removes
//! `v` itself).

use congest::{inbox_positions, Ctx, Message, Program, RunReport, SimConfig, SimError};
use graphs::{Graph, NodeId};
use prand::mix::mix2;
use prand::{RepHash, RepHashFamily, RepParams};

/// Messages of the four-cycle detector.
#[derive(Clone, Debug)]
pub enum FcMsg {
    /// The center announces its chosen family index.
    Index {
        /// Family member index.
        index: u64,
        /// Bit cost `⌈log₂ F⌉`.
        bits: u32,
    },
    /// A neighbor returns its σ-bit signature under the center's hash.
    Signature {
        /// Packed bitmap of `h_v(N(u) ¬ N(u))`.
        bitmap: Vec<u64>,
        /// Window size σ.
        sigma: u64,
    },
}

impl Message for FcMsg {
    fn bit_cost(&self) -> u64 {
        match self {
            FcMsg::Index { bits, .. } => u64::from(*bits),
            FcMsg::Signature { sigma, .. } => *sigma,
        }
    }
}

/// The shared Lemma 1 parameters all nodes derive from `(ε, Δ)`.
fn shared_params(eps: f64, delta: usize) -> RepParams {
    // λ = 8Δ/ε with β = ε/4 covers neighborhoods up to 2Δ; σ and the
    // family-index width follow the practical profile.
    let lambda = ((8.0 * delta.max(1) as f64 / eps).ceil() as u64).max(2);
    let alpha = eps * eps / 8.0;
    let beta = eps / 4.0;
    let sigma_lemma = (3.0 / (alpha * beta * beta) * (8.0f64 / 1e-3).ln()).ceil() as u64;
    let sigma = sigma_lemma.min(512).min(lambda);
    RepParams::practical(alpha, beta, lambda, sigma, 16)
}

/// Wedge-centric program: after 3 rounds, each node knows an estimate of
/// `|N(u) ∩ N(u')|` for every pair of its neighbors.
#[derive(Clone, Debug)]
pub struct FourCycleFinder {
    base_seed: u64,
    node: NodeId,
    params: RepParams,
    my_index: u64,
    /// Pairs `(u, u′, estimated 4-cycles)` for all neighbor pairs.
    pairs: Vec<(NodeId, NodeId, f64)>,
    done: bool,
}

impl FourCycleFinder {
    /// A program for node `node`; all nodes must share `seed`, `eps` and
    /// the graph's `Δ` (global knowledge).
    pub fn new(seed: u64, node: NodeId, eps: f64, delta: usize) -> Self {
        FourCycleFinder {
            base_seed: seed,
            node,
            params: shared_params(eps, delta),
            my_index: 0,
            pairs: Vec::new(),
            done: false,
        }
    }

    /// All neighbor pairs with their estimated four-cycle counts
    /// (valid once done).
    pub fn pairs(&self) -> &[(NodeId, NodeId, f64)] {
        &self.pairs
    }

    /// Estimate for a specific wedge `(u, v, u')` centered at this node.
    pub fn wedge_estimate(&self, u: NodeId, u2: NodeId) -> Option<f64> {
        let (a, b) = (u.min(u2), u.max(u2));
        self.pairs
            .iter()
            .find(|&&(x, y, _)| x == a && y == b)
            .map(|&(_, _, e)| e)
    }

    /// The family of center `c` — every node can reconstruct it.
    fn family_of(&self, c: NodeId) -> RepHashFamily {
        RepHashFamily::new(mix2(self.base_seed, u64::from(c)), self.params)
    }

    fn my_hash(&self) -> RepHash {
        self.family_of(self.node).member(self.my_index)
    }
}

impl Program for FourCycleFinder {
    type Msg = FcMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, FcMsg>) {
        match ctx.round() {
            0 => {
                let family = self.family_of(self.node);
                self.my_index = family.sample_index(ctx.rng());
                ctx.broadcast(FcMsg::Index {
                    index: self.my_index,
                    bits: family.index_bits(),
                });
            }
            1 => {
                // Answer every center with the signature of the own
                // neighborhood under *their* hash.
                let own: Vec<u64> = ctx.neighbors().iter().map(|&w| u64::from(w)).collect();
                let msgs: Vec<(NodeId, FcMsg)> = ctx
                    .inbox()
                    .iter()
                    .map(|(center, msg)| {
                        let FcMsg::Index { index, .. } = msg else {
                            unreachable!("round 1 carries only Index messages");
                        };
                        let h = self.family_of(center).member(*index);
                        let t = h.isolated(&own, &own);
                        (
                            center,
                            FcMsg::Signature {
                                bitmap: h.window_bitmap(&t),
                                sigma: h.sigma(),
                            },
                        )
                    })
                    .collect();
                for (to, msg) in msgs {
                    ctx.send(to, msg);
                }
            }
            _ => {
                // Signatures received, aligned with sorted neighbor
                // positions. Sized here, in the one round that reads them:
                // a node a crash fate kept down in round 0 still gets here.
                let mut signatures: Vec<Option<&[u64]>> = vec![None; ctx.degree()];
                for (pos, _, msg) in inbox_positions(ctx.neighbors(), ctx.inbox()) {
                    if let FcMsg::Signature { bitmap, .. } = msg {
                        signatures[pos] = Some(bitmap);
                    }
                }
                let scale = self.params.lambda as f64 / self.params.sigma as f64;
                let nbrs = ctx.neighbors();
                for i in 0..nbrs.len() {
                    let Some(si) = signatures[i] else {
                        continue;
                    };
                    for j in (i + 1)..nbrs.len() {
                        let Some(sj) = signatures[j] else {
                            continue;
                        };
                        let joint: usize = si
                            .iter()
                            .zip(sj)
                            .map(|(a, b)| (a & b).count_ones() as usize)
                            .sum();
                        // |N(u) ∩ N(u')| estimate, minus the center itself.
                        let est = (joint as f64 * scale - 1.0).max(0.0);
                        self.pairs.push((nbrs[i], nbrs[j], est));
                    }
                }
                debug_assert_eq!(self.my_hash().sigma(), self.params.sigma);
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Result of the four-cycle detector.
#[derive(Clone, Debug, Default)]
pub struct FourCycleReport {
    /// Per center node: all neighbor pairs with estimates.
    pub wedges: Vec<Vec<(NodeId, NodeId, f64)>>,
    /// Flagged wedges `(center, u, u')` with estimate ≥ εΔ/2.
    pub flagged: Vec<(NodeId, NodeId, NodeId)>,
    /// The applied threshold `εΔ`.
    pub threshold: f64,
}

/// Detect, for every wedge, whether its two edges lie on ≥ `εΔ` 4-cycles.
///
/// # Errors
///
/// Propagates engine errors.
pub fn find_four_cycle_rich_wedges(
    g: &Graph,
    eps: f64,
    config: SimConfig,
    seed: u64,
) -> Result<(FourCycleReport, RunReport), SimError> {
    let delta = g.max_degree();
    let programs = (0..g.n())
        .map(|v| FourCycleFinder::new(seed, v as NodeId, eps, delta))
        .collect();
    let (programs, report) = congest::run(g, programs, config)?;
    let threshold = eps * delta as f64;
    let mut wedges = Vec::with_capacity(g.n());
    let mut flagged = Vec::new();
    for (v, p) in programs.into_iter().enumerate() {
        for &(u, u2, est) in p.pairs() {
            if est >= threshold / 2.0 {
                flagged.push((v as NodeId, u, u2));
            }
        }
        wedges.push(p.pairs);
    }
    Ok((
        FourCycleReport {
            wedges,
            flagged,
            threshold,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn planted_wedge_is_flagged() {
        // Wedge (2, 0, 3) closes 25 four-cycles; Δ ≈ 26.
        let g = gen::four_cycle_rich(120, 25, 0.03, 5);
        let (rep, run) = find_four_cycle_rich_wedges(&g, 0.5, SimConfig::seeded(2), 9).unwrap();
        assert!(run.completed);
        assert_eq!(run.rounds, 3);
        assert!(
            rep.flagged.contains(&(0, 2, 3)),
            "wedge (0,2,3) missing from {:?}",
            &rep.flagged[..rep.flagged.len().min(10)]
        );
    }

    #[test]
    fn sparse_random_graph_flags_few_wedges() {
        let g = gen::gnp(150, 0.03, 8);
        let (rep, _) = find_four_cycle_rich_wedges(&g, 0.8, SimConfig::seeded(3), 11).unwrap();
        // Wedges in sparse G(n,p) close O(np²) ≪ εΔ four-cycles.
        let total_wedges: usize = rep.wedges.iter().map(|w| w.len()).sum();
        assert!(
            rep.flagged.len() * 20 <= total_wedges.max(1),
            "{} of {} wedges flagged",
            rep.flagged.len(),
            total_wedges
        );
    }

    #[test]
    fn wedge_estimate_lookup() {
        let g = gen::four_cycle_rich(60, 10, 0.0, 1);
        let delta = g.max_degree();
        let programs = (0..g.n())
            .map(|v| FourCycleFinder::new(4, v as NodeId, 0.5, delta))
            .collect();
        let (programs, _) = congest::run(&g, programs, SimConfig::seeded(1)).unwrap();
        let center = &programs[0];
        let est = center.wedge_estimate(2, 3).expect("wedge exists");
        assert!(est > 2.0, "estimate {est} too low for 10 planted cycles");
        assert_eq!(center.wedge_estimate(3, 2), center.wedge_estimate(2, 3));
    }

    #[test]
    fn k23_wedge_estimates_one_cycle() {
        // In K_{2,3} the wedge (2, 0, 3) closes exactly 1 four-cycle.
        let g = gen::complete_bipartite(2, 3);
        let programs = (0..g.n())
            .map(|v| FourCycleFinder::new(6, v as NodeId, 0.5, g.max_degree()))
            .collect();
        let (programs, _) = congest::run(&g, programs, SimConfig::seeded(5)).unwrap();
        let est = programs[0].wedge_estimate(2, 3).expect("wedge exists");
        // Tiny sets: the estimate is noisy but must be small and finite.
        assert!(est <= 6.0, "estimate {est}");
    }
}
