//! Per-edge neighborhood-similarity estimation as a CONGEST program.
//!
//! Runs `EstimateSimilarity` (Alg. 1) on every selected edge at once, with
//! `S_v` = the neighbors of `v` across its selected edges. It is the one
//! implementation of Alg. 1's protocol: `EstimateSparsity` (Alg. 3) and
//! local triangle finding (Theorem 2) run it on every edge, and the
//! almost-clique decomposition's ε-Buddy test (§4.2, `d1lc::acd`) runs it
//! on the active edges in the pipeline's own message type, through
//! [`SimilarityWire`].
//!
//! Round structure (4 rounds, O(1) as claimed):
//!
//! 0. every node broadcasts `|S_v|` (`⌈log₂ n⌉` bits);
//! 1. on each selected edge the lower-id endpoint draws the shared family
//!    index and sends it (`⌈log₂ F⌉` bits);
//! 2. both endpoints exchange their σ-bit window signatures. A node signs
//!    all its selected edges into one buffer, from one point table of
//!    `S_v` per distinct scale factor `k`, and sends each neighbour its
//!    range of it ([`Words`]): a copy in flight shares the buffer;
//! 3. estimates are computed locally, each neighbour's signature against
//!    this node's range in place; the program finishes.
//!
//! # The pass table
//!
//! An edge's scale factor, family parameters and window threshold depend
//! only on `max(|S_u|, |S_v|)`, and a node's points `point(salt, v, j)`
//! only on the pass seed. Both are public, so the pass derives them once,
//! in one [`SimilarityTable`] every node's program reads, instead of
//! once per node and edge: an edge's setup is a lookup by its max, done
//! in whichever round needs it, and a node's point table of `S_v` gathers
//! its neighbours' points from the table. Only signing mixes the edge's
//! own seed into the family.
//!
//! Fault rules: the first copy of a neighbour's signature spends the
//! edge, so a second copy (a duplicating network) estimates it at 0, as
//! does a signature that arrives on an edge this node did not sign
//! (unselected here, or unsigned because a crash fate kept this node
//! down in round 2). An edge whose signature never arrives reads 0.

use crate::scheme::SimilarityScheme;
use crate::similarity::{intersection_size, window_signature, EdgeSetup, PointTable};
use congest::message::{bits_for_range, Words};
use congest::{inbox_positions, Ctx, Message, Program};
use graphs::NodeId;
use prand::mix::mix3;
use prand::range_hash::point;
use std::marker::PhantomData;
use std::sync::Arc;

/// What every node of one similarity pass derives from public inputs,
/// derived once per pass and read by every node's
/// [`NeighborhoodSimilarity`]:
///
/// * the [`EdgeSetup`] of each `max(|S_u|, |S_v|)` that can occur — some
///   node's `|S_v|` — with its scale factor, family parameters and window
///   threshold. The stored setups' families are seeded with 0; an edge
///   reseeds its family with its own seed where it signs;
/// * the points of every node that signs: `point(seed, v, j)` for `j`
///   below the pass's largest scale factor `k_max`. A node whose set
///   holds a node that signs nothing (a neighbour whose view of the
///   selected edges differs, under faults) hashes that element's points
///   itself.
///
/// The points take `signers × k_max × 8` bytes: 1 MiB at 8,192 signers
/// with `k ≤ 16`.
#[derive(Debug)]
pub struct SimilarityTable {
    /// The pass seed: every edge's family salt, and the key of its seed.
    seed: u64,
    /// Round 0's width, `⌈log₂ n⌉`.
    degree_bits: u32,
    /// `setup_at[len]`: where `setups` holds the setup of an edge whose
    /// larger set has `len` elements, for every `len` that is some node's
    /// `|S_v| > 0` ([`ABSENT`] for other lengths).
    setup_at: Vec<u32>,
    setups: Vec<EdgeSetup>,
    /// Per node: where its `k_max` points start in `points`, or
    /// [`ABSENT`] for a node that signs nothing.
    row_at: Vec<u32>,
    points: Vec<u64>,
}

/// The index of a length without a setup, or of a node without points.
const ABSENT: u32 = u32::MAX;

impl SimilarityTable {
    /// The table of one pass with pass seed `seed`, in which node `v`
    /// selects the incident edges its mask (the `v`-th item of `members`,
    /// one flag per neighbour; empty for a node that takes no part)
    /// sets. Every node's program must be built over the same table with
    /// the same mask ([`NeighborhoodSimilarity::over`]).
    ///
    /// # Panics
    ///
    /// Panics if the points do not fit in `u32` indices.
    pub fn new<'m>(
        scheme: SimilarityScheme,
        seed: u64,
        members: impl IntoIterator<Item = &'m [bool]>,
    ) -> Self {
        let lens: Vec<usize> = members
            .into_iter()
            .map(|member| member.iter().filter(|&&m| m).count())
            .collect();
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let mut setup_at = vec![ABSENT; max_len + 1];
        let mut setups = Vec::new();
        for &len in lens.iter().filter(|&&len| len > 0) {
            if setup_at[len] == ABSENT {
                setup_at[len] = setups.len() as u32;
                setups.push(EdgeSetup::new(&scheme, len, len, 0, seed));
            }
        }
        // The largest k of the pass: every row holds that many points.
        let k_max = setups.iter().map(|s| s.k).max().unwrap_or(0) as usize;
        let signers = lens.iter().filter(|&&len| len > 0).count();
        assert!(
            u32::try_from(signers * k_max).is_ok_and(|len| len < ABSENT),
            "{signers} rows of {k_max} points exceed u32 indices"
        );
        let mut row_at = Vec::with_capacity(lens.len());
        let mut points = Vec::with_capacity(signers * k_max);
        for (v, &len) in lens.iter().enumerate() {
            if len == 0 {
                row_at.push(ABSENT);
                continue;
            }
            row_at.push(points.len() as u32);
            points.extend((0..k_max as u64).map(|j| point(seed, v as u64, j)));
        }
        SimilarityTable {
            seed,
            degree_bits: bits_for_range(lens.len() as u64) as u32,
            setup_at,
            setups,
            row_at,
            points,
        }
    }

    /// The setup of an edge whose larger set has `max_len` elements, with
    /// its family seeded with 0. Both sets' sizes are some node's
    /// `|S_v|` (a neighbour announces its own, or nothing arrives).
    fn setup(&self, max_len: usize) -> EdgeSetup {
        self.setups[self.setup_at[max_len] as usize]
    }

    /// The point table of `S × [k]`, for `S` the nodes `set` yields in
    /// ascending order, `len` of them: each node's points are gathered
    /// from its row, or hashed for a node without one.
    fn point_table(&self, set: impl Iterator<Item = NodeId>, len: usize, k: u64) -> PointTable {
        let mut points = Vec::with_capacity(len * k as usize);
        for w in set {
            match self.row_at[w as usize] {
                ABSENT => points.extend((0..k).map(|j| point(self.seed, u64::from(w), j))),
                at => points.extend_from_slice(&self.points[at as usize..][..k as usize]),
            }
        }
        PointTable::from_points(points, self.seed)
    }
}

/// The protocol's three messages, as constructors and readers, so the
/// protocol can speak any message type that can carry them.
pub trait SimilarityWire: Message {
    /// Round 0's announcement of `|S_v|`, costing `bits`.
    fn degree(degree: u32, bits: u32) -> Self;
    /// Round 1's family index for the edge, costing `bits`.
    fn index(index: u64, bits: u32) -> Self;
    /// Round 2's window signature, a range of the sender's buffer,
    /// costing σ bits.
    fn signature(bitmap: Words, sigma: u64) -> Self;
    /// The announced `|S_u|`, if this is a degree message.
    fn as_degree(&self) -> Option<u32>;
    /// The family index, if this is an index message.
    fn as_index(&self) -> Option<u64>;
    /// The packed bitmap, if this is a signature message.
    fn as_signature(&self) -> Option<&[u64]>;
}

/// Messages of the neighborhood-similarity protocol.
#[derive(Clone, Debug)]
pub enum NsMsg {
    /// Round-0 degree announcement; costs `⌈log₂ n⌉` bits.
    Degree {
        /// The sender's `|S_v|`: its degree over the selected edges.
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
        bitmap: Words,
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

impl SimilarityWire for NsMsg {
    fn degree(degree: u32, bits: u32) -> Self {
        NsMsg::Degree { degree, bits }
    }

    fn index(index: u64, bits: u32) -> Self {
        NsMsg::Index { index, bits }
    }

    fn signature(bitmap: Words, sigma: u64) -> Self {
        NsMsg::Signature { bitmap, sigma }
    }

    fn as_degree(&self) -> Option<u32> {
        match self {
            NsMsg::Degree { degree, .. } => Some(*degree),
            _ => None,
        }
    }

    fn as_index(&self) -> Option<u64> {
        match self {
            NsMsg::Index { index, .. } => Some(*index),
            _ => None,
        }
    }

    fn as_signature(&self) -> Option<&[u64]> {
        match self {
            NsMsg::Signature { bitmap, .. } => Some(bitmap),
            _ => None,
        }
    }
}

/// `sig_at` of an edge this node has no unspent signature for.
const UNSIGNED: u32 = u32::MAX;

/// Per-node program estimating `|S_u ∩ S_v|` for every selected incident
/// edge, speaking the message type `M`, over its pass's shared
/// [`SimilarityTable`].
///
/// Every per-neighbor vector is sized when the node is built, so a node
/// that a crash fate keeps down for any of the four rounds still runs the
/// rounds it is up for.
#[derive(Clone, Debug)]
pub struct NeighborhoodSimilarity<'t, M = NsMsg> {
    table: &'t SimilarityTable,
    /// Per-neighbor (position-indexed): whether the edge is selected.
    member: Vec<bool>,
    /// `|S_v|`, the number of selected edges.
    set_len: usize,
    /// Per-neighbor `|S_u|` as the neighbor announced it.
    neighbor_degrees: Vec<u32>,
    /// Per-neighbor family index agreed for the edge.
    edge_index: Vec<u64>,
    /// Round 2's buffer: every signature this node sent, which round 3
    /// compares in place; dropped in round 3.
    sigs: Option<Arc<[u64]>>,
    /// Per-neighbor first word of the edge's signature in `sigs`, or
    /// [`UNSIGNED`] once a copy of the neighbor's signature spent it (and
    /// on edges never signed).
    sig_at: Vec<u32>,
    /// Per-neighbor estimate of `|S_u ∩ S_v|` (valid once done; 0 on
    /// unselected edges and on edges whose signature never arrived).
    estimates: Vec<f64>,
    done: bool,
    wire: PhantomData<fn() -> M>,
}

impl<'t, M: SimilarityWire> NeighborhoodSimilarity<'t, M> {
    /// A program for one node over the incident edges whose position in
    /// the sorted neighbor list is set in `member` (one flag per
    /// neighbor): the mask this node's item of [`SimilarityTable::new`]
    /// held. All nodes must share `table`; an edge selected at only one
    /// endpoint reads 0 at both.
    pub fn over(table: &'t SimilarityTable, member: Vec<bool>) -> Self {
        let degree = member.len();
        NeighborhoodSimilarity {
            table,
            set_len: member.iter().filter(|&&m| m).count(),
            member,
            neighbor_degrees: vec![0; degree],
            edge_index: vec![0; degree],
            sigs: None,
            sig_at: vec![UNSIGNED; degree],
            estimates: vec![0.0; degree],
            done: false,
            wire: PhantomData,
        }
    }

    /// Per-neighbor estimates, aligned with the node's sorted neighbor
    /// list (see the field docs for the zero entries).
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// Per-neighbor `|S_u|` as announced in round 0, aligned with the
    /// node's sorted neighbor list (0 where nothing arrived).
    pub fn neighbor_degrees(&self) -> &[u32] {
        &self.neighbor_degrees
    }

    /// The setup of the edge to the neighbor at `pos`, its family seeded
    /// with 0: a table lookup by `max(|S_u|, |S_v|)`.
    fn setup(&self, pos: usize) -> EdgeSetup {
        let max_len = self.set_len.max(self.neighbor_degrees[pos] as usize);
        self.table.setup(max_len)
    }
}

impl<M: SimilarityWire> Program for NeighborhoodSimilarity<'_, M> {
    type Msg = M;

    fn on_round(&mut self, ctx: &mut Ctx<'_, M>) {
        let me = ctx.id();
        let neighbors = ctx.neighbors();
        let table = self.table;
        match ctx.round() {
            0 => ctx.broadcast(M::degree(self.set_len as u32, table.degree_bits)),
            1 => {
                for (pos, _, msg) in inbox_positions(neighbors, ctx.inbox()) {
                    if let Some(degree) = msg.as_degree() {
                        self.neighbor_degrees[pos] = degree;
                    }
                }
                // Lower-id endpoint draws the edge's family index, which
                // needs only the family's size and index width.
                for (pos, &nb) in neighbors.iter().enumerate() {
                    if self.member[pos] && me < nb {
                        let family = self.setup(pos).family;
                        let index = family.sample_index(ctx.rng());
                        self.edge_index[pos] = index;
                        ctx.send(nb, M::index(index, family.index_bits()));
                    }
                }
            }
            2 => {
                for (pos, _, msg) in inbox_positions(neighbors, ctx.inbox()) {
                    if let Some(index) = msg.as_index() {
                        self.edge_index[pos] = index;
                    }
                }
                // Lay the signatures out in one buffer, in neighbor order.
                let mut len = 0;
                for pos in 0..neighbors.len() {
                    if self.member[pos] {
                        self.sig_at[pos] = u32::try_from(len).expect("a 2³²-word buffer");
                        len += self.setup(pos).words();
                    }
                }
                let mut sigs = Words::zeroed(len);
                let out = Arc::get_mut(&mut sigs).expect("a fresh buffer");
                // One point table of S_v per distinct k (usually one),
                // shared by every edge and dropped with the round.
                let own = || {
                    neighbors
                        .iter()
                        .zip(&self.member)
                        .filter(|&(_, &m)| m)
                        .map(|(&w, _)| w)
                };
                let mut tables: Vec<(u64, PointTable)> = Vec::new();
                for (pos, &nb) in neighbors.iter().enumerate() {
                    if !self.member[pos] {
                        continue;
                    }
                    let setup = self.setup(pos);
                    let at = match tables.iter().position(|&(k, _)| k == setup.k) {
                        Some(at) => at,
                        None => {
                            tables.push((setup.k, table.point_table(own(), self.set_len, setup.k)));
                            tables.len() - 1
                        }
                    };
                    let seed = mix3(table.seed, u64::from(me.min(nb)), u64::from(me.max(nb)));
                    let h = setup.family.reseeded(seed).member(self.edge_index[pos]);
                    let at_word = self.sig_at[pos] as usize;
                    let sig = &mut out[at_word..at_word + setup.words()];
                    window_signature(&h, &tables[at].1, sig);
                }
                for (pos, &nb) in neighbors.iter().enumerate() {
                    if self.member[pos] {
                        let setup = self.setup(pos);
                        let at = self.sig_at[pos] as usize;
                        let sig = Words::range(&sigs, at..at + setup.words());
                        ctx.send(nb, M::signature(sig, setup.sigma()));
                    }
                }
                self.sigs = Some(sigs);
            }
            _ => {
                let sigs = self.sigs.take();
                for (pos, _, msg) in inbox_positions(neighbors, ctx.inbox()) {
                    let Some(theirs) = msg.as_signature() else {
                        continue;
                    };
                    let at = std::mem::replace(&mut self.sig_at[pos], UNSIGNED);
                    self.estimates[pos] = if at == UNSIGNED {
                        0.0
                    } else {
                        let setup = self.setup(pos);
                        let sigs = sigs.as_deref().expect("signed in round 2");
                        let mine = &sigs[at as usize..at as usize + setup.words()];
                        setup.descale(intersection_size(mine, theirs))
                    };
                }
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Run the protocol on every edge of a graph and return per-node,
/// per-neighbor estimates (aligned with sorted neighbor lists) plus the
/// engine report.
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
    let members: Vec<Vec<bool>> = (0..g.n() as NodeId)
        .map(|v| vec![true; g.degree(v)])
        .collect();
    let table = SimilarityTable::new(scheme, seed, members.iter().map(Vec::as_slice));
    let programs: Vec<NeighborhoodSimilarity> = members
        .into_iter()
        .map(|member| NeighborhoodSimilarity::over(&table, member))
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

    /// Run the protocol over the edges `select` keeps (it must be
    /// symmetric) and pin every estimate to a fresh per-edge
    /// recomputation of both endpoints' signatures (setup, point tables
    /// and words of its own) under the pass salt; unselected edges must
    /// read 0. Returns how many nodes signed from several tables (edges
    /// with different scale factors k).
    fn fresh_signature_check(
        g: &graphs::Graph,
        scheme: SimilarityScheme,
        select: impl Fn(NodeId, NodeId) -> bool,
    ) -> usize {
        const SEED: u64 = 19;
        let member =
            |v: NodeId| -> Vec<bool> { g.neighbors(v).iter().map(|&u| select(v, u)).collect() };
        let members: Vec<Vec<bool>> = (0..g.n() as NodeId).map(member).collect();
        let table = SimilarityTable::new(scheme, SEED, members.iter().map(Vec::as_slice));
        let programs: Vec<NeighborhoodSimilarity> = members
            .into_iter()
            .map(|m| NeighborhoodSimilarity::over(&table, m))
            .collect();
        let (programs, _) = congest::run(g, programs, SimConfig::seeded(8)).unwrap();
        let set = |v: NodeId| -> Vec<u64> {
            g.neighbors(v)
                .iter()
                .zip(member(v))
                .filter(|&(_, m)| m)
                .map(|(&w, _)| u64::from(w))
                .collect()
        };
        let mut mixed = 0;
        for (v, p) in (0..).zip(&programs) {
            let mut scales = Vec::new();
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                if !select(v, u) {
                    assert_eq!(p.estimates[i].to_bits(), 0, "unselected edge {v}-{u}");
                    continue;
                }
                let (sv, su) = (set(v), set(u));
                assert_eq!(p.neighbor_degrees[i] as usize, su.len(), "|S_{u}|");
                let edge_seed = mix3(SEED, u64::from(v.min(u)), u64::from(v.max(u)));
                let setup = EdgeSetup::new(&scheme, sv.len(), su.len(), edge_seed, SEED);
                let h = setup.family.member(p.edge_index[i]);
                let fresh = setup.descale(intersection_size(
                    &setup.signature(&h, &sv),
                    &setup.signature(&h, &su),
                ));
                assert_eq!(p.estimates[i].to_bits(), fresh.to_bits(), "edge {v}-{u}");
                scales.push(setup.k);
            }
            scales.sort_unstable();
            scales.dedup();
            mixed += usize::from(scales.len() > 1);
        }
        mixed
    }

    /// Round 3 compares the signatures signed into one buffer in round 2,
    /// from one point table per node and k and one scale per distinct
    /// max, so every estimate must equal a fresh per-edge recomputation.
    /// Three inputs make nodes hold several tables or sign a subset of
    /// their edges:
    /// * G(80, .15) with uncapped scale-up, so k = ⌈7213.6/max(d_u, d_v)⌉
    ///   varies across most nodes' edges;
    /// * under the almost-clique decomposition's scheme (σ ≤ 512, k ≤ 16,
    ///   ε = .5), a hub with 490 spokes in groups of ten: k clamps to 16
    ///   below degree 481 and is 15 from 481 up, so every spoke (a hub
    ///   edge and nine group mates) holds a k = 15 and a k = 16 table;
    /// * G(80, .15) over a symmetric edge mask, as the decomposition runs
    ///   it over the active edges.
    #[test]
    fn estimates_equal_fresh_per_edge_signatures() {
        let g = gen::gnp(80, 0.15, 4);
        let uncapped = SimilarityScheme {
            scale_cap: u64::MAX,
            ..SimilarityScheme::practical(0.5)
        };
        let mixed = fresh_signature_check(&g, uncapped, |_, _| true);
        assert!(mixed > g.n() / 2, "only {mixed} nodes hold several tables");

        const SPOKES: NodeId = 490;
        let mut b = graphs::GraphBuilder::new(SPOKES as usize + 1);
        for s in 1..=SPOKES {
            b.add_edge(0, s);
            for mate in (s - 1) / 10 * 10 + 1..s {
                b.add_edge(mate, s);
            }
        }
        let acd = SimilarityScheme {
            sigma_cap: 512,
            scale_cap: 16,
            family_bits: 16,
            ..SimilarityScheme::practical(0.5)
        };
        let mixed = fresh_signature_check(&b.build(), acd, |_, _| true);
        assert_eq!(mixed, SPOKES as usize, "every spoke holds two tables");

        fresh_signature_check(&g, uncapped, |v, u| (v + u) % 3 != 0);
    }

    /// The protocol's fault rules. On a network that delivers every
    /// message twice, every announced degree is recorded, and every
    /// estimate reads exactly 0: the second copy of each signature finds
    /// the edge spent. On a fault-free network, an edge selected at one
    /// endpoint only reads 0 at both ends, while edges selected at both
    /// ends still estimate.
    #[test]
    fn duplicated_signatures_and_one_sided_edges_read_zero() {
        let g = gen::gnp(60, 0.2, 6);
        let scheme = SimilarityScheme::practical(0.25);
        fn run<'t>(
            g: &graphs::Graph,
            config: SimConfig,
            table: &'t SimilarityTable,
            members: Vec<Vec<bool>>,
        ) -> (Vec<NeighborhoodSimilarity<'t>>, congest::RunReport) {
            let programs = members
                .into_iter()
                .map(|member| NeighborhoodSimilarity::over(table, member))
                .collect();
            congest::run(g, programs, config).unwrap()
        }
        let members = |select: &dyn Fn(NodeId, NodeId) -> bool| -> Vec<Vec<bool>> {
            (0..g.n() as NodeId)
                .map(|v| g.neighbors(v).iter().map(|&u| select(v, u)).collect())
                .collect()
        };
        let table = |members: &[Vec<bool>]| {
            SimilarityTable::new(scheme, 13, members.iter().map(Vec::as_slice))
        };

        let doubled = SimConfig {
            fault: congest::FaultPlan::none().with_dup(1.0),
            ..SimConfig::seeded(4)
        };
        let all = members(&|_, _| true);
        let all_table = table(&all);
        let (programs, report) = run(&g, doubled, &all_table, all);
        assert!(report.faults.duplicated > 0, "the plan must duplicate");
        for (v, p) in (0..).zip(&programs) {
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                assert_eq!(
                    p.neighbor_degrees()[i] as usize,
                    g.degree(u),
                    "|S_{u}| at {v}"
                );
                assert_eq!(
                    p.estimates()[i].to_bits(),
                    0,
                    "edge {v}-{u} under duplication"
                );
            }
        }

        // Edges whose id sum is a multiple of 3 are selected at their
        // lower endpoint only.
        let one_sided = |v: NodeId, u: NodeId| (v + u).is_multiple_of(3);
        let some = members(&|v, u| !one_sided(v, u) || v < u);
        let some_table = table(&some);
        let (programs, _) = run(&g, SimConfig::seeded(4), &some_table, some);
        let (mut two_sided, mut estimated) = (0, 0);
        for (v, p) in (0..).zip(&programs) {
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                if one_sided(v, u) {
                    assert_eq!(p.estimates()[i].to_bits(), 0, "one-sided edge {v}-{u}");
                } else {
                    two_sided += 1;
                    estimated += usize::from(p.estimates()[i] > 0.0);
                }
            }
        }
        assert!(
            2 * estimated > two_sided,
            "only {estimated}/{two_sided} two-sided estimates above 0"
        );
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
