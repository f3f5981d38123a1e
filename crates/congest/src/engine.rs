//! The round-synchronous simulation engine: configuration types and the
//! one-shot [`run`] entry point.
//!
//! [`run`] is a thin wrapper that builds a throwaway [`crate::Session`]
//! and executes one pass on it. The session (see [`crate::session`])
//! owns the two-lane CSR mailbox plane ([`crate::plane`]), the worker
//! pool, the per-node RNGs, and the active-frontier scheduler; drivers
//! that execute many passes over one graph should hold a session and
//! reuse it — the results are byte-identical, the per-pass setup is
//! amortized away. [`crate::reference::run_reference`] restates the
//! same semantics naively, as the differential tests' oracle.

use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::message::bits_for_range;
use crate::metrics::RunReport;
use crate::program::Program;
use crate::sched::SchedulePlan;
use crate::session::Session;
use graphs::Graph;

/// Bandwidth policy for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bandwidth {
    /// Abort with [`SimError::BandwidthExceeded`] if any directed edge
    /// carries more than this many bits in one round. Used in tests to
    /// prove a protocol CONGEST-legal.
    Strict(u64),
    /// Record loads without enforcing; overflows show up in
    /// [`RunReport::normalized_rounds`].
    Track,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Global seed; node `v`'s RNG is seeded from `(seed, v)`.
    pub seed: u64,
    /// Bandwidth policy.
    pub bandwidth: Bandwidth,
    /// Hard cap on rounds (a run not finished by then reports
    /// `completed = false`).
    pub max_rounds: u64,
    /// Worker threads for the step and routing phases (1 = sequential).
    /// Results are identical regardless of thread count.
    pub threads: usize,
    /// Ownership shards for the session engine's owner/ghost protocol
    /// (see [`Session`](crate::Session)): the node range is split into
    /// this many contiguous owned ranges, each with its own frontier and
    /// lookup scratch. `0` (the default) derives the count from `threads`
    /// exactly as before this knob existed; an explicit count is honored
    /// even on small graphs (useful for differential tests). Results are
    /// identical regardless of shard count; the reference engine
    /// ([`crate::reference`]) ignores it.
    pub shards: usize,
    /// Deterministic fault injection between send and delivery (see
    /// [`FaultPlan`]). The default, [`FaultPlan::none`], leaves every
    /// engine on its unmodified fault-free path — bit for bit.
    pub fault: FaultPlan,
    /// Asynchronous execution under a deterministic schedule adversary,
    /// run through the α-synchronizer (see [`SchedulePlan`]): the
    /// transcript stays byte-identical to the synchronous engine while
    /// [`RunReport::sched`] records the synchronizer's overhead, and a
    /// wedged schedule fails loud with
    /// [`SimError::ScheduleStalled`]. The default,
    /// [`SchedulePlan::none`], leaves every engine on its unmodified
    /// lock-step path — bit for bit.
    pub sched: SchedulePlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            bandwidth: Bandwidth::Track,
            max_rounds: 100_000,
            threads: 1,
            shards: 0,
            fault: FaultPlan::none(),
            sched: SchedulePlan::none(),
        }
    }
}

impl SimConfig {
    /// A config with the given seed and defaults otherwise.
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Default::default()
        }
    }

    /// The standard CONGEST cap for an `n`-node graph:
    /// `multiplier · ⌈log₂(n+1)⌉` bits per edge per round (at least
    /// `multiplier`, so the degenerate `n ∈ {0, 1}` graphs keep a channel).
    ///
    /// The id width is exactly [`bits_for_range`]`(n + 1)` — the bits
    /// needed for an integer in `[0, n]`.
    ///
    /// # Example
    ///
    /// ```
    /// use congest::SimConfig;
    /// use congest::message::bits_for_range;
    ///
    /// assert_eq!(SimConfig::congest_bits(1023, 1), 10);
    /// assert_eq!(SimConfig::congest_bits(1024, 2), 22);
    /// assert_eq!(SimConfig::congest_bits(0, 3), 3);
    /// assert_eq!(SimConfig::congest_bits(5000, 1), bits_for_range(5001));
    /// ```
    pub fn congest_bits(n: usize, multiplier: u64) -> u64 {
        multiplier * bits_for_range(n as u64 + 1).max(1)
    }
}

/// Run `programs` (one per node of `graph`) to completion on a one-shot
/// [`Session`].
///
/// Returns the final programs and the run report. Multi-pass drivers
/// should construct a [`Session`] directly and reuse it per pass — same
/// results, none of the per-pass plane/scratch/pool setup this wrapper
/// pays.
///
/// # Errors
///
/// The six errors of [`Session::run`], in its precedence and independent
/// of the thread and shard count: [`SimError::FaultInjected`],
/// [`SimError::NotANeighbor`] and [`SimError::BandwidthExceeded`] from
/// the round loop (earliest round first, then the first offender in
/// node-id order: senders for `NotANeighbor`, receivers for
/// `BandwidthExceeded`); [`SimError::ScheduleStalled`] from the
/// α-synchronizer's replay, which replaces a loop error only from an
/// earlier round; then [`SimError::NodeCrashed`] and
/// [`SimError::QuorumLost`]. The programs are dropped with the error;
/// run a [`Session`] to keep their partial state.
///
/// # Panics
///
/// Panics if `programs.len() != graph.n()`.
pub fn run<P: Program>(
    graph: &Graph,
    mut programs: Vec<P>,
    config: SimConfig,
) -> Result<(Vec<P>, RunReport), SimError> {
    assert_eq!(
        programs.len(),
        graph.n(),
        "need exactly one program per node"
    );
    let mut session: Session<'_, P::Msg> = Session::new(graph, config);
    let report = session.run(&mut programs, config.seed)?;
    Ok((programs, report))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::message::{bits_for_range, Message};
    use crate::program::Ctx;
    use crate::reference::run_reference;
    use graphs::{gen, NodeId};

    /// Flood the minimum id seen so far; finishes when stable for 2 rounds.
    #[derive(Clone)]
    pub(crate) struct MinFlood {
        pub(crate) min: NodeId,
        stable: u32,
        done: bool,
    }

    #[derive(Clone)]
    pub(crate) struct IdMsg(pub(crate) NodeId);

    impl Message for IdMsg {
        fn bit_cost(&self) -> u64 {
            bits_for_range(1 << 20)
        }
    }

    impl Program for MinFlood {
        type Msg = IdMsg;
        fn on_round(&mut self, ctx: &mut Ctx<'_, IdMsg>) {
            if self.done {
                return;
            }
            let before = self.min;
            if ctx.round() == 0 {
                self.min = ctx.id();
            }
            for (_, &IdMsg(m)) in ctx.inbox() {
                self.min = self.min.min(m);
            }
            if ctx.round() > 0 && self.min == before {
                self.stable += 1;
            } else {
                self.stable = 0;
            }
            // Diameter-bounded stability implies convergence on a path.
            if self.stable >= 64 {
                self.done = true;
            } else {
                ctx.broadcast(IdMsg(self.min));
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    pub(crate) fn min_flood_programs(n: usize) -> Vec<MinFlood> {
        (0..n)
            .map(|_| MinFlood {
                min: NodeId::MAX,
                stable: 0,
                done: false,
            })
            .collect()
    }

    #[test]
    fn min_flood_converges_on_cycle() {
        let g = gen::cycle(32);
        let (progs, report) =
            run(&g, min_flood_programs(32), SimConfig::seeded(1)).expect("run failed");
        assert!(report.completed);
        assert!(progs.iter().all(|p| p.min == 0));
        assert!(report.messages > 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::gnp(400, 0.02, 9);
        let (ps, rs) = run(
            &g,
            min_flood_programs(400),
            SimConfig {
                threads: 1,
                ..SimConfig::seeded(5)
            },
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::seeded(5)
            };
            let (pp, rp) = run(&g, min_flood_programs(400), cfg).unwrap();
            assert_eq!(rs, rp, "report diverged at threads={threads}");
            assert!(ps.iter().zip(&pp).all(|(a, b)| a.min == b.min));
        }
    }

    #[test]
    fn mailbox_plane_matches_reference_engine() {
        let g = gen::gnp(400, 0.02, 13);
        let mut pr = min_flood_programs(400);
        let rr = run_reference(&g, &mut pr, SimConfig::seeded(6)).unwrap();
        for threads in [1, 8] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::seeded(6)
            };
            let (pn, rn) = run(&g, min_flood_programs(400), cfg).unwrap();
            assert_eq!(
                rr, rn,
                "reports diverged from reference at threads={threads}"
            );
            assert!(pr.iter().zip(&pn).all(|(a, b)| a.min == b.min));
        }
    }

    #[test]
    fn strict_bandwidth_catches_overflow() {
        let g = gen::path(2);
        let cfg = SimConfig {
            bandwidth: Bandwidth::Strict(10),
            ..SimConfig::seeded(0)
        };
        let err = match run(&g, min_flood_programs(2), cfg) {
            Err(e) => e,
            Ok(_) => panic!("expected bandwidth error"),
        };
        assert!(matches!(err, SimError::BandwidthExceeded { limit: 10, .. }));
    }

    /// Sends `count` 4-bit messages to its sole neighbor each round —
    /// individually legal, cumulatively over a 10-bit strict cap.
    #[derive(Clone)]
    struct Dripper {
        count: usize,
        done: bool,
    }

    #[derive(Clone)]
    struct Drip;
    impl Message for Drip {
        fn bit_cost(&self) -> u64 {
            4
        }
    }

    impl Program for Dripper {
        type Msg = Drip;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Drip>) {
            if ctx.id() == 0 {
                for _ in 0..self.count {
                    ctx.send(1, Drip);
                }
            }
            self.done = true;
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn strict_bandwidth_accumulates_across_slot_writes() {
        let g = gen::path(2);
        let programs = vec![
            Dripper {
                count: 3,
                done: false
            };
            2
        ];
        let cfg = SimConfig {
            bandwidth: Bandwidth::Strict(10),
            ..SimConfig::seeded(0)
        };
        // Each Drip is 4 bits ≤ 10, but the slot counter reaches 12.
        let err = match run(&g, programs, cfg) {
            Err(e) => e,
            Ok(_) => panic!("expected cumulative bandwidth error"),
        };
        assert_eq!(
            err,
            SimError::BandwidthExceeded {
                from: 0,
                to: 1,
                bits: 12,
                limit: 10,
                round: 0
            }
        );
        // Two messages (8 bits) fit.
        let programs = vec![
            Dripper {
                count: 2,
                done: false
            };
            2
        ];
        let cfg = SimConfig {
            bandwidth: Bandwidth::Strict(10),
            ..SimConfig::seeded(0)
        };
        let (_, report) = run(&g, programs, cfg).unwrap();
        assert_eq!(report.max_edge_bits(), 8);
        assert_eq!(report.messages, 2);
    }

    /// Broadcast + targeted in one round must also sum per edge.
    #[derive(Clone)]
    struct MixedDripper {
        done: bool,
    }

    impl Program for MixedDripper {
        type Msg = Drip;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Drip>) {
            if ctx.id() == 0 {
                ctx.broadcast(Drip); // 4 bits on every out-edge
                ctx.send(1, Drip); // +4 targeted on (0,1)
            }
            self.done = true;
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn strict_bandwidth_sums_broadcast_and_targeted_lanes() {
        let g = gen::path(2);
        let cfg = SimConfig {
            bandwidth: Bandwidth::Strict(7),
            ..SimConfig::seeded(0)
        };
        let err = match run(&g, vec![MixedDripper { done: false }; 2], cfg) {
            Err(e) => e,
            Ok(_) => panic!("expected bandwidth error"),
        };
        assert_eq!(
            err,
            SimError::BandwidthExceeded {
                from: 0,
                to: 1,
                bits: 8,
                limit: 7,
                round: 0
            }
        );
    }

    #[test]
    fn round_cap_reports_incomplete() {
        let g = gen::cycle(8);
        let cfg = SimConfig {
            max_rounds: 3,
            ..SimConfig::seeded(0)
        };
        let (_, report) = run(&g, min_flood_programs(8), cfg).unwrap();
        assert!(!report.completed);
        assert_eq!(report.rounds, 3);
    }

    /// A program that illegally messages a fixed target from node 3.
    #[derive(Clone)]
    struct BadSender {
        to: NodeId,
        done: bool,
    }
    impl Program for BadSender {
        type Msg = IdMsg;
        fn on_round(&mut self, ctx: &mut Ctx<'_, IdMsg>) {
            if ctx.id() == 3 {
                ctx.send(self.to, IdMsg(0));
            }
            self.done = true;
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn non_neighbor_send_is_rejected() {
        // 3 is not adjacent to 0 on a path.
        let g = gen::path(4);
        let programs = (0..4).map(|_| BadSender { to: 0, done: false }).collect();
        let err = match run(&g, programs, SimConfig::seeded(0)) {
            Err(e) => e,
            Ok(_) => panic!("expected neighbor error"),
        };
        assert_eq!(
            err,
            SimError::NotANeighbor {
                from: 3,
                to: 0,
                round: 0
            }
        );
    }

    #[test]
    fn out_of_range_send_is_rejected() {
        let g = gen::path(4);
        let programs = (0..4)
            .map(|_| BadSender {
                to: 999,
                done: false,
            })
            .collect();
        let err = match run(&g, programs, SimConfig::seeded(0)) {
            Err(e) => e,
            Ok(_) => panic!("expected neighbor error"),
        };
        assert_eq!(
            err,
            SimError::NotANeighbor {
                from: 3,
                to: 999,
                round: 0
            }
        );
    }

    #[test]
    fn errors_are_deterministic_across_thread_counts() {
        // Big enough to shard; every node ≥ 300 misbehaves, and the
        // engine must still report the smallest offender.
        #[derive(Clone)]
        struct ManyBad {
            done: bool,
        }
        impl Program for ManyBad {
            type Msg = IdMsg;
            fn on_round(&mut self, ctx: &mut Ctx<'_, IdMsg>) {
                let me = ctx.id();
                if me >= 300 {
                    ctx.send(me, IdMsg(0)); // self-send: never a neighbor
                }
                self.done = true;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let g = gen::cycle(500);
        for threads in [1, 2, 8] {
            let programs = (0..500).map(|_| ManyBad { done: false }).collect();
            let cfg = SimConfig {
                threads,
                ..SimConfig::seeded(0)
            };
            let err = match run(&g, programs, cfg) {
                Err(e) => e,
                Ok(_) => panic!("expected neighbor error"),
            };
            assert_eq!(
                err,
                SimError::NotANeighbor {
                    from: 300,
                    to: 300,
                    round: 0
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn congest_bits_scales_with_log_n() {
        assert_eq!(SimConfig::congest_bits(1023, 1), 10);
        assert_eq!(SimConfig::congest_bits(1024, 2), 22);
        // Unified with message::bits_for_range (the id-width helper).
        for n in [0usize, 1, 2, 63, 64, 1 << 16] {
            assert_eq!(
                SimConfig::congest_bits(n, 1),
                bits_for_range(n as u64 + 1).max(1)
            );
        }
    }

    #[test]
    fn empty_graph_trivially_completes() {
        let g = gen::path(0);
        let (_, report) = run::<MinFlood>(&g, Vec::new(), SimConfig::seeded(0)).unwrap();
        assert!(report.completed);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn same_seed_same_transcript() {
        let g = gen::gnp(100, 0.05, 4);
        let (_, r1) = run(&g, min_flood_programs(100), SimConfig::seeded(11)).unwrap();
        let (_, r2) = run(&g, min_flood_programs(100), SimConfig::seeded(11)).unwrap();
        assert_eq!(r1, r2);
    }

    /// Round 0: interleaves both lanes — targeted, broadcast, targeted —
    /// with sequence-revealing payloads. Round 1: records the inbox.
    #[derive(Clone)]
    struct LaneMixer {
        seen: Vec<(NodeId, u64)>,
        done: bool,
    }

    #[derive(Clone)]
    struct Tagged(u64);
    impl Message for Tagged {
        fn bit_cost(&self) -> u64 {
            20
        }
    }

    impl Program for LaneMixer {
        type Msg = Tagged;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Tagged>) {
            if ctx.round() == 0 {
                let me = u64::from(ctx.id());
                let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
                if let Some(&w) = neighbors.first() {
                    ctx.send(w, Tagged(me * 1000));
                }
                ctx.broadcast(Tagged(me * 1000 + 1));
                if let Some(&w) = neighbors.first() {
                    ctx.send(w, Tagged(me * 1000 + 2));
                }
            } else {
                self.seen = ctx.inbox().iter().map(|(u, &Tagged(t))| (u, t)).collect();
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// The two lanes merge back into exact send order, matching the
    /// reference oracle across thread counts.
    #[test]
    fn mixed_lane_sends_interleave_in_send_order() {
        let n = 300usize;
        let g = gen::gnp(n, 0.03, 31);
        let mk = || {
            (0..n)
                .map(|_| LaneMixer {
                    seen: Vec::new(),
                    done: false,
                })
                .collect::<Vec<_>>()
        };
        let mut base = mk();
        let rb = run_reference(&g, &mut base, SimConfig::seeded(2)).unwrap();
        for threads in [1, 2, 8] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::seeded(2)
            };
            let (progs, rn) = run(&g, mk(), cfg).unwrap();
            assert_eq!(rb, rn, "threads={threads}");
            for (v, p) in progs.iter().enumerate() {
                assert_eq!(p.seen, base[v].seen, "threads={threads}, node {v}");
            }
        }
    }

    /// Round 0: sends a sequence-numbered message to every neighbor in
    /// **descending** id order, plus a second message to the smallest
    /// neighbor. Round 1: records the inbox verbatim.
    #[derive(Clone)]
    struct ShuffledSender {
        seen: Vec<(NodeId, u64)>,
        done: bool,
    }

    impl Program for ShuffledSender {
        type Msg = Tagged;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Tagged>) {
            if ctx.round() == 0 {
                let me = u64::from(ctx.id());
                let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
                for (seq, &w) in neighbors.iter().rev().enumerate() {
                    ctx.send(w, Tagged(me * 1000 + seq as u64));
                }
                if let Some(&w) = neighbors.first() {
                    ctx.send(w, Tagged(me * 1000 + 999));
                }
            } else {
                self.seen = ctx.inbox().iter().map(|(u, &Tagged(t))| (u, t)).collect();
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// Satellite regression: inbox arrival order is CSR order (sorted by
    /// sender; per sender, send-call order) no matter how sends were
    /// shuffled, and identical across thread counts and to the reference
    /// oracle.
    #[test]
    fn shuffled_sends_arrive_in_deterministic_csr_order() {
        let n = 300usize; // above PAR_MIN_NODES so threads>1 really shard
        let g = gen::gnp(n, 0.03, 21);
        let mk = || {
            (0..n)
                .map(|_| ShuffledSender {
                    seen: Vec::new(),
                    done: false,
                })
                .collect::<Vec<_>>()
        };
        let mut base = mk();
        run_reference(&g, &mut base, SimConfig::seeded(2)).unwrap();
        for threads in [1, 2, 8] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::seeded(2)
            };
            let (progs, _) = run(&g, mk(), cfg).unwrap();
            for (v, p) in progs.iter().enumerate() {
                // Sorted by sender id.
                assert!(
                    p.seen.windows(2).all(|w| w[0].0 <= w[1].0),
                    "node {v} inbox not sorted by sender at threads={threads}"
                );
                // Per sender, send order: the descending-order sends'
                // tag comes before the duplicate 999-tagged message.
                for w in p.seen.windows(2) {
                    if w[0].0 == w[1].0 {
                        assert!(w[0].1 % 1000 != 999, "999 tag must arrive last");
                    }
                }
                // Byte-identical to the reference oracle.
                assert_eq!(p.seen, base[v].seen, "threads={threads}, node {v}");
            }
        }
    }
}
