//! Property-based invariants across the whole stack.

mod common;
use common::proptest_cases;

use congest_coloring::d1lc::{greedy_oracle, solve, SolveOptions};
use congest_coloring::graphs::palette::{check_coloring, random_lists, ListAssignment};
use congest_coloring::graphs::{gen, GraphBuilder};
use congest_coloring::prand::{IdCode, PairwiseFamily, ReedSolomon, RepHashFamily, RepParams};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any random graph + random (deg+1)-lists + any seed yields a proper
    /// coloring — the repo's master invariant.
    #[test]
    fn solve_is_always_proper(
        n in 2usize..60,
        p in 0.0f64..0.6,
        gseed in 0u64..1000,
        lseed in 0u64..1000,
        seed in 0u64..1000,
    ) {
        let g = gen::gnp(n, p, gseed);
        let lists = random_lists(&g, 32, 0, lseed);
        let result = solve(&g, &lists, SolveOptions::seeded(seed)).expect("solve");
        prop_assert_eq!(check_coloring(&g, &lists, &result.coloring), Ok(()));
    }

    /// The greedy oracle is proper on arbitrary edge sets.
    #[test]
    fn greedy_oracle_is_proper(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120)) {
        let mut b = GraphBuilder::new(40);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let lists = congest_coloring::graphs::palette::degree_plus_one_lists(&g);
        let coloring = greedy_oracle(&g, &lists);
        prop_assert_eq!(check_coloring(&g, &lists, &coloring), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Proposition 1 on random sets: the window partitions into colliding
    /// and isolated parts; the collision image is at most half its
    /// preimage; isolated images are injective when A ⊆ B.
    #[test]
    fn proposition_1_laws(
        raw in proptest::collection::hash_set(0u64..100_000, 1..200),
        member in 0u64..1024,
        extra in proptest::collection::hash_set(0u64..100_000, 0..100),
    ) {
        let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 900, 128, 10);
        let h = RepHashFamily::new(0xabcd, params).member(member);
        let mut a: Vec<u64> = raw.iter().copied().collect();
        a.sort_unstable();
        let mut b: Vec<u64> = raw.union(&extra).copied().collect();
        b.sort_unstable();

        // Partition law.
        let low: HashSet<u64> = h.low(&a).into_iter().collect();
        let coll: HashSet<u64> = h.colliding(&a, &a).into_iter().collect();
        let iso: HashSet<u64> = h.isolated(&a, &a).into_iter().collect();
        prop_assert!(coll.is_disjoint(&iso));
        let union: HashSet<u64> = coll.union(&iso).copied().collect();
        prop_assert_eq!(&union, &low);

        // Eq. (1): |h(A ∧ A)| ≤ |A ∧ A| / 2.
        let img: HashSet<u64> = coll.iter().map(|&x| h.hash(x)).collect();
        prop_assert!(2 * img.len() <= coll.len());

        // Eq. (2): A ⊆ B ⇒ |h(A ¬ B)| = |A ¬ B|.
        let iso_b = h.isolated(&a, &b);
        let img_b: HashSet<u64> = iso_b.iter().map(|&x| h.hash(x)).collect();
        prop_assert_eq!(img_b.len(), iso_b.len());

        // Eq. (3): monotonicity — A ∧ A ⊆ A ∧ B, A ¬ B ⊆ A ¬ A.
        let coll_b: HashSet<u64> = h.colliding(&a, &b).into_iter().collect();
        prop_assert!(coll.is_subset(&coll_b));
        let iso_b_set: HashSet<u64> = iso_b.into_iter().collect();
        prop_assert!(iso_b_set.is_subset(&iso));
    }

    /// Reed–Solomon distance on random message pairs.
    #[test]
    fn rs_distance_always_holds(m1 in any::<u64>(), m2 in any::<u64>()) {
        prop_assume!(m1 != m2);
        let rs = ReedSolomon::new(24, 8);
        let (a, b) = (rs.encode(&m1.to_le_bytes()), rs.encode(&m2.to_le_bytes()));
        let d = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        prop_assert!(d >= rs.distance());
    }

    /// Concatenated identifier code distance on random id pairs.
    #[test]
    fn id_code_distance_always_holds(id1 in any::<u64>(), id2 in any::<u64>()) {
        prop_assume!(id1 != id2);
        let code = IdCode::new();
        let d = IdCode::hamming(&code.encode(id1), &code.encode(id2));
        prop_assert!(d >= code.min_distance_bits());
    }

    /// Pairwise hashes stay in range and members are deterministic.
    #[test]
    fn pairwise_hash_in_range(
        lambda in 1u64..1_000_000,
        index_bits in 1u32..16,
        x in any::<u64>(),
    ) {
        let f = PairwiseFamily::new(99, lambda, index_bits);
        let h = f.member(f.family_size() - 1);
        prop_assert!(h.hash(x) < lambda);
        prop_assert_eq!(h.hash(x), f.member(f.family_size() - 1).hash(x));
    }

    /// List assignments survive roundtrips and validity checks reject
    /// corrupted colorings.
    #[test]
    fn corrupted_colorings_are_rejected(
        n in 2usize..40,
        p in 0.1f64..0.6,
        seed in 0u64..500,
        victim in 0usize..40,
    ) {
        let g = gen::gnp(n, p, seed);
        prop_assume!(g.m() > 0);
        let lists: ListAssignment =
            congest_coloring::graphs::palette::degree_plus_one_lists(&g);
        let mut coloring = greedy_oracle(&g, &lists);
        // Corrupt one endpoint of some edge to its neighbor's color.
        let (u, v) = g.edges().next().expect("m > 0");
        let victim = if victim % 2 == 0 { u } else { v };
        let other = if victim == u { v } else { u };
        coloring[victim as usize] = coloring[other as usize];
        prop_assert!(check_coloring(&g, &lists, &coloring).is_err());
    }
}

/// Differential harness for the engine: a chatty protocol that uses both
/// send lanes, per-node randomness, and uneven termination, run on the
/// session engine at several geometries and on the naive reference
/// oracle. Everything observable must agree.
mod plane_vs_reference {
    use congest_coloring::congest::reference::run_reference;
    use congest_coloring::congest::{self, Ctx, Message, Program, Session, SimConfig};
    use congest_coloring::graphs::{gen, Graph, NodeId};
    use rand::Rng;

    #[derive(Clone, PartialEq, Debug)]
    pub struct Note(pub u64);

    impl Message for Note {
        fn bit_cost(&self) -> u64 {
            24
        }
    }

    /// Each round: record the full inbox into a running transcript hash,
    /// then (pseudo-randomly, per-node) broadcast, send to a random
    /// subset of neighbors in a rotated order, or both interleaved.
    /// Nodes finish after `id % 7 + 3` active rounds, so done/undone
    /// nodes coexist.
    ///
    /// Each node also naps through the rounds `nap`, a pseudo-random
    /// per-node range (empty for some nodes, from round 0 for others): a
    /// nap round with mail only records it, and one without mail does
    /// nothing at all, so the nap is an honest [`Program::wake_round`]
    /// hint. The session parks a napping node until the nap ends or mail
    /// wakes it, while the oracle steps it every round, so every battery
    /// below compares parked stepping with stepping every round.
    #[derive(Clone)]
    pub struct Chatter {
        pub transcript: u64,
        pub left: u32,
        pub done: bool,
        pub nap: std::ops::Range<u64>,
        /// The round after the last round in which this node did
        /// anything (0 before its first step).
        pub next: u64,
    }

    impl Program for Chatter {
        type Msg = Note;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Note>) {
            if self.done {
                return;
            }
            let napping = self.nap.contains(&ctx.round());
            if napping && ctx.inbox().is_empty() {
                return;
            }
            self.next = ctx.round() + 1;
            for (u, &Note(x)) in ctx.inbox() {
                self.transcript = self
                    .transcript
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(x ^ (u64::from(u) << 32));
            }
            if napping {
                return;
            }
            if self.left == 0 {
                self.done = true;
                return;
            }
            self.left -= 1;
            let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
            let style = ctx.rng().gen_range(0u32..4);
            let payload = Note(self.transcript ^ u64::from(ctx.id()));
            match style {
                0 => ctx.broadcast(payload),
                1 => {
                    // Rotated targeted sends (shuffled destination order).
                    let rot = ctx.rng().gen_range(0..neighbors.len().max(1));
                    for i in 0..neighbors.len() {
                        let w = neighbors[(i + rot) % neighbors.len()];
                        ctx.send(w, Note(payload.0.wrapping_add(i as u64)));
                    }
                }
                2 => {
                    // Both lanes interleaved, duplicates included.
                    if let Some(&w) = neighbors.first() {
                        ctx.send(w, Note(payload.0 ^ 1));
                    }
                    ctx.broadcast(payload.clone());
                    if let Some(&w) = neighbors.last() {
                        ctx.send(w, Note(payload.0 ^ 2));
                        ctx.send(w, Note(payload.0 ^ 3));
                    }
                }
                _ => {} // silent round
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn wake_round(&self) -> u64 {
            if self.nap.contains(&self.next) {
                self.nap.end
            } else {
                0
            }
        }
    }

    pub fn chatter_programs(n: usize) -> Vec<Chatter> {
        (0..n)
            .map(|v| {
                let h = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48;
                let start = h % 5;
                Chatter {
                    transcript: 0,
                    left: (v % 7 + 3) as u32,
                    done: false,
                    nap: start..start + (h >> 3) % 4,
                    next: 0,
                }
            })
            .collect()
    }

    pub fn graph_for(kind: usize, n: usize, p: f64, seed: u64) -> Graph {
        match kind % 5 {
            0 => gen::gnp(n, p, seed),
            1 => gen::cycle(n),
            2 => gen::complete(n.min(60)),
            3 => gen::grid(n / 8 + 1, 8),
            4 => gen::chung_lu(n, 2.5, 8.0, seed),
            _ => unreachable!(),
        }
    }

    /// Engine geometries as `(threads, shards)`: the thread axis alone
    /// (shards derived from the thread count)…
    pub const THREADS: [(usize, usize); 3] = [(1, 0), (2, 0), (8, 0)];

    /// …and the full shards {1, 2, 4, 8} × threads {1, 2, 8} grid.
    pub const SHARD_GRID: [(usize, usize); 12] = [
        (1, 1),
        (2, 1),
        (8, 1),
        (1, 2),
        (2, 2),
        (8, 2),
        (1, 4),
        (2, 4),
        (8, 4),
        (1, 8),
        (2, 8),
        (8, 8),
    ];

    /// The engine differential: the naive oracle and the session engine
    /// at every `(threads, shards)` geometry must return the same
    /// `Result` — the same `RunReport` (fault counters, starved and
    /// crashed lists included) or the same error — and leave every node
    /// with the same transcript, on error too.
    pub fn assert_session_matches_oracle(
        graph: &Graph,
        cfg: SimConfig,
        geometries: &[(usize, usize)],
    ) -> Result<(), String> {
        let n = graph.n();
        let mut oracle = chatter_programs(n);
        let expected = run_reference(graph, &mut oracle, cfg);
        for &(threads, shards) in geometries {
            let mut progs = chatter_programs(n);
            let mut session = Session::new(
                graph,
                SimConfig {
                    threads,
                    shards,
                    ..cfg
                },
            );
            let got = session.run(&mut progs, cfg.seed);
            if got != expected {
                return Err(format!(
                    "result diverged at threads={threads} shards={shards}: \
                     session {got:?}, oracle {expected:?}"
                ));
            }
            for (v, (a, b)) in progs.iter().zip(&oracle).enumerate() {
                if a.transcript != b.transcript {
                    return Err(format!(
                        "transcript diverged at node {v}, threads={threads} shards={shards}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// PR-10 tentpole contract, engine level: the α-synchronizer is
    /// correctness-preserving. Under any [`congest::SchedulePlan`] the
    /// session engine's transcripts and `RunReport` (minus the
    /// synchronizer's own overhead counters) are byte-identical to the
    /// schedule-free synchronous run, for every shard count in
    /// {1, 2, 4, 8} × thread count {1, 2, 8}, composed with an
    /// arbitrary fault plan. The overhead counters themselves must be
    /// geometry-invariant, and an inactive plan must record none.
    pub fn assert_async_schedules_agree(
        graph: &Graph,
        seed: u64,
        sched: congest::SchedulePlan,
        fault: congest::FaultPlan,
        max_rounds: u64,
    ) -> Result<(), String> {
        let n = graph.n();
        let sync_cfg = SimConfig {
            fault,
            max_rounds,
            ..SimConfig::seeded(seed)
        };
        let (sync_progs, sync_report) =
            congest::run(graph, chatter_programs(n), sync_cfg).map_err(|e| format!("{e:?}"))?;
        if sync_report.sched.any() {
            return Err("synchronous anchor recorded synchronizer overhead".into());
        }
        let mut overhead = None;
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 2, 8] {
                let cfg = SimConfig {
                    threads,
                    shards,
                    sched,
                    ..sync_cfg
                };
                let (progs, mut report) =
                    congest::run(graph, chatter_programs(n), cfg).map_err(|e| format!("{e:?}"))?;
                match overhead {
                    None => overhead = Some(report.sched),
                    Some(c) if c != report.sched => {
                        return Err(format!(
                            "sched counters diverged at shards={shards} threads={threads}"
                        ));
                    }
                    Some(_) => {}
                }
                if !sched.is_active() && report.sched.any() {
                    return Err("inactive SchedulePlan recorded synchronizer overhead".into());
                }
                report.sched = congest::ScheduleCounters::default();
                if report != sync_report {
                    return Err(format!(
                        "RunReport diverged at shards={shards} threads={threads}"
                    ));
                }
                for (v, (a, b)) in progs.iter().zip(&sync_progs).enumerate() {
                    if a.transcript != b.transcript {
                        return Err(format!(
                            "transcript diverged at node {v}, shards={shards} threads={threads}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(12), ..ProptestConfig::default() })]

    /// The session's mailbox plane is observably identical to the naive
    /// oracle — same `RunReport`, same final program states — for every
    /// generator family, seed, and `threads ∈ {1, 2, 8}` (node counts
    /// straddle the engine's parallel threshold).
    #[test]
    fn mailbox_plane_matches_reference_semantics(
        kind in 0usize..5,
        n in 2usize..400,
        p in 0.0f64..0.15,
        gseed in 0u64..1000,
        seed in 0u64..1000,
    ) {
        use congest_coloring::congest::SimConfig;
        let graph = plane_vs_reference::graph_for(kind, n, p, gseed);
        let cfg = SimConfig::seeded(seed);
        if let Err(msg) = plane_vs_reference::assert_session_matches_oracle(
            &graph,
            cfg,
            &plane_vs_reference::THREADS,
        ) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// Engine level: a faulty run is a pure function of
    /// `(seed, FaultPlan)` — the naive oracle and the session engine at
    /// threads {1, 2, 8} draw the same drop/delay/dup fates bundle for
    /// bundle, so transcripts, fault counters, and starved lists agree
    /// byte for byte.
    #[test]
    fn faulty_planes_agree_byte_for_byte(
        kind in 0usize..5,
        n in 2usize..250,
        p in 0.0f64..0.15,
        gseed in 0u64..1000,
        seed in 0u64..1000,
        drop_pm in 0u32..800,
        delay_pm in 0u32..500,
        max_delay in 1u32..4,
        dup_pm in 0u32..500,
    ) {
        use congest_coloring::congest::{FaultPlan, SimConfig};
        let graph = plane_vs_reference::graph_for(kind, n, p, gseed);
        let plan = FaultPlan::lossy(f64::from(drop_pm) / 1000.0)
            .with_delay(f64::from(delay_pm) / 1000.0, max_delay)
            .with_dup(f64::from(dup_pm) / 1000.0);
        let cfg = SimConfig {
            fault: plan,
            ..SimConfig::seeded(seed)
        };
        if let Err(msg) = plane_vs_reference::assert_session_matches_oracle(
            &graph,
            cfg,
            &plane_vs_reference::THREADS,
        ) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// The fail-loud plans against the oracle: a strict cap with
    /// truncation, per-round aborts, fatal crashes and a quorum floor,
    /// composed with drop/delay/dup, over the full shard × thread grid.
    /// Both engines must agree on the `Result` — the same report, or
    /// the same `FaultInjected`, `NodeCrashed` or `QuorumLost` — and on
    /// every transcript.
    #[test]
    fn faulty_strict_and_fatal_plans_match_the_oracle(
        kind in 0usize..5,
        n in 2usize..200,
        p in 0.0f64..0.15,
        gseed in 0u64..1000,
        seed in 0u64..1000,
        notes_per_edge in 1u64..4,
        drop_pm in 0u32..300,
        delay_pm in 0u32..300,
        dup_pm in 0u32..300,
        abort_pm in 0u32..20,
        crash_pm in 0u32..40,
        recovery in 0u32..4,
        fatal in 0usize..2,
        quorum_pct in 0usize..100,
    ) {
        use congest_coloring::congest::{Bandwidth, FaultPlan, SimConfig};
        let graph = plane_vs_reference::graph_for(kind, n, p, gseed);
        let mut plan = FaultPlan::lossy(f64::from(drop_pm) / 1000.0)
            .with_delay(f64::from(delay_pm) / 1000.0, 3)
            .with_dup(f64::from(dup_pm) / 1000.0)
            .with_truncate()
            .with_abort(f64::from(abort_pm) / 1000.0)
            .with_crashes(f64::from(crash_pm) / 1000.0, recovery)
            .with_quorum((graph.n() * quorum_pct / 100) as u32);
        if fatal == 1 {
            plan = plan.with_fatal_crashes();
        }
        // A chatter bundle holds up to four 24-bit notes, so each of
        // these caps truncates the larger bundles.
        let cfg = SimConfig {
            bandwidth: Bandwidth::Strict(24 * notes_per_edge),
            fault: plan,
            max_rounds: 64,
            ..SimConfig::seeded(seed)
        };
        if let Err(msg) = plane_vs_reference::assert_session_matches_oracle(
            &graph,
            cfg,
            &plane_vs_reference::SHARD_GRID,
        ) {
            prop_assert!(false, "{}", msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(6), ..ProptestConfig::default() })]

    /// The shard-differential battery. Every shard count {1, 2, 4, 8} ×
    /// thread count {1, 2, 8} × fault plan {none, drop/delay/dup} ×
    /// graph generator reproduces the naive oracle byte for byte
    /// (per-node transcripts and full `RunReport`s), and a full pipeline
    /// solve over the shard axis yields the identical proper coloring
    /// and pass log.
    #[test]
    fn sharded_engine_matches_all_generations(
        kind in 0usize..5,
        n in 2usize..200,
        p in 0.0f64..0.15,
        gseed in 0u64..1000,
        lseed in 0u64..500,
        seed in 0u64..1000,
        faulty in 0usize..2,
        drop_pm in 0u32..600,
        delay_pm in 0u32..400,
        max_delay in 1u32..4,
        dup_pm in 0u32..400,
    ) {
        use congest_coloring::congest::{FaultPlan, SimConfig};
        use congest_coloring::d1lc::EngineMode;

        let plan = if faulty == 1 {
            FaultPlan::lossy(f64::from(drop_pm) / 1000.0)
                .with_delay(f64::from(delay_pm) / 1000.0, max_delay)
                .with_dup(f64::from(dup_pm) / 1000.0)
        } else {
            FaultPlan::none()
        };
        let graph = plane_vs_reference::graph_for(kind, n, p, gseed);
        // Engine level: transcripts across the full shard × thread grid.
        let cfg = SimConfig {
            fault: plan,
            ..SimConfig::seeded(seed)
        };
        if let Err(msg) = plane_vs_reference::assert_session_matches_oracle(
            &graph,
            cfg,
            &plane_vs_reference::SHARD_GRID,
        ) {
            prop_assert!(false, "{}", msg);
        }
        // Pipeline level: the solve stays proper and byte-identical to
        // the unsharded anchor for every shard count.
        let lists = random_lists(&graph, 32, 0, lseed);
        let run = |shards: usize, threads: usize| {
            let opts = SolveOptions {
                engine: EngineMode::Session,
                sim: SimConfig {
                    threads,
                    shards,
                    fault: plan,
                    max_rounds: 200,
                    ..SimConfig::default()
                },
                ..SolveOptions::seeded(seed)
            };
            solve(&graph, &lists, opts).expect("sharded solve completes")
        };
        let base = run(0, 1);
        prop_assert_eq!(check_coloring(&graph, &lists, &base.coloring), Ok(()));
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 8] {
                let other = run(shards, threads);
                prop_assert!(
                    base.coloring == other.coloring,
                    "coloring diverged: shards={} t={}",
                    shards,
                    threads
                );
                prop_assert!(
                    base.log.passes() == other.log.passes(),
                    "pass log diverged: shards={} t={}",
                    shards,
                    threads
                );
                prop_assert!(
                    base.stats == other.stats,
                    "stats diverged: shards={} t={}",
                    shards,
                    threads
                );
            }
        }
    }

    /// PR-6 tentpole contract: every completed `SolveServer` response is
    /// byte-identical — same coloring, same per-pass log — to a
    /// sequential one-shot `Driver` solve of the same request, across
    /// worker counts {1, 2, 8}, queue depths {1, 2, 8, 64}, engine thread
    /// counts {1, 2, 8}, and submission orders (the stream mixes two
    /// graphs, so the workers' warm cores rebind across topologies
    /// mid-stream, and contains a duplicate request that exercises the
    /// memo / single-flight paths).
    #[test]
    fn solve_server_matches_one_shot_driver(
        n in 8usize..300,
        p in 0.01f64..0.15,
        gseed in 0u64..500,
        lseed in 0u64..500,
        workers_idx in 0usize..3,
        queue_idx in 0usize..4,
        threads_idx in 0usize..3,
        rotation in 0usize..6,
    ) {
        use congest_coloring::congest::SimConfig;
        use congest_coloring::d1lc::server::SolveServer;
        use congest_coloring::d1lc::service::{ServiceConfig, SolveRequest};
        use congest_coloring::d1lc::SolveOptions;
        use std::sync::Arc;

        let workers = [1usize, 2, 8][workers_idx];
        let queue = [1usize, 2, 8, 64][queue_idx];
        let threads = [1usize, 2, 8][threads_idx];
        let opts = |seed: u64| SolveOptions {
            sim: SimConfig { threads, ..SimConfig::default() },
            ..SolveOptions::seeded(seed)
        };
        let g1 = Arc::new(gen::gnp(n, p, gseed));
        let l1 = Arc::new(random_lists(&g1, 32, 0, lseed));
        let g2 = Arc::new(gen::gnp(n / 2 + 8, p, gseed ^ 0x9e37));
        let l2 = Arc::new(random_lists(&g2, 32, 0, lseed ^ 0x79b9));
        let mut requests = [
            SolveRequest::shared(&g1, &l1, opts(1)),
            SolveRequest::shared(&g2, &l2, opts(1)),
            SolveRequest::shared(&g1, &l1, opts(2)),
            SolveRequest::shared(&g2, &l2, opts(2)),
            SolveRequest::shared(&g1, &l1, opts(1)), // duplicate: memo / dedup
            SolveRequest::shared(&g1, &l1, opts(3)),
        ];
        let shift = rotation % requests.len();
        requests.rotate_left(shift);
        let config = ServiceConfig::builder()
            .workers(workers)
            .queue(queue)
            .build()
            .expect("valid config");
        let server = SolveServer::start(config);
        let handle = server.handle();
        // Submit everything up front so completions race across workers;
        // default Block admission means shallow queues throttle, never
        // reject.
        let tickets: Vec<_> = requests.iter().map(|r| handle.submit(r.clone())).collect();
        for (req, ticket) in requests.iter().zip(&tickets) {
            let served = ticket.wait().expect("server response");
            let direct = solve(&req.graph, &req.lists, req.options).expect("one-shot");
            prop_assert_eq!(check_coloring(&req.graph, &req.lists, &served.coloring), Ok(()));
            prop_assert!(
                served.coloring == direct.coloring,
                "server coloring diverged (workers={}, queue={}, threads={})",
                workers,
                queue,
                threads
            );
            prop_assert!(
                served.log.passes() == direct.log.passes(),
                "server pass log diverged (workers={}, queue={}, threads={})",
                workers,
                queue,
                threads
            );
        }
    }

    /// Pipeline level: a faulty solve is exactly reproducible from
    /// `(seed, FaultPlan)` — identical coloring, pass log (fault counters
    /// and starved lists included), and stats across session thread
    /// counts {1, 2, 8} and the sequential oracle — and detect-and-repair
    /// keeps the coloring proper whatever the loss pattern.
    #[test]
    fn faulty_solve_is_deterministic(
        n in 8usize..160,
        p in 0.01f64..0.15,
        gseed in 0u64..500,
        lseed in 0u64..500,
        seed in 0u64..500,
        drop_pm in 0u32..900,
        delay_pm in 0u32..500,
        dup_pm in 0u32..500,
    ) {
        use congest_coloring::congest::{FaultPlan, SimConfig};
        use congest_coloring::d1lc::EngineMode;

        let g = gen::gnp(n, p, gseed);
        let lists = random_lists(&g, 32, 0, lseed);
        let plan = FaultPlan::lossy(f64::from(drop_pm) / 1000.0)
            .with_delay(f64::from(delay_pm) / 1000.0, 3)
            .with_dup(f64::from(dup_pm) / 1000.0);
        let run = |engine: EngineMode, threads: usize| {
            let opts = SolveOptions {
                engine,
                sim: SimConfig {
                    threads,
                    fault: plan,
                    max_rounds: 200,
                    ..SimConfig::default()
                },
                ..SolveOptions::seeded(seed)
            };
            solve(&g, &lists, opts).expect("faulty solve still completes")
        };
        let base = run(EngineMode::Session, 1);
        prop_assert_eq!(check_coloring(&g, &lists, &base.coloring), Ok(()));
        // The oracle ignores `threads`, so it runs once, at t = 1.
        for (engine, threads) in [
            (EngineMode::Session, 2usize),
            (EngineMode::Session, 8),
            (EngineMode::Reference, 1),
        ] {
            let other = run(engine, threads);
            prop_assert!(
                base.coloring == other.coloring,
                "faulty coloring diverged: {:?} t={}",
                engine,
                threads
            );
            prop_assert!(
                base.log.passes() == other.log.passes(),
                "faulty pass log diverged: {:?} t={}",
                engine,
                threads
            );
            prop_assert!(
                base.stats == other.stats,
                "faulty stats diverged: {:?} t={}",
                engine,
                threads
            );
        }
    }

    /// Crash fates are a pure function of
    /// `(pass seed, plan, node, round)`. Runs under crash-stop and
    /// crash-recovery plans (optionally composed with message loss)
    /// reproduce the naive oracle byte for byte — same
    /// per-node transcripts, same `RunReport` (crash counters and
    /// crashed lists included) — across shards {1, 2, 4, 8} × threads
    /// {1, 2, 8}, and a full pipeline solve over the shard axis yields
    /// the identical proper coloring via quarantine-and-recolor.
    #[test]
    fn crashed_runs_agree_byte_for_byte(
        kind in 0usize..5,
        n in 2usize..200,
        p in 0.0f64..0.15,
        gseed in 0u64..1000,
        lseed in 0u64..500,
        seed in 0u64..1000,
        crash_pm in 1u32..60,
        recovery in 0u32..5,
        drop_pm in 0u32..400,
    ) {
        use congest_coloring::congest::{FaultPlan, SimConfig};
        use congest_coloring::d1lc::EngineMode;

        let plan = FaultPlan::lossy(f64::from(drop_pm) / 1000.0)
            .with_crashes(f64::from(crash_pm) / 1000.0, recovery);
        let graph = plane_vs_reference::graph_for(kind, n, p, gseed);
        // Engine level: a crash-stopped node never finishes, so the run
        // is bounded by the cap, not by termination.
        let cfg = SimConfig {
            fault: plan,
            max_rounds: 64,
            ..SimConfig::seeded(seed)
        };
        if let Err(msg) = plane_vs_reference::assert_session_matches_oracle(
            &graph,
            cfg,
            &plane_vs_reference::SHARD_GRID,
        ) {
            prop_assert!(false, "{}", msg);
        }
        // Pipeline level: quarantine-and-recolor keeps the solve proper
        // and byte-identical to the unsharded anchor.
        let lists = random_lists(&graph, 32, 0, lseed);
        let run = |shards: usize, threads: usize| {
            let opts = SolveOptions {
                engine: EngineMode::Session,
                sim: SimConfig {
                    threads,
                    shards,
                    fault: plan,
                    max_rounds: 100,
                    ..SimConfig::default()
                },
                ..SolveOptions::seeded(seed)
            };
            solve(&graph, &lists, opts).expect("crashed solve completes")
        };
        let base = run(0, 1);
        prop_assert_eq!(check_coloring(&graph, &lists, &base.coloring), Ok(()));
        for shards in [1usize, 4, 8] {
            for threads in [1usize, 8] {
                let other = run(shards, threads);
                prop_assert!(
                    base.coloring == other.coloring,
                    "crashed coloring diverged: shards={} t={}",
                    shards,
                    threads
                );
                prop_assert!(
                    base.log.passes() == other.log.passes(),
                    "crashed pass log diverged: shards={} t={}",
                    shards,
                    threads
                );
                prop_assert!(
                    base.stats == other.stats,
                    "crashed stats diverged: shards={} t={}",
                    shards,
                    threads
                );
            }
        }
    }

    /// PR-10 tentpole contract: under any schedule adversary the
    /// α-synchronized transcript is byte-identical to the synchronous
    /// engine across schedule plans {none, jitter, straggler,
    /// anti-FIFO} × shards {1, 2, 4, 8} × threads {1, 2, 8} × fault
    /// plans {none, drop/delay}, and a full pipeline solve with the
    /// adversary in the loop yields the identical proper coloring,
    /// stats, and pass log (only the synchronizer's own overhead
    /// counters may differ from the synchronous anchor).
    #[test]
    fn async_schedules_agree_byte_for_byte(
        kind in 0usize..5,
        n in 2usize..200,
        p in 0.0f64..0.15,
        gseed in 0u64..1000,
        lseed in 0u64..500,
        seed in 0u64..1000,
        plan_kind in 0usize..4,
        rate_pm in 1u32..400,
        span in 1u32..5,
        faulty in 0usize..2,
        drop_pm in 0u32..300,
    ) {
        use congest_coloring::congest::{FaultPlan, ScheduleCounters, SchedulePlan, SimConfig};
        use congest_coloring::d1lc::{EngineMode, SolveResult};

        let rate = f64::from(rate_pm) / 1000.0;
        let sched = match plan_kind {
            0 => SchedulePlan::none(),
            1 => SchedulePlan::jittery(rate, span).with_start_spread(span),
            2 => SchedulePlan::none().with_stragglers(rate, span),
            _ => SchedulePlan::none().with_antififo(rate, span + 2),
        };
        let fault = if faulty == 1 {
            FaultPlan::lossy(f64::from(drop_pm) / 1000.0).with_delay(0.2, 3)
        } else {
            FaultPlan::none()
        };
        let graph = plane_vs_reference::graph_for(kind, n, p, gseed);
        // Engine level: the full schedule × shard × thread × fault grid
        // against the schedule-free synchronous anchor.
        if let Err(msg) =
            plane_vs_reference::assert_async_schedules_agree(&graph, seed, sched, fault, 64)
        {
            prop_assert!(false, "{}", msg);
        }
        // Pipeline level: the adversarial solve stays proper and
        // byte-identical to the synchronous unsharded anchor.
        let lists = random_lists(&graph, 32, 0, lseed);
        let run = |sched: SchedulePlan, shards: usize, threads: usize| {
            let opts = SolveOptions {
                engine: EngineMode::Session,
                sim: SimConfig {
                    threads,
                    shards,
                    fault,
                    sched,
                    max_rounds: 200,
                    ..SimConfig::default()
                },
                ..SolveOptions::seeded(seed)
            };
            solve(&graph, &lists, opts).expect("async solve completes")
        };
        let masked = |r: &SolveResult| {
            r.log
                .passes()
                .iter()
                .cloned()
                .map(|mut p| {
                    p.report.sched = ScheduleCounters::default();
                    p
                })
                .collect::<Vec<_>>()
        };
        let base = run(SchedulePlan::none(), 0, 1);
        prop_assert_eq!(check_coloring(&graph, &lists, &base.coloring), Ok(()));
        let base_log = masked(&base);
        for shards in [1usize, 4, 8] {
            for threads in [1usize, 8] {
                let other = run(sched, shards, threads);
                prop_assert!(
                    base.coloring == other.coloring,
                    "async coloring diverged: shards={} t={}",
                    shards,
                    threads
                );
                prop_assert!(
                    base_log == masked(&other),
                    "async pass log diverged: shards={} t={}",
                    shards,
                    threads
                );
                prop_assert!(
                    base.stats == other.stats,
                    "async stats diverged: shards={} t={}",
                    shards,
                    threads
                );
            }
        }
    }

    /// A full pipeline solve on one persistent engine session is
    /// byte-identical — same coloring, same per-pass `RunReport` log —
    /// across thread counts {1, 2, 8} and to the sequential oracle (node
    /// counts straddle the engine's parallel threshold, so the pooled
    /// session path is exercised too).
    #[test]
    fn session_solve_matches_legacy_engines(
        n in 8usize..320,
        p in 0.01f64..0.2,
        gseed in 0u64..500,
        lseed in 0u64..500,
        seed in 0u64..500,
    ) {
        use congest_coloring::congest::SimConfig;
        use congest_coloring::d1lc::EngineMode;

        let g = gen::gnp(n, p, gseed);
        let lists = random_lists(&g, 32, 0, lseed);
        let run = |engine: EngineMode, threads: usize| {
            let opts = SolveOptions {
                engine,
                sim: SimConfig { threads, ..SimConfig::default() },
                ..SolveOptions::seeded(seed)
            };
            solve(&g, &lists, opts).expect("solve")
        };
        let base = run(EngineMode::Session, 1);
        prop_assert_eq!(check_coloring(&g, &lists, &base.coloring), Ok(()));
        // The oracle ignores `threads`, so it runs once, at t = 1.
        for (engine, threads) in [
            (EngineMode::Session, 2usize),
            (EngineMode::Session, 8),
            (EngineMode::Reference, 1),
        ] {
            let other = run(engine, threads);
            prop_assert!(
                base.coloring == other.coloring,
                "coloring diverged: {:?} t={}",
                engine,
                threads
            );
            prop_assert!(
                base.log.passes() == other.log.passes(),
                "pass log diverged: {:?} t={}",
                engine,
                threads
            );
        }
    }
}
