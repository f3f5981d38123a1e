//! Failure injection and adversarial edge cases: degenerate graphs,
//! minimal lists, hostile list structure, bandwidth faults, lossy /
//! delayed / duplicated messaging under a [`FaultPlan`], and hostile
//! asynchronous schedules under a [`SchedulePlan`].

use congest_coloring::congest::{Bandwidth, FaultPlan, SchedulePlan, SimConfig, SimError};
use congest_coloring::d1lc::{solve, SolveOptions};
use congest_coloring::graphs::palette::{check_coloring, degree_plus_one_lists, ListAssignment};
use congest_coloring::graphs::{gen, Color, GraphBuilder};

#[test]
fn degenerate_graphs() {
    for g in [
        gen::path(0),                 // empty
        gen::path(1),                 // singleton
        gen::path(2),                 // one edge
        GraphBuilder::new(7).build(), // isolated nodes
    ] {
        let lists = degree_plus_one_lists(&g);
        let r = solve(&g, &lists, SolveOptions::seeded(1)).expect("solve");
        assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
    }
}

#[test]
fn disconnected_components_color_independently() {
    let mut b = GraphBuilder::new(30);
    // Three disjoint structures: a clique, a cycle, a path.
    for i in 0..10u32 {
        for j in (i + 1)..10 {
            b.add_edge(i, j);
        }
    }
    for i in 10..19u32 {
        b.add_edge(i, i + 1);
    }
    b.add_edge(19, 10);
    for i in 20..29u32 {
        b.add_edge(i, i + 1);
    }
    let g = b.build();
    let lists = degree_plus_one_lists(&g);
    let r = solve(&g, &lists, SolveOptions::seeded(4)).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
}

#[test]
fn exactly_minimal_lists_on_a_clique() {
    // K_n with exactly n colors shared by everyone: the unique-ish hardest
    // D1C instance (every color must be used exactly once).
    let g = gen::complete(20);
    let lists = degree_plus_one_lists(&g);
    let r = solve(&g, &lists, SolveOptions::seeded(6)).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
    let distinct: std::collections::HashSet<Color> = r.coloring.iter().copied().collect();
    assert_eq!(distinct.len(), 20, "a K20 needs all 20 colors");
}

#[test]
fn adversarial_interval_lists() {
    // Node v gets the interval [v, v + d_v]: heavy asymmetric overlap.
    let g = gen::gnp(100, 0.1, 3);
    let lists: Vec<Vec<Color>> = (0..g.n())
        .map(|v| {
            let d = g.degree(v as u32) as u64;
            (v as u64..=v as u64 + d).collect()
        })
        .collect();
    let lists = ListAssignment::new(lists, 32);
    assert!(lists.is_degree_plus_one(&g));
    let r = solve(&g, &lists, SolveOptions::seeded(8)).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
}

#[test]
fn colors_at_the_top_of_the_space() {
    // Colors near 2^63: no overflow in hashing or scale-up paths.
    let g = gen::cycle(24);
    let base = (1u64 << 62) - 100;
    let lists: Vec<Vec<Color>> = (0..g.n())
        .map(|v| {
            (0..3)
                .map(|i| base + (v as u64 * 7 + i * 13) % 90)
                .collect()
        })
        .collect();
    let lists = ListAssignment::new(lists, 63);
    assert!(lists.is_degree_plus_one(&g));
    let r = solve(&g, &lists, SolveOptions::seeded(9)).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
}

#[test]
fn tight_bandwidth_fails_loud_not_wrong() {
    // With an absurdly small strict cap the engine must return an error —
    // never a silently truncated (and thus possibly improper) run. The
    // variant matters: this is a deterministic bandwidth violation, not a
    // transient fault the serving layer would burn retries on.
    let g = gen::gnp(64, 0.2, 2);
    let lists = degree_plus_one_lists(&g);
    let opts = SolveOptions {
        sim: SimConfig {
            bandwidth: Bandwidth::Strict(4),
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(1)
    };
    let err = solve(&g, &lists, opts).expect_err("a 4-bit cap must overflow");
    assert!(
        matches!(err, SimError::BandwidthExceeded { limit: 4, .. }),
        "expected BandwidthExceeded, got {err:?}"
    );
    assert!(
        !err.is_transient(),
        "a strict cap violation is deterministic"
    );
}

#[test]
fn oversized_lists_only_help() {
    let g = gen::gnp(80, 0.15, 5);
    let generous: Vec<Vec<Color>> = (0..g.n())
        .map(|v| {
            (0..(3 * g.degree(v as u32) as u64 + 5))
                .map(|i| i * 3)
                .collect()
        })
        .collect();
    let lists = ListAssignment::new(generous, 16);
    let r = solve(&g, &lists, SolveOptions::seeded(2)).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
    assert_eq!(
        r.stats.repairs, 0,
        "generous lists should never need repair"
    );
}

#[test]
#[should_panic(expected = "deg+1")]
fn undersized_lists_are_rejected_up_front() {
    let g = gen::complete(5);
    let lists = ListAssignment::new(vec![vec![1, 2]; 5], 8);
    let _ = solve(&g, &lists, SolveOptions::seeded(1));
}

/// Options with an active fault plan and a small per-pass round cap —
/// heavily faulted passes stall waiting for lost replies, so the cap is
/// what bounds them (recovery happens in the repair sweep either way).
fn faulty_opts(seed: u64, plan: FaultPlan) -> SolveOptions {
    SolveOptions {
        sim: SimConfig {
            fault: plan,
            max_rounds: 200,
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(seed)
    }
}

#[test]
fn lossy_network_still_colors_properly_at_any_drop_rate() {
    // Detect-and-repair must hold the proper-coloring guarantee at every
    // drop rate — up to and including the network that delivers nothing.
    let g = gen::gnp(64, 0.12, 21);
    let lists = degree_plus_one_lists(&g);
    for rate in [0.05, 0.3, 0.7, 0.95, 1.0] {
        let r = solve(&g, &lists, faulty_opts(5, FaultPlan::lossy(rate))).expect("solve");
        assert_eq!(
            check_coloring(&g, &lists, &r.coloring),
            Ok(()),
            "improper coloring at drop rate {rate}"
        );
    }
    // A heavy loss rate must actually have perturbed the run: the fault
    // counters prove injection happened (no silent no-op plans).
    let r = solve(&g, &lists, faulty_opts(5, FaultPlan::lossy(0.7))).expect("solve");
    assert!(r.log.fault_totals().dropped > 0, "no drops recorded at 0.7");
    assert!(!r.log.starved_union().is_empty(), "no starved nodes at 0.7");
}

#[test]
fn crashed_nodes_still_color_properly_at_any_crash_rate() {
    // Quarantine-and-recolor must hold the proper-coloring guarantee at
    // every crash rate — up to and including every node crash-stopping
    // at round 0 (the fully-silent network: nothing colors in-protocol,
    // the repair sweep colors everything centrally).
    let g = gen::gnp(64, 0.12, 23);
    let lists = degree_plus_one_lists(&g);
    for (rate, recovery) in [(0.01, 0), (0.05, 3), (0.3, 2), (1.0, 1), (1.0, 0)] {
        let plan = FaultPlan::none().with_crashes(rate, recovery);
        let r = solve(&g, &lists, faulty_opts(7, plan)).expect("solve");
        assert_eq!(
            check_coloring(&g, &lists, &r.coloring),
            Ok(()),
            "improper coloring at crash rate {rate} recovery {recovery}"
        );
    }
    // A moderate recovery plan must actually have crashed nodes — the
    // counters and the quarantine stat prove the path was exercised.
    let plan = FaultPlan::none().with_crashes(0.05, 3);
    let r = solve(&g, &lists, faulty_opts(7, plan)).expect("solve");
    assert!(r.log.fault_totals().crashes > 0, "no crash events recorded");
    assert!(!r.log.crashed_union().is_empty(), "no crashed nodes listed");
    assert!(
        r.stats.quarantined > 0,
        "recovered nodes re-colored in-protocol should still be quarantined"
    );
}

#[test]
fn crashes_compose_with_message_faults() {
    // Crash fates stack on top of drop/delay/dup: all streams fire, the
    // coloring stays proper, and the run is reproducible.
    let g = gen::gnp(72, 0.1, 24);
    let lists = degree_plus_one_lists(&g);
    let plan = FaultPlan::lossy(0.2)
        .with_delay(0.2, 3)
        .with_dup(0.2)
        .with_crashes(0.02, 2);
    let r = solve(&g, &lists, faulty_opts(8, plan)).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
    let totals = r.log.fault_totals();
    assert!(totals.dropped > 0 && totals.delayed > 0 && totals.duplicated > 0);
    assert!(totals.crashes > 0, "crash stream never fired");
    let again = solve(&g, &lists, faulty_opts(8, plan)).expect("solve");
    assert_eq!(r.coloring, again.coloring, "crashed solve not reproducible");
    assert_eq!(r.log.passes(), again.log.passes());
}

#[test]
fn fatal_crash_plans_fail_loud_with_transient_errors() {
    // `with_fatal_crashes` turns the first crash into `NodeCrashed`;
    // `with_quorum` turns losing too many nodes into `QuorumLost`. Both
    // are transient (a re-salted retry rolls new fates), unlike a strict
    // bandwidth violation.
    let g = gen::gnp(48, 0.15, 25);
    let lists = degree_plus_one_lists(&g);
    let fatal = FaultPlan::none().with_crashes(0.3, 0).with_fatal_crashes();
    let err = solve(&g, &lists, faulty_opts(9, fatal)).expect_err("a 0.3 rate must crash someone");
    assert!(
        matches!(err, SimError::NodeCrashed { .. }),
        "expected NodeCrashed, got {err:?}"
    );
    assert!(err.is_transient(), "crash faults are transient");
    let quorum = FaultPlan::none().with_crashes(1.0, 0).with_quorum(40);
    let err = solve(&g, &lists, faulty_opts(9, quorum)).expect_err("all nodes down loses quorum");
    assert!(
        matches!(err, SimError::QuorumLost { quorum: 40, .. }),
        "expected QuorumLost, got {err:?}"
    );
    assert!(err.is_transient());
}

#[test]
fn standalone_estimators_survive_crash_fates() {
    // A node a crash fate keeps down in round 0 never runs that round, so
    // neither estimator may size its per-neighbor state there: both must
    // finish with one report per node (and one estimate per edge).
    use congest_coloring::estimate::{
        find_four_cycle_rich_wedges, find_triangle_rich_edges, SimilarityScheme,
    };
    let g = gen::gnp(200, 0.1, 3);
    let config = SimConfig {
        fault: FaultPlan::none().with_crashes(0.05, 2),
        ..SimConfig::seeded(4)
    };
    let (wedges, run) = find_four_cycle_rich_wedges(&g, 0.5, config, 5).expect("four cycles");
    assert_eq!(wedges.wedges.len(), g.n());
    assert!(run.faults.crashes > 0, "the plan must crash someone");
    let scheme = SimilarityScheme::practical(0.25);
    let (tris, run) = find_triangle_rich_edges(&g, 0.5, scheme, config, 5).expect("triangles");
    assert_eq!(tris.estimates.len(), g.n());
    for (v, row) in (0..).zip(&tris.estimates) {
        assert_eq!(row.len(), g.degree(v), "node {v}");
    }
    assert!(run.faults.crashes > 0, "the plan must crash someone");
}

#[test]
fn uniform_acd_survives_faults_alike_on_every_engine() {
    // The uniform ACD runs Alg. 6 on every edge over lossy, delaying,
    // duplicating and crashing networks: the coloring stays proper, and
    // the session at one shard and thread, the session at four shards
    // and two threads, and the reference oracle agree on the coloring
    // and on every pass.
    use congest_coloring::d1lc::EngineMode;
    let (g, _) = gen::planted_acd(3, 24, 0.05, 60, 0.05, 6);
    let lists = degree_plus_one_lists(&g);
    for (seed, plan) in [
        (31, FaultPlan::lossy(0.2)),
        (32, FaultPlan::lossy(0.1).with_delay(0.2, 3).with_dup(0.2)),
        (33, FaultPlan::none().with_crashes(0.02, 2)),
        (34, FaultPlan::none().with_crashes(0.05, 0)),
    ] {
        let run = |engine, shards, threads| {
            let mut opts = faulty_opts(seed, plan);
            opts.profile.uniform = true;
            opts.engine = engine;
            opts.sim.shards = shards;
            opts.sim.threads = threads;
            solve(&g, &lists, opts).expect("solve")
        };
        let base = run(EngineMode::Session, 1, 1);
        assert_eq!(
            check_coloring(&g, &lists, &base.coloring),
            Ok(()),
            "{plan:?}"
        );
        let buddy_faults = base
            .log
            .passes()
            .iter()
            .filter(|p| p.name == "acd-uniform-buddy")
            .map(|p| p.report.faults.total())
            .sum::<u64>();
        assert!(
            buddy_faults > 0,
            "{plan:?} never hit the uniform buddy pass"
        );
        for (engine, shards, threads) in
            [(EngineMode::Session, 4, 2), (EngineMode::Reference, 1, 1)]
        {
            let other = run(engine, shards, threads);
            let at = format!("{plan:?} on {engine:?} at {shards} shards, {threads} threads");
            assert_eq!(base.coloring, other.coloring, "coloring diverged: {at}");
            assert_eq!(
                base.log.passes(),
                other.log.passes(),
                "pass log diverged: {at}"
            );
        }
    }
}

/// Options with an active schedule adversary (optionally composed with a
/// fault plan): the α-synchronizer absorbs the asynchrony, so the solve
/// must behave exactly like its synchronous twin.
fn async_opts(seed: u64, sched: SchedulePlan, plan: FaultPlan) -> SolveOptions {
    SolveOptions {
        sim: SimConfig {
            fault: plan,
            sched,
            max_rounds: 200,
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(seed)
    }
}

#[test]
fn schedule_adversaries_never_change_the_coloring() {
    // Jitter, stragglers, anti-FIFO edges, and skewed starts all at
    // once, on top of a lossy network: the synchronizer pays pulses and
    // sync traffic (visible in the pass log) but the coloring, stats,
    // and fault counters are byte-identical to the synchronous run.
    let g = gen::gnp(72, 0.1, 26);
    let lists = degree_plus_one_lists(&g);
    let sched = SchedulePlan::jittery(0.3, 3)
        .with_stragglers(0.1, 4)
        .with_antififo(0.2, 4)
        .with_start_spread(2)
        .with_patience(64);
    let plan = FaultPlan::lossy(0.1).with_delay(0.2, 3);
    let sync = solve(&g, &lists, async_opts(10, SchedulePlan::none(), plan)).expect("solve");
    let async_run = solve(&g, &lists, async_opts(10, sched, plan)).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &async_run.coloring), Ok(()));
    assert_eq!(
        sync.coloring, async_run.coloring,
        "adversary changed the coloring"
    );
    assert_eq!(sync.stats, async_run.stats, "adversary changed the stats");
    let overhead = async_run.log.sched_totals();
    assert!(overhead.pulses > 0, "active adversary recorded no pulses");
    assert!(overhead.sync_bits > 0, "synchronizer traffic never counted");
    assert!(
        !sync.log.sched_totals().any(),
        "synchronous run counted overhead"
    );
}

#[test]
fn wedged_schedules_fail_loud_not_wrong() {
    // A certain burst longer than the watchdog's patience wedges every
    // run of the plan. The engine must surface `ScheduleStalled` — never
    // a silently wrong or spinning run — and the error is deterministic,
    // so the serving layer must not classify it as transient (a verbatim
    // retry stalls identically). Raising the patience, not retrying, is
    // what makes progress.
    let g = gen::gnp(48, 0.15, 27);
    let lists = degree_plus_one_lists(&g);
    let wedged = SchedulePlan::none().with_bursts(1.0, 6).with_patience(2);
    let err = solve(&g, &lists, async_opts(11, wedged, FaultPlan::none()))
        .expect_err("a 6-pulse burst must trip a 2-pulse watchdog");
    assert!(
        matches!(err, SimError::ScheduleStalled { .. }),
        "expected ScheduleStalled, got {err:?}"
    );
    assert!(
        !err.is_transient(),
        "schedules are pure functions of (seed, plan): retries cannot help"
    );
    let patient = wedged.with_patience(16);
    let r = solve(&g, &lists, async_opts(11, patient, FaultPlan::none()))
        .expect("patience above the burst length completes");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
    assert!(
        r.log.sched_totals().max_wait >= 3,
        "burst waits not recorded"
    );
}

#[test]
fn delayed_and_duplicated_messages_are_absorbed() {
    let g = gen::gnp(72, 0.1, 22);
    let lists = degree_plus_one_lists(&g);
    let plan = FaultPlan::none().with_delay(0.4, 3).with_dup(0.4);
    let r = solve(&g, &lists, faulty_opts(6, plan)).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
    let totals = r.log.fault_totals();
    assert!(totals.delayed > 0, "delay stream never fired");
    assert!(totals.duplicated > 0, "dup stream never fired");
}

#[test]
fn truncating_network_survives_a_strict_cap() {
    // The same cap that fails loud above is survivable when the plan
    // models truncation: payloads are clipped to the cap (and counted)
    // instead of aborting, and repair covers the information loss.
    let g = gen::gnp(64, 0.2, 2);
    let lists = degree_plus_one_lists(&g);
    let opts = SolveOptions {
        sim: SimConfig {
            bandwidth: Bandwidth::Strict(4),
            fault: FaultPlan::none().with_truncate(),
            max_rounds: 200,
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(1)
    };
    let r = solve(&g, &lists, opts).expect("truncation absorbs the cap");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
    assert!(r.log.fault_totals().truncated > 0, "nothing was clipped");
}

#[test]
fn max_rounds_cap_degrades_gracefully() {
    // An extremely small round cap leaves passes incomplete; the repair
    // sweep must still deliver a proper coloring.
    let g = gen::gnp(60, 0.2, 7);
    let lists = degree_plus_one_lists(&g);
    let opts = SolveOptions {
        sim: SimConfig {
            max_rounds: 1,
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(3)
    };
    let r = solve(&g, &lists, opts).expect("solve");
    assert_eq!(check_coloring(&g, &lists, &r.coloring), Ok(()));
    assert!(
        r.stats.repairs > 0,
        "with 1-round passes the repair sweep must fire"
    );
}
