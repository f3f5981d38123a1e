//! E0h — async-schedule sweep: full pipeline solves under hostile
//! schedules, run through the correctness-preserving α-synchronizer.
//!
//! PR 10 adds asynchronous execution ([`congest::SchedulePlan`]): a
//! deterministic, seeded schedule adversary perturbs *when* every node
//! pulses — per-message jitter, straggler nodes, anti-FIFO per-edge
//! delivery, burst stalls, skewed starts — while the α-synchronizer's
//! round-tag gating keeps *what* every node computes byte-identical to
//! the synchronous engine. The adversary's cost is real and measured:
//! extra pulses beyond one per round, empty-round sync traffic, and the
//! longest wait any node endured. A schedule that out-waits the
//! watchdog's patience wedges the run, which must fail loud with the
//! non-transient [`congest::SimError::ScheduleStalled`]. E0h sweeps
//! schedule plans (plus one composition with message loss) over the S1
//! workload family, crossed with session-engine shards {1, 2, 4, 8}
//! and threads {1, 2, 8}.
//!
//! The run **asserts**, before any timing:
//!
//! * every adversarial solve yields a **proper coloring** that is
//!   **byte-identical** — coloring, stats, and pass log with the
//!   synchronizer's own overhead counters masked — to the reference
//!   engine and the full shards × threads grid;
//! * the overhead counters themselves are **geometry-invariant** across
//!   the session grid (the adversary is a pure function of seed and
//!   plan, not of the host);
//! * the `sync` arm ([`SchedulePlan::none`]) is byte-identical to a
//!   solve with a default `SimConfig` — the synchronizer costs nothing
//!   when it is off;
//! * the wedged arm (a certain 6-pulse burst against 2 pulses of
//!   patience) fails with `ScheduleStalled`, classified non-transient.
//!
//! `BENCH_10.json` at the repo root is the committed full-scale snapshot.
//!
//! **Honest caveat:** pulses and waits are *simulated* asynchrony on a
//! round-synchronous engine — wall-clock columns measure the simulator,
//! not a real asynchronous network.

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f2, Table};
use crate::workloads::{self, Instance, Scale};
use congest::{FaultPlan, PassRecord, ScheduleCounters, SchedulePlan, SimConfig, SimError};
use d1lc::{solve, EngineMode, SolveOptions, SolveResult};
use graphs::palette::check_coloring;
use std::time::Instant;

/// Registry entries for this module (E0h).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![TableScenario::boxed(
        "E0h",
        "Async-schedule sweep: hostile schedules through the α-synchronizer",
        "Every adversarial solve is a proper coloring byte-identical to the synchronous \
         engine across engine modes, shards {1, 2, 4, 8}, and threads {1, 2, 8}; the \
         synchronizer's overhead (pulses/round, sync bits, waits, reorderings) is \
         geometry-invariant and honestly counted; SchedulePlan::none() reproduces the \
         synchronous solve bit for bit; a schedule that out-waits the watchdog fails \
         loud with the non-transient ScheduleStalled, never silently wrong",
        e0h_async,
    )]
}

/// Solve seed (a member of the S1 sweep's seed set, matching E0e/E0g).
pub const SEED: u64 = 1;

/// Per-pass round cap, matching E0g so the composition arm's losses are
/// bounded the same way (and the `sync` identity assertion compares
/// equal configs).
const MAX_ROUNDS: u64 = 256;

/// Session-engine ownership shard counts crossed with every plan.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Worker thread counts crossed with every plan.
const THREADS: [usize; 3] = [1, 2, 8];

/// The `(shards, threads)` cells that get a printed (timed) row; the
/// identity assertions still cover the full grid.
const TIMED: [(usize, usize); 4] = [(1, 1), (2, 2), (4, 8), (8, 8)];

/// Watchdog patience for every completing arm: far above any wait the
/// swept adversaries can produce, so the watchdog is armed but quiet.
const PATIENCE: u32 = 64;

/// The swept schedule plans (each optionally composed with a fault
/// plan), mildest to harshest.
fn plans() -> Vec<(&'static str, SchedulePlan, FaultPlan)> {
    let p = |s: SchedulePlan| s.with_patience(PATIENCE);
    vec![
        ("sync", SchedulePlan::none(), FaultPlan::none()),
        (
            "jitter 0.2 max 3",
            p(SchedulePlan::jittery(0.2, 3)),
            FaultPlan::none(),
        ),
        (
            "jitter 0.5 max 4 spread 4",
            p(SchedulePlan::jittery(0.5, 4).with_start_spread(4)),
            FaultPlan::none(),
        ),
        (
            "straggler 0.05 lag 6",
            p(SchedulePlan::none().with_stragglers(0.05, 6)),
            FaultPlan::none(),
        ),
        (
            "anti-FIFO 0.3 win 4",
            p(SchedulePlan::none().with_antififo(0.3, 4)),
            FaultPlan::none(),
        ),
        (
            "burst 0.05 max 4",
            p(SchedulePlan::none().with_bursts(0.05, 4)),
            FaultPlan::none(),
        ),
        (
            "jitter 0.3 max 3 + drop 0.1",
            p(SchedulePlan::jittery(0.3, 3)),
            FaultPlan::lossy(0.1).with_delay(0.2, 3),
        ),
    ]
}

/// The wedged arm: a certain 6-pulse burst against 2 pulses of patience
/// stalls every run of the plan, deterministically.
fn wedged_plan() -> SchedulePlan {
    SchedulePlan::none().with_bursts(1.0, 6).with_patience(2)
}

/// One timed solve under `(sched, fault)`; returns wall seconds and the
/// (deterministic) result.
fn async_solve(
    inst: &Instance,
    engine: EngineMode,
    threads: usize,
    shards: usize,
    sched: SchedulePlan,
    fault: FaultPlan,
) -> (f64, Result<SolveResult, SimError>) {
    let opts = SolveOptions {
        engine,
        sim: SimConfig {
            threads,
            shards,
            fault,
            sched,
            max_rounds: MAX_ROUNDS,
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(SEED)
    };
    let start = Instant::now();
    let result = solve(&inst.graph, &inst.lists, opts);
    (start.elapsed().as_secs_f64(), result)
}

/// The pass log with the synchronizer's own overhead counters masked —
/// what must agree byte for byte with an engine that never ran the
/// synchronizer (the reference plane ignores the sched knob).
fn masked_passes(r: &SolveResult) -> Vec<PassRecord> {
    r.log
        .passes()
        .iter()
        .cloned()
        .map(|mut p| {
            p.report.sched = ScheduleCounters::default();
            p
        })
        .collect()
}

/// E0h — schedule-adversary × shards × threads sweep with cross-engine
/// identity witness and a fail-loud wedged arm.
pub fn e0h_async(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![128, 256],
        Scale::Full => vec![256, 1024],
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut t = Table::new(
        format!(
            "E0h — async-schedule sweep, d1lc solve on gnp-window (S1 family) through the \
             α-synchronizer, seed {SEED}, max {MAX_ROUNDS} rounds/pass, patience {PATIENCE} \
             (host cores={cores})",
        ),
        "Hostile schedules change when, never what: colorings and transcripts match the \
         synchronous engine byte for byte, the synchronizer's overhead is counted \
         honestly, and a wedged schedule fails loud",
    );
    t.columns([
        "n",
        "plan",
        "shards",
        "threads",
        "wall ms",
        "rounds",
        "pulses",
        "pulses/round",
        "sync bits/round",
        "max wait",
        "reordered",
    ]);
    for n in sizes {
        let inst = workloads::gnp_window(n, SEED);
        for (label, sched, fault) in plans() {
            // Witness arm: the session engine at 1 thread, 1 shard.
            let (_, witness) = async_solve(&inst, EngineMode::Session, 1, 1, sched, fault);
            let witness = witness.expect("patient async solve completes");
            assert_eq!(
                check_coloring(&inst.graph, &inst.lists, &witness.coloring),
                Ok(()),
                "E0h: improper coloring under plan '{label}' at n={n}"
            );
            if !sched.is_active() && !fault.is_active() {
                // The synchronizer off must be invisible: bit for bit
                // the synchronous engine (same config minus the plan
                // fields).
                let baseline = {
                    let opts = SolveOptions {
                        sim: SimConfig {
                            shards: 1,
                            max_rounds: MAX_ROUNDS,
                            ..SimConfig::default()
                        },
                        ..SolveOptions::seeded(SEED)
                    };
                    solve(&inst.graph, &inst.lists, opts).expect("synchronous solve")
                };
                assert_eq!(
                    witness.coloring, baseline.coloring,
                    "E0h: SchedulePlan::none() changed the coloring at n={n}"
                );
                assert_eq!(
                    witness.log.passes(),
                    baseline.log.passes(),
                    "E0h: SchedulePlan::none() changed the pass log at n={n}"
                );
            }
            let check = |arm: &str, result: &SolveResult| {
                assert_eq!(
                    witness.coloring, result.coloring,
                    "E0h: coloring diverged ({arm}, plan '{label}', n={n})"
                );
                assert_eq!(
                    masked_passes(&witness),
                    masked_passes(result),
                    "E0h: pass log diverged ({arm}, plan '{label}', n={n})"
                );
                assert_eq!(
                    witness.stats, result.stats,
                    "E0h: stats diverged ({arm}, plan '{label}', n={n})"
                );
            };
            // Cross-engine identity: the reference plane ignores the
            // sched knob entirely, so its masked-log agreement *is* the
            // transcript-preservation claim.
            let (_, reference) = async_solve(&inst, EngineMode::Reference, 1, 1, sched, fault);
            check(
                "reference t=1",
                &reference.expect("reference solve completes"),
            );
            // The full shards × threads grid is asserted — including
            // geometry-invariance of the overhead counters; the TIMED
            // diagonal gets printed rows.
            for shards in SHARDS {
                for threads in THREADS {
                    let (wall, result) =
                        async_solve(&inst, EngineMode::Session, threads, shards, sched, fault);
                    let result = result.expect("sharded async solve completes");
                    check(&format!("session s={shards} t={threads}"), &result);
                    assert_eq!(
                        witness.log.passes(),
                        result.log.passes(),
                        "E0h: sched counters not geometry-invariant \
                         (s={shards} t={threads}, plan '{label}', n={n})"
                    );
                    if !TIMED.contains(&(shards, threads)) {
                        continue;
                    }
                    let rounds = result.rounds().max(1);
                    let overhead = result.log.sched_totals();
                    let (per_round, bits_per_round) = if overhead.any() {
                        (
                            f2(overhead.pulses as f64 / rounds as f64),
                            f2(overhead.sync_bits as f64 / rounds as f64),
                        )
                    } else {
                        ("-".into(), "-".into())
                    };
                    t.row([
                        n.to_string(),
                        label.into(),
                        shards.to_string(),
                        threads.to_string(),
                        f2(wall * 1e3),
                        result.rounds().to_string(),
                        overhead.pulses.to_string(),
                        per_round,
                        bits_per_round,
                        overhead.max_wait.to_string(),
                        overhead.reordered.to_string(),
                    ]);
                }
            }
        }
        // The wedged arm: fail loud, never silently wrong, and never a
        // retry candidate — the schedule is a pure function of the seed
        // and the plan.
        let (wall, stalled) = async_solve(
            &inst,
            EngineMode::Session,
            1,
            1,
            wedged_plan(),
            FaultPlan::none(),
        );
        let err = stalled.expect_err("a 6-pulse burst must trip a 2-pulse watchdog");
        assert!(
            matches!(err, SimError::ScheduleStalled { .. }),
            "E0h: expected ScheduleStalled at n={n}, got {err:?}"
        );
        assert!(
            !err.is_transient(),
            "E0h: a wedged schedule must not be classified transient"
        );
        let (round, waited) = match err {
            SimError::ScheduleStalled { round, waited, .. } => (round, waited),
            _ => unreachable!(),
        };
        t.row([
            n.to_string(),
            "burst 1.0 max 6 patience 2 (wedged)".into(),
            "1".to_string(),
            "1".to_string(),
            f2(wall * 1e3),
            format!("stalled@{round}"),
            "-".into(),
            "-".into(),
            "-".into(),
            waited.to_string(),
            "-".into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The swept plans cover the advertised axes and stay distinct.
    #[test]
    fn plans_cover_the_axes() {
        let ps = plans();
        assert_eq!(ps[0].1, SchedulePlan::none());
        assert!(!ps[0].1.is_active());
        assert!(ps[1..].iter().all(|(_, s, _)| s.is_active()));
        assert!(
            ps[1..].iter().all(|(_, s, _)| s.patience == PATIENCE),
            "every completing arm arms the watchdog"
        );
        for window in ps.windows(2) {
            assert_ne!(
                (window[0].1, window[0].2),
                (window[1].1, window[1].2),
                "duplicate plan in the sweep"
            );
        }
        assert!(ps.iter().any(|(_, s, _)| s.jitter_q > 0), "no jitter arm");
        assert!(
            ps.iter().any(|(_, s, _)| s.start_spread > 0),
            "no skewed-start arm"
        );
        assert!(
            ps.iter().any(|(_, s, _)| s.straggler_q > 0),
            "no straggler arm"
        );
        assert!(
            ps.iter().any(|(_, s, _)| s.antififo_q > 0),
            "no anti-FIFO arm"
        );
        assert!(ps.iter().any(|(_, s, _)| s.burst_q > 0), "no burst arm");
        assert!(
            ps.iter().any(|(_, s, f)| s.is_active() && f.is_active()),
            "no schedule × message-fault composition arm"
        );
        for (shards, threads) in TIMED {
            assert!(SHARDS.contains(&shards) && THREADS.contains(&threads));
        }
    }

    /// A tiny async cell runs end to end: proper coloring, overhead
    /// actually counted, and the session/reference arms agree across a
    /// shard split, sched counters masked.
    #[test]
    fn async_cell_smoke() {
        let inst = workloads::gnp_window(96, SEED);
        let sched = SchedulePlan::jittery(0.4, 3)
            .with_start_spread(2)
            .with_patience(PATIENCE);
        let (_, session) = async_solve(&inst, EngineMode::Session, 2, 4, sched, FaultPlan::none());
        let session = session.expect("solve");
        assert_eq!(
            check_coloring(&inst.graph, &inst.lists, &session.coloring),
            Ok(())
        );
        let overhead = session.log.sched_totals();
        assert!(overhead.pulses > 0, "no pulses recorded");
        assert!(overhead.sync_bits > 0, "no sync traffic recorded");
        assert!(
            overhead.pulses > session.rounds(),
            "an active adversary must cost extra pulses"
        );
        let (_, reference) =
            async_solve(&inst, EngineMode::Reference, 1, 1, sched, FaultPlan::none());
        let reference = reference.expect("solve");
        assert_eq!(session.coloring, reference.coloring);
        assert_eq!(masked_passes(&session), masked_passes(&reference));
        assert!(
            !reference.log.sched_totals().any(),
            "the reference engine must ignore the sched knob"
        );
    }

    /// The wedged plan stalls loud — and deterministically, so it must
    /// not be classified as worth retrying.
    #[test]
    fn wedged_plan_stalls_loud() {
        let inst = workloads::gnp_window(64, SEED);
        let (_, r) = async_solve(
            &inst,
            EngineMode::Session,
            1,
            1,
            wedged_plan(),
            FaultPlan::none(),
        );
        let err = r.expect_err("must stall");
        assert!(matches!(err, SimError::ScheduleStalled { .. }));
        assert!(!err.is_transient());
        let (_, again) = async_solve(
            &inst,
            EngineMode::Session,
            8,
            8,
            wedged_plan(),
            FaultPlan::none(),
        );
        assert_eq!(
            format!("{err}"),
            format!("{}", again.expect_err("must stall at any geometry")),
            "the stall is not geometry-deterministic"
        );
    }
}
