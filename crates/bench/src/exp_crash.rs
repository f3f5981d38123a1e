//! E0g — crash-chaos sweep: full pipeline solves under deterministic
//! crash-stop / crash-recovery node fates.
//!
//! PR 9 extends the fault layer ([`congest::FaultPlan`]) with per-node
//! crash fates: each live node crashes independently per round with a
//! fixed-point probability, stays down for the rest of the run
//! (crash-stop) or for a bounded window (crash-recovery), and every
//! fate is a stateless hash of `(pass seed, salt, node, round)` — so
//! the whole failure schedule is byte-identical across every
//! shard/thread/engine geometry. Crashed nodes stop stepping and
//! sending, their in-flight bundles are dropped, and the pipeline
//! quarantines and recolors whatever the crashes left behind
//! (DESIGN.md §10). E0g sweeps crash-rate × recovery-delay (plus one
//! composition with message loss) over the S1 workload family, crossed
//! with session-engine shards {1, 2, 4, 8} and threads {1, 2, 8}.
//!
//! The run **asserts**, before any timing:
//!
//! * every crashed solve still yields a **proper coloring** — the
//!   quarantine-and-recolor guarantee, at every crash rate;
//! * every plan's outcome is **byte-identical** across engine modes
//!   (session, reference) and the full shards × threads grid — same
//!   coloring, same per-pass log, crash and fault counters included;
//! * the `none` arm is byte-identical to a solve with a default
//!   (fault-free) `SimConfig` — a plan without crash fates costs
//!   nothing and changes nothing.
//!
//! `BENCH_9.json` at the repo root is the committed full-scale snapshot.

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f2, Table};
use crate::workloads::{self, Instance, Scale};
use congest::{FaultPlan, SimConfig};
use d1lc::{solve, EngineMode, SolveOptions, SolveResult};
use graphs::palette::check_coloring;
use std::time::Instant;

/// Registry entries for this module (E0g).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![TableScenario::boxed(
        "E0g",
        "Crash-chaos sweep: crash-stop/crash-recovery nodes under the full pipeline",
        "Every crashed solve ends in a proper coloring (quarantine-and-recolor) and is \
         byte-identical across engine modes, shards {1, 2, 4, 8}, and threads {1, 2, 8}; \
         a plan without crash fates reproduces the fault-free solve bit for bit; rounds \
         and central repairs degrade gracefully as the crash rate rises",
        e0g_crash,
    )]
}

/// Solve seed (a member of the S1 sweep's seed set, matching E0e).
pub const SEED: u64 = 1;

/// Per-pass round cap for every crash arm. Crash-stopped nodes never
/// report done, so their passes always run to this cap (the quarantined
/// nodes are then recolored in the repair sweep); the cap bounds the
/// sweep's wall clock and is applied to the fault-free anchor too so
/// the `none` identity assertion compares equal configs.
const MAX_ROUNDS: u64 = 256;

/// Session-engine ownership shard counts crossed with every plan.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Worker thread counts crossed with every plan.
const THREADS: [usize; 3] = [1, 2, 8];

/// The `(shards, threads)` cells that get a printed (timed) row; the
/// identity assertions still cover the full grid.
const TIMED: [(usize, usize); 4] = [(1, 1), (2, 2), (4, 8), (8, 8)];

/// The swept crash plans, mildest to harshest.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        (
            "crash 0.002 rec 4",
            FaultPlan::none().with_crashes(0.002, 4),
        ),
        ("crash 0.01 rec 2", FaultPlan::none().with_crashes(0.01, 2)),
        ("crash 0.01 stop", FaultPlan::none().with_crashes(0.01, 0)),
        (
            "crash 0.005 rec 2 drop 0.2",
            FaultPlan::lossy(0.2).with_crashes(0.005, 2),
        ),
    ]
}

/// One timed solve under `plan`; returns wall seconds and the
/// (deterministic) result.
fn crash_solve(
    inst: &Instance,
    engine: EngineMode,
    threads: usize,
    shards: usize,
    plan: FaultPlan,
) -> (f64, SolveResult) {
    let opts = SolveOptions {
        engine,
        sim: SimConfig {
            threads,
            shards,
            fault: plan,
            max_rounds: MAX_ROUNDS,
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(SEED)
    };
    let start = Instant::now();
    let result = solve(&inst.graph, &inst.lists, opts).expect("crash solve completes");
    (start.elapsed().as_secs_f64(), result)
}

/// E0g — crash-rate × recovery × shards × threads sweep with
/// cross-engine identity witness.
pub fn e0g_crash(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![128, 256],
        Scale::Full => vec![256, 1024],
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut t = Table::new(
        format!(
            "E0g — crash-chaos sweep, d1lc solve on gnp-window (S1 family) under seeded \
             crash fates, seed {SEED}, max {MAX_ROUNDS} rounds/pass (host cores={cores})",
        ),
        "Proper colorings and byte-identical transcripts under every crash plan, engine \
         mode, shard count, and thread count; quarantine-and-recolor absorbs what the \
         crashes take down",
    );
    t.columns([
        "n",
        "plan",
        "shards",
        "threads",
        "wall ms",
        "rounds",
        "crashes",
        "crashed",
        "quarantined",
        "repairs",
        "dropped",
        "starved",
    ]);
    for n in sizes {
        let inst = workloads::gnp_window(n, SEED);
        for (label, plan) in plans() {
            // Witness arm: the session engine at 1 thread, 1 shard.
            let (_, witness) = crash_solve(&inst, EngineMode::Session, 1, 1, plan);
            assert_eq!(
                check_coloring(&inst.graph, &inst.lists, &witness.coloring),
                Ok(()),
                "E0g: improper coloring under plan '{label}' at n={n}"
            );
            if !plan.is_active() {
                // A plan without crash fates must be invisible: bit for
                // bit the fault-free engine (same config minus the plan
                // field).
                let baseline = {
                    let opts = SolveOptions {
                        sim: SimConfig {
                            shards: 1,
                            max_rounds: MAX_ROUNDS,
                            ..SimConfig::default()
                        },
                        ..SolveOptions::seeded(SEED)
                    };
                    solve(&inst.graph, &inst.lists, opts).expect("fault-free solve")
                };
                assert_eq!(
                    witness.coloring, baseline.coloring,
                    "E0g: FaultPlan::none() changed the coloring at n={n}"
                );
                assert_eq!(
                    witness.log.passes(),
                    baseline.log.passes(),
                    "E0g: FaultPlan::none() changed the pass log at n={n}"
                );
            }
            let check = |arm: &str, result: &SolveResult| {
                assert_eq!(
                    witness.coloring, result.coloring,
                    "E0g: coloring diverged ({arm}, plan '{label}', n={n})"
                );
                assert_eq!(
                    witness.log.passes(),
                    result.log.passes(),
                    "E0g: pass log diverged ({arm}, plan '{label}', n={n})"
                );
                assert_eq!(
                    witness.stats, result.stats,
                    "E0g: stats diverged ({arm}, plan '{label}', n={n})"
                );
            };
            // Cross-engine identity: the reference plane draws the same
            // crash fates node for node (one arm; it is slow and
            // ignores the shard knob).
            let (_, reference) = crash_solve(&inst, EngineMode::Reference, 1, 1, plan);
            check("reference t=1", &reference);
            // The full shards × threads grid is asserted; the TIMED
            // diagonal gets printed rows.
            for shards in SHARDS {
                for threads in THREADS {
                    let (wall, result) =
                        crash_solve(&inst, EngineMode::Session, threads, shards, plan);
                    check(&format!("session s={shards} t={threads}"), &result);
                    if !TIMED.contains(&(shards, threads)) {
                        continue;
                    }
                    let faults = result.log.fault_totals();
                    t.row([
                        n.to_string(),
                        label.into(),
                        shards.to_string(),
                        threads.to_string(),
                        f2(wall * 1e3),
                        result.rounds().to_string(),
                        faults.crashes.to_string(),
                        result.log.crashed_union().len().to_string(),
                        result.stats.quarantined.to_string(),
                        result.stats.repairs.to_string(),
                        faults.dropped.to_string(),
                        result.log.starved_union().len().to_string(),
                    ]);
                }
            }
        }
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
        assert_eq!(ps[0].1, FaultPlan::none());
        assert!(!ps[0].1.is_active());
        assert!(ps[1..].iter().all(|(_, p)| p.is_active()));
        assert!(ps[1..].iter().all(|(_, p)| p.crash_q > 0));
        for window in ps.windows(2) {
            assert_ne!(window[0].1, window[1].1, "duplicate plan in the sweep");
        }
        assert!(
            ps.iter()
                .any(|(_, p)| p.crash_q > 0 && p.crash_recovery == 0),
            "no crash-stop arm"
        );
        assert!(
            ps.iter()
                .any(|(_, p)| p.crash_q > 0 && p.crash_recovery > 0),
            "no crash-recovery arm"
        );
        assert!(
            ps.iter().any(|(_, p)| p.crash_q > 0 && p.drop_q > 0),
            "no crash × message-loss composition arm"
        );
        for (shards, threads) in TIMED {
            assert!(SHARDS.contains(&shards) && THREADS.contains(&threads));
        }
    }

    /// A tiny crash cell runs end to end: proper coloring, crashes
    /// actually recorded and quarantined, and the session/reference arms
    /// agree across a shard split.
    #[test]
    fn crash_cell_smoke() {
        let inst = workloads::gnp_window(96, SEED);
        let plan = FaultPlan::none().with_crashes(0.05, 2);
        let (_, session) = crash_solve(&inst, EngineMode::Session, 2, 4, plan);
        assert_eq!(
            check_coloring(&inst.graph, &inst.lists, &session.coloring),
            Ok(())
        );
        assert!(
            session.log.fault_totals().crashes > 0,
            "no crashes recorded"
        );
        assert!(
            !session.log.crashed_union().is_empty(),
            "no crashed nodes recorded"
        );
        let (_, reference) = crash_solve(&inst, EngineMode::Reference, 1, 1, plan);
        assert_eq!(session.coloring, reference.coloring);
        assert_eq!(session.log.passes(), reference.log.passes());
        assert_eq!(session.stats.quarantined, reference.stats.quarantined);
    }
}
