//! E0e — chaos sweep: full pipeline solves under deterministic fault
//! injection.
//!
//! PR 7 puts a seeded fault layer ([`congest::FaultPlan`]) between the
//! mailbox plane's send and delivery phases: bundles are dropped,
//! delayed into later rounds, duplicated, or truncated to the bandwidth
//! cap, with every fate a pure hash of `(pass seed, plan, edge, round)`.
//! E0e sweeps drop rate × delay × duplication over the S1 workload
//! family and, per (n, plan, threads) cell, reports how the solve
//! degrades: rounds spent, central repairs, fault-induced conflicts the
//! pre-repair sweep broke, and the raw fault counters (dropped, delayed,
//! duplicated bundles; starved receivers).
//!
//! The run **asserts**, before any timing:
//!
//! * every faulty solve still yields a **proper coloring** (the
//!   detect-and-repair guarantee, at every drop rate);
//! * every plan's outcome is **byte-identical** across engine modes
//!   (session, reference) and threads {1, 2, 8} — same coloring, same
//!   per-pass log, fault counters included;
//! * the `none` arm is byte-identical to a solve with a default
//!   (fault-free) `SimConfig` — an inactive plan costs nothing and
//!   changes nothing.
//!
//! `BENCH_7.json` at the repo root is the committed full-scale snapshot.

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f2, Table};
use crate::workloads::{self, Instance, Scale};
use congest::{FaultPlan, SimConfig};
use d1lc::{solve, EngineMode, SolveOptions, SolveResult};
use graphs::palette::check_coloring;
use std::time::Instant;

/// Registry entries for this module (E0e).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![TableScenario::boxed(
        "E0e",
        "Chaos sweep: pipeline solves under deterministic fault injection",
        "Every faulty solve stays a proper coloring and is byte-identical across engine \
         modes and threads {1, 2, 8}; FaultPlan::none() reproduces the fault-free solve \
         bit for bit; rounds/repairs degrade gracefully as drop/delay/dup rates rise",
        e0e_chaos,
    )]
}

/// Solve seed (a member of the S1 sweep's seed set).
pub const SEED: u64 = 1;

/// Per-pass round cap for every chaos arm. Heavily faulted passes stall
/// waiting for lost replies; the cap bounds them (recovery then happens
/// in the repair sweep), and it is applied to the fault-free anchor too
/// so the `none` identity assertion compares equal configs.
const MAX_ROUNDS: u64 = 400;

/// The swept fault plans, mildest to harshest.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("drop 0.1", FaultPlan::lossy(0.1)),
        ("drop 0.3", FaultPlan::lossy(0.3)),
        (
            "drop 0.1 delay 0.2x3",
            FaultPlan::lossy(0.1).with_delay(0.2, 3),
        ),
        (
            "drop 0.3 delay 0.3x3 dup 0.2",
            FaultPlan::lossy(0.3).with_delay(0.3, 3).with_dup(0.2),
        ),
    ]
}

/// One timed solve under `plan`; returns wall seconds and the
/// (deterministic) result.
fn chaos_solve(
    inst: &Instance,
    engine: EngineMode,
    threads: usize,
    plan: FaultPlan,
) -> (f64, SolveResult) {
    let opts = SolveOptions {
        engine,
        sim: SimConfig {
            threads,
            fault: plan,
            max_rounds: MAX_ROUNDS,
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(SEED)
    };
    let start = Instant::now();
    let result = solve(&inst.graph, &inst.lists, opts).expect("chaos solve completes");
    (start.elapsed().as_secs_f64(), result)
}

/// E0e — drop × delay × dup sweep with cross-engine identity witness.
pub fn e0e_chaos(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![128, 256],
        Scale::Full => vec![256, 1024],
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut t = Table::new(
        format!(
            "E0e — chaos sweep, d1lc solve on gnp-window (S1 family) under seeded fault \
             plans, seed {SEED}, max {MAX_ROUNDS} rounds/pass (host cores={cores})",
        ),
        "Proper colorings and byte-identical transcripts under every plan, engine mode, \
         and thread count; repairs absorb what the faulty network loses",
    );
    t.columns([
        "n",
        "plan",
        "threads",
        "wall ms",
        "rounds",
        "repairs",
        "conflicts",
        "dropped",
        "delayed",
        "dup'd",
        "starved",
    ]);
    for n in sizes {
        let inst = workloads::gnp_window(n, SEED);
        for (label, plan) in plans() {
            // Witness arm: the session engine at 1 thread.
            let (_, witness) = chaos_solve(&inst, EngineMode::Session, 1, plan);
            assert_eq!(
                check_coloring(&inst.graph, &inst.lists, &witness.coloring),
                Ok(()),
                "E0e: improper coloring under plan '{label}' at n={n}"
            );
            if !plan.is_active() {
                // An inactive plan must be invisible: bit-for-bit the
                // fault-free engine (same config minus the plan field).
                let baseline = {
                    let opts = SolveOptions {
                        sim: SimConfig {
                            max_rounds: MAX_ROUNDS,
                            ..SimConfig::default()
                        },
                        ..SolveOptions::seeded(SEED)
                    };
                    solve(&inst.graph, &inst.lists, opts).expect("fault-free solve")
                };
                assert_eq!(
                    witness.coloring, baseline.coloring,
                    "E0e: FaultPlan::none() changed the coloring at n={n}"
                );
                assert_eq!(
                    witness.log.passes(),
                    baseline.log.passes(),
                    "E0e: FaultPlan::none() changed the pass log at n={n}"
                );
            }
            let check = |arm: &str, result: &SolveResult| {
                assert_eq!(
                    witness.coloring, result.coloring,
                    "E0e: coloring diverged ({arm}, plan '{label}', n={n})"
                );
                assert_eq!(
                    witness.log.passes(),
                    result.log.passes(),
                    "E0e: pass log diverged ({arm}, plan '{label}', n={n})"
                );
                assert_eq!(
                    witness.stats, result.stats,
                    "E0e: stats diverged ({arm}, plan '{label}', n={n})"
                );
            };
            // Cross-engine identity: the reference plane draws the same
            // fault fates bundle for bundle (one row; it is slow).
            let (_, reference) = chaos_solve(&inst, EngineMode::Reference, 1, plan);
            check("reference t=1", &reference);
            for threads in [1usize, 2, 8] {
                let (wall, result) = chaos_solve(&inst, EngineMode::Session, threads, plan);
                check(&format!("session t={threads}"), &result);
                let faults = result.log.fault_totals();
                t.row([
                    n.to_string(),
                    label.into(),
                    threads.to_string(),
                    f2(wall * 1e3),
                    result.rounds().to_string(),
                    result.stats.repairs.to_string(),
                    result.stats.fault_conflicts.to_string(),
                    faults.dropped.to_string(),
                    faults.delayed.to_string(),
                    faults.duplicated.to_string(),
                    result.log.starved_union().len().to_string(),
                ]);
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
        for window in ps.windows(2) {
            assert_ne!(window[0].1, window[1].1, "duplicate plan in the sweep");
        }
        assert!(ps.iter().any(|(_, p)| p.delay_q > 0), "no delay arm");
        assert!(ps.iter().any(|(_, p)| p.dup_q > 0), "no duplication arm");
    }

    /// A tiny chaos cell runs end to end: proper coloring, faults
    /// actually recorded, and the session/reference arms agree.
    #[test]
    fn chaos_cell_smoke() {
        let inst = workloads::gnp_window(96, SEED);
        let plan = FaultPlan::lossy(0.3).with_delay(0.2, 2);
        let (_, session) = chaos_solve(&inst, EngineMode::Session, 2, plan);
        assert_eq!(
            check_coloring(&inst.graph, &inst.lists, &session.coloring),
            Ok(())
        );
        assert!(session.log.fault_totals().dropped > 0, "no drops recorded");
        let (_, reference) = chaos_solve(&inst, EngineMode::Reference, 1, plan);
        assert_eq!(session.coloring, reference.coloring);
        assert_eq!(session.log.passes(), reference.log.passes());
    }
}
