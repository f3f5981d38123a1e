//! E0f — ownership-sharding sweep: the owner/ghost session engine
//! across shard counts {1, 2, 4, 8} × threads {1, 2, 8}.
//!
//! PR 8 partitions the session engine by ownership: each worker owns a
//! contiguous node range plus read-only ghost state for cross-shard
//! neighbors, cross-shard bundles travel through one explicit exchange
//! phase per round, and the per-round barrier budget drops from the
//! legacy 4 waits to 2. E0f sweeps the shard × thread grid over the S1
//! gnp-window workload and reports wall time, rounds, and the measured
//! barrier waits per round.
//!
//! The run **asserts**, before any timing:
//!
//! * every sharded solve is **byte-identical** to the unsharded
//!   single-thread anchor — same proper coloring, same pass log, same
//!   stats — for every (shards, threads) cell;
//! * every pooled cell spends **≤ 2 barrier waits per round** (the
//!   tentpole budget; sequential cells spend 0).
//!
//! Wall-clock caveat: on a 1-core host (the committed snapshots so
//! far), threads > 1 only add synchronization overhead — the sweep
//! records those numbers honestly rather than hiding them; the host
//! core count is in the table title.
//!
//! `BENCH_8.json` at the repo root is the committed full-scale snapshot.

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f2, Table};
use crate::workloads::{self, Instance, Scale};
use congest::{Ctx, Message, Program, Session, SimConfig};
use d1lc::{solve, EngineMode, SolveOptions, SolveResult};
use graphs::palette::check_coloring;
use std::time::Instant;

/// Registry entries for this module (E0f).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![TableScenario::boxed(
        "E0f",
        "Ownership-sharding sweep: owner/ghost session engine over shards × threads",
        "Every sharded solve is byte-identical to the unsharded anchor (proper coloring, \
         same pass log) for shards {1, 2, 4, 8} × threads {1, 2, 8}; pooled cells spend \
         at most 2 barrier waits per round vs the legacy 4; wall numbers are honest \
         1-core measurements when the host has 1 core",
        e0f_sharding,
    )]
}

/// Solve seed (a member of the S1 sweep's seed set, matching E0e).
pub const SEED: u64 = 1;

/// The swept shard and thread counts.
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 3] = [1, 2, 8];

/// One timed solve at the given shard geometry; deterministic.
fn sharded_solve(inst: &Instance, shards: usize, threads: usize) -> (f64, SolveResult) {
    let opts = SolveOptions {
        engine: EngineMode::Session,
        sim: SimConfig {
            threads,
            shards,
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(SEED)
    };
    let start = Instant::now();
    let result = solve(&inst.graph, &inst.lists, opts).expect("sharded solve completes");
    (start.elapsed().as_secs_f64(), result)
}

/// Broadcast heartbeat used to measure the engine's barrier budget.
#[derive(Clone, PartialEq, Debug)]
struct Beat(u32);

impl Message for Beat {
    fn bit_cost(&self) -> u64 {
        24
    }
}

/// Broadcasts every round for a fixed number of rounds, then halts.
struct Flood {
    rounds: u64,
    done: bool,
}

impl Program for Flood {
    type Msg = Beat;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Beat>) {
        if ctx.round() >= self.rounds {
            self.done = true;
            return;
        }
        ctx.broadcast(Beat(ctx.id()));
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

/// Measured barrier waits per round of a clean engine pass at the given
/// geometry (0 on the sequential path, 2 on the pooled owner/ghost
/// protocol — asserted ≤ 2, the tentpole budget).
fn waits_per_round(inst: &Instance, shards: usize, threads: usize) -> f64 {
    let cfg = SimConfig {
        threads,
        shards,
        ..SimConfig::default()
    };
    let mut session: Session<'_, Beat> = Session::new(&inst.graph, cfg);
    let mut programs: Vec<Flood> = (0..inst.graph.n())
        .map(|_| Flood {
            rounds: 16,
            done: false,
        })
        .collect();
    session.run(&mut programs, SEED).expect("flood pass");
    let audit = session.barrier_audit();
    assert!(audit.rounds > 0, "E0f: empty audit");
    assert!(
        audit.round_waits <= 2 * audit.rounds,
        "E0f: barrier budget blown at shards={shards} threads={threads}: \
         {} waits over {} rounds",
        audit.round_waits,
        audit.rounds
    );
    audit.round_waits as f64 / audit.rounds as f64
}

/// E0f — shard × thread sweep with unsharded identity witness.
pub fn e0f_sharding(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![128, 256],
        Scale::Full => vec![256, 1024, 4096],
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut t = Table::new(
        format!(
            "E0f — ownership-sharding sweep, d1lc solve on gnp-window (S1 family), \
             owner/ghost session engine, seed {SEED} (host cores={cores})",
        ),
        "Byte-identical transcripts across every shard × thread cell; ≤2 barrier waits \
         per round on pooled cells (legacy engines: 4); 1-core hosts record the threads>1 \
         overhead honestly",
    );
    t.columns([
        "n",
        "shards",
        "threads",
        "wall ms",
        "rounds",
        "colors",
        "waits/round",
    ]);
    for n in sizes {
        let inst = workloads::gnp_window(n, SEED);
        // Witness arm: the unsharded sequential engine.
        let (_, witness) = sharded_solve(&inst, 0, 1);
        assert_eq!(
            check_coloring(&inst.graph, &inst.lists, &witness.coloring),
            Ok(()),
            "E0f: improper witness coloring at n={n}"
        );
        for shards in SHARDS {
            for threads in THREADS {
                let (wall, result) = sharded_solve(&inst, shards, threads);
                assert_eq!(
                    witness.coloring, result.coloring,
                    "E0f: coloring diverged (shards={shards}, threads={threads}, n={n})"
                );
                assert_eq!(
                    witness.log.passes(),
                    result.log.passes(),
                    "E0f: pass log diverged (shards={shards}, threads={threads}, n={n})"
                );
                assert_eq!(
                    witness.stats, result.stats,
                    "E0f: stats diverged (shards={shards}, threads={threads}, n={n})"
                );
                let waits = waits_per_round(&inst, shards, threads);
                let colors = result
                    .coloring
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .len();
                t.row([
                    n.to_string(),
                    shards.to_string(),
                    threads.to_string(),
                    f2(wall * 1e3),
                    result.rounds().to_string(),
                    colors.to_string(),
                    f2(waits),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny sharding cell runs end to end: identical coloring across
    /// geometries and the barrier budget holds.
    #[test]
    fn sharding_cell_smoke() {
        let inst = workloads::gnp_window(96, SEED);
        let (_, anchor) = sharded_solve(&inst, 0, 1);
        assert_eq!(
            check_coloring(&inst.graph, &inst.lists, &anchor.coloring),
            Ok(())
        );
        let (_, sharded) = sharded_solve(&inst, 4, 2);
        assert_eq!(anchor.coloring, sharded.coloring);
        assert_eq!(anchor.log.passes(), sharded.log.passes());
        // Sequential path: no barrier waits, whatever the shard count.
        assert_eq!(waits_per_round(&inst, 4, 1), 0.0);
        // Pooled path: exactly 2 per round.
        assert_eq!(waits_per_round(&inst, 4, 2), 2.0);
    }
}
