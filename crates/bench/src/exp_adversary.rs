//! E0e–E0h — the adversary grid: full pipeline solves under seeded
//! message faults, ownership sharding, node crashes and hostile
//! schedules.
//!
//! The paper analyses its algorithms in synchronous, fault-free
//! CONGEST, so these four tables make one claim: an adversary may cost
//! rounds, repairs or pulses, but never a proper coloring, and never a
//! transcript that depends on the engine or its geometry. Each table is
//! one static `Spec`: a list of `Arm`s (a [`FaultPlan`] and a
//! [`SchedulePlan`]) crossed with a list of `(shards, threads)` cells,
//! on the S1 gnp-window family at solve seed [`SEED`].
//!
//! * **E0e**, faults: drop × delay × dup plans, threads {1, 2, 8} at the
//!   default shard count. It prints rounds, central repairs, the
//!   fault-induced conflicts the pre-repair sweep broke, and the raw
//!   fault counters (DESIGN.md §8).
//! * **E0f**, sharding: the fault-free solve over shards {1, 2, 4, 8} ×
//!   threads {1, 2, 8}, with the owner/ghost engine's measured barrier
//!   waits per round, asserted ≤ 2 (DESIGN.md §9).
//! * **E0g**, crashes: crash-stop and crash-recovery plans, one composed
//!   with message loss, over the same 12 cells. Crashed nodes are
//!   quarantined and recolored (DESIGN.md §10).
//! * **E0h**, schedules: jitter, skewed-start, straggler, anti-FIFO and
//!   burst adversaries through the α-synchronizer, one composed with
//!   message loss, over the same 12 cells (DESIGN.md §11). A wedged arm
//!   must fail loud with the non-transient [`SimError::ScheduleStalled`].
//!
//! Per size and arm, one assertion block runs before any row prints:
//!
//! * the witness (session engine, 1 shard, 1 thread) is a proper
//!   coloring;
//! * an inactive arm is bit for bit a solve with a default `SimConfig`;
//! * the reference engine equals the witness (coloring, stats and pass
//!   log). It ignores the schedule, so the synchronizer's counters are
//!   masked when the arm's schedule is active;
//! * every asserted session cell equals the witness unmasked, so the
//!   synchronizer's counters are geometry-invariant too.
//!
//! Wall-clock columns measure the host, whose core count is in each
//! title: on one core, threads > 1 only add synchronization overhead.
//! Pulses and waits are simulated asynchrony on a round-synchronous
//! engine, not a network's latency.

use crate::scenario::{Scenario, ScenarioOutcome};
use crate::table::{f2, Table};
use crate::workloads::{self, Instance, Scale};
use congest::{
    Ctx, FaultPlan, Message, PassRecord, Program, ScheduleCounters, SchedulePlan, Session,
    SimConfig, SimError,
};
use d1lc::{solve, EngineMode, SolveOptions, SolveResult};
use graphs::palette::check_coloring;
use std::collections::HashSet;
use std::time::Instant;

/// Solve seed of every table (a member of the S1 sweep's seed set).
pub const SEED: u64 = 1;

/// Watchdog patience of every completing E0h arm: far above any wait
/// the swept adversaries produce, so the watchdog is armed but quiet.
const PATIENCE: u32 = 64;

/// The `(shards, threads)` cells of the 4 × 3 grid that E0g and E0h
/// print.
const TIMED: [(usize, usize); 4] = [(1, 1), (2, 2), (4, 8), (8, 8)];

/// One adversary: message faults and crash fates, plus a schedule run
/// through the α-synchronizer. Either may be inactive.
#[derive(Clone, Copy, Debug)]
struct Arm {
    label: &'static str,
    fault: FaultPlan,
    sched: SchedulePlan,
}

impl Arm {
    /// An inactive arm must be invisible: bit for bit the default engine.
    fn is_active(&self) -> bool {
        self.fault.is_active() || self.sched.is_active()
    }
}

fn arm(label: &'static str, fault: FaultPlan, sched: SchedulePlan) -> Arm {
    Arm {
        label,
        fault,
        sched,
    }
}

/// One table of the grid: what it sweeps, asserts and prints.
struct Spec {
    id: &'static str,
    /// Registry title.
    title: &'static str,
    /// Registry claim.
    claim: &'static str,
    /// Table title, before the seed, round cap and patience.
    heading: &'static str,
    /// The table's claim line.
    caption: &'static str,
    quick: &'static [usize],
    full: &'static [usize],
    /// Per-pass round cap; `None` keeps `SimConfig`'s default.
    max_rounds: Option<u64>,
    /// The swept arms, the inactive one first.
    arms: fn() -> Vec<Arm>,
    /// Shard and thread counts whose every pair is a session cell
    /// asserted equal to the witness (shards 0: the default count).
    shards: &'static [usize],
    threads: &'static [usize],
    /// The `(shards, threads)` cells that get a row; `None` prints all.
    printed: Option<&'static [(usize, usize)]>,
    /// A printed cell's row.
    row: fn(&Cell<'_>) -> Row,
    /// Whether each size ends with [`wedged_arm`]'s row.
    wedged: bool,
}

/// E0e, message faults. Heavily faulted passes stall waiting for lost
/// replies: the cap bounds them, and the repair sweep recovers.
const E0E: Spec = Spec {
    id: "E0e",
    title: "Chaos sweep: pipeline solves under deterministic fault injection",
    claim: "Every faulty solve stays a proper coloring and is byte-identical across engine \
            modes and threads {1, 2, 8}; FaultPlan::none() reproduces the fault-free solve \
            bit for bit; rounds/repairs degrade gracefully as drop/delay/dup rates rise",
    heading: "chaos sweep, d1lc solve on gnp-window (S1 family) under seeded fault plans",
    caption: "Proper colorings and byte-identical transcripts under every plan, engine mode, \
              and thread count; repairs absorb what the faulty network loses",
    quick: &[128, 256],
    full: &[256, 1024],
    max_rounds: Some(400),
    arms: fault_arms,
    shards: &[0],
    threads: &[1, 2, 8],
    printed: None,
    row: fault_row,
    wedged: false,
};

/// E0g, crashes. Crash-stopped nodes never report done, so their passes
/// run to the cap, and the repair sweep recolors the quarantined nodes.
const E0G: Spec = Spec {
    id: "E0g",
    title: "Crash-chaos sweep: crash-stop/crash-recovery nodes under the full pipeline",
    claim: "Every crashed solve ends in a proper coloring (quarantine-and-recolor) and is \
            byte-identical across engine modes, shards {1, 2, 4, 8}, and threads {1, 2, 8}; \
            a plan without crash fates reproduces the fault-free solve bit for bit; rounds \
            and central repairs degrade gracefully as the crash rate rises",
    heading: "crash-chaos sweep, d1lc solve on gnp-window (S1 family) under seeded crash fates",
    caption: "Proper colorings and byte-identical transcripts under every crash plan, engine \
              mode, shard count, and thread count; quarantine-and-recolor absorbs what the \
              crashes take down",
    quick: &[128, 256],
    full: &[256, 1024],
    max_rounds: Some(256),
    arms: crash_arms,
    shards: &[1, 2, 4, 8],
    threads: &[1, 2, 8],
    printed: Some(&TIMED),
    row: crash_row,
    wedged: false,
};

/// E0h, schedules, under E0g's cap so that the composed arm's losses
/// are bounded alike.
const E0H: Spec = Spec {
    id: "E0h",
    title: "Async-schedule sweep: hostile schedules through the α-synchronizer",
    claim: "Every adversarial solve is a proper coloring byte-identical to the synchronous \
            engine across engine modes, shards {1, 2, 4, 8}, and threads {1, 2, 8}; the \
            synchronizer's overhead (pulses/round, sync bits, waits, reorderings) is \
            geometry-invariant and honestly counted; SchedulePlan::none() reproduces the \
            synchronous solve bit for bit; a schedule that out-waits the watchdog fails \
            loud with the non-transient ScheduleStalled, never silently wrong",
    heading: "async-schedule sweep, d1lc solve on gnp-window (S1 family) through the \
              α-synchronizer",
    caption: "Hostile schedules change when, never what: colorings and transcripts match the \
              synchronous engine byte for byte, the synchronizer's overhead is counted \
              honestly, and a wedged schedule fails loud",
    quick: &[128, 256],
    full: &[256, 1024],
    max_rounds: Some(256),
    arms: schedule_arms,
    shards: &[1, 2, 4, 8],
    threads: &[1, 2, 8],
    printed: Some(&TIMED),
    row: schedule_row,
    wedged: true,
};

/// E0f, sharding: the fault-free solve under `SimConfig`'s default cap.
const E0F: Spec = Spec {
    id: "E0f",
    title: "Ownership-sharding sweep: owner/ghost session engine over shards × threads",
    claim: "Every sharded solve is byte-identical to the unsharded anchor (proper coloring, \
            same pass log) for shards {1, 2, 4, 8} × threads {1, 2, 8}; pooled cells spend \
            at most 2 barrier waits per round vs the legacy 4; wall numbers are honest \
            1-core measurements when the host has 1 core",
    heading: "ownership-sharding sweep, d1lc solve on gnp-window (S1 family), owner/ghost \
              session engine",
    caption: "Byte-identical transcripts across every shard × thread cell; ≤2 barrier waits \
              per round on pooled cells (legacy engines: 4); 1-core hosts record the threads>1 \
              overhead honestly",
    quick: &[128, 256],
    full: &[256, 1024, 4096],
    max_rounds: None,
    arms: fault_free,
    shards: &[1, 2, 4, 8],
    threads: &[1, 2, 8],
    printed: None,
    row: sharding_row,
    wedged: false,
};

/// The tables in catalog order.
const SPECS: [Spec; 4] = [E0E, E0G, E0H, E0F];

/// Registry entries for this module (E0e, E0g, E0h, E0f).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    SPECS
        .into_iter()
        .map(|spec| Box::new(spec) as Box<dyn Scenario>)
        .collect()
}

impl Scenario for Spec {
    fn id(&self) -> &'static str {
        self.id
    }
    fn title(&self) -> &'static str {
        self.title
    }
    fn claim(&self) -> &'static str {
        self.claim
    }
    fn run(&self, scale: Scale) -> ScenarioOutcome {
        ScenarioOutcome {
            table: run_table(self, scale),
            sweep: None,
        }
    }
}

/// E0e's fault plans, mildest to harshest.
fn fault_arms() -> Vec<Arm> {
    let f = |label, fault| arm(label, fault, SchedulePlan::none());
    vec![
        f("none", FaultPlan::none()),
        f("drop 0.1", FaultPlan::lossy(0.1)),
        f("drop 0.3", FaultPlan::lossy(0.3)),
        f(
            "drop 0.1 delay 0.2x3",
            FaultPlan::lossy(0.1).with_delay(0.2, 3),
        ),
        f(
            "drop 0.3 delay 0.3x3 dup 0.2",
            FaultPlan::lossy(0.3).with_delay(0.3, 3).with_dup(0.2),
        ),
    ]
}

/// E0f's single, inactive arm.
fn fault_free() -> Vec<Arm> {
    vec![arm("none", FaultPlan::none(), SchedulePlan::none())]
}

/// E0g's crash plans, mildest to harshest.
fn crash_arms() -> Vec<Arm> {
    let f = |label, fault| arm(label, fault, SchedulePlan::none());
    vec![
        f("none", FaultPlan::none()),
        f(
            "crash 0.002 rec 4",
            FaultPlan::none().with_crashes(0.002, 4),
        ),
        f("crash 0.01 rec 2", FaultPlan::none().with_crashes(0.01, 2)),
        f("crash 0.01 stop", FaultPlan::none().with_crashes(0.01, 0)),
        f(
            "crash 0.005 rec 2 drop 0.2",
            FaultPlan::lossy(0.2).with_crashes(0.005, 2),
        ),
    ]
}

/// E0h's schedule plans, mildest to harshest, the last composed with
/// message loss.
fn schedule_arms() -> Vec<Arm> {
    let s =
        |label, sched: SchedulePlan| arm(label, FaultPlan::none(), sched.with_patience(PATIENCE));
    vec![
        arm("sync", FaultPlan::none(), SchedulePlan::none()),
        s("jitter 0.2 max 3", SchedulePlan::jittery(0.2, 3)),
        s(
            "jitter 0.5 max 4 spread 4",
            SchedulePlan::jittery(0.5, 4).with_start_spread(4),
        ),
        s(
            "straggler 0.05 lag 6",
            SchedulePlan::none().with_stragglers(0.05, 6),
        ),
        s(
            "anti-FIFO 0.3 win 4",
            SchedulePlan::none().with_antififo(0.3, 4),
        ),
        s(
            "burst 0.05 max 4",
            SchedulePlan::none().with_bursts(0.05, 4),
        ),
        arm(
            "jitter 0.3 max 3 + drop 0.1",
            FaultPlan::lossy(0.1).with_delay(0.2, 3),
            SchedulePlan::jittery(0.3, 3).with_patience(PATIENCE),
        ),
    ]
}

/// E0h's wedged arm: a certain 6-pulse burst against 2 pulses of
/// patience stalls every run, deterministically.
fn wedged_arm() -> Arm {
    arm(
        "burst 1.0 max 6 patience 2 (wedged)",
        FaultPlan::none(),
        SchedulePlan::none().with_bursts(1.0, 6).with_patience(2),
    )
}

/// `SimConfig`'s defaults under a table's round cap.
fn capped(max_rounds: Option<u64>) -> SimConfig {
    let base = SimConfig::default();
    SimConfig {
        max_rounds: max_rounds.unwrap_or(base.max_rounds),
        ..base
    }
}

/// One timed solve under `arm` at the given geometry; returns wall
/// seconds and the (deterministic) result.
fn adversary_solve(
    inst: &Instance,
    engine: EngineMode,
    (shards, threads): (usize, usize),
    arm: &Arm,
    max_rounds: Option<u64>,
) -> (f64, Result<SolveResult, SimError>) {
    let opts = SolveOptions {
        engine,
        sim: SimConfig {
            threads,
            shards,
            fault: arm.fault,
            sched: arm.sched,
            ..capped(max_rounds)
        },
        ..SolveOptions::seeded(SEED)
    };
    let start = Instant::now();
    let result = solve(&inst.graph, &inst.lists, opts);
    (start.elapsed().as_secs_f64(), result)
}

/// Asserts that `got` reproduces `want` bit for bit: coloring, stats
/// and pass log, the latter with the synchronizer's overhead counters
/// masked when `mask_sched` is set.
fn assert_same(want: &SolveResult, got: &SolveResult, mask_sched: bool, what: &str) {
    let passes = |r: &SolveResult| -> Vec<PassRecord> {
        let mut passes = r.log.passes().to_vec();
        if mask_sched {
            passes
                .iter_mut()
                .for_each(|p| p.report.sched = ScheduleCounters::default());
        }
        passes
    };
    assert_eq!(want.coloring, got.coloring, "{what}: coloring diverged");
    assert_eq!(want.stats, got.stats, "{what}: stats diverged");
    assert_eq!(passes(want), passes(got), "{what}: pass log diverged");
}

/// Runs one table: per size and arm, the assertion block, then every
/// asserted cell, printing the `printed` ones.
fn run_table(spec: &Spec, scale: Scale) -> Table {
    let arms = (spec.arms)();
    let cap = spec
        .max_rounds
        .map_or(String::new(), |m| format!(", max {m} rounds/pass"));
    // E0h's title names the watchdog patience its arms share.
    let patience = match arms.iter().map(|a| a.sched.patience).max() {
        Some(p) if p > 0 => format!(", patience {p}"),
        _ => String::new(),
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut t = Table::new(
        format!(
            "{} — {}, seed {SEED}{cap}{patience} (host cores={cores})",
            spec.id, spec.heading
        ),
        spec.caption,
    );
    let sizes = match scale {
        Scale::Quick => spec.quick,
        Scale::Full => spec.full,
    };
    for &n in sizes {
        let inst = workloads::gnp_window(n, SEED);
        for arm in &arms {
            let at = |what: &str| format!("{}: {what}, plan '{}', n={n}", spec.id, arm.label);
            let run = |engine, cell| {
                let (wall, result) = adversary_solve(&inst, engine, cell, arm, spec.max_rounds);
                let result = result.unwrap_or_else(|e| panic!("{}: {e}", at("solve failed")));
                (wall, result)
            };
            let (_, witness) = run(EngineMode::Session, (1, 1));
            let proper = check_coloring(&inst.graph, &inst.lists, &witness.coloring);
            assert_eq!(proper, Ok(()), "{}", at("improper coloring"));
            if !arm.is_active() {
                let opts = SolveOptions {
                    sim: capped(spec.max_rounds),
                    ..SolveOptions::seeded(SEED)
                };
                let baseline = solve(&inst.graph, &inst.lists, opts).expect("default solve");
                assert_same(&baseline, &witness, false, &at("inactive arm"));
            }
            let (_, reference) = run(EngineMode::Reference, (1, 1));
            let masked = arm.sched.is_active();
            assert_same(&witness, &reference, masked, &at("reference"));
            for &shards in spec.shards {
                for &threads in spec.threads {
                    let (wall, result) = run(EngineMode::Session, (shards, threads));
                    let cell = format!("session s={shards} t={threads}");
                    assert_same(&witness, &result, false, &at(&cell));
                    if spec.printed.is_none_or(|p| p.contains(&(shards, threads))) {
                        push_row(
                            &mut t,
                            (spec.row)(&Cell {
                                inst: &inst,
                                arm,
                                shards,
                                threads,
                                wall,
                                result: &result,
                            }),
                        );
                    }
                }
            }
        }
        if spec.wedged {
            push_row(&mut t, wedged_row(&inst));
        }
    }
    t
}

/// A table row, each cell named by its column.
type Row = Vec<(&'static str, String)>;

/// Appends a row of named cells: the first row sets the table's
/// columns, and every later row must name the same ones in order.
fn push_row(t: &mut Table, cells: Row) {
    let names: Vec<&str> = cells.iter().map(|(name, _)| *name).collect();
    if t.is_empty() {
        t.columns(names);
    } else {
        assert_eq!(t.column_names(), names, "{}: columns moved", t.title());
    }
    t.row(cells.into_iter().map(|(_, cell)| cell));
}

/// One printed cell: the solve and the geometry it ran at.
struct Cell<'a> {
    inst: &'a Instance,
    arm: &'a Arm,
    shards: usize,
    threads: usize,
    wall: f64,
    result: &'a SolveResult,
}

/// E0e: rounds, repairs, fault conflicts and the raw fault counters.
fn fault_row(c: &Cell<'_>) -> Row {
    let r = c.result;
    let faults = r.log.fault_totals();
    vec![
        ("n", c.inst.graph.n().to_string()),
        ("plan", c.arm.label.into()),
        ("threads", c.threads.to_string()),
        ("wall ms", f2(c.wall * 1e3)),
        ("rounds", r.rounds().to_string()),
        ("repairs", r.stats.repairs.to_string()),
        ("conflicts", r.stats.fault_conflicts.to_string()),
        ("dropped", faults.dropped.to_string()),
        ("delayed", faults.delayed.to_string()),
        ("dup'd", faults.duplicated.to_string()),
        ("starved", r.log.starved_union().len().to_string()),
    ]
}

/// E0f: colors used, and the barrier audit (asserted ≤ 2 waits per
/// round).
fn sharding_row(c: &Cell<'_>) -> Row {
    let colors = c.result.coloring.iter().collect::<HashSet<_>>().len();
    let waits = waits_per_round(c.inst, c.shards, c.threads);
    vec![
        ("n", c.inst.graph.n().to_string()),
        ("shards", c.shards.to_string()),
        ("threads", c.threads.to_string()),
        ("wall ms", f2(c.wall * 1e3)),
        ("rounds", c.result.rounds().to_string()),
        ("colors", colors.to_string()),
        ("waits/round", f2(waits)),
    ]
}

/// E0g: crash events, crashed and quarantined nodes, repairs.
fn crash_row(c: &Cell<'_>) -> Row {
    let r = c.result;
    let faults = r.log.fault_totals();
    vec![
        ("n", c.inst.graph.n().to_string()),
        ("plan", c.arm.label.into()),
        ("shards", c.shards.to_string()),
        ("threads", c.threads.to_string()),
        ("wall ms", f2(c.wall * 1e3)),
        ("rounds", r.rounds().to_string()),
        ("crashes", faults.crashes.to_string()),
        ("crashed", r.log.crashed_union().len().to_string()),
        ("quarantined", r.stats.quarantined.to_string()),
        ("repairs", r.stats.repairs.to_string()),
        ("dropped", faults.dropped.to_string()),
        ("starved", r.log.starved_union().len().to_string()),
    ]
}

/// E0h: the synchronizer's overhead ("-" per round when it is off).
fn schedule_row(c: &Cell<'_>) -> Row {
    let r = c.result;
    let overhead = r.log.sched_totals();
    let per_round = |x: u64| {
        if overhead.any() {
            f2(x as f64 / r.rounds().max(1) as f64)
        } else {
            "-".into()
        }
    };
    vec![
        ("n", c.inst.graph.n().to_string()),
        ("plan", c.arm.label.into()),
        ("shards", c.shards.to_string()),
        ("threads", c.threads.to_string()),
        ("wall ms", f2(c.wall * 1e3)),
        ("rounds", r.rounds().to_string()),
        ("pulses", overhead.pulses.to_string()),
        ("pulses/round", per_round(overhead.pulses)),
        ("sync bits/round", per_round(overhead.sync_bits)),
        ("max wait", overhead.max_wait.to_string()),
        ("reordered", overhead.reordered.to_string()),
    ]
}

/// E0h's wedged arm at one shard and thread: it must fail loud, never
/// finish silently wrong.
fn wedged_row(inst: &Instance) -> Row {
    let (wall, err) = wedged_solve(inst, (1, 1));
    let SimError::ScheduleStalled { round, waited, .. } = err else {
        unreachable!("wedged_solve checks the variant")
    };
    let dash = || "-".to_string();
    vec![
        ("n", inst.graph.n().to_string()),
        ("plan", wedged_arm().label.into()),
        ("shards", "1".into()),
        ("threads", "1".into()),
        ("wall ms", f2(wall * 1e3)),
        ("rounds", format!("stalled@{round}")),
        ("pulses", dash()),
        ("pulses/round", dash()),
        ("sync bits/round", dash()),
        ("max wait", waited.to_string()),
        ("reordered", dash()),
    ]
}

/// Runs the wedged arm at one geometry and asserts that it fails with
/// `ScheduleStalled`, classified non-transient: the schedule is a pure
/// function of the seed and the plan, so a retry would stall again.
fn wedged_solve(inst: &Instance, cell: (usize, usize)) -> (f64, SimError) {
    let arm = wedged_arm();
    let (wall, result) = adversary_solve(inst, EngineMode::Session, cell, &arm, E0H.max_rounds);
    let err = result.expect_err("a 6-pulse burst must trip a 2-pulse watchdog");
    assert!(
        matches!(err, SimError::ScheduleStalled { .. }),
        "expected ScheduleStalled, got {err:?}"
    );
    assert!(!err.is_transient(), "a wedged schedule must not be retried");
    (wall, err)
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
/// geometry: 0 when one worker runs the loop, 2 on the pooled
/// owner/ghost protocol, asserted ≤ 2.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every table starts with the exact no-op arm, sweeps distinct
    /// active arms over the axes its claim names, and prints only cells
    /// it asserts.
    #[test]
    fn arms_cover_each_tables_axes() {
        for spec in &SPECS {
            let arms = (spec.arms)();
            let id = spec.id;
            let plans = |a: &Arm| (a.fault, a.sched);
            assert_eq!(plans(&arms[0]), (FaultPlan::none(), SchedulePlan::none()));
            assert!(arms[1..].iter().all(Arm::is_active), "{id}: inactive arm");
            for w in arms.windows(2) {
                assert_ne!(plans(&w[0]), plans(&w[1]), "{id}: duplicate arm");
            }
            for (shards, threads) in spec.printed.unwrap_or_default() {
                assert!(spec.shards.contains(shards) && spec.threads.contains(threads));
            }
        }
        let some = |spec: &Spec, axis: fn(&Arm) -> bool| (spec.arms)().iter().any(axis);
        let every = |spec: &Spec, axis: fn(&Arm) -> bool| (spec.arms)()[1..].iter().all(axis);
        assert!(some(&E0E, |a| a.fault.delay_q > 0), "E0e: no delay arm");
        assert!(some(&E0E, |a| a.fault.dup_q > 0), "E0e: no duplication arm");
        assert!(every(&E0G, |a| a.fault.crash_q > 0), "E0g: crash-free arm");
        let stop = |a: &Arm| a.fault.crash_q > 0 && a.fault.crash_recovery == 0;
        let recovery = |a: &Arm| a.fault.crash_q > 0 && a.fault.crash_recovery > 0;
        assert!(some(&E0G, stop), "E0g: no crash-stop arm");
        assert!(some(&E0G, recovery), "E0g: no crash-recovery arm");
        assert!(some(&E0G, |a| a.fault.crash_q > 0 && a.fault.drop_q > 0));
        let patient = |a: &Arm| a.sched.is_active() && a.sched.patience == PATIENCE;
        assert!(every(&E0H, patient), "E0h: arm without the watchdog");
        assert!(some(&E0H, |a| a.sched.jitter_q > 0), "E0h: no jitter arm");
        assert!(some(&E0H, |a| a.sched.start_spread > 0), "E0h: no skew");
        assert!(some(&E0H, |a| a.sched.straggler_q > 0));
        assert!(some(&E0H, |a| a.sched.antififo_q > 0));
        assert!(some(&E0H, |a| a.sched.burst_q > 0), "E0h: no burst arm");
        assert!(some(&E0H, |a| a.sched.is_active() && a.fault.is_active()));
        assert_eq!((E0E.shards, E0E.threads), (&[0][..], &[1, 2, 8][..]));
        let grid = (&[1, 2, 4, 8][..], &[1, 2, 8][..]);
        for spec in [&E0F, &E0G, &E0H] {
            assert_eq!((spec.shards, spec.threads), grid, "{}", spec.id);
        }
    }

    /// One arm of each adversary at n = 96: a proper coloring, drops,
    /// crashes and extra pulses recorded exactly when the arm injects
    /// them, and a 4-shard, 2-thread session equal to the 1-shard
    /// witness and to the reference engine.
    #[test]
    fn adversary_cells_match_the_witness_and_reference() {
        let inst = workloads::gnp_window(96, SEED);
        let arms = [
            fault_free()[0],
            fault_arms()[4],
            crash_arms()[2],
            schedule_arms()[2],
        ];
        for arm in arms {
            let label = arm.label;
            let run = |engine, cell| {
                let (_, result) = adversary_solve(&inst, engine, cell, &arm, E0G.max_rounds);
                result.expect("adversary solve completes")
            };
            let session = run(EngineMode::Session, (4, 2));
            let proper = check_coloring(&inst.graph, &inst.lists, &session.coloring);
            assert_eq!(proper, Ok(()), "{label}");
            let faults = session.log.fault_totals();
            let overhead = session.log.sched_totals();
            let (crashing, scheduled) = (arm.fault.crash_q > 0, arm.sched.is_active());
            assert!(arm.fault.drop_q == 0 || faults.dropped > 0, "{label}");
            assert_eq!(faults.crashes > 0, crashing, "{label}");
            assert_eq!(!session.log.crashed_union().is_empty(), crashing);
            assert_eq!(overhead.sync_bits > 0, scheduled, "{label}");
            assert_eq!(overhead.pulses > session.rounds(), scheduled);
            assert_same(&run(EngineMode::Session, (1, 1)), &session, false, label);
            let reference = run(EngineMode::Reference, (1, 1));
            assert_same(&session, &reference, scheduled, label);
            assert!(!reference.log.sched_totals().any(), "{label}: reference");
        }
    }

    /// One worker runs the round loop without barriers; the pooled
    /// owner/ghost protocol waits exactly twice per round.
    #[test]
    fn barrier_audit_reads_zero_alone_and_two_pooled() {
        let inst = workloads::gnp_window(96, SEED);
        assert_eq!(waits_per_round(&inst, 4, 1), 0.0);
        assert_eq!(waits_per_round(&inst, 4, 2), 2.0);
    }

    /// The wedged arm stalls loud and non-transient, with the same error
    /// at one shard and thread as at eight of each.
    #[test]
    fn wedged_arm_stalls_loud() {
        let inst = workloads::gnp_window(64, SEED);
        let stall = |cell| wedged_solve(&inst, cell).1.to_string();
        assert_eq!(stall((1, 1)), stall((8, 8)), "stall depends on geometry");
    }
}
