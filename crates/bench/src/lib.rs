//! Experiment harness for the congest-coloring reproduction.
//!
//! The paper is a theory paper with no empirical evaluation section, so
//! every quantitative claim (Theorem 1, Corollary 1, Lemmas 1–6,
//! Theorems 2–3, the App. D constructions) is operationalized as a
//! runnable [`Scenario`]:
//!
//! * **Table experiments** (`E0e`–`E16c`, modules `exp_*`) — one-off
//!   measurements rendered as a printable [`Table`];
//! * **Ladder sweeps** (`S1`–`S6`, [`scenario::sweep_scenarios`]) — a
//!   declarative graph-family × scale-ladder × algorithm × seed-set ×
//!   thread-count grid ([`sweep::SweepSpec`]) whose measurements are
//!   checked against the paper's asymptotic forms ([`claims`]) and
//!   rendered into the generated `EXPERIMENTS.md` ([`report`]).
//!
//! The `experiments` binary runs any subset by id ([`registry`] lists
//! everything), mirrors results to the `BENCH_*.json` format ([`json`]),
//! and regenerates `EXPERIMENTS.md` (`just experiments-md`). Engine and
//! server speed are not measured here: the standalone `perfbench/`
//! harness (`BENCHMARK.json`) times whole solves, the engine's cost per
//! message and an open-loop server.
//!
//! # Example
//!
//! ```
//! // Every catalog entry is runnable and carries its paper claim.
//! let reg = bench::registry();
//! assert!(reg.iter().any(|s| s.id() == "S1"));
//! for s in reg.iter().filter(|s| s.id() == "E16b") {
//!     let outcome = s.run(bench::Scale::Quick);
//!     assert!(!outcome.table.is_empty());
//! }
//! ```

#![warn(missing_docs)]

pub mod claims;
pub mod exp_ablation;
pub mod exp_acd;
pub mod exp_adversary;
pub mod exp_coloring;
pub mod exp_estimate;
pub mod exp_hash;
pub mod json;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod table;
pub mod workloads;

pub use scenario::{registry, Scenario, ScenarioOutcome};
pub use table::Table;
pub use workloads::Scale;

/// A table experiment runner: builds its workload at the given [`Scale`]
/// and returns a printable [`Table`].
pub type Experiment = fn(Scale) -> Table;
