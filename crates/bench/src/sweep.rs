//! The sweep driver: runs a scenario's algorithm over a scale ladder ×
//! seed set and collects per-cell measurements.
//!
//! One *cell* is one `(n, seed)` run. For each cell the driver records
//! CONGEST rounds, bandwidth-normalized rounds at the cell's `O(log n)`
//! budget, the [`congest::LoadProfile`] maximum and percentiles of the
//! per-round edge loads, wall-clock time, and the per-phase round
//! breakdown the pipeline's [`d1lc::driver::Driver::begin_phase`] hooks
//! expose.
//! Aggregated per-`n` means then feed the claim checker
//! ([`crate::claims`]) and the report emitter ([`crate::report`]).

use crate::claims::{check_growth, ClaimCheck, Form};
use crate::workloads::{Instance, Scale};
use congest::SimConfig;
use d1lc::{solve, solve_random_trial, ParamProfile, SolveOptions, SolveResult};
use std::time::Instant;

/// Multiplier on `log2(n)` bits used as the per-edge bandwidth budget
/// when normalizing rounds (`B = SimConfig::congest_bits(n, 2)`).
pub const BANDWIDTH_MULTIPLIER: u64 = 2;

/// Which solver a sweep scenario drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The full Theorem 1 pipeline ([`d1lc::solve`]).
    Pipeline,
    /// The pipeline with §5's uniform MultiTrial and ACD
    /// ([`d1lc::ParamProfile::uniform`]).
    UniformPipeline,
    /// The classical `O(log n)` random-trial baseline
    /// ([`d1lc::solve_random_trial`]).
    Baseline,
}

impl Algorithm {
    /// Stable label used in JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Pipeline => "d1lc-pipeline",
            Algorithm::UniformPipeline => "d1lc-pipeline-uniform",
            Algorithm::Baseline => "random-trial-baseline",
        }
    }

    fn run(self, inst: &Instance, seed: u64, threads: usize) -> SolveResult {
        let opts = SolveOptions {
            profile: ParamProfile {
                uniform: self == Algorithm::UniformPipeline,
                ..ParamProfile::laptop()
            },
            sim: SimConfig {
                threads,
                ..SimConfig::default()
            },
            ..SolveOptions::seeded(seed)
        };
        match self {
            Algorithm::Baseline => {
                solve_random_trial(&inst.graph, &inst.lists, opts).expect("baseline solve")
            }
            _ => solve(&inst.graph, &inst.lists, opts).expect("pipeline solve"),
        }
    }
}

/// A metric the claim checker can fit against a growth form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Total CONGEST rounds of the solve.
    Rounds,
    /// Largest per-edge per-round bit load anywhere in the solve.
    ///
    /// Noisy as a claim metric: the engine runs in tracking mode and a
    /// few passes (e.g. the ACD similarity sketches) ship one
    /// multi-round payload atomically, so a single rare sketch steps the
    /// max by 16× on one seed. The splitting cost is accounted exactly by
    /// `normalized_rounds`; bandwidth claims fit [`Metric::P99EdgeBits`]
    /// instead.
    MaxEdgeBits,
    /// 99th-percentile per-round maximum edge load — the typical round's
    /// bandwidth requirement, robust to one-off atomic payloads.
    P99EdgeBits,
}

impl Metric {
    /// Stable label used in JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Rounds => "rounds",
            Metric::MaxEdgeBits => "max-edge-bits",
            Metric::P99EdgeBits => "p99-edge-bits",
        }
    }
}

/// Declarative description of one sweep: graph family × scale ladder ×
/// algorithm × seed set × thread count, plus the paper claims to check.
pub struct SweepSpec {
    /// Graph-family label (matches the [`Instance::name`] the constructor
    /// produces).
    pub family: &'static str,
    /// Instance constructor `(n, seed) -> Instance`.
    pub make: fn(usize, u64) -> Instance,
    /// Which solver to drive.
    pub algorithm: Algorithm,
    /// The size ladder per scale (see [`graphs::gen::pow2_ladder`]).
    pub ladder: fn(Scale) -> Vec<usize>,
    /// Seed set per scale (every cell is run once per seed).
    pub seeds: fn(Scale) -> Vec<u64>,
    /// Engine worker threads (results are thread-count invariant; wall
    /// time is not).
    pub threads: usize,
    /// Paper claims to check against the aggregated per-`n` means.
    pub claims: &'static [(Metric, Form)],
}

/// One `(n, seed)` measurement.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Instance size.
    pub n: usize,
    /// Instance/solver seed.
    pub seed: u64,
    /// Total CONGEST rounds.
    pub rounds: u64,
    /// Rounds normalized to the `B = 2·log2(n)`-bit budget.
    pub normalized_rounds: u64,
    /// The bandwidth budget used for normalization, in bits.
    pub bandwidth: u64,
    /// Largest per-edge per-round load (bits).
    pub max_edge_bits: u64,
    /// Median per-round maximum edge load (bits).
    pub p50_edge_bits: u64,
    /// 99th-percentile per-round maximum edge load (bits).
    pub p99_edge_bits: u64,
    /// Wall-clock seconds for the solve (the only non-deterministic
    /// field; reports at quick scale omit it).
    pub wall_seconds: f64,
    /// Rounds per pipeline phase, in execution order.
    pub phases: Vec<(String, u64)>,
}

/// A sweep's full outcome: every cell plus the claim-check verdicts.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// All cells, ladder-major then seed-major order.
    pub cells: Vec<SweepCell>,
    /// Claim checks against the per-`n` means.
    pub checks: Vec<ClaimCheck>,
}

impl SweepOutcome {
    /// Per-`n` means of a metric across seeds, in ladder order — the
    /// points the claim checker fits.
    pub fn mean_points(&self, metric: Metric) -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = Vec::new();
        let mut sizes: Vec<usize> = self.cells.iter().map(|c| c.n).collect();
        sizes.dedup();
        for n in sizes {
            let vals: Vec<f64> = self
                .cells
                .iter()
                .filter(|c| c.n == n)
                .map(|c| match metric {
                    Metric::Rounds => c.rounds as f64,
                    Metric::MaxEdgeBits => c.max_edge_bits as f64,
                    Metric::P99EdgeBits => c.p99_edge_bits as f64,
                })
                .collect();
            points.push((n as f64, crate::table::mean(&vals)));
        }
        points
    }
}

/// Run every `(n, seed)` cell of `spec` at `scale` and check its claims.
pub fn run_sweep(spec: &SweepSpec, scale: Scale) -> SweepOutcome {
    let mut cells = Vec::new();
    for n in (spec.ladder)(scale) {
        for seed in (spec.seeds)(scale) {
            let inst = (spec.make)(n, seed);
            let start = Instant::now();
            let result = spec.algorithm.run(&inst, seed, spec.threads);
            let wall_seconds = start.elapsed().as_secs_f64();
            let bandwidth = SimConfig::congest_bits(n, BANDWIDTH_MULTIPLIER);
            let load = result.log.edge_load();
            cells.push(SweepCell {
                n,
                seed,
                rounds: result.rounds(),
                normalized_rounds: result.normalized_rounds(bandwidth),
                bandwidth,
                max_edge_bits: load.max(),
                p50_edge_bits: load.percentile(0.5),
                p99_edge_bits: load.percentile(0.99),
                wall_seconds,
                phases: result.phase_breakdown(),
            });
        }
    }
    let outcome = SweepOutcome {
        cells,
        checks: Vec::new(),
    };
    let checks = spec
        .claims
        .iter()
        .map(|&(metric, form)| check_growth(metric.label(), form, &outcome.mean_points(metric)))
        .collect();
    SweepOutcome { checks, ..outcome }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::Verdict;
    use crate::workloads::gnp_d1c;

    fn tiny_spec(algorithm: Algorithm) -> SweepSpec {
        SweepSpec {
            family: "gnp-d1c",
            make: gnp_d1c,
            algorithm,
            ladder: |_| vec![64, 128],
            seeds: |_| vec![1, 2],
            threads: 1,
            claims: &[
                (Metric::Rounds, Form::LogN),
                (Metric::MaxEdgeBits, Form::LogN),
            ],
        }
    }

    #[test]
    fn sweep_covers_ladder_times_seeds() {
        let out = run_sweep(&tiny_spec(Algorithm::Pipeline), Scale::Quick);
        assert_eq!(out.cells.len(), 4);
        assert_eq!(out.checks.len(), 2);
        for c in &out.cells {
            assert!(c.rounds > 0);
            assert!(c.max_edge_bits >= c.p99_edge_bits);
            assert!(c.p99_edge_bits >= c.p50_edge_bits);
            assert!(c.normalized_rounds >= c.rounds);
            assert_eq!(
                c.phases.iter().map(|(_, r)| r).sum::<u64>(),
                c.rounds,
                "phase breakdown must cover every round"
            );
        }
        let pts = out.mean_points(Metric::Rounds);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].0, 64.0);
    }

    #[test]
    fn sweep_cells_are_deterministic_given_seed() {
        let spec = tiny_spec(Algorithm::Baseline);
        let a = run_sweep(&spec, Scale::Quick);
        let b = run_sweep(&spec, Scale::Quick);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.rounds, y.rounds);
            assert_eq!(x.max_edge_bits, y.max_edge_bits);
            assert_eq!(x.phases, y.phases);
        }
        // Baseline rounds on a 64..128 ladder are trivially within the
        // O(log n) envelope.
        assert_eq!(a.checks[0].verdict, Verdict::Pass, "{}", a.checks[0].detail);
    }
}
