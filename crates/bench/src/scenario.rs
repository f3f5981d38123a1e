//! The scenario registry: one declarative catalog unifying the legacy
//! table experiments (E0e–E16c) and the ladder sweeps (S1–S6).
//!
//! A [`Scenario`] is anything the `experiments` binary can run by id.
//! Legacy experiments wrap a `fn(Scale) -> Table` ([`TableScenario`]);
//! sweep scenarios ([`SweepScenario`]) additionally produce structured
//! [`SweepOutcome`] measurements (graph family × scale ladder × algorithm
//! × seed set × thread count) that feed the claim checker and the
//! generated `EXPERIMENTS.md`. [`registry`] lists everything in catalog
//! order.

use crate::claims::Form;
use crate::sweep::{run_sweep, Algorithm, Metric, SweepOutcome, SweepSpec};
use crate::table::{f2, mean, Table};
use crate::workloads::{self, Instance, Scale};
use crate::{
    exp_ablation, exp_acd, exp_adversary, exp_coloring, exp_estimate, exp_hash, Experiment,
};

/// What running a scenario produces: always a printable table; for sweep
/// scenarios, also the structured measurements behind it.
pub struct ScenarioOutcome {
    /// Human-readable result (what the binary prints).
    pub table: Table,
    /// Structured ladder measurements + claim verdicts (sweeps only).
    pub sweep: Option<SweepOutcome>,
}

/// One runnable entry of the experiment catalog.
pub trait Scenario {
    /// Catalog id (`"E4"`, `"S1"`, …) — what the binary selects by.
    fn id(&self) -> &'static str;
    /// Short title for listings.
    fn title(&self) -> &'static str;
    /// The paper claim the scenario exercises.
    fn claim(&self) -> &'static str;
    /// Run at the given scale.
    fn run(&self, scale: Scale) -> ScenarioOutcome;
    /// The sweep specification, when this scenario is a ladder sweep.
    fn sweep_spec(&self) -> Option<&SweepSpec> {
        None
    }
    /// Reproduction notes: interpretation that belongs next to the raw
    /// verdicts (workload caveats, expected warns, scaling artifacts).
    fn notes(&self) -> &'static str {
        ""
    }
}

/// Adapter: a legacy table experiment as a [`Scenario`].
pub struct TableScenario {
    id: &'static str,
    title: &'static str,
    claim: &'static str,
    runner: Experiment,
}

impl TableScenario {
    /// A boxed registry entry for a legacy experiment function.
    pub fn boxed(
        id: &'static str,
        title: &'static str,
        claim: &'static str,
        runner: Experiment,
    ) -> Box<dyn Scenario> {
        Box::new(TableScenario {
            id,
            title,
            claim,
            runner,
        })
    }
}

impl Scenario for TableScenario {
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
            table: (self.runner)(scale),
            sweep: None,
        }
    }
}

/// A declarative ladder sweep as a [`Scenario`].
pub struct SweepScenario {
    id: &'static str,
    title: &'static str,
    claim: &'static str,
    notes: &'static str,
    spec: SweepSpec,
}

impl Scenario for SweepScenario {
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
        let outcome = run_sweep(&self.spec, scale);
        let table = sweep_table(self, &outcome);
        ScenarioOutcome {
            table,
            sweep: Some(outcome),
        }
    }
    fn sweep_spec(&self) -> Option<&SweepSpec> {
        Some(&self.spec)
    }
    fn notes(&self) -> &'static str {
        self.notes
    }
}

/// Render a sweep outcome as a printable table (per-`n` aggregates across
/// seeds, plus one row per claim verdict in the caption position).
fn sweep_table(s: &SweepScenario, out: &SweepOutcome) -> Table {
    let mut t = Table::new(
        format!("{} — {} ({})", s.id, s.title, s.spec.algorithm.label()),
        s.claim,
    );
    t.columns([
        "n",
        "seeds",
        "rounds",
        "rounds@B",
        "max bits/edge",
        "p99 bits/edge",
        "wall s",
        "phases",
    ]);
    let mut sizes: Vec<usize> = out.cells.iter().map(|c| c.n).collect();
    sizes.dedup();
    for n in sizes {
        let group: Vec<_> = out.cells.iter().filter(|c| c.n == n).collect();
        let rounds: Vec<f64> = group.iter().map(|c| c.rounds as f64).collect();
        let norm: Vec<f64> = group.iter().map(|c| c.normalized_rounds as f64).collect();
        let maxb = group.iter().map(|c| c.max_edge_bits).max().unwrap_or(0);
        let p99 = group.iter().map(|c| c.p99_edge_bits).max().unwrap_or(0);
        let wall: Vec<f64> = group.iter().map(|c| c.wall_seconds).collect();
        t.row([
            n.to_string(),
            group.len().to_string(),
            f2(mean(&rounds)),
            f2(mean(&norm)),
            maxb.to_string(),
            p99.to_string(),
            f2(mean(&wall)),
            phase_means(&group),
        ]);
    }
    for check in &out.checks {
        t.row([
            format!("[{}]", check.verdict.tag()),
            String::new(),
            check.metric.clone(),
            check.form.clone(),
            String::new(),
            String::new(),
            String::new(),
            check.detail.clone(),
        ]);
    }
    t
}

/// Compact `name:rounds` summary of a phase breakdown.
pub fn phase_summary(phases: &[(String, u64)]) -> String {
    phases
        .iter()
        .map(|(name, rounds)| format!("{name}:{rounds}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Mean rounds per phase across a size's seed group (first-seen order,
/// one decimal, absent phases counting as 0) — the same aggregation the
/// EXPERIMENTS.md renderer uses, so the stdout table and the report
/// never disagree about where the rounds went.
fn phase_means(group: &[&crate::sweep::SweepCell]) -> String {
    let mut order: Vec<&str> = Vec::new();
    let mut totals: Vec<f64> = Vec::new();
    for cell in group {
        for (name, rounds) in &cell.phases {
            match order.iter().position(|o| o == name) {
                Some(i) => totals[i] += *rounds as f64,
                None => {
                    order.push(name);
                    totals.push(*rounds as f64);
                }
            }
        }
    }
    order
        .iter()
        .zip(&totals)
        .map(|(name, total)| format!("{name}:{:.1}", total / group.len().max(1) as f64))
        .collect::<Vec<_>>()
        .join(" ")
}

/// High-min-degree family at the laptop-scaled Theorem 1(b) threshold.
///
/// `dmin = 48` keeps the realized Δ (≈ 100) inside one rung of the
/// pipeline's degree ladder across the whole sweep; the regime claim is
/// about holding the degree structure fixed while `n` grows, so the
/// family must not drift across a phase boundary as a side effect of
/// sampling noise.
fn high_degree_auto(n: usize, seed: u64) -> Instance {
    workloads::high_degree(n, 48.min(n / 4), seed)
}

/// The sweep scenarios S1–S6.
pub fn sweep_scenarios() -> Vec<Box<dyn Scenario>> {
    fn main_ladder(scale: Scale) -> Vec<usize> {
        match scale {
            Scale::Quick => graphs::gen::pow2_ladder(8, 10),
            Scale::Full => graphs::gen::pow2_ladder(10, 14),
        }
    }
    // Families whose per-instance cost is superlinear in n (blends grow
    // clique size ~n/40, so edges grow ~n²/120; high-degree instances
    // carry ~90n edges) climb a shorter ladder.
    fn blend_ladder(scale: Scale) -> Vec<usize> {
        match scale {
            Scale::Quick => graphs::gen::pow2_ladder(8, 10),
            Scale::Full => graphs::gen::pow2_ladder(10, 13),
        }
    }
    fn dense_ladder(scale: Scale) -> Vec<usize> {
        match scale {
            Scale::Quick => graphs::gen::pow2_ladder(8, 9),
            Scale::Full => graphs::gen::pow2_ladder(10, 12),
        }
    }
    // The constant-average-degree D1C family starts its full ladder one
    // octave higher: below n = 2^11 its Δ sits under the laptop-scaled
    // phase floor and no degree-range phase runs at all, so a ladder
    // starting at 2^10 measures the cold-start staircase (0 → 2 active
    // ranges), not the warmed-up pipeline the Corollary 1 bound is
    // about. The instances are light, so the ladder tops out at 2^15.
    fn d1c_ladder(scale: Scale) -> Vec<usize> {
        match scale {
            Scale::Quick => graphs::gen::pow2_ladder(8, 10),
            Scale::Full => graphs::gen::pow2_ladder(11, 15),
        }
    }
    fn seed_set(scale: Scale) -> Vec<u64> {
        match scale {
            Scale::Quick => vec![1, 2],
            Scale::Full => vec![1, 2, 3],
        }
    }
    const PIPELINE_CLAIMS: &[(Metric, Form)] = &[
        (Metric::Rounds, Form::PolyLogLog(5)),
        (Metric::P99EdgeBits, Form::LogN),
    ];
    const D1C_CLAIMS: &[(Metric, Form)] = &[
        (Metric::Rounds, Form::PolyLogLog(3)),
        (Metric::P99EdgeBits, Form::LogN),
    ];
    const BASELINE_CLAIMS: &[(Metric, Form)] = &[
        (Metric::Rounds, Form::LogN),
        (Metric::P99EdgeBits, Form::LogN),
    ];
    const HIGHDEG_CLAIMS: &[(Metric, Form)] = &[
        (Metric::Rounds, Form::LogStar),
        (Metric::P99EdgeBits, Form::LogN),
    ];
    vec![
        Box::new(SweepScenario {
            id: "S1",
            title: "D1LC pipeline on G(n,p), shared-window lists",
            claim: "Theorem 1: D1LC in O(log^5 log n) rounds with O(log n)-bit messages",
            notes: "Rounds are dominated by the fixed pass structure (one degree-range phase plus fallback), essentially flat across the ladder — the poly(log log n) bound with small constants.",
            spec: SweepSpec {
                family: "gnp-window",
                make: workloads::gnp_window,
                algorithm: Algorithm::Pipeline,
                ladder: main_ladder,
                seeds: seed_set,
                threads: 1,
                claims: PIPELINE_CLAIMS,
            },
        }),
        Box::new(SweepScenario {
            id: "S2",
            title: "D1LC pipeline on clique blends, shared-window lists",
            claim: "Theorem 1 on the dense-path regime (almost-cliques active)",
            notes: "The full-scale p99-edge-bits warn is a real finding: this family grows its planted cliques with n (size ~n/40), and the hub-routed dense-path aggregation's per-edge load grows with clique size in tracking mode. The overflow is priced into rounds@B (~1.35x raw rounds), which stays poly(log log n)-flat.",
            spec: SweepSpec {
                family: "blend-window",
                make: workloads::blend_window,
                algorithm: Algorithm::Pipeline,
                ladder: blend_ladder,
                seeds: seed_set,
                threads: 2,
                claims: PIPELINE_CLAIMS,
            },
        }),
        Box::new(SweepScenario {
            id: "S3",
            title: "D1C (lists = [d_v+1]) on sparse G(n,p)",
            claim: "Corollary 1: D1C in O(log^3 log n) rounds",
            notes: "The full ladder starts at 2^11: below that, this constant-average-degree family sits under the laptop-scaled phase floor and no degree-range phase runs, so a lower start would measure the cold-start staircase instead of the warmed-up pipeline.",
            spec: SweepSpec {
                family: "gnp-d1c",
                make: workloads::gnp_d1c,
                algorithm: Algorithm::Pipeline,
                ladder: d1c_ladder,
                seeds: seed_set,
                threads: 1,
                claims: D1C_CLAIMS,
            },
        }),
        Box::new(SweepScenario {
            id: "S4",
            title: "Random-trial baseline on G(n,p), shared-window lists",
            claim: "The classical baseline runs in O(log n) rounds — the bound the paper beats",
            notes: "The comparison point: flat O(log n)-bit messages, rounds growing with log n. The pipeline beats it asymptotically, not in absolute rounds at laptop scale (its constants buy the asymptotics).",
            spec: SweepSpec {
                family: "gnp-window",
                make: workloads::gnp_window,
                algorithm: Algorithm::Baseline,
                ladder: main_ladder,
                seeds: seed_set,
                threads: 1,
                claims: BASELINE_CLAIMS,
            },
        }),
        Box::new(SweepScenario {
            id: "S5",
            title: "High-min-degree G(n,p) (Theorem 1(b) regime)",
            claim: "Min degree above the phase threshold: O(log* n) rounds, flat across the ladder",
            notes: "dmin = 48 holds the realized degree structure (Delta ~ 100) inside one rung of the degree ladder across the sweep, isolating the regime the O(log* n) bound describes; rounds are flat. The p99 load statistic is brittle on this family's short ladders (with ~100 rounds it sits at the second-largest per-round load, flipping between a heavy dense-phase round and the background), hence the quick-scale warn.",
            spec: SweepSpec {
                family: "high-degree",
                make: high_degree_auto,
                algorithm: Algorithm::Pipeline,
                ladder: dense_ladder,
                seeds: seed_set,
                threads: 1,
                claims: HIGHDEG_CLAIMS,
            },
        }),
        Box::new(SweepScenario {
            id: "S6",
            title: "Uniform pipeline on G(n,p), shared-window lists",
            claim: "§5: the uniform implementation preserves the Theorem 1 bounds",
            notes: "Same workload as S1 under ParamProfile::uniform: Alg. 5 in every MultiTrial and Alg. 6 in the ACD, with no advice. At laptop scale SlackColor's TryColor warm-up colors every participant first, so S6's MultiTrial passes send nothing and its rounds measure Alg. 6; E12 and the strict-cap test in tests/congest_legality.rs are where Alg. 5 runs.",
            spec: SweepSpec {
                family: "gnp-window",
                make: workloads::gnp_window,
                algorithm: Algorithm::UniformPipeline,
                ladder: main_ladder,
                seeds: seed_set,
                threads: 1,
                claims: PIPELINE_CLAIMS,
            },
        }),
    ]
}

/// Every scenario in catalog order: E0e–E16c then S1–S6.
pub fn registry() -> Vec<Box<dyn Scenario>> {
    let mut all: Vec<Box<dyn Scenario>> = Vec::new();
    all.extend(exp_adversary::scenarios());
    all.extend(exp_coloring::scenarios());
    all.extend(exp_estimate::scenarios());
    all.extend(exp_hash::scenarios());
    all.extend(exp_acd::scenarios());
    all.extend(exp_ablation::scenarios());
    all.extend(sweep_scenarios());
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let reg = registry();
        let ids: Vec<&str> = reg.iter().map(|s| s.id()).collect();
        let set: HashSet<&str> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len(), "duplicate scenario ids: {ids:?}");
        for wanted in [
            "E0e", "E0f", "E0g", "E0h", "E1", "E9", "E16c", "S1", "S2", "S3", "S4", "S5", "S6",
        ] {
            assert!(set.contains(wanted), "{wanted} missing from registry");
        }
        for s in &reg {
            assert!(!s.title().is_empty());
            assert!(!s.claim().is_empty());
        }
    }

    #[test]
    fn sweep_scenarios_expose_specs() {
        for s in sweep_scenarios() {
            let spec = s.sweep_spec().expect("sweep scenario has a spec");
            assert!(!(spec.ladder)(Scale::Quick).is_empty());
            assert!(!(spec.seeds)(Scale::Quick).is_empty());
            assert!(!spec.claims.is_empty());
            // Quick ladders must stay CI-sized.
            assert!((spec.ladder)(Scale::Quick).iter().all(|&n| n <= 1024));
        }
    }

    #[test]
    fn phase_summary_joins_in_order() {
        let phases = vec![("setup".to_string(), 2u64), ("fallback".to_string(), 9)];
        assert_eq!(phase_summary(&phases), "setup:2 fallback:9");
    }

    #[test]
    fn phase_means_average_across_seeds_counting_absent_as_zero() {
        let cell = |phases: Vec<(&str, u64)>| crate::sweep::SweepCell {
            n: 256,
            seed: 1,
            rounds: phases.iter().map(|(_, r)| r).sum(),
            normalized_rounds: 0,
            bandwidth: 18,
            max_edge_bits: 0,
            p50_edge_bits: 0,
            p99_edge_bits: 0,
            wall_seconds: 0.0,
            phases: phases
                .into_iter()
                .map(|(s, r)| (s.to_string(), r))
                .collect(),
        };
        let a = cell(vec![("setup", 2), ("cleanup", 8)]);
        let b = cell(vec![("setup", 2)]); // this seed skipped cleanup
        assert_eq!(phase_means(&[&a, &b]), "setup:2.0 cleanup:4.0");
    }
}
