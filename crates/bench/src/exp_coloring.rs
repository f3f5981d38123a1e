//! Experiments E1–E3 and E11: round complexity and bandwidth of the D1LC
//! pipeline versus the baselines.

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f2, Table};
use crate::workloads::{blend_window, gnp_d1c, gnp_window, high_degree, Scale};
use congest::SimConfig;
use d1lc::{solve, solve_random_trial, SolveOptions};
use graphs::palette::random_lists;

/// Registry entries for this module (E1–E3, E11).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        TableScenario::boxed(
            "E1",
            "D1LC round complexity vs n",
            "Theorem 1: D1LC solvable w.h.p. in O(log^5 log n) CONGEST rounds",
            e1_rounds_vs_n,
        ),
        TableScenario::boxed(
            "E2",
            "High-min-degree regime",
            "Theorem 1(b): above the phase threshold the algorithm runs in O(log* n) rounds",
            e2_high_degree,
        ),
        TableScenario::boxed(
            "E3",
            "D1C round complexity",
            "Corollary 1: D1C solvable w.h.p. in O(log^3 log n) CONGEST rounds",
            e3_d1c,
        ),
        TableScenario::boxed(
            "E11",
            "Bandwidth of one MultiTrial(x) operation",
            "Hashed trials need O(log n) bits/edge; naive trials need Theta(x log|C|)",
            e11_congestion,
        ),
    ]
}

fn log2(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

fn opts(seed: u64) -> SolveOptions {
    SolveOptions::seeded(seed)
}

/// E1 — Theorem 1(a): D1LC rounds vs n, ours vs the O(log n) baseline.
///
/// Expected shape: our round count grows like poly(log log n) (it is
/// dominated by the fixed pass structure — essentially flat across the
/// sweep), while the baseline's trial count grows with log n; normalized
/// rounds tell the same story under the bandwidth cap.
pub fn e1_rounds_vs_n(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1 — D1LC round complexity vs n (Theorem 1)",
        "D1LC solvable w.h.p. in O(log^5 log n) CONGEST rounds",
    );
    t.columns([
        "workload",
        "n",
        "rounds(us)",
        "rounds(baseline)",
        "log2 n",
        "(log2 log2 n)^5",
    ]);
    for &n in &scale.n_sweep() {
        for make in [gnp_window, blend_window] {
            let inst = make(n, 7 + n as u64);
            let ours = solve(&inst.graph, &inst.lists, opts(1)).expect("solve");
            let base = solve_random_trial(&inst.graph, &inst.lists, opts(1)).expect("baseline");
            let ll = log2(n).log2();
            t.row([
                inst.name.to_string(),
                n.to_string(),
                ours.rounds().to_string(),
                base.rounds().to_string(),
                f2(log2(n)),
                f2(ll.powi(5)),
            ]);
        }
    }
    t
}

/// E2 — Theorem 1(b): high-minimum-degree graphs (the `O(log* n)` regime,
/// threshold laptop-scaled). Rounds should not grow with n.
pub fn e2_high_degree(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2 — High-min-degree regime (Theorem 1, δ ≥ threshold)",
        "With min degree above the phase threshold the algorithm runs in O(log* n) rounds",
    );
    t.columns([
        "n",
        "min-degree",
        "phases",
        "rounds",
        "uncolored-before-cleanup",
    ]);
    for &n in &scale.n_sweep() {
        if n > 4096 {
            continue; // dense instances get quadratic in memory
        }
        let dmin = 60.min(n / 4);
        let inst = high_degree(n, dmin, 5 + n as u64);
        let r = solve(&inst.graph, &inst.lists, opts(3)).expect("solve");
        let cleanup = r.stats.colored_by.get("cleanup").copied().unwrap_or(0) + r.stats.repairs;
        t.row([
            n.to_string(),
            inst.graph.min_degree().to_string(),
            r.stats.phases.to_string(),
            r.rounds().to_string(),
            cleanup.to_string(),
        ]);
    }
    t
}

/// E3 — Corollary 1: the D1C problem (lists = `[d_v+1]`).
pub fn e3_d1c(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3 — D1C round complexity (Corollary 1)",
        "D1C solvable w.h.p. in O(log^3 log n) CONGEST rounds",
    );
    t.columns(["n", "rounds(us)", "rounds(baseline)", "repairs"]);
    for &n in &scale.n_sweep() {
        let inst = gnp_d1c(n, 11 + n as u64);
        let ours = solve(&inst.graph, &inst.lists, opts(2)).expect("solve");
        let base = solve_random_trial(&inst.graph, &inst.lists, opts(2)).expect("baseline");
        t.row([
            n.to_string(),
            ours.rounds().to_string(),
            base.rounds().to_string(),
            ours.stats.repairs.to_string(),
        ]);
    }
    t
}

/// E11 — §4.1 motivation: per-edge bandwidth of one MultiTrial(x)
/// operation, representative-hash vs the naive LOCAL version shipping raw
/// colors. (End-to-end round counts are E1's story; the bandwidth claim
/// is per operation.)
pub fn e11_congestion(scale: Scale) -> Table {
    use d1lc::baseline::NaiveMultiTrialPass;
    use d1lc::driver::Driver;
    use d1lc::multitrial::MultiTrialPass;
    use d1lc::pipeline::initial_states;
    use d1lc::ParamProfile;

    let mut t = Table::new(
        "E11 — Bandwidth of one MultiTrial(x) operation (§4.1)",
        "Hashed trials need O(log n) bits/edge; naive trials need Θ(x·log|C|)",
    );
    t.columns([
        "color-bits",
        "x",
        "bits/edge(us)",
        "bits/edge(naive)",
        "rounds@B(us)",
        "rounds@B(naive)",
    ]);
    let n = match scale {
        Scale::Quick => 512,
        Scale::Full => 2048,
    };
    // "O(log n)" bandwidth with a small constant: the regime where naive
    // color shipping hurts.
    let bandwidth = SimConfig::congest_bits(n, 6);
    let profile = ParamProfile::laptop();
    let x = 32u32;
    for color_bits in [16u32, 32, 48, 60] {
        let p = (12.0 / n as f64).min(0.5);
        let graph = graphs::gen::gnp(n, p, 3);
        let lists = random_lists(&graph, color_bits, 4, 9);
        let make_states = || {
            let mut states = initial_states(&graph, &lists, &profile, 3);
            for st in &mut states {
                st.active = true;
                for a in &mut st.neighbor_active {
                    *a = true;
                }
            }
            states
        };
        let mut driver = Driver::new(&graph, SimConfig::seeded(1));
        driver
            .run_in_place("mt", &mut make_states(), |st| {
                MultiTrialPass::new(st, x, &profile, 42, n, "mt")
            })
            .expect("rep-hash pass");
        let ours_bits = driver.log.max_edge_bits();
        let mut driver = Driver::new(&graph, SimConfig::seeded(1));
        driver
            .run_in_place("naive", &mut make_states(), |st| {
                NaiveMultiTrialPass::new(st, x, color_bits)
            })
            .expect("naive pass");
        let naive_bits = driver.log.max_edge_bits();
        t.row([
            color_bits.to_string(),
            x.to_string(),
            ours_bits.to_string(),
            naive_bits.to_string(),
            ours_bits.div_ceil(bandwidth).to_string(),
            naive_bits.div_ceil(bandwidth).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_produces_rows() {
        let t = e1_rounds_vs_n(Scale::Quick);
        assert!(t.len() >= 4);
    }

    #[test]
    fn e11_shows_naive_flooding() {
        let t = e11_congestion(Scale::Quick);
        assert_eq!(t.len(), 4);
    }
}
