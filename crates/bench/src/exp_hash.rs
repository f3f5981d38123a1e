//! Experiments E9, E10, E12: MultiTrial success probability, Lemma 1
//! goodness fractions of both seeded families, and the uniform
//! implementations.

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f3, Table};
use crate::workloads::Scale;
use congest::SimConfig;
use d1lc::driver::Driver;
use d1lc::multitrial::MultiTrialPass;
use d1lc::wire::ColorCodec;
use d1lc::{uniform_buddy, NodeState, Palette, ParamProfile};
use graphs::{gen, Graph, NodeId};
use prand::{RangeHashFamily, RepHashFamily, RepParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Registry entries for this module (E9, E10, E12).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        TableScenario::boxed(
            "E9",
            "MultiTrial(x) success probability",
            "Lemma 6: one MultiTrial(x) colors v w.p. >= 1-(7/8)^x-2nu",
            e9_multitrial,
        ),
        TableScenario::boxed(
            "E10",
            "Representative-family goodness",
            "Lemma 1: at least a (1-nu) fraction of the family is (A,B)-good",
            e10_rep_goodness,
        ),
        TableScenario::boxed(
            "E12",
            "Uniform implementations",
            "Section 5: explicit hashing + samplers + ECC match the advice-based behaviour",
            e12_uniform,
        ),
    ]
}

fn states_with_extra(g: &Graph, extra: usize, seed: u64) -> Vec<NodeState> {
    let profile = ParamProfile::laptop();
    (0..g.n())
        .map(|v| {
            let d = g.degree(v as NodeId);
            let list: Vec<u64> = (0..(d + 1 + extra) as u64)
                .map(|i| i * 101 + seed)
                .collect();
            let mut st = NodeState::new(
                v as NodeId,
                Palette::new(list),
                ColorCodec::new(&profile, 7, g.n(), 32, d),
                d,
            );
            st.active = true;
            st.neighbor_active = vec![true; d];
            st
        })
        .collect()
}

/// Success rate of one MultiTrial(x) on K9 with 64-color palettes
/// (x respects the Lemma 6 cap `|Ψ|/(2|N|) = 4`), under Alg. 4 or, with
/// `uniform`, Alg. 5.
fn multitrial_success(x: u32, trials: u64, uniform: bool) -> f64 {
    let profile = ParamProfile {
        uniform,
        ..ParamProfile::laptop()
    };
    let mut colored = 0usize;
    let mut total = 0usize;
    for t in 0..trials {
        let g = gen::complete(9);
        let mut states = states_with_extra(&g, 55, t);
        let mut driver = Driver::new(&g, SimConfig::seeded(900 + t));
        driver
            .run_in_place("mt", &mut states, |st| {
                MultiTrialPass::new(st, x, &profile, 42, 9, "mt")
            })
            .expect("pass");
        colored += states.iter().filter(|s| s.color.is_some()).count();
        total += states.len();
    }
    colored as f64 / total as f64
}

/// E9 — Lemma 6: MultiTrial success probability vs x.
pub fn e9_multitrial(scale: Scale) -> Table {
    let mut t = Table::new(
        "E9 — MultiTrial(x) success probability (Lemma 6)",
        "One MultiTrial(x) colors v w.p. ≥ 1 − (7/8)^x − 2ν when x ≤ |Ψ|/(2|N(v)|)",
    );
    t.columns(["x", "success-rate", "lemma-floor 1-(7/8)^x"]);
    let trials = scale.trials();
    for x in [1u32, 2, 4] {
        let rate = multitrial_success(x, trials, false);
        let floor = 1.0 - 0.875f64.powi(x as i32);
        t.row([x.to_string(), f3(rate), f3(floor)]);
    }
    t
}

/// E10 — Lemma 1: empirical `(A,B)`-good fractions of the two seeded
/// families: the `mix4` family (`MultiTrial`, the four-cycle finder) and
/// the sorted-range family (Alg. 1's signatures, hashing `(x, 0)`), both
/// counted by the same `good_members`.
pub fn e10_rep_goodness(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10 — Representative-family goodness (Lemma 1)",
        "At least a (1−ν) fraction of the family is (A,B)-good for every pair (A,B)",
    );
    t.columns([
        "family",
        "sigma",
        "|A|",
        "|B|",
        "good-fraction",
        "1-nu(params)",
    ]);
    let members = match scale {
        Scale::Quick => 256u64,
        Scale::Full => 1024,
    };
    for family in ["rep-hash", "sorted-range"] {
        for sigma in [64u64, 128, 256] {
            for (a_size, b_size) in [(150usize, 150usize), (150, 50), (60, 150)] {
                let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, sigma, 12);
                let a: Vec<u64> = (0..a_size as u64).map(|i| i * 13).collect();
                let b: Vec<u64> = (0..b_size as u64).map(|i| i * 13 + 500).collect();
                let good = if family == "rep-hash" {
                    let fam = RepHashFamily::new(77, params);
                    good_members(&params, &a, &b, members, |i, x| fam.member(i).hash(x))
                } else {
                    let fam = RangeHashFamily::new(77, 77, params);
                    good_members(&params, &a, &b, members, |i, x| fam.member(i).hash(x, 0))
                };
                t.row([
                    family.to_string(),
                    sigma.to_string(),
                    a_size.to_string(),
                    b_size.to_string(),
                    f3(good as f64 / members as f64),
                    f3(1.0 - params.nu),
                ]);
            }
        }
    }
    t
}

/// How many of members `0..members` are `(A,B)`-good (Lemma 1), member `i`
/// hashing `x` to `hash(i, x)`: `|A|_h|` is near its mean and
/// `|A ∧_h B|` — elements of `A|_h` sharing their hash with another
/// element of `B` — is small. `b` must be sorted.
fn good_members(
    params: &RepParams,
    a: &[u64],
    b: &[u64],
    members: u64,
    hash: impl Fn(u64, u64) -> u64,
) -> u64 {
    let (sigma, beta) = (params.sigma, params.beta);
    let large = a.len() as f64 >= params.large_set_threshold();
    let mu = if large {
        sigma as f64 * a.len() as f64 / params.lambda as f64
    } else {
        sigma as f64 * params.alpha
    };
    let mut window_counts: HashMap<u64, u32> = HashMap::new();
    let mut good = 0;
    for i in 0..members {
        window_counts.clear();
        for &y in b {
            let h = hash(i, y);
            if h < sigma {
                *window_counts.entry(h).or_insert(0) += 1;
            }
        }
        let (mut low, mut coll) = (0usize, 0usize);
        for &x in a {
            let h = hash(i, x);
            if h >= sigma {
                continue;
            }
            low += 1;
            // Elements of `b` hashing to `h`, x itself included if in `b`.
            let same_hash = window_counts.get(&h).copied().unwrap_or(0);
            let own = u32::from(b.binary_search(&x).is_ok());
            coll += usize::from(same_hash > own);
        }
        let (low, coll) = (low as f64, coll as f64);
        let ok_low = if large {
            (low - mu).abs() <= beta * mu
        } else {
            low <= mu * (1.0 + beta)
        };
        if ok_low && coll <= 2.0 * mu * beta {
            good += 1;
        }
    }
    good
}

/// E12 — §5: the uniform implementations match the non-uniform behaviour.
pub fn e12_uniform(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12 — Uniform implementations (§5)",
        "Explicit pairwise hashing + samplers + ECC replace representative families with the same behaviour",
    );
    t.columns(["procedure", "configuration", "metric", "value"]);
    let trials = scale.trials();
    for x in [1u32, 4] {
        let nu_rate = multitrial_success(x, trials, false);
        let u_rate = multitrial_success(x, trials, true);
        t.row([
            "multitrial".into(),
            format!("x={x} rep-hash"),
            "success-rate".into(),
            f3(nu_rate),
        ]);
        t.row([
            "multitrial".into(),
            format!("x={x} uniform"),
            "success-rate".into(),
            f3(u_rate),
        ]);
    }
    // Uniform buddy confusion rates, with the uniform ACD's parameters.
    let profile = ParamProfile::laptop();
    let accept = |nu: &[u64], nv: &[u64]| -> f64 {
        let hits = (0..trials)
            .filter(|&t| {
                let mut rng = StdRng::seed_from_u64(t);
                uniform_buddy(&profile, nu, nv, 42, &mut rng).friends
            })
            .count();
        hits as f64 / trials as f64
    };
    let identical: Vec<u64> = (0..60).collect();
    let disjoint: Vec<u64> = (1000..1060).collect();
    t.row([
        "buddy".into(),
        "identical neighborhoods".into(),
        "accept-rate".into(),
        f3(accept(&identical, &identical)),
    ]);
    t.row([
        "buddy".into(),
        "disjoint neighborhoods".into(),
        "accept-rate".into(),
        f3(accept(&identical, &disjoint)),
    ]);
    // Whole-graph ACD: representative-hash vs uniform variant, dense
    // recall on a planted instance.
    for (label, uniform) in [("rep-hash", false), ("uniform", true)] {
        let mut recall_sum = 0.0;
        let runs = (trials / 10).max(2);
        for trial in 0..runs {
            let (g, truth) = gen::planted_acd(3, 18, 0.05, 50, 0.05, 60 + trial);
            let profile = ParamProfile {
                uniform,
                ..ParamProfile::laptop()
            };
            let states: Vec<NodeState> = (0..g.n())
                .map(|v| {
                    let d = g.degree(v as NodeId);
                    let list: Vec<u64> = (0..=(d as u64)).collect();
                    let mut st = NodeState::new(
                        v as NodeId,
                        Palette::new(list),
                        ColorCodec::new(&profile, 1, g.n(), 16, d),
                        d,
                    );
                    st.active = true;
                    st.neighbor_active = vec![true; d];
                    st
                })
                .collect();
            let mut driver = Driver::new(&g, SimConfig::seeded(trial));
            let states =
                d1lc::acd::compute_acd(&mut driver, states, &profile, 5 + trial).expect("acd");
            let mut planted = 0;
            let mut dense = 0;
            for (v, tr) in truth.iter().enumerate() {
                if tr.is_some() {
                    planted += 1;
                    if states[v].class == d1lc::AcdClass::Dense {
                        dense += 1;
                    }
                }
            }
            recall_sum += dense as f64 / planted.max(1) as f64;
        }
        t.row([
            "acd".into(),
            format!("planted blend, {label}"),
            "dense-recall".into(),
            f3(recall_sum / runs as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_has_three_rows() {
        assert_eq!(e9_multitrial(Scale::Quick).len(), 3);
    }

    #[test]
    fn e10_runs() {
        assert_eq!(e10_rep_goodness(Scale::Quick).len(), 18);
    }
}
