//! `SlackColor(s_min)` — Algorithm 15.
//!
//! Colors nodes that have slack linear in their degree in `O(log* s_min)`
//! `MultiTrial` invocations: a constant number of single-color warm-up
//! trials, a tetration ladder `x_i = 2↑↑i`, a polynomial ladder
//! `x_i = ρ^{iκ}` with `ρ = s_min^{1/(1+κ)}`, and a final `MultiTrial(ρ)`.
//! Nodes whose uncolored degree stops shrinking fast enough drop out (they
//! are swept up by the post-shattering cleanup).

use crate::config::ParamProfile;
use crate::driver::{Driver, PassFailure};
use crate::multitrial::MultiTrialPass;
use crate::state::NodeState;

/// The tetration sequence `2↑↑i` for `i = 0, 1, 2, …`, saturating at
/// `cap`.
pub fn tetration_ladder(cap: u64) -> Vec<u64> {
    let mut ladder = vec![1u64];
    loop {
        let last = *ladder.last().expect("ladder never empty");
        if last >= cap || last >= 32 {
            break;
        }
        let next = 1u64.checked_shl(last as u32).unwrap_or(u64::MAX).min(cap);
        if next <= last {
            break;
        }
        ladder.push(next);
    }
    ladder
}

/// Run `SlackColor(s_min)` over the currently active nodes.
///
/// `s_min` is the globally known lower bound on participant slack; the
/// caller derives it (the paper assumes it known). Progress checks follow
/// Alg. 15 lines 2, 7 and 12; dropped nodes simply deactivate.
///
/// # Errors
///
/// Propagates engine errors.
pub fn slack_color(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
    profile: &ParamProfile,
    seed: u64,
    smin: u64,
    pass_name: &'static str,
) -> Result<Vec<NodeState>, PassFailure> {
    let n = driver.graph.n();
    let smin = smin.max(1);

    // Line 1: a constant number of single-color trials.
    for _ in 0..profile.slackcolor_initial_trials {
        states = driver.try_color(states, pass_name)?;
    }

    // Line 2: terminate (drop out) if s(v) < 2·d̂(v) (factor from the
    // profile; the laptop profile disables this gate and relies on the
    // ladder's progress checks).
    if profile.slack_entry_factor > 0.0 {
        for st in &mut states {
            if st.active
                && (st.slack() as f64)
                    < profile.slack_entry_factor * st.active_uncolored_degree() as f64
            {
                st.active = false;
            }
        }
        states = driver.activate(states, |st| st.active)?;
    }

    let kappa = profile.kappa;
    let rho = (smin as f64).powf(1.0 / (1.0 + kappa)).max(2.0);
    let rho_k = rho.powf(kappa);

    let multitrial = |driver: &mut Driver<'_>,
                      mut states: Vec<NodeState>,
                      x: u64|
     -> Result<Vec<NodeState>, PassFailure> {
        let x = x.min(1 << 20) as u32;
        let outcome = driver.run_in_place(pass_name, &mut states, |st| {
            // Lemma 6 cap: x ≤ |Ψ_v|/(2|N(v)|), enforced per node that
            // can take part (for the rest, x goes unused).
            let x = if st.active && st.uncolored() {
                let degree = st.active_uncolored_degree().max(1) as u64;
                x.min((st.palette.len() as u64 / (2 * degree)).max(1) as u32)
            } else {
                x
            };
            MultiTrialPass::new(st, x, profile, seed, n, pass_name)
        });
        PassFailure::hand_back(outcome, states)
    };

    // Lines 4–8: tetration ladder, MultiTrial twice per level.
    for &x in &tetration_ladder(rho.ceil() as u64) {
        for _ in 0..2 {
            states = multitrial(driver, states, x)?;
        }
        let bound = |s: i64| s as f64 / (2f64.powi(x.min(60) as i32)).min(rho_k);
        for st in &mut states {
            if st.active && (st.active_uncolored_degree() as f64) > bound(st.slack()) {
                st.active = false;
            }
        }
        states = driver.activate(states, |st| st.active)?;
        if Driver::active_count(&states) == 0 {
            return Ok(states);
        }
    }

    // Lines 9–13: polynomial ladder, MultiTrial three times per level.
    let levels = (1.0 / kappa).ceil() as u32;
    for i in 1..=levels {
        let x = rho.powf(f64::from(i) * kappa).ceil() as u64;
        for _ in 0..3 {
            states = multitrial(driver, states, x)?;
        }
        let cap = rho.powf(f64::from(i + 1) * kappa).min(rho);
        for st in &mut states {
            if st.active && (st.active_uncolored_degree() as f64) > st.slack() as f64 / cap {
                st.active = false;
            }
        }
        states = driver.activate(states, |st| st.active)?;
        if Driver::active_count(&states) == 0 {
            return Ok(states);
        }
    }

    // Line 14: the final big trial.
    states = multitrial(driver, states, rho.ceil() as u64)?;
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph, NodeId};

    #[test]
    fn tetration_values() {
        assert_eq!(tetration_ladder(100), vec![1, 2, 4, 16, 100]);
        assert_eq!(tetration_ladder(3), vec![1, 2, 3]);
        assert_eq!(tetration_ladder(1), vec![1]);
    }

    fn states_with_extra(g: &Graph, extra: usize) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..(d + 1 + extra) as u64).map(|i| i * 7).collect();
                NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(&profile, 1, g.n(), 24, d),
                    d,
                )
            })
            .collect()
    }

    #[test]
    fn slack_color_colors_high_slack_graphs() {
        let g = gen::gnp(100, 0.1, 7);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let mut states = states_with_extra(&g, 2 * g.max_degree());
        states = driver.activate(states, |_| true).unwrap();
        let smin = states
            .iter()
            .filter(|s| s.active)
            .map(|s| s.slack().max(1) as u64)
            .min()
            .unwrap_or(1);
        states = slack_color(&mut driver, states, &profile, 42, smin, "sc").unwrap();
        let uncolored = Driver::uncolored_count(&states);
        assert!(
            uncolored <= g.n() / 20,
            "{uncolored}/{} uncolored after SlackColor",
            g.n()
        );
        // No conflicts.
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (states[u as usize].color, states[v as usize].color) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn dropouts_deactivate_but_stay_uncolored() {
        // Zero extra colors: slack ≈ 0, so the s < 2d check drops nodes
        // instead of looping forever.
        let g = gen::complete(12);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(1));
        let mut states = states_with_extra(&g, 0);
        states = driver.activate(states, |_| true).unwrap();
        states = slack_color(&mut driver, states, &profile, 9, 1, "sc").unwrap();
        // The pass must terminate (this test completing is the assertion)
        // and every uncolored node must have dropped out.
        for st in &states {
            if st.uncolored() {
                assert!(!st.active, "uncolored node {} still active", st.id);
            }
        }
    }

    #[test]
    fn round_cost_is_modest() {
        let g = gen::gnp(60, 0.15, 2);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(8));
        let mut states = states_with_extra(&g, 3 * g.max_degree());
        states = driver.activate(states, |_| true).unwrap();
        let _ = slack_color(&mut driver, states, &profile, 4, 64, "sc").unwrap();
        // The ladder is O(log* s_min + 1/κ) MultiTrials of 4 rounds each,
        // plus activations: comfortably below 150 rounds.
        assert!(
            driver.log.total_rounds() < 150,
            "SlackColor used {} rounds",
            driver.log.total_rounds()
        );
    }
}
