//! The dense path — Algorithm 9.
//!
//! 1. `GenerateSlack` among the dense nodes;
//! 2. leader election + slackability classification (App. D.1 — runs
//!    after slack generation because the CONGEST leader score uses the
//!    chromatic slack `κ_v`, see `leader` module docs);
//! 3. put-aside selection in low-slack cliques (Alg. 13);
//! 4. `SlackColor` on the outliers;
//! 5. `SynchColorTrial` (Alg. 14);
//! 6. `SlackColor` on `V^{dense} \ P`;
//! 7. leaders color the put-aside sets (App. D.2).

use crate::config::ParamProfile;
use crate::driver::Driver;
use crate::leader::select_leaders;
use crate::putaside::{color_put_aside, select_put_aside};
use crate::slackcolor::slack_color;
use crate::sparse::min_active_slack;
use crate::state::{AcdClass, NodeState};
use crate::synchtrial::synch_color_trial;
use crate::trycolor::TryColorPass;
use congest::SimError;

/// Run the dense path over the current phase's participants.
///
/// # Errors
///
/// Propagates engine errors.
pub fn color_dense(
    driver: &mut Driver<'_>,
    mut states: Vec<NodeState>,
    profile: &ParamProfile,
    seed: u64,
    delta: usize,
) -> Result<Vec<NodeState>, SimError> {
    let dense = |st: &NodeState| st.class == AcdClass::Dense;
    states = driver.activate(states, |st| dense(st) && st.uncolored())?;
    if Driver::active_count(&states) == 0 {
        return Ok(states);
    }

    // Step 1: GenerateSlack among dense nodes.
    let pg = profile.pg;
    driver.run_in_place("generate-slack-dense", &mut states, |st| {
        TryColorPass::generate_slack(st, pg)
    })?;

    // Step 2: leaders, slackability, inliers.
    states = select_leaders(driver, states, profile, delta)?;

    // Step 3: put-aside sets in low-slack cliques.
    states = select_put_aside(driver, states, profile, delta)?;

    // Step 4: SlackColor on the outliers (non-inliers, incl. leaders).
    states = driver.activate(states, |st| {
        dense(st) && st.uncolored() && !st.is_inlier && !st.put_aside
    })?;
    if Driver::active_count(&states) > 0 {
        let smin = min_active_slack(&states);
        states = slack_color(driver, states, profile, seed ^ 0xd1, smin, "slack-outliers")?;
    }

    // Step 5: SynchColorTrial for the inliers.
    states = driver.activate(states, |st| dense(st) && st.uncolored() && !st.put_aside)?;
    states = synch_color_trial(driver, states)?;

    // Step 6: SlackColor on V^dense \ P.
    states = driver.activate(states, |st| dense(st) && st.uncolored() && !st.put_aside)?;
    if Driver::active_count(&states) > 0 {
        let smin = min_active_slack(&states);
        states = slack_color(driver, states, profile, seed ^ 0xd2, smin, "slack-dense")?;
    }

    // Step 7: leaders color the put-aside sets.
    states = color_put_aside(driver, states)?;
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acd::compute_acd;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph, NodeId};

    fn fresh_active(g: &Graph, extra: usize) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as NodeId);
                let list: Vec<u64> = (0..(d + 1 + extra) as u64).collect();
                let mut st = NodeState::new(
                    v as NodeId,
                    Palette::new(list),
                    ColorCodec::new(&profile, 1, g.n(), 24, d),
                    d,
                );
                st.active = true;
                st.neighbor_active = vec![true; d];
                st.status_heard = (true, true);
                st
            })
            .collect()
    }

    fn assert_proper(g: &Graph, states: &[NodeState]) {
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (states[u as usize].color, states[v as usize].color) {
                assert_ne!(a, b, "conflict on ({u},{v})");
            }
        }
    }

    #[test]
    fn dense_path_colors_disjoint_cliques() {
        let g = gen::disjoint_cliques(3, 16);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(4));
        let states = compute_acd(&mut driver, fresh_active(&g, 0), &profile, 5).unwrap();
        assert!(states.iter().all(|s| s.class == AcdClass::Dense));
        let states = color_dense(&mut driver, states, &profile, 9, g.max_degree()).unwrap();
        assert_proper(&g, &states);
        let uncolored = states.iter().filter(|s| s.uncolored()).count();
        assert!(
            uncolored * 10 <= g.n(),
            "{uncolored}/{} uncolored after the dense path",
            g.n()
        );
    }

    #[test]
    fn dense_path_on_clique_blend() {
        let (g, truth) = gen::planted_acd(2, 20, 0.04, 50, 0.05, 8);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(6));
        let states = compute_acd(&mut driver, fresh_active(&g, 0), &profile, 7).unwrap();
        let states = color_dense(&mut driver, states, &profile, 11, g.max_degree()).unwrap();
        assert_proper(&g, &states);
        // Most planted members that were classified dense get colored.
        let mut dense_total = 0;
        let mut dense_colored = 0;
        for (v, t) in truth.iter().enumerate() {
            if t.is_some() && states[v].class == AcdClass::Dense {
                dense_total += 1;
                if states[v].color.is_some() {
                    dense_colored += 1;
                }
            }
        }
        assert!(dense_total >= 25, "dense pool too small: {dense_total}");
        assert!(
            dense_colored * 10 >= dense_total * 7,
            "{dense_colored}/{dense_total} dense nodes colored"
        );
    }

    #[test]
    fn sparse_nodes_are_left_alone() {
        let g = gen::gnp(80, 0.08, 3);
        let profile = ParamProfile::laptop();
        let mut driver = Driver::new(&g, SimConfig::seeded(2));
        let states = compute_acd(&mut driver, fresh_active(&g, 0), &profile, 3).unwrap();
        let states = color_dense(&mut driver, states, &profile, 5, g.max_degree()).unwrap();
        for st in &states {
            if st.class != AcdClass::Dense {
                assert!(
                    st.uncolored(),
                    "non-dense node {} colored by dense path",
                    st.id
                );
            }
        }
    }
}
