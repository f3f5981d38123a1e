//! CONGEST legality: under a strict bandwidth policy the engine rejects
//! any pass that puts more than the cap on one edge in one round. These
//! tests *prove* our protocols fit in `O(log n)`-bit messages (with the
//! practical profile's constants) and that the LOCAL-style baseline does
//! not.

use congest_coloring::congest::{Bandwidth, SimConfig};
use congest_coloring::d1lc::{
    solve, solve_naive_multitrial, solve_random_trial, ParamProfile, SolveOptions,
};
use congest_coloring::estimate::{
    find_four_cycle_rich_wedges, find_triangle_rich_edges, run_neighborhood_similarity,
    SimilarityScheme,
};
use congest_coloring::graphs::gen;
use congest_coloring::graphs::palette::{check_coloring, random_lists};

/// The practical-profile cap: our largest messages are the σ-capped
/// signatures/bitmaps (≤ 512 bits) plus small headers. As a multiple of
/// log₂ n this is the O(log n) claim with an explicit constant.
fn strict_cap(n: usize) -> u64 {
    SimConfig::congest_bits(n, 64)
}

#[test]
fn full_pipeline_is_congest_legal_under_strict_cap() {
    let n = 512;
    let g = gen::gnp(n, 24.0 / n as f64, 3);
    let lists = random_lists(&g, 60, 0, 7);
    let opts = SolveOptions {
        sim: SimConfig {
            bandwidth: Bandwidth::Strict(strict_cap(n)),
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(5)
    };
    let result = solve(&g, &lists, opts).expect("pipeline exceeded the strict bandwidth cap");
    assert_eq!(check_coloring(&g, &lists, &result.coloring), Ok(()));
}

#[test]
fn blend_pipeline_is_congest_legal() {
    let g = gen::clique_blend(Default::default(), 11);
    let lists = random_lists(&g, 48, 0, 3);
    let opts = SolveOptions {
        sim: SimConfig {
            bandwidth: Bandwidth::Strict(strict_cap(g.n())),
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(7)
    };
    let result = solve(&g, &lists, opts).expect("dense machinery exceeded the cap");
    assert_eq!(check_coloring(&g, &lists, &result.coloring), Ok(()));
}

#[test]
fn uniform_acd_pipeline_is_congest_legal() {
    // The §5 path: explicit hashing + samplers + ECC, same O(log n) cap.
    let g = gen::clique_blend(Default::default(), 13);
    let lists = random_lists(&g, 48, 0, 9);
    let opts = SolveOptions {
        profile: ParamProfile {
            uniform: true,
            ..ParamProfile::laptop()
        },
        sim: SimConfig {
            bandwidth: Bandwidth::Strict(strict_cap(g.n())),
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(11)
    };
    let result = solve(&g, &lists, opts).expect("uniform pipeline exceeded the cap");
    assert_eq!(check_coloring(&g, &lists, &result.coloring), Ok(()));
}

#[test]
fn slackcolor_multitrial_is_congest_legal_under_both_hashes() {
    // Without SlackColor's TryColor warm-up its MultiTrial passes (the
    // 4-round ones) have participants, so the pipeline runs Alg. 4's
    // representative hash and Alg. 5's pairwise hash under the cap.
    let g = gen::clique_blend(Default::default(), 13);
    let lists = random_lists(&g, 48, 0, 9);
    for uniform in [false, true] {
        let opts = SolveOptions {
            profile: ParamProfile {
                slackcolor_initial_trials: 0,
                uniform,
                ..ParamProfile::laptop()
            },
            sim: SimConfig {
                bandwidth: Bandwidth::Strict(strict_cap(g.n())),
                ..SimConfig::default()
            },
            ..SolveOptions::seeded(11)
        };
        let result = solve(&g, &lists, opts).expect("MultiTrial exceeded the cap");
        assert_eq!(check_coloring(&g, &lists, &result.coloring), Ok(()));
        let messages: u64 = result
            .log
            .passes()
            .iter()
            .filter(|p| p.name.starts_with("slack-") && p.report.rounds == 4)
            .map(|p| p.report.messages)
            .sum();
        assert!(messages > 0, "no MultiTrial message, uniform: {uniform}");
    }
}

#[test]
fn baseline_random_trial_is_congest_legal() {
    let n = 256;
    let g = gen::gnp(n, 0.08, 9);
    let lists = random_lists(&g, 48, 0, 5);
    let opts = SolveOptions {
        sim: SimConfig {
            bandwidth: Bandwidth::Strict(strict_cap(n)),
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(1)
    };
    solve_random_trial(&g, &lists, opts).expect("one color per round fits trivially");
}

#[test]
fn naive_multitrial_blows_the_cap() {
    let n = 256;
    let g = gen::gnp(n, 0.1, 2);
    let lists = random_lists(&g, 60, 0, 3);
    let opts = SolveOptions {
        sim: SimConfig {
            bandwidth: Bandwidth::Strict(strict_cap(n)),
            ..SimConfig::default()
        },
        ..SolveOptions::seeded(1)
    };
    // 32 raw 60-bit colors = 1920 bits > 64·log₂(256) = 512.
    let result = solve_naive_multitrial(&g, &lists, 32, opts);
    assert!(
        result.is_err(),
        "the LOCAL-style baseline should violate CONGEST"
    );
}

#[test]
fn estimation_protocols_are_congest_legal() {
    let n = 200;
    let g = gen::gnp(n, 0.1, 4);
    let cfg = SimConfig {
        bandwidth: Bandwidth::Strict(strict_cap(n)),
        ..SimConfig::seeded(3)
    };
    // The standalone protocols use Lemma 2's honest ε⁻⁴-scale windows,
    // which exceed 64·log n for small ε; run them at the coarse ε used in
    // protocols (the cap then holds).
    let scheme = SimilarityScheme {
        sigma_cap: 384,
        ..SimilarityScheme::practical(0.25)
    };
    run_neighborhood_similarity(&g, scheme, cfg, 7).expect("similarity protocol");
    find_triangle_rich_edges(&g, 0.5, scheme, cfg, 9).expect("triangle protocol");
}

#[test]
fn four_cycle_detector_fits_wider_cap() {
    // Theorem 3's messages are σ-bit signatures; with the practical σ=512
    // they fit a 64·log n cap at n = 512.
    let g = gen::four_cycle_rich(300, 20, 0.02, 5);
    let cfg = SimConfig {
        bandwidth: Bandwidth::Strict(strict_cap(512)),
        ..SimConfig::seeded(2)
    };
    find_four_cycle_rich_wedges(&g, 0.5, cfg, 3).expect("four-cycle protocol");
}
