//! Congestion showdown: why the paper exists.
//!
//! §4.1's claim: trying `x` colors at once takes `Θ(x·log|C|)` bits per
//! edge if you ship raw colors (the LOCAL approach), but only `O(log n)`
//! bits with a representative hash index plus a σ-bit window bitmap. We
//! measure both on the same graph: first a single trial operation of
//! `x = 32` colors, then the end-to-end pipelines.
//!
//! ```text
//! cargo run --release --example congestion_showdown
//! ```

use congest_coloring::congest::SimConfig;
use congest_coloring::d1lc::baseline::NaiveMultiTrialPass;
use congest_coloring::d1lc::driver::Driver;
use congest_coloring::d1lc::multitrial::MultiTrialPass;
use congest_coloring::d1lc::pipeline::initial_states;
use congest_coloring::d1lc::{solve, solve_naive_multitrial, ParamProfile, SolveOptions};
use congest_coloring::graphs::gen;
use congest_coloring::graphs::palette::{check_coloring, random_lists};

fn main() {
    let n = 1024;
    let graph = gen::gnp(n, 24.0 / n as f64, 3);
    let color_bits = 60;
    let lists = random_lists(&graph, color_bits, 4, 9);
    let bandwidth = SimConfig::congest_bits(n, 6); // "O(log n)" bits/edge/round
    println!(
        "n = {n}, Δ = {}, colors are {color_bits}-bit values, bandwidth = {bandwidth} bits/edge/round",
        graph.max_degree()
    );

    // --- One trial operation: try x = 32 colors on every node at once. ---
    let x = 32u32;
    let profile = ParamProfile::laptop();
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
    println!("\n-- one MultiTrial({x}) operation --");
    println!(
        "{:<40} {:>8} bits/edge",
        "representative hash + window bitmap", ours_bits
    );
    println!(
        "{:<40} {:>8} bits/edge",
        format!("naive ({x} raw {color_bits}-bit colors)"),
        naive_bits
    );
    println!(
        "{:<40} {:>8.1}x",
        "bandwidth advantage",
        naive_bits as f64 / ours_bits.max(1) as f64
    );

    // --- End to end (honesty check at laptop scale). ---
    let ours = solve(&graph, &lists, SolveOptions::seeded(1)).expect("solve");
    check_coloring(&graph, &lists, &ours.coloring).expect("proper");
    let naive = solve_naive_multitrial(&graph, &lists, 8, SolveOptions::seeded(1)).expect("naive");
    check_coloring(&graph, &lists, &naive.coloring).expect("proper");
    println!("\n-- end-to-end (laptop scale) --");
    println!("{:<40} {:>14} {:>14}", "", "pipeline (us)", "naive trials");
    println!(
        "{:<40} {:>14} {:>14}",
        "synchronous rounds",
        ours.rounds(),
        naive.rounds()
    );
    println!(
        "{:<40} {:>14} {:>14}",
        "max bits/edge/round",
        ours.log.max_edge_bits(),
        naive.log.max_edge_bits()
    );
    println!(
        "{:<40} {:>14} {:>14}",
        format!("normalized to {bandwidth}-bit messages"),
        ours.normalized_rounds(bandwidth),
        naive.normalized_rounds(bandwidth)
    );
    println!("\nnote: at n = {n} the pipeline's fixed pass structure dominates its round");
    println!("count — the asymptotic O(log^5 log n) vs O(log n) crossover lies beyond");
    println!("laptop scale. The per-edge bit costs above are the scale-free claim.");
}
