//! End-to-end solve benchmark: the full D1LC pipeline on the S1 workload
//! family (G(n, 24/n) with shared-window lists) on the session engine,
//! at one and eight engine threads.
//!
//! It exists so `cargo bench -p bench --bench solve_pipeline`
//! (`just bench-solve`) tracks the whole solve path, engine *and* pass
//! compute.

use bench::workloads;
use congest::SimConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use d1lc::{solve, SolveOptions};
use std::time::Duration;

/// The S1 family at the largest quick-scale n.
const N: usize = 1024;

fn bench_solve_pipeline(c: &mut Criterion) {
    let inst = workloads::gnp_window(N, 1);
    let mut group = c.benchmark_group("solve-pipeline");
    group
        .sample_size(5)
        .measurement_time(Duration::from_secs(20));
    for threads in [1usize, 8] {
        let opts = SolveOptions {
            sim: SimConfig {
                threads,
                ..SimConfig::default()
            },
            ..SolveOptions::seeded(1)
        };
        group.bench_function(format!("session/t{threads}"), |b| {
            b.iter(|| solve(&inst.graph, &inst.lists, opts).expect("solve"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solve_pipeline);
criterion_main!(benches);
