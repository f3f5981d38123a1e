//! E9/E12 timing benches: one MultiTrial pass, representative-hash
//! (Alg. 4) vs uniform (Alg. 5) vs naive.

use bench::workloads::gnp_d1c;
use congest::SimConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use d1lc::baseline::NaiveMultiTrialPass;
use d1lc::driver::Driver;
use d1lc::multitrial::MultiTrialPass;
use d1lc::pipeline::{initial_states, SolveOptions};
use d1lc::ParamProfile;
use std::time::Duration;

fn bench_multitrial_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("multitrial-pass");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let n = 256usize;
    let inst = gnp_d1c(n, 5);
    let profile = ParamProfile::laptop();
    let opts = SolveOptions::seeded(3);
    let make_states = || {
        let mut states = initial_states(&inst.graph, &inst.lists, &profile, opts.seed);
        for st in &mut states {
            st.active = true;
            for a in &mut st.neighbor_active {
                *a = true;
            }
        }
        states
    };
    let x = 4u32;
    let uniform = ParamProfile {
        uniform: true,
        ..profile
    };
    group.bench_function(BenchmarkId::new("rep-hash", n), |b| {
        b.iter(|| {
            let mut driver = Driver::new(&inst.graph, SimConfig::seeded(1));
            let mut states = make_states();
            driver
                .run_in_place("mt", &mut states, |st| {
                    MultiTrialPass::new(st, x, &profile, 42, n, "mt")
                })
                .expect("pass");
            states
        })
    });
    group.bench_function(BenchmarkId::new("uniform", n), |b| {
        b.iter(|| {
            let mut driver = Driver::new(&inst.graph, SimConfig::seeded(1));
            let mut states = make_states();
            driver
                .run_in_place("mt", &mut states, |st| {
                    MultiTrialPass::new(st, x, &uniform, 42, n, "mt")
                })
                .expect("pass");
            states
        })
    });
    group.bench_function(BenchmarkId::new("naive", n), |b| {
        b.iter(|| {
            let mut driver = Driver::new(&inst.graph, SimConfig::seeded(1));
            let mut states = make_states();
            driver
                .run_in_place("mt", &mut states, |st| NaiveMultiTrialPass::new(st, x, 16))
                .expect("pass");
            states
        })
    });
    group.finish();
}

criterion_group!(benches, bench_multitrial_variants);
criterion_main!(benches);
