//! Micro-benchmarks of the pseudorandom substrate: representative-hash
//! set operators, pairwise hashing, Reed–Solomon encoding, samplers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estimate::{window_signature, EdgeSetup, SimilarityScheme};
use prand::{mix64, IdCode, MultisetSampler, PairwiseFamily, RangeHash, RepHashFamily, RepParams};

fn bench_rep_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("rep-hash");
    let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 2400, 256, 16);
    let fam = RepHashFamily::new(7, params);
    let h = fam.member(3);
    let set: Vec<u64> = (0..400u64).map(|i| i * 131).collect();
    group.bench_function("hash", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            h.hash(i)
        })
    });
    group.bench_with_input(BenchmarkId::new("isolated", set.len()), &set, |b, s| {
        b.iter(|| h.isolated(s, s))
    });
    group.bench_with_input(
        BenchmarkId::new("window-bitmap", set.len()),
        &set,
        |b, s| b.iter(|| h.window_bitmap(s)),
    );
    // One node's ACD signing round at the dense-solve shape, table build
    // included: a 100-neighbour set at k = 16 (σ = 512) becomes one
    // 1,600-point table, signed under 100 family members, one per
    // incident edge.
    let scheme = SimilarityScheme {
        sigma_cap: 512,
        scale_cap: 16,
        ..SimilarityScheme::practical(0.5)
    };
    let setup = EdgeSetup::new(&scheme, 100, 100, 11, 13);
    assert_eq!((setup.k, setup.sigma()), (16, 512));
    let neighbourhood: Vec<u64> = (0..100u64).map(|i| i * 37 + 5).collect();
    let members: Vec<RangeHash> = (0..100).map(|i| setup.family.member(i)).collect();
    group.bench_with_input(
        BenchmarkId::new("window-signature", neighbourhood.len()),
        &neighbourhood,
        |b, s| {
            b.iter(|| {
                let table = setup.table(s);
                members
                    .iter()
                    .map(|h| {
                        let mut words = vec![0; setup.words()];
                        window_signature(h, &table, &mut words);
                        words
                    })
                    .collect::<Vec<_>>()
            })
        },
    );
    group.finish();
}

fn bench_pairwise_and_mix(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash-primitives");
    let fam = PairwiseFamily::new(3, 1 << 20, 16);
    let h = fam.member(9);
    group.bench_function("pairwise-hash", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            h.hash(i)
        })
    });
    group.bench_function("mix64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            mix64(i)
        })
    });
    group.finish();
}

fn bench_ecc_and_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc-sampler");
    let code = IdCode::new();
    group.bench_function("id-encode", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            code.encode(i)
        })
    });
    let sampler = MultisetSampler::new(5, 10_000, 256, 16);
    group.bench_function("multiset-256", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = (seed + 1) % sampler.num_seeds();
            sampler.multiset(seed).sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rep_hash,
    bench_pairwise_and_mix,
    bench_ecc_and_sampler
);
criterion_main!(benches);
