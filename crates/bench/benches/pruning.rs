//! Micro-benchmark of the approximate dominance relation (`α = 2`) at
//! d ∈ {2, 4, 6} — the comparison under every approximate-frontier prune.
//!
//! The Pareto-set kernels themselves (strict dominance, member-array vs.
//! linear-scan insertion, cached-shape admission, the arena climb) are
//! timed by the perf-baseline harness (`cargo run -p moqo-bench --bin
//! harness`, the `micro[]` section of `BENCH_rmq.json`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use moqo_bench::uniform_costs;

fn bench_dominance(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominance");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(50);
    for dim in [2usize, 4, 6] {
        let costs = uniform_costs(2048, dim, 11);
        group.bench_with_input(BenchmarkId::new("approx2", dim), &dim, |b, _| {
            b.iter(|| {
                let mut n = 0usize;
                for pair in costs.chunks_exact(2) {
                    n += usize::from(pair[0].approx_dominates(&pair[1], 2.0));
                }
                black_box(n)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dominance);
criterion_main!(benches);
