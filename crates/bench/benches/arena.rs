//! Micro-benchmark of the hash-consed plan arena's intern probe:
//! re-interning a known plan stream, where every node is a dedup hit.
//!
//! Building and mutating plans are timed by the perf-baseline harness
//! (`cargo run -p moqo-bench --bin harness`: `plan_build_arena` and
//! `plan_mutate_arena` in `micro[]`, the build arena's interning stats in
//! `arena`), on the same fixture and seeds.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use moqo_bench::minmax_chain;
use moqo_core::arena::PlanArena;
use moqo_core::random_plan::random_plan_in;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_intern_probe(c: &mut Criterion) {
    let (model, query) = minmax_chain(12);
    let mut arena = PlanArena::new();
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..1024 {
        random_plan_in(&mut arena, &model, query, &mut rng);
    }
    let mut group = c.benchmark_group("plan_intern_probe");
    group
        .measurement_time(Duration::from_secs(1))
        .sample_size(20);
    let probe_rng = StdRng::seed_from_u64(31);
    group.bench_function("rebuild_interned_stream", |b| {
        b.iter(|| {
            let mut rng = probe_rng.clone();
            let mut n = 0usize;
            for _ in 0..256 {
                n += random_plan_in(&mut arena, &model, query, &mut rng).index();
            }
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_intern_probe);
criterion_main!(benches);
