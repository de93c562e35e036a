//! Micro-benchmarks of the hash-consed plan arena: plan building,
//! root-mutation enumeration, and re-interning a known plan stream — the
//! representation kernels under every RMQ iteration.
//!
//! The deterministic perf-baseline harness (`cargo run -p moqo-bench --bin
//! harness`) measures the build and mutate kernels with the same seeds and
//! archives the numbers in `BENCH_rmq.json`; this target exists for
//! interactive `cargo bench` exploration.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use moqo_bench::{resource_model, resource_model_3d};
use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::mutations::{root_mutations_in, MutationSet};
use moqo_core::random_plan::random_plan_in;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_build");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for tables in [8usize, 12, 20] {
        let (model, query) = resource_model(tables);
        // One arena reused across iterations: the per-session steady state.
        let mut arena = PlanArena::new();
        group.bench_with_input(BenchmarkId::new("arena", tables), &tables, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(31);
                let mut plans = Vec::with_capacity(256);
                for _ in 0..256 {
                    plans.push(random_plan_in(&mut arena, &model, query, &mut rng));
                }
                black_box(plans.len())
            })
        });
    }
    group.finish();
}

fn bench_mutate(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_mutate");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    // Three metrics: the many-objective configuration where candidate
    // costing is at its most expensive — the regime memoized costing wins.
    let (model, query) = resource_model_3d(12);
    let mut arena = PlanArena::new();
    let ids: Vec<PlanId> = {
        let mut rng = StdRng::seed_from_u64(33);
        (0..256)
            .map(|_| random_plan_in(&mut arena, &model, query, &mut rng))
            .collect()
    };
    let mut out_ids: Vec<PlanId> = Vec::new();
    group.bench_function("arena", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &id in &ids {
                out_ids.clear();
                root_mutations_in(&mut arena, id, &model, MutationSet::Bushy, &mut out_ids);
                total += out_ids.len();
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_dedup(c: &mut Criterion) {
    // Not a timing comparison: reports how hard interning works on a
    // realistic stream (the dedup rate also lands in BENCH_rmq.json).
    let (model, query) = resource_model(12);
    let mut arena = PlanArena::new();
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..1024 {
        random_plan_in(&mut arena, &model, query, &mut rng);
    }
    eprintln!(
        "arena dedup over 1024 random 12-table plans: {} nodes, {:.1}% hit rate",
        arena.len(),
        arena.stats().dedup_rate() * 100.0
    );
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

criterion_group!(benches, bench_build, bench_mutate, bench_dedup);
criterion_main!(benches);
