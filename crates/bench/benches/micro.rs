//! Criterion micro-benchmarks of one `ParetoStep` (Lemma 2: O(n)), the
//! ε-indicator, and one NSGA-II generation.
//!
//! Random plans, climbs and frontier approximation are timed per call, in
//! the paper's workloads, by `benchmark/` (`core.random_plan.ns_per_call`,
//! `core.climb.us_per_call`, `core.frontier.us_per_call`); fast vs. naive
//! climbing is the `ablations` target's first table.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use moqo_baselines::nsga2::{Nsga2, Nsga2Params};
use moqo_bench::resource_model as model_for;
use moqo_core::arena::PlanArena;
use moqo_core::climb::{pareto_step_in, StepScratch};
use moqo_core::cost::CostVector;
use moqo_core::mutations::MutationSet;
use moqo_core::optimizer::Optimizer;
use moqo_core::pareto::PrunePolicy;
use moqo_core::random_plan::random_plan_in;
use moqo_metrics::epsilon_indicator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_pareto_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("pareto_step");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for n in [10usize, 50, 100] {
        let (model, query) = model_for(n);
        let mut rng = StdRng::seed_from_u64(2);
        let mut arena = PlanArena::new();
        let plan = random_plan_in(&mut arena, &model, query, &mut rng);
        let mut scratch = StepScratch::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(pareto_step_in(
                    &mut arena,
                    plan,
                    &model,
                    PrunePolicy::OnePerFormat,
                    MutationSet::Bushy,
                    &mut scratch,
                ))
            })
        });
    }
    group.finish();
}

fn bench_epsilon_indicator(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut mk = |k: usize| -> Vec<CostVector> {
        (0..k)
            .map(|_| CostVector::new(&[rng.random::<f64>() + 0.1, rng.random::<f64>() + 0.1]))
            .collect()
    };
    let reference = mk(100);
    let approx = mk(50);
    c.bench_function("epsilon_indicator_100x50", |b| {
        b.iter(|| black_box(epsilon_indicator(&reference, &approx)))
    });
}

fn bench_nsga2_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2_generation");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    let (model, query) = model_for(25);
    group.bench_function("pop200_n25", |b| {
        let mut ga = Nsga2::with_params(&model, query, 1, Nsga2Params::default());
        b.iter(|| {
            ga.step();
            black_box(ga.generations())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pareto_step,
    bench_epsilon_indicator,
    bench_nsga2_generation
);
criterion_main!(benches);
