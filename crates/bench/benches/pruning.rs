//! Micro-benchmarks of the Pareto-pruning kernel: raw dominance relations,
//! bucketed vs. linear-scan `ParetoSet` insertion (climb and approximate
//! pruning), and the scratch-reusing arena climb `Rmq` runs.
//!
//! The bucketed-vs-linear groups quantify the PR-2 hot-path overhaul: the
//! format-bucketed, aggregate-key-filtered `ParetoSet` against the flat
//! `Vec<PlanRef>` reference (`LinearParetoSet`) over identical candidate
//! streams. The deterministic perf-baseline harness
//! (`cargo run -p moqo-bench --bin harness`) measures the same kernels and
//! archives the numbers in `BENCH_rmq.json`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use moqo_bench::{candidate_stream, cost_pairs, resource_model};
use moqo_core::archive::Admission;
use moqo_core::arena::PlanArena;
use moqo_core::climb::{pareto_climb_in, ClimbConfig, StepScratch};
use moqo_core::pareto::{LinearParetoSet, ParetoSet, PrunePolicy};
use moqo_core::random_plan::random_plan_in;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_dominance(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominance");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(50);
    for dim in [2usize, 4, 6] {
        let pairs = cost_pairs(1024, dim, 11);
        group.bench_with_input(BenchmarkId::new("strict", dim), &dim, |b, _| {
            b.iter(|| {
                let mut n = 0usize;
                for (a, bb) in &pairs {
                    n += usize::from(a.strictly_dominates(bb));
                }
                black_box(n)
            })
        });
        group.bench_with_input(BenchmarkId::new("approx2", dim), &dim, |b, _| {
            b.iter(|| {
                let mut n = 0usize;
                for (a, bb) in &pairs {
                    n += usize::from(a.approx_dominates(bb, 2.0));
                }
                black_box(n)
            })
        });
    }
    group.finish();
}

fn bench_insert_approx(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_approx");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);
    // Small-frontier, large-frontier, and the harness-headline stream: the
    // bucketed set pays a small constant (hash probe, metadata upkeep) that
    // only amortizes once frontiers hold more than a handful of members —
    // the regime the dimension/format growth of the workload pushes into.
    for &(len, dim, formats) in &[(256usize, 3usize, 4u8), (512, 4, 2), (1024, 4, 4)] {
        let stream = candidate_stream(len, dim, formats, 13);
        let id = format!("{len}x{dim}d{formats}f");
        group.bench_with_input(BenchmarkId::new("bucketed", &id), &stream, |b, stream| {
            b.iter(|| {
                let mut set = ParetoSet::new();
                for p in stream {
                    set.insert(p.clone(), &Admission::approx(1.0));
                }
                black_box(set.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", &id), &stream, |b, stream| {
            b.iter(|| {
                let mut set = LinearParetoSet::new();
                for p in stream {
                    set.admit(p.clone(), &Admission::approx(1.0));
                }
                black_box(set.len())
            })
        });
    }
    group.finish();
}

fn bench_insert_climb(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_climb");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);
    let stream = candidate_stream(1024, 4, 4, 17);
    for policy in [PrunePolicy::OnePerFormat, PrunePolicy::KeepIncomparable] {
        let id = format!("{policy:?}");
        group.bench_with_input(BenchmarkId::new("bucketed", &id), &stream, |b, stream| {
            b.iter(|| {
                let mut set = ParetoSet::new();
                for p in stream {
                    set.insert(p.clone(), &Admission::climb(policy));
                }
                black_box(set.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", &id), &stream, |b, stream| {
            b.iter(|| {
                let mut set = LinearParetoSet::new();
                for p in stream {
                    set.admit(p.clone(), &Admission::climb(policy));
                }
                black_box(set.len())
            })
        });
    }
    group.finish();
}

fn bench_climb_step_scratch(c: &mut Criterion) {
    // The production climb, as `Rmq` runs it every iteration: clear the
    // transient arena, draw the start plan, climb with a long-lived scratch.
    let mut group = c.benchmark_group("climb_step");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for n in [10usize, 50, 100] {
        let (model, query) = resource_model(n);
        let cfg = ClimbConfig::default();
        let mut arena = PlanArena::new();
        let mut scratch = StepScratch::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                arena.clear();
                let start =
                    random_plan_in(&mut arena, &model, query, &mut StdRng::seed_from_u64(2));
                black_box(pareto_climb_in(
                    &mut arena,
                    start,
                    &model,
                    &cfg,
                    &mut scratch,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dominance,
    bench_insert_approx,
    bench_insert_climb,
    bench_climb_step_scratch
);
criterion_main!(benches);
