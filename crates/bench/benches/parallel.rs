//! Micro-benchmarks of the intra-query exchange in isolation: publishing a
//! worker's multi-table frontiers into a `SharedFrontier`, and re-publishing
//! them.
//!
//! `ParRmq` thread scaling is recorded by the perf-baseline harness
//! (`par_rmq[]` in `BENCH_rmq.json`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use moqo_bench::resource_model;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_parallel::SharedFrontier;

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_frontier");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    // A worker frontier to publish, produced once.
    let (model, query) = resource_model(12);
    let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(7));
    for _ in 0..30 {
        rmq.iterate();
    }
    // Every multi-table frontier of the cache, the query's included.
    let sets = || {
        rmq.cache()
            .entry_sets()
            .filter(|(rel, _)| !rel.is_singleton())
    };
    group.bench_function("first_publish", |b| {
        b.iter(|| {
            let shared = SharedFrontier::new();
            black_box(shared.publish_partials(rmq.arena(), sets()))
        })
    });
    group.bench_function("duplicate_publish", |b| {
        // Steady state: the frontiers are already merged, so a re-publish
        // is pure dominance rejections — the exchange overhead a worker
        // pays when it has found nothing new.
        let shared = SharedFrontier::new();
        shared.publish_partials(rmq.arena(), sets());
        b.iter(|| black_box(shared.publish_partials(rmq.arena(), sets())))
    });
    group.finish();
}

criterion_group!(benches, bench_exchange);
criterion_main!(benches);
