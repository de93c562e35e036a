//! Shared fixtures for the benchmark targets (`benches/`) and the
//! deterministic perf-baseline harness (`src/bin/harness.rs`).
//!
//! Everything here is seeded and deterministic: the same inputs drive the
//! Criterion micro-benchmarks and the `BENCH_rmq.json` baseline runs, so
//! numbers from either source are comparable across PRs.

use moqo_core::archive::Admission;
use moqo_core::cost::CostVector;
use moqo_core::model::{OutputFormat, PlanProps, ScanOpId};
use moqo_core::pareto::ParetoSet;
use moqo_core::plan::{Plan, PlanRef};
use moqo_core::{TableId, TableSet};
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The standard benchmark workload: an `n`-table cycle query over the
/// time/buffer resource cost model (the two-metric configuration of the
/// paper's main figures), deterministically seeded.
pub fn resource_model(n: usize) -> (ResourceCostModel, TableSet) {
    let (catalog, query) = WorkloadSpec {
        tables: n,
        shape: GraphShape::Cycle,
        selectivity: SelectivityMethod::Steinbrunn,
        seed: 7,
    }
    .generate();
    (
        ResourceCostModel::new(catalog, &[ResourceMetric::Time, ResourceMetric::Buffer]),
        query.tables(),
    )
}

/// The three-metric variant of [`resource_model`] (time/buffer/disk): the
/// paper's many-objective configuration, used where heavier cost vectors
/// matter (e.g. the arena mutate kernel).
pub fn resource_model_3d(n: usize) -> (ResourceCostModel, TableSet) {
    let (catalog, query) = WorkloadSpec {
        tables: n,
        shape: GraphShape::Cycle,
        selectivity: SelectivityMethod::Steinbrunn,
        seed: 7,
    }
    .generate();
    (
        ResourceCostModel::new(
            catalog,
            &[
                ResourceMetric::Time,
                ResourceMetric::Buffer,
                ResourceMetric::Disk,
            ],
        ),
        query.tables(),
    )
}

/// A deterministic stream of fabricated plans with random cost vectors and
/// output formats — the candidate stream for the Pareto-insert benches.
///
/// The plans are single-scan nodes built through `Plan::scan_from_props`
/// (the pruning structures read only cost and format, so the tree shape is
/// irrelevant); costs are uniform in `[0.1, 100.1)` per metric, which keeps
/// a large mutually incomparable frontier alive and makes the insert path —
/// not trivial rejections — the measured work.
pub fn candidate_stream(len: usize, dim: usize, formats: u8, seed: u64) -> Vec<PlanRef> {
    assert!(formats >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let cost: Vec<f64> = (0..dim)
                .map(|_| rng.random::<f64>() * 100.0 + 0.1)
                .collect();
            let format = OutputFormat(rng.random_range(0..formats));
            Plan::scan_from_props(
                TableId::new(0),
                ScanOpId(0),
                PlanProps {
                    cost: CostVector::new(&cost),
                    rows: 1.0,
                    pages: 1.0,
                    format,
                },
            )
        })
        .collect()
}

/// Sets [`admit_cached_shape`] deals its candidates to, round-robin.
const CACHED_SHAPE_SETS: usize = 256;

/// Candidates for the shape of almost every cached table set in the
/// benchmark's sessions (79–99.9 % of them): two output formats and at most
/// 8 members. Costs lie on an anti-correlated front (`Σ c_k ≈ 50·dim`, each
/// in `[1, 100)`), 8 per set of [`admit_cached_shape`].
pub fn cached_shape_stream(dim: usize, seed: u64) -> Vec<(CostVector, OutputFormat)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = 50.0 * dim as f64;
    (0..8 * CACHED_SHAPE_SETS)
        .map(|_| {
            let mut v: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 99.0 + 1.0).collect();
            let scale = total / v.iter().sum::<f64>();
            for c in &mut v {
                *c = (*c * scale).clamp(1.0, 100.0);
            }
            (CostVector::new(&v), OutputFormat(rng.random_range(0..2)))
        })
        .collect()
}

/// Deals a [`cached_shape_stream`] round-robin to 256 fresh sets under
/// α = 2 pruning — most candidates are rejected, and each set ends with a
/// handful of tradeoffs per format.
pub fn admit_cached_shape(stream: &[(CostVector, OutputFormat)]) -> Vec<ParetoSet<u32>> {
    let adm = Admission::approx(2.0);
    let mut sets: Vec<ParetoSet<u32>> = (0..CACHED_SHAPE_SETS).map(|_| ParetoSet::new()).collect();
    for (i, (cost, format)) in stream.iter().enumerate() {
        sets[i % CACHED_SHAPE_SETS].admit(cost, *format, &adm, || i as u32);
    }
    sets
}

/// Deterministic pairs of random cost vectors for dominance-relation
/// benches.
pub fn cost_pairs(len: usize, dim: usize, seed: u64) -> Vec<(CostVector, CostVector)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let draw = |rng: &mut StdRng| {
        let v: Vec<f64> = (0..dim)
            .map(|_| rng.random::<f64>() * 100.0 + 0.1)
            .collect();
        CostVector::new(&v)
    };
    (0..len).map(|_| (draw(&mut rng), draw(&mut rng))).collect()
}
