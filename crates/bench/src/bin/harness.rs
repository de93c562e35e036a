//! Deterministic perf-baseline harness: times the Pareto-pruning and plan
//! kernels, and records the structural fields of RMQ, `ParRmq`, the
//! executor and the front door in a machine-readable JSON file
//! (`BENCH_rmq.json` by default) that `bench_diff` gates later runs against.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p moqo-bench --bin harness -- [--quick] [--out PATH]
//! ```
//!
//! (or `scripts/bench.sh`, which CI's `bench-smoke` job also uses). Every
//! emitted field is declared once, with its gate, in `moqo_bench::FIELDS`;
//! the README's "Benchmarks & perf baseline" section lists them.
//!
//! All workloads and seeds are fixed, so the exact-gated fields (frontier
//! sizes, cache and arena occupancy, stage counters, hypervolumes) are
//! bit-for-bit reproducible anywhere; timing fields are meaningful relative
//! to other runs on the same hardware — most of all the speedup ratios,
//! which divide out the machine. End-to-end rates live in `benchmark/`.
//! `--quick` shrinks repetition counts and budgets for CI smoke runs; the
//! checked-in `BENCH_rmq.json` is a full run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use moqo_bench::Gate::{Scaling, Speedup};
use moqo_bench::{gate_of, minmax_chain, resource_model, uniform_costs};
use moqo_core::archive::{Admission, EpsFactors};
use moqo_core::arena::PlanArena;
use moqo_core::climb::{pareto_climb_in, ClimbConfig, StepScratch};
use moqo_core::cost::CostVector;
use moqo_core::model::{OutputFormat, PlanProps, ScanOpId};
use moqo_core::mutations::{root_mutations_in, MutationSet};
use moqo_core::optimizer::{Budget, ConvergencePoint, PlanExchange};
use moqo_core::pareto::{LinearParetoSet, ParetoSet, PrunePolicy, ScreenCounters};
use moqo_core::plan::{Plan, PlanRef};
use moqo_core::random_plan::random_plan_in;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::{TableId, TableSet};
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_frontdoor::{
    Admitted, DegradationConfig, FrontDoor, FrontDoorConfig, FrontRequest, FrontdoorError,
};
use moqo_harness::stats::median_usize;
use moqo_metrics::hypervolume::hypervolume;
use moqo_parallel::{ParRmq, ParRmqConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Schema version of the emitted JSON; bump on any change to
/// `moqo_bench::FIELDS`.
const SCHEMA_VERSION: u32 = 11;

#[derive(Default, Serialize)]
struct Baseline {
    schema_version: u32,
    /// "quick" (CI smoke) or "full" (checked-in baseline).
    mode: String,
    /// `available_parallelism` of the generating host: timing fields only
    /// compare between similar core counts.
    host_parallelism: usize,
    micro: Vec<MicroResult>,
    speedups: Speedups,
    arena: ArenaReport,
    eps_archive: EpsArchiveReport,
    rmq: Vec<RmqResult>,
    par_rmq: Vec<ParRmqResult>,
    exec_pool: ExecPoolReport,
    obs: Vec<ObsFixture>,
    convergence: Vec<ConvergenceFixture>,
    frontdoor: FrontdoorReport,
}

/// One front-door replay of the skewed session stream; every field depends
/// on load and scheduling.
#[derive(Default, Serialize)]
struct FrontdoorRun {
    offered: u64,
    admitted: u64,
    coalesced: u64,
    degraded: u64,
    shed: u64,
    shed_per_mille: u64,
    /// Worst-shard (max over shards) TTFF percentiles, milliseconds.
    ttff_p50_ms: f64,
    ttff_p99_ms: f64,
}

/// One zipfian-skewed session stream replayed twice through identically
/// configured front doors — degradation ladder on, then off (shed-only
/// overload handling). The stream is deterministic; the serving is not.
#[derive(Default, Serialize)]
struct FrontdoorReport {
    sessions: usize,
    tenants: usize,
    shards: usize,
    templates: usize,
    seed: u64,
    tenant_skew: f64,
    query_skew: f64,
    /// Share of the stream issued by the hottest tenant.
    top_tenant_per_mille: u64,
    /// Share of the stream using the hottest query template.
    top_template_per_mille: u64,
    /// Distinct query shapes actually drawn.
    distinct_templates: usize,
    degraded_run: FrontdoorRun,
    plain_run: FrontdoorRun,
    /// Degraded-run shed ‰ over plain-run shed ‰; < 1 means
    /// degrade-before-shed served traffic shedding would have lost.
    degraded_vs_plain_shed: f64,
}

#[derive(Default, Serialize)]
struct ConvergenceCheckpoint {
    iteration: u64,
    frontier_size: usize,
    /// Hypervolume of this checkpoint's own frontier against the fixture's
    /// reference point (componentwise max over all checkpointed costs ×
    /// 1.1). Monotone refinement makes the curve nondecreasing; `obs_check
    /// --convergence` checks that it is.
    hypervolume: f64,
}

/// The anytime convergence curve of one `rmq[]` fixture: the optimizer's
/// own exponentially spaced checkpoints.
#[derive(Default, Serialize)]
struct ConvergenceFixture {
    tables: usize,
    seed: u64,
    points: Vec<ConvergenceCheckpoint>,
    final_hypervolume: f64,
}

/// `moqo-obs` counter deltas around one (sequential, fixed-seed) `rmq[]`
/// run: drift means the climb screens or interns differently.
#[derive(Default, Serialize)]
struct ObsFixture {
    tables: usize,
    seed: u64,
    iterations: u64,
    climb_candidates: u64,
    climb_agg_key_skips: u64,
    climb_dominance_tests: u64,
    climb_rejected: u64,
    climb_admitted: u64,
    climb_evicted: u64,
    pareto_blocks_screened: u64,
    /// Zero under the paper's α-schedule (no ε-box archive).
    pareto_eps_rejects: u64,
    /// The `pareto.archive_size` gauge after the run.
    pareto_archive_size: u64,
    arena_interns: u64,
    arena_dedup_hits: u64,
}

#[derive(Default, Serialize)]
struct MicroResult {
    /// Kernel name, e.g. `insert_approx_bucketed`.
    name: String,
    ops_per_round: u64,
    rounds: u32,
    /// Best observed nanoseconds per operation.
    ns_per_op: f64,
}

/// Optimized-over-reference ratios of `micro` kernel pairs (> 1: the
/// optimized side is faster).
#[derive(Default, Serialize)]
struct Speedups {
    insert_approx_bucketed_vs_linear: f64,
    insert_climb_bucketed_vs_linear: f64,
    dominance_soa_vs_scalar_d8: f64,
}

/// Interning statistics of the `plan_build_arena` kernel's arena.
#[derive(Default, Serialize)]
struct ArenaReport {
    nodes: usize,
    dedup_hits: u64,
    dedup_rate: f64,
}

#[derive(Default, Serialize)]
struct EpsArchivePoint {
    /// Uniform per-metric ε factor of the box archive.
    eps: f64,
    archive_size: usize,
    /// ε-box rejections that exact dominance would have admitted.
    eps_rejects: u64,
}

/// Archive size against ε on one anti-correlated cost stream: the exact
/// archive keeps nearly the whole stream, every ε > 1 archive stays
/// precision-bounded.
#[derive(Default, Serialize)]
struct EpsArchiveReport {
    dim: usize,
    stream_len: usize,
    exact_size: usize,
    points: Vec<EpsArchivePoint>,
    /// `exact_size` over the coarsest ε-archive in `points`; ≥ 5 shows the blowup ε-boxes avoid.
    exact_blowup: f64,
}

#[derive(Default, Serialize)]
struct RmqResult {
    tables: usize,
    metrics: usize,
    seed: u64,
    checkpoints: Vec<RmqCheckpoint>,
    median_path_length: f64,
    cache_table_sets: usize,
    cache_plans: usize,
    arena_nodes: usize,
    arena_dedup_rate: f64,
}

#[derive(Default, Serialize)]
struct RmqCheckpoint {
    iterations: u64,
    frontier_size: usize,
}

/// One `ParRmq` thread count. Live-mode fields depend on scheduling; the
/// `det_*` fields come from a deterministic-mode run with the same budget.
/// Hypervolumes share one reference point per fixture (componentwise max
/// over the deterministic frontiers × 1.1), so they compare across thread
/// counts.
#[derive(Default, Serialize)]
struct ParRmqResult {
    tables: usize,
    threads: usize,
    seed: u64,
    iterations: u64,
    iters_per_sec: f64,
    /// `iters_per_sec` over the one-thread entry's.
    speedup_vs_1_thread: f64,
    live_frontier_size: usize,
    live_hypervolume: f64,
    exchange_publishes: u64,
    exchange_absorbed: u64,
    exchange_partial_offered: u64,
    exchange_partial_merged: u64,
    exchange_partial_epochs: u64,
    exchange_partial_table_sets: usize,
    det_iterations: u64,
    det_frontier_size: usize,
    det_hypervolume: f64,
}

/// One configuration of the oversubscribed workload: total throughput and
/// the p99 time-to-first-frontier, queueing delay included.
#[derive(Default, Serialize)]
struct ExecPoolRun {
    iters_per_sec: f64,
    p99_ttff_ms: f64,
}

/// The oversubscribed mixed-width workload: `sessions` sessions
/// alternating fan-out 1 and `wide_fan_out`, run once as root tasks on a
/// shared `pool_workers`-wide executor and once as one OS thread per
/// session, each fanning out on its own private pool. That second arm
/// keeps the field name `scoped`, so baselines stay comparable.
#[derive(Default, Serialize)]
struct ExecPoolReport {
    sessions: usize,
    pool_workers: usize,
    wide_fan_out: usize,
    iterations_per_session: u64,
    pooled: ExecPoolRun,
    /// One OS thread per session, each on its private pool.
    scoped: ExecPoolRun,
    /// Pooled over scoped iters/sec (> 1 means the shared executor wins).
    pooled_vs_scoped_iters_per_sec: f64,
    /// `exec_pool.*` registry deltas around the pooled run.
    pool_batches: u64,
    pool_steals: u64,
    pool_donations: u64,
}

/// Minimum untimed warm-up of [`time_ns_per_op`].
const WARM_UP: Duration = Duration::from_millis(1);

/// Times `op` over `rounds` rounds of `ops` operations each and
/// returns the best-observed ns/op (minimum is the standard low-noise
/// estimator for microbenchmarks).
fn time_ns_per_op(name: &str, rounds: u32, ops: u64, mut op: impl FnMut()) -> MicroResult {
    // Untimed rounds until WARM_UP has passed: one round can take only a
    // few µs, too little to warm caches and branch predictors.
    let warm_start = Instant::now();
    while warm_start.elapsed() < WARM_UP {
        op();
    }
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        op();
        best = best.min(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    MicroResult {
        name: name.to_string(),
        ops_per_round: ops,
        rounds,
        ns_per_op: best,
    }
}

/// A deterministic stream of fabricated plans with random cost vectors and
/// output formats — the candidate stream of the Pareto-insert kernels.
///
/// The plans are single-scan nodes (the pruning structures read only cost
/// and format); costs are uniform in `[0.1, 100.1)` per metric, which keeps
/// a large mutually incomparable frontier alive and makes the insert path —
/// not trivial rejections — the measured work.
fn candidate_stream(len: usize, dim: usize, formats: u8, seed: u64) -> Vec<PlanRef> {
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

/// An anti-correlated cost stream: points near the simplex
/// `Σ c_k = 50·dim` with coordinates in `[1, 100)`. Nearly every pair is
/// incomparable, so the exact Pareto archive keeps almost the whole
/// stream — the adversarial case for frontier cardinality.
fn anti_correlated_costs(len: usize, dim: usize, seed: u64) -> Vec<CostVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = 50.0 * dim as f64;
    (0..len)
        .map(|_| {
            let mut v: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 99.0 + 1.0).collect();
            let scale = total / v.iter().sum::<f64>();
            for c in &mut v {
                *c = (*c * scale).clamp(1.0, 100.0);
            }
            CostVector::new(&v)
        })
        .collect()
}

/// Sets the cached-shape kernel deals its candidates to, round-robin.
const CACHED_SHAPE_SETS: usize = 256;

/// Deals anti-correlated candidates round-robin to 256 fresh sets under
/// α = 2 pruning, 8 per set in two output formats: the shape of almost
/// every cached table set in the benchmark's sessions (79–99.9 % of them).
/// Most candidates are rejected.
fn admit_cached_shape(stream: &[CostVector]) -> Vec<ParetoSet<u32>> {
    let adm = Admission::approx(2.0);
    let mut sets: Vec<ParetoSet<u32>> = (0..CACHED_SHAPE_SETS).map(|_| ParetoSet::new()).collect();
    let mut screen = ScreenCounters::default();
    for (i, cost) in stream.iter().enumerate() {
        let format = OutputFormat((i / CACHED_SHAPE_SETS % 2) as u8);
        sets[i % CACHED_SHAPE_SETS].admit(cost, format, &adm, &mut screen, || i as u32);
    }
    sets
}

/// Builds the archive-size-vs-ε curve: the same anti-correlated d=8
/// stream admitted under the exact rule and under ε-box archives of
/// increasing coarseness. Fully deterministic.
fn run_eps_archive(quick: bool) -> EpsArchiveReport {
    let dim = 8usize;
    let stream_len = if quick { 1024 } else { 4096 };
    let costs = anti_correlated_costs(stream_len, dim, 23);
    let archive_of = |admission: &Admission| {
        let mut set: ParetoSet<u32> = ParetoSet::new();
        let mut screen = ScreenCounters::default();
        for c in &costs {
            set.admit(c, OutputFormat(0), admission, &mut screen, || 0u32);
        }
        (set.len(), screen.eps_rejects)
    };
    let (exact_size, _) = archive_of(&Admission::exact());
    let points: Vec<EpsArchivePoint> = [1.1f64, 1.25, 1.5, 2.0, 4.0, 8.0]
        .into_iter()
        .map(|eps| {
            let (archive_size, eps_rejects) =
                archive_of(&Admission::eps_box(EpsFactors::splat(eps)));
            EpsArchivePoint {
                eps,
                archive_size,
                eps_rejects,
            }
        })
        .collect();
    let coarsest = points.last().map_or(1, |p| p.archive_size).max(1);
    EpsArchiveReport {
        dim,
        stream_len,
        exact_size,
        points,
        exact_blowup: exact_size as f64 / coarsest as f64,
    }
}

fn run_micro(quick: bool) -> (Vec<MicroResult>, Speedups, ArenaReport) {
    let rounds: u32 = if quick { 5 } else { 30 };
    let mut out = Vec::new();

    // 1. Raw dominance relations (dim 4), on consecutive pairs.
    let pairs = uniform_costs(2048, 4, 11);
    out.push(time_ns_per_op("dominance_strict_d4", rounds, 1024, || {
        let mut n = 0usize;
        for pair in pairs.chunks_exact(2) {
            n += usize::from(pair[0].strictly_dominates(&pair[1]));
        }
        std::hint::black_box(n);
    }));

    // 2. Pareto insertion, bucketed vs. linear, identical streams. Four
    // metrics keep a large mutually incomparable frontier alive — the
    // many-objective regime (arXiv:1404.0046) that motivates fast
    // dominance rejection.
    let stream = candidate_stream(1024, 4, 4, 13);
    let ops = stream.len() as u64;
    let climb = Admission::climb(PrunePolicy::KeepIncomparable);
    for (kind, admission) in [("approx", Admission::approx(1.0)), ("climb", climb)] {
        let name = format!("insert_{kind}_bucketed");
        out.push(time_ns_per_op(&name, rounds, ops, || {
            let mut set = ParetoSet::new();
            let mut screen = ScreenCounters::default();
            for p in &stream {
                set.insert(p.clone(), &admission, &mut screen);
            }
            std::hint::black_box(set.len());
        }));
        let name = format!("insert_{kind}_linear");
        out.push(time_ns_per_op(&name, rounds, ops, || {
            let mut set = LinearParetoSet::new();
            for p in &stream {
                set.admit(p.clone(), &admission);
            }
            std::hint::black_box(set.len());
        }));
    }

    // 2b. Archive dominance screening across dimensions: `ParetoSet::admit`
    // (`_soa`: a member scan below `SOA_CROSSOVER`, the block SoA kernel
    // past it) vs a plain scalar per-member loop (aggregate-key filter +
    // component-wise dominance over a flat `Vec<CostVector>`), both
    // building an exact archive from the same uniform single-format
    // stream. Uniform costs at d ≥ 6 are almost all mutually incomparable,
    // so the archive approaches the stream length — the many-objective
    // regime the block kernel targets; at d ≤ 4 it stays below the
    // crossover.
    for dim in [2usize, 4, 6, 8, 10] {
        let costs = uniform_costs(1024, dim, 19);
        let ops = costs.len() as u64;
        let name = format!("dominance_screen_scalar_d{dim}");
        out.push(time_ns_per_op(&name, rounds, ops, || {
            let mut archive: Vec<(CostVector, f64)> = Vec::new();
            for c in &costs {
                let key = c.agg_key();
                if archive.iter().any(|(m, mk)| *mk <= key && m.dominates(c)) {
                    continue;
                }
                archive.retain(|(m, mk)| !(*mk >= key && c.dominates(m)));
                archive.push((*c, key));
            }
            std::hint::black_box(archive.len());
        }));
        let name = format!("dominance_screen_soa_d{dim}");
        out.push(time_ns_per_op(&name, rounds, ops, || {
            let mut set: ParetoSet<u32> = ParetoSet::new();
            let (exact, mut screen) = (Admission::exact(), ScreenCounters::default());
            for c in &costs {
                set.admit(c, OutputFormat(0), &exact, &mut screen, || 0u32);
            }
            std::hint::black_box(set.len());
        }));
    }

    // 2c. The cached-set shape, timed per admission, set creation and
    // teardown included — the cache pays both.
    for dim in [2usize, 3] {
        let stream = anti_correlated_costs(8 * CACHED_SHAPE_SETS, dim, 29);
        let name = format!("admit_cached_shape_d{dim}");
        out.push(time_ns_per_op(&name, rounds, stream.len() as u64, || {
            std::hint::black_box(admit_cached_shape(&stream));
        }));
    }

    // 3. The production climb on a 50-table cycle query, as `Rmq` runs it
    // every iteration: clear the transient arena, draw the start plan, climb
    // with the long-lived scratch. Reported per `ParetoStep` (the improving
    // steps plus the confirming one), draw included.
    let (model, query) = resource_model(if quick { 20 } else { 50 });
    let cfg = ClimbConfig::default();
    let mut climb_arena = PlanArena::new();
    let mut scratch = StepScratch::default();
    let mut climb = || {
        climb_arena.clear();
        let start = random_plan_in(
            &mut climb_arena,
            &model,
            query,
            &mut StdRng::seed_from_u64(2),
        );
        pareto_climb_in(&mut climb_arena, start, &model, &cfg, &mut scratch).1
    };
    let steps = climb().steps as u64 + 1;
    out.push(time_ns_per_op("climb_step", rounds.min(10), steps, || {
        std::hint::black_box(climb());
    }));

    // 4. The hash-consed arena on the structural fixture, both kernels on
    // a 1024-plan stream of the 12-table query.
    let (pmodel, pquery) = minmax_chain(12);
    const PLAN_STREAM: u64 = 1024;

    // 4a. Build: 1024 uniform random plans. The arena is created once and
    // reused across rounds — the per-session steady state, where repeated
    // subplans are intern hits.
    let mut build_arena = PlanArena::new();
    out.push(time_ns_per_op(
        "plan_build_arena",
        rounds,
        PLAN_STREAM,
        || {
            let mut rng = StdRng::seed_from_u64(31);
            let mut plans = Vec::with_capacity(PLAN_STREAM as usize);
            for _ in 0..PLAN_STREAM {
                plans.push(random_plan_in(&mut build_arena, &pmodel, pquery, &mut rng));
            }
            std::hint::black_box(plans.len());
        },
    ));
    let arena_report = ArenaReport {
        nodes: build_arena.stats().nodes,
        dedup_hits: build_arena.stats().dedup_hits,
        dedup_rate: build_arena.stats().dedup_rate(),
    };

    // 4b. Mutate: enumerate every root mutation (operator changes,
    // commutativity, rotations, exchanges) of each plan — the
    // transformation-rule kernel under every climbing step. Each candidate
    // is interned once and afterwards answered with a hash probe returning
    // the cached properties (memoized costing via hash-consing).
    let mut mutate_arena = PlanArena::new();
    let mutate_ids: Vec<_> = {
        let mut rng = StdRng::seed_from_u64(33);
        (0..PLAN_STREAM)
            .map(|_| random_plan_in(&mut mutate_arena, &pmodel, pquery, &mut rng))
            .collect()
    };
    let mut arena_muts: Vec<moqo_core::arena::PlanId> = Vec::new();
    out.push(time_ns_per_op(
        "plan_mutate_arena",
        rounds.min(10),
        PLAN_STREAM,
        || {
            let mut total = 0usize;
            for &id in &mutate_ids {
                arena_muts.clear();
                root_mutations_in(
                    &mut mutate_arena,
                    id,
                    &pmodel,
                    MutationSet::Bushy,
                    &mut arena_muts,
                );
                total += arena_muts.len();
            }
            std::hint::black_box(total);
        },
    ));

    let ns = |name: &str| {
        out.iter()
            .find(|m| m.name == name)
            .map(|m| m.ns_per_op)
            .unwrap_or(f64::NAN)
    };
    let speedups = Speedups {
        insert_approx_bucketed_vs_linear: ns("insert_approx_linear") / ns("insert_approx_bucketed"),
        insert_climb_bucketed_vs_linear: ns("insert_climb_linear") / ns("insert_climb_bucketed"),
        dominance_soa_vs_scalar_d8: ns("dominance_screen_scalar_d8")
            / ns("dominance_screen_soa_d8"),
    };
    (out, speedups, arena_report)
}

/// The hypervolume reference of a fixture: the componentwise max over
/// `costs`, × 1.1.
fn reference_point<'a>(costs: impl IntoIterator<Item = &'a CostVector>) -> CostVector {
    let mut upper: Vec<f64> = Vec::new();
    for cost in costs {
        upper.resize(cost.dim(), f64::NEG_INFINITY);
        for (u, v) in upper.iter_mut().zip(cost.as_slice()) {
            *u = u.max(*v);
        }
    }
    CostVector::new(&upper).scale(1.1)
}

/// Reduces an optimizer's convergence checkpoints to a hypervolume curve,
/// each point measured on that checkpoint's own frontier.
fn reduce_convergence(tables: usize, seed: u64, points: &[ConvergencePoint]) -> ConvergenceFixture {
    let reference = reference_point(points.iter().flat_map(|p| &p.frontier_costs));
    let points: Vec<ConvergenceCheckpoint> = points
        .iter()
        .map(|p| ConvergenceCheckpoint {
            iteration: p.iteration,
            frontier_size: p.frontier_size,
            hypervolume: hypervolume(&p.frontier_costs, &reference),
        })
        .collect();
    ConvergenceFixture {
        tables,
        seed,
        final_hypervolume: points.last().map_or(0.0, |p| p.hypervolume),
        points,
    }
}

/// The RMQ fixtures: `(tables, iterations)` on the structural fixture.
fn rmq_fixtures(quick: bool) -> &'static [(usize, u64)] {
    if quick {
        &[(12, 60)]
    } else {
        &[(20, 200), (30, 100)]
    }
}

fn run_rmq(quick: bool) -> (Vec<RmqResult>, Vec<ObsFixture>, Vec<ConvergenceFixture>) {
    let mut results = Vec::new();
    let mut obs_fixtures = Vec::new();
    let mut convergence = Vec::new();
    for &(tables, iterations) in rmq_fixtures(quick) {
        let (model, query) = minmax_chain(tables);
        let seed = 42u64;
        let obs_before = moqo_obs::ObsSnapshot::capture();
        let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(seed));
        let mut checkpoints = Vec::new();
        for i in 1..=iterations {
            rmq.iterate();
            if [10, 25, 50, 100].contains(&i) || i == iterations {
                checkpoints.push(RmqCheckpoint {
                    iterations: i,
                    frontier_size: rmq.frontier().len(),
                });
            }
        }
        // The optimizer sampled its own exponentially spaced convergence
        // checkpoints during the loop; force one final sample so the curve
        // ends at the delivered frontier.
        rmq.sample_convergence_now();
        convergence.push(reduce_convergence(tables, seed, rmq.convergence_points()));
        // This run is sequential and only `Rmq::iterate` flushes climb and
        // arena counters, so the registry delta around it is exact.
        let obs_after = moqo_obs::ObsSnapshot::capture();
        let delta = |name: &str| obs_after.counter(name) - obs_before.counter(name);
        obs_fixtures.push(ObsFixture {
            tables,
            seed,
            iterations: delta("rmq.iterations"),
            climb_candidates: delta("climb.candidates"),
            climb_agg_key_skips: delta("climb.agg_key_skips"),
            climb_dominance_tests: delta("climb.dominance_tests"),
            climb_rejected: delta("climb.rejected"),
            climb_admitted: delta("climb.admitted"),
            climb_evicted: delta("climb.evicted"),
            pareto_blocks_screened: delta("pareto.blocks_screened"),
            pareto_eps_rejects: delta("pareto.eps_rejects"),
            pareto_archive_size: obs_after.counter("pareto.archive_size"),
            arena_interns: delta("arena.interns"),
            arena_dedup_hits: delta("arena.dedup_hits"),
        });
        results.push(RmqResult {
            tables,
            metrics: ResourceMetric::ALL.len(),
            seed,
            checkpoints,
            median_path_length: median_usize(&rmq.stats().path_lengths).unwrap_or(0.0),
            cache_table_sets: rmq.cache().num_table_sets(),
            cache_plans: rmq.cache().total_plans(),
            arena_nodes: rmq.arena().stats().nodes,
            arena_dedup_rate: rmq.arena().stats().dedup_rate(),
        });
    }
    (results, obs_fixtures, convergence)
}

/// Runs `ParRmq` on the first RMQ fixture at 1/2/4/8 threads (1/2 in
/// quick mode), all under that fixture's total iteration budget.
fn run_par_rmq(quick: bool) -> Vec<ParRmqResult> {
    let (tables, iterations) = rmq_fixtures(quick)[0];
    let threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let seed = 42u64;
    let (model, query) = minmax_chain(tables);
    let model = Arc::new(model);

    // Deterministic-mode runs first: their frontiers fix the shared
    // hypervolume reference point for this fixture.
    let det_frontiers: Vec<Vec<PlanRef>> = threads
        .iter()
        .map(|&t| {
            let cfg = ParRmqConfig::seeded(seed, t).deterministic();
            let mut par = ParRmq::new(Arc::clone(&model), query, cfg);
            par.optimize(Budget::Iterations(iterations));
            par.frontier()
        })
        .collect();
    let reference = reference_point(det_frontiers.iter().flatten().map(|p| p.cost()));
    let hv = |plans: &[PlanRef]| {
        let costs: Vec<CostVector> = plans.iter().map(|p| *p.cost()).collect();
        hypervolume(&costs, &reference)
    };

    let mut out: Vec<ParRmqResult> = threads
        .iter()
        .zip(det_frontiers)
        .map(|(&t, det_frontier)| {
            let mut par = ParRmq::new(Arc::clone(&model), query, ParRmqConfig::seeded(seed, t));
            let start = Instant::now();
            let stats = par.optimize(Budget::Iterations(iterations));
            let iters_per_sec = stats.iterations as f64 / start.elapsed().as_secs_f64();
            let live_frontier = par.frontier();
            let ex = stats.exchange;
            ParRmqResult {
                tables,
                threads: t,
                seed,
                iterations: stats.iterations,
                iters_per_sec,
                speedup_vs_1_thread: 1.0,
                live_frontier_size: live_frontier.len(),
                live_hypervolume: hv(&live_frontier),
                exchange_publishes: ex.publishes,
                exchange_absorbed: ex.absorbed,
                exchange_partial_offered: ex.partial_offered,
                exchange_partial_merged: ex.partial_merged,
                exchange_partial_epochs: ex.partial_epochs,
                exchange_partial_table_sets: ex.partial_table_sets,
                det_iterations: iterations,
                det_frontier_size: det_frontier.len(),
                det_hypervolume: hv(&det_frontier),
            }
        })
        .collect();
    let one_thread = out[0].iters_per_sec;
    for entry in &mut out {
        entry.speedup_vs_1_thread = entry.iters_per_sec / one_thread;
    }
    out
}

/// Reduces one run of the workload, started at `started`, to its
/// throughput and its p99 time-to-first-frontier (nearest-rank; with 16
/// sessions the slowest one — exactly the tail the executor is meant to
/// fix).
fn exec_pool_run(started: Instant, results: &[(Duration, u64)]) -> ExecPoolRun {
    let elapsed = started.elapsed().as_secs_f64();
    let total_iterations: u64 = results.iter().map(|(_, i)| i).sum();
    let mut ttffs: Vec<_> = results.iter().map(|(t, _)| *t).collect();
    ttffs.sort_unstable();
    let idx = ((ttffs.len() as f64 * 0.99).ceil() as usize).clamp(1, ttffs.len()) - 1;
    ExecPoolRun {
        iters_per_sec: total_iterations as f64 / elapsed,
        p99_ttff_ms: ttffs[idx].as_secs_f64() * 1e3,
    }
}

/// The oversubscribed mixed-width workload: 16 sessions (8 in quick
/// mode), fan-out alternating 1 and 4, on a 4-worker shared executor vs
/// one OS thread per session, each fanning out on its private pool.
fn run_exec_pool(quick: bool) -> ExecPoolReport {
    use moqo_parallel::{ExecPool, TaskSpec, TaskStatus};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let (tables, sessions, pool_workers, per_session): (usize, usize, usize, u64) = if quick {
        (12, 8, 2, 48)
    } else {
        (15, 16, 4, 240)
    };
    let wide_fan_out = 4usize;
    let seed = 42u64;
    let (model, query) = resource_model(tables);
    let model = Arc::new(model);
    // Session `i` of a run started at `started`: a short first slice bounds
    // the time-to-first-frontier (one climb round per worker), then the
    // rest of the budget runs out; TTFF includes queueing delay. On a pool
    // worker `ParRmq` fans out on the shared executor, off-pool on its
    // private pool.
    let session = move |i: usize, started: Instant| {
        let model = Arc::clone(&model);
        move || {
            let fan_out = if i % 2 == 0 { 1 } else { wide_fan_out };
            let mut cfg = ParRmqConfig::seeded(seed + i as u64, fan_out);
            cfg.batch = 8;
            let first_slice = (cfg.batch * fan_out as u64).min(per_session);
            let mut par = ParRmq::new(model, query, cfg);
            let s1 = par.optimize(Budget::Iterations(first_slice));
            let ttff = started.elapsed();
            let s2 = par.optimize(Budget::Iterations(per_session - s1.iterations));
            (ttff, s1.iterations + s2.iterations)
        }
    };

    // Private-pool baseline first, so its pools' counters stay out of the
    // deltas the pooled run is measured by.
    let started = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| scope.spawn(session(i, started)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let scoped = exec_pool_run(started, &results);

    let obs_before = moqo_obs::ObsSnapshot::capture();
    let pool = ExecPool::new(pool_workers);
    let results = Arc::new(Mutex::new(Vec::new()));
    let finished = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    for i in 0..sessions {
        let results = Arc::clone(&results);
        let finished = Arc::clone(&finished);
        let mut run = Some(session(i, started));
        pool.handle().spawn(TaskSpec::root(), move || {
            let run = run.take().expect("session task runs once");
            results.lock().unwrap().push(run());
            finished.fetch_add(1, Ordering::SeqCst);
            TaskStatus::Done
        });
    }
    // The bench thread never helps: helping would run sessions off the
    // shared pool, on private pools of their own.
    while finished.load(Ordering::SeqCst) < sessions {
        std::thread::yield_now();
    }
    let pooled = exec_pool_run(started, &results.lock().unwrap());
    drop(pool);
    let obs_after = moqo_obs::ObsSnapshot::capture();
    let delta = |name: &str| obs_after.counter(name) - obs_before.counter(name);

    ExecPoolReport {
        sessions,
        pool_workers,
        wide_fan_out,
        iterations_per_session: per_session,
        pooled_vs_scoped_iters_per_sec: pooled.iters_per_sec / scoped.iters_per_sec,
        pooled,
        scoped,
        pool_batches: delta("exec_pool.batches"),
        pool_steals: delta("exec_pool.steals"),
        pool_donations: delta("exec_pool.donations"),
    }
}

/// Per-shard live-session cap of the front-door replay. Small enough that
/// saturation (not quota) is the shed mechanism under test, large enough
/// to absorb a zipf-hot tenant's arrival bursts while the degradation
/// ladder (whose thresholds are fractions of this cap) drains the queue.
const FRONTDOOR_SHARD_CAP: usize = 32;

/// The front-door replay's session budget.
const FRONTDOOR_BUDGET: Budget = Budget::Iterations(8);

/// Builds the replay's front door: `shards` single-worker shards with a
/// small live-session cap and a tight TTFF SLO (so the SLO-driven
/// `CoarseEps` tier engages alongside the pressure-driven tiers).
fn frontdoor_door(shards: usize, cap: usize, degrade_enabled: bool) -> FrontDoor {
    use moqo_service::{AdmissionConfig, ServiceConfig, SloConfig};
    FrontDoor::new(FrontDoorConfig {
        shards,
        shard: ServiceConfig {
            workers: 1,
            admission: AdmissionConfig {
                max_live_sessions: cap,
            },
            slo: SloConfig {
                ttff_p99: Some(Duration::from_millis(25)),
                ..SloConfig::default()
            },
        },
        degradation: DegradationConfig {
            enabled: degrade_enabled,
        },
        ..FrontDoorConfig::default()
    })
}

/// Submits session `i` of a replay: an RMQ seeded `i`, at the precision
/// the door grants it.
fn frontdoor_submit(
    door: &FrontDoor,
    model: &Arc<ResourceCostModel>,
    i: usize,
    tenant: u64,
    query: TableSet,
    context: u64,
) -> Result<Admitted, FrontdoorError> {
    let budget = FRONTDOOR_BUDGET;
    let request = FrontRequest {
        tenant,
        query,
        context,
        budget,
    };
    door.submit(request, |grant| {
        let mut cfg = RmqConfig::seeded(i as u64);
        cfg.archive = grant.archive(cfg.archive);
        Box::new(Rmq::new(Arc::clone(model), query, cfg))
    })
}

/// Measures the full-precision per-session drain time on this machine:
/// `n` distinct-key sessions through a single-worker door (serial service),
/// run twice — the first pass is warm-up — returning wall time per session.
fn frontdoor_calibrate(
    sessions: &[moqo_workload::SessionPlan],
    model: &Arc<ResourceCostModel>,
    n: usize,
) -> Duration {
    let n = n.min(sessions.len()).max(1);
    let mut per_session = Duration::ZERO;
    for pass in 0..2 {
        let door = frontdoor_door(1, n, false);
        let start = Instant::now();
        let mut handles = Vec::new();
        for (i, session) in sessions[..n].iter().enumerate() {
            // Distinct contexts defeat coalescing: every request must
            // become (and drain as) its own session.
            let tables = session.query.tables();
            let admitted = frontdoor_submit(&door, model, i, i as u64, tables, i as u64);
            handles.push(admitted.expect("calibration session admitted").handle);
        }
        for handle in &handles {
            handle
                .wait_done(Duration::from_secs(600))
                .expect("calibration session completes");
        }
        if pass == 1 {
            per_session = start.elapsed() / n as u32;
        }
        door.shutdown();
    }
    per_session.max(Duration::from_micros(1))
}

/// Replays one skewed session stream through a front door and reduces the
/// outcome to a [`FrontdoorRun`].
///
/// The submitter paces *session demand*, not raw requests: coalesced
/// requests pass through for free (they join an in-flight session), while
/// every non-coalesced outcome — a new session or a shed — waits one
/// `pace` interval. With `pace` derived from the calibrated full-precision
/// drain time (see [`frontdoor_calibrate`]), demand is pinned above the
/// plain door's capacity but below what the degradation ladder's reduced
/// budgets can drain — which is exactly the degrade-before-shed contract
/// the two runs compare.
fn run_frontdoor_once(
    sessions: &[moqo_workload::SessionPlan],
    model: &Arc<ResourceCostModel>,
    context: u64,
    shards: usize,
    pace: Duration,
    degrade_enabled: bool,
) -> FrontdoorRun {
    let door = frontdoor_door(shards, FRONTDOOR_SHARD_CAP, degrade_enabled);
    let start = Instant::now();
    let mut next_arrival = start + pace;
    let mut handles = Vec::new();
    for (i, session) in sessions.iter().enumerate() {
        let tables = session.query.tables();
        let outcome = frontdoor_submit(&door, model, i, session.tenant, tables, context);
        let coalesced = match outcome {
            Ok(admitted) => {
                let coalesced = admitted.coalesced;
                // Coalesced handles share their leader's session; waiting
                // on them twice is cheap.
                handles.push(admitted.handle);
                coalesced
            }
            Err(_) => false,
        };
        if !coalesced {
            // Yield-wait: `pace` is far below sleep granularity, and on a
            // host with fewer cores than shards a spinning submitter would
            // starve the very workers it is pacing against.
            while Instant::now() < next_arrival {
                std::thread::yield_now();
            }
            next_arrival += pace;
        }
    }
    for handle in &handles {
        handle
            .wait_done(Duration::from_secs(600))
            .expect("front-door session completes");
    }
    let ttff = |p: &dyn Fn(&moqo_service::ServiceStats) -> Option<Duration>| {
        door.shard_stats()
            .iter()
            .filter_map(p)
            .max()
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    let stats = door.stats();
    let run = FrontdoorRun {
        offered: stats.offered,
        admitted: stats.admitted,
        coalesced: stats.coalesced,
        degraded: stats.degraded,
        shed: stats.shed,
        shed_per_mille: stats.shed_per_mille(),
        ttff_p50_ms: ttff(&|s| s.ttff_p50),
        ttff_p99_ms: ttff(&|s| s.ttff_p99),
    };
    door.shutdown();
    run
}

/// The heavy-traffic front-door replay: a zipfian-skewed
/// multi-tenant stream (100k sessions in full mode) replayed twice —
/// degradation ladder on vs off — through otherwise identical front doors.
fn run_frontdoor(quick: bool) -> FrontdoorReport {
    use moqo_service::context_fingerprint;
    use moqo_workload::{GraphShape, SelectivityMethod, TrafficSpec};

    let (sessions, tenants, shards, templates): (usize, usize, usize, usize) = if quick {
        (8_000, 16, 2, 12)
    } else {
        (100_000, 64, 4, 24)
    };
    let (tenant_skew, query_skew) = (1.0f64, 1.0f64);
    let seed = 42u64;
    let spec = TrafficSpec {
        catalog_tables: 12,
        shape: GraphShape::Chain,
        selectivity: SelectivityMethod::Steinbrunn,
        queries: sessions,
        min_query_tables: 3,
        max_query_tables: 5,
        seed,
    };
    let (catalog, stream) = spec.generate_skewed(tenants, tenant_skew, templates, query_skew);
    let metrics = [ResourceMetric::Time, ResourceMetric::Buffer];
    let model = Arc::new(ResourceCostModel::new(Arc::clone(&catalog), &metrics));
    let context = context_fingerprint(catalog.fingerprint(), "resource:time,buffer");

    // Deterministic traffic-shape stats: the gated evidence the generated
    // stream is actually skewed.
    let mut tenant_counts = std::collections::HashMap::new();
    let mut template_counts = std::collections::HashMap::new();
    for s in &stream {
        *tenant_counts.entry(s.tenant).or_insert(0u64) += 1;
        *template_counts.entry(s.query.tables()).or_insert(0u64) += 1;
    }
    fn top_per_mille<K>(counts: &std::collections::HashMap<K, u64>, total: usize) -> u64 {
        counts.values().copied().max().unwrap_or(0) * 1000 / total.max(1) as u64
    }

    // Calibrate the full-precision drain time on this machine, then pin
    // session demand at 1.5x the plain door's aggregate capacity: above
    // what full-precision sessions can drain, below what the ladder's
    // halved budgets can. Capacity scales with *effective* worker
    // parallelism — on a host with fewer cores than shards the workers
    // timeshare, so pacing against `shards` alone would bury both runs.
    let calib_n = if quick { 32 } else { 64 };
    let per_session = frontdoor_calibrate(&stream, &model, calib_n);
    let effective_workers = shards.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let pace = per_session.div_f64(1.5 * effective_workers as f64);

    let degraded_run = run_frontdoor_once(&stream, &model, context, shards, pace, true);
    let plain_run = run_frontdoor_once(&stream, &model, context, shards, pace, false);
    let ratio = if plain_run.shed_per_mille == 0 {
        1.0
    } else {
        degraded_run.shed_per_mille as f64 / plain_run.shed_per_mille as f64
    };
    FrontdoorReport {
        sessions,
        tenants,
        shards,
        templates,
        seed,
        tenant_skew,
        query_skew,
        top_tenant_per_mille: top_per_mille(&tenant_counts, sessions),
        top_template_per_mille: top_per_mille(&template_counts, sessions),
        distinct_templates: template_counts.len(),
        degraded_run,
        plain_run,
        degraded_vs_plain_shed: ratio,
    }
}

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_rmq.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!("usage: harness [--quick] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let mode = if quick { "quick" } else { "full" };
    eprintln!("perf-baseline harness ({mode} mode)...");
    let (micro, speedups, arena) = run_micro(quick);
    for m in &micro {
        eprintln!("  {:<28} {:>12.1} ns/op", m.name, m.ns_per_op);
    }
    let (rmq, obs, convergence) = run_rmq(quick);
    for r in &rmq {
        let sizes: Vec<_> = r.checkpoints.iter().map(|c| c.frontier_size).collect();
        eprintln!("  rmq n={} frontier sizes {sizes:?}", r.tables);
    }
    let baseline = Baseline {
        schema_version: SCHEMA_VERSION,
        mode: mode.to_string(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        micro,
        speedups,
        arena,
        eps_archive: run_eps_archive(quick),
        rmq,
        par_rmq: run_par_rmq(quick),
        exec_pool: run_exec_pool(quick),
        obs,
        convergence,
        frontdoor: run_frontdoor(quick),
    };
    for leaf in moqo_bench::leaves(&baseline.to_value()) {
        if matches!(gate_of(&leaf.declared), Some(Speedup | Scaling(_))) {
            let ratio = leaf.value.as_f64().unwrap_or(f64::NAN);
            eprintln!("  {:<44} {ratio:.3}", leaf.path);
        }
    }
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&out_path, json + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_field_is_declared_exactly_once() {
        // One entry in every array, so each emitted path appears.
        let sample = Baseline {
            micro: vec![MicroResult::default()],
            eps_archive: EpsArchiveReport {
                points: vec![EpsArchivePoint::default()],
                ..Default::default()
            },
            rmq: vec![RmqResult {
                checkpoints: vec![RmqCheckpoint::default()],
                ..Default::default()
            }],
            par_rmq: vec![ParRmqResult::default()],
            obs: vec![ObsFixture::default()],
            convergence: vec![ConvergenceFixture {
                points: vec![ConvergenceCheckpoint::default()],
                ..Default::default()
            }],
            ..Default::default()
        };
        let violations = moqo_bench::schema_violations(&sample.to_value());
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
