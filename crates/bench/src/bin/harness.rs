//! Deterministic perf-baseline harness: measures the Pareto-pruning kernel
//! and an end-to-end anytime RMQ run, and writes the results to a
//! machine-readable JSON file (`BENCH_rmq.json` by default) that future PRs
//! diff against.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p moqo-bench --bin harness -- [--quick] [--out PATH]
//! ```
//!
//! (or `scripts/bench.sh`, which CI's `bench-smoke` job also uses — see the
//! README's "Benchmarks & perf baseline" section for the JSON schema.)
//!
//! All workloads and seeds are fixed, so the *structural* fields (frontier
//! sizes, iteration counts, cache occupancy, climb path lengths) are
//! bit-for-bit reproducible anywhere; the timing fields depend on the
//! machine and are meaningful relative to other runs on the same hardware
//! — most importantly the bucketed-vs-linear speedup ratios, which divide
//! out the machine. `--quick` shrinks repetition counts and the RMQ budget
//! for CI smoke runs; the checked-in baseline is a full run.

use std::time::Instant;

use serde::Serialize;

use moqo_bench::{candidate_stream, cost_pairs, resource_model};
use moqo_core::archive::{Admission, EpsFactors};
use moqo_core::arena::PlanArena;
use moqo_core::climb::{pareto_climb_in, ClimbConfig, StepScratch};
use moqo_core::cost::CostVector;
use moqo_core::model::testing::StubModel;
use moqo_core::model::OutputFormat;
use moqo_core::optimizer::{Budget, ConvergencePoint, PlanExchange};
use moqo_core::pareto::{LinearParetoSet, ParetoSet, PrunePolicy};
use moqo_core::plan::{PlanKind, PlanRef};
use moqo_core::random_plan::{random_plan, random_plan_in};
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_metrics::hypervolume::hypervolume;
use moqo_metrics::{time_to_fraction, HvTracker};
use moqo_parallel::{ParRmq, ParRmqConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Schema version of the emitted JSON; bump on incompatible changes.
/// v2 (additive over v1): arena-vs-Arc plan kernels in `micro`, the
/// `plan_*_arena_vs_arc` speedups, the top-level `arena` interning stats,
/// and per-RMQ-run `arena_nodes` / `arena_dedup_rate`.
/// v3 (additive over v2): the `par_rmq` thread-scaling section — per
/// thread count, live-mode iters/s + frontier hypervolume + exchange
/// overhead counters, and deterministic-mode structural fields (gated
/// bit-for-bit by `bench_diff`).
/// v4 (additive over v3): the top-level `host_parallelism` field
/// (`bench_diff` warns when baselines from different core counts are
/// compared) and the `obs` section — per-RMQ-fixture observability
/// counter deltas (climb-stage screening, arena interning), deterministic
/// and gated bit-for-bit by `bench_diff`.
/// v5 (additive over v4): many-objective scaling — `dominance_screen_*`
/// micro kernels (block SoA archive screening vs the legacy scalar loop at
/// d ∈ {2,4,6,8,10}) with the `dominance_soa_vs_scalar_d8` speedup, the
/// `eps_archive` section (archive-size-vs-ε curve on an anti-correlated
/// d=8 stream, exact-archive blowup ratio), the `rmq_dim` end-to-end
/// dimension sweep (d ∈ {2,4,6,8,10}), and the `pareto_*` fields of
/// `ObsFixture` (SoA blocks screened, ε-rejects, final archive size).
/// v6 (additive over v5): the work-stealing executor — the `exec_pool`
/// section (oversubscribed mixed-width workload on the shared executor vs
/// per-session scoped threads: total iters/sec, p99 time-to-first-
/// frontier, `exec_pool.*` counter deltas, `exchange.backoff_level`) and
/// the `exchange_partial_*` fields of `par_rmq` entries (partial-plan
/// frontier sharing).
/// v7 (additive over v6): anytime convergence telemetry — the
/// `convergence` section: per RMQ fixture, the optimizer's exponentially
/// spaced quality-over-time checkpoints reduced to a hypervolume curve
/// (structural fields — iteration marks, frontier sizes, hypervolumes —
/// deterministic and gated bit-for-bit; `elapsed_ms` / `time_to_90_ms`
/// timing-only).
/// v8 (additive over v7): the multi-tenant front door — the `frontdoor`
/// section: a zipfian-skewed heavy-traffic replay (100k sessions in full
/// mode) through the sharded front door, run twice with the degradation
/// ladder enabled (`degraded_run`) and disabled (`plain_run`). The
/// traffic-shape fields (sessions, tenants, shards, templates, skews,
/// `top_tenant_per_mille`, `top_template_per_mille`, `distinct_templates`)
/// are deterministic and gated bit-for-bit; the serving fields of both
/// runs (TTFF percentiles, shed/coalesce/degrade counts) are load- and
/// machine-dependent (presence-checked), and the headline
/// `degraded_vs_plain_shed` ratio is gated like the parallel-scaling
/// ratios — demoted to a warning at `host_parallelism == 1`.
const SCHEMA_VERSION: u32 = 8;

#[derive(Serialize)]
struct Baseline {
    schema_version: u32,
    /// "quick" (CI smoke) or "full" (checked-in baseline).
    mode: String,
    /// `available_parallelism` of the generating host (schema v4): timing
    /// fields are only comparable between runs on similar core counts.
    host_parallelism: usize,
    /// Kernel micro-measurements (nanoseconds per operation).
    micro: Vec<MicroResult>,
    /// Bucketed-vs-linear speedup ratios derived from `micro`
    /// (linear ns / bucketed ns; > 1 means the bucketed set is faster).
    speedups: Speedups,
    /// Interning stats of the arena build kernel (schema v2).
    arena: ArenaReport,
    /// Archive-size-vs-ε curve on an anti-correlated d=8 cost stream
    /// (schema v5; deterministic, gated by `bench_diff`).
    eps_archive: EpsArchiveReport,
    /// End-to-end anytime RMQ runs.
    rmq: Vec<RmqResult>,
    /// End-to-end RMQ dimension sweep at d ∈ {2,4,6,8,10} (schema v5;
    /// structural fields deterministic).
    rmq_dim: Vec<RmqDimResult>,
    /// Intra-query thread-scaling runs of `ParRmq` (schema v3).
    par_rmq: Vec<ParRmqResult>,
    /// Oversubscribed mixed-width workload on the shared work-stealing
    /// executor vs per-session scoped threads (schema v6).
    exec_pool: ExecPoolReport,
    /// Observability counter deltas per RMQ fixture (schema v4): the
    /// global `moqo-obs` registry sampled immediately before/after each
    /// (sequential, fixed-seed) `rmq` run, so the deltas are exact and
    /// deterministic — drift means hot-path *behavior* changed.
    obs: Vec<ObsFixture>,
    /// Anytime convergence curves per RMQ fixture (schema v7): the
    /// optimizer's own exponentially spaced checkpoints reduced to a
    /// running hypervolume curve. Structural fields deterministic.
    convergence: Vec<ConvergenceFixture>,
    /// Heavy-traffic replay through the sharded multi-tenant front door
    /// (schema v8): traffic-shape fields deterministic, serving fields
    /// load-dependent.
    frontdoor: FrontdoorReport,
}

/// One front-door replay of the skewed session stream (schema v8). All
/// fields depend on load and scheduling — `bench_diff` checks presence,
/// not values; only the degraded-vs-plain shed ratio is gated (as a
/// warning-demoted ratio on single-core hosts).
#[derive(Serialize)]
struct FrontdoorRun {
    elapsed_ms: f64,
    offered: u64,
    admitted: u64,
    coalesced: u64,
    degraded: u64,
    shed: u64,
    shed_per_mille: u64,
    coalesce_per_mille: u64,
    degraded_per_mille: u64,
    /// Worst-shard (max over shards) TTFF percentiles, milliseconds.
    ttff_p50_ms: f64,
    ttff_p99_ms: f64,
}

/// The heavy-traffic front-door section (schema v8): one zipfian-skewed
/// session stream replayed twice through identically configured front
/// doors — once with the SLO-aware degradation ladder enabled, once
/// disabled (shed-only overload handling). The stream itself is
/// deterministic; the serving outcomes are not.
#[derive(Serialize)]
struct FrontdoorReport {
    sessions: usize,
    tenants: usize,
    shards: usize,
    templates: usize,
    seed: u64,
    tenant_skew: f64,
    query_skew: f64,
    /// Share of the stream issued by the hottest tenant (deterministic).
    top_tenant_per_mille: u64,
    /// Share of the stream using the hottest query template (deterministic).
    top_template_per_mille: u64,
    /// Distinct query shapes actually drawn (deterministic).
    distinct_templates: usize,
    degraded_run: FrontdoorRun,
    plain_run: FrontdoorRun,
    /// Degraded-run shed per mille over plain-run shed per mille; < 1
    /// means degrade-before-shed served traffic shedding would have lost.
    degraded_vs_plain_shed: f64,
}

/// One checkpoint of a convergence curve (schema v7). `iteration`,
/// `frontier_size`, and `hypervolume` are deterministic (gated);
/// `elapsed_ms` is timing.
#[derive(Serialize)]
struct ConvergenceCheckpoint {
    iteration: u64,
    elapsed_ms: f64,
    frontier_size: usize,
    /// Running hypervolume of the frontier at this checkpoint, against the
    /// fixture's curve-derived reference point (componentwise max over all
    /// checkpointed costs × 1.1) — nondecreasing along the curve.
    hypervolume: f64,
}

/// The anytime convergence curve of one RMQ fixture (schema v7).
#[derive(Serialize)]
struct ConvergenceFixture {
    tables: usize,
    seed: u64,
    points: Vec<ConvergenceCheckpoint>,
    /// Final (last-checkpoint) hypervolume — deterministic, gated.
    final_hypervolume: f64,
    /// Time to 90% of `final_hypervolume` (timing-only; `None` when the
    /// curve is degenerate).
    time_to_90_ms: Option<f64>,
}

/// Deterministic observability counter deltas of one RMQ fixture
/// (schema v4; every field gated bit-for-bit by `bench_diff`).
#[derive(Serialize)]
struct ObsFixture {
    tables: usize,
    seed: u64,
    /// `rmq.iterations` delta (== the fixture's iteration budget).
    iterations: u64,
    /// Candidates generated and screened (`climb.candidates`).
    climb_candidates: u64,
    /// Rejections short-circuited by the aggregate-key band.
    climb_agg_key_skips: u64,
    /// Full component-wise dominance comparisons run.
    climb_dominance_tests: u64,
    /// Candidates rejected by dominance screening.
    climb_rejected: u64,
    /// Candidates admitted to a frontier.
    climb_admitted: u64,
    /// Incumbents evicted by admitted candidates.
    climb_evicted: u64,
    /// SoA dominance-kernel blocks screened across all archive admissions
    /// (schema v5, `pareto.blocks_screened`).
    pareto_blocks_screened: u64,
    /// ε-box rejections exact dominance would not have made (schema v5,
    /// `pareto.eps_rejects`; zero under the paper's α-schedule).
    pareto_eps_rejects: u64,
    /// Final query-frontier archive size (schema v5, `pareto.archive_size`
    /// gauge after the run).
    pareto_archive_size: u64,
    /// Plan-arena intern misses (fresh nodes).
    arena_interns: u64,
    /// Plan-arena intern hits (structural dedup).
    arena_dedup_hits: u64,
}

#[derive(Serialize)]
struct MicroResult {
    /// Kernel name, e.g. `insert_approx_bucketed`.
    name: String,
    /// Operations per timed round.
    ops_per_round: u64,
    /// Timed rounds (best-of is reported).
    rounds: u32,
    /// Best observed nanoseconds per operation.
    ns_per_op: f64,
}

#[derive(Serialize)]
struct Speedups {
    insert_approx_bucketed_vs_linear: f64,
    insert_climb_bucketed_vs_linear: f64,
    /// Hash-consed arena vs `Arc<Plan>` on the same kernels (>1 = arena
    /// faster). `plan_build`: 1024 random plans; `plan_mutate`: all root
    /// mutations of each of the 1024 plans; `plan_eq`: structural equality.
    plan_build_arena_vs_arc: f64,
    plan_mutate_arena_vs_arc: f64,
    plan_eq_arena_vs_arc: f64,
    /// Block SoA archive screening vs the legacy scalar member loop on the
    /// same d=8 stream (schema v5; > 1 means the SoA kernel is faster).
    dominance_soa_vs_scalar_d8: f64,
}

/// Interning statistics of the `plan_build_arena` kernel's arena
/// (deterministic: fixed seeds, fixed workload).
#[derive(Serialize)]
struct ArenaReport {
    /// Distinct nodes interned over the whole 1024-plan stream.
    nodes: usize,
    /// Intern requests answered without allocating.
    dedup_hits: u64,
    /// Fraction of intern requests deduplicated.
    dedup_rate: f64,
}

/// One point of the archive-size-vs-ε curve (schema v5).
#[derive(Serialize)]
struct EpsArchivePoint {
    /// Uniform per-metric ε factor of the box archive.
    eps: f64,
    /// Archive survivors after the whole stream.
    archive_size: usize,
    /// ε-box rejections that exact dominance would have admitted.
    eps_rejects: u64,
}

/// Archive-size-vs-ε curve on one anti-correlated cost stream (schema
/// v5): the bounded-archive evidence — the exact archive keeps nearly the
/// whole stream while every ε > 1 archive stays precision-bounded.
#[derive(Serialize)]
struct EpsArchiveReport {
    dim: usize,
    stream_len: usize,
    /// Survivors of the exact (ε = 1) archive on the same stream.
    exact_size: usize,
    points: Vec<EpsArchivePoint>,
    /// `exact_size` over the coarsest ε-bounded archive in `points` —
    /// ≥ 5 demonstrates the cardinality blowup ε-boxes avoid.
    exact_blowup: f64,
}

/// One end-to-end RMQ run of the dimension sweep (schema v5). Structural
/// fields (frontier/cache sizes) are deterministic; timings are not.
#[derive(Serialize)]
struct RmqDimResult {
    tables: usize,
    /// Cost-vector dimension of the synthetic model.
    dim: usize,
    seed: u64,
    iterations: u64,
    elapsed_ms: f64,
    iters_per_sec: f64,
    frontier_size: usize,
    cache_plans: usize,
}

#[derive(Serialize)]
struct RmqResult {
    tables: usize,
    metrics: usize,
    seed: u64,
    /// Anytime trajectory: cumulative elapsed time and result-set shape at
    /// each iteration checkpoint. The non-timing fields are deterministic.
    checkpoints: Vec<RmqCheckpoint>,
    median_path_length: f64,
    cache_table_sets: usize,
    cache_plans: usize,
    /// Session-arena occupancy after the run (schema v2; deterministic).
    arena_nodes: usize,
    /// Session-arena interning dedup rate (schema v2; deterministic).
    arena_dedup_rate: f64,
}

#[derive(Serialize)]
struct RmqCheckpoint {
    iterations: u64,
    elapsed_ms: f64,
    frontier_size: usize,
}

/// One `ParRmq` thread-scaling entry (schema v3). Live-mode fields are
/// timing-dependent (not gated); `det_*` fields come from a deterministic-
/// reduction run with the same total iteration budget and are bit-for-bit
/// reproducible — `bench_diff` gates them exactly. Hypervolumes at one
/// `tables` size share one reference point (the componentwise max over all
/// deterministic frontiers of that size, × 1.1), so they are comparable
/// across thread counts.
#[derive(Serialize)]
struct ParRmqResult {
    tables: usize,
    threads: usize,
    seed: u64,
    /// Live-mode iterations completed (== the configured budget).
    iterations: u64,
    elapsed_ms: f64,
    /// The headline scaling number: live-mode iterations per second.
    iters_per_sec: f64,
    live_frontier_size: usize,
    live_hypervolume: f64,
    /// Exchange-overhead counters of the live run (see `ExchangeStats`).
    exchange_publishes: u64,
    exchange_offered: u64,
    exchange_merged: u64,
    exchange_epochs: u64,
    exchange_absorbed: u64,
    /// Partial-plan (sub-query frontier) exchange counters (schema v6).
    exchange_partial_offered: u64,
    exchange_partial_merged: u64,
    exchange_partial_epochs: u64,
    exchange_partial_table_sets: usize,
    /// Deterministic-mode structural fields (gated exactly).
    det_iterations: u64,
    det_frontier_size: usize,
    det_hypervolume: f64,
}

/// One configuration of the oversubscribed workload (schema v6): total
/// throughput plus the p99 time-to-first-frontier across sessions —
/// queueing delay included, so oversubscription shows up as tail latency.
#[derive(Serialize)]
struct ExecPoolRun {
    elapsed_ms: f64,
    total_iterations: u64,
    iters_per_sec: f64,
    p99_ttff_ms: f64,
}

/// The oversubscribed mixed-width workload (schema v6): `sessions`
/// sessions alternating fan-out 1 and `wide_fan_out`, run once as root
/// tasks on a shared `pool_workers`-wide work-stealing executor and once
/// as one scoped OS thread per session (the pre-executor configuration,
/// each wide session spawning its own private fan-out threads). Timing
/// fields are machine-dependent; the counter fields depend on scheduling
/// and are reported for visibility, not gated bit-for-bit.
#[derive(Serialize)]
struct ExecPoolReport {
    sessions: usize,
    pool_workers: usize,
    wide_fan_out: usize,
    iterations_per_session: u64,
    pooled: ExecPoolRun,
    scoped: ExecPoolRun,
    /// Pooled over scoped iters/sec (> 1 means the executor wins).
    pooled_vs_scoped_iters_per_sec: f64,
    /// `exec_pool.*` registry deltas around the pooled run.
    pool_batches: u64,
    pool_steals: u64,
    pool_donations: u64,
    /// `exchange.backoff_level` gauge after the pooled run.
    exchange_backoff_level: u64,
}

/// Times `op` over `rounds` rounds of `ops_per_round` operations each and
/// returns the best-observed ns/op (minimum is the standard low-noise
/// estimator for microbenchmarks).
fn time_ns_per_op(
    name: &str,
    rounds: u32,
    ops_per_round: u64,
    mut op: impl FnMut(),
) -> MicroResult {
    // One untimed warm-up round.
    op();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        op();
        let ns = start.elapsed().as_nanos() as f64 / ops_per_round as f64;
        best = best.min(ns);
    }
    MicroResult {
        name: name.to_string(),
        ops_per_round,
        rounds,
        ns_per_op: best,
    }
}

/// Structural equality of two `Arc<Plan>` trees — the deep comparison the
/// arena replaces with a `PlanId` integer compare.
fn deep_eq(a: &PlanRef, b: &PlanRef) -> bool {
    match (a.kind(), b.kind()) {
        (PlanKind::Scan { table: ta, op: oa }, PlanKind::Scan { table: tb, op: ob }) => {
            ta == tb && oa == ob
        }
        (
            PlanKind::Join {
                outer: ao,
                inner: ai,
                op: oa,
            },
            PlanKind::Join {
                outer: bo,
                inner: bi,
                op: ob,
            },
        ) => oa == ob && deep_eq(ao, bo) && deep_eq(ai, bi),
        _ => false,
    }
}

/// A deterministic uniform cost stream (single format) for the archive
/// screening kernels: `len` vectors of `dim` metrics in `[0.1, 100.1)`.
fn screen_stream(len: usize, dim: usize, seed: u64) -> Vec<CostVector> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let v: Vec<f64> = (0..dim)
                .map(|_| rng.random::<f64>() * 100.0 + 0.1)
                .collect();
            CostVector::new(&v)
        })
        .collect()
}

/// An anti-correlated cost stream: points near the simplex
/// `Σ c_k = 50·dim` with coordinates in `[1, 100)`. Nearly every pair is
/// incomparable, so the exact Pareto archive keeps almost the whole
/// stream — the adversarial case for frontier cardinality.
fn anti_correlated_stream(len: usize, dim: usize, seed: u64) -> Vec<CostVector> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let total = 50.0 * dim as f64;
    (0..len)
        .map(|_| {
            let mut v: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 99.0 + 1.0).collect();
            let sum: f64 = v.iter().sum();
            let scale = total / sum;
            for c in &mut v {
                *c = (*c * scale).clamp(1.0, 100.0);
            }
            CostVector::new(&v)
        })
        .collect()
}

/// Builds the archive-size-vs-ε curve: the same anti-correlated d=8
/// stream admitted under the exact rule and under ε-box archives of
/// increasing coarseness. Fully deterministic.
fn run_eps_archive(quick: bool) -> EpsArchiveReport {
    let dim = 8usize;
    let stream_len = if quick { 1024 } else { 4096 };
    let costs = anti_correlated_stream(stream_len, dim, 23);
    let archive_of = |admission: &Admission| {
        let mut set: ParetoSet<u32> = ParetoSet::new();
        for c in &costs {
            set.admit(c, OutputFormat(0), admission, || 0u32);
        }
        let screen = set.take_screen_counters();
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

/// The end-to-end dimension sweep: RMQ under the paper configuration on
/// the synthetic `StubModel::line` workload at d ∈ {2,4,6,8,10}.
fn run_rmq_dim(quick: bool) -> Vec<RmqDimResult> {
    let (tables, iterations): (usize, u64) = if quick { (10, 20) } else { (12, 100) };
    let seed = 42u64;
    [2usize, 4, 6, 8, 10]
        .into_iter()
        .map(|dim| {
            let model = StubModel::line(tables, dim, seed);
            let query = TableSet::prefix(tables);
            let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(seed));
            let start = Instant::now();
            for _ in 0..iterations {
                rmq.iterate();
            }
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            RmqDimResult {
                tables,
                dim,
                seed,
                iterations,
                elapsed_ms,
                iters_per_sec: iterations as f64 / (elapsed_ms / 1e3),
                frontier_size: rmq.frontier().len(),
                cache_plans: rmq.cache().total_plans(),
            }
        })
        .collect()
}

fn run_micro(quick: bool) -> (Vec<MicroResult>, Speedups, ArenaReport) {
    let rounds: u32 = if quick { 5 } else { 30 };
    let mut out = Vec::new();

    // 1. Raw dominance relations (dim 4).
    let pairs = cost_pairs(1024, 4, 11);
    out.push(time_ns_per_op(
        "dominance_strict_d4",
        rounds,
        pairs.len() as u64,
        || {
            let mut n = 0usize;
            for (a, b) in &pairs {
                n += usize::from(a.strictly_dominates(b));
            }
            std::hint::black_box(n);
        },
    ));

    // 2. Pareto insertion, bucketed vs. linear, identical streams. Four
    // metrics keep a large mutually incomparable frontier alive — the
    // many-objective regime (arXiv:1404.0046) that motivates fast
    // dominance rejection.
    let stream = candidate_stream(1024, 4, 4, 13);
    let ops = stream.len() as u64;
    out.push(time_ns_per_op(
        "insert_approx_bucketed",
        rounds,
        ops,
        || {
            let mut set = ParetoSet::new();
            for p in &stream {
                set.insert(p.clone(), &Admission::approx(1.0));
            }
            std::hint::black_box(set.len());
        },
    ));
    out.push(time_ns_per_op("insert_approx_linear", rounds, ops, || {
        let mut set = LinearParetoSet::new();
        for p in &stream {
            set.admit(p.clone(), &Admission::approx(1.0));
        }
        std::hint::black_box(set.len());
    }));
    out.push(time_ns_per_op("insert_climb_bucketed", rounds, ops, || {
        let mut set = ParetoSet::new();
        for p in &stream {
            set.insert(p.clone(), &Admission::climb(PrunePolicy::KeepIncomparable));
        }
        std::hint::black_box(set.len());
    }));
    out.push(time_ns_per_op("insert_climb_linear", rounds, ops, || {
        let mut set = LinearParetoSet::new();
        for p in &stream {
            set.admit(p.clone(), &Admission::climb(PrunePolicy::KeepIncomparable));
        }
        std::hint::black_box(set.len());
    }));

    // 2b. Archive dominance screening across dimensions: the block SoA
    // kernel inside `ParetoSet` vs the legacy scalar per-member loop
    // (aggregate-key filter + component-wise dominance over a flat
    // `Vec<CostVector>`), both building an exact archive from the same
    // uniform single-format stream. Uniform costs at d ≥ 4 are almost all
    // mutually incomparable, so the archive approaches the stream length —
    // the many-objective regime the SoA layout targets.
    for dim in [2usize, 4, 6, 8, 10] {
        let costs = screen_stream(1024, dim, 19);
        let ops = costs.len() as u64;
        out.push(time_ns_per_op(
            &format!("dominance_screen_scalar_d{dim}"),
            rounds,
            ops,
            || {
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
            },
        ));
        out.push(time_ns_per_op(
            &format!("dominance_screen_soa_d{dim}"),
            rounds,
            ops,
            || {
                let mut set: ParetoSet<u32> = ParetoSet::new();
                for c in &costs {
                    set.admit(c, OutputFormat(0), &Admission::exact(), || 0u32);
                }
                std::hint::black_box(set.len());
            },
        ));
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

    // 4. Plan representation: hash-consed arena vs Arc<Plan> trees, on the
    // paper-shaped kernels the arena was built for. All three pairs run the
    // 1024-candidate stream of a 12-table cycle workload.
    let (pmodel, pquery) = resource_model(12);
    const PLAN_STREAM: u64 = 1024;

    // 4a. Build: 1024 uniform random plans. The arena is created once and
    // reused across rounds — the per-session steady state, where repeated
    // subplans are intern hits instead of fresh Arc allocations.
    out.push(time_ns_per_op(
        "plan_build_arc",
        rounds,
        PLAN_STREAM,
        || {
            let mut rng = StdRng::seed_from_u64(31);
            let mut plans = Vec::with_capacity(PLAN_STREAM as usize);
            for _ in 0..PLAN_STREAM {
                plans.push(random_plan(&pmodel, pquery, &mut rng));
            }
            std::hint::black_box(plans.len());
        },
    ));
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
    // commutativity, rotations, exchanges) of each plan in the same
    // 1024-candidate stream — the transformation-rule kernel under every
    // climbing step. The Arc path costs and allocates a fresh tree root
    // per candidate every time; the arena path interns each candidate once
    // and afterwards answers it with a hash probe returning the cached
    // properties (memoized costing via hash-consing).
    let mutate_stream: Vec<PlanRef> = {
        let mut rng = StdRng::seed_from_u64(33);
        (0..PLAN_STREAM)
            .map(|_| random_plan(&pmodel, pquery, &mut rng))
            .collect()
    };
    let mutate_rounds = rounds.min(10);
    let mut arc_muts: Vec<PlanRef> = Vec::new();
    out.push(time_ns_per_op(
        "plan_mutate_arc",
        mutate_rounds,
        PLAN_STREAM,
        || {
            let mut total = 0usize;
            for plan in &mutate_stream {
                arc_muts.clear();
                moqo_core::mutations::root_mutations(plan, &pmodel, &mut arc_muts);
                total += arc_muts.len();
            }
            std::hint::black_box(total);
        },
    ));
    let mut mutate_arena = PlanArena::new();
    let mutate_ids: Vec<_> = mutate_stream
        .iter()
        .map(|p| mutate_arena.import(p))
        .collect();
    let mut arena_muts: Vec<moqo_core::arena::PlanId> = Vec::new();
    out.push(time_ns_per_op(
        "plan_mutate_arena",
        mutate_rounds,
        PLAN_STREAM,
        || {
            let mut total = 0usize;
            for &id in &mutate_ids {
                arena_muts.clear();
                moqo_core::mutations::root_mutations_in(
                    &mut mutate_arena,
                    id,
                    &pmodel,
                    &mut arena_muts,
                );
                total += arena_muts.len();
            }
            std::hint::black_box(total);
        },
    ));

    // 4c. Equality/hash: structural comparison of adjacent plans in the
    // stream — a deep tree walk for Arc, an integer compare for PlanIds.
    let eq_plans: Vec<PlanRef> = {
        let mut rng = StdRng::seed_from_u64(35);
        // Few tables → frequent structural collisions keep the comparison
        // honest (equal pairs must walk the whole Arc tree).
        let (m, q) = resource_model(6);
        (0..PLAN_STREAM)
            .map(|_| random_plan(&m, q, &mut rng))
            .collect()
    };
    let mut eq_arena = PlanArena::new();
    let eq_ids: Vec<_> = eq_plans.iter().map(|p| eq_arena.import(p)).collect();
    out.push(time_ns_per_op("plan_eq_arc", rounds, PLAN_STREAM, || {
        let mut n = 0usize;
        for w in eq_plans.windows(2) {
            n += usize::from(deep_eq(&w[0], &w[1]));
        }
        std::hint::black_box(n);
    }));
    out.push(time_ns_per_op("plan_eq_arena", rounds, PLAN_STREAM, || {
        let mut n = 0usize;
        for w in eq_ids.windows(2) {
            n += usize::from(w[0] == w[1]);
        }
        std::hint::black_box(n);
    }));

    let ns = |name: &str| {
        out.iter()
            .find(|m| m.name == name)
            .map(|m| m.ns_per_op)
            .unwrap_or(f64::NAN)
    };
    let speedups = Speedups {
        insert_approx_bucketed_vs_linear: ns("insert_approx_linear") / ns("insert_approx_bucketed"),
        insert_climb_bucketed_vs_linear: ns("insert_climb_linear") / ns("insert_climb_bucketed"),
        plan_build_arena_vs_arc: ns("plan_build_arc") / ns("plan_build_arena"),
        plan_mutate_arena_vs_arc: ns("plan_mutate_arc") / ns("plan_mutate_arena"),
        plan_eq_arena_vs_arc: ns("plan_eq_arc") / ns("plan_eq_arena"),
        dominance_soa_vs_scalar_d8: ns("dominance_screen_scalar_d8")
            / ns("dominance_screen_soa_d8"),
    };
    (out, speedups, arena_report)
}

/// Reduces an optimizer's convergence checkpoints to the schema-v7 curve:
/// a running hypervolume against a reference point derived from the curve
/// itself (componentwise max over every checkpointed cost, × 1.1). All
/// non-timing outputs are deterministic for a fixed-seed fixture.
fn reduce_convergence(tables: usize, seed: u64, points: &[ConvergencePoint]) -> ConvergenceFixture {
    let dim = points
        .iter()
        .flat_map(|p| p.frontier_costs.iter())
        .map(|c| c.dim())
        .next()
        .unwrap_or(0);
    let mut upper = vec![f64::NEG_INFINITY; dim];
    for p in points {
        for cost in &p.frontier_costs {
            for (u, v) in upper.iter_mut().zip(cost.as_slice()) {
                *u = u.max(*v);
            }
        }
    }
    let mut out = ConvergenceFixture {
        tables,
        seed,
        points: Vec::with_capacity(points.len()),
        final_hypervolume: 0.0,
        time_to_90_ms: None,
    };
    if dim == 0 || upper.iter().any(|u| !u.is_finite()) {
        return out;
    }
    let reference = CostVector::new(&upper).scale(1.1);
    let mut tracker = HvTracker::new(reference);
    let mut curve = Vec::with_capacity(points.len());
    for p in points {
        tracker.insert_all(&p.frontier_costs);
        let hv = tracker.hypervolume();
        curve.push((p.elapsed.as_secs_f64(), hv));
        out.points.push(ConvergenceCheckpoint {
            iteration: p.iteration,
            elapsed_ms: p.elapsed.as_secs_f64() * 1e3,
            frontier_size: p.frontier_size,
            hypervolume: hv,
        });
    }
    out.final_hypervolume = out.points.last().map_or(0.0, |p| p.hypervolume);
    out.time_to_90_ms = time_to_fraction(&curve, 0.9).map(|s| s * 1e3);
    out
}

fn run_rmq(quick: bool) -> (Vec<RmqResult>, Vec<ObsFixture>, Vec<ConvergenceFixture>) {
    let configs: &[(usize, u64)] = if quick {
        &[(15, 40)]
    } else {
        &[(20, 200), (30, 100)]
    };
    let mut results = Vec::new();
    let mut obs_fixtures = Vec::new();
    let mut convergence = Vec::new();
    for &(tables, iterations) in configs {
        let (model, query) = resource_model(tables);
        let seed = 42u64;
        let obs_before = moqo_obs::ObsSnapshot::capture();
        let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(seed));
        let mut checkpoints = Vec::new();
        let marks: Vec<u64> = [10u64, 25, 50, 100, 200]
            .into_iter()
            .filter(|&m| m <= iterations)
            .collect();
        let start = Instant::now();
        for i in 1..=iterations {
            rmq.iterate();
            if marks.contains(&i) || i == iterations {
                checkpoints.push(RmqCheckpoint {
                    iterations: i,
                    elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                    frontier_size: rmq.frontier().len(),
                });
            }
        }
        checkpoints.dedup_by_key(|c| c.iterations);
        // The optimizer sampled its own exponentially spaced convergence
        // checkpoints during the loop; force one final sample so the curve
        // ends at the delivered frontier, then reduce it (schema v7).
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
            metrics: 2,
            seed,
            checkpoints,
            median_path_length: rmq.stats().median_path_length().unwrap_or(0.0),
            cache_table_sets: rmq.cache().num_table_sets(),
            cache_plans: rmq.cache().total_plans(),
            arena_nodes: rmq.arena().stats().nodes,
            arena_dedup_rate: rmq.arena().stats().dedup_rate(),
        });
    }
    (results, obs_fixtures, convergence)
}

/// Runs the `ParRmq` thread-scaling kernels on the standard bench fixture:
/// the n=20 cycle workload (n=15 in quick mode), two metrics, at 1/2/4/8
/// threads (1/2 in quick mode), all under the same total iteration budget.
fn run_par_rmq(quick: bool) -> Vec<ParRmqResult> {
    let (tables, iterations): (usize, u64) = if quick { (15, 40) } else { (20, 200) };
    let threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let seed = 42u64;
    let (model, query) = resource_model(tables);
    let model = std::sync::Arc::new(model);

    // Deterministic-mode runs first: their frontiers fix the shared
    // hypervolume reference point for this fixture.
    let det_frontiers: Vec<Vec<PlanRef>> = threads
        .iter()
        .map(|&t| {
            let cfg = ParRmqConfig::seeded(seed, t).deterministic();
            let mut par = ParRmq::new(std::sync::Arc::clone(&model), query, cfg);
            par.optimize(Budget::Iterations(iterations));
            par.frontier()
        })
        .collect();
    let dim = det_frontiers[0][0].cost().dim();
    let mut reference = vec![0.0f64; dim];
    for frontier in &det_frontiers {
        for plan in frontier {
            for (k, r) in reference.iter_mut().enumerate() {
                *r = r.max(plan.cost()[k]);
            }
        }
    }
    let reference = CostVector::new(&reference).scale(1.1);
    let hv = |plans: &[PlanRef]| {
        let costs: Vec<CostVector> = plans.iter().map(|p| *p.cost()).collect();
        hypervolume(&costs, &reference)
    };

    threads
        .iter()
        .zip(det_frontiers)
        .map(|(&t, det_frontier)| {
            let mut par = ParRmq::new(
                std::sync::Arc::clone(&model),
                query,
                ParRmqConfig::seeded(seed, t),
            );
            let start = Instant::now();
            let stats = par.optimize(Budget::Iterations(iterations));
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            let live_frontier = par.frontier();
            let ex = stats.exchange;
            ParRmqResult {
                tables,
                threads: t,
                seed,
                iterations: stats.iterations,
                elapsed_ms,
                iters_per_sec: stats.iterations as f64 / (elapsed_ms / 1e3),
                live_frontier_size: live_frontier.len(),
                live_hypervolume: hv(&live_frontier),
                exchange_publishes: ex.publishes,
                exchange_offered: ex.offered,
                exchange_merged: ex.merged,
                exchange_epochs: ex.epochs,
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
        .collect()
}

/// One session of the oversubscribed workload: a short first slice bounds
/// the time-to-first-frontier (one climb round per worker), then the rest
/// of the budget runs out. `started` is the workload epoch, so TTFF
/// includes queueing delay. Whether the session fans out on the shared
/// executor or on private scoped threads is decided by where this runs —
/// on a pool worker `ParRmq` takes its pooled path, off-pool the scoped
/// one.
fn exec_pool_session(
    model: std::sync::Arc<moqo_cost::ResourceCostModel>,
    query: TableSet,
    seed: u64,
    fan_out: usize,
    per_session: u64,
    started: Instant,
) -> (std::time::Duration, u64) {
    let mut cfg = ParRmqConfig::seeded(seed, fan_out);
    cfg.batch = 8;
    let first_slice = (cfg.batch * fan_out as u64).min(per_session);
    let mut par = ParRmq::new(model, query, cfg);
    let s1 = par.optimize(Budget::Iterations(first_slice));
    let ttff = started.elapsed();
    let s2 = par.optimize(Budget::Iterations(per_session - s1.iterations));
    (ttff, s1.iterations + s2.iterations)
}

/// p99 of a duration sample in milliseconds (nearest-rank; with 16
/// sessions this is the slowest observation — exactly the tail the
/// executor is meant to fix).
fn p99_ms(samples: &mut [std::time::Duration]) -> f64 {
    samples.sort_unstable();
    let idx = ((samples.len() as f64 * 0.99).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[idx].as_secs_f64() * 1e3
}

/// The oversubscribed mixed-width workload: 16 sessions (8 in quick
/// mode), fan-out alternating 1 and 4, on a 4-worker shared executor vs
/// one OS thread per session with private scoped fan-out threads.
fn run_exec_pool(quick: bool) -> ExecPoolReport {
    use moqo_parallel::{ExecPool, TaskSpec, TaskStatus};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    let (tables, sessions, pool_workers, per_session): (usize, usize, usize, u64) = if quick {
        (12, 8, 2, 48)
    } else {
        (15, 16, 4, 240)
    };
    let wide_fan_out = 4usize;
    let seed = 42u64;
    let (model, query) = resource_model(tables);
    let model = Arc::new(model);
    let fan_out_of = move |i: usize| if i % 2 == 0 { 1 } else { wide_fan_out };

    // Scoped baseline first, so it cannot touch the executor counters the
    // pooled run is measured by.
    let scoped = {
        let started = Instant::now();
        let results: Vec<(std::time::Duration, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|i| {
                    let model = Arc::clone(&model);
                    scope.spawn(move || {
                        exec_pool_session(
                            model,
                            query,
                            seed + i as u64,
                            fan_out_of(i),
                            per_session,
                            started,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let total_iterations: u64 = results.iter().map(|(_, i)| i).sum();
        let mut ttffs: Vec<_> = results.iter().map(|(t, _)| *t).collect();
        ExecPoolRun {
            elapsed_ms,
            total_iterations,
            iters_per_sec: total_iterations as f64 / (elapsed_ms / 1e3),
            p99_ttff_ms: p99_ms(&mut ttffs),
        }
    };

    let obs_before = moqo_obs::ObsSnapshot::capture();
    let pooled = {
        let pool = ExecPool::new(pool_workers);
        let results: Arc<Mutex<Vec<(std::time::Duration, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(AtomicUsize::new(0));
        let started = Instant::now();
        for i in 0..sessions {
            let model = Arc::clone(&model);
            let results = Arc::clone(&results);
            let finished = Arc::clone(&finished);
            let mut run = Some(move || {
                exec_pool_session(
                    model,
                    query,
                    seed + i as u64,
                    fan_out_of(i),
                    per_session,
                    started,
                )
            });
            pool.handle().spawn(TaskSpec::root(), move || {
                let run = run.take().expect("session task runs once");
                results.lock().unwrap().push(run());
                finished.fetch_add(1, Ordering::SeqCst);
                TaskStatus::Done
            });
        }
        // The bench thread never helps: helping would run sessions off
        // the pool and silently fall back to the scoped path.
        while finished.load(Ordering::SeqCst) < sessions {
            std::thread::yield_now();
        }
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let results = results.lock().unwrap();
        let total_iterations: u64 = results.iter().map(|(_, i)| i).sum();
        let mut ttffs: Vec<_> = results.iter().map(|(t, _)| *t).collect();
        ExecPoolRun {
            elapsed_ms,
            total_iterations,
            iters_per_sec: total_iterations as f64 / (elapsed_ms / 1e3),
            p99_ttff_ms: p99_ms(&mut ttffs),
        }
    };
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
        exchange_backoff_level: obs_after.counter("exchange.backoff_level"),
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
fn frontdoor_door(shards: usize, cap: usize, degrade_enabled: bool) -> moqo_frontdoor::FrontDoor {
    use moqo_frontdoor::{DegradationConfig, FrontDoor, FrontDoorConfig};
    use moqo_service::{AdmissionConfig, ServiceConfig, SloConfig};
    FrontDoor::new(FrontDoorConfig {
        shards,
        shard: ServiceConfig {
            workers: 1,
            admission: AdmissionConfig {
                max_live_sessions: cap,
                ..AdmissionConfig::default()
            },
            slo: SloConfig {
                ttff_p99: Some(std::time::Duration::from_millis(25)),
                ..SloConfig::default()
            },
            ..ServiceConfig::default()
        },
        degradation: DegradationConfig {
            enabled: degrade_enabled,
            ..DegradationConfig::default()
        },
        ..FrontDoorConfig::default()
    })
}

/// Measures the full-precision per-session drain time on this machine:
/// `n` distinct-key sessions through a single-worker door (serial service),
/// run twice — the first pass is warm-up — returning wall time per session.
fn frontdoor_calibrate(
    sessions: &[moqo_workload::SessionPlan],
    model: &std::sync::Arc<moqo_cost::ResourceCostModel>,
    n: usize,
) -> std::time::Duration {
    use moqo_frontdoor::FrontRequest;
    let n = n.min(sessions.len()).max(1);
    let mut per_session = std::time::Duration::ZERO;
    for pass in 0..2 {
        let door = frontdoor_door(1, n, false);
        let start = Instant::now();
        let mut handles = Vec::new();
        for (i, session) in sessions[..n].iter().enumerate() {
            let tables = session.query.tables();
            let request = FrontRequest {
                tenant: i as u64,
                query: tables,
                // Distinct contexts defeat coalescing: every request must
                // become (and drain as) its own session.
                context: i as u64,
                budget: FRONTDOOR_BUDGET,
            };
            let admitted = door
                .submit(request, |_| {
                    Box::new(Rmq::new(
                        std::sync::Arc::clone(model),
                        tables,
                        RmqConfig::seeded(i as u64),
                    ))
                })
                .expect("calibration session admitted");
            handles.push(admitted.handle);
        }
        for handle in &handles {
            handle
                .wait_done(std::time::Duration::from_secs(600))
                .expect("calibration session completes");
        }
        if pass == 1 {
            per_session = start.elapsed() / n as u32;
        }
        door.shutdown();
    }
    per_session.max(std::time::Duration::from_micros(1))
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
    model: &std::sync::Arc<moqo_cost::ResourceCostModel>,
    context: u64,
    shards: usize,
    pace: std::time::Duration,
    degrade_enabled: bool,
) -> FrontdoorRun {
    use moqo_core::archive::ArchiveConfig;
    use moqo_frontdoor::FrontRequest;

    let door = frontdoor_door(shards, FRONTDOOR_SHARD_CAP, degrade_enabled);
    let start = Instant::now();
    let mut next_arrival = start + pace;
    let mut handles = Vec::new();
    for (i, session) in sessions.iter().enumerate() {
        let tables = session.query.tables();
        let request = FrontRequest {
            tenant: session.tenant,
            query: tables,
            context,
            budget: FRONTDOOR_BUDGET,
        };
        let outcome = door.submit(request, |grant| {
            let mut cfg = RmqConfig::seeded(i as u64);
            if let Some(eps) = grant.eps {
                cfg.archive = ArchiveConfig::eps_box(EpsFactors::splat(eps));
            }
            Box::new(Rmq::new(std::sync::Arc::clone(model), tables, cfg))
        });
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
            .wait_done(std::time::Duration::from_secs(600))
            .expect("front-door session completes");
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    let ttff = |p: &dyn Fn(&moqo_service::ServiceStats) -> Option<std::time::Duration>| {
        door.shard_stats()
            .iter()
            .filter_map(p)
            .max()
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    let stats = door.stats();
    let run = FrontdoorRun {
        elapsed_ms,
        offered: stats.offered,
        admitted: stats.admitted,
        coalesced: stats.coalesced,
        degraded: stats.degraded,
        shed: stats.shed,
        shed_per_mille: stats.shed_per_mille(),
        coalesce_per_mille: stats.coalesce_per_mille(),
        degraded_per_mille: (stats.degraded * 1000)
            .checked_div(stats.offered)
            .unwrap_or(0),
        ttff_p50_ms: ttff(&|s| s.ttff_p50),
        ttff_p99_ms: ttff(&|s| s.ttff_p99),
    };
    door.shutdown();
    run
}

/// The heavy-traffic front-door replay (schema v8): a zipfian-skewed
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
    let metrics = [
        moqo_cost::ResourceMetric::Time,
        moqo_cost::ResourceMetric::Buffer,
    ];
    let model = std::sync::Arc::new(moqo_cost::ResourceCostModel::new(
        std::sync::Arc::clone(&catalog),
        &metrics,
    ));
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

    eprintln!(
        "perf-baseline harness ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let (micro, speedups, arena) = run_micro(quick);
    for m in &micro {
        eprintln!("  {:<28} {:>12.1} ns/op", m.name, m.ns_per_op);
    }
    eprintln!(
        "  insert_approx speedup (bucketed vs linear): {:.2}x",
        speedups.insert_approx_bucketed_vs_linear
    );
    eprintln!(
        "  insert_climb  speedup (bucketed vs linear): {:.2}x",
        speedups.insert_climb_bucketed_vs_linear
    );
    eprintln!(
        "  plan_build  speedup (arena vs Arc): {:.2}x   plan_mutate: {:.2}x   plan_eq: {:.2}x",
        speedups.plan_build_arena_vs_arc,
        speedups.plan_mutate_arena_vs_arc,
        speedups.plan_eq_arena_vs_arc
    );
    eprintln!(
        "  dominance_screen speedup (SoA vs scalar, d=8): {:.2}x",
        speedups.dominance_soa_vs_scalar_d8
    );
    eprintln!(
        "  arena build kernel: {} nodes, dedup rate {:.1}%",
        arena.nodes,
        arena.dedup_rate * 100.0
    );
    let eps_archive = run_eps_archive(quick);
    eprintln!(
        "  eps_archive d={} stream={}: exact {} survivors vs ε-bounded {:?} ({:.1}x blowup)",
        eps_archive.dim,
        eps_archive.stream_len,
        eps_archive.exact_size,
        eps_archive
            .points
            .iter()
            .map(|p| p.archive_size)
            .collect::<Vec<_>>(),
        eps_archive.exact_blowup,
    );
    let (rmq, obs, convergence) = run_rmq(quick);
    for r in &rmq {
        let last = r.checkpoints.last().expect("at least one checkpoint");
        eprintln!(
            "  rmq n={:<3} {} iters in {:.1} ms ({:.1} iters/s), frontier {}, cache {} plans",
            r.tables,
            last.iterations,
            last.elapsed_ms,
            last.iterations as f64 / (last.elapsed_ms / 1e3),
            last.frontier_size,
            r.cache_plans
        );
    }
    for o in &obs {
        eprintln!(
            "  obs n={:<3} {} candidates: {} agg-key skips, {} dominance tests, \
             {} rejected, {} admitted, {} evicted; arena {} interns / {} dedup hits",
            o.tables,
            o.climb_candidates,
            o.climb_agg_key_skips,
            o.climb_dominance_tests,
            o.climb_rejected,
            o.climb_admitted,
            o.climb_evicted,
            o.arena_interns,
            o.arena_dedup_hits,
        );
    }
    for c in &convergence {
        eprintln!(
            "  convergence n={:<3} {} checkpoints at iters {:?}, final hv {:.3e}, tt90 {}",
            c.tables,
            c.points.len(),
            c.points.iter().map(|p| p.iteration).collect::<Vec<_>>(),
            c.final_hypervolume,
            c.time_to_90_ms
                .map_or("-".to_string(), |ms| format!("{ms:.2} ms")),
        );
    }
    let rmq_dim = run_rmq_dim(quick);
    for r in &rmq_dim {
        eprintln!(
            "  rmq_dim n={} d={:<2} {} iters in {:.1} ms, frontier {}, cache {} plans",
            r.tables, r.dim, r.iterations, r.elapsed_ms, r.frontier_size, r.cache_plans
        );
    }
    let par_rmq = run_par_rmq(quick);
    let base_rate = par_rmq.first().map_or(f64::NAN, |p| p.iters_per_sec);
    for p in &par_rmq {
        eprintln!(
            "  par_rmq n={} t={} {:.1} iters/s ({:.2}x vs 1 thread), det frontier {} (hv {:.3e}), exchange {}+{} merged/absorbed",
            p.tables,
            p.threads,
            p.iters_per_sec,
            p.iters_per_sec / base_rate,
            p.det_frontier_size,
            p.det_hypervolume,
            p.exchange_merged,
            p.exchange_absorbed,
        );
    }

    let exec_pool = run_exec_pool(quick);
    eprintln!(
        "  exec_pool {} sessions (fan-out 1/{}) on {} workers: pooled {:.1} iters/s \
         (p99 ttff {:.1} ms) vs scoped {:.1} iters/s (p99 ttff {:.1} ms) = {:.2}x; \
         {} batches, {} steals, {} donations, backoff level {}",
        exec_pool.sessions,
        exec_pool.wide_fan_out,
        exec_pool.pool_workers,
        exec_pool.pooled.iters_per_sec,
        exec_pool.pooled.p99_ttff_ms,
        exec_pool.scoped.iters_per_sec,
        exec_pool.scoped.p99_ttff_ms,
        exec_pool.pooled_vs_scoped_iters_per_sec,
        exec_pool.pool_batches,
        exec_pool.pool_steals,
        exec_pool.pool_donations,
        exec_pool.exchange_backoff_level,
    );

    let frontdoor = run_frontdoor(quick);
    eprintln!(
        "  frontdoor {} sessions / {} tenants / {} shards / {} templates \
         (top tenant {}‰, top template {}‰): degraded run {} coalesced, {} degraded, \
         {}‰ shed vs plain {}‰ shed ({:.2}x)",
        frontdoor.sessions,
        frontdoor.tenants,
        frontdoor.shards,
        frontdoor.templates,
        frontdoor.top_tenant_per_mille,
        frontdoor.top_template_per_mille,
        frontdoor.degraded_run.coalesced,
        frontdoor.degraded_run.degraded,
        frontdoor.degraded_run.shed_per_mille,
        frontdoor.plain_run.shed_per_mille,
        frontdoor.degraded_vs_plain_shed,
    );

    let baseline = Baseline {
        schema_version: SCHEMA_VERSION,
        mode: if quick { "quick" } else { "full" }.to_string(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        micro,
        speedups,
        arena,
        eps_archive,
        rmq,
        rmq_dim,
        par_rmq,
        exec_pool,
        obs,
        convergence,
        frontdoor,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&out_path, json + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
}
