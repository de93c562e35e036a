//! Ablations of the paper's design choices (§4.2/§4.3):
//!
//! 1. **Fast vs. naive climbing** — the recursive multi-mutation
//!    `ParetoStep` against single-mutation climbing with full-plan
//!    recosting (the paper reports the fast variant reaching local optima
//!    over an order of magnitude faster at 50 tables).
//! 2. **Plan cache on/off** — `ApproximateFrontiers` with a shared
//!    cross-iteration cache vs. per-iteration private caches.
//! 3. **α schedule** — the paper's coarse-to-fine `25 · 0.99^⌊i/25⌋`
//!    against fixed-fine (α = 1.05) and fixed-coarse (α = 25).
//! 4. **Exhaustive vs. sampled neighbors** — §4.2: "we initially
//!    experimented with random sampling of neighbor plans which led to
//!    poor performance".

use std::time::{Duration, Instant};

use moqo_core::archive::ArchiveConfig;
use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::climb::{naive_climb_in, pareto_climb_in, ClimbConfig, StepScratch};
use moqo_core::mutations::random_neighbor_in;
use moqo_core::optimizer::{drive, Budget, NullObserver};
use moqo_core::random_plan::random_plan_in;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_metrics::ReferenceFrontier;
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model_for(n: usize, seed: u64) -> (ResourceCostModel, moqo_core::TableSet) {
    let (catalog, query) = WorkloadSpec {
        tables: n,
        shape: GraphShape::Cycle,
        selectivity: SelectivityMethod::Steinbrunn,
        seed,
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

fn ablation_climb() {
    println!("\n== Ablation 1: fast (multi-mutation) vs naive climbing ==");
    println!(
        "{:>7} | {:>12} {:>10} | {:>12} {:>10} | {:>8}",
        "tables", "fast time", "steps", "naive time", "steps", "speedup"
    );
    for n in [10usize, 25, 50] {
        let (model, query) = model_for(n, 3);
        let cfg = ClimbConfig::default();
        let mut arena = PlanArena::new();
        let mut scratch = StepScratch::default();
        // Both climbers start from the same eight plans; the arena is
        // cleared before each so the naive neighborhoods do not pile up.
        let mut climbs = |naive: bool| {
            let mut rng = StdRng::seed_from_u64(17);
            let (mut steps, mut time) = (0usize, Duration::ZERO);
            for _ in 0..8 {
                arena.clear();
                let start = random_plan_in(&mut arena, &model, query, &mut rng);
                let t = Instant::now();
                steps += if naive {
                    naive_climb_in(&mut arena, start, &model, &cfg).1.steps
                } else {
                    pareto_climb_in(&mut arena, start, &model, &cfg, &mut scratch)
                        .1
                        .steps
                };
                time += t.elapsed();
            }
            (steps, time)
        };
        let (fast_steps, fast_time) = climbs(false);
        let (naive_steps, naive_time) = climbs(true);
        println!(
            "{:>7} | {:>12?} {:>10} | {:>12?} {:>10} | {:>7.1}x",
            n,
            fast_time,
            fast_steps,
            naive_time,
            naive_steps,
            naive_time.as_secs_f64() / fast_time.as_secs_f64().max(1e-9)
        );
    }
}

fn rmq_alpha_with(cfg: RmqConfig, n: usize, budget: Duration) -> f64 {
    let (model, query) = model_for(n, 5);
    let mut variant = Rmq::new(&model, query, cfg);
    drive(&mut variant, Budget::Time(budget), &mut NullObserver);
    // Reference: a long exact-pruning run of default RMQ + this variant.
    let mut reference_rmq = Rmq::new(
        &model,
        query,
        RmqConfig {
            archive: ArchiveConfig::fixed(1.0),
            ..RmqConfig::seeded(99)
        },
    );
    drive(
        &mut reference_rmq,
        Budget::Time(budget * 4),
        &mut NullObserver,
    );
    let variant_frontier = variant.frontier();
    let reference = ReferenceFrontier::from_plan_sets([
        reference_rmq.frontier().as_slice(),
        variant_frontier.as_slice(),
    ]);
    reference.alpha_of_plans(&variant_frontier)
}

fn ablation_cache() {
    println!("\n== Ablation 2: plan cache shared across iterations vs private ==");
    println!(
        "{:>7} | {:>14} | {:>14}",
        "tables", "cache ON alpha", "cache OFF alpha"
    );
    for n in [10usize, 25] {
        let budget = Duration::from_millis(250);
        let on = rmq_alpha_with(RmqConfig::seeded(7), n, budget);
        let off = rmq_alpha_with(
            RmqConfig {
                share_cache: false,
                ..RmqConfig::seeded(7)
            },
            n,
            budget,
        );
        println!("{n:>7} | {on:>14.3} | {off:>14.3}");
    }
}

fn ablation_alpha_schedule() {
    println!("\n== Ablation 3: alpha schedule (paper vs fixed fine vs fixed coarse) ==");
    println!(
        "{:>7} | {:>12} | {:>12} | {:>12}",
        "tables", "paper", "fixed 1.05", "fixed 25"
    );
    for n in [10usize, 25] {
        let budget = Duration::from_millis(250);
        let paper = rmq_alpha_with(RmqConfig::seeded(11), n, budget);
        let fine = rmq_alpha_with(
            RmqConfig {
                archive: ArchiveConfig::fixed(1.05),
                ..RmqConfig::seeded(11)
            },
            n,
            budget,
        );
        let coarse = rmq_alpha_with(
            RmqConfig {
                archive: ArchiveConfig::fixed(25.0),
                ..RmqConfig::seeded(11)
            },
            n,
            budget,
        );
        println!("{n:>7} | {paper:>12.3} | {fine:>12.3} | {coarse:>12.3}");
    }
}

/// Climbing with randomly sampled neighbors instead of the exhaustive
/// `ParetoStep` (the strategy §4.2 reports as ineffective): proposes up to
/// `patience` random neighbors per step and moves to the first dominating
/// one.
fn sampled_climb(
    arena: &mut PlanArena,
    start: PlanId,
    model: &ResourceCostModel,
    rng: &mut StdRng,
    patience: usize,
) -> (PlanId, usize) {
    let mut current = start;
    let mut steps = 0usize;
    'outer: loop {
        for _ in 0..patience {
            if let Some(nb) = random_neighbor_in(arena, current, model, rng) {
                if arena.cost(nb).strictly_dominates(&arena.cost(current)) {
                    current = nb;
                    steps += 1;
                    continue 'outer;
                }
            }
        }
        return (current, steps);
    }
}

fn ablation_sampling() {
    println!("\n== Ablation 4: exhaustive ParetoStep vs sampled-neighbor climbing ==");
    println!(
        "{:>7} | {:>22} | {:>22}",
        "tables", "exhaustive final cost", "sampled final cost"
    );
    for n in [10usize, 25] {
        let (model, query) = model_for(n, 13);
        let mut rng = StdRng::seed_from_u64(23);
        let mut exhaustive_mean = 0.0;
        let mut sampled_mean = 0.0;
        let runs = 6;
        let cfg = ClimbConfig::default();
        let mut arena = PlanArena::new();
        let mut scratch = StepScratch::default();
        for _ in 0..runs {
            arena.clear();
            let start = random_plan_in(&mut arena, &model, query, &mut rng);
            let (e, _) = pareto_climb_in(&mut arena, start, &model, &cfg, &mut scratch);
            let (s, _) = sampled_climb(&mut arena, start, &model, &mut rng, 3 * n);
            exhaustive_mean += arena.cost(e).mean() / runs as f64;
            sampled_mean += arena.cost(s).mean() / runs as f64;
        }
        println!("{n:>7} | {exhaustive_mean:>22.1} | {sampled_mean:>22.1}");
    }
    println!("(lower mean cost of reached local optima is better)");
}

fn ablation_plan_space() {
    println!("\n== Ablation 5: bushy vs left-deep random plan space (§4.1 note) ==");
    println!("{:>7} | {:>12} | {:>12}", "tables", "bushy", "left-deep");
    for n in [10usize, 25] {
        let budget = Duration::from_millis(250);
        let bushy = rmq_alpha_with(RmqConfig::seeded(29), n, budget);
        let left = rmq_alpha_with(
            RmqConfig {
                space: moqo_core::rmq::PlanSpace::LeftDeep,
                ..RmqConfig::seeded(29)
            },
            n,
            budget,
        );
        println!("{n:>7} | {bushy:>12.3} | {left:>12.3}");
    }
    println!("(left-deep restricts the generator AND the climbing rule set)");
}

fn main() {
    println!("moqo ablation suite (paper §4.2/§4.3 design choices)");
    ablation_climb();
    ablation_cache();
    ablation_alpha_schedule();
    ablation_sampling();
    ablation_plan_space();
}
