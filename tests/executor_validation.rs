//! Validates the cost model against actual executions: Pareto plans found
//! by the optimizer are executable, mutually result-equivalent, and their
//! *measured* resource usage tells the same story as the model's
//! predictions (rank correlation between modeled time and measured work).

use std::sync::Arc;

use moqo_catalog::Catalog;
use moqo_core::archive::ArchiveConfig;
use moqo_core::arena::PlanArena;
use moqo_core::optimizer::{drive, Budget, NullObserver};
use moqo_core::random_plan::random_plan_in;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_exec::{execute, DataGenConfig, Database};
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(
    seed: u64,
    n: usize,
) -> (
    Arc<Catalog>,
    ResourceCostModel,
    Database,
    moqo_core::TableSet,
) {
    let (catalog, query) = WorkloadSpec {
        tables: n,
        shape: GraphShape::Chain,
        selectivity: SelectivityMethod::MinMax,
        seed,
    }
    .generate();
    // 300 rows keeps nested-loop cross products affordable in debug builds
    // while leaving enough data for the rank-correlation assertions.
    let db = Database::generate(
        &catalog,
        DataGenConfig {
            seed,
            max_rows: 300,
        },
    );
    let model = ResourceCostModel::new(catalog.clone(), &ResourceMetric::ALL);
    (catalog, model, db, query.tables())
}

#[test]
fn pareto_plans_execute_and_agree() {
    let (catalog, model, db, query) = setup(31, 5);
    let cfg = RmqConfig {
        archive: ArchiveConfig::fixed(1.0),
        ..RmqConfig::seeded(2)
    };
    let mut rmq = Rmq::new(&model, query, cfg);
    drive(&mut rmq, Budget::Iterations(25), &mut NullObserver);
    let frontier = rmq.frontier();
    assert!(frontier.len() >= 2, "need several tradeoffs to compare");

    let mut reference: Option<Vec<Vec<u32>>> = None;
    for plan in &frontier {
        let exec = execute(plan, &catalog, &db).expect("Pareto plan executes");
        match &reference {
            None => reference = Some(exec.result.tuples),
            Some(r) => assert_eq!(
                &exec.result.tuples,
                r,
                "Pareto plan {} disagrees with its siblings",
                plan.display(&model)
            ),
        }
    }
}

#[test]
fn modeled_time_rank_correlates_with_measured_work() {
    let (catalog, model, db, query) = setup(37, 5);
    let mut rng = StdRng::seed_from_u64(5);
    let mut arena = PlanArena::new();
    let mut samples: Vec<(f64, u64)> = Vec::new();
    for _ in 0..16 {
        let id = random_plan_in(&mut arena, &model, query, &mut rng);
        let plan = arena.export(id);
        if let Ok(exec) = execute(&plan, &catalog, &db) {
            samples.push((plan.cost()[0], exec.stats.tuples_processed));
        }
    }
    assert!(samples.len() >= 12, "too many failed executions");
    // Kendall-tau-style concordance between modeled time and measured work.
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..samples.len() {
        for j in (i + 1)..samples.len() {
            let model_order = samples[i].0.total_cmp(&samples[j].0);
            let meas_order = samples[i].1.cmp(&samples[j].1);
            if model_order == std::cmp::Ordering::Equal || meas_order == std::cmp::Ordering::Equal {
                continue;
            }
            if model_order == meas_order {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let tau = (concordant - discordant) as f64 / (concordant + discordant).max(1) as f64;
    assert!(
        tau > 0.3,
        "modeled time does not rank-correlate with measured work (tau = {tau:.2}, \
         {concordant} concordant vs {discordant} discordant)"
    );
}

#[test]
fn buffer_lean_pareto_plans_measure_lean() {
    // Within a Pareto frontier over (time, buffer), the plan with the
    // smallest modeled buffer must not measure a larger peak buffer than
    // the plan with the largest modeled buffer.
    let (catalog, model, db, query) = setup(41, 4);
    let cfg = RmqConfig {
        archive: ArchiveConfig::fixed(1.0),
        ..RmqConfig::seeded(6)
    };
    let mut rmq = Rmq::new(&model, query, cfg);
    drive(&mut rmq, Budget::Iterations(30), &mut NullObserver);
    let frontier = rmq.frontier();
    if frontier.len() < 2 {
        return; // degenerate frontier: nothing to compare
    }
    let lean = frontier
        .iter()
        .min_by(|a, b| a.cost()[1].total_cmp(&b.cost()[1]))
        .unwrap();
    let hungry = frontier
        .iter()
        .max_by(|a, b| a.cost()[1].total_cmp(&b.cost()[1]))
        .unwrap();
    let lean_exec = execute(lean, &catalog, &db).unwrap();
    let hungry_exec = execute(hungry, &catalog, &db).unwrap();
    assert!(
        lean_exec.stats.total_buffer_rows <= hungry_exec.stats.total_buffer_rows,
        "modeled-lean plan measured hungrier: {} vs {}",
        lean_exec.stats.total_buffer_rows,
        hungry_exec.stats.total_buffer_rows
    );
}

#[test]
fn disk_metric_predicts_spills() {
    // Plans whose modeled disk cost is (near) zero must not spill;
    // plans with substantial modeled disk cost must spill.
    let (catalog, model, db, query) = setup(43, 4);
    let mut rng = StdRng::seed_from_u64(11);
    let mut arena = PlanArena::new();
    let mut checked = 0;
    for _ in 0..20 {
        let id = random_plan_in(&mut arena, &model, query, &mut rng);
        let plan = arena.export(id);
        let Ok(exec) = execute(&plan, &catalog, &db) else {
            continue;
        };
        let modeled_disk = plan.cost()[2];
        if modeled_disk < 0.01 {
            assert_eq!(
                exec.stats.spilled_rows,
                0,
                "zero-disk plan {} spilled",
                plan.display(&model)
            );
            checked += 1;
        } else if modeled_disk > 10.0 {
            assert!(
                exec.stats.spilled_rows > 0,
                "disk-heavy plan {} did not spill",
                plan.display(&model)
            );
            checked += 1;
        }
    }
    assert!(checked >= 5, "too few plans hit the disk-metric extremes");
}
