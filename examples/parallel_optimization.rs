//! Intra-query parallel optimization end to end: `ParRmq` fans one query
//! out over worker threads with shared-frontier exchange, the deterministic
//! reduction mode reproduces the sequential union bit-for-bit, and a
//! fanned-out session runs through the optimization service alongside
//! sequential traffic.
//!
//! ```text
//! cargo run --release --example parallel_optimization
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use moqo_core::archive::Admission;
use moqo_core::optimizer::Budget;
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_parallel::{ParRmq, ParRmqConfig};
use moqo_service::{context_fingerprint, OptimizationService, ServiceConfig, SessionRequest};
use moqo_workload::WorkloadSpec;

const WORKERS: usize = 4;
const ITERS: u64 = 120;

fn main() {
    // One 18-table cycle query over the two-metric resource model — big
    // enough that iterations cost real work.
    let (catalog, query) = WorkloadSpec {
        tables: 18,
        shape: moqo_workload::GraphShape::Cycle,
        selectivity: moqo_workload::SelectivityMethod::Steinbrunn,
        seed: 20_260_729,
    }
    .generate();
    let metrics = [ResourceMetric::Time, ResourceMetric::Buffer];
    let model = Arc::new(ResourceCostModel::new(Arc::clone(&catalog), &metrics));
    let tables = query.tables();
    println!(
        "query: {} tables (cycle), metrics: time × buffer\n",
        tables.len()
    );

    // ---- 1. Deterministic reduction mode reproduces the sequential union.
    let cfg = ParRmqConfig::seeded(7, WORKERS).deterministic();
    let mut det = ParRmq::new(Arc::clone(&model), tables, cfg);
    let det_stats = det.optimize(Budget::Iterations(ITERS));
    assert_eq!(det_stats.iterations, ITERS, "iteration budgets are exact");
    let det_frontier = det.frontier();

    // The reference: literally-sequential per-worker runs, united in order.
    let mut union: ParetoSet<PlanRef> = ParetoSet::new();
    let mut screen = ScreenCounters::default();
    for w in 0..WORKERS as u64 {
        let iters = ITERS / WORKERS as u64 + u64::from(w < ITERS % WORKERS as u64);
        let mut rmq = Rmq::new(Arc::clone(&model), tables, RmqConfig::seeded(7 ^ w));
        for _ in 0..iters {
            rmq.iterate();
        }
        for plan in rmq.frontier() {
            union.insert(plan, &Admission::exact(), &mut screen);
        }
    }
    let reference = union.into_plans();
    let render = |plans: &[PlanRef]| -> Vec<String> {
        plans
            .iter()
            .map(|p| format!("{} @ {}", p.display(model.as_ref()), p.cost()))
            .collect()
    };
    assert_eq!(
        render(&det_frontier),
        render(&reference),
        "deterministic mode must be bit-identical to the sequential union"
    );
    println!(
        "deterministic mode: {} workers x {} iterations -> {} Pareto plan(s), \
         bit-identical to the sequential union",
        WORKERS,
        ITERS,
        det_frontier.len()
    );

    // ---- 2. Live mode: shared-frontier exchange between the workers.
    let mut live = ParRmq::new(Arc::clone(&model), tables, ParRmqConfig::seeded(7, WORKERS));
    let started = Instant::now();
    let live_stats = live.optimize(Budget::Iterations(ITERS));
    let ex = live_stats.exchange;
    println!(
        "live mode: {} iterations in {:.1} ms ({:.0} iters/s), per-worker {:?}",
        live_stats.iterations,
        started.elapsed().as_secs_f64() * 1e3,
        live_stats.iterations as f64 / live_stats.elapsed.as_secs_f64(),
        live_stats.per_worker,
    );
    println!(
        "  exchange: {} publishes, {}/{} plans merged, {} absorbed back, {} epochs",
        ex.publishes, ex.merged, ex.offered, ex.absorbed, ex.epochs
    );
    assert!(ex.publishes >= WORKERS as u64, "every worker publishes");
    assert!(ex.merged > 0, "survivors must reach the global frontier");
    let live_frontier = live.frontier();
    assert!(!live_frontier.is_empty());
    for p in &live_frontier {
        assert!(p.validate(tables).is_ok());
    }
    println!(
        "  global frontier: {} plan(s) at epoch {}\n",
        live_frontier.len(),
        live.epoch()
    );

    // ---- 3. A deadline-budget run winds down within one climb step.
    let deadline = Duration::from_millis(100);
    let mut timed = ParRmq::new(
        Arc::clone(&model),
        tables,
        ParRmqConfig::seeded(11, WORKERS),
    );
    let started = Instant::now();
    let timed_stats = timed.optimize(Budget::Time(deadline));
    let elapsed = started.elapsed();
    println!(
        "deadline mode: {:?} budget -> stopped after {:.1} ms, {} iterations",
        deadline,
        elapsed.as_secs_f64() * 1e3,
        timed_stats.iterations
    );
    assert!(
        elapsed < deadline * 3,
        "workers must stop within a climb step of the deadline"
    );

    // ---- 4. A fanned-out session through the optimization service.
    let service = OptimizationService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let context = context_fingerprint(catalog.fingerprint(), "resource:time,buffer");
    let mut cfg = ParRmqConfig::seeded(13, 2);
    cfg.batch = 5;
    let wide = service
        .submit(SessionRequest {
            optimizer: Box::new(ParRmq::new(Arc::clone(&model), tables, cfg)),
            budget: Budget::Iterations(4), // 4 rounds x (2 workers x 5 batch)
            query: tables,
            context,
        })
        .expect("admitted");
    let seq = service
        .submit(SessionRequest {
            optimizer: Box::new(Rmq::new(Arc::clone(&model), tables, RmqConfig::seeded(14))),
            budget: Budget::Iterations(40),
            query: tables,
            context,
        })
        .expect("admitted");
    let wide_done = wide.wait_done(Duration::from_secs(600)).expect("done");
    let seq_done = seq.wait_done(Duration::from_secs(600)).expect("done");
    assert!(!wide_done.plans.is_empty() && !seq_done.plans.is_empty());
    let stats = service.stats();
    assert_eq!(stats.multi_worker_sessions, 1);
    assert_eq!(stats.fan_out_submitted, 3, "one 2-wide + one sequential");
    println!(
        "service: wide session ({} rounds) and sequential session ({} steps) \
         completed side by side; {} multi-worker session accounted",
        wide_done.steps, seq_done.steps, stats.multi_worker_sessions
    );

    println!("\nok: deterministic reduction, live exchange, bounded deadline, service fan-out");
}
