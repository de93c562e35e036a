//! Integration tests of the parallel optimizer: the deterministic-reduction
//! contract (differential against literally-sequential reference runs),
//! seed-determinism pins, deadline enforcement across threads, and the
//! same contracts when sessions run as climb batches on a shared executor
//! rather than on their private one.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use moqo_core::archive::Admission;
use moqo_core::model::testing::StubModel;
use moqo_core::model::{CostModel, JoinOpId, PlanProps, PlanView, ScanOpId};
use moqo_core::optimizer::Budget;
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::{TableId, TableSet};
use moqo_parallel::{ExecPool, ParRmq, ParRmqConfig, TaskSpec, TaskStatus};
use proptest::prelude::*;

/// Runs `f` as a root task on a fresh `workers`-wide executor and returns
/// its result. The test thread never helps — placement stays on pool
/// workers, so `f` observes `ExecPool::current()` and `ParRmq::optimize`
/// fans out on this pool instead of a private one.
fn run_on_pool<T: Send + 'static>(workers: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    let pool = ExecPool::new(workers);
    let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let mut f = Some(f);
    pool.handle().spawn(TaskSpec::root(), move || {
        let f = f.take().expect("root task runs once");
        *slot.lock().unwrap() = Some(f());
        TaskStatus::Done
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(v) = result.lock().unwrap().take() {
            return v;
        }
        assert!(Instant::now() < deadline, "pool task timed out");
        std::thread::yield_now();
    }
}

/// The reference reduction: run `workers` *sequential* RMQ instances with
/// the derived per-worker seeds and iteration splits, then unite their
/// frontiers in worker order through exact `SigBetter` pruning — the
/// "sequential union of the per-worker runs" the deterministic mode must
/// reproduce bit-identically.
fn sequential_union(
    model: &StubModel,
    query: TableSet,
    seed: u64,
    workers: usize,
    total_iters: u64,
) -> Vec<PlanRef> {
    let mut union: ParetoSet<PlanRef> = ParetoSet::new();
    let mut screen = ScreenCounters::default();
    for w in 0..workers as u64 {
        let iters = total_iters / workers as u64 + u64::from(w < total_iters % workers as u64);
        let mut rmq = Rmq::new(model, query, RmqConfig::seeded(seed ^ w));
        for _ in 0..iters {
            rmq.iterate();
        }
        for plan in rmq.frontier() {
            union.insert(plan, &Admission::exact(), &mut screen);
        }
    }
    union.into_plans()
}

/// Renders a frontier as `(algebra string, exact cost bits)` pairs — the
/// bit-identity relation of the deterministic contract.
fn rendered(model: &StubModel, plans: &[PlanRef]) -> Vec<(String, Vec<u64>)> {
    plans
        .iter()
        .map(|p| {
            (
                p.display(model),
                p.cost().as_slice().iter().map(|c| c.to_bits()).collect(),
            )
        })
        .collect()
}

fn det_frontier(
    model: &StubModel,
    query: TableSet,
    seed: u64,
    workers: usize,
    total_iters: u64,
) -> Vec<PlanRef> {
    let cfg = ParRmqConfig::seeded(seed, workers).deterministic();
    let mut par = ParRmq::new(model.clone(), query, cfg);
    let stats = par.optimize(Budget::Iterations(total_iters));
    assert_eq!(stats.iterations, total_iters);
    par.frontier()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Differential: the merged frontier in deterministic mode equals the
    /// sequential `ParetoSet` union — same survivors, same costs, same
    /// order — across seeds, query sizes, 2–8 workers, and placements.
    /// `pool_width` 0 runs the session standalone on its private pool;
    /// 1–4 runs it as a root task on a shared pool that wide, which for
    /// a pool narrower than the fan-out forces batch queueing.
    /// Deterministic batches are ordinary pool tasks that any worker or
    /// helper may run.
    #[test]
    fn deterministic_mode_equals_sequential_union(
        seed in 0u64..1000,
        tables in 3usize..8,
        workers in 2usize..=8,
        pool_width in 0usize..=4,
        iters in 4u64..16,
    ) {
        let model = StubModel::line(tables, 2, 17);
        let query = TableSet::prefix(tables);
        let par = if pool_width == 0 {
            det_frontier(&model, query, seed, workers, iters)
        } else {
            let model = model.clone();
            run_on_pool(pool_width, move || det_frontier(&model, query, seed, workers, iters))
        };
        let reference = sequential_union(&model, query, seed, workers, iters);
        prop_assert_eq!(rendered(&model, &par), rendered(&model, &reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Iteration budgets are exact on the pool in live mode too: workers
    /// pull quotas from one shared claim counter, so awkward totals that
    /// don't divide by fan-out or batch size still land exactly.
    #[test]
    fn live_iteration_budget_is_exact_under_the_shared_claim_counter(
        seed in 0u64..1000,
        workers in 2usize..=4,
        total in 1u64..64,
    ) {
        let (iterations, frontier_len) = run_on_pool(2, move || {
            let model = StubModel::line(7, 2, 19);
            let query = TableSet::prefix(7);
            let mut cfg = ParRmqConfig::seeded(seed, workers);
            cfg.batch = 4;
            let mut par = ParRmq::new(model, query, cfg);
            let stats = par.optimize(Budget::Iterations(total));
            (stats.iterations, par.frontier().len())
        });
        prop_assert_eq!(iterations, total);
        prop_assert!(frontier_len > 0);
    }
}

#[test]
fn deterministic_frontiers_are_pinned_across_seeds_and_sizes() {
    // Seed-determinism pins, mirroring the arena-vs-legacy pins in
    // `moqo-core`: 3 seeds × 2 query sizes, 3 workers. Each deterministic
    // frontier must (a) be bit-identical to the sequential union and
    // (b) reproduce bit-identically on a second run — thread scheduling
    // must leave no trace.
    for tables in [6usize, 9] {
        for seed in [1u64, 2, 3] {
            let model = StubModel::line(tables, 2, 17);
            let query = TableSet::prefix(tables);
            let first = det_frontier(&model, query, seed, 3, 18);
            let second = det_frontier(&model, query, seed, 3, 18);
            assert_eq!(
                rendered(&model, &first),
                rendered(&model, &second),
                "rerun diverged (n={tables}, seed={seed})"
            );
            let reference = sequential_union(&model, query, seed, 3, 18);
            assert_eq!(
                rendered(&model, &first),
                rendered(&model, &reference),
                "sequential union diverged (n={tables}, seed={seed})"
            );
            assert!(!first.is_empty());
        }
    }
}

#[test]
fn deterministic_mode_is_step_granularity_invariant() {
    // Driving the optimizer in rounds (the service's slicing) must land on
    // the same frontier as one shot, as long as total per-worker
    // iterations match: 3 rounds × (2 workers × 4 batch) == 24 one-shot.
    let model = StubModel::line(6, 2, 17);
    let query = TableSet::prefix(6);
    let mut cfg = ParRmqConfig::seeded(5, 2).deterministic();
    cfg.batch = 4;
    let mut stepped = ParRmq::new(model.clone(), query, cfg);
    for _ in 0..3 {
        use moqo_core::optimizer::Optimizer;
        stepped.step();
    }
    let one_shot = det_frontier(&model, query, 5, 2, 24);
    assert_eq!(
        rendered(&model, &stepped.frontier()),
        rendered(&model, &one_shot)
    );
}

#[test]
fn live_mode_frontier_is_valid_and_exchange_converges_workers() {
    // Live mode gives up bit-reproducibility for exchange; the invariants
    // that must survive: every frontier plan is valid, the frontier is
    // mutually non-dominated per format, and workers absorb each other's
    // plans (the island-migration effect).
    let model = StubModel::line(8, 2, 11);
    let query = TableSet::prefix(8);
    let mut par = ParRmq::new(model.clone(), query, ParRmqConfig::seeded(21, 4));
    par.optimize(Budget::Iterations(80));
    let frontier = par.frontier();
    assert!(!frontier.is_empty());
    for p in &frontier {
        assert!(p.validate(query).is_ok());
    }
    for a in &frontier {
        for b in &frontier {
            if !std::sync::Arc::ptr_eq(a, b) && a.same_output(b) {
                assert!(!a.cost().strictly_dominates(b.cost()));
            }
        }
    }
    let ex = par.exchange_stats();
    assert!(ex.publishes >= 4, "every worker publishes at least once");
    assert!(ex.partial_merged > 0);
    assert!(ex.absorbed > 0, "workers absorb each other's plans");
    // The frontier is the reduction of the workers' own, in live mode too.
    assert_eq!(
        rendered(&model, &frontier),
        rendered(&model, &par.reduced_frontier())
    );
}

#[test]
fn deadline_overruns_are_bounded_on_eight_workers() {
    // The deadline satellite: a 50 ms deadline on 8 threads must never run
    // more than 2× over, because every climber checks the shared stop flag
    // once per climb step. Query size is chosen so individual climb steps
    // are far below the margin even on a loaded single-core CI box.
    let model = StubModel::line(10, 2, 3);
    let query = TableSet::prefix(10);
    let deadline = Duration::from_millis(50);
    let mut par = ParRmq::new(model, query, ParRmqConfig::seeded(7, 8));
    let started = Instant::now();
    let stats = par.optimize(Budget::Deadline(started + deadline));
    let elapsed = started.elapsed();
    assert!(
        elapsed <= deadline * 2,
        "50 ms deadline ran {}ms (> 2x) on 8 workers",
        elapsed.as_millis()
    );
    assert!(stats.iterations > 0, "some iterations must complete");
    assert!(!par.frontier().is_empty());
}

#[test]
fn deadline_is_bounded_on_an_oversubscribed_pool() {
    // The deadline satellite, executor edition: 8 sessions × fan-out 2 on
    // a 4-worker pool — four times as many climb batches as workers, so
    // batches queue, run on other workers, and get donated. Every batch checks the
    // deadline per iteration, so the whole oversubscribed mix must still
    // land within 2× of a 50 ms deadline.
    let pool = ExecPool::new(4);
    let model = StubModel::line(10, 2, 3);
    let query = TableSet::prefix(10);
    let finished = Arc::new(AtomicUsize::new(0));
    let results: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let deadline = Duration::from_millis(50);
    let stop_at = started + deadline;
    for s in 0..8u64 {
        let model = model.clone();
        let finished = Arc::clone(&finished);
        let results = Arc::clone(&results);
        let mut par = Some(ParRmq::new(model, query, ParRmqConfig::seeded(100 + s, 2)));
        pool.handle().spawn(TaskSpec::root(), move || {
            let mut par = par.take().expect("session task runs once");
            let stats = par.optimize(Budget::Deadline(stop_at));
            results
                .lock()
                .unwrap()
                .push((stats.iterations, par.frontier().len()));
            finished.fetch_add(1, Ordering::SeqCst);
            TaskStatus::Done
        });
    }
    while finished.load(Ordering::SeqCst) < 8 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "oversubscribed sessions never finished"
        );
        std::thread::yield_now();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed <= deadline * 2,
        "50 ms deadline ran {}ms (> 2x) with 8 sessions on 4 workers",
        elapsed.as_millis()
    );
    let results = results.lock().unwrap();
    assert_eq!(results.len(), 8);
    let total_iters: u64 = results.iter().map(|(i, _)| i).sum();
    assert!(total_iters > 0, "some iterations must complete");
    for (iters, frontier) in results.iter() {
        // A session that got iterations must have produced plans.
        assert!(*iters == 0 || *frontier > 0);
    }
}

#[test]
fn stop_handle_cancels_a_long_deadline_promptly() {
    // Fan-out 4, standalone (three batches run on the private pool's
    // threads) and as a root task on a 2-worker shared pool (some batches
    // run on the other worker, taken from the queue or donated). Raising
    // the flag from another thread must cancel every batch long before
    // the (distant) deadline.
    for pool_width in [0usize, 2] {
        let model = StubModel::line(9, 2, 13);
        let mut par = ParRmq::new(model, TableSet::prefix(9), ParRmqConfig::seeded(4, 4));
        let flag = par.stop_handle();
        let done = Arc::new(AtomicBool::new(false));
        let canceller = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // Arm after optimize() has cleared the flag: once when
                // standalone, until the run ends when the root task may
                // start late on the pool.
                std::thread::sleep(Duration::from_millis(40));
                flag.stop();
                while pool_width > 0 && !done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                    flag.stop();
                }
            })
        };
        let started = Instant::now();
        let deadline = started + Duration::from_secs(30);
        let mut optimize = move || par.optimize(Budget::Deadline(deadline)).iterations;
        let iterations = if pool_width == 0 {
            optimize()
        } else {
            run_on_pool(pool_width, optimize)
        };
        done.store(true, Ordering::SeqCst);
        canceller.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop() must end the run long before the deadline (pool width {pool_width})"
        );
        assert!(iterations > 0, "the session ran before being cancelled");
    }
}

/// A stub model whose clones share one join-costing allowance and panic
/// once it is spent.
#[derive(Clone)]
struct PanickingModel {
    inner: StubModel,
    costings_left: Arc<AtomicI64>,
}

impl CostModel for PanickingModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn metric_name(&self, k: usize) -> &str {
        self.inner.metric_name(k)
    }
    fn num_tables(&self) -> usize {
        self.inner.num_tables()
    }
    fn scan_ops(&self, table: TableId) -> &[ScanOpId] {
        self.inner.scan_ops(table)
    }
    fn join_ops(&self, outer: &PlanView, inner: &PlanView, out: &mut Vec<JoinOpId>) {
        self.inner.join_ops(outer, inner, out)
    }
    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
        self.inner.scan_props(table, op)
    }
    fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
        if self.costings_left.fetch_sub(1, Ordering::Relaxed) <= 0 {
            panic!("the cost model failed");
        }
        self.inner.join_props(outer, inner, op)
    }
    fn scan_op_name(&self, op: ScanOpId) -> String {
        self.inner.scan_op_name(op)
    }
    fn join_op_name(&self, op: JoinOpId) -> String {
        self.inner.join_op_name(op)
    }
    fn num_formats(&self) -> usize {
        self.inner.num_formats()
    }
}

#[test]
fn a_panicking_cost_model_fails_a_standalone_optimize_promptly() {
    // Every worker's batches end in a panic once the shared allowance is
    // spent; `optimize` must re-raise it instead of hanging its caller.
    for workers in [2usize, 4] {
        let model = PanickingModel {
            inner: StubModel::line(8, 2, 5),
            costings_left: Arc::new(AtomicI64::new(2_000)),
        };
        let mut par = ParRmq::new(model, TableSet::prefix(8), ParRmqConfig::seeded(3, workers));
        let (tx, rx) = mpsc::channel();
        let caller = std::thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                par.optimize(Budget::Iterations(1_000_000))
            }));
            tx.send(outcome.is_err()).unwrap();
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("optimize on {workers} workers hung on a panicked batch"));
        assert!(
            panicked,
            "optimize on {workers} workers must re-raise the panic"
        );
        caller.join().unwrap();
    }
}

#[test]
fn time_budget_counts_from_call_entry() {
    let model = StubModel::line(8, 2, 5);
    let query = TableSet::prefix(8);
    let mut par = ParRmq::new(model, query, ParRmqConfig::seeded(1, 2));
    let started = Instant::now();
    par.optimize(Budget::Time(Duration::from_millis(30)));
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(5),
        "budget ended too early"
    );
    assert!(elapsed <= Duration::from_millis(300), "budget ran far over");
}
