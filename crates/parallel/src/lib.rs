//! # moqo-parallel — intra-query parallel anytime optimization
//!
//! The paper's RMQ algorithm is a multi-start randomized hill climber whose
//! restarts are independent: the anytime frontier is just the Pareto union
//! of per-climb local optima, which makes a *single query* embarrassingly
//! parallel. [`ParRmq`] exploits that: it runs RMQ for one query across `N`
//! workers, each owning a private [`Rmq`] instance (its own session
//! arena, transient climb arena, partial-plan cache, and RNG stream seeded
//! deterministically as `seed ⊕ worker_id`), and periodically exchanges
//! survivors through a shared per-table-set frontier ([`SharedFrontier`])
//! — the island-model migration scheme of parallel evolutionary
//! multi-objective optimizers, applied to RMQ's restart structure.
//! Approximation-precision guarantees are unchanged: every plan still
//! enters a frontier through the paper's `SigBetter` pruning rule.
//!
//! ## The frontier
//!
//! [`ParRmq::frontier`] is the Pareto union of the workers' own query
//! frontiers, reduced in worker order through exact `SigBetter` pruning —
//! in both modes. Nothing else holds a copy of it: the exchange carries
//! plans between workers, and what a worker absorbs lands in its own
//! frontier, so the reduction sees it. Under ε-box archives each worker's
//! archive keeps its own size bound and the reduction unites those
//! archives; a plan a worker's archive evicted is α-covered by its evictor
//! (box dominance is transitive), so the reduction covers it without
//! keeping it.
//!
//! ## One executor
//!
//! The crate also hosts [`ExecPool`], the executor whose unit of work is a
//! **climb batch** (see the [`pool`] module docs). [`ParRmq::optimize`]
//! turns each active worker into a resumable batch task of one task group
//! and waits by helping — running its own batches, or donating to other
//! sessions' — while idle pool workers take batches from the queue. On a
//! pool worker ([`ExecPool::current`]) the batches go to that shared pool:
//! this is how the optimization service runs every session through one
//! executor. Anywhere else they go to a private pool of `workers − 1`
//! threads, built by the first such call and kept, with the caller as the
//! last worker. A batch's panic (say, from the cost model) is re-raised by
//! `optimize` once the round's other batches are done.
//!
//! ## Execution model
//!
//! * [`Budget::Iterations`] is honored **exactly** by a shared claim
//!   counter — live workers claim one iteration at a time until the
//!   counter is exhausted, so the total is independent of thread
//!   scheduling and a worker whose climbs run fast takes more of it.
//! * [`Budget::Time`] / [`Budget::Deadline`] are honored by wall clock with
//!   a shared [`StopFlag`]: the first worker to observe the deadline raises
//!   the flag, and every climber checks it once per hill-climbing step
//!   (see [`Rmq::iterate_aborting`]) — so all workers (including batches
//!   running on other pool threads) wind down within one climb step of
//!   the deadline instead of one full iteration.
//!
//! ## Exchange and partial-plan sharing
//!
//! Live-mode workers exchange through [`SharedFrontier`] every
//! [`EXCHANGE_PERIOD`] iterations. They share every multi-table frontier of
//! their private caches — the query's and its **partial-plan (sub-query)
//! frontiers** alike, through one path — so they stop rediscovering each
//! other's intermediate results.
//!
//! An exchange point costs what **changed since this worker's last one**,
//! in both directions ([`ExchangePort`] is a worker's end of it):
//!
//! * **Publish.** The worker's [`PlanCache`](moqo_core::cache::PlanCache)
//!   keeps a change list: the table sets that admitted a plan since the
//!   list was last cleared, and how many of each set's newest members are
//!   fresh. Only those members are offered to the shared per-table-set
//!   frontiers, which act as the global filter; a set that did not change
//!   was offered before, and re-offering a member could only see it
//!   rejected as weakly dominated by its own copy. A worker with an empty
//!   list takes no lock, and the merge lock is held only to merge: the
//!   survivors are exported and logged after it is released.
//! * **Absorb.** Survivors of every merge are appended to the shared
//!   **delta log**, tagged with their publisher. A worker keeps a *cursor*
//!   — the log length it has read up to, which is also the exchange epoch
//!   its journal events carry — and warm-starts only the entries past it
//!   that someone else published: never the whole shared state, never its
//!   own plans. An entry that has since been evicted from its shared
//!   frontier is harmless: its evictor is logged too, before or after it,
//!   and the warm start's exact pruning keeps the same survivors in either
//!   order. With nothing new the absorb is one atomic load. The warm start
//!   is lazy ([`Rmq::warm_start`]): a plan for a table set the worker's
//!   cache holds is offered at once, any other is parked by table set and
//!   offered, in arrival order, when the worker first climbs a plan over
//!   that set — most sub-query frontiers of the other workers are never
//!   imported.
//! * **No echo.** Absorbed plans enter the cache through
//!   [`PlanCache::slot_absorbing`](moqo_core::cache::PlanCache::slot_absorbing),
//!   which does not put their table set on the change list — they came out
//!   of the shared frontier, so offering them back is wasted work. What a
//!   worker *builds* from an absorbed plan is a new admission and is
//!   published like any other.
//!
//! A one-worker optimizer does no exchange at all, just as a deterministic
//! one does none: there is nobody to share with, and the reduction reads
//! the lone worker's frontier directly.
//!
//! A round ends with a flush publish so survivors found since the last
//! periodic exchange reach the other workers in the next round. A flush
//! with an empty change list takes no lock.
//!
//! [`ParRmq`] also implements the anytime [`Optimizer`] trait:
//! [`Optimizer::step`] runs one bounded *round* (`workers × batch`
//! iterations), which is how the optimization service schedules it in
//! slices alongside other sessions.
//!
//! ## Deterministic reduction mode
//!
//! With [`ParRmqConfig::deterministic`] set, workers never exchange plans
//! mid-run and an iteration budget is split statically across workers
//! (worker `w` runs `⌊n/N⌋ + (w < n mod N)` iterations). Each worker is
//! then an independent, fully deterministic sequential RMQ run, so the
//! reduction both modes share ([`ParRmq::frontier`]) is **bit-identical to
//! the sequential union of the per-worker runs**, regardless of thread
//! scheduling. Deterministic batches are ordinary batch tasks: any thread
//! may run them, since each worker's RNG stream and iteration share are
//! fixed up front. The differential test suite pins the equivalence against
//! literally-sequential reference runs, on the private pool and on shared
//! pools of several widths.
//!
//! ## When to prefer `ParRmq` over per-session parallelism
//!
//! The optimization service already parallelizes *across* sessions; fan a
//! single session out with `ParRmq` when one query's time-to-frontier
//! matters more than aggregate throughput — a latency-critical query under
//! a tight deadline. On a saturated shared pool a wide session's batches
//! queue with everyone else's, so they only occupy workers that would
//! otherwise idle.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod frontier;
pub mod pool;
mod port;

pub use frontier::{ExchangeStats, SharedFrontier, ANONYMOUS};
pub use pool::{ExecPool, PoolHandle, TaskGroup, TaskSpec, TaskStatus};
pub use port::ExchangePort;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use moqo_core::archive::Admission;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{
    AbortCheck, Budget, ConvergencePoint, Optimizer, PlanExchange, StopFlag,
};
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_obs::spans::{self, SpanId, SpanKind};

/// Live-mode exchange period: every worker publishes its frontiers into the
/// shared frontier — and absorbs what the other workers published — after
/// this many completed iterations, and publishes once more at the end of a
/// round.
pub const EXCHANGE_PERIOD: u64 = 8;

/// Configuration of the parallel optimizer.
#[derive(Clone, Copy, Debug)]
pub struct ParRmqConfig {
    /// Worker count (≥ 1). Worker `w` runs an independent RMQ seeded
    /// `base.seed ⊕ w`, so worker 0 reproduces the sequential run. Called
    /// off any pool, the optimizer runs `workers − 1` threads of its own.
    pub workers: usize,
    /// Per-worker RMQ configuration (seed, climb rules, α schedule, plan
    /// space). The seed is the *base* of the per-worker seed derivation.
    pub base: RmqConfig,
    /// Iterations per worker per [`Optimizer::step`] round — also the
    /// climb-batch granularity on the executor: batch tasks yield back to
    /// the pool after this many iterations. (Live workers claim an
    /// iteration budget one iteration at a time, whatever this is.)
    pub batch: u64,
    /// Deterministic reduction mode: no mid-run exchange, static iteration
    /// split, frontier bit-identical to the sequential union of the
    /// per-worker runs (see the crate docs).
    pub deterministic: bool,
}

impl Default for ParRmqConfig {
    fn default() -> Self {
        ParRmqConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            base: RmqConfig::default(),
            batch: 16,
            deterministic: false,
        }
    }
}

impl ParRmqConfig {
    /// Default configuration with the given base seed and worker count.
    pub fn seeded(seed: u64, workers: usize) -> Self {
        ParRmqConfig {
            workers,
            base: RmqConfig::seeded(seed),
            ..ParRmqConfig::default()
        }
    }

    /// The same configuration in deterministic reduction mode.
    pub fn deterministic(mut self) -> Self {
        self.deterministic = true;
        self
    }
}

/// Statistics of one [`ParRmq::optimize`] call.
#[derive(Clone, Debug, Default)]
pub struct ParRunStats {
    /// Iterations completed across all workers.
    pub iterations: u64,
    /// Iterations completed per worker (index = worker id).
    pub per_worker: Vec<u64>,
    /// Wall-clock time of the call.
    pub elapsed: Duration,
    /// Exchange counters at the end of the call (lifetime totals).
    pub exchange: ExchangeStats,
}

/// One worker: a private sequential RMQ plus its exchange bookkeeping.
struct Worker<M: CostModel> {
    rmq: Rmq<M>,
    /// The worker's end of the exchange (publisher tag = worker index).
    port: ExchangePort,
    /// Completed iterations over the optimizer's lifetime.
    iterations: u64,
    /// Iterations since the last exchange (live mode).
    since_exchange: u64,
}

/// A shared iteration budget live workers claim one iteration at a time:
/// however the claims of its clones interleave across threads, exactly
/// `total` of them succeed — which makes `Budget::Iterations` exact and
/// scheduling-independent.
#[derive(Clone, Debug)]
struct ClaimCounter {
    issued: Arc<AtomicU64>,
    total: u64,
}

impl ClaimCounter {
    fn new(total: u64) -> Self {
        ClaimCounter {
            issued: Arc::new(AtomicU64::new(0)),
            total,
        }
    }

    /// Claims one iteration; `false` once the total is issued.
    fn claim(&self) -> bool {
        self.issued.fetch_add(1, Ordering::Relaxed) < self.total
    }
}

/// How a worker decides whether to run its next iteration. Owned (no
/// borrows) so batch tasks can carry their plan across yields.
enum WorkPlan {
    /// Run exactly this many more iterations (deterministic split).
    Fixed(u64),
    /// Claim one iteration at a time from a shared counter until the
    /// budget is issued, so the faster worker runs more of it.
    Claim(ClaimCounter),
    /// Run until the abort condition fires (deadline / stop flag).
    Until(AbortCheck),
}

impl WorkPlan {
    /// Permission for one more iteration; `false` means the plan is
    /// exhausted. A claim costs one fetch-add, a deadline one abort check
    /// (the abort flag is also re-checked inside the climb).
    fn grant(&mut self) -> bool {
        match self {
            WorkPlan::Fixed(remaining) => {
                let granted = *remaining > 0;
                *remaining -= u64::from(granted);
                granted
            }
            WorkPlan::Claim(counter) => counter.claim(),
            WorkPlan::Until(abort) => !abort.should_abort(),
        }
    }
}

/// Runs up to `max_iters` iterations of `worker` under `plan`, exchanging
/// through `exchange` every [`EXCHANGE_PERIOD`] iterations (live mode with
/// more than one worker). Returns `(completed, finished)` where `finished`
/// means the plan is exhausted (budget done or abort observed) as opposed
/// to the chunk limit.
fn run_chunk<M: CostModel>(
    worker: &mut Worker<M>,
    plan: &mut WorkPlan,
    max_iters: u64,
    exchange: Option<&SharedFrontier>,
) -> (u64, bool) {
    for done in 0..max_iters {
        if !plan.grant() {
            return (done, true);
        }
        let completed = match plan {
            // Deadline iterations run guarded: the abort condition is
            // re-checked inside the climb, bounding overshoot to one
            // step — on whichever pool thread runs the batch.
            WorkPlan::Until(abort) => worker.rmq.iterate_aborting(abort).is_some(),
            _ => {
                worker.rmq.iterate();
                true
            }
        };
        if !completed {
            return (done, true);
        }
        worker.iterations += 1;
        if let Some(shared) = exchange {
            worker.since_exchange += 1;
            if worker.since_exchange >= EXCHANGE_PERIOD {
                worker.since_exchange = 0;
                exchange_point(worker, shared);
            }
        }
    }
    (max_iters, false)
}

/// One full exchange: publish, then absorb whatever the other workers
/// logged since this worker last looked. Both halves are traced as spans
/// (publish arg = plans merged, absorb arg = plans absorbed), parented to
/// the ambient batch/session span.
fn exchange_point<M: CostModel>(worker: &mut Worker<M>, shared: &SharedFrontier) {
    publish_point(worker, shared);
    let mut span = spans::begin(SpanKind::ExchangeAbsorb, SpanId::NONE);
    let absorbed = worker.port.absorb(&mut worker.rmq, shared) as u64;
    moqo_obs::ctx::set_epoch(worker.port.cursor());
    if let Some(s) = span.as_mut() {
        s.set_arg(absorbed);
    }
    spans::finish(span);
}

/// One publish half: offer the multi-table plans admitted since the last
/// publish — at a periodic exchange point, or as the flush that ends a
/// round, so survivors found since the last exchange are not held back.
fn publish_point<M: CostModel>(worker: &mut Worker<M>, shared: &SharedFrontier) {
    let mut span = spans::begin(SpanKind::ExchangePublish, SpanId::NONE);
    let merged = worker.port.publish_partials(&mut worker.rmq, shared);
    if let Some(s) = span.as_mut() {
        s.set_arg(merged as u64);
    }
    spans::finish(span);
}

/// One climb batch of worker `w`: up to `max_iters` iterations under a
/// batch span made ambient for the exchange spans inside it, then the flush
/// publish ([`publish_point`]) once the plan is exhausted. Returns whether
/// it is.
fn run_batch<M: CostModel>(
    w: usize,
    worker: &mut Worker<M>,
    plan: &mut WorkPlan,
    max_iters: u64,
    exchange: Option<&SharedFrontier>,
) -> bool {
    // Journal events carry the worker id (1-based; 0 = unset).
    moqo_obs::ctx::set_worker(w as u32 + 1);
    let mut span = spans::begin(SpanKind::Batch, SpanId::NONE);
    // Restored below; elided entirely when tracing is off.
    let prev = span.as_ref().map(|s| spans::set_current(s.id()));
    let (done, finished) = run_chunk(worker, plan, max_iters, exchange);
    if let (true, Some(shared)) = (finished, exchange) {
        publish_point(worker, shared);
    }
    if let Some(prev) = prev {
        spans::set_current(prev);
    }
    if let Some(s) = span.as_mut() {
        s.set_arg(done);
    }
    spans::finish(span);
    finished
}

/// The parallel RMQ optimizer (see the crate docs).
///
/// Generic over how each worker holds the cost model: `M` is cloned once
/// per worker. Batch tasks own their workers (`'static`), so `M` must be
/// owned — pass the model by value or behind an `Arc`.
pub struct ParRmq<M: CostModel + Clone + Send + 'static> {
    query: TableSet,
    cfg: ParRmqConfig,
    /// Worker slots; `None` only while a round has the worker checked out
    /// on the executor.
    workers: Vec<Option<Worker<M>>>,
    shared: Arc<SharedFrontier>,
    stop: StopFlag,
    rounds: u64,
    /// The pool of `cfg.workers − 1` threads that runs rounds called off
    /// any pool; built by the first such round.
    private_pool: Option<ExecPool>,
}

impl<M: CostModel + Clone + Send + 'static> ParRmq<M> {
    /// Creates a parallel optimizer for `query` over `model` — one private
    /// [`Rmq`] per worker, seeded `cfg.base.seed ⊕ worker_id`.
    ///
    /// # Panics
    /// Panics if `cfg.workers` is zero or `query` is empty.
    pub fn new(model: M, query: TableSet, cfg: ParRmqConfig) -> Self {
        assert!(cfg.workers >= 1, "ParRmq needs at least one worker");
        let workers = (0..cfg.workers)
            .map(|w| {
                Some(Worker {
                    rmq: Rmq::new(
                        model.clone(),
                        query,
                        RmqConfig {
                            seed: cfg.base.seed ^ w as u64,
                            ..cfg.base
                        },
                    ),
                    port: ExchangePort::new(w as u32),
                    iterations: 0,
                    since_exchange: 0,
                })
            })
            .collect();
        ParRmq {
            query,
            cfg,
            workers,
            shared: Arc::new(SharedFrontier::new()),
            stop: StopFlag::new(),
            rounds: 0,
            private_pool: None,
        }
    }

    /// Builds the per-worker plans for `budget`; an iteration budget is
    /// shared exactly among the workers.
    fn make_plans(&self, budget: Budget, start: Instant) -> Vec<WorkPlan> {
        let active = self.cfg.workers;
        match budget {
            Budget::Iterations(n) if self.cfg.deterministic => {
                let k = active as u64;
                (0..active as u64)
                    .map(|w| WorkPlan::Fixed(n / k + u64::from(w < n % k)))
                    .collect()
            }
            Budget::Iterations(n) => {
                let counter = ClaimCounter::new(n);
                (0..active)
                    .map(|_| WorkPlan::Claim(counter.clone()))
                    .collect()
            }
            Budget::Time(d) => (0..active)
                .map(|_| WorkPlan::Until(AbortCheck::new(self.stop.clone(), Some(start + d))))
                .collect(),
            Budget::Deadline(at) => (0..active)
                .map(|_| WorkPlan::Until(AbortCheck::new(self.stop.clone(), Some(at))))
                .collect(),
        }
    }

    /// Runs the workers until `budget` is exhausted (see the crate docs for
    /// how each budget kind is honored across workers and for which pool
    /// runs them). `Budget::Time` counts from this call's entry. May be
    /// called repeatedly; worker state (caches, arenas, RNG streams)
    /// persists across calls.
    ///
    /// # Panics
    /// Re-raises the panic of a worker's batch (e.g. from the cost model).
    /// The panicking worker is lost with its task: a caller that catches
    /// the panic must drop the `ParRmq`, whose workers are not checked in.
    pub fn optimize(&mut self, budget: Budget) -> ParRunStats {
        let start = Instant::now();
        self.stop.clear();
        let before: Vec<u64> = self
            .workers
            .iter()
            .map(|w| w.as_ref().expect("worker checked in").iterations)
            .collect();
        let pool = ExecPool::current().unwrap_or_else(|| {
            self.private_pool
                .get_or_insert_with(|| ExecPool::new(self.cfg.workers - 1))
                .handle()
        });
        self.optimize_pooled(&pool, budget, start);
        self.rounds += 1;
        let per_worker: Vec<u64> = self
            .workers
            .iter()
            .zip(&before)
            .map(|(w, b)| w.as_ref().expect("worker checked in").iterations - b)
            .collect();
        ParRunStats {
            iterations: per_worker.iter().sum(),
            per_worker,
            elapsed: start.elapsed(),
            exchange: self.shared.stats(),
        }
    }

    /// The fan-out as a group of resumable batch tasks on `pool`; the
    /// calling thread waits by helping.
    fn optimize_pooled(&mut self, pool: &PoolHandle, budget: Budget, start: Instant) {
        let active = self.cfg.workers;
        // Deterministic workers exchange nothing, and a lone worker has
        // nobody to exchange with.
        let exchanging = !self.cfg.deterministic && active > 1;
        let batch = self.cfg.batch.max(1);
        let plans = self.make_plans(budget, start);
        let checked_in: Arc<Mutex<Vec<Option<Worker<M>>>>> =
            Arc::new(Mutex::new((0..active).map(|_| None).collect()));
        let group = pool.group();
        for (w, mut plan) in plans.into_iter().enumerate() {
            let mut slot = self.workers[w].take();
            let checked_in = Arc::clone(&checked_in);
            let shared = Arc::clone(&self.shared);
            pool.spawn_in(&group, TaskSpec::batch(), move || {
                let worker = slot.as_mut().expect("worker moved into this task");
                let exchange = exchanging.then_some(&*shared);
                // The executor installed the spawner's ambient span, so the
                // batch span parents to the session on any worker.
                if !run_batch(w, worker, &mut plan, batch, exchange) {
                    return TaskStatus::Yield;
                }
                checked_in.lock().unwrap()[w] = slot.take();
                TaskStatus::Done
            });
        }
        pool.help_until(&group);
        let mut checked_in = checked_in.lock().unwrap();
        for (w, slot) in checked_in.iter_mut().enumerate() {
            self.workers[w] = Some(slot.take().expect("finished task returned its worker"));
        }
    }

    /// Requests cooperative cancellation of a deadline-budget `optimize`
    /// call running on the workers (cleared again at the next call).
    pub fn stop(&self) {
        self.stop.stop();
    }

    /// A movable handle onto the optimizer's stop flag, so another thread
    /// can cancel a running deadline-budget [`ParRmq::optimize`] call while
    /// the optimizer itself is mutably borrowed by it. Note the flag is
    /// cleared at each `optimize` entry: arm cancellation after the call
    /// has started (or between calls).
    pub fn stop_handle(&self) -> StopFlag {
        self.stop.clone()
    }

    /// The reduction: per-worker frontiers united in worker order through
    /// exact `SigBetter` pruning — [`ParRmq::frontier`] in both modes (see
    /// the crate docs).
    pub fn reduced_frontier(&self) -> Vec<PlanRef> {
        let mut union: ParetoSet<PlanRef> = ParetoSet::new();
        let mut screen = ScreenCounters::default();
        for worker in &self.workers {
            let worker = worker.as_ref().expect("worker checked in");
            for plan in worker.rmq.frontier() {
                union.insert(plan, &Admission::exact(), &mut screen);
            }
        }
        union.into_plans()
    }

    /// The current query frontier: the reduction of the workers' own
    /// ([`ParRmq::reduced_frontier`]), whatever the mode.
    pub fn frontier(&self) -> Vec<PlanRef> {
        self.reduced_frontier()
    }

    /// Lifetime exchange counters of the shared frontier.
    pub fn exchange_stats(&self) -> ExchangeStats {
        self.shared.stats()
    }

    /// The current exchange epoch: the length of the shared delta log (0
    /// until a publish merges anything — and so always 0 for a lone or a
    /// deterministic worker).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// Iterations completed per worker over the optimizer's lifetime.
    pub fn worker_iterations(&self) -> Vec<u64> {
        self.workers
            .iter()
            .map(|w| w.as_ref().expect("worker checked in").iterations)
            .collect()
    }

    /// Read access to the per-worker sequential optimizers (diagnostics
    /// and differential tests).
    pub fn worker_rmqs(&self) -> impl Iterator<Item = &Rmq<M>> {
        self.workers
            .iter()
            .map(|w| &w.as_ref().expect("worker checked in").rmq)
    }

    /// Completed [`Optimizer::step`] / [`ParRmq::optimize`] rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The query being optimized.
    pub fn query(&self) -> TableSet {
        self.query
    }

    /// The configuration.
    pub fn config(&self) -> &ParRmqConfig {
        &self.cfg
    }
}

impl<M: CostModel + Clone + Send + 'static> Optimizer for ParRmq<M> {
    fn name(&self) -> &str {
        "ParRMQ"
    }

    /// One bounded round: `workers × batch` iterations fanned out over
    /// the workers (claimed dynamically in live mode, split statically in
    /// deterministic mode).
    fn step(&mut self) -> bool {
        let round = self.cfg.batch.max(1) * self.cfg.workers as u64;
        self.optimize(Budget::Iterations(round));
        true
    }

    fn frontier(&self) -> Vec<PlanRef> {
        ParRmq::frontier(self)
    }
}

impl<M: CostModel + Clone + Send + 'static> PlanExchange for ParRmq<M> {
    /// Warm-starts **every** worker with the given plans (each worker has
    /// its own cache, so all of them benefit); returns the total absorbed
    /// across workers.
    fn absorb_plans(&mut self, plans: &[PlanRef]) -> usize {
        self.workers
            .iter_mut()
            .map(|w| {
                let w = w.as_mut().expect("worker checked in");
                PlanExchange::absorb_plans(&mut w.rmq, plans)
            })
            .sum()
    }

    /// Exports the query frontier ([`ParRmq::frontier`], the reduction of
    /// the workers' own), so exports never trail the exchange period.
    /// Unlike [`Rmq::export_plans`], partial plans of sub-queries are not
    /// exported — those travel between workers through the shared frontier
    /// instead.
    fn export_plans(&self) -> Vec<PlanRef> {
        self.reduced_frontier()
    }

    fn fan_out(&self) -> usize {
        self.cfg.workers
    }

    /// The union of every worker's checkpoint stream, ordered by elapsed
    /// time (workers are created together, so their clocks are
    /// comparable). Each point carries that worker's *local* frontier
    /// snapshot; consumers building a session-level quality curve should
    /// feed the points into an incremental tracker in order, so the curve
    /// reflects the running union across workers.
    fn convergence(&self) -> Vec<ConvergencePoint> {
        let mut points: Vec<ConvergencePoint> = self
            .workers
            .iter()
            .flat_map(|w| {
                w.as_ref()
                    .expect("worker checked in")
                    .rmq
                    .convergence_points()
                    .iter()
                    .cloned()
            })
            .collect();
        points.sort_by(|a, b| {
            a.elapsed
                .cmp(&b.elapsed)
                .then(a.iteration.cmp(&b.iteration))
        });
        points
    }

    fn sample_convergence_now(&mut self) {
        for w in &mut self.workers {
            w.as_mut()
                .expect("worker checked in")
                .rmq
                .sample_convergence_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::optimizer::{drive, NullObserver};

    fn model(n: usize) -> StubModel {
        StubModel::line(n, 2, 7)
    }

    /// A worker outside any `ParRmq`, publishing under tag `w`.
    fn lone(model: StubModel, query: TableSet, seed: u64, w: u32) -> Worker<StubModel> {
        Worker {
            rmq: Rmq::new(model, query, RmqConfig::seeded(seed)),
            port: ExchangePort::new(w),
            iterations: 0,
            since_exchange: 0,
        }
    }

    #[test]
    fn iteration_budget_is_exact_across_workers() {
        for deterministic in [false, true] {
            let mut cfg = ParRmqConfig::seeded(3, 3);
            cfg.deterministic = deterministic;
            let mut par = ParRmq::new(model(6), TableSet::prefix(6), cfg);
            let stats = par.optimize(Budget::Iterations(31));
            assert_eq!(stats.iterations, 31, "det={deterministic}");
            assert_eq!(stats.per_worker.len(), 3);
            assert_eq!(stats.per_worker.iter().sum::<u64>(), 31);
            if deterministic {
                // Static split: 31 = 11 + 10 + 10.
                assert_eq!(stats.per_worker, vec![11, 10, 10]);
            }
            assert!(!par.frontier().is_empty());
        }
    }

    #[test]
    fn single_worker_matches_sequential_rmq_in_both_modes() {
        let m = model(6);
        let mut seq = Rmq::new(&m, TableSet::prefix(6), RmqConfig::seeded(9));
        for _ in 0..20 {
            seq.iterate();
        }
        let seq_rendered: Vec<String> = seq.frontier().iter().map(|p| p.display(&m)).collect();
        for deterministic in [true, false] {
            let mut cfg = ParRmqConfig::seeded(9, 1);
            cfg.deterministic = deterministic;
            let mut par = ParRmq::new(m.clone(), TableSet::prefix(6), cfg);
            par.optimize(Budget::Iterations(20));
            // One worker runs on the calling thread alone, and exchanges
            // with nobody.
            let private = par.private_pool.as_ref().map(|p| p.handle().workers());
            assert_eq!(private, Some(0));
            assert_eq!(par.exchange_stats().publishes, 0, "det={deterministic}");
            let par_rendered: Vec<String> = par.frontier().iter().map(|p| p.display(&m)).collect();
            assert_eq!(par_rendered, seq_rendered, "det={deterministic}");
        }
    }

    #[test]
    fn live_mode_exchanges_plans_through_the_shared_frontier() {
        let mut par = ParRmq::new(model(7), TableSet::prefix(7), ParRmqConfig::seeded(5, 4));
        par.optimize(Budget::Iterations(60));
        let ex = par.exchange_stats();
        assert!(ex.publishes > 0, "workers must publish");
        assert!(ex.partial_offered > 0, "frontiers must be offered: {ex:?}");
        assert!(ex.partial_merged > 0, "someone's survivors must merge");
        assert!(ex.absorbed > 0, "workers must absorb: {ex:?}");
        // The query's table set is shared like every sub-query's.
        let shared = par.shared.partial_costs();
        assert_eq!(shared.len(), ex.partial_table_sets);
        assert!(shared.iter().any(|(rel, _)| *rel == TableSet::prefix(7)));
        let frontier = par.frontier();
        assert!(!frontier.is_empty());
        for p in &frontier {
            assert!(p.validate(TableSet::prefix(7)).is_ok());
        }
        // The epoch is the log's length: every merged plan, logged once.
        assert_eq!(par.epoch(), ex.partial_merged);
    }

    #[test]
    fn pooled_mode_runs_rounds_on_the_shared_executor() {
        let pool = ExecPool::new(2);
        let handle = pool.handle();
        type Outcome = (u64, usize, bool, bool);
        let result: Arc<Mutex<Option<Outcome>>> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&result);
        // Plain spawn + polling: the test thread must not help, or the
        // session could run here (off-pool) on a private pool.
        handle.spawn(TaskSpec::root(), move || {
            let on_pool = ExecPool::current().is_some();
            let mut cfg = ParRmqConfig::seeded(6, 3);
            cfg.batch = 4;
            let mut par = ParRmq::new(model(6), TableSet::prefix(6), cfg);
            let stats = par.optimize(Budget::Iterations(25));
            par.step();
            // A private pool, once built, is kept: one look covers both.
            let private = par.private_pool.is_some();
            *out.lock().unwrap() = Some((stats.iterations, par.frontier().len(), on_pool, private));
            TaskStatus::Done
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while result.lock().unwrap().is_none() {
            assert!(Instant::now() < deadline, "pooled session made no progress");
            std::thread::yield_now();
        }
        let (iterations, frontier, on_pool, private) = result.lock().unwrap().expect("session ran");
        assert!(on_pool, "the session must have run on a pool worker");
        assert!(!private, "a pooled session must not build its own");
        assert_eq!(iterations, 25, "pooled budgets stay exact");
        assert!(frontier > 0);
        pool.shutdown();
    }

    #[test]
    fn optimizer_trait_steps_in_rounds() {
        let mut cfg = ParRmqConfig::seeded(2, 2);
        cfg.batch = 5;
        let mut par = ParRmq::new(model(6), TableSet::prefix(6), cfg);
        let stats = drive(&mut par, Budget::Iterations(3), &mut NullObserver);
        assert_eq!(stats.steps, 3);
        assert_eq!(par.worker_iterations().iter().sum::<u64>(), 3 * 2 * 5);
        assert_eq!(par.rounds(), 3);
        assert_eq!(par.name(), "ParRMQ");
        assert!(!Optimizer::frontier(&par).is_empty());
    }

    #[test]
    fn plan_exchange_fans_out_and_reports_width() {
        let m = model(6);
        let mut donor = Rmq::new(&m, TableSet::prefix(6), RmqConfig::seeded(1));
        for _ in 0..10 {
            donor.iterate();
        }
        let exported = PlanExchange::export_plans(&donor);
        let mut par = ParRmq::new(m.clone(), TableSet::prefix(6), ParRmqConfig::seeded(8, 3));
        assert_eq!(par.fan_out(), 3);
        let absorbed = PlanExchange::absorb_plans(&mut par, &exported);
        assert!(
            absorbed > 0,
            "every worker should absorb overlapping partial plans"
        );
        par.optimize(Budget::Iterations(12));
        assert!(!PlanExchange::export_plans(&par).is_empty());
    }

    #[test]
    fn claim_plans_hand_out_the_budget_one_iteration_at_a_time() {
        // Whatever order the holders of one counter ask in, each call
        // grants at most one iteration and the grants sum to exactly the
        // budget.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for n in [0, 1, 7, 31, 200] {
            for holders in 1..=4 {
                let counter = ClaimCounter::new(n);
                let mut plans: Vec<WorkPlan> = (0..holders)
                    .map(|_| WorkPlan::Claim(counter.clone()))
                    .collect();
                let mut granted = 0;
                // A random interleaving, about four calls per iteration of
                // the budget, so most holders also ask past exhaustion.
                for _ in 0..(n + 8) * holders as u64 * 4 {
                    granted += u64::from(plans[next(holders as u64) as usize].grant());
                }
                for plan in &mut plans {
                    while plan.grant() {
                        granted += 1;
                    }
                    assert!(!plan.grant(), "an exhausted plan grants nothing");
                }
                assert_eq!(granted, n, "holders={holders}");
            }
        }
    }

    #[test]
    fn converged_workers_exchange_on_the_fixed_period() {
        // A three-table query converges almost at once, after which the
        // worker rarely has anything to publish; it still reads the log
        // after every EXCHANGE_PERIOD of its own iterations — no sooner, no
        // later, and across batch boundaries. A donor over a larger query
        // keeps logging plans, so an early or a missed read would show.
        let m = model(8);
        let shared = SharedFrontier::new();
        let mut worker = lone(m.clone(), TableSet::prefix(3), 13, 0);
        run_chunk(&mut worker, &mut WorkPlan::Fixed(64), 64, None);
        let mut donor = lone(m, TableSet::prefix(8), 1, 1);
        for period in 0..4 {
            let mut donated = 0;
            for _ in 0..200 {
                donor.rmq.iterate();
                donated = donor.port.publish_partials(&mut donor.rmq, &shared);
                if donated > 0 {
                    break;
                }
            }
            assert!(donated > 0, "period {period}: the donor ran dry");
            let logged = shared.epoch();
            let budget = &mut WorkPlan::Fixed(u64::MAX);
            run_chunk(&mut worker, budget, EXCHANGE_PERIOD - 1, Some(&shared));
            assert!(worker.port.cursor() < logged, "period {period}: early read");
            run_chunk(&mut worker, budget, 1, Some(&shared));
            assert_eq!(
                worker.port.cursor(),
                shared.epoch(),
                "period {period}: no read at the period"
            );
        }
    }

    #[test]
    fn a_flush_right_after_an_exchange_publishes_nothing() {
        // The 8th iteration publishes on the period; the end-of-batch flush
        // right after it has an empty change list and takes no lock.
        let shared = SharedFrontier::new();
        let mut worker = lone(model(10), TableSet::prefix(10), 4, 0);
        assert!(run_batch(
            0,
            &mut worker,
            &mut WorkPlan::Fixed(8),
            16,
            Some(&shared)
        ));
        assert_eq!(shared.stats().publishes, 1);
        // Iterations since the last publish still go out with the flush.
        assert!(run_batch(
            0,
            &mut worker,
            &mut WorkPlan::Fixed(3),
            16,
            Some(&shared)
        ));
        assert_eq!(shared.stats().publishes, 2);
    }

    #[test]
    fn a_lone_worker_exchanges_nothing() {
        let mut par = ParRmq::new(model(7), TableSet::prefix(7), ParRmqConfig::seeded(5, 1));
        par.optimize(Budget::Iterations(40));
        let ex = par.exchange_stats();
        assert_eq!(
            (ex.publishes, ex.partial_offered, ex.absorbed),
            (0, 0, 0),
            "{ex:?}"
        );
        assert_eq!(par.epoch(), 0);
        assert!(!par.frontier().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let cfg = ParRmqConfig {
            workers: 0,
            ..ParRmqConfig::default()
        };
        let _ = ParRmq::new(model(3), TableSet::prefix(3), cfg);
    }
}
