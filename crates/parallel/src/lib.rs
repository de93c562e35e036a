//! # moqo-parallel — intra-query parallel anytime optimization
//!
//! The paper's RMQ algorithm is a multi-start randomized hill climber whose
//! restarts are independent: the anytime frontier is just the Pareto union
//! of per-climb local optima, which makes a *single query* embarrassingly
//! parallel. [`ParRmq`] exploits that: it runs RMQ for one query across `N`
//! workers, each owning a private [`Rmq`] instance (its own session
//! arena, transient climb arena, partial-plan cache, and RNG stream seeded
//! deterministically as `seed ⊕ worker_id`), and periodically exchanges
//! survivors through a shared epoch-versioned global frontier
//! ([`SharedFrontier`]) — the island-model migration scheme of parallel
//! evolutionary multi-objective optimizers, applied to RMQ's restart
//! structure. Approximation-precision guarantees are unchanged: every plan
//! still enters a frontier through the paper's `SigBetter` pruning rule.
//!
//! ## The work-stealing executor
//!
//! The crate also hosts [`ExecPool`], the shared work-stealing executor
//! whose unit of work is a **climb batch** (see the [`pool`] module docs
//! for the deque/steal diagram). [`ParRmq::optimize`] runs in one of two
//! modes depending on where it is called:
//!
//! * **Standalone** (not on a pool worker): the classic PR 4 shape — one
//!   scoped OS thread per worker, joined before the call returns.
//! * **Pooled** (called from a pool worker thread, detected via
//!   [`ExecPool::current`]): the fan-out becomes a group of resumable
//!   batch tasks on the *shared* pool. The calling thread waits by
//!   helping — running its own batches and donating spare capacity to
//!   other sessions' batches — and idle pool workers steal batches, so a
//!   wide session never holds threads it is not using. This is how the
//!   optimization service schedules every session (fan-out ≥ 1) through
//!   one executor instead of nested private thread pools.
//!
//! In pooled mode the *effective* fan-out is elastic: the service grants a
//! width per scheduled slice via [`PlanExchange::set_effective_fan_out`]
//! (clamped to `1..=workers`), and only that many workers climb during the
//! slice. Correctness never depends on the granted width — iteration
//! budgets are claimed from a shared [`ClaimCounter`], so totals stay
//! exact at any width.
//!
//! ## Execution model
//!
//! * [`Budget::Iterations`] is honored **exactly** by a shared
//!   [`ClaimCounter`] — workers claim batches until the counter is
//!   exhausted, so the total is independent of thread scheduling and of
//!   the granted width.
//! * [`Budget::Time`] / [`Budget::Deadline`] are honored by wall clock with
//!   a shared [`StopFlag`]: the first worker to observe the deadline raises
//!   the flag, and every climber checks it once per hill-climbing step
//!   (see [`Rmq::iterate_aborting`]) — so all workers (including stolen
//!   batches on foreign pool threads) wind down within one climb step of
//!   the deadline instead of one full iteration.
//!
//! ## Adaptive exchange and partial-plan sharing
//!
//! Live-mode workers exchange through [`SharedFrontier`] at an **adaptive
//! period** ([`AdaptiveExchange`]): starting from
//! [`ParRmqConfig::exchange_period`], the period doubles each time a full
//! window of publishes merges nothing (the frontiers have converged;
//! publishing is pure overhead) and snaps back to the base the moment any
//! publish merges (information is moving again). Alongside the full-query
//! frontier, workers share their **partial-plan (sub-query) frontiers** —
//! the per-table-set survivors of their private caches — so they stop
//! rediscovering each other's intermediate results.
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
//!   list takes no lock.
//! * **Absorb.** Survivors of every merge are appended to the shared
//!   **delta log**, tagged with their publisher. A worker keeps a *cursor*
//!   — the log length it has read up to — and warm-starts only the entries
//!   past it that someone else published: never the whole shared state,
//!   never its own plans. An entry that has since been evicted from its
//!   shared frontier is harmless: its evictor follows it in the log and
//!   removes it again under the warm start's exact pruning. With nothing new
//!   the absorb is one atomic load. The warm start is lazy
//!   ([`Rmq::warm_start`]): a plan for a table set the worker's cache holds
//!   is offered at once, any other is parked by table set and offered, in
//!   arrival order, when the worker first climbs a plan over that set —
//!   most sub-query frontiers of the other workers are never imported.
//! * **No echo.** Absorbed plans enter the cache through
//!   [`PlanCache::slot_absorbing`](moqo_core::cache::PlanCache::slot_absorbing),
//!   which does not put their table set on the change list — they came out
//!   of the shared frontier, so offering them back is wasted work. What a
//!   worker *builds* from an absorbed plan is a new admission and is
//!   published like any other.
//!
//! A round whose active width is 1 (configured, or granted via
//! [`PlanExchange::set_effective_fan_out`]) does no partial exchange at all:
//! there is nobody to share with. The lone worker only keeps the published
//! query frontier current — the one [`ParRmq::frontier`] reads — while its
//! change list accumulates; the first wide round publishes it, and the
//! workers that sat out catch up from their old cursors.
//!
//! A round ends with a flush publish so survivors found since the last
//! periodic exchange are not lost. A worker that has not iterated since its
//! last publish skips it: it has nothing to add, and a publish that can only
//! merge nothing would count toward the adaptive period's dry window.
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
//! then an independent, fully deterministic sequential RMQ run, and
//! [`ParRmq::frontier`] reduces them in worker order through exact
//! `SigBetter` pruning — producing a frontier **bit-identical to the
//! sequential union of the per-worker runs**, regardless of thread
//! scheduling. On the pool, deterministic batches are **unstealable**
//! (pinned to their deque; only their own session's waiting thread runs
//! them), the exchange period stays fixed, and the effective fan-out is
//! always the configured width — the mode is the differential oracle, so
//! its schedule must stay inert. The differential test suite pins the
//! equivalence against literally-sequential reference runs.
//!
//! ## When to prefer `ParRmq` over per-session parallelism
//!
//! The optimization service already parallelizes *across* sessions; fan a
//! single session out with `ParRmq` when one query's time-to-frontier
//! matters more than aggregate throughput — a latency-critical query under
//! a tight deadline. On the shared pool the old caveat about wasted
//! duplicate exploration under saturation is softened: a wide session
//! shrinks to its granted width, and its batches only occupy workers that
//! would otherwise idle.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod adaptive;
mod frontier;
pub mod pool;
mod port;

pub use adaptive::{AdaptiveExchange, MAX_BACKOFF_LEVEL};
pub use frontier::{ExchangeStats, FrontierSnapshot, SharedFrontier, ANONYMOUS};
pub use pool::{ExecPool, PoolHandle, TaskGroup, TaskSpec, TaskStatus};
pub use port::ExchangePort;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use moqo_core::archive::Admission;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{
    AbortCheck, Budget, ClaimCounter, ConvergencePoint, Optimizer, PlanExchange, StopFlag,
};
use moqo_core::pareto::ParetoSet;
use moqo_core::plan::PlanRef;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_obs::spans::{self, SpanId, SpanKind};

/// Configuration of the parallel optimizer.
#[derive(Clone, Copy, Debug)]
pub struct ParRmqConfig {
    /// Worker count (≥ 1). Worker `w` runs an independent RMQ seeded
    /// `base.seed ⊕ w`, so worker 0 reproduces the sequential run. This is
    /// the *maximum* fan-out; in pooled live mode the effective width per
    /// round may be lower (see [`PlanExchange::set_effective_fan_out`]).
    pub workers: usize,
    /// Per-worker RMQ configuration (seed, climb rules, α schedule, plan
    /// space). The seed is the *base* of the per-worker seed derivation.
    pub base: RmqConfig,
    /// Iterations per worker per [`Optimizer::step`] round — also the
    /// climb-batch granularity on the shared executor: pooled tasks yield
    /// back to the pool after this many iterations, and iteration budgets
    /// are claimed from the shared counter in chunks of this size.
    pub batch: u64,
    /// Live-mode **base** exchange period: every worker publishes its
    /// frontiers into the shared global frontier — and absorbs the latest
    /// global snapshots — after this many completed iterations. The live
    /// period adapts upward from here when publishes stop merging (see
    /// [`AdaptiveExchange`]). Ignored (no exchange) in deterministic mode.
    pub exchange_period: u64,
    /// Deterministic reduction mode: no mid-run exchange, static iteration
    /// split, no stealing, frontier bit-identical to the sequential union
    /// of the per-worker runs (see the crate docs).
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
            exchange_period: 8,
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
    /// Iterations since the last publish, periodic or flush (live mode).
    since_publish: u64,
    /// Plans absorbed from the delta log over the lifetime.
    absorbed: u64,
}

/// How a worker decides whether to run its next iterations. Owned (no
/// borrows) so pooled tasks can carry their plan across yields.
enum WorkPlan {
    /// Run exactly this many more iterations (deterministic split).
    Fixed(u64),
    /// Claim chunks from a shared counter until the budget is issued.
    Claim { counter: ClaimCounter, chunk: u64 },
    /// Run until the abort condition fires (deadline / stop flag).
    Until(AbortCheck),
}

impl WorkPlan {
    /// Permission for up to `room` more iterations; `0` means the plan is
    /// exhausted. Deadline plans grant one iteration at a time (the abort
    /// flag is also re-checked inside the climb); claim plans pay one
    /// fetch-add per chunk.
    fn next_quota(&mut self, room: u64) -> u64 {
        match self {
            WorkPlan::Fixed(remaining) => {
                let quota = (*remaining).min(room);
                *remaining -= quota;
                quota
            }
            WorkPlan::Claim { counter, chunk } => counter.claim_batch(room.min(*chunk)),
            WorkPlan::Until(abort) => {
                if abort.should_abort() {
                    0
                } else {
                    1
                }
            }
        }
    }
}

/// Everything a live-mode exchange point needs.
struct ExchangeCtx<'a> {
    shared: &'a SharedFrontier,
    adaptive: &'a AdaptiveExchange,
    /// Whether more than one worker is active this round. A lone worker has
    /// nobody to share sub-query plans with: it only keeps the published
    /// query frontier current.
    wide: bool,
}

/// Runs up to `max_iters` iterations of `worker` under `plan`, exchanging
/// through the shared frontier at the adaptive period (live mode). Returns
/// `(completed, finished)` where `finished` means the plan is exhausted
/// (budget done or abort observed) as opposed to the chunk limit.
fn run_chunk<M: CostModel>(
    worker: &mut Worker<M>,
    plan: &mut WorkPlan,
    max_iters: u64,
    exchange: Option<&ExchangeCtx<'_>>,
) -> (u64, bool) {
    let mut done = 0u64;
    while done < max_iters {
        let quota = plan.next_quota(max_iters - done);
        if quota == 0 {
            return (done, true);
        }
        for _ in 0..quota {
            let completed = match plan {
                // Deadline iterations run guarded: the abort condition is
                // re-checked inside the climb, bounding overshoot to one
                // step — also on pool threads running stolen batches.
                WorkPlan::Until(abort) => worker.rmq.iterate_aborting(abort).is_some(),
                _ => {
                    worker.rmq.iterate();
                    true
                }
            };
            if !completed {
                return (done, true);
            }
            done += 1;
            worker.iterations += 1;
            if let Some(ex) = exchange {
                worker.since_exchange += 1;
                worker.since_publish += 1;
                if worker.since_exchange >= ex.adaptive.period() {
                    worker.since_exchange = 0;
                    exchange_point(worker, ex);
                }
            }
        }
    }
    (done, false)
}

/// One full exchange: publish, then — in a wide round — absorb whatever the
/// rest of the run logged since this worker last looked. Both halves are
/// traced as spans (publish arg = plans merged, absorb arg = plans
/// absorbed), parented to the ambient batch/session span.
fn exchange_point<M: CostModel>(worker: &mut Worker<M>, ex: &ExchangeCtx<'_>) {
    publish_point(worker, ex);
    if !ex.wide {
        return;
    }
    let mut span = spans::begin(SpanKind::ExchangeAbsorb, SpanId::NONE);
    let absorbed = worker.port.absorb(&mut worker.rmq, ex.shared) as u64;
    worker.absorbed += absorbed;
    if absorbed > 0 {
        let epoch = ex.shared.epoch();
        moqo_obs::ctx::set_epoch(epoch);
        moqo_obs::journal::emit_with(
            moqo_obs::journal::Target::Exchange,
            moqo_obs::journal::Level::Debug,
            || moqo_obs::journal::EventKind::ExchangeAbsorb { epoch, absorbed },
        );
    }
    if let Some(s) = span.as_mut() {
        s.set_arg(absorbed);
    }
    spans::finish(span);
}

/// One publish half: offer the query frontier and — in a wide round — the
/// sub-query plans admitted since the last publish, and feed the merge
/// outcome to the adaptive period.
fn publish_point<M: CostModel>(worker: &mut Worker<M>, ex: &ExchangeCtx<'_>) {
    worker.since_publish = 0;
    let mut span = spans::begin(SpanKind::ExchangePublish, SpanId::NONE);
    let mut merged = worker.port.publish_frontier(&worker.rmq, ex.shared);
    if ex.wide {
        merged += worker.port.publish_partials(&mut worker.rmq, ex.shared);
    }
    if let Some(s) = span.as_mut() {
        s.set_arg(merged as u64);
    }
    spans::finish(span);
    ex.adaptive.on_publish(merged);
}

/// The publish at the end of a round, so survivors found since the last
/// periodic exchange are not lost. A worker that has not iterated since it
/// last published has nothing to add, and saying so again would read as a
/// dry publish to the adaptive period: it stays silent.
fn flush_point<M: CostModel>(worker: &mut Worker<M>, ex: &ExchangeCtx<'_>) {
    if worker.since_publish > 0 {
        publish_point(worker, ex);
    }
}

/// The scoped-thread worker body (standalone mode): iterate until the plan
/// is exhausted, then flush ([`flush_point`]). Returns iterations completed.
fn run_worker<M: CostModel>(
    worker: &mut Worker<M>,
    mut plan: WorkPlan,
    exchange: Option<&ExchangeCtx<'_>>,
) -> u64 {
    let mut span = spans::begin(SpanKind::Batch, SpanId::NONE);
    // Make the batch span ambient so exchange spans inside the chunk
    // parent to it (restored below; elided entirely when tracing is off).
    let prev = span.as_ref().map(|s| spans::set_current(s.id()));
    let (done, _) = run_chunk(worker, &mut plan, u64::MAX, exchange);
    if let Some(ex) = exchange {
        flush_point(worker, ex);
    }
    if let Some(prev) = prev {
        spans::set_current(prev);
    }
    if let Some(s) = span.as_mut() {
        s.set_arg(done);
    }
    spans::finish(span);
    done
}

/// The parallel RMQ optimizer (see the crate docs).
///
/// Generic over how each worker holds the cost model: `M` is cloned once
/// per worker. Pooled execution moves workers into `'static` tasks, so `M`
/// must be owned — pass the model by value or behind an `Arc`.
pub struct ParRmq<M: CostModel + Clone + Send + 'static> {
    query: TableSet,
    cfg: ParRmqConfig,
    /// Worker slots; `None` only while a pooled round has the worker
    /// checked out on the executor.
    workers: Vec<Option<Worker<M>>>,
    shared: Arc<SharedFrontier>,
    adaptive: Arc<AdaptiveExchange>,
    stop: StopFlag,
    rounds: u64,
    /// Live-mode fan-out granted for the next round (1..=cfg.workers).
    effective_workers: usize,
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
                    since_publish: 0,
                    absorbed: 0,
                })
            })
            .collect();
        ParRmq {
            query,
            cfg,
            workers,
            shared: Arc::new(SharedFrontier::new()),
            adaptive: Arc::new(AdaptiveExchange::new(
                cfg.exchange_period.max(1),
                cfg.workers,
            )),
            stop: StopFlag::new(),
            rounds: 0,
            effective_workers: cfg.workers,
        }
    }

    /// Builds the per-worker plans for `budget`. `active` workers
    /// participate; an iteration budget is shared exactly among them.
    fn make_plans(&self, budget: Budget, start: Instant, active: usize) -> Vec<WorkPlan> {
        let chunk = self.cfg.batch.max(1);
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
                    .map(|_| WorkPlan::Claim {
                        counter: counter.clone(),
                        chunk,
                    })
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
    /// how each budget kind is honored across workers and for the
    /// standalone vs. pooled dispatch). `Budget::Time` counts from this
    /// call's entry. May be called repeatedly; worker state (caches,
    /// arenas, RNG streams) persists across calls.
    pub fn optimize(&mut self, budget: Budget) -> ParRunStats {
        let start = Instant::now();
        self.stop.clear();
        let before: Vec<u64> = self
            .workers
            .iter()
            .map(|w| w.as_ref().expect("worker checked in").iterations)
            .collect();
        match ExecPool::current() {
            Some(pool) => self.optimize_pooled(&pool, budget, start),
            None => self.optimize_scoped(budget, start),
        }
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

    /// Standalone execution: one scoped OS thread per active worker.
    fn optimize_scoped(&mut self, budget: Budget, start: Instant) {
        let cfg = self.cfg;
        let active = if cfg.deterministic {
            cfg.workers
        } else {
            self.effective_workers
        };
        let mut plans = self.make_plans(budget, start, active);
        let shared = Arc::clone(&self.shared);
        let adaptive = Arc::clone(&self.adaptive);
        // Scoped threads start with an empty ambient span; hand them the
        // caller's so their batch spans parent to the enclosing session.
        let parent_span = spans::current();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .take(active)
                .zip(plans.drain(..))
                .enumerate()
                .map(|(w, (worker, plan))| {
                    let worker = worker.as_mut().expect("worker checked in");
                    let (shared, adaptive) = (&shared, &adaptive);
                    s.spawn(move || {
                        // Tag the thread's observability context so journal
                        // events carry the worker id (1-based; 0 = unset).
                        moqo_obs::ctx::set_worker(w as u32 + 1);
                        spans::set_current(parent_span);
                        let ex = ExchangeCtx {
                            shared,
                            adaptive,
                            wide: active > 1,
                        };
                        let exchange = (!cfg.deterministic).then_some(&ex);
                        run_worker(worker, plan, exchange);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("ParRmq worker panicked");
            }
        });
    }

    /// Pooled execution: the fan-out becomes a group of resumable batch
    /// tasks on the shared executor; the calling (pool-worker) thread waits
    /// by helping. Deterministic batches are pinned (unstealable).
    fn optimize_pooled(&mut self, pool: &PoolHandle, budget: Budget, start: Instant) {
        let cfg = self.cfg;
        let active = if cfg.deterministic {
            cfg.workers
        } else {
            self.effective_workers
        };
        let mut plans = self.make_plans(budget, start, active);
        let spec = if cfg.deterministic {
            TaskSpec::pinned_batch()
        } else {
            TaskSpec::batch()
        };
        let batch = cfg.batch.max(1);
        let checked_in: Arc<Mutex<Vec<Option<Worker<M>>>>> =
            Arc::new(Mutex::new((0..active).map(|_| None).collect()));
        let group = pool.group();
        for (w, plan) in plans.drain(..).enumerate() {
            let mut slot = self.workers[w].take();
            let mut plan = plan;
            let checked_in = Arc::clone(&checked_in);
            let shared = Arc::clone(&self.shared);
            let adaptive = Arc::clone(&self.adaptive);
            let det = cfg.deterministic;
            pool.spawn_in(&group, spec, move || {
                let worker = slot.as_mut().expect("worker moved into this task");
                moqo_obs::ctx::set_worker(w as u32 + 1);
                // One batch span per invocation: the executor installed the
                // spawner's ambient span, so even a stolen batch parents to
                // the session that fanned it out.
                let mut span = spans::begin(SpanKind::Batch, SpanId::NONE);
                let prev = span.as_ref().map(|s| spans::set_current(s.id()));
                let ex = ExchangeCtx {
                    shared: &shared,
                    adaptive: &adaptive,
                    wide: active > 1,
                };
                let exchange = (!det).then_some(&ex);
                let (done, finished) = run_chunk(worker, &mut plan, batch, exchange);
                if let Some(s) = span.as_mut() {
                    s.set_arg(done);
                }
                if !finished {
                    if let Some(prev) = prev {
                        spans::set_current(prev);
                    }
                    spans::finish(span);
                    return TaskStatus::Yield;
                }
                if !det {
                    flush_point(worker, &ex);
                }
                if let Some(prev) = prev {
                    spans::set_current(prev);
                }
                spans::finish(span);
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

    /// The deterministic reduction: per-worker frontiers united in worker
    /// order through exact `SigBetter` pruning — the frontier contract of
    /// deterministic mode (also usable in live mode as a final merge that
    /// includes not-yet-published survivors).
    pub fn reduced_frontier(&self) -> Vec<PlanRef> {
        let mut union: ParetoSet<PlanRef> = ParetoSet::new();
        for worker in &self.workers {
            let worker = worker.as_ref().expect("worker checked in");
            for plan in worker.rmq.frontier() {
                union.insert(plan, &Admission::exact());
            }
        }
        union.into_plans()
    }

    /// The current global frontier: the published shared snapshot in live
    /// mode, the deterministic reduction in deterministic mode.
    pub fn frontier(&self) -> Vec<PlanRef> {
        if self.cfg.deterministic {
            self.reduced_frontier()
        } else {
            self.shared.snapshot().plans.clone()
        }
    }

    /// Lifetime exchange counters of the shared frontier.
    pub fn exchange_stats(&self) -> ExchangeStats {
        self.shared.stats()
    }

    /// The current exchange epoch (0 until the first publish).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// The current adaptive exchange-backoff level (0 = base period;
    /// always 0 in deterministic mode).
    pub fn backoff_level(&self) -> u32 {
        self.adaptive.level()
    }

    /// The fan-out the next live-mode round will actually use
    /// (1..=`cfg.workers`; deterministic mode always runs full width).
    pub fn effective_fan_out(&self) -> usize {
        self.effective_workers
    }

    /// Iterations completed per worker over the optimizer's lifetime.
    pub fn worker_iterations(&self) -> Vec<u64> {
        self.workers
            .iter()
            .map(|w| w.as_ref().expect("worker checked in").iterations)
            .collect()
    }

    /// Plans absorbed from the delta log per worker.
    pub fn worker_absorbed(&self) -> Vec<u64> {
        self.workers
            .iter()
            .map(|w| w.as_ref().expect("worker checked in").absorbed)
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

    /// One bounded round: `effective × batch` iterations fanned out over
    /// the active workers (claimed dynamically in live mode, split
    /// statically over the full width in deterministic mode).
    fn step(&mut self) -> bool {
        let width = if self.cfg.deterministic {
            self.cfg.workers
        } else {
            self.effective_workers
        };
        let round = self.cfg.batch.max(1) * width as u64;
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

    /// Exports the merged query frontier via the deterministic reduction
    /// in **both** modes — in live mode the reduction covers the published
    /// snapshot and additionally includes survivors workers found since
    /// their last publish, so exports never trail the exchange period.
    /// Unlike [`Rmq::export_plans`], partial plans of sub-queries are not
    /// exported — those travel through the shared frontier's partial-plan
    /// channel instead.
    fn export_plans(&self) -> Vec<PlanRef> {
        self.reduced_frontier()
    }

    fn fan_out(&self) -> usize {
        self.cfg.workers
    }

    /// Elastic width grant from the scheduler: the next live-mode round
    /// runs `workers` (clamped to `1..=cfg.workers`) of the configured
    /// workers. Deterministic mode ignores the grant — its static split is
    /// part of the reproducibility contract.
    fn set_effective_fan_out(&mut self, workers: usize) {
        self.effective_workers = workers.clamp(1, self.cfg.workers);
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
    fn single_worker_deterministic_mode_matches_sequential_rmq() {
        let m = model(6);
        let cfg = ParRmqConfig::seeded(9, 1).deterministic();
        let mut par = ParRmq::new(m.clone(), TableSet::prefix(6), cfg);
        par.optimize(Budget::Iterations(20));
        let mut seq = Rmq::new(&m, TableSet::prefix(6), RmqConfig::seeded(9));
        for _ in 0..20 {
            seq.iterate();
        }
        let par_rendered: Vec<String> = par.frontier().iter().map(|p| p.display(&m)).collect();
        let seq_rendered: Vec<String> = seq.frontier().iter().map(|p| p.display(&m)).collect();
        assert_eq!(par_rendered, seq_rendered);
    }

    #[test]
    fn live_mode_exchanges_plans_through_the_shared_frontier() {
        let mut cfg = ParRmqConfig::seeded(5, 4);
        cfg.exchange_period = 2;
        let mut par = ParRmq::new(model(7), TableSet::prefix(7), cfg);
        par.optimize(Budget::Iterations(60));
        let ex = par.exchange_stats();
        assert!(ex.publishes > 0, "workers must publish");
        assert!(ex.merged > 0, "someone's survivors must merge");
        assert!(ex.epochs > 0);
        assert!(
            ex.partial_offered > 0,
            "sub-query frontiers must be offered: {ex:?}"
        );
        assert!(ex.partial_merged > 0, "sub-query frontiers must merge");
        assert!(ex.partial_table_sets > 0);
        let frontier = par.frontier();
        assert!(!frontier.is_empty());
        for p in &frontier {
            assert!(p.validate(TableSet::prefix(7)).is_ok());
        }
        // The snapshot equals the epoch the stats report.
        assert_eq!(par.epoch(), ex.epochs);
    }

    #[test]
    fn elastic_fan_out_limits_active_workers() {
        let mut cfg = ParRmqConfig::seeded(11, 4);
        cfg.batch = 4;
        let mut par = ParRmq::new(model(6), TableSet::prefix(6), cfg);
        PlanExchange::set_effective_fan_out(&mut par, 2);
        assert_eq!(par.effective_fan_out(), 2);
        let stats = par.optimize(Budget::Iterations(24));
        assert_eq!(stats.iterations, 24, "budget stays exact at any width");
        assert_eq!(stats.per_worker.len(), 4);
        assert_eq!(stats.per_worker[2], 0, "ungranted workers must not run");
        assert_eq!(stats.per_worker[3], 0);
        // Grants clamp into 1..=workers.
        PlanExchange::set_effective_fan_out(&mut par, 0);
        assert_eq!(par.effective_fan_out(), 1);
        PlanExchange::set_effective_fan_out(&mut par, 99);
        assert_eq!(par.effective_fan_out(), 4);
    }

    #[test]
    fn pooled_mode_runs_rounds_on_the_shared_executor() {
        let pool = ExecPool::new(2);
        let handle = pool.handle();
        let result: Arc<Mutex<Option<(u64, usize, bool)>>> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&result);
        // Plain spawn + polling: the test thread must not help, or the
        // session could run here (off-pool) and take the scoped path.
        handle.spawn(TaskSpec::root(), move || {
            let on_pool = ExecPool::current().is_some();
            let mut cfg = ParRmqConfig::seeded(6, 3);
            cfg.batch = 4;
            let mut par = ParRmq::new(model(6), TableSet::prefix(6), cfg);
            let stats = par.optimize(Budget::Iterations(25));
            *out.lock().unwrap() = Some((stats.iterations, par.frontier().len(), on_pool));
            TaskStatus::Done
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while result.lock().unwrap().is_none() {
            assert!(Instant::now() < deadline, "pooled session made no progress");
            std::thread::yield_now();
        }
        let (iterations, frontier, on_pool) = result.lock().unwrap().expect("session ran");
        assert!(on_pool, "the session must have run on a pool worker");
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
    fn adaptive_backoff_engages_once_frontiers_converge() {
        let mut cfg = ParRmqConfig::seeded(13, 2);
        cfg.exchange_period = 1;
        cfg.batch = 8;
        let mut par = ParRmq::new(model(4), TableSet::prefix(4), cfg);
        // A tiny query converges almost immediately; with a period of 1
        // every subsequent iteration publishes a no-op, so the backoff
        // must engage well within this budget.
        par.optimize(Budget::Iterations(400));
        assert!(
            par.backoff_level() > 0,
            "dry publishes must raise the backoff level: {:?}",
            par.exchange_stats()
        );
    }

    #[test]
    fn a_flush_right_after_an_exchange_publishes_nothing() {
        // One worker, so the dry window is one publish: at the parent the
        // end-of-round flush re-offered the frontier the 8th iteration had
        // just published, merged nothing, and raised the backoff level.
        let mut cfg = ParRmqConfig::seeded(4, 1);
        cfg.exchange_period = 8;
        let mut par = ParRmq::new(model(6), TableSet::prefix(6), cfg);
        par.optimize(Budget::Iterations(8));
        assert_eq!(par.exchange_stats().publishes, 1);
        assert_eq!(par.backoff_level(), 0);
        // Iterations since the last publish still go out with the flush.
        par.optimize(Budget::Iterations(3));
        assert_eq!(par.exchange_stats().publishes, 2);
    }

    #[test]
    fn a_lone_worker_exchanges_no_partial_plans() {
        let mut cfg = ParRmqConfig::seeded(5, 3);
        cfg.exchange_period = 2;
        let mut par = ParRmq::new(model(7), TableSet::prefix(7), cfg);
        PlanExchange::set_effective_fan_out(&mut par, 1);
        par.optimize(Budget::Iterations(40));
        let ex = par.exchange_stats();
        assert!(ex.publishes > 0 && ex.merged > 0, "{ex:?}");
        assert_eq!((ex.partial_offered, ex.absorbed), (0, 0), "{ex:?}");
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
