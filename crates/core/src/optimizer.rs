//! Anytime optimizer interface shared by RMQ and all baselines.
//!
//! The paper compares algorithms "in terms of the α values that they produce
//! after certain amounts of optimization time" (§3): every algorithm is
//! *anytime* — it can be interrupted and asked for its current frontier.
//! [`Optimizer`] abstracts that: [`Optimizer::step`] performs one bounded
//! unit of work (one RMQ/II iteration, one NSGA-II generation, one batch of
//! DP subsets, ...) and [`Optimizer::frontier`] returns the current result
//! plan set. [`drive`] runs an optimizer under a [`Budget`], notifying an
//! [`Observer`] after every step so harnesses can record trajectories.
//!
//! Two extensions serve the concurrent layers built on top of the core:
//!
//! * [`StopFlag`] / [`AbortCheck`] — cooperative cancellation for optimizer
//!   work running on several threads at once. A deadline is enforced *inside*
//!   the hill-climbing loop (one check per climbing step), so concurrent
//!   climbers overshoot a deadline by at most one climb step instead of one
//!   full iteration.
//! * [`PlanExchange`] — the partial-plan exchange seam: optimizers that can
//!   absorb previously optimized plans and export their own survivors. Both
//!   the intra-query shared frontier of `moqo-parallel` and the cross-query
//!   cache of `moqo-service` speak this trait.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cost::CostVector;
use crate::plan::PlanRef;

/// A stopping criterion for [`drive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Stop after the given wall-clock time (checked between steps).
    Time(Duration),
    /// Stop after the given number of steps (deterministic; used in tests).
    Iterations(u64),
    /// Stop at an absolute point in time (checked between steps). Unlike
    /// [`Budget::Time`], the clock starts at budget creation rather than at
    /// [`drive`] entry, so one deadline can span several `drive` calls —
    /// the contract service schedulers need when an optimizer is stepped in
    /// slices interleaved with other sessions.
    Deadline(Instant),
}

impl Budget {
    /// A deadline the given duration from now (convenience for
    /// [`Budget::Deadline`]).
    pub fn deadline_in(timeout: Duration) -> Budget {
        Budget::Deadline(Instant::now() + timeout)
    }

    /// Whether the budget is exhausted after `steps` completed steps given
    /// the drive started at `start`.
    pub fn exhausted(&self, start: Instant, steps: u64) -> bool {
        match *self {
            Budget::Iterations(n) => steps >= n,
            Budget::Time(limit) => start.elapsed() >= limit,
            Budget::Deadline(at) => Instant::now() >= at,
        }
    }
}

/// Statistics returned by [`drive`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DriveStats {
    /// Number of optimizer steps executed.
    pub steps: u64,
    /// Total elapsed wall-clock time.
    pub elapsed: Duration,
    /// Whether the optimizer exhausted its work (e.g. DP completed) before
    /// the budget ran out.
    pub exhausted: bool,
}

/// A shared cooperative stop signal. Cloning yields another handle to the
/// same flag; once [`StopFlag::stop`] is called every holder observes it.
///
/// The flag is the cross-thread cancellation primitive of the parallel
/// optimizer: worker threads check it between iterations *and* between
/// hill-climbing steps (through [`AbortCheck`]), so all concurrent climbers
/// wind down within one climb step of the first `stop()`.
#[derive(Clone, Debug, Default)]
pub struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    /// Creates an unset flag.
    pub fn new() -> Self {
        StopFlag::default()
    }

    /// Raises the flag. Idempotent.
    #[inline]
    pub fn stop(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Lowers the flag again (between rounds of a reused worker pool).
    #[inline]
    pub fn clear(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// A [`StopFlag`] armed with an optional wall-clock deadline: the abort
/// condition threaded through budgeted hill climbs.
///
/// [`AbortCheck::should_abort`] is designed for *inner loops*: the common
/// case is one relaxed atomic load. The clock is only consulted while the
/// flag is still down, and the first checker to observe the deadline raises
/// the shared flag — so sibling workers mid-climb abort on their next
/// (atomic-load-only) check without ever reading the clock themselves.
#[derive(Clone, Debug)]
pub struct AbortCheck {
    flag: StopFlag,
    deadline: Option<Instant>,
}

impl AbortCheck {
    /// An abort condition from a shared flag and an optional deadline.
    pub fn new(flag: StopFlag, deadline: Option<Instant>) -> Self {
        AbortCheck { flag, deadline }
    }

    /// An abort condition that never fires (for unguarded call sites that
    /// share code with guarded ones).
    pub fn never() -> Self {
        AbortCheck {
            flag: StopFlag::new(),
            deadline: None,
        }
    }

    /// The shared flag.
    pub fn flag(&self) -> &StopFlag {
        &self.flag
    }

    /// Whether work should stop: the shared flag is up, or the deadline has
    /// passed (which raises the flag for every sibling).
    #[inline]
    pub fn should_abort(&self) -> bool {
        if self.flag.is_stopped() {
            return true;
        }
        match self.deadline {
            Some(at) if Instant::now() >= at => {
                self.flag.stop();
                true
            }
            _ => false,
        }
    }
}

/// A shared iteration-claim counter: the batch-claim primitive concurrent
/// workers draw an exact total of iterations from.
///
/// Cloning yields another handle onto the same counter. However claims
/// interleave across threads, the number of **granted** iterations sums to
/// exactly `total` — the property that makes `Budget::Iterations` exact
/// and scheduling-independent on any executor, however many threads it
/// runs. [`claim_batch`](ClaimCounter::claim_batch) grants up to a whole
/// climb batch per atomic operation, so batch-granular executors pay one
/// fetch-add per batch instead of one per iteration.
#[derive(Clone, Debug)]
pub struct ClaimCounter {
    issued: Arc<AtomicU64>,
    total: u64,
}

impl ClaimCounter {
    /// A counter granting exactly `total` iterations across all holders.
    pub fn new(total: u64) -> Self {
        ClaimCounter {
            issued: Arc::new(AtomicU64::new(0)),
            total,
        }
    }

    /// Claims one iteration. Returns `false` once the total is exhausted.
    #[inline]
    pub fn claim(&self) -> bool {
        self.claim_batch(1) == 1
    }

    /// Claims up to `n` iterations at once; returns how many were granted
    /// (`0` once the total is exhausted). The sum of grants across all
    /// holders is exactly [`total`](ClaimCounter::total), regardless of how
    /// claims interleave: over-issued claims past the total grant nothing.
    #[inline]
    pub fn claim_batch(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let prev = self.issued.fetch_add(n, Ordering::Relaxed);
        self.total.saturating_sub(prev).min(n)
    }

    /// The fixed total this counter grants.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether every iteration has been granted.
    pub fn is_exhausted(&self) -> bool {
        self.issued.load(Ordering::Relaxed) >= self.total
    }
}

/// One anytime-convergence checkpoint: a deterministic snapshot of the
/// result frontier taken inside the optimizer's iterate loop at
/// exponentially spaced iteration marks (1, 2, 4, 8, ...).
///
/// The checkpoint stores the frontier's **cost vectors**, not a quality
/// scalar: quality measures like the hypervolume depend on a reference
/// point that only the consumer knows (`moqo-metrics` computes them, and
/// `moqo-core` cannot depend on it). Everything except `elapsed` is
/// bit-for-bit reproducible for a fixed seed — sampling consumes no
/// randomness and never mutates optimizer state — so benchmark baselines
/// can gate on iterations, frontier sizes, and costs structurally while
/// treating the wall-clock column as timing-only.
#[derive(Clone, Debug)]
pub struct ConvergencePoint {
    /// Completed iterations when the checkpoint was taken (1-based).
    pub iteration: u64,
    /// Wall-clock time since the optimizer was created (timing-only; not
    /// deterministic).
    pub elapsed: Duration,
    /// Last exchange epoch observed by the sampling thread (0 when the
    /// optimizer runs outside an exchange).
    pub epoch: u64,
    /// Number of plans on the result frontier.
    pub frontier_size: usize,
    /// The frontier members' cost vectors (insertion order).
    pub frontier_costs: Vec<CostVector>,
}

/// An anytime multi-objective query optimizer.
pub trait Optimizer {
    /// Short display name (e.g. `"RMQ"`, `"NSGA-II"`, `"DP(2)"`).
    fn name(&self) -> &str;

    /// Performs one bounded unit of work. Returns `false` when the
    /// algorithm has exhausted its work and further calls are useless.
    fn step(&mut self) -> bool;

    /// The current result frontier: plans for the full query produced so
    /// far. May be empty (e.g. DP before completion).
    fn frontier(&self) -> Vec<PlanRef>;
}

/// An anytime optimizer that can exchange partial plans with a shared
/// store — the seam through which plans flow between concurrent optimizer
/// instances.
///
/// Two layers speak this trait: the **intra-query** shared frontier of
/// `moqo-parallel` (worker threads publishing local optima into one global
/// frontier) and the **cross-query** plan cache of `moqo-service` (finished
/// sessions seeding later overlapping sessions). The hooks default to
/// no-ops so any `Optimizer + Send` — e.g. the NSGA-II / SA / II baselines —
/// can be served by implementing the trait with an empty body; [`Rmq`]
/// implements them natively through its partial-plan cache.
///
/// [`Rmq`]: crate::rmq::Rmq
pub trait PlanExchange: Optimizer + Send {
    /// Absorbs previously optimized partial plans (warm start). Returns how
    /// many plans were accepted: incorporated at once, or kept aside to be
    /// incorporated when the optimizer first needs them (see
    /// [`Rmq::warm_start`](crate::rmq::Rmq::warm_start)); `0` for plans it
    /// cannot use (a foreign cost dimension, tables outside its query).
    fn absorb_plans(&mut self, plans: &[PlanRef]) -> usize {
        let _ = plans;
        0
    }

    /// Exports partial plans for reuse by other optimizer instances: what
    /// this optimizer found itself. What it absorbed is not echoed.
    fn export_plans(&self) -> Vec<PlanRef> {
        Vec::new()
    }

    /// How many worker threads this optimizer fans out over while being
    /// stepped (`1` for sequential optimizers). The service reports it in
    /// its statistics.
    fn fan_out(&self) -> usize {
        1
    }

    /// Requests that subsequent steps use at most `workers` intra-query
    /// workers. An implementation that honors it clamps to
    /// `1..=fan_out()`, and correctness (exact iteration budgets, frontier
    /// contents up to exploration order) must not depend on the granted
    /// width. The default ignores it, as every optimizer here does.
    fn set_effective_fan_out(&mut self, workers: usize) {
        let _ = workers;
    }

    /// The anytime-convergence checkpoints recorded so far (oldest first;
    /// implementations keep a bounded ring). Defaults to empty for
    /// optimizers that do not sample convergence.
    fn convergence(&self) -> Vec<ConvergencePoint> {
        Vec::new()
    }

    /// Forces a convergence checkpoint at the current iteration (a
    /// "final" sample so quality-over-time curves end at the frontier the
    /// caller actually received). No-op by default and for optimizers that
    /// have not completed any iteration.
    fn sample_convergence_now(&mut self) {}
}

/// Observer notified after every optimizer step. The `frontier` closure
/// materializes the current frontier lazily — implementations should only
/// invoke it when they actually record a snapshot.
pub trait Observer {
    /// Called after each step with the elapsed time since `drive` started,
    /// the 1-based step counter, and lazy access to the current frontier.
    fn on_step(&mut self, elapsed: Duration, step: u64, frontier: &mut dyn FnMut() -> Vec<PlanRef>);
}

/// An [`Observer`] that ignores all notifications.
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_step(&mut self, _: Duration, _: u64, _: &mut dyn FnMut() -> Vec<PlanRef>) {}
}

/// Runs `opt` until the budget is exhausted or the optimizer reports
/// completion, notifying `observer` after every step.
pub fn drive<O>(opt: &mut O, budget: Budget, observer: &mut dyn Observer) -> DriveStats
where
    O: Optimizer + ?Sized,
{
    let start = Instant::now();
    let mut stats = DriveStats::default();
    loop {
        if budget.exhausted(start, stats.steps) {
            break;
        }
        let more = opt.step();
        stats.steps += 1;
        observer.on_step(start.elapsed(), stats.steps, &mut || opt.frontier());
        if !more {
            stats.exhausted = true;
            break;
        }
    }
    stats.elapsed = start.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostVector;
    use crate::model::testing::StubModel;
    use crate::model::CostModel;
    use crate::plan::Plan;
    use crate::tables::TableId;

    /// A fake optimizer that produces one scan plan per step, up to a cap.
    struct Counting {
        model: StubModel,
        produced: Vec<PlanRef>,
        cap: usize,
    }

    impl Counting {
        fn new(cap: usize) -> Self {
            Counting {
                model: StubModel::line(1, 2, 1),
                produced: Vec::new(),
                cap,
            }
        }
    }

    impl Optimizer for Counting {
        fn name(&self) -> &str {
            "Counting"
        }
        fn step(&mut self) -> bool {
            let t = TableId::new(0);
            self.produced
                .push(Plan::scan(&self.model, t, self.model.scan_ops(t)[0]));
            self.produced.len() < self.cap
        }
        fn frontier(&self) -> Vec<PlanRef> {
            self.produced.clone()
        }
    }

    #[test]
    fn iteration_budget_is_exact() {
        let mut opt = Counting::new(usize::MAX);
        let stats = drive(&mut opt, Budget::Iterations(7), &mut NullObserver);
        assert_eq!(stats.steps, 7);
        assert!(!stats.exhausted);
        assert_eq!(opt.frontier().len(), 7);
    }

    #[test]
    fn exhaustion_stops_early() {
        let mut opt = Counting::new(3);
        let stats = drive(&mut opt, Budget::Iterations(100), &mut NullObserver);
        assert_eq!(stats.steps, 3);
        assert!(stats.exhausted);
    }

    #[test]
    fn time_budget_terminates() {
        let mut opt = Counting::new(usize::MAX);
        let stats = drive(
            &mut opt,
            Budget::Time(Duration::from_millis(20)),
            &mut NullObserver,
        );
        assert!(stats.elapsed >= Duration::from_millis(20));
        assert!(stats.steps > 0);
    }

    #[test]
    fn deadline_budget_spans_multiple_drives() {
        // One absolute deadline governs several drive calls: the service
        // scheduler steps optimizers in slices against a shared deadline.
        let mut opt = Counting::new(usize::MAX);
        let budget = Budget::deadline_in(Duration::from_millis(30));
        let first = drive(&mut opt, budget, &mut NullObserver);
        assert!(first.steps > 0);
        std::thread::sleep(Duration::from_millis(35));
        let after = drive(&mut opt, budget, &mut NullObserver);
        assert_eq!(after.steps, 0, "expired deadline must not step");
    }

    #[test]
    fn observer_sees_every_step_with_lazy_frontier() {
        struct Recorder {
            steps_seen: Vec<u64>,
            frontier_sizes: Vec<usize>,
        }
        impl Observer for Recorder {
            fn on_step(
                &mut self,
                _: Duration,
                step: u64,
                frontier: &mut dyn FnMut() -> Vec<PlanRef>,
            ) {
                self.steps_seen.push(step);
                // Only materialize on even steps to prove laziness works.
                if step % 2 == 0 {
                    self.frontier_sizes.push(frontier().len());
                }
            }
        }
        let mut opt = Counting::new(usize::MAX);
        let mut rec = Recorder {
            steps_seen: Vec::new(),
            frontier_sizes: Vec::new(),
        };
        drive(&mut opt, Budget::Iterations(4), &mut rec);
        assert_eq!(rec.steps_seen, vec![1, 2, 3, 4]);
        assert_eq!(rec.frontier_sizes, vec![2, 4]);
    }

    #[test]
    fn stop_flag_is_shared_across_clones() {
        let a = StopFlag::new();
        let b = a.clone();
        assert!(!b.is_stopped());
        a.stop();
        assert!(b.is_stopped());
        b.clear();
        assert!(!a.is_stopped());
    }

    #[test]
    fn abort_check_raises_the_flag_on_deadline() {
        let flag = StopFlag::new();
        let armed = AbortCheck::new(
            flag.clone(),
            Some(Instant::now() - Duration::from_millis(1)),
        );
        // The deadline has passed: the check fires and raises the shared
        // flag, so a sibling holding only the flag sees it too.
        assert!(armed.should_abort());
        assert!(flag.is_stopped());
        assert!(AbortCheck::new(flag, None).should_abort());
        assert!(!AbortCheck::never().should_abort());
    }

    #[test]
    fn plan_exchange_defaults_are_noops() {
        struct Bare(Counting);
        impl Optimizer for Bare {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn step(&mut self) -> bool {
                self.0.step()
            }
            fn frontier(&self) -> Vec<PlanRef> {
                self.0.frontier()
            }
        }
        impl PlanExchange for Bare {}
        let mut bare = Bare(Counting::new(3));
        assert_eq!(bare.absorb_plans(&[]), 0);
        assert!(bare.export_plans().is_empty());
        assert_eq!(bare.fan_out(), 1);
    }

    #[test]
    fn claim_counter_grants_exactly_the_total_in_batches() {
        let c = ClaimCounter::new(10);
        assert_eq!(c.total(), 10);
        assert_eq!(c.claim_batch(4), 4);
        assert_eq!(c.claim_batch(4), 4);
        // Only 2 remain of the over-asked batch.
        assert_eq!(c.claim_batch(4), 2);
        assert!(c.is_exhausted());
        assert_eq!(c.claim_batch(4), 0);
        assert!(!c.claim());
        assert_eq!(ClaimCounter::new(5).claim_batch(0), 0);
    }

    #[test]
    fn claim_counter_is_exact_across_threads() {
        // However claims interleave, grants sum to exactly the total.
        let c = ClaimCounter::new(1000);
        let granted: u64 = std::thread::scope(|s| {
            (0..4)
                .map(|t| {
                    let c = c.clone();
                    // Mixed claim granularities across threads.
                    let batch = 1 + t as u64 * 3;
                    s.spawn(move || {
                        let mut mine = 0;
                        loop {
                            let got = c.claim_batch(batch);
                            if got == 0 {
                                break mine;
                            }
                            mine += got;
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(granted, 1000);
        assert!(c.is_exhausted());
    }

    #[test]
    fn cost_vectors_survive_the_round_trip() {
        // Sanity: the frontier plans expose usable cost vectors.
        let mut opt = Counting::new(2);
        drive(&mut opt, Budget::Iterations(2), &mut NullObserver);
        let costs: Vec<CostVector> = opt.frontier().iter().map(|p| *p.cost()).collect();
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(CostVector::is_valid));
    }
}
