//! The cooperative scheduler: every session is a resumable task on the
//! shared executor.
//!
//! Each session becomes one recurring [`ExecPool`] task
//! ([`session_tick`]): every invocation runs one bounded **slice** of its
//! optimizer ([`STEPS_PER_SLICE`] iterations, or [`SLICE_DURATION`] of
//! wall-clock time for deadline budgets) through the core [`drive`] loop,
//! then yields back to the pool. Because every algorithm behind the [`Optimizer`] trait is
//! *anytime* with polynomial per-step cost (the paper's headline property
//! of RMQ), slicing needs no preemption: a slice is short by construction,
//! so a fixed pool interleaves hundreds of sessions with bounded latency
//! per session — the property that makes RMQ suited to serving interleaved
//! optimization requests under deadlines.
//!
//! Because slices execute *on* pool workers, fanned-out optimizers
//! (`ParRmq`) detect the ambient pool and spread their climb batches over
//! the same workers instead of spawning private threads — idle workers
//! take the batches from the pool's one run queue, and the session's
//! waiting thread helps. The pool's worker count is therefore the one
//! bound on how much work runs at once.
//!
//! [`ExecPool`]: moqo_parallel::ExecPool
//! [`Optimizer`]: moqo_core::optimizer::Optimizer

use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use moqo_core::fxhash::FxHasher;
use moqo_core::optimizer::{drive, Budget, Observer};
use moqo_core::plan::PlanRef;

use moqo_metrics::{time_to_fraction, HvTracker};
use moqo_obs::journal::{self, EventKind, Level, Target};
use moqo_obs::spans::{self, Span, SpanKind};
use moqo_obs::{ctx, metrics};

use moqo_parallel::{ExecPool, TaskStatus};

use crate::cache::SharedPlanCache;
use crate::session::{DoneReason, SessionId, SessionShared, SessionState, SessionStatus};
use crate::stats::StatsCollector;
use crate::{PlanExchange, ServiceConfig, SLICE_DURATION, STEPS_PER_SLICE};

use std::hash::Hasher;
use std::sync::Arc;
use std::time::Duration;

/// What is left of a session's budget, normalized at admission.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RemainingBudget {
    /// `Budget::Iterations`: deterministic step counting.
    Steps {
        /// Steps executed so far.
        done: u64,
        /// Total step budget.
        total: u64,
    },
    /// `Budget::Time` / `Budget::Deadline`: an absolute point in time.
    Deadline(Instant),
}

impl RemainingBudget {
    pub(crate) fn from_budget(budget: Budget, now: Instant) -> Self {
        match budget {
            Budget::Iterations(n) => RemainingBudget::Steps { done: 0, total: n },
            // `Time` counts from admission: queueing delay spends budget,
            // exactly like a request timeout in a serving system.
            Budget::Time(d) => RemainingBudget::Deadline(now + d),
            Budget::Deadline(at) => RemainingBudget::Deadline(at),
        }
    }
}

/// A session owned by the scheduler (at most one task invocation holds it
/// at a time, so the optimizer needs no internal synchronization — a
/// fanned-out optimizer spreads its intra-slice batches over the pool).
pub(crate) struct ActiveSession {
    pub id: SessionId,
    pub optimizer: Box<dyn PlanExchange>,
    pub remaining: RemainingBudget,
    pub shared: Arc<SessionShared>,
    pub context: u64,
    /// Signature of the last frontier reported to the session state, used
    /// to detect improvements cheaply.
    pub last_sig: u64,
    /// The session's causal root span (open from admission to
    /// finalization; `None` while tracing is disabled). Every slice span —
    /// and, through the ambient span the executor propagates to whichever
    /// worker runs a batch, every climb-batch and exchange span the
    /// session's work produces — parents back to it.
    pub span: Option<Span>,
}

/// Scheduler state behind the mutex.
pub(crate) struct SchedState {
    /// Admitted, not yet finalized sessions.
    pub live: usize,
    /// Sessions currently executing a slice on the pool.
    pub running: usize,
    pub shutdown: bool,
}

/// Everything the session tasks share.
pub(crate) struct ServiceCore {
    pub config: ServiceConfig,
    pub sched: Mutex<SchedState>,
    pub pool: ExecPool,
    pub cache: SharedPlanCache,
    pub stats: StatsCollector,
    pub next_id: AtomicU64,
}

/// Order-independent signature of a plan set: used to detect frontier
/// changes without diffing plan vectors.
pub(crate) fn frontier_signature(plans: &[PlanRef]) -> u64 {
    let mut acc: u64 = plans.len() as u64;
    for p in plans {
        let mut h = FxHasher::default();
        h.write_u128(p.rel().bits());
        h.write_u8(p.format().0);
        for &c in p.cost().as_slice() {
            h.write_u64(c.to_bits());
        }
        acc = acc.wrapping_add(h.finish());
    }
    acc
}

/// The frontier-change rule, applied after every step and once more at
/// finalization: a nonempty frontier whose signature differs from
/// `last_sig` becomes the session's frontier, bumps its epoch and, the
/// first time, stamps `first_frontier_at`. Returns the session state, still
/// locked, when the frontier changed; an unchanged frontier takes no lock.
fn report_frontier<'a>(
    shared: &'a SessionShared,
    last_sig: &mut u64,
    plans: Vec<PlanRef>,
) -> Option<MutexGuard<'a, SessionState>> {
    if plans.is_empty() {
        return None;
    }
    let sig = frontier_signature(&plans);
    if sig == *last_sig {
        return None;
    }
    *last_sig = sig;
    let mut state = shared.state.lock().unwrap();
    state.epoch += 1;
    if state.first_frontier_at.is_none() {
        state.first_frontier_at = Some(Instant::now());
    }
    state.frontier = plans;
    Some(state)
}

/// Observer bridging the core `drive` loop to the session's shared state:
/// every step that changes the frontier ([`report_frontier`]) wakes
/// subscribers. This is the "existing Observer seam" — the service adds no
/// new hooks to the optimizers themselves.
struct SliceObserver<'a> {
    shared: &'a SessionShared,
    last_sig: &'a mut u64,
}

impl Observer for SliceObserver<'_> {
    fn on_step(
        &mut self,
        _elapsed: Duration,
        _step: u64,
        frontier: &mut dyn FnMut() -> Vec<PlanRef>,
    ) {
        let changed = report_frontier(self.shared, self.last_sig, frontier()).is_some();
        if changed {
            self.shared.cond.notify_all();
        }
    }
}

/// Runs one scheduling slice. Returns `Some(reason)` when the session is
/// finished and must be finalized.
pub(crate) fn run_slice(core: &ServiceCore, sess: &mut ActiveSession) -> Option<DoneReason> {
    ctx::set_session(sess.id.0);
    {
        let mut state = sess.shared.state.lock().unwrap();
        if state.cancel_requested {
            return Some(DoneReason::Cancelled);
        }
        state.status = SessionStatus::Running;
        if state.first_step_at.is_none() {
            // End of the session's queueing delay: its first slice starts.
            let now = Instant::now();
            state.first_step_at = Some(now);
            let delay = now.duration_since(state.submitted_at);
            drop(state);
            core.stats.record_queue_delay(delay);
            if journal::enabled(Target::Service, Level::Debug) {
                let delay_us = delay.as_micros() as u64;
                journal::emit_with(Target::Service, Level::Debug, || {
                    EventKind::SessionFirstStep { delay_us }
                });
            }
        }
    }
    let slice_budget = match sess.remaining {
        RemainingBudget::Steps { done, total } => {
            if done >= total {
                return Some(DoneReason::BudgetExhausted);
            }
            Budget::Iterations((total - done).min(STEPS_PER_SLICE))
        }
        RemainingBudget::Deadline(at) => {
            let now = Instant::now();
            if now >= at {
                return Some(DoneReason::BudgetExhausted);
            }
            Budget::Deadline(at.min(now + SLICE_DURATION))
        }
    };
    let mut observer = SliceObserver {
        shared: &sess.shared,
        last_sig: &mut sess.last_sig,
    };
    // The slice span parents to the session's root span; installing it as
    // the ambient span means every climb batch the optimizer spawns onto
    // the pool inherits it — even when another worker runs the batch.
    let mut slice_span = spans::begin(SpanKind::Slice, spans::id_of(&sess.span));
    let prev_span = slice_span.as_ref().map(|s| spans::set_current(s.id()));
    let slice_start = Instant::now();
    let stats = drive(sess.optimizer.as_mut(), slice_budget, &mut observer);
    if let Some(prev) = prev_span {
        spans::set_current(prev);
    }
    if let Some(s) = slice_span.as_mut() {
        s.set_arg(stats.steps);
    }
    spans::finish(slice_span);
    metrics()
        .service_slice_us
        .record(slice_start.elapsed().as_micros() as u64);
    sess.shared.state.lock().unwrap().steps += stats.steps;
    if stats.exhausted {
        return Some(DoneReason::OptimizerExhausted);
    }
    match sess.remaining {
        RemainingBudget::Steps {
            ref mut done,
            total,
        } => {
            *done += stats.steps;
            if *done >= total {
                return Some(DoneReason::BudgetExhausted);
            }
        }
        RemainingBudget::Deadline(at) => {
            if Instant::now() >= at {
                return Some(DoneReason::BudgetExhausted);
            }
        }
    }
    None
}

/// Reduces a session's anytime-convergence checkpoints to its time to 90%
/// of final hypervolume. The checkpoints carry raw frontier cost vectors
/// (the core crate cannot depend on the metrics crate); the hypervolume
/// reference point is derived from the curve itself — the componentwise
/// maximum over every checkpointed cost, padded 10% — so the measure needs
/// no externally supplied nadir. Feeding the checkpoints through one
/// running [`HvTracker`] union makes the session curve nondecreasing even
/// when a fanned-out optimizer contributes interleaved per-worker
/// snapshots.
fn time_to_90(points: &[moqo_core::optimizer::ConvergencePoint]) -> Option<Duration> {
    let dim = points
        .iter()
        .flat_map(|p| p.frontier_costs.iter())
        .next()?
        .dim();
    let mut upper = vec![f64::NEG_INFINITY; dim];
    for p in points {
        for cost in &p.frontier_costs {
            for (u, v) in upper.iter_mut().zip(cost.as_slice()) {
                *u = u.max(*v);
            }
        }
    }
    if upper.iter().any(|u| !u.is_finite()) {
        return None;
    }
    let reference = moqo_core::cost::CostVector::new(&upper).scale(1.1);
    let mut tracker = HvTracker::new(reference);
    let mut curve = Vec::with_capacity(points.len());
    for p in points {
        tracker.insert_all(&p.frontier_costs);
        curve.push((p.elapsed.as_secs_f64(), tracker.hypervolume()));
    }
    time_to_fraction(&curve, 0.9).map(Duration::from_secs_f64)
}

/// Completes a session: publishes its partial plans to the cross-query
/// cache (unless it was aborted), installs the final frontier, flips the
/// status, closes the session span, and updates service statistics — the
/// convergence-latency sample and the SLO re-evaluation included.
pub(crate) fn finalize(core: &ServiceCore, mut sess: ActiveSession, reason: DoneReason) {
    // Force a final convergence checkpoint so the quality curve ends at
    // the frontier the session actually delivered, then reduce it.
    sess.optimizer.sample_convergence_now();
    let tt90 = time_to_90(&sess.optimizer.convergence());
    let publish = matches!(
        reason,
        DoneReason::BudgetExhausted | DoneReason::OptimizerExhausted
    );
    if publish {
        let exported = sess.optimizer.export_plans();
        core.cache.publish(sess.context, exported);
    }
    let final_frontier = sess.optimizer.frontier();
    let (steps, ttff) = {
        let state = report_frontier(&sess.shared, &mut sess.last_sig, final_frontier)
            .unwrap_or_else(|| sess.shared.state.lock().unwrap());
        let ttff = state
            .first_frontier_at
            .map(|at| at.duration_since(state.submitted_at));
        (state.steps, ttff)
    };
    // Account *before* flipping the status: a client that wakes from
    // `wait_done` must observe the completed counters.
    let aborted = matches!(reason, DoneReason::Cancelled | DoneReason::ServiceShutdown);
    core.stats.record_completed(steps, ttff, aborted);
    if let Some(tt90) = tt90 {
        core.stats.record_tt90(tt90);
    }
    core.stats.evaluate_slo(&core.config.slo);
    if let Some(s) = sess.span.as_mut() {
        s.set_arg(steps);
    }
    spans::finish(sess.span.take());
    if journal::enabled(Target::Service, Level::Info) {
        ctx::set_session(sess.id.0);
        let reason_str = match reason {
            DoneReason::BudgetExhausted => "budget_exhausted",
            DoneReason::OptimizerExhausted => "optimizer_exhausted",
            DoneReason::Cancelled => "cancelled",
            DoneReason::ServiceShutdown => "shutdown",
        };
        let ttff_us = ttff.map(|d| d.as_micros() as u64);
        journal::emit_with(Target::Service, Level::Info, || EventKind::SessionDone {
            steps,
            reason: reason_str,
            ttff_us,
        });
    }
    core.sched.lock().unwrap().live -= 1;
    sess.shared.state.lock().unwrap().status = SessionStatus::Done(reason);
    sess.shared.cond.notify_all();
}

/// One invocation of a session's pool task: run one slice, then yield —
/// or finalize and complete the task. `slot` carries the session across
/// yields; it is `None` only after finalization.
pub(crate) fn session_tick(
    core: &Arc<ServiceCore>,
    slot: &mut Option<ActiveSession>,
) -> TaskStatus {
    let Some(sess) = slot.as_mut() else {
        return TaskStatus::Done;
    };
    {
        let mut sched = core.sched.lock().unwrap();
        if sched.shutdown {
            drop(sched);
            let sess = slot.take().expect("session present");
            finalize(core, sess, DoneReason::ServiceShutdown);
            return TaskStatus::Done;
        }
        sched.running += 1;
    }
    let done = run_slice(core, sess);
    core.sched.lock().unwrap().running -= 1;
    match done {
        Some(reason) => {
            let sess = slot.take().expect("session present");
            finalize(core, sess, reason);
            TaskStatus::Done
        }
        None => TaskStatus::Yield,
    }
}
