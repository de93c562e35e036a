//! # moqo-service — a concurrent anytime optimization service
//!
//! The paper's central property — RMQ is an *anytime* algorithm with
//! polynomial per-iteration cost — makes it uniquely suited to **serving**:
//! many interleaved optimization requests, each with its own budget or
//! deadline, multiplexed over a fixed worker pool. This crate is that
//! serving layer:
//!
//! * [`OptimizationService`] — a long-running scheduler running many
//!   concurrent sessions cooperatively: every session is a resumable task
//!   on one shared **executor** (`moqo-parallel`'s `ExecPool`, one run
//!   queue), sliced round-robin ([`STEPS_PER_SLICE`] iterations, or
//!   [`SLICE_DURATION`] under time budgets); fanned-out sessions spread
//!   their climb batches over the *same* pool, so idle workers pick up work
//!   from wide sessions instead of sitting behind per-session thread pools.
//! * [`SessionHandle`] — the client view: on-demand frontier snapshots,
//!   epoch-numbered improvement notifications, a streaming
//!   [`updates`](SessionHandle::updates) subscription, cancellation.
//! * A **cross-query plan cache** ([`CacheStats`]) — bounded at
//!   [`CACHE_MAX_PLANS`] plans, keyed by `(context fingerprint, table
//!   set)`, warm-starting new sessions from the partial plans of
//!   previously optimized overlapping queries (the cross-query extension
//!   of the paper's §4.3 plan sharing; cf. optd's persisted
//!   re-optimization state). Each entry is a `moqo_core` `ParetoSet` under
//!   the exact admission rule, holding the published `Arc<Plan>` trees
//!   themselves.
//! * **Admission control** ([`AdmissionConfig`], [`AdmissionError`]) — a
//!   bounded live-session queue that rejects rather than backlogs. A
//!   session that fans a single query out (`moqo-parallel`'s `ParRmq`; see
//!   [`PlanExchange::fan_out`]) runs its batches on the same pool, whose
//!   worker count is the one bound on concurrent width.
//! * **Service statistics** ([`ServiceStats`]) — throughput, p50/p99
//!   time-to-first-frontier, time-to-90%-of-final-hypervolume, cache hit
//!   rate.
//! * A **continuous SLO monitor** ([`SloConfig`]) — configurable targets
//!   for p99 TTFF, p99 queueing delay, and shed rate, evaluated over the
//!   sliding statistics windows on every completion and rejection;
//!   observed values export as `slo.*` gauges and breach-state
//!   transitions are journaled and counted.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use moqo_core::model::testing::StubModel;
//! use moqo_core::optimizer::Budget;
//! use moqo_core::rmq::{Rmq, RmqConfig};
//! use moqo_core::tables::TableSet;
//! use moqo_service::{OptimizationService, ServiceConfig, SessionRequest};
//!
//! let service = OptimizationService::new(ServiceConfig::default());
//! let model = Arc::new(StubModel::line(6, 2, 42));
//! let query = TableSet::prefix(6);
//! let handle = service
//!     .submit(SessionRequest {
//!         optimizer: Box::new(Rmq::new(model, query, RmqConfig::seeded(7))),
//!         budget: Budget::Iterations(40),
//!         query,
//!         context: 0xC0FFEE,
//!     })
//!     .expect("admitted");
//! let done = handle.wait_done(Duration::from_secs(10)).expect("finishes");
//! assert!(!done.plans.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod admission;
mod cache;
mod scheduler;
mod session;
mod stats;

pub use admission::{AdmissionConfig, AdmissionError};
pub use cache::{CacheStats, CACHE_MAX_PLANS};
pub use session::{
    DoneReason, FrontierSnapshot, FrontierUpdates, SessionHandle, SessionId, SessionStatus,
};
pub use stats::{ServiceStats, SloConfig, SLO_BIT_QUEUE_DELAY, SLO_BIT_SHED, SLO_BIT_TTFF};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use moqo_core::optimizer::Budget;
use moqo_core::tables::TableSet;

use moqo_obs::journal::{self, EventKind, Level, Target};
use moqo_obs::spans::{self, SpanId, SpanKind};
use moqo_obs::{ctx, metrics};

use moqo_parallel::{ExecPool, TaskSpec};

use scheduler::{session_tick, ActiveSession, RemainingBudget, SchedState, ServiceCore};
use session::SessionShared;

/// Optimizer steps per scheduling slice for iteration-budget sessions.
pub const STEPS_PER_SLICE: u64 = 16;

/// Wall-clock length of one scheduling slice for time- and
/// deadline-budget sessions.
pub const SLICE_DURATION: Duration = Duration::from_millis(2);

/// The exchange seam the service schedules: anytime, `Send`, optionally
/// able to exchange partial plans with the cross-query cache, and
/// reporting its intra-query fan-out for the service statistics.
///
/// This is `moqo-core`'s [`PlanExchange`] trait, re-exported: the same
/// seam the intra-query shared frontier of `moqo-parallel` speaks.
/// [`Rmq`](moqo_core::rmq::Rmq) implements it natively through its
/// partial-plan cache; `moqo-parallel`'s `ParRmq` implements it with
/// `fan_out() > 1`, letting one session spread a single query over the
/// service's pool; the baseline optimizers implement it with the no-op
/// defaults.
pub use moqo_core::optimizer::PlanExchange;

/// Derives a cache **context fingerprint** from a catalog fingerprint
/// (`Catalog::fingerprint`) and a cost-model discriminator. Partial plans
/// are only reusable between sessions whose cost vectors are comparable —
/// same catalog statistics *and* same cost model configuration — so both
/// must feed the cache key.
pub fn context_fingerprint(catalog_fingerprint: u64, model_tag: &str) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = catalog_fingerprint ^ 0x0146_50FB_0431_u64.wrapping_mul(PRIME);
    for b in model_tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One optimization request.
pub struct SessionRequest {
    /// The session's optimizer, already bound to its model and query. Its
    /// [`PlanExchange::fan_out`] declares how many intra-query workers it
    /// will use while stepped (1 for sequential optimizers).
    pub optimizer: Box<dyn PlanExchange>,
    /// Stopping criterion. `Budget::Time` counts from admission (queueing
    /// delay spends budget, like a request timeout); use
    /// `Budget::Deadline` for an absolute cutoff and
    /// `Budget::Iterations` for deterministic tests.
    pub budget: Budget,
    /// The query's table set (used to select warm-start plans).
    pub query: TableSet,
    /// Cache context fingerprint — see [`context_fingerprint`].
    pub context: u64,
}

/// Configuration of the optimization service.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads of the shared executor — they step session slices
    /// *and* run fanned-out sessions' climb batches. `0` admits sessions
    /// without running them (useful for admission tests and manual
    /// draining).
    pub workers: usize,
    /// Admission control.
    pub admission: AdmissionConfig,
    /// Service-level objective targets, monitored continuously over the
    /// statistics windows (disabled by default — no target set).
    pub slo: SloConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            admission: AdmissionConfig::default(),
            slo: SloConfig::default(),
        }
    }
}

/// The concurrent anytime optimization service. Dropping it shuts the
/// shared executor down; unfinished sessions complete with
/// [`DoneReason::ServiceShutdown`].
pub struct OptimizationService {
    core: Arc<ServiceCore>,
}

impl OptimizationService {
    /// Starts a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        let core = Arc::new(ServiceCore {
            config,
            sched: Mutex::new(SchedState {
                live: 0,
                running: 0,
                shutdown: false,
            }),
            pool: ExecPool::new(config.workers),
            cache: cache::SharedPlanCache::new(CACHE_MAX_PLANS),
            stats: stats::StatsCollector::new(),
            next_id: AtomicU64::new(1),
        });
        OptimizationService { core }
    }

    /// Submits a session. On admission the optimizer is warm-started from
    /// the cross-query cache and queued for scheduling; the returned
    /// handle observes its progress.
    ///
    /// # Errors
    /// [`AdmissionError::QueueFull`] when the live-session bound is
    /// reached, [`AdmissionError::ShuttingDown`] during shutdown.
    pub fn submit(&self, request: SessionRequest) -> Result<SessionHandle, AdmissionError> {
        let SessionRequest {
            mut optimizer,
            budget,
            query,
            context,
        } = request;
        let fan_out = optimizer.fan_out().max(1);
        // Admission + live-session reservation.
        {
            let mut sched = self.core.sched.lock().unwrap();
            if sched.shutdown {
                drop(sched);
                return Err(self.reject(AdmissionError::ShuttingDown));
            }
            let limit = self.core.config.admission.max_live_sessions;
            if sched.live >= limit {
                let live = sched.live;
                drop(sched);
                return Err(self.reject(AdmissionError::QueueFull { live, limit }));
            }
            sched.live += 1;
        }
        // Identity and causal root first: the session span opened here is
        // the parent every slice, climb batch, and exchange span of this
        // session links back to, whichever worker or helper runs the work.
        let now = Instant::now();
        let id = SessionId(self.core.next_id.fetch_add(1, Ordering::Relaxed));
        ctx::set_session(id.0);
        let session_span = spans::begin(SpanKind::Session, SpanId::NONE);
        // Warm start outside the scheduler lock: cache lookups and plan
        // absorption can be comparatively slow.
        let mut lookup_span = spans::begin(SpanKind::CacheLookup, spans::id_of(&session_span));
        let warm = self.core.cache.lookup(context, query);
        let absorbed = if warm.is_empty() {
            0
        } else {
            optimizer.absorb_plans(&warm)
        };
        if let Some(s) = lookup_span.as_mut() {
            s.set_arg(absorbed as u64);
        }
        spans::finish(lookup_span);
        let m = metrics();
        if warm.is_empty() {
            m.cache_misses.incr();
        } else {
            m.cache_hits.incr();
        }
        m.service_warm_start_depth.record(absorbed as u64);
        let shared = SessionShared::new(now);
        shared.state.lock().unwrap().absorbed = absorbed;
        let session = ActiveSession {
            id,
            optimizer,
            remaining: RemainingBudget::from_budget(budget, now),
            shared: Arc::clone(&shared),
            context,
            last_sig: 0,
            span: session_span,
        };
        {
            let mut sched = self.core.sched.lock().unwrap();
            if sched.shutdown {
                // Shutdown raced in while we warm-started: undo the
                // reservation, close the session span, and reject.
                sched.live -= 1;
                drop(sched);
                let mut session = session;
                spans::finish(session.span.take());
                return Err(self.reject(AdmissionError::ShuttingDown));
            }
            // The session becomes a recurring task on the shared executor:
            // each invocation runs one slice, then yields. A `Weak`
            // back-reference keeps `ServiceCore → pool → task` from cycling.
            // Spawned under the scheduler lock: shutdown flips under the
            // same lock, so the pool cannot start its final drain before
            // this task is queued.
            let weak = Arc::downgrade(&self.core);
            let mut slot = Some(session);
            self.core
                .pool
                .handle()
                .spawn(TaskSpec::root(), move || match weak.upgrade() {
                    Some(core) => session_tick(&core, &mut slot),
                    None => moqo_parallel::TaskStatus::Done,
                });
        }
        self.core.stats.record_submitted(fan_out);
        m.service_submitted.incr();
        if journal::enabled(Target::Admission, Level::Info) {
            journal::emit_with(Target::Admission, Level::Info, || {
                EventKind::SessionSubmitted {
                    fan_out: fan_out as u64,
                }
            });
        }
        Ok(SessionHandle { id, shared })
    }

    /// Accounts one rejected submission — statistics, SLO re-evaluation,
    /// the rejection counter of its cause and the journal — and returns
    /// the error.
    fn reject(&self, error: AdmissionError) -> AdmissionError {
        self.core.stats.record_rejected();
        self.core.stats.evaluate_slo(&self.core.config.slo);
        let m = metrics();
        let (counter, reason) = match error {
            AdmissionError::ShuttingDown => (&m.service_rejected_shutdown, "shutdown"),
            AdmissionError::QueueFull { .. } => (&m.service_rejected_queue_full, "queue_full"),
        };
        counter.incr();
        if journal::enabled(Target::Admission, Level::Warn) {
            journal::emit_with(Target::Admission, Level::Warn, || {
                EventKind::SessionRejected { reason }
            });
        }
        error
    }

    /// Current service statistics.
    pub fn stats(&self) -> ServiceStats {
        let live = self.core.sched.lock().unwrap().live;
        self.core.stats.snapshot(live, self.core.cache.stats())
    }

    /// Current cross-query cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache.stats()
    }

    /// Number of live sessions not currently executing a slice (waiting on
    /// the executor's queues between slices).
    pub fn queued(&self) -> usize {
        let sched = self.core.sched.lock().unwrap();
        sched.live - sched.running
    }

    /// Number of live sessions (admitted, not yet finished).
    pub fn live_sessions(&self) -> usize {
        self.core.sched.lock().unwrap().live
    }

    /// The admission configuration this service runs with.
    pub fn admission_config(&self) -> AdmissionConfig {
        self.core.config.admission
    }

    /// The current SLO breach bitmask ([`SLO_BIT_TTFF`] |
    /// [`SLO_BIT_QUEUE_DELAY`] | [`SLO_BIT_SHED`]) without the percentile
    /// computation a full [`stats`](Self::stats) snapshot pays — cheap
    /// enough to consult on every admission decision, which is what the
    /// front door's degradation ladder does.
    pub fn slo_breached(&self) -> u64 {
        self.core.stats.breach_mask()
    }

    /// Shuts the service down (equivalent to dropping it): stops
    /// admitting, aborts queued sessions, joins the executor workers.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for OptimizationService {
    fn drop(&mut self) {
        self.core.sched.lock().unwrap().shutdown = true;
        // Joins the executor workers, then drains any still-queued session
        // tasks inline; each sees the shutdown flag and finalizes with
        // `DoneReason::ServiceShutdown`.
        self.core.pool.shutdown();
    }
}
