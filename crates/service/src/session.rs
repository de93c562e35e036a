//! Session handles: the client-facing view of one optimization request.
//!
//! A [`SessionHandle`] is a cheap clone-able reference to the session's
//! shared state. The scheduler's workers update that state after every
//! optimizer step through the core `Observer` seam; clients read it with
//! [`SessionHandle::snapshot`], block on it with
//! [`SessionHandle::wait_improvement`] / [`SessionHandle::wait_done`], or
//! stream it with [`SessionHandle::updates`]. Every frontier improvement
//! bumps an **epoch** counter, so clients can cheaply detect "anything new
//! since I last looked?" without diffing plan sets.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use moqo_core::plan::PlanRef;

/// Unique id of a session within one service instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Why a session finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoneReason {
    /// The request's budget (iterations, time, or deadline) ran out.
    BudgetExhausted,
    /// The optimizer reported completion before the budget ran out (e.g.
    /// a DP baseline finished its enumeration).
    OptimizerExhausted,
    /// The client cancelled the session.
    Cancelled,
    /// The service shut down before the session could finish.
    ServiceShutdown,
}

/// Lifecycle state of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// Admitted, waiting for its first scheduling slice.
    Queued,
    /// Being stepped by the worker pool (possibly between slices).
    Running,
    /// Finished for the given reason; the frontier is final.
    Done(DoneReason),
}

impl SessionStatus {
    /// Whether the session has finished.
    pub fn is_done(&self) -> bool {
        matches!(self, SessionStatus::Done(_))
    }
}

/// A point-in-time view of a session's result frontier.
#[derive(Clone, Debug)]
pub struct FrontierSnapshot {
    /// Improvement epoch: strictly increases every time the frontier
    /// changes. `0` means no frontier has been produced yet.
    pub epoch: u64,
    /// Session lifecycle state at snapshot time.
    pub status: SessionStatus,
    /// The current (final, if done) Pareto plan set.
    pub plans: Vec<PlanRef>,
    /// Optimizer steps executed so far.
    pub steps: u64,
}

/// Mutable session state shared between the scheduler and handles.
pub(crate) struct SessionState {
    pub status: SessionStatus,
    pub epoch: u64,
    pub frontier: Vec<PlanRef>,
    pub steps: u64,
    pub cancel_requested: bool,
    pub submitted_at: Instant,
    /// When the first scheduling slice picked this session up — the end of
    /// its queueing delay (`None` until first stepped).
    pub first_step_at: Option<Instant>,
    pub first_frontier_at: Option<Instant>,
    /// Plans accepted from the cross-query cache at warm-start.
    pub absorbed: usize,
}

/// State + condvar pair the scheduler and all handles share.
pub(crate) struct SessionShared {
    pub state: Mutex<SessionState>,
    pub cond: Condvar,
}

impl SessionShared {
    pub(crate) fn new(now: Instant) -> Arc<Self> {
        Arc::new(SessionShared {
            state: Mutex::new(SessionState {
                status: SessionStatus::Queued,
                epoch: 0,
                frontier: Vec::new(),
                steps: 0,
                cancel_requested: false,
                submitted_at: now,
                first_step_at: None,
                first_frontier_at: None,
                absorbed: 0,
            }),
            cond: Condvar::new(),
        })
    }

    fn snapshot_locked(state: &SessionState) -> FrontierSnapshot {
        FrontierSnapshot {
            epoch: state.epoch,
            status: state.status,
            plans: state.frontier.clone(),
            steps: state.steps,
        }
    }
}

/// Client handle to a submitted session. Cloning yields another handle to
/// the same session.
#[derive(Clone)]
pub struct SessionHandle {
    pub(crate) id: SessionId,
    pub(crate) shared: Arc<SessionShared>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock().unwrap();
        f.debug_struct("SessionHandle")
            .field("id", &self.id)
            .field("status", &state.status)
            .field("epoch", &state.epoch)
            .field("steps", &state.steps)
            .finish()
    }
}

impl SessionHandle {
    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The session's current lifecycle state.
    pub fn status(&self) -> SessionStatus {
        self.shared.state.lock().unwrap().status
    }

    /// Number of partial plans the session's optimizer accepted from the
    /// cross-query cache at warm-start (`> 0` means the cache had
    /// overlapping state): admitted into its query frontier at once, or
    /// parked until it first touches their table set (`Rmq::warm_start`).
    pub fn absorbed_plans(&self) -> usize {
        self.shared.state.lock().unwrap().absorbed
    }

    /// The current frontier snapshot (non-blocking).
    pub fn snapshot(&self) -> FrontierSnapshot {
        let state = self.shared.state.lock().unwrap();
        SessionShared::snapshot_locked(&state)
    }

    /// Blocks until the frontier improves past `seen_epoch`, the session
    /// finishes, or `timeout` elapses. Returns the snapshot on improvement
    /// or completion, `None` on timeout.
    pub fn wait_improvement(&self, seen_epoch: u64, timeout: Duration) -> Option<FrontierSnapshot> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.epoch > seen_epoch || state.status.is_done() {
                return Some(SessionShared::snapshot_locked(&state));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = next;
        }
    }

    /// Blocks until the session finishes or `timeout` elapses. Returns the
    /// final snapshot, or `None` on timeout.
    pub fn wait_done(&self, timeout: Duration) -> Option<FrontierSnapshot> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.status.is_done() {
                return Some(SessionShared::snapshot_locked(&state));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = next;
        }
    }

    /// Requests cancellation. The session transitions to
    /// `Done(Cancelled)` at its next scheduling point; already-finished
    /// sessions are unaffected.
    pub fn cancel(&self) {
        self.shared.state.lock().unwrap().cancel_requested = true;
        // Wake the session's waiters promptly once a worker acts on it;
        // nothing to notify here — the flag is polled by the scheduler.
    }

    /// A blocking iterator over epoch-numbered frontier improvements: each
    /// `next()` yields the next snapshot whose epoch exceeds the last one
    /// seen. The final (completion) snapshot is always yielded, then the
    /// iterator ends.
    ///
    /// The default idle timeout is generous (five minutes without any
    /// improvement or completion before `next()` gives up and returns
    /// `None`) — it exists so the iterator cannot spin forever when
    /// nothing will ever step the session (e.g. a service configured with
    /// zero workers, or one whose workers died). Tune it with
    /// [`FrontierUpdates::with_idle_timeout`].
    pub fn updates(&self) -> FrontierUpdates<'_> {
        FrontierUpdates {
            handle: self,
            seen_epoch: 0,
            finished: false,
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// Streaming subscription returned by [`SessionHandle::updates`].
pub struct FrontierUpdates<'a> {
    handle: &'a SessionHandle,
    seen_epoch: u64,
    finished: bool,
    idle_timeout: Duration,
}

impl FrontierUpdates<'_> {
    /// Sets how long `next()` waits without observing any improvement or
    /// completion before giving up and yielding `None`.
    #[must_use]
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }
}

impl Iterator for FrontierUpdates<'_> {
    type Item = FrontierSnapshot;

    fn next(&mut self) -> Option<FrontierSnapshot> {
        if self.finished {
            return None;
        }
        let idle_since = Instant::now();
        loop {
            // Short poll interval: improvements notify the condvar, so the
            // timeout only re-checks the idle budget.
            let snap = self
                .handle
                .wait_improvement(self.seen_epoch, Duration::from_millis(200));
            match snap {
                Some(snap) if snap.epoch > self.seen_epoch => {
                    self.seen_epoch = snap.epoch;
                    self.finished = snap.status.is_done();
                    return Some(snap);
                }
                Some(snap) if snap.status.is_done() => {
                    self.finished = true;
                    return Some(snap);
                }
                _ => {
                    if idle_since.elapsed() >= self.idle_timeout {
                        // Nothing is stepping this session; end the stream
                        // rather than spinning forever.
                        self.finished = true;
                        return None;
                    }
                }
            }
        }
    }
}
