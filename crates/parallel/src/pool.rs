//! The shared executor: one pool for every session and every intra-query
//! worker, scheduling from one run queue.
//!
//! The unit of work is a **climb batch**: a task is a resumable closure
//! that runs at most one batch of hill-climbing iterations per invocation
//! and returns [`TaskStatus::Yield`] (more work left) or
//! [`TaskStatus::Done`]. A batch takes hundreds of microseconds to
//! milliseconds, so every queued task sits behind one mutex and every
//! waiting thread parks on one condvar; queue operations are far off the
//! hot path:
//!
//! ```text
//!      spawn() from outside        yield, or spawn() on a pool worker
//!               │                                │
//!               ▼                                ▼
//!         ┌───────────┐                  ┌───────────────┐
//!         │fresh lane │                  │ resident lane │
//!         └─────┬─────┘                  └───────┬───────┘
//!               └──────── one Mutex<Queues> ─────┘
//!                  │                        │
//!       pool workers: fresh,       helpers (help_until): own group,
//!       then resident              then helpable foreign tasks
//! ```
//!
//! * A pool worker takes the oldest **fresh** task (new sessions are
//!   admitted oldest-first), else the oldest **resident** one. A yielded
//!   task re-enters at the back of the resident lane, so the workers
//!   round-robin the resident tasks. A worker that takes a group task
//!   counts `exec_pool.steals`: that batch runs on a thread other than its
//!   group's waiting helper.
//! * A thread that must wait for a [`TaskGroup`] (e.g. a `ParRmq` round
//!   fanned out as sub-tasks) never blocks idle: [`PoolHandle::help_until`]
//!   runs its own group's tasks first and otherwise **donates** batches to
//!   foreign groups (`exec_pool.donations`), so a waiting wide session is
//!   itself a worker. With nothing to claim it parks on the pool's condvar
//!   until a task is queued or its group's last task completes.
//! * A group task that panics completes its group with the panic payload:
//!   the pool thread that ran it carries on, and the group's waiter
//!   re-raises the payload once the rest of the group has finished.
//!
//! Worker threads advertise the pool through a thread local;
//! [`ExecPool::current`] is how `ParRmq` discovers it is being stepped *on*
//! a pool (by the optimization service) and fans out through that pool's
//! shared workers instead of its own private one.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

use moqo_obs::metrics;
use moqo_obs::spans::{self, SpanId, SpanKind};

/// What a task invocation reports back to the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStatus {
    /// The task has more batches to run: re-queue it.
    Yield,
    /// The task is finished: drop it (and credit its group, if any).
    Done,
}

/// Scheduling attributes of a task.
#[derive(Clone, Copy, Debug)]
pub struct TaskSpec {
    /// Whether a helper waiting on a *different* group may run the task as
    /// a donation. Leaf batch tasks set `true`; tasks that may themselves
    /// wait on a group (session slices) must set `false`, which bounds the
    /// helper recursion depth to one nested task frame.
    pub helpable: bool,
}

impl TaskSpec {
    /// A leaf climb-batch task: donation-eligible.
    pub fn batch() -> Self {
        TaskSpec { helpable: true }
    }

    /// A top-level task that may itself fan out and wait on a group (a
    /// service session slice): never run inside another task's helping
    /// wait.
    pub fn root() -> Self {
        TaskSpec { helpable: false }
    }
}

struct Task {
    run: Box<dyn FnMut() -> TaskStatus + Send>,
    spec: TaskSpec,
    group: Option<Arc<GroupInner>>,
    /// The spawner's ambient span, captured at submission when tracing is
    /// enabled ([`SpanId::NONE`] otherwise). The executor re-installs it as
    /// the running thread's ambient span around every invocation, so spans
    /// begun inside a batch still parent to the session that spawned the
    /// work, whichever thread runs it.
    span: SpanId,
}

impl Task {
    fn new(
        run: impl FnMut() -> TaskStatus + Send + 'static,
        spec: TaskSpec,
        group: Option<Arc<GroupInner>>,
    ) -> Self {
        // The disabled path is the one relaxed load of `spans::enabled`.
        let span = if spans::enabled() {
            spans::current()
        } else {
            SpanId::NONE
        };
        Task {
            run: Box::new(run),
            spec,
            group,
            span,
        }
    }

    /// The owning group's id; `0` = none.
    fn group_id(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.id)
    }
}

struct GroupInner {
    id: u64,
    /// Tasks spawned into the group that have not yet reported `Done`.
    remaining: AtomicUsize,
    /// The payload of the group's first panicking task, re-raised by
    /// [`PoolHandle::help_until`].
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A completion latch over a set of tasks spawned with
/// [`PoolHandle::spawn_in`]. Wait for it with [`PoolHandle::help_until`]
/// (which lends the waiting thread to the pool) — there is deliberately no
/// blocking `wait()`: a pool worker that parked on its own sub-tasks would
/// deadlock a saturated pool.
#[derive(Clone)]
pub struct TaskGroup {
    inner: Arc<GroupInner>,
}

impl TaskGroup {
    /// Whether every task in the group has completed.
    pub fn is_done(&self) -> bool {
        self.inner.remaining.load(Ordering::Acquire) == 0
    }
}

thread_local! {
    /// The pool whose worker loop is running on this thread, if any.
    static CURRENT_POOL: RefCell<Option<Weak<PoolInner>>> = const { RefCell::new(None) };
}

/// Every queued task, behind the pool's one lock.
struct Queues {
    /// Tasks spawned from outside the pool, oldest first.
    fresh: VecDeque<Task>,
    /// Yielded tasks and tasks spawned on a pool worker, oldest first.
    resident: VecDeque<Task>,
    shutdown: bool,
}

impl Queues {
    /// A pool worker's next task: the oldest fresh one, else the oldest
    /// resident one.
    fn pop(&mut self) -> Option<Task> {
        self.fresh.pop_front().or_else(|| self.resident.pop_front())
    }

    /// The oldest task matching `pred`, fresh lane first.
    fn take(&mut self, pred: impl Fn(&Task) -> bool) -> Option<Task> {
        for lane in [&mut self.fresh, &mut self.resident] {
            if let Some(pos) = lane.iter().position(&pred) {
                return lane.remove(pos);
            }
        }
        None
    }
}

/// Tasks never run under the pool's locks, so only a panic inside this
/// module's own short critical sections could poison one.
const POISONED: &str = "a panic inside one of the pool's locks";

struct PoolInner {
    queues: Mutex<Queues>,
    /// Parks idle workers and helpers with nothing to claim. Notified on
    /// every push, on every group's last completion, and at shutdown.
    wake: Condvar,
    workers: usize,
    next_group: AtomicU64,
}

impl PoolInner {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().expect(POISONED)
    }

    /// Parks the caller until the next wake; returns the re-taken lock.
    fn park<'a>(&self, queues: MutexGuard<'a, Queues>) -> MutexGuard<'a, Queues> {
        self.wake.wait(queues).expect(POISONED)
    }

    fn push(&self, task: Task, resident: bool) {
        {
            let mut queues = self.lock();
            if resident {
                queues.resident.push_back(task);
            } else {
                queues.fresh.push_back(task);
            }
        }
        // Every parked thread re-checks: a woken helper may be unable to
        // claim the task (a root task, or its own group just finished), so
        // waking only one could strand the task while a worker sleeps.
        self.wake.notify_all();
    }

    /// Credits `group` with one finished task; the last one wakes its
    /// parked helper. Taking the lock first orders the wake after any
    /// helper's check-then-park, so the wake cannot be lost.
    fn complete(&self, group: &GroupInner) {
        if group.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(self.lock());
            self.wake.notify_all();
        }
    }

    /// Runs one task invocation; re-queues it on yield, credits its group
    /// on done. A group task that panics is done: its payload is kept for
    /// the group's waiter, and the running thread survives. A groupless
    /// task's panic unwinds the running thread.
    fn run(&self, mut task: Task) {
        metrics().exec_pool_batches.incr();
        // Re-install the spawner's ambient span for the invocation so
        // spans begun inside the task parent correctly on any thread;
        // restore the runner's own ambient span afterwards.
        let prev = spans::enabled().then(|| spans::set_current(task.span));
        let status = match &task.group {
            Some(group) => {
                panic::catch_unwind(AssertUnwindSafe(&mut task.run)).unwrap_or_else(|payload| {
                    group.panic.lock().expect(POISONED).get_or_insert(payload);
                    TaskStatus::Done
                })
            }
            None => (task.run)(),
        };
        if let Some(prev) = prev {
            spans::set_current(prev);
        }
        match status {
            TaskStatus::Yield => self.push(task, true),
            TaskStatus::Done => {
                if let Some(group) = task.group.take() {
                    self.complete(&group);
                }
            }
        }
    }

    fn worker_loop(self: &Arc<Self>) {
        CURRENT_POOL.with(|c| *c.borrow_mut() = Some(Arc::downgrade(self)));
        let mut queues = self.lock();
        loop {
            if let Some(task) = queues.pop() {
                drop(queues);
                if task.group.is_some() {
                    metrics().exec_pool_steals.incr();
                }
                self.run(task);
                queues = self.lock();
            } else if queues.shutdown {
                return;
            } else {
                queues = self.park(queues);
            }
        }
    }
}

/// A cheap cloneable handle for submitting work to an [`ExecPool`].
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<PoolInner>,
}

impl PoolHandle {
    /// Number of pool worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Tasks currently queued, excluding tasks being executed right now.
    pub fn queued_tasks(&self) -> usize {
        let queues = self.inner.lock();
        queues.fresh.len() + queues.resident.len()
    }

    /// Creates an empty task group.
    pub fn group(&self) -> TaskGroup {
        TaskGroup {
            inner: Arc::new(GroupInner {
                id: self.inner.next_group.fetch_add(1, Ordering::Relaxed) + 1,
                remaining: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
        }
    }

    /// Whether the calling thread is one of this pool's workers, whose
    /// spawns enter the resident lane.
    fn on_pool(&self) -> bool {
        ExecPool::current().is_some_and(|p| Arc::ptr_eq(&p.inner, &self.inner))
    }

    /// Submits a free-standing resumable task (no group): into the fresh
    /// lane from outside the pool, into the resident lane from a pool
    /// worker.
    pub fn spawn(&self, spec: TaskSpec, run: impl FnMut() -> TaskStatus + Send + 'static) {
        self.inner.push(Task::new(run, spec, None), self.on_pool());
    }

    /// Submits a task into `group`, queued like [`PoolHandle::spawn`]; the
    /// group completes when every spawned task has returned
    /// [`TaskStatus::Done`].
    pub fn spawn_in(
        &self,
        group: &TaskGroup,
        spec: TaskSpec,
        run: impl FnMut() -> TaskStatus + Send + 'static,
    ) {
        group.inner.remaining.fetch_add(1, Ordering::AcqRel);
        let task = Task::new(run, spec, Some(Arc::clone(&group.inner)));
        self.inner.push(task, self.on_pool());
    }

    /// Waits for `group` to complete by **helping**: the calling thread
    /// runs the group's queued tasks itself, and donates batches to foreign
    /// groups when its own group's tasks are all in flight elsewhere. This
    /// is the only wait primitive — it keeps a saturated pool deadlock-free
    /// (a worker waiting on sub-tasks executes them) and turns waiting wide
    /// sessions into extra workers. With nothing to claim, the thread parks
    /// until a task is queued or the group's last task completes.
    ///
    /// # Panics
    /// Re-raises the payload of the group's first panicking task, once
    /// every task of the group has completed.
    pub fn help_until(&self, group: &TaskGroup) {
        let gid = group.inner.id;
        let mut queues = self.inner.lock();
        while !group.is_done() {
            let claimed = match queues.take(|t| t.group_id() == gid) {
                Some(task) => Some((task, false)),
                None => queues.take(|t| t.spec.helpable).map(|t| (t, true)),
            };
            let Some((task, donation)) = claimed else {
                queues = self.inner.park(queues);
                continue;
            };
            drop(queues);
            if donation {
                metrics().exec_pool_donations.incr();
                spans::instant(SpanKind::Donation, task.span, task.group_id());
            }
            self.inner.run(task);
            queues = self.inner.lock();
        }
        drop(queues);
        if let Some(payload) = group.inner.panic.lock().expect(POISONED).take() {
            panic::resume_unwind(payload);
        }
    }
}

/// The owning side of the executor: worker threads plus shutdown. See the
/// module docs for the scheduling model.
pub struct ExecPool {
    inner: Arc<PoolInner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ExecPool {
    /// Starts a pool with `workers` threads. `0` is allowed: tasks queue
    /// until an external thread drains them via [`PoolHandle::help_until`]
    /// or [`ExecPool::shutdown`] (admission tests, manual draining).
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(PoolInner {
            queues: Mutex::new(Queues {
                fresh: VecDeque::new(),
                resident: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            workers,
            next_group: AtomicU64::new(0),
        });
        let threads = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("moqo-exec-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        ExecPool {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// A submission handle.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The pool whose worker loop is running on the calling thread, if any
    /// — how `ParRmq` detects it is being stepped on shared workers and
    /// fans out through them instead of its private pool.
    pub fn current() -> Option<PoolHandle> {
        CURRENT_POOL.with(|c| {
            c.borrow()
                .as_ref()
                .and_then(Weak::upgrade)
                .map(|inner| PoolHandle { inner })
        })
    }

    /// Shuts the pool down: workers finish draining the queue and exit;
    /// any tasks left behind (or submitted to a zero-worker pool) are run
    /// to completion inline. Tasks are responsible for observing their
    /// external shutdown signals and finishing promptly once asked.
    pub fn shutdown(&self) {
        self.inner.lock().shutdown = true;
        self.inner.wake.notify_all();
        for thread in self.threads.lock().unwrap().drain(..) {
            let _ = thread.join();
        }
        loop {
            let next = self.inner.lock().pop();
            let Some(task) = next else { break };
            self.inner.run(task);
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::time::{Duration, Instant};

    fn delta(read: impl Fn() -> u64, body: impl FnOnce()) -> u64 {
        let before = read();
        body();
        read().saturating_sub(before)
    }

    /// Spin-waits (yielding) until `done` holds, failing after 10 s — used
    /// where a task must run on a pool worker, so the test thread cannot
    /// help without perturbing placement, and so a lost wakeup fails the
    /// test instead of hanging it.
    fn spin_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "pool made no progress");
            std::thread::yield_now();
        }
    }

    #[test]
    fn groups_complete_and_yield_requeues() {
        let pool = ExecPool::new(2);
        let handle = pool.handle();
        let group = handle.group();
        let total = Arc::new(AtomicU32::new(0));
        for _ in 0..8 {
            let total = Arc::clone(&total);
            let mut left = 3u32;
            handle.spawn_in(&group, TaskSpec::batch(), move || {
                total.fetch_add(1, Ordering::SeqCst);
                left -= 1;
                if left == 0 {
                    TaskStatus::Done
                } else {
                    TaskStatus::Yield
                }
            });
        }
        handle.help_until(&group);
        assert!(group.is_done());
        // Every task ran all three of its batches.
        assert_eq!(total.load(Ordering::SeqCst), 24);
        pool.shutdown();
    }

    #[test]
    fn a_panicking_group_task_reaches_its_waiter_and_the_worker_survives() {
        let pool = ExecPool::new(1);
        let handle = pool.handle();
        let group = handle.group();
        let started = Arc::new(AtomicBool::new(false));
        let started_in = Arc::clone(&started);
        handle.spawn_in(&group, TaskSpec::batch(), move || {
            started_in.store(true, Ordering::SeqCst);
            panic!("the batch failed");
        });
        // The worker has taken the task, so the waiter cannot run it and
        // must learn of the panic from the group.
        spin_until(|| started.load(Ordering::SeqCst));
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = handle.clone();
        let waiter = std::thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| waiter.help_until(&group)));
            let message = outcome.err().map(|p| p.downcast_ref::<&str>().copied());
            tx.send(message).unwrap();
        });
        let message = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the waiter must not hang on a panicked group");
        assert_eq!(message, Some(Some("the batch failed")));
        waiter.join().unwrap();
        let ran = Arc::new(AtomicBool::new(false));
        let ran_in = Arc::clone(&ran);
        handle.spawn(TaskSpec::root(), move || {
            ran_in.store(true, Ordering::SeqCst);
            TaskStatus::Done
        });
        spin_until(|| ran.load(Ordering::SeqCst));
        pool.shutdown();
    }

    #[test]
    fn zero_worker_pool_runs_everything_through_helpers() {
        let pool = ExecPool::new(0);
        let handle = pool.handle();
        assert_eq!(handle.workers(), 0);
        let group = handle.group();
        let ran = Arc::new(AtomicU32::new(0));
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            handle.spawn_in(&group, TaskSpec::batch(), move || {
                ran.fetch_add(1, Ordering::SeqCst);
                TaskStatus::Done
            });
        }
        assert_eq!(handle.queued_tasks(), 4);
        handle.help_until(&group);
        assert_eq!(ran.load(Ordering::SeqCst), 4);
        assert_eq!(handle.queued_tasks(), 0);
    }

    #[test]
    fn a_busy_workers_group_batches_run_on_the_idle_worker() {
        // A root task spawns batches into the resident lane and then spins
        // without helping, so the other worker's loop must take them. The
        // test thread never helps — placement must stay on the pool.
        let pool = ExecPool::new(2);
        let handle = pool.handle();
        let elsewhere = Arc::new(AtomicU32::new(0));
        let steals = delta(
            || metrics().exec_pool_steals.get(),
            || {
                let done = Arc::new(AtomicBool::new(false));
                let inner_handle = handle.clone();
                let inner_group = handle.group();
                let (done_in, elsewhere_in) = (Arc::clone(&done), Arc::clone(&elsewhere));
                handle.spawn(TaskSpec::root(), move || {
                    let root = std::thread::current().id();
                    for _ in 0..6 {
                        let elsewhere = Arc::clone(&elsewhere_in);
                        inner_handle.spawn_in(&inner_group, TaskSpec::batch(), move || {
                            if std::thread::current().id() != root {
                                elsewhere.fetch_add(1, Ordering::SeqCst);
                            }
                            TaskStatus::Done
                        });
                    }
                    while !inner_group.is_done() {
                        std::hint::spin_loop();
                    }
                    done_in.store(true, Ordering::SeqCst);
                    TaskStatus::Done
                });
                spin_until(|| done.load(Ordering::SeqCst));
            },
        );
        assert_eq!(elsewhere.load(Ordering::SeqCst), 6);
        assert!(steals > 0, "the idle worker's loop must have taken batches");
        pool.shutdown();
    }

    #[test]
    fn a_parked_helper_wakes_when_its_groups_last_task_completes_elsewhere() {
        // The root task on one worker fans out one batch, waits until the
        // other worker is running it, then parks in `help_until` with
        // nothing to claim. Only the batch's completion can wake it.
        let pool = ExecPool::new(2);
        let handle = pool.handle();
        let (started, release, done) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (started_in, release_in, done_in) = (
            Arc::clone(&started),
            Arc::clone(&release),
            Arc::clone(&done),
        );
        let inner_handle = handle.clone();
        handle.spawn(TaskSpec::root(), move || {
            let group = inner_handle.group();
            let (started, release) = (Arc::clone(&started_in), Arc::clone(&release_in));
            inner_handle.spawn_in(&group, TaskSpec::batch(), move || {
                started.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                TaskStatus::Done
            });
            while !started_in.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            inner_handle.help_until(&group);
            done_in.store(true, Ordering::SeqCst);
            TaskStatus::Done
        });
        spin_until(|| started.load(Ordering::SeqCst));
        // Parking is not observable from here: the sleep makes a parked
        // root the likely case when the batch completes. A root that has
        // not parked yet finds the group done and passes too.
        std::thread::sleep(Duration::from_millis(50));
        release.store(true, Ordering::SeqCst);
        spin_until(|| done.load(Ordering::SeqCst));
        pool.shutdown();
    }

    #[test]
    fn a_task_spawned_while_every_worker_is_parked_runs() {
        let pool = ExecPool::new(2);
        let handle = pool.handle();
        for _ in 0..3 {
            // Idle long enough for both workers to park.
            std::thread::sleep(Duration::from_millis(20));
            let ran = Arc::new(AtomicBool::new(false));
            let ran_in = Arc::clone(&ran);
            handle.spawn(TaskSpec::root(), move || {
                ran_in.store(true, Ordering::SeqCst);
                TaskStatus::Done
            });
            spin_until(|| ran.load(Ordering::SeqCst));
        }
        pool.shutdown();
    }

    #[test]
    fn queued_tasks_never_exceeds_outstanding_tasks() {
        // Two spawners and two workers churn yielding tasks while a third
        // thread samples `queued_tasks()`. A task is counted as spawned
        // before it is queued and as finished after it left the queue, so
        // reading `finished`, then the queue, then `spawned` bounds the
        // sample by the tasks outstanding.
        const PER_SPAWNER: u64 = 2000;
        let pool = ExecPool::new(2);
        let handle = pool.handle();
        let spawned = Arc::new(AtomicU64::new(0));
        let finished = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (handle, spawned, finished, stop) = (
                handle.clone(),
                Arc::clone(&spawned),
                Arc::clone(&finished),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let f = finished.load(Ordering::SeqCst);
                    let queued = handle.queued_tasks() as u64;
                    let s = spawned.load(Ordering::SeqCst);
                    assert!(queued <= s - f, "{queued} queued, {} outstanding", s - f);
                }
            })
        };
        let spawners: Vec<_> = (0..2)
            .map(|_| {
                let (handle, spawned, finished) =
                    (handle.clone(), Arc::clone(&spawned), Arc::clone(&finished));
                std::thread::spawn(move || {
                    for i in 0..PER_SPAWNER {
                        let finished = Arc::clone(&finished);
                        let mut left = 1 + i % 3;
                        spawned.fetch_add(1, Ordering::SeqCst);
                        handle.spawn(TaskSpec::root(), move || {
                            left -= 1;
                            if left > 0 {
                                return TaskStatus::Yield;
                            }
                            finished.fetch_add(1, Ordering::SeqCst);
                            TaskStatus::Done
                        });
                    }
                })
            })
            .collect();
        for s in spawners {
            s.join().unwrap();
        }
        spin_until(|| finished.load(Ordering::SeqCst) == 2 * PER_SPAWNER);
        stop.store(true, Ordering::SeqCst);
        sampler
            .join()
            .expect("the sampled queue length stayed bounded");
        assert_eq!(handle.queued_tasks(), 0);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_tasks_inline() {
        let pool = ExecPool::new(0);
        let handle = pool.handle();
        let ran = Arc::new(AtomicU32::new(0));
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            let mut yielded = false;
            handle.spawn(TaskSpec::root(), move || {
                if !yielded {
                    yielded = true;
                    return TaskStatus::Yield;
                }
                ran.fetch_add(1, Ordering::SeqCst);
                TaskStatus::Done
            });
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        assert_eq!(handle.queued_tasks(), 0);
    }

    #[test]
    fn span_causality_survives_cross_worker_batches() {
        // The root session task occupies one of the two workers and spins
        // without helping, so every batch it spawned must run on the other
        // worker. Causality contract: those batch spans still parent to
        // the session span.
        spans::set_capacity(1024);
        spans::drain();
        spans::enable();
        let pool = ExecPool::new(2);
        let handle = pool.handle();
        let session_id = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let (sid_in, done_in) = (Arc::clone(&session_id), Arc::clone(&done));
        let inner_handle = handle.clone();
        handle.spawn(TaskSpec::root(), move || {
            let session = spans::begin(SpanKind::Session, SpanId::NONE);
            sid_in.store(spans::id_of(&session).raw(), Ordering::SeqCst);
            let prev = spans::set_current(spans::id_of(&session));
            let group = inner_handle.group();
            for _ in 0..6 {
                inner_handle.spawn_in(&group, TaskSpec::batch(), || {
                    let span = spans::begin(SpanKind::Batch, SpanId::NONE);
                    spans::finish(span);
                    TaskStatus::Done
                });
            }
            while !group.is_done() {
                std::hint::spin_loop();
            }
            spans::set_current(prev);
            spans::finish(session);
            done_in.store(true, Ordering::SeqCst);
            TaskStatus::Done
        });
        spin_until(|| done.load(Ordering::SeqCst));
        pool.shutdown();
        spans::disable();
        let records = spans::drain();
        let session = session_id.load(Ordering::SeqCst);
        assert_ne!(session, 0, "the session span must have been recorded");
        let batches: Vec<_> = records
            .iter()
            .filter(|r| r.kind == SpanKind::Batch)
            .collect();
        assert_eq!(batches.len(), 6, "every batch must record a span");
        for b in &batches {
            assert_eq!(
                b.parent, session,
                "a batch run on another worker must still parent to its session span"
            );
        }
    }

    #[test]
    fn current_is_none_off_pool_and_some_on_workers() {
        assert!(ExecPool::current().is_none());
        let pool = ExecPool::new(1);
        let handle = pool.handle();
        let saw = Arc::new(AtomicU32::new(0));
        let saw_in = Arc::clone(&saw);
        // Plain spawn + spin-wait: the test thread must not help, or the
        // task could run here (off-pool) instead of on the worker.
        handle.spawn(TaskSpec::root(), move || {
            let on_pool = ExecPool::current().is_some();
            saw_in.store(if on_pool { 1 } else { 2 }, Ordering::SeqCst);
            TaskStatus::Done
        });
        spin_until(|| saw.load(Ordering::SeqCst) != 0);
        assert_eq!(saw.load(Ordering::SeqCst), 1, "workers advertise the pool");
        pool.shutdown();
    }
}
