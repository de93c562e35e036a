//! `door_replay`: zipf-skewed multi-tenant traffic through the sharded
//! front door.
//!
//! A *pass* builds a fresh door and replays two fixed phases over it:
//!
//! * `paced` — **open loop**: one generator thread submits on a fixed
//!   schedule whatever the door's speed; every latency is taken from the
//!   request's *due* time, and how late the generator ran is reported.
//! * `saturated` — **closed loop**: the same thread keeps exactly `window`
//!   requests outstanding, which gives capacity with queues, coalescing and
//!   the degradation ladder engaged at a load that does not depend on how
//!   fast the code is.
//!
//! One observer thread per shard watches the admitted handles from outside:
//! it blocks in `wait_improvement(0, ..)` on the oldest session without a
//! first frontier (sessions get their first slice in admission order) and
//! sweeps the rest every tick for first frontiers and completions.
//!
//! Thread budget on the 2-vCPU reference host: 2 shard workers (the system
//! under test) + 1 generator + 2 mostly blocked observers.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use moqo_core::archive::ArchiveConfig;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{Budget, ConvergencePoint, Optimizer, PlanExchange};
use moqo_core::plan::PlanRef;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::{EpsFactors, TableSet};
use moqo_cost::resource::ResourceCostModel;
use moqo_frontdoor::{
    DegradationConfig, DegradeLevel, FrontDoor, FrontDoorConfig, FrontDoorStats, FrontRequest,
    FrontdoorError, QuotaConfig,
};
use moqo_obs::metrics::metrics;
use moqo_service::{
    AdmissionConfig, DoneReason, FrontierSnapshot, ServiceConfig, ServiceStats, SessionHandle,
    SessionStatus,
};
use moqo_workload::SessionPlan;

use crate::checks::check_frontier;
use crate::cost_wrap::CountingModel;
use crate::fixtures::{
    self, derive, door_fixture, door_spec, DoorFixture, DoorSpec, DOOR_SHARDS, DOOR_SHARD_CAP,
};
use crate::report::Outcome;
use crate::score::pick_cost_log10;
use crate::spans::Recorder;
use crate::stats::{mean, median, medians, ratio, tail};
use crate::{peak_rss_mb, timed_setup, verify_lock_or_exit, Args, PassClock};

/// The open-loop schedule: request `i` is due at `start + i / rate`.
#[derive(Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule of `rate` requests per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// How late a request due at `due` was actually sent at `sent` — zero
    /// when the generator was on time. Latencies are still taken from
    /// `due`, so a stall charges every request it delays.
    pub fn lateness(due: Instant, sent: Instant) -> Duration {
        sent.saturating_duration_since(due)
    }
}

/// The closed-loop window: at most `cap` requests outstanding.
pub struct Window {
    cap: usize,
    outstanding: usize,
    /// Largest number of requests ever outstanding at once.
    pub high_water: usize,
}

impl Window {
    /// An empty window of `cap` slots.
    pub fn new(cap: usize) -> Self {
        Window {
            cap,
            outstanding: 0,
            high_water: 0,
        }
    }

    /// Whether another request may be sent now.
    pub fn can_submit(&self) -> bool {
        self.outstanding < self.cap
    }

    /// A request was admitted.
    pub fn on_submit(&mut self) {
        debug_assert!(self.can_submit());
        self.outstanding += 1;
        self.high_water = self.high_water.max(self.outstanding);
    }

    /// A request completed.
    pub fn on_complete(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }
}

/// What a traced session's optimizer saw, filled in by [`TimedExchange`].
#[derive(Default)]
struct SessionTrace {
    first_step: Option<Instant>,
    last_end: Option<Instant>,
    /// Time inside `step`.
    busy: Duration,
    /// Time between steps, and from construction to the first step.
    waited: Duration,
    /// Time inside `absorb_plans` (the warm start, on `submit`'s path).
    absorb: Duration,
    steps: u64,
}

/// A timing `PlanExchange` adapter the traced run wraps around each `Rmq`:
/// every call the service makes is forwarded unchanged and timed.
struct TimedExchange<O> {
    inner: O,
    created: Instant,
    trace: Arc<Mutex<SessionTrace>>,
}

impl<O> TimedExchange<O> {
    fn note(&self, f: impl FnOnce(&mut SessionTrace)) {
        f(&mut self
            .trace
            .lock()
            .expect("trace lock is never held across a panic"));
    }
}

impl<O: PlanExchange> Optimizer for TimedExchange<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self) -> bool {
        let a = Instant::now();
        let more = self.inner.step();
        let b = Instant::now();
        let created = self.created;
        self.note(|t| {
            t.waited += a - t.last_end.unwrap_or(created);
            t.first_step.get_or_insert(a);
            t.busy += b - a;
            t.last_end = Some(b);
            t.steps += 1;
        });
        more
    }

    fn frontier(&self) -> Vec<PlanRef> {
        self.inner.frontier()
    }
}

impl<O: PlanExchange> PlanExchange for TimedExchange<O> {
    fn absorb_plans(&mut self, plans: &[PlanRef]) -> usize {
        let a = Instant::now();
        let n = self.inner.absorb_plans(plans);
        let spent = a.elapsed();
        self.note(|t| t.absorb += spent);
        n
    }
    fn export_plans(&self) -> Vec<PlanRef> {
        self.inner.export_plans()
    }
    fn fan_out(&self) -> usize {
        self.inner.fan_out()
    }
    fn set_effective_fan_out(&mut self, workers: usize) {
        self.inner.set_effective_fan_out(workers)
    }
    fn convergence(&self) -> Vec<ConvergencePoint> {
        self.inner.convergence()
    }
    fn sample_convergence_now(&mut self) {
        self.inner.sample_convergence_now()
    }
}

/// How `submit` answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Admission {
    Fresh { degraded: bool },
    Coalesced,
    Shed,
}

/// Everything known about one request once its phase has ended.
struct Record {
    tenant: u64,
    query: TableSet,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    admission: Admission,
    shard: usize,
    handle: Option<SessionHandle>,
    trace: Option<Arc<Mutex<SessionTrace>>>,
    first_frontier: Option<Instant>,
    done: Option<Instant>,
    last: Option<FrontierSnapshot>,
}

/// A handle an observer is watching.
struct Watched {
    idx: usize,
    handle: SessionHandle,
    first_frontier: Option<Instant>,
}

/// What an observer reports about a finished session.
struct Observed {
    idx: usize,
    first_frontier: Option<Instant>,
    done: Instant,
    last: FrontierSnapshot,
}

/// How often an observer sweeps the handles it is not blocked on.
const TICK: Duration = Duration::from_micros(500);
/// An unfinished session this long after its phase's last submit has failed.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// One shard's observer: watches handles in admission order until the
/// generator hangs up and every watched session is done (or timed out).
fn observe(rx: mpsc::Receiver<Watched>, done_tx: mpsc::Sender<usize>) -> Vec<Observed> {
    let mut watching: VecDeque<Watched> = VecDeque::new();
    let mut finished = Vec::new();
    let mut hung_up_at: Option<Instant> = None;
    loop {
        loop {
            match rx.try_recv() {
                Ok(w) => watching.push_back(w),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    hung_up_at.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        if watching.is_empty() {
            if hung_up_at.is_some() {
                return finished;
            }
            match rx.recv_timeout(TICK) {
                Ok(w) => watching.push_back(w),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return finished,
            }
        }
        if hung_up_at.is_some_and(|t| t.elapsed() > PHASE_TIMEOUT) {
            return finished;
        }
        // Block on the oldest session still without a frontier: its first
        // improvement wakes this thread at once. With none, block on the
        // oldest session's completion instead.
        match watching.iter_mut().find(|w| w.first_frontier.is_none()) {
            Some(w) => {
                if let Some(snap) = w.handle.wait_improvement(0, TICK) {
                    if snap.epoch > 0 {
                        w.first_frontier = Some(Instant::now());
                    }
                }
            }
            None => {
                if let Some(w) = watching.front() {
                    w.handle.wait_done(TICK);
                }
            }
        }
        let now = Instant::now();
        let mut i = 0;
        while i < watching.len() {
            let w = &mut watching[i];
            if w.first_frontier.is_none()
                && w.handle
                    .wait_improvement(0, Duration::ZERO)
                    .is_some_and(|s| s.epoch > 0)
            {
                w.first_frontier = Some(now);
            }
            if w.handle.status().is_done() {
                let w = watching.remove(i).expect("index in range");
                // The generator may have given up on the phase already.
                let _ = done_tx.send(w.idx);
                finished.push(Observed {
                    idx: w.idx,
                    first_frontier: w.first_frontier,
                    done: now,
                    last: w.handle.snapshot(),
                });
            } else {
                i += 1;
            }
        }
    }
}

/// The two load shapes of a pass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Paced,
    Saturated,
}

/// A phase's requests and its wall time (first submit → last completion).
struct PhaseRun {
    records: Vec<Record>,
    wall: Duration,
    window_high_water: usize,
}

/// The model a session is built over: plain, or counting in traced passes.
#[derive(Clone)]
enum Model {
    Plain(Arc<ResourceCostModel>),
    Counting(CountingModel<Arc<ResourceCostModel>>),
}

fn boxed<M: CostModel + Send + 'static>(
    model: M,
    query: TableSet,
    cfg: RmqConfig,
    trace: Option<&Arc<Mutex<SessionTrace>>>,
) -> Box<dyn PlanExchange> {
    let created = Instant::now();
    let rmq = Rmq::new(model, query, cfg);
    match trace {
        Some(trace) => Box::new(TimedExchange {
            inner: rmq,
            created,
            trace: Arc::clone(trace),
        }),
        None => Box::new(rmq),
    }
}

fn run_phase(
    door: &FrontDoor,
    fixture: &DoorFixture,
    spec: &DoorSpec,
    phase: Phase,
    model: &Model,
    seed_base: u64,
) -> PhaseRun {
    let stream: &[SessionPlan] = match phase {
        Phase::Paced => &fixture.paced,
        Phase::Saturated => &fixture.saturated,
    };
    let traced = matches!(model, Model::Counting(_));
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    let mut records: Vec<Record> = Vec::with_capacity(stream.len());
    let mut window = Window::new(match phase {
        Phase::Paced => usize::MAX,
        Phase::Saturated => spec.window,
    });
    let start = Instant::now();
    let schedule = Schedule::new(start, spec.paced_rate);
    let mut last_done = start;
    let observed: Vec<Observed> = std::thread::scope(|scope| {
        let mut to_observer = Vec::new();
        let mut observers = Vec::new();
        for _ in 0..door.shards() {
            let (tx, rx) = mpsc::channel::<Watched>();
            let done_tx = done_tx.clone();
            to_observer.push(tx);
            observers.push(scope.spawn(move || observe(rx, done_tx)));
        }
        drop(done_tx);
        for (idx, plan) in stream.iter().enumerate() {
            let due = match phase {
                Phase::Paced => {
                    let due = schedule.due(idx);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                Phase::Saturated => {
                    while !window.can_submit() {
                        match done_rx.recv_timeout(PHASE_TIMEOUT) {
                            Ok(_) => window.on_complete(),
                            Err(_) => break,
                        }
                    }
                    Instant::now()
                }
            };
            let query = plan.query.tables();
            let trace = traced.then(|| Arc::new(Mutex::new(SessionTrace::default())));
            let cfg_seed = derive(seed_base, idx as u64);
            let submit_start = Instant::now();
            let answer = door.submit(
                FrontRequest {
                    tenant: plan.tenant,
                    query,
                    context: fixture.context,
                    budget: Budget::Iterations(spec.iterations),
                },
                |grant| {
                    let mut cfg = RmqConfig::seeded(cfg_seed);
                    if let Some(eps) = grant.eps {
                        cfg.archive = ArchiveConfig::eps_box(EpsFactors::uniform(eps));
                    }
                    match model {
                        Model::Plain(m) => boxed(Arc::clone(m), query, cfg, trace.as_ref()),
                        Model::Counting(m) => boxed(m.clone(), query, cfg, trace.as_ref()),
                    }
                },
            );
            let submit_end = Instant::now();
            let mut record = Record {
                tenant: plan.tenant,
                query,
                due,
                submit_start,
                submit_end,
                admission: Admission::Shed,
                shard: 0,
                handle: None,
                trace: None,
                first_frontier: None,
                done: None,
                last: None,
            };
            match answer {
                Ok(admitted) => {
                    record.admission = if admitted.coalesced {
                        Admission::Coalesced
                    } else {
                        Admission::Fresh {
                            degraded: admitted.grant.level != DegradeLevel::Full,
                        }
                    };
                    record.shard = admitted.shard;
                    record.trace = trace.filter(|_| !admitted.coalesced);
                    record.handle = Some(admitted.handle.clone());
                    window.on_submit();
                    // Observers only hang up after the generator does.
                    let _ = to_observer[admitted.shard].send(Watched {
                        idx,
                        handle: admitted.handle,
                        first_frontier: None,
                    });
                }
                Err(FrontdoorError::QuotaExhausted { .. } | FrontdoorError::Saturated(_)) => {}
            }
            records.push(record);
        }
        drop(to_observer);
        observers
            .into_iter()
            .flat_map(|o| o.join().expect("observer thread never panics"))
            .collect()
    });
    for o in observed {
        last_done = last_done.max(o.done);
        let r = &mut records[o.idx];
        r.first_frontier = o.first_frontier;
        r.done = Some(o.done);
        r.last = Some(o.last);
    }
    PhaseRun {
        records,
        wall: last_done - start,
        window_high_water: window.high_water,
    }
}

fn door_config() -> FrontDoorConfig {
    FrontDoorConfig {
        shards: DOOR_SHARDS,
        shard: ServiceConfig {
            workers: 1,
            admission: AdmissionConfig {
                max_live_sessions: DOOR_SHARD_CAP,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
        // Quotas on, but sized never to trip: the bucket is on the path,
        // no request is shed by it.
        quota: QuotaConfig {
            burst: 1_000_000,
            refill_per_sec: 1_000_000.0,
        },
        degradation: DegradationConfig::default(),
    }
}

/// Requests pushed through a throw-away door during set-up.
const WARMUP_REQUESTS: usize = 16;

/// Generates the traffic, checks it against the lock, and serves a few
/// requests on a throw-away door (thread spawn, lazy statics, first-touch
/// page faults).
fn setup(args: &Args) -> DoorFixture {
    let fixture = door_fixture(args.seed, args.smoke);
    verify_lock_or_exit(args, &fixtures::door_lock_lines(&fixture));
    let door = FrontDoor::new(door_config());
    for plan in fixture.paced.iter().take(WARMUP_REQUESTS) {
        let query = plan.query.tables();
        let warm = door.submit(
            FrontRequest {
                tenant: plan.tenant,
                query,
                context: fixture.context,
                budget: Budget::Iterations(door_spec(args.smoke).iterations),
            },
            |_| {
                boxed(
                    Arc::clone(&fixture.model),
                    query,
                    RmqConfig::seeded(fixture.rmq_seed),
                    None,
                )
            },
        );
        if let Ok(admitted) = warm {
            admitted.handle.wait_done(Duration::from_secs(10));
        }
    }
    door.shutdown();
    fixture
}

/// One pass: a fresh door, the paced phase, then the saturated phase.
struct Pass {
    paced: PhaseRun,
    saturated: PhaseRun,
    door: FrontDoorStats,
    shards: Vec<ServiceStats>,
    traced: bool,
}

fn run_pass(fixture: &DoorFixture, spec: &DoorSpec, model: &Model, pass: u32) -> Pass {
    let door = FrontDoor::new(door_config());
    let seed = derive(fixture.rmq_seed, u64::from(pass));
    let paced = run_phase(&door, fixture, spec, Phase::Paced, model, derive(seed, 1));
    let saturated = run_phase(
        &door,
        fixture,
        spec,
        Phase::Saturated,
        model,
        derive(seed, 2),
    );
    let stats = door.stats();
    let shards = door.shard_stats();
    door.shutdown();
    Pass {
        paced,
        saturated,
        door: stats,
        shards,
        traced: matches!(model, Model::Counting(_)),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the correctness checks of one phase and counts its operations.
fn check_phase(
    outcome: &mut Outcome,
    fixture: &DoorFixture,
    run: &PhaseRun,
    label: &str,
    scores: &mut Vec<f64>,
) {
    // Leaders by (shard, session id): a coalesced handle is a clone of one.
    let mut leaders: HashMap<(usize, u64), usize> = HashMap::new();
    for (i, r) in run.records.iter().enumerate() {
        if let (Admission::Fresh { .. }, Some(h)) = (r.admission, &r.handle) {
            leaders.insert((r.shard, h.id().0), i);
        }
    }
    for (i, r) in run.records.iter().enumerate() {
        outcome.attempted += 1;
        let mut problems = Vec::new();
        match (&r.admission, &r.last) {
            (Admission::Shed, _) => problems.push("shed".to_string()),
            (_, None) => problems.push("timed out".to_string()),
            (admission, Some(last)) => {
                if last.status != SessionStatus::Done(DoneReason::BudgetExhausted) {
                    problems.push(format!("ended as {:?}", last.status));
                }
                if last.plans.is_empty() || r.first_frontier.is_none() {
                    problems.push("empty frontier".to_string());
                } else {
                    scores.push(pick_cost_log10(last.plans.iter().map(|p| p.cost())));
                }
                problems.extend(check_frontier(&last.plans, &*fixture.model, r.query));
                if *admission == Admission::Coalesced {
                    let leader = r
                        .handle
                        .as_ref()
                        .and_then(|h| leaders.get(&(r.shard, h.id().0)))
                        .and_then(|&l| run.records[l].last.as_ref());
                    let same = leader.is_some_and(|l| {
                        l.epoch == last.epoch
                            && l.steps == last.steps
                            && l.plans.len() == last.plans.len()
                            && l.plans
                                .iter()
                                .zip(&last.plans)
                                .all(|(a, b)| Arc::ptr_eq(a, b))
                    });
                    if !same {
                        problems.push("coalesced handle disagrees with its leader".to_string());
                    }
                }
            }
        }
        if !problems.is_empty() {
            outcome.fail(format!(
                "{label} request {i} (tenant {}): {}",
                r.tenant,
                problems.join("; ")
            ));
        }
    }
}

/// Entry point.
pub fn run(args: &Args) -> Outcome {
    let spec = door_spec(args.smoke);
    let (fixture, setup_s) = timed_setup(args, || setup(args));
    let plain = Model::Plain(Arc::clone(&fixture.model));
    let counting = CountingModel::new(Arc::clone(&fixture.model));
    let m = metrics();
    let before = (
        m.climb_candidates.get(),
        m.rmq_iterations.get(),
        m.spans_dropped.get(),
    );
    let mut outcome = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let clock = PassClock::start(args);
    // A traced run alternates traced and untraced passes (at least two of
    // each, so neither side is only the cold first pass; one of each in a
    // smoke run): the untraced capacity is what `obs.trace_overhead_share`
    // compares the traced to.
    let least = if args.smoke { 2 } else { 4 };
    while clock.another(passes.len() as u32) || (args.trace && passes.len() < least) {
        let model = if args.trace && passes.len() % 2 == 0 {
            Model::Counting(counting.clone())
        } else {
            plain.clone()
        };
        passes.push(run_pass(&fixture, &spec, &model, passes.len() as u32));
    }
    let mut scores = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        check_phase(
            &mut outcome,
            &fixture,
            &pass.paced,
            &format!("pass {p} paced"),
            &mut scores,
        );
        check_phase(
            &mut outcome,
            &fixture,
            &pass.saturated,
            &format!("pass {p} saturated"),
            &mut scores,
        );
        if pass.saturated.window_high_water > spec.window {
            outcome.fail(format!("pass {p}: closed-loop window overran"));
        }
    }
    let since =
        |from: Instant, to: Option<Instant>| to.map(|t| ms(t.saturating_duration_since(from)));
    if args.trace {
        report_layers(args, &mut outcome, &passes, &spec, &counting, before);
        return outcome;
    }
    // Median over passes per operation, as in `seq.rs`: request slot `i` of
    // the paced phase is the same request against the same door history in
    // every pass.
    let mut ttff = vec![Vec::new(); spec.paced_requests];
    let mut latency = vec![Vec::new(); spec.paced_requests];
    for pass in &passes {
        for (i, r) in pass.paced.records.iter().enumerate() {
            ttff[i].extend(since(r.due, r.first_frontier));
            latency[i].extend(since(r.due, r.done));
        }
    }
    let (ttff, latency) = (medians(&ttff), medians(&latency));
    let per_pass = |get: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(get).collect::<Vec<_>>());
    outcome.set("setup_s", setup_s);
    outcome.set(
        "iters_per_s",
        per_pass(&|p| {
            ratio(
                fresh_steps(&p.saturated) as f64,
                p.saturated.wall.as_secs_f64(),
            )
        }),
    );
    outcome.set("sessions_per_s", per_pass(&capacity));
    outcome.set("ttff_p50_ms", median(&ttff));
    let (ttff_tail, pct) = tail(&ttff);
    outcome.set("ttff_tail_ms", ttff_tail);
    outcome.set("latency_p50_ms", median(&latency));
    outcome.set("pick_cost_log10", mean(&scores));
    outcome.set("peak_rss_mb", peak_rss_mb());
    let late: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.paced.records)
        .map(|r| ms(Schedule::lateness(r.due, r.submit_start)))
        .collect();
    outcome.notes.push(format!(
        "median of {} passes; paced: {} requests at {}/s open loop, ttff {} operations, tail = p{:.1}, generator late by p50 {:.3} ms / max {:.3} ms; saturated: {} requests, closed loop of {}",
        passes.len(),
        spec.paced_requests,
        spec.paced_rate,
        ttff.len(),
        pct * 100.0,
        median(&late),
        late.iter().copied().fold(0.0, f64::max),
        spec.saturated_requests,
        spec.window,
    ));
    outcome
}

/// Completed requests per second of the saturated phase.
fn capacity(pass: &Pass) -> f64 {
    let completed = pass
        .saturated
        .records
        .iter()
        .filter(|r| r.done.is_some())
        .count();
    ratio(completed as f64, pass.saturated.wall.as_secs_f64())
}

/// Optimizer steps of the sessions a phase ran (coalesced requests ran none
/// of their own).
fn fresh_steps(run: &PhaseRun) -> u64 {
    run.records
        .iter()
        .filter(|r| matches!(r.admission, Admission::Fresh { .. }))
        .filter_map(|r| r.last.as_ref())
        .map(|l| l.steps)
        .sum()
}

fn report_layers(
    args: &Args,
    outcome: &mut Outcome,
    passes: &[Pass],
    spec: &DoorSpec,
    counting: &CountingModel<Arc<ResourceCostModel>>,
    before: (u64, u64, u64),
) {
    let m = metrics();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let reference: Vec<f64> = passes.iter().filter(|p| !p.traced).map(capacity).collect();
    let traced_capacity: Vec<f64> = traced.iter().map(|p| capacity(p)).collect();
    outcome.set(
        "obs.trace_overhead_share",
        ratio(median(&reference), median(&traced_capacity)) - 1.0,
    );
    outcome.set(
        "obs.spans_dropped",
        (m.spans_dropped.get() - before.2) as f64,
    );
    outcome.set(
        "core.climb.candidates_per_iter",
        ratio(
            (m.climb_candidates.get() - before.0) as f64,
            (m.rmq_iterations.get() - before.1) as f64,
        ),
    );
    let paced = || traced.iter().flat_map(|p| &p.paced.records);
    let all = || {
        traced
            .iter()
            .flat_map(|p| p.paced.records.iter().chain(&p.saturated.records))
    };
    let submit = |r: &Record| ms(r.submit_end - r.submit_start);
    let submit_paced: Vec<f64> = paced().map(submit).collect();
    outcome.set("frontdoor.submit_p50_ms", median(&submit_paced));
    outcome.set("frontdoor.submit_tail_ms", tail(&submit_paced).0);
    let by = |want: fn(&Admission) -> bool| -> Vec<f64> {
        all().filter(|r| want(&r.admission)).map(submit).collect()
    };
    outcome.set(
        "frontdoor.submit_fresh_p50_ms",
        median(&by(|a| matches!(a, Admission::Fresh { .. }))),
    );
    outcome.set(
        "frontdoor.submit_coalesced_p50_ms",
        median(&by(|a| *a == Admission::Coalesced)),
    );
    let door =
        |get: fn(&FrontDoorStats) -> u64| traced.iter().map(|p| get(&p.door)).sum::<u64>() as f64;
    let offered = door(|d| d.offered);
    outcome.set(
        "frontdoor.coalesce_share",
        ratio(door(|d| d.coalesced), offered),
    );
    outcome.set(
        "frontdoor.degraded_share",
        ratio(door(|d| d.degraded), door(|d| d.admitted)),
    );
    outcome.set("frontdoor.shed_share", ratio(door(|d| d.shed), offered));
    outcome.set(
        "frontdoor.quota_reject_share",
        ratio(door(|d| d.quota_rejected), offered),
    );
    let late: Vec<f64> = paced()
        .map(|r| ms(Schedule::lateness(r.due, r.submit_start)))
        .collect();
    outcome.set("frontdoor.gen_late_tail_ms", tail(&late).0);
    // The adapter's view: what each session's optimizer waited and worked.
    let snapshot = |r: &Record| {
        r.trace.as_ref().map(|t| {
            let t = t.lock().expect("trace lock is never held across a panic");
            (
                t.waited.saturating_sub(t.absorb),
                t.busy,
                t.steps,
                t.first_step,
                t.last_end,
            )
        })
    };
    let waits: Vec<f64> = paced()
        .filter_map(snapshot)
        .map(|(waited, ..)| ms(waited))
        .collect();
    outcome.set("service.queue_wait_p50_ms", median(&waits));
    outcome.set("service.queue_wait_tail_ms", tail(&waits).0);
    let (mut busy, mut steps, mut wall) = (0.0, 0u64, 0.0);
    for p in &traced {
        wall += p.saturated.wall.as_secs_f64();
        for (_, b, s, ..) in p.saturated.records.iter().filter_map(snapshot) {
            busy += b.as_secs_f64();
            steps += s;
        }
    }
    outcome.set(
        "service.step_busy_share",
        ratio(busy, wall * DOOR_SHARDS as f64),
    );
    outcome.set("service.steps_per_s", ratio(steps as f64, wall));
    let shards = || traced.iter().flat_map(|p| &p.shards);
    outcome.set(
        "service.cache_hit_rate",
        ratio(
            shards().map(|s| s.cache.hits).sum::<u64>() as f64,
            shards().map(|s| s.cache.lookups).sum::<u64>() as f64,
        ),
    );
    let warm: Vec<f64> = all()
        .filter(|r| matches!(r.admission, Admission::Fresh { .. }))
        .filter_map(|r| r.handle.as_ref())
        .map(|h| h.absorbed_plans() as f64)
        .collect();
    outcome.set("service.warm_plans_per_session", mean(&warm));
    outcome.set(
        "service.ttff_reported_p99_ms",
        shards()
            .filter_map(|s| s.ttff_p99)
            .map(ms)
            .fold(0.0, f64::max),
    );
    outcome.set(
        "service.tt90_p50_ms",
        median(
            &shards()
                .filter_map(|s| s.tt90_p50)
                .map(ms)
                .collect::<Vec<_>>(),
        ),
    );
    let frontier_sizes: Vec<f64> = all()
        .filter_map(|r| r.last.as_ref())
        .map(|l| l.plans.len() as f64)
        .collect();
    outcome.set("core.rmq.frontier_size", median(&frontier_sizes));
    let session_steps: u64 = traced
        .iter()
        .map(|p| fresh_steps(&p.paced) + fresh_steps(&p.saturated))
        .sum();
    let ns_per_call = counting.ns_per_call(Duration::from_millis(20));
    let session_busy: f64 = all()
        .filter_map(snapshot)
        .map(|(_, b, ..)| b.as_secs_f64())
        .sum();
    outcome.set(
        "cost.calls_per_iter",
        ratio(counting.calls() as f64, session_steps as f64),
    );
    outcome.set("cost.ns_per_call", ns_per_call);
    outcome.set(
        "cost.time_share",
        ratio(counting.calls() as f64 * ns_per_call / 1e9, session_busy),
    );
    // Spans: request ⊃ {generator lateness, submit, session run}.
    let mut rec = Recorder::new();
    for (n, r) in all().enumerate() {
        let request = n as u64;
        let Some(done) = r.done else { continue };
        let root = rec.record("frontdoor.request", r.due, done, None, request);
        rec.record("generator.late", r.due, r.submit_start, Some(root), request);
        rec.record(
            "frontdoor.submit",
            r.submit_start,
            r.submit_end,
            Some(root),
            request,
        );
        if let Some((.., Some(first), Some(last))) = snapshot(r) {
            rec.record("service.session", first, last, Some(root), request);
        }
    }
    outcome.notes.push(format!(
        "{} traced passes alternating with {} untraced; paced {} + saturated {} requests per pass; {} spans",
        traced.len(),
        passes.len() - traced.len(),
        spec.paced_requests,
        spec.saturated_requests,
        rec.len()
    ));
    if let Err(e) = rec.write_trace(args.workload.name()) {
        outcome.notes.push(format!("trace not written: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_due_times_and_lateness() {
        let start = Instant::now();
        let s = Schedule::new(start, 40.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(4) - start, Duration::from_millis(100));
        // On time or early: no lateness. A stalled generator is late by the
        // stall, and the latency clock still starts at the due time.
        assert_eq!(Schedule::lateness(s.due(2), s.due(2)), Duration::ZERO);
        assert_eq!(Schedule::lateness(s.due(2), s.due(1)), Duration::ZERO);
        let sent = s.due(2) + Duration::from_millis(7);
        assert_eq!(Schedule::lateness(s.due(2), sent), Duration::from_millis(7));
    }

    #[test]
    fn closed_loop_window_bookkeeping() {
        let mut w = Window::new(3);
        for _ in 0..3 {
            assert!(w.can_submit());
            w.on_submit();
        }
        assert!(!w.can_submit());
        assert_eq!(w.outstanding, 3);
        w.on_complete();
        assert!(w.can_submit());
        w.on_submit();
        assert_eq!(w.high_water, 3);
        for _ in 0..5 {
            w.on_complete();
        }
        assert_eq!(w.outstanding, 0, "completions never go negative");
        assert_eq!(w.high_water, 3);
    }

    #[test]
    fn timed_exchange_forwards_and_times() {
        use moqo_core::model::testing::StubModel;
        let model = Arc::new(StubModel::line(5, 2, 9));
        let query = TableSet::prefix(5);
        let trace = Arc::new(Mutex::new(SessionTrace::default()));
        let mut plain = Rmq::new(Arc::clone(&model), query, RmqConfig::seeded(4));
        let mut timed = boxed(model, query, RmqConfig::seeded(4), Some(&trace));
        for _ in 0..10 {
            plain.step();
            timed.step();
        }
        assert!(crate::checks::identical(
            &plain.frontier(),
            &timed.frontier()
        ));
        let t = trace.lock().unwrap();
        assert_eq!(t.steps, 10);
        assert!(t.busy > Duration::ZERO && t.first_step.is_some());
    }
}
