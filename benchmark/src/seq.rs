//! `seq_paper` and `seq_manyobj`: sequential `Rmq` on fixed (query, seed)
//! fixtures.
//!
//! A *pass* runs every fixture once for its fixed iteration count; passes
//! repeat while measuring time remains. Every timing is first reduced to
//! its median over the passes of one operation and only then combined
//! across operations, so a run's composition never depends on how fast the
//! code is.
//!
//! The traced run adds a stage-by-stage replica of the RMQ loop built from
//! the public arena entry points. It consumes the same RNG stream and
//! admission schedule as `Rmq::iterate` and must end on a bit-identical
//! frontier, so its stage times attribute the code the optimizer executes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use moqo_core::arena::PlanArena;
use moqo_core::cache::PlanCache;
use moqo_core::climb::{pareto_climb_in, StepScratch};
use moqo_core::frontier::{approximate_frontiers_in, FrontierScratch};
use moqo_core::fxhash::FxHashMap;
use moqo_core::model::CostModel;
use moqo_core::pareto::ScreenCounters;
use moqo_core::plan::PlanRef;
use moqo_core::random_plan::random_plan_in;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::PlanId;
use moqo_cost::resource::ResourceCostModel;
use moqo_obs::metrics::metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::{check_frontier, identical};
use crate::cost_wrap::CountingModel;
use crate::fixtures::{self, derive, seq_fixtures, seq_spec, SeqFixture};
use crate::report::Outcome;
use crate::score::pick_cost_log10;
use crate::spans::Recorder;
use crate::stats::{mean, median, medians, ratio, tail};
use crate::{peak_rss_mb, timed_setup, verify_lock_or_exit, Args, PassClock, Workload};

/// Share of the iteration budget after which the on-the-fly quality target
/// of `tt_target_ms` is read off the run itself.
pub const TARGET_SHARE: u64 = 4;

/// Warm-up iterations per fixture during set-up.
const WARMUP_ITERATIONS: u32 = 25;

/// Generates the fixtures, checks them against the lock, and warms every
/// fixture up for a few iterations (first-touch page faults, lazy statics,
/// branch predictors).
pub fn setup(args: &Args) -> Vec<SeqFixture> {
    let fixtures = seq_fixtures(args.workload, args.seed, args.smoke);
    verify_lock_or_exit(args, &fixtures::seq_lock_lines(args.workload, &fixtures));
    for f in &fixtures {
        let mut rmq = Rmq::new(&f.model, f.query, RmqConfig::seeded(f.rmq_seed));
        for _ in 0..WARMUP_ITERATIONS {
            rmq.iterate();
        }
    }
    fixtures
}

fn score_of<M: CostModel>(rmq: &Rmq<M>) -> f64 {
    rmq.frontier_set()
        .map_or(f64::INFINITY, |s| pick_cost_log10(s.costs()))
}

/// The running frontier's score after `iterations` of a sequential run —
/// the on-the-fly target definition, also used by `par_fanout`.
pub fn reference_score(f: &SeqFixture, iterations: u64) -> f64 {
    let mut rmq = Rmq::new(&f.model, f.query, RmqConfig::seeded(f.rmq_seed));
    for _ in 0..iterations {
        rmq.iterate();
    }
    score_of(&rmq)
}

/// One timed optimization run.
struct RunSample {
    /// Seconds inside `Rmq::iterate`.
    iterate_s: f64,
    /// Seconds from before `Rmq::new` to the end of the last iteration.
    wall_s: f64,
    /// `Rmq::new` → first non-empty frontier, in ms.
    ttff_ms: f64,
    /// End of iteration `i` (1-based, index `i - 1`), ns after `Rmq::new`.
    ends_ns: Vec<u64>,
    /// Duration of each `iterate` call, µs.
    iter_us: Vec<f64>,
    /// Iteration at which the target was reached.
    reached: Option<u64>,
    /// The target score.
    target: f64,
    /// Score of the final frontier.
    final_score: f64,
}

/// Runs one fixture, scoring the running frontier after every iteration
/// until it reaches `goal`. Without a goal (first pass of a seed with no
/// frozen target) the goal becomes the run's own score at
/// `iterations / TARGET_SHARE`; later passes are handed that score, reach
/// it at the same iteration (the trajectory is deterministic) and so pay
/// the same scoring overhead.
fn run_one<'m, M: CostModel>(
    model: &'m M,
    f: &SeqFixture,
    mut goal: Option<f64>,
) -> (RunSample, Rmq<&'m M>) {
    let mark = (f.iterations / TARGET_SHARE).max(1);
    let mut reached = None;
    let mut trajectory = Vec::new();
    let mut ends_ns = Vec::with_capacity(f.iterations as usize);
    let mut iter_us = Vec::with_capacity(f.iterations as usize);
    let mut iterate = Duration::ZERO;
    let mut ttff_ms = 0.0;
    let born = Instant::now();
    let mut rmq = Rmq::new(model, f.query, RmqConfig::seeded(f.rmq_seed));
    for i in 1..=f.iterations {
        let a = Instant::now();
        rmq.iterate();
        let b = Instant::now();
        iterate += b - a;
        iter_us.push((b - a).as_secs_f64() * 1e6);
        ends_ns.push((b - born).as_nanos() as u64);
        if i == 1 {
            ttff_ms = (b - born).as_secs_f64() * 1e3;
        }
        if reached.is_none() {
            let s = score_of(&rmq);
            match goal {
                Some(g) if s <= g => reached = Some(i),
                Some(_) => {}
                None => {
                    trajectory.push(s);
                    if i == mark {
                        goal = Some(s);
                        reached = trajectory
                            .iter()
                            .position(|&t| t <= s)
                            .map(|p| p as u64 + 1);
                    }
                }
            }
        }
    }
    let wall_s = born.elapsed().as_secs_f64();
    let sample = RunSample {
        iterate_s: iterate.as_secs_f64(),
        wall_s,
        ttff_ms,
        ends_ns,
        iter_us,
        reached,
        target: goal.unwrap_or(f64::INFINITY),
        final_score: score_of(&rmq),
    };
    (sample, rmq)
}

/// `Rmq::new` plus one iteration under a derived seed: one more
/// time-to-first-frontier sample, in ms.
fn ttff_sample<M: CostModel>(model: &M, f: &SeqFixture, j: u64) -> f64 {
    let born = Instant::now();
    let mut rmq = Rmq::new(
        model,
        f.query,
        RmqConfig::seeded(derive(f.rmq_seed, 0x77ff + j)),
    );
    rmq.iterate();
    let ms = born.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&rmq);
    ms
}

/// Per-pass timings of every operation. Each timed operation is
/// deterministic work repeated once per pass; it is reduced to its median
/// over the passes before operations are combined, so a burst of
/// interference on a shared host moves one sample of an operation, not the
/// operation.
struct Measured {
    passes: u32,
    /// Seconds inside `Rmq::iterate`, per fixture and pass.
    iterate_s: Vec<Vec<f64>>,
    /// Seconds from `Rmq::new` to the last iteration, per fixture and pass.
    wall_s: Vec<Vec<f64>>,
    /// Time to first frontier per (fixture, seed slot) and pass, ms; slot 0
    /// of a fixture is its main run.
    ttff_ms: Vec<Vec<f64>>,
    /// Time to the quality target per fixture and pass, ms.
    tt_target_ms: Vec<Vec<f64>>,
    /// Duration of every iteration of every pass, µs.
    iter_us: Vec<f64>,
    final_scores: Vec<f64>,
}

/// What [`measure`] calls after every finished run: pass, fixture index, the
/// live optimizer, and the outcome to report failures into.
type AfterRun<'a> = dyn FnMut(u32, usize, &Rmq<&ResourceCostModel>, &mut Outcome) + 'a;

/// Runs passes over `fixtures` while measuring time remains. `extra` sees
/// every finished run with its live optimizer (the traced run hangs its
/// replica and A/B runs there).
fn measure(
    args: &Args,
    fixtures: &[SeqFixture],
    outcome: &mut Outcome,
    extra: &mut AfterRun<'_>,
) -> Measured {
    let spec = seq_spec(args.workload, args.smoke);
    let n = fixtures.len();
    let slots = 1 + spec.ttff_extra;
    let mut m = Measured {
        passes: 0,
        iterate_s: vec![Vec::new(); n],
        wall_s: vec![Vec::new(); n],
        ttff_ms: vec![Vec::new(); n * slots],
        tt_target_ms: vec![Vec::new(); n],
        iter_us: Vec::new(),
        final_scores: vec![f64::INFINITY; n],
    };
    let mut goals: Vec<Option<f64>> = fixtures
        .iter()
        .map(|f| {
            args.frozen()
                .then(|| fixtures::frozen_target(args.workload, &f.name))
                .flatten()
        })
        .collect();
    let clock = PassClock::start(args);
    while clock.another(m.passes) {
        for (x, f) in fixtures.iter().enumerate() {
            outcome.attempted += 1;
            let what = format!("{} pass {}", f.name, m.passes);
            let Some((sample, rmq)) = outcome.guarded(&what, || run_one(&f.model, f, goals[x]))
            else {
                continue;
            };
            let mut problems = Vec::new();
            match sample.reached {
                Some(k) => m.tt_target_ms[x].push(sample.ends_ns[k as usize - 1] as f64 / 1e6),
                None => problems.push(format!(
                    "target {:.4} not reached (final {:.4})",
                    sample.target, sample.final_score
                )),
            }
            if m.passes == 0 {
                goals[x] = Some(sample.target);
                m.final_scores[x] = sample.final_score;
                problems.extend(check_frontier(&rmq.frontier(), &f.model, f.query));
            } else if sample.final_score.to_bits() != m.final_scores[x].to_bits() {
                problems.push("final frontier differs between passes".to_string());
            }
            if !problems.is_empty() {
                outcome.fail(format!("{what}: {}", problems.join("; ")));
            }
            m.iterate_s[x].push(sample.iterate_s);
            m.wall_s[x].push(sample.wall_s);
            m.ttff_ms[x * slots].push(sample.ttff_ms);
            m.iter_us.extend(sample.iter_us);
            extra(m.passes, x, &rmq, outcome);
            drop(rmq);
            for j in 0..spec.ttff_extra {
                if let Some(ms) = outcome.guarded(&what, || ttff_sample(&f.model, f, j as u64)) {
                    m.ttff_ms[x * slots + 1 + j].push(ms);
                }
            }
        }
        m.passes += 1;
    }
    m
}

/// Entry point of both sequential workloads.
pub fn run(args: &Args) -> Outcome {
    let (fixtures, setup_s) = timed_setup(args, || setup(args));
    if args.trace {
        return traced(args, &fixtures);
    }
    let mut outcome = Outcome::default();
    let m = measure(args, &fixtures, &mut outcome, &mut |_, _, _, _| {});
    let iterations: u64 = fixtures.iter().map(|f| f.iterations).sum();
    let ttff = medians(&m.ttff_ms);
    let (ttff_tail, pct) = tail(&ttff);
    let wall_s = medians(&m.wall_s);
    let latency_ms: Vec<f64> = wall_s.iter().map(|s| s * 1e3).collect();
    outcome.set("setup_s", setup_s);
    outcome.set(
        "iters_per_s",
        iterations as f64 / medians(&m.iterate_s).iter().sum::<f64>(),
    );
    outcome.set(
        "sessions_per_s",
        fixtures.len() as f64 / wall_s.iter().sum::<f64>(),
    );
    outcome.set("ttff_p50_ms", median(&ttff));
    outcome.set("ttff_tail_ms", ttff_tail);
    outcome.set("latency_p50_ms", median(&latency_ms));
    outcome.set("pick_cost_log10", mean(&m.final_scores));
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.notes.push(format!(
        "median of {} passes x {} fixtures x {} iterations; ttff: {} operations, tail = p{:.1}",
        m.passes,
        fixtures.len(),
        seq_spec(args.workload, args.smoke).iterations,
        ttff.len(),
        pct * 100.0,
    ));
    outcome
}

/// What the stage-by-stage replica of one run produced.
struct Replica {
    wall_s: f64,
    climb_steps: u64,
    screens: ScreenCounters,
    cache_kept: u64,
    cache_rejected: u64,
    cache_plans: usize,
    cache_table_sets: usize,
    cache_max_frontier: usize,
    arena_nodes: usize,
    arena_dedup_rate: f64,
    frontier: Vec<PlanRef>,
}

/// Span names of the replica's stages.
const STAGES: [&str; 4] = [
    "core.random_plan",
    "core.climb",
    "core.arena.adopt",
    "core.frontier",
];

/// The RMQ loop rebuilt from the public arena entry points, one span per
/// stage: same RNG stream, same admission schedule, same arenas as
/// `Rmq::iterate_inner` with the shared cache.
fn replica<M: CostModel>(model: &M, f: &SeqFixture, rec: &mut Recorder, run: u64) -> Replica {
    let cfg = RmqConfig::seeded(f.rmq_seed);
    let born = Instant::now();
    let root = rec.open("core.rmq.run", born, None, run);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arena = PlanArena::new();
    let mut climb_arena = PlanArena::new();
    let mut memo: FxHashMap<PlanId, PlanId> = FxHashMap::default();
    let mut cache: PlanCache<PlanId> = PlanCache::new();
    let mut climb_scratch = StepScratch::default();
    let mut frontier_scratch: FrontierScratch<PlanId> = FrontierScratch::default();
    let mut screens = ScreenCounters::default();
    let mut climb_steps = 0u64;
    for i in 1..=f.iterations {
        let request = run << 32 | i;
        let a = Instant::now();
        let it = rec.open("core.rmq.iteration", a, Some(root), request);
        let plan = random_plan_in(&mut climb_arena, model, f.query, &mut rng);
        let b = Instant::now();
        let (opt, stats) = pareto_climb_in(
            &mut climb_arena,
            plan,
            model,
            &cfg.climb,
            &mut climb_scratch,
        );
        let c = Instant::now();
        let admission = cfg.archive.admission(i);
        memo.clear();
        let opt = arena.adopt(&climb_arena, opt, &mut memo);
        climb_arena.clear();
        let d = Instant::now();
        approximate_frontiers_in(
            &mut arena,
            opt,
            model,
            &mut cache,
            &admission,
            &mut frontier_scratch,
        );
        let e = Instant::now();
        for (name, (from, to)) in STAGES.into_iter().zip([(a, b), (b, c), (c, d), (d, e)]) {
            rec.record(name, from, to, Some(it), request);
        }
        climb_steps += stats.steps as u64;
        screens.absorb(&climb_scratch.take_screen());
        screens.absorb(&cache.take_screen_counters());
        rec.close(it, Instant::now());
    }
    let end = Instant::now();
    rec.close(root, end);
    let (cache_kept, cache_rejected) = cache.counters();
    let arena_stats = arena.stats();
    Replica {
        wall_s: (end - born).as_secs_f64(),
        climb_steps,
        screens,
        cache_kept,
        cache_rejected,
        cache_plans: cache.total_plans(),
        cache_table_sets: cache.num_table_sets(),
        cache_max_frontier: cache.max_frontier_size(),
        arena_nodes: arena_stats.nodes,
        arena_dedup_rate: arena_stats.dedup_rate(),
        frontier: cache
            .frontier(f.query)
            .iter()
            .map(|&id| arena.export(id))
            .collect(),
    }
}

/// Plain `Rmq` run; returns the seconds from before `Rmq::new`.
fn plain_run<M: CostModel>(model: &M, f: &SeqFixture) -> f64 {
    let born = Instant::now();
    let mut rmq = Rmq::new(model, f.query, RmqConfig::seeded(f.rmq_seed));
    for _ in 0..f.iterations {
        rmq.iterate();
    }
    let secs = born.elapsed().as_secs_f64();
    std::hint::black_box(&rmq);
    secs
}

/// Totals the traced run's extra runs accumulate.
#[derive(Default)]
struct Extras {
    /// Last replica of every fixture (counts are the same in every pass).
    last: Vec<Option<Replica>>,
    /// Sum over all passes of the replica's wall seconds.
    replica_sum_s: f64,
    /// Cost calls, iterations and plain wall seconds of the counted runs.
    cost_calls: u64,
    cost_iterations: u64,
    cost_ns_weighted: f64,
    /// Wall seconds with telemetry on / off over the same runs.
    obs_on_s: f64,
    obs_off_s: f64,
}

fn traced(args: &Args, fixtures: &[SeqFixture]) -> Outcome {
    let mut outcome = Outcome::default();
    let mut rec = Recorder::new();
    let n = fixtures.len();
    let obs = metrics();
    let before = (
        obs.climb_candidates.get(),
        obs.rmq_iterations.get(),
        obs.spans_dropped.get(),
    );
    let mut ex = Extras {
        last: (0..n).map(|_| None).collect(),
        ..Extras::default()
    };
    // One fixture per join-graph shape carries the two extra runs (cost-call
    // counting, telemetry on): they are counts and an A/B, not timings that
    // need every fixture.
    let with_extras = n.min(seq_spec(args.workload, args.smoke).shapes.len());
    let mut candidates = (0u64, 0u64);
    let m = measure(
        args,
        fixtures,
        &mut outcome,
        &mut |pass, x, rmq, outcome| {
            let f = &fixtures[x];
            let what = format!("{} traced pass {pass}", f.name);
            // Counter deltas of the plain runs only: the replica flushes nothing.
            candidates = (
                obs.climb_candidates.get() - before.0,
                obs.rmq_iterations.get() - before.1,
            );
            let run = u64::from(pass) * n as u64 + x as u64;
            let Some(rep) = outcome.guarded(&what, || replica(&f.model, f, &mut rec, run)) else {
                return;
            };
            ex.replica_sum_s += rep.wall_s;
            if pass == 0 {
                let mut problems = check_frontier(&rep.frontier, &f.model, f.query);
                if !identical(&rmq.frontier(), &rep.frontier) {
                    problems.push("replica frontier differs from Rmq's".to_string());
                }
                if !problems.is_empty() {
                    outcome.fail(format!("{what}: {}", problems.join("; ")));
                }
            }
            ex.last[x] = Some(rep);
            if pass > 0 || x >= with_extras {
                return;
            }
            let counting = CountingModel::new(f.model.clone());
            if outcome.guarded(&what, || plain_run(&counting, f)).is_some() {
                ex.cost_calls += counting.calls();
                ex.cost_iterations += f.iterations;
                ex.cost_ns_weighted +=
                    counting.ns_per_call(Duration::from_millis(20)) * f.iterations as f64;
            }
            let off = outcome.guarded(&what, || plain_run(&f.model, f));
            moqo_obs::journal::enable_all(moqo_obs::journal::Level::Debug);
            moqo_obs::spans::enable();
            let on = outcome.guarded(&what, || plain_run(&f.model, f));
            moqo_obs::spans::disable();
            moqo_obs::journal::disable();
            moqo_obs::journal::drain();
            moqo_obs::spans::drain();
            if let (Some(on), Some(off)) = (on, off) {
                ex.obs_on_s += on;
                ex.obs_off_s += off;
            }
        },
    );
    let iterations: u64 = fixtures.iter().map(|f| f.iterations).sum();
    // Stage totals come from the span recorder (a stage's self time), summed
    // over every pass like the two walls they are compared with.
    let self_ns = rec.self_times();
    let stage_s = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let stages_sum_s: f64 = STAGES.iter().map(|s| stage_s(s)).sum();
    let iterate_sum_s: f64 = m.iterate_s.iter().flatten().sum();
    let calls = (iterations * u64::from(m.passes)) as f64;
    let share = |name: &str| ratio(stage_s(name), ex.replica_sum_s);
    outcome.set("core.random_plan.time_share", share(STAGES[0]));
    outcome.set(
        "core.random_plan.ns_per_call",
        ratio(stage_s(STAGES[0]) * 1e9, calls),
    );
    outcome.set("core.climb.time_share", share(STAGES[1]));
    outcome.set(
        "core.climb.us_per_call",
        ratio(stage_s(STAGES[1]) * 1e6, calls),
    );
    outcome.set("core.arena.adopt_time_share", share(STAGES[2]));
    outcome.set("core.frontier.time_share", share(STAGES[3]));
    outcome.set(
        "core.frontier.us_per_call",
        ratio(stage_s(STAGES[3]) * 1e6, calls),
    );
    outcome.set(
        "core.rmq.loop_overhead_share",
        ratio(iterate_sum_s - stages_sum_s, iterate_sum_s),
    );
    outcome.set(
        "obs.trace_overhead_share",
        ratio(ex.replica_sum_s - iterate_sum_s, iterate_sum_s),
    );
    let reps: Vec<&Replica> = ex.last.iter().flatten().collect();
    let mut screens = ScreenCounters::default();
    for r in &reps {
        screens.absorb(&r.screens);
    }
    let sum = |get: &dyn Fn(&Replica) -> f64| reps.iter().map(|r| get(r)).sum::<f64>();
    let per_pass = iterations as f64;
    outcome.set(
        "core.climb.steps_per_call",
        ratio(sum(&|r| r.climb_steps as f64), per_pass),
    );
    outcome.set(
        "core.climb.candidates_per_iter",
        ratio(candidates.0 as f64, candidates.1 as f64),
    );
    outcome.set(
        "core.pareto.probes_per_iter",
        ratio(screens.probes as f64, per_pass),
    );
    outcome.set(
        "core.pareto.dominance_tests_per_probe",
        ratio(screens.dominance_tests as f64, screens.probes as f64),
    );
    outcome.set(
        "core.pareto.agg_key_skip_ratio",
        ratio(
            screens.agg_key_skips as f64,
            (screens.agg_key_skips + screens.dominance_tests) as f64,
        ),
    );
    outcome.set(
        "core.pareto.admit_ratio",
        ratio(screens.admitted as f64, screens.probes as f64),
    );
    outcome.set(
        "core.pareto.blocks_screened_per_iter",
        ratio(screens.blocks_screened as f64, per_pass),
    );
    let per_fixture = reps.len().max(1) as f64;
    outcome.set(
        "core.cache.plans",
        sum(&|r| r.cache_plans as f64) / per_fixture,
    );
    outcome.set(
        "core.cache.table_sets",
        sum(&|r| r.cache_table_sets as f64) / per_fixture,
    );
    outcome.set(
        "core.cache.max_frontier",
        reps.iter().map(|r| r.cache_max_frontier).max().unwrap_or(0) as f64,
    );
    outcome.set(
        "core.cache.insert_admit_ratio",
        ratio(
            sum(&|r| r.cache_kept as f64),
            sum(&|r| (r.cache_kept + r.cache_rejected) as f64),
        ),
    );
    outcome.set(
        "core.arena.nodes",
        sum(&|r| r.arena_nodes as f64) / per_fixture,
    );
    outcome.set(
        "core.arena.dedup_rate",
        sum(&|r| r.arena_dedup_rate) / per_fixture,
    );
    let iter_us = &m.iter_us;
    let (iter_tail, pct) = tail(iter_us);
    outcome.set("core.rmq.iter_p50_us", median(iter_us));
    outcome.set("core.rmq.iter_tail_us", iter_tail);
    outcome.set("core.rmq.first_iter_ms", median(&medians(&m.ttff_ms)));
    let sizes: Vec<f64> = reps.iter().map(|r| r.frontier.len() as f64).collect();
    outcome.set("core.rmq.frontier_size", median(&sizes));
    outcome.set("core.rmq.tt_target_ms", median(&medians(&m.tt_target_ms)));
    let ns_per_call = ratio(ex.cost_ns_weighted, ex.cost_iterations as f64);
    outcome.set(
        "cost.calls_per_iter",
        ratio(ex.cost_calls as f64, ex.cost_iterations as f64),
    );
    outcome.set("cost.ns_per_call", ns_per_call);
    outcome.set(
        "cost.time_share",
        ratio(ex.cost_calls as f64 * ns_per_call / 1e9, ex.obs_off_s),
    );
    outcome.set(
        "obs.enabled_overhead_share",
        ratio(ex.obs_on_s - ex.obs_off_s, ex.obs_off_s),
    );
    outcome.set(
        "obs.spans_dropped",
        (obs.spans_dropped.get() - before.2) as f64,
    );
    outcome.notes.push(format!(
        "{} traced passes x {n} fixtures; iteration times: {} samples, tail = p{:.2}; {} spans",
        m.passes,
        iter_us.len(),
        pct * 100.0,
        rec.len()
    ));
    if let Err(e) = rec.write_trace(args.workload.name()) {
        outcome.notes.push(format!("trace not written: {e}"));
    }
    outcome
}

/// Regenerates `fixtures.lock` and `targets.json` for the default seed.
///
/// # Errors
/// Returns the I/O error of the first file that cannot be written.
pub fn write_lock_files() -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut lock = String::new();
    for w in Workload::ALL {
        for line in fixtures::lock_lines(w, fixtures::DEFAULT_SEED) {
            lock.push_str(&line);
            lock.push('\n');
        }
    }
    std::fs::write(dir.join("fixtures.lock"), lock)?;
    let mut targets = String::from("{\n");
    let optimizer_workloads = [
        Workload::SeqPaper,
        Workload::SeqManyobj,
        Workload::ParFanout,
    ];
    for (i, w) in optimizer_workloads.into_iter().enumerate() {
        targets.push_str(&format!("  \"{}\": {{\n", w.name()));
        let fixtures = seq_fixtures(w, fixtures::DEFAULT_SEED, false);
        for (j, f) in fixtures.iter().enumerate() {
            let score = reference_score(f, (f.iterations / TARGET_SHARE).max(1));
            let comma = if j + 1 < fixtures.len() { "," } else { "" };
            targets.push_str(&format!("    \"{}\": {score}{comma}\n", f.name));
        }
        let comma = if i + 1 < optimizer_workloads.len() {
            ","
        } else {
            ""
        };
        targets.push_str(&format!("  }}{comma}\n"));
    }
    targets.push_str("}\n");
    std::fs::write(dir.join("targets.json"), targets)
}
