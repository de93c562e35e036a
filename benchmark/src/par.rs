//! `par_fanout`: `ParRmq` in live mode on the `seq_manyobj` fixtures.
//!
//! A run drives the optimizer the way an anytime caller does — one
//! `optimize` call per round of `workers × batch` iterations — and looks at
//! the published frontier between calls. The exchange, the shared frontier
//! and the worker threads do most of the work here and none in the `seq_*`
//! workloads.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use moqo_core::model::CostModel;
use moqo_core::optimizer::Budget;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_cost::resource::ResourceCostModel;
use moqo_obs::metrics::metrics;
use moqo_parallel::{
    ExchangeStats, ExecPool, ParRmq, ParRmqConfig, SharedFrontier, TaskSpec, TaskStatus,
};

use crate::checks::check_frontier;
use crate::fixtures::{self, derive, seq_fixtures, seq_spec, SeqFixture, PAR_SLICE, PAR_WORKERS};
use crate::report::Outcome;
use crate::score::pick_cost_log10;
use crate::seq::{reference_score, TARGET_SHARE};
use crate::spans::Recorder;
use crate::stats::{mean, median, medians, ratio, tail};
use crate::{peak_rss_mb, timed_setup, verify_lock_or_exit, Args, PassClock};

/// Generates the fixtures, checks them against the lock, and warms every
/// fixture up for one round (thread spawn, first-touch page faults).
fn setup(args: &Args) -> Vec<SeqFixture> {
    let fixtures = seq_fixtures(args.workload, args.seed, args.smoke);
    verify_lock_or_exit(args, &fixtures::seq_lock_lines(args.workload, &fixtures));
    for f in &fixtures {
        new_par(f, f.rmq_seed, PAR_WORKERS).optimize(Budget::Iterations(PAR_SLICE));
    }
    fixtures
}

fn new_par(f: &SeqFixture, seed: u64, workers: usize) -> ParRmq<ResourceCostModel> {
    ParRmq::new(
        f.model.clone(),
        f.query,
        ParRmqConfig::seeded(seed, workers),
    )
}

/// One timed optimization run.
struct RunSample {
    /// Seconds inside `ParRmq::optimize`.
    optimize_s: f64,
    /// Seconds from before `ParRmq::new` to the end of the last slice.
    wall_s: f64,
    /// Iterations completed (the claim counter makes this exact).
    iterations: u64,
    /// `ParRmq::new` → first non-empty published frontier, ms.
    ttff_ms: Option<f64>,
    /// `ParRmq::new` → published frontier reaches the target, ms.
    tt_target_ms: Option<f64>,
    final_score: f64,
    frontier_size: usize,
    exchange: ExchangeStats,
    worker_iterations: Vec<u64>,
}

fn run_one(
    f: &SeqFixture,
    workers: usize,
    target: Option<f64>,
    mut spans: Option<(&mut Recorder, u64)>,
) -> (RunSample, ParRmq<ResourceCostModel>) {
    let born = Instant::now();
    let mut par = new_par(f, f.rmq_seed, workers);
    let root = spans
        .as_mut()
        .map(|(rec, run)| rec.open("parallel.run", born, None, *run));
    let mut sample = RunSample {
        optimize_s: 0.0,
        wall_s: 0.0,
        iterations: 0,
        ttff_ms: None,
        tt_target_ms: None,
        final_score: f64::INFINITY,
        frontier_size: 0,
        exchange: ExchangeStats::default(),
        worker_iterations: Vec::new(),
    };
    for _ in 0..f.iterations / PAR_SLICE {
        let a = Instant::now();
        let stats = par.optimize(Budget::Iterations(PAR_SLICE));
        let b = Instant::now();
        if let Some((rec, run)) = spans.as_mut() {
            rec.record("parallel.optimize", a, b, root, *run);
        }
        sample.optimize_s += stats.elapsed.as_secs_f64();
        sample.iterations += stats.iterations;
        sample.exchange = stats.exchange;
        if sample.ttff_ms.is_none() || (target.is_some() && sample.tt_target_ms.is_none()) {
            let frontier = par.frontier();
            let at = born.elapsed().as_secs_f64() * 1e3;
            if !frontier.is_empty() && sample.ttff_ms.is_none() {
                sample.ttff_ms = Some(at);
            }
            if target.is_some_and(|t| pick_cost_log10(frontier.iter().map(|p| p.cost())) <= t) {
                sample.tt_target_ms = Some(at);
            }
        }
    }
    let end = Instant::now();
    if let (Some((rec, _)), Some(root)) = (spans.as_mut(), root) {
        rec.close(root, end);
    }
    sample.wall_s = (end - born).as_secs_f64();
    let frontier = par.frontier();
    sample.final_score = pick_cost_log10(frontier.iter().map(|p| p.cost()));
    sample.frontier_size = frontier.len();
    sample.worker_iterations = par.worker_iterations();
    (sample, par)
}

/// A fresh optimizer and one round: one more time-to-first-frontier sample.
fn ttff_sample(f: &SeqFixture, j: u64) -> Option<f64> {
    let born = Instant::now();
    let mut par = new_par(f, derive(f.rmq_seed, 0x77ff + j), PAR_WORKERS);
    par.optimize(Budget::Iterations(PAR_SLICE));
    let ms = born.elapsed().as_secs_f64() * 1e3;
    (!par.frontier().is_empty()).then_some(ms)
}

/// The quality target of every fixture (traced runs only): frozen for the
/// default seed, otherwise what a *sequential* run reaches after a quarter
/// of the iteration budget (an untimed reference pass). Unlike on `seq_*`
/// reaching it is measured, not required: absorbed plans change what a
/// worker's approximate pruning admits, so even the worker that shares the
/// sequential run's seed need not retrace its quality curve.
fn targets(args: &Args, fixtures: &[SeqFixture]) -> Vec<f64> {
    fixtures
        .iter()
        .map(|f| {
            args.frozen()
                .then(|| fixtures::frozen_target(args.workload, &f.name))
                .flatten()
                .unwrap_or_else(|| reference_score(f, (f.iterations / TARGET_SHARE).max(1)))
        })
        .collect()
}

/// Entry point.
pub fn run(args: &Args) -> Outcome {
    let (fixtures, setup_s) = timed_setup(args, || setup(args));
    if args.trace {
        return traced(args, &fixtures, &targets(args, &fixtures));
    }
    let mut outcome = untraced(args, &fixtures);
    outcome.set("setup_s", setup_s);
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome
}

fn untraced(args: &Args, fixtures: &[SeqFixture]) -> Outcome {
    let spec = seq_spec(args.workload, args.smoke);
    let mut outcome = Outcome::default();
    let n = fixtures.len();
    // Median over passes per operation, as in `seq.rs` — quality included,
    // because live-mode exchange makes the final frontier depend on the
    // thread schedule.
    let slots = 1 + spec.ttff_extra;
    let (mut optimize_s, mut wall_s) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let mut ttff_ms = vec![Vec::new(); n * slots];
    let mut scores = vec![Vec::new(); n];
    let clock = PassClock::start(args);
    let mut passes = 0u32;
    while clock.another(passes) {
        for (x, f) in fixtures.iter().enumerate() {
            outcome.attempted += 1;
            let what = format!("{} pass {passes}", f.name);
            let Some((sample, par)) =
                outcome.guarded(&what, || run_one(f, PAR_WORKERS, None, None))
            else {
                continue;
            };
            let mut problems = Vec::new();
            if sample.iterations != f.iterations {
                problems.push(format!(
                    "{} of {} iterations completed",
                    sample.iterations, f.iterations
                ));
            }
            if passes == 0 {
                problems.extend(check_frontier(&par.frontier(), &f.model, f.query));
            }
            if !problems.is_empty() {
                outcome.fail(format!("{what}: {}", problems.join("; ")));
            }
            optimize_s[x].push(sample.optimize_s);
            wall_s[x].push(sample.wall_s);
            scores[x].push(sample.final_score);
            ttff_ms[x * slots].extend(sample.ttff_ms);
            drop(par);
            for j in 0..spec.ttff_extra {
                if let Some(ms) = outcome
                    .guarded(&what, || ttff_sample(f, j as u64))
                    .flatten()
                {
                    ttff_ms[x * slots + 1 + j].push(ms);
                }
            }
        }
        passes += 1;
    }
    let iterations: u64 = fixtures.iter().map(|f| f.iterations).sum();
    let ttff = medians(&ttff_ms);
    let (ttff_tail, pct) = tail(&ttff);
    let wall_s = medians(&wall_s);
    let latency_ms: Vec<f64> = wall_s.iter().map(|s| s * 1e3).collect();
    let per_fixture_score = medians(&scores);
    outcome.set(
        "iters_per_s",
        iterations as f64 / medians(&optimize_s).iter().sum::<f64>(),
    );
    outcome.set("sessions_per_s", n as f64 / wall_s.iter().sum::<f64>());
    outcome.set("ttff_p50_ms", median(&ttff));
    outcome.set("ttff_tail_ms", ttff_tail);
    outcome.set("latency_p50_ms", median(&latency_ms));
    outcome.set("pick_cost_log10", mean(&per_fixture_score));
    outcome.notes.push(format!(
        "median of {passes} passes x {n} fixtures x {} iterations in slices of {PAR_SLICE}, {PAR_WORKERS} workers; ttff: {} operations, tail = p{:.1}",
        spec.iterations,
        ttff.len(),
        pct * 100.0
    ));
    outcome
}

/// Sequential `Rmq` for the same iteration count: the speed-up baseline.
/// Returns the optimizer and the seconds inside `iterate`.
fn sequential<M: CostModel>(model: M, f: &SeqFixture) -> (Rmq<M>, f64) {
    let mut rmq = Rmq::new(model, f.query, RmqConfig::seeded(f.rmq_seed));
    let start = Instant::now();
    for _ in 0..f.iterations {
        rmq.iterate();
    }
    (rmq, start.elapsed().as_secs_f64())
}

/// Median delay between spawning a task on an idle two-worker `ExecPool`
/// and the task starting to run, in µs.
fn spawn_to_run_us(rec: &mut Recorder) -> f64 {
    let pool = ExecPool::new(PAR_WORKERS);
    let handle = pool.handle();
    let (tx, rx) = mpsc::channel();
    let mut delays = Vec::new();
    for i in 0..200u64 {
        let tx = tx.clone();
        let spawned = Instant::now();
        handle.spawn(TaskSpec::root(), move || {
            // The receiver outlives every task: a failed send cannot happen.
            let _ = tx.send(Instant::now());
            TaskStatus::Done
        });
        let Ok(started) = rx.recv_timeout(Duration::from_secs(10)) else {
            break;
        };
        rec.record("parallel.pool.spawn_to_run", spawned, started, None, i);
        delays.push((started - spawned).as_secs_f64() * 1e6);
        // Let the worker park again so every sample is a cold wake-up.
        std::thread::sleep(Duration::from_micros(200));
    }
    pool.shutdown();
    median(&delays)
}

fn traced(args: &Args, fixtures: &[SeqFixture], targets: &[f64]) -> Outcome {
    let mut outcome = Outcome::default();
    let mut rec = Recorder::new();
    let m = metrics();
    let n = fixtures.len();
    let (mut par_s, mut one_s, mut seq_s) = (
        vec![Vec::new(); n],
        vec![Vec::new(); n],
        vec![Vec::new(); n],
    );
    let (mut publish_ms, mut imbalance, mut frontier_sizes) = (Vec::new(), Vec::new(), Vec::new());
    let mut tt_target_ms = Vec::new();
    let mut exchange: Vec<Option<ExchangeStats>> = vec![None; n];
    let (mut cache_plans, mut cache_sets, mut arena_nodes, mut dedup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut cache_max = 0usize;
    let (mut cache_kept, mut cache_offered) = (0u64, 0u64);
    let (mut candidates, mut obs_iterations) = (0u64, 0u64);
    let spans_dropped_before = m.spans_dropped.get();
    let clock = PassClock::start(args);
    let mut passes = 0u32;
    while clock.another(passes) {
        for (x, f) in fixtures.iter().enumerate() {
            outcome.attempted += 1;
            let what = format!("{} traced pass {passes}", f.name);
            let run = u64::from(passes) * n as u64 + x as u64;
            let before = (m.climb_candidates.get(), m.rmq_iterations.get());
            let Some((sample, par)) = outcome.guarded(&what, || {
                run_one(f, PAR_WORKERS, Some(targets[x]), Some((&mut rec, run)))
            }) else {
                continue;
            };
            candidates += m.climb_candidates.get() - before.0;
            obs_iterations += m.rmq_iterations.get() - before.1;
            par_s[x].push(sample.optimize_s);
            tt_target_ms.extend(sample.tt_target_ms);
            let mean_iters = mean(
                &sample
                    .worker_iterations
                    .iter()
                    .map(|&i| i as f64)
                    .collect::<Vec<_>>(),
            );
            let spread = sample.worker_iterations.iter().max().unwrap_or(&0)
                - sample.worker_iterations.iter().min().unwrap_or(&0);
            imbalance.push(ratio(spread as f64, mean_iters));
            if passes == 0 {
                frontier_sizes.push(sample.frontier_size as f64);
                let problems = check_frontier(&par.frontier(), &f.model, f.query);
                if !problems.is_empty() {
                    outcome.fail(format!("{what}: {}", problems.join("; ")));
                }
                for rmq in par.worker_rmqs() {
                    cache_plans.push(rmq.cache().total_plans() as f64);
                    cache_sets.push(rmq.cache().num_table_sets() as f64);
                    cache_max = cache_max.max(rmq.cache().max_frontier_size());
                    let (kept, rejected) = rmq.cache().counters();
                    cache_kept += kept;
                    cache_offered += kept + rejected;
                    arena_nodes.push(rmq.arena().stats().nodes as f64);
                    dedup.push(rmq.arena().stats().dedup_rate());
                }
            }
            exchange[x] = Some(sample.exchange);
            drop(par);
            if let Some((one, _)) = outcome.guarded(&what, || run_one(f, 1, None, None)) {
                one_s[x].push(one.optimize_s);
            }
            if let Some((rmq, secs)) = outcome.guarded(&what, || sequential(&f.model, f)) {
                seq_s[x].push(secs);
                // What one exchange point costs a finished worker: publish
                // every sub-query frontier of its cache into a fresh shared
                // frontier.
                let shared = SharedFrontier::new();
                let a = Instant::now();
                shared.publish_partials(
                    rmq.arena(),
                    rmq.cache().entry_sets().filter(|(rel, _)| *rel != f.query),
                );
                let b = Instant::now();
                rec.record("parallel.exchange.publish_partials", a, b, None, run);
                publish_ms.push((b - a).as_secs_f64() * 1e3);
            }
        }
        passes += 1;
    }
    let iterations: u64 = fixtures.iter().map(|f| f.iterations).sum();
    let total = |per_fixture: &[Vec<f64>]| per_fixture.iter().map(|v| median(v)).sum::<f64>();
    let rate = |secs: f64| ratio(iterations as f64, secs);
    outcome.set(
        "parallel.speedup_vs_seq",
        ratio(rate(total(&par_s)), rate(total(&seq_s))),
    );
    outcome.set(
        "parallel.w1_vs_seq",
        ratio(rate(total(&one_s)), rate(total(&seq_s))),
    );
    let ex: Vec<ExchangeStats> = exchange.into_iter().flatten().collect();
    let sum = |get: &dyn Fn(&ExchangeStats) -> u64| ex.iter().map(get).sum::<u64>() as f64;
    let ex_iterations = (ex.len() as u64 * seq_spec(args.workload, args.smoke).iterations) as f64;
    outcome.set(
        "parallel.exchange.publishes",
        ratio(sum(&|e| e.publishes), ex.len() as f64),
    );
    outcome.set(
        "parallel.exchange.partial_offered_per_iter",
        ratio(sum(&|e| e.partial_offered), ex_iterations),
    );
    outcome.set(
        "parallel.exchange.partial_merge_ratio",
        ratio(sum(&|e| e.partial_merged), sum(&|e| e.partial_offered)),
    );
    outcome.set(
        "parallel.exchange.absorbed_per_iter",
        ratio(sum(&|e| e.absorbed), ex_iterations),
    );
    outcome.set("parallel.exchange.publish_ms", median(&publish_ms));
    outcome.set("parallel.worker_imbalance", mean(&imbalance));
    outcome.set("parallel.pool.spawn_to_run_us", spawn_to_run_us(&mut rec));
    outcome.set(
        "core.climb.candidates_per_iter",
        ratio(candidates as f64, obs_iterations as f64),
    );
    outcome.set("core.cache.plans", mean(&cache_plans));
    outcome.set("core.cache.table_sets", mean(&cache_sets));
    outcome.set("core.cache.max_frontier", cache_max as f64);
    outcome.set(
        "core.cache.insert_admit_ratio",
        ratio(cache_kept as f64, cache_offered as f64),
    );
    outcome.set("core.arena.nodes", mean(&arena_nodes));
    outcome.set("core.arena.dedup_rate", mean(&dedup));
    outcome.set("core.rmq.frontier_size", median(&frontier_sizes));
    outcome.set("core.rmq.tt_target_ms", median(&tt_target_ms));
    outcome.set(
        "obs.spans_dropped",
        (m.spans_dropped.get() - spans_dropped_before) as f64,
    );
    outcome.notes.push(format!(
        "{passes} traced passes x {n} fixtures: ParRmq({PAR_WORKERS}), ParRmq(1) and Rmq each; target reached in {} of {} runs; {} spans",
        tt_target_ms.len(),
        passes as usize * n,
        rec.len()
    ));
    if let Err(e) = rec.write_trace(args.workload.name()) {
        outcome.notes.push(format!("trace not written: {e}"));
    }
    outcome
}
