//! `serve` — replay generated query traffic against the optimization
//! service and report serving metrics.
//!
//! ```text
//! Usage: serve [OPTIONS]
//!
//!   --sessions N       total sessions to replay (default 24)
//!   --waves K          submit sessions in K waves; later waves warm-start
//!                      from earlier waves' published plans (default 3)
//!   --workers W        scheduler worker threads (default 3)
//!   --tables T         tables in the shared catalog (default 12)
//!   --min-tables N     minimum tables per query (default T/2)
//!   --max-tables N     maximum tables per query (default T)
//!   --budget-ms MS     per-session time budget (default: iterations)
//!   --iters N          per-session iteration budget (default 60)
//!   --fan-out W        intra-query worker threads for latency-critical
//!                      sessions (default 1 = all sequential)
//!   --fan-out-every K  tag every K-th session latency-critical (default 4)
//!   --eps FACTOR       run sessions with an ε-box archive at this uniform
//!                      per-metric factor (> 1.0) instead of the paper's
//!                      α-schedule; bounds every frontier by cost precision
//!   --seed S           RNG seed (default 42)
//!   --obs-json PATH    enable the observability journal and periodically
//!                      flush JSON telemetry snapshots to PATH (plus one
//!                      final flush before exit)
//!   --trace-out PATH   record causal spans (sessions, slices, climb
//!                      batches, exchanges, cache lookups) and write them
//!                      as Chrome trace-event JSON on exit
//!   --slo-ttff-ms N    SLO target: p99 time-to-first-frontier (ms)
//!   --slo-queue-ms N   SLO target: p99 queueing delay (ms)
//!   --slo-shed N       SLO target: shed rate (rejected per mille offered)
//!
//! Front-door mode (enabled by --tenants > 0; replays zipfian multi-tenant
//! traffic through the sharded front door instead of one bare service):
//!
//!   --tenants N        number of tenants (default 0 = single-service mode)
//!   --tenant-skew F    Zipf exponent of the tenant distribution (default 1)
//!   --templates N      distinct query templates in the pool (default 16)
//!   --query-skew F     Zipf exponent of the template distribution (default 1)
//!   --shards K         independent service shards (default 4)
//!   --quota-burst N    per-tenant token-bucket burst (default 0 = no quota)
//!   --quota-refill F   per-tenant refill rate, tokens/sec (default 0)
//!   --no-degrade       disable the SLO-aware degradation ladder (the
//!                      ablation: shed outright instead of degrading first)
//! ```
//!
//! Prints one line per session (steps, frontier size, warm-start plans,
//! time to first frontier) and a closing service summary: throughput,
//! p50/p99 time-to-first-frontier, time-to-90%-of-final-hypervolume, the
//! cross-query cache hit rate, and — when any `--slo-*` target is set —
//! the SLO verdict. Front-door mode prints per-wave progress plus a front
//! door summary (coalescing hits, degraded admissions, shed counts, and
//! per-shard service stats) instead of per-session lines.

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use moqo_catalog::Catalog;
use moqo_core::archive::ArchiveConfig;
use moqo_core::optimizer::Budget;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::EpsFactors;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_frontdoor::{
    DegradationConfig, FrontDoor, FrontDoorConfig, FrontRequest, FrontdoorError, QuotaConfig,
};
use moqo_parallel::{ParRmq, ParRmqConfig};
use moqo_service::{
    context_fingerprint, OptimizationService, PlanExchange, ServiceConfig, SessionHandle,
    SessionRequest, SloConfig, SLO_BIT_QUEUE_DELAY, SLO_BIT_SHED, SLO_BIT_TTFF,
};
use moqo_workload::{GraphShape, SelectivityMethod, TrafficSpec};

struct Options {
    sessions: usize,
    waves: usize,
    workers: usize,
    tables: usize,
    min_tables: Option<usize>,
    max_tables: Option<usize>,
    budget_ms: Option<u64>,
    iters: u64,
    fan_out: usize,
    fan_out_every: usize,
    /// ε-box archive factor for every session's optimizer (None = paper
    /// α-schedule).
    eps: Option<f64>,
    seed: u64,
    obs_json: Option<String>,
    trace_out: Option<String>,
    slo: SloConfig,
    /// Tenants in front-door mode (0 = classic single-service replay).
    tenants: usize,
    tenant_skew: f64,
    templates: usize,
    query_skew: f64,
    shards: usize,
    quota_burst: u64,
    quota_refill: f64,
    degrade: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--sessions N] [--waves K] [--workers W] [--tables T] \
         [--min-tables N] [--max-tables N] [--budget-ms MS] [--iters N] \
         [--fan-out W] [--fan-out-every K] [--eps FACTOR] [--seed S] \
         [--obs-json PATH] [--trace-out PATH] [--slo-ttff-ms N] \
         [--slo-queue-ms N] [--slo-shed N] [--tenants N] [--tenant-skew F] \
         [--templates N] [--query-skew F] [--shards K] [--quota-burst N] \
         [--quota-refill F] [--no-degrade]"
    );
    exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        sessions: 24,
        waves: 3,
        workers: 3,
        tables: 12,
        min_tables: None,
        max_tables: None,
        budget_ms: None,
        iters: 60,
        fan_out: 1,
        fan_out_every: 4,
        eps: None,
        seed: 42,
        obs_json: None,
        trace_out: None,
        slo: SloConfig::default(),
        tenants: 0,
        tenant_skew: 1.0,
        templates: 16,
        query_skew: 1.0,
        shards: 4,
        quota_burst: 0,
        quota_refill: 0.0,
        degrade: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        let parsed = |name: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {name}");
                usage()
            })
        };
        let parsed_f64 = |name: &str, v: String| -> f64 {
            let f: f64 = v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {name}");
                usage()
            });
            if !f.is_finite() || f < 0.0 {
                eprintln!("{name} must be finite and non-negative");
                usage()
            }
            f
        };
        match arg.as_str() {
            "--sessions" => opts.sessions = parsed("--sessions", value("--sessions")) as usize,
            "--waves" => opts.waves = parsed("--waves", value("--waves")).max(1) as usize,
            // At least one worker: zero would admit sessions nothing steps.
            "--workers" => opts.workers = parsed("--workers", value("--workers")).max(1) as usize,
            "--tables" => opts.tables = parsed("--tables", value("--tables")) as usize,
            "--min-tables" => {
                opts.min_tables = Some(parsed("--min-tables", value("--min-tables")) as usize)
            }
            "--max-tables" => {
                opts.max_tables = Some(parsed("--max-tables", value("--max-tables")) as usize)
            }
            "--budget-ms" => opts.budget_ms = Some(parsed("--budget-ms", value("--budget-ms"))),
            "--iters" => opts.iters = parsed("--iters", value("--iters")),
            "--fan-out" => opts.fan_out = parsed("--fan-out", value("--fan-out")).max(1) as usize,
            "--fan-out-every" => {
                opts.fan_out_every = parsed("--fan-out-every", value("--fan-out-every")) as usize
            }
            "--eps" => {
                let v: f64 = value("--eps").parse().unwrap_or_else(|_| {
                    eprintln!("invalid value for --eps");
                    usage()
                });
                if v.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
                    eprintln!("--eps requires a factor > 1.0");
                    usage()
                }
                opts.eps = Some(v);
            }
            "--seed" => opts.seed = parsed("--seed", value("--seed")),
            "--obs-json" => opts.obs_json = Some(value("--obs-json")),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--slo-ttff-ms" => {
                opts.slo.ttff_p99 = Some(Duration::from_millis(parsed(
                    "--slo-ttff-ms",
                    value("--slo-ttff-ms"),
                )))
            }
            "--slo-queue-ms" => {
                opts.slo.queue_delay_p99 = Some(Duration::from_millis(parsed(
                    "--slo-queue-ms",
                    value("--slo-queue-ms"),
                )))
            }
            "--slo-shed" => {
                opts.slo.shed_per_mille = Some(parsed("--slo-shed", value("--slo-shed")))
            }
            "--tenants" => opts.tenants = parsed("--tenants", value("--tenants")) as usize,
            "--tenant-skew" => {
                opts.tenant_skew = parsed_f64("--tenant-skew", value("--tenant-skew"))
            }
            "--templates" => {
                opts.templates = parsed("--templates", value("--templates")).max(1) as usize
            }
            "--query-skew" => opts.query_skew = parsed_f64("--query-skew", value("--query-skew")),
            "--shards" => opts.shards = parsed("--shards", value("--shards")).max(1) as usize,
            "--quota-burst" => opts.quota_burst = parsed("--quota-burst", value("--quota-burst")),
            "--quota-refill" => {
                opts.quota_refill = parsed_f64("--quota-refill", value("--quota-refill"))
            }
            "--no-degrade" => opts.degrade = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    opts
}

fn fmt_ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.2}ms", d.as_secs_f64() * 1e3),
        None => "-".to_string(),
    }
}

/// Writes one telemetry snapshot atomically (write-then-rename, so a
/// concurrent reader never observes a half-written file).
fn flush_obs_json(path: &str) {
    let json = moqo_obs::ObsSnapshot::capture().to_json();
    let tmp = format!("{path}.tmp");
    if std::fs::write(&tmp, &json).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Background telemetry flusher: writes a snapshot to `path` every
/// `period` until `stop` flips, then once more for the final state.
struct ObsFlusher {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
    path: String,
}

impl ObsFlusher {
    fn start(path: String, period: Duration) -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handle = {
            let (stop, path) = (Arc::clone(&stop), path.clone());
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    flush_obs_json(&path);
                    std::thread::sleep(period);
                }
            })
        };
        ObsFlusher { stop, handle, path }
    }

    fn finish(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.handle.join();
        flush_obs_json(&self.path);
        println!("  obs json        {}", self.path);
    }
}

fn main() {
    let opts = parse_args();
    if opts.trace_out.is_some() {
        moqo_obs::spans::enable();
    }
    let flusher = opts.obs_json.as_ref().map(|path| {
        // Structured events feed the flushed snapshots; Info keeps the
        // ring to session-lifecycle and exchange-progress events.
        moqo_obs::journal::enable_all(moqo_obs::journal::Level::Info);
        ObsFlusher::start(path.clone(), Duration::from_millis(250))
    });
    if opts.tenants > 0 {
        run_front_door(&opts);
    } else {
        run_single_service(&opts);
    }
    if let Some(flusher) = flusher {
        flusher.finish();
    }
    if let Some(path) = &opts.trace_out {
        use moqo_obs::spans;
        spans::disable();
        let records = spans::drain();
        let json = spans::to_chrome_trace(&records);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write trace to {path}: {e}");
            exit(1);
        }
        println!("  trace json      {path} ({} spans)", records.len());
    }
}

/// The classic replay: every session through one [`OptimizationService`].
fn run_single_service(opts: &Options) {
    let spec = TrafficSpec {
        catalog_tables: opts.tables,
        shape: GraphShape::Chain,
        selectivity: SelectivityMethod::Steinbrunn,
        queries: opts.sessions,
        min_query_tables: opts.min_tables.unwrap_or((opts.tables / 2).max(2)),
        max_query_tables: opts.max_tables.unwrap_or(opts.tables),
        seed: opts.seed,
    };
    // fan_out == 1 leaves every session sequential (tagging disabled).
    let every = if opts.fan_out > 1 {
        opts.fan_out_every
    } else {
        0
    };
    let (catalog, sessions) = spec.generate_with_fan_out(every, opts.fan_out);
    let metrics = [ResourceMetric::Time, ResourceMetric::Buffer];
    let model = Arc::new(ResourceCostModel::new(Arc::clone(&catalog), &metrics));
    let context = context_fingerprint(catalog.fingerprint(), "resource:time,buffer");
    let budget = match opts.budget_ms {
        Some(ms) => Budget::Time(Duration::from_millis(ms)),
        None => Budget::Iterations(opts.iters),
    };

    println!(
        "serve: {} sessions in {} wave(s), {} workers, catalog fp {:016x}",
        opts.sessions,
        opts.waves,
        opts.workers,
        catalog.fingerprint()
    );
    print_catalog_summary(&catalog);

    let wave_size = opts.sessions.div_ceil(opts.waves);
    let mut config = ServiceConfig {
        workers: opts.workers,
        slo: opts.slo,
        ..ServiceConfig::default()
    };
    // A whole wave is submitted before waiting, so admission must have
    // room for it — otherwise large `--sessions` runs abort on QueueFull.
    config.admission.max_live_sessions = config.admission.max_live_sessions.max(wave_size);
    let service = OptimizationService::new(config);

    let mut session_no = 0usize;
    for (wave, chunk) in sessions.chunks(wave_size.max(1)).enumerate() {
        println!("-- wave {} ({} sessions)", wave + 1, chunk.len());
        let handles: Vec<(usize, usize, usize, SessionHandle)> = chunk
            .iter()
            .map(|session| {
                let seed = opts.seed ^ (session_no as u64).wrapping_mul(0x9e37);
                let tables = session.query.tables();
                // Latency-critical sessions fan one query out over worker
                // threads; the rest run the sequential optimizer. Both go
                // through the same PlanExchange seam.
                let mut rmq_cfg = RmqConfig::seeded(seed);
                if let Some(eps) = opts.eps {
                    rmq_cfg.archive = ArchiveConfig::eps_box(EpsFactors::splat(eps));
                }
                let optimizer: Box<dyn PlanExchange> = if session.fan_out > 1 {
                    let mut cfg = ParRmqConfig::seeded(seed, session.fan_out);
                    cfg.base.archive = rmq_cfg.archive;
                    // Keep rounds short so iteration budgets stay exact per
                    // scheduling slice.
                    cfg.batch = 4;
                    Box::new(ParRmq::new(Arc::clone(&model), tables, cfg))
                } else {
                    Box::new(Rmq::new(Arc::clone(&model), tables, rmq_cfg))
                };
                let request = SessionRequest {
                    optimizer,
                    budget,
                    query: tables,
                    context,
                };
                session_no += 1;
                let handle = service.submit(request).unwrap_or_else(|e| {
                    eprintln!("session rejected: {e}");
                    exit(1)
                });
                (session_no - 1, session.query.len(), session.fan_out, handle)
            })
            .collect();
        for (no, tables, fan_out, handle) in handles {
            let done = handle
                .wait_done(Duration::from_secs(600))
                .expect("session completes");
            println!(
                "  s{no:<3} tables={tables:<2} width={fan_out} steps={:<5} frontier={:<3} warm-start={:<3} status={:?}",
                done.steps,
                done.plans.len(),
                handle.absorbed_plans(),
                done.status,
            );
        }
    }

    let stats = service.stats();
    println!("-- service summary");
    println!("  submitted       {}", stats.submitted);
    println!("  completed       {}", stats.completed);
    println!("  rejected        {}", stats.rejected);
    println!("  total steps     {}", stats.total_steps);
    println!(
        "  wide sessions   {} (fan-out sum {})",
        stats.multi_worker_sessions, stats.fan_out_submitted
    );
    println!(
        "  throughput      {:.1} sessions/s",
        stats.throughput_per_sec
    );
    println!("  ttff p50        {}", fmt_ms(stats.ttff_p50));
    println!("  ttff p99        {}", fmt_ms(stats.ttff_p99));
    println!("  queue delay p50 {}", fmt_ms(stats.queue_delay_p50));
    println!("  queue delay p99 {}", fmt_ms(stats.queue_delay_p99));
    println!("  tt90 p50        {}", fmt_ms(stats.tt90_p50));
    println!("  tt90 p99        {}", fmt_ms(stats.tt90_p99));
    if opts.slo.is_enabled() {
        if stats.slo_breached == 0 {
            println!("  slo             ok (all targets holding)");
        } else {
            let mut breached = Vec::new();
            if stats.slo_breached & SLO_BIT_TTFF != 0 {
                breached.push("ttff p99");
            }
            if stats.slo_breached & SLO_BIT_QUEUE_DELAY != 0 {
                breached.push("queue delay p99");
            }
            if stats.slo_breached & SLO_BIT_SHED != 0 {
                breached.push("shed rate");
            }
            println!("  slo             BREACHED: {}", breached.join(", "));
        }
    }
    // Executor and adaptive-exchange visibility: climb batches executed,
    // how many ran on a worker other than their session's (steals +
    // donations), and where the exchange backoff sits now.
    let obs = moqo_obs::ObsSnapshot::capture();
    println!(
        "  exec pool       {} batches, {} steals, {} donations",
        obs.counter("exec_pool.batches"),
        obs.counter("exec_pool.steals"),
        obs.counter("exec_pool.donations"),
    );
    println!(
        "  exchange        backoff level {}, {} merged / {} offered ({} partial merged)",
        obs.counter("exchange.backoff_level"),
        obs.counter("exchange.merged"),
        obs.counter("exchange.offered"),
        obs.counter("exchange.partial_merged"),
    );
    println!(
        "  cache           {} plans / {} entries, hit rate {:.0}% ({} hits / {} lookups)",
        stats.cache.plans,
        stats.cache.entries,
        stats.cache.hit_rate() * 100.0,
        stats.cache.hits,
        stats.cache.lookups,
    );
    print_warm_start(&obs);
}

/// How much of what sessions absorbed they went on to use: plans parked by
/// table set at a warm start, and those imported when first touched.
fn print_warm_start(obs: &moqo_obs::ObsSnapshot) {
    let (parked, imported) = (obs.counter("warm.parked"), obs.counter("warm.imported"));
    println!(
        "  warm start      {parked} plans parked, {imported} imported on first touch ({:.0}%)",
        100.0 * imported as f64 / parked.max(1) as f64,
    );
}

/// Front-door mode: zipfian multi-tenant traffic through the sharded
/// [`FrontDoor`] — coalescing, quotas, and the degradation ladder active.
fn run_front_door(opts: &Options) {
    let spec = TrafficSpec {
        catalog_tables: opts.tables,
        shape: GraphShape::Chain,
        selectivity: SelectivityMethod::Steinbrunn,
        queries: opts.sessions,
        min_query_tables: opts.min_tables.unwrap_or((opts.tables / 2).max(2)),
        max_query_tables: opts.max_tables.unwrap_or(opts.tables),
        seed: opts.seed,
    };
    let templates = opts.templates.min(opts.sessions.max(1));
    let (catalog, sessions) =
        spec.generate_skewed(opts.tenants, opts.tenant_skew, templates, opts.query_skew);
    let metrics = [ResourceMetric::Time, ResourceMetric::Buffer];
    let model = Arc::new(ResourceCostModel::new(Arc::clone(&catalog), &metrics));
    let context = context_fingerprint(catalog.fingerprint(), "resource:time,buffer");
    let budget = match opts.budget_ms {
        Some(ms) => Budget::Time(Duration::from_millis(ms)),
        None => Budget::Iterations(opts.iters),
    };

    println!(
        "serve: front door, {} sessions, {} tenants (skew {}), {} templates (skew {}), {} shards x {} workers",
        opts.sessions, opts.tenants, opts.tenant_skew, templates, opts.query_skew,
        opts.shards, opts.workers,
    );
    print_catalog_summary(&catalog);

    let door = FrontDoor::new(FrontDoorConfig {
        shards: opts.shards,
        shard: ServiceConfig {
            workers: opts.workers,
            slo: opts.slo,
            ..ServiceConfig::default()
        },
        quota: QuotaConfig {
            burst: opts.quota_burst,
            refill_per_sec: opts.quota_refill,
        },
        degradation: DegradationConfig {
            enabled: opts.degrade,
            ..DegradationConfig::default()
        },
    });

    let wave_size = opts.sessions.div_ceil(opts.waves.max(1));
    let mut session_no = 0usize;
    let mut timeouts = 0usize;
    for (wave, chunk) in sessions.chunks(wave_size.max(1)).enumerate() {
        let mut handles = Vec::new();
        let mut wave_shed = 0usize;
        for session in chunk {
            let seed = opts.seed ^ (session_no as u64).wrapping_mul(0x9e37);
            session_no += 1;
            let tables = session.query.tables();
            let request = FrontRequest {
                tenant: session.tenant,
                query: tables,
                context,
                budget,
            };
            let submitted = door.submit(request, |grant| {
                let mut cfg = RmqConfig::seeded(seed);
                // A degraded grant dictates its ε factor; otherwise the
                // explicit --eps (if any) applies.
                if let Some(eps) = grant.eps.or(opts.eps) {
                    cfg.archive = ArchiveConfig::eps_box(EpsFactors::splat(eps));
                }
                Box::new(Rmq::new(Arc::clone(&model), tables, cfg))
            });
            match submitted {
                Ok(admitted) => handles.push(admitted.handle),
                // Shed requests (quota or saturation) are the expected
                // overload outcome here, not an error: count and continue.
                Err(FrontdoorError::QuotaExhausted { .. }) | Err(FrontdoorError::Saturated(_)) => {
                    wave_shed += 1
                }
            }
        }
        let admitted = handles.len();
        for handle in handles {
            if handle.wait_done(Duration::from_secs(600)).is_none() {
                timeouts += 1;
            }
        }
        println!(
            "-- wave {} done: {} admitted, {} shed",
            wave + 1,
            admitted,
            wave_shed
        );
    }
    if timeouts > 0 {
        eprintln!("{timeouts} sessions timed out");
        exit(1);
    }

    let fd = door.stats();
    println!("-- front door summary");
    println!("  offered         {}", fd.offered);
    println!("  admitted        {}", fd.admitted);
    println!(
        "  coalesced       {} ({} per mille)",
        fd.coalesced,
        fd.coalesce_per_mille()
    );
    println!("  degraded        {}", fd.degraded);
    println!(
        "  shed            {} ({} per mille; {} by quota)",
        fd.shed,
        fd.shed_per_mille(),
        fd.quota_rejected
    );
    println!("  degrade level   {}", fd.degrade_level);
    print_warm_start(&moqo_obs::ObsSnapshot::capture());
    let mut breached_any = 0u64;
    for (i, stats) in door.shard_stats().iter().enumerate() {
        breached_any |= stats.slo_breached;
        println!(
            "  shard {i}         {} done / {} submitted, ttff p99 {}, queue p99 {}, cache hit {:.0}%",
            stats.completed,
            stats.submitted,
            fmt_ms(stats.ttff_p99),
            fmt_ms(stats.queue_delay_p99),
            stats.cache.hit_rate() * 100.0,
        );
    }
    if opts.slo.is_enabled() {
        if breached_any == 0 {
            println!("  slo             ok (all targets holding on every shard)");
        } else {
            let mut breached = Vec::new();
            if breached_any & SLO_BIT_TTFF != 0 {
                breached.push("ttff p99");
            }
            if breached_any & SLO_BIT_QUEUE_DELAY != 0 {
                breached.push("queue delay p99");
            }
            if breached_any & SLO_BIT_SHED != 0 {
                breached.push("shed rate");
            }
            println!("  slo             BREACHED: {}", breached.join(", "));
        }
    }
}

fn print_catalog_summary(catalog: &Catalog) {
    println!(
        "catalog: {} tables, {} join edges",
        catalog.num_tables(),
        catalog.edges().len()
    );
}
