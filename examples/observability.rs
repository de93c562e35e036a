//! The telemetry layer end to end: enable the event journal, run every
//! instrumented seam — the sequential RMQ climb, intra-query parallel
//! optimization with shared-frontier exchange, the optimization service
//! with its cross-query cache, and plan execution — then capture an
//! [`ObsSnapshot`](moqo_obs::ObsSnapshot) and check that each seam left
//! the activity it should have: stage counters for the climb's
//! screen/admit/evict pipeline, arena interning, exchange merges, service
//! admission, and exec totals, plus a journal tail and a JSON export that
//! round-trips through a parser.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use std::sync::Arc;
use std::time::Duration;

use moqo_core::archive::ArchiveConfig;
use moqo_core::optimizer::{drive, Budget, NullObserver};
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::EpsFactors;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_exec::{execute, DataGenConfig, Database};
use moqo_obs::{journal, ObsSnapshot};
use moqo_parallel::{ParRmq, ParRmqConfig};
use moqo_service::{context_fingerprint, OptimizationService, ServiceConfig, SessionRequest};
use moqo_workload::{GraphShape, SelectivityMethod, TrafficSpec, WorkloadSpec};

const ITERS: u64 = 80;

fn main() {
    // Turn the journal on for every target at Debug so each seam's events
    // land in the ring. (Disabled — the default — every emit site is one
    // relaxed atomic load and an untaken branch.)
    journal::enable_all(journal::Level::Debug);
    let before = ObsSnapshot::capture();

    // ---- 1. Sequential climb: screen/admit/evict stage counters. -------
    let (catalog, query) = WorkloadSpec {
        tables: 12,
        shape: GraphShape::Chain,
        selectivity: SelectivityMethod::Steinbrunn,
        seed: 7,
    }
    .generate();
    let metrics = [ResourceMetric::Time, ResourceMetric::Buffer];
    let model = Arc::new(ResourceCostModel::new(Arc::clone(&catalog), &metrics));
    let mut rmq = Rmq::new(Arc::clone(&model), query.tables(), RmqConfig::seeded(7));
    drive(&mut rmq, Budget::Iterations(ITERS), &mut NullObserver);
    println!(
        "climb: {} iterations over a {}-table chain, frontier {} plan(s)",
        ITERS,
        catalog.num_tables(),
        rmq.frontier().len()
    );

    // ---- 1b. ε-box archive: precision-bounded frontier + ε-rejects. ----
    let eps_cfg = RmqConfig {
        archive: ArchiveConfig::eps_box(EpsFactors::splat(1.5)),
        ..RmqConfig::seeded(7)
    };
    let mut eps_rmq = Rmq::new(Arc::clone(&model), query.tables(), eps_cfg);
    drive(&mut eps_rmq, Budget::Iterations(ITERS), &mut NullObserver);
    println!(
        "eps-box: same workload at ε = 1.5, frontier {} plan(s)",
        eps_rmq.frontier().len()
    );

    // ---- 2. Parallel optimization: exchange offered/merged. ---
    let cfg = ParRmqConfig::seeded(11, 3);
    let mut par = ParRmq::new(Arc::clone(&model), query.tables(), cfg);
    par.optimize(Budget::Iterations(ITERS));
    println!("parallel: 3 workers exchanged through the shared frontier");

    // ---- 3. Service: admission, queue delay, cache warm starts. --------
    let (svc_catalog, queries) = TrafficSpec::chain(10, 6, 42).generate();
    let svc_model = Arc::new(ResourceCostModel::new(
        Arc::clone(&svc_catalog),
        &[ResourceMetric::Time, ResourceMetric::Buffer],
    ));
    let context = context_fingerprint(svc_catalog.fingerprint(), "resource:time,buffer");
    let service = OptimizationService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            service
                .submit(SessionRequest {
                    optimizer: Box::new(Rmq::new(
                        Arc::clone(&svc_model),
                        q.tables(),
                        RmqConfig::seeded(100 + i as u64),
                    )),
                    budget: Budget::Iterations(40),
                    query: q.tables(),
                    context,
                })
                .expect("session admitted")
        })
        .collect();
    for handle in &handles {
        let done = handle.wait_done(Duration::from_secs(600)).expect("done");
        assert!(!done.plans.is_empty());
    }
    let stats = service.stats();
    print!(
        "service: {} sessions completed on 2 workers",
        stats.completed
    );
    if let (Some(p50), Some(p99)) = (stats.queue_delay_p50, stats.queue_delay_p99) {
        print!(
            ", queue delay p50 {:.2}ms / p99 {:.2}ms",
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3
        );
    }
    println!();

    // ---- 4. Execution: per-operator totals from one frontier plan. -----
    let db = Database::generate(
        &catalog,
        DataGenConfig {
            seed: 7,
            max_rows: 500,
        },
    );
    let plan = rmq.frontier().into_iter().next().expect("frontier plan");
    let exec = execute(&plan, &catalog, &db).expect("plan executes");
    println!(
        "exec: {} tuples processed, {} result row(s)\n",
        exec.stats.tuples_processed,
        exec.result.len()
    );

    // ---- Snapshot: every seam must have recorded activity. --------------
    let snap = ObsSnapshot::capture();
    let delta = |name: &str| snap.counter(name) - before.counter(name);
    for (name, explain) in [
        ("rmq.iterations", "completed climb iterations"),
        ("climb.candidates", "mutations generated by the climb"),
        ("climb.rejected", "candidates screened out before admission"),
        (
            "pareto.eps_rejects",
            "candidates folded into an occupied ε-box",
        ),
        ("arena.interns", "plan nodes interned in the arena"),
        ("arena.dedup_hits", "structural duplicates the arena folded"),
        (
            "exchange.partial_offered",
            "plans workers offered to the exchange",
        ),
        (
            "exchange.partial_merged",
            "plans the shared frontier admitted",
        ),
        ("service.submitted", "sessions past admission control"),
        ("exec.runs", "plans executed to completion"),
    ] {
        let n = delta(name);
        assert!(n > 0, "counter `{name}` stayed zero — seam not exercised");
        println!("  {name:<22} {n:>9}  ({explain})");
    }
    // Every frontier here stays below `SOA_CROSSOVER` and is screened by
    // its member scan, so the block kernel has nothing to count.
    println!(
        "  {:<22} {:>9}  (SoA blocks swept; 0 below the block-index crossover)",
        "pareto.blocks_screened",
        delta("pareto.blocks_screened")
    );
    // Cache probes split into hit/miss counters; every admitted session
    // probes once, so the sum must cover the whole wave.
    let lookups = delta("cache.hits") + delta("cache.misses");
    assert!(
        lookups >= handles.len() as u64,
        "every session must probe the cross-query cache"
    );
    println!(
        "  {:<22} {lookups:>9}  (cross-query cache probes)",
        "cache.*"
    );
    // The archive-size gauge reports the last flushed frontier size —
    // some optimizer above must have left a nonzero final archive.
    assert!(
        snap.counter("pareto.archive_size") > 0,
        "archive-size gauge stayed zero"
    );

    // The JSON export must round-trip through a parser with the documented
    // shape: schema tag, counters object, histograms object, events array.
    let json = snap.to_json();
    let value: serde_json::Value = serde_json::from_str(&json).expect("snapshot JSON parses");
    assert_eq!(
        value.get("schema").and_then(serde_json::Value::as_u64),
        Some(1)
    );
    let events = value
        .get("events")
        .and_then(serde_json::Value::as_array)
        .expect("events array");
    assert!(!events.is_empty(), "journal captured no events");
    println!(
        "\nsnapshot: {} byte JSON export, {} journal event(s); last event:",
        json.len(),
        events.len()
    );
    println!("  {}", events.last().unwrap().to_json());

    journal::disable();
    println!("\nok: all instrumented seams recorded activity");
}
