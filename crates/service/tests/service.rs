//! Integration tests of the optimization service: scheduling, budgets,
//! admission, cancellation, cross-query caching, and statistics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moqo_baselines::DpOptimizer;
use moqo_core::model::testing::StubModel;
use moqo_core::optimizer::Budget;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_parallel::{ParRmq, ParRmqConfig};
use moqo_service::{
    AdmissionError, DoneReason, OptimizationService, ServiceConfig, SessionRequest, SessionStatus,
    SloConfig, SLO_BIT_SHED, SLO_BIT_TTFF, STEPS_PER_SLICE,
};

/// Long enough that nothing times out under load, short enough to fail
/// fast when the scheduler deadlocks.
const WAIT: Duration = Duration::from_secs(30);

fn service(workers: usize) -> OptimizationService {
    OptimizationService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
}

fn rmq_request(
    model: &Arc<StubModel>,
    tables: TableSet,
    seed: u64,
    budget: Budget,
    context: u64,
) -> SessionRequest {
    SessionRequest {
        optimizer: Box::new(Rmq::new(Arc::clone(model), tables, RmqConfig::seeded(seed))),
        budget,
        query: tables,
        context,
    }
}

#[test]
fn single_session_runs_to_completion() {
    let service = service(2);
    let model = Arc::new(StubModel::line(6, 2, 42));
    let handle = service
        .submit(rmq_request(
            &model,
            TableSet::prefix(6),
            7,
            Budget::Iterations(30),
            1,
        ))
        .expect("admitted");
    let done = handle.wait_done(WAIT).expect("completes");
    assert_eq!(
        done.status,
        SessionStatus::Done(DoneReason::BudgetExhausted)
    );
    assert!(!done.plans.is_empty(), "frontier must be non-empty");
    assert_eq!(done.steps, 30, "iteration budgets are exact");
    assert!(done.epoch >= 1, "at least one improvement epoch");
    for p in &done.plans {
        assert!(p.validate(TableSet::prefix(6)).is_ok());
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.live, 0);
    assert!(stats.ttff_p50.is_some());
}

#[test]
fn many_concurrent_sessions_all_finish_on_a_small_pool() {
    // 12 sessions, 2 workers: cooperative slicing must interleave them all
    // (each session runs 5 slices).
    let service = service(2);
    let model = Arc::new(StubModel::line(7, 2, 3));
    let budget = 5 * STEPS_PER_SLICE;
    let handles: Vec<_> = (0..12)
        .map(|i| {
            service
                .submit(rmq_request(
                    &model,
                    TableSet::prefix(7),
                    100 + i,
                    Budget::Iterations(budget),
                    2,
                ))
                .expect("admitted")
        })
        .collect();
    for handle in &handles {
        let done = handle.wait_done(WAIT).expect("completes");
        assert!(done.status.is_done());
        assert!(!done.plans.is_empty());
        assert_eq!(done.steps, budget);
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.total_steps, 12 * budget);
    assert!(stats.throughput_per_sec > 0.0);
}

#[test]
fn iteration_budget_sessions_are_deterministic_under_concurrency() {
    // The same seeded session must produce the same frontier regardless of
    // pool size or co-scheduled traffic (no warm starts: distinct
    // contexts), because iteration budgets are exact and RMQ is
    // deterministic given its seed. Each session spans several slices.
    let model = Arc::new(StubModel::line(6, 2, 9));
    let run = |workers: usize, context: u64, noise: bool| -> Vec<String> {
        let service = service(workers);
        let noise_handles: Vec<_> = if noise {
            (0..4)
                .map(|i| {
                    service
                        .submit(rmq_request(
                            &model,
                            TableSet::prefix(4),
                            900 + i,
                            Budget::Iterations(100),
                            context + 1000,
                        ))
                        .expect("admitted")
                })
                .collect()
        } else {
            Vec::new()
        };
        let handle = service
            .submit(rmq_request(
                &model,
                TableSet::prefix(6),
                55,
                Budget::Iterations(120),
                context,
            ))
            .expect("admitted");
        let done = handle.wait_done(WAIT).expect("completes");
        for h in noise_handles {
            h.wait_done(WAIT).expect("noise completes");
        }
        let mut rendered: Vec<String> = done
            .plans
            .iter()
            .map(|p| p.display(model.as_ref()))
            .collect();
        rendered.sort();
        rendered
    };
    let alone = run(1, 10, false);
    let crowded = run(4, 20, true);
    assert_eq!(alone, crowded, "frontier must not depend on scheduling");
}

#[test]
fn deadline_sessions_produce_a_frontier_before_the_deadline() {
    let service = service(2);
    let model = Arc::new(StubModel::line(8, 2, 5));
    let deadline = Duration::from_millis(400);
    let submitted = Instant::now();
    let handle = service
        .submit(rmq_request(
            &model,
            TableSet::prefix(8),
            1,
            Budget::Time(deadline),
            3,
        ))
        .expect("admitted");
    // A usable frontier must appear well before the deadline...
    let snap = handle
        .wait_improvement(0, deadline)
        .expect("first frontier before deadline");
    assert!(!snap.plans.is_empty());
    assert!(
        submitted.elapsed() < deadline,
        "first frontier arrived only after the deadline"
    );
    // ...and the session must then finish once the deadline passes.
    let done = handle.wait_done(WAIT).expect("completes");
    assert_eq!(
        done.status,
        SessionStatus::Done(DoneReason::BudgetExhausted)
    );
    assert!(done.steps > 0);
}

#[test]
fn exhausting_optimizers_finish_early() {
    // DP enumerates a finite space: the session must finish with
    // OptimizerExhausted long before its (huge) iteration budget.
    let service = service(1);
    let model = Arc::new(StubModel::line(4, 2, 11));
    let tables = TableSet::prefix(4);
    let handle = service
        .submit(SessionRequest {
            optimizer: Box::new(DpOptimizer::new(Arc::clone(&model), tables, 1.0)),
            budget: Budget::Iterations(u64::MAX),
            query: tables,
            context: 4,
        })
        .expect("admitted");
    let done = handle.wait_done(WAIT).expect("completes");
    assert_eq!(
        done.status,
        SessionStatus::Done(DoneReason::OptimizerExhausted)
    );
    assert!(!done.plans.is_empty());
}

#[test]
fn admission_control_rejects_when_full() {
    // workers: 0 — sessions queue without running, so the bound is exact.
    let service = OptimizationService::new(ServiceConfig {
        workers: 0,
        admission: moqo_service::AdmissionConfig {
            max_live_sessions: 3,
        },
        ..ServiceConfig::default()
    });
    let model = Arc::new(StubModel::line(4, 2, 1));
    let tables = TableSet::prefix(4);
    for i in 0..3 {
        service
            .submit(rmq_request(&model, tables, i, Budget::Iterations(5), 5))
            .expect("under the bound");
    }
    let err = service
        .submit(rmq_request(&model, tables, 99, Budget::Iterations(5), 5))
        .expect_err("bound reached");
    assert_eq!(err, AdmissionError::QueueFull { live: 3, limit: 3 });
    assert_eq!(service.queued(), 3);
    let stats = service.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.rejected, 1);
    // Shutdown aborts the queued sessions.
    service.shutdown();
}

#[test]
fn shutdown_aborts_queued_sessions() {
    let service = OptimizationService::new(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let model = Arc::new(StubModel::line(4, 2, 1));
    let tables = TableSet::prefix(4);
    let handle = service
        .submit(rmq_request(&model, tables, 1, Budget::Iterations(5), 6))
        .expect("admitted");
    drop(service);
    let done = handle.wait_done(WAIT).expect("finalized by shutdown");
    assert_eq!(
        done.status,
        SessionStatus::Done(DoneReason::ServiceShutdown)
    );
}

#[test]
fn cancellation_finishes_a_session_early() {
    let service = service(1);
    let model = Arc::new(StubModel::line(6, 2, 2));
    let tables = TableSet::prefix(6);
    // A deadline far in the future: only cancellation can end it soon.
    let handle = service
        .submit(rmq_request(
            &model,
            tables,
            1,
            Budget::Time(Duration::from_secs(3600)),
            7,
        ))
        .expect("admitted");
    handle.wait_improvement(0, WAIT).expect("starts running");
    handle.cancel();
    let done = handle.wait_done(WAIT).expect("cancelled promptly");
    assert_eq!(done.status, SessionStatus::Done(DoneReason::Cancelled));
    assert_eq!(service.stats().cancelled, 1);
}

#[test]
fn overlapping_queries_warm_start_from_the_shared_cache() {
    let service = service(2);
    let model = Arc::new(StubModel::line(8, 2, 21));
    let context = 8;
    // First wave: optimize two overlapping sub-queries to completion.
    let first: Vec<_> = [TableSet::prefix(6), TableSet::prefix(4)]
        .into_iter()
        .enumerate()
        .map(|(i, tables)| {
            service
                .submit(rmq_request(
                    &model,
                    tables,
                    i as u64,
                    Budget::Iterations(40),
                    context,
                ))
                .expect("admitted")
        })
        .collect();
    for h in &first {
        h.wait_done(WAIT).expect("first wave completes");
        assert_eq!(h.absorbed_plans(), 0, "cold cache: nothing to absorb");
    }
    assert!(service.cache_stats().plans > 0, "plans were published");

    // Second wave: a larger overlapping query warm-starts from the cache.
    let handle = service
        .submit(rmq_request(
            &model,
            TableSet::prefix(8),
            9,
            Budget::Iterations(40),
            context,
        ))
        .expect("admitted");
    assert!(
        handle.absorbed_plans() > 0,
        "overlapping query must hit the cross-query cache"
    );
    let done = handle.wait_done(WAIT).expect("completes");
    assert!(!done.plans.is_empty());
    let cache = service.cache_stats();
    assert!(cache.hits >= 1);
    assert!(cache.hit_rate() > 0.0);

    // A foreign context must not see these plans.
    let foreign = service
        .submit(rmq_request(
            &model,
            TableSet::prefix(8),
            10,
            Budget::Iterations(5),
            999,
        ))
        .expect("admitted");
    assert_eq!(foreign.absorbed_plans(), 0, "context isolation");
    foreign.wait_done(WAIT).expect("completes");
}

#[test]
fn streaming_updates_yield_monotone_epochs_and_end_at_completion() {
    let service = service(2);
    let model = Arc::new(StubModel::line(7, 2, 13));
    let tables = TableSet::prefix(7);
    let handle = service
        .submit(rmq_request(&model, tables, 3, Budget::Iterations(60), 11))
        .expect("admitted");
    let mut last_epoch = 0;
    let mut saw_final = false;
    let mut snapshots = Vec::new();
    for snap in handle.updates() {
        assert!(snap.epoch > last_epoch || snap.status.is_done());
        last_epoch = snap.epoch.max(last_epoch);
        saw_final = snap.status.is_done();
        snapshots.push(snap);
    }
    assert!(saw_final, "subscription must end with the final snapshot");
    assert!(!snapshots.is_empty());
    // Anytime guarantee: the final frontier covers every earlier snapshot
    // (no regression — later frontiers approximately dominate earlier
    // ones, cf. `more_iterations_never_hurt_frontier_quality` in core).
    let last = snapshots.last().unwrap();
    for snap in &snapshots {
        for plan in &snap.plans {
            let covered = last
                .plans
                .iter()
                .any(|l| l.cost().approx_dominates(plan.cost(), 1.0 + 1e-9));
            assert!(covered, "final frontier regressed vs an earlier snapshot");
        }
    }
}

#[test]
fn service_optimizer_trait_objects_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Box<dyn moqo_service::PlanExchange>>();
    assert_send::<Rmq<Arc<StubModel>>>();
    assert_send::<moqo_service::SessionHandle>();
}

#[test]
fn fanned_out_sessions_run_through_the_service() {
    // A ParRmq session is scheduled like any other optimizer: one pool
    // worker steps it, and each step fans out over its own intra-query
    // threads. Iteration budgets stay exact (counted in rounds).
    let service = service(2);
    let model = Arc::new(StubModel::line(7, 2, 17));
    let tables = TableSet::prefix(7);
    let mut cfg = ParRmqConfig::seeded(3, 2);
    cfg.batch = 4;
    let par = ParRmq::new(Arc::clone(&model), tables, cfg);
    let handle = service
        .submit(SessionRequest {
            optimizer: Box::new(par),
            budget: Budget::Iterations(6), // 6 rounds × (2 workers × 4 batch)
            query: tables,
            context: 31,
        })
        .expect("admitted");
    let done = handle.wait_done(WAIT).expect("completes");
    assert_eq!(
        done.status,
        SessionStatus::Done(DoneReason::BudgetExhausted)
    );
    assert_eq!(done.steps, 6);
    assert!(!done.plans.is_empty());
    for p in &done.plans {
        assert!(p.validate(tables).is_ok());
    }
    let stats = service.stats();
    assert_eq!(stats.multi_worker_sessions, 1);
    assert_eq!(stats.fan_out_submitted, 2);
}

#[test]
fn completed_sessions_record_convergence_latency() {
    // A finished session reduces its anytime-convergence checkpoints to a
    // time-to-90%-of-final-hypervolume sample, surfaced beside TTFF.
    let service = service(2);
    let model = Arc::new(StubModel::line(7, 2, 29));
    let handle = service
        .submit(rmq_request(
            &model,
            TableSet::prefix(7),
            4,
            Budget::Iterations(40),
            13,
        ))
        .expect("admitted");
    handle.wait_done(WAIT).expect("completes");
    let stats = service.stats();
    let tt90 = stats.tt90_p50.expect("convergence curve yields a tt90");
    assert_eq!(stats.tt90_p99, Some(tt90), "one sample: p50 == p99");
    assert_eq!(stats.slo_breached, 0, "no SLO targets configured");
}

#[test]
fn slo_breaches_surface_in_service_stats() {
    // A zero TTFF target is unmeetable (every real TTFF is positive), and
    // rejecting half the offered load breaches a 100-per-mille shed
    // target: both bits must show in the stats snapshot.
    let service = OptimizationService::new(ServiceConfig {
        workers: 2,
        admission: moqo_service::AdmissionConfig {
            max_live_sessions: 1,
        },
        slo: SloConfig {
            ttff_p99: Some(Duration::ZERO),
            shed_per_mille: Some(100),
            ..SloConfig::default()
        },
    });
    let model = Arc::new(StubModel::line(5, 2, 7));
    let tables = TableSet::prefix(5);
    let handle = service
        .submit(rmq_request(&model, tables, 1, Budget::Iterations(20), 14))
        .expect("admitted");
    // The live-session bound is 1, so this offer is shed.
    service
        .submit(rmq_request(&model, tables, 2, Budget::Iterations(20), 14))
        .expect_err("second live session exceeds the bound");
    handle.wait_done(WAIT).expect("completes");
    // Re-evaluation happens at completion; both targets are now breached.
    let stats = service.stats();
    assert_eq!(stats.slo_breached & SLO_BIT_TTFF, SLO_BIT_TTFF);
    assert_eq!(stats.slo_breached & SLO_BIT_SHED, SLO_BIT_SHED);
}

#[test]
fn updates_stream_gives_up_when_nothing_steps_the_session() {
    // workers: 0 — the session is admitted but never stepped; the stream
    // must end via its idle timeout instead of spinning forever.
    let service = OptimizationService::new(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let model = Arc::new(StubModel::line(4, 2, 1));
    let tables = TableSet::prefix(4);
    let handle = service
        .submit(rmq_request(&model, tables, 1, Budget::Iterations(5), 12))
        .expect("admitted");
    let started = Instant::now();
    let yielded: Vec<_> = handle
        .updates()
        .with_idle_timeout(Duration::from_millis(300))
        .collect();
    assert!(yielded.is_empty(), "nothing ran, nothing to yield");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stream must terminate promptly via the idle timeout"
    );
}

/// The cross-query cache ends where it ended when every finished session
/// re-published all it had absorbed — without the echo. Serial traffic on
/// one worker, so every count repeats exactly: 40 sessions over 6 query
/// templates (5–9 of 12 chain tables), 40 iterations each.
#[test]
fn serial_sessions_leave_the_cache_as_an_echoing_publish_did() {
    use moqo_cost::{ResourceCostModel, ResourceMetric};
    use moqo_workload::TrafficSpec;

    let spec = TrafficSpec {
        min_query_tables: 5,
        max_query_tables: 9,
        ..TrafficSpec::chain(12, 40, 7)
    };
    let (catalog, sessions) = spec.generate_skewed(1, 0.0, 6, 1.0);
    let model = Arc::new(ResourceCostModel::new(
        catalog,
        &[ResourceMetric::Time, ResourceMetric::Buffer],
    ));
    let service = OptimizationService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut warm_started = 0;
    for (i, session) in sessions.iter().enumerate() {
        let tables = session.query.tables();
        let handle = service
            .submit(SessionRequest {
                optimizer: Box::new(Rmq::new(
                    Arc::clone(&model),
                    tables,
                    RmqConfig::seeded(i as u64),
                )),
                budget: Budget::Iterations(40),
                query: tables,
                context: 1,
            })
            .expect("admitted");
        handle.wait_done(WAIT).expect("completes");
        warm_started += usize::from(handle.absorbed_plans() > 0);
    }
    assert_eq!(warm_started, 39);
    // Without the echo, the exact rule admits every plan a session
    // publishes.
    let stats = service.cache_stats();
    assert_eq!(
        (stats.plans, stats.entries, stats.published),
        (1301, 587, 1423)
    );
    assert_eq!(stats.rejected, 0);
}
