//! Deterministic multi-session integration test of the optimization
//! service over the full stack: workload traffic → catalog → resource
//! cost model → RMQ sessions scheduled on a bounded worker pool with
//! cross-query plan caching.

use std::sync::Arc;
use std::time::Duration;

use moqo_catalog::Query;
use moqo_core::optimizer::Budget;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_service::{
    context_fingerprint, DoneReason, OptimizationService, ServiceConfig, SessionHandle,
    SessionRequest, SessionStatus,
};
use moqo_workload::TrafficSpec;

const WAIT: Duration = Duration::from_secs(60);

struct Fixture {
    model: Arc<ResourceCostModel>,
    queries: Vec<Query>,
    context: u64,
    service: OptimizationService,
}

fn fixture(workers: usize, seed: u64) -> Fixture {
    let (catalog, queries) = TrafficSpec::chain(10, 8, seed).generate();
    let metrics = [ResourceMetric::Time, ResourceMetric::Buffer];
    let model = Arc::new(ResourceCostModel::new(Arc::clone(&catalog), &metrics));
    let context = context_fingerprint(catalog.fingerprint(), "resource:time,buffer");
    let service = OptimizationService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    Fixture {
        model,
        queries,
        context,
        service,
    }
}

impl Fixture {
    fn submit(&self, query: &Query, seed: u64, budget: Budget) -> SessionHandle {
        self.service
            .submit(SessionRequest {
                optimizer: Box::new(Rmq::new(
                    Arc::clone(&self.model),
                    query.tables(),
                    RmqConfig::seeded(seed),
                )),
                budget,
                query: query.tables(),
                context: self.context,
            })
            .expect("session admitted")
    }
}

#[test]
fn concurrent_sessions_complete_and_overlapping_queries_hit_the_cache() {
    let fx = fixture(3, 9);

    // Wave 1: four concurrent sessions, deterministic iteration budgets.
    let wave1: Vec<(usize, SessionHandle)> = (0..4)
        .map(|i| {
            (
                i,
                fx.submit(&fx.queries[i], 100 + i as u64, Budget::Iterations(60)),
            )
        })
        .collect();
    for (i, handle) in &wave1 {
        let done = handle.wait_done(WAIT).expect("wave-1 session completes");
        assert_eq!(
            done.status,
            SessionStatus::Done(DoneReason::BudgetExhausted)
        );
        assert_eq!(done.steps, 60, "iteration budgets are exact");
        assert!(!done.plans.is_empty(), "non-empty frontier");
        for plan in &done.plans {
            assert!(plan.validate(fx.queries[*i].tables()).is_ok());
            assert_eq!(plan.cost().dim(), 2);
        }
    }
    assert!(
        fx.service.cache_stats().plans > 0,
        "completed sessions publish partial plans"
    );

    // Wave 2: four more sessions over overlapping queries — the shared
    // cache must warm-start at least one of them (chain-segment queries
    // over a 10-table catalog always share sub-plans).
    let wave2: Vec<(usize, SessionHandle)> = (4..8)
        .map(|i| {
            (
                i,
                fx.submit(&fx.queries[i], 200 + i as u64, Budget::Iterations(30)),
            )
        })
        .collect();
    let mut warm_started = 0;
    for (i, handle) in &wave2 {
        let done = handle.wait_done(WAIT).expect("wave-2 session completes");
        assert!(!done.plans.is_empty());
        for plan in &done.plans {
            assert!(plan.validate(fx.queries[*i].tables()).is_ok());
        }
        if handle.absorbed_plans() > 0 {
            warm_started += 1;
        }
    }
    assert!(warm_started > 0, "no wave-2 session hit the shared cache");
    let stats = fx.service.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.live, 0);
    assert!(stats.cache.hits >= warm_started as u64);
    assert!(stats.cache.hit_rate() > 0.0);
    assert!(stats.ttff_p50.is_some() && stats.ttff_p99.is_some());
}

#[test]
fn deadline_sessions_reach_a_frontier_before_their_deadline() {
    let fx = fixture(2, 17);
    let deadline = Duration::from_millis(500);
    let handles: Vec<SessionHandle> = (0..4)
        .map(|i| fx.submit(&fx.queries[i], 300 + i as u64, Budget::Time(deadline)))
        .collect();
    for handle in &handles {
        let snap = handle
            .wait_improvement(0, deadline)
            .expect("frontier before the deadline");
        assert!(
            !snap.plans.is_empty(),
            "every session must reach a non-empty frontier before its deadline"
        );
    }
    for handle in &handles {
        let done = handle.wait_done(WAIT).expect("deadline session completes");
        assert_eq!(
            done.status,
            SessionStatus::Done(DoneReason::BudgetExhausted)
        );
        assert!(!done.plans.is_empty());
    }
}

#[test]
fn cold_wave_results_are_reproducible_across_runs() {
    // Same seeds, same traffic, no cache interference (cold service each
    // run): the frontiers must be bit-identical regardless of scheduling.
    let run = |workers: usize| -> Vec<Vec<String>> {
        let fx = fixture(workers, 23);
        let handles: Vec<(usize, SessionHandle)> = (0..4)
            .map(|i| {
                (
                    i,
                    fx.submit(&fx.queries[i], 7 + i as u64, Budget::Iterations(50)),
                )
            })
            .collect();
        handles
            .iter()
            .map(|(_, handle)| {
                let done = handle.wait_done(WAIT).expect("completes");
                let mut rendered: Vec<String> = done
                    .plans
                    .iter()
                    .map(|p| format!("{:?}|{}", p.cost().as_slice(), p.rel()))
                    .collect();
                rendered.sort();
                rendered
            })
            .collect()
    };
    assert_eq!(run(1), run(4), "results must not depend on pool size");
}
