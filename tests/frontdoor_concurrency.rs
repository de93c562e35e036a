//! Integration tests of the sharded multi-tenant front door over the full
//! stack: skewed workload traffic → catalog → resource cost model → RMQ
//! sessions routed through shard-local services, with request coalescing,
//! per-tenant quotas, and the SLO-aware degradation ladder.

use std::sync::Arc;
use std::time::Duration;

use moqo_core::optimizer::Budget;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_frontdoor::{
    DegradationConfig, DegradeLevel, FrontDoor, FrontDoorConfig, FrontRequest, FrontdoorError,
    Grant, QuotaConfig,
};
use moqo_service::{context_fingerprint, AdmissionConfig, ServiceConfig, SloConfig};
use moqo_workload::TrafficSpec;

const WAIT: Duration = Duration::from_secs(60);

struct Fixture {
    model: Arc<ResourceCostModel>,
    queries: Vec<moqo_catalog::Query>,
    context: u64,
}

fn fixture(seed: u64) -> Fixture {
    let (catalog, queries) = TrafficSpec::chain(10, 8, seed).generate();
    let metrics = [ResourceMetric::Time, ResourceMetric::Buffer];
    let model = Arc::new(ResourceCostModel::new(Arc::clone(&catalog), &metrics));
    let context = context_fingerprint(catalog.fingerprint(), "resource:time,buffer");
    Fixture {
        model,
        queries,
        context,
    }
}

impl Fixture {
    fn request(&self, tenant: u64, query_no: usize, budget: Budget) -> FrontRequest {
        FrontRequest {
            tenant,
            query: self.queries[query_no].tables(),
            context: self.context,
            budget,
        }
    }

    /// The session optimizer for `grant`: a degraded grant runs its ε-box
    /// archive, a full one the paper's schedule.
    fn build(
        &self,
        seed: u64,
        tables: TableSet,
        grant: &Grant,
    ) -> Box<Rmq<Arc<ResourceCostModel>>> {
        let mut cfg = RmqConfig::seeded(seed);
        cfg.archive = grant.archive(cfg.archive);
        Box::new(Rmq::new(Arc::clone(&self.model), tables, cfg))
    }
}

#[test]
fn coalesced_subscribers_share_epoch_numbered_snapshots() {
    let fx = fixture(11);
    let door = FrontDoor::new(FrontDoorConfig {
        shards: 2,
        ..FrontDoorConfig::default()
    });

    // A time budget keeps the leader in flight long enough for the
    // subscribers to join it deterministically.
    let budget = Budget::Time(Duration::from_millis(400));
    let tables = fx.queries[0].tables();
    let leader = door
        .submit(fx.request(3, 0, budget), |grant| fx.build(1, tables, grant))
        .expect("leader admitted");
    assert!(!leader.coalesced, "first request leads");

    // Concurrent identical requests coalesce: no new optimizer is built.
    let subscribers: Vec<_> = (0..4)
        .map(|_| {
            door.submit(fx.request(3, 0, budget), |_| {
                panic!("coalesced request must not build an optimizer")
            })
            .expect("subscriber admitted")
        })
        .collect();
    for s in &subscribers {
        assert!(s.coalesced);
        assert_eq!(s.shard, leader.shard, "same key routes to the same shard");
    }

    // Every subscriber's stream is the leader's stream: identical
    // epoch-numbered snapshots, identical final frontier.
    let done = leader.handle.wait_done(WAIT).expect("leader finishes");
    for s in &subscribers {
        let view = s.handle.wait_done(WAIT).expect("subscriber sees the end");
        assert_eq!(view.epoch, done.epoch, "same epoch numbering");
        assert_eq!(view.steps, done.steps);
        assert_eq!(view.plans.len(), done.plans.len());
        for (a, b) in view.plans.iter().zip(&done.plans) {
            assert!(Arc::ptr_eq(a, b), "identical frontier contents");
        }
    }

    let stats = door.stats();
    assert_eq!(stats.offered, 5);
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.coalesced, 4);
    assert_eq!(stats.shed, 0);
}

#[test]
fn late_subscriber_catches_up_from_the_current_epoch() {
    let fx = fixture(13);
    let door = FrontDoor::new(FrontDoorConfig::default());

    let budget = Budget::Time(Duration::from_millis(500));
    let tables = fx.queries[1].tables();
    let leader = door
        .submit(fx.request(9, 1, budget), |grant| fx.build(2, tables, grant))
        .expect("leader admitted");

    // Wait until the leader has visibly progressed (epoch ≥ 1)...
    let seen = leader
        .handle
        .wait_improvement(0, WAIT)
        .expect("leader publishes a first frontier");
    assert!(seen.epoch >= 1);

    // ...then join late. The subscriber's *first* observation already sits
    // at the leader's current epoch — catch-up is a read, not a replay.
    let late = door
        .submit(fx.request(9, 1, budget), |_| {
            panic!("late subscriber must coalesce")
        })
        .expect("late subscriber admitted");
    assert!(late.coalesced);
    assert!(
        late.handle.snapshot().epoch >= seen.epoch,
        "late subscriber starts at the current epoch, not epoch 0"
    );
    leader.handle.wait_done(WAIT).expect("leader finishes");
}

#[test]
fn quota_exhaustion_sheds_only_the_flooding_tenant() {
    let fx = fixture(17);
    let door = FrontDoor::new(FrontDoorConfig {
        shards: 4,
        // Admission-only shards: quota accounting is what's under test.
        shard: ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
        quota: QuotaConfig {
            burst: 5,
            refill_per_sec: 0.0,
        },
        ..FrontDoorConfig::default()
    });

    // Tenant 1 floods: distinct queries (no coalescing), 20 requests
    // against a burst of 5.
    let mut admitted = 0;
    let mut shed = 0;
    for i in 0..20 {
        let q = i % fx.queries.len();
        let tables = fx.queries[q].tables();
        match door.submit(fx.request(1, q, Budget::Iterations(10)), |grant| {
            fx.build(50 + i as u64, tables, grant)
        }) {
            Ok(_) => admitted += 1,
            Err(FrontdoorError::QuotaExhausted { tenant }) => {
                assert_eq!(tenant, 1);
                shed += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert_eq!(admitted, 5, "burst bounds the flood");
    assert_eq!(shed, 15);

    // Tenant 2's bucket is untouched: all its requests are admitted.
    for i in 0..5 {
        let tables = fx.queries[i].tables();
        door.submit(fx.request(2, i, Budget::Iterations(10)), |grant| {
            fx.build(80 + i as u64, tables, grant)
        })
        .expect("quiet tenant unaffected by the flood");
    }

    let stats = door.stats();
    assert_eq!(stats.quota_rejected, 15);
    assert_eq!(stats.shed, 15);
    assert_eq!(stats.admitted, 10);
}

#[test]
fn degradation_ladder_escalates_with_shard_pressure_then_sheds() {
    let fx = fixture(19);
    let cap = 16;
    let door = FrontDoor::new(FrontDoorConfig {
        shards: 1,
        // Zero workers: admitted sessions stay live, so shard pressure is
        // exactly the number of submissions — fully deterministic.
        shard: ServiceConfig {
            workers: 0,
            admission: AdmissionConfig {
                max_live_sessions: cap,
            },
            ..ServiceConfig::default()
        },
        degradation: DegradationConfig::default(),
        ..FrontDoorConfig::default()
    });

    let mut levels = Vec::new();
    let mut shed = 0;
    for i in 0..cap + 4 {
        let q = i % fx.queries.len();
        let tables = fx.queries[q].tables();
        // Distinct tenants defeat coalescing so every request is fresh.
        match door.submit(
            fx.request(1000 + i as u64, q, Budget::Iterations(100)),
            |grant| {
                assert!(
                    grant.eps.is_some() == (grant.level != DegradeLevel::Full),
                    "degraded grants carry the ε factor"
                );
                fx.build(i as u64, tables, grant)
            },
        ) {
            Ok(a) => levels.push(a.grant.level),
            Err(FrontdoorError::Saturated(_)) => shed += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }

    // The ladder escalates deterministically with live-session pressure:
    // full precision while idle, coarser ε from a quarter of the cap,
    // reduced budget from half the cap on (early, so a filling queue is
    // mostly cheap sessions) — and only past the cap is anything shed.
    assert_eq!(levels.len(), cap);
    assert_eq!(levels[0], DegradeLevel::Full);
    assert_eq!(
        levels[cap / 4 - 1],
        DegradeLevel::Full,
        "below quarter: full"
    );
    assert_eq!(
        levels[cap / 4],
        DegradeLevel::CoarseEps,
        "at quarter: coarser"
    );
    assert_eq!(levels[cap / 2 - 1], DegradeLevel::CoarseEps, "below half");
    assert_eq!(levels[cap / 2], DegradeLevel::ReducedBudget, "from half on");
    assert_eq!(levels[cap - 1], DegradeLevel::ReducedBudget, "near cap");
    assert_eq!(shed, 4, "shed only after both degradation steps");
    assert!(door.stats().degraded > 0);
    assert_eq!(door.stats().degrade_level, 2);

    // Degraded grants actually reduce iteration budgets (50% default).
    let reduced = levels
        .iter()
        .position(|&l| l == DegradeLevel::ReducedBudget)
        .unwrap();
    let tables = fx.queries[0].tables();
    drop(door);
    // Rebuild a saturated door just past the reduced-budget threshold and
    // check the grant's budget arithmetic end to end.
    let door = FrontDoor::new(FrontDoorConfig {
        shards: 1,
        shard: ServiceConfig {
            workers: 0,
            admission: AdmissionConfig {
                max_live_sessions: cap,
            },
            ..ServiceConfig::default()
        },
        ..FrontDoorConfig::default()
    });
    for i in 0..reduced {
        let q = i % fx.queries.len();
        let t = fx.queries[q].tables();
        door.submit(
            fx.request(2000 + i as u64, q, Budget::Iterations(100)),
            |grant| fx.build(i as u64, t, grant),
        )
        .expect("filling the shard");
    }
    let last = door
        .submit(fx.request(4000, 0, Budget::Iterations(100)), |grant| {
            fx.build(99, tables, grant)
        })
        .expect("reduced-budget admission");
    assert_eq!(last.grant.level, DegradeLevel::ReducedBudget);
    assert_eq!(last.grant.budget, Budget::Iterations(50));
}

#[test]
fn hot_tenant_cannot_breach_a_quiet_tenants_ttff_slo() {
    let fx = fixture(23);
    let slo = SloConfig {
        // Generous target: a dedicated shard with its own workers serves
        // small sessions orders of magnitude faster than this.
        ttff_p99: Some(Duration::from_secs(5)),
        ..SloConfig::default()
    };
    let door = FrontDoor::new(FrontDoorConfig {
        shards: 2,
        shard: ServiceConfig {
            workers: 2,
            admission: AdmissionConfig {
                max_live_sessions: 8,
            },
            slo,
        },
        ..FrontDoorConfig::default()
    });

    // Find a hot and a quiet tenant routed to *different* shards.
    let hot = 1u64;
    let hot_shard = door.shard_of(hot, fx.context);
    let quiet = (2..64)
        .find(|&t| door.shard_of(t, fx.context) != hot_shard)
        .expect("some tenant routes elsewhere");
    let quiet_shard = door.shard_of(quiet, fx.context);

    // The hot tenant floods its shard far past the live-session cap with
    // long sessions; sheds are expected and tolerated.
    let mut hot_handles = Vec::new();
    for i in 0..32 {
        let q = i % fx.queries.len();
        let tables = fx.queries[q].tables();
        if let Ok(a) = door.submit(fx.request(hot, q, Budget::Iterations(2_000)), |grant| {
            fx.build(300 + i as u64, tables, grant)
        }) {
            hot_handles.push(a.handle);
        }
    }

    // Meanwhile the quiet tenant runs a handful of small sessions.
    let mut quiet_handles = Vec::new();
    for i in 0..4 {
        let q = i % fx.queries.len();
        let tables = fx.queries[q].tables();
        let a = door
            .submit(fx.request(quiet, q, Budget::Iterations(20)), |grant| {
                fx.build(400 + i as u64, tables, grant)
            })
            .expect("quiet tenant admitted despite the flood");
        assert_eq!(a.shard, quiet_shard, "quiet tenant stays on its shard");
        quiet_handles.push(a.handle);
    }
    for h in &quiet_handles {
        h.wait_done(WAIT).expect("quiet session completes");
    }

    // The quiet shard's TTFF SLO holds: the flood saturated a *different*
    // scheduler, worker pool, and stats domain.
    let quiet_stats = door.shard_service_stats(quiet_shard);
    assert_eq!(quiet_stats.slo_breached, 0, "quiet tenant's SLO must hold");
    assert_eq!(quiet_stats.rejected, 0, "no quiet-shard sheds");
    assert!(quiet_stats.ttff_p99.expect("ttff recorded") < Duration::from_secs(5));

    // And the flood demonstrably stressed its own shard.
    let hot_stats = door.shard_service_stats(hot_shard);
    assert!(
        hot_stats.rejected > 0 || door.stats().degraded > 0,
        "the flood should have triggered degradation or shedding"
    );
    for h in &hot_handles {
        h.wait_done(WAIT).expect("hot session completes");
    }
}
