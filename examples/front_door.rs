//! The sharded multi-tenant front door end to end: zipfian tenant and
//! query-shape skew, request coalescing, per-tenant quotas, and the
//! SLO-aware degradation ladder.
//!
//! ```text
//! cargo run --release --example front_door
//! ```
//!
//! The example replays a skewed multi-tenant stream — a few hot tenants
//! and a few hot query shapes dominate, as in real serving traffic —
//! through a four-shard front door. Hot shapes repeat while still in
//! flight, so coalescing merges them into shared sessions (a nonzero hit
//! count is asserted); one flooding tenant exhausts its token bucket and
//! is shed without touching anyone else's admission.

use std::sync::Arc;
use std::time::Duration;

use moqo_core::optimizer::Budget;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_frontdoor::{FrontDoor, FrontDoorConfig, FrontRequest, FrontdoorError, QuotaConfig};
use moqo_service::{context_fingerprint, ServiceConfig};
use moqo_workload::TrafficSpec;

const SESSIONS: usize = 200;
const TENANTS: usize = 10;
const TEMPLATES: usize = 8;

fn main() {
    // One shared 12-table catalog; 200 sessions drawn over 8 query
    // templates and 10 tenants, both Zipf-skewed (exponent 1.0).
    let spec = TrafficSpec::chain(12, SESSIONS, 20_260_808);
    let (catalog, sessions) = spec.generate_skewed(TENANTS, 1.0, TEMPLATES, 1.0);
    let metrics = [ResourceMetric::Time, ResourceMetric::Buffer];
    let model = Arc::new(ResourceCostModel::new(Arc::clone(&catalog), &metrics));
    let context = context_fingerprint(catalog.fingerprint(), "resource:time,buffer");

    let door = FrontDoor::new(FrontDoorConfig {
        shards: 4,
        shard: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        // Each tenant may burst 40 requests, then 20/s sustained — the
        // hottest tenant of a 200-session Zipf stream exceeds this.
        quota: QuotaConfig {
            burst: 40,
            refill_per_sec: 20.0,
        },
        ..FrontDoorConfig::default()
    });
    println!(
        "front door: {} shards, {SESSIONS} sessions, {TENANTS} tenants, {TEMPLATES} templates\n",
        door.shards()
    );

    let mut handles = Vec::new();
    let mut quota_shed = 0usize;
    let mut saturated = 0usize;
    for (i, session) in sessions.iter().enumerate() {
        let tables = session.query.tables();
        let request = FrontRequest {
            tenant: session.tenant,
            query: tables,
            context,
            budget: Budget::Iterations(40),
        };
        let outcome = door.submit(request, |grant| {
            let mut cfg = RmqConfig::seeded(i as u64);
            // Degraded grants name the coarser ε-box archive the session
            // must run with; full grants keep the paper's α-schedule.
            cfg.archive = grant.archive(cfg.archive);
            Box::new(Rmq::new(Arc::clone(&model), tables, cfg))
        });
        match outcome {
            Ok(admitted) => handles.push(admitted),
            Err(FrontdoorError::QuotaExhausted { .. }) => quota_shed += 1,
            Err(FrontdoorError::Saturated(_)) => saturated += 1,
        }
    }

    for admitted in &handles {
        admitted
            .handle
            .wait_done(Duration::from_secs(120))
            .expect("session completes");
    }

    let stats = door.stats();
    println!("offered        {}", stats.offered);
    println!("admitted       {}", stats.admitted);
    println!(
        "coalesced      {} ({} per mille)",
        stats.coalesced,
        stats.coalesce_per_mille()
    );
    println!("degraded       {}", stats.degraded);
    println!("quota shed     {quota_shed}");
    println!("saturated shed {saturated}");
    for (i, s) in door.shard_stats().iter().enumerate() {
        println!(
            "shard {i}:       {} sessions, cache hit rate {:.0}%",
            s.completed,
            s.cache.hit_rate() * 100.0
        );
    }

    // Hot templates repeat while in flight: coalescing must land hits.
    assert!(stats.coalesced > 0, "skewed traffic should coalesce");
    // The hottest tenant floods past its burst: the quota must bite...
    assert!(stats.quota_rejected > 0, "the hot tenant should be shed");
    // ...while most of the stream is still served.
    assert!(stats.admitted + stats.coalesced > stats.shed);
    println!("\nskew exploited: coalescing and quotas both engaged");
}
