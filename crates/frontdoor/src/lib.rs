//! # moqo-frontdoor — a sharded multi-tenant front door
//!
//! `moqo-service` is one in-process scheduler with one global plan cache —
//! the right shape for one tenant, the wrong one for "millions of users":
//! every submission crosses the same scheduler mutex and every query hits
//! the same cache. This crate puts a **front door** in front of it:
//!
//! * **Sharding** — [`FrontDoor`] runs `shards` independent
//!   [`OptimizationService`]s and routes every request by a hash of
//!   `(tenant, context fingerprint)`. Shards share *nothing*: each has its
//!   own scheduler lock, executor pool, cross-query plan cache, and SLO
//!   monitor, so a saturated tenant cannot contend a quiet tenant's shard.
//! * **Request coalescing** — concurrent requests for an identical
//!   `(tenant, context, table set)` are merged into one optimization. The
//!   subscriber gets a clone of the leader's [`SessionHandle`]; cloned
//!   handles share the session's state, so all subscribers observe the
//!   same epoch-numbered frontier snapshots and a late subscriber reads
//!   the current epoch immediately (see [`coalesce`](self)).
//! * **Per-tenant quotas** — token buckets ([`QuotaConfig`]) bound each
//!   tenant's request rate independently; an exhausted bucket sheds *that
//!   tenant's* requests with [`FrontdoorError::QuotaExhausted`] and a
//!   `quota_breach` journal event.
//! * **SLO-aware degradation** — before any request is shed for load, new
//!   sessions step down a ladder ([`DegradationConfig`]): full precision →
//!   an ε-box archive at [`DEGRADED_EPS`] ([`Grant::archive`]) → budgets
//!   cut to [`REDUCED_BUDGET_PCT`] % → shed. The ladder reads each shard's
//!   `slo.*` breach mask and live-session pressure; every transition is
//!   journaled and the deepest active level exports as the
//!   `frontdoor.degrade_level` gauge.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use moqo_core::model::testing::StubModel;
//! use moqo_core::optimizer::Budget;
//! use moqo_core::rmq::{Rmq, RmqConfig};
//! use moqo_core::tables::TableSet;
//! use moqo_frontdoor::{FrontDoor, FrontDoorConfig, FrontRequest};
//!
//! let door = FrontDoor::new(FrontDoorConfig::default());
//! let model = Arc::new(StubModel::line(6, 2, 42));
//! let query = TableSet::prefix(6);
//! let admitted = door
//!     .submit(
//!         FrontRequest {
//!             tenant: 7,
//!             query,
//!             context: 0xC0FFEE,
//!             budget: Budget::Iterations(40),
//!         },
//!         |grant| {
//!             // The builder sees the grant: a degraded grant names the
//!             // archive the optimizer must be built with.
//!             let mut cfg = RmqConfig::seeded(1);
//!             cfg.archive = grant.archive(cfg.archive);
//!             Box::new(Rmq::new(Arc::clone(&model), query, cfg))
//!         },
//!     )
//!     .expect("admitted");
//! let done = admitted
//!     .handle
//!     .wait_done(std::time::Duration::from_secs(10))
//!     .expect("finishes");
//! assert!(!done.plans.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod coalesce;
mod degrade;
mod quota;

pub use degrade::{DegradationConfig, DegradeLevel, Grant, DEGRADED_EPS, REDUCED_BUDGET_PCT};
pub use quota::QuotaConfig;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use moqo_core::optimizer::Budget;
use moqo_core::tables::TableSet;
use moqo_obs::journal::{self, EventKind, Level, Target};
use moqo_obs::metrics::metrics;
use moqo_service::{
    AdmissionError, OptimizationService, PlanExchange, ServiceConfig, ServiceStats, SessionHandle,
    SessionRequest,
};

use coalesce::CoalesceMap;
use quota::{QuotaDecision, QuotaSet};

/// Configuration of the front door.
#[derive(Clone, Copy, Debug)]
pub struct FrontDoorConfig {
    /// Number of independent service shards (≥ 1).
    pub shards: usize,
    /// Per-shard service configuration. `shard.workers` is the worker
    /// count of **each** shard's executor pool — a front door with
    /// `shards: 4` and `shard.workers: 2` runs 8 worker threads total.
    pub shard: ServiceConfig,
    /// Per-tenant admission quota (disabled by default).
    pub quota: QuotaConfig,
    /// The degradation ladder (enabled by default).
    pub degradation: DegradationConfig,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            shards: 4,
            shard: ServiceConfig::default(),
            quota: QuotaConfig::default(),
            degradation: DegradationConfig::default(),
        }
    }
}

/// One optimization request presented at the front door.
///
/// Unlike [`SessionRequest`], the request does not carry a pre-built
/// optimizer: the front door may grant a degraded admission (coarser ε,
/// reduced budget), so the optimizer is constructed *after* admission by
/// the builder closure passed to [`FrontDoor::submit`], which receives the
/// [`Grant`].
#[derive(Clone, Copy, Debug)]
pub struct FrontRequest {
    /// The requesting tenant.
    pub tenant: u64,
    /// The query's table set.
    pub query: TableSet,
    /// Cache context fingerprint (see `moqo_service::context_fingerprint`).
    pub context: u64,
    /// The requested budget (a degraded grant may reduce it).
    pub budget: Budget,
}

/// A successfully admitted request.
#[derive(Clone, Debug)]
pub struct Admitted {
    /// Handle to the session serving this request. For a coalesced request
    /// this is a clone of the in-flight leader's handle — identical
    /// epoch-numbered snapshots by construction.
    pub handle: SessionHandle,
    /// The shard the session runs on.
    pub shard: usize,
    /// Whether the request was coalesced onto an in-flight optimization.
    pub coalesced: bool,
    /// What was granted (level, ε, effective budget). A coalesced request
    /// reports the full-precision grant of its own request; the shared
    /// session runs under the *leader's* grant.
    pub grant: Grant,
}

/// Why the front door rejected a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontdoorError {
    /// The tenant's token bucket is dry; only this tenant is affected.
    QuotaExhausted {
        /// The rejected tenant.
        tenant: u64,
    },
    /// The routed shard's admission control rejected the session even
    /// after degradation — the shard is saturated and the request is shed.
    Saturated(AdmissionError),
}

impl fmt::Display for FrontdoorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontdoorError::QuotaExhausted { tenant } => {
                write!(f, "tenant {tenant} quota exhausted")
            }
            FrontdoorError::Saturated(e) => write!(f, "shard saturated: {e}"),
        }
    }
}

impl std::error::Error for FrontdoorError {}

/// Counters of one front door instance (process-global `frontdoor.*`
/// metrics aggregate across instances; these are per-instance).
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontDoorStats {
    /// Requests presented (admitted + coalesced + shed).
    pub offered: u64,
    /// Requests admitted as fresh sessions (any grant level).
    pub admitted: u64,
    /// Requests coalesced onto in-flight sessions.
    pub coalesced: u64,
    /// Fresh sessions admitted at a degraded level.
    pub degraded: u64,
    /// Requests shed (quota + saturated shards).
    pub shed: u64,
    /// Shed requests attributable to per-tenant quotas.
    pub quota_rejected: u64,
    /// Deepest degradation level currently active on any shard.
    pub degrade_level: u64,
}

impl FrontDoorStats {
    /// Shed requests per mille of offered requests.
    pub fn shed_per_mille(&self) -> u64 {
        (self.shed * 1000).checked_div(self.offered).unwrap_or(0)
    }

    /// Coalesced requests per mille of offered requests.
    pub fn coalesce_per_mille(&self) -> u64 {
        (self.coalesced * 1000)
            .checked_div(self.offered)
            .unwrap_or(0)
    }
}

struct Shard {
    service: OptimizationService,
    coalesce: CoalesceMap,
    /// Current degradation level (a `DegradeLevel` as u64).
    degrade: AtomicU64,
}

/// The sharded multi-tenant front door. Dropping it shuts every shard's
/// service down.
pub struct FrontDoor {
    config: FrontDoorConfig,
    shards: Vec<Shard>,
    quotas: QuotaSet,
    offered: AtomicU64,
    admitted: AtomicU64,
    coalesced: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    quota_rejected: AtomicU64,
}

impl FrontDoor {
    /// Starts a front door: `config.shards` independent services, each
    /// with its own scheduler, executor pool, and plan cache.
    pub fn new(config: FrontDoorConfig) -> Self {
        let shards = (0..config.shards.max(1))
            .map(|_| Shard {
                service: OptimizationService::new(config.shard),
                coalesce: CoalesceMap::new(),
                degrade: AtomicU64::new(0),
            })
            .collect();
        FrontDoor {
            config,
            shards,
            quotas: QuotaSet::new(config.quota),
            offered: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
        }
    }

    /// The shard `(tenant, context)` routes to. Deterministic, so a
    /// tenant's sessions for one catalog always share a shard (and its
    /// cross-query plan cache), while different tenants spread out.
    pub fn shard_of(&self, tenant: u64, context: u64) -> usize {
        // FNV-1a over the two route keys: cheap and well-mixed.
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for part in [tenant, context] {
            for byte in part.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Submits a request. `build` constructs the session's optimizer and
    /// is only called for a fresh (non-coalesced) admission, with the
    /// [`Grant`] naming the ε precision and budget it must honor.
    ///
    /// # Errors
    /// [`FrontdoorError::QuotaExhausted`] when the tenant's bucket is dry;
    /// [`FrontdoorError::Saturated`] when the routed shard's admission
    /// control sheds the request even after degradation.
    pub fn submit<F>(&self, request: FrontRequest, build: F) -> Result<Admitted, FrontdoorError>
    where
        F: FnOnce(&Grant) -> Box<dyn PlanExchange>,
    {
        let m = metrics();
        self.offered.fetch_add(1, Ordering::Relaxed);
        m.frontdoor_offered.incr();

        // 1. Quota: charged per request (coalesced or not) — the bucket
        //    governs request rate, not optimization cost.
        if let QuotaDecision::Exhausted { shed } = self.quotas.charge(request.tenant) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.quota_rejected.fetch_add(1, Ordering::Relaxed);
            m.frontdoor_shed.incr();
            m.frontdoor_quota_rejected.incr();
            journal::emit_with(Target::Frontdoor, Level::Warn, || EventKind::QuotaBreach {
                tenant: request.tenant,
                shed,
            });
            return Err(FrontdoorError::QuotaExhausted {
                tenant: request.tenant,
            });
        }

        let shard_idx = self.shard_of(request.tenant, request.context);
        let shard = &self.shards[shard_idx];

        // 2. Coalescing: an identical in-flight optimization serves this
        //    request for free — the subscriber shares the leader's session.
        let key = (request.tenant, request.context, request.query);
        if let Some(handle) = shard.coalesce.join(&key) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            m.frontdoor_coalesced.incr();
            if journal::enabled(Target::Frontdoor, Level::Debug) {
                let epoch = handle.snapshot().epoch;
                journal::emit_with(Target::Frontdoor, Level::Debug, || {
                    EventKind::SessionCoalesced {
                        tenant: request.tenant,
                        epoch,
                    }
                });
            }
            return Ok(Admitted {
                handle,
                shard: shard_idx,
                coalesced: true,
                grant: Grant::at(DegradeLevel::Full, request.budget),
            });
        }

        // 3. Degradation ladder: pick the admission tier from the shard's
        //    SLO breach mask and live-session pressure.
        let level = degrade::decide(
            &self.config.degradation,
            shard.service.slo_breached(),
            shard.service.live_sessions(),
            shard.service.admission_config().max_live_sessions,
        );
        self.note_degrade_transition(shard_idx, level);
        let grant = Grant::at(level, request.budget);

        // 4. Build and submit at the granted tier.
        let optimizer = build(&grant);
        let session = SessionRequest {
            optimizer,
            budget: grant.budget,
            query: request.query,
            context: request.context,
        };
        match shard.service.submit(session) {
            Ok(handle) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                if level != DegradeLevel::Full {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                    m.frontdoor_degraded.incr();
                }
                shard.coalesce.lead(key, handle.clone());
                Ok(Admitted {
                    handle,
                    shard: shard_idx,
                    coalesced: false,
                    grant,
                })
            }
            Err(e) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                m.frontdoor_shed.incr();
                Err(FrontdoorError::Saturated(e))
            }
        }
    }

    /// Journals a shard's ladder transition and refreshes the
    /// `frontdoor.degrade_level` gauge (deepest level across shards).
    fn note_degrade_transition(&self, shard_idx: usize, level: DegradeLevel) {
        let shard = &self.shards[shard_idx];
        let prev = shard.degrade.swap(level.as_u64(), Ordering::Relaxed);
        if prev == level.as_u64() {
            return;
        }
        let severity = if level.as_u64() > prev {
            Level::Warn
        } else {
            Level::Info
        };
        journal::emit_with(Target::Frontdoor, severity, || {
            EventKind::DegradeTransition {
                shard: shard_idx as u64,
                from: prev,
                to: level.as_u64(),
            }
        });
        let deepest = self
            .shards
            .iter()
            .map(|s| s.degrade.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        metrics().frontdoor_degrade_level.set(deepest);
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The degradation level shard `idx` last admitted at.
    pub fn shard_degrade_level(&self, idx: usize) -> DegradeLevel {
        DegradeLevel::from_u64(self.shards[idx].degrade.load(Ordering::Relaxed))
    }

    /// In-flight coalescing entries on shard `idx` (finished leaders may
    /// linger until lazily swept).
    pub fn coalesce_entries(&self, idx: usize) -> usize {
        self.shards[idx].coalesce.len()
    }

    /// This instance's front-door counters.
    pub fn stats(&self) -> FrontDoorStats {
        FrontDoorStats {
            offered: self.offered.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            degrade_level: self
                .shards
                .iter()
                .map(|s| s.degrade.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    /// Per-shard service statistics, indexed by shard. Each shard's TTFF
    /// and queue-delay percentiles are computed over *its own* sessions —
    /// the isolation surface the multi-tenant tests pin.
    pub fn shard_stats(&self) -> Vec<ServiceStats> {
        self.shards.iter().map(|s| s.service.stats()).collect()
    }

    /// Service statistics of shard `idx`.
    pub fn shard_service_stats(&self, idx: usize) -> ServiceStats {
        self.shards[idx].service.stats()
    }

    /// Shuts every shard down (equivalent to dropping the front door).
    pub fn shutdown(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn door(shards: usize) -> FrontDoor {
        FrontDoor::new(FrontDoorConfig {
            shards,
            // Zero workers: admission-only services, nothing is stepped —
            // routing and accounting tests stay deterministic.
            shard: ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
            ..FrontDoorConfig::default()
        })
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let d = door(8);
        let mut seen = std::collections::HashSet::new();
        for tenant in 0..64u64 {
            let s = d.shard_of(tenant, 0xC0FFEE);
            assert_eq!(s, d.shard_of(tenant, 0xC0FFEE), "stable route");
            assert!(s < 8);
            seen.insert(s);
        }
        assert!(
            seen.len() >= 6,
            "64 tenants should cover most of 8 shards, got {}",
            seen.len()
        );
    }

    #[test]
    fn same_tenant_same_context_shares_a_shard() {
        let d = door(4);
        let a = d.shard_of(42, 1);
        assert_eq!(a, d.shard_of(42, 1));
        // Different context may route elsewhere (not asserted — hashing),
        // but the route must stay in range.
        assert!(d.shard_of(42, 2) < 4);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let d = door(0);
        assert_eq!(d.shards(), 1);
        assert_eq!(d.shard_of(7, 7), 0);
    }

    #[test]
    fn stats_rates_handle_zero_offered() {
        let s = FrontDoorStats::default();
        assert_eq!(s.shed_per_mille(), 0);
        assert_eq!(s.coalesce_per_mille(), 0);
    }
}
