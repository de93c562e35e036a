//! Per-tenant admission quotas: classic token buckets.
//!
//! Every request charges one token from its tenant's bucket — including
//! coalesced requests, because the quota governs *request rate*, not
//! optimization cost (a tenant cannot launder unlimited traffic through a
//! hot query). Buckets refill continuously at `refill_per_sec` up to the
//! `burst` capacity, so a tenant that stays under its sustained rate never
//! notices the quota while a tenant that floods is shed after at most
//! `burst` requests — and only that tenant is: buckets are independent,
//! which is the isolation property the front door's tests pin.
//!
//! A bucket that has refilled to `burst` behaves exactly like a fresh one,
//! so the table drops such buckets: every time it has doubled since the
//! last sweep (and holds at least [`SWEEP_MIN`] buckets), one pass removes
//! the full ones. The table is then bounded by the tenants active within
//! one refill period, not by every tenant ever seen, at amortized O(1)
//! per charge.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Per-tenant token-bucket quota configuration.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Bucket capacity: requests a tenant may burst before refill matters.
    /// `0` disables quotas entirely (every request is admitted).
    pub burst: u64,
    /// Sustained refill rate in tokens (requests) per second.
    pub refill_per_sec: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        // Quotas are opt-in: a front door without an explicit quota serves
        // every tenant unconditionally.
        QuotaConfig {
            burst: 0,
            refill_per_sec: 0.0,
        }
    }
}

impl QuotaConfig {
    /// Whether any quota is enforced.
    pub fn is_enabled(&self) -> bool {
        self.burst > 0
    }
}

/// The table size below which it is never swept.
const SWEEP_MIN: usize = 1024;

struct Bucket {
    tokens: f64,
    last_refill: Instant,
    /// Requests this tenant has had shed by quota since its bucket was last
    /// full (journaled on breach).
    shed: u64,
}

/// The front door's per-tenant bucket table.
pub(crate) struct QuotaSet {
    config: QuotaConfig,
    table: Mutex<Table>,
}

#[derive(Default)]
struct Table {
    buckets: HashMap<u64, Bucket>,
    /// Buckets left by the last sweep; the next one runs once the table
    /// has doubled that (and holds at least [`SWEEP_MIN`]).
    swept: usize,
}

/// Outcome of charging one token.
pub(crate) enum QuotaDecision {
    /// Token taken (or quotas disabled).
    Admitted,
    /// Bucket dry; `shed` counts this tenant's quota rejections since its
    /// bucket was last full.
    Exhausted {
        /// Quota rejections since the tenant's bucket was last full,
        /// including this one.
        shed: u64,
    },
}

impl QuotaSet {
    pub(crate) fn new(config: QuotaConfig) -> Self {
        QuotaSet {
            config,
            table: Mutex::default(),
        }
    }

    /// `bucket`'s tokens at `now`, capped at `burst`.
    fn refilled(&self, bucket: &Bucket, now: Instant) -> f64 {
        let elapsed = now.saturating_duration_since(bucket.last_refill);
        (bucket.tokens + elapsed.as_secs_f64() * self.config.refill_per_sec)
            .min(self.config.burst as f64)
    }

    /// Charges one token from `tenant`'s bucket.
    pub(crate) fn charge(&self, tenant: u64) -> QuotaDecision {
        if !self.config.is_enabled() {
            return QuotaDecision::Admitted;
        }
        let now = Instant::now();
        let burst = self.config.burst as f64;
        let mut table = self.table.lock().unwrap();
        let table = &mut *table;
        if table.buckets.len() >= (2 * table.swept).max(SWEEP_MIN) {
            table.buckets.retain(|_, b| self.refilled(b, now) < burst);
            table.swept = table.buckets.len();
        }
        let bucket = table.buckets.entry(tenant).or_insert(Bucket {
            tokens: burst,
            last_refill: now,
            shed: 0,
        });
        bucket.tokens = self.refilled(bucket, now);
        bucket.last_refill = now;
        if bucket.tokens >= burst {
            // Full again: the bucket is indistinguishable from a fresh one.
            bucket.shed = 0;
        }
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            QuotaDecision::Admitted
        } else {
            bucket.shed += 1;
            QuotaDecision::Exhausted { shed: bucket.shed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admitted(q: &QuotaSet, tenant: u64) -> bool {
        matches!(q.charge(tenant), QuotaDecision::Admitted)
    }

    #[test]
    fn disabled_quota_admits_everything() {
        let q = QuotaSet::new(QuotaConfig::default());
        for _ in 0..10_000 {
            assert!(admitted(&q, 1));
        }
    }

    #[test]
    fn burst_bounds_admissions_without_refill() {
        let q = QuotaSet::new(QuotaConfig {
            burst: 5,
            refill_per_sec: 0.0,
        });
        for i in 0..5 {
            assert!(admitted(&q, 42), "request {i} within burst");
        }
        match q.charge(42) {
            QuotaDecision::Exhausted { shed } => assert_eq!(shed, 1),
            QuotaDecision::Admitted => panic!("sixth request must be shed"),
        }
        match q.charge(42) {
            QuotaDecision::Exhausted { shed } => assert_eq!(shed, 2),
            QuotaDecision::Admitted => panic!("still dry"),
        }
    }

    #[test]
    fn buckets_are_independent_per_tenant() {
        let q = QuotaSet::new(QuotaConfig {
            burst: 2,
            refill_per_sec: 0.0,
        });
        assert!(admitted(&q, 1));
        assert!(admitted(&q, 1));
        assert!(!admitted(&q, 1), "tenant 1 exhausted");
        // Tenant 2's bucket is untouched by tenant 1's flood.
        assert!(admitted(&q, 2));
        assert!(admitted(&q, 2));
    }

    #[test]
    fn refilled_buckets_are_swept_so_the_table_stays_bounded() {
        // A million tokens a second refill a one-token bucket within a
        // microsecond: by each sweep, nearly every bucket is full again.
        let q = QuotaSet::new(QuotaConfig {
            burst: 1,
            refill_per_sec: 1e6,
        });
        for tenant in 0..100_000 {
            assert!(admitted(&q, tenant));
        }
        let len = q.table.lock().unwrap().buckets.len();
        assert!(len <= 2 * SWEEP_MIN, "{len} buckets for 100 000 tenants");
    }

    #[test]
    fn refill_restores_tokens_over_time() {
        let q = QuotaSet::new(QuotaConfig {
            burst: 1,
            refill_per_sec: 1000.0,
        });
        assert!(admitted(&q, 7));
        // At 1000 tokens/sec the bucket is full again within a few ms.
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            if admitted(&q, 7) {
                break;
            }
            assert!(Instant::now() < deadline, "bucket never refilled");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
}
