//! The SLO-aware degradation ladder: full precision → coarser ε-box
//! precision → reduced budget → shed.
//!
//! The paper's anytime contract is what makes this ladder possible: RMQ
//! trades plan quality for response time *continuously*, so an overloaded
//! serving system has two useful intermediate positions between "serve at
//! full quality" and "reject the request". The ε-Pareto box archive
//! (Trummer & Koch 2014) is the principled first step down — the frontier
//! stays within a per-metric factor of the true one while the archive (and
//! therefore per-iteration work) shrinks — and a reduced budget is the
//! second: sessions finish sooner, the shard's live-session queue drains
//! faster, and admission stops hitting its hard cap. Only when both steps
//! are exhausted does the front door shed.

use moqo_core::archive::{ArchiveConfig, EpsFactors};
use moqo_core::optimizer::Budget;

/// Uniform per-metric ε-box factor degraded sessions are built with. The
/// paper's α-schedule starts at α = 25 and tightens as a session converges;
/// a degraded grant pins precision at that coarse end instead, so
/// per-iteration work stays flat. A finer factor would degrade into *more*
/// work than full precision.
pub const DEGRADED_EPS: f64 = 32.0;

/// Budget multiplier (percent) applied at [`DegradeLevel::ReducedBudget`].
pub const REDUCED_BUDGET_PCT: u32 = 50;

/// How far down the ladder a new session is admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum DegradeLevel {
    /// Requested precision and budget.
    Full = 0,
    /// Coarser ε-box archive precision; budget unchanged.
    CoarseEps = 1,
    /// Coarser ε-box precision *and* a reduced budget.
    ReducedBudget = 2,
}

impl DegradeLevel {
    /// Numeric level (journaled and exported as a gauge).
    pub fn as_u64(self) -> u64 {
        self as u64
    }

    /// Level from its numeric encoding (saturates at the deepest tier).
    pub(crate) fn from_u64(v: u64) -> Self {
        match v {
            0 => DegradeLevel::Full,
            1 => DegradeLevel::CoarseEps,
            _ => DegradeLevel::ReducedBudget,
        }
    }
}

/// Configuration of the degradation ladder.
#[derive(Clone, Copy, Debug)]
pub struct DegradationConfig {
    /// Whether the ladder is active at all. Disabled, every session is
    /// admitted at [`DegradeLevel::Full`] until the shard's admission
    /// control sheds outright — the ablation the bench harness measures
    /// degrade-before-shed against.
    pub enabled: bool,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig { enabled: true }
    }
}

/// What a session was actually granted: the ladder position plus the
/// concrete parameters the optimizer must be built with.
#[derive(Clone, Copy, Debug)]
pub struct Grant {
    /// Ladder position.
    pub level: DegradeLevel,
    /// ε-box factor the optimizer must use (`None` = requested precision).
    pub eps: Option<f64>,
    /// The (possibly reduced) budget the session runs under.
    pub budget: Budget,
}

impl Grant {
    /// The grant for `level` of the requested budget.
    pub(crate) fn at(level: DegradeLevel, budget: Budget) -> Self {
        let (eps, budget) = match level {
            DegradeLevel::Full => (None, budget),
            DegradeLevel::CoarseEps => (Some(DEGRADED_EPS), budget),
            DegradeLevel::ReducedBudget => (Some(DEGRADED_EPS), reduce_budget(budget)),
        };
        Grant { level, eps, budget }
    }

    /// The archive the session's optimizer must be built with: the ε-box
    /// archive (Trummer & Koch 2014) at the granted factor for a degraded
    /// grant, `requested` otherwise.
    pub fn archive(&self, requested: ArchiveConfig) -> ArchiveConfig {
        match self.eps {
            Some(eps) => ArchiveConfig::eps_box(EpsFactors::splat(eps)),
            None => requested,
        }
    }
}

/// Scales a budget down to [`REDUCED_BUDGET_PCT`] percent. Iteration
/// budgets keep at least one iteration; time budgets scale their duration;
/// absolute deadlines are left untouched (the cutoff is the client's
/// contract). Both scalings divide before they multiply, so no budget
/// overflows — `u64::MAX` iterations (run to completion) included.
pub(crate) fn reduce_budget(budget: Budget) -> Budget {
    match budget {
        Budget::Iterations(n) => {
            let pct = u64::from(REDUCED_BUDGET_PCT);
            Budget::Iterations((n / 100 * pct + n % 100 * pct / 100).max(1))
        }
        Budget::Time(d) => Budget::Time(d / 100 * REDUCED_BUDGET_PCT),
        Budget::Deadline(at) => Budget::Deadline(at),
    }
}

/// Picks the ladder position for a new session on a shard with `live` of
/// `cap` admission slots occupied and the given SLO breach mask.
///
/// The policy is deliberately simple and deterministic — and it engages
/// *early*. Degradation only averts sheds if the sessions already queued
/// when the cap is finally hit were admitted with reduced budgets; a
/// ladder that waits until the queue is nearly full degrades only the
/// last few admissions and drains no faster than no ladder at all.
///
/// * at ≥ 1/2 of the live-session cap, new sessions take the deepest tier
///   (reduced budget), so a queue that does fill is half cheap sessions
///   and drains well before the backlog turns into sheds;
/// * under an SLO breach, or at ≥ 1/4 of the cap, precision is coarsened
///   (the archive stays at the α-schedule's coarse end) while budgets
///   stay intact;
/// * otherwise the session runs at full precision.
pub(crate) fn decide(
    config: &DegradationConfig,
    slo_breached: u64,
    live: usize,
    cap: usize,
) -> DegradeLevel {
    if !config.enabled || cap == 0 {
        return DegradeLevel::Full;
    }
    if live * 2 >= cap {
        DegradeLevel::ReducedBudget
    } else if slo_breached != 0 || live * 4 >= cap {
        DegradeLevel::CoarseEps
    } else {
        DegradeLevel::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ladder_escalates_with_pressure_and_breach() {
        let cfg = DegradationConfig::default();
        assert_eq!(decide(&cfg, 0, 0, 64), DegradeLevel::Full);
        assert_eq!(decide(&cfg, 0, 15, 64), DegradeLevel::Full);
        // Quarter-full coarsens precision even without a breach.
        assert_eq!(decide(&cfg, 0, 16, 64), DegradeLevel::CoarseEps);
        // Any SLO breach coarsens precision immediately.
        assert_eq!(decide(&cfg, 1, 0, 64), DegradeLevel::CoarseEps);
        // From half-full on, budgets are cut so the queue drains before
        // the backlog turns into sheds.
        assert_eq!(decide(&cfg, 0, 32, 64), DegradeLevel::ReducedBudget);
        assert_eq!(decide(&cfg, 7, 64, 64), DegradeLevel::ReducedBudget);
    }

    #[test]
    fn disabled_ladder_always_grants_full() {
        let cfg = DegradationConfig { enabled: false };
        assert_eq!(decide(&cfg, 7, 64, 64), DegradeLevel::Full);
    }

    #[test]
    fn grants_carry_eps_and_reduced_budget() {
        // A requested archive no degraded grant may keep: the paper's
        // schedule, not an ε-box.
        let requested = ArchiveConfig::paper();
        let eps_box = ArchiveConfig::eps_box(EpsFactors::splat(32.0));
        let full = Grant::at(DegradeLevel::Full, Budget::Iterations(40));
        assert_eq!(full.eps, None);
        assert_eq!(full.budget, Budget::Iterations(40));
        assert_eq!(full.archive(requested), requested, "requested archive");

        let coarse = Grant::at(DegradeLevel::CoarseEps, Budget::Iterations(40));
        assert_eq!(coarse.eps, Some(32.0));
        assert_eq!(coarse.budget, Budget::Iterations(40), "budget intact");
        assert_eq!(coarse.archive(requested), eps_box);

        let reduced = Grant::at(DegradeLevel::ReducedBudget, Budget::Iterations(40));
        assert_eq!(reduced.eps, Some(32.0));
        assert_eq!(reduced.budget, Budget::Iterations(20));
        assert_eq!(reduced.archive(requested), eps_box);
    }

    #[test]
    fn budget_reduction_floors_and_scales() {
        assert_eq!(
            reduce_budget(Budget::Iterations(1)),
            Budget::Iterations(1),
            "at least one iteration survives"
        );
        assert_eq!(
            reduce_budget(Budget::Time(Duration::from_millis(100))),
            Budget::Time(Duration::from_millis(50))
        );
        let at = std::time::Instant::now() + Duration::from_secs(5);
        assert_eq!(
            reduce_budget(Budget::Deadline(at)),
            Budget::Deadline(at),
            "absolute deadlines are the client's contract"
        );
        // Run-to-completion budgets and durations past 2^64 ns scale
        // without overflow or truncation.
        assert_eq!(
            reduce_budget(Budget::Iterations(u64::MAX)),
            Budget::Iterations(u64::MAX / 2)
        );
        let long = Duration::from_secs(40_000_000_000);
        assert!(long.as_nanos() > u128::from(u64::MAX), "fixture");
        assert_eq!(
            reduce_budget(Budget::Time(long)),
            Budget::Time(Duration::from_secs(20_000_000_000))
        );
    }

    #[test]
    fn level_roundtrips_through_u64() {
        for level in [
            DegradeLevel::Full,
            DegradeLevel::CoarseEps,
            DegradeLevel::ReducedBudget,
        ] {
            assert_eq!(DegradeLevel::from_u64(level.as_u64()), level);
        }
        assert_eq!(DegradeLevel::from_u64(99), DegradeLevel::ReducedBudget);
    }
}
