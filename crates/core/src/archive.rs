//! The redesigned archive / admission API: per-metric approximation
//! factors, the pluggable [`Dominance`] relation, ε-Pareto box archives,
//! and the per-iteration [`EpsSchedule`] that generalizes the old scalar
//! `AlphaSchedule`.
//!
//! Historically [`crate::pareto::ParetoSet`] grew three insertion entry
//! points (`insert_climb_with` / `insert_approx_with` /
//! `insert_cost_frontier_with`), each hard-coding one pruning rule. This
//! module replaces the trio with a single data-driven admission contract:
//!
//! * [`EpsFactors`] — one approximation factor per cost metric
//!   (`α_k ≥ 1`; a scalar α is the uniform special case). The factors
//!   define both the α-dominance *bound* (`bound_of`) and the ε-Pareto
//!   *box* of a cost vector (`box_key`).
//! * [`Dominance`] — the relation seam: anything that can turn a
//!   candidate cost into a rejection bound. Exact dominance, scalar α,
//!   and per-metric ε are instances; restricted F-dominance (flexible
//!   skylines) slots in here without touching the archive kernels.
//! * [`AdmissionRule`] / [`Admission`] — the complete admission decision
//!   (rule + optional capacity), passed to
//!   [`ParetoSet::admit`](crate::pareto::ParetoSet::admit).
//! * [`EpsSchedule`] / [`ArchiveConfig`] — the per-iteration schedule of
//!   factors (folding in the old `AlphaSchedule` semantics, including the
//!   `≥ 1` clamp) plus the archive policy and capacity.
//!
//! # ε-Pareto archives
//!
//! With [`ArchivePolicy::EpsBox`], admission follows the ε-Pareto archive
//! of *Approximation Schemes for Many-Objective Query Optimization*
//! (Trummer & Koch 2014): each metric axis is partitioned into
//! multiplicative boxes of factor `α_k` (box index `⌊ln c_k / ln α_k⌋`),
//! and the archive keeps at most one occupant per non-dominated box. The
//! archive size is therefore bounded by the number of non-dominated boxes
//! — a function of the precision target, **not** of the true frontier
//! cardinality, which explodes at 6–10 metrics.
//!
//! With all factors at 1, boxes degenerate to exact cost values and the
//! ε-archive makes *exactly* the decisions of exact approximate pruning
//! (`α = 1`) — the differential property pinned by the proptests in
//! [`crate::pareto`].

use crate::cost::{CostVector, MAX_COST_DIM};

/// How climb pruning treats incomparable plans with the same output format.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PrunePolicy {
    /// Keep at most one plan per output format: a new incomparable plan is
    /// discarded in favour of the incumbent. Matches the assumption of the
    /// paper's Lemma 2 and is the production default.
    #[default]
    OnePerFormat,
    /// Keep all mutually non-dominated plans per output format — the literal
    /// reading of Algorithm 2's `Prune`.
    KeepIncomparable,
}

/// Per-metric approximation factors: `α_k ≥ 1` for each cost metric.
///
/// A scalar approximation factor is the uniform special case
/// ([`EpsFactors::uniform`]); per-metric factors let precision-critical
/// metrics (latency) stay tight while archive-exploding metrics (energy,
/// IO) are boxed coarsely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpsFactors {
    values: [f64; MAX_COST_DIM],
}

impl EpsFactors {
    /// The same literal factor in every metric slot, **without** the `≥ 1`
    /// clamp — `const`-constructible for schedule literals. Use
    /// [`uniform`](Self::uniform) unless you need a `const` context;
    /// [`EpsSchedule::factors`] clamps every emitted component anyway.
    pub const fn splat(value: f64) -> Self {
        EpsFactors {
            values: [value; MAX_COST_DIM],
        }
    }

    /// The same factor in every metric slot, clamped to `≥ 1`.
    pub fn uniform(factor: f64) -> Self {
        EpsFactors::splat(factor).clamped()
    }

    /// Exact dominance: factor 1 in every metric.
    #[inline]
    pub fn exact() -> Self {
        EpsFactors::splat(1.0)
    }

    /// Per-metric factors (clamped to `≥ 1`); metrics beyond the slice get
    /// factor 1 (exact).
    ///
    /// # Panics
    /// Panics if more than [`MAX_COST_DIM`] factors are supplied.
    pub fn per_metric(factors: &[f64]) -> Self {
        assert!(
            factors.len() <= MAX_COST_DIM,
            "{} factors exceed MAX_COST_DIM {}",
            factors.len(),
            MAX_COST_DIM
        );
        let mut values = [1.0; MAX_COST_DIM];
        for (slot, &f) in values.iter_mut().zip(factors) {
            *slot = f;
        }
        EpsFactors { values }.clamped()
    }

    /// Every component clamped to `≥ 1` (NaN becomes 1).
    #[inline]
    pub fn clamped(mut self) -> Self {
        for v in &mut self.values {
            // NaN compares false against everything, so it falls through
            // to the clamp as well.
            if (*v).partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) && *v != 1.0 {
                *v = 1.0;
            }
        }
        self
    }

    /// The factor of metric `k`.
    #[inline]
    pub fn get(&self, k: usize) -> f64 {
        self.values[k]
    }

    /// Whether every factor is exactly 1 (exact dominance).
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.values.iter().all(|&v| v == 1.0)
    }

    /// The largest per-metric factor — the scalar α this factor vector is
    /// at most as coarse as.
    #[inline]
    pub fn max(&self) -> f64 {
        self.values.iter().fold(1.0f64, |a, &b| a.max(b))
    }

    /// The α-scaled rejection bound of `cost`: component `k` is
    /// `α_k · c_k`, computed with exactly the floating-point operations of
    /// [`CostVector::approx_dominates`] — so `m ⪯ bound_of(c)` **is**
    /// per-metric α-dominance `m ⪯_ᾱ c`, and `bound_of(c).agg_key()`
    /// equals [`CostVector::scaled_agg_key`] for uniform factors (same
    /// products, same summation order).
    #[inline]
    pub fn bound_of(&self, cost: &CostVector) -> CostVector {
        let mut v = [0.0; MAX_COST_DIM];
        for (k, slot) in v[..cost.dim()].iter_mut().enumerate() {
            *slot = self.bound_component(k, cost[k]);
        }
        CostVector::new(&v[..cost.dim()])
    }

    /// Component `k` of [`bound_of`](Self::bound_of) for a cost component
    /// `c`, for screens that compare components and need not build a vector
    /// per candidate.
    #[inline]
    pub fn bound_component(&self, k: usize, c: f64) -> f64 {
        // Saturate at MAX so an infinite factor (legal: "everything is
        // covered on this metric") still yields a valid cost vector.
        (self.values[k] * c).min(f64::MAX)
    }

    /// The ε-Pareto box of `cost`: per metric, the index of the
    /// multiplicative box of factor `α_k` the component falls in
    /// (`⌊ln c_k / ln α_k⌋`). Metrics with factor 1 degenerate to exact
    /// boxing — the component's own bit pattern, which orders exactly like
    /// the value for non-negative floats — so an all-ones factor vector
    /// reproduces exact admission decisions.
    #[inline]
    pub fn box_key(&self, cost: &CostVector) -> BoxKey {
        let mut key = [0i64; MAX_COST_DIM];
        for (k, slot) in key[..cost.dim()].iter_mut().enumerate() {
            let f = self.values[k];
            // `+ 0.0` folds -0.0 into +0.0 so equal values share a box.
            let c = cost[k] + 0.0;
            *slot = if f <= 1.0 {
                // Non-negative IEEE floats order by their bit pattern.
                c.to_bits() as i64
            } else {
                // ln(0) = -∞ floors to -∞; the saturating cast pins it to
                // i64::MIN, a deterministic "leftmost box".
                (c.ln() / f.ln()).floor() as i64
            };
        }
        BoxKey(key)
    }
}

/// The ε-Pareto box of a cost vector: one box index per metric (unused
/// metric slots are 0, so whole-array comparisons are valid for any
/// dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BoxKey([i64; MAX_COST_DIM]);

impl BoxKey {
    /// Weak box dominance: no box index exceeds the other's.
    #[inline]
    pub fn dominates(&self, other: &BoxKey) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

/// The dominance-relation seam: anything that can turn a candidate's cost
/// into a **rejection bound** — a member rejects the candidate iff the
/// member's cost weakly dominates the bound.
///
/// Exact dominance ([`Exact`]) and per-metric α-dominance ([`EpsFactors`])
/// are the built-in instances; restricted F-dominance over a constrained
/// family of scoring functions (flexible skylines, ROADMAP item on
/// preference-constrained frontiers) is the intended future instance —
/// it only needs a `bound_of`, not new archive kernels.
pub trait Dominance {
    /// The rejection bound of `candidate`: a member `m` covers (rejects)
    /// the candidate iff `m ⪯ bound_of(candidate)` component-wise.
    fn bound_of(&self, candidate: &CostVector) -> CostVector;

    /// Whether `member` covers `candidate` under this relation.
    #[inline]
    fn covers(&self, member: &CostVector, candidate: &CostVector) -> bool {
        member.dominates(&self.bound_of(candidate))
    }

    /// Sound aggregate-key screen: `covers(m, c)` implies
    /// `m.agg_key() <= key_bound(c)` (see [`CostVector::agg_key`]).
    #[inline]
    fn key_bound(&self, candidate: &CostVector) -> f64 {
        self.bound_of(candidate).agg_key()
    }
}

/// Exact weak Pareto dominance as a [`Dominance`] relation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exact;

impl Dominance for Exact {
    #[inline]
    fn bound_of(&self, candidate: &CostVector) -> CostVector {
        *candidate
    }
}

impl Dominance for EpsFactors {
    #[inline]
    fn bound_of(&self, candidate: &CostVector) -> CostVector {
        EpsFactors::bound_of(self, candidate)
    }
}

/// One archive admission rule — the pruning semantics previously spread
/// over the `insert_climb_with` / `insert_approx_with` /
/// `insert_cost_frontier_with` trio, plus the new ε-Pareto box rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionRule {
    /// Hill-climb pruning (Algorithm 2's `Prune`) under a [`PrunePolicy`]:
    /// same-format members reject via weak dominance (strict dominance or
    /// exact duplicate), admission evicts strictly dominated same-format
    /// members.
    Climb(PrunePolicy),
    /// Approximate pruning (Algorithm 3's `Prune`): a same-format member
    /// rejects the candidate if it per-metric α-dominates it; admission
    /// evicts weakly dominated same-format members. All-ones factors give
    /// exact pruning.
    Approx(EpsFactors),
    /// ε-Pareto box archive: at most one occupant per non-dominated
    /// per-format box; a member rejects the candidate if its box weakly
    /// dominates the candidate's (same box: the incumbent stays unless the
    /// candidate strictly dominates it). Archive size is bounded by the
    /// precision target, not the frontier.
    EpsBox(EpsFactors),
    /// Exact cost-Pareto frontier, ignoring output formats (result
    /// archives, where only cost tradeoffs matter).
    CostFrontier,
}

impl AdmissionRule {
    /// Reference predicate: whether a member (of the rule's comparison
    /// scope — same format, or any member for [`CostFrontier`
    /// ](AdmissionRule::CostFrontier)) rejects the candidate. This is the
    /// scalar one-pair form the block kernels of
    /// [`crate::pareto::ParetoSet`] are differentially tested against; the
    /// service's cross-query cache uses it directly.
    #[inline]
    pub fn rejects(&self, member: &CostVector, candidate: &CostVector) -> bool {
        match self {
            AdmissionRule::Climb(_) | AdmissionRule::CostFrontier => member.dominates(candidate),
            AdmissionRule::Approx(eps) => eps.covers(member, candidate),
            AdmissionRule::EpsBox(eps) => {
                let mb = eps.box_key(member);
                let cb = eps.box_key(candidate);
                mb.dominates(&cb) && (mb != cb || !candidate.strictly_dominates(member))
            }
        }
    }

    /// Reference predicate: whether an admitted candidate evicts a member
    /// of its comparison scope.
    #[inline]
    pub fn evicts(&self, candidate: &CostVector, member: &CostVector) -> bool {
        match self {
            AdmissionRule::Climb(_) | AdmissionRule::CostFrontier => {
                candidate.strictly_dominates(member)
            }
            // Equal-cost members reject first, so weak dominance never
            // evicts an equal member in a reachable state.
            AdmissionRule::Approx(_) => candidate.dominates(member),
            AdmissionRule::EpsBox(eps) => {
                let cb = eps.box_key(candidate);
                let mb = eps.box_key(member);
                cb.dominates(&mb) && (cb != mb || candidate.strictly_dominates(member))
            }
        }
    }

    /// Whether the rule compares only same-format members (`false` for the
    /// format-blind cost frontier).
    #[inline]
    pub fn format_scoped(&self) -> bool {
        !matches!(self, AdmissionRule::CostFrontier)
    }
}

/// A complete admission decision: the pruning rule plus an optional hard
/// capacity. At capacity, a candidate that evicts nobody is rejected (the
/// established archive wins — deterministic and order-stable).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Admission {
    /// The pruning rule.
    pub rule: AdmissionRule,
    /// Hard archive-size bound (`None` = unbounded).
    pub capacity: Option<usize>,
}

impl Admission {
    /// Hill-climb pruning under `policy`, unbounded.
    pub fn climb(policy: PrunePolicy) -> Self {
        Admission {
            rule: AdmissionRule::Climb(policy),
            capacity: None,
        }
    }

    /// Uniform scalar-α approximate pruning, unbounded.
    pub fn approx(alpha: f64) -> Self {
        Admission {
            rule: AdmissionRule::Approx(EpsFactors::uniform(alpha)),
            capacity: None,
        }
    }

    /// Per-metric approximate pruning, unbounded.
    #[inline]
    pub fn approx_per_metric(factors: EpsFactors) -> Self {
        Admission {
            rule: AdmissionRule::Approx(factors),
            capacity: None,
        }
    }

    /// Exact approximate pruning (`α = 1` everywhere), unbounded.
    #[inline]
    pub fn exact() -> Self {
        Admission::approx_per_metric(EpsFactors::exact())
    }

    /// ε-Pareto box archive with the given per-metric factors, unbounded.
    pub fn eps_box(factors: EpsFactors) -> Self {
        Admission {
            rule: AdmissionRule::EpsBox(factors),
            capacity: None,
        }
    }

    /// Exact format-blind cost-frontier admission, unbounded.
    pub fn cost_frontier() -> Self {
        Admission {
            rule: AdmissionRule::CostFrontier,
            capacity: None,
        }
    }

    /// The same admission with a hard capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// The largest scalar α this admission is at most as coarse as
    /// (1 for exact rules) — the number reported as `last_alpha` in
    /// optimizer stats.
    pub fn max_factor(&self) -> f64 {
        match self.rule {
            AdmissionRule::Climb(_) | AdmissionRule::CostFrontier => 1.0,
            AdmissionRule::Approx(eps) | AdmissionRule::EpsBox(eps) => eps.max(),
        }
    }
}

/// A schedule of per-metric approximation factors over RMQ iterations —
/// the generalization of the old scalar `AlphaSchedule`. Every emitted
/// component is clamped to `≥ 1`, whatever the parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EpsSchedule {
    /// `start · decayᵖ` per metric, where `p = ⌊iteration / period⌋`.
    Geometric {
        /// Factors at iteration 0.
        start: EpsFactors,
        /// Multiplicative decay applied once per period.
        decay: f64,
        /// Iterations per decay period (0 is treated as 1).
        period: u64,
    },
    /// The same factors at every iteration.
    Fixed(EpsFactors),
}

impl EpsSchedule {
    /// The paper's schedule (§6.2): uniform α starting at 25, multiplied by
    /// 0.99 every 25 iterations.
    pub const fn paper() -> Self {
        EpsSchedule::Geometric {
            start: EpsFactors::splat(25.0),
            decay: 0.99,
            period: 25,
        }
    }

    /// The factors for the given iteration, each clamped to `≥ 1`.
    pub fn factors(&self, iteration: u64) -> EpsFactors {
        match *self {
            EpsSchedule::Geometric {
                start,
                decay,
                period,
            } => {
                let steps = (iteration / period.max(1)) as f64;
                let scale = decay.powf(steps);
                let mut values = [1.0; MAX_COST_DIM];
                for (slot, &s) in values.iter_mut().zip(&start.values) {
                    *slot = s * scale;
                }
                EpsFactors { values }.clamped()
            }
            EpsSchedule::Fixed(factors) => factors.clamped(),
        }
    }
}

/// Which admission rule the archive applies to scheduled factors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ArchivePolicy {
    /// Per-metric approximate pruning (the paper's Algorithm 3 rule).
    #[default]
    Approx,
    /// ε-Pareto box archive (Trummer & Koch 2014): size bounded by the
    /// precision target.
    EpsBox,
}

/// Archive configuration: policy, per-metric ε schedule, and capacity —
/// everything the optimizer needs to derive the [`Admission`] of an
/// iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArchiveConfig {
    /// The admission rule family.
    pub policy: ArchivePolicy,
    /// The per-iteration factor schedule.
    pub eps: EpsSchedule,
    /// Hard archive-size bound (`None` = unbounded).
    pub capacity: Option<usize>,
}

impl Default for ArchiveConfig {
    /// The paper's configuration: approximate pruning under the geometric
    /// α schedule.
    fn default() -> Self {
        ArchiveConfig::paper()
    }
}

impl ArchiveConfig {
    /// The paper's configuration (approximate pruning, geometric schedule).
    pub const fn paper() -> Self {
        ArchiveConfig {
            policy: ArchivePolicy::Approx,
            eps: EpsSchedule::paper(),
            capacity: None,
        }
    }

    /// Exact pruning at every iteration (`α = 1`).
    pub fn exact() -> Self {
        ArchiveConfig {
            policy: ArchivePolicy::Approx,
            eps: EpsSchedule::Fixed(EpsFactors::exact()),
            capacity: None,
        }
    }

    /// Fixed uniform scalar α at every iteration.
    pub fn fixed(alpha: f64) -> Self {
        ArchiveConfig {
            policy: ArchivePolicy::Approx,
            eps: EpsSchedule::Fixed(EpsFactors::uniform(alpha)),
            capacity: None,
        }
    }

    /// An ε-Pareto box archive with fixed per-metric factors.
    pub fn eps_box(factors: EpsFactors) -> Self {
        ArchiveConfig {
            policy: ArchivePolicy::EpsBox,
            eps: EpsSchedule::Fixed(factors),
            capacity: None,
        }
    }

    /// The same configuration with a hard capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// The [`Admission`] of the given iteration.
    pub fn admission(&self, iteration: u64) -> Admission {
        let factors = self.eps.factors(iteration);
        let rule = match self.policy {
            ArchivePolicy::Approx => AdmissionRule::Approx(factors),
            ArchivePolicy::EpsBox => AdmissionRule::EpsBox(factors),
        };
        Admission {
            rule,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cv(values: &[f64]) -> CostVector {
        CostVector::new(values)
    }

    #[test]
    fn factors_clamp_and_accessors() {
        let f = EpsFactors::uniform(0.25);
        assert!(f.is_exact(), "sub-1 factors clamp to exact");
        let f = EpsFactors::per_metric(&[2.0, 0.5, 4.0]);
        assert_eq!(f.get(0), 2.0);
        assert_eq!(f.get(1), 1.0, "clamped");
        assert_eq!(f.get(2), 4.0);
        assert_eq!(f.get(3), 1.0, "unspecified metrics are exact");
        assert_eq!(f.max(), 4.0);
        assert!(!f.is_exact());
        assert!(EpsFactors::exact().is_exact());
        assert_eq!(EpsFactors::splat(f64::NAN).clamped().max(), 1.0);
    }

    #[test]
    fn bound_of_reproduces_scalar_alpha_dominance() {
        let a = cv(&[2.0, 1.0]);
        let b = cv(&[1.0, 1.0]);
        let eps = EpsFactors::uniform(2.0);
        assert_eq!(a.dominates(&eps.bound_of(&b)), a.approx_dominates(&b, 2.0));
        assert_eq!(eps.bound_of(&b).agg_key(), b.scaled_agg_key(2.0));
    }

    #[test]
    fn per_metric_bound_scales_each_axis_independently() {
        let eps = EpsFactors::per_metric(&[4.0, 1.0]);
        // 3x worse in metric 0 is covered; 1.1x worse in metric 1 is not.
        assert!(eps.covers(&cv(&[3.0, 1.0]), &cv(&[1.0, 1.0])));
        assert!(!eps.covers(&cv(&[1.0, 1.1]), &cv(&[1.0, 1.0])));
    }

    #[test]
    fn exact_box_keys_order_like_values() {
        let eps = EpsFactors::exact();
        let a = eps.box_key(&cv(&[1.0, 2.0]));
        let b = eps.box_key(&cv(&[1.0, 3.0]));
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert_eq!(a, eps.box_key(&cv(&[1.0, 2.0])));
        // -0.0 and +0.0 share a box.
        assert_eq!(eps.box_key(&cv(&[0.0])), eps.box_key(&cv(&[-0.0 + 0.0])));
    }

    #[test]
    fn log_boxes_group_values_within_one_factor() {
        let eps = EpsFactors::uniform(2.0);
        // [2, 4) is one box at factor 2.
        assert_eq!(eps.box_key(&cv(&[2.0])), eps.box_key(&cv(&[3.9])));
        assert_ne!(eps.box_key(&cv(&[2.0])), eps.box_key(&cv(&[4.0])));
        // Zero cost saturates to the leftmost box deterministically.
        assert_eq!(eps.box_key(&cv(&[0.0])), eps.box_key(&cv(&[0.0])));
        assert!(eps
            .box_key(&cv(&[0.0]))
            .dominates(&eps.box_key(&cv(&[1.0]))));
    }

    #[test]
    fn admission_constructors_and_max_factor() {
        assert_eq!(Admission::exact().max_factor(), 1.0);
        assert_eq!(Admission::approx(3.0).max_factor(), 3.0);
        assert_eq!(
            Admission::eps_box(EpsFactors::per_metric(&[2.0, 5.0])).max_factor(),
            5.0
        );
        assert_eq!(
            Admission::climb(PrunePolicy::OnePerFormat).max_factor(),
            1.0
        );
        assert_eq!(Admission::cost_frontier().max_factor(), 1.0);
        assert_eq!(Admission::exact().with_capacity(8).capacity, Some(8));
    }

    #[test]
    fn eps_box_rule_with_exact_factors_matches_exact_approx_rule() {
        // The degenerate ε-archive: all-ones factors box each exact value,
        // so reject/evict decisions coincide with exact pruning wherever
        // the pair of states is reachable (equal costs reject first).
        let exact = AdmissionRule::Approx(EpsFactors::exact());
        let boxed = AdmissionRule::EpsBox(EpsFactors::exact());
        let pts = [
            cv(&[1.0, 2.0]),
            cv(&[2.0, 1.0]),
            cv(&[1.0, 1.0]),
            cv(&[2.0, 2.0]),
        ];
        for m in &pts {
            for c in &pts {
                assert_eq!(boxed.rejects(m, c), exact.rejects(m, c), "{m:?} vs {c:?}");
                if m.as_slice() != c.as_slice() {
                    assert_eq!(boxed.evicts(c, m), exact.evicts(c, m), "{c:?} vs {m:?}");
                }
            }
        }
    }

    #[test]
    fn schedule_decays_and_fixed_holds() {
        let s = EpsSchedule::paper();
        assert_eq!(s.factors(0).max(), 25.0);
        assert_eq!(s.factors(24).max(), 25.0);
        assert!((s.factors(25).max() - 24.75).abs() < 1e-9);
        let f = EpsSchedule::Fixed(EpsFactors::uniform(1.5));
        assert_eq!(f.factors(0).max(), 1.5);
        assert_eq!(f.factors(u64::MAX).max(), 1.5);
    }

    #[test]
    fn geometric_schedule_never_yields_factors_below_one() {
        // The adversarial clamp invariant carried over from the old scalar
        // `AlphaSchedule`: whatever the parameters (sub-1 starts, zero
        // decay, zero period, astronomical iteration counts), every emitted
        // factor component is >= 1, keeping `approx_dominates` sound.
        let schedules = [
            EpsSchedule::paper(),
            EpsSchedule::Geometric {
                start: EpsFactors::splat(0.25),
                decay: 0.5,
                period: 1,
            },
            EpsSchedule::Geometric {
                start: EpsFactors::splat(1e9),
                decay: 0.0,
                period: 3,
            },
            EpsSchedule::Geometric {
                start: EpsFactors::splat(25.0),
                decay: 0.99,
                period: 0,
            },
            EpsSchedule::Fixed(EpsFactors::splat(0.1)),
        ];
        let far: [u64; 5] = [100_000, 10_000_000, u64::MAX - 1, u64::MAX, 12345];
        for schedule in &schedules {
            for iteration in (0..10_000).chain(far) {
                let f = schedule.factors(iteration);
                for k in 0..MAX_COST_DIM {
                    assert!(
                        f.get(k) >= 1.0,
                        "{schedule:?} produced factor {} < 1 at iteration {iteration}",
                        f.get(k)
                    );
                }
            }
        }
    }

    #[test]
    fn archive_config_builds_admissions() {
        let cfg = ArchiveConfig::paper();
        let adm = cfg.admission(0);
        assert_eq!(adm.max_factor(), 25.0);
        assert!(matches!(adm.rule, AdmissionRule::Approx(_)));

        let cfg = ArchiveConfig::eps_box(EpsFactors::uniform(1.5)).with_capacity(100);
        let adm = cfg.admission(17);
        assert!(matches!(adm.rule, AdmissionRule::EpsBox(_)));
        assert_eq!(adm.capacity, Some(100));

        assert_eq!(ArchiveConfig::exact().admission(9).max_factor(), 1.0);
        assert_eq!(ArchiveConfig::fixed(2.5).admission(9).max_factor(), 2.5);
        assert_eq!(ArchiveConfig::default(), ArchiveConfig::paper());
    }

    fn arb_cost(dim: usize) -> impl Strategy<Value = CostVector> {
        proptest::collection::vec(0.0f64..1e6, dim).prop_map(|v| CostVector::new(&v))
    }

    proptest! {
        /// Per-metric bounds with uniform factors reproduce scalar
        /// α-dominance bit for bit (same multiplications, same order).
        #[test]
        fn uniform_bound_equals_scalar_alpha(a in arb_cost(4), b in arb_cost(4),
                                             alpha in 1.0f64..100.0) {
            let eps = EpsFactors::uniform(alpha);
            prop_assert_eq!(eps.covers(&a, &b), a.approx_dominates(&b, alpha));
            prop_assert_eq!(eps.key_bound(&b), b.scaled_agg_key(alpha));
        }

        /// Box keys are monotone: weak dominance implies box dominance for
        /// any factor vector (the soundness of box-level rejection).
        #[test]
        fn box_keys_monotone_under_dominance(a in arb_cost(3), b in arb_cost(3),
                                             f in proptest::collection::vec(1.0f64..8.0, 3)) {
            let eps = EpsFactors::per_metric(&f);
            if a.dominates(&b) {
                prop_assert!(eps.box_key(&a).dominates(&eps.box_key(&b)));
            }
        }

        /// Exact factors give bitwise boxing: box equality iff value
        /// equality, box dominance iff weak dominance.
        #[test]
        fn exact_boxes_are_values(a in arb_cost(3), b in arb_cost(3)) {
            let eps = EpsFactors::exact();
            prop_assert_eq!(eps.box_key(&a) == eps.box_key(&b),
                            a.as_slice() == b.as_slice());
            prop_assert_eq!(eps.box_key(&a).dominates(&eps.box_key(&b)), a.dominates(&b));
        }
    }
}
