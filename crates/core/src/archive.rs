//! The archive / admission API: per-metric approximation factors,
//! ε-Pareto box archives, the one [`Admission`] rule every Pareto-set
//! insertion goes through, and the per-iteration [`EpsSchedule`].
//!
//! * [`EpsFactors`] — one approximation factor per cost metric
//!   (`α_k ≥ 1`; a scalar α is the uniform special case). The factors
//!   define both the α-dominance *bound* (`bound_of`: a member covers a
//!   candidate iff it weakly dominates the bound) and the ε-Pareto *box*
//!   of a cost vector (`box_key`).
//! * [`Admission`] — the complete admission decision (the pruning rule),
//!   passed to [`ParetoSet::admit`](crate::pareto::ParetoSet::admit).
//! * [`EpsSchedule`] / [`ArchiveConfig`] — the per-iteration schedule of
//!   factors (every emitted factor clamped to `≥ 1`) plus the archive
//!   policy.
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

/// One archive admission rule: how a [`ParetoSet`](crate::pareto::ParetoSet)
/// decides whether a candidate enters and which members it evicts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Admission {
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

impl Admission {
    /// Hill-climb pruning under `policy`.
    pub fn climb(policy: PrunePolicy) -> Self {
        Admission::Climb(policy)
    }

    /// Uniform scalar-α approximate pruning.
    pub fn approx(alpha: f64) -> Self {
        Admission::Approx(EpsFactors::uniform(alpha))
    }

    /// Per-metric approximate pruning.
    #[inline]
    pub fn approx_per_metric(factors: EpsFactors) -> Self {
        Admission::Approx(factors)
    }

    /// Exact approximate pruning (`α = 1` everywhere).
    #[inline]
    pub fn exact() -> Self {
        Admission::Approx(EpsFactors::exact())
    }

    /// ε-Pareto box archive with the given per-metric factors.
    pub fn eps_box(factors: EpsFactors) -> Self {
        Admission::EpsBox(factors)
    }

    /// Exact format-blind cost-frontier admission.
    pub fn cost_frontier() -> Self {
        Admission::CostFrontier
    }

    /// The largest scalar α this admission is at most as coarse as
    /// (1 for exact rules) — the number reported as `last_alpha` in
    /// optimizer stats.
    pub fn max_factor(&self) -> f64 {
        match self {
            Admission::Climb(_) | Admission::CostFrontier => 1.0,
            Admission::Approx(eps) | Admission::EpsBox(eps) => eps.max(),
        }
    }

    /// Reference predicate: whether a member (of the rule's comparison
    /// scope — same format, or any member for [`CostFrontier`
    /// ](Admission::CostFrontier)) rejects the candidate. This is the
    /// scalar one-pair form the block kernels of
    /// [`crate::pareto::ParetoSet`] are differentially tested against
    /// (through [`crate::pareto::LinearParetoSet`]).
    #[inline]
    pub fn rejects(&self, member: &CostVector, candidate: &CostVector) -> bool {
        match self {
            Admission::Climb(_) | Admission::CostFrontier => member.dominates(candidate),
            Admission::Approx(eps) => member.dominates(&eps.bound_of(candidate)),
            Admission::EpsBox(eps) => {
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
            Admission::Climb(_) | Admission::CostFrontier => candidate.strictly_dominates(member),
            // Equal-cost members reject first, so weak dominance never
            // evicts an equal member in a reachable state.
            Admission::Approx(_) => candidate.dominates(member),
            Admission::EpsBox(eps) => {
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
        !matches!(self, Admission::CostFrontier)
    }
}

/// A schedule of per-metric approximation factors over RMQ iterations.
/// Every emitted component is clamped to `≥ 1`, whatever the parameters.
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

/// Archive configuration: policy and per-metric ε schedule —
/// everything the optimizer needs to derive the [`Admission`] of an
/// iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArchiveConfig {
    /// The admission rule family.
    pub policy: ArchivePolicy,
    /// The per-iteration factor schedule.
    pub eps: EpsSchedule,
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
        }
    }

    /// Exact pruning at every iteration (`α = 1`).
    pub fn exact() -> Self {
        ArchiveConfig {
            policy: ArchivePolicy::Approx,
            eps: EpsSchedule::Fixed(EpsFactors::exact()),
        }
    }

    /// Fixed uniform scalar α at every iteration.
    pub fn fixed(alpha: f64) -> Self {
        ArchiveConfig {
            policy: ArchivePolicy::Approx,
            eps: EpsSchedule::Fixed(EpsFactors::uniform(alpha)),
        }
    }

    /// An ε-Pareto box archive with fixed per-metric factors.
    pub fn eps_box(factors: EpsFactors) -> Self {
        ArchiveConfig {
            policy: ArchivePolicy::EpsBox,
            eps: EpsSchedule::Fixed(factors),
        }
    }

    /// The [`Admission`] of the given iteration.
    pub fn admission(&self, iteration: u64) -> Admission {
        let factors = self.eps.factors(iteration);
        match self.policy {
            ArchivePolicy::Approx => Admission::Approx(factors),
            ArchivePolicy::EpsBox => Admission::EpsBox(factors),
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
        let adm = Admission::Approx(eps);
        assert!(adm.rejects(&cv(&[3.0, 1.0]), &cv(&[1.0, 1.0])));
        assert!(!adm.rejects(&cv(&[1.0, 1.1]), &cv(&[1.0, 1.0])));
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
    }

    #[test]
    fn eps_box_rule_with_exact_factors_matches_exact_approx_rule() {
        // The degenerate ε-archive: all-ones factors box each exact value,
        // so reject/evict decisions coincide with exact pruning wherever
        // the pair of states is reachable (equal costs reject first).
        let exact = Admission::Approx(EpsFactors::exact());
        let boxed = Admission::EpsBox(EpsFactors::exact());
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
        // The adversarial clamp invariant: whatever the parameters (sub-1
        // starts, zero decay, zero period, astronomical iteration counts),
        // every emitted factor component is >= 1, keeping
        // `approx_dominates` sound.
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
        assert!(matches!(adm, Admission::Approx(_)));

        let cfg = ArchiveConfig::eps_box(EpsFactors::uniform(1.5));
        let adm = cfg.admission(17);
        assert!(matches!(adm, Admission::EpsBox(_)));

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
            prop_assert_eq!(Admission::Approx(eps).rejects(&a, &b), a.approx_dominates(&b, alpha));
            prop_assert_eq!(eps.bound_of(&b).agg_key(), b.scaled_agg_key(alpha));
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
