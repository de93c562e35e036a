//! Per-figure experiment specifications.
//!
//! One [`FigureSpec`] per figure of the paper. Budgets are pre-scaled from
//! the paper's wall-clock budgets (3 s for Figures 1/2/4/5, 30 s for
//! Figures 6–9) — a Rust iteration costs far less than the paper's Java 1.7
//! iteration, so the same qualitative regime (how many iterations each
//! algorithm completes, which DP configurations finish) is reached much
//! earlier. `MOQO_TIME_SCALE` rescales all budgets, so a reported result
//! must state the scale it ran at.

use std::time::Duration;

use moqo_workload::{GraphShape, SelectivityMethod};

use crate::algorithms::AlgorithmKind;
use crate::EnvConfig;

/// How the reference frontier of a test case is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReferenceKind {
    /// Union of all algorithms' outputs over the whole run (§6.1).
    UnionOfAll,
    /// Exact/near-exact frontier from a DP run to completion (Figures 8–9:
    /// DP with `α = 1.01`).
    ExactDp,
}

/// Specification of one figure's experiment grid.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    /// Figure identifier, e.g. `"fig1"`.
    pub id: &'static str,
    /// Human-readable description printed above the results.
    pub title: &'static str,
    /// Join graph shapes (panel rows).
    pub shapes: Vec<GraphShape>,
    /// Query sizes in tables (panel columns).
    pub sizes: Vec<usize>,
    /// Number of cost metrics `l`.
    pub metrics: usize,
    /// Selectivity generation method.
    pub selectivity: SelectivityMethod,
    /// Wall-clock budget per algorithm per test case.
    pub budget: Duration,
    /// Number of measurement checkpoints over the budget.
    pub checkpoints: usize,
    /// Test cases per panel (medians are taken over these).
    pub cases: usize,
    /// Competitor set.
    pub algorithms: Vec<AlgorithmKind>,
    /// Reference-frontier construction.
    pub reference: ReferenceKind,
    /// Display cap on α (Figures 6/7 restrict to `[1, 10^10]`, 8/9 to
    /// `[1, 2]`); values above are reported as `>cap`.
    pub alpha_cap: Option<f64>,
    /// Base seed.
    pub seed: u64,
}

impl FigureSpec {
    fn apply(mut self, env: &EnvConfig) -> Self {
        self.budget =
            Duration::from_secs_f64((self.budget.as_secs_f64() * env.time_scale).max(0.001));
        if let Some(cases) = env.cases_override {
            self.cases = cases.max(1);
        }
        if let Some(max) = env.max_sizes {
            self.sizes.truncate(max.max(1));
        }
        self
    }

    /// Figure 1: two metrics, Steinbrunn selectivities, 10–100 tables.
    pub fn fig1(env: &EnvConfig) -> Self {
        FigureSpec {
            id: "fig1",
            title: "Median approximation error, 2 cost metrics (paper Fig. 1; 3s budget scaled)",
            shapes: GraphShape::PAPER.to_vec(),
            sizes: vec![10, 25, 50, 75, 100],
            metrics: 2,
            selectivity: SelectivityMethod::Steinbrunn,
            budget: Duration::from_millis(1000),
            checkpoints: 8,
            cases: 2,
            algorithms: AlgorithmKind::PAPER_SET.to_vec(),
            reference: ReferenceKind::UnionOfAll,
            alpha_cap: None,
            seed: 0x0F16_0001,
        }
        .apply(env)
    }

    /// Figure 2: three metrics, Steinbrunn selectivities.
    pub fn fig2(env: &EnvConfig) -> Self {
        FigureSpec {
            id: "fig2",
            title: "Median approximation error, 3 cost metrics (paper Fig. 2; 3s budget scaled)",
            metrics: 3,
            seed: 0x0F16_0002,
            ..Self::fig1(&EnvConfig::fixed(1.0, None))
        }
        .apply(env)
    }

    /// Figure 4: two metrics, MinMax selectivities, 25–100 tables.
    pub fn fig4(env: &EnvConfig) -> Self {
        FigureSpec {
            id: "fig4",
            title: "Median approximation error, 2 metrics, MinMax joins (paper Fig. 4)",
            sizes: vec![25, 50, 75, 100],
            selectivity: SelectivityMethod::MinMax,
            budget: Duration::from_millis(700),
            seed: 0x0F16_0004,
            ..Self::fig1(&EnvConfig::fixed(1.0, None))
        }
        .apply(env)
    }

    /// Figure 5: three metrics, MinMax selectivities.
    pub fn fig5(env: &EnvConfig) -> Self {
        FigureSpec {
            id: "fig5",
            title: "Median approximation error, 3 metrics, MinMax joins (paper Fig. 5)",
            metrics: 3,
            seed: 0x0F16_0005,
            ..Self::fig4(&EnvConfig::fixed(1.0, None))
        }
        .apply(env)
    }

    /// Figure 6: long budget, two metrics, 50/100 tables, α capped at 1e10.
    pub fn fig6(env: &EnvConfig) -> Self {
        FigureSpec {
            id: "fig6",
            title: "Median error in [1,1e10], 2 metrics, long budget (paper Fig. 6; 30s scaled)",
            shapes: GraphShape::PAPER.to_vec(),
            sizes: vec![50, 100],
            metrics: 2,
            selectivity: SelectivityMethod::Steinbrunn,
            budget: Duration::from_millis(2000),
            checkpoints: 10,
            cases: 2,
            algorithms: AlgorithmKind::PAPER_SET.to_vec(),
            reference: ReferenceKind::UnionOfAll,
            alpha_cap: Some(1e10),
            seed: 0x0F16_0006,
        }
        .apply(env)
    }

    /// Figure 7: long budget, three metrics.
    pub fn fig7(env: &EnvConfig) -> Self {
        FigureSpec {
            id: "fig7",
            title: "Median error in [1,1e10], 3 metrics, long budget (paper Fig. 7; 30s scaled)",
            metrics: 3,
            seed: 0x0F16_0007,
            ..Self::fig6(&EnvConfig::fixed(1.0, None))
        }
        .apply(env)
    }

    /// Figure 8: small queries, precise reference (DP α=1.01), 2 metrics.
    pub fn fig8(env: &EnvConfig) -> Self {
        FigureSpec {
            id: "fig8",
            title: "Precise error in [1,2], small queries, 2 metrics (paper Fig. 8; 30s scaled)",
            shapes: GraphShape::PAPER.to_vec(),
            sizes: vec![4, 8],
            metrics: 2,
            selectivity: SelectivityMethod::Steinbrunn,
            budget: Duration::from_millis(700),
            checkpoints: 8,
            cases: 3,
            algorithms: AlgorithmKind::PAPER_SET.to_vec(),
            reference: ReferenceKind::ExactDp,
            alpha_cap: Some(2.0),
            seed: 0x0F16_0008,
        }
        .apply(env)
    }

    /// Figure 9: small queries, precise reference, 3 metrics.
    pub fn fig9(env: &EnvConfig) -> Self {
        FigureSpec {
            id: "fig9",
            title: "Precise error in [1,2], small queries, 3 metrics (paper Fig. 9; 30s scaled)",
            metrics: 3,
            seed: 0x0F16_0009,
            ..Self::fig8(&EnvConfig::fixed(1.0, None))
        }
        .apply(env)
    }

    /// A tiny configuration for smoke tests and doc examples.
    pub fn smoke() -> Self {
        FigureSpec {
            id: "smoke",
            title: "Smoke-test figure",
            shapes: vec![GraphShape::Chain],
            sizes: vec![5],
            metrics: 2,
            selectivity: SelectivityMethod::Steinbrunn,
            budget: Duration::from_millis(30),
            checkpoints: 3,
            cases: 2,
            algorithms: vec![AlgorithmKind::Ii, AlgorithmKind::Rmq],
            reference: ReferenceKind::UnionOfAll,
            alpha_cap: None,
            seed: 0x0057_707e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_specs_follow_the_paper_grid() {
        let env = EnvConfig::fixed(1.0, None);
        let f1 = FigureSpec::fig1(&env);
        assert_eq!(f1.shapes.len(), 3);
        assert_eq!(f1.sizes, vec![10, 25, 50, 75, 100]);
        assert_eq!(f1.metrics, 2);
        assert_eq!(f1.algorithms.len(), 8);
        let f2 = FigureSpec::fig2(&env);
        assert_eq!(f2.metrics, 3);
        assert_eq!(f2.sizes, f1.sizes);
        let f4 = FigureSpec::fig4(&env);
        assert_eq!(f4.selectivity, SelectivityMethod::MinMax);
        assert_eq!(f4.sizes, vec![25, 50, 75, 100]);
        let f6 = FigureSpec::fig6(&env);
        assert_eq!(f6.sizes, vec![50, 100]);
        assert_eq!(f6.alpha_cap, Some(1e10));
        let f8 = FigureSpec::fig8(&env);
        assert_eq!(f8.sizes, vec![4, 8]);
        assert_eq!(f8.reference, ReferenceKind::ExactDp);
        assert_eq!(f8.alpha_cap, Some(2.0));
        let f9 = FigureSpec::fig9(&env);
        assert_eq!(f9.metrics, 3);
    }

    #[test]
    fn env_scaling_applies() {
        let env = EnvConfig::fixed(0.5, Some(7));
        let f1 = FigureSpec::fig1(&env);
        assert_eq!(f1.budget, Duration::from_millis(500));
        assert_eq!(f1.cases, 7);
        let env = EnvConfig {
            max_sizes: Some(2),
            ..EnvConfig::fixed(1.0, None)
        };
        assert_eq!(FigureSpec::fig1(&env).sizes, vec![10, 25]);
    }

    #[test]
    fn distinct_seeds_per_figure() {
        let env = EnvConfig::fixed(1.0, None);
        let seeds = [
            FigureSpec::fig1(&env).seed,
            FigureSpec::fig2(&env).seed,
            FigureSpec::fig4(&env).seed,
            FigureSpec::fig5(&env).seed,
            FigureSpec::fig6(&env).seed,
            FigureSpec::fig7(&env).seed,
            FigureSpec::fig8(&env).seed,
            FigureSpec::fig9(&env).seed,
        ];
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
    }
}
