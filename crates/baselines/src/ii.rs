//! II — multi-objective iterative improvement.
//!
//! The classic restart strategy (Steinbrunn et al., here in the paper's
//! multi-objective generalization): each iteration starts from a fresh
//! random plan, climbs to a local Pareto optimum with the *same efficient
//! climbing function* as RMQ (§6.1), and archives the optimum. Unlike RMQ
//! it neither varies operator assignments around the local optimum nor
//! shares partial plans across iterations — the comparison between the two
//! isolates exactly the contribution of `ApproximateFrontiers` + plan cache.

use rand::rngs::StdRng;
use rand::SeedableRng;

use moqo_core::archive::Admission;
use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::climb::{pareto_climb_in, ClimbConfig, StepScratch};
use moqo_core::model::CostModel;
use moqo_core::optimizer::{Optimizer, PlanExchange};
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::random_plan::random_plan_in;
use moqo_core::tables::TableSet;

/// The II optimizer.
pub struct IterativeImprovement<M: CostModel> {
    model: M,
    query: TableSet,
    climb: ClimbConfig,
    /// Per-optimizer plan arena: restarts rediscover subplans constantly,
    /// which interning turns into allocation-free hash probes.
    arena: PlanArena,
    archive: ParetoSet<PlanId>,
    scratch: StepScratch,
    rng: StdRng,
    iterations: u64,
}

impl<M: CostModel> IterativeImprovement<M> {
    /// Creates an II optimizer for `query` over `model`.
    ///
    /// # Panics
    /// Panics if `query` is empty.
    pub fn new(model: M, query: TableSet, seed: u64) -> Self {
        assert!(!query.is_empty(), "cannot optimize an empty query");
        IterativeImprovement {
            model,
            query,
            climb: ClimbConfig::default(),
            arena: PlanArena::new(),
            archive: ParetoSet::new(),
            scratch: StepScratch::default(),
            rng: StdRng::seed_from_u64(seed),
            iterations: 0,
        }
    }

    /// Number of completed restart iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

/// Served without plan exchange: the no-op [`PlanExchange`] defaults
/// apply (nothing to absorb or export, fan-out 1).
impl<M: CostModel + Send> PlanExchange for IterativeImprovement<M> {}

impl<M: CostModel> Optimizer for IterativeImprovement<M> {
    fn name(&self) -> &str {
        "II"
    }

    fn step(&mut self) -> bool {
        let start = random_plan_in(&mut self.arena, &self.model, self.query, &mut self.rng);
        let (optimum, _) = pareto_climb_in(
            &mut self.arena,
            start,
            &self.model,
            &self.climb,
            &mut self.scratch,
        );
        let view = self.arena.view(optimum);
        let (frontier, tally) = (Admission::CostFrontier, &mut ScreenCounters::default());
        self.archive
            .admit(&view.cost, view.format, &frontier, tally, || optimum);
        self.iterations += 1;
        true
    }

    fn frontier(&self) -> Vec<PlanRef> {
        self.archive
            .plans()
            .iter()
            .map(|&id| self.arena.export(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::optimizer::{drive, Budget, NullObserver};

    #[test]
    fn produces_nondominated_valid_plans() {
        let model = StubModel::line(7, 2, 5);
        let q = TableSet::prefix(7);
        let mut ii = IterativeImprovement::new(&model, q, 3);
        drive(&mut ii, Budget::Iterations(25), &mut NullObserver);
        let f = ii.frontier();
        assert!(!f.is_empty());
        assert_eq!(ii.iterations(), 25);
        for p in &f {
            assert!(p.validate(q).is_ok());
        }
        for a in &f {
            for b in &f {
                if !std::sync::Arc::ptr_eq(a, b) {
                    assert!(!a.cost().strictly_dominates(b.cost()));
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let model = StubModel::line(6, 2, 1);
        let q = TableSet::prefix(6);
        let run = |seed| {
            let mut ii = IterativeImprovement::new(&model, q, seed);
            drive(&mut ii, Budget::Iterations(10), &mut NullObserver);
            let mut costs: Vec<String> = ii
                .frontier()
                .iter()
                .map(|p| format!("{:?}", p.cost()))
                .collect();
            costs.sort();
            costs
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn archive_quality_improves_weakly() {
        // Minimum scalarized cost over the archive is non-increasing.
        let model = StubModel::line(8, 2, 9);
        let q = TableSet::prefix(8);
        let mut ii = IterativeImprovement::new(&model, q, 4);
        let mut best = f64::INFINITY;
        for _ in 0..20 {
            ii.step();
            let now = ii
                .frontier()
                .iter()
                .map(|p| p.cost().mean())
                .fold(f64::INFINITY, f64::min);
            assert!(now <= best + 1e-9, "archive regressed: {now} > {best}");
            best = best.min(now);
        }
    }
}
