//! 2P — two-phase optimization.
//!
//! Steinbrunn et al.'s two-phase optimization, generalized as in the paper
//! (§6.1): phase one runs **ten iterations of II** (random restarts with the
//! fast climbing function); phase two runs **SA** starting from the best
//! plan found so far, with a reduced initial temperature (the original
//! motivation: II finds a good basin, SA explores it thoroughly).
//!
//! "Best" among mutually non-dominated multi-objective plans is resolved by
//! the smallest mean relative cost over the phase-one archive (each metric
//! normalized by the archive minimum) — a scalarization-free tie-break.
//!
//! Both phases run on their own hash-consed plan arenas (see
//! [`moqo_core::arena`]); the phase hand-off crosses the arena boundary
//! through the `Arc<Plan>` exchange format: phase one's best plan is
//! exported from II's arena and re-interned into SA's via
//! [`SimulatedAnnealing::restart_from`].

use moqo_core::archive::Admission;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{Optimizer, PlanExchange};
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::tables::TableSet;

use crate::ii::IterativeImprovement;
use crate::sa::{SaParams, SimulatedAnnealing};

/// Number of II iterations in phase one (per Steinbrunn et al.).
pub const PHASE_ONE_ITERATIONS: u64 = 10;

/// The 2P optimizer.
pub struct TwoPhase<M: CostModel> {
    ii: IterativeImprovement<M>,
    sa: SimulatedAnnealing<M>,
    phase_one_left: u64,
    switched: bool,
}

impl<M: CostModel + Clone> TwoPhase<M> {
    /// Creates a 2P optimizer for `query` over `model`. Both phases need
    /// the model, so it must be cheaply cloneable — which the two holding
    /// modes are (`&M` is `Copy`, `Arc<M>` bumps a refcount).
    ///
    /// # Panics
    /// Panics if `query` is empty.
    pub fn new(model: M, query: TableSet, seed: u64) -> Self {
        let sa_params = SaParams {
            // Phase two starts cooler: the start plan is already good.
            initial_temperature: 0.2,
            ..SaParams::default()
        };
        TwoPhase {
            ii: IterativeImprovement::new(model.clone(), query, seed),
            sa: SimulatedAnnealing::with_params(model, query, seed ^ 0x2b, sa_params),
            phase_one_left: PHASE_ONE_ITERATIONS,
            switched: false,
        }
    }
}

impl<M: CostModel> TwoPhase<M> {
    /// Whether phase two (SA) has started.
    pub fn in_phase_two(&self) -> bool {
        self.switched
    }

    /// The plan with the smallest mean normalized cost in `plans`.
    fn best_normalized(plans: &[PlanRef]) -> Option<PlanRef> {
        if plans.is_empty() {
            return None;
        }
        let dim = plans[0].cost().dim();
        let mut mins = vec![f64::INFINITY; dim];
        for p in plans {
            for (k, min) in mins.iter_mut().enumerate() {
                *min = min.min(p.cost()[k]);
            }
        }
        plans
            .iter()
            .min_by(|a, b| {
                let score = |p: &PlanRef| -> f64 {
                    (0..dim)
                        .map(|k| p.cost()[k] / mins[k].max(moqo_core::cost::MIN_COST))
                        .sum::<f64>()
                };
                score(a).total_cmp(&score(b))
            })
            .cloned()
    }
}

/// Served without plan exchange: the no-op [`PlanExchange`] defaults
/// apply (nothing to absorb or export, fan-out 1).
impl<M: CostModel + Send> PlanExchange for TwoPhase<M> {}

impl<M: CostModel> Optimizer for TwoPhase<M> {
    fn name(&self) -> &str {
        "2P"
    }

    fn step(&mut self) -> bool {
        if self.phase_one_left > 0 {
            self.ii.step();
            self.phase_one_left -= 1;
            if self.phase_one_left == 0 {
                if let Some(best) = Self::best_normalized(&self.ii.frontier()) {
                    self.sa.restart_from(best, 0.2);
                }
                self.switched = true;
            }
        } else {
            self.sa.step();
        }
        true
    }

    fn frontier(&self) -> Vec<PlanRef> {
        // Union of both phases' archives, Pareto-filtered.
        let mut all = ParetoSet::new();
        let mut screen = ScreenCounters::default();
        for p in self.ii.frontier().into_iter().chain(self.sa.frontier()) {
            all.insert(p, &Admission::cost_frontier(), &mut screen);
        }
        all.into_plans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::optimizer::{drive, Budget, NullObserver};

    #[test]
    fn switches_to_phase_two_after_ten_steps() {
        let model = StubModel::line(6, 2, 3);
        let q = TableSet::prefix(6);
        let mut tp = TwoPhase::new(&model, q, 1);
        for _ in 0..PHASE_ONE_ITERATIONS - 1 {
            tp.step();
            assert!(!tp.in_phase_two());
        }
        tp.step();
        assert!(tp.in_phase_two());
    }

    #[test]
    fn produces_valid_nondominated_frontier() {
        let model = StubModel::line(7, 3, 5);
        let q = TableSet::prefix(7);
        let mut tp = TwoPhase::new(&model, q, 9);
        drive(&mut tp, Budget::Iterations(30), &mut NullObserver);
        let f = tp.frontier();
        assert!(!f.is_empty());
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
    fn best_normalized_picks_balanced_plans() {
        let model = StubModel::line(4, 2, 7);
        let q = TableSet::prefix(4);
        let mut tp = TwoPhase::new(&model, q, 2);
        drive(&mut tp, Budget::Iterations(10), &mut NullObserver);
        let frontier = tp.ii.frontier();
        let best = TwoPhase::<StubModel>::best_normalized(&frontier).unwrap();
        assert!(frontier.iter().any(|p| std::sync::Arc::ptr_eq(p, &best)));
        assert!(TwoPhase::<StubModel>::best_normalized(&[]).is_none());
    }
}
