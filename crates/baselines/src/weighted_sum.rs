//! WS — weighted-sum scalarization baseline (extension).
//!
//! §2 of the paper remarks that "mapping multi-objective optimization into a
//! single-objective optimization problem using a weighted sum over different
//! cost metrics with varying weights will not yield the Pareto frontier but
//! at most a subset of it (the convex hull)". This optimizer demonstrates
//! that: each step scalarizes the cost vector with the next weight vector
//! from a rotating schedule, hill-climbs the scalar objective from a random
//! plan, and archives the optimum. Tests (and the ablation bench) show it
//! systematically misses non-convex Pareto points that RMQ finds.

use rand::rngs::StdRng;
use rand::SeedableRng;

use moqo_core::archive::Admission;
use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::fxhash::FxHashMap;
use moqo_core::model::CostModel;
use moqo_core::mutations::{all_neighbors_in, MutationSet};
use moqo_core::optimizer::{Optimizer, PlanExchange};
use moqo_core::pareto::ParetoSet;
use moqo_core::plan::PlanRef;
use moqo_core::random_plan::random_plan_in;
use moqo_core::tables::TableSet;

/// Number of weight vectors in the rotation schedule.
pub const WEIGHT_STEPS: usize = 11;

/// The weighted-sum optimizer.
pub struct WeightedSum<M: CostModel> {
    model: M,
    query: TableSet,
    weights: Vec<Vec<f64>>,
    next_weight: usize,
    /// Holds the archived optima only.
    arena: PlanArena,
    /// Every neighbor of every climbing step is interned here; cleared at
    /// the start of each step so that it does not grow with the run.
    climb_arena: PlanArena,
    archive: ParetoSet<PlanId>,
    rng: StdRng,
}

impl<M: CostModel> WeightedSum<M> {
    /// Creates a WS optimizer for `query` over `model`.
    ///
    /// # Panics
    /// Panics if `query` is empty.
    pub fn new(model: M, query: TableSet, seed: u64) -> Self {
        assert!(!query.is_empty(), "cannot optimize an empty query");
        WeightedSum {
            weights: weight_schedule(model.dim()),
            model,
            query,
            next_weight: 0,
            arena: PlanArena::new(),
            climb_arena: PlanArena::new(),
            archive: ParetoSet::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The rotating weight schedule (diagnostics/tests).
    pub fn weights(&self) -> &[Vec<f64>] {
        &self.weights
    }

    /// Scalar hill climbing on `w · cost` in the climb arena.
    fn scalar_climb(&mut self, mut plan: PlanId, weights: &[f64]) -> PlanId {
        let arena = &mut self.climb_arena;
        loop {
            let current = arena.cost(plan).weighted_sum(weights);
            let better = all_neighbors_in(arena, plan, &self.model, MutationSet::Bushy)
                .into_iter()
                .find(|&nb| arena.cost(nb).weighted_sum(weights) < current - 1e-12);
            match better {
                Some(nb) => plan = nb,
                None => return plan,
            }
        }
    }
}

/// Evenly spread weight vectors over the simplex: for one metric the single
/// weight `[1]`; for two metrics `(t, 1−t)` for `t ∈ {0, 0.1, …, 1}`; for
/// more metrics a deterministic lattice of the same granularity.
pub fn weight_schedule(dim: usize) -> Vec<Vec<f64>> {
    assert!(dim >= 1);
    if dim == 1 {
        return vec![vec![1.0]];
    }
    let mut out = Vec::new();
    let steps = WEIGHT_STEPS - 1;
    if dim == 2 {
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            out.push(vec![t, 1.0 - t]);
        }
    } else {
        // Lattice over the first dim-1 coordinates; remainder to the last.
        let coarse = 4usize;
        fn rec(
            dim: usize,
            left: usize,
            coarse: usize,
            acc: &mut Vec<usize>,
            out: &mut Vec<Vec<f64>>,
        ) {
            if dim == 1 {
                let mut w: Vec<f64> = acc.iter().map(|&x| x as f64 / coarse as f64).collect();
                w.push(left as f64 / coarse as f64);
                out.push(w);
                return;
            }
            for take in 0..=left {
                acc.push(take);
                rec(dim - 1, left - take, coarse, acc, out);
                acc.pop();
            }
        }
        rec(dim, coarse, coarse, &mut Vec::new(), &mut out);
    }
    out
}

/// Served without plan exchange: the no-op [`PlanExchange`] defaults
/// apply (nothing to absorb or export, fan-out 1).
impl<M: CostModel + Send> PlanExchange for WeightedSum<M> {}

impl<M: CostModel> Optimizer for WeightedSum<M> {
    fn name(&self) -> &str {
        "WS"
    }

    fn step(&mut self) -> bool {
        let weights = self.weights[self.next_weight].clone();
        self.next_weight = (self.next_weight + 1) % self.weights.len();
        self.climb_arena.clear();
        let start = random_plan_in(
            &mut self.climb_arena,
            &self.model,
            self.query,
            &mut self.rng,
        );
        let optimum = self.scalar_climb(start, &weights);
        let view = self.climb_arena.view(optimum);
        let (arena, climb_arena) = (&mut self.arena, &self.climb_arena);
        self.archive
            .admit(&view.cost, view.format, &Admission::cost_frontier(), || {
                arena.adopt(climb_arena, optimum, &mut FxHashMap::default())
            });
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
    fn weight_schedules_sum_to_one() {
        for dim in 1..=3 {
            for w in weight_schedule(dim) {
                assert_eq!(w.len(), dim);
                let sum: f64 = w.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "weights {w:?} sum to {sum}");
                assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
            }
        }
        assert_eq!(weight_schedule(2).len(), WEIGHT_STEPS);
        assert!(weight_schedule(3).len() >= 10);
    }

    #[test]
    fn frontier_is_pinned_bit_for_bit() {
        // The archive's cost vectors, in archive order, as the optimizer
        // produced them when it still climbed `Arc<Plan>` trees: the same
        // random plans, the same neighbor order, the same moves.
        let model = StubModel::line(6, 2, 3);
        let q = TableSet::prefix(6);
        let mut ws = WeightedSum::new(&model, q, 1);
        drive(&mut ws, Budget::Iterations(15), &mut NullObserver);
        let got: Vec<Vec<u64>> = ws
            .frontier()
            .iter()
            .map(|p| p.cost().as_slice().iter().map(|c| c.to_bits()).collect())
            .collect();
        let pinned: Vec<Vec<u64>> = [
            [56.727150774083434, 18.347408015763712],
            [31.343742693440504, 37.40748254370278],
            [31.254273362707725, 43.76474806279548],
            [16.618065850337846, 74.45257439771906],
            [75.19656549730068, 17.317061579608602],
            [52.966608809885834, 23.13879671319305],
            [39.40184702976254, 24.36466236553465],
        ]
        .iter()
        .map(|c: &[f64; 2]| c.iter().map(|x| x.to_bits()).collect())
        .collect();
        assert_eq!(got, pinned);
    }

    #[test]
    fn produces_valid_nondominated_archive() {
        let model = StubModel::line(6, 2, 3);
        let q = TableSet::prefix(6);
        let mut ws = WeightedSum::new(&model, q, 1);
        drive(&mut ws, Budget::Iterations(15), &mut NullObserver);
        let f = ws.frontier();
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
    fn extreme_weights_optimize_single_metrics() {
        // With weight (1, 0), the climb minimizes metric 0 only; the
        // archive must contain a plan at least as good in metric 0 as any
        // balanced-weight plan.
        let model = StubModel::line(6, 2, 5);
        let q = TableSet::prefix(6);
        let mut ws = WeightedSum::new(&model, q, 2);
        drive(&mut ws, Budget::Iterations(22), &mut NullObserver);
        let f = ws.frontier();
        let best_m0 = f.iter().map(|p| p.cost()[0]).fold(f64::INFINITY, f64::min);
        let best_m1 = f.iter().map(|p| p.cost()[1]).fold(f64::INFINITY, f64::min);
        assert!(best_m0.is_finite() && best_m1.is_finite());
        // The archive spans both extremes (not a single compromise plan).
        assert!(f.len() >= 2, "WS found only {} plan(s)", f.len());
    }
}
