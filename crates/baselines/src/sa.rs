//! SA — multi-objective simulated annealing (SAIO generalization).
//!
//! Follows the SAIO variant described by Steinbrunn et al., generalized to
//! several cost metrics the way the paper does (§6.1): "our generalization
//! uses the average cost difference between the current plan and its
//! neighbor, averaging over all cost metrics". This implementation departs
//! from that: it averages *relative* per-metric differences, where §6.1
//! says "average cost difference", so that metrics with different units are
//! commensurable (absolute differences would let the largest-magnitude
//! metric dominate the acceptance test).
//!
//! One optimizer step is one annealing *stage*: `moves_per_stage` random
//! neighbor proposals at the current temperature, followed by geometric
//! cooling. When frozen, the walk restarts from a fresh random plan (the
//! anytime contract requires steps to keep doing useful work), but — true
//! to the original algorithm's design — most time is spent refining a
//! single plan, which is exactly why SA approximates Pareto *frontiers*
//! poorly (the paper's finding).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moqo_core::archive::Admission;
use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::cost::CostVector;
use moqo_core::model::CostModel;
use moqo_core::mutations::random_neighbor_in;
use moqo_core::optimizer::{Optimizer, PlanExchange};
use moqo_core::pareto::ParetoSet;
use moqo_core::plan::PlanRef;
use moqo_core::random_plan::random_plan_in;
use moqo_core::tables::TableSet;

/// Tunable parameters of the annealing schedule.
#[derive(Clone, Copy, Debug)]
pub struct SaParams {
    /// Initial temperature (on the relative-cost-delta scale).
    pub initial_temperature: f64,
    /// Geometric cooling factor per stage.
    pub cooling: f64,
    /// Moves proposed per stage, as a multiple of the query size.
    pub moves_per_table: usize,
    /// Temperature below which the system counts as frozen.
    pub frozen: f64,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams {
            initial_temperature: 2.0,
            cooling: 0.95,
            moves_per_table: 16,
            frozen: 1e-3,
        }
    }
}

/// The SA optimizer.
pub struct SimulatedAnnealing<M: CostModel> {
    model: M,
    query: TableSet,
    params: SaParams,
    /// Per-optimizer plan arena: the random walk keeps re-visiting
    /// neighborhoods, so proposals are mostly intern hits.
    arena: PlanArena,
    current: PlanId,
    temperature: f64,
    archive: ParetoSet<PlanId>,
    rng: StdRng,
    stages: u64,
    accepted: u64,
    proposed: u64,
}

impl<M: CostModel> SimulatedAnnealing<M> {
    /// Creates an SA optimizer starting from a random plan.
    ///
    /// # Panics
    /// Panics if `query` is empty.
    pub fn new(model: M, query: TableSet, seed: u64) -> Self {
        Self::with_params(model, query, seed, SaParams::default())
    }

    /// Creates an SA optimizer with explicit parameters.
    pub fn with_params(model: M, query: TableSet, seed: u64, params: SaParams) -> Self {
        assert!(!query.is_empty(), "cannot optimize an empty query");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = PlanArena::new();
        let current = random_plan_in(&mut arena, &model, query, &mut rng);
        let mut archive: ParetoSet<PlanId> = ParetoSet::new();
        let view = arena.view(current);
        archive.admit(&view.cost, view.format, &Admission::cost_frontier(), || {
            current
        });
        SimulatedAnnealing {
            model,
            query,
            params,
            arena,
            current,
            temperature: params.initial_temperature,
            archive,
            rng,
            stages: 0,
            accepted: 0,
            proposed: 0,
        }
    }

    /// Restarts annealing from the given plan at the given temperature
    /// (used by the two-phase optimizer). The plan is imported into the
    /// optimizer's arena (the `Arc<Plan>` boundary conversion).
    pub fn restart_from(&mut self, plan: PlanRef, temperature: f64) {
        let id = self.arena.import(&plan);
        let view = self.arena.view(id);
        self.archive
            .admit(&view.cost, view.format, &Admission::cost_frontier(), || id);
        self.current = id;
        self.temperature = temperature;
    }

    /// Average relative cost difference over all metrics (the acceptance
    /// criterion's Δ): positive when `candidate` is worse on average.
    fn relative_delta(current: &CostVector, candidate: &CostVector) -> f64 {
        let c = current;
        let n = candidate;
        let mut delta = 0.0;
        for k in 0..c.dim() {
            delta += (n[k] - c[k]) / c[k].max(moqo_core::cost::MIN_COST);
        }
        delta / c.dim() as f64
    }

    /// Acceptance ratio so far (diagnostics).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.proposed == 0 {
            return 0.0;
        }
        self.accepted as f64 / self.proposed as f64
    }

    /// Current temperature (diagnostics).
    pub fn temperature(&self) -> f64 {
        self.temperature
    }
}

/// Served without plan exchange: the no-op [`PlanExchange`] defaults
/// apply (nothing to absorb or export, fan-out 1).
impl<M: CostModel + Send> PlanExchange for SimulatedAnnealing<M> {}

impl<M: CostModel> Optimizer for SimulatedAnnealing<M> {
    fn name(&self) -> &str {
        "SA"
    }

    fn step(&mut self) -> bool {
        if self.temperature < self.params.frozen {
            // Frozen: restart from a fresh random plan at full temperature.
            self.current = random_plan_in(&mut self.arena, &self.model, self.query, &mut self.rng);
            let view = self.arena.view(self.current);
            let id = self.current;
            self.archive
                .admit(&view.cost, view.format, &Admission::cost_frontier(), || id);
            self.temperature = self.params.initial_temperature;
        }
        let moves = self.params.moves_per_table * self.query.len().max(1);
        for _ in 0..moves {
            let Some(candidate) =
                random_neighbor_in(&mut self.arena, self.current, &self.model, &mut self.rng)
            else {
                continue;
            };
            self.proposed += 1;
            let current_cost = self.arena.cost(self.current);
            let candidate_cost = self.arena.cost(candidate);
            let delta = Self::relative_delta(&current_cost, &candidate_cost);
            let accept =
                delta <= 0.0 || self.rng.random::<f64>() < (-delta / self.temperature).exp();
            if accept {
                self.current = candidate;
                let format = self.arena.node(candidate).format();
                self.archive
                    .admit(&candidate_cost, format, &Admission::cost_frontier(), || {
                        candidate
                    });
                self.accepted += 1;
            }
        }
        self.temperature *= self.params.cooling;
        self.stages += 1;
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
    fn anneals_and_archives_valid_plans() {
        let model = StubModel::line(6, 2, 3);
        let q = TableSet::prefix(6);
        let mut sa = SimulatedAnnealing::new(&model, q, 1);
        drive(&mut sa, Budget::Iterations(30), &mut NullObserver);
        let f = sa.frontier();
        assert!(!f.is_empty());
        for p in &f {
            assert!(p.validate(q).is_ok());
        }
        assert!(sa.acceptance_ratio() > 0.0, "no move ever accepted");
    }

    #[test]
    fn temperature_cools_and_refreezes() {
        let model = StubModel::line(5, 2, 3);
        let q = TableSet::prefix(5);
        let params = SaParams {
            cooling: 0.5,
            ..SaParams::default()
        };
        let mut sa = SimulatedAnnealing::with_params(&model, q, 2, params);
        let t0 = sa.temperature();
        sa.step();
        assert!(sa.temperature() < t0);
        // Cool to frozen, then confirm restart resets the temperature.
        for _ in 0..20 {
            sa.step();
        }
        assert!(sa.temperature() >= params.frozen * 0.5);
    }

    #[test]
    fn hot_system_accepts_worse_moves_cold_system_rejects() {
        let model = StubModel::line(8, 2, 7);
        let q = TableSet::prefix(8);
        let hot = SaParams {
            initial_temperature: 10.0,
            cooling: 1.0,
            ..SaParams::default()
        };
        let cold = SaParams {
            initial_temperature: 2e-3,
            cooling: 1.0,
            ..SaParams::default()
        };
        let mut sa_hot = SimulatedAnnealing::with_params(&model, q, 5, hot);
        let mut sa_cold = SimulatedAnnealing::with_params(&model, q, 5, cold);
        for _ in 0..10 {
            sa_hot.step();
            sa_cold.step();
        }
        assert!(
            sa_hot.acceptance_ratio() > sa_cold.acceptance_ratio(),
            "hot {} <= cold {}",
            sa_hot.acceptance_ratio(),
            sa_cold.acceptance_ratio()
        );
    }

    #[test]
    fn relative_delta_is_signed_correctly() {
        // For one metric the relative delta's sign flips with direction;
        // with several metrics both directions can average positive, so
        // only the single-metric antisymmetry is a law.
        let model = StubModel::line(4, 1, 1);
        let q = TableSet::prefix(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut arena = PlanArena::new();
        for _ in 0..20 {
            let a = random_plan_in(&mut arena, &model, q, &mut rng);
            let b = random_plan_in(&mut arena, &model, q, &mut rng);
            let (a, b) = (arena.cost(a), arena.cost(b));
            let dab = SimulatedAnnealing::<StubModel>::relative_delta(&a, &b);
            let dba = SimulatedAnnealing::<StubModel>::relative_delta(&b, &a);
            if dab.abs() > 1e-12 {
                assert!(dab.signum() != dba.signum(), "dab={dab} dba={dba}");
            }
            // A strictly dominating move always has negative delta.
            if b.strictly_dominates(&a) {
                assert!(dab < 0.0);
            }
        }
    }
}
