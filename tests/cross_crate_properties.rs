//! Property-based tests spanning the whole stack: random workloads through
//! the production cost models, optimizers, and quality metrics.

use moqo_core::arena::{PlanArena, PlanNodeKind};
use moqo_core::climb::{is_local_optimum_in, pareto_climb_in, ClimbConfig, StepScratch};
use moqo_core::model::CostModel;
use moqo_core::optimizer::{drive, Budget, NullObserver};
use moqo_core::random_plan::random_plan_in;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::TableSet;
use moqo_cost::{AqpCostModel, CloudCostModel, EnergyCostModel, ResourceCostModel, ResourceMetric};
use moqo_metrics::{pareto_filter, Preferences, ReferenceFrontier};
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_shape() -> impl Strategy<Value = GraphShape> {
    prop_oneof![
        Just(GraphShape::Chain),
        Just(GraphShape::Cycle),
        Just(GraphShape::Star),
        Just(GraphShape::Clique),
    ]
}

fn arb_sel() -> impl Strategy<Value = SelectivityMethod> {
    prop_oneof![
        Just(SelectivityMethod::Steinbrunn),
        Just(SelectivityMethod::MinMax)
    ]
}

/// A random plan over `model` is valid and its costs are additive (its
/// children's costs weakly dominate its own); the climb from it ends, within
/// the step bound, on a valid plan the start does not strictly dominate,
/// and that plan is a local Pareto optimum of the climb.
fn random_plan_climbs_to_a_local_optimum<M: CostModel>(
    model: &M,
    query: TableSet,
    seed: u64,
) -> Result<(), String> {
    let mut arena = PlanArena::new();
    let plan = random_plan_in(&mut arena, model, query, &mut StdRng::seed_from_u64(seed));
    prop_assert!(arena.validate(plan, query).is_ok());
    let cost = arena.cost(plan);
    prop_assert!(cost.is_valid());
    if let PlanNodeKind::Join { outer, inner, .. } = arena.node(plan).kind() {
        prop_assert!(arena.cost(outer).add(&arena.cost(inner)).dominates(&cost));
    }
    let cfg = ClimbConfig::default();
    let (optimum, stats) =
        pareto_climb_in(&mut arena, plan, model, &cfg, &mut StepScratch::default());
    prop_assert!(arena.validate(optimum, query).is_ok());
    prop_assert!(!cost.strictly_dominates(&arena.cost(optimum)));
    prop_assert!(stats.steps < 5_000);
    prop_assert!(
        is_local_optimum_in(&mut arena, optimum, model, &cfg),
        "the climb stopped on a plan its own step improves"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random plans over the resource model are valid, additive, and climb
    /// to a local Pareto optimum that is no worse than the start.
    #[test]
    fn resource_model_plans_behave(
        n in 2usize..12,
        shape in arb_shape(),
        sel in arb_sel(),
        seed in 0u64..500,
    ) {
        let (catalog, query) = WorkloadSpec { tables: n, shape, selectivity: sel, seed }.generate();
        let model = ResourceCostModel::full(catalog);
        random_plan_climbs_to_a_local_optimum(&model, query.tables(), seed ^ 0xF00D)?;
    }

    /// RMQ's frontier plans cover each other under the ε-indicator: the
    /// frontier vs itself is exactly 1, and every frontier member survives
    /// Pareto filtering of its own cost set (modulo duplicate costs from
    /// distinct output formats).
    #[test]
    fn rmq_frontier_is_self_consistent(
        n in 2usize..9,
        shape in arb_shape(),
        seed in 0u64..200,
    ) {
        let (catalog, query) = WorkloadSpec { tables: n, shape, selectivity: SelectivityMethod::MinMax, seed }.generate();
        let model = ResourceCostModel::new(catalog, &[ResourceMetric::Time, ResourceMetric::Buffer]);
        let mut rmq = Rmq::new(&model, query.tables(), RmqConfig::seeded(seed));
        drive(&mut rmq, Budget::Iterations(8), &mut NullObserver);
        let frontier = rmq.frontier();
        prop_assert!(!frontier.is_empty());
        let reference = ReferenceFrontier::from_plan_sets([frontier.as_slice()]);
        prop_assert_eq!(reference.alpha_of_plans(&frontier), 1.0);
        let costs: Vec<_> = frontier.iter().map(|p| *p.cost()).collect();
        let filtered = pareto_filter(&costs);
        prop_assert!(filtered.len() <= costs.len());
        prop_assert!(!filtered.is_empty());
    }

    /// The cloud model exposes a genuine time/money tradeoff at the plan
    /// level: minimizing the weighted sum at extreme weights yields
    /// different plans.
    #[test]
    fn cloud_model_tradeoffs_are_real(n in 3usize..8, seed in 0u64..100) {
        let (catalog, query) = WorkloadSpec { tables: n, shape: GraphShape::Chain, selectivity: SelectivityMethod::MinMax, seed }.generate();
        let model = CloudCostModel::new(catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        // Sample a bag of random plans; fastest and cheapest must differ
        // unless the frontier is degenerate.
        let mut arena = PlanArena::new();
        let costs: Vec<_> = (0..30)
            .map(|_| {
                let plan = random_plan_in(&mut arena, &model, query.tables(), &mut rng);
                arena.cost(plan)
            })
            .collect();
        let fastest = costs.iter().min_by(|a, b| a[0].total_cmp(&b[0])).unwrap();
        let cheapest = costs.iter().min_by(|a, b| a[1].total_cmp(&b[1])).unwrap();
        prop_assert!(fastest[0] <= cheapest[0] + 1e-9);
        prop_assert!(cheapest[1] <= fastest[1] + 1e-9);
    }

    /// Workload generation + catalog queries stay in sync for subqueries:
    /// any non-empty subset of tables forms a valid query whose RMQ
    /// frontier joins exactly those tables.
    #[test]
    fn subqueries_are_optimizable(seed in 0u64..100, mask in 1u8..63) {
        let (catalog, _) = WorkloadSpec { tables: 6, shape: GraphShape::Clique, selectivity: SelectivityMethod::MinMax, seed }.generate();
        let tables = moqo_core::TableSet::from_bits(mask as u128);
        let query = moqo_catalog::Query::new(&catalog, tables).expect("valid subquery");
        let model = ResourceCostModel::full(catalog);
        let mut rmq = Rmq::new(&model, query.tables(), RmqConfig::seeded(seed));
        drive(&mut rmq, Budget::Iterations(3), &mut NullObserver);
        for p in rmq.frontier() {
            prop_assert_eq!(p.rel(), tables);
        }
    }

    /// The AQP model upholds the CostModel contract on random workloads:
    /// valid additive costs, and climbs that terminate on local optima.
    #[test]
    fn aqp_model_plans_behave(
        n in 2usize..10,
        shape in arb_shape(),
        seed in 0u64..200,
    ) {
        let (catalog, query) = WorkloadSpec { tables: n, shape, selectivity: SelectivityMethod::MinMax, seed }.generate();
        let model = AqpCostModel::new(catalog);
        random_plan_climbs_to_a_local_optimum(&model, query.tables(), seed ^ 0xA9)?;
    }

    /// The energy model upholds the CostModel contract on random workloads.
    #[test]
    fn energy_model_plans_behave(
        n in 2usize..10,
        shape in arb_shape(),
        seed in 0u64..200,
    ) {
        let (catalog, query) = WorkloadSpec { tables: n, shape, selectivity: SelectivityMethod::Steinbrunn, seed }.generate();
        let model = EnergyCostModel::new(catalog);
        random_plan_climbs_to_a_local_optimum(&model, query.tables(), seed ^ 0xE6)?;
    }

    /// Preference selection returns Pareto-optimal plans: the weighted-sum
    /// minimizer with strictly positive weights can never be strictly
    /// dominated within the candidate set.
    #[test]
    fn preference_selection_is_pareto_optimal(
        n in 2usize..8,
        seed in 0u64..100,
        w0 in 1u32..100,
        w1 in 1u32..100,
    ) {
        let (catalog, query) = WorkloadSpec { tables: n, shape: GraphShape::Chain, selectivity: SelectivityMethod::MinMax, seed }.generate();
        let model = ResourceCostModel::new(catalog, &[ResourceMetric::Time, ResourceMetric::Buffer]);
        let mut rmq = Rmq::new(&model, query.tables(), RmqConfig::seeded(seed));
        drive(&mut rmq, Budget::Iterations(10), &mut NullObserver);
        let frontier = rmq.frontier();
        prop_assert!(!frontier.is_empty());
        let prefs = Preferences::weighted(&[w0 as f64, w1 as f64]);
        let chosen = prefs.select(&frontier).expect("non-empty candidates");
        for p in &frontier {
            prop_assert!(
                !p.cost().strictly_dominates(chosen.cost()),
                "selected plan dominated by {:?}",
                p.cost()
            );
        }
    }

    /// The sampled cardinality chain of the AQP model: every plan's row
    /// estimate is bounded by the product of its base-table cardinalities
    /// (selectivities and sampling can only shrink it).
    #[test]
    fn aqp_rows_bounded_by_cross_product(n in 2usize..8, seed in 0u64..100) {
        let (catalog, query) = WorkloadSpec { tables: n, shape: GraphShape::Star, selectivity: SelectivityMethod::MinMax, seed }.generate();
        let cross: f64 = query.tables().iter().map(|t| catalog.rows(t)).product();
        let model = AqpCostModel::new(catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = PlanArena::new();
        for _ in 0..5 {
            let plan = random_plan_in(&mut arena, &model, query.tables(), &mut rng);
            let rows = arena.node(plan).rows();
            prop_assert!(rows <= cross * (1.0 + 1e-9));
            prop_assert!(rows >= 1.0);
        }
    }
}
