//! Failure injection: adversarial cost models probing the optimizer stack's
//! edge cases — ubiquitous cost ties, a single metric (`l = 1`, where MOQO
//! degenerates to traditional query optimization), the maximum metric count,
//! extreme cost magnitudes, and format explosions. The algorithms must stay
//! correct (valid plans, terminating climbs, non-dominated frontiers) on all
//! of them.

use moqo_baselines::{DpOptimizer, IterativeImprovement, Nsga2, SimulatedAnnealing};
use moqo_core::arena::PlanArena;
use moqo_core::climb::{is_local_optimum_in, pareto_climb_in, ClimbConfig, StepScratch};
use moqo_core::cost::{CostVector, MAX_COST_DIM};
use moqo_core::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
use moqo_core::optimizer::{drive, Budget, NullObserver, Optimizer};
use moqo_core::random_plan::random_plan_in;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::{TableId, TableSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Base for the adversarial models: a fixed operator library whose derived
/// properties are produced by a closure over (node kind, operator, inputs).
struct AdversarialModel {
    n: usize,
    dim: usize,
    formats: usize,
    scan_ops: Vec<ScanOpId>,
    join_ops: Vec<JoinOpId>,
    scan_cost: fn(&AdversarialModel, TableId, ScanOpId) -> PlanProps,
    join_cost: fn(&AdversarialModel, &PlanView, &PlanView, JoinOpId) -> PlanProps,
}

impl AdversarialModel {
    fn rows(&self, t: TableId) -> f64 {
        100.0 * (t.index() + 1) as f64
    }
}

impl CostModel for AdversarialModel {
    fn dim(&self) -> usize {
        self.dim
    }
    fn metric_name(&self, _k: usize) -> &str {
        "m"
    }
    fn num_tables(&self) -> usize {
        self.n
    }
    fn scan_ops(&self, _table: TableId) -> &[ScanOpId] {
        &self.scan_ops
    }
    fn join_ops(&self, _outer: &PlanView, _inner: &PlanView, out: &mut Vec<JoinOpId>) {
        out.extend_from_slice(&self.join_ops);
    }
    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
        (self.scan_cost)(self, table, op)
    }
    fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
        (self.join_cost)(self, outer, inner, op)
    }
    fn scan_op_name(&self, op: ScanOpId) -> String {
        format!("s{}", op.0)
    }
    fn join_op_name(&self, op: JoinOpId) -> String {
        format!("j{}", op.0)
    }
    fn num_formats(&self) -> usize {
        self.formats
    }
}

/// Every operator of every node costs exactly the same: the entire plan
/// space is one giant cost tie.
fn tie_model(n: usize, dim: usize) -> AdversarialModel {
    AdversarialModel {
        n,
        dim,
        formats: 1,
        scan_ops: vec![ScanOpId(0), ScanOpId(1)],
        join_ops: vec![JoinOpId(0), JoinOpId(1)],
        scan_cost: |m, t, _op| PlanProps {
            cost: CostVector::new(&vec![1.0; m.dim]),
            rows: m.rows(t),
            pages: 1.0,
            format: OutputFormat(0),
        },
        join_cost: |m, outer, inner, _op| PlanProps {
            cost: outer
                .cost
                .add(&inner.cost)
                .add(&CostVector::new(&vec![1.0; m.dim])),
            rows: outer.rows * inner.rows,
            pages: 1.0,
            format: OutputFormat(0),
        },
    }
}

/// Costs spanning ~300 orders of magnitude between operators.
fn huge_range_model(n: usize) -> AdversarialModel {
    AdversarialModel {
        n,
        dim: 2,
        formats: 1,
        scan_ops: vec![ScanOpId(0), ScanOpId(1)],
        join_ops: vec![JoinOpId(0), JoinOpId(1)],
        scan_cost: |m, t, op| {
            let w = if op.0 == 0 { 1e-150 } else { 1e150 };
            PlanProps {
                cost: CostVector::new(&[w, 1.0 / w]),
                rows: m.rows(t),
                pages: 1.0,
                format: OutputFormat(0),
            }
        },
        join_cost: |_m, outer, inner, op| {
            let w = if op.0 == 0 { 1e-150 } else { 1e150 };
            PlanProps {
                cost: outer
                    .cost
                    .add(&inner.cost)
                    .add(&CostVector::new(&[w, 1.0 / w])),
                rows: outer.rows * inner.rows,
                pages: 1.0,
                format: OutputFormat(0),
            }
        },
    }
}

/// `l = 1`: the classical single-objective join-ordering problem.
fn single_metric_model(n: usize) -> AdversarialModel {
    AdversarialModel {
        n,
        dim: 1,
        formats: 1,
        scan_ops: vec![ScanOpId(0)],
        join_ops: vec![JoinOpId(0)],
        scan_cost: |m, t, _op| PlanProps {
            cost: CostVector::new(&[m.rows(t)]),
            rows: m.rows(t),
            pages: m.rows(t) / 100.0,
            format: OutputFormat(0),
        },
        join_cost: |_m, outer, inner, _op| {
            // Classic C_out-style cost: output cardinality accumulates, so
            // join order genuinely matters.
            let rows = (outer.rows * inner.rows / 1_000.0).max(1.0);
            PlanProps {
                cost: outer.cost.add(&inner.cost).add(&CostVector::new(&[rows])),
                rows,
                pages: rows / 100.0,
                format: OutputFormat(0),
            }
        },
    }
}

/// The maximum supported metric count, every operator pair trading off.
fn max_dim_model(n: usize) -> AdversarialModel {
    AdversarialModel {
        n,
        dim: MAX_COST_DIM,
        formats: 1,
        scan_ops: vec![ScanOpId(0), ScanOpId(1)],
        join_ops: vec![JoinOpId(0), JoinOpId(1)],
        scan_cost: |m, t, op| {
            let mut c = CostVector::zeros(m.dim);
            for k in 0..m.dim {
                let w = if (k + op.0 as usize) % 2 == 0 {
                    1.0
                } else {
                    3.0
                };
                c = c.add_component(k, w);
            }
            PlanProps {
                cost: c,
                rows: m.rows(t),
                pages: 1.0,
                format: OutputFormat(0),
            }
        },
        join_cost: |m, outer, inner, op| {
            let mut step = CostVector::zeros(m.dim);
            for k in 0..m.dim {
                let w = if (k + op.0 as usize) % 2 == 0 {
                    1.0
                } else {
                    3.0
                };
                step = step.add_component(k, w);
            }
            PlanProps {
                cost: outer.cost.add(&inner.cost).add(&step),
                rows: outer.rows * inner.rows,
                pages: 1.0,
                format: OutputFormat(0),
            }
        },
    }
}

/// One distinct output format per join operator (format explosion).
fn many_formats_model(n: usize, formats: usize) -> AdversarialModel {
    AdversarialModel {
        n,
        dim: 2,
        formats,
        scan_ops: vec![ScanOpId(0)],
        join_ops: (0..formats as u16).map(JoinOpId).collect(),
        scan_cost: |m, t, _op| PlanProps {
            cost: CostVector::new(&vec![1.0; m.dim]),
            rows: m.rows(t),
            pages: 1.0,
            format: OutputFormat(0),
        },
        join_cost: |m, outer, inner, op| {
            let mut step = CostVector::zeros(m.dim);
            step = step.add_component(0, 1.0 + op.0 as f64 * 0.1);
            step = step.add_component(1, 1.0 + (m.formats as f64 - op.0 as f64) * 0.1);
            PlanProps {
                cost: outer.cost.add(&inner.cost).add(&step),
                rows: outer.rows * inner.rows,
                pages: 1.0,
                format: OutputFormat(op.0 as u8),
            }
        },
    }
}

#[test]
fn ties_terminate_immediately_and_yield_one_plan() {
    let model = tie_model(6, 2);
    let q = TableSet::prefix(6);
    let mut rng = StdRng::seed_from_u64(1);
    let mut arena = PlanArena::new();
    let start = random_plan_in(&mut arena, &model, q, &mut rng);
    // No neighbor strictly dominates a tie, so the very first plan is a
    // local Pareto optimum and the climb must take zero improving steps.
    let cfg = ClimbConfig::default();
    let (opt, stats) =
        pareto_climb_in(&mut arena, start, &model, &cfg, &mut StepScratch::default());
    assert_eq!(stats.steps, 0, "ties admit no strict improvement");
    assert_eq!(arena.cost(opt), arena.cost(start));
    assert!(is_local_optimum_in(&mut arena, opt, &model, &cfg));

    // The frontier collapses to a single cost point.
    let mut rmq = Rmq::new(&model, q, RmqConfig::seeded(2));
    drive(&mut rmq, Budget::Iterations(20), &mut NullObserver);
    let frontier = rmq.frontier();
    assert_eq!(frontier.len(), 1, "all-ties frontier must be a single plan");
    // Every plan costs (number of joins + number of scans) = 2n - 1 per
    // metric; n = 6 → 11.
    assert_eq!(frontier[0].cost()[0], 11.0);
}

#[test]
fn ties_dp_agrees_with_rmq() {
    let model = tie_model(5, 3);
    let q = TableSet::prefix(5);
    let mut dp = DpOptimizer::new(&model, q, 1.0);
    drive(&mut dp, Budget::Iterations(u64::MAX), &mut NullObserver);
    let dp_frontier = dp.frontier();
    assert_eq!(dp_frontier.len(), 1);
    assert_eq!(dp_frontier[0].cost()[0], 9.0);
}

#[test]
fn single_metric_degenerates_to_classical_optimization() {
    let model = single_metric_model(7);
    let q = TableSet::prefix(7);
    // With one metric, dominance is a total order on distinct costs: the
    // frontier must be a single plan.
    let mut rmq = Rmq::new(&model, q, RmqConfig::seeded(5));
    drive(&mut rmq, Budget::Iterations(60), &mut NullObserver);
    let frontier = rmq.frontier();
    assert_eq!(frontier.len(), 1, "single-objective frontier is one plan");

    // And RMQ's plan is at least as good as II's under the same budget
    // (both use the same climbing machinery; RMQ additionally recombines
    // cached partial plans).
    let mut ii = IterativeImprovement::new(&model, q, 5);
    drive(&mut ii, Budget::Iterations(60), &mut NullObserver);
    let best_ii = ii
        .frontier()
        .iter()
        .map(|p| p.cost()[0])
        .fold(f64::MAX, f64::min);
    assert!(frontier[0].cost()[0] <= best_ii * (1.0 + 1e-9));
}

#[test]
fn single_metric_exact_dp_is_lower_bound() {
    let model = single_metric_model(6);
    let q = TableSet::prefix(6);
    let mut dp = DpOptimizer::new(&model, q, 1.0);
    drive(&mut dp, Budget::Iterations(u64::MAX), &mut NullObserver);
    let dp_best = dp.frontier()[0].cost()[0];
    let mut rmq = Rmq::new(&model, q, RmqConfig::seeded(9));
    drive(&mut rmq, Budget::Iterations(100), &mut NullObserver);
    let rmq_best = rmq.frontier()[0].cost()[0];
    assert!(
        rmq_best >= dp_best * (1.0 - 1e-9),
        "heuristic beat the exact optimum: {rmq_best} < {dp_best}"
    );
    // On a 6-table problem with this much budget RMQ should find the optimum.
    assert!(
        rmq_best <= dp_best * (1.0 + 1e-9),
        "RMQ missed the optimum: {rmq_best} vs {dp_best}"
    );
}

#[test]
fn huge_cost_ranges_stay_finite() {
    let model = huge_range_model(5);
    let q = TableSet::prefix(5);
    let mut rmq = Rmq::new(&model, q, RmqConfig::seeded(3));
    drive(&mut rmq, Budget::Iterations(30), &mut NullObserver);
    let frontier = rmq.frontier();
    assert!(!frontier.is_empty());
    for p in &frontier {
        assert!(p.cost().is_valid(), "invalid cost {:?}", p.cost());
        assert!(p.cost()[0].is_finite() && p.cost()[1].is_finite());
        assert!(p.cost()[0] > 0.0 && p.cost()[1] > 0.0);
    }
    // Approximate-dominance factors across the range must not overflow.
    for a in &frontier {
        for b in &frontier {
            let f = a.cost().approx_factor(b.cost());
            assert!(!f.is_nan(), "NaN approx factor");
        }
    }
}

#[test]
fn max_metric_count_is_supported_end_to_end() {
    let model = max_dim_model(5);
    let q = TableSet::prefix(5);
    assert_eq!(model.dim(), MAX_COST_DIM);
    let mut rmq = Rmq::new(&model, q, RmqConfig::seeded(7));
    drive(&mut rmq, Budget::Iterations(40), &mut NullObserver);
    let frontier = rmq.frontier();
    assert!(!frontier.is_empty());
    for p in &frontier {
        assert_eq!(p.cost().dim(), MAX_COST_DIM);
        assert!(p.validate(q).is_ok());
    }
    // Frontier members are mutually non-dominated.
    for a in &frontier {
        for b in &frontier {
            if !std::sync::Arc::ptr_eq(a, b) {
                assert!(!a.cost().strictly_dominates(b.cost()));
            }
        }
    }
}

#[test]
fn sparse_dominance_shortens_climbs_at_high_dim() {
    // §5's statistical model: dominating neighbors become sparse as l
    // grows, so climbs from random starts get shorter on average.
    let q = TableSet::prefix(8);
    let mean_steps = |dim: usize| {
        let model = if dim == 1 {
            single_metric_model(8)
        } else {
            max_dim_model(8)
        };
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = ClimbConfig::default();
        let mut arena = PlanArena::new();
        let mut scratch = StepScratch::default();
        let mut total = 0usize;
        for _ in 0..30 {
            let p = random_plan_in(&mut arena, &model, q, &mut rng);
            let (opt, stats) = pareto_climb_in(&mut arena, p, &model, &cfg, &mut scratch);
            assert!(is_local_optimum_in(&mut arena, opt, &model, &cfg));
            total += stats.steps;
        }
        total as f64 / 30.0
    };
    let low = mean_steps(1);
    let high = mean_steps(MAX_COST_DIM);
    assert!(
        high <= low,
        "expected shorter climbs at l={MAX_COST_DIM} ({high}) than l=1 ({low})"
    );
}

#[test]
fn format_explosion_bounds_climb_step_output() {
    let formats = 12;
    let model = many_formats_model(5, formats);
    let q = TableSet::prefix(5);
    let mut rmq = Rmq::new(&model, q, RmqConfig::seeded(11));
    drive(&mut rmq, Budget::Iterations(25), &mut NullObserver);
    let frontier = rmq.frontier();
    assert!(!frontier.is_empty());
    // Per-format pruning may keep several formats at the root, but within
    // a format no plan may dominate another.
    for a in &frontier {
        for b in &frontier {
            if !std::sync::Arc::ptr_eq(a, b) && a.same_output(b) {
                assert!(!a.cost().strictly_dominates(b.cost()));
            }
        }
    }
}

#[test]
fn baselines_survive_adversarial_models() {
    // SA and NSGA-II must remain correct (if not effective) on ties and
    // extreme ranges.
    for model in [tie_model(5, 2), huge_range_model(5)] {
        let q = TableSet::prefix(5);
        let mut sa = SimulatedAnnealing::new(&model, q, 3);
        drive(&mut sa, Budget::Iterations(50), &mut NullObserver);
        for p in sa.frontier() {
            assert!(p.validate(q).is_ok());
            assert!(p.cost().is_valid());
        }
        let mut ga = Nsga2::new(&model, q, 3);
        drive(&mut ga, Budget::Iterations(3), &mut NullObserver);
        for p in ga.frontier() {
            assert!(p.validate(q).is_ok());
            assert!(p.cost().is_valid());
        }
    }
}

#[test]
fn two_table_and_three_table_minimums() {
    // The smallest joinable queries across every adversarial model.
    for n in [2usize, 3] {
        for model in [
            tie_model(n, 2),
            huge_range_model(n),
            single_metric_model(n),
            max_dim_model(n),
        ] {
            let q = TableSet::prefix(n);
            let mut rmq = Rmq::new(&model, q, RmqConfig::seeded(1));
            drive(&mut rmq, Budget::Iterations(10), &mut NullObserver);
            let f = rmq.frontier();
            assert!(!f.is_empty(), "empty frontier at n={n}");
            for p in &f {
                assert!(p.validate(q).is_ok());
                assert_eq!(p.rel(), q);
            }
        }
    }
}
