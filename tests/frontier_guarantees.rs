//! Formal-guarantee checks for `ApproximateFrontiers` (Algorithm 3) and the
//! algorithms built on it, verified against exhaustively enumerated plan
//! spaces on small queries.
//!
//! The key guarantee (§4.3/§5): after `ApproximateFrontiers(p, P, i)` runs
//! with precision α, the cache frontier for `p`'s table set approximately
//! dominates **every plan in the restricted space** — plans using `p`'s
//! join order with any operator combination. The per-level α-pruning
//! compounds across tree levels (replacing a sub-plan by an α-dominating
//! one inflates the root cost by at most α under additive metrics, and the
//! root-level prune adds one more factor), so the root-level guarantee is
//! `α^depth`, analogous to DP(α)'s compounded bound.

use moqo_baselines::dp::enumerate_all_plans;
use moqo_baselines::nsga2::fast_non_dominated_sort;
use moqo_baselines::DpOptimizer;
use moqo_core::archive::ArchiveConfig;
use moqo_core::arena::{PlanArena, PlanId, PlanNodeKind};
use moqo_core::cache::PlanCache;
use moqo_core::cost::CostVector;
use moqo_core::frontier::{approximate_frontiers_in, FrontierScratch};
use moqo_core::model::testing::StubModel;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{drive, Budget, NullObserver, Optimizer};
use moqo_core::random_plan::random_plan_in;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_metrics::hypervolume::hypervolume;
use moqo_metrics::{pareto_filter, ReferenceFrontier};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Enumerates the restricted plan space of Algorithm 3 for `skeleton`: all
/// plans sharing the skeleton's join tree shape/leaf assignment but using
/// any operator combination (no cache substitution), interned into `arena`.
fn restricted_space<M: CostModel + ?Sized>(
    arena: &mut PlanArena,
    skeleton: PlanId,
    model: &M,
) -> Vec<PlanId> {
    match arena.node(skeleton).kind() {
        PlanNodeKind::Join { outer, inner, .. } => {
            let outers = restricted_space(arena, outer, model);
            let inners = restricted_space(arena, inner, model);
            let mut out = Vec::new();
            let mut ops = Vec::new();
            for &po in &outers {
                for &pi in &inners {
                    ops.clear();
                    model.join_ops(&arena.view(po), &arena.view(pi), &mut ops);
                    for &op in &ops {
                        out.push(arena.join(model, po, pi, op));
                    }
                }
            }
            out
        }
        PlanNodeKind::Scan { table, .. } => model
            .scan_ops(table)
            .iter()
            .map(|&op| arena.scan(model, table, op))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Algorithm 3's guarantee: the cached root frontier dominates every
    /// operator configuration of the input plan's join order within factor
    /// `α^depth` (per-level pruning compounds; see module docs). With
    /// α = 1 the coverage is exact.
    #[test]
    fn cache_alpha_dominates_restricted_space(
        n in 2usize..6,
        seed in 0u64..300,
        alpha_pct in 0usize..3,
    ) {
        let alpha: f64 = [1.0, 1.5, 4.0][alpha_pct];
        let model = StubModel::line(n, 2, seed);
        let q = TableSet::prefix(n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut arena = PlanArena::new();
        let skeleton = random_plan_in(&mut arena, &model, q, &mut rng);
        let mut cache = PlanCache::new();
        approximate_frontiers_in(
            &mut arena,
            skeleton,
            &model,
            &mut cache,
            &moqo_core::Admission::approx(alpha),
            &mut FrontierScratch::default(),
        );

        let frontier: Vec<CostVector> = cache.frontier(q).iter().map(|&f| arena.cost(f)).collect();
        prop_assert!(!frontier.is_empty());
        let bound = alpha.powi(arena.depth(skeleton) as i32);
        for candidate in restricted_space(&mut arena, skeleton, &model) {
            let cost = arena.cost(candidate);
            let covered = frontier
                .iter()
                .any(|f| f.approx_dominates(&cost, bound * (1.0 + 1e-12)));
            prop_assert!(
                covered,
                "plan {:?} not covered within {bound} by cache frontier",
                cost
            );
        }
    }

    /// The cache invariant holds after arbitrary interleavings of frontier
    /// approximations at varying precisions.
    #[test]
    fn cache_invariant_survives_mixed_precisions(
        n in 2usize..6,
        seed in 0u64..200,
        rounds in 1usize..6,
    ) {
        let model = StubModel::line(n, 2, seed);
        let q = TableSet::prefix(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = PlanArena::new();
        let mut cache = PlanCache::new();
        let mut scratch = FrontierScratch::default();
        for r in 0..rounds {
            let p = random_plan_in(&mut arena, &model, q, &mut rng);
            let alpha = [25.0, 4.0, 1.0][r % 3];
            approximate_frontiers_in(
                &mut arena,
                p,
                &model,
                &mut cache,
                &moqo_core::Admission::approx(alpha),
                &mut scratch,
            );
            prop_assert!(cache.check_invariant(&arena), "invariant broken at round {r}");
        }
        // Every cached plan joins exactly the table set it is filed under.
        for (rel, plans) in cache.entries() {
            for &p in plans {
                prop_assert_eq!(arena.node(p).rel(), rel);
            }
        }
    }

    /// NSGA-II's fast non-dominated sort: rank 0 must equal the brute-force
    /// Pareto set, every index appears exactly once, and plans in later
    /// fronts are dominated by someone in an earlier front.
    #[test]
    fn non_dominated_sort_matches_brute_force(
        costs in proptest::collection::vec(
            (1u32..100, 1u32..100).prop_map(|(a, b)| CostVector::new(&[a as f64, b as f64])),
            1..25
        ),
    ) {
        let fronts = fast_non_dominated_sort(&costs);
        // Partition property.
        let mut seen = vec![false; costs.len()];
        for front in &fronts {
            for &i in front {
                prop_assert!(!seen[i], "index {i} in two fronts");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Rank 0 = brute-force Pareto set (on cost values).
        let brute: Vec<usize> = (0..costs.len())
            .filter(|&i| !costs.iter().any(|c| c.strictly_dominates(&costs[i])))
            .collect();
        let mut rank0 = fronts[0].clone();
        rank0.sort_unstable();
        prop_assert_eq!(rank0, brute);
        // Each later-front member is dominated by some earlier-front member.
        for w in 1..fronts.len() {
            for &i in &fronts[w] {
                let dominated = fronts[w - 1]
                    .iter()
                    .any(|&j| costs[j].strictly_dominates(&costs[i]));
                prop_assert!(dominated, "front {w} member {i} undominated by front {}", w - 1);
            }
        }
    }

    /// Hypervolume sanity: the exact Pareto frontier of an enumerated plan
    /// space achieves at least the hypervolume of any algorithm's output.
    #[test]
    fn exact_frontier_maximizes_hypervolume(
        n in 2usize..5,
        seed in 0u64..100,
    ) {
        let model = StubModel::line(n, 2, seed);
        let q = TableSet::prefix(n);
        let all = enumerate_all_plans(&model, q);
        let all_costs: Vec<CostVector> = all.iter().map(|p| *p.cost()).collect();
        let exact = pareto_filter(&all_costs);
        // Reference point: componentwise max over everything, scaled up.
        let mut refpt = CostVector::zeros(2);
        for c in &all_costs {
            refpt = refpt.max(c);
        }
        let refpt = refpt.scale(1.1);
        let hv_exact = hypervolume(&exact, &refpt);

        let mut rmq = Rmq::new(&model, q, RmqConfig::seeded(seed));
        drive(&mut rmq, Budget::Iterations(10), &mut NullObserver);
        let rmq_costs: Vec<CostVector> = rmq.frontier().iter().map(|p| *p.cost()).collect();
        let hv_rmq = hypervolume(&rmq_costs, &refpt);
        prop_assert!(
            hv_rmq <= hv_exact * (1.0 + 1e-9),
            "RMQ hypervolume {hv_rmq} exceeds exact {hv_exact}"
        );
    }

    /// The ε-indicator of DP(α)'s output against the exact frontier never
    /// exceeds α^(n-1) (per-level pruning error compounds across at most
    /// n-1 join levels).
    #[test]
    fn dp_alpha_respects_compounded_bound(
        n in 2usize..5,
        seed in 0u64..100,
        alpha_idx in 0usize..2,
    ) {
        let alpha = [1.5, 3.0][alpha_idx];
        let model = StubModel::line(n, 2, seed);
        let q = TableSet::prefix(n);
        let all = enumerate_all_plans(&model, q);
        let all_costs: Vec<CostVector> = all.iter().map(|p| *p.cost()).collect();
        let reference = ReferenceFrontier::from_costs(&all_costs);

        let mut dp = DpOptimizer::new(&model, q, alpha);
        drive(&mut dp, Budget::Iterations(u64::MAX), &mut NullObserver);
        let observed = reference.alpha_of_plans(&dp.frontier());
        let bound = alpha.powi(n as i32 - 1);
        prop_assert!(
            observed <= bound * (1.0 + 1e-9),
            "DP({alpha}) error {observed} above bound {bound} at n={n}"
        );
    }
}

#[test]
fn alpha_schedule_matches_paper_formula() {
    // α(i) = 25 · 0.99^⌊i/25⌋, clamped at 1 (documented deviation). The
    // schedule now emits per-metric factor vectors; the paper schedule is
    // uniform, so every metric carries the scalar α.
    let schedule = ArchiveConfig::paper().eps;
    assert_eq!(schedule.factors(1).max(), 25.0);
    assert_eq!(schedule.factors(24).max(), 25.0);
    let expected_50 = 25.0 * 0.99f64.powi(2);
    assert!((schedule.factors(50).max() - expected_50).abs() < 1e-12);
    // Far in the tail the formula drops below 1; we clamp.
    assert_eq!(schedule.factors(1_000_000).max(), 1.0);
    // Monotone non-increasing, and uniform across metrics.
    let mut prev = f64::INFINITY;
    for i in (1..2_000).step_by(7) {
        let f = schedule.factors(i);
        let a = f.max();
        assert_eq!(f, moqo_core::EpsFactors::splat(a));
        assert!(a <= prev);
        prev = a;
    }
}

#[test]
fn rmq_with_exact_pruning_converges_to_enumerated_frontier() {
    // On a tiny query, RMQ with α = 1 must reach the exact Pareto frontier
    // (cost-wise) of the fully enumerated plan space.
    let model = StubModel::line(4, 2, 77);
    let q = TableSet::prefix(4);
    let all = enumerate_all_plans(&model, q);
    let all_costs: Vec<CostVector> = all.iter().map(|p| *p.cost()).collect();
    let reference = ReferenceFrontier::from_costs(&all_costs);

    let cfg = RmqConfig {
        archive: ArchiveConfig::fixed(1.0),
        ..RmqConfig::seeded(5)
    };
    let mut rmq = Rmq::new(&model, q, cfg);
    drive(&mut rmq, Budget::Iterations(120), &mut NullObserver);
    let alpha = reference.alpha_of_plans(&rmq.frontier());
    assert!(
        (alpha - 1.0).abs() < 1e-9,
        "RMQ did not reach the exact frontier: alpha = {alpha}"
    );
}

#[test]
fn cache_frontier_sizes_respect_lemma6_growth() {
    // Lemma 6: the plan cache stores O((n log_α m)^(l-1)) plans per table
    // set. For l = 2 fixed α this is linear in n·log m — in particular the
    // *exact* constant does not matter, but doubling α must not increase
    // the cache's densest frontier.
    let model = StubModel::line(8, 2, 3);
    let q = TableSet::prefix(8);
    let max_frontier = |alpha: f64| {
        let cfg = RmqConfig {
            archive: ArchiveConfig::fixed(alpha),
            ..RmqConfig::seeded(9)
        };
        let mut rmq = Rmq::new(&model, q, cfg);
        drive(&mut rmq, Budget::Iterations(40), &mut NullObserver);
        rmq.cache().max_frontier_size()
    };
    let fine = max_frontier(1.01);
    let coarse = max_frontier(2.0);
    let one_per = max_frontier(1e12);
    assert!(
        coarse <= fine,
        "coarser α grew the cache: {coarse} > {fine}"
    );
    // With an absurdly large α each table set keeps a single plan per
    // output format (the stub model has two formats).
    assert!(
        one_per <= 2,
        "α=1e12 kept {one_per} plans for one table set"
    );
}
