//! DP(α) — the dynamic-programming approximation scheme baseline.
//!
//! Reimplements the multi-objective approximation scheme of Trummer & Koch
//! (SIGMOD 2014) the paper compares against: classic bottom-up dynamic
//! programming over *all* table subsets (the unconstrained bushy space
//! admits cross products, so every split of every subset is considered),
//! with each subset's partial-plan frontier pruned by α-approximate
//! dominance. The threshold `α` trades result precision for optimization
//! time:
//!
//! * `α = ∞` keeps a single plan per output format and subset;
//! * `α = 1` computes the **exact Pareto frontier** — used as the reference
//!   ground truth for small queries (Figures 8–9);
//! * intermediate values (`DP(1000)`, `DP(2)`, `DP(1.01)`) match the
//!   configurations of the paper's figures.
//!
//! The computation is exponential in the number of tables (`3^n` subset
//! splits), which is precisely why the paper's figures show DP failing to
//! return anything for queries of 25+ tables. The optimizer is sliced into
//! anytime steps of one subset each; [`Optimizer::frontier`] returns an
//! empty set until the computation has completed, reproducing the paper's
//! "did not return any results within the time frame" semantics.

use moqo_core::archive::Admission;
use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::fxhash::FxHashMap;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{Optimizer, PlanExchange};
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::{Plan, PlanRef};
use moqo_core::tables::{TableId, TableSet};

/// The DP(α) optimizer.
pub struct DpOptimizer<M: CostModel> {
    model: M,
    /// Dense table order: bit `k` of a mask refers to `tables[k]`.
    tables: Vec<TableId>,
    alpha: f64,
    name: String,
    /// All partial plans live in one hash-consed arena: DP builds every
    /// subset's frontier out of smaller subsets' plans, so interning shares
    /// the sub-structure the approximation-scheme literature relies on.
    arena: PlanArena,
    frontiers: FxHashMap<u128, ParetoSet<PlanId>>,
    current_size: usize,
    current_mask: u128,
    full_mask: u128,
    done: bool,
    /// Number of candidate plans costed so far (diagnostics). Candidates
    /// rejected by α-pruning are costed but never materialized.
    plans_costed: u64,
}

impl<M: CostModel> DpOptimizer<M> {
    /// Creates a DP optimizer with approximation threshold `alpha ≥ 1`
    /// (may be `f64::INFINITY`).
    ///
    /// # Panics
    /// Panics if `query` is empty or exceeds 128 tables (mask width), or if
    /// `alpha < 1`.
    pub fn new(model: M, query: TableSet, alpha: f64) -> Self {
        assert!(!query.is_empty(), "cannot optimize an empty query");
        assert!(alpha >= 1.0, "alpha {alpha} must be >= 1");
        let tables: Vec<TableId> = query.iter().collect();
        assert!(tables.len() <= 128, "DP masks support at most 128 tables");
        let full_mask = if tables.len() == 128 {
            u128::MAX
        } else {
            (1u128 << tables.len()) - 1
        };
        let name = if alpha.is_infinite() {
            "DP(Infinity)".to_string()
        } else {
            format!("DP({alpha})")
        };
        DpOptimizer {
            model,
            tables,
            alpha,
            name,
            arena: PlanArena::new(),
            frontiers: FxHashMap::default(),
            current_size: 1,
            current_mask: 1,
            full_mask,
            done: false,
            plans_costed: 0,
        }
    }

    /// Whether the table has been fully computed.
    pub fn is_complete(&self) -> bool {
        self.done
    }

    /// Number of candidate plans costed so far (admitted or pruned).
    pub fn plans_costed(&self) -> u64 {
        self.plans_costed
    }

    /// The frontier of an arbitrary subset mask (diagnostics/tests),
    /// exported from the optimizer's arena.
    pub fn subset_frontier(&self, mask: u128) -> Vec<PlanRef> {
        self.frontiers.get(&mask).map_or_else(Vec::new, |s| {
            s.plans().iter().map(|&id| self.arena.export(id)).collect()
        })
    }

    /// The optimizer's plan arena (diagnostics: occupancy and dedup rate).
    pub fn arena(&self) -> &PlanArena {
        &self.arena
    }

    fn process_subset(&mut self, mask: u128) {
        let arena = &mut self.arena;
        let model = &self.model;
        let mut screen = ScreenCounters::default();
        if mask.count_ones() == 1 {
            let t = self.tables[mask.trailing_zeros() as usize];
            // Cost each scan candidate first; intern on admission only
            // ([`ParetoSet::admit`]): under a coarse α most candidates are
            // pruned without allocating.
            let admission = Admission::approx(self.alpha);
            let mut entry = self.frontiers.remove(&mask).unwrap_or_default();
            for &op in model.scan_ops(t) {
                let props = model.scan_props(t, op);
                entry.admit(&props.cost, props.format, &admission, &mut screen, || {
                    arena.scan_from_props(t, op, props)
                });
                self.plans_costed += 1;
            }
            self.frontiers.insert(mask, entry);
            return;
        }
        // Enumerate every proper non-empty split (outer, inner): the
        // standard sub = (sub - 1) & mask walk visits each ordered pair
        // exactly once, covering join commutativity.
        let admission = Admission::approx(self.alpha);
        let mut result: ParetoSet<PlanId> = ParetoSet::new();
        let mut ops = Vec::new();
        let mut sub = (mask.wrapping_sub(1)) & mask;
        while sub != 0 {
            let other = mask & !sub;
            let (Some(outer_set), Some(inner_set)) =
                (self.frontiers.get(&sub), self.frontiers.get(&other))
            else {
                sub = (sub - 1) & mask;
                continue;
            };
            for &o in outer_set.plans() {
                for &i in inner_set.plans() {
                    ops.clear();
                    model.join_ops(&arena.view(o), &arena.view(i), &mut ops);
                    for &op in &ops {
                        let props = model.join_props(&arena.view(o), &arena.view(i), op);
                        result.admit(&props.cost, props.format, &admission, &mut screen, || {
                            arena.join_from_props(o, i, op, props)
                        });
                        self.plans_costed += 1;
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
        self.frontiers.insert(mask, result);
    }

    /// Gosper's hack: the next larger integer with the same popcount.
    fn next_same_size(v: u128) -> u128 {
        let c = v & v.wrapping_neg();
        let r = v + c;
        (((r ^ v) >> 2) / c) | r
    }

    fn advance(&mut self) {
        if self.current_mask == self.full_mask {
            self.done = true;
            return;
        }
        let next = Self::next_same_size(self.current_mask);
        if next > self.full_mask {
            self.current_size += 1;
            self.current_mask = (1u128 << self.current_size) - 1;
        } else {
            self.current_mask = next;
        }
    }
}

/// Served without plan exchange: the no-op [`PlanExchange`] defaults
/// apply (nothing to absorb or export, fan-out 1).
impl<M: CostModel + Send> PlanExchange for DpOptimizer<M> {}

impl<M: CostModel> Optimizer for DpOptimizer<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        let mask = self.current_mask;
        self.process_subset(mask);
        self.advance();
        !self.done
    }

    fn frontier(&self) -> Vec<PlanRef> {
        if !self.done {
            // The scheme produces results only on completion (paper §6.2).
            return Vec::new();
        }
        self.frontiers
            .get(&self.full_mask)
            .map_or_else(Vec::new, |s| {
                s.plans().iter().map(|&id| self.arena.export(id)).collect()
            })
    }
}

/// Exhaustively enumerates **all** plans for `query` (no pruning). Only
/// usable for tiny queries; serves as ground truth in tests.
pub fn enumerate_all_plans<M: CostModel + ?Sized>(model: &M, query: TableSet) -> Vec<PlanRef> {
    fn rec<M: CostModel + ?Sized>(
        model: &M,
        set: TableSet,
        memo: &mut FxHashMap<u128, Vec<PlanRef>>,
    ) -> Vec<PlanRef> {
        if let Some(hit) = memo.get(&set.bits()) {
            return hit.clone();
        }
        let mut plans = Vec::new();
        if set.is_singleton() {
            let t = set.first().expect("singleton");
            for &op in model.scan_ops(t) {
                plans.push(Plan::scan(model, t, op));
            }
        } else {
            let members: Vec<TableId> = set.iter().collect();
            // Enumerate proper non-empty subsets via dense bit patterns.
            let k = members.len();
            let mut ops = Vec::new();
            for pattern in 1..((1u32 << k) - 1) {
                let mut outer_set = TableSet::empty();
                for (bit, t) in members.iter().enumerate() {
                    if pattern & (1 << bit) != 0 {
                        outer_set = outer_set.with(*t);
                    }
                }
                let inner_set = set.difference(outer_set);
                for o in rec(model, outer_set, memo) {
                    for i in rec(model, inner_set, memo) {
                        ops.clear();
                        model.join_ops(o.view(), i.view(), &mut ops);
                        for &op in &ops {
                            plans.push(Plan::join(model, o.clone(), i.clone(), op));
                        }
                    }
                }
            }
        }
        memo.insert(set.bits(), plans.clone());
        plans
    }
    let mut memo = FxHashMap::default();
    rec(model, query, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::optimizer::{drive, Budget, NullObserver};

    fn run_dp(n: usize, alpha: f64, seed: u64) -> (StubModel, Vec<PlanRef>) {
        let model = StubModel::line(n, 2, seed);
        let q = TableSet::prefix(n);
        let mut dp = DpOptimizer::new(&model, q, alpha);
        drive(&mut dp, Budget::Iterations(1 << 20), &mut NullObserver);
        assert!(dp.is_complete());
        let f = dp.frontier();
        (model, f)
    }

    #[test]
    fn gosper_enumerates_same_popcount() {
        let mut v = 0b0111u128;
        let mut seen = vec![v];
        for _ in 0..3 {
            v = DpOptimizer::<StubModel>::next_same_size(v);
            seen.push(v);
        }
        assert_eq!(seen, vec![0b0111, 0b1011, 0b1101, 0b1110]);
    }

    #[test]
    fn dp_completes_and_produces_valid_plans() {
        let (_, f) = run_dp(5, 1.0, 3);
        assert!(!f.is_empty());
        for p in &f {
            assert!(p.validate(TableSet::prefix(5)).is_ok());
        }
    }

    #[test]
    fn frontier_empty_before_completion() {
        let model = StubModel::line(6, 2, 1);
        let q = TableSet::prefix(6);
        let mut dp = DpOptimizer::new(&model, q, 2.0);
        dp.step();
        assert!(!dp.is_complete());
        assert!(dp.frontier().is_empty(), "partial DP must return nothing");
    }

    #[test]
    fn exact_dp_matches_brute_force_pareto_frontier() {
        let model = StubModel::line(4, 2, 7);
        let q = TableSet::prefix(4);
        let mut dp = DpOptimizer::new(&model, q, 1.0);
        drive(&mut dp, Budget::Iterations(1 << 20), &mut NullObserver);
        let dp_frontier: ParetoSet = dp.frontier().into_iter().collect();

        let all = enumerate_all_plans(&model, q);
        assert!(all.len() > 100, "brute force too small: {}", all.len());
        let brute: ParetoSet = all.into_iter().collect();

        // Mutual coverage: the cost frontiers coincide.
        for b in brute.plans() {
            assert!(
                dp_frontier
                    .plans()
                    .iter()
                    .any(|d| d.cost().dominates(b.cost())),
                "DP missed brute-force tradeoff {:?}",
                b.cost()
            );
        }
        for d in dp_frontier.plans() {
            assert!(
                brute.plans().iter().any(|b| b.cost().dominates(d.cost())),
                "DP invented tradeoff {:?}",
                d.cost()
            );
        }
    }

    #[test]
    fn coarser_alpha_never_enlarges_result() {
        let (_, exact) = run_dp(5, 1.0, 11);
        let (_, coarse) = run_dp(5, 4.0, 11);
        let (_, one_shot) = run_dp(5, f64::INFINITY, 11);
        assert!(coarse.len() <= exact.len());
        assert!(one_shot.len() <= coarse.len());
        // DP(∞) keeps at most one plan per output format.
        assert!(one_shot.len() <= 2);
    }

    #[test]
    fn coarse_alpha_result_approximates_exact_frontier() {
        let (_, exact) = run_dp(5, 1.0, 13);
        let (_, coarse) = run_dp(5, 2.0, 13);
        // Formal guarantee of the scheme: for every exact Pareto plan there
        // is a coarse plan within factor alpha^(plan depth); conservatively
        // check a generous blanket bound.
        for e in &exact {
            let covered = coarse
                .iter()
                .any(|c| c.cost().approx_dominates(e.cost(), 2.0f64.powi(6)));
            assert!(covered, "coarse DP lost tradeoff {:?} entirely", e.cost());
        }
    }

    #[test]
    fn names_include_alpha() {
        let model = StubModel::line(3, 2, 1);
        let q = TableSet::prefix(3);
        assert_eq!(DpOptimizer::new(&model, q, 2.0).name(), "DP(2)");
        assert_eq!(
            DpOptimizer::new(&model, q, f64::INFINITY).name(),
            "DP(Infinity)"
        );
        assert_eq!(DpOptimizer::new(&model, q, 1.01).name(), "DP(1.01)");
    }

    #[test]
    fn step_count_is_number_of_subsets() {
        // Processing 2^n - 1 subsets completes the DP.
        let model = StubModel::line(4, 2, 5);
        let q = TableSet::prefix(4);
        let mut dp = DpOptimizer::new(&model, q, 2.0);
        let stats = drive(&mut dp, Budget::Iterations(1 << 20), &mut NullObserver);
        assert_eq!(stats.steps, 15);
        assert!(dp.plans_costed() > 0);
    }

    #[test]
    fn exact_dp_on_three_metrics() {
        let model = StubModel::line(4, 3, 17);
        let q = TableSet::prefix(4);
        let mut dp = DpOptimizer::new(&model, q, 1.0);
        drive(&mut dp, Budget::Iterations(1 << 20), &mut NullObserver);
        let f = dp.frontier();
        assert!(!f.is_empty());
        // Three-metric frontiers are usually larger than two-metric ones.
        for p in &f {
            assert_eq!(p.cost().dim(), 3);
        }
    }
}
