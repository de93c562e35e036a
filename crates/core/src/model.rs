//! The cost-model abstraction through which the optimizer sees the world.
//!
//! The paper (§3) assumes "cost models for all considered cost metrics are
//! available" and keeps the algorithms generic over metrics and operators;
//! §5 parameterizes the analysis by `r`, the number of implementations per
//! operator. [`CostModel`] captures exactly that interface: it enumerates
//! the applicable scan/join operator implementations (applicability may
//! depend on the operands' output formats, e.g. a block-nested-loop join
//! needs a re-scannable inner), and computes the derived properties of a new
//! plan node — cost vector, output cardinality, pages, and output format.
//!
//! Concrete production models (the time/buffer/disk resource model and the
//! time/money cloud model) live in the `moqo-cost` crate; [`testing`]
//! provides a small deterministic stub used throughout the test suites.

use crate::cost::CostVector;
use crate::tables::{TableId, TableSet};

/// Identifier of an output data format (e.g. pipelined vs. materialized).
///
/// `SameOutput` in Algorithms 2 and 3 compares these ids: sub-plans with
/// different output formats are incomparable because the format can change
/// the cost or applicability of operators higher up in the plan.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OutputFormat(pub u8);

/// Identifier of a scan operator implementation within a model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScanOpId(pub u16);

/// Identifier of a join operator implementation within a model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct JoinOpId(pub u16);

/// Derived properties of a plan node, computed by a [`CostModel`].
#[derive(Clone, Copy, Debug)]
pub struct PlanProps {
    /// Cost vector of the (sub-)plan rooted at the node.
    pub cost: CostVector,
    /// Estimated output cardinality in rows.
    pub rows: f64,
    /// Estimated output size in pages.
    pub pages: f64,
    /// Output data format produced by the node's operator.
    pub format: OutputFormat,
}

/// A borrowed, representation-agnostic view of a plan operand: the table
/// set plus the cached derived properties a [`CostModel`] reads when costing
/// a join over the operand.
///
/// Cost models never inspect a plan's *tree* — only its cached properties —
/// so the optimizer can hand them operands stored as `Arc<Plan>` trees
/// ([`Plan::view`](crate::plan::Plan::view)) or as hash-consed arena nodes
/// ([`PlanArena::view`](crate::arena::PlanArena::view)) through one
/// interface. The struct is `Copy` (a few dozen bytes), so call sites pass
/// it by value or reference without lifetime entanglement.
#[derive(Clone, Copy, Debug)]
pub struct PlanView {
    /// The set of tables joined by the operand (`p.rel`).
    pub rel: TableSet,
    /// The operand's cost vector (`p.cost`).
    pub cost: CostVector,
    /// Estimated output cardinality in rows.
    pub rows: f64,
    /// Estimated output size in pages.
    pub pages: f64,
    /// The output data format (drives operator applicability).
    pub format: OutputFormat,
}

impl PlanView {
    /// Assembles a view from a table set and node properties.
    #[inline]
    pub fn new(rel: TableSet, props: &PlanProps) -> Self {
        PlanView {
            rel,
            cost: props.cost,
            rows: props.rows,
            pages: props.pages,
            format: props.format,
        }
    }
}

/// A multi-metric cost model: operator library + cost/cardinality estimation.
///
/// # Contract
///
/// * `dim()` is constant over the model's lifetime and `1 ..= MAX_COST_DIM`.
/// * `scan_ops(t)` is non-empty for every table of the database.
/// * `join_ops(o, i, out)` must yield **at least one** operator for every
///   pair of operand formats — random plan generation and hill climbing rely
///   on always being able to join two partial plans.
/// * Costs are finite, non-negative, and **additive**: the cost of a join
///   node weakly dominates the cost of each input (the paper's footnote 1
///   restricts the guarantees of the principle of optimality to such
///   accumulative metrics).
/// * `join_props_all(o, i, ops, out)` appends, for every operator of `ops`
///   in order, **exactly the bits** `join_props(o, i, op)` returns. The hot
///   loops (hill climbing, frontier approximation) cost an operand pair
///   through it once and then enumerate operators over the result, so it is
///   the only method a model needs to override for speed: everything that
///   depends on the pair alone (output cardinality, pages, the operands'
///   cost sum) is computed once instead of once per operator. The provided
///   default is the per-operator loop, which is always correct.
pub trait CostModel: Sync {
    /// Number of cost metrics `l`.
    fn dim(&self) -> usize;

    /// Human-readable name of metric `k < dim()`.
    fn metric_name(&self, k: usize) -> &str;

    /// Number of tables in the underlying database.
    fn num_tables(&self) -> usize;

    /// The scan operator implementations applicable to `table`.
    fn scan_ops(&self, table: TableId) -> &[ScanOpId];

    /// Appends to `out` the join operator implementations applicable to the
    /// given operand plans (applicability may depend on operand formats).
    fn join_ops(&self, outer: &PlanView, inner: &PlanView, out: &mut Vec<JoinOpId>);

    /// Properties of a scan of `table` with operator `op`.
    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps;

    /// Properties of a join of `outer` and `inner` with operator `op`.
    fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps;

    /// Appends to `out` the properties of joining `outer` and `inner` with
    /// each operator of `ops`, in order — bit for bit what
    /// [`join_props`](CostModel::join_props) returns per operator (see the
    /// trait contract). Override it to share the pair-invariant work.
    fn join_props_all(
        &self,
        outer: &PlanView,
        inner: &PlanView,
        ops: &[JoinOpId],
        out: &mut Vec<PlanProps>,
    ) {
        out.extend(ops.iter().map(|&op| self.join_props(outer, inner, op)));
    }

    /// Human-readable name of a scan operator.
    fn scan_op_name(&self, op: ScanOpId) -> String;

    /// Human-readable name of a join operator.
    fn join_op_name(&self, op: JoinOpId) -> String;

    /// Human-readable name of an output format.
    fn format_name(&self, format: OutputFormat) -> String {
        format!("fmt{}", format.0)
    }

    /// Number of distinct output formats the model can produce. Used to
    /// bound per-format pruning structures.
    fn num_formats(&self) -> usize;
}

/// Delegates every [`CostModel`] method through a smart-pointer-like type,
/// so optimizers can be generic over *how* they hold their model: borrowed
/// (`&M`, the classic one-shot usage) or shared-owned (`Arc<M>`, required
/// for `'static` + `Send` optimizer sessions in the optimization service).
macro_rules! delegate_cost_model {
    () => {
        fn dim(&self) -> usize {
            (**self).dim()
        }
        fn metric_name(&self, k: usize) -> &str {
            (**self).metric_name(k)
        }
        fn num_tables(&self) -> usize {
            (**self).num_tables()
        }
        fn scan_ops(&self, table: TableId) -> &[ScanOpId] {
            (**self).scan_ops(table)
        }
        fn join_ops(&self, outer: &PlanView, inner: &PlanView, out: &mut Vec<JoinOpId>) {
            (**self).join_ops(outer, inner, out)
        }
        fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
            (**self).scan_props(table, op)
        }
        fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
            (**self).join_props(outer, inner, op)
        }
        fn join_props_all(
            &self,
            outer: &PlanView,
            inner: &PlanView,
            ops: &[JoinOpId],
            out: &mut Vec<PlanProps>,
        ) {
            (**self).join_props_all(outer, inner, ops, out)
        }
        fn scan_op_name(&self, op: ScanOpId) -> String {
            (**self).scan_op_name(op)
        }
        fn join_op_name(&self, op: JoinOpId) -> String {
            (**self).join_op_name(op)
        }
        fn format_name(&self, format: OutputFormat) -> String {
            (**self).format_name(format)
        }
        fn num_formats(&self) -> usize {
            (**self).num_formats()
        }
    };
}

impl<M: CostModel + ?Sized> CostModel for &M {
    delegate_cost_model!();
}

impl<M: CostModel + Send + ?Sized> CostModel for std::sync::Arc<M> {
    delegate_cost_model!();
}

/// Deterministic test model used across the workspace's test suites.
pub mod testing {
    use super::*;
    use crate::cost::MIN_COST;
    use crate::tables::TableSet;

    /// SplitMix64 — a tiny deterministic mixer for reproducible stub data.
    pub(crate) fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1) derived from a hash.
    pub(crate) fn unit_f64(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A small, fully deterministic cost model over a chain join graph.
    ///
    /// * two scan operators per table (different cost profiles, format 0);
    /// * four join operators: two "extreme" profiles trading metric 0
    ///   against the remaining metrics, one balanced operator that outputs
    ///   format 1 (materialized-like, extra metric-0 cost), and one cheap
    ///   operator **only applicable when the inner operand has format 1** —
    ///   exercising format-dependent applicability;
    /// * chain selectivities `1 / max(rows_a, rows_b)` between adjacent
    ///   tables, `1` otherwise (cross products allowed).
    ///
    /// All costs are additive, so the model satisfies the [`CostModel`]
    /// contract including the principle of optimality. `Clone` so the
    /// parallel optimizer's per-worker instances can each own a copy.
    #[derive(Clone)]
    pub struct StubModel {
        n: usize,
        dim: usize,
        seed: u64,
        rows: Vec<f64>,
        scan_ops: Vec<ScanOpId>,
        metric_names: Vec<String>,
    }

    /// Join operator id that is only applicable to format-1 inners.
    pub const STUB_RESTRICTED_JOIN: JoinOpId = JoinOpId(3);

    impl StubModel {
        /// Creates a stub model over `n` tables on a chain join graph with
        /// `dim` cost metrics, seeded deterministically.
        pub fn line(n: usize, dim: usize, seed: u64) -> Self {
            assert!(n >= 1 && dim >= 1);
            let rows = (0..n)
                .map(|t| {
                    let h = splitmix64(seed ^ (t as u64).wrapping_mul(0x9e37));
                    // Rows between 10 and ~10_000, log-uniform-ish.
                    10.0 * 1000f64.powf(unit_f64(h))
                })
                .collect();
            StubModel {
                n,
                dim,
                seed,
                rows,
                scan_ops: vec![ScanOpId(0), ScanOpId(1)],
                metric_names: (0..dim).map(|k| format!("m{k}")).collect(),
            }
        }

        /// Estimated join selectivity between two table sets: product of the
        /// chain-edge selectivities crossing the cut.
        pub fn selectivity(&self, a: TableSet, b: TableSet) -> f64 {
            let mut sel = 1.0;
            for i in 0..self.n.saturating_sub(1) {
                let t1 = TableId::new(i);
                let t2 = TableId::new(i + 1);
                let crossing =
                    (a.contains(t1) && b.contains(t2)) || (a.contains(t2) && b.contains(t1));
                if crossing {
                    sel *= 1.0 / self.rows[i].max(self.rows[i + 1]);
                }
            }
            sel
        }

        /// Base rows of a table.
        pub fn table_rows(&self, t: TableId) -> f64 {
            self.rows[t.index()]
        }

        fn op_weight(&self, op: u16, k: usize) -> f64 {
            // Extreme profiles: op 0 cheap in metric 0, expensive elsewhere;
            // op 1 the reverse; op 2 balanced; op 3 cheap overall.
            const W: [[f64; 3]; 4] = [
                [0.2, 3.0, 2.0],
                [3.0, 0.2, 2.0],
                [1.0, 1.0, 0.3],
                [0.4, 0.4, 0.4],
            ];
            let base = W[op as usize % 4][k % 3];
            // Mild deterministic jitter so different queries/seeds differ.
            let h = splitmix64(self.seed ^ ((op as u64) << 32) ^ k as u64);
            base * (0.8 + 0.4 * unit_f64(h))
        }
    }

    impl CostModel for StubModel {
        fn dim(&self) -> usize {
            self.dim
        }

        fn metric_name(&self, k: usize) -> &str {
            &self.metric_names[k]
        }

        fn num_tables(&self) -> usize {
            self.n
        }

        fn scan_ops(&self, _table: TableId) -> &[ScanOpId] {
            &self.scan_ops
        }

        fn join_ops(&self, _outer: &PlanView, inner: &PlanView, out: &mut Vec<JoinOpId>) {
            out.extend([JoinOpId(0), JoinOpId(1), JoinOpId(2)]);
            if inner.format == OutputFormat(1) {
                out.push(STUB_RESTRICTED_JOIN);
            }
        }

        fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
            let rows = self.rows[table.index()];
            let pages = (rows / 100.0).max(0.01);
            let mut cost = CostVector::zeros(self.dim);
            for k in 0..self.dim {
                let w = match (op.0, k % 2) {
                    (0, 0) => 1.0,
                    (0, _) => 2.0,
                    (_, 0) => 2.0,
                    (_, _) => 1.0,
                };
                cost = cost.add_component(k, (w * pages).max(MIN_COST));
            }
            PlanProps {
                cost,
                rows,
                pages,
                format: OutputFormat(0),
            }
        }

        fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
            let sel = self.selectivity(outer.rel, inner.rel);
            let rows = (outer.rows * inner.rows * sel).max(1.0);
            let pages = (rows / 100.0).max(0.01);
            let work = outer.pages + inner.pages + pages;
            let mut cost = outer.cost.add(&inner.cost);
            for k in 0..self.dim {
                cost = cost.add_component(k, (self.op_weight(op.0, k) * work).max(MIN_COST));
            }
            let format = if op.0 == 2 {
                OutputFormat(1)
            } else {
                OutputFormat(0)
            };
            PlanProps {
                cost,
                rows,
                pages,
                format,
            }
        }

        fn scan_op_name(&self, op: ScanOpId) -> String {
            match op.0 {
                0 => "scanA".into(),
                _ => "scanB".into(),
            }
        }

        fn join_op_name(&self, op: JoinOpId) -> String {
            match op.0 {
                0 => "fast0".into(),
                1 => "fast1".into(),
                2 => "mat".into(),
                _ => "cheap".into(),
            }
        }

        fn num_formats(&self) -> usize {
            2
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::plan::Plan;

        #[test]
        fn stub_model_is_deterministic() {
            let a = StubModel::line(5, 2, 9);
            let b = StubModel::line(5, 2, 9);
            for t in 0..5 {
                assert_eq!(a.table_rows(TableId::new(t)), b.table_rows(TableId::new(t)));
            }
        }

        #[test]
        fn chain_selectivity_only_on_adjacent_pairs() {
            let m = StubModel::line(4, 2, 1);
            let s01 = m.selectivity(
                TableSet::singleton(TableId::new(0)),
                TableSet::singleton(TableId::new(1)),
            );
            assert!(s01 < 1.0);
            let s02 = m.selectivity(
                TableSet::singleton(TableId::new(0)),
                TableSet::singleton(TableId::new(2)),
            );
            assert_eq!(s02, 1.0, "non-adjacent pair must be a cross product");
        }

        #[test]
        fn selectivity_is_symmetric() {
            let m = StubModel::line(6, 2, 3);
            let a = TableSet::from_bits(0b000111);
            let b = TableSet::from_bits(0b111000);
            assert!((m.selectivity(a, b) - m.selectivity(b, a)).abs() < 1e-15);
        }

        #[test]
        fn restricted_join_requires_format_one() {
            let m = StubModel::line(3, 2, 1);
            let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
            let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(0));
            let mut ops = Vec::new();
            m.join_ops(s0.view(), s1.view(), &mut ops);
            assert!(!ops.contains(&STUB_RESTRICTED_JOIN));

            // A format-1 inner (built by the materializing join op 2)
            // unlocks the restricted operator.
            let j = Plan::join(&m, s0.clone(), s1, JoinOpId(2));
            assert_eq!(j.format(), OutputFormat(1));
            let s2 = Plan::scan(&m, TableId::new(2), ScanOpId(0));
            ops.clear();
            m.join_ops(s2.view(), j.view(), &mut ops);
            assert!(ops.contains(&STUB_RESTRICTED_JOIN));
        }

        #[test]
        fn join_costs_accumulate() {
            let m = StubModel::line(2, 3, 5);
            let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
            let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(1));
            let j = Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(0));
            let summed = s0.cost().add(s1.cost());
            assert!(summed.dominates(j.cost()));
            assert!(summed.strictly_dominates(j.cost()));
        }

        #[test]
        fn operator_profiles_create_tradeoffs() {
            let m = StubModel::line(2, 2, 5);
            let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
            let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(0));
            let j0 = Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(0));
            let j1 = Plan::join(&m, s0, s1, JoinOpId(1));
            // Neither operator dominates the other: a genuine tradeoff.
            assert!(!j0.cost().dominates(j1.cost()));
            assert!(!j1.cost().dominates(j0.cost()));
        }
    }
}
