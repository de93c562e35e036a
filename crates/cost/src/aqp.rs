//! The approximate-query-processing (AQP) cost model: time vs. precision.
//!
//! The paper motivates MOQO with approximate query processing "where users
//! care about execution time and result precision" (§1, citing BlinkDB \[1\]),
//! and footnote 2 describes the operator-level realization: "we might
//! introduce different scan operator versions associated with different
//! sample densities". Result precision is a quality metric; following the
//! paper (§3, citing \[18\]) we transform it into the **precision loss** cost
//! metric so that lower is better for every component.
//!
//! This model is the workspace's concrete witness for the paper's §4.3
//! closing argument of why query optimization cannot be decomposed into
//! join-order selection followed by operator selection: a sampled scan
//! *shrinks the cardinality* of its table (`rows = density · |T|`), so the
//! intermediate-result sizes — and with them the optimal join order —
//! depend on the chosen operator configuration.
//!
//! Precision loss is additive along the plan tree: scanning a fraction `f`
//! of a table contributes `log₂(1/f)` "lost bits" (the relative standard
//! error of sample-based aggregate estimates grows as `1/√f`, so log-scale
//! losses of independent per-table samples add up); joins add zero loss.
//! Additivity keeps the principle of optimality intact (paper footnote 1).

use std::sync::Arc;

use moqo_catalog::Catalog;
use moqo_core::cost::{CostVector, MIN_COST};
use moqo_core::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
use moqo_core::tables::TableId;

use crate::cardinality::{rows_to_pages, JoinPair};

/// Sample densities offered for every scan operator (fraction of the table
/// that is read). Density `1.0` is an exact scan with zero precision loss.
pub const SAMPLE_DENSITIES: [f64; 5] = [0.001, 0.01, 0.1, 0.5, 1.0];

/// Join algorithm families of the AQP model (both pipelined; sampling
/// happens at the leaves, joins only combine samples).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AqpJoinKind {
    /// Hash join: build cost on the inner, probe cost on the outer.
    Hash,
    /// Nested-loop join: no build phase, cheap for tiny (sampled) inputs.
    NestedLoop,
}

impl AqpJoinKind {
    /// All kinds.
    pub const ALL: [AqpJoinKind; 2] = [AqpJoinKind::Hash, AqpJoinKind::NestedLoop];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AqpJoinKind::Hash => "HashJoin",
            AqpJoinKind::NestedLoop => "NLJoin",
        }
    }
}

/// Tuning knobs of the AQP model.
#[derive(Clone, Copy, Debug)]
pub struct AqpParams {
    /// Tuples per page.
    pub tuples_per_page: f64,
    /// Fixed per-operator startup time (keeps very small samples from
    /// having arbitrarily small cost).
    pub startup: f64,
    /// Scale factor applied to the precision-loss metric.
    pub loss_scale: f64,
}

impl Default for AqpParams {
    fn default() -> Self {
        AqpParams {
            tuples_per_page: 100.0,
            startup: 0.1,
            loss_scale: 1.0,
        }
    }
}

/// Time/precision-loss cost model over a [`Catalog`].
///
/// Metric 0 is execution time (page-I/O units), metric 1 is precision loss
/// (lost bits, see module docs). Cloning is cheap (Arc-shared catalog).
#[derive(Clone)]
pub struct AqpCostModel {
    catalog: Arc<Catalog>,
    params: AqpParams,
    scan_ops: Vec<ScanOpId>,
    join_ops: Vec<JoinOpId>,
}

impl AqpCostModel {
    /// Creates the model with default parameters.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::with_params(catalog, AqpParams::default())
    }

    /// Creates the model with explicit parameters.
    pub fn with_params(catalog: Arc<Catalog>, params: AqpParams) -> Self {
        AqpCostModel {
            catalog,
            params,
            scan_ops: (0..SAMPLE_DENSITIES.len() as u16).map(ScanOpId).collect(),
            join_ops: (0..AqpJoinKind::ALL.len() as u16).map(JoinOpId).collect(),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Decodes a scan operator id into its sample density.
    pub fn decode_scan(op: ScanOpId) -> f64 {
        SAMPLE_DENSITIES[op.0 as usize]
    }

    /// Decodes a join operator id into its algorithm kind.
    pub fn decode_join(op: JoinOpId) -> AqpJoinKind {
        AqpJoinKind::ALL[op.0 as usize]
    }

    /// Precision loss of scanning a fraction `density` of a table:
    /// `loss_scale · log₂(1/density)` lost bits.
    pub fn scan_loss(&self, density: f64) -> f64 {
        debug_assert!(density > 0.0 && density <= 1.0);
        self.params.loss_scale * (1.0 / density).log2()
    }

    /// The operands' `rows` already reflect sampling, so the joint
    /// selectivity of the cut applies to the *observed* input sizes — a
    /// join's output size depends on the scan configuration below it, not
    /// just on the join order (the §4.3 non-decomposability witness).
    fn join_pair(&self, outer: &PlanView, inner: &PlanView) -> JoinPair {
        JoinPair::new(&self.catalog, outer, inner, self.params.tuples_per_page)
    }

    /// Properties of the join node for one operator, given what the
    /// operand pair alone determines. Both `join_props` and
    /// `join_props_all` end here, so they agree bit for bit. Inlined into
    /// the batch loop, where it halves the per-operator time: the
    /// `PlanProps` are then built in place instead of returned through
    /// memory.
    #[inline]
    fn join_node(
        &self,
        outer: &PlanView,
        inner: &PlanView,
        op: JoinOpId,
        pair: &JoinPair,
    ) -> PlanProps {
        let (rows, pages) = (pair.rows, pair.pages);
        let time = self.params.startup
            + match Self::decode_join(op) {
                // Build the inner, probe with the outer, emit the result.
                AqpJoinKind::Hash => 1.2 * inner.pages + outer.pages + 0.1 * pages,
                // Scan the inner once per outer page (sampling makes tiny
                // inners common, where this wins over the build cost).
                AqpJoinKind::NestedLoop => {
                    outer.pages + outer.pages.max(1.0) * inner.pages * 0.1 + 0.1 * pages
                }
            };
        // Joins combine samples; they add no precision loss of their own.
        let step = CostVector::new(&[time.max(MIN_COST), MIN_COST]);
        PlanProps {
            cost: pair.inputs.add(&step),
            rows,
            pages,
            format: OutputFormat(0),
        }
    }
}

impl CostModel for AqpCostModel {
    fn dim(&self) -> usize {
        2
    }

    fn metric_name(&self, k: usize) -> &str {
        match k {
            0 => "time",
            _ => "precision-loss",
        }
    }

    fn num_tables(&self) -> usize {
        self.catalog.num_tables()
    }

    fn scan_ops(&self, _table: TableId) -> &[ScanOpId] {
        &self.scan_ops
    }

    fn join_ops(&self, _outer: &PlanView, _inner: &PlanView, out: &mut Vec<JoinOpId>) {
        out.extend_from_slice(&self.join_ops);
    }

    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
        let density = Self::decode_scan(op);
        let base_rows = self.catalog.rows(table);
        // A sampled scan still yields at least one row.
        let rows = (base_rows * density).max(1.0);
        let pages = rows_to_pages(rows, self.params.tuples_per_page);
        // Page-level Bernoulli sampling reads only the sampled pages.
        let time = self.params.startup + pages;
        let loss = self.scan_loss(density);
        PlanProps {
            cost: CostVector::new(&[time.max(MIN_COST), loss.max(MIN_COST)]),
            rows,
            pages,
            format: OutputFormat(0),
        }
    }

    fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
        self.join_node(outer, inner, op, &self.join_pair(outer, inner))
    }

    fn join_props_all(
        &self,
        outer: &PlanView,
        inner: &PlanView,
        ops: &[JoinOpId],
        out: &mut Vec<PlanProps>,
    ) {
        let pair = self.join_pair(outer, inner);
        out.extend(
            ops.iter()
                .map(|&op| self.join_node(outer, inner, op, &pair)),
        );
    }

    fn scan_op_name(&self, op: ScanOpId) -> String {
        let density = Self::decode_scan(op);
        if density >= 1.0 {
            "Scan".to_string()
        } else {
            format!("Sample({density})")
        }
    }

    fn join_op_name(&self, op: JoinOpId) -> String {
        Self::decode_join(op).name().to_string()
    }

    fn num_formats(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::CatalogBuilder;
    use moqo_core::archive::ArchiveConfig;
    use moqo_core::optimizer::{drive, Budget, NullObserver};
    use moqo_core::plan::Plan;
    use moqo_core::rmq::{Rmq, RmqConfig};
    use moqo_core::tables::TableSet;

    fn chain_catalog(n: usize) -> Arc<Catalog> {
        let mut b = CatalogBuilder::default();
        let ids: Vec<TableId> = (0..n)
            .map(|i| b.add_table(format!("t{i}"), 20_000.0 + 10_000.0 * i as f64))
            .collect();
        for w in ids.windows(2) {
            b.add_join(w[0], w[1], 1e-4);
        }
        Arc::new(b.build())
    }

    #[test]
    fn sampling_trades_time_for_precision() {
        let m = AqpCostModel::new(chain_catalog(2));
        let t = TableId::new(0);
        let exact = Plan::scan(&m, t, ScanOpId(4)); // density 1.0
        let sampled = Plan::scan(&m, t, ScanOpId(1)); // density 0.01
        assert!(
            sampled.cost()[0] < exact.cost()[0],
            "sampling must be faster"
        );
        assert!(
            sampled.cost()[1] > exact.cost()[1],
            "sampling must lose precision"
        );
    }

    #[test]
    fn exact_scan_has_negligible_loss() {
        let m = AqpCostModel::new(chain_catalog(1));
        let exact = Plan::scan(&m, TableId::new(0), ScanOpId(4));
        assert!(exact.cost()[1] <= MIN_COST * 1.001);
    }

    #[test]
    fn loss_adds_one_log2_unit_per_density_step() {
        let m = AqpCostModel::new(chain_catalog(1));
        // Densities 0.001, 0.01, 0.1 are decades: 10× density ≈ log2(10)
        // fewer lost bits.
        let l1 = m.scan_loss(0.001);
        let l2 = m.scan_loss(0.01);
        let l3 = m.scan_loss(0.1);
        let decade = 10f64.log2();
        assert!((l1 - l2 - decade).abs() < 1e-12);
        assert!((l2 - l3 - decade).abs() < 1e-12);
    }

    #[test]
    fn sampled_scans_shrink_cardinalities() {
        let m = AqpCostModel::new(chain_catalog(2));
        let t = TableId::new(0);
        let exact = Plan::scan(&m, t, ScanOpId(4));
        let sampled = Plan::scan(&m, t, ScanOpId(2)); // density 0.1
        assert!((sampled.rows() - exact.rows() * 0.1).abs() < 1e-9);
        assert!(sampled.pages() < exact.pages());
    }

    #[test]
    fn join_rows_respect_sampled_inputs() {
        // The §4.3 non-decomposability witness: intermediate-result sizes
        // depend on the scan configuration, not just the join order.
        let m = AqpCostModel::new(chain_catalog(2));
        let s0e = Plan::scan(&m, TableId::new(0), ScanOpId(4));
        let s1e = Plan::scan(&m, TableId::new(1), ScanOpId(4));
        let s0s = Plan::scan(&m, TableId::new(0), ScanOpId(2));
        let s1s = Plan::scan(&m, TableId::new(1), ScanOpId(2));
        let exact = Plan::join(&m, s0e, s1e, JoinOpId(0));
        let sampled = Plan::join(&m, s0s, s1s, JoinOpId(0));
        // 0.1 × 0.1 sampling shrinks the join output by ~100×.
        assert!(sampled.rows() < exact.rows() / 50.0);
    }

    #[test]
    fn costs_accumulate_upwards() {
        let m = AqpCostModel::new(chain_catalog(3));
        let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(3));
        let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(4));
        let j = Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(0));
        let children = s0.cost().add(s1.cost());
        assert!(children.dominates(j.cost()), "join cheaper than its inputs");
    }

    #[test]
    fn rmq_finds_time_precision_frontier() {
        let m = AqpCostModel::new(chain_catalog(4));
        let q = TableSet::prefix(4);
        let cfg = RmqConfig {
            archive: ArchiveConfig::fixed(1.0),
            ..RmqConfig::seeded(11)
        };
        let mut rmq = Rmq::new(&m, q, cfg);
        drive(&mut rmq, Budget::Iterations(80), &mut NullObserver);
        let frontier = rmq.frontier();
        assert!(
            frontier.len() >= 3,
            "expected a rich frontier, got {}",
            frontier.len()
        );
        // The frontier must span from near-exact (low loss, slow) to
        // heavily sampled (high loss, fast).
        let loss_min = frontier
            .iter()
            .map(|p| p.cost()[1])
            .fold(f64::MAX, f64::min);
        let loss_max = frontier.iter().map(|p| p.cost()[1]).fold(0.0, f64::max);
        assert!(loss_max > loss_min + 1.0, "no real precision spread");
        let time_of_precise = frontier
            .iter()
            .filter(|p| p.cost()[1] <= loss_min + 1e-9)
            .map(|p| p.cost()[0])
            .fold(f64::MAX, f64::min);
        let time_of_coarse = frontier
            .iter()
            .filter(|p| p.cost()[1] >= loss_max - 1e-9)
            .map(|p| p.cost()[0])
            .fold(f64::MAX, f64::min);
        assert!(
            time_of_coarse < time_of_precise,
            "coarse plans must be faster than precise ones"
        );
    }

    #[test]
    fn operator_names_reflect_density() {
        let m = AqpCostModel::new(chain_catalog(1));
        assert_eq!(m.scan_op_name(ScanOpId(4)), "Scan");
        assert_eq!(m.scan_op_name(ScanOpId(1)), "Sample(0.01)");
        assert_eq!(m.join_op_name(JoinOpId(0)), "HashJoin");
        assert_eq!(m.join_op_name(JoinOpId(1)), "NLJoin");
        assert_eq!(m.metric_name(1), "precision-loss");
        assert_eq!(m.dim(), 2);
        assert_eq!(m.num_formats(), 1);
    }

    #[test]
    fn tiny_tables_never_yield_zero_rows() {
        let mut b = CatalogBuilder::default();
        let t = b.add_table("tiny", 5.0);
        let _ = t;
        let m = AqpCostModel::new(Arc::new(b.build()));
        let p = Plan::scan(&m, TableId::new(0), ScanOpId(0)); // density 0.001
        assert!(p.rows() >= 1.0);
        assert!(p.cost().is_valid());
    }
}
