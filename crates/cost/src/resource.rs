//! The time/buffer/disk resource cost model.
//!
//! This is the reproduction of the cost-metric setting of the paper's
//! evaluation (§6.1): "query execution time, buffer space consumption, and
//! disc space consumption", the metrics previously used by Trummer & Koch's
//! approximation-scheme evaluation. Exact formulas were not published, so
//! this model substitutes textbook operator formulas over the same three
//! metrics (see [`crate::operators`]); what the experiments depend on —
//! genuine tradeoffs between the metrics across operators, and costs that
//! add up along the plan tree — holds by construction. The model composes the
//! operator library of [`crate::operators`] with the catalog's cardinality
//! estimates and presents any non-empty subset of the three metrics
//! (experiments use `l ∈ {1, 2, 3}` metrics drawn uniformly, as in §6.1).
//!
//! All metrics are **additive** along the plan tree, which preserves the
//! principle of optimality the core algorithms rely on (paper footnote 1):
//! time accumulates trivially; buffer accumulates because pipelined plan
//! segments hold their buffers concurrently (a deliberate simplification —
//! the paper makes the same accumulative-cost assumption); disk space
//! accumulates over all materialization points.

use std::sync::Arc;

use moqo_catalog::Catalog;
use moqo_core::cost::{CostVector, MIN_COST};
use moqo_core::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
use moqo_core::tables::TableId;

use crate::cardinality::{rows_to_pages, JoinPair};
use crate::operators::{
    join_use, scan_use, JoinOp, ResourceParams, ResourceUse, ScanKind, STORED, STREAM,
};

/// The three resource metrics of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ResourceMetric {
    /// Execution time (page-I/O units).
    Time,
    /// Buffer space (pages).
    Buffer,
    /// Temporary/materialized disk space (pages).
    Disk,
}

impl ResourceMetric {
    /// All metrics, in canonical order.
    pub const ALL: [ResourceMetric; 3] = [
        ResourceMetric::Time,
        ResourceMetric::Buffer,
        ResourceMetric::Disk,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ResourceMetric::Time => "time",
            ResourceMetric::Buffer => "buffer",
            ResourceMetric::Disk => "disk",
        }
    }

    fn extract(self, u: &ResourceUse) -> f64 {
        match self {
            ResourceMetric::Time => u.time,
            ResourceMetric::Buffer => u.buffer,
            ResourceMetric::Disk => u.disk,
        }
    }
}

/// Multi-metric resource cost model over a [`Catalog`]. Cloning is cheap
/// — the catalog is shared behind an `Arc` — which is how fan-out
/// optimizers take an owned copy per session.
#[derive(Clone)]
pub struct ResourceCostModel {
    catalog: Arc<Catalog>,
    metrics: Vec<ResourceMetric>,
    metric_names: Vec<String>,
    params: ResourceParams,
    scan_ops: Vec<ScanOpId>,
    join_ops_any: Vec<JoinOpId>,
    join_ops_stored_inner: Vec<JoinOpId>,
}

impl ResourceCostModel {
    /// Creates a model over `catalog` exposing the given metrics (order
    /// defines cost-vector component order).
    ///
    /// # Panics
    /// Panics if `metrics` is empty or contains duplicates.
    pub fn new(catalog: Arc<Catalog>, metrics: &[ResourceMetric]) -> Self {
        Self::with_params(catalog, metrics, ResourceParams::default())
    }

    /// Creates a model with explicit cost-formula parameters.
    pub fn with_params(
        catalog: Arc<Catalog>,
        metrics: &[ResourceMetric],
        params: ResourceParams,
    ) -> Self {
        assert!(!metrics.is_empty(), "at least one metric required");
        for (i, m) in metrics.iter().enumerate() {
            assert!(!metrics[..i].contains(m), "duplicate metric {m:?}");
        }
        let join_ops_any: Vec<JoinOpId> = JoinOp::all()
            .filter(|op| !op.kind.requires_stored_inner())
            .map(JoinOp::id)
            .collect();
        let join_ops_stored_inner: Vec<JoinOpId> = JoinOp::all().map(JoinOp::id).collect();
        ResourceCostModel {
            catalog,
            metrics: metrics.to_vec(),
            metric_names: metrics.iter().map(|m| m.name().to_string()).collect(),
            params,
            scan_ops: ScanKind::ALL.iter().map(|k| k.id()).collect(),
            join_ops_any,
            join_ops_stored_inner,
        }
    }

    /// Model over all three metrics.
    pub fn full(catalog: Arc<Catalog>) -> Self {
        Self::new(catalog, &ResourceMetric::ALL)
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The exposed metrics, in cost-vector order.
    pub fn metrics(&self) -> &[ResourceMetric] {
        &self.metrics
    }

    /// The cost-formula parameters.
    pub fn params(&self) -> &ResourceParams {
        &self.params
    }

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
        let join_op = JoinOp::from_id(op);
        debug_assert!(
            !join_op.kind.requires_stored_inner() || inner.format == STORED,
            "{} applied to a pipelined inner",
            join_op.name()
        );
        let usage = join_use(join_op, outer.pages, inner.pages, pages, &self.params);
        PlanProps {
            cost: self.charge(pair.inputs, &usage),
            rows,
            pages,
            format: join_op.output_format(),
        }
    }

    /// `cost` plus the exposed metrics of `u`, each clamped to `MIN_COST`.
    #[inline]
    fn charge(&self, mut cost: CostVector, u: &ResourceUse) -> CostVector {
        for (k, m) in self.metrics.iter().enumerate() {
            cost = cost.add_component(k, m.extract(u).max(MIN_COST));
        }
        cost
    }
}

impl CostModel for ResourceCostModel {
    fn dim(&self) -> usize {
        self.metrics.len()
    }

    fn metric_name(&self, k: usize) -> &str {
        &self.metric_names[k]
    }

    fn num_tables(&self) -> usize {
        self.catalog.num_tables()
    }

    fn scan_ops(&self, _table: TableId) -> &[ScanOpId] {
        &self.scan_ops
    }

    fn join_ops(&self, _outer: &PlanView, inner: &PlanView, out: &mut Vec<JoinOpId>) {
        if inner.format == STORED {
            out.extend_from_slice(&self.join_ops_stored_inner);
        } else {
            out.extend_from_slice(&self.join_ops_any);
        }
    }

    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
        let rows = self.catalog.rows(table);
        let pages = rows_to_pages(rows, self.params.tuples_per_page);
        let usage = scan_use(ScanKind::from_id(op), pages, &self.params);
        PlanProps {
            cost: self.charge(CostVector::zeros(self.metrics.len()), &usage),
            rows,
            pages,
            // Base tables are re-scannable regardless of the access path.
            format: STORED,
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
        ScanKind::from_id(op).name().to_string()
    }

    fn join_op_name(&self, op: JoinOpId) -> String {
        JoinOp::from_id(op).name()
    }

    fn format_name(&self, format: OutputFormat) -> String {
        match format {
            STREAM => "stream".to_string(),
            STORED => "stored".to_string(),
            other => format!("fmt{}", other.0),
        }
    }

    fn num_formats(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::CatalogBuilder;
    use moqo_core::arena::{PlanArena, PlanNodeKind};
    use moqo_core::climb::{pareto_climb_in, ClimbConfig, StepScratch};
    use moqo_core::optimizer::{drive, Budget, NullObserver};
    use moqo_core::plan::Plan;
    use moqo_core::random_plan::random_plan_in;
    use moqo_core::rmq::{Rmq, RmqConfig};
    use moqo_core::tables::TableSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star_catalog(n: usize) -> Arc<Catalog> {
        let mut b = CatalogBuilder::default();
        let hub = b.add_table("fact", 50_000.0);
        for i in 1..n {
            let dim = b.add_table(format!("dim{i}"), 1_000.0 * i as f64);
            b.add_join(hub, dim, 1.0 / (1_000.0 * i as f64));
        }
        Arc::new(b.build())
    }

    #[test]
    fn metric_projection_orders_components() {
        let c = star_catalog(3);
        let m = ResourceCostModel::new(c, &[ResourceMetric::Disk, ResourceMetric::Time]);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.metric_name(0), "disk");
        assert_eq!(m.metric_name(1), "time");
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metrics_rejected() {
        let c = star_catalog(2);
        let _ = ResourceCostModel::new(c, &[ResourceMetric::Time, ResourceMetric::Time]);
    }

    #[test]
    fn scans_are_stored_and_costed() {
        let c = star_catalog(3);
        let m = ResourceCostModel::full(c);
        let t = TableId::new(0);
        let seq = Plan::scan(&m, t, ScanKind::Sequential.id());
        let idx = Plan::scan(&m, t, ScanKind::Index.id());
        assert_eq!(seq.format(), STORED);
        assert_eq!(idx.format(), STORED);
        // time = metric 0, buffer = metric 1: genuine tradeoff.
        assert!(seq.cost()[0] < idx.cost()[0]);
        assert!(seq.cost()[1] > idx.cost()[1]);
    }

    #[test]
    fn bnl_unavailable_on_pipelined_inner() {
        let c = star_catalog(3);
        let m = ResourceCostModel::full(c);
        let s0 = Plan::scan(&m, TableId::new(0), ScanKind::Sequential.id());
        let s1 = Plan::scan(&m, TableId::new(1), ScanKind::Sequential.id());
        let s2 = Plan::scan(&m, TableId::new(2), ScanKind::Sequential.id());
        // Pipelined hash join output as inner: BNL must be filtered out.
        let pipe = Plan::join(
            &m,
            s0,
            s1,
            JoinOp {
                kind: crate::operators::JoinKind::Hash,
                materialize: false,
            }
            .id(),
        );
        assert_eq!(pipe.format(), STREAM);
        let mut ops = Vec::new();
        m.join_ops(s2.view(), pipe.view(), &mut ops);
        assert_eq!(ops.len(), 6, "3 non-BNL algorithms × 2 transfer modes");
        for op in &ops {
            assert!(!JoinOp::from_id(*op).kind.requires_stored_inner());
        }
        // Materialized output as inner: all 10 operators available.
        let mat = Plan::join(
            &m,
            pipe.outer().unwrap().clone(),
            pipe.inner().unwrap().clone(),
            JoinOp {
                kind: crate::operators::JoinKind::Hash,
                materialize: true,
            }
            .id(),
        );
        assert_eq!(mat.format(), STORED);
        ops.clear();
        let s2b = Plan::scan(&m, TableId::new(2), ScanKind::Sequential.id());
        m.join_ops(s2b.view(), mat.view(), &mut ops);
        assert_eq!(ops.len(), 10);
    }

    #[test]
    fn costs_accumulate_upwards() {
        let c = star_catalog(4);
        let m = ResourceCostModel::full(c);
        let q = TableSet::prefix(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut arena = PlanArena::new();
        for _ in 0..20 {
            let p = random_plan_in(&mut arena, &m, q, &mut rng);
            if let PlanNodeKind::Join { outer, inner, .. } = arena.node(p).kind() {
                let children = arena.cost(outer).add(&arena.cost(inner));
                assert!(
                    children.dominates(&arena.cost(p)),
                    "join cheaper than inputs"
                );
            }
        }
    }

    #[test]
    fn frontier_spans_multiple_tradeoffs() {
        // Under time+buffer, RMQ on a small star query must find at least
        // two non-dominated plans (hash fast/hungry vs BNL slow/lean).
        let c = star_catalog(4);
        let m = ResourceCostModel::new(c, &[ResourceMetric::Time, ResourceMetric::Buffer]);
        let q = TableSet::prefix(4);
        let mut rmq = Rmq::new(&m, q, RmqConfig::seeded(5));
        drive(&mut rmq, Budget::Iterations(60), &mut NullObserver);
        let frontier = rmq.frontier();
        assert!(
            frontier.len() >= 2,
            "only {} tradeoff(s) found",
            frontier.len()
        );
        for p in &frontier {
            assert!(p.validate(q).is_ok());
        }
    }

    #[test]
    fn climbing_works_on_resource_model() {
        let c = star_catalog(6);
        let m = ResourceCostModel::full(c);
        let q = TableSet::prefix(6);
        let mut rng = StdRng::seed_from_u64(7);
        let mut arena = PlanArena::new();
        let start = random_plan_in(&mut arena, &m, q, &mut rng);
        let (opt, stats) = pareto_climb_in(
            &mut arena,
            start,
            &m,
            &ClimbConfig::default(),
            &mut StepScratch::default(),
        );
        assert!(arena.validate(opt, q).is_ok());
        assert!(!arena.cost(start).strictly_dominates(&arena.cost(opt)));
        assert!(stats.steps < 1_000);
    }

    #[test]
    fn single_metric_projection_works() {
        let c = star_catalog(3);
        let m = ResourceCostModel::new(c, &[ResourceMetric::Time]);
        assert_eq!(m.dim(), 1);
        let q = TableSet::prefix(3);
        let mut arena = PlanArena::new();
        let p = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(1));
        assert_eq!(arena.cost(p).dim(), 1);
    }

    #[test]
    fn op_and_format_names() {
        let c = star_catalog(2);
        let m = ResourceCostModel::full(c);
        assert_eq!(m.scan_op_name(ScanKind::Index.id()), "IdxScan");
        assert!(m
            .join_op_name(
                JoinOp {
                    kind: crate::operators::JoinKind::GraceHash,
                    materialize: true
                }
                .id()
            )
            .contains("Grace"));
        assert_eq!(m.format_name(STREAM), "stream");
        assert_eq!(m.format_name(STORED), "stored");
        assert_eq!(m.num_formats(), 2);
    }
}
