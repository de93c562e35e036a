//! Shared by the integration tests that watch how the optimizer calls its
//! cost model.

use std::sync::atomic::{AtomicU64, Ordering};

use moqo_core::model::{CostModel, JoinOpId, PlanProps, PlanView, ScanOpId};
use moqo_core::tables::TableId;
use moqo_cost::ResourceCostModel;

/// A resource model that counts what reaches it: node costings (one per
/// `scan_props` / `join_props`, one per operator of a `join_props_all`) and
/// runs of its own `join_props_all` override.
pub struct CountingModel {
    pub inner: ResourceCostModel,
    costings: AtomicU64,
    batches: AtomicU64,
}

impl CountingModel {
    pub fn new(inner: ResourceCostModel) -> Self {
        CountingModel {
            inner,
            costings: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Returns and resets the number of node costings.
    #[allow(dead_code)] // each test binary uses one of the two counters
    pub fn take_costings(&self) -> u64 {
        self.costings.swap(0, Ordering::Relaxed)
    }

    /// How often the `join_props_all` override ran.
    #[allow(dead_code)]
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

impl CostModel for CountingModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn metric_name(&self, k: usize) -> &str {
        self.inner.metric_name(k)
    }
    fn num_tables(&self) -> usize {
        self.inner.num_tables()
    }
    fn scan_ops(&self, table: TableId) -> &[ScanOpId] {
        self.inner.scan_ops(table)
    }
    fn join_ops(&self, outer: &PlanView, inner: &PlanView, out: &mut Vec<JoinOpId>) {
        self.inner.join_ops(outer, inner, out)
    }
    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
        self.costings.fetch_add(1, Ordering::Relaxed);
        self.inner.scan_props(table, op)
    }
    fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
        self.costings.fetch_add(1, Ordering::Relaxed);
        self.inner.join_props(outer, inner, op)
    }
    fn join_props_all(
        &self,
        outer: &PlanView,
        inner: &PlanView,
        ops: &[JoinOpId],
        out: &mut Vec<PlanProps>,
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.costings.fetch_add(ops.len() as u64, Ordering::Relaxed);
        self.inner.join_props_all(outer, inner, ops, out)
    }
    fn scan_op_name(&self, op: ScanOpId) -> String {
        self.inner.scan_op_name(op)
    }
    fn join_op_name(&self, op: JoinOpId) -> String {
        self.inner.join_op_name(op)
    }
    fn num_formats(&self) -> usize {
        self.inner.num_formats()
    }
}
