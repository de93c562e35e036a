//! The cloud cost model: execution time vs. monetary fees.
//!
//! The paper's introduction motivates MOQO with cloud scenarios "where users
//! care about execution time and monetary fees for cloud resources", and
//! footnote 2 suggests realizing the tradeoff through "operator versions
//! that are associated with different degrees of parallelism, allowing to
//! trade monetary cost for execution time". This model implements that:
//! every scan and join operator comes in degree-of-parallelism (DOP)
//! variants `1, 2, 4, 8, 16`. Parallel speedup is sub-linear
//! (`time = work / dop^0.85`, a fixed parallel-efficiency exponent) while
//! fees grow super-linearly in allocated capacity
//! (`money = rate · work · dop^0.15 + dop · provisioning`), so higher DOP
//! buys time with money at diminishing returns and the Pareto frontier over
//! (time, money) is non-degenerate at every plan node.

use std::sync::Arc;

use moqo_catalog::Catalog;
use moqo_core::cost::{CostVector, MIN_COST};
use moqo_core::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
use moqo_core::tables::TableId;

use crate::cardinality::{rows_to_pages, JoinPair};

/// Degrees of parallelism offered for every operator.
pub const DOPS: [u16; 5] = [1, 2, 4, 8, 16];

/// Join algorithm families of the cloud model (all pipelined).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CloudJoinKind {
    /// Partitioned hash join.
    Hash,
    /// Broadcast nested-loop join (cheap on tiny inners, no partition pass).
    Broadcast,
}

impl CloudJoinKind {
    /// All kinds.
    pub const ALL: [CloudJoinKind; 2] = [CloudJoinKind::Hash, CloudJoinKind::Broadcast];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CloudJoinKind::Hash => "CloudHash",
            CloudJoinKind::Broadcast => "Broadcast",
        }
    }
}

/// Pricing and efficiency knobs of the cloud model.
#[derive(Clone, Copy, Debug)]
pub struct CloudParams {
    /// Tuples per page.
    pub tuples_per_page: f64,
    /// Parallel-efficiency exponent: `time = work / dop^eff`.
    pub parallel_efficiency: f64,
    /// Money per unit of work at DOP 1.
    pub rate: f64,
    /// Fixed provisioning fee per allocated worker.
    pub provisioning: f64,
}

impl Default for CloudParams {
    fn default() -> Self {
        CloudParams {
            tuples_per_page: 100.0,
            parallel_efficiency: 0.85,
            rate: 0.01,
            provisioning: 0.05,
        }
    }
}

/// Time/money cost model over a [`Catalog`]. Cloning is cheap
/// (Arc-shared catalog).
#[derive(Clone)]
pub struct CloudCostModel {
    catalog: Arc<Catalog>,
    params: CloudParams,
    scan_ops: Vec<ScanOpId>,
    join_ops: Vec<JoinOpId>,
}

impl CloudCostModel {
    /// Creates the model with default pricing.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::with_params(catalog, CloudParams::default())
    }

    /// Creates the model with explicit pricing parameters.
    pub fn with_params(catalog: Arc<Catalog>, params: CloudParams) -> Self {
        CloudCostModel {
            catalog,
            params,
            scan_ops: (0..DOPS.len() as u16).map(ScanOpId).collect(),
            join_ops: (0..(DOPS.len() * CloudJoinKind::ALL.len()) as u16)
                .map(JoinOpId)
                .collect(),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Decodes a join operator id into `(kind, dop)`.
    pub fn decode_join(op: JoinOpId) -> (CloudJoinKind, u16) {
        let kind = CloudJoinKind::ALL[op.0 as usize / DOPS.len()];
        let dop = DOPS[op.0 as usize % DOPS.len()];
        (kind, dop)
    }

    /// Decodes a scan operator id into its DOP.
    pub fn decode_scan(op: ScanOpId) -> u16 {
        DOPS[op.0 as usize]
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
        let (kind, dop) = Self::decode_join(op);
        let work = match kind {
            // Partition both sides, then probe.
            CloudJoinKind::Hash => 1.5 * (outer.pages + inner.pages) + 0.1 * pages,
            // Ship the inner to every worker: cheap for small inners.
            CloudJoinKind::Broadcast => outer.pages + inner.pages * dop as f64 + 0.1 * pages,
        };
        let (time, money) = self.time_money(work, dop);
        PlanProps {
            cost: pair.inputs.add(&CostVector::new(&[time, money])),
            rows,
            pages,
            format: OutputFormat(0),
        }
    }

    /// (time, money) for `work` units executed at the given DOP.
    fn time_money(&self, work: f64, dop: u16) -> (f64, f64) {
        let dop_f = dop as f64;
        let time = work / dop_f.powf(self.params.parallel_efficiency);
        let money = self.params.rate * work * dop_f.powf(1.0 - self.params.parallel_efficiency)
            + self.params.provisioning * dop_f;
        (time.max(MIN_COST), money.max(MIN_COST))
    }
}

impl CostModel for CloudCostModel {
    fn dim(&self) -> usize {
        2
    }

    fn metric_name(&self, k: usize) -> &str {
        match k {
            0 => "time",
            _ => "money",
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
        let rows = self.catalog.rows(table);
        let pages = rows_to_pages(rows, self.params.tuples_per_page);
        let (time, money) = self.time_money(pages, Self::decode_scan(op));
        PlanProps {
            cost: CostVector::new(&[time, money]),
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
        format!("Scan×{}", Self::decode_scan(op))
    }

    fn join_op_name(&self, op: JoinOpId) -> String {
        let (kind, dop) = Self::decode_join(op);
        format!("{}×{dop}", kind.name())
    }

    fn num_formats(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::CatalogBuilder;
    use moqo_core::optimizer::{drive, Budget, NullObserver};
    use moqo_core::plan::Plan;
    use moqo_core::rmq::{Rmq, RmqConfig};
    use moqo_core::tables::TableSet;

    fn catalog(n: usize) -> Arc<Catalog> {
        let mut b = CatalogBuilder::default();
        let ids: Vec<TableId> = (0..n)
            .map(|i| b.add_table(format!("t{i}"), 10_000.0 + 5_000.0 * i as f64))
            .collect();
        for w in ids.windows(2) {
            b.add_join(w[0], w[1], 1e-4);
        }
        Arc::new(b.build())
    }

    #[test]
    fn dop_trades_time_for_money() {
        let m = CloudCostModel::new(catalog(2));
        let t = TableId::new(0);
        let slow = Plan::scan(&m, t, ScanOpId(0)); // DOP 1
        let fast = Plan::scan(&m, t, ScanOpId(4)); // DOP 16
        assert!(fast.cost()[0] < slow.cost()[0], "higher DOP must be faster");
        assert!(fast.cost()[1] > slow.cost()[1], "higher DOP must cost more");
    }

    #[test]
    fn decode_round_trips() {
        for id in 0..10u16 {
            let (kind, dop) = CloudCostModel::decode_join(JoinOpId(id));
            assert!(DOPS.contains(&dop));
            assert!(CloudJoinKind::ALL.contains(&kind));
        }
        assert_eq!(CloudCostModel::decode_scan(ScanOpId(2)), 4);
    }

    #[test]
    fn broadcast_beats_hash_on_tiny_inner() {
        let mut b = CatalogBuilder::default();
        let big = b.add_table("big", 1_000_000.0);
        let tiny = b.add_table("tiny", 100.0);
        b.add_join(big, tiny, 1e-6);
        let m = CloudCostModel::new(Arc::new(b.build()));
        let sb = Plan::scan(&m, big, ScanOpId(0));
        let st = Plan::scan(&m, tiny, ScanOpId(0));
        // Same DOP (1): broadcast avoids repartitioning the big side.
        let hash = Plan::join(&m, sb.clone(), st.clone(), JoinOpId(0));
        let bcast = Plan::join(&m, sb, st, JoinOpId(DOPS.len() as u16));
        assert!(bcast.cost()[0] < hash.cost()[0]);
    }

    #[test]
    fn rmq_finds_time_money_frontier() {
        let m = CloudCostModel::new(catalog(5));
        let q = TableSet::prefix(5);
        // Exact pruning (α = 1): the paper's schedule starts at α = 25,
        // which deliberately collapses tradeoffs within a 25× cost band
        // during early iterations — too coarse to assert frontier richness
        // after only 80 iterations.
        let cfg = RmqConfig {
            archive: moqo_core::archive::ArchiveConfig::fixed(1.0),
            ..RmqConfig::seeded(3)
        };
        let mut rmq = Rmq::new(&m, q, cfg);
        drive(&mut rmq, Budget::Iterations(80), &mut NullObserver);
        let frontier = rmq.frontier();
        assert!(
            frontier.len() >= 3,
            "expected a rich frontier, got {}",
            frontier.len()
        );
        // Frontier must be sorted-compatible: no plan dominates another.
        for a in &frontier {
            for b in &frontier {
                if !std::sync::Arc::ptr_eq(a, b) {
                    assert!(!a.cost().strictly_dominates(b.cost()));
                }
            }
        }
        // And it must span a real tradeoff range.
        let tmin = frontier
            .iter()
            .map(|p| p.cost()[0])
            .fold(f64::MAX, f64::min);
        let tmax = frontier.iter().map(|p| p.cost()[0]).fold(0.0, f64::max);
        assert!(tmax / tmin > 1.5, "degenerate time range {tmin}..{tmax}");
    }

    #[test]
    fn names_reflect_dop() {
        let m = CloudCostModel::new(catalog(2));
        assert_eq!(m.scan_op_name(ScanOpId(1)), "Scan×2");
        assert_eq!(m.join_op_name(JoinOpId(6)), "Broadcast×2");
        assert_eq!(m.metric_name(0), "time");
        assert_eq!(m.metric_name(1), "money");
        assert_eq!(m.dim(), 2);
        assert_eq!(m.num_formats(), 1);
    }
}
