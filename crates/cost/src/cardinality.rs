//! Cardinality estimation shared by the cost models.
//!
//! The estimators follow the textbook independence assumption: the output
//! cardinality of a join is the product of the input cardinalities times the
//! joint selectivity of the predicates crossing the cut (provided by the
//! catalog's join graph; absent predicates contribute factor 1, i.e. cross
//! products). Estimates are clamped to at least one row / a small page
//! fraction so downstream cost ratios stay well-defined.

use moqo_catalog::Catalog;
use moqo_core::cost::CostVector;
use moqo_core::model::PlanView;

/// Smallest page estimate (keeps per-metric costs strictly positive).
pub const MIN_PAGES: f64 = 0.01;

/// Estimates the output cardinality of joining `outer` with `inner`
/// (operands as representation-agnostic [`PlanView`]s).
pub fn join_rows(catalog: &Catalog, outer: &PlanView, inner: &PlanView) -> f64 {
    let sel = catalog.joint_selectivity(outer.rel, inner.rel);
    (outer.rows * inner.rows * sel).max(1.0)
}

/// Converts a row estimate to pages given a tuples-per-page density.
pub fn rows_to_pages(rows: f64, tuples_per_page: f64) -> f64 {
    debug_assert!(tuples_per_page > 0.0);
    (rows / tuples_per_page).max(MIN_PAGES)
}

/// Everything about a join node that depends on the operand pair but not
/// on the operator. `join_props` builds one per call, `join_props_all` one
/// per operand pair — the rest of a model's join costing takes it as given,
/// which is what keeps the two bit-identical.
#[derive(Clone, Copy, Debug)]
pub struct JoinPair {
    /// Estimated output cardinality ([`join_rows`]).
    pub rows: f64,
    /// Estimated output size in pages ([`rows_to_pages`]).
    pub pages: f64,
    /// `outer.cost + inner.cost`, the accumulated cost of the inputs.
    pub inputs: CostVector,
}

impl JoinPair {
    /// The pair-invariant properties of joining `outer` with `inner`.
    pub fn new(
        catalog: &Catalog,
        outer: &PlanView,
        inner: &PlanView,
        tuples_per_page: f64,
    ) -> Self {
        let rows = join_rows(catalog, outer, inner);
        JoinPair {
            rows,
            pages: rows_to_pages(rows, tuples_per_page),
            inputs: outer.cost.add(&inner.cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::Catalog;
    use moqo_core::model::testing::StubModel;
    use moqo_core::model::{CostModel, ScanOpId};
    use moqo_core::plan::Plan;
    use moqo_core::tables::TableId;

    fn two_table_catalog() -> Catalog {
        let mut b = Catalog::builder();
        let a = b.add_table("a", 1_000.0);
        let c = b.add_table("b", 2_000.0);
        b.add_join(a, c, 0.001);
        b.build()
    }

    #[test]
    fn join_rows_uses_edge_selectivity() {
        let catalog = two_table_catalog();
        // Use StubModel only as a convenient Plan factory; its row estimates
        // are overridden by reading rows() off scan nodes we build below.
        let stub = StubModel::line(2, 2, 1);
        let s0 = Plan::scan(&stub, TableId::new(0), stub.scan_ops(TableId::new(0))[0]);
        let s1 = Plan::scan(&stub, TableId::new(1), ScanOpId(0));
        let rows = join_rows(&catalog, s0.view(), s1.view());
        let expected = (s0.rows() * s1.rows() * 0.001).max(1.0);
        assert!((rows - expected).abs() < 1e-9);
    }

    #[test]
    fn join_rows_clamps_to_one() {
        let mut b = Catalog::builder();
        let a = b.add_table("a", 2.0);
        let c = b.add_table("b", 2.0);
        b.add_join(a, c, 1e-9);
        let catalog = b.build();
        let stub = StubModel::line(2, 2, 1);
        let s0 = Plan::scan(&stub, TableId::new(0), ScanOpId(0));
        let s1 = Plan::scan(&stub, TableId::new(1), ScanOpId(0));
        assert_eq!(join_rows(&catalog, s0.view(), s1.view()), 1.0);
    }

    #[test]
    fn pages_conversion_clamps() {
        assert_eq!(rows_to_pages(1000.0, 100.0), 10.0);
        assert_eq!(rows_to_pages(0.0, 100.0), MIN_PAGES);
        assert!(rows_to_pages(1.0, 100.0) >= MIN_PAGES);
    }
}
