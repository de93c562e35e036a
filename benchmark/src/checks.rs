//! Correctness checks on the program's outputs.
//!
//! Every final frontier is checked three ways: each plan validates against
//! its query, the members are mutually non-dominated, and each exported plan
//! re-costed bottom-up through the model reproduces its stored cost (and
//! cardinalities, and output format) bit for bit.

use moqo_core::model::{CostModel, PlanProps};
use moqo_core::plan::{PlanKind, PlanRef};
use moqo_core::TableSet;

/// Recomputes `plan`'s properties from its leaves through `model`.
fn recost<M: CostModel + ?Sized>(plan: &PlanRef, model: &M, mismatches: &mut usize) -> PlanProps {
    let fresh = match plan.kind() {
        PlanKind::Scan { table, op } => model.scan_props(*table, *op),
        PlanKind::Join { outer, inner, op } => {
            // Children first; the join is then costed from the *stored*
            // child views, exactly as the optimizer costed it.
            recost(outer, model, mismatches);
            recost(inner, model, mismatches);
            model.join_props(outer.view(), inner.view(), *op)
        }
    };
    let same_cost = fresh
        .cost
        .as_slice()
        .iter()
        .zip(plan.cost().as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && fresh.cost.dim() == plan.cost().dim();
    if !(same_cost
        && fresh.rows.to_bits() == plan.rows().to_bits()
        && fresh.pages.to_bits() == plan.pages().to_bits()
        && fresh.format == plan.format())
    {
        *mismatches += 1;
    }
    fresh
}

/// Checks one final frontier; returns one message per violated property.
pub fn check_frontier<M: CostModel + ?Sized>(
    plans: &[PlanRef],
    model: &M,
    query: TableSet,
) -> Vec<String> {
    let mut problems = Vec::new();
    if plans.is_empty() {
        problems.push("empty frontier".to_string());
    }
    for (i, p) in plans.iter().enumerate() {
        if let Err(e) = p.validate(query) {
            problems.push(format!("plan {i} does not validate: {e:?}"));
        }
        let mut mismatches = 0;
        recost(p, model, &mut mismatches);
        if mismatches > 0 {
            problems.push(format!(
                "plan {i}: {mismatches} nodes re-cost to different bits"
            ));
        }
        for (j, q) in plans.iter().enumerate() {
            if i != j && p.same_output(q) && p.cost().strictly_dominates(q.cost()) {
                problems.push(format!("plan {i} strictly dominates plan {j}"));
            }
        }
    }
    problems
}

/// Whether two frontiers are bit-identical: same order, same plan trees
/// (tables, operators), same costs to the bit.
pub fn identical(a: &[PlanRef], b: &[PlanRef]) -> bool {
    fn same(a: &PlanRef, b: &PlanRef) -> bool {
        let costs = a
            .cost()
            .as_slice()
            .iter()
            .zip(b.cost().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        costs
            && a.format() == b.format()
            && match (a.kind(), b.kind()) {
                (PlanKind::Scan { table: t, op: o }, PlanKind::Scan { table: u, op: p }) => {
                    t == u && o == p
                }
                (
                    PlanKind::Join {
                        outer: ao,
                        inner: ai,
                        op: aop,
                    },
                    PlanKind::Join {
                        outer: bo,
                        inner: bi,
                        op: bop,
                    },
                ) => aop == bop && same(ao, bo) && same(ai, bi),
                _ => false,
            }
    }
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::model::{JoinOpId, ScanOpId};
    use moqo_core::plan::Plan;
    use moqo_core::rmq::{Rmq, RmqConfig};
    use moqo_core::TableId;

    #[test]
    fn rmq_frontiers_pass_and_tampering_is_caught() {
        let model = StubModel::line(6, 2, 11);
        let query = TableSet::prefix(6);
        let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(3));
        for _ in 0..30 {
            rmq.iterate();
        }
        let frontier = rmq.frontier();
        assert!(check_frontier(&frontier, &model, query).is_empty());
        assert!(identical(&frontier, &rmq.frontier()));
        // Wrong query: validation fails.
        assert!(!check_frontier(&frontier, &model, TableSet::prefix(5)).is_empty());
        // A plan costed under another model re-costs to different bits.
        let other = StubModel::line(6, 2, 12);
        assert!(!check_frontier(&frontier, &other, query).is_empty());
        assert!(!check_frontier(&[], &model, query).is_empty());
    }

    #[test]
    fn dominated_members_are_reported() {
        let model = StubModel::line(2, 2, 1);
        let (a, b) = (TableId::new(0), TableId::new(1));
        let scan = |t, op| Plan::scan(&model, t, ScanOpId(op));
        let p = Plan::join(&model, scan(a, 0), scan(b, 0), JoinOpId(0));
        // The same plan twice: equal costs do not strictly dominate.
        assert!(check_frontier(&[p.clone(), p.clone()], &model, TableSet::prefix(2)).is_empty());
        assert!(!identical(std::slice::from_ref(&p), &[scan(a, 0)]));
        // A scan whose stored cost was doubled is dominated by the honest one.
        let honest = scan(a, 0);
        let mut props = model.scan_props(a, ScanOpId(0));
        props.cost = props.cost.scale(2.0);
        let padded = Plan::scan_from_props(a, ScanOpId(0), props);
        let problems = check_frontier(&[honest, padded], &model, TableSet::prefix(1));
        assert!(problems.iter().any(|p| p.contains("strictly dominates")));
        assert!(problems.iter().any(|p| p.contains("re-cost")));
    }
}
