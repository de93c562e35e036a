//! `ApproximateFrontiers` (Algorithm 3): Pareto frontier approximation for
//! every intermediate result of a locally optimal plan.
//!
//! Given the plan produced by hill climbing, the function traverses its join
//! tree in post-order and approximates, for each intermediate result,
//! the Pareto frontier over (a) every operator combination for that join
//! order and (b) every non-dominated partial plan already cached for the
//! same intermediate result — cached plans may use *different join orders*
//! discovered in earlier iterations, which is how information is shared
//! across iterations of the main loop (§4.3).
//!
//! The per-table-set frontiers are pruned under a caller-supplied
//! [`Admission`] — typically per-metric approximate pruning whose factors
//! start coarse and are refined as iterations progress
//! (`α(i) = 25 · 0.99^⌊i/25⌋`, clamped below at 1; see
//! [`EpsSchedule`](crate::archive::EpsSchedule) and
//! [`ArchiveConfig`](crate::archive::ArchiveConfig), which derive the
//! admission per iteration). Coarse early precision keeps the dominant-cost
//! frontier approximation cheap while many join orders are still being
//! explored; late fine precision converges the cached frontiers towards the
//! true Pareto sets.

use crate::archive::Admission;
use crate::arena::{PlanArena, PlanId, PlanNodeKind};
use crate::cache::PlanCache;
use crate::model::{CostModel, JoinOpId, PlanProps};
use crate::plan::{Plan, PlanKind, PlanRef};
use crate::tables::TableSet;

/// Reusable buffers of the frontier approximation: the operand frontier
/// snapshots (copied out because the cache is mutated while the pairs are
/// combined), the per-pair operator list, and the batch-costing output
/// parallel to it. One scratch serves a whole traversal — the recursion
/// uses the buffers transiently between recursive calls — and the RMQ main
/// loop reuses one across iterations, so in steady state the traversal
/// allocates only where an admitted plan grows a cached frontier or the
/// arena. Nothing in here carries meaning from one call to the next.
///
/// Generic over the plan handle like [`PlanCache`]: the arena traversal
/// ([`approximate_frontiers_in`]) snapshots `Copy` [`PlanId`]s instead of
/// bumping `Arc` refcounts.
#[derive(Debug)]
pub struct FrontierScratch<P = PlanRef> {
    outer_plans: Vec<P>,
    inner_plans: Vec<P>,
    ops: Vec<JoinOpId>,
    /// `CostModel::join_props_all` output, parallel to `ops` (arena path).
    props: Vec<PlanProps>,
}

impl<P> Default for FrontierScratch<P> {
    fn default() -> Self {
        FrontierScratch {
            outer_plans: Vec::new(),
            inner_plans: Vec::new(),
            ops: Vec::new(),
            props: Vec::new(),
        }
    }
}

/// Approximates the Pareto frontiers of all intermediate results occurring
/// in `p`, inserting the non-dominated partial plans into `cache` under the
/// given admission (Algorithm 3, with the precision choice hoisted to the
/// caller so the same code serves the ablation schedules and the ε-box
/// archive policy).
pub fn approximate_frontiers<M>(
    p: &PlanRef,
    model: &M,
    cache: &mut PlanCache,
    admission: &Admission,
) where
    M: CostModel + ?Sized,
{
    approximate_frontiers_with(p, model, cache, admission, &mut FrontierScratch::default())
}

/// [`approximate_frontiers`] with caller-provided scratch buffers.
///
/// Candidate partial plans are costed first and admission-tested against
/// the cached frontier ([`PlanCache::insert_with`]); the `Arc<Plan>` is
/// only allocated for the candidates that survive pruning, which under a
/// coarse α is a small fraction of the operator combinations enumerated.
pub fn approximate_frontiers_with<M>(
    p: &PlanRef,
    model: &M,
    cache: &mut PlanCache,
    admission: &Admission,
    scratch: &mut FrontierScratch,
) where
    M: CostModel + ?Sized,
{
    match p.kind() {
        PlanKind::Scan { table, .. } => {
            let rel = TableSet::singleton(*table);
            for &op in model.scan_ops(*table) {
                let props = model.scan_props(*table, op);
                cache.insert_with(rel, &props.cost, props.format, admission, || {
                    Plan::scan_from_props(*table, op, props)
                });
            }
        }
        PlanKind::Join { outer, inner, .. } => {
            // Approximate the operand frontiers first (post-order; both
            // recursive calls finish before this level uses the scratch).
            approximate_frontiers_with(outer, model, cache, admission, scratch);
            approximate_frontiers_with(inner, model, cache, admission, scratch);
            // Combine every cached outer/inner Pareto plan pair with every
            // applicable join operator. The cached plans may stem from
            // other join orders found in earlier iterations.
            let FrontierScratch {
                outer_plans,
                inner_plans,
                ops,
                ..
            } = scratch;
            outer_plans.clear();
            outer_plans.extend_from_slice(cache.frontier(outer.rel()));
            inner_plans.clear();
            inner_plans.extend_from_slice(cache.frontier(inner.rel()));
            for o in outer_plans.iter() {
                // Views are hoisted out of the candidate loops: one copy
                // per operand pair, reused across every operator.
                let vo = o.view();
                for i in inner_plans.iter() {
                    let vi = i.view();
                    ops.clear();
                    model.join_ops(vo, vi, ops);
                    let rel = o.rel().union(i.rel());
                    for &op in ops.iter() {
                        let props = model.join_props(vo, vi, op);
                        cache.insert_with(rel, &props.cost, props.format, admission, || {
                            Plan::join_from_props(o.clone(), i.clone(), op, props)
                        });
                    }
                }
            }
        }
    }
}

/// Arena analogue of [`approximate_frontiers_with`]: identical traversal
/// order and pruning decisions over a `PlanCache<PlanId>` keyed into
/// `arena`. Admitted candidates intern their root; rejected ones allocate
/// nothing (and on an intern hit even admission is allocation-free).
pub fn approximate_frontiers_in<M>(
    arena: &mut PlanArena,
    p: PlanId,
    model: &M,
    cache: &mut PlanCache<PlanId>,
    admission: &Admission,
    scratch: &mut FrontierScratch<PlanId>,
) where
    M: CostModel + ?Sized,
{
    match arena.node(p).kind() {
        PlanNodeKind::Scan { table, .. } => {
            let mut slot = cache.slot(TableSet::singleton(table));
            for &op in model.scan_ops(table) {
                let props = model.scan_props(table, op);
                slot.insert_with(&props.cost, props.format, admission, || {
                    arena.scan_from_props(table, op, props)
                });
            }
        }
        PlanNodeKind::Join { outer, inner, .. } => {
            // Post-order: operand frontiers first.
            approximate_frontiers_in(arena, outer, model, cache, admission, scratch);
            approximate_frontiers_in(arena, inner, model, cache, admission, scratch);
            let FrontierScratch {
                outer_plans,
                inner_plans,
                ops,
                props,
            } = scratch;
            let (outer_rel, inner_rel) = (arena.node(outer).rel(), arena.node(inner).rel());
            outer_plans.clear();
            outer_plans.extend_from_slice(cache.frontier(outer_rel));
            inner_plans.clear();
            inner_plans.extend_from_slice(cache.frontier(inner_rel));
            // Every candidate of this node lands in one table set: open
            // its frontier once for all of them.
            let mut slot = cache.slot(outer_rel.union(inner_rel));
            for &o in outer_plans.iter() {
                // One view copy per operand pair, reused across operators.
                let vo = arena.view(o);
                for &i in inner_plans.iter() {
                    let vi = arena.view(i);
                    ops.clear();
                    model.join_ops(&vo, &vi, ops);
                    // The pair is costed through the model, once for all
                    // its operators, not via an intern-map probe: in a
                    // session-sized arena the probe is a cache-missing hash
                    // lookup, measurably slower than recomputing
                    // L1-resident model math. Interning happens only on
                    // admission (the rare path), where it replaces the old
                    // Arc allocation.
                    props.clear();
                    model.join_props_all(&vo, &vi, ops, props);
                    for (&op, &props) in ops.iter().zip(props.iter()) {
                        slot.insert_with(&props.cost, props.format, admission, || {
                            arena.join_from_props(o, i, op, props)
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climb::{pareto_climb, ClimbConfig};
    use crate::model::testing::StubModel;
    use crate::random_plan::random_plan;
    use crate::tables::TableSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frontiers_cover_every_intermediate_result() {
        let m = StubModel::line(6, 2, 3);
        let q = TableSet::prefix(6);
        let p = random_plan(&m, q, &mut StdRng::seed_from_u64(1));
        let mut cache = PlanCache::new();
        approximate_frontiers(&p, &m, &mut cache, &Admission::exact());
        // Every node of p has a non-empty cached frontier.
        p.visit_post_order(&mut |node| {
            assert!(
                !cache.frontier(node.rel()).is_empty(),
                "no frontier for {}",
                node.rel()
            );
        });
        assert!(cache.check_invariant());
        // A plan with n tables has 2n-1 nodes but n leaf rels may repeat
        // only if tables repeat (they don't): distinct rel count = 2n-1.
        assert_eq!(cache.num_table_sets(), 11);
    }

    #[test]
    fn cached_root_plans_are_valid_and_include_tradeoffs() {
        let m = StubModel::line(5, 2, 7);
        let q = TableSet::prefix(5);
        let p = random_plan(&m, q, &mut StdRng::seed_from_u64(2));
        let mut cache = PlanCache::new();
        approximate_frontiers(&p, &m, &mut cache, &Admission::exact());
        let frontier = cache.frontier(q);
        assert!(!frontier.is_empty());
        for plan in frontier {
            assert!(plan.validate(q).is_ok());
        }
        // With exact pruning and StubModel's antagonistic operators, the
        // root frontier should retain more than one tradeoff.
        assert!(
            frontier.len() >= 2,
            "expected multiple tradeoffs, got {}",
            frontier.len()
        );
    }

    #[test]
    fn coarser_alpha_yields_no_larger_frontiers() {
        let m = StubModel::line(6, 3, 9);
        let q = TableSet::prefix(6);
        let p = random_plan(&m, q, &mut StdRng::seed_from_u64(3));
        let mut fine = PlanCache::new();
        approximate_frontiers(&p, &m, &mut fine, &Admission::exact());
        let mut coarse = PlanCache::new();
        approximate_frontiers(&p, &m, &mut coarse, &Admission::approx(10.0));
        assert!(
            coarse.frontier(q).len() <= fine.frontier(q).len(),
            "coarse {} > fine {}",
            coarse.frontier(q).len(),
            fine.frontier(q).len()
        );
        assert!(coarse.total_plans() <= fine.total_plans());
    }

    #[test]
    fn repeated_invocations_reuse_cached_partial_plans() {
        // Running the approximation for a *different* plan over the same
        // tables must consider (and possibly keep) plans cached earlier:
        // the root frontier never regresses across iterations.
        let m = StubModel::line(6, 2, 11);
        let q = TableSet::prefix(6);
        let mut rng = StdRng::seed_from_u64(4);
        let mut cache = PlanCache::new();
        let cfg = ClimbConfig::default();
        let mut prev_len = 0usize;
        for _ in 0..5 {
            let p = random_plan(&m, q, &mut rng);
            let (opt, _) = pareto_climb(p, &m, &cfg);
            approximate_frontiers(&opt, &m, &mut cache, &Admission::exact());
            let len = cache.frontier(q).len();
            assert!(len >= prev_len.min(len)); // never empty once filled
            prev_len = len;
            assert!(!cache.frontier(q).is_empty());
        }
        assert!(cache.check_invariant());
    }
}
