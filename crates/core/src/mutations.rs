//! Local transformation rules for bushy query plans.
//!
//! These are the "standard mutations for bushy query plans" of Steinbrunn et
//! al. that the paper assumes for every node of the plan tree (§4.2):
//!
//! * **operator change** — replace the scan/join implementation;
//! * **commutativity** — `A ⋈ B → B ⋈ A`;
//! * **associativity** — both rotations,
//!   `(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)` and `A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C`;
//! * **left join exchange** — `(A ⋈ B) ⋈ C → (A ⋈ C) ⋈ B`;
//! * **right join exchange** — `A ⋈ (B ⋈ C) → B ⋈ (A ⋈ C)`.
//!
//! Structural rules build new join nodes whose operand formats may differ
//! from the original's; each new join keeps the original operator when it is
//! still applicable and otherwise falls back to the first applicable
//! implementation (operator *diversity* is explored by the dedicated
//! operator-change rule and by `ApproximateFrontiers`, keeping the neighbor
//! count per node `O(r)` as in the paper's complexity analysis §5).
//!
//! All rules operate at the *root* of the given (sub-)plan and share its
//! sub-trees; rebuilding whole-plan neighbors from inner-node mutations is
//! the job of the callers ([`crate::climb`], [`random_neighbor_in`],
//! [`all_neighbors_in`]).

use rand::Rng;

use crate::arena::{PlanArena, PlanId, PlanNodeKind};
use crate::model::{CostModel, JoinOpId, PlanProps, PlanView};

/// Resolves the operator for joining `outer` and `inner`: the first entry
/// of `preferred` that is applicable, falling back to the first applicable
/// implementation. `ops` is a reusable scratch buffer; it is clobbered.
/// Returns `None` if the model offers no applicable operator (contract
/// violation; callers treat it as "rule not applicable").
fn resolve_op<M>(
    model: &M,
    outer: &PlanView,
    inner: &PlanView,
    preferred: &[JoinOpId],
    ops: &mut Vec<JoinOpId>,
) -> Option<JoinOpId>
where
    M: CostModel + ?Sized,
{
    ops.clear();
    model.join_ops(outer, inner, ops);
    preferred
        .iter()
        .find(|p| ops.contains(p))
        .copied()
        .or_else(|| ops.first().copied())
}

/// Joins `outer` and `inner`, preferring `preferred` operators when
/// applicable and falling back to the first applicable implementation.
/// Returns `None` if the model offers no applicable operator (contract
/// violation; callers treat it as "rule not applicable").
pub fn join_preferring_in<M>(
    arena: &mut PlanArena,
    model: &M,
    outer: PlanId,
    inner: PlanId,
    preferred: &[JoinOpId],
) -> Option<PlanId>
where
    M: CostModel + ?Sized,
{
    let mut ops = Vec::new();
    let op = resolve_op(
        model,
        &arena.view(outer),
        &arena.view(inner),
        preferred,
        &mut ops,
    )?;
    Some(arena.join(model, outer, inner, op))
}

/// Which transformation rules local search applies at each node. The paper
/// (§4.1) notes RMQ "can easily be adapted to consider different join order
/// spaces (e.g., left-deep plans) by exchanging the random plan generation
/// method and the set of considered local transformations" — this enum is
/// that second exchange point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MutationSet {
    /// The full bushy-plan rule set (module docs).
    #[default]
    Bushy,
    /// Only rules that preserve left-deep shape: operator changes,
    /// commutativity at the bottom-most join (both children scans), and the
    /// left join exchange `(A ⋈ B) ⋈ C → (A ⋈ C) ⋈ B` (an adjacent
    /// transposition of the join sequence). Adjacent transpositions plus
    /// the bottom swap generate every left-deep order, so the neighborhood
    /// stays connected. Applied to a left-deep plan, every rule yields a
    /// left-deep plan.
    LeftDeep,
}

impl MutationSet {
    /// Enumerates the *structural* root candidates of the join
    /// `outer ⋈[root_op] inner` under this rule set — commutativity,
    /// rotations, and join exchanges, but not operator changes — without
    /// interning any candidate's root node. For each candidate, `f`
    /// receives the arena, the operand plans, the resolved operator
    /// (preferred-then-first-applicable, exactly as [`join_preferring_in`]
    /// picks it), and the root's precomputed [`PlanProps`]; the callback
    /// decides whether to intern, typically by probing a frontier via
    /// `ParetoSet::admit` so that *rejected candidates touch neither the
    /// arena nor the heap*. Intermediate nodes a rotated sub-tree needs are
    /// still interned eagerly (an intern hit when the rotation was seen
    /// before — the common steady-state case — allocates nothing); only the
    /// candidate's root is deferred.
    ///
    /// Candidates are visited in the order [`root_mutations_in`] emits them
    /// (commutativity, outer-child rules, inner-child rules), which callers
    /// rely on for deterministic tie-breaking.
    ///
    /// `ops` is a reusable operator scratch buffer; it is clobbered.
    #[allow(clippy::too_many_arguments)]
    pub fn visit_structural_in<M>(
        self,
        arena: &mut PlanArena,
        outer: PlanId,
        inner: PlanId,
        root_op: JoinOpId,
        model: &M,
        ops: &mut Vec<JoinOpId>,
        f: &mut impl FnMut(&mut PlanArena, PlanId, PlanId, JoinOpId, PlanProps),
    ) where
        M: CostModel + ?Sized,
    {
        fn candidate<M: CostModel + ?Sized>(
            arena: &mut PlanArena,
            model: &M,
            a: PlanId,
            b: PlanId,
            op: JoinOpId,
            f: &mut impl FnMut(&mut PlanArena, PlanId, PlanId, JoinOpId, PlanProps),
        ) {
            // One function so every rule costs its root the same way.
            let props = model.join_props(&arena.view(a), &arena.view(b), op);
            f(arena, a, b, op, props);
        }
        // Intermediate nodes resolve their operator through the shared
        // scratch (same preferred-else-first pick as `join_preferring_in`,
        // without its per-call Vec).
        fn build<M: CostModel + ?Sized>(
            arena: &mut PlanArena,
            model: &M,
            a: PlanId,
            b: PlanId,
            preferred: &[JoinOpId],
            ops: &mut Vec<JoinOpId>,
        ) -> Option<PlanId> {
            let op = resolve_op(model, &arena.view(a), &arena.view(b), preferred, ops)?;
            Some(arena.join(model, a, b, op))
        }
        // Commutativity: B ⋈ A. The left-deep rule set only commutes the
        // bottom-most join (scan outer keeps the tree left-deep).
        let commute = match self {
            MutationSet::Bushy => true,
            MutationSet::LeftDeep => !arena.node(outer).is_join(),
        };
        if commute {
            if let Some(op) = resolve_op(
                model,
                &arena.view(inner),
                &arena.view(outer),
                &[root_op],
                ops,
            ) {
                candidate(arena, model, inner, outer, op, f);
            }
        }
        // Rules consuming the outer child's structure.
        if let PlanNodeKind::Join {
            outer: ll,
            inner: lr,
            op: lop,
        } = arena.node(outer).kind()
        {
            if self == MutationSet::Bushy {
                // Right rotation: (LL ⋈ LR) ⋈ R → LL ⋈ (LR ⋈ R).
                if let Some(new_inner) = build(arena, model, lr, inner, &[root_op, lop], ops) {
                    if let Some(op) = resolve_op(
                        model,
                        &arena.view(ll),
                        &arena.view(new_inner),
                        &[lop, root_op],
                        ops,
                    ) {
                        candidate(arena, model, ll, new_inner, op, f);
                    }
                }
            }
            // Left join exchange: (LL ⋈ LR) ⋈ R → (LL ⋈ R) ⋈ LR (preserves
            // left-deep shape, so both rule sets apply it).
            if let Some(new_outer) = build(arena, model, ll, inner, &[lop, root_op], ops) {
                if let Some(op) = resolve_op(
                    model,
                    &arena.view(new_outer),
                    &arena.view(lr),
                    &[root_op, lop],
                    ops,
                ) {
                    candidate(arena, model, new_outer, lr, op, f);
                }
            }
        }
        // Rules consuming the inner child's structure (bushy only).
        if self == MutationSet::Bushy {
            if let PlanNodeKind::Join {
                outer: rl,
                inner: rr,
                op: rop,
            } = arena.node(inner).kind()
            {
                // Left rotation: L ⋈ (RL ⋈ RR) → (L ⋈ RL) ⋈ RR.
                if let Some(new_outer) = build(arena, model, outer, rl, &[root_op, rop], ops) {
                    if let Some(op) = resolve_op(
                        model,
                        &arena.view(new_outer),
                        &arena.view(rr),
                        &[rop, root_op],
                        ops,
                    ) {
                        candidate(arena, model, new_outer, rr, op, f);
                    }
                }
                // Right join exchange: L ⋈ (RL ⋈ RR) → RL ⋈ (L ⋈ RR).
                if let Some(new_inner) = build(arena, model, outer, rr, &[rop, root_op], ops) {
                    if let Some(op) = resolve_op(
                        model,
                        &arena.view(rl),
                        &arena.view(new_inner),
                        &[root_op, rop],
                        ops,
                    ) {
                        candidate(arena, model, rl, new_inner, op, f);
                    }
                }
            }
        }
    }
}

/// Appends to `out` every neighbor obtainable by one transformation of
/// `mutations` at the root of `p`, interned into `arena`: operator changes
/// first, then the structural rules of [`MutationSet::visit_structural_in`].
/// Sub-trees are shared, not copied. The plan `p` itself is *not* included.
/// The pruning hot path in [`crate::climb`] does not go through here — it
/// visits the same candidates without interning the rejected ones.
pub fn root_mutations_in<M>(
    arena: &mut PlanArena,
    p: PlanId,
    model: &M,
    mutations: MutationSet,
    out: &mut Vec<PlanId>,
) where
    M: CostModel + ?Sized,
{
    match arena.node(p).kind() {
        PlanNodeKind::Scan { table, op } => {
            for &alt in model.scan_ops(table) {
                if alt != op {
                    let id = arena.scan(model, table, alt);
                    out.push(id);
                }
            }
        }
        PlanNodeKind::Join { outer, inner, op } => {
            // Operator change (always shape-preserving).
            let mut ops = Vec::new();
            model.join_ops(&arena.view(outer), &arena.view(inner), &mut ops);
            for &alt in &ops {
                if alt != op {
                    let id = arena.join(model, outer, inner, alt);
                    out.push(id);
                }
            }
            mutations.visit_structural_in(
                arena,
                outer,
                inner,
                op,
                model,
                &mut ops,
                &mut |arena, a, b, jop, props| {
                    let id = arena.join_from_props(a, b, jop, props);
                    out.push(id);
                },
            );
        }
    }
}

/// Rebuilds the plan rooted at `p` with the node at pre-order index
/// `target` (`p` itself is 0) replaced by `replace`'s result, re-joining
/// along the path with the original operators when applicable. Returns
/// `None` if `replace` declines or the index is out of range.
fn rebuild_at_in<M, F>(
    arena: &mut PlanArena,
    p: PlanId,
    model: &M,
    target: usize,
    replace: &mut F,
) -> Option<PlanId>
where
    M: CostModel + ?Sized,
    F: FnMut(&mut PlanArena, PlanId) -> Option<PlanId>,
{
    fn rec<M, F>(
        arena: &mut PlanArena,
        p: PlanId,
        model: &M,
        target: usize,
        next: &mut usize,
        replace: &mut F,
    ) -> Option<Option<PlanId>>
    where
        M: CostModel + ?Sized,
        F: FnMut(&mut PlanArena, PlanId) -> Option<PlanId>,
    {
        let idx = *next;
        *next += 1;
        if idx == target {
            return Some(replace(arena, p));
        }
        if let PlanNodeKind::Join { outer, inner, op } = arena.node(p).kind() {
            if let Some(new_outer) = rec(arena, outer, model, target, next, replace) {
                return Some(
                    new_outer.and_then(|no| join_preferring_in(arena, model, no, inner, &[op])),
                );
            }
            if let Some(new_inner) = rec(arena, inner, model, target, next, replace) {
                return Some(
                    new_inner.and_then(|ni| join_preferring_in(arena, model, outer, ni, &[op])),
                );
            }
        }
        None
    }
    let mut next = 0;
    rec(arena, p, model, target, &mut next, replace).flatten()
}

/// Picks a uniformly random node of `root` and applies a uniformly random
/// applicable bushy transformation there, rebuilding the path to the root
/// (operators along the rebuilt path are kept when applicable). Used by the
/// simulated-annealing baseline, which moves to *one* random neighbor.
///
/// Returns `None` when the chosen node admits no transformation (e.g. a
/// scan with a single scan operator).
pub fn random_neighbor_in<M, R>(
    arena: &mut PlanArena,
    root: PlanId,
    model: &M,
    rng: &mut R,
) -> Option<PlanId>
where
    M: CostModel + ?Sized,
    R: Rng + ?Sized,
{
    let target = rng.random_range(0..arena.node_count(root));
    let mut scratch = Vec::new();
    rebuild_at_in(arena, root, model, target, &mut |arena, node| {
        scratch.clear();
        root_mutations_in(arena, node, model, MutationSet::Bushy, &mut scratch);
        if scratch.is_empty() {
            None
        } else {
            Some(scratch[rng.random_range(0..scratch.len())])
        }
    })
}

/// Enumerates **all** whole-plan neighbors of `root` under `mutations`: for
/// every node in pre-order, every root mutation at that node, rebuilt into
/// a complete plan. This is the neighborhood of the naive hill-climbing
/// variant (§4.2) and of the weighted-sum baseline, and has quadratic cost
/// per step.
pub fn all_neighbors_in<M>(
    arena: &mut PlanArena,
    root: PlanId,
    model: &M,
    mutations: MutationSet,
) -> Vec<PlanId>
where
    M: CostModel + ?Sized,
{
    fn pre_order(arena: &PlanArena, p: PlanId, out: &mut Vec<PlanId>) {
        out.push(p);
        if let PlanNodeKind::Join { outer, inner, .. } = arena.node(p).kind() {
            pre_order(arena, outer, out);
            pre_order(arena, inner, out);
        }
    }
    let mut nodes = Vec::new();
    pre_order(arena, root, &mut nodes);
    let mut result = Vec::new();
    let mut muts = Vec::new();
    for (target, &node) in nodes.iter().enumerate() {
        muts.clear();
        root_mutations_in(arena, node, model, mutations, &mut muts);
        for &m in &muts {
            if let Some(np) = rebuild_at_in(arena, root, model, target, &mut |_, _| Some(m)) {
                result.push(np);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::StubModel;
    use crate::model::{JoinOpId, ScanOpId};
    use crate::random_plan::{random_left_deep_plan_in, random_plan_in};
    use crate::tables::{TableId, TableSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (StubModel, PlanArena, PlanId, TableSet) {
        let m = StubModel::line(n, 2, 3);
        let q = TableSet::prefix(n);
        let mut arena = PlanArena::new();
        let p = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(11));
        (m, arena, p, q)
    }

    /// The operands of a join, `None` for a scan.
    fn children(arena: &PlanArena, p: PlanId) -> Option<(PlanId, PlanId)> {
        match arena.node(p).kind() {
            PlanNodeKind::Join { outer, inner, .. } => Some((outer, inner)),
            PlanNodeKind::Scan { .. } => None,
        }
    }

    /// Whether `p` scans table `t`.
    fn scans(arena: &PlanArena, p: PlanId, t: usize) -> bool {
        arena.node(p).rel() == TableSet::singleton(TableId::new(t))
    }

    fn scan(arena: &mut PlanArena, m: &StubModel, t: usize) -> PlanId {
        arena.scan(m, TableId::new(t), ScanOpId(0))
    }

    #[test]
    fn root_mutations_preserve_table_sets() {
        let (m, mut arena, p, q) = setup(6);
        let mut out = Vec::new();
        root_mutations_in(&mut arena, p, &m, MutationSet::Bushy, &mut out);
        assert!(!out.is_empty());
        for &np in &out {
            assert_eq!(arena.node(np).rel(), q);
            assert!(
                arena.validate(np, q).is_ok(),
                "invalid mutation {}",
                arena.display(np, &m)
            );
        }
    }

    #[test]
    fn scan_mutations_switch_operators() {
        let (m, mut arena, _, _) = setup(2);
        let t = TableId::new(0);
        let s = arena.scan(&m, t, m.scan_ops(t)[0]);
        let mut out = Vec::new();
        root_mutations_in(&mut arena, s, &m, MutationSet::Bushy, &mut out);
        assert_eq!(out.len(), 1, "StubModel has two scan ops");
        assert!(!arena.node(out[0]).is_join());
        assert_ne!(arena.cost(out[0]).as_slice(), arena.cost(s).as_slice());
    }

    #[test]
    fn join_mutations_include_commute_and_op_change() {
        let (m, mut arena, _, _) = setup(2);
        let (s0, s1) = (scan(&mut arena, &m, 0), scan(&mut arena, &m, 1));
        let j = arena.join(&m, s0, s1, JoinOpId(0));
        let mut out = Vec::new();
        root_mutations_in(&mut arena, j, &m, MutationSet::Bushy, &mut out);
        // 2 operator changes (ops 1, 2) + 1 commute = 3 (no rotations on a
        // two-scan join).
        assert_eq!(out.len(), 3);
        let commuted = out
            .iter()
            .filter(|&&p| scans(&arena, children(&arena, p).unwrap().0, 1))
            .count();
        assert!(commuted >= 1, "commutativity neighbor missing");
    }

    #[test]
    fn rotations_change_tree_shape() {
        let (m, mut arena, _, _) = setup(3);
        let (s0, s1, s2) = (
            scan(&mut arena, &m, 0),
            scan(&mut arena, &m, 1),
            scan(&mut arena, &m, 2),
        );
        // (T0 ⋈ T1) ⋈ T2: right rotation must produce T0 ⋈ (T1 ⋈ T2).
        let left = arena.join(&m, s0, s1, JoinOpId(0));
        let root = arena.join(&m, left, s2, JoinOpId(0));
        let mut out = Vec::new();
        root_mutations_in(&mut arena, root, &m, MutationSet::Bushy, &mut out);
        let rotated = out.iter().any(|&p| {
            let (o, i) = children(&arena, p).unwrap();
            scans(&arena, o, 0) && arena.node(i).is_join()
        });
        assert!(rotated, "right rotation missing from neighborhood");
        // Left join exchange must produce (T0 ⋈ T2) ⋈ T1.
        let exchanged = out.iter().any(|&p| {
            let (o, i) = children(&arena, p).unwrap();
            scans(&arena, i, 1) && arena.node(o).is_join()
        });
        assert!(exchanged, "left join exchange missing from neighborhood");
    }

    #[test]
    fn random_neighbor_is_valid_and_differs() {
        let (m, mut arena, p, q) = setup(10);
        let mut rng = StdRng::seed_from_u64(19);
        let mut changed = 0;
        for _ in 0..50 {
            if let Some(nb) = random_neighbor_in(&mut arena, p, &m, &mut rng) {
                assert!(arena.validate(nb, q).is_ok());
                if nb != p {
                    changed += 1;
                }
            }
        }
        assert!(changed > 30, "random neighbors rarely differ: {changed}/50");
    }

    #[test]
    fn all_neighbors_are_valid_full_plans() {
        let (m, mut arena, p, q) = setup(6);
        let neighbors = all_neighbors_in(&mut arena, p, &m, MutationSet::Bushy);
        assert!(!neighbors.is_empty());
        for &nb in &neighbors {
            assert!(arena.validate(nb, q).is_ok());
        }
        // Neighborhood size grows with plan size: at least one mutation per
        // scan node (operator change) plus join mutations.
        assert!(
            neighbors.len() >= 6,
            "too few neighbors: {}",
            neighbors.len()
        );
    }

    #[test]
    fn all_neighbors_contains_root_mutations() {
        let (m, mut arena, p, _) = setup(5);
        let mut root_only = Vec::new();
        root_mutations_in(&mut arena, p, &m, MutationSet::Bushy, &mut root_only);
        let neighbors = all_neighbors_in(&mut arena, p, &m, MutationSet::Bushy);
        // Hash-consing: the same plan is the same id.
        for rm in &root_only {
            assert!(
                neighbors.contains(rm),
                "root mutation missing from all_neighbors_in"
            );
        }
    }

    #[test]
    fn left_deep_mutations_preserve_shape_and_tables() {
        let m = StubModel::line(7, 2, 5);
        let q = TableSet::prefix(7);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let p = random_left_deep_plan_in(&mut arena, &m, q, &mut rng);
            assert!(arena.is_left_deep(p));
            let mut out = Vec::new();
            root_mutations_in(&mut arena, p, &m, MutationSet::LeftDeep, &mut out);
            assert!(!out.is_empty());
            // So is every whole-plan neighbor under the left-deep rules.
            out.extend(all_neighbors_in(&mut arena, p, &m, MutationSet::LeftDeep));
            for &np in &out {
                assert_eq!(arena.node(np).rel(), q);
                assert!(
                    arena.is_left_deep(np),
                    "mutation broke shape: {}",
                    arena.display(np, &m)
                );
                assert!(arena.validate(np, q).is_ok());
            }
        }
    }

    #[test]
    fn left_deep_exchange_swaps_last_two_tables() {
        let m = StubModel::line(3, 2, 3);
        let mut arena = PlanArena::new();
        let (s0, s1, s2) = (
            scan(&mut arena, &m, 0),
            scan(&mut arena, &m, 1),
            scan(&mut arena, &m, 2),
        );
        // (T0 ⋈ T1) ⋈ T2 → the exchange must yield (T0 ⋈ T2) ⋈ T1.
        let bottom = arena.join(&m, s0, s1, JoinOpId(0));
        let root = arena.join(&m, bottom, s2, JoinOpId(0));
        let mut out = Vec::new();
        root_mutations_in(&mut arena, root, &m, MutationSet::LeftDeep, &mut out);
        let exchanged = out.iter().any(|&p| {
            let (o, i) = children(&arena, p).unwrap();
            scans(&arena, i, 1) && children(&arena, o).is_some_and(|(_, oi)| scans(&arena, oi, 2))
        });
        assert!(exchanged, "left-deep exchange missing");
        // No mutation commutes the *root* (T2 cannot become the outer of a
        // left-deep root unless the other side is a scan).
        for &p in &out {
            assert!(arena.is_left_deep(p));
        }
    }

    #[test]
    fn bottom_commute_is_the_only_left_deep_swap_at_depth_two() {
        let m = StubModel::line(2, 2, 3);
        let mut arena = PlanArena::new();
        let (s0, s1) = (scan(&mut arena, &m, 0), scan(&mut arena, &m, 1));
        let j = arena.join(&m, s0, s1, JoinOpId(0));
        let mut out = Vec::new();
        root_mutations_in(&mut arena, j, &m, MutationSet::LeftDeep, &mut out);
        let commuted = out
            .iter()
            .filter(|&&p| scans(&arena, children(&arena, p).unwrap().0, 1))
            .count();
        assert!(commuted >= 1, "bottom commutativity missing");
    }

    #[test]
    fn left_deep_rules_are_a_subset_of_bushy_rules() {
        let (m, mut arena, _, q) = setup(5);
        let ld = random_left_deep_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(3));
        let mut bushy = Vec::new();
        root_mutations_in(&mut arena, ld, &m, MutationSet::Bushy, &mut bushy);
        let mut left_deep = Vec::new();
        root_mutations_in(&mut arena, ld, &m, MutationSet::LeftDeep, &mut left_deep);
        assert!(left_deep.len() < bushy.len());
        assert!(left_deep.iter().all(|id| bushy.contains(id)));
    }
}
