//! Uniform random bushy plan generation in `O(n)` (Lemma 1).
//!
//! `RandomPlan` in Algorithm 1 samples a random bushy query plan: a uniform
//! random binary tree whose leaves are a random permutation of the query
//! tables, with operators drawn uniformly among the applicable
//! implementations. The paper cites Quiroz's linear-time random tree
//! generation; we use Rémy's classic algorithm, which grows a uniform
//! leaf-labelled binary tree by repeatedly splitting a uniformly chosen node
//! — also `O(n)` and uniform over leaf-labelled tree shapes.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::arena::{PlanArena, PlanId};
use crate::model::CostModel;
use crate::tables::{TableId, TableSet};

#[derive(Clone, Copy)]
enum RNode {
    Leaf,
    Internal { left: usize, right: usize },
}

/// Draws the randomness of one uniform bushy plan: the shuffled table
/// order and the Rémy tree shape. Operators are drawn afterwards, leaf by
/// leaf in tree order, so a given seed always yields the same plan.
fn random_shape<R>(query: TableSet, rng: &mut R) -> (Vec<TableId>, Vec<RNode>, usize)
where
    R: Rng + ?Sized,
{
    let mut tables: Vec<TableId> = query.iter().collect();
    assert!(!tables.is_empty(), "cannot plan an empty query");
    tables.shuffle(rng);
    let n = tables.len();

    if n == 1 {
        return (tables, Vec::new(), 0);
    }

    // Rémy's algorithm: grow a uniform binary tree with n leaves.
    let mut nodes: Vec<RNode> = Vec::with_capacity(2 * n - 1);
    let mut parent: Vec<usize> = Vec::with_capacity(2 * n - 1);
    const NO_PARENT: usize = usize::MAX;
    nodes.push(RNode::Leaf);
    parent.push(NO_PARENT);
    let mut root = 0usize;

    for _ in 1..n {
        // Choose a uniform existing node to split.
        let v = rng.random_range(0..nodes.len());
        let leaf = nodes.len();
        nodes.push(RNode::Leaf);
        parent.push(NO_PARENT);
        let internal = nodes.len();
        let (left, right) = if rng.random_bool(0.5) {
            (v, leaf)
        } else {
            (leaf, v)
        };
        nodes.push(RNode::Internal { left, right });
        parent.push(parent[v]);

        let p = parent[v];
        if p == NO_PARENT {
            root = internal;
        } else if let RNode::Internal {
            ref mut left,
            ref mut right,
        } = nodes[p]
        {
            if *left == v {
                *left = internal;
            } else {
                debug_assert_eq!(*right, v);
                *right = internal;
            }
        }
        parent[v] = internal;
        parent[leaf] = internal;
    }
    (tables, nodes, root)
}

/// Generates a uniform random bushy plan for `query` under `model`,
/// interned into `arena` (already-seen subplans are intern hits).
///
/// # Panics
/// Panics if `query` is empty.
pub fn random_plan_in<M, R>(
    arena: &mut PlanArena,
    model: &M,
    query: TableSet,
    rng: &mut R,
) -> PlanId
where
    M: CostModel + ?Sized,
    R: Rng + ?Sized,
{
    let (tables, nodes, root) = random_shape(query, rng);
    if tables.len() == 1 {
        return random_scan_in(arena, model, tables[0], rng);
    }
    let mut next_table = 0usize;
    build_in(arena, model, &nodes, root, &tables, &mut next_table, rng)
}

#[allow(clippy::too_many_arguments)]
fn build_in<M, R>(
    arena: &mut PlanArena,
    model: &M,
    nodes: &[RNode],
    idx: usize,
    tables: &[TableId],
    next_table: &mut usize,
    rng: &mut R,
) -> PlanId
where
    M: CostModel + ?Sized,
    R: Rng + ?Sized,
{
    match nodes[idx] {
        RNode::Leaf => {
            let t = tables[*next_table];
            *next_table += 1;
            random_scan_in(arena, model, t, rng)
        }
        RNode::Internal { left, right } => {
            let outer = build_in(arena, model, nodes, left, tables, next_table, rng);
            let inner = build_in(arena, model, nodes, right, tables, next_table, rng);
            random_join_in(arena, model, outer, inner, rng)
        }
    }
}

/// Interns a scan of `table` with a uniformly chosen scan operator.
pub fn random_scan_in<M, R>(arena: &mut PlanArena, model: &M, table: TableId, rng: &mut R) -> PlanId
where
    M: CostModel + ?Sized,
    R: Rng + ?Sized,
{
    let ops = model.scan_ops(table);
    assert!(!ops.is_empty(), "model must offer a scan operator");
    let op = ops[rng.random_range(0..ops.len())];
    arena.scan(model, table, op)
}

/// Joins two interned plans with a uniformly chosen applicable join
/// operator.
///
/// # Panics
/// Panics if the model offers no applicable join operator (a violation of
/// the [`CostModel`] contract).
pub fn random_join_in<M, R>(
    arena: &mut PlanArena,
    model: &M,
    outer: PlanId,
    inner: PlanId,
    rng: &mut R,
) -> PlanId
where
    M: CostModel + ?Sized,
    R: Rng + ?Sized,
{
    let mut ops = Vec::new();
    model.join_ops(&arena.view(outer), &arena.view(inner), &mut ops);
    assert!(
        !ops.is_empty(),
        "model must offer a join operator for every operand format pair"
    );
    let op = ops[rng.random_range(0..ops.len())];
    arena.join(model, outer, inner, op)
}

/// Generates a random **left-deep** plan: the paper notes (§4.1) that the
/// algorithm adapts to restricted join-order spaces by exchanging the random
/// plan generator; this is the standard alternative space.
pub fn random_left_deep_plan_in<M, R>(
    arena: &mut PlanArena,
    model: &M,
    query: TableSet,
    rng: &mut R,
) -> PlanId
where
    M: CostModel + ?Sized,
    R: Rng + ?Sized,
{
    let mut tables: Vec<TableId> = query.iter().collect();
    assert!(!tables.is_empty(), "cannot plan an empty query");
    tables.shuffle(rng);
    let mut plan = random_scan_in(arena, model, tables[0], rng);
    for &t in &tables[1..] {
        let scan = random_scan_in(arena, model, t, rng);
        plan = random_join_in(arena, model, plan, scan, rng);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PlanNodeKind;
    use crate::model::testing::StubModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_table_yields_scan() {
        let m = StubModel::line(1, 2, 1);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_plan_in(&mut arena, &m, TableSet::prefix(1), &mut rng);
        assert!(!arena.node(p).is_join());
        assert!(arena.validate(p, TableSet::prefix(1)).is_ok());
    }

    #[test]
    fn plans_are_structurally_valid() {
        let m = StubModel::line(12, 2, 1);
        let q = TableSet::prefix(12);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let p = random_plan_in(&mut arena, &m, q, &mut rng);
            assert!(arena.validate(p, q).is_ok());
            assert_eq!(arena.node_count(p), 2 * 12 - 1);
        }
    }

    #[test]
    fn subsets_of_tables_are_respected() {
        let m = StubModel::line(8, 2, 1);
        let q = TableSet::from_bits(0b1010_1010);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(3);
        let p = random_plan_in(&mut arena, &m, q, &mut rng);
        assert!(arena.validate(p, q).is_ok());
        assert_eq!(arena.node(p).rel(), q);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let m = StubModel::line(10, 2, 1);
        let q = TableSet::prefix(10);
        let (mut a, mut b) = (PlanArena::new(), PlanArena::new());
        let pa = random_plan_in(&mut a, &m, q, &mut StdRng::seed_from_u64(42));
        let pb = random_plan_in(&mut b, &m, q, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.display(pa, &m), b.display(pb, &m));
        assert_eq!(a.cost(pa).as_slice(), b.cost(pb).as_slice());
    }

    #[test]
    fn tree_shapes_are_spread_out() {
        // For 4 leaves there are 5 binary tree shapes; a uniform sampler
        // must produce several distinct shapes (and left-deep trees must not
        // absorb all the mass).
        let m = StubModel::line(4, 1, 1);
        let q = TableSet::prefix(4);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut shapes = std::collections::HashSet::new();
        let mut bushy = 0usize;
        for _ in 0..200 {
            let p = random_plan_in(&mut arena, &m, q, &mut rng);
            shapes.insert(shape_string(&arena, p));
            if arena.depth(p) == 3 {
                bushy += 1; // balanced shape: depth 3 instead of 4
            }
        }
        assert!(shapes.len() >= 4, "only {} shapes observed", shapes.len());
        assert!(bushy > 10, "balanced shapes too rare: {bushy}/200");
    }

    fn shape_string(arena: &PlanArena, p: PlanId) -> String {
        match arena.node(p).kind() {
            PlanNodeKind::Scan { .. } => "L".into(),
            PlanNodeKind::Join { outer, inner, .. } => {
                format!(
                    "({}{})",
                    shape_string(arena, outer),
                    shape_string(arena, inner)
                )
            }
        }
    }

    #[test]
    fn left_deep_plans_have_scan_inners() {
        let m = StubModel::line(9, 2, 1);
        let q = TableSet::prefix(9);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(5);
        let p = random_left_deep_plan_in(&mut arena, &m, q, &mut rng);
        assert!(arena.validate(p, q).is_ok());
        let mut node = p;
        while let PlanNodeKind::Join { outer, inner, .. } = arena.node(node).kind() {
            assert!(
                !arena.node(inner).is_join(),
                "left-deep plan has a join inner"
            );
            node = outer;
        }
    }

    #[test]
    fn leaf_labels_are_shuffled() {
        // Two different seeds should (almost surely) produce different
        // table orders for a 10-table query.
        let m = StubModel::line(10, 2, 1);
        let q = TableSet::prefix(10);
        let mut arena = PlanArena::new();
        let a = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(1));
        let b = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(2));
        assert_ne!(arena.display(a, &m), arena.display(b, &m));
    }
}
