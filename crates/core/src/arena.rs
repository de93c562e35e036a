//! Hash-consed, append-only plan arena: the optimizer-internal plan
//! representation.
//!
//! The RMQ main loop spends its whole budget generating, mutating and
//! pruning plan trees, so plan representation is the hot allocation path
//! under every climbing step. [`PlanArena`] replaces per-node `Arc<Plan>`
//! allocation with **interning**: every structurally distinct node —
//! `Scan(table, op)` or `Join(outer, inner, op)` over already-interned
//! children — is stored exactly once in a contiguous `Vec<PlanNode>` and
//! addressed by a dense [`PlanId`] (`u32`). Consequences:
//!
//! * **clones are `Copy`** — passing a plan around is copying an integer;
//! * **structural equality is integer equality** — two plans built in the
//!   same arena are structurally identical iff their `PlanId`s are equal
//!   (hash-consing canonicalizes bottom-up), so cache keys and dedup checks
//!   never walk trees;
//! * **traversal is index-chasing** over one contiguous allocation instead
//!   of pointer-chasing individually allocated `Arc`s;
//! * **re-deriving a subplan is free** — climbing steps and the frontier
//!   approximation rediscover the same subplans constantly; an intern hit
//!   costs one hash probe and allocates nothing.
//!
//! Costs are stored apart from the nodes, in one `Vec<f64>` with one stride
//! of the session's cost dimension per node (fixed by the first intern), so
//! a node costs its 48-byte [`PlanNode`] plus `8 · dim` bytes rather than an
//! inline [`MAX_COST_DIM`](crate::cost::MAX_COST_DIM)-slot vector.
//! [`PlanArena::cost`], [`PlanArena::view`] and [`PlanArena::props`] rebuild
//! the [`CostVector`] value on demand.
//!
//! # Interning rules
//!
//! A node's identity is its *structure*: `(table, op)` for scans,
//! `(outer_id, inner_id, op)` for joins. Derived properties (cost vector,
//! cardinality, pages, format) are **not** part of the key — they are a
//! function of the structure under the session's cost model, which is why
//! an arena must only ever be used with one model (debug builds assert that
//! an intern hit's cached properties match the candidate's).
//!
//! # Lifetime & eviction contract
//!
//! The arena is **append-only**: a `PlanId` stays valid for the lifetime of
//! its arena, and ids are meaningless across arenas. The intended usage is
//! *per-session* arenas (one per optimizer instance, `Send` but not shared),
//! dropped wholesale with their session — eviction is free because nothing
//! outlives the optimizer. State that must survive a session (result plans,
//! the service's cross-query cache) crosses the boundary through
//! [`PlanArena::export`]/[`PlanArena::import`] (the `Arc<Plan>` boundary
//! format) or [`PlanArena::adopt`] (direct arena-to-arena re-interning,
//! used to keep a climb's local optimum past its transient arena).

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::fmt::Write as _;

use crate::cost::CostVector;
use crate::fxhash::FxHashMap;
use crate::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
use crate::plan::{Plan, PlanError, PlanKind, PlanRef};
use crate::tables::{TableId, TableSet};

/// Handle to an interned plan node: a dense index into its [`PlanArena`].
///
/// `PlanId`s are `Copy`, 4 bytes, and totally ordered by insertion time
/// (an id never references a larger id, so iterating `0..len` is a valid
/// bottom-up traversal of every plan in the arena). Ids are only meaningful
/// relative to the arena that issued them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PlanId(u32);

impl PlanId {
    /// The dense index of this node within its arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The structural variant of an interned node: leaf scan or inner join with
/// child [`PlanId`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanNodeKind {
    /// `ScanPlan(table, op)` — scans one base table.
    Scan {
        /// The scanned base table.
        table: TableId,
        /// The scan operator implementation.
        op: ScanOpId,
    },
    /// `JoinPlan(outer, inner, op)` — joins two interned sub-plans.
    Join {
        /// The outer (left) input plan.
        outer: PlanId,
        /// The inner (right) input plan.
        inner: PlanId,
        /// The join operator implementation.
        op: JoinOpId,
    },
}

/// An interned plan node: structure plus the derived properties cached at
/// interning time (the arena analogue of [`Plan`]). The node's cost vector
/// lives in the arena's cost array ([`PlanArena::cost`]).
#[derive(Clone, Copy, Debug)]
pub struct PlanNode {
    kind: PlanNodeKind,
    rel: TableSet,
    rows: f64,
    pages: f64,
    format: OutputFormat,
}

impl PlanNode {
    /// The structural variant.
    #[inline]
    pub fn kind(&self) -> PlanNodeKind {
        self.kind
    }

    /// The set of tables joined by the node (`p.rel`).
    #[inline]
    pub fn rel(&self) -> TableSet {
        self.rel
    }

    /// Estimated output cardinality in rows.
    #[inline]
    pub fn rows(&self) -> f64 {
        self.rows
    }

    /// Estimated output size in pages.
    #[inline]
    pub fn pages(&self) -> f64 {
        self.pages
    }

    /// The output data format.
    #[inline]
    pub fn format(&self) -> OutputFormat {
        self.format
    }

    /// `p.isJoin`: true iff this is a join node.
    #[inline]
    pub fn is_join(&self) -> bool {
        matches!(self.kind, PlanNodeKind::Join { .. })
    }
}

/// Interning statistics (reported by the perf-baseline harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct ArenaStats {
    /// Interned (distinct) nodes currently stored — the arena occupancy.
    pub nodes: usize,
    /// Intern requests answered by an existing node (no allocation).
    pub dedup_hits: u64,
    /// Intern requests that appended a new node.
    pub misses: u64,
}

impl ArenaStats {
    /// Fraction of intern requests deduplicated against an existing node.
    pub fn dedup_rate(&self) -> f64 {
        let total = self.dedup_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / total as f64
        }
    }
}

/// The memo of [`PlanArena::import_memoized`]: imported tree roots by `Arc`
/// address. Each entry holds its `Arc`, so an address cannot be reused by
/// another plan while the memo knows it.
#[derive(Debug, Default)]
pub struct ImportMemo {
    seen: FxHashMap<usize, (PlanRef, PlanId)>,
}

/// The hash-consed plan arena (see the module docs for representation,
/// interning rules and the lifetime/eviction contract).
#[derive(Debug, Default)]
pub struct PlanArena {
    nodes: Vec<PlanNode>,
    /// Node costs back to back, `dim` components per node, in node order.
    costs: Vec<f64>,
    /// The cost dimension of every node, fixed by the first intern into an
    /// empty arena.
    dim: usize,
    intern: FxHashMap<PlanNodeKind, PlanId>,
    dedup_hits: u64,
    /// Lifetime count of interned nodes (monotone across [`Self::clear`]).
    interned_total: u64,
    /// Memoized `Arc<Plan>` exports: nodes are immutable, so an export stays
    /// valid forever and repeated frontier snapshots cost one hash probe per
    /// plan instead of rebuilding the tree. `RefCell` keeps [`Self::export`]
    /// callable through `&self` (anytime `frontier()` accessors); the arena
    /// stays `Send` for per-session ownership.
    export_memo: RefCell<FxHashMap<PlanId, PlanRef>>,
}

impl PlanArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PlanArena::default()
    }

    /// Number of interned (distinct) nodes — the arena occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interning statistics snapshot.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            nodes: self.nodes.len(),
            dedup_hits: self.dedup_hits,
            misses: self.interned_total,
        }
    }

    /// Drops every node and invalidates every [`PlanId`] issued so far,
    /// keeping the allocated capacity (and the lifetime dedup counters).
    ///
    /// This is the **transient arena** pattern: scratch plan spaces that are
    /// rebuilt from scratch at a natural boundary — e.g. the RMQ main loop
    /// clears its climb arena every iteration, so the intern map stays small
    /// and cache-resident while the steady state allocates nothing. Plans
    /// that must outlive the clear are moved out first via [`Self::adopt`]
    /// (or [`Self::export`]).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.costs.clear();
        self.intern.clear();
        self.export_memo.get_mut().clear();
    }

    /// The interned node behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was issued by a different arena (index out of range;
    /// a foreign id within range silently aliases — never mix arenas).
    #[inline]
    pub fn node(&self, id: PlanId) -> &PlanNode {
        &self.nodes[id.index()]
    }

    /// The node's cost vector (`p.cost`), rebuilt from the cost array.
    #[inline]
    pub fn cost(&self, id: PlanId) -> CostVector {
        let at = id.index() * self.dim;
        CostVector::new(&self.costs[at..at + self.dim])
    }

    /// The node's properties as the representation-agnostic [`PlanView`]
    /// consumed by [`CostModel`] implementations.
    #[inline]
    pub fn view(&self, id: PlanId) -> PlanView {
        let n = &self.nodes[id.index()];
        PlanView {
            rel: n.rel,
            cost: self.cost(id),
            rows: n.rows,
            pages: n.pages,
            format: n.format,
        }
    }

    /// Interns `kind` with the given derived properties, returning the
    /// canonical id. On a hit the existing id is returned and nothing is
    /// allocated; debug builds assert the cached properties agree with the
    /// candidate's (they must, for a fixed cost model).
    fn intern(&mut self, kind: PlanNodeKind, rel: TableSet, props: PlanProps) -> PlanId {
        // One probe serves the hit and the insert.
        match self.intern.entry(kind) {
            Entry::Occupied(hit) => {
                let id = *hit.get();
                self.dedup_hits += 1;
                debug_assert_eq!(
                    self.cost(id).as_slice(),
                    props.cost.as_slice(),
                    "intern hit disagrees on cost: one arena, one cost model"
                );
                id
            }
            Entry::Vacant(slot) => {
                let id =
                    PlanId(u32::try_from(self.nodes.len()).expect("arena full: > u32::MAX nodes"));
                let cost = props.cost.as_slice();
                if self.nodes.is_empty() {
                    self.dim = cost.len();
                }
                // The cost array's stride depends on it.
                assert_eq!(
                    cost.len(),
                    self.dim,
                    "mixed cost dimensions in one arena: one arena, one cost model"
                );
                self.interned_total += 1;
                self.costs.extend_from_slice(cost);
                self.nodes.push(PlanNode {
                    kind,
                    rel,
                    rows: props.rows,
                    pages: props.pages,
                    format: props.format,
                });
                slot.insert(id);
                id
            }
        }
    }

    /// The canonical id of the scan `(table, op)`, if already interned.
    #[inline]
    pub fn find_scan(&self, table: TableId, op: ScanOpId) -> Option<PlanId> {
        self.intern.get(&PlanNodeKind::Scan { table, op }).copied()
    }

    /// The canonical id of the join `(outer, inner, op)`, if already
    /// interned. Because children are canonical, this single hash probe
    /// answers "has this exact plan been built before?" — the key to
    /// **memoized costing**: a hit's cached properties are exactly what the
    /// cost model would recompute, so hot paths probe here first and skip
    /// the model on revisited candidates.
    #[inline]
    pub fn find_join(&self, outer: PlanId, inner: PlanId, op: JoinOpId) -> Option<PlanId> {
        self.intern
            .get(&PlanNodeKind::Join { outer, inner, op })
            .copied()
    }

    /// The cached derived properties of `id` (cost, rows, pages, format).
    #[inline]
    pub fn props(&self, id: PlanId) -> PlanProps {
        let n = &self.nodes[id.index()];
        PlanProps {
            cost: self.cost(id),
            rows: n.rows,
            pages: n.pages,
            format: n.format,
        }
    }

    /// Interns a scan of `table` with operator `op`, with properties
    /// supplied by `model` (the arena analogue of [`Plan::scan`]). An
    /// already-interned scan skips the model entirely.
    pub fn scan<M: CostModel + ?Sized>(
        &mut self,
        model: &M,
        table: TableId,
        op: ScanOpId,
    ) -> PlanId {
        if let Some(id) = self.find_scan(table, op) {
            self.dedup_hits += 1;
            return id;
        }
        self.scan_from_props(table, op, model.scan_props(table, op))
    }

    /// Interns a scan from properties already computed by a cost model (the
    /// arena analogue of [`Plan::scan_from_props`]; used by the pruning hot
    /// paths, which cost candidates before materializing them).
    pub fn scan_from_props(&mut self, table: TableId, op: ScanOpId, props: PlanProps) -> PlanId {
        debug_assert!(props.cost.is_valid(), "scan produced invalid cost");
        self.intern(
            PlanNodeKind::Scan { table, op },
            TableSet::singleton(table),
            props,
        )
    }

    /// Interns a join of `outer` and `inner` with operator `op`, costing the
    /// node through `model` (the arena analogue of [`Plan::join`]). An
    /// already-interned join skips the model entirely — its cached
    /// properties are what the deterministic model would recompute.
    ///
    /// # Panics
    /// Panics in debug builds if the operand table sets overlap.
    pub fn join<M: CostModel + ?Sized>(
        &mut self,
        model: &M,
        outer: PlanId,
        inner: PlanId,
        op: JoinOpId,
    ) -> PlanId {
        if let Some(id) = self.find_join(outer, inner, op) {
            self.dedup_hits += 1;
            return id;
        }
        let props = model.join_props(&self.view(outer), &self.view(inner), op);
        self.join_from_props(outer, inner, op, props)
    }

    /// Interns a join from properties already computed by a cost model (the
    /// arena analogue of [`Plan::join_from_props`]).
    ///
    /// # Panics
    /// Panics in debug builds if the operand table sets overlap.
    pub fn join_from_props(
        &mut self,
        outer: PlanId,
        inner: PlanId,
        op: JoinOpId,
        props: PlanProps,
    ) -> PlanId {
        let (o_rel, i_rel) = (self.nodes[outer.index()].rel, self.nodes[inner.index()].rel);
        debug_assert!(
            o_rel.is_disjoint(i_rel),
            "join operands overlap: {o_rel} vs {i_rel}"
        );
        debug_assert!(props.cost.is_valid(), "join produced invalid cost");
        self.intern(
            PlanNodeKind::Join { outer, inner, op },
            o_rel.union(i_rel),
            props,
        )
    }

    /// Total number of nodes (scans + joins) in the *tree* rooted at `id`
    /// (shared subtrees are counted once per occurrence, matching
    /// [`Plan::node_count`]).
    pub fn node_count(&self, id: PlanId) -> usize {
        match self.nodes[id.index()].kind {
            PlanNodeKind::Scan { .. } => 1,
            PlanNodeKind::Join { outer, inner, .. } => {
                1 + self.node_count(outer) + self.node_count(inner)
            }
        }
    }

    /// Height of the plan tree rooted at `id` (a single scan has depth 1).
    pub fn depth(&self, id: PlanId) -> usize {
        match self.nodes[id.index()].kind {
            PlanNodeKind::Scan { .. } => 1,
            PlanNodeKind::Join { outer, inner, .. } => 1 + self.depth(outer).max(self.depth(inner)),
        }
    }

    /// Whether the plan rooted at `id` is left-deep (every join's inner
    /// operand is a scan).
    pub fn is_left_deep(&self, id: PlanId) -> bool {
        match self.nodes[id.index()].kind {
            PlanNodeKind::Scan { .. } => true,
            PlanNodeKind::Join { outer, inner, .. } => {
                !self.nodes[inner.index()].is_join() && self.is_left_deep(outer)
            }
        }
    }

    /// Checks structural validity of the plan rooted at `id` against
    /// `query`, mirroring [`Plan::validate`].
    pub fn validate(&self, id: PlanId, query: TableSet) -> Result<(), PlanError> {
        // `Plan::validate` implements the full rule set; export shares
        // structure, so validation cost matches an in-arena traversal.
        self.export(id).validate(query)
    }

    /// Renders the plan rooted at `id` as a compact algebra string (same
    /// format as [`Plan::display`]).
    pub fn display<M: CostModel + ?Sized>(&self, id: PlanId, model: &M) -> String {
        let mut out = String::new();
        self.display_rec(id, model, &mut out);
        out
    }

    fn display_rec<M: CostModel + ?Sized>(&self, id: PlanId, model: &M, out: &mut String) {
        match self.nodes[id.index()].kind {
            PlanNodeKind::Scan { table, op } => {
                let _ = write!(out, "{}[{}]", table, model.scan_op_name(op));
            }
            PlanNodeKind::Join { outer, inner, op } => {
                out.push('(');
                self.display_rec(outer, model, out);
                let _ = write!(out, " ⋈[{}] ", model.join_op_name(op));
                self.display_rec(inner, model, out);
                out.push(')');
            }
        }
    }

    /// Exports the plan rooted at `id` as a shared [`PlanRef`] tree — the
    /// boundary format in which optimizer results, warm starts and exchanged
    /// plans leave an arena and which `exec`, the figure harness and the
    /// metrics consume. Exports are memoized per node, so shared subtrees
    /// are built once and repeated anytime-frontier snapshots cost one hash
    /// probe per plan.
    pub fn export(&self, id: PlanId) -> PlanRef {
        if let Some(hit) = self.export_memo.borrow().get(&id) {
            return hit.clone();
        }
        let props = self.props(id);
        let plan = match self.nodes[id.index()].kind {
            PlanNodeKind::Scan { table, op } => Plan::scan_from_props(table, op, props),
            PlanNodeKind::Join { outer, inner, op } => {
                Plan::join_from_props(self.export(outer), self.export(inner), op, props)
            }
        };
        self.export_memo.borrow_mut().insert(id, plan.clone());
        plan
    }

    /// Imports an `Arc<Plan>` tree, re-interning every node (the inverse of
    /// [`Self::export`]; warm starts enter here).
    /// Shared or repeated subtrees collapse onto their canonical ids. The
    /// plan's cached properties are trusted — it must stem from the same
    /// cost model the arena is used with.
    pub fn import(&mut self, plan: &PlanRef) -> PlanId {
        self.import_rec(plan, &mut None)
    }

    /// [`Self::import`] with a memo that outlives the call: a (sub-)tree whose
    /// root `Arc` the memo has seen costs one probe instead of a walk. Plans
    /// exported from one arena share their sub-trees by `Arc` identity
    /// ([`Self::export`] is memoized per node), so importing a stream of
    /// related plans — a parallel worker absorbing another's survivors —
    /// re-interns each distinct node once. `memo` must only ever be used
    /// with this arena, and not across a [`Self::clear`].
    pub fn import_memoized(&mut self, plan: &PlanRef, memo: &mut ImportMemo) -> PlanId {
        self.import_rec(plan, &mut Some(memo))
    }

    fn import_rec(&mut self, plan: &PlanRef, memo: &mut Option<&mut ImportMemo>) -> PlanId {
        let key = std::sync::Arc::as_ptr(plan) as usize;
        if let Some((_, id)) = memo.as_ref().and_then(|m| m.seen.get(&key)) {
            return *id;
        }
        let props = PlanProps {
            cost: *plan.cost(),
            rows: plan.rows(),
            pages: plan.pages(),
            format: plan.format(),
        };
        let id = match plan.kind() {
            PlanKind::Scan { table, op } => self.scan_from_props(*table, *op, props),
            PlanKind::Join { outer, inner, op } => {
                let o = self.import_rec(outer, memo);
                let i = self.import_rec(inner, memo);
                self.join_from_props(o, i, *op, props)
            }
        };
        if let Some(memo) = memo {
            memo.seen.insert(key, (plan.clone(), id));
        }
        id
    }

    /// Re-interns the plan rooted at `root` of `src` into `self`, returning
    /// the id in `self`. `memo` maps already-adopted `src` ids to their new
    /// ids and may be reused across roots of the same `src`.
    pub fn adopt(
        &mut self,
        src: &PlanArena,
        root: PlanId,
        memo: &mut FxHashMap<PlanId, PlanId>,
    ) -> PlanId {
        if let Some(&hit) = memo.get(&root) {
            return hit;
        }
        let props = src.props(root);
        let id = match src.nodes[root.index()].kind {
            PlanNodeKind::Scan { table, op } => self.scan_from_props(table, op, props),
            PlanNodeKind::Join { outer, inner, op } => {
                let o = self.adopt(src, outer, memo);
                let i = self.adopt(src, inner, memo);
                self.join_from_props(o, i, op, props)
            }
        };
        memo.insert(root, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::StubModel;
    use crate::random_plan::random_plan_in;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interning_dedups_structurally_identical_nodes() {
        let m = StubModel::line(3, 2, 1);
        let mut arena = PlanArena::new();
        let t = TableId::new(0);
        let a = arena.scan(&m, t, ScanOpId(0));
        let b = arena.scan(&m, t, ScanOpId(0));
        assert_eq!(a, b, "identical scans must intern to one id");
        let c = arena.scan(&m, t, ScanOpId(1));
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.stats().dedup_hits, 1);
        assert!(arena.stats().dedup_rate() > 0.0);
    }

    #[test]
    fn join_interning_is_structural_and_bottom_up() {
        let m = StubModel::line(3, 2, 1);
        let mut arena = PlanArena::new();
        let s0 = arena.scan(&m, TableId::new(0), ScanOpId(0));
        let s1 = arena.scan(&m, TableId::new(1), ScanOpId(0));
        let j1 = arena.join(&m, s0, s1, JoinOpId(0));
        let j2 = arena.join(&m, s0, s1, JoinOpId(0));
        assert_eq!(j1, j2);
        // Different operator → different node.
        let j3 = arena.join(&m, s0, s1, JoinOpId(1));
        assert_ne!(j1, j3);
        // Commuted operands → different structure.
        let j4 = arena.join(&m, s1, s0, JoinOpId(0));
        assert_ne!(j1, j4);
        // Children precede parents: a valid bottom-up order is 0..len.
        let node = arena.node(j1);
        if let PlanNodeKind::Join { outer, inner, .. } = node.kind() {
            assert!(outer < j1 && inner < j1);
        } else {
            panic!("expected join");
        }
    }

    #[test]
    fn exported_plans_match_their_nodes() {
        let m = StubModel::line(5, 2, 9);
        let q = TableSet::prefix(5);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let id = random_plan_in(&mut arena, &m, q, &mut rng);
            let plan = arena.export(id);
            assert_eq!(arena.cost(id).as_slice(), plan.cost().as_slice());
            assert_eq!(arena.node(id).rel(), plan.rel());
            assert_eq!(arena.node(id).format(), plan.format());
            assert_eq!(arena.node_count(id), plan.node_count());
            assert_eq!(arena.depth(id), plan.depth());
            assert_eq!(arena.is_left_deep(id), plan.is_left_deep());
            assert_eq!(arena.display(id, &m), plan.display(&m));
        }
    }

    #[test]
    fn export_import_roundtrip_preserves_structure() {
        let m = StubModel::line(6, 2, 5);
        let q = TableSet::prefix(6);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(7);
        let id = random_plan_in(&mut arena, &m, q, &mut rng);
        let exported = arena.export(id);
        assert!(exported.validate(q).is_ok());
        assert_eq!(exported.cost().as_slice(), arena.cost(id).as_slice());
        assert_eq!(arena.display(id, &m), exported.display(&m));
        // Re-importing lands on the same canonical id (hash-consing).
        let back = arena.import(&exported);
        assert_eq!(back, id);
        // Export is memoized: same Arc both times.
        assert!(std::sync::Arc::ptr_eq(&exported, &arena.export(id)));
    }

    #[test]
    fn memoized_import_lands_on_import_s_ids_and_walks_a_known_tree_once() {
        let m = StubModel::line(6, 2, 5);
        let q = TableSet::prefix(6);
        let mut src = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(23);
        let plans: Vec<PlanRef> = (0..6)
            .map(|_| {
                let id = random_plan_in(&mut src, &m, q, &mut rng);
                src.export(id)
            })
            .collect();
        let (mut plain, mut memoized) = (PlanArena::new(), PlanArena::new());
        let mut memo = ImportMemo::default();
        for p in &plans {
            assert_eq!(memoized.import_memoized(p, &mut memo), plain.import(p));
        }
        assert_eq!(memoized.len(), plain.len());
        // A root the memo knows is answered without touching the arena.
        let requests = |a: &PlanArena| a.stats().dedup_hits + a.stats().misses;
        let before = requests(&memoized);
        for p in &plans {
            memoized.import_memoized(p, &mut memo);
        }
        assert_eq!(requests(&memoized), before);
    }

    #[test]
    fn adopt_reinterns_across_arenas() {
        let m = StubModel::line(4, 2, 3);
        let q = TableSet::prefix(4);
        let mut src = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_plan_in(&mut src, &m, q, &mut rng);
        let b = random_plan_in(&mut src, &m, q, &mut rng);
        let mut dst = PlanArena::new();
        let mut memo = FxHashMap::default();
        let a2 = dst.adopt(&src, a, &mut memo);
        let b2 = dst.adopt(&src, b, &mut memo);
        assert_eq!(dst.display(a2, &m), src.display(a, &m));
        assert_eq!(dst.display(b2, &m), src.display(b, &m));
        // The destination holds only nodes reachable from the adopted roots.
        assert!(dst.len() <= src.len());
        assert!(dst.validate(a2, q).is_ok());
        // A second pass through the same memo is pure hits.
        let before = dst.len();
        assert_eq!(dst.adopt(&src, a, &mut memo), a2);
        assert_eq!(dst.adopt(&src, b, &mut memo), b2);
        assert_eq!(dst.len(), before, "memoized roots must not re-intern");
    }

    #[test]
    fn random_plans_dedup_shared_subplans() {
        // Many random plans over few tables share scans (and often low
        // joins): the arena must stay far smaller than the total node count.
        let m = StubModel::line(6, 2, 1);
        let q = TableSet::prefix(6);
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut total_nodes = 0usize;
        for _ in 0..100 {
            let id = random_plan_in(&mut arena, &m, q, &mut rng);
            total_nodes += arena.node_count(id);
        }
        assert!(
            arena.len() < total_nodes / 2,
            "interning barely dedups: {} arena nodes vs {} tree nodes",
            arena.len(),
            total_nodes
        );
        assert!(arena.stats().dedup_rate() > 0.3);
    }

    #[test]
    fn left_deep_detection() {
        use crate::random_plan::random_left_deep_plan_in;
        let m = StubModel::line(6, 2, 1);
        let q = TableSet::prefix(6);
        let mut arena = PlanArena::new();
        let id = random_left_deep_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(4));
        assert!(arena.is_left_deep(id));
        // (T0 ⋈ T1) ⋈ (T2 ⋈ T3) has a join inner.
        let s: Vec<PlanId> = (0..4)
            .map(|t| arena.scan(&m, TableId::new(t), ScanOpId(0)))
            .collect();
        let (l, r) = (
            arena.join(&m, s[0], s[1], JoinOpId(0)),
            arena.join(&m, s[2], s[3], JoinOpId(0)),
        );
        let bushy = arena.join(&m, l, r, JoinOpId(0));
        assert!(arena.is_left_deep(l));
        assert!(!arena.is_left_deep(bushy));
    }
}
