//! Multi-objective hill climbing — `ParetoStep` / `ParetoClimb` (Algorithm 2).
//!
//! The climb moves from a plan to a neighbor that *strictly Pareto-dominates*
//! it, until no neighbor dominates (a local Pareto optimum). Two paper
//! optimizations distinguish the fast variant from naive climbing:
//!
//! 1. **Principle of optimality** (Ganguly et al.): a mutation that worsens
//!    the sub-plan it touches cannot improve the whole plan, so candidate
//!    mutations are evaluated on sub-plan cost without recosting the root.
//! 2. **Simultaneous sub-tree mutations**: `ParetoStep` recursively improves
//!    the outer and inner sub-plans and combines the improved versions, so
//!    one climbing step can apply many mutations in independent sub-trees
//!    at once, shrinking the number of complete plans generated on the way
//!    to the local optimum (reported >10× at 50 tables, §4.2).
//!
//! Both effects fall out of the recursive structure below: sub-plan
//! frontiers are pruned per output format *before* being combined upward.
//! The naive variant ([`naive_climb`]) is retained for the ablation
//! experiments.
//!
//! # Hot-path discipline
//!
//! `ParetoStep` runs inside every climbing step, and most of the candidates
//! it generates are rejected by pruning. Two formulations share this file.
//! The `Arc<Plan>` one ([`pareto_step_with`], [`pareto_climb_with`]) is the
//! reference: it costs each candidate through the model *first* and probes
//! the frontier via [`ParetoSet::admit`], materializing the `Arc<Plan>` only
//! on admission. The arena one ([`pareto_step_in`], [`pareto_climb_in`],
//! [`pareto_climb_aborting_in`]) is what the optimizers run; it makes the
//! same decisions in the same order and, on top, does each piece of work
//! once:
//!
//! * **an operand pair is costed once** — all its operators through one
//!   [`CostModel::join_props_all`] call, which shares the pair's
//!   cardinality, pages and input-cost sum; candidates are still admitted
//!   recombined-root-operator first, then the operator changes in
//!   `join_ops` order, then the structural rules;
//! * **a sub-plan is stepped once per climb** — the per-climb memo in
//!   [`StepScratch`] answers every sub-tree the previous steps left
//!   untouched (see there for why that is sound and when the memo is
//!   dropped). What a memo hit skips is skipped entirely: no costing, no
//!   frontier probe, no interning, no screening tallies;
//! * **nothing is allocated in steady state** — operator lists, costing
//!   output, the one live step frontier and the step results all live in
//!   the [`StepScratch`] the RMQ main loop carries across iterations;
//!   rejected candidates touch neither the arena nor the heap, admitted
//!   ones intern their root into an arena that keeps its capacity over
//!   [`PlanArena::clear`]. Growing any of these for a larger plan than seen
//!   before is the only allocation left.

use std::ops::Range;

use crate::archive::Admission;
use crate::arena::{PlanArena, PlanId, PlanNodeKind};
use crate::fxhash::FxHashMap;
use crate::model::{CostModel, JoinOpId, PlanProps};
use crate::mutations::{all_neighbors, MutationSet};
use crate::optimizer::AbortCheck;
use crate::pareto::{ParetoSet, PrunePolicy};
use crate::plan::{Plan, PlanKind, PlanRef};

/// Configuration for [`pareto_climb`].
#[derive(Clone, Copy, Debug)]
pub struct ClimbConfig {
    /// How same-format incomparable mutations are pruned (see
    /// [`PrunePolicy`]). The default matches the paper's Lemma 2.
    pub policy: PrunePolicy,
    /// The transformation rule set (§4.1: exchanged together with the
    /// random plan generator to restrict the join-order space).
    pub mutations: MutationSet,
    /// Safety bound on the number of climbing steps.
    pub max_steps: usize,
}

impl Default for ClimbConfig {
    fn default() -> Self {
        ClimbConfig {
            policy: PrunePolicy::OnePerFormat,
            mutations: MutationSet::Bushy,
            max_steps: 10_000,
        }
    }
}

/// Statistics of one climb, used by Figure 3 (path lengths) and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClimbStats {
    /// Number of improving moves (complete plans adopted on the path from
    /// the start plan to the local optimum).
    pub steps: usize,
}

/// Everything a climb reuses instead of rebuilding. One scratch serves a
/// whole climb, and the RMQ main loop carries one across iterations.
///
/// * **Buffers**: the operator lists queried from the cost model in the
///   innermost candidate loops (`Arc` and arena paths) and the
///   batch-costing output parallel to them (arena path). The recursion
///   uses each transiently between recursive calls.
/// * **The step frontier** (arena path): both recursive calls of a join
///   node return before the node prunes its own candidates, so one
///   [`ParetoSet`] is live at a time; each node clears it — buckets and
///   blocks keep their capacity — before offering its candidates.
/// * **The `ParetoStep` memo** (arena path): sub-plan [`PlanId`] → its step
///   result, stored as a span of one flat id list. Hash-consing makes "same
///   id" mean "same sub-plan" and the step is a pure function of the
///   sub-plan (for a fixed model, policy and rule set), so a sub-tree the
///   previous step left untouched is answered from the memo: none of its
///   candidates is costed, probed or interned again. **Validity rule:** an
///   entry holds only inside the arena that issued its ids, between two
///   [`PlanArena::clear`]s, under one [`ClimbConfig`]. Every climb
///   ([`pareto_climb_in`], [`pareto_climb_aborting_in`]) and every
///   stand-alone [`pareto_step_in`] therefore starts by dropping the memo;
///   each holds the arena exclusively until it returns, so nothing can
///   clear it in between.
#[derive(Debug, Default)]
pub struct StepScratch {
    ops: Vec<JoinOpId>,
    structural_ops: Vec<JoinOpId>,
    /// `CostModel::join_props_all` output, parallel to `ops`.
    props: Vec<PlanProps>,
    frontier: ParetoSet<PlanId>,
    memo: FxHashMap<PlanId, Range<usize>>,
    /// The memoized step results, back to back; `memo` holds the spans.
    memo_ids: Vec<PlanId>,
    /// Screening tallies drained from the step frontier of every recursion
    /// node this scratch served. Sub-trees answered from the memo screen
    /// nothing and add nothing. Pure observation — never read by the climb
    /// itself; the RMQ loop takes the accumulated total once per iteration
    /// and flushes it to the global `moqo-obs` registry.
    pub screen: crate::pareto::ScreenCounters,
}

impl StepScratch {
    /// Returns and resets the accumulated screening tallies.
    pub fn take_screen(&mut self) -> crate::pareto::ScreenCounters {
        std::mem::take(&mut self.screen)
    }

    /// Drops the `ParetoStep` memo (see the validity rule above).
    fn forget_steps(&mut self) {
        self.memo.clear();
        self.memo_ids.clear();
    }
}

/// One transformation step (`ParetoStep`): returns the pruned set of
/// Pareto-optimal mutations of `p`, possibly mutating several independent
/// sub-trees simultaneously. The set contains at most one plan per output
/// format under the default [`PrunePolicy::OnePerFormat`]; the plan `p`
/// itself (with possibly-improved sub-plans) is always a candidate.
pub fn pareto_step<M>(
    p: &PlanRef,
    model: &M,
    policy: PrunePolicy,
    mutations: MutationSet,
) -> Vec<PlanRef>
where
    M: CostModel + ?Sized,
{
    pareto_step_with(p, model, policy, mutations, &mut StepScratch::default())
}

/// [`pareto_step`] with caller-provided scratch buffers (the allocation-free
/// steady-state entry point; see the module docs).
pub fn pareto_step_with<M>(
    p: &PlanRef,
    model: &M,
    policy: PrunePolicy,
    mutations: MutationSet,
    scratch: &mut StepScratch,
) -> Vec<PlanRef>
where
    M: CostModel + ?Sized,
{
    let mut frontier = ParetoSet::new();
    let admission = Admission::climb(policy);
    match p.kind() {
        PlanKind::Scan { table, op } => {
            // Identity first, then the scan-operator mutations (identity
            // first so OnePerFormat keeps the incumbent on ties).
            frontier.insert(p.clone(), &admission);
            for &alt in model.scan_ops(*table) {
                if alt != *op {
                    let props = model.scan_props(*table, alt);
                    frontier.admit(&props.cost, props.format, &admission, || {
                        Plan::scan_from_props(*table, alt, props)
                    });
                }
            }
        }
        PlanKind::Join { outer, inner, op } => {
            // Improve sub-plans by recursive calls (both complete before
            // this level touches the scratch buffers again).
            let outer_pareto = pareto_step_with(outer, model, policy, mutations, scratch);
            let inner_pareto = pareto_step_with(inner, model, policy, mutations, scratch);
            // Iterate over all improved sub-plan pairs.
            for o in &outer_pareto {
                // One view copy per operand pair, reused across operators.
                let vo = o.view();
                for i in &inner_pareto {
                    let vi = i.view();
                    scratch.ops.clear();
                    model.join_ops(vo, vi, &mut scratch.ops);
                    // The recombined plan (identity mutation at the root):
                    // the original operator when applicable, else the first
                    // applicable one — exactly `join_preferring`'s pick. A
                    // model violating its non-empty contract skips the pair.
                    let Some(root_op) = scratch
                        .ops
                        .iter()
                        .find(|&&a| a == *op)
                        .or_else(|| scratch.ops.first())
                        .copied()
                    else {
                        continue;
                    };
                    let props = model.join_props(vo, vi, root_op);
                    frontier.admit(&props.cost, props.format, &admission, || {
                        Plan::join_from_props(o.clone(), i.clone(), root_op, props)
                    });
                    // Operator changes at the root.
                    for &alt in &scratch.ops {
                        if alt != root_op {
                            let props = model.join_props(vo, vi, alt);
                            frontier.admit(&props.cost, props.format, &admission, || {
                                Plan::join_from_props(o.clone(), i.clone(), alt, props)
                            });
                        }
                    }
                    // Structural rules (commutativity, rotations,
                    // exchanges), root allocation deferred to admission.
                    mutations.visit_structural(
                        o,
                        i,
                        root_op,
                        model,
                        &mut scratch.structural_ops,
                        &mut |a, b, jop, props| {
                            frontier.admit(&props.cost, props.format, &admission, || {
                                Plan::join_from_props(a.clone(), b.clone(), jop, props)
                            });
                        },
                    );
                }
            }
        }
    }
    scratch.screen.absorb(&frontier.screen_counters());
    frontier.into_plans()
}

/// Arena analogue of [`pareto_step_with`]: identical candidate enumeration
/// order and pruning decisions, operating on interned [`PlanId`]s. Admitted
/// candidates intern their root (an intern hit — the steady-state common
/// case once a neighborhood has been visited — allocates nothing); rejected
/// candidates touch neither the arena nor the heap.
///
/// A stand-alone step: it drops the scratch's memo first, so `scratch` may
/// have served any arena before.
pub fn pareto_step_in<M>(
    arena: &mut PlanArena,
    p: PlanId,
    model: &M,
    policy: PrunePolicy,
    mutations: MutationSet,
    scratch: &mut StepScratch,
) -> Vec<PlanId>
where
    M: CostModel + ?Sized,
{
    scratch.forget_steps();
    let admission = Admission::climb(policy);
    let step = step_in(arena, p, model, &admission, mutations, scratch);
    scratch.memo_ids[step].to_vec()
}

/// The recursion behind [`pareto_step_in`] and the arena climbs: returns
/// the step result of `p` as a span of `scratch.memo_ids`, from the memo
/// when `p` was stepped before (see [`StepScratch`]).
fn step_in<M>(
    arena: &mut PlanArena,
    p: PlanId,
    model: &M,
    admission: &Admission,
    mutations: MutationSet,
    scratch: &mut StepScratch,
) -> Range<usize>
where
    M: CostModel + ?Sized,
{
    if let Some(step) = scratch.memo.get(&p) {
        return step.clone();
    }
    match arena.node(p).kind() {
        PlanNodeKind::Scan { table, op } => {
            let frontier = &mut scratch.frontier;
            frontier.clear();
            // Identity first, then the scan-operator mutations.
            let view = arena.view(p);
            frontier.admit(&view.cost, view.format, admission, || p);
            for &alt in model.scan_ops(table) {
                if alt != op {
                    let props = model.scan_props(table, alt);
                    frontier.admit(&props.cost, props.format, admission, || {
                        arena.scan_from_props(table, alt, props)
                    });
                }
            }
        }
        PlanNodeKind::Join { outer, inner, op } => {
            // Both sub-steps finish before this level touches the buffers
            // and the frontier.
            let outer_step = step_in(arena, outer, model, admission, mutations, scratch);
            let inner_step = step_in(arena, inner, model, admission, mutations, scratch);
            let StepScratch {
                ops,
                structural_ops,
                props: pair_props,
                frontier,
                memo_ids,
                ..
            } = scratch;
            frontier.clear();
            for &o in &memo_ids[outer_step] {
                // One view copy per operand pair, reused across operators.
                let vo = arena.view(o);
                for &i in &memo_ids[inner_step.clone()] {
                    let vi = arena.view(i);
                    ops.clear();
                    model.join_ops(&vo, &vi, ops);
                    // The recombined plan keeps the original operator when
                    // applicable, else takes the first applicable one —
                    // `join_preferring`'s pick. A model violating its
                    // non-empty contract skips the pair.
                    let Some(root) = ops
                        .iter()
                        .position(|&a| a == op)
                        .or((!ops.is_empty()).then_some(0))
                    else {
                        continue;
                    };
                    let root_op = ops[root];
                    // The pair is costed once for all its operators
                    // (cheap, cache-resident model math) and candidates are
                    // interned only on admission — see the matching note in
                    // `approximate_frontiers_in`. Admission order is the
                    // recombined plan first, then the operator changes.
                    pair_props.clear();
                    model.join_props_all(&vo, &vi, ops, pair_props);
                    let props = pair_props[root];
                    frontier.admit(&props.cost, props.format, admission, || {
                        arena.join_from_props(o, i, root_op, props)
                    });
                    for (&alt, &props) in ops.iter().zip(pair_props.iter()) {
                        if alt != root_op {
                            frontier.admit(&props.cost, props.format, admission, || {
                                arena.join_from_props(o, i, alt, props)
                            });
                        }
                    }
                    // Structural rules, root interning deferred to admission.
                    mutations.visit_structural_in(
                        arena,
                        o,
                        i,
                        root_op,
                        model,
                        structural_ops,
                        &mut |arena, a, b, jop, props| {
                            frontier.admit(&props.cost, props.format, admission, || {
                                arena.join_from_props(a, b, jop, props)
                            });
                        },
                    );
                }
            }
        }
    }
    // File the result in the memo; the next node clears the frontier.
    let StepScratch {
        frontier,
        memo,
        memo_ids,
        screen,
        ..
    } = scratch;
    screen.absorb(&frontier.take_screen_counters());
    let step = memo_ids.len()..memo_ids.len() + frontier.len();
    memo_ids.extend_from_slice(frontier.plans());
    memo.insert(p, step.clone());
    step
}

/// Climbs until `p` cannot be improved further (`ParetoClimb`): repeatedly
/// computes `pareto_step` and moves to a mutation that strictly dominates
/// the current plan, returning the local Pareto optimum and path statistics.
pub fn pareto_climb<M>(start: PlanRef, model: &M, cfg: &ClimbConfig) -> (PlanRef, ClimbStats)
where
    M: CostModel + ?Sized,
{
    pareto_climb_with(start, model, cfg, &mut StepScratch::default())
}

/// [`pareto_climb`] with caller-provided scratch buffers, reused across all
/// steps of the climb (and, by the RMQ main loop, across iterations).
pub fn pareto_climb_with<M>(
    start: PlanRef,
    model: &M,
    cfg: &ClimbConfig,
    scratch: &mut StepScratch,
) -> (PlanRef, ClimbStats)
where
    M: CostModel + ?Sized,
{
    let mut current = start;
    let mut stats = ClimbStats::default();
    while stats.steps < cfg.max_steps {
        let mutations = pareto_step_with(&current, model, cfg.policy, cfg.mutations, scratch);
        // Several mutations may strictly dominate the current plan without
        // dominating each other; the paper arbitrarily selects one rather
        // than branching (§4.2). We take the first found.
        match mutations
            .into_iter()
            .find(|m| m.cost().strictly_dominates(current.cost()))
        {
            Some(better) => {
                current = better;
                stats.steps += 1;
            }
            None => break,
        }
    }
    (current, stats)
}

/// Arena analogue of [`pareto_climb_with`]: same moves, same local optimum,
/// same path statistics for a given start plan (see the seed-determinism
/// test pinning arena and legacy climbs to identical outcomes).
pub fn pareto_climb_in<M>(
    arena: &mut PlanArena,
    start: PlanId,
    model: &M,
    cfg: &ClimbConfig,
    scratch: &mut StepScratch,
) -> (PlanId, ClimbStats)
where
    M: CostModel + ?Sized,
{
    let (opt, stats, _) = climb_loop_in(arena, start, model, cfg, scratch, None);
    (opt, stats)
}

/// [`pareto_climb_in`] under a cooperative abort condition, the
/// deadline-honoring entry point of concurrent climbers: `abort` is checked
/// once per climbing step (the climb inner loop), so a climber observes a
/// raised [`StopFlag`](crate::optimizer::StopFlag) — or raises it itself on
/// a passed deadline — within **one climb step**. Returns the best plan
/// reached so far plus `true` iff the climb was cut short (the plan is then
/// improved-but-not-necessarily-locally-optimal).
///
/// An abort condition that never fires reproduces [`pareto_climb_in`]
/// exactly: checking consumes no randomness and changes no decisions.
pub fn pareto_climb_aborting_in<M>(
    arena: &mut PlanArena,
    start: PlanId,
    model: &M,
    cfg: &ClimbConfig,
    scratch: &mut StepScratch,
    abort: &AbortCheck,
) -> (PlanId, ClimbStats, bool)
where
    M: CostModel + ?Sized,
{
    climb_loop_in(arena, start, model, cfg, scratch, Some(abort))
}

fn climb_loop_in<M>(
    arena: &mut PlanArena,
    start: PlanId,
    model: &M,
    cfg: &ClimbConfig,
    scratch: &mut StepScratch,
    abort: Option<&AbortCheck>,
) -> (PlanId, ClimbStats, bool)
where
    M: CostModel + ?Sized,
{
    scratch.forget_steps();
    let admission = Admission::climb(cfg.policy);
    let mut current = start;
    let mut stats = ClimbStats::default();
    while stats.steps < cfg.max_steps {
        if abort.is_some_and(AbortCheck::should_abort) {
            return (current, stats, true);
        }
        let step = step_in(arena, current, model, &admission, cfg.mutations, scratch);
        let current_cost = arena.cost(current);
        match scratch.memo_ids[step]
            .iter()
            .find(|&&m| arena.cost(m).strictly_dominates(&current_cost))
        {
            Some(&better) => {
                current = better;
                stats.steps += 1;
            }
            None => break,
        }
    }
    (current, stats, false)
}

/// Naive hill climbing (§4.2's strawman, kept for ablations): every step
/// enumerates all complete-plan neighbors (one mutation at one node each,
/// quadratic work) and moves to the first strictly dominating neighbor.
pub fn naive_climb<M>(start: PlanRef, model: &M, cfg: &ClimbConfig) -> (PlanRef, ClimbStats)
where
    M: CostModel + ?Sized,
{
    let mut current = start;
    let mut stats = ClimbStats::default();
    while stats.steps < cfg.max_steps {
        let neighbors = all_neighbors(&current, model);
        match neighbors
            .into_iter()
            .find(|m| m.cost().strictly_dominates(current.cost()))
        {
            Some(better) => {
                current = better;
                stats.steps += 1;
            }
            None => break,
        }
    }
    (current, stats)
}

/// Whether `p` is a local Pareto optimum under the fast step with bushy
/// mutations: no mutation returned by [`pareto_step`] strictly dominates it.
pub fn is_local_optimum<M>(p: &PlanRef, model: &M, policy: PrunePolicy) -> bool
where
    M: CostModel + ?Sized,
{
    !pareto_step(p, model, policy, MutationSet::Bushy)
        .iter()
        .any(|m| m.cost().strictly_dominates(p.cost()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::StubModel;
    use crate::mutations::{join_preferring, root_mutations};
    use crate::random_plan::random_plan;
    use crate::tables::TableSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, dim: usize, seed: u64) -> (StubModel, TableSet) {
        (StubModel::line(n, dim, seed), TableSet::prefix(n))
    }

    #[test]
    fn pareto_step_returns_valid_plans() {
        let (m, q) = setup(6, 2, 3);
        let p = random_plan(&m, q, &mut StdRng::seed_from_u64(1));
        for policy in [PrunePolicy::OnePerFormat, PrunePolicy::KeepIncomparable] {
            let step = pareto_step(&p, &m, policy, MutationSet::Bushy);
            assert!(!step.is_empty());
            for s in &step {
                assert!(s.validate(q).is_ok());
            }
        }
    }

    #[test]
    fn pareto_step_never_returns_only_worse_plans() {
        // The identity combination guarantees a plan at least as good as p
        // is always among the candidates.
        let (m, q) = setup(8, 2, 5);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let p = random_plan(&m, q, &mut rng);
            let step = pareto_step(&p, &m, PrunePolicy::OnePerFormat, MutationSet::Bushy);
            assert!(
                step.iter().any(|s| s.cost().dominates(p.cost())
                    || !p.cost().strictly_dominates(s.cost())),
                "step lost all non-worse candidates"
            );
        }
    }

    #[test]
    fn pareto_step_matches_materializing_reference() {
        // The deferred-allocation step must produce exactly the plans the
        // old insert-everything formulation produced: rebuild the reference
        // per (outer, inner) pair with join_preferring + root_mutations and
        // prune through a fresh ParetoSet.
        fn reference_step(p: &PlanRef, m: &StubModel, policy: PrunePolicy) -> Vec<PlanRef> {
            let mut frontier = ParetoSet::new();
            let admission = Admission::climb(policy);
            let mut scratch = Vec::new();
            match p.kind() {
                PlanKind::Scan { .. } => {
                    frontier.insert(p.clone(), &admission);
                    root_mutations(p, m, &mut scratch);
                    for mutation in scratch.drain(..) {
                        frontier.insert(mutation, &admission);
                    }
                }
                PlanKind::Join { outer, inner, op } => {
                    let outer_pareto = reference_step(outer, m, policy);
                    let inner_pareto = reference_step(inner, m, policy);
                    for o in &outer_pareto {
                        for i in &inner_pareto {
                            let Some(rebuilt) = join_preferring(m, o, i, &[*op]) else {
                                continue;
                            };
                            scratch.clear();
                            root_mutations(&rebuilt, m, &mut scratch);
                            frontier.insert(rebuilt, &admission);
                            for mutation in scratch.drain(..) {
                                frontier.insert(mutation, &admission);
                            }
                        }
                    }
                }
            }
            frontier.into_plans()
        }

        let (m, q) = setup(7, 2, 13);
        let mut rng = StdRng::seed_from_u64(21);
        for policy in [PrunePolicy::OnePerFormat, PrunePolicy::KeepIncomparable] {
            for _ in 0..10 {
                let p = random_plan(&m, q, &mut rng);
                let fast: Vec<String> = pareto_step(&p, &m, policy, MutationSet::Bushy)
                    .iter()
                    .map(|s| s.display(&m))
                    .collect();
                let reference: Vec<String> = reference_step(&p, &m, policy)
                    .iter()
                    .map(|s| s.display(&m))
                    .collect();
                assert_eq!(fast, reference, "step diverged under {policy:?}");
            }
        }
    }

    #[test]
    fn arena_climb_matches_legacy_across_seeds_and_sizes() {
        // Seed-determinism satellite: 3 seeds × 6 settings (up to n = 12,
        // three metrics, climbs under both prune policies). The arena climb
        // — with its step memo, reused frontier and batch costing — and the
        // memo-free Arc climb must consume the RNG identically, make the
        // same moves in the same order, and end on the same local optimum
        // with the same final step frontier.
        use crate::arena::PlanArena;
        use crate::random_plan::random_plan_in;
        let policies = [PrunePolicy::OnePerFormat, PrunePolicy::KeepIncomparable];
        let (fast, literal) = (policies[0], policies[1]);
        for (n, dim, climb_policy) in [
            (6usize, 2usize, fast),
            (9, 2, fast),
            (12, 2, fast),
            (12, 3, fast),
            // Literal-policy step frontiers grow with every move: an n = 8
            // climb takes ten seconds here and an n = 9 climb minutes, so
            // these stay small.
            (6, 2, literal),
            (6, 3, literal),
        ] {
            for seed in [1u64, 2, 3] {
                let at = format!("n={n}, dim={dim}, {climb_policy:?}, seed={seed}");
                let (m, q) = setup(n, dim, 17);
                let start_arc = random_plan(&m, q, &mut StdRng::seed_from_u64(seed));
                let mut arena = PlanArena::new();
                let start_id = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    arena.display(start_id, &m),
                    start_arc.display(&m),
                    "random generation diverged ({at})"
                );
                let cfg = ClimbConfig {
                    policy: climb_policy,
                    ..ClimbConfig::default()
                };
                // The Arc climb, move by move.
                let mut moves = vec![start_arc.clone()];
                while let Some(better) = {
                    let current = moves.last().unwrap();
                    pareto_step(current, &m, cfg.policy, cfg.mutations)
                        .into_iter()
                        .find(|s| s.cost().strictly_dominates(current.cost()))
                } {
                    moves.push(better);
                }
                let opt_arc = moves.last().unwrap().clone();
                let stats_arc = ClimbStats {
                    steps: moves.len() - 1,
                };

                let mut scratch = StepScratch::default();
                let (opt_id, stats_id) =
                    pareto_climb_in(&mut arena, start_id, &m, &cfg, &mut scratch);
                assert_eq!(stats_arc, stats_id, "path lengths diverged ({at})");
                assert_eq!(
                    arena.display(opt_id, &m),
                    opt_arc.display(&m),
                    "local optima diverged ({at})"
                );
                assert_eq!(arena.cost(opt_id).as_slice(), opt_arc.cost().as_slice());
                // The arena climb cut short after k moves stands where
                // the Arc climb stood after k moves.
                for (k, expected) in moves.iter().enumerate() {
                    let cut = ClimbConfig {
                        max_steps: k,
                        ..cfg
                    };
                    let (at_k, _) = pareto_climb_in(&mut arena, start_id, &m, &cut, &mut scratch);
                    assert_eq!(
                        arena.display(at_k, &m),
                        expected.display(&m),
                        "move {k} diverged ({at})"
                    );
                }
                // Identical final frontiers from one more step at the optimum
                // (a literal-policy step of an n = 12 plan takes a minute).
                let affordable = if n <= 9 {
                    &policies[..]
                } else {
                    &policies[..1]
                };
                for &policy in affordable {
                    let legacy: Vec<String> = pareto_step(&opt_arc, &m, policy, MutationSet::Bushy)
                        .iter()
                        .map(|s| s.display(&m))
                        .collect();
                    let in_arena: Vec<String> = pareto_step_in(
                        &mut arena,
                        opt_id,
                        &m,
                        policy,
                        MutationSet::Bushy,
                        &mut scratch,
                    )
                    .iter()
                    .map(|&s| arena.display(s, &m))
                    .collect();
                    assert_eq!(
                        in_arena, legacy,
                        "step frontier diverged under {policy:?} ({at})"
                    );
                }
            }
        }
    }

    #[test]
    fn arena_left_deep_climb_matches_legacy() {
        use crate::arena::PlanArena;
        use crate::random_plan::{random_left_deep_plan, random_left_deep_plan_in};
        let (m, q) = setup(7, 2, 23);
        let cfg = ClimbConfig {
            mutations: MutationSet::LeftDeep,
            ..ClimbConfig::default()
        };
        for seed in [5u64, 6] {
            let start_arc = random_left_deep_plan(&m, q, &mut StdRng::seed_from_u64(seed));
            let mut arena = PlanArena::new();
            let start_id =
                random_left_deep_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(seed));
            let (opt_arc, stats_arc) = pareto_climb(start_arc, &m, &cfg);
            let (opt_id, stats_id) =
                pareto_climb_in(&mut arena, start_id, &m, &cfg, &mut StepScratch::default());
            assert_eq!(stats_arc, stats_id);
            assert_eq!(arena.display(opt_id, &m), opt_arc.display(&m));
            assert!(arena.is_left_deep(opt_id));
        }
    }

    #[test]
    fn aborting_climb_with_never_condition_matches_plain_climb() {
        use crate::arena::PlanArena;
        use crate::random_plan::random_plan_in;
        let (m, q) = setup(7, 2, 19);
        for seed in [1u64, 4, 9] {
            let mut a1 = PlanArena::new();
            let mut a2 = PlanArena::new();
            let s1 = random_plan_in(&mut a1, &m, q, &mut StdRng::seed_from_u64(seed));
            let s2 = random_plan_in(&mut a2, &m, q, &mut StdRng::seed_from_u64(seed));
            let cfg = ClimbConfig::default();
            let (o1, st1) = pareto_climb_in(&mut a1, s1, &m, &cfg, &mut StepScratch::default());
            let (o2, st2, aborted) = pareto_climb_aborting_in(
                &mut a2,
                s2,
                &m,
                &cfg,
                &mut StepScratch::default(),
                &crate::optimizer::AbortCheck::never(),
            );
            assert!(!aborted);
            assert_eq!(st1, st2);
            assert_eq!(a1.display(o1, &m), a2.display(o2, &m));
        }
    }

    #[test]
    fn aborting_climb_stops_before_the_first_step_when_flag_is_up() {
        use crate::arena::PlanArena;
        use crate::optimizer::StopFlag;
        use crate::random_plan::random_plan_in;
        let (m, q) = setup(8, 2, 29);
        let mut arena = PlanArena::new();
        let start = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(2));
        let flag = StopFlag::new();
        flag.stop();
        let (opt, stats, aborted) = pareto_climb_aborting_in(
            &mut arena,
            start,
            &m,
            &ClimbConfig::default(),
            &mut StepScratch::default(),
            &crate::optimizer::AbortCheck::new(flag, None),
        );
        assert!(aborted);
        assert_eq!(stats.steps, 0);
        assert_eq!(opt, start, "no move may happen after the flag is raised");
    }

    #[test]
    fn one_per_format_bounds_step_size() {
        let (m, q) = setup(10, 3, 7);
        let p = random_plan(&m, q, &mut StdRng::seed_from_u64(3));
        let step = pareto_step(&p, &m, PrunePolicy::OnePerFormat, MutationSet::Bushy);
        assert!(
            step.len() <= 2,
            "StubModel has 2 formats; got {} plans",
            step.len()
        );
    }

    #[test]
    fn climb_reaches_local_optimum() {
        let (m, q) = setup(7, 2, 11);
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = StepScratch::default();
        for _ in 0..10 {
            let start = random_plan(&m, q, &mut rng);
            let (opt, stats) =
                pareto_climb_with(start.clone(), &m, &ClimbConfig::default(), &mut scratch);
            assert!(opt.validate(q).is_ok());
            // The result must weakly improve on the start in the Pareto sense:
            // it is never strictly dominated by the start.
            assert!(!start.cost().strictly_dominates(opt.cost()));
            assert!(is_local_optimum(&opt, &m, PrunePolicy::OnePerFormat));
            assert!(stats.steps < ClimbConfig::default().max_steps);
        }
    }

    #[test]
    fn climb_strictly_improves_bad_starts() {
        // Over several random starts, at least one climb must make a strict
        // improvement (otherwise climbing is vacuous on this model).
        let (m, q) = setup(9, 2, 13);
        let mut rng = StdRng::seed_from_u64(5);
        let improved = (0..10)
            .filter(|_| {
                let start = random_plan(&m, q, &mut rng);
                let (opt, _) = pareto_climb(start.clone(), &m, &ClimbConfig::default());
                opt.cost().strictly_dominates(start.cost())
            })
            .count();
        assert!(improved >= 5, "climbing improved only {improved}/10 starts");
    }

    #[test]
    fn literal_policy_climb_is_single_mutation_optimal() {
        // Under the literal pseudo-code pruning (KeepIncomparable), the
        // climb must end in states where no *single* mutation strictly
        // improves the plan; the same holds for the naive climber. (Under
        // the faster OnePerFormat policy, an improving mutation can be
        // displaced by an incomparable incumbent in its format slot, so the
        // fast policy only guarantees optimality w.r.t. its own pruned
        // neighborhood — see `is_local_optimum` usage elsewhere.)
        let (m, q) = setup(6, 2, 17);
        let literal = ClimbConfig {
            policy: PrunePolicy::KeepIncomparable,
            ..ClimbConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..5 {
            let start = random_plan(&m, q, &mut rng);
            let (fast, _) = pareto_climb(start.clone(), &m, &literal);
            let (naive, _) = naive_climb(start, &m, &ClimbConfig::default());
            for (name, opt) in [("literal", &fast), ("naive", &naive)] {
                let improving = all_neighbors(opt, &m)
                    .iter()
                    .any(|nb| nb.cost().strictly_dominates(opt.cost()));
                assert!(!improving, "{name} climb ended in a non-optimum");
            }
        }
    }

    #[test]
    fn fast_climb_uses_fewer_steps_than_naive() {
        // The multi-mutation step should generally need no more improving
        // moves than single-mutation climbing (it applies several at once).
        let (m, q) = setup(12, 2, 23);
        let mut rng = StdRng::seed_from_u64(7);
        let mut fast_total = 0usize;
        let mut naive_total = 0usize;
        for _ in 0..10 {
            let start = random_plan(&m, q, &mut rng);
            fast_total += pareto_climb(start.clone(), &m, &ClimbConfig::default())
                .1
                .steps;
            naive_total += naive_climb(start, &m, &ClimbConfig::default()).1.steps;
        }
        assert!(
            fast_total <= naive_total,
            "fast climbing took more steps ({fast_total}) than naive ({naive_total})"
        );
    }

    #[test]
    fn max_steps_is_respected() {
        let (m, q) = setup(10, 2, 29);
        let start = random_plan(&m, q, &mut StdRng::seed_from_u64(8));
        let cfg = ClimbConfig {
            max_steps: 1,
            ..ClimbConfig::default()
        };
        let (_, stats) = pareto_climb(start, &m, &cfg);
        assert!(stats.steps <= 1);
    }

    #[test]
    fn single_metric_climb_matches_classic_hill_climbing() {
        // With one metric, strict dominance is "strictly lower cost": the
        // climb must be monotonically decreasing.
        let (m, q) = setup(8, 1, 31);
        let mut rng = StdRng::seed_from_u64(9);
        let start = random_plan(&m, q, &mut rng);
        let (opt, _) = pareto_climb(start.clone(), &m, &ClimbConfig::default());
        assert!(opt.cost()[0] <= start.cost()[0]);
    }
}
