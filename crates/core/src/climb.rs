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
//! The naive variant ([`naive_climb_in`]) is retained for the ablation
//! experiments.
//!
//! # Hot-path discipline
//!
//! `ParetoStep` runs inside every climbing step, and most of the candidates
//! it generates are rejected by pruning. [`pareto_step_in`],
//! [`pareto_climb_in`] and [`pareto_climb_aborting_in`] therefore cost each
//! candidate *before* building it, probe the step frontier via
//! [`ParetoSet::admit`], and intern a candidate's root into the
//! [`PlanArena`] only on admission. On top, they do each piece of work once:
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
//!
//! The unit tests pin every step to the eager formulation that builds and
//! interns each candidate before pruning it.

use std::ops::Range;

use crate::archive::Admission;
use crate::arena::{PlanArena, PlanId, PlanNodeKind};
use crate::fxhash::FxHashMap;
use crate::model::{CostModel, JoinOpId, PlanProps};
use crate::mutations::{all_neighbors_in, MutationSet};
use crate::optimizer::AbortCheck;
use crate::pareto::{ParetoSet, PrunePolicy};

/// Configuration for [`pareto_climb_in`].
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
///   innermost candidate loops and the batch-costing output parallel to
///   them. The recursion uses each transiently between recursive calls.
/// * **The step frontier**: both recursive calls of a join node return
///   before the node prunes its own candidates, so one [`ParetoSet`] is
///   live at a time; each node clears it — buckets and blocks keep their
///   capacity — before offering its candidates.
/// * **The `ParetoStep` memo**: sub-plan [`PlanId`] → its step result,
///   stored as a span of one flat id list. Hash-consing makes "same id"
///   mean "same sub-plan" and the step is a pure function of the sub-plan
///   (for a fixed model, policy and rule set), so a sub-tree the previous
///   step left untouched is answered from the memo: none of its candidates
///   is costed, probed or interned again. **Validity rule:** an entry holds
///   only inside the arena that issued its ids, between two
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
/// Admitted candidates intern their root (an intern hit — the steady-state
/// common case once a neighborhood has been visited — allocates nothing);
/// rejected candidates touch neither the arena nor the heap.
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

/// The recursion behind [`pareto_step_in`] and the climbs: returns the step
/// result of `p` as a span of `scratch.memo_ids`, from the memo when `p`
/// was stepped before (see [`StepScratch`]).
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
            // Identity first (so OnePerFormat keeps the incumbent on ties),
            // then the scan-operator mutations.
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
                    // `join_preferring_in`'s pick. A model violating its
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

/// Climbs until `start` cannot be improved further (`ParetoClimb`):
/// repeatedly computes `ParetoStep` and moves to a mutation that strictly
/// dominates the current plan, returning the local Pareto optimum and path
/// statistics.
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
        // Several mutations may strictly dominate the current plan without
        // dominating each other; the paper arbitrarily selects one rather
        // than branching (§4.2). We take the first found.
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
/// enumerates all complete-plan neighbors under `cfg.mutations` (one
/// mutation at one node each, quadratic work) and moves to the first
/// strictly dominating neighbor. `cfg.policy` plays no part: nothing is
/// pruned.
pub fn naive_climb_in<M>(
    arena: &mut PlanArena,
    start: PlanId,
    model: &M,
    cfg: &ClimbConfig,
) -> (PlanId, ClimbStats)
where
    M: CostModel + ?Sized,
{
    let mut current = start;
    let mut stats = ClimbStats::default();
    while stats.steps < cfg.max_steps {
        let current_cost = arena.cost(current);
        match all_neighbors_in(arena, current, model, cfg.mutations)
            .into_iter()
            .find(|&m| arena.cost(m).strictly_dominates(&current_cost))
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

/// Whether `p` is a local Pareto optimum of the climb `cfg` configures: no
/// mutation returned by its `ParetoStep` (under `cfg.policy` and
/// `cfg.mutations`) strictly dominates it — the condition on which
/// [`pareto_climb_in`] stops before `cfg.max_steps`.
pub fn is_local_optimum_in<M>(
    arena: &mut PlanArena,
    p: PlanId,
    model: &M,
    cfg: &ClimbConfig,
) -> bool
where
    M: CostModel + ?Sized,
{
    let cost = arena.cost(p);
    let step = pareto_step_in(
        arena,
        p,
        model,
        cfg.policy,
        cfg.mutations,
        &mut StepScratch::default(),
    );
    !step
        .iter()
        .any(|&m| arena.cost(m).strictly_dominates(&cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::StubModel;
    use crate::mutations::{join_preferring_in, root_mutations_in};
    use crate::optimizer::{AbortCheck, StopFlag};
    use crate::random_plan::{random_left_deep_plan_in, random_plan_in};
    use crate::tables::TableSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, dim: usize, seed: u64) -> (StubModel, TableSet) {
        (StubModel::line(n, dim, seed), TableSet::prefix(n))
    }

    /// The eager formulation of `ParetoStep`: every candidate is built and
    /// interned — the recombined plan by `join_preferring_in`, its
    /// neighbors by `root_mutations_in` — and then offered, in order, to a
    /// fresh frontier. `pareto_step_in` defers interning to admission,
    /// costs an operand pair in one batch and reuses one frontier; it must
    /// return exactly these ids.
    fn eager_step(
        arena: &mut PlanArena,
        p: PlanId,
        m: &StubModel,
        policy: PrunePolicy,
        mutations: MutationSet,
    ) -> Vec<PlanId> {
        let mut candidates = Vec::new();
        match arena.node(p).kind() {
            PlanNodeKind::Scan { .. } => {
                candidates.push(p);
                root_mutations_in(arena, p, m, mutations, &mut candidates);
            }
            PlanNodeKind::Join { outer, inner, op } => {
                let outer_step = eager_step(arena, outer, m, policy, mutations);
                let inner_step = eager_step(arena, inner, m, policy, mutations);
                for &o in &outer_step {
                    for &i in &inner_step {
                        let Some(rebuilt) = join_preferring_in(arena, m, o, i, &[op]) else {
                            continue;
                        };
                        candidates.push(rebuilt);
                        root_mutations_in(arena, rebuilt, m, mutations, &mut candidates);
                    }
                }
            }
        }
        let admission = Admission::climb(policy);
        let mut frontier = ParetoSet::new();
        for c in candidates {
            let v = arena.view(c);
            frontier.admit(&v.cost, v.format, &admission, || c);
        }
        frontier.into_plans()
    }

    #[test]
    fn pareto_step_matches_materializing_reference() {
        // Hash-consing makes equal ids equal plans, so the deferred step
        // and the eager one must agree id for id, in order.
        for (n, dim, mutations) in [
            (5usize, 2usize, MutationSet::Bushy),
            (7, 3, MutationSet::Bushy),
            (9, 2, MutationSet::Bushy),
            (7, 2, MutationSet::LeftDeep),
            (9, 3, MutationSet::LeftDeep),
        ] {
            let (m, q) = setup(n, dim, 13);
            let mut arena = PlanArena::new();
            let mut scratch = StepScratch::default();
            let mut rng = StdRng::seed_from_u64(21);
            // Literal-policy step frontiers multiply up the tree: past seven
            // tables one eager step takes minutes in a debug build.
            let policies: &[PrunePolicy] = if n <= 7 {
                &[PrunePolicy::OnePerFormat, PrunePolicy::KeepIncomparable]
            } else {
                &[PrunePolicy::OnePerFormat]
            };
            for &policy in policies {
                for _ in 0..8 {
                    let p = match mutations {
                        MutationSet::Bushy => random_plan_in(&mut arena, &m, q, &mut rng),
                        MutationSet::LeftDeep => {
                            random_left_deep_plan_in(&mut arena, &m, q, &mut rng)
                        }
                    };
                    let fast = pareto_step_in(&mut arena, p, &m, policy, mutations, &mut scratch);
                    let eager = eager_step(&mut arena, p, &m, policy, mutations);
                    assert_eq!(
                        fast, eager,
                        "step diverged (n={n}, dim={dim}, {mutations:?}, {policy:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn pareto_step_returns_valid_plans() {
        let (m, q) = setup(6, 2, 3);
        let mut arena = PlanArena::new();
        let p = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(1));
        let mut scratch = StepScratch::default();
        for policy in [PrunePolicy::OnePerFormat, PrunePolicy::KeepIncomparable] {
            let step = pareto_step_in(&mut arena, p, &m, policy, MutationSet::Bushy, &mut scratch);
            assert!(!step.is_empty());
            for &s in &step {
                assert!(arena.validate(s, q).is_ok());
            }
        }
    }

    #[test]
    fn pareto_step_never_returns_only_worse_plans() {
        // The identity combination guarantees a plan at least as good as p
        // is always among the candidates.
        let (m, q) = setup(8, 2, 5);
        let mut arena = PlanArena::new();
        let mut scratch = StepScratch::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let p = random_plan_in(&mut arena, &m, q, &mut rng);
            let cost = arena.cost(p);
            let step = pareto_step_in(
                &mut arena,
                p,
                &m,
                PrunePolicy::OnePerFormat,
                MutationSet::Bushy,
                &mut scratch,
            );
            assert!(
                step.iter()
                    .any(|&s| arena.cost(s).dominates(&cost)
                        || !cost.strictly_dominates(&arena.cost(s))),
                "step lost all non-worse candidates"
            );
        }
    }

    #[test]
    fn left_deep_climb_stays_left_deep_and_ends_on_a_local_optimum() {
        let (m, q) = setup(7, 2, 23);
        let cfg = ClimbConfig {
            mutations: MutationSet::LeftDeep,
            ..ClimbConfig::default()
        };
        let mut arena = PlanArena::new();
        for seed in [5u64, 6] {
            let start =
                random_left_deep_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(seed));
            let (opt, _) =
                pareto_climb_in(&mut arena, start, &m, &cfg, &mut StepScratch::default());
            assert!(arena.is_left_deep(opt));
            assert!(is_local_optimum_in(&mut arena, opt, &m, &cfg));
        }
    }

    #[test]
    fn naive_left_deep_climb_stays_left_deep() {
        // The naive climb walks the neighborhood of `cfg.mutations`: from a
        // left-deep start under the left-deep rules it must never leave the
        // left-deep space (on these seeds, climbing the bushy neighborhood
        // instead ends on a bushy plan).
        let (m, q) = setup(7, 2, 23);
        let cfg = ClimbConfig {
            mutations: MutationSet::LeftDeep,
            ..ClimbConfig::default()
        };
        let mut arena = PlanArena::new();
        for seed in [1u64, 5] {
            let start =
                random_left_deep_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(seed));
            let (opt, stats) = naive_climb_in(&mut arena, start, &m, &cfg);
            assert!(stats.steps > 0, "seed {seed}: the climb never moved");
            assert!(
                arena.is_left_deep(opt),
                "seed {seed}: left the left-deep space: {}",
                arena.display(opt, &m)
            );
        }
    }

    #[test]
    fn aborting_climb_with_never_condition_matches_plain_climb() {
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
                &AbortCheck::never(),
            );
            assert!(!aborted);
            assert_eq!(st1, st2);
            assert_eq!(a1.display(o1, &m), a2.display(o2, &m));
        }
    }

    #[test]
    fn aborting_climb_stops_before_the_first_step_when_flag_is_up() {
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
            &AbortCheck::new(flag, None),
        );
        assert!(aborted);
        assert_eq!(stats.steps, 0);
        assert_eq!(opt, start, "no move may happen after the flag is raised");
    }

    #[test]
    fn one_per_format_bounds_step_size() {
        let (m, q) = setup(10, 3, 7);
        let mut arena = PlanArena::new();
        let p = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(3));
        let step = pareto_step_in(
            &mut arena,
            p,
            &m,
            PrunePolicy::OnePerFormat,
            MutationSet::Bushy,
            &mut StepScratch::default(),
        );
        assert!(
            step.len() <= 2,
            "StubModel has 2 formats; got {} plans",
            step.len()
        );
    }

    #[test]
    fn climb_reaches_local_optimum() {
        let (m, q) = setup(7, 2, 11);
        let cfg = ClimbConfig::default();
        let mut arena = PlanArena::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = StepScratch::default();
        for _ in 0..10 {
            let start = random_plan_in(&mut arena, &m, q, &mut rng);
            let (opt, stats) = pareto_climb_in(&mut arena, start, &m, &cfg, &mut scratch);
            assert!(arena.validate(opt, q).is_ok());
            // The result must weakly improve on the start in the Pareto sense:
            // it is never strictly dominated by the start.
            assert!(!arena.cost(start).strictly_dominates(&arena.cost(opt)));
            assert!(is_local_optimum_in(&mut arena, opt, &m, &cfg));
            assert!(stats.steps < cfg.max_steps);
        }
    }

    #[test]
    fn climb_strictly_improves_bad_starts() {
        // Over several random starts, at least one climb must make a strict
        // improvement (otherwise climbing is vacuous on this model).
        let (m, q) = setup(9, 2, 13);
        let mut arena = PlanArena::new();
        let mut scratch = StepScratch::default();
        let mut rng = StdRng::seed_from_u64(5);
        let improved = (0..10)
            .filter(|_| {
                let start = random_plan_in(&mut arena, &m, q, &mut rng);
                let cfg = ClimbConfig::default();
                let (opt, _) = pareto_climb_in(&mut arena, start, &m, &cfg, &mut scratch);
                arena.cost(opt).strictly_dominates(&arena.cost(start))
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
        // neighborhood — see `is_local_optimum_in`.)
        let (m, q) = setup(6, 2, 17);
        let literal = ClimbConfig {
            policy: PrunePolicy::KeepIncomparable,
            ..ClimbConfig::default()
        };
        let mut arena = PlanArena::new();
        let mut scratch = StepScratch::default();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..5 {
            let start = random_plan_in(&mut arena, &m, q, &mut rng);
            let (fast, _) = pareto_climb_in(&mut arena, start, &m, &literal, &mut scratch);
            let (naive, _) = naive_climb_in(&mut arena, start, &m, &ClimbConfig::default());
            for (name, opt) in [("literal", fast), ("naive", naive)] {
                let cost = arena.cost(opt);
                let improving = all_neighbors_in(&mut arena, opt, &m, MutationSet::Bushy)
                    .iter()
                    .any(|&nb| arena.cost(nb).strictly_dominates(&cost));
                assert!(!improving, "{name} climb ended in a non-optimum");
            }
        }
    }

    #[test]
    fn fast_climb_uses_fewer_steps_than_naive() {
        // The multi-mutation step should generally need no more improving
        // moves than single-mutation climbing (it applies several at once).
        let (m, q) = setup(12, 2, 23);
        let cfg = ClimbConfig::default();
        let mut arena = PlanArena::new();
        let mut scratch = StepScratch::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut fast_total = 0usize;
        let mut naive_total = 0usize;
        for _ in 0..10 {
            let start = random_plan_in(&mut arena, &m, q, &mut rng);
            fast_total += pareto_climb_in(&mut arena, start, &m, &cfg, &mut scratch)
                .1
                .steps;
            naive_total += naive_climb_in(&mut arena, start, &m, &cfg).1.steps;
        }
        assert!(
            fast_total <= naive_total,
            "fast climbing took more steps ({fast_total}) than naive ({naive_total})"
        );
    }

    #[test]
    fn max_steps_is_respected() {
        let (m, q) = setup(10, 2, 29);
        let mut arena = PlanArena::new();
        let start = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(8));
        let cfg = ClimbConfig {
            max_steps: 1,
            ..ClimbConfig::default()
        };
        let (_, stats) = pareto_climb_in(&mut arena, start, &m, &cfg, &mut StepScratch::default());
        assert!(stats.steps <= 1);
    }

    #[test]
    fn single_metric_climb_matches_classic_hill_climbing() {
        // With one metric, strict dominance is "strictly lower cost": the
        // climb must be monotonically decreasing.
        let (m, q) = setup(8, 1, 31);
        let mut arena = PlanArena::new();
        let start = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(9));
        let (opt, _) = pareto_climb_in(
            &mut arena,
            start,
            &m,
            &ClimbConfig::default(),
            &mut StepScratch::default(),
        );
        assert!(arena.cost(opt)[0] <= arena.cost(start)[0]);
    }
}
