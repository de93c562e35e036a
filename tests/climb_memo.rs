//! The per-climb `ParetoStep` memo of the arena climb: it must save cost
//! model work without changing a single move, and it must never answer from
//! an arena other than the one it was filled in.

mod common;

use common::CountingModel;

use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::climb::{pareto_climb_in, pareto_step_in, ClimbConfig, StepScratch};
use moqo_core::mutations::MutationSet;
use moqo_core::pareto::PrunePolicy;
use moqo_core::random_plan::random_plan_in;
use moqo_core::tables::TableSet;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model(tables: usize, seed: u64) -> (CountingModel, TableSet) {
    let (catalog, query) = WorkloadSpec::chain(tables, seed).generate();
    let inner = ResourceCostModel::new(catalog, &[ResourceMetric::Time, ResourceMetric::Buffer]);
    (CountingModel::new(inner), query.tables())
}

fn step(arena: &mut PlanArena, p: PlanId, m: &CountingModel, s: &mut StepScratch) -> Vec<PlanId> {
    pareto_step_in(
        arena,
        p,
        m,
        PrunePolicy::OnePerFormat,
        MutationSet::Bushy,
        s,
    )
}

#[test]
fn memoised_climb_costs_less_than_memo_free_steps_and_moves_the_same() {
    let cfg = ClimbConfig::default();
    for seed in 1u64..=12 {
        let (m, q) = model(12, seed);
        let mut arena = PlanArena::new();
        let start = random_plan_in(&mut arena, &m, q, &mut StdRng::seed_from_u64(seed));
        m.take_costings();
        let (opt, stats) =
            pareto_climb_in(&mut arena, start, &m, &cfg, &mut StepScratch::default());
        let climb_costings = m.take_costings();

        // The memo-free reference: the same climb spelled out as stand-alone
        // steps (each drops the memo), in a fresh arena. `(steps + 1) x` one
        // step of the local optimum would be no yardstick: steps early in a
        // climb cost more than the last one.
        let mut arena2 = PlanArena::new();
        let start2 = random_plan_in(&mut arena2, &m, q, &mut StdRng::seed_from_u64(seed));
        m.take_costings();
        let mut scratch = StepScratch::default();
        let mut current = start2;
        let mut path = 0;
        loop {
            let cost = *arena2.node(current).cost();
            let next = step(&mut arena2, current, &m, &mut scratch)
                .into_iter()
                .find(|&c| arena2.node(c).cost().strictly_dominates(&cost));
            match next {
                Some(better) => {
                    current = better;
                    path += 1;
                }
                None => break,
            }
        }
        let memo_free_costings = m.take_costings();
        assert_eq!(stats.steps, path, "seed {seed}: path lengths differ");
        assert_eq!(
            arena.display(opt, &m),
            arena2.display(current, &m),
            "seed {seed}: the memo changed the local optimum"
        );

        assert!(stats.steps >= 2, "seed {seed}: climb too short to say much");
        assert!(
            climb_costings < memo_free_costings,
            "seed {seed}: {climb_costings} costings with the memo, {memo_free_costings} without"
        );
    }
}

#[test]
fn a_scratch_that_served_another_arena_answers_like_a_fresh_one() {
    // Both arenas number their nodes from zero, so a memo surviving from
    // the first would answer for unrelated plans in the second.
    let (m, q) = model(10, 11);
    let mut a = PlanArena::new();
    let mut b = PlanArena::new();
    let pa = random_plan_in(&mut a, &m, q, &mut StdRng::seed_from_u64(1));
    let pb = random_plan_in(&mut b, &m, q, &mut StdRng::seed_from_u64(2));
    assert_eq!(pa, pb, "same node count, same root id");
    assert_ne!(a.display(pa, &m), b.display(pb, &m));

    let shown = |arena: &PlanArena, ids: &[PlanId]| -> Vec<String> {
        ids.iter().map(|&id| arena.display(id, &m)).collect()
    };
    let fresh_a = step(&mut a, pa, &m, &mut StepScratch::default());
    let fresh_b = step(&mut b, pb, &m, &mut StepScratch::default());

    let mut shared = StepScratch::default();
    let shared_a = step(&mut a, pa, &m, &mut shared);
    let shared_b = step(&mut b, pb, &m, &mut shared);
    assert_eq!(shown(&a, &shared_a), shown(&a, &fresh_a));
    assert_eq!(shown(&b, &shared_b), shown(&b, &fresh_b));

    // Likewise a climb after a step, and a climb in a cleared arena.
    let cfg = ClimbConfig::default();
    let (opt_fresh, stats_fresh) =
        pareto_climb_in(&mut a, pa, &m, &cfg, &mut StepScratch::default());
    let (opt_shared, stats_shared) = pareto_climb_in(&mut a, pa, &m, &cfg, &mut shared);
    assert_eq!((opt_shared, stats_shared), (opt_fresh, stats_fresh));
    let expected = a.display(opt_fresh, &m);
    a.clear();
    let again = random_plan_in(&mut a, &m, q, &mut StdRng::seed_from_u64(1));
    let (opt_again, stats_again) = pareto_climb_in(&mut a, again, &m, &cfg, &mut shared);
    assert_eq!(stats_again, stats_fresh);
    assert_eq!(a.display(opt_again, &m), expected);
}
