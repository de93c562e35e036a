//! The arena climb's steady state is allocation-free: with a reused
//! `StepScratch` and a cleared (capacity-keeping) arena, a climb takes its
//! step frontier, its buffers and its step results from the scratch.
//!
//! The counting allocator (`tests/common/counting_alloc.rs`) counts per
//! thread and only while asked to.

use moqo_core::arena::PlanArena;
use moqo_core::climb::{pareto_climb_in, ClimbConfig, StepScratch};
use moqo_core::random_plan::random_plan_in;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn third_climb_over_reused_scratch_and_cleared_arena_allocates_nothing() {
    let (catalog, query) = WorkloadSpec::chain(12, 3).generate();
    let model = ResourceCostModel::new(catalog, &[ResourceMetric::Time, ResourceMetric::Buffer]);
    let cfg = ClimbConfig::default();
    let mut arena = PlanArena::new();
    let mut scratch = StepScratch::default();
    let mut allocations = Vec::new();
    let mut steps = Vec::new();
    for _ in 0..3 {
        // What the RMQ loop does per iteration: clear the transient arena,
        // draw a plan into it, climb with the long-lived scratch.
        arena.clear();
        let mut rng = StdRng::seed_from_u64(3);
        let start = random_plan_in(&mut arena, &model, query.tables(), &mut rng);
        let ((_, stats), allocated) = counting_alloc::count(|| {
            pareto_climb_in(&mut arena, start, &model, &cfg, &mut scratch)
        });
        allocations.push(allocated);
        steps.push(stats.steps as u64);
    }
    assert!(steps[2] >= 2, "climb too short to say much: {steps:?}");
    assert!(allocations[0] > 0, "the first climb grows the buffers");
    // The issue asked for at most one allocation per recursion node and
    // step (the seed commit made about eleven); the reused scratch needs
    // none at all.
    assert_eq!(
        allocations[2], 0,
        "third climb allocated (all climbs: {allocations:?}, steps: {steps:?})"
    );
}
