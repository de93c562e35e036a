//! What one optimizer session holds on the heap. The partial-plan cache
//! keeps a frontier for every intermediate result the session ever climbed
//! through and the arena keeps every node, so their layout — not the work
//! done — decides a session's memory. Pinned on a seeded 3-metric, 20-table
//! chain session after 200 iterations, measured with the counting
//! allocator of `tests/common/counting_alloc.rs`.

use moqo_core::arena::PlanNode;
use moqo_core::pareto::SOA_CROSSOVER;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_workload::WorkloadSpec;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

/// Live heap of the fixture session at the commit before cost vectors were
/// stored at the session's dimension and frontiers lost their per-format
/// bucket maps, in bytes.
const PARENT_LIVE_BYTES: i64 = 9_054_296;

fn model() -> (ResourceCostModel, TableSet) {
    let (catalog, query) = WorkloadSpec::chain(20, 3).generate();
    let metrics = [
        ResourceMetric::Time,
        ResourceMetric::Buffer,
        ResourceMetric::Disk,
    ];
    (ResourceCostModel::new(catalog, &metrics), query.tables())
}

fn session(
    model: &ResourceCostModel,
    query: TableSet,
    iterations: usize,
) -> Rmq<&ResourceCostModel> {
    let mut rmq = Rmq::new(model, query, RmqConfig::seeded(1));
    for _ in 0..iterations {
        rmq.iterate();
    }
    rmq
}

#[test]
fn a_session_holds_at_most_55_percent_of_the_parent_s_heap() {
    let (model, query) = model();
    // Process-wide telemetry allocates on first use: not the session's.
    drop(session(&model, query, 2));
    let (rmq, tally) = counting_alloc::tally(|| session(&model, query, 200));
    let cache = rmq.cache();
    println!(
        "live heap {} B in {} blocks; {} table sets, {} cached plans, {} arena nodes",
        tally.live_bytes,
        tally.live_blocks,
        cache.num_table_sets(),
        cache.total_plans(),
        rmq.arena().len()
    );
    assert!(
        tally.live_bytes * 100 <= PARENT_LIVE_BYTES * 55,
        "live heap {} B, parent {PARENT_LIVE_BYTES} B",
        tally.live_bytes
    );
}

#[test]
fn a_cached_frontier_below_the_crossover_owns_two_heap_blocks() {
    let (model, query) = model();
    let rmq = session(&model, query, 200);
    let small: Vec<_> = rmq
        .cache()
        .entry_sets()
        .map(|(_, set)| set)
        .filter(|set| set.len() * 3 < SOA_CROSSOVER)
        .collect();
    assert!(small.len() > 1000, "fixture: {} sets", small.len());
    // A clone allocates what the original owns: one block per non-empty
    // array.
    let (clones, tally) =
        counting_alloc::tally(|| small.iter().map(|&s| s.clone()).collect::<Vec<_>>());
    let blocks = tally.live_blocks - 1; // the `Vec` of clones
    println!("{} sets, {blocks} blocks", clones.len());
    assert!(
        blocks <= 2 * clones.len() as i64,
        "{blocks} heap blocks for {} sets",
        clones.len()
    );
}

#[test]
fn an_arena_node_fits_in_48_bytes() {
    assert!(std::mem::size_of::<PlanNode>() <= 48);
}
