//! The delta exchange of `ParRmq`: an exchange point offers and absorbs what
//! changed since the worker's last one, and that carries the same
//! information as re-offering the whole cache.
//!
//! The replays are single-threaded and seeded: two `Rmq` workers take turns
//! (iterate `k` times, publish, absorb), so every count repeats exactly. The
//! workers prune exactly ([`ArchiveConfig::exact`]): a frontier is then the
//! non-dominated subset of everything it was ever offered, whatever the
//! order — and order is the one thing the two replays do not share (a full
//! republish walks the cache's hash map, a delta publish the change list).
//! Under approximate pruning the order a worker absorbs plans in decides
//! which of two nearby plans it keeps, and the replays would drift apart
//! without either being wrong.

use moqo_core::archive::ArchiveConfig;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_parallel::{ExchangePort, ExchangeStats, SharedFrontier};
use moqo_workload::WorkloadSpec;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

fn chain(n: usize) -> (ResourceCostModel, TableSet) {
    let (catalog, query) = WorkloadSpec::chain(n, 3).generate();
    let model = ResourceCostModel::new(catalog, &[ResourceMetric::Time, ResourceMetric::Buffer]);
    (model, query.tables())
}

/// A cost set as sorted bit patterns (costs carry no order of their own).
fn bits<'a>(costs: impl Iterator<Item = &'a moqo_core::CostVector>) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = costs
        .map(|c| c.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    out.sort();
    out
}

#[derive(Clone, Copy)]
enum Publish {
    /// `ExchangePort::publish_partials`: the change list.
    Delta,
    /// Every multi-table sub-query frontier of the cache, whole, through the
    /// public `SharedFrontier` API — what `ParRmq` did before.
    Full,
}

struct Replay {
    stats: ExchangeStats,
    /// Shared sub-query frontiers, sorted by table set.
    shared: Vec<(TableSet, Vec<Vec<u64>>)>,
    /// Each worker's query frontier.
    frontiers: Vec<Vec<Vec<u64>>>,
    iterations: u64,
}

/// Two workers over an `n`-table chain, `rounds` turns each of `k`
/// iterations + publish (+ absorb).
fn replay(
    n: usize,
    archive: ArchiveConfig,
    (rounds, k): (usize, usize),
    mode: Publish,
    absorb: bool,
) -> Replay {
    let (model, query) = chain(n);
    let shared = SharedFrontier::new();
    let mut workers: Vec<(Rmq<&ResourceCostModel>, ExchangePort)> = (0..2u32)
        .map(|w| {
            let cfg = RmqConfig {
                archive,
                ..RmqConfig::seeded(41 ^ u64::from(w))
            };
            (Rmq::new(&model, query, cfg), ExchangePort::new(w))
        })
        .collect();
    for _ in 0..rounds {
        for (w, (rmq, port)) in workers.iter_mut().enumerate() {
            for _ in 0..k {
                rmq.iterate();
            }
            port.publish_frontier(rmq, &shared);
            match mode {
                Publish::Delta => {
                    port.publish_partials(rmq, &shared);
                }
                Publish::Full => {
                    let sets = rmq
                        .cache()
                        .entry_sets()
                        .filter(|(rel, _)| *rel != query && !rel.is_singleton())
                        .map(|(rel, set)| (rel, set, 0));
                    shared.publish_partials_as(w as u32, rmq.arena(), sets);
                }
            }
            if absorb {
                port.absorb(rmq, &shared);
            }
        }
    }
    let mut shared_costs: Vec<_> = shared
        .partial_costs()
        .into_iter()
        .map(|(rel, costs)| (rel, bits(costs.iter())))
        .collect();
    shared_costs.sort();
    Replay {
        stats: shared.stats(),
        shared: shared_costs,
        frontiers: workers
            .iter()
            .map(|(rmq, _)| bits(rmq.frontier_set().expect("iterated").costs()))
            .collect(),
        iterations: (2 * rounds * k) as u64,
    }
}

#[test]
fn delta_and_full_republish_end_on_the_same_frontiers() {
    let run = |mode| replay(9, ArchiveConfig::exact(), (10, 3), mode, true);
    let (delta, full) = (run(Publish::Delta), run(Publish::Full));
    assert!(delta.stats.partial_merged > 0 && delta.stats.absorbed > 0);
    assert!(delta.shared.len() > 9, "sub-query frontiers were shared");
    assert!(
        delta.shared == full.shared,
        "shared sub-query frontiers differ"
    );
    assert!(
        delta.frontiers == full.frontiers,
        "a worker's query frontier differs"
    );
    assert_eq!(delta.stats.partial_merged, full.stats.partial_merged);
    assert_eq!(delta.stats.merged, full.stats.merged);
    assert_eq!(delta.stats.absorbed, full.stats.absorbed);
}

/// At n = 20 exact frontiers are out of reach, so the workers prune as the
/// paper does — and do not absorb, which keeps their runs identical across
/// the two replays (see the file docs) and the merge counts comparable.
#[test]
fn delta_publish_offers_a_tenth_of_a_full_republish_and_merges_the_same() {
    let run = |mode| replay(20, ArchiveConfig::paper(), (24, 4), mode, false);
    let (delta, full) = (run(Publish::Delta), run(Publish::Full));
    assert!(delta.shared == full.shared);
    assert_eq!(delta.stats.partial_merged, full.stats.partial_merged);
    let per_iteration = |r: &Replay| r.stats.partial_offered as f64 / r.iterations as f64;
    assert!(
        per_iteration(&full) >= 10.0 * per_iteration(&delta),
        "offered per iteration: full {:.1}, delta {:.1}",
        per_iteration(&full),
        per_iteration(&delta)
    );
    // A plan is offered once; most of what is offered is news.
    assert!(
        delta.stats.partial_merged * 2 > delta.stats.partial_offered,
        "{:?}",
        delta.stats
    );
    // The counts repeat exactly.
    assert_eq!(
        run(Publish::Delta).stats.partial_offered,
        delta.stats.partial_offered
    );
}

#[test]
fn an_exchange_with_nothing_new_offers_probes_and_allocates_nothing() {
    let (model, query) = chain(10);
    let shared = SharedFrontier::new();
    let mut workers: Vec<(Rmq<&ResourceCostModel>, ExchangePort)> = (0..2u32)
        .map(|w| {
            (
                Rmq::new(&model, query, RmqConfig::seeded(7 ^ u64::from(w))),
                ExchangePort::new(w),
            )
        })
        .collect();
    // Two full turns: after the second, either worker has published all it
    // knows and absorbed all the other published.
    for turn in 0..2 {
        for (rmq, port) in workers.iter_mut() {
            if turn == 0 {
                for _ in 0..12 {
                    rmq.iterate();
                }
            }
            port.publish_frontier(rmq, &shared);
            port.publish_partials(rmq, &shared);
            port.absorb(rmq, &shared);
        }
    }
    let before = shared.stats();
    assert!(before.partial_merged > 0 && before.absorbed > 0);
    for (rmq, port) in workers.iter_mut() {
        let probes = rmq.cache().counters();
        let ((merged, absorbed), allocations) = counting_alloc::count(|| {
            (
                port.publish_partials(rmq, &shared),
                port.absorb(rmq, &shared),
            )
        });
        assert_eq!((merged, absorbed), (0, 0));
        assert_eq!(rmq.cache().counters(), probes, "the cache was probed");
        assert_eq!(allocations, 0);
    }
    let after = shared.stats();
    assert_eq!(after.partial_offered, before.partial_offered);
    assert_eq!(after.partial_epochs, before.partial_epochs);
    assert_eq!(after.absorbed, before.absorbed);
}
