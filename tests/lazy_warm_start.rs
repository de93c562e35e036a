//! The lazy warm start of `Rmq`: absorbed plans are parked by table set and
//! enter the plan cache when a climbed plan first contains their set.
//!
//! The frontier approximation reads and writes only the table sets of the
//! plan it just climbed, and per-table-set frontiers are independent. So a
//! session that imports a parked frontier right before it first touches the
//! set computes what a session that imported everything up front computes —
//! (a) pins that against values recorded with the eager import — while the
//! sets it never touches cost it one `Arc` clone each (b), live sets behave
//! as before (c), a finished session exports what it found and not what it
//! was given (d), and a session that was never warm-started pays nothing (f).
//! The service-level half, (e), is `crates/service/tests/service.rs`'s
//! `serial_sessions_leave_the_cache_as_an_echoing_publish_did`.

use std::collections::{BTreeMap, BTreeSet};

use moqo_core::archive::{Admission, ArchiveConfig, EpsFactors};
use moqo_core::cache::PlanCache;
use moqo_core::optimizer::PlanExchange;
use moqo_core::plan::PlanRef;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_workload::WorkloadSpec;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

type Session<'m> = Rmq<&'m ResourceCostModel>;

fn chain(n: usize) -> (ResourceCostModel, TableSet) {
    let (catalog, query) = WorkloadSpec::chain(n, 3).generate();
    let model = ResourceCostModel::new(catalog, &[ResourceMetric::Time, ResourceMetric::Buffer]);
    (model, query.tables())
}

fn session(
    model: &ResourceCostModel,
    query: TableSet,
    seed: u64,
    iterations: usize,
) -> Session<'_> {
    let mut rmq = Rmq::new(model, query, RmqConfig::seeded(seed));
    for _ in 0..iterations {
        rmq.iterate();
    }
    rmq
}

/// What a 60-iteration donor over `query` exports.
fn donor_export(model: &ResourceCostModel, query: TableSet) -> Vec<PlanRef> {
    session(model, query, 11, 60).export_plans()
}

fn bits(cost: &moqo_core::CostVector) -> Vec<u64> {
    cost.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over 64-bit words.
fn digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A plan's identity across arenas: its table set and its algebra string.
fn identity(model: &ResourceCostModel, plan: &PlanRef) -> (TableSet, String) {
    (plan.rel(), plan.display(model))
}

/// Every cached plan of `rmq`, exported, by table set in frontier order.
fn cached(rmq: &Session<'_>) -> BTreeMap<TableSet, Vec<PlanRef>> {
    rmq.cache()
        .entries()
        .map(|(rel, ids)| (rel, ids.iter().map(|&id| rmq.arena().export(id)).collect()))
        .collect()
}

// (a) ------------------------------------------------------------------------

/// Recorded at the parent commit (eager import), `chain(10)`, a fresh
/// 40-iteration session warm-started from the donor's export: per donor,
/// archive and session seed, the digest of the convergence checkpoints
/// (iteration, then every frontier cost bit, at iterations 1, 2, 4, .., 32)
/// and the cost bits of the final query frontier in frontier order.
struct Pinned {
    donor_tables: usize,
    eps_box: bool,
    seed: u64,
    trajectory: u64,
    frontier: &'static [[u64; 2]],
}

const PAPER_FULL: &[[u64; 2]] = &[
    [0x40a7066f3aa51ebe, 0x40562812b5fbe844],
    [0x40a70674595d70aa, 0x40562812b5fbe844],
];

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    // The donor optimized the same query: its frontier dominates the run.
    Pinned { donor_tables: 10, eps_box: false, seed: 1, trajectory: 0x4128d90a58c265c6, frontier: PAPER_FULL },
    Pinned { donor_tables: 10, eps_box: false, seed: 2, trajectory: 0x4128d90a58c265c6, frontier: PAPER_FULL },
    Pinned { donor_tables: 10, eps_box: false, seed: 3, trajectory: 0x4128d90a58c265c6, frontier: PAPER_FULL },
    Pinned { donor_tables: 10, eps_box: true, seed: 1, trajectory: 0x4ff1e80189845dcc, frontier: &[
        [0x40afc78fbaee9cfa, 0x402cec3e3acea92e], [0x40afc794d9a6eee5, 0x402cec3e3acea92e],
        [0x40a680e45926f234, 0x403cd73e13549c9a], [0x40a680e977df441f, 0x403cd73e13549c9a],
    ] },
    Pinned { donor_tables: 10, eps_box: true, seed: 2, trajectory: 0xe204ad9563ac2ed0, frontier: &[
        [0x40a93068e6f561de, 0x404068111b91fbcd], [0x40a9306e05adb3c9, 0x404068111b91fbcd],
        [0x40afc79c363a183a, 0x402cfdb7a47b34b2], [0x40afc7a154f26a25, 0x402cfdb7a47b34b2],
    ] },
    Pinned { donor_tables: 10, eps_box: true, seed: 3, trajectory: 0x98585670396f1cdb, frontier: &[
        [0x40afc79c363a1839, 0x402cfdb7a47b34b2], [0x40a680e45926f234, 0x403cd73e13549c9a],
        [0x40a680e977df441f, 0x403cd73e13549c9a], [0x40afc7a154f26a24, 0x402cfdb7a47b34b2],
    ] },
    // The donor optimized a 7-table sub-query, as a service's earlier
    // sessions have: only sub-query frontiers arrive, all of them parked.
    Pinned { donor_tables: 7, eps_box: false, seed: 1, trajectory: 0x8549b46d4f7ad0ce, frontier: &[
        [0x40a705d1da14c3d2, 0x40560b4d61ea0b99], [0x40a705d6f8cd15be, 0x40560b4d61ea0b99],
    ] },
    Pinned { donor_tables: 7, eps_box: false, seed: 2, trajectory: 0xb4763c879c3f4c8c, frontier: &[
        [0x40a705cad30ddd3f, 0x40550c32c22b94d0], [0x40a705cff1c62f2a, 0x40550c32c22b94d0],
    ] },
    Pinned { donor_tables: 7, eps_box: false, seed: 3, trajectory: 0xa081312b1dcd7406, frontier: &[
        [0x40a74863db5af8c1, 0x405616a56f1d5d90], [0x40a74868fa134aad, 0x405616a56f1d5d90],
    ] },
];

#[test]
fn a_lazily_warm_started_session_computes_what_an_eagerly_started_one_did() {
    let (model, query) = chain(10);
    for pinned in PINNED {
        let export = donor_export(&model, TableSet::prefix(pinned.donor_tables));
        let archive = if pinned.eps_box {
            ArchiveConfig::eps_box(EpsFactors::splat(1.5))
        } else {
            ArchiveConfig::paper()
        };
        let cfg = RmqConfig {
            archive,
            ..RmqConfig::seeded(pinned.seed)
        };
        let mut rmq = Rmq::new(&model, query, cfg);
        assert_eq!(rmq.absorb_plans(&export), export.len());
        for _ in 0..40 {
            rmq.iterate();
        }
        let what = format!(
            "donor over {} tables, eps_box {}, seed {}",
            pinned.donor_tables, pinned.eps_box, pinned.seed
        );
        let trajectory = digest(rmq.convergence_points().iter().flat_map(|p| {
            std::iter::once(p.iteration).chain(p.frontier_costs.iter().flat_map(bits))
        }));
        assert_eq!(trajectory, pinned.trajectory, "checkpoints, {what}");
        let frontier: Vec<Vec<u64>> = rmq.frontier_set().expect("ran").costs().map(bits).collect();
        assert_eq!(frontier, pinned.frontier, "final frontier, {what}");
        // The lazy import was exercised, and not as an eager one in disguise.
        let warm = rmq.warm_start_stats();
        assert!(0 < warm.imported && warm.imported < warm.parked, "{what}");
    }
}

// (b) ------------------------------------------------------------------------

#[test]
fn table_sets_the_session_never_touches_are_never_materialized() {
    let (model, query) = chain(10);
    let export = donor_export(&model, query);
    let mut warm = Rmq::new(&model, query, RmqConfig::seeded(2));
    let accepted = warm.absorb_plans(&export);
    // Right after the warm start only the query's own frontier is live.
    let at_once = warm.cache().frontier(query).len();
    assert!(at_once > 0, "the donor exported query plans");
    assert_eq!(warm.cache().num_table_sets(), 1);
    assert_eq!(warm.cache().total_plans(), at_once);
    let stats = warm.warm_start_stats();
    assert_eq!(accepted as u64, at_once as u64 + stats.parked);
    assert_eq!(stats.imported, 0);
    let live_nodes = warm.arena().len();
    for _ in 0..40 {
        warm.iterate();
    }
    // Climbs do not read the cache, so a cold session with the same seed
    // climbed the same plans: its cache names exactly the touched sets.
    let cold = session(&model, query, 2, 40);
    let sets = |rmq: &Session| -> BTreeSet<TableSet> {
        rmq.cache().entries().map(|(rel, _)| rel).collect()
    };
    assert_eq!(sets(&warm), sets(&cold));
    let stats = warm.warm_start_stats();
    let mut still_parked = 0;
    for (rel, plans) in warm.parked_sets() {
        assert!(plans > 0);
        assert!(
            warm.cache().frontier_set(rel).is_none(),
            "{rel} is both parked and cached"
        );
        still_parked += plans as u64;
    }
    assert!(still_parked > 0, "the fixture leaves sets untouched");
    assert_eq!(still_parked + stats.imported, stats.parked);
    assert_eq!(accepted as u64, at_once as u64 + stats.parked);

    // Absorb, then drop without iterating: nothing but the query frontier
    // was ever imported.
    let mut idle = Rmq::new(&model, query, RmqConfig::seeded(3));
    idle.absorb_plans(&export);
    assert_eq!(idle.arena().len(), live_nodes);
    assert_eq!(idle.cache().total_plans(), at_once);
    assert_eq!(idle.warm_start_stats().imported, 0);
}

// (c) ------------------------------------------------------------------------

#[test]
fn a_plan_for_a_live_table_set_is_admitted_at_once_as_before() {
    let (model, query) = chain(10);
    let export = donor_export(&model, query);
    // The `ParRmq` case: the absorber has been running.
    let mut rmq = session(&model, query, 4, 12);
    let before = cached(&rmq);
    let (kept_before, _) = rmq.cache().counters();
    let accepted = rmq.absorb_plans(&export);
    let (kept_after, _) = rmq.cache().counters();
    let parked: BTreeMap<TableSet, usize> = rmq.parked_sets().collect();
    // Live sets park nothing; the other sets gained no cache entry.
    let arrivals_for_live_sets = export
        .iter()
        .filter(|p| before.contains_key(&p.rel()))
        .count();
    assert!(arrivals_for_live_sets > 0 && !parked.is_empty(), "fixture");
    assert!(parked.keys().all(|rel| !before.contains_key(rel)));
    assert_eq!(rmq.cache().num_table_sets(), before.len());
    assert_eq!(
        accepted as u64,
        (kept_after - kept_before) + rmq.warm_start_stats().parked
    );
    // Same decisions, same order: replay the arrivals, in arrival order and
    // under exact pruning, over a copy of each live frontier.
    let exact = Admission::exact();
    let mut reference: PlanCache = PlanCache::new();
    for plans in before.values() {
        for plan in plans {
            assert!(reference.insert(plan.clone(), &exact), "fixture");
        }
    }
    for plan in export.iter().filter(|p| before.contains_key(&p.rel())) {
        reference.insert(plan.clone(), &exact);
    }
    assert!(kept_after > kept_before, "some arrival was admitted");
    for (rel, plans) in &cached(&rmq) {
        let got: Vec<_> = plans.iter().map(|p| identity(&model, p)).collect();
        let want: Vec<_> = reference
            .frontier(*rel)
            .iter()
            .map(|p| identity(&model, p))
            .collect();
        assert_eq!(got, want, "frontier of {rel}");
    }
}

// (d) ------------------------------------------------------------------------

#[test]
fn a_session_exports_what_it_found_and_not_what_it_absorbed() {
    let (model, query) = chain(10);
    // A cold session exports its whole cache, as it always did.
    let cold = session(&model, query, 11, 60);
    let export = cold.export_plans();
    let everything: BTreeSet<_> = cached(&cold)
        .values()
        .flatten()
        .map(|p| identity(&model, p))
        .collect();
    assert_eq!(export.len(), everything.len());
    assert!(export
        .iter()
        .all(|p| everything.contains(&identity(&model, p))));

    for donor_tables in [7, 10] {
        let absorbed = donor_export(&model, TableSet::prefix(donor_tables));
        let given: BTreeSet<_> = absorbed.iter().map(|p| identity(&model, p)).collect();
        let mut warm = Rmq::new(&model, query, RmqConfig::seeded(2));
        warm.absorb_plans(&absorbed);
        for _ in 0..40 {
            warm.iterate();
        }
        let exported: BTreeSet<_> = warm
            .export_plans()
            .iter()
            .map(|p| identity(&model, p))
            .collect();
        let own: BTreeSet<_> = cached(&warm)
            .values()
            .flatten()
            .map(|p| identity(&model, p))
            .filter(|id| !given.contains(id))
            .collect();
        assert!(!own.is_empty());
        assert_eq!(exported, own, "donor over {donor_tables} tables");
    }
}

// (f) ------------------------------------------------------------------------

/// Allocations of each of the first 60 iterations of
/// `Rmq::new(chain(10), RmqConfig::seeded(5))` at the parent commit.
const PARENT_ALLOCATIONS: [u64; 60] = [
    251, 105, 91, 102, 47, 78, 34, 35, 24, 68, 69, 34, 68, 23, 23, 47, 35, 12, 12, 12, 23, 34, 56,
    91, 12, 78, 12, 12, 12, 46, 67, 35, 13, 37, 12, 46, 56, 34, 12, 12, 67, 57, 23, 12, 13, 12, 14,
    67, 90, 95, 45, 56, 23, 12, 67, 23, 12, 67, 12, 12,
];

#[test]
fn an_iteration_of_a_never_warm_started_session_allocates_no_more_than_before() {
    let (model, query) = chain(10);
    let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(5));
    let allocations: Vec<u64> = (0..PARENT_ALLOCATIONS.len())
        .map(|_| counting_alloc::count(|| rmq.iterate()).1)
        .collect();
    for (i, (now, parent)) in allocations.iter().zip(&PARENT_ALLOCATIONS).enumerate() {
        assert!(
            now <= parent,
            "iteration {i} allocated {now} times, {parent} at the parent: {allocations:?}"
        );
    }
    assert_eq!(rmq.warm_start_stats().parked, 0);
}
