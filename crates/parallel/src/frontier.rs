//! The shared frontier worker threads exchange plans through.
//!
//! The structure has one **merge side** and one **read side**, neither of
//! which holds the other's lock while it works:
//!
//! * The merge side — one Pareto set per multi-table table set, the
//!   query's own included — lives behind one mutex. It is the **global
//!   filter**: a publisher batch-merges its candidates per lock acquisition
//!   ([`ParetoSet::merge_from`]), each admission-tested by its inline cost
//!   metadata alone, so a publish whose plans are all dominated costs a few
//!   dominance probes and builds nothing. The sets keep no plan handles at
//!   all — their members' costs are the filter, and the plans travel
//!   through the log. So a publish holds the lock only to merge: it stages
//!   its survivors' ids in a buffer its publisher reuses, and exports them
//!   from its arena ([`PlanArena::export`], memoized per node there) and
//!   logs them after releasing the lock.
//! * The **delta log** is the only read side. Every survivor of every merge
//!   is appended to it as an exported `Arc<Plan>` tree (the cross-arena
//!   exchange format), tagged with its publisher. The log is append-only;
//!   nothing is ever rewritten or flattened. Its length is the **exchange
//!   epoch** ([`SharedFrontier::epoch`]).
//!
//! Nobody reads a query frontier out of this structure: a `ParRmq`
//! frontier is the reduction of its workers' own (see the crate docs).
//!
//! ## Cursors
//!
//! A reader's **cursor** is the log length it has read up to.
//! [`SharedFrontier::read_delta`] hands out the entries at and past the
//! cursor that *someone else* published and returns the new cursor, so the
//! cost of absorbing is proportional to what the rest of the run found since
//! this reader last looked — and a reader whose cursor equals the log length
//! (one atomic load) takes no lock at all. A reader that sat out for a while
//! just has an old cursor and catches up on its next read.
//!
//! ## Why stale log entries are harmless
//!
//! A logged plan may since have been evicted from its shared frontier by a
//! better one. The log keeps it anyway, and does not even promise that the
//! evictor comes after it: publishes log their survivors after releasing
//! the merge lock, so log order need not be merge order. Neither matters,
//! because `Rmq::warm_start` prunes exactly (at once, or when the reader
//! first touches a parked table set). Exact pruning keeps the non-dominated
//! plans of everything offered in whatever order they arrive, so a reader
//! that absorbs both the stale plan and its evictor — in one read or two,
//! either one first — ends with the same cache, except for which of two
//! exactly equal-cost plans it keeps. The log therefore grows by exactly the
//! plans that ever merged, at two words apiece on top of trees their
//! publisher's arena memoizes anyway.
//!
//! Sub-query frontiers are where the redundant work across workers hides —
//! the approximation-scheme line shows intermediate frontiers, not
//! full-query survivors, carry most of the reusable information — which is
//! why they travel at all.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use moqo_obs::metrics;

use moqo_core::archive::Admission;
use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::cost::CostVector;
use moqo_core::fxhash::FxHashMap;
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::tables::TableSet;

/// The publisher tag of callers without a worker identity
/// ([`SharedFrontier::publish_partials`]): no reader has it, so every
/// reader absorbs what they publish.
pub const ANONYMOUS: u32 = u32::MAX;

/// Lifetime counters of the exchange machinery (cheap, monotone; reported
/// by the perf-baseline harness as the exchange-overhead signal). The
/// `partial_*` counters cover every shared table set, the query's own
/// included.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExchangeStats {
    /// Publishes that took the merge lock (one per non-empty change list).
    pub publishes: u64,
    /// Plans absorbed by workers out of the delta log.
    pub absorbed: u64,
    /// Plans offered across all publishes.
    pub partial_offered: u64,
    /// Offered plans that survived their per-table-set merge.
    pub partial_merged: u64,
    /// Publishes that merged at least one plan.
    pub partial_epochs: u64,
    /// Distinct table sets with a shared frontier.
    pub partial_table_sets: usize,
}

/// One survivor of a merge, as the delta log keeps it.
#[derive(Debug)]
struct LogEntry {
    publisher: u32,
    plan: PlanRef,
}

/// A publisher's buffers for the survivors of its publishes, kept across
/// publishes so their capacity is reused.
#[derive(Debug, Default)]
pub(crate) struct Staging {
    /// Survivors' ids in the publisher's arena, staged under the merge lock.
    ids: Vec<PlanId>,
    /// The same survivors exported and tagged, on their way into the log.
    entries: Vec<LogEntry>,
}

/// Merge-side state: everything a publishing worker mutates under the lock.
#[derive(Default)]
struct MergeState {
    /// Per-table-set frontiers: costs only (see the module docs).
    partials: FxHashMap<TableSet, ParetoSet<()>>,
    publishes: u64,
    partial_epoch: u64,
    partial_offered: u64,
    partial_merged: u64,
}

/// The shared frontier (see the module docs).
#[derive(Default)]
pub struct SharedFrontier {
    merge: Mutex<MergeState>,
    /// The delta log. The lock is held only to append already-exported
    /// survivors or to clone a tail of `Arc`s — never while merging.
    log: Mutex<Vec<LogEntry>>,
    /// The log's length, stored (`Release`) after every append under the
    /// log lock and loaded (`Acquire`) by readers, so a reader whose cursor
    /// is current skips the lock.
    log_len: AtomicUsize,
    /// Plans absorbed by workers (updated outside the merge lock).
    absorbed: AtomicU64,
    /// Publish tick used to sample merge-mutex wait time (see
    /// [`MUTEX_WAIT_SAMPLE`]); bumped before taking the lock.
    publish_ticks: AtomicU64,
}

/// Every `N`th publish times its merge-mutex acquisition into the
/// `exchange.mutex_wait_ns` histogram. Sampling keeps `Instant::now` off
/// the common publish path while still exposing contention trends.
const MUTEX_WAIT_SAMPLE: u64 = 8;

const POISONED: &str = "a publisher panicked while holding a shared-frontier lock";

impl SharedFrontier {
    /// Creates an empty shared frontier at epoch 0.
    pub fn new() -> Self {
        SharedFrontier::default()
    }

    /// [`SharedFrontier::publish_partials_as`] of whole frontiers under the
    /// [`ANONYMOUS`] tag — e.g. `PlanCache::entry_sets` filtered to
    /// multi-table sets.
    pub fn publish_partials<'a>(
        &self,
        src: &PlanArena,
        sets: impl Iterator<Item = (TableSet, &'a ParetoSet<PlanId>)>,
    ) -> usize {
        self.publish_partials_as(ANONYMOUS, src, sets.map(|(rel, set)| (rel, set, 0)))
    }

    /// Batch-merges a worker's per-table-set frontiers into the shared
    /// ones: of each `(table set, frontier, start)` triple — ids into the
    /// worker's `src` arena, typically `PlanCache::changed_sets` filtered to
    /// multi-table sets — the members at and past `start` are merged into
    /// the matching shared frontier with exact pruning ([`Admission`],
    /// α = 1). Survivors are exported and appended to the delta log under
    /// `publisher`'s tag once the merge lock is released. Returns the
    /// number of plans that survived.
    pub fn publish_partials_as<'a>(
        &self,
        publisher: u32,
        src: &PlanArena,
        sets: impl Iterator<Item = (TableSet, &'a ParetoSet<PlanId>, usize)>,
    ) -> usize {
        self.publish_partials_staged(publisher, src, sets, &mut Staging::default())
    }

    /// [`SharedFrontier::publish_partials_as`] through the publisher's own
    /// reused `staging` buffers. Under the merge lock it only merges and
    /// stages the survivors' ids; exporting them from `src` and appending
    /// them to the delta log happen after the lock is released, so other
    /// publishers merge meanwhile.
    pub(crate) fn publish_partials_staged<'a>(
        &self,
        publisher: u32,
        src: &PlanArena,
        sets: impl Iterator<Item = (TableSet, &'a ParetoSet<PlanId>, usize)>,
        staging: &mut Staging,
    ) -> usize {
        let obs = metrics();
        let Staging { ids, entries } = staging;
        let mut offered = 0usize;
        let mut inserted = 0usize;
        let mut screen = ScreenCounters::default();
        let exact = Admission::exact();
        {
            // Sample merge-mutex wait time on every MUTEX_WAIT_SAMPLE'th
            // publish: one `Instant` pair around the acquisition, off the
            // common path.
            let sampled =
                self.publish_ticks.fetch_add(1, Ordering::Relaxed) % MUTEX_WAIT_SAMPLE == 0;
            let before = sampled.then(Instant::now);
            let mut state = self.merge.lock().expect(POISONED);
            if let Some(before) = before {
                obs.exchange_mutex_wait_ns
                    .record(before.elapsed().as_nanos() as u64);
            }
            for (rel, frontier, start) in sets {
                offered += frontier.len() - start;
                let shared_set = state.partials.entry(rel).or_default();
                inserted +=
                    shared_set.merge_from(frontier, start, &exact, &mut screen, |&id| ids.push(id));
            }
            state.publishes += 1;
            state.partial_offered += offered as u64;
            state.partial_merged += inserted as u64;
            if inserted > 0 {
                state.partial_epoch += 1;
            }
        }
        obs.exchange_publishes.incr();
        obs.pareto_blocks_screened.add(screen.blocks_screened);
        obs.pareto_eps_rejects.add(screen.eps_rejects);
        obs.exchange_partial_offered.add(offered as u64);
        obs.exchange_partial_merged.add(inserted as u64);
        if inserted > 0 {
            entries.extend(ids.drain(..).map(|id| LogEntry {
                publisher,
                plan: src.export(id),
            }));
            let mut log = self.log.lock().expect(POISONED);
            log.append(entries);
            self.log_len.store(log.len(), Ordering::Release);
        }
        inserted
    }

    /// Appends to `out` the plans logged at or past `cursor` by anyone but
    /// `reader` and returns the cursor to pass next time (see the module
    /// docs). A reader that is up to date pays one atomic load.
    ///
    /// # Panics
    /// Panics if `cursor` is neither 0 nor a value this frontier returned.
    pub fn read_delta(&self, cursor: usize, reader: u32, out: &mut Vec<PlanRef>) -> usize {
        if self.log_len.load(Ordering::Acquire) == cursor {
            return cursor;
        }
        let log = self.log.lock().expect(POISONED);
        out.extend(
            log[cursor..]
                .iter()
                .filter(|e| e.publisher != reader)
                .map(|e| e.plan.clone()),
        );
        log.len()
    }

    /// The exchange epoch: the delta log's length. It advances with every
    /// publish that merged anything, and a reader's cursor is its position
    /// on the same clock.
    pub fn epoch(&self) -> u64 {
        self.log_len.load(Ordering::Acquire) as u64
    }

    /// The cost vectors of every shared frontier, in unspecified order
    /// (diagnostics and differential tests; takes the merge lock).
    pub fn partial_costs(&self) -> Vec<(TableSet, Vec<CostVector>)> {
        let state = self.merge.lock().expect(POISONED);
        state
            .partials
            .iter()
            .map(|(rel, set)| (*rel, set.costs().copied().collect()))
            .collect()
    }

    /// Records `n` plans absorbed by a worker (for [`ExchangeStats`]).
    pub fn record_absorbed(&self, n: usize) {
        self.absorbed.fetch_add(n as u64, Ordering::Relaxed);
        metrics().exchange_absorbed.add(n as u64);
    }

    /// Lifetime exchange counters.
    pub fn stats(&self) -> ExchangeStats {
        let state = self.merge.lock().expect(POISONED);
        ExchangeStats {
            publishes: state.publishes,
            absorbed: self.absorbed.load(Ordering::Relaxed),
            partial_offered: state.partial_offered,
            partial_merged: state.partial_merged,
            partial_epochs: state.partial_epoch,
            partial_table_sets: state.partials.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::rmq::{Rmq, RmqConfig};
    use moqo_core::tables::TableSet;

    fn worker(seed: u64, iters: u64) -> Rmq<StubModel> {
        let model = StubModel::line(6, 2, 7);
        let mut rmq = Rmq::new(model, TableSet::prefix(6), RmqConfig::seeded(seed));
        for _ in 0..iters {
            rmq.iterate();
        }
        rmq
    }

    /// Every multi-table frontier of a worker's cache, the query's included,
    /// whole — what a publish offers when nothing was offered before.
    fn multi_table(
        rmq: &Rmq<StubModel>,
    ) -> impl Iterator<Item = (TableSet, &ParetoSet<PlanId>, usize)> + '_ {
        rmq.cache()
            .entry_sets()
            .filter(|(rel, _)| !rel.is_singleton())
            .map(|(rel, set)| (rel, set, 0))
    }

    #[test]
    fn publish_advances_the_epoch_and_a_no_op_publish_appends_nothing() {
        let shared = SharedFrontier::new();
        assert_eq!(shared.epoch(), 0);

        let rmq = worker(1, 10);
        let query = rmq.query();
        let merged = shared.publish_partials_as(ANONYMOUS, rmq.arena(), multi_table(&rmq));
        assert!(merged > 0);
        assert_eq!(
            shared.epoch(),
            merged as u64,
            "every survivor is logged once"
        );
        let mut plans = Vec::new();
        assert_eq!(shared.read_delta(0, 0, &mut plans), merged);
        for p in &plans {
            assert!(p.validate(p.rel()).is_ok());
        }
        // The query's table set travels like any other.
        let query_plans = plans.iter().filter(|p| p.rel() == query).count();
        assert_eq!(query_plans, rmq.frontier_set().unwrap().len());

        // Re-publishing the identical frontiers changes nothing: every
        // member is weakly dominated by its own copy.
        let before = shared.stats();
        assert_eq!(
            shared.publish_partials_as(ANONYMOUS, rmq.arena(), multi_table(&rmq)),
            0
        );
        assert_eq!(
            shared.epoch(),
            merged as u64,
            "a no-op publish appends nothing"
        );
        let after = shared.stats();
        assert_eq!(after.publishes, before.publishes + 1);
        assert_eq!(after.partial_merged, before.partial_merged);
        assert_eq!(after.partial_epochs, before.partial_epochs);
    }

    #[test]
    fn merge_keeps_the_pareto_invariant_across_publishers() {
        let shared = SharedFrontier::new();
        let workers: Vec<_> = [1u64, 2, 3, 4].map(|seed| worker(seed, 8)).into();
        for rmq in &workers {
            shared.publish_partials_as(ANONYMOUS, rmq.arena(), multi_table(rmq));
        }
        {
            let state = shared.merge.lock().unwrap();
            assert!(
                state.partials.values().all(ParetoSet::check_invariant_meta),
                "a shared frontier holds a dominated plan"
            );
        }
        // Every plan any publisher offered is weakly dominated by a member
        // of its table set's shared frontier.
        let costs: FxHashMap<TableSet, Vec<CostVector>> =
            shared.partial_costs().into_iter().collect();
        for rmq in &workers {
            for (rel, set, _) in multi_table(rmq) {
                for offered in set.costs() {
                    assert!(
                        costs[&rel].iter().any(|c| c.dominates(offered)),
                        "{rel:?} lost coverage of an offered plan"
                    );
                }
            }
        }
        assert!(costs.contains_key(&TableSet::prefix(6)));
        let stats = shared.stats();
        assert_eq!(stats.publishes, 4);
        assert!(stats.partial_offered >= stats.partial_merged);
        assert!(stats.partial_epochs >= 1);
        assert_eq!(stats.partial_table_sets, costs.len());
    }

    #[test]
    fn counters_consistent_under_concurrent_exchange() {
        // Invariants: merged ≤ offered, an epoch is counted only on
        // admission (so epochs ≤ merged), and the log holds exactly the
        // merged plans once the dust settles — regardless of how publishes
        // interleave across threads.
        let shared = SharedFrontier::new();
        // `Rmq` is intentionally !Sync (interior RefCell caches), so each
        // thread builds and owns its worker — as in real ParRmq usage.
        std::thread::scope(|s| {
            let shared = &shared;
            for seed in 1..=4u64 {
                s.spawn(move || {
                    let rmq = worker(seed, 6);
                    let tag = seed as u32;
                    let (mut cursor, mut inbox) = (0, Vec::new());
                    for _ in 0..3 {
                        shared.publish_partials_as(tag, rmq.arena(), multi_table(&rmq));
                        cursor = shared.read_delta(cursor, tag, &mut inbox);
                        shared.record_absorbed(inbox.len());
                        inbox.clear();
                    }
                });
            }
        });
        let stats = shared.stats();
        assert_eq!(stats.publishes, 12);
        assert!(stats.partial_merged <= stats.partial_offered, "{stats:?}");
        assert!(
            stats.partial_epochs <= stats.partial_merged,
            "every epoch must admit at least one plan: {stats:?}"
        );
        assert!(stats.partial_epochs >= 1);
        assert_eq!(shared.epoch(), stats.partial_merged);
        // A reader nobody published as sees the whole log.
        let mut all = Vec::new();
        assert_eq!(shared.read_delta(0, ANONYMOUS - 1, &mut all), all.len());
        assert_eq!(all.len() as u64, stats.partial_merged);
        // The surviving shared frontiers cannot exceed what was merged.
        let survivors: usize = shared.partial_costs().iter().map(|(_, c)| c.len()).sum();
        assert!(survivors as u64 <= stats.partial_merged);
        let absorbed = stats.absorbed;
        shared.record_absorbed(3);
        assert_eq!(shared.stats().absorbed, absorbed + 3);
    }

    #[test]
    fn partial_publish_merges_subquery_frontiers_per_table_set() {
        let shared = SharedFrontier::new();
        let rmq = worker(1, 12);
        let query = TableSet::prefix(6);
        fn subs(
            r: &Rmq<StubModel>,
            query: TableSet,
        ) -> impl Iterator<Item = (TableSet, &ParetoSet<PlanId>)> + '_ {
            r.cache().entry_sets().filter(move |(rel, _)| *rel != query)
        }
        let merged = shared.publish_partials(rmq.arena(), subs(&rmq, query));
        assert!(merged > 0, "sub-query frontiers must merge");
        assert_eq!(shared.stats().partial_epochs, 1);
        let mut plans = Vec::new();
        let cursor = shared.read_delta(0, 0, &mut plans);
        assert_eq!(cursor, merged, "every survivor is logged once");
        assert_eq!(plans.len(), merged);
        assert!(plans.iter().all(|p| p.rel() != query));
        let shared_plans: usize = shared.partial_costs().iter().map(|(_, c)| c.len()).sum();
        assert_eq!(shared_plans, merged);

        // Re-publishing the identical partial frontiers merges nothing and
        // appends nothing to the log.
        assert_eq!(shared.publish_partials(rmq.arena(), subs(&rmq, query)), 0);
        assert_eq!(shared.stats().partial_epochs, 1);
        assert_eq!(shared.read_delta(cursor, 0, &mut plans), cursor);

        // A different worker's partials contribute under the same keys.
        let other = worker(7, 12);
        shared.publish_partials(other.arena(), subs(&other, query));
        let stats = shared.stats();
        assert!(stats.partial_offered >= stats.partial_merged);
        assert!(stats.partial_table_sets > 0);
        assert_eq!(stats.publishes, 3);
    }

    #[test]
    fn readers_skip_their_own_entries_and_only_see_the_tail() {
        let shared = SharedFrontier::new();
        let (a, b) = (worker(1, 10), worker(9, 10));
        let from_a = shared.publish_partials_as(0, a.arena(), multi_table(&a));
        let mut plans = Vec::new();
        // Publisher 0 sees nothing of its own; the cursor still moves.
        let cursor_a = shared.read_delta(0, 0, &mut plans);
        assert_eq!((cursor_a, plans.len()), (from_a, 0));
        // Publisher 1 sees all of it, once.
        let cursor_b = shared.read_delta(0, 1, &mut plans);
        assert_eq!((cursor_b, plans.len()), (from_a, from_a));
        plans.clear();
        assert_eq!(shared.read_delta(cursor_b, 1, &mut plans), cursor_b);
        assert!(plans.is_empty());
        // Only what is logged past the cursor comes out next time.
        let from_b = shared.publish_partials_as(1, b.arena(), multi_table(&b));
        assert!(from_b > 0);
        assert_eq!(
            shared.read_delta(cursor_a, 0, &mut plans),
            cursor_a + from_b
        );
        assert_eq!(plans.len(), from_b);
    }
}
