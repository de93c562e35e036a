//! The epoch-versioned shared global frontier worker threads exchange
//! plans through.
//!
//! The structure has a **merge side** and two **read sides**, none of which
//! holds another's lock while it works:
//!
//! * The merge side — the master Pareto set of the full query and one
//!   Pareto set per sub-query table set — lives behind one mutex. It is the
//!   **global filter**: a publisher batch-merges its candidates per lock
//!   acquisition ([`ParetoSet::merge_from`]), each admission-tested by its
//!   inline cost metadata alone, and only *survivors* are exported from the
//!   publisher's arena ([`PlanArena::export`], memoized per node there), so a
//!   publish whose plans are all dominated costs a few dominance probes and
//!   builds nothing. The sub-query sets keep no plan handles at all — their
//!   members' costs are the filter, and the plans travel through the log.
//!   So a partial publish holds the lock only to merge: it stages its
//!   survivors' ids in a buffer its publisher reuses, and exports and logs
//!   them after releasing the lock. The full-query set holds its plans, so
//!   that merge exports its (few) survivors under the lock.
//! * The **snapshot** serves anytime readers of the full-query frontier
//!   ([`SharedFrontier::snapshot`]): an immutable `Arc<FrontierSnapshot>`
//!   swapped wholesale whenever a merge changes that frontier, cloned under
//!   a lock that is never held while merging. Every swap bumps the
//!   **exchange epoch**.
//! * The **delta log** serves the workers. Every survivor of every merge —
//!   full-query or sub-query — is appended to it as an exported `Arc<Plan>`
//!   tree (the cross-arena exchange format), tagged with its publisher. The
//!   log is append-only; nothing is ever rewritten or flattened.
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
//! evictor comes after it: partial publishes log their survivors after
//! releasing the merge lock, so log order need not be merge order. Neither
//! matters, because `Rmq::warm_start` prunes exactly (at once, or when the
//! reader first touches a parked table set). Exact pruning keeps the
//! non-dominated plans of everything offered in whatever order they
//! arrive, so a reader that absorbs both the stale plan and its evictor —
//! in one read or two, either one first — ends with the same cache, except
//! for which of two exactly equal-cost plans it keeps. The log therefore
//! grows by exactly the plans that ever merged, at two words apiece on top
//! of trees their publisher's arena memoizes anyway.
//!
//! Sub-query frontiers are where the redundant work across workers hides —
//! the approximation-scheme line shows intermediate frontiers, not
//! full-query survivors, carry most of the reusable information — which is
//! why they travel at all.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
/// ([`SharedFrontier::publish`], [`SharedFrontier::publish_partials`]): no
/// reader has it, so every reader absorbs what they publish.
pub const ANONYMOUS: u32 = u32::MAX;

/// An immutable point-in-time view of the shared global frontier.
///
/// Plans are exported `Arc<Plan>` trees (the cross-arena exchange format),
/// so holders never touch a publisher's arena — reading a snapshot after it
/// has been superseded is always safe and lock-free.
#[derive(Clone, Debug, Default)]
pub struct FrontierSnapshot {
    /// Exchange epoch of this snapshot: strictly increases with every
    /// frontier change. `0` means nothing has been published yet.
    pub epoch: u64,
    /// The global Pareto frontier at this epoch.
    pub plans: Vec<PlanRef>,
}

/// Lifetime counters of the exchange machinery (cheap, monotone; reported
/// by the perf-baseline harness as the exchange-overhead signal).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExchangeStats {
    /// Publish calls (one per worker batch-merge).
    pub publishes: u64,
    /// Plans offered across all publishes.
    pub offered: u64,
    /// Offered plans that survived the merge into the global frontier.
    pub merged: u64,
    /// Snapshot swaps (= the current exchange epoch).
    pub epochs: u64,
    /// Plans workers absorbed out of the delta log.
    pub absorbed: u64,
    /// Sub-query plans offered across all partial-frontier publishes.
    pub partial_offered: u64,
    /// Offered sub-query plans that survived their per-table-set merge.
    pub partial_merged: u64,
    /// Partial-frontier publishes that merged at least one plan.
    pub partial_epochs: u64,
    /// Distinct table sets with a shared partial frontier.
    pub partial_table_sets: usize,
}

/// One survivor of a merge, as the delta log keeps it.
#[derive(Debug)]
struct LogEntry {
    publisher: u32,
    plan: PlanRef,
}

/// A publisher's buffers for the survivors of its partial publishes, kept
/// across publishes so their capacity is reused.
#[derive(Debug, Default)]
pub(crate) struct Staging {
    /// Survivors' ids in the publisher's arena, staged under the merge lock.
    ids: Vec<PlanId>,
    /// The same survivors exported and tagged, on their way into the log.
    entries: Vec<LogEntry>,
}

/// Merge-side state: everything a publishing worker mutates under the lock.
struct MergeState {
    /// The master global frontier.
    global: ParetoSet<PlanRef>,
    /// The survivors of the full-query publish in progress, exported and
    /// tagged, on their way into the delta log (reused buffer).
    staged: Vec<LogEntry>,
    epoch: u64,
    publishes: u64,
    offered: u64,
    merged: u64,
    /// Per-table-set sub-query frontiers: costs only (see the module docs).
    partials: FxHashMap<TableSet, ParetoSet<()>>,
    partial_epoch: u64,
    partial_offered: u64,
    partial_merged: u64,
}

/// The shared epoch-versioned global frontier (see the module docs).
pub struct SharedFrontier {
    merge: Mutex<MergeState>,
    /// The published snapshot. The lock is held only to clone or replace
    /// the `Arc` — never while merging or exporting — so readers are
    /// effectively lock-free.
    snapshot: Mutex<Arc<FrontierSnapshot>>,
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

impl Default for SharedFrontier {
    fn default() -> Self {
        SharedFrontier::new()
    }
}

impl SharedFrontier {
    /// Creates an empty shared frontier at epoch 0.
    pub fn new() -> Self {
        SharedFrontier {
            merge: Mutex::new(MergeState {
                global: ParetoSet::new(),
                staged: Vec::new(),
                epoch: 0,
                publishes: 0,
                offered: 0,
                merged: 0,
                partials: FxHashMap::default(),
                partial_epoch: 0,
                partial_offered: 0,
                partial_merged: 0,
            }),
            snapshot: Mutex::new(Arc::new(FrontierSnapshot::default())),
            log: Mutex::new(Vec::new()),
            log_len: AtomicUsize::new(0),
            absorbed: AtomicU64::new(0),
            publish_ticks: AtomicU64::new(0),
        }
    }

    /// [`SharedFrontier::publish_as`] under the [`ANONYMOUS`] tag.
    pub fn publish(&self, src: &PlanArena, frontier: &ParetoSet<PlanId>) -> usize {
        self.publish_as(ANONYMOUS, src, frontier)
    }

    /// Batch-merges a worker frontier into the global frontier: every
    /// member of `frontier` (ids into the worker's `src` arena) is
    /// admission-tested against the global set with exact pruning (α = 1),
    /// and survivors are exported and appended to the delta log under
    /// `publisher`'s tag. If anything changed, the epoch advances and a
    /// fresh snapshot is swapped in. Returns the number of plans that
    /// survived the merge.
    pub fn publish_as(
        &self,
        publisher: u32,
        src: &PlanArena,
        frontier: &ParetoSet<PlanId>,
    ) -> usize {
        let obs = metrics();
        // Sample merge-mutex wait time on every MUTEX_WAIT_SAMPLE'th
        // publish: one `Instant` pair around the acquisition, off the
        // common path.
        let sampled = self.publish_ticks.fetch_add(1, Ordering::Relaxed) % MUTEX_WAIT_SAMPLE == 0;
        let mut state = if sampled {
            let before = Instant::now();
            let state = self.merge.lock().expect(POISONED);
            obs.exchange_mutex_wait_ns
                .record(before.elapsed().as_nanos() as u64);
            state
        } else {
            self.merge.lock().expect(POISONED)
        };
        state.publishes += 1;
        state.offered += frontier.len() as u64;
        obs.exchange_publishes.incr();
        obs.exchange_offered.add(frontier.len() as u64);
        let MergeState { global, staged, .. } = &mut *state;
        let mut screen = ScreenCounters::default();
        let inserted = global.merge_from(frontier, 0, &Admission::exact(), &mut screen, |&id| {
            let plan = src.export(id);
            staged.push(LogEntry {
                publisher,
                plan: plan.clone(),
            });
            plan
        });
        obs.pareto_blocks_screened.add(screen.blocks_screened);
        obs.pareto_eps_rejects.add(screen.eps_rejects);
        if inserted == 0 {
            // No admission: the epoch must not move (the invariant the
            // concurrent-exchange tests pin), so no snapshot swap either.
            return 0;
        }
        state.merged += inserted as u64;
        state.epoch += 1;
        obs.exchange_merged.add(inserted as u64);
        obs.exchange_epochs.incr();
        let plans = state.global.plans().to_vec();
        let epoch = state.epoch;
        let fresh = Arc::new(FrontierSnapshot { epoch, plans });
        *self.snapshot.lock().expect(POISONED) = fresh;
        self.append(&mut state.staged);
        inserted
    }

    /// [`SharedFrontier::publish_partials_as`] of whole frontiers under the
    /// [`ANONYMOUS`] tag — e.g. `PlanCache::entry_sets` filtered to proper
    /// sub-queries.
    pub fn publish_partials<'a>(
        &self,
        src: &PlanArena,
        sets: impl Iterator<Item = (TableSet, &'a ParetoSet<PlanId>)>,
    ) -> usize {
        self.publish_partials_as(ANONYMOUS, src, sets.map(|(rel, set)| (rel, set, 0)))
    }

    /// Batch-merges a worker's partial-plan (sub-query) frontiers into the
    /// shared per-table-set frontiers: of each `(table set, frontier, start)`
    /// triple — ids into the worker's `src` arena, typically
    /// `PlanCache::changed_sets` filtered to proper sub-queries — the members
    /// at and past `start` are merged into the matching shared frontier
    /// through the same exact [`Admission`] entry point as the full-query
    /// path. Survivors are exported and appended to the delta log under
    /// `publisher`'s tag once the merge lock is released. Returns the
    /// number of sub-query plans that survived.
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
            let mut state = self.merge.lock().expect(POISONED);
            for (rel, frontier, start) in sets {
                offered += frontier.len() - start;
                let shared_set = state.partials.entry(rel).or_default();
                inserted +=
                    shared_set.merge_from(frontier, start, &exact, &mut screen, |&id| ids.push(id));
            }
            state.partial_offered += offered as u64;
            state.partial_merged += inserted as u64;
            if inserted > 0 {
                state.partial_epoch += 1;
            }
        }
        obs.pareto_blocks_screened.add(screen.blocks_screened);
        obs.pareto_eps_rejects.add(screen.eps_rejects);
        obs.exchange_partial_offered.add(offered as u64);
        obs.exchange_partial_merged.add(inserted as u64);
        if inserted > 0 {
            entries.extend(ids.drain(..).map(|id| LogEntry {
                publisher,
                plan: src.export(id),
            }));
            self.append(entries);
        }
        inserted
    }

    /// Moves exported survivors to the end of the delta log. The full-query
    /// publish calls it under the merge lock, partial publishes after
    /// releasing it, so log order need not be merge order (see the module
    /// docs for why that is harmless).
    fn append(&self, entries: &mut Vec<LogEntry>) {
        let mut log = self.log.lock().expect(POISONED);
        log.append(entries);
        self.log_len.store(log.len(), Ordering::Release);
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

    /// The current snapshot (clones one `Arc` under a short lock).
    pub fn snapshot(&self) -> Arc<FrontierSnapshot> {
        Arc::clone(&self.snapshot.lock().expect(POISONED))
    }

    /// The current exchange epoch without cloning the snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot.lock().expect(POISONED).epoch
    }

    /// The cost vectors of every shared sub-query frontier, in unspecified
    /// order (diagnostics and differential tests; takes the merge lock).
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
            offered: state.offered,
            merged: state.merged,
            epochs: state.epoch,
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

    fn worker_frontier(seed: u64, iters: u64) -> (Rmq<StubModel>, usize) {
        let model = StubModel::line(6, 2, 7);
        let mut rmq = Rmq::new(model, TableSet::prefix(6), RmqConfig::seeded(seed));
        for _ in 0..iters {
            rmq.iterate();
        }
        let len = rmq.frontier_set().map_or(0, ParetoSet::len);
        (rmq, len)
    }

    #[test]
    fn publish_advances_the_epoch_and_snapshot() {
        let shared = SharedFrontier::new();
        assert_eq!(shared.epoch(), 0);
        assert!(shared.snapshot().plans.is_empty());

        let (rmq, len) = worker_frontier(1, 10);
        assert!(len > 0);
        let merged = shared.publish(rmq.arena(), rmq.frontier_set().unwrap());
        assert!(merged > 0);
        assert_eq!(shared.epoch(), 1);
        let snap = shared.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.plans.len(), merged);
        for p in &snap.plans {
            assert!(p.validate(TableSet::prefix(6)).is_ok());
        }

        // Re-publishing the identical frontier changes nothing: every
        // member is weakly dominated by its own copy.
        let before = shared.stats();
        assert_eq!(shared.publish(rmq.arena(), rmq.frontier_set().unwrap()), 0);
        assert_eq!(shared.epoch(), 1, "no-op publish must not bump the epoch");
        let after = shared.stats();
        assert_eq!(after.publishes, before.publishes + 1);
        assert_eq!(after.merged, before.merged);
    }

    #[test]
    fn merge_keeps_the_pareto_invariant_across_publishers() {
        let shared = SharedFrontier::new();
        for seed in [1u64, 2, 3, 4] {
            let (rmq, _) = worker_frontier(seed, 8);
            shared.publish(rmq.arena(), rmq.frontier_set().unwrap());
        }
        let snap = shared.snapshot();
        assert!(!snap.plans.is_empty());
        for a in &snap.plans {
            for b in &snap.plans {
                if !Arc::ptr_eq(a, b) && a.same_output(b) {
                    assert!(
                        !a.cost().strictly_dominates(b.cost()),
                        "global frontier holds a dominated plan"
                    );
                }
            }
        }
        let stats = shared.stats();
        assert_eq!(stats.publishes, 4);
        assert!(stats.offered >= stats.merged);
        assert!(stats.epochs >= 1);
    }

    #[test]
    fn counters_consistent_under_concurrent_exchange() {
        // Satellite invariants: merged ≤ offered, the epoch bumps only on
        // admission (so epochs ≤ merged), and the published snapshot's
        // epoch always equals the stats' epoch once the dust settles —
        // regardless of how publishes interleave across threads.
        let shared = SharedFrontier::new();
        // `Rmq` is intentionally !Sync (interior RefCell caches), so each
        // thread builds and owns its worker — as in real ParRmq usage.
        std::thread::scope(|s| {
            let shared = &shared;
            for seed in 1..=4u64 {
                s.spawn(move || {
                    let (rmq, _) = worker_frontier(seed, 6);
                    for _ in 0..3 {
                        shared.publish(rmq.arena(), rmq.frontier_set().unwrap());
                        let snap = shared.snapshot();
                        shared.record_absorbed(snap.plans.len());
                    }
                });
            }
        });
        let stats = shared.stats();
        assert_eq!(stats.publishes, 12);
        assert!(stats.merged <= stats.offered, "{stats:?}");
        assert!(
            stats.epochs <= stats.merged,
            "every epoch bump must admit at least one plan: {stats:?}"
        );
        assert!(stats.epochs >= 1);
        assert_eq!(shared.snapshot().epoch, stats.epochs);
        assert!(stats.absorbed > 0);
        // The surviving global frontier cannot exceed what was merged.
        assert!(shared.snapshot().plans.len() as u64 <= stats.merged);
    }

    #[test]
    fn partial_publish_merges_subquery_frontiers_per_table_set() {
        let shared = SharedFrontier::new();
        let (rmq, _) = worker_frontier(1, 12);
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
        let (other, _) = worker_frontier(7, 12);
        shared.publish_partials(other.arena(), subs(&other, query));
        let stats = shared.stats();
        assert!(stats.partial_offered >= stats.partial_merged);
        assert!(stats.partial_table_sets > 0);

        // Full-query exchange state is untouched by partial publishes.
        assert_eq!(shared.epoch(), 0);
        assert_eq!(stats.publishes, 0);
    }

    #[test]
    fn readers_skip_their_own_entries_and_only_see_the_tail() {
        let shared = SharedFrontier::new();
        let (a, _) = worker_frontier(1, 10);
        let (b, _) = worker_frontier(9, 10);
        let from_a = shared.publish_as(0, a.arena(), a.frontier_set().unwrap());
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
        let from_b = shared.publish_as(1, b.arena(), b.frontier_set().unwrap());
        assert_eq!(
            shared.read_delta(cursor_a, 0, &mut plans),
            cursor_a + from_b
        );
        assert_eq!(plans.len(), from_b);
    }

    #[test]
    fn snapshots_are_immutable_under_later_publishes() {
        let shared = SharedFrontier::new();
        let (a, _) = worker_frontier(1, 6);
        shared.publish(a.arena(), a.frontier_set().unwrap());
        let old = shared.snapshot();
        let old_rendered: Vec<String> = old.plans.iter().map(|p| format!("{}", p.cost())).collect();
        let (b, _) = worker_frontier(9, 12);
        shared.publish(b.arena(), b.frontier_set().unwrap());
        // The old snapshot is untouched even though the global moved on.
        let rendered_again: Vec<String> =
            old.plans.iter().map(|p| format!("{}", p.cost())).collect();
        assert_eq!(old_rendered, rendered_again);
        shared.record_absorbed(3);
        assert_eq!(shared.stats().absorbed, 3);
    }
}
