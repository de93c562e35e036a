//! The partial-plan cache `P` of Algorithm 1.
//!
//! The cache maps every intermediate result (a table set `s ⊆ q`)
//! encountered so far to a set of non-dominated partial plans generating it.
//! It is the paper's mechanism for sharing information across iterations of
//! the main loop (§4.3): newly generated plans are decomposed and dominated
//! sub-plans are replaced by cached partial plans, so over time the cache
//! approaches the partial-plan tables of the dynamic-programming
//! approximation schemes — but only for table sets that actually occur in
//! locally Pareto-optimal plans.
//!
//! ## The change list
//!
//! The cache also records **what changed**: every table set that admitted a
//! plan since the last [`PlanCache::clear_changed`], once, together with how
//! many of its newest members are fresh ([`PlanCache::changed_sets`]). A
//! [`ParetoSet`] keeps its members in insertion order and evictions compact
//! in place, so the plans admitted since the last clear are always a
//! *suffix* of the set; evictions can only make the recorded suffix cover a
//! few already-known members too, never miss a fresh one. The parallel
//! optimizer publishes exactly these suffixes at an exchange point instead
//! of re-offering the whole cache. Nobody else clears the list: in a
//! sequential run it simply stops growing at no more than
//! [`PlanCache::num_table_sets`] entries, and its suffixes are everything
//! the optimizer admitted itself — what `Rmq::export_plans` hands a
//! finished session's publisher.

use crate::archive::Admission;
use crate::cost::CostVector;
use crate::fxhash::FxHashMap;
use crate::model::OutputFormat;
use crate::pareto::{ParetoSet, ScreenCounters};
use crate::plan::PlanRef;
use crate::tables::TableSet;

/// Plan cache: intermediate result (table set) → pruned partial plans.
///
/// Generic over the stored plan handle `P`, like [`ParetoSet`]: the RMQ
/// main loop keys a `PlanCache<PlanId>` over its session arena (cache hits
/// and insertions move `Copy` integers), while `PlanCache<PlanRef>` (the
/// default) serves `Arc<Plan>` consumers and tests.
#[derive(Debug)]
pub struct PlanCache<P = PlanRef> {
    map: FxHashMap<TableSet, Entry<P>>,
    /// Table sets whose `fresh` count is non-zero, each listed once, in the
    /// order they first changed (see the module docs).
    changed: Vec<TableSet>,
    insertions: u64,
    rejections: u64,
    /// Screening tallies drained from the per-table-set frontiers whenever
    /// a [`CacheSlot`] closes (see [`PlanCache::take_screen_counters`]).
    screen: ScreenCounters,
}

/// One table set's frontier plus its share of the change list.
#[derive(Debug)]
struct Entry<P> {
    set: ParetoSet<P>,
    /// How many of the newest members of `set` may have been admitted since
    /// the last [`PlanCache::clear_changed`] (an upper bound, at most
    /// `set.len()`); non-zero iff the table set is on the change list.
    fresh: usize,
}

impl<P> Default for Entry<P> {
    fn default() -> Self {
        Entry {
            set: ParetoSet::default(),
            fresh: 0,
        }
    }
}

impl<P> Default for PlanCache<P> {
    fn default() -> Self {
        PlanCache {
            map: FxHashMap::default(),
            changed: Vec::new(),
            insertions: 0,
            rejections: 0,
            screen: ScreenCounters::default(),
        }
    }
}

impl<P> PlanCache<P> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The cached frontier for table set `rel` (`P[rel]` in the paper);
    /// empty if the table set was never seen.
    #[inline]
    pub fn frontier(&self, rel: TableSet) -> &[P] {
        self.map.get(&rel).map_or(&[], |e| e.set.plans())
    }

    /// The cached frontier for `rel` as the underlying [`ParetoSet`]
    /// (members plus inline cost metadata), `None` if the table set was
    /// never seen. The batch-merge entry point of the parallel optimizer:
    /// [`ParetoSet::merge_with`] reads candidate costs from here without
    /// re-deriving them from plan handles.
    #[inline]
    pub fn frontier_set(&self, rel: TableSet) -> Option<&ParetoSet<P>> {
        self.map.get(&rel).map(|e| &e.set)
    }

    /// Inserts a candidate described by its table set, cost vector and
    /// output format, materializing it via `make` only on admission
    /// ([`ParetoSet::admit`]). The materialized plan must match `rel`,
    /// `cost` and `format`. Returns `true` iff the candidate was kept.
    /// Callers with many candidates for one table set take a
    /// [`PlanCache::slot`] instead.
    pub fn insert_with(
        &mut self,
        rel: TableSet,
        cost: &CostVector,
        format: OutputFormat,
        admission: &Admission,
        make: impl FnOnce() -> P,
    ) -> bool {
        self.slot(rel).insert_with(cost, format, admission, make)
    }

    /// Opens the frontier of `rel` for a run of insertions — the hot-path
    /// entry point of the frontier approximation, which offers every
    /// operator of every operand pair of a join node to one table set: the
    /// session-sized map is probed once here, not once per candidate, and
    /// the frontier's screening tallies are drained once, when the slot is
    /// dropped — as is the change list's one branch.
    pub fn slot(&mut self, rel: TableSet) -> CacheSlot<'_, P> {
        self.open(rel, true)
    }

    /// [`PlanCache::slot`] for plans that come *from* an exchange partner
    /// (`Rmq::warm_start`): what they admit is not news to anyone, so the
    /// slot does not put `rel` on the change list. If `rel` is already on
    /// it, the fresh suffix still grows past the arrivals so that it keeps
    /// covering the members it covered before.
    pub fn slot_absorbing(&mut self, rel: TableSet) -> CacheSlot<'_, P> {
        self.open(rel, false)
    }

    fn open(&mut self, rel: TableSet, marks: bool) -> CacheSlot<'_, P> {
        CacheSlot {
            entry: self.map.entry(rel).or_default(),
            rel,
            marks,
            opened_at: self.insertions,
            changed: &mut self.changed,
            insertions: &mut self.insertions,
            rejections: &mut self.rejections,
            screen: &mut self.screen,
        }
    }

    /// The change list: every table set that admitted a plan since the last
    /// [`PlanCache::clear_changed`], once, in the order they first changed,
    /// as `(table set, frontier, first fresh index)` — the members at and
    /// past the index include every plan admitted since (see the module
    /// docs for why it is a suffix).
    pub fn changed_sets(&self) -> impl Iterator<Item = (TableSet, &ParetoSet<P>, usize)> {
        self.changed.iter().map(|rel| {
            let entry = &self.map[rel];
            (*rel, &entry.set, entry.set.len() - entry.fresh)
        })
    }

    /// Empties the change list (the parallel optimizer does so right after
    /// publishing it).
    pub fn clear_changed(&mut self) {
        for rel in self.changed.drain(..) {
            if let Some(entry) = self.map.get_mut(&rel) {
                entry.fresh = 0;
            }
        }
    }

    /// Number of distinct table sets with a cached frontier.
    pub fn num_table_sets(&self) -> usize {
        self.map.len()
    }

    /// Total number of cached plans over all table sets.
    pub fn total_plans(&self) -> usize {
        self.map.values().map(|e| e.set.len()).sum()
    }

    /// Size of the largest per-table-set frontier (for Lemma 6 checks).
    pub fn max_frontier_size(&self) -> usize {
        self.map.values().map(|e| e.set.len()).max().unwrap_or(0)
    }

    /// Lifetime counters: `(kept, rejected)` insertion attempts.
    pub fn counters(&self) -> (u64, u64) {
        (self.insertions, self.rejections)
    }

    /// Returns and resets the screening tallies accumulated across all
    /// per-table-set frontiers — the cache-side analogue of
    /// [`ParetoSet::take_screen_counters`], flushed to the `moqo-obs`
    /// registry at iteration granularity by the RMQ loop.
    pub fn take_screen_counters(&mut self) -> ScreenCounters {
        std::mem::take(&mut self.screen)
    }

    /// Iterates over `(table set, frontier)` entries in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (TableSet, &[P])> {
        self.map.iter().map(|(k, v)| (*k, v.set.plans()))
    }

    /// Iterates over `(table set, frontier set)` entries in unspecified
    /// order — the batch-merge view: unlike [`entries`](PlanCache::entries)
    /// it exposes the [`ParetoSet`]s themselves (inline cost metadata
    /// included), so a consumer can [`ParetoSet::merge_with`] a whole
    /// sub-query frontier without re-deriving candidate costs. Used by the
    /// parallel optimizer to exchange partial-plan frontiers.
    pub fn entry_sets(&self) -> impl Iterator<Item = (TableSet, &ParetoSet<P>)> {
        self.map.iter().map(|(k, v)| (*k, &v.set))
    }

    /// Removes every cached entry (used by cache-ablation experiments).
    pub fn clear(&mut self) {
        self.map.clear();
        self.changed.clear();
    }
}

/// One table set's cached frontier, opened by [`PlanCache::slot`].
#[derive(Debug)]
pub struct CacheSlot<'a, P> {
    entry: &'a mut Entry<P>,
    rel: TableSet,
    /// Whether admissions put `rel` on the change list.
    marks: bool,
    /// The cache's `insertions` when the slot opened.
    opened_at: u64,
    changed: &'a mut Vec<TableSet>,
    insertions: &'a mut u64,
    rejections: &'a mut u64,
    screen: &'a mut ScreenCounters,
}

impl<P> CacheSlot<'_, P> {
    /// [`PlanCache::insert_with`] for this slot's table set: most operator
    /// combinations are pruned and must not allocate, so `make` runs only
    /// on admission.
    #[inline]
    pub fn insert_with(
        &mut self,
        cost: &CostVector,
        format: OutputFormat,
        admission: &Admission,
        make: impl FnOnce() -> P,
    ) -> bool {
        let kept = self.entry.set.admit(cost, format, admission, make);
        if kept {
            *self.insertions += 1;
        } else {
            *self.rejections += 1;
        }
        kept
    }
}

impl<P> Drop for CacheSlot<'_, P> {
    fn drop(&mut self) {
        self.screen.absorb(&self.entry.set.take_screen_counters());
        let admitted = (*self.insertions - self.opened_at) as usize;
        if admitted > 0 && (self.marks || self.entry.fresh > 0) {
            if self.entry.fresh == 0 {
                self.changed.push(self.rel);
            }
            self.entry.fresh = (self.entry.fresh + admitted).min(self.entry.set.len());
        }
    }
}

impl PlanCache<PlanRef> {
    /// Inserts `plan` into the frontier of its own table set under the
    /// given admission (Algorithm 3's `Prune` for approximate rules).
    /// Returns `true` iff the plan was kept.
    pub fn insert(&mut self, plan: PlanRef, admission: &Admission) -> bool {
        let rel = plan.rel();
        let cost = *plan.cost();
        let format = plan.format();
        self.insert_with(rel, &cost, format, admission, move || plan)
    }

    /// Debug check: every stored plan is filed under its own table set and
    /// every per-set frontier satisfies the Pareto-set invariant.
    pub fn check_invariant(&self) -> bool {
        self.map
            .iter()
            .all(|(rel, e)| e.set.check_invariant() && e.set.iter().all(|p| p.rel() == *rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::StubModel;
    use crate::model::{JoinOpId, ScanOpId};
    use crate::plan::Plan;
    use crate::tables::TableId;

    fn model() -> StubModel {
        StubModel::line(3, 2, 7)
    }

    #[test]
    fn empty_cache_has_empty_frontiers() {
        let cache: PlanCache = PlanCache::new();
        assert!(cache.frontier(TableSet::prefix(2)).is_empty());
        assert_eq!(cache.num_table_sets(), 0);
        assert_eq!(cache.total_plans(), 0);
        assert_eq!(cache.max_frontier_size(), 0);
    }

    #[test]
    fn insert_files_plans_under_their_rel() {
        let m = model();
        let mut cache = PlanCache::new();
        let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
        let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(0));
        let j = Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(0));
        let exact = Admission::exact();
        assert!(cache.insert(s0.clone(), &exact));
        assert!(cache.insert(s1, &exact));
        assert!(cache.insert(j.clone(), &exact));
        assert_eq!(cache.num_table_sets(), 3);
        assert_eq!(cache.frontier(j.rel()).len(), 1);
        assert_eq!(cache.frontier(s0.rel()).len(), 1);
        assert!(cache.check_invariant());
    }

    #[test]
    fn coarse_alpha_caps_frontier_growth() {
        let m = model();
        let mut cache = PlanCache::new();
        let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
        let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(0));
        // With a huge alpha, at most one plan per output format survives
        // per table set, regardless of how many tradeoffs we insert.
        for op in 0..3u16 {
            cache.insert(
                Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(op)),
                &Admission::approx(1e12),
            );
        }
        // Ops 0 and 1 share format 0, op 2 has format 1.
        assert!(cache.frontier(TableSet::prefix(2)).len() <= 2);

        // With alpha = 1, the two incomparable format-0 plans both survive.
        let mut fine = PlanCache::new();
        for op in 0..3u16 {
            fine.insert(
                Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(op)),
                &Admission::exact(),
            );
        }
        assert_eq!(fine.frontier(TableSet::prefix(2)).len(), 3);
    }

    #[test]
    fn counters_track_keeps_and_rejections() {
        let m = model();
        let mut cache = PlanCache::new();
        let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
        assert!(cache.insert(s0.clone(), &Admission::exact()));
        // The original weakly dominates the duplicate (equal cost), so
        // SigBetter rejects the re-insertion.
        assert!(!cache.insert(s0, &Admission::exact()));
        let (kept, rejected) = cache.counters();
        assert_eq!((kept, rejected), (1, 1));
        assert_eq!(cache.total_plans(), 1);
    }

    #[test]
    fn change_list_names_each_changed_set_once_with_its_fresh_suffix() {
        let m = model();
        let mut cache = PlanCache::new();
        let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
        let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(0));
        let join = |op| Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(op));
        let exact = Admission::exact();
        cache.insert(s0.clone(), &exact);
        cache.insert(join(0), &exact);
        // A rejected duplicate changes nothing.
        cache.insert(s0.clone(), &exact);
        let changed: Vec<_> = cache
            .changed_sets()
            .map(|(rel, set, from)| (rel, set.len(), from))
            .collect();
        assert_eq!(changed, vec![(s0.rel(), 1, 0), (join(0).rel(), 1, 0)]);
        cache.clear_changed();
        assert_eq!(cache.changed_sets().count(), 0);
        // Two more admissions to one set: listed once, suffix of two.
        cache.insert(join(1), &exact);
        cache.insert(join(2), &exact);
        let changed: Vec<_> = cache
            .changed_sets()
            .map(|(rel, set, from)| (rel, set.len(), from))
            .collect();
        assert_eq!(changed, vec![(join(0).rel(), 3, 1)]);
    }

    #[test]
    fn absorbing_slots_stay_off_the_change_list_but_keep_a_suffix_whole() {
        let m = model();
        let mut cache: PlanCache = PlanCache::new();
        let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
        let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(0));
        let joins: Vec<_> = (0..3u16)
            .map(|op| Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(op)))
            .collect();
        let rel = joins[0].rel();
        let exact = Admission::exact();
        let absorb = |cache: &mut PlanCache, p: &PlanRef| {
            cache
                .slot_absorbing(p.rel())
                .insert_with(p.cost(), p.format(), &exact, || p.clone())
        };
        assert!(absorb(&mut cache, &joins[0]));
        assert_eq!(cache.changed_sets().count(), 0);
        // An own admission behind the absorbed plan: a suffix of one.
        assert!(cache.insert(joins[1].clone(), &exact));
        let from = |cache: &PlanCache| cache.changed_sets().map(|(_, _, from)| from).next();
        assert_eq!(from(&cache), Some(1));
        // An arrival behind a pending admission must not push it out of the
        // suffix.
        assert!(absorb(&mut cache, &joins[2]));
        assert_eq!(from(&cache), Some(1));
        assert_eq!(cache.frontier(rel).len(), 3);
    }

    #[test]
    fn clear_empties_cache() {
        let m = model();
        let mut cache = PlanCache::new();
        cache.insert(
            Plan::scan(&m, TableId::new(0), ScanOpId(0)),
            &Admission::exact(),
        );
        cache.clear();
        assert_eq!(cache.num_table_sets(), 0);
    }
}
