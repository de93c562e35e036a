//! The bounded cross-query partial-plan cache.
//!
//! RMQ's in-optimizer plan cache shares partial plans **across iterations**
//! of one query (§4.3 of the paper). This module extends that sharing
//! **across queries**: when a session finishes, its non-dominated partial
//! plans are published here keyed by `(context fingerprint, table set)`;
//! when a new session is admitted, every published frontier whose table set
//! is contained in the new query is handed to the fresh optimizer, which
//! parks it by table set and imports a frontier into its own cache when it
//! first touches that set (an exact-pruning, lazy warm start, see
//! `Rmq::warm_start`). A finished session publishes what it found itself —
//! what it absorbed is not echoed back (`Rmq::export_plans`).
//!
//! Each entry is a `moqo_core` [`ParetoSet`] under the exact rule
//! ([`Admission::exact`]), the same admission the optimizer's own plan
//! cache runs: a published plan is rejected if a cached plan of its format
//! weakly dominates it — an exact re-publish included, since it has the
//! same cost and format — and otherwise evicts the plans it dominates.
//!
//! The **context fingerprint** must capture everything that makes two
//! sessions' cost vectors comparable: the catalog statistics *and* the cost
//! model configuration (metrics, model kind). Use
//! [`context_fingerprint`](crate::context_fingerprint) to derive one from
//! `Catalog::fingerprint` plus a model tag.
//!
//! # Arena-backed storage & eviction story
//!
//! Cached plans live in one hash-consed `PlanArena` per context, owned by
//! the cache, so structurally shared partial plans published by different
//! sessions (and different queries!) of a context are stored once, and
//! entries hold `PlanId`s into it. A plan is interned only once its entry
//! admits it, so a rejected publish adds no node. Contexts never share an
//! arena: a node carries its cost, and two contexts cost the same structure
//! differently (other statistics, other metrics — possibly another number
//! of them, while an arena stores costs at one dimension).
//!
//! Of the two possible ownership designs — a shared epoch-swept arena that
//! sessions intern into directly, versus per-session arenas with
//! *compaction on cache insert* — we use the latter: each optimizer session
//! owns its arena (lock-free, `Send`, dropped wholesale with the session),
//! and `publish` re-interns only the surviving published plans into the
//! cache's arena under the cache mutex. A shared arena would avoid the
//! re-interning copy but would put an arena lock on every optimizer-internal
//! plan construction and could never reclaim dead session plans; the
//! per-session design keeps the hot path lock-free and bounds the shared
//! arenas by *published* (not explored) plans. Because a context's arena is
//! append-only while entries are LRU-evicted, it is rebuilt from the live
//! roots (dropping unreachable nodes) whenever it has grown well past the
//! live plan count — see `Context::maybe_compact` — and dropped with the
//! context's last entry.
//!
//! The cache is bounded by total stored plans; eviction is
//! least-recently-used at entry (table-set) granularity.

use std::collections::HashMap;
use std::sync::Mutex;

use moqo_core::archive::Admission;
use moqo_core::arena::{ImportMemo, PlanArena, PlanId};
use moqo_core::fxhash::FxHashMap;
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::tables::TableSet;

/// Configuration of the cross-query plan cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Upper bound on the total number of cached plans across all entries.
    /// `0` disables cross-query caching entirely.
    pub max_plans: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_plans: 50_000 }
    }
}

/// Point-in-time counters of the cross-query cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Warm-start lookups performed (one per admitted session).
    pub lookups: u64,
    /// Lookups that returned at least one plan.
    pub hits: u64,
    /// Plans currently stored.
    pub plans: usize,
    /// Entries (distinct `(context, table set)` keys) currently stored.
    pub entries: usize,
    /// Plans ever published into the cache.
    pub published: u64,
    /// Plans evicted: displaced by a dominating publish, or dropped with
    /// an entry by the size bound.
    pub evicted: u64,
    /// Published plans the exact rule turned away — dominated by, or equal
    /// in cost and format to, a cached plan (exact re-publishes included).
    pub rejected: u64,
    /// Interned nodes currently in the cache's arenas (occupancy).
    pub arena_nodes: usize,
    /// Times a context's arena was compacted (rebuilt from live roots).
    pub compactions: u64,
}

impl CacheStats {
    /// Fraction of lookups that found overlapping cached state.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// One table set's cached plans: ids into the context's arena, admitted
/// under [`Admission::exact`].
struct Entry {
    set: ParetoSet<PlanId>,
    last_used: u64,
}

/// One context's entries and the arena their plans live in.
#[derive(Default)]
struct Context {
    entries: HashMap<TableSet, Entry>,
    arena: PlanArena,
    /// Arena occupancy at the end of the last compaction (growth trigger).
    compacted_len: usize,
}

impl Context {
    /// Rebuilds the arena from the live cached roots when it has grown well
    /// past what those roots reach (entries were LRU-evicted or displaced
    /// but their interned nodes are append-only). Amortized: runs at most
    /// once per doubling of the arena, and remaps every stored id through
    /// one memo. Returns whether it ran.
    fn maybe_compact(&mut self) -> bool {
        if self.arena.len() < 1024 || self.arena.len() < 2 * self.compacted_len.max(512) {
            return false;
        }
        let mut fresh = PlanArena::new();
        let mut memo: FxHashMap<PlanId, PlanId> = FxHashMap::default();
        // Re-admitting a valid exact set in its own order admits every
        // member, in that order: only the ids change.
        let mut screen = ScreenCounters::default();
        for entry in self.entries.values_mut() {
            let mut set = ParetoSet::new();
            set.merge_from(&entry.set, 0, &Admission::exact(), &mut screen, |&id| {
                fresh.adopt(&self.arena, id, &mut memo)
            });
            entry.set = set;
        }
        self.arena = fresh;
        self.compacted_len = self.arena.len();
        true
    }
}

#[derive(Default)]
struct CacheInner {
    /// Context fingerprint → its entries and arena, so warm-start lookups
    /// stay confined to one context's entries instead of walking every
    /// cached context. (Global eviction still scans all entries — once per
    /// overflowing publish, see `publish`.)
    map: HashMap<u64, Context>,
    /// Every publish's admission tallies: plans admitted, rejected, and
    /// displaced by a dominating newcomer.
    screen: ScreenCounters,
    /// Plans dropped with LRU-evicted entries.
    lru_evicted: u64,
    compactions: u64,
    clock: u64,
    total_plans: usize,
    lookups: u64,
    hits: u64,
}

/// The shared, bounded cross-query plan cache.
pub(crate) struct SharedPlanCache {
    config: CacheConfig,
    inner: Mutex<CacheInner>,
}

impl SharedPlanCache {
    pub(crate) fn new(config: CacheConfig) -> Self {
        SharedPlanCache {
            config,
            inner: Mutex::default(),
        }
    }

    /// Collects every cached plan for `context` whose table set is
    /// contained in `query` — the warm-start set for a new session. Only
    /// the matching context's entries are scanned; plans are exported from
    /// the context's arena at the boundary (memoized per node).
    pub(crate) fn lookup(&self, context: u64, query: TableSet) -> Vec<PlanRef> {
        let mut inner = self.inner.lock().unwrap();
        inner.lookups += 1;
        inner.clock += 1;
        let clock = inner.clock;
        let mut out = Vec::new();
        if let Some(Context { entries, arena, .. }) = inner.map.get_mut(&context) {
            for (rel, entry) in entries.iter_mut() {
                if rel.is_subset(query) {
                    entry.last_used = clock;
                    out.extend(entry.set.iter().map(|&id| arena.export(id)));
                }
            }
        }
        if !out.is_empty() {
            inner.hits += 1;
        }
        out
    }

    /// Publishes a finished session's partial plans under `context`: each
    /// plan is offered to its table set's entry under the exact rule, then
    /// the size bound is enforced.
    pub(crate) fn publish(&self, context: u64, plans: Vec<PlanRef>) {
        if self.config.max_plans == 0 || plans.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.clock += 1;
        let clock = inner.clock;
        let before = inner.screen;
        // One session's plans share most of their sub-trees (by `Arc`, its
        // arena's exports are memoized): walk each once per publish.
        let mut memo = ImportMemo::default();
        let ctx = inner.map.entry(context).or_default();
        for plan in &plans {
            let entry = ctx.entries.entry(plan.rel()).or_insert_with(|| Entry {
                set: ParetoSet::new(),
                last_used: clock,
            });
            entry.last_used = clock;
            // Compaction-on-cache-insert: only an admitted plan is
            // re-interned into the context's arena.
            let arena = &mut ctx.arena;
            entry.set.admit(
                plan.cost(),
                plan.format(),
                &Admission::exact(),
                &mut inner.screen,
                || arena.import_memoized(plan, &mut memo),
            );
        }
        let (admitted, displaced) = (
            inner.screen.admitted - before.admitted,
            inner.screen.evicted - before.evicted,
        );
        inner.total_plans = inner.total_plans + admitted as usize - displaced as usize;
        // Global bound: evict least-recently-used entries until under the
        // cap. One scan collects every entry's recency; victims are then
        // taken in LRU order — O(total entries log total entries) once per
        // overflowing publish, not per evicted entry.
        if inner.total_plans > self.config.max_plans {
            let mut recency: Vec<(u64, u64, TableSet)> = inner
                .map
                .iter()
                .flat_map(|(ctx, c)| {
                    c.entries
                        .iter()
                        .map(|(rel, entry)| (entry.last_used, *ctx, *rel))
                })
                .collect();
            recency.sort_unstable_by_key(|&(last_used, _, _)| last_used);
            let mut victims = recency.into_iter();
            while inner.total_plans > self.config.max_plans {
                let Some((_, ctx, rel)) = victims.next() else {
                    break;
                };
                let c = inner.map.get_mut(&ctx).expect("victim context exists");
                let entry = c.entries.remove(&rel).expect("victim entry exists");
                if c.entries.is_empty() {
                    // The context's arena goes with its last entry.
                    inner.map.remove(&ctx);
                }
                inner.total_plans -= entry.set.len();
                inner.lru_evicted += entry.set.len() as u64;
            }
        }
        // The published context's entries may now reference far fewer
        // nodes than its append-only arena holds (no other arena grew);
        // rebuild it from its live roots once the garbage has doubled it.
        if let Some(c) = inner.map.get_mut(&context) {
            if c.maybe_compact() {
                inner.compactions += 1;
            }
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            lookups: inner.lookups,
            hits: inner.hits,
            plans: inner.total_plans,
            entries: inner.map.values().map(|c| c.entries.len()).sum(),
            published: inner.screen.admitted,
            evicted: inner.screen.evicted + inner.lru_evicted,
            rejected: inner.screen.rejected,
            arena_nodes: inner.map.values().map(|c| c.arena.len()).sum(),
            compactions: inner.compactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::model::CostModel;
    use moqo_core::plan::Plan;
    use moqo_core::tables::TableId;
    use proptest::prelude::*;

    fn scan(model: &StubModel, t: usize, op: usize) -> PlanRef {
        Plan::scan(model, TableId::new(t), model.scan_ops(TableId::new(t))[op])
    }

    #[test]
    fn lookup_returns_contained_table_sets_only() {
        let model = StubModel::line(4, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(7, vec![scan(&model, 0, 0), scan(&model, 2, 0)]);

        // Query {0, 1}: only the T0 scan is contained.
        let hits = cache.lookup(7, TableSet::prefix(2));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rel(), TableSet::singleton(TableId::new(0)));
        // Wrong context: nothing.
        assert!(cache.lookup(8, TableSet::prefix(4)).is_empty());
        let stats = cache.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_plans_are_not_stored_twice() {
        let model = StubModel::line(2, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(1, vec![scan(&model, 0, 0), scan(&model, 0, 0)]);
        assert_eq!(cache.stats().plans, 1);
        // A different operator has an incomparable cost profile: kept.
        cache.publish(1, vec![scan(&model, 0, 1)]);
        assert_eq!(cache.stats().plans, 2);
    }

    #[test]
    fn dominated_plans_are_pruned_across_publishes() {
        use moqo_core::model::{JoinOpId, ScanOpId};
        // On a 3-table chain, joining the non-adjacent pair first forces a
        // cross product: same operators, same rel, same format, strictly
        // larger work in every metric — a strictly dominated plan.
        let model = StubModel::line(3, 2, 1);
        let scan = |t: usize| Plan::scan(&model, TableId::new(t), ScanOpId(0));
        let good = Plan::join(
            &model,
            Plan::join(&model, scan(0), scan(1), JoinOpId(0)),
            scan(2),
            JoinOpId(0),
        );
        let bad = Plan::join(
            &model,
            Plan::join(&model, scan(0), scan(2), JoinOpId(0)),
            scan(1),
            JoinOpId(0),
        );
        assert!(good.cost().strictly_dominates(bad.cost()), "fixture");
        let rel = TableSet::prefix(3);

        // Dominated publish after the good plan: dropped.
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(1, vec![good.clone()]);
        cache.publish(1, vec![bad.clone()]);
        assert_eq!(cache.stats().plans, 1, "dominated publish must be dropped");
        assert_eq!(
            cache.lookup(1, rel)[0].cost().as_slice(),
            good.cost().as_slice()
        );

        // Dominating publish after the bad plan: evicts it.
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(2, vec![bad]);
        cache.publish(2, vec![good.clone()]);
        let stats = cache.stats();
        assert_eq!(stats.plans, 1, "dominating publish must evict");
        assert!(stats.evicted >= 1);
        assert_eq!(
            cache.lookup(2, rel)[0].cost().as_slice(),
            good.cost().as_slice()
        );
    }

    #[test]
    fn global_bound_evicts_lru_entries() {
        let model = StubModel::line(8, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig { max_plans: 4 });
        for t in 0..4 {
            cache.publish(1, vec![scan(&model, t, 0)]);
        }
        assert_eq!(cache.stats().plans, 4);
        // Touch tables 1..4 so table 0 becomes the LRU entry.
        for t in 1..4 {
            let _ = cache.lookup(1, TableSet::singleton(TableId::new(t)));
        }
        cache.publish(1, vec![scan(&model, 5, 0)]);
        let stats = cache.stats();
        assert_eq!(stats.plans, 4, "bound enforced");
        assert!(stats.evicted >= 1);
        assert!(
            cache
                .lookup(1, TableSet::singleton(TableId::new(0)))
                .is_empty(),
            "LRU entry (T0) evicted"
        );
        assert_eq!(
            cache.lookup(1, TableSet::singleton(TableId::new(5))).len(),
            1,
            "newest entry survives"
        );
    }

    #[test]
    fn exact_republishes_are_rejected_without_interning() {
        // A structurally identical plan has the cached plan's cost and
        // format, so the exact rule rejects it before it is interned.
        let model = StubModel::line(2, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(1, vec![scan(&model, 0, 0)]);
        cache.publish(1, vec![scan(&model, 0, 0), scan(&model, 0, 0)]);
        let stats = cache.stats();
        assert_eq!((stats.plans, stats.arena_nodes), (1, 1));
        assert_eq!(stats.rejected, 2);
        // The same structure under a different context is a fresh key,
        // stored in that context's own arena.
        cache.publish(2, vec![scan(&model, 0, 0)]);
        assert_eq!(cache.stats().plans, 2);
        assert_eq!(cache.stats().arena_nodes, 2);
    }

    #[test]
    fn shared_subplans_are_stored_once_across_publishers() {
        use moqo_core::model::{JoinOpId, ScanOpId};
        let model = StubModel::line(3, 2, 1);
        let s = |t: usize| Plan::scan(&model, TableId::new(t), ScanOpId(0));
        // Two different sessions publish overlapping join trees.
        let j01 = Plan::join(&model, s(0), s(1), JoinOpId(0));
        let j01_2 = Plan::join(&model, j01.clone(), s(2), JoinOpId(1));
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(1, vec![j01.clone()]);
        let before = cache.stats().arena_nodes;
        cache.publish(1, vec![j01_2]);
        let after = cache.stats().arena_nodes;
        // The second publish added only its two new nodes (T2 scan + root):
        // the shared (T0 ⋈ T1) subtree was interned already.
        assert_eq!(after - before, 2, "subplan sharing failed");
    }

    #[test]
    fn one_publish_walks_a_shared_subtree_once_and_lands_on_import_s_ids() {
        use moqo_core::model::{JoinOpId, ScanOpId};
        let model = StubModel::line(3, 2, 1);
        let s = |t: usize| Plan::scan(&model, TableId::new(t), ScanOpId(0));
        // Three incomparable roots over the same two operand `Arc`s.
        let (sub, s2) = (Plan::join(&model, s(0), s(1), JoinOpId(0)), s(2));
        let plans: Vec<PlanRef> = (0..3u16)
            .map(|op| Plan::join(&model, sub.clone(), s2.clone(), JoinOpId(op)))
            .collect();
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(1, plans.clone());
        let inner = cache.inner.lock().unwrap();
        // 4 operand nodes + 3 roots, each interned by a miss: the second and
        // third plan found their operands in the memo, not in the arena.
        let stats = inner.map[&1].arena.stats();
        assert_eq!((stats.misses, stats.dedup_hits), (7, 0));
        let mut reference = PlanArena::new();
        let expected: Vec<PlanId> = plans.iter().map(|p| reference.import(p)).collect();
        assert_eq!(reference.stats().dedup_hits, 8, "what a plain import pays");
        let stored = inner.map[&1].entries[&plans[0].rel()].set.plans();
        assert_eq!(stored, expected);
    }

    #[test]
    fn garbage_triggers_arena_compaction_and_preserves_lookups() {
        let model = StubModel::line(10, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig { max_plans: 1 });
        // Each round publishes a structurally distinct left-deep tree (the
        // round's bits pick each leaf's scan operator), then the T0 scan.
        // The one-plan bound evicts the older entry each time: the tree's
        // entry goes, the context lives on in the scan's entry, and the
        // tree's interned nodes stay behind as garbage until the arena is
        // compacted.
        use moqo_core::model::{JoinOpId, ScanOpId};
        let mut round = 0u16;
        while cache.stats().compactions == 0 && round < 2000 {
            let mut plan = Plan::scan(&model, TableId::new(0), ScanOpId(round & 1));
            for leaf in 1..10usize {
                let op = ScanOpId((round >> leaf) & 1);
                let scan = Plan::scan(&model, TableId::new(leaf), op);
                plan = Plan::join(&model, plan, scan, JoinOpId(0));
            }
            cache.publish(1, vec![plan]);
            cache.publish(1, vec![scan(&model, 0, 0)]);
            round += 1;
        }
        let stats = cache.stats();
        assert!(stats.compactions >= 1, "compaction never ran");
        assert_eq!(stats.plans, 1);
        // Live plans survive compaction with valid ids: exporting them
        // still yields structurally valid plans, and re-publishing them is
        // rejected as the exact duplicates they are.
        let live = cache.lookup(1, TableSet::prefix(10));
        assert_eq!(live.len(), stats.plans);
        for plan in &live {
            assert!(plan.validate(plan.rel()).is_ok());
        }
        cache.publish(1, live);
        assert_eq!(cache.stats().rejected, stats.rejected + stats.plans as u64);
        // Compaction dropped the dead nodes: what is left is at most the
        // last round's tree and scan, far below the total ever interned.
        assert!(
            stats.arena_nodes <= 20,
            "arena not compacted: {} nodes",
            stats.arena_nodes
        );
    }

    #[test]
    fn eviction_triggers_arena_compaction_and_preserves_lookups() {
        let model = StubModel::line(10, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig { max_plans: 2 });
        // Publish structurally distinct left-deep trees (the round's bits
        // pick each leaf's scan operator → 1024 distinct shapes), each under
        // its own context, while LRU eviction keeps only 2 entries live: an
        // evicted context must take its arena with it.
        use moqo_core::model::{JoinOpId, ScanOpId};
        let rounds = 2000u16;
        for round in 0..rounds {
            let mut plan = Plan::scan(&model, TableId::new(0), ScanOpId(round & 1));
            for leaf in 1..10usize {
                let op = ScanOpId((round >> leaf) & 1);
                let scan = Plan::scan(&model, TableId::new(leaf), op);
                plan = Plan::join(&model, plan, scan, JoinOpId(0));
            }
            cache.publish(u64::from(round), vec![plan]);
        }
        let stats = cache.stats();
        assert!(stats.plans <= 2);
        // The surviving contexts' plans export as structurally valid plans.
        let mut live = 0;
        for ctx in (0..u64::from(rounds)).rev() {
            for plan in cache.lookup(ctx, TableSet::prefix(10)) {
                assert!(plan.validate(plan.rel()).is_ok());
                live += 1;
            }
        }
        assert_eq!(live, stats.plans);
        // Occupancy is bounded by the live plans' structure, far below the
        // total ever interned across all contexts.
        assert!(
            stats.arena_nodes < 128,
            "evicted contexts kept their arenas: {} nodes",
            stats.arena_nodes
        );
    }

    #[test]
    fn contexts_of_different_dimensions_keep_their_own_costs() {
        let (two, three) = (StubModel::line(3, 2, 1), StubModel::line(3, 3, 1));
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(1, vec![scan(&two, 0, 0), scan(&two, 1, 0)]);
        cache.publish(2, vec![scan(&three, 0, 0)]);
        let stats = cache.stats();
        assert_eq!((stats.plans, stats.arena_nodes), (3, 3));
        for (context, model) in [(1, &two), (2, &three)] {
            for plan in cache.lookup(context, TableSet::prefix(3)) {
                let fresh = scan(model, plan.rel().iter().next().unwrap().index(), 0);
                assert_eq!(plan.cost().as_slice(), fresh.cost().as_slice());
            }
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let model = StubModel::line(2, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig { max_plans: 0 });
        cache.publish(1, vec![scan(&model, 0, 0)]);
        assert_eq!(cache.stats().plans, 0);
        assert!(cache.lookup(1, TableSet::prefix(2)).is_empty());
    }

    /// A join tree over `tables` whose shape and operators follow `seed`:
    /// each split either cuts the table list (chain joins) or takes every
    /// other table (cross products, so some trees dominate others), and
    /// joins use the operators applicable to every inner.
    fn random_plan(model: &StubModel, tables: &[TableId], seed: &mut u64) -> PlanRef {
        use moqo_core::model::{JoinOpId, ScanOpId};
        *seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let bits = *seed >> 33;
        if let [table] = tables {
            return Plan::scan(model, *table, ScanOpId((bits & 1) as u16));
        }
        let (mut outer, mut inner): (Vec<TableId>, Vec<TableId>) = if bits & 2 == 0 {
            let cut = 1 + (bits >> 4) as usize % (tables.len() - 1);
            (tables[..cut].to_vec(), tables[cut..].to_vec())
        } else {
            let every_other = |from| tables.iter().skip(from).step_by(2).copied().collect();
            (every_other(0), every_other(1))
        };
        if bits & 4 != 0 {
            std::mem::swap(&mut outer, &mut inner);
        }
        let op = JoinOpId(((bits >> 8) % 3) as u16);
        let outer = random_plan(model, &outer, seed);
        let inner = random_plan(model, &inner, seed);
        Plan::join(model, outer, inner, op)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Independent oracle: with no size bound, every entry holds, per
        /// output format, exactly `pareto_filter` of the costs published
        /// for its table set and format, in publish order.
        #[test]
        fn entries_are_the_pareto_filter_of_what_was_published(
            batches in proptest::collection::vec(
                proptest::collection::vec((0usize..4, 0u64..u64::MAX), 1..12),
                1..6,
            ),
        ) {
            use moqo_core::cost::CostVector;
            use moqo_core::model::OutputFormat;
            type Groups = HashMap<(TableSet, OutputFormat), Vec<CostVector>>;
            let model = StubModel::line(4, 2, 3);
            let t = TableId::new;
            let rels = [
                vec![t(0), t(1)],
                vec![t(0), t(1), t(2)],
                vec![t(0), t(1), t(2), t(3)],
                vec![t(1), t(2), t(3)],
            ];
            let cache = SharedPlanCache::new(CacheConfig {
                max_plans: usize::MAX,
            });
            let mut published = Groups::new();
            for batch in &batches {
                let plans: Vec<PlanRef> = batch
                    .iter()
                    .map(|&(rel, mut seed)| random_plan(&model, &rels[rel], &mut seed))
                    .collect();
                for p in &plans {
                    let group = published.entry((p.rel(), p.format())).or_default();
                    group.push(*p.cost());
                }
                cache.publish(1, plans);
            }
            let inner = cache.inner.lock().unwrap();
            let ctx = &inner.map[&1];
            let mut cached = Groups::new();
            for (rel, entry) in &ctx.entries {
                for (&id, cost) in entry.set.plans().iter().zip(entry.set.costs()) {
                    let format = ctx.arena.export(id).format();
                    cached.entry((*rel, format)).or_default().push(*cost);
                }
            }
            prop_assert_eq!(cached.len(), published.len());
            for (key, costs) in &published {
                prop_assert_eq!(&cached[key], &moqo_metrics::pareto_filter(costs));
            }
        }
    }
}
