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
//! The **context fingerprint** must capture everything that makes two
//! sessions' cost vectors comparable: the catalog statistics *and* the cost
//! model configuration (metrics, model kind). Use
//! [`context_fingerprint`](crate::context_fingerprint) to derive one from
//! `Catalog::fingerprint` plus a model tag.
//!
//! # Arena-backed storage & eviction story
//!
//! Cached plans live in one hash-consed `PlanArena` owned by the cache, so
//! structurally shared partial plans published by different sessions (and
//! different queries!) are stored once, and a cached plan's identity is the
//! integer pair **`(context fingerprint, PlanId)`** — publishing a plan the
//! cache already holds is rejected by one hash-set probe, before any
//! dominance scan runs.
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
//! arena by *published* (not explored) plans. Because the cache arena is
//! append-only while entries are LRU-evicted, it is rebuilt from the live
//! roots (dropping unreachable nodes) whenever it has grown well past the
//! live plan count — see `maybe_compact`.
//!
//! The cache is bounded by total stored plans; eviction is
//! least-recently-used at entry (table-set) granularity.

use std::collections::HashMap;
use std::sync::Mutex;

use moqo_core::archive::Admission;
use moqo_core::arena::{ImportMemo, PlanArena, PlanId};
use moqo_core::cost::CostVector;
use moqo_core::fxhash::{FxHashMap, FxHashSet};
use moqo_core::model::OutputFormat;
use moqo_core::plan::PlanRef;
use moqo_core::tables::TableSet;

/// Configuration of the cross-query plan cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Upper bound on the total number of cached plans across all entries.
    /// `0` disables cross-query caching entirely.
    pub max_plans: usize,
    /// Upper bound on plans kept per `(context, table set)` entry. When a
    /// publish would grow an entry past the cap, the established frontier
    /// is kept and the newcomer is dropped (a newcomer that *dominates*
    /// cached plans always gets in, because its victims are evicted
    /// first). With dominance pruning, entries rarely approach the cap.
    pub max_plans_per_entry: usize,
    /// Admission rule applied within each `(context, table set)` entry:
    /// published plans are screened by [`Admission::rule`]
    /// (reject-then-evict, the same contract as
    /// `moqo_core::pareto::ParetoSet::admit`). The default exact rule keeps
    /// every non-dominated tradeoff; an ε-box rule
    /// ([`Admission::eps_box`]) bounds each entry by cost precision
    /// instead.
    pub admission: Admission,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_plans: 50_000,
            max_plans_per_entry: 64,
            admission: Admission::exact(),
        }
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
    /// Plans evicted by the size bound.
    pub evicted: u64,
    /// Publishes rejected by `(context, PlanId)` identity — exact
    /// duplicates caught by one hash probe, no dominance scan.
    pub identity_rejects: u64,
    /// Interned nodes currently in the cache arena (occupancy).
    pub arena_nodes: usize,
    /// Times the cache arena was compacted (rebuilt from live roots).
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

/// A cached plan: its canonical [`PlanId`] in the cache arena plus pruning
/// metadata held inline, so publish-time admission checks read the dense
/// `(cost, format)` pair and never touch the arena (the same metadata
/// `moqo_core::pareto::ParetoSet` keeps in-optimizer).
struct CachedPlan {
    id: PlanId,
    cost: CostVector,
    format: OutputFormat,
}

struct Entry {
    plans: Vec<CachedPlan>,
    last_used: u64,
}

struct CacheInner {
    /// Two-level map: context fingerprint → table set → entry, so
    /// warm-start lookups stay confined to one context's entries instead
    /// of walking every cached context. (Global eviction still scans all
    /// entries — once per overflowing publish, see `publish`.)
    map: HashMap<u64, HashMap<TableSet, Entry>>,
    /// The cache's hash-consed plan store: every cached plan's nodes,
    /// shared across contexts and table sets.
    arena: PlanArena,
    /// Identity index `(context, PlanId)` of every stored plan: because
    /// ids are canonical per arena, an exact re-publish is one hash probe.
    ids: FxHashSet<(u64, PlanId)>,
    /// Arena occupancy at the end of the last compaction (growth trigger).
    compacted_len: usize,
    compactions: u64,
    identity_rejects: u64,
    clock: u64,
    total_plans: usize,
    lookups: u64,
    hits: u64,
    published: u64,
    evicted: u64,
}

impl CacheInner {
    /// Rebuilds the arena from the live cached roots when it has grown well
    /// past what those roots reach (entries were LRU-evicted but their
    /// interned nodes are append-only). Amortized: runs at most once per
    /// doubling of the arena, and remaps every stored id through one memo.
    fn maybe_compact(&mut self) {
        if self.arena.len() < 1024 || self.arena.len() < 2 * self.compacted_len.max(512) {
            return;
        }
        let mut fresh = PlanArena::new();
        let mut memo: FxHashMap<PlanId, PlanId> = FxHashMap::default();
        self.ids.clear();
        for (ctx, entries) in self.map.iter_mut() {
            for entry in entries.values_mut() {
                for cached in entry.plans.iter_mut() {
                    cached.id = fresh.adopt(&self.arena, cached.id, &mut memo);
                    self.ids.insert((*ctx, cached.id));
                }
            }
        }
        self.arena = fresh;
        self.compacted_len = self.arena.len();
        self.compactions += 1;
    }
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
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                arena: PlanArena::new(),
                ids: FxHashSet::default(),
                compacted_len: 0,
                compactions: 0,
                identity_rejects: 0,
                clock: 0,
                total_plans: 0,
                lookups: 0,
                hits: 0,
                published: 0,
                evicted: 0,
            }),
        }
    }

    /// Collects every cached plan for `context` whose table set is
    /// contained in `query` — the warm-start set for a new session. Only
    /// the matching context's entries are scanned; plans are exported from
    /// the cache arena at the boundary (memoized per node).
    pub(crate) fn lookup(&self, context: u64, query: TableSet) -> Vec<PlanRef> {
        let mut inner = self.inner.lock().unwrap();
        inner.lookups += 1;
        inner.clock += 1;
        let clock = inner.clock;
        let mut out = Vec::new();
        let CacheInner { map, arena, .. } = &mut *inner;
        if let Some(entries) = map.get_mut(&context) {
            for (rel, entry) in entries.iter_mut() {
                if rel.is_subset(query) {
                    entry.last_used = clock;
                    out.extend(entry.plans.iter().map(|c| arena.export(c.id)));
                }
            }
        }
        if !out.is_empty() {
            inner.hits += 1;
        }
        out
    }

    /// Publishes a finished session's partial plans under `context`,
    /// grouping them by table set, pruning by Pareto dominance within
    /// each `(table set, output format)` group, and enforcing the size
    /// bounds.
    pub(crate) fn publish(&self, context: u64, plans: Vec<PlanRef>) {
        if self.config.max_plans == 0 || plans.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        let per_entry_cap = self.config.max_plans_per_entry;
        // One session's plans share most of their sub-trees (by `Arc`, its
        // arena's exports are memoized): walk each once per publish.
        let mut memo = ImportMemo::default();
        for plan in plans {
            let rel = plan.rel();
            // Compaction-on-cache-insert: re-intern the session's plan into
            // the cache arena. The resulting id is canonical, so the
            // `(context, PlanId)` index catches an exact re-publish with
            // one probe — no dominance scan, no tree walk.
            let id = inner.arena.import_memoized(&plan, &mut memo);
            if inner.ids.contains(&(context, id)) {
                inner.identity_rejects += 1;
                continue;
            }
            let cost = *plan.cost();
            let candidate = CachedPlan {
                id,
                format: plan.format(),
                cost,
            };
            let mut stored = false;
            let mut removed = 0usize;
            {
                let CacheInner { map, ids, .. } = &mut *inner;
                let entries = map.entry(context).or_default();
                let entry = entries.entry(rel).or_insert(Entry {
                    plans: Vec::new(),
                    last_used: clock,
                });
                entry.last_used = clock;
                // Admission mirrors the optimizer-internal Pareto sets:
                // the configured rule first gets a chance to reject the
                // newcomer against every in-scope incumbent, then evicts
                // the incumbents the newcomer displaces — so entries hold
                // only mutually admissible plans (per output format for
                // format-scoped rules), across *all* publishing sessions.
                let rule = self.config.admission.rule;
                let scoped = rule.format_scoped();
                let rejected = entry.plans.iter().any(|p| {
                    (!scoped || p.format == candidate.format)
                        && rule.rejects(&p.cost, &candidate.cost)
                });
                if !rejected {
                    let before = entry.plans.len();
                    entry.plans.retain(|p| {
                        let evict = (!scoped || p.format == candidate.format)
                            && rule.evicts(&candidate.cost, &p.cost);
                        if evict {
                            ids.remove(&(context, p.id));
                        }
                        !evict
                    });
                    removed = before - entry.plans.len();
                    // Cap guard (rare once dominance-pruned): keep the
                    // established frontier, drop the newcomer.
                    if entry.plans.len() < per_entry_cap {
                        ids.insert((context, candidate.id));
                        entry.plans.push(candidate);
                        stored = true;
                    }
                }
            }
            if stored {
                inner.published += 1;
                inner.total_plans += 1;
            }
            inner.total_plans -= removed;
            inner.evicted += removed as u64;
        }
        // Global bound: evict least-recently-used entries until under the
        // cap. One scan collects every entry's recency; victims are then
        // taken in LRU order — O(total entries log total entries) once per
        // overflowing publish, not per evicted entry.
        if inner.total_plans > self.config.max_plans {
            let mut recency: Vec<(u64, u64, TableSet)> = inner
                .map
                .iter()
                .flat_map(|(ctx, entries)| {
                    entries
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
                let entries = inner.map.get_mut(&ctx).expect("victim context exists");
                let entry = entries.remove(&rel).expect("victim entry exists");
                if entries.is_empty() {
                    inner.map.remove(&ctx);
                }
                for p in &entry.plans {
                    inner.ids.remove(&(ctx, p.id));
                }
                inner.total_plans -= entry.plans.len();
                inner.evicted += entry.plans.len() as u64;
            }
        }
        // Entries (and whole contexts) may now reference far fewer nodes
        // than the append-only arena holds; rebuild from live roots once
        // the garbage has doubled the arena.
        inner.maybe_compact();
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            lookups: inner.lookups,
            hits: inner.hits,
            plans: inner.total_plans,
            entries: inner.map.values().map(HashMap::len).sum(),
            published: inner.published,
            evicted: inner.evicted,
            identity_rejects: inner.identity_rejects,
            arena_nodes: inner.arena.len(),
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
        let cache = SharedPlanCache::new(CacheConfig {
            max_plans: 4,
            max_plans_per_entry: 8,
            ..CacheConfig::default()
        });
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
    fn exact_republishes_are_identity_rejected() {
        // A structurally identical plan re-interns onto the same PlanId, so
        // the (context, PlanId) index rejects it before any dominance scan.
        let model = StubModel::line(2, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig::default());
        cache.publish(1, vec![scan(&model, 0, 0)]);
        cache.publish(1, vec![scan(&model, 0, 0), scan(&model, 0, 0)]);
        let stats = cache.stats();
        assert_eq!(stats.plans, 1);
        assert_eq!(stats.identity_rejects, 2);
        // The same structure under a different context is a fresh key.
        cache.publish(2, vec![scan(&model, 0, 0)]);
        assert_eq!(cache.stats().plans, 2);
        // ...and the arena stores the shared node once.
        assert_eq!(cache.stats().arena_nodes, 1);
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
        let stats = inner.arena.stats();
        assert_eq!((stats.misses, stats.dedup_hits), (7, 0));
        let mut reference = PlanArena::new();
        let expected: Vec<PlanId> = plans.iter().map(|p| reference.import(p)).collect();
        assert_eq!(reference.stats().dedup_hits, 8, "what a plain import pays");
        let stored: Vec<PlanId> = inner.map[&1][&plans[0].rel()]
            .plans
            .iter()
            .map(|c| c.id)
            .collect();
        assert_eq!(stored, expected);
    }

    #[test]
    fn eviction_triggers_arena_compaction_and_preserves_lookups() {
        let model = StubModel::line(10, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig {
            max_plans: 2,
            max_plans_per_entry: 8,
            ..CacheConfig::default()
        });
        // Publish structurally distinct left-deep trees (the round's bits
        // pick each leaf's scan operator → 1024 distinct shapes) to grow
        // the arena past the compaction threshold while LRU-eviction keeps
        // only 2 entries live.
        use moqo_core::model::{JoinOpId, ScanOpId};
        let mut round = 0u16;
        while cache.stats().compactions == 0 && round < 2000 {
            let mut plan = Plan::scan(&model, TableId::new(0), ScanOpId(round & 1));
            for leaf in 1..10usize {
                let op = ScanOpId((round >> leaf) & 1);
                let scan = Plan::scan(&model, TableId::new(leaf), op);
                plan = Plan::join(&model, plan, scan, JoinOpId(0));
            }
            cache.publish(u64::from(round), vec![plan]);
            round += 1;
        }
        let stats = cache.stats();
        assert!(stats.compactions >= 1, "compaction never ran");
        assert!(stats.plans <= 2);
        // Live plans survive compaction with valid ids: exporting them
        // still yields structurally valid plans.
        for ctx in (0..round as u64).rev() {
            for plan in cache.lookup(ctx, TableSet::prefix(10)) {
                assert!(plan.validate(plan.rel()).is_ok());
            }
        }
        // Compaction dropped the dead nodes: occupancy is bounded by the
        // live plans' structure, far below the total ever interned.
        assert!(
            cache.stats().arena_nodes < 128,
            "arena not compacted: {} nodes",
            cache.stats().arena_nodes
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let model = StubModel::line(2, 2, 1);
        let cache = SharedPlanCache::new(CacheConfig {
            max_plans: 0,
            max_plans_per_entry: 8,
            ..CacheConfig::default()
        });
        cache.publish(1, vec![scan(&model, 0, 0)]);
        assert_eq!(cache.stats().plans, 0);
        assert!(cache.lookup(1, TableSet::prefix(2)).is_empty());
    }
}
