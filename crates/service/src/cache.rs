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
//! # Storage & eviction
//!
//! Entries store the published `Arc<Plan>` trees themselves, and a lookup
//! hands out clones of those `Arc`s: plans that share sub-trees share them
//! in the cache too, and a tree's nodes are freed when the last entry,
//! session or snapshot holding it lets go. The cache is bounded by total
//! stored plans ([`CACHE_MAX_PLANS`]); eviction is least-recently-used at
//! entry (table-set) granularity, and a context's map goes with its last
//! entry.

use std::collections::HashMap;
use std::sync::Mutex;

use moqo_core::archive::Admission;
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::tables::TableSet;

/// Upper bound on the total number of plans a service's cross-query cache
/// stores across all entries.
pub const CACHE_MAX_PLANS: usize = 50_000;

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

/// One table set's cached plans, admitted under [`Admission::exact`].
struct Entry {
    set: ParetoSet<PlanRef>,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    /// Context fingerprint → its entries, so warm-start lookups stay
    /// confined to one context's entries instead of walking every cached
    /// context. (Global eviction still scans all entries — once per
    /// overflowing publish, see `publish`.)
    map: HashMap<u64, HashMap<TableSet, Entry>>,
    /// Every publish's admission tallies: plans admitted, rejected, and
    /// displaced by a dominating newcomer.
    screen: ScreenCounters,
    /// Plans dropped with LRU-evicted entries.
    lru_evicted: u64,
    clock: u64,
    total_plans: usize,
    lookups: u64,
    hits: u64,
}

/// The shared, bounded cross-query plan cache.
pub(crate) struct SharedPlanCache {
    /// Upper bound on the total number of stored plans.
    max_plans: usize,
    inner: Mutex<CacheInner>,
}

impl SharedPlanCache {
    pub(crate) fn new(max_plans: usize) -> Self {
        SharedPlanCache {
            max_plans,
            inner: Mutex::default(),
        }
    }

    /// Collects every cached plan for `context` whose table set is
    /// contained in `query` — the warm-start set for a new session. Only
    /// the matching context's entries are scanned; the plans are clones of
    /// the stored `Arc`s.
    pub(crate) fn lookup(&self, context: u64, query: TableSet) -> Vec<PlanRef> {
        let mut inner = self.inner.lock().unwrap();
        inner.lookups += 1;
        inner.clock += 1;
        let clock = inner.clock;
        let mut out = Vec::new();
        if let Some(entries) = inner.map.get_mut(&context) {
            for (rel, entry) in entries.iter_mut() {
                if rel.is_subset(query) {
                    entry.last_used = clock;
                    out.extend(entry.set.iter().cloned());
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
        if plans.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.clock += 1;
        let clock = inner.clock;
        let before = inner.screen;
        let entries = inner.map.entry(context).or_default();
        for plan in plans {
            let entry = entries.entry(plan.rel()).or_insert_with(|| Entry {
                set: ParetoSet::new(),
                last_used: clock,
            });
            entry.last_used = clock;
            entry
                .set
                .insert(plan, &Admission::exact(), &mut inner.screen);
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
        if inner.total_plans > self.max_plans {
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
            while inner.total_plans > self.max_plans {
                let Some((_, ctx, rel)) = victims.next() else {
                    break;
                };
                let entries = inner.map.get_mut(&ctx).expect("victim context exists");
                let entry = entries.remove(&rel).expect("victim entry exists");
                if entries.is_empty() {
                    inner.map.remove(&ctx);
                }
                inner.total_plans -= entry.set.len();
                inner.lru_evicted += entry.set.len() as u64;
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
            entries: inner.map.values().map(HashMap::len).sum(),
            published: inner.screen.admitted,
            evicted: inner.screen.evicted + inner.lru_evicted,
            rejected: inner.screen.rejected,
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
    use std::sync::Arc;

    fn scan(model: &StubModel, t: usize, op: usize) -> PlanRef {
        Plan::scan(model, TableId::new(t), model.scan_ops(TableId::new(t))[op])
    }

    #[test]
    fn lookup_returns_contained_table_sets_only() {
        let model = StubModel::line(4, 2, 1);
        let cache = SharedPlanCache::new(CACHE_MAX_PLANS);
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
        let cache = SharedPlanCache::new(CACHE_MAX_PLANS);
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
        let cache = SharedPlanCache::new(CACHE_MAX_PLANS);
        cache.publish(1, vec![good.clone()]);
        cache.publish(1, vec![bad.clone()]);
        assert_eq!(cache.stats().plans, 1, "dominated publish must be dropped");
        assert_eq!(
            cache.lookup(1, rel)[0].cost().as_slice(),
            good.cost().as_slice()
        );

        // Dominating publish after the bad plan: evicts it.
        let cache = SharedPlanCache::new(CACHE_MAX_PLANS);
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
        let cache = SharedPlanCache::new(4);
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
    fn lookup_hands_out_the_published_plans() {
        use moqo_core::model::{JoinOpId, ScanOpId};
        let model = StubModel::line(3, 2, 1);
        let s = |t: usize| Plan::scan(&model, TableId::new(t), ScanOpId(0));
        let j01 = Plan::join(&model, s(0), s(1), JoinOpId(0));
        let published = vec![s(2), j01];
        let cache = SharedPlanCache::new(CACHE_MAX_PLANS);
        cache.publish(1, published.clone());
        let hits = cache.lookup(1, TableSet::prefix(3));
        assert_eq!(hits.len(), published.len());
        for plan in &published {
            assert!(
                hits.iter().any(|hit| Arc::ptr_eq(hit, plan)),
                "lookup must return the published Arc, not a copy"
            );
        }
    }

    #[test]
    fn exact_republishes_are_rejected() {
        // A structurally identical plan has the cached plan's cost and
        // format, so the exact rule rejects it.
        let model = StubModel::line(2, 2, 1);
        let cache = SharedPlanCache::new(CACHE_MAX_PLANS);
        cache.publish(1, vec![scan(&model, 0, 0)]);
        cache.publish(1, vec![scan(&model, 0, 0), scan(&model, 0, 0)]);
        let stats = cache.stats();
        assert_eq!(stats.plans, 1);
        assert_eq!(stats.rejected, 2);
        // The same structure under a different context is a fresh key.
        cache.publish(2, vec![scan(&model, 0, 0)]);
        assert_eq!(cache.stats().plans, 2);
    }

    #[test]
    fn lru_eviction_drops_a_context_with_its_last_entry() {
        let model = StubModel::line(10, 2, 1);
        let cache = SharedPlanCache::new(2);
        // Publish structurally distinct left-deep trees (the round's bits
        // pick each leaf's scan operator → 1024 distinct shapes), each under
        // its own context, while LRU eviction keeps only 2 entries live: an
        // evicted context must leave the map with its last entry.
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
        assert!(cache.inner.lock().unwrap().map.len() <= 2);
        // The surviving contexts' plans are structurally valid plans.
        let mut live = 0;
        for ctx in (0..u64::from(rounds)).rev() {
            for plan in cache.lookup(ctx, TableSet::prefix(10)) {
                assert!(plan.validate(plan.rel()).is_ok());
                live += 1;
            }
        }
        assert_eq!(live, stats.plans);
    }

    #[test]
    fn contexts_of_different_dimensions_keep_their_own_costs() {
        let (two, three) = (StubModel::line(3, 2, 1), StubModel::line(3, 3, 1));
        let cache = SharedPlanCache::new(CACHE_MAX_PLANS);
        cache.publish(1, vec![scan(&two, 0, 0), scan(&two, 1, 0)]);
        cache.publish(2, vec![scan(&three, 0, 0)]);
        assert_eq!(cache.stats().plans, 3);
        for (context, model) in [(1, &two), (2, &three)] {
            for plan in cache.lookup(context, TableSet::prefix(3)) {
                let fresh = scan(model, plan.rel().iter().next().unwrap().index(), 0);
                assert_eq!(plan.cost().as_slice(), fresh.cost().as_slice());
            }
        }
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
            let cache = SharedPlanCache::new(usize::MAX);
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
            let mut cached = Groups::new();
            for (rel, entry) in &inner.map[&1] {
                for (plan, cost) in entry.set.plans().iter().zip(entry.set.costs()) {
                    cached.entry((*rel, plan.format())).or_default().push(*cost);
                }
            }
            prop_assert_eq!(cached.len(), published.len());
            for (key, costs) in &published {
                prop_assert_eq!(&cached[key], &moqo_metrics::pareto_filter(costs));
            }
        }
    }
}
