//! The `RandomMOQO` main loop (Algorithm 1): the RMQ optimizer.
//!
//! Each iteration performs three steps:
//!
//! 1. **Random plan generation** — a uniform random bushy plan
//!    ([`crate::random_plan`]);
//! 2. **Local search** — multi-objective hill climbing to a local Pareto
//!    optimum ([`crate::climb::pareto_climb_in`]);
//! 3. **Frontier approximation** — approximate the Pareto frontier of every
//!    intermediate result used by the locally optimal plan, sharing partial
//!    plans across iterations through the plan cache
//!    ([`crate::frontier::approximate_frontiers_in`]), with a precision that
//!    refines as iterations progress.
//!
//! The result plan set is the cached frontier of the full query table set,
//! `P[q]`. The optimizer is *anytime*: it implements
//! [`crate::optimizer::Optimizer`] and can be run under any budget.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::archive::{Admission, ArchiveConfig};
use crate::arena::{ImportMemo, PlanArena, PlanId, PlanNodeKind};
use crate::cache::PlanCache;
use crate::climb::{
    pareto_climb_aborting_in, pareto_climb_in, ClimbConfig, ClimbStats, StepScratch,
};
use crate::frontier::{approximate_frontiers_in, FrontierScratch};
use crate::fxhash::FxHashMap;
use crate::model::CostModel;
use crate::mutations::MutationSet;
use crate::optimizer::{AbortCheck, ConvergencePoint, Optimizer, PlanExchange};
use crate::pareto::ParetoSet;
use crate::plan::PlanRef;
use crate::random_plan::{random_left_deep_plan_in, random_plan_in};
use crate::tables::TableSet;

/// Which join-order space the optimizer explores (§4.1 notes the algorithm
/// adapts to different spaces "by exchanging the random plan generation
/// method and the set of considered local transformations" — selecting
/// [`PlanSpace::LeftDeep`] exchanges both).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlanSpace {
    /// Unconstrained bushy plans (the paper's evaluation space).
    #[default]
    Bushy,
    /// Left-deep plans only: the random generator draws left-deep trees and
    /// local search applies only shape-preserving transformations
    /// ([`MutationSet::LeftDeep`]).
    LeftDeep,
}

/// Configuration of the RMQ optimizer.
#[derive(Clone, Copy, Debug)]
pub struct RmqConfig {
    /// RNG seed (every run is deterministic given the seed and model).
    pub seed: u64,
    /// Hill-climbing configuration.
    pub climb: ClimbConfig,
    /// Archive configuration for the frontier approximation: admission
    /// policy (per-metric approximate pruning or the ε-Pareto box archive),
    /// and per-iteration precision schedule.
    pub archive: ArchiveConfig,
    /// Whether the plan cache is shared across iterations (§4.3). Disabling
    /// this is the cache ablation: each iteration approximates frontiers in
    /// a private cache and only final query plans are archived.
    pub share_cache: bool,
    /// Join-order space for the random plan generator.
    pub space: PlanSpace,
}

impl Default for RmqConfig {
    fn default() -> Self {
        RmqConfig {
            seed: 0,
            climb: ClimbConfig::default(),
            archive: ArchiveConfig::paper(),
            share_cache: true,
            space: PlanSpace::Bushy,
        }
    }
}

impl RmqConfig {
    /// Default configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        RmqConfig {
            seed,
            ..RmqConfig::default()
        }
    }
}

/// Aggregate statistics over an RMQ run.
#[derive(Clone, Debug, Default)]
pub struct RmqStats {
    /// Completed main-loop iterations.
    pub iterations: u64,
    /// Climbing path length (improving moves) of every iteration — the
    /// quantity plotted in the paper's Figure 3 (left).
    pub path_lengths: Vec<usize>,
    /// The coarsest approximation factor of the admission used by the most
    /// recent iteration ([`Admission::max_factor`]).
    pub last_alpha: f64,
}

/// What became of the warm-start plans an [`Rmq`] parked
/// ([`Rmq::warm_start`]); lifetime totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStartStats {
    /// Plans parked: accepted for a table set the session had not touched.
    pub parked: u64,
    /// Parked plans since offered to the plan cache, because a climbed plan
    /// contained their table set. `parked - imported` are still parked.
    pub imported: u64,
}

/// The RMQ optimizer (Algorithm 1).
///
/// Generic over how the model is held: pass `&model` for the classic
/// borrowed one-shot usage, or an `Arc<Model>` to obtain a `'static`,
/// `Send` optimizer that the optimization service can schedule across
/// worker threads (see the blanket [`CostModel`] impls for `&M`/`Arc<M>`).
///
/// Internally every plan lives in a per-session hash-consed
/// [`PlanArena`]: random generation, climbing, and the frontier
/// approximation move `Copy` [`PlanId`]s, and structurally identical
/// subplans rediscovered across iterations are interned once. `Arc<Plan>`
/// trees appear only at the API boundary — [`Rmq::frontier`] exports
/// (memoized) and [`Rmq::warm_start`] imports, lazily: a warm-start plan
/// enters the arena when the session first touches its table set. The arena
/// lives and dies with the optimizer (see [`crate::arena`] for the lifetime
/// contract).
pub struct Rmq<M: CostModel> {
    model: M,
    query: TableSet,
    cfg: RmqConfig,
    /// Per-session plan arena: owns every plan that outlives an iteration
    /// (cache members, the query frontier among them, and warm starts).
    arena: PlanArena,
    /// Transient arena for random generation + hill climbing, cleared every
    /// iteration: its intern map stays iteration-sized and cache-resident,
    /// so climb transients cost hash probes in L1 instead of growing the
    /// session arena. The surviving local optimum is adopted into
    /// [`Rmq::arena`] before frontier approximation.
    climb_arena: PlanArena,
    /// Reused id-translation memo for that adoption.
    adopt_memo: FxHashMap<PlanId, PlanId>,
    /// What of the warm start has been imported into `arena` so far:
    /// warm-start plans arrive in related batches (an exchange partner's
    /// survivors, a finished session's cache) that share most of their
    /// sub-trees.
    import_memo: ImportMemo,
    /// Warm-start plans for table sets the session has not touched yet, in
    /// arrival order ([`Rmq::warm_start`]). A list leaves the map when a
    /// climbed plan first contains its table set, so no table set ever has
    /// both parked plans and a cache entry.
    parked: FxHashMap<TableSet, Vec<PlanRef>>,
    /// Lifetime parked/imported totals.
    warm: WarmStartStats,
    /// The part of `warm` already flushed to the `moqo-obs` registry.
    flushed_warm: WarmStartStats,
    /// The partial-plan cache; its query entry is the result archive. In
    /// the cache ablation (`share_cache` disabled) it holds that entry only.
    cache: PlanCache<PlanId>,
    iteration: u64,
    rng: StdRng,
    stats: RmqStats,
    /// Hill-climbing scratch buffers, reused across iterations so the
    /// climb's inner loops run allocation-free in steady state.
    climb_scratch: StepScratch,
    /// Frontier-approximation scratch buffers, likewise reused.
    frontier_scratch: FrontierScratch<PlanId>,
    /// Arena intern totals (session + climb arena) already flushed to the
    /// global `moqo-obs` registry. The arenas' lifetime counters are
    /// monotone (surviving `clear()`), so per-iteration deltas against
    /// these copies are exact.
    flushed_interns: u64,
    /// Arena dedup-hit totals already flushed, likewise.
    flushed_dedup_hits: u64,
    /// Creation instant; anchors the `elapsed` column of convergence
    /// checkpoints.
    started: Instant,
    /// Anytime-convergence checkpoints, oldest first, bounded at
    /// [`CONVERGENCE_CAPACITY`].
    convergence: Vec<ConvergencePoint>,
    /// Next iteration count at which a checkpoint is due (doubles after
    /// every sample: 1, 2, 4, 8, ...).
    next_checkpoint: u64,
}

/// Maximum retained convergence checkpoints per optimizer instance. With
/// exponentially spaced marks this bound is unreachable in practice (64
/// checkpoints cover 2^63 iterations); it exists so the ring is provably
/// bounded even if a forced sample is taken every iteration.
pub const CONVERGENCE_CAPACITY: usize = 64;

impl<M: CostModel> Rmq<M> {
    /// Creates an optimizer for `query` over `model`.
    ///
    /// # Panics
    /// Panics if `query` is empty.
    pub fn new(model: M, query: TableSet, cfg: RmqConfig) -> Self {
        assert!(!query.is_empty(), "cannot optimize an empty query");
        Rmq {
            model,
            query,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            arena: PlanArena::new(),
            climb_arena: PlanArena::new(),
            adopt_memo: FxHashMap::default(),
            import_memo: ImportMemo::default(),
            parked: FxHashMap::default(),
            warm: WarmStartStats::default(),
            flushed_warm: WarmStartStats::default(),
            cache: PlanCache::new(),
            iteration: 0,
            stats: RmqStats::default(),
            climb_scratch: StepScratch::default(),
            frontier_scratch: FrontierScratch::default(),
            flushed_interns: 0,
            flushed_dedup_hits: 0,
            started: Instant::now(),
            convergence: Vec::new(),
            next_checkpoint: 1,
        }
    }

    /// Runs one iteration of the main loop; returns the climb statistics.
    pub fn iterate(&mut self) -> ClimbStats {
        self.iterate_inner(None)
            .expect("unguarded iteration cannot abort")
    }

    /// Runs one iteration under a cooperative abort condition, the
    /// deadline-honoring entry point of the parallel optimizer. `abort` is
    /// checked once per hill-climbing step *and* before the frontier
    /// approximation, so a raised stop flag (or a passed deadline, which
    /// raises it) cuts the iteration short within one climb step of the
    /// signal. An aborted iteration is discarded wholesale — nothing is
    /// archived, the iteration counter does not advance, and the optimizer
    /// is left exactly as consistent as before the call — and `None` is
    /// returned.
    pub fn iterate_aborting(&mut self, abort: &AbortCheck) -> Option<ClimbStats> {
        self.iterate_inner(Some(abort))
    }

    fn iterate_inner(&mut self, abort: Option<&AbortCheck>) -> Option<ClimbStats> {
        // 1. Generate a random bushy (or left-deep) query plan. The plan
        //    space governs both the generator and the climbing rule set
        //    (§4.1: both are exchanged together).
        let (plan, climb_cfg) = match self.cfg.space {
            PlanSpace::Bushy => (
                random_plan_in(
                    &mut self.climb_arena,
                    &self.model,
                    self.query,
                    &mut self.rng,
                ),
                self.cfg.climb,
            ),
            PlanSpace::LeftDeep => (
                random_left_deep_plan_in(
                    &mut self.climb_arena,
                    &self.model,
                    self.query,
                    &mut self.rng,
                ),
                ClimbConfig {
                    mutations: MutationSet::LeftDeep,
                    ..self.cfg.climb
                },
            ),
        };
        // 2. Improve the plan via fast local search (in the transient
        //    arena; see the field docs). The abort condition bounds deadline
        //    overshoot: checked per climb step, and again before the (also
        //    non-trivial) frontier approximation below.
        let (climb_opt, climb_stats, aborted) = match abort {
            Some(abort) => pareto_climb_aborting_in(
                &mut self.climb_arena,
                plan,
                &self.model,
                &climb_cfg,
                &mut self.climb_scratch,
                abort,
            ),
            None => {
                let (opt, stats) = pareto_climb_in(
                    &mut self.climb_arena,
                    plan,
                    &self.model,
                    &climb_cfg,
                    &mut self.climb_scratch,
                );
                (opt, stats, false)
            }
        };
        if aborted || abort.is_some_and(AbortCheck::should_abort) {
            // Discard the partial iteration: drop the climb transients and
            // leave every cross-iteration structure untouched. The RNG has
            // advanced, but an aborted run is ending anyway. The screening
            // tallies of the partial climb are dropped with it — aborted
            // iterations leave no trace in the obs registry either.
            let _ = climb_opt;
            let _ = self.climb_scratch.take_screen();
            self.climb_arena.clear();
            return None;
        }
        self.iteration += 1;
        // 3. Approximate the Pareto frontiers of its intermediate results.
        let admission = self.cfg.archive.admission(self.iteration);
        self.adopt_memo.clear();
        if self.cfg.share_cache {
            // Move the local optimum into the session arena, then drop
            // every climb transient at once; the frontier approximation
            // interns the admitted partial plans next to the cache that
            // holds them.
            let opt_plan = self
                .arena
                .adopt(&self.climb_arena, climb_opt, &mut self.adopt_memo);
            self.climb_arena.clear();
            // First touch: the frontier approximation reads and writes the
            // table sets of this plan only, so these are the only parked
            // lists it could ever see.
            if !self.parked.is_empty() {
                self.import_parked(opt_plan);
            }
            approximate_frontiers_in(
                &mut self.arena,
                opt_plan,
                &self.model,
                &mut self.cache,
                &admission,
                &mut self.frontier_scratch,
            );
        } else {
            // Cache ablation: the private per-iteration cache dies with
            // the iteration, so its plans stay in the transient arena too —
            // only the surviving query-frontier plans are adopted into the
            // session arena, offered to the cache's query entry. The slot
            // is absorbing, so the ablation exports nothing.
            let mut private = PlanCache::new();
            approximate_frontiers_in(
                &mut self.climb_arena,
                climb_opt,
                &self.model,
                &mut private,
                &admission,
                &mut self.frontier_scratch,
            );
            let survivors = private.frontier(self.query);
            if !survivors.is_empty() {
                let (arena, climb_arena) = (&mut self.arena, &self.climb_arena);
                let memo = &mut self.adopt_memo;
                let mut slot = self.cache.slot_absorbing(self.query);
                for &p in survivors {
                    let view = climb_arena.view(p);
                    slot.insert_with(&view.cost, view.format, &admission, || {
                        arena.adopt(climb_arena, p, memo)
                    });
                }
            }
            self.climb_arena.clear();
        }
        self.stats.iterations = self.iteration;
        self.stats.path_lengths.push(climb_stats.steps);
        self.stats.last_alpha = admission.max_factor();
        self.flush_obs();
        // Anytime-convergence checkpoint at exponentially spaced marks.
        // Like `flush_obs` this is pure observation: it consumes no
        // randomness and runs only for completed iterations, so seeded
        // determinism and the abort contract are unaffected.
        if self.iteration >= self.next_checkpoint {
            self.take_convergence_sample();
            while self.next_checkpoint <= self.iteration {
                self.next_checkpoint = self.next_checkpoint.saturating_mul(2);
            }
        }
        Some(climb_stats)
    }

    /// Offers the plan cache the parked warm-start plans of every table set
    /// that occurs in the plan rooted at `id` (at most 2n−1 of them), in
    /// arrival order and under exact pruning — what [`Rmq::warm_start`]
    /// does at once for a table set that is already live.
    fn import_parked(&mut self, id: PlanId) {
        let node = self.arena.node(id);
        let (rel, kind) = (node.rel(), node.kind());
        if let PlanNodeKind::Join { outer, inner, .. } = kind {
            self.import_parked(outer);
            self.import_parked(inner);
        }
        if let Some(plans) = self.parked.remove(&rel) {
            self.warm.imported += plans.len() as u64;
            let (arena, memo) = (&mut self.arena, &mut self.import_memo);
            let mut slot = self.cache.slot_absorbing(rel);
            for plan in &plans {
                slot.insert_with(plan.cost(), plan.format(), &Admission::exact(), || {
                    arena.import_memoized(plan, memo)
                });
            }
        }
    }

    /// Appends one convergence checkpoint for the current state, evicting
    /// the oldest if the bounded ring is full. Skips exact duplicates (a
    /// forced final sample at an iteration that just hit a mark).
    fn take_convergence_sample(&mut self) {
        if self
            .convergence
            .last()
            .is_some_and(|p| p.iteration == self.iteration)
        {
            return;
        }
        let frontier_costs: Vec<_> = self
            .frontier_set()
            .map(|set| set.costs().copied().collect())
            .unwrap_or_default();
        if self.convergence.len() >= CONVERGENCE_CAPACITY {
            self.convergence.remove(0);
        }
        self.convergence.push(ConvergencePoint {
            iteration: self.iteration,
            elapsed: self.started.elapsed(),
            epoch: moqo_obs::ctx::current().epoch,
            frontier_size: frontier_costs.len(),
            frontier_costs,
        });
    }

    /// The anytime-convergence checkpoints recorded so far (oldest first).
    /// Everything except the `elapsed` column is deterministic for a fixed
    /// seed; see [`ConvergencePoint`].
    pub fn convergence_points(&self) -> &[ConvergencePoint] {
        &self.convergence
    }

    /// Flushes this iteration's observation deltas — the climb scratch's
    /// screening tallies, the arenas' intern deltas and the warm start's
    /// parked/imported deltas — to the global
    /// `moqo-obs` registry, and emits one `Iteration` journal event when
    /// the `climb` target is enabled. Called once per **completed**
    /// iteration (aborted iterations are discarded wholesale), so the hot
    /// candidate loops touch no atomics; everything here is pure
    /// observation and consumes no randomness.
    fn flush_obs(&mut self) {
        use moqo_obs::{ctx, journal, metrics};
        let m = metrics();
        let screen = self.climb_scratch.take_screen();
        m.rmq_iterations.incr();
        m.climb_candidates.add(screen.probes);
        m.climb_agg_key_skips.add(screen.agg_key_skips);
        m.climb_dominance_tests.add(screen.dominance_tests);
        m.climb_rejected.add(screen.rejected);
        m.climb_admitted.add(screen.admitted);
        m.climb_evicted.add(screen.evicted);
        // Archive-kernel seams: blocks screened by the SoA kernels and
        // precision-driven ε-box rejections, across the climb frontiers and
        // the partial-plan cache; plus the current query-frontier size as a
        // gauge.
        let mut archive_screen = self.cache.take_screen_counters();
        archive_screen.absorb(&screen);
        m.pareto_blocks_screened.add(archive_screen.blocks_screened);
        m.pareto_eps_rejects.add(archive_screen.eps_rejects);
        m.pareto_archive_size
            .set(self.frontier_set().map_or(0, ParetoSet::len) as u64);
        let (a, c) = (self.arena.stats(), self.climb_arena.stats());
        let interns = a.misses + c.misses;
        let dedup_hits = a.dedup_hits + c.dedup_hits;
        m.arena_interns.add(interns - self.flushed_interns);
        m.arena_dedup_hits.add(dedup_hits - self.flushed_dedup_hits);
        self.flushed_interns = interns;
        self.flushed_dedup_hits = dedup_hits;
        m.warm_parked
            .add(self.warm.parked - self.flushed_warm.parked);
        m.warm_imported
            .add(self.warm.imported - self.flushed_warm.imported);
        self.flushed_warm = self.warm;
        if journal::enabled(journal::Target::Climb, journal::Level::Debug) {
            ctx::set_iteration(self.iteration);
            let frontier = self.frontier_set().map_or(0, ParetoSet::len) as u64;
            journal::emit_with(journal::Target::Climb, journal::Level::Debug, || {
                journal::EventKind::Iteration {
                    mutations: screen.probes,
                    admitted: screen.admitted,
                    rejected: screen.rejected,
                    frontier,
                }
            });
        }
    }

    /// The current approximate Pareto plan set for the query (`P[q]`),
    /// exported as shared `Arc<Plan>` trees (exports are memoized in the
    /// arena, so repeated anytime snapshots cost one hash probe per plan).
    pub fn frontier(&self) -> Vec<PlanRef> {
        self.cache
            .frontier(self.query)
            .iter()
            .map(|&id| self.arena.export(id))
            .collect()
    }

    /// The current query frontier as the internal `(set, arena)` pair:
    /// members are [`PlanId`]s into [`Rmq::arena`] and the set carries their
    /// inline cost metadata. `None` while no query plan has been archived.
    /// This is the zero-export handoff the parallel optimizer merges from —
    /// see [`ParetoSet::merge_from`].
    pub fn frontier_set(&self) -> Option<&ParetoSet<PlanId>> {
        self.cache.frontier_set(self.query)
    }

    /// Run statistics (iterations, climb path lengths, last α).
    pub fn stats(&self) -> &RmqStats {
        &self.stats
    }

    /// The partial-plan cache (read access for diagnostics and tests). The
    /// cached handles are [`PlanId`]s into [`Rmq::arena`].
    pub fn cache(&self) -> &PlanCache<PlanId> {
        &self.cache
    }

    /// Empties the cache's change list ([`PlanCache::changed_sets`]): the
    /// parallel optimizer calls this right after it has published the list.
    /// The list has one reader; a second one — [`PlanExchange::export_plans`]
    /// is one — would miss what the first cleared.
    pub fn clear_changed_sets(&mut self) {
        self.cache.clear_changed();
    }

    /// The session's plan arena (read access for diagnostics: occupancy,
    /// interning dedup rate, and exporting cached [`PlanId`]s).
    pub fn arena(&self) -> &PlanArena {
        &self.arena
    }

    /// The cost model the optimizer runs against.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Warm-starts the optimizer with previously optimized plans (§4.3's
    /// sharing mechanism, extended across queries: the optimization service
    /// offers partial plans from completed sessions over the same catalog,
    /// parallel workers offer each other's survivors). Only plans for
    /// subsets-or-equal of this query's table set are useful; others are
    /// ignored.
    ///
    /// The import is lazy, because the frontier approximation only ever
    /// reads the table sets of the plan it just climbed. A plan for the query
    /// itself, or for a table set the plan cache already holds, is offered to
    /// that frontier at once; every other plan is **parked** — one `Arc`
    /// clone under its table set, no arena node, no cache entry — and the
    /// parked plans of a table set are offered, in arrival order, when a
    /// climbed plan first contains it, before the session's own candidates
    /// for that set. Per-table-set frontiers are independent, so every
    /// frontier the session reads has seen the same offers in the same order
    /// as under an eager import; plans for sets it never touches are dropped
    /// with the session. Offers use exact pruning ([`Admission::exact`]), so
    /// a warm start can never evict better plans found later, and stay off
    /// the cache's change list ([`PlanCache::slot_absorbing`]).
    ///
    /// Returns the number of plans **accepted**: admitted at once plus
    /// parked.
    ///
    /// With `share_cache` disabled (the cache ablation), the cache holds
    /// only the query's entry: **full-query** plans still enter it under the
    /// same exact pruning — so frontier exchange (the parallel optimizer's
    /// island migration) keeps working in the ablation configuration — and
    /// sub-query partial plans are ignored, not parked.
    pub fn warm_start<I>(&mut self, plans: I) -> usize
    where
        I: IntoIterator<Item = PlanRef>,
    {
        let exact = Admission::exact();
        let mut accepted = 0;
        for plan in plans {
            let rel = plan.rel();
            if !rel.is_subset(self.query) {
                continue;
            }
            if rel == self.query || self.cache.frontier_set(rel).is_some() {
                let (arena, memo) = (&mut self.arena, &mut self.import_memo);
                let admitted = self.cache.slot_absorbing(rel).insert_with(
                    plan.cost(),
                    plan.format(),
                    &exact,
                    || arena.import_memoized(&plan, memo),
                );
                accepted += usize::from(admitted);
            } else if self.cfg.share_cache {
                self.parked.entry(rel).or_default().push(plan);
                self.warm.parked += 1;
                accepted += 1;
            }
        }
        accepted
    }

    /// How many warm-start plans were parked and how many of those the
    /// session went on to import (lifetime totals; diagnostics and tests).
    pub fn warm_start_stats(&self) -> WarmStartStats {
        self.warm
    }

    /// The table sets that still have parked warm-start plans, with how
    /// many, in unspecified order (diagnostics and tests).
    pub fn parked_sets(&self) -> impl Iterator<Item = (TableSet, usize)> + '_ {
        self.parked.iter().map(|(rel, plans)| (*rel, plans.len()))
    }

    /// The query being optimized.
    pub fn query(&self) -> TableSet {
        self.query
    }
}

impl<M: CostModel> Optimizer for Rmq<M> {
    fn name(&self) -> &str {
        "RMQ"
    }

    fn step(&mut self) -> bool {
        self.iterate();
        true
    }

    fn frontier(&self) -> Vec<PlanRef> {
        Rmq::frontier(self)
    }
}

impl<M: CostModel + Send> PlanExchange for Rmq<M> {
    fn absorb_plans(&mut self, plans: &[PlanRef]) -> usize {
        // Guard against foreign cost dimensions: a mis-keyed exchange
        // partner would otherwise corrupt the cache's Pareto invariant.
        let dim = self.model.dim();
        self.warm_start(plans.iter().filter(|p| p.cost().dim() == dim).cloned())
    }

    /// The fresh suffixes of the cache's change list
    /// ([`PlanCache::changed_sets`]): every plan this optimizer admitted
    /// itself since the list was last cleared — for a stand-alone `Rmq`,
    /// which never clears it, since creation. Absorbed plans stay off the
    /// list, so a warm start is not echoed (an eviction can stretch a suffix
    /// over a few absorbed neighbours, never make it miss a fresh plan).
    fn export_plans(&self) -> Vec<PlanRef> {
        // Cached handles are PlanIds into the session arena; exchange
        // partners speak `Arc<Plan>`, so export at the boundary (memoized).
        let mut out = Vec::new();
        for (_, set, from) in self.cache.changed_sets() {
            out.extend(set.plans()[from..].iter().map(|&id| self.arena.export(id)));
        }
        out
    }

    fn convergence(&self) -> Vec<ConvergencePoint> {
        self.convergence.clone()
    }

    fn sample_convergence_now(&mut self) {
        if self.iteration > 0 {
            self.take_convergence_sample();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::StubModel;
    use crate::optimizer::{drive, Budget, NullObserver};

    fn run(n: usize, dim: usize, iters: u64, cfg: RmqConfig) -> (StubModel, Vec<PlanRef>) {
        let model = StubModel::line(n, dim, 17);
        let query = TableSet::prefix(n);
        let mut rmq = Rmq::new(&model, query, cfg);
        drive(&mut rmq, Budget::Iterations(iters), &mut NullObserver);
        let frontier = rmq.frontier();
        (model, frontier)
    }

    #[test]
    fn produces_valid_frontier_plans() {
        let (_, frontier) = run(7, 2, 30, RmqConfig::seeded(5));
        assert!(!frontier.is_empty());
        for p in &frontier {
            assert!(p.validate(TableSet::prefix(7)).is_ok());
        }
    }

    #[test]
    fn frontier_members_are_mutually_nondominated_modulo_format() {
        let (_, frontier) = run(6, 2, 40, RmqConfig::seeded(6));
        for a in &frontier {
            for b in &frontier {
                if !std::sync::Arc::ptr_eq(a, b) && a.same_output(b) {
                    assert!(
                        !a.cost().strictly_dominates(b.cost()),
                        "cached frontier contains dominated plan"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (m1, f1) = run(6, 2, 20, RmqConfig::seeded(9));
        let (_, f2) = run(6, 2, 20, RmqConfig::seeded(9));
        let d1: Vec<String> = f1.iter().map(|p| p.display(&m1)).collect();
        let d2: Vec<String> = f2.iter().map(|p| p.display(&m1)).collect();
        assert_eq!(d1, d2);
    }

    #[test]
    fn convergence_checkpoints_are_exponential_and_deterministic() {
        let sample = |seed: u64| {
            let model = StubModel::line(6, 2, 17);
            let mut rmq = Rmq::new(&model, TableSet::prefix(6), RmqConfig::seeded(seed));
            for _ in 0..20 {
                rmq.iterate();
            }
            rmq.sample_convergence_now();
            rmq.convergence_points().to_vec()
        };
        let a = sample(9);
        let b = sample(9);
        // Marks are 1, 2, 4, 8, 16 plus the forced final sample at 20.
        let iters: Vec<u64> = a.iter().map(|p| p.iteration).collect();
        assert_eq!(iters, vec![1, 2, 4, 8, 16, 20]);
        // Everything except the wall-clock column is bit-identical across
        // runs with the same seed: sampling consumes no randomness.
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.iteration, y.iteration);
            assert_eq!(x.frontier_size, y.frontier_size);
            assert_eq!(x.frontier_costs.len(), y.frontier_costs.len());
            for (cx, cy) in x.frontier_costs.iter().zip(&y.frontier_costs) {
                assert_eq!(cx.as_slice(), cy.as_slice());
            }
        }
        // Frontier sizes in each checkpoint match the stored cost lists.
        for p in &a {
            assert_eq!(p.frontier_size, p.frontier_costs.len());
        }
    }

    #[test]
    fn forced_convergence_sample_is_idempotent_at_marks() {
        let model = StubModel::line(5, 2, 3);
        let mut rmq = Rmq::new(&model, TableSet::prefix(5), RmqConfig::seeded(4));
        // No iterations yet: forcing a sample records nothing.
        rmq.sample_convergence_now();
        assert!(rmq.convergence_points().is_empty());
        for _ in 0..4 {
            rmq.iterate();
        }
        // Iteration 4 is a mark, so the forced sample is a duplicate and
        // must be skipped.
        let before = rmq.convergence_points().len();
        rmq.sample_convergence_now();
        rmq.sample_convergence_now();
        assert_eq!(rmq.convergence_points().len(), before);
        assert_eq!(rmq.convergence_points().last().unwrap().iteration, 4);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let (m, f1) = run(8, 2, 5, RmqConfig::seeded(1));
        let (_, f2) = run(8, 2, 5, RmqConfig::seeded(2));
        let d1: Vec<String> = f1.iter().map(|p| p.display(&m)).collect();
        let d2: Vec<String> = f2.iter().map(|p| p.display(&m)).collect();
        assert_ne!(d1, d2, "different seeds should not coincide after 5 iters");
    }

    #[test]
    fn stats_track_iterations_and_paths() {
        let model = StubModel::line(6, 2, 3);
        let mut rmq = Rmq::new(&model, TableSet::prefix(6), RmqConfig::seeded(4));
        for _ in 0..10 {
            rmq.iterate();
        }
        assert_eq!(rmq.stats().iterations, 10);
        assert_eq!(rmq.stats().path_lengths.len(), 10);
        assert_eq!(rmq.stats().last_alpha, 25.0);
        assert!(rmq.cache().num_table_sets() > 0);
    }

    #[test]
    fn cache_ablation_still_produces_results() {
        let cfg = RmqConfig {
            share_cache: false,
            ..RmqConfig::seeded(8)
        };
        let (_, frontier) = run(6, 2, 25, cfg);
        assert!(!frontier.is_empty());
    }

    /// The cache ablation's query frontier — (cost bits, format) in
    /// archive order — as the ablation produced it with a separate result
    /// archive; archiving into the cache's query entry must not move a bit.
    #[test]
    fn cache_ablation_frontier_is_pinned() {
        let model = StubModel::line(8, 2, 8);
        let cfg = RmqConfig {
            share_cache: false,
            ..RmqConfig::seeded(8)
        };
        let mut rmq = Rmq::new(&model, TableSet::prefix(8), cfg);
        drive(&mut rmq, Budget::Iterations(60), &mut NullObserver);
        let got: Vec<(Vec<u64>, u8)> = rmq
            .frontier()
            .iter()
            .map(|p| {
                let bits = p.cost().as_slice().iter().map(|c| c.to_bits()).collect();
                (bits, p.format().0)
            })
            .collect();
        let pinned: Vec<(Vec<u64>, u8)> = vec![
            (
                vec![4_632_977_658_256_829_896, 4_642_791_671_728_147_892],
                0,
            ),
            (
                vec![4_633_202_259_382_310_902, 4_642_641_987_902_500_956],
                1,
            ),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn left_deep_space_produces_left_deep_results() {
        let cfg = RmqConfig {
            space: PlanSpace::LeftDeep,
            ..RmqConfig::seeded(3)
        };
        let model = StubModel::line(5, 2, 3);
        let mut rmq = Rmq::new(&model, TableSet::prefix(5), cfg);
        for _ in 0..15 {
            rmq.iterate();
        }
        // Generator and climbing rules are both left-deep-preserving, and
        // the frontier approximation reuses the same join orders, so every
        // result plan stays left-deep.
        let frontier = rmq.frontier();
        assert!(!frontier.is_empty());
        for p in frontier {
            assert!(p.validate(TableSet::prefix(5)).is_ok());
            assert!(p.is_left_deep(), "bushy plan leaked into left-deep space");
        }
    }

    #[test]
    fn single_table_query_works() {
        let (_, frontier) = run(1, 2, 3, RmqConfig::seeded(2));
        assert!(!frontier.is_empty());
        assert!(frontier.iter().all(|p| !p.is_join()));
    }

    #[test]
    fn more_iterations_never_hurt_frontier_quality() {
        // The cached frontier after more iterations must weakly dominate
        // the earlier frontier: for each early plan there is a later plan
        // that is no worse in every metric... within the same alpha level
        // this holds because insertions only evict dominated plans.
        let model = StubModel::line(6, 2, 21);
        let query = TableSet::prefix(6);
        let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(10));
        for _ in 0..10 {
            rmq.iterate();
        }
        let early = rmq.frontier();
        for _ in 0..40 {
            rmq.iterate();
        }
        let late = rmq.frontier();
        for e in &early {
            let covered = late
                .iter()
                .any(|l| l.cost().approx_dominates(e.cost(), 1.0 + 1e-9));
            assert!(covered, "later frontier lost coverage of an early plan");
        }
    }

    #[test]
    fn aborting_iterate_with_never_condition_matches_plain_iterate() {
        let model = StubModel::line(6, 2, 21);
        let query = TableSet::prefix(6);
        let mut plain = Rmq::new(&model, query, RmqConfig::seeded(12));
        let mut guarded = Rmq::new(&model, query, RmqConfig::seeded(12));
        let never = AbortCheck::never();
        for _ in 0..15 {
            let a = plain.iterate();
            let b = guarded.iterate_aborting(&never).expect("never aborts");
            assert_eq!(a, b);
        }
        let d1: Vec<String> = plain.frontier().iter().map(|p| p.display(&model)).collect();
        let d2: Vec<String> = guarded
            .frontier()
            .iter()
            .map(|p| p.display(&model))
            .collect();
        assert_eq!(d1, d2);
    }

    #[test]
    fn aborted_iteration_is_discarded_wholesale() {
        use crate::optimizer::StopFlag;
        let model = StubModel::line(6, 2, 5);
        let query = TableSet::prefix(6);
        let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(3));
        for _ in 0..8 {
            rmq.iterate();
        }
        let before_iters = rmq.stats().iterations;
        let before_cache = rmq.cache().counters();
        let before_frontier: Vec<String> =
            rmq.frontier().iter().map(|p| p.display(&model)).collect();
        let flag = StopFlag::new();
        flag.stop();
        assert!(rmq.iterate_aborting(&AbortCheck::new(flag, None)).is_none());
        assert_eq!(rmq.stats().iterations, before_iters);
        assert_eq!(rmq.cache().counters(), before_cache);
        let after: Vec<String> = rmq.frontier().iter().map(|p| p.display(&model)).collect();
        assert_eq!(after, before_frontier, "aborted work must leave no trace");
        // The optimizer keeps working normally afterwards.
        rmq.iterate();
        assert_eq!(rmq.stats().iterations, before_iters + 1);
    }

    #[test]
    fn plan_exchange_roundtrip_through_rmq() {
        let model = StubModel::line(6, 2, 33);
        let query = TableSet::prefix(6);
        let mut donor = Rmq::new(&model, query, RmqConfig::seeded(1));
        for _ in 0..10 {
            donor.iterate();
        }
        let exported = donor.export_plans();
        assert!(!exported.is_empty());
        let mut fresh = Rmq::new(&model, query, RmqConfig::seeded(2));
        let absorbed = fresh.absorb_plans(&exported);
        assert!(absorbed > 0, "overlapping exports must warm-start");
        assert_eq!(fresh.fan_out(), 1);
        // Foreign dimensions are filtered, not absorbed.
        let foreign_model = StubModel::line(6, 3, 33);
        let mut foreign = Rmq::new(&foreign_model, query, RmqConfig::seeded(2));
        assert_eq!(foreign.absorb_plans(&exported), 0);
    }

    #[test]
    fn warm_start_seeds_the_result_archive_in_ablation_mode() {
        let model = StubModel::line(6, 2, 33);
        let query = TableSet::prefix(6);
        let mut donor = Rmq::new(&model, query, RmqConfig::seeded(1));
        for _ in 0..10 {
            donor.iterate();
        }
        let full_query_plans = donor.frontier();
        assert!(!full_query_plans.is_empty());
        let ablation_cfg = RmqConfig {
            share_cache: false,
            ..RmqConfig::seeded(2)
        };
        let mut ablation = Rmq::new(&model, query, ablation_cfg);
        // Contract: None until something is archived, in both configs.
        assert!(ablation.frontier_set().is_none());
        let absorbed = ablation.warm_start(full_query_plans.iter().cloned());
        assert!(
            absorbed > 0,
            "frontier exchange must reach the ablation result archive"
        );
        assert!(ablation.frontier_set().is_some());
        assert_eq!(ablation.frontier().len(), absorbed);
        // Sub-query partial plans are ignored in ablation mode: a donor
        // cache export adds nothing beyond the full-query survivors
        // already absorbed.
        let partials = PlanExchange::export_plans(&donor);
        assert!(partials.iter().any(|p| p.rel() != query));
        let again = ablation.warm_start(partials.into_iter().filter(|p| p.rel() != query));
        assert_eq!(again, 0);
    }

    #[test]
    fn iterations_flush_observation_counters() {
        // Counters are process-global and other tests bump them
        // concurrently, so assert only on the lower bound of the delta.
        let m = moqo_obs::metrics::metrics();
        let before_iters = m.rmq_iterations.get();
        let before_candidates = m.climb_candidates.get();
        let before_interns = m.arena_interns.get();
        let model = StubModel::line(6, 2, 3);
        let mut rmq = Rmq::new(&model, TableSet::prefix(6), RmqConfig::seeded(4));
        for _ in 0..5 {
            rmq.iterate();
        }
        assert!(m.rmq_iterations.get() >= before_iters + 5);
        assert!(m.climb_candidates.get() > before_candidates);
        assert!(m.arena_interns.get() > before_interns);
    }

    #[test]
    #[should_panic(expected = "empty query")]
    fn empty_query_panics() {
        let model = StubModel::line(3, 2, 1);
        let _ = Rmq::new(&model, TableSet::empty(), RmqConfig::default());
    }
}
