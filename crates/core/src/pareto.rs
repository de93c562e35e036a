//! Pareto-set maintenance: the paper's `Prune` functions behind the
//! unified admission API of [`crate::archive`].
//!
//! The pruning rules (encoded as [`AdmissionRule`]s and applied through the
//! single entry point [`ParetoSet::admit`]):
//!
//! * **Climb pruning** (Alg. 2, [`AdmissionRule::Climb`]):
//!   `Better(p1, p2) = SameOutput ∧ p1 ≺ p2`. A new plan is inserted unless
//!   an existing plan with the same output format strictly dominates it;
//!   inserting removes the same-format plans it strictly dominates. The
//!   comment in the paper says this "keeps one Pareto plan per output
//!   format" and Lemma 2 assumes "each instance of ParetoStep returns only
//!   one non-dominated plan" — with several metrics, however, the literal
//!   rule can retain *incomparable* same-format plans. We therefore support
//!   both readings via [`PrunePolicy`]: the default
//!   [`PrunePolicy::OnePerFormat`] keeps the incumbent when plans are
//!   incomparable (matching the complexity analysis); the literal
//!   [`PrunePolicy::KeepIncomparable`] follows the pseudo-code exactly.
//!
//! * **Approximate pruning** (Alg. 3, [`AdmissionRule::Approx`]):
//!   `SigBetter(p1, p2, α) = SameOutput ∧ p1 ⪯_α p2`, generalized to a
//!   per-metric factor vector ([`EpsFactors`]). A new plan is inserted only
//!   if no stored same-format plan α-approximately dominates it; insertion
//!   removes stored plans the new plan weakly dominates. This keeps the
//!   per-table-set frontier size polynomially bounded (Lemma 6).
//!
//! * **ε-Pareto box archive** ([`AdmissionRule::EpsBox`], Trummer & Koch
//!   2014): at most one occupant per non-dominated per-format precision
//!   box, so the archive size is bounded by the precision target rather
//!   than the true frontier cardinality — the many-objective (d = 6–10)
//!   scaling mode.
//!
//! * **Cost frontier** ([`AdmissionRule::CostFrontier`]): the exact
//!   format-blind cost-Pareto frontier, for result archives.
//!
//! # Hot-path representation
//!
//! `Prune`/`SigBetter` run inside every hill-climbing step and every
//! `ApproximateFrontiers` traversal, so the paper's per-iteration complexity
//! argument hinges on these checks being cheap. [`ParetoSet`] therefore
//!
//! * **buckets members by output format** — the `SameOutput` conjunct
//!   becomes a hash-map lookup followed by a scan of one format's members;
//! * **stores each bucket's cost vectors in structure-of-arrays blocks** —
//!   blocks of [`LANES`] members hold metric `k` of all lanes contiguously,
//!   so one candidate is screened against a whole block per pass with a
//!   branch-free, auto-vectorizable inner loop (tail lanes are padded with
//!   `+∞`, which can never cover a candidate); each block also carries its
//!   aggregate-key range (see [`CostVector::agg_key`]), letting a whole
//!   block be skipped when its key range already rules dominance out;
//! * **defers plan materialization** — [`ParetoSet::admit`] takes the
//!   candidate's cost and format plus a closure producing the plan, so
//!   *rejected candidates never allocate* (callers cost a candidate, probe
//!   the set, and only build the plan handle on admission).
//!
//! The pre-bucketing flat-`Vec` implementation is retained as
//! [`LinearParetoSet`] for differential tests and the `pruning`
//! micro-benchmark; it admits through the scalar reference predicates
//! [`AdmissionRule::rejects`] / [`AdmissionRule::evicts`], and both
//! implementations make identical keep/evict decisions and store survivors
//! in the same order.

use crate::archive::{Admission, AdmissionRule, BoxKey, EpsFactors};
use crate::cost::CostVector;
use crate::fxhash::FxHashMap;
use crate::model::OutputFormat;
use crate::plan::{Plan, PlanRef};

pub use crate::archive::PrunePolicy;

/// Number of members per structure-of-arrays block: metric `k` of all
/// [`LANES`] lanes is stored contiguously, so the screening inner loop is a
/// fixed-width, branch-free compare the compiler can vectorize.
pub const LANES: usize = 8;

/// `Better(p1, p2)` of Algorithm 2: same output format and strictly
/// dominating cost.
#[inline]
pub fn better(p1: &Plan, p2: &Plan) -> bool {
    p1.same_output(p2) && p1.cost().strictly_dominates(p2.cost())
}

/// `SigBetter(p1, p2, α)` of Algorithm 3: same output format and
/// α-approximately dominating cost.
#[inline]
pub fn sig_better(p1: &Plan, p2: &Plan, alpha: f64) -> bool {
    p1.same_output(p2) && p1.cost().approx_dominates(p2.cost(), alpha)
}

/// Screening tallies accumulated by a [`ParetoSet`]'s admission paths:
/// how much work the two-stage screen (block key-range pre-filter, then
/// block-wide component compares) did, and how candidates fared.
///
/// The fields are plain `u64`s bumped inline — no atomics, no
/// allocation — so counting is free relative to the dominance arithmetic
/// it measures. Callers on instrumented paths harvest them with
/// [`ParetoSet::take_screen_counters`] and flush the totals to the global
/// `moqo-obs` registry at iteration granularity; because the tallies are
/// pure observations (they never influence pruning, ordering, or RNG
/// state), they are bit-for-bit deterministic for a seeded run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScreenCounters {
    /// Candidates offered to the set (admission probes).
    pub probes: u64,
    /// Member comparisons resolved by the aggregate-key pre-filter alone
    /// (members inside blocks whose key range ruled dominance out).
    pub agg_key_skips: u64,
    /// Member comparisons executed by the component-wise kernels (lanes of
    /// screened blocks, or scalar compares on the scalar paths).
    pub dominance_tests: u64,
    /// Candidates rejected (dominated, α-covered, box-covered, duplicate,
    /// or refused at capacity).
    pub rejected: u64,
    /// Candidates admitted.
    pub admitted: u64,
    /// Incumbent members evicted by admitted candidates.
    pub evicted: u64,
    /// Structure-of-arrays blocks actually screened (not key-skipped) by
    /// the block kernels.
    pub blocks_screened: u64,
    /// Candidates rejected by the ε-box rule that exact dominance would
    /// have admitted — the precision-driven rejections that bound the
    /// archive.
    pub eps_rejects: u64,
}

impl ScreenCounters {
    /// Adds `other`'s tallies into `self`.
    pub fn absorb(&mut self, other: &ScreenCounters) {
        self.probes += other.probes;
        self.agg_key_skips += other.agg_key_skips;
        self.dominance_tests += other.dominance_tests;
        self.rejected += other.rejected;
        self.admitted += other.admitted;
        self.evicted += other.evicted;
        self.blocks_screened += other.blocks_screened;
        self.eps_rejects += other.eps_rejects;
    }
}

/// Inline per-member pruning metadata: the cost vector, its cached
/// aggregate key, and the output format. Dominance checks touch only this
/// dense array (or the bucket's SoA mirror of it); the member's plan handle
/// is never dereferenced.
#[derive(Clone, Copy, Debug)]
struct Meta {
    cost: CostVector,
    /// `cost.agg_key()`, cached at insertion.
    key: f64,
    format: OutputFormat,
}

impl Meta {
    #[inline]
    fn of(cost: &CostVector, format: OutputFormat) -> Self {
        Meta {
            cost: *cost,
            key: cost.agg_key(),
            format,
        }
    }
}

/// One output format's members: ascending member indices plus a
/// structure-of-arrays mirror of their cost vectors in blocks of [`LANES`],
/// each block carrying its aggregate-key range for whole-block skips, and
/// (under ε-box admission) a cache of the members' precision boxes.
#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Ascending indices into the set's `plans`/`meta`.
    ids: Vec<u32>,
    /// Block-major columnar costs: metric `k` of block `b`'s lanes lives at
    /// `cols[(b * dim + k) * LANES + lane]`. Tail lanes are padded with
    /// `+∞` (never covers in rejection; masked out in eviction harvest).
    cols: Vec<f64>,
    /// Per-block minimum aggregate key (conservative: may under-estimate
    /// after in-place replacement, which only weakens the skip).
    kmin: Vec<f64>,
    /// Per-block maximum aggregate key (conservative likewise).
    kmax: Vec<f64>,
    /// Cost dimensionality of the members (set on first push).
    dim: usize,
    /// Cached ε-boxes, parallel to `ids`, valid for `box_factors`.
    boxes: Vec<BoxKey>,
    /// The factors `boxes` was computed with; recomputed lazily when the
    /// schedule moves (amortized: once per schedule step per bucket).
    box_factors: Option<EpsFactors>,
}

impl Bucket {
    /// Appends a member, opening a new `+∞`-padded block when the previous
    /// one is full.
    fn push(&mut self, idx: u32, meta: &Meta) {
        let d = meta.cost.dim();
        if self.ids.is_empty() {
            self.dim = d;
        }
        debug_assert_eq!(self.dim, d, "mixed cost dimensionality in bucket");
        let lane = self.ids.len() % LANES;
        let block = self.ids.len() / LANES;
        if lane == 0 {
            self.cols.resize(self.cols.len() + d * LANES, f64::INFINITY);
            self.kmin.push(f64::INFINITY);
            self.kmax.push(f64::NEG_INFINITY);
        }
        let base = block * d * LANES;
        for k in 0..d {
            self.cols[base + k * LANES + lane] = meta.cost[k];
        }
        self.kmin[block] = self.kmin[block].min(meta.key);
        self.kmax[block] = self.kmax[block].max(meta.key);
        self.ids.push(idx);
        if let Some(f) = self.box_factors {
            self.boxes.push(f.box_key(&meta.cost));
        }
    }

    /// Overwrites the member at bucket slot `slot` in place (the
    /// one-per-format replacement path). Key ranges are widened, never
    /// tightened — stale-but-sound for the block skips.
    fn replace(&mut self, slot: usize, meta: &Meta) {
        let d = self.dim;
        let block = slot / LANES;
        let lane = slot % LANES;
        let base = block * d * LANES;
        for k in 0..d {
            self.cols[base + k * LANES + lane] = meta.cost[k];
        }
        self.kmin[block] = self.kmin[block].min(meta.key);
        self.kmax[block] = self.kmax[block].max(meta.key);
        if let Some(f) = self.box_factors {
            self.boxes[slot] = f.box_key(&meta.cost);
        }
    }

    /// Drops all members, retaining the box-factor tag so rebuilt members
    /// get their boxes recomputed eagerly.
    fn reset(&mut self) {
        self.ids.clear();
        self.cols.clear();
        self.kmin.clear();
        self.kmax.clear();
        self.boxes.clear();
    }

    /// Makes the cached ε-boxes valid for `factors`, recomputing them from
    /// the members' costs if the factors moved since the last probe.
    fn ensure_boxes(&mut self, factors: &EpsFactors, meta: &[Meta]) {
        if self.box_factors.as_ref() == Some(factors) && self.boxes.len() == self.ids.len() {
            return;
        }
        self.boxes.clear();
        self.boxes.extend(
            self.ids
                .iter()
                .map(|&i| factors.box_key(&meta[i as usize].cost)),
        );
        self.box_factors = Some(*factors);
    }

    /// Rejection kernel: whether any member's cost is component-wise `≤`
    /// `bound` (`bound_key` must be `bound.agg_key()`). One pass per block:
    /// blocks whose minimum key exceeds the bound's key are skipped whole
    /// (a covering member's key cannot exceed the bound's); screened blocks
    /// run a branch-free lane-wide compare.
    fn covers(&self, bound: &CostVector, bound_key: f64, screen: &mut ScreenCounters) -> bool {
        let d = self.dim;
        let n = self.ids.len();
        for block in 0..self.kmin.len() {
            let lanes = (n - block * LANES).min(LANES);
            if self.kmin[block] > bound_key {
                screen.agg_key_skips += lanes as u64;
                continue;
            }
            screen.blocks_screened += 1;
            screen.dominance_tests += lanes as u64;
            let base = block * d * LANES;
            let mut ok = [true; LANES];
            for k in 0..d {
                let b = bound[k];
                let col = &self.cols[base + k * LANES..base + (k + 1) * LANES];
                for (o, &c) in ok.iter_mut().zip(col) {
                    *o &= c <= b;
                }
            }
            // +∞ padding never satisfies `≤ bound`, so tail lanes are false.
            if ok.iter().any(|&o| o) {
                return true;
            }
        }
        false
    }

    /// Eviction kernel: appends to `dead` the member indices weakly
    /// dominated by `cost` (`key` must be `cost.agg_key()`), in ascending
    /// order. Blocks whose maximum key is below the candidate's are skipped
    /// whole (a dominated member's key is at least the candidate's); the
    /// `+∞` tail padding would spuriously match, so the harvest is masked
    /// to real lanes.
    fn harvest_dominated(
        &self,
        cost: &CostVector,
        key: f64,
        dead: &mut Vec<u32>,
        screen: &mut ScreenCounters,
    ) {
        let d = self.dim;
        let n = self.ids.len();
        for block in 0..self.kmax.len() {
            let lanes = (n - block * LANES).min(LANES);
            if self.kmax[block] < key {
                screen.agg_key_skips += lanes as u64;
                continue;
            }
            screen.blocks_screened += 1;
            screen.dominance_tests += lanes as u64;
            let base = block * d * LANES;
            let mut ok = [true; LANES];
            for k in 0..d {
                let c = cost[k];
                let col = &self.cols[base + k * LANES..base + (k + 1) * LANES];
                for (o, &m) in ok.iter_mut().zip(col) {
                    *o &= c <= m;
                }
            }
            for (j, &o) in ok.iter().take(lanes).enumerate() {
                if o {
                    dead.push(self.ids[block * LANES + j]);
                }
            }
        }
    }
}

/// A pruned set of plans over the same table set.
///
/// Invariant: no member strictly dominates another member with the same
/// output format (every [`AdmissionRule`] preserves this — the ε-box rule
/// included, because box keys are monotone under dominance).
///
/// Members are stored in insertion order (evictions compact in place), with
/// a per-output-format bucket on the side holding the
/// structure-of-arrays mirror of the members' costs, so same-format probes
/// never scan members of other formats and screened members are compared a
/// whole block per pass. See the module docs for the full hot-path
/// rationale.
///
/// The member handle type `P` is generic: every pruning decision reads only
/// the inline `(cost, key, format)` metadata, so the same code stores
/// `Arc<Plan>` trees (`ParetoSet<PlanRef>`, the default) or hash-consed
/// [`crate::arena::PlanId`]s (`ParetoSet<PlanId>`, where members are `Copy`
/// integers and the set never touches an allocation).
#[derive(Clone, Debug)]
pub struct ParetoSet<P = PlanRef> {
    plans: Vec<P>,
    /// Parallel to `plans`: inline cost metadata.
    meta: Vec<Meta>,
    /// Output format → SoA bucket over ascending indices into `plans`/`meta`.
    buckets: FxHashMap<OutputFormat, Bucket>,
    /// Screening tallies (observational only; see [`ScreenCounters`]).
    screen: ScreenCounters,
}

impl<P> Default for ParetoSet<P> {
    fn default() -> Self {
        ParetoSet {
            plans: Vec::new(),
            meta: Vec::new(),
            buckets: FxHashMap::default(),
            screen: ScreenCounters::default(),
        }
    }
}

impl<P> ParetoSet<P> {
    /// Creates an empty set.
    pub fn new() -> Self {
        ParetoSet::default()
    }

    /// The current members.
    #[inline]
    pub fn plans(&self) -> &[P] {
        &self.plans
    }

    /// The members' cost vectors, parallel to [`ParetoSet::plans`].
    pub fn costs(&self) -> impl Iterator<Item = &CostVector> + '_ {
        self.meta.iter().map(|m| &m.cost)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.plans.clear();
        self.meta.clear();
        for bucket in self.buckets.values_mut() {
            bucket.reset();
        }
    }

    #[inline]
    fn push(&mut self, plan: P, meta: Meta) {
        let idx = self.plans.len() as u32;
        self.plans.push(plan);
        self.buckets
            .entry(meta.format)
            .or_default()
            .push(idx, &meta);
        self.meta.push(meta);
    }

    /// Removes the members at the given ascending indices, preserving the
    /// relative order of the survivors (mirrors `Vec::retain`, which the
    /// linear reference implementation uses), then rebuilds the format
    /// buckets (including their SoA blocks and box caches). Eviction is the
    /// rare path — admissions evict only when the newcomer dominates stored
    /// members — so the O(len) compaction does not affect the rejection
    /// fast path.
    fn remove_sorted(&mut self, dead: &[u32]) {
        debug_assert!(dead.windows(2).all(|w| w[0] < w[1]));
        let mut di = 0usize;
        let mut idx = 0u32;
        self.plans.retain(|_| {
            let drop = di < dead.len() && dead[di] == idx;
            if drop {
                di += 1;
            }
            idx += 1;
            !drop
        });
        di = 0;
        idx = 0;
        self.meta.retain(|_| {
            let drop = di < dead.len() && dead[di] == idx;
            if drop {
                di += 1;
            }
            idx += 1;
            !drop
        });
        for bucket in self.buckets.values_mut() {
            bucket.reset();
        }
        for (i, m) in self.meta.iter().enumerate() {
            self.buckets.entry(m.format).or_default().push(i as u32, m);
        }
    }

    /// The unified admission entry point: offers a candidate described by
    /// its cost and output format alone, under the given [`Admission`]
    /// (rule + capacity). `make` is invoked — and the plan materialized —
    /// **only if the candidate is admitted**; the materialized plan must
    /// have exactly the given cost and format. Returns `true` iff the
    /// candidate was inserted.
    ///
    /// This replaces the former `insert_climb_with` / `insert_approx_with`
    /// / `insert_cost_frontier_with` trio: the rule is data, not an entry
    /// point, so every consumer (climb, frontier approximation, caches,
    /// merges, baselines, the service's cross-query cache) funnels through
    /// one screening kernel.
    ///
    /// At capacity, a candidate that evicts nobody is rejected — the
    /// established archive wins, which is deterministic and order-stable.
    pub fn admit(
        &mut self,
        cost: &CostVector,
        format: OutputFormat,
        admission: &Admission,
        make: impl FnOnce() -> P,
    ) -> bool {
        self.screen.probes += 1;
        // One-per-format climb pruning is a scalar slot-replace, not a scan.
        if admission.rule == AdmissionRule::Climb(PrunePolicy::OnePerFormat) {
            return match self
                .buckets
                .get(&format)
                .and_then(|b| b.ids.first().copied())
            {
                Some(idx) => {
                    self.screen.dominance_tests += 1;
                    if cost.strictly_dominates(&self.meta[idx as usize].cost) {
                        let meta = Meta::of(cost, format);
                        self.buckets
                            .get_mut(&format)
                            .expect("bucket exists")
                            .replace(0, &meta);
                        self.meta[idx as usize] = meta;
                        self.plans[idx as usize] = make();
                        self.screen.admitted += 1;
                        self.screen.evicted += 1;
                        true
                    } else {
                        self.screen.rejected += 1;
                        false
                    }
                }
                None => {
                    if admission
                        .capacity
                        .is_some_and(|cap| self.plans.len() >= cap)
                    {
                        self.screen.rejected += 1;
                        return false;
                    }
                    self.screen.admitted += 1;
                    self.push(make(), Meta::of(cost, format));
                    true
                }
            };
        }

        let mut dead: Vec<u32> = Vec::new();
        let rejected = match admission.rule {
            AdmissionRule::Climb(_) => {
                // Weak dominance (`m ⪯ c`) folds the strict-domination and
                // exact-duplicate rejections of Algorithm 2 into one bound.
                let key = cost.agg_key();
                let screen = &mut self.screen;
                if self
                    .buckets
                    .get(&format)
                    .is_some_and(|b| b.covers(cost, key, screen))
                {
                    true
                } else {
                    // Weakly dominated members are strictly dominated here:
                    // an equal-cost member would have rejected the candidate.
                    if let Some(b) = self.buckets.get(&format) {
                        b.harvest_dominated(cost, key, &mut dead, &mut self.screen);
                    }
                    false
                }
            }
            AdmissionRule::Approx(eps) => {
                // `m ⪯ bound_of(c)` is per-metric α-dominance, computed with
                // exactly the arithmetic of `approx_dominates` (and
                // `bound.agg_key()` matches `scaled_agg_key` for uniform
                // factors), so decisions are bit-identical to the former
                // scalar-α path.
                let bound = eps.bound_of(cost);
                let bound_key = bound.agg_key();
                let screen = &mut self.screen;
                if self
                    .buckets
                    .get(&format)
                    .is_some_and(|b| b.covers(&bound, bound_key, screen))
                {
                    true
                } else {
                    let key = cost.agg_key();
                    if let Some(b) = self.buckets.get(&format) {
                        b.harvest_dominated(cost, key, &mut dead, &mut self.screen);
                    }
                    false
                }
            }
            AdmissionRule::EpsBox(eps) => {
                let cbox = eps.box_key(cost);
                let meta = &self.meta;
                let screen = &mut self.screen;
                let bucket = self.buckets.entry(format).or_default();
                bucket.ensure_boxes(&eps, meta);
                let mut covered = false;
                for (slot, &i) in bucket.ids.iter().enumerate() {
                    screen.dominance_tests += 1;
                    let mbox = &bucket.boxes[slot];
                    let mcost = &meta[i as usize].cost;
                    // A member whose box weakly dominates the candidate's
                    // rejects it — unless they share a box and the candidate
                    // strictly dominates the incumbent (it replaces it).
                    if mbox.dominates(&cbox) && (*mbox != cbox || !cost.strictly_dominates(mcost)) {
                        if !mcost.dominates(cost) {
                            screen.eps_rejects += 1;
                        }
                        covered = true;
                        break;
                    }
                }
                if !covered {
                    for (slot, &i) in bucket.ids.iter().enumerate() {
                        let mbox = &bucket.boxes[slot];
                        let mcost = &meta[i as usize].cost;
                        if cbox.dominates(mbox) && (cbox != *mbox || cost.strictly_dominates(mcost))
                        {
                            dead.push(i);
                        }
                    }
                }
                covered
            }
            AdmissionRule::CostFrontier => {
                let key = cost.agg_key();
                let screen = &mut self.screen;
                let mut covered = false;
                for b in self.buckets.values() {
                    if b.covers(cost, key, screen) {
                        covered = true;
                        break;
                    }
                }
                if !covered {
                    for b in self.buckets.values() {
                        b.harvest_dominated(cost, key, &mut dead, &mut self.screen);
                    }
                    // Bucket iteration order is arbitrary; restore the
                    // ascending order `remove_sorted` requires.
                    dead.sort_unstable();
                }
                covered
            }
        };

        if rejected {
            self.screen.rejected += 1;
            return false;
        }
        if !dead.is_empty() {
            self.screen.evicted += dead.len() as u64;
            self.remove_sorted(&dead);
        }
        if admission
            .capacity
            .is_some_and(|cap| self.plans.len() >= cap)
        {
            self.screen.rejected += 1;
            return false;
        }
        self.screen.admitted += 1;
        self.push(make(), Meta::of(cost, format));
        true
    }

    /// Merges every member of `other` into `self` under the given
    /// admission, in `other`'s storage order. The candidate's cost and
    /// format come from `other`'s inline metadata; `adopt` translates the
    /// foreign handle into `self`'s handle type and runs **only for
    /// admitted members** (rejected candidates cost one screening probe and
    /// nothing else). Returns the number of members inserted.
    ///
    /// This is the frontier-merge entry point of the parallel optimizer:
    /// worker frontiers (`ParetoSet<PlanId>` over private arenas) batch-merge
    /// into a shared global frontier, with `adopt` re-interning each
    /// surviving plan into the shared arena
    /// ([`PlanArena::adopt`](crate::arena::PlanArena::adopt)).
    pub fn merge_with<Q>(
        &mut self,
        other: &ParetoSet<Q>,
        admission: &Admission,
        adopt: impl FnMut(&Q) -> P,
    ) -> usize {
        self.merge_from(other, 0, admission, adopt)
    }

    /// [`ParetoSet::merge_with`] restricted to `other`'s members at and past
    /// index `start`. Members are stored in insertion order, so this merges
    /// the plans `other` admitted most recently — what a delta exchange
    /// offers (see [`PlanCache::changed_sets`](crate::cache::PlanCache::changed_sets)).
    pub fn merge_from<Q>(
        &mut self,
        other: &ParetoSet<Q>,
        start: usize,
        admission: &Admission,
        mut adopt: impl FnMut(&Q) -> P,
    ) -> usize {
        let mut inserted = 0;
        for (plan, meta) in other.plans[start..].iter().zip(&other.meta[start..]) {
            if self.admit(&meta.cost, meta.format, admission, || adopt(plan)) {
                inserted += 1;
            }
        }
        inserted
    }

    /// Screening tallies accumulated by this set's admissions so far.
    pub fn screen_counters(&self) -> ScreenCounters {
        self.screen
    }

    /// Returns and resets the screening tallies — the harvest point for
    /// instrumented callers that aggregate per-step counters (the climb
    /// scratch) and flush them at iteration granularity.
    pub fn take_screen_counters(&mut self) -> ScreenCounters {
        std::mem::take(&mut self.screen)
    }

    /// Consumes the set, returning the plans.
    pub fn into_plans(self) -> Vec<P> {
        self.plans
    }

    /// Iterates over members.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        self.plans.iter()
    }

    /// Debug check of the handle-independent part of the set invariant: no
    /// member strictly dominates another member with the same output
    /// format, and the metadata / SoA bucket index is internally consistent
    /// (columns mirror member costs, block key ranges are conservative,
    /// box caches match their factors).
    /// (`ParetoSet<PlanRef>::check_invariant` additionally cross-checks the
    /// stored plans against the metadata.)
    pub fn check_invariant_meta(&self) -> bool {
        if self.plans.len() != self.meta.len() {
            return false;
        }
        for m in &self.meta {
            if m.key != m.cost.agg_key() {
                return false;
            }
        }
        let indexed: usize = self.buckets.values().map(|b| b.ids.len()).sum();
        if indexed != self.meta.len() {
            return false;
        }
        for (format, bucket) in &self.buckets {
            if bucket.ids.windows(2).any(|w| w[0] >= w[1]) {
                return false;
            }
            if bucket.box_factors.is_some() && bucket.boxes.len() != bucket.ids.len() {
                return false;
            }
            for (slot, &i) in bucket.ids.iter().enumerate() {
                let m = match self.meta.get(i as usize) {
                    Some(m) if m.format == *format => m,
                    _ => return false,
                };
                let d = bucket.dim;
                if m.cost.dim() != d {
                    return false;
                }
                let base = (slot / LANES) * d * LANES + slot % LANES;
                for k in 0..d {
                    if bucket.cols[base + k * LANES] != m.cost[k] {
                        return false;
                    }
                }
                let block = slot / LANES;
                if !(bucket.kmin[block] <= m.key && m.key <= bucket.kmax[block]) {
                    return false;
                }
                if let Some(f) = &bucket.box_factors {
                    if bucket.boxes[slot] != f.box_key(&m.cost) {
                        return false;
                    }
                }
            }
        }
        for (i, a) in self.meta.iter().enumerate() {
            for (j, b) in self.meta.iter().enumerate() {
                if i != j && a.format == b.format && a.cost.strictly_dominates(&b.cost) {
                    return false;
                }
            }
        }
        true
    }
}

impl ParetoSet<PlanRef> {
    /// Offers a materialized plan under the given admission. Returns
    /// `true` iff the plan was inserted. (Prefer [`admit`](Self::admit)
    /// on paths where rejected candidates should not allocate.)
    #[inline]
    pub fn insert(&mut self, new_plan: PlanRef, admission: &Admission) -> bool {
        let cost = *new_plan.cost();
        let format = new_plan.format();
        self.admit(&cost, format, admission, move || new_plan)
    }

    /// Debug check of the full set invariant: the handle-independent checks
    /// of [`check_invariant_meta`](Self::check_invariant_meta) plus
    /// agreement between every stored plan and its inline metadata.
    pub fn check_invariant(&self) -> bool {
        if !self.check_invariant_meta() {
            return false;
        }
        self.plans
            .iter()
            .zip(&self.meta)
            .all(|(p, m)| p.cost().as_slice() == m.cost.as_slice() && p.format() == m.format)
    }
}

impl FromIterator<PlanRef> for ParetoSet {
    /// Collects plans into an exact cost-Pareto frontier (format-agnostic).
    fn from_iter<I: IntoIterator<Item = PlanRef>>(iter: I) -> Self {
        let mut set = ParetoSet::new();
        let admission = Admission::cost_frontier();
        for p in iter {
            set.insert(p, &admission);
        }
        set
    }
}

/// The pre-bucketing reference implementation: a flat `Vec<PlanRef>` with
/// O(n·d) dominance scans per admission that dereference every member's
/// `Arc<Plan>`, deciding through the scalar reference predicates
/// [`AdmissionRule::rejects`] / [`AdmissionRule::evicts`].
///
/// Kept for two purposes only: differential tests proving the
/// bucketed-SoA set makes identical decisions, and the `pruning`
/// micro-benchmark quantifying the speedup. Not used on any hot path, and
/// only compiled under the `diff-testing` feature (on in test and bench
/// builds, off in plain release builds).
#[cfg(any(test, feature = "diff-testing"))]
#[derive(Clone, Default, Debug)]
pub struct LinearParetoSet {
    plans: Vec<PlanRef>,
}

#[cfg(any(test, feature = "diff-testing"))]
impl LinearParetoSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        LinearParetoSet { plans: Vec::new() }
    }

    /// The current members.
    #[inline]
    pub fn plans(&self) -> &[PlanRef] {
        &self.plans
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The unified admission entry point, by linear scan over materialized
    /// plans — the oracle the bucketed [`ParetoSet::admit`] is
    /// differentially tested against.
    pub fn admit(&mut self, new_plan: PlanRef, admission: &Admission) -> bool {
        if admission.rule == AdmissionRule::Climb(PrunePolicy::OnePerFormat) {
            return if let Some(idx) = self.plans.iter().position(|p| p.same_output(&new_plan)) {
                if new_plan.cost().strictly_dominates(self.plans[idx].cost()) {
                    self.plans[idx] = new_plan;
                    true
                } else {
                    false
                }
            } else {
                if admission
                    .capacity
                    .is_some_and(|cap| self.plans.len() >= cap)
                {
                    return false;
                }
                self.plans.push(new_plan);
                true
            };
        }
        let rule = &admission.rule;
        let scoped = rule.format_scoped();
        let in_scope = |p: &PlanRef| !scoped || p.same_output(&new_plan);
        if self
            .plans
            .iter()
            .any(|p| in_scope(p) && rule.rejects(p.cost(), new_plan.cost()))
        {
            return false;
        }
        self.plans
            .retain(|p| !(in_scope(p) && rule.evicts(new_plan.cost(), p.cost())));
        if admission
            .capacity
            .is_some_and(|cap| self.plans.len() >= cap)
        {
            return false;
        }
        self.plans.push(new_plan);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveConfig;
    use crate::cost::CostVector;
    use crate::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
    use crate::plan::Plan;
    use crate::tables::TableId;

    /// A model with hand-picked costs so dominance relations are exact:
    /// join op 0 adds (1, 2), op 1 adds (2, 1) — incomparable, format 0;
    /// op 2 adds (1.5, 1.5) with format 1; scan op 0 costs (1, 1) and scan
    /// op 1 costs (2, 2) — strictly dominated.
    struct ManualModel {
        scan_ops: Vec<ScanOpId>,
    }

    impl ManualModel {
        fn new() -> Self {
            ManualModel {
                scan_ops: vec![ScanOpId(0), ScanOpId(1)],
            }
        }
    }

    impl CostModel for ManualModel {
        fn dim(&self) -> usize {
            2
        }
        fn metric_name(&self, _k: usize) -> &str {
            "m"
        }
        fn num_tables(&self) -> usize {
            2
        }
        fn scan_ops(&self, _table: TableId) -> &[ScanOpId] {
            &self.scan_ops
        }
        fn join_ops(&self, _outer: &PlanView, _inner: &PlanView, out: &mut Vec<JoinOpId>) {
            out.extend([JoinOpId(0), JoinOpId(1), JoinOpId(2)]);
        }
        fn scan_props(&self, _table: TableId, op: ScanOpId) -> PlanProps {
            let c = if op.0 == 0 { 1.0 } else { 2.0 };
            PlanProps {
                cost: CostVector::new(&[c, c]),
                rows: 100.0,
                pages: 1.0,
                format: OutputFormat(0),
            }
        }
        fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
            let extra = match op.0 {
                0 => [1.0, 2.0],
                1 => [2.0, 1.0],
                _ => [1.5, 1.5],
            };
            let cost = outer.cost.add(&inner.cost).add(&CostVector::new(&extra));
            PlanProps {
                cost,
                rows: 100.0,
                pages: 1.0,
                format: if op.0 == 2 {
                    OutputFormat(1)
                } else {
                    OutputFormat(0)
                },
            }
        }
        fn scan_op_name(&self, _op: ScanOpId) -> String {
            "scan".into()
        }
        fn join_op_name(&self, _op: JoinOpId) -> String {
            "join".into()
        }
        fn num_formats(&self) -> usize {
            2
        }
    }

    /// Builds join plans over the same two tables with each operator so we
    /// get plans with controlled formats and genuinely different costs:
    /// `plans[0]` (3,4), `plans[1]` (4,3) — incomparable, format 0;
    /// `plans[2]` (3.5,3.5), format 1; `plans[3]` (5,6), format 0,
    /// strictly dominated by `plans[0]`.
    fn sample_plans() -> (ManualModel, Vec<PlanRef>) {
        let m = ManualModel::new();
        let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(0));
        let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(0));
        let mut plans = Vec::new();
        for op in 0..3u16 {
            plans.push(Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(op)));
        }
        // A strictly worse variant of plan 0 (same format, higher cost):
        // built from the strictly more expensive scans.
        let e0 = Plan::scan(&m, TableId::new(0), ScanOpId(1));
        let e1 = Plan::scan(&m, TableId::new(1), ScanOpId(1));
        plans.push(Plan::join(&m, e0, e1, JoinOpId(0)));
        (m, plans)
    }

    fn one_per_format() -> Admission {
        Admission::climb(PrunePolicy::OnePerFormat)
    }

    fn keep_incomparable() -> Admission {
        Admission::climb(PrunePolicy::KeepIncomparable)
    }

    #[test]
    fn climb_prune_discards_strictly_dominated() {
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();
        assert!(better(&good, &bad), "fixture: plan 0 must dominate plan 3");

        let mut set = ParetoSet::new();
        assert!(set.insert(good.clone(), &one_per_format()));
        assert!(!set.insert(bad.clone(), &one_per_format()));
        assert_eq!(set.len(), 1);

        // Inserting in the reverse order replaces the dominated plan.
        let mut set = ParetoSet::new();
        assert!(set.insert(bad, &one_per_format()));
        assert!(set.insert(good.clone(), &one_per_format()));
        assert_eq!(set.len(), 1);
        assert!(std::sync::Arc::ptr_eq(&set.plans()[0], &good));
        assert!(set.check_invariant());
    }

    #[test]
    fn climb_prune_keeps_one_plan_per_format() {
        let (_, plans) = sample_plans();
        // plans[0] and plans[1] are format 0 and incomparable; plans[2] is format 1.
        let mut set = ParetoSet::new();
        assert!(set.insert(plans[0].clone(), &one_per_format()));
        assert!(!set.insert(plans[1].clone(), &one_per_format()));
        assert!(set.insert(plans[2].clone(), &one_per_format()));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn literal_prune_keeps_incomparable_same_format_plans() {
        let (_, plans) = sample_plans();
        let mut set = ParetoSet::new();
        assert!(set.insert(plans[0].clone(), &keep_incomparable()));
        assert!(set.insert(plans[1].clone(), &keep_incomparable()));
        assert_eq!(set.len(), 2);
        // Exact duplicates are rejected.
        assert!(!set.insert(plans[0].clone(), &keep_incomparable()));
        assert!(set.check_invariant());
    }

    #[test]
    fn approx_prune_rejects_alpha_covered_plans() {
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();
        // With a huge alpha, the worse plan is "covered" and rejected.
        let mut set = ParetoSet::new();
        assert!(set.insert(good.clone(), &Admission::approx(1e9)));
        assert!(!set.insert(bad.clone(), &Admission::approx(1e9)));
        // With alpha = 1 it is still rejected (strictly dominated)...
        let mut set = ParetoSet::new();
        assert!(set.insert(good.clone(), &Admission::exact()));
        assert!(!set.insert(bad.clone(), &Admission::exact()));
    }

    #[test]
    fn approx_prune_keeps_distinct_tradeoffs_at_low_alpha() {
        let (_, plans) = sample_plans();
        let mut set = ParetoSet::new();
        assert!(set.insert(plans[0].clone(), &Admission::exact()));
        assert!(set.insert(plans[1].clone(), &Admission::exact()));
        assert_eq!(set.len(), 2, "incomparable plans both kept at alpha=1");
    }

    #[test]
    fn approx_prune_insertion_removes_weakly_dominated() {
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();
        let mut set = ParetoSet::new();
        // Insert the worse plan first with alpha=1, then the better one:
        // the worse plan must be evicted.
        assert!(set.insert(bad, &Admission::exact()));
        assert!(set.insert(good.clone(), &Admission::exact()));
        assert_eq!(set.len(), 1);
        assert!(std::sync::Arc::ptr_eq(&set.plans()[0], &good));
    }

    #[test]
    fn per_metric_factors_prune_each_axis_independently() {
        // Factor 4 on metric 0, exact on metric 1: a plan 3x worse on
        // metric 0 only is covered; a plan 2x worse on metric 0 but
        // better on the exact metric 1 is a kept tradeoff.
        let eps = EpsFactors::per_metric(&[4.0, 1.0]);
        let adm = Admission::approx_per_metric(eps);
        let mut set = ParetoSet::new();
        assert!(set.insert(synthetic_plan(&[1.0, 1.0], 0), &adm));
        assert!(!set.insert(synthetic_plan(&[3.0, 1.0], 0), &adm));
        assert!(set.insert(synthetic_plan(&[2.0, 0.9], 0), &adm));
        assert_eq!(set.len(), 2);
        assert!(set.check_invariant());
    }

    #[test]
    fn cost_frontier_ignores_format() {
        let (_, plans) = sample_plans();
        let mut set = ParetoSet::new();
        for p in &plans {
            set.insert(p.clone(), &Admission::cost_frontier());
        }
        // plans[3] is dominated by plans[0]; the rest are incomparable.
        assert_eq!(set.len(), 3);
        // No member dominates another.
        for a in set.iter() {
            for b in set.iter() {
                if !std::sync::Arc::ptr_eq(a, b) {
                    assert!(!a.cost().strictly_dominates(b.cost()));
                }
            }
        }
    }

    #[test]
    fn from_iterator_builds_cost_frontier() {
        let (_, plans) = sample_plans();
        let set: ParetoSet = plans.into_iter().collect();
        assert_eq!(set.len(), 3);
        assert!(set.check_invariant());
    }

    #[test]
    fn capacity_rejects_when_full_unless_candidate_evicts() {
        let adm = Admission::exact().with_capacity(2);
        let mut set = ParetoSet::new();
        assert!(set.insert(synthetic_plan(&[1.0, 8.0], 0), &adm));
        assert!(set.insert(synthetic_plan(&[8.0, 1.0], 0), &adm));
        // A third incomparable tradeoff is refused at capacity.
        assert!(!set.insert(synthetic_plan(&[4.0, 4.0], 0), &adm));
        assert_eq!(set.len(), 2);
        // A dominating candidate still displaces a member.
        assert!(set.insert(synthetic_plan(&[0.5, 4.0], 0), &adm));
        assert_eq!(set.len(), 2);
        assert!(set.check_invariant());
        // One-per-format admission honors capacity on fresh formats.
        let capped = Admission::climb(PrunePolicy::OnePerFormat).with_capacity(1);
        let mut set = ParetoSet::new();
        assert!(set.insert(synthetic_plan(&[1.0, 1.0], 0), &capped));
        assert!(!set.insert(synthetic_plan(&[1.0, 1.0], 1), &capped));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn merge_preserves_union_semantics_and_defers_adoption() {
        let (_, plans) = sample_plans();
        // Set A holds the two incomparable format-0 plans; set B holds the
        // dominated variant plus the format-1 plan.
        let exact = Admission::exact();
        let mut a: ParetoSet = ParetoSet::new();
        assert!(a.insert(plans[0].clone(), &exact));
        assert!(a.insert(plans[1].clone(), &exact));
        let mut b: ParetoSet = ParetoSet::new();
        assert!(b.insert(plans[3].clone(), &exact));
        assert!(b.insert(plans[2].clone(), &exact));
        let mut adoptions = 0;
        let inserted = a.merge_with(&b, &exact, |p| {
            adoptions += 1;
            p.clone()
        });
        // plans[3] is dominated by plans[0] → rejected without adoption;
        // plans[2] (format 1) is admitted.
        assert_eq!(inserted, 1);
        assert_eq!(adoptions, 1, "rejected members must not be adopted");
        assert_eq!(a.len(), 3);
        assert!(a.check_invariant());
        // Merging the same set again changes nothing (idempotent union).
        assert_eq!(a.merge_with(&b, &exact, |p| p.clone()), 0);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn merge_order_matches_sequential_insertion() {
        // Merging B into A must make exactly the decisions of inserting B's
        // members one by one in storage order — the property the parallel
        // optimizer's deterministic reduction relies on.
        let exact = Admission::exact();
        let streams: [&[(&[f64], u8)]; 2] = [
            &[(&[4.0, 4.0], 0), (&[2.0, 6.0], 0), (&[6.0, 2.0], 1)],
            &[(&[3.0, 3.0], 0), (&[2.0, 6.0], 1), (&[9.0, 1.0], 0)],
        ];
        let mut sets: Vec<ParetoSet> = Vec::new();
        for stream in streams {
            let mut s = ParetoSet::new();
            for (cost, format) in stream {
                s.insert(synthetic_plan(cost, *format), &exact);
            }
            sets.push(s);
        }
        let mut merged = ParetoSet::new();
        let mut sequential = ParetoSet::new();
        for s in &sets {
            merged.merge_with(s, &exact, |p| p.clone());
            for p in s.iter() {
                sequential.insert(p.clone(), &exact);
            }
        }
        let render = |s: &ParetoSet| -> Vec<(Vec<f64>, u8)> {
            s.iter()
                .map(|p| (p.cost().as_slice().to_vec(), p.format().0))
                .collect()
        };
        assert_eq!(render(&merged), render(&sequential));
    }

    #[test]
    fn merge_from_offers_only_the_suffix() {
        let exact = Admission::exact();
        let mut source = ParetoSet::new();
        for (cost, format) in [(&[4.0, 4.0], 0u8), (&[2.0, 6.0], 0), (&[6.0, 2.0], 0)] {
            source.insert(synthetic_plan(cost, format), &exact);
        }
        let mut target: ParetoSet = ParetoSet::new();
        let mut offered = 0;
        let inserted = target.merge_from(&source, 1, &exact, |p| {
            offered += 1;
            p.clone()
        });
        assert_eq!((inserted, offered, target.len()), (2, 2, 2));
        assert!(target.costs().all(|c| c.as_slice() != [4.0, 4.0]));
        assert_eq!(target.merge_from(&source, 3, &exact, |p| p.clone()), 0);
    }

    #[test]
    fn helpers_cover_empty_and_clear() {
        let mut set = ParetoSet::new();
        assert!(set.is_empty());
        let (_, plans) = sample_plans();
        set.insert(plans[0].clone(), &Admission::cost_frontier());
        assert!(!set.is_empty());
        set.clear();
        assert!(set.is_empty());
        assert!(set.check_invariant());
        assert_eq!(set.into_plans().len(), 0);
    }

    #[test]
    fn deferred_materialization_skips_rejected_candidates() {
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();
        let mut set = ParetoSet::new();
        assert!(set.insert(good, &one_per_format()));
        // The rejected candidate's closure must never run.
        let bad_cost = *bad.cost();
        let bad_format = bad.format();
        let mut made = false;
        assert!(!set.admit(&bad_cost, bad_format, &one_per_format(), || {
            made = true;
            bad
        }));
        assert!(!made, "rejected candidate was materialized");

        let mut set = ParetoSet::new();
        assert!(set.insert(plans[0].clone(), &Admission::approx(1e9)));
        let mut made = false;
        assert!(
            !set.admit(&bad_cost, bad_format, &Admission::approx(1e9), || {
                made = true;
                plans[3].clone()
            })
        );
        assert!(!made, "rejected approx candidate was materialized");
    }

    #[test]
    fn screen_counters_tally_probes_rejections_and_evictions() {
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();

        // OnePerFormat: admit, then reject a dominated candidate.
        let mut set = ParetoSet::new();
        assert!(set.insert(good.clone(), &one_per_format()));
        assert!(!set.insert(bad.clone(), &one_per_format()));
        let c = set.screen_counters();
        assert_eq!(c.probes, 2);
        assert_eq!(c.admitted, 1);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.dominance_tests, 1);

        // Eviction: dominated incumbent replaced under the literal policy.
        // The admitted candidate's eviction pass screens one SoA block.
        let mut set = ParetoSet::new();
        assert!(set.insert(bad, &keep_incomparable()));
        assert!(set.insert(good, &keep_incomparable()));
        let c = set.screen_counters();
        assert_eq!(c.probes, 2);
        assert_eq!(c.admitted, 2);
        assert_eq!(c.evicted, 1);
        assert!(c.blocks_screened >= 1, "{c:?}");

        // take_screen_counters drains; absorb sums.
        let mut total = ScreenCounters::default();
        total.absorb(&set.take_screen_counters());
        assert_eq!(total.probes, 2);
        assert_eq!(set.screen_counters(), ScreenCounters::default());

        // The block key-range pre-filter skips blocks whose keys already
        // rule dominance out: a cheap member cannot be dominated by an
        // expensive candidate, so the second probe's eviction pass skips
        // the incumbent's block.
        let mut set = ParetoSet::new();
        assert!(set.insert(synthetic_plan(&[1.0, 1.0, 1.0], 0), &Admission::exact()));
        assert!(set.insert(synthetic_plan(&[0.5, 4.0, 1.0], 0), &Admission::exact()));
        let c = set.screen_counters();
        assert!(c.agg_key_skips >= 1, "{c:?}");
    }

    #[test]
    fn eps_box_keeps_one_occupant_per_box_and_counts_eps_rejects() {
        let adm = Admission::eps_box(EpsFactors::uniform(2.0));
        let mut set = ParetoSet::new();
        // (2, 3) and (3, 2.5) are incomparable but share the factor-2 box
        // [2, 4)^2: the newcomer is rejected, and only by precision —
        // exact dominance would have kept it.
        assert!(set.insert(synthetic_plan(&[2.0, 3.0], 0), &adm));
        assert!(!set.insert(synthetic_plan(&[3.0, 2.5], 0), &adm));
        assert_eq!(set.screen_counters().eps_rejects, 1);
        // A same-box strictly dominating candidate replaces the incumbent.
        assert!(set.insert(synthetic_plan(&[2.0, 2.5], 0), &adm));
        assert_eq!(set.len(), 1);
        // A different non-dominated box is admitted.
        assert!(set.insert(synthetic_plan(&[8.0, 1.0], 0), &adm));
        assert_eq!(set.len(), 2);
        // A candidate box-dominating every member evicts them all.
        assert!(set.insert(synthetic_plan(&[0.5, 0.5], 0), &adm));
        assert_eq!(set.len(), 1);
        assert!(set.check_invariant());
    }

    #[test]
    fn eps_box_archive_is_bounded_by_box_counts() {
        // An adversarial anti-correlated stream: points on the plane
        // c0 + c1 + c2 = 300 are pairwise non-dominated, so the exact
        // archive keeps essentially every candidate while the ε-archive is
        // bounded by the number of per-metric boxes.
        let eps = EpsFactors::uniform(2.0);
        let boxed = Admission::eps_box(eps);
        let exact = Admission::exact();
        let mut eps_set = ParetoSet::new();
        let mut exact_set = ParetoSet::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let n = 2048;
        for _ in 0..n {
            let c0 = 1.0 + 99.0 * next();
            let c1 = 1.0 + 99.0 * next();
            let cost = [c0, c1, 300.0 - c0 - c1];
            eps_set.insert(synthetic_plan(&cost, 0), &boxed);
            exact_set.insert(synthetic_plan(&cost, 0), &exact);
        }
        // Size bound: every cost component lies in [1, 298], whose factor-2
        // boxes are indices 0..=8 — at most 9 per metric, 9^3 overall.
        assert!(
            eps_set.len() <= 9 * 9 * 9,
            "ε-archive exceeded the box-count bound: {}",
            eps_set.len()
        );
        // At most one occupant per box.
        let keys: Vec<BoxKey> = eps_set.iter().map(|p| eps.box_key(p.cost())).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "two occupants share a box");
            }
        }
        // The exact archive blows up on the anti-correlated stream (the
        // bench harness records the d=8 version of this curve).
        assert!(
            exact_set.len() >= 5 * eps_set.len(),
            "exact {} vs ε {}",
            exact_set.len(),
            eps_set.len()
        );
        assert!(eps_set.check_invariant());
        assert!(eps_set.screen_counters().eps_rejects > 0);
    }

    #[test]
    fn eps_box_survives_schedule_driven_factor_changes() {
        // When the schedule decays between probes, cached boxes are
        // recomputed for the new factors and the invariant holds.
        let cfg = ArchiveConfig {
            policy: crate::archive::ArchivePolicy::EpsBox,
            eps: crate::archive::EpsSchedule::Geometric {
                start: EpsFactors::splat(4.0),
                decay: 0.5,
                period: 4,
            },
            capacity: None,
        };
        let mut set = ParetoSet::new();
        for i in 0..32u64 {
            let adm = cfg.admission(i);
            let c = [1.0 + (i % 7) as f64, 8.0 - (i % 7) as f64];
            set.insert(synthetic_plan(&c, (i % 2) as u8), &adm);
            assert!(set.check_invariant(), "iteration {i}");
        }
        assert!(!set.is_empty());
    }

    /// Fabricates a plan with arbitrary cost and format through the
    /// props-based constructor (the table/operator are irrelevant to
    /// `ParetoSet`, which only reads cost and format).
    fn synthetic_plan(cost: &[f64], format: u8) -> PlanRef {
        Plan::scan_from_props(
            TableId::new(0),
            ScanOpId(0),
            PlanProps {
                cost: CostVector::new(cost),
                rows: 1.0,
                pages: 1.0,
                format: OutputFormat(format),
            },
        )
    }

    #[cfg(any(test, feature = "diff-testing"))]
    #[test]
    fn bucketed_matches_linear_on_handpicked_eviction_chain() {
        // A chain designed to hit rejection, replacement, and multi-member
        // eviction in both implementations.
        let stream: Vec<(Vec<f64>, u8)> = vec![
            (vec![4.0, 4.0, 4.0], 0),
            (vec![5.0, 3.0, 5.0], 0),
            (vec![3.0, 5.0, 5.0], 0),
            (vec![6.0, 6.0, 6.0], 1),
            (vec![2.0, 2.0, 2.0], 0), // dominates all three format-0 members
            (vec![2.0, 2.0, 2.0], 0), // duplicate
            (vec![1.0, 9.0, 1.0], 1),
        ];
        for alpha in [1.0, 1.5, 10.0] {
            let adm = Admission::approx(alpha);
            let mut bucketed = ParetoSet::new();
            let mut linear = LinearParetoSet::new();
            for (cost, format) in &stream {
                let p = synthetic_plan(cost, *format);
                assert_eq!(
                    bucketed.insert(p.clone(), &adm),
                    linear.admit(p, &adm),
                    "decision diverged at alpha={alpha}"
                );
            }
            assert_eq!(bucketed.len(), linear.len());
            assert!(bucketed.check_invariant());
        }
    }

    #[cfg(any(test, feature = "diff-testing"))]
    mod differential {
        //! Differential proptests (compiled under the `diff-testing`
        //! feature): (a) every admission rule preserves the Pareto-set
        //! invariant, (b) the bucketed-SoA implementation makes exactly the
        //! decisions — and stores exactly the survivors, in the same order —
        //! as the linear-scan reference deciding through the scalar
        //! [`AdmissionRule`] predicates, and (c) the degenerate ε-archive
        //! (all factors 1) makes exactly the decisions of exact approximate
        //! pruning at d ∈ {2, 4, 8}.

        use super::*;
        use proptest::prelude::*;

        /// Candidate streams: small integer-ish costs maximize dominance /
        /// equality collisions, few formats maximize bucket contention.
        fn arb_stream_d(dim: usize) -> impl Strategy<Value = Vec<(Vec<f64>, u8)>> {
            proptest::collection::vec(
                (
                    proptest::collection::vec((0..8u8).prop_map(f64::from), dim),
                    0..3u8,
                ),
                1..40,
            )
        }

        fn arb_stream() -> impl Strategy<Value = Vec<(Vec<f64>, u8)>> {
            arb_stream_d(3)
        }

        fn survivors(plans: &[PlanRef]) -> Vec<(Vec<f64>, u8)> {
            plans
                .iter()
                .map(|p| (p.cost().as_slice().to_vec(), p.format().0))
                .collect()
        }

        /// Runs a stream through the bucketed set under `adm` and the
        /// linear oracle, asserting identical decisions and survivors.
        fn assert_matches_linear(
            stream: &[(Vec<f64>, u8)],
            adm: &Admission,
        ) -> Result<(), TestCaseError> {
            let mut bucketed = ParetoSet::new();
            let mut linear = LinearParetoSet::new();
            for (cost, format) in stream {
                let p = synthetic_plan(cost, *format);
                let kept_b = bucketed.insert(p.clone(), adm);
                let kept_l = linear.admit(p, adm);
                prop_assert_eq!(kept_b, kept_l, "decision diverged under {:?}", adm);
            }
            prop_assert!(bucketed.check_invariant());
            prop_assert_eq!(
                survivors(bucketed.plans()),
                survivors(linear.plans()),
                "survivors diverged under {:?}",
                adm
            );
            Ok(())
        }

        /// Runs a stream through the exact ε-box archive and exact
        /// approximate pruning, asserting identical decisions and
        /// survivors — the ε=0 differential property.
        fn assert_exact_eps_box_matches(stream: &[(Vec<f64>, u8)]) -> Result<(), TestCaseError> {
            let boxed = Admission::eps_box(EpsFactors::exact());
            let exact = Admission::exact();
            let mut eps_set = ParetoSet::new();
            let mut exact_set = ParetoSet::new();
            for (cost, format) in stream {
                let p = synthetic_plan(cost, *format);
                prop_assert_eq!(
                    eps_set.insert(p.clone(), &boxed),
                    exact_set.insert(p, &exact),
                    "ε=0 archive decision diverged from exact pruning"
                );
            }
            prop_assert!(eps_set.check_invariant());
            prop_assert_eq!(survivors(eps_set.plans()), survivors(exact_set.plans()));
            prop_assert_eq!(
                eps_set.screen_counters().eps_rejects,
                0,
                "ε=0 must never reject on precision alone"
            );
            Ok(())
        }

        proptest! {
            /// Both climb policies preserve the invariant (no member
            /// strictly dominates a same-format member), and bucketed
            /// pruning returns the same surviving set as the linear scan.
            #[test]
            fn climb_policies_match_linear_and_keep_invariant(stream in arb_stream()) {
                for policy in [PrunePolicy::OnePerFormat, PrunePolicy::KeepIncomparable] {
                    assert_matches_linear(&stream, &Admission::climb(policy))?;
                }
            }

            /// Approximate pruning: same decisions and survivors for a range
            /// of α, and the invariant holds.
            #[test]
            fn approx_prune_matches_linear_and_keeps_invariant(
                stream in arb_stream(),
                alpha in prop_oneof![Just(1.0f64), 1.0f64..4.0, Just(1e12f64)],
            ) {
                assert_matches_linear(&stream, &Admission::approx(alpha))?;
            }

            /// Per-metric factors match the linear oracle too.
            #[test]
            fn per_metric_approx_matches_linear(
                stream in arb_stream(),
                factors in proptest::collection::vec(1.0f64..4.0, 3),
            ) {
                let adm = Admission::approx_per_metric(EpsFactors::per_metric(&factors));
                assert_matches_linear(&stream, &adm)?;
            }

            /// Format-agnostic cost-frontier insertion matches as well.
            #[test]
            fn cost_frontier_matches_linear(stream in arb_stream()) {
                assert_matches_linear(&stream, &Admission::cost_frontier())?;
            }

            /// The ε-box archive matches the linear oracle for coarse
            /// factors (the SoA-cached box path vs the scalar predicates).
            #[test]
            fn eps_box_matches_linear(
                stream in arb_stream(),
                factor in prop_oneof![Just(1.0f64), 1.0f64..3.0],
            ) {
                let adm = Admission::eps_box(EpsFactors::uniform(factor));
                assert_matches_linear(&stream, &adm)?;
            }

            /// Capacity-bounded admission matches the linear oracle.
            #[test]
            fn capacity_matches_linear(stream in arb_stream(), cap in 1usize..6) {
                assert_matches_linear(&stream, &Admission::exact().with_capacity(cap))?;
            }

            /// ε=0 (exact factors) archive == exact pruning at d = 2.
            #[test]
            fn exact_eps_box_matches_exact_archive_d2(stream in arb_stream_d(2)) {
                assert_exact_eps_box_matches(&stream)?;
            }

            /// ε=0 (exact factors) archive == exact pruning at d = 4.
            #[test]
            fn exact_eps_box_matches_exact_archive_d4(stream in arb_stream_d(4)) {
                assert_exact_eps_box_matches(&stream)?;
            }

            /// ε=0 (exact factors) archive == exact pruning at d = 8.
            #[test]
            fn exact_eps_box_matches_exact_archive_d8(stream in arb_stream_d(8)) {
                assert_exact_eps_box_matches(&stream)?;
            }
        }
    }
}
