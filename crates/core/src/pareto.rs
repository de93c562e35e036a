//! Pareto-set maintenance: the paper's `Prune` functions behind the
//! unified admission API of [`crate::archive`].
//!
//! The pruning rules (encoded as [`Admission`]s and applied through the
//! single entry point [`ParetoSet::admit`]):
//!
//! * **Climb pruning** (Alg. 2, [`Admission::Climb`]):
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
//! * **Approximate pruning** (Alg. 3, [`Admission::Approx`]):
//!   `SigBetter(p1, p2, α) = SameOutput ∧ p1 ⪯_α p2`, generalized to a
//!   per-metric factor vector ([`EpsFactors`]). A new plan is inserted only
//!   if no stored same-format plan α-approximately dominates it; insertion
//!   removes stored plans the new plan weakly dominates. This keeps the
//!   per-table-set frontier size polynomially bounded (Lemma 6).
//!
//! * **ε-Pareto box archive** ([`Admission::EpsBox`], Trummer & Koch
//!   2014): at most one occupant per non-dominated per-format precision
//!   box, so the archive size is bounded by the precision target rather
//!   than the true frontier cardinality — the many-objective (d = 6–10)
//!   scaling mode.
//!
//! * **Cost frontier** ([`Admission::CostFrontier`]): the exact
//!   format-blind cost-Pareto frontier, for result archives.
//!
//! # Hot-path representation
//!
//! `Prune`/`SigBetter` run inside every hill-climbing step and every
//! `ApproximateFrontiers` traversal, and one [`ParetoSet`] exists per cached
//! table set — tens of thousands per session — so both the screen and the
//! bytes per set count. The frontiers are small: 2.6–6.6 members on average
//! in the benchmark's sessions, 2 or 3 metrics, and almost always exactly
//! two output formats. A [`ParetoSet`] therefore
//!
//! * **stores its members in one array** — the plan handles plus a parallel
//!   array of inline metadata (cost vector, cached aggregate key, output
//!   format), in insertion order. A set below the crossover owns exactly
//!   these two heap blocks;
//! * **screens that array directly** — per member a format compare (the
//!   `SameOutput` conjunct), then the cached aggregate-key filter (see
//!   [`CostVector::agg_key`]), then the component-wise compare, in
//!   ascending member order;
//! * **indexes formats in structure-of-arrays blocks only past a measured
//!   crossover** — the first dominance-screen probe (climb, approximate or
//!   cost-frontier rule) that finds the set's member count × the cost
//!   dimension at or past [`SOA_CROSSOVER`] gives each of its formats a
//!   block index: metric `k` of [`LANES`] members stored contiguously, so a
//!   candidate is screened against whole blocks of the formats in scope (its
//!   own, or every format for the cost frontier) by a branch-free inner
//!   loop, and each block's aggregate-key range lets the screen skip it
//!   whole. It is the set's size that decides because the member scan reads
//!   every member, of any format. The indices then follow every insertion;
//!   after an eviction each re-reads its member indices (and its columns
//!   only if its format lost members), and all are dropped when the set
//!   falls back below the crossover. The ε-box screen compares cached
//!   boxes, not costs, so a set only it probes is never indexed. In this
//!   repository the indices engage for the archives of the perf-baseline
//!   harness (the d ≥ 6 `dominance_screen_*` kernels, the 4-format
//!   `insert_*` kernels and the exact d = 8 archive of the ε-archive
//!   curve), for the baselines' cost-frontier result archives once they
//!   grow that large and, of the benchmark's sessions, only for
//!   `seq_manyobj`'s largest query frontiers (86–88 members at d = 3: about
//!   120 blocks screened per iteration, against 10 000 probes);
//! * **defers plan materialization** — [`ParetoSet::admit`] takes the
//!   candidate's cost and format plus a closure producing the plan, so
//!   *rejected candidates never allocate* (callers cost a candidate, probe
//!   the set, and only build the plan handle on admission).
//!
//! [`SOA_CROSSOVER`] (256) was measured with the `dominance_screen_*`
//! kernels of the perf-baseline harness on a 2-vCPU x86-64 host. On the
//! d = 4 kernel, whose archive ends at 59 members (236 member × dimension),
//! the member scan took 51 ns per admission and the block screen 65–88 ns;
//! from d = 6 on (archives of 300–800 members) the block screen is 2.4–3.0×
//! faster. Rejection-only probes of fixed archives break even between 48
//! and 300 member × dimension, and the block index also pays a refresh per
//! eviction. At 256, the d ≤ 4 single-format kernels and practically every
//! cached table set scan (a 3-metric set needs 86 members to promote),
//! while the 4-format, d = 4 `insert_*` kernels (about 240 members) screen
//! blocks and stay 2–4× faster than the linear reference. The member scan
//! still costs about 2.1× (d = 2) and 1.1× (d = 4) a bare loop over cost
//! vectors (the scalar `dominance_screen_*` twins, medians of 13 harness
//! runs); at d = 2 per-probe overhead — the screening tallies, the rule
//! dispatch, the format compare — is what remains of the gap.
//!
//! What a session holds, on one `seq_manyobj`-shaped session (chain n = 50,
//! 3 metrics, MinMax selectivities, 500 iterations: 17 028 cached table sets
//! with 106 078 plans, 147 946 arena nodes): the plan cache went from
//! 47.9 MB (2 811 B per table set — a hashed per-format bucket map with
//! block columns, key ranges and id lists per bucket, 11 heap blocks) to
//! 19.3 MB (1 134 B per set in 2 heap blocks; 182 B per cached plan, was
//! 451). Member arrays grow by half rather than doubling from 4, since most
//! sets hold 2–6 members.
//!
//! The flat-`Vec` implementation that dereferences every member is
//! retained as [`LinearParetoSet`] for differential tests and the `pruning`
//! micro-benchmark; it admits through the scalar reference predicates
//! [`Admission::rejects`] / [`Admission::evicts`], and both
//! implementations make identical keep/evict decisions and store survivors
//! in the same order.

use crate::archive::{Admission, BoxKey, EpsFactors};
use crate::cost::{CostVector, MAX_COST_DIM};
use crate::model::OutputFormat;
use crate::plan::PlanRef;

pub use crate::archive::PrunePolicy;

/// Number of members per structure-of-arrays block: metric `k` of all
/// [`LANES`] lanes is stored contiguously, so the screening inner loop is a
/// fixed-width, branch-free compare the compiler can vectorize.
pub const LANES: usize = 8;

/// Member count × cost dimension at which a set's formats get
/// structure-of-arrays block indices (see the module docs for the
/// measurement behind it). Below it, the admission screen scans the member
/// array.
pub const SOA_CROSSOVER: usize = 256;

/// Screening tallies of [`ParetoSet`] admissions: how much work the
/// two-stage screen (aggregate-key pre-filter, then component-wise
/// compares) did, and how candidates fared.
///
/// The caller owns the accumulator and passes it to every
/// [`ParetoSet::admit`] (and [`merge_from`](ParetoSet::merge_from) /
/// [`insert`](ParetoSet::insert)), which adds its tallies into it; a set
/// holds nothing but its members. The fields are plain `u64`s — no
/// atomics, no allocation — so counting is free relative to the dominance
/// arithmetic it measures. Instrumented callers flush the totals to the
/// global `moqo-obs` registry at iteration granularity; because the
/// tallies are pure observations (they never influence pruning, ordering,
/// or RNG state), they are bit-for-bit deterministic for a seeded run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScreenCounters {
    /// Candidates offered to the set (admission probes).
    pub probes: u64,
    /// Member comparisons resolved by the aggregate-key pre-filter alone:
    /// members whose cached key ruled dominance out on the member scan, and
    /// the lanes of key-skipped blocks on an indexed format.
    pub agg_key_skips: u64,
    /// Member comparisons executed component-wise: members compared on the
    /// member scan (one per probe on the one-per-format path), and the
    /// lanes of screened blocks on an indexed format.
    pub dominance_tests: u64,
    /// Candidates rejected (dominated, α-covered, box-covered, or
    /// duplicate).
    pub rejected: u64,
    /// Candidates admitted.
    pub admitted: u64,
    /// Incumbent members evicted by admitted candidates.
    pub evicted: u64,
    /// Structure-of-arrays blocks actually screened (not key-skipped) by
    /// the block kernels — 0 unless the set is past [`SOA_CROSSOVER`].
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
/// dense array (or a format's block index); the member's plan handle is
/// never dereferenced.
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

/// The factors of the exact rules: the bound component `min(1 · c, MAX)`
/// is `c` for every cost component the [`crate::model::CostModel`] contract
/// allows (finite, non-negative).
const EXACT: EpsFactors = EpsFactors::splat(1.0);

/// Whether `members` members of dimension `dim` are past the crossover.
#[inline]
fn past_crossover(members: usize, dim: usize) -> bool {
    members * dim >= SOA_CROSSOVER
}

/// The block index of one output format of a set past the crossover: its
/// ascending member indices plus a structure-of-arrays mirror of their cost
/// vectors in blocks of [`LANES`], each block carrying its aggregate-key
/// range for whole-block skips.
#[derive(Clone, Debug)]
struct BlockIndex {
    format: OutputFormat,
    /// Cost dimensionality of the members.
    dim: usize,
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
}

impl BlockIndex {
    /// Indexes the members of `format` in `meta`.
    fn build(format: OutputFormat, meta: &[Meta]) -> Self {
        let mut index = BlockIndex {
            format,
            dim: 0,
            ids: Vec::new(),
            cols: Vec::new(),
            kmin: Vec::new(),
            kmax: Vec::new(),
        };
        index.rebuild(meta);
        index
    }

    /// Re-indexes the members of this index's format from scratch, keeping
    /// the allocations.
    fn rebuild(&mut self, meta: &[Meta]) {
        self.ids.clear();
        self.cols.clear();
        self.kmin.clear();
        self.kmax.clear();
        for (i, m) in meta.iter().enumerate() {
            if m.format == self.format {
                self.push(i as u32, m);
            }
        }
    }

    /// Follows an eviction: re-reads the indices of this format's members
    /// and, only if the format lost some, its columns (a format that lost
    /// none still holds the same members in the same order — only their
    /// indices moved).
    fn refresh(&mut self, meta: &[Meta]) {
        let before = self.ids.len();
        self.ids.clear();
        self.ids
            .extend((0..meta.len() as u32).filter(|&i| meta[i as usize].format == self.format));
        if self.ids.len() != before {
            self.rebuild(meta);
        }
    }

    /// Appends a member, opening a new `+∞`-padded block when the previous
    /// one is full.
    fn push(&mut self, idx: u32, meta: &Meta) {
        let d = meta.cost.dim();
        if self.ids.is_empty() {
            self.dim = d;
        }
        debug_assert_eq!(self.dim, d, "mixed cost dimensionality in one format");
        let lane = self.ids.len() % LANES;
        let block = self.ids.len() / LANES;
        if lane == 0 {
            self.cols.resize(self.cols.len() + d * LANES, f64::INFINITY);
            self.kmin.push(f64::INFINITY);
            self.kmax.push(f64::NEG_INFINITY);
        }
        self.write(block * LANES + lane, meta);
        self.ids.push(idx);
    }

    /// Overwrites the member at set index `idx` in place (the
    /// one-per-format replacement path). Key ranges are widened, never
    /// tightened — stale-but-sound for the block skips.
    fn replace(&mut self, idx: u32, meta: &Meta) {
        let slot = self
            .ids
            .binary_search(&idx)
            .expect("replaced member is indexed under its format");
        self.write(slot, meta);
    }

    fn write(&mut self, slot: usize, meta: &Meta) {
        let (block, lane) = (slot / LANES, slot % LANES);
        let base = block * self.dim * LANES;
        for k in 0..self.dim {
            self.cols[base + k * LANES + lane] = meta.cost[k];
        }
        self.kmin[block] = self.kmin[block].min(meta.key);
        self.kmax[block] = self.kmax[block].max(meta.key);
    }

    /// Rejection kernel: whether any member's cost is component-wise `≤`
    /// `bound` (`bound_key` must be the sum of `bound`). One pass per block:
    /// blocks whose minimum key exceeds the bound's key are skipped whole
    /// (a covering member's key cannot exceed the bound's); screened blocks
    /// run a branch-free lane-wide compare.
    fn covers(&self, bound: &[f64], bound_key: f64, screen: &mut ScreenCounters) -> bool {
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
            for (k, &b) in bound[..d].iter().enumerate() {
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

/// The ε-box of every member, parallel to the member array, valid for
/// `factors`. Recomputed whole when an ε-box probe brings other factors
/// (amortized: once per schedule step per set).
#[derive(Clone, Debug)]
struct BoxCache {
    factors: EpsFactors,
    keys: Vec<BoxKey>,
}

/// Removes the members `dead` picks — it sees each member's index,
/// metadata and (when the set caches them) ε-box — from every parallel
/// array at once, keeping the survivors in order: `Vec::retain`, which the
/// linear reference uses, applied in lockstep. Returns how many went.
fn retain_members<P>(
    plans: &mut Vec<P>,
    meta: &mut Vec<Meta>,
    mut boxes: Option<&mut BoxCache>,
    mut dead: impl FnMut(usize, &Meta, Option<&BoxKey>) -> bool,
) -> usize {
    let len = meta.len();
    let mut kept = 0;
    for i in 0..len {
        // Positions past `kept` are untouched, so `i` still holds member i.
        if dead(i, &meta[i], boxes.as_deref().map(|b| &b.keys[i])) {
            continue;
        }
        if kept < i {
            plans.swap(kept, i);
            meta.swap(kept, i);
            if let Some(b) = boxes.as_deref_mut() {
                b.keys.swap(kept, i);
            }
        }
        kept += 1;
    }
    plans.truncate(kept);
    meta.truncate(kept);
    if let Some(b) = boxes {
        b.keys.truncate(kept);
    }
    len - kept
}

/// A pruned set of plans over the same table set.
///
/// Invariant: no member strictly dominates another member with the same
/// output format (every [`Admission`] preserves this — the ε-box rule
/// included, because box keys are monotone under dominance).
///
/// Members are stored in insertion order (evictions compact in place) in
/// one member array: plan handles plus inline cost metadata. Once a
/// dominance screen probes the set past [`SOA_CROSSOVER`], each format
/// additionally carries a structure-of-arrays block index, and ε-box
/// admission caches every member's box. See the
/// module docs for the full hot-path rationale.
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
    /// One block index per format once a dominance screen probed the set
    /// past the crossover; none below it (almost every set) and none on a
    /// set only the ε-box screen probes.
    index: Vec<BlockIndex>,
    /// The members' ε-boxes, parallel to `meta`, once an ε-box probe asked.
    boxes: Option<Box<BoxCache>>,
}

impl<P> Default for ParetoSet<P> {
    fn default() -> Self {
        ParetoSet {
            plans: Vec::new(),
            meta: Vec::new(),
            index: Vec::new(),
            boxes: None,
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

    /// Removes all members, keeping the member arrays' capacity.
    pub fn clear(&mut self) {
        self.plans.clear();
        self.meta.clear();
        self.index.clear();
        if let Some(b) = self.boxes.as_deref_mut() {
            b.keys.clear();
        }
    }

    fn push(&mut self, plan: P, meta: Meta) {
        let idx = self.meta.len() as u32;
        if let Some(b) = self.boxes.as_deref_mut() {
            b.keys.push(b.factors.box_key(&meta.cost));
        }
        // Grow by half rather than doubling from 4: most sets hold 2–6
        // members, and a set's unused slots cost 108 bytes each.
        if self.meta.len() == self.meta.capacity() {
            let more = (self.meta.len() / 2).max(2);
            self.meta.reserve_exact(more);
            self.plans.reserve_exact(more);
        }
        self.plans.push(plan);
        self.meta.push(meta);
        // An indexed set keeps every format's index current.
        if !self.index.is_empty() {
            match self.index.iter_mut().find(|ix| ix.format == meta.format) {
                Some(ix) => ix.push(idx, &meta),
                None => self.index_new_formats(),
            }
        }
    }

    /// Whether the set is past the crossover.
    fn past_crossover(&self) -> bool {
        self.meta
            .first()
            .is_some_and(|m| past_crossover(self.meta.len(), m.cost.dim()))
    }

    /// Gives every format of the set that has no block index one. Called by
    /// the dominance screens on their first probe past the crossover, so a
    /// set that is never screened that way (ε-box archives) never pays for
    /// an index.
    fn index_new_formats(&mut self) {
        for i in 0..self.meta.len() {
            let format = self.meta[i].format;
            if self.index.iter().all(|ix| ix.format != format) {
                self.index.push(BlockIndex::build(format, &self.meta));
            }
        }
    }

    /// Members were evicted: refreshes the block indices while the set is
    /// past the crossover (dropping those of formats that emptied) and
    /// drops them all once it is not.
    fn reindex(&mut self) {
        if !self.past_crossover() {
            self.index.clear();
            return;
        }
        let meta = &self.meta;
        self.index.retain_mut(|ix| {
            ix.refresh(meta);
            !ix.ids.is_empty()
        });
    }

    /// Makes the ε-box cache valid for `factors`.
    fn ensure_boxes(&mut self, factors: &EpsFactors) {
        let meta = &self.meta;
        match self.boxes.as_deref_mut() {
            Some(b) if b.factors == *factors => {}
            Some(b) => {
                b.factors = *factors;
                b.keys.clear();
                b.keys.extend(meta.iter().map(|m| factors.box_key(&m.cost)));
            }
            None => {
                self.boxes = Some(Box::new(BoxCache {
                    factors: *factors,
                    keys: meta.iter().map(|m| factors.box_key(&m.cost)).collect(),
                }));
            }
        }
    }

    /// The unified admission entry point: offers a candidate described by
    /// its cost and output format alone, under the given [`Admission`],
    /// adding the screen's tallies into `screen`. `make` is invoked — and
    /// the plan materialized — **only if the candidate is admitted**; the
    /// materialized plan must have exactly the given cost and format.
    /// Returns `true` iff the candidate was inserted.
    ///
    /// The rule is data, not an entry point, so every consumer (climb,
    /// frontier approximation, caches, merges, baselines, the service's
    /// cross-query cache) funnels through one screening kernel.
    pub fn admit(
        &mut self,
        cost: &CostVector,
        format: OutputFormat,
        admission: &Admission,
        screen: &mut ScreenCounters,
        make: impl FnOnce() -> P,
    ) -> bool {
        screen.probes += 1;
        let rejected = match admission {
            Admission::Climb(PrunePolicy::OnePerFormat) => {
                return self.admit_one_per_format(cost, format, screen, make)
            }
            // Weak dominance (`m ⪯ c`) folds the strict-domination and
            // exact-duplicate rejections of Algorithm 2 into one bound.
            Admission::Climb(_) => self.reject_or_evict(Some(format), cost, screen, |k, c| {
                EXACT.bound_component(k, c)
            }),
            // `m ⪯ bound_of(c)` is per-metric α-dominance, computed with
            // exactly the arithmetic of `approx_dominates` (and the bound's
            // key matches `scaled_agg_key` for uniform factors), so
            // decisions are bit-identical to the scalar-α predicate.
            Admission::Approx(eps) => {
                self.reject_or_evict(Some(format), cost, screen, |k, c| eps.bound_component(k, c))
            }
            Admission::CostFrontier => {
                self.reject_or_evict(None, cost, screen, |k, c| EXACT.bound_component(k, c))
            }
            Admission::EpsBox(eps) => self.reject_or_evict_boxed(eps, format, cost, screen),
        };
        if rejected {
            screen.rejected += 1;
            return false;
        }
        screen.admitted += 1;
        self.push(make(), Meta::of(cost, format));
        true
    }

    /// One-per-format climb pruning: a compare against the first member of
    /// the candidate's format and, if it wins, a replace in place.
    fn admit_one_per_format(
        &mut self,
        cost: &CostVector,
        format: OutputFormat,
        screen: &mut ScreenCounters,
        make: impl FnOnce() -> P,
    ) -> bool {
        let Some(idx) = self.meta.iter().position(|m| m.format == format) else {
            screen.admitted += 1;
            self.push(make(), Meta::of(cost, format));
            return true;
        };
        screen.dominance_tests += 1;
        if !cost.strictly_dominates(&self.meta[idx].cost) {
            screen.rejected += 1;
            return false;
        }
        let meta = Meta::of(cost, format);
        if let Some(b) = self.boxes.as_deref_mut() {
            b.keys[idx] = b.factors.box_key(cost);
        }
        if let Some(ix) = self.index.iter_mut().find(|ix| ix.format == format) {
            ix.replace(idx as u32, &meta);
        }
        self.meta[idx] = meta;
        self.plans[idx] = make();
        screen.admitted += 1;
        screen.evicted += 1;
        true
    }

    /// The dominance screen of the climb, approximate and cost-frontier
    /// rules over the members in scope (those of `scope`'s format, or all):
    /// rejects the candidate if a member weakly dominates its rejection
    /// bound (component `k` is `bound(k, cost[k])`), otherwise evicts the
    /// members `cost` weakly dominates (an equal-cost member would have
    /// rejected it, so under the climb rule these are strictly dominated).
    /// Returns whether the candidate was rejected.
    ///
    /// Bound components are computed where they are compared, through the
    /// factor arithmetic even for the exact rules ([`EXACT`]): the compiler
    /// then keeps them in registers across the member loop, which made the
    /// exact rules 2× faster at d = 4 than comparing against the cost slice
    /// itself.
    #[inline(always)]
    fn reject_or_evict(
        &mut self,
        scope: Option<OutputFormat>,
        cost: &CostVector,
        screen: &mut ScreenCounters,
        bound: impl Fn(usize, f64) -> f64,
    ) -> bool {
        let c = cost.as_slice();
        // `CostVector::agg_key` of the bound: the same sum in the same order.
        let bound_key: f64 = c.iter().enumerate().map(|(k, &x)| bound(k, x)).sum();
        // Members share the candidate's dimension.
        if self.index.is_empty() && past_crossover(self.meta.len(), c.len()) {
            self.index_new_formats();
        }
        if !self.index.is_empty() {
            let mut bounds = [0.0; MAX_COST_DIM];
            for (k, (slot, &x)) in bounds.iter_mut().zip(c).enumerate() {
                *slot = bound(k, x);
            }
            let bounds = &bounds[..c.len()];
            return self.reject_or_evict_indexed(scope, bounds, bound_key, cost, screen);
        }
        // Tallies stay in registers through the member loop.
        let (mut skips, mut tests) = (0, 0);
        let covered = self.meta.iter().any(|m| {
            if scope.is_some_and(|f| m.format != f) {
                return false;
            }
            if m.key > bound_key {
                skips += 1;
                return false;
            }
            tests += 1;
            let mc = m.cost.as_slice();
            mc.iter()
                .zip(c)
                .enumerate()
                .all(|(k, (a, &x))| *a <= bound(k, x))
        });
        screen.agg_key_skips += skips;
        screen.dominance_tests += tests;
        if !covered {
            self.evict_dominated(scope, cost, screen);
        }
        covered
    }

    /// The eviction half of [`Self::reject_or_evict`] on the member scan.
    #[inline(never)]
    fn evict_dominated(
        &mut self,
        scope: Option<OutputFormat>,
        cost: &CostVector,
        screen: &mut ScreenCounters,
    ) {
        let key = cost.agg_key();
        let evicted = retain_members(
            &mut self.plans,
            &mut self.meta,
            self.boxes.as_deref_mut(),
            |_, m, _| {
                if scope.is_some_and(|f| m.format != f) {
                    return false;
                }
                if m.key < key {
                    screen.agg_key_skips += 1;
                    return false;
                }
                screen.dominance_tests += 1;
                cost.dominates(&m.cost)
            },
        );
        self.after_eviction(evicted, screen);
    }

    /// [`Self::reject_or_evict`] for an indexed set: screens the block
    /// indices of the formats in scope (every format has one).
    #[inline(never)]
    fn reject_or_evict_indexed(
        &mut self,
        scope: Option<OutputFormat>,
        bound: &[f64],
        bound_key: f64,
        cost: &CostVector,
        screen: &mut ScreenCounters,
    ) -> bool {
        let in_scope = |ix: &BlockIndex| scope.is_none_or(|f| ix.format == f);
        for ix in &self.index {
            if in_scope(ix) && ix.covers(bound, bound_key, screen) {
                return true;
            }
        }
        let key = cost.agg_key();
        let mut dead = Vec::new();
        for ix in &self.index {
            if in_scope(ix) {
                ix.harvest_dominated(cost, key, &mut dead, screen);
            }
        }
        if !dead.is_empty() {
            // Each index harvests in ascending order; the format-blind rule
            // merges several.
            dead.sort_unstable();
            let evicted = retain_members(
                &mut self.plans,
                &mut self.meta,
                self.boxes.as_deref_mut(),
                |i, _, _| dead.binary_search(&(i as u32)).is_ok(),
            );
            self.after_eviction(evicted, screen);
        }
        false
    }

    /// The ε-box screen: a member whose box weakly dominates the
    /// candidate's rejects it — unless they share a box and the candidate
    /// strictly dominates the incumbent, which it then replaces. Otherwise
    /// evicts the members whose boxes the candidate's box dominates.
    fn reject_or_evict_boxed(
        &mut self,
        eps: &EpsFactors,
        format: OutputFormat,
        cost: &CostVector,
        screen: &mut ScreenCounters,
    ) -> bool {
        let cbox = eps.box_key(cost);
        self.ensure_boxes(eps);
        let boxes = self.boxes.as_deref().expect("box cache is live");
        for (m, mbox) in self.meta.iter().zip(&boxes.keys) {
            if m.format != format {
                continue;
            }
            screen.dominance_tests += 1;
            if mbox.dominates(&cbox) && (*mbox != cbox || !cost.strictly_dominates(&m.cost)) {
                if !m.cost.dominates(cost) {
                    screen.eps_rejects += 1;
                }
                return true;
            }
        }
        let evicted = retain_members(
            &mut self.plans,
            &mut self.meta,
            self.boxes.as_deref_mut(),
            |_, m, mbox| {
                let mbox = mbox.expect("box cache is live");
                m.format == format
                    && cbox.dominates(mbox)
                    && (cbox != *mbox || cost.strictly_dominates(&m.cost))
            },
        );
        self.after_eviction(evicted, screen);
        false
    }

    fn after_eviction(&mut self, evicted: usize, screen: &mut ScreenCounters) {
        if evicted > 0 {
            screen.evicted += evicted as u64;
            if !self.index.is_empty() {
                self.reindex();
            }
        }
    }

    /// Merges `other`'s members at and past index `start` into `self` under
    /// the given admission, in `other`'s storage order, adding the screen's
    /// tallies into `screen`. The candidate's cost and format come from
    /// `other`'s inline metadata; `adopt` translates the foreign handle
    /// into `self`'s handle type and runs **only for admitted members**
    /// (rejected candidates cost one screening probe and nothing else).
    /// Returns the number of members inserted.
    ///
    /// Members are stored in insertion order, so a `start` past 0 merges
    /// the plans `other` admitted most recently — what a delta exchange
    /// offers (see [`PlanCache::changed_sets`](crate::cache::PlanCache::changed_sets)).
    /// This is the frontier-merge entry point of the parallel optimizer:
    /// worker frontiers (`ParetoSet<PlanId>` over private arenas) merge
    /// into a shared global frontier, with `adopt` re-interning each
    /// surviving plan into the shared arena
    /// ([`PlanArena::adopt`](crate::arena::PlanArena::adopt)).
    pub fn merge_from<Q>(
        &mut self,
        other: &ParetoSet<Q>,
        start: usize,
        admission: &Admission,
        screen: &mut ScreenCounters,
        mut adopt: impl FnMut(&Q) -> P,
    ) -> usize {
        let mut inserted = 0;
        for (plan, meta) in other.plans[start..].iter().zip(&other.meta[start..]) {
            if self.admit(&meta.cost, meta.format, admission, screen, || adopt(plan)) {
                inserted += 1;
            }
        }
        inserted
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
    /// format, and the metadata is internally consistent — cached keys and
    /// ε-boxes match the costs, and an indexed set is past [`SOA_CROSSOVER`]
    /// and carries, for every format, a block index that mirrors its members
    /// (ascending ids, columns equal to the costs, conservative block key
    /// ranges).
    /// (`ParetoSet<PlanRef>::check_invariant` additionally cross-checks the
    /// stored plans against the metadata.)
    pub fn check_invariant_meta(&self) -> bool {
        if self.plans.len() != self.meta.len() {
            return false;
        }
        if self.meta.iter().any(|m| m.key != m.cost.agg_key()) {
            return false;
        }
        if let Some(b) = &self.boxes {
            if b.keys.len() != self.meta.len()
                || self
                    .meta
                    .iter()
                    .zip(&b.keys)
                    .any(|(m, k)| *k != b.factors.box_key(&m.cost))
            {
                return false;
            }
        }
        let mut formats: Vec<OutputFormat> = self.meta.iter().map(|m| m.format).collect();
        formats.sort_unstable();
        formats.dedup();
        let indexed_set = !self.index.is_empty();
        if indexed_set && !self.past_crossover() {
            return false;
        }
        let mut indexed = 0;
        for format in formats {
            let members: Vec<usize> = (0..self.meta.len())
                .filter(|&i| self.meta[i].format == format)
                .collect();
            let ix = self.index.iter().find(|ix| ix.format == format);
            if indexed_set != ix.is_some() {
                return false;
            }
            let Some(ix) = ix else { continue };
            indexed += 1;
            if ix
                .ids
                .iter()
                .map(|&i| i as usize)
                .ne(members.iter().copied())
            {
                return false;
            }
            for (slot, &i) in ix.ids.iter().enumerate() {
                let m = &self.meta[i as usize];
                let (block, lane) = (slot / LANES, slot % LANES);
                if m.cost.dim() != ix.dim
                    || (0..ix.dim)
                        .any(|k| ix.cols[(block * ix.dim + k) * LANES + lane] != m.cost[k])
                    || !(ix.kmin[block] <= m.key && m.key <= ix.kmax[block])
                {
                    return false;
                }
            }
        }
        if indexed != self.index.len() {
            return false;
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
    pub fn insert(
        &mut self,
        new_plan: PlanRef,
        admission: &Admission,
        screen: &mut ScreenCounters,
    ) -> bool {
        let cost = *new_plan.cost();
        let format = new_plan.format();
        self.admit(&cost, format, admission, screen, move || new_plan)
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
        let mut screen = ScreenCounters::default();
        for p in iter {
            set.insert(p, &Admission::CostFrontier, &mut screen);
        }
        set
    }
}

/// The reference implementation: a flat `Vec<PlanRef>` with
/// O(n·d) dominance scans per admission that dereference every member's
/// `Arc<Plan>`, deciding through the scalar reference predicates
/// [`Admission::rejects`] / [`Admission::evicts`].
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
        if *admission == Admission::Climb(PrunePolicy::OnePerFormat) {
            return if let Some(idx) = self.plans.iter().position(|p| p.same_output(&new_plan)) {
                if new_plan.cost().strictly_dominates(self.plans[idx].cost()) {
                    self.plans[idx] = new_plan;
                    true
                } else {
                    false
                }
            } else {
                self.plans.push(new_plan);
                true
            };
        }
        let scoped = admission.format_scoped();
        let in_scope = |p: &PlanRef| !scoped || p.same_output(&new_plan);
        if self
            .plans
            .iter()
            .any(|p| in_scope(p) && admission.rejects(p.cost(), new_plan.cost()))
        {
            return false;
        }
        self.plans
            .retain(|p| !(in_scope(p) && admission.evicts(new_plan.cost(), p.cost())));
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
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();
        // Fixture: plan 0 must dominate plan 3.
        assert!(good.same_output(&bad) && good.cost().strictly_dominates(bad.cost()));

        let mut set = ParetoSet::new();
        assert!(set.insert(good.clone(), &one_per_format(), &mut screen));
        assert!(!set.insert(bad.clone(), &one_per_format(), &mut screen));
        assert_eq!(set.len(), 1);

        // Inserting in the reverse order replaces the dominated plan.
        let mut set = ParetoSet::new();
        assert!(set.insert(bad, &one_per_format(), &mut screen));
        assert!(set.insert(good.clone(), &one_per_format(), &mut screen));
        assert_eq!(set.len(), 1);
        assert!(std::sync::Arc::ptr_eq(&set.plans()[0], &good));
        assert!(set.check_invariant());
    }

    #[test]
    fn climb_prune_keeps_one_plan_per_format() {
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        // plans[0] and plans[1] are format 0 and incomparable; plans[2] is format 1.
        let mut set = ParetoSet::new();
        assert!(set.insert(plans[0].clone(), &one_per_format(), &mut screen));
        assert!(!set.insert(plans[1].clone(), &one_per_format(), &mut screen));
        assert!(set.insert(plans[2].clone(), &one_per_format(), &mut screen));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn literal_prune_keeps_incomparable_same_format_plans() {
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        let mut set = ParetoSet::new();
        assert!(set.insert(plans[0].clone(), &keep_incomparable(), &mut screen));
        assert!(set.insert(plans[1].clone(), &keep_incomparable(), &mut screen));
        assert_eq!(set.len(), 2);
        // Exact duplicates are rejected.
        assert!(!set.insert(plans[0].clone(), &keep_incomparable(), &mut screen));
        assert!(set.check_invariant());
    }

    #[test]
    fn approx_prune_rejects_alpha_covered_plans() {
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();
        // With a huge alpha, the worse plan is "covered" and rejected.
        let mut set = ParetoSet::new();
        assert!(set.insert(good.clone(), &Admission::approx(1e9), &mut screen));
        assert!(!set.insert(bad.clone(), &Admission::approx(1e9), &mut screen));
        // With alpha = 1 it is still rejected (strictly dominated)...
        let mut set = ParetoSet::new();
        assert!(set.insert(good.clone(), &Admission::exact(), &mut screen));
        assert!(!set.insert(bad.clone(), &Admission::exact(), &mut screen));
    }

    #[test]
    fn approx_prune_keeps_distinct_tradeoffs_at_low_alpha() {
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        let mut set = ParetoSet::new();
        assert!(set.insert(plans[0].clone(), &Admission::exact(), &mut screen));
        assert!(set.insert(plans[1].clone(), &Admission::exact(), &mut screen));
        assert_eq!(set.len(), 2, "incomparable plans both kept at alpha=1");
    }

    #[test]
    fn approx_prune_insertion_removes_weakly_dominated() {
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();
        let mut set = ParetoSet::new();
        // Insert the worse plan first with alpha=1, then the better one:
        // the worse plan must be evicted.
        assert!(set.insert(bad, &Admission::exact(), &mut screen));
        assert!(set.insert(good.clone(), &Admission::exact(), &mut screen));
        assert_eq!(set.len(), 1);
        assert!(std::sync::Arc::ptr_eq(&set.plans()[0], &good));
    }

    #[test]
    fn per_metric_factors_prune_each_axis_independently() {
        let mut screen = ScreenCounters::default();
        // Factor 4 on metric 0, exact on metric 1: a plan 3x worse on
        // metric 0 only is covered; a plan 2x worse on metric 0 but
        // better on the exact metric 1 is a kept tradeoff.
        let eps = EpsFactors::per_metric(&[4.0, 1.0]);
        let adm = Admission::approx_per_metric(eps);
        let mut set = ParetoSet::new();
        assert!(set.insert(synthetic_plan(&[1.0, 1.0], 0), &adm, &mut screen));
        assert!(!set.insert(synthetic_plan(&[3.0, 1.0], 0), &adm, &mut screen));
        assert!(set.insert(synthetic_plan(&[2.0, 0.9], 0), &adm, &mut screen));
        assert_eq!(set.len(), 2);
        assert!(set.check_invariant());
    }

    #[test]
    fn cost_frontier_ignores_format() {
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        let mut set = ParetoSet::new();
        for p in &plans {
            set.insert(p.clone(), &Admission::cost_frontier(), &mut screen);
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
    fn merge_preserves_union_semantics_and_defers_adoption() {
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        // Set A holds the two incomparable format-0 plans; set B holds the
        // dominated variant plus the format-1 plan.
        let exact = Admission::exact();
        let mut a: ParetoSet = ParetoSet::new();
        assert!(a.insert(plans[0].clone(), &exact, &mut screen));
        assert!(a.insert(plans[1].clone(), &exact, &mut screen));
        let mut b: ParetoSet = ParetoSet::new();
        assert!(b.insert(plans[3].clone(), &exact, &mut screen));
        assert!(b.insert(plans[2].clone(), &exact, &mut screen));
        let mut adoptions = 0;
        let inserted = a.merge_from(&b, 0, &exact, &mut screen, |p| {
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
        assert_eq!(a.merge_from(&b, 0, &exact, &mut screen, |p| p.clone()), 0);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn merge_order_matches_sequential_insertion() {
        let mut screen = ScreenCounters::default();
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
                s.insert(synthetic_plan(cost, *format), &exact, &mut screen);
            }
            sets.push(s);
        }
        let mut merged = ParetoSet::new();
        let mut sequential = ParetoSet::new();
        for s in &sets {
            merged.merge_from(s, 0, &exact, &mut screen, |p| p.clone());
            for p in s.iter() {
                sequential.insert(p.clone(), &exact, &mut screen);
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
        let mut screen = ScreenCounters::default();
        let exact = Admission::exact();
        let mut source = ParetoSet::new();
        for (cost, format) in [(&[4.0, 4.0], 0u8), (&[2.0, 6.0], 0), (&[6.0, 2.0], 0)] {
            source.insert(synthetic_plan(cost, format), &exact, &mut screen);
        }
        let mut target: ParetoSet = ParetoSet::new();
        let mut offered = 0;
        let inserted = target.merge_from(&source, 1, &exact, &mut screen, |p| {
            offered += 1;
            p.clone()
        });
        assert_eq!((inserted, offered, target.len()), (2, 2, 2));
        assert!(target.costs().all(|c| c.as_slice() != [4.0, 4.0]));
        assert_eq!(
            target.merge_from(&source, 3, &exact, &mut screen, |p| p.clone()),
            0
        );
    }

    #[test]
    fn helpers_cover_empty_and_clear() {
        let mut screen = ScreenCounters::default();
        let mut set = ParetoSet::new();
        assert!(set.is_empty());
        let (_, plans) = sample_plans();
        set.insert(plans[0].clone(), &Admission::cost_frontier(), &mut screen);
        assert!(!set.is_empty());
        set.clear();
        assert!(set.is_empty());
        assert!(set.check_invariant());
        assert_eq!(set.into_plans().len(), 0);
    }

    #[test]
    fn deferred_materialization_skips_rejected_candidates() {
        let mut screen = ScreenCounters::default();
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();
        let mut set = ParetoSet::new();
        assert!(set.insert(good, &one_per_format(), &mut screen));
        // The rejected candidate's closure must never run.
        let bad_cost = *bad.cost();
        let bad_format = bad.format();
        let mut made = false;
        let make = || {
            made = true;
            bad
        };
        assert!(!set.admit(&bad_cost, bad_format, &one_per_format(), &mut screen, make));
        assert!(!made, "rejected candidate was materialized");

        let mut set = ParetoSet::new();
        assert!(set.insert(plans[0].clone(), &Admission::approx(1e9), &mut screen));
        let mut made = false;
        let make = || {
            made = true;
            plans[3].clone()
        };
        assert!(!set.admit(
            &bad_cost,
            bad_format,
            &Admission::approx(1e9),
            &mut screen,
            make
        ));
        assert!(!made, "rejected approx candidate was materialized");
    }

    #[test]
    fn screen_counters_tally_probes_rejections_and_evictions() {
        let (_, plans) = sample_plans();
        let good = plans[0].clone();
        let bad = plans[3].clone();

        // OnePerFormat: admit, then reject a dominated candidate.
        let mut set = ParetoSet::new();
        let mut c = ScreenCounters::default();
        assert!(set.insert(good.clone(), &one_per_format(), &mut c));
        assert!(!set.insert(bad.clone(), &one_per_format(), &mut c));
        assert_eq!(c.probes, 2);
        assert_eq!(c.admitted, 1);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.dominance_tests, 1);

        // Eviction: dominated incumbent replaced under the literal policy.
        // Below the crossover the screen scans members: the rejection pass
        // key-skips the (more expensive) incumbent, the eviction pass
        // compares it.
        let mut set = ParetoSet::new();
        let mut c = ScreenCounters::default();
        assert!(set.insert(bad, &keep_incomparable(), &mut c));
        assert!(set.insert(good, &keep_incomparable(), &mut c));
        assert_eq!(c.probes, 2);
        assert_eq!(c.admitted, 2);
        assert_eq!(c.evicted, 1);
        assert_eq!((c.agg_key_skips, c.dominance_tests), (1, 1));
        assert_eq!(c.blocks_screened, 0);

        // absorb sums, and the next admission adds into the same
        // caller-owned accumulator.
        let mut total = ScreenCounters::default();
        total.absorb(&c);
        assert_eq!(total.probes, 2);
        total.absorb(&c);
        assert_eq!(total.probes, 4);
        assert!(!set.insert(plans[3].clone(), &keep_incomparable(), &mut c));
        assert_eq!((c.probes, c.rejected), (3, 1));

        // The key pre-filter skips members whose keys already rule
        // dominance out: a cheap member cannot be dominated by an expensive
        // candidate, so the second probe's eviction pass skips the
        // incumbent after its rejection pass compared it.
        let mut set = ParetoSet::new();
        let (exact, mut c) = (Admission::exact(), ScreenCounters::default());
        assert!(set.insert(synthetic_plan(&[1.0, 1.0, 1.0], 0), &exact, &mut c));
        assert!(set.insert(synthetic_plan(&[0.5, 4.0, 1.0], 0), &exact, &mut c));
        assert_eq!((c.agg_key_skips, c.dominance_tests), (1, 1), "{c:?}");
    }

    #[test]
    fn a_format_past_the_crossover_is_screened_in_blocks_until_it_falls_back() {
        // d = 8: a format-1 member and `n` pairwise incomparable members of
        // format 0 take the set past the crossover; the format-1 member in
        // front keeps set and format indices apart.
        let n = SOA_CROSSOVER.div_ceil(8) - 1;
        let point = |a: f64, b: f64| CostVector::new(&[a, b, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let exact = Admission::exact();
        let mut set: ParetoSet<u32> = ParetoSet::new();
        let mut screen = ScreenCounters::default();
        assert!(set.admit(&point(1.0, 1.0), OutputFormat(1), &exact, &mut screen, || 0));
        for i in 0..n {
            let (a, b) = (i as f64 + 1.0, (n - i) as f64);
            let id = i as u32 + 1;
            assert!(set.admit(&point(a, b), OutputFormat(0), &exact, &mut screen, || id));
            assert!(set.check_invariant_meta(), "member {i}");
        }
        assert!(set.index.is_empty(), "indexed before a probe needs it");
        assert_eq!(std::mem::take(&mut screen).blocks_screened, 0);
        // The next probe indexes both formats and screens the dominated
        // candidate with the block kernel.
        assert!(!set.admit(
            &point(2.0, n as f64),
            OutputFormat(0),
            &exact,
            &mut screen,
            || 0
        ));
        assert_eq!(set.index.len(), 2, "both formats are indexed");
        assert!(std::mem::take(&mut screen).blocks_screened > 0);
        // A candidate dominating the first half evicts it: the set falls
        // below the crossover, the indices go, survivors keep their order.
        let half = (n / 2) as f64;
        assert!(set.admit(
            &point(1.0, half),
            OutputFormat(0),
            &exact,
            &mut screen,
            || 99
        ));
        assert!(set.check_invariant_meta());
        assert!(set.index.is_empty());
        let expected: Vec<u32> = std::iter::once(0)
            .chain(
                (0..n)
                    .filter(|&i| ((n - i) as f64) < half)
                    .map(|i| i as u32 + 1),
            )
            .chain([99])
            .collect();
        assert_eq!(set.plans(), &expected[..]);
        let mut screen = ScreenCounters::default();
        assert!(!set.admit(
            &point(2.0, n as f64),
            OutputFormat(0),
            &exact,
            &mut screen,
            || 0
        ));
        assert_eq!(screen.blocks_screened, 0);
    }

    #[test]
    fn cost_frontiers_screen_every_format_in_blocks_and_eps_boxes_never_index() {
        // d = 8, two formats alternating along an anti-diagonal: pairwise
        // incomparable, so every candidate is admitted until the set passes
        // the crossover.
        let n = SOA_CROSSOVER.div_ceil(8);
        let point = |a: f64, b: f64| CostVector::new(&[a, b, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let fill = |admission: &Admission| {
            let mut set: ParetoSet<u32> = ParetoSet::new();
            let mut screen = ScreenCounters::default();
            for i in 0..n {
                let (a, b) = (i as f64 + 1.0, (n - i) as f64);
                let format = OutputFormat((i % 2) as u8);
                assert!(set.admit(&point(a, b), format, admission, &mut screen, || i as u32));
            }
            set
        };
        let frontier = Admission::cost_frontier();
        let mut set = fill(&frontier);
        let mut screen = ScreenCounters::default();
        // Format-blind: a format-1 candidate only the first (format-0)
        // member dominates is rejected, in blocks.
        let first_only = point(1.0, n as f64 + 1.0);
        assert!(!set.admit(&first_only, OutputFormat(1), &frontier, &mut screen, || 0));
        assert_eq!(set.index.len(), 2);
        assert!(screen.blocks_screened > 0);
        // A candidate dominating members of both formats evicts them all,
        // keeping the survivors' order.
        let cut = (n / 2) as f64;
        assert!(set.admit(
            &point(1.0, cut),
            OutputFormat(0),
            &frontier,
            &mut screen,
            || 99
        ));
        assert!(set.check_invariant_meta());
        let expected: Vec<u32> = (0..n as u32)
            .filter(|&i| ((n as u32 - i) as f64) < cut)
            .chain([99])
            .collect();
        assert_eq!(set.plans(), &expected[..]);

        let boxed = Admission::eps_box(EpsFactors::exact());
        let mut set = fill(&boxed);
        assert!(!set.admit(
            &point(3.0, n as f64),
            OutputFormat(0),
            &boxed,
            &mut screen,
            || 0
        ));
        assert!(
            set.index.is_empty(),
            "the ε-box screen never reads an index"
        );
        assert!(set.check_invariant_meta());
    }

    #[test]
    fn eps_box_keeps_one_occupant_per_box_and_counts_eps_rejects() {
        let mut screen = ScreenCounters::default();
        let adm = Admission::eps_box(EpsFactors::uniform(2.0));
        let mut set = ParetoSet::new();
        // (2, 3) and (3, 2.5) are incomparable but share the factor-2 box
        // [2, 4)^2: the newcomer is rejected, and only by precision —
        // exact dominance would have kept it.
        assert!(set.insert(synthetic_plan(&[2.0, 3.0], 0), &adm, &mut screen));
        assert!(!set.insert(synthetic_plan(&[3.0, 2.5], 0), &adm, &mut screen));
        assert_eq!(screen.eps_rejects, 1);
        // A same-box strictly dominating candidate replaces the incumbent.
        assert!(set.insert(synthetic_plan(&[2.0, 2.5], 0), &adm, &mut screen));
        assert_eq!(set.len(), 1);
        // A different non-dominated box is admitted.
        assert!(set.insert(synthetic_plan(&[8.0, 1.0], 0), &adm, &mut screen));
        assert_eq!(set.len(), 2);
        // A candidate box-dominating every member evicts them all.
        assert!(set.insert(synthetic_plan(&[0.5, 0.5], 0), &adm, &mut screen));
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
        let (mut eps_screen, mut screen) = (ScreenCounters::default(), ScreenCounters::default());
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
            eps_set.insert(synthetic_plan(&cost, 0), &boxed, &mut eps_screen);
            exact_set.insert(synthetic_plan(&cost, 0), &exact, &mut screen);
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
        assert!(eps_screen.eps_rejects > 0);
    }

    #[test]
    fn eps_box_survives_schedule_driven_factor_changes() {
        let mut screen = ScreenCounters::default();
        // When the schedule decays between probes, cached boxes are
        // recomputed for the new factors and the invariant holds.
        let cfg = ArchiveConfig {
            policy: crate::archive::ArchivePolicy::EpsBox,
            eps: crate::archive::EpsSchedule::Geometric {
                start: EpsFactors::splat(4.0),
                decay: 0.5,
                period: 4,
            },
        };
        let mut set = ParetoSet::new();
        for i in 0..32u64 {
            let adm = cfg.admission(i);
            let c = [1.0 + (i % 7) as f64, 8.0 - (i % 7) as f64];
            set.insert(synthetic_plan(&c, (i % 2) as u8), &adm, &mut screen);
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
        let mut screen = ScreenCounters::default();
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
                    bucketed.insert(p.clone(), &adm, &mut screen),
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
        //! invariant, (b) the member-array set — scanned below the
        //! crossover, block-indexed past it — makes exactly the decisions,
        //! and stores exactly the survivors, in the same order, as the
        //! linear-scan reference deciding through the scalar
        //! [`Admission`] predicates, on small random streams and on
        //! streams that carry two interleaved formats across the crossover
        //! and back at d ∈ {2, 3, 8}, and (c) the degenerate ε-archive (all
        //! factors 1) makes exactly the decisions of exact approximate
        //! pruning at d ∈ {2, 4, 8}.

        use super::*;
        use proptest::prelude::*;
        use proptest::TestRng;
        use rand::Rng;

        /// Candidate streams: small integer-ish costs maximize dominance /
        /// equality collisions, few formats maximize format contention.
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

        /// Streams that push two interleaved formats past the crossover and
        /// back: points on the anti-diagonal `c0 + c1 = span` (pairwise
        /// incomparable unless equal there; the other metrics are 1 or 2)
        /// grow both frontiers to about `SOA_CROSSOVER / d` members each, a
        /// burst of cheap points evicts most of them, and more diagonal
        /// points regrow them. Integer costs keep ties and duplicates.
        struct CrossingStream {
            dim: usize,
        }

        impl Strategy for CrossingStream {
            type Value = Vec<(Vec<f64>, u8)>;

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let per_format = SOA_CROSSOVER.div_ceil(self.dim);
                let span = 4 * per_format as u32;
                let point = |rng: &mut TestRng, c0: u32, c1: u32, rest: u32| {
                    let mut cost = vec![f64::from(c0), f64::from(c1)];
                    cost.extend((2..self.dim).map(|_| f64::from(rng.random_range(1..=rest))));
                    (cost, rng.random_range(0..2u8))
                };
                let diagonal = |rng: &mut TestRng| {
                    let a = rng.random_range(0..=span);
                    point(rng, a, span - a, 2)
                };
                let grow = rng.random_range(3 * per_format..4 * per_format);
                let crash = rng.random_range(2..6);
                let regrow = rng.random_range(0..per_format);
                let mut stream: Vec<_> = (0..grow).map(|_| diagonal(rng)).collect();
                for _ in 0..crash {
                    let (c0, c1) = (rng.random_range(0..span / 4), rng.random_range(0..span / 4));
                    stream.push(point(rng, c0, c1, 1));
                }
                stream.extend((0..regrow).map(|_| diagonal(rng)));
                stream
            }
        }

        fn survivors(plans: &[PlanRef]) -> Vec<(Vec<f64>, u8)> {
            plans
                .iter()
                .map(|p| (p.cost().as_slice().to_vec(), p.format().0))
                .collect()
        }

        /// Runs a stream through the set and the linear oracle, the `i`-th
        /// candidate under `adm(i)`, asserting identical decisions and
        /// survivors, and the set's invariant every 32 candidates.
        fn assert_matches_linear_with(
            stream: &[(Vec<f64>, u8)],
            adm: impl Fn(usize) -> Admission,
        ) -> Result<(), TestCaseError> {
            let mut screen = ScreenCounters::default();
            let mut set = ParetoSet::new();
            let mut linear = LinearParetoSet::new();
            for (i, (cost, format)) in stream.iter().enumerate() {
                let adm = adm(i);
                let p = synthetic_plan(cost, *format);
                let kept = set.insert(p.clone(), &adm, &mut screen);
                let kept_l = linear.admit(p, &adm);
                prop_assert_eq!(kept, kept_l, "decision {} diverged under {:?}", i, adm);
                if i % 32 == 31 {
                    prop_assert!(set.check_invariant(), "invariant broken at {}", i);
                }
            }
            prop_assert!(set.check_invariant());
            prop_assert_eq!(
                survivors(set.plans()),
                survivors(linear.plans()),
                "survivors diverged under {:?}",
                adm(stream.len())
            );
            Ok(())
        }

        /// [`assert_matches_linear_with`] under one admission throughout.
        fn assert_matches_linear(
            stream: &[(Vec<f64>, u8)],
            adm: &Admission,
        ) -> Result<(), TestCaseError> {
            assert_matches_linear_with(stream, |_| *adm)
        }

        /// Every rule.
        fn every_rule(dim: usize) -> [Admission; 8] {
            let factors: Vec<f64> = (0..dim).map(|k| 1.0 + (k % 2) as f64).collect();
            [
                Admission::climb(PrunePolicy::OnePerFormat),
                Admission::climb(PrunePolicy::KeepIncomparable),
                Admission::exact(),
                Admission::approx(1.5),
                Admission::approx_per_metric(EpsFactors::per_metric(&factors)),
                Admission::eps_box(EpsFactors::exact()),
                Admission::eps_box(EpsFactors::uniform(1.5)),
                Admission::cost_frontier(),
            ]
        }

        /// Every rule of [`every_rule`] over a crossing stream.
        fn assert_crossing_matches_linear(
            dim: usize,
            stream: &[(Vec<f64>, u8)],
        ) -> Result<(), TestCaseError> {
            for adm in every_rule(dim) {
                assert_matches_linear(stream, &adm)?;
            }
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
            let (mut eps_screen, mut screen) =
                (ScreenCounters::default(), ScreenCounters::default());
            for (cost, format) in stream {
                let p = synthetic_plan(cost, *format);
                prop_assert_eq!(
                    eps_set.insert(p.clone(), &boxed, &mut eps_screen),
                    exact_set.insert(p, &exact, &mut screen),
                    "ε=0 archive decision diverged from exact pruning"
                );
            }
            prop_assert!(eps_set.check_invariant());
            prop_assert_eq!(survivors(eps_set.plans()), survivors(exact_set.plans()));
            prop_assert_eq!(
                eps_screen.eps_rejects,
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Every rule over streams that carry two formats past the
            /// crossover and back, at d = 2.
            #[test]
            fn every_rule_matches_linear_across_the_crossover_d2(stream in CrossingStream { dim: 2 }) {
                assert_crossing_matches_linear(2, &stream)?;
            }

            /// The same at d = 3.
            #[test]
            fn every_rule_matches_linear_across_the_crossover_d3(stream in CrossingStream { dim: 3 }) {
                assert_crossing_matches_linear(3, &stream)?;
            }

            /// The same at d = 8.
            #[test]
            fn every_rule_matches_linear_across_the_crossover_d8(stream in CrossingStream { dim: 8 }) {
                assert_crossing_matches_linear(8, &stream)?;
            }

            /// ε-box admission whose factors change mid-stream (coarse,
            /// finer, exact, coarse again): the cached boxes follow.
            #[test]
            fn eps_box_with_changing_factors_matches_linear(
                stream in CrossingStream { dim: 3 },
                cuts in proptest::collection::vec(0usize..400, 3),
            ) {
                let schedule = [2.0, 1.25, 1.0, 3.0];
                assert_matches_linear_with(&stream, |i| {
                    let phase = cuts.iter().filter(|&&cut| cut <= i).count();
                    Admission::eps_box(EpsFactors::uniform(schedule[phase]))
                })?;
            }
        }
    }
}
