//! The metrics registry: lock-free counters, per-thread sharded counters,
//! and fixed-bucket histograms, all `const`-constructible so the global
//! registry lives in a `static` with zero initialization cost.
//!
//! Naming follows the conventional dotted scheme (`climb.rejected`,
//! `exchange.merged`, …); [`Metrics::counters`] and
//! [`Metrics::histograms`] enumerate every registered metric with its
//! name, which is what [`crate::snapshot::ObsSnapshot`] exports.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A monotone counter: one relaxed atomic add per bump.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` initializers).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of shards in a [`ShardedCounter`]. Threads are assigned shards
/// round-robin, so up to this many writers bump disjoint cache lines.
const SHARDS: usize = 8;

/// One cache line per shard: `#[repr(align(64))]` keeps concurrent
/// writers from false-sharing each other's counters.
#[repr(align(64))]
#[derive(Debug)]
struct Shard(AtomicU64);

/// A counter sharded across cache-line-padded slots, one per writer
/// thread (round-robin beyond `SHARDS` threads). Bumping costs one
/// relaxed `fetch_add` on a line no other thread is writing — the right
/// shape for counters bumped from every optimizer worker at iteration
/// frequency. Reads sum the shards.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: [Shard; SHARDS],
}

thread_local! {
    /// This thread's shard index; `usize::MAX` means "not yet assigned".
    static SHARD_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin assignment source for thread shard indices.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn shard_index() -> usize {
    SHARD_INDEX.with(|cell| {
        let idx = cell.get();
        if idx != usize::MAX {
            idx
        } else {
            let idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            cell.set(idx);
            idx
        }
    })
}

impl ShardedCounter {
    /// A zeroed sharded counter (usable in `static` initializers).
    pub const fn new() -> Self {
        ShardedCounter {
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Adds `n` to this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to this thread's shard.
    #[inline]
    pub fn incr(&self) {
        self.shards[shard_index()].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Sums all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for ShardedCounter {
    fn default() -> Self {
        ShardedCounter::new()
    }
}

/// A last-value gauge: `set` overwrites, `get` reads. Used for
/// point-in-time quantities (current archive size) that counters cannot
/// express; exported through [`Metrics::counters`] like any other value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (usable in `static` initializers).
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the current value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: power-of-two boundaries cover the full
/// `u64` range with `value → 64 - leading_zeros(value)` indexing, clamped
/// into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 44;

/// A fixed-bucket histogram with power-of-two bucket boundaries: bucket
/// `i` holds values in `[2^(i-1), 2^i)` (bucket 0 holds zero). Recording
/// costs four relaxed atomic ops and never allocates; quantiles linearly
/// interpolate inside the containing bucket (assuming its mass is evenly
/// spread), which keeps microsecond-scale percentiles honest even though
/// bucket widths double.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Approximate median (sub-bucket linear interpolation; 0 when empty).
    pub p50: u64,
    /// Approximate 90th percentile (interpolated).
    pub p90: u64,
    /// Approximate 99th percentile (interpolated).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[inline]
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` (inclusive).
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// An empty histogram (usable in `static` initializers).
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Summarizes the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if seen + n >= target {
                    // Linear interpolation inside the containing bucket,
                    // assuming its `n` values spread evenly over the
                    // bucket range. The observed max tightens the last
                    // occupied bucket's upper bound.
                    let lower = if i == 0 { 0 } else { bucket_upper(i - 1) + 1 };
                    let upper = bucket_upper(i).min(max);
                    let lower = lower.min(upper);
                    let need = target - seen; // in 1..=n
                    let width = (upper - lower) as f64;
                    return lower + (width * need as f64 / n as f64).round() as u64;
                }
                seen += n;
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The global metrics registry: every counter and histogram the
/// instrumented crates bump, each with a stable dotted name.
///
/// `climb.*` counters are flushed once per RMQ iteration from plain
/// per-iteration tallies (see `moqo-core`'s screening counters), so their
/// values are deterministic for a seeded run — the bench harness pins them
/// in its `obs` section to hard-pin hot-path behavior.
#[derive(Debug)]
pub struct Metrics {
    /// RMQ iterations completed (aborted iterations are not counted).
    pub rmq_iterations: ShardedCounter,
    /// Candidates probed by the climb loop: each is costed and offered to
    /// a step frontier once (sub-trees answered from the per-climb memo are
    /// not re-counted).
    pub climb_candidates: ShardedCounter,
    /// Member comparisons of the climb's step frontiers that the
    /// aggregate-key pre-filter resolved without a component compare: on
    /// the member scan (below the block-index crossover), members whose
    /// cached key alone ruled dominance out; on a block-indexed format, the
    /// lanes of key-skipped blocks. Always 0 under the default
    /// one-per-format climb, which compares one member per candidate.
    pub climb_agg_key_skips: ShardedCounter,
    /// Component-wise dominance compares of the climb's step frontiers: on
    /// the member scan, one per member compared (one per candidate whose
    /// format is present under the default one-per-format climb); on a
    /// block-indexed format, the lanes of screened blocks.
    pub climb_dominance_tests: ShardedCounter,
    /// Candidates rejected as dominated (or duplicate) by a frontier.
    pub climb_rejected: ShardedCounter,
    /// Candidates admitted into a frontier.
    pub climb_admitted: ShardedCounter,
    /// Incumbent members evicted by an admitted candidate.
    pub climb_evicted: ShardedCounter,
    /// Structure-of-arrays blocks screened by the Pareto block kernels
    /// (blocks the aggregate-key range filter could not skip). 0 unless
    /// some frontier is past the block-index crossover
    /// (`moqo_core::pareto::SOA_CROSSOVER` members × dimension): below it,
    /// admission scans members and screens no blocks.
    pub pareto_blocks_screened: ShardedCounter,
    /// Candidates rejected by the ε-box archive rule that exact dominance
    /// would have admitted (precision-driven rejections).
    pub pareto_eps_rejects: ShardedCounter,
    /// Current query-frontier (archive) size of the most recently flushed
    /// optimizer iteration.
    pub pareto_archive_size: Gauge,
    /// Plan-arena intern requests that allocated a new node.
    pub arena_interns: ShardedCounter,
    /// Plan-arena intern requests answered by an existing node.
    pub arena_dedup_hits: ShardedCounter,
    /// Warm-start plans an optimizer parked: accepted for a table set it had
    /// not touched yet, at the cost of one `Arc` clone (`Rmq::warm_start`).
    /// Flushed per iteration, so a session that never iterates adds nothing.
    pub warm_parked: ShardedCounter,
    /// Parked plans offered to the plan cache because a climbed plan
    /// contained their table set. `warm.imported / warm.parked` is how much
    /// of the warm start this traffic ever used.
    pub warm_imported: ShardedCounter,
    /// Shared-frontier publish calls.
    pub exchange_publishes: Counter,
    /// Plans offered to the shared frontier across all publishes.
    pub exchange_offered: Counter,
    /// Offered plans that were admitted (merged) into the global frontier.
    pub exchange_merged: Counter,
    /// Snapshot epoch bumps (one per publish that admitted anything).
    pub exchange_epochs: Counter,
    /// Plans workers accepted out of the shared frontier's delta log —
    /// admitted into a live cache frontier at once, or parked until the
    /// worker touches their table set (`Rmq::warm_start`): full-query and
    /// sub-query survivors that *another* worker published since the
    /// absorber last looked (a worker never reads its own entries back).
    pub exchange_absorbed: Counter,
    /// Sub-query (partial-plan) frontier members offered to the shared
    /// frontier's table-set-keyed partial exchange. A worker offers a
    /// member once — at the first publish after its cache admitted it — so
    /// this tracks admissions, not cache size × publishes.
    pub exchange_partial_offered: Counter,
    /// Offered partial plans admitted into a shared sub-query frontier.
    pub exchange_partial_merged: Counter,
    /// Current exchange backoff level of the most recent adaptive-exchange
    /// decision (`0` = base period; level `k` = period `base << k`).
    pub exchange_backoff_level: Gauge,
    /// Climb batches executed by the work-stealing executor (every task
    /// invocation runs at most one batch).
    pub exec_pool_batches: ShardedCounter,
    /// Tasks an idle pool worker stole from another worker's deque.
    pub exec_pool_steals: Counter,
    /// Batches a waiting helper donated to a *foreign* task group while
    /// its own group drained (idle-wait work conservation).
    pub exec_pool_donations: Counter,
    /// Sessions admitted by the service.
    pub service_submitted: Counter,
    /// Submissions rejected: live-session bound reached.
    pub service_rejected_queue_full: Counter,
    /// Submissions rejected: worker-slot bound would be exceeded.
    pub service_rejected_no_slots: Counter,
    /// Submissions rejected: service shutting down.
    pub service_rejected_shutdown: Counter,
    /// Sessions that finished (any done reason).
    pub service_completed: Counter,
    /// Finished sessions that were cancelled or aborted by shutdown.
    pub service_cancelled: Counter,
    /// Cross-query cache lookups that returned warm-start plans.
    pub cache_hits: Counter,
    /// Cross-query cache lookups that returned nothing.
    pub cache_misses: Counter,
    /// Span records pushed into the tracing ring (spans and instants).
    pub spans_recorded: Counter,
    /// Span records evicted because the tracing ring was full.
    pub spans_dropped: Counter,
    /// Journal events overwritten because the journal ring was full (or
    /// trimmed by a smaller capacity) before anyone drained them.
    pub journal_dropped: Counter,
    /// Observed p99 time-to-first-frontier of the SLO monitor's sliding
    /// window, microseconds (0 until the monitor has samples).
    pub slo_ttff_p99_us: Gauge,
    /// Observed p99 queue delay of the SLO monitor's sliding window,
    /// microseconds.
    pub slo_queue_p99_us: Gauge,
    /// Observed shed (rejection) rate of the SLO monitor, per mille of
    /// submissions.
    pub slo_shed_per_mille: Gauge,
    /// Bitmask of currently breached SLO targets (bit 0 = TTFF, bit 1 =
    /// queue delay, bit 2 = shed rate); 0 when all targets hold.
    pub slo_breached: Gauge,
    /// Transitions of any SLO target from holding to breached.
    pub slo_breaches: Counter,
    /// Requests offered to the front door (admitted, coalesced, or shed).
    pub frontdoor_offered: Counter,
    /// Requests the front door coalesced onto an in-flight identical
    /// optimization (same tenant, context fingerprint, and table set).
    pub frontdoor_coalesced: Counter,
    /// Sessions admitted at a degraded tier (coarser ε-box precision
    /// and/or a reduced budget) instead of being shed.
    pub frontdoor_degraded: Counter,
    /// Requests the front door shed outright (quota exhaustion or a
    /// saturated shard), after the degradation ladder ran out.
    pub frontdoor_shed: Counter,
    /// Shed requests attributable to per-tenant quota exhaustion.
    pub frontdoor_quota_rejected: Counter,
    /// Highest degradation level currently active on any shard (0 full,
    /// 1 coarse ε, 2 reduced budget).
    pub frontdoor_degrade_level: Gauge,
    /// Executed physical plans.
    pub exec_runs: Counter,
    /// Tuples processed by execution engine operators.
    pub exec_tuples: Counter,
    /// Rows spilled by blocking operators under their memory grant.
    pub exec_spilled_rows: Counter,
    /// Inner-side rescans performed by nested-loop-style operators.
    pub exec_inner_rescans: Counter,
    /// Nanoseconds spent waiting for the shared-frontier merge mutex
    /// (sampled: every 8th publish).
    pub exchange_mutex_wait_ns: Histogram,
    /// Queue delay in microseconds: submission to first optimizer step.
    pub service_queue_delay_us: Histogram,
    /// Scheduling-slice duration in microseconds (per-session step timing
    /// at slice granularity — the sampled clock that avoids a per-step
    /// `Instant::now`).
    pub service_slice_us: Histogram,
    /// Plans accepted from the cross-query cache per session at submit:
    /// admitted at once plus parked (`Rmq::warm_start`); 0 on a cache miss.
    pub service_warm_start_depth: Histogram,
    /// Peak buffered rows per executed plan.
    pub exec_peak_buffer_rows: Histogram,
}

impl Metrics {
    const fn new() -> Self {
        Metrics {
            rmq_iterations: ShardedCounter::new(),
            climb_candidates: ShardedCounter::new(),
            climb_agg_key_skips: ShardedCounter::new(),
            climb_dominance_tests: ShardedCounter::new(),
            climb_rejected: ShardedCounter::new(),
            climb_admitted: ShardedCounter::new(),
            climb_evicted: ShardedCounter::new(),
            pareto_blocks_screened: ShardedCounter::new(),
            pareto_eps_rejects: ShardedCounter::new(),
            pareto_archive_size: Gauge::new(),
            arena_interns: ShardedCounter::new(),
            arena_dedup_hits: ShardedCounter::new(),
            warm_parked: ShardedCounter::new(),
            warm_imported: ShardedCounter::new(),
            exchange_publishes: Counter::new(),
            exchange_offered: Counter::new(),
            exchange_merged: Counter::new(),
            exchange_epochs: Counter::new(),
            exchange_absorbed: Counter::new(),
            exchange_partial_offered: Counter::new(),
            exchange_partial_merged: Counter::new(),
            exchange_backoff_level: Gauge::new(),
            exec_pool_batches: ShardedCounter::new(),
            exec_pool_steals: Counter::new(),
            exec_pool_donations: Counter::new(),
            service_submitted: Counter::new(),
            service_rejected_queue_full: Counter::new(),
            service_rejected_no_slots: Counter::new(),
            service_rejected_shutdown: Counter::new(),
            service_completed: Counter::new(),
            service_cancelled: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            spans_recorded: Counter::new(),
            spans_dropped: Counter::new(),
            journal_dropped: Counter::new(),
            slo_ttff_p99_us: Gauge::new(),
            slo_queue_p99_us: Gauge::new(),
            slo_shed_per_mille: Gauge::new(),
            slo_breached: Gauge::new(),
            slo_breaches: Counter::new(),
            frontdoor_offered: Counter::new(),
            frontdoor_coalesced: Counter::new(),
            frontdoor_degraded: Counter::new(),
            frontdoor_shed: Counter::new(),
            frontdoor_quota_rejected: Counter::new(),
            frontdoor_degrade_level: Gauge::new(),
            exec_runs: Counter::new(),
            exec_tuples: Counter::new(),
            exec_spilled_rows: Counter::new(),
            exec_inner_rescans: Counter::new(),
            exchange_mutex_wait_ns: Histogram::new(),
            service_queue_delay_us: Histogram::new(),
            service_slice_us: Histogram::new(),
            service_warm_start_depth: Histogram::new(),
            exec_peak_buffer_rows: Histogram::new(),
        }
    }

    /// Every counter with its dotted name, in registration order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("rmq.iterations", self.rmq_iterations.get()),
            ("climb.candidates", self.climb_candidates.get()),
            ("climb.agg_key_skips", self.climb_agg_key_skips.get()),
            ("climb.dominance_tests", self.climb_dominance_tests.get()),
            ("climb.rejected", self.climb_rejected.get()),
            ("climb.admitted", self.climb_admitted.get()),
            ("climb.evicted", self.climb_evicted.get()),
            ("pareto.blocks_screened", self.pareto_blocks_screened.get()),
            ("pareto.eps_rejects", self.pareto_eps_rejects.get()),
            ("pareto.archive_size", self.pareto_archive_size.get()),
            ("arena.interns", self.arena_interns.get()),
            ("arena.dedup_hits", self.arena_dedup_hits.get()),
            ("warm.parked", self.warm_parked.get()),
            ("warm.imported", self.warm_imported.get()),
            ("exchange.publishes", self.exchange_publishes.get()),
            ("exchange.offered", self.exchange_offered.get()),
            ("exchange.merged", self.exchange_merged.get()),
            ("exchange.epochs", self.exchange_epochs.get()),
            ("exchange.absorbed", self.exchange_absorbed.get()),
            (
                "exchange.partial_offered",
                self.exchange_partial_offered.get(),
            ),
            (
                "exchange.partial_merged",
                self.exchange_partial_merged.get(),
            ),
            ("exchange.backoff_level", self.exchange_backoff_level.get()),
            ("exec_pool.batches", self.exec_pool_batches.get()),
            ("exec_pool.steals", self.exec_pool_steals.get()),
            ("exec_pool.donations", self.exec_pool_donations.get()),
            ("service.submitted", self.service_submitted.get()),
            (
                "service.rejected_queue_full",
                self.service_rejected_queue_full.get(),
            ),
            (
                "service.rejected_no_slots",
                self.service_rejected_no_slots.get(),
            ),
            (
                "service.rejected_shutdown",
                self.service_rejected_shutdown.get(),
            ),
            ("service.completed", self.service_completed.get()),
            ("service.cancelled", self.service_cancelled.get()),
            ("cache.hits", self.cache_hits.get()),
            ("cache.misses", self.cache_misses.get()),
            ("spans.recorded", self.spans_recorded.get()),
            ("spans.dropped", self.spans_dropped.get()),
            ("journal.dropped", self.journal_dropped.get()),
            ("slo.ttff_p99_us", self.slo_ttff_p99_us.get()),
            ("slo.queue_p99_us", self.slo_queue_p99_us.get()),
            ("slo.shed_per_mille", self.slo_shed_per_mille.get()),
            ("slo.breached", self.slo_breached.get()),
            ("slo.breaches", self.slo_breaches.get()),
            ("frontdoor.offered", self.frontdoor_offered.get()),
            ("frontdoor.coalesced", self.frontdoor_coalesced.get()),
            ("frontdoor.degraded", self.frontdoor_degraded.get()),
            ("frontdoor.shed", self.frontdoor_shed.get()),
            (
                "frontdoor.quota_rejected",
                self.frontdoor_quota_rejected.get(),
            ),
            (
                "frontdoor.degrade_level",
                self.frontdoor_degrade_level.get(),
            ),
            ("exec.runs", self.exec_runs.get()),
            ("exec.tuples", self.exec_tuples.get()),
            ("exec.spilled_rows", self.exec_spilled_rows.get()),
            ("exec.inner_rescans", self.exec_inner_rescans.get()),
        ]
    }

    /// Every histogram with its dotted name, in registration order.
    pub fn histograms(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        vec![
            (
                "exchange.mutex_wait_ns",
                self.exchange_mutex_wait_ns.snapshot(),
            ),
            (
                "service.queue_delay_us",
                self.service_queue_delay_us.snapshot(),
            ),
            ("service.slice_us", self.service_slice_us.snapshot()),
            (
                "service.warm_start_depth",
                self.service_warm_start_depth.snapshot(),
            ),
            (
                "exec.peak_buffer_rows",
                self.exec_peak_buffer_rows.snapshot(),
            ),
        ]
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-global metrics registry. Counters are monotone for the
/// process lifetime; consumers wanting per-phase numbers take before/after
/// deltas (which is what the bench harness does per fixture).
#[inline]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_sharded_counter_accumulate() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        c.add(0);
        assert_eq!(c.get(), 42);

        let s = ShardedCounter::new();
        s.add(5);
        s.incr();
        assert_eq!(s.get(), 6);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let s = std::sync::Arc::new(ShardedCounter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.get(), 4000);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 1_001_106);
        assert_eq!(snap.max, 1_000_000);
        // p50 falls in the bucket containing {2, 3} → interpolates to 3.
        assert_eq!(snap.p50, 3);
        // Quantiles interpolate within their bucket, tightened by the max.
        assert!(snap.p99 >= 1000 && snap.p99 <= 1_000_000);
        assert!(snap.mean() > 0.0);
    }

    #[test]
    fn histogram_quantiles_never_exceed_max() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(700);
        }
        let snap = h.snapshot();
        // All mass sits in bucket [512, 1023], whose upper bound the max
        // tightens to 700; interpolation stays inside [512, 700].
        assert!(snap.p50 >= 512 && snap.p50 <= 700);
        assert!(snap.p99 >= snap.p50 && snap.p99 <= 700);
        assert_eq!(snap.max, 700);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        // Known distribution: 1..=1000 uniformly. Pure bucket upper
        // bounds would report p50 = 511 and p90 = 1000; sub-bucket
        // interpolation must land near the true percentiles.
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert!(
            (498..=502).contains(&snap.p50),
            "p50 {} not near 500",
            snap.p50
        );
        assert!(
            (895..=905).contains(&snap.p90),
            "p90 {} not near 900",
            snap.p90
        );
        assert!(
            (985..=1000).contains(&snap.p99),
            "p99 {} not near 990",
            snap.p99
        );
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 2, 4, 16, 1024, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last);
            assert!(idx < HISTOGRAM_BUCKETS);
            last = idx;
        }
    }

    #[test]
    fn gauge_overwrites_and_reads() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(17);
        g.set(5);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn registry_enumerates_all_metrics() {
        let names: Vec<&str> = metrics().counters().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"rmq.iterations"));
        assert!(names.contains(&"climb.agg_key_skips"));
        assert!(names.contains(&"pareto.blocks_screened"));
        assert!(names.contains(&"pareto.eps_rejects"));
        assert!(names.contains(&"pareto.archive_size"));
        assert!(names.contains(&"exchange.merged"));
        assert!(names.contains(&"exchange.partial_merged"));
        assert!(names.contains(&"exchange.backoff_level"));
        assert!(names.contains(&"exec_pool.batches"));
        assert!(names.contains(&"exec_pool.steals"));
        assert!(names.contains(&"exec_pool.donations"));
        assert!(names.contains(&"service.rejected_queue_full"));
        assert!(names.contains(&"exec.tuples"));
        assert!(names.contains(&"spans.recorded"));
        assert!(names.contains(&"spans.dropped"));
        assert!(names.contains(&"journal.dropped"));
        assert!(names.contains(&"slo.ttff_p99_us"));
        assert!(names.contains(&"slo.queue_p99_us"));
        assert!(names.contains(&"slo.shed_per_mille"));
        assert!(names.contains(&"slo.breached"));
        assert!(names.contains(&"slo.breaches"));
        assert!(names.contains(&"frontdoor.offered"));
        assert!(names.contains(&"frontdoor.coalesced"));
        assert!(names.contains(&"frontdoor.degraded"));
        assert!(names.contains(&"frontdoor.shed"));
        assert!(names.contains(&"frontdoor.quota_rejected"));
        assert!(names.contains(&"frontdoor.degrade_level"));
        let hists: Vec<&str> = metrics().histograms().iter().map(|(n, _)| *n).collect();
        assert!(hists.contains(&"service.queue_delay_us"));
        assert!(hists.contains(&"exchange.mutex_wait_ns"));
    }
}
