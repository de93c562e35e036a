//! The metrics registry: lock-free counters, per-thread sharded counters,
//! and fixed-bucket histograms, all `const`-constructible so the global
//! registry lives in a `static` with zero initialization cost.
//!
//! Every metric is declared once, in the `metrics!` invocation below, with
//! a dotted name (`layer.quantity`); [`Metrics::counters`] and
//! [`Metrics::histograms`] enumerate them with those names, which is what
//! [`crate::snapshot::ObsSnapshot`] exports.

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

/// Declares the registry once: each metric is a one-line doc, its field,
/// its type and its dotted name. The field becomes a `Metrics` member (with
/// the doc as its rustdoc), and the name its entry in [`Metrics::counters`]
/// or [`Metrics::histograms`] and in README's metric table.
macro_rules! metrics {
    (
        counters { $(#[doc = $doc:literal] $field:ident: $ty:ident = $name:literal,)* }
        histograms { $(#[doc = $hdoc:literal] $hfield:ident = $hname:literal,)* }
    ) => {
        /// The global metrics registry: every counter, gauge and histogram
        /// the instrumented crates bump, each with a stable dotted name.
        ///
        /// `climb.*` counters are flushed once per RMQ iteration from plain
        /// per-iteration tallies (see `moqo-core`'s screening counters), so
        /// their values are deterministic for a seeded run — the bench
        /// harness pins them in its `obs` section to hard-pin hot-path
        /// behavior.
        #[derive(Debug)]
        pub struct Metrics {
            $(#[doc = $doc] pub $field: $ty,)*
            $(#[doc = $hdoc] pub $hfield: Histogram,)*
        }

        impl Metrics {
            const fn new() -> Self {
                Metrics { $($field: $ty::new(),)* $($hfield: Histogram::new(),)* }
            }

            /// Every counter and gauge with its dotted name, in declaration
            /// order.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$field.get()),)*]
            }

            /// Every histogram with its dotted name, in declaration order.
            pub fn histograms(&self) -> Vec<(&'static str, HistogramSnapshot)> {
                vec![$(($hname, self.$hfield.snapshot()),)*]
            }
        }

        /// `(dotted name, type, doc)` of every metric, in declaration order.
        #[cfg(test)]
        const DECLARED: &[(&str, &str, &str)] =
            &[$(($name, stringify!($ty), $doc),)* $(($hname, "Histogram", $hdoc),)*];
    };
}

metrics! {
    counters {
        /// RMQ iterations completed (aborted iterations are not counted).
        rmq_iterations: ShardedCounter = "rmq.iterations",
        /// Candidates the climb costed and offered to a step frontier (memo-answered sub-trees are not re-counted).
        climb_candidates: ShardedCounter = "climb.candidates",
        /// Step-frontier member compares the aggregate-key pre-filter settled without a component compare.
        climb_agg_key_skips: ShardedCounter = "climb.agg_key_skips",
        /// Component-wise dominance compares of the climb's step frontiers (members, or lanes of screened blocks).
        climb_dominance_tests: ShardedCounter = "climb.dominance_tests",
        /// Candidates rejected as dominated (or duplicate) by a frontier.
        climb_rejected: ShardedCounter = "climb.rejected",
        /// Candidates admitted into a frontier.
        climb_admitted: ShardedCounter = "climb.admitted",
        /// Incumbent members evicted by an admitted candidate.
        climb_evicted: ShardedCounter = "climb.evicted",
        /// Structure-of-arrays blocks the Pareto block kernels screened; 0 while every set is below `SOA_CROSSOVER`.
        pareto_blocks_screened: ShardedCounter = "pareto.blocks_screened",
        /// Candidates the ε-box archive rule rejected that exact dominance would have admitted.
        pareto_eps_rejects: ShardedCounter = "pareto.eps_rejects",
        /// Query-frontier (archive) size at the most recently flushed iteration.
        pareto_archive_size: Gauge = "pareto.archive_size",
        /// Plan-arena intern requests that allocated a new node.
        arena_interns: ShardedCounter = "arena.interns",
        /// Plan-arena intern requests answered by an existing node.
        arena_dedup_hits: ShardedCounter = "arena.dedup_hits",
        /// Warm-start plans an optimizer parked for a table set it had not touched yet (`Rmq::warm_start`).
        warm_parked: ShardedCounter = "warm.parked",
        /// Parked plans offered to the plan cache once a climbed plan contained their table set.
        warm_imported: ShardedCounter = "warm.imported",
        /// Shared-frontier publishes: a worker's non-empty change list merged under the lock.
        exchange_publishes: Counter = "exchange.publishes",
        /// Plans a worker accepted (admitted or parked) from other workers' shared-frontier entries.
        exchange_absorbed: Counter = "exchange.absorbed",
        /// Frontier members offered to the exchange, once per cache admission (the query's table set included).
        exchange_partial_offered: Counter = "exchange.partial_offered",
        /// Offered plans admitted into their table set's shared frontier (the query's included).
        exchange_partial_merged: Counter = "exchange.partial_merged",
        /// Climb batches any `ExecPool` ran, shared or private (at most one per task invocation).
        exec_pool_batches: ShardedCounter = "exec_pool.batches",
        /// Batches a pool worker's loop took off the run queue instead of their group's waiting helper.
        exec_pool_steals: Counter = "exec_pool.steals",
        /// Batches a waiting helper ran for a foreign task group while its own group drained.
        exec_pool_donations: Counter = "exec_pool.donations",
        /// Sessions admitted by the service.
        service_submitted: Counter = "service.submitted",
        /// Submissions rejected: live-session bound reached.
        service_rejected_queue_full: Counter = "service.rejected_queue_full",
        /// Submissions rejected: service shutting down.
        service_rejected_shutdown: Counter = "service.rejected_shutdown",
        /// Cross-query cache lookups that returned warm-start plans.
        cache_hits: Counter = "cache.hits",
        /// Cross-query cache lookups that returned nothing.
        cache_misses: Counter = "cache.misses",
        /// Span records pushed into the tracing ring (spans and instants).
        spans_recorded: Counter = "spans.recorded",
        /// Span records the tracing ring evicted before anyone drained them.
        spans_dropped: Counter = "spans.dropped",
        /// Journal events the journal ring evicted (or a smaller capacity trimmed) before anyone drained them.
        journal_dropped: Counter = "journal.dropped",
        /// p99 time-to-first-frontier of the SLO monitor's sliding window, µs (0 until it has samples).
        slo_ttff_p99_us: Gauge = "slo.ttff_p99_us",
        /// p99 queue delay of the SLO monitor's sliding window, µs.
        slo_queue_p99_us: Gauge = "slo.queue_p99_us",
        /// The SLO monitor's shed (rejection) rate, per mille of submissions.
        slo_shed_per_mille: Gauge = "slo.shed_per_mille",
        /// Bitmask of breached SLO targets (1 TTFF, 2 queue delay, 4 shed rate); 0 while all hold.
        slo_breached: Gauge = "slo.breached",
        /// Transitions of any SLO target from holding to breached.
        slo_breaches: Counter = "slo.breaches",
        /// Requests offered to the front door (admitted, coalesced or shed).
        frontdoor_offered: Counter = "frontdoor.offered",
        /// Requests coalesced onto an in-flight identical optimization (tenant, context and table set).
        frontdoor_coalesced: Counter = "frontdoor.coalesced",
        /// Sessions admitted at a degraded tier (coarser ε and/or a smaller budget) instead of shed.
        frontdoor_degraded: Counter = "frontdoor.degraded",
        /// Requests shed outright (quota or saturated shard) after the degradation ladder ran out.
        frontdoor_shed: Counter = "frontdoor.shed",
        /// Shed requests attributable to per-tenant quota exhaustion.
        frontdoor_quota_rejected: Counter = "frontdoor.quota_rejected",
        /// Highest degradation level active on any shard (0 full, 1 coarse ε, 2 reduced budget).
        frontdoor_degrade_level: Gauge = "frontdoor.degrade_level",
        /// Executed physical plans.
        exec_runs: Counter = "exec.runs",
        /// Tuples processed by execution-engine operators.
        exec_tuples: Counter = "exec.tuples",
        /// Rows spilled by blocking operators under their memory grant.
        exec_spilled_rows: Counter = "exec.spilled_rows",
    }
    histograms {
        /// Nanoseconds waiting for the shared-frontier merge mutex (sampled: every 8th publish).
        exchange_mutex_wait_ns = "exchange.mutex_wait_ns",
        /// Queue delay, µs: submission to first optimizer step.
        service_queue_delay_us = "service.queue_delay_us",
        /// Scheduling-slice duration, µs (the sampled clock that avoids a per-step `Instant::now`).
        service_slice_us = "service.slice_us",
        /// Plans accepted from the cross-query cache per session at submit (admitted plus parked; 0 on a miss).
        service_warm_start_depth = "service.warm_start_depth",
        /// Peak buffered rows per executed plan.
        exec_peak_buffer_rows = "exec.peak_buffer_rows",
    }
}

pub(crate) static METRICS: Metrics = Metrics::new();

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
        assert!(names.contains(&"exchange.partial_merged"));
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

    #[test]
    fn the_readme_metric_table_matches_the_registry() {
        // One row per metric, in declaration order.
        let rows: Vec<String> = DECLARED
            .iter()
            .map(|(name, ty, doc)| format!("| `{name}` | {ty} | {} |", doc.trim()))
            .collect();
        let table = rows.join("\n");
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        assert!(
            readme.unwrap().contains(&table),
            "README's metric table should be:\n{table}"
        );
    }
}
