//! Service-level statistics: throughput, time-to-first-frontier
//! percentiles, convergence latency, session counters, and the continuous
//! SLO monitor.
//!
//! *Time to first frontier* (TTFF) is the anytime-optimizer analogue of
//! time-to-first-byte: how long after submission a session first had a
//! non-empty result frontier a client could act on. The paper's central
//! claim — RMQ produces usable frontiers within milliseconds while
//! refining forever — makes TTFF the service's headline latency metric;
//! p50/p99 summarize it the way serving systems conventionally do.
//! Beside it sits *time to 90% of final hypervolume* (TT90): how long a
//! session took to reach 90% of the frontier quality it eventually
//! delivered, computed from the optimizer's anytime-convergence
//! checkpoints — TTFF measures "anything usable", TT90 measures "almost
//! as good as it gets".
//!
//! The [`SloConfig`] targets are evaluated continuously over the same
//! sliding [`SampleWindow`]s at every completion and rejection: observed
//! values export as `slo.*` gauges, target violations flip bits in the
//! `slo.breached` bitmask, and each holding→breached transition bumps
//! `slo.breaches` and emits a journal note.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use moqo_obs::journal::{self, EventKind, Level, Target};
use moqo_obs::metrics::metrics;

use crate::cache::CacheStats;

/// Service-level objective targets, evaluated continuously over the
/// sliding statistics windows. Unset targets are not monitored; with every
/// target unset the monitor is disabled entirely (no gauge writes).
#[derive(Clone, Copy, Debug, Default)]
pub struct SloConfig {
    /// Target p99 time-to-first-frontier (breaches set bit 0 of
    /// `slo.breached`).
    pub ttff_p99: Option<Duration>,
    /// Target p99 queueing delay, submission → first optimizer step
    /// (breaches set bit 1).
    pub queue_delay_p99: Option<Duration>,
    /// Target shed rate: admission rejections per mille of offered
    /// sessions (breaches set bit 2).
    pub shed_per_mille: Option<u64>,
}

impl SloConfig {
    /// Whether any target is set (the monitor only runs when one is).
    pub fn is_enabled(&self) -> bool {
        self.ttff_p99.is_some() || self.queue_delay_p99.is_some() || self.shed_per_mille.is_some()
    }
}

/// `slo.breached` bit for the TTFF target.
pub const SLO_BIT_TTFF: u64 = 1;
/// `slo.breached` bit for the queue-delay target.
pub const SLO_BIT_QUEUE_DELAY: u64 = 2;
/// `slo.breached` bit for the shed-rate target.
pub const SLO_BIT_SHED: u64 = 4;

/// A point-in-time snapshot of service statistics.
#[derive(Clone, Copy, Debug)]
pub struct ServiceStats {
    /// Sessions admitted.
    pub submitted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Sessions that finished (any [`DoneReason`](crate::DoneReason)).
    pub completed: u64,
    /// Completed sessions that were cancelled or aborted by shutdown.
    pub cancelled: u64,
    /// Live sessions (admitted, not yet finished).
    pub live: usize,
    /// Admitted sessions that declared intra-query fan-out > 1.
    pub multi_worker_sessions: u64,
    /// Total fan-out of all admitted sessions (`fan_out_submitted /
    /// submitted` is the mean session width).
    pub fan_out_submitted: u64,
    /// Total optimizer steps executed across all sessions.
    pub total_steps: u64,
    /// Completed sessions per second since service start.
    pub throughput_per_sec: f64,
    /// Median time to first non-empty frontier (`None` until a session
    /// produced one).
    pub ttff_p50: Option<Duration>,
    /// 99th-percentile time to first non-empty frontier.
    pub ttff_p99: Option<Duration>,
    /// Median queueing delay: submission → first optimizer step (`None`
    /// until a session was stepped).
    pub queue_delay_p50: Option<Duration>,
    /// 99th-percentile queueing delay.
    pub queue_delay_p99: Option<Duration>,
    /// Median time to 90% of the session's final hypervolume, from the
    /// optimizer's anytime-convergence checkpoints (`None` until a
    /// completed session had a measurable convergence curve).
    pub tt90_p50: Option<Duration>,
    /// 99th-percentile time to 90% of final hypervolume.
    pub tt90_p99: Option<Duration>,
    /// Current SLO breach bitmask ([`SLO_BIT_TTFF`] | [`SLO_BIT_QUEUE_DELAY`]
    /// | [`SLO_BIT_SHED`]); 0 when all targets hold or none are set.
    pub slo_breached: u64,
    /// Cross-query plan cache counters.
    pub cache: CacheStats,
}

/// Bound on retained latency samples per window. Percentiles are computed
/// over a sliding window of the most recent samples (ring-buffer
/// overwrite), so a long-running service neither grows without bound nor
/// pays more than `O(CAP log CAP)` per stats snapshot — and recent-window
/// percentiles are the conventional choice for serving latency metrics
/// anyway.
const TTFF_SAMPLE_CAP: usize = 4096;

/// A bounded sliding window of duration samples: the most recent
/// [`TTFF_SAMPLE_CAP`] values, overwritten ring-buffer style. Used for
/// both the TTFF and the queueing-delay percentile windows.
struct SampleWindow {
    samples: Vec<Duration>,
    /// Samples ever recorded (ring-buffer write cursor).
    count: u64,
}

impl SampleWindow {
    const fn new() -> Self {
        SampleWindow {
            samples: Vec::new(),
            count: 0,
        }
    }

    fn record(&mut self, sample: Duration) {
        let slot = (self.count % TTFF_SAMPLE_CAP as u64) as usize;
        if self.samples.len() < TTFF_SAMPLE_CAP {
            self.samples.push(sample);
        } else {
            self.samples[slot] = sample;
        }
        self.count += 1;
    }

    /// The window's samples, ascending — the input `percentile` expects.
    fn sorted(&self) -> Vec<Duration> {
        let mut samples = self.samples.clone();
        samples.sort_unstable();
        samples
    }
}

struct StatsInner {
    submitted: u64,
    multi_worker_sessions: u64,
    fan_out_submitted: u64,
    rejected: u64,
    completed: u64,
    cancelled: u64,
    total_steps: u64,
    ttff: SampleWindow,
    queue_delay: SampleWindow,
    tt90: SampleWindow,
    /// Current SLO breach bitmask; transitions are detected against it.
    slo_breached_mask: u64,
}

/// Internal collector behind the service.
pub(crate) struct StatsCollector {
    started: Instant,
    inner: Mutex<StatsInner>,
}

impl StatsCollector {
    pub(crate) fn new() -> Self {
        StatsCollector {
            started: Instant::now(),
            inner: Mutex::new(StatsInner {
                submitted: 0,
                multi_worker_sessions: 0,
                fan_out_submitted: 0,
                rejected: 0,
                completed: 0,
                cancelled: 0,
                total_steps: 0,
                ttff: SampleWindow::new(),
                queue_delay: SampleWindow::new(),
                tt90: SampleWindow::new(),
                slo_breached_mask: 0,
            }),
        }
    }

    pub(crate) fn record_submitted(&self, fan_out: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.submitted += 1;
        inner.fan_out_submitted += fan_out as u64;
        if fan_out > 1 {
            inner.multi_worker_sessions += 1;
        }
    }

    pub(crate) fn record_rejected(&self) {
        self.inner.lock().unwrap().rejected += 1;
    }

    pub(crate) fn record_completed(&self, steps: u64, ttff: Option<Duration>, aborted: bool) {
        let mut inner = self.inner.lock().unwrap();
        inner.completed += 1;
        inner.total_steps += steps;
        if aborted {
            inner.cancelled += 1;
        }
        if let Some(ttff) = ttff {
            inner.ttff.record(ttff);
        }
    }

    /// Records one queueing delay (submission → first optimizer step).
    pub(crate) fn record_queue_delay(&self, delay: Duration) {
        self.inner.lock().unwrap().queue_delay.record(delay);
    }

    /// Records one time-to-90%-of-final-hypervolume sample.
    pub(crate) fn record_tt90(&self, tt90: Duration) {
        self.inner.lock().unwrap().tt90.record(tt90);
    }

    /// Evaluates the SLO targets against the current sliding windows,
    /// exports the observed values as `slo.*` gauges, and journals every
    /// breach-state transition. Called on every completion and rejection;
    /// a no-op when no target is configured.
    pub(crate) fn evaluate_slo(&self, slo: &SloConfig) {
        if !slo.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let ttff_p99 = percentile(&inner.ttff.sorted(), 0.99);
        let queue_p99 = percentile(&inner.queue_delay.sorted(), 0.99);
        let offered = inner.submitted + inner.rejected;
        let shed_per_mille = (inner.rejected * 1000).checked_div(offered).unwrap_or(0);

        let m = metrics();
        m.slo_ttff_p99_us
            .set(ttff_p99.map_or(0, |d| d.as_micros() as u64));
        m.slo_queue_p99_us
            .set(queue_p99.map_or(0, |d| d.as_micros() as u64));
        m.slo_shed_per_mille.set(shed_per_mille);

        let mut mask = 0u64;
        if let (Some(target), Some(observed)) = (slo.ttff_p99, ttff_p99) {
            if observed > target {
                mask |= SLO_BIT_TTFF;
            }
        }
        if let (Some(target), Some(observed)) = (slo.queue_delay_p99, queue_p99) {
            if observed > target {
                mask |= SLO_BIT_QUEUE_DELAY;
            }
        }
        if let Some(target) = slo.shed_per_mille {
            if shed_per_mille > target {
                mask |= SLO_BIT_SHED;
            }
        }

        let prev = inner.slo_breached_mask;
        inner.slo_breached_mask = mask;
        drop(inner);

        m.slo_breached.set(mask);
        let newly_breached = mask & !prev;
        if newly_breached != 0 {
            m.slo_breaches.add(u64::from(newly_breached.count_ones()));
        }
        for (bit, breach_note, recover_note) in [
            (
                SLO_BIT_TTFF,
                "slo breach: ttff p99 over target",
                "slo recovered: ttff p99 within target",
            ),
            (
                SLO_BIT_QUEUE_DELAY,
                "slo breach: queue delay p99 over target",
                "slo recovered: queue delay p99 within target",
            ),
            (
                SLO_BIT_SHED,
                "slo breach: shed rate over target",
                "slo recovered: shed rate within target",
            ),
        ] {
            if newly_breached & bit != 0 {
                journal::emit_with(Target::Service, Level::Warn, || {
                    EventKind::Note(breach_note)
                });
            } else if prev & bit != 0 && mask & bit == 0 {
                journal::emit_with(Target::Service, Level::Info, || {
                    EventKind::Note(recover_note)
                });
            }
        }
    }

    /// The current SLO breach bitmask without computing percentiles — the
    /// cheap read a front door consults on every admission decision.
    pub(crate) fn breach_mask(&self) -> u64 {
        self.inner.lock().unwrap().slo_breached_mask
    }

    pub(crate) fn snapshot(&self, live: usize, cache: CacheStats) -> ServiceStats {
        let inner = self.inner.lock().unwrap();
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let ttff = inner.ttff.sorted();
        let queue_delay = inner.queue_delay.sorted();
        let tt90 = inner.tt90.sorted();
        ServiceStats {
            submitted: inner.submitted,
            rejected: inner.rejected,
            completed: inner.completed,
            cancelled: inner.cancelled,
            live,
            multi_worker_sessions: inner.multi_worker_sessions,
            fan_out_submitted: inner.fan_out_submitted,
            total_steps: inner.total_steps,
            throughput_per_sec: inner.completed as f64 / elapsed,
            ttff_p50: percentile(&ttff, 0.50),
            ttff_p99: percentile(&ttff, 0.99),
            queue_delay_p50: percentile(&queue_delay, 0.50),
            queue_delay_p99: percentile(&queue_delay, 0.99),
            tt90_p50: percentile(&tt90, 0.50),
            tt90_p99: percentile(&tt90, 0.99),
            slo_breached: inner.slo_breached_mask,
            cache,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted: &[Duration], q: f64) -> Option<Duration> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let ms = |n: u64| Duration::from_millis(n);
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&samples, 0.50), Some(ms(50)));
        assert_eq!(percentile(&samples, 0.99), Some(ms(99)));
        assert_eq!(percentile(&samples, 1.0), Some(ms(100)));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[ms(7)], 0.99), Some(ms(7)));
    }

    #[test]
    fn ttff_samples_are_bounded() {
        let c = StatsCollector::new();
        for i in 0..(TTFF_SAMPLE_CAP + 100) {
            c.record_completed(1, Some(Duration::from_micros(i as u64)), false);
        }
        let inner = c.inner.lock().unwrap();
        assert_eq!(inner.ttff.samples.len(), TTFF_SAMPLE_CAP);
        assert_eq!(inner.ttff.count, (TTFF_SAMPLE_CAP + 100) as u64);
        // Ring overwrite: the oldest samples were replaced by the newest.
        assert!(inner
            .ttff
            .samples
            .contains(&Duration::from_micros((TTFF_SAMPLE_CAP + 99) as u64)));
        assert!(!inner.ttff.samples.contains(&Duration::from_micros(0)));
    }

    #[test]
    fn ttff_ring_wraps_to_exactly_the_most_recent_window() {
        // Write 2.5 windows of increasing samples: the retained set must be
        // exactly the last TTFF_SAMPLE_CAP values, independent of where the
        // cursor sits inside the ring.
        let total = TTFF_SAMPLE_CAP * 5 / 2;
        let mut w = SampleWindow::new();
        for i in 0..total {
            w.record(Duration::from_micros(i as u64));
        }
        assert_eq!(w.samples.len(), TTFF_SAMPLE_CAP);
        assert_eq!(w.count, total as u64);
        let sorted = w.sorted();
        let expect: Vec<Duration> = ((total - TTFF_SAMPLE_CAP)..total)
            .map(|i| Duration::from_micros(i as u64))
            .collect();
        assert_eq!(sorted, expect, "window must hold exactly the newest CAP");
    }

    #[test]
    fn percentiles_over_a_known_distribution_through_the_window() {
        // Feed a shuffled 1..=1000µs distribution through record(): the
        // window's sorted view must reproduce the exact nearest-rank
        // percentiles of the underlying distribution.
        let mut w = SampleWindow::new();
        // Deterministic shuffle: a full-period multiplicative stride.
        for i in 0..1000u64 {
            let v = (i * 617) % 1000 + 1;
            w.record(Duration::from_micros(v));
        }
        let sorted = w.sorted();
        assert_eq!(percentile(&sorted, 0.50), Some(Duration::from_micros(500)));
        assert_eq!(percentile(&sorted, 0.90), Some(Duration::from_micros(900)));
        assert_eq!(percentile(&sorted, 0.99), Some(Duration::from_micros(990)));
        assert_eq!(percentile(&sorted, 1.0), Some(Duration::from_micros(1000)));
    }

    #[test]
    fn empty_windows_report_no_percentiles() {
        let c = StatsCollector::new();
        // A completion without a frontier records no TTFF sample.
        c.record_completed(3, None, false);
        let s = c.snapshot(0, CacheStats::default());
        assert_eq!(s.ttff_p50, None);
        assert_eq!(s.ttff_p99, None);
        assert_eq!(s.queue_delay_p50, None);
        assert_eq!(s.queue_delay_p99, None);
    }

    #[test]
    fn queue_delay_window_aggregates_independently_of_ttff() {
        let c = StatsCollector::new();
        c.record_queue_delay(Duration::from_micros(10));
        c.record_queue_delay(Duration::from_micros(30));
        c.record_queue_delay(Duration::from_micros(20));
        c.record_completed(1, Some(Duration::from_millis(5)), false);
        let s = c.snapshot(0, CacheStats::default());
        assert_eq!(s.queue_delay_p50, Some(Duration::from_micros(20)));
        assert_eq!(s.queue_delay_p99, Some(Duration::from_micros(30)));
        assert_eq!(s.ttff_p50, Some(Duration::from_millis(5)));
    }

    #[test]
    fn tt90_window_feeds_snapshot_percentiles() {
        let c = StatsCollector::new();
        let s = c.snapshot(0, CacheStats::default());
        assert_eq!(s.tt90_p50, None);
        c.record_tt90(Duration::from_millis(4));
        c.record_tt90(Duration::from_millis(2));
        c.record_tt90(Duration::from_millis(9));
        let s = c.snapshot(0, CacheStats::default());
        assert_eq!(s.tt90_p50, Some(Duration::from_millis(4)));
        assert_eq!(s.tt90_p99, Some(Duration::from_millis(9)));
    }

    #[test]
    fn slo_monitor_tracks_breach_transitions() {
        let c = StatsCollector::new();
        let slo = SloConfig {
            ttff_p99: Some(Duration::from_millis(10)),
            queue_delay_p99: None,
            shed_per_mille: Some(500),
        };
        let mask = |c: &StatsCollector| c.snapshot(0, CacheStats::default()).slo_breached;

        // Healthy: one fast completion, nothing rejected.
        c.record_submitted(1);
        c.record_completed(1, Some(Duration::from_millis(1)), false);
        c.evaluate_slo(&slo);
        assert_eq!(mask(&c), 0);

        // A slow completion pushes TTFF p99 over the 10ms target.
        c.record_completed(1, Some(Duration::from_millis(50)), false);
        c.evaluate_slo(&slo);
        assert_eq!(mask(&c), SLO_BIT_TTFF);

        // Shedding most of the offered load breaches the shed target too
        // (10 rejected of 11 offered = 909 per mille > 500).
        for _ in 0..10 {
            c.record_rejected();
        }
        c.evaluate_slo(&slo);
        assert_eq!(mask(&c), SLO_BIT_TTFF | SLO_BIT_SHED);

        // Admitting a burst dilutes the shed rate back under target; the
        // TTFF breach persists because the slow sample stays in window.
        for _ in 0..100 {
            c.record_submitted(1);
        }
        c.evaluate_slo(&slo);
        assert_eq!(mask(&c), SLO_BIT_TTFF);
    }

    #[test]
    fn slo_monitor_is_inert_without_targets() {
        let c = StatsCollector::new();
        c.record_completed(1, Some(Duration::from_secs(60)), false);
        for _ in 0..10 {
            c.record_rejected();
        }
        c.evaluate_slo(&SloConfig::default());
        assert_eq!(c.snapshot(0, CacheStats::default()).slo_breached, 0);
    }

    #[test]
    fn slo_queue_delay_target_uses_its_own_window() {
        let c = StatsCollector::new();
        let slo = SloConfig {
            queue_delay_p99: Some(Duration::from_micros(100)),
            ..SloConfig::default()
        };
        c.record_queue_delay(Duration::from_micros(50));
        c.evaluate_slo(&slo);
        assert_eq!(c.snapshot(0, CacheStats::default()).slo_breached, 0);
        c.record_queue_delay(Duration::from_micros(900));
        c.evaluate_slo(&slo);
        assert_eq!(
            c.snapshot(0, CacheStats::default()).slo_breached,
            SLO_BIT_QUEUE_DELAY
        );
    }

    #[test]
    fn collector_aggregates() {
        let c = StatsCollector::new();
        c.record_submitted(1);
        c.record_submitted(4);
        c.record_rejected();
        c.record_completed(10, Some(Duration::from_millis(3)), false);
        c.record_completed(5, None, true);
        let s = c.snapshot(1, CacheStats::default());
        assert_eq!(s.submitted, 2);
        assert_eq!(s.multi_worker_sessions, 1);
        assert_eq!(s.fan_out_submitted, 5);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 2);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.total_steps, 15);
        assert_eq!(s.live, 1);
        assert_eq!(s.ttff_p50, Some(Duration::from_millis(3)));
        assert!(s.throughput_per_sec > 0.0);
    }
}
