//! A counting `CostModel` wrapper owned by the benchmark (traced runs only).
//!
//! Timing every cost call would cost more than the call, so the wrapper
//! counts calls, keeps a sample of the join operands it saw, and the
//! per-call time is measured afterwards by replaying that sample through
//! the unwrapped model: `cost.time_share = calls × ns_per_call ÷ wall`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use moqo_core::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
use moqo_core::TableId;

/// Keep every `SAMPLE_EVERY`-th join costing, up to `SAMPLE_CAP` per block.
const SAMPLE_EVERY: u64 = 64;
const SAMPLE_CAP: usize = 2048;

type JoinCall = (PlanView, PlanView, JoinOpId);

/// The counters of one wrapper instance. Each instance is driven by one
/// thread at a time (an optimizer owns its model), so plain load/store
/// increments are exact and cost no locked instruction.
#[derive(Default)]
struct Block {
    props_calls: AtomicU64,
    samples: Mutex<Vec<JoinCall>>,
}

/// Counts the `scan_props` / `join_props` calls reaching `inner`. Cloning
/// gives the clone its own counter block in the shared registry, so
/// per-worker and per-session copies never race.
pub struct CountingModel<M> {
    inner: M,
    mine: Arc<Block>,
    registry: Arc<Mutex<Vec<Arc<Block>>>>,
}

impl<M: CostModel> CountingModel<M> {
    /// Wraps `inner` with a fresh registry.
    pub fn new(inner: M) -> Self {
        let mine = Arc::new(Block::default());
        CountingModel {
            inner,
            registry: Arc::new(Mutex::new(vec![Arc::clone(&mine)])),
            mine,
        }
    }

    fn blocks(&self) -> Vec<Arc<Block>> {
        self.registry
            .lock()
            .expect("registry lock is never held across a panic")
            .clone()
    }

    /// Cost evaluations counted so far across this wrapper and its clones.
    pub fn calls(&self) -> u64 {
        self.blocks()
            .iter()
            .map(|b| b.props_calls.load(Ordering::Relaxed))
            .sum()
    }

    /// Nanoseconds per `join_props` call, measured by replaying the sampled
    /// operands through the unwrapped model for at least `budget`.
    pub fn ns_per_call(&self, budget: Duration) -> f64 {
        let samples: Vec<JoinCall> = self
            .blocks()
            .iter()
            .flat_map(|b| {
                b.samples
                    .lock()
                    .expect("sample lock is never held across a panic")
                    .clone()
            })
            .collect();
        if samples.is_empty() {
            return 0.0;
        }
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < budget {
            for (o, i, op) in &samples {
                black_box(self.inner.join_props(black_box(o), black_box(i), *op));
            }
            calls += samples.len() as u64;
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    }

    #[inline]
    fn count(&self) -> u64 {
        let n = self.mine.props_calls.load(Ordering::Relaxed) + 1;
        self.mine.props_calls.store(n, Ordering::Relaxed);
        n
    }
}

impl<M: CostModel + Clone> Clone for CountingModel<M> {
    fn clone(&self) -> Self {
        let mine = Arc::new(Block::default());
        self.registry
            .lock()
            .expect("registry lock is never held across a panic")
            .push(Arc::clone(&mine));
        CountingModel {
            inner: self.inner.clone(),
            mine,
            registry: Arc::clone(&self.registry),
        }
    }
}

impl<M: CostModel> CostModel for CountingModel<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn metric_name(&self, k: usize) -> &str {
        self.inner.metric_name(k)
    }
    fn num_tables(&self) -> usize {
        self.inner.num_tables()
    }
    fn scan_ops(&self, table: TableId) -> &[ScanOpId] {
        self.inner.scan_ops(table)
    }
    fn join_ops(&self, outer: &PlanView, inner: &PlanView, out: &mut Vec<JoinOpId>) {
        self.inner.join_ops(outer, inner, out)
    }
    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
        self.count();
        self.inner.scan_props(table, op)
    }
    #[inline]
    fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
        if self.count() % SAMPLE_EVERY == 0 {
            let mut samples = self
                .mine
                .samples
                .lock()
                .expect("sample lock is never held across a panic");
            if samples.len() < SAMPLE_CAP {
                samples.push((*outer, *inner, op));
            }
        }
        self.inner.join_props(outer, inner, op)
    }
    fn scan_op_name(&self, op: ScanOpId) -> String {
        self.inner.scan_op_name(op)
    }
    fn join_op_name(&self, op: JoinOpId) -> String {
        self.inner.join_op_name(op)
    }
    fn format_name(&self, format: OutputFormat) -> String {
        self.inner.format_name(format)
    }
    fn num_formats(&self) -> usize {
        self.inner.num_formats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::rmq::{Rmq, RmqConfig};
    use moqo_core::TableSet;

    #[test]
    fn counts_calls_across_clones_without_changing_results() {
        let plain = StubModel::line(6, 2, 5);
        let counted = CountingModel::new(plain.clone());
        let clone = counted.clone();
        let query = TableSet::prefix(6);
        let mut a = Rmq::new(&plain, query, RmqConfig::seeded(2));
        let mut b = Rmq::new(&clone, query, RmqConfig::seeded(2));
        for _ in 0..20 {
            a.iterate();
            b.iterate();
        }
        assert!(crate::checks::identical(&a.frontier(), &b.frontier()));
        // The clone's calls show up in the original's total.
        assert!(counted.calls() > 1000);
        assert!(counted.ns_per_call(Duration::from_millis(1)) > 0.0);
    }
}
