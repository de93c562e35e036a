//! One worker's end of the exchange: what it has published and what it has
//! read, so that both directions cost what changed since last time.

use moqo_core::model::CostModel;
use moqo_core::plan::PlanRef;
use moqo_core::rmq::Rmq;

use crate::frontier::{SharedFrontier, Staging};

/// A worker's publisher tag plus its cursor into the [`SharedFrontier`]
/// delta log. One port serves one [`Rmq`] for its lifetime: the port is the
/// single reader of that optimizer's cache change list.
#[derive(Debug)]
pub struct ExchangePort {
    publisher: u32,
    /// Delta-log length this worker has read up to.
    cursor: usize,
    /// Reused buffer between the log read and the warm start, so the log
    /// lock is not held while plans are imported.
    inbox: Vec<PlanRef>,
    /// Reused buffers for the survivors of this worker's partial publishes.
    staging: Staging,
}

impl ExchangePort {
    /// A port that publishes under `publisher`'s tag and never reads its own
    /// entries back. Tags must differ between the workers of one run.
    pub fn new(publisher: u32) -> Self {
        ExchangePort {
            publisher,
            cursor: 0,
            inbox: Vec::new(),
            staging: Staging::default(),
        }
    }

    /// Offers the multi-table plans the worker's cache admitted since the
    /// previous call — the query's own table set like every sub-query's;
    /// single-table frontiers are trivial to rediscover — and empties the
    /// change list. Returns the plans merged. With an empty change list no
    /// lock is taken.
    pub fn publish_partials<M: CostModel>(
        &mut self,
        rmq: &mut Rmq<M>,
        shared: &SharedFrontier,
    ) -> usize {
        let merged = {
            let mut sets = rmq
                .cache()
                .changed_sets()
                .filter(|(rel, _, _)| !rel.is_singleton())
                .peekable();
            match sets.peek() {
                Some(_) => shared.publish_partials_staged(
                    self.publisher,
                    rmq.arena(),
                    sets,
                    &mut self.staging,
                ),
                None => 0,
            }
        };
        rmq.clear_changed_sets();
        merged
    }

    /// Warm-starts the worker with every plan other publishers logged since
    /// the previous call — query and sub-query survivors alike; they land
    /// under their own table sets without re-entering the change list.
    /// Returns the plans absorbed. With nothing new in the log this is one
    /// atomic load.
    pub fn absorb<M: CostModel>(&mut self, rmq: &mut Rmq<M>, shared: &SharedFrontier) -> usize {
        self.cursor = shared.read_delta(self.cursor, self.publisher, &mut self.inbox);
        if self.inbox.is_empty() {
            return 0;
        }
        // Same model on every worker, so no dimension filtering is needed;
        // warm_start inserts with exact pruning and can never evict better
        // plans the worker finds later.
        let absorbed = rmq.warm_start(self.inbox.drain(..));
        shared.record_absorbed(absorbed);
        absorbed
    }

    /// The delta-log position this worker has read up to: its reading of
    /// the exchange epoch ([`SharedFrontier::epoch`]).
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::rmq::RmqConfig;
    use moqo_core::tables::TableSet;

    #[test]
    fn a_worker_never_absorbs_what_it_published_itself() {
        let mut rmq = Rmq::new(
            StubModel::line(7, 2, 7),
            TableSet::prefix(7),
            RmqConfig::seeded(3),
        );
        for _ in 0..12 {
            rmq.iterate();
        }
        let shared = SharedFrontier::new();
        let mut port = ExchangePort::new(0);
        assert!(port.publish_partials(&mut rmq, &shared) > 0);
        let probes = rmq.cache().counters();
        assert_eq!(port.absorb(&mut rmq, &shared), 0);
        assert_eq!(port.cursor(), shared.epoch(), "the cursor moved past them");
        assert_eq!(rmq.cache().counters(), probes, "own plans were probed");
        assert_eq!(shared.stats().absorbed, 0);
        // Another worker's port sees all of it.
        let mut other = Rmq::new(
            StubModel::line(7, 2, 7),
            TableSet::prefix(7),
            RmqConfig::seeded(4),
        );
        assert!(ExchangePort::new(1).absorb(&mut other, &shared) > 0);
    }

    #[test]
    fn absorbed_plans_are_not_offered_back() {
        let shared = SharedFrontier::new();
        let mut workers: Vec<_> = (0..2u32)
            .map(|w| {
                let mut rmq = Rmq::new(
                    StubModel::line(7, 2, 7),
                    TableSet::prefix(7),
                    RmqConfig::seeded(10 + u64::from(w)),
                );
                for _ in 0..10 {
                    rmq.iterate();
                }
                (rmq, ExchangePort::new(w))
            })
            .collect();
        for (rmq, port) in workers.iter_mut() {
            port.publish_partials(rmq, &shared);
        }
        let (rmq, port) = &mut workers[0];
        assert!(port.absorb(rmq, &shared) > 0);
        let offered = shared.stats().partial_offered;
        assert_eq!(port.publish_partials(rmq, &shared), 0);
        assert_eq!(shared.stats().partial_offered, offered);
    }
}
