//! The energy cost model: execution time vs. energy consumption.
//!
//! The paper lists "energy consumption \[22\]" among the cost metrics that
//! motivate multi-objective query optimization (§3, citing Xu et al.'s PET
//! optimizer, *"PET: Reducing Database Energy Cost via Query Optimization"*,
//! VLDB 2012). PET trades execution time against energy by running query
//! operators at different processor frequency settings: higher frequency
//! finishes sooner but burns super-linearly more dynamic power, while lower
//! frequency stretches execution and accumulates static (leakage) energy.
//!
//! We reproduce that mechanism with frequency-graded operator variants:
//!
//! * `time(work, f) = work / f`
//! * `energy(work, f) = work · (dynamic · f² + static / f)`
//!
//! The dynamic term models the classic cubic-power/linear-speed DVFS law
//! (`P_dyn ∝ f³`, so energy per unit of work `∝ f²`); the static term is
//! leakage power integrated over the stretched runtime. The sum is convex
//! in `f` with an interior energy-optimal frequency — running as slow as
//! possible does **not** minimize energy, which is PET's central
//! observation. Frequencies above the optimum trade energy for time, so
//! the per-operator (time, energy) profile is a genuine Pareto frontier.
//!
//! Both metrics stay additive along the plan tree, preserving the
//! principle of optimality (paper footnote 1).

use std::sync::Arc;

use moqo_catalog::Catalog;
use moqo_core::cost::{CostVector, MIN_COST};
use moqo_core::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
use moqo_core::tables::TableId;

use crate::cardinality::{rows_to_pages, JoinPair};

/// Relative frequency settings offered for every operator (1.0 = nominal).
pub const FREQUENCIES: [f64; 5] = [0.5, 0.75, 1.0, 1.25, 1.5];

/// Join algorithm families of the energy model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnergyJoinKind {
    /// Hash join: extra build pass over the inner.
    Hash,
    /// Sort-merge join: sorts both inputs, cheapest output pass.
    SortMerge,
}

impl EnergyJoinKind {
    /// All kinds.
    pub const ALL: [EnergyJoinKind; 2] = [EnergyJoinKind::Hash, EnergyJoinKind::SortMerge];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EnergyJoinKind::Hash => "HashJoin",
            EnergyJoinKind::SortMerge => "MergeJoin",
        }
    }
}

/// Power-model parameters.
#[derive(Clone, Copy, Debug)]
pub struct EnergyParams {
    /// Tuples per page.
    pub tuples_per_page: f64,
    /// Dynamic-energy coefficient (`energy += work · dynamic · f²`).
    pub dynamic: f64,
    /// Static/leakage-energy coefficient (`energy += work · static / f`).
    pub static_leak: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            tuples_per_page: 100.0,
            dynamic: 1.0,
            static_leak: 0.5,
        }
    }
}

impl EnergyParams {
    /// Energy per unit of work at relative frequency `f`.
    pub fn energy_per_work(&self, f: f64) -> f64 {
        self.dynamic * f * f + self.static_leak / f
    }

    /// The frequency minimizing energy per unit of work:
    /// `d/df (dynamic·f² + static/f) = 0  ⇒  f* = (static / (2·dynamic))^⅓`.
    pub fn energy_optimal_frequency(&self) -> f64 {
        (self.static_leak / (2.0 * self.dynamic)).cbrt()
    }
}

/// Time/energy cost model over a [`Catalog`].
///
/// Metric 0 is execution time, metric 1 is energy. Cloning is cheap
/// (Arc-shared catalog).
#[derive(Clone)]
pub struct EnergyCostModel {
    catalog: Arc<Catalog>,
    params: EnergyParams,
    scan_ops: Vec<ScanOpId>,
    join_ops: Vec<JoinOpId>,
}

impl EnergyCostModel {
    /// Creates the model with default power parameters.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::with_params(catalog, EnergyParams::default())
    }

    /// Creates the model with explicit power parameters.
    pub fn with_params(catalog: Arc<Catalog>, params: EnergyParams) -> Self {
        EnergyCostModel {
            catalog,
            params,
            scan_ops: (0..FREQUENCIES.len() as u16).map(ScanOpId).collect(),
            join_ops: (0..(FREQUENCIES.len() * EnergyJoinKind::ALL.len()) as u16)
                .map(JoinOpId)
                .collect(),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The power-model parameters.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Decodes a scan operator id into its frequency.
    pub fn decode_scan(op: ScanOpId) -> f64 {
        FREQUENCIES[op.0 as usize]
    }

    /// Decodes a join operator id into `(kind, frequency)`.
    pub fn decode_join(op: JoinOpId) -> (EnergyJoinKind, f64) {
        let kind = EnergyJoinKind::ALL[op.0 as usize / FREQUENCIES.len()];
        let freq = FREQUENCIES[op.0 as usize % FREQUENCIES.len()];
        (kind, freq)
    }

    fn join_pair(&self, outer: &PlanView, inner: &PlanView) -> JoinPair {
        JoinPair::new(&self.catalog, outer, inner, self.params.tuples_per_page)
    }

    /// Properties of the join node for one operator, given what the
    /// operand pair alone determines. Both `join_props` and
    /// `join_props_all` end here, so they agree bit for bit. Inlined into
    /// the batch loop, where it halves the per-operator time: the
    /// `PlanProps` are then built in place instead of returned through
    /// memory.
    #[inline]
    fn join_node(
        &self,
        outer: &PlanView,
        inner: &PlanView,
        op: JoinOpId,
        pair: &JoinPair,
    ) -> PlanProps {
        let (rows, pages) = (pair.rows, pair.pages);
        let (kind, freq) = Self::decode_join(op);
        let work = match kind {
            EnergyJoinKind::Hash => 1.5 * inner.pages + outer.pages + 0.2 * pages,
            EnergyJoinKind::SortMerge => {
                let sort = |p: f64| p * (1.0 + p.max(1.0).log2() * 0.2);
                sort(outer.pages) + sort(inner.pages) + 0.1 * pages
            }
        };
        let (time, energy) = self.time_energy(work, freq);
        PlanProps {
            cost: pair.inputs.add(&CostVector::new(&[time, energy])),
            rows,
            pages,
            format: OutputFormat(0),
        }
    }

    /// (time, energy) of `work` units executed at relative frequency `f`.
    fn time_energy(&self, work: f64, f: f64) -> (f64, f64) {
        let time = work / f;
        let energy = work * self.params.energy_per_work(f);
        (time.max(MIN_COST), energy.max(MIN_COST))
    }
}

impl CostModel for EnergyCostModel {
    fn dim(&self) -> usize {
        2
    }

    fn metric_name(&self, k: usize) -> &str {
        match k {
            0 => "time",
            _ => "energy",
        }
    }

    fn num_tables(&self) -> usize {
        self.catalog.num_tables()
    }

    fn scan_ops(&self, _table: TableId) -> &[ScanOpId] {
        &self.scan_ops
    }

    fn join_ops(&self, _outer: &PlanView, _inner: &PlanView, out: &mut Vec<JoinOpId>) {
        out.extend_from_slice(&self.join_ops);
    }

    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
        let rows = self.catalog.rows(table);
        let pages = rows_to_pages(rows, self.params.tuples_per_page);
        let (time, energy) = self.time_energy(pages, Self::decode_scan(op));
        PlanProps {
            cost: CostVector::new(&[time, energy]),
            rows,
            pages,
            format: OutputFormat(0),
        }
    }

    fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
        self.join_node(outer, inner, op, &self.join_pair(outer, inner))
    }

    fn join_props_all(
        &self,
        outer: &PlanView,
        inner: &PlanView,
        ops: &[JoinOpId],
        out: &mut Vec<PlanProps>,
    ) {
        let pair = self.join_pair(outer, inner);
        out.extend(
            ops.iter()
                .map(|&op| self.join_node(outer, inner, op, &pair)),
        );
    }

    fn scan_op_name(&self, op: ScanOpId) -> String {
        format!("Scan@{}", Self::decode_scan(op))
    }

    fn join_op_name(&self, op: JoinOpId) -> String {
        let (kind, freq) = Self::decode_join(op);
        format!("{}@{freq}", kind.name())
    }

    fn num_formats(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::CatalogBuilder;
    use moqo_core::archive::ArchiveConfig;
    use moqo_core::optimizer::{drive, Budget, NullObserver};
    use moqo_core::plan::Plan;
    use moqo_core::rmq::{Rmq, RmqConfig};
    use moqo_core::tables::TableSet;

    fn catalog(n: usize) -> Arc<Catalog> {
        let mut b = CatalogBuilder::default();
        let ids: Vec<TableId> = (0..n)
            .map(|i| b.add_table(format!("t{i}"), 30_000.0 / (i + 1) as f64))
            .collect();
        for w in ids.windows(2) {
            b.add_join(w[0], w[1], 1e-4);
        }
        Arc::new(b.build())
    }

    #[test]
    fn higher_frequency_is_faster() {
        let m = EnergyCostModel::new(catalog(2));
        let t = TableId::new(0);
        let slow = Plan::scan(&m, t, ScanOpId(0)); // f = 0.5
        let fast = Plan::scan(&m, t, ScanOpId(4)); // f = 1.5
        assert!(fast.cost()[0] < slow.cost()[0]);
    }

    #[test]
    fn energy_optimal_frequency_is_interior() {
        // PET's key observation: neither the slowest nor the fastest
        // setting minimizes energy.
        let p = EnergyParams::default();
        let f_star = p.energy_optimal_frequency();
        assert!(f_star > FREQUENCIES[0] && f_star < FREQUENCIES[4]);
        let e_min = p.energy_per_work(f_star);
        assert!(p.energy_per_work(FREQUENCIES[0]) > e_min);
        assert!(p.energy_per_work(FREQUENCIES[4]) > e_min);
    }

    #[test]
    fn frequencies_above_optimum_trade_energy_for_time() {
        let m = EnergyCostModel::new(catalog(2));
        let t = TableId::new(0);
        // f = 1.0 and f = 1.5 both sit above the default optimum (≈ 0.63):
        // the faster one must strictly pay more energy.
        let nominal = Plan::scan(&m, t, ScanOpId(2));
        let turbo = Plan::scan(&m, t, ScanOpId(4));
        assert!(turbo.cost()[0] < nominal.cost()[0]);
        assert!(turbo.cost()[1] > nominal.cost()[1]);
        // Neither plan dominates the other: a genuine tradeoff.
        assert!(!turbo.cost().dominates(nominal.cost()));
        assert!(!nominal.cost().dominates(turbo.cost()));
    }

    #[test]
    fn below_optimal_frequencies_are_dominated() {
        // At f = 0.5 < f*, raising the frequency toward f* improves *both*
        // metrics, so the slowest setting is Pareto-dominated. Local search
        // must therefore never keep it.
        let m = EnergyCostModel::new(catalog(2));
        let t = TableId::new(0);
        let crawl = Plan::scan(&m, t, ScanOpId(0)); // f = 0.5
        let near_opt = Plan::scan(&m, t, ScanOpId(1)); // f = 0.75
        assert!(near_opt.cost().strictly_dominates(crawl.cost()));
    }

    #[test]
    fn decode_round_trips() {
        for id in 0..10u16 {
            let (kind, f) = EnergyCostModel::decode_join(JoinOpId(id));
            assert!(FREQUENCIES.contains(&f));
            assert!(EnergyJoinKind::ALL.contains(&kind));
        }
        assert_eq!(EnergyCostModel::decode_scan(ScanOpId(2)), 1.0);
    }

    #[test]
    fn costs_accumulate_upwards() {
        let m = EnergyCostModel::new(catalog(3));
        let s0 = Plan::scan(&m, TableId::new(0), ScanOpId(2));
        let s1 = Plan::scan(&m, TableId::new(1), ScanOpId(3));
        let j = Plan::join(&m, s0.clone(), s1.clone(), JoinOpId(0));
        assert!(s0.cost().add(s1.cost()).dominates(j.cost()));
    }

    #[test]
    fn rmq_finds_time_energy_frontier() {
        let m = EnergyCostModel::new(catalog(4));
        let q = TableSet::prefix(4);
        let cfg = RmqConfig {
            archive: ArchiveConfig::fixed(1.0),
            ..RmqConfig::seeded(13)
        };
        let mut rmq = Rmq::new(&m, q, cfg);
        drive(&mut rmq, Budget::Iterations(80), &mut NullObserver);
        let frontier = rmq.frontier();
        assert!(
            frontier.len() >= 2,
            "expected a tradeoff, got {}",
            frontier.len()
        );
        // No frontier plan may run everything below the energy-optimal
        // frequency band: such plans are dominated (see above).
        let tmin = frontier
            .iter()
            .map(|p| p.cost()[0])
            .fold(f64::MAX, f64::min);
        let tmax = frontier.iter().map(|p| p.cost()[0]).fold(0.0, f64::max);
        assert!(tmax > tmin, "degenerate frontier");
    }

    #[test]
    fn names_reflect_frequency() {
        let m = EnergyCostModel::new(catalog(2));
        assert_eq!(m.scan_op_name(ScanOpId(0)), "Scan@0.5");
        assert_eq!(m.join_op_name(JoinOpId(5)), "MergeJoin@0.5");
        assert_eq!(m.metric_name(0), "time");
        assert_eq!(m.metric_name(1), "energy");
    }
}
