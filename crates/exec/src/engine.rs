//! Plan execution: interprets optimizer plans over synthetic data.
//!
//! The engine implements every operator of the resource cost model
//! ([`moqo_cost::operators`]): sequential and index scans; block nested
//! loop (two block sizes), in-memory hash, Grace hash, and sort-merge
//! joins; pipelined vs. materialized transfer. Join predicates are the
//! conjunction of equi-joins over the catalog edges crossing the operand
//! cut — no crossing edge means a cross product, exactly like the
//! optimizer's unconstrained plan space.
//!
//! The measured counters are I/O-centric to match the cost model's page
//! formulas: `tuples_processed` counts tuples *read, written or emitted*
//! (not CPU comparisons), buffer counters track rows held in memory, and
//! `spilled_rows` counts partition/run/materialization writes.

use moqo_catalog::Catalog;
use moqo_core::fxhash::FxHashMap;
use moqo_core::plan::{Plan, PlanKind};
use moqo_core::tables::{TableId, TableSet};
use moqo_cost::operators::{JoinKind, JoinOp, ScanKind};

use crate::datagen::Database;
use crate::stats::{ExecStats, OperatorStats};

/// Rows per block-nested-loop block page (mirrors the cost model's
/// tuples-per-page constant).
const TUPLES_PER_PAGE: usize = 100;

/// Run size (rows) of the external sort's run-generation phase.
const SORT_RUN_ROWS: usize = 512;

/// Grace hash join partition count.
const GRACE_PARTITIONS: usize = 8;

/// Execution failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An intermediate result exceeded the configured row limit.
    RowLimit {
        /// The configured limit.
        limit: usize,
    },
    /// The plan references an operator id the engine cannot interpret
    /// (e.g. a plan built for a different cost model).
    UnknownOperator(u16),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::RowLimit { limit } => {
                write!(f, "intermediate result exceeded the row limit {limit}")
            }
            ExecError::UnknownOperator(id) => write!(f, "unknown operator id {id}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A materialized intermediate result: tuples of base-table row indices.
#[derive(Clone, Debug)]
pub struct ResultSet {
    /// The covered tables, ascending.
    pub tables: Vec<TableId>,
    /// One entry per output tuple: row indices aligned with `tables`.
    pub tuples: Vec<Vec<u32>>,
}

impl ResultSet {
    /// Number of result tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Sorts tuples lexicographically so results compare structurally.
    pub fn canonicalize(&mut self) {
        self.tuples.sort_unstable();
    }

    fn position(&self, t: TableId) -> usize {
        self.tables
            .iter()
            .position(|x| *x == t)
            .expect("covered table")
    }
}

/// A finished execution: the result plus measured resource usage.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The (canonicalized) result set.
    pub result: ResultSet,
    /// Measured resource usage.
    pub stats: ExecStats,
}

/// Executes `plan` against `db` with the default row limit (2 million).
pub fn execute(plan: &Plan, catalog: &Catalog, db: &Database) -> Result<Execution, ExecError> {
    execute_with_limit(plan, catalog, db, 2_000_000)
}

/// Executes with an explicit intermediate-result row limit.
pub fn execute_with_limit(
    plan: &Plan,
    catalog: &Catalog,
    db: &Database,
    row_limit: usize,
) -> Result<Execution, ExecError> {
    let engine = Engine {
        catalog,
        db,
        row_limit,
    };
    let mut stats = ExecStats::default();
    let mut result = engine.eval(plan, &mut stats)?;
    result.canonicalize();
    flush_obs(&stats);
    Ok(Execution { result, stats })
}

/// Flushes one finished execution's measured usage into the global
/// observability registry (counters + peak-buffer histogram) and journals
/// an `ExecFinished` event when the exec target is enabled.
fn flush_obs(stats: &ExecStats) {
    use moqo_obs::journal::{self, EventKind, Level, Target};
    let m = moqo_obs::metrics();
    m.exec_runs.incr();
    m.exec_tuples.add(stats.tuples_processed);
    m.exec_spilled_rows.add(stats.spilled_rows);
    m.exec_peak_buffer_rows.record(stats.peak_buffer_rows);
    if journal::enabled(Target::Exec, Level::Info) {
        let (tuples, spilled) = (stats.tuples_processed, stats.spilled_rows);
        journal::emit_with(Target::Exec, Level::Info, || EventKind::ExecFinished {
            tuples,
            spilled,
        });
    }
}

struct Engine<'a> {
    catalog: &'a Catalog,
    db: &'a Database,
    row_limit: usize,
}

/// The equi-join predicate across a cut: pairs of (edge id, outer table,
/// inner table) for every catalog edge crossing the cut.
struct CutPredicate {
    parts: Vec<(usize, TableId, TableId)>,
}

impl<'a> Engine<'a> {
    fn eval(&self, plan: &Plan, stats: &mut ExecStats) -> Result<ResultSet, ExecError> {
        match plan.kind() {
            PlanKind::Scan { table, op } => {
                if op.0 > 1 {
                    return Err(ExecError::UnknownOperator(op.0));
                }
                Ok(self.scan(*table, ScanKind::from_id(*op), stats))
            }
            PlanKind::Join { outer, inner, op } => {
                if op.0 as usize >= JoinKind::ALL.len() * 2 {
                    return Err(ExecError::UnknownOperator(op.0));
                }
                let left = self.eval(outer, stats)?;
                let right = self.eval(inner, stats)?;
                self.join(
                    left,
                    right,
                    JoinOp::from_id(*op),
                    outer.rel(),
                    inner.rel(),
                    stats,
                )
            }
        }
    }

    fn scan(&self, table: TableId, kind: ScanKind, stats: &mut ExecStats) -> ResultSet {
        let data = self.db.table(table);
        let mut rows: Vec<u32> = (0..data.rows as u32).collect();
        let mut op = OperatorStats {
            tuples: data.rows as u64,
            ..OperatorStats::default()
        };
        match kind {
            ScanKind::Sequential => {
                op.buffered_rows = (data.rows as u64).min(64);
            }
            ScanKind::Index => {
                // Index order: sorted by the first key column (or row id
                // when the table has no incident edges).
                if let Some(col) = data.columns.first() {
                    rows.sort_by_key(|&r| col[r as usize]);
                }
                op.buffered_rows = 1;
            }
        }
        stats.absorb_operator(op);
        ResultSet {
            tables: vec![table],
            tuples: rows.into_iter().map(|r| vec![r]).collect(),
        }
    }

    fn cut_predicate(&self, outer: TableSet, inner: TableSet) -> CutPredicate {
        let mut parts = Vec::new();
        for (e, edge) in self.catalog.edges().iter().enumerate() {
            if outer.contains(edge.a) && inner.contains(edge.b) {
                parts.push((e, edge.a, edge.b));
            } else if outer.contains(edge.b) && inner.contains(edge.a) {
                parts.push((e, edge.b, edge.a));
            }
        }
        CutPredicate { parts }
    }

    /// Composite key of an outer-side tuple under the cut predicate.
    fn outer_key(&self, pred: &CutPredicate, rs: &ResultSet, tuple: &[u32]) -> Vec<i64> {
        pred.parts
            .iter()
            .map(|&(e, ot, _)| self.db.key(ot, e, tuple[rs.position(ot)] as usize))
            .collect()
    }

    /// Composite key of an inner-side tuple under the cut predicate.
    fn inner_key(&self, pred: &CutPredicate, rs: &ResultSet, tuple: &[u32]) -> Vec<i64> {
        pred.parts
            .iter()
            .map(|&(e, _, it)| self.db.key(it, e, tuple[rs.position(it)] as usize))
            .collect()
    }

    fn join(
        &self,
        left: ResultSet,
        right: ResultSet,
        op: JoinOp,
        outer_rel: TableSet,
        inner_rel: TableSet,
        stats: &mut ExecStats,
    ) -> Result<ResultSet, ExecError> {
        let pred = self.cut_predicate(outer_rel, inner_rel);
        let mut op_stats = OperatorStats::default();
        let tuples = match op.kind {
            JoinKind::Hash => self.hash_join(&pred, &left, &right, &mut op_stats)?,
            JoinKind::GraceHash => self.grace_join(&pred, &left, &right, &mut op_stats)?,
            JoinKind::BnlSmall => self.bnl_join(&pred, &left, &right, 4, &mut op_stats)?,
            JoinKind::BnlLarge => self.bnl_join(&pred, &left, &right, 64, &mut op_stats)?,
            JoinKind::SortMerge => self.merge_join(&pred, &left, &right, &mut op_stats)?,
        };
        if op.materialize {
            op_stats.spilled_rows += tuples.len() as u64;
            op_stats.tuples += tuples.len() as u64;
        }
        stats.absorb_operator(op_stats);

        // Output schema: union of both sides, ascending by table id.
        let mut tables = left.tables.clone();
        tables.extend(&right.tables);
        let mut order: Vec<usize> = (0..tables.len()).collect();
        order.sort_by_key(|&i| tables[i]);
        let tables_sorted: Vec<TableId> = order.iter().map(|&i| tables[i]).collect();
        let tuples_sorted: Vec<Vec<u32>> = tuples
            .into_iter()
            .map(|t| order.iter().map(|&i| t[i]).collect())
            .collect();
        Ok(ResultSet {
            tables: tables_sorted,
            tuples: tuples_sorted,
        })
    }

    fn emit_check(&self, emitted: usize) -> Result<(), ExecError> {
        if emitted > self.row_limit {
            Err(ExecError::RowLimit {
                limit: self.row_limit,
            })
        } else {
            Ok(())
        }
    }

    /// Concatenated output tuple (left columns then right columns,
    /// re-ordered by the caller).
    fn concat(l: &[u32], r: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(l.len() + r.len());
        out.extend_from_slice(l);
        out.extend_from_slice(r);
        out
    }

    fn hash_join(
        &self,
        pred: &CutPredicate,
        left: &ResultSet,
        right: &ResultSet,
        op: &mut OperatorStats,
    ) -> Result<Vec<Vec<u32>>, ExecError> {
        // Build on the inner (right) input.
        let mut table: FxHashMap<Vec<i64>, Vec<usize>> = FxHashMap::default();
        for (idx, tuple) in right.tuples.iter().enumerate() {
            table
                .entry(self.inner_key(pred, right, tuple))
                .or_default()
                .push(idx);
        }
        op.buffered_rows = right.len() as u64;
        op.tuples += right.len() as u64;
        let mut out = Vec::new();
        for ltuple in &left.tuples {
            op.tuples += 1;
            if let Some(matches) = table.get(&self.outer_key(pred, left, ltuple)) {
                for &ridx in matches {
                    out.push(Self::concat(ltuple, &right.tuples[ridx]));
                }
                self.emit_check(out.len())?;
            }
        }
        op.tuples += out.len() as u64;
        Ok(out)
    }

    fn grace_join(
        &self,
        pred: &CutPredicate,
        left: &ResultSet,
        right: &ResultSet,
        op: &mut OperatorStats,
    ) -> Result<Vec<Vec<u32>>, ExecError> {
        // Partition both inputs by key hash ("writing" them to disk).
        let hash_of = |key: &[i64]| -> usize {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for k in key {
                h = (h ^ *k as u64).wrapping_mul(0x1000_0000_01b3);
            }
            (h % GRACE_PARTITIONS as u64) as usize
        };
        let mut left_parts: Vec<Vec<usize>> = vec![Vec::new(); GRACE_PARTITIONS];
        let mut right_parts: Vec<Vec<usize>> = vec![Vec::new(); GRACE_PARTITIONS];
        for (idx, tuple) in left.tuples.iter().enumerate() {
            left_parts[hash_of(&self.outer_key(pred, left, tuple))].push(idx);
        }
        for (idx, tuple) in right.tuples.iter().enumerate() {
            right_parts[hash_of(&self.inner_key(pred, right, tuple))].push(idx);
        }
        op.spilled_rows += (left.len() + right.len()) as u64;
        // Partition write + read back.
        op.tuples += 2 * (left.len() + right.len()) as u64;

        let mut out = Vec::new();
        for p in 0..GRACE_PARTITIONS {
            let mut table: FxHashMap<Vec<i64>, Vec<usize>> = FxHashMap::default();
            for &ridx in &right_parts[p] {
                table
                    .entry(self.inner_key(pred, right, &right.tuples[ridx]))
                    .or_default()
                    .push(ridx);
            }
            op.buffered_rows = op.buffered_rows.max(right_parts[p].len() as u64);
            for &lidx in &left_parts[p] {
                let ltuple = &left.tuples[lidx];
                if let Some(matches) = table.get(&self.outer_key(pred, left, ltuple)) {
                    for &ridx in matches {
                        out.push(Self::concat(ltuple, &right.tuples[ridx]));
                    }
                    self.emit_check(out.len())?;
                }
            }
        }
        op.tuples += out.len() as u64;
        Ok(out)
    }

    fn bnl_join(
        &self,
        pred: &CutPredicate,
        left: &ResultSet,
        right: &ResultSet,
        block_pages: usize,
        op: &mut OperatorStats,
    ) -> Result<Vec<Vec<u32>>, ExecError> {
        let block_rows = (block_pages.saturating_sub(2)).max(1) * TUPLES_PER_PAGE;
        op.buffered_rows = block_rows.min(left.len().max(1)) as u64;
        op.tuples += left.len() as u64;
        let mut out = Vec::new();
        let mut first_pass = true;
        for block in left.tuples.chunks(block_rows.max(1)) {
            if !first_pass {
                op.rescans += 1;
            }
            first_pass = false;
            // One full inner scan per block.
            op.tuples += right.len() as u64;
            for rtuple in &right.tuples {
                let rkey = self.inner_key(pred, right, rtuple);
                for ltuple in block {
                    if self.outer_key(pred, left, ltuple) == rkey {
                        out.push(Self::concat(ltuple, rtuple));
                    }
                }
                self.emit_check(out.len())?;
            }
        }
        op.tuples += out.len() as u64;
        Ok(out)
    }

    fn merge_join(
        &self,
        pred: &CutPredicate,
        left: &ResultSet,
        right: &ResultSet,
        op: &mut OperatorStats,
    ) -> Result<Vec<Vec<u32>>, ExecError> {
        // External sort both inputs: run generation "spills" both inputs.
        let mut lkeys: Vec<(Vec<i64>, usize)> = left
            .tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (self.outer_key(pred, left, t), i))
            .collect();
        let mut rkeys: Vec<(Vec<i64>, usize)> = right
            .tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (self.inner_key(pred, right, t), i))
            .collect();
        lkeys.sort_unstable();
        rkeys.sort_unstable();
        op.spilled_rows += (left.len() + right.len()) as u64;
        // Run write + merge read.
        op.tuples += 2 * (left.len() + right.len()) as u64;
        op.buffered_rows = SORT_RUN_ROWS.min(left.len() + right.len()) as u64;

        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lkeys.len() && j < rkeys.len() {
            match lkeys[i].0.cmp(&rkeys[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Emit the full group product.
                    let key = lkeys[i].0.clone();
                    let i_end = (i..lkeys.len())
                        .find(|&x| lkeys[x].0 != key)
                        .unwrap_or(lkeys.len());
                    let j_end = (j..rkeys.len())
                        .find(|&x| rkeys[x].0 != key)
                        .unwrap_or(rkeys.len());
                    for lkey in &lkeys[i..i_end] {
                        for rkey in &rkeys[j..j_end] {
                            out.push(Self::concat(&left.tuples[lkey.1], &right.tuples[rkey.1]));
                        }
                        self.emit_check(out.len())?;
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        op.tuples += out.len() as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::DataGenConfig;
    use moqo_core::arena::PlanArena;
    use moqo_core::plan::{Plan, PlanRef};
    use moqo_core::random_plan::random_plan_in;
    use moqo_cost::{ResourceCostModel, ResourceMetric};
    use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup(
        n: usize,
        shape: GraphShape,
        seed: u64,
        max_rows: usize,
    ) -> (
        Arc<moqo_catalog::Catalog>,
        ResourceCostModel,
        Database,
        TableSet,
    ) {
        let (catalog, query) = WorkloadSpec {
            tables: n,
            shape,
            selectivity: SelectivityMethod::MinMax,
            seed,
        }
        .generate();
        let db = Database::generate(&catalog, DataGenConfig { seed, max_rows });
        let model = ResourceCostModel::new(catalog.clone(), &ResourceMetric::ALL);
        (catalog, model, db, query.tables())
    }

    fn op(kind: JoinKind, materialize: bool) -> moqo_core::model::JoinOpId {
        JoinOp { kind, materialize }.id()
    }

    /// Reference join: brute-force nested loops in test code.
    fn brute_force(
        catalog: &moqo_catalog::Catalog,
        db: &Database,
        tables: &[TableId],
    ) -> Vec<Vec<u32>> {
        let mut acc: Vec<Vec<u32>> = vec![vec![]];
        for (pos, &t) in tables.iter().enumerate() {
            let mut next = Vec::new();
            for base in &acc {
                for r in 0..db.table(t).rows as u32 {
                    // Check edges between t and all previously placed tables.
                    let ok = catalog.edges().iter().enumerate().all(|(e, edge)| {
                        let other = if edge.a == t {
                            edge.b
                        } else if edge.b == t {
                            edge.a
                        } else {
                            return true;
                        };
                        match tables[..pos].iter().position(|x| *x == other) {
                            None => true,
                            Some(oidx) => {
                                db.key(t, e, r as usize) == db.key(other, e, base[oidx] as usize)
                            }
                        }
                    });
                    if ok {
                        let mut tuple = base.clone();
                        tuple.push(r);
                        next.push(tuple);
                    }
                }
            }
            acc = next;
        }
        // Canonical order: tables ascending (input is ascending already).
        acc.sort_unstable();
        acc
    }

    #[test]
    fn every_join_operator_computes_the_same_result() {
        // Fixed cardinalities/selectivity (instead of a random workload) so
        // the join is guaranteed non-empty for any RNG stream.
        let mut builder = moqo_catalog::Catalog::builder();
        let ta = builder.add_table("a", 50.0);
        let tb = builder.add_table("b", 60.0);
        builder.add_join(ta, tb, 0.05);
        let catalog = Arc::new(builder.build());
        let db = Database::generate(
            &catalog,
            DataGenConfig {
                seed: 3,
                max_rows: 60,
            },
        );
        let model = ResourceCostModel::new(catalog.clone(), &ResourceMetric::ALL);
        let t0 = TableId::new(0);
        let t1 = TableId::new(1);
        let s0 = Plan::scan(&model, t0, ScanKind::Sequential.id());
        let s1 = Plan::scan(&model, t1, ScanKind::Index.id());
        let expected = brute_force(&catalog, &db, &[t0, t1]);
        assert!(!expected.is_empty(), "fixture: join must produce rows");
        for kind in JoinKind::ALL {
            for materialize in [false, true] {
                let plan = Plan::join(&model, s0.clone(), s1.clone(), op(kind, materialize));
                let exec = execute(&plan, &catalog, &db).expect("execution succeeds");
                assert_eq!(
                    exec.result.tuples, expected,
                    "{:?}/mat={materialize} computed a different result",
                    kind
                );
            }
        }
    }

    #[test]
    fn all_plans_for_a_query_agree() {
        // The fundamental equivalence invariant: random plans (any join
        // order, any operators) compute identical results.
        let (catalog, model, db, query) = setup(4, GraphShape::Chain, 7, 40);
        let mut rng = StdRng::seed_from_u64(9);
        let reference: Option<Vec<Vec<u32>>> = None;
        let mut reference = reference;
        let mut arena = PlanArena::new();
        for _ in 0..12 {
            let id = random_plan_in(&mut arena, &model, query, &mut rng);
            let plan: PlanRef = arena.export(id);
            let exec = execute(&plan, &catalog, &db).expect("execution succeeds");
            match &reference {
                None => reference = Some(exec.result.tuples),
                Some(r) => assert_eq!(
                    &exec.result.tuples,
                    r,
                    "plan {} disagrees",
                    plan.display(&model)
                ),
            }
        }
    }

    #[test]
    fn cross_products_are_supported() {
        // A star query joined satellite-first forces a cross product.
        let (catalog, model, db, _) = setup(3, GraphShape::Star, 5, 30);
        let s1 = Plan::scan(&model, TableId::new(1), ScanKind::Sequential.id());
        let s2 = Plan::scan(&model, TableId::new(2), ScanKind::Sequential.id());
        let cross = Plan::join(&model, s1, s2, op(JoinKind::Hash, false));
        let exec = execute(&cross, &catalog, &db).expect("cross product");
        assert_eq!(
            exec.result.len(),
            db.table(TableId::new(1)).rows * db.table(TableId::new(2)).rows
        );
        // Completing the join with the hub filters it back down.
        let hub = Plan::scan(&model, TableId::new(0), ScanKind::Sequential.id());
        let full = Plan::join(&model, cross, hub, op(JoinKind::Hash, false));
        let exec2 = execute(&full, &catalog, &db).expect("full query");
        assert!(exec2.result.len() < exec.result.len());
        let expected = brute_force(
            &catalog,
            &db,
            &[TableId::new(0), TableId::new(1), TableId::new(2)],
        );
        assert_eq!(exec2.result.len(), expected.len());
    }

    #[test]
    fn measured_tradeoffs_match_the_cost_model_story() {
        let (catalog, model, db, _) = setup(2, GraphShape::Chain, 11, 400);
        let s0 = Plan::scan(&model, TableId::new(0), ScanKind::Sequential.id());
        let s1 = Plan::scan(&model, TableId::new(1), ScanKind::Sequential.id());
        let run = |kind: JoinKind| {
            let plan = Plan::join(&model, s0.clone(), s1.clone(), op(kind, false));
            execute(&plan, &catalog, &db).unwrap().stats
        };
        let hash = run(JoinKind::Hash);
        let bnl = run(JoinKind::BnlSmall);
        let grace = run(JoinKind::GraceHash);
        // Hash buffers the whole inner; BNL-4 buffers only a block.
        assert!(hash.peak_buffer_rows > bnl.peak_buffer_rows);
        // BNL re-scans the inner; hash does not.
        assert!(bnl.inner_rescans > 0 || db.table(TableId::new(0)).rows <= 200);
        assert_eq!(hash.inner_rescans, 0);
        // Grace spills, hash does not; grace buffers less than hash.
        assert!(grace.spilled_rows > 0);
        assert_eq!(hash.spilled_rows, 0);
        assert!(grace.peak_buffer_rows <= hash.peak_buffer_rows);
        // BNL processes more tuples (re-scans) than hash.
        assert!(bnl.tuples_processed >= hash.tuples_processed);
    }

    #[test]
    fn materialization_spills_output() {
        let (catalog, model, db, _) = setup(2, GraphShape::Chain, 13, 100);
        let s0 = Plan::scan(&model, TableId::new(0), ScanKind::Sequential.id());
        let s1 = Plan::scan(&model, TableId::new(1), ScanKind::Sequential.id());
        let pipe = execute(
            &Plan::join(&model, s0.clone(), s1.clone(), op(JoinKind::Hash, false)),
            &catalog,
            &db,
        )
        .unwrap();
        let mat = execute(
            &Plan::join(&model, s0, s1, op(JoinKind::Hash, true)),
            &catalog,
            &db,
        )
        .unwrap();
        assert_eq!(pipe.result.tuples, mat.result.tuples);
        assert_eq!(
            mat.stats.spilled_rows,
            pipe.stats.spilled_rows + pipe.result.len() as u64
        );
    }

    #[test]
    fn row_limit_guards_explosions() {
        let (catalog, model, db, _) = setup(3, GraphShape::Star, 17, 200);
        let s1 = Plan::scan(&model, TableId::new(1), ScanKind::Sequential.id());
        let s2 = Plan::scan(&model, TableId::new(2), ScanKind::Sequential.id());
        let cross = Plan::join(&model, s1, s2, op(JoinKind::Hash, false));
        let err = execute_with_limit(&cross, &catalog, &db, 10).unwrap_err();
        assert_eq!(err, ExecError::RowLimit { limit: 10 });
        assert!(err.to_string().contains("row limit"));
    }

    #[test]
    fn unknown_operators_are_rejected() {
        // Invalid operator ids cannot be constructed through a cost model
        // (`Plan::scan`/`Plan::join` cost the node at construction), so the
        // engine's guard is exercised via its error type; a well-formed
        // plan over the same database must execute fine.
        let (catalog, model, db, _) = setup(2, GraphShape::Chain, 19, 50);
        let s0 = Plan::scan(&model, TableId::new(0), ScanKind::Sequential.id());
        let s1 = Plan::scan(&model, TableId::new(1), ScanKind::Sequential.id());
        let plan = Plan::join(&model, s0, s1, op(JoinKind::Hash, false));
        assert!(execute(&plan, &catalog, &db).is_ok());
        assert_eq!(
            ExecError::UnknownOperator(7).to_string(),
            "unknown operator id 7"
        );
    }

    #[test]
    fn index_scans_produce_key_ordered_rows() {
        let (catalog, model, db, _) = setup(2, GraphShape::Chain, 23, 80);
        let t = TableId::new(0);
        let plan = Plan::scan(&model, t, ScanKind::Index.id());
        let exec = execute(&plan, &catalog, &db).unwrap();
        // Canonicalization re-sorts by row id, so instead verify the scan
        // emitted every row exactly once.
        assert_eq!(exec.result.len(), db.table(t).rows);
        let mut seen: Vec<u32> = exec.result.tuples.iter().map(|t| t[0]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), db.table(t).rows);
    }
}
