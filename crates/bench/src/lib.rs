//! Shared fixtures of the benchmark targets (`benches/`) and the
//! deterministic perf-baseline harness (`src/bin/harness.rs`), and the one
//! declaration of every field the harness emits ([`FIELDS`]) with the
//! regression gate that walks it ([`diff`], the `bench_diff` binary).
//!
//! Everything here is seeded and deterministic: the same inputs drive the
//! Criterion micro-benchmarks and the `BENCH_rmq.json` baseline runs, so
//! numbers from either source are comparable across PRs.

use moqo_core::cost::CostVector;
use moqo_core::TableSet;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// The paper's two-metric setting: an `n`-table cycle query over the
/// time/buffer resource cost model with Steinbrunn selectivities,
/// deterministically seeded. Its frontiers hold 2–4 plans, so it drives
/// timing only (kernels, the executor workload, the Criterion benches).
pub fn resource_model(n: usize) -> (ResourceCostModel, TableSet) {
    let (catalog, query) = WorkloadSpec {
        tables: n,
        shape: GraphShape::Cycle,
        selectivity: SelectivityMethod::Steinbrunn,
        seed: 7,
    }
    .generate();
    (
        ResourceCostModel::new(catalog, &[ResourceMetric::Time, ResourceMetric::Buffer]),
        query.tables(),
    )
}

/// The structural fixture: an `n`-table chain query over all three
/// resource metrics ([`ResourceMetric::ALL`]) with MinMax selectivities —
/// a real tradeoff, whose RMQ frontiers hold 12 plans at n = 12 and 19 at
/// n = 20 (seed 42). Every exact-gated optimizer field runs on it.
pub fn minmax_chain(n: usize) -> (ResourceCostModel, TableSet) {
    let (catalog, query) = WorkloadSpec {
        tables: n,
        shape: GraphShape::Chain,
        selectivity: SelectivityMethod::MinMax,
        seed: 7,
    }
    .generate();
    (ResourceCostModel::full(catalog), query.tables())
}

/// `len` deterministic cost vectors of `dim` metrics, uniform in
/// `[0.1, 100.1)` per metric; consecutive pairs feed the dominance kernels.
pub fn uniform_costs(len: usize, dim: usize, seed: u64) -> Vec<CostVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let v: Vec<f64> = (0..dim)
                .map(|_| rng.random::<f64>() * 100.0 + 0.1)
                .collect();
            CostVector::new(&v)
        })
        .collect()
}

/// Relative tolerance of an [`Gate::Exact`] numeric comparison.
const EXACT_TOLERANCE: f64 = 1e-12;

/// A [`Gate::Timing`] field may reach this multiple of its baseline:
/// hosted CI runners are slow and noisy.
pub const TIMING_MARGIN: f64 = 6.0;

/// A [`Gate::Speedup`] or [`Gate::Scaling`] ratio may move this factor in
/// its worse direction: ratios divide out the machine, so this is lax.
pub const SPEEDUP_MARGIN: f64 = 2.5;

/// Which direction of a ratio is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput ratios).
    Higher,
    /// Smaller is better (shed ratios).
    Lower,
}

/// How [`diff`] compares one field of a candidate with its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Deterministic (fixed seeds, sequential or deterministic-mode runs):
    /// equal to the baseline, numbers to a relative 1e-12. Drift is a
    /// behaviour change.
    Exact,
    /// Load-, schedule- or machine-dependent: present, value free.
    Present,
    /// Nanoseconds per operation: at most baseline × [`TIMING_MARGIN`].
    Timing,
    /// A same-run ratio, > 1 when the optimized side is faster: at least
    /// baseline ÷ [`SPEEDUP_MARGIN`].
    Speedup,
    /// A ratio that needs real cores, gated like [`Gate::Speedup`] in the
    /// given direction; only a warning when either file comes from a host
    /// with one hardware thread.
    Scaling(Better),
}

/// One emitted field: its section (`""` for the document root, `[]` for
/// an array of entries), its key within an entry, and its gate.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    /// Top-level section, e.g. `rmq[]` or `speedups`.
    pub section: &'static str,
    /// Path within the section, e.g. `checkpoints[].frontier_size`.
    pub key: &'static str,
    /// How `bench_diff` gates it.
    pub gate: Gate,
}

impl Field {
    /// The full path, e.g. `rmq[].checkpoints[].frontier_size`.
    pub fn path(&self) -> String {
        if self.section.is_empty() {
            self.key.to_string()
        } else {
            format!("{}.{}", self.section, self.key)
        }
    }
}

macro_rules! fields {
    ($($section:literal { $($key:literal: $gate:expr),* $(,)? })*) => {
        &[$($(Field { section: $section, key: $key, gate: $gate },)*)*]
    };
}

use Gate::{Exact, Present, Scaling, Speedup, Timing};

/// Every field of `BENCH_rmq.json` (schema v11), each exactly once. The
/// harness emits these and nothing else (its tests check both ways), and
/// `bench_diff` gates each one by its [`Gate`].
pub const FIELDS: &[Field] = fields! {
    "" { "schema_version": Exact, "mode": Exact, "host_parallelism": Present }
    "micro[]" { "name": Exact, "ops_per_round": Exact, "rounds": Exact, "ns_per_op": Timing }
    "speedups" {
        "insert_approx_bucketed_vs_linear": Speedup, "insert_climb_bucketed_vs_linear": Speedup,
        "dominance_soa_vs_scalar_d8": Speedup,
    }
    "arena" { "nodes": Exact, "dedup_hits": Exact, "dedup_rate": Exact }
    "eps_archive" {
        "dim": Exact, "stream_len": Exact, "exact_size": Exact, "exact_blowup": Exact,
        "points[].eps": Exact, "points[].archive_size": Exact, "points[].eps_rejects": Exact,
    }
    "rmq[]" {
        "tables": Exact, "metrics": Exact, "seed": Exact, "checkpoints[].iterations": Exact,
        "checkpoints[].frontier_size": Exact, "median_path_length": Exact,
        "cache_table_sets": Exact, "cache_plans": Exact, "arena_nodes": Exact,
        "arena_dedup_rate": Exact,
    }
    "obs[]" {
        "tables": Exact, "seed": Exact, "iterations": Exact, "climb_candidates": Exact,
        "climb_agg_key_skips": Exact, "climb_dominance_tests": Exact, "climb_rejected": Exact,
        "climb_admitted": Exact, "climb_evicted": Exact, "pareto_blocks_screened": Exact,
        "pareto_eps_rejects": Exact, "pareto_archive_size": Exact, "arena_interns": Exact,
        "arena_dedup_hits": Exact,
    }
    "convergence[]" {
        "tables": Exact, "seed": Exact, "points[].iteration": Exact,
        "points[].frontier_size": Exact, "points[].hypervolume": Exact, "final_hypervolume": Exact,
    }
    "par_rmq[]" {
        "tables": Exact, "threads": Exact, "seed": Exact, "iterations": Present,
        "iters_per_sec": Present, "speedup_vs_1_thread": Scaling(Better::Higher),
        "live_frontier_size": Present, "live_hypervolume": Present, "exchange_publishes": Present,
        "exchange_absorbed": Present, "exchange_partial_offered": Present,
        "exchange_partial_merged": Present, "exchange_partial_epochs": Present,
        "exchange_partial_table_sets": Present, "det_iterations": Exact, "det_frontier_size": Exact,
        "det_hypervolume": Exact,
    }
    "exec_pool" {
        "sessions": Exact, "pool_workers": Exact, "wide_fan_out": Exact,
        "iterations_per_session": Exact, "pooled.iters_per_sec": Present,
        "pooled.p99_ttff_ms": Present, "scoped.iters_per_sec": Present,
        "scoped.p99_ttff_ms": Present, "pooled_vs_scoped_iters_per_sec": Scaling(Better::Higher),
        "pool_batches": Present, "pool_steals": Present, "pool_donations": Present,
    }
    "frontdoor" {
        "sessions": Exact, "tenants": Exact, "shards": Exact, "templates": Exact, "seed": Exact,
        "tenant_skew": Exact, "query_skew": Exact, "top_tenant_per_mille": Exact,
        "top_template_per_mille": Exact, "distinct_templates": Exact,
        "degraded_run.offered": Present, "degraded_run.admitted": Present,
        "degraded_run.coalesced": Present, "degraded_run.degraded": Present,
        "degraded_run.shed": Present, "degraded_run.shed_per_mille": Present,
        "degraded_run.ttff_p50_ms": Present, "degraded_run.ttff_p99_ms": Present,
        "plain_run.offered": Present, "plain_run.admitted": Present, "plain_run.coalesced": Present,
        "plain_run.degraded": Present, "plain_run.shed": Present,
        "plain_run.shed_per_mille": Present, "plain_run.ttff_p50_ms": Present,
        "plain_run.ttff_p99_ms": Present, "degraded_vs_plain_shed": Scaling(Better::Lower),
    }
};

/// One leaf of a baseline document.
pub struct Leaf<'a> {
    /// With array indices: `rmq[1].checkpoints[0].frontier_size`.
    pub path: String,
    /// As declared in [`FIELDS`]: `rmq[].checkpoints[].frontier_size`.
    pub declared: String,
    /// The value.
    pub value: &'a Value,
}

/// Every leaf of `doc`, in document order.
pub fn leaves(doc: &Value) -> Vec<Leaf<'_>> {
    fn walk<'a>(path: String, declared: String, value: &'a Value, out: &mut Vec<Leaf<'a>>) {
        match value {
            Value::Object(fields) => {
                for (k, child) in fields {
                    let dot = if path.is_empty() { "" } else { "." };
                    walk(
                        format!("{path}{dot}{k}"),
                        format!("{declared}{dot}{k}"),
                        child,
                        out,
                    );
                }
            }
            Value::Array(items) => {
                for (i, child) in items.iter().enumerate() {
                    walk(format!("{path}[{i}]"), format!("{declared}[]"), child, out);
                }
            }
            _ => out.push(Leaf {
                path,
                declared,
                value,
            }),
        }
    }
    let mut out = Vec::new();
    walk(String::new(), String::new(), doc, &mut out);
    out
}

/// The declarations of `declared` (a path as in [`FIELDS`]).
fn declarations(declared: &str) -> impl Iterator<Item = &'static Field> + '_ {
    FIELDS.iter().filter(move |f| f.path() == declared)
}

/// The gate of a declared path.
pub fn gate_of(declared: &str) -> Option<Gate> {
    declarations(declared).next().map(|f| f.gate)
}

/// Checks `doc` against [`FIELDS`]: each leaf declared exactly once, each
/// declaration emitted. Returns one line per violation.
pub fn schema_violations(doc: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let mut emitted = std::collections::HashSet::new();
    for leaf in leaves(doc) {
        match declarations(&leaf.declared).count() {
            1 => {}
            0 => out.push(format!("`{}` has no declaration in FIELDS", leaf.path)),
            n => out.push(format!("`{}` is declared {n} times in FIELDS", leaf.path)),
        }
        emitted.insert(leaf.declared);
    }
    for field in FIELDS {
        if !emitted.contains(&field.path()) {
            out.push(format!("declared field `{}` is not emitted", field.path()));
        }
    }
    out
}

/// The outcome of [`diff`].
#[derive(Debug, Default)]
pub struct Report {
    /// Gates evaluated.
    pub checks: usize,
    /// Failed gates: `bench_diff` exits non-zero on any.
    pub violations: Vec<String>,
    /// Failed gates demoted to warnings, and host mismatches.
    pub warnings: Vec<String>,
}

/// Gates a candidate baseline against a checked-in one: both must follow
/// [`FIELDS`], every baseline leaf must exist in the candidate at the same
/// path (arrays entry by entry), and each value must pass its [`Gate`].
pub fn diff(base: &Value, cand: &Value) -> Report {
    let mut report = Report::default();
    for (name, doc) in [("baseline", base), ("candidate", cand)] {
        for v in schema_violations(doc) {
            report.violations.push(format!("{name}: {v}"));
        }
    }
    let cores = |doc: &Value| doc.get("host_parallelism").and_then(Value::as_f64);
    if let (Some(b), Some(c)) = (cores(base), cores(cand)) {
        if b != c {
            report.warnings.push(format!(
                "baseline generated on {b} hardware threads, candidate on {c}: \
                 timing and scaling fields are not directly comparable"
            ));
        }
    }
    let multicore = cores(base).is_none_or(|p| p > 1.0) && cores(cand).is_none_or(|p| p > 1.0);
    let mut cand_leaves: std::collections::HashMap<String, &Value> = leaves(cand)
        .into_iter()
        .map(|l| (l.path, l.value))
        .collect();
    for Leaf {
        path,
        declared,
        value: b,
    } in leaves(base)
    {
        let Some(gate) = gate_of(&declared) else {
            continue; // reported by `schema_violations`
        };
        report.checks += 1;
        let Some(c) = cand_leaves.remove(&path) else {
            report
                .violations
                .push(format!("`{path}`: dropped by the candidate"));
            continue;
        };
        let failure = match (gate, b.as_f64(), c.as_f64()) {
            (Gate::Present, ..) => None,
            (Gate::Exact, Some(bn), Some(cn)) => ((bn - cn).abs()
                > EXACT_TOLERANCE * bn.abs().max(cn.abs()).max(1.0))
            .then(|| format!("`{path}` drifted: baseline {bn} vs candidate {cn}")),
            (Gate::Exact, ..) => {
                (b != c).then(|| format!("`{path}` drifted: baseline {b} vs candidate {c}"))
            }
            (Gate::Timing, Some(bn), Some(cn)) => (cn > bn * TIMING_MARGIN)
                .then(|| format!("`{path}`: {cn:.1} exceeds baseline {bn:.1} × {TIMING_MARGIN}")),
            (Gate::Speedup | Gate::Scaling(Better::Higher), Some(bn), Some(cn)) => {
                (cn < bn / SPEEDUP_MARGIN).then(|| {
                    format!("`{path}`: {cn:.3} fell below baseline {bn:.3} ÷ {SPEEDUP_MARGIN}")
                })
            }
            (Gate::Scaling(Better::Lower), Some(bn), Some(cn)) => (cn > bn * SPEEDUP_MARGIN)
                .then(|| format!("`{path}`: {cn:.3} exceeds baseline {bn:.3} × {SPEEDUP_MARGIN}")),
            _ => Some(format!(
                "`{path}`: not a number (baseline {b}, candidate {c})"
            )),
        };
        match failure {
            Some(msg) if matches!(gate, Gate::Scaling(_)) && !multicore => report
                .warnings
                .push(format!("{msg} (a single-core host has no scaling to gate)")),
            Some(msg) => report.violations.push(msg),
            None => {}
        }
    }
    // What is left is new: entries or fields the baseline does not have.
    let mut extra: Vec<String> = cand_leaves.into_keys().collect();
    extra.sort();
    for path in extra {
        report
            .violations
            .push(format!("`{path}`: not in the baseline (regenerate it)"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(name: &str) -> Value {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        serde_json::from_str(&text).expect("baseline parses")
    }

    fn baselines() -> [Value; 2] {
        [baseline("BENCH_rmq.json"), baseline("BENCH_rmq.quick.json")]
    }

    /// The `(key, value)` entry of the leaf at `path` (with indices).
    fn entry_mut<'a>(doc: &'a mut Value, path: &str) -> &'a mut (String, Value) {
        let (parent, key) = path.rsplit_once('.').unwrap_or(("", path));
        let mut v = doc;
        for step in parent.split(['.', '[']).filter(|s| !s.is_empty()) {
            v = match (v, step.strip_suffix(']')) {
                (Value::Array(items), Some(i)) => &mut items[i.parse::<usize>().unwrap()],
                (Value::Object(fields), None) => {
                    &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1
                }
                _ => panic!("`{path}` has no step `{step}`"),
            };
        }
        let Value::Object(fields) = v else {
            panic!("`{parent}` is not an object")
        };
        fields.iter_mut().find(|(k, _)| k == key).unwrap()
    }

    #[test]
    fn checked_in_baselines_follow_the_declaration() {
        for doc in baselines() {
            assert_eq!(schema_violations(&doc), Vec::<String>::new());
        }
    }

    #[test]
    fn a_baseline_diffed_against_itself_passes() {
        for doc in baselines() {
            let report = diff(&doc, &doc);
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            assert_eq!(report.checks, leaves(&doc).len());
        }
    }

    #[test]
    fn changing_any_exact_value_fails() {
        let base = baseline("BENCH_rmq.quick.json");
        let exact: Vec<String> = leaves(&base)
            .into_iter()
            .filter(|l| gate_of(&l.declared) == Some(Gate::Exact))
            .map(|l| l.path)
            .collect();
        assert!(exact.len() > 50, "only {} exact values", exact.len());
        for path in exact {
            let mut cand = base.clone();
            let v = &mut entry_mut(&mut cand, &path).1;
            *v = match v {
                Value::Number(n) => Value::Number(*n * 1.001 + 1.0),
                Value::String(s) => Value::String(format!("{s}~")),
                other => panic!("unexpected exact leaf {other}"),
            };
            assert!(
                !diff(&base, &cand).violations.is_empty(),
                "`{path}` went ungated"
            );
        }
    }

    #[test]
    fn removing_any_declared_field_fails() {
        let base = baseline("BENCH_rmq.quick.json");
        for field in FIELDS {
            let leaf = leaves(&base)
                .into_iter()
                .find(|l| l.declared == field.path());
            let mut cand = base.clone();
            // Renaming the key removes the field (and adds an undeclared one).
            entry_mut(&mut cand, &leaf.expect("emitted").path)
                .0
                .push('~');
            let report = diff(&base, &cand);
            let dropped = report.violations.iter().any(|v| v.contains("dropped"));
            assert!(dropped, "removing `{}` went unnoticed", field.path());
        }
    }

    #[test]
    fn the_readme_table_matches_the_declaration() {
        // One row per section and gate, in declaration order.
        let mut rows: Vec<(&str, Gate, String)> = Vec::new();
        for f in FIELDS {
            match rows
                .iter_mut()
                .find(|(s, g, _)| *s == f.section && *g == f.gate)
            {
                Some((_, _, keys)) => *keys += &format!(", `{}`", f.key),
                None => rows.push((f.section, f.gate, format!("`{}`", f.key))),
            }
        }
        let rows: Vec<String> = rows
            .iter()
            .map(|(s, g, k)| format!("| {s} | {g:?} | {k} |"))
            .collect();
        let table = rows.join("\n");
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        assert!(
            readme.unwrap().contains(&table),
            "README's field table should be:\n{table}"
        );
    }

    #[test]
    fn scaling_ratios_only_warn_on_a_single_core_host() {
        let base = baseline("BENCH_rmq.quick.json");
        let mut cand = base.clone();
        entry_mut(&mut cand, "exec_pool.pooled_vs_scoped_iters_per_sec").1 = Value::Number(1e-9);
        assert_eq!(diff(&base, &cand).violations.len(), 1);
        entry_mut(&mut cand, "host_parallelism").1 = Value::Number(1.0);
        let report = diff(&base, &cand);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.warnings.len(), 2, "{:?}", report.warnings);
    }
}
