//! Metric tables and the result line.
//!
//! The two tables below are the single source of the metric names: the
//! result line is built from them, `BENCHMARK.json` lists exactly them (a
//! unit test compares the two), and `README.md` explains them.

use std::collections::BTreeMap;

/// Direction of a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a caller of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric from the traced run.
pub struct PerLayer {
    /// Metric name (`<module>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric it should move (glossary only).
    pub feeds: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload on `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("iters_per_s", "1/s", Higher, 0.25),
    e2e("sessions_per_s", "1/s", Higher, 0.25),
    e2e("ttff_p50_ms", "ms", Lower, 0.25),
    e2e("ttff_tail_ms", "ms", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("pick_cost_log10", "log10_cost", Lower, 0.2),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    feeds: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        feeds,
    }
}

/// The per-layer metrics, reported by every workload on `--trace 1`
/// (0 where a layer does not run in that workload).
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.random_plan.time_share", "ratio", Lower, "iters_per_s"),
    layer("core.random_plan.ns_per_call", "ns", Lower, "iters_per_s"),
    layer("core.climb.time_share", "ratio", Lower, "iters_per_s"),
    layer("core.climb.us_per_call", "us", Lower, "iters_per_s"),
    layer("core.climb.steps_per_call", "count", Lower, "iters_per_s"),
    layer(
        "core.climb.candidates_per_iter",
        "count",
        Lower,
        "iters_per_s",
    ),
    layer("cost.calls_per_iter", "count", Lower, "iters_per_s"),
    layer("cost.ns_per_call", "ns", Lower, "iters_per_s"),
    layer("cost.time_share", "ratio", Lower, "iters_per_s"),
    layer("core.pareto.probes_per_iter", "count", Lower, "iters_per_s"),
    layer(
        "core.pareto.dominance_tests_per_probe",
        "count",
        Lower,
        "iters_per_s",
    ),
    layer(
        "core.pareto.agg_key_skip_ratio",
        "ratio",
        Higher,
        "iters_per_s",
    ),
    layer("core.pareto.admit_ratio", "ratio", Higher, "iters_per_s"),
    layer(
        "core.pareto.blocks_screened_per_iter",
        "count",
        Lower,
        "iters_per_s",
    ),
    layer("core.frontier.time_share", "ratio", Lower, "iters_per_s"),
    layer("core.frontier.us_per_call", "us", Lower, "iters_per_s"),
    layer("core.cache.plans", "count", Lower, "peak_rss_mb"),
    layer("core.cache.table_sets", "count", Lower, "peak_rss_mb"),
    layer("core.cache.max_frontier", "count", Lower, "iters_per_s"),
    layer(
        "core.cache.insert_admit_ratio",
        "ratio",
        Higher,
        "iters_per_s",
    ),
    layer("core.arena.adopt_time_share", "ratio", Lower, "iters_per_s"),
    layer("core.arena.nodes", "count", Lower, "peak_rss_mb"),
    layer("core.arena.dedup_rate", "ratio", Higher, "peak_rss_mb"),
    layer(
        "core.rmq.loop_overhead_share",
        "ratio",
        Lower,
        "iters_per_s",
    ),
    layer("core.rmq.iter_p50_us", "us", Lower, "iters_per_s"),
    layer("core.rmq.iter_tail_us", "us", Lower, "ttff_tail_ms"),
    layer("core.rmq.first_iter_ms", "ms", Lower, "ttff_p50_ms"),
    layer("core.rmq.frontier_size", "count", Higher, "pick_cost_log10"),
    layer("core.rmq.tt_target_ms", "ms", Lower, "pick_cost_log10"),
    layer("parallel.speedup_vs_seq", "ratio", Higher, "iters_per_s"),
    layer("parallel.w1_vs_seq", "ratio", Higher, "iters_per_s"),
    layer("parallel.exchange.publishes", "count", Lower, "iters_per_s"),
    layer(
        "parallel.exchange.partial_offered_per_iter",
        "count",
        Lower,
        "iters_per_s",
    ),
    layer(
        "parallel.exchange.partial_merge_ratio",
        "ratio",
        Higher,
        "iters_per_s",
    ),
    layer(
        "parallel.exchange.absorbed_per_iter",
        "count",
        Lower,
        "iters_per_s",
    ),
    layer("parallel.exchange.publish_ms", "ms", Lower, "iters_per_s"),
    layer("parallel.worker_imbalance", "ratio", Lower, "iters_per_s"),
    layer("parallel.pool.spawn_to_run_us", "us", Lower, "ttff_p50_ms"),
    layer("frontdoor.submit_p50_ms", "ms", Lower, "ttff_p50_ms"),
    layer("frontdoor.submit_tail_ms", "ms", Lower, "ttff_tail_ms"),
    layer("frontdoor.submit_fresh_p50_ms", "ms", Lower, "ttff_p50_ms"),
    layer(
        "frontdoor.submit_coalesced_p50_ms",
        "ms",
        Lower,
        "ttff_p50_ms",
    ),
    layer(
        "frontdoor.coalesce_share",
        "ratio",
        Higher,
        "sessions_per_s",
    ),
    layer(
        "frontdoor.degraded_share",
        "ratio",
        Lower,
        "pick_cost_log10",
    ),
    layer("frontdoor.shed_share", "ratio", Lower, "sessions_per_s"),
    layer(
        "frontdoor.quota_reject_share",
        "ratio",
        Lower,
        "sessions_per_s",
    ),
    layer("frontdoor.gen_late_tail_ms", "ms", Lower, "ttff_tail_ms"),
    layer("service.queue_wait_p50_ms", "ms", Lower, "ttff_p50_ms"),
    layer("service.queue_wait_tail_ms", "ms", Lower, "ttff_tail_ms"),
    layer("service.step_busy_share", "ratio", Higher, "sessions_per_s"),
    layer("service.steps_per_s", "1/s", Higher, "iters_per_s"),
    layer("service.cache_hit_rate", "ratio", Higher, "latency_p50_ms"),
    layer(
        "service.warm_plans_per_session",
        "count",
        Higher,
        "ttff_p50_ms",
    ),
    layer("service.ttff_reported_p99_ms", "ms", Lower, "ttff_tail_ms"),
    layer("service.tt90_p50_ms", "ms", Lower, "latency_p50_ms"),
    layer("obs.trace_overhead_share", "ratio", Lower, "iters_per_s"),
    layer("obs.enabled_overhead_share", "ratio", Lower, "iters_per_s"),
    layer("obs.spans_dropped", "count", Lower, "iters_per_s"),
];

/// What one benchmark run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (optimization runs, or front-door requests).
    pub attempted: u64,
    /// Operations that failed: panicked, missed their target, failed a
    /// correctness check, were shed, timed out or ended on an empty frontier.
    pub failed: u64,
    /// One line per failure (printed to stderr).
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form notes for the human table (sample counts, percentiles).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Runs `body`, converting a panic inside the system under test into one
    /// failed operation instead of a failed run.
    pub fn guarded<T>(&mut self, what: &str, body: impl FnOnce() -> T) -> Option<T> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `(name, unit, better)` of the metrics a run with the given trace flag
/// must report, in table order.
pub fn expected(trace: bool) -> Vec<(&'static str, &'static str, Better)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    }
}

/// Formats a number with all its digits, JSON-safe (non-finite → 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
///
/// # Panics
/// Panics when an end-to-end metric is missing — a workload that forgot one
/// must not print a result. Per-layer metrics a workload does not produce
/// read 0.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit, _)) in expected(trace).into_iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    out.push_str("}}");
    out
}

/// The human-readable table: every metric by name with unit and direction.
pub fn human_table(workload: &str, outcome: &Outcome, trace: bool, smoke: bool) -> String {
    let mut out = format!(
        "== {workload} ({}{}) attempted={} failed={} failed_share={}\n",
        if trace { "traced" } else { "untraced" },
        if smoke {
            ", SMOKE: values are not comparable"
        } else {
            ""
        },
        outcome.attempted,
        outcome.failed,
        number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
    );
    for (name, unit, better) in expected(trace) {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let context = match (
            END_TO_END.iter().find(|m| m.name == name),
            PER_LAYER.iter().find(|m| m.name == name),
        ) {
            (Some(m), _) => format!("may worsen by {:.0} %", m.bound * 100.0),
            (_, Some(m)) => format!("feeds {}", m.feeds),
            _ => String::new(),
        };
        out.push_str(&format!(
            "  {name:<44} {:>16.6} {unit:<10} ({} is better; {context})\n",
            value,
            better.name()
        ));
    }
    for note in &outcome.notes {
        out.push_str(&format!("  note: {note}\n"));
    }
    out
}

/// The text of `BENCHMARK.json`: regenerate the file with
/// `moqo-benchmark --print-spec > BENCHMARK.json` after editing the tables.
pub fn benchmark_json(run_seconds: u32) -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let list = |out: &mut String, key: &str, rows: Vec<String>| {
        out.push_str(&format!(
            "  \"{key}\": [\n    {}\n  ]",
            rows.join(",\n    ")
        ));
    };
    list(
        &mut out,
        "workloads",
        crate::Workload::ALL
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
            .collect(),
    );
    out.push_str(",\n");
    list(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.name(),
                    m.bound
                )
            })
            .collect(),
    );
    out.push_str(",\n");
    list(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.name()
                )
            })
            .collect(),
    );
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER
            .iter()
            .all(|m| END_TO_END.iter().any(|e| e.name == m.feeds)));
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json(crate::RUN_SECONDS),
            "regenerate with `moqo-benchmark --print-spec > BENCHMARK.json`"
        );
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(
            doc["end_to_end"].as_array().unwrap().len(),
            END_TO_END.len()
        );
        assert_eq!(doc["per_layer"].as_array().unwrap().len(), PER_LAYER.len());
        for w in crate::Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains(['"', '\\', '\n']));
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut o = Outcome {
            attempted: 7,
            ..Outcome::default()
        };
        for m in END_TO_END {
            o.set(m.name, 1.25);
        }
        let line = result_line(&o, false);
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["correct"], true);
        assert_eq!(doc["attempted"], 7.0);
        assert_eq!(doc["metrics"]["setup_s"]["unit"], "s");
        // Traced lines fill unreported layers with 0.
        let doc: serde_json::Value = serde_json::from_str(&result_line(&o, true)).unwrap();
        assert_eq!(doc["metrics"]["obs.spans_dropped"]["value"], 0.0);
    }
}
