//! Regression gate for the perf baseline: diffs a freshly generated
//! `BENCH_rmq.json` against a checked-in baseline and fails (exit 1) on
//! regressions. CI's `bench-smoke` job runs the harness in `--quick` mode
//! and diffs the output against the checked-in quick baseline
//! (`BENCH_rmq.quick.json`).
//!
//! Two classes of checks:
//!
//! * **Structural** (exact): the deterministic fields — RMQ frontier sizes
//!   per checkpoint, median climbing path lengths, plan-cache occupancy,
//!   arena occupancy and dedup rate, the anytime convergence curves
//!   (checkpoint marks, frontier sizes, hypervolumes; schema v7), and the
//!   front-door replay's traffic shape (tenant/template skew
//!   concentrations; schema v8). These are bit-for-bit reproducible on
//!   any machine, so *any* drift is a behavior change that must be
//!   explained (and the baseline regenerated deliberately).
//! * **Timing** (generous noise margins): per-kernel ns/op may not exceed
//!   `baseline × --timing-margin` (default 5, CI runners are noisy), and
//!   each speedup ratio may not fall below `baseline ÷ --speedup-margin`
//!   (default 2; ratios divide out the machine, so this is already lax).
//!   Parallel-scaling ratios (`par_rmq` thread-scaling, the `exec_pool`
//!   pooled-vs-scoped throughput, the front-door degraded-vs-plain shed
//!   ratio) are demoted to warnings when either file was generated at
//!   `host_parallelism == 1` — a single hardware thread has no
//!   parallelism to measure. So is the one absolute ratio: in the
//!   candidate, `par_rmq` at one thread must reach 0.9× the sequential
//!   `rmq[]` run of the same fixture (a lone worker has nobody to exchange
//!   with) — also a warning in quick mode, whose 6 ms runs cannot resolve
//!   it.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p moqo-bench --bin bench_diff -- \
//!     --baseline BENCH_rmq.quick.json --candidate BENCH_rmq.ci.json \
//!     [--timing-margin 5.0] [--speedup-margin 2.0] [--skip-timing]
//! ```

use serde_json::Value;

struct Gate {
    violations: Vec<String>,
    checks: usize,
}

impl Gate {
    fn new() -> Self {
        Gate {
            violations: Vec::new(),
            checks: 0,
        }
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(msg());
        }
    }

    /// A ratio gate that can be demoted to a warning: parallel-scaling
    /// ratios are meaningless on a single hardware thread, so when either
    /// file was generated at `host_parallelism == 1` the check still runs
    /// but a failure only warns (schema v6). Likewise a ratio of two runs
    /// too short to resolve it.
    fn check_ratio(&mut self, hard: bool, ok: bool, msg: impl FnOnce() -> String) {
        if hard {
            self.check(ok, msg);
        } else {
            self.checks += 1;
            if !ok {
                eprintln!(
                    "bench_diff: warning (host_parallelism == 1 or quick mode) — {}",
                    msg()
                );
            }
        }
    }
}

fn f64_field(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn structural_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Exact comparison of the deterministic fields of one RMQ run.
fn diff_rmq(gate: &mut Gate, base: &Value, cand: &Value, tag: &str) {
    for key in [
        "median_path_length",
        "cache_table_sets",
        "cache_plans",
        "arena_nodes",
        "arena_dedup_rate",
    ] {
        match (f64_field(base, key), f64_field(cand, key)) {
            (Some(b), Some(c)) => gate.check(structural_eq(b, c), || {
                format!("{tag}: structural field `{key}` drifted: baseline {b} vs candidate {c}")
            }),
            (Some(_), None) => gate
                .violations
                .push(format!("{tag}: candidate dropped structural field `{key}`")),
            _ => {}
        }
    }
    let (Some(bc), Some(cc)) = (
        base.get("checkpoints").and_then(Value::as_array),
        cand.get("checkpoints").and_then(Value::as_array),
    ) else {
        gate.violations.push(format!("{tag}: missing checkpoints"));
        return;
    };
    gate.check(bc.len() == cc.len(), || {
        format!(
            "{tag}: checkpoint count changed: {} vs {}",
            bc.len(),
            cc.len()
        )
    });
    for (b, c) in bc.iter().zip(cc) {
        let iters = f64_field(b, "iterations").unwrap_or(-1.0);
        for key in ["iterations", "frontier_size"] {
            if let (Some(bv), Some(cv)) = (f64_field(b, key), f64_field(c, key)) {
                gate.check(structural_eq(bv, cv), || {
                    format!(
                        "{tag} checkpoint @{iters}: `{key}` drifted: baseline {bv} vs candidate {cv}"
                    )
                });
            }
        }
    }
}

/// Floor of `par_rmq[threads = 1].iters_per_sec` over the sequential
/// `rmq[]` run of the same fixture, in the candidate file.
const PAR1_VS_SEQ_FLOOR: f64 = 0.9;

fn main() {
    let mut baseline_path = None;
    let mut candidate_path = None;
    let mut timing_margin = 5.0f64;
    let mut speedup_margin = 2.0f64;
    let mut skip_timing = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} requires an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--baseline" => baseline_path = Some(take("--baseline")),
            "--candidate" => candidate_path = Some(take("--candidate")),
            "--timing-margin" => {
                timing_margin = take("--timing-margin").parse().unwrap_or_else(|_| {
                    eprintln!("--timing-margin must be a number");
                    std::process::exit(2);
                })
            }
            "--speedup-margin" => {
                speedup_margin = take("--speedup-margin").parse().unwrap_or_else(|_| {
                    eprintln!("--speedup-margin must be a number");
                    std::process::exit(2);
                })
            }
            "--skip-timing" => skip_timing = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench_diff --baseline A.json --candidate B.json \
                     [--timing-margin F] [--speedup-margin F] [--skip-timing]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let (Some(baseline_path), Some(candidate_path)) = (baseline_path, candidate_path) else {
        eprintln!("bench_diff: --baseline and --candidate are required (see --help)");
        std::process::exit(2);
    };
    let load = |path: &str| -> Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let base = load(&baseline_path);
    let cand = load(&candidate_path);
    let mut gate = Gate::new();

    // Schemas are additive: the candidate must be at least the baseline's
    // version, and both files must stem from the same mode.
    let bv = f64_field(&base, "schema_version").unwrap_or(0.0);
    let cv = f64_field(&cand, "schema_version").unwrap_or(0.0);
    gate.check(cv >= bv, || {
        format!("schema_version regressed: baseline {bv} vs candidate {cv}")
    });
    let mode = |v: &Value| {
        v.get("mode")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    gate.check(mode(&base) == mode(&cand), || {
        format!(
            "mode mismatch: baseline '{}' vs candidate '{}' (compare like with like)",
            mode(&base),
            mode(&cand)
        )
    });

    // Host parallelism (schema v4): a mismatch only warns — timing fields
    // are machine-relative anyway, but cross-core-count comparisons are
    // worth flagging because thread-scaling numbers shift with the host.
    // Schema v6: when either file was generated on a single hardware
    // thread, parallel-scaling *ratio* gates (par_rmq, exec_pool) are
    // demoted to warnings — there is no parallelism to measure.
    let base_hp = f64_field(&base, "host_parallelism");
    let cand_hp = f64_field(&cand, "host_parallelism");
    if let (Some(bp), Some(cp)) = (base_hp, cand_hp) {
        if bp != cp {
            eprintln!(
                "bench_diff: warning — baseline generated on a host with \
                 {bp} hardware threads, candidate on {cp}; timing and \
                 thread-scaling fields are not directly comparable"
            );
        }
    }
    let multicore = base_hp.is_none_or(|p| p > 1.0) && cand_hp.is_none_or(|p| p > 1.0);

    // Structural: the build kernel's interning stats are deterministic
    // (fixed seeds, fixed workload), so the arena block must match exactly.
    match (base.get("arena"), cand.get("arena")) {
        (Some(ba), Some(ca)) => {
            for key in ["nodes", "dedup_hits", "dedup_rate"] {
                match (f64_field(ba, key), f64_field(ca, key)) {
                    (Some(b), Some(c)) => gate.check(structural_eq(b, c), || {
                        format!("arena: structural field `{key}` drifted: baseline {b} vs candidate {c}")
                    }),
                    (Some(_), None) => gate
                        .violations
                        .push(format!("arena: candidate dropped field `{key}`")),
                    _ => {}
                }
            }
        }
        (Some(_), None) => gate
            .violations
            .push("candidate dropped the `arena` stats block".to_string()),
        _ => {}
    }

    // Structural: every baseline RMQ run must exist in the candidate with
    // identical deterministic fields.
    let rmq = |v: &Value| {
        v.get("rmq")
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default()
    };
    for b in &rmq(&base) {
        let tables = f64_field(b, "tables").unwrap_or(-1.0);
        let seed = f64_field(b, "seed").unwrap_or(-1.0);
        let tag = format!("rmq(tables={tables}, seed={seed})");
        match rmq(&cand)
            .iter()
            .find(|c| f64_field(c, "tables") == Some(tables) && f64_field(c, "seed") == Some(seed))
        {
            Some(c) => diff_rmq(&mut gate, b, c, &tag),
            None => gate
                .violations
                .push(format!("{tag}: missing from candidate")),
        }
    }

    // Structural (schema v3): every baseline `par_rmq` thread-scaling entry
    // must exist in the candidate with identical deterministic-mode fields.
    // The live-mode fields (iters/s, live frontier, exchange counters)
    // depend on timing and thread scheduling, so only their *presence* is
    // required — dropping a field is a schema regression even though its
    // value is free.
    let par = |v: &Value| {
        v.get("par_rmq")
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default()
    };
    for b in &par(&base) {
        let tables = f64_field(b, "tables").unwrap_or(-1.0);
        let threads = f64_field(b, "threads").unwrap_or(-1.0);
        let seed = f64_field(b, "seed").unwrap_or(-1.0);
        let tag = format!("par_rmq(tables={tables}, threads={threads}, seed={seed})");
        let Some(c) = par(&cand).into_iter().find(|c| {
            f64_field(c, "tables") == Some(tables)
                && f64_field(c, "threads") == Some(threads)
                && f64_field(c, "seed") == Some(seed)
        }) else {
            gate.violations
                .push(format!("{tag}: missing from candidate"));
            continue;
        };
        for key in ["det_iterations", "det_frontier_size", "det_hypervolume"] {
            match (f64_field(b, key), f64_field(&c, key)) {
                (Some(bv), Some(cv)) => gate.check(structural_eq(bv, cv), || {
                    format!(
                        "{tag}: structural field `{key}` drifted: baseline {bv} vs candidate {cv}"
                    )
                }),
                (Some(_), None) => gate
                    .violations
                    .push(format!("{tag}: candidate dropped structural field `{key}`")),
                _ => {}
            }
        }
        for key in [
            "iterations",
            "iters_per_sec",
            "live_frontier_size",
            "live_hypervolume",
            "exchange_publishes",
            "exchange_offered",
            "exchange_merged",
            "exchange_epochs",
            "exchange_absorbed",
        ] {
            gate.check(c.get(key).is_some(), || {
                format!("{tag}: candidate dropped live-mode field `{key}`")
            });
        }
        // Partial-plan exchange counters (schema v6): presence only — the
        // values depend on thread scheduling. Only required when the
        // baseline has them (v6+).
        for key in [
            "exchange_partial_offered",
            "exchange_partial_merged",
            "exchange_partial_epochs",
            "exchange_partial_table_sets",
        ] {
            if b.get(key).is_some() {
                gate.check(c.get(key).is_some(), || {
                    format!("{tag}: candidate dropped live-mode field `{key}`")
                });
            }
        }
    }
    if !par(&base).is_empty() && par(&cand).is_empty() {
        gate.violations
            .push("candidate dropped the `par_rmq` section".to_string());
    }

    // Executor workload (schema v6): every field must stay present; the
    // values (throughput, tail latency, steal counts) are timing- and
    // scheduling-dependent, so only the headline pooled-vs-scoped ratio is
    // gated — below, under the timing section, and demoted to a warning on
    // single-core hosts.
    match (base.get("exec_pool"), cand.get("exec_pool")) {
        (Some(_), Some(ce)) => {
            for key in [
                "sessions",
                "pool_workers",
                "wide_fan_out",
                "iterations_per_session",
                "pooled_vs_scoped_iters_per_sec",
                "pool_batches",
                "pool_steals",
                "pool_donations",
                "exchange_backoff_level",
            ] {
                gate.check(ce.get(key).is_some(), || {
                    format!("exec_pool: candidate dropped field `{key}`")
                });
            }
            for run in ["pooled", "scoped"] {
                let Some(cr) = ce.get(run) else {
                    gate.violations
                        .push(format!("exec_pool: candidate dropped the `{run}` run"));
                    continue;
                };
                for key in [
                    "elapsed_ms",
                    "total_iterations",
                    "iters_per_sec",
                    "p99_ttff_ms",
                ] {
                    gate.check(cr.get(key).is_some(), || {
                        format!("exec_pool.{run}: candidate dropped field `{key}`")
                    });
                }
            }
        }
        (Some(_), None) => gate
            .violations
            .push("candidate dropped the `exec_pool` section".to_string()),
        _ => {}
    }

    // Front-door heavy-traffic replay (schema v8): the traffic shape is
    // generated from fixed seeds, so its fields are bit-for-bit
    // reproducible — drift means the skew generators changed behavior.
    // The serving fields of the two runs are load- and machine-dependent
    // (presence only); the headline degraded-vs-plain shed ratio is gated
    // below, under the timing section.
    match (base.get("frontdoor"), cand.get("frontdoor")) {
        (Some(bf), Some(cf)) => {
            for key in [
                "sessions",
                "tenants",
                "shards",
                "templates",
                "seed",
                "tenant_skew",
                "query_skew",
                "top_tenant_per_mille",
                "top_template_per_mille",
                "distinct_templates",
            ] {
                match (f64_field(bf, key), f64_field(cf, key)) {
                    (Some(b), Some(c)) => gate.check(structural_eq(b, c), || {
                        format!("frontdoor.{key}: {c} differs from baseline {b}")
                    }),
                    (Some(_), None) => gate
                        .violations
                        .push(format!("frontdoor: candidate dropped field `{key}`")),
                    _ => {}
                }
            }
            gate.check(cf.get("degraded_vs_plain_shed").is_some(), || {
                "frontdoor: candidate dropped field `degraded_vs_plain_shed`".to_string()
            });
            for run in ["degraded_run", "plain_run"] {
                let Some(cr) = cf.get(run) else {
                    gate.violations
                        .push(format!("frontdoor: candidate dropped the `{run}` run"));
                    continue;
                };
                for key in [
                    "elapsed_ms",
                    "offered",
                    "admitted",
                    "coalesced",
                    "degraded",
                    "shed",
                    "shed_per_mille",
                    "coalesce_per_mille",
                    "degraded_per_mille",
                    "ttff_p50_ms",
                    "ttff_p99_ms",
                ] {
                    gate.check(cr.get(key).is_some(), || {
                        format!("frontdoor.{run}: candidate dropped field `{key}`")
                    });
                }
            }
        }
        (Some(_), None) => gate
            .violations
            .push("candidate dropped the `frontdoor` section".to_string()),
        _ => {}
    }

    // Structural (schema v4): the observability counter deltas of every
    // baseline RMQ fixture are deterministic — drift means the screening
    // or interning *behavior* of the hot path changed, not just its speed.
    let obs = |v: &Value| {
        v.get("obs")
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default()
    };
    for b in &obs(&base) {
        let tables = f64_field(b, "tables").unwrap_or(-1.0);
        let seed = f64_field(b, "seed").unwrap_or(-1.0);
        let tag = format!("obs(tables={tables}, seed={seed})");
        let Some(c) = obs(&cand)
            .into_iter()
            .find(|c| f64_field(c, "tables") == Some(tables) && f64_field(c, "seed") == Some(seed))
        else {
            gate.violations
                .push(format!("{tag}: missing from candidate"));
            continue;
        };
        for key in [
            "iterations",
            "climb_candidates",
            "climb_agg_key_skips",
            "climb_dominance_tests",
            "climb_rejected",
            "climb_admitted",
            "climb_evicted",
            "pareto_blocks_screened",
            "pareto_eps_rejects",
            "pareto_archive_size",
            "arena_interns",
            "arena_dedup_hits",
        ] {
            match (f64_field(b, key), f64_field(&c, key)) {
                (Some(bv), Some(cv)) => gate.check(structural_eq(bv, cv), || {
                    format!(
                        "{tag}: structural field `{key}` drifted: baseline {bv} vs candidate {cv}"
                    )
                }),
                (Some(_), None) => gate
                    .violations
                    .push(format!("{tag}: candidate dropped structural field `{key}`")),
                _ => {}
            }
        }
    }
    if !obs(&base).is_empty() && obs(&cand).is_empty() {
        gate.violations
            .push("candidate dropped the `obs` section".to_string());
    }

    // Structural (schema v5): the archive-size-vs-ε curve is fully
    // deterministic (fixed stream, fixed factors) — any drift means the
    // ε-box admission semantics changed.
    match (base.get("eps_archive"), cand.get("eps_archive")) {
        (Some(be), Some(ce)) => {
            for key in ["dim", "stream_len", "exact_size", "exact_blowup"] {
                match (f64_field(be, key), f64_field(ce, key)) {
                    (Some(b), Some(c)) => gate.check(structural_eq(b, c), || {
                        format!(
                            "eps_archive: structural field `{key}` drifted: baseline {b} vs candidate {c}"
                        )
                    }),
                    (Some(_), None) => gate
                        .violations
                        .push(format!("eps_archive: candidate dropped field `{key}`")),
                    _ => {}
                }
            }
            let points = |v: &Value| {
                v.get("points")
                    .and_then(Value::as_array)
                    .cloned()
                    .unwrap_or_default()
            };
            for b in &points(be) {
                let eps = f64_field(b, "eps").unwrap_or(-1.0);
                let tag = format!("eps_archive point(eps={eps})");
                let Some(c) = points(ce)
                    .into_iter()
                    .find(|c| f64_field(c, "eps") == Some(eps))
                else {
                    gate.violations
                        .push(format!("{tag}: missing from candidate"));
                    continue;
                };
                for key in ["archive_size", "eps_rejects"] {
                    if let (Some(bv), Some(cv)) = (f64_field(b, key), f64_field(&c, key)) {
                        gate.check(structural_eq(bv, cv), || {
                            format!(
                                "{tag}: structural field `{key}` drifted: baseline {bv} vs candidate {cv}"
                            )
                        });
                    }
                }
            }
        }
        (Some(_), None) => gate
            .violations
            .push("candidate dropped the `eps_archive` section".to_string()),
        _ => {}
    }

    // Structural (schema v5): the RMQ dimension sweep's frontier and cache
    // sizes are deterministic; timings are presence-checked only.
    let rmq_dim = |v: &Value| {
        v.get("rmq_dim")
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default()
    };
    for b in &rmq_dim(&base) {
        let tables = f64_field(b, "tables").unwrap_or(-1.0);
        let dim = f64_field(b, "dim").unwrap_or(-1.0);
        let seed = f64_field(b, "seed").unwrap_or(-1.0);
        let tag = format!("rmq_dim(tables={tables}, dim={dim}, seed={seed})");
        let Some(c) = rmq_dim(&cand).into_iter().find(|c| {
            f64_field(c, "tables") == Some(tables)
                && f64_field(c, "dim") == Some(dim)
                && f64_field(c, "seed") == Some(seed)
        }) else {
            gate.violations
                .push(format!("{tag}: missing from candidate"));
            continue;
        };
        for key in ["iterations", "frontier_size", "cache_plans"] {
            match (f64_field(b, key), f64_field(&c, key)) {
                (Some(bv), Some(cv)) => gate.check(structural_eq(bv, cv), || {
                    format!(
                        "{tag}: structural field `{key}` drifted: baseline {bv} vs candidate {cv}"
                    )
                }),
                (Some(_), None) => gate
                    .violations
                    .push(format!("{tag}: candidate dropped structural field `{key}`")),
                _ => {}
            }
        }
        for key in ["elapsed_ms", "iters_per_sec"] {
            gate.check(c.get(key).is_some(), || {
                format!("{tag}: candidate dropped timing field `{key}`")
            });
        }
    }
    if !rmq_dim(&base).is_empty() && rmq_dim(&cand).is_empty() {
        gate.violations
            .push("candidate dropped the `rmq_dim` section".to_string());
    }

    // Structural (schema v7): the anytime convergence curves come from the
    // deterministic RMQ fixtures — the checkpoint marks, frontier sizes,
    // and hypervolumes are bit-for-bit reproducible; `elapsed_ms` and
    // `time_to_90_ms` are timing-only (presence-checked).
    let convergence = |v: &Value| {
        v.get("convergence")
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default()
    };
    for b in &convergence(&base) {
        let tables = f64_field(b, "tables").unwrap_or(-1.0);
        let seed = f64_field(b, "seed").unwrap_or(-1.0);
        let tag = format!("convergence(tables={tables}, seed={seed})");
        let Some(c) = convergence(&cand)
            .into_iter()
            .find(|c| f64_field(c, "tables") == Some(tables) && f64_field(c, "seed") == Some(seed))
        else {
            gate.violations
                .push(format!("{tag}: missing from candidate"));
            continue;
        };
        if let (Some(bv), Some(cv)) = (
            f64_field(b, "final_hypervolume"),
            f64_field(&c, "final_hypervolume"),
        ) {
            gate.check(structural_eq(bv, cv), || {
                format!(
                    "{tag}: structural field `final_hypervolume` drifted: \
                     baseline {bv} vs candidate {cv}"
                )
            });
        }
        gate.check(c.get("time_to_90_ms").is_some(), || {
            format!("{tag}: candidate dropped timing field `time_to_90_ms`")
        });
        let points = |v: &Value| {
            v.get("points")
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default()
        };
        let (bp, cp) = (points(b), points(&c));
        gate.check(bp.len() == cp.len(), || {
            format!(
                "{tag}: checkpoint count changed: {} vs {}",
                bp.len(),
                cp.len()
            )
        });
        for (bpt, cpt) in bp.iter().zip(&cp) {
            let iters = f64_field(bpt, "iteration").unwrap_or(-1.0);
            for key in ["iteration", "frontier_size", "hypervolume"] {
                if let (Some(bv), Some(cv)) = (f64_field(bpt, key), f64_field(cpt, key)) {
                    gate.check(structural_eq(bv, cv), || {
                        format!(
                            "{tag} checkpoint @{iters}: `{key}` drifted: \
                             baseline {bv} vs candidate {cv}"
                        )
                    });
                }
            }
            gate.check(cpt.get("elapsed_ms").is_some(), || {
                format!("{tag} checkpoint @{iters}: candidate dropped timing field `elapsed_ms`")
            });
        }
    }
    if !convergence(&base).is_empty() && convergence(&cand).is_empty() {
        gate.violations
            .push("candidate dropped the `convergence` section".to_string());
    }

    if !skip_timing {
        // Per-kernel ns/op with a generous absolute margin.
        let micro = |v: &Value| {
            v.get("micro")
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default()
        };
        for b in &micro(&base) {
            let name = b
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let Some(c) = micro(&cand)
                .iter()
                .find(|c| c.get("name").and_then(Value::as_str) == Some(&name))
                .cloned()
            else {
                gate.violations
                    .push(format!("micro `{name}`: missing from candidate"));
                continue;
            };
            if let (Some(bn), Some(cn)) = (f64_field(b, "ns_per_op"), f64_field(&c, "ns_per_op")) {
                gate.check(cn <= bn * timing_margin, || {
                    format!(
                        "micro `{name}`: {cn:.1} ns/op exceeds baseline {bn:.1} × margin {timing_margin}"
                    )
                });
            }
        }
        // Speedup ratios divide out the machine; require each to stay
        // within a factor of the baseline. A baseline ratio the candidate
        // dropped — or a dropped `speedups` block — is itself a violation,
        // never a silent skip.
        match (base.get("speedups"), cand.get("speedups")) {
            (Some(bs), Some(cs)) => {
                for key in [
                    "insert_approx_bucketed_vs_linear",
                    "insert_climb_bucketed_vs_linear",
                    "plan_build_arena_vs_arc",
                    "plan_mutate_arena_vs_arc",
                    "plan_eq_arena_vs_arc",
                    "dominance_soa_vs_scalar_d8",
                ] {
                    match (f64_field(bs, key), f64_field(cs, key)) {
                        (Some(b), Some(c)) => gate.check(c >= b / speedup_margin, || {
                            format!(
                                "speedup `{key}`: {c:.2}x fell below baseline {b:.2}x ÷ margin {speedup_margin}"
                            )
                        }),
                        (Some(_), None) => gate
                            .violations
                            .push(format!("speedup `{key}`: missing from candidate")),
                        _ => {}
                    }
                }
            }
            (Some(_), None) => gate
                .violations
                .push("candidate dropped the `speedups` block".to_string()),
            _ => {}
        }

        // Parallel-scaling ratios (schema v6): `par_rmq` thread-scaling
        // (iters/sec at t threads over t=1) and the exec_pool pooled-vs-
        // scoped throughput ratio both divide out the machine, but not
        // the core count — on `host_parallelism == 1` hosts they are
        // scheduling noise, so failures there only warn.
        let rate_of = |list: &[Value], threads: f64| {
            list.iter()
                .find(|e| f64_field(e, "threads") == Some(threads))
                .and_then(|e| f64_field(e, "iters_per_sec"))
        };
        let (bpar, cpar) = (par(&base), par(&cand));
        if let (Some(b1), Some(c1)) = (rate_of(&bpar, 1.0), rate_of(&cpar, 1.0)) {
            for b in &bpar {
                let threads = f64_field(b, "threads").unwrap_or(-1.0);
                if threads <= 1.0 {
                    continue;
                }
                let (Some(bt), Some(ct)) = (rate_of(&bpar, threads), rate_of(&cpar, threads))
                else {
                    continue;
                };
                let (bscale, cscale) = (bt / b1, ct / c1);
                gate.check_ratio(multicore, cscale >= bscale / speedup_margin, || {
                    format!(
                        "par_rmq scaling @{threads} threads: {cscale:.2}x fell below \
                         baseline {bscale:.2}x ÷ margin {speedup_margin}"
                    )
                });
            }
        }
        // One `ParRmq` worker against sequential `Rmq` on the same fixture
        // and seed (ROADMAP item 2 ii): a lone worker has nobody to exchange
        // with, so it may cost a thread hand-off and the query-frontier
        // publishes over the sequential loop, not more. An absolute floor on
        // the candidate alone — both rates come from one run on one host.
        // Quick mode times 40 iterations (about 6 ms): one late thread
        // wake-up moves the ratio by more than the floor allows, so there a
        // failure only warns.
        let seq_rate = |tables: f64| {
            let run = rmq(&cand)
                .into_iter()
                .find(|r| f64_field(r, "tables") == Some(tables))?;
            let last = run.get("checkpoints")?.as_array()?.last()?.clone();
            Some(f64_field(&last, "iterations")? / (f64_field(&last, "elapsed_ms")? / 1e3))
        };
        if let Some(one) = cpar.iter().find(|e| f64_field(e, "threads") == Some(1.0)) {
            let tables = f64_field(one, "tables").unwrap_or(-1.0);
            if let (Some(par), Some(seq)) = (f64_field(one, "iters_per_sec"), seq_rate(tables)) {
                let resolvable = multicore && mode(&cand) == "full";
                gate.check_ratio(resolvable, par / seq >= PAR1_VS_SEQ_FLOOR, || {
                    format!(
                        "par_rmq @1 thread vs rmq (tables={tables}): {:.2}x is below the \
                         {PAR1_VS_SEQ_FLOOR} floor ({par:.0} vs {seq:.0} iters/s)",
                        par / seq
                    )
                });
            }
        }
        if let (Some(be), Some(ce)) = (base.get("exec_pool"), cand.get("exec_pool")) {
            if let (Some(b), Some(c)) = (
                f64_field(be, "pooled_vs_scoped_iters_per_sec"),
                f64_field(ce, "pooled_vs_scoped_iters_per_sec"),
            ) {
                gate.check_ratio(multicore, c >= b / speedup_margin, || {
                    format!(
                        "exec_pool pooled-vs-scoped throughput: {c:.2}x fell below \
                         baseline {b:.2}x ÷ margin {speedup_margin}"
                    )
                });
            }
        }

        // Front-door degrade-before-shed (schema v8): shed rate with the
        // degradation ladder enabled over shed rate with it disabled —
        // lower is better, and a candidate may not drift above the
        // baseline ratio by more than the speedup margin. Load dynamics
        // depend on real parallelism, so single-core hosts only warn.
        if let (Some(bf), Some(cf)) = (base.get("frontdoor"), cand.get("frontdoor")) {
            if let (Some(b), Some(c)) = (
                f64_field(bf, "degraded_vs_plain_shed"),
                f64_field(cf, "degraded_vs_plain_shed"),
            ) {
                gate.check_ratio(multicore, c <= b * speedup_margin, || {
                    format!(
                        "frontdoor degraded-vs-plain shed ratio: {c:.2} exceeds \
                         baseline {b:.2} × margin {speedup_margin}"
                    )
                });
            }
        }
    }

    if gate.violations.is_empty() {
        eprintln!(
            "bench_diff: OK — {} checks against {baseline_path}, no regressions",
            gate.checks
        );
    } else {
        eprintln!(
            "bench_diff: {} regression(s) against {baseline_path}:",
            gate.violations.len()
        );
        for v in &gate.violations {
            eprintln!("  ✗ {v}");
        }
        std::process::exit(1);
    }
}
