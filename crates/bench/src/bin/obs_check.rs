//! Validates a telemetry snapshot emitted by `serve --obs-json` (or any
//! `moqo_obs::ObsSnapshot::to_json` output): well-formed JSON, the
//! expected schema version, the registry's counter/histogram layout (the
//! span and journal drop counters included: without them a snapshot cannot
//! show whether its rings overwrote anything), and — when counters are
//! required — nonzero activity on the named seams.
//! Optionally also validates a causal span trace (`--trace`, the Chrome
//! trace-event JSON `serve --trace-out` / `optimize --trace-out` write)
//! and the anytime-convergence section of a `BENCH_rmq.json` baseline
//! (`--convergence`).
//!
//! Usage:
//!
//! ```text
//! cargo run -p moqo-bench --bin obs_check -- FILE \
//!     [--require COUNTER]... [--events-min N] \
//!     [--trace TRACE.json [--spans-min N]] [--convergence BENCH.json]
//! ```
//!
//! Exit 0 when everything is valid, 1 with one line per violation
//! otherwise. CI's `bench-smoke` job runs it against the snapshot and
//! trace a short `serve` replay produced, requiring the optimizer,
//! exchange, and service seams to have recorded activity.

use serde_json::Value;

/// Reads and parses the JSON file `path`, recording a violation on failure.
fn read_json(what: &str, path: &str, violations: &mut Vec<String>) -> Option<Value> {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {what} {path}: {e}"))
        .and_then(|text| {
            serde_json::from_str(&text).map_err(|e| format!("{what} {path} is not valid JSON: {e}"))
        });
    parsed.map_err(|e| violations.push(e)).ok()
}

/// Validates a Chrome trace-event JSON file: every event carries the
/// writer's fields, complete (`"X"`) events are sorted by timestamp with
/// nonnegative durations, and every nonzero parent reference resolves to a
/// complete event in the file — the causal graph has no dangling edges.
fn check_trace(path: &str, spans_min: u64, violations: &mut Vec<String>) {
    let Some(trace) = read_json("trace", path, violations) else {
        return;
    };
    let Some(events) = trace.get("traceEvents").and_then(Value::as_array) else {
        violations.push(format!("trace {path}: missing `traceEvents` array"));
        return;
    };
    if (events.len() as u64) < spans_min {
        violations.push(format!(
            "trace {path}: only {} span(s), need at least {spans_min}",
            events.len()
        ));
    }
    let mut complete_ids = std::collections::HashSet::new();
    let mut last_ts = f64::NEG_INFINITY;
    for event in events {
        let ph = event.get("ph").and_then(Value::as_str).unwrap_or("");
        if !matches!(ph, "X" | "i") {
            violations.push(format!("trace event has unexpected phase `{ph}`: {event}"));
            continue;
        }
        for key in ["name", "ts", "pid", "tid"] {
            if event.get(key).is_none() {
                violations.push(format!("trace event lacks field `{key}`: {event}"));
            }
        }
        let Some(args) = event.get("args") else {
            violations.push(format!("trace event lacks `args`: {event}"));
            continue;
        };
        for key in ["id", "parent", "session", "arg"] {
            if args.get(key).and_then(Value::as_u64).is_none() {
                violations.push(format!("trace event args lack u64 `{key}`: {event}"));
            }
        }
        let ts = event.get("ts").and_then(Value::as_f64).unwrap_or(-1.0);
        if ts < last_ts {
            violations.push(format!(
                "trace events not sorted by timestamp: {ts} after {last_ts}"
            ));
        }
        last_ts = ts;
        if ph == "X" {
            if event
                .get("dur")
                .and_then(Value::as_f64)
                .is_none_or(|d| d < 0.0)
            {
                violations.push(format!("complete trace event lacks `dur` >= 0: {event}"));
            }
            if let Some(id) = args.get("id").and_then(Value::as_u64) {
                complete_ids.insert(id);
            }
        }
    }
    for event in events {
        let parent = event
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if parent != 0 && !complete_ids.contains(&parent) {
            violations.push(format!(
                "trace event parent {parent} resolves to no complete span: {event}"
            ));
        }
    }
}

/// Validates the `convergence` section of a bench baseline:
/// present and nonempty, strictly increasing iteration marks, and a
/// nondecreasing hypervolume curve ending at `final_hypervolume` — the
/// anytime guarantee, checked on the emitted artifact.
fn check_convergence(path: &str, violations: &mut Vec<String>) {
    let Some(bench) = read_json("baseline", path, violations) else {
        return;
    };
    if bench
        .get("schema_version")
        .and_then(Value::as_u64)
        .is_none_or(|v| v < 7)
    {
        violations.push(format!(
            "baseline {path}: schema_version must be >= 7 for a convergence section"
        ));
    }
    let Some(fixtures) = bench.get("convergence").and_then(Value::as_array) else {
        violations.push(format!("baseline {path}: missing `convergence` array"));
        return;
    };
    if fixtures.is_empty() {
        violations.push(format!("baseline {path}: `convergence` is empty"));
    }
    for fixture in fixtures {
        let tables = fixture.get("tables").and_then(Value::as_u64).unwrap_or(0);
        let tag = format!("convergence(tables={tables})");
        let Some(points) = fixture.get("points").and_then(Value::as_array) else {
            violations.push(format!("{tag}: missing `points` array"));
            continue;
        };
        if points.is_empty() {
            violations.push(format!("{tag}: no checkpoints"));
            continue;
        }
        let mut last_iter = 0u64;
        let mut last_hv = f64::NEG_INFINITY;
        for p in points {
            let iter = p.get("iteration").and_then(Value::as_u64).unwrap_or(0);
            if iter <= last_iter && last_iter != 0 {
                violations.push(format!(
                    "{tag}: iteration marks not strictly increasing at {iter}"
                ));
            }
            last_iter = iter;
            let hv = p
                .get("hypervolume")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            if hv.is_nan() || hv < 0.0 {
                violations.push(format!("{tag} @{iter}: hypervolume {hv} is not >= 0"));
            }
            if hv < last_hv {
                violations.push(format!(
                    "{tag} @{iter}: hypervolume regressed ({hv} < {last_hv}) — \
                     the anytime curve must be nondecreasing"
                ));
            }
            last_hv = hv;
            if p.get("frontier_size").and_then(Value::as_u64).is_none() {
                violations.push(format!("{tag} @{iter}: missing u64 `frontier_size`"));
            }
        }
        let final_hv = fixture
            .get("final_hypervolume")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        if final_hv != last_hv {
            violations.push(format!(
                "{tag}: final_hypervolume {final_hv} != last checkpoint {last_hv}"
            ));
        }
    }
}

/// Schema version `ObsSnapshot::to_json` emits (see `moqo-obs`).
const OBS_SCHEMA: u64 = 1;

/// Counters every snapshot must carry, zero or not.
const DROP_COUNTERS: [&str; 2] = ["spans.dropped", "journal.dropped"];

/// Parses a count argument, exiting with usage status on garbage.
fn number(arg: &str) -> u64 {
    arg.parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got `{arg}`");
        std::process::exit(2);
    })
}

fn main() {
    let mut path = None;
    let mut required: Vec<String> = Vec::new();
    let mut events_min: u64 = 0;
    let mut trace_path: Option<String> = None;
    let mut spans_min: u64 = 1;
    let mut convergence_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} requires an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--require" => required.push(take("--require")),
            "--events-min" => events_min = number(&take("--events-min")),
            "--spans-min" => spans_min = number(&take("--spans-min")),
            "--trace" => trace_path = Some(take("--trace")),
            "--convergence" => convergence_path = Some(take("--convergence")),
            "--help" | "-h" => {
                println!(
                    "usage: obs_check FILE [--require COUNTER]... [--events-min N] \
                     [--trace TRACE.json] [--spans-min N] [--convergence BENCH.json]"
                );
                return;
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("obs_check: a snapshot FILE is required (see --help)");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let snap: Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("obs_check: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });

    let mut violations: Vec<String> = Vec::new();

    if snap.get("schema").and_then(Value::as_u64) != Some(OBS_SCHEMA) {
        violations.push(format!(
            "schema must be {OBS_SCHEMA}, got {:?}",
            snap.get("schema")
        ));
    }
    let counters = snap.get("counters").and_then(Value::as_object);
    match counters {
        None => violations.push("missing `counters` object".to_string()),
        Some(counters) => {
            for (name, value) in counters {
                if value.as_u64().is_none() {
                    violations.push(format!("counter `{name}` is not a u64: {value:?}"));
                }
            }
            for name in DROP_COUNTERS {
                if !counters.iter().any(|(k, _)| k == name) {
                    violations.push(format!("drop counter `{name}` is missing"));
                }
            }
            for name in &required {
                let value = counters
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, v)| v.as_u64());
                match value {
                    None => violations.push(format!("required counter `{name}` is missing")),
                    Some(0) => violations.push(format!(
                        "required counter `{name}` is zero — that seam recorded no activity"
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    match snap.get("histograms").and_then(Value::as_object) {
        None => violations.push("missing `histograms` object".to_string()),
        Some(histograms) => {
            for (name, h) in histograms {
                for key in ["count", "sum", "max", "p50", "p90", "p99"] {
                    if h.get(key).and_then(Value::as_u64).is_none() {
                        violations.push(format!("histogram `{name}` lacks u64 field `{key}`"));
                    }
                }
            }
        }
    }
    match snap.get("events").and_then(Value::as_array) {
        None => violations.push("missing `events` array".to_string()),
        Some(events) => {
            if (events.len() as u64) < events_min {
                violations.push(format!(
                    "only {} events recorded, need at least {events_min}",
                    events.len()
                ));
            }
            for event in events {
                for key in ["seq", "level", "target", "kind"] {
                    if event.get(key).is_none() {
                        violations.push(format!("event lacks field `{key}`: {event}"));
                    }
                }
            }
        }
    }

    if let Some(trace) = &trace_path {
        check_trace(trace, spans_min, &mut violations);
    }
    if let Some(bench) = &convergence_path {
        check_convergence(bench, &mut violations);
    }

    if violations.is_empty() {
        let n_counters = counters.map_or(0, |c| c.len());
        let also = |what: &str, p: &Option<String>| {
            p.as_ref()
                .map_or(String::new(), |p| format!("; {what} {p}"))
        };
        eprintln!(
            "obs_check: OK — {path} valid ({n_counters} counters){}{}",
            also("trace", &trace_path),
            also("convergence", &convergence_path)
        );
    } else {
        eprintln!("obs_check: {} violation(s) in {path}:", violations.len());
        for v in &violations {
            eprintln!("  ✗ {v}");
        }
        std::process::exit(1);
    }
}
