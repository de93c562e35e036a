//! Regression gate for the perf baseline: diffs a freshly generated
//! `BENCH_rmq.json` against a checked-in baseline and fails (exit 1) on
//! any violation. CI's `bench-smoke` job runs the harness in `--quick` mode
//! and diffs the output against the checked-in quick baseline
//! (`BENCH_rmq.quick.json`).
//!
//! Each field is gated as `moqo_bench::FIELDS` declares it: deterministic
//! fields exactly, the rest by presence, timing margin, or ratio margin
//! (see `moqo_bench::Gate`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p moqo-bench --bin bench_diff -- \
//!     --baseline BENCH_rmq.quick.json --candidate BENCH_rmq.ci.json
//! ```

use serde_json::Value;

fn main() {
    let mut baseline_path = None;
    let mut candidate_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--baseline" => &mut baseline_path,
            "--candidate" => &mut candidate_path,
            "--help" | "-h" => {
                println!("usage: bench_diff --baseline A.json --candidate B.json");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        };
        *slot = Some(args.next().unwrap_or_else(|| {
            eprintln!("{arg} requires a path argument");
            std::process::exit(2);
        }));
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
    let report = moqo_bench::diff(&load(&baseline_path), &load(&candidate_path));
    for w in &report.warnings {
        eprintln!("bench_diff: warning — {w}");
    }
    if report.violations.is_empty() {
        eprintln!(
            "bench_diff: OK — {} checks against {baseline_path}, no regressions",
            report.checks
        );
    } else {
        eprintln!(
            "bench_diff: {} regression(s) against {baseline_path}:",
            report.violations.len()
        );
        for v in &report.violations {
            eprintln!("  ✗ {v}");
        }
        std::process::exit(1);
    }
}
