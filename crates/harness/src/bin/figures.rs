//! Command-line figure runner: regenerates any figure of the paper.
//!
//! ```text
//! Usage: figures [FIGURE...] [--out DIR]
//!
//!   FIGURE   one of fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9,
//!            or `all` (default: all)
//!   --out    also write <id>.txt/.json/.csv reports into DIR
//!
//! Environment:
//!   MOQO_TIME_SCALE   multiply every per-algorithm budget (default 1.0)
//!   MOQO_CASES        override test cases per panel
//!   MOQO_MAX_SIZES    keep only the first k query sizes per figure
//! ```
//!
//! The ASCII panels printed to stdout are the series the paper's figures
//! plot; `--out` keeps a run's reports. This binary is the one entry point
//! for the figures.

use std::path::PathBuf;
use std::time::Instant;

use moqo_harness::export::{fig3_to_csv, write_reports};
use moqo_harness::fig3::{run_fig3, Fig3Spec};
use moqo_harness::report::{render_fig3, render_figure};
use moqo_harness::{run_figure, EnvConfig, FigureSpec};

const ALL_FIGURES: [&str; 9] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
];

fn spec_for(id: &str, env: &EnvConfig) -> Option<FigureSpec> {
    Some(match id {
        "fig1" => FigureSpec::fig1(env),
        "fig2" => FigureSpec::fig2(env),
        "fig4" => FigureSpec::fig4(env),
        "fig5" => FigureSpec::fig5(env),
        "fig6" => FigureSpec::fig6(env),
        "fig7" => FigureSpec::fig7(env),
        "fig8" => FigureSpec::fig8(env),
        "fig9" => FigureSpec::fig9(env),
        _ => return None,
    })
}

fn main() {
    let mut figures: Vec<String> = Vec::new();
    let mut out_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: figures [fig1..fig9 | all]... [--out DIR]");
                return;
            }
            "all" => figures.extend(ALL_FIGURES.iter().map(|s| s.to_string())),
            other if ALL_FIGURES.contains(&other) => figures.push(other.to_string()),
            other => {
                eprintln!("unknown figure '{other}' (expected fig1..fig9 or all)");
                std::process::exit(2);
            }
        }
    }
    if figures.is_empty() {
        figures.extend(ALL_FIGURES.iter().map(|s| s.to_string()));
    }
    figures.dedup();

    let env = EnvConfig::from_env();
    eprintln!(
        "env: time_scale={} cases={:?} max_sizes={:?}",
        env.time_scale, env.cases_override, env.max_sizes
    );

    for id in &figures {
        let started = Instant::now();
        if id == "fig3" {
            let mut spec = Fig3Spec::default();
            if let Some(cases) = env.cases_override {
                spec.cases = cases.max(1);
            }
            if let Some(max) = env.max_sizes {
                spec.sizes.truncate(max.max(1));
            }
            let rows = run_fig3(&spec);
            print!("{}", render_fig3(&rows));
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir).expect("create output dir");
                std::fs::write(dir.join("fig3.txt"), render_fig3(&rows)).expect("write fig3.txt");
                std::fs::write(dir.join("fig3.csv"), fig3_to_csv(&rows)).expect("write fig3.csv");
            }
        } else {
            let spec = spec_for(id, &env).expect("validated above");
            let result = run_figure(&spec);
            print!("{}", render_figure(&result));
            if let Some(dir) = &out_dir {
                let paths = write_reports(&result, dir).expect("write reports");
                for p in paths {
                    eprintln!("wrote {}", p.display());
                }
            }
        }
        eprintln!("{id} done in {:.1}s", started.elapsed().as_secs_f64());
    }
}
