//! Machine-readable export of figure results (JSON and CSV).
//!
//! The ASCII renderer of [`crate::report`] is what humans read in a
//! terminal; this module produces the same data in formats downstream
//! tooling can consume — `serde_json` for structured archival (what
//! `figures --out DIR` writes beside the text report) and a long-format CSV
//! that plotting scripts can pivot into the paper's panel grid directly.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use serde::Serialize;

use crate::fig3::Fig3Row;
use crate::runner::{FigureResult, PanelResult};

/// Serializable mirror of [`FigureResult`] with flattened plain types.
#[derive(Serialize, Debug)]
pub struct FigureExport {
    /// Figure id (e.g. `"fig1"`).
    pub id: String,
    /// Figure title.
    pub title: String,
    /// Per-algorithm budget in milliseconds.
    pub budget_ms: f64,
    /// Number of cost metrics.
    pub metrics: usize,
    /// Test cases per panel.
    pub cases: usize,
    /// Display cap on α (`null` when uncapped).
    pub alpha_cap: Option<f64>,
    /// One entry per (shape, size) panel.
    pub panels: Vec<PanelExport>,
}

/// Serializable mirror of [`PanelResult`].
#[derive(Serialize, Debug)]
pub struct PanelExport {
    /// Join graph shape name.
    pub shape: String,
    /// Query size in tables.
    pub size: usize,
    /// Checkpoint times in milliseconds.
    pub checkpoints_ms: Vec<f64>,
    /// Median-α series per algorithm.
    pub series: Vec<SeriesExport>,
}

/// One algorithm's median-α trajectory within a panel.
#[derive(Serialize, Debug)]
pub struct SeriesExport {
    /// Algorithm display name.
    pub algorithm: String,
    /// Median α at each checkpoint (aligned with `checkpoints_ms`).
    pub alpha: Vec<f64>,
}

impl FigureExport {
    /// Converts a runner result into the serializable mirror.
    pub fn from_result(result: &FigureResult) -> Self {
        FigureExport {
            id: result.id.clone(),
            title: result.title.clone(),
            budget_ms: result.budget.as_secs_f64() * 1e3,
            metrics: result.metrics,
            cases: result.cases,
            alpha_cap: result.alpha_cap,
            panels: result.panels.iter().map(PanelExport::from_panel).collect(),
        }
    }
}

impl PanelExport {
    fn from_panel(panel: &PanelResult) -> Self {
        PanelExport {
            shape: panel.shape.name().to_string(),
            size: panel.size,
            checkpoints_ms: panel
                .checkpoints
                .iter()
                .map(|c| c.as_secs_f64() * 1e3)
                .collect(),
            series: panel
                .series
                .iter()
                .map(|(algorithm, alpha)| SeriesExport {
                    algorithm: algorithm.clone(),
                    alpha: alpha.clone(),
                })
                .collect(),
        }
    }
}

/// Serializes a figure result to pretty-printed JSON.
pub fn figure_to_json(result: &FigureResult) -> String {
    serde_json::to_string_pretty(&FigureExport::from_result(result))
        .expect("figure export contains no non-serializable values")
}

/// Formats α for CSV: infinities become the string `inf` so spreadsheet
/// tools do not silently coerce them.
fn csv_alpha(a: f64) -> String {
    if a.is_finite() {
        format!("{a}")
    } else {
        "inf".to_string()
    }
}

/// Serializes a figure result as long-format CSV with the header
/// `figure,shape,tables,checkpoint_ms,algorithm,median_alpha` — one row per
/// (panel, checkpoint, algorithm) cell.
pub fn figure_to_csv(result: &FigureResult) -> String {
    let mut out = String::from("figure,shape,tables,checkpoint_ms,algorithm,median_alpha\n");
    for panel in &result.panels {
        for (cp_idx, cp) in panel.checkpoints.iter().enumerate() {
            for (algorithm, series) in &panel.series {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{}",
                    result.id,
                    panel.shape.name(),
                    panel.size,
                    cp.as_secs_f64() * 1e3,
                    algorithm,
                    csv_alpha(series[cp_idx])
                );
            }
        }
    }
    out
}

/// Serializes Figure 3 rows as CSV with the header
/// `shape,tables,median_path_length,predicted_path_length,median_pareto_plans`.
pub fn fig3_to_csv(rows: &[Fig3Row]) -> String {
    let mut out =
        String::from("shape,tables,median_path_length,predicted_path_length,median_pareto_plans\n");
    for row in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            row.shape.name(),
            row.size,
            row.median_path_length,
            row.predicted_path_length,
            row.median_pareto_plans
        );
    }
    out
}

/// Writes the three report artifacts (`<id>.txt`, `<id>.json`, `<id>.csv`)
/// for a figure result into `dir`, creating the directory if needed.
/// Returns the paths written.
pub fn write_reports(result: &FigureResult, dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let txt = dir.join(format!("{}.txt", result.id));
    let json = dir.join(format!("{}.json", result.id));
    let csv = dir.join(format!("{}.csv", result.id));
    std::fs::write(&txt, crate::report::render_figure(result))?;
    std::fs::write(&json, figure_to_json(result))?;
    std::fs::write(&csv, figure_to_csv(result))?;
    Ok(vec![txt, json, csv])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigureSpec;
    use crate::runner::run_figure;

    fn smoke_result() -> FigureResult {
        run_figure(&FigureSpec::smoke())
    }

    #[test]
    fn json_round_trips_through_serde_json() {
        let result = smoke_result();
        let json = figure_to_json(&result);
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(value["id"], "smoke");
        assert_eq!(value["panels"].as_array().unwrap().len(), 1);
        let panel = &value["panels"][0];
        assert_eq!(panel["shape"], "Chain");
        assert_eq!(panel["size"], 5);
        let series = panel["series"].as_array().unwrap();
        assert_eq!(series.len(), 2, "II and RMQ");
        for s in series {
            assert_eq!(
                s["alpha"].as_array().unwrap().len(),
                panel["checkpoints_ms"].as_array().unwrap().len()
            );
        }
    }

    #[test]
    fn csv_has_one_row_per_cell_plus_header() {
        let result = smoke_result();
        let csv = figure_to_csv(&result);
        let lines: Vec<&str> = csv.lines().collect();
        let expected_cells: usize = result
            .panels
            .iter()
            .map(|p| p.checkpoints.len() * p.series.len())
            .sum();
        assert_eq!(lines.len(), 1 + expected_cells);
        assert_eq!(
            lines[0],
            "figure,shape,tables,checkpoint_ms,algorithm,median_alpha"
        );
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), 6, "malformed row: {l}");
        }
    }

    #[test]
    fn csv_encodes_infinite_alpha_as_inf() {
        assert_eq!(csv_alpha(f64::INFINITY), "inf");
        assert_eq!(csv_alpha(2.5), "2.5");
    }

    #[test]
    fn fig3_csv_layout() {
        let rows = vec![Fig3Row {
            shape: moqo_workload::GraphShape::Star,
            size: 25,
            median_path_length: 4.5,
            predicted_path_length: 5.1,
            median_pareto_plans: 33.0,
        }];
        let csv = fig3_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("Star,25,4.5,5.1,33"));
    }

    #[test]
    fn reports_written_to_disk() {
        let result = smoke_result();
        let dir = std::env::temp_dir().join(format!("moqo_export_test_{}", std::process::id()));
        let paths = write_reports(&result, &dir).expect("write reports");
        assert_eq!(paths.len(), 3);
        for p in &paths {
            let content = std::fs::read_to_string(p).expect("readable");
            assert!(!content.is_empty(), "{p:?} empty");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
