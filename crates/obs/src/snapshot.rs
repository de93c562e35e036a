//! Telemetry export: [`ObsSnapshot`] captures every registered metric
//! plus the journal tail and renders them as JSON (hand-rolled — this
//! crate has no dependencies) or a plain-text exposition dump.
//!
//! The JSON layout (`"schema": 1`) is what `serve --obs-json` flushes
//! periodically and what the bench harness's `obs_check` validates:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "counters": { "rmq.iterations": 123, ... },
//!   "histograms": { "service.slice_us": { "count": 2, ... }, ... },
//!   "events": [ { "seq": 1, "level": "info", ... }, ... ]
//! }
//! ```

use std::fmt::Write;

use crate::journal::{self, Event};
use crate::metrics::{metrics, HistogramSnapshot};

/// A point-in-time capture of the whole observability surface.
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    /// Every counter, `(dotted name, value)`, in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every histogram, `(dotted name, summary)`, in registration order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// The journal ring at capture time (oldest first; empty when the
    /// journal is disabled or drained).
    pub events: Vec<Event>,
}

impl ObsSnapshot {
    /// Captures the global registry and journal ring.
    pub fn capture() -> Self {
        ObsSnapshot {
            counters: metrics().counters(),
            histograms: metrics().histograms(),
            events: journal::events(),
        }
    }

    /// Value of the named counter (0 when unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Summary of the named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| *h)
    }

    /// Renders the snapshot as one JSON object (`"schema": 1`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":1,\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count, h.sum, h.max, h.p50, h.p90, h.p99
            );
        }
        out.push_str("},\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            event.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Renders the snapshot as a plain-text exposition dump: one
    /// `name value` line per counter, one summary line per histogram,
    /// then the event tail.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# counters\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} {value}");
        }
        out.push_str("# histograms\n");
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name} count={} sum={} max={} p50={} p90={} p99={}",
                h.count, h.sum, h.max, h.p50, h.p90, h.p99
            );
        }
        if !self.events.is_empty() {
            out.push_str("# events\n");
            for event in &self.events {
                let _ = writeln!(out, "{event}");
            }
        }
        out
    }
}

/// Escapes `s` into `out` as JSON string content (quotes, backslashes,
/// and control characters).
pub(crate) fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_captures_registry_and_serializes() {
        metrics().rmq_iterations.add(2);
        metrics().service_slice_us.record(1500);
        let snap = ObsSnapshot::capture();
        assert!(snap.counter("rmq.iterations") >= 2);
        assert_eq!(snap.counter("no.such.counter"), 0);
        let h = snap.histogram("service.slice_us").unwrap();
        assert!(h.count >= 1);
        assert!(snap.histogram("no.such.histogram").is_none());

        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":1,\"counters\":{"));
        assert!(json.contains("\"rmq.iterations\":"));
        assert!(json.contains("\"service.slice_us\":{\"count\":"));
        assert!(json.ends_with("]}"));

        let text = snap.to_text();
        assert!(text.contains("rmq.iterations "));
        assert!(text.contains("service.slice_us count="));
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut out = String::new();
        escape_json_into("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
