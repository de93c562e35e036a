//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around the calls into each layer (never inside the
//! program under test), kept in memory, and written to
//! `benchmark/out/trace-<workload>.json` when the traced run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer name (`core.climb`, `frontdoor.submit`, ...).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` until the span is closed).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Request / iteration identifier shared by the spans of one operation.
    pub request: u64,
}

/// An append-only span store with a fixed time origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `start`; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` at `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a complete span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let id = self.open(name, start, parent, request);
        self.close(id, end);
        id
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }

    /// Writes the spans as one JSON document to `out/trace-<workload>.json`
    /// next to this crate's manifest, whatever directory the run was started
    /// from.
    pub fn write_trace(&self, workload: &str) -> std::io::Result<()> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Self time per name: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    let mut totals = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        *totals.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("iteration", 0, 100, None),
            span("climb", 10, 60, Some(0)),
            span("frontier", 60, 95, Some(0)),
            span("cost", 20, 30, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["iteration"], 100 - 50 - 35);
        assert_eq!(t["climb"], 50 - 10);
        assert_eq!(t["frontier"], 35);
        assert_eq!(t["cost"], 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("request", 100, 200, None),
            // Two overlapping children cover 110..170 together.
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            // A child that outlives its parent is clipped to 190..200.
            span("c", 190, 260, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], 100 - 60 - 10);
        assert_eq!(t["c"], 70);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = [span("x", 0, 5, None), span("x", 10, 17, None)];
        assert_eq!(self_times(&spans)["x"], 12);
    }
}
