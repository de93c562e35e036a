//! Causal span tracing: begin/end records for session slices, climb
//! batches, exchange publishes/absorbs, and cache lookups, each carrying a
//! parent link and the worker id that ran it — the timeline complement to
//! the scalar [`crate::metrics`](mod@crate::metrics) registry and the [`crate::journal`].
//!
//! The discipline is the journal's: a **disabled** span site costs one
//! relaxed atomic load and an untaken branch — no clock read, no lock, no
//! id allocation. Enabled spans are completed records (begin timestamp
//! captured at [`begin`], pushed into the ring at [`finish`]) bounded by a
//! runtime-configurable capacity, and exportable as Chrome trace-event
//! JSON that Perfetto / `chrome://tracing` load directly.
//!
//! Parent links cross threads: the ambient current span id is thread-local
//! (see [`current`] / [`set_current`]), and the shared executor captures
//! it at spawn and restores it around every task invocation — so a climb
//! batch run by another worker still parents to the session span that
//! spawned it. Donations themselves appear as instant records parented to
//! the donated batch's session.
//!
//! ```
//! use moqo_obs::spans;
//!
//! spans::enable();
//! let session = spans::begin(spans::SpanKind::Session, spans::SpanId::NONE);
//! let parent = spans::id_of(&session);
//! let batch = spans::begin(spans::SpanKind::Batch, parent);
//! spans::finish(batch);
//! spans::finish(session);
//! let records = spans::drain();
//! spans::disable();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].parent, records[1].id);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::ctx;
use crate::metrics::metrics;

/// What a span (or instant) covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One optimization session, submission to completion.
    Session,
    /// One scheduling slice of a session on the service executor.
    Slice,
    /// One climb batch (a bounded run of optimizer iterations).
    Batch,
    /// A worker publishing its local frontier to the shared frontier.
    ExchangePublish,
    /// A worker absorbing the shared global snapshot.
    ExchangeAbsorb,
    /// A cross-query plan-cache lookup.
    CacheLookup,
    /// Instant: a waiting helper ran a foreign batch (arg = owning group).
    Donation,
}

impl SpanKind {
    /// Short lowercase name (`"session"`, `"batch"`, …).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Slice => "slice",
            SpanKind::Batch => "batch",
            SpanKind::ExchangePublish => "exchange_publish",
            SpanKind::ExchangeAbsorb => "exchange_absorb",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::Donation => "donation",
        }
    }

    /// Whether this kind is a zero-duration instant record.
    pub fn is_instant(self) -> bool {
        self == SpanKind::Donation
    }
}

/// Opaque span identity used for parent links. `NONE` (raw 0) means "no
/// parent" — a root span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent span (raw 0): roots parent to this.
    pub const NONE: SpanId = SpanId(0);

    /// The raw id value (0 for `NONE`).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the absent span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One completed span (or instant): pushed into the ring at finish time
/// with both endpoints resolved against the process trace epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (process-monotone, never 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// What the span covers.
    pub kind: SpanKind,
    /// Session id at begin time (0 outside a session).
    pub session: u64,
    /// Worker id of the thread that ran the span (0 = main/unpinned).
    pub worker: u32,
    /// Begin, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch (== `start_ns` for instants).
    pub end_ns: u64,
    /// Kind-specific argument: owning group for donations, plans returned
    /// for cache lookups, plans offered / absorbed for exchange spans; 0
    /// otherwise.
    pub arg: u64,
}

/// An in-flight span returned by [`begin`]; carry it (or just its
/// [`id_of`]) to wherever the work ends and [`finish`] it there.
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: u64,
    kind: SpanKind,
    session: u64,
    start_ns: u64,
    arg: u64,
}

impl Span {
    /// This span's identity, for parenting children.
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Sets the kind-specific argument recorded at finish.
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

/// Identity of an optional in-flight span ([`SpanId::NONE`] when the span
/// was elided because tracing is disabled).
pub fn id_of(span: &Option<Span>) -> SpanId {
    span.as_ref().map_or(SpanId::NONE, Span::id)
}

/// Default ring capacity: spans retained between drains. Override at
/// runtime with [`set_capacity`] or the `MOQO_SPAN_CAPACITY` environment
/// variable (the same mechanism as the journal's).
pub const SPAN_CAPACITY: usize = 4096;

/// 0 = disabled (the default); the one relaxed load every span site pays.
static ENABLED: AtomicU32 = AtomicU32::new(0);

/// Next span id; ids are never reused and never 0.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Ring capacity; 0 means "not yet resolved" (env var or default).
static CAPACITY: AtomicUsize = AtomicUsize::new(0);

/// The ring. Only locked on the enabled path at finish time.
static RING: Mutex<VecDeque<SpanRecord>> = Mutex::new(VecDeque::new());

thread_local! {
    /// Ambient current span id: the parent for spans begun on this thread.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The process trace epoch all span timestamps are relative to; pinned on
/// first use so traces start near t=0.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Whether span recording is on. One relaxed load — the check every
/// instrumented site runs before touching anything else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// Turns span recording on (and pins the trace epoch).
pub fn enable() {
    epoch();
    ENABLED.store(1, Ordering::Relaxed);
}

/// Turns span recording off (the default state).
pub fn disable() {
    ENABLED.store(0, Ordering::Relaxed);
}

/// The effective ring capacity: the last [`set_capacity`] value, else
/// `MOQO_SPAN_CAPACITY`, else [`SPAN_CAPACITY`].
pub fn capacity() -> usize {
    let cap = CAPACITY.load(Ordering::Relaxed);
    if cap != 0 {
        return cap;
    }
    let cap = std::env::var("MOQO_SPAN_CAPACITY")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(SPAN_CAPACITY);
    CAPACITY.store(cap, Ordering::Relaxed);
    cap
}

/// Overrides the ring capacity (clamped to at least 1) and trims the ring
/// if it already holds more.
pub fn set_capacity(spans: usize) {
    let cap = spans.max(1);
    CAPACITY.store(cap, Ordering::Relaxed);
    let mut ring = RING.lock().unwrap();
    while ring.len() > cap {
        ring.pop_front();
        metrics().spans_dropped.incr();
    }
}

/// The calling thread's ambient span id (the default parent).
#[inline]
pub fn current() -> SpanId {
    SpanId(CURRENT.with(Cell::get))
}

/// Sets the calling thread's ambient span id; returns the previous value
/// so scopes can restore it. Executors call this around task invocations
/// so work run on another thread keeps its spawner's causal parent.
#[inline]
pub fn set_current(span: SpanId) -> SpanId {
    SpanId(CURRENT.with(|c| c.replace(span.0)))
}

/// Begins a span if tracing is enabled (`None` otherwise — the disabled
/// path is one relaxed load). Pass [`SpanId::NONE`] as `parent` to adopt
/// the thread's ambient [`current`] span.
#[inline]
pub fn begin(kind: SpanKind, parent: SpanId) -> Option<Span> {
    if !enabled() {
        return None;
    }
    Some(begin_span(kind, parent))
}

#[cold]
fn begin_span(kind: SpanKind, parent: SpanId) -> Span {
    let parent = if parent.is_none() { current() } else { parent };
    let c = ctx::current();
    Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: parent.0,
        kind,
        session: c.session,
        start_ns: now_ns(),
        arg: 0,
    }
}

/// Finishes an in-flight span, pushing its record into the ring. A `None`
/// span (tracing disabled at begin time) is a no-op.
#[inline]
pub fn finish(span: Option<Span>) {
    if let Some(span) = span {
        push_finished(span);
    }
}

#[cold]
fn push_finished(span: Span) {
    let record = SpanRecord {
        id: span.id,
        parent: span.parent,
        kind: span.kind,
        session: span.session,
        worker: ctx::current().worker,
        start_ns: span.start_ns,
        end_ns: now_ns(),
        arg: span.arg,
    };
    push(record);
}

/// Records a zero-duration instant (a donation link) if tracing is
/// enabled. `parent` of [`SpanId::NONE`] adopts the ambient span.
#[inline]
pub fn instant(kind: SpanKind, parent: SpanId, arg: u64) {
    if !enabled() {
        return;
    }
    push_instant(kind, parent, arg);
}

#[cold]
fn push_instant(kind: SpanKind, parent: SpanId, arg: u64) {
    let parent = if parent.is_none() { current() } else { parent };
    let c = ctx::current();
    let ts = now_ns();
    push(SpanRecord {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: parent.0,
        kind,
        session: c.session,
        worker: c.worker,
        start_ns: ts,
        end_ns: ts,
        arg,
    });
}

fn push(record: SpanRecord) {
    let mut ring = RING.lock().unwrap();
    if ring.len() >= capacity() {
        ring.pop_front();
        metrics().spans_dropped.incr();
    }
    ring.push_back(record);
    metrics().spans_recorded.incr();
}

/// Copies the current ring contents (oldest finish first) without
/// draining.
pub fn records() -> Vec<SpanRecord> {
    RING.lock().unwrap().iter().copied().collect()
}

/// Removes and returns the current ring contents (oldest finish first).
pub fn drain() -> Vec<SpanRecord> {
    RING.lock().unwrap().drain(..).collect()
}

fn write_ts_us(out: &mut String, ns: u64) {
    // Chrome trace timestamps are microseconds; keep nanosecond precision
    // as a fractional part.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders records as Chrome trace-event JSON (the JSON Object Format:
/// `{"traceEvents": [...]}`), loadable by Perfetto and `chrome://tracing`.
/// Spans become complete (`"ph":"X"`) events on `tid` = worker id;
/// donations become thread-scoped instants (`"ph":"i"`). Events are
/// sorted by start timestamp, and every event carries its `id`/`parent`
/// pair in `args` so causality survives the flat format.
pub fn write_chrome_trace(records: &[SpanRecord], out: &mut String) {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start_ns, r.id));
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"moqo\",\"ph\":\"{}\",\"ts\":",
            r.kind.name(),
            if r.kind.is_instant() { 'i' } else { 'X' }
        );
        write_ts_us(out, r.start_ns);
        if r.kind.is_instant() {
            out.push_str(",\"s\":\"t\"");
        } else {
            out.push_str(",\"dur\":");
            write_ts_us(out, r.end_ns.saturating_sub(r.start_ns));
        }
        let _ = write!(
            out,
            ",\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\
             \"session\":{},\"arg\":{}}}}}",
            r.worker, r.id, r.parent, r.session, r.arg
        );
    }
    out.push_str("]}");
}

/// [`write_chrome_trace`] into a fresh string.
pub fn to_chrome_trace(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 160);
    write_chrome_trace(records, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, OnceLock};

    /// The span switch and ring are process-global; tests serialize here
    /// (the journal tests use the same pattern for the same reason).
    fn span_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<TestMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = span_lock();
        disable();
        drain();
        let before = metrics().spans_recorded.get();
        let span = begin(SpanKind::Batch, SpanId::NONE);
        assert!(span.is_none());
        finish(span);
        instant(SpanKind::Donation, SpanId::NONE, 3);
        assert!(records().is_empty());
        assert_eq!(metrics().spans_recorded.get(), before);
    }

    #[test]
    fn spans_nest_and_cross_record_parent_links() {
        let _guard = span_lock();
        enable();
        drain();
        crate::ctx::set_session(7);
        let session = begin(SpanKind::Session, SpanId::NONE);
        let sid = id_of(&session);
        assert!(!sid.is_none());
        let prev = set_current(sid);
        let batch = begin(SpanKind::Batch, SpanId::NONE);
        instant(SpanKind::Donation, SpanId::NONE, 2);
        finish(batch);
        set_current(prev);
        finish(session);
        crate::ctx::clear();
        let recs = drain();
        disable();
        assert_eq!(recs.len(), 3);
        let session_rec = recs.iter().find(|r| r.kind == SpanKind::Session).unwrap();
        let batch_rec = recs.iter().find(|r| r.kind == SpanKind::Batch).unwrap();
        let donation_rec = recs.iter().find(|r| r.kind == SpanKind::Donation).unwrap();
        assert_eq!(session_rec.parent, 0);
        assert_eq!(batch_rec.parent, session_rec.id);
        assert_eq!(donation_rec.parent, session_rec.id);
        assert_eq!(donation_rec.arg, 2);
        assert!(recs.iter().all(|r| r.session == 7));
        assert!(batch_rec.end_ns >= batch_rec.start_ns);
        assert!(session_rec.end_ns >= batch_rec.end_ns);
    }

    #[test]
    fn ring_is_bounded_by_configured_capacity() {
        let _guard = span_lock();
        enable();
        drain();
        set_capacity(8);
        for _ in 0..20 {
            finish(begin(SpanKind::Batch, SpanId::NONE));
        }
        let recs = drain();
        set_capacity(SPAN_CAPACITY);
        disable();
        assert_eq!(recs.len(), 8);
        for pair in recs.windows(2) {
            assert!(pair[0].id < pair[1].id);
        }
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let _guard = span_lock();
        enable();
        drain();
        let session = begin(SpanKind::Session, SpanId::NONE);
        let sid = id_of(&session);
        let mut publish = begin(SpanKind::ExchangePublish, sid).unwrap();
        publish.set_arg(5);
        finish(Some(publish));
        instant(SpanKind::Donation, sid, 1);
        finish(session);
        let recs = drain();
        disable();
        let json = to_chrome_trace(&recs);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"session\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"arg\":5"));
        // The session begins first, so it must be the first event even
        // though it finished last.
        let first = json.find("\"name\":\"session\"").unwrap();
        let second = json.find("\"name\":\"exchange_publish\"").unwrap();
        assert!(first < second);
    }
}
