//! The structured event journal: a bounded ring buffer of typed events
//! behind a packed atomic target/severity filter.
//!
//! The design goal is the `StopFlag` property: a **disabled** journal
//! site costs one relaxed atomic load and an untaken branch — no lock, no
//! allocation, no event construction. The filter packs a 16-bit target
//! mask and the minimum severity into one `AtomicU32`, so
//! [`enabled`] is a single load plus two integer tests, and the
//! event-construction closure passed to [`emit_with`] only runs when the
//! site is live. Enabled events go into a global ring of [`capacity`]
//! entries ([`JOURNAL_CAPACITY`] by default, overridable at runtime via
//! [`set_capacity`] or `MOQO_JOURNAL_CAPACITY`); when full, the oldest
//! event is overwritten (sequence numbers expose the gap, and the ring's
//! drop counter counts it).

use std::fmt::{self, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::ctx::{self, Ctx};
use crate::metrics::METRICS;
use crate::ring::Ring;
use crate::snapshot::escape_json_into;

/// Event severity, ordered `Debug < Info < Warn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// High-frequency detail (per-iteration events).
    Debug = 0,
    /// Milestones: publishes, session lifecycle, plan executions.
    Info = 1,
    /// Anomalies worth surfacing even in quiet runs.
    Warn = 2,
}

impl Level {
    /// Short lowercase name (`"debug"`, `"info"`, `"warn"`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// Subsystem an event belongs to; each target is one bit in the filter
/// mask so tracing can be scoped to the seams under investigation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Target {
    /// The Pareto climb loop and RMQ iterations.
    Climb = 0,
    /// Plan-arena interning.
    Arena = 1,
    /// Shared-frontier exchange between intra-query workers.
    Exchange = 2,
    /// The cross-query plan cache.
    Cache = 3,
    /// Service admission control.
    Admission = 4,
    /// Service session lifecycle and scheduling.
    Service = 5,
    /// The execution engine.
    Exec = 6,
    /// The multi-tenant front door: shard routing, request coalescing,
    /// per-tenant quotas, and SLO-aware degradation.
    Frontdoor = 7,
}

impl Target {
    /// All targets, in bit order.
    pub const ALL: [Target; 8] = [
        Target::Climb,
        Target::Arena,
        Target::Exchange,
        Target::Cache,
        Target::Admission,
        Target::Service,
        Target::Exec,
        Target::Frontdoor,
    ];

    /// Short lowercase name (`"climb"`, `"exchange"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Target::Climb => "climb",
            Target::Arena => "arena",
            Target::Exchange => "exchange",
            Target::Cache => "cache",
            Target::Admission => "admission",
            Target::Service => "service",
            Target::Exec => "exec",
            Target::Frontdoor => "frontdoor",
        }
    }

    /// This target's bit in the filter mask.
    #[inline]
    pub const fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// One event field's value, as both renderers see it.
#[derive(Clone, Copy)]
enum Value {
    U64(u64),
    Bool(bool),
    Str(&'static str),
    /// An absent optional value: `null` in JSON, `-` in text.
    Null,
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

impl From<Option<u64>> for Value {
    fn from(v: Option<u64>) -> Self {
        v.map_or(Value::Null, Value::U64)
    }
}

/// The text form (`key=value` in [`Event`]'s `Display`).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
            Value::Null => f.write_str("-"),
        }
    }
}

impl Value {
    fn write_json(self, out: &mut String) {
        match self {
            Value::Str(s) => {
                out.push('"');
                escape_json_into(s, out);
                out.push('"');
            }
            Value::Null => out.push_str("null"),
            v => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

/// Declares [`EventKind`] once: each variant with its kind name and its
/// fields, whose names are the keys both renderers print.
macro_rules! event_kinds {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident = $kind:literal { $($(#[doc = $fdoc:literal])* $field:ident: $ty:ty,)* }
    )*) => {
        /// What happened. Variants are plain integers (plus `&'static str`
        /// labels), so constructing one never allocates.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum EventKind {
            $($(#[doc = $doc])* $variant { $($(#[doc = $fdoc])* $field: $ty,)* },)*
            /// A free-form static note (used by examples and tests).
            Note(&'static str),
        }

        impl EventKind {
            /// The kind name and the `(key, value)` fields, in rendering
            /// order.
            fn fields(&self) -> (&'static str, Vec<(&'static str, Value)>) {
                match *self {
                    $(EventKind::$variant { $($field),* } => {
                        ($kind, vec![$((stringify!($field), Value::from($field))),*])
                    })*
                    EventKind::Note(note) => ("note", vec![("note", Value::Str(note))]),
                }
            }
        }
    };
}

event_kinds! {
    /// One RMQ iteration finished (target [`Target::Climb`], `Debug`).
    Iteration = "iteration" {
        /// Mutation candidates the climb generated.
        mutations: u64,
        /// Candidates admitted into climb frontiers.
        admitted: u64,
        /// Candidates rejected as dominated or duplicate.
        rejected: u64,
        /// Result-frontier size after the iteration.
        frontier: u64,
    }
    /// A worker published its local frontier to the shared frontier.
    ExchangePublish = "exchange_publish" {
        /// Plans offered in this publish.
        offered: u64,
        /// Plans admitted into the global frontier.
        merged: u64,
        /// Global snapshot epoch after the publish.
        epoch: u64,
    }
    /// A worker absorbed the global snapshot into its local state.
    ExchangeAbsorb = "exchange_absorb" {
        /// Epoch of the snapshot absorbed.
        epoch: u64,
        /// Plans adopted from it.
        absorbed: u64,
    }
    /// A cross-query cache lookup resolved.
    CacheLookup = "cache_lookup" {
        /// Whether any warm-start plans were found.
        hit: bool,
        /// Plans returned.
        plans: u64,
    }
    /// A session was admitted.
    SessionSubmitted = "session_submitted" {
        /// Worker slots the session reserved (its fan-out).
        fan_out: u64,
        /// Plans absorbed from the cache at warm start.
        warm_plans: u64,
    }
    /// A submission was rejected by admission control.
    SessionRejected = "session_rejected" {
        /// Which admission bound rejected it.
        reason: &'static str,
    }
    /// A session was stepped for the first time.
    SessionFirstStep = "session_first_step" {
        /// Queue delay (submission → first step) in microseconds.
        delay_us: u64,
    }
    /// A session finished.
    SessionDone = "session_done" {
        /// Optimizer steps it ran.
        steps: u64,
        /// Why it finished.
        reason: &'static str,
        /// Time to first frontier in microseconds, if one was produced.
        ttff_us: Option<u64>,
    }
    /// A physical plan finished executing.
    ExecFinished = "exec_finished" {
        /// Tuples processed across all operators.
        tuples: u64,
        /// Rows spilled under memory grants.
        spilled: u64,
    }
    /// A tenant's admission token bucket ran dry and the request was
    /// shed (target [`Target::Frontdoor`], `Warn`).
    QuotaBreach = "quota_breach" {
        /// The tenant whose quota was exhausted.
        tenant: u64,
        /// Requests this tenant has had shed by quota so far.
        shed: u64,
    }
    /// A front-door shard changed its degradation level (target
    /// [`Target::Frontdoor`], `Warn` when escalating, `Info` on recovery).
    DegradeTransition = "degrade_transition" {
        /// The shard whose admission ladder moved.
        shard: u64,
        /// Previous level (0 full, 1 coarse ε, 2 reduced budget).
        from: u64,
        /// New level.
        to: u64,
    }
    /// A request was coalesced onto an in-flight identical optimization
    /// (target [`Target::Frontdoor`], `Debug`).
    SessionCoalesced = "session_coalesced" {
        /// The subscribing tenant.
        tenant: u64,
        /// Frontier epoch of the leader session at join time.
        epoch: u64,
    }
}

/// One journal entry: sequence number, severity, target, ambient
/// [`Ctx`], and the typed payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number across the process (gaps mean the ring
    /// overwrote events between two reads).
    pub seq: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem.
    pub target: Target,
    /// Ambient thread context at emission time.
    pub ctx: Ctx,
    /// The typed payload.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>6}] {:<5} {:<9}",
            self.seq,
            self.level.name(),
            self.target.name()
        )?;
        if self.ctx.session != 0 {
            write!(f, " s{}", self.ctx.session)?;
        }
        if self.ctx.worker != 0 {
            write!(f, " w{}", self.ctx.worker)?;
        }
        if self.ctx.iteration != 0 {
            write!(f, " i{}", self.ctx.iteration)?;
        }
        if self.ctx.epoch != 0 {
            write!(f, " e{}", self.ctx.epoch)?;
        }
        let (kind, fields) = self.kind.fields();
        write!(f, " | {kind}:")?;
        for (i, (key, value)) in fields.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}{key}={value}")?;
        }
        Ok(())
    }
}

impl Event {
    /// Renders this event as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_json(&mut out);
        out
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"level\":\"{}\",\"target\":\"{}\",\
             \"session\":{},\"worker\":{},\"iteration\":{},\"epoch\":{},",
            self.seq,
            self.level.name(),
            self.target.name(),
            self.ctx.session,
            self.ctx.worker,
            self.ctx.iteration,
            self.ctx.epoch,
        );
        let (kind, fields) = self.kind.fields();
        let _ = write!(out, "\"kind\":\"{kind}\"");
        for (key, value) in fields {
            let _ = write!(out, ",\"{key}\":");
            value.write_json(out);
        }
        out.push('}');
    }
}

/// Default ring capacity: events retained between drains. Override at
/// runtime with [`set_capacity`] or the `MOQO_JOURNAL_CAPACITY`
/// environment variable; the default keeps the fixed-size fast path.
pub const JOURNAL_CAPACITY: usize = 1024;

/// Packed filter: low 16 bits are the target mask, bits 16.. hold the
/// minimum level. Zero (empty mask) disables everything — the default.
static FILTER: AtomicU32 = AtomicU32::new(0);

/// Next event sequence number.
static SEQ: AtomicU64 = AtomicU64::new(1);

/// The ring. Only locked on the enabled path — a disabled journal never
/// touches it.
static RING: Ring<Event> = Ring::new(
    "MOQO_JOURNAL_CAPACITY",
    JOURNAL_CAPACITY,
    &METRICS.journal_dropped,
);

/// Whether events for `(target, level)` are currently recorded. One
/// relaxed load plus two integer tests — the check instrumented hot paths
/// run before constructing anything.
#[inline]
pub fn enabled(target: Target, level: Level) -> bool {
    let f = FILTER.load(Ordering::Relaxed);
    // The mask test fails immediately for the all-zero (disabled) filter.
    f & target.bit() != 0 && (level as u32) >= (f >> 16)
}

/// Enables recording for the given targets at `min_level` and above.
pub fn enable(targets: &[Target], min_level: Level) {
    let mut mask = 0u32;
    for t in targets {
        mask |= t.bit();
    }
    FILTER.store(mask | ((min_level as u32) << 16), Ordering::Relaxed);
}

/// Enables recording for every target at `min_level` and above.
pub fn enable_all(min_level: Level) {
    enable(&Target::ALL, min_level);
}

/// Disables all recording (the default state).
pub fn disable() {
    FILTER.store(0, Ordering::Relaxed);
}

/// Records an event if `(target, level)` is enabled, building the payload
/// only in that case. This is the instrumentation entry point:
///
/// ```
/// use moqo_obs::journal::{self, EventKind, Level, Target};
/// journal::emit_with(Target::Exchange, Level::Info, || EventKind::ExchangePublish {
///     offered: 4,
///     merged: 2,
///     epoch: 1,
/// });
/// ```
#[inline]
pub fn emit_with(target: Target, level: Level, kind: impl FnOnce() -> EventKind) {
    if !enabled(target, level) {
        return;
    }
    record(target, level, kind());
}

/// The effective ring capacity: the last [`set_capacity`] value, else
/// `MOQO_JOURNAL_CAPACITY`, else [`JOURNAL_CAPACITY`]. Only consulted on
/// the (cold) enabled recording path — the disabled fast path never reads
/// it.
pub fn capacity() -> usize {
    RING.capacity()
}

/// Overrides the ring capacity (clamped to at least 1) and trims the ring
/// if it already holds more than the new bound (trimmed events count as
/// dropped).
pub fn set_capacity(events: usize) {
    RING.set_capacity(events);
}

#[cold]
fn record(target: Target, level: Level, kind: EventKind) {
    RING.push(Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        level,
        target,
        ctx: ctx::current(),
        kind,
    });
}

/// Copies the current ring contents (oldest first) without draining.
pub fn events() -> Vec<Event> {
    RING.records()
}

/// Removes and returns the current ring contents (oldest first).
pub fn drain() -> Vec<Event> {
    RING.drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::metrics;
    use std::sync::{Mutex as TestMutex, OnceLock};

    /// The journal filter and ring are process-global; tests touching
    /// them serialize here so `cargo test`'s parallel runner cannot
    /// interleave enable/disable/drain sequences.
    fn journal_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<TestMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_filter_blocks_everything() {
        let _guard = journal_lock();
        disable();
        drain();
        assert!(!enabled(Target::Climb, Level::Warn));
        emit_with(Target::Climb, Level::Warn, || {
            panic!("payload must not be built when disabled")
        });
        assert!(events().is_empty());
    }

    #[test]
    fn filter_scopes_by_target_and_level() {
        let _guard = journal_lock();
        enable(&[Target::Exchange], Level::Info);
        assert!(enabled(Target::Exchange, Level::Info));
        assert!(enabled(Target::Exchange, Level::Warn));
        assert!(!enabled(Target::Exchange, Level::Debug));
        assert!(!enabled(Target::Climb, Level::Warn));
        disable();
    }

    #[test]
    fn emitted_events_carry_ctx_and_render() {
        let _guard = journal_lock();
        enable_all(Level::Debug);
        drain();
        crate::ctx::set_session(9);
        crate::ctx::set_iteration(3);
        emit_with(Target::Climb, Level::Debug, || EventKind::Iteration {
            mutations: 12,
            admitted: 2,
            rejected: 10,
            frontier: 5,
        });
        crate::ctx::clear();
        let evs = drain();
        disable();
        assert_eq!(evs.len(), 1);
        let e = evs[0];
        assert_eq!(e.ctx.session, 9);
        assert_eq!(e.ctx.iteration, 3);
        let text = e.to_string();
        assert!(text.contains("s9"), "{text}");
        assert!(
            text.contains("iteration: mutations=12, admitted=2, rejected=10, frontier=5"),
            "{text}"
        );
        let json = e.to_json();
        assert!(json.contains("\"kind\":\"iteration\""), "{json}");
        assert!(json.contains("\"session\":9"), "{json}");
    }

    #[test]
    fn ring_is_bounded_and_seq_monotone() {
        let _guard = journal_lock();
        enable(&[Target::Arena], Level::Debug);
        drain();
        let before = metrics().journal_dropped.get();
        for _ in 0..(JOURNAL_CAPACITY + 50) {
            emit_with(Target::Arena, Level::Debug, || EventKind::Note("x"));
        }
        let dropped = metrics().journal_dropped.get() - before;
        let evs = drain();
        disable();
        assert_eq!(evs.len(), JOURNAL_CAPACITY);
        assert_eq!(dropped, 50, "overwritten events count as dropped");
        for pair in evs.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn capacity_is_runtime_configurable() {
        let _guard = journal_lock();
        enable(&[Target::Cache], Level::Debug);
        drain();
        set_capacity(4);
        assert_eq!(capacity(), 4);
        for _ in 0..10 {
            emit_with(Target::Cache, Level::Debug, || EventKind::Note("y"));
        }
        let evs = drain();
        // Restore the default before releasing the lock so sibling tests
        // see the documented fixed-size behavior.
        set_capacity(JOURNAL_CAPACITY);
        disable();
        assert_eq!(evs.len(), 4);
        assert_eq!(capacity(), JOURNAL_CAPACITY);
    }

    #[test]
    fn frontdoor_events_render_text_and_json() {
        let mk = |kind| Event {
            seq: 1,
            level: Level::Warn,
            target: Target::Frontdoor,
            ctx: Ctx::default(),
            kind,
        };
        let q = mk(EventKind::QuotaBreach { tenant: 7, shed: 3 });
        assert!(q.to_string().contains("quota_breach: tenant=7, shed=3"));
        assert!(q.to_json().contains("\"kind\":\"quota_breach\""), "{q}");
        let d = mk(EventKind::DegradeTransition {
            shard: 2,
            from: 0,
            to: 1,
        });
        assert!(d
            .to_string()
            .contains("degrade_transition: shard=2, from=0, to=1"));
        assert!(d.to_json().contains("\"kind\":\"degrade_transition\""));
        let c = mk(EventKind::SessionCoalesced {
            tenant: 5,
            epoch: 4,
        });
        assert!(c.to_json().contains("\"kind\":\"session_coalesced\""));
        assert_eq!(Target::Frontdoor.name(), "frontdoor");
        assert_eq!(Target::ALL.len(), 8);
        assert_eq!(Target::Frontdoor.bit(), 1 << 7);
    }
}
