//! # moqo-obs — zero-overhead observability for the moqo optimizer
//!
//! The paper's central property is *anytime* behavior: usable frontiers in
//! milliseconds, refined forever. Observing only the endpoints (final
//! frontiers, TTFF percentiles) cannot explain *why* a session is fast or
//! slow — how many mutations the agg-key pre-filter screened out before a
//! full dominance test ran, how long workers waited on the shared-frontier
//! mutex, whether cache warm-starts actually shortened climbs. This crate
//! is the telemetry layer that answers those questions without slowing the
//! loops it watches:
//!
//! * [`mod@metrics`] — a registry of lock-free counters and fixed-bucket
//!   histograms. Hot counters are **sharded per thread** (cache-line
//!   padded), so an instrumented hot loop costs one relaxed atomic add on
//!   a thread-private line; the truly hot paths (Pareto screening) count
//!   into plain non-atomic fields and flush a delta once per RMQ
//!   iteration, costing nothing per candidate.
//! * [`journal`] — a bounded ring buffer of typed [`Event`]s
//!   carrying `(session, worker, epoch, iteration)` context from [`ctx`].
//!   A packed atomic target/severity filter makes a **disabled** journal
//!   site compile to one relaxed load and a branch — the same pattern the
//!   optimizer's `StopFlag` uses for cancellation.
//! * [`snapshot`] — [`ObsSnapshot`]: a point-in-time
//!   capture of every registered metric plus the journal tail,
//!   serializable to JSON (hand-rolled, no dependencies) or a plain-text
//!   exposition dump.
//! * [`mod@spans`] — causal span tracing: begin/end records for session
//!   slices, climb batches, exchange operations, and cache lookups, with
//!   parent links that survive cross-worker batches, exportable as Chrome
//!   trace-event JSON (Perfetto-loadable). Same disabled-path discipline
//!   as the journal: one relaxed load per site when off.
//!
//! ## Overhead contract
//!
//! With the journal disabled (the default), every instrumentation site is
//! either a relaxed atomic add on a thread-local shard, a plain integer
//! increment flushed at iteration granularity, or a single relaxed load
//! plus an untaken branch. Nothing allocates, nothing locks, and no
//! `Instant::now` runs on a per-candidate path — clocks are sampled at
//! slice/publish granularity only.
//!
//! ```
//! use moqo_obs::{journal, metrics, snapshot::ObsSnapshot};
//!
//! metrics::metrics().rmq_iterations.add(3);
//! journal::enable_all(journal::Level::Debug);
//! journal::emit_with(journal::Target::Climb, journal::Level::Info, || {
//!     journal::EventKind::Note("climb started")
//! });
//! let snap = ObsSnapshot::capture();
//! assert!(snap.counter("rmq.iterations") >= 3);
//! assert!(snap.to_json().starts_with("{\"schema\":1"));
//! journal::disable();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ctx;
pub mod journal;
pub mod metrics;
mod ring;
pub mod snapshot;
pub mod spans;

pub use ctx::Ctx;
pub use journal::{Event, EventKind, Level, Target};
pub use metrics::{metrics, Counter, Histogram, HistogramSnapshot, Metrics, ShardedCounter};
pub use snapshot::ObsSnapshot;
pub use spans::{SpanId, SpanKind, SpanRecord};
