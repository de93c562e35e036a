//! Admission control: a bounded session queue.
//!
//! The service protects itself from unbounded backlog the way any
//! latency-sensitive server does — by rejecting work it cannot start soon
//! rather than queueing it forever. Admission is checked at
//! [`submit`](crate::OptimizationService::submit) time against the number
//! of *live* sessions (queued or being stepped); rejected requests return
//! immediately with [`AdmissionError::QueueFull`] so the client can shed
//! load, retry elsewhere, or degrade gracefully.

use std::fmt;

/// Admission-control configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum number of live (admitted, unfinished) sessions. Submissions
    /// beyond this are rejected with [`AdmissionError::QueueFull`].
    pub max_live_sessions: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_live_sessions: 64,
        }
    }
}

/// Why a submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The live-session bound is reached; retry after sessions finish.
    QueueFull {
        /// Live sessions at rejection time.
        live: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The service is shutting down and no longer accepts sessions.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { live, limit } => {
                write!(f, "admission queue full ({live}/{limit} live sessions)")
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}
