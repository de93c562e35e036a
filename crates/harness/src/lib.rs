//! # moqo-harness — the paper's experimental evaluation, reproducible
//!
//! Drives every experiment of the paper's §6 and appendix: the nine figures
//! comparing DP approximation schemes, SA, 2P, NSGA-II, II, and RMQ on
//! chain/cycle/star queries of 4–100 tables under 2–3 cost metrics, plus
//! the path-length/Pareto-count statistics of Figure 3. (The ablations of
//! §4.2/§4.3's design choices — fast vs. naive climbing, the plan cache, the
//! α schedule, sampled neighbors — are `moqo-bench`'s `ablations` bench.)
//!
//! Measurement protocol (§6.1): per test case all algorithms run under the
//! same wall-clock budget; frontiers are snapshotted at regular checkpoints;
//! each snapshot is scored with the ε-indicator α against a reference
//! frontier (union of all algorithms' outputs, or an exact DP frontier for
//! small queries); panels report the **median α per checkpoint** over the
//! test cases.
//!
//! Budgets are scaled down from the paper's 3 s/30 s (a Rust iteration is
//! much cheaper than the paper's Java 1.7 iteration); the scale is
//! controlled by [`EnvConfig`] (`MOQO_TIME_SCALE`, `MOQO_CASES`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod algorithms;
pub mod export;
pub mod fig3;
pub mod figures;
pub mod report;
pub mod runner;
pub mod stats;

pub use algorithms::AlgorithmKind;
pub use figures::{FigureSpec, ReferenceKind};
pub use runner::{run_figure, FigureResult, PanelResult};

/// Environment-controlled scaling of the experiment suite.
#[derive(Clone, Copy, Debug)]
pub struct EnvConfig {
    /// Multiplier applied to every figure's default (already scaled-down)
    /// budget. `MOQO_TIME_SCALE`, default `1.0`.
    pub time_scale: f64,
    /// Test cases per data point (the paper uses 20, resp. 10 for the long
    /// experiments). `MOQO_CASES`, default figure-specific.
    pub cases_override: Option<usize>,
    /// Restrict panels to at most this many query sizes (smoke tests).
    /// `MOQO_MAX_SIZES`.
    pub max_sizes: Option<usize>,
}

impl EnvConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        fn parse<T: std::str::FromStr>(key: &str) -> Option<T> {
            std::env::var(key).ok()?.parse().ok()
        }
        EnvConfig {
            time_scale: parse("MOQO_TIME_SCALE").unwrap_or(1.0),
            cases_override: parse("MOQO_CASES"),
            max_sizes: parse("MOQO_MAX_SIZES"),
        }
    }

    /// A fixed configuration (tests).
    pub fn fixed(time_scale: f64, cases: Option<usize>) -> Self {
        EnvConfig {
            time_scale,
            cases_override: cases,
            max_sizes: None,
        }
    }
}

/// SplitMix64 seed derivation for independent experiment streams.
pub fn derive_seed(base: u64, parts: &[u64]) -> u64 {
    let mut x = base;
    for &p in parts {
        x = x
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(p.wrapping_mul(0xff51_afd7_ed55_8ccd));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a = derive_seed(1, &[2, 3]);
        let b = derive_seed(1, &[2, 4]);
        let c = derive_seed(1, &[2, 3]);
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_ne!(derive_seed(1, &[2, 3]), derive_seed(2, &[2, 3]));
    }

    #[test]
    fn env_config_defaults() {
        let cfg = EnvConfig::fixed(1.0, None);
        assert_eq!(cfg.time_scale, 1.0);
        assert!(cfg.cases_override.is_none());
        assert!(cfg.max_sizes.is_none());
    }
}
