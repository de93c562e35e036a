//! # moqo-core — multi-objective query optimization
//!
//! This crate implements the primary contribution of Trummer & Koch,
//! *"A Fast Randomized Algorithm for Multi-Objective Query Optimization"*
//! (SIGMOD 2016): the **RMQ** optimizer, together with the plan space,
//! Pareto-pruning machinery, plan cache and hill-climbing procedures it is
//! built from.
//!
//! Multi-objective query optimization (MOQO) compares query plans by a cost
//! *vector* (e.g. execution time, buffer space, disk space) instead of a
//! scalar. The goal is an (approximate) *Pareto set*: plans realizing the
//! optimal cost tradeoffs for a query. All previously published MOQO
//! algorithms have exponential complexity in the number of query tables; RMQ
//! is the first with polynomial complexity per iteration.
//!
//! ## Architecture
//!
//! * [`tables`] — compact table sets (`u128` bitsets), the `p.rel` of the
//!   paper's formal model (§3).
//! * [`cost`] — cost vectors and the Pareto-dominance relations (`⪯`, `≺`,
//!   `⪯_α`) of §3.
//! * [`archive`] — the archive / admission API: per-metric approximation
//!   factors and ε-Pareto boxes ([`archive::EpsFactors`]), the one
//!   admission rule enum ([`archive::Admission`]), and the per-iteration
//!   factor schedule ([`archive::ArchiveConfig`]).
//! * [`arena`] — the hash-consed plan arena ([`arena::PlanArena`] /
//!   [`arena::PlanId`]): the one plan representation every optimizer
//!   computes on, where structurally identical subplans are interned once
//!   and plan handles are `Copy` integers. Random plans, mutations, climbs
//!   and frontier approximation all work on arena ids.
//! * [`plan`] — immutable, `Arc`-shared bushy plan trees (`ScanPlan` /
//!   `JoinPlan`); only the exchange format at API boundaries
//!   ([`arena::PlanArena::export`]/[`arena::PlanArena::import`]).
//! * [`model`] — the [`model::CostModel`] trait through which the optimizer
//!   sees operators, costs, cardinalities and output formats.
//! * [`pareto`] — the two `Prune` variants of Algorithms 2 and 3.
//! * [`cache`] — the partial-plan cache `P[rel]` shared across iterations.
//! * [`random_plan`] — uniform random bushy plans in `O(n)` (Lemma 1).
//! * [`mutations`] — the standard bushy-plan transformation rules.
//! * [`climb`] — `ParetoStep` / `ParetoClimb` (Algorithm 2) plus the naive
//!   climbing variant used for ablations and the local-optimum check.
//! * [`frontier`] — `ApproximateFrontiers` (Algorithm 3); the
//!   `α(i) = 25 · 0.99^⌊i/25⌋` precision schedule lives in
//!   [`archive::EpsSchedule`].
//! * [`rmq`] — the `RandomMOQO` main loop (Algorithm 1).
//! * [`optimizer`] — the anytime [`optimizer::Optimizer`] interface and
//!   budget-driven driver shared with the baseline algorithms.
//! * [`theory`] — the statistical model of §5 (expected climbing path
//!   lengths), reproduced analytically and by Monte-Carlo simulation.
//!
//! ## Quick start
//!
//! ```
//! use moqo_core::model::testing::StubModel;
//! use moqo_core::optimizer::{drive, Budget, NullObserver, Optimizer};
//! use moqo_core::rmq::{Rmq, RmqConfig};
//! use moqo_core::tables::TableSet;
//!
//! // A small synthetic cost model with 2 metrics over 6 tables.
//! let model = StubModel::line(6, 2, 42);
//! let query = TableSet::prefix(6);
//! let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(7));
//! drive(&mut rmq, Budget::Iterations(50), &mut NullObserver);
//! let frontier = rmq.frontier();
//! assert!(!frontier.is_empty());
//! for plan in &frontier {
//!     println!("{} -> {}", plan.display(&model), plan.cost());
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod archive;
pub mod arena;
pub mod cache;
pub mod climb;
pub mod cost;
pub mod frontier;
pub mod fxhash;
pub mod model;
pub mod mutations;
pub mod optimizer;
pub mod pareto;
pub mod plan;
pub mod random_plan;
pub mod rmq;
pub mod tables;
pub mod theory;

pub use archive::{Admission, ArchiveConfig, EpsFactors};
pub use arena::{PlanArena, PlanId};
pub use cost::CostVector;
pub use plan::{Plan, PlanRef};
pub use tables::{TableId, TableSet};
