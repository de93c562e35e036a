//! The headline claim: RMQ optimizes queries joining **100 tables** —
//! an order of magnitude beyond what multi-objective DP can handle.
//! Runs RMQ on 25/50/100-table star queries, shows iteration counts and
//! climbing path lengths (paper §5: expected path length is O(n)), and
//! contrasts with the DP approximation scheme, which cannot finish.
//!
//! ```sh
//! cargo run --release --example large_query_scaling
//! ```

use std::time::Duration;

use moqo_baselines::DpOptimizer;
use moqo_core::optimizer::{drive, Budget, NullObserver, Optimizer};
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::theory;
use moqo_cost::{ResourceCostModel, ResourceMetric};
use moqo_harness::stats::median_usize;
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};

fn main() {
    let budget = Duration::from_millis(500);
    println!(
        "{:>7} | {:>10} {:>12} {:>14} {:>10} | {:>14}",
        "tables", "RMQ iters", "frontier", "median path", "E[path]", "DP(2) status"
    );
    for n in [25usize, 50, 100] {
        let (catalog, query) = WorkloadSpec {
            tables: n,
            shape: GraphShape::Star,
            selectivity: SelectivityMethod::Steinbrunn,
            seed: n as u64,
        }
        .generate();
        let model = ResourceCostModel::new(
            catalog,
            &[
                ResourceMetric::Time,
                ResourceMetric::Buffer,
                ResourceMetric::Disk,
            ],
        );

        let mut rmq = Rmq::new(&model, query.tables(), RmqConfig::seeded(9));
        let stats = drive(&mut rmq, Budget::Time(budget), &mut NullObserver);

        let mut dp = DpOptimizer::new(&model, query.tables(), 2.0);
        drive(&mut dp, Budget::Time(budget), &mut NullObserver);
        let dp_status = if dp.is_complete() {
            format!("finished ({} plans)", dp.frontier().len())
        } else {
            format!("unfinished ({} plans costed)", dp.plans_costed())
        };

        println!(
            "{:>7} | {:>10} {:>12} {:>14.1} {:>10.2} | {:>14}",
            n,
            stats.steps,
            rmq.frontier().len(),
            median_usize(&rmq.stats().path_lengths).unwrap_or(0.0),
            theory::expected_path_length(n, 3),
            dp_status
        );
    }
    println!(
        "\nDP is exponential in the table count; RMQ's per-iteration cost is\n\
         polynomial and its climb paths stay short (O(n) expected, §5), so\n\
         only RMQ keeps producing Pareto plan sets at this scale."
    );
}
