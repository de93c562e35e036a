//! Quickstart: optimize a 10-table chain query under time/buffer/disk
//! metrics with RMQ and print the approximate Pareto frontier.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::time::Duration;

use moqo_core::archive::ArchiveConfig;
use moqo_core::optimizer::{drive, Budget, NullObserver};
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_cost::ResourceCostModel;
use moqo_harness::stats::median_usize;
use moqo_workload::WorkloadSpec;

fn main() {
    // 1. A random 10-table chain query (stratified cardinalities,
    //    Steinbrunn-style selectivities) — or build your own Catalog.
    let (catalog, query) = WorkloadSpec::chain(10, 42).generate();
    println!("{catalog}");

    // 2. A cost model: execution time, buffer space and disk space over a
    //    textbook operator library (hash/BNL/Grace/sort-merge joins,
    //    pipelined vs. materialized transfer).
    let model = ResourceCostModel::full(catalog);

    // 3. The RMQ optimizer (Trummer & Koch, SIGMOD 2016). Exact pruning
    //    (alpha = 1) — for large queries prefer the paper's coarse-to-fine
    //    default schedule.
    let cfg = RmqConfig {
        archive: ArchiveConfig::fixed(1.0),
        ..RmqConfig::seeded(7)
    };
    let mut rmq = Rmq::new(&model, query.tables(), cfg);
    let stats = drive(
        &mut rmq,
        Budget::Time(Duration::from_millis(300)),
        &mut NullObserver,
    );

    // 4. The approximate Pareto plan set: one plan per optimal tradeoff.
    let mut frontier = rmq.frontier();
    frontier.sort_by(|a, b| a.cost()[0].total_cmp(&b.cost()[0]));
    println!(
        "RMQ ran {} iterations in {:?}; frontier has {} plan(s):\n",
        stats.steps,
        stats.elapsed,
        frontier.len()
    );
    println!("{:>12} {:>12} {:>12}   plan", "time", "buffer", "disk");
    for plan in &frontier {
        let c = plan.cost();
        println!(
            "{:>12.1} {:>12.1} {:>12.1}   {}",
            c[0],
            c[1],
            c[2],
            plan.display(&model)
        );
    }
    println!(
        "\nClimbing path lengths (median): {:?}",
        median_usize(&rmq.stats().path_lengths)
    );
}
