//! `optimize` — multi-objective query optimization from the command line.
//!
//! ```text
//! Usage: optimize [OPTIONS]
//!
//!   --catalog FILE     catalog JSON (CatalogSpec format); omit for a demo
//!   --model NAME       resource (default) | cloud | aqp | energy
//!   --metrics LIST     resource model only: comma list of time,buffer,disk
//!   --budget-ms N      optimization budget (default 500)
//!   --parallel N       fan the query out over N worker threads (default 1)
//!   --seed N           RNG seed (default 42)
//!   --weights LIST     select a plan: comma list of per-metric weights
//!   --bound K=V        upper bound on metric index K (repeatable)
//!   --scatter          also draw the ASCII frontier scatter plot
//!   --trace            enable the observability journal; print the event
//!                      tail and counter dump after the run
//!   --trace-out FILE   record causal spans and write them as Chrome
//!                      trace-event JSON (load in Perfetto / chrome://tracing)
//! ```
//!
//! Example catalog file:
//!
//! ```json
//! {
//!   "tables": [
//!     {"name": "orders",    "rows": 1000000},
//!     {"name": "customers", "rows": 50000}
//!   ],
//!   "joins": [
//!     {"a": 0, "b": 1, "selectivity": 0.00002}
//!   ]
//! }
//! ```

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use moqo_catalog::{Catalog, CatalogSpec};
use moqo_core::model::CostModel;
use moqo_core::optimizer::{drive, Budget, NullObserver};
use moqo_core::plan::PlanRef;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_cost::{AqpCostModel, CloudCostModel, EnergyCostModel, ResourceCostModel, ResourceMetric};
use moqo_metrics::{frontier_table, scatter_plans, Preferences, ScatterConfig};
use moqo_parallel::{ParRmq, ParRmqConfig};
use moqo_workload::WorkloadSpec;

struct Options {
    catalog: Option<String>,
    model: String,
    metrics: Vec<ResourceMetric>,
    budget: Duration,
    parallel: usize,
    seed: u64,
    weights: Option<Vec<f64>>,
    bounds: Vec<(usize, f64)>,
    scatter: bool,
    trace: bool,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: optimize [--catalog FILE] [--model resource|cloud|aqp|energy] \
         [--metrics time,buffer,disk] [--budget-ms N] [--parallel N] [--seed N] \
         [--weights w0,w1,..] [--bound K=V]... [--scatter] [--trace] [--trace-out FILE]"
    );
    exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

fn parse_args() -> Options {
    let mut opts = Options {
        catalog: None,
        model: "resource".to_string(),
        metrics: vec![ResourceMetric::Time, ResourceMetric::Buffer],
        budget: Duration::from_millis(500),
        parallel: 1,
        seed: 42,
        weights: None,
        bounds: Vec::new(),
        scatter: false,
        trace: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--catalog" => opts.catalog = Some(value("--catalog")),
            "--model" => opts.model = value("--model"),
            "--metrics" => {
                opts.metrics = value("--metrics")
                    .split(',')
                    .map(|m| match m.trim() {
                        "time" => ResourceMetric::Time,
                        "buffer" => ResourceMetric::Buffer,
                        "disk" => ResourceMetric::Disk,
                        other => fail(&format!("unknown metric '{other}'")),
                    })
                    .collect();
            }
            "--budget-ms" => {
                let ms: u64 = value("--budget-ms").parse().unwrap_or_else(|_| usage());
                opts.budget = Duration::from_millis(ms);
            }
            "--parallel" => {
                opts.parallel = value("--parallel").parse().unwrap_or_else(|_| usage());
                if opts.parallel == 0 {
                    fail("--parallel needs at least one worker");
                }
            }
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--weights" => {
                opts.weights = Some(
                    value("--weights")
                        .split(',')
                        .map(|w| w.trim().parse().unwrap_or_else(|_| usage()))
                        .collect(),
                );
            }
            "--bound" => {
                let spec = value("--bound");
                let Some((k, v)) = spec.split_once('=') else {
                    usage()
                };
                let k: usize = k.parse().unwrap_or_else(|_| usage());
                let v: f64 = v.parse().unwrap_or_else(|_| usage());
                opts.bounds.push((k, v));
            }
            "--scatter" => opts.scatter = true,
            "--trace" => opts.trace = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    opts
}

fn load_catalog(opts: &Options) -> Arc<Catalog> {
    match &opts.catalog {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            let spec: CatalogSpec = serde_json::from_str(&text)
                .unwrap_or_else(|e| fail(&format!("invalid catalog JSON: {e}")));
            Arc::new(
                spec.build()
                    .unwrap_or_else(|e| fail(&format!("invalid catalog: {e}"))),
            )
        }
        None => {
            eprintln!("(no --catalog given: using a demo 8-table chain workload)");
            WorkloadSpec::chain(8, opts.seed).generate().0
        }
    }
}

fn optimize_and_report<M: CostModel + Clone + Send + 'static>(model: &M, opts: &Options) {
    use moqo_obs::spans;
    let query = moqo_core::TableSet::prefix(model.num_tables());
    // Root the whole run in one Session span: fanned-out climb batches
    // inherit it as their parent through the ambient span the executor
    // propagates to whichever worker thread runs them.
    let mut session = spans::begin(spans::SpanKind::Session, spans::SpanId::NONE);
    let prev = session.as_ref().map(|s| spans::set_current(s.id()));
    let mut frontier: Vec<PlanRef> = if opts.parallel > 1 {
        // Intra-query fan-out: each climb batch owns a model clone (cheap
        // — the catalog inside is Arc-shared) so batches can run on the
        // shared executor.
        let mut par = ParRmq::new(
            model.clone(),
            query,
            ParRmqConfig::seeded(opts.seed, opts.parallel),
        );
        let run = par.optimize(Budget::Time(opts.budget));
        let ex = run.exchange;
        println!(
            "{} iterations in {:?} on {} workers ({} exchange epochs, {} plans merged); {} Pareto plan(s)\n",
            run.iterations,
            run.elapsed,
            opts.parallel,
            ex.partial_epochs,
            ex.partial_merged,
            par.frontier().len()
        );
        par.frontier()
    } else {
        let mut rmq = Rmq::new(model, query, RmqConfig::seeded(opts.seed));
        let stats = drive(&mut rmq, Budget::Time(opts.budget), &mut NullObserver);
        println!(
            "{} iterations in {:?}; {} Pareto plan(s)\n",
            stats.steps,
            stats.elapsed,
            rmq.frontier().len()
        );
        rmq.frontier()
    };
    if let Some(prev) = prev {
        spans::set_current(prev);
    }
    if let Some(s) = session.as_mut() {
        s.set_arg(frontier.len() as u64);
    }
    spans::finish(session);
    frontier.sort_by(|a, b| a.cost()[0].total_cmp(&b.cost()[0]));
    println!("{}", frontier_table(&frontier, model));
    if opts.scatter && model.dim() >= 2 {
        println!(
            "{}",
            scatter_plans(&frontier, model, &ScatterConfig::default())
        );
    }
    if let Some(weights) = &opts.weights {
        if weights.len() != model.dim() {
            fail(&format!(
                "--weights needs {} components for this model",
                model.dim()
            ));
        }
        let mut prefs = Preferences::weighted(weights);
        for &(k, v) in &opts.bounds {
            if k >= model.dim() {
                fail(&format!("--bound index {k} out of range"));
            }
            prefs = prefs.with_bound(k, v);
        }
        match prefs.select(&frontier) {
            Ok(plan) => {
                println!("selected plan (weights {weights:?}):");
                println!("  {}", plan.display(model));
                for k in 0..model.dim() {
                    println!("  {:>12}: {:.3}", model.metric_name(k), plan.cost()[k]);
                }
            }
            Err(e) => fail(&format!("plan selection failed: {e}")),
        }
    }
}

/// Prints the observability trace: the journal's event tail (human
/// rendering) followed by the nonzero counters and populated histograms.
fn report_trace() {
    let snap = moqo_obs::ObsSnapshot::capture();
    println!("\n--- trace: event tail ---");
    let events = moqo_obs::journal::events();
    if events.is_empty() {
        println!("(no events recorded)");
    }
    for event in &events {
        println!("{event}");
    }
    println!("--- trace: metrics ---");
    for (name, value) in &snap.counters {
        if *value > 0 {
            println!("{name} = {value}");
        }
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 {
            println!(
                "{name}: count {} mean {:.1} p50 {} p99 {} max {}",
                h.count,
                h.mean(),
                h.p50,
                h.p99,
                h.max
            );
        }
    }
}

/// Drains the span ring and writes it as Chrome trace-event JSON.
fn write_trace(path: &str) {
    use moqo_obs::spans;
    spans::disable();
    let records = spans::drain();
    let json = spans::to_chrome_trace(&records);
    std::fs::write(path, json)
        .unwrap_or_else(|e| fail(&format!("cannot write trace to {path}: {e}")));
    println!(
        "\nwrote {} span(s) to {path} (Chrome trace-event JSON)",
        records.len()
    );
}

fn main() {
    let opts = parse_args();
    if opts.trace {
        moqo_obs::journal::enable_all(moqo_obs::journal::Level::Debug);
    }
    if opts.trace_out.is_some() {
        moqo_obs::spans::enable();
    }
    let catalog = load_catalog(&opts);
    println!("{catalog}");
    match opts.model.as_str() {
        "resource" => {
            let model = ResourceCostModel::new(catalog, &opts.metrics);
            optimize_and_report(&model, &opts);
        }
        "cloud" => optimize_and_report(&CloudCostModel::new(catalog), &opts),
        "aqp" => optimize_and_report(&AqpCostModel::new(catalog), &opts),
        "energy" => optimize_and_report(&EnergyCostModel::new(catalog), &opts),
        other => fail(&format!("unknown model '{other}'")),
    }
    if opts.trace {
        report_trace();
    }
    if let Some(path) = &opts.trace_out {
        write_trace(path);
    }
}
