//! The repository's end-to-end benchmark: four workloads over the
//! optimizer core, the parallel optimizer, and the front door, driven only
//! through public functions. See `README.md` in this directory.
//!
//! ```text
//! moqo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--human] [--smoke]
//! moqo-benchmark --write-lock        # regenerate fixtures.lock and targets.json
//! moqo-benchmark --print-spec        # the text of BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is 0 only when every
//! operation succeeded and every correctness check held.

mod checks;
mod cost_wrap;
mod door;
mod fixtures;
mod par;
mod report;
mod score;
mod seq;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures by default.
pub const RUN_SECONDS: u32 = 20;

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Sequential RMQ, the paper's 2-metric configuration (small frontiers).
    SeqPaper,
    /// Sequential RMQ, 3 metrics, MinMax selectivities (large frontiers).
    SeqManyobj,
    /// `ParRmq` on the `seq_manyobj` fixtures.
    ParFanout,
    /// Skewed multi-tenant replay through the front door.
    DoorReplay,
}

impl Workload {
    /// All workloads in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SeqPaper,
        Workload::SeqManyobj,
        Workload::ParFanout,
        Workload::DoorReplay,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqPaper => "seq_paper",
            Workload::SeqManyobj => "seq_manyobj",
            Workload::ParFanout => "par_fanout",
            Workload::DoorReplay => "door_replay",
        }
    }

    /// Why the workload exists (`BENCHMARK.json`, one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SeqPaper => "Sequential Rmq in the paper's 2-metric setting (n=25, chain/star/cycle): 2-4-plan frontiers, ~80 % of time in climb and cost model; bypasses the archive machinery",
            Workload::SeqManyobj => "Sequential Rmq, 3 metrics, MinMax, n=50 chain/cycle: 50-100-plan frontiers, >40 % of time in frontier approximation; a dominance-kernel change moves it and seq_paper in opposite directions",
            Workload::ParFanout => "ParRmq, 2 workers, live mode, on the seq_manyobj fixtures: exchange, shared frontier and worker threads dominate; today slower than one sequential thread",
            Workload::DoorReplay => "FrontDoor (2 shards x 1 worker) under zipf-skewed 16-tenant traffic: open loop at 40 req/s for latency, closed loop of 24 for capacity; scheduler, warm start, coalescing and ladder dominate",
        }
    }
}

/// Parsed command line of one workload run.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Shrink every workload to ≤ 2 s; values are not comparable.
    pub smoke: bool,
    /// Print the metric table before the result line.
    pub human: bool,
}

impl Args {
    /// Whether the default seed's frozen fixtures and targets apply.
    pub fn frozen(&self) -> bool {
        self.seed == fixtures::DEFAULT_SEED && !self.smoke
    }
}

/// Decides whether another fixed-size pass still fits the measuring time.
pub struct PassClock {
    start: Instant,
    budget: Duration,
    single: bool,
}

impl PassClock {
    /// Starts the measuring window.
    pub fn start(args: &Args) -> Self {
        PassClock {
            start: Instant::now(),
            budget: Duration::from_secs_f64(args.seconds),
            single: args.smoke,
        }
    }

    /// True while no pass has run, and afterwards as long as at least half
    /// of another average pass fits. Work per pass is fixed, so a faster
    /// program runs more passes, never different ones.
    pub fn another(&self, passes_done: u32) -> bool {
        if passes_done == 0 {
            return true;
        }
        if self.single {
            return false;
        }
        let elapsed = self.start.elapsed();
        elapsed + elapsed / passes_done / 2 < self.budget
    }
}

/// Runs `setup` several times — seven, or as many as fit two seconds but at
/// least three — and returns the last product with the median set-up time
/// in seconds.
pub fn timed_setup<T>(args: &Args, mut setup: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut product = None;
    while product.is_none()
        || (!args.smoke
            && times.len() < 7
            && (times.len() < 3 || started.elapsed() < Duration::from_secs(2)))
    {
        let t = Instant::now();
        product = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        product.expect("at least one set-up ran"),
        stats::median(&times),
    )
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aborts on fixture drift: measuring other inputs silently is worse than
/// not measuring.
pub fn verify_lock_or_exit(args: &Args, lines: &[String]) {
    if !args.frozen() {
        return;
    }
    if let Err(e) = fixtures::verify_lock(args.workload, lines) {
        eprintln!("benchmark: {e}");
        eprintln!("benchmark: regenerate with `moqo-benchmark --write-lock` only if the change of inputs is intended");
        std::process::exit(3);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: moqo-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--human] [--smoke]\n       moqo-benchmark --write-lock | --print-spec",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: Workload::SeqPaper,
        seed: fixtures::DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        human: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            "--human" => args.human = true,
            "--write-lock" => return None,
            "--print-spec" => {
                print!("{}", report::benchmark_json(RUN_SECONDS));
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage();
    }
    args.workload = workload.unwrap_or_else(|| usage());
    Some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return match seq::write_lock_files() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: cannot write lock files: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let outcome: Outcome = match args.workload {
        Workload::SeqPaper | Workload::SeqManyobj => seq::run(&args),
        Workload::ParFanout => par::run(&args),
        Workload::DoorReplay => door::run(&args),
    };
    for f in &outcome.failures {
        eprintln!("benchmark: FAILED {}: {f}", args.workload.name());
    }
    if args.human {
        print!(
            "{}",
            report::human_table(args.workload.name(), &outcome, args.trace, args.smoke)
        );
    }
    println!("{}", report::result_line(&outcome, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
