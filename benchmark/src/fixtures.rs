//! Inputs: every catalog, query, model and RMQ seed is derived from `--seed`.
//!
//! The default seed's inputs are frozen in `fixtures.lock` (catalog
//! fingerprints and query-stream hashes) and `targets.json` (the quality
//! targets of `tt_target_ms`); both are compiled in. A mismatch — say, RNG
//! drift in `moqo-workload` — aborts the run instead of silently measuring
//! a different workload. Any other seed skips the lock and derives its
//! targets on the fly.

use std::sync::Arc;

use moqo_catalog::Catalog;
use moqo_core::TableSet;
use moqo_cost::resource::{ResourceCostModel, ResourceMetric};
use moqo_service::context_fingerprint;
use moqo_workload::{GraphShape, SelectivityMethod, SessionPlan, TrafficSpec, WorkloadSpec};

use crate::Workload;

/// The seed whose inputs are frozen in `fixtures.lock` / `targets.json`.
pub const DEFAULT_SEED: u64 = 1;

const LOCK: &str = include_str!("../fixtures.lock");
const TARGETS: &str = include_str!("../targets.json");

/// SplitMix64 over `(seed, stream)`: independent sub-seeds per purpose.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a, the hash `fixtures.lock` records for query streams.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds one word.
    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a table set.
    pub fn eat_tables(&mut self, tables: TableSet) {
        self.eat(tables.bits() as u64);
        self.eat((tables.bits() >> 64) as u64);
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Shape of a sequential / parallel optimizer workload.
pub struct SeqSpec {
    /// Tables per query.
    pub tables: usize,
    /// Cost metrics of the model.
    pub metrics: &'static [ResourceMetric],
    /// Selectivity method.
    pub selectivity: SelectivityMethod,
    /// Join-graph shapes, in fixture order.
    pub shapes: &'static [GraphShape],
    /// Distinct catalogs per join-graph shape.
    pub catalogs_per_shape: usize,
    /// Iterations per optimization run.
    pub iterations: u64,
    /// Extra one-iteration (one-round) optimizers per fixture and pass that
    /// only sample time to first frontier.
    pub ttff_extra: usize,
}

/// The fixed work of each optimizer workload (`smoke` shrinks it to ≤ 2 s).
pub fn seq_spec(workload: Workload, smoke: bool) -> SeqSpec {
    const PAPER: &[ResourceMetric] = &[ResourceMetric::Time, ResourceMetric::Buffer];
    // Star queries under MinMax selectivities often end on 2–3-plan
    // frontiers — the `seq_paper` regime — so the many-objective workloads
    // keep to the two shapes that reliably carry 50–100-plan frontiers.
    let many = |iterations, ttff_extra| SeqSpec {
        tables: 50,
        metrics: &ResourceMetric::ALL,
        selectivity: SelectivityMethod::MinMax,
        shapes: &[GraphShape::Chain, GraphShape::Cycle],
        catalogs_per_shape: if smoke { 1 } else { 3 },
        iterations,
        ttff_extra,
    };
    match workload {
        Workload::SeqPaper => SeqSpec {
            tables: 25,
            metrics: PAPER,
            selectivity: SelectivityMethod::Steinbrunn,
            shapes: &[GraphShape::Chain, GraphShape::Star, GraphShape::Cycle],
            catalogs_per_shape: if smoke { 1 } else { 4 },
            iterations: if smoke { 150 } else { 600 },
            ttff_extra: if smoke { 2 } else { 8 },
        },
        Workload::SeqManyobj => many(if smoke { 100 } else { 500 }, if smoke { 1 } else { 8 }),
        // The `seq_manyobj` fixtures (same catalogs, same seeds), so
        // `parallel.speedup_vs_seq` compares like with like.
        Workload::ParFanout => many(
            PAR_SLICE * if smoke { 2 } else { PAR_SLICES },
            if smoke { 0 } else { 3 },
        ),
        Workload::DoorReplay => unreachable!("door_replay has a DoorSpec"),
    }
}

/// Workers of `par_fanout` (= `nproc` of the reference host).
pub const PAR_WORKERS: usize = 2;
/// Iterations per `ParRmq::optimize` call: one round of `workers × batch`,
/// the slice in which the service steps a fanned-out session.
pub const PAR_SLICE: u64 = 32;
/// Slices per `par_fanout` run.
pub const PAR_SLICES: u64 = 10;

/// One (query, seed) optimization run.
pub struct SeqFixture {
    /// `<Shape>/<catalog index>`.
    pub name: String,
    /// The generated catalog.
    pub catalog: Arc<Catalog>,
    /// The query (all tables of the catalog).
    pub query: TableSet,
    /// The cost model over the catalog.
    pub model: ResourceCostModel,
    /// RMQ seed of the run.
    pub rmq_seed: u64,
    /// Iterations of the run.
    pub iterations: u64,
}

/// Generates the fixtures of an optimizer workload. `par_fanout` shares the
/// derivation stream of `seq_manyobj` on purpose.
pub fn seq_fixtures(workload: Workload, seed: u64, smoke: bool) -> Vec<SeqFixture> {
    let spec = seq_spec(workload, smoke);
    let stream = match workload {
        Workload::SeqPaper => 0x5e9_0001,
        _ => 0x5e9_0002,
    };
    let mut out = Vec::new();
    for c in 0..spec.catalogs_per_shape {
        for (s, &shape) in spec.shapes.iter().enumerate() {
            let id = (c * spec.shapes.len() + s) as u64;
            let (catalog, query) = WorkloadSpec {
                tables: spec.tables,
                shape,
                selectivity: spec.selectivity,
                seed: derive(seed, stream + 2 * id),
            }
            .generate();
            out.push(SeqFixture {
                name: format!("{}/{c}", shape.name()),
                model: ResourceCostModel::new(Arc::clone(&catalog), spec.metrics),
                query: query.tables(),
                catalog,
                rmq_seed: derive(seed, stream + 2 * id + 1),
                iterations: spec.iterations,
            });
        }
    }
    out
}

/// Shape of the front-door replay.
pub struct DoorSpec {
    /// Requests of the open-loop phase.
    pub paced_requests: usize,
    /// Fixed arrival rate of the open-loop phase (requests per second).
    pub paced_rate: f64,
    /// Requests of the closed-loop phase.
    pub saturated_requests: usize,
    /// Requests the closed loop keeps outstanding.
    pub window: usize,
    /// Iteration budget per session.
    pub iterations: u64,
}

/// The fixed work of `door_replay`.
pub fn door_spec(smoke: bool) -> DoorSpec {
    DoorSpec {
        paced_requests: if smoke { 16 } else { 160 },
        paced_rate: 40.0,
        saturated_requests: if smoke { 32 } else { 240 },
        window: 24,
        iterations: 64,
    }
}

/// Shards of the front door, each with one worker.
pub const DOOR_SHARDS: usize = 2;
/// Live-session cap per shard.
pub const DOOR_SHARD_CAP: usize = 32;
const DOOR_TENANTS: usize = 16;
const DOOR_TEMPLATES: usize = 48;
const DOOR_MODEL_TAG: &str = "resource:time,buffer,disk";

/// The generated front-door traffic.
pub struct DoorFixture {
    /// The shared 24-table chain catalog.
    pub catalog: Arc<Catalog>,
    /// The full three-metric model over it.
    pub model: Arc<ResourceCostModel>,
    /// Cache context of every request.
    pub context: u64,
    /// Request stream of the open-loop phase.
    pub paced: Vec<SessionPlan>,
    /// Request stream of the closed-loop phase.
    pub saturated: Vec<SessionPlan>,
    /// Base of the per-request RMQ seeds.
    pub rmq_seed: u64,
}

/// Generates the front-door traffic: one zipf-skewed stream, split between
/// the two phases.
pub fn door_fixture(seed: u64, smoke: bool) -> DoorFixture {
    let spec = door_spec(smoke);
    let traffic = TrafficSpec {
        catalog_tables: 24,
        shape: GraphShape::Chain,
        selectivity: SelectivityMethod::MinMax,
        queries: spec.paced_requests + spec.saturated_requests,
        min_query_tables: 9,
        max_query_tables: 9,
        seed: derive(seed, 0xd00_0001),
    };
    let (catalog, mut sessions) = traffic.generate_skewed(DOOR_TENANTS, 1.0, DOOR_TEMPLATES, 1.0);
    let saturated = sessions.split_off(spec.paced_requests);
    DoorFixture {
        model: Arc::new(ResourceCostModel::full(Arc::clone(&catalog))),
        context: context_fingerprint(catalog.fingerprint(), DOOR_MODEL_TAG),
        catalog,
        paced: sessions,
        saturated,
        rmq_seed: derive(seed, 0xd00_0002),
    }
}

/// One `fixtures.lock` line: `<workload>/<fixture> <catalog> <stream>`.
fn lock_line(workload: Workload, fixture: &str, catalog: u64, stream: u64) -> String {
    format!("{}/{fixture} {catalog:016x} {stream:016x}", workload.name())
}

/// The lock lines of an optimizer workload's fixtures.
pub fn seq_lock_lines(workload: Workload, fixtures: &[SeqFixture]) -> Vec<String> {
    fixtures
        .iter()
        .map(|f| {
            let mut h = Fnv::new();
            h.eat_tables(f.query);
            h.eat(f.rmq_seed);
            h.eat(f.iterations);
            lock_line(workload, &f.name, f.catalog.fingerprint(), h.finish())
        })
        .collect()
}

/// The lock line of the front-door traffic.
pub fn door_lock_lines(f: &DoorFixture) -> Vec<String> {
    let mut h = Fnv::new();
    h.eat(f.context);
    h.eat(f.rmq_seed);
    for s in f.paced.iter().chain(&f.saturated) {
        h.eat(s.tenant);
        h.eat_tables(s.query.tables());
    }
    vec![lock_line(
        Workload::DoorReplay,
        "traffic",
        f.catalog.fingerprint(),
        h.finish(),
    )]
}

/// Generates `workload`'s full-size inputs for `seed` and returns their
/// lock lines.
pub fn lock_lines(workload: Workload, seed: u64) -> Vec<String> {
    if workload == Workload::DoorReplay {
        door_lock_lines(&door_fixture(seed, false))
    } else {
        seq_lock_lines(workload, &seq_fixtures(workload, seed, false))
    }
}

/// Checks freshly generated default-seed lock lines against
/// `fixtures.lock`.
///
/// # Errors
/// Names the first line that is missing or differs.
pub fn verify_lock(workload: Workload, fresh: &[String]) -> Result<(), String> {
    let locked: Vec<&str> = LOCK
        .lines()
        .filter(|l| l.starts_with(workload.name()))
        .collect();
    if locked.len() != fresh.len() {
        return Err(format!(
            "fixtures.lock has {} lines for {}, generated {}",
            locked.len(),
            workload.name(),
            fresh.len()
        ));
    }
    for (want, got) in locked.iter().zip(fresh) {
        if want != got {
            return Err(format!("fixture drift: locked `{want}`, generated `{got}`"));
        }
    }
    Ok(())
}

/// The frozen `tt_target_ms` target of a default-seed fixture, if recorded.
pub fn frozen_target(workload: Workload, fixture: &str) -> Option<f64> {
    let doc: serde_json::Value = serde_json::from_str(TARGETS).ok()?;
    doc.get(workload.name())?.get(fixture)?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            assert_eq!(lock_lines(w, 7), lock_lines(w, 7));
            assert_ne!(lock_lines(w, 7), lock_lines(w, 8));
        }
    }

    #[test]
    fn par_fanout_reuses_the_manyobj_catalogs() {
        let a = seq_fixtures(Workload::SeqManyobj, 3, false);
        let b = seq_fixtures(Workload::ParFanout, 3, false);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.catalog.fingerprint(), y.catalog.fingerprint());
            assert_eq!(x.rmq_seed, y.rmq_seed);
        }
    }

    #[test]
    fn default_seed_inputs_match_the_lock() {
        for w in Workload::ALL {
            verify_lock(w, &lock_lines(w, DEFAULT_SEED)).unwrap();
        }
    }

    #[test]
    fn every_default_fixture_has_a_frozen_target() {
        for w in [
            Workload::SeqPaper,
            Workload::SeqManyobj,
            Workload::ParFanout,
        ] {
            for f in seq_fixtures(w, DEFAULT_SEED, false) {
                assert!(
                    frozen_target(w, &f.name).is_some(),
                    "{}/{} missing from targets.json",
                    w.name(),
                    f.name
                );
            }
        }
    }
}
