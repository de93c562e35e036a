//! # moqo-workload — random query generation
//!
//! Reproduces the query-generation methodology of the paper's evaluation
//! (§6.1 and appendix): random queries with a given number of tables over
//! **chain**, **cycle**, and **star** join graphs (plus a clique extension),
//! table cardinalities drawn by **stratified sampling**, and join predicate
//! selectivities drawn by either
//!
//! * [`SelectivityMethod::Steinbrunn`] — a wide log-uniform range per edge,
//!   from `1 / (|A|·|B|)` up to `min(1, 10 / max(|A|, |B|))`: a stand-in for
//!   Steinbrunn et al.'s distribution, which the paper cites but does not
//!   specify in machine-readable form, or
//! * [`SelectivityMethod::MinMax`] — Bruno's MinMax method, implemented
//!   exactly as the appendix describes: "each join has an output cardinality
//!   between the cardinalities of the two input relations".
//!
//! All sampling is deterministic given the seed.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::sync::Arc;

use moqo_catalog::{Catalog, CatalogBuilder, Query};
use moqo_core::tables::TableId;
use moqo_cost::ResourceMetric;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Join graph shapes evaluated in the paper (clique is an extension).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum GraphShape {
    /// `T0 – T1 – … – Tn-1`.
    Chain,
    /// Chain plus the closing edge `Tn-1 – T0`.
    Cycle,
    /// Hub `T0` joined with every satellite.
    Star,
    /// Every pair of tables joined (extension; not in the paper's figures).
    Clique,
}

impl GraphShape {
    /// The three shapes of the paper's figures.
    pub const PAPER: [GraphShape; 3] = [GraphShape::Chain, GraphShape::Cycle, GraphShape::Star];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GraphShape::Chain => "Chain",
            GraphShape::Cycle => "Cycle",
            GraphShape::Star => "Star",
            GraphShape::Clique => "Clique",
        }
    }

    /// The edges of the shape over `n` tables.
    pub fn edges(self, n: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        match self {
            GraphShape::Chain | GraphShape::Cycle => {
                for i in 0..n.saturating_sub(1) {
                    edges.push((i, i + 1));
                }
                if self == GraphShape::Cycle && n > 2 {
                    edges.push((n - 1, 0));
                }
            }
            GraphShape::Star => {
                for i in 1..n {
                    edges.push((0, i));
                }
            }
            GraphShape::Clique => {
                for i in 0..n {
                    for j in (i + 1)..n {
                        edges.push((i, j));
                    }
                }
            }
        }
        edges
    }
}

/// How join-predicate selectivities are drawn.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SelectivityMethod {
    /// Wide log-uniform selectivities: from "one output row" up to "output
    /// ten times the smaller input" (clamped to 1). Stand-in for the
    /// Steinbrunn et al. distribution used in §6.1.
    Steinbrunn,
    /// Bruno's MinMax method (appendix): the join output cardinality is
    /// uniform between the two input cardinalities.
    MinMax,
}

impl SelectivityMethod {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SelectivityMethod::Steinbrunn => "Steinbrunn",
            SelectivityMethod::MinMax => "MinMax",
        }
    }

    /// Draws a selectivity for an edge between tables of `ca` and `cb` rows.
    pub fn draw<R: Rng + ?Sized>(self, ca: f64, cb: f64, rng: &mut R) -> f64 {
        match self {
            SelectivityMethod::Steinbrunn => {
                let lo = 1.0 / (ca * cb);
                let hi = (10.0 / ca.max(cb)).min(1.0);
                debug_assert!(lo <= hi);
                log_uniform(lo, hi, rng)
            }
            SelectivityMethod::MinMax => {
                let (lo, hi) = (ca.min(cb), ca.max(cb));
                let target = rng.random_range(lo..=hi);
                (target / (ca * cb)).min(1.0)
            }
        }
    }
}

/// The stratified cardinality distribution: `(low, high, weight)` strata,
/// log-uniform within each stratum (weights mirror Steinbrunn et al.'s
/// emphasis on mid-sized relations).
pub const CARDINALITY_STRATA: [(f64, f64, f64); 4] = [
    (10.0, 100.0, 0.15),
    (100.0, 1_000.0, 0.35),
    (1_000.0, 10_000.0, 0.35),
    (10_000.0, 100_000.0, 0.15),
];

/// Draws a table cardinality by stratified sampling.
pub fn draw_cardinality<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let total: f64 = CARDINALITY_STRATA.iter().map(|s| s.2).sum();
    let mut pick = rng.random::<f64>() * total;
    for &(lo, hi, w) in &CARDINALITY_STRATA {
        if pick < w {
            return log_uniform(lo, hi, rng).round().max(lo);
        }
        pick -= w;
    }
    // Floating-point slack: fall into the last stratum.
    let (lo, hi, _) = CARDINALITY_STRATA[CARDINALITY_STRATA.len() - 1];
    log_uniform(lo, hi, rng).round().max(lo)
}

fn log_uniform<R: Rng + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
    debug_assert!(lo > 0.0 && lo <= hi);
    (lo.ln() + rng.random::<f64>() * (hi.ln() - lo.ln())).exp()
}

/// Specification of one random test query.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Number of tables to join (the paper's `n`).
    pub tables: usize,
    /// Join graph shape.
    pub shape: GraphShape,
    /// Selectivity method.
    pub selectivity: SelectivityMethod,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A chain query with Steinbrunn selectivities.
    pub fn chain(tables: usize, seed: u64) -> Self {
        WorkloadSpec {
            tables,
            shape: GraphShape::Chain,
            selectivity: SelectivityMethod::Steinbrunn,
            seed,
        }
    }

    /// Generates the catalog and the query joining all its tables.
    pub fn generate(&self) -> (Arc<Catalog>, Query) {
        assert!(self.tables >= 1, "queries need at least one table");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = CatalogBuilder::default();
        let cards: Vec<f64> = (0..self.tables)
            .map(|_| draw_cardinality(&mut rng))
            .collect();
        let ids: Vec<TableId> = cards
            .iter()
            .enumerate()
            .map(|(i, &rows)| b.add_table(format!("t{i}"), rows))
            .collect();
        for (i, j) in self.shape.edges(self.tables) {
            let sel = self.selectivity.draw(cards[i], cards[j], &mut rng);
            b.add_join(ids[i], ids[j], sel);
        }
        let catalog = Arc::new(b.build());
        let query = Query::all(&catalog);
        (catalog, query)
    }
}

/// Specification of **service traffic**: many queries over one shared
/// catalog, each joining a random *connected* subset of its tables.
///
/// Unlike [`WorkloadSpec`] — which generates an independent catalog per
/// test case, matching the paper's evaluation methodology — service
/// traffic models a live system: one database, a stream of queries whose
/// table sets overlap. Overlap is what makes cross-query plan caching
/// meaningful (partial plans for `{T2, T3}` computed for one query
/// warm-start every later query containing those tables).
#[derive(Clone, Copy, Debug)]
pub struct TrafficSpec {
    /// Tables in the shared catalog.
    pub catalog_tables: usize,
    /// Join graph shape of the catalog.
    pub shape: GraphShape,
    /// Selectivity method for the catalog's predicates.
    pub selectivity: SelectivityMethod,
    /// Number of queries to generate.
    pub queries: usize,
    /// Minimum tables joined per query (inclusive).
    pub min_query_tables: usize,
    /// Maximum tables joined per query (inclusive).
    pub max_query_tables: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TrafficSpec {
    /// Chain-catalog traffic with Steinbrunn selectivities and mid-sized
    /// queries.
    pub fn chain(catalog_tables: usize, queries: usize, seed: u64) -> Self {
        TrafficSpec {
            catalog_tables,
            shape: GraphShape::Chain,
            selectivity: SelectivityMethod::Steinbrunn,
            queries,
            min_query_tables: (catalog_tables / 2).max(2),
            max_query_tables: catalog_tables.max(2),
            seed,
        }
    }

    /// Generates the shared catalog and the query stream. Every query's
    /// table set is connected in the catalog's join graph (no forced cross
    /// products), and all sampling is deterministic given the seed.
    ///
    /// # Panics
    /// Panics unless
    /// `2 <= min_query_tables <= max_query_tables <= catalog_tables`.
    pub fn generate(&self) -> (Arc<Catalog>, Vec<Query>) {
        assert!(
            2 <= self.min_query_tables
                && self.min_query_tables <= self.max_query_tables
                && self.max_query_tables <= self.catalog_tables,
            "invalid query-size bounds {}..={} for a {}-table catalog",
            self.min_query_tables,
            self.max_query_tables,
            self.catalog_tables,
        );
        let (catalog, _) = WorkloadSpec {
            tables: self.catalog_tables,
            shape: self.shape,
            selectivity: self.selectivity,
            seed: self.seed,
        }
        .generate();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7ea0_f1c0);
        let queries = (0..self.queries)
            .map(|_| {
                let target = rng.random_range(self.min_query_tables..=self.max_query_tables);
                let tables = random_connected_subset(&catalog, target, &mut rng);
                Query::new(&catalog, tables).expect("connected subset is a valid query")
            })
            .collect();
        (catalog, queries)
    }

    /// Like [`TrafficSpec::generate`], but models **multi-tenant traffic
    /// skew**: `self.queries` sessions are drawn over a pool of `templates`
    /// distinct query shapes and `tenants` tenants, both sampled from
    /// (independent) Zipf distributions. Real serving traffic is skewed on
    /// both axes — a few tenants generate most requests, and a few query
    /// shapes dominate each tenant's stream — and that skew is exactly what
    /// a front door's coalescing (hot shapes repeat while still in flight)
    /// and per-tenant quotas (hot tenants flood) exist to exploit.
    ///
    /// The template pool is drawn from the **same derived stream** as
    /// [`TrafficSpec::generate`] — template `t` is identical to `generate`'s
    /// query `t` for the same seed, so skew sampling never perturbs query
    /// generation. Tenant/template assignment uses a second derived stream;
    /// everything is deterministic given the seed.
    ///
    /// `skew` exponents of `0.0` are uniform; `1.0` is the classic Zipf
    /// most serving studies assume. All sessions are sequential
    /// (`fan_out = 1`).
    ///
    /// # Panics
    /// Panics when `tenants` or `templates` is zero, when
    /// `templates > self.queries` would be required but isn't available
    /// (the pool is capped at `self.queries`), or on the same query-size
    /// bound violations as [`TrafficSpec::generate`].
    pub fn generate_skewed(
        &self,
        tenants: usize,
        tenant_skew: f64,
        templates: usize,
        query_skew: f64,
    ) -> (Arc<Catalog>, Vec<SessionPlan>) {
        assert!(tenants >= 1, "need at least one tenant");
        assert!(templates >= 1, "need at least one query template");
        // Draw the template pool exactly as `generate` draws its first
        // `templates` queries: same spec, same derived stream.
        let pool_spec = TrafficSpec {
            queries: templates,
            ..*self
        };
        let (catalog, pool) = pool_spec.generate();
        // A second derived stream assigns (tenant, template) per session,
        // so skew parameters never perturb the query shapes themselves.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5ca1_ab1e);
        let tenant_dist = Zipf::new(tenants, tenant_skew);
        let template_dist = Zipf::new(templates, query_skew);
        let sessions = (0..self.queries)
            .map(|_| {
                let tenant = tenant_dist.sample(&mut rng) as u64;
                let template = template_dist.sample(&mut rng);
                SessionPlan {
                    query: pool[template],
                    fan_out: 1,
                    tenant,
                }
            })
            .collect();
        (catalog, sessions)
    }

    /// Like [`TrafficSpec::generate`], but tags every `every`-th session
    /// (1-based; `0` disables tagging) as **latency-critical** with the
    /// given intra-query fan-out — modeling the mixed traffic a serving
    /// system sees, where most queries optimize sequentially but a few
    /// must spread one query across `width` worker threads
    /// (`moqo-parallel`'s `ParRmq`). The query stream is identical to
    /// `generate`'s for the same seed; only the hints differ.
    pub fn generate_with_fan_out(
        &self,
        every: usize,
        width: usize,
    ) -> (Arc<Catalog>, Vec<SessionPlan>) {
        assert!(width >= 1, "fan-out width must be at least 1");
        let (catalog, queries) = self.generate();
        let sessions = queries
            .into_iter()
            .enumerate()
            .map(|(i, query)| SessionPlan {
                query,
                fan_out: if every > 0 && (i + 1) % every == 0 {
                    width
                } else {
                    1
                },
                tenant: 0,
            })
            .collect();
        (catalog, sessions)
    }
}

/// One session of a generated traffic stream: the query plus execution
/// hints for the serving layer (see [`TrafficSpec::generate_with_fan_out`]).
#[derive(Clone, Debug)]
pub struct SessionPlan {
    /// The query to optimize.
    pub query: Query,
    /// Intra-query worker threads the session should fan out over
    /// (1 = sequential).
    pub fan_out: usize,
    /// The tenant issuing the session (0 for single-tenant streams; see
    /// [`TrafficSpec::generate_skewed`]).
    pub tenant: u64,
}

/// A precomputed Zipf distribution over ranks `0..n`: rank `i` is drawn
/// with probability proportional to `1 / (i + 1)^exponent`. An exponent of
/// `0.0` degenerates to uniform; `1.0` is classic Zipf. Sampling is one
/// uniform draw plus a binary search over the cumulative weights, so even
/// 100k+-session streams generate quickly and deterministically.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[i]` = P(rank ≤ i). Last entry is 1.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with the given exponent.
    ///
    /// # Panics
    /// Panics when `n == 0` or the exponent is negative or non-finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "Zipf exponent must be finite and non-negative, got {exponent}"
        );
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
            .collect();
        let mut acc = 0.0;
        for w in cdf.iter_mut() {
            acc += *w;
            *w = acc;
        }
        for w in cdf.iter_mut() {
            *w /= acc;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is empty (never: `new` requires `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of drawing rank `i`.
    pub fn probability(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.random::<f64>();
        // partition_point: first rank whose cumulative weight covers `u`.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Draws a connected `target`-table subset of the catalog's join graph by
/// randomized growth: start at a random table, repeatedly annex a random
/// neighbor of the current set.
fn random_connected_subset<R: Rng + ?Sized>(
    catalog: &Catalog,
    target: usize,
    rng: &mut R,
) -> moqo_core::TableSet {
    let n = catalog.num_tables();
    let start = TableId::new(rng.random_range(0..n));
    let mut set = moqo_core::TableSet::singleton(start);
    let mut frontier: Vec<TableId> = catalog.neighbors(start).iter().map(|&(t, _)| t).collect();
    while set.len() < target {
        // The catalog graphs are connected, so the frontier is only empty
        // once the set covers everything.
        frontier.retain(|&t| !set.contains(t));
        let Some(&next) = frontier.get(rng.random_range(0..frontier.len().max(1))) else {
            break;
        };
        set = set.with(next);
        frontier.extend(
            catalog
                .neighbors(next)
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| !set.contains(t)),
        );
    }
    set
}

/// Picks `l` distinct resource metrics uniformly at random (the paper:
/// "for less than three cost metrics, we select the specified number of
/// cost metrics with uniform distribution from the total set", §6.1).
pub fn pick_metrics<R: Rng + ?Sized>(l: usize, rng: &mut R) -> Vec<ResourceMetric> {
    assert!(l >= 1 && l <= ResourceMetric::ALL.len());
    let mut all = ResourceMetric::ALL;
    all.shuffle(rng);
    let mut picked = all[..l].to_vec();
    // Canonical order keeps cost-vector components comparable across runs.
    picked.sort_by_key(|m| ResourceMetric::ALL.iter().position(|x| x == m));
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_expected_edge_counts() {
        assert_eq!(GraphShape::Chain.edges(5).len(), 4);
        assert_eq!(GraphShape::Cycle.edges(5).len(), 5);
        assert_eq!(GraphShape::Star.edges(5).len(), 4);
        assert_eq!(GraphShape::Clique.edges(5).len(), 10);
        // Degenerate sizes.
        assert_eq!(GraphShape::Cycle.edges(2).len(), 1, "no duplicate edge");
        assert!(GraphShape::Chain.edges(1).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec {
            tables: 10,
            shape: GraphShape::Cycle,
            selectivity: SelectivityMethod::Steinbrunn,
            seed: 42,
        };
        let (c1, q1) = spec.generate();
        let (c2, q2) = spec.generate();
        assert_eq!(q1, q2);
        for t in 0..10 {
            let t = TableId::new(t);
            assert_eq!(c1.rows(t), c2.rows(t));
        }
        for (e1, e2) in c1.edges().iter().zip(c2.edges()) {
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            WorkloadSpec::chain(8, seed)
                .generate()
                .0
                .rows(TableId::new(0))
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn cardinalities_respect_strata_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            let c = draw_cardinality(&mut rng);
            assert!(
                (10.0..=100_000.0).contains(&c),
                "cardinality {c} out of range"
            );
        }
    }

    #[test]
    fn cardinalities_cover_all_strata() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        for _ in 0..2_000 {
            let c = draw_cardinality(&mut rng);
            let idx = CARDINALITY_STRATA
                .iter()
                .position(|&(lo, hi, _)| c >= lo && c <= hi)
                .expect("in some stratum");
            counts[idx] += 1;
        }
        for (i, &n) in counts.iter().enumerate() {
            assert!(n > 100, "stratum {i} undersampled: {n}/2000");
        }
        // Middle strata carry more weight than the extremes.
        assert!(counts[1] > counts[0] && counts[2] > counts[3]);
    }

    #[test]
    fn minmax_keeps_output_between_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let ca = draw_cardinality(&mut rng);
            let cb = draw_cardinality(&mut rng);
            let sel = SelectivityMethod::MinMax.draw(ca, cb, &mut rng);
            let out = ca * cb * sel;
            assert!(
                out >= ca.min(cb) * 0.999 && out <= ca.max(cb) * 1.001,
                "MinMax violated: |A|={ca} |B|={cb} out={out}"
            );
        }
    }

    #[test]
    fn steinbrunn_selectivities_are_valid_and_spread() {
        let mut rng = StdRng::seed_from_u64(5);
        let (ca, cb) = (10_000.0, 2_000.0);
        let mut min_sel = f64::MAX;
        let mut max_sel: f64 = 0.0;
        for _ in 0..500 {
            let s = SelectivityMethod::Steinbrunn.draw(ca, cb, &mut rng);
            assert!(s > 0.0 && s <= 1.0);
            min_sel = min_sel.min(s);
            max_sel = max_sel.max(s);
        }
        // Wide dynamic range: at least 3 orders of magnitude observed.
        assert!(
            max_sel / min_sel > 1e3,
            "range too narrow: {min_sel}..{max_sel}"
        );
    }

    #[test]
    fn star_graph_connects_all_satellites_through_hub() {
        let (catalog, query) = WorkloadSpec {
            tables: 6,
            shape: GraphShape::Star,
            selectivity: SelectivityMethod::MinMax,
            seed: 9,
        }
        .generate();
        assert!(catalog.is_connected(query.tables()));
        assert_eq!(catalog.neighbors(TableId::new(0)).len(), 5);
        assert_eq!(catalog.neighbors(TableId::new(3)).len(), 1);
    }

    #[test]
    fn traffic_queries_are_connected_and_sized() {
        for shape in [GraphShape::Chain, GraphShape::Star, GraphShape::Cycle] {
            let spec = TrafficSpec {
                catalog_tables: 12,
                shape,
                selectivity: SelectivityMethod::MinMax,
                queries: 20,
                min_query_tables: 3,
                max_query_tables: 9,
                seed: 31,
            };
            let (catalog, queries) = spec.generate();
            assert_eq!(queries.len(), 20);
            for q in &queries {
                assert!((3..=9).contains(&q.len()), "size {} out of range", q.len());
                assert!(catalog.is_connected(q.tables()), "disconnected query");
            }
        }
    }

    #[test]
    fn fan_out_tagging_is_periodic_and_leaves_queries_unchanged() {
        let spec = TrafficSpec::chain(10, 9, 5);
        let (_, plain) = spec.generate();
        let (_, sessions) = spec.generate_with_fan_out(3, 4);
        assert_eq!(sessions.len(), 9);
        for (i, s) in sessions.iter().enumerate() {
            assert_eq!(s.query, plain[i], "hints must not perturb the stream");
            let expected = if (i + 1) % 3 == 0 { 4 } else { 1 };
            assert_eq!(s.fan_out, expected, "session {i}");
        }
        // every = 0 disables tagging entirely.
        let (_, all_seq) = spec.generate_with_fan_out(0, 4);
        assert!(all_seq.iter().all(|s| s.fan_out == 1));
    }

    #[test]
    fn zipf_shape_is_heavy_headed_and_normalized() {
        let z = Zipf::new(20, 1.0);
        assert_eq!(z.len(), 20);
        // Probabilities are decreasing and sum to 1.
        let total: f64 = (0..20).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "not normalized: {total}");
        for i in 1..20 {
            assert!(z.probability(i) < z.probability(i - 1), "not decreasing");
        }
        // Classic Zipf head: rank 0 carries 1/H_20 ≈ 0.278.
        assert!((z.probability(0) - 0.278).abs() < 0.01);

        // Exponent 0 degenerates to uniform.
        let u = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((u.probability(i) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_samples_match_the_analytic_distribution() {
        let z = Zipf::new(8, 1.0);
        let mut rng = StdRng::seed_from_u64(17);
        let mut counts = [0usize; 8];
        let draws = 40_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &n) in counts.iter().enumerate() {
            let expected = z.probability(i) * draws as f64;
            let got = n as f64;
            assert!(
                (got - expected).abs() < expected * 0.15 + 30.0,
                "rank {i}: expected ~{expected:.0}, got {got}"
            );
        }
    }

    #[test]
    fn skewed_traffic_concentrates_on_hot_tenants_and_templates() {
        let spec = TrafficSpec::chain(12, 10_000, 21);
        let (_, sessions) = spec.generate_skewed(20, 1.0, 16, 1.0);
        assert_eq!(sessions.len(), 10_000);

        let mut tenant_counts = std::collections::HashMap::new();
        let mut template_counts = std::collections::HashMap::new();
        for s in &sessions {
            assert!(s.tenant < 20);
            assert_eq!(s.fan_out, 1);
            *tenant_counts.entry(s.tenant).or_insert(0usize) += 1;
            *template_counts.entry(s.query.tables()).or_insert(0usize) += 1;
        }
        // The hottest tenant carries the Zipf head (~27.8% for n=20, s=1),
        // far above the 5% a uniform assignment would give it.
        let top_tenant = *tenant_counts.values().max().unwrap();
        assert!(
            top_tenant > 2_000,
            "no tenant skew: hottest tenant has {top_tenant}/10000"
        );
        // Yet the tail is populated: most tenants appear at least once.
        assert!(tenant_counts.len() >= 15, "tail tenants missing");
        // Query-shape skew: the hottest template dominates, which is what
        // makes request coalescing land hits under concurrency.
        let top_template = *template_counts.values().max().unwrap();
        assert!(
            top_template > 2_000,
            "no template skew: hottest template has {top_template}/10000"
        );
        assert!(template_counts.len() >= 2, "pool collapsed to one shape");
    }

    #[test]
    fn skewed_traffic_is_deterministic_and_leaves_templates_unchanged() {
        let spec = TrafficSpec::chain(12, 500, 33);
        let (c1, s1) = spec.generate_skewed(8, 1.0, 10, 0.8);
        let (c2, s2) = spec.generate_skewed(8, 1.0, 10, 0.8);
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.query, b.query);
            assert_eq!(a.tenant, b.tenant);
        }

        // The template pool is generate()'s own stream: every skewed query
        // appears among the first 10 queries of the plain stream.
        let (_, plain) = TrafficSpec {
            queries: 10,
            ..spec
        }
        .generate();
        for s in &s1 {
            assert!(
                plain.contains(&s.query),
                "skewed session uses a query not in the template pool"
            );
        }

        // Different seeds produce different assignments.
        let (_, s3) = TrafficSpec::chain(12, 500, 34).generate_skewed(8, 1.0, 10, 0.8);
        assert!(
            s1.iter()
                .zip(&s3)
                .any(|(a, b)| a.tenant != b.tenant || a.query != b.query),
            "seed change did not perturb the skewed stream"
        );
    }

    #[test]
    fn traffic_is_deterministic_and_seed_sensitive() {
        let spec = TrafficSpec::chain(10, 8, 5);
        let (c1, q1) = spec.generate();
        let (c2, q2) = spec.generate();
        assert_eq!(q1, q2);
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        let (_, q3) = TrafficSpec::chain(10, 8, 6).generate();
        assert_ne!(q1, q3, "different seeds must differ");
    }

    #[test]
    fn traffic_queries_overlap() {
        // Mid-sized queries over a small catalog necessarily share tables —
        // the premise of cross-query plan caching.
        let (_, queries) = TrafficSpec::chain(10, 8, 7).generate();
        let mut overlaps = 0;
        for (i, a) in queries.iter().enumerate() {
            for b in &queries[i + 1..] {
                if !a.tables().intersect(b.tables()).is_empty() {
                    overlaps += 1;
                }
            }
        }
        assert!(overlaps > 0, "no overlapping query pair in traffic");
    }

    #[test]
    #[should_panic(expected = "invalid query-size bounds")]
    fn traffic_rejects_bad_bounds() {
        let _ = TrafficSpec {
            catalog_tables: 5,
            shape: GraphShape::Chain,
            selectivity: SelectivityMethod::MinMax,
            queries: 1,
            min_query_tables: 4,
            max_query_tables: 9,
            seed: 0,
        }
        .generate();
    }

    #[test]
    fn pick_metrics_subsets() {
        let mut rng = StdRng::seed_from_u64(13);
        for l in 1..=3 {
            let m = pick_metrics(l, &mut rng);
            assert_eq!(m.len(), l);
            // Distinct members.
            for (i, a) in m.iter().enumerate() {
                assert!(!m[..i].contains(a));
            }
        }
        // With l = 3 the full set always comes back, canonically ordered.
        assert_eq!(pick_metrics(3, &mut rng), ResourceMetric::ALL.to_vec());
        // Over many draws with l = 2, different subsets must occur.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(format!("{:?}", pick_metrics(2, &mut rng)));
        }
        assert!(
            seen.len() == 3,
            "expected all 3 two-metric subsets, got {}",
            seen.len()
        );
    }

    proptest::proptest! {
        /// Generated workloads are structurally valid for every shape/size.
        #[test]
        fn workloads_are_valid(n in 2usize..20, shape_idx in 0usize..4, seed in 0u64..1000) {
            let shape = [GraphShape::Chain, GraphShape::Cycle, GraphShape::Star, GraphShape::Clique][shape_idx];
            let spec = WorkloadSpec { tables: n, shape, selectivity: SelectivityMethod::MinMax, seed };
            let (catalog, query) = spec.generate();
            proptest::prop_assert_eq!(catalog.num_tables(), n);
            proptest::prop_assert_eq!(query.len(), n);
            proptest::prop_assert!(catalog.is_connected(query.tables()));
            for e in catalog.edges() {
                proptest::prop_assert!(e.selectivity > 0.0 && e.selectivity <= 1.0);
            }
        }
    }
}
