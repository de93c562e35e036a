//! NSGA-II — the non-dominated sorting genetic algorithm (Deb et al.).
//!
//! The paper's strongest randomized competitor (§6.1): the widely used
//! NSGA-II with the **ordinal plan encoding** and **single-point crossover**
//! of the query-optimization genetic-algorithm literature (Steinbrunn et
//! al., Bennett et al.). A genome is a fixed-length vector of unbounded
//! integer genes decoded *ordinally*: scan genes pick each leaf's scan
//! operator modulo the applicable count; each join step picks two operands
//! from the shrinking operand list (indices modulo the current length) and
//! a join operator modulo the applicable count. Every genome decodes to a
//! valid bushy plan, so any crossover/mutation produces valid offspring.
//!
//! The NSGA-II machinery follows the original paper: fast non-dominated
//! sort, crowding distance, binary tournament on (rank, crowding), elitist
//! environmental selection from parents ∪ offspring. Population 200,
//! crossover probability 0.9, per-gene mutation probability `1/genome_len`
//! (Deb's settings, as the paper adopts them).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moqo_core::archive::Admission;
use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::cost::CostVector;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{Optimizer, PlanExchange};
use moqo_core::pareto::{ParetoSet, ScreenCounters};
use moqo_core::plan::PlanRef;
use moqo_core::tables::{TableId, TableSet};

/// NSGA-II parameters (defaults per the paper's experimental setup).
#[derive(Clone, Copy, Debug)]
pub struct Nsga2Params {
    /// Population size (the paper uses 200).
    pub population: usize,
    /// Crossover probability.
    pub crossover_probability: f64,
    /// Per-gene mutation probability; `None` selects `1/genome_len`.
    pub mutation_probability: Option<f64>,
}

impl Default for Nsga2Params {
    fn default() -> Self {
        Nsga2Params {
            population: 200,
            crossover_probability: 0.9,
            mutation_probability: None,
        }
    }
}

type Genome = Vec<u32>;

struct Individual {
    genome: Genome,
    /// The decoded plan, interned in the optimizer's arena (re-decoding a
    /// surviving genome across generations is a pure intern hit).
    plan: PlanId,
    /// Cost of `plan`, cached inline so ranking never chases the arena.
    cost: CostVector,
    rank: usize,
    crowding: f64,
}

/// The NSGA-II optimizer.
pub struct Nsga2<M: CostModel> {
    model: M,
    tables: Vec<TableId>,
    params: Nsga2Params,
    /// Per-optimizer plan arena: every decoded genome lives here.
    arena: PlanArena,

    mutation_p: f64,
    population: Vec<Individual>,
    rng: StdRng,
    generations: u64,
}

impl<M: CostModel> Nsga2<M> {
    /// Creates an NSGA-II optimizer with default parameters.
    ///
    /// # Panics
    /// Panics if `query` is empty.
    pub fn new(model: M, query: TableSet, seed: u64) -> Self {
        Self::with_params(model, query, seed, Nsga2Params::default())
    }

    /// Creates an NSGA-II optimizer with explicit parameters.
    pub fn with_params(model: M, query: TableSet, seed: u64, params: Nsga2Params) -> Self {
        assert!(!query.is_empty(), "cannot optimize an empty query");
        assert!(params.population >= 2);
        let tables: Vec<TableId> = query.iter().collect();
        let n = tables.len();
        // n scan genes + 3 genes (outer, inner, operator) per join step.
        let genome_len = n + 3 * n.saturating_sub(1);
        let mutation_p = params
            .mutation_probability
            .unwrap_or(1.0 / genome_len.max(1) as f64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = PlanArena::new();
        let mut population = Vec::with_capacity(params.population);
        for _ in 0..params.population {
            let genome: Genome = (0..genome_len).map(|_| rng.random()).collect();
            let plan = decode(&mut arena, &model, &tables, &genome);
            let cost = arena.cost(plan);
            population.push(Individual {
                genome,
                plan,
                cost,
                rank: 0,
                crowding: 0.0,
            });
        }
        let mut s = Nsga2 {
            model,
            tables,
            params,
            arena,

            mutation_p,
            population,
            rng,
            generations: 0,
        };
        s.rank_population();
        s
    }

    /// Number of completed generations.
    pub fn generations(&self) -> u64 {
        self.generations
    }

    fn rank_population(&mut self) {
        let costs: Vec<CostVector> = self.population.iter().map(|i| i.cost).collect();
        let fronts = fast_non_dominated_sort(&costs);
        for (rank, front) in fronts.iter().enumerate() {
            let distances = crowding_distances(&costs, front);
            for (&idx, &d) in front.iter().zip(&distances) {
                self.population[idx].rank = rank;
                self.population[idx].crowding = d;
            }
        }
    }

    fn tournament(&mut self) -> usize {
        let a = self.rng.random_range(0..self.population.len());
        let b = self.rng.random_range(0..self.population.len());
        let (ia, ib) = (&self.population[a], &self.population[b]);
        if (ia.rank, std::cmp::Reverse(ordered(ia.crowding)))
            < (ib.rank, std::cmp::Reverse(ordered(ib.crowding)))
        {
            a
        } else {
            b
        }
    }

    fn make_offspring(&mut self) -> Vec<Genome> {
        let mut offspring = Vec::with_capacity(self.params.population);
        while offspring.len() < self.params.population {
            let w1 = self.tournament();
            let w2 = self.tournament();
            let p1 = self.population[w1].genome.clone();
            let p2 = self.population[w2].genome.clone();
            let (mut c1, mut c2) = if self.rng.random::<f64>() < self.params.crossover_probability {
                single_point_crossover(&p1, &p2, &mut self.rng)
            } else {
                (p1, p2)
            };
            self.mutate(&mut c1);
            self.mutate(&mut c2);
            offspring.push(c1);
            if offspring.len() < self.params.population {
                offspring.push(c2);
            }
        }
        offspring
    }

    fn mutate(&mut self, genome: &mut Genome) {
        for gene in genome.iter_mut() {
            if self.rng.random::<f64>() < self.mutation_p {
                *gene = self.rng.random();
            }
        }
    }
}

fn ordered(x: f64) -> u64 {
    // Total order on non-negative crowding distances (∞ sorts last).
    x.to_bits()
}

/// Decodes an ordinal genome into a valid bushy plan, interned in `arena`
/// (decoding a genome seen before — elitist survivors every generation — is
/// a chain of intern hits and allocates nothing).
pub(crate) fn decode<M: CostModel + ?Sized>(
    arena: &mut PlanArena,
    model: &M,
    tables: &[TableId],
    genome: &[u32],
) -> PlanId {
    let n = tables.len();
    debug_assert_eq!(genome.len(), n + 3 * n.saturating_sub(1));
    let mut items: Vec<PlanId> = tables
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            let ops = model.scan_ops(t);
            arena.scan(model, t, ops[genome[k] as usize % ops.len()])
        })
        .collect();
    let mut ops = Vec::new();
    for step in 0..n.saturating_sub(1) {
        let g = &genome[n + 3 * step..n + 3 * step + 3];
        let outer = items.swap_remove(g[0] as usize % items.len());
        let inner = items.swap_remove(g[1] as usize % items.len());
        ops.clear();
        model.join_ops(&arena.view(outer), &arena.view(inner), &mut ops);
        debug_assert!(!ops.is_empty(), "cost-model contract violation");
        let op = ops[g[2] as usize % ops.len()];
        items.push(arena.join(model, outer, inner, op));
    }
    items.pop().expect("non-empty query")
}

/// Single-point crossover of two equal-length genomes.
pub(crate) fn single_point_crossover<R: Rng + ?Sized>(
    a: &[u32],
    b: &[u32],
    rng: &mut R,
) -> (Genome, Genome) {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < 2 {
        return (a.to_vec(), b.to_vec());
    }
    let cut = rng.random_range(1..a.len());
    let mut c1 = a[..cut].to_vec();
    c1.extend_from_slice(&b[cut..]);
    let mut c2 = b[..cut].to_vec();
    c2.extend_from_slice(&a[cut..]);
    (c1, c2)
}

/// Deb's fast non-dominated sort: partitions indices into fronts by rank.
pub fn fast_non_dominated_sort(costs: &[CostVector]) -> Vec<Vec<usize>> {
    let n = costs.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // i dominates these
    let mut domination_count = vec![0usize; n];
    let mut fronts: Vec<Vec<usize>> = vec![Vec::new()];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if costs[i].strictly_dominates(&costs[j]) {
                dominated_by[i].push(j);
            } else if costs[j].strictly_dominates(&costs[i]) {
                domination_count[i] += 1;
            }
        }
        if domination_count[i] == 0 {
            fronts[0].push(i);
        }
    }
    let mut k = 0;
    while !fronts[k].is_empty() {
        let mut next = Vec::new();
        for &i in &fronts[k] {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(next);
        k += 1;
    }
    fronts.pop(); // drop the trailing empty front
    fronts
}

/// Crowding distances within one front (Deb et al.): boundary solutions get
/// `∞`; interior ones the sum of normalized neighbor gaps per metric.
pub fn crowding_distances(costs: &[CostVector], front: &[usize]) -> Vec<f64> {
    let m = front.len();
    let mut dist = vec![0.0f64; m];
    if m == 0 {
        return dist;
    }
    if m <= 2 {
        return vec![f64::INFINITY; m];
    }
    let dim = costs[front[0]].dim();
    let mut order: Vec<usize> = (0..m).collect();
    // `k` indexes cost-vector components (not a slice), so iterator-style
    // rewriting does not apply.
    #[allow(clippy::needless_range_loop)]
    for k in 0..dim {
        order.sort_by(|&x, &y| costs[front[x]][k].total_cmp(&costs[front[y]][k]));
        let lo = costs[front[order[0]]][k];
        let hi = costs[front[order[m - 1]]][k];
        dist[order[0]] = f64::INFINITY;
        dist[order[m - 1]] = f64::INFINITY;
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        for w in 1..m - 1 {
            let gap = costs[front[order[w + 1]]][k] - costs[front[order[w - 1]]][k];
            dist[order[w]] += gap / span;
        }
    }
    dist
}

/// Served without plan exchange: the no-op [`PlanExchange`] defaults
/// apply (nothing to absorb or export, fan-out 1).
impl<M: CostModel + Send> PlanExchange for Nsga2<M> {}

impl<M: CostModel> Optimizer for Nsga2<M> {
    fn name(&self) -> &str {
        "NSGA-II"
    }

    fn step(&mut self) -> bool {
        let offspring = self.make_offspring();
        // Evaluate offspring and pool with parents (elitism).
        for genome in offspring {
            let plan = decode(&mut self.arena, &self.model, &self.tables, &genome);
            let cost = self.arena.cost(plan);
            self.population.push(Individual {
                genome,
                plan,
                cost,
                rank: 0,
                crowding: 0.0,
            });
        }
        let costs: Vec<CostVector> = self.population.iter().map(|i| i.cost).collect();
        let fronts = fast_non_dominated_sort(&costs);
        let mut survivors: Vec<Individual> = Vec::with_capacity(self.params.population);
        let mut drained: Vec<Option<Individual>> = std::mem::take(&mut self.population)
            .into_iter()
            .map(Some)
            .collect();
        'fill: for front in &fronts {
            let mut members: Vec<(usize, f64)> = {
                let d = crowding_distances(&costs, front);
                front.iter().copied().zip(d).collect()
            };
            // Prefer spread-out members when the front must be truncated.
            members.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (idx, _) in members {
                if survivors.len() == self.params.population {
                    break 'fill;
                }
                survivors.push(drained[idx].take().expect("unique index"));
            }
        }
        self.population = survivors;
        self.rank_population();
        self.generations += 1;
        true
    }

    fn frontier(&self) -> Vec<PlanRef> {
        // Rank-0 members of the current population, cost-deduplicated,
        // exported from the arena at the API boundary.
        let mut set: ParetoSet<PlanId> = ParetoSet::new();
        let (frontier, tally) = (Admission::CostFrontier, &mut ScreenCounters::default());
        for ind in self.population.iter().filter(|i| i.rank == 0) {
            let format = self.arena.node(ind.plan).format();
            set.admit(&ind.cost, format, &frontier, tally, || ind.plan);
        }
        set.into_plans()
            .into_iter()
            .map(|id| self.arena.export(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::optimizer::{drive, Budget, NullObserver};

    fn cv(v: &[f64]) -> CostVector {
        CostVector::new(v)
    }

    #[test]
    fn non_dominated_sort_ranks_correctly() {
        let costs = vec![
            cv(&[1.0, 4.0]), // front 0
            cv(&[4.0, 1.0]), // front 0
            cv(&[2.0, 5.0]), // dominated by 0 -> front 1
            cv(&[5.0, 5.0]), // dominated by all -> front 2
            cv(&[2.0, 2.0]), // front 0
        ];
        let fronts = fast_non_dominated_sort(&costs);
        assert_eq!(fronts.len(), 3);
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        assert_eq!(f0, vec![0, 1, 4]);
        assert_eq!(fronts[1], vec![2]);
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn sort_handles_duplicates_and_singletons() {
        let costs = vec![cv(&[1.0, 1.0]), cv(&[1.0, 1.0])];
        let fronts = fast_non_dominated_sort(&costs);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 2);
        assert_eq!(fast_non_dominated_sort(&[cv(&[3.0])]), vec![vec![0]]);
    }

    #[test]
    fn crowding_prefers_boundary_and_spread() {
        let costs = vec![
            cv(&[1.0, 5.0]),
            cv(&[2.0, 4.0]),
            cv(&[2.1, 3.9]), // crowded next to index 1
            cv(&[5.0, 1.0]),
        ];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distances(&costs, &front);
        assert!(d[0].is_infinite() && d[3].is_infinite());
        assert!(d[1] > 0.0 && d[2] > 0.0);
        // Tiny fronts: everyone is a boundary.
        assert!(crowding_distances(&costs, &[0, 1])
            .iter()
            .all(|x| x.is_infinite()));
        assert!(crowding_distances(&costs, &[]).is_empty());
    }

    #[test]
    fn decode_always_yields_valid_plans() {
        let model = StubModel::line(6, 2, 3);
        let q = TableSet::prefix(6);
        let tables: Vec<TableId> = q.iter().collect();
        let mut rng = StdRng::seed_from_u64(5);
        let len = 6 + 3 * 5;
        let mut arena = PlanArena::new();
        for _ in 0..100 {
            let genome: Genome = (0..len).map(|_| rng.random()).collect();
            let plan = decode(&mut arena, &model, &tables, &genome);
            assert!(arena.validate(plan, q).is_ok());
        }
    }

    #[test]
    fn crossover_preserves_length_and_genes() {
        let mut rng = StdRng::seed_from_u64(9);
        let a: Genome = (0..10).collect();
        let b: Genome = (10..20).collect();
        let (c1, c2) = single_point_crossover(&a, &b, &mut rng);
        assert_eq!(c1.len(), 10);
        assert_eq!(c2.len(), 10);
        // Each child position comes from exactly one parent.
        for (k, (&x, &y)) in c1.iter().zip(&c2).enumerate() {
            let k = k as u32;
            assert!((x == k && y == k + 10) || (x == k + 10 && y == k));
        }
    }

    #[test]
    fn evolves_valid_nondominated_frontier() {
        let model = StubModel::line(6, 2, 7);
        let q = TableSet::prefix(6);
        let params = Nsga2Params {
            population: 40,
            ..Nsga2Params::default()
        };
        let mut ga = Nsga2::with_params(&model, q, 1, params);
        drive(&mut ga, Budget::Iterations(10), &mut NullObserver);
        assert_eq!(ga.generations(), 10);
        let f = ga.frontier();
        assert!(!f.is_empty());
        for p in &f {
            assert!(p.validate(q).is_ok());
        }
        for a in &f {
            for b in &f {
                if !std::sync::Arc::ptr_eq(a, b) {
                    assert!(!a.cost().strictly_dominates(b.cost()));
                }
            }
        }
    }

    #[test]
    fn elitism_never_loses_the_best_scalar_cost() {
        let model = StubModel::line(7, 2, 11);
        let q = TableSet::prefix(7);
        let params = Nsga2Params {
            population: 30,
            ..Nsga2Params::default()
        };
        let mut ga = Nsga2::with_params(&model, q, 3, params);
        let best = |ga: &Nsga2<&StubModel>| {
            ga.frontier()
                .iter()
                .map(|p| p.cost().mean())
                .fold(f64::INFINITY, f64::min)
        };
        let mut prev = best(&ga);
        for _ in 0..8 {
            ga.step();
            let now = best(&ga);
            assert!(now <= prev + 1e-9, "elitism violated: {now} > {prev}");
            prev = now;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let model = StubModel::line(5, 2, 13);
        let q = TableSet::prefix(5);
        let run = |seed| {
            let params = Nsga2Params {
                population: 20,
                ..Nsga2Params::default()
            };
            let mut ga = Nsga2::with_params(&model, q, seed, params);
            drive(&mut ga, Budget::Iterations(5), &mut NullObserver);
            let mut costs: Vec<String> = ga
                .frontier()
                .iter()
                .map(|p| format!("{:?}", p.cost()))
                .collect();
            costs.sort();
            costs
        };
        assert_eq!(run(4), run(4));
    }
}
