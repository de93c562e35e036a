//! `CostModel::join_props_all` must be `join_props`, bit for bit: the hot
//! loops cost an operand pair through the batch method, so any difference
//! would silently change pruning decisions. Checked for every `moqo-cost`
//! model over random operand pairs, and through the `&M` / `Arc<M>`
//! blanket impls, which must reach a model's override.

mod common;

use std::sync::Arc;

use common::CountingModel;

use moqo_core::arena::PlanArena;
use moqo_core::model::{CostModel, OutputFormat, PlanProps, PlanView};
use moqo_core::random_plan::random_plan_in;
use moqo_core::tables::{TableId, TableSet};
use moqo_cost::{AqpCostModel, CloudCostModel, EnergyCostModel, ResourceCostModel, ResourceMetric};
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_shape() -> impl Strategy<Value = GraphShape> {
    prop_oneof![
        Just(GraphShape::Chain),
        Just(GraphShape::Cycle),
        Just(GraphShape::Star),
        Just(GraphShape::Clique),
    ]
}

fn bits(p: &PlanProps) -> (Vec<u64>, u64, u64, OutputFormat) {
    (
        p.cost.as_slice().iter().map(|c| c.to_bits()).collect(),
        p.rows.to_bits(),
        p.pages.to_bits(),
        p.format,
    )
}

/// Splits the first `n` tables into two non-empty disjoint operand sets
/// (tables whose `mask` bit is set go outer; the split is repaired when one
/// side would be empty) and returns random plans over them as views.
fn operand_views<M: CostModel>(model: &M, n: usize, mask: u32, seed: u64) -> (PlanView, PlanView) {
    let mut outer = TableSet::empty();
    let mut inner = TableSet::empty();
    for t in 0..n {
        let side = if t == 0 {
            &mut outer
        } else if t == 1 {
            &mut inner
        } else if mask >> t & 1 == 1 {
            &mut outer
        } else {
            &mut inner
        };
        *side = side.union(TableSet::singleton(TableId::new(t)));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arena = PlanArena::new();
    let o = random_plan_in(&mut arena, model, outer, &mut rng);
    let i = random_plan_in(&mut arena, model, inner, &mut rng);
    (arena.view(o), arena.view(i))
}

/// The batch method over every applicable operator — and over each single
/// operator, and the empty list — returns exactly `join_props`' bits.
fn check_batch<M: CostModel>(model: &M, n: usize, mask: u32, seed: u64) -> Result<(), String> {
    let (vo, vi) = operand_views(model, n, mask, seed);
    let mut ops = Vec::new();
    model.join_ops(&vo, &vi, &mut ops);
    prop_assert!(!ops.is_empty());
    let mut all = Vec::new();
    model.join_props_all(&vo, &vi, &ops, &mut all);
    prop_assert_eq!(all.len(), ops.len());
    for (&op, batch) in ops.iter().zip(&all) {
        let single = model.join_props(&vo, &vi, op);
        prop_assert_eq!(bits(batch), bits(&single), "operator {:?}", op);
        // Appends: earlier content of `out` stays.
        let mut one = vec![single];
        model.join_props_all(&vo, &vi, &[op], &mut one);
        prop_assert_eq!(one.len(), 2);
        prop_assert_eq!(bits(&one[1]), bits(&single));
    }
    model.join_props_all(&vo, &vi, &[], &mut all);
    prop_assert_eq!(all.len(), ops.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resource_batch_equals_join_props(
        n in 2usize..14, mask in 0u32..1 << 14, shape in arb_shape(), seed in 0u64..1000, metrics in 1usize..8,
    ) {
        let (catalog, _) = WorkloadSpec { tables: n, shape, selectivity: SelectivityMethod::Steinbrunn, seed }.generate();
        // Every non-empty subset of {time, buffer, disk}.
        let chosen: Vec<ResourceMetric> = ResourceMetric::ALL
            .into_iter()
            .enumerate()
            .filter(|(k, _)| metrics >> k & 1 == 1)
            .map(|(_, m)| m)
            .collect();
        check_batch(&ResourceCostModel::new(catalog, &chosen), n, mask, seed)?;
    }

    #[test]
    fn cloud_batch_equals_join_props(n in 2usize..14, mask in 0u32..1 << 14, shape in arb_shape(), seed in 0u64..1000) {
        let (catalog, _) = WorkloadSpec { tables: n, shape, selectivity: SelectivityMethod::MinMax, seed }.generate();
        check_batch(&CloudCostModel::new(catalog), n, mask, seed)?;
    }

    #[test]
    fn aqp_batch_equals_join_props(n in 2usize..14, mask in 0u32..1 << 14, shape in arb_shape(), seed in 0u64..1000) {
        let (catalog, _) = WorkloadSpec { tables: n, shape, selectivity: SelectivityMethod::MinMax, seed }.generate();
        check_batch(&AqpCostModel::new(catalog), n, mask, seed)?;
    }

    #[test]
    fn energy_batch_equals_join_props(n in 2usize..14, mask in 0u32..1 << 14, shape in arb_shape(), seed in 0u64..1000) {
        let (catalog, _) = WorkloadSpec { tables: n, shape, selectivity: SelectivityMethod::Steinbrunn, seed }.generate();
        check_batch(&EnergyCostModel::new(catalog), n, mask, seed)?;
    }
}

/// Calls the batch method through whatever holds the model.
fn batch_through<M: CostModel>(holder: M, vo: &PlanView, vi: &PlanView) -> Vec<PlanProps> {
    let mut ops = Vec::new();
    holder.join_ops(vo, vi, &mut ops);
    let mut out = Vec::new();
    holder.join_props_all(vo, vi, &ops, &mut out);
    out
}

#[test]
fn borrowed_and_shared_holders_reach_the_override() {
    let (catalog, _) = WorkloadSpec::chain(8, 5).generate();
    let model = Arc::new(CountingModel::new(ResourceCostModel::full(catalog)));
    let (vo, vi) = operand_views(&model.inner, 8, 0b1010_1010, 9);
    let direct = batch_through(&model.inner, &vo, &vi);

    // `&M`: a forgotten forward would fall back to the per-operator default
    // on the reference and never run the override.
    let borrowed = batch_through(&*model, &vo, &vi);
    assert_eq!(model.batches(), 1);
    // `Arc<M>` likewise.
    let shared = batch_through(Arc::clone(&model), &vo, &vi);
    assert_eq!(model.batches(), 2);

    for held in [&borrowed, &shared] {
        assert_eq!(held.len(), direct.len());
        for (a, b) in held.iter().zip(&direct) {
            assert_eq!(bits(a), bits(b));
        }
    }
}
