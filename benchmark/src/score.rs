//! `pick_cost_log10`: the cost of the plan a user would pick.
//!
//! A frontier is scored under `d + 1` preference profiles — each single
//! metric, and all metrics weighted equally — by the cheapest member under
//! that profile's weighted sum of `log10(max(c_k, 1))`; the score is the
//! mean over the profiles. Lower is better. It is smooth where the
//! ε-indicator jumps by orders of magnitude on single plans and where raw
//! hypervolume is swamped by 10^60-scale costs, and it never gets worse as a
//! frontier admits plans, because admission only evicts dominated members.

use moqo_core::cost::{CostVector, MAX_COST_DIM};

/// Scores a frontier given as cost vectors; `f64::INFINITY` when empty.
pub fn pick_cost_log10<'a>(costs: impl IntoIterator<Item = &'a CostVector>) -> f64 {
    // Running minimum per single-metric profile, and of the balanced one.
    let mut single = [f64::INFINITY; MAX_COST_DIM];
    let mut balanced = f64::INFINITY;
    let mut dim = 0;
    for cost in costs {
        dim = cost.dim();
        let mut sum = 0.0;
        for (best, &c) in single.iter_mut().zip(cost.as_slice()) {
            let log = c.max(1.0).log10();
            *best = best.min(log);
            sum += log;
        }
        balanced = balanced.min(sum / dim as f64);
    }
    if dim == 0 {
        return f64::INFINITY;
    }
    (single[..dim].iter().sum::<f64>() + balanced) / (dim + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_hand_built_frontiers() {
        // Two extreme plans: each single-metric profile picks its own
        // extreme (log cost 1), the balanced profile ties at (1 + 3) / 2.
        let a = CostVector::new(&[10.0, 1000.0]);
        let b = CostVector::new(&[1000.0, 10.0]);
        let two = pick_cost_log10([&a, &b]);
        assert!((two - (1.0 + 1.0 + 2.0) / 3.0).abs() < 1e-12);
        // A balanced plan improves only the balanced profile.
        let c = CostVector::new(&[31.6227766016838, 31.6227766016838]);
        let three = pick_cost_log10([&a, &b, &c]);
        assert!((three - (1.0 + 1.0 + 1.5) / 3.0).abs() < 1e-9);
        assert!(three < two);
    }

    #[test]
    fn costs_below_one_are_clamped_and_empty_is_infinite() {
        let tiny = CostVector::new(&[0.001, 100.0]);
        assert!((pick_cost_log10([&tiny]) - (0.0 + 2.0 + 1.0) / 3.0).abs() < 1e-12);
        assert!(pick_cost_log10(std::iter::empty()).is_infinite());
    }
}
