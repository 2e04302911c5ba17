//! Two-level constrained inference for the adaptive grid (§IV-B).
//!
//! AG observes each first-level cell twice: once directly (noisy count
//! `v` with budget `α·ε`) and once as the sum of its `m₂ × m₂` leaf
//! counts `u` (each with budget `(1−α)·ε`). Constrained inference merges
//! the two observations into a single consistent estimate:
//!
//! 1. the minimum-variance unbiased combination
//!    `v′ = w·v + (1−w)·Σu` with
//!    `w = α²m₂² / ((1−α)² + α²m₂²)` (the paper's closed form — exactly
//!    inverse-variance weighting of `Var(v) = 2/(αε)²` against
//!    `Var(Σu) = 2m₂²/((1−α)ε)²`);
//! 2. the difference `v′ − Σu` is distributed **equally over the m₂²
//!    leaves** so that they sum to `v′`.
//!
//! Note: the paper's equation for step 2 prints `u′ = u + (v′ − Σu)`
//! without the division by `m₂²`; that is a typo (the values would not
//! sum to `v′`). We implement Hay et al.'s correct update
//! `u′ = u + (v′ − Σu)/m₂²`, which `tests::leaf_update_restores_consistency`
//! pins.

/// Result of two-level constrained inference on one first-level cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellInference {
    /// The merged first-level estimate `v′`.
    pub adjusted_total: f64,
    /// Weight given to the direct observation `v` (for diagnostics).
    pub weight_on_v: f64,
}

/// Computes the merged estimate `v′` and updates the leaf counts in
/// place so that they are consistent with it.
///
/// * `v` — the first-level noisy count (budget `α·ε`);
/// * `alpha` — the first level's fraction of the budget the two levels
///   share: `α`, or `α/(1−f)` when a noisy estimate of `N` took `f·ε`
///   before them;
/// * `leaves` — the `m₂²` leaf noisy counts (the rest of the levels'
///   budget), overwritten with the consistent values.
///
/// When `m₂ = 1` this degenerates to the weighted average of two
/// independent observations of the same cell, exactly as the paper notes.
pub fn two_level_inference(v: f64, alpha: f64, leaves: &mut [f64]) -> CellInference {
    debug_assert!(!leaves.is_empty(), "a cell always has at least one leaf");
    debug_assert!((0.0..1.0).contains(&alpha) && alpha > 0.0);
    let m2_sq = leaves.len() as f64;
    let beta = 1.0 - alpha;
    // Inverse-variance weights: Var(v) ∝ 1/α², Var(Σu) ∝ m₂²/β².
    let w_v = alpha * alpha * m2_sq / (beta * beta + alpha * alpha * m2_sq);
    let leaf_sum: f64 = leaves.iter().sum();
    let adjusted_total = w_v * v + (1.0 - w_v) * leaf_sum;
    let correction = (adjusted_total - leaf_sum) / m2_sq;
    for u in leaves.iter_mut() {
        *u += correction;
    }
    CellInference {
        adjusted_total,
        weight_on_v: w_v,
    }
}

/// Variance of the merged estimate `v′`, in units of `2/ε²` (i.e. for a
/// total budget ε split as `α`/`1−α`). Used by tests and the error model
/// to verify that inference never hurts.
pub fn merged_variance(alpha: f64, m2: usize) -> f64 {
    let m2_sq = (m2 * m2) as f64;
    let beta = 1.0 - alpha;
    let var_v = 1.0 / (alpha * alpha);
    let var_sum = m2_sq / (beta * beta);
    // Inverse-variance combination.
    1.0 / (1.0 / var_v + 1.0 / var_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_closed_form() {
        // The paper: v' = α²m₂²/((1−α)² + α²m₂²)·v + (1−α)²/((1−α)² + α²m₂²)·Σu.
        let alpha = 0.5;
        let m2 = 4usize;
        let v = 100.0;
        let mut leaves = vec![5.0; m2 * m2]; // Σu = 80
        let inf = two_level_inference(v, alpha, &mut leaves);
        let m2sq = (m2 * m2) as f64;
        let denom = (1.0f64 - alpha).powi(2) + alpha * alpha * m2sq;
        let expect = alpha * alpha * m2sq / denom * v + (1.0f64 - alpha).powi(2) / denom * 80.0;
        assert!((inf.adjusted_total - expect).abs() < 1e-9);
    }

    #[test]
    fn leaf_update_restores_consistency() {
        // After inference, Σu′ must equal v′ (this is where the paper's
        // printed equation omits the /m₂² division).
        let mut leaves = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let inf = two_level_inference(50.0, 0.5, &mut leaves);
        let sum: f64 = leaves.iter().sum();
        assert!((sum - inf.adjusted_total).abs() < 1e-9);
        // The correction is spread equally.
        let diffs: Vec<f64> = leaves
            .iter()
            .zip([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
            .map(|(after, before)| after - before)
            .collect();
        for w in diffs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn m2_equals_one_is_weighted_average() {
        // Single leaf: v' is the inverse-variance weighted average of two
        // observations and the leaf equals v'.
        let alpha = 0.5;
        let mut leaves = vec![30.0];
        let inf = two_level_inference(10.0, alpha, &mut leaves);
        // Equal budgets, equal variances → plain average.
        assert!((inf.adjusted_total - 20.0).abs() < 1e-12);
        assert!((leaves[0] - 20.0).abs() < 1e-12);
        assert!((inf.weight_on_v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weight_shifts_with_alpha_and_m2() {
        // More budget on the first level → more weight on v.
        let mut l1 = vec![0.0; 16];
        let mut l2 = vec![0.0; 16];
        let w_small = two_level_inference(1.0, 0.25, &mut l1).weight_on_v;
        let w_large = two_level_inference(1.0, 0.75, &mut l2).weight_on_v;
        assert!(w_large > w_small);
        // More leaves → the leaf-sum is noisier → more weight on v.
        let mut few = vec![0.0; 4];
        let mut many = vec![0.0; 64];
        let w_few = two_level_inference(1.0, 0.5, &mut few).weight_on_v;
        let w_many = two_level_inference(1.0, 0.5, &mut many).weight_on_v;
        assert!(w_many > w_few);
    }

    #[test]
    fn merged_variance_never_exceeds_either_observation() {
        for alpha in [0.25, 0.5, 0.75] {
            for m2 in [1usize, 2, 4, 8, 16] {
                let var = merged_variance(alpha, m2);
                let var_v = 1.0 / (alpha * alpha);
                let var_sum = (m2 * m2) as f64 / ((1.0 - alpha) * (1.0 - alpha));
                assert!(var <= var_v + 1e-12, "α={alpha}, m₂={m2}");
                assert!(var <= var_sum + 1e-12, "α={alpha}, m₂={m2}");
            }
        }
    }

    #[test]
    fn inference_is_unbiased_statistically() {
        // Monte-Carlo: with zero-mean noise on both observations of a
        // cell of true count T, v' averages to T.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let lap = dpgrid_mech::Laplace::new(2.0).unwrap();
        let truth = 500.0;
        let m2 = 3usize;
        let leaf_truth = truth / (m2 * m2) as f64;
        let trials = 20_000;
        let mut sum_adjusted = 0.0;
        for _ in 0..trials {
            let v = truth + lap.sample(&mut rng);
            let mut leaves: Vec<f64> = (0..m2 * m2)
                .map(|_| leaf_truth + lap.sample(&mut rng))
                .collect();
            sum_adjusted += two_level_inference(v, 0.5, &mut leaves).adjusted_total;
        }
        let mean = sum_adjusted / trials as f64;
        assert!((mean - truth).abs() < 1.0, "mean {mean}");
    }
}
