//! The paper's parameter-selection guidelines.
//!
//! The key insight of the paper (§II-B, §IV-A) is that partition-based
//! synopses trade off two error sources as the grid gets finer:
//!
//! * **noise error** grows — a query of area-ratio `r` over an `m × m`
//!   grid touches `≈ r·m²` cells, so summed Laplace noise has standard
//!   deviation `√(2·r)·m / ε`;
//! * **non-uniformity error** shrinks — the query border crosses `≈ √r·m`
//!   cells holding `≈ √r·N/m` points, giving error `≈ √r·N/(c₀·m)`.
//!
//! Minimising the sum over `m` yields **Guideline 1**; applying the same
//! analysis inside one first-level cell (with constrained inference
//! halving the effective cell count on the border) yields **Guideline 2**.

use serde::{Deserialize, Serialize};

use crate::{CoreError, Result};

/// The paper's default constant `c` of Guideline 1 ("setting `c = 10`
/// works well for datasets of different sizes and different choices of
/// ε").
pub const DEFAULT_C: f64 = 10.0;

/// The paper's default constant of Guideline 2: `c₂ = c / 2 = 5`.
pub const DEFAULT_C2: f64 = DEFAULT_C / 2.0;

/// The paper's default budget split for AG: `α = 0.5` (any value in
/// `[0.2, 0.6]` performs similarly per §V-C).
pub const DEFAULT_ALPHA: f64 = 0.5;

/// **Guideline 1**: grid size for UG, `m = √(N·ε / c)` rounded to the
/// nearest integer and clamped to at least 1.
///
/// Reproduces the paper's suggested sizes of Table II: e.g.
/// `guideline1(1.6e6 as usize, 1.0, 10.0) == 400` for the road dataset.
pub fn guideline1(n: usize, epsilon: f64, c: f64) -> usize {
    let m = (n as f64 * epsilon / c).max(0.0).sqrt();
    (m.round() as usize).max(1)
}

/// First-level grid size for AG (§IV-B):
/// `m₁ = max(10, ¼·√(N·ε / c))`, rounded.
///
/// Reproduces the paper's suggested `m₁` values: 100 (road, ε=1),
/// 25 (checkin, ε=0.1), 79 (checkin, ε=1), 10 (storage, both ε).
pub fn suggested_m1(n: usize, epsilon: f64, c: f64) -> usize {
    let m = (n as f64 * epsilon / c).max(0.0).sqrt() / 4.0;
    (m.round() as usize).max(10)
}

/// **Guideline 2**: second-level grid size for a first-level cell with
/// noisy count `n_prime`, given the remaining budget `(1−α)·ε`:
/// `m₂ = ⌈√(N′·(1−α)·ε / c₂)⌉`, at least 1.
///
/// Negative noisy counts are treated as 0 (no further partitioning).
pub fn guideline2(n_prime: f64, remaining_epsilon: f64, c2: f64) -> usize {
    let n = n_prime.max(0.0);
    let m = (n * remaining_epsilon / c2).sqrt().ceil();
    (m as usize).max(1)
}

/// How a grid method obtains the dataset cardinality `N` that the
/// guidelines need.
///
/// The paper notes: *"Obtaining a noisy estimate of N using a very small
/// portion of the total privacy budget suffices."* Its experiments use
/// the exact `N`; [`NEstimate::Exact`] mirrors that. For a strict
/// end-to-end ε accounting use [`NEstimate::Noisy`], which spends
/// `fraction · ε` on a Laplace count of `N` and leaves the rest for the
/// cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum NEstimate {
    /// Use the exact number of points (the paper's experimental setting;
    /// strictly speaking this leaks `N`, which the paper accepts).
    #[default]
    Exact,
    /// Spend `fraction` of the total budget on a noisy count of `N`.
    Noisy {
        /// Fraction of ε used for the estimate, in `(0, 1)`.
        fraction: f64,
    },
}

impl NEstimate {
    /// Validates the variant's parameters.
    pub fn validate(&self) -> Result<()> {
        match self {
            NEstimate::Exact => Ok(()),
            NEstimate::Noisy { fraction } => {
                if fraction.is_finite() && *fraction > 0.0 && *fraction < 1.0 {
                    Ok(())
                } else {
                    Err(CoreError::InvalidConfig(format!(
                        "NEstimate::Noisy fraction must be in (0, 1), got {fraction}"
                    )))
                }
            }
        }
    }
}

/// How the UG grid size is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GridSize {
    /// Use Guideline 1 with the given constant `c`.
    Suggested {
        /// The dataset-dependent constant (default [`DEFAULT_C`]).
        c: f64,
    },
    /// Use a fixed `m × m` grid (the paper's `U_m` notation).
    Fixed(usize),
}

impl Default for GridSize {
    fn default() -> Self {
        GridSize::Suggested { c: DEFAULT_C }
    }
}

impl GridSize {
    /// Resolves the grid size for a dataset of `n` points under budget
    /// `epsilon`.
    pub fn resolve(&self, n: usize, epsilon: f64) -> Result<usize> {
        match self {
            GridSize::Suggested { c } => {
                if !c.is_finite() || *c <= 0.0 {
                    return Err(CoreError::InvalidConfig(format!(
                        "Guideline-1 constant c must be positive, got {c}"
                    )));
                }
                Ok(guideline1(n, epsilon, *c))
            }
            GridSize::Fixed(m) => {
                if *m == 0 {
                    return Err(CoreError::InvalidConfig("grid size must be ≥ 1".into()));
                }
                Ok(*m)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins Guideline 1 against every suggested UG size printed in
    /// Table II of the paper.
    #[test]
    fn guideline1_reproduces_table2() {
        // (N, ε, expected m)
        let cases = [
            (1_600_000, 1.0, 400), // road
            (1_600_000, 0.1, 126), // road    (√16000 ≈ 126.49)
            (1_000_000, 1.0, 316), // checkin (√100000 ≈ 316.23)
            (1_000_000, 0.1, 100), // checkin
            (900_000, 1.0, 300),   // landmark
            (900_000, 0.1, 95),    // landmark (√9000 ≈ 94.87)
            (9_000, 1.0, 30),      // storage
        ];
        for (n, eps, expect) in cases {
            assert_eq!(guideline1(n, eps, DEFAULT_C), expect, "N={n}, ε={eps}");
        }
        // storage at ε = 0.1: √90 ≈ 9.49; the paper prints 10 (it rounds
        // up at the small end). We document the off-by-one: our rounding
        // gives 9, within the observed optimal range 10–32 ± 1.
        assert_eq!(guideline1(9_000, 0.1, DEFAULT_C), 9);
    }

    /// Pins the m₁ formula against the suggested values the paper prints
    /// in Figure 4/5 captions.
    #[test]
    fn m1_reproduces_paper_values() {
        let cases = [
            (1_600_000, 1.0, 100), // road: A100,5
            (1_600_000, 0.1, 32),  // road: A32,5
            (1_000_000, 1.0, 79),  // checkin: A79,5
            (1_000_000, 0.1, 25),  // checkin: A25,5
            (900_000, 1.0, 75),    // landmark: A75,5
            (900_000, 0.1, 24),    // landmark: A24,5
            (9_000, 1.0, 10),      // storage: A10,5 (floor of 10)
            (9_000, 0.1, 10),      // storage: A10,5
        ];
        for (n, eps, expect) in cases {
            assert_eq!(suggested_m1(n, eps, DEFAULT_C), expect, "N={n}, ε={eps}");
        }
    }

    #[test]
    fn guideline2_basics() {
        // N' = 0 or negative → no further partitioning.
        assert_eq!(guideline2(0.0, 0.5, DEFAULT_C2), 1);
        assert_eq!(guideline2(-50.0, 0.5, DEFAULT_C2), 1);
        // N' = 1000, (1-α)ε = 0.5: ⌈√100⌉ = 10.
        assert_eq!(guideline2(1000.0, 0.5, DEFAULT_C2), 10);
        // Ceiling applies: N' = 1010 → √101 ≈ 10.05 → 11.
        assert_eq!(guideline2(1010.0, 0.5, DEFAULT_C2), 11);
    }

    #[test]
    fn guideline2_rounds_up_where_dpcomp_truncates() {
        // dpcomp's AG (SNIPPETS.md): m2 = 1 for a noisy count ≤ 0, else
        // int(sqrt(noisycnt·(1−α)·ε/c2) − 1) + 1, where Python's int
        // truncates toward zero: ⌊s⌋ for a root s ≥ 1, 1 below it.
        let dpcomp = |n_prime: f64, remaining_epsilon: f64, c2: f64| -> usize {
            if n_prime <= 0.0 {
                1
            } else {
                ((n_prime * remaining_epsilon / c2).sqrt() - 1.0) as usize + 1
            }
        };
        // They agree for N′ ≤ 0, for roots below 1, and for perfect
        // squares (√100 = 10, √1 = 1).
        for (n_prime, eps) in [
            (0.0, 0.5),
            (-50.0, 0.5),
            (3.0, 0.5),
            (9.9, 0.5),
            (10.0, 0.5),
            (1000.0, 0.5),
        ] {
            assert_eq!(
                guideline2(n_prime, eps, DEFAULT_C2),
                dpcomp(n_prime, eps, DEFAULT_C2),
                "N′ = {n_prime}"
            );
        }
        // Between perfect squares guideline2 takes ⌈s⌉ and dpcomp ⌊s⌋:
        // √101 ≈ 10.05 gives 11 against 10.
        assert_eq!(guideline2(1010.0, 0.5, DEFAULT_C2), 11);
        assert_eq!(dpcomp(1010.0, 0.5, DEFAULT_C2), 10);
        for n_prime in [11.0, 25.0, 999.0, 12_345.0] {
            assert_eq!(
                guideline2(n_prime, 0.5, DEFAULT_C2),
                dpcomp(n_prime, 0.5, DEFAULT_C2) + 1,
                "N′ = {n_prime}"
            );
        }
    }

    #[test]
    fn guideline2_monotone_in_count_and_budget() {
        let mut last = 0;
        for n in [0.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0] {
            let m = guideline2(n, 0.5, DEFAULT_C2);
            assert!(m >= last);
            last = m;
        }
        assert!(guideline2(1000.0, 1.0, DEFAULT_C2) >= guideline2(1000.0, 0.1, DEFAULT_C2));
    }

    #[test]
    fn grid_size_resolution() {
        assert_eq!(GridSize::default().resolve(1_000_000, 1.0).unwrap(), 316);
        assert_eq!(GridSize::Fixed(64).resolve(1, 1.0).unwrap(), 64);
        assert!(GridSize::Fixed(0).resolve(1, 1.0).is_err());
        assert!(GridSize::Suggested { c: 0.0 }.resolve(1, 1.0).is_err());
        assert!(GridSize::Suggested { c: f64::NAN }.resolve(1, 1.0).is_err());
    }

    #[test]
    fn guideline1_minimum_is_one() {
        assert_eq!(guideline1(0, 1.0, 10.0), 1);
        assert_eq!(guideline1(1, 0.001, 10.0), 1);
    }

    #[test]
    fn n_estimate_validation() {
        assert!(NEstimate::Exact.validate().is_ok());
        assert!(NEstimate::Noisy { fraction: 0.05 }.validate().is_ok());
        assert!(NEstimate::Noisy { fraction: 0.0 }.validate().is_err());
        assert!(NEstimate::Noisy { fraction: 1.0 }.validate().is_err());
        assert!(NEstimate::Noisy { fraction: f64::NAN }.validate().is_err());
    }
}
