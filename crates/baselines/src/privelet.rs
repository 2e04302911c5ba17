//! The Privelet baseline (`W_m` in the paper's notation).

use std::sync::OnceLock;

use rand::Rng;
use serde::{Deserialize, Serialize};

use dpgrid_geo::{Build, DenseGrid, Domain, GeoDataset, Rect, SummedAreaTable, Synopsis};
use dpgrid_mech::Laplace;

use crate::wavelet;
use crate::{BaselineError, Result};

/// Configuration for [`Privelet`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriveletConfig {
    /// Total privacy budget ε.
    pub epsilon: f64,
    /// Grid size `m` — the method operates on an `m × m` frequency
    /// matrix (zero-padded to the next power of two internally, as in
    /// Xiao et al.'s implementation).
    pub m: usize,
}

impl PriveletConfig {
    /// Creates a configuration (the paper's `W_m`).
    pub fn new(epsilon: f64, m: usize) -> Self {
        PriveletConfig { epsilon, m }
    }

    fn validate(&self) -> Result<()> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(BaselineError::InvalidConfig(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        if self.m == 0 {
            return Err(BaselineError::InvalidConfig("m must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// The **Privelet** synopsis of Xiao, Wang & Gehrke: Haar-transform the
/// frequency matrix (2-D standard decomposition), add
/// weight-calibrated Laplace noise to every wavelet coefficient, invert
/// the transform, and answer queries from the reconstructed matrix.
///
/// Coefficient `i` receives noise `Lap(ρ / (ε · W_i))` where `W_i` is its
/// subtree-size weight and `ρ = (1 + log₂ p)²` the generalized
/// sensitivity of the padded `p × p` transform; large-subtree
/// coefficients get small noise, which makes the noise on *range sums*
/// cancel much better than independent per-cell noise — the effect the
/// paper observes as a small accuracy win over UG at equal grid size
/// (Figure 3), vanishing for small grids (Figure 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Privelet {
    grid: DenseGrid,
    /// The table every answer reads, built from `grid` on first use;
    /// derived data, so serialisation skips it.
    #[serde(skip)]
    sat: OnceLock<SummedAreaTable>,
    epsilon: f64,
    m: usize,
    padded: usize,
}

impl Privelet {
    /// Builds the synopsis over `dataset`. Thin delegation to the
    /// uniform [`Build`] trait.
    pub fn build(
        dataset: &GeoDataset,
        config: &PriveletConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        <Privelet as Build>::build(dataset, config, rng)
    }
}

impl Build for Privelet {
    type Config = PriveletConfig;

    fn build(dataset: &GeoDataset, config: &PriveletConfig, rng: &mut impl Rng) -> Result<Self> {
        config.validate()?;
        let m = config.m;
        let p = wavelet::next_pow2(m);

        // Frequency matrix, zero-padded to p × p.
        let counts = DenseGrid::count(dataset, m, m)?;
        let mut matrix = vec![0.0f64; p * p];
        for r in 0..m {
            for c in 0..m {
                matrix[r * p + c] = counts.get(c, r);
            }
        }

        // Forward transform, per-coefficient calibrated noise, inverse.
        wavelet::forward_2d(&mut matrix, p, p)?;
        let rho = wavelet::generalized_sensitivity_2d(p, p);
        for r in 0..p {
            for c in 0..p {
                let w = wavelet::weight_2d(c, r, p, p);
                let lap = Laplace::new(rho / (config.epsilon * w))?;
                matrix[r * p + c] += lap.sample(rng);
            }
        }
        wavelet::inverse_2d(&mut matrix, p, p)?;

        // Crop back to the m × m domain grid.
        let mut grid = DenseGrid::zeros(*dataset.domain(), m, m)?;
        for r in 0..m {
            for c in 0..m {
                grid.set(c, r, matrix[r * p + c]);
            }
        }
        Ok(Privelet {
            grid,
            sat: OnceLock::new(),
            epsilon: config.epsilon,
            m,
            padded: p,
        })
    }
}

impl Privelet {
    /// The grid size `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The internal power-of-two transform size.
    #[inline]
    pub fn padded_size(&self) -> usize {
        self.padded
    }

    /// The reconstructed noisy grid.
    #[inline]
    pub fn grid(&self) -> &DenseGrid {
        &self.grid
    }
}

impl Synopsis for Privelet {
    fn domain(&self) -> &Domain {
        self.grid.domain()
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn answer(&self, query: &Rect) -> f64 {
        self.grid
            .answer_uniform(self.sat.get_or_init(|| self.grid.sat()), query)
    }

    fn cells(&self) -> Vec<(Rect, f64)> {
        self.grid
            .iter_cells()
            .map(|(_, _, rect, v)| (rect, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgrid_geo::generators;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn dataset(n: usize, seed: u64) -> GeoDataset {
        let domain = Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap();
        generators::uniform(domain, n, &mut rng(seed))
    }

    #[test]
    fn validates_config() {
        let ds = dataset(100, 0);
        assert!(Privelet::build(&ds, &PriveletConfig::new(0.0, 8), &mut rng(1)).is_err());
        assert!(Privelet::build(&ds, &PriveletConfig::new(1.0, 0), &mut rng(1)).is_err());
    }

    #[test]
    fn pads_non_power_of_two() {
        let ds = dataset(500, 2);
        let w = Privelet::build(&ds, &PriveletConfig::new(1.0, 6), &mut rng(3)).unwrap();
        assert_eq!(w.m(), 6);
        assert_eq!(w.padded_size(), 8);
        assert_eq!(w.grid().cols(), 6);
    }

    #[test]
    fn huge_epsilon_recovers_exact_counts() {
        let ds = dataset(2_000, 4);
        let w = Privelet::build(&ds, &PriveletConfig::new(1e9, 8), &mut rng(5)).unwrap();
        let q = Rect::new(0.0, 0.0, 4.0, 4.0).unwrap();
        let truth = ds.count_in(&q) as f64;
        assert!(
            (w.answer(&q) - truth).abs() < 1e-2,
            "got {} truth {truth}",
            w.answer(&q)
        );
        assert!((w.total_estimate() - 2_000.0).abs() < 1e-2);
    }

    #[test]
    fn range_noise_beats_independent_cells_at_large_m() {
        // The wavelet's raison d'être: noise on large range sums is much
        // smaller than summing m² independent Laplace draws — but only
        // once m is large enough that ρ = (1+log₂m)² < m. The paper sees
        // exactly this: W₃₆₀ helps, W₁₂₈ and below does not (Fig 3 vs 5).
        //
        // Theory for the whole-domain sum: wavelet std = √2·ρ/ε versus
        // UG std = √2·m/ε. At m = 128: ρ = 64 < 128 → wavelet wins 2×.
        let ds = dataset(0, 6); // zero data isolates the noise
        let m = 128usize;
        let eps = 1.0;
        let trials = 60;
        let mut r = rng(7);
        let mut sum_sq_w = 0.0;
        for _ in 0..trials {
            let w = Privelet::build(&ds, &PriveletConfig::new(eps, m), &mut r).unwrap();
            let total = w.total_estimate();
            sum_sq_w += total * total;
        }
        let std_w = (sum_sq_w / trials as f64).sqrt();
        let std_ug = ((m * m) as f64 * 2.0 / (eps * eps)).sqrt();
        let rho = crate::wavelet::generalized_sensitivity_2d(m, m);
        let theory_w = (2.0f64).sqrt() * rho / eps;
        assert!(
            (std_w - theory_w).abs() < theory_w * 0.4,
            "wavelet total std {std_w} vs theory {theory_w}"
        );
        assert!(
            std_w < std_ug * 0.75,
            "wavelet total std {std_w} not clearly below UG {std_ug}"
        );
    }

    #[test]
    fn small_grids_do_not_benefit() {
        // Counterpart of the test above: at m = 16, ρ = 25 > 16 and the
        // wavelet's whole-domain noise EXCEEDS UG's — matching the
        // paper's observation that Privelet on small grids is worse.
        let m = 16usize;
        let rho = crate::wavelet::generalized_sensitivity_2d(m, m);
        assert!(rho > m as f64);
    }

    #[test]
    fn empty_dataset_is_pure_noise_but_finite() {
        let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
        let ds = GeoDataset::from_points(vec![], domain).unwrap();
        let w = Privelet::build(&ds, &PriveletConfig::new(0.5, 4), &mut rng(8)).unwrap();
        let q = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!(w.answer(&q).is_finite());
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = dataset(300, 9);
        let a = Privelet::build(&ds, &PriveletConfig::new(1.0, 8), &mut rng(10)).unwrap();
        let b = Privelet::build(&ds, &PriveletConfig::new(1.0, 8), &mut rng(10)).unwrap();
        assert_eq!(a.grid().values(), b.grid().values());
    }

    #[test]
    fn cells_partition_domain() {
        let ds = dataset(100, 11);
        let w = Privelet::build(&ds, &PriveletConfig::new(1.0, 5), &mut rng(12)).unwrap();
        let area: f64 = w.cells().iter().map(|(r, _)| r.area()).sum();
        assert!((area - 64.0).abs() < 1e-9);
    }
}
