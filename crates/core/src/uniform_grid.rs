//! The Uniform Grid (UG) method — §IV-A of the paper.

use std::sync::OnceLock;

use rand::Rng;
use serde::{Deserialize, Serialize};

use dpgrid_geo::{DenseGrid, Domain, GeoDataset, Rect, SummedAreaTable};
use dpgrid_mech::{LaplaceMechanism, PrivacyBudget};

use crate::guidelines::{GridSize, NEstimate};
use crate::noise::{CountNoise, NoiseKind};
use crate::{Build, CoreError, Result, Synopsis};

/// Configuration for [`UniformGrid`].
///
/// The paper's `U_m` notation corresponds to
/// `UgConfig::fixed(epsilon, m)`; the guideline-driven variant is
/// `UgConfig::guideline(epsilon)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UgConfig {
    /// Total privacy budget ε.
    pub epsilon: f64,
    /// How the grid size is chosen.
    pub grid_size: GridSize,
    /// How `N` is obtained when the grid size needs it.
    pub n_estimate: NEstimate,
    /// Clamp released cell counts at zero (post-processing; does not
    /// affect privacy). Off by default — the paper keeps raw noisy
    /// counts so that noise cancels when summing cells.
    pub clamp_nonnegative: bool,
    /// Noise distribution (extension; the paper uses Laplace).
    pub noise: NoiseKind,
    /// Split the `m²` cell budget across a `cols × rows` grid matching
    /// the domain's aspect ratio instead of the paper's square `m × m`
    /// (extension; evaluated by the `ablate` experiment).
    pub aspect_aware: bool,
}

impl UgConfig {
    /// Guideline-1 configuration with the paper's default `c = 10`.
    pub fn guideline(epsilon: f64) -> Self {
        UgConfig {
            epsilon,
            grid_size: GridSize::default(),
            n_estimate: NEstimate::Exact,
            clamp_nonnegative: false,
            noise: NoiseKind::Laplace,
            aspect_aware: false,
        }
    }

    /// Fixed `m × m` grid (the paper's `U_m`).
    pub fn fixed(epsilon: f64, m: usize) -> Self {
        UgConfig {
            grid_size: GridSize::Fixed(m),
            ..UgConfig::guideline(epsilon)
        }
    }

    /// Guideline-1 configuration with a custom constant `c`.
    pub fn with_c(epsilon: f64, c: f64) -> Self {
        UgConfig {
            grid_size: GridSize::Suggested { c },
            ..UgConfig::guideline(epsilon)
        }
    }

    /// Switches to a noisy estimate of `N` consuming `fraction` of ε.
    pub fn with_noisy_n(mut self, fraction: f64) -> Self {
        self.n_estimate = NEstimate::Noisy { fraction };
        self
    }

    /// Enables non-negativity clamping of released counts.
    pub fn with_clamping(mut self) -> Self {
        self.clamp_nonnegative = true;
        self
    }

    /// Switches the noise distribution.
    pub fn with_noise(mut self, noise: NoiseKind) -> Self {
        self.noise = noise;
        self
    }

    /// Enables aspect-ratio-aware cell shapes.
    pub fn with_aspect_aware(mut self) -> Self {
        self.aspect_aware = true;
        self
    }
}

/// Splits a target of `m²` cells into `cols × rows` matching the
/// domain's aspect ratio: cells come out (approximately) square in
/// domain units while the total cell count stays ≈ `m²`.
fn aspect_dims(domain: &Domain, m: usize) -> (usize, usize) {
    let aspect = (domain.width() / domain.height()).sqrt();
    let cols = ((m as f64) * aspect).round().max(1.0) as usize;
    let rows = ((m as f64) / aspect).round().max(1.0) as usize;
    (cols, rows)
}

/// The **UG** synopsis: an `m × m` equi-width grid of independently
/// Laplace-noised counts.
///
/// Building is a single pass over the data (count each point's cell) plus
/// one noise draw per cell. Since the cells partition the domain, the
/// whole grid consumes ε once under parallel composition.
///
/// Query answering uses a summed-area table: any rectangle is answered
/// from the 16 prefix sums around its four corner cells, so `answer` is
/// O(1) regardless of grid or query size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UniformGrid {
    grid: DenseGrid,
    /// The table every answer reads, built from `grid` on first use;
    /// derived data, so serialisation skips it.
    #[serde(skip)]
    sat: OnceLock<SummedAreaTable>,
    epsilon: f64,
    m: usize,
}

impl UniformGrid {
    /// Builds the synopsis over `dataset` with the given configuration.
    /// Thin delegation to the uniform [`Build`] trait.
    pub fn build(dataset: &GeoDataset, config: &UgConfig, rng: &mut impl Rng) -> Result<Self> {
        <UniformGrid as Build>::build(dataset, config, rng)
    }
}

impl Build for UniformGrid {
    type Config = UgConfig;

    fn build(dataset: &GeoDataset, config: &UgConfig, rng: &mut impl Rng) -> Result<Self> {
        config.n_estimate.validate()?;
        let mut budget = PrivacyBudget::new(config.epsilon)?;

        // Step 1: obtain N (exactly, or noisily from a budget slice).
        let n = match config.n_estimate {
            NEstimate::Exact => dataset.len() as f64,
            NEstimate::Noisy { fraction } => {
                let eps_n = budget.spend_fraction(fraction)?;
                let mech = LaplaceMechanism::for_count(eps_n)?;
                mech.randomize(dataset.len() as f64, rng).max(0.0)
            }
        };

        // Step 2: resolve the grid size from Guideline 1 (or use the
        // fixed size), optionally reshaping to the domain's aspect.
        let m = config
            .grid_size
            .resolve(n.round() as usize, config.epsilon)?;
        let (cols, rows) = if config.aspect_aware {
            aspect_dims(dataset.domain(), m)
        } else {
            (m, m)
        };

        // Step 3: one pass to count, then noise every cell with the
        // remaining budget (parallel composition across disjoint cells).
        let eps_cells = budget.spend_all();
        if eps_cells <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "no budget left for cell counts".into(),
            ));
        }
        let mut grid = DenseGrid::count(dataset, cols, rows)?;
        let noise = CountNoise::new(config.noise, eps_cells)?;
        noise.randomize_slice(grid.values_mut(), rng);
        if config.clamp_nonnegative {
            grid.map_in_place(|v| v.max(0.0));
        }

        Ok(UniformGrid {
            grid,
            sat: OnceLock::new(),
            epsilon: config.epsilon,
            m,
        })
    }
}

impl UniformGrid {
    /// The grid size `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The released noisy grid.
    #[inline]
    pub fn grid(&self) -> &DenseGrid {
        &self.grid
    }
}

impl Synopsis for UniformGrid {
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

    /// O(1) from the summed-area table — no cell export needed.
    fn total_estimate(&self) -> f64 {
        self.sat.get_or_init(|| self.grid.sat()).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgrid_geo::{generators, Point};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn small_dataset(n: usize, seed: u64) -> GeoDataset {
        let domain = Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap();
        generators::uniform(domain, n, &mut rng(seed))
    }

    #[test]
    fn build_uses_guideline_size() {
        let ds = small_dataset(4_000, 1);
        let ug = UniformGrid::build(&ds, &UgConfig::guideline(1.0), &mut rng(2)).unwrap();
        // Guideline 1: √(4000 · 1 / 10) = 20.
        assert_eq!(ug.m(), 20);
        assert_eq!(ug.grid().cols(), 20);
    }

    #[test]
    fn fixed_size_respected() {
        let ds = small_dataset(100, 1);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 7), &mut rng(2)).unwrap();
        assert_eq!(ug.m(), 7);
    }

    #[test]
    fn huge_epsilon_recovers_exact_counts() {
        // With ε → very large the noise vanishes and answers are exact
        // for aligned queries.
        let ds = small_dataset(2_000, 3);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1e9, 10), &mut rng(4)).unwrap();
        let q = Rect::new(0.0, 0.0, 5.0, 5.0).unwrap();
        let truth = ds.count_in(&q) as f64;
        assert!(
            (ug.answer(&q) - truth).abs() < 1e-3,
            "answer {} vs truth {truth}",
            ug.answer(&q)
        );
        // Total estimate matches N.
        assert!((ug.total_estimate() - 2_000.0).abs() < 1e-3);
    }

    #[test]
    fn answers_are_noisy_at_small_epsilon() {
        let ds = small_dataset(1_000, 5);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(0.1, 16), &mut rng(6)).unwrap();
        let q = Rect::new(0.0, 0.0, 5.0, 5.0).unwrap();
        let truth = ds.count_in(&q) as f64;
        // Not exact (overwhelmingly likely), but in a plausible range.
        let err = (ug.answer(&q) - truth).abs();
        assert!(err > 1e-9, "noise should be present");
        assert!(err < 2_000.0, "error implausibly large: {err}");
    }

    #[test]
    fn epsilon_reported() {
        let ds = small_dataset(100, 7);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(0.25, 4), &mut rng(8)).unwrap();
        assert_eq!(ug.epsilon(), 0.25);
    }

    #[test]
    fn noisy_n_spends_budget_slice() {
        let ds = small_dataset(5_000, 9);
        let cfg = UgConfig::guideline(1.0).with_noisy_n(0.05);
        let ug = UniformGrid::build(&ds, &cfg, &mut rng(10)).unwrap();
        // The grid size is close to the exact-N guideline (noise on N is
        // small relative to N=5000, and cells get 0.95·ε).
        let exact_m = crate::guidelines::guideline1(5_000, 1.0, 10.0);
        assert!((ug.m() as i64 - exact_m as i64).abs() <= 2);
    }

    #[test]
    fn clamping_removes_negative_cells() {
        let ds = small_dataset(10, 11); // nearly-empty grid → negative noise
        let cfg = UgConfig::fixed(0.5, 16).with_clamping();
        let ug = UniformGrid::build(&ds, &cfg, &mut rng(12)).unwrap();
        assert!(ug.grid().values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn cells_partition_domain() {
        let ds = small_dataset(50, 13);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 5), &mut rng(14)).unwrap();
        let cells = ug.cells();
        assert_eq!(cells.len(), 25);
        let area: f64 = cells.iter().map(|(r, _)| r.area()).sum();
        assert!((area - ug.domain().area()).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = small_dataset(10, 15);
        assert!(UniformGrid::build(&ds, &UgConfig::fixed(0.0, 4), &mut rng(0)).is_err());
        assert!(UniformGrid::build(&ds, &UgConfig::fixed(1.0, 0), &mut rng(0)).is_err());
        let bad_n = UgConfig::guideline(1.0).with_noisy_n(2.0);
        assert!(UniformGrid::build(&ds, &bad_n, &mut rng(0)).is_err());
    }

    #[test]
    fn determinism_under_seed() {
        let ds = small_dataset(500, 16);
        let a = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 8), &mut rng(99)).unwrap();
        let b = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 8), &mut rng(99)).unwrap();
        assert_eq!(a.grid().values(), b.grid().values());
    }

    #[test]
    fn answer_handles_edge_points() {
        // A dataset with a point exactly on the closed domain corner.
        let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
        let ds =
            GeoDataset::from_points(vec![Point::new(1.0, 1.0), Point::new(0.25, 0.25)], domain)
                .unwrap();
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1e9, 2), &mut rng(17)).unwrap();
        // The corner point is bucketed into the last cell.
        let q = Rect::new(0.5, 0.5, 1.0, 1.0).unwrap();
        assert!((ug.answer(&q) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn serde_roundtrip_preserves_answers() {
        let ds = small_dataset(300, 18);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 6), &mut rng(19)).unwrap();
        let json = serde_json::to_string(&ug).unwrap();
        let back: UniformGrid = serde_json::from_str(&json).unwrap();
        let q = Rect::new(1.0, 1.0, 7.5, 8.25).unwrap();
        assert!((back.answer(&q) - ug.answer(&q)).abs() < 1e-12);
    }

    #[test]
    fn json_answers_from_its_grid() {
        // A `sat` next to the grid, as UG JSON used to carry, is ignored
        // even when it disagrees with the grid: answers come from the
        // grid. A grid whose data is short fails to load.
        let ds = small_dataset(2_000, 24);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 8), &mut rng(25)).unwrap();
        let grid = serde_json::to_string(ug.grid()).unwrap();
        let sat = serde_json::to_string(&ug.grid().sat()).unwrap();
        let stale = sat.replacen("\"cols\":8", "\"cols\":4", 1);
        assert_ne!(stale, sat);
        let json = format!("{{\"grid\":{grid},\"sat\":{stale},\"epsilon\":1,\"m\":8}}");
        let back: UniformGrid = serde_json::from_str(&json).unwrap();
        let whole = *ds.domain().rect();
        assert_eq!(back.answer(&whole), ug.answer(&whole));
        // Drop the first value of `data`.
        let data = json.find("\"data\":[").unwrap() + "\"data\":[".len();
        let next = data + json[data..].find(',').unwrap() + 1;
        let short = format!("{}{}", &json[..data], &json[next..]);
        let err = serde_json::from_str::<UniformGrid>(&short).unwrap_err();
        assert!(err.to_string().contains("DenseGrid"), "{err}");
    }

    #[test]
    fn geometric_noise_releases_integers() {
        let ds = small_dataset(500, 20);
        let cfg = UgConfig::fixed(1.0, 8).with_noise(crate::NoiseKind::Geometric);
        let ug = UniformGrid::build(&ds, &cfg, &mut rng(21)).unwrap();
        for &v in ug.grid().values() {
            assert_eq!(v, v.round(), "geometric UG must release integer counts");
        }
        // Total still estimates N.
        assert!((ug.total_estimate() - 500.0).abs() < 150.0);
    }

    #[test]
    fn aspect_aware_reshapes_grid() {
        // A 4:1 domain: aspect-aware UG should use ~2x the columns and
        // ~half the rows while keeping the cell count near m².
        let domain = Domain::from_corners(0.0, 0.0, 40.0, 10.0).unwrap();
        let ds = generators::uniform(domain, 2_000, &mut rng(22));
        let cfg = UgConfig::fixed(1.0, 16).with_aspect_aware();
        let ug = UniformGrid::build(&ds, &cfg, &mut rng(23)).unwrap();
        assert_eq!(ug.grid().cols(), 32);
        assert_eq!(ug.grid().rows(), 8);
        // Cells are square in domain units.
        let cell = ug.grid().cell_rect(0, 0);
        assert!((cell.width() - cell.height()).abs() < 1e-9);
        // Square default is unchanged.
        let sq = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 16), &mut rng(24)).unwrap();
        assert_eq!(sq.grid().cols(), 16);
        assert_eq!(sq.grid().rows(), 16);
    }

    #[test]
    fn aspect_dims_preserves_cell_count() {
        let domain = Domain::from_corners(0.0, 0.0, 90.0, 10.0).unwrap();
        let (cols, rows) = aspect_dims(&domain, 30);
        assert_eq!(cols, 90);
        assert_eq!(rows, 10);
        assert_eq!(cols * rows, 900); // = 30²
                                      // Extreme aspect never drops to zero rows.
        let thin = Domain::from_corners(0.0, 0.0, 1e6, 1.0).unwrap();
        let (_, rows) = aspect_dims(&thin, 4);
        assert!(rows >= 1);
    }
}
