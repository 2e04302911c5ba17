//! The `H_{b,d}` hierarchical-grid baseline of Figure 3.

use std::sync::OnceLock;

use rand::Rng;
use serde::{Deserialize, Serialize};

use dpgrid_geo::{Build, DenseGrid, Domain, GeoDataset, Rect, SummedAreaTable, Synopsis};
use dpgrid_mech::{geometric_allocation, uniform_allocation, LaplaceMechanism};

use crate::inference::CiTree;
use crate::{BaselineError, Result};

/// How the privacy budget is divided among the levels of a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Allocation {
    /// Equal ε per level (what the paper's Figure 3 hierarchies use).
    Uniform,
    /// Geometric allocation: level `i` (0 = coarsest) gets ε ∝ `ratio^i`,
    /// so finer levels receive more budget (Cormode et al.'s
    /// recommendation, with `ratio = fanout^(1/3)`).
    Geometric {
        /// Per-level growth factor (> 0).
        ratio: f64,
    },
}

impl Allocation {
    /// Resolves the per-level ε values, coarsest level first.
    pub fn resolve(&self, epsilon: f64, levels: usize) -> Result<Vec<f64>> {
        match self {
            Allocation::Uniform => Ok(uniform_allocation(epsilon, levels)?),
            Allocation::Geometric { ratio } => Ok(geometric_allocation(epsilon, levels, *ratio)?),
        }
    }
}

/// Configuration for [`HierarchicalGrid`].
///
/// The paper's `H_{b,d}` lays a `base_m × base_m` grid and builds `d`
/// levels on top with `b × b` branching; e.g. `H_{2,3}` over `m = 360`
/// uses level sizes 360, 180, 90.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Total privacy budget ε.
    pub epsilon: f64,
    /// Finest-level grid size.
    pub base_m: usize,
    /// Branching factor per axis (`b ≥ 2`).
    pub branching: usize,
    /// Number of levels (`d ≥ 1`); `d = 1` degenerates to a flat grid.
    pub depth: usize,
    /// Budget division among levels.
    pub allocation: Allocation,
}

impl HierarchyConfig {
    /// Creates the paper's `H_{b,d}` over a `base_m` grid with uniform
    /// budget allocation.
    pub fn new(epsilon: f64, base_m: usize, branching: usize, depth: usize) -> Self {
        HierarchyConfig {
            epsilon,
            base_m,
            branching,
            depth,
            allocation: Allocation::Uniform,
        }
    }

    /// Switches to geometric budget allocation with the given ratio.
    pub fn with_geometric(mut self, ratio: f64) -> Self {
        self.allocation = Allocation::Geometric { ratio };
        self
    }

    fn validate(&self) -> Result<()> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(BaselineError::InvalidConfig(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        if self.base_m == 0 {
            return Err(BaselineError::InvalidConfig("base_m must be ≥ 1".into()));
        }
        if self.depth == 0 {
            return Err(BaselineError::InvalidConfig("depth must be ≥ 1".into()));
        }
        if self.depth > 1 && self.branching < 2 {
            return Err(BaselineError::InvalidConfig(
                "branching must be ≥ 2 for depth > 1".into(),
            ));
        }
        // base_m must divide evenly through all levels.
        let factor = self
            .branching
            .checked_pow(self.depth.saturating_sub(1) as u32)
            .ok_or_else(|| BaselineError::InvalidConfig("branching^depth overflows".into()))?;
        if factor == 0 || !self.base_m.is_multiple_of(factor) {
            return Err(BaselineError::InvalidConfig(format!(
                "base_m {} not divisible by branching^(depth-1) = {factor}",
                self.base_m
            )));
        }
        Ok(())
    }
}

/// The `H_{b,d}` baseline: a pyramid of noisy grids glued together by
/// constrained inference, answering queries from the consistent finest
/// level.
///
/// After inference the tree is consistent (every node equals the sum of
/// its children), so answering from the finest level alone is exactly
/// equivalent to any mixed-level decomposition of the query — with the
/// accuracy benefit of the coarse observations baked into the leaf
/// values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HierarchicalGrid {
    grid: DenseGrid,
    /// The table every answer reads, built from `grid` on first use;
    /// derived data, so serialisation skips it.
    #[serde(skip)]
    sat: OnceLock<SummedAreaTable>,
    epsilon: f64,
    config: HierarchyConfig,
}

impl HierarchicalGrid {
    /// Builds the synopsis over `dataset`. Thin delegation to the
    /// uniform [`Build`] trait.
    pub fn build(
        dataset: &GeoDataset,
        config: &HierarchyConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        <HierarchicalGrid as Build>::build(dataset, config, rng)
    }
}

impl Build for HierarchicalGrid {
    type Config = HierarchyConfig;

    fn build(dataset: &GeoDataset, config: &HierarchyConfig, rng: &mut impl Rng) -> Result<Self> {
        config.validate()?;
        let d = config.depth;
        let b = config.branching;

        // Level sizes, coarsest first: base_m / b^(d-1), ..., base_m.
        let sizes: Vec<usize> = (0..d)
            .map(|i| config.base_m / b.pow((d - 1 - i) as u32))
            .collect();

        // True counts per level: count the finest, aggregate upwards.
        let finest = DenseGrid::count(dataset, config.base_m, config.base_m)?;
        let mut levels: Vec<DenseGrid> = Vec::with_capacity(d);
        for (i, &size) in sizes.iter().enumerate() {
            if i + 1 == d {
                levels.push(finest.clone());
            } else {
                let block = config.base_m / size;
                levels.push(finest.aggregate(block, block)?);
            }
        }

        // Noise each level with its share of ε.
        let epsilons = config.allocation.resolve(config.epsilon, d)?;
        for (level, &eps) in levels.iter_mut().zip(&epsilons) {
            let mech = LaplaceMechanism::for_count(eps)?;
            mech.randomize_slice(level.values_mut(), rng);
        }

        // Single level: no inference needed.
        if d == 1 {
            let grid = levels.pop().expect("one level exists");
            return Ok(HierarchicalGrid {
                grid,
                sat: OnceLock::new(),
                epsilon: config.epsilon,
                config: *config,
            });
        }

        // Build the forest: roots are the coarsest level's cells.
        let total_nodes: usize = sizes.iter().map(|s| s * s).sum();
        let mut tree = CiTree::with_capacity(total_nodes);
        // ids[level][row-major index] = node id
        let mut ids: Vec<Vec<usize>> = Vec::with_capacity(d);
        for (level, &eps) in levels.iter().zip(&epsilons) {
            let var = 2.0 / (eps * eps);
            let mut level_ids = Vec::with_capacity(level.cell_count());
            for &v in level.values() {
                level_ids.push(tree.add_node(v, var)?);
            }
            ids.push(level_ids);
        }
        for i in 0..d - 1 {
            let coarse = sizes[i];
            let fine = sizes[i + 1];
            debug_assert_eq!(fine, coarse * b);
            for r in 0..coarse {
                for c in 0..coarse {
                    let mut children = Vec::with_capacity(b * b);
                    for dr in 0..b {
                        for dc in 0..b {
                            let fc = c * b + dc;
                            let fr = r * b + dr;
                            children.push(ids[i + 1][fr * fine + fc]);
                        }
                    }
                    tree.set_children(ids[i][r * coarse + c], children)?;
                }
            }
        }
        let consistent = tree.run(&ids[0])?;

        // Extract the consistent finest level.
        let mut grid = DenseGrid::zeros(*dataset.domain(), config.base_m, config.base_m)?;
        for (cell, &id) in grid.values_mut().iter_mut().zip(ids[d - 1].iter()) {
            *cell = consistent[id];
        }
        Ok(HierarchicalGrid {
            grid,
            sat: OnceLock::new(),
            epsilon: config.epsilon,
            config: *config,
        })
    }
}

impl HierarchicalGrid {
    /// The configuration the synopsis was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The consistent finest-level grid.
    pub fn grid(&self) -> &DenseGrid {
        &self.grid
    }
}

impl Synopsis for HierarchicalGrid {
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
        let domain = Domain::from_corners(0.0, 0.0, 12.0, 12.0).unwrap();
        generators::uniform(domain, n, &mut rng(seed))
    }

    #[test]
    fn validates_config() {
        let ds = dataset(100, 0);
        for bad in [
            HierarchyConfig::new(0.0, 8, 2, 2),
            HierarchyConfig::new(1.0, 0, 2, 2),
            HierarchyConfig::new(1.0, 8, 2, 0),
            HierarchyConfig::new(1.0, 8, 1, 2),
            HierarchyConfig::new(1.0, 6, 2, 3), // 6 % 4 != 0
        ] {
            assert!(
                HierarchicalGrid::build(&ds, &bad, &mut rng(1)).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn level_sizes_match_paper_notation() {
        // H_{2,3} over 360 → levels 90, 180, 360. We verify through a
        // smaller analogue H_{2,3} over 8 → 2, 4, 8 building fine.
        let ds = dataset(500, 2);
        let h =
            HierarchicalGrid::build(&ds, &HierarchyConfig::new(1.0, 8, 2, 3), &mut rng(3)).unwrap();
        assert_eq!(h.grid().cols(), 8);
    }

    #[test]
    fn depth_one_is_flat_grid() {
        let ds = dataset(400, 4);
        let h =
            HierarchicalGrid::build(&ds, &HierarchyConfig::new(1.0, 8, 2, 1), &mut rng(5)).unwrap();
        assert_eq!(h.grid().cols(), 8);
        let q = Rect::new(0.0, 0.0, 12.0, 12.0).unwrap();
        assert!(h.answer(&q).is_finite());
    }

    #[test]
    fn huge_epsilon_recovers_exact_counts() {
        let ds = dataset(2_000, 6);
        let h =
            HierarchicalGrid::build(&ds, &HierarchyConfig::new(1e9, 8, 2, 3), &mut rng(7)).unwrap();
        let q = Rect::new(0.0, 0.0, 6.0, 6.0).unwrap();
        let truth = ds.count_in(&q) as f64;
        assert!(
            (h.answer(&q) - truth).abs() < 1e-2,
            "got {} truth {truth}",
            h.answer(&q)
        );
    }

    #[test]
    fn hierarchy_reduces_large_range_noise() {
        // On an empty dataset the whole-domain answer is pure noise;
        // with CI the root observation (one Laplace draw at ε/d) pins
        // the total far better than summing base_m² independent draws.
        let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
        let ds = GeoDataset::from_points(vec![], domain).unwrap();
        let eps = 1.0;
        let m = 16usize;
        let trials = 200;
        let mut r = rng(8);
        let mut sum_sq_h = 0.0;
        for _ in 0..trials {
            let h =
                HierarchicalGrid::build(&ds, &HierarchyConfig::new(eps, m, 4, 2), &mut r).unwrap();
            let t = h.total_estimate();
            sum_sq_h += t * t;
        }
        let std_h = (sum_sq_h / trials as f64).sqrt();
        // Flat grid at the same ε: std = √(m²·2/ε²) = m·√2. The H_{4,2}
        // coarse level has (m/4)² = 16 nodes at ε/2, so the CI-pinned
        // total has expected std ≈ √(16·2·4) ≈ 0.5·std_flat; the factor
        // 0.6 leaves ~2σ headroom for the 200-trial sample estimate.
        let std_flat = (m as f64) * std::f64::consts::SQRT_2;
        assert!(
            std_h < std_flat * 0.6,
            "hierarchy total std {std_h} vs flat {std_flat}"
        );
    }

    #[test]
    fn geometric_allocation_builds() {
        let ds = dataset(300, 9);
        let cfg = HierarchyConfig::new(1.0, 8, 2, 3).with_geometric(2f64.powf(1.0 / 3.0));
        let h = HierarchicalGrid::build(&ds, &cfg, &mut rng(10)).unwrap();
        assert!(h.total_estimate().is_finite());
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = dataset(200, 11);
        let cfg = HierarchyConfig::new(1.0, 8, 2, 2);
        let a = HierarchicalGrid::build(&ds, &cfg, &mut rng(12)).unwrap();
        let b = HierarchicalGrid::build(&ds, &cfg, &mut rng(12)).unwrap();
        assert_eq!(a.grid().values(), b.grid().values());
    }

    #[test]
    fn cells_partition_domain() {
        let ds = dataset(100, 13);
        let h = HierarchicalGrid::build(&ds, &HierarchyConfig::new(1.0, 4, 2, 2), &mut rng(14))
            .unwrap();
        let area: f64 = h.cells().iter().map(|(r, _)| r.area()).sum();
        assert!((area - 144.0).abs() < 1e-9);
    }
}
