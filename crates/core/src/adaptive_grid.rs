//! The Adaptive Grid (AG) method — §IV-B of the paper.

use std::sync::OnceLock;

use rand::Rng;
use serde::{Deserialize, Serialize};

use dpgrid_geo::{DenseGrid, Domain, GeoDataset, Rect, TwoLevelIndex, MAX_GRID_CELLS};
use dpgrid_mech::{LaplaceMechanism, PrivacyBudget};

use crate::guidelines::{self, NEstimate, DEFAULT_ALPHA, DEFAULT_C, DEFAULT_C2};
use crate::inference::two_level_inference;
use crate::noise::{CountNoise, NoiseKind};
use crate::{Build, CoreError, Result, Synopsis};

/// Configuration for [`AdaptiveGrid`].
///
/// The paper's `A_{m₁,c₂}` notation corresponds to
/// `AgConfig::guideline(epsilon).with_m1(m1).with_c2(c2)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgConfig {
    /// Total privacy budget ε.
    pub epsilon: f64,
    /// Fraction of ε spent on the first level (`α`, default 0.5).
    pub alpha: f64,
    /// Guideline-1 constant used for the `m₁` formula (default 10).
    pub c: f64,
    /// Guideline-2 constant (default `c / 2 = 5`).
    pub c2: f64,
    /// Explicit first-level grid size; `None` uses
    /// `m₁ = max(10, ¼·√(N·ε/c))`.
    pub m1: Option<usize>,
    /// Upper bound on any cell's second-level grid size (memory guard;
    /// default 1024, far above anything Guideline 2 produces on the
    /// paper's datasets).
    pub m2_cap: usize,
    /// How `N` is obtained for the `m₁` formula.
    pub n_estimate: NEstimate,
    /// Noise distribution (extension; the paper uses Laplace).
    pub noise: NoiseKind,
    /// Run the two-level constrained inference of §IV-B (on by default;
    /// the off switch exists for the `ablate` experiment).
    pub constrained_inference: bool,
    /// Partition every first-level cell into the same `m₂ × m₂` grid
    /// instead of adapting `m₂` to the noisy count (ablation of
    /// Guideline 2's adaptivity).
    pub m2_override: Option<usize>,
}

impl AgConfig {
    /// The paper's recommended configuration: `α = 0.5`, `c = 10`,
    /// `c₂ = 5`, `m₁` from the formula.
    pub fn guideline(epsilon: f64) -> Self {
        AgConfig {
            epsilon,
            alpha: DEFAULT_ALPHA,
            c: DEFAULT_C,
            c2: DEFAULT_C2,
            m1: None,
            m2_cap: 1024,
            n_estimate: NEstimate::Exact,
            noise: NoiseKind::Laplace,
            constrained_inference: true,
            m2_override: None,
        }
    }

    /// Switches the noise distribution.
    pub fn with_noise(mut self, noise: NoiseKind) -> Self {
        self.noise = noise;
        self
    }

    /// Disables constrained inference (ablation).
    pub fn without_inference(mut self) -> Self {
        self.constrained_inference = false;
        self
    }

    /// Forces a fixed second-level grid size for every cell (ablation
    /// of Guideline 2's adaptivity).
    pub fn with_fixed_m2(mut self, m2: usize) -> Self {
        self.m2_override = Some(m2);
        self
    }

    /// Overrides the first-level grid size (the paper's `A_{m₁,·}`).
    pub fn with_m1(mut self, m1: usize) -> Self {
        self.m1 = Some(m1);
        self
    }

    /// Overrides the budget split `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides the Guideline-2 constant `c₂`.
    pub fn with_c2(mut self, c2: f64) -> Self {
        self.c2 = c2;
        self
    }

    /// Switches to a noisy estimate of `N` consuming `fraction` of ε.
    pub fn with_noisy_n(mut self, fraction: f64) -> Self {
        self.n_estimate = NEstimate::Noisy { fraction };
        self
    }

    fn validate(&self) -> Result<()> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 || self.alpha >= 1.0 {
            return Err(CoreError::InvalidConfig(format!(
                "alpha must lie strictly inside (0, 1), got {}",
                self.alpha
            )));
        }
        if !self.c.is_finite() || self.c <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "c must be positive, got {}",
                self.c
            )));
        }
        if !self.c2.is_finite() || self.c2 <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "c2 must be positive, got {}",
                self.c2
            )));
        }
        if self.m1 == Some(0) {
            return Err(CoreError::InvalidConfig("m1 must be ≥ 1".into()));
        }
        if self.m2_cap == 0 {
            return Err(CoreError::InvalidConfig("m2_cap must be ≥ 1".into()));
        }
        if self.m2_override == Some(0) {
            return Err(CoreError::InvalidConfig("m2_override must be ≥ 1".into()));
        }
        self.n_estimate.validate()?;
        Ok(())
    }
}

/// One first-level cell of the adaptive grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AgCell {
    /// Second-level grid size chosen by Guideline 2.
    m2: usize,
    /// Constrained-inference-adjusted total (`v′`); equals the sum of
    /// `leaves` by construction.
    adjusted_total: f64,
    /// Consistent second-level counts of the cell's `m₂ × m₂` grid,
    /// row-major.
    leaves: Vec<f64>,
}

/// Public diagnostic view of one first-level cell (used by the parameter
/// experiments and examples).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgCellInfo {
    /// The cell's rectangle.
    pub rect: Rect,
    /// Its second-level grid size.
    pub m2: usize,
    /// Its constrained-inference-adjusted total count.
    pub adjusted_total: f64,
}

/// The **AG** synopsis: a coarse `m₁ × m₁` grid whose cells are
/// adaptively re-partitioned by their noisy density, with two-level
/// constrained inference.
///
/// * dense first-level cells get fine second-level grids (non-uniformity
///   error dominates there);
/// * sparse cells stay coarse (noise error dominates there);
/// * constrained inference merges the two observations of every cell.
///
/// Building takes two passes over the data (one per level), exactly as
/// §IV-C advertises.
///
/// A query is answered from both levels (§IV-B): the first-level totals
/// of the cells it covers plus the leaves of the cells on its rim, both
/// through one [`TwoLevelIndex`] built from the grids on first use.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveGrid {
    domain: Domain,
    epsilon: f64,
    alpha: f64,
    m1: usize,
    /// Row-major `m₁²` first-level cells.
    cells: Vec<AgCell>,
    /// The index every answer goes through, built from `cells` on first
    /// use; derived data, so serialisation skips it.
    #[serde(skip)]
    index: OnceLock<TwoLevelIndex>,
}

/// Checks that the cells are the grids every answer reads: `m₁²`
/// first-level cells, each with `m₂²` leaves, `m₁` and every `m₂` at
/// least 1. JSON that disagrees fails here, not at the first answer.
impl Deserialize for AdaptiveGrid {
    fn deserialize_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        const TY: &str = "AdaptiveGrid";
        let obj = (v.as_obj()).ok_or_else(|| serde::Error::msg("AdaptiveGrid: not an object"))?;
        let m1: usize = serde::field(obj, "m1", TY)?;
        let cells: Vec<AgCell> = serde::field(obj, "cells", TY)?;
        let square = |m: usize, len: usize| m > 0 && m.checked_mul(m) == Some(len);
        if !square(m1, cells.len()) || !cells.iter().all(|c| square(c.m2, c.leaves.len())) {
            let shape = format!("{TY}: cells are not a {m1} × {m1} grid of m2 × m2 leaf grids");
            return Err(serde::Error::msg(shape));
        }
        Ok(AdaptiveGrid {
            domain: serde::field(obj, "domain", TY)?,
            epsilon: serde::field(obj, "epsilon", TY)?,
            alpha: serde::field(obj, "alpha", TY)?,
            m1,
            cells,
            index: OnceLock::new(),
        })
    }
}

impl AdaptiveGrid {
    /// Builds the synopsis over `dataset` with the given configuration.
    /// Thin delegation to the uniform [`Build`] trait.
    pub fn build(dataset: &GeoDataset, config: &AgConfig, rng: &mut impl Rng) -> Result<Self> {
        <AdaptiveGrid as Build>::build(dataset, config, rng)
    }
}

impl Build for AdaptiveGrid {
    type Config = AgConfig;

    fn build(dataset: &GeoDataset, config: &AgConfig, rng: &mut impl Rng) -> Result<Self> {
        config.validate()?;
        let mut budget = PrivacyBudget::new(config.epsilon)?;
        let domain = *dataset.domain();

        // Optional noisy-N step, and the share of ε it takes.
        let (n, n_share) = match config.n_estimate {
            NEstimate::Exact => (dataset.len() as f64, 0.0),
            NEstimate::Noisy { fraction } => {
                let eps_n = budget.spend_fraction(fraction)?;
                let mech = LaplaceMechanism::for_count(eps_n)?;
                (mech.randomize(dataset.len() as f64, rng).max(0.0), fraction)
            }
        };

        // First-level size: explicit override or the paper's formula.
        let m1 = match config.m1 {
            Some(m) => m,
            None => guidelines::suggested_m1(n.round() as usize, config.epsilon, config.c),
        };

        // Level-1: count, then noise with α·ε.
        let eps_l1 = budget.spend_fraction(config.alpha)?;
        let level1 = DenseGrid::count(dataset, m1, m1)?;
        let noise_l1 = CountNoise::new(config.noise, eps_l1)?;
        let noisy_l1: Vec<f64> = level1
            .values()
            .iter()
            .map(|&v| noise_l1.randomize(v, rng))
            .collect();

        // Level-2 sizes via Guideline 2 on the *noisy* counts.
        let eps_l2 = budget.spend_all();
        if eps_l2 <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "no budget left for the second level".into(),
            ));
        }
        let m2s: Vec<usize> = match config.m2_override {
            Some(m2) => vec![m2.min(config.m2_cap); noisy_l1.len()],
            None => noisy_l1
                .iter()
                .map(|&v| guidelines::guideline2(v, eps_l2, config.c2).min(config.m2_cap))
                .collect(),
        };
        let total_leaves: usize = m2s.iter().map(|m| m * m).sum();
        if total_leaves > MAX_GRID_CELLS {
            return Err(CoreError::InvalidConfig(format!(
                "AG would allocate {total_leaves} leaf cells (cap {MAX_GRID_CELLS}); \
                 raise c2 or lower m1"
            )));
        }

        // Second pass: count points into their leaf cells.
        let mut leaf_counts: Vec<Vec<f64>> = m2s.iter().map(|m| vec![0.0; m * m]).collect();
        let d = domain.rect();
        for p in dataset.points() {
            let (c1, r1) = domain
                .cell_of(p, m1, m1)
                .expect("dataset point outside its own domain");
            let idx = r1 * m1 + c1;
            let m2 = m2s[idx];
            // Cell-local continuous coordinates in [0, m2).
            let u = ((p.x - d.x0()) / d.width() * m1 as f64 - c1 as f64) * m2 as f64;
            let v = ((p.y - d.y0()) / d.height() * m1 as f64 - r1 as f64) * m2 as f64;
            let c2 = (u.max(0.0) as usize).min(m2 - 1);
            let r2 = (v.max(0.0) as usize).min(m2 - 1);
            leaf_counts[idx][r2 * m2 + c2] += 1.0;
        }

        // Noise the leaves with what is left, (1−α−f)·ε after a noisy-N
        // share f, then run constrained inference. It weighs the two
        // observations by the split the levels actually got: α/(1−f),
        // which is α under exact N.
        let noise_l2 = CountNoise::new(config.noise, eps_l2)?;
        let split = config.alpha / (1.0 - n_share);
        let mut cells = Vec::with_capacity(m1 * m1);
        for ((mut leaves, m2), v) in leaf_counts.into_iter().zip(m2s).zip(noisy_l1) {
            noise_l2.randomize_slice(&mut leaves, rng);
            let adjusted_total = if config.constrained_inference {
                two_level_inference(v, split, &mut leaves).adjusted_total
            } else {
                // Ablation: ignore the first-level observation when
                // answering; leaves stand alone and the cell total is
                // their raw sum (keeping interior answering consistent
                // with border answering).
                leaves.iter().sum()
            };
            cells.push(AgCell {
                m2,
                adjusted_total,
                leaves,
            });
        }
        Ok(AdaptiveGrid {
            domain,
            epsilon: config.epsilon,
            alpha: config.alpha,
            m1,
            cells,
            index: OnceLock::new(),
        })
    }
}

impl AdaptiveGrid {
    /// The first-level grid size `m₁`.
    #[inline]
    pub fn m1(&self) -> usize {
        self.m1
    }

    /// The budget split `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Total number of leaf cells across all first-level cells.
    pub fn leaf_count(&self) -> usize {
        self.cells.iter().map(|c| c.m2 * c.m2).sum()
    }

    /// Diagnostic view of first-level cell `(col, row)`.
    pub fn cell_info(&self, col: usize, row: usize) -> Option<AgCellInfo> {
        if col >= self.m1 || row >= self.m1 {
            return None;
        }
        let cell = &self.cells[row * self.m1 + col];
        Some(AgCellInfo {
            rect: self.domain.cell_rect(self.m1, self.m1, col, row),
            m2: cell.m2,
            adjusted_total: cell.adjusted_total,
        })
    }

    /// Diagnostic view of every first-level cell, row-major.
    pub fn cells_info(&self) -> Vec<AgCellInfo> {
        (0..self.m1 * self.m1)
            .map(|i| self.cell_info(i % self.m1, i / self.m1).unwrap())
            .collect()
    }
}

impl Synopsis for AdaptiveGrid {
    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn answer(&self, query: &Rect) -> f64 {
        let Some(q) = self.domain.clip(query) else {
            return 0.0;
        };
        let index = self.index.get_or_init(|| {
            let grid = |i: usize| (self.cells[i].m2, &self.cells[i].leaves[..]);
            TwoLevelIndex::from_nested_grids(self.domain.rect(), self.m1, grid)
                .expect("every first-level cell holds its m2 × m2 leaves")
        });
        index.answer(&q)
    }

    fn cells(&self) -> Vec<(Rect, f64)> {
        let mut out = Vec::with_capacity(self.leaf_count());
        for (i, cell) in self.cells.iter().enumerate() {
            let parent = self
                .domain
                .cell_rect(self.m1, self.m1, i % self.m1, i / self.m1);
            let m2 = cell.m2;
            out.extend(
                (cell.leaves.iter().enumerate())
                    .map(|(j, &v)| (parent.grid_cell(m2, m2, j % m2, j / m2), v)),
            );
        }
        out
    }

    /// The sum of the adjusted totals, each its leaves' sum by the
    /// constrained-inference invariant.
    fn total_estimate(&self) -> f64 {
        self.cells.iter().map(|c| c.adjusted_total).sum()
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

    fn uniform_dataset(n: usize, seed: u64) -> GeoDataset {
        let domain = Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap();
        generators::uniform(domain, n, &mut rng(seed))
    }

    #[test]
    fn config_validation() {
        let ds = uniform_dataset(100, 0);
        for bad in [
            AgConfig::guideline(0.0),
            AgConfig::guideline(1.0).with_alpha(0.0),
            AgConfig::guideline(1.0).with_alpha(1.0),
            AgConfig::guideline(1.0).with_c2(0.0),
            AgConfig::guideline(1.0).with_m1(0),
        ] {
            assert!(
                AdaptiveGrid::build(&ds, &bad, &mut rng(1)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn m1_defaults_to_formula() {
        let ds = uniform_dataset(4_000, 1);
        let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(2)).unwrap();
        // max(10, √(4000/10)/4) = max(10, 5) = 10.
        assert_eq!(ag.m1(), 10);
        let ag2 =
            AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0).with_m1(16), &mut rng(2)).unwrap();
        assert_eq!(ag2.m1(), 16);
    }

    #[test]
    fn dense_cells_get_finer_partitions() {
        // All mass in one corner: that corner's m2 must exceed the empty
        // corner's.
        let domain = Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap();
        let mut points = Vec::new();
        let mut r = rng(3);
        for _ in 0..20_000 {
            points.push(Point::new(
                rand::Rng::random_range(&mut r, 0.0..2.0),
                rand::Rng::random_range(&mut r, 0.0..2.0),
            ));
        }
        let ds = GeoDataset::from_points(points, domain).unwrap();
        let ag =
            AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0).with_m1(5), &mut rng(4)).unwrap();
        let dense = ag.cell_info(0, 0).unwrap();
        let empty = ag.cell_info(4, 4).unwrap();
        assert!(
            dense.m2 > empty.m2,
            "dense m2 {} should exceed empty m2 {}",
            dense.m2,
            empty.m2
        );
        assert!(dense.adjusted_total > 1_000.0);
        assert!(empty.adjusted_total < 100.0);
    }

    #[test]
    fn consistency_total_matches_cells() {
        let ds = uniform_dataset(2_000, 5);
        let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(6)).unwrap();
        // Σ leaves == Σ adjusted totals (constrained inference).
        let leaf_total: f64 = ag.cells().iter().map(|(_, v)| v).sum();
        let cell_total: f64 = ag.cells_info().iter().map(|c| c.adjusted_total).sum();
        assert!((leaf_total - cell_total).abs() < 1e-6);
        // And the whole-domain query answers the same number.
        let whole = *ds.domain().rect();
        assert!((ag.answer(&whole) - leaf_total).abs() < 1e-6);
    }

    #[test]
    fn huge_epsilon_recovers_exact_counts() {
        let ds = uniform_dataset(3_000, 7);
        let mut cfg = AgConfig::guideline(1e9).with_m1(8);
        // Keep the leaf allocation small: at ε = 10⁹ Guideline 2 would
        // otherwise ask for gigantic second-level grids.
        cfg.m2_cap = 16;
        let ag = AdaptiveGrid::build(&ds, &cfg, &mut rng(8)).unwrap();
        for q in [
            Rect::new(0.0, 0.0, 5.0, 5.0).unwrap(),
            Rect::new(1.25, 2.5, 8.75, 9.0).unwrap(),
            Rect::new(0.3, 0.3, 0.4, 0.4).unwrap(),
        ] {
            let truth = ds.count_in(&q) as f64;
            let got = ag.answer(&q);
            // Sub-cell queries keep a small uniformity error even without
            // noise; cell-aligned ones are exact.
            assert!(
                (got - truth).abs() < truth.max(30.0) * 0.25 + 1e-6,
                "query {q:?}: got {got}, truth {truth}"
            );
        }
        let aligned = Rect::new(0.0, 0.0, 5.0, 5.0).unwrap();
        assert!((ag.answer(&aligned) - ds.count_in(&aligned) as f64).abs() < 1e-3);
    }

    #[test]
    fn answer_matches_bruteforce_over_leaves() {
        // The interior/border decomposition must agree with summing every
        // leaf's fractional overlap.
        let ds = uniform_dataset(1_000, 9);
        let ag =
            AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0).with_m1(6), &mut rng(10)).unwrap();
        let queries = [
            Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(),
            Rect::new(0.7, 1.3, 9.2, 8.8).unwrap(),
            Rect::new(2.0, 2.0, 4.0, 4.0).unwrap(),
            Rect::new(0.05, 0.05, 0.15, 9.95).unwrap(),
            Rect::new(3.33, 0.0, 3.34, 10.0).unwrap(),
        ];
        for q in queries {
            let brute: f64 = ag
                .cells()
                .iter()
                .map(|(rect, v)| v * rect.overlap_fraction(&q))
                .sum();
            let fast = ag.answer(&q);
            assert!(
                (fast - brute).abs() < 1e-6,
                "query {q:?}: fast {fast} vs brute {brute}"
            );
        }
    }

    #[test]
    fn leaves_partition_domain() {
        let ds = uniform_dataset(500, 11);
        let ag =
            AdaptiveGrid::build(&ds, &AgConfig::guideline(0.5).with_m1(4), &mut rng(12)).unwrap();
        let area: f64 = ag.cells().iter().map(|(r, _)| r.area()).sum();
        assert!((area - ds.domain().area()).abs() < 1e-6);
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = uniform_dataset(800, 13);
        let a = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(42)).unwrap();
        let b = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(42)).unwrap();
        let q = Rect::new(1.0, 1.0, 6.0, 7.0).unwrap();
        assert_eq!(a.answer(&q), b.answer(&q));
    }

    #[test]
    fn misses_domain_answers_zero() {
        let ds = uniform_dataset(100, 14);
        let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(15)).unwrap();
        let q = Rect::new(100.0, 100.0, 200.0, 200.0).unwrap();
        assert_eq!(ag.answer(&q), 0.0);
    }

    #[test]
    fn m2_cap_respected() {
        let ds = uniform_dataset(50_000, 16);
        let mut cfg = AgConfig::guideline(1.0).with_m1(2);
        cfg.m2_cap = 3;
        let ag = AdaptiveGrid::build(&ds, &cfg, &mut rng(17)).unwrap();
        for info in ag.cells_info() {
            assert!(info.m2 <= 3);
        }
    }

    #[test]
    fn serde_roundtrip_preserves_answers() {
        let ds = uniform_dataset(400, 18);
        let ag =
            AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0).with_m1(5), &mut rng(19)).unwrap();
        let json = serde_json::to_string(&ag).unwrap();
        let back: AdaptiveGrid = serde_json::from_str(&json).unwrap();
        let q = Rect::new(0.5, 2.0, 7.7, 9.1).unwrap();
        assert!((back.answer(&q) - ag.answer(&q)).abs() < 1e-12);
    }

    #[test]
    fn json_that_disagrees_with_its_grids_fails_to_load() {
        let ds = dpgrid_geo::generators::PaperDataset::Storage
            .generate_n(1, 2_000)
            .unwrap();
        let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(2)).unwrap();
        let json = serde_json::to_string(&ag).unwrap();
        assert!(json.ends_with("]}]}"), "the cells close the object");
        let last_cell = json.rfind(",{\"m2\":").expect("more than one cell");
        let edits = [
            json.replacen("\"m2\":1,", "\"m2\":2,", 1),
            format!("{}]}}", &json[..last_cell]),
            json.replacen(&format!("\"m1\":{},", ag.m1()), "\"m1\":0,", 1),
        ];
        for edited in edits {
            assert_ne!(edited, json);
            let err = serde_json::from_str::<AdaptiveGrid>(&edited).unwrap_err();
            assert!(err.to_string().contains("AdaptiveGrid"), "{err}");
        }
    }

    #[test]
    fn without_inference_still_consistent_for_answering() {
        let ds = uniform_dataset(2_000, 30);
        let cfg = AgConfig::guideline(1.0).with_m1(5).without_inference();
        let ag = AdaptiveGrid::build(&ds, &cfg, &mut rng(31)).unwrap();
        // Interior totals equal leaf sums even without CI.
        let whole = *ds.domain().rect();
        let leaf_total: f64 = ag.cells().iter().map(|(_, v)| v).sum();
        assert!((ag.answer(&whole) - leaf_total).abs() < 1e-6);
        // And CI actually changes the release.
        let with_ci =
            AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0).with_m1(5), &mut rng(31)).unwrap();
        let q = Rect::new(1.0, 1.0, 7.0, 9.0).unwrap();
        assert_ne!(ag.answer(&q), with_ci.answer(&q));
    }

    #[test]
    fn inference_reduces_error_statistically() {
        // The ablation direction: on repeated builds, AG with CI has a
        // lower mean absolute error on a mid-size query than without.
        let ds = uniform_dataset(5_000, 32);
        let q = Rect::new(0.5, 0.5, 6.5, 8.0).unwrap();
        let truth = ds.count_in(&q) as f64;
        let (mut err_ci, mut err_raw) = (0.0, 0.0);
        for seed in 0..60 {
            let base = AgConfig::guideline(0.2).with_m1(6);
            let a = AdaptiveGrid::build(&ds, &base, &mut rng(seed)).unwrap();
            err_ci += (a.answer(&q) - truth).abs();
            let b = AdaptiveGrid::build(&ds, &base.without_inference(), &mut rng(seed)).unwrap();
            err_raw += (b.answer(&q) - truth).abs();
        }
        assert!(
            err_ci < err_raw,
            "CI total error {err_ci} should beat raw {err_raw}"
        );
    }

    #[test]
    fn fixed_m2_override_applies_everywhere() {
        let ds = uniform_dataset(3_000, 33);
        let cfg = AgConfig::guideline(1.0).with_m1(4).with_fixed_m2(3);
        let ag = AdaptiveGrid::build(&ds, &cfg, &mut rng(34)).unwrap();
        for info in ag.cells_info() {
            assert_eq!(info.m2, 3);
        }
        assert_eq!(ag.leaf_count(), 4 * 4 * 9);
        // Zero override rejected.
        let bad = AgConfig::guideline(1.0).with_fixed_m2(0);
        assert!(AdaptiveGrid::build(&ds, &bad, &mut rng(35)).is_err());
    }

    #[test]
    fn geometric_noise_without_ci_keeps_integers() {
        let ds = uniform_dataset(1_000, 36);
        let cfg = AgConfig::guideline(1.0)
            .with_m1(4)
            .with_noise(crate::NoiseKind::Geometric)
            .without_inference();
        let ag = AdaptiveGrid::build(&ds, &cfg, &mut rng(37)).unwrap();
        for (_, v) in ag.cells() {
            assert_eq!(v, v.round(), "geometric AG leaves must be integral");
        }
    }

    #[test]
    fn noisy_n_inference_weights_the_levels_by_their_real_split() {
        // With a noisy-N share f = 0.4 at α = 0.5, level 1 gets 0.5·ε and
        // level 2 only 0.1·ε. One cell with one leaf: weighting the two
        // observations by their real split leaves variance
        // 1/(1/8 + 1/200) ≈ 7.7; weighting them as if α : 1−α were the
        // split averages them, for (8 + 200)/4 = 52.
        let ds = uniform_dataset(1_000, 40);
        let cfg = AgConfig::guideline(1.0)
            .with_m1(1)
            .with_fixed_m2(1)
            .with_noisy_n(0.4);
        let whole = *ds.domain().rect();
        let seeds = 0..2_000u64;
        let mse = seeds.clone().fold(0.0, |acc, seed| {
            let ag = AdaptiveGrid::build(&ds, &cfg, &mut rng(seed)).unwrap();
            acc + (ag.answer(&whole) - 1_000.0).powi(2)
        }) / seeds.count() as f64;
        assert!(mse < 20.0, "whole-domain MSE {mse}");
    }

    #[test]
    fn alpha_range_produces_similar_m1() {
        // α only affects budgets, not m1 selection.
        let ds = uniform_dataset(10_000, 20);
        for alpha in [0.25, 0.5, 0.75] {
            let ag = AdaptiveGrid::build(
                &ds,
                &AgConfig::guideline(1.0).with_alpha(alpha),
                &mut rng(21),
            )
            .unwrap();
            assert_eq!(ag.m1(), 10);
        }
    }
}
