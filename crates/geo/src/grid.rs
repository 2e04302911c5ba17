//! Dense 2-D histograms over a domain.

use serde::{Deserialize, Serialize};

use crate::{Domain, GeoDataset, GeoError, Rect, Result, SummedAreaTable};

/// Cap on the number of cells a single grid may hold (2²⁴ ≈ 16.7 M cells,
/// 128 MiB of `f64`). The paper's largest grids are ~786² ≈ 0.6 M cells;
/// the cap exists to turn runaway parameter choices into errors instead of
/// out-of-memory aborts.
pub const MAX_GRID_CELLS: usize = 1 << 24;

/// A dense `cols × rows` matrix of `f64` cell values laid over a [`Domain`].
///
/// This is the workhorse histogram of the workspace:
///
/// * counting data points into equi-width cells (a single pass, exactly as
///   the paper describes for UG);
/// * holding noisy counts after a mechanism has been applied;
/// * serving as the frequency matrix consumed by the baselines (KD-trees,
///   hierarchies, wavelets).
///
/// Values are stored row-major (`row * cols + col`). Cell `(0, 0)` is the
/// lower-left corner of the domain.
#[derive(Debug, Clone, Serialize)]
pub struct DenseGrid {
    domain: Domain,
    cols: usize,
    rows: usize,
    data: Vec<f64>,
}

/// Checks what [`DenseGrid::zeros`] checks, and that `data` holds one
/// value per cell: a grid read from JSON answers through a summed-area
/// table, which needs exactly that.
impl Deserialize for DenseGrid {
    fn deserialize_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        const TY: &str = "DenseGrid";
        let obj = (v.as_obj()).ok_or_else(|| serde::Error::msg("DenseGrid: not an object"))?;
        let cols: usize = serde::field(obj, "cols", TY)?;
        let rows: usize = serde::field(obj, "rows", TY)?;
        let data: Vec<f64> = serde::field(obj, "data", TY)?;
        let cells = (cols.checked_mul(rows)).filter(|&n| n > 0 && n <= MAX_GRID_CELLS);
        if cells != Some(data.len()) {
            let shape = format!("{TY}: {} values for {cols} × {rows} cells", data.len());
            return Err(serde::Error::msg(shape));
        }
        let domain = serde::field(obj, "domain", TY)?;
        Ok(DenseGrid {
            domain,
            cols,
            rows,
            data,
        })
    }
}

impl DenseGrid {
    /// Creates an all-zero grid.
    pub fn zeros(domain: Domain, cols: usize, rows: usize) -> Result<Self> {
        if cols == 0 || rows == 0 {
            return Err(GeoError::ZeroGridSize);
        }
        let cells = cols.checked_mul(rows).ok_or(GeoError::GridTooLarge {
            requested: usize::MAX,
            max: MAX_GRID_CELLS,
        })?;
        if cells > MAX_GRID_CELLS {
            return Err(GeoError::GridTooLarge {
                requested: cells,
                max: MAX_GRID_CELLS,
            });
        }
        Ok(DenseGrid {
            domain,
            cols,
            rows,
            data: vec![0.0; cells],
        })
    }

    /// Counts the dataset's points into a `cols × rows` grid — one pass
    /// over the data, incrementing one cell per point.
    pub fn count(dataset: &GeoDataset, cols: usize, rows: usize) -> Result<Self> {
        let mut g = DenseGrid::zeros(*dataset.domain(), cols, rows)?;
        for p in dataset.points() {
            // Points are validated to lie in the domain at dataset
            // construction, so `cell_of` cannot fail here.
            if let Some((c, r)) = g.domain.cell_of(p, cols, rows) {
                g.data[r * cols + c] += 1.0;
            }
        }
        Ok(g)
    }

    /// Builds a grid by evaluating `f(col, row)` for every cell.
    pub fn from_fn(
        domain: Domain,
        cols: usize,
        rows: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self> {
        let mut g = DenseGrid::zeros(domain, cols, rows)?;
        for r in 0..rows {
            for c in 0..cols {
                g.data[r * cols + c] = f(c, r);
            }
        }
        Ok(g)
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.data.len()
    }

    /// The domain the grid covers.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Value of cell `(col, row)`.
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> f64 {
        debug_assert!(col < self.cols && row < self.rows);
        self.data[row * self.cols + col]
    }

    /// Sets cell `(col, row)`.
    #[inline]
    pub fn set(&mut self, col: usize, row: usize, value: f64) {
        debug_assert!(col < self.cols && row < self.rows);
        self.data[row * self.cols + col] = value;
    }

    /// Adds `delta` to cell `(col, row)`.
    #[inline]
    pub fn add(&mut self, col: usize, row: usize, delta: f64) {
        debug_assert!(col < self.cols && row < self.rows);
        self.data[row * self.cols + col] += delta;
    }

    /// Raw row-major cell values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major cell values.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Applies `f` to every cell value in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Sum of all cell values.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Rectangle of cell `(col, row)`.
    #[inline]
    pub fn cell_rect(&self, col: usize, row: usize) -> Rect {
        self.domain.cell_rect(self.cols, self.rows, col, row)
    }

    /// Iterates over `(col, row, cell_rect, value)` for every cell.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, Rect, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (0..self.cols).map(move |c| (c, r, self.cell_rect(c, r), self.get(c, r)))
        })
    }

    /// Builds the summed-area table of this grid.
    pub fn sat(&self) -> SummedAreaTable {
        SummedAreaTable::new(self.cols, self.rows, &self.data)
    }

    /// Aggregates `bx × by` blocks of cells into a coarser grid
    /// (`cols` must be divisible by `bx` and `rows` by `by`).
    ///
    /// Used to build the upper levels of hierarchical baselines.
    pub fn aggregate(&self, bx: usize, by: usize) -> Result<DenseGrid> {
        if bx == 0 || by == 0 {
            return Err(GeoError::ZeroGridSize);
        }
        if !self.cols.is_multiple_of(bx) || !self.rows.is_multiple_of(by) {
            return Err(GeoError::InvalidGeneratorSpec(format!(
                "grid {}x{} not divisible by block {}x{}",
                self.cols, self.rows, bx, by
            )));
        }
        let mut out = DenseGrid::zeros(self.domain, self.cols / bx, self.rows / by)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.add(c / bx, r / by, self.get(c, r));
            }
        }
        Ok(out)
    }

    /// Answers a rectangle count query from the cell values under the
    /// uniformity assumption, in O(1) via the provided summed-area table.
    ///
    /// Fully covered cells contribute their whole value; partially covered
    /// cells contribute `value × overlap_fraction`. This is exactly the
    /// query semantics of §II-B of the paper. Each query edge is located
    /// arithmetically (the cells are equi-width) and the table's
    /// [`SummedAreaTable::mass`] sums the rest. The `sat` must have been
    /// built from this grid (debug-asserted via shape).
    pub fn answer_uniform(&self, sat: &SummedAreaTable, query: &Rect) -> f64 {
        debug_assert_eq!(sat.cols(), self.cols);
        debug_assert_eq!(sat.rows(), self.rows);
        let Some(q) = self.domain.clip(query) else {
            return 0.0;
        };
        let d = self.domain.rect();
        // Continuous cell coordinates of the query edges.
        let u = |x: f64| (x - d.x0()) / d.width() * self.cols as f64;
        let v = |y: f64| (y - d.y0()) / d.height() * self.rows as f64;
        sat.mass(
            [locate(u(q.x0()), self.cols), locate(u(q.x1()), self.cols)],
            [locate(v(q.y0()), self.rows), locate(v(q.y1()), self.rows)],
        )
    }
}

/// Locates the continuous cell coordinate `u`, clamped to `[0, n]`, as
/// `(cell, fraction)` for [`SummedAreaTable::mass`]: the cell holding it
/// (the last one for `u = n`) and how far across that cell it lies.
fn locate(u: f64, n: usize) -> (usize, f64) {
    let u = u.clamp(0.0, n as f64);
    let cell = (u as usize).min(n - 1);
    (cell, u - cell as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn toy_dataset() -> GeoDataset {
        let domain = Domain::from_corners(0.0, 0.0, 4.0, 4.0).unwrap();
        let points = vec![
            Point::new(0.5, 0.5),
            Point::new(1.5, 0.5),
            Point::new(0.5, 1.5),
            Point::new(3.5, 3.5),
            Point::new(4.0, 4.0), // closed upper corner -> cell (3,3)
        ];
        GeoDataset::from_points(points, domain).unwrap()
    }

    #[test]
    fn count_places_points() {
        let g = DenseGrid::count(&toy_dataset(), 4, 4).unwrap();
        assert_eq!(g.get(0, 0), 1.0);
        assert_eq!(g.get(1, 0), 1.0);
        assert_eq!(g.get(0, 1), 1.0);
        assert_eq!(g.get(3, 3), 2.0);
        assert_eq!(g.total(), 5.0);
    }

    #[test]
    fn zero_size_rejected() {
        let d = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!(DenseGrid::zeros(d, 0, 4).is_err());
        assert!(DenseGrid::zeros(d, 4, 0).is_err());
    }

    #[test]
    fn oversize_rejected() {
        let d = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!(matches!(
            DenseGrid::zeros(d, 1 << 13, 1 << 13),
            Err(GeoError::GridTooLarge { .. })
        ));
    }

    #[test]
    fn aggregate_sums_blocks() {
        let g = DenseGrid::count(&toy_dataset(), 4, 4).unwrap();
        let a = g.aggregate(2, 2).unwrap();
        assert_eq!(a.cols(), 2);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(1, 1), 2.0);
        assert_eq!(a.total(), g.total());
        assert!(g.aggregate(3, 2).is_err());
    }

    #[test]
    fn answer_uniform_exact_on_aligned_queries() {
        let g = DenseGrid::count(&toy_dataset(), 4, 4).unwrap();
        let sat = g.sat();
        // Whole domain.
        let q = Rect::new(0.0, 0.0, 4.0, 4.0).unwrap();
        assert!((g.answer_uniform(&sat, &q) - 5.0).abs() < 1e-9);
        // Aligned lower-left quadrant.
        let q = Rect::new(0.0, 0.0, 2.0, 2.0).unwrap();
        assert!((g.answer_uniform(&sat, &q) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn answer_uniform_fractional_cells() {
        // One point in each of the 4 cells of a 2x2 grid; a query covering
        // the middle quarter of the domain overlaps a quarter of each cell.
        let domain = Domain::from_corners(0.0, 0.0, 2.0, 2.0).unwrap();
        let points = vec![
            Point::new(0.5, 0.5),
            Point::new(1.5, 0.5),
            Point::new(0.5, 1.5),
            Point::new(1.5, 1.5),
        ];
        let ds = GeoDataset::from_points(points, domain).unwrap();
        let g = DenseGrid::count(&ds, 2, 2).unwrap();
        let sat = g.sat();
        let q = Rect::new(0.5, 0.5, 1.5, 1.5).unwrap();
        assert!((g.answer_uniform(&sat, &q) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn answer_uniform_subcell_query() {
        // Query inside a single cell gets the area fraction of that cell.
        let domain = Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap();
        let ds = GeoDataset::from_points(vec![Point::new(2.0, 2.0)], domain).unwrap();
        let g = DenseGrid::count(&ds, 2, 2).unwrap(); // cell = 5x5, count 1 in (0,0)
        let sat = g.sat();
        let q = Rect::new(0.0, 0.0, 2.5, 5.0).unwrap(); // half of cell (0,0)
        assert!((g.answer_uniform(&sat, &q) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn answer_uniform_clips_to_domain() {
        let g = DenseGrid::count(&toy_dataset(), 4, 4).unwrap();
        let sat = g.sat();
        let q = Rect::new(-100.0, -100.0, 100.0, 100.0).unwrap();
        assert!((g.answer_uniform(&sat, &q) - 5.0).abs() < 1e-9);
        let miss = Rect::new(50.0, 50.0, 60.0, 60.0).unwrap();
        assert_eq!(g.answer_uniform(&sat, &miss), 0.0);
    }

    #[test]
    fn answer_uniform_matches_bruteforce() {
        // Cross-check the located-edge kernel against a per-cell loop.
        let domain = Domain::from_corners(0.0, 0.0, 7.0, 5.0).unwrap();
        let g = DenseGrid::from_fn(domain, 7, 5, |c, r| ((c * 31 + r * 17) % 11) as f64).unwrap();
        let sat = g.sat();
        let queries = [
            Rect::new(0.3, 0.3, 6.9, 4.7).unwrap(),
            Rect::new(1.0, 1.0, 2.0, 2.0).unwrap(),
            Rect::new(0.1, 0.1, 0.2, 4.9).unwrap(),
            Rect::new(2.5, 0.5, 3.5, 1.5).unwrap(),
            Rect::new(6.5, 4.5, 7.0, 5.0).unwrap(),
        ];
        for q in queries {
            let mut brute = 0.0;
            for (_, _, cell, v) in g.iter_cells() {
                brute += v * cell.overlap_fraction(&q);
            }
            let fast = g.answer_uniform(&sat, &q);
            assert!(
                (fast - brute).abs() < 1e-9,
                "query {q:?}: fast={fast} brute={brute}"
            );
        }
    }

    #[test]
    fn located_edges_reconstruct_the_clipped_interval() {
        for &(u0, u1, n) in &[
            (0.0, 4.0, 4usize),
            (0.2, 3.7, 4),
            (1.1, 1.9, 4),
            (0.0, 0.5, 4),
            (3.5, 4.0, 4),
            (2.0, 3.0, 4),
            (-1.0, 9.0, 4),
        ] {
            let [(i0, f0), (i1, f1)] = [locate(u0, n), locate(u1, n)];
            assert!(i0 <= i1 && i1 < n, "({u0},{u1},{n}): cells {i0}, {i1}");
            assert!((0.0..=1.0).contains(&f0) && (0.0..=1.0).contains(&f1));
            let covered = (i1 as f64 + f1) - (i0 as f64 + f0);
            let expect = u1.min(n as f64) - u0.max(0.0);
            assert!(
                (covered - expect).abs() < 1e-9,
                "({u0},{u1},{n}): covered {covered}"
            );
        }
    }

    #[test]
    fn serde_roundtrip() {
        let g = DenseGrid::count(&toy_dataset(), 4, 4).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: DenseGrid = serde_json::from_str(&json).unwrap();
        assert_eq!(back.values(), g.values());
        assert_eq!(back.domain(), g.domain());
    }

    #[test]
    fn json_whose_data_disagrees_with_its_shape_fails_to_load() {
        let json = serde_json::to_string(&DenseGrid::count(&toy_dataset(), 4, 4).unwrap()).unwrap();
        for (from, to) in [
            ("\"cols\":4", "\"cols\":5"),
            ("\"rows\":4", "\"rows\":0"),
            ("\"cols\":4", "\"cols\":0"),
            ("\"cols\":4", "\"cols\":1e9"),
            ("[1,1,0,0,", "["),
        ] {
            assert_eq!(json.matches(from).count(), 1, "fixture lacks {from}");
            let edited = json.replacen(from, to, 1);
            let err = serde_json::from_str::<DenseGrid>(&edited).unwrap_err();
            assert!(
                err.to_string().contains("DenseGrid"),
                "{from} -> {to}: {err}"
            );
        }
    }
}
