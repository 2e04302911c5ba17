//! Summed-area tables (2-D prefix sums).

use serde::{Deserialize, Serialize};

/// A summed-area table over a [`crate::DenseGrid`].
///
/// Stores `(cols + 1) × (rows + 1)` prefix sums so any axis-aligned block
/// of cells can be summed in O(1). This is the backbone of query answering
/// for every grid-based synopsis: [`SummedAreaTable::mass`] answers a
/// rectangle under the uniformity assumption from the 16 entries around
/// the four cells its corners fall in, whatever its size.
///
/// Sums are accumulated in `f64`. For the cell counts and grid sizes used
/// in this workspace (≤ 2²⁴ cells, counts ≤ 10⁷) the rounding error is
/// far below the noise the privacy mechanisms add.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummedAreaTable {
    cols: usize,
    rows: usize,
    /// `(cols + 1) * (rows + 1)` row-major prefix sums; entry `(c, r)`
    /// holds the sum of all cells with column `< c` and row `< r`.
    prefix: Vec<f64>,
}

impl SummedAreaTable {
    /// Builds the prefix-sum table of `cols × rows` row-major `values`
    /// (a grid's are [`crate::DenseGrid::sat`]'s).
    pub fn new(cols: usize, rows: usize, values: &[f64]) -> Self {
        assert_eq!(values.len(), cols * rows, "values must be cols × rows");
        let stride = cols + 1;
        let mut prefix = vec![0.0f64; stride * (rows + 1)];
        for r in 0..rows {
            let mut row_acc = 0.0;
            for c in 0..cols {
                row_acc += values[r * cols + c];
                // prefix[(r+1), (c+1)] = prefix[r][c+1] + running row sum
                prefix[(r + 1) * stride + (c + 1)] = prefix[r * stride + (c + 1)] + row_acc;
            }
        }
        SummedAreaTable { cols, rows, prefix }
    }

    /// Number of grid columns covered.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of grid rows covered.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Sum of the half-open cell block `cols [c0, c1) × rows [r0, r1)`.
    ///
    /// Out-of-range bounds are clamped; empty ranges yield `0.0`.
    #[inline]
    pub fn sum(&self, c0: usize, r0: usize, c1: usize, r1: usize) -> f64 {
        let c0 = c0.min(self.cols);
        let c1 = c1.min(self.cols);
        let r0 = r0.min(self.rows);
        let r1 = r1.min(self.rows);
        if c0 >= c1 || r0 >= r1 {
            return 0.0;
        }
        let stride = self.cols + 1;
        let p = &self.prefix;
        p[r1 * stride + c1] - p[r0 * stride + c1] - p[r1 * stride + c0] + p[r0 * stride + c0]
    }

    /// Uniformity-assumption mass of a rectangle whose edges are located
    /// as `(cell, fraction)` per axis, `x = [left, right]` and
    /// `y = [bottom, top]` (left not past right): each edge lies
    /// `fraction ∈ [0, 1]` of the way across its cell. Summed in four
    /// groups, each small next to the entries: the whole cells between
    /// the located ones, the partial columns, the partial rows and the
    /// corner cells. So a query inside one cell keeps its digits far from
    /// the origin, where differencing interpolated prefix sums cancels
    /// them.
    #[inline]
    pub fn mass(&self, x: [(usize, f64); 2], y: [(usize, f64); 2]) -> f64 {
        // The partial cells' local lines (see `split_axis`).
        let (lo, hi) = ([0, 1], [2, 3]);
        let (xl, xw, [x0, x1]) = split_axis(x);
        let (yl, yw, [y0, y1]) = split_axis(y);
        let stride = self.cols + 1;
        // t[j][i]: the entry at x-line xl[i] and y-line yl[j].
        let row = |r: usize| {
            let p = &self.prefix[r * stride..];
            [p[xl[0]], p[xl[1]], p[xl[2]], p[xl[3]]]
        };
        let t = [row(yl[0]), row(yl[1]), row(yl[2]), row(yl[3])];
        // Sum of the cells between local lines `[i0, i1) × [j0, j1)`.
        let block = |[i0, i1]: [usize; 2], [j0, j1]: [usize; 2]| {
            (t[j1][i1] - t[j0][i1]) - (t[j1][i0] - t[j0][i0])
        };
        let whole = block(xw, yw);
        let cols = x0 * block(lo, yw) + x1 * block(hi, yw);
        let rows = y0 * block(xw, lo) + y1 * block(xw, hi);
        let corners = x0 * (y0 * block(lo, lo) + y1 * block(lo, hi))
            + x1 * (y0 * block(hi, lo) + y1 * block(hi, hi));
        whole + cols + rows + corners
    }

    /// Sum of every cell in the grid.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum(0, 0, self.cols, self.rows)
    }

    /// Estimated resident size in bytes: the struct itself plus the
    /// owned prefix-sum array. Used by serving-side memory budgets.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.prefix.len() * std::mem::size_of::<f64>()
    }
}

/// One axis of [`SummedAreaTable::mass`]: the lines `[i0, i0 + 1, i1,
/// i1 + 1]` around its two cells, the whole cells between them (as
/// indexes into those lines) and the two cells' weights. When both edges
/// share a cell, it carries their difference.
#[inline]
fn split_axis([(i0, f0), (i1, f1)]: [(usize, f64); 2]) -> ([usize; 4], [usize; 2], [f64; 2]) {
    debug_assert!(i0 <= i1);
    let lines = [i0, i0 + 1, i1, i1 + 1];
    if i0 < i1 {
        (lines, [1, 2], [1.0 - f0, f1])
    } else {
        (lines, [2, 2], [f1 - f0, 0.0])
    }
}

#[cfg(test)]
mod tests {
    use crate::{DenseGrid, Domain};

    fn grid_from(vals: &[&[f64]]) -> DenseGrid {
        let rows = vals.len();
        let cols = vals[0].len();
        let domain = Domain::from_corners(0.0, 0.0, cols as f64, rows as f64).unwrap();
        let mut g = DenseGrid::zeros(domain, cols, rows).unwrap();
        for (r, row) in vals.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                g.set(c, r, *v);
            }
        }
        g
    }

    #[test]
    fn matches_naive_sums() {
        let g = grid_from(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &[9.0, 10.0, 11.0, 12.0],
        ]);
        let sat = g.sat();
        for c0 in 0..=4 {
            for c1 in c0..=4 {
                for r0 in 0..=3 {
                    for r1 in r0..=3 {
                        let mut naive = 0.0;
                        for c in c0..c1 {
                            for r in r0..r1 {
                                naive += g.get(c, r);
                            }
                        }
                        assert!(
                            (sat.sum(c0, r0, c1, r1) - naive).abs() < 1e-9,
                            "block ({c0},{r0})..({c1},{r1})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let g = grid_from(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let sat = g.sat();
        assert_eq!(sat.sum(0, 0, 100, 100), 4.0);
        assert_eq!(sat.sum(5, 5, 9, 9), 0.0);
    }

    #[test]
    fn empty_range_is_zero() {
        let g = grid_from(&[&[3.0]]);
        let sat = g.sat();
        assert_eq!(sat.sum(0, 0, 0, 1), 0.0);
        assert_eq!(sat.sum(0, 0, 1, 0), 0.0);
        assert_eq!(sat.total(), 3.0);
    }

    #[test]
    fn handles_negative_values() {
        // Noisy counts can be negative; the table must not assume
        // non-negativity.
        let g = grid_from(&[&[-1.0, 2.0], &[3.0, -4.0]]);
        let sat = g.sat();
        assert!((sat.total() - 0.0).abs() < 1e-12);
        assert!((sat.sum(0, 0, 1, 1) - -1.0).abs() < 1e-12);
        assert!((sat.sum(1, 1, 2, 2) - -4.0).abs() < 1e-12);
    }
}
