//! Geometry, dataset and histogram substrate for the `dpgrid` workspace.
//!
//! This crate provides everything the differentially private synopsis
//! methods consume that is *not* privacy related:
//!
//! * plane geometry: [`Point`], [`Rect`] and the validated [`Domain`];
//! * the point container [`GeoDataset`] with CSV import/export;
//! * the dense 2-D histogram [`DenseGrid`] together with a
//!   [`SummedAreaTable`] for O(1) aligned range sums;
//! * an exact range-count oracle [`PointIndex`] used to compute ground
//!   truth answers for the error metrics of the evaluation harness;
//! * compiled query indexes over arbitrary cell partitions
//!   ([`cell_index`]): a regular-lattice fast path, a coarse lattice of
//!   per-slot sub-lattices for two-level partitions such as AG, and a
//!   tree of the cuts no cell straddles for the rest (KD trees), all
//!   answering uniformity-assumption range queries without scanning
//!   every cell;
//! * deterministic synthetic [`generators`] reproducing the spatial
//!   character of the four datasets used in the paper (road, checkin,
//!   landmark, storage);
//! * the workspace-wide release-format traits [`Synopsis`] and
//!   [`Build`], plus the unified construction error [`DpError`] — they
//!   live here (the lowest crate that knows [`GeoDataset`] and
//!   [`Rect`]) so that every synopsis crate can implement them without
//!   depending on the others.
//!
//! # Geometry conventions
//!
//! All rectangles — grid cells, query ranges and domains alike — are
//! interpreted as **half-open** boxes `[x0, x1) × [y0, y1)`. This makes
//! every grid partition an exact partition: a point on an interior cell
//! boundary belongs to exactly one cell. The domain itself is treated as
//! closed on its upper edges (points exactly on the domain's maximum
//! coordinate belong to the last row/column of cells), which mirrors how
//! the paper buckets data points into an `m × m` grid.
//!
//! # Example
//!
//! ```
//! use dpgrid_geo::{Domain, GeoDataset, Point, Rect};
//!
//! let domain = Domain::new(Rect::new(0.0, 0.0, 10.0, 10.0).unwrap()).unwrap();
//! let dataset = GeoDataset::from_points(
//!     vec![Point::new(1.0, 1.0), Point::new(9.0, 9.0)],
//!     domain,
//! )
//! .unwrap();
//! assert_eq!(dataset.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell_index;
mod dataset;
mod domain;
mod error;
pub mod generators;
mod grid;
pub mod ndim;
mod point;
mod point_index;
mod rect;
mod sat;
mod synopsis;

pub use cell_index::{
    CellIndex, CutTreeIndex, CutTreeStats, LatticeIndex, TwoLevelIndex, TwoLevelStats,
};
pub use dataset::GeoDataset;
pub use domain::Domain;
pub use error::{DpError, GeoError};
pub use grid::{DenseGrid, MAX_GRID_CELLS};
pub use point::Point;
pub use point_index::PointIndex;
pub use rect::Rect;
pub use sat::SummedAreaTable;
pub use synopsis::{
    answer_all_batched, answer_all_with_workers, available_parallelism, Build, Synopsis,
    MIN_QUERIES_PER_THREAD,
};

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GeoError>;
