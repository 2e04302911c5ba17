//! The paper's primary contribution: differentially private grid synopses.
//!
//! This crate implements §IV of *"Differentially Private Grids for
//! Geospatial Data"* (Qardaji, Yang, Li — ICDE 2013):
//!
//! * [`UniformGrid`] — the **UG** method: an equi-width `m × m` grid with
//!   independent Laplace-noised cell counts, and **Guideline 1** for
//!   choosing `m = √(N·ε/c)` ([`guidelines::guideline1`]);
//! * [`AdaptiveGrid`] — the **AG** method: a coarse `m₁ × m₁` first-level
//!   grid (budget `α·ε`) whose cells are re-partitioned into `m₂ × m₂`
//!   leaves according to their noisy counts (**Guideline 2**,
//!   [`guidelines::guideline2`]), glued together with two-level
//!   constrained inference ([`inference`]);
//! * the [`Synopsis`] and [`Build`] traits — the release format:
//!   rectangle count queries answered from noisy cells under the
//!   uniformity assumption, and the uniform construction seam (both
//!   defined in `dpgrid-geo`, re-exported here);
//! * the [`Method`] registry — every buildable method of the paper
//!   (UG, AG, the baselines and their ablation variants) as one typed
//!   enum, with [`Method::build_boxed`] as the single construction
//!   path;
//! * the [`Pipeline`] — the one-stop publishing API:
//!   `Pipeline::new(&data).epsilon(1.0).method(Method::ag_suggested())
//!   .seed(7).publish()?` builds a synopsis and exports it as a
//!   [`Release`] carrying typed [`ReleaseMetadata`];
//! * the [`surface`] module — the compiled query surface:
//!   [`CompiledSurface`] turns any synopsis's exported cells into an
//!   O(log cells) index, so published releases answer as fast as the
//!   native in-memory types;
//! * [`analysis`] — the paper's closed-form error model (§II, §IV-C) as
//!   executable code, including the dimensionality analysis of why
//!   hierarchies stop paying off beyond one dimension;
//! * [`synthetic`] — regenerating a synthetic dataset from a released
//!   synopsis (the second use-case of §II-B).
//!
//! # Privacy accounting
//!
//! Per-cell count queries have L1 sensitivity 1 and the cells of one grid
//! partition the domain, so noising an entire grid level consumes its ε
//! once (parallel composition). UG spends the whole budget on its single
//! level; AG splits sequentially: `α·ε` for level 1, `(1−α)·ε` for level
//! 2. A noisy estimate of `N` ([`NEstimate::Noisy`] with fraction `f`)
//! takes `f·ε` first and leaves level 2 `(1−α−f)·ε`; AG's constrained
//! inference then weighs the two levels by the split they actually
//! got. Both are tracked through [`dpgrid_mech::PrivacyBudget`] so
//! over-spending is a hard error.
//!
//! # Example
//!
//! ```
//! use dpgrid_core::{AdaptiveGrid, AgConfig, Synopsis, UgConfig, UniformGrid};
//! use dpgrid_geo::{generators::PaperDataset, Rect};
//! use rand::SeedableRng;
//!
//! let data = PaperDataset::Storage.generate_n(1, 3_000).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//!
//! let ug = UniformGrid::build(&data, &UgConfig::guideline(1.0), &mut rng).unwrap();
//! let ag = AdaptiveGrid::build(&data, &AgConfig::guideline(1.0), &mut rng).unwrap();
//!
//! let q = Rect::new(-100.0, 30.0, -90.0, 40.0).unwrap();
//! let truth = data.count_in(&q) as f64;
//! // Both synopses estimate the count from noisy cells.
//! assert!((ug.answer(&q) - truth).abs() < 1_000.0);
//! assert!((ag.answer(&q) - truth).abs() < 1_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive_grid;
pub mod analysis;
mod error;
pub mod guidelines;
pub mod inference;
pub mod method;
mod noise;
pub mod pipeline;
pub mod release;
pub mod routing;
pub mod surface;
pub mod synthetic;
pub mod temporal;
mod uniform_grid;

pub use adaptive_grid::{AdaptiveGrid, AgCellInfo, AgConfig};
pub use error::CoreError;
pub use guidelines::{GridSize, NEstimate};
pub use method::Method;
pub use noise::{CountNoise, NoiseKind};
pub use pipeline::{Pipeline, ReleaseSink};
pub use release::{Release, ReleaseMetadata, TrustModel};
pub use routing::{rendezvous_route, rendezvous_score, ShardedSink};
pub use surface::{CompiledSurface, SurfaceKind};
pub use temporal::{
    epoch_key, merge_releases, parse_epoch_key, EpochLayout, EpochPublisher, EpochRange,
};
pub use uniform_grid::{UgConfig, UniformGrid};

/// The release-format traits, re-exported from the substrate crate
/// (where they moved so that core and the baselines can both implement
/// them without depending on each other).
pub use dpgrid_geo::{Build, Synopsis};

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
