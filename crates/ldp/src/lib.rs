//! Local-DP ingestion for dpgrid: the **front door** that grows a
//! served geospatial release without the server ever holding raw
//! points.
//!
//! The paper's pipeline (and everything the rest of this workspace
//! serves) is *central* DP: a trusted curator holds the dataset and
//! noises grid counts before publishing. This crate implements the
//! complementary *local* trust model on the same grids: each user
//! perturbs their own grid cell on-device with a frequency oracle
//! ([`dpgrid_mech::Grr`] or [`dpgrid_mech::Oue`]), uploads only the
//! perturbed report, and the collector debiases the aggregated tallies
//! into a per-cell estimate — the LDP analogue of the paper's UG
//! release, published under the same epoch-key grammar and served by
//! the same read stack.
//!
//! * [`ReportCollector`] — bounded per-epoch accumulators (flat `u64`
//!   tally vectors, no per-report allocation), all-or-nothing batch
//!   folding with typed rejections ([`LdpError`]), and epoch sealing
//!   through the one epoch lifecycle streaming uses too,
//!   [`dpgrid_core::EpochPublisher`]:
//!   [`ReportCollector::publish_open_epoch`] debiases at the epoch's ε
//!   share, charges that share through
//!   [`dpgrid_mech::BudgetSchedule`] (exactly once), and publishes an
//!   ordinary [`dpgrid_core::Release`] tagged
//!   [`dpgrid_core::TrustModel::Local`] into a
//!   [`dpgrid_core::ReleaseSink`]. No call charges an epoch without
//!   publishing its release.
//! * [`CollectingService`] — wraps any [`dpgrid_serve::QueryService`]
//!   and exposes the collector through
//!   [`dpgrid_serve::QueryService::reports`], so the wire protocol's
//!   `Report` kind flows into it on the same connections that answer
//!   queries.
//! * [`accumulate`] — the aggregation hot path as free functions
//!   (validate-then-fold over flat slices), shared by the collector
//!   and the benchmark suite.
//!
//! # Trust-model caveat
//!
//! An LDP release answers the same range queries as a central one but
//! under a much noisier estimator (per-cell variance grows with the
//! user count under OUE, and with both users and domain size under
//! GRR), and its guarantee is *per user per epoch* rather than
//! per-dataset. Sealed releases carry
//! [`dpgrid_core::TrustModel::Local`] in their metadata so consumers
//! can tell the two apart; nothing else about serving changes.
//!
//! # Loss contract
//!
//! Reports acknowledged into the open epoch live only in the
//! collector's memory until the epoch is sealed: a crash loses them,
//! and their senders are not told. The ε charges live in the
//! in-memory [`dpgrid_mech::BudgetSchedule`] too, so a restarted
//! collector does not know which epochs it already spent.
//!
//! # Example
//!
//! ```
//! use dpgrid_geo::Domain;
//! use dpgrid_ldp::{CollectorConfig, ReportCollector};
//! use dpgrid_mech::{BudgetSchedule, FrequencyOracle, Grr, LocalReport};
//! use dpgrid_serve::{ReportBatch, ReportPayload};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let domain = Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap();
//! let schedule = BudgetSchedule::uniform(2.0, 4).unwrap();
//! let mut collector = ReportCollector::new(
//!     CollectorConfig::new("taxi", domain, 8, 8, schedule).unwrap(),
//! )
//! .unwrap();
//!
//! // 200 users perturb their true cell on-device at the epoch's ε.
//! let eps = collector.open_epsilon().unwrap();
//! let oracle = Grr::new(64, eps).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let reports: Vec<u32> = (0..200)
//!     .map(|i| {
//!         let LocalReport::Cell(c) = oracle.perturb(i % 64, &mut rng).unwrap() else {
//!             unreachable!()
//!         };
//!         c
//!     })
//!     .collect();
//!
//! // The collector folds the batch and seals the epoch into a release.
//! collector
//!     .submit(&ReportBatch {
//!         keyspace: "taxi".into(),
//!         epoch: 0,
//!         epsilon: eps,
//!         cells: 64,
//!         payload: ReportPayload::Grr(reports),
//!     })
//!     .unwrap();
//! let mut published = Vec::new();
//! let summary = collector.publish_open_epoch(&mut published).unwrap();
//! assert_eq!(summary.key, "taxi@epoch:0");
//! assert_eq!(summary.grr_reports, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulate;
mod collector;
mod error;
mod service;

pub use collector::{CollectorConfig, ReportCollector, SealSummary, DEFAULT_EPOCH_CAPACITY};
pub use error::LdpError;
pub use service::CollectingService;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LdpError>;
