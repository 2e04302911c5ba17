//! Multi-release serving engine for differentially private grid
//! releases.
//!
//! The paper's synopses are publish-once artefacts; the serving
//! problem starts *after* publication: hold many releases at once,
//! answer heavy batched query traffic against any of them, and keep
//! the expensive part — each release's compiled query surface — built
//! exactly once and bounded in memory. This crate is that layer, built
//! on the two seams below it (`dpgrid_core::Pipeline` publishes typed
//! releases, `dpgrid_core::CompiledSurface` answers one release fast):
//!
//! * [`Catalog`] — keyed, versioned releases, loaded from memory
//!   ([`Catalog::insert`], or zero-copy from a pipeline via
//!   [`dpgrid_core::Pipeline::publish_into`]) or from a directory of
//!   release JSON dumps ([`Catalog::load_dir`]), with a
//!   **memory-budgeted** LRU of compiled surfaces: at most
//!   [`Catalog::memory_budget`] bytes of compiled index stay resident
//!   (accounted through
//!   [`dpgrid_core::CompiledSurface::memory_bytes`]), least-recently
//!   used surfaces are evicted when a compile overflows the budget,
//!   and a resident surface is *never* recompiled — lookups lease
//!   `Arc` clones of the same index.
//! * [`QueryEngine`] — the batched frontend: admits requests against a
//!   bounded in-flight rectangle budget (overload sheds with a typed
//!   [`ServeError::Overloaded`] instead of queueing unboundedly),
//!   routes [`QueryRequest`]`{ release_key, rects }` batches across
//!   releases, leases every surface under one catalog lock, answers
//!   with no lock held, shards batches over `std::thread::scope`
//!   workers, and returns typed [`QueryResponse`]s carrying the
//!   release version and cache state. Interior locking makes the
//!   engine `Sync`: query threads and catalog inserts interleave
//!   freely.
//! * [`QueryService`] — the transport seam: the object-safe trait
//!   (`answer_batch` + `stats` + the advertised `keys`) transports are
//!   written against, so a TCP frontend, a mock, or a sharding router
//!   all plug in the same way. [`QueryEngine`] implements it.
//! * [`shard`] — the horizontal-scaling tier: the [`Shard`] backend
//!   trait ([`LocalShard`] in-process, `dpgrid-net`'s `RemoteShard`
//!   over TCP) and the [`ShardRouter`], a [`QueryService`] that
//!   rendezvous-routes one keyspace over many shards with
//!   scatter–gather batching, per-shard error isolation and exact
//!   merged stats. Publishing places releases with the same hash via
//!   [`dpgrid_core::ShardedSink`], so build → publish → route agree.
//! * [`window`] — sliding-window queries over epoch-sliced releases:
//!   [`window::answer_window`] resolves the `{keyspace}@epoch:{i}`
//!   surfaces covering a half-open epoch range from any
//!   [`QueryService`]'s advertised keys, sums them element-wise, and
//!   reports exactly which epoch ranges were covered (compacted tiers
//!   widen coverage visibly; uncovered windows fail typed).
//! * [`wire`] — the versioned wire protocol: single-line JSON
//!   [`wire::WireRequest`]/[`wire::WireResponse`] frames with boundary
//!   rectangle validation and stable [`wire::ErrorCode`]s
//!   (unknown-key / invalid-query / overloaded …), plus
//!   [`wire::handle_frame`] dispatching one frame against any
//!   [`QueryService`]. The `dpgrid-net` crate supplies TCP framing
//!   around it.
//! * [`report`] — the write path: the `Report` wire kind (the
//!   protocol's only mutating request) carries batches of
//!   locally-perturbed frequency-oracle reports to a
//!   [`ReportService`] collector reached through
//!   [`QueryService::reports`]; a read-only service has no collector
//!   and answers `MalformedRequest`. The aggregating collector itself
//!   lives in the `dpgrid-ldp` crate.
//!
//! # Example
//!
//! ```
//! use dpgrid_core::{Method, Pipeline};
//! use dpgrid_geo::generators::PaperDataset;
//! use dpgrid_geo::Rect;
//! use dpgrid_serve::{Catalog, QueryEngine, QueryRequest};
//!
//! // Publish two releases straight into a catalog bounded at 64 MiB
//! // of resident compiled surface.
//! let mut catalog = Catalog::with_memory_budget(64 << 20);
//! for (key, seed) in [("storage", 1u64), ("landmark", 2)] {
//!     let data = PaperDataset::Storage.generate_n(seed, 2_000).unwrap();
//!     Pipeline::new(&data)
//!         .epsilon(1.0)
//!         .method(Method::ag_suggested())
//!         .seed(seed)
//!         .publish_into(&mut catalog, key)
//!         .unwrap();
//! }
//!
//! // Serve batched queries across both.
//! let engine = QueryEngine::new(catalog);
//! let q = Rect::new(-100.0, 30.0, -90.0, 40.0).unwrap();
//! let responses = engine.answer_batch(&[
//!     QueryRequest::new("storage", vec![q]),
//!     QueryRequest::new("landmark", vec![q, q]),
//! ]);
//! assert_eq!(responses[0].as_ref().unwrap().answers.len(), 1);
//! assert_eq!(responses[1].as_ref().unwrap().answers.len(), 2);
//! ```
//!
//! Everything served is ε-DP released output; catalog management,
//! compilation and eviction are privacy-free post-processing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod engine;
mod error;
pub mod report;
mod service;
pub mod shard;
pub mod window;
pub mod wire;

pub use catalog::{
    CacheState, Catalog, CatalogStats, ColdLease, Lease, SurfaceHandle, DEFAULT_MEMORY_BUDGET_BYTES,
};
pub use engine::{
    EngineStats, KernelBackend, QueryEngine, QueryRequest, QueryResponse, TransportStats,
    DEFAULT_ADMISSION_LIMIT,
};
pub use error::{Result, ServeError};
pub use report::{ReportAck, ReportBatch, ReportPayload, ReportService};
pub use service::QueryService;
pub use shard::{LocalShard, RouterStats, Shard, ShardRouter, ShardStats};
pub use window::{answer_window, resolve_window_via_keys, WindowAnswer, WindowQuery};
