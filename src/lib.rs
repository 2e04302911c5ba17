//! # dpgrid — differentially private grids for geospatial data
//!
//! A faithful, production-quality Rust implementation of
//! *"Differentially Private Grids for Geospatial Data"* (Qardaji, Yang,
//! Li — ICDE 2013), including the paper's two contributions — the
//! **Uniform Grid (UG)** method with its grid-size guideline and the
//! **Adaptive Grid (AG)** method — plus every baseline the paper compares
//! against (KD-standard, KD-hybrid, b-ary hierarchies with constrained
//! inference, and the Privelet wavelet method) and the full evaluation
//! harness that regenerates the paper's tables and figures.
//!
//! This crate is a facade: it re-exports the workspace members under
//! stable module names.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`kernels`] | `dpgrid-kernels` | the vectorized data-plane kernel layer: batch positional popcount, fused GRR tally scatter, exact f64 affine/add — each with a scalar reference and an AVX2 implementation behind one runtime dispatcher (`DPGRID_FORCE_SCALAR` overrides) |
//! | [`geo`] | `dpgrid-geo` | points, rectangles, domains, datasets, dense histograms, synthetic generators, compiled cell indexes (`cell_index`), the `Synopsis`/`Build` traits and the unified `DpError` |
//! | [`mech`] | `dpgrid-mech` | Laplace / geometric / exponential mechanisms, budget accounting |
//! | [`core`] | `dpgrid-core` | UG, AG, the guidelines, error analysis, the `Method` registry, the publishing `Pipeline`, the compiled query surface (`surface`) and the portable `Release` format |
//! | [`baselines`] | `dpgrid-baselines` | KD-trees, hierarchies, constrained inference, Privelet |
//! | [`eval`] | `dpgrid-eval` | query workloads, error metrics, the experiment harness |
//! | [`serve`] | `dpgrid-serve` | the multi-release serving engine: the memory-budgeted release `Catalog`, the batched `QueryEngine` frontend with admission control, the transport-facing `QueryService` trait, the versioned wire protocol (`serve::wire`) and the sharded serving tier (`serve::shard`) |
//! | [`net`] | `dpgrid-net` | the TCP transport: the readiness-multiplexed `TcpServer`, reconnecting `TcpClient`/`TcpClientPool`, the `RemoteShard` leg of the sharded tier and the `ReportRouter` write-path fan-out |
//! | [`stream`] | `dpgrid-stream` | the temporal subsystem: streaming ingestion into epoch-sliced releases under a `BudgetSchedule`, plus tiered compaction of expired epochs |
//! | [`ldp`] | `dpgrid-ldp` | the local-DP ingestion front door: the per-epoch `ReportCollector` over the `mech` frequency oracles (GRR / OUE), and the `CollectingService` wrapper that accepts `Report` wire frames on serving connections |
//!
//! # One publishing API: build → publish → serve
//!
//! Every method is one entry in the [`core::Method`] registry, every
//! build funnels through `Method::build_boxed`, and the
//! [`core::Pipeline`] chains the whole workflow: pick a method, spend
//! ε, publish a [`core::Release`] carrying typed
//! [`core::ReleaseMetadata`] (the declarative method, its
//! guideline-resolved parameters, ε, and — for seeded experiment
//! releases — the seed). Serving then goes through one seam:
//! [`core::CompiledSurface`]. Any synopsis's exported cells compile —
//! once, lazily on first answer — into one of three indexes: a dense
//! lattice + summed-area table (grid-shaped partitions: O(1) per query
//! on equi-width lattices, O(log cells) at worst); a coarse lattice
//! whose slots each hold their own sub-lattice (two-level partitions
//! such as AG: one coarse lookup for the fully covered slots, one strip
//! lookup per coarse column or row the query's edges cut, and one per
//! corner slot); or a tree of the cuts no cell straddles (irregular
//! partitions such as KD trees, whose recursive splits it rebuilds from
//! the flat leaf list: an answer adds the nodes the query covers from
//! their totals and descends only along its rim, and a part no line
//! cuts is scanned, so overlapping cells stay exact). A JSON release
//! loaded from disk is exactly as fast to query as the in-memory type
//! that produced it.
//! Batch endpoints (`Synopsis::answer_all`) answer small query slices
//! inline and chunk large ones across scoped threads, sized by
//! [`geo::available_parallelism`] (the host's parallelism, read once
//! per process).
//!
//! # The serving stack: many releases, one engine, any transport
//!
//! Above the per-release surface sits the multi-release serving layer
//! ([`serve`], crate `dpgrid-serve`):
//!
//! * a [`serve::Catalog`] holds keyed, **versioned** releases —
//!   inserted from memory, handed over zero-copy from a pipeline via
//!   [`core::Pipeline::publish_into`], or bulk-loaded from a directory
//!   of release JSON dumps — and bounds memory with a **byte-budgeted
//!   LRU** of compiled surfaces: at most
//!   [`serve::Catalog::memory_budget`] bytes of compiled index stay
//!   resident (sized via [`core::CompiledSurface::memory_bytes`]), and
//!   a resident index is never recompiled (releases share their
//!   compilation behind `Arc`, so clones and leases all point at the
//!   same index);
//! * a [`serve::QueryEngine`] is the thread-safe batched frontend: it
//!   admits every request against a bounded in-flight rectangle budget
//!   (overload sheds with a typed `Overloaded` error instead of
//!   queueing unboundedly), routes [`serve::QueryRequest`] batches
//!   across releases, leases every compiled surface under one short
//!   catalog lock, answers with no lock held, shards work over
//!   `std::thread::scope` workers through the same batched driver the
//!   evaluation harness uses, and returns typed
//!   [`serve::QueryResponse`]s carrying the release version and cache
//!   state. Inserts and queries interleave freely — the concurrency
//!   regression tests hammer one engine from eight threads while
//!   re-versioning keys.
//!
//! Transports plug into the engine through one seam, the
//! [`serve::QueryService`] trait, and speak the versioned wire
//! protocol of [`serve::wire`]: single-line JSON frames (v1) or
//! length-prefixed binary frames (v2, told apart from JSON by their
//! first byte, so one connection may mix both; [`net::TcpClient`]
//! speaks only v2),
//! rectangle validation at the boundary (NaN / inverted rects never
//! reach the engine), and stable error codes (`UnknownKey`,
//! `InvalidQuery`, `Overloaded`, …). The first transport ships in [`net`]
//! (crate `dpgrid-net`): a std-only TCP server
//! ([`net::TcpServer`], a small pool of readiness-multiplexed event
//! loops, graceful shutdown) and a blocking [`net::TcpClient`] that
//! redials stale connections once (server restarts don't strand
//! long-lived clients) — see `examples/net_roundtrip.rs` for the full
//! publish → serve → query-over-TCP loop.
//!
//! # The sharded tier: one keyspace over many engines
//!
//! When one engine's host runs out of cores or memory, the serving
//! tier scales *horizontally* through [`serve::shard`]
//! (`dpgrid::serve::shard`):
//!
//! * a [`serve::ShardRouter`] routes every release key to the shard
//!   that owns it by deterministic **rendezvous hashing** over shard
//!   names ([`core::rendezvous_route`] — no coordination, no lookup
//!   table, minimal remapping on topology changes), scatter–gathers
//!   mixed-key batches across the owning shards with order-preserving
//!   reassembly, isolates failures per shard (one backend's
//!   `Overloaded` or unreachability fails only its sub-batch), and
//!   reports exact merged [`serve::EngineStats`] plus a per-shard
//!   [`serve::RouterStats`] breakdown;
//! * shards are [`serve::Shard`]s — [`serve::LocalShard`] wraps an
//!   in-process engine, [`net::RemoteShard`] dials an engine on
//!   another host through a reconnecting [`net::TcpClientPool`] — and
//!   a router mixes both transparently;
//! * the router is itself a [`serve::QueryService`], so a
//!   [`net::TcpServer`] bound to it becomes a **front-door node**
//!   proxying N backends with the unchanged wire protocol;
//! * publishing agrees with routing by construction: a
//!   [`core::ShardedSink`] fans [`core::Pipeline::publish_into`]
//!   across named sinks with the same hash, so build → publish →
//!   route place every key identically.
//!
//! See `examples/sharded_serving.rs` for the full fleet — local and
//! remote shards behind one front door — and `tests/sharded_serving.rs`
//! for the equivalence guarantee (a 4-shard router answers mixed
//! batches identically to one engine holding everything).
//!
//! # The temporal subsystem: streams, epochs, windows
//!
//! Timestamped point streams enter through [`stream`]
//! (crate `dpgrid-stream`) and come out the same serving stack as
//! static releases:
//!
//! * a [`stream::StreamIngestor`] stages points into bounded
//!   per-epoch buffers (an [`core::EpochLayout`] maps timestamps to
//!   epoch indices), tracks an event-time watermark with configurable
//!   allowed lateness, and — as epochs seal — publishes **one release
//!   per epoch** through the ordinary [`core::Pipeline`] into any
//!   [`core::ReleaseSink`], under the epoch-key grammar
//!   `{keyspace}@epoch:{i}` of [`core::temporal`];
//! * each epoch's ε comes from a [`mech::BudgetSchedule`] — uniform
//!   shares over a fixed horizon, or exponentially decaying shares
//!   summing to the total over an infinite stream — charged exactly
//!   once per epoch (late arrivals and exhausted budgets fail typed,
//!   never silently overspend) by a [`core::EpochPublisher`], the one
//!   build → charge → publish lifecycle the LDP collector below uses
//!   too;
//! * a [`stream::Compactor`] merges expired fine epochs into coarser
//!   tiers (`{keyspace}@epoch:{s}-{e}`) via [`core::merge_releases`]
//!   — pure post-processing, ε-free — publishing the tier before
//!   evicting the fine releases so coverage never transiently drops;
//! * sliding-window queries resolve and sum the covering epoch
//!   surfaces through [`serve::answer_window`] against any
//!   [`serve::QueryService`], or in one round trip over TCP via
//!   [`net::TcpClient::window`] (wire kind `Window`, in both codecs).
//!   Answers report exactly which epoch ranges were summed,
//!   so compaction's coarsening stays visible.
//!
//! See `examples/streaming_window.rs` for the loop (ingest → seal →
//! window ≡ per-epoch sums) and `tests/streaming_temporal.rs` for the
//! end-to-end guarantee over the full TCP front door.
//!
//! # The local-DP front door: reports in, releases out
//!
//! Everything above is *central* DP — a trusted curator holds the raw
//! points. The [`ldp`] crate (`dpgrid-ldp`) adds the complementary
//! *local* trust model on the same grids, fed over the same wire
//! protocol:
//!
//! * each user perturbs their own grid cell **on-device** with a
//!   frequency oracle from [`mech`] — [`mech::Grr`] (generalized
//!   randomized response over cell indices) or [`mech::Oue`]
//!   (unary encoding with per-bit flips, packed into `u64` words) —
//!   behind the one [`mech::FrequencyOracle`] trait;
//! * batches of perturbed reports travel as the `Report` wire kind
//!   (the server takes it in both codecs;
//!   [`net::TcpClient::submit_reports`] pipelines binary frames,
//!   [`net::ReportRouter`] scatters them to the shard
//!   that will serve the epoch, by the same rendezvous placement the
//!   read side routes with);
//! * a [`ldp::ReportCollector`] behind [`ldp::CollectingService`]
//!   folds them into flat per-epoch tally vectors (chunked array
//!   arithmetic, no per-report allocation); sealing an epoch
//!   debiases them, charges the epoch's ε through its
//!   [`core::EpochPublisher`] exactly once, and publishes an ordinary
//!   [`core::Release`] under the epoch-key grammar — served, sharded,
//!   and windowed exactly like a central release, but tagged
//!   [`core::TrustModel::Local`] in its metadata (the estimator is far
//!   noisier, and the ε is per user per epoch — consumers can tell the
//!   two models apart).
//!
//! See `examples/ldp_ingestion.rs` for the loop (users perturb →
//! batched over TCP → seal → query) and `tests/ldp_ingestion.rs` for
//! the end-to-end guarantee.
//!
//! # Quickstart
//!
//! ```
//! use dpgrid::prelude::*;
//!
//! // A small synthetic dataset (storage-facility-like distribution).
//! let dataset = PaperDataset::Storage.generate_n(42, 2_000).unwrap();
//!
//! // Publish an adaptive-grid release under a total budget of ε = 1.
//! // (`seed` makes the example reproducible; leave it off — and the
//! // noise unpredictable — for production releases.)
//! let release = Pipeline::new(&dataset)
//!     .epsilon(1.0)
//!     .method(Method::ag_suggested())
//!     .seed(7)
//!     .publish()
//!     .unwrap();
//!
//! // The release knows what it is…
//! assert_eq!(release.method_kind(), Some(&Method::ag_suggested()));
//! assert_eq!(release.epsilon(), 1.0);
//!
//! // …answers rectangle count queries through its compiled surface…
//! let query = Rect::new(-100.0, 30.0, -80.0, 45.0).unwrap();
//! let estimate = release.answer(&query);
//! let truth = dataset.count_in(&query) as f64;
//! assert!((estimate - truth).abs() < truth.max(100.0));
//!
//! // …and is safe to share: every value inside is ε-DP output.
//! let mut json = Vec::new();
//! release.write_json(&mut json).unwrap();
//! ```

pub use dpgrid_baselines as baselines;
pub use dpgrid_core as core;
pub use dpgrid_eval as eval;
pub use dpgrid_geo as geo;
pub use dpgrid_kernels as kernels;
pub use dpgrid_ldp as ldp;
pub use dpgrid_mech as mech;
pub use dpgrid_net as net;
pub use dpgrid_serve as serve;
pub use dpgrid_stream as stream;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use dpgrid_baselines::{
        HierarchicalGrid, HierarchyConfig, KdConfig, KdHybrid, KdStandard, Privelet, PriveletConfig,
    };
    pub use dpgrid_core::{
        epoch_key, merge_releases, parse_epoch_key, AdaptiveGrid, AgConfig, CompiledSurface,
        EpochLayout, EpochRange, GridSize, Method, NoiseKind, Pipeline, Release, ReleaseMetadata,
        ReleaseSink, ShardedSink, TrustModel, UgConfig, UniformGrid,
    };
    pub use dpgrid_geo::generators::PaperDataset;
    pub use dpgrid_geo::{
        Build, DenseGrid, Domain, DpError, GeoDataset, Point, PointIndex, Rect, Synopsis,
    };
    pub use dpgrid_ldp::{CollectingService, CollectorConfig, LdpError, ReportCollector};
    pub use dpgrid_mech::{
        BudgetSchedule, FrequencyOracle, Grr, LaplaceMechanism, LocalReport, Oue, PrivacyBudget,
    };
    pub use dpgrid_net::{RemoteShard, ReportRouter, TcpClient, TcpClientPool, TcpServer};
    pub use dpgrid_serve::{
        answer_window, Catalog, EngineStats, LocalShard, QueryEngine, QueryRequest, QueryResponse,
        QueryService, ReportAck, ReportBatch, ReportPayload, ReportService, RouterStats,
        ServeError, Shard, ShardRouter, WindowAnswer, WindowQuery,
    };
    pub use dpgrid_stream::{Compactor, StreamIngestor};
}
