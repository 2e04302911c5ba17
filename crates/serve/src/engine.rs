//! The batched query frontend over a release catalog.
//!
//! A [`QueryEngine`] wraps a [`Catalog`] behind interior locking so any
//! number of threads can answer queries and insert releases
//! concurrently. The serving discipline:
//!
//! 1. **Admit before touching anything.** Every request first reserves
//!    its rectangles against a bounded in-flight budget
//!    ([`QueryEngine::with_admission_limit`]); a request that does not
//!    fit is *shed* with a typed [`ServeError::Overloaded`] instead of
//!    queueing unboundedly — overload degrades into fast, explicit
//!    rejections rather than latency collapse, and a transport can
//!    surface the error code for client backoff.
//! 2. **Resolve under the lock, compile and answer outside it.** A
//!    request (or a whole batch) takes the catalog lock only long
//!    enough to lease warm `Arc<CompiledSurface>` handles or cold
//!    release leases; O(cells·log cells) surface compilations run
//!    *unlocked* (each release's `OnceLock` keeps them exactly-once)
//!    and answering holds no lock either, so neither slow queries nor
//!    cold compiles block inserts or other requests.
//! 3. **Shard over scoped threads only when it pays.** By default a
//!    batch fans out across `std::thread::scope` workers sized by
//!    [`dpgrid_geo::available_parallelism`] (read once per process),
//!    but only as far as its work pays for the spawns: one shard per
//!    [`MIN_QUERIES_PER_THREAD`] rectangles, or one per cold surface
//!    so cold compiles overlap. Each request's rectangles run through
//!    the same [`dpgrid_geo::answer_all_batched`] driver the rest of
//!    the workspace uses, which answers small batches inline. A pinned
//!    worker count ([`QueryEngine::with_workers`]) replaces both
//!    policies.
//! 4. **Typed responses.** Every [`QueryResponse`] carries the release
//!    version it answered against and whether the surface was warm,
//!    so callers can reason about staleness and cache behaviour.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dpgrid_core::{Release, ReleaseSink};
use dpgrid_geo::{answer_all_with_workers, available_parallelism, Rect, MIN_QUERIES_PER_THREAD};
use serde::{Deserialize, Serialize};

use crate::catalog::{CacheState, Catalog, CatalogStats, Lease, SurfaceHandle};
use crate::error::{Result, ServeError};

/// Default in-flight rectangle budget: generous enough that only a
/// genuine overload (thousands of concurrent heavy batches) sheds.
pub const DEFAULT_ADMISSION_LIMIT: usize = 1 << 20;

/// A batch of rectangle count queries addressed to one release.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Catalog key of the release to answer from.
    pub release_key: String,
    /// The query rectangles, answered in order.
    pub rects: Vec<Rect>,
}

impl QueryRequest {
    /// A request for `rects` against the release under `key`.
    pub fn new(key: impl Into<String>, rects: Vec<Rect>) -> Self {
        QueryRequest {
            release_key: key.into(),
            rects,
        }
    }
}

/// The typed answer to one [`QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Key the request was routed to.
    pub release_key: String,
    /// Version of the release that answered (see [`Catalog::version`]).
    pub version: u64,
    /// Whether the compiled surface was resident when the request
    /// arrived.
    pub cache: CacheState,
    /// One answer per requested rectangle, same order.
    pub answers: Vec<f64>,
}

/// Point-in-time transport counters a network server layers onto
/// [`EngineStats`] — socket-level traffic the engine itself never
/// sees. Produced by `dpgrid-net`'s servers; `None` for an engine
/// queried in-process (there is no transport to count).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Request frames decoded (both codecs, malformed ones excluded).
    pub frames_decoded: u64,
    /// Times a connection's input processing was paused because its
    /// outbound buffer crossed the high-water mark (the server's
    /// per-connection backpressure).
    pub read_stalls: u64,
    /// Writes that hit `WouldBlock` and had to wait for socket
    /// writability.
    pub write_stalls: u64,
    /// Request payload bytes read off sockets.
    pub bytes_in: u64,
    /// Response bytes written to sockets.
    pub bytes_out: u64,
    /// Individual LDP reports accepted on the write path (the sum of
    /// every `Report` ack's `accepted` count, both codecs) — distinct
    /// from `frames_decoded`, which counts decoded request frames
    /// regardless of kind or batch size. Additive within the protocol:
    /// older peers omit the field and it decodes as 0.
    #[serde(default)]
    pub reports_accepted: u64,
}

impl TransportStats {
    /// Element-wise sum — aggregating several servers' counters reads
    /// as one tier's transport traffic.
    #[must_use]
    pub fn merge(&self, other: &TransportStats) -> TransportStats {
        TransportStats {
            accepted: self.accepted + other.accepted,
            active: self.active + other.active,
            frames_decoded: self.frames_decoded + other.frames_decoded,
            read_stalls: self.read_stalls + other.read_stalls,
            write_stalls: self.write_stalls + other.write_stalls,
            bytes_in: self.bytes_in + other.bytes_in,
            bytes_out: self.bytes_out + other.bytes_out,
            reports_accepted: self.reports_accepted + other.reports_accepted,
        }
    }
}

/// The kernel backend a host's data plane selected (see
/// `dpgrid_kernels`), carried in [`EngineStats`] so an operator can
/// confirm AVX2 is live on a production box through the same
/// connection they query over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelBackend {
    /// The portable scalar reference kernels.
    Scalar,
    /// The x86_64 AVX2 kernels.
    Avx2,
    /// An aggregate over engines running different backends (only
    /// produced by [`EngineStats::merge`], never selected directly).
    Mixed,
}

impl KernelBackend {
    /// The backend the kernel layer selected in this process.
    pub fn current() -> KernelBackend {
        match dpgrid_kernels::backend() {
            dpgrid_kernels::Backend::Scalar => KernelBackend::Scalar,
            dpgrid_kernels::Backend::Avx2 => KernelBackend::Avx2,
        }
    }

    /// The stable lowercase name, matching
    /// `dpgrid_kernels::active_backend()`.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Mixed => "mixed",
        }
    }

    /// Aggregation over a tier: agreeing members keep their backend,
    /// disagreeing members read as [`KernelBackend::Mixed`].
    #[must_use]
    pub fn merge(self, other: KernelBackend) -> KernelBackend {
        if self == other {
            self
        } else {
            KernelBackend::Mixed
        }
    }
}

/// Point-in-time engine counters: request traffic on top of the
/// catalog's surface-cache counters.
///
/// Serialisable: exposed over the wire protocol's `Stats` request so
/// operators can watch traffic, shedding and cache behaviour through
/// the same connection they query over.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Requests routed (successful or not, including shed ones).
    pub requests: u64,
    /// Individual rectangle queries answered.
    pub answers: u64,
    /// Requests that named an unknown release key.
    pub unknown_keys: u64,
    /// Requests shed by admission control ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Rectangles currently being answered (admitted, not yet done).
    pub inflight_rects: u64,
    /// The in-flight rectangle budget admission control enforces.
    pub admission_limit: u64,
    /// The wrapped catalog's counters.
    pub catalog: CatalogStats,
    /// Socket-level counters, when a network server answered this
    /// `Stats` request (additive within protocol v1/v2: older peers
    /// simply omit the field and it decodes as `None`).
    #[serde(default)]
    pub transport: Option<TransportStats>,
    /// The kernel backend the answering host's data plane selected
    /// (additive within v1/v2: older peers omit the field and it
    /// decodes as `None`).
    #[serde(default)]
    pub kernel_backend: Option<KernelBackend>,
}

impl EngineStats {
    /// All-zero counters: the identity of [`EngineStats::merge`] and
    /// the honest placeholder a router reports for a shard it cannot
    /// reach.
    pub fn zeroed() -> Self {
        EngineStats::default()
    }

    /// Element-wise aggregation of two engines' counters — the exact
    /// stats of a tier serving through both (a shard router sums its
    /// backends this way).
    ///
    /// Traffic counters add. The *bounds* (`admission_limit`, and the
    /// catalog's `capacity`/`budget_bytes`) add **saturating**, so an
    /// unbounded member (`u64::MAX`/`usize::MAX`) keeps the aggregate
    /// unbounded instead of wrapping — the sum reads as "total
    /// capacity of the tier".
    #[must_use]
    pub fn merge(&self, other: &EngineStats) -> EngineStats {
        EngineStats {
            requests: self.requests + other.requests,
            answers: self.answers + other.answers,
            unknown_keys: self.unknown_keys + other.unknown_keys,
            shed: self.shed + other.shed,
            inflight_rects: self.inflight_rects + other.inflight_rects,
            admission_limit: self.admission_limit.saturating_add(other.admission_limit),
            catalog: self.catalog.merge(&other.catalog),
            transport: match (&self.transport, &other.transport) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or_default().merge(&b.unwrap_or_default())),
            },
            // A member with no backend report (e.g. a zeroed
            // placeholder for an unreachable shard) doesn't dilute the
            // tier's reading.
            kernel_backend: match (self.kernel_backend, other.kernel_backend) {
                (Some(a), Some(b)) => Some(a.merge(b)),
                (a, b) => a.or(b),
            },
        }
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> Self {
        iter.fold(EngineStats::zeroed(), |acc, s| acc.merge(&s))
    }
}

impl<'a> std::iter::Sum<&'a EngineStats> for EngineStats {
    fn sum<I: Iterator<Item = &'a EngineStats>>(iter: I) -> Self {
        iter.fold(EngineStats::zeroed(), |acc, s| acc.merge(s))
    }
}

/// A thread-safe, batched, multi-release query frontend.
///
/// ```
/// use dpgrid_core::{Method, Pipeline};
/// use dpgrid_geo::generators::PaperDataset;
/// use dpgrid_geo::Rect;
/// use dpgrid_serve::{Catalog, QueryEngine, QueryRequest};
///
/// let dataset = PaperDataset::Storage.generate_n(1, 2_000).unwrap();
/// let mut catalog = Catalog::new();
/// Pipeline::new(&dataset)
///     .method(Method::ug(16))
///     .seed(7)
///     .publish_into(&mut catalog, "storage")
///     .unwrap();
///
/// let engine = QueryEngine::new(catalog);
/// let q = Rect::new(-100.0, 30.0, -90.0, 40.0).unwrap();
/// let response = engine
///     .answer(&QueryRequest::new("storage", vec![q]))
///     .unwrap();
/// assert_eq!(response.answers.len(), 1);
/// assert_eq!(response.version, 1);
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    catalog: Mutex<Catalog>,
    /// Worker budget for one batch: 0 means adaptive (the
    /// `answer_all_batched` driver decides per batch).
    workers: usize,
    /// In-flight rectangle budget; requests that would exceed it shed.
    admission_limit: usize,
    inflight_rects: AtomicU64,
    requests: AtomicU64,
    answers: AtomicU64,
    unknown_keys: AtomicU64,
    shed: AtomicU64,
}

/// An admission reservation: `rects` rectangles counted in flight
/// until the permit drops (response computed or request failed).
#[derive(Debug)]
struct RectPermit<'a> {
    engine: &'a QueryEngine,
    rects: u64,
}

impl Drop for RectPermit<'_> {
    fn drop(&mut self) {
        self.engine
            .inflight_rects
            .fetch_sub(self.rects, Ordering::Relaxed);
    }
}

/// Phase-one outcome for one request of a batch: shed at admission, or
/// admitted with its catalog lease.
enum Prepared<'a> {
    Shed(ServeError),
    Admitted {
        /// Held (in flight) until the request's answers are computed.
        permit: RectPermit<'a>,
        lease: Result<Lease>,
    },
}

impl QueryEngine {
    /// Wraps `catalog` with the adaptive worker policy and the
    /// [`DEFAULT_ADMISSION_LIMIT`] in-flight rectangle budget.
    pub fn new(catalog: Catalog) -> Self {
        QueryEngine {
            catalog: Mutex::new(catalog),
            workers: 0,
            admission_limit: DEFAULT_ADMISSION_LIMIT,
            inflight_rects: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            answers: AtomicU64::new(0),
            unknown_keys: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Pins the total worker budget per batch. `1` answers strictly
    /// sequentially (the benchmarking baseline); `n > 1` shards every
    /// batch of several requests over up to `n` threads however little
    /// work it holds; `0` restores the adaptive policy, which sizes the
    /// fan-out from [`dpgrid_geo::available_parallelism`] and the
    /// batch's work (see the module docs).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounds the number of rectangles the engine answers concurrently.
    ///
    /// A request whose rectangles do not fit under the budget —
    /// including a single request larger than the whole budget — is
    /// shed with [`ServeError::Overloaded`] instead of queueing. This
    /// is the engine's backpressure seam: transports map the error to
    /// a retryable wire code rather than letting load queue
    /// unboundedly behind the listener.
    pub fn with_admission_limit(mut self, rects: usize) -> Self {
        self.admission_limit = rects;
        self
    }

    /// The configured worker budget (0 = adaptive).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The in-flight rectangle budget.
    pub fn admission_limit(&self) -> usize {
        self.admission_limit
    }

    /// Inserts (or re-versions) a release, returning its version.
    /// Concurrent queries keep answering against the surface they
    /// already leased.
    pub fn insert(&self, key: impl Into<String>, release: Release) -> u64 {
        self.lock().insert(key, release)
    }

    /// Runs `f` with exclusive access to the wrapped catalog — the
    /// escape hatch for maintenance (directory loads, removals,
    /// budget inspection) without tearing the engine down.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        f(&mut self.lock())
    }

    /// The sorted release keys currently held (the engine's advertised
    /// keyspace; takes the catalog lock briefly).
    pub fn keys(&self) -> Vec<String> {
        self.lock().keys()
    }

    /// Answers one request: admits its rectangles against the
    /// in-flight budget, resolves the release's compiled surface
    /// (compiling outside the catalog lock if cold), then answers
    /// every rectangle with no lock held — the same
    /// admit → lease → finish flow as one slot of [`answer_batch`],
    /// so both paths share their accounting.
    ///
    /// [`answer_batch`]: QueryEngine::answer_batch
    pub fn answer(&self, request: &QueryRequest) -> Result<QueryResponse> {
        let prepared = match self.admit(request.rects.len()) {
            Err(e) => Prepared::Shed(e),
            Ok(permit) => Prepared::Admitted {
                permit,
                lease: self.lock().lease(&request.release_key),
            },
        };
        self.finish_prepared(request, prepared, self.workers)
    }

    /// Routes a batch of requests across releases: every request is
    /// admitted against the in-flight rectangle budget (those that do
    /// not fit are shed with [`ServeError::Overloaded`], without
    /// touching the catalog), warm surfaces are leased under one short
    /// catalog lock, then the requests are sharded over
    /// `std::thread::scope` workers when the batch's work pays for
    /// them — cold compilations run on the workers with no lock held
    /// (concurrently across distinct releases, exactly once per release
    /// whatever the batch shape) — and each request's rectangles are
    /// answered through the shared batched driver.
    ///
    /// Responses come back in request order; a request for an unknown
    /// key (or one shed by admission control) fails alone without
    /// poisoning the rest of the batch.
    pub fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        // Phase one: admission (lock-free), then warm handles and cold
        // leases for the admitted requests under one short lock.
        let permits: Vec<Result<RectPermit>> =
            requests.iter().map(|r| self.admit(r.rects.len())).collect();
        let mut prepared: Vec<Option<Prepared>> = {
            let mut catalog = self.lock();
            requests
                .iter()
                .zip(permits)
                .map(|(r, permit)| {
                    Some(match permit {
                        Err(e) => Prepared::Shed(e),
                        Ok(permit) => Prepared::Admitted {
                            permit,
                            lease: catalog.lease(&r.release_key),
                        },
                    })
                })
                .collect()
        };
        // Phase two runs inside the shards: each worker finishes its
        // requests' leases (cold compiles execute on the worker, so a
        // batch over K cold releases compiles them concurrently — the
        // per-release `OnceLock` dedups same-key races) and answers.
        // Other threads keep leasing and inserting meanwhile.
        let shards = requests.len().min(self.budget(&prepared)).max(1);
        if shards <= 1 {
            return requests
                .iter()
                .zip(&mut prepared)
                .map(|(req, slot)| {
                    self.finish_prepared(req, slot.take().expect("prepared once"), self.workers)
                })
                .collect();
        }
        // Shard requests across scoped workers. With a pinned budget,
        // divide it so the per-request fan-out keeps the total thread
        // count near the budget instead of multiplying the two levels;
        // the adaptive policy (0) needs no division — the shared
        // driver already counts concurrent fan-outs and sizes itself.
        let per_request = if self.workers == 0 {
            0
        } else {
            (self.workers / shards).max(1)
        };
        let chunk = requests.len().div_ceil(shards);
        let mut out: Vec<Option<Result<QueryResponse>>> = requests.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            for ((req_chunk, prep_chunk), out_chunk) in requests
                .chunks(chunk)
                .zip(prepared.chunks_mut(chunk))
                .zip(out.chunks_mut(chunk))
            {
                scope.spawn(move || {
                    for ((req, prep), slot) in req_chunk.iter().zip(prep_chunk).zip(out_chunk) {
                        *slot = Some(self.finish_prepared(
                            req,
                            prep.take().expect("prepared once"),
                            per_request,
                        ));
                    }
                });
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every shard fills its slots"))
            .collect()
    }

    /// Point-in-time counters (takes the catalog lock briefly).
    ///
    /// Reconciles the catalog first, so surfaces compiled through the
    /// [`QueryEngine::with_catalog`] escape hatch are swept into the
    /// byte budget before the counters are read — an idle engine's
    /// stats never under-report residency or leave the budget sitting
    /// violated until the next query arrives.
    pub fn stats(&self) -> EngineStats {
        let catalog = {
            let mut catalog = self.lock();
            catalog.reconcile();
            catalog.stats()
        };
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            answers: self.answers.load(Ordering::Relaxed),
            unknown_keys: self.unknown_keys.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            inflight_rects: self.inflight_rects.load(Ordering::Relaxed),
            admission_limit: self.admission_limit as u64,
            catalog,
            transport: None,
            kernel_backend: Some(KernelBackend::current()),
        }
    }

    /// Reserves `rects` rectangles against the in-flight budget, or
    /// sheds with [`ServeError::Overloaded`]. The returned permit
    /// releases the reservation on drop.
    ///
    /// The reservation commits only when it fits (compare-exchange),
    /// so an oversized request that can never be admitted leaves no
    /// transient spike in the counter — concurrent requests that do
    /// fit are never spuriously shed by a rejected one.
    fn admit(&self, rects: usize) -> Result<RectPermit<'_>> {
        let rects = rects as u64;
        let limit = self.admission_limit as u64;
        let mut inflight = self.inflight_rects.load(Ordering::Relaxed);
        loop {
            if inflight + rects > limit {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    inflight_rects: inflight,
                    limit,
                });
            }
            match self.inflight_rects.compare_exchange_weak(
                inflight,
                inflight + rects,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Ok(RectPermit {
                        engine: self,
                        rects,
                    })
                }
                Err(current) => inflight = current,
            }
        }
    }

    /// Completes one prepared batch slot: shed requests fail typed,
    /// admitted ones finish their lease and answer (the permit stays
    /// alive — rects count as in flight — until the answers exist).
    fn finish_prepared(
        &self,
        req: &QueryRequest,
        prepared: Prepared<'_>,
        workers: usize,
    ) -> Result<QueryResponse> {
        match prepared {
            Prepared::Shed(e) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
            Prepared::Admitted { permit, lease } => {
                let resolved = self.finish_lease(&req.release_key, lease);
                let response = self.respond(req, resolved, workers);
                drop(permit);
                response
            }
        }
    }

    /// Turns a phase-one lease into a handle, running any compilation
    /// with no lock held.
    fn finish_lease(&self, key: &str, lease: Result<Lease>) -> Result<SurfaceHandle> {
        match lease? {
            Lease::Warm(handle) => Ok(handle),
            Lease::Cold(cold) => {
                let handle = cold.compile();
                self.lock().note_compiled(key, handle.version);
                Ok(handle)
            }
        }
    }

    /// Answers `request` against an already-resolved surface handle,
    /// with `workers` = 0 meaning the adaptive driver.
    fn respond(
        &self,
        request: &QueryRequest,
        resolved: Result<SurfaceHandle>,
        workers: usize,
    ) -> Result<QueryResponse> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let handle = match resolved {
            Ok(handle) => handle,
            Err(e) => {
                if matches!(e, ServeError::UnknownRelease(_)) {
                    self.unknown_keys.fetch_add(1, Ordering::Relaxed);
                }
                return Err(e);
            }
        };
        let answers = if workers == 0 {
            // Adaptive: the shared driver sizes the fan-out against the
            // machine and the other fan-outs currently in flight.
            handle.surface.answer_all(&request.rects)
        } else {
            answer_all_with_workers(&request.rects, |q| handle.surface.answer(q), workers)
        };
        self.answers
            .fetch_add(answers.len() as u64, Ordering::Relaxed);
        Ok(QueryResponse {
            release_key: request.release_key.clone(),
            version: handle.version,
            cache: handle.cache,
            answers,
        })
    }

    /// Total worker budget for one phase-one batch. Pinned, it is the
    /// configured count. Adaptive, it is the host's parallelism (read
    /// once per process), capped by the work a thread would get: one
    /// per [`MIN_QUERIES_PER_THREAD`] admitted rectangles, or one per
    /// cold lease so that cold compiles still run concurrently.
    fn budget(&self, prepared: &[Option<Prepared<'_>>]) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        let (mut rects, mut cold) = (0, 0);
        for slot in prepared {
            if let Some(Prepared::Admitted { permit, lease }) = slot {
                rects += permit.rects as usize;
                cold += usize::from(matches!(lease, Ok(Lease::Cold(_))));
            }
        }
        available_parallelism().min((rects / MIN_QUERIES_PER_THREAD).max(cold))
    }

    /// The catalog lock, surviving panics in other lock holders: the
    /// catalog's state stays consistent under poisoning because every
    /// mutation (insert, touch, evict) completes or never started.
    fn lock(&self) -> MutexGuard<'_, Catalog> {
        self.catalog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Zero-copy handoff from [`dpgrid_core::Pipeline::publish_into`].
impl ReleaseSink for QueryEngine {
    fn accept_release(&mut self, key: String, release: Release) {
        self.insert(key, release);
    }

    /// Removes `key` from the wrapped catalog; in-flight queries that
    /// already leased its surface keep answering through their `Arc`.
    fn evict_release(&mut self, key: &str) -> bool {
        self.with_catalog(|catalog| catalog.remove(key).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use dpgrid_core::{Method, Pipeline};
    use dpgrid_geo::generators::PaperDataset;

    fn engine_with(keys: &[(&str, u64)]) -> QueryEngine {
        let ds = PaperDataset::Storage.generate_n(3, 2_000).unwrap();
        let mut catalog = Catalog::new();
        for (key, seed) in keys {
            Pipeline::new(&ds)
                .method(Method::ug(12))
                .seed(*seed)
                .publish_into(&mut catalog, *key)
                .unwrap();
        }
        QueryEngine::new(catalog)
    }

    fn rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Rect::new(
                    -120.0 + 30.0 * t,
                    15.0 + 20.0 * t,
                    -90.0 + 10.0 * t,
                    40.0 + 5.0 * t,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn answer_routes_and_reports_cache_state() {
        let engine = engine_with(&[("a", 1), ("b", 2)]);
        let req = QueryRequest::new("a", rects(5));
        let cold = engine.answer(&req).unwrap();
        assert_eq!(cold.cache, CacheState::Cold);
        assert_eq!(cold.answers.len(), 5);
        assert_eq!(cold.version, 1);
        let warm = engine.answer(&req).unwrap();
        assert_eq!(warm.cache, CacheState::Warm);
        assert_eq!(warm.answers, cold.answers);
        assert!(matches!(
            engine.answer(&QueryRequest::new("zz", rects(1))),
            Err(ServeError::UnknownRelease(_))
        ));
        let stats = engine.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.answers, 10);
        assert_eq!(stats.unknown_keys, 1);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.inflight_rects, 0);
        assert_eq!(stats.catalog.compilations, 1);
    }

    #[test]
    fn answer_batch_keeps_request_order_and_isolates_failures() {
        let engine = engine_with(&[("a", 1), ("b", 2), ("c", 3)]);
        let requests = vec![
            QueryRequest::new("c", rects(4)),
            QueryRequest::new("missing", rects(2)),
            QueryRequest::new("a", rects(3)),
            QueryRequest::new("c", rects(4)),
        ];
        let responses = engine.answer_batch(&requests);
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[0].as_ref().unwrap().release_key, "c");
        assert!(matches!(
            responses[1],
            Err(ServeError::UnknownRelease(ref k)) if k == "missing"
        ));
        assert_eq!(responses[2].as_ref().unwrap().release_key, "a");
        // Same release twice in one batch: both leases predate the
        // compile so both report cold, but the release's `OnceLock`
        // compiled once and the catalog counted once.
        assert_eq!(responses[0].as_ref().unwrap().cache, CacheState::Cold);
        assert_eq!(responses[3].as_ref().unwrap().cache, CacheState::Cold);
        assert_eq!(
            responses[0].as_ref().unwrap().answers,
            responses[3].as_ref().unwrap().answers
        );
        assert_eq!(engine.stats().catalog.compilations, 2);
        // The next batch runs entirely warm.
        for response in engine.answer_batch(&requests[2..]) {
            assert_eq!(response.unwrap().cache, CacheState::Warm);
        }
        assert_eq!(engine.stats().catalog.compilations, 2);
    }

    #[test]
    fn batch_matches_per_request_answers_across_worker_policies() {
        let requests: Vec<QueryRequest> = [("a", 40), ("b", 7), ("a", 1)]
            .iter()
            .map(|(k, n)| QueryRequest::new(*k, rects(*n)))
            .collect();
        let sequential = engine_with(&[("a", 1), ("b", 2)]).with_workers(1);
        let expected: Vec<Vec<f64>> = requests
            .iter()
            .map(|r| sequential.answer(r).unwrap().answers)
            .collect();
        for workers in [0usize, 1, 2, 4] {
            let engine = engine_with(&[("a", 1), ("b", 2)]).with_workers(workers);
            let responses = engine.answer_batch(&requests);
            for (resp, expect) in responses.iter().zip(&expected) {
                assert_eq!(&resp.as_ref().unwrap().answers, expect, "workers {workers}");
            }
        }
    }

    #[test]
    fn adaptive_budget_spawns_only_for_rects_or_cold_compiles() {
        let engine = engine_with(&[("a", 1), ("b", 2), ("c", 3)]);
        let slot = |key: &str, n: usize| {
            Some(Prepared::Admitted {
                permit: engine.admit(n).unwrap(),
                lease: engine.lock().lease(key),
            })
        };
        let cold: Vec<_> = ["a", "b", "c"].iter().map(|k| slot(k, 1)).collect();
        assert_eq!(engine.budget(&cold), available_parallelism().min(3));
        drop(cold);
        for key in ["a", "b", "c"] {
            engine.answer(&QueryRequest::new(key, rects(1))).unwrap();
        }
        let warm_small: Vec<_> = ["a", "b", "c"].iter().map(|k| slot(k, 64)).collect();
        assert_eq!(engine.budget(&warm_small), 0);
        let warm_large: Vec<_> = (0..8).map(|_| slot("a", 2 * 64)).collect();
        assert_eq!(engine.budget(&warm_large), available_parallelism().min(4));
        let pinned = engine_with(&[("a", 1)]).with_workers(3);
        assert_eq!(pinned.budget(&[]), 3);
    }

    #[test]
    fn admission_sheds_oversized_requests_with_typed_overload() {
        let engine = engine_with(&[("a", 1)]).with_admission_limit(8);
        assert_eq!(engine.admission_limit(), 8);
        // Within budget: answered normally.
        assert!(engine.answer(&QueryRequest::new("a", rects(8))).is_ok());
        // A single request larger than the whole budget sheds — it can
        // never be admitted, and typed rejection beats a silent hang.
        let big = QueryRequest::new("a", rects(9));
        match engine.answer(&big) {
            Err(ServeError::Overloaded {
                inflight_rects,
                limit,
            }) => {
                assert_eq!(inflight_rects, 0);
                assert_eq!(limit, 8);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 2);
        // The budget fully recovers: nothing leaked in flight.
        assert_eq!(stats.inflight_rects, 0);
        assert!(engine.answer(&QueryRequest::new("a", rects(8))).is_ok());
    }

    #[test]
    fn batch_sheds_excess_load_without_poisoning_admitted_requests() {
        let engine = engine_with(&[("a", 1), ("b", 2)]).with_admission_limit(10);
        // 4 + 4 fit; the third request (4 more) exceeds 10 and sheds;
        // the last fits again only if the earlier permits were still
        // held — within one batch they are, so it sheds too.
        let requests = vec![
            QueryRequest::new("a", rects(4)),
            QueryRequest::new("b", rects(4)),
            QueryRequest::new("a", rects(4)),
            QueryRequest::new("b", rects(4)),
        ];
        let responses = engine.answer_batch(&requests);
        assert!(responses[0].is_ok());
        assert!(responses[1].is_ok());
        assert!(matches!(responses[2], Err(ServeError::Overloaded { .. })));
        assert!(matches!(responses[3], Err(ServeError::Overloaded { .. })));
        assert_eq!(engine.stats().shed, 2);
        assert_eq!(engine.stats().inflight_rects, 0);
        // After the batch, the shed requests go through alone.
        assert!(engine.answer(&requests[2]).is_ok());
    }

    #[test]
    fn insert_through_engine_reversions_live_keys() {
        let engine = engine_with(&[("a", 1)]);
        let req = QueryRequest::new("a", rects(3));
        let before = engine.answer(&req).unwrap();
        let ds = PaperDataset::Storage.generate_n(3, 2_000).unwrap();
        let v2 = engine.insert(
            "a",
            Pipeline::new(&ds)
                .method(Method::ug(12))
                .seed(99)
                .publish()
                .unwrap(),
        );
        assert_eq!(v2, 2);
        let after = engine.answer(&req).unwrap();
        assert_eq!(after.version, 2);
        assert_eq!(after.cache, CacheState::Cold);
        assert_ne!(before.answers, after.answers);
    }
}
