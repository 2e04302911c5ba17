//! Server-side transport counters.
//!
//! A [`TransportCounters`] cell, one per server, is incremented by the
//! run loop and the connection state machines and snapshotted into the
//! wire-visible [`dpgrid_serve::TransportStats`]. The [`Instrumented`]
//! service wrapper splices that snapshot into every `Stats` response —
//! additively, so a tier that aggregates engines *and* fronts them
//! with servers sums both layers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpgrid_serve::{
    EngineStats, QueryRequest, QueryResponse, QueryService, TransportStats, WindowAnswer,
    WindowQuery,
};

/// Live transport counters — one cell per server, touched from every
/// connection (relaxed atomics: these are monotone statistics, not
/// synchronization).
#[derive(Debug, Default)]
pub(crate) struct TransportCounters {
    pub accepted: AtomicU64,
    pub active: AtomicU64,
    /// Response frames queued/written (the public `frames_served`).
    pub responses: AtomicU64,
    /// Request frames that decoded into a dispatchable body.
    pub frames_decoded: AtomicU64,
    pub read_stalls: AtomicU64,
    pub write_stalls: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    /// Individual LDP reports acknowledged on the write path — the sum
    /// of every `Report` ack's `accepted` count (a rejected batch
    /// answers an error frame and counts nothing), kept apart from
    /// `frames_decoded`, which counts request frames regardless of
    /// kind or batch size.
    pub reports_accepted: AtomicU64,
}

impl TransportCounters {
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a dispatched response that acknowledged a `Report`
    /// batch — called at every dispatch site (both codecs) so the
    /// write path is visible in `Stats` wherever it entered.
    pub fn count_report_ack(&self, response: &dpgrid_serve::wire::WireResponse) {
        if let dpgrid_serve::wire::ResponseBody::Report(ack) = &response.body {
            self.add(&self.reports_accepted, ack.accepted);
        }
    }

    /// The wire-visible snapshot.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            frames_decoded: self.frames_decoded.load(Ordering::Relaxed),
            read_stalls: self.read_stalls.load(Ordering::Relaxed),
            write_stalls: self.write_stalls.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            reports_accepted: self.reports_accepted.load(Ordering::Relaxed),
        }
    }
}

/// Wraps the served [`QueryService`] so `Stats` responses carry this
/// server's transport counters. Everything else forwards untouched —
/// including [`QueryService::window`], so a service with a native
/// window path (a remote shard) keeps it.
pub(crate) struct Instrumented<S: ?Sized> {
    counters: Arc<TransportCounters>,
    inner: Arc<S>,
}

impl<S: ?Sized> Instrumented<S> {
    pub fn new(inner: Arc<S>, counters: Arc<TransportCounters>) -> Self {
        Instrumented { counters, inner }
    }
}

impl<S: QueryService + ?Sized> QueryService for Instrumented<S> {
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<dpgrid_serve::Result<QueryResponse>> {
        self.inner.answer_batch(requests)
    }

    fn stats(&self) -> EngineStats {
        let mut stats = self.inner.stats();
        let transport = self.counters.snapshot();
        stats.transport = Some(match stats.transport {
            // A service that already reports transport traffic (a
            // router over remote shards) adds this server's on top.
            Some(inner) => inner.merge(&transport),
            None => transport,
        });
        stats
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn window(&self, query: &WindowQuery) -> dpgrid_serve::Result<WindowAnswer> {
        self.inner.window(query)
    }

    fn reports(&self) -> Option<&dyn dpgrid_serve::ReportService> {
        self.inner.reports()
    }
}
