//! Wiring a collector into the serving stack: a [`QueryService`]
//! wrapper whose write path is a live [`ReportCollector`].

use std::sync::{Mutex, MutexGuard, PoisonError};

use dpgrid_core::ReleaseSink;
use dpgrid_serve::{
    EngineStats, QueryRequest, QueryResponse, QueryService, ReportAck, ReportBatch, ReportService,
    ServeError, WindowAnswer, WindowQuery,
};

use crate::collector::{ReportCollector, SealSummary};
use crate::error::LdpError;

/// A [`QueryService`] that answers reads through `inner` and absorbs
/// LDP report batches into an interior [`ReportCollector`] — the piece
/// that turns any existing read-side service (a `QueryEngine`, a shard
/// router, a mock) into a write-accepting front door: hand an
/// `Arc<CollectingService<…>>` to a transport and the `Report` wire
/// kind starts working on the same connections that answer queries.
///
/// Locking: the collector sits behind one mutex, taken per batch.
/// Report aggregation is memory-bandwidth work (microseconds per
/// batch), so a single lock is the right trade against the complexity
/// of sharded accumulators; reads never touch it.
pub struct CollectingService<S> {
    inner: S,
    collector: Mutex<ReportCollector>,
}

impl<S> CollectingService<S> {
    /// Wraps `inner` with a write path backed by `collector`.
    pub fn new(inner: S, collector: ReportCollector) -> Self {
        CollectingService {
            inner,
            collector: Mutex::new(collector),
        }
    }

    /// The wrapped read-side service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Runs `f` with exclusive access to the collector — for
    /// inspecting epoch state without sealing.
    pub fn with_collector<T>(&self, f: impl FnOnce(&mut ReportCollector) -> T) -> T {
        f(&mut self.lock())
    }

    /// Seals the open epoch and publishes it into `sink` in one step
    /// (see [`ReportCollector::publish_open_epoch`]). To publish into
    /// the wrapped engine itself, pass `&mut service.inner()`: a shared
    /// `&QueryEngine` is a [`ReleaseSink`].
    pub fn publish_open_epoch(&self, sink: &mut dyn ReleaseSink) -> crate::Result<SealSummary> {
        self.lock().publish_open_epoch(sink)
    }

    /// The collector lock, surviving poisoning: every collector
    /// mutation is all-or-nothing (a failed batch folds no tallies),
    /// so the state stays consistent even if another holder panicked.
    fn lock(&self) -> MutexGuard<'_, ReportCollector> {
        self.collector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Maps collector rejections onto the typed errors the wire layer
/// already carries: permanent shape/placement mistakes are
/// [`ServeError::InvalidQuery`], an unaggregated keyspace is
/// [`ServeError::UnknownRelease`], and a full epoch accumulator is
/// [`ServeError::Overloaded`] ("back off and retry after the seal"),
/// reusing the overload counters as reports-held / capacity.
fn to_serve_error(e: LdpError) -> ServeError {
    match e {
        LdpError::UnknownKeyspace { got, .. } => ServeError::UnknownRelease(got),
        LdpError::BufferOverflow {
            requested,
            capacity,
            ..
        } => ServeError::Overloaded {
            inflight_rects: requested,
            limit: capacity,
        },
        other => ServeError::InvalidQuery(other.to_string()),
    }
}

impl<S: QueryService> QueryService for CollectingService<S> {
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<dpgrid_serve::Result<QueryResponse>> {
        self.inner.answer_batch(requests)
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn window(&self, query: &WindowQuery) -> dpgrid_serve::Result<WindowAnswer> {
        self.inner.window(query)
    }

    fn reports(&self) -> Option<&dyn ReportService> {
        Some(self)
    }
}

impl<S: QueryService> ReportService for CollectingService<S> {
    fn submit_reports(&self, batch: &ReportBatch) -> dpgrid_serve::Result<ReportAck> {
        self.lock().submit(batch).map_err(to_serve_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorConfig;
    use dpgrid_core::TrustModel;
    use dpgrid_geo::Domain;
    use dpgrid_mech::BudgetSchedule;
    use dpgrid_serve::{Catalog, QueryEngine, ReportPayload};
    use std::sync::Arc;

    fn service() -> CollectingService<QueryEngine> {
        let config = CollectorConfig::new(
            "taxi",
            Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap(),
            8,
            8,
            BudgetSchedule::uniform(1.0, 2).unwrap(),
        )
        .unwrap()
        .capacity(100);
        CollectingService::new(
            QueryEngine::new(Catalog::new()),
            ReportCollector::new(config).unwrap(),
        )
    }

    fn batch(keyspace: &str, epsilon: f64, reports: Vec<u32>) -> ReportBatch {
        ReportBatch {
            keyspace: keyspace.into(),
            epoch: 0,
            epsilon,
            cells: 64,
            payload: ReportPayload::Grr(reports),
        }
    }

    #[test]
    fn reports_flow_through_the_service_seam_into_served_releases() {
        let service = service();
        let eps = service.with_collector(|c| c.open_epsilon().unwrap());

        // The seam is discoverable the way transports find it.
        let dyn_service: Arc<dyn QueryService> = Arc::new(service);
        let sink = dyn_service.reports().expect("write path exists");
        let ack = sink
            .submit_reports(&batch("taxi", eps, vec![3, 3, 7]))
            .unwrap();
        assert_eq!((ack.accepted, ack.epoch_total), (3, 3));

        // Typed error mapping at the seam.
        assert!(matches!(
            sink.submit_reports(&batch("bus", eps, vec![1])),
            Err(ServeError::UnknownRelease(k)) if k == "bus"
        ));
        assert!(matches!(
            sink.submit_reports(&batch("taxi", eps * 3.0, vec![1])),
            Err(ServeError::InvalidQuery(_))
        ));
        assert!(matches!(
            sink.submit_reports(&batch("taxi", eps, vec![0; 200])),
            Err(ServeError::Overloaded {
                inflight_rects: 203,
                limit: 100,
            })
        ));
    }

    #[test]
    fn sealing_publishes_into_the_wrapped_engine() {
        let service = service();
        let eps = service.with_collector(|c| c.open_epsilon().unwrap());
        service
            .reports()
            .unwrap()
            .submit_reports(&batch("taxi", eps, vec![5; 40]))
            .unwrap();
        let summary = service.publish_open_epoch(&mut service.inner()).unwrap();
        assert_eq!(summary.key, "taxi@epoch:0");
        let release = service
            .inner()
            .with_catalog(|c| c.release(&summary.key).cloned());
        assert_eq!(release.unwrap().metadata().trust, TrustModel::Local);
        assert_eq!(service.keys(), vec!["taxi@epoch:0".to_string()]);
    }
}
