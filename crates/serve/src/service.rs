//! The transport-facing service abstraction.
//!
//! A transport (TCP frontend, HTTP handler, in-process test double…)
//! should not care *which* engine answers its queries — only that
//! something can take [`QueryRequest`] batches and report stats. The
//! [`QueryService`] trait is that seam: [`QueryEngine`] implements it,
//! and the wire protocol ([`crate::wire`]) and every transport built
//! on it (e.g. the `dpgrid-net` TCP server) are written against the
//! trait, so a mock service, a sharding proxy or a future engine
//! swap in without touching transport code.

use std::sync::Arc;

use crate::engine::{EngineStats, QueryEngine, QueryRequest, QueryResponse};
use crate::error::Result;
use crate::window::{WindowAnswer, WindowQuery};

/// Anything that can answer batched release queries.
///
/// `Send + Sync` is a supertrait bound because transports hand one
/// service instance to many connection threads; implementations are
/// expected to use interior locking the way [`QueryEngine`] does.
///
/// Implementations must uphold the engine's response contract:
/// responses come back in request order, one per request, and a
/// failing request (unknown key, shed by admission control) fails
/// alone without poisoning the rest of the batch.
pub trait QueryService: Send + Sync {
    /// Answers a batch of requests, one result per request, in order.
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>>;

    /// Point-in-time traffic and cache counters.
    fn stats(&self) -> EngineStats;

    /// The advertised keyspace: sorted release keys this service can
    /// currently answer for. Travels on the wire as the `Keys`
    /// request, and the sharded serving tier uses it to verify
    /// placement (see [`crate::shard::Shard`]). A service may
    /// legitimately advertise a snapshot that is already stale by the
    /// time the caller acts on it — keys are serving metadata, not a
    /// consistency guarantee.
    fn keys(&self) -> Vec<String>;

    /// Answers a sliding-window query by summing the epoch surfaces
    /// covering `query.range` — see [`crate::window`] for the
    /// coverage contract.
    ///
    /// The default resolves coverage *here*, from this service's
    /// advertised [`keys`](QueryService::keys), and fans one
    /// [`answer_batch`](QueryService::answer_batch) over the covering
    /// surfaces — correct for any service. Implementations fronting a
    /// remote peer should override it to forward the window as one
    /// protocol frame instead (the `dpgrid-net` `RemoteShard` does),
    /// so a window costs one round trip rather than a keys dump plus
    /// a per-epoch fan-out.
    fn window(&self, query: &WindowQuery) -> Result<WindowAnswer> {
        crate::window::resolve_window_via_keys(self, query)
    }

    /// The write path, if this service has one: the
    /// [`ReportService`](crate::report::ReportService) that absorbs
    /// LDP report batches arriving on the same connections that answer
    /// queries. The default — `None` — makes the service read-only:
    /// with no collector to hand a batch to, the dispatch layer
    /// answers `Report` frames with `MalformedRequest`.
    fn reports(&self) -> Option<&dyn crate::report::ReportService> {
        None
    }
}

impl QueryService for QueryEngine {
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        QueryEngine::answer_batch(self, requests)
    }

    fn stats(&self) -> EngineStats {
        QueryEngine::stats(self)
    }

    fn keys(&self) -> Vec<String> {
        QueryEngine::keys(self)
    }
}

/// Shared services forward transparently, so transports can hold an
/// `Arc<QueryEngine>` (or `Arc<dyn QueryService>`) per connection
/// thread.
impl<S: QueryService + ?Sized> QueryService for Arc<S> {
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        (**self).answer_batch(requests)
    }

    fn stats(&self) -> EngineStats {
        (**self).stats()
    }

    fn keys(&self) -> Vec<String> {
        (**self).keys()
    }

    fn window(&self, query: &WindowQuery) -> Result<WindowAnswer> {
        (**self).window(query)
    }

    fn reports(&self) -> Option<&dyn crate::report::ReportService> {
        (**self).reports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;
    use dpgrid_core::{Method, Pipeline};
    use dpgrid_geo::generators::PaperDataset;
    use dpgrid_geo::Rect;

    #[test]
    fn engine_serves_through_the_trait_object() {
        let ds = PaperDataset::Storage.generate_n(5, 1_500).unwrap();
        let mut catalog = Catalog::new();
        Pipeline::new(&ds)
            .method(Method::ug(8))
            .seed(5)
            .publish_into(&mut catalog, "k")
            .unwrap();
        let service: Arc<dyn QueryService> = Arc::new(QueryEngine::new(catalog));
        let q = Rect::new(-120.0, 20.0, -90.0, 40.0).unwrap();
        let responses = service.answer_batch(&[QueryRequest::new("k", vec![q])]);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].as_ref().unwrap().answers.len(), 1);
        assert_eq!(service.stats().requests, 1);
        assert_eq!(service.keys(), vec!["k".to_string()]);
    }
}
