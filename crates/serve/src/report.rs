//! The write path: typed LDP report batches and the [`ReportService`]
//! seam.
//!
//! The `Report` wire kind is the protocol's only **mutating**
//! request: instead of reading a release, a client uploads a batch of
//! locally-perturbed frequency-oracle reports (GRR cell indices or
//! packed OUE bit vectors) for one `(keyspace, epoch)` pair. The
//! transport dispatches the decoded batch through [`ReportService`] —
//! a seam deliberately separate from [`crate::QueryService`]'s read
//! methods, reached via [`crate::QueryService::reports`]: a service
//! without a collector simply returns `None` and the dispatch layer
//! answers `MalformedRequest`: the service has nowhere to put the
//! batch.
//!
//! The serve crate defines only the shapes; the aggregation itself —
//! flat-vector accumulators, debiasing, epoch sealing into releases —
//! lives in the `dpgrid-ldp` crate, which implements this trait.

use crate::error::Result;

/// The payload of one report batch: homogeneous reports from one
/// oracle family, already perturbed client-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportPayload {
    /// Generalized-randomized-response reports: one perturbed cell
    /// index per report.
    Grr(Vec<u32>),
    /// Optimized-unary-encoding reports: `count` reports of
    /// `⌈cells/64⌉` packed words each, concatenated in report order
    /// (cell `j` is bit `j % 64` of word `j / 64` within a report).
    Oue {
        /// Number of reports packed into `bits`.
        count: u32,
        /// `count × ⌈cells/64⌉` packed words.
        bits: Vec<u64>,
    },
}

/// One decoded, shape-validated batch of perturbed reports for a
/// single `(keyspace, epoch)` accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportBatch {
    /// The keyspace the sealed epoch will publish under.
    pub keyspace: String,
    /// The collection epoch the reports belong to.
    pub epoch: u64,
    /// The per-report ε the clients perturbed at. The collector
    /// verifies it matches the epoch's scheduled share — a mismatched
    /// ε would silently break the debiasing.
    pub epsilon: f64,
    /// The grid domain size `k` the reports cover; must match the
    /// collector's grid exactly.
    pub cells: u32,
    /// The reports themselves.
    pub payload: ReportPayload,
}

impl ReportBatch {
    /// Number of reports in the batch.
    pub fn count(&self) -> u64 {
        match &self.payload {
            ReportPayload::Grr(cells) => cells.len() as u64,
            ReportPayload::Oue { count, .. } => u64::from(*count),
        }
    }
}

/// The server's receipt for an accepted batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportAck {
    /// Echo of the batch's keyspace.
    pub keyspace: String,
    /// Echo of the batch's epoch.
    pub epoch: u64,
    /// Reports folded into the accumulator by this batch.
    pub accepted: u64,
    /// Total reports the `(keyspace, epoch)` accumulator now holds.
    pub epoch_total: u64,
}

/// Anything that can absorb batched LDP reports — the write-path twin
/// of [`crate::QueryService`].
///
/// `Send + Sync` for the same reason as the read path: one service
/// instance is shared across many connections, and batches arrive
/// concurrently. Failures are the ordinary typed [`crate::ServeError`]s
/// so transports map them onto wire errors with the machinery they
/// already have: `InvalidQuery` for batches the collector can never
/// accept (shape/ε/domain mismatch, sealed epoch), `UnknownRelease`
/// for a keyspace the collector does not aggregate, `Overloaded` for
/// a full epoch accumulator (back off and retry).
pub trait ReportService: Send + Sync {
    /// Folds one validated batch into the matching epoch accumulator.
    fn submit_reports(&self, batch: &ReportBatch) -> Result<ReportAck>;
}

/// Shared report services forward transparently, mirroring the
/// blanket [`crate::QueryService`] impl for `Arc`.
impl<R: ReportService + ?Sized> ReportService for std::sync::Arc<R> {
    fn submit_reports(&self, batch: &ReportBatch) -> Result<ReportAck> {
        (**self).submit_reports(batch)
    }
}
