//! The versioned wire protocol of the serving API.
//!
//! Transports exchange single-line JSON frames: a [`WireRequest`] in,
//! a [`WireResponse`] out, both carrying [`PROTOCOL_VERSION`] so
//! incompatible peers fail fast with a typed error instead of
//! mis-decoding each other. The module is transport-agnostic — it
//! defines the frame types, their validation, and
//! [`handle_frame`], which dispatches one decoded frame against any
//! [`QueryService`]; the `dpgrid-net` crate supplies the TCP framing
//! around it.
//!
//! # Boundary validation
//!
//! Query rectangles arrive as raw [`WireRect`] coordinates and are
//! validated **here**, at the API boundary: NaN or infinite
//! coordinates and inverted (`min > max`) rectangles are rejected with
//! [`ErrorCode::InvalidQuery`] before anything reaches the engine, so
//! the serving core only ever sees well-formed [`Rect`]s.
//!
//! # Error codes
//!
//! Failures travel as [`WireError`] with a stable [`ErrorCode`], so
//! clients can branch without parsing messages: `UnknownKey` (wrong
//! release), `InvalidQuery` (malformed rectangle), `Overloaded`
//! (admission control shed the request — back off and retry),
//! `MalformedRequest` (frame did not parse), `UnsupportedVersion`
//! (protocol mismatch) and `Internal` (server-side failure). Codes are
//! serialised as their variant names; new codes may be added, but
//! existing names never change meaning.
//!
//! # Versioning policy
//!
//! [`PROTOCOL_VERSION`] bumps when the bytes of an existing frame kind
//! change meaning (renamed fields, changed semantics). Peers reject
//! frames from other versions with `UnsupportedVersion`. Encoders write
//! every field of a frame, and a frame missing one does not decode.
//! Adding or removing a *kind* does not bump it: a kind a server lacks,
//! whether added after it or removed before it, fails to decode and is
//! answered `MalformedRequest` under the frame's id, and the connection
//! stays usable. So a raw-line peer of any earlier build keeps working
//! for every kind both sides know.
//!
//! # Two codecs, one protocol
//!
//! The frame *types* above are codec-agnostic. Two encodings carry
//! them, and every frame names its own by its first bytes:
//!
//! * **JSON v1** — single-line JSON frames (this module's
//!   `encode`/`decode`), what raw-line peers (scripts, `nc`) speak.
//! * **Binary v2** — length-prefixed binary frames ([`binary`]), each
//!   opening with [`binary::MAGIC`]. A JSON text begins with ASCII
//!   whitespace or an ASCII value byte, and the magic's first byte is
//!   not ASCII, so a transport tells the codecs apart frame by frame
//!   and answers each frame in the codec it arrived in. There is no
//!   negotiation and no per-connection codec state. The `dpgrid-net`
//!   client speaks only this codec.
//!
//! Dispatch is codec-generic: both codecs decode into the same
//! [`RequestBody`], go through the same [`dispatch`] (one validation
//! path, one [`ErrorCode`] table), and encode the same
//! [`ResponseBody`].

use dpgrid_geo::Rect;
use serde::{Deserialize, Serialize};

use crate::catalog::CacheState;
use crate::engine::{EngineStats, QueryRequest, QueryResponse};
use crate::error::ServeError;
use crate::report::ReportBatch;
use crate::service::QueryService;

pub mod binary;

/// Version of the JSON line frame format defined by this module.
/// Incompatible changes bump it; both sides reject other versions. The
/// binary codec carries its own, [`binary::PROTOCOL_VERSION`] (2), in
/// every frame header.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one encoded frame's bytes (newline included), in
/// both directions. Servers reject (and close) connections whose
/// inbound frame grows past it; clients refuse to *send* a larger
/// frame with a typed error instead of letting the server slam the
/// door mid-write — the two sides share this constant so an
/// admissible-but-huge batch fails fast and attributably at the
/// sender. Generous: the largest legitimate frames (multi-thousand-
/// rect batches) are well under 1 MiB.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// A rectangle as raw wire coordinates, **not yet validated**.
///
/// The half-open `[x0, x1) × [y0, y1)` convention matches [`Rect`];
/// [`WireRect::validate`] is the only path from the wire into the
/// typed geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireRect {
    /// Lower x edge.
    pub x0: f64,
    /// Lower y edge.
    pub y0: f64,
    /// Upper x edge (exclusive).
    pub x1: f64,
    /// Upper y edge (exclusive).
    pub y1: f64,
}

impl WireRect {
    /// Validates the raw coordinates into a [`Rect`], rejecting NaN,
    /// infinite and inverted (`min > max`) rectangles with
    /// [`ServeError::InvalidQuery`].
    pub fn validate(&self) -> crate::Result<Rect> {
        Rect::new(self.x0, self.y0, self.x1, self.y1)
            .map_err(|e| ServeError::InvalidQuery(e.to_string()))
    }
}

impl From<&Rect> for WireRect {
    fn from(r: &Rect) -> Self {
        WireRect {
            x0: r.x0(),
            y0: r.y0(),
            x1: r.x1(),
            y1: r.y1(),
        }
    }
}

/// One release query as it travels on the wire: a key plus raw
/// rectangles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireQuery {
    /// Catalog key of the release to answer from.
    pub release_key: String,
    /// Query rectangles, answered in order.
    pub rects: Vec<WireRect>,
}

/// A sliding-window query as it travels on the wire: a keyspace, a
/// half-open epoch range, and raw rectangles. Epoch indices — not raw
/// timestamps — cross the wire; clients convert wall-clock windows at
/// the edge via [`dpgrid_core::EpochLayout::window`], which implements
/// the outward-widening epoch-granularity contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireWindow {
    /// The keyspace whose epoch releases are summed.
    pub keyspace: String,
    /// First epoch of the window.
    pub epoch_start: u64,
    /// One past the last epoch of the window (must be `> epoch_start`).
    pub epoch_end: u64,
    /// Query rectangles, answered in order.
    pub rects: Vec<WireRect>,
}

impl WireWindow {
    /// Builds the wire form of an in-process
    /// [`WindowQuery`](crate::window::WindowQuery).
    pub fn from_query(query: &crate::window::WindowQuery) -> Self {
        WireWindow {
            keyspace: query.keyspace.clone(),
            epoch_start: query.range.start,
            epoch_end: query.range.end,
            rects: query.rects.iter().map(WireRect::from).collect(),
        }
    }

    /// Validates the raw window into a typed
    /// [`WindowQuery`](crate::window::WindowQuery): the epoch range
    /// must be non-empty and every rectangle well-formed, rejected
    /// with [`ServeError::InvalidQuery`] otherwise.
    pub fn validate(&self) -> crate::Result<crate::window::WindowQuery> {
        let range =
            dpgrid_core::EpochRange::new(self.epoch_start, self.epoch_end).ok_or_else(|| {
                ServeError::InvalidQuery(format!(
                    "window epoch range [{}, {}) is empty",
                    self.epoch_start, self.epoch_end
                ))
            })?;
        let mut rects = Vec::with_capacity(self.rects.len());
        for (i, r) in self.rects.iter().enumerate() {
            rects.push(r.validate().map_err(|e| match e {
                ServeError::InvalidQuery(why) => {
                    ServeError::InvalidQuery(format!("rect #{i}: {why}"))
                }
                other => other,
            })?);
        }
        Ok(crate::window::WindowQuery {
            keyspace: self.keyspace.clone(),
            range,
            rects,
        })
    }
}

/// One covered epoch range inside a [`WireWindowAnswers`], as plain
/// wire integers (half-open, `start < end`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireEpochSpan {
    /// First epoch covered.
    pub start: u64,
    /// One past the last epoch covered.
    pub end: u64,
}

/// The answers to one [`WireWindow`]: element-wise sums over the
/// covered epoch surfaces plus exactly which ranges those were (a
/// window straddling a compacted tier visibly widens here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireWindowAnswers {
    /// The queried keyspace.
    pub keyspace: String,
    /// Epoch ranges actually summed, ascending and disjoint.
    pub covered: Vec<WireEpochSpan>,
    /// One summed estimate per requested rectangle, same order.
    pub answers: Vec<f64>,
}

impl WireWindowAnswers {
    /// Builds the wire form of an in-process
    /// [`WindowAnswer`](crate::window::WindowAnswer), moving its
    /// keyspace and answers into the frame.
    pub fn from_answer(answer: crate::window::WindowAnswer) -> Self {
        WireWindowAnswers {
            keyspace: answer.keyspace,
            covered: answer
                .covered
                .iter()
                .map(|r| WireEpochSpan {
                    start: r.start,
                    end: r.end,
                })
                .collect(),
            answers: answer.answers,
        }
    }

    /// The in-process answer this frame carries. Fails with
    /// [`ServeError::InvalidQuery`] when a span is empty or inverted
    /// (a malformed peer; typed ranges cannot represent it).
    pub fn into_answer(self) -> crate::Result<crate::window::WindowAnswer> {
        let mut covered = Vec::with_capacity(self.covered.len());
        for span in &self.covered {
            covered.push(
                dpgrid_core::EpochRange::new(span.start, span.end).ok_or_else(|| {
                    ServeError::InvalidQuery(format!(
                        "covered span [{}, {}) is empty",
                        span.start, span.end
                    ))
                })?,
            );
        }
        Ok(crate::window::WindowAnswer {
            keyspace: self.keyspace,
            covered,
            answers: self.answers,
        })
    }
}

impl WireQuery {
    /// Validates every rectangle, producing the typed in-process
    /// request. Fails on the first invalid rectangle with its index.
    pub fn validate(&self) -> crate::Result<QueryRequest> {
        let mut rects = Vec::with_capacity(self.rects.len());
        for (i, r) in self.rects.iter().enumerate() {
            rects.push(r.validate().map_err(|e| match e {
                // Re-wrap the inner detail with the rect index rather
                // than nesting two "invalid query:" display prefixes.
                ServeError::InvalidQuery(why) => {
                    ServeError::InvalidQuery(format!("rect #{i}: {why}"))
                }
                other => other,
            })?);
        }
        Ok(QueryRequest::new(self.release_key.clone(), rects))
    }
}

/// One batch of locally-perturbed frequency-oracle reports, as it
/// travels in a [`RequestBody::Report`] frame — the protocol's first
/// mutating request kind.
///
/// The shape is deliberately flat (an `oracle` tag plus per-family
/// fields) rather than an enum, so the JSON form stays simple and the
/// binary codec can pack the report vector contiguously. Exactly one
/// family's fields may be populated; [`WireReportBatch::validate`]
/// enforces that, every index/shape bound, and ε sanity **before**
/// anything reaches a collector.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReportBatch {
    /// The keyspace the sealed epoch will publish under.
    pub keyspace: String,
    /// The collection epoch the reports belong to.
    pub epoch: u64,
    /// The per-report ε the clients perturbed at.
    pub epsilon: f64,
    /// The grid domain size `k` the reports cover.
    pub cells: u32,
    /// Which oracle family produced the reports: `"grr"` or `"oue"`.
    pub oracle: String,
    /// GRR only: one perturbed cell index per report.
    pub grr: Vec<u32>,
    /// OUE only: number of reports packed into `oue_bits`.
    pub oue_count: u32,
    /// OUE only: `oue_count × ⌈cells/64⌉` packed words, report-major.
    pub oue_bits: Vec<u64>,
}

// `WireReportBatch` is the one frame that carries full-range `u64`
// payload words: OUE bit vectors use all 64 bits, while JSON numbers
// are only exact up to 2^53. The serde impls are therefore written by
// hand so `oue_bits` travels as one lowercase hex string (16 digits
// per word, report-major) and survives the JSON codec bit-for-bit;
// every other field fits the numeric contract and keeps its plain
// representation. The binary codec encodes the words raw and never
// sees this form.
impl Serialize for WireReportBatch {
    fn serialize_value(&self) -> serde::Value {
        use std::fmt::Write as _;
        let mut hex = String::with_capacity(self.oue_bits.len() * 16);
        for word in &self.oue_bits {
            let _ = write!(hex, "{word:016x}");
        }
        serde::Value::Obj(vec![
            ("keyspace".to_string(), self.keyspace.serialize_value()),
            ("epoch".to_string(), self.epoch.serialize_value()),
            ("epsilon".to_string(), self.epsilon.serialize_value()),
            ("cells".to_string(), self.cells.serialize_value()),
            ("oracle".to_string(), self.oracle.serialize_value()),
            ("grr".to_string(), self.grr.serialize_value()),
            ("oue_count".to_string(), self.oue_count.serialize_value()),
            ("oue_bits".to_string(), serde::Value::Str(hex)),
        ])
    }
}

impl Deserialize for WireReportBatch {
    fn deserialize_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let obj = v.as_obj().ok_or_else(|| {
            serde::Error::msg(format!(
                "WireReportBatch: expected object, got {}",
                v.kind()
            ))
        })?;
        let hex: String = serde::field_aliased_or_default(obj, &["oue_bits"], "WireReportBatch")?;
        if !hex.len().is_multiple_of(16) {
            return Err(serde::Error::msg(format!(
                "WireReportBatch: oue_bits hex length {} is not a multiple of 16",
                hex.len()
            )));
        }
        let mut oue_bits = Vec::with_capacity(hex.len() / 16);
        for chunk in hex.as_bytes().chunks_exact(16) {
            let digits = std::str::from_utf8(chunk)
                .map_err(|_| serde::Error::msg("WireReportBatch: oue_bits is not ASCII hex"))?;
            let word = u64::from_str_radix(digits, 16).map_err(|_| {
                serde::Error::msg(format!(
                    "WireReportBatch: oue_bits contains non-hex word {digits:?}"
                ))
            })?;
            oue_bits.push(word);
        }
        Ok(WireReportBatch {
            keyspace: serde::field(obj, "keyspace", "WireReportBatch")?,
            epoch: serde::field(obj, "epoch", "WireReportBatch")?,
            epsilon: serde::field(obj, "epsilon", "WireReportBatch")?,
            cells: serde::field(obj, "cells", "WireReportBatch")?,
            oracle: serde::field(obj, "oracle", "WireReportBatch")?,
            grr: serde::field_aliased_or_default(obj, &["grr"], "WireReportBatch")?,
            oue_count: serde::field_aliased_or_default(obj, &["oue_count"], "WireReportBatch")?,
            oue_bits,
        })
    }
}

impl WireReportBatch {
    /// Builds the wire form of a typed [`ReportBatch`].
    pub fn from_batch(batch: &ReportBatch) -> Self {
        let mut wire = WireReportBatch {
            keyspace: batch.keyspace.clone(),
            epoch: batch.epoch,
            epsilon: batch.epsilon,
            cells: batch.cells,
            oracle: String::new(),
            grr: Vec::new(),
            oue_count: 0,
            oue_bits: Vec::new(),
        };
        match &batch.payload {
            crate::report::ReportPayload::Grr(cells) => {
                wire.oracle = "grr".to_string();
                wire.grr = cells.clone();
            }
            crate::report::ReportPayload::Oue { count, bits } => {
                wire.oracle = "oue".to_string();
                wire.oue_count = *count;
                wire.oue_bits = bits.clone();
            }
        }
        wire
    }

    /// Validates shape, bounds and ε, producing the typed in-process
    /// batch. Every rejection is [`ServeError::InvalidQuery`] — typed,
    /// attributable, and raised before the collector sees anything.
    pub fn validate(&self) -> crate::Result<ReportBatch> {
        let bad = |why: String| Err(ServeError::InvalidQuery(why));
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return bad(format!(
                "report epsilon must be finite and positive, got {}",
                self.epsilon
            ));
        }
        if self.cells < 2 || self.cells as usize > dpgrid_geo::MAX_GRID_CELLS {
            return bad(format!(
                "report domain needs 2..={} cells, got {}",
                dpgrid_geo::MAX_GRID_CELLS,
                self.cells
            ));
        }
        let payload = match self.oracle.as_str() {
            "grr" => {
                if self.oue_count != 0 || !self.oue_bits.is_empty() {
                    return bad("GRR batch carries OUE fields".to_string());
                }
                if let Some(&c) = self.grr.iter().find(|&&c| c >= self.cells) {
                    return bad(format!(
                        "GRR report names cell {c}, outside the {}-cell domain",
                        self.cells
                    ));
                }
                crate::report::ReportPayload::Grr(self.grr.clone())
            }
            "oue" => {
                if !self.grr.is_empty() {
                    return bad("OUE batch carries GRR fields".to_string());
                }
                let words = (self.cells as usize).div_ceil(64);
                let expect = (self.oue_count as usize).checked_mul(words);
                if expect != Some(self.oue_bits.len()) {
                    return bad(format!(
                        "OUE batch of {} reports over {} cells needs {} words, got {}",
                        self.oue_count,
                        self.cells,
                        self.oue_count as usize * words,
                        self.oue_bits.len()
                    ));
                }
                // Bits past the domain in each report's last word are
                // hostile: they would smuggle tallies out of range.
                let tail = self.cells as usize % 64;
                if tail != 0
                    && self
                        .oue_bits
                        .iter()
                        .skip(words - 1)
                        .step_by(words)
                        .any(|&w| w >> tail != 0)
                {
                    return bad(format!(
                        "OUE report sets bits past the {}-cell domain",
                        self.cells
                    ));
                }
                crate::report::ReportPayload::Oue {
                    count: self.oue_count,
                    bits: self.oue_bits.clone(),
                }
            }
            other => {
                return bad(format!(
                    "unknown report oracle {other:?} (expected \"grr\" or \"oue\")"
                ))
            }
        };
        Ok(ReportBatch {
            keyspace: self.keyspace.clone(),
            epoch: self.epoch,
            epsilon: self.epsilon,
            cells: self.cells,
            payload,
        })
    }
}

/// The receipt for an accepted report batch, as it travels in a
/// [`ResponseBody::Report`] frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireReportAck {
    /// Echo of the batch's keyspace.
    pub keyspace: String,
    /// Echo of the batch's epoch.
    pub epoch: u64,
    /// Reports folded in by this batch.
    pub accepted: u64,
    /// Total reports the `(keyspace, epoch)` accumulator now holds.
    pub epoch_total: u64,
}

impl WireReportAck {
    /// Builds the wire form of a typed [`crate::ReportAck`].
    pub fn from_ack(ack: &crate::report::ReportAck) -> Self {
        WireReportAck {
            keyspace: ack.keyspace.clone(),
            epoch: ack.epoch,
            accepted: ack.accepted,
            epoch_total: ack.epoch_total,
        }
    }

    /// The typed receipt this frame carries.
    pub fn into_ack(self) -> crate::report::ReportAck {
        crate::report::ReportAck {
            keyspace: self.keyspace,
            epoch: self.epoch,
            accepted: self.accepted,
            epoch_total: self.epoch_total,
        }
    }
}

/// The payload of one request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Answer one release query.
    Query(WireQuery),
    /// Report [`EngineStats`].
    Stats,
    /// List the service's advertised release keys (sorted), answered
    /// with [`ResponseBody::Keys`].
    Keys,
    /// Answer a sliding-window query over a keyspace's epoch-sliced
    /// releases (see [`crate::window`]), answered with
    /// [`ResponseBody::Window`].
    Window(WireWindow),
    /// Liveness / protocol check; answered with
    /// [`ResponseBody::Pong`].
    Ping,
    /// Upload a batch of locally-perturbed LDP reports — the
    /// protocol's only **mutating** request — answered with
    /// [`ResponseBody::Report`]. A read-only service has no collector
    /// and answers it with `MalformedRequest`.
    Report(WireReportBatch),
}

/// One request frame: version, client-chosen correlation id, payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Must equal [`PROTOCOL_VERSION`].
    pub protocol_version: u32,
    /// Echoed verbatim in the response so clients can correlate over
    /// pipelined connections. Must stay within the JSON safe-integer
    /// range (`0 ..= 2⁵³`): JSON numbers travel as IEEE-754 doubles —
    /// here and in JavaScript peers alike — so larger ids would round
    /// in transit and fail the echo check. Sequential ids (what
    /// `dpgrid-net`'s client uses) never get anywhere near the limit.
    pub id: u64,
    /// The payload.
    pub body: RequestBody,
}

/// The answers to one [`WireQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireAnswers {
    /// Key the query was routed to.
    pub release_key: String,
    /// Version of the release that answered.
    pub version: u64,
    /// Whether the compiled surface was resident on arrival.
    pub cache: CacheState,
    /// One estimate per requested rectangle, same order.
    pub answers: Vec<f64>,
}

impl WireAnswers {
    /// Builds the wire form of an in-process [`QueryResponse`],
    /// moving its key and answers into the frame.
    pub fn from_response(response: QueryResponse) -> Self {
        WireAnswers {
            release_key: response.release_key,
            version: response.version,
            cache: response.cache,
            answers: response.answers,
        }
    }

    /// The in-process response this frame carries.
    pub fn into_response(self) -> QueryResponse {
        QueryResponse {
            release_key: self.release_key,
            version: self.version,
            cache: self.cache,
            answers: self.answers,
        }
    }
}

/// The payload of one response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// Answers to a [`RequestBody::Query`].
    Answers(WireAnswers),
    /// The service's counters ([`RequestBody::Stats`]).
    Stats(EngineStats),
    /// The service's advertised release keys ([`RequestBody::Keys`]).
    Keys(Vec<String>),
    /// Summed window answers to a [`RequestBody::Window`].
    Window(WireWindowAnswers),
    /// Reply to [`RequestBody::Ping`].
    Pong,
    /// The receipt for an accepted [`RequestBody::Report`] batch.
    Report(WireReportAck),
    /// The whole frame failed.
    Error(WireError),
}

/// One response frame: version, echoed request id, payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// The server's [`PROTOCOL_VERSION`].
    pub protocol_version: u32,
    /// The request's id (0 when the request was too malformed to carry
    /// one). Subject to the same JSON safe-integer range as
    /// [`WireRequest::id`].
    pub id: u64,
    /// The payload.
    pub body: ResponseBody,
}

/// Stable, machine-readable failure categories. Serialised as the
/// variant names; meanings never change within a protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The named release key is not in the catalog.
    UnknownKey,
    /// A query rectangle failed boundary validation (NaN, infinite or
    /// inverted coordinates).
    InvalidQuery,
    /// Admission control shed the request; back off and retry.
    Overloaded,
    /// The frame was not a valid request of this protocol.
    MalformedRequest,
    /// The frame's `protocol_version` differs from the peer's.
    UnsupportedVersion,
    /// A server-side failure unrelated to the request's content.
    Internal,
}

impl ErrorCode {
    /// The stable wire name of the code (identical to the serialised
    /// form — the `error_codes_have_stable_wire_names` regression in
    /// `tests/wire_protocol.rs` pins the two against each other, so a
    /// variant rename cannot silently diverge from these strings).
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::UnknownKey => "UnknownKey",
            ErrorCode::InvalidQuery => "InvalidQuery",
            ErrorCode::Overloaded => "Overloaded",
            ErrorCode::MalformedRequest => "MalformedRequest",
            ErrorCode::UnsupportedVersion => "UnsupportedVersion",
            ErrorCode::Internal => "Internal",
        }
    }
}

/// Machine-readable overload pressure attached to
/// [`ErrorCode::Overloaded`] errors, so remote callers (and the shard
/// router's error mapping) see the server's real counters instead of
/// scraping them out of the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadInfo {
    /// Rectangles in flight when the request was shed.
    pub inflight_rects: u64,
    /// The shedding engine's in-flight rectangle budget.
    pub limit: u64,
}

/// A typed wire-level failure: a stable [`ErrorCode`] for branching
/// plus a human-readable message for logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// The stable failure category.
    pub code: ErrorCode,
    /// Human-readable detail; not part of the stability contract.
    pub message: String,
    /// Structured counters, present when `code` is
    /// [`ErrorCode::Overloaded`].
    pub overload: Option<OverloadInfo>,
}

impl WireError {
    /// A new error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            overload: None,
        }
    }

    /// Maps a service-side [`ServeError`] onto its wire code. Errors a
    /// remote client cannot act on (I/O, release validation) collapse
    /// into [`ErrorCode::Internal`]; overload errors carry their
    /// counters structured (see [`OverloadInfo`]).
    pub fn from_serve(e: &ServeError) -> Self {
        let code = match e {
            ServeError::UnknownRelease(_) => ErrorCode::UnknownKey,
            ServeError::InvalidQuery(_) => ErrorCode::InvalidQuery,
            ServeError::Overloaded { .. } => ErrorCode::Overloaded,
            // An unreachable shard behind a router is, to a remote
            // client, indistinguishable from any other server-side
            // failure; the message keeps the detail.
            ServeError::Unavailable { .. }
            | ServeError::InvalidKey(_)
            | ServeError::Io { .. }
            | ServeError::Load { .. }
            | ServeError::Core(_) => ErrorCode::Internal,
        };
        let mut error = WireError::new(code, e.to_string());
        if let ServeError::Overloaded {
            inflight_rects,
            limit,
        } = e
        {
            error.overload = Some(OverloadInfo {
                inflight_rects: *inflight_rects,
                limit: *limit,
            });
        }
        error
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

/// A decode failure plus the best-effort request id salvaged from the
/// frame, so the error response still correlates when possible.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// The frame's `id` field when it could be read, 0 otherwise.
    pub id: u64,
    /// The typed failure.
    pub error: WireError,
}

/// Best-effort envelope probe used to salvage `id`/`protocol_version`
/// from frames that fail full decoding. `protocol_version` is an
/// `Option` so a frame that simply *omits* the field is classified as
/// malformed, not as a version mismatch — only a frame that actually
/// declares a different version earns `UnsupportedVersion`.
#[derive(Debug, Default, Serialize, Deserialize)]
struct EnvelopeProbe {
    #[serde(default)]
    protocol_version: Option<u32>,
    #[serde(default)]
    id: u64,
}

/// Salvages the envelope of a frame whose full decode failed. An
/// unparseable line yields the defaults (id 0, no declared version —
/// reported as malformed, not as a version mismatch, because nothing
/// was read).
fn probe(line: &str) -> EnvelopeProbe {
    serde_json::from_str(line).unwrap_or_default()
}

/// Checks a decoded frame's version, classifying mismatches.
fn check_version(version: u32, id: u64) -> Result<(), DecodeError> {
    if version == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(DecodeError {
            id,
            error: WireError::new(
                ErrorCode::UnsupportedVersion,
                format!("frame speaks protocol {version}, this peer speaks {PROTOCOL_VERSION}"),
            ),
        })
    }
}

/// The shared decode policy of both frame directions: full parse, then
/// version check; on parse failure salvage the envelope, classify a
/// *declared* foreign version as `UnsupportedVersion`, and report
/// everything else as `MalformedRequest` under the given frame kind.
fn decode_frame<T: serde::Deserialize>(
    line: &str,
    kind: &str,
    envelope: impl Fn(&T) -> (u32, u64),
) -> Result<T, DecodeError> {
    match serde_json::from_str::<T>(line) {
        Ok(frame) => {
            let (version, id) = envelope(&frame);
            check_version(version, id)?;
            Ok(frame)
        }
        Err(e) => {
            let salvaged = probe(line);
            if let Some(version) = salvaged.protocol_version {
                check_version(version, salvaged.id)?;
            }
            Err(DecodeError {
                id: salvaged.id,
                error: WireError::new(
                    ErrorCode::MalformedRequest,
                    format!("unparseable {kind} frame: {e}"),
                ),
            })
        }
    }
}

impl WireRequest {
    /// A request frame at the current [`PROTOCOL_VERSION`].
    pub fn new(id: u64, body: RequestBody) -> Self {
        WireRequest {
            protocol_version: PROTOCOL_VERSION,
            id,
            body,
        }
    }

    /// Serialises to a single JSON line (no trailing newline). JSON
    /// string escaping guarantees the output contains no raw newline,
    /// so frames stay newline-delimited whatever keys they carry.
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("wire frames always serialise")
    }

    /// Parses one frame, distinguishing malformed JSON
    /// ([`ErrorCode::MalformedRequest`]) from a version mismatch
    /// ([`ErrorCode::UnsupportedVersion`]).
    pub fn decode(line: &str) -> Result<Self, DecodeError> {
        decode_frame(line, "request", |req: &WireRequest| {
            (req.protocol_version, req.id)
        })
    }
}

impl WireResponse {
    /// A response frame at the current [`PROTOCOL_VERSION`].
    pub fn new(id: u64, body: ResponseBody) -> Self {
        WireResponse {
            protocol_version: PROTOCOL_VERSION,
            id,
            body,
        }
    }

    /// An error frame.
    pub fn error(id: u64, error: WireError) -> Self {
        WireResponse::new(id, ResponseBody::Error(error))
    }

    /// Serialises to a single JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("wire frames always serialise")
    }

    /// Parses one response frame (the client side of
    /// [`WireRequest::decode`]).
    pub fn decode(line: &str) -> Result<Self, DecodeError> {
        decode_frame(line, "response", |resp: &WireResponse| {
            (resp.protocol_version, resp.id)
        })
    }
}

/// Decodes one request line, dispatches it against `service`, and
/// produces the response frame — the complete server-side protocol
/// step minus transport framing. Every failure becomes a typed
/// [`ResponseBody::Error`]; this function never panics on untrusted
/// input.
pub fn handle_frame<S: QueryService + ?Sized>(service: &S, line: &str) -> WireResponse {
    let request = match WireRequest::decode(line) {
        Ok(request) => request,
        Err(e) => return WireResponse::error(e.id, e.error),
    };
    dispatch(service, request.id, request.body)
}

/// Dispatches one decoded request body against `service` — the
/// codec-generic core shared by the JSON ([`handle_frame`]) and binary
/// ([`binary`]) paths, so both codecs validate, answer, and map errors
/// identically. Never panics on untrusted input.
pub fn dispatch<S: QueryService + ?Sized>(service: &S, id: u64, body: RequestBody) -> WireResponse {
    match body {
        RequestBody::Ping => WireResponse::new(id, ResponseBody::Pong),
        RequestBody::Stats => WireResponse::new(id, ResponseBody::Stats(service.stats())),
        RequestBody::Keys => WireResponse::new(id, ResponseBody::Keys(service.keys())),
        RequestBody::Report(batch) => match service.reports() {
            // A read-only service has no collector to hand the batch.
            None => WireResponse::error(
                id,
                WireError::new(
                    ErrorCode::MalformedRequest,
                    "unsupported request kind: this server accepts no reports",
                ),
            ),
            Some(sink) => match batch.validate() {
                Err(e) => WireResponse::error(id, WireError::from_serve(&e)),
                Ok(typed) => match sink.submit_reports(&typed) {
                    Ok(ack) => {
                        WireResponse::new(id, ResponseBody::Report(WireReportAck::from_ack(&ack)))
                    }
                    Err(e) => WireResponse::error(id, WireError::from_serve(&e)),
                },
            },
        },
        RequestBody::Window(window) => match window.validate() {
            Err(e) => WireResponse::error(id, WireError::from_serve(&e)),
            Ok(query) => match crate::window::answer_window(service, &query) {
                Ok(answer) => WireResponse::new(
                    id,
                    ResponseBody::Window(WireWindowAnswers::from_answer(answer)),
                ),
                Err(e) => WireResponse::error(id, WireError::from_serve(&e)),
            },
        },
        RequestBody::Query(query) => match query.validate() {
            Err(e) => WireResponse::error(id, WireError::from_serve(&e)),
            Ok(request) => {
                let mut results = service.answer_batch(std::slice::from_ref(&request));
                match results.pop() {
                    Some(Ok(response)) => WireResponse::new(
                        id,
                        ResponseBody::Answers(WireAnswers::from_response(response)),
                    ),
                    Some(Err(e)) => WireResponse::error(id, WireError::from_serve(&e)),
                    None => WireResponse::error(
                        id,
                        WireError::new(ErrorCode::Internal, "service returned no response"),
                    ),
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, QueryEngine};
    use dpgrid_core::{Method, Pipeline};
    use dpgrid_geo::generators::PaperDataset;

    fn engine() -> QueryEngine {
        let ds = PaperDataset::Storage.generate_n(11, 1_500).unwrap();
        let mut catalog = Catalog::new();
        for (key, seed) in [("a", 1u64), ("b", 2)] {
            Pipeline::new(&ds)
                .method(Method::ug(8))
                .seed(seed)
                .publish_into(&mut catalog, key)
                .unwrap();
        }
        QueryEngine::new(catalog)
    }

    fn query(key: &str, rects: &[(f64, f64, f64, f64)]) -> WireQuery {
        WireQuery {
            release_key: key.into(),
            rects: rects
                .iter()
                .map(|&(x0, y0, x1, y1)| WireRect { x0, y0, x1, y1 })
                .collect(),
        }
    }

    #[test]
    fn frames_roundtrip_through_json_lines() {
        let request = WireRequest::new(
            7,
            RequestBody::Query(query("a", &[(-120.0, 20.0, -90.0, 40.0)])),
        );
        let line = request.encode();
        assert!(!line.contains('\n'), "frames must stay single-line");
        assert_eq!(WireRequest::decode(&line).unwrap(), request);

        let response = WireResponse::new(
            7,
            ResponseBody::Answers(WireAnswers {
                release_key: "a".into(),
                version: 3,
                cache: CacheState::Warm,
                answers: vec![1.5, 0.25],
            }),
        );
        let line = response.encode();
        assert_eq!(WireResponse::decode(&line).unwrap(), response);
    }

    #[test]
    fn version_mismatch_and_malformed_frames_are_distinguished() {
        let mut request = WireRequest::new(1, RequestBody::Ping);
        request.protocol_version = 999;
        let err = WireRequest::decode(&request.encode()).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::UnsupportedVersion);
        assert_eq!(err.id, 1);

        let err = WireRequest::decode("{not json").unwrap_err();
        assert_eq!(err.error.code, ErrorCode::MalformedRequest);
        assert_eq!(err.id, 0);

        // A parseable envelope with an unparseable body salvages the id.
        let err = WireRequest::decode(r#"{"protocol_version": 1, "id": 42, "body": "Nonsense"}"#)
            .unwrap_err();
        assert_eq!(err.error.code, ErrorCode::MalformedRequest);
        assert_eq!(err.id, 42);

        // A frame that *omits* the version is malformed — only a frame
        // declaring a different version is a version mismatch. Sending
        // operators to chase version skew for a missing field would be
        // wrong on both the request and the response side.
        let err = WireRequest::decode(r#"{"id": 9, "body": "Ping"}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::MalformedRequest);
        assert_eq!(err.id, 9);
        let err = WireResponse::decode(r#"{"id": 9, "body": "Pong"}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::MalformedRequest);
        assert_eq!(err.id, 9);
    }

    #[test]
    fn rect_validation_rejects_each_malformed_shape() {
        for (rect, what) in [
            (
                WireRect {
                    x0: f64::NAN,
                    y0: 0.0,
                    x1: 1.0,
                    y1: 1.0,
                },
                "NaN x0",
            ),
            (
                WireRect {
                    x0: 0.0,
                    y0: f64::NEG_INFINITY,
                    x1: 1.0,
                    y1: 1.0,
                },
                "-inf y0",
            ),
            (
                WireRect {
                    x0: 0.0,
                    y0: 0.0,
                    x1: f64::INFINITY,
                    y1: 1.0,
                },
                "+inf x1",
            ),
            (
                WireRect {
                    x0: 0.0,
                    y0: 0.0,
                    x1: 1.0,
                    y1: f64::NAN,
                },
                "NaN y1",
            ),
            (
                WireRect {
                    x0: 2.0,
                    y0: 0.0,
                    x1: 1.0,
                    y1: 1.0,
                },
                "x0 > x1",
            ),
            (
                WireRect {
                    x0: 0.0,
                    y0: 2.0,
                    x1: 1.0,
                    y1: 1.0,
                },
                "y0 > y1",
            ),
        ] {
            assert!(
                matches!(rect.validate(), Err(ServeError::InvalidQuery(_))),
                "{what} must be rejected"
            );
        }
        // Degenerate-but-ordered rects are legal queries (zero answer).
        assert!(WireRect {
            x0: 1.0,
            y0: 0.0,
            x1: 1.0,
            y1: 1.0,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn handle_frame_dispatches_query_stats_ping() {
        let engine = engine();
        let frame = WireRequest::new(
            1,
            RequestBody::Query(query("a", &[(-130.0, 10.0, -70.0, 50.0)])),
        )
        .encode();
        let response = handle_frame(&engine, &frame);
        assert_eq!(response.id, 1);
        let ResponseBody::Answers(answers) = response.body else {
            panic!("expected answers, got {:?}", response.body);
        };
        assert_eq!(answers.release_key, "a");
        assert_eq!(answers.version, 1);
        assert_eq!(answers.answers.len(), 1);

        let response = handle_frame(&engine, &WireRequest::new(2, RequestBody::Stats).encode());
        let ResponseBody::Stats(stats) = response.body else {
            panic!("expected stats");
        };
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.catalog.releases, 2);

        let response = handle_frame(&engine, &WireRequest::new(3, RequestBody::Ping).encode());
        assert_eq!(response.body, ResponseBody::Pong);

        let response = handle_frame(&engine, &WireRequest::new(4, RequestBody::Keys).encode());
        assert_eq!(
            response.body,
            ResponseBody::Keys(vec!["a".to_string(), "b".to_string()])
        );
    }

    #[test]
    fn handle_frame_maps_typed_errors_onto_stable_codes() {
        let engine = engine();
        // Unknown key.
        let response = handle_frame(
            &engine,
            &WireRequest::new(
                1,
                RequestBody::Query(query("nope", &[(-100.0, 20.0, -90.0, 30.0)])),
            )
            .encode(),
        );
        let ResponseBody::Error(e) = response.body else {
            panic!("expected error");
        };
        assert_eq!(e.code, ErrorCode::UnknownKey);

        // Invalid rect: rejected at the boundary, engine untouched.
        let before = QueryService::stats(&engine).requests;
        let response = handle_frame(
            &engine,
            &WireRequest::new(2, RequestBody::Query(query("a", &[(5.0, 0.0, -5.0, 1.0)]))).encode(),
        );
        let ResponseBody::Error(e) = response.body else {
            panic!("expected error");
        };
        assert_eq!(e.code, ErrorCode::InvalidQuery);
        assert!(e.message.contains("rect #0"));
        assert_eq!(QueryService::stats(&engine).requests, before);
    }

    #[test]
    fn kinds_this_server_lacks_are_answered_malformed_request() {
        // A kind removed before this build (`Hello`, `Batch`) or added
        // after it fails to decode like any unknown variant: typed
        // `MalformedRequest` under the frame's own id, no version bump.
        let engine = engine();
        for (id, body) in [
            (3, r#"{"Hello": {"max_version": 2}}"#),
            (4, r#"{"Batch": [{"release_key": "a", "rects": []}]}"#),
            (5, r#"{"Heatmap": {"keyspace": "a"}}"#),
        ] {
            let line = format!(r#"{{"protocol_version": 1, "id": {id}, "body": {body}}}"#);
            let response = handle_frame(&engine, &line);
            assert_eq!(response.id, id);
            let ResponseBody::Error(e) = response.body else {
                panic!("expected an error for {body}, got {:?}", response.body);
            };
            assert_eq!(e.code, ErrorCode::MalformedRequest, "{body}");
        }
        // The binary codec's retired `Batch` frame types fail the same
        // way in both directions.
        let header = binary::FrameHeader {
            frame_type: 0x02,
            id: 4,
            payload_len: 0,
        };
        let err = binary::decode_request(&header, &[]).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        let header = binary::FrameHeader {
            frame_type: 0x82,
            ..header
        };
        let err = binary::decode_response(&header, &[]).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
    }

    #[test]
    fn overload_travels_as_its_own_code() {
        let engine = engine().with_admission_limit(2);
        let frame = WireRequest::new(
            4,
            RequestBody::Query(query(
                "a",
                &[
                    (-130.0, 10.0, -70.0, 50.0),
                    (-120.0, 15.0, -80.0, 45.0),
                    (-110.0, 20.0, -90.0, 40.0),
                ],
            )),
        )
        .encode();
        let response = handle_frame(&engine, &frame);
        let ResponseBody::Error(e) = response.body else {
            panic!("expected error");
        };
        assert_eq!(e.code, ErrorCode::Overloaded);
        // The counters travel structured, not only inside the prose —
        // and survive a wire round trip.
        assert_eq!(
            e.overload,
            Some(OverloadInfo {
                inflight_rects: 0,
                limit: 2
            })
        );
        let line = WireResponse::error(4, e.clone()).encode();
        let back = WireResponse::decode(&line).unwrap();
        assert_eq!(back.body, ResponseBody::Error(e));
    }

    fn epoch_engine() -> QueryEngine {
        let ds = PaperDataset::Storage.generate_n(11, 1_500).unwrap();
        let mut catalog = Catalog::new();
        for epoch in 0..4u64 {
            Pipeline::new(&ds)
                .method(Method::ug(8))
                .seed(epoch)
                .publish_into(
                    &mut catalog,
                    dpgrid_core::epoch_key("taxi", dpgrid_core::EpochRange::single(epoch)),
                )
                .unwrap();
        }
        QueryEngine::new(catalog)
    }

    #[test]
    fn window_frames_roundtrip_and_dispatch() {
        let request = WireRequest::new(
            5,
            RequestBody::Window(WireWindow {
                keyspace: "taxi".into(),
                epoch_start: 1,
                epoch_end: 3,
                rects: vec![WireRect {
                    x0: -130.0,
                    y0: 10.0,
                    x1: -70.0,
                    y1: 50.0,
                }],
            }),
        );
        let line = request.encode();
        assert!(!line.contains('\n'));
        assert_eq!(WireRequest::decode(&line).unwrap(), request);

        let engine = epoch_engine();
        let response = handle_frame(&engine, &line);
        assert_eq!(response.id, 5);
        let ResponseBody::Window(answers) = response.body else {
            panic!("expected window answers, got {:?}", response.body);
        };
        assert_eq!(answers.keyspace, "taxi");
        assert_eq!(
            answers.covered,
            vec![
                WireEpochSpan { start: 1, end: 2 },
                WireEpochSpan { start: 2, end: 3 }
            ]
        );
        assert_eq!(answers.answers.len(), 1);
        // The summed answer survives its own wire round trip.
        let line = WireResponse::new(5, ResponseBody::Window(answers.clone())).encode();
        let back = WireResponse::decode(&line).unwrap();
        assert_eq!(back.body, ResponseBody::Window(answers));
    }

    #[test]
    fn window_errors_travel_as_stable_codes() {
        let engine = epoch_engine();
        // Empty epoch range: rejected at the boundary as InvalidQuery.
        let response = handle_frame(
            &engine,
            &WireRequest::new(
                6,
                RequestBody::Window(WireWindow {
                    keyspace: "taxi".into(),
                    epoch_start: 3,
                    epoch_end: 3,
                    rects: vec![],
                }),
            )
            .encode(),
        );
        let ResponseBody::Error(e) = response.body else {
            panic!("expected error");
        };
        assert_eq!(e.code, ErrorCode::InvalidQuery);

        // A window past every retained epoch is UnknownKey, naming the
        // missing epoch range.
        let response = handle_frame(
            &engine,
            &WireRequest::new(
                7,
                RequestBody::Window(WireWindow {
                    keyspace: "taxi".into(),
                    epoch_start: 10,
                    epoch_end: 12,
                    rects: vec![],
                }),
            )
            .encode(),
        );
        let ResponseBody::Error(e) = response.body else {
            panic!("expected error");
        };
        assert_eq!(e.code, ErrorCode::UnknownKey);
        assert!(e.message.contains("taxi@epoch:10-12"), "{}", e.message);

        // Malformed rects fail validation before touching the engine.
        let response = handle_frame(
            &engine,
            &WireRequest::new(
                8,
                RequestBody::Window(WireWindow {
                    keyspace: "taxi".into(),
                    epoch_start: 0,
                    epoch_end: 4,
                    rects: vec![WireRect {
                        x0: 5.0,
                        y0: 0.0,
                        x1: -5.0,
                        y1: 1.0,
                    }],
                }),
            )
            .encode(),
        );
        let ResponseBody::Error(e) = response.body else {
            panic!("expected error");
        };
        assert_eq!(e.code, ErrorCode::InvalidQuery);
        assert!(e.message.contains("rect #0"), "{}", e.message);
    }
}
