//! Protocol v2: the length-prefixed binary frame codec.
//!
//! Carries exactly the frame types of the JSON codec — same
//! [`RequestBody`]/[`ResponseBody`] variants, same validation through
//! [`super::dispatch`], same stable [`ErrorCode`] table — but encodes
//! rectangles and answers as raw little-endian `f64` arrays instead of
//! text, so the hot serving path is bounded by memory copies, not
//! float formatting. Every frame opens with [`MAGIC`], which is how a
//! transport tells it from a JSON line (see the [`super`] module
//! docs), so a connection may mix the two codecs frame by frame.
//!
//! # Frame layout
//!
//! Every frame is a fixed [`HEADER_BYTES`]-byte header followed by
//! `payload_len` payload bytes. All integers and floats are
//! little-endian:
//!
//! | offset | size | field                                        |
//! |--------|------|----------------------------------------------|
//! | 0      | 2    | magic [`MAGIC`] = `D6 B2`                    |
//! | 2      | 1    | protocol version (= 2)                       |
//! | 3      | 1    | frame type (see below)                       |
//! | 4      | 8    | correlation id, `u64`                        |
//! | 12     | 4    | payload length in bytes, `u32`               |
//!
//! An RFC 8259 JSON text begins with ASCII whitespace or an ASCII
//! value byte (`{`, `[`, `"`, `-`, a digit, `t`, `f` or `n`), and the
//! magic's first byte `0xD6` is not ASCII, so no JSON line begins a
//! binary frame and no binary frame begins a JSON line. (`D6 B2` is
//! itself valid UTF-8, U+05B2; the lead byte alone is what decides.)
//! `payload_len` is capped at [`MAX_PAYLOAD_BYTES`] — the
//! protocol-wide [`MAX_FRAME_BYTES`] minus the header — and a header
//! declaring more is rejected before any payload is read.
//!
//! Frame types (request `0x0_`, response `0x8_`):
//!
//! | byte   | frame            | payload                            |
//! |--------|------------------|------------------------------------|
//! | `0x01` | Query            | query                              |
//! | `0x03` | Stats request    | empty                              |
//! | `0x04` | Keys request     | empty                              |
//! | `0x05` | Ping             | empty                              |
//! | `0x06` | Window           | window                             |
//! | `0x07` | Report           | report batch                       |
//! | `0x81` | Answers          | answers                            |
//! | `0x83` | Stats response   | stats (15 × `u64` + flagged tail)  |
//! | `0x84` | Keys response    | `u32` n, n × string                |
//! | `0x85` | Pong             | empty                              |
//! | `0x86` | Error            | error                              |
//! | `0x87` | Window response  | window answers                     |
//! | `0x88` | Report ack       | report ack                         |
//!
//! Composite payload grammar (`str` = `u32` length + UTF-8 bytes,
//! `rect` = 4 × `f64` as `x0 y0 x1 y1`):
//!
//! * query   = `str` key, `u32` n, n × rect
//! * window  = `str` keyspace, `u64` epoch_start, `u64` epoch_end,
//!   `u32` n, n × rect
//! * window answers = `str` keyspace, `u32` m, m × (`u64` start,
//!   `u64` end), `u32` n, n × `f64`
//! * answers = `str` key, `u64` version, `u8` cache (0 warm, 1 cold),
//!   `u32` n, n × `f64`
//! * report batch = `str` keyspace, `u64` epoch, `f64` epsilon,
//!   `u32` cells, `u8` oracle tag — 0 (GRR) is followed by `u32` n,
//!   n × `u32` cell index; 1 (OUE) by `u32` count,
//!   count × `⌈cells/64⌉` packed `u64` words. Both element counts are
//!   hostile-length-prefix guarded against the remaining payload
//!   before any buffer trusts them
//! * report ack = `str` keyspace, `u64` epoch, `u64` accepted,
//!   `u64` epoch_total
//! * error   = `u8` code (see [`code_byte`]), `str` message, `u8`
//!   overload flag, then 2 × `u64` (`inflight_rects`, `limit`) when
//!   the flag is 1
//! * stats   = `requests answers unknown_keys shed inflight_rects
//!   admission_limit releases warm capacity budget_bytes
//!   resident_bytes lookups warm_hits compilations evictions`, each a
//!   `u64` (`usize` fields travel as `u64`; `usize::MAX` bounds stay
//!   `u64::MAX` on the wire), then a `u8` flag, always present (bit 0:
//!   transport counters follow, bit 1: a kernel-backend byte follows;
//!   other bits are rejected), then 8 × `u64` when bit 0 is set
//!   (`accepted active frames_decoded read_stalls write_stalls
//!   bytes_in bytes_out reports_accepted`), then one `u8` backend
//!   (0 scalar, 1 AVX2, 2 mixed) when bit 1 is set — 121 to 186 bytes
//!
//! Unlike JSON — which cannot carry non-finite numbers — a binary
//! rect travels bit-exact, NaN included; boundary validation in
//! [`super::WireRect::validate`] is what rejects it, so both codecs
//! refuse exactly the same rectangles for exactly the same reason.
//!
//! # Allocation discipline
//!
//! Encoders append into a caller-owned `Vec<u8>` that is cleared, not
//! shrunk — a connection reusing one buffer per direction reaches a
//! steady state where encoding allocates nothing. Every encoder is a
//! front for one private frame writer, which reserves the header slot,
//! writes the payload, checks it against [`MAX_PAYLOAD_BYTES`], unwinds
//! a refused frame and fills in the header, so each public encoder
//! differs only in where its payload comes from. Servers encode each
//! response whole ([`encode_response`]) into a recycled buffer and
//! gather queued frames into one vectored write; clients append whole
//! frames back to back ([`append_request`], [`append_query`],
//! [`append_report`]) and ship a train of them in one write. Decoders
//! borrow the payload slice and allocate only the owned frame values
//! they return.

use dpgrid_geo::Rect;

use super::{
    ErrorCode, OverloadInfo, RequestBody, ResponseBody, WireAnswers, WireEpochSpan, WireError,
    WireQuery, WireRect, WireReportAck, WireReportBatch, WireRequest, WireResponse, WireWindow,
    WireWindowAnswers, MAX_FRAME_BYTES,
};
use crate::catalog::{CacheState, CatalogStats};
use crate::engine::{EngineStats, KernelBackend, TransportStats};
use crate::report::{ReportBatch, ReportPayload};

/// The binary codec's protocol version, carried in every frame header.
pub const PROTOCOL_VERSION: u32 = 2;

/// First two bytes of every binary frame. A JSON text begins with ASCII
/// whitespace or an ASCII value byte (RFC 8259), and `0xD6` is not
/// ASCII, so a transport that sees it at a frame boundary knows a
/// binary frame starts there.
pub const MAGIC: [u8; 2] = [0xD6, 0xB2];

/// Fixed size of the frame header.
pub const HEADER_BYTES: usize = 16;

/// Upper bound on one frame's payload: the protocol-wide
/// [`MAX_FRAME_BYTES`] minus the header, shared by both directions so
/// an oversized frame fails fast and attributably at the sender.
pub const MAX_PAYLOAD_BYTES: usize = MAX_FRAME_BYTES - HEADER_BYTES;

/// The frame type bytes. Requests are `0x0_`, responses `0x8_`; a byte
/// never changes meaning, mirroring the JSON codec's stable variant
/// names, so the retired `0x02` and `0x82` are never reused and decode
/// as unknown frame types.
pub mod frame_type {
    /// [`crate::wire::RequestBody::Query`].
    pub const QUERY: u8 = 0x01;
    /// [`crate::wire::RequestBody::Stats`].
    pub const STATS: u8 = 0x03;
    /// [`crate::wire::RequestBody::Keys`].
    pub const KEYS: u8 = 0x04;
    /// [`crate::wire::RequestBody::Ping`].
    pub const PING: u8 = 0x05;
    /// [`crate::wire::RequestBody::Window`].
    pub const WINDOW: u8 = 0x06;
    /// [`crate::wire::RequestBody::Report`].
    pub const REPORT: u8 = 0x07;
    /// [`crate::wire::ResponseBody::Answers`].
    pub const ANSWERS: u8 = 0x81;
    /// [`crate::wire::ResponseBody::Stats`].
    pub const STATS_RESPONSE: u8 = 0x83;
    /// [`crate::wire::ResponseBody::Keys`].
    pub const KEYS_RESPONSE: u8 = 0x84;
    /// [`crate::wire::ResponseBody::Pong`].
    pub const PONG: u8 = 0x85;
    /// [`crate::wire::ResponseBody::Error`].
    pub const ERROR: u8 = 0x86;
    /// [`crate::wire::ResponseBody::Window`].
    pub const WINDOW_RESPONSE: u8 = 0x87;
    /// [`crate::wire::ResponseBody::Report`].
    pub const REPORT_RESPONSE: u8 = 0x88;
}

/// The stable wire byte of each [`ErrorCode`] — append-only, the
/// binary counterpart of the JSON codec's stable variant names.
pub fn code_byte(code: ErrorCode) -> u8 {
    match code {
        ErrorCode::UnknownKey => 0,
        ErrorCode::InvalidQuery => 1,
        ErrorCode::Overloaded => 2,
        ErrorCode::MalformedRequest => 3,
        ErrorCode::UnsupportedVersion => 4,
        ErrorCode::Internal => 5,
    }
}

fn byte_code(byte: u8) -> Result<ErrorCode, WireError> {
    Ok(match byte {
        0 => ErrorCode::UnknownKey,
        1 => ErrorCode::InvalidQuery,
        2 => ErrorCode::Overloaded,
        3 => ErrorCode::MalformedRequest,
        4 => ErrorCode::UnsupportedVersion,
        5 => ErrorCode::Internal,
        other => return Err(malformed(format!("unknown error code byte {other}"))),
    })
}

/// A decoded frame header: everything before the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The frame type byte (see [`frame_type`]).
    pub frame_type: u8,
    /// The correlation id.
    pub id: u64,
    /// Bytes of payload that follow, already checked against
    /// [`MAX_PAYLOAD_BYTES`].
    pub payload_len: usize,
}

/// Builds the header for a frame of `payload_len` payload bytes.
pub fn encode_header(frame_type: u8, id: u64, payload_len: usize) -> [u8; HEADER_BYTES] {
    let mut header = [0u8; HEADER_BYTES];
    header[0..2].copy_from_slice(&MAGIC);
    header[2] = PROTOCOL_VERSION as u8;
    header[3] = frame_type;
    header[4..12].copy_from_slice(&id.to_le_bytes());
    header[12..16].copy_from_slice(&(payload_len as u32).to_le_bytes());
    header
}

/// Validates and decodes one frame header, distinguishing the
/// violations a transport must treat differently: a foreign version in
/// an otherwise well-formed header is [`ErrorCode::UnsupportedVersion`];
/// wrong magic or an oversized length prefix is
/// [`ErrorCode::MalformedRequest`] — byte framing is lost after either,
/// so transports reject typed and close the connection.
pub fn decode_header(bytes: &[u8; HEADER_BYTES]) -> Result<FrameHeader, WireError> {
    if bytes[0..2] != MAGIC {
        return Err(malformed(format!(
            "not a binary frame: magic {:02x} {:02x}, expected {:02x} {:02x}",
            bytes[0], bytes[1], MAGIC[0], MAGIC[1]
        )));
    }
    if u32::from(bytes[2]) != PROTOCOL_VERSION {
        return Err(WireError::new(
            ErrorCode::UnsupportedVersion,
            format!(
                "frame speaks binary protocol {}, this peer speaks {PROTOCOL_VERSION}",
                bytes[2]
            ),
        ));
    }
    let id = u64::from_le_bytes(bytes[4..12].try_into().expect("8 header bytes"));
    let payload_len =
        u32::from_le_bytes(bytes[12..16].try_into().expect("4 header bytes")) as usize;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(malformed(format!(
            "length prefix {payload_len} exceeds the {MAX_PAYLOAD_BYTES} byte payload cap"
        )));
    }
    Ok(FrameHeader {
        frame_type: bytes[3],
        id,
        payload_len,
    })
}

/// Encodes one complete request frame (header + payload) into `out`
/// (cleared first, capacity kept).
pub fn encode_request(request: &WireRequest, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    append_request(request, out)
}

/// Appends one complete request frame to `out` **without clearing
/// it**, so a client can put N id-correlated frames back to back in
/// one buffer and ship them with one write. Fails for a `Report` whose
/// oracle tag names no family and for a payload past
/// [`MAX_PAYLOAD_BYTES`]; a refused frame leaves `out` exactly as it
/// was.
pub fn append_request(request: &WireRequest, out: &mut Vec<u8>) -> Result<(), WireError> {
    append_frame(request.id, out, |out| {
        append_request_payload(&request.body, out)
    })
}

/// Appends one complete Query frame encoded straight from the caller's
/// key and rects, with no owned [`WireQuery`] in between. Same bytes
/// and same refusal rules as [`append_request`].
pub fn append_query(
    id: u64,
    release_key: &str,
    rects: &[Rect],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    append_frame(id, out, |out| {
        put_query(out, release_key, rects.iter().map(WireRect::from));
        Ok(frame_type::QUERY)
    })
}

/// Appends one complete Report frame encoded straight from a typed
/// batch, with no [`WireReportBatch`] in between: the same bytes as
/// [`append_request`] on [`WireReportBatch::from_batch`], refused only
/// past [`MAX_PAYLOAD_BYTES`].
pub fn append_report(id: u64, batch: &ReportBatch, out: &mut Vec<u8>) -> Result<(), WireError> {
    let reports = match &batch.payload {
        ReportPayload::Grr(cells) => Reports::Grr(cells),
        ReportPayload::Oue { count, bits } => Reports::Oue(*count, bits),
    };
    append_frame(id, out, |out| {
        put_report(
            out,
            &batch.keyspace,
            batch.epoch,
            batch.epsilon,
            batch.cells,
            reports,
        );
        Ok(frame_type::REPORT)
    })
}

/// Encodes one complete response frame (header + payload) into `out`
/// (cleared first, capacity kept).
pub fn encode_response(response: &WireResponse, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    append_frame(response.id, out, |out| {
        append_response_payload(&response.body, out)
    })
}

/// The one frame writer: reserves the header slot at the end of `out`,
/// lets `payload` write the payload and name the frame type, checks the
/// cap and fills in the header. A refused frame (the payload writer
/// fails, or the payload is past [`MAX_PAYLOAD_BYTES`]) is unwound, so
/// `out` holds only whole frames.
fn append_frame(
    id: u64,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>) -> Result<u8, WireError>,
) -> Result<(), WireError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_BYTES]);
    let header = payload(out).and_then(|frame_type| {
        let payload_len = out.len() - start - HEADER_BYTES;
        check_payload_len(payload_len)?;
        Ok(encode_header(frame_type, id, payload_len))
    });
    match header {
        Ok(header) => {
            out[start..start + HEADER_BYTES].copy_from_slice(&header);
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

fn append_request_payload(body: &RequestBody, out: &mut Vec<u8>) -> Result<u8, WireError> {
    Ok(match body {
        RequestBody::Query(query) => {
            put_query(out, &query.release_key, query.rects.iter().copied());
            frame_type::QUERY
        }
        RequestBody::Stats => frame_type::STATS,
        RequestBody::Keys => frame_type::KEYS,
        RequestBody::Ping => frame_type::PING,
        RequestBody::Window(window) => {
            put_str(out, &window.keyspace);
            put_u64(out, window.epoch_start);
            put_u64(out, window.epoch_end);
            put_rects(out, window.rects.iter().copied());
            frame_type::WINDOW
        }
        RequestBody::Report(batch) => {
            let reports = match batch.oracle.as_str() {
                "grr" => Reports::Grr(&batch.grr),
                "oue" => Reports::Oue(batch.oue_count, &batch.oue_bits),
                other => {
                    return Err(malformed(format!(
                        "unknown oracle tag {other:?}: expected \"grr\" or \"oue\""
                    )))
                }
            };
            put_report(
                out,
                &batch.keyspace,
                batch.epoch,
                batch.epsilon,
                batch.cells,
                reports,
            );
            frame_type::REPORT
        }
    })
}

fn append_response_payload(body: &ResponseBody, out: &mut Vec<u8>) -> Result<u8, WireError> {
    Ok(match body {
        ResponseBody::Answers(answers) => {
            put_answers(out, answers);
            frame_type::ANSWERS
        }
        ResponseBody::Stats(stats) => {
            put_stats(out, stats);
            frame_type::STATS_RESPONSE
        }
        ResponseBody::Keys(keys) => {
            put_u32(out, keys.len());
            for key in keys {
                put_str(out, key);
            }
            frame_type::KEYS_RESPONSE
        }
        ResponseBody::Pong => frame_type::PONG,
        ResponseBody::Error(error) => {
            put_error(out, error);
            frame_type::ERROR
        }
        ResponseBody::Window(answers) => {
            put_str(out, &answers.keyspace);
            put_u32(out, answers.covered.len());
            for span in &answers.covered {
                put_u64(out, span.start);
                put_u64(out, span.end);
            }
            put_u32(out, answers.answers.len());
            for &x in &answers.answers {
                put_f64(out, x);
            }
            frame_type::WINDOW_RESPONSE
        }
        ResponseBody::Report(ack) => {
            put_str(out, &ack.keyspace);
            put_u64(out, ack.epoch);
            put_u64(out, ack.accepted);
            put_u64(out, ack.epoch_total);
            frame_type::REPORT_RESPONSE
        }
    })
}

/// Decodes one request from its header and exactly `payload_len`
/// payload bytes. A payload truncated relative to its own grammar,
/// carrying trailing bytes, or using a response frame type is
/// [`ErrorCode::MalformedRequest`]. The decoded frame carries
/// [`PROTOCOL_VERSION`] (2) as its `protocol_version`.
pub fn decode_request(header: &FrameHeader, payload: &[u8]) -> Result<WireRequest, WireError> {
    let mut r = Reader::new(payload);
    let body = match header.frame_type {
        frame_type::QUERY => RequestBody::Query(r.query()?),
        frame_type::STATS => RequestBody::Stats,
        frame_type::KEYS => RequestBody::Keys,
        frame_type::PING => RequestBody::Ping,
        frame_type::WINDOW => {
            let keyspace = r.string()?;
            let epoch_start = r.u64()?;
            let epoch_end = r.u64()?;
            let n = r.len_prefix_of("rect", 32)?;
            let mut rects = Vec::with_capacity(n);
            for _ in 0..n {
                rects.push(r.rect()?);
            }
            RequestBody::Window(WireWindow {
                keyspace,
                epoch_start,
                epoch_end,
                rects,
            })
        }
        frame_type::REPORT => RequestBody::Report(r.report()?),
        other => {
            return Err(malformed(format!(
                "frame type {other:#04x} is not a request"
            )))
        }
    };
    r.finish()?;
    Ok(WireRequest {
        protocol_version: PROTOCOL_VERSION,
        id: header.id,
        body,
    })
}

/// Decodes one response from its header and payload — the client side
/// of [`decode_request`], with the same rejection rules.
pub fn decode_response(header: &FrameHeader, payload: &[u8]) -> Result<WireResponse, WireError> {
    let mut r = Reader::new(payload);
    let body = match header.frame_type {
        frame_type::ANSWERS => ResponseBody::Answers(r.answers()?),
        frame_type::STATS_RESPONSE => ResponseBody::Stats(r.stats()?),
        frame_type::KEYS_RESPONSE => {
            let n = r.len_prefix("keys")?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(r.string()?);
            }
            ResponseBody::Keys(keys)
        }
        frame_type::PONG => ResponseBody::Pong,
        frame_type::ERROR => ResponseBody::Error(r.error()?),
        frame_type::WINDOW_RESPONSE => {
            let keyspace = r.string()?;
            let m = r.len_prefix_of("covered span", 16)?;
            let mut covered = Vec::with_capacity(m);
            for _ in 0..m {
                covered.push(WireEpochSpan {
                    start: r.u64()?,
                    end: r.u64()?,
                });
            }
            let n = r.len_prefix_of("answer", 8)?;
            let mut answers = Vec::with_capacity(n);
            for _ in 0..n {
                answers.push(r.f64()?);
            }
            ResponseBody::Window(WireWindowAnswers {
                keyspace,
                covered,
                answers,
            })
        }
        frame_type::REPORT_RESPONSE => ResponseBody::Report(WireReportAck {
            keyspace: r.string()?,
            epoch: r.u64()?,
            accepted: r.u64()?,
            epoch_total: r.u64()?,
        }),
        other => {
            return Err(malformed(format!(
                "frame type {other:#04x} is not a response"
            )))
        }
    };
    r.finish()?;
    Ok(WireResponse {
        protocol_version: PROTOCOL_VERSION,
        id: header.id,
        body,
    })
}

fn malformed(message: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::MalformedRequest, message)
}

fn check_payload_len(payload_len: usize) -> Result<(), WireError> {
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(malformed(format!(
            "frame payload of {payload_len} bytes exceeds the {MAX_PAYLOAD_BYTES} byte cap; \
             split the batch"
        )));
    }
    Ok(())
}

// --- payload writers -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_rects(out: &mut Vec<u8>, rects: impl ExactSizeIterator<Item = WireRect>) {
    put_u32(out, rects.len());
    for rect in rects {
        put_f64(out, rect.x0);
        put_f64(out, rect.y0);
        put_f64(out, rect.x1);
        put_f64(out, rect.y1);
    }
}

fn put_query(out: &mut Vec<u8>, release_key: &str, rects: impl ExactSizeIterator<Item = WireRect>) {
    put_str(out, release_key);
    put_rects(out, rects);
}

/// A Report payload's reports, borrowed from a typed [`ReportBatch`] or
/// a [`WireReportBatch`], so both encoders share [`put_report`].
enum Reports<'a> {
    /// One perturbed cell index per report.
    Grr(&'a [u32]),
    /// A report count and its packed bit words.
    Oue(u32, &'a [u64]),
}

/// The one writer of the report batch grammar.
fn put_report(
    out: &mut Vec<u8>,
    keyspace: &str,
    epoch: u64,
    epsilon: f64,
    cells: u32,
    reports: Reports<'_>,
) {
    put_str(out, keyspace);
    put_u64(out, epoch);
    put_f64(out, epsilon);
    put_u32(out, cells as usize);
    match reports {
        Reports::Grr(indices) => {
            out.push(0);
            put_u32(out, indices.len());
            for &cell in indices {
                put_u32(out, cell as usize);
            }
        }
        Reports::Oue(count, bits) => {
            out.push(1);
            put_u32(out, count as usize);
            for &word in bits {
                put_u64(out, word);
            }
        }
    }
}

fn put_answers(out: &mut Vec<u8>, answers: &WireAnswers) {
    put_str(out, &answers.release_key);
    put_u64(out, answers.version);
    out.push(match answers.cache {
        CacheState::Warm => 0,
        CacheState::Cold => 1,
    });
    put_u32(out, answers.answers.len());
    for &x in &answers.answers {
        put_f64(out, x);
    }
}

fn put_error(out: &mut Vec<u8>, error: &WireError) {
    out.push(code_byte(error.code));
    put_str(out, &error.message);
    match error.overload {
        None => out.push(0),
        Some(info) => {
            out.push(1);
            put_u64(out, info.inflight_rects);
            put_u64(out, info.limit);
        }
    }
}

fn put_stats(out: &mut Vec<u8>, stats: &EngineStats) {
    put_u64(out, stats.requests);
    put_u64(out, stats.answers);
    put_u64(out, stats.unknown_keys);
    put_u64(out, stats.shed);
    put_u64(out, stats.inflight_rects);
    put_u64(out, stats.admission_limit);
    put_u64(out, stats.catalog.releases as u64);
    put_u64(out, stats.catalog.warm as u64);
    put_u64(out, stats.catalog.capacity as u64);
    put_u64(out, stats.catalog.budget_bytes as u64);
    put_u64(out, stats.catalog.resident_bytes as u64);
    put_u64(out, stats.catalog.lookups);
    put_u64(out, stats.catalog.warm_hits);
    put_u64(out, stats.catalog.compilations);
    put_u64(out, stats.catalog.evictions);
    // The flag byte is always written: bit 0 = the 8 transport words
    // follow, bit 1 = a kernel-backend byte follows them.
    let backend = stats.kernel_backend;
    out.push(stats.transport.is_some() as u8 | (backend.is_some() as u8) << 1);
    if let Some(t) = &stats.transport {
        put_u64(out, t.accepted);
        put_u64(out, t.active);
        put_u64(out, t.frames_decoded);
        put_u64(out, t.read_stalls);
        put_u64(out, t.write_stalls);
        put_u64(out, t.bytes_in);
        put_u64(out, t.bytes_out);
        put_u64(out, t.reports_accepted);
    }
    if let Some(b) = backend {
        out.push(match b {
            KernelBackend::Scalar => 0,
            KernelBackend::Avx2 => 1,
            KernelBackend::Mixed => 2,
        });
    }
}

// --- payload reader --------------------------------------------------

/// A cursor over one payload slice with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(malformed(format!(
                "payload truncated: wanted {n} bytes at offset {}, payload is {}",
                self.pos,
                self.bytes.len()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A `u32` element count bounded by what the payload can still
    /// hold (`bytes_each` per element), so a hostile length prefix is
    /// rejected *before* any `Vec::with_capacity` trusts it.
    fn len_prefix_of(&mut self, what: &str, bytes_each: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / bytes_each {
            return Err(malformed(format!(
                "{what} count {n} exceeds the {} remaining payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn len_prefix(&mut self, what: &str) -> Result<usize, WireError> {
        self.len_prefix_of(what, 1)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| malformed(format!("string payload is not UTF-8: {e}")))
    }

    fn rect(&mut self) -> Result<WireRect, WireError> {
        Ok(WireRect {
            x0: self.f64()?,
            y0: self.f64()?,
            x1: self.f64()?,
            y1: self.f64()?,
        })
    }

    fn query(&mut self) -> Result<WireQuery, WireError> {
        let release_key = self.string()?;
        let n = self.len_prefix_of("rect", 32)?;
        let mut rects = Vec::with_capacity(n);
        for _ in 0..n {
            rects.push(self.rect()?);
        }
        Ok(WireQuery { release_key, rects })
    }

    fn answers(&mut self) -> Result<WireAnswers, WireError> {
        let release_key = self.string()?;
        let version = self.u64()?;
        let cache = match self.u8()? {
            0 => CacheState::Warm,
            1 => CacheState::Cold,
            byte => return Err(malformed(format!("unknown cache state byte {byte}"))),
        };
        let n = self.len_prefix_of("answer", 8)?;
        let mut answers = Vec::with_capacity(n);
        for _ in 0..n {
            answers.push(self.f64()?);
        }
        Ok(WireAnswers {
            release_key,
            version,
            cache,
            answers,
        })
    }

    fn report(&mut self) -> Result<WireReportBatch, WireError> {
        let keyspace = self.string()?;
        let epoch = self.u64()?;
        let epsilon = self.f64()?;
        let cells = self.u32()?;
        let mut batch = WireReportBatch {
            keyspace,
            epoch,
            epsilon,
            cells,
            oracle: String::new(),
            grr: Vec::new(),
            oue_count: 0,
            oue_bits: Vec::new(),
        };
        match self.u8()? {
            0 => {
                batch.oracle = "grr".into();
                let n = self.len_prefix_of("GRR report", 4)?;
                let mut reports = Vec::with_capacity(n);
                for _ in 0..n {
                    reports.push(self.u32()?);
                }
                batch.grr = reports;
            }
            1 => {
                batch.oracle = "oue".into();
                batch.oue_count = self.u32()?;
                // The word total is count × ⌈cells/64⌉ — both factors
                // arrive from the wire, so bound their product by the
                // remaining payload before any buffer trusts it. A
                // degenerate `cells` (0 ⇒ zero words) decodes to an
                // empty vector that shape validation rejects typed.
                let words_each = (cells as usize).div_ceil(64);
                let remaining = self.remaining();
                let total = (batch.oue_count as usize)
                    .checked_mul(words_each)
                    .filter(|&total| total <= remaining / 8)
                    .ok_or_else(|| {
                        malformed(format!(
                            "OUE word count {} × {words_each} exceeds the {remaining} \
                             remaining payload bytes",
                            batch.oue_count
                        ))
                    })?;
                let mut bits = Vec::with_capacity(total);
                for _ in 0..total {
                    bits.push(self.u64()?);
                }
                batch.oue_bits = bits;
            }
            tag => return Err(malformed(format!("unknown oracle tag byte {tag}"))),
        }
        Ok(batch)
    }

    fn error(&mut self) -> Result<WireError, WireError> {
        let code = byte_code(self.u8()?)?;
        let message = self.string()?;
        let overload = match self.u8()? {
            0 => None,
            1 => Some(OverloadInfo {
                inflight_rects: self.u64()?,
                limit: self.u64()?,
            }),
            byte => return Err(malformed(format!("unknown overload flag byte {byte}"))),
        };
        Ok(WireError {
            code,
            message,
            overload,
        })
    }

    fn stats(&mut self) -> Result<EngineStats, WireError> {
        let mut stats = EngineStats {
            requests: self.u64()?,
            answers: self.u64()?,
            unknown_keys: self.u64()?,
            shed: self.u64()?,
            inflight_rects: self.u64()?,
            admission_limit: self.u64()?,
            catalog: CatalogStats {
                releases: self.u64()? as usize,
                warm: self.u64()? as usize,
                capacity: self.u64()? as usize,
                budget_bytes: self.u64()? as usize,
                resident_bytes: self.u64()? as usize,
                lookups: self.u64()?,
                warm_hits: self.u64()?,
                compilations: self.u64()?,
                evictions: self.u64()?,
            },
            transport: None,
            kernel_backend: None,
        };
        let flag = self.u8()?;
        if flag > 3 {
            return Err(malformed(format!("unknown stats tail flag byte {flag}")));
        }
        if flag & 1 != 0 {
            stats.transport = Some(TransportStats {
                accepted: self.u64()?,
                active: self.u64()?,
                frames_decoded: self.u64()?,
                read_stalls: self.u64()?,
                write_stalls: self.u64()?,
                bytes_in: self.u64()?,
                bytes_out: self.u64()?,
                reports_accepted: self.u64()?,
            });
        }
        if flag & 2 != 0 {
            stats.kernel_backend = Some(match self.u8()? {
                0 => KernelBackend::Scalar,
                1 => KernelBackend::Avx2,
                2 => KernelBackend::Mixed,
                byte => return Err(malformed(format!("unknown kernel backend byte {byte}"))),
            });
        }
        Ok(stats)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(malformed(format!(
                "{} trailing payload bytes after the frame",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: &WireRequest) -> WireRequest {
        let mut buf = Vec::new();
        encode_request(request, &mut buf).expect("encodes");
        let header =
            decode_header(buf[..HEADER_BYTES].try_into().expect("header")).expect("header decodes");
        assert_eq!(header.payload_len, buf.len() - HEADER_BYTES);
        assert_eq!(header.id, request.id);
        decode_request(&header, &buf[HEADER_BYTES..]).expect("payload decodes")
    }

    fn roundtrip_response(response: &WireResponse) -> WireResponse {
        let mut buf = Vec::new();
        encode_response(response, &mut buf).expect("encodes");
        let header =
            decode_header(buf[..HEADER_BYTES].try_into().expect("header")).expect("header decodes");
        assert_eq!(header.id, response.id);
        decode_response(&header, &buf[HEADER_BYTES..]).expect("payload decodes")
    }

    #[test]
    fn query_frames_roundtrip_bit_exact() {
        let request = WireRequest::new(
            0xDEAD_BEEF_CAFE,
            RequestBody::Query(WireQuery {
                release_key: "ünïcødé-κλειδί-鍵 \"quoted\"\nline".into(),
                rects: vec![
                    WireRect {
                        x0: -130.0,
                        y0: 10.0,
                        x1: -70.0,
                        y1: 50.0,
                    },
                    WireRect {
                        x0: -0.0,
                        y0: f64::MIN_POSITIVE,
                        x1: 1e300,
                        y1: f64::NAN,
                    },
                ],
            }),
        );
        let back = roundtrip_request(&request);
        assert_eq!(back.id, request.id);
        let (RequestBody::Query(a), RequestBody::Query(b)) = (&back.body, &request.body) else {
            panic!("query survives");
        };
        assert_eq!(a.release_key, b.release_key);
        // Bit-exact floats, checked through to_bits (NaN fails
        // PartialEq, and this codec must carry it to the validator).
        for (ra, rb) in a.rects.iter().zip(&b.rects) {
            for (va, vb) in [
                (ra.x0, rb.x0),
                (ra.y0, rb.y0),
                (ra.x1, rb.x1),
                (ra.y1, rb.y1),
            ] {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        for body in [RequestBody::Stats, RequestBody::Keys, RequestBody::Ping] {
            let request = WireRequest::new(7, body);
            assert_eq!(roundtrip_request(&request).body, request.body);
        }
        let response = WireResponse::new(7, ResponseBody::Pong);
        assert_eq!(roundtrip_response(&response).body, response.body);
    }

    fn decode_stats(payload: &[u8]) -> Result<EngineStats, WireError> {
        let header = FrameHeader {
            frame_type: frame_type::STATS_RESPONSE,
            id: 9,
            payload_len: payload.len(),
        };
        match decode_response(&header, payload)?.body {
            ResponseBody::Stats(stats) => Ok(stats),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_payload_has_one_fixed_layout() {
        let transport = TransportStats {
            accepted: 5,
            active: 2,
            frames_decoded: 100,
            read_stalls: 1,
            write_stalls: 3,
            bytes_in: 4096,
            bytes_out: 1 << 20,
            reports_accepted: 42,
        };
        let base = EngineStats {
            requests: 10,
            answers: 20,
            shed: 1,
            ..EngineStats::default()
        };
        // 15 counters and the flag byte, plus 8 transport words and/or
        // one backend byte: exactly four lengths.
        for (transport, kernel_backend, len) in [
            (None, None, 121),
            (Some(transport), None, 185),
            (None, Some(KernelBackend::Avx2), 122),
            (Some(transport), Some(KernelBackend::Mixed), 186),
        ] {
            let stats = EngineStats {
                transport,
                kernel_backend,
                ..base
            };
            let mut payload = Vec::new();
            put_stats(&mut payload, &stats);
            assert_eq!(payload.len(), len);
            assert_eq!(decode_stats(&payload), Ok(stats));
            // Any cut, and any trailing byte, fails typed.
            for cut in 0..len {
                let err = decode_stats(&payload[..cut]).unwrap_err();
                assert_eq!(err.code, ErrorCode::MalformedRequest, "cut at {cut}");
            }
            payload.push(0);
            let err = decode_stats(&payload).unwrap_err();
            assert!(err.message.contains("trailing"), "{}", err.message);
        }

        // Shorter shapes are rejected typed: no flag byte at all, and a
        // 7-word transport tail without `reports_accepted`.
        let mut payload = Vec::new();
        put_stats(&mut payload, &base);
        let counters = &payload[..15 * 8];
        assert!(decode_stats(counters).is_err());
        let mut seven_words = counters.to_vec();
        seven_words.push(1);
        seven_words.extend_from_slice(&[0u8; 7 * 8]);
        assert!(decode_stats(&seven_words).is_err());
        // So is a flag bit this layout does not define.
        payload[15 * 8] = 4;
        let err = decode_stats(&payload).unwrap_err();
        assert!(err.message.contains("flag"), "{}", err.message);
    }

    #[test]
    fn window_frames_roundtrip() {
        let request = WireRequest::new(
            41,
            RequestBody::Window(WireWindow {
                keyspace: "taxi@西".into(),
                epoch_start: 3,
                epoch_end: u64::MAX - 1,
                rects: vec![WireRect {
                    x0: -130.0,
                    y0: 10.0,
                    x1: -70.0,
                    y1: 50.0,
                }],
            }),
        );
        assert_eq!(roundtrip_request(&request).body, request.body);

        let response = WireResponse::new(
            41,
            ResponseBody::Window(WireWindowAnswers {
                keyspace: "taxi@西".into(),
                covered: vec![
                    WireEpochSpan { start: 0, end: 4 },
                    WireEpochSpan { start: 4, end: 5 },
                ],
                answers: vec![12.5, -0.25, 0.0],
            }),
        );
        assert_eq!(roundtrip_response(&response).body, response.body);

        // Hostile span counts are rejected before allocation, like
        // every other length prefix in this codec.
        let mut payload = Vec::new();
        put_str(&mut payload, "k");
        put_u32(&mut payload, 1 << 30);
        let header = FrameHeader {
            frame_type: frame_type::WINDOW_RESPONSE,
            id: 1,
            payload_len: payload.len(),
        };
        let err = decode_response(&header, &payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        assert!(
            err.message.contains("covered span count"),
            "{}",
            err.message
        );
    }

    #[test]
    fn decoded_frames_carry_the_binary_version() {
        let request = WireRequest::new(1, RequestBody::Ping);
        assert_eq!(roundtrip_request(&request).protocol_version, 2);
    }

    #[test]
    fn magic_cannot_begin_a_json_text() {
        // RFC 8259: a JSON text is optional whitespace, then a value;
        // every byte either can start with is ASCII, and 0xD6 is not.
        let json_starts = b" \t\n\r{[\"-0123456789tfn";
        assert!(json_starts.iter().all(u8::is_ascii));
        assert!(!MAGIC[0].is_ascii());
        // The magic is itself valid UTF-8 (a lead byte and its
        // continuation): the lead byte alone is what decides.
        assert_eq!(std::str::from_utf8(&MAGIC), Ok("\u{05B2}"));
    }

    #[test]
    fn header_rejections_are_typed() {
        // Bad magic: the first byte of a JSON line, say.
        let mut bytes = encode_header(frame_type::PING, 1, 0);
        bytes[0] = b'{';
        let err = decode_header(&bytes).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);

        // Foreign version in an otherwise well-formed header.
        let mut bytes = encode_header(frame_type::PING, 1, 0);
        bytes[2] = 3;
        let err = decode_header(&bytes).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);

        // Oversized length prefix.
        let mut bytes = encode_header(frame_type::PING, 1, 0);
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_header(&bytes).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        assert!(err.message.contains("length prefix"), "{}", err.message);
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let request = WireRequest::new(
            3,
            RequestBody::Query(WireQuery {
                release_key: "k".into(),
                rects: vec![WireRect {
                    x0: 0.0,
                    y0: 0.0,
                    x1: 1.0,
                    y1: 1.0,
                }],
            }),
        );
        let mut buf = Vec::new();
        encode_request(&request, &mut buf).unwrap();
        let header = decode_header(buf[..HEADER_BYTES].try_into().unwrap()).unwrap();
        let payload = &buf[HEADER_BYTES..];

        let err = decode_request(&header, &payload[..payload.len() - 1]).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);

        let mut trailing = payload.to_vec();
        trailing.push(0);
        let err = decode_request(&header, &trailing).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        assert!(err.message.contains("trailing"), "{}", err.message);
    }

    #[test]
    fn hostile_length_prefixes_cannot_force_allocations() {
        // A query whose rect count claims far more than the payload
        // holds must be rejected before any `Vec::with_capacity`.
        let mut payload = Vec::new();
        put_str(&mut payload, "k");
        put_u32(&mut payload, 1 << 30);
        let header = FrameHeader {
            frame_type: frame_type::QUERY,
            id: 1,
            payload_len: payload.len(),
        };
        let err = decode_request(&header, &payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        assert!(err.message.contains("rect count"), "{}", err.message);
    }

    #[test]
    fn error_code_bytes_are_stable() {
        // The binary stability contract: these exact bytes are the
        // wire form, the counterpart of the JSON codec's stable names.
        for (code, byte) in [
            (ErrorCode::UnknownKey, 0u8),
            (ErrorCode::InvalidQuery, 1),
            (ErrorCode::Overloaded, 2),
            (ErrorCode::MalformedRequest, 3),
            (ErrorCode::UnsupportedVersion, 4),
            (ErrorCode::Internal, 5),
        ] {
            assert_eq!(code_byte(code), byte);
            assert_eq!(byte_code(byte).unwrap(), code);
        }
        assert!(byte_code(6).is_err());
    }

    #[test]
    fn append_request_pipelines_frames_back_to_back() {
        let a = WireRequest::new(1, RequestBody::Ping);
        let b = WireRequest::new(2, RequestBody::Stats);
        let mut buf = Vec::new();
        append_request(&a, &mut buf).unwrap();
        let first_len = buf.len();
        append_request(&b, &mut buf).unwrap();

        let header = decode_header(buf[..HEADER_BYTES].try_into().unwrap()).unwrap();
        assert_eq!(header.id, 1);
        assert_eq!(first_len, HEADER_BYTES + header.payload_len);
        let second = &buf[first_len..];
        let header = decode_header(second[..HEADER_BYTES].try_into().unwrap()).unwrap();
        assert_eq!(header.id, 2);
        assert_eq!(
            decode_request(&header, &second[HEADER_BYTES..])
                .unwrap()
                .body,
            RequestBody::Stats
        );
    }

    #[test]
    fn append_query_matches_the_generic_encoder() {
        let rects = vec![
            Rect::new(1.5, -2.0, 3.25, 4.0).unwrap(),
            Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(),
        ];
        let mut direct = Vec::new();
        append_query(9, "key", &rects, &mut direct).unwrap();
        let mut generic = Vec::new();
        let request = WireRequest::new(
            9,
            RequestBody::Query(WireQuery {
                release_key: "key".into(),
                rects: rects.iter().map(WireRect::from).collect(),
            }),
        );
        encode_request(&request, &mut generic).unwrap();
        assert_eq!(direct, generic, "two paths, one wire form");
    }

    fn grr_batch() -> WireReportBatch {
        WireReportBatch {
            keyspace: "taxi@西".into(),
            epoch: 7,
            epsilon: 0.5,
            cells: 100,
            oracle: "grr".into(),
            grr: vec![0, 99, 42, 42],
            oue_count: 0,
            oue_bits: Vec::new(),
        }
    }

    fn oue_batch() -> WireReportBatch {
        WireReportBatch {
            keyspace: "taxi".into(),
            epoch: 3,
            epsilon: 1.25,
            cells: 100, // 2 words per report
            oracle: "oue".into(),
            grr: Vec::new(),
            oue_count: 3,
            oue_bits: vec![1, 0, u64::MAX >> 30, 1 << 35, 0, 3],
        }
    }

    #[test]
    fn report_frames_roundtrip_both_families() {
        for batch in [grr_batch(), oue_batch()] {
            let request = WireRequest::new(11, RequestBody::Report(batch));
            assert_eq!(roundtrip_request(&request).body, request.body);
        }
        let response = WireResponse::new(
            11,
            ResponseBody::Report(WireReportAck {
                keyspace: "taxi@西".into(),
                epoch: 7,
                accepted: 4,
                epoch_total: 12,
            }),
        );
        assert_eq!(roundtrip_response(&response).body, response.body);
    }

    #[test]
    fn append_report_matches_the_generic_encoder() {
        for wire in [grr_batch(), oue_batch()] {
            let typed = wire.validate().unwrap();
            let mut direct = Vec::new();
            append_report(11, &typed, &mut direct).unwrap();
            let mut generic = Vec::new();
            encode_request(
                &WireRequest::new(11, RequestBody::Report(wire)),
                &mut generic,
            )
            .unwrap();
            assert_eq!(direct, generic, "two paths, one wire form");
        }
    }

    #[test]
    fn hostile_report_counts_cannot_force_allocations() {
        // GRR: a report count claiming far more indices than the
        // payload holds.
        let mut payload = Vec::new();
        put_str(&mut payload, "k");
        put_u64(&mut payload, 1);
        put_f64(&mut payload, 1.0);
        put_u32(&mut payload, 100);
        payload.push(0);
        put_u32(&mut payload, 1 << 30);
        let header = FrameHeader {
            frame_type: frame_type::REPORT,
            id: 1,
            payload_len: payload.len(),
        };
        let err = decode_request(&header, &payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        assert!(err.message.contains("GRR report count"), "{}", err.message);

        // OUE: count × words overflows what the payload holds (and
        // the product itself is checked, so count × words cannot wrap).
        let mut payload = Vec::new();
        put_str(&mut payload, "k");
        put_u64(&mut payload, 1);
        put_f64(&mut payload, 1.0);
        put_u32(&mut payload, 1 << 20); // 16384 words per report
        payload.push(1);
        put_u32(&mut payload, u32::MAX as usize);
        let header = FrameHeader {
            frame_type: frame_type::REPORT,
            id: 1,
            payload_len: payload.len(),
        };
        let err = decode_request(&header, &payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        assert!(err.message.contains("OUE word count"), "{}", err.message);

        // An unknown oracle tag byte is rejected typed.
        let mut payload = Vec::new();
        put_str(&mut payload, "k");
        put_u64(&mut payload, 1);
        put_f64(&mut payload, 1.0);
        put_u32(&mut payload, 100);
        payload.push(9);
        let header = FrameHeader {
            frame_type: frame_type::REPORT,
            id: 1,
            payload_len: payload.len(),
        };
        let err = decode_request(&header, &payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        assert!(err.message.contains("oracle tag byte"), "{}", err.message);
    }

    #[test]
    fn report_with_unknown_oracle_refuses_binary_encoding() {
        let mut batch = grr_batch();
        batch.oracle = "psychic".into();
        let mut buf = Vec::new();
        append_request(&WireRequest::new(1, RequestBody::Ping), &mut buf).unwrap();
        let len = buf.len();
        let report = WireRequest::new(2, RequestBody::Report(batch));
        let err = append_request(&report, &mut buf).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedRequest);
        assert_eq!(buf.len(), len, "refused frame leaves no partial bytes");
    }

    #[test]
    fn encoding_reuses_buffer_capacity() {
        let request = WireRequest::new(
            1,
            RequestBody::Query(WireQuery {
                release_key: "steady-state".into(),
                rects: (0..64)
                    .map(|i| WireRect {
                        x0: i as f64,
                        y0: 0.0,
                        x1: i as f64 + 1.0,
                        y1: 1.0,
                    })
                    .collect(),
            }),
        );
        let mut buf = Vec::new();
        encode_request(&request, &mut buf).unwrap();
        let capacity = buf.capacity();
        let ptr = buf.as_ptr();
        for _ in 0..16 {
            encode_request(&request, &mut buf).unwrap();
        }
        assert_eq!(buf.capacity(), capacity, "no reallocation at steady state");
        assert_eq!(buf.as_ptr(), ptr, "no reallocation at steady state");
    }
}
