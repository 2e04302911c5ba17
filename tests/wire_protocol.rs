//! Wire-protocol regression: proptest round-trips of every frame
//! variant through *both* codecs (one-line JSON v1 and the binary v2
//! frame format), single-line framing under adversarial strings,
//! byte-mutated binary payloads and JSON lines (decoded directly, and
//! sent live to a server), cross-codec dispatch equivalence, and the
//! boundary validation that keeps malformed rectangles out of the
//! engine.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dpgrid::net::TcpServer;
use dpgrid::prelude::*;
use dpgrid::serve::wire::{
    self, binary, ErrorCode, HelloOffer, RequestBody, ResponseBody, WireAnswers, WireError,
    WireOutcome, WireQuery, WireRect, WireRequest, WireResponse, WireWindow, PROTOCOL_VERSION,
};
use dpgrid::serve::CacheState;
use dpgrid::serve::{CatalogStats, EngineStats, ServeError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keys stress framing: quotes, backslashes, newlines, unicode,
/// embedded JSON — all must survive one-line encoding.
const NASTY_KEYS: &[&str] = &[
    "storage",
    "key with spaces",
    "quo\"te",
    "back\\slash",
    "new\nline",
    "tab\there",
    "ünïcødé-κλειδί-鍵",
    "{\"looks\":\"like json\"}",
    "",
];

fn arb_key(rng: &mut StdRng) -> String {
    NASTY_KEYS[rng.random_range(0..NASTY_KEYS.len())].to_string()
}

/// Finite but awkward coordinates: subnormals, huge magnitudes,
/// negative zero, high-precision fractions.
fn arb_coord(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..6u32) {
        0 => -0.0,
        1 => f64::MIN_POSITIVE,
        2 => -1e300,
        3 => 1e300,
        4 => rng.random_range(-1e6..1e6),
        _ => rng.random_range(-1.0..1.0) / 3.0,
    }
}

fn arb_rect(rng: &mut StdRng) -> WireRect {
    WireRect {
        x0: arb_coord(rng),
        y0: arb_coord(rng),
        x1: arb_coord(rng),
        y1: arb_coord(rng),
    }
}

fn arb_query(rng: &mut StdRng) -> WireQuery {
    let n = rng.random_range(0..5usize);
    WireQuery {
        release_key: arb_key(rng),
        rects: (0..n).map(|_| arb_rect(rng)).collect(),
    }
}

/// An id inside the documented JSON safe-integer range (`<= 2⁵³`);
/// ids beyond it are out of contract (JSON numbers are doubles).
fn arb_id(rng: &mut StdRng) -> u64 {
    rng.random::<u64>() >> 12
}

fn arb_request(rng: &mut StdRng) -> WireRequest {
    let body = match rng.random_range(0..6u32) {
        0 => RequestBody::Query(arb_query(rng)),
        1 => {
            let n = rng.random_range(0..4usize);
            RequestBody::Batch((0..n).map(|_| arb_query(rng)).collect())
        }
        2 => RequestBody::Stats,
        3 => RequestBody::Keys,
        4 => RequestBody::Report(arb_report(rng)),
        _ => RequestBody::Ping,
    };
    WireRequest::new(arb_id(rng), body)
}

fn arb_error(rng: &mut StdRng) -> WireError {
    let code = match rng.random_range(0..6u32) {
        0 => ErrorCode::UnknownKey,
        1 => ErrorCode::InvalidQuery,
        2 => ErrorCode::Overloaded,
        3 => ErrorCode::MalformedRequest,
        4 => ErrorCode::UnsupportedVersion,
        _ => ErrorCode::Internal,
    };
    let mut error = WireError::new(code, arb_key(rng));
    if code == ErrorCode::Overloaded {
        // Overload errors carry structured counters; they must survive
        // the round trip bit-exactly too.
        error.overload = Some(dpgrid::serve::wire::OverloadInfo {
            inflight_rects: rng.random::<u64>() >> 12,
            limit: rng.random::<u64>() >> 12,
        });
    }
    error
}

fn arb_answers(rng: &mut StdRng) -> WireAnswers {
    let n = rng.random_range(0..5usize);
    WireAnswers {
        release_key: arb_key(rng),
        version: arb_id(rng),
        cache: if rng.random::<bool>() {
            CacheState::Warm
        } else {
            CacheState::Cold
        },
        answers: (0..n).map(|_| arb_coord(rng)).collect(),
    }
}

fn arb_stats(rng: &mut StdRng) -> EngineStats {
    EngineStats {
        requests: rng.random::<u64>() >> 12,
        answers: rng.random::<u64>() >> 12,
        unknown_keys: rng.random::<u64>() >> 12,
        shed: rng.random::<u64>() >> 12,
        inflight_rects: rng.random::<u64>() >> 12,
        admission_limit: rng.random::<u64>() >> 12,
        catalog: CatalogStats {
            releases: rng.random_range(0..1_000_000usize),
            warm: rng.random_range(0..1_000usize),
            capacity: if rng.random::<bool>() {
                usize::MAX
            } else {
                rng.random_range(1..1_000usize)
            },
            budget_bytes: if rng.random::<bool>() {
                usize::MAX
            } else {
                rng.random_range(1..1_000_000_000usize)
            },
            resident_bytes: rng.random_range(0..1_000_000_000usize),
            lookups: rng.random::<u64>() >> 12,
            warm_hits: rng.random::<u64>() >> 12,
            compilations: rng.random::<u64>() >> 12,
            evictions: rng.random::<u64>() >> 12,
        },
        // Transport counters are optional: both absence and presence
        // must round-trip bit-exactly through both codecs.
        transport: if rng.random::<bool>() {
            Some(dpgrid::serve::TransportStats {
                accepted: rng.random::<u64>() >> 12,
                active: rng.random::<u64>() >> 12,
                frames_decoded: rng.random::<u64>() >> 12,
                read_stalls: rng.random::<u64>() >> 12,
                write_stalls: rng.random::<u64>() >> 12,
                bytes_in: rng.random::<u64>() >> 12,
                bytes_out: rng.random::<u64>() >> 12,
                reports_accepted: rng.random::<u64>() >> 12,
            })
        } else {
            None
        },
        // The kernel backend is optional too, and every combination
        // with the transport counters must round-trip.
        kernel_backend: match rng.random_range(0..4u8) {
            0 => None,
            1 => Some(dpgrid::serve::KernelBackend::Scalar),
            2 => Some(dpgrid::serve::KernelBackend::Avx2),
            _ => Some(dpgrid::serve::KernelBackend::Mixed),
        },
    }
}

/// A well-formed report batch of either oracle family — shapes are
/// consistent (`oue_bits` is exactly `oue_count × ⌈cells/64⌉` words)
/// so both codecs round-trip it, but *values* (cell indices, tail
/// bits) range freely: the wire layer must carry them verbatim and
/// leave semantic rejection to `validate`.
fn arb_report(rng: &mut StdRng) -> wire::WireReportBatch {
    let cells = rng.random_range(1..=200u32);
    let mut batch = wire::WireReportBatch {
        keyspace: arb_key(rng),
        epoch: rng.random::<u64>() >> 12,
        epsilon: rng.random_range(0.01..8.0),
        cells,
        oracle: String::new(),
        grr: Vec::new(),
        oue_count: 0,
        oue_bits: Vec::new(),
    };
    if rng.random::<bool>() {
        batch.oracle = "grr".into();
        let n = rng.random_range(0..40usize);
        batch.grr = (0..n).map(|_| rng.random::<u32>()).collect();
    } else {
        batch.oracle = "oue".into();
        let words = (cells as usize).div_ceil(64);
        batch.oue_count = rng.random_range(0..20u32);
        batch.oue_bits = (0..batch.oue_count as usize * words)
            .map(|_| rng.random::<u64>())
            .collect();
    }
    batch
}

fn arb_report_ack(rng: &mut StdRng) -> wire::WireReportAck {
    wire::WireReportAck {
        keyspace: arb_key(rng),
        epoch: rng.random::<u64>() >> 12,
        accepted: rng.random::<u64>() >> 12,
        epoch_total: rng.random::<u64>() >> 12,
    }
}

fn arb_response(rng: &mut StdRng) -> WireResponse {
    let body = match rng.random_range(0..7u32) {
        6 => ResponseBody::Report(arb_report_ack(rng)),
        0 => ResponseBody::Answers(arb_answers(rng)),
        1 => {
            let n = rng.random_range(0..4usize);
            ResponseBody::Batch(
                (0..n)
                    .map(|_| {
                        if rng.random::<bool>() {
                            WireOutcome::Answered(arb_answers(rng))
                        } else {
                            WireOutcome::Failed(arb_error(rng))
                        }
                    })
                    .collect(),
            )
        }
        2 => ResponseBody::Stats(arb_stats(rng)),
        3 => {
            let n = rng.random_range(0..5usize);
            ResponseBody::Keys((0..n).map(|_| arb_key(rng)).collect())
        }
        4 => ResponseBody::Pong,
        _ => ResponseBody::Error(arb_error(rng)),
    };
    WireResponse::new(arb_id(rng), body)
}

/// Encodes `request` as one binary v2 frame and decodes it back
/// through the same header/payload split the transport uses.
fn binary_roundtrip_request(request: &WireRequest) -> WireRequest {
    let mut buf = Vec::new();
    binary::encode_request(request, &mut buf).unwrap();
    let head: [u8; binary::HEADER_BYTES] = buf[..binary::HEADER_BYTES].try_into().unwrap();
    let header = binary::decode_header(&head).unwrap();
    assert_eq!(header.payload_len, buf.len() - binary::HEADER_BYTES);
    binary::decode_request(&header, &buf[binary::HEADER_BYTES..]).unwrap()
}

/// Encodes `response` as one binary v2 frame and decodes it back.
fn binary_roundtrip_response(response: &WireResponse) -> WireResponse {
    let mut buf = Vec::new();
    binary::encode_response(response, &mut buf).unwrap();
    let head: [u8; binary::HEADER_BYTES] = buf[..binary::HEADER_BYTES].try_into().unwrap();
    let header = binary::decode_header(&head).unwrap();
    assert_eq!(header.payload_len, buf.len() - binary::HEADER_BYTES);
    binary::decode_response(&header, &buf[binary::HEADER_BYTES..]).unwrap()
}

/// Truncates `frame`'s payload at sampled points and flips single
/// bits of it, feeding each mutant to `decode` under the frame's own
/// header. Every binary payload grammar consumes all of its bytes, so
/// a cut must fail typed; a flip may decode or fail typed. Neither may
/// panic.
fn mutate_and_decode<T>(
    rng: &mut StdRng,
    frame: &[u8],
    decode: fn(&binary::FrameHeader, &[u8]) -> Result<T, WireError>,
) {
    let head: [u8; binary::HEADER_BYTES] = frame[..binary::HEADER_BYTES].try_into().unwrap();
    let header = binary::decode_header(&head).unwrap();
    let payload = &frame[binary::HEADER_BYTES..];
    if payload.is_empty() {
        return;
    }
    for _ in 0..8 {
        let cut = rng.random_range(0..payload.len());
        let short = binary::FrameHeader {
            payload_len: cut,
            ..header
        };
        match decode(&short, &payload[..cut]) {
            Err(e) => assert_eq!(e.code, ErrorCode::MalformedRequest, "{e}"),
            Ok(_) => panic!("payload cut at {cut} of {} bytes decoded", payload.len()),
        }
        let mut flipped = payload.to_vec();
        let at = rng.random_range(0..flipped.len());
        flipped[at] ^= 1 << rng.random_range(0..8u32);
        if let Err(e) = decode(&header, &flipped) {
            assert_eq!(e.code, ErrorCode::MalformedRequest, "{e}");
        }
    }
}

/// One valid JSON request line: any `arb_request` body, or a `Window`
/// or `Hello` body, which `arb_request` does not draw (binary frames
/// carry no `Hello`).
fn arb_json_line(rng: &mut StdRng) -> String {
    let request = match rng.random_range(0..4u32) {
        0 => {
            let n = rng.random_range(0..4usize);
            let window = WireWindow {
                keyspace: arb_key(rng),
                epoch_start: arb_id(rng),
                epoch_end: arb_id(rng),
                rects: (0..n).map(|_| arb_rect(rng)).collect(),
            };
            WireRequest::new(arb_id(rng), RequestBody::Window(window))
        }
        1 => {
            let offer = HelloOffer {
                max_version: rng.random_range(0..4u32),
            };
            WireRequest::new(arb_id(rng), RequestBody::Hello(offer))
        }
        _ => arb_request(rng),
    };
    request.encode()
}

/// Up to 18 mutants of one valid JSON line, six of each kind: a
/// truncation; a one-bit flip; and a splice of a hostile token (a
/// number past every integer and float range, a lone surrogate, a
/// short `\u` escape, or nesting deeper than the parser's cap), either
/// over a run of digits (a number the parser must read) or at a random
/// byte. Mutants that are not UTF-8 are dropped: the server refuses
/// those before any decoding.
fn json_mutants(rng: &mut StdRng, line: &str) -> Vec<String> {
    let tokens = [
        "1e999999".to_string(),
        "9".repeat(400),
        "18446744073709551616".to_string(),
        r"\uD800".to_string(),
        r"\u12".to_string(),
        "[".repeat(200),
        "{".repeat(200),
    ];
    let bytes = line.as_bytes();
    let digit_runs: Vec<(usize, usize)> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
        .map(|i| {
            (
                i,
                bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count(),
            )
        })
        .collect();
    let mut mutants = Vec::new();
    for _ in 0..6 {
        let cut = bytes[..rng.random_range(0..bytes.len())].to_vec();
        let mut flipped = bytes.to_vec();
        flipped[rng.random_range(0..bytes.len())] ^= 1 << rng.random_range(0..8u32);
        let (at, len) = if !digit_runs.is_empty() && rng.random::<bool>() {
            digit_runs[rng.random_range(0..digit_runs.len())]
        } else {
            (rng.random_range(0..=bytes.len()), 0)
        };
        let mut spliced = bytes[..at].to_vec();
        spliced.extend_from_slice(tokens[rng.random_range(0..tokens.len())].as_bytes());
        spliced.extend_from_slice(&bytes[at + len..]);
        mutants.extend(
            [cut, flipped, spliced]
                .into_iter()
                .filter_map(|m| String::from_utf8(m).ok()),
        );
    }
    mutants
}

proptest! {
    /// Every request frame round-trips bit-exactly through its
    /// one-line JSON encoding, whatever variant and key content.
    #[test]
    fn request_frames_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = arb_request(&mut rng);
        let line = request.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {}", line);
        let back = WireRequest::decode(&line)
            .unwrap_or_else(|e| panic!("{line}: {}", e.error));
        prop_assert_eq!(back, request);
    }

    /// Every response frame round-trips bit-exactly, including stats
    /// with unbounded (`usize::MAX`) limits and error payloads.
    #[test]
    fn response_frames_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let response = arb_response(&mut rng);
        let line = response.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {}", line);
        let back = WireResponse::decode(&line)
            .unwrap_or_else(|e| panic!("{line}: {}", e.error));
        prop_assert_eq!(back, response);
    }

    /// Merged stats — what a shard router reports for a whole fleet —
    /// are exact element-wise sums (saturating only on the bound
    /// fields, so an unbounded member keeps the aggregate unbounded)
    /// and survive the wire like any other stats payload.
    #[test]
    fn merged_stats_are_exact_and_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Scale each member's traffic counters down so the *sums* stay
        // inside the JSON safe-integer range (numbers travel as IEEE
        // doubles — the same documented contract as frame ids); the
        // usize::MAX bound fields stay as-is to exercise saturation.
        let shrink = |mut s: EngineStats| {
            s.requests >>= 2;
            s.answers >>= 2;
            s.unknown_keys >>= 2;
            s.shed >>= 2;
            s.inflight_rects >>= 2;
            s.admission_limit >>= 2;
            s.catalog.lookups >>= 2;
            s.catalog.warm_hits >>= 2;
            s.catalog.compilations >>= 2;
            s.catalog.evictions >>= 2;
            if let Some(t) = s.transport.as_mut() {
                t.accepted >>= 2;
                t.active >>= 2;
                t.frames_decoded >>= 2;
                t.read_stalls >>= 2;
                t.write_stalls >>= 2;
                t.bytes_in >>= 2;
                t.bytes_out >>= 2;
                t.reports_accepted >>= 2;
            }
            s
        };
        let parts: Vec<EngineStats> = (0..rng.random_range(2..5usize))
            .map(|_| shrink(arb_stats(&mut rng)))
            .collect();
        let merged: EngineStats = parts.iter().sum();
        prop_assert_eq!(merged.requests, parts.iter().map(|s| s.requests).sum::<u64>());
        prop_assert_eq!(merged.answers, parts.iter().map(|s| s.answers).sum::<u64>());
        prop_assert_eq!(merged.shed, parts.iter().map(|s| s.shed).sum::<u64>());
        prop_assert_eq!(
            merged.catalog.releases,
            parts.iter().map(|s| s.catalog.releases).sum::<usize>()
        );
        prop_assert_eq!(
            merged.catalog.resident_bytes,
            parts.iter().map(|s| s.catalog.resident_bytes).sum::<usize>()
        );
        // Bounds saturate: any unbounded member keeps the aggregate
        // unbounded; otherwise the aggregate is the plain sum.
        let budgets: Vec<usize> = parts.iter().map(|s| s.catalog.budget_bytes).collect();
        if budgets.contains(&usize::MAX) {
            prop_assert_eq!(merged.catalog.budget_bytes, usize::MAX);
        } else {
            prop_assert_eq!(merged.catalog.budget_bytes, budgets.iter().sum::<usize>());
        }
        let caps: Vec<usize> = parts.iter().map(|s| s.catalog.capacity).collect();
        if caps.contains(&usize::MAX) {
            prop_assert_eq!(merged.catalog.capacity, usize::MAX);
        } else {
            prop_assert_eq!(merged.catalog.capacity, caps.iter().sum::<usize>());
        }
        // Merging is order-independent and zero is its identity.
        let reversed: EngineStats = parts.iter().rev().sum();
        prop_assert_eq!(merged, reversed);
        prop_assert_eq!(EngineStats::zeroed().merge(&merged), merged);
        // The aggregate travels the wire bit-exactly, saturated
        // (usize::MAX) bounds included.
        let frame = WireResponse::new(9, ResponseBody::Stats(merged)).encode();
        let back = WireResponse::decode(&frame).unwrap();
        prop_assert_eq!(back.body, ResponseBody::Stats(merged));
    }

    /// Every request variant also round-trips bit-exactly through the
    /// binary v2 codec — nasty keys included — and binary ids span the
    /// full `u64` range (no JSON safe-integer ceiling).
    #[test]
    fn binary_request_frames_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body = arb_request(&mut rng).body;
        let request = WireRequest::new(rng.random::<u64>(), body);
        let back = binary_roundtrip_request(&request);
        prop_assert_eq!(back.id, request.id);
        prop_assert_eq!(back.body, request.body);
        prop_assert_eq!(back.protocol_version, binary::PROTOCOL_VERSION);
    }

    /// Every response variant round-trips bit-exactly through the
    /// binary v2 codec, including stats whose unbounded fields carry
    /// `usize::MAX` (fixed-width `u64` on the wire — no doubles).
    #[test]
    fn binary_response_frames_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body = arb_response(&mut rng).body;
        let response = WireResponse::new(rng.random::<u64>(), body);
        let back = binary_roundtrip_response(&response);
        prop_assert_eq!(back.id, response.id);
        prop_assert_eq!(back.body, response.body);
        prop_assert_eq!(back.protocol_version, binary::PROTOCOL_VERSION);
    }

    /// Byte-mutated binary payloads — truncated or with one bit
    /// flipped — decode to `Ok` or a typed `MalformedRequest`, never a
    /// panic. Stats responses included: a cut inside their tail fails.
    #[test]
    fn mutated_binary_payloads_decode_or_fail_typed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut frame = Vec::new();
        binary::encode_request(&arb_request(&mut rng), &mut frame).unwrap();
        mutate_and_decode(&mut rng, &frame, binary::decode_request);
        binary::encode_response(&arb_response(&mut rng), &mut frame).unwrap();
        mutate_and_decode(&mut rng, &frame, binary::decode_response);
    }

    /// Mutated JSON request lines decode to `Ok`, or fail typed as
    /// `MalformedRequest` (or `UnsupportedVersion`, where a mutant
    /// still declares a version), never with a panic.
    #[test]
    fn mutated_json_lines_decode_or_fail_typed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = arb_json_line(&mut rng);
        for mutant in json_mutants(&mut rng, &line) {
            if let Err(e) = WireRequest::decode(&mutant) {
                prop_assert!(
                    matches!(
                        e.error.code,
                        ErrorCode::MalformedRequest | ErrorCode::UnsupportedVersion
                    ),
                    "{}: {}",
                    mutant,
                    e.error
                );
            }
        }
    }

    /// The two codecs agree: a frame encoded through JSON v1 and the
    /// same frame encoded through binary v2 decode to the same body.
    #[test]
    fn codecs_decode_to_identical_bodies(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = arb_request(&mut rng);
        let via_json = WireRequest::decode(&request.encode()).unwrap();
        let via_binary = binary_roundtrip_request(&request);
        prop_assert_eq!(via_json.body, via_binary.body);
        prop_assert_eq!(via_json.id, via_binary.id);
        let response = arb_response(&mut rng);
        let via_json = WireResponse::decode(&response.encode()).unwrap();
        let via_binary = binary_roundtrip_response(&response);
        prop_assert_eq!(via_json.body, via_binary.body);
        prop_assert_eq!(via_json.id, via_binary.id);
    }

    /// Validated wire rectangles preserve the exact coordinates of the
    /// typed `Rect` they came from.
    #[test]
    fn validated_rects_are_lossless(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (arb_coord(&mut rng), arb_coord(&mut rng));
        let (c, d) = (arb_coord(&mut rng), arb_coord(&mut rng));
        let rect = dpgrid::geo::Rect::new(a.min(c), b.min(d), a.max(c), b.max(d)).unwrap();
        let wire = WireRect::from(&rect);
        let line = WireRequest::new(1, RequestBody::Query(WireQuery {
            release_key: "k".into(),
            rects: vec![wire],
        }))
        .encode();
        let back = WireRequest::decode(&line).unwrap();
        let RequestBody::Query(q) = back.body else { panic!("query survives") };
        let validated = q.rects[0].validate().unwrap();
        prop_assert_eq!(validated, rect);
    }
}

/// The JSON mutants, live: sent as raw lines over one connection to a
/// server, every non-blank mutant gets exactly one reply, and the same
/// connection still answers a valid `Ping` after all of them.
#[test]
fn mutated_json_lines_get_one_reply_each_on_a_live_connection() {
    let engine = Arc::new(QueryEngine::new(Catalog::new()));
    let server = TcpServer::bind(engine, "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    // A missing reply fails the test at the timeout instead of hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();
    let mut sent = 0;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let valid = arb_json_line(&mut rng);
        // A mutant that is still a `Hello` may switch the connection to
        // binary, so it stays out of this line-only run.
        let mutants: Vec<String> = json_mutants(&mut rng, &valid)
            .into_iter()
            .filter(|m| !m.contains('\n'))
            .filter(|m| {
                !matches!(
                    WireRequest::decode(m),
                    Ok(WireRequest {
                        body: RequestBody::Hello(_),
                        ..
                    })
                )
            })
            .collect();
        let mut burst = Vec::new();
        for mutant in &mutants {
            burst.extend_from_slice(mutant.as_bytes());
            burst.push(b'\n');
        }
        writer.write_all(&burst).unwrap();
        let replies = mutants
            .iter()
            .filter(|m| !m.trim_end_matches('\r').is_empty())
            .count();
        for _ in 0..replies {
            line.clear();
            reader.read_line(&mut line).unwrap();
            WireResponse::decode(line.trim_end()).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        }
        sent += replies;
    }
    assert!(sent > 1_000, "only {sent} mutants reached the server");
    let ping = WireRequest::new(u64::from(u32::MAX), RequestBody::Ping);
    writer
        .write_all(format!("{}\n", ping.encode()).as_bytes())
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let pong = WireResponse::decode(line.trim_end()).unwrap();
    assert_eq!(
        (pong.id, pong.body),
        (ping.id, ResponseBody::Pong),
        "{line}"
    );
    server.shutdown();
}

#[test]
fn frames_carry_the_current_protocol_version() {
    let line = WireRequest::new(5, RequestBody::Ping).encode();
    assert!(line.contains(&format!("\"protocol_version\":{PROTOCOL_VERSION}")));
    let response = WireResponse::new(5, ResponseBody::Pong);
    assert_eq!(response.protocol_version, PROTOCOL_VERSION);
}

#[test]
fn rejection_paths_cover_every_malformed_rect_shape() {
    let cases: &[(f64, f64, f64, f64, &str)] = &[
        (f64::NAN, 0.0, 1.0, 1.0, "NaN x0"),
        (0.0, f64::NAN, 1.0, 1.0, "NaN y0"),
        (0.0, 0.0, f64::NAN, 1.0, "NaN x1"),
        (0.0, 0.0, 1.0, f64::NAN, "NaN y1"),
        (f64::INFINITY, 0.0, 1.0, 1.0, "+inf x0"),
        (f64::NEG_INFINITY, 0.0, 1.0, 1.0, "-inf x0"),
        (0.0, 0.0, f64::INFINITY, 1.0, "+inf x1"),
        (0.0, 0.0, 1.0, f64::NEG_INFINITY, "-inf y1"),
        (2.0, 0.0, 1.0, 1.0, "x0 > x1"),
        (0.0, 2.0, 1.0, 1.0, "y0 > y1"),
    ];
    for &(x0, y0, x1, y1, what) in cases {
        let rect = WireRect { x0, y0, x1, y1 };
        match rect.validate() {
            Err(ServeError::InvalidQuery(_)) => {}
            other => panic!("{what}: expected InvalidQuery, got {other:?}"),
        }
        // The same rejection at the query level names the rect index.
        let query = WireQuery {
            release_key: "k".into(),
            rects: vec![
                WireRect {
                    x0: 0.0,
                    y0: 0.0,
                    x1: 1.0,
                    y1: 1.0,
                },
                rect,
            ],
        };
        match query.validate() {
            Err(ServeError::InvalidQuery(msg)) => {
                assert!(msg.contains("rect #1"), "{what}: message was {msg}")
            }
            other => panic!("{what}: expected InvalidQuery, got {other:?}"),
        }
    }
}

#[test]
fn non_finite_coordinates_on_the_wire_are_rejected_not_smuggled() {
    // JSON cannot carry NaN/inf: the encoder writes null, the decoder
    // reads NaN back. Boundary validation must therefore reject what
    // arrives, so no non-finite rect ever reaches an engine.
    let request = WireRequest::new(
        1,
        RequestBody::Query(WireQuery {
            release_key: "k".into(),
            rects: vec![WireRect {
                x0: f64::NAN,
                y0: 0.0,
                x1: f64::INFINITY,
                y1: 1.0,
            }],
        }),
    );
    let line = request.encode();
    assert!(line.contains("null"), "non-finite floats serialise as null");
    let back = WireRequest::decode(&line).unwrap();
    let RequestBody::Query(query) = back.body else {
        panic!("query survives");
    };
    assert!(matches!(query.validate(), Err(ServeError::InvalidQuery(_))));
}

#[test]
fn non_finite_coordinates_in_binary_frames_are_rejected_not_smuggled() {
    // The binary codec carries f64 bits verbatim, so NaN *arrives* as
    // NaN (unlike JSON's null detour) — and the same boundary
    // validation that guards v1 must reject it before any engine sees
    // it. Codec choice must not change what gets through.
    let request = WireRequest::new(
        1,
        RequestBody::Query(WireQuery {
            release_key: "k".into(),
            rects: vec![WireRect {
                x0: f64::NAN,
                y0: 0.0,
                x1: f64::INFINITY,
                y1: 1.0,
            }],
        }),
    );
    let back = binary_roundtrip_request(&request);
    let RequestBody::Query(query) = back.body else {
        panic!("query survives");
    };
    assert!(query.rects[0].x0.is_nan(), "binary carries NaN bit-exactly");
    assert!(query.rects[0].x1.is_infinite());
    assert!(matches!(query.validate(), Err(ServeError::InvalidQuery(_))));
}

#[test]
fn binary_error_codes_have_stable_wire_bytes() {
    // The v2 counterpart of the JSON name-stability contract: these
    // exact bytes are the wire form, and the encoded error payload
    // leads with them.
    for (code, byte) in [
        (ErrorCode::UnknownKey, 0u8),
        (ErrorCode::InvalidQuery, 1),
        (ErrorCode::Overloaded, 2),
        (ErrorCode::MalformedRequest, 3),
        (ErrorCode::UnsupportedVersion, 4),
        (ErrorCode::Internal, 5),
    ] {
        assert_eq!(binary::code_byte(code), byte, "{}", code.as_str());
        let mut buf = Vec::new();
        binary::encode_response(&WireResponse::error(1, WireError::new(code, "x")), &mut buf)
            .unwrap();
        assert_eq!(
            buf[binary::HEADER_BYTES],
            byte,
            "{} error payload must lead with its code byte",
            code.as_str()
        );
    }
}

/// The acceptance gate for the two-codec design: the same requests
/// dispatched against the same engine produce identical
/// `QueryResponse`s (and identical typed failures) whether they
/// travelled as JSON v1 or binary v2 frames.
#[test]
fn both_codecs_dispatch_to_identical_query_responses() {
    let dataset = PaperDataset::Storage.generate_n(44, 1_000).unwrap();
    let mut catalog = Catalog::new();
    Pipeline::new(&dataset)
        .epsilon(1.0)
        .method(Method::ug(8))
        .seed(7)
        .publish_into(&mut catalog, "storage")
        .unwrap();
    let engine = QueryEngine::new(catalog);
    let domain = *dataset.domain().rect();
    let inner = Rect::new(
        domain.x0() + 0.2 * domain.width(),
        domain.y0() + 0.1 * domain.height(),
        domain.x0() + 0.8 * domain.width(),
        domain.y0() + 0.7 * domain.height(),
    )
    .unwrap();
    let rects: Vec<WireRect> = [&domain, &inner].into_iter().map(WireRect::from).collect();
    // Warm the surface first so both dispatches below see the same
    // cache state (`Warm`) — the equivalence claim is about the codec,
    // not about who pays the one-time compile.
    let warm = wire::dispatch(
        &engine,
        1,
        RequestBody::Query(WireQuery {
            release_key: "storage".into(),
            rects: rects.clone(),
        }),
    );
    assert!(matches!(warm.body, ResponseBody::Answers(_)), "{warm:?}");

    let bodies = [
        RequestBody::Query(WireQuery {
            release_key: "storage".into(),
            rects: rects.clone(),
        }),
        // A batch mixing a served release with an unknown key: the
        // per-query failure must come back identically typed too.
        RequestBody::Batch(vec![
            WireQuery {
                release_key: "storage".into(),
                rects: rects.clone(),
            },
            WireQuery {
                release_key: "missing".into(),
                rects: rects.clone(),
            },
        ]),
        RequestBody::Keys,
        RequestBody::Ping,
    ];
    for body in bodies {
        let request = WireRequest::new(11, body);
        // v1: the full JSON path, exactly as the server's line loop
        // runs it.
        let v1 = wire::handle_frame(&engine, &request.encode());
        // v2: decode the binary frame, dispatch the decoded body.
        let decoded = binary_roundtrip_request(&request);
        let v2 = wire::dispatch(&engine, decoded.id, decoded.body);
        assert_eq!(v1.id, v2.id);
        assert_eq!(v1.body, v2.body, "codecs disagree on {request:?}");
        // And the response itself survives the binary codec intact.
        assert_eq!(binary_roundtrip_response(&v2).body, v2.body);
    }
}

#[test]
fn malformed_report_batches_are_rejected_typed_before_any_collector() {
    let base = wire::WireReportBatch {
        keyspace: "k".into(),
        epoch: 0,
        epsilon: 1.0,
        cells: 100,
        oracle: "grr".into(),
        grr: vec![0, 99],
        oue_count: 0,
        oue_bits: Vec::new(),
    };
    assert!(base.validate().is_ok(), "fixture must start valid");
    let mutate = |f: &dyn Fn(&mut wire::WireReportBatch)| {
        let mut b = base.clone();
        f(&mut b);
        b
    };
    let oue_base = mutate(&|b| {
        b.oracle = "oue".into();
        b.grr.clear();
        b.oue_count = 2;
        b.oue_bits = vec![1, 0, 1 << 35, 0];
    });
    assert!(oue_base.validate().is_ok(), "OUE fixture must start valid");
    let cases: Vec<(&str, wire::WireReportBatch)> = vec![
        ("NaN epsilon", mutate(&|b| b.epsilon = f64::NAN)),
        ("zero epsilon", mutate(&|b| b.epsilon = 0.0)),
        ("negative epsilon", mutate(&|b| b.epsilon = -1.0)),
        ("zero cells", mutate(&|b| b.cells = 0)),
        ("out-of-domain GRR cell", mutate(&|b| b.grr.push(100))),
        ("unknown oracle", mutate(&|b| b.oracle = "rappor".into())),
        ("OUE batch still carrying GRR fields", {
            let mut b = oue_base.clone();
            b.grr = vec![1];
            b
        }),
        ("OUE word-count shape mismatch", {
            let mut b = oue_base.clone();
            b.oue_bits.pop();
            b
        }),
        // cells = 100 ⇒ the top 28 bits of each report's *last* word
        // (index 1 within the report) must be clear; bit 36 is the
        // first forbidden one.
        ("OUE tail bits past the domain", {
            let mut b = oue_base.clone();
            b.oue_bits[3] = 1 << 36;
            b
        }),
    ];
    for (what, batch) in cases {
        match batch.validate() {
            Err(ServeError::InvalidQuery(_)) => {}
            other => panic!("{what}: expected InvalidQuery, got {other:?}"),
        }
    }
}

/// The write-path acceptance contract at the dispatch seam: a
/// read-only service, which has no collector, answers `Report` with
/// `MalformedRequest`; a collecting service acks it — and both answers
/// are codec-independent.
#[test]
fn report_dispatch_agrees_across_codecs_and_server_generations() {
    use dpgrid::ldp::{CollectingService, CollectorConfig, ReportCollector};
    let batch = wire::WireReportBatch {
        keyspace: "taxi".into(),
        epoch: 0,
        epsilon: 0.5,
        cells: 64,
        oracle: "grr".into(),
        grr: vec![1, 2, 3],
        oue_count: 0,
        oue_bits: Vec::new(),
    };
    let request = WireRequest::new(3, RequestBody::Report(batch.clone()));

    // Read-only service (no write path): a typed rejection.
    let engine = QueryEngine::new(Catalog::new());
    let v1 = wire::handle_frame(&engine, &request.encode());
    let decoded = binary_roundtrip_request(&request);
    let v2 = wire::dispatch(&engine, decoded.id, decoded.body);
    assert_eq!(v1.body, v2.body);
    assert!(
        matches!(&v1.body, ResponseBody::Error(e) if e.code == ErrorCode::MalformedRequest),
        "read-only server must answer MalformedRequest, got {v1:?}"
    );

    // Two identical collecting services (reports mutate state, so each
    // codec dispatches against its own): identical acks.
    let collecting = || {
        let config = CollectorConfig::new(
            "taxi",
            Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap(),
            8,
            8,
            BudgetSchedule::uniform(1.0, 2).unwrap(),
        )
        .unwrap();
        CollectingService::new(
            QueryEngine::new(Catalog::new()),
            ReportCollector::new(config).unwrap(),
        )
    };
    let (svc1, svc2) = (collecting(), collecting());
    let v1 = wire::handle_frame(&svc1, &request.encode());
    let decoded = binary_roundtrip_request(&request);
    let v2 = wire::dispatch(&svc2, decoded.id, decoded.body);
    assert_eq!(v1.body, v2.body, "codecs disagree on the report ack");
    match &v1.body {
        ResponseBody::Report(ack) => {
            assert_eq!((ack.accepted, ack.epoch_total), (3, 3));
            assert_eq!(ack.keyspace, "taxi");
        }
        other => panic!("expected Report ack, got {other:?}"),
    }

    // A semantically invalid batch fails typed at the boundary and
    // never touches the accumulator.
    let mut bad = batch.clone();
    bad.oracle = "rappor".into();
    let rejected = wire::dispatch(&svc1, 4, RequestBody::Report(bad));
    assert!(
        matches!(&rejected.body, ResponseBody::Error(e) if e.code == ErrorCode::InvalidQuery),
        "got {rejected:?}"
    );
    assert_eq!(svc1.with_collector(|c| c.open_reports()), 3);
}

#[test]
fn error_codes_have_stable_wire_names() {
    // The stability contract: these exact strings are the wire form.
    for (code, name) in [
        (ErrorCode::UnknownKey, "\"UnknownKey\""),
        (ErrorCode::InvalidQuery, "\"InvalidQuery\""),
        (ErrorCode::Overloaded, "\"Overloaded\""),
        (ErrorCode::MalformedRequest, "\"MalformedRequest\""),
        (ErrorCode::UnsupportedVersion, "\"UnsupportedVersion\""),
        (ErrorCode::Internal, "\"Internal\""),
    ] {
        let line = WireResponse::error(1, WireError::new(code, "x")).encode();
        assert!(line.contains(name), "{line} must carry {name}");
        assert_eq!(format!("\"{}\"", code.as_str()), name);
    }
}
