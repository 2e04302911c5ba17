//! End-to-end TCP serving regression.
//!
//! Publishes three releases (lattice and band surface paths), serves
//! them over a real loopback TCP server, and hammers it from four
//! client threads: every remote answer must match the single-threaded
//! `CompiledSurface::answer` reference to ≤ 1e-9 while the engine's
//! memory-budgeted catalog churns below its byte budget. A second
//! server demonstrates that an over-budget burst is shed with typed
//! `Overloaded` frames instead of hanging, and raw sockets check the
//! protocol-version guard and that every frame is answered in the
//! codec it arrived in, with no handshake.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpgrid::net::{NetError, TcpClient, TcpServer};
use dpgrid::prelude::*;
use dpgrid::serve::wire::{
    self, binary, ErrorCode, RequestBody, ResponseBody, WireError, WireRect, WireRequest,
    WireResponse,
};

const CLIENT_THREADS: usize = 4;
const ITERATIONS: usize = 20;

fn methods() -> Vec<(&'static str, Method, u64)> {
    vec![
        ("ug", Method::ug(24), 31),
        ("ag", Method::ag_suggested(), 32),
        ("kd", Method::KdHybrid, 33),
    ]
}

fn publish(dataset: &GeoDataset, method: Method, seed: u64) -> Release {
    Pipeline::new(dataset)
        .epsilon(1.0)
        .method(method)
        .seed(seed)
        .publish()
        .unwrap()
}

fn workload(domain: &Rect) -> Vec<Rect> {
    let (x0, y0) = (domain.x0(), domain.y0());
    let (w, h) = (domain.width(), domain.height());
    let mut rects = vec![
        *domain,
        Rect::new(x0 - 1.0, y0 + 0.1 * h, x0 + w + 1.0, y0 + 0.9 * h).unwrap(),
        Rect::new(x0 + 0.37 * w, y0, x0 + 0.3701 * w, y0 + h).unwrap(),
    ];
    for i in 0..12 {
        let t = i as f64 / 12.0;
        rects.push(
            Rect::new(
                x0 + 0.4 * w * t,
                y0 + 0.3 * h * t,
                x0 + 0.2 * w + 0.7 * w * t,
                y0 + 0.25 * h + 0.6 * h * t,
            )
            .unwrap(),
        );
    }
    rects
}

#[test]
fn four_clients_three_releases_match_reference_within_budget() {
    let dataset = PaperDataset::Storage.generate_n(41, 4_000).unwrap();
    let rects = workload(dataset.domain().rect());

    // Single-threaded reference surfaces (identical seeds => identical
    // cells) plus their byte sizes for the catalog budget.
    let mut surface_bytes = 0usize;
    let expected: Vec<(String, Vec<f64>)> = methods()
        .iter()
        .map(|(key, method, seed)| {
            let surface = CompiledSurface::from_synopsis(&publish(&dataset, *method, *seed));
            surface_bytes += surface.memory_bytes();
            (
                key.to_string(),
                rects.iter().map(|q| surface.answer(q)).collect(),
            )
        })
        .collect();

    // One byte short of all three surfaces: the LRU must churn while
    // every served answer stays exact.
    let budget = surface_bytes - 1;
    let mut catalog = Catalog::with_memory_budget(budget);
    for (key, method, seed) in methods() {
        Pipeline::new(&dataset)
            .epsilon(1.0)
            .method(method)
            .seed(seed)
            .publish_into(&mut catalog, key)
            .unwrap();
    }
    let engine = Arc::new(QueryEngine::new(catalog));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let checked = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let expected = &expected;
            let rects = &rects;
            let engine = &engine;
            let checked = &checked;
            scope.spawn(move || {
                let mut client = TcpClient::connect(addr).unwrap();
                client.ping().unwrap();
                for i in 0..ITERATIONS {
                    let verify = |key: &str, answers: &[f64], expect: &[f64]| {
                        assert_eq!(answers.len(), expect.len());
                        for (a, e) in answers.iter().zip(expect) {
                            assert!(
                                (a - e).abs() <= 1e-9 * (1.0 + e.abs()),
                                "release {key}: remote {a} vs reference {e}"
                            );
                        }
                        checked.fetch_add(answers.len() as u64, Ordering::Relaxed);
                    };
                    if i % 2 == 0 {
                        // Single query against a rotating release.
                        let (key, expect) = &expected[(t + i) % expected.len()];
                        let response = client.query(key, rects).unwrap();
                        assert_eq!(&response.release_key, key);
                        verify(key, &response.answers, expect);
                    } else {
                        // One pipelined train across all three releases.
                        let batch: Vec<QueryRequest> = expected
                            .iter()
                            .map(|(k, _)| QueryRequest::new(k.clone(), rects.clone()))
                            .collect();
                        for (outcome, (k, e)) in client
                            .query_pipelined(&batch)
                            .unwrap()
                            .into_iter()
                            .zip(expected)
                        {
                            verify(k, &outcome.unwrap().answers, e);
                        }
                    }
                    // The configured byte budget holds. Eviction may
                    // defer a victim whose release is mid-compile on
                    // another thread (documented transient), and under
                    // concurrent churn a fresh deferral can follow the
                    // previous one — so a sampled overflow only counts
                    // as a violation if it persists for a full second
                    // of resampling (real transients are microseconds;
                    // an accounting leak would never settle).
                    if engine.stats().catalog.resident_bytes > budget {
                        let settled = (0..50).any(|_| {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            engine.stats().catalog.resident_bytes <= budget
                        });
                        assert!(
                            settled,
                            "resident bytes stayed over budget {budget} for 1s: {}",
                            engine.stats().catalog.resident_bytes
                        );
                    }
                }
            });
        }
    });

    assert_eq!(
        checked.load(Ordering::Relaxed),
        (CLIENT_THREADS * ITERATIONS * 2 * rects.len()) as u64,
        "every iteration verifies one single query or one triple train"
    );
    // Quiesced: no lease can defer a victim, so the bound is strict.
    let stats = engine.stats();
    assert!(
        stats.catalog.resident_bytes <= budget,
        "resident bytes {} exceed budget {budget}",
        stats.catalog.resident_bytes
    );
    assert!(stats.catalog.evictions > 0, "the byte budget never engaged");
    assert_eq!(stats.unknown_keys, 0);
    assert!(server.frames_served() >= (CLIENT_THREADS * (ITERATIONS + 1)) as u64);
    server.shutdown();
}

#[test]
fn over_budget_burst_sheds_typed_overloaded_without_hanging() {
    let dataset = PaperDataset::Storage.generate_n(42, 2_000).unwrap();
    let mut catalog = Catalog::new();
    Pipeline::new(&dataset)
        .epsilon(1.0)
        .method(Method::ug(16))
        .seed(1)
        .publish_into(&mut catalog, "storage")
        .unwrap();
    // Budget of 10 in-flight rects; every burst request carries 16.
    let engine = Arc::new(QueryEngine::new(catalog).with_admission_limit(10));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let rects = workload(dataset.domain().rect());
    assert!(rects.len() >= 15);

    let shed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENT_THREADS {
            let rects = &rects;
            let shed = &shed;
            scope.spawn(move || {
                let mut client = TcpClient::connect(addr).unwrap();
                for _ in 0..4 {
                    // 15 rects > the 10-rect budget: must shed, typed.
                    match client.query("storage", &rects[..15]) {
                        Err(NetError::Server(e)) => {
                            assert_eq!(e.code, ErrorCode::Overloaded, "{e}");
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("expected Overloaded, got {other:?}"),
                    }
                    // Within budget goes straight through afterwards —
                    // shedding leaked nothing into the in-flight count.
                    // (2 rects × 4 threads = 8 fits the budget even
                    // when every client lands at once.)
                    let ok = client.query("storage", &rects[..2]).unwrap();
                    assert_eq!(ok.answers.len(), 2);
                }
            });
        }
    });
    assert_eq!(shed.load(Ordering::Relaxed), (CLIENT_THREADS * 4) as u64);
    let stats = engine.stats();
    assert_eq!(stats.shed, (CLIENT_THREADS * 4) as u64);
    assert_eq!(stats.inflight_rects, 0);
    server.shutdown();
}

#[test]
fn raw_socket_version_mismatch_and_garbage_get_typed_errors() {
    let dataset = PaperDataset::Storage.generate_n(43, 1_500).unwrap();
    let mut catalog = Catalog::new();
    Pipeline::new(&dataset)
        .epsilon(1.0)
        .method(Method::ug(8))
        .seed(1)
        .publish_into(&mut catalog, "k")
        .unwrap();
    let engine = Arc::new(QueryEngine::new(catalog));
    let server = TcpServer::bind(engine, "127.0.0.1:0").unwrap();

    fn roundtrip(
        reader: &mut BufReader<std::net::TcpStream>,
        writer: &mut std::net::TcpStream,
        frame: &[u8],
    ) -> String {
        writer.write_all(frame).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Wrong protocol version: typed UnsupportedVersion, id echoed.
    let reply = roundtrip(
        &mut reader,
        &mut writer,
        br#"{"protocol_version": 99, "id": 7, "body": "Ping"}"#,
    );
    assert!(reply.contains("\"UnsupportedVersion\""), "{reply}");
    assert!(reply.contains("\"id\":7"), "{reply}");

    // Garbage: typed MalformedRequest, connection stays usable.
    let reply = roundtrip(&mut reader, &mut writer, b"this is not json");
    assert!(reply.contains("\"MalformedRequest\""), "{reply}");
    // Invalid UTF-8 bytes: typed error too, and still usable — byte
    // framing means a bad frame never desynchronises the stream.
    let reply = roundtrip(&mut reader, &mut writer, &[0xFF, 0xFE, 0x80]);
    assert!(reply.contains("\"MalformedRequest\""), "{reply}");
    // ~100 KB of nesting, far under the frame cap: the parser's depth
    // cap answers it typed instead of overflowing a worker's stack and
    // aborting the server.
    let mut deep = br#"{"protocol_version":1,"id":1,"body":"#.to_vec();
    deep.extend(std::iter::repeat_n(b'[', 100_000));
    let reply = roundtrip(&mut reader, &mut writer, &deep);
    assert!(reply.contains("\"MalformedRequest\""), "{reply}");
    let reply = roundtrip(
        &mut reader,
        &mut writer,
        br#"{"protocol_version": 1, "id": 9, "body": "Ping"}"#,
    );
    assert!(reply.contains("\"Pong\""), "{reply}");

    // A newline-free flood larger than the 16 MiB frame cap: the
    // server rejects and terminates the connection instead of
    // buffering without bound. The server's close may RST while the
    // flood is still in flight, so the client legitimately observes
    // either the typed error frame, a clean EOF, or a reset — never a
    // hang and never an accepted frame.
    let flood = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut flood_reader = BufReader::new(flood.try_clone().unwrap());
    let mut flood_writer = flood;
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..17 {
        if flood_writer.write_all(&chunk).is_err() {
            break; // server already slammed the door
        }
    }
    let _ = flood_writer.flush();
    let mut line = String::new();
    match flood_reader.read_line(&mut line) {
        Ok(0) | Err(_) => {} // connection terminated; error frame lost to the reset
        Ok(_) => {
            assert!(line.contains("\"MalformedRequest\""), "{line}");
            assert!(line.contains("exceeds"), "{line}");
            line.clear();
            // Nothing more follows the rejection.
            assert!(matches!(flood_reader.read_line(&mut line), Ok(0) | Err(_)));
        }
    }
    server.shutdown();
}

/// Opens a raw connection: a buffered reader and a writer on one
/// socket. A reply that never comes fails the read instead of hanging
/// the test.
fn raw_connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

/// Reads one binary frame off the socket and decodes it as a response.
fn read_binary_response(reader: &mut impl Read) -> WireResponse {
    let mut head = [0u8; binary::HEADER_BYTES];
    reader.read_exact(&mut head).unwrap();
    let header = binary::decode_header(&head).unwrap();
    let mut payload = vec![0u8; header.payload_len];
    reader.read_exact(&mut payload).unwrap();
    binary::decode_response(&header, &payload).unwrap()
}

/// Unwraps a response into its error body.
fn expect_error(response: WireResponse) -> WireError {
    match response.body {
        ResponseBody::Error(e) => e,
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// Reads one reply in whichever codec its first byte names, returning
/// whether it was binary.
fn read_any_response(reader: &mut BufReader<TcpStream>) -> (bool, WireResponse) {
    if reader.fill_buf().unwrap()[0] == binary::MAGIC[0] {
        return (true, read_binary_response(reader));
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    (false, WireResponse::decode(line.trim_end()).unwrap())
}

/// Asserts the server closed the connection cleanly after a reject
/// (EOF, or a reset); a read that times out means it stayed open.
fn expect_eof(reader: &mut impl Read) {
    let mut byte = [0u8; 1];
    match reader.read(&mut byte) {
        Ok(0) => {}
        Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("server kept the connection open after losing byte framing: {other:?}"),
    }
}

#[test]
fn raw_socket_binary_garbage_probes_get_typed_rejects_and_clean_close() {
    let dataset = PaperDataset::Storage.generate_n(45, 1_500).unwrap();
    let mut catalog = Catalog::new();
    Pipeline::new(&dataset)
        .epsilon(1.0)
        .method(Method::ug(8))
        .seed(1)
        .publish_into(&mut catalog, "k")
        .unwrap();
    let engine = Arc::new(QueryEngine::new(catalog));
    let server = TcpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // The magic's first byte followed by anything but its second is
    // not a binary frame: it opens a JSON line, which is not UTF-8, so
    // it gets a typed JSON reject and the connection stays usable.
    {
        let (mut reader, mut writer) = raw_connect(addr);
        let mut head = binary::encode_header(binary::frame_type::PING, 5, 0);
        head[1] = 0xFF;
        writer.write_all(&head).unwrap();
        writer.write_all(b"\n").unwrap();
        let (is_binary, reply) = read_any_response(&mut reader);
        assert!(!is_binary);
        let e = expect_error(reply);
        assert_eq!(e.code, ErrorCode::MalformedRequest);
        assert!(e.message.contains("UTF-8"), "{}", e.message);
        let mut ping = Vec::new();
        binary::encode_request(&WireRequest::new(6, RequestBody::Ping), &mut ping).unwrap();
        writer.write_all(&ping).unwrap();
        assert_eq!(read_binary_response(&mut reader).body, ResponseBody::Pong);
    }

    // A foreign version byte in an otherwise well-formed header: typed
    // UnsupportedVersion, then close.
    {
        let (mut reader, mut writer) = raw_connect(addr);
        let mut head = binary::encode_header(binary::frame_type::PING, 5, 0);
        head[2] = 9;
        writer.write_all(&head).unwrap();
        writer.flush().unwrap();
        let e = expect_error(read_binary_response(&mut reader));
        assert_eq!(e.code, ErrorCode::UnsupportedVersion);
        expect_eof(&mut reader);
    }

    // A length prefix past the frame cap: rejected from the header
    // alone — the server never tries to buffer the claimed payload.
    {
        let (mut reader, mut writer) = raw_connect(addr);
        let mut head = binary::encode_header(binary::frame_type::QUERY, 5, 0);
        head[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        writer.write_all(&head).unwrap();
        writer.flush().unwrap();
        let e = expect_error(read_binary_response(&mut reader));
        assert_eq!(e.code, ErrorCode::MalformedRequest);
        assert!(e.message.contains("exceeds"), "{}", e.message);
        expect_eof(&mut reader);
    }

    // A truncated payload (header promises 64 bytes, the peer hangs up
    // after 8): typed reject under the header's id, then close.
    {
        let (mut reader, mut writer) = raw_connect(addr);
        let head = binary::encode_header(binary::frame_type::QUERY, 9, 64);
        writer.write_all(&head).unwrap();
        writer.write_all(&[0u8; 8]).unwrap();
        writer.flush().unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let reply = read_binary_response(&mut reader);
        assert_eq!(reply.id, 9);
        let e = expect_error(reply);
        assert_eq!(e.code, ErrorCode::MalformedRequest);
        assert!(e.message.contains("mid-payload"), "{}", e.message);
        expect_eof(&mut reader);
    }

    // Garbage *payload* under intact framing: typed reject, and the
    // connection stays usable — exactly like a garbage JSON line under
    // v1, a bad frame never desynchronises the stream.
    {
        let (mut reader, mut writer) = raw_connect(addr);
        let mut frame = Vec::from(binary::encode_header(binary::frame_type::QUERY, 3, 4));
        frame.extend_from_slice(&[0xAA; 4]);
        writer.write_all(&frame).unwrap();
        writer.flush().unwrap();
        let reply = read_binary_response(&mut reader);
        assert_eq!(reply.id, 3);
        assert_eq!(expect_error(reply).code, ErrorCode::MalformedRequest);
        let mut ping = Vec::new();
        binary::encode_request(&WireRequest::new(4, RequestBody::Ping), &mut ping).unwrap();
        writer.write_all(&ping).unwrap();
        writer.flush().unwrap();
        let reply = read_binary_response(&mut reader);
        assert_eq!(reply.id, 4);
        assert_eq!(reply.body, ResponseBody::Pong);
    }
    server.shutdown();
}

/// Publishes one 8×8 UG release of 1,500 `Storage` points under key
/// `storage`, and returns its engine with a query workload.
fn storage_engine(data_seed: u64, publish_seed: u64) -> (Arc<QueryEngine>, Vec<Rect>) {
    let dataset = PaperDataset::Storage.generate_n(data_seed, 1_500).unwrap();
    let rects = workload(dataset.domain().rect());
    let mut catalog = Catalog::new();
    Pipeline::new(&dataset)
        .epsilon(1.0)
        .method(Method::ug(8))
        .seed(publish_seed)
        .publish_into(&mut catalog, "storage")
        .unwrap();
    (Arc::new(QueryEngine::new(catalog)), rects)
}

#[test]
fn raw_binary_ping_needs_no_json_line_first() {
    let (engine, _) = storage_engine(46, 2);
    let server = TcpServer::bind(engine, "127.0.0.1:0").unwrap();
    let (mut reader, mut writer) = raw_connect(server.local_addr());
    let mut ping = Vec::new();
    binary::encode_request(&WireRequest::new(3, RequestBody::Ping), &mut ping).unwrap();
    writer.write_all(&ping).unwrap();
    let reply = read_binary_response(&mut reader);
    assert_eq!((reply.id, reply.body), (3, ResponseBody::Pong));
    server.shutdown();
}

#[test]
fn one_connection_answers_each_frame_in_its_own_codec() {
    let (engine, rects) = storage_engine(47, 3);
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let reference = engine
        .answer(&QueryRequest::new("storage", rects.clone()))
        .unwrap();

    // A JSON query line, a binary query frame, a JSON ping and a binary
    // stats frame, in one write on one connection.
    let query = RequestBody::Query(wire::WireQuery {
        release_key: "storage".into(),
        rects: rects.iter().map(Into::into).collect(),
    });
    let mut burst = WireRequest::new(1, query.clone()).encode().into_bytes();
    burst.push(b'\n');
    binary::append_request(&WireRequest::new(2, query), &mut burst).unwrap();
    burst.extend_from_slice(WireRequest::new(3, RequestBody::Ping).encode().as_bytes());
    burst.push(b'\n');
    binary::append_request(&WireRequest::new(4, RequestBody::Stats), &mut burst).unwrap();
    let (mut reader, mut writer) = raw_connect(server.local_addr());
    writer.write_all(&burst).unwrap();

    // Four replies in order, each in its request's codec.
    let replies: Vec<(bool, WireResponse)> =
        (0..4).map(|_| read_any_response(&mut reader)).collect();
    let shape: Vec<(bool, u64)> = replies.iter().map(|(b, r)| (*b, r.id)).collect();
    assert_eq!(shape, [(false, 1), (true, 2), (false, 3), (true, 4)]);
    for (_, reply) in &replies[..2] {
        match &reply.body {
            ResponseBody::Answers(a) => assert_eq!(a.answers, reference.answers),
            other => panic!("expected answers, got {other:?}"),
        }
    }
    assert_eq!(replies[2].1.body, ResponseBody::Pong);
    assert!(matches!(&replies[3].1.body, ResponseBody::Stats(s) if s.requests == 3));
    server.shutdown();
}

#[test]
fn connect_and_one_ping_send_exactly_one_ping_frame() {
    // Binary frames name their own codec, so the client dials and
    // writes its first frame with no handshake before it.
    let (engine, _) = storage_engine(49, 5);
    let server = TcpServer::bind(engine, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.protocol_version(), Some(2));
    client.ping().unwrap();
    let transport = server.transport_stats();
    assert_eq!(transport.bytes_in, binary::HEADER_BYTES as u64);
    assert_eq!(transport.frames_decoded, 1);
    assert_eq!(server.frames_served(), 1);
    server.shutdown();
}

#[test]
fn over_cap_request_fails_typed_before_a_byte_is_sent() {
    let engine = Arc::new(QueryEngine::new(Catalog::new()));
    let server = TcpServer::bind(engine, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    // 2¹⁹ + 1 rects at 32 bytes each are past the binary payload cap:
    // the client's encoder refuses them, naming the cap, and the
    // server never sees a frame.
    let q = Rect::new(-100.0, 30.0, -90.0, 40.0).unwrap();
    let rects = vec![q; 524_289];
    assert!(rects.len() * 32 > binary::MAX_PAYLOAD_BYTES);
    let served = server.frames_served();
    match client.query("storage", &rects) {
        Err(NetError::Protocol(why)) => {
            assert!(
                why.contains(&binary::MAX_PAYLOAD_BYTES.to_string()),
                "{why}"
            );
        }
        other => panic!("expected a typed over-cap refusal, got {other:?}"),
    }
    assert_eq!(server.frames_served(), served);
    // The same client keeps working.
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn over_cap_frame_fails_its_whole_train_before_a_byte_is_sent() {
    let engine = Arc::new(QueryEngine::new(Catalog::new()));
    let server = TcpServer::bind(engine, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    // The train's second request is past the binary payload cap. The
    // whole train is encoded before its one write, so the refusal
    // names the cap and not even the first frame reaches the server.
    let q = Rect::new(-100.0, 30.0, -90.0, 40.0).unwrap();
    let train = [
        QueryRequest::new("storage", vec![q]),
        QueryRequest::new("storage", vec![q; 524_289]),
        QueryRequest::new("storage", vec![q]),
    ];
    let served = server.frames_served();
    match client.query_pipelined(&train) {
        Err(NetError::Protocol(why)) => {
            assert!(
                why.contains(&binary::MAX_PAYLOAD_BYTES.to_string()),
                "{why}"
            );
        }
        other => panic!("expected a typed over-cap refusal, got {other:?}"),
    }
    assert_eq!(server.frames_served(), served);
    // The client keeps working on the same connection, and the engine
    // never saw the train's first request, which would have failed as
    // an unknown key.
    let stats = client.stats().unwrap();
    assert_eq!(stats.unknown_keys, 0);
    assert_eq!(server.transport_stats().accepted, 1);
    server.shutdown();
}

#[test]
fn raw_binary_query_frames_isolate_failures_per_frame() {
    // Three binary query frames in one write on a raw connection, with
    // no JSON line first: a bad key or a bad rect fails only its own
    // frame.
    let (engine, rects) = storage_engine(48, 4);
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let (mut reader, mut writer) = raw_connect(server.local_addr());
    let query = |key: &str, rects: Vec<WireRect>| {
        RequestBody::Query(wire::WireQuery {
            release_key: key.into(),
            rects,
        })
    };
    let wire_rects: Vec<WireRect> = rects.iter().map(Into::into).collect();
    let inverted = WireRect {
        x0: 1.0,
        y0: 0.0,
        x1: 0.0,
        y1: 1.0,
    };
    let mut train = Vec::new();
    for (id, body) in [
        (11, query("storage", wire_rects.clone())),
        (12, query("nope", wire_rects)),
        (13, query("storage", vec![inverted])),
    ] {
        binary::append_request(&WireRequest::new(id, body), &mut train).unwrap();
    }
    writer.write_all(&train).unwrap();

    let local = engine
        .answer(&QueryRequest::new("storage", rects.clone()))
        .unwrap();
    let reply = read_binary_response(&mut reader);
    assert_eq!(reply.id, 11);
    match reply.body {
        ResponseBody::Answers(a) => assert_eq!(a.answers, local.answers),
        other => panic!("expected answers, got {other:?}"),
    }
    for (id, code) in [(12, ErrorCode::UnknownKey), (13, ErrorCode::InvalidQuery)] {
        let reply = read_binary_response(&mut reader);
        assert_eq!(reply.id, id);
        assert_eq!(expect_error(reply).code, code);
    }
    server.shutdown();
}
