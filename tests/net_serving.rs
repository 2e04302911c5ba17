//! End-to-end TCP serving regression.
//!
//! Publishes three releases (lattice and band surface paths), serves
//! them over a real loopback TCP server, and hammers it from four
//! client threads: every remote answer must match the single-threaded
//! `CompiledSurface::answer` reference to ≤ 1e-9 while the engine's
//! memory-budgeted catalog churns below its byte budget. A second
//! server demonstrates that an over-budget burst is shed with typed
//! `Overloaded` frames instead of hanging, raw sockets check the
//! protocol-version guard, and a JSON-only peer is refused typed by
//! every client-side entry point.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dpgrid::net::{NetError, RemoteShard, TcpClient, TcpClientPool, TcpServer, DEFAULT_IO_TIMEOUT};
use dpgrid::prelude::*;
use dpgrid::serve::wire::{
    self, binary, ErrorCode, HelloAck, HelloOffer, RequestBody, ResponseBody, WireError,
    WireOutcome, WireRect, WireRequest, WireResponse,
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
    // ~100 KB of nesting, far under the frame cap and with no `Hello`:
    // the parser's depth cap answers it typed instead of overflowing a
    // worker's stack and aborting the server.
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

/// Performs the JSON `Hello` handshake on a raw socket and asserts the
/// server upgrades the connection to binary v2.
fn hello_upgrade(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let offer = WireRequest::new(0, RequestBody::Hello(HelloOffer { max_version: 2 }));
    writer.write_all(offer.encode().as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let ack = WireResponse::decode(line.trim_end()).unwrap();
    assert_eq!(
        ack.body,
        ResponseBody::Hello(HelloAck { version: 2 }),
        "{line}"
    );
    (reader, writer)
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

/// Asserts the server closed the connection cleanly after a reject.
fn expect_eof(reader: &mut impl Read) {
    let mut byte = [0u8; 1];
    match reader.read(&mut byte) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("server kept the connection open after losing byte framing"),
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

    // Bad magic after a real upgrade: byte framing is unrecoverable, so
    // the server rejects typed (id 0 — the header is untrusted) and
    // closes.
    {
        let (mut reader, mut writer) = hello_upgrade(addr);
        writer.write_all(&[0xFFu8; binary::HEADER_BYTES]).unwrap();
        writer.flush().unwrap();
        let reply = read_binary_response(&mut reader);
        assert_eq!(reply.id, 0);
        let e = expect_error(reply);
        assert_eq!(e.code, ErrorCode::MalformedRequest);
        assert!(e.message.contains("magic"), "{}", e.message);
        expect_eof(&mut reader);
    }

    // A foreign version byte in an otherwise well-formed header: typed
    // UnsupportedVersion, then close.
    {
        let (mut reader, mut writer) = hello_upgrade(addr);
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
        let (mut reader, mut writer) = hello_upgrade(addr);
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
        let (mut reader, mut writer) = hello_upgrade(addr);
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
        let (mut reader, mut writer) = hello_upgrade(addr);
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

/// A minimal JSON-v1-only server on one accepted connection. Its
/// decoder has no `Hello` variant, so the binary offer comes back as a
/// `MalformedRequest` error — which the binary-only client must refuse
/// typed, never downgrade past.
fn spawn_v1_only_server(
    listener: TcpListener,
    engine: Arc<QueryEngine>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let trimmed = line.trim_end();
            let response = if trimmed.contains("Hello") {
                WireResponse::error(
                    0,
                    WireError::new(ErrorCode::MalformedRequest, "unknown variant `Hello`"),
                )
            } else {
                wire::handle_frame(engine.as_ref(), trimmed)
            };
            writer.write_all(response.encode().as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
        }
    })
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

/// Asserts a dial against `spawn_v1_only_server` failed as a typed
/// protocol error carrying that peer's message.
fn expect_refusal(e: NetError) {
    match e {
        NetError::Protocol(why) => assert!(why.contains("unknown variant `Hello`"), "{why}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}

#[test]
fn version_negotiation_works_both_directions() {
    let (engine, rects) = storage_engine(46, 2);

    // A real server negotiates binary v2 with the client, and still
    // answers a raw JSON v1 line (no `Hello` sent at all, as a script
    // or `nc` speaks it) identically.
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.protocol_version(), Some(2));
    let reference = client.query("storage", &rects).unwrap();
    {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let request = WireRequest::new(
            5,
            RequestBody::Query(wire::WireQuery {
                release_key: "storage".into(),
                rects: rects.iter().map(Into::into).collect(),
            }),
        );
        writer.write_all(request.encode().as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let reply = WireResponse::decode(line.trim_end()).unwrap();
        assert_eq!(reply.id, 5);
        match reply.body {
            ResponseBody::Answers(a) => assert_eq!(a.answers, reference.answers),
            other => panic!("expected answers, got {other:?}"),
        }
    }
    drop(client);
    server.shutdown();

    // The other direction: every client-side entry point dials a
    // JSON-only peer, offers binary v2, and gets the peer's
    // `MalformedRequest` back — a typed protocol error carrying the
    // server's message, well within the I/O timeout, never a silent
    // downgrade.
    let started = Instant::now();
    for entry in ["TcpClient", "TcpClientPool", "RemoteShard"] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = spawn_v1_only_server(listener, Arc::clone(&engine));
        let dialed = match entry {
            "TcpClient" => TcpClient::connect(addr).map(drop),
            "TcpClientPool" => TcpClientPool::connect(addr).map(drop),
            _ => RemoteShard::connect(addr).map(drop),
        };
        expect_refusal(dialed.expect_err(entry));
        peer.join().unwrap();
    }
    assert!(started.elapsed() < DEFAULT_IO_TIMEOUT);
}

#[test]
fn reconnect_renegotiates_instead_of_reusing_stale_protocol_state() {
    let (engine, rects) = storage_engine(47, 3);

    // Negotiate binary v2 against a real server...
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = TcpClient::connect(addr).unwrap();
    assert_eq!(client.protocol_version(), Some(2));
    client.query("storage", &rects).unwrap();
    server.shutdown();

    // ...then restart the same port as a JSON-only peer. The stranded
    // client's one-shot redial must repeat the handshake from scratch —
    // a client that replayed its remembered v2 state would write binary
    // frames at a peer that only reads lines and hang or poison the
    // connection. Instead the redial's `Hello` is refused and the call
    // fails typed, leaving no negotiated version behind.
    let peer = spawn_v1_only_server(TcpListener::bind(addr).unwrap(), Arc::clone(&engine));
    let started = Instant::now();
    expect_refusal(client.query("storage", &rects).unwrap_err());
    assert!(started.elapsed() < DEFAULT_IO_TIMEOUT);
    assert_eq!(client.protocol_version(), None);
    drop(client);
    peer.join().unwrap();
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
    // The client keeps working, and the engine never saw the train's
    // first request, which would have failed as an unknown key.
    let stats = client.stats().unwrap();
    assert_eq!(stats.unknown_keys, 0);
    server.shutdown();
}

#[test]
fn raw_binary_batch_frames_isolate_failures_per_query() {
    // No client sends the `Batch` kind any more; it stays in the
    // protocol for hand-built peers, so its binary path is driven here
    // with a hand-encoded frame after a `Hello`.
    let (engine, rects) = storage_engine(48, 4);
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let (mut reader, mut writer) = hello_upgrade(server.local_addr());
    let query = |key: &str, rects: Vec<WireRect>| wire::WireQuery {
        release_key: key.into(),
        rects,
    };
    let wire_rects: Vec<WireRect> = rects.iter().map(Into::into).collect();
    let inverted = WireRect {
        x0: 1.0,
        y0: 0.0,
        x1: 0.0,
        y1: 1.0,
    };
    let batch = WireRequest::new(
        11,
        RequestBody::Batch(vec![
            query("storage", wire_rects.clone()),
            query("nope", wire_rects),
            query("storage", vec![inverted]),
        ]),
    );
    let mut frame = Vec::new();
    binary::encode_request(&batch, &mut frame).unwrap();
    writer.write_all(&frame).unwrap();

    let reply = read_binary_response(&mut reader);
    assert_eq!(reply.id, 11);
    let ResponseBody::Batch(outcomes) = reply.body else {
        panic!("expected a batch reply, got {:?}", reply.body);
    };
    assert_eq!(outcomes.len(), 3);
    let local = engine
        .answer(&QueryRequest::new("storage", rects.clone()))
        .unwrap();
    match &outcomes[0] {
        WireOutcome::Answered(a) => assert_eq!(a.answers, local.answers),
        other => panic!("expected answers, got {other:?}"),
    }
    for (outcome, code) in outcomes[1..]
        .iter()
        .zip([ErrorCode::UnknownKey, ErrorCode::InvalidQuery])
    {
        match outcome {
            WireOutcome::Failed(e) => assert_eq!(e.code, code),
            other => panic!("expected {code:?}, got {other:?}"),
        }
    }
    server.shutdown();
}
