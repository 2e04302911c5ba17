//! Hostile-I/O and concurrency regression for the readiness-
//! multiplexed server.
//!
//! The polite-client behaviors are pinned by `net_serving.rs`. This
//! suite attacks the transport itself: slowloris clients that dribble
//! one byte at a time, frames pipelined and interleaved across many
//! concurrent connections (answers must match the in-process engine to
//! ≤ 1e-9 under both codecs), shutdown under live load, the
//! wire-visible transport counters and exact frame counts, and the
//! remote shard's single-frame window path with its keys-based
//! fallback against a pre-`Window` peer.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpgrid::prelude::*;
use dpgrid::serve::wire::{
    self, binary, ErrorCode, RequestBody, WireError, WireRequest, WireResponse,
};

fn engine(keys: &[(&str, u64)]) -> QueryEngine {
    let dataset = PaperDataset::Storage.generate_n(63, 2_000).unwrap();
    let mut catalog = Catalog::new();
    for (key, seed) in keys {
        Pipeline::new(&dataset)
            .epsilon(1.0)
            .method(Method::ug(16))
            .seed(*seed)
            .publish_into(&mut catalog, *key)
            .unwrap();
    }
    QueryEngine::new(catalog)
}

fn workload(n: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            Rect::new(
                -124.0 + 20.0 * t,
                24.0 + 8.0 * t,
                -90.0 + 15.0 * t,
                40.0 + 5.0 * t,
            )
            .unwrap()
        })
        .collect()
}

/// Dribbles `bytes` into `stream` one byte at a time, flushing each.
fn slowloris_write(stream: &mut TcpStream, bytes: &[u8]) {
    for &b in bytes {
        stream.write_all(&[b]).unwrap();
        stream.flush().unwrap();
        // Short enough to keep the test fast, long enough that the
        // server observes hundreds of partial-frame wakeups.
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

fn read_json_frame(reader: &mut BufReader<TcpStream>) -> WireResponse {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    WireResponse::decode(line.trim_end()).unwrap()
}

#[test]
fn slowloris_frames_are_reassembled_under_both_codecs() {
    let engine = Arc::new(engine(&[("a", 1)]));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let q = Rect::new(-120.0, 25.0, -95.0, 42.0).unwrap();
    let expected = engine
        .answer(&QueryRequest::new("a", vec![q]))
        .unwrap()
        .answers[0];

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // JSON v1, one byte at a time: the frame must reassemble and the
    // answer must be exact.
    let request = WireRequest::new(
        1,
        RequestBody::Query(wire::WireQuery {
            release_key: "a".into(),
            rects: vec![(&q).into()],
        }),
    );
    let mut frame = request.encode().into_bytes();
    frame.push(b'\n');
    slowloris_write(&mut stream, &frame);
    let response = read_json_frame(&mut reader);
    assert_eq!(response.id, 1);
    match response.body {
        wire::ResponseBody::Answers(a) => {
            assert!((a.answers[0] - expected).abs() <= 1e-9 * (1.0 + expected.abs()));
        }
        other => panic!("expected answers, got {other:?}"),
    }

    // Negotiate up to binary v2 (also dribbled), then dribble a binary
    // query frame: header and payload reassemble across dozens of
    // partial reads.
    let mut hello = WireRequest::new(2, RequestBody::Hello(wire::HelloOffer { max_version: 2 }))
        .encode()
        .into_bytes();
    hello.push(b'\n');
    slowloris_write(&mut stream, &hello);
    let ack = read_json_frame(&mut reader);
    match ack.body {
        wire::ResponseBody::Hello(ack) => assert_eq!(ack.version, 2),
        other => panic!("expected hello ack, got {other:?}"),
    }

    let request = WireRequest::new(
        3,
        RequestBody::Query(wire::WireQuery {
            release_key: "a".into(),
            rects: vec![(&q).into()],
        }),
    );
    let mut frame = Vec::new();
    binary::encode_request(&request, &mut frame).unwrap();
    slowloris_write(&mut stream, &frame);
    let mut header_buf = [0u8; binary::HEADER_BYTES];
    reader.read_exact(&mut header_buf).unwrap();
    let header = binary::decode_header(&header_buf).unwrap();
    let mut payload = vec![0u8; header.payload_len];
    reader.read_exact(&mut payload).unwrap();
    let response = binary::decode_response(&header, &payload).unwrap();
    assert_eq!(response.id, 3);
    match response.body {
        wire::ResponseBody::Answers(a) => {
            assert!((a.answers[0] - expected).abs() <= 1e-9 * (1.0 + expected.abs()));
        }
        other => panic!("expected answers, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn pipelined_frames_interleave_across_concurrent_connections() {
    let keys: Vec<(String, u64)> = (0..6).map(|i| (format!("k{i}"), 10 + i as u64)).collect();
    let key_refs: Vec<(&str, u64)> = keys.iter().map(|(k, s)| (k.as_str(), *s)).collect();
    let engine = Arc::new(engine(&key_refs));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let rects = workload(11);

    // In-process reference, computed single-threaded up front.
    let reference: Vec<Vec<f64>> = keys
        .iter()
        .map(|(key, _)| {
            engine
                .answer(&QueryRequest::new(key.clone(), rects.clone()))
                .unwrap()
                .answers
        })
        .collect();

    let checked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // 8 concurrent connections; even threads speak negotiated v2
        // and pipeline every key as its own frame, odd threads pin
        // JSON v1. Frames from all of them interleave on the server's
        // small worker pool.
        for t in 0..8usize {
            let keys = &keys;
            let rects = &rects;
            let reference = &reference;
            let checked = &checked;
            scope.spawn(move || {
                let max_protocol = if t % 2 == 0 { 2 } else { 1 };
                let mut client = TcpClient::connect_with_protocol(addr, max_protocol).unwrap();
                for i in 0..15 {
                    let order: Vec<usize> =
                        (0..keys.len()).map(|j| (j + t + i) % keys.len()).collect();
                    let batch: Vec<QueryRequest> = order
                        .iter()
                        .map(|&j| QueryRequest::new(keys[j].0.clone(), rects.clone()))
                        .collect();
                    let outcomes = client.query_pipelined(&batch).unwrap();
                    for (&j, outcome) in order.iter().zip(outcomes) {
                        let response = outcome.unwrap();
                        assert_eq!(response.release_key, keys[j].0, "responses out of order");
                        for (a, e) in response.answers.iter().zip(&reference[j]) {
                            assert!(
                                (a - e).abs() <= 1e-9 * (1.0 + e.abs()),
                                "{}: remote {a} vs in-process {e}",
                                keys[j].0
                            );
                        }
                        checked.fetch_add(response.answers.len() as u64, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        checked.load(Ordering::Relaxed),
        (8 * 15 * keys.len() * rects.len()) as u64
    );
    // The 4 v2 clients answer one frame per key per iteration; the 4
    // v1 clients degrade each pipeline to a single Batch frame.
    assert!(server.frames_served() >= (4 * 15 * keys.len() + 4 * 15) as u64);
    server.shutdown();
}

#[test]
fn shutdown_under_load_joins_cleanly() {
    let engine = Arc::new(engine(&[("a", 1)]));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let rects = workload(7);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..6 {
        let stop = Arc::clone(&stop);
        let rects = rects.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = TcpClient::connect(addr).unwrap();
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // After shutdown every outcome is an error (never a
                // hang, never a panic); before it, answers flow.
                if client.query("a", &rects).is_ok() {
                    served += 1;
                }
            }
            served
        }));
    }
    // Let real load build up, then pull the plug mid-flight.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let served_before = server.frames_served();
    server.shutdown(); // must join every worker despite live traffic
    stop.store(true, Ordering::Relaxed);
    let served: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(served_before > 0, "load never reached the server");
    assert!(served > 0, "clients were never answered");
}

#[test]
fn transport_counters_travel_in_wire_stats() {
    let engine = Arc::new(engine(&[("a", 1)]));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let rects = workload(5);

    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.query("a", &rects).unwrap();
    client.ping().unwrap();

    // Both codecs carry the tail: the negotiated-v2 client above and a
    // pinned-v1 client below see the same counters (the v1 read is
    // strictly later, so its values can only have grown).
    let stats = client.stats().unwrap();
    let transport = stats.transport.expect("server reports transport counters");
    assert!(transport.accepted >= 1);
    assert!(transport.active >= 1);
    assert!(transport.frames_decoded >= 3, "query + ping + stats");
    assert!(transport.bytes_in > 0 && transport.bytes_out > 0);

    let mut v1 = TcpClient::connect_with_protocol(server.local_addr(), 1).unwrap();
    let v1_transport = v1.stats().unwrap().transport.unwrap();
    assert!(v1_transport.accepted >= 2);
    assert!(v1_transport.frames_decoded > transport.frames_decoded);

    // The server-side accessor agrees with the wire view (modulo
    // traffic that lands between the two reads).
    let direct = server.transport_stats();
    assert!(direct.frames_decoded >= v1_transport.frames_decoded);
    assert_eq!(direct.accepted, v1_transport.accepted);

    // The bare engine still reports no transport: the tail belongs to
    // the serving boundary, not the engine.
    assert!(QueryService::stats(&*engine).transport.is_none());
    server.shutdown();
}

#[test]
fn both_codecs_match_the_engine_and_count_frames() {
    let engine = Arc::new(engine(&[("a", 1)]));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let q = workload(5);
    let reference = engine
        .answer(&QueryRequest::new("a", q.clone()))
        .unwrap()
        .answers;

    let mut v1 = TcpClient::connect_with_protocol(server.local_addr(), 1).unwrap();
    assert_eq!(v1.protocol_version(), Some(1));
    assert_eq!(v1.query("a", &q).unwrap().answers, reference);

    let mut v2 = TcpClient::connect(server.local_addr()).unwrap();
    assert_eq!(v2.protocol_version(), Some(2));
    assert_eq!(v2.query("a", &q).unwrap().answers, reference);

    let transport = v2.stats().unwrap().transport.unwrap();
    assert!(transport.frames_decoded >= 1);
    assert_eq!(server.frames_served(), 4); // query + hello + query + stats
    server.shutdown();
}

/// A fake pre-`Window` (and pre-`Hello`) JSON-only server: one
/// accepted connection, answering `Hello` and `Window` with the
/// `MalformedRequest` an old binary would produce, everything else
/// through the real dispatch.
fn spawn_pre_window_server(
    engine: Arc<QueryEngine>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
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
            let response = match WireRequest::decode(trimmed) {
                Ok(request) => match request.body {
                    RequestBody::Hello(_) => WireResponse::error(
                        request.id,
                        WireError::new(ErrorCode::MalformedRequest, "unknown variant `Hello`"),
                    ),
                    RequestBody::Window(_) => WireResponse::error(
                        request.id,
                        WireError::new(ErrorCode::MalformedRequest, "unknown variant `Window`"),
                    ),
                    body => wire::dispatch(engine.as_ref(), request.id, body),
                },
                Err(e) => WireResponse::error(e.id, e.error),
            };
            writer.write_all(response.encode().as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
        }
    });
    (addr, handle)
}

#[test]
fn remote_window_is_native_with_keys_fallback_for_old_peers() {
    let keys: Vec<String> = (0..4)
        .map(|e| epoch_key("taxi", EpochRange::single(e)))
        .collect();
    let key_refs: Vec<(&str, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), 40 + i as u64))
        .collect();
    let engine = Arc::new(engine(&key_refs));
    let q = workload(3);
    let query = WindowQuery {
        keyspace: "taxi".into(),
        range: EpochRange::new(1, 4).unwrap(),
        rects: q.clone(),
    };
    let expected = answer_window(&*engine, &query).unwrap();

    // Modern peer: the shard's `window` override sends one native
    // `Window` frame, and the server-side resolution matches the
    // in-process one exactly.
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let baseline = server.frames_served();
    let shard = RemoteShard::connect(server.local_addr()).unwrap();
    let native = shard.window(&query).unwrap();
    assert_eq!(native.keyspace, expected.keyspace);
    assert_eq!(native.covered, expected.covered);
    for (a, e) in native.answers.iter().zip(&expected.answers) {
        assert!((a - e).abs() <= 1e-9 * (1.0 + e.abs()));
    }
    // One round trip: connect-verify ping + hello + the window frame
    // itself — no per-epoch queries, no keys enumeration.
    assert!(
        server.frames_served() - baseline <= 3,
        "window fanned out: {} frames",
        server.frames_served() - baseline
    );
    server.shutdown();

    // Pre-`Window` peer: the override's offer is rejected as
    // `MalformedRequest` and the shard falls back to keys-based
    // resolution — same answer, just more round trips.
    let (addr, _old_server) = spawn_pre_window_server(Arc::clone(&engine));
    let shard = RemoteShard::connect(addr).unwrap();
    let fallback = shard.window(&query).unwrap();
    assert_eq!(fallback.covered, expected.covered);
    for (a, e) in fallback.answers.iter().zip(&expected.answers) {
        assert!((a - e).abs() <= 1e-9 * (1.0 + e.abs()));
    }
    // An uncovered range still degrades typed through the fallback.
    let missing = WindowQuery {
        keyspace: "taxi".into(),
        range: dpgrid::core::EpochRange::new(90, 95).unwrap(),
        rects: q,
    };
    assert!(matches!(
        shard.window(&missing),
        Err(ServeError::UnknownRelease(_))
    ));
}
