//! Hostile-I/O and concurrency regression for the readiness-
//! multiplexed server.
//!
//! The polite-client behaviors are pinned by `net_serving.rs`. This
//! suite attacks the transport itself: slowloris clients that dribble
//! one byte at a time, frames pipelined and interleaved across many
//! concurrent connections (answers must match the in-process engine to
//! ≤ 1e-9 under both codecs), shutdown under live load, the
//! wire-visible transport counters and exact frame counts, and the
//! remote shard's single-frame window path.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpgrid::prelude::*;
use dpgrid::serve::wire::{self, binary, RequestBody, ResponseBody, WireRequest, WireResponse};

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

/// Writes `requests` as raw JSON lines in one burst — the server's
/// JSON codec as a script or `nc` speaks it, no `Hello` — then reads
/// one response line per request, in order.
fn json_burst(stream: &mut BufReader<TcpStream>, requests: &[WireRequest]) -> Vec<ResponseBody> {
    let mut burst = String::new();
    for request in requests {
        burst.push_str(&request.encode());
        burst.push('\n');
    }
    stream.get_mut().write_all(burst.as_bytes()).unwrap();
    requests
        .iter()
        .map(|request| {
            let response = read_json_frame(stream);
            assert_eq!(response.id, request.id, "JSON responses out of order");
            response.body
        })
        .collect()
}

fn wire_query(key: &str, rects: &[Rect]) -> wire::WireQuery {
    wire::WireQuery {
        release_key: key.into(),
        rects: rects.iter().map(Into::into).collect(),
    }
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
    let check = |j: usize, answers: &[f64]| {
        assert_eq!(answers.len(), rects.len());
        for (a, e) in answers.iter().zip(&reference[j]) {
            assert!(
                (a - e).abs() <= 1e-9 * (1.0 + e.abs()),
                "{}: remote {a} vs in-process {e}",
                keys[j].0
            );
        }
        checked.fetch_add(answers.len() as u64, Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        // 8 concurrent connections; even threads speak binary v2 and
        // pipeline every key as its own frame, odd threads write raw
        // JSON lines — one Query line per key in a single burst, or
        // one Batch line, on alternate iterations. Frames from all of
        // them interleave on the server's small worker pool.
        for t in 0..8usize {
            let keys = &keys;
            let rects = &rects;
            let check = &check;
            scope.spawn(move || {
                let order = |i: usize| -> Vec<usize> {
                    (0..keys.len()).map(|j| (j + t + i) % keys.len()).collect()
                };
                if t % 2 == 0 {
                    let mut client = TcpClient::connect(addr).unwrap();
                    for i in 0..15 {
                        let order = order(i);
                        let batch: Vec<QueryRequest> = order
                            .iter()
                            .map(|&j| QueryRequest::new(keys[j].0.clone(), rects.clone()))
                            .collect();
                        let outcomes = client.query_pipelined(&batch).unwrap();
                        for (&j, outcome) in order.iter().zip(outcomes) {
                            let response = outcome.unwrap();
                            assert_eq!(response.release_key, keys[j].0, "responses out of order");
                            check(j, &response.answers);
                        }
                    }
                    return;
                }
                let mut json = BufReader::new(TcpStream::connect(addr).unwrap());
                for i in 0..15 {
                    let order = order(i);
                    let queries: Vec<wire::WireQuery> = order
                        .iter()
                        .map(|&j| wire_query(&keys[j].0, rects))
                        .collect();
                    let answers: Vec<wire::WireAnswers> = if i % 2 == 0 {
                        let lines: Vec<WireRequest> = (0..)
                            .zip(queries)
                            .map(|(id, q)| WireRequest::new(id, RequestBody::Query(q)))
                            .collect();
                        json_burst(&mut json, &lines)
                            .into_iter()
                            .map(|body| match body {
                                ResponseBody::Answers(a) => a,
                                other => panic!("expected answers, got {other:?}"),
                            })
                            .collect()
                    } else {
                        let batch = WireRequest::new(0, RequestBody::Batch(queries));
                        match json_burst(&mut json, &[batch]).remove(0) {
                            ResponseBody::Batch(outcomes) => outcomes
                                .into_iter()
                                .map(|outcome| match outcome {
                                    wire::WireOutcome::Answered(a) => a,
                                    other => panic!("expected answers, got {other:?}"),
                                })
                                .collect(),
                            other => panic!("expected a batch, got {other:?}"),
                        }
                    };
                    for (&j, a) in order.iter().zip(&answers) {
                        assert_eq!(a.release_key, keys[j].0, "responses out of order");
                        check(j, &a.answers);
                    }
                }
            });
        }
    });
    assert_eq!(
        checked.load(Ordering::Relaxed),
        (8 * 15 * keys.len() * rects.len()) as u64
    );
    // The 4 binary clients answer one frame per key per iteration; the
    // 4 JSON peers one line per key on 8 iterations and one Batch line
    // on the other 7.
    assert!(server.frames_served() >= (4 * 15 * keys.len() + 4 * (8 * keys.len() + 7)) as u64);
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

    // Both codecs carry the counters: the binary client above and a
    // raw JSON line below see the same ones (the JSON read is strictly
    // later, so its values can only have grown).
    let stats = client.stats().unwrap();
    let transport = stats.transport.expect("server reports transport counters");
    assert!(transport.accepted >= 1);
    assert!(transport.active >= 1);
    assert!(transport.frames_decoded >= 3, "query + ping + stats");
    assert!(transport.bytes_in > 0 && transport.bytes_out > 0);

    let mut json = BufReader::new(TcpStream::connect(server.local_addr()).unwrap());
    let v1_transport =
        match json_burst(&mut json, &[WireRequest::new(1, RequestBody::Stats)]).remove(0) {
            ResponseBody::Stats(stats) => stats.transport.expect("JSON stats carry transport"),
            other => panic!("expected stats, got {other:?}"),
        };
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

    let mut json = BufReader::new(TcpStream::connect(server.local_addr()).unwrap());
    let query = WireRequest::new(1, RequestBody::Query(wire_query("a", &q)));
    match json_burst(&mut json, &[query]).remove(0) {
        ResponseBody::Answers(a) => assert_eq!(a.answers, reference),
        other => panic!("expected answers, got {other:?}"),
    }

    let mut v2 = TcpClient::connect(server.local_addr()).unwrap();
    assert_eq!(v2.protocol_version(), Some(2));
    assert_eq!(v2.query("a", &q).unwrap().answers, reference);

    let transport = v2.stats().unwrap().transport.unwrap();
    assert!(transport.frames_decoded >= 1);
    assert_eq!(server.frames_served(), 4); // JSON query + hello + query + stats
    server.shutdown();
}

#[test]
fn remote_window_is_native_and_maps_uncovered_ranges_typed() {
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

    // The shard's `window` override sends one native `Window` frame,
    // and the server-side resolution matches the in-process one
    // exactly.
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

    // An uncovered range comes back as the typed error a local shard
    // raises, named by the window's own epoch key.
    let range = EpochRange::new(90, 95).unwrap();
    let missing = WindowQuery {
        keyspace: "taxi".into(),
        range,
        rects: q,
    };
    assert!(matches!(
        answer_window(&*engine, &missing),
        Err(ServeError::UnknownRelease(_))
    ));
    match shard.window(&missing) {
        Err(ServeError::UnknownRelease(key)) => assert_eq!(key, epoch_key("taxi", range)),
        other => panic!("expected UnknownRelease, got {other:?}"),
    }

    // With the server gone, the transport failure is Unavailable.
    server.shutdown();
    assert!(matches!(
        shard.window(&query),
        Err(ServeError::Unavailable { .. })
    ));
}
