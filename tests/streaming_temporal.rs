//! End-to-end temporal serving: a timestamped stream ingested across
//! several epochs, served through the full TCP front door (binary v2),
//! answering sliding-window queries that match single-threaded
//! per-epoch compiled-surface sums within 1e-9 — including after the
//! compactor merges the oldest tier. Also pins the epoch-key naming
//! convention on the wire: every epoch of a keyspace is enumerable
//! through an ordinary `Keys` request.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use dpgrid::core::{epoch_key, merge_releases, EpochLayout, EpochRange};
use dpgrid::mech::BudgetSchedule;
use dpgrid::net::{NetError, TcpClient, TcpServer};
use dpgrid::prelude::*;
use dpgrid::serve::wire::{ErrorCode, RequestBody, ResponseBody, WireRequest, WireResponse};
use dpgrid::stream::{Compactor, StreamIngestor};

fn domain() -> Domain {
    Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap()
}

/// Deterministic per-epoch point clouds: epochs differ in both count
/// and placement so no two epoch surfaces are interchangeable.
fn push_epoch(ingestor: &mut StreamIngestor, sink: &mut &QueryEngine, epoch: u64) {
    let n = 150 + 40 * epoch as usize;
    for i in 0..n {
        let x = 0.05 + ((i as f64 * 7.3 + epoch as f64 * 1.7) % 9.9);
        let y = 0.05 + ((i as f64 * 3.1 + epoch as f64 * 4.9) % 9.9);
        let t = epoch as f64 * 60.0 + (i % 59) as f64;
        ingestor
            .push(Point::new(x, y), t, sink)
            .expect("in-order, in-domain points ingest cleanly");
    }
}

fn query_rects() -> Vec<Rect> {
    vec![
        Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(),
        Rect::new(1.25, 2.5, 7.75, 8.5).unwrap(),
        Rect::new(0.1, 8.9, 9.9, 9.6).unwrap(),
    ]
}

fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
        "{what}: got {got}, want {want}"
    );
}

#[test]
fn stream_to_tcp_window_queries_match_per_epoch_sums() {
    // Ingest five epochs of a timestamped stream straight into a live
    // engine's catalog while a TCP server fronts it: the shared engine
    // is itself the sink.
    let engine = Arc::new(QueryEngine::new(Catalog::new()));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut sink = &*engine;

    let layout = EpochLayout::new(0.0, 60.0).unwrap();
    let schedule = BudgetSchedule::uniform(1.0, 8).unwrap();
    let mut ingestor = StreamIngestor::new("taxi", domain(), layout, schedule)
        .unwrap()
        .with_seed(42);
    for epoch in 0..5 {
        push_epoch(&mut ingestor, &mut sink, epoch);
    }
    ingestor.flush(&mut sink).unwrap();

    // The single-threaded reference: the ingestor's own retained copies
    // of the five published releases.
    let fine: BTreeMap<u64, Release> = ingestor.retained_fine().clone();
    assert_eq!(
        fine.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4]
    );

    // Epoch-key naming convention on the wire: a plain Keys request
    // enumerates every epoch of the keyspace.
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.protocol_version(),
        Some(2),
        "the front door negotiates binary v2"
    );
    let expected_keys: Vec<String> = (0..5)
        .map(|e| epoch_key("taxi", EpochRange::single(e)))
        .collect();
    assert_eq!(client.keys().unwrap(), expected_keys);

    // Sliding windows through the binary front door equal per-epoch
    // compiled-surface sums.
    let rects = query_rects();
    for (start, end) in [(0u64, 5u64), (1, 4), (2, 3), (0, 2)] {
        let answer = client.window("taxi", start, end, &rects).unwrap();
        assert_eq!(
            answer.covered,
            (start..end).map(EpochRange::single).collect::<Vec<_>>()
        );
        for (i, q) in rects.iter().enumerate() {
            let want: f64 = (start..end).map(|e| fine[&e].answer(q)).sum();
            assert_close(
                answer.answers[i],
                want,
                &format!("window [{start},{end}) rect #{i}"),
            );
        }
    }

    // The same window as a raw JSON line gets bit-identical answers:
    // codec choice never changes what the engine computes.
    let a2 = client.window("taxi", 1, 4, &rects).unwrap();
    let window = WireRequest::new(
        1,
        RequestBody::Window(dpgrid::serve::wire::WireWindow {
            keyspace: "taxi".into(),
            epoch_start: 1,
            epoch_end: 4,
            rects: rects.iter().map(Into::into).collect(),
        }),
    );
    let mut json = BufReader::new(TcpStream::connect(server.local_addr()).unwrap());
    json.get_mut()
        .write_all(format!("{}\n", window.encode()).as_bytes())
        .unwrap();
    let mut line = String::new();
    json.read_line(&mut line).unwrap();
    match WireResponse::decode(line.trim_end()).unwrap().body {
        ResponseBody::Window(a1) => assert_eq!(a1.into_answer().unwrap(), a2),
        other => panic!("expected a window answer, got {other:?}"),
    }

    // Window-edge semantics through the wire, all typed:
    // entirely after the retained epochs → UnknownKey naming the range;
    match client.window("taxi", 10, 20, &rects) {
        Err(NetError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnknownKey);
            assert!(e.message.contains("taxi@epoch:10-20"), "{}", e.message);
        }
        other => panic!("expected UnknownKey, got {other:?}"),
    }
    // an unknown keyspace → UnknownKey;
    match client.window("bikes", 0, 5, &rects) {
        Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownKey),
        other => panic!("expected UnknownKey, got {other:?}"),
    }
    // an empty window → InvalidQuery (never a silent zero).
    match client.window("taxi", 3, 3, &rects) {
        Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::InvalidQuery),
        other => panic!("expected InvalidQuery, got {other:?}"),
    }

    // Compact the oldest tier: epochs [0, 2) merge into one coarser
    // release; their fine keys are evicted from the live catalog.
    let compactor = Compactor::new(2, 2).unwrap();
    let tiers = compactor.compact(&mut ingestor, &mut sink).unwrap();
    assert_eq!(tiers.len(), 1);
    assert_eq!(tiers[0].range, EpochRange::new(0, 2).unwrap());
    let mut after_keys = vec![epoch_key("taxi", EpochRange::new(0, 2).unwrap())];
    after_keys.extend((2..5).map(|e| epoch_key("taxi", EpochRange::single(e))));
    after_keys.sort();
    assert_eq!(client.keys().unwrap(), after_keys);

    // A window straddling the compacted tier still answers through the
    // same front door — coverage widens visibly to the whole tier, and
    // the sums match the reference merge of the fine surfaces.
    let merged = merge_releases("reference", &[&fine[&0], &fine[&1]]).unwrap();
    let answer = client.window("taxi", 1, 4, &rects).unwrap();
    assert_eq!(
        answer.covered,
        vec![
            EpochRange::new(0, 2).unwrap(),
            EpochRange::single(2),
            EpochRange::single(3),
        ]
    );
    for (i, q) in rects.iter().enumerate() {
        let want = merged.answer(q) + fine[&2].answer(q) + fine[&3].answer(q);
        assert_close(
            answer.answers[i],
            want,
            &format!("post-compaction rect #{i}"),
        );
    }

    // A window entirely inside the merged span answers from the tier.
    let answer = client.window("taxi", 0, 1, &rects).unwrap();
    assert_eq!(answer.covered, vec![EpochRange::new(0, 2).unwrap()]);
    for (i, q) in rects.iter().enumerate() {
        assert_close(
            answer.answers[i],
            merged.answer(q),
            &format!("tier rect #{i}"),
        );
    }

    server.shutdown();
}
