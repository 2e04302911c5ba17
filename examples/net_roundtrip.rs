//! Network round trip: publish DP releases, serve them over TCP, and
//! query them back — server and client in one process.
//!
//! ```sh
//! cargo run --release --example net_roundtrip
//! ```
//!
//! Demonstrates the whole transport-ready stack: `Pipeline` publishes
//! into a memory-budgeted `Catalog`, a `QueryEngine` (with admission
//! control) implements `QueryService`, a `TcpServer` exposes it over
//! TCP, and a blocking `TcpClient` — binary v2 frames after one JSON
//! `Hello` — pings, queries, pipelines, observes typed errors (unknown
//! key, invalid rect semantics, overload) and reads engine stats over
//! the same connection — with every remote answer checked against the
//! in-process engine.

use std::sync::Arc;

use dpgrid::net::NetError;
use dpgrid::prelude::*;
use dpgrid::serve::wire::ErrorCode;

fn main() {
    // 1. Publish two releases into a catalog with a 64 MiB budget of
    //    resident compiled surface.
    let mut catalog = Catalog::with_memory_budget(64 << 20);
    for (i, (key, dataset)) in [
        ("storage", PaperDataset::Storage),
        ("landmark", PaperDataset::Landmark),
    ]
    .iter()
    .enumerate()
    {
        let data = dataset
            .generate_n(200 + i as u64, 20_000)
            .expect("generate dataset");
        Pipeline::new(&data)
            .epsilon(1.0)
            .method(Method::ag_suggested())
            .seed(11 + i as u64)
            .publish_into(&mut catalog, *key)
            .expect("publish release");
        println!(
            "published {key:>8}: {} cells",
            catalog.release(key).unwrap().cell_count()
        );
    }

    // 2. Serve it on an ephemeral loopback port. The engine sheds past
    //    4096 in-flight rectangles instead of queueing unboundedly.
    let engine = Arc::new(QueryEngine::new(catalog).with_admission_limit(4096));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind loopback server");
    println!("serving on {}", server.local_addr());

    // 3. A client connects and works the protocol.
    let mut client = TcpClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let queries = [
        Rect::new(-130.0, 10.0, -70.0, 50.0).expect("valid rect"),
        Rect::new(-100.0, 30.0, -90.0, 40.0).expect("valid rect"),
    ];
    for key in ["storage", "landmark"] {
        let remote = client.query(key, &queries).expect("remote answer");
        let local = engine
            .answer(&QueryRequest::new(key, queries.to_vec()))
            .expect("local answer");
        assert_eq!(
            remote.answers, local.answers,
            "TCP answers must equal the in-process engine's"
        );
        println!(
            "{key:>8} v{}: total ~ {:>9.1}, window ~ {:>8.1} (remote == local)",
            remote.version, remote.answers[0], remote.answers[1]
        );
    }

    // 4. One pipelined train across both releases, failures isolated.
    let outcomes = client
        .query_pipelined(&[
            QueryRequest::new("storage", queries.to_vec()),
            QueryRequest::new("not-published", queries.to_vec()),
        ])
        .expect("pipelined transport");
    assert!(outcomes[0].is_ok());
    match &outcomes[1] {
        Err(e) if e.code == ErrorCode::UnknownKey => {
            println!("unknown key failed alone: {e}")
        }
        other => panic!("expected UnknownKey, got {other:?}"),
    }

    // 5. Overload: a request larger than the whole admission budget is
    //    shed with a typed, retryable error — never a hang.
    let flood: Vec<Rect> = (0..5000)
        .map(|i| {
            let t = i as f64 / 5000.0;
            Rect::new(-130.0 + t, 10.0, -70.0, 50.0).expect("valid rect")
        })
        .collect();
    match client.query("storage", &flood) {
        Err(NetError::Server(e)) if e.code == ErrorCode::Overloaded => {
            println!("flood of {} rects shed: {e}", flood.len())
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // 6. Operator view over the same connection.
    let stats = client.stats().expect("stats");
    println!(
        "server stats: {} requests ({} shed), {} answers, {}/{} budget bytes resident",
        stats.requests,
        stats.shed,
        stats.answers,
        stats.catalog.resident_bytes,
        stats.catalog.budget_bytes
    );
    assert!(stats.catalog.resident_bytes <= stats.catalog.budget_bytes);
    assert_eq!(stats.shed, 1);

    // 7. Graceful shutdown: connections drain and join.
    server.shutdown();
    println!("server shut down cleanly");
}
