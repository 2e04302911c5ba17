//! C10K-style serving: one readiness-multiplexed server holding
//! hundreds of mostly-idle connections while busy clients pipeline
//! through it.
//!
//! ```sh
//! cargo run --release --example mux_serving
//! ```
//!
//! Demonstrates the multiplexed transport behind `TcpServer::bind`: a
//! small worker pool (one epoll/poll(2) run loop per worker)
//! multiplexes every connection as a nonblocking state machine, so
//! idle connections cost no threads and no per-tick work.
//! The example parks a few hundred idle connections, drives real
//! pipelined traffic through the same server, verifies every remote
//! answer against the in-process engine, and reads the server's
//! transport counters back over the wire.

use std::net::TcpStream;
use std::sync::Arc;

use dpgrid::prelude::*;

const IDLE_CONNECTIONS: usize = 300;
const BUSY_CLIENTS: usize = 8;
const PIPELINE_DEPTH: usize = 16;

fn main() {
    // 1. Publish a release and serve it.
    let data = PaperDataset::Storage
        .generate_n(404, 20_000)
        .expect("generate dataset");
    let mut catalog = Catalog::new();
    Pipeline::new(&data)
        .epsilon(1.0)
        .method(Method::ag_suggested())
        .seed(17)
        .publish_into(&mut catalog, "storage")
        .expect("publish");
    let engine = Arc::new(QueryEngine::new(catalog));
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // 2. Park a crowd of idle connections. Under the multiplexed
    //    transport these cost a registration each — no threads, no
    //    stacks, no per-tick polling.
    let idle: Vec<TcpStream> = (0..IDLE_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    println!("parked {} idle connections", idle.len());

    // 3. Drive pipelined traffic through the same server while the
    //    crowd sits there, checking every answer against the
    //    in-process engine.
    let domain = *data.domain().rect();
    let rects: Vec<Rect> = (0..PIPELINE_DEPTH)
        .map(|i| {
            let t = i as f64 / PIPELINE_DEPTH as f64;
            Rect::new(
                domain.x0(),
                domain.y0(),
                domain.x0() + domain.width() * (0.2 + 0.8 * t),
                domain.y0() + domain.height() * (0.3 + 0.7 * t),
            )
            .expect("rect")
        })
        .collect();
    let expected = engine
        .answer(&QueryRequest::new("storage", rects.clone()))
        .expect("reference")
        .answers;
    std::thread::scope(|scope| {
        for _ in 0..BUSY_CLIENTS {
            let rects = &rects;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                let batch: Vec<QueryRequest> = rects
                    .iter()
                    .map(|r| QueryRequest::new("storage", vec![*r]))
                    .collect();
                for _ in 0..20 {
                    let outcomes = client.query_pipelined(&batch).expect("pipeline");
                    for (i, outcome) in outcomes.into_iter().enumerate() {
                        let got = outcome.expect("answer").answers[0];
                        let want = expected[i];
                        assert!(
                            (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                            "remote {got} vs local {want}"
                        );
                    }
                }
            });
        }
    });
    println!(
        "{} busy clients × 20 pipelines of depth {} verified against the engine",
        BUSY_CLIENTS, PIPELINE_DEPTH
    );

    // 4. The server's socket-level counters travel in the ordinary
    //    wire Stats response.
    let mut client = TcpClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let transport = stats.transport.expect("transport counters");
    println!(
        "transport: accepted={} active={} frames_decoded={} bytes_in={} bytes_out={} \
         read_stalls={} write_stalls={}",
        transport.accepted,
        transport.active,
        transport.frames_decoded,
        transport.bytes_in,
        transport.bytes_out,
        transport.read_stalls,
        transport.write_stalls,
    );
    assert!(transport.active as usize > IDLE_CONNECTIONS);
    drop(idle);
    server.shutdown();
}
