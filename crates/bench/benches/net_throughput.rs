//! Loopback TCP serving throughput — the acceptance benchmark of the
//! `dpgrid-net` transport.
//!
//! Builds three releases (two lattice-path uniform grids and one
//! two-level adaptive grid) over the 100k-point landmark dataset,
//! serves them through a `TcpServer` over a `QueryEngine`, and
//! measures end-to-end queries/sec through real loopback sockets —
//! frame encode, TCP round trip, boundary validation, engine answer,
//! frame decode — under the two axes that matter for a serving
//! transport:
//!
//! * **concurrency**: 1, 16 and 64 concurrent client connections,
//!   plus an *idle-crowd* row — the busy measurement repeated with 256
//!   idle connections parked on the same server, which prices what a
//!   mostly-idle connection costs;
//! * **pipelining**: binary v2 frames one round trip at a time, or
//!   all of a connection's frames written in one burst.
//!
//! Each connection sends 8 frames of 512 rectangles per pass, and every
//! row is in queries (rects) per second. The in-process `warm_w1` row
//! of `BENCH_serve_throughput.json` is the natural baseline: the gap
//! between the two files is the price of the wire.

use std::net::TcpStream;
use std::sync::Arc;

use dpgrid_bench::{bench_dataset, bench_rng, Bench, Unit};
use dpgrid_core::{AdaptiveGrid, AgConfig, Release, UgConfig, UniformGrid};
use dpgrid_geo::Rect;
use dpgrid_net::{TcpClient, TcpServer};
use dpgrid_serve::{Catalog, QueryEngine, QueryRequest};
use rand::Rng;

const N: usize = 100_000;
const EPS: f64 = 1.0;
/// Rectangles per request frame.
const RECTS_PER_REQUEST: usize = 512;
/// Frames each connection sends per measured pass.
const FRAMES_PER_CONN: usize = 8;
/// Parked connections for the idle-crowd rows.
const IDLE_CROWD: usize = 256;

fn serve_releases() -> Vec<(String, Release)> {
    let dataset = bench_dataset(N);
    let mut rng = bench_rng();
    let mut out = Vec::new();
    for m in [128usize, 512] {
        let ug = UniformGrid::build(&dataset, &UgConfig::fixed(EPS, m), &mut rng).unwrap();
        out.push((format!("ug_m{m}"), Release::from_synopsis("UG", &ug)));
    }
    let ag = AdaptiveGrid::build(&dataset, &AgConfig::guideline(EPS), &mut rng).unwrap();
    out.push(("ag_guideline".into(), Release::from_synopsis("AG", &ag)));
    out
}

/// A mixed query load over the landmark domain `[-130, -70] × [10, 50]`.
fn request_rects() -> Vec<Rect> {
    let mut rng = bench_rng();
    (0..RECTS_PER_REQUEST)
        .map(|i| match i % 16 {
            0 => Rect::new(-130.0, 10.0, -70.0, 50.0).unwrap(),
            1 => Rect::new(-100.1, 10.0, -99.9, 50.0).unwrap(),
            _ => {
                let x = rng.random_range(-130.0..-75.0);
                let y = rng.random_range(10.0..46.0);
                let w = rng.random_range(0.5..5.0);
                let h = rng.random_range(0.5..4.0);
                Rect::new(x, y, x + w, y + h).unwrap()
            }
        })
        .collect()
}

/// One measured configuration: whether a connection's frames go out
/// one-at-a-time or as one pipelined burst.
#[derive(Clone, Copy)]
struct Variant {
    tag: &'static str,
    pipelined: bool,
}

const V2: Variant = Variant {
    tag: "v2",
    pipelined: false,
};
const V2_PIPE: Variant = Variant {
    tag: "v2_pipe",
    pipelined: true,
};

/// The measured concurrency ladder: both variants at 1 and 16
/// connections, the pipelined one at 64 (where scheduling dominates).
const LADDER: [(usize, &[Variant]); 3] =
    [(1, &[V2, V2_PIPE]), (16, &[V2, V2_PIPE]), (64, &[V2_PIPE])];

/// One pass: `conns` client threads, each sending `FRAMES_PER_CONN`
/// query frames round-robin across the release keys — one round trip
/// per frame, or all frames in one pipelined burst.
fn pass(
    addr: std::net::SocketAddr,
    keys: &[String],
    rects: &[Rect],
    conns: usize,
    variant: Variant,
) {
    std::thread::scope(|scope| {
        for c in 0..conns {
            scope.spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                if variant.pipelined {
                    let requests: Vec<QueryRequest> = (0..FRAMES_PER_CONN)
                        .map(|i| {
                            QueryRequest::new(keys[(c + i) % keys.len()].clone(), rects.to_vec())
                        })
                        .collect();
                    for outcome in client.query_pipelined(&requests).expect("pipelined") {
                        assert_eq!(outcome.expect("answered").answers.len(), rects.len());
                    }
                } else {
                    for i in 0..FRAMES_PER_CONN {
                        let key = &keys[(c + i) % keys.len()];
                        let response = client.query(key, rects).expect("answered");
                        assert_eq!(response.answers.len(), rects.len());
                    }
                }
            });
        }
    });
}

fn main() {
    let mut catalog = Catalog::new();
    let mut keys = Vec::new();
    for (key, release) in serve_releases() {
        keys.push(key.clone());
        catalog.insert(key, release);
    }
    let engine = Arc::new(QueryEngine::new(catalog));
    let rects = request_rects();

    let mut bench = Bench::new("net_throughput");
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Warmup: compile every surface once so all rows measure warm.
    pass(addr, &keys, &rects, 1, V2);

    let mut measure = |conns: usize, idle_conns: usize, variant: Variant| {
        let idle_tag = if idle_conns > 0 {
            format!("_idle{idle_conns}")
        } else {
            String::new()
        };
        // The `mux_` prefix keeps labels comparable with earlier files.
        let label = format!("mux_{}_c{conns}{idle_tag}", variant.tag);
        let unit = Unit::PerSec("queries", conns * FRAMES_PER_CONN * RECTS_PER_REQUEST);
        bench.time(label, unit, || pass(addr, &keys, &rects, conns, variant));
    };

    for (conns, variants) in LADDER {
        for &variant in variants {
            measure(conns, 0, variant);
        }
    }

    // Idle crowd: the c16 pipelined measurement with 256 idle
    // connections parked on the same server. The delta against the
    // plain c16 row is the per-tick price of an idle connection's
    // poller registration.
    let idle: Vec<TcpStream> = (0..IDLE_CROWD)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    measure(16, idle.len(), V2_PIPE);
    drop(idle);

    server.shutdown();
    bench.write();
}
