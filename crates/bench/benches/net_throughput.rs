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
//! * **codec × pipelining**: JSON v1 frames, binary v2 frames, binary
//!   v2 with all of a connection's frames written in one burst.
//!
//! Every row records the protocol version its clients actually
//! negotiated. Medians are recorded to `BENCH_net_throughput.json` at
//! the workspace root (same shape as `BENCH_serve_throughput.json`) so
//! the transport perf trajectory is tracked in-repo. The in-process
//! `warm_w1` row of `BENCH_serve_throughput.json` is the natural
//! baseline: the gap between the two files is the price of the wire.

use criterion::{criterion_group, criterion_main, Criterion};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use dpgrid_bench::{bench_dataset, bench_rng};
use dpgrid_core::{AdaptiveGrid, AgConfig, Release, UgConfig, UniformGrid};
use dpgrid_geo::{available_parallelism, Rect};
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

/// One measured configuration: which protocol the clients offer and
/// whether a connection's frames go out one-at-a-time or as one
/// pipelined burst.
#[derive(Clone, Copy)]
struct Variant {
    tag: &'static str,
    max_protocol: u32,
    pipelined: bool,
}

const V1: Variant = Variant {
    tag: "v1",
    max_protocol: 1,
    pipelined: false,
};
const V2: Variant = Variant {
    tag: "v2",
    max_protocol: 2,
    pipelined: false,
};
const V2_PIPE: Variant = Variant {
    tag: "v2_pipe",
    max_protocol: 2,
    pipelined: true,
};

/// The measured concurrency ladder: the full codec matrix at one
/// connection (where per-frame cost dominates), the binary variants at
/// 16 and the pipelined one at 64 (where scheduling dominates and the
/// codec question is already settled).
const LADDER: [(usize, &[Variant]); 3] = [
    (1, &[V1, V2, V2_PIPE]),
    (16, &[V2, V2_PIPE]),
    (64, &[V2_PIPE]),
];

/// One pass: `conns` client threads, each sending `FRAMES_PER_CONN`
/// query frames round-robin across the release keys — one round trip
/// per frame, or all frames in one pipelined burst. Returns elapsed
/// nanoseconds for the whole pass.
fn pass_ns(
    addr: std::net::SocketAddr,
    keys: &[String],
    rects: &[Rect],
    conns: usize,
    variant: Variant,
) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..conns {
            scope.spawn(move || {
                let mut client =
                    TcpClient::connect_with_protocol(addr, variant.max_protocol).expect("connect");
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
    t.elapsed().as_nanos() as f64
}

/// Median nanoseconds per pass within a small time budget.
fn measure_ns(
    addr: std::net::SocketAddr,
    keys: &[String],
    rects: &[Rect],
    conns: usize,
    variant: Variant,
) -> f64 {
    let mut samples = Vec::new();
    let budget = std::time::Duration::from_millis(1_200);
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        samples.push(pass_ns(addr, keys, rects, conns, variant));
        if samples.len() >= 40 {
            break;
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Row {
    label: String,
    conns: usize,
    idle_conns: usize,
    protocol: u32,
    pipelined: bool,
    qps: f64,
    elapsed_ms: f64,
}

fn bench_net_throughput(c: &mut Criterion) {
    let parallelism = available_parallelism();
    let mut catalog = Catalog::new();
    let mut keys = Vec::new();
    for (key, release) in serve_releases() {
        keys.push(key.clone());
        catalog.insert(key, release);
    }
    let engine = Arc::new(QueryEngine::new(catalog));
    let rects = request_rects();

    let mut rows = Vec::new();
    let mut group = c.benchmark_group("net_throughput");
    let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Warmup: compile every surface once so all rows measure warm.
    pass_ns(addr, &keys, &rects, 1, V1);

    let mut measure = |conns: usize, idle_conns: usize, variant: Variant| {
        // Record what a client under this cap actually negotiates —
        // the row is honest even against a downgrading server.
        let protocol = TcpClient::connect_with_protocol(addr, variant.max_protocol)
            .expect("connect")
            .protocol_version()
            .unwrap_or(1);
        let idle_tag = if idle_conns > 0 {
            format!("_idle{idle_conns}")
        } else {
            String::new()
        };
        // The `mux_` prefix keeps labels comparable with earlier files.
        let label = format!("mux_{}_c{conns}{idle_tag}", variant.tag);
        let ns = measure_ns(addr, &keys, &rects, conns, variant);
        group.bench_function(&label, |b| {
            b.iter(|| pass_ns(addr, &keys, &rects, conns, variant));
        });
        let rects_per_pass = (conns * FRAMES_PER_CONN * RECTS_PER_REQUEST) as f64;
        rows.push(Row {
            label,
            conns,
            idle_conns,
            protocol,
            pipelined: variant.pipelined,
            qps: rects_per_pass / (ns / 1e9),
            elapsed_ms: ns / 1e6,
        });
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
    group.finish();

    let c1 = rows.first().map(|r| r.qps).unwrap_or(f64::NAN);
    for r in &rows {
        println!(
            "net_throughput/{}: {} conns (+{} idle), proto v{}{}, {} frames x {} rects, \
             {:.1} ms/pass, {:.0} q/s ({:.2}x vs mux_v1_c1)",
            r.label,
            r.conns,
            r.idle_conns,
            r.protocol,
            if r.pipelined { " pipelined" } else { "" },
            r.conns * FRAMES_PER_CONN,
            RECTS_PER_REQUEST,
            r.elapsed_ms,
            r.qps,
            r.qps / c1
        );
    }
    write_json(&rows, keys.len(), parallelism, c1);
}

/// Records the measurements to `BENCH_net_throughput.json` at the
/// workspace root (perf-trajectory files live in-repo).
fn write_json(rows: &[Row], releases: usize, parallelism: usize, c1: f64) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_net_throughput.json"
    );
    let mut out = format!(
        "{{\n  \"bench\": \"net_throughput\",\n  \"unit\": \"queries_per_sec\",\n  \
         \"transport\": \"tcp_loopback\",\n  \"releases\": {releases},\n  \
         \"rects_per_request\": {RECTS_PER_REQUEST},\n  \
         \"frames_per_conn\": {FRAMES_PER_CONN},\n  \
         \"parallelism\": {parallelism},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"conns\": {}, \"idle_conns\": {}, \
             \"protocol\": {}, \"pipelined\": {}, \
             \"elapsed_ms\": {:.2}, \"qps\": {:.0}, \"speedup_vs_mux_v1_c1\": {:.2}}}{}\n",
            r.label,
            r.conns,
            r.idle_conns,
            r.protocol,
            r.pipelined,
            r.elapsed_ms,
            r.qps,
            r.qps / c1,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("net_throughput: could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_net_throughput);
criterion_main!(benches);
