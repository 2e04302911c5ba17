//! Sharded serving throughput — the acceptance benchmark of the
//! `serve::shard` tier.
//!
//! Builds eight UG releases over the 100k-point landmark dataset and
//! measures mixed-key batched answering under four configurations:
//!
//! * `direct` — one `QueryEngine` holding all releases (the unsharded
//!   baseline);
//! * `router_local_s1` — a `ShardRouter` over one `LocalShard`
//!   (isolates pure routing overhead: hashing, scatter bookkeeping);
//! * `router_local_sN` — a router over N local shards, releases
//!   placed by the same rendezvous hash (the in-process scaling axis);
//! * `router_tcp_s2_binary` — a router over two `RemoteShard`s behind
//!   real loopback `TcpServer`s, whose binary v2 connections pipeline
//!   each sub-batch as id-correlated frames in one burst (routed-over-
//!   TCP vs direct: the price of the wire on the scatter path).
//!
//! Each batch is 16 requests of 256 rectangles, and every row is in
//! queries (rects) per second. Honest-parallelism note: on a
//! 1-hardware-thread container every configuration is ultimately
//! serialised by the CPU, so local shard counts cannot show speedups —
//! the fingerprint's `parallelism` records what the measuring machine
//! had, and the local-shard rows are expected flat (or slightly below
//! `direct`, the routing overhead) unless it is > 1.

use std::sync::Arc;

use dpgrid_bench::{bench_dataset, bench_rng, Bench, Unit};
use dpgrid_core::{rendezvous_route, Release, UgConfig, UniformGrid};
use dpgrid_geo::{available_parallelism, Rect};
use dpgrid_net::{RemoteShard, TcpServer};
use dpgrid_serve::shard::{LocalShard, ShardRouter};
use dpgrid_serve::{Catalog, QueryEngine, QueryRequest, QueryService};
use rand::Rng;

const N: usize = 100_000;
const EPS: f64 = 1.0;
const RELEASES: usize = 8;
/// Rectangles per request.
const RECTS_PER_REQUEST: usize = 256;
/// Requests per measured batch (mixed over all release keys).
const REQUESTS_PER_BATCH: usize = 16;

fn releases() -> Vec<(String, Release)> {
    let dataset = bench_dataset(N);
    let mut rng = bench_rng();
    (0..RELEASES)
        .map(|i| {
            let m = 64 + 64 * (i % 4);
            let ug = UniformGrid::build(&dataset, &UgConfig::fixed(EPS, m), &mut rng).unwrap();
            (
                format!("release-{i}"),
                Release::from_synopsis(format!("UG m={m}"), &ug),
            )
        })
        .collect()
}

/// A mixed query load over the landmark domain `[-130, -70] × [10, 50]`.
fn request_rects() -> Vec<Rect> {
    let mut rng = bench_rng();
    (0..RECTS_PER_REQUEST)
        .map(|i| {
            if i % 16 == 0 {
                Rect::new(-130.0, 10.0, -70.0, 50.0).unwrap()
            } else {
                let x = rng.random_range(-130.0..-75.0);
                let y = rng.random_range(10.0..46.0);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.5..5.0),
                    y + rng.random_range(0.5..4.0),
                )
                .unwrap()
            }
        })
        .collect()
}

fn batch(keys: &[String], rects: &[Rect]) -> Vec<QueryRequest> {
    (0..REQUESTS_PER_BATCH)
        .map(|i| QueryRequest::new(keys[i % keys.len()].clone(), rects.to_vec()))
        .collect()
}

/// Shard engines by rendezvous over `names`, matching the router's
/// placement, and return one engine per name.
fn sharded_engines(names: &[String]) -> Vec<Arc<QueryEngine>> {
    let engines: Vec<Arc<QueryEngine>> = names
        .iter()
        .map(|_| Arc::new(QueryEngine::new(Catalog::new())))
        .collect();
    for (key, release) in releases() {
        let owner = rendezvous_route(names, &key).unwrap();
        engines[owner].insert(key, release);
    }
    engines
}

/// One measured pass: answer the whole mixed batch once; every
/// response is asserted answered.
fn pass<S: QueryService + ?Sized>(service: &S, requests: &[QueryRequest]) {
    for result in service.answer_batch(requests) {
        let response = result.expect("answered");
        assert_eq!(response.answers.len(), RECTS_PER_REQUEST);
    }
}

fn main() {
    let parallelism = available_parallelism();
    let rects = request_rects();
    let keys: Vec<String> = (0..RELEASES).map(|i| format!("release-{i}")).collect();
    let requests = batch(&keys, &rects);
    let unit = Unit::PerSec("queries", REQUESTS_PER_BATCH * RECTS_PER_REQUEST);
    let mut bench = Bench::new("shard_throughput");

    // Baseline: one engine holding everything.
    let direct = {
        let mut catalog = Catalog::new();
        for (key, release) in releases() {
            catalog.insert(key, release);
        }
        QueryEngine::new(catalog)
    };
    bench.time("direct", unit, || pass(&direct, &requests));

    // Routed over 1 and N local shards.
    let local_counts = if parallelism > 2 {
        vec![1usize, parallelism.min(RELEASES)]
    } else {
        vec![1usize, 2]
    };
    for shards in local_counts {
        let names: Vec<String> = (0..shards).map(|i| format!("s{i}")).collect();
        let engines = sharded_engines(&names);
        let router = ShardRouter::with_shards(
            names
                .iter()
                .zip(&engines)
                .map(|(name, engine)| (name.clone(), LocalShard::new(Arc::clone(engine)))),
        )
        .unwrap();
        bench.time(format!("router_local_s{shards}"), unit, || {
            pass(&router, &requests)
        });
    }

    // Routed over TCP: two remote shards behind loopback servers.
    let names = vec!["s0".to_string(), "s1".to_string()];
    let engines = sharded_engines(&names);
    let servers: Vec<TcpServer> = engines
        .iter()
        .map(|engine| TcpServer::bind(Arc::clone(engine), "127.0.0.1:0").unwrap())
        .collect();
    let router = ShardRouter::new();
    for (name, server) in names.iter().zip(&servers) {
        let shard = RemoteShard::connect(server.local_addr()).unwrap();
        router.add_shard(name.clone(), shard).unwrap();
    }
    bench.time("router_tcp_s2_binary", unit, || pass(&router, &requests));
    for server in servers {
        server.shutdown();
    }
    bench.write();
}
