//! Sharded serving: one keyspace routed over many engines — local and
//! remote — behind a single front door.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```
//!
//! Demonstrates the whole horizontal-scaling story:
//!
//! 1. `Pipeline` publishes six DP releases through a `ShardedSink`,
//!    which places each release on one of three named shards by
//!    deterministic rendezvous hashing;
//! 2. a `ShardRouter` serves the same names — two shards in-process
//!    (`LocalShard`), one on the far side of a real TCP server
//!    (`RemoteShard`) — so routing finds every release exactly where
//!    publishing put it;
//! 3. the router is itself a `QueryService`, so an unchanged
//!    `TcpServer` bound to it becomes a front-door node proxying the
//!    fleet; a `TcpClient` queries mixed-key batches through it and
//!    every answer is checked against a single engine holding all six
//!    releases;
//! 4. topology changes: adding a fourth shard steals only the keys it
//!    now wins — everything else keeps its placement (and its warm
//!    caches).

use std::sync::Arc;

use dpgrid::prelude::*;

const SHARDS: [&str; 3] = ["shard-a", "shard-b", "shard-c"];

fn main() {
    // 1. Publish six releases twice: into one reference engine, and
    //    across three shard engines via the rendezvous-placed sink.
    let dataset = PaperDataset::Storage
        .generate_n(7, 20_000)
        .expect("generate dataset");
    let mut reference = Catalog::with_memory_budget(64 << 20);
    let engines: Vec<Arc<QueryEngine>> = SHARDS
        .iter()
        .map(|_| Arc::new(QueryEngine::new(Catalog::with_memory_budget(32 << 20))))
        .collect();
    let mut sink = ShardedSink::new(
        SHARDS
            .iter()
            .zip(&engines)
            .map(|(name, engine)| (name.to_string(), LocalShard::new(Arc::clone(engine))))
            .collect(),
    );
    let keys: Vec<String> = (0..6).map(|i| format!("city-{i}")).collect();
    for (i, key) in keys.iter().enumerate() {
        let pipeline = Pipeline::new(&dataset)
            .epsilon(1.0)
            .method(if i % 2 == 0 {
                Method::ag_suggested()
            } else {
                Method::ug(32)
            })
            .seed(40 + i as u64);
        pipeline
            .publish_into(&mut reference, key.clone())
            .expect("publish reference");
        pipeline
            .publish_into(&mut sink, key.clone())
            .expect("publish sharded");
        println!("published {key} -> {}", sink.route(key).unwrap());
    }
    let reference = QueryEngine::new(reference);

    // 2. shard-c moves to its own "host": a TCP server over its
    //    engine, dialed back through a RemoteShard. The router mixes
    //    the transports; placement only ever sees the *names*.
    let backend = TcpServer::bind(Arc::clone(&engines[2]), "127.0.0.1:0").expect("bind backend");
    println!("shard-c serving remotely on {}", backend.local_addr());
    let router = Arc::new(ShardRouter::new());
    router
        .add_shard(SHARDS[0], LocalShard::new(Arc::clone(&engines[0])))
        .expect("add shard-a");
    router
        .add_shard(SHARDS[1], LocalShard::new(Arc::clone(&engines[1])))
        .expect("add shard-b");
    router
        .add_shard(
            SHARDS[2],
            RemoteShard::connect(backend.local_addr()).expect("dial shard-c"),
        )
        .expect("add shard-c");
    for key in &keys {
        assert!(
            router.contains_key(key),
            "{key} must be where routing looks"
        );
    }

    // 3. Front door: the unchanged TcpServer serves the whole fleet
    //    because the router is a QueryService.
    let front_door = TcpServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind front door");
    println!("front door on {}\n", front_door.local_addr());
    let mut client = TcpClient::connect(front_door.local_addr()).expect("connect front door");
    assert_eq!(client.keys().expect("keys"), reference.keys());
    let queries = [
        Rect::new(-130.0, 10.0, -70.0, 50.0).expect("valid rect"),
        Rect::new(-105.0, 28.0, -88.0, 42.0).expect("valid rect"),
        Rect::new(-98.0, 33.0, -97.0, 36.0).expect("valid rect"),
    ];
    let batch: Vec<QueryRequest> = keys
        .iter()
        .map(|k| QueryRequest::new(k.clone(), queries.to_vec()))
        .collect();
    for (key, outcome) in keys
        .iter()
        .zip(client.query_pipelined(&batch).expect("pipelined"))
    {
        let remote = outcome.expect("answered");
        let local = reference
            .answer(&QueryRequest::new(key.clone(), queries.to_vec()))
            .expect("reference answer");
        assert_eq!(
            remote.answers, local.answers,
            "routed answers must equal the single-engine reference"
        );
        println!(
            "{key} via {}: total ~ {:>9.1} (routed == reference)",
            router.route(key).unwrap(),
            remote.answers[0]
        );
    }

    // 4. Topology: a fourth shard steals only the keys it now wins.
    let before: Vec<(String, String)> = keys
        .iter()
        .map(|k| (k.clone(), router.route(k).unwrap()))
        .collect();
    router
        .add_shard(
            "shard-d",
            LocalShard::new(Arc::new(QueryEngine::new(Catalog::new()))),
        )
        .expect("add shard-d");
    let moved: Vec<&str> = before
        .iter()
        .filter(|(k, owner)| router.route(k).unwrap() != *owner)
        .map(|(k, _)| k.as_str())
        .collect();
    println!(
        "\nadded shard-d: {} of {} keys remapped ({:?}); the rest kept their placement",
        moved.len(),
        keys.len(),
        moved
    );
    for (key, owner) in &before {
        let now = router.route(key).unwrap();
        assert!(
            now == *owner || now == "shard-d",
            "{key} may only move to the new shard"
        );
    }

    // Operator view: per-shard routing counters + exact merged stats.
    let stats = router.router_stats();
    for shard in &stats.shards {
        println!(
            "{:>8}: routed {:>2} requests ({} failed), engine answered {} rects",
            shard.name, shard.routed, shard.failed, shard.engine.answers
        );
    }
    println!(
        "fleet total: {} requests, {} answers",
        stats.merged.requests, stats.merged.answers
    );

    front_door.shutdown();
    backend.shutdown();
    println!("fleet shut down cleanly");
}
