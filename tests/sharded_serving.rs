//! End-to-end equivalence of the sharded serving tier.
//!
//! One keyspace, published twice: into a single reference engine
//! holding every release, and through a `ShardedSink` across four
//! shard engines (placement by the same rendezvous hash the router
//! uses). A 4-shard `ShardRouter` — two `LocalShard`s in-process, two
//! `RemoteShard`s behind real ephemeral-port `TcpServer`s — must then
//! answer mixed-key multi-rect batches **identically (≤ 1e-9)** to the
//! reference engine, under concurrent clients, and keep failures
//! isolated when one shard sheds typed `Overloaded`. A front-door
//! `TcpServer` bound to the router itself closes the loop: the whole
//! fleet behind one unchanged wire protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpgrid::prelude::*;

const SHARD_NAMES: [&str; 4] = ["shard-a", "shard-b", "shard-c", "shard-d"];
const CLIENT_THREADS: usize = 4;
const ITERATIONS: usize = 12;

fn methods(i: usize) -> Method {
    match i % 3 {
        0 => Method::ug(16),
        1 => Method::ag_suggested(),
        _ => Method::KdHybrid,
    }
}

fn workload(domain: &Rect, n: usize) -> Vec<Rect> {
    let (x0, y0) = (domain.x0(), domain.y0());
    let (w, h) = (domain.width(), domain.height());
    let mut rects = vec![*domain];
    for i in 0..n.saturating_sub(1) {
        let t = i as f64 / n as f64;
        rects.push(
            Rect::new(
                x0 + 0.45 * w * t,
                y0 + 0.35 * h * t,
                x0 + 0.15 * w + 0.8 * w * t,
                y0 + 0.2 * h + 0.7 * h * t,
            )
            .unwrap(),
        );
    }
    rects
}

struct Fleet {
    reference: QueryEngine,
    router: Arc<ShardRouter>,
    engines: Vec<Arc<QueryEngine>>,
    servers: Vec<dpgrid::net::TcpServer>,
    keys: Vec<String>,
}

/// Publishes `n_keys` releases into the reference engine and across
/// four shard engines, then wires a router over 2 local + 2 remote
/// shards (the remotes behind real loopback TCP servers).
fn fleet(n_keys: usize) -> Fleet {
    let dataset = PaperDataset::Storage.generate_n(71, 4_000).unwrap();
    let mut reference = Catalog::new();
    let engines: Vec<Arc<QueryEngine>> = SHARD_NAMES
        .iter()
        .map(|_| Arc::new(QueryEngine::new(Catalog::new())))
        .collect();
    let mut sink = ShardedSink::new(
        SHARD_NAMES
            .iter()
            .zip(&engines)
            .map(|(name, engine)| (name.to_string(), LocalShard::new(Arc::clone(engine))))
            .collect(),
    );
    let keys: Vec<String> = (0..n_keys).map(|i| format!("release-{i:02}")).collect();
    for (i, key) in keys.iter().enumerate() {
        let pipeline = Pipeline::new(&dataset)
            .epsilon(1.0)
            .method(methods(i))
            .seed(100 + i as u64);
        pipeline.publish_into(&mut reference, key.clone()).unwrap();
        pipeline.publish_into(&mut sink, key.clone()).unwrap();
    }

    // Shards c and d go remote: their engines behind real TCP servers.
    let servers: Vec<dpgrid::net::TcpServer> = engines[2..]
        .iter()
        .map(|engine| TcpServer::bind(Arc::clone(engine), "127.0.0.1:0").unwrap())
        .collect();
    let router = ShardRouter::new();
    for (name, engine) in SHARD_NAMES.iter().take(2).zip(&engines) {
        router
            .add_shard(*name, LocalShard::new(Arc::clone(engine)))
            .unwrap();
    }
    for (name, server) in SHARD_NAMES.iter().skip(2).zip(&servers) {
        router
            .add_shard(*name, RemoteShard::connect(server.local_addr()).unwrap())
            .unwrap();
    }
    Fleet {
        reference: QueryEngine::new(reference),
        router: Arc::new(router),
        engines,
        servers,
        keys,
    }
}

#[test]
fn four_shard_router_matches_single_engine_under_concurrent_clients() {
    let fleet = fleet(12);
    let dataset_domain = Rect::new(-124.0, 24.0, -66.0, 49.0).unwrap();
    let rects = workload(&dataset_domain, 9);

    // Both remote shards must actually own keys, or the test would
    // silently exercise only the local path.
    for name in SHARD_NAMES {
        assert!(
            fleet
                .keys
                .iter()
                .any(|k| fleet.router.route(k).as_deref() == Some(name)),
            "no key landed on {name}; choose more keys"
        );
    }
    // The router advertises exactly the reference keyspace, and every
    // key is placed where routing expects it.
    assert_eq!(fleet.router.keys(), fleet.reference.keys());
    for key in &fleet.keys {
        assert!(fleet.router.contains_key(key), "{key} misplaced");
    }

    // Reference answers, computed single-threaded.
    let reference_answers: Vec<Vec<f64>> = fleet
        .keys
        .iter()
        .map(|k| {
            fleet
                .reference
                .answer(&QueryRequest::new(k.clone(), rects.clone()))
                .unwrap()
                .answers
        })
        .collect();

    // Concurrent clients hammer the router with mixed-key batches —
    // every response must match the reference to ≤ 1e-9, in order.
    let checked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let fleet = &fleet;
            let rects = &rects;
            let reference_answers = &reference_answers;
            let checked = &checked;
            scope.spawn(move || {
                for i in 0..ITERATIONS {
                    // Rotate the batch composition per thread/iteration
                    // so sub-batches hit every shard in every shape.
                    let order: Vec<usize> = (0..fleet.keys.len())
                        .map(|j| (j + t + i) % fleet.keys.len())
                        .collect();
                    let batch: Vec<QueryRequest> = order
                        .iter()
                        .map(|&j| QueryRequest::new(fleet.keys[j].clone(), rects.clone()))
                        .collect();
                    let responses = fleet.router.answer_batch(&batch);
                    assert_eq!(responses.len(), batch.len());
                    for (&j, response) in order.iter().zip(responses) {
                        let response = response.unwrap();
                        assert_eq!(response.release_key, fleet.keys[j], "order broken");
                        for (a, e) in response.answers.iter().zip(&reference_answers[j]) {
                            assert!(
                                (a - e).abs() <= 1e-9 * (1.0 + e.abs()),
                                "{}: routed {a} vs reference {e}",
                                fleet.keys[j]
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
        (CLIENT_THREADS * ITERATIONS * fleet.keys.len() * rects.len()) as u64
    );

    // Merged stats are the exact sum of the four backends — plus the
    // transport tail the two remote shards' servers report (the bare
    // engines carry none), which must show real socket traffic.
    let mut merged = fleet.router.stats();
    let by_hand: EngineStats = fleet.engines.iter().map(|e| e.stats()).sum();
    let transport = merged
        .transport
        .take()
        .expect("remote shards surface their servers' transport counters");
    assert!(transport.accepted >= fleet.servers.len() as u64);
    assert!(transport.frames_decoded > 0);
    assert!(transport.bytes_in > 0 && transport.bytes_out > 0);
    assert_eq!(merged, by_hand);
    assert_eq!(merged.unknown_keys, 0);
    let router_stats = fleet.router.router_stats();
    assert_eq!(
        router_stats.shards.iter().map(|s| s.routed).sum::<u64>(),
        (CLIENT_THREADS * ITERATIONS * fleet.keys.len()) as u64
    );
    assert!(router_stats.shards.iter().all(|s| s.failed == 0));

    for server in fleet.servers {
        server.shutdown();
    }
}

#[test]
fn front_door_server_proxies_the_fleet_over_one_socket() {
    let fleet = fleet(8);
    let rects = workload(&Rect::new(-124.0, 24.0, -66.0, 49.0).unwrap(), 5);
    // The router is a QueryService, so the unchanged TcpServer serves
    // the whole fleet: one front-door node proxying 2 local + 2 remote
    // backends.
    let front_door = TcpServer::bind(Arc::clone(&fleet.router), "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(front_door.local_addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(client.keys().unwrap(), fleet.reference.keys());

    let batch: Vec<QueryRequest> = fleet
        .keys
        .iter()
        .map(|k| QueryRequest::new(k.clone(), rects.clone()))
        .collect();
    let outcomes = client.query_pipelined(&batch).unwrap();
    for (key, outcome) in fleet.keys.iter().zip(outcomes) {
        let remote = outcome.unwrap();
        let local = fleet
            .reference
            .answer(&QueryRequest::new(key.clone(), rects.clone()))
            .unwrap();
        assert_eq!(remote.release_key, *key);
        for (a, e) in remote.answers.iter().zip(&local.answers) {
            assert!((a - e).abs() <= 1e-9 * (1.0 + e.abs()), "{key}: {a} vs {e}");
        }
    }
    // An unknown key through the front door fails alone, typed.
    let outcomes = client
        .query_pipelined(&[
            QueryRequest::new(fleet.keys[0].clone(), rects.clone()),
            QueryRequest::new("nope", rects.clone()),
        ])
        .unwrap();
    assert!(outcomes[0].is_ok());
    assert!(matches!(
        &outcomes[1],
        Err(e) if e.code == dpgrid::serve::wire::ErrorCode::UnknownKey
    ));

    front_door.shutdown();
    for server in fleet.servers {
        server.shutdown();
    }
}

#[test]
fn one_overloaded_shard_fails_only_its_sub_batch_through_the_router() {
    let fleet = fleet(10);
    let rects = workload(&Rect::new(-124.0, 24.0, -66.0, 49.0).unwrap(), 4);

    // Add a fifth, admission-choked shard; rendezvous steals ~1/5 of
    // the keys for it. The name is chosen (deterministically — the
    // hash is a pure function) so the new shard wins at least one key
    // but not all, whatever the key set. Publish those keys there so
    // only *admission* fails, not placement.
    let tiny_name = (0..)
        .map(|i| format!("shard-tiny-{i}"))
        .find(|name| {
            let names: Vec<&str> = SHARD_NAMES.iter().copied().chain([name.as_str()]).collect();
            let won = fleet
                .keys
                .iter()
                .filter(|k| dpgrid::core::rendezvous_route(&names, k) == Some(4))
                .count();
            won >= 1 && won < fleet.keys.len()
        })
        .unwrap();
    let choked_engine = Arc::new(QueryEngine::new(Catalog::new()).with_admission_limit(1));
    fleet
        .router
        .add_shard(&tiny_name, LocalShard::new(Arc::clone(&choked_engine)))
        .unwrap();
    let moved: Vec<String> = fleet
        .keys
        .iter()
        .filter(|k| fleet.router.route(k).as_deref() == Some(tiny_name.as_str()))
        .cloned()
        .collect();
    assert!(!moved.is_empty(), "the new shard must win some keys");
    assert!(moved.len() < fleet.keys.len(), "but not all of them");
    let dataset = PaperDataset::Storage.generate_n(71, 4_000).unwrap();
    let mut sink = LocalShard::new(Arc::clone(&choked_engine));
    for key in &moved {
        let i: usize = key.trim_start_matches("release-").parse().unwrap();
        Pipeline::new(&dataset)
            .epsilon(1.0)
            .method(methods(i))
            .seed(100 + i as u64)
            .publish_into(&mut sink, key.clone())
            .unwrap();
    }

    // Concurrent clients: requests on the choked shard shed typed
    // Overloaded (each carries > 1 rect); everything else still
    // matches the reference exactly.
    std::thread::scope(|scope| {
        for _ in 0..CLIENT_THREADS {
            let fleet = &fleet;
            let rects = &rects;
            let moved = &moved;
            scope.spawn(move || {
                for _ in 0..4 {
                    let batch: Vec<QueryRequest> = fleet
                        .keys
                        .iter()
                        .map(|k| QueryRequest::new(k.clone(), rects.clone()))
                        .collect();
                    for (key, result) in fleet.keys.iter().zip(fleet.router.answer_batch(&batch)) {
                        if moved.contains(key) {
                            assert!(
                                matches!(result, Err(ServeError::Overloaded { .. })),
                                "{key}: expected Overloaded, got {result:?}"
                            );
                        } else {
                            let response = result.unwrap();
                            let expect = fleet
                                .reference
                                .answer(&QueryRequest::new(key.clone(), rects.clone()))
                                .unwrap();
                            for (a, e) in response.answers.iter().zip(&expect.answers) {
                                assert!((a - e).abs() <= 1e-9 * (1.0 + e.abs()));
                            }
                        }
                    }
                }
            });
        }
    });
    let stats = fleet.router.router_stats();
    let tiny = stats.shards.iter().find(|s| s.name == tiny_name).unwrap();
    assert_eq!(tiny.failed, (CLIENT_THREADS * 4 * moved.len()) as u64);
    assert_eq!(tiny.engine.shed, tiny.failed);
    // Removing the choked shard hands its keys back to the original
    // four — and their releases are still there, so they answer again.
    assert!(fleet.router.remove_shard(&tiny_name));
    for key in &moved {
        let result = fleet
            .router
            .answer_batch(&[QueryRequest::new(key.clone(), rects.clone())])
            .remove(0);
        assert!(result.is_ok(), "{key} after removal: {result:?}");
    }
    for server in fleet.servers {
        server.shutdown();
    }
}
