//! The LDP ingestion front door: phones perturb locally, report over
//! TCP, and sealed epochs become ordinary served releases.
//!
//! ```sh
//! cargo run --release --example ldp_ingestion
//! ```
//!
//! Part 1 runs the whole loop on one node: a simulated fleet perturbs
//! its grid cell on-device (half GRR, half OUE), batches travel over a
//! negotiated binary-v2 connection into a `CollectingService`, a wrong
//! ε is rejected typed without touching the accumulator, and two
//! sealed epochs are queried back over the same connection — the
//! morning/evening hotspot shift is visible in the noisy counts even
//! though the server never saw a single true location.
//!
//! Part 2 scatters ingestion across shards: a `ReportRouter` sends
//! each batch to the shard that owns its epoch key under the same
//! rendezvous placement the read side uses, so reports aggregate
//! exactly where the sealed release will be served.

use std::sync::Arc;

use dpgrid::ldp::{CollectingService, CollectorConfig, ReportCollector};
use dpgrid::mech::oue_words;
use dpgrid::net::{NetError, ReportRouter, TcpClient, TcpServer};
use dpgrid::prelude::*;
use dpgrid::serve::wire::ErrorCode;
use dpgrid::serve::QueryEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COLS: usize = 16;
const ROWS: usize = 16;
const CELLS: u32 = (COLS * ROWS) as u32;
const EPSILON: f64 = 1.0;
const FLEET: usize = 4_000;

fn domain() -> Domain {
    Domain::from_corners(0.0, 0.0, 16.0, 16.0).unwrap()
}

fn collecting(keyspace: &str) -> CollectingService<QueryEngine> {
    let config = CollectorConfig::new(
        keyspace,
        domain(),
        COLS,
        ROWS,
        BudgetSchedule::uniform(2.0, 2).unwrap(),
    )
    .unwrap();
    CollectingService::new(
        QueryEngine::new(Catalog::new()),
        ReportCollector::new(config).unwrap(),
    )
}

/// Simulates one epoch of a fleet: each user is at the epoch's hot
/// corner with probability 60%, elsewhere uniformly. Even users
/// perturb with GRR, odd with OUE — the collector accepts a mixed
/// fleet. Returns wire-ready batches; the true cells never leave.
fn fleet_reports(keyspace: &str, epoch: u64, users: usize, seed: u64) -> Vec<ReportBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let grr = Grr::new(CELLS as usize, EPSILON).unwrap();
    let oue = Oue::new(CELLS as usize, EPSILON).unwrap();
    // Morning crowd downtown (3,3); evening crowd uptown (12,12).
    let hot = if epoch == 0 {
        3 * COLS + 3
    } else {
        12 * COLS + 12
    };
    let mut grr_cells = Vec::new();
    let mut oue_bits = Vec::new();
    for user in 0..users {
        let cell = if rng.random_range(0..10u32) < 6 {
            hot
        } else {
            rng.random_range(0..CELLS as usize)
        };
        let oracle: &dyn FrequencyOracle = if user % 2 == 0 { &grr } else { &oue };
        match oracle.perturb(cell, &mut rng).unwrap() {
            LocalReport::Cell(c) => grr_cells.push(c),
            LocalReport::Bits(words) => oue_bits.extend_from_slice(&words),
        }
    }
    let batch = |payload| ReportBatch {
        keyspace: keyspace.to_string(),
        epoch,
        epsilon: EPSILON,
        cells: CELLS,
        payload,
    };
    let mut batches = Vec::new();
    for chunk in grr_cells.chunks(512) {
        batches.push(batch(ReportPayload::Grr(chunk.to_vec())));
    }
    let words = oue_words(CELLS as usize);
    for chunk in oue_bits.chunks(512 * words) {
        batches.push(batch(ReportPayload::Oue {
            count: (chunk.len() / words) as u32,
            bits: chunk.to_vec(),
        }));
    }
    batches
}

fn main() {
    // ----- Part 1: one node collects, seals, and serves. -----
    let service = Arc::new(collecting("city"));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    println!(
        "front door on {} (protocol v{})",
        server.local_addr(),
        client.protocol_version().unwrap()
    );

    // A batch perturbed at the wrong ε is rejected typed, all-or-
    // nothing — mismatched ε would silently break the debiasing.
    let mut wrong = fleet_reports("city", 0, 8, 99).remove(0);
    wrong.epsilon = 3.0;
    match client.submit_report(&wrong) {
        Err(NetError::Server(e)) if e.code == ErrorCode::InvalidQuery => {
            println!("wrong-ε batch rejected typed: {e}")
        }
        other => panic!("expected InvalidQuery, got {other:?}"),
    }

    for epoch in 0..2u64 {
        let batches = fleet_reports("city", epoch, FLEET, epoch);
        let mut accepted = 0u64;
        for ack in client.submit_reports(&batches).unwrap() {
            accepted += ack.expect("well-formed batch").accepted;
        }
        println!(
            "epoch {epoch}: {} users reported in {} pipelined batches",
            accepted,
            batches.len()
        );

        // Seal on the serving side: ε charged exactly once, tallies
        // debiased, and the release published into the same engine
        // that absorbed the reports.
        let summary = service.publish_open_epoch(&mut service.inner()).unwrap();
        println!(
            "  sealed {} (ε = {}, {} GRR + {} OUE reports)",
            summary.key, summary.epsilon, summary.grr_reports, summary.oue_reports
        );
    }

    // The hotspot shift survives the noise: query both epochs over the
    // same connection that ingested them.
    let downtown = Rect::new(2.0, 2.0, 5.0, 5.0).unwrap();
    let uptown = Rect::new(11.0, 11.0, 14.0, 14.0).unwrap();
    for epoch in 0..2u64 {
        let key = format!("city@epoch:{epoch}");
        let answers = client.query(&key, &[downtown, uptown]).unwrap().answers;
        println!(
            "{key}: downtown ~ {:>7.0}, uptown ~ {:>7.0}",
            answers[0], answers[1]
        );
        let (hot, cold) = if epoch == 0 {
            (answers[0], answers[1])
        } else {
            (answers[1], answers[0])
        };
        assert!(
            hot > cold,
            "epoch {epoch}: the hotspot should dominate ({hot} vs {cold})"
        );
    }
    let stats = client.stats().unwrap();
    println!(
        "server counted {} accepted reports over the wire",
        stats.transport.unwrap().reports_accepted
    );
    server.shutdown();

    // ----- Part 2: scatter ingestion across shards. -----
    let shards = [
        ("alpha", collecting("harbor")),
        ("beta", collecting("harbor")),
    ];
    let mut servers = Vec::new();
    let mut addresses = Vec::new();
    for (name, svc) in shards {
        let svc = Arc::new(svc);
        let server = TcpServer::bind(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        addresses.push((name.to_string(), server.local_addr()));
        servers.push((name, svc, server));
    }
    let router = ReportRouter::connect(addresses).unwrap();

    // Placement is the read side's rendezvous hash over the epoch key:
    // reports for `harbor@epoch:0` aggregate on the shard that will
    // serve the sealed release — no cross-shard merge, ever.
    let owner = router.route("harbor", 0).expect("epoch 0 has a key");
    println!("harbor@epoch:0 is owned by shard {owner:?}");
    let batches = fleet_reports("harbor", 0, 600, 7);
    for ack in router.submit_reports(&batches) {
        ack.expect("routed batch accepted");
    }
    for (name, svc, server) in servers {
        let held = svc.with_collector(|c| c.open_reports());
        println!("  shard {name}: {held} reports buffered");
        assert_eq!(
            held > 0,
            name == owner,
            "reports must sit on the owner only"
        );
        server.shutdown();
    }
    println!("done");
}
