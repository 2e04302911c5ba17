//! End-to-end acceptance of the LDP ingestion front door.
//!
//! Simulated users perturb their grid cell on-device (half GRR, half
//! OUE), ship batched reports over a live negotiated binary-v2 TCP
//! connection into a [`CollectingService`], and the sealed epochs are
//! inserted into the very engine that answered the reports. The test
//! then checks the whole loop three ways:
//!
//! 1. **Wire fidelity** — range queries answered over TCP against the
//!    sealed release match an in-process collector fed the identical
//!    batches to ≤ 1e-9 relative: nothing about TCP framing, codec
//!    negotiation, or epoch publication perturbs the estimate.
//! 2. **Statistical utility** — the normalized per-cell MAE against
//!    the (simulation-known) ground truth shrinks as the population
//!    grows: LDP noise is per-user, so frequencies concentrate at
//!    `O(1/√M)`.
//! 3. **Accounting** — accepted-report counts agree between client
//!    acks, collector state, and the server's transport counters, and
//!    each sealed epoch publishes under the epoch-key grammar.
//!
//! Everything is seeded: reruns are bit-identical.

use std::sync::Arc;

use dpgrid::ldp::{CollectingService, CollectorConfig, ReportCollector};
use dpgrid::mech::oue_words;
use dpgrid::net::{TcpClient, TcpServer};
use dpgrid::prelude::*;
use dpgrid::serve::QueryEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COLS: usize = 8;
const ROWS: usize = 8;
const CELLS: u32 = (COLS * ROWS) as u32;
/// Two collection rounds over a total budget of 2.0: ε = 1.0 each.
const EPOCH_EPSILON: f64 = 1.0;
/// Reports per wire batch — small enough that both populations
/// exercise the pipelined multi-batch path.
const BATCH: usize = 128;
/// The two population sizes: a 16× growth should shrink normalized
/// error by ~4× (√16); the assertion only demands ~2× for slack.
const SMALL_M: usize = 400;
const LARGE_M: usize = 6_400;

fn schedule() -> BudgetSchedule {
    BudgetSchedule::uniform(2.0, 2).unwrap()
}

fn domain() -> Domain {
    Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap()
}

fn config() -> CollectorConfig {
    CollectorConfig::new("taxi", domain(), COLS, ROWS, schedule()).unwrap()
}

/// Draws one user's true cell: a skewed city — 70% of users in four
/// hot cells, the rest uniform — so range queries have real signal.
fn draw_cell(rng: &mut StdRng) -> usize {
    const HOT: [usize; 4] = [9, 10, 17, 54];
    if rng.random_range(0..10u32) < 7 {
        HOT[rng.random_range(0..HOT.len())]
    } else {
        rng.random_range(0..CELLS as usize)
    }
}

/// Simulates `users` clients for `epoch`: each draws a true cell
/// (tallied into `truth`), perturbs it on-device — even indices GRR,
/// odd OUE — and the perturbed reports are packed into wire batches of
/// [`BATCH`]. The collector never sees `truth`.
fn perturb_population(users: usize, epoch: u64, seed: u64) -> (Vec<ReportBatch>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let grr = Grr::new(CELLS as usize, EPOCH_EPSILON).unwrap();
    let oue = Oue::new(CELLS as usize, EPOCH_EPSILON).unwrap();
    let mut truth = vec![0.0; CELLS as usize];
    let mut grr_cells: Vec<u32> = Vec::new();
    let mut oue_count = 0u32;
    let mut oue_bits: Vec<u64> = Vec::new();
    for user in 0..users {
        let cell = draw_cell(&mut rng);
        truth[cell] += 1.0;
        let oracle: &dyn FrequencyOracle = if user % 2 == 0 { &grr } else { &oue };
        match oracle.perturb(cell, &mut rng).unwrap() {
            LocalReport::Cell(c) => grr_cells.push(c),
            LocalReport::Bits(words) => {
                assert_eq!(words.len(), oue_words(CELLS as usize));
                oue_count += 1;
                oue_bits.extend_from_slice(&words);
            }
        }
    }

    let mut batches = Vec::new();
    for chunk in grr_cells.chunks(BATCH) {
        batches.push(ReportBatch {
            keyspace: "taxi".to_string(),
            epoch,
            epsilon: EPOCH_EPSILON,
            cells: CELLS,
            payload: ReportPayload::Grr(chunk.to_vec()),
        });
    }
    let words = oue_words(CELLS as usize);
    for (i, chunk) in oue_bits.chunks(BATCH * words).enumerate() {
        let count = (chunk.len() / words) as u32;
        let remaining = oue_count - (i as u32) * BATCH as u32;
        assert_eq!(count, remaining.min(BATCH as u32));
        batches.push(ReportBatch {
            keyspace: "taxi".to_string(),
            epoch,
            epsilon: EPOCH_EPSILON,
            cells: CELLS,
            payload: ReportPayload::Oue {
                count,
                bits: chunk.to_vec(),
            },
        });
    }
    (batches, truth)
}

/// A query workload with real spatial structure: the full domain, the
/// hot quarter, thin slivers, and a diagonal sweep.
fn workload() -> Vec<Rect> {
    let mut rects = vec![
        Rect::new(0.0, 0.0, 8.0, 8.0).unwrap(),
        Rect::new(0.0, 0.0, 4.0, 4.0).unwrap(),
        Rect::new(1.0, 1.0, 3.0, 2.5).unwrap(),
        Rect::new(5.9, 0.0, 6.1, 8.0).unwrap(),
    ];
    for i in 0..8 {
        let t = i as f64 * 0.7;
        rects.push(Rect::new(t * 0.5, t * 0.6, t * 0.5 + 2.0, t * 0.6 + 1.5).unwrap());
    }
    rects
}

/// Mean |estimate − truth| per cell, normalized by population size.
fn normalized_mae(release: &Release, truth: &[f64], users: usize) -> f64 {
    let cells = release.cells();
    assert_eq!(cells.len(), truth.len());
    cells
        .iter()
        .zip(truth)
        .map(|((_, est), t)| (est - t).abs())
        .sum::<f64>()
        / (truth.len() as f64 * users as f64)
}

#[test]
fn populations_ingest_over_binary_tcp_and_sealed_epochs_serve_exactly() {
    let service = Arc::new(CollectingService::new(
        QueryEngine::new(Catalog::new()),
        ReportCollector::new(config()).unwrap(),
    ));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(
        client.protocol_version(),
        Some(2),
        "the ingestion path must run over negotiated binary v2"
    );

    // The in-process reference: an identical collector fed the
    // identical batches without any wire in between.
    let mut reference = ReportCollector::new(config()).unwrap();

    let rects = workload();
    let mut maes = Vec::new();
    let mut total_reports = 0u64;
    for (epoch, users) in [(0u64, SMALL_M), (1u64, LARGE_M)] {
        let (batches, truth) = perturb_population(users, epoch, 1000 + epoch);
        assert!(
            batches.len() > 2,
            "population must span several wire batches, got {}",
            batches.len()
        );

        // One pipelined frame train per population.
        let acks = client.submit_reports(&batches).unwrap();
        let mut accepted = 0u64;
        for (ack, batch) in acks.into_iter().zip(&batches) {
            let ack = ack.unwrap_or_else(|e| panic!("batch rejected: {e}"));
            assert_eq!(ack.keyspace, "taxi");
            assert_eq!(ack.epoch, epoch);
            accepted += ack.accepted;
            reference.submit(batch).unwrap();
        }
        assert_eq!(accepted, users as u64, "every report must be acked");
        total_reports += accepted;
        assert_eq!(service.with_collector(|c| c.open_reports()), users as u64);

        // Seal on the serving side and publish into the live engine —
        // the same epoch-key the write path routed on.
        let summary = service.publish_open_epoch(&mut service.inner()).unwrap();
        assert_eq!(summary.key, format!("taxi@epoch:{epoch}"));
        assert_eq!(summary.epsilon, EPOCH_EPSILON);
        assert_eq!(summary.grr_reports + summary.oue_reports, users as u64);

        let mut sealed = Vec::new();
        reference.publish_open_epoch(&mut sealed).unwrap();
        let expected = &sealed[0].1;
        let surface = CompiledSurface::from_synopsis(expected);

        // Range queries over TCP match the in-process debiased
        // aggregate to ≤ 1e-9 relative.
        let remote = client.query(&summary.key, &rects).unwrap();
        assert_eq!(remote.answers.len(), rects.len());
        for (rect, answer) in rects.iter().zip(&remote.answers) {
            let want = surface.answer(rect);
            assert!(
                (answer - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "epoch {epoch}: remote {answer} vs in-process {want} on {rect:?}"
            );
        }

        maes.push(normalized_mae(expected, &truth, users));
    }

    // Utility: 16× the users must shrink normalized error markedly
    // (√16 = 4× in expectation; demand 2× for seed slack), and the
    // large-population estimate must be genuinely informative.
    let (small, large) = (maes[0], maes[1]);
    assert!(
        small > 2.0 * large,
        "normalized MAE must shrink with population: {SMALL_M} users → {small:.4}, \
         {LARGE_M} users → {large:.4}"
    );
    assert!(
        large < 0.1,
        "normalized MAE at {LARGE_M} users should be well under 0.1, got {large:.4}"
    );

    // Accounting: the transport counted exactly the accepted reports,
    // and both epochs are served side by side.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats
            .transport
            .expect("server exports transport counters")
            .reports_accepted,
        total_reports
    );
    let mut keys = client.keys().unwrap();
    keys.sort();
    assert_eq!(keys, vec!["taxi@epoch:0", "taxi@epoch:1"]);
    server.shutdown();
}
