//! LDP report-ingestion throughput — the acceptance benchmark of the
//! write path.
//!
//! Binds a `TcpServer` over a `CollectingService` and measures
//! end-to-end reports/sec through real loopback sockets — batch
//! encode, TCP round trip, boundary validation, chunked accumulator
//! fold, ack decode — across the two axes that matter for an
//! ingestion front door:
//!
//! * **grid size**: 8×8, 16×16 and 32×32 cells — the domain the
//!   accumulator folds over and (for OUE) the per-report payload size;
//! * **pipelining**: binary v2 batches one round trip at a time, or
//!   all of a pass's batches written in one burst (`submit_reports`).
//!
//! A pass is 16 batches of 256 reports, and every row is in reports
//! per second. GRR rows carry 4-byte reports and measure framing + fold
//! overhead; the `oue` rows ship `⌈cells/64⌉` packed words per report,
//! so their trajectory tracks payload bandwidth.
//!
//! The `fold_*` rows measure the fold **in-process** — no socket in
//! the way — comparing the seed's naive folds (per-bit walk for OUE,
//! find-validate + scatter for GRR) against the `dpgrid-kernels`
//! scalar reference and the runtime-dispatched backend, at 64 / 256 /
//! 1024 / 4096 cells, one pass worth (4,096 reports) per fold. They
//! isolate the kernel-layer speedup the end-to-end rows ride on.

use std::sync::Arc;

use dpgrid_bench::{bench_rng, Bench, Unit};
use dpgrid_geo::Domain;
use dpgrid_ldp::{CollectingService, CollectorConfig, ReportCollector};
use dpgrid_mech::{oue_words, BudgetSchedule};
use dpgrid_net::{TcpClient, TcpServer};
use dpgrid_serve::{Catalog, QueryEngine, ReportBatch, ReportPayload};
use rand::Rng;

const EPS: f64 = 1.0;
/// Reports per wire batch.
const REPORTS_PER_BATCH: usize = 256;
/// Batches each pass submits (one epoch stays open throughout — the
/// accumulator is flat, so folded reports cost no memory).
const BATCHES_PER_PASS: usize = 16;
/// The measured grid ladder.
const GRIDS: [(usize, usize); 3] = [(8, 8), (16, 16), (32, 32)];

/// One measured configuration: oracle family, and whether the pass's
/// batches go out one round trip at a time or as one pipelined burst.
#[derive(Clone, Copy)]
struct Variant {
    tag: &'static str,
    oracle: &'static str,
    pipelined: bool,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        tag: "grr_v2",
        oracle: "grr",
        pipelined: false,
    },
    Variant {
        tag: "grr_v2_pipe",
        oracle: "grr",
        pipelined: true,
    },
    Variant {
        tag: "oue_v2_pipe",
        oracle: "oue",
        pipelined: true,
    },
];

fn collecting(cols: usize, rows: usize) -> CollectingService<QueryEngine> {
    let domain = Domain::from_corners(0.0, 0.0, cols as f64, rows as f64).unwrap();
    // One epoch stays open for the whole measurement; every pass folds
    // into the same flat accumulator, so lift the report cap out of
    // the way.
    let config = CollectorConfig::new(
        "bench",
        domain,
        cols,
        rows,
        BudgetSchedule::uniform(EPS, 1).unwrap(),
    )
    .unwrap()
    .capacity(u64::MAX);
    CollectingService::new(
        QueryEngine::new(Catalog::new()),
        ReportCollector::new(config).unwrap(),
    )
}

/// Pre-builds one pass worth of well-formed batches. Report *values*
/// are random but statistically meaningless — this measures transport
/// and fold throughput, not estimator quality.
fn pass_batches(cells: u32, oracle: &str) -> Vec<ReportBatch> {
    let mut rng = bench_rng();
    let words = oue_words(cells as usize);
    let tail = cells as usize % 64;
    let tail_mask = if tail == 0 {
        u64::MAX
    } else {
        (1u64 << tail) - 1
    };
    (0..BATCHES_PER_PASS)
        .map(|_| {
            let payload = match oracle {
                "grr" => ReportPayload::Grr(
                    (0..REPORTS_PER_BATCH)
                        .map(|_| rng.random_range(0..cells))
                        .collect(),
                ),
                _ => {
                    let mut bits = Vec::with_capacity(REPORTS_PER_BATCH * words);
                    for _ in 0..REPORTS_PER_BATCH {
                        for w in 0..words {
                            let word: u64 = rng.random();
                            bits.push(if w + 1 == words {
                                word & tail_mask
                            } else {
                                word
                            });
                        }
                    }
                    ReportPayload::Oue {
                        count: REPORTS_PER_BATCH as u32,
                        bits,
                    }
                }
            };
            ReportBatch {
                keyspace: "bench".to_string(),
                epoch: 0,
                epsilon: EPS,
                cells,
                payload,
            }
        })
        .collect()
}

/// One pass: submit every batch and check its ack.
fn pass(client: &mut TcpClient, batches: &[ReportBatch], pipelined: bool) {
    if pipelined {
        for ack in client.submit_reports(batches).expect("pipelined submit") {
            assert_eq!(
                ack.expect("batch accepted").accepted,
                REPORTS_PER_BATCH as u64
            );
        }
    } else {
        for batch in batches {
            let ack = client.submit_report(batch).expect("submit");
            assert_eq!(ack.accepted, REPORTS_PER_BATCH as u64);
        }
    }
}

// --- in-process fold microbenchmarks ---------------------------------

/// The micro ladder: the bench grid sizes plus the 4096-cell shape
/// where the naive OUE walk was collapsing.
const MICRO_CELLS: [u32; 4] = [64, 256, 1024, 4096];
/// Reports per measured fold — one TCP pass worth.
const MICRO_REPORTS: usize = BATCHES_PER_PASS * REPORTS_PER_BATCH;

/// The seed's OUE fold this PR replaced: clear one set bit per
/// iteration, scatter an increment for each.
fn naive_fold_oue(acc: &mut [u64], words: usize, bits: &[u64]) {
    for report in bits.chunks_exact(words) {
        for (w, &word) in report.iter().enumerate() {
            let base = w * 64;
            let mut rest = word;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                acc[base + b] += 1;
                rest &= rest - 1;
            }
        }
    }
}

/// The seed's two-pass GRR path: a find-style validation sweep, then
/// the scatter.
fn naive_fold_grr(acc: &mut [u64], cells: u32, reports: &[u32]) {
    assert!(reports.iter().all(|&c| c < cells), "bench batch in-domain");
    for &cell in reports {
        acc[cell as usize] += 1;
    }
}

fn fold_rows(bench: &mut Bench) {
    use dpgrid_kernels::{
        fold_grr_checked, fold_grr_checked_with, fold_oue, fold_oue_with, Backend,
    };

    let mut rng = bench_rng();
    let unit = Unit::PerSec("reports", MICRO_REPORTS);
    for cells in MICRO_CELLS {
        let words = oue_words(cells as usize);
        let grr: Vec<u32> = (0..MICRO_REPORTS)
            .map(|_| rng.random_range(0..cells))
            .collect();
        // Same dense random payloads as the wire rows above.
        let tail = cells as usize % 64;
        let tail_mask = if tail == 0 {
            u64::MAX
        } else {
            (1u64 << tail) - 1
        };
        let mut bits = Vec::with_capacity(MICRO_REPORTS * words);
        for _ in 0..MICRO_REPORTS {
            for w in 0..words {
                let word: u64 = rng.random();
                bits.push(if w + 1 == words {
                    word & tail_mask
                } else {
                    word
                });
            }
        }
        let mut acc = vec![0u64; cells as usize];

        bench.time(format!("fold_grr_{cells}c_naive"), unit, || {
            naive_fold_grr(&mut acc, cells, &grr)
        });
        bench.time(format!("fold_grr_{cells}c_scalar"), unit, || {
            fold_grr_checked_with(Backend::Scalar, &mut acc, cells, &grr).unwrap()
        });
        bench.time(format!("fold_grr_{cells}c_dispatch"), unit, || {
            fold_grr_checked(&mut acc, cells, &grr).unwrap()
        });
        bench.time(format!("fold_oue_{cells}c_naive"), unit, || {
            naive_fold_oue(&mut acc, words, &bits)
        });
        bench.time(format!("fold_oue_{cells}c_scalar"), unit, || {
            fold_oue_with(Backend::Scalar, &mut acc, words, &bits)
        });
        bench.time(format!("fold_oue_{cells}c_dispatch"), unit, || {
            fold_oue(&mut acc, words, &bits)
        });
    }
}

fn main() {
    let mut bench = Bench::new("ldp_ingest");
    let unit = Unit::PerSec("reports", BATCHES_PER_PASS * REPORTS_PER_BATCH);
    for (cols, grid_rows) in GRIDS {
        let cells = (cols * grid_rows) as u32;
        let service = Arc::new(collecting(cols, grid_rows));
        let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        for variant in VARIANTS {
            let batches = pass_batches(cells, variant.oracle);
            let mut client = TcpClient::connect(addr).expect("connect");
            let label = format!("{}x{}_{}", cols, grid_rows, variant.tag);
            bench.time(label, unit, || {
                pass(&mut client, &batches, variant.pipelined)
            });
        }
        server.shutdown();
    }
    fold_rows(&mut bench);
    bench.write();
}
