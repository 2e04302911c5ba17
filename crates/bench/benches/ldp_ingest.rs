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
//! GRR rows carry 4-byte reports and measure framing + fold overhead;
//! the `oue` rows ship `⌈cells/64⌉` packed words per report, so their
//! trajectory tracks payload bandwidth. Medians are recorded to
//! `BENCH_ldp_ingest.json` at the workspace root (same shape as the
//! other `BENCH_*.json` trajectory files).
//!
//! A second section measures the fold **in-process** — no socket in
//! the way — comparing the seed's naive folds (per-bit walk for OUE,
//! find-validate + scatter for GRR) against the `dpgrid-kernels`
//! scalar reference and the runtime-dispatched backend, at 64 / 256 /
//! 1024 / 4096 cells. These `micro_rows` isolate the kernel-layer
//! speedup the end-to-end rows ride on.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;

use dpgrid_bench::bench_rng;
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

/// One pass: submit every batch and check its ack. Returns elapsed
/// nanoseconds.
fn pass_ns(client: &mut TcpClient, batches: &[ReportBatch], pipelined: bool) -> f64 {
    let t = Instant::now();
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
    t.elapsed().as_nanos() as f64
}

/// Median nanoseconds per pass within a small time budget.
fn measure_ns(client: &mut TcpClient, batches: &[ReportBatch], pipelined: bool) -> f64 {
    let mut samples = Vec::new();
    let budget = std::time::Duration::from_millis(800);
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        samples.push(pass_ns(client, batches, pipelined));
        if samples.len() >= 40 {
            break;
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Row {
    label: String,
    cells: u32,
    oracle: &'static str,
    protocol: u32,
    pipelined: bool,
    elapsed_ms: f64,
    reports_per_sec: f64,
}

// --- in-process fold microbenchmarks ---------------------------------

/// The micro ladder: the bench grid sizes plus the 4096-cell shape
/// where the naive OUE walk was collapsing.
const MICRO_CELLS: [u32; 4] = [64, 256, 1024, 4096];
/// Reports per measured fold — one TCP pass worth.
const MICRO_REPORTS: usize = BATCHES_PER_PASS * REPORTS_PER_BATCH;

struct MicroRow {
    label: String,
    cells: u32,
    oracle: &'static str,
    backend: &'static str,
    elapsed_ms: f64,
    reports_per_sec: f64,
}

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

/// Median nanoseconds per fold within a small time budget.
fn measure_fold_ns(mut fold: impl FnMut()) -> f64 {
    fold(); // warmup
    let mut samples = Vec::new();
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 9 {
        let t = Instant::now();
        fold();
        samples.push(t.elapsed().as_nanos() as f64);
        if samples.len() >= 400 {
            break;
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn micro_rows() -> Vec<MicroRow> {
    use dpgrid_kernels::{
        fold_grr_checked, fold_grr_checked_with, fold_oue, fold_oue_with, Backend,
    };

    let mut rng = bench_rng();
    let mut rows = Vec::new();
    let mut push = |cells: u32, oracle: &'static str, backend: &'static str, ns: f64| {
        rows.push(MicroRow {
            label: format!("fold_{oracle}_{cells}c_{backend}"),
            cells,
            oracle,
            backend,
            elapsed_ms: ns / 1e6,
            reports_per_sec: MICRO_REPORTS as f64 / (ns / 1e9),
        });
    };
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

        let ns = measure_fold_ns(|| naive_fold_grr(&mut acc, cells, &grr));
        push(cells, "grr", "naive", ns);
        let ns = measure_fold_ns(|| {
            fold_grr_checked_with(Backend::Scalar, &mut acc, cells, &grr).unwrap()
        });
        push(cells, "grr", "scalar", ns);
        let ns = measure_fold_ns(|| fold_grr_checked(&mut acc, cells, &grr).unwrap());
        push(cells, "grr", "dispatch", ns);

        let ns = measure_fold_ns(|| naive_fold_oue(&mut acc, words, &bits));
        push(cells, "oue", "naive", ns);
        let ns = measure_fold_ns(|| fold_oue_with(Backend::Scalar, &mut acc, words, &bits));
        push(cells, "oue", "scalar", ns);
        let ns = measure_fold_ns(|| fold_oue(&mut acc, words, &bits));
        push(cells, "oue", "dispatch", ns);
    }
    rows
}

fn bench_ldp_ingest(c: &mut Criterion) {
    let mut rows: Vec<Row> = Vec::new();
    let mut group = c.benchmark_group("ldp_ingest");
    for (cols, grid_rows) in GRIDS {
        let cells = (cols * grid_rows) as u32;
        let service = Arc::new(collecting(cols, grid_rows));
        let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        for variant in VARIANTS {
            let batches = pass_batches(cells, variant.oracle);
            let mut client = TcpClient::connect(addr).expect("connect");
            let protocol = client.protocol_version().expect("connected");
            pass_ns(&mut client, &batches, variant.pipelined); // warmup
            let label = format!("{}x{}_{}", cols, grid_rows, variant.tag);
            let ns = measure_ns(&mut client, &batches, variant.pipelined);
            group.bench_function(&label, |b| {
                b.iter(|| pass_ns(&mut client, &batches, variant.pipelined));
            });
            let reports = (BATCHES_PER_PASS * REPORTS_PER_BATCH) as f64;
            rows.push(Row {
                label,
                cells,
                oracle: variant.oracle,
                protocol,
                pipelined: variant.pipelined,
                elapsed_ms: ns / 1e6,
                reports_per_sec: reports / (ns / 1e9),
            });
        }
        server.shutdown();
    }
    group.finish();

    let baseline = rows.first().map(|r| r.reports_per_sec).unwrap_or(f64::NAN);
    for r in &rows {
        println!(
            "ldp_ingest/{}: {} cells, proto v{}{}, {} batches x {} reports, \
             {:.2} ms/pass, {:.0} reports/s ({:.2}x vs 8x8_grr_v2)",
            r.label,
            r.cells,
            r.protocol,
            if r.pipelined { " pipelined" } else { "" },
            BATCHES_PER_PASS,
            REPORTS_PER_BATCH,
            r.elapsed_ms,
            r.reports_per_sec,
            r.reports_per_sec / baseline
        );
    }

    let micro = micro_rows();
    for m in &micro {
        // Speedup is against the same shape's naive fold.
        let naive = micro
            .iter()
            .find(|n| n.cells == m.cells && n.oracle == m.oracle && n.backend == "naive")
            .map(|n| n.reports_per_sec)
            .unwrap_or(f64::NAN);
        println!(
            "ldp_ingest/{}: {:.3} ms/fold, {:.0} reports/s ({:.2}x vs naive)",
            m.label,
            m.elapsed_ms,
            m.reports_per_sec,
            m.reports_per_sec / naive
        );
    }
    write_json(&rows, baseline, &micro);
}

/// Records the measurements to `BENCH_ldp_ingest.json` at the
/// workspace root (perf-trajectory files live in-repo).
fn write_json(rows: &[Row], baseline: f64, micro: &[MicroRow]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ldp_ingest.json");
    let mut out = format!(
        "{{\n  \"bench\": \"ldp_ingest\",\n  \"unit\": \"reports_per_sec\",\n  \
         \"transport\": \"tcp_loopback\",\n  \
         \"kernel_backend\": \"{}\",\n  \
         \"reports_per_batch\": {REPORTS_PER_BATCH},\n  \
         \"batches_per_pass\": {BATCHES_PER_PASS},\n  \"rows\": [\n",
        dpgrid_kernels::active_backend()
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"cells\": {}, \"oracle\": \"{}\", \"protocol\": {}, \
             \"pipelined\": {}, \"elapsed_ms\": {:.2}, \"reports_per_sec\": {:.0}, \
             \"speedup_vs_8x8_grr_v2\": {:.2}}}{}\n",
            r.label,
            r.cells,
            r.oracle,
            r.protocol,
            r.pipelined,
            r.elapsed_ms,
            r.reports_per_sec,
            r.reports_per_sec / baseline,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"micro_reports_per_fold\": ");
    out.push_str(&format!("{MICRO_REPORTS},\n  \"micro_rows\": [\n"));
    for (i, m) in micro.iter().enumerate() {
        let naive = micro
            .iter()
            .find(|n| n.cells == m.cells && n.oracle == m.oracle && n.backend == "naive")
            .map(|n| n.reports_per_sec)
            .unwrap_or(f64::NAN);
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"cells\": {}, \"oracle\": \"{}\", \"backend\": \"{}\", \
             \"elapsed_ms\": {:.3}, \"reports_per_sec\": {:.0}, \"speedup_vs_naive\": {:.2}}}{}\n",
            m.label,
            m.cells,
            m.oracle,
            m.backend,
            m.elapsed_ms,
            m.reports_per_sec,
            m.reports_per_sec / naive,
            if i + 1 < micro.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("ldp_ingest: could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_ldp_ingest);
criterion_main!(benches);
