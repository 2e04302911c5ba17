//! Cross-backend guarantees of the kernel layer, observed from the
//! workspace surface:
//!
//! 1. the dispatcher's choice is observable (in-process, per
//!    collector, and in `EngineStats` JSON) and matches the
//!    environment — the CI forced-scalar leg runs this same test with
//!    `DPGRID_FORCE_SCALAR=1` and asserts the fallback is really live;
//! 2. a same-seed LDP epoch publishes a **byte-identical** release
//!    whichever backend folds and seals it: the full collector
//!    pipeline's JSON equals a replica computed with each backend
//!    pinned explicitly.

use dpgrid::kernels::{self, Backend};
use dpgrid::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn forced_scalar() -> bool {
    std::env::var("DPGRID_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn dispatcher_choice_is_observable_everywhere() {
    let expect = Backend::select(forced_scalar(), kernels::avx2_available()).name();
    // In-process.
    assert_eq!(kernels::active_backend(), expect);
    // Per collector.
    let collector = ReportCollector::new(
        CollectorConfig::new(
            "obsv",
            Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap(),
            4,
            4,
            BudgetSchedule::uniform(1.0, 2).unwrap(),
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(collector.kernel_backend(), expect);
    // In the engine's stats, and through their JSON encoding — the
    // form an operator actually reads over the wire.
    let stats = QueryEngine::new(Catalog::new()).stats();
    assert_eq!(stats.kernel_backend.map(|b| b.name()), Some(expect));
    let json = serde_json::to_string(&stats).unwrap();
    assert!(json.contains("kernel_backend"), "{json}");
}

/// One epoch of deterministic GRR + OUE traffic over a 10×10 grid
/// (100 cells → a tail-bit domain, 2 words with 28 dead bits).
fn epoch_traffic(epsilon: f64) -> (Vec<u32>, u32, Vec<u64>) {
    let grr = Grr::new(100, epsilon).unwrap();
    let oue = Oue::new(100, epsilon).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut grr_reports = Vec::new();
    let mut oue_bits = Vec::new();
    let mut oue_count = 0u32;
    for i in 0..400usize {
        let truth = (i * 7) % 100;
        match grr.perturb(truth, &mut rng).unwrap() {
            LocalReport::Cell(c) => grr_reports.push(c),
            other => panic!("GRR perturbs to a cell, got {other:?}"),
        }
        match oue.perturb(truth, &mut rng).unwrap() {
            LocalReport::Bits(words) => {
                oue_count += 1;
                oue_bits.extend_from_slice(&words);
            }
            other => panic!("OUE perturbs to bits, got {other:?}"),
        }
    }
    (grr_reports, oue_count, oue_bits)
}

/// Replays the collector's fold + seal arithmetic with every kernel
/// call pinned to `backend`, returning the release JSON.
fn seal_with_backend(
    backend: Backend,
    domain: Domain,
    epsilon: f64,
    grr_reports: &[u32],
    oue_count: u32,
    oue_bits: &[u64],
) -> Vec<u8> {
    let grr = Grr::new(100, epsilon).unwrap();
    let oue = Oue::new(100, epsilon).unwrap();

    let mut grr_acc = vec![0u64; 100];
    kernels::fold_grr_checked_with(backend, &mut grr_acc, 100, grr_reports).unwrap();
    let mut oue_acc = vec![0u64; 100];
    kernels::fold_oue_with(backend, &mut oue_acc, 2, oue_bits);

    // The oracles' debias: (tally − n·q) / (p − q), element-wise.
    let mut grr_est = vec![0.0; 100];
    let n = grr_reports.len() as f64;
    kernels::affine_u64_with(
        backend,
        &mut grr_est,
        &grr_acc,
        n * grr.q(),
        1.0 / (grr.p() - grr.q()),
    );
    let mut oue_est = vec![0.0; 100];
    let n = oue_count as f64;
    kernels::affine_u64_with(
        backend,
        &mut oue_est,
        &oue_acc,
        n * oue.q(),
        1.0 / (oue.p() - oue.q()),
    );

    let mut cells = Vec::with_capacity(100);
    for row in 0..10 {
        for col in 0..10 {
            let i = row * 10 + col;
            let rect = domain.cell_rect(10, 10, col, row);
            cells.push((rect, grr_est[i] + oue_est[i]));
        }
    }
    let metadata = ReleaseMetadata::legacy("ldp-10x10-grr+oue", epsilon).local();
    let release = Release::from_parts_with_metadata(metadata, epsilon, domain, cells).unwrap();
    let mut json = Vec::new();
    release.write_json(&mut json).unwrap();
    json
}

#[test]
fn same_seed_releases_are_byte_identical_across_backends() {
    let domain = Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap();
    let schedule = BudgetSchedule::uniform(2.0, 2).unwrap();
    let mut collector =
        ReportCollector::new(CollectorConfig::new("taxi", domain, 10, 10, schedule).unwrap())
            .unwrap();
    let epsilon = collector.open_epsilon().unwrap();
    let (grr_reports, oue_count, oue_bits) = epoch_traffic(epsilon);

    collector
        .submit(&ReportBatch {
            keyspace: "taxi".into(),
            epoch: 0,
            epsilon,
            cells: 100,
            payload: ReportPayload::Grr(grr_reports.clone()),
        })
        .unwrap();
    collector
        .submit(&ReportBatch {
            keyspace: "taxi".into(),
            epoch: 0,
            epsilon,
            cells: 100,
            payload: ReportPayload::Oue {
                count: oue_count,
                bits: oue_bits.clone(),
            },
        })
        .unwrap();
    let mut sink = Vec::new();
    collector.publish_open_epoch(&mut sink).unwrap();
    let mut published = Vec::new();
    sink[0].1.write_json(&mut published).unwrap();

    // The collector ran whatever backend this process dispatched;
    // both pinned backends must reproduce its bytes exactly.
    let scalar = seal_with_backend(
        Backend::Scalar,
        domain,
        epsilon,
        &grr_reports,
        oue_count,
        &oue_bits,
    );
    assert_eq!(
        published, scalar,
        "scalar-sealed release differs from the published bytes"
    );
    if kernels::avx2_available() {
        let avx2 = seal_with_backend(
            Backend::Avx2,
            domain,
            epsilon,
            &grr_reports,
            oue_count,
            &oue_bits,
        );
        assert_eq!(
            published, avx2,
            "avx2-sealed release differs from the published bytes"
        );
    }
}

#[test]
fn aligned_release_merges_are_byte_identical_across_backends() {
    // merge_releases' aligned fast path runs the add_assign kernel;
    // the merged bytes must not depend on the backend. The dispatched
    // merge is compared against a scalar reference computed by hand in
    // the same order.
    let domain = Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap();
    let make = |seed: f64| {
        let cells: Vec<_> = (0..16)
            .map(|i| {
                let (col, row) = (i % 4, i / 4);
                let rect = domain.cell_rect(4, 4, col, row);
                (rect, seed * (i as f64 + 0.25) - 3.0)
            })
            .collect();
        Release::from_parts_with_metadata(ReleaseMetadata::legacy("m", 0.5), 0.5, domain, cells)
            .unwrap()
    };
    let (a, b, c) = (make(1.5), make(2.5), make(0.125));
    let merged = merge_releases("tier", &[&a, &b, &c]).unwrap();
    for (i, (_, v)) in merged.cells().iter().enumerate() {
        let want = a.cells()[i].1 + b.cells()[i].1 + c.cells()[i].1;
        assert_eq!(v.to_bits(), want.to_bits(), "cell {i}");
    }
}
