//! Temporal subsystem throughput — the acceptance benchmark of
//! `dpgrid-stream` and the windowed read path.
//!
//! Three axes, matching how the subsystem is deployed:
//!
//! * **ingest points/sec** — staging throughput of
//!   `StreamIngestor::push` over 200,000 points with the watermark held
//!   inside one epoch (no seals), the hot path every arriving point
//!   takes;
//! * **epoch-close latency** — the milliseconds one seal costs
//!   (`seal_through`: grid build + noise + publish) at 10k, 50k and
//!   200k staged points;
//! * **windowed vs single-release query rate** — `answer_window`
//!   fanning one batch of 1,024 rectangles over 8 epoch surfaces
//!   (20,000 points each), against the same rectangles answered on a
//!   single release — the read-side price of epoch slicing. Their
//!   ratio is `window_8_epochs / single_release`.

use dpgrid_bench::{Bench, Unit};
use dpgrid_core::{EpochLayout, Release};
use dpgrid_geo::{Domain, Point, Rect};
use dpgrid_mech::BudgetSchedule;
use dpgrid_serve::{answer_window, Catalog, QueryEngine, QueryRequest, WindowQuery};
use dpgrid_stream::StreamIngestor;

const EPS: f64 = 1.0;
/// Epochs published into the windowed read-path engine.
const EPOCHS: u64 = 8;
/// Rectangles per measured query batch.
const RECTS: usize = 1_024;

fn domain() -> Domain {
    Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap()
}

fn ingestor(horizon: usize) -> StreamIngestor {
    StreamIngestor::new(
        "bench",
        domain(),
        EpochLayout::new(0.0, 60.0).unwrap(),
        BudgetSchedule::uniform(EPS, horizon).unwrap(),
    )
    .unwrap()
    .with_seed(7)
    .with_epoch_capacity(1 << 22)
}

/// Deterministic in-domain points, cheap enough to not dominate push.
fn point(i: u64) -> Point {
    Point::new(
        0.05 + ((i as f64) * 7.3) % 9.9,
        0.05 + ((i as f64) * 3.1) % 9.9,
    )
}

fn main() {
    let mut bench = Bench::new("stream_throughput");

    // --- Ingest: staging throughput, no seals (all timestamps land in
    // one epoch; the sink never sees a release).
    const BATCH: u64 = 200_000;
    bench.time_with_setup(
        "ingest",
        Unit::PerSec("points", BATCH as usize),
        || ingestor(4),
        |mut ing| {
            let mut sink: Vec<(String, Release)> = Vec::new();
            for i in 0..BATCH {
                let ts = (i % 59) as f64;
                ing.push(point(i), ts, &mut sink).unwrap();
            }
            assert!(sink.is_empty(), "no epoch may seal mid-measurement");
            ing
        },
    );

    // --- Epoch close: seal latency at three staged sizes.
    for staged in [10_000u64, 50_000, 200_000] {
        bench.time_with_setup(
            format!("epoch_close_{staged}"),
            Unit::Ms,
            || {
                let mut ing = ingestor(4);
                let mut sink: Vec<(String, Release)> = Vec::new();
                for i in 0..staged {
                    ing.push(point(i), (i % 59) as f64, &mut sink).unwrap();
                }
                (ing, sink)
            },
            |(mut ing, mut sink)| {
                let sealed = ing.seal_through(0, &mut sink).unwrap();
                assert_eq!(sealed.len(), 1);
                assert_eq!(sealed[0].points, staged as usize);
                (ing, sink)
            },
        );
    }

    // --- Read path: windowed vs single-release query rate over the
    // same rectangles, surfaces warm in both cases.
    let mut catalog = Catalog::new();
    let mut ing = ingestor(EPOCHS as usize);
    for epoch in 0..EPOCHS {
        for i in 0..20_000u64 {
            ing.push(
                point(i ^ epoch),
                epoch as f64 * 60.0 + (i % 59) as f64,
                &mut catalog,
            )
            .unwrap();
        }
    }
    ing.flush(&mut catalog).unwrap();
    let engine = QueryEngine::new(catalog);
    let rects: Vec<Rect> = (0..RECTS)
        .map(|i| {
            let x = (i as f64 * 0.37) % 8.0;
            let y = (i as f64 * 0.73) % 8.0;
            Rect::new(x, y, x + 1.5, y + 1.5).unwrap()
        })
        .collect();
    let unit = Unit::PerSec("queries", RECTS);

    let window = WindowQuery::new("bench", 0, EPOCHS, rects.clone()).unwrap();
    bench.time(format!("window_{EPOCHS}_epochs"), unit, || {
        answer_window(&engine, &window).unwrap()
    });
    let single = QueryRequest::new("bench@epoch:0", rects);
    bench.time("single_release", unit, || engine.answer(&single).unwrap());
    bench.write();
}
