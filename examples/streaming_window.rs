//! The temporal loop end to end: ingest a timestamped point stream,
//! let epochs close into per-epoch DP releases under a budget
//! schedule, compact the oldest tier, and answer sliding-window
//! queries — checking every windowed answer against the per-epoch
//! sums it must equal.
//!
//! ```sh
//! cargo run --release --example streaming_window
//! ```

use dpgrid::core::{merge_releases, EpochLayout, EpochRange};
use dpgrid::prelude::*;
use dpgrid::stream::{Compactor, StreamIngestor};
use std::collections::BTreeMap;

fn main() {
    // 1. A stream ingestor: one-minute epochs, a total budget of
    //    ε = 1 split uniformly over an 8-epoch horizon, publishing
    //    into a serving catalog as epochs close.
    let domain = Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap();
    let layout = EpochLayout::new(0.0, 60.0).unwrap();
    let schedule = BudgetSchedule::uniform(1.0, 8).unwrap();
    let mut catalog = Catalog::new();
    let mut ingestor = StreamIngestor::new("taxi", domain, layout, schedule)
        .expect("keyspace is non-empty")
        .with_seed(7);

    // 2. Ingest six epochs of timestamped points. The event-time
    //    watermark seals each epoch as the next one starts; each seal
    //    spends that epoch's ε share and publishes one release under
    //    the key `taxi@epoch:{i}`.
    for epoch in 0..6u64 {
        for i in 0..200u64 {
            let x = 0.05 + ((i as f64 * 7.3 + epoch as f64 * 1.7) % 9.9);
            let y = 0.05 + ((i as f64 * 3.1 + epoch as f64 * 4.9) % 9.9);
            let t = epoch as f64 * 60.0 + (i % 59) as f64;
            for receipt in ingestor
                .push(Point::new(x, y), t, &mut catalog)
                .expect("in-order points ingest cleanly")
            {
                println!(
                    "sealed epoch {:>2} -> {} (ε = {:.4}, {} points)",
                    receipt.epoch, receipt.key, receipt.epsilon, receipt.points
                );
            }
        }
    }
    // Flush the final epoch (nothing later will advance the watermark).
    for receipt in ingestor.flush(&mut catalog).expect("flush publishes") {
        println!(
            "flushed epoch {:>2} -> {} (ε = {:.4}, {} points)",
            receipt.epoch, receipt.key, receipt.epsilon, receipt.points
        );
    }
    let fine: BTreeMap<u64, Release> = ingestor.retained_fine().clone();
    let spent = ingestor.schedule().spent();
    println!(
        "published {} epochs, ledger ε = {spent:.4} of {:.4}\n",
        fine.len(),
        ingestor.schedule().total()
    );

    // 3. Windowed queries against the serving engine equal the sums of
    //    the per-epoch surfaces they cover — post-processing, exact.
    let engine = QueryEngine::new(catalog);
    let rect = Rect::new(1.25, 2.5, 7.75, 8.5).unwrap();
    for (start, end) in [(0u64, 6u64), (1, 4), (4, 5)] {
        let query = WindowQuery::new("taxi", start, end, vec![rect]).expect("non-empty window");
        let answer = answer_window(&engine, &query).expect("window is covered");
        let reference: f64 = (start..end).map(|e| fine[&e].answer(&rect)).sum();
        assert!((answer.answers[0] - reference).abs() <= 1e-9 * (1.0 + reference.abs()));
        println!(
            "window [{start},{end}): {:>9.3} == Σ per-epoch {:>9.3}  (covered {:?})",
            answer.answers[0],
            reference,
            answer
                .covered
                .iter()
                .map(|r| format!("[{},{})", r.start, r.end))
                .collect::<Vec<_>>()
        );
    }

    // 4. Compact the oldest epochs into a coarser tier (privacy-free:
    //    merging released surfaces is post-processing) and show the
    //    window still answering — coverage visibly widens to the tier.
    let tiers = Compactor::new(2, 3)
        .expect("tier length ≥ 2")
        .compact(&mut ingestor, &mut &engine)
        .expect("compaction publishes before evicting");
    for tier in &tiers {
        println!(
            "\ncompacted epochs {:?} -> {} (ε = {:.4})",
            tier.epochs, tier.key, tier.epsilon
        );
    }
    let merged = merge_releases("reference", &[&fine[&0], &fine[&1]]).unwrap();
    let query = WindowQuery::new("taxi", 1, 3, vec![rect]).expect("non-empty window");
    let answer = answer_window(&engine, &query).expect("tier covers the window");
    let reference = merged.answer(&rect) + fine[&2].answer(&rect);
    assert!((answer.answers[0] - reference).abs() <= 1e-9 * (1.0 + reference.abs()));
    assert_eq!(
        answer.covered,
        vec![EpochRange::new(0, 2).unwrap(), EpochRange::single(2)]
    );
    println!(
        "window [1,3) after compaction: {:>9.3} == merged tier + epoch 2 {:>9.3}",
        answer.answers[0], reference
    );
}
