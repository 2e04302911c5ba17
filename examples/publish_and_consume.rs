//! Two-party workflow: a data owner publishes a DP release file; an
//! analyst who never sees the raw data loads it and works with it.
//!
//! ```sh
//! cargo run --release --example publish_and_consume
//! ```
//!
//! It is also a check of the served AG path end to end: every answer
//! from the loaded release's compiled surface must match the linear
//! scan over its cells within 1e-9 · (1 + |scan|), or the run fails.

use dpgrid::core::{synthetic, Release};
use dpgrid::prelude::*;
use rand::SeedableRng;

/// Panics unless the compiled-surface `answer` to `query` matches the
/// release's linear scan.
fn assert_matches_scan(release: &Release, query: &Rect, answer: f64) {
    let scan = release.answer_linear_scan(query);
    assert!(
        (answer - scan).abs() <= 1e-9 * (1.0 + scan.abs()),
        "{query:?}: compiled surface {answer} vs linear scan {scan}"
    );
}

fn main() {
    let path = std::env::temp_dir().join("dpgrid_demo_release.json");

    // ---------------- data owner side ----------------
    {
        let private_data = PaperDataset::Checkin
            .generate_n(99, 150_000)
            .expect("generate dataset");
        // One fluent chain: pick the method from the registry, spend
        // ε = 1, publish. (Unseeded: a production release must draw
        // unpredictable noise.)
        let release = Pipeline::new(&private_data)
            .epsilon(1.0)
            .method(Method::ag_suggested())
            .publish()
            .expect("publish AG");
        release.save(&path).expect("save release");
        println!(
            "owner: published `{}` — {} cells ({} bytes) consuming ε = {}",
            release.method(),
            release.cell_count(),
            std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
            release.epsilon(),
        );
        // The raw data never leaves this scope.
    }

    // ---------------- analyst side ----------------
    {
        let release = Release::load(&path).expect("load release");
        println!(
            "analyst: loaded release from method `{}` over a {:.0} x {:.0} domain",
            release.method(),
            release.domain().width(),
            release.domain().height()
        );
        // The typed metadata says exactly how it was produced — the
        // declarative method and the guideline-resolved parameters.
        println!(
            "analyst: declarative method {:?}, resolved {:?}",
            release.metadata().method,
            release.metadata().resolved
        );

        // Ask questions directly. The first answer compiles the cells
        // into a query surface; every answer after that is O(log cells).
        let europe = Rect::new(-10.0, 36.0, 30.0, 60.0).unwrap();
        let na = Rect::new(-125.0, 25.0, -65.0, 55.0).unwrap();
        println!(
            "analyst: estimated check-ins — Europe {:.0}, North America {:.0}",
            release.answer(&europe),
            release.answer(&na)
        );
        for region in [europe, na] {
            assert_matches_scan(&release, &region, release.answer(&region));
        }
        println!(
            "analyst: release compiled to {:?} over {} cells",
            release.surface().kind(),
            release.cell_count()
        );

        // Serving-style batch: a whole dashboard of tiles in one call,
        // chunked across threads by the compiled surface.
        let d = *release.domain().rect();
        let tiles: Vec<Rect> = (0..40)
            .flat_map(|i| (0..20).map(move |j| d.grid_cell(40, 20, i, j)))
            .collect();
        let estimates = release.answer_all(&tiles);
        for (tile, &estimate) in tiles.iter().zip(&estimates) {
            assert_matches_scan(&release, tile, estimate);
        }
        let busiest = estimates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "analyst: answered {} dashboard tiles in one batch, each equal to the linear scan; \
             busiest tile ≈ {:.0} check-ins",
            tiles.len(),
            busiest
        );

        // ...or regenerate a synthetic dataset for tools that need points.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let synth = synthetic::synthesize(&release, 25_000, &mut rng).expect("synthesize");
        let synth_europe = synth.count_in(&europe) as f64 / synth.len() as f64;
        let est_europe = release.answer(&europe) / release.total_estimate();
        println!(
            "analyst: Europe share — synthetic {:.1}% vs release {:.1}%",
            synth_europe * 100.0,
            est_europe * 100.0
        );
    }

    let _ = std::fs::remove_file(&path);
}
