//! Multi-release serving throughput — the acceptance benchmark of the
//! `dpgrid-serve` engine.
//!
//! Builds three releases (two lattice-path uniform grids and one
//! two-level adaptive grid) over the 100k-point landmark dataset,
//! loads them into a `QueryEngine`, and measures end-to-end batched
//! throughput (queries/sec across `answer_batch`) under the axes that
//! matter for serving:
//!
//! * **cold vs warm cache** — the first batch pays the per-release
//!   surface compilations, every later batch runs off the LRU;
//! * **1 vs N worker threads** — the pinned sequential baseline
//!   against scoped-thread sharding (the fingerprint's `parallelism`
//!   says how many hardware threads the measuring machine actually
//!   had; worker scaling is necessarily flat on a 1-CPU box).
//!
//! Each batch holds 2 requests of 2,048 rectangles per release (12,288
//! rects), and every row is in queries (rects) per second.

use std::hint::black_box;

use dpgrid_bench::{bench_dataset, bench_rng, Bench, Unit};
use dpgrid_core::{AdaptiveGrid, AgConfig, Release, UgConfig, UniformGrid};
use dpgrid_geo::{available_parallelism, Rect};
use dpgrid_serve::{Catalog, QueryEngine, QueryRequest};
use rand::Rng;

const N: usize = 100_000;
const EPS: f64 = 1.0;
/// Requests per release per batch.
const REQUESTS_PER_RELEASE: usize = 2;
/// Rectangles per request.
const RECTS_PER_REQUEST: usize = 2_048;

/// The three served releases — left uncompiled so cold runs can clone
/// genuinely cold copies (clones share a compiled surface, so masters
/// must never compile).
fn master_releases() -> Vec<(String, Release)> {
    let dataset = bench_dataset(N);
    let mut rng = bench_rng();
    let mut out = Vec::new();
    for m in [128usize, 512] {
        let ug = UniformGrid::build(&dataset, &UgConfig::fixed(EPS, m), &mut rng).unwrap();
        out.push((format!("ug_m{m}"), Release::from_synopsis("UG", &ug)));
    }
    let ag = AdaptiveGrid::build(&dataset, &AgConfig::guideline(EPS), &mut rng).unwrap();
    out.push(("ag_guideline".into(), Release::from_synopsis("AG", &ag)));
    out
}

/// A mixed batch over the landmark domain `[-130, -70] × [10, 50]`:
/// mostly mid-size windows plus spanning and sliver queries.
fn batch(keys: &[String]) -> Vec<QueryRequest> {
    let mut rng = bench_rng();
    let mut requests = Vec::new();
    for key in keys {
        for _ in 0..REQUESTS_PER_RELEASE {
            let rects: Vec<Rect> = (0..RECTS_PER_REQUEST)
                .map(|i| match i % 16 {
                    0 => Rect::new(-130.0, 10.0, -70.0, 50.0).unwrap(),
                    1 => Rect::new(-100.1, 10.0, -99.9, 50.0).unwrap(),
                    _ => {
                        let x = rng.random_range(-130.0..-75.0);
                        let y = rng.random_range(10.0..46.0);
                        let w = rng.random_range(0.5..5.0);
                        let h = rng.random_range(0.5..4.0);
                        Rect::new(x, y, x + w, y + h).unwrap()
                    }
                })
                .collect();
            requests.push(QueryRequest::new(key.clone(), rects));
        }
    }
    requests
}

/// A fresh engine over cold clones of the master releases.
fn cold_engine(masters: &[(String, Release)], workers: usize) -> QueryEngine {
    let mut catalog = Catalog::new();
    for (key, release) in masters {
        assert!(!release.surface_is_compiled(), "master must stay cold");
        catalog.insert(key.clone(), release.clone());
    }
    QueryEngine::new(catalog).with_workers(workers)
}

/// One full batch pass.
fn pass(engine: &QueryEngine, requests: &[QueryRequest]) {
    for response in engine.answer_batch(requests) {
        black_box(response.expect("all keys known"));
    }
}

fn main() {
    let parallelism = available_parallelism();
    let masters = master_releases();
    let keys: Vec<String> = masters.iter().map(|(k, _)| k.clone()).collect();
    let requests = batch(&keys);
    let rects = Unit::PerSec("queries", requests.iter().map(|r| r.rects.len()).sum());
    let mut bench = Bench::new("serve_throughput");

    // Cold: every pass compiles all three surfaces from fresh clones.
    for workers in [1usize, parallelism.max(2)] {
        bench.time_with_setup(
            format!("cold_w{workers}"),
            rects,
            || cold_engine(&masters, workers),
            |engine| {
                pass(&engine, &requests);
                engine
            },
        );
    }

    // Warm: surfaces resident, 1 worker vs scoped-thread sharding vs
    // the adaptive policy (workers = 0). Dedup so a low-core machine
    // does not measure the same width twice.
    let mut worker_settings = vec![1usize, 2, parallelism.max(2), 0];
    worker_settings.dedup();
    for workers in worker_settings {
        let engine = cold_engine(&masters, workers);
        let label = if workers == 0 {
            "warm_adaptive".to_string()
        } else {
            format!("warm_w{workers}")
        };
        bench.time(label, rects, || pass(&engine, &requests));
    }
    bench.write();
}
