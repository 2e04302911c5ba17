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
//!   against scoped-thread sharding (the recorded `parallelism` field
//!   says how many hardware threads the measuring machine actually
//!   had; worker scaling is necessarily flat on a 1-CPU box).
//!
//! Medians are recorded to `BENCH_serve_throughput.json` at the
//! workspace root (same shape as `BENCH_release_query.json`) so the
//! serving perf trajectory is tracked in-repo.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use dpgrid_bench::{bench_dataset, bench_rng};
use dpgrid_core::{AdaptiveGrid, AgConfig, Release, UgConfig, UniformGrid};
use dpgrid_geo::Rect;
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

/// One full batch pass; returns the elapsed nanoseconds.
fn pass_ns(engine: &QueryEngine, requests: &[QueryRequest]) -> f64 {
    let t = Instant::now();
    for response in engine.answer_batch(requests) {
        black_box(response.expect("all keys known"));
    }
    t.elapsed().as_nanos() as f64
}

/// Median nanoseconds per warm pass, within a time budget.
fn measure_warm_ns(engine: &QueryEngine, requests: &[QueryRequest]) -> f64 {
    // Warmup compiles every surface (and pre-faults the answer paths).
    pass_ns(engine, requests);
    let mut samples = Vec::new();
    let budget = std::time::Duration::from_millis(1_500);
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        samples.push(pass_ns(engine, requests));
        if samples.len() >= 60 {
            break;
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Row {
    label: String,
    workers: usize,
    cache: &'static str,
    qps: f64,
    elapsed_ms: f64,
}

fn bench_serve_throughput(c: &mut Criterion) {
    let parallelism = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let masters = master_releases();
    let keys: Vec<String> = masters.iter().map(|(k, _)| k.clone()).collect();
    let requests = batch(&keys);
    let total_rects: usize = requests.iter().map(|r| r.rects.len()).sum();
    let mut rows = Vec::new();

    // Cold: every pass compiles all three surfaces from fresh clones.
    for workers in [1usize, parallelism.max(2)] {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let engine = cold_engine(&masters, workers);
            samples.push(pass_ns(&engine, &requests));
        }
        samples.sort_by(f64::total_cmp);
        let ns = samples[samples.len() / 2];
        rows.push(Row {
            label: format!("cold_w{workers}"),
            workers,
            cache: "cold",
            qps: total_rects as f64 / (ns / 1e9),
            elapsed_ms: ns / 1e6,
        });
    }

    // Warm: surfaces resident, 1 worker vs scoped-thread sharding vs
    // the adaptive policy (workers = 0). Dedup so a low-core machine
    // does not measure the same width twice.
    let mut worker_settings = vec![1usize, 2, parallelism.max(2), 0];
    worker_settings.dedup();
    let mut group = c.benchmark_group("serve_throughput");
    for workers in worker_settings {
        let engine = cold_engine(&masters, workers);
        let ns = measure_warm_ns(&engine, &requests);
        let label = if workers == 0 {
            "warm_adaptive".to_string()
        } else {
            format!("warm_w{workers}")
        };
        group.bench_function(&label, |b| {
            b.iter(|| pass_ns(&engine, &requests));
        });
        rows.push(Row {
            label,
            workers,
            cache: "warm",
            qps: total_rects as f64 / (ns / 1e9),
            elapsed_ms: ns / 1e6,
        });
    }
    group.finish();

    let warm_w1 = rows
        .iter()
        .find(|r| r.label == "warm_w1")
        .map(|r| r.qps)
        .unwrap_or(f64::NAN);
    for r in &rows {
        println!(
            "serve_throughput/{}: {} releases, {} rects/batch, workers {}, \
             {:.1} ms/batch, {:.0} q/s ({:.2}x vs warm_w1)",
            r.label,
            keys.len(),
            total_rects,
            r.workers,
            r.elapsed_ms,
            r.qps,
            r.qps / warm_w1
        );
    }
    write_json(&rows, keys.len(), total_rects, parallelism, warm_w1);
}

/// Records the measurements to `BENCH_serve_throughput.json` at the
/// workspace root (perf-trajectory files live in-repo).
fn write_json(rows: &[Row], releases: usize, rects: usize, parallelism: usize, warm_w1: f64) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve_throughput.json"
    );
    let mut out = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"unit\": \"queries_per_sec\",\n  \
         \"releases\": {releases},\n  \"rects_per_batch\": {rects},\n  \
         \"parallelism\": {parallelism},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"workers\": {}, \"cache\": \"{}\", \
             \"elapsed_ms\": {:.2}, \"qps\": {:.0}, \"speedup_vs_warm_w1\": {:.2}}}{}\n",
            r.label,
            r.workers,
            r.cache,
            r.elapsed_ms,
            r.qps,
            r.qps / warm_w1,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("serve_throughput: could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
