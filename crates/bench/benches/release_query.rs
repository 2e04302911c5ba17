//! Linear-scan vs compiled-surface `Release` answering across release
//! sizes and all three index paths — the acceptance benchmark of the
//! compiled query surface.
//!
//! Builds UG releases at ~1k / 64k / 1M cells (lattice), an AG release
//! at its guideline size (two-level index: a coarse lattice of per-cell
//! lattices) and a KD-standard release (band index). For each it times
//! a mixed query workload through `Release::answer` (compiled) and
//! `Release::answer_linear_scan` (the O(cells) reference), times a
//! fresh compile, and records the medians to `BENCH_release_query.json`
//! at the workspace root so the perf trajectory is tracked in-repo.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use dpgrid_baselines::{KdConfig, KdStandard};
use dpgrid_bench::{bench_dataset, bench_rng};
use dpgrid_core::{AdaptiveGrid, AgConfig, Release, Synopsis, UgConfig, UniformGrid};
use dpgrid_geo::Rect;

const N: usize = 100_000;
const EPS: f64 = 1.0;

/// Mixed workload over the landmark domain `[-130, -70] × [10, 50]`:
/// spanning, mid, small and sliver queries.
fn workload() -> Vec<Rect> {
    vec![
        Rect::new(-130.0, 10.0, -70.0, 50.0).unwrap(),
        Rect::new(-125.0, 12.0, -85.0, 32.0).unwrap(),
        Rect::new(-110.0, 25.0, -100.0, 30.0).unwrap(),
        Rect::new(-96.0, 33.0, -95.0, 34.0).unwrap(),
        Rect::new(-100.1, 10.0, -99.9, 50.0).unwrap(),
        Rect::new(-130.0, 29.9, -70.0, 30.1).unwrap(),
    ]
}

/// Median nanoseconds per call of `f` over the workload, with warmup.
fn measure_ns(queries: &[Rect], mut f: impl FnMut(&Rect) -> f64) -> f64 {
    // Warmup (also forces lazy compilation outside the timed region).
    for q in queries {
        black_box(f(q));
    }
    let mut samples = Vec::new();
    let budget = std::time::Duration::from_millis(300);
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        let t = Instant::now();
        for q in queries {
            black_box(f(q));
        }
        samples.push(t.elapsed().as_nanos() as f64 / queries.len() as f64);
        if samples.len() >= 100 {
            break;
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median milliseconds to compile a fresh clone of `release`.
fn compile_ms(release: &Release) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut fresh = release.clone();
            fresh.evict_surface();
            let t = Instant::now();
            black_box(fresh.surface());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Row {
    label: String,
    cells: usize,
    kind: String,
    linear_ns: f64,
    compiled_ns: f64,
    compile_ms: f64,
}

fn releases() -> Vec<(String, Release)> {
    let dataset = bench_dataset(N);
    let mut rng = bench_rng();
    let mut out = Vec::new();
    for m in [32usize, 256, 1024] {
        let ug = UniformGrid::build(&dataset, &UgConfig::fixed(EPS, m), &mut rng).unwrap();
        out.push((format!("ug_m{m}"), Release::from_synopsis("UG", &ug)));
    }
    let ag = AdaptiveGrid::build(&dataset, &AgConfig::guideline(EPS), &mut rng).unwrap();
    out.push((
        "ag_guideline".to_string(),
        Release::from_synopsis("AG", &ag),
    ));
    let kd = KdStandard::build(&dataset, &KdConfig::new(EPS), &mut rng).unwrap();
    out.push((
        "kd_standard".to_string(),
        Release::from_synopsis("Kst", &kd),
    ));
    out
}

fn bench_release_query(c: &mut Criterion) {
    let queries = workload();
    let mut rows = Vec::new();
    let mut group = c.benchmark_group("release_query");
    for (label, release) in releases() {
        let linear_ns = measure_ns(&queries, |q| release.answer_linear_scan(q));
        let compiled_ns = measure_ns(&queries, |q| release.answer(q));
        let compile_ms = compile_ms(&release);
        // Also register with criterion so the standard bench output
        // carries the same comparison.
        group.bench_function(format!("{label}/linear"), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| release.answer_linear_scan(black_box(q)))
                    .sum::<f64>()
            })
        });
        group.bench_function(format!("{label}/compiled"), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| release.answer(black_box(q)))
                    .sum::<f64>()
            })
        });
        println!(
            "release_query/{label}: {} cells ({:?}), linear {:.0} ns/q, \
             compiled {:.0} ns/q, speedup {:.1}x, compile {:.2} ms",
            release.cell_count(),
            release.surface().kind(),
            linear_ns,
            compiled_ns,
            linear_ns / compiled_ns,
            compile_ms
        );
        rows.push(Row {
            label,
            cells: release.cell_count(),
            kind: format!("{:?}", release.surface().kind()),
            linear_ns,
            compiled_ns,
            compile_ms,
        });
    }
    group.finish();
    write_json(&rows);
}

/// Records the measurements to `BENCH_release_query.json` at the
/// workspace root (perf-trajectory files live in-repo).
fn write_json(rows: &[Row]) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_release_query.json"
    );
    let mut out = String::from(
        "{\n  \"bench\": \"release_query\",\n  \"unit\": \"ns_per_query\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"cells\": {}, \"index\": \"{}\", \
             \"linear_ns\": {:.1}, \"compiled_ns\": {:.1}, \"speedup\": {:.2}, \
             \"compile_ms\": {:.2}}}{}\n",
            r.label,
            r.cells,
            r.kind.replace('"', ""),
            r.linear_ns,
            r.compiled_ns,
            r.linear_ns / r.compiled_ns,
            r.compile_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("release_query: could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_release_query);
criterion_main!(benches);
