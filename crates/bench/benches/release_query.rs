//! Linear-scan vs compiled-surface `Release` answering across release
//! sizes and all three index paths — the acceptance benchmark of the
//! compiled query surface.
//!
//! Builds UG releases at ~1k / 64k / 1M cells (lattice), an AG release
//! at its guideline size (two-level index: a coarse lattice of per-cell
//! lattices) and a KD-standard release (cut tree: the KD splits rebuilt
//! from the leaf list), all at ε = 1 over the 100k-point landmark
//! dataset. Each release gets three rows:
//! `<release>/linear` (`Release::answer_linear_scan`, the O(cells)
//! reference) and `<release>/compiled` (`Release::answer`), both in ns
//! per query over a mixed six-query workload, and `<release>/compile`,
//! the milliseconds one fresh compile of the surface takes.
//!
//! The AG release also gets one row per query class from q1 to q3 and
//! for q6, `ag_guideline/q1` to `ag_guideline/q6`: ns per query over
//! 1,000 rects of that class, landmark's q1 size scaled by
//! 2^(class − 1) and placed uniformly in the domain. A two-level answer
//! costs a few strip lookups and corner slots whatever the rect's size,
//! except that a run of rim slots shorter than half its strip's groups
//! is answered slot by slot: q1 to q3 are the classes with short runs.
//!
//! The KD release gets `kd_standard/q1` and `kd_standard/q6` over the
//! same rects: a cut-tree answer visits the nodes along the rect's rim,
//! so the smallest and the largest class bound its cost.

use std::hint::black_box;

use dpgrid_baselines::{KdConfig, KdStandard};
use dpgrid_bench::{bench_dataset, bench_rng, Bench, Unit};
use dpgrid_core::{AdaptiveGrid, AgConfig, Release, Synopsis, UgConfig, UniformGrid};
use dpgrid_geo::generators::PaperDataset;
use dpgrid_geo::Rect;
use rand::Rng;

const N: usize = 100_000;
const EPS: f64 = 1.0;
const RECTS_PER_CLASS: usize = 1_000;

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

/// [`RECTS_PER_CLASS`] rects of query class `class` (1 to 6) inside
/// `domain`: landmark's q1 extents doubled `class − 1` times.
fn class_rects(domain: &Rect, class: u32) -> Vec<Rect> {
    let (w1, h1) = PaperDataset::Landmark.q1_size();
    let scale = f64::from(1u32 << (class - 1));
    let (w, h) = (
        (w1 * scale).min(domain.width()),
        (h1 * scale).min(domain.height()),
    );
    let mut rng = bench_rng();
    (0..RECTS_PER_CLASS)
        .map(|_| {
            let x0 = rng.random_range(domain.x0()..=domain.x1() - w);
            let y0 = rng.random_range(domain.y0()..=domain.y1() - h);
            Rect::new(x0, y0, x0 + w, y0 + h).unwrap()
        })
        .collect()
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

fn main() {
    let queries = workload();
    let per_query = Unit::NsPer("query", queries.len());
    let mut bench = Bench::new("release_query");
    let releases = releases();
    for (label, release) in &releases {
        bench.time(format!("{label}/linear"), per_query, || {
            queries
                .iter()
                .map(|q| release.answer_linear_scan(black_box(q)))
                .sum::<f64>()
        });
        bench.time(format!("{label}/compiled"), per_query, || {
            queries
                .iter()
                .map(|q| release.answer(black_box(q)))
                .sum::<f64>()
        });
        bench.time_with_setup(
            format!("{label}/compile"),
            Unit::Ms,
            || {
                let mut fresh = release.clone();
                fresh.evict_surface();
                fresh
            },
            |fresh| {
                fresh.surface();
                fresh
            },
        );
    }
    for (label, classes) in [
        ("ag_guideline", &[1, 2, 3, 6][..]),
        ("kd_standard", &[1, 6]),
    ] {
        let (_, release) = (releases.iter())
            .find(|(l, _)| l == label)
            .expect("the release is built");
        for &class in classes {
            let rects = class_rects(release.domain().rect(), class);
            let per_rect = Unit::NsPer("query", rects.len());
            bench.time(format!("{label}/q{class}"), per_rect, || {
                rects
                    .iter()
                    .map(|q| release.answer(black_box(q)))
                    .sum::<f64>()
            });
        }
    }
    bench.write();
}
