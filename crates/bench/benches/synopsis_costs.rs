//! What the paper's synopses cost to build and to query, and what their
//! substrate costs, all on the 100k-point landmark dataset at ε = 1.
//!
//! * `build/*` — construction per method (§IV-C efficiency claims). The
//!   paper argues UG needs a single pass over the data, AG two passes,
//!   while recursive-partitioning methods pay one pass per tree level
//!   plus expensive split selection. Milliseconds per build; the RNG
//!   setup stays off the clock. An AG builds the index its answers go
//!   through on its first answer, so `build/ag_guideline_first_answer`
//!   times that answer on a fresh AG, in milliseconds too.
//! * `query/<method>/{mid,large}` — one q4-like and one q6-like query on
//!   each prebuilt synopsis: UG and AG answer through summed-area
//!   tables, KD trees descend the decomposition.
//! * `release/*` — the interchange format must be as fast to query as
//!   the producing method: an AG release's compiled surface against its
//!   naive cell scan, per query and over a 1,024-rect batch
//!   (`answer_all`, chunked across threads, vs a sequential map).
//! * `mechanisms/*` and `substrate/*` — noise sampling, transforms,
//!   prefix-sum construction and exact counting.
//! * `ablate/*` — the design choices: AG's constrained inference and
//!   fixed second-level grids, SAT-based vs brute-force answering, and
//!   the noise source.
//!
//! `build/*` and `ablate/{ag_build,noise}/*` rows are in milliseconds
//! per build (or first answer); every other row is in nanoseconds per
//! call.

use std::hint::black_box;

use dpgrid_baselines::{
    wavelet, HierarchicalGrid, HierarchyConfig, KdConfig, KdHybrid, KdStandard, Privelet,
    PriveletConfig,
};
use dpgrid_bench::{bench_dataset, bench_rng, Bench, Unit};
use dpgrid_core::{AdaptiveGrid, AgConfig, NoiseKind, Release, Synopsis, UgConfig, UniformGrid};
use dpgrid_geo::{DenseGrid, GeoDataset, PointIndex, Rect};
use dpgrid_mech::{ExponentialMechanism, GeometricMechanism, Laplace};

const N: usize = 100_000;
const EPS: f64 = 1.0;

/// A q4-like and a q6-like query over the landmark domain
/// `[-130, -70] × [10, 50]`.
fn queries() -> Vec<(&'static str, Rect)> {
    vec![
        ("mid", Rect::new(-110.0, 25.0, -100.0, 30.0).unwrap()),
        ("large", Rect::new(-125.0, 12.0, -85.0, 32.0).unwrap()),
    ]
}

/// Times one seeded build of `build` as row `label`.
fn time_build<S>(
    bench: &mut Bench,
    label: &str,
    mut build: impl FnMut(&mut rand::rngs::StdRng) -> S,
) {
    bench.time_with_setup(label, Unit::Ms, bench_rng, |mut rng| build(&mut rng));
}

fn builds(bench: &mut Bench, dataset: &GeoDataset) {
    time_build(bench, "build/ug_guideline", |rng| {
        UniformGrid::build(dataset, &UgConfig::guideline(EPS), rng).unwrap()
    });
    time_build(bench, "build/ag_guideline", |rng| {
        AdaptiveGrid::build(dataset, &AgConfig::guideline(EPS), rng).unwrap()
    });
    let (_, mid) = queries()[0];
    bench.time_with_setup(
        "build/ag_guideline_first_answer",
        Unit::Ms,
        || AdaptiveGrid::build(dataset, &AgConfig::guideline(EPS), &mut bench_rng()).unwrap(),
        |ag| {
            black_box(ag.answer(&mid));
            ag
        },
    );
    time_build(bench, "build/privelet_256", |rng| {
        Privelet::build(dataset, &PriveletConfig::new(EPS, 256), rng).unwrap()
    });
    time_build(bench, "build/hierarchy_h4_2_base256", |rng| {
        HierarchicalGrid::build(dataset, &HierarchyConfig::new(EPS, 256, 4, 2), rng).unwrap()
    });
    time_build(bench, "build/kd_standard", |rng| {
        KdStandard::build(dataset, &KdConfig::new(EPS), rng).unwrap()
    });
    time_build(bench, "build/kd_hybrid", |rng| {
        KdHybrid::build(dataset, &KdConfig::new(EPS), rng).unwrap()
    });
}

fn queries_per_method(bench: &mut Bench, dataset: &GeoDataset) {
    let mut rng = bench_rng();
    let ug = UniformGrid::build(dataset, &UgConfig::guideline(EPS), &mut rng).unwrap();
    let ag = AdaptiveGrid::build(dataset, &AgConfig::guideline(EPS), &mut rng).unwrap();
    let wav = Privelet::build(dataset, &PriveletConfig::new(EPS, 256), &mut rng).unwrap();
    let kd = KdHybrid::build(dataset, &KdConfig::new(EPS), &mut rng).unwrap();
    for (qname, q) in queries() {
        bench.time(format!("query/ug/{qname}"), Unit::Ns, || {
            ug.answer(black_box(&q))
        });
        bench.time(format!("query/ag/{qname}"), Unit::Ns, || {
            ag.answer(black_box(&q))
        });
        bench.time(format!("query/privelet/{qname}"), Unit::Ns, || {
            wav.answer(black_box(&q))
        });
        bench.time(format!("query/kd_hybrid/{qname}"), Unit::Ns, || {
            kd.answer(black_box(&q))
        });
    }
}

fn release_surface(bench: &mut Bench, dataset: &GeoDataset) {
    let mut rng = bench_rng();
    let ag = AdaptiveGrid::build(dataset, &AgConfig::guideline(EPS), &mut rng).unwrap();
    let release = Release::from_synopsis("AG", &ag);
    release.surface(); // compile outside the timed region
    for (qname, q) in queries() {
        bench.time(format!("release/compiled/{qname}"), Unit::Ns, || {
            release.answer(black_box(&q))
        });
        bench.time(format!("release/linear_scan/{qname}"), Unit::Ns, || {
            release.answer_linear_scan(black_box(&q))
        });
    }

    // Serving-style batch: 1024 mixed-size queries in one answer_all
    // call (chunked across threads) vs a sequential map.
    let domain = *dataset.domain().rect();
    let batch: Vec<Rect> = (0..1024)
        .map(|i| {
            let fx = (i % 32) as f64 / 32.0;
            let fy = (i / 32) as f64 / 32.0;
            let w = domain.width() * (0.01 + 0.2 * fx);
            let h = domain.height() * (0.01 + 0.2 * fy);
            let x0 = domain.x0() + (domain.width() - w) * fx;
            let y0 = domain.y0() + (domain.height() - h) * fy;
            Rect::new(x0, y0, x0 + w, y0 + h).unwrap()
        })
        .collect();
    bench.time("release/batch_1024/answer_all", Unit::Ns, || {
        release.answer_all(black_box(&batch))
    });
    bench.time("release/batch_1024/sequential", Unit::Ns, || {
        batch
            .iter()
            .map(|q| release.answer(q))
            .collect::<Vec<f64>>()
    });
}

fn mechanisms_and_substrate(bench: &mut Bench, dataset: &GeoDataset) {
    let lap = Laplace::new(1.0).unwrap();
    let mut rng = bench_rng();
    bench.time("mechanisms/laplace_sample", Unit::Ns, || {
        lap.sample(&mut rng)
    });

    let geo = GeometricMechanism::new(1.0, 1).unwrap();
    let mut rng = bench_rng();
    bench.time("mechanisms/geometric_sample", Unit::Ns, || {
        geo.sample_noise(&mut rng)
    });

    let mech = ExponentialMechanism::new(1.0, 1.0).unwrap();
    let scores: Vec<f64> = (0..256).map(|i| -((i as f64) - 128.0).abs()).collect();
    let mut rng = bench_rng();
    bench.time("mechanisms/exponential_select_256", Unit::Ns, || {
        mech.select(&scores, &mut rng).unwrap()
    });

    let base: Vec<f64> = (0..256 * 256).map(|i| (i % 17) as f64).collect();
    bench.time("mechanisms/haar_forward_2d_256", Unit::Ns, || {
        let mut m = base.clone();
        wavelet::forward_2d(&mut m, 256, 256).unwrap();
        m
    });

    bench.time("substrate/count_grid_256", Unit::Ns, || {
        DenseGrid::count(dataset, 256, 256).unwrap()
    });
    let grid = DenseGrid::count(dataset, 256, 256).unwrap();
    bench.time("substrate/sat_build_256", Unit::Ns, || grid.sat());
    bench.time("substrate/point_index_build", Unit::Ns, || {
        PointIndex::build(dataset)
    });
    let idx = PointIndex::build(dataset);
    let q = Rect::new(-110.0, 25.0, -90.0, 40.0).unwrap();
    bench.time("substrate/point_index_count", Unit::Ns, || {
        idx.count(black_box(&q))
    });
}

fn ablations(bench: &mut Bench, dataset: &GeoDataset) {
    time_build(bench, "ablate/ag_build/with_ci", |rng| {
        AdaptiveGrid::build(dataset, &AgConfig::guideline(EPS), rng).unwrap()
    });
    time_build(bench, "ablate/ag_build/without_ci", |rng| {
        AdaptiveGrid::build(dataset, &AgConfig::guideline(EPS).without_inference(), rng).unwrap()
    });
    time_build(bench, "ablate/ag_build/fixed_m2_4", |rng| {
        AdaptiveGrid::build(dataset, &AgConfig::guideline(EPS).with_fixed_m2(4), rng).unwrap()
    });

    let mut rng = bench_rng();
    let ug = UniformGrid::build(dataset, &UgConfig::fixed(EPS, 128), &mut rng).unwrap();
    let q = Rect::new(-110.0, 25.0, -90.0, 40.0).unwrap();
    // SAT-backed O(1) interior answering.
    bench.time("ablate/answer/sat_path", Unit::Ns, || {
        ug.answer(black_box(&q))
    });
    // The naive per-cell loop the SAT decomposition replaces.
    let cells = ug.cells();
    bench.time("ablate/answer/bruteforce_cells", Unit::Ns, || {
        cells
            .iter()
            .map(|(rect, v)| v * rect.overlap_fraction(black_box(&q)))
            .sum::<f64>()
    });

    time_build(bench, "ablate/noise/ug_laplace", |rng| {
        UniformGrid::build(dataset, &UgConfig::fixed(EPS, 128), rng).unwrap()
    });
    time_build(bench, "ablate/noise/ug_geometric", |rng| {
        UniformGrid::build(
            dataset,
            &UgConfig::fixed(EPS, 128).with_noise(NoiseKind::Geometric),
            rng,
        )
        .unwrap()
    });
}

fn main() {
    let dataset = bench_dataset(N);
    let mut bench = Bench::new("synopsis_costs");
    builds(&mut bench, &dataset);
    queries_per_method(&mut bench, &dataset);
    release_surface(&mut bench, &dataset);
    mechanisms_and_substrate(&mut bench, &dataset);
    ablations(&mut bench, &dataset);
    bench.write();
}
