//! Seeded input generation. Everything the program under test receives
//! is made here from the run's `--seed`, before any timing starts: the
//! datasets, the rect pools, the key sequence, the LDP population with
//! its perturbed reports, and the stream order.

use dpgrid_geo::generators::PaperDataset;
use dpgrid_geo::{GeoDataset, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cluster layout of the synthetic paper datasets. The layout is the
/// dataset's fixed geography, as with the paper's real datasets; the
/// seed draws the points, so runs differ in data, not in shape.
const LAYOUT_SEED: u64 = 2013;

/// The query classes q1–q6 of Table II: each doubles both extents of q1.
pub const CLASSES: usize = 6;

/// An independent generator for one kind of input (`kind` tells the
/// streams apart).
pub fn rng(seed: u64, kind: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `n` points of `dataset`.
pub fn sample(dataset: PaperDataset, n: usize, rng: &mut StdRng) -> GeoDataset {
    dataset
        .mixture(LAYOUT_SEED)
        .expect("paper mixtures are valid")
        .sample(n, rng)
}

/// `per_class` rects of each class q1..q6 of `dataset` over `data`'s
/// domain. Even-numbered rects are placed uniformly, as in §V-A;
/// odd-numbered ones are centred on a sampled data point (shifted to
/// fit inside the domain).
pub fn rects(
    dataset: PaperDataset,
    data: &GeoDataset,
    per_class: usize,
    rng: &mut StdRng,
) -> Vec<Rect> {
    let d = *data.domain().rect();
    let (w1, h1) = dataset.q1_size();
    let points = data.points();
    let mut out = Vec::with_capacity(CLASSES * per_class);
    for class in 0..CLASSES {
        let scale = f64::from(1u32 << class);
        let w = (w1 * scale).min(d.width());
        let h = (h1 * scale).min(d.height());
        for i in 0..per_class {
            let (x0, y0) = if i % 2 == 0 {
                (
                    rng.random_range(d.x0()..=d.x1() - w),
                    rng.random_range(d.y0()..=d.y1() - h),
                )
            } else {
                let p = points[rng.random_range(0..points.len())];
                (
                    (p.x - w / 2.0).clamp(d.x0(), d.x1() - w),
                    (p.y - h / 2.0).clamp(d.y0(), d.y1() - h),
                )
            };
            out.push(Rect::new(x0, y0, x0 + w, y0 + h).expect("rect inside the domain"));
        }
    }
    out
}

/// `size` rects drawn from `pool`.
pub fn pick(pool: &[Rect], size: usize, rng: &mut StdRng) -> Vec<Rect> {
    (0..size)
        .map(|_| pool[rng.random_range(0..pool.len())])
        .collect()
}

/// `count` requests of `size` rects each, drawn from `pool`.
pub fn batches(pool: &[Rect], count: usize, size: usize, rng: &mut StdRng) -> Vec<Vec<Rect>> {
    (0..count).map(|_| pick(pool, size, rng)).collect()
}

/// Zipf(1) shares over ranks `0..n`: rank `r` gets `1 / (r + 1)`,
/// normalised to sum to 1.
pub fn zipf_shares(n: usize) -> Vec<f64> {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    (1..=n).map(|r| 1.0 / r as f64 / total).collect()
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.random_range(0..=i));
    }
    out
}
