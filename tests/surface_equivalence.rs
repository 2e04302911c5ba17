//! Cross-method equivalence of the compiled query surface.
//!
//! A `Release` answers through a compiled index — a lattice, a coarse
//! lattice of per-slot sub-lattices (two-level partitions such as AG),
//! or a tree of the cuts no cell straddles (KD trees and other irregular
//! partitions); those answers must match the naive linear scan
//! over the released cells — the semantics the index replaces — to
//! within 1e-9, for every producing method, over a mixed workload of
//! domain-spanning, sliver, cell-aligned and miss queries.

use dpgrid::baselines::{HierarchicalGrid, HierarchyConfig, KdConfig, KdHybrid, KdStandard};
use dpgrid::core::{Release, SurfaceKind};
use dpgrid::geo::LatticeIndex;
use dpgrid::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn dataset(seed: u64) -> GeoDataset {
    PaperDataset::Storage.generate_n(seed, 4_000).unwrap()
}

/// Mixed workload over `domain`: spanning, slivers, cell-aligned (for a
/// grid of size `m`), interior boxes and misses.
fn query_mix(domain: &Rect, m: usize) -> Vec<Rect> {
    let (x0, y0) = (domain.x0(), domain.y0());
    let (w, h) = (domain.width(), domain.height());
    let mut queries = vec![
        // Domain-spanning (clipped and unclipped).
        *domain,
        Rect::new(x0 - w, y0 - h, x0 + 2.0 * w, y0 + 2.0 * h).unwrap(),
        // Slivers: thin vertical and horizontal strips.
        Rect::new(x0 + 0.37 * w, y0, x0 + 0.3701 * w, y0 + h).unwrap(),
        Rect::new(x0, y0 + 0.61 * h, x0 + w, y0 + 0.6101 * h).unwrap(),
        // Interior boxes at various scales.
        Rect::new(x0 + 0.1 * w, y0 + 0.1 * h, x0 + 0.9 * w, y0 + 0.4 * h).unwrap(),
        Rect::new(x0 + 0.42 * w, y0 + 0.42 * h, x0 + 0.58 * w, y0 + 0.58 * h).unwrap(),
        Rect::new(
            x0 + 0.013 * w,
            y0 + 0.77 * h,
            x0 + 0.031 * w,
            y0 + 0.792 * h,
        )
        .unwrap(),
        // Misses.
        Rect::new(x0 + 2.0 * w, y0, x0 + 3.0 * w, y0 + h).unwrap(),
        Rect::new(x0 - w, y0 - h, x0 - 0.5 * w, y0 - 0.5 * h).unwrap(),
    ];
    // Cell-aligned queries for an m × m grid over the domain.
    if m > 1 {
        queries.push(domain.grid_cell(m, m, m / 3, m / 2));
        let c0 = domain.grid_cell(m, m, 1, 1);
        let c1 = domain.grid_cell(m, m, m - 2, m - 2);
        queries.push(Rect::new(c0.x0(), c0.y0(), c1.x1(), c1.y1()).unwrap());
    }
    queries
}

/// The compiled answer must match the linear scan to 1e-9 (relative to
/// the answer's magnitude for large counts).
fn assert_equivalent(release: &Release, queries: &[Rect]) {
    for q in queries {
        let scan = release.answer_linear_scan(q);
        let compiled = release.answer(q);
        assert!(
            (compiled - scan).abs() <= 1e-9 * (1.0 + scan.abs()),
            "method {} query {q:?}: compiled {compiled} vs scan {scan}",
            release.method()
        );
    }
    // The batched path must agree with the per-query path bit-for-bit.
    let batch = release.answer_all(queries);
    let sequential: Vec<f64> = queries.iter().map(|q| release.answer(q)).collect();
    assert_eq!(batch, sequential);
}

#[test]
fn uniform_grid_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 24), &mut rng(seed)).unwrap();
        let release = Release::from_synopsis("UG", &ug);
        assert!(matches!(
            release.surface().kind(),
            SurfaceKind::Lattice { cols: 24, rows: 24 }
        ));
        assert_equivalent(&release, &query_mix(ds.domain().rect(), 24));
    }
}

/// The paper's query classes q1–q6 (Table II) over `domain`: each class
/// doubles both extents of the last, placed on a fixed spread of
/// positions (clamped inside the domain).
fn query_classes(dataset: PaperDataset, domain: &Rect) -> Vec<Rect> {
    let (w1, h1) = dataset.q1_size();
    let mut queries = Vec::new();
    for class in 0..6 {
        let scale = f64::from(1u32 << class);
        let (w, h) = (
            (w1 * scale).min(domain.width()),
            (h1 * scale).min(domain.height()),
        );
        for (fx, fy) in [
            (0.0, 0.0),
            (0.13, 0.71),
            (0.5, 0.5),
            (0.87, 0.29),
            (1.0, 1.0),
        ] {
            let x0 = domain.x0() + fx * (domain.width() - w);
            let y0 = domain.y0() + fy * (domain.height() - h);
            queries.push(Rect::new(x0, y0, x0 + w, y0 + h).unwrap());
        }
    }
    queries
}

/// Queries whose edges lie exactly on AG's first-level lines, on its
/// second-level (leaf) lines, and on one of each.
fn ag_aligned_queries(ag: &AdaptiveGrid) -> Vec<Rect> {
    let parents: Vec<Rect> = ag.cells_info().iter().map(|c| c.rect).collect();
    let leaves: Vec<Rect> = ag.cells().iter().map(|(r, _)| *r).collect();
    let span = |a: &Rect, b: &Rect| {
        Rect::new(
            a.x0().min(b.x0()),
            a.y0().min(b.y0()),
            a.x1().max(b.x1()),
            a.y1().max(b.y1()),
        )
        .unwrap()
    };
    let mut queries = Vec::new();
    for i in 0..12 {
        let (p, q) = (
            &parents[i * 7 % parents.len()],
            &parents[i * 13 % parents.len()],
        );
        let (a, b) = (
            &leaves[i * 101 % leaves.len()],
            &leaves[i * 389 % leaves.len()],
        );
        queries.push(span(p, q));
        queries.push(span(a, b));
        queries.push(span(p, a));
        queries.push(*a);
    }
    queries
}

#[test]
fn adaptive_grid_equivalence() {
    // At ε = 0.5 the leaves induce a lattice within the blow-up cap; at
    // ε = 2 the finer second level does not, and the release compiles
    // to the coarse lattice of per-cell sub-lattices instead.
    for epsilon in [0.5, 2.0] {
        for seed in [1u64, 2, 3] {
            let ds = dataset(seed);
            let config = AgConfig::guideline(epsilon);
            let ag = AdaptiveGrid::build(&ds, &config, &mut rng(seed ^ 0xA)).unwrap();
            let release = Release::from_synopsis("AG", &ag);
            // AG's two-level partition compiles to a lattice, never to
            // the cut tree; an induced lattice within the cap is kept.
            let kind = release.surface().kind();
            assert!(
                matches!(kind, SurfaceKind::Lattice { .. }),
                "ε = {epsilon}: {kind:?}"
            );
            if let Some(lattice) = LatticeIndex::try_build(&ag.cells()) {
                let (cols, rows) = lattice.shape();
                assert_eq!(kind, SurfaceKind::Lattice { cols, rows });
            }
            let domain = ds.domain().rect();
            let mut queries = query_mix(domain, ag.m1());
            queries.extend(query_classes(PaperDataset::Storage, domain));
            queries.extend(ag_aligned_queries(&ag));
            assert_equivalent(&release, &queries);
        }
    }
}

#[test]
fn hierarchy_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let h = HierarchicalGrid::build(&ds, &HierarchyConfig::new(1.0, 32, 2, 3), &mut rng(seed))
            .unwrap();
        let release = Release::from_synopsis("H2,3", &h);
        // Hierarchy leaves are a uniform grid: must take the fast path.
        assert!(matches!(
            release.surface().kind(),
            SurfaceKind::Lattice { .. }
        ));
        assert_equivalent(&release, &query_mix(ds.domain().rect(), 32));
    }
}

#[test]
fn kd_tree_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let mut cfg = KdConfig::new(1.0);
        cfg.base_resolution = 64;
        cfg.height = Some(8);
        for (name, release) in [
            (
                "Kst",
                Release::from_synopsis(
                    "Kst",
                    &KdStandard::build(&ds, &cfg, &mut rng(seed ^ 0xB)).unwrap(),
                ),
            ),
            (
                "Khy",
                Release::from_synopsis(
                    "Khy",
                    &KdHybrid::build(&ds, &cfg, &mut rng(seed ^ 0xC)).unwrap(),
                ),
            ),
        ] {
            let _ = name;
            assert_equivalent(&release, &query_mix(ds.domain().rect(), 64));
        }
    }
}

/// Wide queries over cut-tree releases: the tree adds whole nodes and
/// runs of sibling nodes the query covers from their totals, and must
/// do so without drifting from the linear-scan semantics.
#[test]
fn band_skip_list_wide_query_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let mut cfg = KdConfig::new(1.0);
        cfg.base_resolution = 64;
        cfg.height = Some(8);
        let kd = KdStandard::build(&ds, &cfg, &mut rng(seed ^ 0xD)).unwrap();
        let release = Release::from_synopsis("Kst", &kd);
        // KD leaves are irregular: the surface must be on the cut tree
        // (still reported as `Bands`) for this test to exercise it.
        assert!(matches!(
            release.surface().kind(),
            SurfaceKind::Bands { .. }
        ));
        let domain = ds.domain().rect();
        let (x0, y0) = (domain.x0(), domain.y0());
        let (w, h) = (domain.width(), domain.height());
        let wide = vec![
            // Full domain and beyond (absorbs at or near the root).
            *domain,
            Rect::new(x0 - w, y0 - h, x0 + 2.0 * w, y0 + 2.0 * h).unwrap(),
            // Full-x strips: interior rows fully covered, rim partial.
            Rect::new(x0 - 1.0, y0 + 0.05 * h, x0 + w + 1.0, y0 + 0.95 * h).unwrap(),
            Rect::new(x0 - 1.0, y0 + 0.3 * h, x0 + w + 1.0, y0 + 0.7 * h).unwrap(),
            // Full-y strips: every row partially covered in x.
            Rect::new(x0 + 0.1 * w, y0 - 1.0, x0 + 0.9 * w, y0 + h + 1.0).unwrap(),
            // Large interior boxes (mixed absorb + stab).
            Rect::new(x0 + 0.05 * w, y0 + 0.05 * h, x0 + 0.95 * w, y0 + 0.95 * h).unwrap(),
            Rect::new(x0 + 0.2 * w, y0 + 0.1 * h, x0 + 0.8 * w, y0 + 0.9 * h).unwrap(),
        ];
        assert_equivalent(&release, &wide);
    }
}

#[test]
fn untrusted_irregular_release_equivalence() {
    // A hand-built irregular partition: vertical strips of unequal
    // widths, each split at its own heights — a two-level partition
    // whose small induced lattice still fits the blow-up cap.
    let domain = Domain::from_corners(0.0, 0.0, 12.0, 10.0).unwrap();
    let splits = [0.0, 1.7, 2.9, 5.3, 8.0, 12.0];
    let mut cells = Vec::new();
    for (i, pair) in splits.windows(2).enumerate() {
        let k = 1 + (i * 7) % 5;
        for j in 0..k {
            let y0 = 10.0 * j as f64 / k as f64;
            let y1 = 10.0 * (j + 1) as f64 / k as f64;
            cells.push((
                Rect::new(pair[0], y0, pair[1], y1).unwrap(),
                (i * 31 + j * 17) as f64 % 23.0 - 8.0,
            ));
        }
    }
    let release = Release::from_parts("irregular", 1.0, domain, cells).unwrap();
    assert_equivalent(&release, &query_mix(domain.rect(), 6));
}

#[test]
fn equivalence_survives_serialization() {
    // Compile, serialise, reload: the recompiled surface must agree
    // with the scan on the reloaded cells too.
    let ds = dataset(9);
    let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(10)).unwrap();
    let release = Release::from_synopsis("AG", &ag);
    let mut buf = Vec::new();
    release.write_json(&mut buf).unwrap();
    let reloaded = Release::read_json(&buf[..]).unwrap();
    let queries = query_mix(ds.domain().rect(), ag.m1());
    assert_equivalent(&reloaded, &queries);
    for q in &queries {
        assert_eq!(release.answer(q), reloaded.answer(q));
    }
}
