//! The compiled query surface: serving-speed answers from any synopsis.
//!
//! Every [`Synopsis`] can export its leaf cells; this module compiles
//! that method-agnostic cell list into a [`CompiledSurface`] — the
//! single structure all serving-side features (releases, caching,
//! sharding, batch endpoints) are built against. Compilation picks the
//! cheapest faithful index automatically (see
//! [`dpgrid_geo::cell_index`]):
//!
//! * cells forming an affordable rectilinear lattice (UG, LDP grids,
//!   hierarchy and wavelet leaves, small AG outputs) become a dense
//!   grid + summed-area table, answering in O(1) on equi-width lattices
//!   — four edge locations and 16 prefix-sum reads (a binary search
//!   per edge only over ≤ 8 slots or far from equi-width);
//! * two-level partitions (larger AG outputs, whose leaves align only
//!   within each first-level cell) become a coarse lattice whose slots
//!   each hold their own sub-lattice: one coarse prefix-sum lookup for
//!   the slots a query fully covers, one strip lookup per coarse column
//!   or row its edges cut (over the 1-D marginals of the slots there),
//!   and one sub-lattice lookup per corner slot — a cost that does not
//!   grow with the query's size;
//! * irregular partitions (KD trees, adversarial releases) become a tree
//!   of the cuts no cell straddles, each node keeping its cells'
//!   bounding box and total: an answer adds the nodes inside the query
//!   and descends only along its rim, and a group with no cut is
//!   scanned.
//!
//! Whichever index is chosen, the answers equal the naive linear scan
//! `Σ vᵢ · cellᵢ.overlap_fraction(q)` up to floating-point roundoff, so
//! compiling is pure post-processing: no privacy accounting is
//! involved.
//!
//! Batched answering ([`CompiledSurface::answer_all`]) goes through the
//! shared [`dpgrid_geo::answer_all_batched`] driver: small batches are
//! answered inline, large ones are chunked across `std::thread::scope`
//! threads, mirroring the evaluation runner's method-level parallelism.

use std::sync::atomic::{AtomicU64, Ordering};

use dpgrid_geo::cell_index::CellIndex;
use dpgrid_geo::{answer_all_batched, Domain, Rect};

use crate::Synopsis;

/// Process-wide count of [`CompiledSurface::compile`] runs.
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Number of surface compilations this process has performed, ever.
///
/// Compilation is the expensive once-per-release step the serving
/// layer is built to amortise, so this counter is the ground truth for
/// "no code path recompiles an already-compiled surface" regression
/// tests and for serving-side diagnostics. The single relaxed atomic
/// increment per compilation is noise next to the O(cells·log cells)
/// build it counts.
pub fn compile_count() -> u64 {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

/// Which index a [`CompiledSurface`] compiled to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfaceKind {
    /// Dense lattice + summed-area table (`cols × rows`). The lattice is
    /// either the one the cells' edges induce, or the coarse lattice of a
    /// two-level partition, whose slots each hold their own sub-lattice.
    Lattice {
        /// Lattice columns.
        cols: usize,
        /// Lattice rows.
        rows: usize,
    },
    /// A tree of the cuts no cell straddles (irregular partitions such
    /// as KD trees). The variant keeps its band-index name for
    /// consumers that match on it.
    Bands {
        /// Number of tree nodes.
        bands: usize,
    },
}

/// A query-optimised compilation of a synopsis's leaf cells.
///
/// Building is O(cells·log cells); afterwards [`CompiledSurface::answer`]
/// costs O(log cells) regardless of the producing method, making a
/// published release exactly as fast to query as the native in-memory
/// synopsis types.
#[derive(Debug, Clone)]
pub struct CompiledSurface {
    domain: Domain,
    index: CellIndex,
    cell_count: usize,
}

impl CompiledSurface {
    /// Compiles a cell list over `domain`. Infallible: degenerate cells
    /// are ignored and an empty list answers `0` everywhere.
    pub fn compile(domain: Domain, cells: &[(Rect, f64)]) -> Self {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        CompiledSurface {
            domain,
            cell_count: cells.len(),
            index: CellIndex::build(cells),
        }
    }

    /// Compiles any synopsis's exported cells.
    pub fn from_synopsis(synopsis: &impl Synopsis) -> Self {
        CompiledSurface::compile(*synopsis.domain(), &synopsis.cells())
    }

    /// The domain the surface covers.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of leaf cells compiled in.
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Which index the compilation chose.
    pub fn kind(&self) -> SurfaceKind {
        let (cols, rows) = match &self.index {
            CellIndex::Lattice(l) => l.shape(),
            CellIndex::TwoLevel(t) => t.shape(),
            CellIndex::CutTree(t) => {
                return SurfaceKind::Bands {
                    bands: t.node_count(),
                }
            }
        };
        SurfaceKind::Lattice { cols, rows }
    }

    /// Sum of all cell values (the total-count estimate), O(1).
    pub fn total(&self) -> f64 {
        self.index.total()
    }

    /// Estimated resident size of the compiled surface in bytes (the
    /// struct plus the owned index arrays).
    ///
    /// This is the serving layer's accounting currency: a
    /// memory-budgeted catalog bounds the *sum of resident surface
    /// bytes* rather than a surface count, because surfaces vary by
    /// orders of magnitude (a 16×16 uniform grid vs a 10⁶-cell
    /// adaptive release). The figure is an estimate of owned memory —
    /// allocator slack and `Arc` headers are not modelled — but it is
    /// exact for the dominant index arrays.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<CellIndex>() + self.index.memory_bytes()
    }

    /// Estimated count inside `query` in O(log cells).
    ///
    /// Queries are clipped to the domain; a miss answers `0`, matching
    /// [`Synopsis::answer`] semantics.
    pub fn answer(&self, query: &Rect) -> f64 {
        let Some(q) = self.domain.clip(query) else {
            return 0.0;
        };
        self.index.answer(&q)
    }

    /// Answers a batch of queries through the shared
    /// [`dpgrid_geo::answer_all_batched`] driver: inline below two
    /// [`dpgrid_geo::MIN_QUERIES_PER_THREAD`] chunks, otherwise chunked
    /// across scoped threads sized by the host's parallelism, which is
    /// read once per process.
    pub fn answer_all(&self, queries: &[Rect]) -> Vec<f64> {
        answer_all_batched(queries, |q| self.answer(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveGrid, AgConfig, UgConfig, UniformGrid};
    use dpgrid_geo::generators;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn dataset(seed: u64) -> dpgrid_geo::GeoDataset {
        let domain = Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap();
        generators::uniform(domain, 2_000, &mut rng(seed))
    }

    fn linear_scan(cells: &[(Rect, f64)], q: &Rect) -> f64 {
        cells.iter().map(|(r, v)| v * r.overlap_fraction(q)).sum()
    }

    #[test]
    fn ug_compiles_to_lattice_and_matches_scan() {
        let ds = dataset(1);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 16), &mut rng(2)).unwrap();
        let surface = CompiledSurface::from_synopsis(&ug);
        assert!(matches!(
            surface.kind(),
            SurfaceKind::Lattice { cols: 16, rows: 16 }
        ));
        let cells = ug.cells();
        for q in [
            Rect::new(0.0, 0.0, 8.0, 8.0).unwrap(),
            Rect::new(1.3, 2.7, 5.9, 6.1).unwrap(),
            Rect::new(3.99, 0.0, 4.01, 8.0).unwrap(),
            Rect::new(9.0, 9.0, 10.0, 10.0).unwrap(),
        ] {
            let expect = linear_scan(&cells, &q);
            assert!(
                (surface.answer(&q) - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn ag_compiles_and_matches_scan() {
        let ds = dataset(3);
        let ag =
            AdaptiveGrid::build(&ds, &AgConfig::guideline(0.5).with_m1(6), &mut rng(4)).unwrap();
        let surface = CompiledSurface::from_synopsis(&ag);
        let cells = ag.cells();
        assert_eq!(surface.cell_count(), cells.len());
        let q = Rect::new(0.7, 0.7, 6.2, 4.9).unwrap();
        let expect = linear_scan(&cells, &q);
        assert!((surface.answer(&q) - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
        assert!((surface.total() - cells.iter().map(|(_, v)| v).sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn answer_all_matches_sequential() {
        let ds = dataset(5);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 32), &mut rng(6)).unwrap();
        let surface = CompiledSurface::from_synopsis(&ug);
        // Enough queries to trigger the threaded path.
        let mut rng = rng(7);
        let queries: Vec<Rect> = (0..2_000)
            .map(|_| {
                use rand::Rng;
                let x = rng.random_range(0.0..7.0);
                let y = rng.random_range(0.0..7.0);
                Rect::new(x, y, x + 1.0, y + 1.0).unwrap()
            })
            .collect();
        let batched = surface.answer_all(&queries);
        let sequential: Vec<f64> = queries.iter().map(|q| surface.answer(q)).collect();
        assert_eq!(batched, sequential);
        // Force the scoped-thread fan-out regardless of how many CPUs
        // the host offers (answer_all only engages it when
        // dpgrid_geo::available_parallelism allows).
        use dpgrid_geo::answer_all_with_workers;
        let threaded = answer_all_with_workers(&queries, |q| surface.answer(q), 4);
        assert_eq!(threaded, sequential);
        // Chunk boundaries: worker counts that do not divide the batch.
        let threaded = answer_all_with_workers(&queries[..1001], |q| surface.answer(q), 3);
        assert_eq!(threaded, sequential[..1001]);
    }

    #[test]
    fn cells_outside_domain_keep_scan_semantics() {
        // `compile` accepts cells poking outside the domain (only
        // `Release::from_parts` validates containment). A spanning
        // query must then match the clipped linear scan, not the raw
        // cell total.
        let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
        let cells = vec![(Rect::new(0.0, 0.0, 2.0, 1.0).unwrap(), 10.0)];
        let surface = CompiledSurface::compile(domain, &cells);
        let spanning = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        let expect = linear_scan(&cells, &spanning);
        assert!((expect - 5.0).abs() < 1e-12);
        assert!((surface.answer(&spanning) - expect).abs() < 1e-12);
        // A cell filling the domain: a 1 × 1 lattice sums it as 1 · 1 · 10.
        let inside = vec![(Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(), 10.0)];
        let surface = CompiledSurface::compile(domain, &inside);
        assert_eq!(surface.answer(&spanning), 10.0);
    }

    #[test]
    fn memory_bytes_scales_with_index_size() {
        let ds = dataset(9);
        let small = CompiledSurface::from_synopsis(
            &UniformGrid::build(&ds, &UgConfig::fixed(1.0, 8), &mut rng(10)).unwrap(),
        );
        let large = CompiledSurface::from_synopsis(
            &UniformGrid::build(&ds, &UgConfig::fixed(1.0, 64), &mut rng(10)).unwrap(),
        );
        assert!(small.memory_bytes() > std::mem::size_of::<CompiledSurface>());
        // 64× the cells must cost strictly more resident bytes; the
        // lattice path is dominated by its (m+1)² prefix sums.
        assert!(large.memory_bytes() > 8 * small.memory_bytes());
    }

    #[test]
    fn empty_surface_answers_zero() {
        let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
        let surface = CompiledSurface::compile(domain, &[]);
        assert_eq!(surface.answer(&Rect::new(0.0, 0.0, 1.0, 1.0).unwrap()), 0.0);
        assert_eq!(surface.total(), 0.0);
        assert_eq!(surface.cell_count(), 0);
    }
}
