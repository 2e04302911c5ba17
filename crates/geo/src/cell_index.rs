//! Query-time indexes over arbitrary rectangle partitions.
//!
//! A published synopsis is just a list of `(Rect, f64)` leaf cells. The
//! naive way to answer a rectangle count query from it — test every cell
//! for overlap — is O(cells) per query, which makes large releases
//! unusable at serving scale. This module compiles a cell list **once**
//! into an index that answers in (poly)logarithmic time.
//!
//! [`CellIndex::build`] tries three paths, in order:
//!
//! 1. [`LatticeIndex`] — the fast path. When every cell edge lies on a
//!    common rectilinear lattice at most 8× larger than the cell list
//!    (uniform grids, LDP grids, hierarchy / wavelet leaves, small
//!    adaptive grids), the cells are scattered onto a
//!    [`crate::DenseGrid`] over that lattice and summed through a
//!    [`crate::SummedAreaTable`]. A query locates each of its four
//!    edges in O(1) on equi-width lattices (an equi-width guess, then
//!    at most one step; a binary search only over ≤ 8 slots or when the
//!    lattice is far from equi-width) and reads 16 prefix sums in
//!    [`crate::SummedAreaTable::mass`].
//! 2. [`TwoLevelIndex`] — two-level partitions (larger adaptive grids,
//!    whose first-level cells are each split into their own `m₂ × m₂`
//!    grid). One sweep per axis finds the *coarse lines* no cell
//!    straddles, and each coarse slot's cells get their own lattice. A
//!    summed-area table over the slot totals answers the slots a query
//!    fully covers in one lookup. The rim slots cut by one query edge
//!    are answered through per-column and per-row *strips* of their
//!    1-D marginals, one lookup per cut column or row whatever the run's
//!    length (a run shorter than half its strip's groups asks its slots
//!    instead); the ≤ 4 corner slots ask their own lattice. An adaptive
//!    grid builds it straight from its grids, with no sweep.
//! 3. [`CutTreeIndex`] — the general path (KD trees, adversarial
//!    releases). The cells are split at every line no cell straddles,
//!    along x, else along y (the two-level index's sweep), and each part
//!    again along the other axis: this rebuilds a KD or hybrid tree's
//!    splits from its flat leaf list. A part with no such line is a
//!    *scan leaf*, so overlapping and non-guillotine lists stay exact.
//!    Each node keeps its cells' bounding box and total: an answer adds
//!    a node inside the query, skips one that misses it and descends
//!    into the rest, along the query's rim; a run of many children
//!    inside the query is added from a prefix of their totals.
//!
//! All indexes reproduce the *uniformity assumption* semantics of
//! [`Rect::overlap_fraction`] exactly (up to floating-point roundoff):
//! a cell with value `v` contributes `v · |cell ∩ query| / |cell|`, so
//! callers never need to know which partition shape they are holding.

use std::ops::Range;

use crate::{Domain, Rect, MAX_GRID_CELLS};

/// Maximum blow-up factor the lattice paths may pay: scattering `n`
/// cells onto more than `LATTICE_BLOWUP_CAP · n` lattice slots (the
/// induced lattice, or a two-level index's coarse lattice) falls back
/// to the next path instead (an adversarially irregular partition can
/// induce an O(n²) lattice).
const LATTICE_BLOWUP_CAP: usize = 8;

/// Cells in the sample [`LatticeIndex::try_build`] checks against the
/// blow-up cap before it sorts every edge of a larger cell list.
const LATTICE_SAMPLE_CELLS: usize = 4096;

/// Relative tolerance for float drift in derived subdivision edges.
///
/// Adaptive-grid level-2 subdivision computes cell edges as
/// `parent_y0 + i · (height / m₂)`, so a cell meant to end on a coarse
/// line can overshoot it by a few ULPs. The coarse sweep lets a cell
/// end this far past a coarse line without straddling it; that only
/// shapes the slots, since the two-level index answers such a cell
/// exactly.
///
/// The tolerance scales with the coordinate's magnitude, as ULP drift
/// does (projected coordinates, e.g. UTM metres around 10⁶, drift by
/// far more than a thin cell's height). At 1e-12 (~4 ULPs of the
/// magnitude) genuinely distinct lines — separated by at least a cell
/// height — stay far outside it.
const SNAP_REL: f64 = 1e-12;

/// A compiled index over a rectangle partition, ready to answer
/// uniformity-assumption range-count queries in sublinear time.
#[derive(Debug, Clone)]
pub enum CellIndex {
    /// All cells align to a common rectilinear lattice.
    Lattice(LatticeIndex),
    /// Cells align within coarse slots: coarse lattice of sub-lattices.
    TwoLevel(TwoLevelIndex),
    /// Irregular partition: a tree of recursive cuts.
    CutTree(CutTreeIndex),
}

impl CellIndex {
    /// Compiles a cell list. Infallible: any list (including empty or
    /// degenerate cells, which can never contribute to an answer) gets
    /// an index; the paths are tried in the order the module
    /// documentation gives.
    pub fn build(cells: &[(Rect, f64)]) -> CellIndex {
        if let Some(lattice) = LatticeIndex::try_build(cells) {
            return CellIndex::Lattice(lattice);
        }
        let live = LiveCells::new(cells);
        if let Some(two_level) = TwoLevelIndex::from_live(&live) {
            return CellIndex::TwoLevel(two_level);
        }
        CellIndex::CutTree(CutTreeIndex::from_live(live))
    }

    /// Estimated count inside `query` under the uniformity assumption;
    /// exactly the sum `Σ vᵢ · cellᵢ.overlap_fraction(query)` the linear
    /// scan computes, up to floating-point roundoff.
    pub fn answer(&self, query: &Rect) -> f64 {
        match self {
            CellIndex::Lattice(l) => l.answer(query),
            CellIndex::TwoLevel(t) => t.answer(query),
            CellIndex::CutTree(t) => t.answer(query),
        }
    }

    /// Sum of all cell values (the partition's total estimate), O(1).
    pub fn total(&self) -> f64 {
        match self {
            CellIndex::Lattice(l) => l.total(),
            CellIndex::TwoLevel(t) => t.total(),
            CellIndex::CutTree(t) => t.total(),
        }
    }

    /// Estimated resident size in bytes (struct plus owned arrays).
    ///
    /// This is the quantity serving-side memory budgets account for: it
    /// is dominated by the heap arrays (edge coordinates and prefix
    /// sums for the lattice paths, nodes and scan-leaf cells for the
    /// cut tree), so the enum discriminant padding is ignored.
    pub fn memory_bytes(&self) -> usize {
        match self {
            CellIndex::Lattice(l) => l.memory_bytes(),
            CellIndex::TwoLevel(t) => t.memory_bytes(),
            CellIndex::CutTree(t) => t.memory_bytes(),
        }
    }
}

/// Sorted, deduplicated edge coordinates of one axis.
fn collect_edges(
    cells: &[&(Rect, f64)],
    lo: impl Fn(&Rect) -> f64,
    hi: impl Fn(&Rect) -> f64,
) -> Vec<f64> {
    lattice_lines(lower_keys(cells, lo), cells, hi)
}

/// Sorted, deduplicated [`total_key`]s of the cells' lower edges along
/// one axis. `-0.0` is read as `0.0`, so equal coordinates share one
/// key. Only the distinct keys stay allocated: both axes' are held at
/// once, while a large list is judged on them.
fn lower_keys(cells: &[&(Rect, f64)], lo: impl Fn(&Rect) -> f64) -> Vec<i64> {
    let mut keys: Vec<i64> = cells.iter().map(|(r, _)| total_key(lo(r) + 0.0)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.shrink_to_fit();
    keys
}

/// The ascending lines of one lattice axis: the [`lower_keys`] `keys`
/// together with the cells' upper edges.
fn lattice_lines(
    mut keys: Vec<i64>,
    cells: &[&(Rect, f64)],
    hi: impl Fn(&Rect) -> f64,
) -> Vec<f64> {
    keys.reserve_exact(cells.len());
    keys.extend(cells.iter().map(|(r, _)| total_key(hi(r) + 0.0)));
    keys.sort_unstable();
    keys.dedup();
    let mut edges: Vec<f64> = keys.into_iter().map(total_key_inv).collect();
    // The edges outlive the build: drop the spare capacity.
    edges.shrink_to_fit();
    edges
}

/// The integer image of `f64::total_cmp`'s order:
/// `a.total_cmp(&b) == total_key(a).cmp(&total_key(b))`. Sorting these
/// keys is cheaper than sorting the floats with `total_cmp`.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The float whose [`total_key`] is `key` (the map is its own inverse).
fn total_key_inv(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// Index of `x` in a sorted edge array, or `None` when `x` is not
/// (bitwise) one of the edges.
fn edge_index(edges: &[f64], x: f64) -> Option<usize> {
    let i = edges.partition_point(|&e| e < x);
    (i < edges.len() && edges[i] == x).then_some(i)
}

/// Locates `q` in the ascending `edges`, clamped to their span, as
/// `(slot, fraction)` for [`crate::SummedAreaTable::mass`]. Over at most
/// [`SEARCHED_SLOTS`] slots a binary search finds the slot; over more it
/// is guessed as if the edges were equi-width and corrected by one step,
/// and only a worse guess searches, so UG and LDP lattices never do.
/// Always inlined, so the two edges of an axis share `scale`: through a
/// call, a traced UG lattice answer cost ~15% more.
#[inline(always)]
fn locate(edges: &[f64], q: f64) -> (usize, f64) {
    let n = edges.len() - 1;
    let (lo, hi) = (edges[0], edges[n]);
    let scale = n as f64 / (hi - lo);
    if q <= lo {
        return (0, 0.0);
    }
    if q >= hi {
        return (n - 1, 1.0);
    }
    let search = || edges[1..n].partition_point(|&e| e < q);
    let slot = if n <= SEARCHED_SLOTS {
        search()
    } else {
        let mut slot = (((q - lo) * scale) as usize).min(n - 1);
        if q < edges[slot] {
            slot -= 1;
        } else if q > edges[slot + 1] {
            slot += 1;
        }
        if q < edges[slot] || q > edges[slot + 1] {
            slot = search();
        }
        slot
    };
    (slot, (q - edges[slot]) / (edges[slot + 1] - edges[slot]))
}

/// Slot counts [`locate`] searches outright: three search steps cost
/// less than a guess and its checks (adaptive grids' slot lattices).
const SEARCHED_SLOTS: usize = 8;

/// The regular-lattice fast path: cells scattered onto the rectilinear
/// lattice induced by their own edges, summed through a
/// [`crate::SummedAreaTable`].
///
/// Lattice slots need not be equi-width — only *shared*: every cell
/// edge must coincide (bitwise) with a lattice line. Cells spanning
/// several slots are split with their value distributed proportionally
/// to area, which leaves every uniformity-assumption query answer
/// unchanged.
#[derive(Debug, Clone)]
pub struct LatticeIndex {
    /// `cols + 1` ascending x edge coordinates.
    xs: Vec<f64>,
    /// `rows + 1` ascending y edge coordinates.
    ys: Vec<f64>,
    /// Prefix sums over the scattered `cols × rows` value matrix.
    sat: crate::SummedAreaTable,
}

impl LatticeIndex {
    /// Attempts the lattice compilation; `None` when the cells do not
    /// align to their induced lattice or the lattice would be more than
    /// `LATTICE_BLOWUP_CAP` (8) times larger than the cell list.
    pub fn try_build(cells: &[(Rect, f64)]) -> Option<LatticeIndex> {
        let live: Vec<&(Rect, f64)> = cells.iter().filter(|(r, _)| !r.is_empty()).collect();
        if live.is_empty() {
            return None;
        }
        // Any subset's edges induce a lattice no larger than the full one:
        // when an evenly spread sample of the cells already exceeds the
        // cap, decline without sorting every edge.
        let step = live.len().div_ceil(LATTICE_SAMPLE_CELLS);
        if step > 1 {
            let sample: Vec<&(Rect, f64)> = live.iter().step_by(step).copied().collect();
            let sample_cols = collect_edges(&sample, |r| r.x0(), |r| r.x1()).len() - 1;
            let sample_rows = collect_edges(&sample, |r| r.y0(), |r| r.y1()).len() - 1;
            if sample_cols.saturating_mul(sample_rows) > blowup_cap(live.len()) {
                return None;
            }
        }
        // Edges come from the live cells only: a degenerate cell off the
        // lattice must not inflate the slot grid or stretch its bounds.
        let x_lows = lower_keys(&live, |r| r.x0());
        let y_lows = lower_keys(&live, |r| r.y0());
        // Exact early exit: every lower edge is a lattice line, and so is
        // the largest upper edge, which exceeds them all. So the lattice
        // has at least as many columns as distinct lower x-edges (exactly
        // as many when the cells tile their bounding box), and as many
        // rows as distinct lower y-edges: past the cap on these alone,
        // decline before sorting the upper edges.
        if x_lows.len().saturating_mul(y_lows.len()) > blowup_cap(live.len()) {
            return None;
        }
        let xs = lattice_lines(x_lows, &live, |r| r.x1());
        let ys = lattice_lines(y_lows, &live, |r| r.y1());
        let (cols, rows) = (xs.len() - 1, ys.len() - 1);
        if cols.checked_mul(rows)? > blowup_cap(live.len()) {
            return None;
        }

        // Scatter each cell onto its slot block, splitting the value by
        // area share. A cell edge that is not a lattice line means the
        // partition is not rectilinear after all -> give up.
        let domain = Domain::from_corners(xs[0], ys[0], xs[cols], ys[rows]).ok()?;
        let mut grid = crate::DenseGrid::zeros(domain, cols, rows).ok()?;
        for (rect, v) in live {
            let ix0 = edge_index(&xs, rect.x0())?;
            let ix1 = edge_index(&xs, rect.x1())?;
            let iy0 = edge_index(&ys, rect.y0())?;
            let iy1 = edge_index(&ys, rect.y1())?;
            debug_assert!(ix0 < ix1 && iy0 < iy1);
            let area = rect.area();
            for iy in iy0..iy1 {
                let h = ys[iy + 1] - ys[iy];
                for ix in ix0..ix1 {
                    let w = xs[ix + 1] - xs[ix];
                    grid.add(ix, iy, v * (w * h / area));
                }
            }
        }
        let sat = grid.sat();
        Some(LatticeIndex { xs, ys, sat })
    }

    /// Lattice shape as `(cols, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.xs.len() - 1, self.ys.len() - 1)
    }

    /// Answers a query: four edge locations, O(1) on an equi-width
    /// lattice, and 16 prefix-sum reads.
    pub fn answer(&self, query: &Rect) -> f64 {
        lattice_answer(&self.xs, &self.ys, &self.sat, query)
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.sat.total()
    }

    /// Estimated resident size in bytes: the struct, both edge arrays
    /// and the summed-area table.
    pub fn memory_bytes(&self) -> usize {
        // `size_of::<Self>()` already counts the inline SAT header, so
        // only the SAT's heap share is added on top.
        std::mem::size_of::<Self>()
            + (self.xs.len() + self.ys.len()) * std::mem::size_of::<f64>()
            + (self.sat.memory_bytes() - std::mem::size_of::<crate::SummedAreaTable>())
    }
}

/// Answers a query over a lattice with edges `xs` × `ys` whose
/// scattered values `sat` sums: one [`LatticeIndex`], or one slot of a
/// [`TwoLevelIndex`], which keeps its edges in its strips. Four
/// [`locate`]s and one [`crate::SummedAreaTable::mass`].
fn lattice_answer(xs: &[f64], ys: &[f64], sat: &crate::SummedAreaTable, query: &Rect) -> f64 {
    sat.mass(
        [locate(xs, query.x0()), locate(xs, query.x1())],
        [locate(ys, query.y0()), locate(ys, query.y1())],
    )
}

/// Most lattice slots `live` cells may be scattered onto.
fn blowup_cap(live: usize) -> usize {
    live.saturating_mul(LATTICE_BLOWUP_CAP).min(MAX_GRID_CELLS)
}

/// `r`'s extent `(lo, hi)` along axis 0 (x) or 1 (y).
fn span(r: &Rect, axis: usize) -> (f64, f64) {
    [(r.x0(), r.x1()), (r.y0(), r.y1())][axis]
}

/// The live (non-degenerate) cells of a list and, per axis, their
/// spans ascending by lower edge along it: what the two-level index
/// and the cut tree sweep, sorted once for both.
struct LiveCells<'a> {
    cells: Vec<&'a (Rect, f64)>,
    /// Per axis, each cell's `(total_key(lo), hi, index)` along it, so
    /// the sweep reads them front to back. The cut tree reorders ranges
    /// of these as it splits.
    order: [Vec<Span>; 2],
}

type Span = (i64, f64, u32);

impl<'a> LiveCells<'a> {
    fn new(cells: &'a [(Rect, f64)]) -> LiveCells<'a> {
        let cells: Vec<&(Rect, f64)> = cells.iter().filter(|(r, _)| !r.is_empty()).collect();
        // The cut tree numbers its nodes, fewer than two per cell, by u32.
        assert!(cells.len() < 1 << 31, "more than 2³¹ cells");
        let order = [0, 1].map(|axis| {
            let mut spans: Vec<Span> = (cells.iter().enumerate())
                .map(|(i, (r, _))| (total_key(span(r, axis).0), span(r, axis).1, i as u32))
                .collect();
            spans.sort_unstable_by_key(|s| s.0);
            spans
        });
        LiveCells { cells, order }
    }

    /// The sweep that finds the lines no cell straddles, along `axis`
    /// over the cells at `range` of its order: it opens a slot at each
    /// new lower edge no earlier cell straddles (a cell may overhang a
    /// line by the snap tolerance), and hands `put` each cell's index and
    /// slot, so slots ascend along the order. Returns the slot count.
    fn sweep(&self, axis: usize, range: Range<usize>, mut put: impl FnMut(usize, u32)) -> u32 {
        // `straddle`: where a line must sit for no earlier cell to cross
        // it (their upper edges less the snap).
        let (mut slots, mut straddle, mut prev_lo) = (0, f64::NEG_INFINITY, None);
        for &(lo, hi, cell) in &self.order[axis][range] {
            let lo = total_key_inv(lo);
            if prev_lo != Some(lo) && straddle <= lo {
                slots += 1;
            }
            prev_lo = Some(lo);
            put(cell as usize, slots - 1);
            straddle = straddle.max(hi - SNAP_REL * lo.abs().max(hi.abs()));
        }
        slots
    }
}

/// The two-level path: a coarse lattice whose slots each hold the
/// summed-area table of their own cells' lattice.
///
/// This is the shape of the paper's adaptive grid: an `m₁ × m₁` grid
/// whose cells are each split into their own `m₂ × m₂` grid. Its leaves
/// induce no affordable common lattice (each first-level column mixes
/// many `m₂`), but no leaf straddles a first-level line. A summed-area
/// table over the slot totals answers the slots a query fully covers.
///
/// A rim slot cut by only one query edge needs just a 1-D marginal of
/// its cells. So each coarse column keeps a *strip*: its slots grouped
/// by bitwise-identical x-edges (in an adaptive grid, one group per
/// `m₂`), each group with a prefix table over its members' cumulative
/// x-marginals. The mass of any run of the column's slots between two
/// x-coordinates is then a few lookups per group, whatever the run's
/// length. Coarse rows keep the same along y. A strip visits all its
/// groups, so a run shorter than half of them is answered slot by slot
/// in 2-D instead, as the corner slots, cut on both axes (4 in the
/// common case), always are.
///
/// A query costs two binary searches per axis over the coarse lines,
/// one coarse lookup, per coarse column or row it cuts one strip lookup
/// or a short run's slots, and its corner slots: the cost does not grow
/// with the query's size. Each slot's edges are stored once, in its
/// groups; memory stays linear in the cells even when no two slots
/// share edges.
#[derive(Debug, Clone)]
pub struct TwoLevelIndex {
    /// Coarse lines and the prefix sums of the slot totals.
    coarse: LatticeIndex,
    /// Per coarse column, the largest x any cell in it or an earlier
    /// column reaches: the next line, unless a cell overhangs that line
    /// by float drift.
    x_reach: Vec<f64>,
    /// Per coarse row, the same bound along y.
    y_reach: Vec<f64>,
    /// Row-major per-slot tables; `None` for a slot with no cells.
    slots: Vec<Option<Slot>>,
    /// One strip per coarse column (its slots' x-marginals, over rows),
    /// then one per coarse row (their y-marginals, over columns); boxed,
    /// so the index is no larger than the other [`CellIndex`] variants.
    strips: Box<[Strips; 2]>,
}

/// One non-empty coarse slot: the prefix sums over its own lattice.
/// Its edges live once, in its groups' blocks: `sat.cols() + 1` x-edges
/// at `x_edges` of the column strips' blocks, and `sat.rows() + 1`
/// y-edges at `y_edges` of the row strips'.
#[derive(Debug, Clone)]
struct Slot {
    sat: crate::SummedAreaTable,
    x_edges: u32,
    y_edges: u32,
}

/// The strips of one axis of a two-level index, one per coarse line,
/// each its slots grouped by edges across the strip, in shared arrays.
#[derive(Debug, Clone, Default)]
struct Strips {
    /// Strip `line`'s groups are `groups[starts[line]..starts[line + 1]]`.
    starts: Vec<u32>,
    /// Every group, then a sentinel that ends the last one's members.
    groups: Vec<StripGroup>,
    /// Each group's member positions along its strip, ascending.
    members: Vec<u32>,
    /// Each group's block (see [`StripGroup`]).
    blocks: Vec<f64>,
}

/// The slots of one strip whose edges across it are bitwise identical:
/// in an adaptive grid, the slots of one first-level column (or row)
/// with the same `m₂`.
///
/// Its block holds those `edges` ascending edges, then a member-major
/// prefix table of `members × edges` entries: entry `(i, k)` is the
/// mass below edge `k` of its first `i + 1` members. The mass of any
/// run of its members between two coordinates is then two rank searches
/// and, per coordinate, one edge search and four loads.
#[derive(Debug, Clone, Copy)]
struct StripGroup {
    /// Start of its block in [`Strips::blocks`].
    block: u32,
    /// Its edge count.
    edges: u32,
    /// Start of its members in [`Strips::members`]; they end where the
    /// next group's start.
    members: u32,
}

impl Strips {
    /// Groups each strip's slots by bitwise-identical edges and builds
    /// the groups' blocks. `[lines, len]` is the strip count and the
    /// positions along each; `slot(line, pos)` is a slot's row-major
    /// index; `edges(lattice)` are a slot's edges across the strip and
    /// `below(lattice, k)` its mass below the `k`-th of them. Where each
    /// slot's edges start in the blocks goes to `edges_at`. `None` when
    /// the blocks outgrow `u32` offsets; the other arrays hold a few
    /// entries per slot, and slots number at most `MAX_GRID_CELLS`.
    fn build(
        lattices: &[Option<LatticeIndex>],
        [lines, len]: [usize; 2],
        slot: impl Fn(usize, usize) -> usize,
        edges: impl Fn(&LatticeIndex) -> &[f64],
        below: impl Fn(&LatticeIndex, usize) -> f64,
        edges_at: &mut [u32],
    ) -> Option<Strips> {
        let mut strips = Strips {
            starts: Vec::with_capacity(lines + 1),
            ..Strips::default()
        };
        let mut order: Vec<(usize, &LatticeIndex)> = Vec::with_capacity(len);
        for line in 0..lines {
            strips.starts.push(strips.groups.len() as u32);
            order.clear();
            order.extend(
                (0..len).filter_map(|pos| Some((pos, lattices[slot(line, pos)].as_ref()?))),
            );
            // Stable: each group's members stay in ascending position.
            order.sort_by(|a, b| edge_bits(edges(a.1)).cmp(edge_bits(edges(b.1))));
            for run in order.chunk_by(|a, b| edge_bits(edges(a.1)).eq(edge_bits(edges(b.1)))) {
                let shared = edges(run[0].1);
                let block = strips.blocks.len() as u32;
                strips.groups.push(StripGroup {
                    block,
                    edges: shared.len() as u32,
                    members: strips.members.len() as u32,
                });
                strips.blocks.extend_from_slice(shared);
                let (table, e) = (strips.blocks.len(), shared.len());
                for (i, &(pos, lattice)) in run.iter().enumerate() {
                    for k in 0..e {
                        let before = if i == 0 {
                            0.0
                        } else {
                            strips.blocks[table + (i - 1) * e + k]
                        };
                        strips.blocks.push(before + below(lattice, k));
                    }
                    strips.members.push(pos as u32);
                    edges_at[slot(line, pos)] = block;
                }
            }
        }
        strips.starts.push(strips.groups.len() as u32);
        strips.groups.push(StripGroup {
            block: u32::try_from(strips.blocks.len()).ok()?,
            edges: 0,
            members: strips.members.len() as u32,
        });
        // The arrays outlive the build: drop the spare capacity.
        strips.groups.shrink_to_fit();
        strips.members.shrink_to_fit();
        strips.blocks.shrink_to_fit();
        Some(strips)
    }

    /// Number of strip `line`'s groups.
    fn groups(&self, line: usize) -> usize {
        (self.starts[line + 1] - self.starts[line]) as usize
    }

    /// Mass of strip `line`'s slots at positions in `run` between `q0`
    /// and `q1`, each slot's mass spread uniformly within its edges:
    /// a few lookups per group, whatever the run's length.
    fn mass(
        &self,
        line: usize,
        run: &Range<usize>,
        q0: f64,
        q1: f64,
        stats: &mut TwoLevelStats,
    ) -> f64 {
        let mut sum = 0.0;
        let groups = self.starts[line] as usize..self.starts[line + 1] as usize;
        for (group, next) in self.groups[groups.start..=groups.end]
            .iter()
            .zip(&self.groups[groups.start + 1..=groups.end])
        {
            stats.strip_groups += 1;
            let members = &self.members[group.members as usize..next.members as usize];
            let rank = |pos: usize| members.partition_point(|&m| (m as usize) < pos);
            let (ia, ib) = (rank(run.start), rank(run.end));
            if ia == ib {
                continue;
            }
            let e = group.edges as usize;
            let (edges, table) = self.blocks[group.block as usize..].split_at(e);
            // Prefix row `i` covers the first `i` members; row 0 is zero.
            let row = |i: usize, k: usize| if i == 0 { 0.0 } else { table[(i - 1) * e + k] };
            let run_below = |k: usize| row(ib, k) - row(ia, k);
            let at = |q: f64| {
                let (k, f) = locate(edges, q);
                let a = run_below(k);
                a + (run_below(k + 1) - a) * f
            };
            sum += at(q1) - at(q0);
        }
        sum
    }

    /// Estimated resident size in bytes: the struct and its arrays.
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.starts.len() + self.members.len()) * std::mem::size_of::<u32>()
            + self.groups.len() * std::mem::size_of::<StripGroup>()
            + self.blocks.len() * std::mem::size_of::<f64>()
    }
}

/// Lookup counts of one [`TwoLevelIndex`] query: how much of the index
/// the answer touched beyond its one coarse prefix-sum lookup.
///
/// Exposed so regression tests can assert the constant-cost bound: a
/// query whose edges fall inside slots answers exactly its 4 corner
/// slots in 2-D and visits a few strip groups, however many rim slots
/// it cuts, unless its runs are short enough to answer in 2-D too.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelStats {
    /// Non-empty slots answered in 2-D: corners and short runs' slots.
    pub slots_2d: usize,
    /// Strip groups visited for the runs of slots cut on one axis only.
    pub strip_groups: usize,
}

impl TwoLevelIndex {
    /// Attempts the two-level compilation: one sweep per axis finds the
    /// coarse lines no live cell straddles (a cell may overhang a line
    /// by the snap tolerance), the cells are counting-sorted into the
    /// slots those lines bound, and each slot's cells go through
    /// [`LatticeIndex::try_build`]. `None` when the coarse lattice alone
    /// exceeds the blow-up cap or some slot's lattice is declined. Only
    /// then are the strips built, from the slots' lattices.
    pub fn try_build(cells: &[(Rect, f64)]) -> Option<TwoLevelIndex> {
        TwoLevelIndex::from_live(&LiveCells::new(cells))
    }

    /// [`TwoLevelIndex::try_build`] over cells already sorted.
    fn from_live(sorted: &LiveCells) -> Option<TwoLevelIndex> {
        let live = &sorted.cells;
        if live.is_empty() {
            return None;
        }
        let [(cols, x_slot), (rows, y_slot)] = [0, 1].map(|axis| {
            let mut slot_of = vec![0u32; live.len()];
            let slots = sorted.sweep(axis, 0..live.len(), |i, s| slot_of[i] = s);
            (slots as usize, slot_of)
        });
        let slots = cols.checked_mul(rows)?;
        if slots > blowup_cap(live.len()) {
            return None;
        }
        // Counting sort into row-major slots: sizes, offsets, placement.
        let slot = |i: usize| y_slot[i] as usize * cols + x_slot[i] as usize;
        let mut starts = vec![0usize; slots + 1];
        for i in 0..live.len() {
            starts[slot(i) + 1] += 1;
        }
        for s in 0..slots {
            starts[s + 1] += starts[s];
        }
        let mut fill = starts.clone();
        let mut by_slot = vec![*live[0]; live.len()];
        for (i, cell) in live.iter().enumerate() {
            let at = &mut fill[slot(i)];
            by_slot[*at] = **cell;
            *at += 1;
        }

        let mut lattices = Vec::with_capacity(slots);
        for s in 0..slots {
            let members = &by_slot[starts[s]..starts[s + 1]];
            lattices.push(match members {
                [] => None,
                _ => Some(LatticeIndex::try_build(members)?),
            });
        }
        TwoLevelIndex::assemble([cols, rows], lattices)
    }

    /// Builds the index of an adaptive grid straight from its grids, with
    /// no sweep: `rect` split into an `m1 × m1` grid whose row-major cell
    /// `s` is split into its own `m2 × m2` grid of row-major leaf values
    /// `grid(s) = (m2, values)`, both by [`Rect::grid_cell`]; bit for bit
    /// what [`TwoLevelIndex::try_build`] builds from the leaves when it
    /// finds the same `m1 × m1` lines. `None` when a grid is not `m × m`.
    pub fn from_nested_grids<'a>(
        rect: &Rect,
        m1: usize,
        grid: impl Fn(usize) -> (usize, &'a [f64]),
    ) -> Option<TwoLevelIndex> {
        let slots = m1.checked_mul(m1).filter(|&s| s > 0)?;
        let mut lattices = Vec::with_capacity(slots);
        for s in 0..slots {
            let (m2, values) = grid(s);
            if m2 == 0 || m2.checked_mul(m2) != Some(values.len()) {
                return None;
            }
            // The diagonal leaves carry every leaf edge of both axes.
            let parent = rect.grid_cell(m1, m1, s % m1, s / m1);
            let diagonal: Vec<Rect> = (0..m2).map(|i| parent.grid_cell(m2, m2, i, i)).collect();
            let last = diagonal[m2 - 1];
            let xs = diagonal.iter().map(Rect::x0).chain([last.x1()]).collect();
            let ys = diagonal.iter().map(Rect::y0).chain([last.y1()]).collect();
            let sat = crate::SummedAreaTable::new(m2, m2, values);
            lattices.push(Some(LatticeIndex { xs, ys, sat }));
        }
        TwoLevelIndex::assemble([m1, m1], lattices)
    }

    /// The tail both constructors share, from the lattices of the
    /// row-major `cols × rows` slots: the coarse lines and reach bounds,
    /// the coarse totals, the strips and the slots.
    fn assemble(
        [cols, rows]: [usize; 2],
        lattices: Vec<Option<LatticeIndex>>,
    ) -> Option<TwoLevelIndex> {
        let slots = lattices.len();
        // A coarse column's line is its cells' smallest lower edge, its
        // reach the largest upper edge up to it. Likewise per row.
        let mut lines = [vec![f64::INFINITY; cols], vec![f64::INFINITY; rows]];
        let mut reach = [vec![f64::NEG_INFINITY; cols], vec![f64::NEG_INFINITY; rows]];
        let mut totals = vec![0.0; slots];
        for (s, lattice) in lattices.iter().enumerate() {
            let Some(l) = lattice else { continue };
            for (axis, (i, edges)) in [(s % cols, &l.xs), (s / cols, &l.ys)]
                .into_iter()
                .enumerate()
            {
                lines[axis][i] = lines[axis][i].min(edges[0]);
                reach[axis][i] = reach[axis][i].max(edges[edges.len() - 1]);
            }
            totals[s] = l.total();
        }
        for (lines, reach) in lines.iter_mut().zip(&mut reach) {
            for i in 1..reach.len() {
                reach[i] = reach[i].max(reach[i - 1]);
            }
            lines.push(reach[reach.len() - 1]);
        }
        let (mut x_edges, mut y_edges) = (vec![0u32; slots], vec![0u32; slots]);
        let col_strips = Strips::build(
            &lattices,
            [cols, rows],
            |c, r| r * cols + c,
            |l| &l.xs,
            |l, k| l.sat.sum(0, 0, k, l.sat.rows()),
            &mut x_edges,
        )?;
        let row_strips = Strips::build(
            &lattices,
            [rows, cols],
            |r, c| r * cols + c,
            |l| &l.ys,
            |l, k| l.sat.sum(0, 0, l.sat.cols(), k),
            &mut y_edges,
        )?;
        let slots = (lattices.into_iter().enumerate())
            .map(|(s, lattice)| {
                lattice.map(|l| Slot {
                    sat: l.sat,
                    x_edges: x_edges[s],
                    y_edges: y_edges[s],
                })
            })
            .collect();
        let [xs, ys] = lines;
        let [x_reach, y_reach] = reach;
        Some(TwoLevelIndex {
            coarse: LatticeIndex {
                sat: crate::SummedAreaTable::new(cols, rows, &totals),
                xs,
                ys,
            },
            x_reach,
            y_reach,
            slots,
            strips: Box::new([col_strips, row_strips]),
        })
    }

    /// Coarse lattice shape as `(cols, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        self.coarse.shape()
    }

    /// Answers a query: one coarse prefix-sum lookup for the slots it
    /// fully covers, one strip lookup (or a short run's 2-D slot answers)
    /// per coarse column or row it cuts, and one 2-D slot answer per
    /// corner slot, cut on both axes.
    pub fn answer(&self, query: &Rect) -> f64 {
        self.answer_with_stats(query).0
    }

    /// [`TwoLevelIndex::answer`] plus the [`TwoLevelStats`] counting the
    /// slots it answered in 2-D and the strip groups it visited.
    pub fn answer_with_stats(&self, query: &Rect) -> (f64, TwoLevelStats) {
        let mut stats = TwoLevelStats::default();
        let (cols, _) = self.shape();
        let xs = &self.coarse.xs;
        let ys = &self.coarse.ys;
        let (touched_cols, full_cols) =
            slot_cover(&xs[..xs.len() - 1], &self.x_reach, query.x0(), query.x1());
        let (touched_rows, full_rows) =
            slot_cover(&ys[..ys.len() - 1], &self.y_reach, query.y0(), query.y1());
        // The touched block splits into the full block, the cut columns
        // over the full rows, the cut rows over the full columns, and
        // the corners: each slot counted once.
        let mut sum = self.coarse.sat.sum(
            full_cols.start,
            full_rows.start,
            full_cols.end,
            full_rows.end,
        );
        let cut_cols = (touched_cols.start..full_cols.start).chain(full_cols.end..touched_cols.end);
        let cut_rows = (touched_rows.start..full_rows.start).chain(full_rows.end..touched_rows.end);
        // A slot of a full row lies inside the query along y, drift
        // overhang included, so its x-marginal is all it needs; likewise
        // a slot of a full column along x. A strip visits all its groups,
        // and a 2-D slot answer costs about two group visits: a run
        // shorter than half its strip's groups is answered slot by slot.
        let [col_strips, row_strips] = &*self.strips;
        if !full_rows.is_empty() {
            for c in cut_cols.clone() {
                sum += if 2 * full_rows.len() < col_strips.groups(c) {
                    let mut answer = |r| self.slot_answer(r * cols + c, query, &mut stats);
                    full_rows.clone().map(&mut answer).sum()
                } else {
                    col_strips.mass(c, &full_rows, query.x0(), query.x1(), &mut stats)
                };
            }
        }
        if !full_cols.is_empty() {
            for r in cut_rows.clone() {
                sum += if 2 * full_cols.len() < row_strips.groups(r) {
                    let mut answer = |c| self.slot_answer(r * cols + c, query, &mut stats);
                    full_cols.clone().map(&mut answer).sum()
                } else {
                    row_strips.mass(r, &full_cols, query.y0(), query.y1(), &mut stats)
                };
            }
        }
        for r in cut_rows {
            for c in cut_cols.clone() {
                sum += self.slot_answer(r * cols + c, query, &mut stats);
            }
        }
        (sum, stats)
    }

    /// Slot `s`'s own 2-D answer to `query` (0 for an empty slot).
    #[inline]
    fn slot_answer(&self, s: usize, query: &Rect, stats: &mut TwoLevelStats) -> f64 {
        let Some(slot) = &self.slots[s] else {
            return 0.0;
        };
        stats.slots_2d += 1;
        let [col_strips, row_strips] = &*self.strips;
        let xs = &col_strips.blocks[slot.x_edges as usize..][..slot.sat.cols() + 1];
        let ys = &row_strips.blocks[slot.y_edges as usize..][..slot.sat.rows() + 1];
        lattice_answer(xs, ys, &slot.sat, query)
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.coarse.total()
    }

    /// Estimated resident size in bytes: the struct, the coarse lattice,
    /// the reach bounds, every slot's table and every strip.
    pub fn memory_bytes(&self) -> usize {
        let slot_heap: usize = (self.slots.iter().flatten())
            .map(|s| s.sat.memory_bytes() - std::mem::size_of::<crate::SummedAreaTable>())
            .sum();
        std::mem::size_of::<Self>() - std::mem::size_of::<LatticeIndex>()
            + self.coarse.memory_bytes()
            + (self.x_reach.len() + self.y_reach.len()) * std::mem::size_of::<f64>()
            + self.slots.len() * std::mem::size_of::<Option<Slot>>()
            + slot_heap
            + self.strips.iter().map(Strips::memory_bytes).sum::<usize>()
    }
}

/// An edge array as bit patterns: equal iff the arrays are bitwise
/// identical.
fn edge_bits(edges: &[f64]) -> impl Iterator<Item = u64> + '_ {
    edges.iter().map(|x| x.to_bits())
}

/// Per-axis slot ranges of the query interval `[q0, q1]` over coarse
/// slots with the given lower lines and reach bounds: `(touched, full)`.
///
/// `touched` holds every slot a cell of which can overlap the interval
/// (a superset: it may include a slot that turns out to contribute 0);
/// `full` holds only slots whose every cell lies inside it, judged by
/// the slot's lower line and its reach, so a cell overhanging its slot
/// by float drift never gets counted whole by mistake.
fn slot_cover(lower: &[f64], reach: &[f64], q0: f64, q1: f64) -> (Range<usize>, Range<usize>) {
    let t0 = reach.partition_point(|&e| e <= q0);
    let t1 = lower.partition_point(|&e| e < q1);
    // Both full bounds sit within a slot or two of the touched ones.
    let mut f0 = t0;
    while f0 < t1 && lower[f0] < q0 {
        f0 += 1;
    }
    let mut f1 = t1;
    while f1 > f0 && reach[f1 - 1] > q1 {
        f1 -= 1;
    }
    (t0..t1, f0..f1)
}

/// Deepest a [`CutTreeIndex`] grows before a part becomes a scan leaf,
/// which bounds the build's and every answer's recursion: a guillotine
/// spiral peels one cell per cut, so it nests as deep as it has cells.
const MAX_TREE_DEPTH: usize = 64;

/// The general path: the tree of the cuts no cell straddles (see the
/// module documentation). A node cut into more than 8 parts is searched
/// along its cut; fewer are visited in turn, which costs less.
#[derive(Debug, Clone, Default)]
pub struct CutTreeIndex {
    /// Every node, the root first; a node's children are contiguous.
    nodes: Vec<Node>,
    /// One per child of each searched node, its children's contiguous.
    runs: Vec<Run>,
    /// The cells of every scan leaf.
    cells: Vec<(Rect, f64)>,
}

/// A node: its cells' bounding box (a one-cell leaf's cell) and total.
#[derive(Debug, Clone, Copy)]
struct Node {
    rect: Rect,
    total: f64,
    kind: NodeKind,
}

#[derive(Debug, Clone, Copy)]
enum NodeKind {
    Cell,
    /// `Scan(start, end)`: cells `cells[start..end]`, answered one by one.
    Scan(u32, u32),
    /// `Split(axis, start, end, runs)`: children `nodes[start..end]`,
    /// ascending along `axis` (0 = x); if searched, from `runs[runs]` on.
    Split(u8, u32, u32, u32),
}

/// A searched child: its lower edge along the cut, the largest upper
/// edge along the cut of it and its earlier siblings (ascending even
/// where a cell overhangs a cut by the snap tolerance), and its earlier
/// siblings' totals summed.
#[derive(Debug, Clone, Copy)]
struct Run {
    lo: f64,
    reach: f64,
    before: f64,
}

/// Visit counts of one [`CutTreeIndex`] query, for tests of the bound
/// on what a query touches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CutTreeStats {
    /// Nodes whose box the answer tested.
    pub nodes_visited: usize,
    /// Nodes, and runs of siblings, added whole from their totals.
    pub nodes_absorbed: usize,
    /// Cells answered one by one.
    pub cells_answered: usize,
}

impl CutTreeIndex {
    /// Builds the tree. Degenerate (zero-area) cells are dropped: they
    /// cannot contribute to any query.
    pub fn build(cells: &[(Rect, f64)]) -> CutTreeIndex {
        CutTreeIndex::from_live(LiveCells::new(cells))
    }

    fn from_live(live: LiveCells) -> CutTreeIndex {
        let n = live.cells.len();
        let mut grower = Grower {
            live,
            slot: vec![0; n],
            spare: vec![(0, 0.0, 0); n],
            parts: Vec::new(),
            tree: CutTreeIndex::default(),
        };
        if let Some(&&(rect, total)) = grower.live.cells.first() {
            // The root's slot, and each child's until it is grown.
            let kind = NodeKind::Cell;
            grower.tree.nodes.push(Node { rect, total, kind });
            grower.tree.nodes[0] = grower.grow(0..n, None, 0);
        }
        let mut tree = grower.tree;
        // The arrays outlive the build: drop the spare capacity.
        tree.nodes.shrink_to_fit();
        tree.runs.shrink_to_fit();
        tree.cells.shrink_to_fit();
        tree
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Answers a query: the totals of the nodes inside it, and the cells
    /// of the leaves it cuts.
    pub fn answer(&self, query: &Rect) -> f64 {
        self.answer_with_stats(query).0
    }

    /// [`CutTreeIndex::answer`] plus its [`CutTreeStats`].
    pub fn answer_with_stats(&self, query: &Rect) -> (f64, CutTreeStats) {
        let (mut sum, mut stats) = (0.0, CutTreeStats::default());
        if let Some(root) = self.nodes.first() {
            self.visit(root, query, &mut sum, &mut stats);
        }
        (sum, stats)
    }

    fn visit(&self, node: &Node, query: &Rect, sum: &mut f64, stats: &mut CutTreeStats) {
        stats.nodes_visited += 1;
        if !node.rect.intersects(query) {
            return;
        }
        if query.contains_rect(&node.rect) {
            stats.nodes_absorbed += 1;
            *sum += node.total;
            return;
        }
        let (axis, children, runs) = match node.kind {
            NodeKind::Cell => {
                stats.cells_answered += 1;
                *sum += node.total * node.rect.overlap_fraction(query);
                return;
            }
            NodeKind::Scan(start, end) => {
                for (r, v) in &self.cells[start as usize..end as usize] {
                    stats.cells_answered += 1;
                    *sum += v * r.overlap_fraction(query);
                }
                return;
            }
            NodeKind::Split(axis, start, end, runs) => (axis, start as usize..end as usize, runs),
        };
        let (axis, children) = (axis as usize, &self.nodes[children]);
        // The children the query touches, and the run of them inside it.
        let (mut touched, mut inside) = (0..children.len(), 0..0);
        if children.len() > SEARCHED_SLOTS {
            let runs = &self.runs[runs as usize..][..children.len()];
            let (q0, q1) = span(query, axis);
            touched = runs.partition_point(|r| r.reach <= q0)..runs.partition_point(|r| r.lo < q1);
            inside = touched.start..touched.start;
            // Only where the node lies inside the query across its cut
            // does a run inside the query along the cut lie inside it.
            let ((n0, n1), (o0, o1)) = (span(&node.rect, 1 - axis), span(query, 1 - axis));
            if o0 <= n0 && n1 <= o1 {
                let first = touched.start + runs[touched.clone()].partition_point(|r| r.lo < q0);
                inside = first..runs.partition_point(|r| r.reach <= q1).max(first);
            }
            if let Some(last) = inside.clone().last() {
                stats.nodes_absorbed += 1;
                *sum += runs[last].before + children[last].total - runs[inside.start].before;
            }
        }
        let mut visit = |child| self.visit(child, query, sum, stats);
        children[touched.start..inside.start]
            .iter()
            .for_each(&mut visit);
        children[inside.end..touched.end].iter().for_each(visit);
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.nodes.first().map_or(0.0, |root| root.total)
    }

    /// Estimated resident size in bytes: the struct and its arrays.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.nodes.len() * std::mem::size_of::<Node>()
            + self.runs.len() * std::mem::size_of::<Run>()
            + self.cells.len() * std::mem::size_of::<(Rect, f64)>()
    }
}

/// The state of one [`CutTreeIndex::build`].
struct Grower<'a> {
    /// Each part owns one range, the same in both orders: a split
    /// reorders the order across its cut by part, stably, so both stay
    /// sorted within every part.
    live: LiveCells<'a>,
    /// Each cell's part in the split being made.
    slot: Vec<u32>,
    /// Scratch for the reorder.
    spare: Vec<Span>,
    /// Where each part of each split on the path from the root ends in
    /// its range.
    parts: Vec<usize>,
    tree: CutTreeIndex,
}

impl Grower<'_> {
    /// The node over the cells at `range` of both orders, `depth` cuts
    /// below the root, whose parent was cut along `cut`.
    fn grow(&mut self, range: Range<usize>, cut: Option<usize>, depth: usize) -> Node {
        if let &[(_, _, one)] = &self.live.order[0][range.clone()] {
            let (rect, total) = *self.live.cells[one as usize];
            let kind = NodeKind::Cell;
            return Node { rect, total, kind };
        }
        // A line along the parent's cut that no cell of this part
        // straddles would have been one of the parent's cuts.
        let axes = cut.map_or(0..2, |cut| 1 - cut..2 - cut);
        for axis in axes.filter(|_| depth < MAX_TREE_DEPTH) {
            let slot = &mut self.slot;
            if self.live.sweep(axis, range.clone(), |i, s| slot[i] = s) > 1 {
                return self.split(range, axis, depth);
            }
        }
        let start = self.tree.cells.len();
        let members = self.live.order[0][range].iter();
        (self.tree.cells).extend(members.map(|s| *self.live.cells[s.2 as usize]));
        let (cells, end) = (&self.tree.cells[start..], self.tree.cells.len());
        Node {
            rect: bounding_box(cells.iter().map(|(r, _)| r)),
            total: cells.iter().map(|(_, v)| v).sum(),
            kind: NodeKind::Scan(start as u32, end as u32),
        }
    }

    /// The node over the cells at `range`, cut into the parts the sweep
    /// along `axis` just made.
    fn split(&mut self, range: Range<usize>, axis: usize, depth: usize) -> Node {
        // Each part is one run of `axis`' order: find where each starts,
        // then reorder the other order's range by part, advancing each
        // start to where its part ends.
        let (base, along) = (self.parts.len(), &self.live.order[axis][range.clone()]);
        let slot = |p: usize| self.slot[along[p].2 as usize];
        (self.parts).extend((0..along.len()).filter(|&p| p == 0 || slot(p) != slot(p - 1)));
        let across = &mut self.live.order[1 - axis][range.clone()];
        for &span in across.iter() {
            let next = &mut self.parts[base + self.slot[span.2 as usize] as usize];
            self.spare[*next] = span;
            *next += 1;
        }
        across.copy_from_slice(&self.spare[..across.len()]);
        let (count, first) = (self.parts.len() - base, self.tree.nodes.len());
        (self.tree.nodes).resize(first + count, self.tree.nodes[0]);
        let mut start = range.start;
        for c in 0..count {
            let end = range.start + self.parts[base + c];
            self.tree.nodes[first + c] = self.grow(start..end, Some(axis), depth + 1);
            start = end;
        }
        let children = &self.tree.nodes[first..first + count];
        let (runs, mut before, mut reach) = (self.tree.runs.len(), 0.0, f64::NEG_INFINITY);
        for child in children.iter().filter(|_| count > SEARCHED_SLOTS) {
            let (lo, hi) = span(&child.rect, axis);
            reach = reach.max(hi);
            self.tree.runs.push(Run { lo, reach, before });
            before += child.total;
        }
        self.parts.truncate(base);
        let (end, runs) = ((first + count) as u32, runs as u32);
        Node {
            rect: bounding_box(children.iter().map(|c| &c.rect)),
            total: children.iter().map(|c| c.total).sum(),
            kind: NodeKind::Split(axis as u8, first as u32, end, runs),
        }
    }
}

/// The bounding box of a non-empty sequence of rects.
fn bounding_box<'a>(rects: impl Iterator<Item = &'a Rect>) -> Rect {
    let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
    for r in rects {
        lo = [lo[0].min(r.x0()), lo[1].min(r.y0())];
        hi = [hi[0].max(r.x1()), hi[1].max(r.y1())];
    }
    Rect::new(lo[0], lo[1], hi[0], hi[1]).expect("the bounding box of rects is a rect")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseGrid, Domain};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference semantics: the linear scan every index must match.
    fn linear_scan(cells: &[(Rect, f64)], q: &Rect) -> f64 {
        cells.iter().map(|(r, v)| v * r.overlap_fraction(q)).sum()
    }

    fn uniform_cells(cols: usize, rows: usize) -> Vec<(Rect, f64)> {
        let domain = Domain::from_corners(0.0, 0.0, 10.0, 6.0).unwrap();
        let grid = DenseGrid::from_fn(domain, cols, rows, |c, r| {
            ((c * 31 + r * 17) % 13) as f64 - 4.0
        })
        .unwrap();
        grid.iter_cells().map(|(_, _, rect, v)| (rect, v)).collect()
    }

    /// An AG-like two-level partition: a 4×4 top grid, each top cell
    /// subdivided into its own k×k subgrid.
    fn adaptive_cells() -> Vec<(Rect, f64)> {
        let domain = Domain::from_corners(-2.0, 1.0, 6.0, 9.0).unwrap();
        let mut cells = Vec::new();
        for row in 0..4 {
            for col in 0..4 {
                let parent = domain.cell_rect(4, 4, col, row);
                let k = 1 + (col * 5 + row * 3) % 4;
                for sr in 0..k {
                    for sc in 0..k {
                        let cell = parent.grid_cell(k, k, sc, sr);
                        cells.push((cell, ((sc + sr + col + row) as f64) - 2.5));
                    }
                }
            }
        }
        cells
    }

    fn query_mix(domain: &Rect) -> Vec<Rect> {
        let (x0, y0, x1, y1) = (domain.x0(), domain.y0(), domain.x1(), domain.y1());
        let w = domain.width();
        let h = domain.height();
        vec![
            // Domain-spanning.
            *domain,
            Rect::new(x0 - w, y0 - h, x1 + w, y1 + h).unwrap(),
            // Slivers.
            Rect::new(x0 + 0.499 * w, y0, x0 + 0.501 * w, y1).unwrap(),
            Rect::new(x0, y0 + 0.1 * h, x1, y0 + 0.1001 * h).unwrap(),
            // Interior boxes.
            Rect::new(x0 + 0.25 * w, y0 + 0.25 * h, x0 + 0.75 * w, y0 + 0.5 * h).unwrap(),
            Rect::new(x0 + 0.1 * w, y0 + 0.6 * h, x0 + 0.2 * w, y0 + 0.9 * h).unwrap(),
            // Misses.
            Rect::new(x1 + 1.0, y1 + 1.0, x1 + 2.0, y1 + 2.0).unwrap(),
            Rect::new(x0 - 3.0, y0, x0 - 1.0, y1).unwrap(),
        ]
    }

    fn assert_matches_scan(cells: &[(Rect, f64)], index: &CellIndex, queries: &[Rect]) {
        for q in queries {
            let expect = linear_scan(cells, q);
            let got = index.answer(q);
            assert!(
                (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                "query {q:?}: index {got} vs scan {expect}"
            );
        }
    }

    #[test]
    fn uniform_grid_compiles_to_lattice() {
        let cells = uniform_cells(16, 12);
        let index = CellIndex::build(&cells);
        assert!(matches!(index, CellIndex::Lattice(_)));
        let domain = Rect::new(0.0, 0.0, 10.0, 6.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
        assert!((index.total() - linear_scan(&cells, &domain)).abs() < 1e-9);
    }

    #[test]
    fn adaptive_partition_compiles_and_matches() {
        let cells = adaptive_cells();
        let index = CellIndex::build(&cells);
        let domain = Rect::new(-2.0, 1.0, 6.0, 9.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    #[test]
    fn cut_tree_matches_on_irregular_partition() {
        // KD-like vertical strips of differing heights, built straight
        // into the cut tree.
        let cells = adaptive_cells();
        let index = CellIndex::CutTree(CutTreeIndex::build(&cells));
        let domain = Rect::new(-2.0, 1.0, 6.0, 9.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    #[test]
    fn random_queries_agree_on_both_paths() {
        let cells = adaptive_cells();
        let lattice = CellIndex::build(&cells);
        let tree = CellIndex::CutTree(CutTreeIndex::build(&cells));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..500 {
            let ax = rng.random_range(-3.0..7.0);
            let ay = rng.random_range(0.0..10.0);
            let w = rng.random_range(0.0..8.0);
            let h = rng.random_range(0.0..8.0);
            let q = Rect::new(ax, ay, ax + w, ay + h).unwrap();
            let expect = linear_scan(&cells, &q);
            for index in [&lattice, &tree] {
                let got = index.answer(&q);
                assert!(
                    (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                    "query {q:?}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn single_cell_and_empty_inputs() {
        let empty = CellIndex::build(&[]);
        assert_eq!(empty.answer(&Rect::new(0.0, 0.0, 1.0, 1.0).unwrap()), 0.0);
        assert_eq!(empty.total(), 0.0);

        let one = vec![(Rect::new(0.0, 0.0, 2.0, 2.0).unwrap(), 8.0)];
        let index = CellIndex::build(&one);
        let q = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!((index.answer(&q) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cells_are_ignored() {
        let cells = vec![
            (Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(), 4.0),
            (Rect::new(1.0, 0.0, 1.0, 1.0).unwrap(), 99.0), // zero width
        ];
        let index = CellIndex::build(&cells);
        let q = Rect::new(0.0, 0.0, 2.0, 1.0).unwrap();
        assert!((index.answer(&q) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cells_do_not_inflate_the_lattice() {
        // A zero-area cell with off-lattice coordinates (even outside
        // the live bounding box) must not add lattice lines or stretch
        // the slot grid.
        let mut cells = uniform_cells(8, 8);
        cells.push((Rect::new(-5.0, 3.33, -5.0, 7.77).unwrap(), 42.0));
        match LatticeIndex::try_build(&cells) {
            Some(lattice) => assert_eq!(lattice.shape(), (8, 8)),
            None => panic!("lattice path must still engage"),
        }
    }

    #[test]
    fn clearly_distinct_lines_do_not_snap() {
        // Rows 1e-6 apart overlap by far more than the snap tolerance: no
        // line separates them, so the tree is one scan leaf. A row that
        // overhangs the next by a few ULPs is cut from it.
        let domain = Rect::new(0.0, 0.0, 1.0, 2.0).unwrap();
        let apart = vec![
            (Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(), 1.0),
            (Rect::new(0.0, 1e-6, 1.0, 1.0 + 1e-6).unwrap(), 2.0),
        ];
        let drifted = vec![
            (
                Rect::new(0.0, 0.0, 1.0, 1.0 + 4.0 * f64::EPSILON).unwrap(),
                1.0,
            ),
            (Rect::new(0.0, 1.0, 1.0, 2.0).unwrap(), 2.0),
        ];
        for (cells, nodes) in [(apart, 1), (drifted, 3)] {
            let index = CutTreeIndex::build(&cells);
            assert_eq!(index.node_count(), nodes);
            assert_matches_scan(&cells, &CellIndex::CutTree(index), &query_mix(&domain));
        }
    }

    #[test]
    fn overlapping_cells_fall_back_to_scan_semantics() {
        // Not a partition: two cells overlap. The index must still match
        // the linear scan (no cut separates them: a scan leaf).
        let cells = vec![
            (Rect::new(0.0, 0.0, 2.0, 1.0).unwrap(), 4.0),
            (Rect::new(1.0, 0.0, 3.0, 1.0).unwrap(), 2.0),
        ];
        let index = CellIndex::CutTree(CutTreeIndex::build(&cells));
        let domain = Rect::new(0.0, 0.0, 3.0, 1.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    #[test]
    fn lattice_declines_oversized_blowup() {
        // n cells whose edges induce an O(n²) lattice: staircase of
        // offset rows. try_build must decline. Each row is a coarse
        // slot split into its own two cells — a two-level partition — so
        // CellIndex takes the two-level index: never the O(n²) lattice,
        // and memory linear in n.
        let staircase = |n: usize| {
            let mut cells = Vec::new();
            for i in 0..n {
                let y0 = i as f64;
                // Each row split at a unique offset.
                let split = 0.3 + 9.0 * (i as f64) / n as f64;
                cells.push((Rect::new(0.0, y0, split, y0 + 1.0).unwrap(), 1.0));
                cells.push((Rect::new(split, y0, 10.0, y0 + 1.0).unwrap(), 2.0));
            }
            cells
        };
        let mut bytes = Vec::new();
        for n in [64, 256] {
            let cells = staircase(n);
            assert!(LatticeIndex::try_build(&cells).is_none());
            let index = CellIndex::build(&cells);
            assert!(matches!(index, CellIndex::TwoLevel(_)), "n = {n}");
            let domain = Rect::new(0.0, 0.0, 10.0, n as f64).unwrap();
            assert_matches_scan(&cells, &index, &query_mix(&domain));
            bytes.push(index.memory_bytes());
        }
        // 4x the cells: at most ~4x the bytes (an O(n²) lattice would
        // take 16x).
        assert!(
            bytes[1] <= 4 * bytes[0] + 1024,
            "memory {bytes:?} grows faster than the cell count"
        );
    }

    #[test]
    fn sampled_decline_agrees_with_the_full_check() {
        // Above `LATTICE_SAMPLE_CELLS` cells, try_build first checks an
        // evenly spread sample against the cap. A grid fits either way.
        let grid = uniform_cells(100, 60);
        let shape = LatticeIndex::try_build(&grid).map(|l| l.shape());
        assert_eq!(shape, Some((100, 60)));
        // Every third cell a grid cell, the rest a staircase above it:
        // the stride-3 sample sees only the grid and fits the cap, but
        // the full lattice does not, so the full check must decline.
        let grid = uniform_cells(60, 50);
        let stairs: Vec<(Rect, f64)> = staircase_cells(3000)
            .into_iter()
            .map(|(r, v)| {
                (
                    Rect::new(r.x0(), r.y0() + 6.0, r.x1(), r.y1() + 6.0).unwrap(),
                    v,
                )
            })
            .collect();
        let mut cells = Vec::new();
        for (i, cell) in grid.iter().enumerate() {
            cells.push(*cell);
            cells.extend_from_slice(&stairs[2 * i..2 * i + 2]);
        }
        assert_eq!(cells.len().div_ceil(LATTICE_SAMPLE_CELLS), 3);
        assert!(LatticeIndex::try_build(&cells).is_none());
        let index = CellIndex::build(&cells);
        let domain = Rect::new(0.0, 0.0, 10.0, 3006.0).unwrap();
        assert_matches_scan(&cells, &index, &query_mix(&domain));
    }

    /// KD-like staircase partition: `n` rows, each split at a unique x
    /// offset, so no affordable lattice exists: the cut tree's root is
    /// cut into the `n` rows, and each row into its two cells.
    fn staircase_cells(n: usize) -> Vec<(Rect, f64)> {
        let mut cells = Vec::new();
        for i in 0..n {
            let y0 = i as f64;
            let split = 0.3 + 9.0 * (i as f64) / n as f64;
            cells.push((
                Rect::new(0.0, y0, split, y0 + 1.0).unwrap(),
                (i % 7) as f64 - 2.0,
            ));
            cells.push((Rect::new(split, y0, 10.0, y0 + 1.0).unwrap(), 2.0));
        }
        cells
    }

    #[test]
    fn cut_tree_absorbs_wide_queries() {
        // A query fully covering the interior rows and half-covering the
        // first and last one: the interior run must be added from the
        // rows' prefix totals, leaving only the two rim rows' leaves
        // answered.
        let n = 256;
        let cells = staircase_cells(n);
        let index = CutTreeIndex::build(&cells);
        assert_eq!(index.node_count(), 1 + 3 * n, "the root, n rows, 2n leaves");
        let wide = Rect::new(-1.0, 0.5, 11.0, n as f64 - 0.5).unwrap();
        let (got, stats) = index.answer_with_stats(&wide);
        let expect = linear_scan(&cells, &wide);
        assert!(
            (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
            "wide query: {got} vs {expect}"
        );
        assert_eq!(
            stats.cells_answered, 4,
            "only the rim rows' leaves may be answered"
        );
        assert!(
            stats.nodes_absorbed >= 1,
            "interior rows must be added from their prefix totals"
        );
        // A query covering everything absorbs at the root: one visit.
        let all = Rect::new(-1.0, -1.0, 11.0, n as f64 + 1.0).unwrap();
        let (got, stats) = index.answer_with_stats(&all);
        assert!((got - index.total()).abs() <= 1e-9 * (1.0 + index.total().abs()));
        assert_eq!(stats.nodes_visited, 1);
        assert_eq!(stats.nodes_absorbed, 1);
        assert_eq!(stats.cells_answered, 0);
    }

    #[test]
    fn cut_tree_visits_grow_logarithmically() {
        // Quadrupling the row count must grow the visited-node count by
        // O(log) at most, while the answered cells stay the two rim
        // rows' leaves.
        let mut visited_by_n = Vec::new();
        for n in [64usize, 256, 1024] {
            let cells = staircase_cells(n);
            let index = CutTreeIndex::build(&cells);
            let wide = Rect::new(-1.0, 0.5, 11.0, n as f64 - 0.5).unwrap();
            let (got, stats) = index.answer_with_stats(&wide);
            let expect = linear_scan(&cells, &wide);
            assert!((got - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
            assert_eq!(stats.cells_answered, 4, "n = {n}");
            let log2n = n.ilog2() as usize;
            assert!(
                stats.nodes_visited <= 6 * log2n,
                "n = {n}: visited {} nodes, want O(log n)",
                stats.nodes_visited
            );
            visited_by_n.push(stats.nodes_visited);
        }
        // Each 4x step in rows may add at most ~4 levels of the walk
        // (two root-to-rim paths, two levels per 4x).
        for w in visited_by_n.windows(2) {
            assert!(
                w[1] <= w[0] + 16,
                "visited counts {visited_by_n:?} grow super-logarithmically"
            );
        }
    }

    #[test]
    fn cut_tree_matches_scan_on_adversarial_sets() {
        // The absorb path must stay faithful on irregular and
        // overlapping (non-partition) inputs, including queries whose
        // edges coincide with row and cell boundaries.
        let mut adversarial = staircase_cells(48);
        // Overlapping extras: break the disjointness invariant.
        adversarial.push((Rect::new(2.0, 3.0, 9.0, 11.5).unwrap(), 5.0));
        adversarial.push((Rect::new(1.0, 3.0, 4.0, 11.5).unwrap(), -3.0));
        for cells in [adaptive_cells(), adversarial] {
            let index = CutTreeIndex::build(&cells);
            let bbox = cells
                .iter()
                .fold(None::<Rect>, |acc, (r, _)| {
                    Some(match acc {
                        None => *r,
                        Some(b) => Rect::new(
                            b.x0().min(r.x0()),
                            b.y0().min(r.y0()),
                            b.x1().max(r.x1()),
                            b.y1().max(r.y1()),
                        )
                        .unwrap(),
                    })
                })
                .unwrap();
            let (x0, y0, x1, y1) = (bbox.x0(), bbox.y0(), bbox.x1(), bbox.y1());
            let (w, h) = (bbox.width(), bbox.height());
            let wrapped = CellIndex::CutTree(index);
            let mut queries = query_mix(&bbox);
            queries.extend([
                // Wide interiors hitting the absorb path.
                Rect::new(x0 - 1.0, y0 + 0.1 * h, x1 + 1.0, y1 - 0.1 * h).unwrap(),
                Rect::new(x0 + 0.05 * w, y0 - 1.0, x1 - 0.05 * w, y1 + 1.0).unwrap(),
                // Row-aligned edges: absorb boundaries exactly on y0/y1.
                Rect::new(x0, y0 + 1.0, x1, y1 - 1.0).unwrap(),
            ]);
            assert_matches_scan(&cells, &wrapped, &queries);
        }
    }

    #[test]
    fn located_edges_reconstruct_the_clipped_interval() {
        // Five slots are searched; with four more, the slots are
        // guessed, and the 1e-9-wide slot throws the guess off by more
        // than one slot for q in (2.5 + 1e-9, 4): at q = 3 it guesses
        // slot 1, so the fallback search runs too.
        let short = vec![0.0, 1.0, 2.5, 2.5 + 1e-9, 7.0, 10.0];
        let long = [&short[..], &[11.0, 12.0, 13.0, 14.0]].concat();
        for edges in [short, long] {
            let end = edges[edges.len() - 1];
            let at = |(slot, f): (usize, f64)| {
                assert!(slot < edges.len() - 1 && (0.0..=1.0).contains(&f));
                edges[slot] + f * (edges[slot + 1] - edges[slot])
            };
            for (q0, q1) in [
                (0.0, 10.0),
                (0.5, 9.0),
                (1.2, 2.1),
                (2.5, 7.0),
                (-5.0, 50.0),
                (2.5 + 5e-10, 3.0),
            ] {
                let (a, b) = (locate(&edges, q0), locate(&edges, q1));
                assert!(a.0 <= b.0, "({q0},{q1}): slots {a:?} {b:?}");
                let covered = at(b) - at(a);
                let expect = q1.min(end) - q0.max(0.0);
                assert!(
                    (covered - expect).abs() < 1e-9,
                    "({q0},{q1}): covered {covered} expect {expect}"
                );
            }
            assert_eq!(locate(&edges, 3.0).0, 3);
        }
        // On an equi-width lattice far from the origin, every query,
        // lattice lines included, lands in a slot whose edges bound it.
        let even: Vec<f64> = (0..=45).map(|i| 500_000.0 + 250.0 * i as f64).collect();
        for k in 0..=4500 {
            let q = 500_000.0 + 2.5 * k as f64;
            let (slot, f) = locate(&even, q);
            assert!(
                even[slot] <= q && q <= even[slot + 1],
                "q = {q}: slot {slot}"
            );
            assert!((even[slot] + f * 250.0 - q).abs() < 1e-9);
        }
    }

    #[test]
    fn tiny_queries_far_from_the_origin_keep_their_digits() {
        // A 45 × 45 lattice at UTM-like coordinates holding ~3.6e9, so
        // its prefix sums reach 3.6e9 while a query inside one slot
        // answers a few hundred at most. Differencing four interpolated
        // prefix sums loses ~3e-10 of such an answer.
        let (x0, y0, w, h) = (431_250.0, 4_512_500.0, 222.25, 247.5);
        let mut rng = StdRng::seed_from_u64(45);
        let cells: Vec<(Rect, f64)> = (0..45 * 45)
            .map(|i| {
                let (c, r) = ((i % 45) as f64, (i / 45) as f64);
                let rect = Rect::new(
                    x0 + c * w,
                    y0 + r * h,
                    x0 + (c + 1.0) * w,
                    y0 + (r + 1.0) * h,
                )
                .unwrap();
                (rect, rng.random_range(0.5e6..3.0e6))
            })
            .collect();
        let index = CellIndex::build(&cells);
        assert!(matches!(index, CellIndex::Lattice(_)));
        assert!((3.0e9..4.2e9).contains(&index.total()));
        let mut worst: f64 = 0.0;
        for _ in 0..2_000 {
            let (c, r) = (rng.random_range(0..45), rng.random_range(0..45));
            let (cx, cy) = (x0 + c as f64 * w, y0 + r as f64 * h);
            let (qw, qh) = (
                w * rng.random_range(1e-4..0.3),
                h * rng.random_range(1e-4..0.3),
            );
            let qx = cx + rng.random_range(0.0..w - qw);
            let qy = cy + rng.random_range(0.0..h - qh);
            let q = Rect::new(qx, qy, qx + qw, qy + qh).unwrap();
            let scan = linear_scan(&cells, &q);
            worst = worst.max((index.answer(&q) - scan).abs() / (1.0 + scan.abs()));
        }
        assert!(worst <= 1e-12, "worst relative error {worst:e}");
    }

    /// Ascending cut positions from `lo` to `hi` splitting it into `n`
    /// parts of random, unequal widths.
    fn random_cuts(rng: &mut StdRng, lo: f64, hi: f64, n: usize) -> Vec<f64> {
        let mut weights: Vec<f64> = (0..n).map(|_| rng.random_range(0.3..2.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut cuts = vec![lo];
        let mut acc = 0.0;
        for w in weights.iter_mut().take(n - 1) {
            acc += *w;
            cuts.push(lo + (hi - lo) * acc / total);
        }
        cuts.push(hi);
        cuts
    }

    /// A random two-level partition: coarse columns and rows of unequal
    /// widths, each slot split into its own `k × l` grid (1×1 up to
    /// non-square, unequal sub-widths) or left empty, with values of
    /// both signs. With `one_per_slot`, every slot is one cell. Returns
    /// the cells and every edge used, for aligned queries.
    fn two_level_cells(seed: u64, one_per_slot: bool) -> (Vec<(Rect, f64)>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cols, rows) = (rng.random_range(1..7usize), rng.random_range(1..7usize));
        let xs = random_cuts(&mut rng, -3.0, 17.0, cols);
        let ys = random_cuts(&mut rng, 2.0, 9.0, rows);
        let (mut all_x, mut all_y) = (xs.clone(), ys.clone());
        let mut cells = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let (k, l) = if one_per_slot {
                    (1, 1)
                } else if rng.random_range(0..8) == 0 {
                    continue; // empty slot
                } else {
                    (rng.random_range(1..5usize), rng.random_range(1..5usize))
                };
                let sub_x = random_cuts(&mut rng, xs[c], xs[c + 1], k);
                let sub_y = random_cuts(&mut rng, ys[r], ys[r + 1], l);
                for j in 0..l {
                    for i in 0..k {
                        let rect = Rect::new(sub_x[i], sub_y[j], sub_x[i + 1], sub_y[j + 1]);
                        cells.push((rect.unwrap(), rng.random_range(-20.0..40.0)));
                    }
                }
                all_x.extend_from_slice(&sub_x);
                all_y.extend_from_slice(&sub_y);
            }
        }
        (cells, all_x, all_y)
    }

    /// A random AG-shaped partition (see [`ag_cells`]): `m₁ × m₁`
    /// first-level cells over a random domain, each split `m₂ × m₂` with
    /// `m₂` drawn from {1, 2, 3}, so the slots of one column or row that
    /// share `m₂` share their edges across it. Returns the cells and
    /// every edge, and adds to `queries` rects with edges on first-level
    /// lines and rects inside one first-level cell.
    fn ag_shaped_cells(
        seed: u64,
        queries: &mut Vec<Rect>,
    ) -> (Vec<(Rect, f64)>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA6);
        let (x0, y0) = (rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0));
        let (w, h) = (rng.random_range(1.0..30.0), rng.random_range(1.0..30.0));
        let domain = Domain::from_corners(x0, y0, x0 + w, y0 + h).unwrap();
        let m1 = rng.random_range(2..10usize);
        let salt = rng.random_range(0..1000usize);
        let (cells, xs, ys) = ag_cells(domain, m1, |c, r| 1 + (c * 7 + r * 13 + salt) % 3);
        for _ in 0..20 {
            let mut pick =
                || domain.cell_rect(m1, m1, rng.random_range(0..m1), rng.random_range(0..m1));
            let (a, b) = (pick(), pick());
            queries.push(
                Rect::new(
                    a.x0().min(b.x0()),
                    a.y0().min(b.y0()),
                    a.x1().max(b.x1()),
                    a.y1().max(b.y1()),
                )
                .unwrap(),
            );
            let (sx, sy) = (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            let (ex, ey) = (rng.random_range(sx..1.0), rng.random_range(sy..1.0));
            let (qx0, qy0) = (a.x0() + sx * a.width(), a.y0() + sy * a.height());
            let (qx1, qy1) = (a.x0() + ex * a.width(), a.y0() + ey * a.height());
            queries.push(Rect::new(qx0, qy0, qx1, qy1).unwrap());
        }
        (cells, xs, ys)
    }

    /// Random queries over `[x0, x1] × [y0, y1]` and beyond, half of them
    /// with edges snapped to given lattice lines.
    fn random_queries(seed: u64, xs: &[f64], ys: &[f64], count: usize) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let (x0, x1) = (xs[0], xs[xs.len() - 1]);
        let (y0, y1) = (ys[0], ys[ys.len() - 1]);
        (0..count)
            .map(|i| {
                let mut edge = |lines: &[f64], lo: f64, hi: f64| {
                    if i % 2 == 0 {
                        lines[rng.random_range(0..lines.len())]
                    } else {
                        rng.random_range(lo - 1.0..hi + 1.0)
                    }
                };
                let (a, b) = (edge(xs, x0, x1), edge(xs, x0, x1));
                let (c, d) = (edge(ys, y0, y1), edge(ys, y0, y1));
                Rect::new(a.min(b), c.min(d), a.max(b), c.max(d)).unwrap()
            })
            .collect()
    }

    proptest! {
        /// Random two-level partitions, and AG-shaped ones whose slots
        /// share edges, so strips have multi-member groups: the
        /// two-level index (and whichever path `CellIndex` picks)
        /// matches the linear scan, and one cell per slot compiles to
        /// the lattice, bit for bit what `LatticeIndex::try_build`
        /// answers.
        #[test]
        fn two_level_partitions_match_the_scan(seed in 0u64..1_000_000, shape in 0u8..5) {
            let one_per_slot = shape == 0;
            let mut queries = Vec::new();
            let (cells, xs, ys) = if shape == 4 {
                ag_shaped_cells(seed, &mut queries)
            } else {
                two_level_cells(seed, one_per_slot)
            };
            queries.extend(random_queries(seed, &xs, &ys, 40));
            let index = CellIndex::build(&cells);
            if cells.is_empty() {
                prop_assert!(TwoLevelIndex::try_build(&cells).is_none());
                return;
            }
            let two_level = CellIndex::TwoLevel(
                TwoLevelIndex::try_build(&cells).expect("a two-level partition compiles"),
            );
            assert_matches_scan(&cells, &two_level, &queries);
            assert_matches_scan(&cells, &index, &queries);
            if one_per_slot {
                prop_assert!(matches!(index, CellIndex::Lattice(_)));
                let lattice = LatticeIndex::try_build(&cells).expect("one cell per slot");
                for q in &queries {
                    prop_assert_eq!(index.answer(q).to_bits(), lattice.answer(q).to_bits());
                }
            }
        }
    }

    /// An AG-shaped partition exactly as `AdaptiveGrid` derives it:
    /// first-level cells `domain.cell_rect(m1, m1, ..)`, each split by
    /// `parent.grid_cell(m2, m2, ..)` with its own `m2`. Returns the
    /// cells and the first- and second-level lines along each axis.
    fn ag_cells(
        domain: Domain,
        m1: usize,
        m2: impl Fn(usize, usize) -> usize,
    ) -> (Vec<(Rect, f64)>, Vec<f64>, Vec<f64>) {
        let mut cells = Vec::new();
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for r in 0..m1 {
            for c in 0..m1 {
                let parent = domain.cell_rect(m1, m1, c, r);
                let k = m2(c, r);
                for sr in 0..k {
                    for sc in 0..k {
                        let leaf = parent.grid_cell(k, k, sc, sr);
                        xs.extend([leaf.x0(), leaf.x1()]);
                        ys.extend([leaf.y0(), leaf.y1()]);
                        let v = ((c * 7 + r * 3 + sc * 5 + sr) % 11) as f64 - 3.5;
                        cells.push((leaf, v));
                    }
                }
            }
        }
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        (cells, xs, ys)
    }

    /// [`TwoLevelIndex::from_nested_grids`] over the grids of an
    /// [`ag_cells`] partition: its leaf values, in order, taken `m2²`
    /// at a time per first-level cell.
    fn nested_grids_index(
        domain: Domain,
        m1: usize,
        m2: impl Fn(usize, usize) -> usize,
        cells: &[(Rect, f64)],
    ) -> TwoLevelIndex {
        let mut values = cells.iter().map(|(_, v)| *v);
        let grids: Vec<(usize, Vec<f64>)> = (0..m1 * m1)
            .map(|i| {
                let k = m2(i % m1, i / m1);
                (k, values.by_ref().take(k * k).collect())
            })
            .collect();
        TwoLevelIndex::from_nested_grids(domain.rect(), m1, |i| (grids[i].0, &grids[i].1))
            .expect("nested grids compile")
    }

    proptest! {
        /// Random AG-shaped grids, near the origin and at projected
        /// coordinates, with m₂ up to 6 so strips hold up to 6 groups:
        /// the direct build matches the scan, and wherever the sweep
        /// finds the same m₁ × m₁ lines it is `try_build` bit for bit.
        #[test]
        fn nested_grids_match_the_scan_and_the_sweep(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x2E5);
            let far = if seed % 2 == 0 { 0.0 } else { 1.0e6 };
            let (x0, y0) = (far + rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0));
            let (w, h) = (rng.random_range(1.0..30.0), rng.random_range(1.0..30.0));
            let domain = Domain::from_corners(x0, y0, x0 + w, y0 + h).unwrap();
            let m1 = rng.random_range(1..12usize);
            let m2s: Vec<usize> = (0..m1 * m1).map(|_| rng.random_range(1..7usize)).collect();
            let m2 = |c: usize, r: usize| m2s[r * m1 + c];
            let (mut cells, xs, ys) = ag_cells(domain, m1, m2);
            for (_, v) in &mut cells {
                *v = rng.random_range(-20.0..40.0);
            }
            let mut queries = random_queries(seed, &xs, &ys, 60);
            for _ in 0..20 {
                let (c, r) = (rng.random_range(0..m1), rng.random_range(0..m1));
                let parent = domain.cell_rect(m1, m1, c, r);
                let (sx, sy) = (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                let (ex, ey) = (rng.random_range(sx..1.0), rng.random_range(sy..1.0));
                let (qw, qh) = (parent.width(), parent.height());
                let (px, py) = (parent.x0(), parent.y0());
                // Inside one cell, and from inside it across a few more.
                queries.push(Rect::new(px + sx * qw, py + sy * qh, px + ex * qw, py + ey * qh).unwrap());
                let (dx, dy) = (rng.random_range(0.0..3.0), rng.random_range(0.0..3.0));
                queries.push(
                    Rect::new(px + sx * qw, py + sy * qh, px + (ex + dx) * qw, py + (ey + dy) * qh)
                        .unwrap(),
                );
            }
            let direct = nested_grids_index(domain, m1, m2, &cells);
            prop_assert_eq!(direct.shape(), (m1, m1));
            let swept = TwoLevelIndex::try_build(&cells).expect("an AG partition compiles");
            let same_lines = swept.shape() == (m1, m1);
            if same_lines {
                prop_assert_eq!(direct.memory_bytes(), swept.memory_bytes());
                for q in &queries {
                    prop_assert_eq!(direct.answer(q).to_bits(), swept.answer(q).to_bits());
                }
            }
            assert_matches_scan(&cells, &CellIndex::TwoLevel(direct), &queries);
        }
    }

    #[test]
    fn drifted_first_level_lines_far_from_the_origin_match_the_scan() {
        // Projected coordinates around 10⁶: `parent.x0 + w·i/m2` at
        // i = m2 lands a few ULPs off the parent's own far edge (past it
        // or short of it) wherever `w` is inexact, so leaves overhang or
        // fall short of the first-level lines. Whatever path the cells
        // land on, queries — including ones with edges exactly on
        // first-level lines and on drifted leaf edges — must match the
        // scan.
        let domain = Domain::from_corners(-4.0e5, 0.0, 1.3e6, 1.0e6).unwrap();
        let m1 = 13;
        let m2 = |c: usize, r: usize| 1 + (c * 5 + r * 3) % 7;
        let (cells, xs, ys) = ag_cells(domain, m1, m2);
        let (mut drift_x, mut drift_y) = (0, 0);
        for r in 0..m1 {
            for c in 0..m1 {
                let parent = domain.cell_rect(m1, m1, c, r);
                let k = m2(c, r);
                let last = parent.grid_cell(k, k, k - 1, k - 1);
                drift_x += usize::from(last.x1() != parent.x1());
                drift_y += usize::from(last.y1() != parent.y1());
            }
        }
        assert!(
            drift_x > 0 && drift_y > 0,
            "the fixture must drift on both axes to test anything"
        );
        let mut queries = random_queries(7, &xs, &ys, 200);
        for i in 0..m1 {
            // Exactly on first-level lines, spanning several parents.
            let a = domain.cell_rect(m1, m1, i, (i * 5) % m1);
            let b = domain.cell_rect(m1, m1, (i * 7) % m1, (i * 3) % m1);
            queries.push(
                Rect::new(
                    a.x0().min(b.x0()),
                    a.y0().min(b.y0()),
                    a.x1().max(b.x1()),
                    a.y1().max(b.y1()),
                )
                .unwrap(),
            );
        }
        let index = CellIndex::build(&cells);
        assert_matches_scan(&cells, &index, &queries);
        if let Some(index) = TwoLevelIndex::try_build(&cells) {
            assert_matches_scan(&cells, &CellIndex::TwoLevel(index), &queries);
        }
        let direct = nested_grids_index(domain, m1, m2, &cells);
        assert_eq!(direct.shape(), (m1, m1));
        assert_matches_scan(&cells, &CellIndex::TwoLevel(direct), &queries);
    }

    #[test]
    fn small_mixed_m2_grid_keeps_the_induced_lattice() {
        // A small AG whose leaves mix m2 = 1 and 2: the induced lattice
        // (8 × 8 slots for 40 cells) fits the cap, so it keeps the plain
        // lattice it has always had, answer for answer, even though it
        // is a two-level partition too.
        let domain = Domain::from_corners(-3.0, 1.0, 5.0, 7.0).unwrap();
        let (cells, xs, ys) = ag_cells(domain, 4, |c, r| 1 + (c + r) % 2);
        let index = CellIndex::build(&cells);
        let lattice = LatticeIndex::try_build(&cells).expect("the induced lattice fits");
        match &index {
            CellIndex::Lattice(l) => assert_eq!(l.shape(), lattice.shape()),
            other => panic!("expected the induced lattice, got {other:?}"),
        }
        assert!(TwoLevelIndex::try_build(&cells).is_some());
        for q in random_queries(3, &xs, &ys, 200) {
            assert_eq!(index.answer(&q).to_bits(), lattice.answer(&q).to_bits());
        }
    }

    #[test]
    fn two_level_memory_is_below_the_cut_tree() {
        // A large AG shape whose induced lattice exceeds the cap: every
        // slot lattice is counted, and the total stays under the cut
        // tree's.
        let domain = Domain::from_corners(0.0, 0.0, 60.0, 40.0).unwrap();
        let (cells, xs, ys) = ag_cells(domain, 40, |c, r| 1 + (c * 7 + r * 5) % 11);
        let index = CellIndex::build(&cells);
        let CellIndex::TwoLevel(two_level) = &index else {
            panic!("expected the two-level index, got {index:?}");
        };
        assert_eq!(two_level.shape(), (40, 40));
        let slots: usize = two_level
            .slots
            .iter()
            .flatten()
            .map(|s| s.sat.memory_bytes())
            .sum();
        assert!(two_level.memory_bytes() > slots + two_level.coarse.memory_bytes());
        assert!(index.memory_bytes() < CutTreeIndex::build(&cells).memory_bytes());
        assert_matches_scan(&cells, &index, &random_queries(11, &xs, &ys, 100));
    }

    #[test]
    fn two_level_rims_cost_four_corners_and_a_few_strip_groups() {
        // A wide query with its edges inside slots cuts O(m₁) rim slots.
        // Each cut line is one strip lookup over at most k groups (one per
        // m₂), and only the 4 corner slots are answered in 2-D, whatever
        // m₁ is. A small query's cut runs of 1 and 2 slots are shorter
        // than half their strips' 5 groups: it answers its 10 rim slots
        // in 2-D and visits no strip. The domain and m₁ are powers of
        // two, so no leaf drifts off a first-level line.
        let m2s = [1, 2, 3, 4, 5];
        let domain = Domain::from_corners(0.0, 0.0, 256.0, 256.0).unwrap();
        for m1 in [16usize, 64, 256] {
            let (cells, _, _) = ag_cells(domain, m1, |c, r| m2s[(c * 2 + r * 3) % m2s.len()]);
            let index = TwoLevelIndex::try_build(&cells).expect("an AG partition compiles");
            assert_eq!(index.shape(), (m1, m1));
            let w = 256.0 / m1 as f64;
            let wide = Rect::new(1.37 * w, 2.61 * w, 256.0 - 2.29 * w, 256.0 - 1.53 * w).unwrap();
            let small = Rect::new(3.5 * w, 5.5 * w, 6.5 * w, 7.5 * w).unwrap();
            let [(wide, wide_stats), (small, small_stats)] = [wide, small].map(|q| {
                let (got, stats) = index.answer_with_stats(&q);
                let expect = linear_scan(&cells, &q);
                assert!(
                    (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                    "m1 = {m1}, {q:?}: {got} vs {expect}"
                );
                (q, stats)
            });
            assert_eq!(wide_stats.slots_2d, 4, "m1 = {m1}, {wide:?}");
            assert!(
                wide_stats.strip_groups <= 4 * m2s.len(),
                "m1 = {m1}: {wide_stats:?}"
            );
            let expect = TwoLevelStats {
                slots_2d: 10,
                strip_groups: 0,
            };
            assert_eq!(small_stats, expect, "m1 = {m1}, {small:?}");
        }
    }

    /// A KD-tree-like tiling of `[0, 10]²`: `depth` rounds that split
    /// every cell in two at a random point, alternating x and y.
    fn kd_cells(seed: u64, depth: u32) -> Vec<(Rect, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rects = vec![Rect::new(0.0, 0.0, 10.0, 10.0).unwrap()];
        for level in 0..depth {
            let mut next = Vec::with_capacity(2 * rects.len());
            for r in rects {
                let t = rng.random_range(0.2..0.8);
                let halves = if level % 2 == 0 {
                    let x = r.x0() + t * r.width();
                    [(r.x0(), r.y0(), x, r.y1()), (x, r.y0(), r.x1(), r.y1())]
                } else {
                    let y = r.y0() + t * r.height();
                    [(r.x0(), r.y0(), r.x1(), y), (r.x0(), y, r.x1(), r.y1())]
                };
                next.extend(halves.map(|(a, b, c, d)| Rect::new(a, b, c, d).unwrap()));
            }
            rects = next;
        }
        (rects.into_iter().enumerate())
            .map(|(i, r)| (r, (i % 9) as f64 - 3.0))
            .collect()
    }

    /// A random KD-like partition of `rect`, pushed to `cells` with its
    /// edges: up to `depth` levels of splits, each along a random axis
    /// into 2 to 4 parts of unequal widths (multi-way, like a hybrid
    /// tree's quadtree levels), some parts left whole. With `pinwheels`,
    /// some leaves become the five cells of a [`pinwheel`].
    fn random_tree_cells(
        rng: &mut StdRng,
        rect: Rect,
        depth: u32,
        pinwheels: bool,
        cells: &mut (Vec<(Rect, f64)>, Vec<f64>, Vec<f64>),
    ) {
        if depth == 0 || rng.random_range(0..6) == 0 {
            let whirl = pinwheels && rng.random_range(0..4) == 0;
            for r in if whirl { pinwheel(&rect) } else { vec![rect] } {
                cells.1.extend([r.x0(), r.x1()]);
                cells.2.extend([r.y0(), r.y1()]);
                cells.0.push((r, rng.random_range(-20.0..40.0)));
            }
            return;
        }
        let along_x = rng.random_range(0..2) == 0;
        let (lo, hi) = if along_x {
            (rect.x0(), rect.x1())
        } else {
            (rect.y0(), rect.y1())
        };
        let parts = rng.random_range(2..5usize);
        for cut in random_cuts(rng, lo, hi, parts).windows(2) {
            let part = if along_x {
                Rect::new(cut[0], rect.y0(), cut[1], rect.y1())
            } else {
                Rect::new(rect.x0(), cut[0], rect.x1(), cut[1])
            };
            random_tree_cells(rng, part.unwrap(), depth - 1, pinwheels, cells);
        }
    }

    /// The five cells of a pinwheel tiling `r`: four arms around a centre
    /// cell, each arm crossing one of the lines a cut could take, so no
    /// line cuts them apart.
    fn pinwheel(r: &Rect) -> Vec<Rect> {
        let xs = [
            r.x0(),
            r.x0() + r.width() / 3.0,
            r.x1() - r.width() / 3.0,
            r.x1(),
        ];
        let ys = [
            r.y0(),
            r.y0() + r.height() / 3.0,
            r.y1() - r.height() / 3.0,
            r.y1(),
        ];
        [
            (0, 0, 2, 1),
            (2, 0, 3, 2),
            (1, 2, 3, 3),
            (0, 1, 1, 3),
            (1, 1, 2, 2),
        ]
        .map(|(a, b, c, d)| Rect::new(xs[a], ys[b], xs[c], ys[d]).unwrap())
        .to_vec()
    }

    proptest! {
        /// Random KD-like trees, near the origin and near x ≈ 1e6, a third
        /// of them with pinwheel leaves: the cut tree, and whichever path
        /// `CellIndex` picks, match the scan. A guillotine partition (no
        /// pinwheel) comes back as cuts alone, with no scan leaf.
        #[test]
        fn random_kd_trees_match_the_scan(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7EE);
            let far = if seed % 2 == 0 { 0.0 } else { 1.0e6 };
            let pinwheels = seed % 3 == 0;
            let (x0, y0) = (far + rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0));
            let (w, h) = (rng.random_range(1.0..30.0), rng.random_range(1.0..30.0));
            let rect = Rect::new(x0, y0, x0 + w, y0 + h).unwrap();
            let mut out = (Vec::new(), Vec::new(), Vec::new());
            random_tree_cells(&mut rng, rect, 6, pinwheels, &mut out);
            let (cells, mut xs, mut ys) = out;
            xs.sort_by(f64::total_cmp);
            ys.sort_by(f64::total_cmp);
            let mut queries = random_queries(seed, &xs, &ys, 60);
            queries.push(rect);
            let tree = CutTreeIndex::build(&cells);
            if !pinwheels {
                prop_assert!(tree.cells.is_empty(), "a guillotine partition needs no scan leaf");
            }
            assert_matches_scan(&cells, &CellIndex::CutTree(tree), &queries);
            assert_matches_scan(&cells, &CellIndex::build(&cells), &queries);
        }
    }

    /// A guillotine spiral of `n` cells: each cut peels one unit-wide
    /// cell off the left, bottom, right or top of what is left, in turn,
    /// so the cuts nest `n` deep. Returns the cells and their domain.
    fn spiral_cells(n: usize) -> (Vec<(Rect, f64)>, Rect) {
        let side = (n / 2 + 2) as f64;
        let domain = Rect::new(0.0, 0.0, side, side).unwrap();
        let [mut x0, mut y0, mut x1, mut y1] = [0.0, 0.0, side, side];
        let mut cells = Vec::with_capacity(n);
        for i in 0..n - 1 {
            let peel = match i % 4 {
                0 => [x0, y0, x0 + 1.0, y1],
                1 => [x0, y0, x1, y0 + 1.0],
                2 => [x1 - 1.0, y0, x1, y1],
                _ => [x0, y1 - 1.0, x1, y1],
            };
            match i % 4 {
                0 => x0 += 1.0,
                1 => y0 += 1.0,
                2 => x1 -= 1.0,
                _ => y1 -= 1.0,
            }
            let rect = Rect::new(peel[0], peel[1], peel[2], peel[3]).unwrap();
            cells.push((rect, (i % 5) as f64 + 1.0));
        }
        cells.push((Rect::new(x0, y0, x1, y1).unwrap(), 3.0));
        (cells, domain)
    }

    #[test]
    fn deep_spirals_build_and_answer_on_a_small_stack() {
        // A spiral's cuts nest as deep as it has cells. Past the depth
        // bound the rest is one scan leaf, so neither the build nor an
        // answer recurses deeper, on a 2 MiB thread stack too.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let (cells, domain) = spiral_cells(100_000);
                let tree = CutTreeIndex::build(&cells);
                assert_eq!(tree.node_count(), 1 + 2 * MAX_TREE_DEPTH);
                assert_eq!(tree.cells.len(), cells.len() - MAX_TREE_DEPTH);
                let index = CellIndex::build(&cells);
                assert!(matches!(index, CellIndex::CutTree(_)));
                assert_matches_scan(&cells, &index, &query_mix(&domain));
            })
            .expect("a 2 MiB thread starts")
            .join()
            .expect("the spiral builds and answers");
    }

    #[test]
    fn lower_edge_exit_declines_only_what_the_full_check_declines() {
        // `LatticeIndex::try_build` declines on the distinct lower edges
        // before it sorts the upper ones. On a tiling they are exactly the
        // lattice's shape; on any list the full check decides the rest.
        let live = |cells: &[(Rect, f64)]| -> Vec<(Rect, f64)> {
            cells
                .iter()
                .filter(|(r, _)| !r.is_empty())
                .copied()
                .collect()
        };
        let full_fits = |cells: &[(Rect, f64)]| {
            let live: Vec<&(Rect, f64)> = cells.iter().collect();
            let cols = collect_edges(&live, |r| r.x0(), |r| r.x1()).len() - 1;
            let rows = collect_edges(&live, |r| r.y0(), |r| r.y1()).len() - 1;
            cols * rows <= blowup_cap(live.len())
        };
        // Power-of-two sides: no leaf drifts off its first-level cell.
        let domain = Domain::from_corners(0.0, 0.0, 256.0, 128.0).unwrap();
        let tilings = [
            kd_cells(5, 10),
            staircase_cells(300),
            ag_cells(domain, 16, |c, r| 1 + (c * 7 + r * 5) % 11).0,
            ag_cells(domain, 4, |c, r| 1 + (c + r) % 2).0,
            uniform_cells(40, 30),
        ];
        let mut outcomes = Vec::new();
        for cells in &tilings {
            let refs: Vec<&(Rect, f64)> = cells.iter().collect();
            let lows = [lower_keys(&refs, |r| r.x0()), lower_keys(&refs, |r| r.y0())];
            let shape = [
                collect_edges(&refs, |r| r.x0(), |r| r.x1()).len() - 1,
                collect_edges(&refs, |r| r.y0(), |r| r.y1()).len() - 1,
            ];
            assert_eq!([lows[0].len(), lows[1].len()], shape);
            let fits = LatticeIndex::try_build(cells).is_some();
            assert_eq!(fits, full_fits(cells));
            outcomes.push(fits);
        }
        assert_eq!(outcomes, [false, false, false, true, true]);
        // Random two-level partitions leave slots empty, so they are not
        // tilings: the lower edges undercount, and the full check runs.
        for seed in 0..64 {
            for one_per_slot in [false, true] {
                let cells = live(&two_level_cells(seed, one_per_slot).0);
                if !cells.is_empty() {
                    let fits = LatticeIndex::try_build(&cells).is_some();
                    assert_eq!(fits, full_fits(&cells), "seed {seed}");
                }
            }
            let cells = ag_shaped_cells(seed, &mut Vec::new()).0;
            assert_eq!(LatticeIndex::try_build(&cells).is_some(), full_fits(&cells));
        }
    }
}
