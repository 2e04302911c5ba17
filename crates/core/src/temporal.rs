//! The time axis: epoch keys, window→epoch arithmetic, the one epoch
//! publishing lifecycle, and exact release merging for compaction.
//!
//! Streaming ingestion slices a point stream into fixed-length
//! **epochs**, and LDP collection seals its report tallies epoch by
//! epoch; both publish one release per epoch through the ordinary
//! [`crate::ReleaseSink`] path. Everything
//! temporal about such a release lives in its *key*, so catalogs,
//! engines, routers and the wire protocol carry epochs without
//! changes:
//!
//! * fine epoch `i` (the half-open interval `[i, i+1)` in epoch
//!   units) is published under `{keyspace}@epoch:{i}`;
//! * a compacted tier covering `[start, end)` is published under
//!   `{keyspace}@epoch:{start}-{end}`.
//!
//! [`epoch_key`] renders the grammar, [`parse_epoch_key`] inverts it,
//! and [`EpochRange`] is the typed half-open interval both sides
//! share. [`EpochLayout`] maps wall-clock timestamps onto epoch
//! indices and widens `[t0, t1)` windows **outward** to epoch
//! boundaries — the epoch-granularity contract: released surfaces
//! only exist per epoch, so a window query is answered over the
//! smallest epoch-aligned window containing it (never silently
//! narrowed).
//!
//! [`EpochPublisher`] is the lifecycle both kinds of epoch share: read
//! the epoch's ε share, build at it, charge it, publish under the epoch
//! key — in that order, with nothing fallible between the charge and
//! the publish.
//!
//! [`merge_releases`] is the compaction primitive: merging released
//! grids is privacy-free post-processing, and under the uniformity
//! answer model the merged release answers every rectangle exactly as
//! the sum of its constituents (the cells are overlaid on the common
//! refinement of all cut lines, so no mass is smeared across cell
//! boundaries). The merged ε is the *sum* of the constituents'
//! ε — sequential composition: each epoch's release read the same
//! users' data once more.

use dpgrid_geo::Rect;
use dpgrid_mech::{BudgetSchedule, MechError};

use crate::release::ReleaseMetadata;
use crate::{CoreError, Release, ReleaseSink, Result};

/// A half-open range of epoch indices `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EpochRange {
    /// First epoch covered.
    pub start: u64,
    /// One past the last epoch covered (always `> start`).
    pub end: u64,
}

impl EpochRange {
    /// The range `[start, end)`; `None` unless `start < end`.
    pub fn new(start: u64, end: u64) -> Option<Self> {
        (start < end).then_some(EpochRange { start, end })
    }

    /// The single-epoch range `[epoch, epoch + 1)`.
    ///
    /// # Panics
    /// For `epoch == u64::MAX` (the exclusive end would overflow).
    pub fn single(epoch: u64) -> Self {
        EpochRange {
            start: epoch,
            end: epoch.checked_add(1).expect("epoch index overflow"),
        }
    }

    /// Number of epochs covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Always `false`: ranges are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `epoch` lies inside the range.
    pub fn contains(&self, epoch: u64) -> bool {
        self.start <= epoch && epoch < self.end
    }

    /// Whether the two half-open ranges share at least one epoch.
    pub fn intersects(&self, other: &EpochRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether `other` lies entirely inside this range.
    pub fn contains_range(&self, other: &EpochRange) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

impl std::fmt::Display for EpochRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.len() == 1 {
            write!(f, "{}", self.start)
        } else {
            write!(f, "{}-{}", self.start, self.end)
        }
    }
}

/// Renders the epoch-key grammar: `{keyspace}@epoch:{i}` for a
/// single-epoch range, `{keyspace}@epoch:{start}-{end}` for a
/// compacted tier. [`parse_epoch_key`] inverts it.
pub fn epoch_key(keyspace: &str, range: EpochRange) -> String {
    format!("{keyspace}@epoch:{range}")
}

/// Parses an epoch-suffixed release key back into its keyspace and
/// [`EpochRange`]. Returns `None` for keys outside the grammar —
/// plain (non-temporal) release keys route through unchanged, so the
/// parser doubles as the "is this key temporal?" predicate.
///
/// The keyspace is everything before the *last* `@epoch:` marker, so
/// keyspaces containing the marker themselves still round-trip. The
/// keyspace must be non-empty, indices are strictly decimal `u64`s,
/// ranges must be non-empty, and a single epoch must not be
/// `u64::MAX` (its half-open end would overflow).
pub fn parse_epoch_key(key: &str) -> Option<(&str, EpochRange)> {
    let (keyspace, suffix) = key.rsplit_once("@epoch:")?;
    if keyspace.is_empty() {
        return None;
    }
    // `u64::from_str` tolerates a leading `+`; the grammar is strictly
    // decimal digits.
    let index = |s: &str| {
        s.bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| s.parse::<u64>().ok())
            .flatten()
    };
    let range = match suffix.split_once('-') {
        Some((a, b)) => EpochRange::new(index(a)?, index(b)?)?,
        None => {
            let epoch = index(suffix)?;
            EpochRange::new(epoch, epoch.checked_add(1)?)?
        }
    };
    Some((keyspace, range))
}

/// Maps wall-clock timestamps onto epoch indices: epoch `i` covers
/// `[origin + i·epoch_seconds, origin + (i+1)·epoch_seconds)`.
///
/// The layout also implements the **epoch-granularity contract** for
/// window queries: [`EpochLayout::window`] widens a `[t0, t1)` time
/// window *outward* to the smallest epoch-aligned range containing it.
/// Released surfaces exist only per epoch, so this is the finest
/// answerable granularity — callers see the widened range in the
/// response rather than a silently clipped answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochLayout {
    origin: f64,
    epoch_seconds: f64,
}

impl EpochLayout {
    /// A layout starting at `origin` (seconds, any finite epoch-zero
    /// reference) with epochs of `epoch_seconds` (finite, > 0).
    pub fn new(origin: f64, epoch_seconds: f64) -> Result<Self> {
        if !origin.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "epoch origin must be finite, got {origin}"
            )));
        }
        if !epoch_seconds.is_finite() || epoch_seconds <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "epoch length must be finite and positive, got {epoch_seconds}"
            )));
        }
        Ok(EpochLayout {
            origin,
            epoch_seconds,
        })
    }

    /// The epoch-zero reference time.
    pub fn origin(&self) -> f64 {
        self.origin
    }

    /// The epoch length in seconds.
    pub fn epoch_seconds(&self) -> f64 {
        self.epoch_seconds
    }

    /// The epoch index containing timestamp `t`, or `None` for
    /// non-finite timestamps, timestamps before the origin, and
    /// timestamps past the last epoch: an index of `u64::MAX` or more
    /// has no epoch key.
    pub fn epoch_of(&self, t: f64) -> Option<u64> {
        if !t.is_finite() || t < self.origin {
            return None;
        }
        let idx = ((t - self.origin) / self.epoch_seconds).floor();
        // `u64::MAX as f64` is 2^64, so the strict bound also keeps the
        // cast below from saturating.
        (idx >= 0.0 && idx < u64::MAX as f64).then_some(idx as u64)
    }

    /// The inclusive start time of `epoch`.
    pub fn epoch_start(&self, epoch: u64) -> f64 {
        self.origin + epoch as f64 * self.epoch_seconds
    }

    /// The smallest epoch-aligned range covering the time window
    /// `[t0, t1)` — the epoch-granularity contract. `None` when the
    /// window is empty/inverted/non-finite or ends at or before the
    /// origin; a window starting before the origin is clamped to
    /// epoch 0.
    pub fn window(&self, t0: f64, t1: f64) -> Option<EpochRange> {
        if !t0.is_finite() || !t1.is_finite() || t1 <= t0 || t1 <= self.origin {
            return None;
        }
        let start = self.epoch_of(t0.max(self.origin))?;
        // Exclusive end: the last epoch touched is the one containing
        // the last instant *before* t1.
        let last = ((t1 - self.origin) / self.epoch_seconds).ceil();
        if last > u64::MAX as f64 {
            return None;
        }
        EpochRange::new(start, (last as u64).max(start + 1))
    }
}

/// The one epoch lifecycle: every per-epoch release — a streamed
/// UG/AG epoch, a sealed LDP epoch — is built, charged and published
/// through [`EpochPublisher::publish`].
///
/// Each epoch's release is ε-DP at its [`BudgetSchedule`] share, and
/// under sequential composition the shares of all published epochs
/// add up, so charging the share is part of publishing. The publisher
/// owns the keyspace (checked non-empty once) and the schedule, and
/// [`EpochPublisher::publish`] is the only place either is used to
/// release an epoch. The charges live in the in-memory schedule: a
/// restarted process does not remember which epochs it already spent.
#[derive(Debug, Clone)]
pub struct EpochPublisher {
    keyspace: String,
    schedule: BudgetSchedule,
}

impl EpochPublisher {
    /// A publisher keying releases under `keyspace` and charging them
    /// to `schedule`; `None` for an empty keyspace, whose epoch keys
    /// would not round-trip through [`parse_epoch_key`].
    pub fn new(keyspace: impl Into<String>, schedule: BudgetSchedule) -> Option<Self> {
        let keyspace = keyspace.into();
        (!keyspace.is_empty()).then_some(EpochPublisher { keyspace, schedule })
    }

    /// The keyspace epoch releases publish under.
    pub fn keyspace(&self) -> &str {
        &self.keyspace
    }

    /// The per-epoch budget schedule, accounting state included.
    pub fn schedule(&self) -> &BudgetSchedule {
        &self.schedule
    }

    /// Publishes `epoch`'s release: reads the epoch's share, runs
    /// `build` at it, charges the share
    /// ([`BudgetSchedule::spend_epoch`], which refuses a second charge
    /// of one epoch), and hands the release to `sink` under
    /// `{keyspace}@epoch:{epoch}`. Returns that key and the ε spent.
    ///
    /// Nothing fallible runs between the charge and the publish, so an
    /// epoch is either charged and published or neither: a failed
    /// share lookup, build or charge publishes nothing, and a failed
    /// build charges nothing, so the call can be retried. Epoch
    /// `u64::MAX` has no key and fails before anything else.
    pub fn publish<S, E>(
        &mut self,
        epoch: u64,
        sink: &mut S,
        build: impl FnOnce(f64) -> std::result::Result<Release, E>,
    ) -> std::result::Result<(String, f64), E>
    where
        S: ReleaseSink + ?Sized,
        E: From<MechError> + From<CoreError>,
    {
        let range = epoch
            .checked_add(1)
            .and_then(|end| EpochRange::new(epoch, end))
            .ok_or_else(|| CoreError::InvalidConfig(format!("epoch {epoch} has no epoch key")))?;
        let epsilon = self.schedule.epsilon_for(epoch)?;
        let release = build(epsilon)?;
        self.schedule.spend_epoch(epoch)?;
        let key = epoch_key(&self.keyspace, range);
        sink.accept_release(key.clone(), release);
        Ok((key, epsilon))
    }
}

/// Merges released grids into one release answering exactly as their
/// sum — the compaction primitive.
///
/// All constituents must share one domain. Their cells are overlaid on
/// the common refinement of every constituent's cut lines, and each
/// source cell's mass is distributed over its sub-cells by area
/// fraction — exact under the uniformity answer model, so for every
/// query rectangle the merged answer equals the sum of the
/// constituents' answers up to floating-point rounding. When all
/// constituents share one cell partition (the common case: same
/// method, same grid size per epoch), the merge is a plain cell-wise
/// value sum with no refinement.
///
/// The merged ε is the **sum** of the constituents' ε (sequential
/// composition across epochs); the merge itself is privacy-free
/// post-processing of already-released values.
pub fn merge_releases(label: impl Into<String>, releases: &[&Release]) -> Result<Release> {
    use dpgrid_geo::Synopsis;

    let Some(first) = releases.first() else {
        return Err(CoreError::InvalidConfig(
            "merge needs at least one release".into(),
        ));
    };
    let domain = *first.domain();
    for r in &releases[1..] {
        if r.domain().rect() != domain.rect() {
            return Err(CoreError::InvalidConfig(format!(
                "merge requires one shared domain, got {:?} and {:?}",
                domain.rect(),
                r.domain().rect()
            )));
        }
    }
    let epsilon: f64 = releases.iter().map(|r| r.epsilon()).sum();
    let cell_lists: Vec<Vec<(Rect, f64)>> = releases.iter().map(|r| r.cells()).collect();

    // Fast path: identical partitions merge by cell-wise value sums.
    let aligned = cell_lists[1..].iter().all(|cells| {
        cells.len() == cell_lists[0].len()
            && cells
                .iter()
                .zip(&cell_lists[0])
                .all(|((a, _), (b, _))| a == b)
    });
    let merged = if aligned {
        // Cell-wise sums run on the kernel layer's batched f64 add
        // (AVX2 when available). The adds stay element-wise in list
        // order — exactly the scalar loop's operations — so the merged
        // release is byte-identical across kernel backends.
        let mut cells = cell_lists[0].clone();
        let mut values: Vec<f64> = cells.iter().map(|&(_, v)| v).collect();
        let mut addend = vec![0.0; values.len()];
        for list in &cell_lists[1..] {
            for (a, &(_, v)) in addend.iter_mut().zip(list) {
                *a = v;
            }
            dpgrid_kernels::add_assign(&mut values, &addend);
        }
        for (cell, v) in cells.iter_mut().zip(values) {
            cell.1 = v;
        }
        cells
    } else {
        overlay_merge(&cell_lists)
    };
    Release::from_parts_with_metadata(
        ReleaseMetadata::legacy(label, epsilon),
        epsilon,
        domain,
        merged,
    )
}

/// The general merge path: overlay every cut line of every partition
/// and split each source cell's mass over the refinement by area
/// fraction.
fn overlay_merge(cell_lists: &[Vec<(Rect, f64)>]) -> Vec<(Rect, f64)> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for list in cell_lists {
        for (rect, _) in list {
            xs.push(rect.x0());
            xs.push(rect.x1());
            ys.push(rect.y0());
            ys.push(rect.y1());
        }
    }
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    ys.sort_by(f64::total_cmp);
    ys.dedup();
    let nx = xs.len() - 1;
    let ny = ys.len() - 1;
    let mut acc = vec![0.0f64; nx * ny];
    for list in cell_lists {
        for (rect, v) in list {
            // The cut sets contain every source edge exactly, so the
            // partition points index the sub-cell span of this cell.
            let i0 = xs.partition_point(|&x| x < rect.x0());
            let i1 = xs.partition_point(|&x| x < rect.x1());
            let j0 = ys.partition_point(|&y| y < rect.y0());
            let j1 = ys.partition_point(|&y| y < rect.y1());
            let density = v / rect.area();
            for j in j0..j1 {
                let h = ys[j + 1] - ys[j];
                for i in i0..i1 {
                    acc[j * nx + i] += density * (xs[i + 1] - xs[i]) * h;
                }
            }
        }
    }
    let mut cells = Vec::with_capacity(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            let rect = Rect::new(xs[i], ys[j], xs[i + 1], ys[j + 1])
                .expect("overlay cuts are sorted and deduplicated");
            cells.push((rect, acc[j * nx + i]));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, Pipeline, Synopsis};
    use dpgrid_geo::{generators, Domain};
    use rand::SeedableRng;

    fn dataset(seed: u64) -> dpgrid_geo::GeoDataset {
        let domain = Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generators::uniform(domain, 1_500, &mut rng)
    }

    #[test]
    fn epoch_key_grammar_round_trips() {
        for (keyspace, range) in [
            ("taxi", EpochRange::single(0)),
            ("taxi", EpochRange::single(17)),
            ("taxi", EpochRange::new(3, 7).unwrap()),
            ("a@epoch:weird", EpochRange::single(2)),
            ("with spaces\nand\tctl", EpochRange::new(0, 4).unwrap()),
        ] {
            let key = epoch_key(keyspace, range);
            assert_eq!(parse_epoch_key(&key), Some((keyspace, range)));
        }
        assert_eq!(epoch_key("taxi", EpochRange::single(5)), "taxi@epoch:5");
        assert_eq!(
            epoch_key("taxi", EpochRange::new(2, 6).unwrap()),
            "taxi@epoch:2-6"
        );
        // A length-1 range written in range form parses to the same
        // range as the canonical single form.
        assert_eq!(
            parse_epoch_key("k@epoch:2-3"),
            Some(("k", EpochRange::single(2)))
        );
    }

    #[test]
    fn non_temporal_keys_do_not_parse() {
        for key in [
            "plain",
            "taxi@epoch:",
            "taxi@epoch:-",
            "taxi@epoch:abc",
            "taxi@epoch:-3",
            "taxi@epoch:3-",
            "taxi@epoch:3-2",
            "taxi@epoch:3-3",
            "taxi@epoch:+3",
            "taxi@epoch: 3",
            "taxi@epoch:3.5",
            "@epoch:3",
            "taxi@epoch:99999999999999999999999",
            "taxi@epoch:18446744073709551615",
        ] {
            assert_eq!(parse_epoch_key(key), None, "key {key:?} must not parse");
        }
    }

    #[test]
    fn layout_maps_times_and_widens_windows_outward() {
        let layout = EpochLayout::new(100.0, 60.0).unwrap();
        assert_eq!(layout.epoch_of(100.0), Some(0));
        assert_eq!(layout.epoch_of(159.999), Some(0));
        assert_eq!(layout.epoch_of(160.0), Some(1));
        assert_eq!(layout.epoch_of(99.9), None);
        assert_eq!(layout.epoch_of(f64::NAN), None);
        assert_eq!(layout.epoch_start(2), 220.0);
        // Aligned window: exactly the covering epochs.
        assert_eq!(layout.window(160.0, 280.0), EpochRange::new(1, 3));
        // Partial edges widen outward, never inward.
        assert_eq!(layout.window(170.0, 250.0), EpochRange::new(1, 3));
        assert_eq!(layout.window(100.0, 100.5), EpochRange::new(0, 1));
        // Before-origin starts clamp to epoch 0.
        assert_eq!(layout.window(0.0, 130.0), EpochRange::new(0, 1));
        // Empty / inverted / fully-before-origin windows are None.
        assert_eq!(layout.window(200.0, 200.0), None);
        assert_eq!(layout.window(250.0, 200.0), None);
        assert_eq!(layout.window(0.0, 50.0), None);
        assert_eq!(layout.window(f64::NAN, 200.0), None);
        // Past the last epoch: index 2^64 would saturate to u64::MAX,
        // which has no key.
        let unit = EpochLayout::new(0.0, 1.0).unwrap();
        assert_eq!(unit.epoch_of(2f64.powi(64)), None);
        assert!(unit.epoch_of(2f64.powi(63)).is_some());
    }

    #[test]
    fn layout_validates() {
        assert!(EpochLayout::new(f64::NAN, 60.0).is_err());
        assert!(EpochLayout::new(0.0, 0.0).is_err());
        assert!(EpochLayout::new(0.0, -1.0).is_err());
        assert!(EpochLayout::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn range_arithmetic() {
        let r = EpochRange::new(2, 5).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.contains(2) && r.contains(4) && !r.contains(5));
        assert!(r.intersects(&EpochRange::single(4)));
        assert!(!r.intersects(&EpochRange::single(5)));
        assert!(r.contains_range(&EpochRange::new(3, 5).unwrap()));
        assert!(!r.contains_range(&EpochRange::new(3, 6).unwrap()));
        assert!(EpochRange::new(3, 3).is_none());
    }

    #[test]
    fn publisher_charges_each_published_epoch_exactly_once() {
        use dpgrid_mech::MechError;
        let build = |seed: u64| {
            move |epsilon: f64| -> Result<Release> {
                Pipeline::new(&dataset(seed))
                    .epsilon(epsilon)
                    .method(Method::ug(4))
                    .seed(seed)
                    .publish()
            }
        };
        assert!(EpochPublisher::new("", BudgetSchedule::uniform(1.0, 2).unwrap()).is_none());
        let mut publisher =
            EpochPublisher::new("k", BudgetSchedule::uniform(1.0, 2).unwrap()).unwrap();
        let mut sink: Vec<(String, Release)> = Vec::new();

        // A failed build charges and publishes nothing.
        let failed = publisher.publish(0, &mut sink, |_| -> Result<Release> {
            Err(CoreError::InvalidConfig("no data".into()))
        });
        assert!(failed.is_err());
        assert!(publisher.schedule().charged_epochs().is_empty());
        assert!(sink.is_empty());

        let (key, epsilon) = publisher.publish(0, &mut sink, build(1)).unwrap();
        assert_eq!((key.as_str(), epsilon), ("k@epoch:0", 0.5));
        assert_eq!(sink[0].0, "k@epoch:0");
        assert_eq!(sink[0].1.epsilon(), 0.5);

        // A second publish of the same epoch fails at the charge and
        // hands nothing to the sink.
        assert!(matches!(
            publisher.publish(0, &mut sink, build(2)),
            Err(CoreError::Mech(MechError::EpochAlreadyCharged { epoch: 0 }))
        ));
        // Past the uniform horizon the share lookup fails first.
        assert!(matches!(
            publisher.publish(2, &mut sink, build(3)),
            Err(CoreError::Mech(MechError::BudgetExhausted { .. }))
        ));
        // The last index has no key: typed, nothing charged.
        assert!(matches!(
            publisher.publish(u64::MAX, &mut sink, build(4)),
            Err(CoreError::InvalidConfig(_))
        ));
        assert_eq!(sink.len(), 1);
        assert_eq!(publisher.schedule().charged_epochs(), vec![0]);
        assert_eq!(publisher.schedule().spent(), 0.5);
    }

    #[test]
    fn aligned_merge_sums_answers_exactly() {
        let publish = |seed: u64| {
            Pipeline::new(&dataset(seed))
                .epsilon(0.5)
                .method(Method::ug(8))
                .seed(seed)
                .publish()
                .unwrap()
        };
        let (a, b, c) = (publish(1), publish(2), publish(3));
        let merged = merge_releases("tier", &[&a, &b, &c]).unwrap();
        assert_eq!(merged.epsilon(), 1.5);
        assert_eq!(merged.cell_count(), a.cell_count());
        for q in [
            Rect::new(0.0, 0.0, 8.0, 8.0).unwrap(),
            Rect::new(1.3, 2.7, 5.9, 6.1).unwrap(),
            Rect::new(0.1, 0.1, 0.2, 7.9).unwrap(),
        ] {
            let sum =
                a.answer_linear_scan(&q) + b.answer_linear_scan(&q) + c.answer_linear_scan(&q);
            assert!((merged.answer_linear_scan(&q) - sum).abs() <= 1e-9 * (1.0 + sum.abs()));
        }
    }

    #[test]
    fn misaligned_merge_overlays_exactly() {
        // Different grid sizes (8×8 vs 12×12) force the overlay path.
        let a = Pipeline::new(&dataset(1))
            .epsilon(0.5)
            .method(Method::ug(8))
            .seed(4)
            .publish()
            .unwrap();
        let b = Pipeline::new(&dataset(2))
            .epsilon(0.25)
            .method(Method::ug(12))
            .seed(5)
            .publish()
            .unwrap();
        let merged = merge_releases("tier", &[&a, &b]).unwrap();
        assert!((merged.epsilon() - 0.75).abs() < 1e-12);
        for q in [
            Rect::new(0.0, 0.0, 8.0, 8.0).unwrap(),
            Rect::new(0.7, 1.1, 6.3, 7.9).unwrap(),
            Rect::new(3.33, 3.33, 3.34, 3.34).unwrap(),
        ] {
            let sum = a.answer_linear_scan(&q) + b.answer_linear_scan(&q);
            assert!(
                (merged.answer_linear_scan(&q) - sum).abs() <= 1e-9 * (1.0 + sum.abs()),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn merge_rejects_mismatched_domains_and_empty_input() {
        let a = Pipeline::new(&dataset(1)).seed(1).publish().unwrap();
        let other = {
            let domain = Domain::from_corners(0.0, 0.0, 4.0, 4.0).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let ds = generators::uniform(domain, 500, &mut rng);
            Pipeline::new(&ds).seed(2).publish().unwrap()
        };
        assert!(merge_releases("tier", &[&a, &other]).is_err());
        assert!(merge_releases("tier", &[]).is_err());
        // A single-release "merge" is the identity (modulo metadata).
        let solo = merge_releases("tier", &[&a]).unwrap();
        let q = Rect::new(1.0, 1.0, 7.0, 7.0).unwrap();
        assert_eq!(solo.answer_linear_scan(&q), a.answer_linear_scan(&q));
    }
}
