//! Streaming ingestion: timestamped points in, epoch-sliced releases
//! out.
//!
//! The batch pipeline publishes one release per dataset; a *stream* has
//! no final dataset, so this crate slices it into fixed-length time
//! **epochs** (see [`dpgrid_core::EpochLayout`]) and publishes one
//! differentially private release per epoch through the ordinary
//! [`Pipeline`]/[`ReleaseSink`] path:
//!
//! * [`StreamIngestor`] buffers timestamped points into bounded
//!   per-epoch staging buffers and, as the event-time watermark
//!   advances, seals finished epochs: each sealed epoch's points become
//!   a [`dpgrid_geo::GeoDataset`] and go through the one epoch
//!   lifecycle, [`EpochPublisher::publish`] — the same one LDP
//!   collection seals through. Its ε share is drawn from a
//!   [`BudgetSchedule`] (sequential composition across epochs — the
//!   shares sum to the configured total), the release is built at it,
//!   the share is charged, and the release is published under the
//!   epoch key `{keyspace}@epoch:{i}`. Because the output is a plain
//!   keyed release, every existing sink works unchanged: a serving
//!   catalog, a sharded fan-out, a test collector.
//! * [`Compactor`] retires old fine epochs: once a tier-aligned run of
//!   epochs has aged out of the fine-retention window it is merged into
//!   a single coarser release ([`dpgrid_core::merge_releases`] — exact
//!   under the uniformity answer model, privacy-free post-processing),
//!   re-published under the tier key `{keyspace}@epoch:{start}-{end}`,
//!   and the fine releases are evicted through
//!   [`ReleaseSink::evict_release`].
//!
//! # Epoch contract
//!
//! Epochs seal in order behind the watermark (the maximum event time
//! seen, minus the configured allowed lateness in epochs). A point
//! whose epoch already sealed is rejected with a typed
//! [`StreamError::LateArrival`] — never silently folded into a later
//! epoch, which would make the published surfaces lie about when mass
//! occurred. Epochs that received **no** points publish nothing and
//! spend no ε; the set of published epoch keys therefore reveals which
//! epochs were non-empty, exactly as the keyspace itself reveals which
//! datasets exist. Deployments that need cover releases can push
//! sentinel-free synthetic traffic or pre-pad epochs upstream.
//!
//! # Example
//!
//! ```
//! use std::collections::HashMap;
//! use dpgrid_core::{EpochLayout, Method, Release};
//! use dpgrid_geo::{Domain, Point};
//! use dpgrid_mech::BudgetSchedule;
//! use dpgrid_stream::StreamIngestor;
//!
//! let domain = Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap();
//! let layout = EpochLayout::new(0.0, 60.0).unwrap();
//! let schedule = BudgetSchedule::uniform(1.0, 4).unwrap();
//! let mut ingestor = StreamIngestor::new("taxi", domain, layout, schedule)
//!     .unwrap()
//!     .with_method(Method::ug(6))
//!     .with_seed(7);
//!
//! let mut sink: HashMap<String, Release> = HashMap::new();
//! for minute in 0..3u64 {
//!     for i in 0..50 {
//!         let p = Point::new(1.0 + (i % 8) as f64, 2.0 + (i % 5) as f64);
//!         ingestor.push(p, minute as f64 * 60.0 + i as f64, &mut sink).unwrap();
//!     }
//! }
//! // Epochs 0 and 1 sealed as the watermark reached epoch 2…
//! assert!(sink.contains_key("taxi@epoch:0"));
//! assert!(sink.contains_key("taxi@epoch:1"));
//! // …and the still-open epoch 2 seals on flush.
//! ingestor.flush(&mut sink).unwrap();
//! assert!(sink.contains_key("taxi@epoch:2"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use dpgrid_core::{
    epoch_key, merge_releases, CoreError, EpochLayout, EpochPublisher, EpochRange, Method,
    Pipeline, Release, ReleaseSink,
};
use dpgrid_geo::{Domain, GeoError, Point};
use dpgrid_mech::{BudgetSchedule, MechError};

/// Errors of the streaming layer.
#[derive(Debug)]
pub enum StreamError {
    /// A point's timestamp maps to an epoch that already sealed.
    LateArrival {
        /// The epoch the late point belongs to.
        epoch: u64,
        /// First epoch still accepting points.
        frontier: u64,
    },
    /// A point's timestamp is non-finite, before the layout origin,
    /// or past the last epoch.
    BeforeOrigin {
        /// The offending timestamp.
        timestamp: f64,
    },
    /// A point lies outside the ingestor's public domain.
    OutsideDomain {
        /// The offending coordinates.
        point: (f64, f64),
    },
    /// An epoch's bounded staging buffer is full.
    BufferOverflow {
        /// The epoch whose buffer overflowed.
        epoch: u64,
        /// The configured per-epoch capacity.
        capacity: usize,
    },
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// Failure in the underlying build/publish/accounting layers
    /// (budget exhaustion surfaces here as a
    /// [`dpgrid_mech::MechError`]).
    Core(CoreError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::LateArrival { epoch, frontier } => write!(
                f,
                "late arrival: epoch {epoch} already sealed (frontier is {frontier})"
            ),
            StreamError::BeforeOrigin { timestamp } => write!(
                f,
                "timestamp {timestamp} is non-finite, before the epoch origin, \
                 or past the last epoch"
            ),
            StreamError::OutsideDomain { point } => write!(
                f,
                "point ({}, {}) lies outside the ingestion domain",
                point.0, point.1
            ),
            StreamError::BufferOverflow { epoch, capacity } => write!(
                f,
                "epoch {epoch} staging buffer is full (capacity {capacity})"
            ),
            StreamError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            StreamError::Core(e) => write!(f, "publish failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for StreamError {
    fn from(e: CoreError) -> Self {
        StreamError::Core(e)
    }
}

impl From<MechError> for StreamError {
    fn from(e: MechError) -> Self {
        StreamError::Core(CoreError::Mech(e))
    }
}

impl From<GeoError> for StreamError {
    fn from(e: GeoError) -> Self {
        StreamError::Core(CoreError::Geo(e))
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StreamError>;

/// Receipt for one epoch's published release.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedEpoch {
    /// The sealed epoch index.
    pub epoch: u64,
    /// The release key the epoch published under
    /// (`{keyspace}@epoch:{epoch}`).
    pub key: String,
    /// The ε the epoch's release spent (its [`BudgetSchedule`] share).
    pub epsilon: f64,
    /// Number of points the epoch ingested.
    pub points: usize,
}

/// Default per-epoch staging capacity (points).
pub const DEFAULT_EPOCH_CAPACITY: usize = 1 << 18;

/// Buffers a timestamped point stream and publishes one release per
/// sealed epoch — see the [crate docs](crate) for the epoch contract.
#[derive(Debug, Clone)]
pub struct StreamIngestor {
    /// Keyspace, budget schedule, and the build → charge → publish
    /// order every sealed epoch goes through.
    publisher: EpochPublisher,
    domain: Domain,
    layout: EpochLayout,
    method: Method,
    base_seed: Option<u64>,
    epoch_capacity: usize,
    /// Allowed out-of-orderness, in whole epochs: epoch `e` seals only
    /// once the watermark epoch exceeds `e + lateness`.
    lateness: u64,
    /// Per-epoch staging buffers, keyed by epoch index.
    staged: BTreeMap<u64, Vec<Point>>,
    /// First epoch still accepting points; everything below sealed.
    frontier: u64,
    /// Highest epoch any accepted point has mapped to.
    watermark: Option<u64>,
    /// Fine releases still retained for compaction, keyed by epoch.
    retained: BTreeMap<u64, Release>,
}

impl StreamIngestor {
    /// An ingestor publishing under `keyspace` for points inside
    /// `domain`, slicing time by `layout` and drawing per-epoch ε from
    /// `schedule`.
    ///
    /// Defaults: the paper's suggested adaptive grid
    /// ([`Method::ag_suggested`]), unseeded builds, staging capacity
    /// [`DEFAULT_EPOCH_CAPACITY`], zero allowed lateness.
    pub fn new(
        keyspace: impl Into<String>,
        domain: Domain,
        layout: EpochLayout,
        schedule: BudgetSchedule,
    ) -> Result<Self> {
        let publisher = EpochPublisher::new(keyspace, schedule).ok_or_else(|| {
            StreamError::InvalidConfig(
                "keyspace must be non-empty (epoch keys would not round-trip)".into(),
            )
        })?;
        Ok(StreamIngestor {
            publisher,
            domain,
            layout,
            method: Method::ag_suggested(),
            base_seed: None,
            epoch_capacity: DEFAULT_EPOCH_CAPACITY,
            lateness: 0,
            staged: BTreeMap::new(),
            frontier: 0,
            watermark: None,
            retained: BTreeMap::new(),
        })
    }

    /// Sets the synopsis method every epoch builds with.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Seeds the per-epoch build RNGs deterministically: epoch `i`
    /// builds with seed `base ⊕ mix(i)`, so the same stream replays to
    /// byte-identical releases. The usual caveat applies — a release
    /// whose seed is public is not private; seed only replay tests.
    pub fn with_seed(mut self, base: u64) -> Self {
        self.base_seed = Some(base);
        self
    }

    /// Sets the bounded per-epoch staging capacity (points). Pushing
    /// past it fails typed ([`StreamError::BufferOverflow`]) instead of
    /// growing without bound.
    pub fn with_epoch_capacity(mut self, capacity: usize) -> Self {
        self.epoch_capacity = capacity.max(1);
        self
    }

    /// Sets the allowed out-of-orderness in whole epochs: epoch `e`
    /// seals once the watermark epoch exceeds `e + lateness`.
    pub fn with_allowed_lateness(mut self, epochs: u64) -> Self {
        self.lateness = epochs;
        self
    }

    /// The keyspace epoch releases publish under.
    pub fn keyspace(&self) -> &str {
        self.publisher.keyspace()
    }

    /// The public domain every ingested point must lie in.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The epoch layout slicing event time.
    pub fn layout(&self) -> &EpochLayout {
        &self.layout
    }

    /// The per-epoch budget schedule (accounting state included).
    pub fn schedule(&self) -> &BudgetSchedule {
        self.publisher.schedule()
    }

    /// First epoch still accepting points (everything below sealed).
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Highest epoch any accepted point has mapped to, if any.
    pub fn watermark_epoch(&self) -> Option<u64> {
        self.watermark
    }

    /// Epochs currently holding staged (unsealed) points, ascending.
    pub fn open_epochs(&self) -> Vec<u64> {
        self.staged.keys().copied().collect()
    }

    /// Fine releases retained for compaction, keyed by epoch index.
    /// Clones are cheap: the compiled query surface is shared.
    pub fn retained_fine(&self) -> &BTreeMap<u64, Release> {
        &self.retained
    }

    /// Ingests one timestamped point, sealing (and publishing into
    /// `sink`) every epoch the advancing watermark finishes. Returns
    /// receipts for the epochs this push sealed — usually none, one
    /// when the stream crosses an epoch boundary.
    ///
    /// Failures are typed and leave the ingestor consistent: a late,
    /// out-of-domain, before-origin or past-the-last-epoch point is
    /// rejected without side effects; a publish failure (e.g. budget
    /// exhaustion) keeps the failing epoch's points staged.
    pub fn push<S: ReleaseSink>(
        &mut self,
        point: Point,
        timestamp: f64,
        sink: &mut S,
    ) -> Result<Vec<PublishedEpoch>> {
        let epoch = self
            .layout
            .epoch_of(timestamp)
            .ok_or(StreamError::BeforeOrigin { timestamp })?;
        if epoch < self.frontier {
            return Err(StreamError::LateArrival {
                epoch,
                frontier: self.frontier,
            });
        }
        if !point.is_finite() || !self.domain.contains(&point) {
            return Err(StreamError::OutsideDomain {
                point: (point.x, point.y),
            });
        }
        let buffer = self.staged.entry(epoch).or_default();
        if buffer.len() >= self.epoch_capacity {
            return Err(StreamError::BufferOverflow {
                epoch,
                capacity: self.epoch_capacity,
            });
        }
        buffer.push(point);
        self.watermark = Some(self.watermark.map_or(epoch, |w| w.max(epoch)));
        let target = self
            .watermark
            .expect("watermark set above")
            .saturating_sub(self.lateness);
        self.seal_below(target, sink)
    }

    /// Seals every epoch up to and including `epoch`, publishing the
    /// non-empty ones into `sink`, and advances the frontier past it —
    /// late points for the sealed range are rejected from here on.
    /// Idempotent: epochs already sealed are skipped.
    pub fn seal_through<S: ReleaseSink>(
        &mut self,
        epoch: u64,
        sink: &mut S,
    ) -> Result<Vec<PublishedEpoch>> {
        let target = epoch
            .checked_add(1)
            .ok_or_else(|| StreamError::InvalidConfig("epoch index overflow".into()))?;
        self.seal_below(target, sink)
    }

    /// Seals every epoch still holding staged points (end-of-stream).
    pub fn flush<S: ReleaseSink>(&mut self, sink: &mut S) -> Result<Vec<PublishedEpoch>> {
        match self.staged.keys().next_back().copied() {
            Some(last) => self.seal_through(last, sink),
            None => Ok(Vec::new()),
        }
    }

    /// Seals epochs `< target` in ascending order. On a publish
    /// failure the failing epoch's points go back into staging and the
    /// frontier stays below it, so the error is retryable.
    fn seal_below<S: ReleaseSink>(
        &mut self,
        target: u64,
        sink: &mut S,
    ) -> Result<Vec<PublishedEpoch>> {
        let mut published = Vec::new();
        while self.frontier < target {
            let epoch = match self.staged.keys().next().copied() {
                Some(first) if first < target => first,
                // No staged epoch left below the target: empty epochs
                // publish nothing and spend nothing.
                _ => {
                    self.frontier = target;
                    break;
                }
            };
            let points = self.staged.remove(&epoch).expect("key just observed");
            match self.publish_epoch(epoch, &points, sink) {
                Ok(receipt) => {
                    self.frontier = epoch + 1;
                    published.push(receipt);
                }
                Err(e) => {
                    self.staged.insert(epoch, points);
                    return Err(e);
                }
            }
        }
        Ok(published)
    }

    /// Builds and publishes one sealed epoch through the
    /// [`EpochPublisher`]: the staged points become a dataset, the
    /// release is built at the schedule's share, the share is charged
    /// and the release published under the epoch key. A failed build
    /// charges nothing, so a retry can succeed. The clone retained for
    /// compaction is taken in the build and kept only once the epoch
    /// published.
    fn publish_epoch<S: ReleaseSink>(
        &mut self,
        epoch: u64,
        points: &[Point],
        sink: &mut S,
    ) -> Result<PublishedEpoch> {
        let mut built = None;
        let publisher = &mut self.publisher;
        let (key, epsilon) = publisher.publish(epoch, sink, |epsilon| -> Result<_> {
            let dataset = dpgrid_geo::GeoDataset::from_points(points.to_vec(), self.domain)?;
            let mut pipeline = Pipeline::new(&dataset).epsilon(epsilon).method(self.method);
            if let Some(base) = self.base_seed {
                // splitmix64-style odd-constant mix keeps per-epoch seeds
                // distinct even for adjacent epochs.
                pipeline = pipeline.seed(base ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            }
            let release = pipeline.publish()?;
            built = Some(release.clone());
            Ok(release)
        })?;
        if let Some(release) = built {
            self.retained.insert(epoch, release);
        }
        Ok(PublishedEpoch {
            epoch,
            key,
            epsilon,
            points: points.len(),
        })
    }
}

/// Receipt for one compacted tier.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactedTier {
    /// The tier-aligned epoch range the merged release covers.
    pub range: EpochRange,
    /// The key the merged release published under
    /// (`{keyspace}@epoch:{start}-{end}`).
    pub key: String,
    /// The fine epochs that were merged (and evicted).
    pub epochs: Vec<u64>,
    /// The merged release's ε — the sum of the constituents'
    /// (sequential composition; the merge itself spends nothing).
    pub epsilon: f64,
}

/// Merges expired fine epochs into coarser tier releases and evicts
/// the fine ones — the retention half of the streaming story.
///
/// Epochs are grouped into tiers of `tier_len` aligned at multiples
/// (`tier t` covers `[t·len, (t+1)·len)`). A tier compacts once its
/// entire range has aged out of the fine-retention window (`frontier −
/// retain_fine`): its retained fine releases merge exactly
/// ([`dpgrid_core::merge_releases`]) into one release published under
/// the tier key, and each fine key is withdrawn through
/// [`ReleaseSink::evict_release`]. Window queries that straddle a
/// compacted tier therefore see the *whole* tier — the epoch-
/// granularity contract coarsens with age, and the response's covered
/// range makes that visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compactor {
    tier_len: u64,
    retain_fine: u64,
}

impl Compactor {
    /// A compactor merging `tier_len` fine epochs per tier (≥ 2),
    /// keeping the most recent `retain_fine` epochs fine.
    pub fn new(tier_len: u64, retain_fine: u64) -> Result<Self> {
        if tier_len < 2 {
            return Err(StreamError::InvalidConfig(format!(
                "tier length must be at least 2 epochs, got {tier_len}"
            )));
        }
        Ok(Compactor {
            tier_len,
            retain_fine,
        })
    }

    /// Fine epochs per tier.
    pub fn tier_len(&self) -> u64 {
        self.tier_len
    }

    /// Number of most-recent epochs kept fine.
    pub fn retain_fine(&self) -> u64 {
        self.retain_fine
    }

    /// Compacts every fully-expired tier of `ingestor`'s retained fine
    /// releases, publishing each merged tier into `sink` (before the
    /// fine evictions, so the keyspace never transiently loses
    /// coverage) and returning one receipt per tier. Idempotent:
    /// already-compacted tiers have no retained fine epochs left.
    pub fn compact<S: ReleaseSink>(
        &self,
        ingestor: &mut StreamIngestor,
        sink: &mut S,
    ) -> Result<Vec<CompactedTier>> {
        let cutoff = ingestor.frontier().saturating_sub(self.retain_fine);
        let mut tiers: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &epoch in ingestor.retained.keys() {
            // The whole tier must be behind the cutoff, not just this
            // epoch — compacting a tier the ingestor is still filling
            // would orphan its later epochs.
            let tier = epoch / self.tier_len;
            let tier_end = (tier + 1).saturating_mul(self.tier_len);
            if tier_end <= cutoff {
                tiers.entry(tier).or_default().push(epoch);
            }
        }
        let mut receipts = Vec::new();
        for (tier, epochs) in tiers {
            let range = EpochRange::new(tier * self.tier_len, (tier + 1) * self.tier_len)
                .expect("tier ranges are non-empty by construction");
            let fine: Vec<&Release> = epochs.iter().map(|e| &ingestor.retained[e]).collect();
            let merged = merge_releases(format!("compact:{range}"), &fine)?;
            let epsilon = dpgrid_geo::Synopsis::epsilon(&merged);
            let key = epoch_key(ingestor.keyspace(), range);
            sink.accept_release(key.clone(), merged);
            for epoch in &epochs {
                sink.evict_release(&epoch_key(ingestor.keyspace(), EpochRange::single(*epoch)));
                ingestor.retained.remove(epoch);
            }
            receipts.push(CompactedTier {
                range,
                key,
                epochs,
                epsilon,
            });
        }
        Ok(receipts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgrid_core::Synopsis;
    use std::collections::HashMap;

    fn domain() -> Domain {
        Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap()
    }

    /// Minute-long epochs starting at t = 0.
    fn layout() -> EpochLayout {
        EpochLayout::new(0.0, 60.0).unwrap()
    }

    fn ingestor(schedule: BudgetSchedule) -> StreamIngestor {
        StreamIngestor::new("s", domain(), layout(), schedule)
            .unwrap()
            .with_method(Method::ug(6))
            .with_seed(11)
    }

    /// `n` deterministic points spread over the domain, pushed at
    /// evenly spaced times inside `epoch`.
    fn fill_epoch(
        ing: &mut StreamIngestor,
        sink: &mut HashMap<String, Release>,
        epoch: u64,
        n: usize,
    ) -> Vec<PublishedEpoch> {
        let mut published = Vec::new();
        for i in 0..n {
            let p = Point::new(0.5 + (i % 9) as f64, 0.5 + (i % 7) as f64);
            let t = epoch as f64 * 60.0 + 60.0 * (i as f64 + 0.5) / n as f64;
            published.extend(ing.push(p, t, sink).unwrap());
        }
        published
    }

    #[test]
    fn epochs_seal_behind_the_watermark_and_spend_their_shares() {
        let mut ing = ingestor(BudgetSchedule::uniform(1.0, 4).unwrap());
        let mut sink = HashMap::new();
        let mut receipts = Vec::new();
        for epoch in 0..4 {
            receipts.extend(fill_epoch(&mut ing, &mut sink, epoch, 40));
        }
        // Watermark at epoch 3 seals 0..3; epoch 3 is still open.
        assert_eq!(
            receipts.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(ing.frontier(), 3);
        assert_eq!(ing.open_epochs(), vec![3]);
        receipts.extend(ing.flush(&mut sink).unwrap());
        assert_eq!(receipts.len(), 4);
        for r in &receipts {
            assert_eq!(r.key, format!("s@epoch:{}", r.epoch));
            assert!((r.epsilon - 0.25).abs() < 1e-12, "uniform share");
            assert_eq!(r.points, 40);
            assert!(sink.contains_key(&r.key));
        }
        assert!((ing.schedule().spent() - 1.0).abs() < 1e-12);
        assert_eq!(ing.retained_fine().len(), 4);
        // Flush with nothing staged is a no-op.
        assert!(ing.flush(&mut sink).unwrap().is_empty());
    }

    #[test]
    fn late_out_of_domain_and_pre_origin_points_fail_typed() {
        let mut ing = ingestor(BudgetSchedule::exponential_decay(1.0, 0.5).unwrap());
        let mut sink = HashMap::new();
        fill_epoch(&mut ing, &mut sink, 0, 10);
        fill_epoch(&mut ing, &mut sink, 2, 10); // seals 0 and (empty) 1
        assert_eq!(ing.frontier(), 2);
        assert!(matches!(
            ing.push(Point::new(1.0, 1.0), 30.0, &mut sink),
            Err(StreamError::LateArrival {
                epoch: 0,
                frontier: 2
            })
        ));
        assert!(matches!(
            ing.push(Point::new(11.0, 1.0), 130.0, &mut sink),
            Err(StreamError::OutsideDomain { .. })
        ));
        assert!(matches!(
            ing.push(Point::new(1.0, 1.0), -5.0, &mut sink),
            Err(StreamError::BeforeOrigin { .. })
        ));
        assert!(matches!(
            ing.push(Point::new(1.0, 1.0), f64::NAN, &mut sink),
            Err(StreamError::BeforeOrigin { .. })
        ));
        // The empty epoch 1 published nothing and spent nothing.
        assert!(!sink.contains_key("s@epoch:1"));
        assert_eq!(ing.schedule().charged_epochs(), vec![0]);
    }

    #[test]
    fn timestamps_past_the_last_epoch_fail_typed_and_stage_nothing() {
        // One-second epochs from t = 0: t = 2^64 would be epoch
        // u64::MAX, which has no key.
        let layout = EpochLayout::new(0.0, 1.0).unwrap();
        let schedule = BudgetSchedule::uniform(1.0, 2).unwrap();
        let mut ing = StreamIngestor::new("s", domain(), layout, schedule)
            .unwrap()
            .with_method(Method::ug(6));
        let mut sink = HashMap::new();
        let t = 2f64.powi(64);
        assert!(matches!(
            ing.push(Point::new(1.0, 1.0), t, &mut sink),
            Err(StreamError::BeforeOrigin { timestamp }) if timestamp == t
        ));
        assert!(ing.open_epochs().is_empty());
        assert_eq!((ing.frontier(), ing.watermark_epoch()), (0, None));
        // The stream carries on as if the point never came.
        ing.push(Point::new(1.0, 1.0), 0.5, &mut sink).unwrap();
        assert_eq!(ing.flush(&mut sink).unwrap().len(), 1);
        assert!(sink.contains_key("s@epoch:0"));
    }

    #[test]
    fn allowed_lateness_defers_sealing() {
        let mut ing = ingestor(BudgetSchedule::uniform(1.0, 8).unwrap()).with_allowed_lateness(1);
        let mut sink = HashMap::new();
        fill_epoch(&mut ing, &mut sink, 0, 5);
        fill_epoch(&mut ing, &mut sink, 1, 5);
        // Watermark 1, lateness 1: nothing seals, epoch 0 still open.
        assert_eq!(ing.frontier(), 0);
        ing.push(Point::new(1.0, 1.0), 10.0, &mut sink).unwrap();
        // Watermark 2 seals only epoch 0.
        let sealed = fill_epoch(&mut ing, &mut sink, 2, 5);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].epoch, 0);
        assert_eq!(sealed[0].points, 6);
    }

    #[test]
    fn bounded_buffers_reject_overflow() {
        let mut ing = ingestor(BudgetSchedule::uniform(1.0, 2).unwrap()).with_epoch_capacity(3);
        let mut sink: Vec<(String, Release)> = Vec::new();
        for i in 0..3 {
            ing.push(Point::new(1.0, 1.0), i as f64, &mut sink).unwrap();
        }
        assert!(matches!(
            ing.push(Point::new(1.0, 1.0), 3.0, &mut sink),
            Err(StreamError::BufferOverflow {
                epoch: 0,
                capacity: 3
            })
        ));
    }

    #[test]
    fn seeded_streams_replay_to_identical_releases() {
        let run = || {
            let mut ing = ingestor(BudgetSchedule::uniform(1.0, 4).unwrap());
            let mut sink = HashMap::new();
            for epoch in 0..3 {
                fill_epoch(&mut ing, &mut sink, epoch, 30);
            }
            ing.flush(&mut sink).unwrap();
            sink
        };
        let (a, b) = (run(), run());
        let q = dpgrid_geo::Rect::new(1.0, 1.0, 6.0, 6.0).unwrap();
        for key in ["s@epoch:0", "s@epoch:1", "s@epoch:2"] {
            assert_eq!(a[key].answer(&q), b[key].answer(&q), "{key}");
            // Distinct epochs draw distinct noise (different seeds).
        }
        assert_ne!(a["s@epoch:0"].answer(&q), a["s@epoch:1"].answer(&q));
    }

    #[test]
    fn budget_exhaustion_is_typed_and_retryable() {
        let mut ing = ingestor(BudgetSchedule::uniform(1.0, 2).unwrap());
        let mut sink = HashMap::new();
        for epoch in 0..3 {
            fill_epoch(&mut ing, &mut sink, epoch, 10);
        }
        // Epochs 0 and 1 consumed the two uniform shares; sealing
        // epoch 2 must fail typed and keep its points staged.
        let err = ing.flush(&mut sink).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Core(CoreError::Mech(MechError::BudgetExhausted { .. }))
        ));
        assert_eq!(ing.open_epochs(), vec![2]);
        assert!(!sink.contains_key("s@epoch:2"));
    }

    #[test]
    fn failed_builds_charge_nothing_and_stay_retryable() {
        let mut ing = ingestor(BudgetSchedule::uniform(1.0, 4).unwrap()).with_method(Method::ug(0));
        let mut sink = HashMap::new();
        fill_epoch(&mut ing, &mut sink, 0, 10);
        let first = ing.flush(&mut sink).unwrap_err();
        assert!(first.to_string().contains("grid size"), "{first}");
        // The build failed before the charge: no ε spent, the points
        // stay staged, and a retry fails the same way instead of with
        // `EpochAlreadyCharged`.
        assert!(ing.schedule().charged_epochs().is_empty());
        assert_eq!(ing.schedule().spent(), 0.0);
        assert_eq!(ing.open_epochs(), vec![0]);
        let retry = ing.flush(&mut sink).unwrap_err();
        assert_eq!(retry.to_string(), first.to_string());
        assert!(sink.is_empty());
    }

    #[test]
    fn compaction_merges_expired_tiers_exactly_and_evicts_fine_keys() {
        let mut ing = ingestor(BudgetSchedule::exponential_decay(2.0, 0.7).unwrap());
        let mut sink = HashMap::new();
        for epoch in 0..6 {
            fill_epoch(&mut ing, &mut sink, epoch, 50 + 10 * epoch as usize);
        }
        ing.flush(&mut sink).unwrap();
        let fine: HashMap<u64, Release> = (0..6)
            .map(|e| (e, ing.retained_fine()[&e].clone()))
            .collect();
        // Tiers of 2, keep the last 2 epochs fine: tiers {0,1} and
        // {2,3} are fully expired, {4,5} stays fine.
        let compactor = Compactor::new(2, 2).unwrap();
        let receipts = compactor.compact(&mut ing, &mut sink).unwrap();
        assert_eq!(receipts.len(), 2);
        assert_eq!(receipts[0].range, EpochRange::new(0, 2).unwrap());
        assert_eq!(receipts[1].range, EpochRange::new(2, 4).unwrap());
        let q = dpgrid_geo::Rect::new(0.3, 0.9, 7.7, 6.1).unwrap();
        for receipt in &receipts {
            assert_eq!(receipt.key, format!("s@epoch:{}", receipt.range));
            let merged = &sink[&receipt.key];
            let sum: f64 = receipt.epochs.iter().map(|e| fine[e].answer(&q)).sum();
            assert!(
                (merged.answer(&q) - sum).abs() <= 1e-9 * (1.0 + sum.abs()),
                "tier {} must answer as the sum of its fine epochs",
                receipt.range
            );
            let eps_sum: f64 = receipt.epochs.iter().map(|e| fine[e].epsilon()).sum();
            assert!((receipt.epsilon - eps_sum).abs() < 1e-12);
            for epoch in &receipt.epochs {
                assert!(
                    !sink.contains_key(&format!("s@epoch:{epoch}")),
                    "fine key evicted"
                );
            }
        }
        // Fine retention survives for the recent epochs…
        assert!(sink.contains_key("s@epoch:4"));
        assert!(sink.contains_key("s@epoch:5"));
        assert_eq!(
            ing.retained_fine().keys().copied().collect::<Vec<_>>(),
            vec![4, 5]
        );
        // …and compacting again is a no-op.
        assert!(compactor.compact(&mut ing, &mut sink).unwrap().is_empty());
    }

    #[test]
    fn compactor_validates_and_partial_tiers_wait() {
        assert!(Compactor::new(1, 0).is_err());
        let mut ing = ingestor(BudgetSchedule::exponential_decay(1.0, 0.5).unwrap());
        let mut sink = HashMap::new();
        for epoch in 0..3 {
            fill_epoch(&mut ing, &mut sink, epoch, 10);
        }
        ing.flush(&mut sink).unwrap();
        // Tier {2,3} is only half-filled (epoch 3 never happened), so
        // with retain_fine = 0 only tier {0,1} compacts.
        let receipts = Compactor::new(2, 0)
            .unwrap()
            .compact(&mut ing, &mut sink)
            .unwrap();
        assert_eq!(receipts.len(), 1);
        assert_eq!(receipts[0].range, EpochRange::new(0, 2).unwrap());
        assert!(sink.contains_key("s@epoch:2"));
    }

    #[test]
    fn empty_keyspace_is_rejected() {
        assert!(matches!(
            StreamIngestor::new(
                "",
                domain(),
                layout(),
                BudgetSchedule::uniform(1.0, 1).unwrap()
            ),
            Err(StreamError::InvalidConfig(_))
        ));
    }
}
