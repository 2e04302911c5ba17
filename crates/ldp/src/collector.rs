//! The server-side report collector: bounded per-epoch accumulators,
//! debiased sealing, and publication as ordinary releases.

use dpgrid_core::{EpochPublisher, Release, ReleaseMetadata, ReleaseSink};
use dpgrid_geo::{Domain, MAX_GRID_CELLS};
use dpgrid_mech::{BudgetSchedule, FrequencyOracle, Grr, Oue};
use dpgrid_serve::{ReportAck, ReportBatch, ReportPayload};

use crate::accumulate::{fold_grr_checked, fold_oue, oue_words, validate_oue};
use crate::error::LdpError;
use crate::Result;

/// Relative tolerance for matching a batch's claimed per-report ε
/// against the schedule's share: tight enough that a mis-scheduled
/// client cannot slip through, loose enough that an ε that crossed the
/// wire as JSON text still matches the value the schedule computes.
const EPSILON_RTOL: f64 = 1e-9;

/// Default per-epoch report capacity when none is configured.
pub const DEFAULT_EPOCH_CAPACITY: u64 = 1 << 20;

/// How a [`ReportCollector`] is laid out: which keyspace it publishes
/// under, the public grid it tallies over, and the budget schedule
/// that assigns each epoch its per-report ε.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Keyspace, budget schedule, and the build → charge → publish
    /// order every sealed epoch goes through.
    publisher: EpochPublisher,
    domain: Domain,
    cols: usize,
    rows: usize,
    capacity: u64,
}

impl CollectorConfig {
    /// A collector publishing under `keyspace`, tallying a
    /// `cols × rows` grid over `domain`, with per-epoch ε drawn from
    /// `schedule`. The grid is public knowledge (clients need it to
    /// perturb), so it is fixed for the collector's lifetime.
    pub fn new(
        keyspace: impl Into<String>,
        domain: Domain,
        cols: usize,
        rows: usize,
        schedule: BudgetSchedule,
    ) -> Result<Self> {
        let publisher = EpochPublisher::new(keyspace, schedule).ok_or_else(|| {
            LdpError::InvalidConfig("collector keyspace must be non-empty".to_string())
        })?;
        let cells = cols
            .checked_mul(rows)
            .filter(|&c| (2..=MAX_GRID_CELLS).contains(&c))
            .ok_or_else(|| {
                LdpError::InvalidConfig(format!(
                    "grid of {cols} × {rows} cells is outside 2..={MAX_GRID_CELLS}"
                ))
            })?;
        if u32::try_from(cells).is_err() {
            return Err(LdpError::InvalidConfig(format!(
                "grid of {cells} cells does not fit the wire's u32 cell count"
            )));
        }
        Ok(CollectorConfig {
            publisher,
            domain,
            cols,
            rows,
            capacity: DEFAULT_EPOCH_CAPACITY,
        })
    }

    /// Caps how many reports one epoch's accumulator will hold before
    /// batches are shed with [`LdpError::BufferOverflow`].
    pub fn capacity(mut self, reports_per_epoch: u64) -> Self {
        self.capacity = reports_per_epoch;
        self
    }
}

/// A sealed epoch's publication receipt.
#[derive(Debug, Clone, PartialEq)]
pub struct SealSummary {
    /// The release key the epoch published under
    /// (`{keyspace}@epoch:{i}`).
    pub key: String,
    /// The sealed epoch.
    pub epoch: u64,
    /// The per-report ε the epoch was collected at (now spent).
    pub epsilon: f64,
    /// GRR reports folded into the estimate.
    pub grr_reports: u64,
    /// OUE reports folded into the estimate.
    pub oue_reports: u64,
}

/// The LDP ingestion accumulator: one open epoch of flat `u64`
/// tallies per oracle family, sealed on demand into an ordinary
/// [`Release`] under the epoch-key grammar.
///
/// Reports are accepted strictly for the open epoch — earlier epochs
/// are sealed ([`LdpError::SealedEpoch`]), later ones not yet open
/// ([`LdpError::FutureEpoch`]) — so memory stays bounded at two
/// `cells`-sized vectors regardless of how long the collector runs.
/// Both oracle families accumulate side by side: a deployment may mix
/// GRR and OUE clients, and the sealed estimate sums the two families'
/// debiased counts (each family's reports are a disjoint user
/// population, so the sums are unbiased for the union).
///
/// Privacy accounting: each user contributes one report per epoch,
/// perturbed client-side at the epoch's scheduled ε — the collector
/// never sees raw points. An epoch spends its ε only in
/// [`ReportCollector::publish_open_epoch`], which seals through the
/// one epoch lifecycle shared with streaming,
/// [`dpgrid_core::EpochPublisher::publish`]: build the estimate at the
/// share, charge the share ([`BudgetSchedule::spend_epoch`] refuses a
/// second charge, so an epoch cannot be re-published with fresh
/// reports under the same budget), publish the release. No call
/// charges an epoch without publishing it.
///
/// Everything here lives in memory: a crash loses the open epoch's
/// acknowledged reports and the record of spent epochs (the
/// [crate docs](crate) state the loss contract).
#[derive(Debug)]
pub struct ReportCollector {
    config: CollectorConfig,
    cells: u32,
    open: u64,
    grr_acc: Vec<u64>,
    grr_n: u64,
    oue_acc: Vec<u64>,
    oue_n: u64,
}

impl ReportCollector {
    /// A collector with epoch 0 open and empty accumulators.
    pub fn new(config: CollectorConfig) -> Result<Self> {
        let cells = (config.cols * config.rows) as u32;
        Ok(ReportCollector {
            config,
            cells,
            open: 0,
            grr_acc: vec![0; cells as usize],
            grr_n: 0,
            oue_acc: vec![0; cells as usize],
            oue_n: 0,
        })
    }

    /// The keyspace sealed epochs publish under.
    pub fn keyspace(&self) -> &str {
        self.config.publisher.keyspace()
    }

    /// The grid size clients must perturb over.
    pub fn cells(&self) -> u32 {
        self.cells
    }

    /// The epoch currently accepting reports.
    pub fn open_epoch(&self) -> u64 {
        self.open
    }

    /// Reports held by the open epoch's accumulators (both families).
    pub fn open_reports(&self) -> u64 {
        self.grr_n + self.oue_n
    }

    /// The per-report ε the schedule assigns the open epoch.
    pub fn open_epsilon(&self) -> Result<f64> {
        Ok(self.schedule().epsilon_for(self.open)?)
    }

    /// The budget schedule (for inspecting spend).
    pub fn schedule(&self) -> &BudgetSchedule {
        self.config.publisher.schedule()
    }

    /// The kernel backend folding this collector's batches
    /// (`"avx2"` or `"scalar"` — see [`dpgrid_kernels::active_backend`]),
    /// surfaced so an operator can confirm the vectorized data plane
    /// is live on a production box.
    pub fn kernel_backend(&self) -> &'static str {
        dpgrid_kernels::active_backend()
    }

    /// Folds one batch into the open epoch's accumulator.
    ///
    /// All-or-nothing: every rejection — wrong keyspace, wrong epoch,
    /// ε/domain mismatch, malformed reports, capacity — happens before
    /// the first tally is touched, so a failed batch leaves the
    /// accumulator exactly as it was.
    pub fn submit(&mut self, batch: &ReportBatch) -> Result<ReportAck> {
        if batch.keyspace != self.keyspace() {
            return Err(LdpError::UnknownKeyspace {
                got: batch.keyspace.clone(),
                want: self.keyspace().to_string(),
            });
        }
        if batch.epoch < self.open {
            return Err(LdpError::SealedEpoch {
                epoch: batch.epoch,
                open: self.open,
            });
        }
        if batch.epoch > self.open {
            return Err(LdpError::FutureEpoch {
                epoch: batch.epoch,
                open: self.open,
            });
        }
        if batch.cells != self.cells {
            return Err(LdpError::DomainMismatch {
                got: batch.cells,
                want: self.cells,
            });
        }
        let want = self.open_epsilon()?;
        // Written as "not within" so that a NaN ε, within no
        // tolerance, is rejected too.
        let within = (batch.epsilon - want).abs() <= EPSILON_RTOL * want.max(1.0);
        if !within {
            return Err(LdpError::EpsilonMismatch {
                epoch: self.open,
                got: batch.epsilon,
                want,
            });
        }
        let count = batch.count();
        let held = self.grr_n + self.oue_n;
        if held + count > self.config.capacity {
            return Err(LdpError::BufferOverflow {
                epoch: self.open,
                requested: held + count,
                capacity: self.config.capacity,
            });
        }
        match &batch.payload {
            ReportPayload::Grr(reports) => {
                fold_grr_checked(&mut self.grr_acc, self.cells, reports)?;
                self.grr_n += count;
            }
            ReportPayload::Oue { count: n, bits } => {
                validate_oue(self.cells, *n, bits)?;
                fold_oue(&mut self.oue_acc, oue_words(self.cells), bits);
                self.oue_n += count;
            }
        }
        Ok(ReportAck {
            keyspace: batch.keyspace.clone(),
            epoch: batch.epoch,
            accepted: count,
            epoch_total: self.grr_n + self.oue_n,
        })
    }

    /// Seals the open epoch and publishes it into `sink` — the only
    /// way an epoch spends ε. Through the one epoch lifecycle
    /// ([`dpgrid_core::EpochPublisher::publish`]) it debiases both
    /// families' tallies at the schedule's ε share into per-cell
    /// estimates, charges that share (exactly once — a double charge
    /// is a hard error), and publishes the release under
    /// `{keyspace}@epoch:{i}`. Nothing fallible follows the charge; on
    /// any failure nothing is published and the epoch stays open. On
    /// success the next epoch opens with empty accumulators.
    ///
    /// `sink` is the same [`ReleaseSink`] seam the central
    /// [`dpgrid_core::Pipeline`] publishes through, so the read side
    /// (catalogs, engines, shard routers, windows) serves LDP releases
    /// without knowing they are different. The estimate is raw
    /// (negative cells are kept, the paper's convention — noise
    /// cancels when summing over query rectangles), and the release is
    /// labelled [`dpgrid_core::TrustModel::Local`]: unlike every
    /// central release in the catalog, the server never held the
    /// underlying points.
    pub fn publish_open_epoch(&mut self, sink: &mut dyn ReleaseSink) -> Result<SealSummary> {
        let epoch = self.open;
        let (cols, rows, domain) = (self.config.cols, self.config.rows, self.config.domain);
        let publisher = &mut self.config.publisher;
        let (key, epsilon) = publisher.publish(epoch, sink, |epsilon| -> Result<_> {
            let k = self.cells as usize;
            let grr_est = Grr::new(k, epsilon)?.estimate(&self.grr_acc, self.grr_n);
            let oue_est = Oue::new(k, epsilon)?.estimate(&self.oue_acc, self.oue_n);
            let mut cells = Vec::with_capacity(k);
            for row in 0..rows {
                for col in 0..cols {
                    let i = row * cols + col;
                    let rect = domain.cell_rect(cols, rows, col, row);
                    cells.push((rect, grr_est[i] + oue_est[i]));
                }
            }
            let label = format!("ldp-{cols}x{rows}-grr+oue");
            let metadata = ReleaseMetadata::legacy(label, epsilon).local();
            Ok(Release::from_parts_with_metadata(
                metadata, epsilon, domain, cells,
            )?)
        })?;
        let summary = SealSummary {
            key,
            epoch,
            epsilon,
            grr_reports: self.grr_n,
            oue_reports: self.oue_n,
        };

        self.open += 1;
        self.grr_acc.iter_mut().for_each(|t| *t = 0);
        self.oue_acc.iter_mut().for_each(|t| *t = 0);
        self.grr_n = 0;
        self.oue_n = 0;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::fold_grr;
    use dpgrid_core::{parse_epoch_key, Synopsis, TrustModel};
    use dpgrid_mech::{LocalReport, MechError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn domain() -> Domain {
        Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap()
    }

    fn config() -> CollectorConfig {
        CollectorConfig::new(
            "taxi",
            domain(),
            10,
            10,
            BudgetSchedule::uniform(2.0, 4).unwrap(),
        )
        .unwrap()
    }

    fn grr_batch(epoch: u64, epsilon: f64, reports: Vec<u32>) -> ReportBatch {
        ReportBatch {
            keyspace: "taxi".into(),
            epoch,
            epsilon,
            cells: 100,
            payload: ReportPayload::Grr(reports),
        }
    }

    #[test]
    fn config_validates_grid_and_keyspace() {
        let schedule = BudgetSchedule::uniform(1.0, 2).unwrap();
        assert!(matches!(
            CollectorConfig::new("", domain(), 4, 4, schedule.clone()),
            Err(LdpError::InvalidConfig(_))
        ));
        assert!(matches!(
            CollectorConfig::new("k", domain(), 1, 1, schedule.clone()),
            Err(LdpError::InvalidConfig(_))
        ));
        assert!(matches!(
            CollectorConfig::new("k", domain(), usize::MAX, 2, schedule),
            Err(LdpError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejections_are_typed_and_leave_the_accumulator_untouched() {
        let mut c = ReportCollector::new(config().capacity(10)).unwrap();
        let eps = c.open_epsilon().unwrap();

        let mut wrong_keyspace = grr_batch(0, eps, vec![1]);
        wrong_keyspace.keyspace = "bus".into();
        assert!(matches!(
            c.submit(&wrong_keyspace),
            Err(LdpError::UnknownKeyspace { .. })
        ));
        assert!(matches!(
            c.submit(&grr_batch(1, eps, vec![1])),
            Err(LdpError::FutureEpoch { epoch: 1, open: 0 })
        ));
        assert!(matches!(
            c.submit(&grr_batch(0, eps * 2.0, vec![1])),
            Err(LdpError::EpsilonMismatch { .. })
        ));
        assert!(matches!(
            c.submit(&grr_batch(0, f64::NAN, vec![1])),
            Err(LdpError::EpsilonMismatch { .. })
        ));
        let mut wrong_cells = grr_batch(0, eps, vec![1]);
        wrong_cells.cells = 99;
        assert!(matches!(
            c.submit(&wrong_cells),
            Err(LdpError::DomainMismatch { got: 99, want: 100 })
        ));
        // A malformed report poisons nothing: the whole batch bounces.
        assert!(matches!(
            c.submit(&grr_batch(0, eps, vec![1, 100])),
            Err(LdpError::MalformedBatch(_))
        ));
        assert_eq!(c.open_reports(), 0);

        // Capacity is checked against the whole batch, atomically.
        c.submit(&grr_batch(0, eps, vec![0; 8])).unwrap();
        assert!(matches!(
            c.submit(&grr_batch(0, eps, vec![0; 3])),
            Err(LdpError::BufferOverflow {
                requested: 11,
                capacity: 10,
                ..
            })
        ));
        assert_eq!(c.open_reports(), 8);

        // After sealing, the old epoch is late.
        c.publish_open_epoch(&mut Vec::new()).unwrap();
        assert!(matches!(
            c.submit(&grr_batch(0, eps, vec![1])),
            Err(LdpError::SealedEpoch { epoch: 0, open: 1 })
        ));
    }

    #[test]
    fn sealed_epoch_publishes_a_debiased_local_release() {
        let mut c = ReportCollector::new(config()).unwrap();
        let eps = c.open_epsilon().unwrap();
        let grr = Grr::new(100, eps).unwrap();
        let oue = Oue::new(100, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(7);

        // 600 users, half on each oracle, all reporting cell 37.
        let mut grr_reports = Vec::new();
        let mut oue_bits = Vec::new();
        for _ in 0..300 {
            let LocalReport::Cell(cell) = grr.perturb(37, &mut rng).unwrap() else {
                panic!()
            };
            grr_reports.push(cell);
            let LocalReport::Bits(words) = oue.perturb(37, &mut rng).unwrap() else {
                panic!()
            };
            oue_bits.extend_from_slice(&words);
        }
        let ack = c.submit(&grr_batch(0, eps, grr_reports.clone())).unwrap();
        assert_eq!(ack.accepted, 300);
        let ack = c
            .submit(&ReportBatch {
                keyspace: "taxi".into(),
                epoch: 0,
                epsilon: eps,
                cells: 100,
                payload: ReportPayload::Oue {
                    count: 300,
                    bits: oue_bits.clone(),
                },
            })
            .unwrap();
        assert_eq!(ack.epoch_total, 600);

        // Reference estimate straight through the oracles.
        let mut grr_acc = vec![0u64; 100];
        fold_grr(&mut grr_acc, &grr_reports);
        let mut oue_acc = vec![0u64; 100];
        fold_oue(&mut oue_acc, oue_words(100), &oue_bits);
        let expect: Vec<f64> = grr
            .estimate(&grr_acc, 300)
            .iter()
            .zip(oue.estimate(&oue_acc, 300))
            .map(|(a, b)| a + b)
            .collect();

        let mut sink: HashMap<String, Release> = HashMap::new();
        let summary = c.publish_open_epoch(&mut sink).unwrap();
        assert_eq!(summary.key, "taxi@epoch:0");
        assert_eq!(summary.epoch, 0);
        assert_eq!((summary.grr_reports, summary.oue_reports), (300, 300));
        assert_eq!(parse_epoch_key(&summary.key).unwrap().0, "taxi");

        let release = &sink["taxi@epoch:0"];
        assert_eq!(release.metadata().trust, TrustModel::Local);
        assert!((release.epsilon() - eps).abs() < 1e-12);
        // Cell 37 of the released surface is the debiased estimate,
        // bit-for-bit the value the oracles compute in-process.
        for (i, (_, v)) in release.cells().iter().enumerate() {
            assert_eq!(*v, expect[i], "cell {i}");
        }
        // GRR debiasing preserves mass identically (p + (k−1)q = 1),
        // so its half of the estimate sums to exactly its population.
        let grr_total: f64 = grr.estimate(&grr_acc, 300).iter().sum();
        assert!((grr_total - 300.0).abs() < 1e-6, "GRR total {grr_total}");
        // OUE preserves mass only in expectation; the released total
        // is the population up to CLT noise (σ ≈ √(nkq(1−q))/(p−q)).
        let total: f64 = release.cells().iter().map(|(_, v)| v).sum();
        let sigma = (300.0 * 100.0 * oue.q() * (1.0 - oue.q())).sqrt() / (oue.p() - oue.q());
        assert!((total - 600.0).abs() < 5.0 * sigma, "total {total}");

        // The next epoch opens fresh.
        assert_eq!(c.open_epoch(), 1);
        assert_eq!(c.open_reports(), 0);
    }

    #[test]
    fn sealing_charges_each_epoch_exactly_once() {
        let mut c = ReportCollector::new(config()).unwrap();
        let mut sink = Vec::new();
        c.publish_open_epoch(&mut sink).unwrap();
        assert_eq!(c.schedule().charged_epochs(), &[0]);
        c.publish_open_epoch(&mut sink).unwrap();
        assert_eq!(c.schedule().charged_epochs(), &[0, 1]);
        // The schedule itself refuses a double charge — exercised
        // through a fresh collector sharing the spent schedule.
        let mut replay = ReportCollector::new(
            CollectorConfig::new("taxi", domain(), 10, 10, c.schedule().clone()).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            replay.publish_open_epoch(&mut sink),
            Err(LdpError::Mech(MechError::EpochAlreadyCharged { epoch: 0 }))
        ));
    }
}
