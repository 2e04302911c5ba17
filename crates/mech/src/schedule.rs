//! Per-epoch privacy-budget schedules for streaming release pipelines.
//!
//! A streaming ingestor publishes one release per time epoch, and every
//! epoch's release consumes privacy budget under **sequential
//! composition** (each epoch's release reads the same users' data
//! again, so the ε's add). A [`BudgetSchedule`] decides *how much* each
//! epoch may spend and enforces that the per-epoch shares never sum
//! past the configured total:
//!
//! * [`SchedulePolicy::Uniform`] splits ε evenly over a fixed horizon
//!   of `epochs` epochs (`ε / epochs` each); charging an epoch at or
//!   past the horizon is a hard [`MechError::BudgetExhausted`].
//! * [`SchedulePolicy::ExponentialDecay`] gives epoch `i` the share
//!   `ε · (1 − r) · rⁱ` for a decay ratio `r ∈ (0, 1)` — an
//!   infinite-horizon geometric series summing to exactly ε, so a
//!   stream with no known end date can keep publishing forever while
//!   early epochs (the freshest data at launch) get the most budget.
//!
//! The schedule wraps a [`PrivacyBudget`], so the per-epoch shares are
//! not just advisory: every [`BudgetSchedule::spend_epoch`] draws the
//! share from the budget, each epoch can be charged at most once, and
//! over-spending fails typed instead of silently leaking ε.

use std::collections::BTreeSet;

use crate::{check_epsilon, MechError, PrivacyBudget, Result};

/// How a [`BudgetSchedule`] splits its total ε across epoch indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulePolicy {
    /// Even split over a fixed horizon: epoch `i < epochs` receives
    /// `ε / epochs`; epochs at or past the horizon receive nothing.
    Uniform {
        /// Number of epochs the budget is split over (≥ 1).
        epochs: usize,
    },
    /// Infinite-horizon geometric decay: epoch `i` receives
    /// `ε · (1 − decay) · decayⁱ`, which sums to ε over all epochs.
    ExponentialDecay {
        /// Per-epoch decay ratio, strictly inside `(0, 1)`.
        decay: f64,
    },
}

/// A per-epoch ε allocation backed by hard [`PrivacyBudget`]
/// accounting.
///
/// ```
/// use dpgrid_mech::BudgetSchedule;
///
/// let mut schedule = BudgetSchedule::uniform(1.0, 4).unwrap();
/// for epoch in 0..4 {
///     let eps = schedule.spend_epoch(epoch).unwrap();
///     assert!((eps - 0.25).abs() < 1e-12);
/// }
/// assert!(schedule.spend_epoch(4).is_err()); // past the horizon
/// ```
#[derive(Debug, Clone)]
pub struct BudgetSchedule {
    policy: SchedulePolicy,
    budget: PrivacyBudget,
    charged: BTreeSet<u64>,
}

impl BudgetSchedule {
    /// A schedule splitting `epsilon` evenly over `epochs` epochs
    /// (≥ 1).
    pub fn uniform(epsilon: f64, epochs: usize) -> Result<Self> {
        BudgetSchedule::new(epsilon, SchedulePolicy::Uniform { epochs })
    }

    /// A schedule giving epoch `i` the share `ε · (1 − decay) · decayⁱ`
    /// (`decay` strictly inside `(0, 1)`).
    pub fn exponential_decay(epsilon: f64, decay: f64) -> Result<Self> {
        BudgetSchedule::new(epsilon, SchedulePolicy::ExponentialDecay { decay })
    }

    /// A schedule with total `epsilon` under `policy`, validating both:
    /// a uniform horizon of zero epochs is [`MechError::ZeroLevels`], a
    /// decay outside `(0, 1)` is [`MechError::InvalidFraction`].
    pub fn new(epsilon: f64, policy: SchedulePolicy) -> Result<Self> {
        match policy {
            SchedulePolicy::Uniform { epochs: 0 } => return Err(MechError::ZeroLevels),
            SchedulePolicy::ExponentialDecay { decay }
                if !decay.is_finite() || decay <= 0.0 || decay >= 1.0 =>
            {
                return Err(MechError::InvalidFraction(decay));
            }
            _ => {}
        }
        Ok(BudgetSchedule {
            policy,
            budget: PrivacyBudget::new(epsilon)?,
            charged: BTreeSet::new(),
        })
    }

    /// The configured split policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// The total ε the schedule distributes.
    pub fn total(&self) -> f64 {
        self.budget.total()
    }

    /// ε charged so far across all epochs.
    pub fn spent(&self) -> f64 {
        self.budget.spent()
    }

    /// ε not yet charged to any epoch.
    pub fn remaining(&self) -> f64 {
        self.budget.remaining()
    }

    /// The epoch horizon: `Some(n)` when only epochs `0..n` receive
    /// budget, `None` for infinite-horizon policies.
    pub fn horizon(&self) -> Option<usize> {
        match self.policy {
            SchedulePolicy::Uniform { epochs } => Some(epochs),
            SchedulePolicy::ExponentialDecay { .. } => None,
        }
    }

    /// Epoch indices already charged through
    /// [`BudgetSchedule::spend_epoch`], ascending.
    pub fn charged_epochs(&self) -> Vec<u64> {
        self.charged.iter().copied().collect()
    }

    /// The ε share `epoch` is entitled to under the policy, without
    /// charging anything.
    ///
    /// Fails with [`MechError::BudgetExhausted`] for epochs past a
    /// uniform horizon, and with [`MechError::InvalidEpsilon`] when a
    /// decayed share underflows to zero (epochs so distant their
    /// geometric share is below `f64` resolution — no meaningful
    /// release could be published at that ε anyway).
    pub fn epsilon_for(&self, epoch: u64) -> Result<f64> {
        match self.policy {
            SchedulePolicy::Uniform { epochs } => {
                if epoch >= epochs as u64 {
                    return Err(MechError::BudgetExhausted {
                        requested: self.budget.total() / epochs as f64,
                        remaining: 0.0,
                    });
                }
                Ok(self.budget.total() / epochs as f64)
            }
            SchedulePolicy::ExponentialDecay { decay } => {
                let share = self.budget.total() * (1.0 - decay) * decay.powf(epoch as f64);
                check_epsilon(share)
            }
        }
    }

    /// Charges `epoch`'s share against the wrapped budget and returns
    /// the ε the epoch's release may spend.
    ///
    /// Each epoch can be charged at most once
    /// ([`MechError::EpochAlreadyCharged`] otherwise) — re-publishing
    /// an epoch would read the same users' data twice while paying
    /// once, which is exactly the silent leak the schedule exists to
    /// prevent.
    pub fn spend_epoch(&mut self, epoch: u64) -> Result<f64> {
        if self.charged.contains(&epoch) {
            return Err(MechError::EpochAlreadyCharged { epoch });
        }
        let share = self.epsilon_for(epoch)?;
        let spent = self.budget.spend(share)?;
        self.charged.insert(epoch);
        Ok(spent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_shares_sum_to_total_and_horizon_is_hard() {
        let mut s = BudgetSchedule::uniform(1.0, 8).unwrap();
        assert_eq!(s.horizon(), Some(8));
        let mut sum = 0.0;
        for epoch in 0..8 {
            sum += s.spend_epoch(epoch).unwrap();
        }
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((s.spent() - 1.0).abs() < 1e-12);
        assert!(matches!(
            s.spend_epoch(8),
            Err(MechError::BudgetExhausted { .. })
        ));
        assert_eq!(s.charged_epochs(), (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn decay_shares_form_a_geometric_series_summing_to_total() {
        let s = BudgetSchedule::exponential_decay(2.0, 0.5).unwrap();
        assert_eq!(s.horizon(), None);
        // Finite prefix sums equal ε·(1 − r^n), converging to ε.
        let mut sum = 0.0;
        for epoch in 0..40u64 {
            sum += s.epsilon_for(epoch).unwrap();
        }
        assert!((sum - 2.0 * (1.0 - 0.5f64.powi(40))).abs() < 1e-12);
        assert!(sum < 2.0 + 1e-12);
        assert!((sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn decay_spending_never_exceeds_the_budget() {
        let mut s = BudgetSchedule::exponential_decay(1.0, 0.8).unwrap();
        for epoch in 0..200u64 {
            s.spend_epoch(epoch).unwrap();
        }
        assert!(s.spent() <= s.total() + 1e-12);
        assert!(s.remaining() >= 0.0);
    }

    #[test]
    fn epochs_charge_at_most_once() {
        let mut s = BudgetSchedule::exponential_decay(1.0, 0.5).unwrap();
        s.spend_epoch(3).unwrap();
        assert!(matches!(
            s.spend_epoch(3),
            Err(MechError::EpochAlreadyCharged { epoch: 3 })
        ));
        // Other epochs are unaffected, in any order.
        s.spend_epoch(0).unwrap();
        s.spend_epoch(7).unwrap();
        assert_eq!(s.charged_epochs(), vec![0, 3, 7]);
    }

    #[test]
    fn constructors_validate() {
        assert!(BudgetSchedule::uniform(1.0, 0).is_err());
        assert!(BudgetSchedule::uniform(0.0, 4).is_err());
        assert!(BudgetSchedule::uniform(f64::NAN, 4).is_err());
        assert!(BudgetSchedule::exponential_decay(1.0, 0.0).is_err());
        assert!(BudgetSchedule::exponential_decay(1.0, 1.0).is_err());
        assert!(BudgetSchedule::exponential_decay(1.0, f64::NAN).is_err());
        assert!(BudgetSchedule::new(1.0, SchedulePolicy::Uniform { epochs: 0 }).is_err());
        assert!(BudgetSchedule::new(1.0, SchedulePolicy::ExponentialDecay { decay: 2.0 }).is_err());
    }

    #[test]
    fn underflowed_decay_share_fails_typed() {
        let s = BudgetSchedule::exponential_decay(1.0, 0.5).unwrap();
        // 2^-5000 underflows to zero: typed error, not a zero-ε spend.
        assert!(matches!(
            s.epsilon_for(5_000),
            Err(MechError::InvalidEpsilon(_))
        ));
    }
}
