//! Statistical verification of the privacy accounting: released noise
//! levels must match what the claimed ε implies.

use dpgrid::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn empty_dataset(domain: Domain) -> GeoDataset {
    GeoDataset::from_points(vec![], domain).unwrap()
}

/// Empirical standard deviation of a sample.
fn std_dev(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[test]
fn ug_cell_noise_matches_epsilon() {
    // On an empty dataset every UG cell is a pure Lap(1/ε) draw:
    // std = √2/ε.
    let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
    let ds = empty_dataset(domain);
    for eps in [0.1, 1.0] {
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(eps, 32), &mut rng(1)).unwrap();
        let std = std_dev(ug.grid().values());
        let expect = std::f64::consts::SQRT_2 / eps;
        assert!(
            (std - expect).abs() < expect * 0.1,
            "ε={eps}: cell noise std {std}, expected {expect}"
        );
    }
}

#[test]
fn ag_level_budgets_split_by_alpha() {
    // AG's first-level observations carry Lap(1/(αε)) noise. With the
    // leaves' (1−α)ε and constrained inference, the adjusted totals are
    // *less* noisy than either observation alone — we check both the
    // direction and the rough magnitude.
    let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
    let ds = empty_dataset(domain);
    let eps = 1.0;
    let alpha = 0.5;
    let mut totals = Vec::new();
    let mut cfg = AgConfig::guideline(eps).with_alpha(alpha).with_m1(4);
    cfg.m2_cap = 4;
    for seed in 0..200 {
        let ag = AdaptiveGrid::build(&ds, &cfg, &mut rng(seed)).unwrap();
        for info in ag.cells_info() {
            totals.push(info.adjusted_total);
        }
    }
    let std = std_dev(&totals);
    // Upper bound: the raw level-1 noise std √2/(αε) = 2.83.
    let raw_l1 = std::f64::consts::SQRT_2 / (alpha * eps);
    assert!(
        std < raw_l1,
        "CI-adjusted totals (std {std}) should beat raw level-1 noise ({raw_l1})"
    );
    // And the totals are unbiased around 0.
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    assert!(mean.abs() < 0.2, "mean {mean}");
}

#[test]
fn noisy_n_consumes_budget() {
    // With NEstimate::Noisy the cells must get strictly less than ε:
    // their noise is larger than the exact-N variant's.
    let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
    let ds = empty_dataset(domain);
    let eps = 1.0;
    let mut exact_noise = Vec::new();
    let mut noisy_noise = Vec::new();
    for seed in 0..100 {
        let e = UniformGrid::build(&ds, &UgConfig::fixed(eps, 8), &mut rng(seed)).unwrap();
        exact_noise.extend_from_slice(e.grid().values());
        let cfg = UgConfig::fixed(eps, 8).with_noisy_n(0.5);
        let n = UniformGrid::build(&ds, &cfg, &mut rng(seed + 1_000)).unwrap();
        noisy_noise.extend_from_slice(n.grid().values());
    }
    let s_exact = std_dev(&exact_noise);
    let s_noisy = std_dev(&noisy_noise);
    // Half the budget went to N → cell noise doubles.
    assert!(
        s_noisy > s_exact * 1.5,
        "exact-N noise {s_exact}, noisy-N noise {s_noisy}"
    );
}

#[test]
fn composition_rejects_overdraft() {
    use dpgrid::mech::PrivacyBudget;
    let mut b = PrivacyBudget::new(1.0).unwrap();
    b.spend(0.5).unwrap();
    b.spend(0.5).unwrap();
    assert!(b.spend(0.1).is_err());
    assert!(b.is_exhausted());
}

#[test]
fn uniform_schedule_epoch_splits_sum_to_the_total() {
    // A uniform schedule over a fixed horizon hands every epoch an
    // equal share, the shares sum to exactly the configured total,
    // and the horizon is hard: epoch `n` is a typed refusal.
    use dpgrid::mech::MechError;
    let total = 1.0;
    let epochs: u64 = 8;
    let mut schedule = BudgetSchedule::uniform(total, epochs as usize).unwrap();
    let mut sum = 0.0;
    for epoch in 0..epochs {
        let share = schedule.epsilon_for(epoch).unwrap();
        assert!(
            (share - total / epochs as f64).abs() < 1e-12,
            "epoch {epoch} share {share}"
        );
        assert_eq!(schedule.spend_epoch(epoch).unwrap(), share);
        sum += share;
    }
    assert!((sum - total).abs() < 1e-12, "shares sum to {sum}");
    assert!((schedule.spent() - total).abs() < 1e-12);
    assert!(schedule.remaining() < 1e-12);
    assert!(matches!(
        schedule.spend_epoch(epochs),
        Err(MechError::BudgetExhausted { .. })
    ));
    // Charged-once: no epoch can be billed twice.
    assert!(matches!(
        schedule.spend_epoch(3),
        Err(MechError::EpochAlreadyCharged { epoch: 3 })
    ));
}

#[test]
fn decay_schedule_epoch_splits_sum_to_the_total() {
    // The exponential-decay schedule never exceeds its total on any
    // prefix, and the infinite-horizon sum converges to it: the first
    // k shares sum to total · (1 − r^k).
    let total = 2.0;
    let decay = 0.7;
    let mut schedule = BudgetSchedule::exponential_decay(total, decay).unwrap();
    let mut sum = 0.0;
    for epoch in 0..200u64 {
        sum += schedule.spend_epoch(epoch).unwrap();
        assert!(
            sum <= total + 1e-12,
            "prefix through epoch {epoch} overspends: {sum}"
        );
    }
    let expected = total * (1.0 - decay.powi(200));
    assert!(
        (sum - expected).abs() < 1e-9,
        "200-epoch prefix {sum}, expected {expected}"
    );
    assert!((sum - total).abs() < 1e-9, "200 epochs ≈ the total");
    // Shares decay geometrically: ε_{i+1} = r · ε_i.
    let e0 = BudgetSchedule::exponential_decay(total, decay)
        .unwrap()
        .epsilon_for(0)
        .unwrap();
    let e1 = BudgetSchedule::exponential_decay(total, decay)
        .unwrap()
        .epsilon_for(1)
        .unwrap();
    assert!((e1 / e0 - decay).abs() < 1e-12);
}

#[test]
fn streamed_releases_carry_their_scheduled_epoch_shares() {
    // End-to-end accounting: releases published by the ingestor carry
    // exactly the ε the schedule assigned their epoch, and the ledger
    // equals the sum of published ε — under both policies.
    use dpgrid::core::parse_epoch_key;
    use dpgrid::stream::StreamIngestor;
    use std::collections::HashMap;

    let domain = Domain::from_corners(0.0, 0.0, 10.0, 10.0).unwrap();
    let layout = dpgrid::core::EpochLayout::new(0.0, 60.0).unwrap();
    let schedules = [
        BudgetSchedule::uniform(1.0, 10).unwrap(),
        BudgetSchedule::exponential_decay(1.0, 0.5).unwrap(),
    ];
    for schedule in schedules {
        let mut ingestor = StreamIngestor::new("acct", domain, layout, schedule)
            .unwrap()
            .with_seed(7);
        let mut sink: HashMap<String, Release> = HashMap::new();
        for epoch in 0..6u64 {
            for i in 0..40u64 {
                let t = (epoch * 60 + (i % 60)) as f64;
                let p = Point::new(0.1 + (i as f64 % 9.0), 0.2 + ((i / 9) as f64 % 9.0));
                ingestor.push(p, t, &mut sink).unwrap();
            }
        }
        ingestor.flush(&mut sink).unwrap();

        let reference = ingestor.schedule();
        let mut published_sum = 0.0;
        assert_eq!(sink.len(), 6);
        for (key, release) in &sink {
            let (_, range) = parse_epoch_key(key).expect("epoch key");
            let assigned = reference.epsilon_for(range.start).unwrap();
            assert!(
                (release.epsilon() - assigned).abs() < 1e-12,
                "{key}: released ε {} vs scheduled {assigned}",
                release.epsilon()
            );
            published_sum += release.epsilon();
        }
        assert!(
            (reference.spent() - published_sum).abs() < 1e-12,
            "ledger {} vs published {published_sum}",
            reference.spent()
        );
        assert!(reference.spent() <= reference.total() + 1e-12);
    }
}

/// One sealed LDP epoch: `users` reports perturbed on-device with
/// `oracle`, collected, sealed, and the released per-cell estimates
/// returned. Every user's true cell is `cell`.
fn sealed_ldp_estimates(
    oracle: &str,
    users: u32,
    cell: u32,
    seed: u64,
) -> (Vec<f64>, dpgrid::ldp::SealSummary) {
    use dpgrid::ldp::{CollectorConfig, ReportCollector};
    let cells = 64u32;
    let domain = Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap();
    let schedule = BudgetSchedule::uniform(2.0, 2).unwrap();
    let mut collector =
        ReportCollector::new(CollectorConfig::new("ldp", domain, 8, 8, schedule).unwrap()).unwrap();
    let eps = collector.open_epsilon().unwrap();
    let mut r = rng(seed);
    let payload = match oracle {
        "grr" => {
            let grr = Grr::new(cells as usize, eps).unwrap();
            ReportPayload::Grr(
                (0..users)
                    .map(|_| match grr.perturb(cell as usize, &mut r).unwrap() {
                        LocalReport::Cell(c) => c,
                        other => panic!("GRR produced {other:?}"),
                    })
                    .collect(),
            )
        }
        _ => {
            let oue = Oue::new(cells as usize, eps).unwrap();
            let mut bits = Vec::new();
            for _ in 0..users {
                match oue.perturb(cell as usize, &mut r).unwrap() {
                    LocalReport::Bits(words) => bits.extend_from_slice(&words),
                    other => panic!("OUE produced {other:?}"),
                }
            }
            ReportPayload::Oue { count: users, bits }
        }
    };
    collector
        .submit(&ReportBatch {
            keyspace: "ldp".into(),
            epoch: 0,
            epsilon: eps,
            cells,
            payload,
        })
        .unwrap();
    let mut sink = Vec::new();
    let summary = collector.publish_open_epoch(&mut sink).unwrap();
    let release = &sink[0].1;
    assert_eq!(release.metadata().trust, TrustModel::Local);
    let values = release.cells().iter().map(|(_, v)| *v).collect();
    (values, summary)
}

#[test]
fn ldp_estimates_are_unbiased_within_clt_bounds() {
    // Both frequency oracles must debias to the truth: over S seeded
    // rounds of N users all reporting cell 37, the mean estimate for
    // that cell converges on N within a CLT band derived from the
    // empirical per-round spread (≈5σ of the mean — seed-robust).
    let (users, cell, rounds) = (400u32, 37u32, 30u64);
    for oracle in ["grr", "oue"] {
        let estimates: Vec<f64> = (0..rounds)
            .map(|s| sealed_ldp_estimates(oracle, users, cell, 1_000 + s).0[cell as usize])
            .collect();
        let mean = estimates.iter().sum::<f64>() / rounds as f64;
        let spread = std_dev(&estimates) / (rounds as f64).sqrt();
        assert!(
            (mean - users as f64).abs() < 5.0 * spread,
            "{oracle}: mean estimate {mean} vs truth {users} (CLT band {})",
            5.0 * spread
        );
        // And the noise is real: individual rounds do deviate.
        assert!(std_dev(&estimates) > 0.0, "{oracle}: no randomness?");
    }
    // GRR preserves total mass identically (p + (k−1)q = 1), so the
    // released surface sums to exactly the user count, every round.
    let (cells, _) = sealed_ldp_estimates("grr", users, cell, 7);
    let total: f64 = cells.iter().sum();
    assert!(
        (total - users as f64).abs() < 1e-6,
        "GRR mass {total} vs {users}"
    );
}

#[test]
fn ldp_epochs_charge_their_scheduled_epsilon_exactly_once() {
    use dpgrid::ldp::{CollectorConfig, LdpError, ReportCollector};
    use dpgrid::mech::MechError;
    use std::collections::HashMap;

    let domain = Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap();
    let schedule = BudgetSchedule::uniform(1.0, 4).unwrap();
    let mut collector =
        ReportCollector::new(CollectorConfig::new("acct", domain, 8, 8, schedule).unwrap())
            .unwrap();
    let mut sink: HashMap<String, Release> = HashMap::new();

    // Each sealed epoch's release carries exactly the ε the schedule
    // assigned it, and the ledger equals the sum of published ε.
    let mut published_sum = 0.0;
    for epoch in 0..3u64 {
        let eps = collector.open_epsilon().unwrap();
        let grr = Grr::new(64, eps).unwrap();
        let mut r = rng(epoch);
        let reports: Vec<u32> = (0..100)
            .map(|i| match grr.perturb(i % 64, &mut r).unwrap() {
                LocalReport::Cell(c) => c,
                other => panic!("GRR produced {other:?}"),
            })
            .collect();
        collector
            .submit(&ReportBatch {
                keyspace: "acct".into(),
                epoch,
                epsilon: eps,
                cells: 64,
                payload: ReportPayload::Grr(reports),
            })
            .unwrap();
        let summary = collector.publish_open_epoch(&mut sink).unwrap();
        assert!((summary.epsilon - 0.25).abs() < 1e-12);
        published_sum += summary.epsilon;
    }
    assert_eq!(sink.len(), 3);
    for (key, release) in &sink {
        let (_, range) = parse_epoch_key(key).expect("epoch key");
        let assigned = collector.schedule().epsilon_for(range.start).unwrap();
        assert!((release.epsilon() - assigned).abs() < 1e-12, "{key}");
    }
    assert!((collector.schedule().spent() - published_sum).abs() < 1e-12);

    // Charged exactly once: a collector handed a schedule whose epoch
    // 0 was already billed refuses to seal it again — typed, and the
    // ledger untouched.
    let mut spent = BudgetSchedule::uniform(1.0, 4).unwrap();
    spent.spend_epoch(0).unwrap();
    let already = spent.spent();
    let mut replay =
        ReportCollector::new(CollectorConfig::new("acct", domain, 8, 8, spent).unwrap()).unwrap();
    replay
        .submit(&ReportBatch {
            keyspace: "acct".into(),
            epoch: 0,
            epsilon: 0.25,
            cells: 64,
            payload: ReportPayload::Grr(vec![1, 2, 3]),
        })
        .unwrap();
    match replay.publish_open_epoch(&mut sink) {
        Err(LdpError::Mech(MechError::EpochAlreadyCharged { epoch: 0 })) => {}
        other => panic!("expected EpochAlreadyCharged, got {other:?}"),
    }
    assert!((replay.schedule().spent() - already).abs() < 1e-12);
}

#[test]
fn epsilon_scales_error_inversely() {
    // Build UG at ε and 10ε over the same data; the bigger budget's
    // answers must be roughly 10× closer on average (pure noise regime).
    let domain = Domain::from_corners(0.0, 0.0, 1.0, 1.0).unwrap();
    let ds = empty_dataset(domain);
    let q = Rect::new(0.1, 0.1, 0.6, 0.6).unwrap();
    let mut errs_small = Vec::new();
    let mut errs_large = Vec::new();
    for seed in 0..300 {
        let a = UniformGrid::build(&ds, &UgConfig::fixed(0.1, 16), &mut rng(seed)).unwrap();
        errs_small.push(a.answer(&q).abs());
        let b = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 16), &mut rng(seed)).unwrap();
        errs_large.push(b.answer(&q).abs());
    }
    let mean_small = errs_small.iter().sum::<f64>() / errs_small.len() as f64;
    let mean_large = errs_large.iter().sum::<f64>() / errs_large.len() as f64;
    let ratio = mean_small / mean_large;
    assert!(
        (ratio - 10.0).abs() < 3.0,
        "error ratio {ratio}, expected ≈ 10"
    );
}
