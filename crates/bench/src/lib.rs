//! Shared fixtures and the one timing harness for the bench targets in
//! `benches/`, plus the `repro` binary's dataset.
//!
//! Every bench target is a plain `fn main()` over [`Bench`]: it times
//! each row with [`Bench::time`] (or [`Bench::time_with_setup`] when
//! the row's setup must stay off the clock), then [`Bench::write`]s
//! `BENCH_<bench>.json` at the workspace root. Every file has one
//! schema, `{bench, fingerprint, rows}`, and every row carries its
//! median, p10, p90 and sample count in its own [`Unit`]. Run one
//! with `taskset -c 0 cargo bench -p dpgrid-bench --bench <bench>`;
//! `tests/bench_files.rs` checks every committed file against the
//! schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use dpgrid_geo::generators::PaperDataset;
use dpgrid_geo::GeoDataset;

/// Deterministic dataset fixture used by the benches: `landmark`-shaped
/// data at the requested size.
pub fn bench_dataset(n: usize) -> GeoDataset {
    PaperDataset::Landmark
        .generate_n(0xBE7C4, n)
        .expect("bench dataset generates")
}

/// Deterministic RNG fixture.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0x5EED)
}

/// Samples every row takes at least.
pub const MIN_SAMPLES: usize = 10;
/// Once a row has [`MIN_SAMPLES`], it keeps sampling until this much
/// wall time has passed since its first sample.
pub const TIME_BUDGET: Duration = Duration::from_millis(500);
/// Samples no row exceeds.
pub const MAX_SAMPLES: usize = 200;
/// Shortest a [`Bench::time`] sample may last, so no sample sits at
/// timer resolution: a faster closure is repeated within the sample.
pub const MIN_SAMPLE_TIME: Duration = Duration::from_millis(1);

/// What a row reports for each timed call.
#[derive(Debug, Clone, Copy)]
pub enum Unit {
    /// Nanoseconds per call.
    Ns,
    /// Milliseconds per call.
    Ms,
    /// Nanoseconds per item, for calls that each handle this many
    /// items: `ns_per_<item>`.
    NsPer(&'static str, usize),
    /// Items per second, for calls that each handle this many items:
    /// `<items>_per_sec`.
    PerSec(&'static str, usize),
}

impl Unit {
    fn name(self) -> String {
        match self {
            Unit::Ns => "ns".into(),
            Unit::Ms => "ms".into(),
            Unit::NsPer(item, _) => format!("ns_per_{item}"),
            Unit::PerSec(items, _) => format!("{items}_per_sec"),
        }
    }

    /// One sample of `ns` nanoseconds per call, in this unit.
    fn convert(self, ns: f64) -> f64 {
        match self {
            Unit::Ns => ns,
            Unit::Ms => ns / 1e6,
            Unit::NsPer(_, n) => ns / n as f64,
            Unit::PerSec(_, n) => n as f64 * 1e9 / ns,
        }
    }
}

/// One measured row of a `BENCH_*.json` file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// What was measured, unique within its file.
    pub label: String,
    /// The unit of `median`, `p10` and `p90`.
    pub unit: String,
    /// Median over the samples.
    pub median: f64,
    /// 10th percentile over the samples.
    pub p10: f64,
    /// 90th percentile over the samples.
    pub p90: f64,
    /// Samples taken.
    pub samples: usize,
}

/// The machine a file was recorded on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fingerprint {
    /// [`dpgrid_geo::available_parallelism`] of the bench process.
    pub parallelism: usize,
    /// [`dpgrid_kernels::active_backend`] of the bench process.
    pub kernel_backend: String,
}

/// One bench target's rows: what it writes to `BENCH_<bench>.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Bench {
    /// The bench target's name.
    pub bench: String,
    /// Where the rows were measured.
    pub fingerprint: Fingerprint,
    /// The rows, in measurement order.
    pub rows: Vec<Row>,
}

impl Bench {
    /// An empty file for bench target `bench`, fingerprinting this
    /// process.
    pub fn new(bench: &str) -> Bench {
        Bench {
            bench: bench.into(),
            fingerprint: Fingerprint {
                parallelism: dpgrid_geo::available_parallelism(),
                kernel_backend: dpgrid_kernels::active_backend().into(),
            },
            rows: Vec::new(),
        }
    }

    /// Times `f` as row `label`. After one warm-up call, each sample
    /// runs `f` in a batch that lasts at least [`MIN_SAMPLE_TIME`]
    /// (shorter batches are discarded and doubled) and records the
    /// batch time per call. Each call goes through `black_box`, so the
    /// optimizer cannot fold a batch into fewer calls.
    pub fn time<T>(&mut self, label: impl Into<String>, unit: Unit, mut f: impl FnMut() -> T) {
        black_box(f());
        let mut reps = 1u64;
        let samples = sample(|| loop {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(black_box(&mut f)());
            }
            let elapsed = t.elapsed();
            if elapsed >= MIN_SAMPLE_TIME {
                return elapsed.as_nanos() as f64 / reps as f64;
            }
            reps *= 2;
        });
        self.push(label.into(), unit, &samples);
    }

    /// Times `routine` as row `label`, one call per sample, each on a
    /// fresh input from `setup`. Neither `setup` nor dropping the
    /// routine's output is timed. One untimed warm-up call comes first.
    pub fn time_with_setup<I, T>(
        &mut self,
        label: impl Into<String>,
        unit: Unit,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> T,
    ) {
        black_box(routine(setup()));
        let samples = sample(|| {
            let input = setup();
            let t = Instant::now();
            let out = black_box(routine(input));
            let ns = t.elapsed().as_nanos() as f64;
            drop(out);
            ns
        });
        self.push(label.into(), unit, &samples);
    }

    /// Writes the rows to `BENCH_<bench>.json` at the workspace root,
    /// one row per line.
    pub fn write(&self) {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| format!("  {}", to_json(row)))
            .collect();
        let text = format!(
            "{{\"bench\": {}, \"fingerprint\": {}, \"rows\": [\n{}\n]}}\n",
            to_json(&self.bench),
            to_json(&self.fingerprint),
            rows.join(",\n")
        );
        let path = workspace_root().join(format!("BENCH_{}.json", self.bench));
        if let Err(e) = std::fs::write(&path, text) {
            panic!("{}: cannot write {}: {e}", self.bench, path.display());
        }
    }

    /// Converts each per-call sample to `unit`, then records its
    /// quantiles as a row and prints it.
    fn push(&mut self, label: String, unit: Unit, ns_per_call: &[f64]) {
        let mut values: Vec<f64> = ns_per_call.iter().map(|&ns| unit.convert(ns)).collect();
        values.sort_by(f64::total_cmp);
        let row = Row {
            label,
            unit: unit.name(),
            median: round4(quantile(&values, 0.5)),
            p10: round4(quantile(&values, 0.1)),
            p90: round4(quantile(&values, 0.9)),
            samples: values.len(),
        };
        println!(
            "{}/{}: {} {} (p10 {}, p90 {}, {} samples)",
            self.bench, row.label, row.median, row.unit, row.p10, row.p90, row.samples
        );
        self.rows.push(row);
    }
}

/// One label of two runs of one bench, as [`diff`] pairs them.
#[derive(Debug, Clone, Copy)]
pub struct RowDiff<'a> {
    /// The row's label.
    pub label: &'a str,
    /// Its row in the old run, if measured there.
    pub old: Option<&'a Row>,
    /// Its row in the new run, if measured there.
    pub new: Option<&'a Row>,
}

impl RowDiff<'_> {
    /// New median over old, when both runs have the row.
    pub fn ratio(&self) -> Option<f64> {
        Some(self.new?.median / self.old?.median)
    }

    /// Whether the row moved beyond its spread: each run's median lies
    /// outside the other run's p10–p90.
    pub fn moved(&self) -> bool {
        let (Some(old), Some(new)) = (self.old, self.new) else {
            return false;
        };
        let outside = |x: f64, row: &Row| x < row.p10 || x > row.p90;
        outside(old.median, new) && outside(new.median, old)
    }
}

/// Pairs the rows of two runs of one bench by label: `old`'s labels in
/// its order, then the labels only `new` has.
pub fn diff<'a>(old: &'a Bench, new: &'a Bench) -> Vec<RowDiff<'a>> {
    let find = |bench: &'a Bench, label: &str| bench.rows.iter().find(|r| r.label == label);
    let mut rows: Vec<RowDiff<'a>> = (old.rows.iter())
        .map(|row| RowDiff {
            label: &row.label,
            old: Some(row),
            new: find(new, &row.label),
        })
        .collect();
    rows.extend(
        (new.rows.iter())
            .filter(|row| find(old, &row.label).is_none())
            .map(|row| RowDiff {
                label: &row.label,
                old: None,
                new: Some(row),
            }),
    );
    rows
}

/// The workspace root, where the `BENCH_*.json` files live.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Takes samples until both [`MIN_SAMPLES`] and [`TIME_BUDGET`] are
/// met, up to [`MAX_SAMPLES`].
fn sample(mut one: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_SAMPLES
        && (samples.len() < MIN_SAMPLES || start.elapsed() < TIME_BUDGET)
    {
        samples.push(one());
    }
    samples
}

/// Linear-interpolated `q`-quantile of ascending, non-empty samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `x` rounded to four significant digits, far finer than any row's
/// spread; keeps the files readable.
fn round4(x: f64) -> f64 {
    format!("{x:.3e}")
        .parse()
        .expect("a formatted float parses")
}

fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("bench rows serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_rows_convert_each_sample_before_taking_quantiles() {
        let mut bench = Bench::new("unit");
        // 1, 2, 4 µs per call of 1,000 items: the rate quantiles are
        // those of the converted samples, so p10 is the slow call.
        bench.push("r".into(), Unit::PerSec("items", 1_000), &[1e3, 2e3, 4e3]);
        let row = &bench.rows[0];
        assert_eq!(row.unit, "items_per_sec");
        assert_eq!(row.median, 5e8);
        assert_eq!(row.p10, 3e8);
        assert_eq!(row.p90, 9e8);
        assert_eq!(row.samples, 3);
    }

    #[test]
    fn fast_closures_are_batched_past_the_timer() {
        let mut bench = Bench::new("unit");
        let mut calls = 0u64;
        bench.time("noop", Unit::Ns, || calls += 1);
        let row = &bench.rows[0];
        assert!(row.samples >= MIN_SAMPLES && row.samples <= MAX_SAMPLES);
        // Every kept sample lasted at least MIN_SAMPLE_TIME, so a
        // trivial closure ran far more often than once per sample.
        assert!(calls > 100 * row.samples as u64, "{calls} calls");
        assert!(row.p10 <= row.median && row.median <= row.p90);
    }

    #[test]
    fn setup_stays_off_the_clock() {
        let mut bench = Bench::new("unit");
        bench.time_with_setup(
            "setup",
            Unit::Ms,
            || std::thread::sleep(Duration::from_millis(5)),
            |()| (),
        );
        assert!(bench.rows[0].p90 < 1.0, "{:?}", bench.rows[0]);
    }

    #[test]
    fn diff_flags_only_rows_whose_medians_leave_each_others_spread() {
        let row = |label: &str, median: f64, p10: f64, p90: f64| Row {
            label: label.into(),
            unit: "ns".into(),
            median,
            p10,
            p90,
            samples: 10,
        };
        let mut old = Bench::new("unit");
        old.rows = vec![
            row("faster", 100.0, 90.0, 110.0),
            row("overlap", 100.0, 90.0, 110.0),
            row("gone", 5.0, 4.0, 6.0),
        ];
        let mut new = Bench::new("unit");
        new.rows = vec![
            row("added", 7.0, 6.0, 8.0),
            // The new median sits inside the old spread: not a move.
            row("overlap", 108.0, 95.0, 140.0),
            row("faster", 50.0, 45.0, 55.0),
        ];
        let rows = diff(&old, &new);
        let labels: Vec<&str> = rows.iter().map(|r| r.label).collect();
        assert_eq!(labels, ["faster", "overlap", "gone", "added"]);
        let moved: Vec<bool> = rows.iter().map(RowDiff::moved).collect();
        assert_eq!(moved, [true, false, false, false]);
        assert_eq!(rows[0].ratio(), Some(0.5));
        assert_eq!(rows[2].ratio(), None);
        assert!(rows[3].old.is_none() && rows[3].new.is_some());
    }

    #[test]
    fn rounding_keeps_four_significant_digits() {
        assert_eq!(round4(6169.236842), 6169.0);
        assert_eq!(round4(0.123456), 0.1235);
        assert_eq!(round4(14_278_941.0), 14_280_000.0);
        assert_eq!(round4(0.0), 0.0);
    }
}
