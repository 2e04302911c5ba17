//! Order statistics, the per-mode tallies the end-to-end metrics are
//! computed from, and the process memory probe.

use std::time::{Duration, Instant};

/// Linear-interpolated `q`-quantile of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median wall time of `reps` calls of `f`, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Slices `read_p95_us` takes its median over.
const TAIL_SLICES: usize = 5;

/// What one measurement mode (untraced or traced) saw: the raw samples
/// behind the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of each read request (frame or window), ns.
    pub read_ns: Vec<f64>,
    /// Time from each seal or publish call until its release can be
    /// queried, ns.
    pub seal_ns: Vec<f64>,
    /// Items written (points published or pushed, reports acked).
    pub write_items: u64,
    /// Per closed round: rects read, ns inside reads, items written, ns
    /// inside writes.
    rounds: Vec<[f64; 4]>,
    open: [f64; 4],
}

impl Tally {
    /// Records one read request of `rects` rectangles.
    pub fn read(&mut self, elapsed: Duration, rects: usize) {
        let ns = elapsed.as_nanos() as f64;
        self.read_ns.push(ns);
        self.open[0] += rects as f64;
        self.open[1] += ns;
    }

    /// Records one write call that took in `items`.
    pub fn write(&mut self, elapsed: Duration, items: usize) {
        self.write_items += items as u64;
        self.open[2] += items as f64;
        self.open[3] += elapsed.as_nanos() as f64;
    }

    /// Closes a round: the rates are medians over rounds, so a round
    /// hit by a burst of host contention moves one sample, not the run.
    pub fn end_round(&mut self) {
        self.rounds.push(std::mem::take(&mut self.open));
    }

    /// Median over rounds of the items done per second spent doing
    /// them; `done` and `busy` index a round's counters.
    fn rate(&self, done: usize, busy: usize) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .chain([&self.open])
            .filter(|r| r[busy] > 0.0)
            .map(|r| r[done] / (r[busy] / 1e9))
            .collect();
        median(&rates)
    }

    /// Rects answered per second spent inside read requests.
    pub fn read_rects_per_s(&self) -> f64 {
        self.rate(0, 1)
    }

    /// Items written per second spent inside write calls.
    pub fn ingest_items_per_s(&self) -> f64 {
        self.rate(2, 3)
    }

    pub fn read_p50_us(&self) -> f64 {
        quantile(&self.read_ns, 0.5) / 1e3
    }

    /// The 95th percentile of each of five consecutive slices of the
    /// reads, then the median of those five: a stall burst on a shared
    /// host moves one slice, not the result. The 95th percentile is
    /// where each workload's expensive read class sits (AG frames,
    /// first reads after a seal, 64-epoch windows); further out, the
    /// tail is thread wake-up stalls of the host.
    pub fn read_p95_us(&self) -> f64 {
        let slice = self.read_ns.len().div_ceil(TAIL_SLICES).max(1);
        let tails: Vec<f64> = self
            .read_ns
            .chunks(slice)
            .map(|reads| quantile(reads, 0.95))
            .collect();
        median(&tails) / 1e3
    }

    pub fn seal_p50_ms(&self) -> f64 {
        median(&self.seal_ns) / 1e6
    }
}

/// The timed phase: closed-loop iterations until `seconds` have passed.
/// A traced run splits the phase into alternating half-second slices,
/// untraced then traced, so both modes see the same host and the same
/// program state; the difference between them is the tracing overhead.
pub struct Phase {
    start: Instant,
    seconds: f64,
    traced_run: bool,
}

/// Length of one untraced or traced slice of a traced run.
const SLICE_SECONDS: f64 = 0.5;

impl Phase {
    pub fn new(seconds: f64, traced_run: bool) -> Self {
        Phase {
            start: Instant::now(),
            seconds,
            traced_run,
        }
    }

    /// `None` once the phase is over; otherwise whether the next
    /// iteration is traced (and tracing is switched to match).
    pub fn next(&mut self) -> Option<bool> {
        let elapsed = self.start.elapsed().as_secs_f64();
        if elapsed >= self.seconds {
            crate::trace::set_enabled(false);
            return None;
        }
        let traced = self.traced_run && (elapsed / SLICE_SECONDS) as u64 % 2 == 1;
        crate::trace::set_enabled(traced);
        Some(traced)
    }
}
