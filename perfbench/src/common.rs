//! What the three workloads share: arguments and run scale, output
//! checks, accuracy, and the per-layer metrics every path can report.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use dpgrid_core::{epoch_key, merge_releases, CompiledSurface, Release};
use dpgrid_eval::metrics::{relative_error, rho_for};
use dpgrid_geo::Rect;
use dpgrid_serve::wire::{binary, WireRequest, WireResponse};
use dpgrid_serve::{EngineStats, QueryEngine, TransportStats, WindowAnswer};

use crate::metrics::Values;
use crate::stats::{median, median_ns, quantile, Tally};
use crate::trace::Tree;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every input for the self-test.
    pub smoke: bool,
}

/// Input sizes of a run: full scale for measurement, smoke scale for
/// the self-test.
pub struct Scale {
    /// Paper dataset sizes are divided by this.
    pub data_div: usize,
    /// Rounds per run, each a set-up and an equal share of the timed
    /// phase; `setup_s` is the median set-up.
    pub rounds: usize,
    /// LDP users, each reporting once per epoch.
    pub ldp_users: usize,
    /// Points streamed per epoch.
    pub stream_points: usize,
    /// Evaluation sets are divided by this.
    pub eval_div: usize,
}

impl Scale {
    pub fn of(args: &Args) -> Scale {
        if args.smoke {
            Scale {
                data_div: 64,
                rounds: 2,
                ldp_users: 1 << 12,
                stream_points: 2_000,
                eval_div: 20,
            }
        } else {
            Scale {
                data_div: 1,
                rounds: 8,
                ldp_users: 1 << 16,
                stream_points: 20_000,
                eval_div: 1,
            }
        }
    }
}

/// Counts operations made and the ones whose output check failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// Equal to within 1e-9, relative to the larger magnitude (absolute
/// below 1).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Accumulates the paper's relative error (§V-A) over an evaluation
/// set.
#[derive(Default)]
pub struct Accuracy {
    errors: Vec<f64>,
}

impl Accuracy {
    /// One answer against its exact count, for a dataset of `n` points.
    pub fn add(&mut self, estimate: f64, truth: f64, n: usize) {
        self.errors
            .push(relative_error(estimate, truth, rho_for(n)));
    }

    pub fn mean(&self) -> f64 {
        crate::stats::mean(&self.errors)
    }
}

/// The answers `surface` gives to `rects`, for checking served answers.
pub fn answers(surface: &CompiledSurface, rects: &[Rect]) -> Vec<f64> {
    rects.iter().map(|r| surface.answer(r)).collect()
}

/// Median time to answer `rects` on `surface`, ns.
pub fn replay_answers(surface: &CompiledSurface, rects: &[Rect], reps: usize) -> f64 {
    median_ns(reps, || {
        for r in rects {
            black_box(surface.answer(black_box(r)));
        }
    })
}

/// Median time to compile a fresh clone of `release`, ms.
pub fn replay_compile(release: &Release, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut fresh = release.clone();
            fresh.evict_surface();
            let start = Instant::now();
            black_box(fresh.surface());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) / 1e6
}

/// Whether a window's answers equal the sums of the covered releases'
/// own answers, read from the engine's catalog.
pub fn sums_match(
    engine: &QueryEngine,
    keyspace: &str,
    answer: &WindowAnswer,
    rects: &[Rect],
) -> bool {
    engine.with_catalog(|catalog| {
        let releases: Option<Vec<&Release>> = answer
            .covered
            .iter()
            .map(|r| catalog.release(&epoch_key(keyspace, *r)))
            .collect();
        releases.is_some_and(|releases| {
            rects.iter().zip(&answer.answers).all(|(rect, got)| {
                let sum: f64 = releases.iter().map(|r| r.surface().answer(rect)).sum();
                close(*got, sum)
            })
        })
    })
}

/// Replays of the window workloads, whose epochs (and tiers) all share
/// one layout, so the newest of `recent` stands in for every surface:
/// answering each pooled window's rects, compiling, merging `recent`,
/// and the engine's share of each traced window (its `answer_batch`
/// span minus the replayed surface time of the epochs it covered).
/// `covered` maps a traced window's request id to its pool slot and
/// covered epoch count.
pub fn window_replays(
    values: &mut Values,
    tree: &Tree,
    engine: &QueryEngine,
    recent: &[&Release],
    windows: &[Vec<Rect>],
    covered: &HashMap<u64, (usize, usize)>,
) {
    let newest = recent.last().expect("epochs were sealed");
    let surface = newest.shared_surface();
    let replayed: Vec<f64> = windows
        .iter()
        .map(|rects| replay_answers(&surface, rects, 5))
        .collect();
    let rects: usize = windows.iter().map(Vec::len).sum();
    values.set(
        "core.surface.answer_ns.lattice",
        replayed.iter().sum::<f64>() / rects as f64,
    );
    let engine_self: Vec<f64> = tree
        .named("serve.answer_batch")
        .filter_map(|i| {
            let span = &tree.spans[i];
            let (slot, epochs) = covered.get(&span.request)?;
            Some(span.duration() as f64 - *epochs as f64 * replayed[*slot])
        })
        .collect();
    values.set("serve.engine.self_us.p50", median(&engine_self) / 1e3);
    replay_keys(values, engine);
    values.set("core.surface.compile_ms", replay_compile(newest, 9));
    values.set(
        "core.temporal.merge_ms",
        median_ns(9, || {
            black_box(merge_releases("replay", recent).expect("aligned epochs merge"));
        }) / 1e6,
    );
}

/// `serve.engine.keys_us`: listing the engine's keys at its final
/// catalog size (every window lists them).
pub fn replay_keys(values: &mut Values, engine: &QueryEngine) {
    values.set(
        "serve.engine.keys_us",
        median_ns(101, || {
            black_box(engine.keys());
        }) / 1e3,
    );
}

/// Sets the end-to-end metrics the timed phase measures.
pub fn end_to_end(values: &mut Values, untraced: &Tally) {
    values.set("read_rects_per_s", untraced.read_rects_per_s());
    values.set("read_p50_us", untraced.read_p50_us());
    values.set("read_p95_us", untraced.read_p95_us());
    values.set("ingest_items_per_s", untraced.ingest_items_per_s());
    values.set("seal_p50_ms", untraced.seal_p50_ms());
}

/// Traced minus untraced end-to-end numbers.
pub fn overhead(values: &mut Values, tallies: &[Tally; 2]) {
    let [off, on] = tallies;
    let diff = |f: fn(&Tally) -> f64| f(on) - f(off);
    values.set("trace.overhead.read_p50_us", diff(Tally::read_p50_us));
    values.set("trace.overhead.read_p95_us", diff(Tally::read_p95_us));
    values.set(
        "trace.overhead.read_rects_per_s",
        diff(Tally::read_rects_per_s),
    );
    values.set(
        "trace.overhead.ingest_items_per_s",
        diff(Tally::ingest_items_per_s),
    );
    values.set("trace.overhead.seal_p50_ms", diff(Tally::seal_p50_ms));
}

/// Span metrics of the serving layers every workload loads.
pub fn serve_spans(values: &mut Values, tree: &Tree) {
    let batch = tree.durations("serve.answer_batch");
    values.set(
        "serve.engine.answer_batch_us.p50",
        quantile(&batch, 0.5) / 1e3,
    );
    values.set(
        "serve.engine.answer_batch_us.p99",
        quantile(&batch, 0.99) / 1e3,
    );
    values.set(
        "serve.catalog.insert_us.p50",
        median(&tree.durations("serve.catalog.insert")) / 1e3,
    );
    values.set(
        "serve.catalog.evict_us.p50",
        median(&tree.durations("serve.catalog.evict")) / 1e3,
    );
    values.set(
        "serve.window.latency_us.p50",
        median(&tree.durations("serve.window")) / 1e3,
    );
}

/// Median self time of the spans called `name`, divided by `unit_ns`.
/// With `busy_only`, only spans with children count: the calls that
/// did publish or evict something.
pub fn self_p50(tree: &Tree, name: &str, unit_ns: f64, busy_only: bool) -> f64 {
    let selfs: Vec<f64> = tree
        .named(name)
        .filter(|&i| !busy_only || tree.has_children(i))
        .map(|i| tree.self_ns(i) as f64)
        .collect();
    median(&selfs) / unit_ns
}

/// `net.transport_us.p50`: each client request span minus the server
/// spans under it.
pub fn transport(values: &mut Values, tree: &Tree, roots: &[&str]) {
    let samples: Vec<f64> = roots
        .iter()
        .flat_map(|name| tree.named(name).collect::<Vec<_>>())
        .map(|i| tree.self_ns(i) as f64)
        .collect();
    values.set("net.transport_us.p50", median(&samples) / 1e3);
}

/// Socket counters over the timed phases.
#[derive(Default)]
pub struct NetDelta {
    bytes_in: u64,
    bytes_out: u64,
    read_stalls: u64,
    write_stalls: u64,
}

impl NetDelta {
    /// Adds what one server counted between two snapshots.
    pub fn add(&mut self, before: &TransportStats, after: &TransportStats) {
        self.bytes_in += after.bytes_in - before.bytes_in;
        self.bytes_out += after.bytes_out - before.bytes_out;
        self.read_stalls += after.read_stalls - before.read_stalls;
        self.write_stalls += after.write_stalls - before.write_stalls;
    }

    /// Sets the `net.*` counters, bytes per client operation.
    pub fn report(&self, values: &mut Values, ops: u64) {
        let ops = ops.max(1) as f64;
        values.set("net.bytes_in_per_op", self.bytes_in as f64 / ops);
        values.set("net.bytes_out_per_op", self.bytes_out as f64 / ops);
        values.set("net.read_stalls", self.read_stalls as f64);
        values.set("net.write_stalls", self.write_stalls as f64);
    }
}

/// Engine and catalog counters.
pub fn engine_counters(values: &mut Values, stats: &EngineStats) {
    let c = &stats.catalog;
    values.set("serve.engine.shed", stats.shed as f64);
    values.set("serve.engine.unknown_keys", stats.unknown_keys as f64);
    values.set("serve.catalog.compilations", c.compilations as f64);
    values.set(
        "serve.catalog.warm_hit_ratio",
        c.warm_hits as f64 / c.lookups.max(1) as f64,
    );
    values.set("serve.catalog.evictions", c.evictions as f64);
    values.set(
        "serve.catalog.resident_mb",
        c.resident_bytes as f64 / f64::from(1 << 20),
    );
}

/// Replays the binary codec on a run's own frames: mean ns per frame
/// for each of the four directions, median over passes.
pub fn replay_wire(values: &mut Values, requests: &[WireRequest], responses: &[WireResponse]) {
    const PASSES: usize = 9;
    let mut buf = Vec::new();
    let req_frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            binary::encode_request(r, &mut buf).expect("encodable request");
            buf.clone()
        })
        .collect();
    let resp_frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            binary::encode_response(r, &mut buf).expect("encodable response");
            buf.clone()
        })
        .collect();
    let per_frame = |n: usize, ns: f64| ns / n.max(1) as f64;
    let ns = median_ns(PASSES, || {
        for r in requests {
            binary::encode_request(r, &mut buf).expect("encodable request");
            black_box(&buf);
        }
    });
    values.set(
        "serve.wire.encode_request_ns",
        per_frame(requests.len(), ns),
    );
    let ns = median_ns(PASSES, || {
        for frame in &req_frames {
            let (head, payload) = frame.split_at(binary::HEADER_BYTES);
            let header = binary::decode_header(head.try_into().expect("header bytes"))
                .expect("valid header");
            black_box(binary::decode_request(&header, payload).expect("valid request"));
        }
    });
    values.set(
        "serve.wire.decode_request_ns",
        per_frame(requests.len(), ns),
    );
    let ns = median_ns(PASSES, || {
        for r in responses {
            binary::encode_response(r, &mut buf).expect("encodable response");
            black_box(&buf);
        }
    });
    values.set(
        "serve.wire.encode_response_ns",
        per_frame(responses.len(), ns),
    );
    let ns = median_ns(PASSES, || {
        for frame in &resp_frames {
            let (head, payload) = frame.split_at(binary::HEADER_BYTES);
            let header = binary::decode_header(head.try_into().expect("header bytes"))
                .expect("valid header");
            black_box(binary::decode_response(&header, payload).expect("valid response"));
        }
    });
    values.set(
        "serve.wire.decode_response_ns",
        per_frame(responses.len(), ns),
    );
}
