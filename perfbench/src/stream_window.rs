//! `stream_window`: the trusted-curator streaming path, in-process on
//! one thread with no socket.
//!
//! A `StreamIngestor` over the landmark domain receives 20,000 landmark
//! points per epoch in a seeded order. Each epoch builds UG at the
//! fixed Guideline-1 size for 20,000 points at ε = 1 (m = 45), so all
//! epochs share one layout. `Compactor::new(8, 16)` runs after every
//! seal, everything publishes into a `QueryEngine`, and after each seal
//! the benchmark asks 4 windows over the last 8 epochs and 1 over the last
//! 64, each with 64 rects. Tiers that end before the last 64 epochs are
//! evicted.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use dpgrid_core::guidelines::{guideline1, DEFAULT_C};
use dpgrid_core::{epoch_key, EpochLayout, EpochRange, Method, Pipeline, Release, ReleaseSink};
use dpgrid_geo::generators::PaperDataset;
use dpgrid_geo::{Domain, GeoDataset, Point, PointIndex, Rect};
use dpgrid_mech::BudgetSchedule;
use dpgrid_serve::{answer_window, Catalog, QueryEngine, WindowQuery};
use dpgrid_stream::{Compactor, StreamIngestor};

use crate::common::{self, close, Accuracy, Args, Checks, Scale};
use crate::gen;
use crate::metrics::{Outcome, Values};
use crate::stats::{median, median_ns, Phase, Tally};
use crate::trace::{self, TracedService, TracedSink, Tree};

const KEYSPACE: &str = "landmark";
const EPSILON: f64 = 1.0;
/// Epochs the uniform schedule is sized for: far more than any run
/// seals, so every epoch's share is exactly `EPSILON`.
const HORIZON: usize = 1_000_000;
const EPOCH_SECONDS: f64 = 60.0;
/// The point pool holds this many epochs of distinct points; epoch `e`
/// streams slice `e % 8`, so every 8 consecutive epochs stream the
/// whole pool once.
const SLICES: usize = 8;
const TIER: u64 = 8;
const RETAIN_FINE: u64 = 16;
/// Epochs sealed by set-up.
const WARM_EPOCHS: u64 = 64;
const SHORT: u64 = 8;
const LONG: u64 = 64;
const SHORT_WINDOWS: u64 = 4;
const WINDOW_RECTS: usize = 64;
const WINDOW_POOL: usize = 256;
/// Evaluation rects per query class. The mean relative error is
/// dominated by rare rects (large ones over near-empty areas, divided
/// by ρ), so the set is large enough for them to average out.
const EVAL_PER_CLASS: usize = 2_000;
/// A traced run times one non-sealing push in this many on its own.
const PUSH_SAMPLE: usize = 64;
/// One window in this many has its sums checked in-process.
const VERIFY_EVERY: u64 = 16;

struct State {
    service: TracedService<QueryEngine>,
    ingestor: StreamIngestor,
    compactor: Compactor,
    /// Compacted tiers still served, oldest first.
    tiers: VecDeque<EpochRange>,
    request: u64,
}

struct Stream {
    points: Vec<Point>,
    /// Offset of point `i` inside its epoch, seconds.
    offsets: Vec<f64>,
    per_epoch: usize,
    domain: Domain,
    grid: usize,
    schedule: BudgetSchedule,
    seed: u64,
}

pub fn run(args: &Args) -> Outcome {
    let scale = Scale::of(args);
    let per_epoch = scale.stream_points;
    let mut rng = gen::rng(args.seed, 30);
    let pool = gen::sample(PaperDataset::Landmark, SLICES * per_epoch, &mut rng);
    let rect_pool = gen::rects(PaperDataset::Landmark, &pool, 512, &mut rng);
    let windows = gen::batches(&rect_pool, WINDOW_POOL, WINDOW_RECTS, &mut rng);
    let eval = gen::rects(
        PaperDataset::Landmark,
        &pool,
        EVAL_PER_CLASS / scale.eval_div,
        &mut rng,
    );
    let truth = PointIndex::build(&pool);
    let stream = Stream {
        points: pool.points().to_vec(),
        offsets: (0..per_epoch)
            .map(|i| EPOCH_SECONDS * (i as f64 + 0.5) / per_epoch as f64)
            .collect(),
        per_epoch,
        domain: *pool.domain(),
        grid: guideline1(per_epoch, EPSILON, DEFAULT_C),
        schedule: BudgetSchedule::uniform(EPSILON * HORIZON as f64, HORIZON)
            .expect("valid schedule"),
        seed: args.seed,
    };

    // Rounds of set-up then streaming, so the set-ups sample the host
    // across the whole run.
    let rounds = scale.rounds;
    let mut checks = Checks::default();
    let mut accuracy = Accuracy::default();
    let mut tallies = [Tally::default(), Tally::default()];
    let mut setups = Vec::new();
    let mut covered_counts: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut surfaces = Vec::new();
    let mut last: Option<State> = None;
    for round in 0..rounds {
        trace::set_enabled(args.trace && round + 1 == rounds);
        let (mut state, secs) = setup(&stream, &mut checks);
        trace::set_enabled(false);
        setups.push(secs);
        if round == 0 {
            // Accuracy: windows [56, 64) and [0, 64) over the
            // evaluation set. Any 8 consecutive epochs stream the whole
            // pool once.
            for (start, len) in [(WARM_EPOCHS - SHORT, SHORT), (WARM_EPOCHS - LONG, LONG)] {
                let repeats = (len as usize / SLICES) as f64;
                for rects in eval.chunks(WINDOW_RECTS) {
                    let query = WindowQuery::new(KEYSPACE, start, start + len, rects.to_vec())
                        .expect("non-empty window");
                    let served = answer_window(&state.service, &query);
                    let ok = served
                        .as_ref()
                        .is_ok_and(|a| a.answers.len() == rects.len());
                    checks.check(ok, || format!("evaluation window: {served:?}"));
                    if let Ok(answer) = served {
                        for (rect, estimate) in rects.iter().zip(&answer.answers) {
                            let exact = repeats * truth.count(rect) as f64;
                            accuracy.add(*estimate, exact, len as usize * per_epoch);
                        }
                    }
                }
            }
        }

        let mut epoch = WARM_EPOCHS + 1;
        let mut phase = Phase::new(args.seconds / rounds as f64, args.trace);
        while let Some(traced) = phase.next() {
            let tally = &mut tallies[usize::from(traced)];
            seal_and_compact(&mut state, &stream, epoch, tally, &mut checks);
            let windows_now = (0..SHORT_WINDOWS)
                .map(|_| SHORT)
                .chain(std::iter::once(LONG));
            for (j, len) in windows_now.enumerate() {
                let turn = epoch * (SHORT_WINDOWS + 1) + j as u64;
                let slot = turn as usize % WINDOW_POOL;
                let rects = &windows[slot];
                let query = WindowQuery::new(KEYSPACE, epoch - len, epoch, rects.clone())
                    .expect("non-empty");
                state.request += 1;
                let begin = Instant::now();
                let served = {
                    let _root = trace::root("client.window", state.request);
                    answer_window(&state.service, &query)
                };
                let elapsed = begin.elapsed();
                let ok = match &served {
                    Ok(answer) => {
                        tally.read(elapsed, rects.len());
                        surfaces.push(answer.covered.len() as f64);
                        if traced {
                            covered_counts.insert(state.request, (slot, answer.covered.len()));
                        }
                        let mut ok = answer.answers.len() == rects.len()
                            && covers(&answer.covered, epoch - len, epoch);
                        if ok && turn.is_multiple_of(VERIFY_EVERY) {
                            ok = common::sums_match(state.service.inner(), KEYSPACE, answer, rects);
                        }
                        ok
                    }
                    Err(_) => false,
                };
                checks.check(ok, || {
                    format!("window [{}, {epoch}): {served:?}", epoch - len)
                });
            }
            push_rest(&mut state, &stream, epoch, traced, tally, &mut checks);
            epoch += 1;
        }
        tallies.iter_mut().for_each(Tally::end_round);
        last = Some(state);
    }
    let state = last.expect("at least one round");
    let engine = state.service.inner();
    let stats = engine.stats();
    let checks_ok = stats.shed == 0 && stats.unknown_keys == 0 && accuracy.mean().is_finite();
    if !checks_ok {
        eprintln!(
            "engine counters: shed {} unknown keys {}",
            stats.shed, stats.unknown_keys
        );
    }

    let mut values = Values::default();
    values.set("setup_s", median(&setups));
    values.set("peak_rss_mb", crate::stats::peak_rss_mb());
    values.set("rel_err", accuracy.mean());
    common::end_to_end(&mut values, &tallies[0]);
    if args.trace {
        let tree = Tree::new(trace::take());
        crate::dump_spans(args, &tree);
        values.set("serve.window.surfaces", crate::stats::mean(&surfaces));
        per_layer(
            &mut values,
            &tree,
            &state,
            &stream,
            &windows,
            &covered_counts,
        );
        common::engine_counters(&mut values, &stats);
        common::overhead(&mut values, &tallies);
    }
    crate::report_details(args, 0, &tallies[0]);
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        checks_ok,
        values,
    }
}

/// A fresh engine and ingestor with the warm-up epochs streamed:
/// epochs 0..=64 stream in full, so 0..64 are sealed. Returns the state
/// and the seconds spent inside `push` and `compact`.
fn setup(stream: &Stream, checks: &mut Checks) -> (State, f64) {
    let mut scratch = Tally::default();
    let start = Instant::now();
    let mut state = State {
        service: TracedService::new(QueryEngine::new(Catalog::new())),
        ingestor: StreamIngestor::new(
            KEYSPACE,
            stream.domain,
            EpochLayout::new(0.0, EPOCH_SECONDS).expect("valid layout"),
            stream.schedule.clone(),
        )
        .expect("valid ingestor")
        .with_method(Method::ug(stream.grid))
        .with_seed(stream.seed)
        .with_epoch_capacity(stream.per_epoch),
        compactor: Compactor::new(TIER, RETAIN_FINE).expect("valid compactor"),
        tiers: VecDeque::new(),
        request: 0,
    };
    let mut busy = start.elapsed();
    for epoch in 0..=WARM_EPOCHS {
        busy += seal_and_compact(&mut state, stream, epoch, &mut scratch, checks);
        busy += push_rest(&mut state, stream, epoch, false, &mut scratch, checks);
    }
    (state, busy.as_secs_f64())
}

/// The points of `epoch` and the event time its first point carries.
fn slice(stream: &Stream, epoch: u64) -> (&[Point], f64) {
    let at = (epoch as usize % SLICES) * stream.per_epoch;
    (
        &stream.points[at..at + stream.per_epoch],
        epoch as f64 * EPOCH_SECONDS,
    )
}

/// Pushes the first point of `epoch`, which seals `epoch − 1`, then
/// runs the compactor. Returns the time spent inside both calls.
fn seal_and_compact(
    state: &mut State,
    stream: &Stream,
    epoch: u64,
    tally: &mut Tally,
    checks: &mut Checks,
) -> Duration {
    let (points, base) = slice(stream, epoch);
    let engine = state.service.inner();
    let mut sink = TracedSink { engine };
    state.request += 1;
    let start = Instant::now();
    let sealed = {
        let _root = trace::root("stream.seal_push", state.request);
        state
            .ingestor
            .push(points[0], base + stream.offsets[0], &mut sink)
    };
    let sealing = start.elapsed();
    let ok = match &sealed {
        Ok(published) if epoch == 0 => published.is_empty(),
        Ok(published) => {
            published.len() == 1 && {
                let p = &published[0];
                p.epoch == epoch - 1
                    && p.points == stream.per_epoch
                    && stream
                        .schedule
                        .epsilon_for(p.epoch)
                        .is_ok_and(|share| close(p.epsilon, share))
            }
        }
        Err(_) => false,
    };
    checks.check(ok, || format!("sealing push of epoch {epoch}: {sealed:?}"));
    if epoch > 0 {
        tally.seal_ns.push(sealing.as_nanos() as f64);
    }
    tally.write(sealing, 1);

    state.request += 1;
    let start = Instant::now();
    let tiers = {
        let _root = trace::root("stream.compact", state.request);
        state.compactor.compact(&mut state.ingestor, &mut sink)
    };
    let compacting = start.elapsed();
    tally.write(compacting, 0);
    let ok = tiers.as_ref().is_ok_and(|tiers| {
        tiers
            .iter()
            .all(|t| t.epochs.len() as u64 == TIER && close(t.epsilon, TIER as f64 * EPSILON))
    });
    checks.check(ok, || format!("compaction after epoch {epoch}: {tiers:?}"));
    if let Ok(tiers) = tiers {
        state.tiers.extend(tiers.iter().map(|t| t.range));
    }
    // Retention: tiers wholly before the longest window are evicted, so
    // the catalog stays the same size however far a run gets.
    while let Some(&oldest) = state.tiers.front().filter(|t| t.end + LONG <= epoch) {
        state.tiers.pop_front();
        let key = epoch_key(KEYSPACE, oldest);
        let evicted = sink.evict_release(&key);
        checks.check(evicted, || format!("eviction of {key}"));
    }
    sealing + compacting
}

/// Pushes the rest of `epoch`'s points, none of which may seal.
/// Returns the time spent inside `push`.
fn push_rest(
    state: &mut State,
    stream: &Stream,
    epoch: u64,
    traced: bool,
    tally: &mut Tally,
    checks: &mut Checks,
) -> Duration {
    let (points, base) = slice(stream, epoch);
    let mut sink = TracedSink {
        engine: state.service.inner(),
    };
    let ingestor = &mut state.ingestor;
    let mut ok = true;
    let start = Instant::now();
    for (i, (point, offset)) in points.iter().zip(&stream.offsets).enumerate().skip(1) {
        let _span = if traced && i.is_multiple_of(PUSH_SAMPLE) {
            trace::span("stream.push")
        } else {
            None
        };
        ok &= ingestor
            .push(*point, base + offset, &mut sink)
            .is_ok_and(|sealed| sealed.is_empty());
    }
    let elapsed = start.elapsed();
    tally.write(elapsed, points.len() - 1);
    checks.check(ok, || format!("pushes of epoch {epoch} failed or sealed"));
    elapsed
}

/// Whether `covered` tiles exactly `[start, end)`, widened at the start
/// to the compacted tier holding `start`.
fn covers(covered: &[EpochRange], start: u64, end: u64) -> bool {
    let contiguous = covered.windows(2).all(|w| w[0].end == w[1].start);
    match (covered.first(), covered.last()) {
        (Some(first), Some(last)) => {
            contiguous && last.end == end && first.start <= start && start < first.end
        }
        _ => false,
    }
}

fn per_layer(
    values: &mut Values,
    tree: &Tree,
    state: &State,
    stream: &Stream,
    windows: &[Vec<Rect>],
    covered_counts: &HashMap<u64, (usize, usize)>,
) {
    common::serve_spans(values, tree);
    values.set("stream.push_ns.p50", median(&tree.durations("stream.push")));
    values.set(
        "stream.seal_self_ms.p50",
        common::self_p50(tree, "stream.seal_push", 1e6, true),
    );
    values.set(
        "stream.compact_self_ms.p50",
        common::self_p50(tree, "stream.compact", 1e6, true),
    );

    let fine: Vec<&Release> = state.ingestor.retained_fine().values().collect();
    let recent = &fine[fine.len().saturating_sub(TIER as usize)..];
    common::window_replays(
        values,
        tree,
        state.service.inner(),
        recent,
        windows,
        covered_counts,
    );
    let (points, _) = slice(stream, 0);
    let epoch_data =
        GeoDataset::from_points(points.to_vec(), stream.domain).expect("points in the domain");
    values.set(
        "core.pipeline.publish_ms.ug",
        median_ns(9, || {
            black_box(
                Pipeline::new(&epoch_data)
                    .epsilon(EPSILON)
                    .method(Method::ug(stream.grid))
                    .seed(stream.seed)
                    .publish()
                    .expect("publish"),
            );
        }) / 1e6,
    );
}
