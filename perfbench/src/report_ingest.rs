//! `report_ingest`: the LDP write path, over TCP.
//!
//! A `CollectingService<QueryEngine>` covers a 32×32 grid of the
//! landmark domain with a uniform schedule giving ε = 1 per epoch,
//! behind a default `TcpServer`. Every epoch the same users sampled
//! from landmark report once, half through GRR and half through OUE
//! (reports perturbed by the generator before timing starts). One
//! binary-v2 client sends them as pipelined trains of 16 batches × 256
//! reports; the benchmark seals the epoch with `publish_open_epoch` into
//! the engine, and the same client then sends 4 window queries over the
//! last 8 epochs. Epochs older than the last 64 are evicted.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpgrid_core::{epoch_key, EpochRange, Release, ReleaseSink};
use dpgrid_geo::generators::PaperDataset;
use dpgrid_geo::{Domain, PointIndex, Rect};
use dpgrid_ldp::{CollectingService, CollectorConfig, ReportCollector};
use dpgrid_mech::{BudgetSchedule, FrequencyOracle, Grr, LocalReport, Oue};
use dpgrid_net::{TcpClient, TcpServer};
use dpgrid_serve::wire::{
    binary, RequestBody, ResponseBody, WireReportAck, WireReportBatch, WireRequest, WireResponse,
};
use dpgrid_serve::{Catalog, QueryEngine, ReportAck, ReportBatch, ReportPayload};

use crate::common::{self, close, Accuracy, Args, Checks, NetDelta, Scale};
use crate::gen;
use crate::metrics::{Outcome, Values};
use crate::stats::{median, median_ns, Phase, Tally};
use crate::trace::{self, TracedService, TracedSink, Tree};

const KEYSPACE: &str = "landmark";
const GRID: usize = 32;
const CELLS: u32 = (GRID * GRID) as u32;
const EPSILON: f64 = 1.0;
/// Epochs the uniform schedule is sized for: far more than any run
/// seals, so every epoch's share is exactly `EPSILON`.
const HORIZON: usize = 1_000_000;
const BATCH: usize = 256;
const TRAIN: usize = 16;
/// Distinct pre-perturbed report sets; epoch `e` resends set `e % 8`.
const REPORT_SETS: usize = 8;
/// Sealed epochs kept in the engine; older ones are evicted, so the
/// catalog stays the same size however far a run gets.
const RETAIN: u64 = 64;
const WARM_EPOCHS: u64 = 8;
const WINDOW: u64 = 8;
const WINDOWS_PER_EPOCH: u64 = 4;
const WINDOW_RECTS: usize = 64;
const WINDOW_POOL: usize = 256;
/// Evaluation rects per query class. The mean relative error is
/// dominated by rare rects (large ones over near-empty areas, divided
/// by ρ), so the set is large enough for them to average out.
const EVAL_PER_CLASS: usize = 2_000;
/// One window in this many has its sums checked in-process.
const VERIFY_EVERY: u64 = 16;

type Service = TracedService<CollectingService<QueryEngine>>;

struct State {
    service: Arc<Service>,
    server: TcpServer,
    client: TcpClient,
    request: u64,
    /// Reports the server acked.
    acked: u64,
}

impl State {
    fn close(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// What the timed phase needs besides the server state.
struct Run<'a> {
    sets: Vec<Vec<ReportBatch>>,
    windows: &'a [Vec<Rect>],
    users: usize,
    schedule: BudgetSchedule,
}

pub fn run(args: &Args) -> Outcome {
    let scale = Scale::of(args);
    let mut rng = gen::rng(args.seed, 20);
    let population = gen::sample(PaperDataset::Landmark, scale.ldp_users, &mut rng);
    let domain = *population.domain();
    let cells: Vec<usize> = population
        .points()
        .iter()
        .map(|p| {
            let (col, row) = domain
                .cell_of(p, GRID, GRID)
                .expect("users lie in the domain");
            row * GRID + col
        })
        .collect();
    let sets: Vec<Vec<ReportBatch>> = (0..REPORT_SETS)
        .map(|s| perturb(&cells, &mut gen::rng(args.seed, 21 + s as u64)))
        .collect();
    let pool = gen::rects(PaperDataset::Landmark, &population, 512, &mut rng);
    let windows = gen::batches(&pool, WINDOW_POOL, WINDOW_RECTS, &mut rng);
    let eval = gen::rects(
        PaperDataset::Landmark,
        &population,
        EVAL_PER_CLASS / scale.eval_div,
        &mut rng,
    );
    let truth = PointIndex::build(&population);
    let mut run = Run {
        sets,
        windows: &windows,
        users: cells.len(),
        schedule: BudgetSchedule::uniform(EPSILON * HORIZON as f64, HORIZON)
            .expect("valid schedule"),
    };

    let truths: Vec<f64> = eval.iter().map(|r| truth.count(r) as f64).collect();

    // Rounds of set-up then ingest, so the set-ups sample the host
    // across the whole run.
    let rounds = scale.rounds;
    let mut checks = Checks::default();
    let mut accuracy = Accuracy::default();
    let mut tallies = [Tally::default(), Tally::default()];
    let mut setups = Vec::new();
    let mut net = NetDelta::default();
    let mut covered_counts: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut surfaces = Vec::new();
    let (mut sent, mut acked, mut ops) = (0u64, 0u64, 0u64);
    let mut protocol = 0;
    let mut last: Option<(State, u64)> = None;
    for round in 0..rounds {
        trace::set_enabled(args.trace && round + 1 == rounds);
        let (mut state, secs) = setup(&mut run, domain, &mut checks);
        trace::set_enabled(false);
        setups.push(secs);
        protocol = state.client.protocol_version().unwrap_or(0);
        if round == 0 {
            // Accuracy: each warm-up epoch's release on its own, against
            // the users' exact counts. The epochs carry independent
            // report sets, so averaging over them averages independent
            // LDP noise; a window's sum would not (its relative error
            // has the spread of one draw).
            let engine = state.service.inner().inner();
            for epoch in 0..WARM_EPOCHS {
                let key = epoch_key(KEYSPACE, EpochRange::single(epoch));
                let release = engine
                    .with_catalog(|c| c.release(&key).cloned())
                    .expect("warm-up epoch is served");
                let estimates = common::answers(release.surface(), &eval);
                for (estimate, exact) in estimates.iter().zip(&truths) {
                    accuracy.add(*estimate, *exact, cells.len());
                }
            }
            // The same answers over TCP: the warm-up window sums them.
            for rects in eval.chunks(WINDOW_RECTS).take(8) {
                let served = state.client.window(KEYSPACE, 0, WARM_EPOCHS, rects);
                let ok = served.as_ref().is_ok_and(|a| {
                    a.answers.len() == rects.len() && common::sums_match(engine, KEYSPACE, a, rects)
                });
                checks.check(ok, || format!("evaluation window: {served:?}"));
            }
        }

        let before = state.server.transport_stats();
        let acked_before = state.acked;
        let mut epoch = WARM_EPOCHS;
        let mut phase = Phase::new(args.seconds / rounds as f64, args.trace);
        while let Some(traced) = phase.next() {
            let tally = &mut tallies[usize::from(traced)];
            ingest(&mut state, &mut run, epoch, tally, &mut checks);
            sent += cells.len() as u64;
            seal(&mut state, &run, epoch, tally, &mut checks);
            retire(&state, epoch, &mut checks);
            ops += run.sets[0].chunks(TRAIN).len() as u64 + WINDOWS_PER_EPOCH;
            for j in 0..WINDOWS_PER_EPOCH {
                let turn = epoch * WINDOWS_PER_EPOCH + j;
                let slot = turn as usize % WINDOW_POOL;
                let rects = &windows[slot];
                let start_epoch = epoch + 1 - WINDOW;
                state.request += 1;
                let begin = Instant::now();
                let served = {
                    let _root = trace::root("client.window", state.request);
                    state.client.window(KEYSPACE, start_epoch, epoch + 1, rects)
                };
                let elapsed = begin.elapsed();
                let ok = match &served {
                    Ok(answer) => {
                        tally.read(elapsed, rects.len());
                        surfaces.push(answer.covered.len() as f64);
                        if traced {
                            covered_counts.insert(state.request, (slot, answer.covered.len()));
                        }
                        let expected: Vec<EpochRange> =
                            (start_epoch..=epoch).map(EpochRange::single).collect();
                        let mut ok =
                            answer.covered == expected && answer.answers.len() == rects.len();
                        if ok && turn.is_multiple_of(VERIFY_EVERY) {
                            ok = common::sums_match(
                                state.service.inner().inner(),
                                KEYSPACE,
                                answer,
                                rects,
                            );
                        }
                        ok
                    }
                    Err(_) => false,
                };
                checks.check(ok, || format!("window ending at epoch {epoch}: {served:?}"));
            }
            epoch += 1;
        }
        tallies.iter_mut().for_each(Tally::end_round);
        net.add(&before, &state.server.transport_stats());
        acked += state.acked - acked_before;
        if let Some((old, _)) = last.replace((state, epoch)) {
            old.close();
        }
    }
    let (state, sealed) = last.expect("at least one round");
    let engine = state.service.inner().inner();
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
        net.report(&mut values, ops);
        values.set("ldp.accepted_ratio", acked as f64 / sent.max(1) as f64);
        values.set("serve.window.surfaces", crate::stats::mean(&surfaces));
        per_layer(&mut values, &tree, &run, engine, sealed, &covered_counts);
        common::engine_counters(&mut values, &stats);
        common::overhead(&mut values, &tallies);
    }
    crate::report_details(args, protocol, &tallies[0]);
    state.close();
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        checks_ok,
        values,
    }
}

/// A fresh collecting service behind a new server, a connected client,
/// and the warm-up epochs ingested and sealed. Returns the state and
/// the seconds spent in those calls.
fn setup(run: &mut Run, domain: Domain, checks: &mut Checks) -> (State, f64) {
    let mut scratch = Tally::default();
    let start = Instant::now();
    let service = Arc::new(TracedService::new(CollectingService::new(
        QueryEngine::new(Catalog::new()),
        ReportCollector::new(
            CollectorConfig::new(KEYSPACE, domain, GRID, GRID, run.schedule.clone())
                .expect("valid collector"),
        )
        .expect("collector"),
    )));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let client = TcpClient::connect(server.local_addr()).expect("connect");
    let mut busy = start.elapsed();
    let mut state = State {
        service,
        server,
        client,
        request: 0,
        acked: 0,
    };
    for epoch in 0..WARM_EPOCHS {
        busy += ingest(&mut state, run, epoch, &mut scratch, checks);
        busy += seal(&mut state, run, epoch, &mut scratch, checks);
    }
    (state, busy.as_secs_f64())
}

/// One epoch's reports: the first half of the users through GRR, the
/// second half through OUE, in batches of 256 that alternate between
/// the two oracles so every train carries both.
fn perturb(cells: &[usize], rng: &mut rand::rngs::StdRng) -> Vec<ReportBatch> {
    let grr = Grr::new(CELLS as usize, EPSILON).expect("valid oracle");
    let oue = Oue::new(CELLS as usize, EPSILON).expect("valid oracle");
    let (grr_users, oue_users) = cells.split_at(cells.len() / 2);
    let grr_batches = grr_users.chunks(BATCH).map(|users| {
        ReportPayload::Grr(
            users
                .iter()
                .map(|&c| match grr.perturb(c, rng).expect("cell in domain") {
                    LocalReport::Cell(cell) => cell,
                    LocalReport::Bits(_) => unreachable!("GRR reports a cell"),
                })
                .collect(),
        )
    });
    let grr_batches: Vec<ReportPayload> = grr_batches.collect();
    let oue_batches: Vec<ReportPayload> = oue_users
        .chunks(BATCH)
        .map(|users| {
            let mut bits = Vec::with_capacity(users.len() * oue.words());
            for &c in users {
                match oue.perturb(c, rng).expect("cell in domain") {
                    LocalReport::Bits(words) => bits.extend(words),
                    LocalReport::Cell(_) => unreachable!("OUE reports bits"),
                }
            }
            ReportPayload::Oue {
                count: users.len() as u32,
                bits,
            }
        })
        .collect();
    grr_batches
        .into_iter()
        .zip(oue_batches)
        .flat_map(|(g, o)| [g, o])
        .map(|payload| ReportBatch {
            keyspace: KEYSPACE.to_string(),
            epoch: 0,
            epsilon: EPSILON,
            cells: CELLS,
            payload,
        })
        .collect()
}

/// Sends one epoch's reports as pipelined trains, checking every ack.
/// Returns the time spent inside `submit_reports`.
fn ingest(
    state: &mut State,
    run: &mut Run,
    epoch: u64,
    tally: &mut Tally,
    checks: &mut Checks,
) -> Duration {
    let batches = &mut run.sets[epoch as usize % REPORT_SETS];
    for batch in batches.iter_mut() {
        batch.epoch = epoch;
    }
    let mut busy = Duration::ZERO;
    let mut total = 0u64;
    for train in batches.chunks(TRAIN) {
        state.request += 1;
        let start = Instant::now();
        let acks = {
            let _root = trace::root("client.train", state.request);
            state.client.submit_reports(train)
        };
        let elapsed = start.elapsed();
        busy += elapsed;
        let reports: u64 = train.iter().map(ReportBatch::count).sum();
        tally.write(elapsed, reports as usize);
        let ok = match &acks {
            Ok(acks) if acks.len() == train.len() => train.iter().zip(acks).all(|(batch, ack)| {
                total += batch.count();
                ack.as_ref().is_ok_and(|ack: &ReportAck| {
                    state.acked += ack.accepted;
                    ack.epoch == epoch && ack.accepted == batch.count() && ack.epoch_total == total
                })
            }),
            _ => false,
        };
        checks.check(ok, || format!("train in epoch {epoch}: {acks:?}"));
    }
    busy
}

/// Seals the open epoch into the engine and checks the receipt.
/// Returns the time `publish_open_epoch` took.
fn seal(
    state: &mut State,
    run: &Run,
    epoch: u64,
    tally: &mut Tally,
    checks: &mut Checks,
) -> Duration {
    state.request += 1;
    let collecting = state.service.inner();
    let start = Instant::now();
    let summary = {
        let _root = trace::root("ldp.publish_open_epoch", state.request);
        collecting.publish_open_epoch(&mut TracedSink {
            engine: collecting.inner(),
        })
    };
    let elapsed = start.elapsed();
    tally.seal_ns.push(elapsed.as_nanos() as f64);
    let half = (run.users / 2) as u64;
    let ok = summary.as_ref().is_ok_and(|s| {
        s.epoch == epoch
            && s.key == epoch_key(KEYSPACE, EpochRange::single(epoch))
            && run
                .schedule
                .epsilon_for(epoch)
                .is_ok_and(|share| close(s.epsilon, share))
            && s.grr_reports == half
            && s.oue_reports == run.users as u64 - half
    });
    checks.check(ok, || format!("seal of epoch {epoch}: {summary:?}"));
    elapsed
}

/// Evicts the epoch that just fell out of the retained `RETAIN`.
fn retire(state: &State, epoch: u64, checks: &mut Checks) {
    if let Some(old) = epoch.checked_sub(RETAIN) {
        let key = epoch_key(KEYSPACE, EpochRange::single(old));
        let mut sink = TracedSink {
            engine: state.service.inner().inner(),
        };
        let evicted = sink.evict_release(&key);
        checks.check(evicted, || format!("eviction of {key}"));
    }
}

fn per_layer(
    values: &mut Values,
    tree: &Tree,
    run: &Run,
    engine: &QueryEngine,
    sealed: u64,
    covered_counts: &HashMap<u64, (usize, usize)>,
) {
    common::serve_spans(values, tree);
    common::transport(values, tree, &["client.train", "client.window"]);
    values.set(
        "ldp.submit_us.grr",
        median(&tree.durations("ldp.submit.grr")) / 1e3,
    );
    values.set(
        "ldp.submit_us.oue",
        median(&tree.durations("ldp.submit.oue")) / 1e3,
    );
    values.set(
        "ldp.seal_self_ms.p50",
        common::self_p50(tree, "ldp.publish_open_epoch", 1e6, false),
    );

    let recent: Vec<Release> = (sealed.saturating_sub(WINDOW)..sealed)
        .map(|e| {
            engine
                .with_catalog(|c| {
                    c.release(&epoch_key(KEYSPACE, EpochRange::single(e)))
                        .cloned()
                })
                .expect("sealed epoch is served")
        })
        .collect();
    let recent: Vec<&Release> = recent.iter().collect();
    common::window_replays(values, tree, engine, &recent, run.windows, covered_counts);

    // The kernel folds and the estimators on one epoch's reports.
    let batches = &run.sets[0];
    let words = (CELLS as usize).div_ceil(64);
    let (mut grr_acc, mut oue_acc) = (vec![0u64; CELLS as usize], vec![0u64; CELLS as usize]);
    let (mut grr_n, mut oue_n) = (0u64, 0u64);
    for batch in batches {
        match &batch.payload {
            ReportPayload::Grr(reports) => {
                dpgrid_kernels::fold_grr_checked(&mut grr_acc, CELLS, reports).expect("in domain");
                grr_n += reports.len() as u64;
            }
            ReportPayload::Oue { count, bits } => {
                dpgrid_kernels::fold_oue(&mut oue_acc, words, bits);
                oue_n += u64::from(*count);
            }
        }
    }
    let mut scratch = vec![0u64; CELLS as usize];
    let grr_ns = median_ns(9, || {
        for batch in batches {
            if let ReportPayload::Grr(reports) = &batch.payload {
                dpgrid_kernels::fold_grr_checked(&mut scratch, CELLS, reports).expect("in domain");
            }
        }
    });
    values.set(
        "kernels.fold_grr_ns_per_report",
        grr_ns / grr_n.max(1) as f64,
    );
    let oue_ns = median_ns(9, || {
        for batch in batches {
            if let ReportPayload::Oue { bits, .. } = &batch.payload {
                dpgrid_kernels::fold_oue(&mut scratch, words, bits);
            }
        }
    });
    values.set(
        "kernels.fold_oue_ns_per_report",
        oue_ns / oue_n.max(1) as f64,
    );
    let grr = Grr::new(CELLS as usize, EPSILON).expect("valid oracle");
    let oue = Oue::new(CELLS as usize, EPSILON).expect("valid oracle");
    values.set(
        "mech.estimate_us",
        median_ns(101, || {
            black_box(grr.estimate(&grr_acc, grr_n));
            black_box(oue.estimate(&oue_acc, oue_n));
        }) / 1e3,
    );

    // The codec on one train of report frames and their acks.
    let train = &batches[..TRAIN.min(batches.len())];
    let requests: Vec<WireRequest> = train
        .iter()
        .enumerate()
        .map(|(id, batch)| WireRequest {
            protocol_version: binary::PROTOCOL_VERSION,
            id: id as u64,
            body: RequestBody::Report(WireReportBatch::from_batch(batch)),
        })
        .collect();
    let responses: Vec<WireResponse> = train
        .iter()
        .enumerate()
        .map(|(id, batch)| WireResponse {
            protocol_version: binary::PROTOCOL_VERSION,
            id: id as u64,
            body: ResponseBody::Report(WireReportAck {
                keyspace: KEYSPACE.to_string(),
                epoch: batch.epoch,
                accepted: batch.count(),
                epoch_total: batch.count() * (id as u64 + 1),
            }),
        })
        .collect();
    common::replay_wire(values, &requests, &responses);
}
