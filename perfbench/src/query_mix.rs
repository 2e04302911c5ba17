//! `query_mix`: the read path, over TCP.
//!
//! Set-up publishes the paper's UG and AG at their guideline sizes over
//! road, checkin, landmark and storage at ε ∈ {0.1, 1} (16 releases),
//! compiles every surface, and serves them from a `QueryEngine` behind
//! a default `TcpServer`. One binary-v2 client then sends one 64-rect
//! frame at a time for one release: UG releases get 0.8 of the frames
//! and AG 0.2, each class Zipf-skewed over its releases. There are no
//! windows and no writes after set-up, so the workload's write metrics
//! are those central publishes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpgrid_core::{CompiledSurface, Method, Pipeline, SurfaceKind};
use dpgrid_geo::generators::PaperDataset;
use dpgrid_geo::{GeoDataset, PointIndex, Rect};
use dpgrid_net::{TcpClient, TcpServer};
use dpgrid_serve::wire::{
    RequestBody, ResponseBody, WireAnswers, WireQuery, WireRequest, WireResponse,
};
use dpgrid_serve::{CacheState, Catalog, QueryEngine};

use crate::common::{self, answers, close, Accuracy, Args, Checks, NetDelta, Scale};
use crate::gen;
use crate::metrics::{Outcome, Values};
use crate::stats::{median, Phase, Tally};
use crate::trace::{self, TracedService, TracedSink, Tree};

const FRAME_RECTS: usize = 64;
/// Frames in the pool the client cycles through (about; shares round).
const FRAMES: usize = 4096;
const POOL_PER_CLASS: usize = 512;
/// Evaluation rects per query class. The mean relative error is
/// dominated by rare rects (large ones over near-empty areas, divided
/// by ρ), so the set is large enough for them to average out.
const EVAL_PER_CLASS: usize = 1_000;
const UG_SHARE: f64 = 0.8;
const EPSILONS: [f64; 2] = [0.1, 1.0];
/// One frame in this many has its served answers checked in-process
/// (once), and its surface time replayed in a traced run.
const SAMPLE_EVERY: usize = 8;

struct Source {
    kind: PaperDataset,
    data: GeoDataset,
    pool: Vec<Rect>,
    eval: Vec<Rect>,
    /// Exact counts for `eval`.
    truths: Vec<f64>,
}

struct Spec {
    source: usize,
    method: Method,
    ag: bool,
    epsilon: f64,
    key: String,
    seed: u64,
}

struct Frame {
    release: usize,
    rects: Vec<Rect>,
}

struct State {
    service: Arc<TracedService<QueryEngine>>,
    server: TcpServer,
    client: TcpClient,
    surfaces: Vec<Arc<CompiledSurface>>,
}

impl State {
    fn close(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

pub fn run(args: &Args) -> Outcome {
    let scale = Scale::of(args);
    let sources: Vec<Source> = PaperDataset::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let mut rng = gen::rng(args.seed, 10 + i as u64);
            let data = gen::sample(kind, kind.paper_n() / scale.data_div, &mut rng);
            let pool = gen::rects(kind, &data, POOL_PER_CLASS, &mut rng);
            let eval = gen::rects(kind, &data, EVAL_PER_CLASS / scale.eval_div, &mut rng);
            let truth = PointIndex::build(&data);
            let truths = eval.iter().map(|r| truth.count(r) as f64).collect();
            Source {
                kind,
                data,
                pool,
                eval,
                truths,
            }
        })
        .collect();
    let mut specs = Vec::new();
    for (source, s) in sources.iter().enumerate() {
        for ag in [false, true] {
            for epsilon in EPSILONS {
                let method = if ag {
                    Method::ag_suggested()
                } else {
                    Method::ug_suggested()
                };
                let class = if ag { "ag" } else { "ug" };
                specs.push(Spec {
                    source,
                    method,
                    ag,
                    epsilon,
                    key: format!("{}/{class}/eps{epsilon}", s.kind.name()),
                    seed: args.seed.wrapping_mul(31).wrapping_add(specs.len() as u64),
                });
            }
        }
    }
    let frames = frames(args.seed, &sources, &specs);

    // Rounds of set-up then reads, so the set-ups sample the host
    // across the whole run. Every set-up publishes all releases afresh,
    // with its own noise; the accuracy is averaged over all of them.
    let rounds = scale.rounds;
    let mut checks = Checks::default();
    let mut accuracy = Accuracy::default();
    let mut tallies = [Tally::default(), Tally::default()];
    let mut setups = Vec::new();
    let mut net = NetDelta::default();
    let mut traced_frames: HashMap<u64, usize> = HashMap::new();
    let mut request = 0u64;
    let mut protocol = 0;
    let mut last: Option<State> = None;
    for round in 0..rounds {
        let final_round = round + 1 == rounds;
        let traced_setup = args.trace && final_round;
        trace::set_enabled(traced_setup);
        let (mut state, secs) = setup(
            &sources,
            &specs,
            round as u64,
            &mut tallies[usize::from(traced_setup)],
        );
        trace::set_enabled(false);
        setups.push(secs);
        protocol = state.client.protocol_version().unwrap_or(0);
        for (spec, surface) in specs.iter().zip(&state.surfaces) {
            let source = &sources[spec.source];
            let estimates = answers(surface, &source.eval);
            for (estimate, truth) in estimates.iter().zip(&source.truths) {
                accuracy.add(*estimate, *truth, source.data.len());
            }
            // The first evaluation frames over TCP equal those answers.
            for rects in source.eval.chunks(FRAME_RECTS).take(2) {
                let served = state.client.query(&spec.key, rects);
                let ok = served.as_ref().is_ok_and(|r| {
                    r.answers.len() == rects.len()
                        && answers(surface, rects)
                            .iter()
                            .zip(&r.answers)
                            .all(|(a, b)| close(*a, *b))
                });
                checks.check(ok, || {
                    format!("evaluation query on {}: {served:?}", spec.key)
                });
            }
        }

        // Reads: one frame in flight at a time. The self-time replay
        // uses the final round's releases, so only its spans count.
        if final_round {
            traced_frames.clear();
        }
        let before = state.server.transport_stats();
        let mut verified = vec![false; frames.len()];
        let mut phase = Phase::new(args.seconds / rounds as f64, args.trace);
        while let Some(traced) = phase.next() {
            let index = request as usize % frames.len();
            request += 1;
            let frame = &frames[index];
            let key = &specs[frame.release].key;
            let start = Instant::now();
            let served = {
                let _root = trace::root("client.query", request);
                state.client.query(key, &frame.rects)
            };
            let elapsed = start.elapsed();
            if traced {
                traced_frames.insert(request, index);
            }
            let ok = match &served {
                Ok(response) => {
                    tallies[usize::from(traced)].read(elapsed, frame.rects.len());
                    let mut ok =
                        response.release_key == *key && response.answers.len() == frame.rects.len();
                    if ok && index.is_multiple_of(SAMPLE_EVERY) && !verified[index] {
                        verified[index] = true;
                        let expected = answers(&state.surfaces[frame.release], &frame.rects);
                        ok = expected
                            .iter()
                            .zip(&response.answers)
                            .all(|(a, b)| close(*a, *b));
                    }
                    ok
                }
                Err(_) => false,
            };
            checks.check(ok, || format!("frame {index} on {key}: {served:?}"));
        }
        tallies.iter_mut().for_each(Tally::end_round);
        net.add(&before, &state.server.transport_stats());
        if let Some(old) = last.replace(state) {
            old.close();
        }
    }
    let state = last.expect("at least one round");
    let stats = state.service.inner().stats();
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
        per_layer(
            &mut values,
            &tree,
            &specs,
            &frames,
            &state.surfaces,
            &state.service,
            &traced_frames,
        );
        net.report(&mut values, request);
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

/// The frame pool. The mix is exact, not sampled: each release gets
/// its share of the frames (UG 0.8, AG 0.2, Zipf by its fixed rank
/// within the class), so seeds change the order and the rects, never
/// the proportions. Each frame carries 64 rects from its dataset's
/// pool.
fn frames(seed: u64, sources: &[Source], specs: &[Spec]) -> Vec<Frame> {
    let mut rng = gen::rng(seed, 1);
    let mut releases = Vec::with_capacity(FRAMES);
    for (ag, class_share) in [(false, UG_SHARE), (true, 1.0 - UG_SHARE)] {
        let members: Vec<usize> = (0..specs.len()).filter(|&i| specs[i].ag == ag).collect();
        for (&release, share) in members.iter().zip(gen::zipf_shares(members.len())) {
            let count = (FRAMES as f64 * class_share * share).round() as usize;
            releases.extend(std::iter::repeat_n(release, count.max(1)));
        }
    }
    gen::permutation(releases.len(), &mut rng)
        .into_iter()
        .map(|i| {
            let release = releases[i];
            let pool = &sources[specs[release].source].pool;
            let rects = gen::pick(pool, FRAME_RECTS, &mut rng);
            Frame { release, rects }
        })
        .collect()
}

/// Publishes and compiles every release (with noise seeds varied by
/// `rep`), then binds the server and connects the client. Returns the
/// state and the seconds spent in those calls; each release's publish
/// and publish-to-queryable times go to `tally` as the workload's
/// writes and seals.
fn setup(sources: &[Source], specs: &[Spec], rep: u64, tally: &mut Tally) -> (State, f64) {
    let mut busy = Duration::ZERO;
    let engine = QueryEngine::new(Catalog::new());
    let mut surfaces = Vec::with_capacity(specs.len());
    let mut sink = TracedSink { engine: &engine };
    for (i, spec) in specs.iter().enumerate() {
        let data = &sources[spec.source].data;
        let start = Instant::now();
        {
            let name = if spec.ag {
                "core.publish.ag"
            } else {
                "core.publish.ug"
            };
            let _root = trace::root(name, i as u64);
            Pipeline::new(data)
                .epsilon(spec.epsilon)
                .method(spec.method)
                .seed(spec.seed ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .publish_into(&mut sink, spec.key.clone())
                .expect("publish");
        }
        let published = start.elapsed();
        let handle = engine
            .with_catalog(|catalog| catalog.surface(&spec.key))
            .expect("compile a published release");
        let queryable = start.elapsed();
        busy += queryable;
        tally.write(published, data.len());
        tally.seal_ns.push(queryable.as_nanos() as f64);
        surfaces.push(handle.surface);
    }
    let start = Instant::now();
    let service = Arc::new(TracedService::new(engine));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let client = TcpClient::connect(server.local_addr()).expect("connect");
    busy += start.elapsed();
    (
        State {
            service,
            server,
            client,
            surfaces,
        },
        busy.as_secs_f64(),
    )
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    values: &mut Values,
    tree: &Tree,
    specs: &[Spec],
    frames: &[Frame],
    surfaces: &[Arc<CompiledSurface>],
    service: &TracedService<QueryEngine>,
    traced_frames: &HashMap<u64, usize>,
) {
    common::serve_spans(values, tree);
    common::transport(values, tree, &["client.query"]);

    // Surface time of the sampled frames, replayed in-process.
    let mut replayed: HashMap<usize, f64> = HashMap::new();
    let (mut lattice, mut bands) = ((0.0, 0usize), (0.0, 0usize));
    for (index, frame) in frames.iter().enumerate().step_by(SAMPLE_EVERY) {
        let surface = &surfaces[frame.release];
        let ns = common::replay_answers(surface, &frame.rects, 3);
        replayed.insert(index, ns);
        let bucket = match surface.kind() {
            SurfaceKind::Lattice { .. } => &mut lattice,
            SurfaceKind::Bands { .. } => &mut bands,
        };
        bucket.0 += ns;
        bucket.1 += frame.rects.len();
    }
    let per_rect = |(ns, rects): (f64, usize)| if rects > 0 { ns / rects as f64 } else { 0.0 };
    values.set("core.surface.answer_ns.lattice", per_rect(lattice));
    values.set("core.surface.answer_ns.bands", per_rect(bands));

    let engine_self: Vec<f64> = tree
        .named("serve.answer_batch")
        .filter_map(|i| {
            let span = &tree.spans[i];
            let frame = traced_frames.get(&span.request)?;
            let surface_ns = replayed.get(frame)?;
            Some(span.duration() as f64 - surface_ns)
        })
        .collect();
    values.set("serve.engine.self_us.p50", median(&engine_self) / 1e3);
    let engine = service.inner();
    common::replay_keys(values, engine);

    let releases: Vec<_> = specs
        .iter()
        .map(|s| {
            engine
                .with_catalog(|c| c.release(&s.key).cloned())
                .expect("published release")
        })
        .collect();
    let compile_ms: Vec<f64> = releases
        .iter()
        .map(|r| common::replay_compile(r, 3))
        .collect();
    values.set("core.surface.compile_ms", crate::stats::mean(&compile_ms));
    values.set(
        "core.pipeline.publish_ms.ug",
        common::self_p50(tree, "core.publish.ug", 1e6, false),
    );
    values.set(
        "core.pipeline.publish_ms.ag",
        common::self_p50(tree, "core.publish.ag", 1e6, false),
    );

    // The codec on the run's own frames and replies.
    let sample: Vec<&Frame> = frames.iter().take(256).collect();
    let requests: Vec<WireRequest> = sample
        .iter()
        .enumerate()
        .map(|(id, f)| WireRequest {
            protocol_version: dpgrid_serve::wire::binary::PROTOCOL_VERSION,
            id: id as u64,
            body: RequestBody::Query(WireQuery {
                release_key: specs[f.release].key.clone(),
                rects: f.rects.iter().map(Into::into).collect(),
            }),
        })
        .collect();
    let responses: Vec<WireResponse> = sample
        .iter()
        .enumerate()
        .map(|(id, f)| WireResponse {
            protocol_version: dpgrid_serve::wire::binary::PROTOCOL_VERSION,
            id: id as u64,
            body: ResponseBody::Answers(WireAnswers {
                release_key: specs[f.release].key.clone(),
                version: 1,
                cache: CacheState::Warm,
                answers: answers(&surfaces[f.release], &f.rects),
            }),
        })
        .collect();
    common::replay_wire(values, &requests, &responses);
}
