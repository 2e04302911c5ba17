//! End-to-end benchmark of dpgrid: one command, three workloads, each
//! in its own process, from one client thread with at most one TCP
//! connection, every output checked.
//!
//! ```text
//! perfbench --workload <query_mix|report_ingest|stream_window>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Why each workload exists — each loads a different set of layers, so
//! a change to one layer has a workload that shows it and one where the
//! prediction is no change:
//!
//! * `query_mix` — the read path the paper judges UG and AG on: q1–q6
//!   range queries over the four paper datasets, 64-rect frames over a
//!   binary-v2 connection. Net, wire, engine and lattice answering set
//!   the median frame; AG's band index sets the tail and the rect rate.
//!   No windows, no kernel folds, no seals after set-up.
//! * `report_ingest` — the local-DP write path: GRR and OUE report
//!   trains through the same net and wire layers (large requests, tiny
//!   replies), the kernel folds and collector validation, the
//!   seal/publish, and windows over aligned LDP layouts.
//! * `stream_window` — the trusted-curator streaming path, in-process:
//!   `push`, the per-epoch UG build with Laplace noise, catalog churn,
//!   aligned compaction merges, and windows fanned out over up to 64
//!   epochs. No socket, no codec, no folds.
//!
//! `perfbench/run.py` builds this binary and runs it pinned to one CPU
//! (see there for why), so `available_parallelism` in the fingerprint
//! reads 1 and the engine's adaptive fan-out stays on the calling
//! thread.
//!
//! Every run prints a fingerprint line and then, as its last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics and the
//! tracing overhead (`--trace 1`). See `metrics.rs` for both tables and
//! `BENCHMARK.json` at the repository root for their bounds.

mod common;
mod gen;
mod metrics;
mod query_mix;
mod report_ingest;
mod stats;
mod stream_window;
mod trace;

use std::process::ExitCode;

use common::Args;
use stats::Tally;

const WORKLOADS: [&str; 3] = ["query_mix", "report_ingest", "stream_window"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       perfbench --list-metrics",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    let (mut seed, mut seconds, mut trace) = (false, false, false);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = argv.next()?,
            "--seed" => {
                args.seed = argv.next()?.parse().ok()?;
                seed = true;
            }
            "--seconds" => {
                args.seconds = argv.next()?.parse().ok()?;
                seconds = args.seconds > 0.0 && args.seconds.is_finite();
            }
            "--trace" => {
                args.trace = match argv.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
                trace = true;
            }
            _ => return None,
        }
    }
    (WORKLOADS.contains(&args.workload.as_str()) && seed && seconds && trace).then_some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--list-metrics"] {
        for (kind, table) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            for d in table {
                println!("{kind}\t{}\t{}\t{}", d.name, d.unit, d.better);
            }
        }
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse(argv.into_iter()) else {
        return usage();
    };
    println!("{}", fingerprint(&args));
    let outcome = match args.workload.as_str() {
        "query_mix" => query_mix::run(&args),
        "report_ingest" => report_ingest::run(&args),
        _ => stream_window::run(&args),
    };
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!("{}", metrics::result_line(&outcome, table));
    ExitCode::SUCCESS
}

/// What a result must be compared with: runs with different
/// fingerprints (kernel backend, parallelism, build profile) are
/// different experiments.
fn fingerprint(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let forced_scalar = std::env::var("DPGRID_FORCE_SCALAR").is_ok_and(|v| v == "1");
    let backend = dpgrid_kernels::active_backend();
    if forced_scalar {
        eprintln!(
            "perfbench: DPGRID_FORCE_SCALAR=1 — kernel backend is {backend}; \
             compare only with other forced-scalar runs"
        );
    }
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {}, \"available_parallelism\": {parallelism}, \"kernel_backend\": \"{backend}\", \
         \"forced_scalar\": {forced_scalar}, \"mux_workers\": {}, \"profile\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        // `TcpServer::bind`'s default pool: available parallelism,
        // capped at 8.
        parallelism.clamp(1, 8),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}

/// Prints what the result line has no room for: the negotiated
/// protocol and the sample counts behind the percentiles.
pub(crate) fn report_details(args: &Args, protocol: u32, untraced: &Tally) {
    println!(
        "{{\"details\": {{\"workload\": \"{}\", \"protocol\": {protocol}, \"read_samples\": {}, \
         \"seal_samples\": {}, \"write_items\": {}}}}}",
        args.workload,
        untraced.read_ns.len(),
        untraced.seal_ns.len(),
        untraced.write_items
    );
}

/// Writes a traced run's spans under `.bench_build/traces/`.
pub(crate) fn dump_spans(args: &Args, tree: &trace::Tree) {
    let path = std::path::Path::new(".bench_build/traces")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    if let Err(e) = trace::dump(&tree.spans, &path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
