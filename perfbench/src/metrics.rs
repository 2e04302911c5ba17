//! The metric tables (mirrored by `BENCHMARK.json`; the self-test keeps
//! the two in step) and the result line.

use std::collections::BTreeMap;

/// One metric: name, unit, and which direction is better.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// Printed by every untraced run. Each workload fills every role: its
/// reads are query frames (query_mix) or window queries (the write
/// workloads), and its writes are the central publishes of its set-up
/// (query_mix), the LDP report trains (report_ingest) or the stream
/// pushes (stream_window).
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("rel_err", "ratio"),
    higher("read_rects_per_s", "rects/s"),
    lower("read_p50_us", "us"),
    lower("read_p95_us", "us"),
    higher("ingest_items_per_s", "items/s"),
    lower("seal_p50_ms", "ms"),
];

/// Printed by every traced run. A layer that is not on a workload's
/// path reads 0 there.
pub const PER_LAYER: &[Def] = &[
    lower("net.transport_us.p50", "us"),
    lower("net.bytes_in_per_op", "B/op"),
    lower("net.bytes_out_per_op", "B/op"),
    lower("net.read_stalls", "count"),
    lower("net.write_stalls", "count"),
    lower("serve.wire.encode_request_ns", "ns"),
    lower("serve.wire.decode_request_ns", "ns"),
    lower("serve.wire.encode_response_ns", "ns"),
    lower("serve.wire.decode_response_ns", "ns"),
    lower("serve.engine.answer_batch_us.p50", "us"),
    lower("serve.engine.answer_batch_us.p99", "us"),
    lower("serve.engine.self_us.p50", "us"),
    lower("serve.engine.keys_us", "us"),
    lower("serve.engine.shed", "count"),
    lower("serve.engine.unknown_keys", "count"),
    lower("serve.catalog.compilations", "count"),
    higher("serve.catalog.warm_hit_ratio", "ratio"),
    lower("serve.catalog.evictions", "count"),
    lower("serve.catalog.resident_mb", "MiB"),
    lower("serve.catalog.insert_us.p50", "us"),
    lower("serve.catalog.evict_us.p50", "us"),
    lower("serve.window.latency_us.p50", "us"),
    lower("serve.window.surfaces", "count"),
    lower("core.surface.answer_ns.lattice", "ns"),
    lower("core.surface.answer_ns.bands", "ns"),
    lower("core.surface.compile_ms", "ms"),
    lower("core.pipeline.publish_ms.ug", "ms"),
    lower("core.pipeline.publish_ms.ag", "ms"),
    lower("core.temporal.merge_ms", "ms"),
    lower("stream.push_ns.p50", "ns"),
    lower("stream.seal_self_ms.p50", "ms"),
    lower("stream.compact_self_ms.p50", "ms"),
    lower("ldp.submit_us.grr", "us"),
    lower("ldp.submit_us.oue", "us"),
    lower("ldp.seal_self_ms.p50", "ms"),
    higher("ldp.accepted_ratio", "ratio"),
    lower("kernels.fold_grr_ns_per_report", "ns"),
    lower("kernels.fold_oue_ns_per_report", "ns"),
    lower("mech.estimate_us", "us"),
    lower("trace.overhead.read_p50_us", "us"),
    lower("trace.overhead.read_p95_us", "us"),
    higher("trace.overhead.read_rects_per_s", "rects/s"),
    higher("trace.overhead.ingest_items_per_s", "items/s"),
    lower("trace.overhead.seal_p50_ms", "ms"),
];

/// Metric values by name; names outside the printed table are a bug.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One workload run's outcome.
pub struct Outcome {
    /// Operations made and checked.
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    /// Run-level checks (engine counters, accuracy) all held.
    pub checks_ok: bool,
    pub values: Values,
}

/// Renders the result line for `table`.
pub fn result_line(outcome: &Outcome, table: &[Def]) -> String {
    let mut finite = true;
    let metrics: Vec<String> = table
        .iter()
        .map(|d| {
            let v = outcome.values.get(d.name);
            finite &= v.is_finite();
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    let correct = outcome.checks_ok && outcome.failed == 0 && finite;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}
