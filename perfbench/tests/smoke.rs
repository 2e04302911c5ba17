//! The benchmark's self-test, at smoke scale: the binary's metric
//! tables match `BENCHMARK.json` (names, units, directions), and every
//! workload runs briefly in both modes, prints every metric once with
//! its unit, and passes its output checks.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::process::Command;

use serde::{Deserialize, Value};

/// Any JSON document, as the serde stub's value tree.
struct Json(Value);

impl Deserialize for Json {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text)
        .unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
        .0
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

/// `(name, unit, better)` of every metric in one table.
fn table(bench: &Value, key: &str) -> Vec<(String, String, String)> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_string(),
                str_of(m, "unit").to_string(),
                str_of(m, "better").to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark binary in a scratch directory (traced runs write
/// their spans below the working directory) and returns its stdout.
fn perfbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "perfbench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn metric_tables_match_benchmark_json() {
    let bench = benchmark_json();
    let listed = perfbench(&["--list-metrics"]);
    for key in ["end_to_end", "per_layer"] {
        let from_binary: Vec<(String, String, String)> = listed
            .lines()
            .filter_map(|line| {
                let f: Vec<&str> = line.split('\t').collect();
                (f[0] == key).then(|| (f[1].to_string(), f[2].to_string(), f[3].to_string()))
            })
            .collect();
        assert_eq!(from_binary, table(&bench, key), "{key} tables differ");
    }
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let bench = benchmark_json();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads is a list")
        .iter()
        .map(|w| str_of(w, "name").to_string())
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let last = out.lines().last().expect("a result line");
            let result = parse(last);
            assert_eq!(
                result
                    .as_obj()
                    .map(|o| o.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()),
                Some(vec!["correct", "attempted", "failed", "metrics"]),
                "{workload}: result keys"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: {last}"
            );
            assert_eq!(
                result.get("failed"),
                Some(&Value::Num(0.0)),
                "{workload}: {last}"
            );
            assert!(
                matches!(result.get("attempted"), Some(Value::Num(n)) if *n >= 1.0),
                "{workload}: {last}"
            );
            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics object");
            let expected = table(&bench, key);
            assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
            for (name, unit, _) in &expected {
                let found: Vec<&Value> = metrics
                    .iter()
                    .filter(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(found.len(), 1, "{workload}: {name} appears once");
                assert_eq!(str_of(found[0], "unit"), unit, "{workload}: {name} unit");
                let Some(Value::Num(value)) = found[0].get("value") else {
                    panic!("{workload}: {name} has a numeric value");
                };
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if key == "end_to_end" {
                    assert!(*value > 0.0, "{workload}: {name} = {value} must not be 0");
                }
            }
        }
    }
}
