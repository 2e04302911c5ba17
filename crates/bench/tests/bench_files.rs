//! Every committed `BENCH_*.json` decodes as the harness's own file
//! type, [`dpgrid_bench::Bench`], and holds real measurements.

use std::collections::HashSet;

use dpgrid_bench::{workspace_root, Bench, MIN_SAMPLES};

#[test]
fn every_bench_file_is_in_the_harness_schema() {
    let mut files = 0;
    for entry in std::fs::read_dir(workspace_root()).expect("workspace root lists") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(bench_name) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        files += 1;
        let text = std::fs::read_to_string(&path).expect("bench file reads");
        let bench: Bench = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{name} is not in the harness schema: {e}"));
        assert_eq!(bench.bench, bench_name, "{name}: `bench` names its file");
        assert!(bench.fingerprint.parallelism >= 1, "{name}: fingerprint");
        assert!(
            !bench.fingerprint.kernel_backend.is_empty(),
            "{name}: fingerprint"
        );
        assert!(!bench.rows.is_empty(), "{name} has no rows");
        let mut labels = HashSet::new();
        for row in &bench.rows {
            let at = format!("{name}: {}", row.label);
            assert!(labels.insert(&row.label), "{at}: duplicate label");
            assert!(!row.unit.is_empty(), "{at}: unit");
            for value in [row.p10, row.median, row.p90] {
                assert!(value.is_finite() && value > 0.0, "{at}: {value}");
            }
            assert!(row.p10 <= row.median && row.median <= row.p90, "{at}");
            assert!(row.samples >= MIN_SAMPLES, "{at}: {} samples", row.samples);
        }
    }
    assert!(files > 0, "no BENCH_*.json at the workspace root");
}
