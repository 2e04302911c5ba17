//! `bench_diff` — compares two runs of one bench, row by row.
//!
//! ```text
//! bench_diff OLD.json NEW.json
//! ```
//!
//! Both files are `BENCH_<bench>.json` files of the same bench. Each
//! label gets one line: the old and new median with its p10–p90, and
//! new over old. A `*` flags a row whose medians each lie outside the
//! other run's p10–p90; a `-` stands for a row one run lacks.

use std::process::ExitCode;

use dpgrid_bench::{diff, Bench, Row};

fn read(path: &str) -> Result<Bench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cell(row: Option<&Row>) -> String {
    match row {
        Some(r) => format!("{} [{}–{}]", r.median, r.p10, r.p90),
        None => "-".into(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old, new] = args.as_slice() else {
        eprintln!("usage: bench_diff OLD.json NEW.json");
        return ExitCode::from(2);
    };
    let (old, new) = match (read(old), read(new)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    if old.bench != new.bench {
        eprintln!(
            "bench_diff: `{}` and `{}` are different benches",
            old.bench, new.bench
        );
        return ExitCode::FAILURE;
    }
    println!(
        "| {} | unit | old median [p10–p90] | new median [p10–p90] | new/old |",
        old.bench
    );
    println!("|---|---|---|---|---|");
    for row in diff(&old, &new) {
        let unit = row.new.or(row.old).map_or("", |r| r.unit.as_str());
        let ratio = row.ratio().map_or("-".into(), |r| format!("{r:.2}"));
        let flag = if row.moved() { " *" } else { "" };
        println!(
            "| {} | {unit} | {} | {} | {ratio}{flag} |",
            row.label,
            cell(row.old),
            cell(row.new)
        );
    }
    ExitCode::SUCCESS
}
