//! Cross-revision perf regression gate.
//!
//! Compares two versioned perf reports (as written by the `perf` binary)
//! on *simulated* metrics — `total_ms`, per-category `stages_ms`, `words`,
//! `startups`, peak-memory bytes — which is all they hold, so the verdict
//! is deterministic. Prints a markdown delta table and exits nonzero when
//! any metric regresses by at least the fail threshold or a workload or
//! metric disappeared. Wall-clock comparisons are the repo benchmark's
//! (`benchmark/`), made on alternating pinned runs.
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --bin perfdiff -- OLD.json NEW.json \
//!     [--warn-above PCT] [--fail-above PCT]
//! ```
//!
//! Exit codes: 0 = clean (or warnings only), 1 = regression at or above
//! the fail threshold / missing workload or metric, 2 = usage or parse
//! error.

use hpf_analysis::{DiffReport, Json};
use hpf_bench::cli::Args;

fn main() {
    let mut args =
        Args::from_env("usage: perfdiff OLD.json NEW.json [--warn-above PCT] [--fail-above PCT]");
    let warn_above: f64 = args.value("--warn-above").unwrap_or(2.0);
    let fail_above: f64 = args.value("--fail-above").unwrap_or(10.0);
    let paths = args.positionals(2);

    let old = load(&paths[0]);
    let new = load(&paths[1]);
    let diff = DiffReport::from_reports(&old, &new).unwrap_or_else(|e| {
        eprintln!("perfdiff: {e}");
        std::process::exit(2);
    });

    println!("## perfdiff: {} -> {}\n", paths[0], paths[1]);
    print!("{}", diff.markdown(warn_above, fail_above));

    if diff.failed(fail_above) {
        eprintln!(
            "perfdiff: FAIL (worst regression {:+.2}%, threshold {fail_above}%, \
             {} workloads or metrics missing)",
            diff.max_regression_pct(),
            diff.missing.len()
        );
        std::process::exit(1);
    } else if diff.max_regression_pct() >= warn_above {
        eprintln!(
            "perfdiff: warnings only (worst regression {:+.2}% < fail threshold {fail_above}%)",
            diff.max_regression_pct()
        );
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfdiff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("perfdiff: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}
