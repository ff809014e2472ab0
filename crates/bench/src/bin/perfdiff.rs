//! Cross-revision perf regression gate.
//!
//! Compares two versioned perf reports (as written by the `perf` binary)
//! on *simulated* metrics only — `total_ms`, per-category `stages_ms`,
//! `words`, `startups` — and never on wall-clock, so the verdict is
//! deterministic. Prints a markdown delta table and exits nonzero when
//! any metric regresses by at least the fail threshold or a workload
//! disappeared.
//!
//! With `--wall`, a second, *noise-aware* gate also compares the
//! per-workload `wall` objects (median/MAD/cv from `--reps` repetition):
//! a workload fails only when its wall median regressed beyond
//! max(noise band, `--wall-fixed-pct`). Workloads whose `cv` is null
//! (single rep, noise unmeasured) are skipped, never failed. The two
//! gates are independent by design — simulated drift is a behavioural
//! change, wall drift is a real-machine performance change.
//!
//! With `--hot-band PCT`, a third gate compares `hot.ns_per_element` of
//! every workload present in both reports with a *fixed* tolerance band.
//! Unlike `--wall` it does not need repetition statistics, so it still
//! bites in smoke mode where `cv` is null and every `--wall` row is
//! skipped. The band is deliberately wide (scheduler overhead dominates
//! tiny smoke shapes and is noisy) — its job is to catch losing a bulk
//! kernel outright (a 4× slowdown is +300%), not percent-level drift.
//! Workloads without a hot measurement on either side are skipped.
//! `--hot-retry RETRY.json` supplies a second read of the hot numbers (a
//! `perf --filter exec_hot` report taken after a pause): the gate then
//! judges the *quieter* of the two reads — the one with the smaller total
//! ns/element — and prints both. Wall numbers on a shared host read several
//! times high for seconds at a stretch on any commit; a lost kernel reads
//! high in both.
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --bin perfdiff -- OLD.json NEW.json \
//!     [--warn-above PCT] [--fail-above PCT] [--wall] [--wall-fixed-pct PCT] \
//!     [--hot-band PCT [--hot-retry RETRY.json]]
//! ```
//!
//! Exit codes: 0 = clean (or warnings only), 1 = regression at or above
//! the fail threshold / missing workload (either gate), 2 = usage or
//! parse error.

use hpf_analysis::{DiffReport, Json, WallDiffReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut warn_above = 2.0f64;
    let mut fail_above = 10.0f64;
    let mut wall = false;
    let mut wall_fixed_pct = 10.0f64;
    let mut hot_band: Option<f64> = None;
    let mut hot_retry: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--warn-above" => {
                warn_above = parse_pct(args.get(i + 1), "--warn-above");
                i += 2;
            }
            "--fail-above" => {
                fail_above = parse_pct(args.get(i + 1), "--fail-above");
                i += 2;
            }
            "--wall" => {
                wall = true;
                i += 1;
            }
            "--wall-fixed-pct" => {
                wall_fixed_pct = parse_pct(args.get(i + 1), "--wall-fixed-pct");
                i += 2;
            }
            "--hot-band" => {
                hot_band = Some(parse_pct(args.get(i + 1), "--hot-band"));
                i += 2;
            }
            "--hot-retry" => {
                let path = args.get(i + 1).cloned();
                hot_retry = Some(path.unwrap_or_else(|| usage("--hot-retry requires a path")));
                i += 2;
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            path => {
                paths.push(path.to_string());
                i += 1;
            }
        }
    }
    if paths.len() != 2 {
        usage("expected exactly two report paths");
    }

    let old = load(&paths[0]);
    let new = load(&paths[1]);
    let diff = DiffReport::from_reports(&old, &new).unwrap_or_else(|e| {
        eprintln!("perfdiff: {e}");
        std::process::exit(2);
    });

    println!("## perfdiff: {} -> {}\n", paths[0], paths[1]);
    print!("{}", diff.markdown(warn_above, fail_above));

    let mut failed = false;
    if diff.failed(fail_above) {
        eprintln!(
            "perfdiff: FAIL (worst regression {:+.2}%, threshold {fail_above}%, \
             {} workloads missing)",
            diff.max_regression_pct(),
            diff.missing.len()
        );
        failed = true;
    } else if diff.max_regression_pct() >= warn_above {
        eprintln!(
            "perfdiff: warnings only (worst regression {:+.2}% < fail threshold {fail_above}%)",
            diff.max_regression_pct()
        );
    }

    if wall {
        let wd = WallDiffReport::compare(&old, &new, wall_fixed_pct).unwrap_or_else(|e| {
            eprintln!("perfdiff: {e}");
            std::process::exit(2);
        });
        println!("\n## wall-clock (noise-aware, floor {wall_fixed_pct}%)\n");
        print!("{}", wd.markdown());
        if wd.failed() {
            eprintln!(
                "perfdiff: wall FAIL (worst gated regression {:+.2}%, \
                 {} workloads missing)",
                wd.max_regression_pct(),
                wd.missing.len()
            );
            failed = true;
        }
    }

    if let Some(band) = hot_band {
        let retry = hot_retry.as_deref().map(load);
        let gate = hot_band_gate(&old, &new, retry.as_ref(), band);
        let (table, worst, breaches) = gate.unwrap_or_else(|e| {
            eprintln!("perfdiff: {e}");
            std::process::exit(2);
        });
        println!("\n## hot ns/element (fixed band {band}%)\n");
        print!("{table}");
        if breaches > 0 {
            eprintln!(
                "perfdiff: hot FAIL ({breaches} workloads beyond the {band}% band, \
                 worst {worst:+.2}%)"
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
}

/// Fixed-band comparison of `hot.ns_per_element` between two reports —
/// with a `retry` read, between `old` and the quieter of `new` and `retry`.
/// Returns `(markdown table, worst delta pct, breach count)`. Workloads
/// lacking a finite hot measurement on either side are skipped (a
/// *missing workload* is already an unconditional `DiffReport` failure).
fn hot_band_gate(
    old: &Json,
    new: &Json,
    retry: Option<&Json>,
    band_pct: f64,
) -> Result<(String, f64, usize), String> {
    let hot_ns = |report: &Json, which: &str| -> Result<Vec<(String, f64)>, String> {
        let workloads = report
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{which} report has no workloads array"))?;
        let mut out = Vec::new();
        for w in workloads {
            let Some(name) = w.get("name").and_then(Json::as_str) else {
                continue;
            };
            let Some(ns) = w
                .get("hot")
                .and_then(|h| h.get("ns_per_element"))
                .and_then(Json::as_f64)
            else {
                continue;
            };
            if ns.is_finite() && ns > 0.0 {
                out.push((name.to_string(), ns));
            }
        }
        Ok(out)
    };
    let old_hot = hot_ns(old, "old")?;
    let (first, second) = (hot_ns(new, "new")?, retry.map(|r| hot_ns(r, "retry")));
    let second = second.transpose()?;
    let total = |read: &[(String, f64)]| read.iter().map(|r| r.1).sum::<f64>();
    let lookup = |read: &[(String, f64)], name: &str| {
        let row = read.iter().find(|(nm, _)| nm == name);
        row.map(|&(_, v)| v)
    };
    // The quieter read is the one the gate judges; the other is shown.
    let (gated, other) = match &second {
        Some(second) if total(second) < total(&first) => (second, Some(("first read", &first))),
        Some(second) => (&first, Some(("second read", second))),
        None => (&first, None),
    };
    let other_head = other.map_or(String::new(), |(which, _)| format!(" {which} |"));
    let mut table = format!(
        "| workload | old ns/elem | new ns/elem |{other_head} delta | verdict |\n\
         |---|---|---|---|---|{}\n",
        if other.is_some() { "---|" } else { "" }
    );
    let mut worst = f64::NEG_INFINITY;
    let mut breaches = 0usize;
    for (name, o) in &old_hot {
        let Some(n) = lookup(gated, name) else {
            continue;
        };
        let delta_pct = 100.0 * (n - o) / o;
        worst = worst.max(delta_pct);
        let verdict = if delta_pct > band_pct {
            breaches += 1;
            "**FAIL**"
        } else {
            "ok"
        };
        let other_cell = other.map_or(String::new(), |(_, read)| {
            lookup(read, name).map_or(" - |".to_string(), |v| format!(" {v:.2} |"))
        });
        use std::fmt::Write as _;
        let _ = writeln!(
            table,
            "| {name} | {o:.2} | {n:.2} |{other_cell} {delta_pct:+.2}% | {verdict} |"
        );
    }
    Ok((table, worst, breaches))
}

fn parse_pct(arg: Option<&String>, flag: &str) -> f64 {
    arg.and_then(|s| s.parse::<f64>().ok())
        .unwrap_or_else(|| usage(&format!("{flag} requires a numeric percent")))
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

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfdiff: {msg}\nusage: perfdiff OLD.json NEW.json [--warn-above PCT] \
         [--fail-above PCT] [--wall] [--wall-fixed-pct PCT] \
         [--hot-band PCT [--hot-retry RETRY.json]]"
    );
    std::process::exit(2);
}
