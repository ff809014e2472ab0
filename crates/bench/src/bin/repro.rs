//! Reproduction driver: renders every file of `results/` from the registry
//! of [`hpf_bench::artefacts`] — Tables I–II, Figures 3–5, the Section 7
//! studies, the perf report and its critical paths — and proves that the
//! committed copies are what this tree prints.
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --release --bin repro -- --list
//! cargo run -p hpf-bench --release --bin repro -- NAME     # to stdout
//! cargo run -p hpf-bench --release --bin repro -- --all --out-dir results
//! cargo run -p hpf-bench --release --bin repro -- --check results [NAME...]
//! cargo run -p hpf-bench --release --bin repro -- timeline.txt --trace-out FILE
//! # NAME is a file of results/ (`fig3.txt`, `BENCH.json`), as --list prints
//! # --check renders every artefact (or the named ones) and compares it with
//! #   DIR/FILE; it exits 1 naming each artefact that differs, its first
//! #   differing line and, in BENCH.json, the workload that line belongs to
//! # the perf report renders only if every gate of hpf_bench::report::GATES
//! #   holds; otherwise every mode exits 1 naming the workload and the gate
//! # --trace-out (timeline only) also profiles the host: the PACK run as
//! #   Chrome trace_event JSON to FILE, wall-clock hotspots to stderr
//! ```
//!
//! The binary installs the counting global allocator, so the report's
//! `exec_hot` rows count the steady-state execute loop's real allocations.

use std::path::Path;

use hpf_bench::artefacts::{first_difference, timeline, Render, ARTEFACTS};
use hpf_bench::cli::Args;
use hpf_bench::workloads;
use hpf_machine::alloc_counter::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The text of `file`. The perf report's two files render only if every
/// gate of `report::GATES` holds; otherwise `Err` names each violation.
fn render(file: &str, artefact: impl Fn(&mut String)) -> Result<String, String> {
    if matches!(file, "BENCH.json" | "critpath.txt") {
        let gates = workloads::report().gated();
        gates.map_err(|why| format!("{file} does not render:\n{why}"))?;
    }
    let mut text = String::new();
    artefact(&mut text);
    Ok(text)
}

/// Print each failure; exit 1 if there was one.
fn exit_on(failures: &[String]) {
    for what in failures {
        eprintln!("repro: FAIL {what}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let mut args = Args::from_env(
        "usage: repro NAME | --list | --all --out-dir DIR | --check DIR [NAME...] | \
         timeline.txt --trace-out FILE",
    );
    let list = args.flag("--list");
    let all = args.flag("--all");
    let out_dir: Option<String> = args.value("--out-dir");
    let check: Option<String> = args.value("--check");
    let trace_out: Option<String> = args.value("--trace-out");
    let names = args.rest();
    let find = |n: &String| {
        let found = ARTEFACTS.iter().find(|(file, _)| file == n);
        *found.unwrap_or_else(|| args.fail(&format!("no artefact named {n}; try --list")))
    };
    let named: Vec<(&str, Render)> = names.iter().map(find).collect();

    if list {
        for (file, _) in ARTEFACTS {
            println!("{file}");
        }
    } else if let Some(dir) = &check {
        let chosen = if named.is_empty() {
            &ARTEFACTS[..]
        } else {
            &named
        };
        let mut stale = Vec::new();
        for &(file, artefact) in chosen {
            let path = Path::new(dir).join(file);
            let verdict = match std::fs::read_to_string(&path) {
                Ok(committed) => render(file, artefact)
                    .and_then(|text| first_difference(file, &committed, &text)),
                Err(e) => Err(format!("cannot read {}: {e}", path.display())),
            };
            match verdict {
                Ok(()) => println!("{file}: ok"),
                Err(what) => stale.push(what),
            }
        }
        exit_on(&stale);
    } else if let (true, Some(dir)) = (all, &out_dir) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
        let mut failed = Vec::new();
        for (file, artefact) in ARTEFACTS {
            let path = Path::new(dir).join(file);
            match render(file, artefact) {
                Ok(text) => {
                    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
                    println!("{file} -> {}", path.display());
                }
                Err(what) => failed.push(what),
            }
        }
        exit_on(&failed);
    } else {
        let [(file, artefact)] = named[..] else {
            args.fail("expected one artefact name");
        };
        let text = match &trace_out {
            None => render(file, artefact),
            Some(path) if file == "timeline.txt" => render(file, |out| timeline(out, Some(path))),
            Some(_) => args.fail("--trace-out goes with timeline only"),
        };
        match text {
            Ok(text) => print!("{text}"),
            Err(what) => exit_on(&[what]),
        }
    }
}
