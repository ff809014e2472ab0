//! Reproduction driver: renders the paper artefacts of
//! [`hpf_bench::artefacts`] — Tables I–II, Figures 3–5, the Section 7
//! studies — and proves that the committed copies are what this tree prints.
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --release --bin repro -- --list
//! cargo run -p hpf-bench --release --bin repro -- NAME     # to stdout
//! cargo run -p hpf-bench --release --bin repro -- --all --out-dir results
//! cargo run -p hpf-bench --release --bin repro -- --check results [NAME...]
//! cargo run -p hpf-bench --release --bin repro -- timeline --trace-out FILE
//! # --check renders every artefact (or the named ones) and compares it with
//! #   DIR/NAME.txt; it exits 1 naming each artefact that differs and its
//! #   first differing line
//! # --trace-out (timeline only) also profiles the host: the PACK run as
//! #   Chrome trace_event JSON to FILE, wall-clock hotspots to stderr
//! ```

use std::path::Path;

use hpf_bench::artefacts::{first_difference, timeline, Render, ARTEFACTS};
use hpf_bench::cli::Args;

fn render(render: impl Fn(&mut String)) -> String {
    let mut text = String::new();
    render(&mut text);
    text
}

fn main() {
    let mut args = Args::from_env(
        "usage: repro NAME | --list | --all --out-dir DIR | --check DIR [NAME...] | \
         timeline --trace-out FILE",
    );
    let list = args.flag("--list");
    let all = args.flag("--all");
    let out_dir: Option<String> = args.value("--out-dir");
    let check: Option<String> = args.value("--check");
    let trace_out: Option<String> = args.value("--trace-out");
    let names = args.rest();
    let find = |n: &String| {
        let found = ARTEFACTS.iter().find(|(name, _)| name == n);
        *found.unwrap_or_else(|| args.fail(&format!("no artefact named {n}; try --list")))
    };
    let named: Vec<(&str, Render)> = names.iter().map(find).collect();

    if list {
        for (name, _) in ARTEFACTS {
            println!("{name}");
        }
    } else if let Some(dir) = &check {
        let mut stale = 0;
        let wanted = |name: &str| names.is_empty() || names.iter().any(|n| n == name);
        for (name, artefact) in ARTEFACTS.into_iter().filter(|(name, _)| wanted(name)) {
            let path = Path::new(dir).join(format!("{name}.txt"));
            let verdict = match std::fs::read_to_string(&path) {
                Ok(committed) => first_difference(name, &committed, &render(artefact)),
                Err(e) => Err(format!("{name}: cannot read {}: {e}", path.display())),
            };
            match verdict {
                Ok(()) => println!("{name}: ok"),
                Err(what) => {
                    stale += 1;
                    eprintln!("repro: FAIL {what}");
                }
            }
        }
        if stale > 0 {
            eprintln!("repro: {stale} artefacts in {dir} are not what this tree renders");
            std::process::exit(1);
        }
    } else if let (true, Some(dir)) = (all, &out_dir) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
        for (name, artefact) in ARTEFACTS {
            let path = Path::new(dir).join(format!("{name}.txt"));
            std::fs::write(&path, render(artefact))
                .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
            println!("{name} -> {}", path.display());
        }
    } else {
        let [(name, artefact)] = named[..] else {
            args.fail("expected one artefact name");
        };
        match &trace_out {
            None => print!("{}", render(artefact)),
            Some(path) if name == "timeline" => {
                print!("{}", render(|out| timeline(out, Some(path))))
            }
            Some(_) => args.fail("--trace-out goes with timeline only"),
        }
    }
}
