//! The docs' pointers resolve: every `DESIGN.md §N` in code names a section
//! DESIGN.md has, every cited EXPERIMENTS.md title names one of its
//! headings, and every repository path DESIGN.md and README.md put in
//! backticks exists.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The Rust sources of `crates/` and `tests/` but this file, each with its
/// comment markers removed and its lines joined, so that a pointer a
/// comment wraps over two lines reads as one.
fn code_texts() -> Vec<(String, String)> {
    let mut files = Vec::new();
    rust_files(&root().join("crates"), &mut files);
    rust_files(&root().join("tests"), &mut files);
    assert!(files.len() > 100, "the walk found the sources");
    files
        .into_iter()
        .filter(|path| !path.ends_with(file!()))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("a readable source");
            let joined = text
                .lines()
                .map(|l| l.trim().trim_start_matches(['/', '!']).trim())
                .collect::<Vec<_>>()
                .join(" ");
            let rel = path.strip_prefix(root()).expect("under the root");
            (rel.display().to_string(), joined)
        })
        .collect()
}

/// The text after each occurrence of `marker` in `text`.
fn after<'t>(text: &'t str, marker: &str) -> Vec<&'t str> {
    text.match_indices(marker)
        .map(|(i, _)| &text[i + marker.len()..])
        .collect()
}

/// The section number at the start of `s`: digits and inner dots, e.g.
/// `9.3` out of `9.3's gates`.
fn section_number(s: &str) -> Option<&str> {
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(s.len());
    let number = s[..end].trim_end_matches('.');
    (!number.is_empty()).then_some(number)
}

/// True iff DESIGN.md has a heading numbered `number`: `## N.` for a
/// section, `### N.M` for a subsection.
fn design_has(design: &str, number: &str) -> bool {
    let want = if number.contains('.') {
        format!("### {number} ")
    } else {
        format!("## {number}. ")
    };
    design.lines().any(|l| l.starts_with(&want))
}

/// True iff EXPERIMENTS.md has a `##` or `###` heading that starts with
/// `title`.
fn experiments_has(experiments: &str, title: &str) -> bool {
    experiments.lines().any(|l| {
        let heading = l
            .strip_prefix("### ")
            .or_else(|| l.strip_prefix("## "))
            .unwrap_or_default();
        heading.starts_with(title)
    })
}

/// The quoted title right after an `EXPERIMENTS.md` mention (`EXPERIMENTS.md
/// "Title"` or `EXPERIMENTS.md, "Title"`), if the mention has one.
fn quoted_title(rest: &str) -> Option<&str> {
    let rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

#[test]
fn design_section_pointers_name_existing_sections() {
    let design = read("DESIGN.md");
    let mut dangling = Vec::new();
    for (file, text) in code_texts() {
        for rest in after(&text, "DESIGN.md §") {
            let number = section_number(rest).unwrap_or_default();
            if !design_has(&design, number) {
                dangling.push(format!("{file}: §{number}"));
            }
        }
    }
    // ci.sh comments say "DESIGN.md section 7" or "sections 11 and 16".
    let ci = read("scripts/ci.sh").replace("\n#", " ");
    for rest in after(&ci, "DESIGN.md section") {
        let rest = rest.strip_prefix('s').unwrap_or(rest);
        let words = rest.split_whitespace().take(3);
        for number in words.filter_map(section_number) {
            if !design_has(&design, number) {
                dangling.push(format!("scripts/ci.sh: section {number}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "no such DESIGN.md section: {dangling:?}"
    );
}

#[test]
fn experiments_titles_cited_name_existing_headings() {
    let experiments = read("EXPERIMENTS.md");
    let mut cited = Vec::new();
    for (file, text) in code_texts() {
        for rest in after(&text, "EXPERIMENTS.md") {
            cited.extend(quoted_title(rest).map(|t| (file.clone(), t.to_string())));
        }
    }
    let changes = read("CHANGES.md");
    for rest in after(&changes, "EXPERIMENTS.md") {
        cited.extend(quoted_title(rest).map(|t| ("CHANGES.md".into(), t.to_string())));
    }
    assert!(cited.len() >= 10, "the scan found the citations: {cited:?}");
    let dangling: Vec<_> = cited
        .iter()
        .filter(|(_, title)| !experiments_has(&experiments, title))
        .collect();
    assert!(
        dangling.is_empty(),
        "no such EXPERIMENTS.md heading: {dangling:?}"
    );
}

#[test]
fn backticked_repository_paths_exist() {
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = read(doc);
        // Outside code blocks, every odd-numbered piece between backticks.
        let prose = text.split("```").step_by(2);
        for span in prose.flat_map(|p| p.split('`').skip(1).step_by(2)) {
            let top = ["crates/", "tests/", "scripts/", "results/", "examples/"];
            if !top.iter().any(|t| span.starts_with(t)) || span.contains(['<', '*', ' ']) {
                continue;
            }
            if !root().join(span).exists() {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(missing.is_empty(), "no such path: {missing:?}");
}
