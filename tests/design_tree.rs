//! DESIGN.md §3's crate inventory is a tree of the repository. It must
//! name every source file of every crate (`crates/*/src/**/*.rs`), each in
//! its own crate's subtree, and every entry it names must exist.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The paths §3's tree names, relative to the repository root. Each line
/// is a run of box-drawing indent (four columns per level), one or more
/// names separated by spaces, then an optional `#` comment; a name ending
/// in `/` is a directory whose children follow one level deeper. The first
/// line is the root itself.
fn tree_paths(doc: &str) -> Vec<String> {
    let section = doc
        .split("## 3. Crate inventory")
        .nth(1)
        .expect("DESIGN.md has a section 3");
    let tree = section
        .split("```")
        .nth(1)
        .expect("section 3 opens with the tree's code block");
    let mut dirs: Vec<String> = Vec::new();
    let mut paths = Vec::new();
    for line in tree.lines().filter(|l| !l.trim().is_empty()).skip(1) {
        let indent = line
            .chars()
            .take_while(|c| matches!(c, ' ' | '│' | '├' | '└' | '─'))
            .count();
        let names = line.chars().skip(indent).collect::<String>();
        let names = names.split('#').next().unwrap_or_default();
        let depth = indent / 4;
        if names.trim().is_empty() {
            continue;
        }
        assert!(depth >= 1 && indent % 4 == 0, "ragged tree line: {line:?}");
        dirs.truncate(depth - 1);
        let parent: String = dirs.concat();
        for name in names.split_whitespace() {
            paths.push(format!("{parent}{name}"));
        }
        if let [dir] = names.split_whitespace().collect::<Vec<_>>()[..] {
            if dir.ends_with('/') {
                dirs.push(dir.to_string());
            }
        }
    }
    paths
}

/// Every `.rs` file under `dir`, recursively, relative to `root`.
fn rust_files(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("a readable source directory") {
        let path: PathBuf = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            out.insert(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn design_tree_names_every_crate_source_file_and_nothing_else() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let named = tree_paths(&doc);

    let missing: Vec<&String> = named
        .iter()
        .filter(|p| !root.join(p.as_str()).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "§3 names what does not exist: {missing:?}"
    );

    let mut sources = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("a crate directory").path().join("src");
        if src.is_dir() {
            rust_files(root, &src, &mut sources);
        }
    }
    assert!(sources.len() > 50, "the walk found the crates' sources");
    let named: BTreeSet<String> = named.into_iter().collect();
    let unlisted: Vec<&String> = sources.difference(&named).collect();
    assert!(unlisted.is_empty(), "§3's tree misses: {unlisted:?}");
}
