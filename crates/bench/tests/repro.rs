//! `repro --check` end to end, on the two artefacts an unoptimised build
//! renders in a second or two.

use std::process::Command;

fn check(dir: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--check")
        .arg(dir)
        .args(["timeline.txt", "balance.txt"])
        .output()
        .expect("run repro")
}

/// The committed copies pass; a copy with one line edited by hand fails,
/// naming the artefact and the first line that differs.
#[test]
fn check_passes_on_the_committed_copies_and_names_a_tampered_line() {
    let results = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let committed = check(results);
    assert!(committed.status.success(), "{committed:?}");

    let dir = std::env::temp_dir().join(format!("repro-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["timeline.txt", "balance.txt"] {
        std::fs::copy(results.join(name), dir.join(name)).unwrap();
    }
    let text = std::fs::read_to_string(dir.join("balance.txt")).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[6].contains("276636"),
        "row W = 1 of the first table: {}",
        lines[6]
    );
    let edited = lines[6].replace("276636", "276637");
    lines[6] = &edited;
    std::fs::write(dir.join("balance.txt"), lines.join("\n") + "\n").unwrap();

    let tampered = check(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(tampered.status.code(), Some(1), "{tampered:?}");
    let (out, err) = (
        String::from_utf8_lossy(&tampered.stdout),
        String::from_utf8_lossy(&tampered.stderr),
    );
    assert!(out.contains("timeline.txt: ok"), "{out}");
    assert!(err.contains("balance.txt line 7 differs"), "{err}");
    assert!(err.contains("276637") && err.contains("276636"), "{err}");
}
