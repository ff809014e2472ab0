//! Carrier stacks are returned when a run ends. Alone in its test binary:
//! it reads process-wide numbers from `/proc/self`, which concurrent tests
//! in the same process would move.

use hpf_machine::{tags, CostModel, Machine, ProcGrid};

/// `(lines of /proc/self/maps, VmRSS in kB)`.
fn footprint() -> (usize, u64) {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("Linux procfs");
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux procfs");
    let rss = status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmRSS:")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .expect("VmRSS line");
    (maps.lines().count(), rss)
}

/// 2 000 consecutive runs at P = 64 — 128 000 stacks mapped and unmapped —
/// leave the mapping count and the resident set where they were after the
/// tenth run.
#[test]
fn consecutive_runs_leave_no_stacks_behind() {
    let m = Machine::new(ProcGrid::line(64), CostModel::cm5()).with_workers(2);
    let mut settled = None;
    for run in 1..=2000 {
        let out = m.run(|p| {
            let n = p.nprocs();
            p.send((p.id() + 1) % n, tags::USER, vec![p.id() as i64]);
            let got: Vec<i64> = p.recv((p.id() + n - 1) % n, tags::USER);
            got[0]
        });
        assert_eq!(out.results[0], 63);
        if run == 10 {
            settled = Some(footprint());
        }
    }
    let (maps0, rss0) = settled.expect("ten runs happened");
    let (maps1, rss1) = footprint();
    // One stack leaked per run would be +4 000 mappings (stack + guard) and
    // +8 MB; the slack is for what libc keeps of the worker *threads* (its
    // stack cache and malloc arenas settle at a run-dependent size).
    assert!(maps1 <= maps0 + 16, "mappings grew {maps0} -> {maps1}");
    assert!(rss1 <= rss0 + 2048, "VmRSS grew {rss0} -> {rss1} kB");
}
