//! Carrier stacks live as long as their machine: kept from run to run,
//! unmapped when the last clone drops. Alone in its test binary, and one
//! test: it reads process-wide numbers from `/proc/self`, which concurrent
//! tests in the same process would move.

use std::sync::Barrier;

use hpf_machine::{tags, CostModel, Machine, Proc, ProcGrid};

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

const P: usize = 64;
const WORKERS: usize = 2;
/// Mappings of one worker's reservation once every stack has run: a guard
/// and a stack per carrier.
const PER_WORKER: usize = 2 * P / WORKERS;
/// What libc keeps of the worker *threads* (its stack cache and malloc
/// arenas settle at a run-dependent size); one leaked reservation is four
/// times as many mappings.
const SLACK: usize = 16;

fn machine() -> Machine {
    Machine::new(ProcGrid::line(P), CostModel::cm5()).with_workers(WORKERS)
}

fn ring(p: &mut Proc) -> i64 {
    let n = p.nprocs();
    p.send((p.id() + 1) % n, tags::USER, vec![p.id() as i64]);
    let got: Vec<i64> = p.recv((p.id() + n - 1) % n, tags::USER);
    got[0]
}

#[test]
fn stacks_live_as_long_as_their_machine() {
    // Warm libc's thread-stack cache before the first reading.
    drop(machine().run(ring));
    let (base, _) = footprint();

    // Dropping a machine unmaps what its runs reserved.
    for _ in 0..200 {
        let m = machine();
        assert_eq!(m.run(ring).results[0], 63);
        assert_eq!(m.run(ring).results[0], 63);
    }
    let (maps, _) = footprint();
    assert!(
        maps <= base + SLACK,
        "200 dropped machines left mappings: {base} -> {maps}"
    );

    // One machine: the second run finds the first one's stacks, and so does
    // every run after it. (One reservation mapped per run would be +128 000
    // mappings here; one page touched per run, +8 MB.)
    let m = machine();
    let mut settled = None;
    for run in 1..=2000 {
        assert_eq!(m.run(ring).results[0], 63);
        if run == 2 {
            settled = Some(footprint());
        }
    }
    let (maps0, rss0) = settled.expect("two runs happened");
    let (maps1, rss1) = footprint();
    assert!(maps1 <= maps0 + SLACK, "mappings grew {maps0} -> {maps1}");
    assert!(rss1 <= rss0 + 2048, "VmRSS grew {rss0} -> {rss1} kB");
    assert!(
        maps0 >= base + WORKERS * PER_WORKER,
        "the machine holds no stacks between runs: {base} -> {maps0}"
    );

    // A clone runs on the same reservations.
    assert_eq!(m.clone().run(ring).results[0], 63);
    let (maps2, _) = footprint();
    assert!(maps2 <= maps1 + SLACK, "a clone mapped {maps1} -> {maps2}");

    // Two runs of one machine at once — each holds processor 0 at the
    // barrier until the other has started — take a reservation per worker
    // each, and the pool keeps those two per worker and no more.
    let both = Barrier::new(2);
    let overlapped = |p: &mut Proc| {
        if p.id() == 0 {
            both.wait();
        }
        ring(p)
    };
    std::thread::scope(|s| {
        let other = s.spawn(|| m.run(overlapped).results[0]);
        assert_eq!(m.run(overlapped).results[0], 63);
        assert_eq!(other.join().expect("the second caller's run"), 63);
    });
    for _ in 0..10 {
        assert_eq!(m.run(ring).results[0], 63);
    }
    let (maps3, _) = footprint();
    assert!(
        maps3 <= maps2 + WORKERS * PER_WORKER + SLACK,
        "more than two reservations per worker: {maps2} -> {maps3}"
    );

    drop(m);
    let (maps4, _) = footprint();
    assert!(
        maps4 <= base + SLACK,
        "the last clone's drop left mappings: {base} -> {maps4}"
    );
}
