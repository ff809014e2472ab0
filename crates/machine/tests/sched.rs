//! Scheduler determinism: the cooperative worker pool must be an invisible
//! implementation detail. For any pool size — one permit, a few, or one
//! per core — the same program must produce bit-identical results,
//! simulated clocks, event streams, and metrics, because execution order
//! is drawn from the deterministic ready-queue (simulated time, proc id),
//! never from OS scheduling (DESIGN.md §15).
//!
//! Some observables (`alloc.*` counters past the ring capacity, the
//! `sched.*` park/wake counters, gauge *maxima* like `mailbox.depth`)
//! legitimately vary with the interleaving, so the comparisons below are
//! over the schedule-invariant set: per-processor event streams canonicalized by (timestamp, kind) and
//! metric snapshots filtered to counters (minus `alloc.*` and `sched.*`),
//! gauge last-values (minus `mailbox.depth`
//! and `mem.payload.cur`, whose final value depends on when the last
//! Arc-shared packet copy drops at teardown).

use proptest::prelude::*;

use hpf_machine::alloc_counter::{thread_totals, CountingAllocator};
use hpf_machine::collectives::{
    allreduce_sum, alltoallv, prefix_reduction_sum, A2aSchedule, PrsAlgorithm,
};
use hpf_machine::{
    tags, Category, CostModel, FaultPlan, Machine, MachineError, PoolSlot, Proc, ProcGrid,
    RunOutput,
};

/// For `allocation_counters_follow_the_processor`; counting is all it does.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Mixed workload touching every park point: ring traffic (frame receive),
/// collectives (clock-sync barriers), pooled sends (buffer-pool
/// back-pressure), plus staged local work so event streams are nontrivial.
fn mixed_workload(p: &mut Proc) -> Vec<i64> {
    let n = p.nprocs();
    let next = (p.id() + 1) % n;
    let prev = (p.id() + n - 1) % n;
    let mut acc: Vec<i64> = vec![p.id() as i64 + 1];
    for round in 0..3u64 {
        p.with_stage("test.ring", |p| {
            p.send(next, tags::USER + round, acc.clone());
            let got: Vec<i64> = p.recv(prev, tags::USER + round);
            acc.extend(got);
            acc.push(acc.iter().sum());
        });
        p.with_category(Category::LocalComp, |p| p.charge_ops(25));
    }
    let g = p.world();
    let total = allreduce_sum(p, &g, &[acc.len() as i64], PrsAlgorithm::Auto);
    acc.push(total[0]);
    // One pooled round-trip per ring neighbor: checkout, stash, send, and
    // decode the inbound slot back to its owner.
    let key = hpf_machine::fresh_pool_key();
    let (slot, mut buf) = p.pool_checkout::<Vec<i64>>(key, next);
    buf.push(acc[0]);
    slot.stash(buf);
    p.send_pooled(next, tags::USER + 10, &slot);
    let pkt = p.recv_packet(prev, tags::USER + 10);
    let inbound = pkt
        .data
        .downcast::<PoolSlot<Vec<i64>>>()
        .expect("pooled send delivers the slot");
    let got = inbound.take_staged();
    acc.push(got[0]);
    inbound.put_back(got);
    acc
}

fn machine(p: usize, workers: usize) -> Machine {
    Machine::new(ProcGrid::line(p), CostModel::cm5())
        .with_tracing(true)
        .with_metrics(true)
        .with_workers(workers)
}

fn assert_clocks_identical<R>(a: &RunOutput<R>, b: &RunOutput<R>, what: &str) {
    for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
        assert_eq!(ca.now_ms(), cb.now_ms(), "{what}: final clock differs");
        for cat in Category::ALL {
            assert_eq!(ca.cat_ms(cat), cb.cat_ms(cat), "{what}: {cat:?} differs");
        }
        assert_eq!(ca.ops, cb.ops, "{what}: ops differ");
        assert_eq!(ca.words_sent, cb.words_sent, "{what}: words differ");
        assert_eq!(ca.startups, cb.startups, "{what}: startups differ");
    }
    assert_eq!(a.comm_matrix, b.comm_matrix, "{what}: comm matrix differs");
}

/// Per-processor event streams, canonicalized: record order within one log
/// can vary with the interleaving (a receive is logged at dispatch, which
/// may happen inside another call's pump loop), but the *set* of
/// (timestamp, event) pairs per processor is schedule-invariant.
fn canonical_events<R>(out: &RunOutput<R>) -> Vec<Vec<(u64, String)>> {
    out.events
        .iter()
        .map(|evs| {
            let mut v: Vec<(u64, String)> = evs
                .iter()
                .map(|e| (e.ts_ns.to_bits(), format!("{:?}", e.kind)))
                .collect();
            v.sort();
            v
        })
        .collect()
}

/// The schedule-invariant slice of each processor's metrics.
#[allow(clippy::type_complexity)]
fn canonical_metrics<R>(out: &RunOutput<R>) -> Vec<(Vec<(String, u64)>, Vec<(String, u64)>)> {
    out.metrics
        .iter()
        .map(|m| {
            let counters: Vec<(String, u64)> = m
                .counters
                .iter()
                .filter(|(k, _)| !k.starts_with("alloc.") && !k.starts_with("sched."))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            let gauges: Vec<(String, u64)> = m
                .gauges
                .iter()
                .filter(|(k, _)| k.as_str() != "mailbox.depth" && k.as_str() != "mem.payload.cur")
                .map(|(k, v)| (k.clone(), v.last))
                .collect();
            (counters, gauges)
        })
        .collect()
}

/// The tentpole acceptance check: one permit, a few, and
/// available-parallelism pools all produce the same run, observably.
#[test]
fn all_pool_sizes_produce_the_identical_run() {
    const P: usize = 8;
    let reference = machine(P, 1).run(mixed_workload);
    let ncores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [2usize, 4, ncores] {
        let out = machine(P, workers).run(mixed_workload);
        let what = format!("workers={workers}");
        assert_eq!(reference.results, out.results, "{what}: results differ");
        assert_clocks_identical(&reference, &out, &what);
        assert_eq!(
            canonical_events(&reference),
            canonical_events(&out),
            "{what}: event streams differ"
        );
        assert_eq!(
            canonical_metrics(&reference),
            canonical_metrics(&out),
            "{what}: metrics differ"
        );
    }
}

/// Buffer-pool back-pressure must park (not spin, not deadlock) even when
/// a single permit serializes everything: the third checkout of one
/// (key, dst) entry cannot proceed until the receiver runs and returns a
/// slot, which only happens because the blocked sender releases its permit.
#[test]
fn pool_backpressure_parks_under_a_single_permit() {
    let out = Machine::new(ProcGrid::line(2), CostModel::cm5())
        .with_workers(1)
        .run(|p| {
            let peer = 1 - p.id();
            let key = hpf_machine::fresh_pool_key();
            if p.id() == 0 {
                for i in 0..3u64 {
                    let (slot, mut buf) = p.pool_checkout::<Vec<i64>>(key, peer);
                    buf.push(i as i64 * 7);
                    slot.stash(buf);
                    p.send_pooled(peer, tags::USER + i, &slot);
                }
                0
            } else {
                let mut sum = 0i64;
                for i in 0..3u64 {
                    let pkt = p.recv_packet(peer, tags::USER + i);
                    let slot = pkt
                        .data
                        .downcast::<PoolSlot<Vec<i64>>>()
                        .expect("pooled send delivers the slot");
                    let buf = slot.take_staged();
                    sum += buf[0];
                    slot.put_back(buf);
                }
                sum
            }
        });
    assert_eq!(out.results, vec![0, 21]);
}

/// Two epochs of ring traffic, for the crash-recovery legs.
fn epoch_ring(p: &mut Proc) -> Vec<i64> {
    let mut st: Vec<i64> = vec![p.id() as i64 + 1];
    for round in 0..2u64 {
        p.epoch(&mut st, |p, st| {
            let next = (p.id() + 1) % p.nprocs();
            let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
            p.send(next, tags::USER + round, st.clone());
            let got: Vec<i64> = p.recv(prev, tags::USER + round);
            st.extend(got);
        });
    }
    st
}

/// Crash recovery on a small pool: the respawned victim re-enrolls with
/// the scheduler on a fresh carrier and the recovered run stays
/// bit-identical, for a pool smaller than the machine.
#[test]
fn recovery_respawn_re_enrolls_on_a_small_pool() {
    let m = |faults: FaultPlan, workers: usize| {
        Machine::new(ProcGrid::line(4), CostModel::cm5())
            .with_workers(workers)
            .with_faults(faults)
    };
    let clean = m(FaultPlan::new(7), 1)
        .run_recoverable(epoch_ring)
        .expect("run");
    for workers in [1usize, 2] {
        let crashed = m(FaultPlan::new(7).with_crash(1, 2), workers)
            .run_recoverable(epoch_ring)
            .expect("run");
        assert_eq!(clean.results, crashed.results, "workers={workers}");
        assert_clocks_identical(&clean, &crashed, &format!("workers={workers}"));
        assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
    }
}

/// Large-P smoke: a P=1024 machine on the default (core-count) pool — the
/// configuration a thread-per-proc design could not schedule sensibly —
/// completes a ring exchange plus a tree-structured scan, and matches the
/// single-permit run bit-for-bit.
#[test]
fn p1024_smoke_is_identical_across_pool_sizes() {
    const P: usize = 1024;
    fn program(p: &mut Proc) -> i64 {
        let n = p.nprocs();
        let next = (p.id() + 1) % n;
        let prev = (p.id() + n - 1) % n;
        p.send(next, tags::USER, vec![p.id() as i64]);
        let got: Vec<i64> = p.recv(prev, tags::USER);
        let g = p.world();
        let (before, _) = prefix_reduction_sum(p, &g, &[1i64], PrsAlgorithm::Split);
        got[0] + before[0]
    }
    let build =
        |workers: usize| Machine::new(ProcGrid::line(P), CostModel::cm5()).with_workers(workers);
    let a = build(1).run(program);
    let expected: Vec<i64> = (0..P)
        .map(|id| ((id + P - 1) % P) as i64 + id as i64)
        .collect();
    assert_eq!(a.results, expected);
    let ncores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let b = build(ncores.max(2)).run(program);
    assert_eq!(a.results, b.results);
    assert_clocks_identical(&a, &b, "p1024");
}

/// Targeted wake-ups, by count. Under one permit the schedule is a pure
/// function of the program, so the counts are exact: an all-pairs exchange
/// of one-word frames at P = 64 under the zero cost model, so every
/// simulated clock stays equal. No wake-up finds its awaited frame still
/// missing (each processor awaits one source under one tag), so every park
/// is a receive whose frame had not been sent yet, or the token left by a
/// frame already drained. The flag transposition ahead of each exchange
/// adds 2(P − 1) parks — rank 0 once per row not yet sent, every other
/// member once for its column — which is the 2·P on top of the data
/// rounds' bounds below.
///
/// * `NaivePush` sends everything first: a processor blocks once, for the
///   one peer that runs after it — 126 parks per exchange, ≈ P²/2 when
///   every frame woke its destination.
/// * `LinearPermutation` blocks for real: under lowest-id-first grants the
///   round-`k` frame of `(r − k) mod P` has often not been sent when `r`
///   asks for it, so the count is not linear in P — 1 261 parks per
///   exchange.
#[test]
fn all_pairs_exchange_parks_only_for_unsent_frames() {
    const P: usize = 64;
    const EXCHANGES: u64 = 3;
    for (schedule, parks_per_exchange) in [
        (A2aSchedule::NaivePush, (2 + 2) * P as u64),
        (A2aSchedule::LinearPermutation, (20 + 2) * P as u64),
    ] {
        let out = Machine::new(ProcGrid::line(P), CostModel::zero())
            .with_metrics(true)
            .with_workers(1)
            .run(move |p| {
                let g = p.world();
                for _ in 0..EXCHANGES {
                    let got = alltoallv(p, &g, vec![vec![p.id() as i32]; P], schedule);
                    assert!(got.iter().enumerate().all(|(src, v)| v == &[src as i32]));
                }
            });
        assert!(out.clocks.iter().all(|c| c.now_ms() == 0.0));
        let m = out.merged_metrics();
        assert_eq!(m.counter("msg.sent"), EXCHANGES * (P * (P - 1)) as u64);
        let parks = m.counter("sched.parks");
        assert!(
            parks <= parks_per_exchange * EXCHANGES,
            "{schedule:?}: {parks} parks for {EXCHANGES} exchanges at P={P}"
        );
        assert_eq!(m.counter("sched.spurious_wakes"), 0, "{schedule:?}");
        assert!(m.counter("sched.wakes") <= parks, "{schedule:?}");
        assert!(
            m.counter("sched.wakes_filtered") > 0,
            "{schedule:?}: frames from non-awaited sources must have been left in the ring"
        );
    }
}

/// No lost wake-up: every processor sends two frames (two tags) to every
/// peer, then receives all of them in its own pseudo-random order — so it
/// keeps parking for a source whose frame may already sit in the ring
/// behind others, may arrive under the other tag first (a wake-up that
/// must re-park), or may race the park. A lost wake-up would leave a
/// receive parked with its frame in the ring, and fail the run as a
/// deadlock.
#[test]
fn random_receive_orders_never_lose_a_wakeup() {
    for p in [3usize, 8, 33] {
        for workers in [1usize, 2, 4] {
            for seed in 0..4u64 {
                let out = Machine::new(ProcGrid::line(p), CostModel::cm5())
                    .with_workers(workers)
                    .try_run(move |proc| {
                        let me = proc.id();
                        let mut order: Vec<(usize, u64)> = (0..p)
                            .filter(|&src| src != me)
                            .flat_map(|src| [(src, 0u64), (src, 1)])
                            .collect();
                        // Fisher–Yates under a per-processor LCG.
                        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (me as u64 + 1);
                        for i in (1..order.len()).rev() {
                            x = x
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            order.swap(i, (x >> 33) as usize % (i + 1));
                        }
                        for dst in (0..p).filter(|&dst| dst != me) {
                            for t in 0..2u64 {
                                proc.send(dst, tags::USER + t, vec![(me * 2) as u64 + t]);
                            }
                        }
                        order
                            .iter()
                            .map(|&(src, t)| {
                                let got: Vec<u64> = proc.recv(src, tags::USER + t);
                                assert_eq!(got, [(src * 2) as u64 + t]);
                                got[0]
                            })
                            .sum::<u64>()
                    })
                    .unwrap_or_else(|e| panic!("P={p} workers={workers} seed={seed}: {e}"));
                let all: u64 = (0..2 * p as u64).sum();
                for (me, &sum) in out.results.iter().enumerate() {
                    assert_eq!(sum, all - (4 * me as u64 + 1));
                }
            }
        }
    }
}

/// Allocation counters follow the virtual processor, not the worker thread
/// it shares: processor 2 allocates a thousand boxes while the others sit
/// parked in a receive on the same OS thread(s), and only its own totals
/// move. A first, unmeasured round warms every mailbox lane.
#[test]
fn allocation_counters_follow_the_processor() {
    for workers in [1usize, 2] {
        let out = Machine::new(ProcGrid::line(4), CostModel::cm5())
            .with_workers(workers)
            .run(|p| {
                let mut delta = 0;
                for _warm_then_measured in 0..2 {
                    let world = p.world();
                    p.clock_sync_max(&world);
                    let before = thread_totals().0;
                    if p.id() == 2 {
                        let boxes: Vec<Box<u64>> = (0..1000).map(Box::new).collect();
                        std::hint::black_box(&boxes);
                        delta = thread_totals().0 - before;
                        for dst in [0, 1, 3] {
                            p.send(dst, tags::USER, vec![boxes.len() as i64]);
                        }
                    } else {
                        let got: Vec<i64> = p.recv(2, tags::USER);
                        assert_eq!(got, [1000]);
                        delta = thread_totals().0 - before;
                    }
                }
                delta
            });
        assert!(
            out.results[2] >= 1000,
            "workers={workers}: {:?}",
            out.results
        );
        for id in [0, 1, 3] {
            assert_eq!(out.results[id], 0, "workers={workers}: {:?}", out.results);
        }
    }
}

/// Recurse `depth` frames of at least 1 KiB each, then run `leaf` with the
/// number of stack bytes between the first frame and the last.
fn recurse<T>(depth: usize, top: usize, p: &mut Proc, leaf: &dyn Fn(&mut Proc, usize) -> T) -> T {
    let frame = std::hint::black_box([depth as u8; 1024]);
    let here = frame.as_ptr() as usize;
    let out = if depth == 0 {
        leaf(p, top.wrapping_sub(here))
    } else {
        recurse(depth - 1, top, p, leaf)
    };
    std::hint::black_box(&frame);
    out
}

/// Carrier stacks are deep enough for real programs, and parking at the
/// bottom of a deep one is still just a switch: every processor recurses
/// past 512 KiB (P = 16; 256 KiB at P = 512, where a stack is 1 MiB) and
/// exchanges a ring message from the deepest frame.
#[test]
fn deep_stacks_park_and_resume() {
    for (nprocs, frames) in [(16usize, 520usize), (512, 260)] {
        let out = Machine::new(ProcGrid::line(nprocs), CostModel::cm5())
            .with_workers(2)
            .run(move |p| {
                let anchor = std::hint::black_box([0u8; 8]);
                let top = anchor.as_ptr() as usize;
                recurse(frames, top, p, &|p, used| {
                    let n = p.nprocs();
                    p.send((p.id() + 1) % n, tags::USER, vec![p.id() as i64]);
                    let got: Vec<i64> = p.recv((p.id() + n - 1) % n, tags::USER);
                    (got[0], used)
                })
            });
        for (id, (from, used)) in out.results.into_iter().enumerate() {
            assert_eq!(from as usize, (id + nprocs - 1) % nprocs);
            assert!(
                used >= frames * 1024 - 8192,
                "P={nprocs}: only {used} B deep"
            );
        }
    }
}

/// A panic thrown 200 frames deep unwinds to the bottom of its own carrier
/// stack and comes back as `ProcPanicked` with its payload.
#[test]
fn deep_panic_comes_back_with_its_payload() {
    let err = Machine::new(ProcGrid::line(4), CostModel::zero())
        .with_workers(1)
        .try_run(|p| {
            let world = p.world();
            p.clock_sync_max(&world);
            if p.id() == 1 {
                recurse(200, 0, p, &|_, _| panic!("boom at depth 200"));
            }
            p.clock_sync_max(&world);
        })
        .expect_err("the panic must fail the run");
    match err.root_cause() {
        MachineError::ProcPanicked { proc: 1, msg } => assert!(msg.contains("boom at depth 200")),
        other => panic!("expected ProcPanicked on 1, got {other}"),
    }
}

/// A machine keeps its stacks from run to run, whatever the last run left
/// on them: deep frames, a panic's unwound ones, carriers that ended in a
/// typed error, a crashed carrier and its successor on the same slice. One
/// machine (its fault-plan clone shares the reservations) runs the sequence;
/// every run shows what the same program shows on a machine built for it.
#[test]
fn a_reused_machine_runs_every_program_as_a_fresh_one_does() {
    type Program<'a> = &'a (dyn Fn(&mut Proc) -> Vec<i64> + Sync);
    let deep: Program = &|p| {
        recurse(520, 0, p, &|p, _| {
            let n = p.nprocs();
            p.send((p.id() + 1) % n, tags::USER, vec![p.id() as i64]);
            p.recv((p.id() + n - 1) % n, tags::USER)
        })
    };
    let panics: Program = &|p| {
        let world = p.world();
        p.clock_sync_max(&world);
        if p.id() == 1 {
            recurse(200, 0, p, &|_, _| panic!("boom at depth 200"));
        }
        p.clock_sync_max(&world);
        Vec::new()
    };
    let unanswered: Program = &|p| match p.id() {
        1 => p.recv(0, tags::USER + 9),
        _ => Vec::new(),
    };
    // `true`: under `run_recoverable`, with processor 1 crashing.
    let legs: [(&str, bool, Program); 7] = [
        ("deep ring", false, deep),
        ("mixed", false, &mixed_workload),
        ("panic", false, panics),
        ("deadlock", false, unanswered),
        ("crash", true, &epoch_ring),
        ("crash again", true, &epoch_ring),
        ("mixed again", false, &mixed_workload),
    ];
    for workers in 1..=3 {
        let observe = |m: &Machine, crash: bool, program: Program| {
            let out = if crash {
                m.clone()
                    .with_faults(FaultPlan::new(7).with_crash(1, 2))
                    .run_recoverable(program)
            } else {
                m.try_run(program)
            };
            out.map(|mut out| {
                let mut events = canonical_events(&out);
                if crash && workers > 1 {
                    // Which frames a replay re-injects, and so which arrive
                    // twice, follows the interleaving on several workers.
                    out.clocks.iter_mut().for_each(|c| c.dup_drops = 0);
                    events.clear();
                    out.recovery = None;
                }
                (
                    out.results,
                    out.clocks,
                    out.comm_matrix,
                    events,
                    out.recovery,
                )
            })
        };
        let reused = machine(16, workers);
        for (name, crash, program) in legs {
            let fresh = machine(16, workers);
            assert_eq!(
                observe(&reused, crash, program),
                observe(&fresh, crash, program),
                "workers={workers}, leg {name:?}"
            );
        }
    }
}

fn any_algo() -> impl Strategy<Value = PrsAlgorithm> {
    prop::sample::select(vec![
        PrsAlgorithm::Direct,
        PrsAlgorithm::Split,
        PrsAlgorithm::Auto,
        PrsAlgorithm::Hardware,
    ])
}

fn any_schedule() -> impl Strategy<Value = A2aSchedule> {
    prop::sample::select(vec![
        A2aSchedule::LinearPermutation,
        A2aSchedule::NaivePush,
        A2aSchedule::PairwiseExchange,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Collectives over arbitrary sizes, algorithms, and schedules are
    /// bit-identical between a single-permit pool and a wider one.
    #[test]
    fn collectives_identical_across_pool_sizes(
        p in 1usize..=9,
        workers in 2usize..=5,
        algo in any_algo(),
        schedule in any_schedule(),
        seed in 0i64..100,
    ) {
        let program = move |proc: &mut Proc| {
            let g = proc.world();
            let mine: Vec<i64> =
                (0..4).map(|j| seed + (proc.id() * 13 + j * 7) as i64).collect();
            let (prefix, total) = prefix_reduction_sum(proc, &g, &mine, algo);
            let sends: Vec<Vec<i64>> = (0..proc.nprocs())
                .map(|dst| vec![seed + (proc.id() * 31 + dst) as i64])
                .collect();
            let gathered = alltoallv(proc, &g, sends, schedule);
            (prefix, total, gathered)
        };
        let a = Machine::new(ProcGrid::line(p), CostModel::cm5())
            .with_workers(1)
            .run(program);
        let b = Machine::new(ProcGrid::line(p), CostModel::cm5())
            .with_workers(workers)
            .run(program);
        prop_assert_eq!(&a.results, &b.results);
        for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
            prop_assert_eq!(ca.now_ms(), cb.now_ms());
            prop_assert_eq!(ca.ops, cb.ops);
            prop_assert_eq!(ca.words_sent, cb.words_sent);
            prop_assert_eq!(ca.startups, cb.startups);
        }
    }

    /// Traced ring programs produce the same canonical event stream on any
    /// pool: the trace is part of the deterministic contract, not a
    /// best-effort diagnostic.
    #[test]
    fn event_streams_identical_across_pool_sizes(
        p in 2usize..=6,
        workers in 2usize..=4,
        rounds in 1u64..=4,
    ) {
        let program = move |proc: &mut Proc| {
            let n = proc.nprocs();
            let next = (proc.id() + 1) % n;
            let prev = (proc.id() + n - 1) % n;
            for round in 0..rounds {
                proc.with_stage("test.ring", |proc| {
                    proc.send(next, tags::USER + round, vec![proc.id() as i32; 3]);
                    let _: Vec<i32> = proc.recv(prev, tags::USER + round);
                });
            }
        };
        let a = machine(p, 1).run(program);
        let b = machine(p, workers).run(program);
        prop_assert_eq!(canonical_events(&a), canonical_events(&b));
        prop_assert_eq!(canonical_metrics(&a), canonical_metrics(&b));
    }
}
