//! Per-layer probes: direct timings of single public functions of one layer,
//! run pinned-serial in a child of their own during the traced pass. Each
//! returns the median of a few repetitions.

use std::hint::black_box;
use std::time::Instant;

use hpf_analysis::median;
use hpf_core::seq::{pack_seq, unpack_seq};
use hpf_core::{pack_redistributed, PackOptions, PackScheme, RedistScheme, UnpackOptions};
use hpf_distarray::Dist;
use hpf_machine::collectives::{
    alltoallv_pooled, prefix_reduction_sum, A2aPlan, A2aSchedule, PrsAlgorithm,
};
use hpf_machine::{fresh_pool_key, tags, CostModel, Machine, PoolSlot, Proc, ProcGrid};

use crate::workloads::{self, Inputs, Workload};

/// Repetitions whose median a probe reports.
const REPS: usize = 5;

fn serial(p: usize) -> Machine {
    Machine::new(ProcGrid::line(p), CostModel::cm5()).with_workers(1)
}

/// Median over `REPS` of the seconds `f` takes, after one untimed call.
fn median_secs(mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Seconds per call of `body`, which every processor of a `p`-processor
/// serial machine calls `calls` times in lock-step (slowest processor),
/// median over a few runs: fewer at large `p`, where one all-pairs exchange
/// already takes a second.
fn collective_secs(p: usize, calls: usize, body: impl Fn(&mut Proc) + Sync) -> f64 {
    let reps = if p > 64 { 1 } else { REPS };
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let out = serial(p).run(|proc| {
                body(proc); // warm-up
                let t = Instant::now();
                for _ in 0..calls {
                    body(proc);
                }
                t.elapsed().as_secs_f64()
            });
            out.results.iter().copied().fold(0.0, f64::max) / calls as f64
        })
        .collect();
    median(&runs)
}

/// How many calls of a collective to time at `p` processors: serial cost
/// grows with `p` (and with `p²` for all-pairs exchanges).
fn calls_for(p: usize) -> usize {
    (1024 / p).clamp(1, 32)
}

/// `memcpy` bandwidth on two buffers of `bytes` each, GB/s.
pub fn memcpy_gbps(bytes: usize) -> f64 {
    let words = (bytes / 8).max(512);
    let src = vec![1u64; words];
    let mut dst = vec![0u64; words];
    let copies = ((64 << 20) / (words * 8)).clamp(1, 4096);
    let secs = median_secs(|| {
        for _ in 0..copies {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        }
    });
    (words * 8 * copies) as f64 / secs / 1e9
}

/// One `prefix_reduction_sum` over `p` processors of a `len`-element vector,
/// µs.
pub fn prs_us(p: usize, len: usize) -> f64 {
    let v = vec![1i32; len];
    collective_secs(p, calls_for(p), |proc| {
        let world = proc.world();
        black_box(prefix_reduction_sum(proc, &world, &v, PrsAlgorithm::Auto));
    }) * 1e6
}

/// One `alltoallv_pooled` of one-word messages between all pairs of `p`
/// processors, µs: the exchange's fixed cost with no payload to speak of.
pub fn a2a_fixed_us(p: usize, schedule: A2aSchedule) -> f64 {
    let flags: Vec<bool> = vec![true; p];
    let key = fresh_pool_key();
    collective_secs(p, calls_for(p), |proc| {
        let me = proc.id();
        let mut to = flags.clone();
        to[me] = false;
        let plan = A2aPlan::from_flags(to.clone(), to);
        for dst in (0..p).filter(|d| *d != me) {
            let (slot, mut buf) = proc.pool_checkout::<Vec<i32>>(key, dst);
            buf.push(me as i32);
            slot.stash(buf);
        }
        let mut recvs = proc.take_pkt_scratch();
        alltoallv_pooled::<Vec<i32>>(proc, &plan, schedule, key, &mut recvs);
        for pkt in recvs.drain(..) {
            let slot = pkt
                .data
                .downcast::<PoolSlot<Vec<i32>>>()
                .expect("pooled exchange delivers pool slots");
            let buf = slot.take_staged();
            slot.put_back(buf);
        }
        proc.restore_pkt_scratch(recvs);
    }) * 1e6
}

/// One one-word message between two processors, µs (half a ping-pong).
pub fn msg_us() -> f64 {
    collective_secs(2, 512, |proc| {
        let peer = 1 - proc.id();
        if proc.id() == 0 {
            proc.send(peer, tags::USER, vec![1i32]);
            let _: Vec<i32> = proc.recv(peer, tags::USER);
        } else {
            let _: Vec<i32> = proc.recv(peer, tags::USER);
            proc.send(peer, tags::USER, vec![1i32]);
        }
    }) * 1e6
        / 2.0
}

/// One `pool_checkout` + `put_back` of a warm slot, ns.
pub fn pool_checkout_ns() -> f64 {
    let key = fresh_pool_key();
    collective_secs(2, 20_000, |proc| {
        let (slot, buf) = proc.pool_checkout::<Vec<i32>>(key, 1 - proc.id());
        slot.put_back(black_box(buf));
    }) * 1e9
}

/// One `clock_sync_max` barrier over `p` processors, µs.
pub fn barrier_us(p: usize) -> f64 {
    collective_secs(p, calls_for(p), |proc| {
        let world = proc.world();
        proc.clock_sync_max(&world);
    }) * 1e6
}

/// One `Machine::run` of an empty body on `p` processors, µs: carrier
/// spawn, scheduler enrolment and join.
pub fn spawn_us(p: usize) -> f64 {
    let m = serial(p).with_chan_capacity(p);
    median_secs(|| {
        black_box(m.run(|proc| proc.id()));
    }) * 1e6
}

/// Wall ns per processor-step of one `scale` roundtrip at `p` processors,
/// one run.
pub fn step_ns(p: usize, seed: u64) -> f64 {
    let (steps, secs) = workloads::scale_steps(p, seed);
    secs * 1e9 / steps.max(1) as f64
}

/// Median wall seconds of the `recover_crash` program run three ways:
/// `(plain run, fault-free run_recoverable, crashing run_recoverable)`.
pub fn recovery_secs(seed: u64) -> (f64, f64, f64) {
    let w = &workloads::find("recover_crash").expect("recover_crash exists");
    let inputs = Inputs::new(w, seed);
    let program = workloads::recover_program(
        &inputs,
        PackOptions::new(PackScheme::CompactMessage),
        UnpackOptions::default(),
        false,
    );
    let plain = w.machine(false);
    let clean = workloads::recover_machine(w, seed, false, false);
    let crashing = workloads::recover_machine(w, seed, false, true);
    (
        median_secs(|| {
            black_box(plain.run(&program));
        }),
        median_secs(|| {
            black_box(clean.run_recoverable(&program).expect("fault-free run"));
        }),
        median_secs(|| {
            black_box(crashing.run_recoverable(&program).expect("recovered run"));
        }),
    )
}

/// `pack_redistributed` of `oneshot_2d`'s input laid out cyclically, µs per
/// call, as `(Red. 1, Red. 2)`.
pub fn redist_us(seed: u64) -> (f64, f64) {
    let w = &workloads::find("oneshot_2d").expect("oneshot_2d exists");
    let inputs = Inputs::with_dist(w, seed, Dist::Cyclic);
    let opts = PackOptions::new(PackScheme::CompactStorage);
    let one = |scheme: RedistScheme| {
        let runs: Vec<f64> = (0..REPS)
            .map(|_| {
                let out = w.machine(false).run(|proc| {
                    let (a, m, _) = inputs.locals(proc.id());
                    let t = Instant::now();
                    black_box(
                        pack_redistributed(proc, &inputs.desc, &a, &m, scheme, &opts)
                            .expect("pack_redistributed"),
                    );
                    t.elapsed().as_secs_f64()
                });
                out.results.iter().copied().fold(0.0, f64::max)
            })
            .collect();
        median(&runs) * 1e6
    };
    (
        one(RedistScheme::SelectedData),
        one(RedistScheme::WholeArrays),
    )
}

/// Plain single-threaded `pack_seq` + `unpack_seq` of the workload's
/// problem, µs: the sequential baseline.
pub fn seq_oracle_us(w: &Workload, seed: u64) -> f64 {
    let inputs = Inputs::new(w, seed);
    let (a, m, f) = inputs.globals();
    median_secs(|| {
        let v = pack_seq(black_box(&a), &m, None);
        black_box(unpack_seq(&v, &m, &f));
    }) * 1e6
}

/// The probes that depend on the workload's shape, as `(metric name, value)`.
pub fn of_workload(w: &Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let p = w.nprocs();
    let prs_len = (w.global_len() / p / w.w).max(1);
    vec![
        ("machine.prs.probe_us", prs_us(p, prs_len)),
        ("machine.a2a.probe_fixed_us", a2a_fixed_us(p, w.schedule())),
        ("machine.sched.barrier_us", barrier_us(p)),
        ("core.seq.oracle_us", seq_oracle_us(w, seed)),
    ]
}

/// The probes that are the same whatever the workload.
pub fn host_wide(seed: u64) -> Vec<(&'static str, f64)> {
    let (plain, clean, crashed) = recovery_secs(seed);
    let (red1, red2) = redist_us(seed);
    let (lo, mid, hi) = (step_ns(128, seed), step_ns(512, seed), step_ns(1024, seed));
    vec![
        ("machine.xport.msg_us", msg_us()),
        ("machine.pool.checkout_ns", pool_checkout_ns()),
        ("machine.sched.spawn_us_p16", spawn_us(16)),
        ("machine.sched.spawn_us_p512", spawn_us(512)),
        ("machine.recovery.mode_tax", clean / plain),
        (
            "machine.recovery.crash_overhead_frac",
            (crashed - clean) / clean,
        ),
        ("distarray.redist.red1_us", red1),
        ("distarray.redist.red2_us", red2),
        ("machine.sched.step_ns_p128", lo),
        ("machine.sched.step_ns_p512", mid),
        ("machine.sched.step_ns_p1024", hi),
        ("machine.sched.step_growth", hi / lo),
    ]
}
