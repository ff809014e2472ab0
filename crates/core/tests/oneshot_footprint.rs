//! One-shot footprint gate: a one-shot `pack` / `unpack` gives back what it
//! took (DESIGN.md §10, §11). 200 one-shot 2-D PACK → UNPACK roundtrips (50
//! in an unoptimised build) inside one `Machine::run` — the repo benchmark's
//! `oneshot_2d` shape at 128 × 128 on a 4 × 4 grid, block-cyclic(2) both
//! ways, density 0.5, for the compact-storage pair and the simple pair —
//! must leave every memory account, the heap and the allocation rate where
//! the first ops left them. Before plans could be retired each op stranded
//! its plan's pool slots and plan bytes: the `plan` and `pool` gauges only
//! rose, the heap grew by a megabyte per op at the benchmark's size, and from
//! op ~120 on an op took three to seven times as long.
//!
//! Counts only, no wall clock; one worker, so that every op allocates the
//! same whatever the host does. Three runs per scheme pair:
//!
//! * **untraced** — per processor, the bytes allocated by op *k* equal those
//!   of op 10 for every later *k* (`alloc_counter::thread_totals`), and the
//!   process's live heap bytes (allocated − freed, counted by this file's
//!   allocator: a retired buffer is freed by whoever decodes it last, so
//!   only the sum over processors is meaningful) after op *k* equal those
//!   after op 10; results equal `hpf_core::seq` at the first, the middle and
//!   the last op;
//! * **traced** — every `mem.<account>.cur`, integrated from the `MemSample`
//!   events between per-op markers, reads after op *k* what it read after
//!   op 1, on every processor;
//! * **recoverable** — the same sequence in epochs of ten ops under
//!   `run_recoverable`, crashing mid-sequence, is bit-identical (results,
//!   clocks) to the fault-free recoverable run.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};

use hpf_core::seq::{pack_seq, unpack_seq};
use hpf_core::{pack, unpack, MaskPattern, PackOptions, PackScheme, UnpackOptions, UnpackScheme};
use hpf_distarray::{ArrayDesc, Dist, GlobalArray};
use hpf_machine::alloc_counter::{thread_totals, CountingAllocator};
use hpf_machine::{
    Category, CostModel, EventKind, FaultPlan, Machine, MemAccount, Proc, ProcGrid, RunOutput,
};

/// [`CountingAllocator`] (so `thread_totals` counts per processor) plus the
/// process's live heap bytes.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: defers entirely to `CountingAllocator`; counting has no effect on
// the returned memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        CountingAllocator.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        CountingAllocator.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        CountingAllocator.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        CountingAllocator.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// The live-byte count is the process's: the tests of this file run one at
/// a time.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Roundtrips per run: 200 in release, which is how `scripts/ci.sh` runs this
/// gate; an unoptimised build does 50 in a quarter of the 26 s.
const OPS: usize = if cfg!(debug_assertions) { 50 } else { 200 };
/// Ops whose results are compared with the sequential oracle.
const CHECKED: [usize; 3] = [1, OPS / 2, OPS];
/// The heap and the allocation rate must be flat from this op on.
const FLAT_FROM: usize = 10;
const N: usize = 128;
const SEED: u64 = 11;

const SCHEMES: [(PackScheme, UnpackScheme); 2] = [
    (PackScheme::CompactStorage, UnpackScheme::CompactStorage),
    (PackScheme::Simple, UnpackScheme::Simple),
];

/// The problem and what `hpf_core::seq` makes of it.
struct Case {
    grid: ProcGrid,
    desc: ArrayDesc,
    pattern: MaskPattern,
    popts: PackOptions,
    uopts: UnpackOptions,
    v: Vec<i32>,
    unpacked: GlobalArray<i32>,
}

fn value(g: &[usize]) -> i32 {
    (g[0] * 131 + g[1] * 7) as i32
}

fn field(g: &[usize]) -> i32 {
    -(g[0] as i32) - 1000 * g[1] as i32
}

impl Case {
    fn new((pack_scheme, unpack_scheme): (PackScheme, UnpackScheme)) -> Case {
        let grid = ProcGrid::new(&[4, 4]);
        let dists = [Dist::BlockCyclic(2), Dist::BlockCyclic(2)];
        let desc = ArrayDesc::new(&[N, N], &grid, &dists).unwrap();
        let pattern = MaskPattern::Random {
            density: 0.5,
            seed: SEED,
        };
        let m = pattern.global(&[N, N]);
        let v = pack_seq(&GlobalArray::from_fn(&[N, N], value), &m, None);
        let unpacked = unpack_seq(&v, &m, &GlobalArray::from_fn(&[N, N], field));
        Case {
            grid,
            desc,
            pattern,
            popts: PackOptions::new(pack_scheme),
            uopts: UnpackOptions::new(unpack_scheme),
            v,
            unpacked,
        }
    }

    fn machine(&self) -> Machine {
        Machine::new(self.grid.clone(), CostModel::cm5()).with_workers(1)
    }

    /// This processor's `(A, M, F)`.
    fn locals(&self, proc: &Proc) -> (Vec<i32>, Vec<bool>, Vec<i32>) {
        let (mut a, mut f) = (Vec::new(), Vec::new());
        self.desc.for_each_local_global(proc.id(), |_, g| {
            a.push(value(g));
            f.push(field(g));
        });
        (a, self.pattern.local(&self.desc, proc.id()), f)
    }

    /// One one-shot roundtrip; whether its results are the oracle's (read
    /// in place, so that checking an op allocates nothing).
    fn op(&self, proc: &mut Proc, (a, m, f): &(Vec<i32>, Vec<bool>, Vec<i32>)) -> bool {
        let me = proc.id();
        let packed = pack(proc, &self.desc, a, m, &self.popts).unwrap();
        let vl = packed.v_layout.expect("the mask selects elements");
        let out = unpack(proc, &self.desc, m, f, &packed.local_v, &vl, &self.uopts).unwrap();
        let mut ok = packed.size == self.v.len() && packed.local_v.len() == vl.local_len(me);
        for (l, x) in packed.local_v.iter().enumerate() {
            ok &= self.v[vl.global_of(me, l)] == *x;
        }
        self.desc
            .for_each_local_global(me, |l, g| ok &= self.unpacked.get(g) == out[l]);
        ok
    }
}

/// An uncharged barrier, twice: `read` runs between the two, when every
/// processor has left its op and none has begun the next.
fn between_ops(proc: &mut Proc, read: impl FnOnce(&mut Proc)) {
    let world = proc.world();
    proc.clock_sync_max(&world);
    read(proc);
    proc.clock_sync_max(&world);
}

#[test]
fn heap_and_allocation_rate_are_flat_and_results_stay_right() {
    let _alone = alone();
    for schemes in SCHEMES {
        let case = Case::new(schemes);
        let out = case.machine().run(|proc| {
            let locals = case.locals(proc);
            let (mut allocated, mut live) = (Vec::with_capacity(OPS), Vec::with_capacity(OPS));
            for k in 1..=OPS {
                let before = thread_totals().1;
                let ok = case.op(proc, &locals);
                allocated.push(thread_totals().1 - before);
                assert!(
                    !CHECKED.contains(&k) || ok,
                    "op {k} differs from hpf_core::seq"
                );
                between_ops(proc, |_| live.push(LIVE.load(Ordering::Relaxed)));
            }
            (allocated, live)
        });
        for (p, (allocated, _)) in out.results.iter().enumerate() {
            let later = &allocated[FLAT_FROM - 1..];
            assert!(
                later.iter().all(|&b| b == later[0]),
                "{schemes:?}: processor {p} does not allocate the same every op: {later:?}"
            );
        }
        for (_, live) in &out.results {
            let later = &live[FLAT_FROM - 1..];
            assert!(
                later.iter().all(|&b| b == later[0]),
                "{schemes:?}: live heap bytes move from op {FLAT_FROM} on: {later:?}"
            );
        }
    }
}

#[test]
fn every_memory_account_returns_to_its_value_after_the_first_op() {
    let _alone = alone();
    for schemes in SCHEMES {
        let case = Case::new(schemes);
        let machine = case.machine().with_tracing(true).with_metrics(true);
        let out = machine.run(|proc| {
            let locals = case.locals(proc);
            for _ in 0..OPS {
                case.op(proc, &locals);
                between_ops(proc, |proc| proc.marker("op.done"));
            }
        });
        // Integrate every owner's samples, whoever recorded them, in the
        // order of the recorder's own log; a marker closes an op.
        for (p, events) in out.events.iter().enumerate() {
            let mut cur = [0i64; MemAccount::ALL.len()];
            let mut after_op: Vec<[i64; MemAccount::ALL.len()]> = Vec::new();
            for e in events {
                match e.kind {
                    EventKind::MemSample {
                        account,
                        owner,
                        delta_bytes,
                    } => {
                        assert_eq!(owner, p, "a fault-free run charges nobody else's account");
                        cur[account as usize] += delta_bytes;
                    }
                    EventKind::Marker { name: "op.done" } => after_op.push(cur),
                    _ => {}
                }
            }
            assert_eq!(after_op.len(), OPS);
            for (k, accounts) in after_op.iter().enumerate() {
                assert_eq!(
                    accounts,
                    &after_op[0],
                    "{schemes:?}: processor {p}'s accounts {:?} after op {} differ from op 1's",
                    MemAccount::ALL,
                    k + 1
                );
            }
            // The gauges saw the same samples: their last value is op 1's.
            for account in MemAccount::ALL {
                let gauge = &out.metrics[p].gauges[account.gauge_name()];
                assert_eq!(
                    gauge.last as i64, after_op[0][account as usize],
                    "{account:?}"
                );
            }
            let (plan, pool) = (MemAccount::Plan as usize, MemAccount::Pool as usize);
            assert_eq!(
                (after_op[0][plan], after_op[0][pool]),
                (0, 0),
                "retired, released"
            );
        }
    }
}

#[test]
fn a_mid_sequence_crash_recovers_bit_identically() {
    let _alone = alone();
    const PER_EPOCH: usize = 10;
    for schemes in SCHEMES {
        let case = Case::new(schemes);
        let program = |proc: &mut Proc| {
            let locals = case.locals(proc);
            // Checkpointed: how many of the checked ops matched the oracle.
            let mut matched = 0usize;
            for epoch in 0..OPS / PER_EPOCH {
                proc.epoch(&mut matched, |proc, matched| {
                    for i in 1..=PER_EPOCH {
                        let ok = case.op(proc, &locals);
                        let checked = CHECKED.contains(&(epoch * PER_EPOCH + i));
                        *matched += usize::from(checked && ok);
                    }
                });
            }
            matched
        };
        let run = |faults: FaultPlan| -> RunOutput<usize> {
            let machine = case.machine().with_faults(faults);
            machine.run_recoverable(program).expect("the run recovers")
        };
        let clean = run(FaultPlan::new(SEED));
        assert!(clean.results.iter().all(|&m| m == CHECKED.len()));
        // Processor 5's sends of 45 % of the ops: inside an epoch in
        // mid-sequence.
        let sends = clean.clocks[5].startups;
        let crashed = run(FaultPlan::new(SEED).with_crash(5, sends * 9 / 20));
        assert_eq!(crashed.recovery.as_ref().map(|r| r.replays), Some(1));
        assert_eq!(clean.results, crashed.results, "{schemes:?}");
        for (a, b) in clean.clocks.iter().zip(&crashed.clocks) {
            assert_eq!(a.now_ns, b.now_ns, "{schemes:?}: final clock diverged");
            for cat in Category::ALL {
                assert_eq!(
                    a.cat_ns(cat),
                    b.cat_ns(cat),
                    "{schemes:?}: {cat:?} diverged"
                );
            }
            assert_eq!((a.ops, a.words_sent), (b.ops, b.words_sent), "{schemes:?}");
        }
    }
}
