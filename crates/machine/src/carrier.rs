//! Carriers: the stacks virtual processors run on, and the switch between
//! them.
//!
//! A carrier is a stackful coroutine — a lazily committed stack with a
//! guard page below it, cut from the [`Stacks`] reservation its worker
//! holds for the run — and a switch is a save of the six SysV callee-saved
//! registers plus an `rsp` swap, about 10 ns. Each worker thread keeps the
//! carriers it owns in one [`Carriers`] table on its own stack and
//! publishes it in a thread-local for as long as one of them runs; the
//! table never leaves the thread, so a carrier is resumed only by the
//! worker that started it. The reservation, pages touched and all, goes
//! back to the machine's pool once nothing is suspended on it, and is
//! unmapped when the machine's last clone drops. Nothing unwinds across a
//! switch: a carrier's entry runs in an `extern "C"` frame (which aborts on
//! an escaping panic), and the scheduler's driver catches program panics
//! above it, at the bottom of the carrier's own stack.
//!
//! This is the crate's only `unsafe` outside the allocator shim.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "hpf-machine switches carrier stacks with hand-written assembly; \
     the supported target is x86_64-unknown-linux-gnu"
);

use std::cell::Cell;
use std::fmt;
use std::ptr;
use std::sync::Mutex;

use crate::alloc_counter;

// Declared against the libc that std already links.
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn mincore(addr: *mut u8, len: usize, vec: *mut u8) -> i32;
}
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`.
const MAP_FLAGS: i32 = 0x02 | 0x20 | 0x4000 | 0x2_0000;
const PAGE: usize = 4096;

/// Stack reserve per carrier: address space only, committed a page at a
/// time as the program touches it. Large machines reserve half as much;
/// SPMD programs here recurse at most logarithmically. Overflow is a
/// `SIGSEGV` on the `PROT_NONE` guard page below.
pub(crate) fn stack_bytes(nprocs: usize) -> usize {
    if nprocs >= 256 {
        1 << 20
    } else {
        2 << 20
    }
}

/// Save the running context's callee-saved registers on its stack and its
/// `rsp` in `*save`, then resume the suspended context whose saved `rsp`
/// is `to`.
///
/// # Safety
/// `to` must be the `rsp` this function saved for a context that is still
/// suspended on a live stack (or the initial frame [`Carriers::start`]
/// builds), and that context must belong to the calling thread.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    // To the compiler this is an ordinary SysV call: rbx, rbp and r12–r15
    // come back as they were (restored when this context is resumed) and
    // everything else may be clobbered. MXCSR and the x87 control word are
    // never changed by this crate, so every context shares the thread's.
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a new carrier's first switch-in "returns" to: hands the carrier's
/// index (parked in r12 by the initial frame) to [`carrier_main`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    // The initial frame leaves rsp 16-byte aligned here, as the ABI wants
    // at a `call`.
    core::arch::naked_asm!("mov rdi, r12", "call {main}", "ud2", main = sym carrier_main)
}

/// Bottom frame of every carrier. `extern "C"`: a panic that escaped the
/// entry closure would abort here rather than unwind into the trampoline.
extern "C" fn carrier_main(idx: usize) -> ! {
    alloc_counter::set_thread_totals((0, 0));
    // SAFETY: a carrier only runs inside the `resume` call that published
    // its table on this thread, and that call borrows the table.
    let table = unsafe { &*ACTIVE.get() };
    (table.entry)(idx);
    table.finished.set(Some(idx));
    table.switch(&table.sps[idx], None);
    unreachable!("a finished carrier is never resumed")
}

thread_local! {
    /// The table whose carrier runs on this thread; null in a worker loop
    /// and on every other thread.
    static ACTIVE: Cell<*const Carriers<'static>> = const { Cell::new(ptr::null()) };
}

/// One worker's stacks, a value that outlives the run: one `PROT_NONE`
/// mapping of `slice` bytes per carrier — a guard page that stays that way,
/// then the stack, made writable at its first start on any run.
pub(crate) struct Stacks {
    region: *mut u8,
    slice: usize,
    /// Per carrier: its stack is writable, so a start makes no syscall.
    committed: Box<[Cell<bool>]>,
}

/// A machine's reservations between runs. Locked only to push or remove,
/// so never poisoned.
pub(crate) type StackPool = Mutex<Vec<Stacks>>;
const POOL: &str = "no pool operation panics";

// SAFETY: `region` is a private mapping that only this value points into,
// and `mprotect` and `munmap` may be called from any thread; the other
// fields are plain data. A `Stacks` changes threads only through a pool,
// and `Carriers::retire` pools it only when no context is suspended on it:
// no frame on these stacks is ever resumed by a thread that did not push it.
unsafe impl Send for Stacks {}

impl Stacks {
    /// A reservation for `n` carriers of `stack_bytes` each: `pool`'s, if
    /// it holds one of that shape, else a new mapping.
    pub(crate) fn checkout(pool: &StackPool, n: usize, stack_bytes: usize) -> Stacks {
        let slice = stack_bytes + PAGE;
        let mut pooled = pool.lock().expect(POOL);
        let fits = |s: &Stacks| s.committed.len() == n && s.slice == slice;
        if let Some(at) = pooled.iter().position(fits) {
            return pooled.swap_remove(at);
        }
        drop(pooled);
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks aliases no existing memory.
        let region = unsafe { mmap(ptr::null_mut(), n * slice, PROT_NONE, MAP_FLAGS, -1, 0) };
        if region as isize == -1 {
            out_of_stacks(n * slice);
        }
        Stacks {
            region,
            slice,
            committed: vec![Cell::new(false); n].into(),
        }
    }
}

impl Drop for Stacks {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `checkout` made. A table gives its
        // reservation up after every carrier's last switch out, so no
        // context runs on it (one dropped while suspended leaks its frames).
        unsafe { munmap(self.region, self.committed.len() * self.slice) };
    }
}

/// `(deepest, sum)` over the stacks of every reservation in `pool`: the
/// host bytes of each carrier's stack that are resident, its guard page
/// left out. Asks `mincore`, so it reads and touches no page of a stack.
/// A reservation checked out by a run in flight is not in the pool and is
/// not counted.
pub(crate) fn resident_bytes(pool: &StackPool) -> (usize, usize) {
    let pooled = pool.lock().expect(POOL);
    let mut pages = Vec::new();
    let (mut deepest, mut sum) = (0, 0);
    for stacks in pooled.iter() {
        let len = stacks.slice - PAGE;
        pages.resize(len / PAGE, 0u8);
        for idx in (0..stacks.committed.len()).filter(|&i| stacks.committed[i].get()) {
            // SAFETY: carrier `idx`'s stack, page-aligned and mapped for as
            // long as the pool holds its reservation; `pages` has one byte
            // per page of it, and `mincore` writes only `pages`.
            let asked = unsafe {
                let stack = stacks.region.add(idx * stacks.slice + PAGE);
                mincore(stack, len, pages.as_mut_ptr())
            };
            assert_eq!(asked, 0, "mincore over a stack of the pool's own mapping");
            let bytes = pages.iter().filter(|&&b| b & 1 != 0).count() * PAGE;
            deepest = deepest.max(bytes);
            sum += bytes;
        }
    }
    (deepest, sum)
}

/// Shape only: the address differs run to run.
impl fmt::Debug for Stacks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stacks({} x {} B)", self.committed.len(), self.slice)
    }
}

/// The carriers of one worker thread, by local index. Neither `Send` nor
/// `Sync`: a stack is resumed only by its owning worker.
pub(crate) struct Carriers<'a> {
    /// Body of carrier `idx`, run to completion on its own stack.
    entry: &'a (dyn Fn(usize) + Sync),
    stacks: Stacks,
    /// Each suspended carrier's saved `rsp`; null while it runs, before
    /// its first start and after its last switch out.
    sps: Box<[Cell<*mut u8>]>,
    /// The worker loop's saved `rsp` while a carrier runs.
    loop_sp: Cell<*mut u8>,
    /// The running carrier; `None` in the worker loop.
    current: Cell<Option<usize>>,
    /// Set by a carrier whose entry returned, just before its last switch.
    finished: Cell<Option<usize>>,
}

/// Out of address space or mappings: as fatal as a failed heap allocation,
/// and a panic could strand a half-switched scheduler.
fn out_of_stacks(bytes: usize) -> ! {
    let layout = std::alloc::Layout::from_size_align(bytes, PAGE);
    std::alloc::handle_alloc_error(layout.expect("a stack's size is a valid layout"))
}

impl<'a> Carriers<'a> {
    pub(crate) fn new(stacks: Stacks, entry: &'a (dyn Fn(usize) + Sync)) -> Self {
        Carriers {
            entry,
            sps: vec![Cell::new(ptr::null_mut()); stacks.committed.len()].into(),
            stacks,
            loop_sp: Cell::new(ptr::null_mut()),
            current: Cell::new(None),
            finished: Cell::new(None),
        }
    }

    /// From the worker loop: run carrier `idx` — from the top of its stack
    /// if it is not suspended — and whatever it hands off to, until one of
    /// them switches back to the loop. Returns the carrier that finished,
    /// or `None` if the last one parked.
    pub(crate) fn resume(&self, idx: usize) -> Option<usize> {
        assert!(self.current.get().is_none(), "resume from inside a carrier");
        let outer = ACTIVE.replace(ptr::from_ref(self).cast());
        self.switch(&self.loop_sp, Some(idx));
        ACTIVE.set(outer);
        let done = self.finished.take()?;
        // Its last switch saved a dead context; the next pick starts over.
        self.sps[done].set(ptr::null_mut());
        Some(done)
    }

    /// Commit carrier `idx`'s stack, unless an earlier start did, and build
    /// the frame that enters [`trampoline`]; returns the `rsp` to switch to.
    fn start(&self, idx: usize) -> *mut u8 {
        let (region, slice) = (self.stacks.region, self.stacks.slice);
        let fresh = !self.stacks.committed[idx].replace(true);
        // SAFETY: carrier `idx`'s slice of the reservation minus its guard
        // page; it is not suspended (its `rsp` was null), so nothing runs
        // on it, whatever lies there. The frame is nine words below the
        // top: six popped registers, the return address, and 16 bytes (zero,
        // which ends a backtrace) the trampoline's frame starts above.
        unsafe {
            let stack = region.add(idx * slice + PAGE);
            if fresh && mprotect(stack, slice - PAGE, PROT_READ_WRITE) != 0 {
                out_of_stacks(slice);
            }
            let sp = stack.add(slice - PAGE).cast::<usize>().sub(9);
            sp.write_bytes(0, 9);
            sp.add(3).write(idx); // popped into r12
            sp.add(6).write(trampoline as *const () as usize);
            sp.cast()
        }
    }

    /// Suspend the running context into `save` and resume `next` (`None`:
    /// the worker loop). Allocation counters follow the context.
    fn switch(&self, save: &Cell<*mut u8>, next: Option<usize>) {
        let to = match next {
            None => self.loop_sp.replace(ptr::null_mut()),
            Some(n) => match self.sps[n].replace(ptr::null_mut()) {
                sp if sp.is_null() => self.start(n),
                sp => sp,
            },
        };
        assert!(!to.is_null(), "switch to a context that is not suspended");
        self.current.set(next);
        let counts = alloc_counter::thread_totals();
        // SAFETY: `to` was saved by this function for a context of this
        // thread's table (or built by `start`) and taken out of its slot
        // above, so it is suspended and is resumed exactly once; its stack
        // is mapped for as long as the table holds the reservation.
        unsafe { switch(save.as_ptr(), to) };
        alloc_counter::set_thread_totals(counts);
    }

    /// The worker loop is over: the reservation goes to `pool` for the
    /// next run — or is unmapped, should a context still be suspended on
    /// it, so that its dead frames are neither resumed nor overwritten.
    pub(crate) fn retire(self, pool: &StackPool) {
        let idle = self.sps.iter().all(|sp| sp.get().is_null());
        debug_assert!(idle, "a worker loop ended with a carrier suspended");
        if idle {
            pool.lock().expect(POOL).push(self.stacks);
        }
    }
}

/// From inside a carrier: suspend it and resume carrier `next` of the same
/// worker directly, or the worker loop if `None`. Returns when something
/// resumes the caller; at once if `next` is the caller itself.
pub(crate) fn switch_to(next: Option<usize>) {
    let table = ACTIVE.get();
    assert!(!table.is_null(), "switch_to outside a carrier");
    // SAFETY: non-null only inside the `resume` call that borrows it.
    let table = unsafe { &*table };
    let me = table.current.get().expect("switch_to from a worker loop");
    if next != Some(me) {
        table.switch(&table.sps[me], next);
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, Machine, ProcGrid};

    const ARRAY: usize = 64 << 10;

    /// Processor 1 writes every page of an `ARRAY`-byte local array; the
    /// others return at once.
    fn deep_on_one(p: &mut crate::Proc) -> u8 {
        if p.id() != 1 {
            return 0;
        }
        let mut array = [0u8; ARRAY];
        for page in array.chunks_mut(super::PAGE) {
            page[0] = 1;
        }
        std::hint::black_box(&mut array)[ARRAY - 1]
    }

    #[test]
    fn the_stack_gauge_sees_what_a_program_wrote() {
        let m = Machine::new(ProcGrid::line(4), CostModel::zero()).with_workers(1);
        assert_eq!(m.stack_resident_bytes(), (0, 0), "before any run");

        m.run(deep_on_one);
        let (deepest, sum) = m.stack_resident_bytes();
        assert!(deepest >= ARRAY, "the deepest stack holds {deepest} B");
        assert!(sum >= deepest, "{sum} B over all, {deepest} B on one");

        // Touched pages stay until the machine drops, so a second run of
        // the same program reads no fewer.
        m.run(deep_on_one);
        let again = m.stack_resident_bytes();
        assert!(
            again.0 >= deepest && again.1 >= sum,
            "{again:?} after the second run, ({deepest}, {sum}) after the first"
        );
    }
}
