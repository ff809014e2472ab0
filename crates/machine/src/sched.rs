//! Deterministic cooperative scheduler: virtual processors multiplexed
//! over a bounded pool of worker threads.
//!
//! A virtual processor runs on a *carrier* — a stackful coroutine on its
//! own stack ([`crate::carrier`]) — and `min(workers, P)` OS threads, the
//! caller's among them, run the carriers. Carrier `id` is worker
//! `id % workers`'s for the run: only that thread starts or resumes it, so a
//! `Proc` and everything its program borrows stay on one OS thread. Every
//! blocking point in [`crate::proc::Proc`] — frame receive, transport
//! flush, clock-sync barrier, buffer-pool back-pressure — parks here, and
//! a park is a user-space stack switch: straight to the next ready carrier
//! of the same worker, or back to the worker's loop when it has none.
//! Senders wake the destination through [`Scheduler::unpark_from`] (an
//! unsequenced data frame, which only wakes a receiver awaiting that
//! sender) or [`Scheduler::unpark`] (everything else, unconditionally).
//!
//! Each worker picks from its own ready min-heap keyed on
//! `(simulated time, proc id)` — the lowest simulated clock runs first,
//! ties break to the lowest id — never on OS wake-up order. With one worker
//! the execution order is therefore a pure function of the program; with
//! more, simulated results are schedule-invariant regardless (message
//! matching is by `(src, tag)` FIFO plus SPMD program order; see
//! DESIGN.md §15).
//!
//! The missed-wakeup race (sender enqueues between a receiver's empty
//! queue probe and its park) is closed by a per-processor wake token:
//! an unpark aimed at a processor that is not parked sets the token, and
//! the next park consumes the token and returns immediately without
//! switching. All state transitions happen under one mutex, so the token
//! handshake needs no memory-ordering subtlety. The mutex is never held
//! across a switch; nothing can resume a carrier between its unlock and
//! its switch out — the only thread that may is the one running it.
//!
//! Wake-ups are *targeted*: a receive park records the source it awaits,
//! and a raw frame from any other source leaves the processor parked — the
//! frame waits in the ring, which every receive drains before it parks
//! again. Only a `Parked` processor is ever filtered; one that is running
//! (or between its last ring probe and its park) gets the token whoever
//! sent the frame, so the probe→park race stays closed (DESIGN.md §15).
//!
//! There is no clock in here: "lost" and "stuck" are told by *quiescence*.
//! The scheduler counts the processors that are `Ready` or `Running`; a
//! worker that finds nothing to run while that count is zero knows every
//! live processor is parked, every frame that reached a ring dispatched and
//! every ack consumed. Parked processors holding unacknowledged frames are
//! then requeued to retransmit; if there is none, the lowest-id parked one
//! is requeued to report the hang. A processor that blocks its OS thread is
//! `Running`, never a hang — it holds its worker, as it held a permit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::carrier::{self, Carriers, StackPool, Stacks};

/// Why a poisoned scheduler mutex cannot happen.
const POISON: &str = "no scheduler transition panics half-way";

/// Why [`Scheduler::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOutcome {
    /// A wake token was already pending: the processor never switched
    /// out. The caller should re-probe.
    Token,
    /// The processor was switched out and an unpark made it ready again.
    /// The caller should re-probe whatever it was waiting for.
    Woken,
    /// The machine went quiescent and this processor holds unacknowledged
    /// frames: they were lost or held back; transmit each once more.
    Retry,
    /// The machine went quiescent with nothing to retransmit: this park
    /// can never end, and the caller should report what it waits for.
    Stuck,
}

/// Task lifecycle. `Ready` tasks (and only they) have an entry in their
/// worker's ready heap. There is no grant handshake: the worker that takes
/// a task off its heap is the one that resumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Wants to run; queued in its worker's ready heap.
    Ready,
    /// Executing on its carrier (or about to be switched in).
    Running,
    /// Switched out at a park point; no heap entry.
    Parked,
    /// Finished (or crashed); nothing is left on its stack.
    Done,
}

/// Min-heap keyed by `(simulated-time bits, proc id)`. Simulated times are
/// finite and non-negative, so the IEEE-754 bit pattern orders exactly like
/// the float and the heap never sees NaN.
type ReadyHeap = BinaryHeap<Reverse<(u64, usize)>>;

struct Inner {
    state: Box<[State]>,
    /// Pending wake per processor: an unpark that arrived while the target
    /// was not parked. Consumed (without switching) by the next park.
    token: Box<[bool]>,
    /// One heap per worker, of its ready processors.
    ready: Box<[ReadyHeap]>,
    /// Each processor's last park key (its simulated clock at the park),
    /// re-used when an unpark or a respawn re-enqueues it.
    key: Box<[u64]>,
    /// The source each processor's current receive park awaits; `None`
    /// outside one. Set on park entry and cleared only when the park
    /// returns, so the processor told it is stuck still shows whom it
    /// waits for ([`Scheduler::wait_chain`]).
    awaits: Box<[Option<usize>]>,
    /// Raw frames that reached each processor while it stayed parked
    /// awaiting another source (the `sched.wakes_filtered` metric).
    filtered: Box<[u64]>,
    /// Whether each `Parked` processor holds unacknowledged frames, and
    /// how the park it is returning from ended.
    retry: Box<[bool]>,
    outcome: Box<[ParkOutcome]>,
    /// Processors `Ready` or `Running`, machine-wide; zero is quiescence.
    active: usize,
    /// Per worker: asleep on its condvar, so a wake must notify it.
    idle: Box<[bool]>,
    /// Per worker: processors not yet `Done`; it exits at zero.
    live: Box<[usize]>,
    /// Processors whose retiring carrier asked for a successor.
    respawn: Box<[bool]>,
}

impl Inner {
    /// Queue `id` on its worker's heap at its last park key; the park it
    /// returns from (if any) ends with `outcome`.
    fn requeue(&mut self, id: usize, outcome: ParkOutcome) {
        self.state[id] = State::Ready;
        self.outcome[id] = outcome;
        self.active += 1;
        let w = id % self.ready.len();
        self.ready[w].push(Reverse((self.key[id], id)));
    }

    /// Nothing is ready or running anywhere: requeue every parked processor
    /// that asked for a retry, or — if none did — the lowest-id parked one
    /// as stuck. (Nothing is parked once every processor is done.)
    fn quiesce(&mut self) {
        let mut stuck = None;
        for id in 0..self.state.len() {
            match (self.state[id], self.retry[id]) {
                (State::Parked, true) => self.requeue(id, ParkOutcome::Retry),
                (State::Parked, false) => stuck = stuck.or(Some(id)),
                _ => {}
            }
        }
        if let (0, Some(id)) = (self.active, stuck) {
            self.requeue(id, ParkOutcome::Stuck);
        }
    }
}

/// The worker-pool scheduler shared by one machine run. See the module
/// docs for the protocol.
pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    /// One condvar per worker, waited on only while it has nothing ready.
    idle_cv: Box<[Condvar]>,
    nprocs: usize,
    workers: usize,
}

impl Scheduler {
    /// Build a scheduler for `nprocs` virtual processors over `workers`
    /// worker threads (clamped to `1..=nprocs`). All processors are
    /// pre-enrolled ready at key `(0, id)`, so each worker starts its
    /// lowest id first whatever order the threads come up in.
    pub(crate) fn new(nprocs: usize, workers: usize) -> Scheduler {
        let workers = workers.clamp(1, nprocs.max(1));
        let per_worker = nprocs.div_ceil(workers);
        let mut ready: Box<[_]> = (0..workers)
            .map(|_| BinaryHeap::with_capacity(per_worker + 1))
            .collect();
        let mut live = vec![0; workers].into_boxed_slice();
        for id in 0..nprocs {
            ready[id % workers].push(Reverse((0u64, id)));
            live[id % workers] += 1;
        }
        let inner = Inner {
            state: vec![State::Ready; nprocs].into_boxed_slice(),
            token: vec![false; nprocs].into_boxed_slice(),
            ready,
            key: vec![0u64; nprocs].into_boxed_slice(),
            awaits: vec![None; nprocs].into_boxed_slice(),
            filtered: vec![0; nprocs].into_boxed_slice(),
            retry: vec![false; nprocs].into_boxed_slice(),
            outcome: vec![ParkOutcome::Woken; nprocs].into_boxed_slice(),
            active: nprocs,
            idle: vec![false; workers].into_boxed_slice(),
            live,
            respawn: vec![false; nprocs].into_boxed_slice(),
        };
        Scheduler {
            inner: Mutex::new(inner),
            idle_cv: (0..workers).map(|_| Condvar::new()).collect(),
            nprocs,
            workers,
        }
    }

    /// Worker threads the run needs: one [`Scheduler::run_worker`] each.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect(POISON)
    }

    /// Worker `w`'s loop, one OS thread each: run `body(id)` for every
    /// processor it owns, each on its own stack, switching among them as
    /// they park, until all are done. Their stacks are a reservation from
    /// `pool`, returned to it at the end; a processor's first pick, and its
    /// first after [`Scheduler::enroll`], starts at the top of its stack.
    pub(crate) fn run_worker(&self, w: usize, pool: &StackPool, body: &(dyn Fn(usize) + Sync)) {
        let entry = |local: usize| body(local * self.workers + w);
        let owned = (self.nprocs + self.workers - 1 - w) / self.workers;
        let stacks = Stacks::checkout(pool, owned, carrier::stack_bytes(self.nprocs));
        let carriers = Carriers::new(stacks, &entry);
        while let Some(id) = self.next_ready(w) {
            if let Some(local) = carriers.resume(id / self.workers) {
                self.finish(local * self.workers + w);
            }
        }
        carriers.retire(pool);
    }

    /// Worker `w`'s scheduling point: take its lowest-keyed ready processor
    /// — once a machine just gone quiescent has requeued whoever must
    /// retransmit or report the hang, on whichever worker.
    fn pick(&self, g: &mut Inner, w: usize) -> Option<usize> {
        if g.active == 0 {
            g.quiesce();
            let roused = (0..self.workers).filter(|&v| g.idle[v] && !g.ready[v].is_empty());
            roused.for_each(|v| self.idle_cv[v].notify_one());
        }
        let Reverse((_, id)) = g.ready[w].pop()?;
        debug_assert_eq!(g.state[id], State::Ready, "heap holds only Ready tasks");
        g.state[id] = State::Running;
        Some(id)
    }

    /// Block worker `w` until one of its processors is ready; `None` once
    /// all are done.
    fn next_ready(&self, w: usize) -> Option<usize> {
        let mut g = self.lock();
        loop {
            if let Some(id) = self.pick(&mut g, w) {
                return Some(id);
            }
            if g.live[w] == 0 {
                return None;
            }
            g.idle[w] = true;
            g = self.idle_cv[w].wait(g).expect(POISON);
            g.idle[w] = false;
        }
    }

    /// Switch processor `id` out until woken or the machine goes quiescent.
    /// `key_ns` is the processor's current simulated time — the ready-queue
    /// sort key when it requeues. `retry` says it holds unacknowledged
    /// frames. `awaits` names the one source whose raw frames should end
    /// the park (a receive); `None` lets any frame end it. A pending wake
    /// token short-circuits the park entirely (no transition, no switch).
    pub(crate) fn park(
        &self,
        id: usize,
        key_ns: f64,
        retry: bool,
        awaits: Option<usize>,
    ) -> ParkOutcome {
        let w = id % self.workers;
        let next = {
            let mut g = self.lock();
            debug_assert_eq!(g.state[id], State::Running, "park from a non-running task");
            if std::mem::replace(&mut g.token[id], false) {
                return ParkOutcome::Token;
            }
            g.state[id] = State::Parked;
            g.active -= 1;
            g.awaits[id] = awaits;
            g.retry[id] = retry;
            g.key[id] = key_ns.max(0.0).to_bits();
            self.pick(&mut g, w)
        };
        // Direct hand-off to the next ready carrier of this worker, or back
        // to its loop (which sleeps until a wake).
        carrier::switch_to(next.map(|n| n / self.workers));
        let mut g = self.lock();
        g.awaits[id] = None;
        g.outcome[id]
    }

    /// Wake processor `id` unconditionally: sequenced frames, acks and
    /// poison (via the channel waker), pool slots on `put_back`. Parked
    /// targets move to the ready queue at their park key; any other state
    /// records a wake token so a concurrent or future park cannot miss the
    /// signal.
    pub(crate) fn unpark(&self, id: usize) {
        self.wake(id, None);
    }

    /// Wake processor `id` for a raw frame from `src`: as
    /// [`Scheduler::unpark`], except that a processor parked awaiting some
    /// *other* source stays parked — that frame cannot complete its
    /// receive, and it drains the ring before it parks for anything else.
    pub(crate) fn unpark_from(&self, id: usize, src: usize) {
        self.wake(id, Some(src));
    }

    fn wake(&self, id: usize, from: Option<usize>) {
        let mut g = self.lock();
        match g.state[id] {
            State::Parked => {
                if matches!((from, g.awaits[id]), (Some(s), Some(a)) if s != a) {
                    g.filtered[id] += 1;
                    return;
                }
                g.requeue(id, ParkOutcome::Woken);
                // The owner picks it up at its next scheduling point; only
                // a sleeping one needs the kernel.
                let w = id % self.workers;
                if g.idle[w] {
                    self.idle_cv[w].notify_one();
                }
            }
            State::Done => {}
            _ => g.token[id] = true,
        }
    }

    /// Processor `id`'s carrier made its last switch out (program
    /// finished, errored, or crashed) and its stack holds nothing: retire
    /// it, or queue it for a new carrier if it asked for one.
    fn finish(&self, id: usize) {
        let mut g = self.lock();
        debug_assert_eq!(g.state[id], State::Running, "finish of a task not running");
        g.token[id] = false;
        g.active -= 1;
        if std::mem::replace(&mut g.respawn[id], false) {
            g.requeue(id, ParkOutcome::Woken);
        } else {
            g.state[id] = State::Done;
            g.live[id % self.workers] -= 1;
        }
    }

    /// Crash-recovery respawn, called by the victim's own retiring carrier:
    /// once it has switched out, the processor re-enters its worker's ready
    /// heap at its last park key and its next pick starts it over, on the
    /// same stack.
    pub(crate) fn enroll(&self, id: usize) {
        let mut g = self.lock();
        debug_assert_eq!(g.state[id], State::Running, "enroll from another task");
        g.respawn[id] = true;
    }

    /// How many raw frames left processor `id` parked so far.
    pub(crate) fn wakes_filtered(&self, id: usize) -> u64 {
        self.lock().filtered[id]
    }

    /// Who waits on whom, starting at `src`: each entry awaits the next.
    /// The chain ends at a processor that is not inside a receive park
    /// (running, finished, crashed, or parked on a flush or a pool slot) or
    /// at the first one listed twice (a cycle).
    pub(crate) fn wait_chain(&self, src: usize) -> Vec<usize> {
        let g = self.lock();
        let mut seen = vec![false; g.awaits.len()];
        let mut chain = Vec::new();
        let mut at = Some(src);
        while let Some(p) = at {
            chain.push(p);
            if std::mem::replace(&mut seen[p], true) {
                break;
            }
            at = g.awaits[p];
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `body(id)` for every processor of `s` on its worker threads.
    fn run(s: &Scheduler, body: impl Fn(usize) + Sync) {
        let pool = StackPool::default();
        std::thread::scope(|scope| {
            for w in 0..s.workers() {
                let (pool, body) = (&pool, &body);
                scope.spawn(move || s.run_worker(w, pool, body));
            }
        });
    }

    #[test]
    fn each_worker_starts_its_lowest_id_first() {
        // Worker 0 owns processors 0 and 2, worker 1 owns 1. Processor 2
        // only ever runs because 0 parks and hands its worker over.
        let s = Scheduler::new(3, 2);
        let started = Mutex::new(Vec::new());
        run(&s, |id| {
            started.lock().unwrap().push(id);
            match id {
                0 => {
                    // Parking with a pending token returns immediately.
                    s.unpark(0);
                    assert_eq!(
                        s.park(0, 0.0, false, None),
                        ParkOutcome::Token,
                        "a pending wake token short-circuits the park"
                    );
                    assert!(!started.lock().unwrap().contains(&2));
                    // A real park switches to processor 2, whose wake
                    // brings 0 back once 2 has finished.
                    assert_eq!(s.park(0, 1.0, false, None), ParkOutcome::Woken);
                    assert!(started.lock().unwrap().contains(&2));
                }
                2 => s.unpark(0),
                _ => {}
            }
        });
        let g = s.lock();
        assert_eq!((&g.live[..], g.active), (&[0, 0][..], 0));
    }

    /// Quiescence, one transition at a time, on every pool size: with all
    /// four processors parked, exactly those that asked are told to retry —
    /// every time the machine runs dry again — and only once nobody asks is
    /// one told it is stuck: the lowest id, which then wakes the rest.
    #[test]
    fn a_quiescent_machine_retries_then_names_the_lowest_id_stuck() {
        for workers in 1..=3 {
            for _ in 0..20 {
                let s = Scheduler::new(4, workers);
                let log = Mutex::new(Vec::new());
                run(&s, |id| {
                    let asks = if id % 2 == 1 { 2 } else { 0 };
                    for round in 0.. {
                        let out = s.park(id, 0.0, round < asks, None);
                        log.lock().unwrap().push((round, id, out));
                        match out {
                            ParkOutcome::Retry => {}
                            ParkOutcome::Stuck => (0..4).for_each(|peer| s.unpark(peer)),
                            _ => break,
                        }
                    }
                });
                let mut log = log.into_inner().unwrap();
                log.sort_by_key(|&(round, id, _)| (round, id));
                let expected = [
                    (0, 0, ParkOutcome::Stuck),
                    (0, 1, ParkOutcome::Retry),
                    (0, 2, ParkOutcome::Woken),
                    (0, 3, ParkOutcome::Retry),
                    (1, 0, ParkOutcome::Token),
                    (1, 1, ParkOutcome::Retry),
                    (1, 3, ParkOutcome::Retry),
                    (2, 1, ParkOutcome::Woken),
                    (2, 3, ParkOutcome::Woken),
                ];
                assert_eq!(log, expected, "workers={workers}");
            }
        }
    }

    #[test]
    fn retired_carrier_ignores_both_kinds_of_wake() {
        let s = Scheduler::new(2, 1);
        let incarnation = Mutex::new(0);
        run(&s, |id| match id {
            0 => {
                // (No guard may live across a park: the next carrier runs
                // on this very thread.)
                let n = {
                    let mut n = incarnation.lock().unwrap();
                    *n += 1;
                    *n
                };
                if n == 1 {
                    // A token left for the first carrier dies with it.
                    s.unpark(0);
                    s.enroll(0);
                } else {
                    assert_eq!(
                        s.park(0, 0.0, false, None),
                        ParkOutcome::Stuck,
                        "a wake aimed at a retired carrier must not survive as a token"
                    );
                }
            }
            _ => {
                // Runs while 0's second carrier is parked; outlast it: this
                // park leaves the machine quiescent, 0 is the lowest id.
                assert_eq!(*incarnation.lock().unwrap(), 2);
                assert_eq!(s.park(1, 0.0, false, None), ParkOutcome::Stuck);
                s.unpark(0); // must not panic, queue, or leave a token
                s.unpark_from(0, 1);
                let g = s.lock();
                assert_eq!(g.state[0], State::Done);
                assert!(!g.token[0] && g.ready[0].is_empty());
            }
        });
    }

    /// The targeted-wake protocol, one transition at a time: parked
    /// awaiting source 7, a raw frame from 3 is filtered (and counted), one
    /// from 7 wakes; an unfiltered wake ends a filtered park too. On one
    /// worker the processors run in id order, so 3 and 7 find 0 parked.
    #[test]
    fn parked_processor_wakes_only_for_the_awaited_source() {
        for unfiltered in [false, true] {
            let s = Scheduler::new(8, 1);
            run(&s, |id| match id {
                0 => {
                    assert_eq!(s.park(0, 0.0, false, Some(7)), ParkOutcome::Woken);
                    assert_eq!(s.wakes_filtered(0), 1);
                    assert_eq!(s.wait_chain(0), vec![0], "a returned park awaits nobody");
                }
                3 => {
                    assert_eq!(
                        s.wait_chain(0),
                        vec![0, 7],
                        "the park publishes whom it awaits"
                    );
                    s.unpark_from(0, 3);
                    assert_eq!(s.wakes_filtered(0), 1);
                    assert_eq!(s.lock().state[0], State::Parked);
                }
                7 if unfiltered => s.unpark(0),
                7 => s.unpark_from(0, 7),
                _ => {}
            });
        }
        // A park that awaits nobody in particular wakes for any source.
        let s = Scheduler::new(8, 1);
        run(&s, |id| match id {
            0 => assert_eq!(s.park(0, 0.0, false, None), ParkOutcome::Woken),
            3 => s.unpark_from(0, 3),
            _ => {}
        });
        assert_eq!(s.wakes_filtered(0), 0);
    }

    /// A wake that finds its target running leaves a token whoever sent
    /// it: the filter applies to `Parked` processors only, which is what
    /// closes the probe→park race for frames from the awaited source.
    #[test]
    fn wake_while_running_leaves_a_token_whoever_sent_it() {
        let s = Scheduler::new(8, 1);
        run(&s, |id| {
            if id == 0 {
                s.unpark_from(0, 3);
                assert_eq!(s.park(0, 0.0, false, Some(7)), ParkOutcome::Token);
            }
        });
        assert_eq!(s.wakes_filtered(0), 0);
    }

    /// A wake from another worker's carrier reaches a worker that sleeps
    /// because all of its own are parked — and while that carrier runs, the
    /// parked one is not stuck.
    #[test]
    fn wake_rouses_an_idle_worker() {
        let s = Scheduler::new(2, 2);
        run(&s, |id| match id {
            0 => assert_eq!(s.park(0, 0.0, false, None), ParkOutcome::Woken),
            _ => {
                while !s.lock().idle[0] {
                    std::thread::yield_now();
                }
                s.unpark(0);
            }
        });
    }

    #[test]
    fn wait_chain_stops_at_a_cycle() {
        let s = Scheduler::new(3, 3);
        let mut g = s.inner.lock().unwrap();
        g.awaits[0] = Some(2);
        g.awaits[2] = Some(1);
        g.awaits[1] = Some(2);
        drop(g);
        assert_eq!(s.wait_chain(0), vec![0, 2, 1, 2]);
        assert_eq!(s.wait_chain(1), vec![1, 2, 1]);
    }
}
