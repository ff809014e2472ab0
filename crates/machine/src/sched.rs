//! Deterministic cooperative scheduler: virtual processors multiplexed
//! over a bounded worker pool.
//!
//! Each virtual processor keeps its own OS thread as a *stack carrier* (an
//! arbitrary `Fn(&mut Proc) -> R` closure cannot be suspended any other way
//! in stable Rust), but execution is gated by this scheduler: at most
//! `workers` run permits exist, and a carrier may only execute its program
//! while holding one. Every blocking point in [`crate::proc::Proc`] — frame
//! receive, transport flush, clock-sync barrier, buffer-pool back-pressure
//! — releases the permit and parks here; senders wake the destination
//! through [`Scheduler::unpark_from`] (an unsequenced data frame, which
//! only wakes a receiver awaiting that sender) or [`Scheduler::unpark`]
//! (everything else, unconditionally).
//!
//! Permits are granted from a ready min-heap keyed on
//! `(simulated time, proc id)` — the lowest simulated clock runs first,
//! ties break to the lowest id — never on OS wake-up order. With one worker
//! the execution order is therefore a pure function of the program; with
//! more workers the grant *order* is still drawn from the same keyed heap,
//! and simulated results are schedule-invariant regardless (message
//! matching is by `(src, tag)` FIFO plus SPMD program order; see
//! DESIGN.md §15).
//!
//! The missed-wakeup race (sender enqueues between a receiver's empty
//! queue probe and its park) is closed by a per-processor wake token:
//! an unpark aimed at a processor that is not parked sets the token, and
//! the next park consumes the token and returns immediately without ever
//! releasing its permit. All state transitions happen under one mutex, so
//! the token handshake needs no memory-ordering subtlety.
//!
//! Wake-ups are *targeted*: a receive park records the source it awaits,
//! and a raw frame from any other source leaves the processor parked — the
//! frame waits in the ring, which every receive drains before it parks
//! again. Only a `Parked` processor is ever filtered; one that is running
//! (or between its last ring probe and its park) gets the token whoever
//! sent the frame, so the probe→park race stays closed (DESIGN.md §15).
//!
//! Parks carry wall-clock deadlines: the existing no-hang guarantees
//! (receive timeouts, reliable-transport retransmissions, pool-checkout
//! stall detection) survive verbatim, re-expressed as scheduler deadlines
//! instead of `Condvar` waits and `yield_now` spins. A timed-out processor
//! re-enters the ready queue and *reacquires a permit before returning*,
//! so the permit invariant (`running ≤ workers`) holds at every instant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why [`Scheduler::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOutcome {
    /// A wake token was already pending: the processor never slept and
    /// never released its permit. The caller should re-probe.
    Token,
    /// The processor slept and an unpark woke it. The caller should
    /// re-probe whatever it was waiting for.
    Woken,
    /// The wall-clock timeout expired first. The processor has already
    /// reacquired a run permit; the caller owns its own deadline logic.
    TimedOut,
}

/// Task lifecycle. `Ready` tasks (and only they) have an entry in the
/// ready heap; `Granted` is the handshake between the grant (made under
/// the lock, possibly by another thread) and the carrier observing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Wants to run; queued in the ready heap awaiting a permit.
    Ready,
    /// Holds a permit; its carrier has not yet resumed.
    Granted,
    /// Holds a permit and is executing on its carrier.
    Running,
    /// Blocked at a park point; holds no permit and no heap entry.
    Parked,
    /// Finished (or crashed); holds nothing. [`Scheduler::enroll`]
    /// re-animates a `Done` task for a crash-recovery respawn.
    Done,
}

struct Inner {
    state: Box<[State]>,
    /// Pending wake per processor: an unpark that arrived while the target
    /// was not parked. Consumed (without sleeping) by the next park.
    token: Box<[bool]>,
    /// Ready processors, keyed by `(simulated-time bits, proc id)`.
    /// Simulated times are finite and non-negative, so the IEEE-754 bit
    /// pattern orders exactly like the float and the heap never sees NaN.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Each processor's last park key (its simulated clock at the park),
    /// re-used when an unpark or a respawn re-enqueues it.
    key: Box<[u64]>,
    /// Permits currently held (`Granted` + `Running` states).
    running: usize,
    /// The source each processor's current receive park awaits; `None`
    /// outside one. Set on park entry and cleared only when the park
    /// returns, so a timed-out processor queued for a permit still shows
    /// whom it waits for ([`Scheduler::wait_chain`]).
    awaits: Box<[Option<usize>]>,
    /// Raw frames that reached each processor while it stayed parked
    /// awaiting another source (the `sched.wakes_filtered` metric).
    filtered: Box<[u64]>,
}

impl Inner {
    /// Grant permits to the lowest-keyed ready processors while any are
    /// free. Runs under the lock; every state transition that could free a
    /// permit or add a ready task calls this before unlocking.
    fn grant(&mut self, workers: usize, cvs: &[Condvar]) {
        while self.running < workers {
            let Some(Reverse((_, id))) = self.ready.pop() else {
                return;
            };
            debug_assert_eq!(self.state[id], State::Ready, "heap holds only Ready tasks");
            self.state[id] = State::Granted;
            self.running += 1;
            cvs[id].notify_one();
        }
    }
}

/// The worker-pool scheduler shared by one machine run. See the module
/// docs for the protocol.
pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    /// One condvar per processor: carriers only ever wait on their own.
    cvs: Box<[Condvar]>,
    workers: usize,
}

impl Scheduler {
    /// Build a scheduler for `nprocs` virtual processors over `workers`
    /// permits (clamped to at least one). All processors are pre-enrolled
    /// ready at key `(0, id)` and the first `workers` grants are issued
    /// immediately, so the initial execution order is deterministic no
    /// matter in which order the carrier threads happen to start.
    pub(crate) fn new(nprocs: usize, workers: usize) -> Scheduler {
        let workers = workers.max(1);
        let mut ready = BinaryHeap::with_capacity(nprocs + 1);
        for id in 0..nprocs {
            ready.push(Reverse((0u64, id)));
        }
        let mut inner = Inner {
            state: vec![State::Ready; nprocs].into_boxed_slice(),
            token: vec![false; nprocs].into_boxed_slice(),
            ready,
            key: vec![0u64; nprocs].into_boxed_slice(),
            running: 0,
            awaits: vec![None; nprocs].into_boxed_slice(),
            filtered: vec![0; nprocs].into_boxed_slice(),
        };
        let cvs: Box<[Condvar]> = (0..nprocs).map(|_| Condvar::new()).collect();
        inner.grant(workers, &cvs);
        Scheduler {
            inner: Mutex::new(inner),
            cvs,
            workers,
        }
    }

    /// Carrier entry: block until processor `id` is granted a permit, then
    /// mark it running. Called once per carrier thread before the program
    /// closure (and again after [`Scheduler::enroll`] on a respawn).
    pub(crate) fn acquire(&self, id: usize) {
        let mut g = self.inner.lock().unwrap();
        while g.state[id] != State::Granted {
            g = self.cvs[id].wait(g).unwrap();
        }
        g.state[id] = State::Running;
    }

    /// Release the permit and block until woken or `timeout` elapses.
    /// `key_ns` is the processor's current simulated time — the ready-queue
    /// sort key if it must requeue. `awaits` names the one source whose raw
    /// frames should end the park (a receive); `None` lets any frame end it.
    /// A pending wake token short-circuits the park entirely (permit kept,
    /// no transition). On timeout the processor requeues itself ready and
    /// *waits for a fresh grant* before returning, so the caller always
    /// holds a permit again.
    pub(crate) fn park(
        &self,
        id: usize,
        key_ns: f64,
        timeout: Duration,
        awaits: Option<usize>,
    ) -> ParkOutcome {
        let mut g = self.inner.lock().unwrap();
        debug_assert_eq!(g.state[id], State::Running, "park from a non-running task");
        if std::mem::replace(&mut g.token[id], false) {
            return ParkOutcome::Token;
        }
        g.state[id] = State::Parked;
        g.awaits[id] = awaits;
        g.key[id] = key_ns.max(0.0).to_bits();
        g.running -= 1;
        g.grant(self.workers, &self.cvs);
        let deadline = Instant::now() + timeout;
        let mut timed_out = false;
        loop {
            if g.state[id] == State::Granted {
                g.state[id] = State::Running;
                g.awaits[id] = None;
                return if timed_out {
                    ParkOutcome::TimedOut
                } else {
                    ParkOutcome::Woken
                };
            }
            if timed_out {
                g = self.cvs[id].wait(g).unwrap();
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                timed_out = true;
                if g.state[id] == State::Parked {
                    // Nobody woke us: requeue ready at our park key. The
                    // grant may well pick us right back (loop top).
                    g.state[id] = State::Ready;
                    let entry = Reverse((g.key[id], id));
                    g.ready.push(entry);
                    g.grant(self.workers, &self.cvs);
                }
                continue;
            }
            g = self.cvs[id].wait_timeout(g, deadline - now).unwrap().0;
        }
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
        let mut g = self.inner.lock().unwrap();
        match g.state[id] {
            State::Parked => {
                if matches!((from, g.awaits[id]), (Some(s), Some(a)) if s != a) {
                    g.filtered[id] += 1;
                    return;
                }
                g.state[id] = State::Ready;
                let entry = Reverse((g.key[id], id));
                g.ready.push(entry);
                g.grant(self.workers, &self.cvs);
            }
            State::Done => {}
            _ => g.token[id] = true,
        }
    }

    /// Carrier exit: release the permit for good (program finished,
    /// errored, or crashed). Every carrier calls this exactly once per
    /// (re)spawn, on success and failure paths alike — a leaked permit
    /// would starve the pool.
    pub(crate) fn finish(&self, id: usize) {
        let mut g = self.inner.lock().unwrap();
        debug_assert!(
            matches!(g.state[id], State::Running | State::Granted),
            "finish from a task not holding a permit"
        );
        g.state[id] = State::Done;
        g.token[id] = false;
        g.running -= 1;
        g.grant(self.workers, &self.cvs);
    }

    /// Re-enroll a `Done` processor for a crash-recovery respawn: it
    /// re-enters the ready queue at its last park key and its new carrier
    /// then blocks in [`Scheduler::acquire`] like any other task.
    pub(crate) fn enroll(&self, id: usize) {
        let mut g = self.inner.lock().unwrap();
        debug_assert_eq!(g.state[id], State::Done, "enroll of a live task");
        g.state[id] = State::Ready;
        let entry = Reverse((g.key[id], id));
        g.ready.push(entry);
        g.grant(self.workers, &self.cvs);
    }

    /// How many raw frames left processor `id` parked so far.
    pub(crate) fn wakes_filtered(&self, id: usize) -> u64 {
        self.inner.lock().unwrap().filtered[id]
    }

    /// Who waits on whom, starting at `src`: each entry awaits the next.
    /// The chain ends at a processor that is not inside a receive park
    /// (running, finished, crashed, or parked on a flush or a pool slot) or
    /// at the first one listed twice (a cycle).
    pub(crate) fn wait_chain(&self, src: usize) -> Vec<usize> {
        let g = self.inner.lock().unwrap();
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
    use std::sync::Arc;

    #[test]
    fn initial_grants_go_to_lowest_ids() {
        let s = Scheduler::new(3, 2);
        // Procs 0 and 1 hold the two permits (not 2, despite all three
        // being enrolled ready); acquiring them returns immediately, and a
        // park by one hands the permit to the waiting proc 2.
        s.acquire(0);
        s.acquire(1);
        assert_eq!(s.workers, 2);
        let s = Arc::new(s);
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.acquire(2));
        // Parking 0 with a pending token returns immediately instead.
        s.unpark(0);
        assert_eq!(
            s.park(0, 0.0, Duration::from_secs(5), None),
            ParkOutcome::Token,
            "a pending wake token short-circuits the park"
        );
        // A real park releases the permit to proc 2.
        let s3 = Arc::clone(&s);
        let parker = std::thread::spawn(move || s3.park(0, 1.0, Duration::from_secs(5), None));
        waiter.join().unwrap();
        // Retiring proc 1 frees a permit; waking 0 claims it.
        s.finish(1);
        s.unpark(0);
        assert_eq!(parker.join().unwrap(), ParkOutcome::Woken);
    }

    #[test]
    fn timeout_reacquires_a_permit() {
        let s = Scheduler::new(2, 1);
        s.acquire(0);
        let t0 = Instant::now();
        // Proc 1 holds no permit yet; proc 0's timed-out park must hand
        // the permit over and then win it back (key 0.0 < proc 1's never
        // being parked means proc 0 requeues behind the grant to 1 — but 1
        // never parks, so 0 only returns once 1 finishes).
        let s = Arc::new(s);
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.acquire(1);
            std::thread::sleep(Duration::from_millis(30));
            s2.finish(1);
        });
        let out = s.park(0, 0.0, Duration::from_millis(5), None);
        assert_eq!(out, ParkOutcome::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        h.join().unwrap();
        s.finish(0);
    }

    #[test]
    fn done_task_ignores_both_kinds_of_wake() {
        let s = Scheduler::new(1, 1);
        s.acquire(0);
        s.finish(0);
        s.unpark(0); // must not panic, grant, or leave a token
        s.unpark_from(0, 0);
        s.enroll(0);
        s.acquire(0);
        assert_eq!(
            s.park(0, 0.0, Duration::from_millis(1), None),
            ParkOutcome::TimedOut,
            "a wake aimed at a finished task must not survive as a token"
        );
        s.finish(0);
    }

    /// Spin until processor `id` is parked (the tests below need the park
    /// to have happened before they aim a wake at it).
    fn wait_parked(s: &Scheduler, id: usize) {
        while s.inner.lock().unwrap().state[id] != State::Parked {
            std::thread::yield_now();
        }
    }

    /// The targeted-wake protocol, one transition at a time: parked
    /// awaiting source 7, a raw frame from 3 is filtered (and counted), one
    /// from 7 wakes; an unfiltered wake ends a filtered park too.
    #[test]
    fn parked_processor_wakes_only_for_the_awaited_source() {
        // One permit per processor, so waking 0 never queues behind the
        // carrier-less bystanders 1..8.
        let s = Arc::new(Scheduler::new(8, 8));
        s.acquire(0);
        for unfiltered in [false, true] {
            let s2 = Arc::clone(&s);
            let parker =
                std::thread::spawn(move || s2.park(0, 0.0, Duration::from_secs(5), Some(7)));
            wait_parked(&s, 0);
            assert_eq!(
                s.wait_chain(0),
                vec![0, 7],
                "the park publishes whom it awaits"
            );
            let before = s.wakes_filtered(0);
            s.unpark_from(0, 3);
            assert_eq!(s.wakes_filtered(0), before + 1);
            assert_eq!(s.inner.lock().unwrap().state[0], State::Parked);
            if unfiltered {
                s.unpark(0);
            } else {
                s.unpark_from(0, 7);
            }
            assert_eq!(parker.join().unwrap(), ParkOutcome::Woken);
            assert_eq!(s.wakes_filtered(0), before + 1);
            assert_eq!(s.wait_chain(0), vec![0], "a returned park awaits nobody");
        }
        // A park that awaits nobody in particular wakes for any source.
        let s2 = Arc::clone(&s);
        let parker = std::thread::spawn(move || s2.park(0, 0.0, Duration::from_secs(5), None));
        wait_parked(&s, 0);
        s.unpark_from(0, 3);
        assert_eq!(parker.join().unwrap(), ParkOutcome::Woken);
        s.finish(0);
    }

    /// A wake that finds its target running leaves a token whoever sent
    /// it: the filter applies to `Parked` processors only, which is what
    /// closes the probe→park race for frames from the awaited source.
    #[test]
    fn wake_while_running_leaves_a_token_whoever_sent_it() {
        let s = Scheduler::new(8, 8);
        s.acquire(0);
        s.unpark_from(0, 3);
        assert_eq!(
            s.park(0, 0.0, Duration::from_secs(5), Some(7)),
            ParkOutcome::Token
        );
        assert_eq!(s.wakes_filtered(0), 0);
        s.finish(0);
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
