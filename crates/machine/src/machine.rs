//! The SPMD driver: runs the same program closure on every virtual
//! processor, wiring up the message channels and collecting results and
//! clock reports in processor order.
//!
//! Each virtual processor is a cooperatively scheduled task on its own
//! stack, and [`Machine::with_workers`] OS threads — the caller's and
//! `workers − 1` more — run them all (see [`crate::sched`] and DESIGN.md
//! §15). Results, simulated clocks, events,
//! and metrics are identical for every worker-pool size — determinism comes
//! from (src, tag)-FIFO matching plus SPMD program order, never from
//! scheduling — so a small pool carries P=4096 machines a thread-per-proc
//! design could not.
//!
//! Failure handling: each processor runs the program closure under
//! `catch_unwind`, at the bottom of its own stack. When any processor
//! fails — a program panic, a fault-injected crash, a deadlock, a stalled
//! pool slot or an unreachable peer — it broadcasts a poison frame so that
//! peers blocked in receives abort at once, each naming that failure as
//! its cause, and [`Machine::try_run`] returns the originating failure as a
//! structured [`MachineError`]. [`Machine::run`] keeps the panicking
//! interface (propagating program panics verbatim) for callers that treat
//! any failure as fatal.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::carrier::{self, StackPool};
use crate::chan::{default_capacity, frame_channel_with_capacity, FrameReceiver, FrameSender};
use crate::cost::{CostModel, SimClock};
use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::message::Frame;
use crate::obs::Recorder;
use crate::proc::{Proc, ProcParts};
use crate::recovery::{RecoveryState, ResumeCtx};
use crate::report::RunOutput;
use crate::sched::Scheduler;
use crate::topology::ProcGrid;

/// Respawns of one processor before the recovery driver gives up. The crash
/// schedule is disarmed on a respawned processor, so a second respawn of the
/// same processor indicates a recovery bug rather than a second fault; the
/// limit is a backstop against looping, not a tunable.
const MAX_RESPAWNS: u32 = 4;

/// A simulated coarse-grained distributed memory parallel machine: a logical
/// processor grid plus the two-level cost model its clocks charge against.
#[derive(Debug, Clone)]
pub struct Machine {
    grid: ProcGrid,
    cost: CostModel,
    tracing: bool,
    metrics: bool,
    wall_profiling: bool,
    faults: Arc<FaultPlan>,
    /// Worker-pool size (OS threads); `None` = available parallelism.
    workers: Option<usize>,
    /// Per-processor frame-ring capacity override; `None` = scale-aware
    /// [`default_capacity`].
    chan_capacity: Option<usize>,
    /// Stack reservations between runs, one per worker of each run in
    /// flight at once; shared with clones, unmapped when the last drops.
    stacks: Arc<StackPool>,
}

/// What a failed processor leaves besides its error: the original panic
/// payload is kept so [`Machine::run`] can re-raise program panics verbatim.
type Failure = (MachineError, Option<Box<dyn Any + Send>>);

/// Everything a processor that ran to completion hands back.
type ProcOk<R> = (R, ProcParts);

/// One processor's hand-over point between its carrier(s) and the driver.
struct Slot<R> {
    /// What its next carrier starts from: the channel endpoint and, after
    /// a survived crash, the resume context (boxed: only a respawn has one).
    /// The endpoint outlives a crash — frames peers sent meanwhile are still
    /// queued in it.
    start: Option<(FrameReceiver, Option<Box<ResumeCtx>>)>,
    respawns: u32,
    /// Its final outcome. The endpoint is kept beside it until every
    /// processor has finished, so a laggard's late sends (e.g.
    /// retransmissions) never hit a closed channel.
    done: Option<(Result<ProcOk<R>, Failure>, FrameReceiver)>,
}

impl Machine {
    /// Build a machine over `grid` with cost constants `cost`.
    pub fn new(grid: ProcGrid, cost: CostModel) -> Self {
        Machine {
            grid,
            cost,
            tracing: false,
            metrics: false,
            wall_profiling: false,
            faults: Arc::new(FaultPlan::new(0)),
            workers: None,
            chan_capacity: None,
            stacks: Arc::default(),
        }
    }

    /// Set the worker-pool size: how many OS threads run the virtual
    /// processors, and so how many run simultaneously (clamped to
    /// `1..=P`). Defaults to the host's available parallelism. A pure wall-clock/throughput knob — results,
    /// simulated clocks, events, and metrics are identical for every value.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        // Reservations are cut per worker: the old pool's would fit no run.
        self.stacks = Arc::default();
        self
    }

    /// The effective worker-pool size this machine will run with.
    fn workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Override the per-processor frame-ring pre-reserve (in frames).
    /// Defaults to the scale-aware [`default_capacity`]; growth past the
    /// ring allocates but never changes results.
    pub fn with_chan_capacity(mut self, frames: usize) -> Self {
        self.chan_capacity = Some(frames.max(1));
        self
    }

    /// The effective per-processor frame-ring capacity.
    fn chan_capacity(&self) -> usize {
        self.chan_capacity
            .unwrap_or_else(|| default_capacity(self.nprocs()))
    }

    /// Build the machine's channel set and scheduler: one frame channel per
    /// processor, each waking its owner through the scheduler.
    fn build_fabric(&self) -> (Vec<FrameSender>, Vec<FrameReceiver>, Arc<Scheduler>) {
        let p = self.nprocs();
        let cap = self.chan_capacity();
        let sched = Arc::new(Scheduler::new(p, self.workers()));
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for id in 0..p {
            let (tx, rx) = frame_channel_with_capacity(cap, Some((Arc::clone(&sched), id)));
            txs.push(tx);
            rxs.push(rx);
        }
        (txs, rxs, sched)
    }

    /// Enable per-processor tracing: the clock's category spans *and* the
    /// structured event log (DESIGN.md §8), which together export as Chrome `trace_event` JSON via
    /// [`RunOutput::chrome_trace_json`].
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Keep per-processor metrics (counters and gauges — DESIGN.md §8),
    /// collected into [`RunOutput::metrics`].
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Enable per-processor wall-clock profiling (DESIGN.md §14), collected
    /// into
    /// [`RunOutput::wall_profiles`]. Wall-side only: simulated clocks,
    /// events, and metrics are byte-identical with or without it. Off by
    /// default so the steady-state execute loop stays allocation-free.
    pub fn with_wall_profiling(mut self, wall: bool) -> Self {
        self.wall_profiling = wall;
        self
    }

    /// Attach a fault-injection plan in place of the empty one. Unless it is
    /// benign, all charged point-to-point traffic then travels sequenced
    /// over the reliable transport, which recovers from every non-crash
    /// fault in the plan (see [`FaultPlan`]); a scheduled crash surfaces
    /// as [`MachineError::ProcCrashed`] from [`Machine::try_run`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Arc::new(plan);
        self
    }

    /// The logical processor grid.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Total processor count.
    pub fn nprocs(&self) -> usize {
        self.grid.nprocs()
    }

    /// Run `program` on every virtual processor simultaneously and collect
    /// each processor's return value and clock report, indexed by processor
    /// id.
    ///
    /// The closure receives a [`Proc`] handle carrying the processor's
    /// identity, clock, and message endpoints. The worker pool gives real
    /// parallelism; determinism of results is up to the program (all
    /// algorithms in this workspace are deterministic given their inputs).
    /// A processor that blocks its OS thread (`thread::sleep`, a lock)
    /// holds its worker and every other processor that worker carries —
    /// and, being `Running`, is never taken for a hang.
    ///
    /// # Panics
    /// Propagates the originating processor's panic verbatim if the program
    /// closure panicked; panics with the [`MachineError`] message for
    /// machine-level failures (deadlock, fault-injected crash, unreachable
    /// peer, unconsumed messages). Use [`Machine::try_run`] for
    /// a structured error instead.
    pub fn run<R, F>(&self, program: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        match self.drive(program, None) {
            Ok(out) => out,
            Err(failures) => {
                let (err, payload) = primary(failures);
                if let Some(p) = payload {
                    resume_unwind(p);
                }
                panic!("{err}");
            }
        }
    }

    /// Like [`Machine::run`], but every failure — including program panics —
    /// comes back as a structured [`MachineError`] naming the processor at
    /// fault. When several processors fail, the originating failure is
    /// returned (poison-aborted bystanders are never selected over a root
    /// cause).
    pub fn try_run<R, F>(&self, program: F) -> Result<RunOutput<R>, MachineError>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        self.drive(program, None).map_err(|f| primary(f).0)
    }

    /// Like [`Machine::try_run`], but fault-injected processor crashes are
    /// *survived*: the run is divided into epochs by the program's
    /// [`Proc::epoch`] calls, every epoch boundary checkpoints each
    /// processor's recoverable state, and peers keep an `Arc`-backed replay
    /// log of the frames they sent since the receiver's last boundary
    /// (DESIGN.md §12). When a processor crashes, it is restarted on a
    /// new stack from the last checkpoint, replays the logged frames, and
    /// resumes — the recovered run's results *and* simulated clocks are
    /// bit-identical to a fault-free run of the same program.
    ///
    /// Requirements on `program`: all communication must happen inside
    /// [`Proc::epoch`] bodies (or the program must call `epoch` not at all,
    /// in which case recovery restarts the crashed processor from scratch
    /// and replays everything), and epoch structure must be identical across
    /// processors — each `epoch` ends in a machine-wide barrier.
    ///
    /// Failures other than a scheduled crash (deadlocks, panics, unreachable
    /// peers) are not recoverable and come back as `Err`, as in
    /// [`Machine::try_run`]. [`RunOutput::recovery`] carries the recovery
    /// accounting ([`crate::RecoveryStats`]); the modelled recovery cost is
    /// reported there alone, never added to the simulated clocks.
    pub fn run_recoverable<R, F>(&self, program: F) -> Result<RunOutput<R>, MachineError>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        let rec = Arc::new(RecoveryState::new(self.nprocs()));
        self.drive(program, Some(rec)).map_err(|f| primary(f).0)
    }

    /// Resident host bytes of the machine's carrier stacks, as `(deepest
    /// carrier, sum over carriers)`: what the pages its runs touched hold of
    /// the host's memory, outside every simulated `mem.*` account. A stack
    /// keeps its deepest page until the machine's last clone drops, so this
    /// is the high water of every run so far; a machine that has not run
    /// reports `(0, 0)`. Counted by `mincore` over the stacks between runs,
    /// touching none of them; never called on the run path.
    pub fn stack_resident_bytes(&self) -> (usize, usize) {
        carrier::resident_bytes(&self.stacks)
    }

    /// Shared driver. With `rec`, scheduled crashes are survived (see
    /// [`Machine::run_recoverable`]). On failure returns every failing
    /// processor's error (with original panic payloads where they exist),
    /// in processor order.
    fn drive<R, F>(
        &self,
        program: F,
        rec: Option<Arc<RecoveryState>>,
    ) -> Result<RunOutput<R>, Vec<(usize, Failure)>>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        install_quiet_machine_error_hook();
        let (txs, rxs, sched) = self.build_fabric();
        let driver = Driver {
            machine: self,
            slots: rxs
                .into_iter()
                .map(|rx| Slot {
                    start: Some((rx, None)),
                    respawns: 0,
                    done: None,
                })
                .map(Mutex::new)
                .collect(),
            txs,
            sched,
            rec,
            poisoned: AtomicBool::new(false),
        };

        // One carrier's life, on its own stack. Its frame holds the
        // processor and the program's unwind guard and nothing else: the
        // driver's setup and teardown run in frames of their own, gone
        // before the program starts and after it returns (DESIGN.md §15).
        let body = |id: usize| {
            let mut proc = Some(driver.start(id));
            let result = catch_unwind(AssertUnwindSafe(|| {
                program(proc.as_mut().expect("started above"))
            }));
            driver.finish(id, &mut proc, result);
        };
        // The caller is worker 0: a one-worker run creates no thread at all
        // (and allocates from one malloc arena, run after run).
        let sched = &driver.sched;
        std::thread::scope(|scope| {
            for w in 1..sched.workers() {
                let body = &body;
                scope.spawn(move || sched.run_worker(w, &self.stacks, body));
            }
            sched.run_worker(0, &self.stacks, &body);
        });

        let mut run = RunOutput::new(Vec::new(), Vec::new());
        let mut failures = Vec::new();
        for (id, slot) in driver.slots.into_iter().enumerate() {
            let slot = slot.into_inner().expect("a slot is only ever assigned");
            match slot.done.expect("every processor finished").0 {
                Ok((r, (c, comm_row, snap, recorder))) => {
                    let (trace, evs, wp) = recorder.decode(c.now_ns);
                    run.results.push(r);
                    run.clocks.push(c);
                    run.traces.push(trace);
                    run.comm_matrix.push(comm_row);
                    run.events.push(evs);
                    run.metrics.push(snap);
                    if self.wall_profiling {
                        run.wall_profiles.push(wp);
                    }
                }
                Err(failure) => failures.push((id, failure)),
            }
        }
        if !failures.is_empty() {
            return Err(failures);
        }
        run.recovery = driver.rec.map(|rec| rec.stats());
        Ok(run)
    }
}

/// What one run's carriers share: the channels, the scheduler, the
/// recovery state and each processor's [`Slot`].
struct Driver<'m, R> {
    machine: &'m Machine,
    slots: Vec<Mutex<Slot<R>>>,
    txs: Vec<FrameSender>,
    sched: Arc<Scheduler>,
    rec: Option<Arc<RecoveryState>>,
    /// Set by the first fatal failure, which aborts the survivors.
    poisoned: AtomicBool,
}

impl<'m, R> Driver<'m, R> {
    fn slot(&self, id: usize) -> MutexGuard<'_, Slot<R>> {
        self.slots[id].lock().expect("a slot is only ever assigned")
    }

    /// A carrier's setup: processor `id` from its slot — a fresh one, or a
    /// respawn with its resume context — recovery attached. Never inlined,
    /// so none of it stays in the carrier's bottom frame.
    #[inline(never)]
    fn start(&self, id: usize) -> Proc<'_> {
        let (rx, mut resume) = self
            .slot(id)
            .start
            .take()
            .expect("a carrier starts from its slot");
        let m = self.machine;
        let recorder = match resume.as_mut() {
            Some(r) => std::mem::take(&mut r.recorder),
            None => Recorder::new(m.tracing, m.wall_profiling),
        };
        let mut proc = Proc::new(
            id,
            &m.grid,
            SimClock::new(m.cost),
            &self.txs,
            rx,
            Arc::clone(&m.faults),
            m.metrics,
            recorder,
            Arc::clone(&self.sched),
        );
        if let Some(rec) = &self.rec {
            proc.attach_recovery(Arc::clone(rec), resume);
        }
        proc
    }

    /// A carrier's teardown once its program returned or unwound: retire
    /// the transport and leave the outcome — or, after a survived crash, a
    /// successor — in the slot. Takes the processor out of `proc`, the
    /// carrier's one copy of it. Never inlined, as [`Driver::start`].
    #[inline(never)]
    fn finish<'a>(
        &'a self,
        id: usize,
        proc: &mut Option<Proc<'a>>,
        result: std::thread::Result<R>,
    ) {
        let mut proc = proc.take().expect("finished once");
        let outcome: Result<R, Failure> = match result {
            Ok(r) => {
                // Under recovery no processor retires before every one
                // has finished its program: a respawned victim re-sends
                // frames that only a live peer can acknowledge.
                let barrier = self.rec.as_ref().map_or(Ok(()), |_| proc.retire_barrier());
                match barrier.and_then(|()| proc.retire()) {
                    Ok(()) => match proc.leftover_messages() {
                        0 => Ok(r),
                        count => Err((MachineError::LeftoverMessages { proc: id, count }, None)),
                    },
                    Err(e) => Err((e, None)),
                }
            }
            Err(payload) => match payload.downcast::<MachineError>() {
                Ok(e) => Err((*e, None)),
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    Err((MachineError::ProcPanicked { proc: id, msg }, Some(payload)))
                }
            },
        };
        let (rx, parts) = proc.into_parts();
        if let (Some(rec), Err((MachineError::ProcCrashed { .. }, _))) = (&self.rec, &outcome) {
            let mut slot = self.slot(id);
            if !self.poisoned.load(Ordering::SeqCst) && slot.respawns < MAX_RESPAWNS {
                slot.respawns += 1;
                let snapshot = rec.take_snapshot(id);
                let cursor = snapshot.as_ref().map(|s| s.records);
                let resume = ResumeCtx {
                    snapshot,
                    replay: rec.clone_log(id),
                    recorder: parts.3.respawn(cursor),
                };
                slot.start = Some((rx, Some(Box::new(resume))));
                return self.sched.enroll(id);
            }
        }
        if let Err((e, _)) = &outcome {
            // Poison broadcast: peers blocked in receives abort with
            // this error as their cause.
            if !self.poisoned.swap(true, Ordering::SeqCst) {
                for (_, tx) in self.txs.iter().enumerate().filter(|(pid, _)| *pid != id) {
                    tx.send_all([Frame::Poison(e.clone())]);
                }
            }
        }
        self.slot(id).done = Some((outcome.map(|r| (r, parts)), rx));
    }
}

/// Machine-level failures travel as `panic_any(MachineError)` so they can
/// cross `catch_unwind`, but they are expected control flow (the driver
/// converts them into `Err`s), so the default "thread panicked" noise is
/// suppressed for them. Program panics keep the standard hook output.
fn install_quiet_machine_error_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<MachineError>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Render a panic payload for [`MachineError::ProcPanicked`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The failure to report: the most root-cause-like one. Poisoned
/// bystanders rank last; active failures (panic/crash) rank before passive
/// ones (unreachable peer, deadlock or pool stall, leftovers); ties break to the lowest
/// processor id (the vector is already in processor order).
fn primary(failures: Vec<(usize, Failure)>) -> Failure {
    fn severity(e: &MachineError) -> u8 {
        match e {
            MachineError::ProcPanicked { .. } | MachineError::ProcCrashed { .. } => 0,
            MachineError::Unreachable { .. } => 1,
            MachineError::Deadlock { .. } | MachineError::PoolStall { .. } => 2,
            MachineError::LeftoverMessages { .. } => 3,
            MachineError::Poisoned { .. } => 4,
        }
    }
    // `min_by_key` keeps the first of equal minima.
    let ranked = failures.into_iter().min_by_key(|(_, (e, _))| severity(e));
    ranked.expect("a failed run has a failure").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Category;
    use crate::proc::tags;

    #[test]
    fn run_returns_results_in_proc_order() {
        let m = Machine::new(ProcGrid::line(8), CostModel::zero());
        let out = m.run(|p| p.id() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn ring_pass_moves_data_and_charges_time() {
        let m = Machine::new(
            ProcGrid::line(4),
            CostModel {
                delta_ns: 0.0,
                tau_ns: 10.0,
                mu_ns: 1.0,
                ..CostModel::zero()
            },
        );
        let out = m.run(|p| {
            let next = (p.id() + 1) % 4;
            let prev = (p.id() + 3) % 4;
            p.send(next, tags::USER, vec![p.id() as i32]);
            let got: Vec<i32> = p.recv(prev, tags::USER);
            got[0]
        });
        assert_eq!(out.results, vec![3, 0, 1, 2]);
        // Each proc sent one 1-word message: τ + μ = 11 ns of send time, and
        // the received message arrived at its sender's 11 ns mark.
        for c in &out.clocks {
            assert!(c.now_ns >= 11.0);
            assert_eq!(c.words_sent, 1);
            assert_eq!(c.startups, 1);
        }
    }

    #[test]
    fn self_send_is_free() {
        let m = Machine::new(ProcGrid::line(2), CostModel::cm5());
        let out = m.run(|p| {
            p.send(p.id(), tags::USER, vec![7i32, 8, 9]);
            let v: Vec<i32> = p.recv(p.id(), tags::USER);
            v.len()
        });
        assert_eq!(out.results, vec![3, 3]);
        for c in &out.clocks {
            assert_eq!(c.now_ns, 0.0);
            assert_eq!(c.words_sent, 0);
        }
    }

    #[test]
    fn receiver_waits_until_arrival() {
        let m = Machine::new(
            ProcGrid::line(2),
            CostModel {
                delta_ns: 1.0,
                tau_ns: 100.0,
                mu_ns: 0.0,
                ..CostModel::zero()
            },
        );
        let out = m.run(|p| {
            if p.id() == 0 {
                p.charge_ops(50); // sender is busy 50 ns first
                p.send(1, tags::USER, vec![1i32]);
                p.clock_ref().now_ns()
            } else {
                let _: Vec<i32> = p.recv(0, tags::USER);
                p.clock_ref().now_ns()
            }
        });
        assert_eq!(out.results[0], 150.0); // 50 + τ
        assert_eq!(out.results[1], 150.0); // waited until arrival
    }

    #[test]
    fn clock_sync_max_aligns_without_charging() {
        let m = Machine::new(ProcGrid::line(5), CostModel::zero());
        let out = m.run(|p| {
            let t = p.id() as f64 * 10.0;
            p.clock().fast_forward(t);
            let world = p.world();
            p.clock_sync_max(&world);
            p.clock_ref().now_ns()
        });
        for t in out.results {
            assert_eq!(t, 40.0);
        }
        for c in &out.clocks {
            for cat in Category::ALL {
                assert_eq!(c.cat_ns(cat), 0.0, "sync must not charge {cat}");
            }
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let m = Machine::new(ProcGrid::line(2), CostModel::zero());
        let out = m.run(|p| {
            if p.id() == 0 {
                p.send(1, tags::USER + 1, vec![1i32]);
                p.send(1, tags::USER, vec![2i32]);
                0
            } else {
                // Receive in the opposite order of sending.
                let a: Vec<i32> = p.recv(0, tags::USER);
                let b: Vec<i32> = p.recv(0, tags::USER + 1);
                (a[0] * 10 + b[0]) as usize
            }
        });
        assert_eq!(out.results[1], 21);
    }

    #[test]
    #[should_panic(expected = "unconsumed")]
    fn leftover_messages_are_detected() {
        let m = Machine::new(ProcGrid::line(2), CostModel::zero());
        m.run(|p| {
            if p.id() == 0 {
                p.send(1, tags::USER, vec![1i32]);
                p.send(1, tags::USER + 1, vec![2i32]);
            } else {
                // Only consume one of the two; the probe for USER+2 would
                // hang, so consume USER and leave USER+1 in the channel...
                let _: Vec<i32> = p.recv(0, tags::USER + 1);
                // ...which lands in the mailbox while searching.
            }
        });
    }

    #[test]
    fn two_d_grid_axis_groups_communicate_independently() {
        let m = Machine::new(ProcGrid::new(&[2, 2]), CostModel::zero());
        let out = m.run(|p| {
            // Exchange coordinate products along each axis.
            let g0 = p.axis_group(0);
            let partner0 = g0.id_of(1 - g0.my_rank());
            p.send(partner0, tags::USER, vec![p.id() as i32]);
            let from0: Vec<i32> = p.recv(partner0, tags::USER);
            let g1 = p.axis_group(1);
            let partner1 = g1.id_of(1 - g1.my_rank());
            p.send(partner1, tags::USER + 1, vec![p.id() as i32]);
            let from1: Vec<i32> = p.recv(partner1, tags::USER + 1);
            (from0[0], from1[0])
        });
        // Grid [P0=2, P1=2]: id = p0 + 2*p1.
        assert_eq!(out.results[0], (1, 2));
        assert_eq!(out.results[3], (2, 1));
    }

    // ---- failure-path and fault-injection coverage ----------------------

    use crate::fault::FaultPlan;

    fn ring_program(p: &mut Proc) -> i32 {
        let n = p.nprocs();
        let next = (p.id() + 1) % n;
        let prev = (p.id() + n - 1) % n;
        p.send(next, tags::USER, vec![p.id() as i32]);
        let got: Vec<i32> = p.recv(prev, tags::USER);
        got[0]
    }

    /// The pool holds one reservation per worker between runs, cut for the
    /// carriers that worker owns; clones draw on it, a machine with another
    /// worker count starts its own.
    #[test]
    fn stack_reservations_follow_the_machine_and_its_clones() {
        fn pooled(m: &Machine) -> Vec<String> {
            let pool = m.stacks.lock().unwrap();
            let mut shapes: Vec<String> = pool.iter().map(|s| format!("{s:?}")).collect();
            shapes.sort();
            shapes
        }
        let m = Machine::new(ProcGrid::line(5), CostModel::zero()).with_workers(2);
        assert!(pooled(&m).is_empty());
        let per_worker = ["Stacks(2 x 2101248 B)", "Stacks(3 x 2101248 B)"];
        for _ in 0..3 {
            m.run(ring_program);
            assert_eq!(pooled(&m), per_worker);
        }
        // A crash respawn restarts on the slice its predecessor left.
        let crashing = m.clone().with_faults(FaultPlan::new(0).with_crash(2, 1));
        assert!(Arc::ptr_eq(&m.stacks, &crashing.stacks));
        crashing.run_recoverable(ring_program).expect("recovers");
        assert_eq!(pooled(&m), per_worker);

        let wider = m.clone().with_workers(3);
        assert!(pooled(&wider).is_empty());
        wider.run(ring_program);
        assert_eq!(pooled(&wider).len(), 3);
        assert_eq!(pooled(&m), per_worker);
    }

    #[test]
    fn try_run_ok_matches_run() {
        let m = Machine::new(ProcGrid::line(4), CostModel::cm5());
        let a = m.run(ring_program);
        let b = m.try_run(ring_program).expect("fault-free run succeeds");
        assert_eq!(a.results, b.results);
        assert_eq!(a.clocks, b.clocks);
    }

    #[test]
    fn faulty_run_is_bit_identical_to_clean_run() {
        let clean = Machine::new(ProcGrid::line(4), CostModel::cm5());
        let faulty = clean.clone().with_faults(
            FaultPlan::new(99)
                .with_drop(0.2)
                .with_duplicate(0.2)
                .with_reorder(0.2),
        );
        let a = clean.run(ring_program);
        let b = faulty
            .try_run(ring_program)
            .expect("reliable transport recovers");
        assert_eq!(a.results, b.results);
        // Drop/dup/reorder never change simulated time, only wall time.
        for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
            assert_eq!(ca.now_ns, cb.now_ns);
            assert_eq!(ca.words_sent, cb.words_sent);
        }
    }

    #[test]
    fn injected_delay_slows_simulated_time_deterministically() {
        let plan = FaultPlan::new(5).with_delay(1.0, 1e6);
        let m = Machine::new(
            ProcGrid::line(4),
            CostModel {
                tau_ns: 10.0,
                mu_ns: 1.0,
                ..CostModel::zero()
            },
        )
        .with_faults(plan);
        let a = m.try_run(ring_program).unwrap();
        let b = m.try_run(ring_program).unwrap();
        assert_eq!(a.results, b.results);
        for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
            assert_eq!(ca.now_ns, cb.now_ns, "delays must be deterministic");
        }
        // At least one receiver waited for a delayed packet.
        assert!(a.clocks.iter().any(|c| c.now_ns > 11.0));
    }

    #[test]
    fn crash_surfaces_as_typed_error_and_poisons_peers() {
        let m = Machine::new(ProcGrid::line(4), CostModel::zero())
            .with_faults(FaultPlan::new(0).with_crash(2, 1));
        let err = m
            .try_run(ring_program)
            .expect_err("crash must fail the run");
        assert_eq!(err, MachineError::ProcCrashed { proc: 2, step: 1 });
    }

    #[test]
    fn deadlock_is_a_typed_error_naming_the_stuck_proc() {
        for workers in 1..=3 {
            for _ in 0..20 {
                let err = Machine::new(ProcGrid::line(2), CostModel::zero())
                    .with_workers(workers)
                    .try_run(|p| {
                        if p.id() == 1 {
                            let _: Vec<i32> = p.recv(0, tags::USER + 9);
                        }
                    })
                    .expect_err("nobody sends; proc 1 can never receive");
                let expected = MachineError::Deadlock {
                    proc: 1,
                    src: 0,
                    tag: tags::USER + 9,
                    // Proc 0 finished: the chain ends there.
                    waiting_on: vec![0],
                };
                assert_eq!(err, expected, "workers={workers}");
            }
        }
    }

    #[test]
    fn program_panic_becomes_proc_panicked() {
        let m = Machine::new(ProcGrid::line(2), CostModel::zero());
        let err = m
            .try_run(|p| {
                if p.id() == 0 {
                    panic!("boom on zero");
                }
                let _: Vec<i32> = p.recv(0, tags::USER);
            })
            .expect_err("panic must fail the run");
        match err.root_cause() {
            MachineError::ProcPanicked { proc: 0, msg } => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected ProcPanicked, got {other}"),
        }
    }

    #[test]
    fn poison_reaches_blocked_peers_before_they_are_called_stuck() {
        // Proc 0 crashes on its first send and is gone; proc 1, blocked on
        // that message, must fail as its bystander — never with a deadlock
        // of its own, which would only hide the cause.
        let crash = MachineError::ProcCrashed { proc: 0, step: 1 };
        for workers in 1..=3 {
            for _ in 0..20 {
                let m = Machine::new(ProcGrid::line(2), CostModel::zero())
                    .with_workers(workers)
                    .with_faults(FaultPlan::new(0).with_crash(0, 1));
                let failures = m
                    .drive(
                        |p| {
                            if p.id() == 0 {
                                p.send(1, tags::USER, vec![1i32]);
                            } else {
                                let _: Vec<i32> = p.recv(0, tags::USER);
                            }
                        },
                        None,
                    )
                    .map(|_| ())
                    .expect_err("crash must fail the run");
                let errors: Vec<MachineError> = failures.into_iter().map(|(_, (e, _))| e).collect();
                let poisoned = MachineError::Poisoned {
                    proc: 1,
                    cause: Box::new(crash.clone()),
                };
                assert_eq!(errors, [crash.clone(), poisoned], "workers={workers}");
            }
        }
    }

    #[test]
    fn leftover_messages_become_a_typed_error_in_try_run() {
        let m = Machine::new(ProcGrid::line(2), CostModel::zero());
        let err = m
            .try_run(|p| {
                if p.id() == 0 {
                    p.send(1, tags::USER, vec![1i32]);
                    p.send(1, tags::USER + 1, vec![2i32]);
                } else {
                    let _: Vec<i32> = p.recv(0, tags::USER + 1);
                }
            })
            .expect_err("leftover traffic must fail the run");
        assert_eq!(
            err.root_cause(),
            &MachineError::LeftoverMessages { proc: 1, count: 1 }
        );
    }

    /// A message its receiver never asked for is still found when the
    /// processor retires: the receive returns as soon as it dispatches
    /// `USER`, with `USER + 1` still behind it in the ring, so only the
    /// retire drain puts that one where the leftover check sees it.
    #[test]
    fn an_unasked_message_left_in_the_ring_is_a_leftover() {
        let err = Machine::new(ProcGrid::line(2), CostModel::zero())
            .with_workers(1)
            .try_run(|p| {
                if p.id() == 0 {
                    p.send(1, tags::USER, vec![1i32]);
                    p.send(1, tags::USER + 1, vec![2i32]);
                } else {
                    let _: Vec<i32> = p.recv(0, tags::USER);
                }
            })
            .expect_err("the unreceived message must fail the run");
        assert_eq!(err, MachineError::LeftoverMessages { proc: 1, count: 1 });
    }

    #[test]
    fn faulty_runs_report_retransmissions() {
        let m = Machine::new(ProcGrid::line(4), CostModel::zero())
            .with_faults(FaultPlan::new(3).with_drop(0.4));
        let out = m
            .try_run(|p| {
                for round in 0..8u64 {
                    let n = p.nprocs();
                    let next = (p.id() + 1) % n;
                    let prev = (p.id() + n - 1) % n;
                    p.send(next, tags::USER + round, vec![p.id() as i32]);
                    let _: Vec<i32> = p.recv(prev, tags::USER + round);
                }
            })
            .expect("transport recovers from drops");
        assert!(
            out.total_retransmits() > 0,
            "a 40% drop rate over 32 messages must force at least one retry"
        );
    }
}
