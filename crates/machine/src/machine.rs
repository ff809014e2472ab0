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
use std::sync::{Arc, Mutex};

use crate::carrier::StackPool;
use crate::chan::{default_capacity, frame_channel_with_capacity, FrameReceiver, FrameSender};
use crate::cost::{ClockReport, CostModel, SimClock};
use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::message::Frame;
use crate::proc::Proc;
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
    faults: Option<Arc<FaultPlan>>,
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
type ProcOk<R> = (
    R,
    ClockReport,
    Vec<crate::trace::Span>,
    Vec<u64>,
    Vec<crate::obs::Event>,
    crate::report::MetricsSnapshot,
    crate::obs::WallProfile,
);

/// One processor's hand-over point between its carrier(s) and the driver.
struct Slot<R> {
    /// What its next carrier starts from: the channel endpoint and, after
    /// a survived crash, the resume context. The endpoint outlives a crash
    /// — frames peers sent meanwhile are still queued in it.
    start: Option<(FrameReceiver, Option<ResumeCtx>)>,
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
            faults: None,
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
    pub fn workers(&self) -> usize {
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
    pub fn chan_capacity(&self) -> usize {
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

    /// Enable per-processor tracing: the clock's category spans (see
    /// [`crate::trace`]) *and* the structured event log (see [`crate::obs`]),
    /// which together export as Chrome `trace_event` JSON via
    /// [`RunOutput::chrome_trace_json`].
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Keep per-processor metrics (counters and gauges — see
    /// [`crate::obs`]), collected into [`RunOutput::metrics`].
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Enable per-processor wall-clock profiling (see
    /// [`crate::obs::WallProfiler`]), collected into
    /// [`RunOutput::wall_profiles`]. Wall-side only: simulated clocks,
    /// events, and metrics are byte-identical with or without it. Off by
    /// default so the steady-state execute loop stays allocation-free.
    pub fn with_wall_profiling(mut self, wall: bool) -> Self {
        self.wall_profiling = wall;
        self
    }

    /// Convenience: a one-dimensional machine of `p` processors with the
    /// CM-5-flavoured default cost model.
    pub fn line(p: usize) -> Self {
        Self::new(ProcGrid::line(p), CostModel::cm5())
    }

    /// Attach a fault-injection plan. All charged point-to-point traffic is
    /// then routed over the reliable transport, which recovers from every
    /// non-crash fault in the plan (see [`crate::fault`]); a scheduled crash
    /// surfaces as [`MachineError::ProcCrashed`] from [`Machine::try_run`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// The logical processor grid.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
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
    /// log of the frames they sent since the receiver's last boundary (see
    /// [`crate::recovery`]). When a processor crashes, it is restarted on a
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
    /// reported there and in the `recovery.*` metrics, never added to the
    /// simulated clocks.
    pub fn run_recoverable<R, F>(&self, program: F) -> Result<RunOutput<R>, MachineError>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        let rec = Arc::new(RecoveryState::new(self.nprocs()));
        self.drive(program, Some(rec)).map_err(|f| primary(f).0)
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
        let slots: Vec<Mutex<Slot<R>>> = rxs
            .into_iter()
            .map(|rx| Slot {
                start: Some((rx, None)),
                respawns: 0,
                done: None,
            })
            .map(Mutex::new)
            .collect();
        let obs = crate::obs::ObsConfig {
            events: self.tracing,
            metrics: self.metrics,
            wall: self.wall_profiling,
        };
        // Set by the first fatal failure, which aborts the survivors.
        let poisoned = AtomicBool::new(false);

        // One carrier's life, on its own stack: run the program, retire the
        // transport, and leave the outcome (or a successor) in the slot.
        let body = |id: usize| {
            let slot = || slots[id].lock().expect("a slot is only ever assigned");
            let (rx, resume) = slot().start.take().expect("a carrier starts from its slot");
            let mut clock = SimClock::new(self.cost);
            if self.tracing {
                clock.enable_trace();
            }
            let mut proc = Proc::new(
                id,
                &self.grid,
                clock,
                &txs,
                rx,
                self.faults.clone(),
                obs,
                Arc::clone(&sched),
            );
            if let Some(rec) = &rec {
                proc.attach_recovery(Arc::clone(rec), resume);
            }
            let (ac0, ab0) = crate::alloc_counter::thread_totals();
            let result = catch_unwind(AssertUnwindSafe(|| program(&mut proc)));
            let (ac1, ab1) = crate::alloc_counter::thread_totals();
            proc.note_alloc_totals(ac1 - ac0, ab1 - ab0);
            let outcome: Result<R, Failure> = match result {
                Ok(r) => {
                    // Under recovery no processor retires before every one
                    // has finished its program: a respawned victim re-sends
                    // frames that only a live peer can acknowledge.
                    let barrier = rec.as_ref().map_or(Ok(()), |_| proc.retire_barrier());
                    match barrier.and_then(|()| proc.retire()) {
                        Ok(()) => match proc.leftover_messages() {
                            0 => Ok(r),
                            count => {
                                Err((MachineError::LeftoverMessages { proc: id, count }, None))
                            }
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
            let (mut clock, comm_row, rx, events, metrics, wall) = proc.into_parts();
            if let (Some(rec), Err((MachineError::ProcCrashed { .. }, _))) = (&rec, &outcome) {
                let mut slot = slot();
                if !poisoned.load(Ordering::SeqCst) && slot.respawns < MAX_RESPAWNS {
                    slot.respawns += 1;
                    let resume = ResumeCtx {
                        snapshot: rec.take_snapshot(id),
                        replay: rec.clone_log(id),
                    };
                    slot.start = Some((rx, Some(resume)));
                    return sched.enroll(id);
                }
            }
            if let Err((e, _)) = &outcome {
                // Poison broadcast: peers blocked in receives abort with
                // this error as their cause.
                if !poisoned.swap(true, Ordering::SeqCst) {
                    for (_, tx) in txs.iter().enumerate().filter(|(pid, _)| *pid != id) {
                        tx.send_all([Frame::Poison(e.clone())]);
                    }
                }
            }
            let trace = clock.take_trace();
            let ok = outcome.map(|r| (r, clock.report(), trace, comm_row, events, metrics, wall));
            slot().done = Some((ok, rx));
        };
        // The caller is worker 0: a one-worker run creates no thread at all
        // (and allocates from one malloc arena, run after run).
        std::thread::scope(|scope| {
            for w in 1..sched.workers() {
                let (sched, body) = (&sched, &body);
                scope.spawn(move || sched.run_worker(w, &self.stacks, body));
            }
            sched.run_worker(0, &self.stacks, &body);
        });

        let mut run = RunOutput::new(Vec::new(), Vec::new());
        let mut failures = Vec::new();
        for (id, slot) in slots.into_iter().enumerate() {
            let slot = slot.into_inner().expect("a slot is only ever assigned");
            match slot.done.expect("every processor finished").0 {
                Ok((r, c, trace, comm_row, evs, snap, wp)) => {
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
        run.recovery = rec.map(|rec| rec.stats());
        Ok(run)
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
        assert_eq!(err.root_cause().proc(), 0);
        match err.root_cause() {
            MachineError::ProcPanicked { msg, .. } => assert!(msg.contains("boom"), "{msg}"),
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
