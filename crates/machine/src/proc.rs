//! The per-processor handle given to SPMD program closures.
//!
//! A [`Proc`] bundles the processor's identity on the logical grid, its
//! private simulated clock, and its message endpoints. All communication —
//! point-to-point sends and the collectives built on top of them — flows
//! through this handle, which is how every byte gets charged to the cost
//! model. Every frame leaves through the processor's transport, which the
//! machine's [`crate::fault::FaultPlan`] tells whether to sequence it (see
//! [`crate::reliable`]).

use std::any::Any;
use std::panic::panic_any;
use std::sync::Arc;

use crate::chan::{FrameReceiver, FrameSender};
use crate::cost::{Category, ClockReport, SimClock, Words};
use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::message::{Frame, Mailbox, Packet, Payload, PayloadCharge};
use crate::obs::{EventKind, MemAccount, ProcMetrics, Recorder};
use crate::pool::{BufferPool, Lendable, Lender, PoolSlot, Reusable};
use crate::recovery::{EpochSnapshot, RecoveryState, ResumeCtx};
use crate::reliable::{Step, Transport};
use crate::report::MetricsSnapshot;
use crate::sched::{ParkOutcome, Scheduler};
use crate::topology::ProcGrid;

/// What a processor hands the driver when it retires: its clock report,
/// metrics and recorder.
pub(crate) type ProcParts = (ClockReport, MetricsSnapshot, Recorder);

/// Tag namespaces. Each collective type uses its own tag so that a program
/// error (processors disagreeing about which collective comes next) fails
/// loudly as a downcast/hang instead of silently mixing payloads. Within one
/// tag, per-sender FIFO order plus SPMD program order makes matching exact.
pub mod tags {
    /// Prefix-reduction-sum rounds.
    pub(crate) const SCAN: u64 = 1;
    /// Reduction rounds.
    pub(crate) const REDUCE: u64 = 2;
    /// Broadcast tree edges.
    pub(crate) const BCAST: u64 = 3;
    /// Allgather ring traffic.
    pub(crate) const GATHER: u64 = 4;
    /// Many-to-many personalized communication rounds.
    pub(crate) const ALLTOALL: u64 = 5;
    /// Explicit barriers: the retire barrier of a recoverable run.
    pub(crate) const BARRIER: u64 = 6;
    /// Uncharged clock-synchronisation control traffic.
    pub(crate) const CLOCK_SYNC: u64 = 7;
    /// Uncharged send-flag transposition of a many-to-many
    /// ([`crate::collectives::A2aPlan::exchange`]).
    pub(crate) const A2A_FLAGS: u64 = 8;
    /// First tag available to user programs.
    pub const USER: u64 = 1 << 16;
}

/// A subset of processors acting as a communicator, e.g. all processors, or
/// the processors sharing every grid coordinate except one dimension
/// (the communicator a dimension-`i` prefix-reduction-sum runs over).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Members,
    /// This processor's rank among the members.
    my_rank: usize,
}

/// Global processor ids of a group's members, in rank order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Members {
    /// The identity range `0..n` (rank = processor id): the world
    /// communicator costs no memory however many processors there are.
    All(usize),
    Listed(Vec<usize>),
}

impl Group {
    /// Build a group from an ordered member list and the caller's position.
    ///
    /// # Panics
    /// Panics if `members[my_rank]` is out of bounds.
    pub fn new(members: Vec<usize>, my_rank: usize) -> Self {
        assert!(my_rank < members.len(), "my_rank out of range");
        Group {
            members: Members::Listed(members),
            my_rank,
        }
    }

    /// Number of members.
    #[inline]
    pub fn size(&self) -> usize {
        match &self.members {
            Members::All(n) => *n,
            Members::Listed(ids) => ids.len(),
        }
    }

    /// This processor's rank within the group.
    #[inline]
    pub fn my_rank(&self) -> usize {
        self.my_rank
    }

    /// Global id of the member at `rank`.
    #[inline]
    pub fn id_of(&self, rank: usize) -> usize {
        match &self.members {
            Members::All(n) => {
                assert!(rank < *n, "rank out of range");
                rank
            }
            Members::Listed(ids) => ids[rank],
        }
    }
}

/// Handle to one virtual processor inside a running SPMD program.
pub struct Proc<'m> {
    id: usize,
    grid: &'m ProcGrid,
    clock: SimClock,
    rx: FrameReceiver,
    /// The cooperative scheduler multiplexing virtual processors over the
    /// machine's worker threads. Every wait in this file parks here — a
    /// stack switch — instead of blocking or spinning, so a bounded pool
    /// can carry thousands of processors (see DESIGN.md §15).
    sched: Arc<Scheduler>,
    mailbox: Mailbox,
    /// The one way onto the network, for every frame this processor sends.
    transport: Transport<'m>,
    /// Events, category edges and wall-span edges, in one stream.
    obs: Recorder,
    /// Counters and gauges, present iff the machine keeps metrics.
    metrics: Option<ProcMetrics>,
    /// The keyed adapter's slots ([`Proc::pool_checkout`]); a plan holds
    /// its own.
    pool: BufferPool,
    /// Scratch space for pooled exchanges' received packets. It grows in
    /// the first pooled exchange and keeps that capacity, so a plan's later
    /// executes, whose receive list is fixed, never grow it.
    pkt_scratch: Vec<Packet>,
    /// Shared crash-recovery state; present iff the machine is running
    /// under [`crate::Machine::run_recoverable`].
    recovery: Option<Arc<RecoveryState>>,
    /// Pending resume context on a respawned processor; consumed by the
    /// first [`Proc::epoch`] call at the resume epoch. Boxed: every carrier
    /// holds a `Proc` in its bottom frame, and only a respawn fills this.
    resume: Option<Box<ResumeCtx>>,
    /// Index of the next epoch this processor will enter.
    epoch_idx: usize,
}

impl<'m> Proc<'m> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        grid: &'m ProcGrid,
        clock: SimClock,
        senders: &'m [FrameSender],
        rx: FrameReceiver,
        plan: Arc<FaultPlan>,
        metrics: bool,
        recorder: Recorder,
        sched: Arc<Scheduler>,
    ) -> Self {
        let mut proc = Proc {
            id,
            grid,
            clock,
            rx,
            sched,
            mailbox: Mailbox::default(),
            transport: Transport::new(id, plan, senders),
            obs: recorder,
            metrics: metrics.then(ProcMetrics::default),
            pool: BufferPool::default(),
            pkt_scratch: Vec::new(),
            recovery: None,
            resume: None,
            epoch_idx: 0,
        };
        // The frame ring pinned for this processor's lifetime, charged up
        // front at simulated t=0 (a machine-shape constant, never released;
        // asserted byte-exactly by the memory perf group rather than by the
        // workload-driven peak gate).
        let ring = crate::chan::ring_bytes(proc.rx.capacity());
        proc.mem_charge(MemAccount::MailboxRing, ring);
        proc
    }

    /// Attach shared crash-recovery state (and, on a respawned processor,
    /// the resume context). Called by the driver before the program closure
    /// runs. The transport gets the replay log (and, unless the plan is
    /// benign, logs its frames to possible victims there); a respawned
    /// processor's also disarms the crash
    /// schedule — it already fired. When no epoch had completed before the
    /// crash, the respawn performs its replay immediately: the program
    /// restarts from scratch, peers dedup its re-sent frames by sequence
    /// number, and the (never truncated) replay log re-supplies everything
    /// peers had sent it.
    pub(crate) fn attach_recovery(
        &mut self,
        state: Arc<RecoveryState>,
        resume: Option<Box<ResumeCtx>>,
    ) {
        self.transport
            .attach_log(Arc::clone(&state), resume.is_some());
        self.recovery = Some(state);
        if let Some(r) = resume {
            if r.snapshot.is_none() {
                let rec = Arc::clone(self.recovery.as_ref().expect("just attached"));
                self.inject_replay(r.replay, &rec);
            } else {
                self.resume = Some(r);
            }
        }
    }

    /// Global processor id, `0 ≤ id < P`.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total processor count `P`.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.grid.nprocs()
    }

    /// The logical processor grid.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        self.grid
    }

    /// This processor's coordinate along grid dimension `dim`.
    #[inline]
    pub fn coord(&self, dim: usize) -> usize {
        self.grid.coord(self.id, dim)
    }

    /// Mutable access to the simulated clock (for charging local work).
    #[inline]
    pub fn clock(&mut self) -> &mut SimClock {
        &mut self.clock
    }

    /// Read-only clock access.
    #[inline]
    pub fn clock_ref(&self) -> &SimClock {
        &self.clock
    }

    /// Charge `n` elementary local operations to the ambient category.
    #[inline]
    pub fn charge_ops(&mut self, ops: usize) {
        self.clock.charge_ops(ops);
    }

    /// Set the clock's ambient category for subsequent charges, returning
    /// the previous one. When tracing, a change closes the running category
    /// span and opens the next.
    pub fn set_category(&mut self, cat: Category) -> Category {
        let prev = self.clock.set_category(cat);
        if prev != cat {
            self.obs.category(cat, self.clock.now_ns());
        }
        prev
    }

    /// Run `f` with the clock's ambient category set to `cat`, restoring the
    /// previous category afterwards.
    pub fn with_category<R>(&mut self, cat: Category, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.set_category(cat);
        let out = f(self);
        self.set_category(prev);
        out
    }

    /// Run `f` with the clock muted: the data moves, nothing is charged.
    /// Used to realise operations a modelled hardware unit would carry
    /// (e.g. CM-5 control-network scans), whose cost the caller then
    /// charges explicitly.
    pub(crate) fn with_uncharged_comm<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.clock.set_muted(true);
        let out = f(self);
        self.clock.set_muted(prev);
        out
    }

    /// Record one memory-accounting sample: a [`EventKind::MemSample`]
    /// event when tracing, and — when `owner` is this processor — a
    /// `mem.<account>.cur` gauge update when metrics are on. A sender
    /// charging a destination's replay-log account records only the event;
    /// the destination maintains its own gauge at epoch boundaries, where
    /// the interval peak becomes known (see [`Proc::epoch_boundary`]).
    fn mem_sample(&mut self, account: MemAccount, owner: usize, ts_ns: f64, delta_bytes: i64) {
        let sample = EventKind::MemSample {
            account,
            owner,
            delta_bytes,
        };
        self.obs.event(ts_ns, sample);
        if owner == self.id {
            if let Some(m) = self.metrics.as_mut() {
                let g = &mut m.mem[account as usize];
                if delta_bytes >= 0 {
                    g.set(g.last + delta_bytes as u64);
                } else {
                    g.last = g.last.saturating_sub(delta_bytes.unsigned_abs());
                }
            }
        }
    }

    /// Charge `bytes` to this processor's memory `account` at the current
    /// simulated time. No-op (one branch) when neither tracing nor metrics
    /// are enabled, and never clock-charged — accounting is bookkeeping.
    /// Library layers use this for word-carrying structures the machine
    /// cannot see: plan-time index/segment buffers (`hpf-core`) and user
    /// arrays registered through `distarray`'s `TrackArray` hook.
    pub fn mem_charge(&mut self, account: MemAccount, bytes: u64) {
        if !self.obs.traces() && self.metrics.is_none() {
            return;
        }
        let now = self.clock.now_ns();
        self.mem_sample(account, self.id, now, bytes as i64);
    }

    /// Release bytes previously charged with [`Proc::mem_charge`].
    pub fn mem_release(&mut self, account: MemAccount, bytes: u64) {
        if !self.obs.traces() && self.metrics.is_none() {
            return;
        }
        let now = self.clock.now_ns();
        self.mem_sample(account, self.id, now, -(bytes as i64));
    }

    /// Run `f` as the named algorithm stage. When tracing, the stage is
    /// bracketed by [`EventKind::SpanBegin`]/[`EventKind::SpanEnd`] events;
    /// when profiling, by a wall span of the same name — one begin and one
    /// end record carrying both stamps. One branch when both are off.
    ///
    /// Stage names are `"."`-separated and stable — they are the join key
    /// between traces, metrics, perf reports, and the paper's section
    /// structure (see DESIGN.md §8).
    pub fn with_stage<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.obs.traces() && !self.obs.profiles() {
            return f(self);
        }
        self.span(name, true, f)
    }

    /// Run `f` inside a wall-clock span named `name`. A single branch when
    /// wall profiling is off — the default, keeping the steady-state execute
    /// loop's zero-allocation guarantee intact. The span records monotonic
    /// wall nanoseconds only; the simulated clock, event log, and metrics
    /// are untouched, so enabling profiling can never perturb simulated
    /// results.
    #[inline]
    pub fn wall_span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.obs.profiles() {
            return f(self);
        }
        self.span(name, false, f)
    }

    /// The span edges around `f`: a `stage`'s feed the event log as well.
    fn span<R>(&mut self, name: &'static str, stage: bool, f: impl FnOnce(&mut Self) -> R) -> R {
        self.obs.edge(true, name, self.clock.now_ns(), stage);
        let out = f(self);
        self.obs.edge(false, name, self.clock.now_ns(), stage);
        out
    }

    /// Attribute `bytes` of payload movement to the innermost open wall
    /// span, so the profile can report effective copy bandwidth per stage.
    /// No-op unless wall profiling is on.
    #[inline]
    pub fn wall_bytes(&mut self, bytes: u64) {
        self.obs.bytes(bytes);
    }

    /// Drop a named point annotation at the current simulated time (e.g. a
    /// collective phase boundary). No-op unless the machine traces.
    #[inline]
    pub fn marker(&mut self, name: &'static str) {
        let now = self.clock.now_ns();
        self.obs.event(now, EventKind::Marker { name });
    }

    /// The group of all processors (world communicator).
    pub fn world(&self) -> Group {
        Group {
            members: Members::All(self.nprocs()),
            my_rank: self.id,
        }
    }

    /// The communicator along grid dimension `dim`: all processors sharing
    /// this processor's other coordinates. Rank within the group equals the
    /// coordinate along `dim`.
    pub fn axis_group(&self, dim: usize) -> Group {
        Group::new(self.grid.axis_members(self.id, dim), self.coord(dim))
    }

    /// Send `data` to processor `dst` under `tag`.
    ///
    /// Charges the sender the full transfer time `τ + μ·m` and stamps the
    /// packet with its arrival time. A self-send moves the data but charges
    /// nothing, matching the paper's CM-5 implementation note that "local
    /// copy was not performed when a processor needed to send a message to
    /// itself". A zero-word message is free of charge but still travels
    /// (reliably, under a fault plan) and still carries its sender's clock
    /// to the receiver — a synchronisation the receiver pays for. The
    /// many-to-many collectives therefore never send one: an empty slot is
    /// not transmitted ([`crate::collectives::alltoallv`]).
    ///
    /// # Panics
    /// Panics with a typed [`MachineError::ProcCrashed`] when the machine's
    /// fault plan crashes this processor at this send step.
    pub fn send<P: Payload>(&mut self, dst: usize, tag: u64, data: P) {
        let words = data.wire_words();
        self.send_arc(dst, tag, words, Arc::new(data), true);
    }

    /// The one send path under [`Proc::send`] and [`Proc::send_pooled`]:
    /// the crash step, the `τ + μ·m` charge, the transport send,
    /// events, memory samples and metrics. `owned` says the payload is an
    /// allocation made for this message — charged to the sender's `payload`
    /// account while any copy of the packet lives — rather than a pool slot
    /// the sender keeps (charged to `pool` as it grows).
    fn send_arc(
        &mut self,
        dst: usize,
        tag: u64,
        words: Words,
        data: Arc<dyn Any + Send + Sync>,
        owned: bool,
    ) {
        self.step(Step::Send);
        if dst == self.id {
            let arrival_ns = self.clock.now_ns();
            let pkt = Packet {
                src: self.id,
                tag,
                arrival_ns,
                words,
                data,
                charge: None,
            };
            self.mailbox.hold(pkt);
            return;
        }
        let arrival_ns = if words == 0 {
            self.clock.now_ns()
        } else {
            self.clock.charge_send(words)
        };
        // The payload-account gauge is charged by a guard riding inside the
        // packet: every copy of the packet (wire frame, retransmit buffer,
        // replay log) shares one `Arc<PayloadCharge>`, so the sender stays
        // charged until the last copy drops — refcount-truthful, like the
        // memory it models.
        let charge = match self.metrics.as_mut() {
            Some(m) if owned && words > 0 => {
                Some(Arc::new(PayloadCharge::new(m, words as u64 * 4)))
            }
            _ => None,
        };
        let pkt = Packet {
            src: self.id,
            tag,
            arrival_ns,
            words,
            data,
            charge,
        };
        let now = self.clock.now_ns();
        let seq = self.transport.send(dst, pkt, now, &mut self.obs);
        if words > 0 {
            let bytes = words as i64 * 4;
            if self.obs.traces() {
                let send = EventKind::Send {
                    dst,
                    tag,
                    words,
                    seq,
                    arrival_ns,
                };
                self.obs.event(now, send);
                if owned {
                    // In simulated time the in-flight payload occupies the
                    // sender from the send until the (pre-delay) arrival;
                    // the event pair brackets exactly that interval.
                    // Recorded directly — the gauge side is the guard's.
                    for (ts, delta_bytes) in [(now, bytes), (arrival_ns, -bytes)] {
                        let account = MemAccount::Payload;
                        let owner = self.id;
                        let sample = EventKind::MemSample {
                            account,
                            owner,
                            delta_bytes,
                        };
                        self.obs.event(ts, sample);
                    }
                }
            }
            if self.transport.logs_to(dst) {
                // The replay log retains a copy of this frame on the
                // destination's behalf until *its* next epoch boundary:
                // charged to the destination's account (owner ≠ recorder —
                // event only; the destination squares its own gauge with
                // the truncation at the boundary).
                self.mem_sample(MemAccount::ReplayLog, dst, now, bytes);
            }
            if let Some(m) = self.metrics.as_mut() {
                m.msg_sent += 1;
            }
        }
    }

    /// Receive the earliest message from `src` under `tag`, blocking until it
    /// arrives. Advances the simulated clock to the packet's arrival time if
    /// the processor got there first (the wait is charged to the ambient
    /// category).
    ///
    /// # Panics
    /// Panics if the payload type does not match `P` (processors disagree on
    /// the program), or with a typed [`MachineError`] if the machine goes
    /// quiescent before anything arrives or a peer fails first; under
    /// [`crate::Machine::run`] that error becomes the run's panic, under
    /// [`crate::Machine::try_run`] it becomes the returned `Err`.
    pub fn recv<P: Payload>(&mut self, src: usize, tag: u64) -> P {
        match self.try_recv(src, tag) {
            Ok(v) => v,
            Err(e) => panic_any(e),
        }
    }

    /// Fallible receive: like [`Proc::recv`] but surfacing machine failures
    /// (deadlock, poisoned run) as a typed [`MachineError`] instead of
    /// panicking. Payload type mismatch still panics — that is a program
    /// bug, not a machine failure.
    pub(crate) fn try_recv<P: Payload>(&mut self, src: usize, tag: u64) -> Result<P, MachineError> {
        self.step(Step::Recv);
        let pkt = self.try_recv_packet(src, tag)?;
        self.observe_consume(&pkt);
        Ok(self.extract::<P>(pkt, src, tag))
    }

    /// Unwrap a packet's payload as a `P`. The `Arc` is unwrapped in place
    /// when this receive is the last holder (the fault-free common case);
    /// when the reliable transport still shares the buffer for a possible
    /// retransmission, the payload is deep-copied and the copied volume is
    /// surfaced through the `payload.clone_words` counter.
    fn extract<P: Payload>(&mut self, pkt: Packet, src: usize, tag: u64) -> P {
        let words = pkt.words;
        match pkt.data.downcast::<P>() {
            Ok(arc) => match Arc::try_unwrap(arc) {
                Ok(v) => v,
                Err(shared) => {
                    if let Some(m) = self.metrics.as_mut() {
                        m.clone_words += words as u64;
                    }
                    (*shared).clone()
                }
            },
            Err(_) => panic!(
                "proc {}: payload type mismatch on recv from {} tag {} (expected {})",
                self.id,
                src,
                tag,
                std::any::type_name::<P>()
            ),
        }
    }

    /// Count one program-level send or receive against the fault plan's
    /// crash schedule, and crash here if it says so. Uncharged control
    /// traffic (clock sync) and the transport's internal pumping never
    /// count, so epoch boundaries are crash-free by construction.
    fn step(&mut self, step: Step) {
        if let Err(e) = self.transport.step(step) {
            panic_any(e);
        }
    }

    /// Advance the clock to the packet's arrival (the shared receive-side
    /// charge) and record a [`EventKind::Consume`] event for charged remote
    /// traffic. Muted receives (hardware-modelled data movement) advance
    /// nothing and record nothing — their delivery/consume asymmetry is why
    /// the exporter clamps the mailbox-depth track at zero.
    fn observe_consume(&mut self, pkt: &Packet) {
        let before = self.clock.now_ns();
        self.clock.observe_arrival(pkt.arrival_ns);
        if pkt.src == self.id || pkt.words == 0 || !pkt.arrival_ns.is_finite() {
            return;
        }
        if !self.clock.is_muted() {
            let now = self.clock.now_ns();
            let consume = EventKind::Consume {
                src: pkt.src,
                tag: pkt.tag,
                words: pkt.words,
                waited_ns: (now - before).max(0.0),
                arrival_ns: pkt.arrival_ns,
            };
            self.obs.event(now, consume);
        }
        // The mailbox account was charged at delivery whether or not this
        // consume is muted, so it is released unconditionally. A muted
        // consume does not advance the clock, which may still trail the
        // packet's arrival — clamping the stamp to the arrival keeps the
        // release at or after its matching charge.
        let ts = self.clock.now_ns().max(pkt.arrival_ns);
        self.mem_sample(MemAccount::Mailbox, self.id, ts, -(pkt.words as i64 * 4));
    }

    /// Park this virtual processor in the scheduler, keyed on the current
    /// simulated time (the deterministic wake-priority rule: among ready
    /// processors, the one furthest behind in simulated time runs first),
    /// telling it whether this processor holds unacknowledged frames — what
    /// a quiescent machine then owes it is a retry, not a verdict. `awaits`
    /// is the source a receive is blocked on: raw frames from anyone else
    /// then leave the processor parked. Every other wake — a sequenced or
    /// control frame, a pool-slot return — ends the park regardless. The
    /// wait is attributed to the virtual processor's own wall profile under
    /// `sched.park` — worker threads have no identity of their own.
    fn park(&mut self, awaits: Option<usize>) -> ParkOutcome {
        let key = self.clock.now_ns();
        let retry = self.transport.has_unacked();
        let sched = Arc::clone(&self.sched);
        let id = self.id;
        let outcome = self.wall_span("sched.park", |_| sched.park(id, key, retry, awaits));
        if let Some(m) = self.metrics.as_mut() {
            m.parks += 1;
            if outcome == ParkOutcome::Woken {
                m.wakes += 1;
            }
        }
        outcome
    }

    /// The one blocking wait, under every receive flavour, the transport
    /// flush and pool back-pressure: dispatch incoming frames until `probe`
    /// yields, parking whenever the ring has run dry. `awaits` is the
    /// `(src, tag)` a receive waits for — only a raw frame under that key,
    /// or a sequenced one (which may release held-back packets of any key),
    /// is worth a probe; `None` probes after every frame and lets any frame
    /// end a park.
    ///
    /// No clock decides when to give up. A park ends because something
    /// arrived, or because the machine went quiescent: then whatever this
    /// processor has unacknowledged was lost and is transmitted once more,
    /// or — nobody having anything to retransmit — this wait can never end
    /// and `stuck` says what it was for.
    fn wait_for<T>(
        &mut self,
        awaits: Option<(usize, u64)>,
        mut probe: impl FnMut(&mut Self) -> Option<T>,
        stuck: impl FnOnce(&Self) -> MachineError,
    ) -> Result<T, MachineError> {
        let mut outcome = ParkOutcome::Token;
        loop {
            if let Some(v) = probe(self) {
                return Ok(v);
            }
            while let Some(frame) = self.rx.try_recv() {
                let worth_a_probe = match (&frame, awaits) {
                    (_, None) | (Frame::Data { .. }, _) => true,
                    (Frame::Raw(p), Some(key)) => (p.src, p.tag) == key,
                    (Frame::Ack { .. } | Frame::Poison(_), _) => false,
                };
                self.dispatch(frame)?;
                if worth_a_probe {
                    if let Some(v) = probe(self) {
                        return Ok(v);
                    }
                }
            }
            if outcome == ParkOutcome::Woken {
                if let Some(m) = self.metrics.as_mut() {
                    m.spurious_wakes += 1;
                }
            }
            // A frame enqueued (or a slot returned) between the last probe
            // above and this park is covered by the scheduler's wake token:
            // the unpark lands while we still run and the park returns
            // immediately instead of sleeping.
            outcome = self.park(awaits.map(|(src, _)| src));
            match outcome {
                ParkOutcome::Token | ParkOutcome::Woken => {}
                ParkOutcome::Retry => {
                    self.transport.pump(self.clock.now_ns(), &mut self.obs)?;
                }
                ParkOutcome::Stuck => return Err(stuck(self)),
            }
        }
    }

    /// The receive under every receive flavour: the packet from `src` under
    /// `tag`, out of the mailbox or off the ring.
    fn try_recv_packet(&mut self, src: usize, tag: u64) -> Result<Packet, MachineError> {
        self.wait_for(
            Some((src, tag)),
            |p| p.mailbox.take(src, tag),
            |p| MachineError::Deadlock {
                proc: p.id,
                src,
                tag,
                waiting_on: p.sched.wait_chain(src),
            },
        )
    }

    /// Route one incoming frame: data lands in the mailbox (via the
    /// transport's ordering/dedup when sequenced), acks retire retransmit
    /// state, poison aborts this processor with the peer's failure.
    fn dispatch(&mut self, frame: Frame) -> Result<(), MachineError> {
        match frame {
            Frame::Raw(p) => {
                self.note_delivery(&p, None);
                self.mailbox.hold(p);
            }
            Frame::Data { seq, pkt } => {
                let now = self.clock.now_ns();
                let mut ready = self.transport.on_data(seq, pkt, now, &mut self.obs);
                for (s, p) in ready.drain(..) {
                    self.note_delivery(&p, Some(s));
                    self.mailbox.hold(p);
                }
                self.transport.recycle(ready);
            }
            Frame::Ack { from, seq } => self.transport.on_ack(from, seq),
            Frame::Poison(cause) => {
                return Err(MachineError::Poisoned {
                    proc: self.id,
                    cause: Box::new(cause),
                });
            }
        }
        Ok(())
    }

    /// Record one remote packet reaching the mailbox. Stamped with the
    /// packet's simulated arrival time; zero-word messages and uncharged
    /// control traffic (clock sync, `arrival = -∞`) are not observed.
    fn note_delivery(&mut self, pkt: &Packet, seq: Option<u64>) {
        if pkt.words == 0 || !pkt.arrival_ns.is_finite() {
            return;
        }
        let recv = EventKind::Recv {
            src: pkt.src,
            tag: pkt.tag,
            words: pkt.words,
            seq,
        };
        self.obs.event(pkt.arrival_ns, recv);
        if let Some(m) = self.metrics.as_mut() {
            m.msg_recvd += 1;
        }
        // Packet bytes now sit in the mailbox until a program-level receive
        // consumes them (released in `observe_consume`), charged at the
        // packet's simulated arrival time.
        self.mem_sample(
            MemAccount::Mailbox,
            self.id,
            pkt.arrival_ns,
            pkt.words as i64 * 4,
        );
    }

    /// Synchronise the clocks of all group members to the maximum member
    /// time, *without charging anything*. Used at phase boundaries to model
    /// globally synchronised algorithm phases (the paper times each stage as
    /// the slowest processor's time for it).
    pub fn clock_sync_max(&mut self, group: &Group) {
        if group.size() == 1 {
            return;
        }
        // Dissemination exchange of `(timestamp, owner id)` pairs — the
        // combining rule (max time, ties to the lowest id) is associative,
        // commutative, and idempotent, so every member converges on the
        // same pair. The payload rides outside the cost model:
        // fast_forward never charges. The owner id lets tracing record
        // *whose* clock defined the barrier (the critical path hops there).
        let n = group.size();
        let me = group.my_rank();
        let t0 = self.clock.now_ns();
        let mut t_max = t0;
        let mut owner = self.id;
        let mut shift = 1usize;
        while shift < n {
            let to = group.id_of((me + shift) % n);
            let from = group.id_of((me + n - shift) % n);
            self.send_uncharged(to, tags::CLOCK_SYNC, vec![t_max, owner as f64]);
            let other: Vec<f64> = self.recv_uncharged(from, tags::CLOCK_SYNC);
            let (ot, oo) = (other[0], other[1] as usize);
            if ot > t_max || (ot == t_max && oo < owner) {
                t_max = ot;
                owner = oo;
            }
            shift *= 2;
        }
        self.clock.fast_forward(t_max);
        if t_max > t0 {
            let waited_ns = t_max - t0;
            self.obs
                .event(t_max, EventKind::Barrier { owner, waited_ns });
        }
    }

    /// Send without touching the clock: simulator-internal control traffic
    /// (clock sync, flag transposition, retire barrier), carried by the
    /// modelled control network — sequenced only under crash recovery on a
    /// sequenced link ([`Transport::send_control`]). Zero charged words and
    /// a `-∞` arrival keep it out of the cost model and of the send, receive
    /// and memory events; only `msg.frames` and, when sequenced, the
    /// transport's verdict, retry and duplicate records see it.
    pub(crate) fn send_uncharged<P: Payload>(&mut self, dst: usize, tag: u64, data: P) {
        let pkt = Packet {
            src: self.id,
            tag,
            arrival_ns: f64::NEG_INFINITY,
            words: 0,
            data: Arc::new(data),
            charge: None,
        };
        if dst == self.id {
            self.mailbox.hold(pkt);
        } else {
            let now = self.clock.now_ns();
            self.transport.send_control(dst, pkt, now, &mut self.obs);
        }
    }

    /// Receive without touching the clock.
    pub(crate) fn recv_uncharged<P: Payload>(&mut self, src: usize, tag: u64) -> P {
        let pkt = match self.try_recv_packet(src, tag) {
            Ok(p) => p,
            Err(e) => panic_any(e),
        };
        self.extract::<P>(pkt, src, tag)
    }

    /// Run `body` as one **epoch** — the unit of crash recovery
    /// (DESIGN.md §12). The epoch ends with a machine-wide barrier
    /// (transport flush + uncharged clock sync, identical whether or not
    /// recovery is attached), after which the processor's recoverable state
    /// — clock, mailbox, transport counters, metrics, and a clone of
    /// `state` — is snapshotted under [`crate::Machine::run_recoverable`].
    /// Any `Clone + Send + 'static` value can be the state; the same value
    /// must thread through every epoch, since a respawn restores epoch
    /// *k*'s snapshot into epoch *k*+1's `state` argument.
    ///
    /// On a respawned processor, epochs that completed before the crash are
    /// skipped (their effects live in the restored snapshot), the resume
    /// epoch first restores that snapshot and replays logged peer frames,
    /// and re-execution continues bit-identically.
    ///
    /// Under `run_recoverable`, *all* communication must happen inside
    /// epoch bodies: traffic between epochs is covered by neither the
    /// snapshot nor the replay log, and a respawned processor would hang
    /// waiting for it.
    pub fn epoch<S: Clone + Send + 'static>(
        &mut self,
        state: &mut S,
        body: impl FnOnce(&mut Self, &mut S),
    ) {
        let idx = self.epoch_idx;
        self.epoch_idx += 1;
        if let Some(r) = self.resume.as_ref() {
            let at = r.resume_epoch();
            if idx < at {
                // Completed before the crash; its effects are in the
                // snapshot restored at the resume epoch.
                return;
            }
            let ctx = self.resume.take().expect("resume context present");
            self.prepare_resume(ctx, state);
        }
        body(self, state);
        self.epoch_boundary(idx, state);
    }

    /// The barrier + snapshot protocol ending every epoch. The flush before
    /// the sync guarantees every peer has acked this processor's sends on
    /// lossy links; a frame on any other link is already in its
    /// destination's ring. The sync is a dissemination barrier over the same
    /// FIFO rings, and each of its frames is enqueued causally after every
    /// epoch frame its transitive senders put there, so no processor leaves
    /// it before dispatching every frame of the epoch addressed to it: the
    /// transport's `expected` counters are final for the epoch and the
    /// replay log can be truncated to frames at or above them. The second
    /// flush covers sync frames on lossy links, which travel sequenced
    /// under recovery.
    fn epoch_boundary<S: Clone + Send + 'static>(&mut self, idx: usize, state: &S) {
        if let Err(e) = self.finish_transport() {
            panic_any(e);
        }
        let world = self.world();
        self.clock_sync_max(&world);
        if let Err(e) = self.finish_transport() {
            panic_any(e);
        }
        let Some(rec) = self.recovery.clone() else {
            return;
        };
        let (log_before, log_after) = self.transport.truncate_log();
        // Square this processor's replay-log account with the truncation.
        // Senders charged the account event-side only (owner ≠ recorder),
        // so the gauge learns the interval peak here — an absolute `set` to
        // the pre-truncation words raises `max`, a second to the floor sets
        // `cur`, whatever the release did to it. The release is recorded
        // before `publish`, so the checkpoint's record count covers it and a
        // crash replay cannot re-free the same bytes twice.
        if log_before != log_after {
            let freed = (log_before - log_after) as i64 * 4;
            let now = self.clock.now_ns();
            self.mem_sample(MemAccount::ReplayLog, self.id, now, -freed);
        }
        if let Some(m) = self.metrics.as_mut() {
            let g = &mut m.mem[MemAccount::ReplayLog as usize];
            g.set(log_before * 4);
            g.set(log_after * 4);
        }
        rec.publish(
            self.id,
            EpochSnapshot {
                completed: idx,
                clock: self.clock,
                mailbox: self.mailbox.clone(),
                transport: self.transport.snapshot(),
                records: self.obs.len(),
                metrics: self.metrics.as_ref().map(ProcMetrics::checkpoint),
                user: Box::new(state.clone()),
            },
        );
    }

    /// Respawn restoration: move the boundary snapshot into this processor,
    /// then replay the logged peer frames. Runs at the top of the resume
    /// epoch; the epochs before it were skipped, so nothing here is
    /// overwritten but the fresh state the respawn started with; a plan
    /// restored here holds no slots and makes fresh ones (see
    /// [`crate::pool`]).
    fn prepare_resume<S: Clone + Send + 'static>(&mut self, ctx: Box<ResumeCtx>, state: &mut S) {
        let rec = Arc::clone(self.recovery.as_ref().expect("resume without recovery"));
        let snap = ctx
            .snapshot
            .expect("snapshot-less resume handled at attach");
        self.clock = snap.clock;
        self.mailbox = snap.mailbox;
        self.transport.restore(snap.transport);
        self.obs.resume();
        if let (Some(m), Some(ms)) = (self.metrics.as_mut(), snap.metrics) {
            *m = ms;
        }
        *state = *snap
            .user
            .downcast::<S>()
            .expect("every epoch threads the same state type");
        self.inject_replay(ctx.replay, &rec);
    }

    /// Re-inject logged peer frames through the normal sequenced dispatch
    /// path: stale entries (already covered by the restored snapshot) are
    /// skipped, ordering and deduplication apply as if the frames had just
    /// arrived, and the acks dispatch posts on lossy links un-block peers
    /// parked in their boundary flush. The modelled recovery cost
    /// (`recovery_*` terms of the cost model) is recorded in the run's
    /// [`crate::RecoveryStats`] only — never added to the simulated clock,
    /// which must stay bit-identical to the fault-free run.
    fn inject_replay(&mut self, replay: Vec<(u64, Packet)>, rec: &Arc<RecoveryState>) {
        let now = self.clock.now_ns();
        let name = "recovery.replay";
        self.obs.event(
            now,
            EventKind::Marker {
                name: "recovery.resume",
            },
        );
        self.obs.event(now, EventKind::SpanBegin { name });
        let mut frames = 0u64;
        let mut words = 0u64;
        for (seq, pkt) in replay {
            if seq < self.transport.expected_from(pkt.src) {
                continue;
            }
            frames += 1;
            words += pkt.words as u64;
            if let Err(e) = self.dispatch(Frame::Data { seq, pkt }) {
                panic_any(e);
            }
        }
        let m = self.clock.model();
        let modelled_ns = m.recovery_restore_ns
            + frames as f64 * m.recovery_replay_tau_ns
            + words as f64 * m.recovery_replay_mu_ns;
        rec.note_replay(frames, words, modelled_ns);
        self.obs.event(now, EventKind::SpanEnd { name });
    }

    /// The retire barrier of [`crate::Machine::run_recoverable`]: no carrier
    /// retires before every processor has finished its program. A victim
    /// respawned from scratch re-sends every frame of its program; on a
    /// lossy link only a live peer can acknowledge them, and on any link
    /// only a live peer drains and counts the duplicates — data rounds
    /// alone do not keep a peer alive that has nothing left to receive
    /// (DESIGN.md §17).
    ///
    /// Flush first, so every own data frame on a lossy link is
    /// acknowledged while all peers are provably still here (none passes
    /// the barrier without this processor's frame); then an uncharged,
    /// clock-neutral dissemination barrier on [`tags::BARRIER`], whose every
    /// frame is consumed — hence, on a lossy link, acknowledged — before its
    /// receiver leaves.
    ///
    /// Should a peer hang, whoever the quiescent scheduler names reports it
    /// — possibly a processor waiting here; its wait chain leads on to the
    /// one that never arrived.
    pub(crate) fn retire_barrier(&mut self) -> Result<(), MachineError> {
        self.finish_transport()?;
        let n = self.nprocs();
        let mut shift = 1;
        while shift < n {
            self.send_uncharged((self.id + shift) % n, tags::BARRIER, ());
            self.try_recv_packet((self.id + n - shift) % n, tags::BARRIER)?;
            shift *= 2;
        }
        Ok(())
    }

    /// Wait until every one of this processor's sends on a lossy link has
    /// been acknowledged (at every epoch boundary, and before retiring);
    /// sends on other links are in their destinations' rings already, so on
    /// a plan with no lossy link this returns at once. Incoming data is
    /// still dispatched (acked where its link is lossy, and parked in the
    /// mailbox, where the leftover check will see it); a poison frame aborts
    /// the flush with the peer's failure.
    pub(crate) fn finish_transport(&mut self) -> Result<(), MachineError> {
        let acked = |p: &mut Self| (!p.transport.has_unacked()).then_some(());
        self.wait_for(None, acked, |_| {
            unreachable!("a park with unacknowledged frames is owed a retry")
        })
    }

    /// After the program closure returns: flush, then dispatch what is still
    /// in the ring — a late duplicate is counted by the processor it
    /// reached, and a message nobody received is in the mailbox, where the
    /// leftover check sees it, whether or not this processor had reason to
    /// look again.
    pub(crate) fn retire(&mut self) -> Result<(), MachineError> {
        self.finish_transport()?;
        while let Some(frame) = self.rx.try_recv() {
            self.dispatch(frame)?;
        }
        Ok(())
    }

    /// Number of unconsumed packets left in the mailbox (should be zero when
    /// a well-formed program finishes).
    pub(crate) fn leftover_messages(&self) -> usize {
        self.mailbox.len()
    }

    /// Tear down: read the transport's counters once, into the clock report
    /// and the `transport.*` metrics, freeze the metrics, and hand the
    /// recorder (decoded by the driver, or taken over by a respawn) and the
    /// channel endpoint back so the driver can keep it alive until all
    /// processors have joined.
    pub(crate) fn into_parts(mut self) -> (FrameReceiver, ProcParts) {
        let t = &self.transport;
        let clock = ClockReport {
            retransmits: t.retransmits,
            dup_drops: t.dup_drops,
            ..self.clock.report()
        };
        let metrics = self.metrics.take().map(|mut m| {
            m.wakes_filtered = self.sched.wakes_filtered(self.id);
            m.snapshot(&clock, t.frames)
        });
        let metrics = metrics.unwrap_or_default();
        (self.rx, (clock, metrics, self.obs))
    }

    /// Receive the raw packet from `src` under `tag`, leaving the payload
    /// type-erased. Clock semantics match [`Proc::recv`]; pooled exchange
    /// paths use this to defer the downcast until decode time.
    ///
    /// # Panics
    /// As [`Proc::recv`].
    pub fn recv_packet(&mut self, src: usize, tag: u64) -> Packet {
        self.step(Step::Recv);
        let pkt = match self.try_recv_packet(src, tag) {
            Ok(p) => p,
            Err(e) => panic_any(e),
        };
        self.observe_consume(&pkt);
        pkt
    }

    /// Check a reusable send buffer out of the keyed adapter's slot for
    /// `(key, dst)`, created on first use: [`Proc::slot_checkout`] through
    /// a slot looked up by key. The adapter exists only for
    /// `benchmark/src/probes.rs`; a plan holds its own slots.
    ///
    /// # Panics
    /// As [`Proc::slot_checkout`].
    pub fn pool_checkout<B: Reusable>(&mut self, key: u64, dst: usize) -> (Arc<PoolSlot<B>>, B) {
        let slot = self.pool.get_or_create::<B>(key, dst);
        let buf = self.slot_checkout(&slot, dst);
        (slot, buf)
    }

    /// Check the buffer of `slot`, which sends to `dst`, out for filling:
    /// one message per slot is in flight at a time.
    ///
    /// If the slot is still staged or checked out — the receiver has not
    /// finished with the *previous* send through it — this blocks
    /// (wall-clock only; the simulated clock is untouched) until the
    /// receiver returns the buffer, dispatching incoming frames meanwhile
    /// so progress is never stalled by the wait itself.
    ///
    /// # Panics
    /// With a typed [`MachineError::PoolStall`] when the machine goes
    /// quiescent first: the receiver stalled, kept the previous message
    /// undecoded while waiting for this one, or the plan was executed
    /// unevenly.
    pub fn slot_checkout<B: Reusable>(&mut self, slot: &PoolSlot<B>, dst: usize) -> B {
        if let Some(buf) = slot.try_checkout() {
            return buf;
        }
        match self.wait_on_slot(slot, dst, PoolSlot::try_checkout) {
            Ok(buf) => buf,
            Err(e) => panic_any(e),
        }
    }

    /// Wait until `probe` finds `slot` as this processor needs it: a buffer
    /// to check out, or a loan come back. The slow path registers as the
    /// slot's waker and waits. The receiver's `put_back` or read — on
    /// whatever carrier it runs — unparks this processor directly, as does
    /// any incoming frame; there is no spinning or polling anywhere on this
    /// path. The waker raises the slot's owner-parked flag before the first
    /// probe below, so a return that lands in between is seen by one side or
    /// the other (§11). A machine that goes quiescent first is a
    /// [`MachineError::PoolStall`] naming this processor and `dst`.
    pub(crate) fn wait_on_slot<B: Reusable, T>(
        &mut self,
        slot: &PoolSlot<B>,
        dst: usize,
        mut probe: impl FnMut(&PoolSlot<B>) -> Option<T>,
    ) -> Result<T, MachineError> {
        if let Some(v) = probe(slot) {
            return Ok(v);
        }
        slot.set_waker(Some((Arc::clone(&self.sched), self.id)));
        let got = self.wait_for(
            None,
            |_| probe(slot),
            |p| MachineError::PoolStall { proc: p.id, dst },
        );
        slot.set_waker(None);
        got
    }

    /// Whether a planned send may lend its source instead of copying it
    /// ([`Proc::lending`]): not under crash recovery with a plan that is not
    /// benign, whose replay log must keep the bytes a frame was sent with.
    pub fn can_lend(&self) -> bool {
        !self.transport.recovering()
    }

    /// Run `f` as a lending scope over `table`, whose row `k` sends to
    /// `dsts[k]`. Inside it, [`Lender::lend`] puts a loan of data borrowed
    /// for `'a` into a row's slot, in place of a filled buffer; the exchange
    /// sends it like a staged one, and the receiver reads it in place
    /// through [`PoolSlot::receive`]. This returns only once every slot of
    /// the table is `Free` again — every loan read, every staged buffer put
    /// back —, waiting (wall-clock only) as [`Proc::slot_checkout`] waits
    /// for a buffer; if `f` unwinds, or the wait fails, every loan still out
    /// is revoked first, so no receiver can read one after `'a` ends
    /// (DESIGN.md §11). The scope borrows the table, so it outlives every
    /// loan.
    ///
    /// # Panics
    /// With a typed [`MachineError::PoolStall`] naming this processor when
    /// the machine goes quiescent before a slot is back, and with whatever
    /// `f` panicked with.
    pub fn lending<'a, B: Lendable, R>(
        &mut self,
        table: &'a [Arc<PoolSlot<B>>],
        dsts: &'a [u32],
        f: impl FnOnce(&mut Self, &mut Lender<'a, B>) -> R,
    ) -> R {
        crate::pool::lending(self, table, dsts, f)
    }

    /// The keyed adapter's slot of `(key, dst)`, which
    /// [`Proc::pool_checkout`] has handed out — the one whose buffer is
    /// staged or in flight. [`crate::collectives::alltoallv_pooled`] sends
    /// it.
    ///
    /// # Panics
    /// If `(key, dst)` was never checked out.
    pub fn pool_current<B: Reusable>(&self, key: u64, dst: usize) -> Arc<PoolSlot<B>> {
        self.pool.get::<B>(key, dst)
    }

    /// Give a slot table up: release what its slots charged to the `pool`
    /// account, their high water. For a plan that will not execute again
    /// with this table's element type; the slots themselves are freed with
    /// their last handle — a packet still in flight holds one until its
    /// receiver has decoded it.
    pub fn release_slots<B: Reusable>(&mut self, table: &[Arc<PoolSlot<B>>]) {
        let charged: u64 = table.iter().map(|slot| slot.charged()).sum();
        if charged > 0 {
            self.mem_release(MemAccount::Pool, charged);
        }
    }

    /// Send the staged contents of a pooled slot to `dst` under `tag`.
    ///
    /// Identical to [`Proc::send`] in every charged and observed respect,
    /// but the packet payload is the `Arc`-shared slot itself: no buffer
    /// changes hands, and the receiver returns it via
    /// [`PoolSlot::put_back`]. Under crash recovery on a link with a
    /// possible victim at either end, what travels is a frozen copy
    /// (`PoolSlot::freeze`) and `slot` is free again on return: a replayed
    /// frame must find the bytes it was sent with, which a buffer the sender
    /// refills cannot promise, and a respawned victim's re-send is dropped
    /// undecoded, so a live slot would never come back.
    pub fn send_pooled<B: Reusable>(&mut self, dst: usize, tag: u64, slot: Arc<PoolSlot<B>>) {
        debug_assert_ne!(dst, self.id, "self slots are decoded in place, never sent");
        let (words, lent) = slot.staged_words();
        // A pooled buffer's footprint is its high-water capacity, charged
        // once to the pool account as it grows and released when its plan
        // gives the table up ([`Proc::release_slots`]); until then the
        // buffer is reused.
        // Steady-state sends through a warm slot charge nothing, preserving
        // the executor's allocation-free hot path. A loan holds no buffer:
        // its bytes are the sender's own array.
        let observed = self.obs.traces() || self.metrics.is_some();
        if observed && !lent {
            let growth = slot.note_charged(words as u64 * 4);
            if growth > 0 {
                let now = self.clock.now_ns();
                self.mem_sample(MemAccount::Pool, self.id, now, growth as i64);
            }
        }
        let frozen = self.transport.freezes_to(dst);
        assert!(!(frozen && lent), "a loan sent on a link that freezes");
        let data: Arc<dyn Any + Send + Sync> = if frozen {
            Arc::new(slot.freeze())
        } else {
            slot
        };
        self.send_arc(dst, tag, words, data, frozen);
    }

    /// Borrow the processor's packet scratch vector (empty, with the
    /// capacity earlier exchanges left it). Callers must hand it back with
    /// [`Proc::restore_pkt_scratch`] once drained.
    pub fn take_pkt_scratch(&mut self) -> Vec<Packet> {
        debug_assert!(self.pkt_scratch.is_empty());
        std::mem::take(&mut self.pkt_scratch)
    }

    /// Return the packet scratch vector, keeping its capacity for the next
    /// pooled exchange.
    pub fn restore_pkt_scratch(&mut self, mut scratch: Vec<Packet>) {
        scratch.clear();
        self.pkt_scratch = scratch;
    }
}
