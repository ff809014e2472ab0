//! The per-processor handle given to SPMD program closures.
//!
//! A [`Proc`] bundles the processor's identity on the logical grid, its
//! private simulated clock, and its message endpoints. All communication —
//! point-to-point sends and the collectives built on top of them — flows
//! through this handle, which is how every byte gets charged to the cost
//! model. When the machine carries a [`crate::fault::FaultPlan`], the same
//! handle transparently routes charged traffic over the reliable transport
//! (see [`crate::reliable`]).

use std::any::Any;
use std::panic::panic_any;
use std::sync::Arc;

use crate::chan::{FrameReceiver, FrameSender};
use crate::cost::{Category, SimClock, Words};
use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::message::{Frame, Mailbox, Packet, Payload, PayloadCharge};
use crate::obs::{
    Event, EventKind, MemAccount, ObsConfig, ProcMetrics, TransportEvent, WallProfile, WallProfiler,
};
use crate::pool::{BufferPool, PoolSlot, Reusable};
use crate::recovery::{Checkpoint, EpochSnapshot, RecoveryState, ResumeCtx};
use crate::reliable::Transport;
use crate::sched::{ParkOutcome, Scheduler};
use crate::topology::ProcGrid;

/// Cap on the per-processor packet-scratch pre-reserve. Reserving a full
/// P-length scratch on every processor is P² machine-wide (~1 GB at
/// P=4096); pooled exchanges rarely buffer more than a round's fan-in, and
/// any overflow grows the vector on the first execute — before the
/// steady-state zero-allocation window begins.
const PKT_SCRATCH_RESERVE: usize = 256;

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
    /// Gather/scatter/allgather traffic.
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
    senders: &'m [FrameSender],
    rx: FrameReceiver,
    /// The cooperative scheduler multiplexing virtual processors over the
    /// machine's worker threads. Every wait in this file parks here — a
    /// stack switch — instead of blocking or spinning, so a bounded pool
    /// can carry thousands of processors (see DESIGN.md §15).
    sched: Arc<Scheduler>,
    mailbox: Mailbox,
    /// Reliable transport state; present iff the machine carries a
    /// non-benign fault plan.
    transport: Option<Transport>,
    /// Charged words sent to each destination (self-sends excluded).
    words_to: Vec<u64>,
    /// Structured event log, present iff the machine traces.
    events: Option<Vec<Event>>,
    /// Counters and gauges, present iff the machine keeps metrics.
    metrics: Option<ProcMetrics>,
    /// Wall-clock span recorder, present iff wall profiling is enabled.
    /// Strictly wall-side: it never reads or charges the simulated clock.
    wall: Option<WallProfiler>,
    /// Reusable send buffers for planned executes (see [`crate::pool`]).
    pool: BufferPool,
    /// Scratch space for pooled exchanges' received packets, pre-reserved
    /// so the steady-state execute loop never grows it.
    pkt_scratch: Vec<Packet>,
    /// Shared crash-recovery state; present iff the machine is running
    /// under [`crate::Machine::run_recoverable`].
    recovery: Option<Arc<RecoveryState>>,
    /// Pending resume context on a respawned processor; consumed by the
    /// first [`Proc::epoch`] call at the resume epoch.
    resume: Option<ResumeCtx>,
    /// Index of the next epoch this processor will enter.
    epoch_idx: usize,
    /// False on a respawned processor: the crash schedule already fired once
    /// and must not fire again during re-execution.
    crash_armed: bool,
}

impl<'m> Proc<'m> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        grid: &'m ProcGrid,
        clock: SimClock,
        senders: &'m [FrameSender],
        rx: FrameReceiver,
        plan: Option<Arc<FaultPlan>>,
        obs: ObsConfig,
        sched: Arc<Scheduler>,
    ) -> Self {
        let nprocs = grid.nprocs();
        let mut transport = plan
            .filter(|p| !p.is_benign())
            .map(|p| Transport::new(p, nprocs));
        if let Some(t) = transport.as_mut() {
            t.record = !obs.is_off();
        }
        let mut proc = Proc {
            id,
            grid,
            clock,
            senders,
            rx,
            sched,
            mailbox: Mailbox::new(),
            transport,
            words_to: vec![0; nprocs],
            events: obs.events.then(Vec::new),
            metrics: obs.metrics.then(ProcMetrics::default),
            wall: obs.wall.then(WallProfiler::new),
            pool: BufferPool::default(),
            pkt_scratch: Vec::with_capacity(nprocs.min(PKT_SCRATCH_RESERVE)),
            recovery: None,
            resume: None,
            epoch_idx: 0,
            crash_armed: true,
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
    /// runs. A respawned processor disarms the crash schedule — it already
    /// fired — and, when no epoch had completed before the crash, performs
    /// its replay immediately: the program restarts from scratch, peers
    /// dedup its re-sent frames by sequence number, and the (never
    /// truncated) replay log re-supplies everything peers had sent it.
    pub(crate) fn attach_recovery(&mut self, state: Arc<RecoveryState>, resume: Option<ResumeCtx>) {
        self.recovery = Some(state);
        if let Some(r) = resume {
            self.crash_armed = false;
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

    /// This processor's grid coordinates (innermost dimension first).
    pub fn coords(&self) -> Vec<usize> {
        self.grid.coords(self.id)
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

    /// Run `f` with the clock's ambient category set to `cat`, restoring the
    /// previous category afterwards.
    pub fn with_category<R>(&mut self, cat: Category, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.clock.set_category(cat);
        let out = f(self);
        self.clock.set_category(prev);
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

    /// Append one structured event (no-op unless the machine traces).
    #[inline]
    fn record(&mut self, ts_ns: f64, kind: EventKind) {
        if let Some(ev) = self.events.as_mut() {
            ev.push(Event { ts_ns, kind });
        }
    }

    /// Record one memory-accounting sample: a [`EventKind::MemSample`]
    /// event when tracing, and — when `owner` is this processor — a
    /// `mem.<account>.cur` gauge update when metrics are on. A sender
    /// charging a destination's replay-log account records only the event;
    /// the destination maintains its own gauge at epoch boundaries, where
    /// the interval peak becomes known (see [`Proc::epoch_boundary`]).
    fn mem_sample(&mut self, account: MemAccount, owner: usize, ts_ns: f64, delta_bytes: i64) {
        self.record(
            ts_ns,
            EventKind::MemSample {
                account,
                owner,
                delta_bytes,
            },
        );
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
        if self.events.is_none() && self.metrics.is_none() {
            return;
        }
        let now = self.clock.now_ns();
        self.mem_sample(account, self.id, now, bytes as i64);
    }

    /// Release bytes previously charged with [`Proc::mem_charge`].
    pub fn mem_release(&mut self, account: MemAccount, bytes: u64) {
        if self.events.is_none() && self.metrics.is_none() {
            return;
        }
        let now = self.clock.now_ns();
        self.mem_sample(account, self.id, now, -(bytes as i64));
    }

    /// Run `f` as the named algorithm stage. When tracing is on, the stage
    /// is bracketed by [`EventKind::SpanBegin`]/[`EventKind::SpanEnd`]
    /// events; one branch when it is off.
    ///
    /// Stage names are `"."`-separated and stable — they are the join key
    /// between traces, metrics, perf reports, and the paper's section
    /// structure (see DESIGN.md §8).
    pub fn with_stage<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        // Every simulated stage is also bracketed by a wall-clock span when
        // profiling is on, so wall and simulated views share the same stage
        // vocabulary without instrumenting call sites twice. Wall recording
        // never touches the simulated side below.
        if self.wall.is_none() {
            return self.with_stage_sim(name, f);
        }
        self.wall_span(name, |p| p.with_stage_sim(name, f))
    }

    /// The simulated half of [`Proc::with_stage`]: the event span.
    fn with_stage_sim<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.events.is_none() {
            return f(self);
        }
        let t0 = self.clock.now_ns();
        self.record(t0, EventKind::SpanBegin { name });
        let out = f(self);
        let t1 = self.clock.now_ns();
        self.record(t1, EventKind::SpanEnd { name });
        out
    }

    /// Run `f` inside a wall-clock span named `name`. A single `Option`
    /// branch when wall profiling is off — the default, keeping the
    /// steady-state execute loop's zero-allocation guarantee intact. The
    /// span records monotonic wall nanoseconds only; the simulated clock,
    /// event log, and metrics are untouched, so enabling profiling can
    /// never perturb simulated results.
    #[inline]
    pub fn wall_span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.wall.is_none() {
            return f(self);
        }
        if let Some(w) = self.wall.as_mut() {
            w.begin(name);
        }
        let out = f(self);
        if let Some(w) = self.wall.as_mut() {
            w.end();
        }
        out
    }

    /// Attribute `bytes` of payload movement to the innermost open wall
    /// span, so the profile can report effective copy bandwidth per stage.
    /// No-op unless wall profiling is on.
    #[inline]
    pub fn wall_bytes(&mut self, bytes: u64) {
        if let Some(w) = self.wall.as_mut() {
            w.add_bytes(bytes);
        }
    }

    /// Drop a named point annotation at the current simulated time (e.g. a
    /// collective phase boundary). No-op unless the machine traces.
    #[inline]
    pub fn marker(&mut self, name: &'static str) {
        if self.events.is_some() {
            let now = self.clock.now_ns();
            self.record(now, EventKind::Marker { name });
        }
    }

    /// Increment the named counter by `n` (no-op unless the machine was
    /// built with metrics). Library layers use this for algorithm-level
    /// counters (e.g. `plan.cache.hit`) that surface in
    /// [`crate::RunOutput::merged_metrics`] next to the transport counters;
    /// `name` must be one DESIGN.md §8 lists.
    pub fn inc_counter(&mut self, name: &'static str, n: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.add(name, n);
        }
    }

    /// Timestamp and fold the transport's buffered observations into the
    /// event log and metrics. What this processor did — a verdict drawn, a
    /// retransmission — carries its current simulated time (it drains right
    /// after acting); a dropped duplicate carries the frame's own arrival
    /// time, since *when* this processor looked at its ring follows the
    /// interleaving. (Uncharged control frames have no arrival time; theirs
    /// are stamped now.)
    fn drain_transport_events(&mut self) {
        let evs = match self.transport.as_mut() {
            Some(t) if t.record => t.take_events(),
            _ => return,
        };
        if evs.is_empty() {
            return;
        }
        let now = self.clock.now_ns();
        for ev in evs {
            match ev {
                TransportEvent::Retransmit(dst, seq, attempt) => {
                    self.record(now, EventKind::Retransmit { dst, seq, attempt });
                    if let Some(m) = self.metrics.as_mut() {
                        m.retransmits += 1;
                    }
                }
                TransportEvent::DupDrop(src, seq, arrival_ns) => {
                    let at = if arrival_ns.is_finite() {
                        arrival_ns
                    } else {
                        now
                    };
                    self.record(at, EventKind::DupDrop { src, seq });
                    if let Some(m) = self.metrics.as_mut() {
                        m.dup_drops += 1;
                    }
                }
                TransportEvent::Verdict(dst, seq, verdict) => {
                    self.record(now, EventKind::FaultVerdict { dst, seq, verdict });
                }
            }
        }
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
    /// crash-step accounting, the `τ + μ·m` charge, the replay-log append,
    /// the transport (or raw) send, events, memory samples and metrics.
    /// `owned` says the payload is an allocation made for this message —
    /// charged to the sender's `payload` account while any copy of the
    /// packet lives — rather than a pool slot the sender keeps (charged to
    /// `pool` as it grows).
    fn send_arc(
        &mut self,
        dst: usize,
        tag: u64,
        words: Words,
        data: Arc<dyn Any + Send + Sync>,
        owned: bool,
    ) {
        if let Some(t) = self.transport.as_mut() {
            t.send_steps += 1;
            if self.crash_armed {
                if let Some((proc, step)) = t.plan().crash() {
                    if proc == self.id && t.send_steps == step {
                        panic_any(MachineError::ProcCrashed { proc, step });
                    }
                }
            }
        }
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
            self.words_to[dst] += words as u64;
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
        let mut logged_replay = false;
        let seq = match self.transport.as_mut() {
            None => {
                self.send_raw(dst, pkt);
                None
            }
            Some(t) => {
                // Log *before* transmitting, under the sequence number the
                // send will assign: once the frame is on the wire the
                // receiver may consume it and crash at any moment, and the
                // recovery driver's log clone must already hold everything
                // the victim consumed. The logged arrival is the *delayed*
                // one — the replayed packet must be bit-identical to the one
                // the transport puts on the wire (the delay is keyed by
                // sequence number alone).
                if let Some(rec) = self.recovery.as_ref() {
                    let s = t.next_seq_for(dst);
                    let arrival = arrival_ns + t.plan().delay_ns(self.id, dst, s);
                    rec.log_frame(
                        dst,
                        s,
                        Packet {
                            arrival_ns: arrival,
                            ..pkt.clone()
                        },
                    );
                    logged_replay = true;
                }
                Some(t.send(self.id, self.senders, dst, pkt))
            }
        };
        if words > 0 {
            let bytes = words as i64 * 4;
            if self.events.is_some() {
                let now = self.clock.now_ns();
                self.record(
                    now,
                    EventKind::Send {
                        dst,
                        tag,
                        words,
                        seq,
                        arrival_ns,
                    },
                );
                if owned {
                    // In simulated time the in-flight payload occupies the
                    // sender from the send until the (pre-delay) arrival;
                    // the event pair brackets exactly that interval.
                    // Recorded directly — the gauge side is the guard's.
                    for (ts, delta_bytes) in [(now, bytes), (arrival_ns, -bytes)] {
                        self.record(
                            ts,
                            EventKind::MemSample {
                                account: MemAccount::Payload,
                                owner: self.id,
                                delta_bytes,
                            },
                        );
                    }
                }
            }
            if logged_replay {
                // The replay log retains a copy of this frame on the
                // destination's behalf until *its* next epoch boundary:
                // charged to the destination's account (owner ≠ recorder —
                // event only; the destination squares its own gauge with
                // the truncation at the boundary).
                let now = self.clock.now_ns();
                self.mem_sample(MemAccount::ReplayLog, dst, now, bytes);
            }
            if let Some(m) = self.metrics.as_mut() {
                m.msg_sent += 1;
            }
        }
        // The first transmission attempt may already have drawn a fault
        // verdict worth annotating.
        if seq.is_some() {
            self.drain_transport_events();
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
        self.note_recv_step();
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
                    *(*shared)
                        .clone_payload()
                        .downcast::<P>()
                        .expect("clone_payload must preserve the payload type")
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

    /// Count one program-level receive and fire the fault plan's recv-side
    /// crash schedule when armed. Uncharged control receives (clock sync)
    /// and the transport's internal pumping never reach this counter, so
    /// epoch boundaries are crash-free by construction.
    fn note_recv_step(&mut self) {
        if let Some(t) = self.transport.as_mut() {
            t.recv_steps += 1;
            if self.crash_armed {
                if let Some((proc, step)) = t.plan().crash_at_recv() {
                    if proc == self.id && t.recv_steps == step {
                        panic_any(MachineError::ProcCrashed { proc, step });
                    }
                }
            }
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
        if self.events.is_some() && !self.clock.is_muted() {
            let now = self.clock.now_ns();
            self.record(
                now,
                EventKind::Consume {
                    src: pkt.src,
                    tag: pkt.tag,
                    words: pkt.words,
                    waited_ns: (now - before).max(0.0),
                    arrival_ns: pkt.arrival_ns,
                },
            );
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
        let retry = self.transport.as_ref().is_some_and(|t| t.has_unacked());
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
                    let t = self.transport.as_mut().expect("only a transport retries");
                    t.pump(self.id, self.senders)?;
                    self.drain_transport_events();
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
                self.note_mailbox_depth();
            }
            Frame::Data { seq, pkt } => {
                let ready = self
                    .transport
                    .as_mut()
                    .expect("sequenced frame on a machine without a fault plan")
                    .on_data(self.id, self.senders, seq, pkt);
                // Surface any duplicate-drop annotation the frame produced.
                self.drain_transport_events();
                for (s, p) in ready {
                    self.note_delivery(&p, Some(s));
                    self.mailbox.hold(p);
                }
                self.note_mailbox_depth();
            }
            Frame::Ack { from, seq } => {
                if let Some(t) = self.transport.as_mut() {
                    t.on_ack(from, seq);
                }
            }
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
        if self.events.is_some() {
            self.record(
                pkt.arrival_ns,
                EventKind::Recv {
                    src: pkt.src,
                    tag: pkt.tag,
                    words: pkt.words,
                    seq,
                },
            );
        }
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

    /// Sample the mailbox backlog gauge (after a delivery).
    #[inline]
    fn note_mailbox_depth(&mut self) {
        if let Some(m) = self.metrics.as_mut() {
            m.mailbox_depth.set(self.mailbox.len() as u64);
        }
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
        if self.events.is_some() && t_max > t0 {
            self.record(
                t_max,
                EventKind::Barrier {
                    owner,
                    waited_ns: t_max - t0,
                },
            );
        }
    }

    /// Send without touching the clock (simulator-internal control traffic,
    /// carried by the modelled control network: never fault-injected).
    ///
    /// Under crash recovery, remote control frames are sequenced through
    /// the reliable transport like everything else — an unsequenced frame
    /// consumed just before a crash could not be deduplicated against its
    /// replayed copy. Zero charged words and a `-∞` arrival keep them
    /// invisible to the cost model, events, and metrics either way.
    pub(crate) fn send_uncharged<P: Payload>(&mut self, dst: usize, tag: u64, data: P) {
        if dst != self.id {
            if let (Some(rec), Some(t)) = (self.recovery.as_ref(), self.transport.as_mut()) {
                let data: Arc<dyn Any + Send + Sync> = Arc::new(data);
                // Log before transmitting (see `Proc::send`): the receiver
                // may consume the frame and crash before a post-send log
                // append would land, and the replay clone must not miss it.
                rec.log_frame(
                    dst,
                    t.next_seq_for(dst),
                    Packet {
                        src: self.id,
                        tag,
                        arrival_ns: f64::NEG_INFINITY,
                        words: 0,
                        data: Arc::clone(&data),
                        charge: None,
                    },
                );
                t.send(
                    self.id,
                    self.senders,
                    dst,
                    Packet {
                        src: self.id,
                        tag,
                        arrival_ns: f64::NEG_INFINITY,
                        words: 0,
                        data,
                        charge: None,
                    },
                );
                self.drain_transport_events();
                return;
            }
        }
        let words = data.wire_words();
        let pkt = Packet {
            src: self.id,
            tag,
            arrival_ns: f64::NEG_INFINITY,
            words,
            data: Arc::new(data),
            charge: None,
        };
        if dst == self.id {
            self.mailbox.hold(pkt);
        } else {
            self.send_raw(dst, pkt);
        }
    }

    /// Put one unsequenced frame on `dst`'s ring. The receiver's endpoint
    /// lives as long as the run (the driver keeps channel endpoints until
    /// every processor has finished).
    fn send_raw(&mut self, dst: usize, pkt: Packet) {
        self.senders[dst].send_raw(pkt);
        if let Some(m) = self.metrics.as_mut() {
            m.msg_frames += 1;
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

    /// Run `body` as one **epoch** — the unit of crash recovery (see
    /// [`crate::recovery`]). The epoch ends with a machine-wide barrier
    /// (transport flush + uncharged clock sync, identical whether or not
    /// recovery is attached), after which the processor's recoverable state
    /// — clock, mailbox, transport counters, pool rotation, metrics, and
    /// `state` via [`Checkpoint`] — is snapshotted under
    /// [`crate::Machine::run_recoverable`].
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
    pub fn epoch<S: Checkpoint>(&mut self, state: &mut S, body: impl FnOnce(&mut Self, &mut S)) {
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
    /// the sync guarantees every peer has acked this processor's sends; the
    /// barrier then implies *all* processors have flushed, so the transport's
    /// `expected` counters are final for the epoch and the replay log can be
    /// truncated to frames at or above them. The second flush covers the
    /// sync frames themselves, which travel sequenced under recovery.
    fn epoch_boundary<S: Checkpoint>(&mut self, idx: usize, state: &S) {
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
        let expected = self.transport.as_ref().map(|t| t.expected_all().to_vec());
        let (log_before, log_after) = rec.truncate_log(self.id, expected.as_deref());
        // Square this processor's replay-log account with the truncation.
        // Senders charged the account event-side only (owner ≠ recorder),
        // so the gauge learns the interval peak here — an absolute `set` to
        // the pre-truncation words raises `max`, a second to the floor sets
        // `cur`. The event-side release is recorded before `publish` so the
        // boundary snapshot already contains it and a crash replay cannot
        // re-free the same bytes twice.
        if log_before != log_after {
            let now = self.clock.now_ns();
            self.record(
                now,
                EventKind::MemSample {
                    account: MemAccount::ReplayLog,
                    owner: self.id,
                    delta_bytes: -((log_before - log_after) as i64 * 4),
                },
            );
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
                clock: self.clock.clone(),
                mailbox: self.mailbox.clone(),
                transport: self.transport.as_ref().map(|t| t.snapshot()),
                words_to: self.words_to.clone(),
                events: self.events.clone().unwrap_or_default(),
                metrics: self.metrics.as_ref().map(ProcMetrics::checkpoint),
                pool: self.pool.snapshot(),
                user: state.snapshot(),
            },
        );
        if let Some(m) = self.metrics.as_mut() {
            m.add("recovery.epochs", 1);
        }
    }

    /// Respawn restoration: load the boundary snapshot into this processor,
    /// then replay the logged peer frames. Runs at the top of the resume
    /// epoch, after any (re-executed, about-to-be-overwritten) earlier work.
    fn prepare_resume<S: Checkpoint>(&mut self, ctx: ResumeCtx, state: &mut S) {
        let rec = Arc::clone(self.recovery.as_ref().expect("resume without recovery"));
        let snap = ctx
            .snapshot
            .expect("snapshot-less resume handled at attach");
        self.clock = snap.clock;
        self.mailbox = snap.mailbox;
        if let (Some(t), Some(ts)) = (self.transport.as_mut(), snap.transport.as_ref()) {
            t.restore(ts);
        }
        self.words_to = snap.words_to;
        if let Some(ev) = self.events.as_mut() {
            *ev = snap.events;
        }
        if let (Some(m), Some(ms)) = (self.metrics.as_mut(), snap.metrics) {
            *m = ms;
        }
        self.pool.restore(&snap.pool);
        state.restore(snap.user);
        self.inject_replay(ctx.replay, &rec);
    }

    /// Re-inject logged peer frames through the normal sequenced dispatch
    /// path: stale entries (already covered by the restored snapshot) are
    /// skipped, ordering and deduplication apply as if the frames had just
    /// arrived, and the acks posted by dispatch un-block peers parked in
    /// their boundary flush. The modelled recovery cost (`recovery_*` terms
    /// of the cost model) is recorded in metrics and stats only — never
    /// added to the simulated clock, which must stay bit-identical to the
    /// fault-free run.
    fn inject_replay(&mut self, replay: Vec<(u64, Packet)>, rec: &Arc<RecoveryState>) {
        let now = self.clock.now_ns();
        self.record(
            now,
            EventKind::Marker {
                name: "recovery.resume",
            },
        );
        self.record(
            now,
            EventKind::SpanBegin {
                name: "recovery.replay",
            },
        );
        let mut frames = 0u64;
        let mut words = 0u64;
        for (seq, pkt) in replay {
            let live = match self.transport.as_ref() {
                Some(t) => seq >= t.expected_from(pkt.src),
                None => true,
            };
            if !live {
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
        self.record(
            now,
            EventKind::SpanEnd {
                name: "recovery.replay",
            },
        );
        if let Some(mtr) = self.metrics.as_mut() {
            mtr.add("recovery.replays", 1);
            mtr.add("recovery.replayed_frames", frames);
            mtr.add("recovery.replay_ms", (modelled_ns / 1e6).round() as u64);
        }
    }

    /// The retire barrier of [`crate::Machine::run_recoverable`]: no carrier
    /// retires before every processor has finished its program. A victim
    /// respawned from scratch re-sends every frame of its program, and only
    /// a live peer can acknowledge them — data rounds alone do not keep a
    /// peer alive that has nothing left to receive (DESIGN.md §17).
    ///
    /// Flush first, so every own data frame is acknowledged while all peers
    /// are provably still here (none passes the barrier without this
    /// processor's frame); then an uncharged, clock-neutral dissemination
    /// barrier on [`tags::BARRIER`], whose every frame is consumed — hence
    /// acknowledged — before its receiver leaves.
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

    /// Wait until every one of this processor's sends has been acknowledged
    /// (at every epoch boundary, and before retiring). Incoming data is
    /// still acked (and parked in the mailbox, where the leftover check will
    /// see it); a poison frame aborts the flush with the peer's failure.
    pub(crate) fn finish_transport(&mut self) -> Result<(), MachineError> {
        let acked = |p: &mut Self| {
            let t = p.transport.as_ref();
            t.is_none_or(|t| !t.has_unacked()).then_some(())
        };
        self.wait_for(None, acked, |_| {
            unreachable!("a park with unacknowledged frames is owed a retry")
        })
    }

    /// After the program closure returns: flush, then dispatch what is still
    /// in the ring — a late duplicate is counted by the processor it
    /// reached, whether or not that processor had reason to look again.
    pub(crate) fn retire(&mut self) -> Result<(), MachineError> {
        self.finish_transport()?;
        if self.transport.is_some() {
            while let Some(frame) = self.rx.try_recv() {
                self.dispatch(frame)?;
            }
        }
        Ok(())
    }

    /// Number of unconsumed packets left in the mailbox (should be zero when
    /// a well-formed program finishes).
    pub(crate) fn leftover_messages(&self) -> usize {
        self.mailbox.len()
    }

    /// Tear down: fold transport diagnostics into the clock, freeze the
    /// event log and metrics, and hand the channel endpoint back so the
    /// driver can keep it alive until all processors have joined.
    pub(crate) fn into_parts(
        mut self,
    ) -> (
        SimClock,
        Vec<u64>,
        FrameReceiver,
        Vec<Event>,
        crate::report::MetricsSnapshot,
        WallProfile,
    ) {
        self.drain_transport_events();
        if let Some(t) = self.transport.as_ref() {
            self.clock.note_transport(t.retransmits, t.dup_drops);
        }
        if let Some(m) = self.metrics.as_mut() {
            m.msg_frames += self.transport.as_ref().map_or(0, |t| t.frames);
            m.add("sched.wakes_filtered", self.sched.wakes_filtered(self.id));
        }
        let events = self.events.take().unwrap_or_default();
        let metrics = self
            .metrics
            .take()
            .map(|m| m.snapshot())
            .unwrap_or_default();
        let wall = self
            .wall
            .take()
            .map(WallProfiler::finish)
            .unwrap_or_default();
        (self.clock, self.words_to, self.rx, events, metrics, wall)
    }

    /// Receive the raw packet from `src` under `tag`, leaving the payload
    /// type-erased. Clock semantics match [`Proc::recv`]; pooled exchange
    /// paths use this to defer the downcast until decode time.
    ///
    /// # Panics
    /// As [`Proc::recv`].
    pub fn recv_packet(&mut self, src: usize, tag: u64) -> Packet {
        self.note_recv_step();
        let pkt = match self.try_recv_packet(src, tag) {
            Ok(p) => p,
            Err(e) => panic_any(e),
        };
        self.observe_consume(&pkt);
        pkt
    }

    /// Check a reusable send buffer out of this processor's pool for plan
    /// `key`, destination `dst`. Advances the entry's two-slot rotation.
    ///
    /// If the slot is still staged or checked out — the receiver has not
    /// finished with the *previous* execute's send through it — this blocks
    /// (wall-clock only; the simulated clock is untouched) until the
    /// receiver returns the buffer, dispatching incoming frames meanwhile
    /// so progress is never stalled by the wait itself.
    ///
    /// # Panics
    /// With a typed [`MachineError::PoolStall`] when the machine goes
    /// quiescent first: the receiver stalled, or the plan was executed
    /// unevenly.
    pub fn pool_checkout<B: Reusable>(&mut self, key: u64, dst: usize) -> (Arc<PoolSlot<B>>, B) {
        let slot = self.pool.next_slot::<B>(key, dst);
        if let Some(buf) = slot.try_checkout() {
            return (slot, buf);
        }
        // Slow path: register as the slot's waker and wait. The receiver's
        // `put_back` — on whatever carrier it runs — unparks this processor
        // directly, as does any incoming frame; there is no spinning or
        // polling anywhere on this path.
        slot.set_waker(Some((Arc::clone(&self.sched), self.id)));
        let got = self.wait_for(
            None,
            |_| slot.try_checkout(),
            |p| MachineError::PoolStall {
                proc: p.id,
                key,
                dst,
            },
        );
        slot.set_waker(None);
        match got {
            Ok(buf) => (slot, buf),
            Err(e) => panic_any(e),
        }
    }

    /// The slot most recently checked out for `(key, dst)` — the one whose
    /// buffer is currently staged/in flight. The self-message path uses
    /// this at decode time (sender and receiver are the same processor).
    pub fn pool_current<B: Reusable>(&self, key: u64, dst: usize) -> Arc<PoolSlot<B>> {
        self.pool.current_slot::<B>(key, dst)
    }

    /// Give plan `key`'s send buffers back: its pool entries are dropped and
    /// what they charged to the `pool` account is released. For a plan that
    /// will not execute again (one-shot `pack` / `unpack`); every buffer it
    /// sent must have been handed to the exchange already — one still in
    /// flight is freed by its receiver's decode.
    pub fn pool_retire(&mut self, key: u64) {
        let charged = self.pool.retire(key);
        if charged > 0 {
            self.mem_release(MemAccount::Pool, charged);
        }
    }

    /// Send the staged contents of a pooled slot to `dst` under `tag`.
    ///
    /// Identical to [`Proc::send`] in every charged and observed respect,
    /// but the packet payload is the `Arc`-shared slot itself: no buffer
    /// changes hands, and the receiver returns it via
    /// [`PoolSlot::put_back`]. When the frame will be logged for replay,
    /// what travels is a frozen copy ([`PoolSlot::freeze`]) and `slot` is
    /// free again on return: a replayed frame must find the bytes it was
    /// sent with, which a buffer the sender refills cannot promise.
    pub fn send_pooled<B: Reusable>(&mut self, dst: usize, tag: u64, slot: &Arc<PoolSlot<B>>) {
        debug_assert_ne!(dst, self.id, "self slots are decoded in place, never sent");
        let words = slot.staged_words();
        // A pooled buffer's footprint is its high-water capacity, charged
        // once to the pool account as it grows and released when its plan
        // retires ([`Proc::pool_retire`]); until then the buffer is reused.
        // Steady-state sends through a warm slot charge nothing, preserving
        // the executor's allocation-free hot path.
        if !(self.events.is_none() && self.metrics.is_none()) {
            let growth = slot.note_charged(words as u64 * 4);
            if growth > 0 {
                let now = self.clock.now_ns();
                self.mem_sample(MemAccount::Pool, self.id, now, growth as i64);
            }
        }
        // Exactly when `send_arc` appends to the replay log.
        let logged = self.recovery.is_some() && self.transport.is_some();
        let data: Arc<dyn Any + Send + Sync> = if logged {
            Arc::new(slot.freeze())
        } else {
            Arc::clone(slot) as _
        };
        self.send_arc(dst, tag, words, data, logged);
    }

    /// Borrow the processor's pre-reserved packet scratch vector (empty,
    /// capacity ≥ P). Callers must hand it back with
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

    /// Record this processor's allocation totals for this run in the
    /// `alloc.count` / `alloc.bytes` counters (no-op without metrics; zeros
    /// unless the binary installs [`crate::alloc_counter::CountingAllocator`]).
    pub(crate) fn note_alloc_totals(&mut self, count: u64, bytes: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.add("alloc.count", count);
            m.add("alloc.bytes", bytes);
        }
    }
}
