//! Observability: structured event tracing and per-processor metrics.
//!
//! The category spans of [`crate::trace`] answer *where did simulated time
//! go*; this module answers *what happened*. When a machine is built with
//! tracing enabled, every processor records a per-processor, simulated-time
//! ordered log of structured [`Event`]s: stage span begin/end markers (named
//! after the paper's algorithm stages), message sends and receives with
//! source/destination/volume/sequence, and the reliable transport's
//! retransmit / duplicate-drop / fault-verdict annotations. The log exports
//! as Chrome `trace_event` JSON ([`chrome_trace_json`]), loadable in
//! Perfetto or `chrome://tracing`, alongside the existing text Gantt.
//!
//! Independently, a machine built with metrics enabled gives each processor
//! one plain struct of counters and gauges ([`ProcMetrics`]): a processor
//! is run by one carrier at a time, so an update is an add through `&mut`.
//! Each is frozen into a [`MetricsSnapshot`] when its processor retires,
//! and [`crate::RunOutput`] holds and merges them.
//!
//! Both facilities are disabled by default and cost one branch per send /
//! receive / stage transition when off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::report::{GaugeValue, MetricsSnapshot};
use crate::trace::Span;

/// Which observability facilities a machine enables. Both default to off;
/// see [`crate::Machine::with_tracing`] and [`crate::Machine::with_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record structured [`Event`]s (alongside the clock's category spans).
    pub events: bool,
    /// Keep per-processor metrics.
    pub metrics: bool,
    /// Record wall-clock spans with a per-processor [`WallProfiler`]; see
    /// [`crate::Machine::with_wall_profiling`].
    pub wall: bool,
}

impl ObsConfig {
    /// True iff no *simulated* observability is enabled (the zero-overhead
    /// fast path for event/metric recording). Wall profiling is deliberately
    /// excluded: it has its own gate and never feeds the simulated streams.
    pub fn is_off(&self) -> bool {
        !self.events && !self.metrics
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured trace event, stamped with the recording processor's
/// simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time on the recording processor, nanoseconds.
    pub ts_ns: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Named memory accounts every word-carrying structure is charged to (see
/// DESIGN.md §13). Accounts are few and fixed so hot-path charging indexes
/// an array instead of hashing a string; the string names only appear at
/// export time (gauge names, Perfetto track names, perf reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemAccount {
    /// Packets delivered to a mailbox and not yet consumed (receiver-owned).
    Mailbox = 0,
    /// In-flight `Arc` payloads, charged once at the owning sender from
    /// send until arrival (events) / until the last refcount drops (gauge).
    Payload = 1,
    /// Reusable pooled send buffers; each slot charges its high-water
    /// capacity once, released when its plan retires
    /// ([`crate::Proc::pool_retire`]) — until then the buffer is reused.
    Pool = 2,
    /// Crash-recovery replay-log frames retained on behalf of a
    /// destination, charged by the sender to the *destination's* account.
    ReplayLog = 3,
    /// Plan-time index/segment buffers (charged by `hpf-core`).
    Plan = 4,
    /// User arrays registered through the `distarray` `TrackArray` hook.
    User = 5,
    /// The frame channel's pre-reserved ring, charged once per processor at
    /// start (constant for a machine shape, never released; see
    /// [`crate::chan::default_capacity`]'s scale-aware sizing). Excluded
    /// from the predicted-vs-measured peak gate, which covers workload-
    /// driven memory; the ring is asserted byte-exactly instead.
    MailboxRing = 6,
}

impl MemAccount {
    /// Every account, in gauge/track emission order.
    pub const ALL: [MemAccount; 7] = [
        MemAccount::Mailbox,
        MemAccount::Payload,
        MemAccount::Pool,
        MemAccount::ReplayLog,
        MemAccount::Plan,
        MemAccount::User,
        MemAccount::MailboxRing,
    ];

    /// Short account name, used in gauge and counter-track names.
    pub fn name(self) -> &'static str {
        match self {
            MemAccount::Mailbox => "mailbox",
            MemAccount::Payload => "payload",
            MemAccount::Pool => "pool",
            MemAccount::ReplayLog => "replay_log",
            MemAccount::Plan => "plan",
            MemAccount::User => "user",
            MemAccount::MailboxRing => "mailbox.ring",
        }
    }

    /// Gauge name: `last` is the current bytes, `max` the peak.
    pub fn gauge_name(self) -> &'static str {
        match self {
            MemAccount::Mailbox => "mem.mailbox.cur",
            MemAccount::Payload => "mem.payload.cur",
            MemAccount::Pool => "mem.pool.cur",
            MemAccount::ReplayLog => "mem.replay_log.cur",
            MemAccount::Plan => "mem.plan.cur",
            MemAccount::User => "mem.user.cur",
            MemAccount::MailboxRing => "mem.mailbox.ring",
        }
    }
}

/// The event vocabulary. Message volume is in 4-byte words (the unit the
/// cost model charges `μ` per); `seq` is the reliable transport's per-link
/// sequence number and is `None` on a fault-free machine, whose fast path
/// does not sequence frames.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A named algorithm stage began (see [`crate::Proc::with_stage`]).
    SpanBegin {
        /// Stage name, e.g. `"rank.intermediate"`.
        name: &'static str,
    },
    /// The matching stage ended.
    SpanEnd {
        /// Stage name.
        name: &'static str,
    },
    /// A point annotation (e.g. a collective phase marker).
    Marker {
        /// Marker name.
        name: &'static str,
    },
    /// A charged point-to-point send completed on this processor.
    Send {
        /// Destination processor.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Charged volume in words.
        words: usize,
        /// Transport sequence number (`None` on the fault-free fast path).
        seq: Option<u64>,
        /// Simulated arrival time at the receiver (injected delay included).
        arrival_ns: f64,
    },
    /// A message was delivered to this processor's mailbox.
    Recv {
        /// Source processor.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Charged volume in words.
        words: usize,
        /// Transport sequence number (`None` on the fault-free fast path).
        seq: Option<u64>,
    },
    /// A program-level receive consumed a message from this processor's
    /// mailbox. `Recv` records *delivery* (stamped with the packet's arrival
    /// time); `Consume` records the moment the algorithm actually took the
    /// message, which is what the critical-path analyzer needs to decide
    /// whether the receiver was blocked on the wire or the message sat
    /// waiting in the mailbox.
    Consume {
        /// Source processor.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Charged volume in words.
        words: usize,
        /// Simulated time this receiver spent blocked waiting for the
        /// message to arrive (0 when it was already in the mailbox).
        waited_ns: f64,
        /// The consumed packet's arrival time. Copied bit-for-bit from the
        /// packet, so it equals the matching `Send::arrival_ns` exactly —
        /// the analyzer joins send→consume edges on this value.
        arrival_ns: f64,
    },
    /// An uncharged clock synchronisation at a phase boundary jumped this
    /// processor's clock forward to the slowest participant's time
    /// (see `Proc::clock_sync_max`). Recorded only when the clock actually
    /// moved; the stamped `ts_ns` is the post-jump (barrier) time.
    Barrier {
        /// The processor whose clock defined the barrier time (ties broken
        /// towards the lowest id, deterministically).
        owner: usize,
        /// How far this clock jumped, nanoseconds.
        waited_ns: f64,
    },
    /// The reliable transport retransmitted an unacknowledged message.
    Retransmit {
        /// Destination of the retried message.
        dst: usize,
        /// Its sequence number.
        seq: u64,
        /// Which retry this was (1 = first retransmission).
        attempt: u32,
    },
    /// The receiver discarded a duplicate frame.
    DupDrop {
        /// The duplicate's source.
        src: usize,
        /// Its sequence number.
        seq: u64,
    },
    /// The fault injector decided the fate of one transmission attempt
    /// (only non-`Deliver` verdicts are recorded).
    FaultVerdict {
        /// Destination of the transmission.
        dst: usize,
        /// Its sequence number.
        seq: u64,
        /// The verdict: `"drop"`, `"duplicate"`, or `"hold-back"`.
        verdict: &'static str,
    },
    /// A memory-accounting charge (`delta_bytes > 0`) or release (`< 0`)
    /// against one account, stamped with the recording processor's
    /// simulated clock. `owner` is the processor whose memory changed —
    /// almost always the recorder, except for the replay log, which the
    /// *sender* charges to the destination's account. Never rendered as an
    /// instant; the exporter folds these into per-processor counter tracks,
    /// and the analysis layer reconstructs per-processor peaks from them.
    MemSample {
        /// Which account the bytes belong to.
        account: MemAccount,
        /// Processor whose memory changed.
        owner: usize,
        /// Signed size change in bytes.
        delta_bytes: i64,
    },
}

/// Transport-side observations buffered inside [`crate::reliable`] (which
/// has no clock access) and drained by the owning processor, which stamps
/// them: its current simulated time for what it did itself, the frame's
/// arrival time for a duplicate that reached it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TransportEvent {
    /// A retry fired: `(dst, seq, attempt)`.
    Retransmit(usize, u64, u32),
    /// A duplicate frame `(src, seq)` was discarded; it had arrived at the
    /// simulated time `arrival_ns`.
    DupDrop(usize, u64, f64),
    /// The injector returned a non-`Deliver` verdict for `(dst, seq)`.
    Verdict(usize, u64, &'static str),
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Counters named by the code that bumps them ([`ProcMetrics::add`]); a
/// snapshot holds the ones its processor touched.
const NAMED_COUNTERS: [&str; 9] = [
    "alloc.bytes",
    "alloc.count",
    "plan.cache.hit",
    "plan.cache.miss",
    "recovery.epochs",
    "recovery.replayed_frames",
    "recovery.replay_ms",
    "recovery.replays",
    "sched.wakes_filtered",
];

/// One processor's metrics: plain fields, updated through `&mut` by
/// whichever carrier runs the processor. A checkpoint is a copy, a restore
/// an assignment, and the names appear once, in [`ProcMetrics::snapshot`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ProcMetrics {
    pub(crate) msg_sent: u64,
    pub(crate) msg_recvd: u64,
    /// Every frame this processor put on a ring, where `msg_sent` counts
    /// charged messages only: zero-word data and uncharged control too,
    /// and — added when the processor retires — what its transport sent.
    pub(crate) msg_frames: u64,
    pub(crate) mailbox_depth: GaugeValue,
    pub(crate) retransmits: u64,
    pub(crate) dup_drops: u64,
    pub(crate) clone_words: u64,
    /// Calls to `Proc::park`, the ones that slept and were woken, and the
    /// wake-ups after which a wait still lacked what it waits for and
    /// parked again: the interleaving as this processor saw it.
    pub(crate) parks: u64,
    pub(crate) wakes: u64,
    pub(crate) spurious_wakes: u64,
    /// Memory gauges by `MemAccount as usize`: `last` = current bytes,
    /// `max` = peak (DESIGN.md §13). The payload slot's `last` is the level
    /// as of the latest charge; what was released since is in
    /// `payload_released`.
    pub(crate) mem: [GaugeValue; MemAccount::ALL.len()],
    /// Payload bytes released since the latest charge: the one value
    /// written from other carriers, because the last copy of a packet — and
    /// with it the sender's [`crate::message::PayloadCharge`] — drops
    /// wherever it was consumed last. Relaxed: a statistic that publishes
    /// no other data.
    pub(crate) payload_released: Arc<AtomicU64>,
    named: BTreeMap<&'static str, u64>,
}

impl ProcMetrics {
    /// Add `n` to the library-named counter `name`, which from then on
    /// appears in the snapshot (a zero included).
    pub(crate) fn add(&mut self, name: &'static str, n: u64) {
        debug_assert!(NAMED_COUNTERS.contains(&name), "{name}: not in the table");
        *self.named.entry(name).or_insert(0) += n;
    }

    /// The memory gauges, the payload account at its current level.
    fn mem_now(&self) -> [GaugeValue; MemAccount::ALL.len()] {
        let mut mem = self.mem;
        let payload = &mut mem[MemAccount::Payload as usize].last;
        *payload = payload.saturating_sub(self.payload_released.load(Ordering::Relaxed));
        mem
    }

    /// A copy for an epoch checkpoint, complete in itself: the payload
    /// account at its current level over a release counter of its own, so
    /// charges the crashed incarnation left behind release into the old one.
    pub(crate) fn checkpoint(&self) -> ProcMetrics {
        ProcMetrics {
            mem: self.mem_now(),
            payload_released: Arc::default(),
            ..self.clone()
        }
    }

    /// Freeze into the exported form. This is the name table: every metric
    /// name a run can report is written here or in [`NAMED_COUNTERS`], and
    /// DESIGN.md §8 lists exactly these.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let fixed = [
            ("msg.sent", self.msg_sent),
            ("msg.recvd", self.msg_recvd),
            ("msg.frames", self.msg_frames),
            ("transport.retransmits", self.retransmits),
            ("transport.dup_drops", self.dup_drops),
            ("payload.clone_words", self.clone_words),
            ("sched.parks", self.parks),
            ("sched.wakes", self.wakes),
            ("sched.spurious_wakes", self.spurious_wakes),
        ];
        let mem = self.mem_now();
        let gauges = MemAccount::ALL.map(|a| (a.gauge_name(), mem[a as usize]));
        MetricsSnapshot {
            counters: (fixed.iter().copied())
                .chain(self.named.iter().map(|(k, v)| (*k, *v)))
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: (gauges.iter().copied())
                .chain([("mailbox.depth", self.mailbox_depth)])
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

/// Microseconds (the trace_event unit) from nanoseconds.
#[inline]
fn us(ns: f64) -> f64 {
    ns / 1000.0
}

/// Flow-event id tying a sequenced send to its receive: unique per
/// `(src, dst, seq)` for the grids this simulator runs (`P < 2^16`).
#[inline]
fn flow_id(src: usize, dst: usize, seq: u64) -> u64 {
    ((src as u64) << 44) | ((dst as u64) << 28) | (seq & ((1 << 28) - 1))
}

/// Timestamp tie-break key making the export byte-stable run to run.
///
/// Concurrently-arriving messages are logged in whatever order the OS
/// scheduled the receiving thread, so the raw log order varies even though
/// every timestamp is simulated. Message events get a content key; span and
/// marker events all rank equal (and first), so the stable sort preserves
/// their program order and `B`/`E` pairing survives zero-length stages.
fn tie_break(kind: &EventKind) -> (u8, u64, u64, u64, &'static str) {
    match kind {
        EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. } | EventKind::Marker { .. } => {
            (0, 0, 0, 0, "")
        }
        EventKind::Send {
            dst,
            tag,
            seq,
            words,
            ..
        } => (
            1,
            *dst as u64,
            *tag,
            seq.map_or(0, |s| s + 1) << 32 | *words as u64,
            "",
        ),
        EventKind::Recv {
            src,
            tag,
            seq,
            words,
        } => (
            2,
            *src as u64,
            *tag,
            seq.map_or(0, |s| s + 1) << 32 | *words as u64,
            "",
        ),
        EventKind::Retransmit { dst, seq, attempt } => (3, *dst as u64, *seq, *attempt as u64, ""),
        EventKind::DupDrop { src, seq } => (4, *src as u64, *seq, 0, ""),
        EventKind::FaultVerdict { dst, seq, verdict } => (5, *dst as u64, *seq, 0, verdict),
        EventKind::Consume {
            src, tag, words, ..
        } => (6, *src as u64, *tag, *words as u64, ""),
        EventKind::Barrier { owner, .. } => (7, *owner as u64, 0, 0, ""),
        EventKind::MemSample {
            account,
            owner,
            delta_bytes,
        } => (8, *owner as u64, *account as u64, *delta_bytes as u64, ""),
    }
}

/// Append one trace-event JSON object, comma-separating after the first.
#[inline]
fn emit(out: &mut String, first: &mut bool, body: &str) {
    if !std::mem::take(first) {
        out.push(',');
    }
    out.push_str(body);
}

/// `(timestamp, rank, delta)` samples feeding one counter track.
type CounterDeltas = Vec<(f64, u8, i64)>;

/// Emit one counter track (`"C"` phase events) for processor `pid`: sort
/// the `(timestamp, rank, delta)` samples — increments rank before
/// decrements at equal timestamps so the running value never dips
/// spuriously — integrate, clamp at zero, and write one sample per delta.
/// The single formatting site shared by the queue tracks (mailbox depth,
/// in-flight sends) and the per-account memory tracks.
fn counter_track(
    out: &mut String,
    first: &mut bool,
    pid: usize,
    name: &str,
    field: &str,
    cat: &str,
    deltas: &mut [(f64, u8, i64)],
) {
    if deltas.is_empty() {
        return;
    }
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut level = 0i64;
    let mut buf = String::new();
    for &(ts, _, d) in deltas.iter() {
        level = (level + d).max(0);
        buf.clear();
        let _ = write!(
            buf,
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":2,\"ts\":{:.3},\
             \"name\":\"{name}\",\"cat\":\"{cat}\",\"args\":{{\
             \"{field}\":{level}}}}}",
            us(ts)
        );
        emit(out, first, &buf);
    }
}

/// Export category spans and structured events as Chrome `trace_event`
/// JSON, loadable in Perfetto or `chrome://tracing`.
///
/// Each simulated processor becomes one trace *process* with three threads:
/// `categories` (the clock-category spans of [`crate::trace`], as complete
/// `X` slices), `stages` (algorithm-stage `B`/`E` slices and markers), and
/// `messages` (send / receive / retransmit / duplicate-drop / fault-verdict
/// instants). Sequenced sends and their receives are additionally linked
/// with flow events (`s`/`f`), which Perfetto draws as arrows. Memory
/// samples become per-processor `mem.<account>` counter tracks, emitted
/// after all per-processor sections in deterministic (processor, account)
/// order.
///
/// Timestamps are *simulated* microseconds; `traces` and `events` are
/// indexed by processor id (either may be empty).
pub fn chrome_trace_json(traces: &[Vec<Span>], events: &[Vec<Event>]) -> String {
    let nprocs = traces.len().max(events.len());
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut buf = String::new();
    for pid in 0..nprocs {
        buf.clear();
        let _ = write!(
            buf,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"proc {pid}\"}}}}"
        );
        for (tid, tname) in [(0, "categories"), (1, "stages"), (2, "messages")] {
            let _ = write!(
                buf,
                ",{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{tname}\"}}}}"
            );
        }
        emit(&mut out, &mut first, &buf);
    }
    for (pid, spans) in traces.iter().enumerate() {
        for s in spans {
            buf.clear();
            let _ = write!(
                buf,
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"cat\":\"category\"}}",
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                s.category.label()
            );
            emit(&mut out, &mut first, &buf);
        }
    }
    for (pid, evs) in events.iter().enumerate() {
        let mut ordered: Vec<&Event> = evs.iter().collect();
        ordered.sort_by(|a, b| {
            a.ts_ns
                .total_cmp(&b.ts_ns)
                .then_with(|| tie_break(&a.kind).cmp(&tie_break(&b.kind)))
        });
        for e in ordered {
            buf.clear();
            let ts = us(e.ts_ns);
            match &e.kind {
                // Memory samples are not instants: they surface only as the
                // per-account counter tracks emitted after this loop.
                EventKind::MemSample { .. } => continue,
                EventKind::SpanBegin { name } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":1,\"ts\":{ts:.3},\
                         \"name\":\"{name}\",\"cat\":\"stage\"}}"
                    );
                }
                EventKind::SpanEnd { name } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":1,\"ts\":{ts:.3},\
                         \"name\":\"{name}\",\"cat\":\"stage\"}}"
                    );
                }
                EventKind::Marker { name } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":1,\"ts\":{ts:.3},\
                         \"name\":\"{name}\",\"cat\":\"marker\",\"s\":\"t\"}}"
                    );
                }
                EventKind::Send {
                    dst,
                    tag,
                    words,
                    seq,
                    arrival_ns,
                } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":2,\"ts\":{ts:.3},\
                         \"name\":\"send\",\"cat\":\"msg\",\"s\":\"t\",\"args\":{{\
                         \"dst\":{dst},\"tag\":{tag},\"words\":{words},\
                         \"arrival_us\":{:.3}{}}}}}",
                        us(*arrival_ns),
                        match seq {
                            Some(s) => format!(",\"seq\":{s}"),
                            None => String::new(),
                        }
                    );
                    if let Some(s) = seq {
                        let _ = write!(
                            buf,
                            ",{{\"ph\":\"s\",\"pid\":{pid},\"tid\":2,\"ts\":{ts:.3},\
                             \"name\":\"msg\",\"cat\":\"flow\",\"id\":{}}}",
                            flow_id(pid, *dst, *s)
                        );
                    }
                }
                EventKind::Recv {
                    src,
                    tag,
                    words,
                    seq,
                } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":2,\"ts\":{ts:.3},\
                         \"name\":\"recv\",\"cat\":\"msg\",\"s\":\"t\",\"args\":{{\
                         \"src\":{src},\"tag\":{tag},\"words\":{words}{}}}}}",
                        match seq {
                            Some(s) => format!(",\"seq\":{s}"),
                            None => String::new(),
                        }
                    );
                    if let Some(s) = seq {
                        let _ = write!(
                            buf,
                            ",{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{pid},\"tid\":2,\
                             \"ts\":{ts:.3},\"name\":\"msg\",\"cat\":\"flow\",\"id\":{}}}",
                            flow_id(*src, pid, *s)
                        );
                    }
                }
                EventKind::Consume {
                    src,
                    tag,
                    words,
                    waited_ns,
                    ..
                } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":2,\"ts\":{ts:.3},\
                         \"name\":\"consume\",\"cat\":\"msg\",\"s\":\"t\",\"args\":{{\
                         \"src\":{src},\"tag\":{tag},\"words\":{words},\
                         \"waited_us\":{:.3}}}}}",
                        us(*waited_ns)
                    );
                }
                EventKind::Barrier { owner, waited_ns } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":1,\"ts\":{ts:.3},\
                         \"name\":\"barrier\",\"cat\":\"sync\",\"s\":\"t\",\"args\":{{\
                         \"owner\":{owner},\"waited_us\":{:.3}}}}}",
                        us(*waited_ns)
                    );
                }
                EventKind::Retransmit { dst, seq, attempt } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":2,\"ts\":{ts:.3},\
                         \"name\":\"retransmit\",\"cat\":\"fault\",\"s\":\"t\",\"args\":{{\
                         \"dst\":{dst},\"seq\":{seq},\"attempt\":{attempt}}}}}"
                    );
                }
                EventKind::DupDrop { src, seq } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":2,\"ts\":{ts:.3},\
                         \"name\":\"dup-drop\",\"cat\":\"fault\",\"s\":\"t\",\"args\":{{\
                         \"src\":{src},\"seq\":{seq}}}}}"
                    );
                }
                EventKind::FaultVerdict { dst, seq, verdict } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":2,\"ts\":{ts:.3},\
                         \"name\":\"fault-verdict\",\"cat\":\"fault\",\"s\":\"t\",\"args\":{{\
                         \"dst\":{dst},\"seq\":{seq},\"verdict\":\"{verdict}\"}}}}"
                    );
                }
            }
            emit(&mut out, &mut first, &buf);
        }

        // Counter tracks ("C" phase events): mailbox depth (deliveries not
        // yet consumed) and in-flight sends (charged sends whose packet has
        // not yet arrived — only visibly non-zero under injected delays).
        // Perfetto renders these as per-process area charts next to the
        // span threads, which is how queue pressure becomes visible. The
        // running value is clamped at zero (a muted consumer may skip its
        // Consume records).
        let mut mailbox: Vec<(f64, u8, i64)> = Vec::new();
        let mut in_flight: Vec<(f64, u8, i64)> = Vec::new();
        for e in evs {
            match &e.kind {
                EventKind::Recv { .. } => mailbox.push((e.ts_ns, 0, 1)),
                EventKind::Consume { .. } => mailbox.push((e.ts_ns, 1, -1)),
                EventKind::Send { arrival_ns, .. } => {
                    in_flight.push((e.ts_ns, 0, 1));
                    if arrival_ns.is_finite() {
                        in_flight.push((*arrival_ns, 1, -1));
                    }
                }
                _ => {}
            }
        }
        counter_track(
            &mut out,
            &mut first,
            pid,
            "mailbox_depth",
            "depth",
            "queue",
            &mut mailbox,
        );
        counter_track(
            &mut out,
            &mut first,
            pid,
            "in_flight_sends",
            "msgs",
            "queue",
            &mut in_flight,
        );
    }

    // Memory counter tracks. A sample may be recorded by a processor other
    // than its owner (a sender charges the destination's replay-log
    // account), so samples are aggregated across every processor's log and
    // emitted per (owner, account) after all per-processor sections — the
    // BTreeMap makes the order deterministic, so the JSON is byte-stable.
    let mut mem: BTreeMap<(usize, MemAccount), CounterDeltas> = BTreeMap::new();
    for evs in events {
        for e in evs {
            if let EventKind::MemSample {
                account,
                owner,
                delta_bytes,
            } = &e.kind
            {
                mem.entry((*owner, *account)).or_default().push((
                    e.ts_ns,
                    u8::from(*delta_bytes < 0),
                    *delta_bytes,
                ));
            }
        }
    }
    for ((pid, account), deltas) in &mut mem {
        let name = format!("mem.{}", account.name());
        counter_track(&mut out, &mut first, *pid, &name, "bytes", "mem", deltas);
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Wall-clock profiling
// ---------------------------------------------------------------------------

/// One closed wall-clock span recorded by a [`WallProfiler`].
///
/// Timestamps are monotonic-clock nanoseconds relative to the profiler's
/// origin (its construction instant), on the recording processor's own OS
/// thread. They share no timebase with the simulated clock and must never
/// be compared against it — see DESIGN.md §14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallSpan {
    /// Stage name; reuses the simulated stage vocabulary where the span
    /// brackets the same region (e.g. `"pack.execute"`).
    pub name: &'static str,
    /// Index of the enclosing span in the profile's span list, `None` for
    /// a root span. Spans are stored in begin order (pre-order), so a
    /// parent always precedes its children.
    pub parent: Option<u32>,
    /// Nesting depth (0 = root).
    pub depth: u32,
    /// Begin time, nanoseconds since the profiler's origin.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub dur_ns: u64,
    /// Payload bytes moved inside this span (attributed with
    /// [`WallProfiler::add_bytes`]; excludes bytes attributed to child
    /// spans).
    pub bytes: u64,
}

impl WallSpan {
    /// Effective copy bandwidth over the span, GB/s (bytes per wall
    /// nanosecond). Zero for an instantaneous or byte-free span.
    pub fn gbps(&self) -> f64 {
        if self.dur_ns == 0 {
            0.0
        } else {
            self.bytes as f64 / self.dur_ns as f64
        }
    }
}

/// A per-processor wall-clock span recorder — the wall-side twin of the
/// simulated stage tracer. Each [`crate::Proc`] optionally owns one (see
/// [`crate::Machine::with_wall_profiling`]); when absent, every profiling
/// hook is a single `Option` branch, so disabled runs pay ~zero overhead
/// and the steady-state execute loop stays allocation-free.
///
/// Spans nest: `begin`/`end` must pair like brackets on one thread. The
/// span vector is pre-reserved so recording inside a measured hot loop
/// does not allocate until the reservation is exhausted.
#[derive(Debug)]
pub struct WallProfiler {
    origin: std::time::Instant,
    spans: Vec<WallSpan>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<u32>,
    /// `end` calls with no matching `begin` (a bug the nesting check
    /// surfaces).
    unmatched_ends: u32,
}

impl Default for WallProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl WallProfiler {
    /// Pre-reserved span capacity: enough for the bench hot loops (tens of
    /// spans per execute) without reallocation mid-measurement.
    const RESERVE: usize = 4096;

    /// A fresh profiler; its origin is *now*.
    pub fn new() -> WallProfiler {
        WallProfiler {
            origin: std::time::Instant::now(),
            spans: Vec::with_capacity(Self::RESERVE),
            open: Vec::with_capacity(32),
            unmatched_ends: 0,
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a nested span named `name`.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let depth = self.open.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(WallSpan {
            name,
            parent,
            depth,
            start_ns,
            dur_ns: 0,
            bytes: 0,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        let now = self.now_ns();
        match self.open.pop() {
            Some(idx) => {
                let span = &mut self.spans[idx as usize];
                span.dur_ns = now.saturating_sub(span.start_ns);
            }
            None => self.unmatched_ends += 1,
        }
    }

    /// Attribute `bytes` of payload movement to the innermost open span
    /// (dropped on the floor when no span is open).
    #[inline]
    pub fn add_bytes(&mut self, bytes: u64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx as usize].bytes += bytes;
        }
    }

    /// Finish profiling: force-close any spans still open (counting them,
    /// so [`WallProfile::well_formed`] can flag the leak) and freeze the
    /// span list.
    pub fn finish(mut self) -> WallProfile {
        let forced = self.open.len() as u32;
        while !self.open.is_empty() {
            self.end();
        }
        WallProfile {
            spans: self.spans,
            forced_closes: forced,
            unmatched_ends: self.unmatched_ends,
        }
    }
}

/// One processor's finished wall profile: the closed spans in begin
/// (pre-)order plus bookkeeping for the nesting check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WallProfile {
    /// Closed spans, in begin order (a parent precedes its children).
    pub spans: Vec<WallSpan>,
    /// Spans still open when the profiler was finished (0 in a well-formed
    /// profile — every `begin` had an `end`).
    pub forced_closes: u32,
    /// `end` calls that had no matching `begin`.
    pub unmatched_ends: u32,
}

impl WallProfile {
    /// Total root-span wall time, nanoseconds (children are contained in
    /// their parents, so summing the roots never double-counts).
    pub fn total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Span `i`'s *self* time: its duration minus its direct children's
    /// durations (saturating — timer granularity can make children sum
    /// slightly past the parent).
    pub fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i as u32))
            .map(|s| s.dur_ns)
            .sum();
        self.spans[i].dur_ns.saturating_sub(children)
    }

    /// Nesting check: every `begin` had an `end`, every `end` a `begin`,
    /// and every child span lies within its parent's interval. Returns a
    /// diagnostic for the first violation.
    pub fn well_formed(&self) -> Result<(), String> {
        if self.forced_closes > 0 {
            return Err(format!(
                "{} spans were never closed (begin without end)",
                self.forced_closes
            ));
        }
        if self.unmatched_ends > 0 {
            return Err(format!(
                "{} end calls had no open span",
                self.unmatched_ends
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else {
                if s.depth != 0 {
                    return Err(format!(
                        "root span {} ({}) has depth {}",
                        i, s.name, s.depth
                    ));
                }
                continue;
            };
            let parent = &self.spans[p as usize];
            if s.depth != parent.depth + 1 {
                return Err(format!(
                    "span {} ({}) depth {} under parent depth {}",
                    i, s.name, s.depth, parent.depth
                ));
            }
            if s.start_ns < parent.start_ns
                || s.start_ns + s.dur_ns > parent.start_ns + parent.dur_ns
            {
                return Err(format!(
                    "span {} ({}) [{}, {}] outside parent {} [{}, {}]",
                    i,
                    s.name,
                    s.start_ns,
                    s.start_ns + s.dur_ns,
                    parent.name,
                    parent.start_ns,
                    parent.start_ns + parent.dur_ns
                ));
            }
        }
        Ok(())
    }
}

/// [`chrome_trace_json`] plus a dedicated per-processor wall-clock track:
/// each profile's spans are emitted as complete `X` slices on `tid` 3
/// (thread name `wall`), with the span's moved bytes and effective GB/s as
/// args. Wall timestamps are monotonic nanoseconds since the profiler's
/// origin — a different timebase from the simulated tracks, which is why
/// they live on their own thread and are never mixed into the simulated
/// rows.
pub fn chrome_trace_json_with_wall(
    traces: &[Vec<Span>],
    events: &[Vec<Event>],
    wall: &[WallProfile],
) -> String {
    let mut out = chrome_trace_json(traces, events);
    debug_assert!(out.ends_with("]}"));
    out.truncate(out.len() - 2);
    let mut extra = String::new();
    for (pid, profile) in wall.iter().enumerate() {
        if profile.spans.is_empty() {
            continue;
        }
        let _ = write!(
            extra,
            ",{{\"ph\":\"M\",\"pid\":{pid},\"tid\":3,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"wall\"}}}}"
        );
        for s in &profile.spans {
            let _ = write!(
                extra,
                ",{{\"ph\":\"X\",\"pid\":{pid},\"tid\":3,\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"cat\":\"wall\",\"args\":{{\"bytes\":{},\
                 \"gbps\":{:.3}}}}}",
                s.start_ns as f64 / 1000.0,
                s.dur_ns as f64 / 1000.0,
                s.name,
                s.bytes,
                s.gbps()
            );
        }
    }
    if !extra.is_empty() {
        // Skip the leading comma if the simulated export had no events at
        // all (a zero-processor run).
        if out.ends_with('[') {
            out.push_str(&extra[1..]);
        } else {
            out.push_str(&extra);
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Category;
    use crate::message::PayloadCharge;

    #[test]
    fn snapshot_reports_fields_gauges_and_touched_names() {
        let mut m = ProcMetrics {
            msg_sent: 3,
            ..ProcMetrics::default()
        };
        m.mailbox_depth.set(5);
        m.mailbox_depth.set(2);
        let first = PayloadCharge::new(&mut m, 64);
        drop(first);
        let _held = PayloadCharge::new(&mut m, 40);
        m.add("plan.cache.hit", 0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("msg.sent"), 3);
        assert_eq!(snap.counters.get("plan.cache.hit"), Some(&0));
        assert!(!snap.counters.contains_key("plan.cache.miss"));
        assert_eq!(snap.gauges["mailbox.depth"], GaugeValue { last: 2, max: 5 });
        assert_eq!(
            snap.gauges["mem.payload.cur"],
            GaugeValue { last: 40, max: 64 }
        );
    }

    /// A checkpoint stands alone: what the crashed incarnation still held
    /// releases into the crashed incarnation's counter, not into the copy
    /// its successor resumes from.
    #[test]
    fn a_checkpoint_shares_nothing_with_the_metrics_it_copied() {
        let mut old = ProcMetrics {
            msg_sent: 7,
            ..ProcMetrics::default()
        };
        old.add("recovery.epochs", 1);
        let held = PayloadCharge::new(&mut old, 100);
        let resumed = old.checkpoint();
        drop(held);
        assert_eq!(old.snapshot().gauges["mem.payload.cur"].last, 0);
        let snap = resumed.snapshot();
        assert_eq!(snap.counter("msg.sent"), 7);
        assert_eq!(snap.counter("recovery.epochs"), 1);
        assert_eq!(
            snap.gauges["mem.payload.cur"],
            GaugeValue {
                last: 100,
                max: 100
            }
        );
    }

    #[test]
    fn snapshot_merge_adds_counters_and_maxes_gauges() {
        let sent = |msg_sent| ProcMetrics {
            msg_sent,
            ..ProcMetrics::default()
        };
        let (mut a, mut b) = (sent(2), sent(3));
        a.mailbox_depth.set(7);
        b.add("plan.cache.hit", 1);
        b.mailbox_depth.set(4);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("msg.sent"), 5);
        assert_eq!(m.counter("plan.cache.hit"), 1);
        assert_eq!(m.gauges["mailbox.depth"].max, 7);
    }

    /// DESIGN.md §8 "Metrics taxonomy" and the name table agree: every
    /// backticked name in the first column of its table is a name a
    /// snapshot can hold, and the other way round.
    #[test]
    fn design_doc_lists_exactly_the_name_table() {
        let doc = include_str!("../../../DESIGN.md");
        let section = doc
            .split("### Metrics taxonomy")
            .nth(1)
            .and_then(|rest| rest.split("\n### ").next())
            .expect("DESIGN.md has a Metrics taxonomy section");
        let documented: std::collections::BTreeSet<&str> = section
            .lines()
            .filter(|l| l.starts_with("| `"))
            .flat_map(|l| {
                let cell = l.split('|').nth(1).expect("a table row has a first cell");
                cell.split('`').skip(1).step_by(2)
            })
            .collect();
        let fresh = ProcMetrics::default().snapshot();
        let table: std::collections::BTreeSet<&str> = (fresh.counters.keys())
            .chain(fresh.gauges.keys())
            .map(String::as_str)
            .chain(NAMED_COUNTERS)
            .collect();
        assert_eq!(documented, table);
    }

    #[test]
    fn chrome_trace_contains_spans_and_events() {
        let traces = vec![vec![Span {
            category: Category::LocalComp,
            start_ns: 0.0,
            end_ns: 1000.0,
        }]];
        let events = vec![vec![
            Event {
                ts_ns: 0.0,
                kind: EventKind::SpanBegin { name: "rank" },
            },
            Event {
                ts_ns: 500.0,
                kind: EventKind::Send {
                    dst: 1,
                    tag: 7,
                    words: 3,
                    seq: Some(0),
                    arrival_ns: 500.0,
                },
            },
            Event {
                ts_ns: 900.0,
                kind: EventKind::SpanEnd { name: "rank" },
            },
        ]];
        let json = chrome_trace_json(&traces, &events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"send\""), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "flow start missing: {json}");
        assert!(json.contains("\"proc 0\""), "{json}");
        let depth = json.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn counter_tracks_follow_mailbox_occupancy() {
        let events = vec![vec![
            Event {
                ts_ns: 100.0,
                kind: EventKind::Recv {
                    src: 1,
                    tag: 7,
                    words: 3,
                    seq: None,
                },
            },
            Event {
                ts_ns: 150.0,
                kind: EventKind::Recv {
                    src: 1,
                    tag: 8,
                    words: 3,
                    seq: None,
                },
            },
            Event {
                ts_ns: 200.0,
                kind: EventKind::Consume {
                    src: 1,
                    tag: 7,
                    words: 3,
                    waited_ns: 0.0,
                    arrival_ns: 100.0,
                },
            },
        ]];
        let json = chrome_trace_json(&[], &events);
        // Depth rises to 2 after both deliveries, drops to 1 at the consume.
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"name\":\"mailbox_depth\""), "{json}");
        assert!(json.contains("\"depth\":2"), "{json}");
        assert!(json.contains("\"depth\":1"), "{json}");
        let depth = json.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn flow_ids_are_distinct_per_link_and_seq() {
        let mut ids = std::collections::HashSet::new();
        for src in 0..4 {
            for dst in 0..4 {
                for seq in 0..8 {
                    ids.insert(flow_id(src, dst, seq));
                }
            }
        }
        assert_eq!(ids.len(), 4 * 4 * 8);
    }

    #[test]
    fn wall_profiler_records_nested_spans() {
        let mut w = WallProfiler::new();
        w.begin("outer");
        w.add_bytes(100);
        w.begin("inner");
        w.add_bytes(40);
        w.end();
        w.end();
        let p = w.finish();
        p.well_formed().expect("balanced begins/ends");
        assert_eq!(p.spans.len(), 2);
        let outer = &p.spans[0];
        let inner = &p.spans[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.bytes, 100);
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.bytes, 40);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(p.total_ns(), outer.dur_ns);
        assert_eq!(p.self_ns(0), outer.dur_ns - inner.dur_ns);
    }

    #[test]
    fn wall_profile_flags_unbalanced_spans() {
        let mut w = WallProfiler::new();
        w.begin("leaked");
        let p = w.finish();
        assert!(p.well_formed().is_err(), "unclosed span must be flagged");

        let mut w = WallProfiler::new();
        w.end();
        let p = w.finish();
        assert!(p.well_formed().is_err(), "stray end must be flagged");
    }

    #[test]
    fn wall_track_extends_trace_without_touching_simulated_rows() {
        let traces: Vec<Vec<Span>> = vec![Vec::new()];
        let events: Vec<Vec<Event>> = vec![Vec::new()];
        let base = chrome_trace_json(&traces, &events);
        // No profiles, or only empty profiles: export is byte-identical.
        assert_eq!(
            chrome_trace_json_with_wall(&traces, &events, &[]),
            base,
            "empty wall must not change the export"
        );
        assert_eq!(
            chrome_trace_json_with_wall(&traces, &events, &[WallProfile::default()]),
            base
        );

        let profile = WallProfile {
            spans: vec![WallSpan {
                name: "pack.execute",
                parent: None,
                depth: 0,
                start_ns: 1000,
                dur_ns: 2000,
                bytes: 4000,
            }],
            forced_closes: 0,
            unmatched_ends: 0,
        };
        let json = chrome_trace_json_with_wall(&traces, &events, &[profile]);
        assert!(json.starts_with(&base[..base.len() - 2]), "{json}");
        assert!(json.contains("\"tid\":3"), "{json}");
        assert!(json.contains("\"name\":\"wall\""), "{json}");
        assert!(json.contains("\"bytes\":4000"), "{json}");
        assert!(json.contains("\"gbps\":2.000"), "{json}");
        let depth = json.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
