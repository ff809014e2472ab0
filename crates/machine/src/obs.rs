//! Observability: structured event tracing and a metrics registry.
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
//! a registry of named counters, gauges, and log₂-bucketed histograms
//! (message sizes, retry latencies, mailbox depths, per-stage durations).
//! Updates are lock-free (relaxed atomics; registration of a new name takes
//! a short mutex, once). Per-processor snapshots are aggregated into
//! [`crate::RunOutput`] and rendered as a human summary or JSON.
//!
//! Both facilities are disabled by default and cost one branch per send /
//! receive / stage transition when off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::trace::Span;

/// Which observability facilities a machine enables. Both default to off;
/// see [`crate::Machine::with_tracing`] and [`crate::Machine::with_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record structured [`Event`]s (alongside the clock's category spans).
    pub events: bool,
    /// Maintain per-processor metric registries.
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

    /// Registry gauge name: `last` is the current bytes, `max` the peak.
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
// Metrics primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Increments are single relaxed
/// atomic adds — lock-free and wait-free.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value — only for checkpoint restore, where the
    /// counter must return to exactly its boundary value even if the
    /// respawned processor already re-incremented it.
    pub(crate) fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A gauge: remembers the last value set and the maximum ever set.
#[derive(Debug, Default)]
pub struct Gauge {
    last: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// Record the instantaneous value `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.last.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// `(last, max)` as currently recorded.
    pub fn get(&self) -> (u64, u64) {
        (
            self.last.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// Add `n` to the current value (memory-account charging). One relaxed
    /// fetch-add plus a max update — lock-free like `set`.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        let now = self.last.fetch_add(n, Ordering::Relaxed) + n;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtract `n` from the current value, saturating at zero (a release
    /// may race a checkpoint restore that already zeroed the gauge).
    #[inline]
    pub(crate) fn sub(&self, n: u64) {
        let _ = self
            .last
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Overwrite both fields — only for checkpoint restore (a `set` could
    /// not lower `max` back to its boundary value).
    pub(crate) fn restore(&self, last: u64, max: u64) {
        self.last.store(last, Ordering::Relaxed);
        self.max.store(max, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0; bucket `b ≥ 1` holds
/// values in `[2^(b-1), 2^b)`; the last bucket additionally absorbs
/// everything at or above `2^63`.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-scaled histogram of `u64` samples (message words, latencies in
/// µs, queue depths, stage durations). Observation is one relaxed atomic
/// add into the sample's bucket plus count/sum upkeep — lock-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a sample: 0 for 0, else `1 + floor(log₂ v)`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Reload a snapshot into this histogram — the inverse of
    /// [`Histogram::snapshot`], used when a crashed processor's registry is
    /// rebuilt from its epoch checkpoint. A true overwrite: buckets absent
    /// from the snapshot are zeroed, so samples observed by a respawned
    /// processor's pre-restore re-execution don't survive.
    pub(crate) fn restore(&self, s: &HistSnapshot) {
        self.count.store(s.count, Ordering::Relaxed);
        self.sum.store(s.sum, Ordering::Relaxed);
        self.max.store(s.max, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        for &(b, n) in &s.buckets {
            self.buckets[b as usize].store(n, Ordering::Relaxed);
        }
    }

    /// Freeze into a snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u8, n))
                })
                .collect(),
        }
    }
}

/// Immutable histogram snapshot: only non-empty buckets are kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// `(bucket index, sample count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merge another snapshot into this one, bucket-wise.
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for &(b, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (b, n)),
            }
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the bucket boundaries:
    /// returns the upper bound of the bucket containing the `q`-th sample.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return if b == 0 { 0 } else { 1u64 << b.min(63) };
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named-metric registry. Looking up (or creating) a metric by name takes
/// a short mutex; the returned handle updates lock-free, so hot paths hold
/// handles and never touch the maps. One registry per processor — snapshots
/// are merged across processors by [`MetricsSnapshot::merge`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry poisoned");
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Reload a snapshot into this registry — the inverse of
    /// [`Registry::snapshot`], used when a crashed processor is respawned
    /// from its epoch checkpoint so its metrics resume from the boundary
    /// values instead of zero. A true overwrite: every already-registered
    /// metric is zeroed first, because a respawned processor re-executes
    /// (and re-counts) work preceding its restore point.
    pub(crate) fn restore(&self, s: &MetricsSnapshot) {
        for c in self.counters.lock().expect("registry poisoned").values() {
            c.set(0);
        }
        for g in self.gauges.lock().expect("registry poisoned").values() {
            g.restore(0, 0);
        }
        for h in self.histograms.lock().expect("registry poisoned").values() {
            h.restore(&HistSnapshot::default());
        }
        for (k, v) in &s.counters {
            self.counter(k).set(*v);
        }
        for (k, v) in &s.gauges {
            self.gauge(k).restore(v.last, v.max);
        }
        for (k, h) in &s.histograms {
            self.histogram(k).restore(h);
        }
    }

    /// Freeze every registered metric into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| {
                    let (last, max) = v.get();
                    (k.clone(), GaugeValue { last, max })
                })
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A gauge's frozen state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeValue {
    /// Last value set.
    pub last: u64,
    /// Maximum value ever set.
    pub max: u64,
}

/// All of one processor's metrics, frozen at the end of a run (or the merge
/// of several processors' snapshots).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, GaugeValue>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl MetricsSnapshot {
    /// Merge `other` into `self`: counters add, gauges keep the overall
    /// maximum (and the maximum of lasts), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_default();
            e.last = e.last.max(v.last);
            e.max = e.max.max(v.max);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Human-readable multi-line summary, stable order.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k} = {} (max {})", v.last, v.max);
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{k}: n={} mean={:.1} p50~{} p99~{} max={}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max
            );
        }
        out
    }

    /// Render as a JSON object (stable key order; no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_map(&mut out, &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\"gauges\":{");
        push_map(&mut out, &self.gauges, |out, v| {
            let _ = write!(out, "{{\"last\":{},\"max\":{}}}", v.last, v.max);
        });
        out.push_str("},\"histograms\":{");
        push_map(&mut out, &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.max
            );
            for (i, (b, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{b},{n}]");
            }
            out.push_str("]}");
        });
        out.push_str("}}");
        out
    }
}

fn push_map<V>(out: &mut String, map: &BTreeMap<String, V>, mut val: impl FnMut(&mut String, &V)) {
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":");
        val(out, v);
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

/// Escape a string into a JSON string body (quotes not included).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

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

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_snapshot_and_merge() {
        let h = Histogram::default();
        for v in [0, 1, 1, 5, 1000] {
            h.observe(v);
        }
        let mut a = h.snapshot();
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 1007);
        assert_eq!(a.max, 1000);
        assert_eq!(a.buckets, vec![(0, 1), (1, 2), (3, 1), (10, 1)]);

        let h2 = Histogram::default();
        h2.observe(6);
        h2.observe(2000);
        a.merge(&h2.snapshot());
        assert_eq!(a.count, 7);
        assert_eq!(a.max, 2000);
        assert_eq!(a.buckets, vec![(0, 1), (1, 2), (3, 2), (10, 1), (11, 1)]);
        // Median of {0,1,1,5,6,1000,2000} is 5 → bucket 3 upper bound 8.
        assert_eq!(a.quantile(0.5), 8);
        assert_eq!(a.quantile(0.0), 0);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        let c1 = r.counter("x");
        let c2 = r.counter("x");
        c1.inc();
        c2.add(2);
        assert_eq!(r.snapshot().counter("x"), 3);
        let g = r.gauge("depth");
        g.set(5);
        g.set(2);
        let snap = r.snapshot();
        assert_eq!(snap.gauges["depth"], GaugeValue { last: 2, max: 5 });
    }

    #[test]
    fn snapshot_merge_adds_counters_and_maxes_gauges() {
        let a = Registry::new();
        a.counter("n").add(2);
        a.gauge("g").set(7);
        let b = Registry::new();
        b.counter("n").add(3);
        b.counter("only_b").inc();
        b.gauge("g").set(4);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("n"), 5);
        assert_eq!(m.counter("only_b"), 1);
        assert_eq!(m.gauges["g"].max, 7);
    }

    #[test]
    fn metrics_json_is_well_formed() {
        let r = Registry::new();
        r.counter("msg.sent").add(4);
        r.histogram("msg.words").observe(16);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"msg.sent\":4"), "{json}");
        assert!(json.contains("\"buckets\":[[5,1]]"), "{json}");
        // Balanced braces/brackets (cheap structural check without a parser).
        let depth = json.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
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
    fn escape_handles_specials() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "a\\\"b\\\\c\\nd");
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
