//! Crash recovery: epoch checkpoints plus a deterministic frame-replay log.
//!
//! Under [`crate::Machine::run_recoverable`] the run is divided into
//! **epochs**: a program threads one piece of user state through
//! [`crate::Proc::epoch`] calls, and every epoch ends with a machine-wide
//! barrier after which each processor publishes a snapshot of its
//! recoverable state (simulated clock, mailbox, reliable-transport sequence
//! state, buffer-pool rotation, metrics, and the user state via the
//! [`Checkpoint`] trait). Peers additionally retain an `Arc`-backed
//! **replay log** of every sequenced frame sent since the receiver's last
//! epoch boundary — a refcount bump per frame, truncated at each boundary.
//!
//! When a processor crashes (a scheduled [`crate::FaultPlan`] crash), the
//! driver respawns its thread from the last published snapshot, re-injects
//! the logged frames through the normal transport dispatch path (sequence
//! numbers dedup the overlap with frames still queued in the surviving
//! channel), and re-executes the interrupted epoch. Because fault verdicts
//! and delays are drawn from sequence numbers, the re-execution redraws
//! identical outcomes and the recovered run is bit-identical to the
//! fault-free one — results *and* simulated clocks.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::cost::SimClock;
use crate::message::{Mailbox, Packet};
use crate::obs::{Event, ProcMetrics};
use crate::pool::PoolSnapshot;
use crate::reliable::TransportSnapshot;

/// User state that can be checkpointed at epoch boundaries.
///
/// A blanket implementation covers every `Clone + Send + 'static` type, so
/// ordinary program state (vectors, structs of plain data) checkpoints with
/// no ceremony. The snapshot is taken *after* the epoch's barrier, so it is
/// globally consistent with every peer's snapshot of the same epoch.
pub trait Checkpoint: 'static {
    /// Capture the state as an owned, type-erased snapshot.
    fn snapshot(&self) -> Box<dyn Any + Send>;
    /// Replace `self` with a previously captured snapshot.
    ///
    /// # Panics
    /// Panics if `snap` was not produced by `Self::snapshot` (the program
    /// changed between crash and respawn — a harness bug, not a data bug).
    fn restore(&mut self, snap: Box<dyn Any + Send>);
}

impl<T: Clone + Send + 'static> Checkpoint for T {
    fn snapshot(&self) -> Box<dyn Any + Send> {
        Box::new(self.clone())
    }

    fn restore(&mut self, snap: Box<dyn Any + Send>) {
        *self = *snap
            .downcast::<T>()
            .expect("checkpoint snapshot type does not match the state it restores");
    }
}

/// One processor's recoverable state as published at an epoch boundary.
pub(crate) struct EpochSnapshot {
    /// Index of the epoch this snapshot completed (0-based).
    pub(crate) completed: usize,
    /// The simulated clock, including its category breakdown and trace.
    pub(crate) clock: SimClock,
    /// Unconsumed packets (self-sends and early next-epoch arrivals).
    pub(crate) mailbox: Mailbox,
    /// Sequence/ack counters of the reliable transport, when one exists.
    pub(crate) transport: Option<TransportSnapshot>,
    /// Charged words sent per destination so far.
    pub(crate) words_to: Vec<u64>,
    /// Structured event log so far (empty unless tracing).
    pub(crate) events: Vec<Event>,
    /// A copy of the metrics (None unless metrics are on).
    pub(crate) metrics: Option<ProcMetrics>,
    /// Buffer-pool slot rotation (which slot each entry hands out next).
    pub(crate) pool: PoolSnapshot,
    /// The program's own state, captured through [`Checkpoint`].
    pub(crate) user: Box<dyn Any + Send>,
}

/// What a respawned processor needs to resume: the last snapshot (if any
/// epoch completed before the crash) and the replay log of frames addressed
/// to it since that boundary.
pub(crate) struct ResumeCtx {
    pub(crate) snapshot: Option<EpochSnapshot>,
    pub(crate) replay: Vec<(u64, Packet)>,
}

impl ResumeCtx {
    /// First epoch index the respawned processor must re-execute.
    pub(crate) fn resume_epoch(&self) -> usize {
        self.snapshot.as_ref().map_or(0, |s| s.completed + 1)
    }
}

/// The per-destination replay log: sequenced frames sent to one processor
/// since its last epoch boundary, in per-sender sequence order.
#[derive(Default)]
struct ReplayLog {
    frames: Vec<(u64, Packet)>,
    /// Charged words currently retained (the log's memory bound).
    words: u64,
    /// Per sender (grown on demand): one past the highest sequence number
    /// ever logged. A sender's numbers ascend, so only a frame below this
    /// can be a repeat.
    next_seq: Vec<u64>,
}

/// Shared recovery state for one `run_recoverable` call: replay logs and
/// snapshot slots for every processor, plus run-wide counters the driver
/// surfaces as [`RecoveryStats`].
pub(crate) struct RecoveryState {
    /// Indexed by *destination* processor.
    logs: Vec<Mutex<ReplayLog>>,
    /// Indexed by processor; overwritten at each epoch boundary.
    snapshots: Vec<Mutex<Option<EpochSnapshot>>>,
    epochs: AtomicU64,
    replays: AtomicU64,
    replayed_frames: AtomicU64,
    replayed_words: AtomicU64,
    /// Modelled replay time, summed over recoveries, in integer ns.
    replay_ns: AtomicU64,
    /// Current total charged words retained across all logs.
    log_words: AtomicU64,
    /// High-water mark of `log_words` — the replay-log memory bound actually
    /// reached, in charged words.
    log_high_water_words: AtomicU64,
}

impl RecoveryState {
    pub(crate) fn new(nprocs: usize) -> Self {
        RecoveryState {
            logs: (0..nprocs)
                .map(|_| Mutex::new(ReplayLog::default()))
                .collect(),
            snapshots: (0..nprocs).map(|_| Mutex::new(None)).collect(),
            epochs: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            replayed_frames: AtomicU64::new(0),
            replayed_words: AtomicU64::new(0),
            replay_ns: AtomicU64::new(0),
            log_words: AtomicU64::new(0),
            log_high_water_words: AtomicU64::new(0),
        }
    }

    /// Retain one sequenced frame in `dst`'s replay log (an `Arc` bump).
    ///
    /// A respawned sender re-executes its interrupted epoch and logs its
    /// frames again, under sequence numbers it has used before. Such a frame
    /// is never a second copy to retain: if `dst`'s log still holds the
    /// number, it replaces that entry and the retained words do not move; if
    /// not, a boundary truncation dropped it — `dst` consumed it, its
    /// snapshot covers it, and the transport will discard the repeat.
    pub(crate) fn log_frame(&self, dst: usize, seq: u64, pkt: Packet) {
        let words = pkt.words as u64;
        let mut log = self.logs[dst].lock().unwrap();
        if log.next_seq.len() <= pkt.src {
            log.next_seq.resize(pkt.src + 1, 0);
        }
        if seq < log.next_seq[pkt.src] {
            let held = |(s, p): &&mut (u64, Packet)| *s == seq && p.src == pkt.src;
            if let Some(entry) = log.frames.iter_mut().find(held) {
                entry.1 = pkt;
            }
            return;
        }
        log.next_seq[pkt.src] = seq + 1;
        log.frames.push((seq, pkt));
        log.words += words;
        drop(log);
        let now = self.log_words.fetch_add(words, Relaxed) + words;
        self.log_high_water_words.fetch_max(now, Relaxed);
    }

    /// Drop every logged frame `dst` has provably consumed: with the
    /// boundary flush complete, anything below the receiver's next expected
    /// sequence per sender is covered by the snapshot taken at this
    /// boundary. `expected[src]` comes from `dst`'s own transport; `None`
    /// (no transport, hence no sequenced traffic) clears the log. Returns
    /// the log's charged words `(before, after)` truncation — the interval
    /// peak and the truncation floor the caller's memory accounting records.
    pub(crate) fn truncate_log(&self, dst: usize, expected: Option<&[u64]>) -> (u64, u64) {
        let mut log = self.logs[dst].lock().unwrap();
        let before = log.words;
        match expected {
            None => log.frames.clear(),
            Some(exp) => log.frames.retain(|(seq, pkt)| *seq >= exp[pkt.src]),
        }
        log.words = log.frames.iter().map(|(_, p)| p.words as u64).sum();
        let after = log.words;
        let freed = before - after;
        drop(log);
        self.log_words.fetch_sub(freed, Relaxed);
        (before, after)
    }

    /// Clone `dst`'s current replay log (packets share payloads by refcount).
    pub(crate) fn clone_log(&self, dst: usize) -> Vec<(u64, Packet)> {
        self.logs[dst].lock().unwrap().frames.clone()
    }

    /// Publish `id`'s boundary snapshot, replacing the previous epoch's.
    pub(crate) fn publish(&self, id: usize, snap: EpochSnapshot) {
        *self.snapshots[id].lock().unwrap() = Some(snap);
        self.epochs.fetch_add(1, Relaxed);
    }

    /// Hand `id`'s latest snapshot to the driver for a respawn.
    pub(crate) fn take_snapshot(&self, id: usize) -> Option<EpochSnapshot> {
        self.snapshots[id].lock().unwrap().take()
    }

    /// Account one completed replay (driven by the respawned processor).
    pub(crate) fn note_replay(&self, frames: u64, words: u64, modelled_ns: f64) {
        self.replays.fetch_add(1, Relaxed);
        self.replayed_frames.fetch_add(frames, Relaxed);
        self.replayed_words.fetch_add(words, Relaxed);
        self.replay_ns
            .fetch_add(modelled_ns.max(0.0) as u64, Relaxed);
    }

    pub(crate) fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            epochs: self.epochs.load(Relaxed),
            replays: self.replays.load(Relaxed),
            replayed_frames: self.replayed_frames.load(Relaxed),
            replayed_words: self.replayed_words.load(Relaxed),
            log_high_water_words: self.log_high_water_words.load(Relaxed),
            replay_ms: self.replay_ns.load(Relaxed) as f64 / 1e6,
        }
    }
}

/// Run-wide recovery accounting, surfaced on
/// [`crate::RunOutput::recovery`] after a [`crate::Machine::run_recoverable`]
/// call (`None` for plain runs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryStats {
    /// Epoch boundaries crossed, summed over processors.
    pub epochs: u64,
    /// Crash recoveries performed (0 for a fault-free run).
    pub replays: u64,
    /// Frames re-injected from replay logs across all recoveries.
    pub replayed_frames: u64,
    /// Charged words re-injected from replay logs across all recoveries.
    pub replayed_words: u64,
    /// High-water mark of charged words retained across all replay logs —
    /// the memory bound the epoch protocol actually reached.
    pub log_high_water_words: u64,
    /// Modelled recovery time (cost-model `recovery_*` terms), summed over
    /// recoveries, in milliseconds. Kept out of the simulated clocks so a
    /// recovered run stays bit-identical to the fault-free one.
    pub replay_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn frame(src: usize, words: usize) -> Packet {
        Packet {
            src,
            tag: 0,
            arrival_ns: 0.0,
            words,
            data: Arc::new(()),
            charge: None,
        }
    }

    /// A frame logged again under a sequence number the log already holds
    /// replaces its entry: retained words, the run-wide total and its
    /// high-water mark all count it once. New numbers — and the same number
    /// from another sender — still append.
    #[test]
    fn relogged_frames_replace_their_entry() {
        let rec = RecoveryState::new(3);
        rec.log_frame(2, 5, frame(0, 8));
        rec.log_frame(2, 6, frame(0, 4));
        rec.log_frame(2, 5, frame(1, 2));
        let before = rec.stats().log_high_water_words;
        assert_eq!(before, 14);
        // Sender 0 respawns and re-executes: 5 and 6 again, then 7.
        rec.log_frame(2, 5, frame(0, 8));
        rec.log_frame(2, 6, frame(0, 4));
        assert_eq!(rec.stats().log_high_water_words, before);
        assert_eq!(rec.clone_log(2).len(), 3);
        rec.log_frame(2, 7, frame(0, 1));
        assert_eq!(rec.clone_log(2).len(), 4);
        assert_eq!(rec.stats().log_high_water_words, 15);
        // The boundary releases exactly what was retained.
        assert_eq!(rec.truncate_log(2, Some(&[7, 6, 0])), (15, 1));
        // A repeat of a frame the boundary dropped is not retained again.
        rec.log_frame(2, 6, frame(0, 4));
        assert_eq!(rec.truncate_log(2, None), (1, 0));
    }
}
