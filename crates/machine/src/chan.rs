//! Allocation-free frame channel between virtual processors.
//!
//! `std::sync::mpsc` allocates a fresh node per send, which would show up
//! in the steady-state allocation gate even when every payload buffer is
//! pooled. This channel is a `Mutex<VecDeque<Frame>>` with a
//! deterministically pre-reserved ring, so enqueue/dequeue is
//! allocation-free as long as the queue depth stays under the initial
//! capacity (the buffer-pool back-pressure in [`crate::proc::Proc`] bounds
//! depth to a few frames per sender; see DESIGN.md §11).
//!
//! Blocking is the scheduler's job, not the channel's: receivers probe with
//! [`FrameReceiver::try_recv`] and park in [`crate::sched::Scheduler`];
//! the channel carries a *waker* — the destination's scheduler handle,
//! fixed at construction — so every enqueue reaches the scheduler,
//! whichever thread performed it. Sequenced data, acks, retransmissions
//! and poison unpark the destination unconditionally; an unsequenced
//! [`Frame::Raw`] names its sender, and the scheduler leaves a receiver
//! parked that awaits a different one (DESIGN.md §15, "Targeted wake-ups").
//!
//! The ring capacity is scale-aware (see [`default_capacity`]): the
//! original fixed 1024-frame pre-reserve is kept through P=64 so small-P
//! steady-state traffic never allocates, and shrinks hyperbolically above
//! that — at P=4096 a full-size pre-reserve would cost ~P× more memory
//! than any queue ever uses. Ring bytes are charged to the
//! `mem.mailbox.ring` account at processor start (see DESIGN.md §13).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::message::{Frame, Packet};
use crate::sched::Scheduler;

/// Per-processor frames pre-reserved across the whole machine, the budget
/// [`default_capacity`] divides by P (chosen so P ≤ 64 keeps the historic
/// 1024-slot ring).
const TOTAL_FRAME_BUDGET: usize = 65_536;

/// Ring capacity floor: even the largest machines keep a few slots so
/// steady phase traffic (a handful of frames between dequeues) stays
/// allocation-free.
const MIN_CAPACITY: usize = 16;

/// Historic per-processor pre-reserve, kept verbatim for P ≤ 64 so the
/// small-P allocation behaviour (and the `zero_alloc` gate) is
/// byte-for-byte unchanged.
const MAX_CAPACITY: usize = 1024;

/// The scale-aware default ring capacity for a P-processor machine:
/// `clamp(65536 / P, 16, 1024)` frames. Growth past the ring allocates
/// (correctly counted) and stays results-deterministic — queue depth never
/// influences matching, only the allocator.
pub fn default_capacity(nprocs: usize) -> usize {
    (TOTAL_FRAME_BUDGET / nprocs.max(1)).clamp(MIN_CAPACITY, MAX_CAPACITY)
}

/// Bytes the pre-reserved frame ring pins per processor at capacity `cap`
/// — the exact quantity charged to the `mem.mailbox.ring` account and
/// asserted byte-for-byte by the memory perf group.
pub fn ring_bytes(cap: usize) -> u64 {
    (cap * std::mem::size_of::<Frame>()) as u64
}

struct Shared {
    queue: Mutex<VecDeque<Frame>>,
    /// Pre-reserved ring capacity (the charged quantity; the `VecDeque`
    /// may round up internally).
    capacity: usize,
    /// The owning processor's scheduler handle and id, so every enqueue can
    /// unpark the receiver; `None` only in unit tests of bare channels.
    waker: Option<(Arc<Scheduler>, usize)>,
}

/// Sending half; cheaply cloneable, one clone per peer processor.
pub(crate) struct FrameSender {
    shared: Arc<Shared>,
}

impl Clone for FrameSender {
    fn clone(&self) -> Self {
        FrameSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Receiving half; owned by exactly one processor.
pub(crate) struct FrameReceiver {
    shared: Arc<Shared>,
}

/// A connected channel with `capacity` slots pre-reserved, whose sends
/// wake processor `waker.1` through scheduler `waker.0`.
pub(crate) fn frame_channel_with_capacity(
    capacity: usize,
    waker: Option<(Arc<Scheduler>, usize)>,
) -> (FrameSender, FrameReceiver) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::with_capacity(capacity)),
        capacity,
        waker,
    });
    (
        FrameSender {
            shared: Arc::clone(&shared),
        },
        FrameReceiver { shared },
    )
}

/// A connected, waker-less channel with the historic 1024-slot pre-reserve.
#[cfg(test)]
pub(crate) fn frame_channel() -> (FrameSender, FrameReceiver) {
    frame_channel_with_capacity(MAX_CAPACITY, None)
}

impl FrameSender {
    /// Enqueue an unsequenced packet and tell the scheduler: one ring lock,
    /// one scheduler call. Never blocks; receivers may already be gone
    /// during teardown, in which case the frame is silently parked in the
    /// queue (the stale unpark is harmless — a finished task ignores
    /// wakes). A raw frame is matched by its sender alone, so it wakes only
    /// a receiver that awaits that sender.
    pub(crate) fn send_raw(&self, pkt: Packet) {
        let src = pkt.src;
        self.shared.queue.lock().unwrap().push_back(Frame::Raw(pkt));
        if let Some((sched, dst)) = &self.shared.waker {
            sched.unpark_from(*dst, src);
        }
    }

    /// Enqueue sequenced or control `frames` under one ring lock — a
    /// receiver that dequeues the first finds the rest queued — and wake
    /// the destination once, unconditionally: a sequenced frame may release
    /// held-back packets of any key, and control frames drive the
    /// transport. Returns how many there were.
    pub(crate) fn send_all(&self, frames: impl IntoIterator<Item = Frame>) -> usize {
        let n = {
            let mut queue = self.shared.queue.lock().unwrap();
            let before = queue.len();
            queue.extend(frames);
            queue.len() - before
        };
        if n > 0 {
            if let Some((sched, dst)) = &self.shared.waker {
                sched.unpark(*dst);
            }
        }
        n
    }
}

impl FrameReceiver {
    /// Dequeue the next frame if one is already queued.
    pub(crate) fn try_recv(&self) -> Option<Frame> {
        self.shared.queue.lock().unwrap().pop_front()
    }

    /// The pre-reserved ring capacity, in frames.
    pub(crate) fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MachineError;

    fn poison() -> Frame {
        Frame::Poison(MachineError::ProcPanicked {
            proc: 0,
            msg: String::new(),
        })
    }

    #[test]
    fn frames_arrive_in_order() {
        let (tx, rx) = frame_channel();
        tx.send_all([Frame::Ack { from: 1, seq: 10 }]);
        tx.send_all([Frame::Ack { from: 2, seq: 20 }]);
        for expect in [(1, 10), (2, 20)] {
            match rx.try_recv().unwrap() {
                Frame::Ack { from, seq } => assert_eq!((from, seq), expect),
                _ => panic!("wrong frame"),
            }
        }
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn send_unparks_the_attached_owner() {
        // Three scheduled tasks on one worker: 0 and 1 park, then 2 sends
        // through the waker-attached channel of task 1, which wakes.
        // Nothing ever wakes task 0 — once the others are done it is told
        // it is stuck — proving the send woke exactly its addressee.
        let sched = Arc::new(Scheduler::new(3, 1));
        let (tx, rx) = frame_channel_with_capacity(MAX_CAPACITY, Some((Arc::clone(&sched), 1)));
        let outcomes = std::sync::Mutex::new([None; 2]);
        sched.run_worker(0, &Default::default(), &|id| {
            if id == 2 {
                assert_eq!(tx.send_all([poison()]), 1);
                assert_eq!(tx.send_all([]), 0);
            } else {
                let out = sched.park(id, 0.0, false, None);
                outcomes.lock().unwrap()[id] = Some(out);
            }
        });
        use crate::sched::ParkOutcome::{Stuck, Woken};
        assert_eq!(outcomes.into_inner().unwrap(), [Some(Stuck), Some(Woken)]);
        assert!(matches!(rx.try_recv(), Some(Frame::Poison(_))));
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn capacity_is_scale_aware() {
        assert_eq!(default_capacity(1), 1024);
        assert_eq!(default_capacity(8), 1024);
        assert_eq!(
            default_capacity(64),
            1024,
            "small P keeps the historic ring"
        );
        assert_eq!(default_capacity(128), 512);
        assert_eq!(default_capacity(1024), 64);
        assert_eq!(default_capacity(4096), 16);
        assert_eq!(default_capacity(1 << 20), 16, "floor holds");
        let (_tx, rx) = frame_channel_with_capacity(default_capacity(4096), None);
        assert_eq!(rx.capacity(), 16);
        assert_eq!(ring_bytes(16), 16 * std::mem::size_of::<Frame>() as u64);
    }
}
