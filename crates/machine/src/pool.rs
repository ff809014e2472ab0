//! Typed, per-processor buffer pool for allocation-free plan execution.
//!
//! Re-executing a cached communication plan sends the same message shapes
//! to the same destinations every iteration. Instead of allocating fresh
//! per-destination buffers each time, the executor checks buffers out of a
//! pool keyed by `(plan key, destination, payload type)`, fills them in
//! place, and ships them as [`Arc`]-shared packets; the *receiver* returns
//! each buffer to the sender's slot after decoding. From the second
//! execution onward the whole compose+redistribute loop touches no
//! allocator (verified by the counting allocator in `hpf-core`'s
//! `zero_alloc` suite).
//!
//! Ownership protocol (see DESIGN.md §11): every slot is a tiny state
//! machine —
//!
//! ```text
//!   Free ──checkout (sender)──▶ Empty ──stash (sender)──▶ Staged
//!     ▲                                                      │
//!     └───────── put_back (receiver, after decode) ◀─────────┘
//! ```
//!
//! The sender may only check out a `Free` slot; a slot stays `Staged` until
//! the receiver has decoded it, so a sender re-executing faster than its
//! receiver consumes blocks (wall-clock only — simulated time is untouched)
//! instead of clobbering in-flight data. Each `(key, dst, type)` entry holds
//! two slots used alternately, so a sender can compose iteration `n+1`
//! while the receiver still holds iteration `n`.
//!
//! A recoverable run logs every frame until the receiver's next epoch
//! boundary, and a logged payload must never alias a buffer its sender can
//! refill. There the wire and the log carry a **frozen** slot
//! ([`PoolSlot::freeze`]): a detached copy of the staged buffer that no
//! pool hands out, whose `put_back` re-stages it untouched so a replayed
//! frame decodes again. The live slot goes back to `Free` at the send.
//! That is also why an epoch checkpoint holds nothing of the pool: only a
//! logging transport can crash, its live slots are free whenever a send
//! returns, so a respawned processor's empty pool behaves exactly as the
//! crashed one's would have.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::message::Payload;
use crate::sched::Scheduler;

/// A pool-managed payload: resettable to an empty-but-capacitated state so
/// the next fill reuses the allocation, and cloneable so that a logged send
/// can freeze a copy ([`PoolSlot::freeze`]).
pub trait Reusable: Payload + Default + Clone {
    /// Clear contents, keeping capacity.
    fn reset(&mut self);
}

impl<T: crate::message::Wire> Reusable for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
}

/// Where a slot's buffer currently lives.
enum SlotState<B> {
    /// Parked in the pool, ready for checkout.
    Free(B),
    /// Filled by the sender, awaiting (or in) transit; the receiver will
    /// take it.
    Staged(B),
    /// Checked out: the sender is filling it, or the receiver is decoding
    /// a taken buffer.
    Empty,
}

/// One shareable buffer slot. The `Arc<PoolSlot<B>>` itself is the packet
/// payload: the receiver downcasts it and returns the buffer straight into
/// the sender's slot.
pub struct PoolSlot<B> {
    state: Mutex<SlotState<B>>,
    /// High-water of charged bytes ever staged in this slot. Memory
    /// accounting charges a slot's *growth* once (the buffer is reused, so
    /// its footprint is its largest staging, never the sum).
    charged: AtomicU64,
    /// The slot owner's scheduler handle, registered only while the owner
    /// is parked in back-pressure ([`crate::proc::Proc::pool_checkout`]):
    /// the receiver's `put_back` — which runs on a different carrier —
    /// unparks the owner instead of leaving it to spin or poll.
    waker: Mutex<Option<(Arc<Scheduler>, usize)>>,
    /// A detached copy made by [`PoolSlot::freeze`]: never checked out
    /// again, re-staged by every `put_back`.
    frozen: bool,
}

impl<B: Reusable> PoolSlot<B> {
    fn new() -> PoolSlot<B> {
        PoolSlot {
            state: Mutex::new(SlotState::Free(B::default())),
            charged: AtomicU64::new(0),
            waker: Mutex::new(None),
            frozen: false,
        }
    }

    /// Copy the staged buffer into a frozen slot for the wire and the
    /// replay log, and return this slot's own buffer to `Free` as the
    /// receiver otherwise would (sender side, recoverable runs only) — in
    /// one step under the slot's lock. The caller is the slot's owner, so
    /// there is no parked owner to wake.
    pub(crate) fn freeze(&self) -> PoolSlot<B> {
        let mut st = self.state.lock().unwrap();
        let SlotState::Staged(mut buf) = std::mem::replace(&mut *st, SlotState::Empty) else {
            panic!("froze a pool slot that is not staged");
        };
        let copy = buf.clone();
        buf.reset();
        *st = SlotState::Free(buf);
        drop(st);
        PoolSlot {
            state: Mutex::new(SlotState::Staged(copy)),
            frozen: true,
            ..PoolSlot::new()
        }
    }

    /// Register (or clear) the owner's park waker for this slot.
    pub(crate) fn set_waker(&self, waker: Option<(Arc<Scheduler>, usize)>) {
        *self.waker.lock().unwrap() = waker;
    }

    /// Raise the slot's charged high-water to `bytes`, returning the growth
    /// over the previous high-water (0 when the slot was already this big —
    /// steady-state sends through a warm slot charge nothing).
    pub(crate) fn note_charged(&self, bytes: u64) -> u64 {
        let prev = self.charged.fetch_max(bytes, Ordering::Relaxed);
        bytes.saturating_sub(prev)
    }

    /// Take the buffer if the slot is `Free`; `None` while the previous
    /// send through this slot is still unconsumed.
    pub fn try_checkout(&self) -> Option<B> {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, SlotState::Empty) {
            SlotState::Free(b) => Some(b),
            other => {
                *st = other;
                None
            }
        }
    }

    /// Park a filled buffer for the receiver (sender side, after filling).
    pub fn stash(&self, buf: B) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(matches!(*st, SlotState::Empty), "stash into non-empty slot");
        *st = SlotState::Staged(buf);
    }

    /// Take the staged buffer for decoding (receiver side). Panics if the
    /// slot is not staged — FIFO delivery guarantees the sender stashed
    /// before the packet became visible.
    pub fn take_staged(&self) -> B {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, SlotState::Empty) {
            SlotState::Staged(b) => b,
            _ => panic!("pool slot taken before it was staged"),
        }
    }

    /// Words the staged buffer will occupy on the wire (sender side,
    /// between `stash` and the actual send).
    pub(crate) fn staged_words(&self) -> crate::cost::Words {
        let st = self.state.lock().unwrap();
        match &*st {
            SlotState::Staged(b) => b.wire_words(),
            _ => panic!("staged_words on a slot that is not staged"),
        }
    }

    /// Return a decoded buffer to the pool (receiver side), unparking the
    /// owner if it is waiting on this slot's back-pressure. A frozen slot
    /// keeps its contents and goes back to `Staged`: the replay log may
    /// deliver it to the receiver's next incarnation.
    pub fn put_back(&self, mut buf: B) {
        let next = if self.frozen {
            SlotState::Staged(buf)
        } else {
            buf.reset();
            SlotState::Free(buf)
        };
        let mut st = self.state.lock().unwrap();
        debug_assert!(
            matches!(*st, SlotState::Empty),
            "put_back into occupied slot"
        );
        *st = next;
        drop(st);
        let waker = self.waker.lock().unwrap().clone();
        if let Some((sched, owner)) = waker {
            sched.unpark(owner);
        }
    }
}

/// What the pool needs of a slot whose buffer type it has forgotten.
trait ErasedSlot: Any + Send + Sync {
    /// The slot's charged high-water, bytes.
    fn charged(&self) -> u64;
}

impl<B: Reusable> ErasedSlot for PoolSlot<B> {
    fn charged(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }
}

/// Two slots per `(key, dst, type)`, used alternately.
struct Entry {
    slots: [Arc<dyn ErasedSlot>; 2],
    flip: usize,
}

impl Entry {
    fn slot<B: Reusable>(&self, i: usize) -> Arc<PoolSlot<B>> {
        let slot: Arc<dyn Any + Send + Sync> = Arc::clone(&self.slots[i]) as _;
        slot.downcast().expect("pool entry type mismatch")
    }
}

/// A per-processor pool of reusable send buffers.
#[derive(Default)]
pub(crate) struct BufferPool {
    /// Ordered, not hashed: one-shot plans insert and retire their entries
    /// every op, and a hash table re-allocates under that churn at moments
    /// that follow its per-process random seed, so the bytes an op
    /// allocates would not repeat from run to run.
    entries: BTreeMap<(u64, usize, TypeId), Entry>,
}

impl BufferPool {
    /// The slot to use for the next send of a `B` to `dst` under plan
    /// `key`, advancing the two-slot rotation. Creates (and allocates) the
    /// entry on first use; steady-state calls only flip an index.
    pub(crate) fn next_slot<B: Reusable>(&mut self, key: u64, dst: usize) -> Arc<PoolSlot<B>> {
        let entry = self
            .entries
            .entry((key, dst, TypeId::of::<B>()))
            .or_insert_with(|| Entry {
                slots: [
                    Arc::new(PoolSlot::<B>::new()),
                    Arc::new(PoolSlot::<B>::new()),
                ],
                flip: 0,
            });
        let slot = entry.slot(entry.flip);
        entry.flip ^= 1;
        slot
    }

    /// Drop every entry of plan `key` — the plan is gone and its buffers
    /// with it. Returns the bytes the dropped slots had charged to the
    /// `pool` account. A slot still in flight lives on in its packet until
    /// the receiver has decoded it.
    pub(crate) fn retire(&mut self, key: u64) -> u64 {
        let mut charged = 0;
        self.entries.retain(|k, e| {
            if k.0 == key {
                charged += e.slots.iter().map(|s| s.charged()).sum::<u64>();
            }
            k.0 != key
        });
        charged
    }

    /// The slot handed out by the most recent [`BufferPool::next_slot`] for
    /// this `(key, dst, type)` — the one currently in flight. Used by the
    /// self-message path, where sender and receiver are the same processor.
    pub(crate) fn current_slot<B: Reusable>(&self, key: u64, dst: usize) -> Arc<PoolSlot<B>> {
        let entry = self
            .entries
            .get(&(key, dst, TypeId::of::<B>()))
            .expect("current_slot before any next_slot");
        entry.slot(entry.flip ^ 1)
    }
}

static NEXT_POOL_KEY: AtomicU64 = AtomicU64::new(1);

/// A process-unique pool key. Each plan takes one at planning time; pools
/// are per-processor, so keys only need to be unique locally — but a global
/// counter is the simplest way to also keep them unique across plans.
pub fn fresh_pool_key() -> u64 {
    NEXT_POOL_KEY.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_state_machine_roundtrip() {
        let slot = PoolSlot::<Vec<i32>>::new();
        let mut b = slot.try_checkout().expect("fresh slot is free");
        assert!(slot.try_checkout().is_none(), "empty slot is not free");
        b.push(7);
        slot.stash(b);
        assert_eq!(slot.staged_words(), 1);
        assert!(slot.try_checkout().is_none(), "staged slot is not free");
        let got = slot.take_staged();
        assert_eq!(got, vec![7]);
        slot.put_back(got);
        let again = slot.try_checkout().expect("returned slot is free again");
        assert!(again.is_empty(), "put_back resets contents");
        assert!(again.capacity() >= 1, "put_back keeps capacity");
    }

    #[test]
    fn frozen_copy_restages_and_frees_the_live_slot() {
        let live = PoolSlot::<Vec<i32>>::new();
        let mut b = live.try_checkout().unwrap();
        b.extend([7, 8]);
        live.stash(b);
        let frozen = live.freeze();
        // The sender may refill at once; the copy is not its buffer.
        let mut again = live.try_checkout().expect("freeze frees the live slot");
        again.push(99);
        assert!(
            frozen.try_checkout().is_none(),
            "a frozen slot is never free"
        );
        // Decoded by the receiver, then once more by its respawn.
        for _ in 0..2 {
            assert_eq!(frozen.staged_words(), 2);
            let got = frozen.take_staged();
            assert_eq!(got, vec![7, 8]);
            frozen.put_back(got);
        }
    }

    #[test]
    fn pool_alternates_two_slots_per_destination() {
        let mut pool = BufferPool::default();
        let a = pool.next_slot::<Vec<i32>>(1, 0);
        let cur_a = pool.current_slot::<Vec<i32>>(1, 0);
        assert!(Arc::ptr_eq(&a, &cur_a));
        let b = pool.next_slot::<Vec<i32>>(1, 0);
        assert!(!Arc::ptr_eq(&a, &b));
        let c = pool.next_slot::<Vec<i32>>(1, 0);
        assert!(Arc::ptr_eq(&a, &c), "third checkout reuses the first slot");
        // Different keys, destinations, and types get distinct entries.
        let other = pool.next_slot::<Vec<i32>>(2, 0);
        assert!(!Arc::ptr_eq(&a, &other));
        let _typed = pool.next_slot::<Vec<(u32, i32)>>(1, 0);
    }

    /// Retiring a plan key drops its entries of every destination and type
    /// (and only its), reports what their slots had charged, and leaves a
    /// slot that is still in flight to whoever holds it.
    #[test]
    fn retire_drops_one_key_and_reports_its_charge() {
        let mut pool = BufferPool::default();
        let in_flight = pool.next_slot::<Vec<i32>>(1, 0);
        assert_eq!(in_flight.note_charged(40), 40);
        assert_eq!(pool.next_slot::<Vec<i32>>(1, 0).note_charged(8), 8);
        assert_eq!(
            pool.next_slot::<Vec<(u32, i32)>>(1, 3).note_charged(100),
            100
        );
        let kept = pool.next_slot::<Vec<i32>>(2, 0);
        kept.note_charged(7);
        in_flight.try_checkout().expect("a fresh slot is free");
        in_flight.stash(vec![5]);

        assert_eq!(pool.retire(1), 148);
        assert_eq!(pool.retire(1), 0, "nothing left to give back");
        assert!(pool.entries.keys().all(|k| k.0 == 2));
        assert_eq!(
            in_flight.take_staged(),
            vec![5],
            "the receiver still decodes it"
        );
        assert_eq!(Arc::strong_count(&in_flight), 1, "and frees it when done");
        // The key starts over: a fresh entry at rotation 0, nothing charged.
        let again = pool.next_slot::<Vec<i32>>(1, 0);
        assert!(!Arc::ptr_eq(&again, &in_flight));
        assert_eq!(again.note_charged(1), 1);
        assert!(Arc::ptr_eq(&kept, &pool.current_slot::<Vec<i32>>(2, 0)));
    }

    #[test]
    fn fresh_keys_are_unique() {
        let a = fresh_pool_key();
        let b = fresh_pool_key();
        assert_ne!(a, b);
    }
}
