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
//! machine held in one atomic state word —
//!
//! ```text
//!   Free ──checkout (sender)──▶ Empty ──stash (sender)──▶ Staged
//!     ▲                                                      │
//!     └───────── put_back (receiver, after decode) ◀─────────┘
//! ```
//!
//! Every step first wins a compare-exchange from the state it requires into
//! a transient `Busy`, moves the buffer in or out of the slot's cell, and
//! publishes the next state with a release store. So a step that finds the
//! slot in any other state panics — in release builds too — instead of
//! racing, and the buffer is only ever touched by the one party holding
//! `Busy`. A panic while a slot is `Busy` leaves it `Busy`: every later step
//! then panics, or (a checkout) waits for a slot that never comes back
//! (`PoolStall`), so the slot is unusable but never unsound.
//!
//! The sender may only check out a `Free` slot; a slot stays `Staged` until
//! the receiver has decoded it, so a sender re-executing faster than its
//! receiver consumes blocks (wall-clock only — simulated time is untouched)
//! instead of clobbering in-flight data. Each `(key, dst, type)` entry holds
//! two slots used alternately, so a sender can compose iteration `n+1`
//! while the receiver still holds iteration `n`. A sender that finds its
//! slot taken registers a waker and raises the slot's owner-parked flag; a
//! `put_back` reads the flag after publishing `Free` (both sides SeqCst),
//! so either the owner's next probe sees the slot free or the `put_back`
//! sees the flag and wakes it, and a `put_back` nobody waits for takes no
//! lock.
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
//!
//! This is one of the three files of the crate that may say `unsafe`
//! (DESIGN.md §15): the slot's buffer cell. Every `unsafe` block carries a
//! `// SAFETY:` comment directly above it, which `scripts/ci.sh` checks.

use std::any::{Any, TypeId};
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::cost::Words;
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

/// Parked in the pool, ready for checkout; the cell holds the buffer.
const FREE: u8 = 0;
/// Checked out: the sender is filling the buffer, or the receiver is
/// decoding a taken one; the cell is empty.
const EMPTY: u8 = 1;
/// Filled by the sender, awaiting (or in) transit; the cell holds the
/// buffer and the receiver will take it.
const STAGED: u8 = 2;
/// One party is moving the buffer in or out of the cell.
const BUSY: u8 = 3;

/// One shareable buffer slot. The `Arc<PoolSlot<B>>` itself is the packet
/// payload: the receiver downcasts it and returns the buffer straight into
/// the sender's slot.
pub struct PoolSlot<B> {
    /// `FREE`, `EMPTY`, `STAGED` or `BUSY`: who may touch `buf`.
    state: AtomicU8,
    /// The buffer, present while `FREE` or `STAGED`. Only the party that
    /// moved the state word into `BUSY` accesses it.
    buf: UnsafeCell<Option<B>>,
    /// Wire words of the staged buffer, recorded by `stash`.
    words: AtomicUsize,
    /// High-water of charged bytes ever staged in this slot. Memory
    /// accounting charges a slot's *growth* once (the buffer is reused, so
    /// its footprint is its largest staging, never the sum).
    charged: AtomicU64,
    /// Raised while the owner is parked in back-pressure
    /// ([`crate::proc::Proc::pool_checkout`]), after `waker` is set: a
    /// `put_back` that finds it lowered takes no lock.
    owner_parked: AtomicBool,
    /// The slot owner's scheduler handle while it is parked: the receiver's
    /// `put_back` — which runs on a different carrier — unparks the owner
    /// instead of leaving it to spin or poll.
    waker: Mutex<Option<(Arc<Scheduler>, usize)>>,
    /// A detached copy made by [`PoolSlot::freeze`]: never checked out
    /// again, re-staged by every `put_back`.
    frozen: bool,
}

// SAFETY: `buf`, the one field that is not `Sync` by itself, is accessed
// only by the one thread that moved `state` into `BUSY` (acquiring the
// previous holder's release store), so sharing a slot moves a `B` between
// threads and never shares one: `B: Send` suffices. The other fields are
// atomics, a `Mutex` over `Send + Sync` values, and a `bool` never written
// after construction.
unsafe impl<B: Send> Sync for PoolSlot<B> {}

/// Proof that this thread moved a slot's state word into `BUSY`: the only
/// way to reach the buffer. Dropped without [`Held::release`] — a panic
/// mid-step — it leaves the slot `BUSY` for good.
struct Held<'a, B> {
    slot: &'a PoolSlot<B>,
}

impl<B> Held<'_, B> {
    fn buf(&mut self) -> &mut Option<B> {
        // SAFETY: a `Held` exists only after its thread won the
        // compare-exchange into `BUSY`, which every other access must also
        // win first, so no other reference to `buf` exists until `release`
        // consumes this guard and with it the borrow returned here.
        unsafe { &mut *self.slot.buf.get() }
    }

    /// Publish `next`, handing the buffer to whoever acquires it from there.
    fn release(self, next: u8, order: Ordering) {
        self.slot.state.store(next, order);
    }
}

impl<B: Reusable> PoolSlot<B> {
    fn with(state: u8, buf: B, words: Words, frozen: bool) -> PoolSlot<B> {
        PoolSlot {
            state: AtomicU8::new(state),
            buf: UnsafeCell::new(Some(buf)),
            words: AtomicUsize::new(words),
            charged: AtomicU64::new(0),
            owner_parked: AtomicBool::new(false),
            waker: Mutex::new(None),
            frozen,
        }
    }

    fn new() -> PoolSlot<B> {
        PoolSlot::with(FREE, B::default(), 0, false)
    }

    /// Move the state word from `from` into `BUSY`, or report what it held.
    fn acquire(&self, from: u8) -> Result<Held<'_, B>, u8> {
        self.state
            .compare_exchange(from, BUSY, Ordering::SeqCst, Ordering::SeqCst)
            .map(|_| Held { slot: self })
    }

    /// As [`PoolSlot::acquire`], panicking with `what` if the slot is not
    /// in state `from`.
    fn acquire_or_panic(&self, from: u8, what: &str) -> Held<'_, B> {
        match self.acquire(from) {
            Ok(held) => held,
            Err(found) => panic!("{what} (pool slot state {found})"),
        }
    }

    /// Copy the staged buffer into a frozen slot for the wire and the
    /// replay log, and return this slot's own buffer to `Free` as the
    /// receiver otherwise would (sender side, recoverable runs only) — in
    /// one step of the state word. The caller is the slot's owner, so
    /// there is no parked owner to wake.
    pub(crate) fn freeze(&self) -> PoolSlot<B> {
        let mut held = self.acquire_or_panic(STAGED, "froze a pool slot that is not staged");
        let buf = held.buf().as_mut().expect("a staged slot holds a buffer");
        let copy = buf.clone();
        buf.reset();
        held.release(FREE, Ordering::Release);
        PoolSlot::with(STAGED, copy, self.words.load(Ordering::Relaxed), true)
    }

    /// Register (or clear) the owner's park waker for this slot, then raise
    /// (or lower) the owner-parked flag: a `put_back` that sees the flag
    /// raised finds the waker set.
    pub(crate) fn set_waker(&self, waker: Option<(Arc<Scheduler>, usize)>) {
        let parked = waker.is_some();
        *self.waker.lock().expect("no step panics holding the waker") = waker;
        self.owner_parked.store(parked, Ordering::SeqCst);
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
        let mut held = self.acquire(FREE).ok()?;
        let buf = held.buf().take();
        held.release(EMPTY, Ordering::Release);
        Some(buf.expect("a free slot holds a buffer"))
    }

    /// Park a filled buffer for the receiver (sender side, after filling).
    ///
    /// # Panics
    /// If the slot is not checked out.
    pub fn stash(&self, buf: B) {
        let words = buf.wire_words();
        let mut held =
            self.acquire_or_panic(EMPTY, "stash into a pool slot that is not checked out");
        *held.buf() = Some(buf);
        self.words.store(words, Ordering::Relaxed);
        held.release(STAGED, Ordering::Release);
    }

    /// Take the staged buffer for decoding (receiver side).
    ///
    /// # Panics
    /// If the slot is not staged — FIFO delivery guarantees the sender
    /// stashed before the packet became visible.
    pub fn take_staged(&self) -> B {
        let mut held = self.acquire_or_panic(STAGED, "pool slot taken before it was staged");
        let buf = held.buf().take();
        held.release(EMPTY, Ordering::Release);
        buf.expect("a staged slot holds a buffer")
    }

    /// Words the staged buffer will occupy on the wire (sender side,
    /// between `stash` and the actual send).
    pub(crate) fn staged_words(&self) -> Words {
        assert_eq!(
            self.state.load(Ordering::Acquire),
            STAGED,
            "staged_words on a pool slot that is not staged"
        );
        self.words.load(Ordering::Relaxed)
    }

    /// Return a decoded buffer to the pool (receiver side), unparking the
    /// owner if it is waiting on this slot's back-pressure. A frozen slot
    /// keeps its contents and goes back to `Staged`: the replay log may
    /// deliver it to the receiver's next incarnation.
    ///
    /// # Panics
    /// If the slot is not empty (it is free, staged, or another party is
    /// moving its buffer).
    pub fn put_back(&self, mut buf: B) {
        let next = if self.frozen {
            STAGED
        } else {
            buf.reset();
            FREE
        };
        let mut held = self.acquire_or_panic(EMPTY, "put_back into an occupied pool slot");
        *held.buf() = Some(buf);
        // SeqCst against the owner's flag-then-probe in `pool_checkout`:
        // either that probe sees this store, or this load sees the flag.
        held.release(next, Ordering::SeqCst);
        if self.owner_parked.load(Ordering::SeqCst) {
            let waker = self.waker.lock().expect("no step panics holding the waker");
            if let Some((sched, owner)) = &*waker {
                sched.unpark(*owner);
            }
        }
    }
}

/// Two slots per `(key, dst, type)`, used alternately, with the function
/// that reads their charged high-water once their type is forgotten.
struct Entry {
    slots: [Arc<dyn Any + Send + Sync>; 2],
    flip: usize,
    charged: fn(&[Arc<dyn Any + Send + Sync>; 2]) -> u64,
}

impl Entry {
    fn new<B: Reusable>() -> Entry {
        Entry {
            slots: [
                Arc::new(PoolSlot::<B>::new()),
                Arc::new(PoolSlot::<B>::new()),
            ],
            flip: 0,
            charged: |slots| {
                let charged = |s: &Arc<dyn Any + Send + Sync>| {
                    let slot: &PoolSlot<B> = s.downcast_ref().expect("pool entry type mismatch");
                    slot.charged.load(Ordering::Relaxed)
                };
                slots.iter().map(charged).sum()
            },
        }
    }

    /// Slot `i`, its `Arc` cloned once.
    fn slot<B: Reusable>(&self, i: usize) -> Arc<PoolSlot<B>> {
        Arc::clone(&self.slots[i])
            .downcast()
            .expect("pool entry type mismatch")
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
            .or_insert_with(Entry::new::<B>);
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
                charged += (e.charged)(&e.slots);
            }
            k.0 != key
        });
        charged
    }

    /// The slot handed out by the most recent [`BufferPool::next_slot`] for
    /// this `(key, dst, type)` — the one currently in flight. Used by the
    /// exchange that sends it and by the self-message path, where sender
    /// and receiver are the same processor.
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

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("misuse must panic");
        match err.downcast::<String>() {
            Ok(msg) => *msg,
            Err(err) => err.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    /// A slot in each state a step may find it in: `Free` (fresh), `Empty`
    /// (checked out) and `Staged`.
    fn slots_in_each_state() -> [(&'static str, PoolSlot<Vec<i32>>); 3] {
        let free = PoolSlot::new();
        let empty = PoolSlot::new();
        empty.try_checkout().unwrap();
        let staged = PoolSlot::new();
        staged.try_checkout().unwrap();
        staged.stash(vec![1]);
        [("free", free), ("empty", empty), ("staged", staged)]
    }

    /// Each step from a state it does not accept panics, in release builds
    /// too, and leaves the slot as it found it.
    #[test]
    fn misuse_panics_and_leaves_the_slot_untouched() {
        type Step = fn(&PoolSlot<Vec<i32>>);
        let steps: [(&str, &str, Step, &str); 4] = [
            (
                "stash",
                "empty",
                |s| s.stash(vec![9]),
                "stash into a pool slot that is not checked out",
            ),
            (
                "put_back",
                "empty",
                |s| s.put_back(vec![9]),
                "put_back into an occupied pool slot",
            ),
            (
                "take_staged",
                "staged",
                |s| drop(s.take_staged()),
                "pool slot taken before it was staged",
            ),
            (
                "freeze",
                "staged",
                |s| drop(s.freeze()),
                "froze a pool slot that is not staged",
            ),
        ];
        for (step, accepts, run, expected) in steps {
            for (state, slot) in slots_in_each_state() {
                if state == accepts {
                    continue;
                }
                let msg = panic_message(|| run(&slot));
                assert!(msg.starts_with(expected), "{step} on a {state} slot: {msg}");
                let after = slot.state.load(Ordering::SeqCst);
                let before = match state {
                    "free" => FREE,
                    "empty" => EMPTY,
                    _ => STAGED,
                };
                assert_eq!(after, before, "{step} on a {state} slot changed it");
            }
        }
        let msg = panic_message(|| {
            PoolSlot::<Vec<i32>>::new().staged_words();
        });
        assert!(
            msg.contains("staged_words on a pool slot that is not staged"),
            "{msg}"
        );
    }

    static BRITTLE_DROPS: AtomicUsize = AtomicUsize::new(0);

    /// A buffer whose copy panics, so `freeze` fails while it holds `BUSY`.
    #[derive(Default)]
    struct Brittle(Vec<i32>);

    impl Clone for Brittle {
        fn clone(&self) -> Brittle {
            panic!("brittle buffer")
        }
    }

    impl Drop for Brittle {
        fn drop(&mut self) {
            BRITTLE_DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Payload for Brittle {
        fn wire_words(&self) -> Words {
            self.0.len()
        }
        fn clone_payload(&self) -> Box<dyn Any + Send> {
            unreachable!("a pool slot is never cloned as a payload")
        }
    }

    impl Reusable for Brittle {
        fn reset(&mut self) {
            self.0.clear();
        }
    }

    /// A panic while a slot is `BUSY` leaves it `BUSY`: no step can reach
    /// the buffer again, a checkout waits for it forever (a `PoolStall` in
    /// a machine), and dropping the slot drops the buffer once.
    #[test]
    fn a_panic_while_busy_leaves_the_slot_unusable() {
        let slot = PoolSlot::<Brittle>::new();
        let mut buf = slot.try_checkout().unwrap();
        buf.0.extend([1, 2, 3]);
        slot.stash(buf);
        assert_eq!(panic_message(|| drop(slot.freeze())), "brittle buffer");
        assert_eq!(slot.state.load(Ordering::SeqCst), BUSY);
        assert!(slot.try_checkout().is_none());
        for step in [
            (|s| drop(s.freeze())) as fn(&PoolSlot<Brittle>),
            |s| drop(s.take_staged()),
            |s| s.stash(Brittle::default()),
            |s| s.put_back(Brittle::default()),
            |s| {
                s.staged_words();
            },
        ] {
            let msg = panic_message(|| step(&slot));
            assert!(msg.contains("pool slot"), "{msg}");
        }
        assert_eq!(slot.state.load(Ordering::SeqCst), BUSY);
        let before = BRITTLE_DROPS.load(Ordering::SeqCst);
        drop(slot);
        assert_eq!(BRITTLE_DROPS.load(Ordering::SeqCst), before + 1);
    }

    #[test]
    fn fresh_keys_are_unique() {
        let a = fresh_pool_key();
        let b = fresh_pool_key();
        assert_ne!(a, b);
    }
}
