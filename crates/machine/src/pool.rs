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
//! `zero_alloc` suite). The pool owns every slot, but a held plan looks
//! its slots up once: it keeps a handle on each
//! ([`crate::Proc::pool_slot`]) and checks out, lends and sends through
//! those, so its executes search no map.
//!
//! Ownership protocol (see DESIGN.md §11): every slot is a tiny state
//! machine held in one atomic state word —
//!
//! ```text
//!   Free ──checkout (sender)──▶ Empty ──stash (sender)──▶ Staged
//!     ▲                                                      │
//!     └───────── put_back (receiver, after decode) ◀─────────┘
//!
//!   Free ──lend (sender)──▶ Lent ──receive (receiver, in place)──▶ Free
//!                             └──revoke (sender, unwinding)──▶ Revoked
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
//! A large planned send *lends* instead of staging: the slot carries a
//! [`Loan`] — the sender's own source slice, the plan that says how to read
//! it, and the row — and the receiver's [`PoolSlot::receive`] reads it in
//! place while it holds `Busy`, so the data is copied once, straight into
//! the receiver's output. The borrow crosses carriers, so it lives here and
//! nowhere else: only [`crate::Proc::lending`] lends, and it returns — by
//! value or by unwinding — only once every slot it lent is `Free` again or
//! `Revoked`. A receiver that finds a slot `Revoked` panics without touching
//! the loan.
//!
//! Each `(key, dst, type)` entry holds **one** slot: one message in flight
//! per (plan, destination), as with an MPI persistent request. The sender
//! may only check out a `Free` slot; a slot stays `Staged` until the
//! receiver has decoded it, so a sender re-executing faster than its
//! receiver consumes blocks (wall-clock only — simulated time is untouched)
//! instead of clobbering in-flight data. A planned execute decodes all it
//! receives before it returns, so it never waits on itself; a program that
//! keeps a pooled message undecoded while waiting for the next one through
//! the same entry waits for ever, a `PoolStall`. A sender that finds its
//! slot taken registers a waker and raises the slot's owner-parked flag; a
//! `put_back` reads the flag after publishing `Free` (both sides SeqCst),
//! so either the owner's next probe sees the slot free or the `put_back`
//! sees the flag and wakes it, and a `put_back` nobody waits for takes no
//! lock. A lender waits for its loans the same way.
//!
//! A recoverable run logs every frame to a possible crash victim until the
//! victim's next epoch boundary, and a logged payload must never alias a
//! buffer its sender can refill; a respawned victim's re-sends are dropped
//! undecoded as duplicates, so a live slot it sent would never come back.
//! So on a link with a possible victim at either end the wire and the log
//! carry a **frozen** slot ([`PoolSlot::freeze`]): a detached copy of the
//! staged buffer that no pool hands out, whose `put_back` re-stages it
//! untouched so a replayed frame decodes again. The live slot goes back to
//! `Free` at the send. A send between two survivors ships the live slot,
//! as in a plain run. Nothing is lent in a recoverable run
//! ([`crate::Proc::can_lend`]). That is also why an epoch checkpoint holds
//! nothing of the pool: only a possible victim can crash, every one of its
//! sends freezes, so its live slots are free whenever a send returns, and a
//! respawned processor's empty pool behaves exactly as the crashed one's
//! would have.
//!
//! This is one of the three files of the crate that may say `unsafe`
//! (DESIGN.md §15): the slot's buffer cell and its loan. Every `unsafe`
//! block carries a `// SAFETY:` comment directly above it, which
//! `scripts/ci.sh` checks.

use std::any::{Any, TypeId};
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::cost::Words;
use crate::message::Payload;
use crate::sched::Scheduler;

/// A pool-managed payload: resettable to an empty-but-capacitated state so
/// the next fill reuses the allocation, and cloneable so that a logged send
/// can freeze a copy (`PoolSlot::freeze`).
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
/// One party is moving the buffer in or out of the cell, or the receiver
/// is reading a loan.
const BUSY: u8 = 3;
/// Lent by the sender: the cell holds a loan, which points into the
/// sender's memory, and the receiver will read it in place.
const LENT: u8 = 4;
/// The sender unwound before the receiver read its loan. No step leaves it.
const REVOKED: u8 = 5;

/// A pool-managed payload that a planned send may also *lend*: instead of
/// filling the buffer, the sender hands the receiver a [`Loan`] of its own
/// source and the recipe that reads it.
pub trait Lendable: Reusable {
    /// The element type of the lent source slice.
    type Elem: Sync + 'static;
    /// What tells the receiver how to read the source: the sender's plan.
    type Recipe: Sync + 'static;
}

/// A sender's source as its receiver sees it: the slice, the sender's plan,
/// and the row of that plan the message is. Reachable only inside
/// [`PoolSlot::receive`]'s closure, while the lender waits.
pub struct Loan<'a, B: Lendable> {
    /// The sender's local slice the message is drawn from.
    pub src: &'a [B::Elem],
    /// The sender's plan.
    pub recipe: &'a B::Recipe,
    /// Which of the plan's rows the message is.
    pub row: usize,
}

impl<B: Lendable> Clone for Loan<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B: Lendable> Copy for Loan<'_, B> {}

/// What a receiver finds in a pooled packet: a buffer the sender filled, or
/// a loan of the sender's source.
pub enum Received<'a, B: Lendable> {
    /// A materialised message.
    Staged(&'a B),
    /// The sender's source, read in place.
    Lent(Loan<'a, B>),
}

/// A [`Loan`] with its lifetime and types erased, as the slot keeps it.
#[derive(Clone, Copy)]
struct RawLoan {
    src: *const (),
    len: usize,
    recipe: *const (),
    row: usize,
}

// SAFETY: the two pointers are dereferenced only by `PoolSlot::receive`, on
// whatever thread the receiver runs, as the `&[B::Elem]` and `&B::Recipe`
// they were made from; both types are `Sync`, so reading them from another
// thread is sound for as long as the borrow lives (see `receive`).
unsafe impl Send for RawLoan {}

/// What a slot's cell holds: the buffer while `Free` or `Staged`, the loan
/// while `Lent`.
enum Content<B> {
    Nothing,
    Buffer(B),
    Loan(RawLoan),
}

/// One shareable buffer slot. The `Arc<PoolSlot<B>>` itself is the packet
/// payload: the receiver downcasts it and returns the buffer straight into
/// the sender's slot.
pub struct PoolSlot<B> {
    /// `FREE`, `EMPTY`, `STAGED`, `LENT`, `REVOKED` or `BUSY`: who may
    /// touch `cell`.
    state: AtomicU8,
    /// The buffer or the loan. Only the party that moved the state word
    /// into `BUSY` accesses it.
    cell: UnsafeCell<Content<B>>,
    /// Wire words of the staged buffer or of the lent message, recorded by
    /// `stash` or `lend`.
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

// SAFETY: `cell`, the one field that is not `Sync` by itself, is accessed
// only by the one thread that moved `state` into `BUSY` (acquiring the
// previous holder's release store), so sharing a slot moves a `B` between
// threads and never shares one: `B: Send` suffices. A loan in the cell is
// two addresses that only `receive` follows, as a `&[B::Elem]` and a
// `&B::Recipe`, both `Sync` (`Lendable`). The other fields are atomics, a
// `Mutex` over `Send + Sync` values, and a `bool` never written after
// construction.
unsafe impl<B: Send> Sync for PoolSlot<B> {}

/// Proof that this thread moved a slot's state word into `BUSY`: the only
/// way to reach the buffer or the loan. Dropped without [`Held::release`] —
/// a panic mid-step — it leaves the slot `BUSY` for good.
struct Held<'a, B> {
    slot: &'a PoolSlot<B>,
}

impl<B> Held<'_, B> {
    fn cell(&mut self) -> &mut Content<B> {
        // SAFETY: a `Held` exists only after its thread won the
        // compare-exchange into `BUSY`, which every other access must also
        // win first, so no other reference to `cell` exists until `release`
        // consumes this guard and with it the borrow returned here.
        unsafe { &mut *self.slot.cell.get() }
    }

    /// Move the buffer out of the cell.
    fn take_buf(&mut self) -> Option<B> {
        match std::mem::replace(self.cell(), Content::Nothing) {
            Content::Buffer(buf) => Some(buf),
            _ => None,
        }
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
            cell: UnsafeCell::new(Content::Buffer(buf)),
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
        let Content::Buffer(buf) = held.cell() else {
            panic!("a staged slot holds a buffer");
        };
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
        let buf = held.take_buf();
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
        *held.cell() = Content::Buffer(buf);
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
        let buf = held.take_buf();
        held.release(EMPTY, Ordering::Release);
        buf.expect("a staged slot holds a buffer")
    }

    /// Words the staged buffer or the loan will occupy on the wire, and
    /// whether it is a loan (sender side, between `stash` or `lend` and the
    /// actual send).
    pub(crate) fn staged_words(&self) -> (Words, bool) {
        let state = self.state.load(Ordering::Acquire);
        assert!(
            state == STAGED || state == LENT,
            "staged_words on a pool slot that is not staged"
        );
        (self.words.load(Ordering::Relaxed), state == LENT)
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
        *held.cell() = Content::Buffer(buf);
        // SeqCst against the owner's flag-then-probe in `pool_checkout`:
        // either that probe sees this store, or this load sees the flag.
        held.release(next, Ordering::SeqCst);
        self.wake_owner();
    }

    /// Unpark the owner if it waits on this slot. Called right after a
    /// SeqCst store of `Free` (or a frozen slot's `Staged`).
    fn wake_owner(&self) {
        if self.owner_parked.load(Ordering::SeqCst) {
            let waker = self.waker.lock().expect("no step panics holding the waker");
            if let Some((sched, owner)) = &*waker {
                sched.unpark(*owner);
            }
        }
    }

    /// Whether the slot is `Free`: the lender's probe while it waits for a
    /// loan to come back.
    fn is_free(&self) -> bool {
        self.state.load(Ordering::SeqCst) == FREE
    }

    /// Take back a loan nobody has read yet (sender side, unwinding). A
    /// reader in the middle of it holds `BUSY`; a copy kernel never parks,
    /// so that wait is short. A slot that is back (`Free`) or was never
    /// lent stays as it is.
    fn revoke(&self) {
        loop {
            match self.acquire(LENT) {
                Ok(held) => return held.release(REVOKED, Ordering::SeqCst),
                Err(BUSY) => std::thread::yield_now(),
                Err(_) => return,
            }
        }
    }
}

/// A slot with its buffer type forgotten: what a wait registers on and
/// what a lending scope waits for and revokes. A trait object, so that the
/// processor's one list of lent slots holds every type's without a
/// downcast.
pub(crate) trait Waitable: Send + Sync {
    /// [`PoolSlot::set_waker`].
    fn set_waker(&self, waker: Option<(Arc<Scheduler>, usize)>);
    /// [`PoolSlot::is_free`].
    fn is_free(&self) -> bool;
    /// [`PoolSlot::revoke`].
    fn revoke(&self);
}

impl<B: Reusable> Waitable for PoolSlot<B> {
    fn set_waker(&self, waker: Option<(Arc<Scheduler>, usize)>) {
        PoolSlot::set_waker(self, waker);
    }

    fn is_free(&self) -> bool {
        PoolSlot::is_free(self)
    }

    fn revoke(&self) {
        PoolSlot::revoke(self);
    }
}

impl<B: Lendable> PoolSlot<B> {
    /// Lend `loan` through this slot (sender side, instead of checkout +
    /// fill + stash). Only a [`Lender`] calls this: its scope is what keeps
    /// the borrow alive until the receiver is done with it.
    ///
    /// # Panics
    /// If the slot is not free.
    fn lend(&self, loan: Loan<'_, B>, words: Words) {
        let mut held = self.acquire_or_panic(FREE, "lend through a pool slot that is not free");
        *held.cell() = Content::Loan(RawLoan {
            src: loan.src.as_ptr().cast(),
            len: loan.src.len(),
            recipe: (loan.recipe as *const B::Recipe).cast(),
            row: loan.row,
        });
        self.words.store(words, Ordering::Relaxed);
        held.release(LENT, Ordering::Release);
    }

    /// Read what the packet carries (receiver side): a staged buffer is
    /// taken, handed to `f` and put back; a loan is handed to `f` in place
    /// and the slot is `Free` again once `f` returns — or unwinds. `f` must
    /// not park: the lender may be waiting to revoke the loan.
    ///
    /// # Panics
    /// If the slot is neither staged nor lent — FIFO delivery guarantees
    /// the sender stashed or lent before the packet became visible — or if
    /// its lender unwound before this read (then `f` never runs).
    pub fn receive<R>(&self, f: impl FnOnce(Received<'_, B>) -> R) -> R {
        loop {
            match self.state.load(Ordering::Acquire) {
                STAGED => {
                    let buf = self.take_staged();
                    let out = f(Received::Staged(&buf));
                    self.put_back(buf);
                    return out;
                }
                LENT => {
                    let Ok(mut held) = self.acquire(LENT) else {
                        // Revoked in between: the next pass panics.
                        continue;
                    };
                    let Content::Loan(raw) = *held.cell() else {
                        unreachable!("a lent slot holds a loan");
                    };
                    let _back = Returns { held };
                    // SAFETY: `raw` was made by `lend` from a `&'a [B::Elem]`
                    // and a `&'a B::Recipe`, and this thread holds `BUSY`, won
                    // from `LENT`. `lend` is reachable only through a
                    // `Lender<'a, B>`, which only `lending` (below) creates,
                    // with `'a` a lifetime parameter of that call; `lending`
                    // returns or unwinds only after each slot it lent (the
                    // `Lender` holds their `Arc`s) is `Free` (this read has
                    // finished: `Returns` stores it) or
                    // `Revoked` (which waits for a `BUSY` reader to finish
                    // and is never left for a reader). So the borrow is alive
                    // for all of `f`, and the loan cannot escape `f`: its
                    // lifetime is `f`'s own.
                    let loan = unsafe {
                        Loan {
                            src: std::slice::from_raw_parts(raw.src.cast::<B::Elem>(), raw.len),
                            recipe: &*raw.recipe.cast::<B::Recipe>(),
                            row: raw.row,
                        }
                    };
                    return f(Received::Lent(loan));
                }
                REVOKED => panic!("pool slot loan revoked: its lender unwound before the read"),
                found => panic!("pool slot taken before it was staged (pool slot state {found})"),
            }
        }
    }
}

/// A finished (or unwinding) read of a loan: the slot is `Free` again,
/// with an empty buffer in its cell, and its owner, if it waits, is woken.
struct Returns<'a, B: Reusable> {
    held: Held<'a, B>,
}

impl<B: Reusable> Drop for Returns<'_, B> {
    fn drop(&mut self) {
        *self.held.cell() = Content::Buffer(B::default());
        let slot = self.held.slot;
        slot.state.store(FREE, Ordering::SeqCst);
        slot.wake_owner();
    }
}

/// A marker invariant in `'a`.
type Invariant<'a> = fn(&'a ()) -> &'a ();

/// The loans of one [`crate::Proc::lending`] scope, all under one plan key.
/// Invariant in `'a`: a loan lent here borrows for the whole scope, never
/// for less.
pub struct Lender<'a, B> {
    /// Each slot lent, with its destination: the scope waits for these
    /// very slots, whatever becomes of the pool's entries meanwhile.
    /// Reused scope after scope, so lending allocates nothing once warm.
    lent: Vec<(usize, Arc<dyn Waitable>)>,
    _scope: PhantomData<(Invariant<'a>, fn() -> B)>,
}

impl<'a, B: Lendable> Lender<'a, B> {
    /// Lend `loan` to `dst` through `slot`, the plan's slot for `dst`
    /// ([`crate::Proc::pool_slot`]), which the exchange then sends like a
    /// staged one; `words` is what the message would occupy materialised,
    /// so every charge is a copy's.
    pub fn lend(&mut self, dst: usize, slot: &Arc<PoolSlot<B>>, loan: Loan<'a, B>, words: Words) {
        slot.lend(loan, words);
        self.lent.push((dst, Arc::clone(slot) as Arc<dyn Waitable>));
    }
}

/// [`crate::Proc::lending`], beside the read it makes sound: run `f` with a
/// fresh [`Lender`], then wait until every slot it lent is `Free` again; if
/// `f` unwinds, or a wait fails, revoke every loan still out before
/// unwinding or panicking with the failure.
pub(crate) fn lending<'a, 'm, B: Lendable, R>(
    proc: &mut crate::Proc<'m>,
    key: u64,
    f: impl FnOnce(&mut crate::Proc<'m>, &mut Lender<'a, B>) -> R,
) -> R {
    let mut lender = Lender {
        lent: std::mem::take(proc.lent_scratch()),
        _scope: PhantomData,
    };
    let run = catch_unwind(AssertUnwindSafe(|| f(proc, &mut lender)));
    let mut back = Ok(());
    if run.is_ok() {
        for (dst, lent) in &lender.lent {
            back = proc.wait_on_slot(&**lent, key, *dst, |s| s.is_free().then_some(()));
            if back.is_err() {
                break;
            }
        }
    }
    if run.is_err() || back.is_err() {
        for (_, lent) in &lender.lent {
            lent.revoke();
        }
    }
    lender.lent.clear();
    *proc.lent_scratch() = lender.lent;
    match (run, back) {
        (Err(payload), _) => resume_unwind(payload),
        (Ok(_), Err(e)) => panic_any(e),
        (Ok(out), Ok(())) => out,
    }
}

/// The one slot of a `(key, dst, type)`, with the function that reads its
/// charged high-water once its type is forgotten.
struct Entry {
    slot: Arc<dyn Any + Send + Sync>,
    charged: fn(&(dyn Any + Send + Sync)) -> u64,
}

impl Entry {
    fn new<B: Reusable>() -> Entry {
        Entry {
            slot: Arc::new(PoolSlot::<B>::new()),
            charged: |slot| {
                let slot: &PoolSlot<B> = slot.downcast_ref().expect("pool entry type mismatch");
                slot.charged.load(Ordering::Relaxed)
            },
        }
    }

    /// The slot, its `Arc` cloned once.
    fn slot<B: Reusable>(&self) -> Arc<PoolSlot<B>> {
        Arc::clone(&self.slot)
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
    /// The slot for sends of a `B` to `dst` under plan `key`. Creates (and
    /// allocates) the entry on first use; steady-state calls only look it up.
    pub(crate) fn get_or_create<B: Reusable>(&mut self, key: u64, dst: usize) -> Arc<PoolSlot<B>> {
        self.entries
            .entry((key, dst, TypeId::of::<B>()))
            .or_insert_with(Entry::new::<B>)
            .slot()
    }

    /// The slot of an entry [`BufferPool::get_or_create`] made. Used by the
    /// exchange that sends it and by the self-message path, where sender
    /// and receiver are the same processor.
    pub(crate) fn get<B: Reusable>(&self, key: u64, dst: usize) -> Arc<PoolSlot<B>> {
        self.entries
            .get(&(key, dst, TypeId::of::<B>()))
            .expect("pool slot looked up before its first checkout")
            .slot()
    }

    /// Drop every entry of plan `key` — the plan is gone and its buffers
    /// with it. Returns the bytes the dropped slots had charged to the
    /// `pool` account. A slot still in flight lives on in its packet until
    /// the receiver has decoded it.
    pub(crate) fn retire(&mut self, key: u64) -> u64 {
        let mut charged = 0;
        self.entries.retain(|k, e| {
            if k.0 == key {
                charged += (e.charged)(&*e.slot);
            }
            k.0 != key
        });
        charged
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
        assert_eq!(slot.staged_words(), (1, false));
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
            assert_eq!(frozen.staged_words(), (2, false));
            let got = frozen.take_staged();
            assert_eq!(got, vec![7, 8]);
            frozen.put_back(got);
        }
    }

    #[test]
    fn pool_keeps_one_slot_per_destination() {
        let mut pool = BufferPool::default();
        let a = pool.get_or_create::<Vec<i32>>(1, 0);
        assert!(Arc::ptr_eq(&a, &pool.get::<Vec<i32>>(1, 0)));
        let again = pool.get_or_create::<Vec<i32>>(1, 0);
        assert!(
            Arc::ptr_eq(&a, &again),
            "every checkout reuses the one slot"
        );
        // Different keys, destinations, and types get distinct entries.
        let other = pool.get_or_create::<Vec<i32>>(2, 0);
        assert!(!Arc::ptr_eq(&a, &other));
        let elsewhere = pool.get_or_create::<Vec<i32>>(1, 1);
        assert!(!Arc::ptr_eq(&a, &elsewhere));
        let _typed = pool.get_or_create::<Vec<(u32, i32)>>(1, 0);
        assert_eq!(pool.entries.len(), 4);
    }

    /// Retiring a plan key drops its entries of every destination and type
    /// (and only its), reports what their slots had charged, and leaves a
    /// slot that is still in flight to whoever holds it.
    #[test]
    fn retire_drops_one_key_and_reports_its_charge() {
        let mut pool = BufferPool::default();
        let in_flight = pool.get_or_create::<Vec<i32>>(1, 0);
        assert_eq!(in_flight.note_charged(40), 40);
        assert_eq!(
            pool.get_or_create::<Vec<i32>>(1, 0).note_charged(8),
            0,
            "a slot is charged its high water, not the sum of its stagings"
        );
        assert_eq!(
            pool.get_or_create::<Vec<(u32, i32)>>(1, 3)
                .note_charged(100),
            100
        );
        let kept = pool.get_or_create::<Vec<i32>>(2, 0);
        kept.note_charged(7);
        in_flight.try_checkout().expect("a fresh slot is free");
        in_flight.stash(vec![5]);

        assert_eq!(pool.retire(1), 140);
        assert_eq!(pool.retire(1), 0, "nothing left to give back");
        assert!(pool.entries.keys().all(|k| k.0 == 2));
        assert_eq!(
            in_flight.take_staged(),
            vec![5],
            "the receiver still decodes it"
        );
        assert_eq!(Arc::strong_count(&in_flight), 1, "and frees it when done");
        // The key starts over: a fresh entry, nothing charged.
        let again = pool.get_or_create::<Vec<i32>>(1, 0);
        assert!(!Arc::ptr_eq(&again, &in_flight));
        assert_eq!(again.note_charged(1), 1);
        assert!(Arc::ptr_eq(&kept, &pool.get::<Vec<i32>>(2, 0)));
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

    /// Lent values, read through a recipe of indices.
    #[derive(Default, Clone)]
    struct Indexed;

    impl Payload for Indexed {
        fn wire_words(&self) -> Words {
            0
        }
        fn clone_payload(&self) -> Box<dyn Any + Send> {
            unreachable!("a loan is never cloned as a payload")
        }
    }

    impl Reusable for Indexed {
        fn reset(&mut self) {}
    }

    impl Lendable for Indexed {
        type Elem = i64;
        type Recipe = Vec<usize>;
    }

    fn read(got: Received<'_, Indexed>) -> Vec<i64> {
        let Received::Lent(loan) = got else {
            panic!("lent, not staged")
        };
        loan.recipe
            .iter()
            .take(loan.row)
            .map(|&i| loan.src[i])
            .collect()
    }

    /// Free → Lent → (read in place) → Free, the staged words reported as
    /// a loan's; the same slot lends again, and a read that panics still
    /// gives the slot back.
    #[test]
    fn a_loan_is_read_in_place_and_comes_back() {
        let (src, recipe) = (vec![10i64, 20, 30], vec![2usize, 0, 1]);
        let slot = PoolSlot::<Indexed>::new();
        for row in [3, 2] {
            let loan = Loan {
                src: &src,
                recipe: &recipe,
                row,
            };
            slot.lend(loan, 5);
            assert_eq!(slot.staged_words(), (5, true));
            assert!(slot.try_checkout().is_none(), "a lent slot is not free");
            assert!(!slot.is_free());
            assert_eq!(slot.receive(read), [30, 10, 20][..row]);
            assert!(slot.is_free(), "the read gives the slot back");
        }
        slot.lend(
            Loan {
                src: &src,
                recipe: &recipe,
                row: 1,
            },
            2,
        );
        let msg = panic_message(|| {
            slot.receive(|_| panic!("reader fails"));
        });
        assert_eq!(msg, "reader fails");
        assert!(slot.is_free(), "an unwinding read gives the slot back too");
        assert!(slot.try_checkout().is_some(), "with a buffer in its cell");
    }

    /// A revoked loan is never read: the reader panics before its closure
    /// runs, and the slot stays revoked. Revoking a loan that came back, or
    /// a slot never lent, changes nothing; lending through a slot that is
    /// not free panics and leaves it as it was.
    #[test]
    fn a_revoked_loan_is_never_read() {
        let (src, recipe) = (vec![1i64], vec![0usize]);
        let loan = Loan {
            src: &src,
            recipe: &recipe,
            row: 1,
        };
        let slot = PoolSlot::<Indexed>::new();
        slot.revoke();
        assert!(slot.is_free(), "a free slot is not revoked");
        slot.lend(loan, 2);
        slot.revoke();
        let msg = panic_message(|| {
            slot.receive(|_| unreachable!("a revoked loan was read"));
        });
        assert!(msg.contains("revoked"), "{msg}");
        assert_eq!(slot.state.load(Ordering::SeqCst), REVOKED);
        let msg = panic_message(|| slot.lend(loan, 2));
        assert!(
            msg.starts_with("lend through a pool slot that is not free"),
            "{msg}"
        );
        assert_eq!(slot.state.load(Ordering::SeqCst), REVOKED);
    }

    #[test]
    fn fresh_keys_are_unique() {
        let a = fresh_pool_key();
        let b = fresh_pool_key();
        assert_ne!(a, b);
    }
}
