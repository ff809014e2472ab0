//! Planner/executor split for PACK and UNPACK.
//!
//! Everything the Section 4–6 algorithms compute from the *mask* alone —
//! slice counts, the ranking collectives, the destination routes, and the
//! communication structure of the redistribution exchange — is
//! value-independent: it answers "who sends which result-vector ranks to
//! whom", never "what values". This module reifies that half into a plan
//! ([`PackPlan`] / [`UnpackPlan`]) built once by [`plan_pack`] /
//! [`plan_unpack`], so that executing the plan against fresh array values
//! performs **zero ranking collectives and zero index recomputation**:
//!
//! ```text
//! plan  = scan + ranking (PRS collectives) + composition (+ request round)
//!         + copy-program lowering
//! execute = gather/scatter values along the precompiled copy programs
//!           + exchange
//! ```
//!
//! The split is exact with respect to the Section 6.4 operation model: the
//! plan-phase and execute-phase `LocalComp` charges sum to precisely the
//! per-scheme formulas (see [`crate::MaskStats`]), and
//! `plan().execute(data)` is bit-identical to the one-shot entry points
//! (which are now thin wrappers doing exactly `plan` + `execute`).
//!
//! Since the copy-program lowering (DESIGN.md §16), a plan's index lists are
//! `copyprog::CopyPrograms`, one row per populated peer, which the execute
//! kernels walk: `copy_from_slice` runs where the mask allows, the index
//! loop over the program's own walks (a first index, then a byte per step)
//! where it does not. Lowering is
//! wall-clock-only: simulated charges are per *value moved*, so every
//! Section 6.4 metric is unchanged to the bit.
//!
//! Plans are generic over the element type at execute time: one
//! [`PackPlan`] built for a mask/layout packs `f64` values and `u32`
//! indices alike, which is how the SpMV app compresses two aligned arrays
//! with a single ranking pass.
//!
//! A caller whose mask does not change holds its plan and executes it on
//! every call, then gives its slots' `mem.pool` charge and its `mem.plan`
//! charge back with [`PackPlan::retire`] / [`UnpackPlan::retire`].

pub(crate) mod composer;
pub(crate) mod copyprog;
mod poolmsg;

pub use copyprog::CopyStats;

use std::any::Any;
use std::sync::{Arc, Mutex};

use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::collectives::{alltoallv_slots, alltoallv_sparse, A2aPlan, A2aSchedule};
use hpf_machine::{
    Category, Lender, Loan, MemAccount, Packet, PoolSlot, Proc, Received, Wire, Words,
};

use crate::error::{PackError, UnpackError};
use crate::pack::{compact_message, result_layout, PackOutput};
use crate::ranking::rank_from_counts;
use crate::schemes::{PackOptions, PackScheme, ScanMethod, UnpackOptions, UnpackScheme};

use composer::{
    ComposeCost, Composer, OwnerBlock, PeerCsr, RankEmit, RankList, Routes, RoutesBuilder,
};
use copyprog::{gather_fill, row_values, scatter_apply, CopyPrograms, Phase, ProgramBuilder};
use poolmsg::RowMsg;

/// A reusable, value-independent PACK plan for one `(descriptor, mask,
/// options)` triple on one processor. Built by [`plan_pack`]; executed any
/// number of times with [`PackPlan::execute`].
#[derive(Debug, Clone)]
pub struct PackPlan {
    scheme: PackScheme,
    size: usize,
    v_layout: Option<DimLayout>,
    local_len: usize,
    /// The gather: route rows to the owners of `V`, read from `a_local`.
    send: Box<Sender>,
}

/// A plan's send half (DESIGN.md §10, §11): one row per destination, the
/// copy programs that read each row's values from the source, the exchange
/// that carries them, and the table of pooled slots it sends through. PACK's
/// gather sends route rows to the owners of `V`; UNPACK's serve sends serve
/// rows, which carry no ranks, back to the requesters.
#[derive(Debug, Clone)]
pub(crate) struct Sender {
    /// One row per populated destination, shared with every staged message,
    /// which reads its ranks (if any) here.
    routes: Arc<Routes>,
    /// Per row: the copy program lowered from its slot list, driving the
    /// execute-time value fill (DESIGN.md §16).
    progs: CopyPrograms,
    a2a: A2aPlan,
    schedule: A2aSchedule,
    /// The plan's own slots: one per row.
    handles: Handles,
    /// Whether this processor's executes lend their source instead of
    /// filling send buffers ([`lend_rule`]).
    lends: bool,
}

/// A plan's pool slots for element type `T`: `[k]` is row `k`'s, so the
/// send round, the exchange and the self-row decode index them by row.
type Slots<T> = Vec<Arc<PoolSlot<RowMsg<T>>>>;

/// The slot table of a [`Sender`] (DESIGN.md §11): the [`Slots`] of the
/// element type it last executed with, made on its first execute with it.
/// Behind a lock because an execute takes `&self`, for one type check.
#[derive(Debug, Default)]
struct Handles(Mutex<Option<Table>>);

/// A [`Slots`] with its type forgotten, its length, and its charge's release.
#[derive(Debug)]
struct Table {
    slots: Arc<dyn Any + Send + Sync>,
    len: usize,
    release: fn(&mut Proc, &(dyn Any + Send + Sync)),
}

impl Handles {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Table>> {
        self.0
            .lock()
            .expect("no execute panics holding the slot table")
    }
}

/// A clone holds no slots: it may execute on another processor, or
/// restore a respawned one (DESIGN.md §12), and makes its own where it
/// first executes.
impl Clone for Handles {
    fn clone(&self) -> Self {
        Handles::default()
    }
}

/// Elements a processor sends per execute from which its plan may *lend*
/// its source instead of copying it into pooled buffers (DESIGN.md §11):
/// the receiver then reads the sender's slice through the sender's copy
/// program, so gather and decode — or serve and reply scatter — are one
/// pass, not two. A lending execute waits for its loans to come back before
/// it returns, which costs about one park; below this size that wait costs
/// more than the pass it saves. Measured break-even on a full mask, pinned
/// to one CPU on one worker (EXPERIMENTS.md, "The receiver runs the sender's
/// copy program").
const MIN_LEND: usize = 1024;

/// Whether a plan that sends `sent` elements per execute through programs
/// of `stats` lends: the transport allows it ([`Proc::can_lend`]), it sends
/// at least [`MIN_LEND`] elements, and every one of them moves by a bulk
/// op. Where an index loop moves some, the fused pass saves no copy worth
/// the wait — the index loop is the cost either way — and reading a
/// peer's array at decode time instead of one's own at send time made
/// Bernoulli masks 10–60 % slower (EXPERIMENTS.md). `always` (tests only)
/// lends whenever the transport allows.
fn lend_rule(proc: &Proc, sent: usize, stats: &CopyStats, always: bool) -> bool {
    let bulk = stats.bulk_elements == stats.total_elements;
    proc.can_lend() && (always || (sent >= MIN_LEND && bulk))
}

/// Build a [`PackPlan`]: initial scan, ranking collectives, route
/// composition, copy-program lowering, and the send-flag transposition
/// that tells every processor which peers will message it at execute time.
///
/// All work is wrapped in the `pack.plan` stage span. Scanning, ranking
/// arithmetic, and composition charge [`Category::LocalComp`] (plus the
/// ranking collectives under [`Category::PrefixReductionSum`]). The flag
/// transposition rides the control plane: it charges nothing and moves no
/// clock ([`A2aPlan::exchange`]). The copy-program lowering charges nothing
/// simulated either (`plan.lower` wall span only): it changes how the
/// executor's loops are shaped, never how many per-value operations the
/// model counts.
///
/// This is a collective call: every processor must invoke it with its
/// aligned local mask portion.
pub fn plan_pack(
    proc: &mut Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
    opts: &PackOptions,
) -> Result<PackPlan, PackError> {
    plan_pack_at(proc, desc, m_local, opts, None, false)
}

/// [`plan_pack`] into `result`, the layout of a result vector longer than
/// `Size` (`VECTOR`'s, [`crate::pack_with_vector`]), or into
/// [`result_layout`]'s if `None`; `always_lend` as in [`lend_rule`].
///
/// # Errors
/// [`PackError::VectorTooShort`] (collectively) if `result` holds fewer than
/// `Size` elements.
pub(crate) fn plan_pack_at(
    proc: &mut Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
    opts: &PackOptions,
    result: Option<&DimLayout>,
    always_lend: bool,
) -> Result<PackPlan, PackError> {
    let shape = crate::pack::validate_mask(proc, desc, m_local)?;
    let local_len = m_local.len();
    proc.with_stage("pack.plan", |proc| {
        let w0 = shape.w[0];
        let mut composer = pack_composer(opts);
        let counts = composer.scan(proc, m_local, w0);
        let ranking = rank_from_counts(proc, &shape, counts, opts.prs);
        let size = ranking.size;
        let layout = match result {
            None => result_layout(size, proc.nprocs(), opts.result_block_size),
            // `Size` is replicated: every processor returns here together.
            Some(r) if size > r.n() => {
                let capacity = r.n();
                return Err(PackError::VectorTooShort { size, capacity });
            }
            Some(r) => (size > 0).then_some(*r),
        };
        let (routes, progs) = match &layout {
            Some(layout) => {
                let composed = composer.compose(proc, &ranking, m_local, w0, layout);
                proc.wall_span("plan.lower", |_| composed.finish())
            }
            None => RoutesBuilder::new(RankEmit::Explicit, 0, 0).finish(),
        };
        let lends = lend_rule(proc, routes.slots.total(), progs.stats(), always_lend);
        let (to, world) = (routes.slots.peers.clone(), proc.world());
        let a2a = match layout {
            Some(_) => A2aPlan::exchange(proc, &world, to),
            // `Size` is replicated: nobody sends, so nobody needs to ask.
            None => A2aPlan::from_peers(proc.nprocs(), to, Vec::new()),
        };
        let send = Sender::new(routes, progs, a2a, opts.schedule, lends);
        proc.mem_charge(MemAccount::Plan, send.mem_bytes());
        Ok(PackPlan {
            scheme: opts.scheme,
            size,
            v_layout: layout,
            local_len,
            send,
        })
    })
}

impl PackPlan {
    /// The scheme the plan was composed for.
    pub fn scheme(&self) -> PackScheme {
        self.scheme
    }

    /// Give the plan back once it will not execute again — what one-shot
    /// [`crate::pack`] does after its execute: the `pool` and `plan` memory
    /// accounts are released of what the plan charged. Its slots go with
    /// their last handle (one in flight, at its receiver's decode), as when
    /// a plan is dropped, which releases no charge (a plan has no [`Proc`]
    /// to tell). Local, not collective; each clone holds slots of its own.
    pub fn retire(self, proc: &mut Proc) {
        self.send.retire(proc, 0);
    }

    /// Aggregate op breakdown of the plan's lowered gather programs —
    /// how much of the execute-time value movement runs as bulk copies.
    pub fn copy_stats(&self) -> CopyStats {
        *self.send.progs.stats()
    }

    /// Global number of packed elements (`Size`), replicated everywhere.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether this processor's executes lend their source instead of
    /// copying it into send buffers (DESIGN.md §11). Decided at plan time.
    pub fn lends(&self) -> bool {
        self.send.lends
    }

    /// Pool slots the plan holds on this processor: one per destination of
    /// its executes, itself included, once it has executed; none before,
    /// and none in a fresh clone (DESIGN.md §11).
    pub fn slot_handles(&self) -> usize {
        self.send.slot_handles()
    }

    /// Layout of the result vector (`None` iff `size == 0`).
    pub fn v_layout(&self) -> Option<DimLayout> {
        self.v_layout
    }

    /// Execute the plan against local array values: gather along the
    /// precomputed routes, run the planned many-to-many exchange, decode.
    /// No ranking collectives and no index recomputation — the only local
    /// work is value movement.
    ///
    /// Collective; wrapped in the `pack.execute` stage span. Works for any
    /// element type `T` (the plan is value-independent).
    ///
    /// # Errors
    /// [`PackError::ArrayLenMismatch`] if `a_local` does not match the
    /// planned descriptor's local length (collective, like the one-shot
    /// entry points).
    pub fn execute<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        a_local: &[T],
    ) -> Result<PackOutput<T>, PackError> {
        let mut out = PackOutput {
            local_v: Vec::new(),
            size: 0,
            v_layout: None,
        };
        self.execute_into(proc, a_local, &mut out)?;
        Ok(out)
    }

    /// [`PackPlan::execute`] writing into a caller-owned output. `out` is
    /// refilled in place; from the second call with the same `out` onward
    /// the whole gather → exchange → decode loop performs **zero heap
    /// allocations**: send buffers come from the plan's slots (checked out
    /// here, returned by the receiving processor's decode) and
    /// the result vector reuses its capacity. A lending plan fills no
    /// buffer: each receiver reads `a_local` in place, and this returns once
    /// every receiver has.
    ///
    /// Simulated accounting — charges, events, stage spans — is
    /// bit-identical to `execute`, which is now this method plus a fresh
    /// output.
    pub fn execute_into<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        a_local: &[T],
        out: &mut PackOutput<T>,
    ) -> Result<(), PackError> {
        if a_local.len() != self.local_len {
            return Err(PackError::ArrayLenMismatch {
                expected: self.local_len,
                got: a_local.len(),
            });
        }
        if self.size == 0 {
            out.local_v.clear();
            out.size = 0;
            out.v_layout = None;
            return Ok(());
        }
        let layout = self.v_layout.expect("size > 0");
        proc.with_stage("pack.execute", |proc| {
            let mut recvs = proc.take_pkt_scratch();
            let slots = self.send.slots::<T>(proc);
            self.send
                .send_round(proc, "pack.gather", a_local, &slots, |proc| {
                    self.send.exchange(proc, &slots, &mut recvs);
                    self.decode(proc, &layout, &slots, &mut recvs, &mut out.local_v);
                });
            proc.restore_pkt_scratch(recvs);
            out.size = self.size;
            out.v_layout = Some(layout);
        });
        Ok(())
    }

    /// Decode what every sender sent — a staged message's values, or its
    /// `a_local` read in place under its gather row — into `out` at the
    /// ranks of the sender's route row, via [`Sender::receive`]. Section 6.4's
    /// decomposition costs one operation per value plus the row's rank
    /// words: `2·E_a` for pairs, `E_a + 2·Gr_i` for segments.
    fn decode<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        layout: &DimLayout,
        slots: &Slots<T>,
        recvs: &mut Vec<Packet>,
        out: &mut Vec<T>,
    ) {
        proc.wall_span("pack.decode", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let me = proc.id();
                prepare_out(out, layout.local_len(me));
                let mut placed = 0usize;
                let ops = self.send.receive(proc, slots, recvs, |proc, _, got| {
                    let (moved, rank_words) = place_message(proc, layout, got, out);
                    placed += moved;
                    rank_words + moved
                });
                // Every rank below `Size` this processor owns is written
                // once: all of `out` for `pack`, its head under `VECTOR`'s
                // layout.
                let owned = DimLayout::new_general(self.size, layout.p(), layout.w());
                debug_assert_eq!(placed, owned.map_or(0, |o| o.local_len(me)), "V's ranks");
                proc.charge_ops(ops);
                if let RankList::Explicit(_) = self.send.routes.ranks {
                    // Every plan of a PACK is one scheme, so every message
                    // received was pairs, each value read beside its rank.
                    proc.wall_bytes((placed * std::mem::size_of::<(u32, T)>()) as u64);
                }
            })
        })
    }
}

impl Sender {
    /// A send half over `routes`, read through `progs`, exchanged along
    /// `a2a` under `schedule`, with no slots until its first execute. Boxed,
    /// so that a plan stays a few words wide: the planners hand it back
    /// through nested stage closures, every frame on the way holds it, and
    /// at P = 512 that chain sets how many stack pages each processor
    /// touches (DESIGN.md §11).
    fn new(
        routes: Routes,
        progs: CopyPrograms,
        a2a: A2aPlan,
        schedule: A2aSchedule,
        lends: bool,
    ) -> Box<Self> {
        Box::new(Sender {
            routes: Arc::new(routes),
            progs,
            a2a,
            schedule,
            handles: Handles::default(),
            lends,
        })
    }

    /// The slot table for element type `T`: the one held, or — on the
    /// first execute with `T`, or after executing with another type, whose
    /// table's charge goes back then — a fresh one, one slot per row, held
    /// from then on. The one type check of an execute.
    fn slots<T: Wire + Default>(&self, proc: &mut Proc) -> Arc<Slots<T>> {
        let mut held = self.handles.lock();
        if let Some(slots) = held
            .as_ref()
            .and_then(|t| Arc::clone(&t.slots).downcast().ok())
        {
            return slots;
        }
        if let Some(old) = held.take() {
            (old.release)(proc, &*old.slots);
        }
        let rows = self.routes.slots.peers.len();
        let slots: Arc<Slots<T>> = Arc::new((0..rows).map(|_| Arc::default()).collect());
        *held = Some(Table {
            slots: Arc::clone(&slots) as Arc<dyn Any + Send + Sync>,
            len: rows,
            release: |p, t| p.release_slots(t.downcast_ref::<Slots<T>>().expect("its own type")),
        });
        slots
    }

    /// How many slots [`Sender::slots`] holds: one per row, or none.
    fn slot_handles(&self) -> usize {
        self.handles.lock().as_ref().map_or(0, |t| t.len)
    }

    /// Bytes retained by the send half's index structures (rows, lowered
    /// copy programs, the exchange's peer lists), charged to the `plan`
    /// memory account at build time with the plan's receive half.
    fn mem_bytes(&self) -> u64 {
        self.routes.mem_bytes() + self.progs.mem_bytes() + self.a2a.mem_bytes()
    }

    /// Give the slot table's `pool` charge back and release the plan's
    /// `plan` charge: these bytes and `recv_bytes`, the receive half's.
    fn retire(&self, proc: &mut Proc, recv_bytes: u64) {
        if let Some(table) = self.handles.lock().take() {
            (table.release)(proc, &*table.slots);
        }
        proc.mem_release(MemAccount::Plan, self.mem_bytes() + recv_bytes);
    }

    /// One execute's send side, then `rest` — the exchange and the decode —,
    /// shared by PACK's gather and UNPACK's serve: row `k` goes to
    /// `routes.slots.peers[k]` through the slot `slots[k]` ([`Sender::slots`]),
    /// read from `src` through row `k` of `progs`, one operation per element
    /// sent, under the `span` wall frame. A lending plan lends `src` under
    /// every row, charged the wire words its message would occupy
    /// materialised, and runs `rest` inside a lending scope over `slots`.
    /// Any other checks out each row's pooled buffer, shapes it to the row
    /// ([`RowMsg::shape`]), overwrites its values through the row's copy
    /// program and stashes it for the exchange.
    fn send_round<'a, T: Wire + Default>(
        &'a self,
        proc: &mut Proc,
        span: &'static str,
        src: &'a [T],
        slots: &'a Slots<T>,
        rest: impl FnOnce(&mut Proc),
    ) {
        let rows = &self.routes.slots;
        let send = |proc: &mut Proc, mut lender: Option<&mut Lender<'a, RowMsg<T>>>| {
            proc.wall_span(span, |proc| {
                proc.with_category(Category::LocalComp, |proc| {
                    for (k, (&dst, slot)) in rows.peers.iter().zip(slots).enumerate() {
                        match lender.as_deref_mut() {
                            Some(lender) => {
                                let words = self.routes.rank_words(k) + rows.len(k) * T::WORDS;
                                let (recipe, row) = (self, k);
                                lender.lend(k, Loan { src, recipe, row }, words);
                            }
                            None => {
                                let mut buf = proc.slot_checkout(slot, dst as usize);
                                let vals = buf.shape(self, k);
                                walk_phases::<T>(proc, |phase| {
                                    gather_fill(&self.progs, k, src, vals, phase)
                                });
                                slot.stash(buf);
                            }
                        }
                    }
                    proc.charge_ops(rows.total());
                })
            })
        };
        if !self.lends {
            send(proc, None);
            return rest(proc);
        }
        proc.lending(slots, &rows.peers, |proc, lender| {
            send(proc, Some(lender));
            rest(proc);
        })
    }

    /// The planned many-to-many over the buffers the send round left staged
    /// (or the loans it left lent) in `slots`.
    fn exchange<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        slots: &Slots<T>,
        recvs: &mut Vec<Packet>,
    ) {
        proc.with_category(Category::ManyToMany, |proc| {
            alltoallv_slots(proc, &self.a2a, self.schedule, slots, recvs);
        });
    }

    /// The shared pooled-decode loop: read the self row's slot in `slots`
    /// (it never crossed the wire), then every received packet's slot, and
    /// run `place` over what each carries — a staged buffer, which goes back
    /// to its sender's slot after, or a loan of the sender's source, read in
    /// place ([`PoolSlot::receive`]). `place` gets the sending processor's
    /// id (this processor's own for the self slot) and returns whatever
    /// count it wants accumulated — placed values for pair decodes, model
    /// operations for segment decodes. It must not park: a loan's lender may
    /// wait on it.
    fn receive<T: Wire + Default, F>(
        &self,
        proc: &mut Proc,
        slots: &Slots<T>,
        recvs: &mut Vec<Packet>,
        mut place: F,
    ) -> usize
    where
        F: FnMut(&mut Proc, usize, Received<'_, RowMsg<T>>) -> usize,
    {
        let me = proc.id();
        let mut acc = 0usize;
        if let Ok(own) = self.routes.slots.peers.binary_search(&(me as u32)) {
            acc += slots[own].receive(|got| place(proc, me, got));
        }
        for pkt in recvs.drain(..) {
            let src = pkt.src;
            let slot = pkt
                .data
                .downcast::<PoolSlot<RowMsg<T>>>()
                .expect("pooled exchange delivers pool slots");
            acc += slot.receive(|got| place(proc, src, got));
        }
        acc
    }
}

/// Place one PACK message into `out`, the local slice of `V`: a staged
/// message's values, or its sender's `a_local` read in place under the
/// sender's gather row, at the ranks of the sender's route row. Pairs go
/// through [`place_pairs`]; segments through their own copy — a staged
/// message's values are in rank order, so a segment is one `copy_from_slice`
/// (driving it through the fused kernel instead cost `exec_small` 4–6 %,
/// DESIGN.md §16). Returns the values placed and the row's rank words.
fn place_message<T: Wire + Default>(
    proc: &mut Proc,
    layout: &DimLayout,
    got: Received<'_, RowMsg<T>>,
    out: &mut [T],
) -> (usize, Words) {
    let me = proc.id();
    let (routes, k) = match &got {
        Received::Staged(msg) => {
            let (routes, k) = msg.route.as_ref().expect("a filled message");
            (&**routes, *k)
        }
        Received::Lent(loan) => (&*loan.recipe.routes, loan.row),
    };
    let placed = match (&routes.ranks, got) {
        // Wall bytes count the values only: the segment headers are index
        // work, not movement.
        (RankList::Runs { .. }, Received::Staged(msg)) => {
            proc.wall_span("place_segments", |proc| {
                proc.wall_bytes(std::mem::size_of_val(&msg.vals[..]) as u64);
                compact_message::place_segments(layout, me, routes.runs(k), &msg.vals, out)
            })
        }
        (RankList::Runs { .. }, Received::Lent(Loan { src, recipe, row })) => {
            let (runs, src) = (routes.runs(k), recipe.progs.source(row, src));
            walk_phases::<T>(proc, |phase| {
                compact_message::join_segments(layout, me, runs, src, out, phase)
            })
        }
        // Every other PACK row is pairs.
        (_, Received::Staged(msg)) => {
            let vals = msg.vals.iter().copied();
            place_pairs(
                layout,
                me,
                routes.explicit(k).iter().copied().zip(vals),
                out,
            )
        }
        (_, Received::Lent(Loan { src, recipe, row })) => {
            let vals = row_values(&recipe.progs, row, src);
            place_pairs(
                layout,
                me,
                routes.explicit(k).iter().copied().zip(vals),
                out,
            )
        }
    };
    (placed, routes.rank_words(k))
}

/// Shape the decode output. The decode overwrites every rank below `Size`
/// of `V`'s local slice — every rank is routed to exactly one processor and
/// the processors' routes tile `0..Size` — so a right-sized buffer is reused
/// as-is and only a fresh (or wrongly sized) one is zero-filled. The ranks
/// past `Size` keep what `out` held: [`crate::pack_with_vector`]'s copy of
/// `VECTOR`. Every decode path `debug_assert`s the coverage.
fn prepare_out<T: Default + Clone>(out: &mut Vec<T>, local_len: usize) {
    if out.len() != local_len {
        out.clear();
        out.resize(local_len, T::default());
    }
}

/// Walk a lowered copy program: `walk` runs one phase of a `copyprog`
/// kernel and returns the elements it moved; so does this, over both. The
/// bulk ops run under the `copy.contig` wall frame and the scalar ranges
/// under `copy.scatter`, so hotspot attribution sees the shift from indexed
/// to bulk movement.
fn walk_phases<T>(proc: &mut Proc, mut walk: impl FnMut(Phase) -> usize) -> usize {
    let mut total = 0;
    for (frame, phase) in [
        ("copy.contig", Phase::Bulk),
        ("copy.scatter", Phase::Scatter),
    ] {
        proc.wall_span(frame, |proc| {
            let moved = walk(phase);
            proc.wall_bytes((moved * std::mem::size_of::<T>()) as u64);
            total += moved;
        });
    }
    total
}

/// Place one pair message's `(global rank, value)` entries — a buffer's
/// pairs, or a lent row's ranks beside its values — into the local slice of
/// `V`; returns the number of values placed.
///
/// The receiver never learns the sender's rank lists at plan time (adding
/// an exchange for them would change the simulated wire traffic), so the
/// local index is found here at execute time — with the carried
/// [`OwnerBlock`] of the composers: ranks arrive in rank order, so a pair
/// costs one sign test and a store, and `local_of`'s divisions are paid only
/// when a rank leaves the result block. Nothing looks for runs: on a random
/// mask they average two elements, and a probe loop per run costs more than
/// it saves (EXPERIMENTS.md, "Lower only what beats the index loop").
fn place_pairs<T: Wire + Default>(
    layout: &DimLayout,
    me: usize,
    pairs: impl IntoIterator<Item = (u32, T)>,
    out: &mut [T],
) -> usize {
    let (mut block, mut placed) = (OwnerBlock::default(), 0);
    for (r, v) in pairs {
        let r = r as usize;
        if block.misses(r, 1) {
            block.seek(layout, r);
            debug_assert_eq!(block.owner, me, "misrouted element");
        }
        out[block.local_lo + (r - block.lo)] = v;
        placed += 1;
    }
    placed
}

/// Chunk size of the UNPACK field pass, in elements. Read from the kernel
/// table in EXPERIMENTS.md, "UNPACK writes each result element once": the
/// smallest size at which a mask alternating wholly selected and empty chunks
/// — the worst fragmentation — copies its half of a 16 MiB `i32` array within
/// 5 % of the time of the whole-array `memcpy` (64 is 9–17 % over it).
pub(crate) const FIELD_CHUNK: usize = 128;

/// The *field spans* of a local mask (DESIGN.md §16, "The field pass"): the
/// stretches of local memory UNPACK takes from `FIELD`, as sorted,
/// non-adjacent `(start, len)` pairs. A whole [`FIELD_CHUNK`] of selected
/// elements is left out — the reply scatter writes every one of them —, any
/// other chunk and the tail are covered, neighbours merge. One branch-free
/// all-true test and one predictable branch per chunk, no run detection.
pub(crate) fn field_spans(m_local: &[bool]) -> Vec<(u32, u32)> {
    let mut spans: Vec<(u32, u32)> = Vec::new();
    let mut cover = |start: usize, len: usize| match spans.last_mut() {
        Some((s, n)) if (*s + *n) as usize == start => *n += len as u32,
        _ => spans.push((start as u32, len as u32)),
    };
    let chunks = m_local.chunks_exact(FIELD_CHUNK);
    let tail = chunks.remainder().len();
    for (c, chunk) in chunks.enumerate() {
        if !chunk.iter().fold(true, |all, &selected| all & selected) {
            cover(c * FIELD_CHUNK, FIELD_CHUNK);
        }
    }
    if tail > 0 {
        cover(m_local.len() - tail, tail);
    }
    spans
}

/// The field pass: bring `out` to `f_local`'s length with `f_local`'s values
/// inside every span, and return the elements copied. A right-sized `out` is
/// written in place and keeps whatever it held between the spans; any other is
/// rebuilt front to back, zero-filled there — the reply scatter defines those.
fn copy_field<T: Copy + Default>(spans: &[(u32, u32)], f_local: &[T], out: &mut Vec<T>) -> usize {
    let in_place = out.len() == f_local.len();
    if !in_place {
        out.clear();
        out.reserve(f_local.len());
    }
    let mut copied = 0usize;
    for &(start, len) in spans {
        let span = start as usize..(start + len) as usize;
        if in_place {
            out[span.clone()].copy_from_slice(&f_local[span]);
        } else {
            out.resize(span.start, T::default());
            out.extend_from_slice(&f_local[span]);
        }
        copied += len as usize;
    }
    out.resize(f_local.len(), T::default());
    copied
}

/// A reusable, value-independent UNPACK plan. The rank *requests* of the
/// READ direction are exchanged once at plan time; each execute only moves
/// values (the reply round plus local copies).
#[derive(Debug, Clone)]
pub struct UnpackPlan {
    size: usize,
    local_len: usize,
    v_local_len: usize,
    /// One row per reply-sender: local element slots awaiting its values.
    targets: PeerCsr,
    /// Per `targets` row: its lowered copy program (the reply scatter).
    scatter_prog: CopyPrograms,
    /// What the field pass copies: sorted `(start, len)` stretches of local
    /// memory, everything but the wholly selected chunks ([`field_spans`]).
    field_spans: Vec<(u32, u32)>,
    /// The serve: one row per requester, without ranks, read from `v_local`
    /// through the local indices each asked for, in request order.
    send: Box<Sender>,
}

/// Build an [`UnpackPlan`]: initial scan, ranking collectives, request
/// composition, the request exchange itself, the owner-side precomputation
/// of which local `V` indices each requester needs, and the lowering of
/// both index families into copy programs.
///
/// Wrapped in the `unpack.plan` stage span; the request round keeps its
/// `unpack.request` span and [`Category::ManyToMany`] charge exactly as in
/// the one-shot path. The reply exchange needs no flag round: both
/// directions are locally known once the requests have arrived.
///
/// Collective. Returns [`UnpackError::VectorTooSmall`] (collectively) if
/// the mask selects more elements than `v_layout` can hold.
pub fn plan_unpack(
    proc: &mut Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
    v_layout: &DimLayout,
    opts: &UnpackOptions,
) -> Result<UnpackPlan, UnpackError> {
    plan_unpack_at(proc, desc, m_local, v_layout, opts, false)
}

/// [`plan_unpack`]; `always_lend` as in [`lend_rule`].
fn plan_unpack_at(
    proc: &mut Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
    v_layout: &DimLayout,
    opts: &UnpackOptions,
    always_lend: bool,
) -> Result<UnpackPlan, UnpackError> {
    let shape = crate::unpack::validate_mask(proc, desc, m_local)?;
    let local_len = m_local.len();
    let v_local_len = v_layout.local_len(proc.id());
    proc.with_stage("unpack.plan", |proc| {
        let w0 = shape.w[0];
        let mut composer = unpack_composer(opts);
        let counts = composer.scan(proc, m_local, w0);
        let ranking = rank_from_counts(proc, &shape, counts, opts.prs);
        let size = ranking.size;
        if size > v_layout.n() {
            // `Size` is replicated, so every processor takes this branch —
            // a collective error with no half-open communication.
            return Err(UnpackError::VectorTooSmall {
                size,
                capacity: v_layout.n(),
            });
        }
        // An empty mask composes and requests nothing (`Size` is replicated,
        // so everyone skips the round together).
        let (targets, scatter_prog, incoming) = if size == 0 {
            (PeerCsr::empty(), CopyPrograms::default(), Vec::new())
        } else {
            let composed = composer.compose(proc, &ranking, m_local, w0, v_layout);
            let (routes, scatter_prog) = proc.wall_span("plan.lower", |_| composed.finish());
            // The request round, paid once per plan: each owner is sent its
            // row of the routes, shared — a PACK message with no values, whose
            // wire words are the row's ranks. Only the slot rows outlive it.
            let routes = Arc::new(routes);
            let requests = (routes.slots.peers.iter().enumerate())
                .map(|(k, &owner)| {
                    let (vals, route) = (Vec::new(), Some((Arc::clone(&routes), k)));
                    (owner, RowMsg::<u32> { vals, route })
                })
                .collect();
            let incoming = proc.with_stage("unpack.request", |proc| {
                proc.with_category(Category::ManyToMany, |proc| {
                    let world = proc.world();
                    alltoallv_sparse(proc, &world, requests, opts.schedule)
                })
            });
            (routes.slots.clone(), scatter_prog, incoming)
        };
        // Owner-side precompute: resolve each requested run of ranks to a
        // run of local indices into my slice of V (one operation per served
        // rank; the value fetch itself is charged at execute time), lowered
        // as it is resolved: no index list is built.
        let (serve, progs) = proc.with_category(Category::LocalComp, |proc| {
            proc.wall_span("plan.serve", |proc| {
                let (mut serve, mut prog) = (PeerCsr::empty(), ProgramBuilder::default());
                let (mut served, mut block, me) = (0usize, OwnerBlock::default(), proc.id());
                for (requester, req) in &incoming {
                    let (routes, k) = req.route.as_ref().expect("a request is a route row");
                    prog.row_of_runs(routes.rank_runs(*k).map(|(base, n)| {
                        if block.misses(base, n) {
                            block.seek(v_layout, base);
                        }
                        // A composer never lets a run cross a block of `V`.
                        assert!(
                            !block.misses(base, n) && block.owner == me,
                            "misrouted request"
                        );
                        served += n;
                        ((block.local_lo + (base - block.lo)) as u32, n as u32)
                    }));
                    serve.peers.push(*requester);
                    serve.offs.push(served as u32);
                }
                proc.charge_ops(served);
                (serve, prog.finish())
            })
        });
        // Reply directions are locally known: I reply to whoever asked,
        // and I await replies from whoever I asked.
        let a2a = A2aPlan::from_peers(proc.nprocs(), serve.peers.clone(), targets.peers.clone());
        // The requesters' scatter rows are theirs; this processor's own
        // stand in for them: the same mask family, distributed alike.
        let mut stats = *progs.stats();
        stats.merge(scatter_prog.stats());
        let lends = lend_rule(proc, serve.total(), &stats, always_lend);
        let serve = Routes {
            slots: serve,
            ranks: RankList::Implicit,
        };
        let plan = UnpackPlan {
            size,
            local_len,
            v_local_len,
            targets,
            scatter_prog,
            field_spans: field_spans(m_local),
            send: Sender::new(serve, progs, a2a, opts.schedule, lends),
        };
        proc.mem_charge(MemAccount::Plan, plan.send.mem_bytes() + plan.recv_bytes());
        Ok(plan)
    })
}

impl UnpackPlan {
    /// Global number of selected mask elements (`Size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether this processor's executes lend `v_local` to the requesters
    /// instead of copying it into reply buffers; see [`PackPlan::lends`].
    pub fn lends(&self) -> bool {
        self.send.lends
    }

    /// Pool-slot handles the plan holds; see [`PackPlan::slot_handles`].
    pub fn slot_handles(&self) -> usize {
        self.send.slot_handles()
    }

    /// Bytes retained by the receive half (target rows, scatter programs,
    /// field spans); the send half counts its own.
    fn recv_bytes(&self) -> u64 {
        let spans = std::mem::size_of_val(&self.field_spans[..]) as u64;
        self.targets.mem_bytes() + self.scatter_prog.mem_bytes() + spans
    }

    /// Give the plan back once it will not execute again; see
    /// [`PackPlan::retire`]. It is what one-shot [`crate::unpack`] does
    /// after its execute.
    pub fn retire(self, proc: &mut Proc) {
        self.send.retire(proc, self.recv_bytes());
    }

    /// Aggregate op breakdown of the plan's lowered serve + scatter
    /// programs; see [`PackPlan::copy_stats`].
    pub fn copy_stats(&self) -> CopyStats {
        let mut s = *self.send.progs.stats();
        s.merge(self.scatter_prog.stats());
        s
    }

    /// The reply scatter into `A` at the recorded element slots: each reply
    /// — a buffer, or the owner's `v_local` read in place under its serve
    /// row — is joined with this processor's scatter row in one pass.
    fn scatter<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        slots: &Slots<T>,
        recvs: &mut Vec<Packet>,
        out: &mut [T],
    ) {
        proc.wall_span("unpack.scatter", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let ops = self.send.receive(proc, slots, recvs, |proc, src_id, got| {
                    let k = self.targets.find(src_id).expect("a reply I asked for");
                    let moved = match got {
                        Received::Staged(buf) => walk_phases::<T>(proc, |phase| {
                            scatter_apply(&self.scatter_prog, k, &buf.vals, out, phase)
                        }),
                        Received::Lent(Loan { src, recipe, row }) => {
                            let src = recipe.progs.source(row, src);
                            walk_phases::<T>(proc, |phase| {
                                self.scatter_prog.place(k, src, out, phase)
                            })
                        }
                    };
                    debug_assert_eq!(moved, self.targets.len(k), "reply length mismatch");
                    moved
                });
                proc.charge_ops(ops);
            })
        });
    }

    /// Execute the plan against fresh field and vector values: copy the
    /// field where the mask leaves elements unselected, serve the
    /// precomputed value requests, run the planned reply exchange, and
    /// scatter into the recorded slots. Returns this processor's local
    /// portion of the result array `A`, every element written — from `FIELD`
    /// or from `V`, the wholly selected chunks from `V` alone.
    ///
    /// Collective; wrapped in the `unpack.execute` stage span (the reply
    /// round keeps its `unpack.reply` span).
    ///
    /// # Errors
    /// [`UnpackError::FieldLenMismatch`] / [`UnpackError::VectorLenMismatch`]
    /// if the arguments do not match the planned layouts (collective).
    pub fn execute<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        f_local: &[T],
        v_local: &[T],
    ) -> Result<Vec<T>, UnpackError> {
        let mut out = Vec::new();
        self.execute_into(proc, f_local, v_local, &mut out)?;
        Ok(out)
    }

    /// [`UnpackPlan::execute`] writing into a caller-owned output vector.
    /// On return `out` is the result whatever it held before: an `out` of
    /// the local length is overwritten in place — the field spans from
    /// `f_local`, every other element by the reply scatter, each element
    /// once — and keeps its allocation; any other `out` is cleared and
    /// rebuilt. From the second call with the same `out` onward the copy →
    /// serve → reply → scatter loop performs zero heap allocations — reply
    /// buffers come from the plan's slots. Simulated accounting is
    /// bit-identical to `execute`: the model charges the field pass one
    /// operation per local element however few the host copies.
    pub fn execute_into<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        f_local: &[T],
        v_local: &[T],
        out: &mut Vec<T>,
    ) -> Result<(), UnpackError> {
        if f_local.len() != self.local_len {
            return Err(UnpackError::FieldLenMismatch {
                expected: self.local_len,
                got: f_local.len(),
            });
        }
        if v_local.len() != self.v_local_len {
            return Err(UnpackError::VectorLenMismatch {
                expected: self.v_local_len,
                got: v_local.len(),
            });
        }
        proc.with_stage("unpack.execute", |proc| {
            // Field pass: one model operation per local element; the host
            // copies the spans only (the scatter below writes the rest).
            proc.wall_span("unpack.fieldcopy", |proc| {
                proc.with_category(Category::LocalComp, |proc| {
                    proc.charge_ops(f_local.len());
                    let copied = copy_field(&self.field_spans, f_local, out);
                    proc.wall_bytes((copied * std::mem::size_of::<T>()) as u64);
                })
            });
            if self.size == 0 {
                return;
            }
            // The serve: each requester's values, one operation per value
            // (the index arithmetic was paid at plan time). Requesters with
            // nothing to serve get no message, matching the reply plan's
            // silent rounds.
            let mut recvs = proc.take_pkt_scratch();
            let slots = self.send.slots::<T>(proc);
            self.send
                .send_round(proc, "unpack.serve", v_local, &slots, |proc| {
                    let reply = |proc: &mut Proc| self.send.exchange(proc, &slots, &mut recvs);
                    proc.with_stage("unpack.reply", reply);
                    self.scatter(proc, &slots, &mut recvs, out)
                });
            proc.restore_pkt_scratch(recvs);
        });
        Ok(())
    }
}

/// The scheme's plan-time composer for PACK, charging the Section 6.4
/// costs on [`PackScheme`]'s variants.
fn pack_composer(opts: &PackOptions) -> Composer {
    let compact = |emit, per_run, per_elem| {
        Composer::compact(emit, ComposeCost { per_run, per_elem }, opts.scan_method)
    };
    match opts.scheme {
        PackScheme::Simple => Composer::simple(1),
        PackScheme::CompactStorage => compact(RankEmit::Explicit, 1, 1),
        PackScheme::CompactMessage => compact(RankEmit::Runs, 2, 0),
    }
}

/// The scheme's plan-time composer for UNPACK; see [`UnpackScheme`].
fn unpack_composer(opts: &UnpackOptions) -> Composer {
    let (per_run, per_elem) = (2, 1);
    let cost = ComposeCost { per_run, per_elem };
    match opts.scheme {
        UnpackScheme::Simple => Composer::simple(2),
        UnpackScheme::CompactStorage => {
            Composer::compact(RankEmit::Runs, cost, ScanMethod::UntilCollected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaskPattern;
    use copyprog::CopyOp;
    use hpf_distarray::Dist;
    use hpf_machine::{CostModel, Machine, ProcGrid};

    /// Every processor's CMS PACK and CSS UNPACK plan under `pattern` on the
    /// shape of `benchmark/`'s `exec_small`: N = 8192, P = 16, blocks of 64.
    fn plans(pattern: MaskPattern) -> Vec<(PackPlan, UnpackPlan)> {
        let grid = ProcGrid::line(16);
        let desc = ArrayDesc::new(&[8192], &grid, &[Dist::BlockCyclic(64)]).unwrap();
        let d = &desc;
        let out = Machine::new(grid, CostModel::cm5()).run(move |proc| {
            let m = pattern.local(d, proc.id());
            let pack = plan_pack(proc, d, &m, &PackOptions::new(PackScheme::CompactMessage));
            let pack = pack.unwrap();
            let opts = UnpackOptions::new(UnpackScheme::CompactStorage);
            let unpack = plan_unpack(proc, d, &m, &pack.v_layout().unwrap(), &opts).unwrap();
            (pack, unpack)
        });
        out.results
    }

    /// A Bernoulli-0.5 mask lowers every gather row and every scatter row to
    /// the index loop: exactly one `Scatter` op over the whole row. The serve
    /// rows read the dense `V` in runs of ~32, back to back, and stay
    /// `memcpy` but for a ragged first or last piece.
    #[test]
    fn random_rows_lower_to_one_scatter() {
        let pattern = MaskPattern::Random {
            density: 0.5,
            seed: 11,
        };
        let mut rows = 0;
        for (pack, unpack) in plans(pattern) {
            for (progs, csr) in [
                (&pack.send.progs, &pack.send.routes.slots),
                (&unpack.scatter_prog, &unpack.targets),
            ] {
                for k in 0..csr.peers.len() {
                    // Each row before this one is one walk: its first index
                    // in four bytes, one byte for each later one.
                    let (len, at) = (csr.len(k) as u32, csr.offs[k] + 3 * k as u32);
                    let whole = CopyOp::Scatter { pos: 0, at, len };
                    assert_eq!(progs.row(k), [whole]);
                    rows += 1;
                }
            }
            let serve = unpack.send.progs.stats();
            assert!(
                serve.bulk_fraction() > 0.9,
                "serve rows are runs: {serve:?}"
            );
        }
        assert!(rows >= 64, "{rows} rows");
    }

    /// Dense rows are out of the break-even's reach: under a full and a
    /// `FirstHalf` mask all three program families are op for op what the
    /// rule before it — every 4-long contig — produced.
    #[test]
    fn dense_rows_lower_as_they_did() {
        for pattern in [MaskPattern::Full, MaskPattern::FirstHalf] {
            for (pack, unpack) in plans(pattern) {
                for (progs, csr) in [
                    (&pack.send.progs, &pack.send.routes.slots),
                    (&unpack.send.progs, &unpack.send.routes.slots),
                    (&unpack.scatter_prog, &unpack.targets),
                ] {
                    let list: Vec<u32> = (0..csr.peers.len())
                        .flat_map(|k| progs.indices(k))
                        .collect();
                    let before = copyprog::tests::lower_rescanning_with(&list, &csr.offs, [4, 4]);
                    assert_eq!(progs, &before, "{pattern:?}");
                    assert_eq!(progs.stats().bulk_fraction(), 1.0);
                }
            }
        }
    }

    /// The span rule, stated index by index: sorted, non-adjacent, non-empty
    /// spans inside `0..L` that cover an index unless its chunk is a whole
    /// chunk of selected elements — so every unselected index is inside a
    /// span and every index outside one is selected.
    fn assert_spans_follow_the_rule(mask: &[bool]) {
        let spans = field_spans(mask);
        let mut covered = vec![false; mask.len()];
        for &(start, len) in &spans {
            assert!(len > 0, "{spans:?}");
            covered[start as usize..(start + len) as usize].fill(true);
        }
        for pair in spans.windows(2) {
            assert!(pair[0].0 + pair[0].1 < pair[1].0, "{spans:?}");
        }
        for (i, &c) in covered.iter().enumerate() {
            let chunk =
                &mask[i - i % FIELD_CHUNK..mask.len().min(i - i % FIELD_CHUNK + FIELD_CHUNK)];
            let skipped = chunk.len() == FIELD_CHUNK && chunk.iter().all(|&b| b);
            assert_eq!(c, !skipped, "index {i} of {}: {spans:?}", mask.len());
            assert!(c || mask[i], "unselected index {i} left to the scatter");
        }
    }

    #[test]
    fn field_spans_at_the_edges() {
        const C: u32 = FIELD_CHUNK as u32;
        let full = |l: usize| field_spans(&vec![true; l]);
        assert_eq!(full(0), []);
        assert_eq!(full(FIELD_CHUNK - 1), [(0, C - 1)], "L < chunk is all tail");
        assert_eq!(full(3 * FIELD_CHUNK), []);
        assert_eq!(
            full(2 * FIELD_CHUNK + 5),
            [(2 * C, 5)],
            "the tail is copied"
        );
        let l = 2 * FIELD_CHUNK + FIELD_CHUNK / 2;
        assert_eq!(
            field_spans(&vec![false; l]),
            [(0, l as u32)],
            "neighbours merge"
        );
        for hole in [0, FIELD_CHUNK - 1, FIELD_CHUNK, l - 1] {
            let mut mask = vec![true; l];
            mask[hole] = false;
            assert_spans_follow_the_rule(&mask);
        }
    }

    /// One reused `out` across plans of one local length: under every mask
    /// the result equals the sequential oracle when `out` arrives full of
    /// poison, when it arrives from the previous mask's plan, and when it is
    /// fresh — both UNPACK schemes, 1-D (four whole chunks, and two and a
    /// half on a block-cyclic layout) and 2-D.
    #[test]
    fn unpack_into_a_reused_out_matches_the_oracle() {
        use hpf_distarray::GlobalArray;
        const POISON: i64 = i64::MIN + 7;
        const C: usize = FIELD_CHUNK;
        // Bernoulli by local index, a mask of its own per processor.
        let bernoulli = |density: f64| {
            move |me: usize, l: usize, len: usize| {
                let seed = me as u64;
                MaskPattern::Random { density, seed }.value(&[l], &[len])
            }
        };
        type LocalMask = Box<dyn Fn(usize, usize, usize) -> bool + Sync>;
        let masks: Vec<(&str, LocalMask)> = vec![
            ("full", Box::new(|_, _, _| true)),
            ("empty", Box::new(|_, _, _| false)),
            ("first half", Box::new(|_, l, len| l < len / 2)),
            (
                "alternating chunks",
                Box::new(|me, l, _| (l / C + me).is_multiple_of(2)),
            ),
            ("hole at 0", Box::new(|_, l, _| l != 0)),
            ("hole at chunk - 1", Box::new(|_, l, _| l != C - 1)),
            ("hole at chunk", Box::new(|_, l, _| l != C)),
            ("bernoulli 0.5", Box::new(bernoulli(0.5))),
            ("bernoulli 0.98", Box::new(bernoulli(0.98))),
        ];
        let cases: [(&[usize], &[usize], Vec<Dist>); 3] = [
            (&[4 * 4 * C], &[4], vec![Dist::Block]),
            (&[4 * 5 * C / 2], &[4], vec![Dist::BlockCyclic(C / 8)]),
            (
                &[C / 2, 20],
                &[2, 2],
                vec![Dist::BlockCyclic(4), Dist::Block],
            ),
        ];
        for (shape, grid_dims, dists) in cases {
            let grid = ProcGrid::new(grid_dims);
            let desc = ArrayDesc::new(shape, &grid, &dists).unwrap();
            let p = grid.nprocs();
            // Per mask: every processor's local mask, and the oracle.
            let inputs: Vec<_> = masks
                .iter()
                .map(|(name, select)| {
                    let locals: Vec<Vec<bool>> = (0..p)
                        .map(|me| {
                            let len = desc.local_len(me);
                            (0..len).map(|l| select(me, l, len)).collect()
                        })
                        .collect();
                    let global = GlobalArray::assemble(&desc, &locals);
                    let size = global.data().iter().filter(|&&b| b).count();
                    let vl = DimLayout::new_general(size.max(1), p, size.div_ceil(p).max(1));
                    let v: Vec<i64> = (0..size.max(1) as i64).map(|r| -1 - r).collect();
                    let field = GlobalArray::from_fn(shape, |g| 1000 * g[0] as i64 + 1);
                    let want = crate::seq::unpack_seq(&v, &global, &field);
                    (*name, locals, vl.unwrap(), want.partition(&desc))
                })
                .collect();
            for scheme in UnpackScheme::ALL {
                let (d, inputs) = (&desc, &inputs);
                Machine::new(grid.clone(), CostModel::cm5()).run(move |proc| {
                    let me = proc.id();
                    let f = hpf_distarray::local_from_fn(d, me, |g| 1000 * g[0] as i64 + 1);
                    let mut carried = vec![POISON; f.len()];
                    for (name, locals, vl, want) in inputs {
                        let v: Vec<i64> = (0..vl.local_len(me))
                            .map(|l| -1 - vl.global_of(me, l) as i64)
                            .collect();
                        let opts = UnpackOptions::new(scheme);
                        let plan = plan_unpack(proc, d, &locals[me], vl, &opts).unwrap();
                        let mut poisoned = vec![POISON; f.len()];
                        let at = poisoned.as_ptr();
                        plan.execute_into(proc, &f, &v, &mut poisoned).unwrap();
                        assert_eq!(poisoned.as_ptr(), at, "{name}: a right-sized out moved");
                        plan.execute_into(proc, &f, &v, &mut carried).unwrap();
                        let fresh = plan.execute(proc, &f, &v).unwrap();
                        for got in [&poisoned, &carried, &fresh] {
                            assert_eq!(got, &want[me], "{name}, {scheme:?}, {shape:?}, proc {me}");
                        }
                    }
                });
            }
        }
    }

    /// Small worlds with every plan lending (`MIN_LEND` and the bulk rule
    /// lifted): every
    /// mask of every 1-D array of N ≤ 8 elements on P ∈ {1, 2, 3, 4}
    /// processors under every block-cyclic layout with P·W | N, through the
    /// three PACK and two UNPACK schemes as plans executed twice, under all
    /// three many-to-many schedules, against the sequential oracle. Every
    /// message — CMS segments, pairs and flat replies, the self-message
    /// included — is then read in place from its sender's slice.
    #[test]
    fn small_worlds_match_the_oracle_when_every_plan_lends() {
        use crate::seq::{pack_seq, unpack_seq};
        use hpf_distarray::GlobalArray;
        use hpf_machine::collectives::A2aSchedule;
        const SCHEDULES: [A2aSchedule; 3] = [
            A2aSchedule::LinearPermutation,
            A2aSchedule::NaivePush,
            A2aSchedule::PairwiseExchange,
        ];
        let mut worlds = 0;
        for p in 1..=4 {
            for n in 1..=8usize {
                for w in (1..=n).filter(|w| n.is_multiple_of(p * w)) {
                    let schedule = SCHEDULES[worlds % 3];
                    worlds += 1;
                    let grid = ProcGrid::line(p);
                    let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(w)]).unwrap();
                    let a = GlobalArray::from_fn(&[n], |g| 10 * g[0] as i32 + 1);
                    let f = GlobalArray::from_fn(&[n], |g| -(g[0] as i32) - 1);
                    let (d, ap, fp) = (&desc, &a.partition(&desc), &f.partition(&desc));
                    let (a, f) = (&a, &f);
                    Machine::new(grid, CostModel::cm5()).run(move |proc| {
                        let me = proc.id();
                        for bits in 0..1u32 << n {
                            let mask = GlobalArray::from_vec(
                                &[n],
                                (0..n).map(|i| bits >> i & 1 == 1).collect(),
                            );
                            let m = &mask.partition(d)[me];
                            let packed = pack_seq(a, &mask, None);
                            let what = format!("N={n} P={p} W={w} mask {bits:b}");
                            for scheme in PackScheme::ALL {
                                let opts = PackOptions {
                                    schedule,
                                    ..PackOptions::new(scheme)
                                };
                                let plan = plan_pack_at(proc, d, m, &opts, None, true).unwrap();
                                assert!(plan.lends(), "{what}");
                                for _ in 0..2 {
                                    let got = plan.execute(proc, &ap[me]).unwrap();
                                    assert_eq!(got.size, packed.len(), "{what}");
                                    for (l, x) in got.local_v.iter().enumerate() {
                                        let g = got.v_layout.unwrap().global_of(me, l);
                                        assert_eq!(*x, packed[g], "{what}, {scheme:?}");
                                    }
                                }
                                plan.retire(proc);
                            }
                            let v: Vec<i32> =
                                packed.iter().rev().map(|x| x + 1000).chain([-7]).collect();
                            let vl =
                                DimLayout::new_general(v.len(), p, 1 + bits as usize % 3).unwrap();
                            let want = &unpack_seq(&v, &mask, f).partition(d)[me];
                            let v_local: Vec<i32> = (0..vl.local_len(me))
                                .map(|l| v[vl.global_of(me, l)])
                                .collect();
                            for scheme in UnpackScheme::ALL {
                                let opts = UnpackOptions {
                                    schedule,
                                    ..UnpackOptions::new(scheme)
                                };
                                let plan = plan_unpack_at(proc, d, m, &vl, &opts, true).unwrap();
                                assert!(plan.lends(), "{what}");
                                for _ in 0..2 {
                                    let got = plan.execute(proc, &fp[me], &v_local).unwrap();
                                    assert_eq!(&got, want, "{what}, {scheme:?}");
                                }
                                plan.retire(proc);
                            }
                        }
                    });
                }
            }
        }
        assert_eq!(worlds, 34);
    }

    /// The one lifetime a staged PACK message adds: its ranks are its
    /// sender's route row, so the row must outlive the sender's plan. For each
    /// scheme at P ∈ {2, 3, 4} and pool sizes 1–3, processor 0 executes, then
    /// retires and drops its plan while every other processor holds 0's
    /// staged message undecoded. A message forces the order: each receiver
    /// runs its send round and its exchange, then blocks on a token that 0
    /// sends only once its plan is gone, and decodes after it. Every
    /// receiver's `V` equals the oracle's, and once the run is over nothing
    /// holds 0's routes.
    #[test]
    fn a_staged_message_outlives_its_senders_plan() {
        use crate::seq::pack_seq;
        use hpf_distarray::GlobalArray;
        use hpf_machine::tags;
        use std::sync::Weak;
        for p in 2..=4 {
            let n = 12 * p;
            let grid = ProcGrid::line(p);
            let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(2)]).unwrap();
            let a = GlobalArray::from_fn(&[n], |g| 10 * g[0] as i32 + 1);
            let mask = GlobalArray::from_fn(&[n], |g| g[0] % 3 != 1);
            let want = pack_seq(&a, &mask, None);
            let (ap, mp) = (&a.partition(&desc), &mask.partition(&desc));
            for workers in 1..=3 {
                for scheme in PackScheme::ALL {
                    let (d, want) = (&desc, &want);
                    let machine =
                        Machine::new(grid.clone(), CostModel::cm5()).with_workers(workers);
                    let out = machine.run(move |proc| {
                        let me = proc.id();
                        let plan = plan_pack(proc, d, &mp[me], &PackOptions::new(scheme)).unwrap();
                        assert!(!plan.lends());
                        let layout = plan.v_layout().unwrap();
                        let mut v = Vec::new();
                        let mut routes = None;
                        if me == 0 {
                            let peers = plan.send.routes.slots.peers.iter();
                            let in_flight = peers.filter(|&&d| d != 0).count();
                            assert_eq!(in_flight, p - 1, "0 sends to every receiver");
                            let weak = Arc::downgrade(&plan.send.routes);
                            let mut got = PackOutput {
                                local_v: Vec::new(),
                                size: 0,
                                v_layout: None,
                            };
                            plan.execute_into(proc, &ap[0], &mut got).unwrap();
                            plan.retire(proc);
                            assert_eq!(weak.strong_count(), in_flight, "only messages hold it");
                            for dst in 1..p {
                                proc.send(dst, tags::USER, vec![1u32]);
                            }
                            (v, routes) = (got.local_v, Some(weak));
                        } else {
                            let mut recvs = Vec::new();
                            let slots = plan.send.slots::<i32>(proc);
                            plan.send
                                .send_round(proc, "pack.gather", &ap[me], &slots, |proc| {
                                    plan.send.exchange(proc, &slots, &mut recvs);
                                    let _gone: Vec<u32> = proc.recv(0, tags::USER);
                                    plan.decode(proc, &layout, &slots, &mut recvs, &mut v);
                                });
                        }
                        let what = format!("P={p} workers={workers} {scheme:?} proc {me}");
                        assert_eq!(v.len(), layout.local_len(me), "{what}");
                        for (l, x) in v.iter().enumerate() {
                            assert_eq!(*x, want[layout.global_of(me, l)], "{what}");
                        }
                        routes
                    });
                    let weak: &Weak<Routes> = out.results[0].as_ref().unwrap();
                    assert_eq!(weak.strong_count(), 0, "P={p} {scheme:?}: a message leaked");
                }
            }
        }
    }

    /// A plan owns its slots: one executed and then dropped without
    /// `retire` leaves none alive once its receivers have decoded, checked
    /// inside the run (a barrier after the drop orders every decode before
    /// the check). Staging and lending plans, at P ∈ {2, 3, 4}.
    #[test]
    fn a_dropped_plan_leaves_no_slot_alive() {
        use hpf_distarray::GlobalArray;
        use std::sync::Weak;
        for p in 2..=4 {
            let n = 12 * p;
            let grid = ProcGrid::line(p);
            let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(2)]).unwrap();
            let a = GlobalArray::from_fn(&[n], |g| 10 * g[0] as i32 + 1);
            let mask = GlobalArray::from_fn(&[n], |g| g[0] % 3 != 1);
            let (d, ap, mp) = (&desc, &a.partition(&desc), &mask.partition(&desc));
            for lend in [false, true] {
                Machine::new(grid.clone(), CostModel::cm5()).run(move |proc| {
                    let me = proc.id();
                    let opts = PackOptions::new(PackScheme::CompactStorage);
                    let plan = plan_pack_at(proc, d, &mp[me], &opts, None, lend).unwrap();
                    assert_eq!(plan.lends(), lend);
                    plan.execute(proc, &ap[me]).unwrap();
                    let held = plan.send.handles.lock();
                    let table = held.as_ref().expect("an executed plan holds slots");
                    let slots: &Slots<i32> = table.slots.downcast_ref().unwrap();
                    let weak: Vec<Weak<_>> = slots.iter().map(Arc::downgrade).collect();
                    drop(held);
                    assert_eq!(weak.len(), plan.send.routes.slots.peers.len());
                    drop(plan);
                    let world = proc.world();
                    proc.clock_sync_max(&world);
                    for slot in &weak {
                        let what = format!("P={p} lend={lend} proc {me}");
                        assert_eq!(slot.strong_count(), 0, "{what}: a slot outlived its plan");
                    }
                });
            }
        }
    }

    proptest::proptest! {
        /// The span derivation alone, on masks made of runs long enough to
        /// hold whole selected chunks and short enough to break them.
        #[test]
        fn field_spans_follow_the_rule(
            runs in proptest::collection::vec(
                (proptest::arbitrary::any::<bool>(), 1usize..3 * FIELD_CHUNK),
                0..8,
            ),
        ) {
            let mask: Vec<bool> = runs
                .iter()
                .flat_map(|&(selected, n)| std::iter::repeat_n(selected, n))
                .collect();
            assert_spans_follow_the_rule(&mask);
        }

        /// The carried owner block equals the per-element
        /// `out[local_of(rank)] = v` loop on block (`t == 1`), cyclic
        /// (`w == 1`) and block-cyclic layouts, for any sorted rank list of
        /// one owner.
        #[test]
        fn place_pairs_matches_the_per_element_loop(
            shape in (1usize..5, 1usize..6, 1usize..5),
            me in 0usize..4,
            keep in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 100),
        ) {
            let (p, w, t) = shape;
            let layout = DimLayout::new_general(p * w * t, p, w).unwrap();
            let me = me % p;
            let pairs: Vec<(u32, i32)> = (0..layout.n())
                .filter(|&r| layout.owner(r) == me && keep[r])
                .map(|r| (r as u32, r as i32 * 7 + 1))
                .collect();
            let mut out = vec![0; layout.local_len(me)];
            proptest::prop_assert_eq!(place_pairs(&layout, me, pairs.iter().copied(), &mut out), pairs.len());
            let mut want = vec![0; out.len()];
            for &(r, v) in &pairs {
                want[layout.local_of(r as usize)] = v;
            }
            proptest::prop_assert_eq!(&out, &want);
            // Lent: the ranks beside the values of a sender's array read
            // through its lowered gather row (a reversal of the value
            // array, which lowers to one `Scatter` op, or runs of it).
            let src: Vec<i32> = pairs.iter().rev().map(|p| p.1).collect();
            let n = src.len() as u32;
            let list: Vec<u32> = (0..n).map(|k| n - 1 - k).collect();
            let progs = CopyPrograms::lower(&list, &[0, n]);
            let lent = pairs.iter().map(|p| p.0).zip(copyprog::row_values(&progs, 0, &src));
            let mut out = vec![0; layout.local_len(me)];
            proptest::prop_assert_eq!(place_pairs(&layout, me, lent, &mut out), pairs.len());
            proptest::prop_assert_eq!(out, want);
        }
    }
}
