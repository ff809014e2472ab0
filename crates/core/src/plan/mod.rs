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
//! per-scheme formulas (see [`crate::predict`]), and
//! `plan().execute(data)` is bit-identical to the one-shot entry points
//! (which are now thin wrappers doing exactly `plan` + `execute`).
//!
//! Since the copy-program lowering (DESIGN.md §16), a plan also carries,
//! per populated peer, a compiled [`copyprog::CopyPrograms`] row over its
//! index list; the execute kernels walk the program — bulk `copy_from_slice`
//! runs and constant-stride loops where the mask allows, scalar ranges
//! where it does not — instead of indexing element by element. Lowering is
//! wall-clock-only: simulated operation charges are per *value moved* and
//! do not depend on the loop shape, so every Section 6.4 metric is
//! unchanged to the bit.
//!
//! Plans are generic over the element type at execute time: one
//! [`PackPlan`] built for a mask/layout packs `f64` values and `u32`
//! indices alike, which is how the SpMV app compresses two aligned arrays
//! with a single ranking pass.
//!
//! [`PlanCache`] memoizes plans across calls keyed by stable fingerprints,
//! turning repeated pack/unpack under an unchanged mask into pure
//! executes.

mod cache;
pub(crate) mod composer;
pub(crate) mod copyprog;
mod poolmsg;

pub use cache::PlanCache;
pub use copyprog::CopyStats;

use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::collectives::{alltoallv_pooled, alltoallv_sparse, A2aPlan, A2aSchedule};
use hpf_machine::{fresh_pool_key, Category, MemAccount, Packet, PoolSlot, Proc, Reusable, Wire};

use crate::error::{PackError, UnpackError};
use crate::pack::{compact_message, result_layout, CmsMessage, PackOutput};
use crate::ranking::rank_from_counts;
use crate::schemes::{PackOptions, PackScheme, UnpackOptions, UnpackScheme};
use crate::unpack::RankRequest;

use composer::{
    into_rows, Composer, OwnerBlock, PeerCsr, RankEmit, RankList, Routes, RoutesBuilder,
};
use copyprog::{
    gather_fill, gather_pairs_refill, scatter_apply, CopyPrograms, Phase, ProgramBuilder,
};
use poolmsg::{FlatMsg, PairMsg};

/// A reusable, value-independent PACK plan for one `(descriptor, mask,
/// options)` triple on one processor. Built by [`plan_pack`]; executed any
/// number of times with [`PackPlan::execute`].
#[derive(Debug, Clone)]
pub struct PackPlan {
    scheme: PackScheme,
    schedule: A2aSchedule,
    size: usize,
    v_layout: Option<DimLayout>,
    local_len: usize,
    /// One row per populated destination (DESIGN.md §10).
    routes: Routes,
    /// Per route row: the copy program lowered from its slot list, driving
    /// the execute-time value gather (DESIGN.md §16).
    gather: CopyPrograms,
    a2a: A2aPlan,
    /// Buffer-pool key: each plan owns a distinct family of reusable send
    /// buffers in every processor's pool (see DESIGN.md §11).
    pool_key: u64,
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
    let shape = crate::pack::validate_mask(proc, desc, m_local)?;
    let local_len = m_local.len();
    Ok(proc.with_stage("pack.plan", |proc| {
        let w0 = shape.w[0];
        let mut composer = pack_composer(opts);
        let counts = composer.scan(proc, m_local, w0);
        let ranking = rank_from_counts(proc, &shape, counts, opts.prs);
        let layout = result_layout(ranking.size, proc.nprocs(), opts.result_block_size);
        let (routes, gather) = match &layout {
            Some(layout) => {
                let composed = composer.compose(proc, &ranking, m_local, w0, layout);
                proc.wall_span("plan.lower", |_| composed.finish())
            }
            None => RoutesBuilder::new(RankEmit::Explicit, 0, 0).finish(),
        };
        let (to, world) = (routes.slots.peers.clone(), proc.world());
        let a2a = match layout {
            Some(_) => A2aPlan::exchange(proc, &world, to),
            // `Size` is replicated: nobody sends, so nobody needs to ask.
            None => A2aPlan::from_peers(proc.nprocs(), to, Vec::new()),
        };
        let plan = PackPlan {
            scheme: opts.scheme,
            schedule: opts.schedule,
            size: ranking.size,
            v_layout: layout,
            local_len,
            routes,
            gather,
            a2a,
            pool_key: fresh_pool_key(),
        };
        proc.mem_charge(MemAccount::Plan, plan.mem_bytes());
        plan
    }))
}

impl PackPlan {
    /// The scheme the plan was composed for.
    pub fn scheme(&self) -> PackScheme {
        self.scheme
    }

    /// Bytes retained by the plan's index structures (route rows, lowered
    /// copy programs, and the exchange's peer lists), charged to the `plan`
    /// memory account at build time and released by [`PackPlan::retire`].
    fn mem_bytes(&self) -> u64 {
        self.routes.mem_bytes() + self.gather.mem_bytes() + self.a2a.mem_bytes()
    }

    /// Give the plan back once it will not execute again — what one-shot
    /// [`crate::pack`] does after its execute: this processor's pool drops
    /// the plan's send buffers (one still in flight is freed by its
    /// receiver's decode) and the `pool` and `plan` memory accounts are
    /// released of what the plan charged. Dropping a plan does none of this
    /// (a plan has no [`Proc`] to tell). Local, not collective; clones share
    /// the buffers, so retire the last one.
    pub fn retire(self, proc: &mut Proc) {
        proc.pool_retire(self.pool_key);
        proc.mem_release(MemAccount::Plan, self.mem_bytes());
    }

    /// Aggregate op breakdown of the plan's lowered gather programs —
    /// how much of the execute-time value movement runs as bulk copies.
    pub fn copy_stats(&self) -> CopyStats {
        *self.gather.stats()
    }

    /// Global number of packed elements (`Size`), replicated everywhere.
    pub fn size(&self) -> usize {
        self.size
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
    /// allocations**: send buffers come from the per-processor pool
    /// (checked out here, returned by the receiving processor's decode) and
    /// the result vector reuses its capacity.
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
            match self.scheme {
                PackScheme::Simple | PackScheme::CompactStorage => {
                    self.gather_pairs(proc, a_local);
                    self.exchange::<PairMsg<T>>(proc, &mut recvs);
                    self.decode_pairs(proc, &layout, &mut recvs, &mut out.local_v);
                }
                PackScheme::CompactMessage => {
                    self.gather_segments(proc, a_local);
                    self.exchange::<CmsMessage<T>>(proc, &mut recvs);
                    self.decode_segments(proc, &layout, &mut recvs, &mut out.local_v);
                }
            }
            proc.restore_pkt_scratch(recvs);
            out.size = self.size;
            out.v_layout = Some(layout);
        });
        Ok(())
    }

    /// The planned many-to-many over the buffers the gather left staged.
    fn exchange<B: Reusable>(&self, proc: &mut Proc, recvs: &mut Vec<Packet>) {
        proc.with_category(Category::ManyToMany, |proc| {
            alltoallv_pooled::<B>(proc, &self.a2a, self.schedule, self.pool_key, recvs);
        });
    }

    /// Gather `(rank, value)` pair messages into pooled per-destination
    /// buffers (one operation per moved element). A warm buffer already
    /// holds the plan-constant rank skeleton, so the refill walks the
    /// lowered copy program and overwrites **values only**; cold buffers
    /// (the first two executes, one per pool slot) build the skeleton
    /// scalar. The buffer for each destination — this processor's own rank
    /// included — is left staged in its slot for the exchange.
    fn gather_pairs<T: Wire + Default>(&self, proc: &mut Proc, a_local: &[T]) {
        proc.wall_span("pack.gather", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let mut moved = 0usize;
                for (k, &dst) in self.routes.slots.peers.iter().enumerate() {
                    let (slots, ranks) = (self.routes.slots.row(k), self.routes.explicit(k));
                    let (slot, mut buf) =
                        proc.pool_checkout::<PairMsg<T>>(self.pool_key, dst as usize);
                    if buf.pairs.len() == ranks.len() {
                        debug_assert!(
                            buf.pairs.iter().zip(ranks).all(|(p, &r)| p.0 == r),
                            "stale rank skeleton in pooled pair buffer"
                        );
                        let prog = self.gather.row(k);
                        walk_phases::<T>(proc, |phase| {
                            gather_pairs_refill(prog, slots, a_local, &mut buf.pairs, phase)
                        });
                    } else {
                        proc.wall_span("copy.scatter", |proc| {
                            buf.pairs.clear();
                            buf.pairs.extend(
                                ranks
                                    .iter()
                                    .zip(slots)
                                    .map(|(&r, &s)| (r, a_local[s as usize])),
                            );
                            proc.wall_bytes((ranks.len() * std::mem::size_of::<(u32, T)>()) as u64);
                        });
                    }
                    moved += ranks.len();
                    slot.stash(buf);
                }
                proc.charge_ops(moved);
            })
        })
    }

    /// Gather compact-message segments along run-compressed routes into
    /// pooled buffers (one operation per moved value; the 2-per-segment
    /// header charge was paid at plan time). The route structure is fixed
    /// per plan, so refills find the header skeleton and the shaped flat
    /// value array in place and only walk the copy program.
    fn gather_segments<T: Wire + Default>(&self, proc: &mut Proc, a_local: &[T]) {
        proc.wall_span("pack.gather", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let mut moved = 0usize;
                for (k, &dst) in self.routes.slots.peers.iter().enumerate() {
                    let slots = self.routes.slots.row(k);
                    let (slot, mut msg) =
                        proc.pool_checkout::<CmsMessage<T>>(self.pool_key, dst as usize);
                    proc.wall_span("fill_segments", |proc| {
                        compact_message::ensure_shape(&mut msg, self.routes.runs(k), slots.len());
                        let prog = self.gather.row(k);
                        walk_phases::<T>(proc, |phase| {
                            gather_fill(prog, slots, a_local, &mut msg.vals, phase)
                        });
                    });
                    moved += slots.len();
                    slot.stash(msg);
                }
                proc.charge_ops(moved);
            })
        })
    }

    /// Decode pooled pair messages into `out` (Section 6.4.1: `2·E_a`),
    /// returning each buffer to its sender's slot via [`decode_pooled`].
    fn decode_pairs<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        layout: &DimLayout,
        recvs: &mut Vec<Packet>,
        out: &mut Vec<T>,
    ) {
        proc.wall_span("pack.decode", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let me = proc.id();
                prepare_out(out, layout.local_len(me));
                let placed = decode_pooled::<PairMsg<T>, _>(
                    proc,
                    self.pool_key,
                    self.a2a.sends_to(me),
                    recvs,
                    |_, _, buf| place_pairs(layout, me, &buf.pairs, out),
                );
                debug_assert_eq!(placed, out.len(), "pack decode must cover V exactly");
                proc.charge_ops(2 * placed);
                proc.wall_bytes((placed * std::mem::size_of::<(u32, T)>()) as u64);
            })
        })
    }

    /// Decode pooled segment messages into `out` (Section 6.4.2:
    /// `E_a + 2·Gr_i`), returning each buffer to its sender's slot via
    /// [`decode_pooled`].
    fn decode_segments<T: Wire + Default>(
        &self,
        proc: &mut Proc,
        layout: &DimLayout,
        recvs: &mut Vec<Packet>,
        out: &mut Vec<T>,
    ) {
        proc.wall_span("pack.decode", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let me = proc.id();
                prepare_out(out, layout.local_len(me));
                let mut placed = 0usize;
                let ops = decode_pooled::<CmsMessage<T>, _>(
                    proc,
                    self.pool_key,
                    self.a2a.sends_to(me),
                    recvs,
                    |proc, _, msg| {
                        placed += msg.value_count();
                        // Wall bytes count the values only: the 2-word
                        // segment headers are index work, not movement.
                        proc.wall_span("place_segments", |proc| {
                            proc.wall_bytes((msg.value_count() * std::mem::size_of::<T>()) as u64);
                            compact_message::place_segments(layout, me, msg, out)
                        })
                    },
                );
                debug_assert_eq!(placed, out.len(), "pack decode must cover V exactly");
                let _ = placed;
                proc.charge_ops(ops);
            })
        })
    }
}

/// Shape the decode output. `V`'s local slice is fully overwritten by the
/// decode — every result rank is routed to exactly one processor and every
/// processor's routes tile `0..Size` — so a right-sized buffer from a
/// previous execute is reused as-is and only a fresh (or wrongly sized)
/// one is zero-filled. Every decode path `debug_assert`s the coverage.
fn prepare_out<T: Default + Clone>(out: &mut Vec<T>, local_len: usize) {
    if out.len() != local_len {
        out.clear();
        out.resize(local_len, T::default());
    }
}

/// The shared pooled-decode loop: take the self-staged buffer (it never
/// crossed the wire), then every received packet's slot, run `place` over
/// each, and return every buffer to its sender's slot. `place` gets the
/// sending processor's id (this processor's own for the self slot) and
/// returns whatever count it wants accumulated — placed values for pair
/// decodes, model operations for segment decodes.
fn decode_pooled<B: Reusable, F>(
    proc: &mut Proc,
    pool_key: u64,
    self_staged: bool,
    recvs: &mut Vec<Packet>,
    mut place: F,
) -> usize
where
    F: FnMut(&mut Proc, usize, &B) -> usize,
{
    let me = proc.id();
    let mut acc = 0usize;
    if self_staged {
        let slot = proc.pool_current::<B>(pool_key, me);
        let buf = slot.take_staged();
        acc += place(proc, me, &buf);
        slot.put_back(buf);
    }
    for pkt in recvs.drain(..) {
        let src = pkt.src;
        let slot = pkt
            .data
            .downcast::<PoolSlot<B>>()
            .expect("pooled exchange delivers pool slots");
        let buf = slot.take_staged();
        acc += place(proc, src, &buf);
        slot.put_back(buf);
    }
    acc
}

/// Walk a lowered copy program: `walk` runs one phase of a `copyprog`
/// kernel and returns the elements it moved. The bulk ops run under the
/// `copy.contig` wall frame and the scalar ranges under `copy.scatter`, so
/// hotspot attribution sees the shift from indexed to bulk movement.
fn walk_phases<T>(proc: &mut Proc, mut walk: impl FnMut(Phase) -> usize) {
    for (frame, phase) in [
        ("copy.contig", Phase::Bulk),
        ("copy.scatter", Phase::Scatter),
    ] {
        proc.wall_span(frame, |proc| {
            let moved = walk(phase);
            proc.wall_bytes((moved * std::mem::size_of::<T>()) as u64);
        });
    }
}

/// Place one pair message's `(global rank, value)` entries into the local
/// slice of `V`; returns the number of values placed.
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
    pairs: &[(u32, T)],
    out: &mut [T],
) -> usize {
    let mut block = OwnerBlock::default();
    for &(r, v) in pairs {
        let r = r as usize;
        if block.misses(r, 1) {
            block.seek(layout, r);
            debug_assert_eq!(block.owner, me, "misrouted element");
        }
        out[block.local_lo + (r - block.lo)] = v;
    }
    pairs.len()
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
    schedule: A2aSchedule,
    size: usize,
    local_len: usize,
    v_local_len: usize,
    /// One row per reply-sender: local element slots awaiting its values.
    targets: PeerCsr<u32>,
    /// One row per requester: the local indices into my `V` slice to serve,
    /// in request order.
    serve: PeerCsr<u32>,
    /// Per `serve` row: its lowered copy program (the reply fill).
    serve_prog: CopyPrograms,
    /// Per `targets` row: its lowered copy program (the reply scatter).
    scatter_prog: CopyPrograms,
    /// What the field pass copies: sorted `(start, len)` stretches of local
    /// memory, everything but the wholly selected chunks ([`field_spans`]).
    field_spans: Vec<(u32, u32)>,
    reply_a2a: A2aPlan,
    /// Buffer-pool key for the reply-round send buffers (DESIGN.md §11).
    pool_key: u64,
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
            let Routes { slots, ranks } = routes;
            // Each owner's rank row moves out of the routes into its
            // request; only the slot rows outlive the round.
            let owners = slots.peers.iter().copied();
            let requests = match ranks {
                RankList::Explicit(all) => {
                    let rows = into_rows(all, &slots.offs).map(RankRequest::Explicit);
                    owners.zip(rows).collect()
                }
                RankList::Runs { offs, runs } => owners
                    .zip(into_rows(runs, &offs).map(RankRequest::Runs))
                    .collect(),
            };
            // The request round: identical wire traffic to the one-shot
            // path, paid once per plan instead of once per call.
            let incoming = proc.with_stage("unpack.request", |proc| {
                proc.with_category(Category::ManyToMany, |proc| {
                    let world = proc.world();
                    alltoallv_sparse(proc, &world, requests, opts.schedule)
                })
            });
            (slots, scatter_prog, incoming)
        };
        // Owner-side precompute: resolve each requested rank to a local
        // index into my slice of V (one operation per served rank; the
        // value fetch itself is charged at execute time), lowering each
        // requester's row as it is resolved.
        let (serve, serve_prog) = proc.with_category(Category::LocalComp, |proc| {
            let (mut serve, mut prog) = (PeerCsr::empty(), ProgramBuilder::default());
            let mut block = OwnerBlock::default();
            for (requester, req) in &incoming {
                serve.items.reserve(req.expanded_len());
                req.for_each_run(|base, n| {
                    if block.misses(base, n) {
                        block.seek(v_layout, base);
                    }
                    // A composer never lets a run cross a block of `V`.
                    assert!(
                        !block.misses(base, n) && block.owner == proc.id(),
                        "misrouted request"
                    );
                    let first = block.local_lo + (base - block.lo);
                    serve.items.extend((first..first + n).map(|l| l as u32));
                });
                prog.extend(&serve.items[*serve.offs.last().expect("never empty") as usize..]);
                prog.end_row();
                serve.peers.push(*requester);
                serve.offs.push(serve.items.len() as u32);
            }
            proc.charge_ops(serve.items.len());
            (serve, prog.finish())
        });
        // Reply directions are locally known: I reply to whoever asked,
        // and I await replies from whoever I asked.
        let reply_a2a =
            A2aPlan::from_peers(proc.nprocs(), serve.peers.clone(), targets.peers.clone());
        let plan = UnpackPlan {
            schedule: opts.schedule,
            size,
            local_len,
            v_local_len,
            targets,
            serve,
            serve_prog,
            scatter_prog,
            field_spans: field_spans(m_local),
            reply_a2a,
            pool_key: fresh_pool_key(),
        };
        proc.mem_charge(MemAccount::Plan, plan.mem_bytes());
        Ok(plan)
    })
}

impl UnpackPlan {
    /// Global number of selected mask elements (`Size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes retained by the plan's index structures (target and serve
    /// rows, lowered copy programs, field spans, reply peer lists); see
    /// [`PackPlan::mem_bytes`].
    fn mem_bytes(&self) -> u64 {
        let rows = self.targets.mem_bytes() + self.serve.mem_bytes();
        let progs = self.serve_prog.mem_bytes() + self.scatter_prog.mem_bytes();
        let spans = std::mem::size_of_val(&self.field_spans[..]) as u64;
        rows + progs + spans + self.reply_a2a.mem_bytes()
    }

    /// Give the plan back once it will not execute again; see
    /// [`PackPlan::retire`]. It is what one-shot [`crate::unpack`] does
    /// after its execute.
    pub fn retire(self, proc: &mut Proc) {
        proc.pool_retire(self.pool_key);
        proc.mem_release(MemAccount::Plan, self.mem_bytes());
    }

    /// Aggregate op breakdown of the plan's lowered serve + scatter
    /// programs; see [`PackPlan::copy_stats`].
    pub fn copy_stats(&self) -> CopyStats {
        let mut s = *self.serve_prog.stats();
        s.merge(self.scatter_prog.stats());
        s
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
    /// buffers come from the per-processor pool. Simulated accounting is
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
            // Serve: fill each requester's pooled reply buffer along the
            // precomputed copy program (one operation per value — the
            // index arithmetic was paid at plan time). Requesters with
            // nothing to serve get no buffer, matching the reply plan's
            // silent rounds.
            proc.wall_span("unpack.serve", |proc| {
                proc.with_category(Category::LocalComp, |proc| {
                    let mut ops = 0usize;
                    for (k, &requester) in self.serve.peers.iter().enumerate() {
                        let idx = self.serve.row(k);
                        let (slot, mut buf) =
                            proc.pool_checkout::<FlatMsg<T>>(self.pool_key, requester as usize);
                        if buf.vals.len() != idx.len() {
                            buf.vals.clear();
                            buf.vals.resize(idx.len(), T::default());
                        }
                        walk_phases::<T>(proc, |phase| {
                            let prog = self.serve_prog.row(k);
                            gather_fill(prog, idx, v_local, &mut buf.vals, phase)
                        });
                        ops += idx.len();
                        slot.stash(buf);
                    }
                    proc.charge_ops(ops);
                })
            });
            let mut recvs = proc.take_pkt_scratch();
            proc.with_stage("unpack.reply", |proc| {
                proc.with_category(Category::ManyToMany, |proc| {
                    alltoallv_pooled::<FlatMsg<T>>(
                        proc,
                        &self.reply_a2a,
                        self.schedule,
                        self.pool_key,
                        &mut recvs,
                    );
                })
            });
            // Scatter the replies into A at the recorded element slots
            // along the per-owner copy programs, returning each buffer to
            // its sender's slot via the shared pooled-decode loop.
            proc.wall_span("unpack.scatter", |proc| {
                proc.with_category(Category::LocalComp, |proc| {
                    let me = proc.id();
                    let ops = decode_pooled::<FlatMsg<T>, _>(
                        proc,
                        self.pool_key,
                        self.reply_a2a.sends_to(me),
                        &mut recvs,
                        |proc, src, buf| {
                            let k = self.targets.find(src).expect("a reply I asked for");
                            let idx = self.targets.row(k);
                            debug_assert_eq!(buf.vals.len(), idx.len(), "reply length mismatch");
                            walk_phases::<T>(proc, |phase| {
                                let prog = self.scatter_prog.row(k);
                                scatter_apply(prog, idx, &buf.vals, out, phase)
                            });
                            buf.vals.len()
                        },
                    );
                    proc.charge_ops(ops);
                })
            });
            proc.restore_pkt_scratch(recvs);
        });
        Ok(())
    }
}

/// The scheme's plan-time composer for PACK (Section 6 storage schemes).
fn pack_composer(opts: &PackOptions) -> Box<dyn Composer> {
    match opts.scheme {
        PackScheme::Simple => crate::pack::simple::composer(),
        PackScheme::CompactStorage => crate::pack::compact_storage::composer(opts.scan_method),
        PackScheme::CompactMessage => crate::pack::compact_message::composer(opts.scan_method),
    }
}

/// The scheme's plan-time composer for UNPACK.
fn unpack_composer(opts: &UnpackOptions) -> Box<dyn Composer> {
    match opts.scheme {
        UnpackScheme::Simple => crate::unpack::simple::composer(),
        UnpackScheme::CompactStorage => crate::unpack::compact_storage::composer(),
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
            for (progs, idx) in [
                (&pack.gather, &pack.routes.slots),
                (&unpack.scatter_prog, &unpack.targets),
            ] {
                for k in 0..idx.peers.len() {
                    let len = idx.row(k).len() as u32;
                    assert_eq!(progs.row(k), [CopyOp::Scatter { pos: 0, len }]);
                    rows += 1;
                }
            }
            let serve = unpack.serve_prog.stats();
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
                for (progs, idx) in [
                    (&pack.gather, &pack.routes.slots),
                    (&unpack.serve_prog, &unpack.serve),
                    (&unpack.scatter_prog, &unpack.targets),
                ] {
                    let before =
                        copyprog::tests::lower_rescanning_with(&idx.items, &idx.offs, [4, 4]);
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
            proptest::prop_assert_eq!(place_pairs(&layout, me, &pairs, &mut out), pairs.len());
            let mut want = vec![0; out.len()];
            for &(r, v) in &pairs {
                want[layout.local_of(r as usize)] = v;
            }
            proptest::prop_assert_eq!(out, want);
        }
    }
}
