//! The composition layer of the plan IR: one `Composer` abstraction that
//! turns a mask + ranking into value-independent *routes*, covering all
//! three PACK schemes and both UNPACK schemes.
//!
//! A route answers, per destination processor, two questions that the
//! Section 6 schemes answer in scheme-specific ways:
//!
//! * which **global ranks** of the result vector the destination covers
//!   (explicit per-element, or run-compressed `(base, len)` — the compact
//!   message idea), and
//! * which **local element slots** correspond to those ranks, in rank
//!   order (PACK gathers values *from* the slots; UNPACK scatters replies
//!   *into* them).
//!
//! Neither depends on array values, so routes are computed once at plan
//! time and replayed against fresh data on every execute. The two
//! [`Composer`] cases mirror the paper's storage trade-off:
//! [`Composer::Simple`] keeps per-element records from a single scan
//! (SSS), [`Composer::Compact`] keeps only the counter array `PS_c` and
//! rebuilds everything with a second scan (CSS/CMS). Per-scheme operation
//! charges are parameterized by [`ComposeCost`] so the plan+execute split
//! still sums to the exact Section 6.4 formulas.

use hpf_distarray::DimLayout;
use hpf_machine::{Category, Proc, Words};

use crate::plan::copyprog::{CopyPrograms, ProgramBuilder};
use crate::ranking::Ranking;
use crate::schemes::ScanMethod;

/// Peer-indexed compressed rows: elements `offs[k]..offs[k + 1]` of a flat
/// list whose copy programs keep what of it an execute reads (DESIGN.md
/// §16) belong to `peers[k]`. Only populated peers have a row, so the
/// structure costs `O(peers)` however many processors the machine has.
/// `peers` is ascending — the order every consumer relies on: the exchange
/// plans take it as their sorted peer list, and a received packet's row is
/// found by binary search over it ([`PeerCsr::find`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PeerCsr {
    /// Populated peers (processor ids), ascending.
    pub peers: Vec<u32>,
    /// Row boundaries; `peers.len() + 1` entries.
    pub offs: Vec<u32>,
}

impl PeerCsr {
    /// No peers.
    pub(crate) fn empty() -> Self {
        PeerCsr {
            peers: Vec::new(),
            offs: vec![0],
        }
    }

    /// The `k`-th populated peer's number of elements.
    pub(crate) fn len(&self, k: usize) -> usize {
        (self.offs[k + 1] - self.offs[k]) as usize
    }

    /// Elements over all rows.
    pub(crate) fn total(&self) -> usize {
        *self.offs.last().expect("never empty") as usize
    }

    /// Row index of processor `peer`, if it is populated.
    pub(crate) fn find(&self, peer: usize) -> Option<usize> {
        self.peers.binary_search(&(peer as u32)).ok()
    }

    /// Bytes retained: peer ids and offsets.
    pub(crate) fn mem_bytes(&self) -> u64 {
        (4 * (self.peers.len() + self.offs.len())) as u64
    }
}

/// Rank structure of a plan's routes, flat across destinations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RankList {
    /// One global rank per slot, aligned with the slot rows (SSS-style pair
    /// messages / requests).
    Explicit(Vec<u32>),
    /// Run-compressed consecutive ranks (CMS segments / CSS requests):
    /// `runs[offs[k]..offs[k + 1]]` are destination `k`'s `(base, len)` runs.
    Runs {
        /// Row boundaries into `runs`, one row per populated destination.
        offs: Vec<u32>,
        /// All `(base rank, length)` runs in destination order.
        runs: Vec<(u32, u32)>,
    },
    /// No ranks: rows whose receiver knows them because it asked for them
    /// (UNPACK's serve rows, whose replies carry values only).
    Implicit,
}

/// One processor's share of a communication plan: per populated
/// destination, its row of local element slots (one per rank, rank order;
/// the slots are the row's copy program's) and the global ranks they cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Routes {
    /// Rows of local element indices by destination.
    pub slots: PeerCsr,
    /// Global ranks covered, explicit or run-compressed.
    pub ranks: RankList,
}

impl Routes {
    /// Destination `k`'s explicit ranks, aligned with its slot row.
    pub(crate) fn explicit(&self, k: usize) -> &[u32] {
        let RankList::Explicit(ranks) = &self.ranks else {
            unreachable!("pair schemes compose explicit ranks")
        };
        &ranks[self.slots.offs[k] as usize..self.slots.offs[k + 1] as usize]
    }

    /// Destination `k`'s `(base, len)` runs.
    pub(crate) fn runs(&self, k: usize) -> &[(u32, u32)] {
        let RankList::Runs { offs, runs } = &self.ranks else {
            unreachable!("compact message composes runs")
        };
        &runs[offs[k] as usize..offs[k + 1] as usize]
    }

    /// Row `k`'s ranks as `(base, n)` runs in row order; an explicit rank is
    /// a run of one.
    pub(crate) fn rank_runs(&self, k: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (explicit, runs) = match &self.ranks {
            RankList::Explicit(_) => (self.explicit(k), &[][..]),
            RankList::Runs { .. } => (&[][..], self.runs(k)),
            RankList::Implicit => (&[][..], &[][..]),
        };
        let explicit = explicit.iter().map(|&r| (r as usize, 1));
        explicit.chain(runs.iter().map(|&(r, n)| (r as usize, n as usize)))
    }

    /// Words row `k`'s rank part occupies on the wire (Section 6.4): one
    /// per element beside its value, two per run (the segment header), or
    /// none.
    pub(crate) fn rank_words(&self, k: usize) -> Words {
        match &self.ranks {
            RankList::Explicit(_) => self.slots.len(k),
            RankList::Runs { offs, .. } => 2 * (offs[k + 1] - offs[k]) as usize,
            RankList::Implicit => 0,
        }
    }

    /// Bytes retained by the slot rows and the rank structure.
    pub(crate) fn mem_bytes(&self) -> u64 {
        let ranks = match &self.ranks {
            RankList::Explicit(v) => 4 * v.len(),
            RankList::Runs { offs, runs } => 4 * offs.len() + 8 * runs.len(),
            RankList::Implicit => 0,
        };
        self.slots.mem_bytes() + ranks as u64
    }
}

/// The result-layout block a stream of ranks is in. Ranks arrive in local
/// order — under the default block layout, through at most `P` blocks per
/// processor — so a rank costs two compares, and [`DimLayout::owner`]'s and
/// [`DimLayout::local_of`]'s divisions only when it leaves the block.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OwnerBlock {
    /// The block is ranks `lo..hi`; empty until the first [`Self::seek`].
    pub lo: usize,
    pub hi: usize,
    /// Who owns the block, and the local index of `lo` there.
    pub owner: usize,
    pub local_lo: usize,
}

impl OwnerBlock {
    /// Whether any of the ranks `r0..r0 + n` lies outside the block — never,
    /// if `n` is 0. One sign test: each term's top bit says "before `lo`",
    /// "past `hi`", "`n > 0`" (ranks fit an `i32`). Written as conditions it
    /// compiles to a branch on `n > 0` first, which on a random mask and
    /// narrow slices is a coin toss.
    #[inline]
    pub(crate) fn misses(&self, r0: usize, n: usize) -> bool {
        let outside = r0.wrapping_sub(self.lo) | self.hi.wrapping_sub(r0 + n);
        ((outside & !n.wrapping_sub(1)) as isize) < 0
    }

    /// Move to the block of rank `r`.
    pub(crate) fn seek(&mut self, layout: &DimLayout, r: usize) {
        let (w, p, b) = (layout.w(), layout.p(), r / layout.w());
        (self.lo, self.hi) = (b * w, (b + 1) * w);
        (self.owner, self.local_lo) = (b % p, b / p * w);
    }
}

/// Builds [`Routes`] and the copy programs over their slot rows in one
/// forward pass, with no per-processor table. A compose loop stores slots,
/// explicit ranks and whole-slice runs straight into the flat arrays (sized
/// up front with a spare entry: the store is unconditional, only the fill
/// position data-dependent) and calls [`Self::leave_block`] for ranks that
/// leave the [`OwnerBlock`]. Ranks arrive in rank order, so under the default
/// block result layout owners ascend, the arrival order *is* the CSR order
/// and each row is lowered as it closes; a block-cyclic `W'` revisits
/// owners, and [`Self::finish`] regroups the stretches.
#[derive(Default)]
pub(crate) struct RoutesBuilder {
    emit: RankEmit,
    pub block: OwnerBlock,
    /// Owner of each maximal same-owner stretch, in arrival order.
    owners: Vec<u32>,
    /// Where each stretch starts in `slots` / `runs`; [`Self::finish`]
    /// appends the ends, making them the CSR's row boundaries.
    slot_offs: Vec<u32>,
    run_offs: Vec<u32>,
    pub slots: Vec<u32>,
    pub ranks: Vec<u32>,
    pub runs: Vec<(u32, u32)>,
    /// Fill positions of `slots` / `ranks` (set when the loop is done) and
    /// of `runs`.
    pub filled: usize,
    pub n_runs: usize,
    /// Runs beyond one per routed slice: those a block boundary split off.
    pub splits: usize,
    prog: ProgramBuilder,
    /// Slots before this are lowered.
    lowered: usize,
}

impl RoutesBuilder {
    /// Room for `elems` routed elements in at most `runs` slices.
    pub(crate) fn new(emit: RankEmit, elems: usize, runs: usize) -> Self {
        let spare = |on: bool, n: usize| if on { n + 1 } else { 0 };
        RoutesBuilder {
            emit,
            slots: vec![0; elems + 1],
            ranks: vec![0; spare(emit == RankEmit::Explicit, elems)],
            runs: vec![(0, 0); spare(emit == RankEmit::Runs, runs)],
            prog: ProgramBuilder::with_capacity(elems),
            ..RoutesBuilder::default()
        }
    }

    /// Ranks `r0..r0 + n`, whose slots the loop stored from position `at` on
    /// (and whose whole run it stored last), are not all in `block`: split
    /// them at `layout`'s block boundaries, opening a row wherever the owner
    /// changes.
    #[cold]
    pub(crate) fn leave_block(&mut self, layout: &DimLayout, r0: usize, n: usize, at: usize) {
        let runs = self.emit == RankEmit::Runs;
        self.n_runs -= usize::from(runs); // the pieces replace the whole
        let (mut r, end) = (r0, r0 + n);
        while r < end {
            if self.block.misses(r, 1) {
                self.block.seek(layout, r);
                self.open_row(at + (r - r0));
            }
            let len = self.block.hi.min(end) - r;
            if runs {
                if r > r0 {
                    self.runs.push((0, 0)); // keep the spare entry
                }
                self.runs[self.n_runs] = (r as u32, len as u32);
                self.n_runs += 1;
            }
            self.splits += usize::from(r > r0);
            r += len;
        }
    }

    /// Start a stretch for the block's owner at slot position `at` unless the
    /// current one is already theirs, lowering the row it closes.
    fn open_row(&mut self, at: usize) {
        let owner = self.block.owner as u32;
        if self.owners.last() != Some(&owner) {
            if !self.owners.is_empty() {
                self.lower_to(at);
            }
            self.owners.push(owner);
            self.slot_offs.push(at as u32);
            self.run_offs.push(self.n_runs as u32);
        }
    }

    /// Lower the open row's slots up to position `end` and close it.
    fn lower_to(&mut self, end: usize) {
        self.prog.row(&self.slots[self.lowered..end]);
        self.lowered = end;
    }

    /// Seal the rows: the routes and the copy programs of their slot rows.
    /// The slot vector goes with the builder: the programs keep only the
    /// walks of their `Scatter` ranges.
    pub(crate) fn finish(mut self) -> (Routes, CopyPrograms) {
        self.slots.truncate(self.filled);
        self.ranks.truncate(self.filled);
        self.runs.truncate(self.n_runs);
        if !self.owners.is_empty() {
            self.lower_to(self.filled);
        }
        self.slot_offs.push(self.filled as u32);
        self.run_offs.push(self.n_runs as u32);
        if !self.owners.windows(2).all(|w| w[0] < w[1]) {
            return self.regrouped().finish();
        }
        // Debug builds lower the finished rows again, which also checks
        // every program against its index list.
        #[cfg(debug_assertions)]
        let relowered = CopyPrograms::lower(&self.slots, &self.slot_offs);
        let prog = self.prog.finish();
        #[cfg(debug_assertions)]
        assert_eq!(prog, relowered);
        let routes = Routes {
            slots: PeerCsr {
                peers: self.owners,
                offs: self.slot_offs,
            },
            ranks: match self.emit {
                RankEmit::Explicit => RankList::Explicit(self.ranks),
                RankEmit::Runs => RankList::Runs {
                    offs: self.run_offs,
                    runs: self.runs,
                },
            },
        };
        (routes, prog)
    }

    /// The sealed stretches fed again, stably sorted by owner (each owner
    /// keeps rank order): every owner's stretches merge into one row.
    fn regrouped(&self) -> RoutesBuilder {
        let mut order: Vec<usize> = (0..self.owners.len()).collect();
        order.sort_by_key(|&i| self.owners[i]);
        let mut out = RoutesBuilder {
            emit: self.emit,
            ..RoutesBuilder::default()
        };
        for i in order {
            out.block.owner = self.owners[i] as usize;
            out.open_row(out.slots.len());
            let s = self.slot_offs[i] as usize..self.slot_offs[i + 1] as usize;
            out.slots.extend_from_slice(&self.slots[s.clone()]);
            if self.emit == RankEmit::Explicit {
                out.ranks.extend_from_slice(&self.ranks[s]);
            }
            let r = self.run_offs[i] as usize..self.run_offs[i + 1] as usize;
            out.runs.extend_from_slice(&self.runs[r]);
            out.n_runs = out.runs.len();
        }
        out.filled = out.slots.len();
        out
    }
}

/// Which rank structure a compact composition emits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum RankEmit {
    /// Expand runs to per-element ranks (pack CSS keeps pair messages).
    #[default]
    Explicit,
    /// Keep `(base, len)` runs (pack CMS segments, unpack CSS requests).
    Runs,
}

/// Per-route composition charges, scheme-specific (Section 6.4): each
/// destination run costs `per_run` operations plus `per_elem` per element
/// it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ComposeCost {
    /// Operations per destination run (`Gs` multiplier).
    pub per_run: usize,
    /// Operations per routed element (`E` multiplier).
    pub per_elem: usize,
}

/// A storage scheme's plan-time half: the initial scan (producing the
/// slice counts the ranking stage consumes) and the composition of
/// value-independent routes against the final ranking.
pub(crate) enum Composer {
    /// Simple storage: per-element `(local, slice, initial rank)` records
    /// from a single scan (`L + 4E` operations), replayed at `per_elem`
    /// operations each during composition. Always emits explicit ranks.
    /// `counts` are the slice counts the scan leaves for the ranking.
    Simple {
        per_elem: usize,
        records: Vec<(u32, u32, u32)>,
        counts: Vec<i32>,
    },
    /// Compact storage: only the counter array `PS_c` survives the initial
    /// scan (`L + C` operations); composition walks the slices (`C`
    /// checks), rebuilds the consecutive rank runs from `PS_c`/`PS_f`, and
    /// recovers the element slots with a second scan (`S` operations under
    /// the configured [`ScanMethod`]).
    Compact {
        emit: RankEmit,
        cost: ComposeCost,
        scan_method: ScanMethod,
        ps_c: Vec<i32>,
    },
}

impl Composer {
    /// Simple storage, replayed at `per_elem` operations per element.
    pub(crate) fn simple(per_elem: usize) -> Self {
        let (records, counts) = (Vec::new(), Vec::new());
        Composer::Simple {
            per_elem,
            records,
            counts,
        }
    }

    /// Compact storage emitting `emit`, charged `cost`, second scan by
    /// `scan_method`.
    pub(crate) fn compact(emit: RankEmit, cost: ComposeCost, scan_method: ScanMethod) -> Self {
        let ps_c = Vec::new();
        Composer::Compact {
            emit,
            cost,
            scan_method,
            ps_c,
        }
    }

    /// Initial scan of the local mask: the slice counts the ranking reads,
    /// kept in `self` with the scheme's storage (compact storage's `PS_c`).
    pub(crate) fn scan(&mut self, proc: &mut Proc, m_local: &[bool], w0: usize) -> &[i32] {
        match self {
            Composer::Simple {
                records, counts, ..
            } => {
                proc.wall_span("scan.simple", |proc| {
                    proc.with_category(Category::LocalComp, |proc| {
                        *counts = vec![0i32; m_local.len() / w0.max(1)];
                        for (l, &selected) in m_local.iter().enumerate() {
                            if selected {
                                let k = l / w0;
                                records.push((l as u32, k as u32, counts[k] as u32));
                                counts[k] += 1;
                            }
                        }
                        proc.charge_ops(m_local.len() + 4 * records.len());
                    })
                });
                counts
            }
            Composer::Compact { ps_c, .. } => {
                proc.wall_span("scan.compact", |proc| {
                    proc.with_category(Category::LocalComp, |proc| {
                        *ps_c = crate::ranking::slice_counts(m_local, w0);
                        proc.charge_ops(m_local.len() + ps_c.len());
                    })
                });
                ps_c
            }
        }
    }

    /// Compose the routes — one row per populated destination — from the
    /// retained storage and the final base ranks. `layout` is the
    /// result-vector layout whose owners the routes target. The caller
    /// seals the builder ([`RoutesBuilder::finish`]).
    pub(crate) fn compose(
        &mut self,
        proc: &mut Proc,
        ranking: &Ranking,
        m_local: &[bool],
        w0: usize,
        layout: &DimLayout,
    ) -> RoutesBuilder {
        match self {
            Composer::Simple {
                per_elem, records, ..
            } => proc.wall_span("compose.simple", |proc| {
                proc.with_category(Category::LocalComp, |proc| {
                    let elems = records.len();
                    let mut routes = RoutesBuilder::new(RankEmit::Explicit, elems, 0);
                    for (at, &(local, slice, init)) in records.iter().enumerate() {
                        let rank = init as usize + ranking.ps_f[slice as usize] as usize;
                        routes.slots[at] = local;
                        routes.ranks[at] = rank as u32;
                        if routes.block.misses(rank, 1) {
                            routes.leave_block(layout, rank, 1, at);
                        }
                    }
                    routes.filled = elems;
                    proc.charge_ops(*per_elem * elems);
                    proc.wall_bytes(elems as u64 * 8);
                    routes
                })
            }),
            Composer::Compact {
                emit,
                cost,
                scan_method,
                ps_c,
            } => proc.wall_span("compose.compact", |proc| {
                proc.with_category(Category::LocalComp, |proc| {
                    let (elems, nonempty) = ps_c.iter().fold((0, 0), |(e, k), &n| {
                        (e + n as usize, k + usize::from(n != 0))
                    });
                    let mut routes = RoutesBuilder::new(*emit, elems, nonempty);
                    let explicit = *emit == RankEmit::Explicit;
                    // Second scan (Section 6.1): until-collected stops after
                    // a slice's last selected element, whole-slice always
                    // costs the slice width; empty slices are not scanned.
                    let until = *scan_method == ScanMethod::UntilCollected;
                    let mut scanned = if until { 0 } else { w0 * nonempty };
                    let mut at = 0usize;
                    for (k, slice) in m_local.chunks_exact(w0).enumerate() {
                        let (first, r0) = (at, ranking.ps_f[k] as usize);
                        let mut last = 0usize;
                        for (i, &selected) in slice.iter().enumerate() {
                            routes.slots[at] = (k * w0 + i) as u32;
                            if explicit {
                                routes.ranks[at] = (r0 + (at - first)) as u32;
                            }
                            at += usize::from(selected);
                            last = if selected { i + 1 } else { last };
                        }
                        let n = at - first;
                        debug_assert_eq!(n, ps_c[k] as usize, "slice count disagrees with mask");
                        scanned += if until { last } else { 0 };
                        if !explicit {
                            routes.runs[routes.n_runs] = (r0 as u32, n as u32);
                            routes.n_runs += usize::from(n != 0);
                        }
                        if routes.block.misses(r0, n) {
                            routes.leave_block(layout, r0, n, first);
                        }
                    }
                    routes.filled = at;
                    // One check per slice, the second scan, and per
                    // destination run `per_run` plus `per_elem` per element
                    // it covers.
                    let runs = nonempty + routes.splits;
                    let ops = ps_c.len() + scanned + cost.per_run * runs + cost.per_elem * elems;
                    proc.charge_ops(ops);
                    proc.wall_bytes(ops as u64 * 4);
                    routes
                })
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use hpf_machine::{CostModel, Machine, ProcGrid};

    use super::*;

    /// The slice-by-slice composition the one-pass composers replaced, kept
    /// as their oracle: `dest_runs` and `collect_slice_slots` as they were,
    /// an owner lookup per run, and a per-owner table where the builder
    /// streams. Returns the routes, the programs of their slot rows (lowered
    /// from the slot list) and the operations charged.
    fn compose_by_slice(
        (emit, cost, method): (RankEmit, ComposeCost, ScanMethod),
        (ps_c, ps_f): (&[i32], &[i32]),
        m_local: &[bool],
        w0: usize,
        layout: &DimLayout,
    ) -> (Routes, CopyPrograms, usize) {
        /// One owner's slots, explicit ranks and runs.
        type Row = (Vec<u32>, Vec<u32>, Vec<(u32, u32)>);
        let mut rows: BTreeMap<u32, Row> = BTreeMap::new();
        let mut ops = ps_c.len(); // one check per slice
        for (k, &n) in ps_c.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let mut slots = Vec::new();
            let slice = &m_local[k * w0..(k + 1) * w0];
            ops += collect_slice_slots(slice, k * w0, n as usize, method, &mut slots);
            let mut taken = 0usize;
            for (start, len) in dest_runs(ps_f[k] as usize, n as usize, layout) {
                let row = rows.entry(layout.owner(start) as u32).or_default();
                row.0.extend_from_slice(&slots[taken..taken + len]);
                row.1.extend((start..start + len).map(|r| r as u32));
                row.2.push((start as u32, len as u32));
                taken += len;
                ops += cost.per_run + cost.per_elem * len;
            }
        }
        let (mut slots, mut items) = (PeerCsr::empty(), Vec::new());
        let (mut ranks, mut run_offs, mut runs) = (Vec::new(), vec![0], Vec::new());
        for (owner, (s, r, g)) in rows {
            slots.peers.push(owner);
            items.extend(s);
            slots.offs.push(items.len() as u32);
            ranks.extend(r);
            runs.extend(g);
            run_offs.push(runs.len() as u32);
        }
        let ranks = match emit {
            RankEmit::Explicit => RankList::Explicit(ranks),
            RankEmit::Runs => RankList::Runs {
                offs: run_offs,
                runs,
            },
        };
        let prog = CopyPrograms::lower(&items, &slots.offs);
        (Routes { slots, ranks }, prog, ops)
    }

    /// Split the consecutive ranks `r0 .. r0+n` into maximal runs with a
    /// single destination processor under `layout` (runs break at multiples
    /// of `W'`). Yields `(start_rank, len)` pairs.
    fn dest_runs(
        r0: usize,
        n: usize,
        layout: &DimLayout,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let w = layout.w();
        let mut r = r0;
        let end = r0 + n;
        std::iter::from_fn(move || {
            if r >= end {
                return None;
            }
            let len = (w - r % w).min(end - r);
            let out = (r, len);
            r += len;
            Some(out)
        })
    }

    /// Collect the local indices of the `n` selected elements of one slice
    /// (which starts at local index `base`), using the requested second-scan
    /// method (Section 6.1). Returns the number of elementary operations the
    /// scan performed: until-collected stops after the last selected element,
    /// whole-slice always costs the slice width.
    fn collect_slice_slots(
        m_slice: &[bool],
        base: usize,
        n: usize,
        method: ScanMethod,
        out: &mut Vec<u32>,
    ) -> usize {
        match method {
            ScanMethod::UntilCollected => {
                let mut scanned = 0usize;
                for (i, &b) in m_slice.iter().enumerate() {
                    if b {
                        out.push((base + i) as u32);
                        if out.len() == n {
                            scanned = i + 1;
                            break;
                        }
                    }
                }
                assert_eq!(out.len(), n, "slice count disagrees with mask");
                scanned
            }
            ScanMethod::WholeSlice => {
                for (i, &b) in m_slice.iter().enumerate() {
                    if b {
                        out.push((base + i) as u32);
                    }
                }
                m_slice.len()
            }
        }
    }

    /// Run `f` on the one processor of a one-processor machine; returns its
    /// result and the operations it charged.
    fn on_a_proc<R: Send>(f: impl Fn(&mut Proc) -> R + Sync) -> (R, u64) {
        let machine = Machine::new(ProcGrid::line(1), CostModel::cm5());
        let mut out = machine.run(|proc| {
            let r = f(proc);
            (r, proc.clock_ref().report().ops)
        });
        out.results.pop().unwrap()
    }

    /// One processor's view of a ranked mask: slices of `w0`, the base rank
    /// of each (`gaps[k]` ranks of other processors precede slice `k`), and
    /// a result layout over `p` processors — block when `w_prime` is `None`.
    fn ranked(
        mask: &[bool],
        gaps: &[usize],
        w0: usize,
        p: usize,
        w_prime: Option<usize>,
    ) -> (Vec<bool>, Ranking, DimLayout) {
        let m_local = mask[..mask.len() / w0 * w0].to_vec();
        let (mut ps_f, mut size) = (Vec::new(), 0usize);
        for (k, slice) in m_local.chunks_exact(w0).enumerate() {
            size += gaps[k % gaps.len()];
            ps_f.push(size as i32);
            size += slice.iter().filter(|&&b| b).count();
        }
        let size = size.max(1);
        let w = w_prime.unwrap_or(size.div_ceil(p));
        let layout = DimLayout::new_general(size, p, w).unwrap();
        (m_local, Ranking { ps_f, size }, layout)
    }

    #[test]
    fn dest_runs_split_at_block_boundaries() {
        let layout = DimLayout::new_general(20, 4, 5).unwrap();
        // ranks 3..12 with W'=5: runs (3,2), (5,5), (10,2).
        let runs: Vec<_> = dest_runs(3, 9, &layout).collect();
        assert_eq!(runs, vec![(3, 2), (5, 5), (10, 2)]);
        assert_eq!(dest_runs(0, 0, &layout).count(), 0);
    }

    #[test]
    fn slot_scan_methods_agree_on_slots_but_not_cost() {
        let m = [false, true, false, true, false, false];
        let mut s1 = Vec::new();
        let ops1 = collect_slice_slots(&m, 12, 2, ScanMethod::UntilCollected, &mut s1);
        let mut s2 = Vec::new();
        let ops2 = collect_slice_slots(&m, 12, 2, ScanMethod::WholeSlice, &mut s2);
        assert_eq!(s1, vec![13, 15]);
        assert_eq!(s1, s2);
        assert_eq!(ops1, 4); // stops after the last selected element
        assert_eq!(ops2, 6); // scans the whole slice
    }

    /// Shapes of the CSR the builder emits: no peer at all, one peer, every
    /// peer — and owners revisited out of order (a block-cyclic `W'`), which
    /// must come out grouped by ascending owner with rank order kept.
    #[test]
    fn routes_builder_shapes() {
        /// Route `(first rank, slots)` stretches one after the other, the
        /// way a compose loop does; the routes, and each row's slots.
        fn build(
            emit: RankEmit,
            layout: &DimLayout,
            stretches: &[(usize, &[u32])],
        ) -> (Routes, Vec<Vec<u32>>) {
            let elems = stretches.iter().map(|s| s.1.len()).sum();
            let mut b = RoutesBuilder::new(emit, elems, stretches.len());
            for &(rank, slots) in stretches {
                let at = b.filled;
                b.slots[at..at + slots.len()].copy_from_slice(slots);
                if emit == RankEmit::Explicit {
                    let ranks = (rank..rank + slots.len()).map(|r| r as u32);
                    b.ranks.splice(at..at + slots.len(), ranks);
                } else {
                    b.runs[b.n_runs] = (rank as u32, slots.len() as u32);
                    b.n_runs += 1;
                }
                if b.block.misses(rank, slots.len()) {
                    b.leave_block(layout, rank, slots.len(), at);
                }
                b.filled += slots.len();
            }
            let (routes, prog) = b.finish();
            let rows = (0..routes.slots.peers.len())
                .map(|k| prog.indices(k))
                .collect();
            (routes, rows)
        }
        for emit in [RankEmit::Explicit, RankEmit::Runs] {
            let block = DimLayout::new_general(64, 8, 8).unwrap();
            let (empty, _) = build(emit, &block, &[]);
            assert!(empty.slots.peers.is_empty());
            assert_eq!(empty.slots.offs, [0]);
            assert_eq!(empty.slots.find(0), None);

            // One peer, fed element by element: the stretches coalesce.
            let (one, rows) = build(emit, &block, &[(56, &[3]), (57, &[5]), (58, &[9])]);
            assert_eq!(
                (&one.slots.peers[..], &one.slots.offs[..]),
                (&[7][..], &[0, 3][..])
            );
            assert_eq!(rows, [[3, 5, 9]]);
            assert_eq!(one.slots.find(7), Some(0));
            assert_eq!(one.slots.find(6), None);
            match emit {
                RankEmit::Explicit => assert_eq!(one.explicit(0), [56, 57, 58]),
                RankEmit::Runs => assert_eq!(one.runs(0), [(56, 1), (57, 1), (58, 1)]),
            }

            // Every peer of four, two slots each, owners ascending; the
            // last stretch starts in owner 2's block and ends in owner 3's.
            let pairs = DimLayout::new_general(8, 4, 2).unwrap();
            let (all, rows) = build(
                emit,
                &pairs,
                &[(0, &[0, 1]), (2, &[10, 11]), (4, &[20]), (5, &[21, 30, 31])],
            );
            assert_eq!(all.slots.peers, [0, 1, 2, 3]);
            assert_eq!(all.slots.offs, [0, 2, 4, 6, 8]);
            assert_eq!(rows[2], [20, 21]);
            if emit == RankEmit::Runs {
                assert_eq!(all.runs(2), [(4, 1), (5, 1)]);
                assert_eq!(all.runs(3), [(6, 2)]);
            }

            // Owners 1, 0, 1, 0 (cyclic result blocks): regrouped.
            let cyclic = DimLayout::new_general(10, 2, 2).unwrap();
            let (cyc, rows) = build(
                emit,
                &cyclic,
                &[
                    (2, &[100, 110]),
                    (4, &[101, 111]),
                    (6, &[102, 112]),
                    (8, &[103, 113]),
                ],
            );
            assert_eq!(cyc.slots.peers, [0, 1]);
            assert_eq!(cyc.slots.offs, [0, 4, 8]);
            assert_eq!(rows, [[101, 111, 103, 113], [100, 110, 102, 112]]);
            match emit {
                RankEmit::Explicit => assert_eq!(cyc.explicit(1), [2, 3, 6, 7]),
                RankEmit::Runs => assert_eq!(cyc.runs(0), [(4, 2), (8, 2)]),
            }
            let ranks = match emit {
                RankEmit::Explicit => 4 * 8,
                RankEmit::Runs => 4 * 3 + 8 * 4,
            };
            assert_eq!(cyc.mem_bytes(), 4 * (2 + 3) + ranks);
        }
    }

    proptest::proptest! {
        /// The one-pass compact composition equals the slice-by-slice one —
        /// identical routes, identical operation charge — for every slice
        /// width, scan method and rank structure, on block result layouts
        /// and on block-cyclic ones small enough that owners are revisited
        /// (so `regroup` runs); and its streamed programs are the programs
        /// of the finished slot rows.
        #[test]
        fn compact_compose_matches_the_slice_by_slice_oracle(
            mask in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 0..400),
            gaps in proptest::collection::vec(0usize..7, 1..9),
            w0 in proptest::sample::select(vec![1usize, 2, 3, 64]),
            p in 1usize..6,
            w_prime in proptest::sample::select(vec![None, Some(1usize), Some(2), Some(5), Some(40)]),
            whole in proptest::arbitrary::any::<bool>(),
            explicit in proptest::arbitrary::any::<bool>(),
        ) {
            let (m_local, ranking, layout) = ranked(&mask, &gaps, w0, p, w_prime);
            let emit = if explicit { RankEmit::Explicit } else { RankEmit::Runs };
            let method = if whole { ScanMethod::WholeSlice } else { ScanMethod::UntilCollected };
            let cost = ComposeCost { per_run: 2, per_elem: 3 };
            let ((counts, routes, prog), ops) = on_a_proc(|proc| {
                let mut composer = Composer::compact(emit, cost, method);
                let counts = composer.scan(proc, &m_local, w0).to_vec();
                proc.clock().reset();
                let (routes, prog) = composer.compose(proc, &ranking, &m_local, w0, &layout).finish();
                (counts, routes, prog)
            });
            let (want, want_prog, want_ops) =
                compose_by_slice((emit, cost, method), (&counts, &ranking.ps_f), &m_local, w0, &layout);
            proptest::prop_assert_eq!(&routes, &want);
            proptest::prop_assert_eq!(ops, want_ops as u64);
            proptest::prop_assert_eq!(prog, want_prog);
        }

        /// The simple composition with its carried owner block equals a
        /// `layout.owner(rank)` per element.
        #[test]
        fn simple_compose_matches_the_per_element_oracle(
            mask in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 0..400),
            gaps in proptest::collection::vec(0usize..7, 1..9),
            w0 in proptest::sample::select(vec![1usize, 2, 3, 64]),
            p in 1usize..6,
            w_prime in proptest::sample::select(vec![None, Some(1usize), Some(2), Some(5), Some(40)]),
        ) {
            let (m_local, ranking, layout) = ranked(&mask, &gaps, w0, p, w_prime);
            let ((counts, routes, prog), ops) = on_a_proc(|proc| {
                let mut composer = Composer::simple(2);
                let counts = composer.scan(proc, &m_local, w0).to_vec();
                proc.clock().reset();
                let (routes, prog) = composer.compose(proc, &ranking, &m_local, w0, &layout).finish();
                (counts, routes, prog)
            });
            // Per element, the compact oracle's runs of one are the simple
            // scheme's records; it charges 1 + w0 per non-empty slice on top.
            let cost = ComposeCost { per_run: 0, per_elem: 2 };
            let (want, want_prog, want_ops) = compose_by_slice(
                (RankEmit::Explicit, cost, ScanMethod::WholeSlice),
                (&counts, &ranking.ps_f),
                &m_local,
                w0,
                &layout,
            );
            let scans = counts.len() + w0 * counts.iter().filter(|&&n| n != 0).count();
            proptest::prop_assert_eq!(&routes, &want);
            proptest::prop_assert_eq!(ops, (want_ops - scans) as u64);
            proptest::prop_assert_eq!(prog, want_prog);
        }
    }
}
