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
//! composer implementations mirror the paper's storage trade-off:
//! [`SimpleComposer`] keeps per-element records from a single scan
//! (SSS), [`CompactComposer`] keeps only the counter array `PS_c` and
//! rebuilds everything with a second scan (CSS/CMS). Per-scheme operation
//! charges are parameterized by [`ComposeCost`] so the plan+execute split
//! still sums to the exact Section 6.4 formulas.

use hpf_distarray::DimLayout;
use hpf_machine::{Category, Proc};

use crate::pack::dest_runs;
use crate::ranking::Ranking;
use crate::schemes::ScanMethod;

/// Peer-indexed compressed rows: `items[offs[k]..offs[k + 1]]` belongs to
/// `peers[k]`. Only populated peers have a row, so the structure costs
/// `O(peers + items)` however many processors the machine has. `peers` is
/// ascending — the order every consumer relies on: the exchange plans take
/// it as their sorted peer list, and a received packet's row is found by
/// binary search over it ([`PeerCsr::find`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PeerCsr<T> {
    /// Populated peers (processor ids), ascending.
    pub peers: Vec<u32>,
    /// Row boundaries into `items`; `peers.len() + 1` entries.
    pub offs: Vec<u32>,
    /// All rows, concatenated in peer order.
    pub items: Vec<T>,
}

impl<T> PeerCsr<T> {
    /// No peers, no items.
    pub(crate) fn empty() -> Self {
        PeerCsr {
            peers: Vec::new(),
            offs: vec![0],
            items: Vec::new(),
        }
    }

    /// The `k`-th populated peer's items.
    pub(crate) fn row(&self, k: usize) -> &[T] {
        &self.items[self.offs[k] as usize..self.offs[k + 1] as usize]
    }

    /// Row index of processor `peer`, if it is populated.
    pub(crate) fn find(&self, peer: usize) -> Option<usize> {
        self.peers.binary_search(&(peer as u32)).ok()
    }

    /// Bytes retained: peer ids, offsets and items.
    pub(crate) fn mem_bytes(&self) -> u64 {
        (4 * (self.peers.len() + self.offs.len()) + std::mem::size_of::<T>() * self.items.len())
            as u64
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
}

/// One processor's share of a communication plan: per populated
/// destination, the aligned local element slots (one per rank, rank order)
/// and the global ranks they cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Routes {
    /// Local element indices by destination.
    pub slots: PeerCsr<u32>,
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

    /// Bytes retained by the slot rows and the rank structure.
    pub(crate) fn mem_bytes(&self) -> u64 {
        let ranks = match &self.ranks {
            RankList::Explicit(v) => 4 * v.len(),
            RankList::Runs { offs, runs } => 4 * offs.len() + 8 * runs.len(),
        };
        self.slots.mem_bytes() + ranks as u64
    }
}

/// Builds [`Routes`] from the stretches of consecutive ranks a composer
/// emits, with no per-processor table: stretches arrive in rank order, so
/// under the default block result layout their owners ascend and the
/// arrival order *is* the CSR order. Otherwise (a block-cyclic `W'` revisits
/// owners) the stretches are stably sorted by owner and the rows rebuilt —
/// `O(items + stretches·log stretches)` either way.
pub(crate) struct RoutesBuilder {
    emit: RankEmit,
    /// Owner of each maximal same-owner stretch, in arrival order.
    owners: Vec<u32>,
    /// Where each stretch starts in `slots` / `runs`; [`Self::seal`] appends
    /// the ends, making them the CSR's row boundaries.
    slot_offs: Vec<u32>,
    run_offs: Vec<u32>,
    slots: Vec<u32>,
    ranks: Vec<u32>,
    runs: Vec<(u32, u32)>,
}

impl RoutesBuilder {
    pub(crate) fn new(emit: RankEmit) -> Self {
        RoutesBuilder {
            emit,
            owners: Vec::new(),
            slot_offs: Vec::new(),
            run_offs: Vec::new(),
            slots: Vec::new(),
            ranks: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Route the consecutive ranks `first_rank..first_rank + slots.len()`,
    /// held in the local element `slots`, to `owner`.
    pub(crate) fn push(&mut self, owner: usize, first_rank: usize, slots: &[u32]) {
        self.open_row(owner as u32);
        self.slots.extend_from_slice(slots);
        match self.emit {
            RankEmit::Explicit => self
                .ranks
                .extend((first_rank..first_rank + slots.len()).map(|r| r as u32)),
            RankEmit::Runs => self.runs.push((first_rank as u32, slots.len() as u32)),
        }
    }

    /// Start a stretch for `owner` unless the current one is already theirs.
    fn open_row(&mut self, owner: u32) {
        if self.owners.last() != Some(&owner) {
            self.owners.push(owner);
            self.slot_offs.push(self.slots.len() as u32);
            self.run_offs.push(self.runs.len() as u32);
        }
    }

    /// Close the last stretch.
    fn seal(&mut self) {
        self.slot_offs.push(self.slots.len() as u32);
        self.run_offs.push(self.runs.len() as u32);
    }

    pub(crate) fn finish(mut self) -> Routes {
        self.seal();
        if !self.owners.windows(2).all(|w| w[0] < w[1]) {
            self = self.regrouped();
        }
        Routes {
            slots: PeerCsr {
                peers: self.owners,
                offs: self.slot_offs,
                items: self.slots,
            },
            ranks: match self.emit {
                RankEmit::Explicit => RankList::Explicit(self.ranks),
                RankEmit::Runs => RankList::Runs {
                    offs: self.run_offs,
                    runs: self.runs,
                },
            },
        }
    }

    /// The sealed stretches stably sorted by owner (each owner keeps rank
    /// order), every owner's stretches merged into one row.
    fn regrouped(&self) -> RoutesBuilder {
        let mut order: Vec<usize> = (0..self.owners.len()).collect();
        order.sort_by_key(|&i| self.owners[i]);
        let mut out = RoutesBuilder::new(self.emit);
        for i in order {
            out.open_row(self.owners[i]);
            let s = self.slot_offs[i] as usize..self.slot_offs[i + 1] as usize;
            out.slots.extend_from_slice(&self.slots[s.clone()]);
            if self.emit == RankEmit::Explicit {
                out.ranks.extend_from_slice(&self.ranks[s]);
            }
            let r = self.run_offs[i] as usize..self.run_offs[i + 1] as usize;
            out.runs.extend_from_slice(&self.runs[r]);
        }
        out.seal();
        out
    }
}

/// Which rank structure a compact composition emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankEmit {
    /// Expand runs to per-element ranks (pack CSS keeps pair messages).
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
pub(crate) trait Composer {
    /// Initial scan of the local mask: slice counts, with the scheme's
    /// storage retained in `self`.
    fn scan(&mut self, proc: &mut Proc, m_local: &[bool], w0: usize) -> Vec<i32>;

    /// Compose the routes — one row per populated destination — from the
    /// retained storage and the final base ranks. `layout` is the
    /// result-vector layout whose owners the routes target.
    fn compose(
        &mut self,
        proc: &mut Proc,
        ranking: &Ranking,
        m_local: &[bool],
        w0: usize,
        layout: &DimLayout,
    ) -> Routes;
}

/// Simple storage: per-element `(local, slice, initial rank)` records from
/// a single scan (`L + 4E` operations), replayed at `per_elem` operations
/// each during composition. Always emits explicit ranks.
pub(crate) struct SimpleComposer {
    per_elem: usize,
    records: Vec<(u32, u32, u32)>,
}

impl SimpleComposer {
    pub(crate) fn new(per_elem: usize) -> SimpleComposer {
        SimpleComposer {
            per_elem,
            records: Vec::new(),
        }
    }
}

impl Composer for SimpleComposer {
    fn scan(&mut self, proc: &mut Proc, m_local: &[bool], w0: usize) -> Vec<i32> {
        proc.wall_span("scan.simple", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let mut counts = vec![0i32; m_local.len() / w0.max(1)];
                for (l, &selected) in m_local.iter().enumerate() {
                    if selected {
                        let k = l / w0;
                        self.records.push((l as u32, k as u32, counts[k] as u32));
                        counts[k] += 1;
                    }
                }
                proc.charge_ops(m_local.len() + 4 * self.records.len());
                counts
            })
        })
    }

    fn compose(
        &mut self,
        proc: &mut Proc,
        ranking: &Ranking,
        _m_local: &[bool],
        _w0: usize,
        layout: &DimLayout,
    ) -> Routes {
        proc.wall_span("compose.simple", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let mut routes = RoutesBuilder::new(RankEmit::Explicit);
                for &(local, slice, init) in &self.records {
                    let rank = init as usize + ranking.ps_f[slice as usize] as usize;
                    routes.push(layout.owner(rank), rank, &[local]);
                }
                proc.charge_ops(self.per_elem * self.records.len());
                proc.wall_bytes(self.records.len() as u64 * 8);
                routes.finish()
            })
        })
    }
}

/// Compact storage: only the counter array `PS_c` survives the initial
/// scan (`L + C` operations); composition walks the slices (`C` checks),
/// rebuilds the consecutive rank runs from `PS_c`/`PS_f`, and recovers the
/// element slots with a second scan (`S` operations under the configured
/// [`ScanMethod`]).
pub(crate) struct CompactComposer {
    emit: RankEmit,
    cost: ComposeCost,
    scan_method: ScanMethod,
    ps_c: Vec<i32>,
}

impl CompactComposer {
    pub(crate) fn new(emit: RankEmit, cost: ComposeCost, scan_method: ScanMethod) -> Self {
        CompactComposer {
            emit,
            cost,
            scan_method,
            ps_c: Vec::new(),
        }
    }
}

impl Composer for CompactComposer {
    fn scan(&mut self, proc: &mut Proc, m_local: &[bool], w0: usize) -> Vec<i32> {
        proc.wall_span("scan.compact", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let counts = crate::ranking::slice_counts(m_local, w0);
                self.ps_c = counts.clone();
                proc.charge_ops(m_local.len() + self.ps_c.len());
                counts
            })
        })
    }

    fn compose(
        &mut self,
        proc: &mut Proc,
        ranking: &Ranking,
        m_local: &[bool],
        w0: usize,
        layout: &DimLayout,
    ) -> Routes {
        proc.wall_span("compose.compact", |proc| {
            proc.with_category(Category::LocalComp, |proc| {
                let mut routes = RoutesBuilder::new(self.emit);
                let mut ops = self.ps_c.len(); // one check per slice
                let mut slots: Vec<u32> = Vec::with_capacity(w0);
                for (k, &n) in self.ps_c.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let n = n as usize;
                    let r0 = ranking.ps_f[k] as usize;
                    slots.clear();
                    ops += collect_slice_slots(
                        &m_local[k * w0..(k + 1) * w0],
                        k * w0,
                        n,
                        self.scan_method,
                        &mut slots,
                    );
                    let mut taken = 0usize;
                    for (start, len) in dest_runs(r0, n, layout) {
                        routes.push(layout.owner(start), start, &slots[taken..taken + len]);
                        taken += len;
                        ops += self.cost.per_run + self.cost.per_elem * len;
                    }
                }
                proc.charge_ops(ops);
                proc.wall_bytes(ops as u64 * 4);
                routes.finish()
            })
        })
    }
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
            debug_assert_eq!(out.len(), n, "slice count disagrees with mask");
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Shapes of the CSR the builder emits: no peer at all, one peer, every
    /// peer — and owners revisited out of order (a block-cyclic `W'`), which
    /// must come out grouped by ascending owner with rank order kept.
    #[test]
    fn routes_builder_shapes() {
        for emit in [RankEmit::Explicit, RankEmit::Runs] {
            let empty = RoutesBuilder::new(emit).finish();
            assert!(empty.slots.peers.is_empty() && empty.slots.items.is_empty());
            assert_eq!(empty.slots.offs, [0]);
            assert_eq!(empty.slots.find(0), None);

            // One peer, fed element by element: the stretches coalesce.
            let mut b = RoutesBuilder::new(emit);
            for (rank, slot) in [(40, 3u32), (41, 5), (42, 9)] {
                b.push(7, rank, &[slot]);
            }
            let one = b.finish();
            assert_eq!(
                (&one.slots.peers[..], &one.slots.offs[..]),
                (&[7][..], &[0, 3][..])
            );
            assert_eq!(one.slots.row(0), [3, 5, 9]);
            assert_eq!(one.slots.find(7), Some(0));
            assert_eq!(one.slots.find(6), None);
            match emit {
                RankEmit::Explicit => assert_eq!(one.explicit(0), [40, 41, 42]),
                RankEmit::Runs => assert_eq!(one.runs(0), [(40, 1), (41, 1), (42, 1)]),
            }

            // Every peer of four, two slots each, owners ascending.
            let mut b = RoutesBuilder::new(emit);
            for owner in 0..4u32 {
                b.push(
                    owner as usize,
                    2 * owner as usize,
                    &[10 * owner, 10 * owner + 1],
                );
            }
            let all = b.finish();
            assert_eq!(all.slots.peers, [0, 1, 2, 3]);
            assert_eq!(all.slots.offs, [0, 2, 4, 6, 8]);
            assert_eq!(all.slots.row(2), [20, 21]);

            // Owners 1, 0, 1, 0 (cyclic result blocks): regrouped.
            let mut b = RoutesBuilder::new(emit);
            for (owner, rank, slot) in [(1, 2, 100u32), (0, 4, 101), (1, 6, 102), (0, 8, 103)] {
                b.push(owner, rank, &[slot, slot + 10]);
            }
            let cyc = b.finish();
            assert_eq!(cyc.slots.peers, [0, 1]);
            assert_eq!(cyc.slots.offs, [0, 4, 8]);
            assert_eq!(cyc.slots.row(0), [101, 111, 103, 113]);
            assert_eq!(cyc.slots.row(1), [100, 110, 102, 112]);
            match emit {
                RankEmit::Explicit => assert_eq!(cyc.explicit(1), [2, 3, 6, 7]),
                RankEmit::Runs => assert_eq!(cyc.runs(0), [(4, 2), (8, 2)]),
            }
            let ranks = match emit {
                RankEmit::Explicit => 4 * 8,
                RankEmit::Runs => 4 * 3 + 8 * 4,
            };
            assert_eq!(cyc.mem_bytes(), 4 * (2 + 3 + 8) + ranks);
        }
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
}
