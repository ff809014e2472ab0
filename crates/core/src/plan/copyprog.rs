//! Plan-time copy-program lowering: the execute hot path's bulk kernels.
//!
//! A plan's routes pin every index a gather or scatter will ever touch, so
//! the per-element indirection of the generic path (`slots[i]` loads,
//! `layout.local_of(rank)` divisions) can be compiled away **once at plan
//! time**. This module lowers an index list into a tiny program of typed
//! copy ops:
//!
//! ```text
//! program  = op*
//! op       = Contig  { pos, at, len }   idx[pos+k] == at + k
//!          | Scatter { pos, len }       defer to the scalar walk
//! ```
//!
//! `pos` addresses the *dense* side (the message buffer, tiled front to
//! back); `at` addresses the *indexed* side (the local array slice the
//! indices point into). A block-distributed section lowers to a handful of
//! `Contig` ops — executed as `copy_from_slice`, i.e. `memcpy` — and
//! everything else (a random mask, a constant stride other than 1) to one
//! `Scatter` range per row, which is the branch-free index loop
//! `dst[k] = src[idx[k]]`. That loop is the yardstick: it moves an element
//! in 0.6–0.8 ns, every op costs about one mispredicted branch on top of
//! its elements, and a bulk op is emitted only where the measured
//! break-even says it beats the loop it replaces ([`MIN_CONTIG`],
//! [`MIN_CONTIG_JOINED`]; the table is in EXPERIMENTS.md, "Lower only what
//! beats the index loop"). Lowering is wall-clock-only
//! work: it charges **zero** simulated operations, so the Section 6.4
//! accounting is bit-identical to the scalar path (the op *counts* were
//! always per value, never per loop shape).
//!
//! The walkers take a [`Phase`]: ops write to disjoint dense positions, so
//! the executor runs the bulk ops under a `copy.contig` wall span and the
//! scatter ranges under `copy.scatter`, making the shift from indexed to
//! bulk movement visible in flamegraphs and the hotspot report.
//!
//! The scalar reference loops the walkers replace live on as the oracles of
//! this module's tests, which check every walker against them over
//! arbitrary index lists.

/// Shortest stride-1 run that becomes a `Contig` op when scattered elements
/// are pending before it: the op ends their `Scatter` range — in the middle
/// of a random stretch it splits the range in two — so it must carry the
/// cost of the ops around it. Each op is a loop of unpredictable length,
/// about one mispredicted branch; measured, `copy_from_slice` over
/// random-mask (geometric) run lengths catches up with the index loop at
/// 24–32 elements and is 0.1–0.2 ns per element ahead from 32 on, and on
/// Bernoulli masks of density 0.5–0.9 every value from 24 up is level with
/// the index loop where 4 was twice as slow (EXPERIMENTS.md, "Lower only
/// what beats the index loop").
const MIN_CONTIG: usize = 32;

/// Shortest stride-1 run that becomes a `Contig` op where it costs no op:
/// between bulk ops or row ends on both sides, it stands where a `Scatter`
/// op of its own would. Rows that are runs back to back — a dense mask on
/// narrow blocks, UNPACK's serve rows over the dense `V` — stay all
/// `memcpy`, which op for op beats the index loop from 8 elements on.
const MIN_CONTIG_JOINED: usize = 8;

/// The shortest run either rule above can lower: what `extend` lets through
/// to [`ProgramBuilder::emit_bulk`].
const MIN_BULK: u32 = MIN_CONTIG_JOINED as u32;
const _: () = assert!(MIN_CONTIG_JOINED <= MIN_CONTIG);

/// One lowered copy instruction; see the module docs for the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyOp {
    /// `idx[pos + k] == at + k` for `k < len`: one `copy_from_slice`.
    Contig {
        /// Start position on the dense side.
        pos: u32,
        /// First index on the indexed side.
        at: u32,
        /// Run length.
        len: u32,
    },
    /// No exploitable structure: walk `idx[pos .. pos+len]` scalar.
    Scatter {
        /// Start position on the dense side.
        pos: u32,
        /// Range length.
        len: u32,
    },
}

/// Which half of a program a walker executes. Ops touch disjoint dense
/// positions, so the two phases compose to the full copy in either order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// `Contig` ops (the `copy.contig` wall frame).
    Bulk,
    /// `Scatter` ranges (the `copy.scatter` wall frame).
    Scatter,
}

/// Aggregate shape of one or more lowered programs — exported through the
/// plans into the `exec_hot` perf reports (`copy_ops` breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Number of `Contig` ops.
    pub contig: u64,
    /// Number of `Scatter` ops.
    pub scatter: u64,
    /// Elements moved by `Contig` ops.
    pub bulk_elements: u64,
    /// Total elements covered by the program(s).
    pub total_elements: u64,
}

impl CopyStats {
    /// Fold another program's stats into this one.
    pub fn merge(&mut self, other: &CopyStats) {
        self.contig += other.contig;
        self.scatter += other.scatter;
        self.bulk_elements += other.bulk_elements;
        self.total_elements += other.total_elements;
    }

    /// Fraction of elements moved by bulk (`Contig`) ops;
    /// 1.0 for an empty program.
    pub fn bulk_fraction(&self) -> f64 {
        if self.total_elements == 0 {
            1.0
        } else {
            self.bulk_elements as f64 / self.total_elements as f64
        }
    }
}

/// The lowered copy programs of one plan family: one program per row of a
/// peer-indexed index CSR, all in one flat op array with per-row offsets
/// (only populated peers have a program). Built once at plan time by a
/// [`ProgramBuilder`]; walked on every execute by the kernels below,
/// which take a row's ops alongside its index list (only `Scatter` ops
/// still read it). `pos` counts from the start of the row — the dense side
/// is that peer's message buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CopyPrograms {
    ops: Vec<CopyOp>,
    /// `ops[offs[k]..offs[k + 1]]` is row `k`'s program.
    offs: Vec<u32>,
    stats: CopyStats,
}

impl Default for CopyPrograms {
    /// A family of no rows.
    fn default() -> Self {
        CopyPrograms {
            ops: Vec::new(),
            offs: vec![0],
            stats: CopyStats::default(),
        }
    }
}

impl CopyPrograms {
    /// Lower every row `idx[offs[k]..offs[k + 1]]` of a finished list (the
    /// memory predictor's, a regrouped route set's) through the
    /// [`ProgramBuilder`] that planning streams its indices into.
    pub(crate) fn lower(idx: &[u32], offs: &[u32]) -> CopyPrograms {
        let mut b = ProgramBuilder::default();
        for row in offs.windows(2) {
            let row = &idx[row[0] as usize..row[1] as usize];
            b.extend(row);
            b.end_row();
            #[cfg(debug_assertions)]
            check(b.out.row(b.out.offs.len() - 2), row);
        }
        b.finish()
    }

    /// Row `k`'s program.
    pub(crate) fn row(&self, k: usize) -> &[CopyOp] {
        &self.ops[self.offs[k] as usize..self.offs[k + 1] as usize]
    }

    /// Bytes the programs retain for the plan's lifetime (charged to
    /// `mem.plan` next to the rows they annotate): ops plus row offsets.
    pub(crate) fn mem_bytes(&self) -> u64 {
        (self.ops.len() * std::mem::size_of::<CopyOp>() + self.offs.len() * 4) as u64
    }

    /// The op/element breakdown over all rows.
    pub(crate) fn stats(&self) -> &CopyStats {
        &self.stats
    }
}

/// Streaming lowering: one program family built index by index, row by row.
/// Greedy maximal stride-1 runs become `Contig` ops when long enough to beat
/// the index loop — how long depends on whether the op has scattered
/// elements for a neighbour, see [`MIN_CONTIG`] and [`MIN_CONTIG_JOINED`] —
/// and everything else coalesces into `Scatter` ranges (never across a row
/// boundary). Only the run the last index belongs to is remembered, so
/// nothing is read twice.
#[derive(Debug, Default)]
pub(crate) struct ProgramBuilder {
    out: CopyPrograms,
    /// Dense position of the next index in the open row.
    pos: u32,
    /// Positions before this are covered by emitted ops; `scattered..` up to
    /// the current run is the pending scatter range.
    scattered: u32,
    /// The current run: `len` consecutive indices ending at `prev`.
    prev: u32,
    len: u32,
}

impl ProgramBuilder {
    /// Append `idx` to the open row. On a random mask every other index
    /// ends a run, so "the run goes on" must not become a branch: it is a
    /// number the optimiser cannot read back as a condition
    /// ([`std::hint::black_box`]; as a `bool` it compiles to a mispredicted
    /// branch) that rides in the length's top bit — one range check finds a
    /// full-size run that ended — and masks the length update.
    pub(crate) fn extend(&mut self, idx: &[u32]) {
        const TOP: u32 = 1 << 31;
        let (mut pos, mut prev, mut len) = (self.pos, self.prev, self.len);
        for &x in idx {
            let goes_on = std::hint::black_box(u32::from(i64::from(x) - i64::from(prev) == 1));
            let ended = (len | (goes_on * TOP)).wrapping_sub(MIN_BULK);
            if ended < TOP - MIN_BULK && self.emit_bulk(pos, len, prev) {
                len = 0;
            }
            // Go on with the run, or start the next one at `x`.
            len = (len & goes_on.wrapping_neg()) + 1;
            prev = x;
            pos += 1;
        }
        (self.pos, self.prev, self.len) = (pos, prev, len);
    }

    /// Emit the run of `len` consecutive indices that ends at `prev`, before
    /// position `end`, if it makes a `Contig` op that pays for itself.
    fn emit_bulk(&mut self, end: u32, len: u32, prev: u32) -> bool {
        let pos = end - len;
        // No scattered element pending: the op follows a bulk op or starts
        // the row (`flush_scatter` takes it back if scattered ones follow).
        let joined = self.scattered == pos;
        let min_contig = if joined {
            MIN_CONTIG_JOINED
        } else {
            MIN_CONTIG
        };
        if len < min_contig as u32 {
            return false;
        }
        self.flush_scatter(pos);
        let at = prev - (len - 1);
        self.out.ops.push(CopyOp::Contig { pos, at, len });
        self.out.stats.contig += 1;
        self.out.stats.bulk_elements += u64::from(len);
        self.scattered = end;
        true
    }

    /// Emit the pending scatter range, which ends before position `end`.
    /// Joined contigs right before it turn out to be followed by scattered
    /// elements after all — they replaced no `Scatter` op, they split one
    /// off — and fold back into the range.
    fn flush_scatter(&mut self, end: u32) {
        if self.scattered < end {
            let row = *self.out.offs.last().expect("never empty") as usize;
            while let Some(&CopyOp::Contig { pos, len, .. }) = self.out.ops[row..].last() {
                if len >= MIN_CONTIG as u32 {
                    break;
                }
                self.out.ops.pop();
                self.out.stats.contig -= 1;
                self.out.stats.bulk_elements -= u64::from(len);
                self.scattered = pos;
            }
            self.out.stats.scatter += 1;
            self.out.ops.push(CopyOp::Scatter {
                pos: self.scattered,
                len: end - self.scattered,
            });
        }
    }

    /// Close the open row (possibly empty) and start the next.
    pub(crate) fn end_row(&mut self) {
        if self.len >= MIN_BULK {
            self.emit_bulk(self.pos, self.len, self.prev);
        }
        self.flush_scatter(self.pos);
        self.out.stats.total_elements += u64::from(self.pos);
        self.out.offs.push(self.out.ops.len() as u32);
        (self.pos, self.scattered, self.len) = (0, 0, 0);
    }

    /// The programs of every closed row.
    pub(crate) fn finish(self) -> CopyPrograms {
        debug_assert_eq!(self.pos, 0, "finish with a row still open");
        self.out
    }
}

/// Verify one row's program against the index list it was lowered from —
/// every op must reproduce `idx` exactly and the ops must tile
/// `0..idx.len()` in order. Debug builds run this after lowering.
#[cfg(debug_assertions)]
fn check(ops: &[CopyOp], idx: &[u32]) {
    let mut next = 0usize;
    for op in ops {
        match *op {
            CopyOp::Contig { pos, at, len } => {
                assert_eq!(pos as usize, next);
                for k in 0..len as usize {
                    assert_eq!(idx[pos as usize + k] as usize, at as usize + k);
                }
                next += len as usize;
            }
            CopyOp::Scatter { pos, len } => {
                assert_eq!(pos as usize, next);
                next += len as usize;
            }
        }
    }
    assert_eq!(next, idx.len(), "program does not tile the index list");
}

/// Gather `dst[k] = src[idx[k]]` for the requested phase — the pooled
/// segment-value / reply fill kernel. `dst` must already have `idx.len()`
/// elements (the pooled buffers keep their shape across executes, so the
/// steady state is a pure positional overwrite). Like every walker, returns
/// the number of elements the phase moved.
pub(crate) fn gather_fill<T: Copy>(
    ops: &[CopyOp],
    idx: &[u32],
    src: &[T],
    dst: &mut [T],
    phase: Phase,
) -> usize {
    let mut moved = 0usize;
    debug_assert_eq!(dst.len(), idx.len());
    for op in ops {
        match *op {
            CopyOp::Contig { pos, at, len } if phase == Phase::Bulk => {
                moved += len as usize;
                dst[pos as usize..pos as usize + len as usize]
                    .copy_from_slice(&src[at as usize..at as usize + len as usize]);
            }
            CopyOp::Scatter { pos, len } if phase == Phase::Scatter => {
                moved += len as usize;
                let ids = &idx[pos as usize..pos as usize + len as usize];
                for (d, &i) in dst[pos as usize..pos as usize + len as usize]
                    .iter_mut()
                    .zip(ids)
                {
                    *d = src[i as usize];
                }
            }
            _ => {}
        }
    }
    moved
}

/// Gather `dst[k].1 = src[idx[k]]` for the requested phase, ranks
/// untouched — the steady-state pair-message refill (the rank skeleton
/// survives in the pooled buffer, so only values move).
pub(crate) fn gather_pairs_refill<T: Copy, R>(
    ops: &[CopyOp],
    idx: &[u32],
    src: &[T],
    dst: &mut [(R, T)],
    phase: Phase,
) -> usize {
    let mut moved = 0usize;
    debug_assert_eq!(dst.len(), idx.len());
    for op in ops {
        match *op {
            CopyOp::Contig { pos, at, len } if phase == Phase::Bulk => {
                moved += len as usize;
                let vals = &src[at as usize..at as usize + len as usize];
                for (d, &v) in dst[pos as usize..pos as usize + len as usize]
                    .iter_mut()
                    .zip(vals)
                {
                    d.1 = v;
                }
            }
            CopyOp::Scatter { pos, len } if phase == Phase::Scatter => {
                moved += len as usize;
                let ids = &idx[pos as usize..pos as usize + len as usize];
                for (d, &i) in dst[pos as usize..pos as usize + len as usize]
                    .iter_mut()
                    .zip(ids)
                {
                    d.1 = src[i as usize];
                }
            }
            _ => {}
        }
    }
    moved
}

/// Scatter dense `vals` through the index list for the requested phase:
/// `out[idx[k]] = vals[k]` — the UNPACK reply-scatter kernel. `Contig` ops
/// are one `copy_from_slice` into `out`.
pub(crate) fn scatter_apply<T: Copy>(
    ops: &[CopyOp],
    idx: &[u32],
    vals: &[T],
    out: &mut [T],
    phase: Phase,
) -> usize {
    let mut moved = 0usize;
    debug_assert_eq!(vals.len(), idx.len());
    for op in ops {
        match *op {
            CopyOp::Contig { pos, at, len } if phase == Phase::Bulk => {
                moved += len as usize;
                out[at as usize..at as usize + len as usize]
                    .copy_from_slice(&vals[pos as usize..pos as usize + len as usize]);
            }
            CopyOp::Scatter { pos, len } if phase == Phase::Scatter => {
                moved += len as usize;
                let ids = &idx[pos as usize..pos as usize + len as usize];
                for (&i, &v) in ids
                    .iter()
                    .zip(&vals[pos as usize..pos as usize + len as usize])
                {
                    out[i as usize] = v;
                }
            }
            _ => {}
        }
    }
    moved
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    fn scalar_gather(idx: &[u32], src: &[u32]) -> Vec<u32> {
        idx.iter().map(|&i| src[i as usize]).collect()
    }

    /// One list as a one-row family.
    fn lower(idx: &[u32]) -> CopyPrograms {
        CopyPrograms::lower(idx, &[0, idx.len() as u32])
    }

    /// The greedy lowering the streaming builder replaced, kept as its
    /// oracle: at every position the maximal stride-1 run is rescanned; a
    /// full-size one becomes a `Contig` op — full-size by the same rule, one
    /// directly after a bulk op or at its row's start needs only
    /// `MIN_CONTIG_JOINED` — an undersized one gives up a single element to
    /// the row's trailing scatter range, which, where it opens, takes back
    /// the joined contigs before it.
    fn lower_rescanning(idx: &[u32], offs: &[u32]) -> CopyPrograms {
        lower_rescanning_with(idx, offs, [MIN_CONTIG, MIN_CONTIG_JOINED])
    }

    /// … under any `[MIN_CONTIG, MIN_CONTIG_JOINED]`: `[4, 4]` is the rule
    /// before the break-even was measured.
    pub(in crate::plan) fn lower_rescanning_with(
        idx: &[u32],
        offs: &[u32],
        [min_contig, min_joined]: [usize; 2],
    ) -> CopyPrograms {
        let mut ops: Vec<CopyOp> = Vec::new();
        let mut stats = CopyStats {
            total_elements: idx.len() as u64,
            ..CopyStats::default()
        };
        let mut op_offs = vec![0];
        for row in offs.windows(2) {
            let (first, idx) = (ops.len(), &idx[row[0] as usize..row[1] as usize]);
            let n = idx.len();
            let mut i = 0usize;
            while i < n {
                let mut run = 1;
                while i + run < n && i64::from(idx[i + run]) - i64::from(idx[i + run - 1]) == 1 {
                    run += 1;
                }
                let joined = !matches!(ops[first..].last(), Some(CopyOp::Scatter { .. }));
                let min_here = if joined { min_joined } else { min_contig };
                if run >= min_here {
                    ops.push(CopyOp::Contig {
                        pos: i as u32,
                        at: idx[i],
                        len: run as u32,
                    });
                    stats.contig += 1;
                    stats.bulk_elements += run as u64;
                    i += run;
                } else {
                    match ops[first..].last_mut() {
                        Some(CopyOp::Scatter { pos, len })
                            if *pos as usize + *len as usize == i =>
                        {
                            *len += 1;
                        }
                        _ => {
                            let mut pos = i as u32;
                            while let Some(&CopyOp::Contig { pos: at, len, .. }) =
                                ops[first..].last()
                            {
                                if len as usize >= min_contig {
                                    break;
                                }
                                ops.pop();
                                stats.contig -= 1;
                                stats.bulk_elements -= u64::from(len);
                                pos = at;
                            }
                            ops.push(CopyOp::Scatter {
                                pos,
                                len: i as u32 + 1 - pos,
                            });
                            stats.scatter += 1;
                        }
                    }
                    i += 1;
                }
            }
            op_offs.push(ops.len() as u32);
        }
        CopyPrograms {
            ops,
            offs: op_offs,
            stats,
        }
    }

    /// Run lengths on both sides of every minimum, plus a few short ones.
    fn boundary_lens() -> Vec<usize> {
        let mut lens = vec![1, 2, 3, 5, 2 * MIN_CONTIG];
        for min in [MIN_CONTIG_JOINED, MIN_CONTIG] {
            lens.extend([min - 1, min, min + 1]);
        }
        lens
    }

    /// Index lists with structure to find: stretches of a random start,
    /// stride (negative, zero, one, too wide for an `i32`) and length (short,
    /// and one below, at and one above each minimum) — a stride-1 stretch may
    /// continue the previous one or follow it after a one-slot hole — cut
    /// into rows at random places, some of them stretch ends, some rows
    /// empty. Only the stride-1 stretches may come out as bulk ops.
    fn stretchy_rows() -> impl proptest::strategy::Strategy<Value = (Vec<u32>, Vec<u32>)> {
        use proptest::strategy::Strategy;
        let strides = vec![1i64, 1, 1, 2, -1, -8, 0, 16, 1 << 31, -(1 << 31)];
        let stretch = (
            0u32..1000,
            proptest::sample::select(strides),
            proptest::sample::select(boundary_lens()),
            0u8..3,
        );
        let cuts =
            proptest::collection::vec((0usize..4000, proptest::arbitrary::any::<bool>()), 0..6);
        (proptest::collection::vec(stretch, 0..12), cuts).prop_map(|(stretches, cuts)| {
            let (mut idx, mut ends) = (Vec::new(), vec![0usize]);
            for (start, stride, len, chain) in stretches {
                let far = if stride.abs() > 1 << 30 {
                    1u32 << 31
                } else {
                    1 << 14
                };
                let start = match idx.last() {
                    // Back to back: continuing the last stretch, or one hole on.
                    Some(&last) if chain > 0 => i64::from(last) + i64::from(chain),
                    _ => i64::from(start) + i64::from(far),
                };
                let fits = |k: usize| u32::try_from(start + k as i64 * stride).ok();
                idx.extend((0..len).map_while(fits));
                ends.push(idx.len());
            }
            let mut offs: Vec<u32> = cuts
                .iter()
                .map(|&(at, at_end)| match at_end {
                    true => ends[at % ends.len()] as u32,
                    false => (at % (idx.len() + 1)) as u32,
                })
                .chain([0, idx.len() as u32])
                .collect();
            offs.sort_unstable();
            (idx, offs)
        })
    }

    fn roundtrip(idx: &[u32]) {
        let progs = lower(idx);
        let prog = progs.row(0);
        let bulk = progs.stats().bulk_elements as usize;
        let span = idx.iter().max().map_or(0, |&m| m as usize + 1);
        let src: Vec<u32> = (0..span as u32).map(|x| x * 3 + 7).collect();
        let mut out = vec![0u32; idx.len()];
        assert_eq!(gather_fill(prog, idx, &src, &mut out, Phase::Bulk), bulk);
        let rest = gather_fill(prog, idx, &src, &mut out, Phase::Scatter);
        assert_eq!(bulk + rest, idx.len(), "the phases cover the list");
        assert_eq!(out, scalar_gather(idx, &src));

        let mut pairs: Vec<(u32, u32)> = idx.iter().map(|&i| (i, 0)).collect();
        gather_pairs_refill(prog, idx, &src, &mut pairs, Phase::Bulk);
        gather_pairs_refill(prog, idx, &src, &mut pairs, Phase::Scatter);
        assert!(pairs.iter().zip(idx).all(|(p, &i)| p.0 == i));
        assert_eq!(
            pairs.iter().map(|p| p.1).collect::<Vec<_>>(),
            scalar_gather(idx, &src)
        );

        // Scatter back: out[idx[k]] = vals[k] must equal the scalar loop.
        let vals: Vec<u32> = (0..idx.len() as u32).map(|x| x + 100).collect();
        let mut a = vec![0u32; span];
        let mut b = vec![0u32; span];
        scatter_apply(prog, idx, &vals, &mut a, Phase::Bulk);
        scatter_apply(prog, idx, &vals, &mut a, Phase::Scatter);
        for (&i, &v) in idx.iter().zip(&vals) {
            b[i as usize] = v;
        }
        assert_eq!(a, b);
    }

    #[test]
    fn dense_run_lowers_to_one_contig() {
        let idx: Vec<u32> = (100..400).collect();
        let prog = lower(&idx);
        assert_eq!(prog.ops.len(), 1);
        assert_eq!(prog.stats().contig, 1);
        assert_eq!(prog.stats().bulk_fraction(), 1.0);
        roundtrip(&idx);
    }

    /// A constant stride other than 1 — cyclic, descending — is no
    /// structure the lowering uses: one `Scatter` range, however long.
    #[test]
    fn constant_strides_lower_to_one_scatter() {
        let cyclic: Vec<u32> = (0..128).map(|k| 5 + 16 * k).collect();
        let descending: Vec<u32> = (0..128).map(|k| 1100 - 8 * k).collect();
        for idx in [cyclic, descending] {
            let prog = lower(&idx);
            assert_eq!(prog.row(0), [CopyOp::Scatter { pos: 0, len: 128 }]);
            assert_eq!(prog.stats().bulk_fraction(), 0.0);
            roundtrip(&idx);
        }
    }

    #[test]
    fn short_runs_coalesce_into_scatter() {
        // Alternating pairs: every stride-1 run is length 2 — too short for
        // a bulk op.
        let idx: Vec<u32> = (0..64).map(|k| (k % 2) * 1000 + k).collect();
        let prog = lower(&idx);
        assert_eq!(prog.stats().contig, 0);
        assert_eq!(prog.stats().scatter, 1, "scatter ranges coalesce");
        assert_eq!(prog.stats().bulk_fraction(), 0.0);
        roundtrip(&idx);
    }

    #[test]
    fn undersized_run_does_not_eat_the_next_contig() {
        // [5, 100..): the scattered 5 must not take 100 with it, away from
        // the contig that follows.
        let idx: Vec<u32> = [5]
            .into_iter()
            .chain(100..100 + MIN_CONTIG as u32)
            .collect();
        let prog = lower(&idx);
        assert_eq!(prog.stats().contig, 1);
        assert_eq!(prog.stats().bulk_elements, MIN_CONTIG as u64);
        roundtrip(&idx);
    }

    /// The rule at its edges, one list each: what follows a scattered
    /// element needs the full minimum, what starts a row or follows a bulk
    /// op only the joined one.
    #[test]
    fn minima_are_exact() {
        let bulk_of = |idx: &[u32]| {
            roundtrip(idx);
            let s = *lower(idx).stats();
            (s.contig, s.bulk_elements as usize)
        };
        let run = |at: u32, len: usize| at..at + len as u32;
        let (full, joined) = (MIN_CONTIG, MIN_CONTIG_JOINED);
        // Alone in its row: nothing to split.
        assert_eq!(bulk_of(&run(7, joined - 1).collect::<Vec<_>>()), (0, 0));
        assert_eq!(bulk_of(&run(7, joined).collect::<Vec<_>>()), (1, joined));
        // After scattered elements (9000, 5000 and 7 are two undersized stretches).
        for (len, lowered) in [(full - 1, false), (full, true), (full + 1, true)] {
            let idx: Vec<u32> = [9000, 5000].into_iter().chain(run(7, len)).collect();
            let want = if lowered { (1, len) } else { (0, 0) };
            assert_eq!(bulk_of(&idx), want, "{len} after a scatter range");
        }
        // Directly after a bulk op, one hole on; then a scattered element
        // makes the same run too short again.
        for (len, lowered) in [(joined - 1, false), (joined, true), (joined + 1, true)] {
            let second = full as u32 + 1;
            let idx: Vec<u32> = run(0, full).chain(run(second, len)).collect();
            let want = if lowered { (2, full + len) } else { (1, full) };
            assert_eq!(bulk_of(&idx), want, "{len} after a contig");
            let idx: Vec<u32> = run(0, full)
                .chain([5000, 4000])
                .chain(run(second, len))
                .collect();
            assert_eq!(bulk_of(&idx), (1, full), "{len} after contig + scatter");
        }
        // A joined contig that scattered elements follow splits a range off
        // after all and is taken back — with the joined ones before it, up
        // to the last full-size one.
        let chain: Vec<u32> = run(0, full)
            .chain(run(100, joined))
            .chain(run(200, full - 1))
            .collect();
        assert_eq!(bulk_of(&chain), (3, 2 * full + joined - 1));
        let followed: Vec<u32> = chain.iter().copied().chain([5000, 4000]).collect();
        assert_eq!(bulk_of(&followed), (1, full));
        let led: Vec<u32> = run(0, full - 1).chain([5000, 4000]).collect();
        assert_eq!(bulk_of(&led), (0, 0), "a row that begins with a run");
    }

    #[test]
    fn empty_and_singleton_lists() {
        roundtrip(&[]);
        roundtrip(&[17]);
        let prog = lower(&[]);
        assert_eq!(prog.mem_bytes(), 8, "two row offsets, no ops");
        assert_eq!(prog.stats().bulk_fraction(), 1.0);
    }

    #[test]
    fn mem_bytes_counts_ops() {
        let idx: Vec<u32> = (0..100).collect();
        let prog = lower(&idx);
        assert_eq!(
            prog.mem_bytes(),
            (prog.ops.len() * std::mem::size_of::<CopyOp>() + 8) as u64
        );
    }

    /// Rows lower independently: a family's row equals the same list
    /// lowered alone (a scatter range never leaks across a row boundary),
    /// empty rows get empty programs, and the stats are the rows' sum.
    #[test]
    fn rows_lower_independently() {
        let contig: Vec<u32> = (20..21 + MIN_CONTIG_JOINED as u32).collect();
        let rows: [&[u32]; 4] = [&[9, 3, 7], &[], &contig, &[1, 5]];
        let flat: Vec<u32> = rows.concat();
        let mut offs = vec![0u32];
        for r in rows {
            offs.push(offs.last().unwrap() + r.len() as u32);
        }
        let family = CopyPrograms::lower(&flat, &offs);
        let mut sum = CopyStats::default();
        for (k, r) in rows.iter().enumerate() {
            let alone = lower(r);
            assert_eq!(family.row(k), alone.row(0), "row {k}");
            sum.merge(alone.stats());
        }
        assert_eq!(family.stats(), &sum);
        assert_eq!(family.stats().contig, 1, "row 2 is one op");
        assert_eq!(family.stats().scatter, 2, "rows 0 and 3 do not coalesce");
    }

    /// The cases the streaming builder must not lose: a contig right after
    /// a scattered element, rows of length 0 and 1, a long descending
    /// stretch, full-size runs that end exactly at a row boundary, and a
    /// long strided stretch between a contig and the row's end — all built
    /// from the minima.
    #[test]
    fn streaming_builder_matches_the_rescanning_lowering() {
        let (c, j, st) = (MIN_CONTIG as u32, MIN_CONTIG_JOINED as u32, 64);
        let anchored: Vec<u32> = [5].into_iter().chain(100..100 + c).collect();
        let descending: Vec<u32> = (0..st - 1).rev().map(|k| 8 * k).chain([9, 9, 9]).collect();
        let halves: Vec<u32> = (1..=2 * j).collect();
        let last = 10 * st;
        let sandwich: Vec<u32> = (0..c)
            .chain((1..=st).map(|k| c + 10 * k))
            .chain([c + last + 1, c + last + 2])
            .collect();
        let lists: [(&[u32], &[u32]); 6] = [
            (&anchored, &[0, 1 + c]),
            (&anchored, &[0, 1, 1, 1 + c]),
            (&[7], &[0, 0, 1, 1]),
            (&descending, &[0, st - 1, st + 2]),
            (&halves, &[0, j, 2 * j]),
            (&sandwich, &[0, c + st + 2]),
        ];
        for (idx, offs) in lists {
            let streamed = CopyPrograms::lower(idx, offs);
            assert_eq!(
                streamed,
                lower_rescanning(idx, offs),
                "{idx:?} cut at {offs:?}"
            );
        }
        let halves = CopyPrograms::lower(lists[4].0, lists[4].1);
        assert_eq!(
            halves.stats().contig,
            2,
            "a run ending at its row's end is kept"
        );
        let sandwich = CopyPrograms::lower(lists[5].0, lists[5].1);
        assert_eq!(
            (sandwich.stats().contig, sandwich.stats().scatter),
            (1, 1),
            "a strided stretch after a contig is one scatter range"
        );
    }

    proptest::proptest! {
        /// The streaming builder emits exactly the ops of the rescanning
        /// lowering, row offsets and statistics included.
        #[test]
        fn streaming_matches_rescanning_on_structured_rows(rows in stretchy_rows()) {
            let (idx, offs) = rows;
            proptest::prop_assert_eq!(CopyPrograms::lower(&idx, &offs), lower_rescanning(&idx, &offs));
        }

        /// … and on lists with no structure but what chance gives them.
        #[test]
        fn streaming_matches_rescanning_on_arbitrary_rows(
            idx in proptest::collection::vec(0u32..6, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..5),
        ) {
            let mut offs: Vec<u32> = cuts.iter().map(|c| (c % (idx.len() + 1)) as u32).collect();
            offs.extend([0, idx.len() as u32]);
            offs.sort_unstable();
            proptest::prop_assert_eq!(CopyPrograms::lower(&idx, &offs), lower_rescanning(&idx, &offs));
        }

        /// Lowered gather and scatter are bit-identical to the scalar
        /// reference for arbitrary index lists (the debug `check` inside
        /// `lower` additionally proves the ops tile the list exactly).
        #[test]
        fn lowering_matches_scalar(idx in proptest::collection::vec(0u32..4096, 0..300)) {
            roundtrip(&idx);
        }

        /// … and for rows made of runs one below, at and one above every
        /// minimum — contiguous and strided, at the row's start, at its end
        /// and back to back, with or without scattered elements between —
        /// where all three walkers run both their kernels.
        #[test]
        fn boundary_runs_match_scalar(
            runs in proptest::collection::vec(
                (
                    proptest::sample::select(boundary_lens()),
                    proptest::sample::select(vec![1u32, 1, 2, 16]),
                    proptest::arbitrary::any::<bool>(),
                    0u32..3,
                ),
                1..6,
            ),
        ) {
            let mut idx: Vec<u32> = Vec::new();
            let mut next = 0u32;
            for (len, stride, descending, junk) in runs {
                // `junk` scattered elements (none: back to back), then the run.
                idx.extend((0..junk).map(|k| next + 7 * k + 3));
                next += 7 * junk + 1;
                let run = (0..len as u32).map(|k| next + stride * k);
                if descending && stride > 1 {
                    idx.extend(run.rev());
                } else {
                    idx.extend(run);
                }
                next += stride * len as u32 + 1;
            }
            roundtrip(&idx);
            let offs = [0, idx.len() as u32];
            proptest::prop_assert_eq!(CopyPrograms::lower(&idx, &offs), lower_rescanning(&idx, &offs));
        }
    }
}
