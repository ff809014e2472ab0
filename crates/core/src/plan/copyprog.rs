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
//! op       = Contig  { pos, at, len }             idx[pos+k] == at + k
//!          | Strided { pos, at, stride, count }   idx[pos+k] == at + k·stride
//!          | Scatter { pos, len }                 defer to the scalar walk
//! ```
//!
//! `pos` addresses the *dense* side (the message buffer, tiled front to
//! back); `at` addresses the *indexed* side (the local array slice the
//! indices point into). A block-distributed section lowers to a handful of
//! `Contig` ops — executed as `copy_from_slice`, i.e. `memcpy` — a cyclic
//! distribution lowers to `Strided` ops with stride `P·W`, and a random
//! mask degenerates to `Scatter` ranges that replay the original scalar
//! loop. Lowering is wall-clock-only work: it charges **zero** simulated
//! operations, so the Section 6.4 accounting is bit-identical to the
//! scalar path (the op *counts* were always per value, never per loop
//! shape).
//!
//! The walkers take a [`Phase`]: ops write to disjoint dense positions, so
//! the executor runs the bulk ops under a `copy.contig` wall span and the
//! scatter ranges under `copy.scatter`, making the shift from indexed to
//! bulk movement visible in flamegraphs and the hotspot report.
//!
//! The scalar reference loops the walkers replace live on as the oracles of
//! this module's tests, which check every walker against them over
//! arbitrary index lists.

/// Minimum run length worth a dedicated `Contig` op; shorter stride-1 runs
/// fold into the surrounding `Scatter` range. A short `copy_from_slice`
/// costs a call + bounds checks, and each emitted op costs
/// `size_of::<CopyOp>()` plan bytes — below this length the scalar walk is
/// both faster and smaller.
const MIN_CONTIG: usize = 4;

/// Minimum run length worth a `Strided` op, for the same trade-off.
const MIN_STRIDED: usize = 8;

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
    /// `idx[pos + k] == at + k·stride` for `k < count`: a constant-stride
    /// walk with no index loads. `stride` is signed — a block-cyclic result
    /// layout served against an ascending request list can step backwards.
    Strided {
        /// Start position on the dense side.
        pos: u32,
        /// First index on the indexed side.
        at: u32,
        /// Signed step between consecutive indexed-side elements.
        stride: i32,
        /// Number of elements.
        count: u32,
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
    /// `Contig` and `Strided` ops (the `copy.contig` wall frame).
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
    /// Number of `Strided` ops.
    pub strided: u64,
    /// Number of `Scatter` ops.
    pub scatter: u64,
    /// Elements moved by `Contig`/`Strided` ops.
    pub bulk_elements: u64,
    /// Total elements covered by the program(s).
    pub total_elements: u64,
}

impl CopyStats {
    /// Fold another program's stats into this one.
    pub fn merge(&mut self, other: &CopyStats) {
        self.contig += other.contig;
        self.strided += other.strided;
        self.scatter += other.scatter;
        self.bulk_elements += other.bulk_elements;
        self.total_elements += other.total_elements;
    }

    /// Fraction of elements moved by bulk (`Contig`/`Strided`) ops;
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
/// Greedy maximal equal-delta stretches become `Contig` (delta 1) or
/// `Strided` ops when long enough to pay for themselves; everything else
/// coalesces into `Scatter` ranges (never across a row boundary). Only the
/// stretch the last index belongs to is remembered, so nothing is read
/// twice; an undersized stretch leaves its last element to start the next
/// one with what follows (`[5, 100, 101, 102, 103]` keeps the 4-long contig).
#[derive(Debug, Default)]
pub(crate) struct ProgramBuilder {
    out: CopyPrograms,
    /// Dense position of the next index in the open row.
    pos: u32,
    /// Positions before this are covered by emitted ops; `scattered..` up to
    /// the current stretch is the pending scatter range.
    scattered: u32,
    /// The current stretch: `len` indices ending at `prev`, `delta` apart
    /// (`delta` means nothing while `len < 2`).
    prev: u32,
    delta: i64,
    len: u32,
}

impl ProgramBuilder {
    /// Append `idx` to the open row. On a random mask two deltas in three
    /// differ from the one before, so "the stretch goes on" must not become
    /// a branch: it is a number the optimiser cannot read back as a
    /// condition ([`std::hint::black_box`]; as a `bool` it compiles to a
    /// branch mispredicted every third index) that rides in the length's top
    /// bit — one range check finds a full-size stretch that ended — and
    /// masks the length update.
    pub(crate) fn extend(&mut self, idx: &[u32]) {
        const TOP: u32 = 1 << 31;
        let (mut pos, mut prev, mut delta, mut len) = (self.pos, self.prev, self.delta, self.len);
        for &x in idx {
            let d = i64::from(x) - i64::from(prev);
            let goes_on = std::hint::black_box(u32::from(d == delta));
            let ended = (len | (goes_on * TOP)).wrapping_sub(MIN_CONTIG as u32);
            if ended < TOP - MIN_CONTIG as u32 && self.emit_bulk(pos, len, prev, delta) {
                len = 0;
            }
            // Go on with the stretch, or restart it at its last element.
            let keep = goes_on.wrapping_neg();
            len = ((len & keep) | (len.min(1) & !keep)) + 1;
            (prev, delta) = (x, d);
            pos += 1;
        }
        (self.pos, self.prev, self.delta, self.len) = (pos, prev, delta, len);
    }

    /// Emit the stretch of `len ≥ MIN_CONTIG` indices `delta` apart that
    /// ends at `prev`, before position `end`, if it makes a bulk op.
    fn emit_bulk(&mut self, end: u32, len: u32, prev: u32, delta: i64) -> bool {
        let pos = end - len;
        let at = (i64::from(prev) - i64::from(len - 1) * delta) as u32;
        let op = if delta == 1 {
            self.out.stats.contig += 1;
            CopyOp::Contig { pos, at, len }
        } else if len >= MIN_STRIDED as u32 && i32::try_from(delta).is_ok() {
            self.out.stats.strided += 1;
            let stride = delta as i32;
            CopyOp::Strided {
                pos,
                at,
                stride,
                count: len,
            }
        } else {
            return false;
        };
        self.flush_scatter(pos);
        self.out.ops.push(op);
        self.out.stats.bulk_elements += u64::from(len);
        self.scattered = end;
        true
    }

    /// Emit the pending scatter range, which ends before position `end`.
    fn flush_scatter(&mut self, end: u32) {
        if self.scattered < end {
            self.out.stats.scatter += 1;
            self.out.ops.push(CopyOp::Scatter {
                pos: self.scattered,
                len: end - self.scattered,
            });
        }
    }

    /// Close the open row (possibly empty) and start the next.
    pub(crate) fn end_row(&mut self) {
        if self.len >= MIN_CONTIG as u32 {
            self.emit_bulk(self.pos, self.len, self.prev, self.delta);
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
            CopyOp::Strided {
                pos,
                at,
                stride,
                count,
            } => {
                assert_eq!(pos as usize, next);
                for k in 0..count as usize {
                    let want = i64::from(at) + k as i64 * i64::from(stride);
                    assert_eq!(i64::from(idx[pos as usize + k]), want);
                }
                next += count as usize;
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
            CopyOp::Strided {
                pos,
                at,
                stride,
                count,
            } if phase == Phase::Bulk => {
                moved += count as usize;
                strided_gather(
                    src,
                    at,
                    stride,
                    &mut dst[pos as usize..(pos + count) as usize],
                );
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
            CopyOp::Strided {
                pos,
                at,
                stride,
                count,
            } if phase == Phase::Bulk => {
                moved += count as usize;
                let mut a = i64::from(at);
                for d in &mut dst[pos as usize..pos as usize + count as usize] {
                    d.1 = src[a as usize];
                    a += i64::from(stride);
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
            CopyOp::Strided {
                pos,
                at,
                stride,
                count,
            } if phase == Phase::Bulk => {
                moved += count as usize;
                let mut a = i64::from(at);
                for &v in &vals[pos as usize..pos as usize + count as usize] {
                    out[a as usize] = v;
                    a += i64::from(stride);
                }
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

/// The strided gather inner loop.
fn strided_gather<T: Copy>(src: &[T], at: u32, stride: i32, dst: &mut [T]) {
    let mut a = i64::from(at);
    for d in dst {
        *d = src[a as usize];
        a += i64::from(stride);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_gather(idx: &[u32], src: &[u32]) -> Vec<u32> {
        idx.iter().map(|&i| src[i as usize]).collect()
    }

    /// One list as a one-row family.
    fn lower(idx: &[u32]) -> CopyPrograms {
        CopyPrograms::lower(idx, &[0, idx.len() as u32])
    }

    /// The greedy lowering the streaming builder replaced, kept as its
    /// oracle: at every position the maximal equal-delta run is rescanned;
    /// a full-size one becomes a bulk op, an undersized one gives up a
    /// single element to the row's trailing scatter range.
    fn lower_rescanning(idx: &[u32], offs: &[u32]) -> CopyPrograms {
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
                let (delta, run) = if i + 1 < n {
                    let d = i64::from(idx[i + 1]) - i64::from(idx[i]);
                    let mut j = i + 1;
                    while j + 1 < n && i64::from(idx[j + 1]) - i64::from(idx[j]) == d {
                        j += 1;
                    }
                    (d, j - i + 1)
                } else {
                    (0, 1)
                };
                if delta == 1 && run >= MIN_CONTIG {
                    ops.push(CopyOp::Contig {
                        pos: i as u32,
                        at: idx[i],
                        len: run as u32,
                    });
                    stats.contig += 1;
                    stats.bulk_elements += run as u64;
                    i += run;
                } else if run >= MIN_STRIDED && i32::try_from(delta).is_ok() {
                    ops.push(CopyOp::Strided {
                        pos: i as u32,
                        at: idx[i],
                        stride: delta as i32,
                        count: run as u32,
                    });
                    stats.strided += 1;
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
                            ops.push(CopyOp::Scatter {
                                pos: i as u32,
                                len: 1,
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

    /// Index lists with structure to find: stretches of a random start,
    /// stride (negative, zero, one, too wide for an `i32`) and length — a
    /// stride-1 stretch may continue the previous one — cut into rows at
    /// random places, some of them stretch ends, some rows empty.
    fn stretchy_rows() -> impl proptest::strategy::Strategy<Value = (Vec<u32>, Vec<u32>)> {
        use proptest::strategy::Strategy;
        let strides = vec![1i64, 1, 1, 2, -1, -8, 0, 16, 1 << 31, -(1 << 31)];
        let stretch = (
            0u32..1000,
            proptest::sample::select(strides),
            1usize..12,
            proptest::arbitrary::any::<bool>(),
        );
        let cuts =
            proptest::collection::vec((0usize..400, proptest::arbitrary::any::<bool>()), 0..6);
        (proptest::collection::vec(stretch, 0..20), cuts).prop_map(|(stretches, cuts)| {
            let (mut idx, mut ends) = (Vec::new(), vec![0usize]);
            for (start, stride, len, chain) in stretches {
                let far = if stride.abs() > 1 << 30 {
                    1u32 << 31
                } else {
                    1 << 12
                };
                let start = match idx.last() {
                    Some(&last) if chain => i64::from(last) + 1,
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
        let src: Vec<u32> = (0..4096).map(|x| x * 3 + 7).collect();
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
        let mut a = vec![0u32; 4096];
        let mut b = vec![0u32; 4096];
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

    #[test]
    fn cyclic_run_lowers_to_one_stride() {
        let idx: Vec<u32> = (0..128).map(|k| 5 + 16 * k).collect();
        let prog = lower(&idx);
        assert_eq!(prog.stats().strided, 1);
        assert_eq!(prog.stats().bulk_fraction(), 1.0);
        roundtrip(&idx);
    }

    #[test]
    fn short_runs_coalesce_into_scatter() {
        // Alternating pairs: every equal-delta run is length 2 — too short
        // for either bulk op.
        let idx: Vec<u32> = (0..64).map(|k| (k % 2) * 1000 + k).collect();
        let prog = lower(&idx);
        assert_eq!(prog.stats().contig + prog.stats().strided, 0);
        assert_eq!(prog.stats().scatter, 1, "scatter ranges coalesce");
        assert_eq!(prog.stats().bulk_fraction(), 0.0);
        roundtrip(&idx);
    }

    #[test]
    fn undersized_run_does_not_eat_the_next_contig() {
        // [5, 100..104): the (5,100) delta-95 run is undersized; greedily
        // consuming it whole would orphan 100 from the contig that follows.
        let idx = [5u32, 100, 101, 102, 103];
        let prog = lower(&idx);
        assert_eq!(prog.stats().contig, 1);
        assert_eq!(prog.stats().bulk_elements, 4);
        roundtrip(&idx);
    }

    #[test]
    fn negative_stride_is_lowered() {
        let idx: Vec<u32> = (0..32).map(|k| 1000 - 8 * k).collect();
        let prog = lower(&idx);
        assert_eq!(prog.stats().strided, 1);
        roundtrip(&idx);
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
        let rows: [&[u32]; 4] = [&[9, 3, 7], &[], &[20, 21, 22, 23, 24], &[1, 5]];
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
        assert_eq!(family.stats().scatter, 2, "rows 0 and 3 do not coalesce");
    }

    /// The cases the streaming builder must not lose: a stretch whose last
    /// element anchors the next one, rows of length 0 and 1, a negative
    /// stride, and full-size runs that end exactly at a row boundary.
    #[test]
    fn streaming_builder_matches_the_rescanning_lowering() {
        let lists: [(&[u32], &[u32]); 6] = [
            (&[5, 100, 101, 102, 103], &[0, 5]),
            (&[5, 100, 101, 102, 103], &[0, 1, 1, 5]),
            (&[7], &[0, 0, 1, 1]),
            (&[40, 32, 24, 16, 8, 0, 9, 9, 9], &[0, 6, 9]),
            (&[1, 2, 3, 4, 5, 6, 7, 8], &[0, 4, 8]),
            (
                &[0, 1, 2, 3, 10, 20, 30, 40, 50, 60, 70, 80, 81, 82],
                &[0, 14],
            ),
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
    }
}
