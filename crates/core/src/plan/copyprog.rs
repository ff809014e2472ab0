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

/// A lowered copy program over one index list. Built once at plan time by
/// [`CopyProgram::lower`]; walked on every execute by the kernels below,
/// which take the original `idx` alongside the program (only `Scatter`
/// ops still read it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CopyProgram {
    ops: Vec<CopyOp>,
    stats: CopyStats,
}

impl CopyProgram {
    /// Lower an index list into copy ops: greedy maximal equal-delta runs,
    /// emitted as `Contig` (delta 1) or `Strided` when long enough to pay
    /// for themselves, everything else coalesced into `Scatter` ranges.
    ///
    /// An undersized run advances by a single element rather than being
    /// consumed whole — its tail may seed a full-length run with what
    /// follows (e.g. `[5, 100, 101, 102, 103]` keeps the 4-long contig).
    pub(crate) fn lower(idx: &[u32]) -> CopyProgram {
        let mut prog = CopyProgram {
            ops: Vec::new(),
            stats: CopyStats {
                total_elements: idx.len() as u64,
                ..CopyStats::default()
            },
        };
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
                prog.ops.push(CopyOp::Contig {
                    pos: i as u32,
                    at: idx[i],
                    len: run as u32,
                });
                prog.stats.contig += 1;
                prog.stats.bulk_elements += run as u64;
                i += run;
            } else if run >= MIN_STRIDED && i32::try_from(delta).is_ok() {
                prog.ops.push(CopyOp::Strided {
                    pos: i as u32,
                    at: idx[i],
                    stride: delta as i32,
                    count: run as u32,
                });
                prog.stats.strided += 1;
                prog.stats.bulk_elements += run as u64;
                i += run;
            } else {
                // Fold one element into the trailing scatter range; the
                // rest of this run gets its own chance to anchor a
                // full-length run.
                match prog.ops.last_mut() {
                    Some(CopyOp::Scatter { pos, len }) if *pos as usize + *len as usize == i => {
                        *len += 1;
                    }
                    _ => {
                        prog.ops.push(CopyOp::Scatter {
                            pos: i as u32,
                            len: 1,
                        });
                        prog.stats.scatter += 1;
                    }
                }
                i += 1;
            }
        }
        #[cfg(debug_assertions)]
        prog.check(idx);
        prog
    }

    /// Bytes the program retains for the plan's lifetime (charged to
    /// `mem.plan` next to the routes it annotates).
    pub(crate) fn mem_bytes(&self) -> u64 {
        (self.ops.len() * std::mem::size_of::<CopyOp>()) as u64
    }

    /// This program's op/element breakdown.
    pub(crate) fn stats(&self) -> &CopyStats {
        &self.stats
    }

    /// Verify the program against the index list it was lowered from —
    /// every op must reproduce `idx` exactly and the ops must tile
    /// `0..idx.len()` in order. Debug builds run this after lowering.
    #[cfg(debug_assertions)]
    fn check(&self, idx: &[u32]) {
        let mut next = 0usize;
        for op in &self.ops {
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
}

/// Gather `dst[k] = src[idx[k]]` for the requested phase — the pooled
/// segment-value / reply fill kernel. `dst` must already have `idx.len()`
/// elements (the pooled buffers keep their shape across executes, so the
/// steady state is a pure positional overwrite).
pub(crate) fn gather_fill<T: Copy>(
    prog: &CopyProgram,
    idx: &[u32],
    src: &[T],
    dst: &mut [T],
    phase: Phase,
) {
    debug_assert_eq!(dst.len(), idx.len());
    for op in &prog.ops {
        match *op {
            CopyOp::Contig { pos, at, len } if phase == Phase::Bulk => {
                dst[pos as usize..pos as usize + len as usize]
                    .copy_from_slice(&src[at as usize..at as usize + len as usize]);
            }
            CopyOp::Strided {
                pos,
                at,
                stride,
                count,
            } if phase == Phase::Bulk => {
                strided_gather(
                    src,
                    at,
                    stride,
                    &mut dst[pos as usize..(pos + count) as usize],
                );
            }
            CopyOp::Scatter { pos, len } if phase == Phase::Scatter => {
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
}

/// Gather `dst[k].1 = src[idx[k]]` for the requested phase, ranks
/// untouched — the steady-state pair-message refill (the rank skeleton
/// survives in the pooled buffer, so only values move).
pub(crate) fn gather_pairs_refill<T: Copy, R>(
    prog: &CopyProgram,
    idx: &[u32],
    src: &[T],
    dst: &mut [(R, T)],
    phase: Phase,
) {
    debug_assert_eq!(dst.len(), idx.len());
    for op in &prog.ops {
        match *op {
            CopyOp::Contig { pos, at, len } if phase == Phase::Bulk => {
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
                let mut a = i64::from(at);
                for d in &mut dst[pos as usize..pos as usize + count as usize] {
                    d.1 = src[a as usize];
                    a += i64::from(stride);
                }
            }
            CopyOp::Scatter { pos, len } if phase == Phase::Scatter => {
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
}

/// Scatter dense `vals` through the index list for the requested phase:
/// `out[idx[k]] = vals[k]` — the UNPACK reply-scatter kernel. `Contig` ops
/// are one `copy_from_slice` into `out`.
pub(crate) fn scatter_apply<T: Copy>(
    prog: &CopyProgram,
    idx: &[u32],
    vals: &[T],
    out: &mut [T],
    phase: Phase,
) {
    debug_assert_eq!(vals.len(), idx.len());
    for op in &prog.ops {
        match *op {
            CopyOp::Contig { pos, at, len } if phase == Phase::Bulk => {
                out[at as usize..at as usize + len as usize]
                    .copy_from_slice(&vals[pos as usize..pos as usize + len as usize]);
            }
            CopyOp::Strided {
                pos,
                at,
                stride,
                count,
            } if phase == Phase::Bulk => {
                let mut a = i64::from(at);
                for &v in &vals[pos as usize..pos as usize + count as usize] {
                    out[a as usize] = v;
                    a += i64::from(stride);
                }
            }
            CopyOp::Scatter { pos, len } if phase == Phase::Scatter => {
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

    fn roundtrip(idx: &[u32]) {
        let prog = CopyProgram::lower(idx);
        let src: Vec<u32> = (0..4096).map(|x| x * 3 + 7).collect();
        let mut out = vec![0u32; idx.len()];
        gather_fill(&prog, idx, &src, &mut out, Phase::Bulk);
        gather_fill(&prog, idx, &src, &mut out, Phase::Scatter);
        assert_eq!(out, scalar_gather(idx, &src));

        let mut pairs: Vec<(u32, u32)> = idx.iter().map(|&i| (i, 0)).collect();
        gather_pairs_refill(&prog, idx, &src, &mut pairs, Phase::Bulk);
        gather_pairs_refill(&prog, idx, &src, &mut pairs, Phase::Scatter);
        assert!(pairs.iter().zip(idx).all(|(p, &i)| p.0 == i));
        assert_eq!(
            pairs.iter().map(|p| p.1).collect::<Vec<_>>(),
            scalar_gather(idx, &src)
        );

        // Scatter back: out[idx[k]] = vals[k] must equal the scalar loop.
        let vals: Vec<u32> = (0..idx.len() as u32).map(|x| x + 100).collect();
        let mut a = vec![0u32; 4096];
        let mut b = vec![0u32; 4096];
        scatter_apply(&prog, idx, &vals, &mut a, Phase::Bulk);
        scatter_apply(&prog, idx, &vals, &mut a, Phase::Scatter);
        for (&i, &v) in idx.iter().zip(&vals) {
            b[i as usize] = v;
        }
        assert_eq!(a, b);
    }

    #[test]
    fn dense_run_lowers_to_one_contig() {
        let idx: Vec<u32> = (100..400).collect();
        let prog = CopyProgram::lower(&idx);
        assert_eq!(prog.ops.len(), 1);
        assert_eq!(prog.stats().contig, 1);
        assert_eq!(prog.stats().bulk_fraction(), 1.0);
        roundtrip(&idx);
    }

    #[test]
    fn cyclic_run_lowers_to_one_stride() {
        let idx: Vec<u32> = (0..128).map(|k| 5 + 16 * k).collect();
        let prog = CopyProgram::lower(&idx);
        assert_eq!(prog.stats().strided, 1);
        assert_eq!(prog.stats().bulk_fraction(), 1.0);
        roundtrip(&idx);
    }

    #[test]
    fn short_runs_coalesce_into_scatter() {
        // Alternating pairs: every equal-delta run is length 2 — too short
        // for either bulk op.
        let idx: Vec<u32> = (0..64).map(|k| (k % 2) * 1000 + k).collect();
        let prog = CopyProgram::lower(&idx);
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
        let prog = CopyProgram::lower(&idx);
        assert_eq!(prog.stats().contig, 1);
        assert_eq!(prog.stats().bulk_elements, 4);
        roundtrip(&idx);
    }

    #[test]
    fn negative_stride_is_lowered() {
        let idx: Vec<u32> = (0..32).map(|k| 1000 - 8 * k).collect();
        let prog = CopyProgram::lower(&idx);
        assert_eq!(prog.stats().strided, 1);
        roundtrip(&idx);
    }

    #[test]
    fn empty_and_singleton_lists() {
        roundtrip(&[]);
        roundtrip(&[17]);
        let prog = CopyProgram::lower(&[]);
        assert_eq!(prog.mem_bytes(), 0);
        assert_eq!(prog.stats().bulk_fraction(), 1.0);
    }

    #[test]
    fn mem_bytes_counts_ops() {
        let idx: Vec<u32> = (0..100).collect();
        let prog = CopyProgram::lower(&idx);
        assert_eq!(
            prog.mem_bytes(),
            (prog.ops.len() * std::mem::size_of::<CopyOp>()) as u64
        );
        assert!(prog.mem_bytes() > 0);
    }

    proptest::proptest! {
        /// Lowered gather and scatter are bit-identical to the scalar
        /// reference for arbitrary index lists (the debug `check` inside
        /// `lower` additionally proves the ops tile the list exactly).
        #[test]
        fn lowering_matches_scalar(idx in proptest::collection::vec(0u32..4096, 0..300)) {
            roundtrip(&idx);
        }
    }
}
