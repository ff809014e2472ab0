//! Array redistribution between block-cyclic layouts (the substrate the
//! paper's Section 6.3 cites as [7]).
//!
//! Changing a distributed array's layout (e.g. cyclic → block before a PACK,
//! to minimise the tile count the ranking algorithm pays for) requires
//! *communication detection* — computing which local elements go where — and
//! a many-to-many personalized exchange. Two wire formats are provided:
//!
//! * [`RedistMode::Indexed`] — each element travels as an
//!   `(global index, value)` pair (2 words). Only the sender runs detection;
//!   the receiver places elements by decoding the carried index. This is the
//!   format the paper's *redistribution of selected data* scheme uses.
//! * [`RedistMode::Detected`] — elements travel value-only (1 word) in a
//!   canonical order (ascending global linear index). Both sender and
//!   receiver run a detection phase — "two phases of communication
//!   detection" exactly as the paper notes for *redistribution of whole
//!   arrays* — trading detection time for halved message volume.

use hpf_machine::collectives::{alltoallv, A2aSchedule};
use hpf_machine::{Category, Proc, Wire};

use crate::descriptor::ArrayDesc;

/// Wire format / detection strategy for [`redistribute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedistMode {
    /// `(global index, value)` pairs; sender-side detection only.
    Indexed,
    /// Value-only messages in canonical order; detection on both sides.
    Detected,
}

/// The largest global element count [`RedistMode::Indexed`] can move: its
/// pairs carry the global linear index as one `u32` word.
const INDEXED_LIMIT: u64 = 1 << 32;

/// Move a distributed array from layout `src` to layout `dst`.
///
/// Every processor calls this with its local data under `src`; it returns
/// the processor's local data under `dst`. The two descriptors must describe
/// the same global shape on grids with the same processor count (the grids
/// may differ in shape — e.g. a 2-D array moving onto a 1-D layout).
///
/// Charges communication detection to [`Category::RedistDetect`] and the
/// exchange to [`Category::RedistComm`].
///
/// # Panics
/// Panics on shape or processor-count mismatch, if `local`'s length is
/// not `src.local_len(proc.id())`, or in [`RedistMode::Indexed`] on an
/// array of more than 2³² elements.
pub fn redistribute<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    local: &[T],
    mode: RedistMode,
    schedule: A2aSchedule,
) -> Vec<T> {
    assert_eq!(
        src.shape(),
        dst.shape(),
        "source and target shapes must match"
    );
    assert_eq!(
        src.grid().nprocs(),
        dst.grid().nprocs(),
        "source and target must use the same processor count"
    );
    if mode == RedistMode::Indexed {
        // The one checked narrowing: every `glin as u32` below casts an
        // index this bound has put in range.
        let dims = (0..src.ndims()).map(|i| src.dim(i).n());
        let n = dims.fold(1usize, usize::saturating_mul) as u64;
        assert!(
            n <= INDEXED_LIMIT,
            "the array has {n} elements, more than the {INDEXED_LIMIT} \
             RedistMode::Indexed can index with a u32"
        );
    }
    let me = proc.id();
    assert_eq!(local.len(), src.local_len(me), "local data length mismatch");

    match mode {
        RedistMode::Indexed => indexed(proc, src, dst, local, schedule),
        RedistMode::Detected => detected(proc, src, dst, local, schedule),
    }
}

fn indexed<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    local: &[T],
    schedule: A2aSchedule,
) -> Vec<T> {
    let me = proc.id();
    let nprocs = src.grid().nprocs();

    // Sender-side detection + message composition: one pass over the local
    // data, computing each element's target and bucketing an
    // (index, value) pair.
    let sends = proc.with_stage("redist.detect", |proc| {
        proc.with_category(Category::RedistDetect, |proc| {
            let mut sends: Vec<Vec<(u32, T)>> = (0..nprocs).map(|_| Vec::new()).collect();
            src.for_each_local_global(me, |l, g| {
                let glin = src.global_linear(g);
                let (target, _) = dst.owner_of(g);
                sends[target].push((glin as u32, local[l]));
            });
            proc.charge_ops(2 * local.len()); // destination computation + pair store
            sends
        })
    });

    let recvs = proc.with_stage("redist.comm", |proc| {
        proc.with_category(Category::RedistComm, |proc| {
            let world = proc.world();
            alltoallv(proc, &world, sends, schedule)
        })
    });

    // Placement by decoding carried indices.
    proc.with_stage("redist.detect", |proc| {
        proc.with_category(Category::RedistDetect, |proc| {
            let mut out = vec![T::default(); dst.local_len(me)];
            let mut placed = 0usize;
            for msg in recvs {
                for (glin, v) in msg {
                    let (owner, llin) = dst.owner_of_linear(glin as usize);
                    debug_assert_eq!(owner, me, "misrouted element");
                    out[llin] = v;
                    placed += 1;
                }
            }
            proc.charge_ops(2 * placed); // index decode + store
            out
        })
    })
}

fn detected<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    local: &[T],
    schedule: A2aSchedule,
) -> Vec<T> {
    let me = proc.id();
    let nprocs = src.grid().nprocs();

    // Phase 1 detection (send side): enumerate my elements in ascending
    // global linear order and bucket the bare values.
    let sends = proc.with_stage("redist.detect", |proc| {
        proc.with_category(Category::RedistDetect, |proc| {
            let mut order: Vec<(usize, usize)> = Vec::with_capacity(local.len());
            src.for_each_local_global(me, |l, g| order.push((src.global_linear(g), l)));
            order.sort_unstable();
            let mut sends: Vec<Vec<T>> = (0..nprocs).map(|_| Vec::new()).collect();
            for &(glin, l) in &order {
                let (target, _) = dst.owner_of_linear(glin);
                sends[target].push(local[l]);
            }
            proc.charge_ops(2 * local.len());
            sends
        })
    });

    let recvs = proc.with_stage("redist.comm", |proc| {
        proc.with_category(Category::RedistComm, |proc| {
            let world = proc.world();
            alltoallv(proc, &world, sends, schedule)
        })
    });

    // Phase 2 detection (receive side): enumerate my *target* slots in the
    // same canonical order, computing each slot's source processor, and
    // consume the per-source streams in lockstep.
    proc.with_stage("redist.detect", |proc| {
        proc.with_category(Category::RedistDetect, |proc| {
            let my_len = dst.local_len(me);
            let mut order: Vec<(usize, usize)> = Vec::with_capacity(my_len);
            dst.for_each_local_global(me, |l, g| order.push((dst.global_linear(g), l)));
            order.sort_unstable();
            let mut cursors = vec![0usize; nprocs];
            let mut out = vec![T::default(); my_len];
            for &(glin, l) in &order {
                let (source, _) = src.owner_of_linear(glin);
                out[l] = recvs[source][cursors[source]];
                cursors[source] += 1;
            }
            for (s, &c) in cursors.iter().enumerate() {
                debug_assert_eq!(c, recvs[s].len(), "stream from {s} not fully consumed");
            }
            proc.charge_ops(2 * my_len);
            out
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use crate::global::GlobalArray;
    use hpf_machine::{CostModel, Machine, ProcGrid};

    fn roundtrip_case(
        shape: &[usize],
        grid_dims: &[usize],
        src_dists: &[Dist],
        dst_dists: &[Dist],
        mode: RedistMode,
    ) {
        let grid = ProcGrid::new(grid_dims);
        let src = ArrayDesc::new_general(shape, &grid, src_dists).unwrap();
        let dst = ArrayDesc::new_general(shape, &grid, dst_dists).unwrap();
        let a = GlobalArray::from_fn(shape, |idx| {
            idx.iter()
                .enumerate()
                .map(|(i, &x)| (x * 7 + i) as i32)
                .sum::<i32>()
        });
        let locals = a.partition(&src);
        let machine = Machine::new(grid, CostModel::cm5());
        let locals_ref = &locals;
        let (src_ref, dst_ref) = (&src, &dst);
        let out = machine.run(move |proc| {
            let local = locals_ref[proc.id()].clone();
            redistribute(
                proc,
                src_ref,
                dst_ref,
                &local,
                mode,
                A2aSchedule::LinearPermutation,
            )
        });
        let back = GlobalArray::assemble(&dst, &out.results);
        assert_eq!(back, a, "{mode:?} {shape:?} {src_dists:?} -> {dst_dists:?}");
        // Detection work must have been charged.
        assert!(out.max_cat_ms(Category::RedistDetect) > 0.0);
    }

    #[test]
    fn cyclic_to_block_1d_indexed() {
        roundtrip_case(
            &[32],
            &[4],
            &[Dist::Cyclic],
            &[Dist::Block],
            RedistMode::Indexed,
        );
    }

    #[test]
    fn cyclic_to_block_1d_detected() {
        roundtrip_case(
            &[32],
            &[4],
            &[Dist::Cyclic],
            &[Dist::Block],
            RedistMode::Detected,
        );
    }

    #[test]
    fn block_cyclic_to_block_cyclic_2d_both_modes() {
        for mode in [RedistMode::Indexed, RedistMode::Detected] {
            roundtrip_case(
                &[8, 12],
                &[2, 3],
                &[Dist::BlockCyclic(2), Dist::Cyclic],
                &[Dist::Block, Dist::BlockCyclic(2)],
                mode,
            );
        }
    }

    #[test]
    fn identity_redistribution_is_supported() {
        roundtrip_case(
            &[16],
            &[4],
            &[Dist::BlockCyclic(2)],
            &[Dist::BlockCyclic(2)],
            RedistMode::Detected,
        );
    }

    #[test]
    fn non_divisible_extents_work() {
        roundtrip_case(
            &[19],
            &[4],
            &[Dist::Cyclic],
            &[Dist::Block],
            RedistMode::Indexed,
        );
        roundtrip_case(
            &[19],
            &[4],
            &[Dist::Cyclic],
            &[Dist::Block],
            RedistMode::Detected,
        );
    }

    #[test]
    fn grid_shape_may_change_if_proc_count_matches() {
        // 2-D array on a 2x2 grid -> same array on a 1x4 grid.
        let shape = [8, 8];
        let g_src = ProcGrid::new(&[2, 2]);
        let g_dst = ProcGrid::new(&[4, 1]);
        let src = ArrayDesc::new(&shape, &g_src, &[Dist::Block, Dist::Block]).unwrap();
        let dst = ArrayDesc::new(&shape, &g_dst, &[Dist::Block, Dist::Block]).unwrap();
        let a = GlobalArray::from_fn(&shape, |idx| (idx[0] * 8 + idx[1]) as i32);
        let locals = a.partition(&src);
        let machine = Machine::new(g_src, CostModel::cm5());
        let (locals_ref, src_ref, dst_ref) = (&locals, &src, &dst);
        let out = machine.run(move |proc| {
            let local = locals_ref[proc.id()].clone();
            redistribute(
                proc,
                src_ref,
                dst_ref,
                &local,
                RedistMode::Indexed,
                A2aSchedule::LinearPermutation,
            )
        });
        assert_eq!(GlobalArray::assemble(&dst, &out.results), a);
    }

    /// Descriptor only: the count is checked before anything is sized by it.
    #[test]
    #[should_panic(expected = "more than the 4294967296 RedistMode::Indexed can index")]
    fn indexed_mode_refuses_what_a_u32_index_cannot_reach() {
        let grid = ProcGrid::line(2);
        let src = ArrayDesc::new(&[1 << 33], &grid, &[Dist::Block]).unwrap();
        let dst = ArrayDesc::new(&[1 << 33], &grid, &[Dist::Cyclic]).unwrap();
        Machine::new(grid.clone(), CostModel::cm5()).run(|proc| {
            let none: [i32; 0] = [];
            let (mode, schedule) = (RedistMode::Indexed, A2aSchedule::LinearPermutation);
            redistribute(proc, &src, &dst, &none, mode, schedule)
        });
    }

    #[test]
    fn detected_mode_sends_half_the_words_of_indexed() {
        let shape = [64];
        let grid = ProcGrid::line(4);
        let src = ArrayDesc::new(&shape, &grid, &[Dist::Cyclic]).unwrap();
        let dst = ArrayDesc::new(&shape, &grid, &[Dist::Block]).unwrap();
        let a = GlobalArray::from_fn(&shape, |idx| idx[0] as i32);
        let locals = a.partition(&src);
        let words = |mode: RedistMode| {
            let machine = Machine::new(grid.clone(), CostModel::cm5());
            let (locals_ref, src_ref, dst_ref) = (&locals, &src, &dst);
            machine
                .run(move |proc| {
                    let local = locals_ref[proc.id()].clone();
                    redistribute(
                        proc,
                        src_ref,
                        dst_ref,
                        &local,
                        mode,
                        A2aSchedule::LinearPermutation,
                    );
                })
                .total_words_sent()
        };
        let w_idx = words(RedistMode::Indexed);
        let w_det = words(RedistMode::Detected);
        assert_eq!(w_idx, 2 * w_det, "indexed pairs are twice the volume");
    }
}
