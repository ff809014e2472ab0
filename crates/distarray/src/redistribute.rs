//! Array redistribution between block-cyclic layouts (the substrate the
//! paper's Section 6.3 cites as [7]).
//!
//! Changing a distributed array's layout (e.g. cyclic → block before a PACK,
//! to minimise the tile count the ranking algorithm pays for) requires
//! *communication detection* — computing which local elements go where — and
//! a many-to-many personalized exchange. Elements travel value-only (1 word)
//! in a canonical order (ascending global linear index), so both sender and
//! receiver run a detection phase: the "two phases of communication
//! detection" the paper notes for *redistribution of whole arrays*. The
//! `(index, value)` pair format of *redistribution of selected data* lives
//! with its one caller, `hpf_core`'s Red.1.

use hpf_machine::collectives::{alltoallv, A2aSchedule};
use hpf_machine::{Category, Proc, Wire};

use crate::descriptor::ArrayDesc;

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
/// Panics on shape or processor-count mismatch, or if `local`'s length is
/// not `src.local_len(proc.id())`.
pub fn redistribute<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    local: &[T],
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
    let me = proc.id();
    assert_eq!(local.len(), src.local_len(me), "local data length mismatch");

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
                A2aSchedule::LinearPermutation,
            )
        });
        let back = GlobalArray::assemble(&dst, &out.results);
        assert_eq!(back, a, "{shape:?} {src_dists:?} -> {dst_dists:?}");
        // Detection work must have been charged.
        assert!(out.max_cat_ms(Category::RedistDetect) > 0.0);
    }

    #[test]
    fn cyclic_to_block_1d() {
        roundtrip_case(&[32], &[4], &[Dist::Cyclic], &[Dist::Block]);
    }

    #[test]
    fn block_cyclic_to_block_cyclic_2d() {
        roundtrip_case(
            &[8, 12],
            &[2, 3],
            &[Dist::BlockCyclic(2), Dist::Cyclic],
            &[Dist::Block, Dist::BlockCyclic(2)],
        );
    }

    #[test]
    fn identity_redistribution_is_supported() {
        roundtrip_case(
            &[16],
            &[4],
            &[Dist::BlockCyclic(2)],
            &[Dist::BlockCyclic(2)],
        );
    }

    #[test]
    fn non_divisible_extents_work() {
        roundtrip_case(&[19], &[4], &[Dist::Cyclic], &[Dist::Block]);
    }

    /// Value-only messages: every element crosses the network as one word.
    #[test]
    fn each_moved_element_is_one_word() {
        let shape = [64];
        let grid = ProcGrid::line(4);
        let src = ArrayDesc::new(&shape, &grid, &[Dist::Cyclic]).unwrap();
        let dst = ArrayDesc::new(&shape, &grid, &[Dist::Block]).unwrap();
        let a = GlobalArray::from_fn(&shape, |idx| idx[0] as i32);
        let locals = a.partition(&src);
        let (locals_ref, src_ref, dst_ref) = (&locals, &src, &dst);
        let words = Machine::new(grid.clone(), CostModel::cm5())
            .run(move |proc| {
                let local = locals_ref[proc.id()].clone();
                redistribute(
                    proc,
                    src_ref,
                    dst_ref,
                    &local,
                    A2aSchedule::LinearPermutation,
                );
            })
            .total_words_sent();
        // Cyclic -> block on four processors keeps a quarter of the elements
        // at home; the other three quarters travel.
        assert_eq!(words, 48);
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
                A2aSchedule::LinearPermutation,
            )
        });
        assert_eq!(GlobalArray::assemble(&dst, &out.results), a);
    }
}
