//! Intermediate steps — Section 5.3 and Figure 2, implemented literally.
//!
//! At the start of step `i`, `PS_i == RS_i` holds the number of selected
//! elements per (tile-`i`, upper-dimension) cell, valid within a sub-array
//! of shape `Δ = [1 × … × W_i × N_{i-1} × … × N_0]`. Step `i` enlarges `Δ`
//! in three substeps:
//!
//! 1. **prefix-reduction-sum** along grid dimension `i`: `PS_i` becomes the
//!    exclusive prefix over processor coordinates (selected elements in
//!    earlier blocks of the same tile), `RS_i` the total — `Δ` grows to a
//!    full tile, `S_i`;
//! 2. **local segmented prefix** over `RS_i` (segments span the `T_i` tiles
//!    × one `W_{i+1}` block of the next dimension), added into `PS_i` — `Δ`
//!    grows to `[W_{i+1} × N_i × …]`;
//! 3. **initialise** `PS_{i+1} = RS_{i+1}` with each segment's total,
//!    rebuilt as (segment's last raw cell, saved before the exclusive
//!    prefix) + (exclusive prefix at the last cell).
//!
//! In step `d-1` there is no next dimension: the single segment spans the
//! whole vector and the "segment total" is the global `Size`.

use hpf_machine::collectives::{prefix_reduction_sum, PrsAlgorithm};
use hpf_machine::{Category, Proc};

use super::workspace::{segmented_exclusive_prefix, RankShape};

/// Result of the intermediate steps: the per-dimension base-rank arrays
/// `PS_i` and the global number of selected elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseRanks {
    /// `ps[i]` is the final `PS_i`, flat with layout
    /// `[T_i, L_{i+1}, …, L_{d-1}]` (innermost first).
    pub ps: Vec<Vec<i32>>,
    /// Total number of selected elements across all processors (`Size`).
    pub size: usize,
}

/// Run the `d` intermediate steps. `counts` is the shared initialisation of
/// `PS_0`/`RS_0` from the initial scan (one count per slice).
///
/// Communication is charged to [`Category::PrefixReductionSum`]; the local
/// substeps to [`Category::LocalComp`].
pub fn intermediate_steps(
    proc: &mut Proc,
    shape: &RankShape,
    counts: &[i32],
    prs: PrsAlgorithm,
) -> BaseRanks {
    let d = shape.d();
    debug_assert_eq!(
        counts.len(),
        shape.ps_len(0),
        "counts must have one entry per slice"
    );

    let mut ps_out: Vec<Vec<i32>> = Vec::with_capacity(d);
    // PS_i == RS_i on entry to step i: the counts, then each step's output.
    let mut carried: Vec<i32> = Vec::new();
    let mut size = 0usize;

    for i in 0..d {
        let cur: &[i32] = if i == 0 { counts } else { &carried };
        // Substep 1: vector prefix-reduction-sum along grid dimension i.
        let group = proc.axis_group(i);
        let (mut ps, mut rs) = proc.with_category(Category::PrefixReductionSum, |proc| {
            prefix_reduction_sum(proc, &group, cur, prs)
        });
        let len = cur.len();

        let next = proc.with_category(Category::LocalComp, |proc| {
            if i + 1 < d {
                let seg = shape.t[i] * shape.w[i + 1]; // segment length
                let block = shape.t[i] * shape.l[i + 1]; // per-upper-index run
                let t_next = shape.t[i + 1];
                let uppers = shape.upper_vol(i + 1);
                let mut next = vec![0i32; shape.ps_len(i + 1)];

                // Substep 2.1: seed RS_{i+1} with each segment's last raw cell.
                for u in 0..uppers {
                    for k in 0..t_next {
                        next[u * t_next + k] = rs[u * block + (k + 1) * seg - 1];
                    }
                }
                // Substeps 2.2–2.3: segmented exclusive prefix on RS_i.
                segmented_exclusive_prefix(&mut rs, seg);
                // Substep 2.4: PS_i += RS_i.
                for (a, b) in ps.iter_mut().zip(&rs) {
                    *a += *b;
                }
                // Substep 3: add the exclusive prefix at each segment's last
                // cell, completing the segment totals for PS_{i+1}/RS_{i+1}.
                for u in 0..uppers {
                    for k in 0..t_next {
                        next[u * t_next + k] += rs[u * block + (k + 1) * seg - 1];
                    }
                }
                proc.charge_ops(2 * len + 2 * next.len());
                ps_out.push(ps);
                Some(next)
            } else {
                // Step d-1: one segment spanning the whole vector; the
                // "segment total" is the global Size.
                let seed = rs[len - 1];
                segmented_exclusive_prefix(&mut rs, len);
                for (a, b) in ps.iter_mut().zip(&rs) {
                    *a += *b;
                }
                size = (seed + rs[len - 1]) as usize;
                proc.charge_ops(2 * len);
                ps_out.push(ps);
                None
            }
        });
        if let Some(next) = next {
            carried = next;
        }
    }

    BaseRanks { ps: ps_out, size }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_distarray::{ArrayDesc, Dist, GlobalArray};
    use hpf_machine::{CostModel, Machine, ProcGrid};

    /// 1-D, block-cyclic(2) over 4 procs, all-true mask: each slice holds 2
    /// elements, Size = 16, and PS_f = PS_0 must give each slice the number
    /// of true elements globally preceding it.
    #[test]
    fn one_d_all_true() {
        let grid = ProcGrid::line(4);
        let desc = ArrayDesc::new(&[16], &grid, &[Dist::BlockCyclic(2)]).unwrap();
        let machine = Machine::new(grid, CostModel::zero());
        let desc_ref = &desc;
        let out = machine.run(move |proc| {
            let shape = RankShape::from_desc(desc_ref);
            let counts = vec![2i32; 2]; // T_0 = 2 slices, 2 trues each
            intermediate_steps(proc, &shape, &counts, PrsAlgorithm::Direct)
        });
        for (p, br) in out.results.iter().enumerate() {
            assert_eq!(br.size, 16);
            // Proc p's slice 0 starts at global index 2p, slice 1 at 8 + 2p.
            assert_eq!(br.ps[0], vec![2 * p as i32, 8 + 2 * p as i32], "proc {p}");
        }
    }

    /// Cross-check against a brute-force oracle on a 2-D array: for a known
    /// mask, PS_f (after the final combination, here emulated for d=1 per
    /// dim) must equal, per slice, the count of globally-preceding trues.
    /// The full end-to-end check lives in ranking::mod tests; here we verify
    /// size and the dimension-0 base ranks.
    #[test]
    fn two_d_size_is_global_true_count() {
        let grid = ProcGrid::new(&[2, 2]);
        let desc = ArrayDesc::new(
            &[8, 8],
            &grid,
            &[Dist::BlockCyclic(2), Dist::BlockCyclic(2)],
        )
        .unwrap();
        let mask = GlobalArray::from_fn(&[8, 8], |idx| (idx[0] * 3 + idx[1] * 5) % 7 < 3);
        let want_size = mask.data().iter().filter(|&&b| b).count();
        let parts = mask.partition(&desc);
        let machine = Machine::new(grid, CostModel::zero());
        let (desc_ref, parts_ref) = (&desc, &parts);
        let out = machine.run(move |proc| {
            let shape = RankShape::from_desc(desc_ref);
            let counts = super::super::initial::slice_counts(&parts_ref[proc.id()], shape.w[0]);
            intermediate_steps(proc, &shape, &counts, PrsAlgorithm::Direct)
        });
        for br in &out.results {
            assert_eq!(br.size, want_size);
            assert_eq!(br.ps.len(), 2);
            assert_eq!(br.ps[0].len(), 8); // T_0 * L_1 = 2 * 4
            assert_eq!(br.ps[1].len(), 2); // T_1
        }
    }
}
