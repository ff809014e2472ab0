//! Sparse-matrix compression and SpMV on the PACK runtime.
//!
//! The motivating irregularity: a dense-stored matrix whose nonzeros are
//! unevenly placed (e.g. a triangular band) leaves some processors holding
//! far more useful data than others. `PACK` compresses the nonzeros — and,
//! because its result vector is *block*-distributed, simultaneously
//! rebalances them perfectly. SpMV then runs on the compact form:
//!
//! 1. **compress** (once): flatten the matrix to 1-D, then PACK the
//!    nonzero values and their flat indices from a *single*
//!    [`hpf_core::PackPlan`] — the plan is value-independent, so the mask
//!    is scanned and ranked once and executed twice (once per payload,
//!    even though one is `f64` and the other `u32`);
//! 2. **multiply** (per iteration): decode `(row, col)` from each flat
//!    index, [`gather_global`] the needed `x[col]` entries, multiply, and
//!    [`scatter_add_global`] the partial products into `y[row]`.

use hpf_core::{plan_pack, PackError, PackOptions};
use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::collectives::A2aSchedule;
use hpf_machine::{Category, Proc};

use crate::gather::{gather_global, scatter_add_global};

/// A compressed sparse matrix, distributed block over all processors.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Global nonzero count.
    pub nnz: usize,
    /// This processor's nonzero values (block-distributed by rank).
    pub values: Vec<f64>,
    /// Matching flat indices (`col + ncols·row`).
    pub flat_index: Vec<u32>,
    /// Layout of the packed nonzero vectors.
    pub layout: Option<DimLayout>,
}

impl SparseMatrix {
    /// Compress a dense-stored distributed matrix: every processor passes
    /// its local portion of the dense matrix (under `desc`, shape
    /// `[ncols, nrows]` — dimension 0 is the column, the fastest-varying);
    /// zeros are dropped.
    ///
    /// Internally flattens to 1-D so the packed order is row-major CSR
    /// order, plans one PACK of the nonzero mask, and executes the plan
    /// twice — values and flat indices ride the same communication plan.
    pub fn compress(
        proc: &mut Proc,
        desc: &ArrayDesc,
        dense_local: &[f64],
        opts: &PackOptions,
    ) -> Result<SparseMatrix, PackError> {
        let shape = desc.shape();
        let (ncols, nrows) = (shape[0], shape[1]);

        // The flattened 1-D view: same data, same processors, linearised
        // index space. Build the per-element flat indices and mask locally.
        let me = proc.id();
        let (mask, flat): (Vec<bool>, Vec<u32>) = proc.with_category(Category::LocalComp, |proc| {
            let mut mask = Vec::with_capacity(dense_local.len());
            let mut flat = Vec::with_capacity(dense_local.len());
            desc.for_each_local_global(me, |l, g| {
                mask.push(dense_local[l] != 0.0);
                flat.push((g[0] + ncols * g[1]) as u32);
            });
            proc.charge_ops(2 * dense_local.len());
            (mask, flat)
        });

        let plan = plan_pack(proc, desc, &mask, opts)?;
        let packed_vals = plan.execute(proc, dense_local)?;
        let packed_idx = plan.execute(proc, &flat)?;
        plan.retire(proc);
        debug_assert_eq!(packed_vals.size, packed_idx.size);

        Ok(SparseMatrix {
            nrows,
            ncols,
            nnz: packed_vals.size,
            values: packed_vals.local_v,
            flat_index: packed_idx.local_v,
            layout: packed_vals.v_layout,
        })
    }

    /// `y = A·x` with `x` and `y` block-distributed over the rows/columns
    /// (`x_layout.n() == ncols`, result layout over `nrows`).
    ///
    /// Returns this processor's slice of `y` and its layout.
    pub fn spmv(
        &self,
        proc: &mut Proc,
        x_local: &[f64],
        x_layout: &DimLayout,
        schedule: A2aSchedule,
    ) -> (Vec<f64>, DimLayout) {
        assert_eq!(x_layout.n(), self.ncols, "x must have one entry per column");
        let nprocs = proc.nprocs();
        let y_layout = DimLayout::new_general(self.nrows, nprocs, self.nrows.div_ceil(nprocs))
            .expect("positive dimensions");
        let mut y_local = vec![0.0f64; y_layout.local_len(proc.id())];

        // Decode (row, col) and fetch the x entries this processor needs.
        let (rows, cols) = proc.with_category(Category::LocalComp, |proc| {
            let mut rows = Vec::with_capacity(self.flat_index.len());
            let mut cols = Vec::with_capacity(self.flat_index.len());
            for &f in &self.flat_index {
                rows.push(f as usize / self.ncols);
                cols.push(f as usize % self.ncols);
            }
            proc.charge_ops(2 * self.flat_index.len());
            (rows, cols)
        });
        let xs = gather_global(proc, x_local, x_layout, &cols, schedule);

        let products: Vec<f64> = proc.with_category(Category::LocalComp, |proc| {
            proc.charge_ops(self.values.len());
            self.values.iter().zip(&xs).map(|(&a, &x)| a * x).collect()
        });
        scatter_add_global(proc, &mut y_local, &y_layout, &rows, &products, schedule);
        (y_local, y_layout)
    }

    /// Number of nonzeros this processor holds after compression: its
    /// block of the packed values, `⌈nnz/P⌉` or fewer, whatever its share
    /// of the dense matrix held.
    pub fn local_nnz(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_distarray::{local_from_fn, Dist, GlobalArray};
    use hpf_machine::{CostModel, Machine, ProcGrid};

    /// Banded test matrix: nonzero iff |row - col| <= 1 (tridiagonal),
    /// value = row*ncols + col + 1.
    fn entry(col: usize, row: usize) -> f64 {
        if row.abs_diff(col) <= 1 {
            (row * 16 + col + 1) as f64
        } else {
            0.0
        }
    }

    #[test]
    fn compress_then_spmv_matches_dense_oracle() {
        let (ncols, nrows) = (16usize, 16);
        let grid = ProcGrid::new(&[2, 2]);
        let desc = ArrayDesc::new(
            &[ncols, nrows],
            &grid,
            &[Dist::BlockCyclic(2), Dist::BlockCyclic(2)],
        )
        .unwrap();
        let x: Vec<f64> = (0..ncols).map(|c| (c as f64) * 0.5 - 1.0).collect();
        // Dense oracle.
        let want: Vec<f64> = (0..nrows)
            .map(|r| (0..ncols).map(|c| entry(c, r) * x[c]).sum())
            .collect();

        let nprocs = grid.nprocs();
        let x_layout = DimLayout::new_general(ncols, nprocs, ncols.div_ceil(nprocs)).unwrap();
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, xl, xr) = (&desc, &x_layout, &x);
        let out = machine.run(move |proc| {
            let dense = local_from_fn(d, proc.id(), |g| entry(g[0], g[1]));
            let a = SparseMatrix::compress(proc, d, &dense, &PackOptions::default()).unwrap();
            // nnz of a 16x16 tridiagonal matrix: 16 + 15 + 15.
            assert_eq!(a.nnz, 46);
            let x_local: Vec<f64> = (0..xl.local_len(proc.id()))
                .map(|l| xr[xl.global_of(proc.id(), l)])
                .collect();
            let (y, yl) = a.spmv(proc, &x_local, xl, A2aSchedule::LinearPermutation);
            (y, yl, a.local_nnz())
        });
        // Compression balances the nonzeros: no processor above
        // ceil(46/4) = 12, and the blocks tile nnz exactly.
        let locals: Vec<usize> = out.results.iter().map(|(_, _, l)| *l).collect();
        assert!(locals.iter().all(|&l| l <= 12), "{locals:?}");
        assert_eq!(locals.iter().sum::<usize>(), 46);
        // Assemble y and compare.
        let mut y = vec![0.0f64; nrows];
        for (p, (local, yl, _)) in out.results.iter().enumerate() {
            for (l, &v) in local.iter().enumerate() {
                y[yl.global_of(p, l)] = v;
            }
        }
        for (r, (&got, &wanted)) in y.iter().zip(&want).enumerate() {
            assert!((got - wanted).abs() < 1e-9, "row {r}: {got} vs {wanted}");
        }
    }

    #[test]
    fn empty_matrix_compresses_to_nothing() {
        let grid = ProcGrid::new(&[2, 2]);
        let desc = ArrayDesc::new(&[8, 8], &grid, &[Dist::Block, Dist::Block]).unwrap();
        let machine = Machine::new(grid, CostModel::cm5());
        let d = &desc;
        let out = machine.run(move |proc| {
            let dense = vec![0.0f64; d.local_len(proc.id())];
            SparseMatrix::compress(proc, d, &dense, &PackOptions::default())
                .unwrap()
                .nnz
        });
        assert!(out.results.iter().all(|&n| n == 0));
    }

    /// The rebalancing claim, measured: a lower-triangular dense matrix on
    /// a block-distributed grid loads the "lower" processors with nearly
    /// all nonzeros; after compression the spread is within one element.
    #[test]
    fn compression_rebalances_triangular_nonzeros() {
        let n = 16usize;
        let grid = ProcGrid::new(&[2, 2]);
        let desc = ArrayDesc::new(&[n, n], &grid, &[Dist::Block, Dist::Block]).unwrap();
        let machine = Machine::new(grid, CostModel::cm5());
        let d = &desc;
        let out = machine.run(move |proc| {
            let dense = local_from_fn(d, proc.id(), |g| if g[1] > g[0] { 1.0 } else { 0.0 });
            let before = dense.iter().filter(|&&v| v != 0.0).count();
            let a = SparseMatrix::compress(proc, d, &dense, &PackOptions::default()).unwrap();
            (before, a.local_nnz())
        });
        let before: Vec<usize> = out.results.iter().map(|&(b, _)| b).collect();
        let after: Vec<usize> = out.results.iter().map(|&(_, a)| a).collect();
        let spread = |v: &[usize]| v.iter().max().unwrap() - v.iter().min().unwrap();
        assert!(
            spread(&before) > 30,
            "triangle must be imbalanced before: {before:?}"
        );
        assert!(spread(&after) <= 1, "pack must balance: {after:?}");
    }

    /// Verify against the sequential PACK oracle that compression keeps CSR
    /// (row-major) order.
    #[test]
    fn packed_order_is_row_major() {
        let (ncols, nrows) = (8usize, 4);
        let grid = ProcGrid::new(&[2, 2]);
        let desc = ArrayDesc::new(&[ncols, nrows], &grid, &[Dist::Cyclic, Dist::Cyclic]).unwrap();
        let dense = GlobalArray::from_fn(&[ncols, nrows], |g| {
            if (g[0] + g[1]) % 3 == 0 {
                (g[0] + 10 * g[1]) as f64
            } else {
                0.0
            }
        });
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, dr) = (&desc, &dense);
        let out = machine.run(move |proc| {
            let local = local_from_fn(d, proc.id(), |g| dr.get(g));
            SparseMatrix::compress(proc, d, &local, &PackOptions::default()).unwrap()
        });
        // Reassemble flat indices; they must be strictly increasing (packed
        // in array element order = row-major with columns fastest).
        let layout = out.results[0].layout.unwrap();
        let mut idx = vec![0u32; out.results[0].nnz];
        for (p, m) in out.results.iter().enumerate() {
            for (l, &f) in m.flat_index.iter().enumerate() {
                idx[layout.global_of(p, l)] = f;
            }
        }
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "{idx:?}");
    }
}
