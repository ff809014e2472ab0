//! Closed-form predicted local-operation counts — the Section 6.4 model,
//! evaluated from the global mask alone.
//!
//! Each PACK/UNPACK scheme charges a deterministic number of elementary
//! local operations that depends only on the mask, the array layout
//! `(N, P, W)`, and the result-vector block size `W'`. This module
//! recomputes those counts without running anything, so an analysis pass
//! can check *measured* `LocalComp` operation counters against the paper's
//! analytical model (Sections 6.4.1/6.4.2) and flag any drift — the
//! continuous version of the paper's Section 7 validation.
//!
//! Per-processor quantities, for a 1-D array block-cyclically distributed
//! with block size `W` over `P` processors (`L = N/P` local elements,
//! `C = L/W` local slices):
//!
//! * `E_i` — selected elements on processor `i`;
//! * `R_i` — result-vector elements owned by `i` (`= Q_i`, the ranks
//!   requested *from* `i` in the UNPACK direction);
//! * `K_i` — non-empty slices on `i`;
//! * `Gs_i` — destination runs sent by `i` (consecutive-rank intervals
//!   split at `W'` boundaries);
//! * `Gr_i` — runs received by `i` (`Σ Gr = Σ Gs`);
//! * `S_i` — second-scan cost over non-empty slices (`W·K_i` under the
//!   whole-slice method 2; `Σ (last selected offset + 1)` under the
//!   until-collected method 1 — Section 6.1).
//!
//! The formulas (all verified to zero error by `tests/cost_model.rs` and
//! `tests/conformance.rs` in `crates/analysis`):
//!
//! * PACK SSS: `L + 2C + 6E_i + 2R_i`
//! * PACK CSS: `L + 4C + S_i + Gs_i + 2E_i + 2R_i`
//! * PACK CMS: `L + 4C + S_i + 2Gs_i + E_i + R_i + 2Gr_i`
//! * UNPACK SSS: `2L + 2C + 7E_i + 2R_i`
//! * UNPACK CSS: `2L + 4C + S_i + 2Gs_i + 2E_i + 2R_i` (method-1 scan,
//!   which is what the UNPACK composition uses)

use hpf_distarray::DimLayout;

use crate::plan::copyprog::CopyPrograms;
use crate::plan::field_spans;
use crate::schemes::{PackScheme, ScanMethod, UnpackScheme};

/// Mask-derived per-processor quantities for one 1-D workload. Everything
/// the Section 6.4 formulas consume; see the module docs for symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskStats {
    /// Local elements per processor, `L = N/P`.
    pub l: usize,
    /// Local slices per processor, `C = L/W`.
    pub c: usize,
    /// Array block size `W`.
    pub w: usize,
    /// Global selected count (`Size`).
    pub size: usize,
    /// Result-vector block size `W'` actually used.
    pub w_prime: usize,
    /// `E_i`: selected elements per processor.
    pub e: Vec<usize>,
    /// `R_i`: result-vector elements owned per processor.
    pub r: Vec<usize>,
    /// `K_i`: non-empty slices per processor.
    pub k: Vec<usize>,
    /// `Gs_i`: destination runs sent per processor.
    pub gs: Vec<usize>,
    /// `Gr_i`: runs received per processor.
    pub gr: Vec<usize>,
    /// Method-1 second-scan cost per processor
    /// (`Σ` over non-empty slices of last-selected offset + 1).
    pub scan_until: Vec<usize>,
    /// `Ds_i`: processors (possibly `i` itself) that `i`'s selected elements
    /// are routed to — the rows of its PACK routes and UNPACK targets.
    pub send_peers: Vec<usize>,
    /// `Dr_i`: processors whose selected elements `i` owns ranks of — its
    /// PACK senders and UNPACK requesters.
    pub recv_peers: Vec<usize>,
    /// Retained bytes of the PACK plan's lowered gather copy programs per
    /// processor (DESIGN.md §16): ops, row offsets and `Scatter` indices —
    /// exact, reconstructed by running the same `CopyPrograms::lower` over
    /// the same per-destination slot rows the composers produce. Identical
    /// for all three schemes (the gather order is rank order regardless of
    /// message format).
    pub pack_prog_bytes: Vec<u64>,
    /// Retained bytes of the UNPACK plan's lowered copy programs per
    /// processor — ops, row offsets and `Scatter` indices, as above: the
    /// serve programs (over the local `V` indices each requester is owed)
    /// plus the scatter programs (over the same element-slot rows as the
    /// PACK gather), plus the field spans (8 bytes each, from the same
    /// `field_spans` over the processor's local mask).
    pub unpack_prog_bytes: Vec<u64>,
}

impl MaskStats {
    /// Derive all quantities from the global mask of an `N`-element 1-D
    /// array distributed block-cyclically with block size `w` over `p`
    /// processors. `result_block_size` follows
    /// [`crate::PackOptions::result_block_size`]: `None` means the default
    /// block distribution `W' = ⌈Size/P⌉`.
    ///
    /// # Panics
    /// Panics unless `N` is divisible by `p·w` (the same divisibility PACK
    /// itself validates).
    pub fn from_mask(
        mask: &[bool],
        p: usize,
        w: usize,
        result_block_size: Option<usize>,
    ) -> MaskStats {
        let n = mask.len();
        assert!(p > 0 && w > 0, "degenerate layout");
        assert_eq!(n % (p * w), 0, "N = {n} not divisible by P·W = {}", p * w);
        let l = n / p;
        let c = l / w;
        let size = mask.iter().filter(|&&b| b).count();
        let w_prime = result_block_size.unwrap_or_else(|| size.div_ceil(p)).max(1);
        let v_layout = (size > 0)
            .then(|| DimLayout::new_general(size, p, w_prime).expect("positive parameters"));

        let mut e = vec![0usize; p];
        let mut k = vec![0usize; p];
        let mut gs = vec![0usize; p];
        let mut gr = vec![0usize; p];
        let mut scan_until = vec![0usize; p];
        let r = match &v_layout {
            Some(vl) => (0..p).map(|i| vl.local_len(i)).collect(),
            None => vec![0usize; p],
        };

        // Per-destination index lists, rebuilt exactly as the composers
        // and the request decode build them, so the copy programs lowered
        // below are byte-identical to the ones the plans retain:
        // `slots[i][dst]` = processor `i`'s local element indices routed to
        // `dst`, in rank order (the PACK gather slots and the UNPACK
        // targets alike); `serve[o][q]` = owner `o`'s local `V` indices
        // owed to requester `q`, in rank order.
        let mut slots: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); p]; p];
        let mut serve: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); p]; p];

        // Walk global slices in element order: slice `s` lives on processor
        // `s mod P`; the running selected-count is the global rank of each
        // slice's first selected element (exactly how the prefix-reduction-
        // sum ranks them).
        let mut rank = 0usize;
        for (s, slice) in mask.chunks_exact(w).enumerate() {
            let owner = s % p;
            let cnt = slice.iter().filter(|&&b| b).count();
            e[owner] += cnt;
            if cnt == 0 {
                continue;
            }
            k[owner] += 1;
            let last = slice.iter().rposition(|&b| b).expect("cnt > 0");
            scan_until[owner] += last + 1;
            let vl = v_layout.as_ref().expect("cnt > 0 implies size > 0");
            let slice_base = (s / p) * w;
            let mut rk = rank;
            for (off, &b) in slice.iter().enumerate() {
                if !b {
                    continue;
                }
                let dst = vl.owner(rk);
                slots[owner][dst].push((slice_base + off) as u32);
                serve[dst][owner].push(vl.local_of(rk) as u32);
                rk += 1;
            }
            // Ranks rank..rank+cnt split into destination runs at W'
            // boundaries; each run lands wholly on one owner of V.
            let mut pos = rank;
            let end = rank + cnt;
            while pos < end {
                let len = (w_prime - pos % w_prime).min(end - pos);
                gs[owner] += 1;
                gr[vl.owner(pos)] += 1;
                pos += len;
            }
            rank = end;
        }
        // One program row per populated peer, as in the plans' CSRs.
        let peers = |lists: &[Vec<u32>]| lists.iter().filter(|l| !l.is_empty()).count();
        let prog_bytes = |lists: &[Vec<u32>]| -> u64 {
            let mut offs = vec![0u32];
            for l in lists.iter().filter(|l| !l.is_empty()) {
                offs.push(offs[offs.len() - 1] + l.len() as u32);
            }
            CopyPrograms::lower(&lists.concat(), &offs).mem_bytes()
        };
        let send_peers = slots.iter().map(|per_dst| peers(per_dst)).collect();
        let recv_peers = serve.iter().map(|per_req| peers(per_req)).collect();
        let pack_prog_bytes: Vec<u64> = slots.iter().map(|per_dst| prog_bytes(per_dst)).collect();
        // Processor `i`'s local mask: its slices `i, i + P, …` back to back.
        let span_bytes = |i: usize| {
            let slices = mask.chunks_exact(w).skip(i).step_by(p);
            8 * field_spans(&slices.flatten().copied().collect::<Vec<_>>()).len() as u64
        };
        let unpack_prog_bytes: Vec<u64> = (0..p)
            .map(|i| prog_bytes(&serve[i]) + pack_prog_bytes[i] + span_bytes(i))
            .collect();
        MaskStats {
            l,
            c,
            w,
            size,
            w_prime,
            e,
            r,
            k,
            gs,
            gr,
            scan_until,
            send_peers,
            recv_peers,
            pack_prog_bytes,
            unpack_prog_bytes,
        }
    }

    /// Second-scan cost `S_i` under the given method (Section 6.1):
    /// whole-slice scans cost `W` per non-empty slice; until-collected
    /// scans stop at the last selected element.
    fn scan_cost(&self, i: usize, method: ScanMethod) -> usize {
        match method {
            ScanMethod::WholeSlice => self.w * self.k[i],
            ScanMethod::UntilCollected => self.scan_until[i],
        }
    }

    /// Predicted per-processor `LocalComp` operation counts for a parallel
    /// PACK under `scheme` with the given second-scan method.
    ///
    /// Only meaningful for `size > 0` (an all-false mask short-circuits the
    /// composition and redistribution steps the formulas account for).
    pub fn predict_pack_ops(&self, scheme: PackScheme, method: ScanMethod) -> Vec<u64> {
        let (plan, exec) = self.predict_pack_ops_split(scheme, method);
        plan.iter().zip(&exec).map(|(&p, &x)| p + x).collect()
    }

    /// The PACK prediction attributed to the planner/executor split:
    /// `(plan ops, execute ops)` per processor, summing exactly to
    /// [`MaskStats::predict_pack_ops`]. Scans, ranking, and composition are
    /// plan-time; the value gather and message decode are execute-time.
    pub fn predict_pack_ops_split(
        &self,
        scheme: PackScheme,
        method: ScanMethod,
    ) -> (Vec<u64>, Vec<u64>) {
        let (l, c) = (self.l, self.c);
        (0..self.e.len())
            .map(|i| {
                let (e, r, gs, gr) = (self.e[i], self.r[i], self.gs[i], self.gr[i]);
                let (plan, exec) = match scheme {
                    // 6.4.1: initial L+4E and replay E at plan; gather E
                    // and pair decode 2R at execute (ranking 2C at plan).
                    PackScheme::Simple => (l + 2 * c + 5 * e, e + 2 * r),
                    // 6.4.1: initial L+C, ranking 2C, composition
                    // C + S + Σ(1+len) at plan; gather E, decode 2R.
                    PackScheme::CompactStorage => {
                        (l + 4 * c + self.scan_cost(i, method) + gs + e, e + 2 * r)
                    }
                    // 6.4.2: composition charges 2 per segment header at
                    // plan; values gather at execute, decomposition 2 per
                    // received segment plus one per value.
                    PackScheme::CompactMessage => (
                        l + 4 * c + self.scan_cost(i, method) + 2 * gs,
                        e + r + 2 * gr,
                    ),
                };
                (plan as u64, exec as u64)
            })
            .unzip()
    }

    /// Predicted per-processor `LocalComp` operation counts for a parallel
    /// UNPACK under `scheme`. The field copy adds `L`; the request/reply
    /// READ direction services `2R_i` lookups and scatters `E_i` replies.
    /// UNPACK's compact-storage composition always uses the method-1
    /// (until-collected) second scan.
    pub fn predict_unpack_ops(&self, scheme: UnpackScheme) -> Vec<u64> {
        let (plan, exec) = self.predict_unpack_ops_split(scheme);
        plan.iter().zip(&exec).map(|(&p, &x)| p + x).collect()
    }

    /// The UNPACK prediction attributed to the planner/executor split:
    /// `(plan ops, execute ops)` per processor, summing exactly to
    /// [`MaskStats::predict_unpack_ops`]. Scans, ranking, composition, the
    /// request round, and the owners' request decode (`R_i` lookups) are
    /// plan-time; the field copy, the value replies (`R_i`), and the
    /// scatter (`E_i`) are execute-time.
    pub fn predict_unpack_ops_split(&self, scheme: UnpackScheme) -> (Vec<u64>, Vec<u64>) {
        let (l, c) = (self.l, self.c);
        (0..self.e.len())
            .map(|i| {
                let (e, r, gs) = (self.e[i], self.r[i], self.gs[i]);
                let plan = match scheme {
                    UnpackScheme::Simple => l + 2 * c + 6 * e + r,
                    UnpackScheme::CompactStorage => {
                        l + 4 * c + self.scan_cost(i, ScanMethod::UntilCollected) + 2 * gs + e + r
                    }
                };
                ((plan) as u64, (l + r + e) as u64)
            })
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes(n: usize, period: usize, on: usize) -> Vec<bool> {
        (0..n).map(|g| g % period < on).collect()
    }

    #[test]
    fn stats_count_the_basics() {
        // N=16, P=2, W=4: slices 0,2 on proc 0; slices 1,3 on proc 1.
        let mask = stripes(16, 4, 2); // two selected at the head of each slice
        let s = MaskStats::from_mask(&mask, 2, 4, None);
        assert_eq!((s.l, s.c, s.size), (8, 2, 8));
        assert_eq!(s.e, vec![4, 4]);
        assert_eq!(s.k, vec![2, 2]);
        // W' = ceil(8/2) = 4; each slice contributes 2 consecutive ranks.
        assert_eq!(s.w_prime, 4);
        // Ranks: slice0→0..2, slice1→2..4, slice2→4..6, slice3→6..8.
        // Runs split at 4: slice1's 2..4 stays whole, slice2's 4..6 whole.
        assert_eq!(s.gs, vec![2, 2]);
        assert_eq!(s.gs.iter().sum::<usize>(), s.gr.iter().sum::<usize>());
        assert_eq!(s.r, vec![4, 4]);
        // Until-collected scans stop at offset 1 (+1 = 2 per slice).
        assert_eq!(s.scan_until, vec![4, 4]);
    }

    #[test]
    fn empty_mask_is_harmless() {
        let s = MaskStats::from_mask(&[false; 12], 3, 2, None);
        assert_eq!(s.size, 0);
        assert_eq!(s.e, vec![0, 0, 0]);
        assert_eq!(s.gs, vec![0, 0, 0]);
    }

    #[test]
    fn run_splitting_respects_w_prime() {
        // One full slice of 4 selected on proc 0, W' = 3: ranks 0..4 split
        // into (0..3) and (3..4).
        let mut mask = vec![false; 8];
        mask[..4].fill(true);
        let s = MaskStats::from_mask(&mask, 2, 4, Some(3));
        assert_eq!(s.gs, vec![2, 0]);
        assert_eq!(s.gr, vec![1, 1]);
        assert_eq!(s.r, vec![3, 1]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_layout_panics() {
        MaskStats::from_mask(&[true; 10], 3, 2, None);
    }
}
