//! Vector prefix-reduction-sum (Section 5.1).
//!
//! Each group member holds a local vector `V_r[0..M]`. The primitive computes
//! simultaneously, element-wise across the group:
//!
//! * the **exclusive prefix sum** `F_r[j] = Σ_{k<r} V_k[j]` (rank 0 gets all
//!   zeros), and
//! * the **reduction sum** `R[j] = Σ_k V_k[j]`, replicated on every member.
//!
//! Combining the two primitives halves the number of message start-ups
//! compared with running them separately, which is the point of the fused
//! primitive in the paper.
//!
//! Two algorithms are provided, mirroring the paper's direct/split choice:
//!
//! * [`PrsAlgorithm::Direct`] — bidirectional Hillis–Steele recursive
//!   doubling. `⌈log₂ P⌉` rounds, each moving the whole `M`-element vector
//!   in both directions: cost `Θ((τ + μM)·log P)`. Best for small vectors
//!   or few processors.
//! * [`PrsAlgorithm::Split`] — transpose-based: the vector is split into `P`
//!   chunks, chunk `j` is collected by rank `j`, which computes the prefix
//!   and total across the rank axis for its chunk and returns them. Cost
//!   `Θ(P·τ + μM)` — the per-word volume no longer multiplies with `log P`,
//!   so it wins as `M` grows. (The paper's [6] uses a recursive-halving
//!   variant with `τ·log P` start-ups; the transpose variant exposes the
//!   same `τ`-count vs `μM`-volume trade-off. See DESIGN.md.)
//! * [`PrsAlgorithm::Auto`] — the paper's CM-5 selection rule (Section 7):
//!   direct if the group has at most 4 members or the vector is shorter than
//!   the group, split otherwise.

use crate::collectives::Num;
use crate::proc::{tags, Group, Proc};

/// Algorithm choice for [`prefix_reduction_sum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrsAlgorithm {
    /// Recursive-doubling on whole vectors: `Θ((τ + μM) log P)`.
    Direct,
    /// Transpose-based chunked algorithm: `Θ(P·τ + μM)`.
    Split,
    /// The paper's selection heuristic: `Direct` iff `P ≤ 4` or `M < P`.
    Auto,
    /// CM-5-style control network (the paper's footnote 2): the scan runs
    /// on dedicated hardware in `O(M)` time with a small constant,
    /// independent of `P`. Charged as two hardware scans (the prefix and
    /// the reduction need not be fused when hardware support exists):
    /// `2·(cn_τ + cn_μ·M)`.
    Hardware,
}

impl PrsAlgorithm {
    /// Resolve `Auto` for a group of `p` members and vectors of `m` elements.
    pub fn resolve(self, p: usize, m: usize) -> PrsAlgorithm {
        match self {
            PrsAlgorithm::Auto => {
                if p <= 4 || m < p {
                    PrsAlgorithm::Direct
                } else {
                    PrsAlgorithm::Split
                }
            }
            other => other,
        }
    }
}

/// Compute the element-wise (exclusive prefix, total) of `v` across `group`.
///
/// Returns `(prefix, total)`, both of length `v.len()`. Every member must
/// call with the same vector length and the same algorithm.
///
/// Charges message traffic and the split algorithm's local accumulation work
/// to the calling processor's ambient clock category.
pub fn prefix_reduction_sum<T: Num>(
    proc: &mut Proc,
    group: &Group,
    v: &[T],
    algo: PrsAlgorithm,
) -> (Vec<T>, Vec<T>) {
    let n = group.size();
    if n == 1 {
        return (vec![T::default(); v.len()], v.to_vec());
    }
    match algo.resolve(n, v.len()) {
        PrsAlgorithm::Direct => proc.with_stage("prs.direct", |proc| direct(proc, group, v)),
        PrsAlgorithm::Split => proc.with_stage("prs.split", |proc| split(proc, group, v)),
        PrsAlgorithm::Hardware => proc.with_stage("prs.hw", |proc| {
            // Move the data with the software algorithm but charge nothing
            // for it; then charge what the control network would cost.
            let out = proc.with_uncharged_comm(|proc| split(proc, group, v));
            proc.clock().charge_hw_scan(v.len());
            proc.clock().charge_hw_scan(v.len());
            out
        }),
        PrsAlgorithm::Auto => unreachable!("resolved above"),
    }
}

/// Bidirectional Hillis–Steele: maintain `up` (inclusive sum over the window
/// ending at my rank) and `down` (inclusive sum over the window starting at
/// my rank). After `⌈log₂ n⌉` doubling rounds, `up` is the inclusive prefix
/// and `down` the inclusive suffix; then `prefix = up - v` and
/// `total = up + down - v`.
fn direct<T: Num>(proc: &mut Proc, group: &Group, v: &[T]) -> (Vec<T>, Vec<T>) {
    let n = group.size();
    let me = group.my_rank();
    let mut up = v.to_vec();
    let mut down = v.to_vec();

    let mut d = 1usize;
    while d < n {
        // Sends first so no round deadlocks.
        if me + d < n {
            proc.send(group.id_of(me + d), tags::SCAN, up.clone());
        }
        if me >= d {
            proc.send(group.id_of(me - d), tags::SCAN, down.clone());
        }
        if me >= d {
            let their_up: Vec<T> = proc.recv(group.id_of(me - d), tags::SCAN);
            for (a, b) in up.iter_mut().zip(&their_up) {
                *a += *b;
            }
            proc.charge_ops(v.len());
        }
        if me + d < n {
            let their_down: Vec<T> = proc.recv(group.id_of(me + d), tags::SCAN);
            for (a, b) in down.iter_mut().zip(&their_down) {
                *a += *b;
            }
            proc.charge_ops(v.len());
        }
        d *= 2;
    }

    let prefix: Vec<T> = up.iter().zip(v).map(|(&u, &x)| u - x).collect();
    let total: Vec<T> = up
        .iter()
        .zip(&down)
        .zip(v)
        .map(|((&u, &w), &x)| u + w - x)
        .collect();
    proc.charge_ops(2 * v.len());
    (prefix, total)
}

/// Even chunk boundaries: chunk `j` of a length-`m` vector split `n` ways is
/// `[start(j), start(j+1))` where the first `m % n` chunks get one extra
/// element.
fn chunk_bounds(m: usize, n: usize, j: usize) -> (usize, usize) {
    let base = m / n;
    let rem = m % n;
    let start = j * base + j.min(rem);
    let len = base + usize::from(j < rem);
    (start, start + len)
}

/// Transpose-based split algorithm.
fn split<T: Num>(proc: &mut Proc, group: &Group, v: &[T]) -> (Vec<T>, Vec<T>) {
    let n = group.size();
    let me = group.my_rank();
    let m = v.len();
    let (my_lo, my_hi) = chunk_bounds(m, n, me);
    let my_len = my_hi - my_lo;

    // Round 1 (transpose): rank j collects chunk j from every member.
    // Linear permutation order staggers partners.
    let mut chunks_by_src: Vec<Vec<T>> = vec![Vec::new(); n];
    chunks_by_src[me] = v[my_lo..my_hi].to_vec();
    for k in 1..n {
        let dst = (me + k) % n;
        let src = (me + n - k) % n;
        let (lo, hi) = chunk_bounds(m, n, dst);
        proc.send(group.id_of(dst), tags::SCAN, v[lo..hi].to_vec());
        chunks_by_src[src] = proc.recv(group.id_of(src), tags::SCAN);
    }

    // Local: exclusive prefix across the source-rank axis, per element of my
    // chunk, plus the grand total. n·(M/n) = M accumulation steps.
    let mut running = vec![T::default(); my_len];
    let mut prefix_for_src: Vec<Vec<T>> = Vec::with_capacity(n);
    for chunk in &chunks_by_src {
        prefix_for_src.push(running.clone());
        for (acc, &x) in running.iter_mut().zip(chunk) {
            *acc += x;
        }
    }
    let total_chunk = running;
    proc.charge_ops(n * my_len);

    // Round 2: return (prefix chunk ++ total chunk) to each source in one
    // message — the fused primitive's start-up saving.
    let mut prefix = vec![T::default(); m];
    let mut total = vec![T::default(); m];
    {
        // My own chunk, free.
        let mine = &prefix_for_src[me];
        prefix[my_lo..my_hi].copy_from_slice(mine);
        total[my_lo..my_hi].copy_from_slice(&total_chunk);
    }
    for k in 1..n {
        let dst = (me + k) % n;
        let src = (me + n - k) % n;
        let mut payload = prefix_for_src[dst].clone();
        payload.extend_from_slice(&total_chunk);
        proc.send(group.id_of(dst), tags::SCAN, payload);

        let back: Vec<T> = proc.recv(group.id_of(src), tags::SCAN);
        let (lo, hi) = chunk_bounds(m, n, src);
        let len = hi - lo;
        debug_assert_eq!(back.len(), 2 * len);
        prefix[lo..hi].copy_from_slice(&back[..len]);
        total[lo..hi].copy_from_slice(&back[len..]);
    }
    (prefix, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Category, CostModel};
    use crate::machine::Machine;
    use crate::topology::ProcGrid;

    fn serial_prs(vectors: &[Vec<i32>]) -> (Vec<Vec<i32>>, Vec<i32>) {
        let m = vectors[0].len();
        let mut prefixes = Vec::new();
        let mut acc = vec![0i32; m];
        for v in vectors {
            prefixes.push(acc.clone());
            for (a, b) in acc.iter_mut().zip(v) {
                *a += b;
            }
        }
        (prefixes, acc)
    }

    fn check(p: usize, m: usize, algo: PrsAlgorithm) {
        let machine = Machine::new(ProcGrid::line(p), CostModel::zero());
        let inputs: Vec<Vec<i32>> = (0..p)
            .map(|r| (0..m).map(|j| (r * 31 + j * 7 + 1) as i32 % 97).collect())
            .collect();
        let (want_prefix, want_total) = serial_prs(&inputs);
        let inputs_ref = &inputs;
        let out = machine.run(move |proc| {
            let g = proc.world();
            let v = inputs_ref[proc.id()].clone();
            prefix_reduction_sum(proc, &g, &v, algo)
        });
        for (r, (prefix, total)) in out.results.iter().enumerate() {
            assert_eq!(
                prefix, &want_prefix[r],
                "prefix mismatch p={p} m={m} rank {r} {algo:?}"
            );
            assert_eq!(
                total, &want_total,
                "total mismatch p={p} m={m} rank {r} {algo:?}"
            );
        }
    }

    #[test]
    fn direct_matches_serial_various_sizes() {
        for p in [1, 2, 3, 4, 5, 8, 13, 16] {
            for m in [0, 1, 5, 64] {
                check(p, m, PrsAlgorithm::Direct);
            }
        }
    }

    #[test]
    fn split_matches_serial_various_sizes() {
        for p in [1, 2, 3, 4, 5, 8, 13, 16] {
            for m in [0, 1, 5, 17, 64] {
                check(p, m, PrsAlgorithm::Split);
            }
        }
    }

    #[test]
    fn auto_matches_serial() {
        for (p, m) in [(2, 100), (16, 8), (16, 1024)] {
            check(p, m, PrsAlgorithm::Auto);
        }
    }

    #[test]
    fn hardware_matches_serial() {
        for (p, m) in [(1, 8), (3, 7), (16, 256)] {
            check(p, m, PrsAlgorithm::Hardware);
        }
    }

    /// Hardware scans charge the control-network model only: no message
    /// words, time = 2*(cn_tau + cn_mu*M), independent of P.
    #[test]
    fn hardware_charges_control_network_model() {
        let model = CostModel::cm5();
        for p in [2usize, 16] {
            let machine = Machine::new(ProcGrid::line(p), model);
            let m = 100usize;
            let out = machine.run(move |proc| {
                proc.set_category(Category::PrefixReductionSum);
                let g = proc.world();
                let v = vec![1i32; m];
                prefix_reduction_sum(proc, &g, &v, PrsAlgorithm::Hardware);
            });
            assert_eq!(out.total_words_sent(), 0, "p={p}");
            let want_ms = 2.0 * (model.cn_tau_ns + model.cn_mu_ns * m as f64) / 1e6;
            let got = out.max_cat_ms(Category::PrefixReductionSum);
            assert!(
                (got - want_ms).abs() < 1e-9,
                "p={p}: got {got}, want {want_ms}"
            );
        }
    }

    #[test]
    fn auto_heuristic_matches_paper_rule() {
        // direct if P <= 4 or M < P, split otherwise
        assert_eq!(
            PrsAlgorithm::Auto.resolve(4, 1_000_000),
            PrsAlgorithm::Direct
        );
        assert_eq!(PrsAlgorithm::Auto.resolve(16, 8), PrsAlgorithm::Direct);
        assert_eq!(PrsAlgorithm::Auto.resolve(16, 16), PrsAlgorithm::Split);
        assert_eq!(PrsAlgorithm::Auto.resolve(256, 1024), PrsAlgorithm::Split);
        assert_eq!(
            PrsAlgorithm::Direct.resolve(256, 1024),
            PrsAlgorithm::Direct
        );
    }

    #[test]
    fn chunk_bounds_partition_evenly() {
        for m in [0, 1, 7, 16, 33] {
            for n in [1, 2, 3, 16] {
                let mut covered = 0;
                for j in 0..n {
                    let (lo, hi) = chunk_bounds(m, n, j);
                    assert_eq!(lo, covered);
                    covered = hi;
                    assert!(hi - lo <= m / n + 1);
                }
                assert_eq!(covered, m);
            }
        }
    }

    /// The cost signature is the whole point of having two algorithms:
    /// direct's volume term scales with log P, split's does not.
    #[test]
    fn split_beats_direct_on_large_vectors_and_vice_versa() {
        let model = CostModel::cm5();
        let time = |p: usize, m: usize, algo: PrsAlgorithm| {
            let machine = Machine::new(ProcGrid::line(p), model);
            let out = machine.run(move |proc| {
                proc.set_category(Category::PrefixReductionSum);
                let g = proc.world();
                let v = vec![1i32; m];
                prefix_reduction_sum(proc, &g, &v, algo);
            });
            out.max_cat_ms(Category::PrefixReductionSum)
        };
        // Large vector, many procs: split wins.
        assert!(
            time(16, 16384, PrsAlgorithm::Split) < time(16, 16384, PrsAlgorithm::Direct),
            "split should win on large vectors"
        );
        // Tiny vector, many procs: direct wins (start-up bound).
        assert!(
            time(16, 4, PrsAlgorithm::Direct) < time(16, 4, PrsAlgorithm::Split),
            "direct should win on tiny vectors"
        );
    }
}
