//! Parallel sample sort — the classic all-to-many application (\[9\]'s
//! motivating pattern), finished with a PACK-style rebalance.
//!
//! 1. sort locally;
//! 2. pick evenly spaced local samples, allgather them, and derive `P-1`
//!    global splitters;
//! 3. bucket every element by splitter and exchange (many-to-many
//!    personalized communication — message sizes are data-dependent);
//! 4. merge locally;
//! 5. optionally **rebalance**: after bucketing, processors hold unequal
//!    counts; a scalar prefix-reduction-sum assigns every element its
//!    global rank and a second exchange moves it to the block owner —
//!    exactly the ranking + redistribution structure of PACK with a single
//!    slice per processor.

use hpf_distarray::DimLayout;
use hpf_machine::collectives::{
    allgather, alltoallv, prefix_reduction_sum, A2aSchedule, PrsAlgorithm,
};
use hpf_machine::{Category, Proc, Wire};

/// Sort the distributed vector whose local portion is `v_local`.
///
/// Returns `(sorted_local, layout)`: the concatenation over processor ranks
/// is globally sorted. With `rebalance`, every processor ends with
/// `⌈N/P⌉`-block counts under the returned layout; without it the counts
/// are whatever the buckets produced (layout is `None`).
pub fn sample_sort<T: Wire + Ord + Default>(
    proc: &mut Proc,
    v_local: &[T],
    rebalance: bool,
    schedule: A2aSchedule,
) -> (Vec<T>, Option<DimLayout>) {
    let nprocs = proc.nprocs();
    let world = proc.world();

    // 1. Local sort.
    let mut local = v_local.to_vec();
    proc.with_category(Category::LocalComp, |proc| {
        local.sort_unstable();
        // n log n comparisons, charged linearly per element at lg(n) cost.
        let n = local.len().max(1);
        proc.charge_ops(n * (usize::BITS - n.leading_zeros()) as usize);
    });

    // 2. Splitters: P-1 evenly spaced samples per processor, allgathered.
    let samples: Vec<T> = if local.is_empty() {
        Vec::new()
    } else {
        (1..nprocs)
            .map(|k| local[k * local.len() / nprocs])
            .collect()
    };
    let mut all_samples: Vec<T> = allgather(proc, &world, samples)
        .into_iter()
        .flatten()
        .collect();
    let splitters: Vec<T> = proc.with_category(Category::LocalComp, |proc| {
        all_samples.sort_unstable();
        proc.charge_ops(all_samples.len() * 4);
        if all_samples.is_empty() {
            Vec::new()
        } else {
            (1..nprocs)
                .map(|k| all_samples[k * all_samples.len() / nprocs])
                .collect()
        }
    });

    // 3. Bucket and exchange.
    let sends = proc.with_category(Category::LocalComp, |proc| {
        let mut sends: Vec<Vec<T>> = (0..nprocs).map(|_| Vec::new()).collect();
        for &x in &local {
            let bucket = splitters.partition_point(|s| *s <= x);
            sends[bucket].push(x);
        }
        proc.charge_ops(local.len() * 2);
        sends
    });
    let recvs = proc.with_category(Category::ManyToMany, |proc| {
        alltoallv(proc, &world, sends, schedule)
    });

    // 4. Local merge (the incoming streams are each sorted; a sort of the
    // concatenation keeps the code simple and the charge honest).
    let mut mine: Vec<T> = recvs.into_iter().flatten().collect();
    proc.with_category(Category::LocalComp, |proc| {
        mine.sort_unstable();
        let n = mine.len().max(1);
        proc.charge_ops(n * (usize::BITS - n.leading_zeros()) as usize);
    });

    if !rebalance {
        return (mine, None);
    }

    // 5. Rebalance: global rank of my first element via a scalar
    // prefix-reduction-sum over bucket counts (PACK's ranking specialised
    // to one slice per processor), then a (rank, value) exchange to the
    // block owners (PACK's redistribution stage).
    let (prefix, total) = proc.with_category(Category::PrefixReductionSum, |proc| {
        prefix_reduction_sum(proc, &world, &[mine.len() as i64], PrsAlgorithm::Auto)
    });
    let n_total = total[0] as usize;
    if n_total == 0 {
        return (Vec::new(), None);
    }
    let layout =
        DimLayout::new_general(n_total, nprocs, n_total.div_ceil(nprocs)).expect("positive length");

    let sends = proc.with_category(Category::LocalComp, |proc| {
        let mut sends: Vec<Vec<(u32, T)>> = (0..nprocs).map(|_| Vec::new()).collect();
        let base = prefix[0] as usize;
        for (i, &x) in mine.iter().enumerate() {
            let rank = base + i;
            sends[layout.owner(rank)].push((rank as u32, x));
        }
        proc.charge_ops(2 * mine.len());
        sends
    });
    let recvs = proc.with_category(Category::ManyToMany, |proc| {
        alltoallv(proc, &world, sends, schedule)
    });
    let balanced = proc.with_category(Category::LocalComp, |proc| {
        let mut out = vec![T::default(); layout.local_len(proc.id())];
        let mut placed = 0usize;
        for msg in recvs {
            for (rank, x) in msg {
                out[layout.local_of(rank as usize)] = x;
                placed += 1;
            }
        }
        proc.charge_ops(2 * placed);
        out
    });
    (balanced, Some(layout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, Machine, ProcGrid};

    fn values(pid: usize, n_local: usize) -> Vec<i64> {
        (0..n_local)
            .map(|i| ((pid * 9973 + i * 131) % 5000) as i64 - 2500)
            .collect()
    }

    fn run(p: usize, n_local: usize, rebalance: bool) -> Vec<Vec<i64>> {
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let v = values(proc.id(), n_local);
            sample_sort(proc, &v, rebalance, A2aSchedule::LinearPermutation).0
        });
        out.results
    }

    fn check_sorted(p: usize, n_local: usize, rebalance: bool) {
        let parts = run(p, n_local, rebalance);
        let concat: Vec<i64> = parts.iter().flatten().copied().collect();
        let mut want: Vec<i64> = (0..p).flat_map(|pid| values(pid, n_local)).collect();
        want.sort_unstable();
        assert_eq!(
            concat, want,
            "p={p} n_local={n_local} rebalance={rebalance}"
        );
    }

    #[test]
    fn sorts_globally_without_rebalance() {
        for p in [1, 2, 4, 7] {
            check_sorted(p, 100, false);
        }
    }

    #[test]
    fn sorts_globally_with_rebalance_and_even_counts() {
        let p = 8usize;
        let n_local = 125usize;
        let parts = run(p, n_local, true);
        check_sorted(p, n_local, true);
        let max = parts.iter().map(Vec::len).max().unwrap();
        let min = parts.iter().map(Vec::len).min().unwrap();
        assert_eq!(max, (p * n_local).div_ceil(p), "block counts");
        assert!(max - min <= max, "{max} {min}");
        // Every processor holds exactly its block share.
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), p * n_local);
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let parts = run(3, 0, true);
        assert!(parts.iter().all(Vec::is_empty));
    }

    #[test]
    fn duplicates_are_preserved() {
        let machine = Machine::new(ProcGrid::line(4), CostModel::cm5());
        let out = machine.run(move |proc| {
            let v = vec![7i64; 50]; // all equal
            sample_sort(proc, &v, true, A2aSchedule::LinearPermutation).0
        });
        let concat: Vec<i64> = out.results.iter().flatten().copied().collect();
        assert_eq!(concat, vec![7i64; 200]);
    }
}
