//! Property tests for the machine substrate: collectives against serial
//! oracles over arbitrary group sizes, payload sizes, and algorithms, plus
//! clock invariants.

use proptest::prelude::*;

use hpf_machine::collectives::{
    allgather, allreduce_sum, allreduce_with, alltoallv, alltoallv_sparse, broadcast,
    prefix_reduction_sum, A2aSchedule, PrsAlgorithm,
};
use hpf_machine::{Category, CostModel, Group, Machine, Proc, ProcGrid, RunOutput};

fn any_algo() -> impl Strategy<Value = PrsAlgorithm> {
    prop::sample::select(vec![
        PrsAlgorithm::Direct,
        PrsAlgorithm::Split,
        PrsAlgorithm::Auto,
        PrsAlgorithm::Hardware,
    ])
}

fn any_schedule() -> impl Strategy<Value = A2aSchedule> {
    prop::sample::select(vec![
        A2aSchedule::LinearPermutation,
        A2aSchedule::NaivePush,
        A2aSchedule::PairwiseExchange,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn prs_all_algorithms_match_serial(
        p in 1usize..=10,
        m in 0usize..32,
        algo in any_algo(),
        seed in 0i32..500,
    ) {
        let inputs: Vec<Vec<i32>> =
            (0..p).map(|r| (0..m).map(|j| (seed + (r * 13 + j * 7) as i32) % 89).collect()).collect();
        let mut acc = vec![0i32; m];
        let mut prefixes = Vec::new();
        for v in &inputs {
            prefixes.push(acc.clone());
            for (a, b) in acc.iter_mut().zip(v) { *a += *b; }
        }
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let inp = &inputs;
        let out = machine.run(move |proc| {
            let g = proc.world();
            prefix_reduction_sum(proc, &g, &inp[proc.id()], algo)
        });
        for (r, (prefix, total)) in out.results.iter().enumerate() {
            prop_assert_eq!(prefix, &prefixes[r]);
            prop_assert_eq!(total, &acc);
        }
    }

    #[test]
    fn broadcast_from_any_root(p in 1usize..=9, root_sel in 0usize..9, len in 0usize..20) {
        let root = root_sel % p;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let g = proc.world();
            let data = if g.my_rank() == root {
                (0..len as i32).collect()
            } else {
                Vec::new()
            };
            broadcast(proc, &g, root, data)
        });
        let want: Vec<i32> = (0..len as i32).collect();
        for r in out.results {
            prop_assert_eq!(r, want.clone());
        }
    }

    #[test]
    fn allgather_is_replicated_gather(p in 1usize..=8) {
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let g = proc.world();
            allgather(proc, &g, vec![proc.id() as i32 * 2 + 1])
        });
        for all in &out.results {
            for (r, v) in all.iter().enumerate() {
                prop_assert_eq!(v, &vec![r as i32 * 2 + 1]);
            }
        }
    }

    #[test]
    fn alltoall_schedules_agree(
        p in 1usize..=8,
        schedule in any_schedule(),
        base in 0usize..4,
    ) {
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let g = proc.world();
            let sends: Vec<Vec<i32>> = (0..p)
                .map(|j| vec![(proc.id() * 31 + j) as i32; base + (proc.id() + j) % 3])
                .collect();
            alltoallv(proc, &g, sends, schedule)
        });
        for (j, recvs) in out.results.iter().enumerate() {
            for (r, v) in recvs.iter().enumerate() {
                prop_assert_eq!(v.len(), base + (r + j) % 3);
                prop_assert!(v.iter().all(|&x| x == (r * 31 + j) as i32));
            }
        }
    }

    #[test]
    fn allreduce_sum_equals_with_add(p in 1usize..=8, m in 0usize..16) {
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let g = proc.world();
            let v: Vec<i64> = (0..m).map(|j| (proc.id() * 7 + j) as i64).collect();
            let a = allreduce_sum(proc, &g, &v, PrsAlgorithm::Direct);
            let b = allreduce_with(proc, &g, &v, |x, y| x + y);
            (a, b)
        });
        for (a, b) in out.results {
            prop_assert_eq!(a, b);
        }
    }

    /// Clocks never run backwards and category times sum to at most the
    /// final time (charges are the only way time advances besides waits,
    /// which are also attributed).
    #[test]
    fn category_times_sum_to_total(p in 1usize..=6, m in 1usize..64) {
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            proc.set_category(Category::PrefixReductionSum);
            let g = proc.world();
            let v = vec![1i32; m];
            prefix_reduction_sum(proc, &g, &v, PrsAlgorithm::Auto);
            proc.set_category(Category::LocalComp);
            proc.charge_ops(m);
        });
        for c in &out.clocks {
            let cat_sum: f64 = Category::ALL.iter().map(|&cat| c.cat_ns(cat)).sum();
            prop_assert!((cat_sum - c.now_ns).abs() < 1e-6, "sum {} vs now {}", cat_sum, c.now_ns);
        }
    }
}

/// The message processor `src` sends group rank `j` (global id `dst`) under
/// `seed`: empty for most pairs, a few words for about `density`/64 of them.
fn sparse_slot(seed: u64, density: u64, src: usize, dst: usize) -> Vec<i32> {
    let x = (seed ^ ((src as u64) << 32 | dst as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if x >> 58 < density {
        vec![(src * 1000 + dst) as i32; 1 + (x >> 20) as usize % 3]
    } else {
        Vec::new()
    }
}

/// One traced run of `exchange` over the group `pick` selects; each
/// processor reports what it received as a dense by-source vector.
fn traced_exchange(
    machine: &Machine,
    pick: &(impl Fn(&Proc) -> Group + Sync),
    exchange: impl Fn(&mut Proc, &Group) -> Vec<Vec<i32>> + Sync,
) -> RunOutput<Vec<Vec<i32>>> {
    machine.run(|proc| {
        let g = pick(proc);
        exchange(proc, &g)
    })
}

/// Results, clocks, comm matrix and per-processor event streams of the
/// sparse entry and of the dense adapter must be the same run.
fn assert_sparse_equals_dense(
    machine: Machine,
    pick: impl Fn(&Proc) -> Group + Sync,
    schedule: A2aSchedule,
    seed: u64,
    density: u64,
) {
    let machine = machine.with_tracing(true);
    let slot = |proc: &Proc, g: &Group, j: usize| sparse_slot(seed, density, proc.id(), g.id_of(j));
    let dense = traced_exchange(&machine, &pick, |proc, g| {
        let sends = (0..g.size()).map(|j| slot(proc, g, j)).collect();
        alltoallv(proc, g, sends, schedule)
    });
    let sparse = traced_exchange(&machine, &pick, |proc, g| {
        // The contract of the sparse entry: populated slots only, plus the
        // caller's own (moved, whatever it holds).
        let sends = (0..g.size())
            .map(|j| (j as u32, slot(proc, g, j)))
            .filter(|(j, s)| *j as usize == g.my_rank() || !s.is_empty())
            .collect();
        let mut by_src = vec![Vec::new(); g.size()];
        for (src, data) in alltoallv_sparse(proc, g, sends, schedule) {
            by_src[src as usize] = data;
        }
        by_src
    });
    assert_eq!(&sparse.results, &dense.results);
    assert_eq!(&sparse.comm_matrix, &dense.comm_matrix);
    for (a, b) in sparse.clocks.iter().zip(&dense.clocks) {
        assert_eq!(a.now_ns.to_bits(), b.now_ns.to_bits());
        assert_eq!((a.words_sent, a.startups), (b.words_sent, b.startups));
    }
    // Record order within one log varies with the interleaving; the set of
    // (timestamp, event) pairs per processor does not.
    let canonical = |out: &RunOutput<Vec<Vec<i32>>>| -> Vec<Vec<(u64, String)>> {
        let logs = out.events.iter();
        logs.map(|evs| {
            let mut v: Vec<_> = (evs.iter())
                .map(|e| (e.ts_ns.to_bits(), format!("{:?}", e.kind)))
                .collect();
            v.sort();
            v
        })
        .collect()
    };
    assert_eq!(canonical(&sparse), canonical(&dense));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The sparse round engine and the dense adapter over it are one
    /// exchange: identical payloads and identical event streams, for random
    /// sparse pair populations, every schedule, and group sizes on both
    /// sides of the 64-bit flag word.
    #[test]
    fn sparse_entry_and_dense_adapter_are_the_same_exchange(
        p in prop::sample::select(vec![1usize, 2, 3, 5, 8, 33, 65]),
        schedule in any_schedule(),
        seed in 0u64..1000,
        density in prop::sample::select(vec![0u64, 2, 8, 40]),
    ) {
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        assert_sparse_equals_dense(machine, |proc| proc.world(), schedule, seed, density);
    }

    /// The same over the row and column communicators of a 3 × 4 grid,
    /// where member ids are not ranks.
    #[test]
    fn sparse_entry_and_dense_adapter_agree_on_axis_groups(
        dim in 0usize..2,
        schedule in any_schedule(),
        seed in 0u64..1000,
        density in prop::sample::select(vec![0u64, 8, 40, 64]),
    ) {
        let machine = Machine::new(ProcGrid::new(&[3, 4]), CostModel::cm5());
        assert_sparse_equals_dense(machine, |proc| proc.axis_group(dim), schedule, seed, density);
    }
}
