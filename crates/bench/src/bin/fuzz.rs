//! Differential fuzzing driver: random configurations (shape, grid, block
//! sizes, density, scheme, schedule, vector block size) of parallel PACK
//! and UNPACK against the sequential Fortran 90 oracle.
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --release --bin fuzz -- [--cases N] [--seed N] [--reuse-plans]
//! # defaults: 500 cases, seed 1
//! # --reuse-plans routes every operation through the explicit
//! # plan-then-execute path (hpf_core::plan) instead of the one-shot
//! # wrappers — results must stay bit-identical to the oracle either way
//! ```
//!
//! Every failure message names the seed, so any reported mismatch is
//! reproducible with `--seed`.
//!
//! Complements the proptest suites with a long-running, user-controllable
//! sweep (proptest shrinks nicely but runs a fixed case budget in CI).

use hpf_bench::cases::{assemble_packed, random_array, random_vector, Rng};
use hpf_bench::cli::Args;
use hpf_core::seq::{count_seq, pack_seq, unpack_seq};
use hpf_core::{
    pack, plan_pack, plan_unpack, unpack, PackOptions, PackScheme, UnpackOptions, UnpackScheme,
};
use hpf_distarray::GlobalArray;
use hpf_machine::collectives::A2aSchedule;
use hpf_machine::{CostModel, Machine};

fn main() {
    let mut args = Args::from_env("usage: fuzz [--cases N] [--seed N] [--reuse-plans]");
    let cases: usize = args.value("--cases").unwrap_or(500);
    let seed: u64 = args.value("--seed").unwrap_or(1);
    let reuse_plans = args.flag("--reuse-plans");
    args.positionals(0);
    let mut rng = Rng(seed);

    let schemes = PackScheme::ALL;
    let schedules = [
        A2aSchedule::LinearPermutation,
        A2aSchedule::NaivePush,
        A2aSchedule::PairwiseExchange,
    ];

    let mut pack_cases = 0usize;
    let mut unpack_cases = 0usize;
    for case in 0..cases {
        let (grid, desc) = random_array(&mut rng, 3);
        let (shape, grid_dims) = (desc.shape(), grid.dims());
        let n: usize = shape.iter().product();

        let mask_bits: Vec<bool> = (0..n).map(|_| rng.below(100) < 35 + case % 50).collect();
        let values: Vec<i32> = (0..n).map(|_| rng.below(2000) as i32 - 1000).collect();
        let a = GlobalArray::from_vec(&shape, values);
        let m = GlobalArray::from_vec(&shape, mask_bits);

        let mut opts = PackOptions::new(schemes[rng.below(3)]);
        opts.schedule = schedules[rng.below(3)];
        if rng.below(2) == 0 {
            opts.result_block_size = Some(1 + rng.below(7));
        }

        // PACK differential check.
        let want = pack_seq(&a, &m, None);
        let (ap, mp) = (a.partition(&desc), m.partition(&desc));
        let machine = Machine::new(grid.clone(), CostModel::cm5());
        let (d, apr, mpr, o) = (&desc, &ap, &mp, &opts);
        let out = machine.run(move |proc| {
            if reuse_plans {
                let plan = plan_pack(proc, d, &mpr[proc.id()], o).unwrap();
                plan.execute(proc, &apr[proc.id()]).unwrap()
            } else {
                pack(proc, d, &apr[proc.id()], &mpr[proc.id()], o).unwrap()
            }
        });
        assert_eq!(
            assemble_packed(&out),
            want,
            "PACK mismatch at case {case} (reproduce with --seed {seed}): shape {shape:?}, \
             grid {grid_dims:?}, opts {opts:?}"
        );
        pack_cases += 1;

        // UNPACK differential check on the same mask.
        let size = count_seq(&m);
        let (v, v_layout, v_locals) = random_vector(&mut rng, size, grid.nprocs());
        let want = unpack_seq(&v, &m, &a);
        let uscheme = UnpackScheme::ALL[rng.below(2)];
        let uopts = UnpackOptions::new(uscheme);
        let (vpr, vl, uo) = (&v_locals, &v_layout, &uopts);
        let out = machine.run(move |proc| {
            let (m, f, v) = (&mpr[proc.id()], &apr[proc.id()], &vpr[proc.id()]);
            if reuse_plans {
                let plan = plan_unpack(proc, d, m, vl, uo).unwrap();
                plan.execute(proc, f, v).unwrap()
            } else {
                unpack(proc, d, m, f, v, vl, uo).unwrap()
            }
        });
        assert_eq!(
            GlobalArray::assemble(&desc, &out.results),
            want,
            "UNPACK mismatch at case {case} (reproduce with --seed {seed}): shape {shape:?}, \
             scheme {uscheme:?}, V {v_layout:?}"
        );
        unpack_cases += 1;

        if (case + 1) % 100 == 0 {
            println!("  {} / {cases} cases passed", case + 1);
        }
    }
    println!(
        "fuzz: all {pack_cases} PACK and {unpack_cases} UNPACK differential cases passed \
         (seed {seed}{})",
        if reuse_plans {
            ", plan-then-execute path"
        } else {
            ""
        }
    );
}
