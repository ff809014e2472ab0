//! Cross-crate sanity of the simulated cost model: monotonicity, scale
//! behaviour, and the paper's qualitative claims about where time goes.

use hpf_packunpack::core::{pack, MaskPattern, PackOptions, PackScheme};
use hpf_packunpack::distarray::{local_from_fn, ArrayDesc, Dist};
use hpf_packunpack::machine::collectives::{prefix_reduction_sum, PrsAlgorithm};
use hpf_packunpack::machine::{Category, CostModel, Machine, ProcGrid};

fn pack_total_ms(n: usize, p: usize, w: usize, density: f64) -> f64 {
    let grid = ProcGrid::line(p);
    let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(w)]).unwrap();
    let pattern = MaskPattern::Random { density, seed: 7 };
    let machine = Machine::new(grid, CostModel::cm5());
    let d = &desc;
    machine
        .run(move |proc| {
            let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
            let m = local_from_fn(d, proc.id(), |g| pattern.value(g, &[n]));
            pack(proc, d, &a, &m, &PackOptions::default()).unwrap();
        })
        .max_time_ms()
}

#[test]
fn pack_time_is_monotone_in_array_size() {
    let t1 = pack_total_ms(1024, 4, 8, 0.5);
    let t2 = pack_total_ms(4096, 4, 8, 0.5);
    let t3 = pack_total_ms(16384, 4, 8, 0.5);
    assert!(t1 < t2 && t2 < t3, "{t1} {t2} {t3}");
}

#[test]
fn pack_time_grows_as_blocks_shrink() {
    // Fixed N, P, density: smaller blocks = more tiles = more work.
    let times: Vec<f64> = [64usize, 16, 4, 1]
        .iter()
        .map(|&w| pack_total_ms(4096, 4, w, 0.5))
        .collect();
    for pair in times.windows(2) {
        assert!(
            pair[0] <= pair[1] * 1.05,
            "shrinking blocks should not speed PACK up: {times:?}"
        );
    }
    assert!(
        times[3] > times[0],
        "cyclic must be strictly slower than large blocks"
    );
}

#[test]
fn zero_cost_model_times_nothing_but_still_computes() {
    let grid = ProcGrid::line(4);
    let desc = ArrayDesc::new(&[64], &grid, &[Dist::Block]).unwrap();
    let machine = Machine::new(grid, CostModel::zero());
    let d = &desc;
    let out = machine.run(move |proc| {
        let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
        let m = local_from_fn(d, proc.id(), |g| g[0] % 2 == 0);
        pack(proc, d, &a, &m, &PackOptions::default()).unwrap().size
    });
    assert_eq!(out.results[0], 32);
    assert_eq!(out.max_time_ms(), 0.0);
}

#[test]
fn fused_prs_beats_sequential_prefix_then_reduce_on_startups() {
    // The point of the fused primitive (Section 5.1): one exchange instead
    // of two. Compare message start-ups of one fused call vs two.
    let startups = |fused: bool| {
        let machine = Machine::new(ProcGrid::line(8), CostModel::cm5());
        machine
            .run(move |proc| {
                let world = proc.world();
                let v = vec![1i32; 64];
                if fused {
                    prefix_reduction_sum(proc, &world, &v, PrsAlgorithm::Direct);
                } else {
                    prefix_reduction_sum(proc, &world, &v, PrsAlgorithm::Direct);
                    prefix_reduction_sum(proc, &world, &v, PrsAlgorithm::Direct);
                }
            })
            .total_startups()
    };
    assert_eq!(2 * startups(true), startups(false));
}

#[test]
fn message_volume_matches_scheme_accounting() {
    // With a block-distributed 50%-dense mask over a *cyclic* input, SSS
    // sends (rank, value) pairs: exactly 2 words per off-processor packed
    // element. CMS on the same input sends 3 words per single-element
    // segment. This pins the paper's 6.4.2 volume claims to the wire.
    let grid = ProcGrid::line(4);
    let desc = ArrayDesc::new(&[64], &grid, &[Dist::Cyclic]).unwrap();
    let machine = Machine::new(grid, CostModel::cm5());
    let d = &desc;
    let words = |scheme: PackScheme| {
        machine
            .run(move |proc| {
                let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
                // Select everything: Size = 64, ranks = identity, so with a
                // block result vector the destination of global g is g/16 but
                // the cyclic owner of g is g%4: almost all traffic is remote.
                let m = vec![true; d.local_len(proc.id())];
                pack(proc, d, &a, &m, &PackOptions::new(scheme)).unwrap();
            })
            .total_words_sent()
    };
    let sss = words(PackScheme::Simple);
    let cms = words(PackScheme::CompactMessage);
    // Both runs share identical ranking (PRS) traffic, so the difference
    // isolates the redistribution messages. Full mask on cyclic input:
    // every slice has W_0 = 1 element, so every CMS segment holds exactly
    // one element — 3 words against SSS's 2-word pair, i.e. +1 word per
    // remote element. Remote elements: rank g goes to block g/16 but lives
    // on g mod 4; they coincide for 16 of the 64 elements, leaving 48.
    assert_eq!(cms - sss, 48, "sss={sss} cms={cms}");
}

#[test]
fn scaled_experiment_shifts_time_to_communication() {
    // Fixed local size, growing P (the Section 7 scaled experiment, shrunk).
    let share = |p: usize| {
        let n = 1024 * p;
        let grid = ProcGrid::line(p);
        let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(16)]).unwrap();
        let pattern = MaskPattern::Random {
            density: 0.5,
            seed: 11,
        };
        let machine = Machine::new(grid, CostModel::cm5());
        let d = &desc;
        let out = machine.run(move |proc| {
            let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
            let m = pattern.local(d, proc.id());
            pack(proc, d, &a, &m, &PackOptions::default()).unwrap();
        });
        let comm =
            out.max_cat_ms(Category::PrefixReductionSum) + out.max_cat_ms(Category::ManyToMany);
        comm / out.max_time_ms()
    };
    assert!(
        share(16) > share(2),
        "communication share must grow with P at fixed local size"
    );
}

/// Tracing and the communication matrix compose with a full PACK run: the
/// traced spans account for the whole timeline and the matrix carries the
/// redistribution plus ranking traffic.
#[test]
fn tracing_and_comm_matrix_cover_a_pack_run() {
    let grid = ProcGrid::line(4);
    let desc = ArrayDesc::new(&[256], &grid, &[Dist::BlockCyclic(4)]).unwrap();
    let pattern = MaskPattern::Random {
        density: 0.5,
        seed: 77,
    };
    let machine = Machine::new(grid, CostModel::cm5()).with_tracing(true);
    let d = &desc;
    let out = machine.run(move |proc| {
        let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
        let m = local_from_fn(d, proc.id(), |g| pattern.value(g, &[256]));
        pack(proc, d, &a, &m, &PackOptions::default()).unwrap().size
    });
    for (c, trace) in out.clocks.iter().zip(&out.traces) {
        let span_total: f64 = trace.iter().map(|s| s.len_ns()).sum();
        assert!(
            (span_total - c.now_ns).abs() < 1e-6,
            "spans must cover the clock"
        );
    }
    // The matrix total matches the clock total.
    let matrix = out.comm_matrix().expect("a traced run");
    let matrix_total: u64 = matrix.iter().flatten().sum();
    assert_eq!(matrix_total, out.total_words_sent());
    assert!(matrix_total > 0);
    // The Gantt includes all three stages.
    let g = out.gantt(60);
    assert!(g.contains('L') && g.contains('P') && g.contains('M'), "{g}");
}
