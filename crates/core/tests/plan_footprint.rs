//! Plan-footprint gate: what a processor allocates to build a PACK plan
//! and an UNPACK plan depends on its elements and its peers, not on how
//! many processors the machine has. With 16 elements per processor, the
//! bytes `plan_pack` + `plan_unpack` allocate on the median processor may
//! grow by at most 1.25× from P = 64 to P = 512. The dense plan families
//! this replaced grew 6.7× (34 KB → 229 KB).
//!
//! Two things are kept out of the gated number, because they are not the
//! plan's:
//!
//! * The ranking collectives inside both planners send ⌈log₂ P⌉ rounds of
//!   messages, each an allocation or three in the machine layer — 6 rounds
//!   against 9. The same ranking stage therefore runs alone first (once to
//!   open the mailbox lanes it uses, once measured), and the planners'
//!   bytes are taken net of two of them. The gross bytes are gated too,
//!   loosely: a P-sized table per processor would still trip it.
//! * Processor 0 transposes the flag matrix for everyone (DESIGN.md §17):
//!   it holds P columns of ⌈P/64⌉ words, and its inbound ring and mailbox
//!   grow under the P − 1 rows — growth the allocator bills to whichever
//!   *sender's* push triggered it. Hence the median over processors and
//!   not the maximum: a handful of senders read tens of KB high.

use hpf_core::ranking::{rank_from_counts, slice_counts, RankShape};
use hpf_core::{plan_pack, plan_unpack, MaskPattern, PackOptions, UnpackOptions};
use hpf_distarray::{ArrayDesc, Dist};
use hpf_machine::alloc_counter::{thread_totals, CountingAllocator};
use hpf_machine::{CostModel, Machine, ProcGrid};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const PER_PROC: usize = 16;

/// Per processor: `(gross, net)` bytes allocated planning one PACK and one
/// UNPACK, net of their two ranking stages.
fn plan_bytes(p: usize) -> Vec<(u64, u64)> {
    let grid = ProcGrid::line(p);
    let desc = ArrayDesc::new(&[PER_PROC * p], &grid, &[Dist::BlockCyclic(2)]).unwrap();
    let mask = MaskPattern::Random {
        density: 0.5,
        seed: 5,
    };
    let (popts, uopts) = (PackOptions::default(), UnpackOptions::default());
    let out = Machine::new(grid, CostModel::cm5()).run(|proc| {
        let m = mask.local(&desc, proc.id());
        let shape = RankShape::from_desc(&desc);
        let mut allocated = |f: &mut dyn FnMut(&mut hpf_machine::Proc)| {
            let (_, before) = thread_totals();
            f(proc);
            thread_totals().1 - before
        };
        let mut rank = |proc: &mut hpf_machine::Proc| {
            rank_from_counts(proc, &shape, slice_counts(&m, shape.w[0]), popts.prs);
        };
        allocated(&mut rank);
        let ranking = allocated(&mut rank);
        let gross = allocated(&mut |proc| {
            let pack = plan_pack(proc, &desc, &m, &popts).unwrap();
            let vl = pack.v_layout().expect("the mask selects elements");
            plan_unpack(proc, &desc, &m, &vl, &uopts).unwrap();
        });
        (gross, gross - 2 * ranking)
    });
    out.results
}

#[test]
fn plan_allocation_does_not_grow_with_the_machine() {
    let medians = |p: usize| {
        let bytes = plan_bytes(p);
        let median = |pick: fn(&(u64, u64)) -> u64| {
            let mut v: Vec<u64> = bytes.iter().map(pick).collect();
            v.sort_unstable();
            v[p / 2]
        };
        (median(|b| b.0), median(|b| b.1))
    };
    let ((gross64, net64), (gross512, net512)) = (medians(64), medians(512));
    println!(
        "median plan bytes, P = 64 -> 512: net {net64} -> {net512}, gross {gross64} -> {gross512}"
    );
    assert!(
        net512 as f64 <= 1.25 * net64 as f64,
        "planning allocates {net64} B per processor at P = 64 but {net512} B at P = 512"
    );
    assert!(
        gross512 <= 2 * gross64,
        "with ranking: {gross64} B per processor at P = 64 but {gross512} B at P = 512"
    );
}
