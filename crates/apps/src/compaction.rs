//! Iterative stream compaction: the canonical PACK workload.
//!
//! A population of "particles" distributed over the machine loses members
//! each step (absorption, out-of-bounds, convergence — any data-dependent
//! predicate). Without compaction the survivors drift into an arbitrary,
//! imbalanced layout; PACKing the survivors after each step restores a
//! perfectly balanced block distribution — the exact runtime-support
//! scenario the paper's introduction motivates.
//!
//! Each processor keeps a fixed-capacity local buffer (the original
//! `N/P` slots); alive particles occupy a prefix. PACK gathers all
//! survivors machine-wide into a block-distributed vector, which every
//! processor re-embeds as its new prefix.

use hpf_core::{pack, PackError, PackOptions};
use hpf_distarray::{ArrayDesc, Dist};
use hpf_machine::collectives::allreduce_with;
use hpf_machine::{Category, Proc};

/// One step's summary (identical on every processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Survivors after this step, machine-wide.
    pub alive: usize,
    /// Max over processors of locally alive particles *before* compaction —
    /// the load imbalance PACK removes.
    pub max_local_before: usize,
    /// Max over processors *after* compaction (`⌈alive/P⌉`).
    pub max_local_after: usize,
}

/// Run `steps` rounds of "advance, absorb, compact" over an initial
/// population of `n` particles (positions `0..n`).
///
/// `advance(pos, step)` moves a particle; `survive(pos, step)` decides
/// whether it stays. Must be called collectively; `n` must be a multiple of
/// the processor count.
pub fn run_compaction(
    proc: &mut Proc,
    n: usize,
    steps: usize,
    advance: impl Fn(i64, usize) -> i64,
    survive: impl Fn(i64, usize) -> bool,
    opts: &PackOptions,
) -> Result<Vec<StepStats>, PackError> {
    let nprocs = proc.nprocs();
    assert!(
        n.is_multiple_of(nprocs),
        "initial population must divide the processor count"
    );
    let cap = n / nprocs;

    // The fixed-capacity buffer is modelled as a block-distributed array of
    // the original size; the machine grid must be able to host it.
    let desc = ArrayDesc::new(&[n], proc.grid(), &[Dist::Block])
        .map_err(|_| PackError::NotDivisible { dim: 0 })?;

    // Initial prefix: my block of positions.
    let me = proc.id();
    let mut particles: Vec<i64> = (0..cap).map(|l| (me * cap + l) as i64).collect();
    let mut stats = Vec::with_capacity(steps);

    for step in 0..steps {
        // Advance and absorb, locally.
        let (buffer, mask, alive_local) = proc.with_category(Category::LocalComp, |proc| {
            let mut buffer = vec![0i64; cap];
            let mut mask = vec![false; cap];
            let mut alive = 0usize;
            for &p in &particles {
                let moved = advance(p, step);
                if survive(moved, step) {
                    buffer[alive] = moved;
                    mask[alive] = true;
                    alive += 1;
                }
            }
            proc.charge_ops(2 * particles.len());
            (buffer, mask, alive)
        });

        let world = proc.world();
        let max_before = proc.with_category(Category::Other, |proc| {
            allreduce_with(proc, &world, &[alive_local as u64], u64::max)[0] as usize
        });

        // Compact machine-wide. The survivor mask is data-dependent and
        // changes every step, so no plan is worth keeping: one-shot `pack`
        // plans, executes and retires.
        let packed = pack(proc, &desc, &buffer, &mask, opts)?;
        particles = packed.local_v;
        stats.push(StepStats {
            alive: packed.size,
            max_local_before: max_before,
            max_local_after: particles.len(),
        });
        if packed.size == 0 {
            break;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, Machine, ProcGrid};

    /// Serial oracle of the same simulation.
    fn oracle(
        n: usize,
        steps: usize,
        advance: impl Fn(i64, usize) -> i64,
        survive: impl Fn(i64, usize) -> bool,
    ) -> Vec<usize> {
        let mut pop: Vec<i64> = (0..n as i64).collect();
        let mut alive = Vec::new();
        for step in 0..steps {
            pop = pop
                .into_iter()
                .map(|p| advance(p, step))
                .filter(|&p| survive(p, step))
                .collect();
            alive.push(pop.len());
            if pop.is_empty() {
                break;
            }
        }
        alive
    }

    #[test]
    fn population_counts_match_serial_simulation() {
        let n = 256usize;
        let steps = 6usize;
        let advance = |p: i64, _| p.wrapping_mul(31).wrapping_add(17) % 1000;
        let survive = |p: i64, step: usize| !(p.unsigned_abs() as usize + step).is_multiple_of(4);
        let want = oracle(n, steps, advance, survive);

        let machine = Machine::new(ProcGrid::line(4), CostModel::cm5());
        let out = machine.run(move |proc| {
            run_compaction(proc, n, steps, advance, survive, &PackOptions::default()).unwrap()
        });
        for stats in &out.results {
            let got: Vec<usize> = stats.iter().map(|s| s.alive).collect();
            assert_eq!(&got, &want);
        }
    }

    #[test]
    fn compaction_restores_balance_under_skewed_absorption() {
        // Absorb everything except low positions: without compaction, only
        // the first processor would keep work.
        let n = 512usize;
        let machine = Machine::new(ProcGrid::line(8), CostModel::cm5());
        let out = machine.run(move |proc| {
            run_compaction(
                proc,
                n,
                1,
                |p, _| p,
                |p, _| p < 80, // only the lowest 80 positions survive
                &PackOptions::default(),
            )
            .unwrap()
        });
        for stats in &out.results {
            let s = stats[0];
            assert_eq!(s.alive, 80);
            // Before: proc 0 keeps all of its 64, proc 1 keeps 16, others 0.
            assert_eq!(s.max_local_before, 64);
            // After: ceil(80/8) = 10 everywhere.
            assert_eq!(s.max_local_after, 10);
        }
    }

    /// Each step's plan goes back before the next: every processor ends
    /// the run holding no plan bytes and no pool slot.
    #[test]
    fn every_step_gives_its_plan_back() {
        let n = 128usize;
        let steps = 4usize;
        let p = 4usize;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5()).with_metrics(true);
        let out = machine.run(move |proc| {
            run_compaction(
                proc,
                n,
                steps,
                |pos, _| pos + 1,
                |pos, _| pos % 5 != 0, // sheds ~20% per step, never extinct
                &PackOptions::default(),
            )
            .unwrap()
        });
        for (id, m) in out.metrics.iter().enumerate() {
            for gauge in ["mem.plan.cur", "mem.pool.cur"] {
                assert_eq!(m.gauges[gauge].last, 0, "proc {id}: {gauge}");
            }
        }
    }

    #[test]
    fn extinction_terminates_early() {
        let machine = Machine::new(ProcGrid::line(4), CostModel::cm5());
        let out = machine.run(move |proc| {
            run_compaction(
                proc,
                64,
                10,
                |p, _| p,
                |_, step| step == 0,
                &PackOptions::default(),
            )
            .unwrap()
        });
        for stats in &out.results {
            // Step 0 keeps everyone, step 1 kills everyone, loop stops.
            assert_eq!(stats.len(), 2);
            assert_eq!(stats[0].alive, 64);
            assert_eq!(stats[1].alive, 0);
        }
    }
}
