//! Irregular gather: fetch `v[idx[k]]` for arbitrary global indices from a
//! distributed vector.
//!
//! This is the READ primitive underneath UNPACK generalised to arbitrary
//! (non-consecutive) indices: two-stage request/reply many-to-many
//! communication, exactly the Section 4.2 pattern with explicit per-element
//! requests.

use hpf_distarray::DimLayout;
use hpf_machine::collectives::{alltoallv, A2aSchedule};
use hpf_machine::{Category, Proc, Wire};

/// Fetch the values of `v_local`'s distributed vector (under `v_layout`) at
/// the global `indices`; returns them in the same order as `indices`.
///
/// Every processor must call this (collectively), each with its own index
/// list (possibly empty).
///
/// # Panics
/// Panics if the vector has more than 2³² elements: requests carry a
/// global index as one `u32` word.
pub fn gather_global<T: Wire + Default>(
    proc: &mut Proc,
    v_local: &[T],
    v_layout: &DimLayout,
    indices: &[usize],
    schedule: A2aSchedule,
) -> Vec<T> {
    assert_u32_indexable(v_layout.n(), "gather_global");
    debug_assert_eq!(v_local.len(), v_layout.local_len(proc.id()));
    let nprocs = proc.nprocs();

    // Compose per-owner requests, remembering where each reply slots back.
    let (requests, origins) = proc.with_category(Category::LocalComp, |proc| {
        let mut requests: Vec<Vec<u32>> = (0..nprocs).map(|_| Vec::new()).collect();
        let mut origins: Vec<Vec<u32>> = (0..nprocs).map(|_| Vec::new()).collect();
        for (k, &g) in indices.iter().enumerate() {
            assert!(g < v_layout.n(), "gather index {g} out of bounds");
            let owner = v_layout.owner(g);
            requests[owner].push(g as u32);
            origins[owner].push(k as u32);
        }
        proc.charge_ops(2 * indices.len());
        (requests, origins)
    });

    let incoming = proc.with_category(Category::ManyToMany, |proc| {
        let world = proc.world();
        alltoallv(proc, &world, requests, schedule)
    });

    let replies = proc.with_category(Category::LocalComp, |proc| {
        let mut replies: Vec<Vec<T>> = Vec::with_capacity(nprocs);
        let mut ops = 0usize;
        for req in &incoming {
            replies.push(
                req.iter()
                    .map(|&g| v_local[v_layout.local_of(g as usize)])
                    .collect(),
            );
            ops += 2 * req.len();
        }
        proc.charge_ops(ops);
        replies
    });

    let values_back = proc.with_category(Category::ManyToMany, |proc| {
        let world = proc.world();
        alltoallv(proc, &world, replies, schedule)
    });

    proc.with_category(Category::LocalComp, |proc| {
        let mut out = vec![T::default(); indices.len()];
        let mut ops = 0usize;
        for (owner, slots) in origins.iter().enumerate() {
            debug_assert_eq!(values_back[owner].len(), slots.len());
            for (&k, &v) in slots.iter().zip(&values_back[owner]) {
                out[k as usize] = v;
            }
            ops += slots.len();
        }
        proc.charge_ops(ops);
        out
    })
}

/// The WRITE counterpart: scatter-add `values[k]` into global positions
/// `indices[k]` of a distributed accumulator (under `y_layout`), combining
/// collisions with `+`. One many-to-many round of `(index, value)` pairs.
///
/// # Panics
/// Panics if the accumulator has more than 2³² elements (the pairs carry
/// its global index as one `u32` word), or on one value per index missing.
pub fn scatter_add_global<T: Wire + Default + std::ops::AddAssign>(
    proc: &mut Proc,
    y_local: &mut [T],
    y_layout: &DimLayout,
    indices: &[usize],
    values: &[T],
    schedule: A2aSchedule,
) {
    assert_u32_indexable(y_layout.n(), "scatter_add_global");
    assert_eq!(indices.len(), values.len(), "one value per index");
    debug_assert_eq!(y_local.len(), y_layout.local_len(proc.id()));
    let nprocs = proc.nprocs();

    let sends = proc.with_category(Category::LocalComp, |proc| {
        let mut sends: Vec<Vec<(u32, T)>> = (0..nprocs).map(|_| Vec::new()).collect();
        for (&g, &v) in indices.iter().zip(values) {
            assert!(g < y_layout.n(), "scatter index {g} out of bounds");
            sends[y_layout.owner(g)].push((g as u32, v));
        }
        proc.charge_ops(2 * indices.len());
        sends
    });

    let recvs = proc.with_category(Category::ManyToMany, |proc| {
        let world = proc.world();
        alltoallv(proc, &world, sends, schedule)
    });

    proc.with_category(Category::LocalComp, |proc| {
        let mut ops = 0usize;
        for msg in recvs {
            for (g, v) in msg {
                y_local[y_layout.local_of(g as usize)] += v;
                ops += 2;
            }
        }
        proc.charge_ops(ops);
    });
}

/// How many indices one `u32` wire word can name: `0 ..= u32::MAX`.
const U32_INDICES: u64 = 1 << 32;

/// Panic unless all `count` indices of a space fit one `u32` wire word: the
/// check in front of every `as u32` narrowing in this module, made before
/// anything is sized by the count.
#[track_caller]
fn assert_u32_indexable(count: usize, what: &str) {
    assert!(
        count as u64 <= U32_INDICES,
        "{what}: {count} indices, more than the {U32_INDICES} a u32 index can name"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, Machine, ProcGrid};

    #[test]
    fn gather_fetches_arbitrary_indices() {
        let p = 4usize;
        let n = 37usize;
        let layout = DimLayout::new_general(n, p, 5).unwrap();
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let l = &layout;
        let out = machine.run(move |proc| {
            let v: Vec<i32> = (0..l.local_len(proc.id()))
                .map(|i| l.global_of(proc.id(), i) as i32 * 10)
                .collect();
            // Each proc asks for a scrambled, overlapping index set.
            let idx: Vec<usize> = (0..20).map(|k| (k * 7 + proc.id() * 3) % n).collect();
            let got = gather_global(proc, &v, l, &idx, A2aSchedule::LinearPermutation);
            (idx, got)
        });
        for (idx, got) in out.results {
            for (&g, &v) in idx.iter().zip(&got) {
                assert_eq!(v, g as i32 * 10);
            }
        }
    }

    #[test]
    fn scatter_add_accumulates_collisions() {
        let p = 3usize;
        let n = 10usize;
        let layout = DimLayout::new_general(n, p, 4).unwrap();
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let l = &layout;
        let out = machine.run(move |proc| {
            let mut y = vec![0i64; l.local_len(proc.id())];
            // Everyone adds 1 into every slot, plus their id into slot 0.
            let mut idx: Vec<usize> = (0..n).collect();
            let mut vals = vec![1i64; n];
            idx.push(0);
            vals.push(proc.id() as i64);
            scatter_add_global(proc, &mut y, l, &idx, &vals, A2aSchedule::LinearPermutation);
            y
        });
        // Slot 0 owner holds p (ones) + sum of ids; all other slots hold p.
        let owner0 = layout.owner(0);
        for (pid, y) in out.results.iter().enumerate() {
            for (i, &v) in y.iter().enumerate() {
                let g = layout.global_of(pid, i);
                let want = if g == 0 && pid == owner0 {
                    p as i64 + (p * (p - 1) / 2) as i64
                } else {
                    p as i64
                };
                assert_eq!(v, want, "global {g}");
            }
        }
    }

    /// Descriptor only: 2³³ elements on one processor, none of them held,
    /// and the index width is refused before any length is looked at.
    fn oversized(run: impl Fn(&mut hpf_machine::Proc, &DimLayout) + Sync) {
        let layout = DimLayout::new_general(1 << 33, 1, 1 << 33).unwrap();
        let machine = Machine::new(ProcGrid::line(1), CostModel::cm5());
        machine.run(|proc| run(proc, &layout));
    }

    #[test]
    #[should_panic(expected = "gather_global: 8589934592 indices, more than the 4294967296")]
    fn gather_refuses_what_a_u32_index_cannot_reach() {
        oversized(|proc, l| {
            let none: [i32; 0] = [];
            gather_global(proc, &none, l, &[], A2aSchedule::LinearPermutation);
        });
    }

    #[test]
    #[should_panic(expected = "scatter_add_global: 8589934592 indices, more than the 4294967296")]
    fn scatter_add_refuses_what_a_u32_index_cannot_reach() {
        oversized(|proc, l| {
            let mut none: [i32; 0] = [];
            let schedule = A2aSchedule::LinearPermutation;
            scatter_add_global(proc, &mut none, l, &[], &[], schedule);
        });
    }

    #[test]
    fn empty_requests_are_fine() {
        let machine = Machine::new(ProcGrid::line(2), CostModel::cm5());
        let layout = DimLayout::new_general(8, 2, 4).unwrap();
        let l = &layout;
        let out = machine.run(move |proc| {
            let v = vec![5i32; 4];
            gather_global(proc, &v, l, &[], A2aSchedule::LinearPermutation)
        });
        assert!(out.results.iter().all(Vec::is_empty));
    }
}
