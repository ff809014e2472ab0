//! Allgather: every member ends up with every member's vector (the
//! sample sort's splitter exchange).

use crate::message::Wire;
use crate::proc::{tags, Group, Proc};

/// Every member contributes a vector and receives all vectors, indexed by
/// source rank. Ring algorithm: `P-1` rounds forwarding one slot per round.
pub fn allgather<T: Wire>(proc: &mut Proc, group: &Group, data: Vec<T>) -> Vec<Vec<T>> {
    let n = group.size();
    let me = group.my_rank();
    let mut all: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    all[me] = data;
    let next = group.id_of((me + 1) % n);
    let prev_rank = (me + n - 1) % n;
    let prev = group.id_of(prev_rank);
    proc.with_stage("gather.ring", |proc| {
        for k in 0..n.saturating_sub(1) {
            // Forward the slot received k rounds ago (initially my own).
            let fwd_slot = (me + n - k) % n;
            proc.send(next, tags::GATHER, all[fwd_slot].clone());
            let incoming_slot = (prev_rank + n - k) % n;
            all[incoming_slot] = proc.recv(prev, tags::GATHER);
        }
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::machine::Machine;
    use crate::topology::ProcGrid;

    #[test]
    fn allgather_gives_everyone_everything() {
        for p in [1, 2, 3, 6] {
            let machine = Machine::new(ProcGrid::line(p), CostModel::zero());
            let out = machine.run(|proc| {
                let g = proc.world();
                allgather(proc, &g, vec![proc.id() as i32 * 3])
            });
            for all in &out.results {
                for (r, v) in all.iter().enumerate() {
                    assert_eq!(v, &vec![r as i32 * 3], "p={p}");
                }
            }
        }
    }
}
